//! `BENCH_*.json` records: the one writer and reader of the format,
//! and the run scaffolding every `bench_*` bin shares (its command
//! line, the barrier-started timer and interleaved best-of-N).
//!
//! A record is one JSON object. `host` names where it was measured;
//! `params` holds the bin's settings and headline results as flat
//! numbers; each cell is one fixed-work measurement: a label, threads,
//! operations, seconds, any further numbers it measures in `values`
//! (percentiles, phase rates), and its `StatsSnapshot` delta in
//! `stats`, under the counter names of the per-lock JSONL export.
//!
//! ```text
//! {"workload":"read-storm","host":{"arch":"x86_64","nproc":2,"profile":"release","quick":false},"params":{...},"cells":[
//! {"label":"RWLock","threads":1,"ops":6400000,"secs":0.43,"values":{},"stats":{"write_enters":0,...}},
//! ...
//! ]}
//! ```
//!
//! [`Record::decode`] is strict: a missing key, an unknown key, a count
//! that is not an exact non-negative integer, or a value that is not a
//! finite number is an error naming the key. [`Record::save`] reads
//! every file it writes back through it.
//!
//! ```
//! use solero_bench::record::{Cell, Host, Record};
//! use solero_runtime::stats::StatsSnapshot;
//!
//! let stats = StatsSnapshot { read_enters: 1000, ..Default::default() };
//! let rec = Record::new("demo", Host::current(true))
//!     .param("repeats", 3.0)
//!     .cells([Cell::new("SOLERO", 2, 1000, 0.5, stats).value("p99_ns", 4096.0)]);
//! assert_eq!(Record::decode(&rec.encode()), Ok(rec));
//! ```

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

use solero_obs::json::{self, JsonObject, Value};
use solero_runtime::spin::detected_parallelism;
use solero_runtime::stats::StatsSnapshot;
use solero_testkit::seed_override;

/// Where and how a record was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Hardware threads the process may run on.
    pub nproc: u64,
    /// The build profile: `release` or `debug`.
    pub profile: String,
    /// Whether the bin ran its abbreviated `--quick` sizes.
    pub quick: bool,
}

impl Host {
    /// This process's host.
    pub fn current(quick: bool) -> Host {
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        Host {
            arch: std::env::consts::ARCH.to_string(),
            nproc: detected_parallelism() as u64,
            profile: profile.to_string(),
            quick,
        }
    }
}

/// One fixed-work measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// What ran: a lock, a variant, a phase.
    pub label: String,
    /// Threads that shared the work.
    pub threads: u64,
    /// Operations completed.
    pub ops: u64,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Further measurements, by name.
    pub values: BTreeMap<String, f64>,
    /// The lock counters the cell added.
    pub stats: StatsSnapshot,
}

impl Cell {
    /// A cell with no further values.
    pub fn new(
        label: impl Into<String>,
        threads: usize,
        ops: u64,
        secs: f64,
        stats: StatsSnapshot,
    ) -> Cell {
        Cell {
            label: label.into(),
            threads: threads as u64,
            ops,
            secs,
            values: BTreeMap::new(),
            stats,
        }
    }

    /// Adds a further measurement.
    pub fn value(mut self, key: &str, v: f64) -> Cell {
        self.values.insert(key.to_string(), v);
        self
    }

    /// Operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.secs
    }

    /// Nanoseconds per operation.
    pub fn ns_per_op(&self) -> f64 {
        self.secs * 1e9 / self.ops as f64
    }
}

/// One `BENCH_*.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// What the bin measures.
    pub workload: String,
    /// Where it was measured.
    pub host: Host,
    /// Settings and headline results, by name.
    pub params: BTreeMap<String, f64>,
    /// The measurements.
    pub cells: Vec<Cell>,
}

impl Record {
    /// An empty record.
    pub fn new(workload: &str, host: Host) -> Record {
        Record {
            workload: workload.to_string(),
            host,
            params: BTreeMap::new(),
            cells: Vec::new(),
        }
    }

    /// Adds a setting or headline result.
    pub fn param(mut self, key: &str, v: f64) -> Record {
        self.params.insert(key.to_string(), v);
        self
    }

    /// Appends cells.
    pub fn cells(mut self, cells: impl IntoIterator<Item = Cell>) -> Record {
        self.cells.extend(cells);
        self
    }

    /// The document, one cell per line, ending in a newline.
    pub fn encode(&self) -> String {
        let host = JsonObject::new()
            .str("arch", &self.host.arch)
            .num("nproc", self.host.nproc)
            .str("profile", &self.host.profile)
            .bool("quick", self.host.quick);
        let cells = self.cells.iter().map(|c| {
            JsonObject::new()
                .str("label", &c.label)
                .num("threads", c.threads)
                .num("ops", c.ops)
                .float("secs", c.secs)
                .obj("values", numbers(&c.values))
                .obj("stats", c.stats.write_fields(JsonObject::new()))
        });
        let doc = JsonObject::new()
            .str("workload", &self.workload)
            .obj("host", host)
            .obj("params", numbers(&self.params))
            .objs("cells", cells)
            .finish();
        doc + "\n"
    }

    /// Reads a document back.
    ///
    /// # Errors
    ///
    /// Malformed JSON, or the first key that is missing, unknown, or of
    /// the wrong kind; the message names the key.
    pub fn decode(text: &str) -> Result<Record, String> {
        let doc = json::parse(text)?;
        let o = object(&doc, "record")?;
        closed(o, &["workload", "host", "params", "cells"])?;
        let h = object(field(o, "host")?, "host")?;
        closed(h, &["arch", "nproc", "profile", "quick"])?;
        let host = Host {
            arch: string(h, "arch")?,
            nproc: json::uint(h, "nproc")?,
            profile: string(h, "profile")?,
            quick: match field(h, "quick")? {
                Value::Bool(b) => *b,
                _ => return Err("\"quick\" is not a boolean".into()),
            },
        };
        let Value::Arr(rows) = field(o, "cells")? else {
            return Err("\"cells\" is not an array".into());
        };
        let cells = rows
            .iter()
            .enumerate()
            .map(|(i, row)| decode_cell(row).map_err(|e| format!("cell {i}: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(Record {
            workload: string(o, "workload")?,
            host,
            params: numbers_of(o, "params")?,
            cells,
        })
    }

    /// Writes the document to `path`, then reads it back through
    /// [`decode`](Self::decode) and checks it is unchanged.
    ///
    /// # Panics
    ///
    /// If the file cannot be written or read, or does not read back as
    /// this record (a value that is not finite, for one).
    pub fn save(&self, path: &Path) {
        let shown = path.display();
        std::fs::write(path, self.encode()).unwrap_or_else(|e| panic!("write {shown}: {e}"));
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {shown}: {e}"));
        let back = Record::decode(&text).unwrap_or_else(|e| panic!("{shown}: {e}"));
        assert!(back == *self, "{shown} does not read back as written");
        eprintln!("wrote {shown}");
    }
}

fn decode_cell(row: &Value) -> Result<Cell, String> {
    let o = object(row, "cell")?;
    closed(o, &["label", "threads", "ops", "secs", "values", "stats"])?;
    let stats = object(field(o, "stats")?, "stats")?;
    closed(stats, StatsSnapshot::FIELDS)?;
    Ok(Cell {
        label: string(o, "label")?,
        threads: json::uint(o, "threads")?,
        ops: json::uint(o, "ops")?,
        secs: number(o, "secs")?,
        values: numbers_of(o, "values")?,
        stats: StatsSnapshot::read_fields(stats)?,
    })
}

fn numbers(m: &BTreeMap<String, f64>) -> JsonObject {
    m.iter().fold(JsonObject::new(), |o, (k, v)| o.float(k, *v))
}

fn field<'a>(o: &'a BTreeMap<String, Value>, key: &str) -> Result<&'a Value, String> {
    o.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

fn object<'a>(v: &'a Value, what: &str) -> Result<&'a BTreeMap<String, Value>, String> {
    v.as_obj()
        .ok_or_else(|| format!("{what} is not a JSON object"))
}

/// Rejects any key of `o` outside `keys`.
fn closed(o: &BTreeMap<String, Value>, keys: &[&str]) -> Result<(), String> {
    match o.keys().find(|k| !keys.contains(&k.as_str())) {
        Some(key) => Err(format!("unknown key {key:?}")),
        None => Ok(()),
    }
}

fn string(o: &BTreeMap<String, Value>, key: &str) -> Result<String, String> {
    field(o, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{key:?} is not a string"))
}

fn number(o: &BTreeMap<String, Value>, key: &str) -> Result<f64, String> {
    match field(o, key)?.as_num() {
        Some(n) if n.is_finite() => Ok(n),
        _ => Err(format!("{key:?} is not a finite number")),
    }
}

/// Field `key` as a flat map of finite numbers.
fn numbers_of(o: &BTreeMap<String, Value>, key: &str) -> Result<BTreeMap<String, f64>, String> {
    let m = object(field(o, key)?, key)?;
    m.keys().map(|k| Ok((k.clone(), number(m, k)?))).collect()
}

/// A bench bin's command line: `[--quick] [--out PATH]`, plus
/// `[--seed N]` for a bin that takes a seed and positional names for a
/// bin that takes them (`reproduce`'s targets).
#[derive(Debug, Clone)]
pub struct Args {
    /// Run the abbreviated sizes.
    pub quick: bool,
    /// Where the record goes.
    pub out: PathBuf,
    /// `--seed`, else `SOLERO_TESTKIT_SEED`, else the bin's default;
    /// `None` for a bin without a seed.
    pub seed: Option<u64>,
    /// The positional arguments, in order, each one of the bin's names.
    pub names: Vec<String>,
}

impl Args {
    /// Parses the process's arguments, exiting with a usage line on an
    /// unknown or malformed one. The record is written to `default_out`
    /// unless `--out` says otherwise; `--seed` is accepted only when
    /// `default_seed` is given, and a positional argument only when it
    /// is one of `names`.
    pub fn parse(default_out: &str, default_seed: Option<u64>, names: &[&str]) -> Args {
        let usage = |why: String| -> ! {
            let seed = if default_seed.is_some() {
                " [--seed N]"
            } else {
                ""
            };
            let names = if names.is_empty() {
                String::new()
            } else {
                format!(" [{}]...", names.join("|"))
            };
            eprintln!("{why}\nusage: [--quick] [--out PATH]{seed}{names}");
            std::process::exit(2)
        };
        let mut args = Args {
            quick: false,
            out: PathBuf::from(default_out),
            seed: default_seed.map(seed_override),
            names: Vec::new(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--quick" => args.quick = true,
                "--out" => match it.next() {
                    Some(path) => args.out = PathBuf::from(path),
                    None => usage("--out takes a path".into()),
                },
                "--seed" if default_seed.is_some() => {
                    match it.next().and_then(|s| s.parse().ok()) {
                        Some(seed) => args.seed = Some(seed),
                        None => usage("--seed takes a u64".into()),
                    }
                }
                name if names.contains(&name) => args.names.push(name.to_string()),
                other => usage(format!("unknown argument {other:?}")),
            }
        }
        // The record holds the seed as a JSON number, exact below 2^53.
        if args.seed.is_some_and(|s| s >= 1 << 53) {
            usage("the seed must be below 2^53 for the record to hold it exactly".into());
        }
        args
    }
}

/// Runs `body(id)` for `id` in `0..threads`, each on its own scoped
/// thread, all released together off a barrier, and returns the
/// elapsed seconds.
///
/// The clock starts *before* the release: if it started after, the
/// main thread could be descheduled across the release and wake with
/// the work already done, crediting the cell with absurd throughput.
/// This way the elapsed time can only be overestimated, which best-of-N
/// repeats then trim.
pub fn timed(threads: usize, body: impl Fn(usize) + Sync) -> f64 {
    let start = Barrier::new(threads + 1);
    let t0 = std::thread::scope(|s| {
        for id in 0..threads {
            let (start, body) = (&start, &body);
            s.spawn(move || {
                start.wait();
                body(id);
            });
        }
        let t0 = Instant::now();
        start.wait();
        t0
    });
    t0.elapsed().as_secs_f64()
}

/// Runs the contenders of one comparison `repeats` rounds each and
/// keeps each contender's fastest cell, in contender order. Every round
/// runs every contender once, in turn: on a shared host, steal time and
/// frequency drift swamp a single timing, and interleaving keeps a slow
/// patch from landing entirely on one contender.
///
/// # Panics
///
/// If `repeats` is zero.
pub fn best_of<F: Fn() -> Cell>(repeats: usize, contenders: &[F]) -> Vec<Cell> {
    let mut best: Vec<Option<Cell>> = vec![None; contenders.len()];
    for _ in 0..repeats {
        for (slot, run) in best.iter_mut().zip(contenders) {
            let cell = run();
            if slot.as_ref().is_none_or(|b| cell.secs < b.secs) {
                *slot = Some(cell);
            }
        }
    }
    best.into_iter()
        .map(|c| c.expect("at least one repeat"))
        .collect()
}
