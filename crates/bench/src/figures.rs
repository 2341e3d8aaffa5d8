//! The paper's evaluation — Table 1 and Figures 10–16 — plus two
//! ablations and a latency experiment. Each target is the list of cells
//! it needs and its tables, rendered from cells.
//!
//! A cell is one workload configuration, contender and thread count,
//! labelled `workload/contender`: `hashmap-5w/SOLERO` at 4 threads is
//! one cell however many targets read it. [`record`] measures the union
//! of the named targets' cells, each once, into one [`Record`], and
//! [`render`] prints a target from cells alone, a fresh run's or a
//! checked-in `BENCH_paper.json`'s. A measured cell's `score_ops_s`
//! value is its §4.1 score, the average over runs of each run's best
//! window; its `ops`, `secs` and `stats` cover every measured window.
//!
//! Figure 11 is the 1-thread slice of Figures 12(a), 12(b), 13(a),
//! 13(b) and 14. Figure 15 reads the SOLERO cells of Figures 12(b),
//! 12(c), 13(b) and 14, and Table 1 reads those sweeps' and Figure 10's
//! 1-thread SOLERO cells, measuring only its four DaCapo rows.

use std::collections::HashSet;
use std::time::Instant;

use solero::{
    BoxedStrategy, BravoStrategy, JavaRwLock, LockStrategy, RwStrategy, SeqStrategy, SoleroConfig,
    SoleroStrategy, SyncStrategy,
};
use solero_runtime::stats::StatsSnapshot;
use solero_workloads::dacapo::{DacapoBench, DacapoProfile, DACAPO_PROFILES};
use solero_workloads::driver::{measure, Measurement, RunConfig};
use solero_workloads::empty::EmptyBench;
use solero_workloads::jbb::JbbBench;
use solero_workloads::latency::measure_latency;
use solero_workloads::maps::{MapBench, MapConfig, MapKind};

use crate::record::{Cell, Host, Record};
use crate::report::{f3, pct, Table};

/// Harness-wide knobs.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Use the abbreviated protocol (fewer/shorter windows, fewer
    /// thread counts).
    pub quick: bool,
}

impl HarnessConfig {
    fn run(&self, threads: usize) -> RunConfig {
        if self.quick {
            RunConfig::quick(threads)
        } else {
            RunConfig::paper(threads)
        }
    }

    /// The thread counts swept by the multi-thread figures (the paper
    /// uses 1–16 on a 16-way machine).
    pub fn thread_counts(&self) -> Vec<usize> {
        if self.quick {
            vec![1, 2, 4, 8]
        } else {
            vec![1, 2, 4, 8, 16]
        }
    }

    /// The widest sweep, where the ablations and the latency run.
    fn max_threads(&self) -> usize {
        let counts = self.thread_counts();
        *counts.last().expect("never empty")
    }
}

fn lock() -> BoxedStrategy {
    Box::new(LockStrategy::new())
}

fn solero() -> BoxedStrategy {
    Box::new(SoleroStrategy::new())
}

/// The strategy fleet the comparative figures iterate — one growable
/// registry of factories for fresh boxed strategies, so adding a
/// contender here grows every sweep's cells and columns with it; each
/// contender's name is its strategy's `name()`. `Lock` must stay first:
/// the sweeps normalize their throughput to it.
pub fn fleet() -> Vec<fn() -> BoxedStrategy> {
    vec![
        lock,
        || Box::new(RwStrategy::<JavaRwLock>::new()),
        || Box::new(BravoStrategy::new()),
        solero,
        || {
            Box::new(SoleroStrategy::configured(
                SoleroConfig::builder().adaptive(true).build(),
            ))
        },
        // The inline seqlock guards ambient workload data through its
        // sequence word here (the closure sections); the typed inline
        // payload fast path is measured separately by `bench_seqlock`.
        || Box::new(SeqStrategy::new(0u64)),
    ]
}

/// The contenders of Figures 14 and 16, and of Figure 11's SPECjbb row.
const LOCK_VS_SOLERO: [fn() -> BoxedStrategy; 2] = [lock, solero];

/// Sweep-table headers: the lead column followed by the fleet names,
/// so tables grow with [`fleet`] instead of hardcoding it.
fn fleet_header(lead: &'static str) -> Vec<&'static str> {
    let mut h = vec![lead];
    h.extend(fleet().iter().map(|make| make().name()));
    h
}

/// The value of a measured cell holding its §4.1 score, in ops/s.
const SCORE: &str = "score_ops_s";

/// The values of a latency cell, in ns (histogram bucket upper bounds).
const PERCENTILES: [&str; 4] = ["p50_ns", "p90_ns", "p99_ns", "p999_ns"];

/// A cell some target needs: its key and how to measure it.
struct Spec {
    label: String,
    threads: usize,
    run: Box<dyn Fn(&RunConfig) -> Cell>,
}

impl Spec {
    /// A cell measured by the §4.1 protocol: `body` makes one
    /// `driver::measure` call over a fresh workload.
    fn scored(
        label: String,
        threads: usize,
        body: impl Fn(&RunConfig) -> Measurement + 'static,
    ) -> Spec {
        let name = label.clone();
        let run = move |cfg: &RunConfig| {
            let m = body(cfg);
            Cell::new(name.as_str(), threads, m.ops, m.measured_secs, m.stats)
                .value(SCORE, m.ops_per_sec)
        };
        Spec {
            label,
            threads,
            run: Box::new(run),
        }
    }
}

/// A map workload: the map, the percentage of writes, and whether each
/// thread gets its own map and lock (fine-grained) or all share one.
#[derive(Debug, Clone, Copy)]
struct Map(MapKind, u32, bool);

const HASH_0W: Map = Map(MapKind::Hash, 0, false);
const HASH_5W: Map = Map(MapKind::Hash, 5, false);
const HASH_5W_FINE: Map = Map(MapKind::Hash, 5, true);
const TREE_0W: Map = Map(MapKind::Tree, 0, false);
const TREE_5W: Map = Map(MapKind::Tree, 5, false);

/// The coarse maps of Figure 11 and Table 1.
const COARSE_MAPS: [Map; 4] = [HASH_0W, HASH_5W, TREE_0W, TREE_5W];

impl Map {
    /// The workload part of a cell label at `threads`: `hashmap-5w`,
    /// `treemap-0w`, or `hashmap-5w-fine` when several threads each have
    /// a map of their own (one fine-grained thread is the coarse map).
    fn name(self, threads: usize) -> String {
        let fine = if self.config(threads).shards > 1 {
            "-fine"
        } else {
            ""
        };
        format!("{}-{}w{fine}", self.kind().to_lowercase(), self.1)
    }

    /// A table row's name: `HashMap (5% writes)`.
    fn title(self) -> String {
        format!("{} ({}% writes)", self.kind(), self.1)
    }

    fn kind(self) -> &'static str {
        match self.0 {
            MapKind::Hash => "HashMap",
            MapKind::Tree => "TreeMap",
        }
    }

    fn config(self, threads: usize) -> MapConfig {
        MapConfig::paper(self.0, self.1, if self.2 { threads } else { 1 })
    }
}

/// Map workload `w` at `threads` under the contender `name`.
fn map_cell(
    w: Map,
    threads: usize,
    name: &str,
    make: impl Fn() -> BoxedStrategy + 'static,
) -> Spec {
    let mc = w.config(threads);
    Spec::scored(format!("{}/{name}", w.name(threads)), threads, move |cfg| {
        let b = MapBench::new_boxed(mc, &make);
        measure(cfg, |t, rng| b.op(t, rng), || b.snapshot())
    })
}

/// Map workload `w` at `threads`, one cell per fleet contender.
fn fleet_cells(w: Map, threads: usize) -> impl Iterator<Item = Spec> {
    fleet()
        .into_iter()
        .map(move |make| map_cell(w, threads, make().name(), make))
}

/// The mini-SPECjbb at `threads` warehouses, one per thread.
fn jbb_cell(threads: usize, make: fn() -> BoxedStrategy) -> Spec {
    Spec::scored(format!("jbb/{}", make().name()), threads, move |cfg| {
        let b = JbbBench::new_boxed(threads, make);
        measure(cfg, |t, rng| b.op(t, rng), || b.snapshot())
    })
}

/// DaCapo profile `p` at `threads` application threads.
fn dacapo_cell(p: DacapoProfile, threads: usize, make: fn() -> BoxedStrategy) -> Spec {
    let label = format!("dacapo-{}/{}", p.name, make().name());
    Spec::scored(label, threads, move |cfg| {
        let b = DacapoBench::new_boxed(p, threads, make);
        measure(cfg, |t, rng| b.op(t, rng), || b.snapshot())
    })
}

/// The empty section on one thread. `EmptyBench` deliberately stays
/// generic (monomorphized): the Figure 10 probe measures pure lock
/// overhead, where a virtual call would be a measurable artifact.
fn empty_cell<S: SyncStrategy + 'static>(make: fn() -> S) -> Spec {
    Spec::scored(format!("empty/{}", make().name()), 1, move |cfg| {
        let b = EmptyBench::new(make());
        measure(cfg, |_, _| b.op(), || b.snapshot())
    })
}

/// Per-operation latency of HashMap 5% writes at `threads`,
/// `samples` operations per thread.
fn latency_cell(threads: usize, samples: u64, make: fn() -> BoxedStrategy) -> Spec {
    let label = format!("{}-latency/{}", HASH_5W.name(threads), make().name());
    let name = label.clone();
    let run = move |_: &RunConfig| {
        let b = MapBench::new_boxed(HASH_5W.config(threads), make);
        let before = b.snapshot();
        let t0 = Instant::now();
        let r = measure_latency(threads, samples, |t, rng| b.op(t, rng));
        let secs = t0.elapsed().as_secs_f64();
        let stats = b.snapshot().since(&before);
        let cell = Cell::new(name.as_str(), threads, r.samples, secs, stats);
        let values = [r.p50, r.p90, r.p99, r.p999];
        PERCENTILES
            .iter()
            .zip(values)
            .fold(cell, |c, (key, v)| c.value(key, v as f64))
    };
    Spec {
        label,
        threads,
        run: Box::new(run),
    }
}

/// The cell `s` names.
fn cell<'a>(cells: &'a [Cell], s: &Spec) -> Result<&'a Cell, String> {
    cells
        .iter()
        .find(|c| c.label == s.label && c.threads == s.threads as u64)
        .ok_or_else(|| format!("no {}-thread cell {}", s.threads, s.label))
}

/// Value `key` of the cell `s` names.
fn value(cells: &[Cell], s: &Spec, key: &str) -> Result<f64, String> {
    let c = cell(cells, s)?;
    c.values
        .get(key)
        .copied()
        .ok_or_else(|| format!("the {}-thread cell {} has no {key}", s.threads, s.label))
}

/// The §4.1 scores of the cells `specs` name, in order.
fn scores(cells: &[Cell], specs: impl IntoIterator<Item = Spec>) -> Result<Vec<f64>, String> {
    specs.into_iter().map(|s| value(cells, &s, SCORE)).collect()
}

/// The contender part of a cell label.
fn contender(label: &str) -> &str {
    label.split_once('/').map_or(label, |(_, c)| c)
}

type Tables = Result<Vec<Table>, String>;

/// Every target: its name, the cells it needs, and its tables rendered
/// from cells.
const TARGETS: [(&str, CellsOf, Render); 10] = [
    ("table1", table1_cells, table1),
    ("fig10", fig10_cells, fig10),
    ("fig11", fig11_cells, fig11),
    (
        "fig12",
        |h| sweep_cells(h, &FIG12),
        |h, c| sweeps(h, c, 12, &FIG12),
    ),
    (
        "fig13",
        |h| sweep_cells(h, &FIG13),
        |h, c| sweeps(h, c, 13, &FIG13),
    ),
    ("fig14", fig14_cells, fig14),
    ("fig15", fig15_cells, fig15),
    ("fig16", fig16_cells, fig16),
    ("ablations", ablation_cells, ablations),
    ("latency", latency_cells, latency),
];

type CellsOf = fn(&HarnessConfig) -> Vec<Spec>;
type Render = fn(&HarnessConfig, &[Cell]) -> Tables;

fn target(name: &str) -> Result<(CellsOf, Render), String> {
    TARGETS
        .iter()
        .find(|t| t.0 == name)
        .map(|&(_, cells, render)| (cells, render))
        .ok_or_else(|| format!("unknown target {name:?}"))
}

/// Every target's name, in the order `all` runs them.
pub fn targets() -> impl Iterator<Item = &'static str> {
    TARGETS.iter().map(|t| t.0)
}

/// Measures every cell the named targets need, each once, in the order
/// the targets first name them, and returns them as one record.
///
/// # Panics
///
/// If a name is not one of [`targets`].
pub fn record(names: &[&str], h: &HarnessConfig) -> Record {
    record_with(names, h, |threads| h.run(threads))
}

/// [`record`] under the protocol `run` gives for each thread count.
fn record_with(names: &[&str], h: &HarnessConfig, run: impl Fn(usize) -> RunConfig) -> Record {
    let mut seen = HashSet::new();
    let specs: Vec<Spec> = names
        .iter()
        .flat_map(|name| (target(name).unwrap_or_else(|e| panic!("{e}")).0)(h))
        .filter(|s| seen.insert((s.label.clone(), s.threads)))
        .collect();
    let cells = specs.iter().enumerate().map(|(i, s)| {
        let cell = (s.run)(&run(s.threads));
        eprintln!(
            "[{}/{}] {} at {} threads",
            i + 1,
            specs.len(),
            s.label,
            s.threads
        );
        cell
    });
    let protocol = run(1);
    Record::new("paper-evaluation", Host::current(h.quick))
        .param("warmup_ms", protocol.warmup.as_secs_f64() * 1e3)
        .param("window_ms", protocol.window.as_secs_f64() * 1e3)
        .param("windows", protocol.windows as f64)
        .param("runs", protocol.runs as f64)
        .cells(cells)
}

/// Renders target `name`'s tables from `cells`, for a run under `h`.
///
/// # Errors
///
/// An unknown target, or the first cell it needs that `cells` lacks.
pub fn render(name: &str, h: &HarnessConfig, cells: &[Cell]) -> Result<Vec<Table>, String> {
    (target(name)?.1)(h, cells)
}

/// Table 1's cells: SOLERO on one thread, one per row.
fn table1_cells(_: &HarnessConfig) -> Vec<Spec> {
    let mut specs = vec![empty_cell(SoleroStrategy::new)];
    specs.extend(COARSE_MAPS.map(|w| map_cell(w, 1, "SOLERO", solero)));
    specs.push(jbb_cell(1, solero));
    specs.extend(DACAPO_PROFILES.map(|p| dacapo_cell(p, 1, solero)));
    specs
}

/// Table 1's rows: the benchmark, its lock frequency in Mlocks/s and
/// its percentage of read-only sections.
fn table1_rows(h: &HarnessConfig, cells: &[Cell]) -> Result<Vec<(String, f64, f64)>, String> {
    let names = ["Empty".to_string()]
        .into_iter()
        .chain(COARSE_MAPS.map(Map::title))
        .chain(["SPECjbb2005 (mini)".to_string()])
        .chain(DACAPO_PROFILES.map(|p| p.name.to_string()));
    names
        .zip(table1_cells(h))
        .map(|(name, s)| {
            let c = cell(cells, &s)?;
            let mlocks = c.stats.total_sections() as f64 / c.secs / 1e6;
            Ok((name, mlocks, c.stats.read_only_ratio() * 100.0))
        })
        .collect()
}

/// Table 1 — lock statistics of each benchmark.
fn table1(h: &HarnessConfig, cells: &[Cell]) -> Tables {
    let mut t = Table::new(
        "Table 1: lock statistics",
        &["Benchmark", "Mlocks/s", "read-only %"],
    );
    for (name, mlocks, read_only) in table1_rows(h, cells)? {
        t.row(vec![name, f3(mlocks), format!("{read_only:.1}")]);
    }
    Ok(vec![t])
}

fn fig10_cells(_: &HarnessConfig) -> Vec<Spec> {
    vec![
        empty_cell(LockStrategy::new),
        empty_cell(RwStrategy::<JavaRwLock>::new),
        empty_cell(BravoStrategy::new),
        empty_cell(SoleroStrategy::new),
        empty_cell(|| SoleroStrategy::configured(SoleroConfig::builder().unelided(true).build())),
        empty_cell(|| {
            SoleroStrategy::configured(SoleroConfig::builder().weak_barrier(true).build())
        }),
        empty_cell(|| SoleroStrategy::configured(SoleroConfig::builder().adaptive(true).build())),
    ]
}

/// Figure 10 — Empty-block overhead, normalized execution time vs Lock.
fn fig10(h: &HarnessConfig, cells: &[Cell]) -> Tables {
    let specs = fig10_cells(h);
    let ns = specs
        .iter()
        .map(|s| Ok(1e9 / value(cells, s, SCORE)?))
        .collect::<Result<Vec<f64>, String>>()?;
    let mut t = Table::new(
        "Figure 10: Empty synchronized block (1 thread)",
        &["Implementation", "ns/op", "time vs Lock"],
    );
    for (s, ns_op) in specs.iter().zip(&ns) {
        t.row(vec![
            contender(&s.label).into(),
            f3(*ns_op),
            f3(ns_op / ns[0]),
        ]);
    }
    Ok(vec![t])
}

fn fig11_cells(_: &HarnessConfig) -> Vec<Spec> {
    COARSE_MAPS
        .into_iter()
        .flat_map(|w| fleet_cells(w, 1))
        .chain(LOCK_VS_SOLERO.map(|make| jbb_cell(1, make)))
        .collect()
}

/// Figure 11 — single-thread performance relative to Lock (higher is
/// better; the paper plots relative performance %).
fn fig11(_: &HarnessConfig, cells: &[Cell]) -> Tables {
    let header = fleet_header("Benchmark");
    let mut t = Table::new(
        "Figure 11: single-thread relative performance (Lock = 100%)",
        &header,
    );
    for w in COARSE_MAPS {
        let ops = scores(cells, fleet_cells(w, 1))?;
        let mut row = vec![w.title()];
        row.extend(ops.iter().map(|o| f3(o / ops[0] * 100.0)));
        t.row(row);
    }
    // SPECjbb: the paper measures only Lock vs SOLERO here; the other
    // fleet columns stay empty.
    let ops = scores(cells, LOCK_VS_SOLERO.map(|make| jbb_cell(1, make)))?;
    let mut row = vec!["SPECjbb2005 (mini)".to_string()];
    row.extend(header[1..].iter().map(|name| match *name {
        "Lock" => f3(100.0),
        "SOLERO" => f3(ops[1] / ops[0] * 100.0),
        _ => "-".into(),
    }));
    t.row(row);
    Ok(vec![t])
}

/// The panels of Figures 12 and 13, each a sweep of one map workload.
const FIG12: [Map; 3] = [HASH_0W, HASH_5W, HASH_5W_FINE];
const FIG13: [Map; 2] = [TREE_0W, TREE_5W];

/// Each panel's workload across the thread counts, over the fleet.
fn sweep_cells(h: &HarnessConfig, panels: &[Map]) -> Vec<Spec> {
    let counts = h.thread_counts();
    panels
        .iter()
        .flat_map(|&w| counts.iter().flat_map(move |&n| fleet_cells(w, n)))
        .collect()
}

/// Figure `fig`'s panels: the throughput of the [`fleet`] across thread
/// counts, normalized to Lock at 1 thread.
fn sweeps(h: &HarnessConfig, cells: &[Cell], fig: u32, panels: &[Map]) -> Tables {
    let mut tables = Vec::new();
    for (&w, panel) in panels.iter().zip('a'..) {
        let shape = if w.2 {
            ", fine-grained (one map per thread)"
        } else {
            " (normalized throughput)"
        };
        let title = format!(
            "Figure {fig}({panel}): {}, {}% writes{shape}",
            w.kind(),
            w.1
        );
        let mut t = Table::new(title, &fleet_header("threads"));
        let mut base = None;
        for n in h.thread_counts() {
            let ops = scores(cells, fleet_cells(w, n))?;
            let b = *base.get_or_insert(ops[0]);
            let mut row = vec![n.to_string()];
            row.extend(ops.iter().map(|o| f3(o / b)));
            t.row(row);
        }
        tables.push(t);
    }
    Ok(tables)
}

fn fig14_cells(h: &HarnessConfig) -> Vec<Spec> {
    h.thread_counts()
        .into_iter()
        .flat_map(|n| LOCK_VS_SOLERO.map(|make| jbb_cell(n, make)))
        .collect()
}

/// Figure 14 — multi-thread SPECjbb (warehouses = threads).
fn fig14(h: &HarnessConfig, cells: &[Cell]) -> Tables {
    let mut t = Table::new(
        "Figure 14: SPECjbb2005 (mini), normalized throughput",
        &["threads", "Lock", "SOLERO"],
    );
    let mut base = None;
    for n in h.thread_counts() {
        let ops = scores(cells, LOCK_VS_SOLERO.map(|make| jbb_cell(n, make)))?;
        let b = *base.get_or_insert(ops[0]);
        t.row(vec![n.to_string(), f3(ops[0] / b), f3(ops[1] / b)]);
    }
    Ok(vec![t])
}

/// Figure 15's columns.
const FIG15_COLUMNS: [&str; 4] = ["HashMap 5%", "HashMap 5% fine", "TreeMap 5%", "SPECjbb"];

/// The SOLERO cells behind Figure 15's row at `threads`, one per column.
fn fig15_row(threads: usize) -> [Spec; 4] {
    [
        map_cell(HASH_5W, threads, "SOLERO", solero),
        map_cell(HASH_5W_FINE, threads, "SOLERO", solero),
        map_cell(TREE_5W, threads, "SOLERO", solero),
        jbb_cell(threads, solero),
    ]
}

fn fig15_cells(h: &HarnessConfig) -> Vec<Spec> {
    h.thread_counts().into_iter().flat_map(fig15_row).collect()
}

/// Figure 15 — SOLERO speculative-failure ratio per thread count, plus
/// the abort-reason breakdown behind each ratio (from the per-reason
/// counters the locks keep).
fn fig15(h: &HarnessConfig, cells: &[Cell]) -> Tables {
    let mut header = vec!["threads"];
    header.extend(FIG15_COLUMNS);
    let mut ratios = Table::new("Figure 15: SOLERO speculative-failure ratio", &header);
    let mut header = vec!["threads", "workload", "aborts"];
    header.extend(
        StatsSnapshot::default()
            .abort_reasons()
            .map(|(name, _)| name),
    );
    let mut reasons = Table::new(
        "Figure 15 (breakdown): read aborts by reason (share of aborts)",
        &header,
    );
    for n in h.thread_counts() {
        let mut row = vec![n.to_string()];
        for (name, s) in FIG15_COLUMNS.iter().zip(fig15_row(n)) {
            let stats = &cell(cells, &s)?.stats;
            row.push(pct(stats.failure_ratio()));
            let total = stats.read_aborts;
            let mut r = vec![n.to_string(), (*name).into(), total.to_string()];
            for (_, count) in stats.abort_reasons() {
                r.push(if total == 0 {
                    "-".into()
                } else {
                    pct(count as f64 / total as f64)
                });
            }
            reasons.row(r);
        }
        ratios.row(row);
    }
    Ok(vec![ratios, reasons])
}

fn fig16_threads(h: &HarnessConfig) -> usize {
    if h.quick {
        2
    } else {
        4
    }
}

fn fig16_cells(h: &HarnessConfig) -> Vec<Spec> {
    let n = fig16_threads(h);
    DACAPO_PROFILES
        .into_iter()
        .flat_map(|p| LOCK_VS_SOLERO.map(|make| dacapo_cell(p, n, make)))
        .collect()
}

/// Figure 16 — DaCapo profiles: SOLERO throughput relative to Lock.
fn fig16(h: &HarnessConfig, cells: &[Cell]) -> Tables {
    let n = fig16_threads(h);
    let mut t = Table::new(
        format!("Figure 16: DaCapo profiles ({n} threads), SOLERO vs Lock"),
        &["Benchmark", "read-only %", "SOLERO/Lock"],
    );
    for p in DACAPO_PROFILES {
        let ops = scores(cells, LOCK_VS_SOLERO.map(|make| dacapo_cell(p, n, make)))?;
        t.row(vec![
            p.name.into(),
            format!("{:.1}", p.read_only_ratio * 100.0),
            f3(ops[1] / ops[0]),
        ]);
    }
    Ok(vec![t])
}

/// Ablation A's fallback thresholds (§3.2: "the fallback occurs after
/// one failure. This can be expanded so that the fallback occurs after
/// a larger number of failures"), with their row names.
const THRESHOLDS: [(u32, &str); 5] = [(1, "1 (paper)"), (2, "2"), (4, "4"), (8, "8"), (16, "16")];

/// Ablation B's check-point validation periods (§3.3's loop-break
/// machinery): denser validation detects stale speculation sooner but
/// taxes every loop iteration.
const PERIODS: [(u64, &str); 5] = [
    (1, "1 (validate every poll)"),
    (4, "4"),
    (16, "16"),
    (1024, "1024 (default)"),
    (0, "events only"),
];

/// Ablation A's cells: HashMap 5% writes at `threads`, one per
/// threshold, with its row name.
fn threshold_cells(threads: usize) -> impl Iterator<Item = (&'static str, Spec)> {
    THRESHOLDS.iter().map(move |&(r, name)| {
        let sc = SoleroConfig::builder().retries(r).build();
        (
            name,
            configured_cell(HASH_5W, threads, format!("retries={r}"), sc),
        )
    })
}

/// Ablation B's cells: TreeMap 5% writes at `threads`, one per period,
/// with its row name.
fn period_cells(threads: usize) -> impl Iterator<Item = (&'static str, Spec)> {
    PERIODS.iter().map(move |&(p, name)| {
        let sc = SoleroConfig::builder().checkpoint_period(p).build();
        (
            name,
            configured_cell(TREE_5W, threads, format!("checkpoint={p}"), sc),
        )
    })
}

/// Map workload `w` under SOLERO configured as `sc`, its label naming
/// the `setting`; the default configuration is the fleet's SOLERO cell.
fn configured_cell(w: Map, threads: usize, setting: String, sc: SoleroConfig) -> Spec {
    if sc == SoleroConfig::default() {
        return map_cell(w, threads, "SOLERO", solero);
    }
    map_cell(w, threads, &format!("SOLERO {setting}"), move || {
        Box::new(SoleroStrategy::configured(sc))
    })
}

fn ablation_cells(h: &HarnessConfig) -> Vec<Spec> {
    let n = h.max_threads();
    threshold_cells(n)
        .chain(period_cells(n))
        .map(|(_, s)| s)
        .collect()
}

/// One ablation row: Mops/s, failure ratio, and `per_op` events per
/// section.
fn ablation_row(
    cells: &[Cell],
    name: &str,
    s: &Spec,
    per_op: fn(&StatsSnapshot) -> u64,
) -> Result<Vec<String>, String> {
    let stats = &cell(cells, s)?.stats;
    Ok(vec![
        name.into(),
        f3(value(cells, s, SCORE)? / 1e6),
        pct(stats.failure_ratio()),
        format!(
            "{:.4}",
            per_op(stats) as f64 / stats.total_sections().max(1) as f64
        ),
    ])
}

/// Ablations — the fallback threshold (HashMap 5% writes) and the
/// check-point period (TreeMap 5% writes), at the widest sweep.
fn ablations(h: &HarnessConfig, cells: &[Cell]) -> Tables {
    let n = h.max_threads();
    let mut fallback = Table::new(
        format!("Ablation: fallback threshold (HashMap 5% writes, {n} threads)"),
        &["threshold", "Mops/s", "failure ratio", "fallbacks/op"],
    );
    for (name, s) in threshold_cells(n) {
        fallback.row(ablation_row(cells, name, &s, |st| st.fallback_acquires)?);
    }
    let mut checkpoint = Table::new(
        format!("Ablation: check-point period (TreeMap 5% writes, {n} threads)"),
        &["period", "Mops/s", "failure ratio", "validations/op"],
    );
    for (name, s) in period_cells(n) {
        checkpoint.row(ablation_row(cells, name, &s, |st| st.async_validations)?);
    }
    Ok(vec![fallback, checkpoint])
}

/// The latency experiment's cells: Lock, RWLock, BRAVO-RW and SOLERO,
/// the first four of the fleet.
fn latency_cells(h: &HarnessConfig) -> Vec<Spec> {
    let samples = if h.quick { 20_000 } else { 100_000 };
    let n = h.max_threads();
    fleet()
        .into_iter()
        .take(4)
        .map(|make| latency_cell(n, samples, make))
        .collect()
}

/// Extra experiment — per-operation latency percentiles (not in the
/// paper; shows the tail benefit of never blocking readers).
fn latency(h: &HarnessConfig, cells: &[Cell]) -> Tables {
    let n = h.max_threads();
    let mut t = Table::new(
        format!("Latency: HashMap get, 5% writes, {n} threads (ns, bucket upper bounds)"),
        &["Implementation", "p50", "p90", "p99", "p99.9"],
    );
    for s in latency_cells(h) {
        let mut row = vec![contender(&s.label).to_string()];
        for key in PERCENTILES {
            row.push(format!("{:.0}", value(cells, &s, key)?));
        }
        t.row(row);
    }
    Ok(vec![t])
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;
    use std::time::Duration;

    use super::*;

    const QUICK: HarnessConfig = HarnessConfig { quick: true };

    /// One 25 ms window per cell, one run: enough for every counter to
    /// move.
    fn tiny(threads: usize) -> RunConfig {
        RunConfig {
            threads,
            warmup: Duration::from_millis(5),
            window: Duration::from_millis(25),
            windows: 1,
            runs: 1,
        }
    }

    /// One tiny-protocol `all` run at the quick thread counts, shared by
    /// the tests that read cells.
    fn all() -> &'static [Cell] {
        static ALL: OnceLock<Record> = OnceLock::new();
        let names: Vec<&str> = targets().collect();
        &ALL.get_or_init(|| record_with(&names, &QUICK, tiny)).cells
    }

    /// The keys of the cells target `name` needs.
    fn keys(name: &str) -> HashSet<(String, usize)> {
        (target(name).unwrap().0)(&QUICK)
            .into_iter()
            .map(|s| (s.label, s.threads))
            .collect()
    }

    #[test]
    fn all_measures_each_cell_once() {
        let cells = all();
        let mut seen = HashSet::new();
        for c in cells {
            assert!(
                seen.insert((&c.label, c.threads)),
                "{} at {} threads measured twice",
                c.label,
                c.threads
            );
        }
        // 149 cells of the §4.1 protocol and four latency cells.
        assert_eq!(cells.len(), 153);
        for name in targets() {
            render(name, &QUICK, cells).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn fig11_is_the_one_thread_slice_of_the_sweeps() {
        let mut slice = HashSet::new();
        for name in ["fig12", "fig13", "fig14"] {
            slice.extend(keys(name).into_iter().filter(|&(_, n)| n == 1));
        }
        assert_eq!(keys("fig11"), slice);
        // Its values are those cells': it renders from them alone, and
        // the same as from the whole run.
        let cells = all();
        let own: Vec<Cell> = cells
            .iter()
            .filter(|c| slice.contains(&(c.label.clone(), c.threads as usize)))
            .cloned()
            .collect();
        let text = |cells: &[Cell]| render("fig11", &QUICK, cells).unwrap()[0].render();
        assert_eq!(text(&own), text(cells));
    }

    #[test]
    fn one_configuration_is_one_cell() {
        // One fine-grained thread has one map: 12(c)'s first row is
        // 12(b)'s cells.
        let fine = keys("fig12");
        assert!(fine.contains(&("hashmap-5w/SOLERO".into(), 1)));
        assert!(!fine.contains(&("hashmap-5w-fine/SOLERO".into(), 1)));
        assert!(fine.contains(&("hashmap-5w-fine/SOLERO".into(), 2)));
        // The ablations' default rows are the sweeps' SOLERO cells.
        let n = QUICK.max_threads();
        let ablations = keys("ablations");
        for label in ["hashmap-5w/SOLERO", "treemap-5w/SOLERO"] {
            assert!(ablations.contains(&(label.into(), n)), "{label}");
        }
        assert_eq!(ablations.len(), 10);
    }

    #[test]
    fn fig10_has_seven_contenders() {
        let labels: Vec<&str> = all()
            .iter()
            .filter(|c| c.label.starts_with("empty/"))
            .map(|c| contender(&c.label))
            .collect();
        assert_eq!(labels.len(), 7, "{labels:?}");
        for required in [
            "WeakBarrier-SOLERO",
            "Adaptive-SOLERO",
            "BRAVO-RW",
            "Unelided-SOLERO",
        ] {
            assert!(labels.contains(&required), "missing {required}: {labels:?}");
        }
        let t = &render("fig10", &QUICK, all()).unwrap()[0];
        assert_eq!(t.len(), 7);
        assert!(t.render().contains("WeakBarrier-SOLERO"));
    }

    #[test]
    fn fleet_registry_carries_every_contender() {
        let header = fleet_header("threads");
        for required in [
            "Lock",
            "RWLock",
            "BRAVO-RW",
            "SOLERO",
            "Adaptive-SOLERO",
            "SeqLock",
        ] {
            assert!(
                header[1..].contains(&required),
                "the sweep fleet must include {required}"
            );
        }
        assert_eq!(header[1], "Lock", "sweeps normalize to Lock");
        assert_eq!(header.len(), fleet().len() + 1);
        assert_eq!(header[0], "threads");
    }

    #[test]
    fn table1_has_ten_rows_with_sane_ratios() {
        let rows = table1_rows(&QUICK, all()).unwrap();
        assert_eq!(rows.len(), 10);
        let by_name = |n: &str| {
            rows.iter()
                .find(|r| r.0.starts_with(n))
                .unwrap_or_else(|| panic!("row {n}"))
        };
        assert!(by_name("Empty").2 > 99.0);
        assert!(by_name("HashMap (0% writes)").2 > 99.0);
        assert!(by_name("HashMap (5% writes)").2 > 90.0);
        assert!(by_name("h2").2 < 1.0);
        let jbb = by_name("SPECjbb2005").2;
        assert!((40.0..=70.0).contains(&jbb), "{jbb}");
        for (name, mlocks, _) in &rows {
            assert!(*mlocks > 0.0, "{name}: zero lock frequency");
        }
        assert_eq!(render("table1", &QUICK, all()).unwrap()[0].len(), 10);
    }

    #[test]
    fn fig15_reads_the_solero_cells_and_breaks_down_five_reasons() {
        for (label, _) in keys("fig15") {
            assert_eq!(contender(&label), "SOLERO", "{label}");
        }
        let tables = render("fig15", &QUICK, all()).unwrap();
        assert_eq!(tables.len(), 2);
        let text = tables[1].render();
        for reason in [
            "locked_at_entry",
            "word_changed_at_exit",
            "async_revalidation_fail",
            "retry_exhausted_fallback",
            "inflation",
        ] {
            assert!(text.contains(reason), "missing column {reason}:\n{text}");
        }
        // threads × four workloads rows.
        assert_eq!(tables[1].len(), QUICK.thread_counts().len() * 4);
    }

    #[test]
    fn a_missing_cell_is_named() {
        let err = render("fig14", &QUICK, &[]).unwrap_err();
        assert_eq!(err, "no 1-thread cell jbb/Lock");
        assert!(render("fig99", &QUICK, &[]).is_err());
    }
}
