//! `solero-perfbench`: the repository's one benchmark.
//!
//! ```text
//! solero-perfbench [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//!                  [--quick] [--out PATH]
//! solero-perfbench --compare A.jsonl B.jsonl [...]
//! ```
//!
//! Each workload runs in fresh child processes of this binary. The
//! parent prints every metric as `workload metric value unit`, appends
//! one JSON record with the environment to `--out` (default
//! `results/runs.jsonl` beside this package's manifest; traced runs
//! write their spans beside it as `trace-<workload>.jsonl`) and prints, as
//! its last line, `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics, or with `--trace` the per-layer ones. A failed
//! check makes the exit code 1. See README.md for the workloads and the
//! metrics.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use solero_perfbench::gen::quantile;
use solero_perfbench::json::{self, obj, Json};
use solero_perfbench::workload::{self, Metric, Outcome, RunOpts, Workload, END_TO_END};
use solero_perfbench::{compare, ledger};

/// Seconds a workload measures when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;
/// Child processes of an untraced run, each measuring an equal share of
/// the time. Speed differs from process to process, so one process is
/// one draw; the run reports the median over several.
const RUN_CHILDREN: usize = 4;
/// Seconds per workload under `--quick`.
const QUICK_SECONDS: f64 = 0.4;

#[derive(Debug)]
struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    out: PathBuf,
    /// Internal: run one part of one workload in this process.
    child: Option<Part>,
}

/// The parts a parent runs in child processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Part {
    Run,
    Trace,
    Ledger,
}

impl Part {
    fn name(self) -> &'static str {
        match self {
            Part::Run => "run",
            Part::Trace => "trace",
            Part::Ledger => "ledger",
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("solero-perfbench: {msg}");
    eprintln!(
        "usage: solero-perfbench [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out PATH]\n\
         \x20      solero-perfbench --compare A.jsonl B.jsonl [...]\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        quick: false,
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/runs.jsonl"),
        child: None,
    };
    let mut seconds = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => {
                let w = value("a workload")?;
                o.workloads = vec![Workload::parse(w).ok_or(format!("unknown workload {w:?}"))?];
            }
            "--seed" => {
                o.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} outside (0, 3600]"));
                }
                seconds = Some(s);
            }
            // `--trace`, `--trace 1` or `--trace 0`.
            "--trace" => {
                o.traced = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1")
            }
            "--quick" => o.quick = true,
            "--out" => o.out = PathBuf::from(value("a path")?),
            "--child" => {
                let p = value("a part")?;
                o.child = Some(
                    [Part::Run, Part::Trace, Part::Ledger]
                        .into_iter()
                        .find(|x| x.name() == p)
                        .ok_or(format!("unknown part {p:?}"))?,
                );
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    o.seconds = seconds.unwrap_or(if o.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    Ok(o)
}

/// Generator threads: two, or fewer on a smaller host.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--compare") {
        return compare::main(&args[1..]);
    }
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    match o.child {
        Some(part) => child(part, &o),
        None => parent(&o),
    }
}

/// Runs one part of one workload and prints its [`Outcome`] as one JSON
/// line.
fn child(part: Part, o: &Opts) -> ExitCode {
    let w = o.workloads[0];
    let traced = part == Part::Trace;
    let run = RunOpts {
        seed: o.seed,
        seconds: o.seconds,
        threads: threads(),
        trace_to: traced.then(|| o.out.with_file_name(format!("trace-{}.jsonl", w.name()))),
    };
    let out = match part {
        Part::Ledger => ledger::run(o.seed, o.seconds),
        Part::Run | Part::Trace => workload::run(w, &run),
    };
    println!("{}", outcome_json(&out).render());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn outcome_json(out: &Outcome) -> Json {
    obj([
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "problems",
            Json::Arr(out.problems.iter().map(|p| Json::Str(p.clone())).collect()),
        ),
        ("metrics", metrics_json(&out.metrics)),
    ])
}

fn metrics_json(metrics: &[Metric]) -> Json {
    obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.clone())),
            ]),
        )
    }))
}

fn parse_outcome(line: &str) -> Result<Outcome, String> {
    let v = json::parse(line)?;
    let num = |k: &str| v.get(k).and_then(Json::num).ok_or(format!("no {k}"));
    let mut out = Outcome {
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        ..Default::default()
    };
    for p in v.get("problems").and_then(Json::arr).unwrap_or_default() {
        out.problems.push(p.str().unwrap_or("?").to_string());
    }
    for (name, m) in v.get("metrics").and_then(Json::obj).ok_or("no metrics")? {
        let value = m
            .get("value")
            .and_then(Json::num)
            .ok_or(format!("{name}: no value"))?;
        let unit = m.get("unit").and_then(Json::str).unwrap_or("");
        out.put(name.clone(), value, unit);
    }
    Ok(out)
}

/// Runs `part` of `w` in a child process and returns what it reported.
fn spawn(part: Part, w: Workload, o: &Opts, seconds: f64) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--child", part.name(), "--workload", w.name()])
        .args([
            "--seed",
            &o.seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .arg("--out")
        .arg(&o.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {} child: {e}", part.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    parse_outcome(line).map_err(|e| {
        format!(
            "{} child for {} exited with {} and no result ({e})",
            part.name(),
            w.name(),
            output.status
        )
    })
}

/// One workload's part of a record.
struct WorkloadResult {
    workload: Workload,
    digest: String,
    outcome: Outcome,
}

fn parent(o: &Opts) -> ExitCode {
    let started = Instant::now();
    let mut results = Vec::new();
    for &w in &o.workloads {
        match run_workload(w, o) {
            Ok(r) => results.push(r),
            Err(e) => {
                eprintln!("solero-perfbench: {e}");
                return ExitCode::from(3);
            }
        }
    }
    for r in &results {
        for p in &r.outcome.problems {
            eprintln!("{}: CHECK FAILED: {p}", r.workload.name());
        }
        for m in &r.outcome.metrics {
            println!("{} {} {} {}", r.workload.name(), m.name, m.value, m.unit);
        }
    }
    if let Err(e) = append_record(o, &results, started.elapsed().as_secs_f64()) {
        eprintln!("solero-perfbench: writing {}: {e}", o.out.display());
    }
    let correct = results.iter().all(|r| r.outcome.correct());
    let gated: Vec<(String, &str)> = if o.traced {
        workload::per_layer()
    } else {
        END_TO_END.map(|(n, u)| (n.to_string(), u)).into()
    };
    let mut metrics = Vec::new();
    for r in &results {
        for (name, _) in &gated {
            let Some(m) = r.outcome.metrics.iter().find(|m| &m.name == name) else {
                eprintln!(
                    "solero-perfbench: {} did not report {name}",
                    r.workload.name()
                );
                return ExitCode::from(3);
            };
            let key = if results.len() == 1 {
                name.clone()
            } else {
                format!("{}/{name}", r.workload.name())
            };
            metrics.push(Metric {
                name: key,
                ..m.clone()
            });
        }
    }
    let summary = obj([
        ("correct", Json::Bool(correct)),
        (
            "attempted",
            Json::Num(results.iter().map(|r| r.outcome.attempted).sum::<u64>() as f64),
        ),
        (
            "failed",
            Json::Num(results.iter().map(|r| r.outcome.failed).sum::<u64>() as f64),
        ),
        ("metrics", metrics_json(&metrics)),
    ]);
    println!("{}", summary.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs `w`'s parts in child processes and merges what they report.
///
/// Untraced, [`RUN_CHILDREN`] children measure a share of the time each.
/// Traced, the time is split three ways: an untraced run (the reference
/// for the tracing overhead), a traced run (the layer metrics), and the
/// ledger.
fn run_workload(w: Workload, o: &Opts) -> Result<WorkloadResult, String> {
    let digest = w.digest(o.seed, threads());
    let outcome = if !o.traced {
        let share = o.seconds / RUN_CHILDREN as f64;
        let runs = (0..RUN_CHILDREN)
            .map(|_| spawn(Part::Run, w, o, share))
            .collect::<Result<Vec<_>, _>>()?;
        median_of(&runs)
    } else {
        let third = o.seconds / 3.0;
        let plain = spawn(Part::Run, w, o, third)?;
        let traced = spawn(Part::Trace, w, o, third)?;
        let ledger = spawn(Part::Ledger, w, o, third)?;
        let mut out = Outcome {
            attempted: plain.attempted + traced.attempted + ledger.attempted,
            failed: plain.failed + traced.failed + ledger.failed,
            problems: [&plain.problems, &traced.problems, &ledger.problems]
                .map(|p| p.clone())
                .concat(),
            metrics: Vec::new(),
        };
        let e2e = |n: &str| END_TO_END.iter().any(|(name, _)| *name == n);
        out.metrics = traced
            .metrics
            .iter()
            .filter(|m| !e2e(&m.name))
            .cloned()
            .collect();
        out.metrics.extend(ledger.metrics);
        // How much the spans cost: throughput lost and p50 gained.
        let pair = |n: &str| plain.get(n).zip(traced.get(n));
        if let Some((a, b)) = pair("throughput_ops_s") {
            out.put("trace.throughput_overhead_frac", 1.0 - b / a, "ratio");
        }
        if let Some((a, b)) = pair("gen.p50_us") {
            out.put("trace.p50_overhead_frac", b / a - 1.0, "ratio");
        }
        out
    };
    Ok(WorkloadResult {
        workload: w,
        digest,
        outcome,
    })
}

/// The children's checks, summed, and each metric's median over them.
fn median_of(runs: &[Outcome]) -> Outcome {
    let mut out = Outcome {
        attempted: runs.iter().map(|r| r.attempted).sum(),
        failed: runs.iter().map(|r| r.failed).sum(),
        problems: runs.iter().flat_map(|r| r.problems.clone()).collect(),
        metrics: Vec::new(),
    };
    for m in &runs[0].metrics {
        let values: Vec<f64> = runs.iter().filter_map(|r| r.get(&m.name)).collect();
        out.put(m.name.clone(), quantile(&values, 0.5), &m.unit);
    }
    out
}

/// Appends one JSON line: the environment, the options and every
/// workload's checks and metrics.
fn append_record(o: &Opts, results: &[WorkloadResult], elapsed_s: f64) -> std::io::Result<()> {
    use std::io::Write;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = obj([
        ("nproc", Json::Num(nproc as f64)),
        ("threads", Json::Num(threads() as f64)),
        (
            "rustc",
            Json::Str(stdout_of(Command::new("rustc").arg("-V"))),
        ),
        ("git_rev", Json::Str(git_rev())),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("arch", Json::Str(std::env::consts::ARCH.into())),
        ("os", Json::Str(std::env::consts::OS.into())),
    ]);
    let workloads = obj(results.iter().map(|r| {
        (
            r.workload.name(),
            obj([
                ("correct", Json::Bool(r.outcome.correct())),
                ("attempted", Json::Num(r.outcome.attempted as f64)),
                ("failed", Json::Num(r.outcome.failed as f64)),
                (
                    "problems",
                    Json::Arr(
                        r.outcome
                            .problems
                            .iter()
                            .map(|p| Json::Str(p.clone()))
                            .collect(),
                    ),
                ),
                ("digest", Json::Str(r.digest.clone())),
                ("metrics", metrics_json(&r.outcome.metrics)),
            ]),
        )
    }));
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64());
    let record = obj([
        ("env", env),
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.seconds)),
        ("trace", Json::Bool(o.traced)),
        ("quick", Json::Bool(o.quick)),
        ("started_unix_s", Json::Num(unix - elapsed_s)),
        ("elapsed_s", Json::Num(elapsed_s)),
        ("workloads", workloads),
    ]);
    if let Some(dir) = o.out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&o.out)?;
    writeln!(f, "{}", record.render())
}

/// A command's trimmed standard output, or "unknown" if it fails.
fn stdout_of(cmd: &mut Command) -> String {
    cmd.stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit the benchmark was built from, if the checkout is a git
/// work tree of its own.
fn git_rev() -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let Some(ceiling) = root
        .canonicalize()
        .ok()
        .and_then(|r| r.parent().map(PathBuf::from))
    else {
        return "unknown".into();
    };
    stdout_of(
        Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    )
}
