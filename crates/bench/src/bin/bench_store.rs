//! `bench_store` — the MVCC snapshot store under open-loop Zipfian
//! traffic, swept over the full strategy fleet and emitted as
//! `BENCH_store.json`.
//!
//! ```text
//! bench_store [--quick] [--out PATH]
//! ```
//!
//! Unlike every other bench in the repo this one is **open-loop**: each
//! worker fires get/scan/put operations on a fixed arrival schedule and
//! latency is measured intended-start → completion, so a stalled lock
//! is charged for every operation it displaces (no coordinated
//! omission). Keys are Zipfian (θ = 0.99 over ≥1M keys in the full
//! run), scrambled across the range shards; a background checkpointer
//! takes whole-store snapshots throughout, exactly the workload the
//! store's epoch handshake exists for. Each strategy's cell reports
//! p50/p90/p99/p999 latency, late starts, the completed operations
//! over the elapsed time (against the offered `workers ×
//! rate_per_worker`), and the lock counters of the measured phase.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use solero_bench::figures::fleet;
use solero_bench::record::{Args, Cell, Host, Record};
use solero_store::{KvStore, StoreConfig};
use solero_workloads::openloop::{populate, run_open_loop, OpenLoopConfig, OpMix};

struct Shape {
    store: StoreConfig,
    run: OpenLoopConfig,
    checkpoint_every: Duration,
}

/// The full shape targets a modest offered load on purpose: open-loop
/// latency is only meaningful when the offered rate is sustainable, and
/// CI containers may expose a single core. 2 workers × 4 kops/s keeps
/// the arrival schedule honest (mostly sleep-paced, not spin-starved)
/// while 3 × 1 s windows still collect 24 k samples per strategy.
fn shape(quick: bool) -> Shape {
    if quick {
        Shape {
            store: StoreConfig::new(4096).with_shards(8),
            run: OpenLoopConfig::quick(),
            checkpoint_every: Duration::from_millis(50),
        }
    } else {
        Shape {
            store: StoreConfig::new(1 << 20).with_shards(64),
            run: OpenLoopConfig {
                workers: 2,
                rate_per_worker: 4_000,
                window: Duration::from_secs(1),
                windows: 3,
                warmup_ops: 4_000,
                mix: OpMix::read_heavy(),
                theta: 0.99,
                seed: 0x5EED_0570,
            },
            // A full-store cut clones ~1M pairs; pace it so the
            // checkpointer contends with — not drowns — the workers.
            checkpoint_every: Duration::from_millis(250),
        }
    }
}

/// One fleet cell: build, populate, then run the open loop with a
/// background checkpointer snapshotting the whole store throughout.
fn run_cell(sh: &Shape, make: fn() -> solero::BoxedStrategy) -> Cell {
    let store = KvStore::new_boxed(sh.store, make);
    populate(&store, |k| k * 3 + 1);
    let stop = AtomicBool::new(false);
    let (report, checkpoints) = std::thread::scope(|s| {
        let ck = s.spawn(|| {
            let mut cuts = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let cut = store.checkpoint().expect("checkpoint cannot genuinely fault");
                assert_eq!(
                    cut.len(),
                    sh.store.keys as usize,
                    "checkpoint lost keys under load"
                );
                cuts += 1;
                std::thread::sleep(sh.checkpoint_every);
            }
            cuts
        });
        let report = run_open_loop(&store, &sh.run);
        stop.store(true, Ordering::Relaxed);
        (report, ck.join().expect("checkpointer panicked"))
    });
    eprintln!(
        "  [{:>15}] {:>9.0} ops/s achieved / {:>9.0} offered, \
         p50 {:>6} ns, p99 {:>8} ns, p999 {:>9} ns, {} late, {} aborts, {} cuts",
        store.name(),
        report.achieved,
        report.offered,
        report.latency.p50,
        report.latency.p99,
        report.latency.p999,
        report.late_starts,
        report.stats.read_aborts,
        checkpoints,
    );
    let l = &report.latency;
    Cell::new(
        store.name(),
        sh.run.workers,
        report.ops,
        report.elapsed_secs,
        report.stats,
    )
    .value("late_starts", report.late_starts as f64)
    .value("p50_ns", l.p50 as f64)
    .value("p90_ns", l.p90 as f64)
    .value("p99_ns", l.p99 as f64)
    .value("p999_ns", l.p999 as f64)
    .value("samples", l.samples as f64)
    .value("checkpoints", checkpoints as f64)
}

fn main() {
    let args = Args::parse("BENCH_store.json", None, &[]);
    let sh = shape(args.quick);

    eprintln!(
        "bench_store: {} keys, {} shards, theta {}, {} workers x {} ops/s, {} x {:?} windows",
        sh.store.keys,
        sh.store.shards,
        sh.run.theta,
        sh.run.workers,
        sh.run.rate_per_worker,
        sh.run.windows,
        sh.run.window,
    );

    let (run, mix) = (&sh.run, &sh.run.mix);
    Record::new("store-open-loop-zipfian", Host::current(args.quick))
        .param("keys", sh.store.keys as f64)
        .param("shards", sh.store.shards as f64)
        .param("theta", run.theta)
        .param("workers", run.workers as f64)
        .param("rate_per_worker", run.rate_per_worker as f64)
        .param("window_ms", run.window.as_millis() as f64)
        .param("windows", run.windows as f64)
        .param("warmup_ops", run.warmup_ops as f64)
        .param("get_pct", mix.get_pct as f64)
        .param("scan_pct", mix.scan_pct as f64)
        .param("scan_len", mix.scan_len as f64)
        .param("seed", run.seed as f64)
        .param("checkpoint_every_ms", sh.checkpoint_every.as_millis() as f64)
        .cells(fleet().into_iter().map(|make| run_cell(&sh, make)))
        .save(&args.out);
}
