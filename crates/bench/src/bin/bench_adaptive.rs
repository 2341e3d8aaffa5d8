//! `bench_adaptive` — emit the adaptive policy's write-bursty
//! trajectory as `BENCH_adaptive.json`.
//!
//! ```text
//! bench_adaptive [--quick] [--out PATH] [--seed N]
//! ```
//!
//! Runs the [`solero_workloads::bursty`] phase workload
//! (quiet → burst → quiet → burst → quiet) under the adaptive SOLERO
//! lock and the static one, and writes one record cell per phase per
//! strategy: the phase's read sections, its seconds, its elision and
//! skip rates, and its
//! [`PhaseReport`](solero_workloads::bursty::PhaseReport) stats delta.
//! The adaptive trajectory is the auto-disable/re-enable evidence: the
//! elision rate collapses in the burst windows (policy skips replace
//! doomed speculation) and recovers in the quiet ones.
//!
//! The default seed matches `tests/adaptive_policy_stress.rs`
//! (`SOLERO_TESTKIT_SEED` overrides it there and here; `--seed` here).

use solero::{BoxedStrategy, SoleroConfig, SoleroStrategy};
use solero_bench::record::{Args, Cell, Host, Record};
use solero_workloads::bursty::{BurstyBench, BurstyConfig, Phase, PHASES};

fn run_strategy(cfg: BurstyConfig, seed: u64, make: fn() -> BoxedStrategy) -> Vec<Cell> {
    let bench = BurstyBench::new(cfg, make);
    let reports = bench.run_trajectory(&PHASES, seed);
    reports
        .iter()
        .map(|r| {
            eprintln!(
                "  [{}] {:>5}: rate {:.3} skips {:>5} disables {:>3} rearms {:>3}",
                bench.name(),
                r.phase.name(),
                r.elision_rate(),
                r.stats.policy_skips,
                r.stats.policy_disables,
                r.stats.policy_rearms,
            );
            let writers = if r.phase == Phase::Burst { cfg.writers } else { 0 };
            let label = format!("{}/{}", bench.name(), r.phase.name());
            Cell::new(label, cfg.readers + writers, r.stats.read_enters, r.secs, r.stats)
                .value("elision_rate", r.elision_rate())
                .value("skip_rate", r.skip_rate())
        })
        .collect()
}

fn main() {
    let args = Args::parse("BENCH_adaptive.json", Some(0x5EED_ADA7), &[]);
    let seed = args.seed.expect("bench_adaptive takes a seed");
    let cfg = if args.quick {
        BurstyConfig::quick()
    } else {
        BurstyConfig::stress()
    };

    eprintln!(
        "bench_adaptive: {} readers, {} writers, {} reads/phase, seed {seed:#x}",
        cfg.readers, cfg.writers, cfg.reads_per_phase
    );
    let adaptive: fn() -> BoxedStrategy = || {
        Box::new(SoleroStrategy::configured(
            SoleroConfig::builder().adaptive(true).build(),
        ))
    };
    let plain: fn() -> BoxedStrategy = || Box::new(SoleroStrategy::new());

    Record::new("bursty", Host::current(args.quick))
        .param("seed", seed as f64)
        .param("readers", cfg.readers as f64)
        .param("writers", cfg.writers as f64)
        .param("reads_per_phase", cfg.reads_per_phase as f64)
        .param("writer_hold_spin", cfg.writer_hold_spin as f64)
        .param("shared_cells", cfg.cells as f64)
        .cells([adaptive, plain].into_iter().flat_map(|make| run_strategy(cfg, seed, make)))
        .save(&args.out);
}
