//! `bench_adaptive` — emit the adaptive policy's write-bursty
//! trajectory as `BENCH_adaptive.json`.
//!
//! ```text
//! bench_adaptive [--quick] [--out PATH] [--seed N]
//! ```
//!
//! Runs the [`solero_workloads::bursty`] phase workload
//! (quiet → burst → quiet → burst → quiet) under the adaptive SOLERO
//! lock and the static one, and writes one JSON document with a
//! [`PhaseReport`](solero_workloads::bursty::PhaseReport) per phase per
//! strategy. The adaptive trajectory is the auto-disable/re-enable
//! evidence: the elision rate collapses in the burst windows (policy
//! skips replace doomed speculation) and recovers in the quiet ones.
//!
//! The default seed matches `tests/adaptive_policy_stress.rs`
//! (`SOLERO_TESTKIT_SEED` overrides it there; `--seed` here).

use std::path::PathBuf;

use solero::{BoxedStrategy, SoleroConfig, SoleroStrategy};
use solero_testkit::seed_override;
use solero_workloads::bursty::{BurstyBench, BurstyConfig, PHASES};

fn run_strategy(
    cfg: BurstyConfig,
    seed: u64,
    make: fn() -> BoxedStrategy,
) -> (String, String) {
    let bench = BurstyBench::new(cfg, make);
    let reports = bench.run_trajectory(&PHASES, seed);
    for r in &reports {
        eprintln!(
            "  [{}] {:>5}: rate {:.3} skips {:>5} disables {:>3} rearms {:>3}",
            bench.name(),
            r.phase.name(),
            r.elision_rate(),
            r.stats.policy_skips,
            r.stats.policy_disables,
            r.stats.policy_rearms,
        );
    }
    let phases: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
    (bench.name().to_string(), phases.join(",\n      "))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let grab = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out = PathBuf::from(grab("--out").unwrap_or_else(|| "BENCH_adaptive.json".into()));
    let seed = grab("--seed")
        .map(|s| s.parse().expect("--seed takes a u64"))
        .unwrap_or_else(|| seed_override(0x5EED_ADA7));
    let cfg = if quick {
        BurstyConfig::quick()
    } else {
        BurstyConfig::stress()
    };

    eprintln!(
        "bench_adaptive: {} readers, {} writers, {} reads/phase, seed {seed:#x}",
        cfg.readers, cfg.writers, cfg.reads_per_phase
    );
    let runs: Vec<String> = [
        || {
            Box::new(SoleroStrategy::configured(
                SoleroConfig::builder().adaptive(true).build(),
            )) as BoxedStrategy
        },
        (|| Box::new(SoleroStrategy::new()) as BoxedStrategy) as fn() -> BoxedStrategy,
    ]
    .into_iter()
    .map(|make| {
        let (name, phases) = run_strategy(cfg, seed, make);
        format!(
            "{{\"strategy\": \"{name}\", \"trajectory\": [\n      {phases}\n    ]}}"
        )
    })
    .collect();

    // solero_obs::json::JsonObject has no nested values, so the
    // document shell is assembled by hand; every leaf object is
    // JsonObject-made and the whole file re-parses with
    // solero_obs::json::parse (checked in the workloads tests).
    let doc = format!(
        "{{\n  \"workload\": \"bursty\",\n  \"seed\": {seed},\n  \
         \"readers\": {}, \"writers\": {}, \"reads_per_phase\": {},\n  \
         \"phases\": [\"quiet\", \"burst\", \"quiet\", \"burst\", \"quiet\"],\n  \
         \"runs\": [\n    {}\n  ]\n}}\n",
        cfg.readers,
        cfg.writers,
        cfg.reads_per_phase,
        runs.join(",\n    ")
    );
    std::fs::write(&out, &doc).unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    eprintln!("wrote {}", out.display());
}
