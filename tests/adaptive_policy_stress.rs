//! Write-bursty stress for the adaptive elision policy (the tentpole's
//! end-to-end evidence): over a pinned seed matrix, drive
//! [`BurstyBench`] through quiet → burst → quiet → burst → quiet and
//! assert the policy actually *moves* — the elision rate collapses
//! under each burst (auto-disable) and recovers after it (re-arm) —
//! while the abort taxonomy stays balanced throughout.
//!
//! The same matrix replays on every run; `SOLERO_TESTKIT_SEED`
//! overrides the root (scripts/ci.sh pins one for the record).

use solero::{SoleroConfig, SoleroStrategy};
use solero_testkit::{seed_matrix, seed_override};
use solero_workloads::bursty::{BurstyBench, BurstyConfig, Phase, PhaseReport, PHASES};

/// During a burst the writers hold the lock almost continuously, so
/// elided completions must fall below this floor…
const BURST_CEILING: f64 = 0.55;
/// …and once the burst ends, the re-armed policy must climb back above
/// this. The worst leftover is one maximal forfeit window
/// (`max_forfeit` = 128 sections with default budgets) out of 3 000
/// quiet reads — under 5%.
const RECOVERY_FLOOR: f64 = 0.90;

fn run_one(name: &str, seed: u64) -> Vec<PhaseReport> {
    let bench = BurstyBench::new(BurstyConfig::stress(), || {
        Box::new(SoleroStrategy::configured(
            SoleroConfig::builder().adaptive(true).build(),
        ))
    });
    let reports = bench.run_trajectory(&PHASES, seed);
    for r in &reports {
        eprintln!(
            "[{name}] {:>5}: rate {:.3} skips {:>5} disables {:>3} rearms {:>3}",
            r.phase.name(),
            r.elision_rate(),
            r.stats.policy_skips,
            r.stats.policy_disables,
            r.stats.policy_rearms,
        );
    }

    // Fresh lock, no writers: everything elides, nothing is skipped.
    assert_eq!(reports[0].phase, Phase::Quiet);
    assert!(
        reports[0].elision_rate() > 0.99,
        "[{name}] fresh quiet phase must elide freely: {:.3}",
        reports[0].elision_rate()
    );
    assert_eq!(reports[0].stats.policy_skips, 0, "[{name}]");

    for (i, r) in reports.iter().enumerate() {
        let s = &r.stats;
        // Taxonomy invariants hold in every window, not just at the end.
        assert_eq!(s.read_aborts, s.abort_reason_sum(), "[{name}] phase {i}: {s}");
        assert_eq!(s.abort_retry_exhausted, s.fallback_acquires, "[{name}] phase {i}: {s}");
        assert!(
            s.elision_success + s.fallback_acquires + s.policy_skips <= s.read_enters,
            "[{name}] phase {i}: a section completes at most one way: {s}"
        );
        match r.phase {
            Phase::Burst => {
                assert!(
                    r.elision_rate() < BURST_CEILING,
                    "[{name}] phase {i}: burst must collapse the elision rate, \
                     got {:.3}: {s}",
                    r.elision_rate()
                );
                assert!(
                    s.policy_disables > 0,
                    "[{name}] phase {i}: burst must exhaust a retry budget: {s}"
                );
                assert!(
                    s.policy_skips > 0,
                    "[{name}] phase {i}: forfeited sections must acquire: {s}"
                );
            }
            Phase::Quiet if i > 0 => {
                assert!(
                    r.elision_rate() > RECOVERY_FLOOR,
                    "[{name}] phase {i}: quiet phase must re-arm and recover, \
                     got {:.3}: {s}",
                    r.elision_rate()
                );
            }
            Phase::Quiet => {}
        }
    }

    // The re-arm edge itself must have fired somewhere in the run.
    let rearms: u64 = reports.iter().map(|r| r.stats.policy_rearms).sum();
    let disables: u64 = reports.iter().map(|r| r.stats.policy_disables).sum();
    assert!(rearms > 0, "[{name}] the policy never re-armed");
    assert!(rearms <= disables, "[{name}] re-arm without a disable");

    // Teardown: the whole-run totals balance too.
    let total = bench.strategy().snapshot();
    assert_eq!(total.read_aborts, total.abort_reason_sum(), "[{name}] {total}");
    assert_eq!(total.abort_retry_exhausted, total.fallback_acquires, "[{name}] {total}");
    reports
}

#[test]
fn bursts_disable_elision_and_quiet_rearms_it() {
    for (i, seed) in seed_matrix(seed_override(0x5EED_ADA7), 3)
        .into_iter()
        .enumerate()
    {
        run_one(&format!("bursty-m{i}"), seed);
    }
}

/// The unelided control: without the adaptive policy the same bursts
/// produce zero policy activity — the counters belong to the policy
/// alone, and the baseline keeps speculating into the writers.
#[test]
fn static_solero_never_skips() {
    let bench = BurstyBench::new(BurstyConfig::quick(), || {
        Box::new(SoleroStrategy::new())
    });
    let reports = bench.run_trajectory(&PHASES[..2], seed_override(0x5EED_ADA8));
    for r in &reports {
        assert_eq!(r.stats.policy_skips, 0, "{}", r.stats);
        assert_eq!(r.stats.policy_disables, 0, "{}", r.stats);
        assert_eq!(r.stats.policy_rearms, 0, "{}", r.stats);
    }
}
