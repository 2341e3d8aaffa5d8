//! Abort-taxonomy stress: hostile writers vs elided readers, checking
//! that the per-reason abort counters stay consistent under real
//! interference (observability-layer satellite).
//!
//! Invariants checked on every pinned seed:
//!
//! * every read abort is classified under exactly one reason
//!   (`read_aborts == abort_reason_sum()`);
//! * a retry-exhausted abort and a fallback acquisition are the same
//!   event seen from two counters (`abort_retry_exhausted ==
//!   fallback_acquires`);
//! * inflation-reason aborts only occur when the lock actually inflated
//!   (`abort_inflation > 0 ⇒ inflations > 0`) — note a single hostile
//!   writer CAN inflate the lock (reader spin exhaustion enters via the
//!   monitor), so the converse is deliberately not asserted;
//! * a lock deflates at most once per inflation
//!   (`deflations ≤ inflations`);
//! * a quiet lock (no writers) never aborts at all.

use std::sync::atomic::{AtomicU64, Ordering};

use solero::{
    BoxedStrategy, Fault, SeqStrategy, SoleroConfig, SoleroStrategy, SyncStrategy, WriteIntent,
};
use solero_runtime::stats::StatsSnapshot;
use solero_testkit::{seed_matrix, seed_override, stress, StressConfig};

/// The elided variants the sweeps cover: both lock words the read
/// driver runs on — the SOLERO word and the `SeqLock` sequence word —
/// each static and adaptive. The taxonomy invariants are independent of
/// the policy (a policy skip is not an abort) and of the word (both
/// book through the one driver), so all four must satisfy every one.
fn solero_fleet() -> [(&'static str, BoxedStrategy); 4] {
    let adaptive = || SoleroConfig::builder().adaptive(true).build();
    [
        ("SOLERO", Box::new(SoleroStrategy::new())),
        (
            "Adaptive-SOLERO",
            Box::new(SoleroStrategy::configured(adaptive())),
        ),
        ("SeqLock", Box::new(SeqStrategy::new(0u64))),
        (
            "Adaptive-SeqLock",
            Box::new(SeqStrategy::configured(adaptive(), 0u64)),
        ),
    ]
}

const THREADS: usize = 6;
/// Workers `0..WRITERS` mutate; the rest read speculatively.
const WRITERS: usize = 2;
const ROUNDS: usize = 2;
const OPS: usize = 3_000;
const CELLS: usize = 64;

/// Writers hammer write sections over a small cell array while readers
/// run speculative read sections with a mid-section checkpoint.
fn hostile_run(name: &str, seed: u64, strat: &BoxedStrategy) -> StatsSnapshot {
    let cells: Vec<AtomicU64> = (0..CELLS).map(|_| AtomicU64::new(0)).collect();
    stress(name, &StressConfig::new(THREADS, ROUNDS, seed), |w| {
        if w.id < WRITERS {
            for _ in 0..OPS {
                let k = w.rng.gen_range(0..CELLS);
                strat.write_with(|| {
                    cells[k].fetch_add(1, Ordering::Relaxed);
                });
            }
        } else {
            for _ in 0..OPS {
                let a = w.rng.gen_range(0..CELLS);
                let b = w.rng.gen_range(0..CELLS);
                let _ = strat
                    .read_with(|ck| {
                        let x = cells[a].load(Ordering::Relaxed);
                        ck.checkpoint()?;
                        let y = cells[b].load(Ordering::Relaxed);
                        Ok(x.wrapping_add(y))
                    })
                    .expect("pure reads cannot genuinely fault");
            }
        }
    });
    strat.snapshot()
}

#[test]
fn quiet_readers_never_abort() {
    // Quiet implies zero aborts for every variant — including the
    // adaptive ones, whose policy must stay entirely out of the way
    // (no skips, no disables) when speculation never fails.
    for (name, strat) in solero_fleet() {
        let cell = AtomicU64::new(7);
        for _ in 0..10_000 {
            let v = strat
                .read_with(|_| Ok(cell.load(Ordering::Relaxed)))
                .expect("no faults");
            assert_eq!(v, 7);
        }
        let s = strat.snapshot();
        assert_eq!(s.read_aborts, 0, "[{name}] {s}");
        assert_eq!(s.abort_reason_sum(), 0, "[{name}] {s}");
        assert_eq!(s.fallback_acquires, 0, "[{name}] {s}");
        assert_eq!(s.policy_skips, 0, "[{name}] quiet policy must not skip: {s}");
        assert_eq!(s.policy_disables, 0, "[{name}] {s}");
    }
}

#[test]
fn taxonomy_invariants_hold_under_hostile_writers() {
    // Whether collisions actually occur depends on scheduling (release
    // builds can race through the tiny sections untouched), so this
    // test checks the invariants that must hold at ANY abort count; the
    // held-lock test below guarantees a nonzero count deterministically.
    for (i, seed) in seed_matrix(seed_override(0xAB0_7AC5), 3)
        .into_iter()
        .enumerate()
    {
        for (name, strat) in solero_fleet() {
            let s = hostile_run(&format!("taxonomy-m{i}"), seed, &strat);
            assert_eq!(
                s.read_aborts,
                s.abort_reason_sum(),
                "[{name}] aborts must be classified exactly once: {s}"
            );
            assert_eq!(
                s.abort_retry_exhausted, s.fallback_acquires,
                "[{name}] retry-exhausted aborts and fallback acquires are one event: {s}"
            );
            if s.abort_inflation > 0 {
                assert!(s.inflations > 0, "[{name}] inflation aborts without inflation: {s}");
            }
            assert!(
                s.deflations <= s.inflations,
                "[{name}] a lock deflates at most once per inflation: {s}"
            );
            assert!(
                s.elision_success + s.fallback_acquires + s.policy_skips <= s.read_enters,
                "[{name}] a section completes at most one way: {s}"
            );
        }
    }
}

#[test]
fn a_held_lock_forces_entry_aborts() {
    // A writer camps on the lock while readers hammer read sections the
    // whole time: any read attempted during the hold finds the lock
    // word busy at entry, so the recorded reasons must include
    // locked-at-entry and/or inflation (spin exhaustion under a long
    // hold legitimately inflates).
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    let strat = SoleroStrategy::new();
    let stop = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs(10);
    // Take the hold before any reader starts, so every reader's first
    // attempt finds the word busy at entry. Readers already running
    // when the writer acquires can all be mid-section: each then fails
    // validation and parks in the fallback, and none books the
    // entry-time abort the hold waits for.
    let hold = strat.lock().lock_write();
    std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    let _ = strat
                        .read_section(|_| Ok(()))
                        .expect("empty reads cannot genuinely fault");
                }
            });
        }
        // Handshake on the counters rather than sleeping fixed quanta:
        // under parallel test load a timed hold can end before any
        // starved reader gets a single attempt in. Hold the lock until
        // an entry-time abort is actually on the books (deadline-capped
        // so a genuine regression fails the asserts below, not the
        // clock).
        while Instant::now() < deadline {
            let s = strat.snapshot();
            if s.abort_locked_at_entry + s.abort_inflation > 0 {
                break;
            }
            std::thread::yield_now();
        }
        drop(hold);
        stop.store(true, Ordering::Release);
    });
    let s = strat.snapshot();
    assert!(s.read_aborts > 0, "no reader collided with the hold: {s}");
    assert_eq!(s.read_aborts, s.abort_reason_sum(), "{s}");
    assert!(
        s.abort_locked_at_entry + s.abort_inflation > 0,
        "a held lock must surface as an entry-time reason: {s}"
    );
    if s.abort_inflation > 0 {
        assert!(s.inflations > 0, "{s}");
    }
    assert!(
        s.deflations <= s.inflations,
        "a lock deflates at most once per inflation: {s}"
    );
}

#[test]
fn observed_reason_matches_injected_interference() {
    // Deterministic injection: a writer changes the lock word while the
    // reader's first speculative attempt is in flight, so the section
    // must record a word-changed-at-exit abort (plus, with the default
    // fallback threshold of 1, the retry-exhausted fallback).
    let strat = SoleroStrategy::new();
    let lock = strat.lock();
    let data = AtomicU64::new(0);
    let mut attempt = 0u32;
    let v = strat
        .read_section(|_| {
            attempt += 1;
            if attempt == 1 {
                std::thread::scope(|sc| {
                    sc.spawn(|| lock.write(|| data.store(1, Ordering::Release)));
                });
            }
            Ok(data.load(Ordering::Acquire))
        })
        .expect("no genuine faults");
    assert_eq!(v, 1, "the re-executed attempt sees the write");
    let s = strat.snapshot();
    assert_eq!(s.abort_word_changed_at_exit, 1, "{s}");
    assert_eq!(s.abort_retry_exhausted, 1, "{s}");
    assert_eq!(s.read_aborts, s.abort_reason_sum(), "{s}");
}

#[test]
fn upgrade_failure_is_one_abort() {
    // A failed read-mostly upgrade goes straight to the fallback lock
    // (Figure 17, line 13). That is ONE abort, classified as
    // retry-exhausted-fallback by the fallback branch; it must not
    // additionally be booked as word-changed-at-exit by the settling
    // code, or `read_aborts == abort_reason_sum()` breaks.
    let strat = SoleroStrategy::new();
    let lock = strat.lock();
    let data = AtomicU64::new(0);
    let mut attempt = 0u32;
    lock.read_mostly(|s| {
        attempt += 1;
        if attempt == 1 {
            // Invalidate the speculation before the upgrade point.
            std::thread::scope(|sc| {
                sc.spawn(|| lock.write(|| {}));
            });
        }
        s.ensure_write()?;
        data.fetch_add(1, Ordering::Relaxed);
        Ok::<_, Fault>(())
    })
    .expect("upgrade failure re-executes under the lock");
    assert_eq!(attempt, 2, "failed upgrade re-executes exactly once");

    let s = strat.snapshot();
    assert_eq!(s.read_aborts, 1, "one upgrade failure is one abort: {s}");
    assert_eq!(s.abort_retry_exhausted, 1, "{s}");
    assert_eq!(s.abort_word_changed_at_exit, 0, "double-booked abort: {s}");
    assert_eq!(s.fallback_acquires, 1, "{s}");
    assert_eq!(s.read_aborts, s.abort_reason_sum(), "{s}");
    assert_eq!(s.abort_retry_exhausted, s.fallback_acquires, "{s}");
}
