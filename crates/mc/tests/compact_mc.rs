//! Model-checked inflate → deflate → re-inflate handoff for the
//! compact (eight-byte, table-backed) lock word.
//!
//! Build with `RUSTFLAGS="--cfg solero_mc"` (see scripts/ci.sh).
//!
//! The compact layout keeps the elision counter *inside* the lock word
//! and every inflated structure in the global monitor table, so its
//! dangerous window is different from `SoleroLock`'s: **deflation**
//! prunes the table binding and republishes the displaced counter into
//! the word while an elided reader may be mid-section and a contender
//! may be about to re-inflate. These scenarios drive that handoff and
//! must hold in every explored schedule:
//!
//! * a validated elided read never returns a torn pair — in particular,
//!   no reader validates across a deflate that republished a displaced
//!   counter equal to the reader's captured word (the displaced value is
//!   pre-advanced at inflation and bumped per fat writing release
//!   precisely so this cannot happen);
//! * the handoff strands nobody: contenders whose binding is pruned by
//!   a racing deflate re-resolve and terminate, writers serialize, the
//!   lock ends thin, unlocked, **and without a table entry**;
//! * the word's in-word counter never loses a step (the compact ABA
//!   guard), and the abort taxonomy balances space-wide
//!   (`read_aborts == abort_reason_sum()`, `fallback_acquires ==
//!   abort_retry_exhausted`, `deflations ≤ inflations`).
//!
//! The space is drained three ways — exhaustive DFS with bounded
//! preemptions, DPOR, and a DPOR pass with TSO store buffers aimed at
//! the deflater's displaced-word store racing the reader's exit
//! validation. Scenarios run `SpinConfig::immediate()` so the bounded
//! spaces stay drainable.
#![cfg(solero_mc)]

use std::sync::Arc;

use solero::{CompactLock, CompactSpace, Fault, SoleroConfig};
use solero_mc::{spawn, Checker};
use solero_runtime::spin::SpinConfig;
use solero_runtime::word::COMPACT_CTR_STEP;
use solero_sync::atomic::{AtomicU64, Ordering};

fn mc_space() -> CompactSpace {
    CompactSpace::with_config(
        SoleroConfig::builder()
            .spin(SpinConfig::immediate())
            .build(),
    )
}

/// `writers` threads each run `sections` writing sections bumping a
/// pair as a unit while `readers` threads snapshot it elided. Panics
/// (killing the schedule) on a torn validated read or any teardown
/// invariant failure.
fn handoff_scenario(writers: usize, sections: u64, readers: usize) {
    let space = Arc::new(mc_space());
    let lock = Arc::new(CompactLock::new());
    let pair = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
    let start = lock.bind(&space).raw_word().counter().expect("starts thin");

    let mut handles = Vec::new();
    for _ in 0..writers {
        let (space, lock, pair) = (Arc::clone(&space), Arc::clone(&lock), Arc::clone(&pair));
        handles.push(spawn(move || {
            for _ in 0..sections {
                lock.bind(&space).write(|| {
                    let a = pair.0.load(Ordering::Relaxed);
                    pair.0.store(a + 1, Ordering::Relaxed);
                    pair.1.store(a + 1, Ordering::Relaxed);
                });
            }
        }));
    }
    for _ in 0..readers {
        let (space, lock, pair) = (Arc::clone(&space), Arc::clone(&lock), Arc::clone(&pair));
        handles.push(spawn(move || {
            let (a, b) = lock
                .bind(&space)
                .read_only(|| {
                    let a = pair.0.load(Ordering::Relaxed);
                    let b = pair.1.load(Ordering::Relaxed);
                    Ok::<_, Fault>((a, b))
                })
                .expect("reader must terminate via fallback if need be");
            assert_eq!(a, b, "validated elided read is torn: ({a}, {b})");
        }));
    }
    for h in handles {
        h.join();
    }

    let r = lock.bind(&space);
    assert!(!r.is_locked(), "no stranded owner after teardown");
    assert!(!r.is_inflated(), "final exit deflates");
    assert!(
        !r.monitor_resident(),
        "deflation must prune the table entry"
    );
    let total_writes = writers as u64 * sections;
    assert_eq!(
        pair.0.load(Ordering::Relaxed),
        total_writes,
        "write sections must serialize"
    );
    let end = r.raw_word().counter().expect("ends thin");
    let s = space.stats().snapshot();
    // Thin and FLC releases and inflation each advance the in-word
    // counter one step; fat writing releases advance the displaced copy
    // that deflation republishes; fallback *readers* releasing fat do
    // not. A lost step is the ABA that lets stale data validate.
    assert!(
        end >= start + total_writes + s.inflations,
        "counter lost a step: {start} -> {end} with {} writes, {} inflations",
        total_writes,
        s.inflations
    );
    assert_eq!(s.read_aborts, s.abort_reason_sum(), "{s:?}");
    assert_eq!(s.fallback_acquires, s.abort_retry_exhausted, "{s:?}");
    assert!(s.deflations <= s.inflations, "{s:?}");
    if s.abort_inflation > 0 {
        assert!(s.inflations > 0, "inflation aborts require an inflation: {s:?}");
    }
}

/// Writers-only exact form of the counter law: with nobody releasing
/// through the read path, the end counter is *exactly* the writes plus
/// one pre-advance per inflation — over- or under-stepping fails.
fn exact_counter_scenario() {
    let space = Arc::new(mc_space());
    let lock = Arc::new(CompactLock::new());
    let start = lock.bind(&space).raw_word().raw();

    let hs: Vec<_> = (0..2)
        .map(|_| {
            let (space, lock) = (Arc::clone(&space), Arc::clone(&lock));
            spawn(move || lock.bind(&space).write(|| {}))
        })
        .collect();
    for h in hs {
        h.join();
    }

    let r = lock.bind(&space);
    assert!(!r.is_locked() && !r.is_inflated(), "clean teardown");
    assert!(!r.monitor_resident(), "table pruned");
    let s = space.stats().snapshot();
    let expected = start.wrapping_add((2 + s.inflations) * COMPACT_CTR_STEP);
    assert_eq!(
        r.raw_word().raw(),
        expected,
        "counter must advance once per write section and once per \
         inflation (start {start:#x}, {} inflations)",
        s.inflations
    );
}

/// DFS, bounded preemptions: two contending writers force the
/// FLC → inflate → fat-handoff → deflate path under an elided reader.
#[test]
fn compact_handoff_reader_never_torn_dfs() {
    let stats = Checker::exhaustive()
        .preemption_bound(Some(2))
        .max_steps(300)
        .check("compact_handoff_dfs", || handoff_scenario(2, 1, 1))
        .expect("no schedule may validate a read across the deflate handoff");
    assert!(
        stats.complete || solero_mc::budget_overridden(),
        "bounded space must be exhausted"
    );
}

/// DFS over the writers-only space: the exact in-word counter law.
#[test]
fn compact_counter_exact_dfs() {
    let stats = Checker::exhaustive()
        .preemption_bound(Some(3))
        .max_steps(300)
        .check("compact_counter_dfs", exact_counter_scenario)
        .expect("compact counter stepping is schedule-independent");
    assert!(
        stats.complete || solero_mc::budget_overridden(),
        "bounded space must be exhausted"
    );
}

/// DPOR with a second section for one writer: some branch explores the
/// full inflate → deflate → **re-inflate** chain, and a deflate-pruned
/// contender must re-resolve rather than strand.
#[test]
fn compact_reinflation_drains_dpor() {
    let stats = Checker::dpor()
        .max_steps(500)
        .check("compact_reinflate_dpor", || handoff_scenario(2, 2, 1))
        .expect("re-inflation handoff must strand nobody");
    assert!(
        stats.complete || solero_mc::budget_overridden(),
        "bounded space must be exhausted"
    );
}

/// TSO store buffers: the deflater's displaced-counter store and the
/// writer's payload stores may sit buffered while the reader runs its
/// whole validated section — the shape the reader's acquire exit load
/// must close.
#[test]
fn compact_handoff_survives_tso() {
    let stats = Checker::dpor()
        .weak_memory(true)
        .max_steps(300)
        .check("compact_handoff_tso", || handoff_scenario(2, 1, 1))
        .expect("exit validation must close the store-buffer race");
    assert!(
        stats.complete || solero_mc::budget_overridden(),
        "bounded space must be exhausted"
    );
}

/// Non-preemptive sanity drain: every run-to-completion ordering of the
/// threads is clean — catches scenario bugs without paying for a full
/// interleaving search.
#[test]
fn compact_scenario_is_self_checking() {
    let stats = Checker::exhaustive()
        .preemption_bound(Some(0))
        .max_steps(300)
        .check("compact_serial", || handoff_scenario(1, 2, 1))
        .expect("serial schedules are trivially clean");
    assert!(stats.complete || solero_mc::budget_overridden());
}
