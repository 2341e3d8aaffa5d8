//! Model-checked writer-bump/reader-validate handshake for the inline
//! [`SeqLock`].
//!
//! Build with `RUSTFLAGS="--cfg solero_mc"` (see scripts/ci.sh).
//!
//! The inline seqlock has no heap indirection to hide behind: the
//! payload words are read speculatively (`Relaxed`) while a writer may
//! be storing them, and the *only* thing standing between a torn
//! word-mix and the caller is the exit re-validation — the captured
//! even word re-loaded `Acquire` after the read-exit fence. These
//! scenarios drive both sides of that handshake at once and must hold
//! in **every** explored schedule:
//!
//! * a validated `read_inline` never returns a torn pair — the value
//!   is some writer's complete publication or the initial one;
//! * the retry/fallback driver terminates and releases: the word ends
//!   even, advanced exactly twice per writer (fallback *reads* restore
//!   the word they displaced rather than bumping it);
//! * the abort taxonomy balances at teardown (`read_aborts ==
//!   abort_reason_sum()`, `fallback_acquires == abort_retry_exhausted`,
//!   and every typed read completes exactly one way: elided or
//!   fallback).
//!
//! The space is drained three ways — exhaustive DFS (1R+1W), DPOR
//! (2R+1W), and a TSO store-buffer pass aimed at the writer's buffered
//! payload/sequence stores. `seqlock_kill.rs` (its own binary — the
//! mutation switch is process-global) then demonstrates the validation
//! is load-bearing: `SKIP_EXIT_REREAD` dies under plain DFS, and the
//! `Relaxed`-demoted exit load (`WEAK_EXIT_LOAD`) dies under weak
//! memory — each with a deterministic replay. Scenarios run
//! `SpinConfig::immediate()` so the bounded spaces stay drainable.
//!
//! Unlike `SoleroLock`, the inline lock has no monitor to park on: its
//! fallback is a CAS loop, so a schedule that starves the lock holder
//! spins the contender until the step ceiling truncates it — and
//! because bounded-preemption DFS enumerates every placement of the
//! preemption points along an execution (`~steps^bound` schedules),
//! every extra spin iteration the ceiling admits multiplies the
//! search. The interesting interleavings — writer mid-store under a
//! speculating reader, fallback freezing the word, the restored (not
//! bumped) release — all complete in well under 150 steps, so the
//! checkers pin `max_steps` there; the tail beyond it is nothing but
//! failed CAS probes re-reading a word only the descheduled holder can
//! change.
#![cfg(solero_mc)]

use std::sync::Arc;

use solero::{SeqLock, SoleroConfig};
use solero_mc::{spawn, Checker};
use solero_runtime::spin::SpinConfig;

fn mc_config() -> SoleroConfig {
    SoleroConfig::builder()
        .spin(SpinConfig::immediate())
        .build()
}

/// `readers` threads snapshot an inline pair one writer bumps as a
/// unit. Panics (killing the schedule) if a validated read is torn or
/// the teardown invariants fail.
fn torn_pair_scenario(readers: usize) {
    let lock = Arc::new(SeqLock::with_config(mc_config(), [0u64; 2]));

    let writer = {
        let lock = Arc::clone(&lock);
        spawn(move || {
            lock.update_inline(|v| {
                v[0] += 1;
                v[1] += 1;
            });
        })
    };
    let handles: Vec<_> = (0..readers)
        .map(|_| {
            let lock = Arc::clone(&lock);
            spawn(move || {
                let [a, b] = lock.read_inline();
                assert_eq!(a, b, "validated inline read is torn: [{a}, {b}]");
            })
        })
        .collect();
    writer.join();
    for h in handles {
        h.join();
    }

    assert_eq!(
        lock.raw_seq(),
        2,
        "one writer bumps by exactly 2; fallback reads must restore"
    );
    assert_eq!(lock.read_inline(), [1, 1], "writer's publication lost");
    let s = lock.stats().snapshot();
    // The post-join read above is always elided (no concurrency left).
    let typed_reads = readers as u64 + 1;
    assert_eq!(s.read_enters, typed_reads, "{s:?}");
    assert_eq!(s.write_enters, 1, "{s:?}");
    assert_eq!(
        s.elision_success + s.fallback_acquires,
        typed_reads,
        "every typed read completes exactly once, elided or fallback: {s:?}"
    );
    assert_eq!(s.read_aborts, s.abort_reason_sum(), "{s:?}");
    assert_eq!(s.fallback_acquires, s.abort_retry_exhausted, "{s:?}");
}

fn one_reader_one_writer() {
    torn_pair_scenario(1)
}
/// DFS, bounded preemptions: every interleaving of the reader's
/// capture/load/re-validate against the writer's CAS/store/release.
#[test]
fn seqlock_reader_never_torn_dfs() {
    let stats = Checker::exhaustive()
        .preemption_bound(Some(2))
        .max_steps(150)
        .check("seqlock_torn_dfs", one_reader_one_writer)
        .expect("validated inline reads must never tear");
    assert!(
        stats.complete || solero_mc::budget_overridden(),
        "bounded space must be exhausted"
    );
}

/// DPOR, two readers racing the writer: retry, fallback, and the
/// restored (not bumped) word of a fallback read are all reachable, and
/// the invariants must hold on every branch.
#[test]
fn seqlock_two_readers_dpor() {
    let stats = Checker::dpor()
        .max_steps(250)
        .check("seqlock_torn_dpor", || torn_pair_scenario(2))
        .expect("inline seqlock invariants must hold under DPOR");
    assert!(
        stats.complete || solero_mc::budget_overridden(),
        "bounded space must be exhausted"
    );
}

/// TSO store buffers: the writer's payload stores and its release bump
/// may sit buffered while the reader runs its whole validated section —
/// exactly the shape the acquire exit load plus read-exit fence exist
/// to close.
#[test]
fn seqlock_handshake_survives_tso() {
    // Flush points multiply every spin iteration, so the plain-DFS form
    // of this drain is ~1.3M executions; DPOR collapses it the same way
    // it does the SC space (weak_memory.rs pins DPOR/DFS verdict parity
    // under TSO) while seqlock_kill.rs still proves the
    // exhaustive weak-memory search finds the WEAK_EXIT_LOAD seam.
    let stats = Checker::dpor()
        .weak_memory(true)
        .max_steps(100)
        .check("seqlock_torn_tso", one_reader_one_writer)
        .expect("the exit validation must close the store-buffer race");
    assert!(
        stats.complete || solero_mc::budget_overridden(),
        "bounded space must be exhausted"
    );
}
