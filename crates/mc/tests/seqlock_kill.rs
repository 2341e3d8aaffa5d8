//! Mutation kills for the inline [`SeqLock`]'s exit validation.
//!
//! Build with `RUSTFLAGS="--cfg solero_mc"` (see scripts/ci.sh).
//!
//! The drains in `seqlock_mc.rs` prove the protocol holds; this binary
//! proves the exit validation is *load-bearing* by weakening it two
//! ways and requiring the checker to kill each mutant with a
//! deterministic replay:
//!
//! * `SKIP_EXIT_REREAD` dies already under sequential consistency —
//!   the writer lands between the reader's two payload loads and
//!   nothing rejects the mix;
//! * `WEAK_EXIT_LOAD` (the exit re-load demoted to `Relaxed`) survives
//!   SC but dies under TSO store buffers, where the stale even word
//!   validates a section the writer already invalidated.
//!
//! The mutation switch is process-global, so the kills live in their
//! own test binary (one `#[test]`, same pattern as barrier_kill.rs /
//! mutation_kill.rs): a parallel test harness must never interleave a
//! mutated protocol with the clean drains.

#![cfg(solero_mc)]

use std::sync::Arc;

use solero::{mutation, SeqLock, SoleroConfig};
use solero_mc::{spawn, Checker};
use solero_runtime::spin::SpinConfig;

fn mc_config() -> SoleroConfig {
    SoleroConfig::builder()
        .spin(SpinConfig::immediate())
        .build()
}

/// The mutation searches' scenario: the writer-bump vs validated-read
/// race of `seqlock_mc.rs`, shorn of the teardown bookkeeping. The
/// kills die on the reader's torn assert mid-schedule, so the
/// teardown's extra tracked steps only pad every execution of an
/// already DFS-order-unlucky search (the SC kill surfaces at ~99% of
/// the full scenario's space); dropping them pulls both seams inside a
/// tight step ceiling.
fn torn_pair_kill() {
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
    let reader = {
        let lock = Arc::clone(&lock);
        spawn(move || {
            let [a, b] = lock.read_inline();
            assert_eq!(a, b, "validated inline read is torn: [{a}, {b}]");
        })
    };
    writer.join();
    reader.join();
}

/// One test so the process-global mutation switch is only ever flipped
/// sequentially. Both exit-validation mutations must die on the inline
/// lock, each with a deterministic replay.
#[test]
fn seqlock_exit_validation_mutations_die() {
    // 60 steps covers every complete behaviour of the stripped kill
    // scenario; anything longer is fallback CAS spin, and under TSO the
    // flush branching on that spin pushes the violating schedules past
    // the execution budget (the seam sat beyond 200k executions at a
    // 100-step ceiling).
    let plain = || {
        Checker::exhaustive()
            .preemption_bound(Some(2))
            .max_steps(60)
    };
    let weak = || {
        Checker::exhaustive()
            .preemption_bound(Some(2))
            .weak_memory(true)
            .max_steps(60)
    };

    // Baselines: the unmutated protocol drains clean under the exact
    // searches the kills run.
    plain()
        .check("seqlock_baseline_sc", torn_pair_kill)
        .expect("unmutated seqlock must be correct under SC");
    weak()
        .check("seqlock_baseline_tso", torn_pair_kill)
        .expect("unmutated seqlock must be correct under TSO");

    // Skipping the exit re-read dies already under SC: the writer lands
    // between the reader's two payload loads and nothing rejects the
    // mix.
    mutation::set(mutation::SKIP_EXIT_REREAD);
    let violation = match plain().check("seqlock_skip_exit_reread", torn_pair_kill) {
        Err(v) => v,
        Ok(_) if solero_mc::budget_overridden() => {
            eprintln!("mc[seqlock_skip_exit_reread] kill skipped: SOLERO_MC_BUDGET capped");
            mutation::set(mutation::NONE);
            return;
        }
        Ok(_) => panic!("SKIP_EXIT_REREAD survived: the exit re-read is not load-bearing"),
    };
    assert!(
        violation.message.contains("torn"),
        "SKIP_EXIT_REREAD must die on the torn-pair assert, got: {violation}"
    );
    println!("killed seqlock skip_exit_reread: {violation}");
    for _ in 0..2 {
        let replayed = Checker::replay(&violation.trace)
            .check("seqlock_skip_exit_reread", torn_pair_kill)
            .expect_err("recorded trace must reproduce the kill");
        assert_eq!(replayed.message, violation.message, "replay diverged");
    }

    // Demoting the exit load to Relaxed needs store buffers to die: the
    // stale even word validates a section the writer already invalidated.
    mutation::set(mutation::WEAK_EXIT_LOAD);
    let violation = match weak().check("seqlock_weak_exit_load", torn_pair_kill) {
        Err(v) => v,
        Ok(_) if solero_mc::budget_overridden() => {
            eprintln!("mc[seqlock_weak_exit_load] kill skipped: SOLERO_MC_BUDGET capped");
            mutation::set(mutation::NONE);
            return;
        }
        Ok(_) => panic!("WEAK_EXIT_LOAD survived a full weak-memory search"),
    };
    assert!(
        violation.message.contains("torn"),
        "WEAK_EXIT_LOAD must die on the torn-pair assert, got: {violation}"
    );
    println!("killed seqlock weak_exit_load: {violation}");
    for _ in 0..2 {
        let replayed = Checker::replay(&violation.trace)
            .weak_memory(true)
            .check("seqlock_weak_exit_load", torn_pair_kill)
            .expect_err("recorded trace must reproduce the kill");
        assert_eq!(replayed.message, violation.message, "replay diverged");
    }
    mutation::set(mutation::NONE);

    // Switch off again: the protocol passes.
    weak()
        .check("seqlock_baseline_after", torn_pair_kill)
        .expect("protocol must pass once mutations are reset");
}
