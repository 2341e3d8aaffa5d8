//! Mutation kills for the inline [`SeqLock`]'s exit validation and
//! held exits.
//!
//! Build with `RUSTFLAGS="--cfg solero_mc"` (see scripts/ci.sh).
//!
//! The drains in `seqlock_mc.rs` prove the protocol holds; this binary
//! proves the exit validation and the held exit are *load-bearing* by
//! weakening them four ways and requiring the checker to kill each
//! mutant with a deterministic replay:
//!
//! * `SKIP_EXIT_REREAD` dies already under sequential consistency —
//!   the writer lands between the reader's two payload loads and
//!   nothing rejects the mix;
//! * `HELD_EXIT_IGNORES_WRITE` dies under SC too — an upgraded
//!   read-mostly section writes between the reader's loads and its
//!   exit restores the even word it displaced;
//! * `EXIT_WAIT_ANY_FREE` dies under SC with a third preemption, found
//!   by DPOR — the reader's exit finds the writer mid-section, waits it
//!   out, and validates on the advanced word the writer releases;
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

use solero::{mutation, Fault, SeqLock, SeqStrategy, SoleroConfig, SyncStrategy};
use solero_mc::{spawn, Checker};
use solero_runtime::spin::SpinConfig;
use solero_sync::atomic::{AtomicU64, Ordering};

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

/// The same race with the writer as a read-mostly closure section on
/// the sequence word: it upgrades (`ensure_write`) and then writes a
/// pair outside the lock's payload, so its held exit must publish the
/// next even word as a writer's does.
fn upgraded_writer_kill() {
    let lock = Arc::new(SeqStrategy::configured(mc_config(), ()));
    let pair = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    let writer = {
        let (lock, pair) = (Arc::clone(&lock), Arc::clone(&pair));
        spawn(move || {
            lock.mostly_section(|ck| {
                ck.ensure_write()?;
                let a = pair[0].load(Ordering::Relaxed);
                pair[0].store(a + 1, Ordering::Relaxed);
                pair[1].store(a + 1, Ordering::Relaxed);
                Ok::<_, Fault>(())
            })
            .expect("no genuine faults in this scenario");
        })
    };
    let reader = {
        let (lock, pair) = (Arc::clone(&lock), Arc::clone(&pair));
        spawn(move || {
            let (a, b) = lock
                .read_section(|_| {
                    Ok::<_, Fault>((
                        pair[0].load(Ordering::Relaxed),
                        pair[1].load(Ordering::Relaxed),
                    ))
                })
                .expect("no genuine faults in this scenario");
            assert_eq!(a, b, "validated closure read is torn: ({a}, {b})");
        })
    };
    writer.join();
    reader.join();
}

/// Requires the checker to kill mutation `m` on `scenario` with the
/// torn-pair assert, then replays the recorded schedule twice. When
/// `SOLERO_MC_BUDGET` capped the search before the kill, prints the
/// skip instead.
fn kill(name: &str, m: u8, search: fn() -> Checker, weak: bool, scenario: fn()) {
    mutation::set(m);
    let violation = match search().check(name, scenario) {
        Err(v) => v,
        Ok(_) if solero_mc::budget_overridden() => {
            eprintln!("mc[{name}] kill skipped: SOLERO_MC_BUDGET capped");
            mutation::set(mutation::NONE);
            return;
        }
        Ok(_) => panic!("{name} survived a full search"),
    };
    assert!(
        violation.message.contains("torn"),
        "{name} must die on the torn-pair assert, got: {violation}"
    );
    println!("killed {name}: {violation}");
    for _ in 0..2 {
        let replayed = Checker::replay(&violation.trace)
            .weak_memory(weak)
            .check(name, scenario)
            .expect_err("recorded trace must reproduce the kill");
        assert_eq!(
            replayed.message, violation.message,
            "{name} replay diverged"
        );
    }
    mutation::set(mutation::NONE);
}

// 60 steps covers every complete behaviour of the stripped kill
// scenarios; anything longer is fallback CAS spin, and under TSO the
// flush branching on that spin pushes the violating schedules past the
// execution budget (the seam sat beyond 200k executions at a 100-step
// ceiling).
fn plain() -> Checker {
    Checker::exhaustive()
        .preemption_bound(Some(2))
        .max_steps(60)
}

/// The exit-wait mutant needs a third preemption: the writer's release
/// must land between the reader's exit re-read and the wait's probe.
/// Exhaustive DFS at that bound did not drain the baseline within 200k
/// executions and killed only after ~100k, past the CI budget; DPOR
/// drains it in a few dozen and kills in under ten.
fn plain_wait() -> Checker {
    Checker::dpor().preemption_bound(Some(3)).max_steps(60)
}

fn weak() -> Checker {
    Checker::exhaustive()
        .preemption_bound(Some(2))
        .weak_memory(true)
        .max_steps(60)
}

/// One test so the process-global mutation switch is only ever flipped
/// sequentially. Every mutation must die on the inline lock, each with
/// a deterministic replay.
#[test]
fn seqlock_exit_validation_mutations_die() {
    // Baselines: the unmutated protocol drains clean under the exact
    // searches the kills run.
    plain()
        .check("seqlock_baseline_sc", torn_pair_kill)
        .expect("unmutated seqlock must be correct under SC");
    plain()
        .check("seqlock_baseline_upgrade", upgraded_writer_kill)
        .expect("an upgraded closure section must release as a writer");
    plain_wait()
        .check("seqlock_baseline_wait", torn_pair_kill)
        .expect("unmutated seqlock must be correct with a third preemption");
    weak()
        .check("seqlock_baseline_tso", torn_pair_kill)
        .expect("unmutated seqlock must be correct under TSO");

    kill(
        "seqlock_skip_exit_reread",
        mutation::SKIP_EXIT_REREAD,
        plain,
        false,
        torn_pair_kill,
    );
    kill(
        "seqlock_held_exit_ignores_write",
        mutation::HELD_EXIT_IGNORES_WRITE,
        plain,
        false,
        upgraded_writer_kill,
    );
    kill(
        "seqlock_exit_wait_any_free",
        mutation::EXIT_WAIT_ANY_FREE,
        plain_wait,
        false,
        torn_pair_kill,
    );
    kill(
        "seqlock_weak_exit_load",
        mutation::WEAK_EXIT_LOAD,
        weak,
        true,
        torn_pair_kill,
    );

    // Switch off again: the protocol passes.
    weak()
        .check("seqlock_baseline_after", torn_pair_kill)
        .expect("protocol must pass once mutations are reset");
}
