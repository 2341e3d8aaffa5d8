//! Checking the checker: each protocol mutation in `solero::mutation`
//! weakens one load/store the elision protocol depends on, and the
//! model checker must find a schedule that catches it — then replay
//! that schedule deterministically. If a mutation survived, the
//! scenarios would be too weak to trust.
//!
//! This lives in its own test binary (its own process) because the
//! mutation switch is process-global: the scenarios in
//! `tests/protocol.rs` must never run mutated.
//!
//! Build with `RUSTFLAGS="--cfg solero_mc"` (see scripts/ci.sh).
#![cfg(solero_mc)]

use std::sync::Arc;

use solero::{mutation, Fault, SoleroConfig, SoleroLock, WriteIntent};
use solero_heap::{ClassId, Heap};
use solero_mc::{spawn, Checker};
use solero_runtime::spin::SpinConfig;

const PAIR: ClassId = ClassId::new(7);

/// The torn-pair scenario from tests/protocol.rs: one writer keeping
/// `slot0 == slot1`, one elided reader asserting it saw them equal.
fn torn_pair_scenario() {
    let heap = Arc::new(Heap::new(64));
    let obj = heap.alloc(PAIR, 2).expect("scenario heap is large enough");
    heap.store(obj, 0, 10).unwrap();
    heap.store(obj, 1, 10).unwrap();
    let lock = Arc::new(SoleroLock::with_config(
        SoleroConfig::builder().spin(SpinConfig::immediate()).build(),
    ));

    let writer = {
        let (heap, lock) = (Arc::clone(&heap), Arc::clone(&lock));
        spawn(move || {
            lock.write(|| {
                let a = heap.load(obj, PAIR, 0).unwrap();
                heap.store(obj, 0, a + 1).unwrap();
                let b = heap.load(obj, PAIR, 1).unwrap();
                heap.store(obj, 1, b + 1).unwrap();
            });
        })
    };
    let reader = {
        let (heap, lock) = (Arc::clone(&heap), Arc::clone(&lock));
        spawn(move || {
            let pair = lock
                .read_only(|_| {
                    let a = heap.load(obj, PAIR, 0)?;
                    let b = heap.load(obj, PAIR, 1)?;
                    Ok::<_, Fault>((a, b))
                })
                .expect("no genuine faults in this scenario");
            assert_eq!(pair.0, pair.1, "validated torn read {pair:?}");
        })
    };
    writer.join();
    reader.join();
}

/// The same invariant over *plain* heap accesses: the read section
/// uses `Heap::{load_plain, store_plain}` — the model of the paper's
/// ordinary Java field accesses, whose safety rests entirely on exit
/// validation. The `Acquire`-accessor scenario above cannot kill
/// `WEAK_EXIT_LOAD`: a reader that observed torn data has already
/// synchronized with the writer's lock-word store, and per-location
/// coherence then forbids even a `Relaxed` exit load from returning
/// the stale word. With plain data reads no such rescue exists, and
/// the exit load's `Acquire` is load-bearing. (An earlier revision
/// worked around the missing plain accessors with raw `solero-sync`
/// `Relaxed` cells; the heap now models plain field access directly.)
fn torn_pair_plain_scenario() {
    let heap = Arc::new(Heap::new(64));
    let obj = heap.alloc(PAIR, 2).expect("scenario heap is large enough");
    heap.store_plain(obj, 0, 10).unwrap();
    heap.store_plain(obj, 1, 10).unwrap();
    let lock = Arc::new(SoleroLock::with_config(
        SoleroConfig::builder().spin(SpinConfig::immediate()).build(),
    ));

    let writer = {
        let (heap, lock) = (Arc::clone(&heap), Arc::clone(&lock));
        spawn(move || {
            lock.write(|| {
                heap.store_plain(obj, 0, 11).unwrap();
                heap.store_plain(obj, 1, 11).unwrap();
            });
        })
    };
    let reader = {
        let (heap, lock) = (Arc::clone(&heap), Arc::clone(&lock));
        spawn(move || {
            let pair = lock
                .read_only(|_| {
                    let a = heap.load_plain(obj, PAIR, 0)?;
                    let b = heap.load_plain(obj, PAIR, 1)?;
                    Ok::<_, Fault>((a, b))
                })
                .expect("no genuine faults in this scenario");
            assert_eq!(pair.0, pair.1, "validated torn read {pair:?}");
        })
    };
    writer.join();
    reader.join();
}

/// The torn-pair scenario with a read-mostly section as the writer: it
/// upgrades in place (Figure 17) and writes the pair under the held
/// lock, so its exit must advance the counter like a writer's.
fn upgraded_writer_scenario() {
    let heap = Arc::new(Heap::new(64));
    let obj = heap.alloc(PAIR, 2).expect("scenario heap is large enough");
    heap.store(obj, 0, 10).unwrap();
    heap.store(obj, 1, 10).unwrap();
    let lock = Arc::new(SoleroLock::with_config(
        SoleroConfig::builder().spin(SpinConfig::immediate()).build(),
    ));

    let writer = {
        let (heap, lock) = (Arc::clone(&heap), Arc::clone(&lock));
        spawn(move || {
            lock.read_mostly(|s| {
                s.ensure_write()?;
                let a = heap.load(obj, PAIR, 0)?;
                heap.store(obj, 0, a + 1)?;
                heap.store(obj, 1, a + 1)?;
                Ok::<_, Fault>(())
            })
            .expect("no genuine faults in this scenario");
        })
    };
    let reader = {
        let (heap, lock) = (Arc::clone(&heap), Arc::clone(&lock));
        spawn(move || {
            let pair = lock
                .read_only(|_| {
                    let a = heap.load(obj, PAIR, 0)?;
                    let b = heap.load(obj, PAIR, 1)?;
                    Ok::<_, Fault>((a, b))
                })
                .expect("no genuine faults in this scenario");
            assert_eq!(pair.0, pair.1, "validated torn read {pair:?}");
        })
    };
    writer.join();
    reader.join();
}

/// Bound 2 suffices for every mutant this search kills (all but the
/// exit wait's, which runs under [`wait_checker`]): each dies within
/// two preemptions (see the per-mutation notes), and the smaller space
/// keeps the whole harness inside the CI budget.
fn checker() -> Checker {
    Checker::exhaustive().preemption_bound(Some(2))
}

/// The exit-wait mutant needs a third: the reader's exit re-read must
/// find the writer mid-section, and the writer's release must land
/// between that re-read and the wait's probe. Exhaustive DFS at that
/// bound takes ~69k executions to drain the baseline and ~27k to kill;
/// DPOR drains it in ~100 and kills in ~80.
fn wait_checker() -> Checker {
    Checker::dpor().preemption_bound(Some(3))
}

/// One test (not one per mutation) so the process-global mutation
/// switch is flipped from a single thread, strictly sequentially.
#[test]
fn every_mutation_is_killed() {
    let scenarios: [(&str, fn() -> Checker, fn()); 4] = [
        ("torn_pair", checker, torn_pair_scenario),
        ("torn_pair_plain", checker, torn_pair_plain_scenario),
        ("upgraded_writer", checker, upgraded_writer_scenario),
        ("torn_pair_wait", wait_checker, torn_pair_scenario),
    ];

    // Baseline: the unmutated protocol survives the same searches
    // that must kill every mutant.
    for (sname, search, scenario) in scenarios {
        let stats = search()
            .check(&format!("baseline_{sname}"), scenario)
            .expect("unmutated protocol must pass the mutation-kill search");
        assert!(
            stats.complete || solero_mc::budget_overridden(),
            "baseline search must exhaust its space"
        );
    }

    // Each mutation paired with a scenario that observes it:
    //  * skip_exit_reread — reader validates mid-write torn heap pair
    //    (2 preemptions: reader pauses after slot 0, writer updates
    //    slot 0, reader finishes and skips the re-read).
    //  * weak_exit_load — plain heap pair; the stale lock word rescues
    //    a torn pair through the weakened validation load.
    //  * stuck_counter — writer's whole section hides between the
    //    reader's two loads (1 preemption): the word never advanced,
    //    so validation ABA-passes a torn pair.
    //  * held_exit_ignores_write — the same shape with an upgraded
    //    read-mostly section as the writer (1 preemption): its exit
    //    restores the word it wrote under.
    //  * exit_wait_any_free — the reader's exit finds the writer
    //    mid-section and waits it out (3 preemptions): the advanced
    //    word the writer releases validates a torn pair.
    let kills: [(&str, u8, fn() -> Checker, fn()); 5] = [
        (
            "skip_exit_reread",
            mutation::SKIP_EXIT_REREAD,
            checker,
            torn_pair_scenario,
        ),
        (
            "weak_exit_load",
            mutation::WEAK_EXIT_LOAD,
            checker,
            torn_pair_plain_scenario,
        ),
        (
            "stuck_counter",
            mutation::STUCK_COUNTER,
            checker,
            torn_pair_scenario,
        ),
        (
            "held_exit_ignores_write",
            mutation::HELD_EXIT_IGNORES_WRITE,
            checker,
            upgraded_writer_scenario,
        ),
        (
            "exit_wait_any_free",
            mutation::EXIT_WAIT_ANY_FREE,
            wait_checker,
            torn_pair_scenario,
        ),
    ];

    for (name, m, search, scenario) in kills {
        mutation::set(m);
        let violation = match search().check(name, scenario) {
            Err(v) => v,
            // A capped search makes no kill promise (the kills above
            // need up to ~1.7k executions); don't fail the suite when
            // the operator deliberately shrank the budget.
            Ok(_) if solero_mc::budget_overridden() => {
                eprintln!("mc[{name}] kill skipped: SOLERO_MC_BUDGET capped the search");
                mutation::set(mutation::NONE);
                continue;
            }
            Ok(_) => panic!("mutation {name} survived a full search"),
        };
        println!("killed {name}: {violation}");
        assert!(
            violation.message.contains("torn read"),
            "{name} must die on the torn-read assert, got: {violation}"
        );

        // The printed trace replays to the same failure, twice.
        for _ in 0..2 {
            let replayed = Checker::replay(&violation.trace)
                .check(name, scenario)
                .expect_err("recorded trace must reproduce the kill");
            assert_eq!(replayed.message, violation.message, "{name} replay diverged");
        }

        mutation::set(mutation::NONE);
    }

    // And with the switch back off, the protocol passes again.
    checker()
        .check("baseline_after", torn_pair_scenario)
        .expect("protocol must pass once mutations are reset");
}
