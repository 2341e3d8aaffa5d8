//! Model-checked invariants of the SOLERO elision protocol, plus the
//! tasuki and rwlock baselines (ISSUE 3 tentpole, part 3).
//!
//! Build with `RUSTFLAGS="--cfg solero_mc"` (see scripts/ci.sh). Every
//! scenario is a closure re-run once per explored schedule; shared
//! state is created inside the closure so executions are independent.
//! Scenarios use the closure section APIs (`write`, `read_only`) —
//! never the RAII guards — because a failing schedule tears threads
//! down by unwinding, and a guard would then run protocol operations
//! from `Drop` outside the model.
#![cfg(solero_mc)]

use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};
use std::sync::Arc;

use solero::{Checkpoint, Fault, SoleroConfig, SoleroLock};
use solero_heap::{ClassId, Heap, ObjRef};
use solero_mc::{spawn, Checker};
use solero_runtime::spin::SpinConfig;
use solero_runtime::word::{CompactWord, COMPACT_CTR_STEP as COUNTER_STEP};

const PAIR: ClassId = ClassId::new(7);

/// Minimal-state-space config: one probe and no spinning, so
/// contention escalates to the monitor in one step instead of adding
/// schedule points (the default tiers' 128 probes stretch the
/// fallback-heavy schedules here past the execution budget).
fn mc_config() -> SoleroConfig {
    SoleroConfig::builder()
        .spin(SpinConfig::immediate())
        .build()
}

/// Allocates a two-slot object whose invariant is `slot0 == slot1`.
fn alloc_pair(heap: &Heap) -> ObjRef {
    let obj = heap.alloc(PAIR, 2).expect("scenario heap is large enough");
    heap.store(obj, 0, 10).unwrap();
    heap.store(obj, 1, 10).unwrap();
    obj
}

/// One writer keeping `slot0 == slot1` under the lock, one elided
/// reader of both slots. A validated read-only section must never
/// observe a torn pair, under every schedule with up to 3 preemptions.
///
/// Also asserts (in every explored schedule) that each abort was
/// classified exactly once: `read_aborts == abort_reason_sum()`. The
/// assert is sound under the checker because the stats counters are
/// plain `std` atomics — not scheduling points — so the two increments
/// in `note_abort` cannot be torn by the virtual-thread scheduler.
#[test]
fn validated_read_sees_consistent_snapshot() {
    let stats = Checker::exhaustive()
        .preemption_bound(Some(3))
        .check("read_snapshot", || {
            let heap = Arc::new(Heap::new(64));
            let obj = alloc_pair(&heap);
            let lock = Arc::new(SoleroLock::with_config(mc_config()));

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

            let s = lock.stats().snapshot();
            assert_eq!(
                s.read_aborts,
                s.abort_reason_sum(),
                "every abort classified exactly once: {s:?}"
            );
            assert_eq!(s.fallback_acquires, s.abort_retry_exhausted, "{s:?}");
        })
        .expect("the unmutated protocol must never validate a torn read");
    assert!(
        stats.complete || solero_mc::budget_overridden(),
        "bounded space must be exhausted"
    );
}

/// Two writing critical sections advance the version counter by
/// exactly `COUNTER_STEP` each, plus one extra step per inflation
/// (the displaced counter is pre-advanced when the lock inflates and
/// bumped again at the fat writing release — over-advance only ever
/// aborts a reader conservatively), and the lock ends unlocked. A
/// *lost* counter step is exactly the ABA that would let a concurrent
/// reader validate stale data.
#[test]
fn counter_advances_step_per_write_section() {
    let inflated_runs = Arc::new(StdAtomicU64::new(0));
    let seen = Arc::clone(&inflated_runs);
    let stats = Checker::exhaustive()
        .preemption_bound(Some(3))
        .check("counter_step", move || {
            let lock = Arc::new(SoleroLock::with_config(mc_config()));
            let start = lock.raw_word().raw();
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let lock = Arc::clone(&lock);
                    spawn(move || lock.write(|| {}))
                })
                .collect();
            for h in hs {
                h.join();
            }
            assert!(!lock.is_locked(), "both sections released");
            let end = lock.raw_word();
            assert!(!end.is_inflated(), "uncontended exit deflates");
            let s = lock.stats().snapshot();
            let expected = start.wrapping_add((2 + s.inflations) * COUNTER_STEP);
            assert_eq!(
                end.raw(),
                expected,
                "counter must advance once per write section and once \
                 per inflation (start {start:#x}, end {:#x}, {} inflations)",
                end.raw(),
                s.inflations
            );
            assert!(end.raw() > start, "counter never regresses or wraps");
            seen.fetch_add(s.inflations, StdOrdering::Relaxed);
        })
        .expect("counter stepping is schedule-independent");
    assert!(
        stats.complete || solero_mc::budget_overridden(),
        "bounded space must be exhausted"
    );
    assert!(
        inflated_runs.load(StdOrdering::Relaxed) > 0 || solero_mc::budget_overridden(),
        "exploration must cover at least one inflating schedule"
    );
}

/// A reader whose speculation keeps failing must reach real
/// acquisition (the Figure 8 fallback), not retry forever: with
/// `fallback_threshold = 1` and a writer churning the word twice, the
/// reader completes in every schedule, and some schedule exercises the
/// fallback path.
#[test]
fn retry_exhaustion_reaches_acquisition() {
    let fallbacks = Arc::new(StdAtomicU64::new(0));
    let seen = Arc::clone(&fallbacks);
    let stats = Checker::exhaustive()
        .preemption_bound(Some(3))
        .check("retry_fallback", move || {
            let heap = Arc::new(Heap::new(64));
            let obj = alloc_pair(&heap);
            let lock = Arc::new(SoleroLock::with_config(mc_config()));

            let writer = {
                let (heap, lock) = (Arc::clone(&heap), Arc::clone(&lock));
                spawn(move || {
                    for _ in 0..2 {
                        lock.write(|| {
                            let a = heap.load(obj, PAIR, 0).unwrap();
                            heap.store(obj, 0, a + 1).unwrap();
                            heap.store(obj, 1, a + 1).unwrap();
                        });
                    }
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
                        .expect("reader must terminate via fallback if need be");
                    assert_eq!(pair.0, pair.1, "torn {pair:?}");
                })
            };
            writer.join();
            reader.join();

            let s = lock.stats().snapshot();
            assert_eq!(s.read_aborts, s.abort_reason_sum(), "{s:?}");
            assert_eq!(s.fallback_acquires, s.abort_retry_exhausted, "{s:?}");
            seen.fetch_add(s.fallback_acquires, StdOrdering::Relaxed);
        })
        .expect("reader terminates under every schedule");
    assert!(
        stats.complete || solero_mc::budget_overridden(),
        "bounded space must be exhausted"
    );
    assert!(
        fallbacks.load(StdOrdering::Relaxed) > 0 || solero_mc::budget_overridden(),
        "exploration must cover at least one retry-exhausted fallback"
    );
}

/// A writer, a reader pushed into the retry-exhausted fallback and an
/// elided reader on one SOLERO word. The fallback is a held read, so
/// its release republishes the counter it found, and an elided reader
/// whose exit finds it held waits it out and may still validate; the
/// writer's release advances the counter, so every reader its section
/// overlaps still fails. On every schedule: no validated torn pair,
/// both taxonomy invariants, and a final word of the start plus one
/// step per write section and one per inflation, and nothing per read.
///
/// Coverage is a flag local to this scenario, raised by an execution
/// in which the checker's marker (`solero::mutation::take_exit_waited`)
/// shows an exit wait validated: the elided reader's exit re-read found
/// the word held over its captured value, and the wait saw the word
/// come back unchanged. Only a read holder can do that, since a
/// writer's release moves the counter.
#[test]
fn held_reads_keep_the_counter_and_are_waited_out() {
    let waited = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let seen = Arc::clone(&waited);
    // Validating through the exit wait takes three preemptions: into
    // the holder for its acquisition, back to the reader for its exit
    // re-read, into the holder for its release. DPOR at a bound of
    // three drained without reaching it; four reaches it and drains in
    // about 39k executions.
    let stats = Checker::dpor()
        .preemption_bound(Some(4))
        .max_steps(300)
        .check("held_read_exit_wait", move || {
            let heap = Arc::new(Heap::new(64));
            let obj = alloc_pair(&heap);
            let lock = Arc::new(SoleroLock::with_config(mc_config()));
            let start = lock.raw_word().raw();
            solero::mutation::take_exit_waited();

            let writer = {
                let (heap, lock) = (Arc::clone(&heap), Arc::clone(&lock));
                spawn(move || {
                    lock.write(|| {
                        let a = heap.load(obj, PAIR, 0).unwrap();
                        heap.store(obj, 0, a + 1).unwrap();
                        heap.store(obj, 1, a + 1).unwrap();
                    });
                })
            };
            // Its first speculative attempt reports an inconsistency,
            // as a failed check-point does, and `fallback_threshold`
            // of 1 sends the retry to acquisition.
            let fallback = {
                let (heap, lock) = (Arc::clone(&heap), Arc::clone(&lock));
                spawn(move || {
                    let mut pushed = false;
                    let pair = lock
                        .read_only(|s| {
                            if s.is_speculative() && !pushed {
                                pushed = true;
                                return Err(Fault::Inconsistent);
                            }
                            let a = heap.load(obj, PAIR, 0)?;
                            let b = heap.load(obj, PAIR, 1)?;
                            Ok::<_, Fault>((a, b))
                        })
                        .expect("no genuine faults in this scenario");
                    assert_eq!(pair.0, pair.1, "torn read under the lock {pair:?}");
                })
            };
            let elided = {
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
            fallback.join();
            elided.join();
            // Only the elided reader validates speculatively: the
            // fallback's one speculative attempt faults.
            if solero::mutation::take_exit_waited() {
                seen.store(true, StdOrdering::Relaxed);
            }

            assert!(!lock.is_locked(), "every section released");
            let end = lock.raw_word();
            assert!(!end.is_inflated(), "uncontended exit deflates");
            let s = lock.stats().snapshot();
            assert_eq!(s.read_aborts, s.abort_reason_sum(), "{s:?}");
            assert_eq!(s.fallback_acquires, s.abort_retry_exhausted, "{s:?}");
            let expected = start.wrapping_add((1 + s.inflations) * COUNTER_STEP);
            assert_eq!(
                end.raw(),
                expected,
                "one step for the write section and one per inflation, none \
                 per read (start {start:#x}, end {:#x}, {} inflations)",
                end.raw(),
                s.inflations
            );
        })
        .expect("held reads must never let a torn read validate");
    assert!(
        stats.complete || solero_mc::budget_overridden(),
        "bounded space must be exhausted"
    );
    assert!(
        waited.load(StdOrdering::Relaxed) || solero_mc::budget_overridden(),
        "exploration must validate an elided read through the exit wait"
    );
}

/// Inflation under contention never loses a pending writer and never
/// strands an elided reader: 2 writers + 1 reader, seeded random
/// sampling of deeper interleavings than the exhaustive pass covers.
#[test]
fn inflation_loses_no_thread() {
    let stats = Checker::random(0x5EED_0003, 300)
        .check("inflation", || {
            let heap = Arc::new(Heap::new(64));
            let obj = alloc_pair(&heap);
            let lock = Arc::new(SoleroLock::with_config(mc_config()));

            let writers: Vec<_> = (0..2)
                .map(|_| {
                    let (heap, lock) = (Arc::clone(&heap), Arc::clone(&lock));
                    spawn(move || {
                        lock.write(|| {
                            let a = heap.load(obj, PAIR, 0).unwrap();
                            heap.store(obj, 0, a + 1).unwrap();
                            heap.store(obj, 1, a + 1).unwrap();
                        });
                    })
                })
                .collect();
            let reader = {
                let (heap, lock) = (Arc::clone(&heap), Arc::clone(&lock));
                spawn(move || {
                    let pair = lock
                        .read_only(|_| {
                            let a = heap.load(obj, PAIR, 0)?;
                            let b = heap.load(obj, PAIR, 1)?;
                            Ok::<_, Fault>((a, b))
                        })
                        .expect("reader completes despite inflation");
                    assert_eq!(pair.0, pair.1, "torn {pair:?}");
                })
            };
            for w in writers {
                w.join();
            }
            reader.join();

            assert!(!lock.is_locked(), "no stranded owner after teardown");
            let a = heap.load(obj, PAIR, 0).unwrap();
            let b = heap.load(obj, PAIR, 1).unwrap();
            assert_eq!((a, b), (12, 12), "both write sections applied");
            let s = lock.stats().snapshot();
            assert_eq!(s.read_aborts, s.abort_reason_sum(), "{s:?}");
        })
        .expect("no schedule strands a writer or reader across inflation");
    assert!(
        stats.executions == 300 || solero_mc::budget_overridden(),
        "all 300 sampled schedules ran, got {}",
        stats.executions
    );
}

/// Tasuki baseline: write sections are mutually exclusive. The
/// load-then-store increment below is exactly the smoke-test race, now
/// protected by the lock under check. The lock runs the SOLERO protocol
/// with a zero counter step, so on every schedule — FLC and inflation
/// included — the word it leaves behind is zero.
#[test]
fn tasuki_write_sections_exclude() {
    use solero::TasukiLock;
    use solero_runtime::thread::ThreadId;
    use solero_sync::atomic::{AtomicU64, Ordering};

    let stats = Checker::exhaustive()
        .check("tasuki_exclusion", || {
            let lock = Arc::new(TasukiLock::new());
            let c = Arc::new(AtomicU64::new(0));
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let (lock, c) = (Arc::clone(&lock), Arc::clone(&c));
                    spawn(move || {
                        let tid = ThreadId::current();
                        lock.enter(tid);
                        let v = c.load(Ordering::Relaxed);
                        c.store(v + 1, Ordering::Relaxed);
                        lock.exit(tid);
                    })
                })
                .collect();
            for h in hs {
                h.join();
            }
            assert!(!lock.is_locked());
            assert_eq!(c.load(Ordering::SeqCst), 2, "lost update under tasuki");
            assert_eq!(
                lock.raw_word(),
                CompactWord::INIT,
                "a free tasuki word is zero"
            );
        })
        .expect("tasuki write sections are mutually exclusive");
    assert!(
        stats.complete || solero_mc::budget_overridden(),
        "bounded space must be exhausted"
    );
}

/// RWLock baseline: a writer excludes a reader, so the reader sees the
/// pair before or after the writer's two stores — never between.
#[test]
fn rwlock_reader_never_torn() {
    use solero_rwlock::{JavaRwLock, RawRwLock};
    use solero_sync::atomic::{AtomicU64, Ordering};

    let stats = Checker::exhaustive()
        .preemption_bound(Some(3))
        .check("rwlock_snapshot", || {
            let rw = Arc::new(JavaRwLock::new());
            let a = Arc::new(AtomicU64::new(10));
            let b = Arc::new(AtomicU64::new(10));

            let writer = {
                let (rw, a, b) = (Arc::clone(&rw), Arc::clone(&a), Arc::clone(&b));
                spawn(move || {
                    let g = rw.write();
                    a.store(11, Ordering::Relaxed);
                    b.store(11, Ordering::Relaxed);
                    drop(g);
                })
            };
            let reader = {
                let (rw, a, b) = (Arc::clone(&rw), Arc::clone(&a), Arc::clone(&b));
                spawn(move || {
                    let g = rw.read();
                    let (ra, rb) = (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed));
                    drop(g);
                    // Asserted outside the section: unwinding here must
                    // not run lock releases against the model.
                    assert_eq!(ra, rb, "rwlock reader saw a torn pair");
                })
            };
            writer.join();
            reader.join();
        })
        .expect("rwlock write/read sections must not overlap");
    assert!(
        stats.complete || solero_mc::budget_overridden(),
        "bounded space must be exhausted"
    );
}
