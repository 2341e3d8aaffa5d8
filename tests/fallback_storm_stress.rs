//! Fallback-storm stress for the inline seqlock's contended writer.
//!
//! Every thread is both a writer (CAS-competing on the sequence word)
//! and a reader whose speculation the other writers keep invalidating,
//! so the retry-exhausted fallback and the slow write path — the two
//! paths that probe on the spin tiers — carry essentially all the
//! traffic. The testkit watchdog turns a livelock into an abort, so
//! *completion itself* is the starvation-freedom assertion; on top of
//! that every write must land once and the abort taxonomy must
//! balance.
//!
//! Seeds are pinned: scripts/ci.sh replays this test under the
//! SOLERO_TESTKIT_SEED matrix, and `seed_override` makes any failure
//! reproducible byte-for-byte.

use std::sync::atomic::{AtomicU64, Ordering};

use solero::{SeqLock, SoleroConfig};
use solero_runtime::spin::SpinConfig;
use solero_testkit::{seed_override, stress, StressConfig};

const THREADS: usize = 6;
const OPS: usize = 2_000;

/// Tiers small enough that the storm exhausts them (exercising the
/// slow writer's re-entry loop) instead of hiding inside one long
/// probe sequence.
fn storm_config() -> SpinConfig {
    SpinConfig {
        tier1: 8,
        tier2: 2,
        tier3: 2,
    }
}

/// Every thread alternates torn-pair-sensitive reads with writes that
/// keep the pair coupled; nobody may starve and the books must balance.
#[test]
fn fallback_storm_sustains_progress() {
    let lock = SeqLock::with_config(
        SoleroConfig::builder().spin(storm_config()).build(),
        [0u64; 2],
    );
    let completed = AtomicU64::new(0);
    let writes = AtomicU64::new(0);
    let reads = AtomicU64::new(0);

    stress(
        "seqlock-fallback-storm",
        &StressConfig::new(THREADS, 1, seed_override(0x5704_4A11)),
        |w| {
            let mut my_writes = 0u64;
            let mut my_reads = 0u64;
            for _ in 0..OPS {
                if w.rng.gen_range(0u32..4) == 0 {
                    lock.update_inline(|v| {
                        v[0] += 1;
                        v[1] += 1;
                    });
                    my_writes += 1;
                } else {
                    let [a, b] = lock.read_inline();
                    assert_eq!(a, b, "storm read observed a torn pair");
                    my_reads += 1;
                }
            }
            writes.fetch_add(my_writes, Ordering::Relaxed);
            reads.fetch_add(my_reads, Ordering::Relaxed);
            completed.fetch_add(1, Ordering::Relaxed);
        },
    );

    assert_eq!(
        completed.load(Ordering::Relaxed),
        THREADS as u64,
        "every thread survived the storm (watchdog would abort a livelock)"
    );
    let total_writes = writes.load(Ordering::Relaxed);
    assert_eq!(
        lock.read_inline(),
        [total_writes, total_writes],
        "every write landed exactly once"
    );
    let s = lock.stats().snapshot();
    assert_eq!(s.write_enters, total_writes, "{s:?}");
    // +1 for the verification read above.
    assert_eq!(s.read_enters, reads.load(Ordering::Relaxed) + 1, "{s:?}");
    assert_eq!(s.read_aborts, s.abort_reason_sum(), "taxonomy balances: {s:?}");
    assert_eq!(
        s.fallback_acquires, s.abort_retry_exhausted,
        "every fallback is booked exactly once: {s:?}"
    );
    assert_eq!(
        s.elision_success + s.fallback_acquires,
        s.read_enters,
        "every typed read completes exactly one way: {s:?}"
    );
    assert_eq!(lock.raw_seq() & 1, 0, "the storm must end released");
}
