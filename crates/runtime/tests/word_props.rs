//! Property tests for the lock-word layout: every state the protocols
//! can produce must decode back to itself, and the state predicates
//! must be mutually exclusive in the ways the fast paths rely on.

use solero_runtime::thread::ThreadId;
use solero_runtime::word::{
    CompactWord, COMPACT_CTR_MAX, COMPACT_CTR_STEP, COMPACT_TID_MAX, FIELD_MAX, LOCK_BIT,
    SOLERO_RECURSION_MAX,
};
use solero_testkit::{forall, TestRng};

/// A thread id that fits the SOLERO word's 20-bit tid field.
fn gen_compact_tid(rng: &mut TestRng) -> ThreadId {
    ThreadId::from_raw(rng.gen_range(1u64..=COMPACT_TID_MAX)).unwrap()
}

#[test]
fn compact_state_predicates_are_exclusive() {
    forall(256, 0xC0_4D_03, |g| {
        let tid = gen_compact_tid(g.rng());
        let counter = g.gen_range(0u64..=COMPACT_CTR_MAX);
        let monitor = g.gen_range(1u64..=FIELD_MAX);
        let rec = g.gen_range(0u64..=SOLERO_RECURSION_MAX);

        let free = CompactWord::with_counter(counter);
        let mut held = CompactWord::held_by(free, tid);
        for _ in 0..rec {
            held = held.recurse();
        }
        let fat = CompactWord::inflated(monitor);

        // Exactly one of the three states per word.
        assert!(free.is_elidable() && !free.is_held_flat() && !free.is_inflated());
        assert!(!held.is_elidable() && held.is_held_flat() && !held.is_inflated());
        assert!(!fat.is_elidable() && fat.is_inflated());

        // Decoding.
        assert_eq!(free.counter(), Some(counter));
        assert_eq!(held.tid(), Some(tid));
        assert_eq!(held.recursion(), rec);
        assert_eq!(fat.monitor_id(), Some(monitor));

        // Fast release iff held with recursion 0 and clear flags.
        assert_eq!(held.fast_releasable(), rec == 0);
        assert!(!free.fast_releasable());
        assert!(!fat.fast_releasable());

        // Monitor escalation: only FLC/inflation demand it.
        assert!(!free.needs_monitor());
        assert!(!held.needs_monitor());
        assert!(fat.needs_monitor());
        assert!(held.with_flc().needs_monitor());
    });
}

#[test]
fn compact_release_always_changes_the_word() {
    forall(256, 0xC0_4D_04, |g| {
        let tid = gen_compact_tid(g.rng());
        let counter = g.gen_range(0u64..=COMPACT_CTR_MAX);
        // The elision protocol's core invariant: a write section's
        // release never republishes the pre-acquisition word.
        let v1 = CompactWord::with_counter(counter);
        let released = CompactWord::held_by(v1, tid).release_word(COMPACT_CTR_STEP);
        assert_ne!(released, v1);
        assert!(released.is_elidable(), "released word is free again");
    });
}

#[test]
fn compact_counter_chain_never_repeats_within_field_range() {
    forall(64, 0xC0_4D_05, |g| {
        let tid = gen_compact_tid(g.rng());
        let start = g.gen_range(0u64..=COMPACT_CTR_MAX - 1000);
        let steps = g.size(1, 1000);
        // Successive write sections produce pairwise distinct counter
        // words as long as the 36-bit counter does not wrap.
        let mut w = CompactWord::with_counter(start);
        let first = w;
        for _ in 0..steps {
            let next = CompactWord::held_by(w, tid).release_word(COMPACT_CTR_STEP);
            assert_ne!(next, w);
            assert_ne!(next, first);
            w = next;
        }
        assert_eq!(w.counter(), Some(start + steps as u64));
    });
}

#[test]
fn compact_zero_step_release_frees_the_conventional_word_to_init() {
    forall(256, 0xC0_4D_07, |g| {
        let tid = gen_compact_tid(g.rng());
        let counter = g.gen_range(0u64..=COMPACT_CTR_MAX);
        // The conventional lock's release (Figure 2) adds nothing: its
        // counter never leaves zero, so every free word it publishes,
        // from a held word or a free-with-FLC one, is the initial word.
        let held = CompactWord::held_by(CompactWord::INIT, tid);
        assert_eq!(held.release_word(0), CompactWord::INIT);
        assert_eq!(
            CompactWord::INIT.with_flc().release_word(0),
            CompactWord::INIT
        );
        // In general a zero step keeps the counter and drops the rest.
        let w = CompactWord::held_by(CompactWord::with_counter(counter), tid);
        assert_eq!(w.release_word(0), CompactWord::with_counter(counter));
    });
}

#[test]
fn compact_held_word_encodes_counter_tid_and_lock_bit() {
    forall(256, 0xC0_4D_06, |g| {
        let tid = gen_compact_tid(g.rng());
        let counter = g.gen_range(0u64..=COMPACT_CTR_MAX);
        // Figure 6 line 4's `thread_id + LOCK_BIT`, beside the counter.
        let w = CompactWord::held_by(CompactWord::with_counter(counter), tid);
        assert_eq!(w.raw(), counter << 28 | tid.as_u64() << 8 | LOCK_BIT);
    });
}
