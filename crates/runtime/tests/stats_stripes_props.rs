//! Property test for the striped read counters: however many threads
//! book at once, each on a stripe it owns or, once the owned stripes
//! are taken, on the shared overflow stripe, a snapshot after the join
//! counts every booking of every counter, and a reset zeroes them all.

use std::sync::atomic::Ordering;
use std::sync::Barrier;

use solero_runtime::stats::{LockStats, StatsSnapshot, READ_STRIPES};
use solero_testkit::{forall, TestRng};

/// What one thread books: a small count of every counter.
fn gen_bookings(r: &mut TestRng) -> StatsSnapshot {
    let mut n = || r.gen_range(0u64..300);
    StatsSnapshot {
        write_enters: n(),
        write_fast: n(),
        recursive_enters: n(),
        read_enters: n(),
        elision_success: n(),
        elision_failure: n(),
        fallback_acquires: n(),
        read_slow_enters: n(),
        inflations: n(),
        deflations: n(),
        flc_waits: n(),
        monitor_enters: n(),
        async_validations: n(),
        speculative_faults: n(),
        mostly_upgrades: n(),
        read_aborts: n(),
        abort_locked_at_entry: n(),
        abort_word_changed_at_exit: n(),
        abort_async_revalidation: n(),
        abort_retry_exhausted: n(),
        abort_inflation: n(),
        policy_skips: n(),
        policy_disables: n(),
        policy_rearms: n(),
        bias_revocations: n(),
        bias_rebiases: n(),
        contention_backoffs: n(),
    }
}

/// Books `b` on `stats`: each striped counter one `note_*` call at a
/// time, each shared one with a single `fetch_add`. The destructuring
/// is exhaustive, so a new counter fails to compile here until it is
/// booked.
fn book(stats: &LockStats, b: &StatsSnapshot) {
    let StatsSnapshot {
        write_enters,
        write_fast,
        recursive_enters,
        read_enters,
        elision_success,
        elision_failure,
        fallback_acquires,
        read_slow_enters,
        inflations,
        deflations,
        flc_waits,
        monitor_enters,
        async_validations,
        speculative_faults,
        mostly_upgrades,
        read_aborts,
        abort_locked_at_entry,
        abort_word_changed_at_exit,
        abort_async_revalidation,
        abort_retry_exhausted,
        abort_inflation,
        policy_skips,
        policy_disables,
        policy_rearms,
        bias_revocations,
        bias_rebiases,
        contention_backoffs,
    } = *b;
    for _ in 0..read_enters {
        stats.note_read_enter();
    }
    for _ in 0..elision_success {
        stats.note_elided();
    }
    for _ in 0..async_validations {
        stats.note_async_validation();
    }
    for (counter, n) in [
        (&stats.write_enters, write_enters),
        (&stats.write_fast, write_fast),
        (&stats.recursive_enters, recursive_enters),
        (&stats.elision_failure, elision_failure),
        (&stats.fallback_acquires, fallback_acquires),
        (&stats.read_slow_enters, read_slow_enters),
        (&stats.inflations, inflations),
        (&stats.deflations, deflations),
        (&stats.flc_waits, flc_waits),
        (&stats.monitor_enters, monitor_enters),
        (&stats.speculative_faults, speculative_faults),
        (&stats.mostly_upgrades, mostly_upgrades),
        (&stats.read_aborts, read_aborts),
        (&stats.abort_locked_at_entry, abort_locked_at_entry),
        (
            &stats.abort_word_changed_at_exit,
            abort_word_changed_at_exit,
        ),
        (&stats.abort_async_revalidation, abort_async_revalidation),
        (&stats.abort_retry_exhausted, abort_retry_exhausted),
        (&stats.abort_inflation, abort_inflation),
        (&stats.policy_skips, policy_skips),
        (&stats.policy_disables, policy_disables),
        (&stats.policy_rearms, policy_rearms),
        (&stats.bias_revocations, bias_revocations),
        (&stats.bias_rebiases, bias_rebiases),
        (&stats.contention_backoffs, contention_backoffs),
    ] {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

#[test]
fn snapshot_counts_every_booking_across_stripes() {
    forall(48, 0x57A7_0101, |g| {
        // Up to three times as many threads as stripes. They book
        // together and exit together, so every claim is live while any
        // thread books, and the threads past the owned stripes race on
        // the overflow stripe.
        let bookings = g.vec(1, 3 * READ_STRIPES + 1, gen_bookings);
        let stats = LockStats::default();
        let (start, end) = (Barrier::new(bookings.len()), Barrier::new(bookings.len()));
        std::thread::scope(|s| {
            for b in &bookings {
                let (stats, start, end) = (&stats, &start, &end);
                s.spawn(move || {
                    start.wait();
                    book(stats, b);
                    end.wait();
                });
            }
        });
        let booked = bookings
            .iter()
            .fold(StatsSnapshot::default(), |sum, b| sum.merge(b));
        assert_eq!(stats.snapshot(), booked, "{} threads", bookings.len());
        stats.reset();
        assert_eq!(stats.snapshot(), StatsSnapshot::default());
    });
}
