//! The lock-event model: what happened, on which lock, when.
//!
//! Events are deliberately small (four machine words) and `Copy` so a
//! ring-buffer push is a handful of stores. Reason codes mirror the
//! failure modes of the SOLERO read-elision protocol; the per-reason
//! counters in `solero-runtime`'s `StatsSnapshot` use the same taxonomy
//! (by name), so counter-based breakdowns and event traces agree.

use std::sync::OnceLock;
use std::time::Instant;

/// Why a speculative read-only attempt aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// The lock word was busy at entry — speculation never started and
    /// the reader waited (spin tiers) for the word to free up.
    LockedAtEntry,
    /// Exit (or catch-block) validation found the captured lock value
    /// changed: a writer ran during the section.
    WordChangedAtExit,
    /// An asynchronous-event check-point re-validated mid-section and
    /// found the captured value stale.
    AsyncRevalidationFail,
    /// The retry budget was exhausted; the section fell back to really
    /// acquiring the lock.
    RetryExhaustedFallback,
    /// The lock inflated (fat mode) — the reader had to go through the
    /// OS monitor instead of speculating.
    Inflation,
}

impl AbortReason {
    /// All reasons, in a stable reporting order.
    pub const ALL: [AbortReason; 5] = [
        AbortReason::LockedAtEntry,
        AbortReason::WordChangedAtExit,
        AbortReason::AsyncRevalidationFail,
        AbortReason::RetryExhaustedFallback,
        AbortReason::Inflation,
    ];

    /// The reason's position in [`AbortReason::ALL`] — the canonical
    /// dense index used by per-class counter arrays.
    pub fn index(self) -> usize {
        match self {
            AbortReason::LockedAtEntry => 0,
            AbortReason::WordChangedAtExit => 1,
            AbortReason::AsyncRevalidationFail => 2,
            AbortReason::RetryExhaustedFallback => 3,
            AbortReason::Inflation => 4,
        }
    }

    /// Stable machine-readable name (used in JSONL and report output,
    /// and matching the `abort_*` counter names in `StatsSnapshot`).
    pub fn name(self) -> &'static str {
        match self {
            AbortReason::LockedAtEntry => "locked_at_entry",
            AbortReason::WordChangedAtExit => "word_changed_at_exit",
            AbortReason::AsyncRevalidationFail => "async_revalidation_fail",
            AbortReason::RetryExhaustedFallback => "retry_exhausted_fallback",
            AbortReason::Inflation => "inflation",
        }
    }
}

/// What a [`LockEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A read-only section started a speculative (elided) attempt.
    ElisionAttempt,
    /// A speculative attempt aborted, with the reason.
    Abort(AbortReason),
    /// A writing section acquired the lock.
    WriteAcquire,
    /// A writing section released the lock.
    WriteRelease,
    /// A read section acquired the lock (lock-based strategies).
    ReadAcquire,
    /// A lock-based section released the lock.
    Release,
    /// A read-only section gave up on speculation and really acquired
    /// the lock (the starvation-freedom fallback).
    FallbackAcquire,
    /// A read-mostly section upgraded in place to holding the lock.
    MostlyUpgrade,
}

impl EventKind {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::ElisionAttempt => "elision_attempt",
            EventKind::Abort(_) => "abort",
            EventKind::WriteAcquire => "write_acquire",
            EventKind::WriteRelease => "write_release",
            EventKind::ReadAcquire => "read_acquire",
            EventKind::Release => "release",
            EventKind::FallbackAcquire => "fallback_acquire",
            EventKind::MostlyUpgrade => "mostly_upgrade",
        }
    }
}

/// One recorded lock event.
#[derive(Debug, Clone, Copy)]
pub struct LockEvent {
    /// Monotonic timestamp, nanoseconds since the process anchor.
    pub ts_ns: u64,
    /// Recording thread (the runtime's dense thread id).
    pub thread: u64,
    /// Lock identity (the lock's stable address-derived key).
    pub lock: u64,
    /// What happened.
    pub kind: EventKind,
}

impl LockEvent {
    /// An event stamped with the current monotonic time. The thread id
    /// is filled in by the recorder when the event is ring-buffered.
    pub fn now(lock: u64, kind: EventKind) -> Self {
        LockEvent {
            ts_ns: now_ns(),
            thread: 0,
            lock,
            kind,
        }
    }
}

/// Nanoseconds since the process-wide monotonic anchor (first use).
pub fn now_ns() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reason_names_are_distinct() {
        for (i, a) in AbortReason::ALL.iter().enumerate() {
            for b in &AbortReason::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }

    #[test]
    fn index_matches_all_order() {
        for (i, reason) in AbortReason::ALL.into_iter().enumerate() {
            assert_eq!(reason.index(), i, "{}", reason.name());
        }
    }

    #[test]
    fn timestamps_are_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn event_carries_its_kind() {
        let e = LockEvent::now(7, EventKind::Abort(AbortReason::Inflation));
        assert_eq!(e.lock, 7);
        assert_eq!(e.kind.name(), "abort");
    }
}
