//! The abort-reason taxonomy behind Figure 15.
//!
//! Reason codes mirror the failure modes of the SOLERO read-elision
//! protocol. `solero-runtime`'s `LockStats` books one `abort_*` counter
//! per reason, and the adaptive policy keeps one retry budget per
//! reason, both indexed by [`AbortReason::index`].

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

    /// Stable machine-readable name (used in report output, and
    /// matching the `abort_*` counter names in `StatsSnapshot`).
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
}
