//! Adaptive per-lock elision policy.
//!
//! The five-reason abort taxonomy (`solero-obs`) classifies every
//! failed speculation, but the base protocol never *consults* that
//! history: elision keeps firing into write bursts exactly when the
//! paper says it loses. This module closes the loop with a ck_elide-
//! style state machine (per-abort-class `{retry, skip}` budgets with a
//! forfeit counter) crossed with failure-history-keyed geometric
//! escalation (Dice/Hendler/Mirsky, arXiv 1305.5800):
//!
//! * every abort of class *c* drains that class's **retry budget**;
//! * when a budget hits zero the lock **forfeits** elision: the next
//!   `skip[c] << penalty[c]` read sections go straight to real
//!   acquisition (no speculation, no aborts, no lock-word churn);
//! * each forfeit **escalates** the class's penalty (capped), so a
//!   persistently hostile phase backs off geometrically;
//! * `rearm_period` consecutive successful elisions **decay** one
//!   penalty level and refill every budget, so a lock that goes quiet
//!   converges back to always-elide.
//!
//! The state machine lives in one cache-padded block of plain
//! `std::sync::atomic` counters. That choice is deliberate twice over:
//! the counters stay off the lock word's contended line, and — like
//! `LockStats` — they are *not* interposable `solero-sync` atomics, so
//! under `--cfg solero_mc` they are not scheduling points and the
//! policy adds control-flow variety to model-checked schedules without
//! exploding the state space (only one vthread runs at a time, so
//! relaxed counter races cannot occur under the checker).

use std::sync::atomic::{AtomicU32, Ordering};

use solero_obs::ring::CachePadded;
use solero_obs::AbortReason;

/// Number of abort taxonomy classes ([`AbortReason::ALL`]).
const CLASSES: usize = 5;
/// Hard cap on penalty levels: `skip << 16` already dwarfs any real
/// forfeit window, and capping keeps the shift well-defined.
const PENALTY_HARD_CAP: u32 = 16;

/// Per-abort-class budgets for [`AdaptivePolicy`], indexed by
/// [`AbortReason::index`] (so position 0 is `locked_at_entry`, …,
/// position 4 is `inflation`).
///
/// `Copy + Eq` on purpose: the budgets ride inside
/// [`SoleroConfig`](crate::SoleroConfig), which stays a plain value
/// type.
///
/// # Examples
///
/// ```
/// use solero::AdaptiveBudgets;
///
/// let b = AdaptiveBudgets::default();
/// // The busy-at-entry class mirrors ck_elide's busy budgets.
/// assert_eq!((b.retry[0], b.skip[0]), (6, 2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveBudgets {
    /// Aborts of each class tolerated (since the last refill) before
    /// elision is forfeited. Values are clamped to at least 1 in use.
    pub retry: [u32; 5],
    /// Base forfeit window per class: sections sent to real acquisition
    /// after that class's budget empties, before escalation. Clamped to
    /// at least 1 in use.
    pub skip: [u32; 5],
    /// Escalation cap: each forfeit of a class doubles its window up to
    /// `skip << max_penalty` (itself capped at 16 doublings).
    pub max_penalty: u32,
    /// Consecutive successful elisions that decay one penalty level and
    /// refill every retry budget. Clamped to at least 1 in use.
    pub rearm_period: u32,
}

impl Default for AdaptiveBudgets {
    /// Defaults patterned on ck_elide's (`skip_busy=2, retry_busy=6,
    /// skip_conflict=2, retry_conflict=5`), extended to the five-way
    /// SOLERO taxonomy — see DESIGN.md §10 for the rationale behind
    /// each divergence.
    fn default() -> Self {
        AdaptiveBudgets {
            //       entry  exit  async  fallback  inflation
            retry: [6, 5, 5, 2, 1],
            skip: [2, 2, 2, 4, 8],
            max_penalty: 4,
            rearm_period: 8,
        }
    }
}

impl AdaptiveBudgets {
    /// The smallest live configuration: every class forfeits after one
    /// abort, every forfeit skips exactly one section, no escalation,
    /// one success re-arms. Every policy transition is reachable within
    /// a handful of sections — the configuration the model-checker
    /// scenarios use.
    pub fn minimal() -> Self {
        AdaptiveBudgets {
            retry: [1; 5],
            skip: [1; 5],
            max_penalty: 0,
            rearm_period: 1,
        }
    }

    fn eff_retry(&self, class: usize) -> u32 {
        self.retry[class].max(1)
    }

    fn eff_skip(&self, class: usize) -> u32 {
        self.skip[class].max(1)
    }

    fn eff_penalty_cap(&self) -> u32 {
        self.max_penalty.min(PENALTY_HARD_CAP)
    }

    fn eff_rearm(&self) -> u32 {
        self.rearm_period.max(1)
    }

    /// The largest forfeit value any single budget exhaustion can set:
    /// `max(skip) << max_penalty`. After the last abort, at most this
    /// many section entries acquire before elision re-arms.
    pub fn max_forfeit(&self) -> u32 {
        let skip = (0..CLASSES).map(|c| self.eff_skip(c)).max().unwrap_or(1);
        shl_sat(skip, self.eff_penalty_cap())
    }
}

/// `v << s`, saturating at `u32::MAX` when high bits would be lost.
fn shl_sat(v: u32, s: u32) -> u32 {
    if s > v.leading_zeros() {
        u32::MAX
    } else {
        v << s
    }
}

/// What [`AdaptivePolicy::on_entry`] told the section to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryDecision {
    /// Speculate as usual.
    Elide,
    /// Elision is forfeited: acquire the lock for this section.
    Acquire {
        /// True when this entry drained the forfeit counter to zero —
        /// the *next* section speculates again (the re-arm edge, worth
        /// one `policy_rearms` tick).
        rearmed: bool,
    },
}

/// A point-in-time copy of the policy state, for tests and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyProbe {
    /// Sections still to be sent to real acquisition.
    pub forfeit: u32,
    /// Remaining per-class retry budgets.
    pub retry_left: [u32; 5],
    /// Current per-class penalty levels.
    pub penalty: [u32; 5],
    /// Successful elisions since the last abort or re-arm tick.
    pub successes: u32,
}

#[derive(Debug)]
struct PolicyState {
    forfeit: AtomicU32,
    retry_left: [AtomicU32; CLASSES],
    penalty: [AtomicU32; CLASSES],
    successes: AtomicU32,
}

/// The per-lock adaptive decision state machine. See the module docs
/// for the transition rules and DESIGN.md §10 for the diagram.
///
/// All methods are lock-free and relaxed; the policy is advisory
/// control flow, never synchronization.
#[derive(Debug)]
pub struct AdaptivePolicy {
    budgets: AdaptiveBudgets,
    state: CachePadded<PolicyState>,
}

impl AdaptivePolicy {
    /// A fresh policy: elision enabled, budgets full, penalties zero.
    pub fn new(budgets: AdaptiveBudgets) -> Self {
        let retry_left = std::array::from_fn(|c| AtomicU32::new(budgets.eff_retry(c)));
        AdaptivePolicy {
            budgets,
            state: CachePadded(PolicyState {
                forfeit: AtomicU32::new(0),
                retry_left,
                penalty: std::array::from_fn(|_| AtomicU32::new(0)),
                successes: AtomicU32::new(0),
            }),
        }
    }

    /// The configured budgets.
    pub fn budgets(&self) -> &AdaptiveBudgets {
        &self.budgets
    }

    /// Decides this section entry: elide, or burn one forfeited entry
    /// and acquire. The zero-forfeit fast path is a single relaxed
    /// load.
    #[inline]
    pub fn on_entry(&self) -> EntryDecision {
        let st = &self.state.0;
        if st.forfeit.load(Ordering::Relaxed) == 0 {
            return EntryDecision::Elide;
        }
        match st
            .forfeit
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
        {
            Ok(prev) => EntryDecision::Acquire { rearmed: prev == 1 },
            // Lost the race to the last forfeited entry: elide.
            Err(_) => EntryDecision::Elide,
        }
    }

    /// Records one classified abort. Returns `true` when this abort
    /// forfeited elision *while it was enabled* (the disable edge,
    /// worth one `policy_disables` tick).
    pub fn on_abort(&self, reason: AbortReason) -> bool {
        let st = &self.state.0;
        let c = reason.index();
        st.successes.store(0, Ordering::Relaxed);
        let drained = st.retry_left[c]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
        // Only the thread that took the budget from 1 to 0 forfeits;
        // an already-empty budget means a racing thread is mid-forfeit.
        if drained != Ok(1) {
            return false;
        }
        let p = st.penalty[c].load(Ordering::Relaxed);
        let window = shl_sat(
            self.budgets.eff_skip(c),
            p.min(self.budgets.eff_penalty_cap()),
        );
        st.penalty[c].store(
            (p + 1).min(self.budgets.eff_penalty_cap()),
            Ordering::Relaxed,
        );
        // Refill so the next burst is measured afresh once we re-arm.
        st.retry_left[c].store(self.budgets.eff_retry(c), Ordering::Relaxed);
        // Extend (never shorten) the forfeit window.
        st.forfeit.fetch_max(window, Ordering::Relaxed) == 0
    }

    /// Records one successful elision. Returns `true` on a re-arm tick:
    /// `rearm_period` consecutive successes elapsed, one penalty level
    /// decayed everywhere and every budget refilled.
    #[inline]
    pub fn on_elided(&self) -> bool {
        let st = &self.state.0;
        let s = st.successes.fetch_add(1, Ordering::Relaxed) + 1;
        if s < self.budgets.eff_rearm() {
            return false;
        }
        st.successes.store(0, Ordering::Relaxed);
        for c in 0..CLASSES {
            let _ = st.penalty[c]
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |p| Some(p.saturating_sub(1)));
            st.retry_left[c].store(self.budgets.eff_retry(c), Ordering::Relaxed);
        }
        true
    }

    /// A snapshot of the live state.
    pub fn probe(&self) -> PolicyProbe {
        let st = &self.state.0;
        PolicyProbe {
            forfeit: st.forfeit.load(Ordering::Relaxed),
            retry_left: std::array::from_fn(|c| st.retry_left[c].load(Ordering::Relaxed)),
            penalty: std::array::from_fn(|c| st.penalty[c].load(Ordering::Relaxed)),
            successes: st.successes.load(Ordering::Relaxed),
        }
    }

    /// See [`AdaptiveBudgets::max_forfeit`].
    pub fn max_forfeit(&self) -> u32 {
        self.budgets.max_forfeit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(p: &AdaptivePolicy) -> u32 {
        let mut skipped = 0;
        loop {
            match p.on_entry() {
                EntryDecision::Elide => return skipped,
                EntryDecision::Acquire { rearmed } => {
                    skipped += 1;
                    if rearmed {
                        assert_eq!(p.probe().forfeit, 0);
                    }
                }
            }
        }
    }

    #[test]
    fn fresh_policy_always_elides() {
        let p = AdaptivePolicy::new(AdaptiveBudgets::default());
        for _ in 0..100 {
            assert_eq!(p.on_entry(), EntryDecision::Elide);
        }
        assert_eq!(p.probe().forfeit, 0);
    }

    #[test]
    fn budget_exhaustion_forfeits_exactly_skip_sections() {
        let p = AdaptivePolicy::new(AdaptiveBudgets::default());
        let b = *p.budgets();
        // retry[1] - 1 aborts: still armed.
        let mut disabled = false;
        for _ in 0..b.retry[1] {
            disabled |= p.on_abort(AbortReason::WordChangedAtExit);
        }
        assert!(disabled, "the last abort of the budget must disable");
        assert_eq!(p.probe().forfeit, b.skip[1], "base window, no escalation yet");
        assert_eq!(drain(&p), b.skip[1]);
        assert_eq!(p.on_entry(), EntryDecision::Elide, "re-armed after the window");
    }

    #[test]
    fn repeated_forfeits_escalate_geometrically_up_to_cap() {
        let p = AdaptivePolicy::new(AdaptiveBudgets::default());
        let b = *p.budgets();
        let mut windows = Vec::new();
        for _ in 0..b.max_penalty + 3 {
            for _ in 0..b.retry[0] {
                p.on_abort(AbortReason::LockedAtEntry);
            }
            windows.push(drain(&p));
        }
        for (i, w) in windows.iter().enumerate() {
            let expect = b.skip[0] << (i as u32).min(b.max_penalty);
            assert_eq!(*w, expect, "window {i}");
            assert!(*w <= p.max_forfeit());
        }
    }

    #[test]
    fn rearm_period_decays_penalty_and_refills_budgets() {
        let p = AdaptivePolicy::new(AdaptiveBudgets::default());
        let b = *p.budgets();
        // Escalate inflation (retry 1) twice.
        p.on_abort(AbortReason::Inflation);
        drain(&p);
        p.on_abort(AbortReason::Inflation);
        drain(&p);
        assert_eq!(p.probe().penalty[4], 2);
        // One full re-arm period of quiet successes: one level decays.
        let mut ticked = false;
        for _ in 0..b.rearm_period {
            ticked |= p.on_elided();
        }
        assert!(ticked);
        let pr = p.probe();
        assert_eq!(pr.penalty[4], 1);
        assert_eq!(pr.retry_left, std::array::from_fn(|c| b.retry[c].max(1)));
        // Enough quiet and the policy is indistinguishable from fresh.
        for _ in 0..b.rearm_period * (b.max_penalty + 1) {
            p.on_elided();
        }
        assert_eq!(p.probe().penalty, [0; 5]);
    }

    #[test]
    fn aborts_reset_the_success_streak() {
        let p = AdaptivePolicy::new(AdaptiveBudgets::default());
        for _ in 0..p.budgets().rearm_period - 1 {
            assert!(!p.on_elided());
        }
        p.on_abort(AbortReason::WordChangedAtExit);
        assert_eq!(p.probe().successes, 0);
        assert!(!p.on_elided(), "streak must restart after an abort");
    }

    #[test]
    fn minimal_budgets_cycle_in_three_sections() {
        let p = AdaptivePolicy::new(AdaptiveBudgets::minimal());
        assert!(p.on_abort(AbortReason::LockedAtEntry), "one abort disables");
        assert_eq!(p.on_entry(), EntryDecision::Acquire { rearmed: true });
        assert_eq!(p.on_entry(), EntryDecision::Elide);
        assert!(p.on_elided(), "one success re-arms fully");
    }

    #[test]
    fn degenerate_budgets_are_clamped() {
        let z = AdaptiveBudgets {
            retry: [0; 5],
            skip: [0; 5],
            max_penalty: u32::MAX,
            rearm_period: 0,
        };
        assert_eq!(z.max_forfeit(), 1 << PENALTY_HARD_CAP);
        let p = AdaptivePolicy::new(z);
        assert!(p.on_abort(AbortReason::Inflation));
        assert!(matches!(p.on_entry(), EntryDecision::Acquire { .. }));
        assert!(p.on_elided(), "rearm period 0 ticks every success");
    }

    #[test]
    fn max_forfeit_saturates() {
        let b = AdaptiveBudgets {
            retry: [1; 5],
            skip: [u32::MAX; 5],
            max_penalty: 16,
            rearm_period: 1,
        };
        assert_eq!(b.max_forfeit(), u32::MAX);
    }
}
