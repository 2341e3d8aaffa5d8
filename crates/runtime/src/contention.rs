//! History-keyed CAS contention management.
//!
//! The retry-exhausted fallback and the slow write path used to re-probe
//! under the fixed three-tier loops of [`crate::spin`] — fine while
//! contention is rare, but a fallback storm (many readers losing
//! elision at once) turns the fixed-cadence probes into a CAS convoy
//! that collapses throughput exactly when elision is already losing.
//!
//! This module implements the lightweight contention manager of
//! Dice/Hendler/Mirsky ("Lightweight Contention Management for
//! Efficient Compare-and-Swap Operations", arXiv 1305.5800): each
//! thread keeps a private *failure history*; every failed probe grows
//! the history and the thread waits a capped exponential back-off
//! jittered by a thread-seeded [`SplitMix64`] stream, while successes
//! decay the history so quiet locks return to cheap immediate probing.
//!
//! Determinism: the jitter stream is derived from the runtime
//! [`ThreadId`] — no wall clock, no OS
//! entropy — so a pinned-seed stress schedule replays the identical
//! back-off sequence, the same constraint that shaped BRAVO's
//! counter-based re-bias policy. Under `--cfg solero_mc` the waits are
//! compiled out entirely (the history bookkeeping stays): busy-wait
//! iterations are invisible to the model checker and would only inflate
//! its step budget.

use std::cell::RefCell;
#[cfg(not(solero_mc))]
use std::hint;

use solero_testkit::pad::CachePadded;
use solero_testkit::rng::{derive_seed, SplitMix64};

use crate::spin::Probe;
use crate::thread::ThreadId;

/// Seed-stream domain separator for the per-thread jitter generators
/// (any fixed constant works; it only has to differ from the testkit's
/// own stream roots).
const JITTER_STREAM_ROOT: u64 = 0xC047_E417_1035_EEDD;

/// Tuning knobs for the history-keyed back-off policy.
///
/// All delays are expressed in `spin_loop` hint iterations — never wall
/// clock — so replay under a pinned seed is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentionConfig {
    /// Probe attempts before [`ContentionConfig::run`] gives up and the
    /// caller escalates (for SOLERO: parks on the monitor).
    pub attempts: u32,
    /// Back-off bound for a thread with empty failure history, in spin
    /// units. `0` disables waiting entirely.
    pub base: u32,
    /// Maximum exponent: the bound stops doubling after the history
    /// exceeds this many failures.
    pub shift_cap: u32,
    /// Hard ceiling on any single back-off, in spin units.
    pub cap: u32,
    /// Consecutive successful probes that shed one level of failure
    /// history (arXiv 1305.5800's decay-on-success), so a quiet lock
    /// drifts back to immediate probing.
    pub decay_after: u32,
    /// Delays at or above this many spin units yield the CPU instead of
    /// busy-waiting — the uniprocessor-friendly tail of the policy.
    pub yield_threshold: u32,
}

impl Default for ContentionConfig {
    fn default() -> Self {
        ContentionConfig {
            // Matches the probe budget of the old three-tier default
            // (tier2 * tier3 = 128), so escalation pressure is unchanged.
            attempts: 128,
            base: 32,
            shift_cap: 7,
            cap: 4096,
            decay_after: 2,
            yield_threshold: 2048,
        }
    }
}

impl ContentionConfig {
    /// The pre-manager behavior, for ablation benchmarks: a fixed
    /// busy-wait between probes regardless of failure history (the
    /// naive tier-1 cadence the manager replaces). `shift_cap = 0`
    /// turns the exponential into a constant.
    pub fn naive() -> Self {
        ContentionConfig {
            attempts: 128,
            base: 64,
            shift_cap: 0,
            cap: 64,
            decay_after: 1,
            yield_threshold: u32::MAX,
        }
    }

    /// A minimal-state-space configuration for model-checked scenarios:
    /// two probes, no waiting, so contention adds at most one schedule
    /// point before escalation.
    pub fn minimal() -> Self {
        ContentionConfig {
            attempts: 2,
            base: 0,
            shift_cap: 0,
            cap: 0,
            decay_after: 1,
            yield_threshold: u32::MAX,
        }
    }

    /// The back-off *bound* (pre-jitter) for a thread whose failure
    /// history is `history`: `min(cap, base << min(history, shift_cap))`.
    pub fn bound_for(&self, history: u32) -> u32 {
        let shift = history.min(self.shift_cap);
        self.base
            .checked_shl(shift)
            .unwrap_or(u32::MAX)
            .min(self.cap)
    }

    /// Runs the probe loop under the calling thread's contention state.
    /// Returns `Some(value)` when a probe completed, `None` after
    /// `attempts` failed probes (the caller escalates).
    pub fn run<T>(&self, probe: impl FnMut() -> Probe<T>) -> Option<T> {
        self.run_observed(probe, |_| {})
    }

    /// [`ContentionConfig::run`] with an observer invoked once per
    /// back-off wait with the chosen delay — the hook the lock uses to
    /// feed its `contention_backoffs` statistics counter.
    pub fn run_observed<T>(
        &self,
        mut probe: impl FnMut() -> Probe<T>,
        mut on_backoff: impl FnMut(u32),
    ) -> Option<T> {
        for attempt in 0..self.attempts {
            match probe() {
                Probe::Done(v) => {
                    with_thread_state(|s| s.on_success(self));
                    return Some(v);
                }
                Probe::Retry => {}
            }
            let delay = with_thread_state(|s| s.on_failure(self));
            // As in the spin tiers, no wait after the final probe: the
            // next action is escalation, not another probe.
            if attempt + 1 < self.attempts {
                on_backoff(delay);
                self.wait(delay);
            }
        }
        None
    }

    /// One back-off wait of `delay` spin units (or a yield past the
    /// threshold). Compiled out under the model checker: waiting has no
    /// scheduling points, so it would only burn the step budget.
    fn wait(&self, delay: u32) {
        #[cfg(solero_mc)]
        let _ = delay;
        #[cfg(not(solero_mc))]
        if delay >= self.yield_threshold {
            std::thread::yield_now();
        } else {
            for _ in 0..delay {
                hint::spin_loop();
            }
        }
    }
}

/// Per-thread contention state: the failure history, the success streak
/// driving decay, and the deterministic jitter stream.
///
/// The lock paths use the thread-local instance behind
/// [`ContentionConfig::run`]; tests construct their own with
/// [`BackoffState::new`] to check the policy's algebra directly.
#[derive(Debug, Clone)]
pub struct BackoffState {
    history: u32,
    streak: u32,
    rng: SplitMix64,
}

impl BackoffState {
    /// Fresh state with an explicit jitter seed — identical seeds yield
    /// identical back-off sequences for identical failure patterns.
    pub fn new(seed: u64) -> Self {
        BackoffState {
            history: 0,
            streak: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// The calling thread's canonical state: seeded from its runtime
    /// [`ThreadId`], so per-thread streams are decorrelated yet fully
    /// determined by thread creation order.
    pub fn for_current_thread() -> Self {
        Self::new(derive_seed(
            JITTER_STREAM_ROOT,
            ThreadId::current().as_u64(),
        ))
    }

    /// Current failure-history depth.
    pub fn history(&self) -> u32 {
        self.history
    }

    /// Registers a failed probe: resets the success streak, deepens the
    /// history, and returns the jittered delay (spin units) to wait,
    /// drawn uniformly from `[bound/2, bound]` where
    /// `bound = cfg.bound_for(history-before-this-failure)`.
    pub fn on_failure(&mut self, cfg: &ContentionConfig) -> u32 {
        self.streak = 0;
        let bound = cfg.bound_for(self.history);
        self.history = self.history.saturating_add(1);
        if bound == 0 {
            return 0;
        }
        let half = bound / 2;
        half + (self.rng.next_u64() % u64::from(bound - half + 1)) as u32
    }

    /// Registers a successful probe: every `cfg.decay_after` consecutive
    /// successes shed one level of failure history.
    pub fn on_success(&mut self, cfg: &ContentionConfig) {
        self.streak = self.streak.saturating_add(1);
        if self.streak >= cfg.decay_after.max(1) {
            self.streak = 0;
            self.history = self.history.saturating_sub(1);
        }
    }
}

thread_local! {
    static THREAD_STATE: RefCell<CachePadded<BackoffState>> =
        RefCell::new(CachePadded::new(BackoffState::for_current_thread()));
}

fn with_thread_state<R>(f: impl FnOnce(&mut BackoffState) -> R) -> R {
    THREAD_STATE.with(|s| f(&mut s.borrow_mut()))
}

/// The calling thread's current failure-history depth (diagnostics and
/// stress-test assertions).
pub fn thread_history() -> u32 {
    with_thread_state(|s| s.history())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_success_never_waits() {
        let cfg = ContentionConfig::default();
        let mut backoffs = 0;
        let got = cfg.run_observed(|| Probe::Done(7), |_| backoffs += 1);
        assert_eq!(got, Some(7));
        assert_eq!(backoffs, 0);
    }

    #[test]
    fn exhaustion_probes_attempts_times() {
        let cfg = ContentionConfig {
            attempts: 5,
            base: 0,
            ..ContentionConfig::default()
        };
        let mut probes = 0u32;
        let mut backoffs = 0u32;
        let got: Option<()> = cfg.run_observed(
            || {
                probes += 1;
                Probe::Retry
            },
            |_| backoffs += 1,
        );
        assert_eq!(got, None);
        assert_eq!(probes, 5);
        assert_eq!(backoffs, 4, "no wait after the final probe");
    }

    #[test]
    fn zero_attempts_never_probes() {
        let cfg = ContentionConfig {
            attempts: 0,
            ..ContentionConfig::default()
        };
        let got: Option<()> = cfg.run(|| panic!("probe must not run"));
        assert_eq!(got, None);
    }

    #[test]
    fn bound_is_capped_exponential() {
        let cfg = ContentionConfig {
            base: 8,
            shift_cap: 4,
            cap: 100,
            ..ContentionConfig::default()
        };
        assert_eq!(cfg.bound_for(0), 8);
        assert_eq!(cfg.bound_for(1), 16);
        assert_eq!(cfg.bound_for(3), 64);
        assert_eq!(cfg.bound_for(4), 100, "hard cap");
        assert_eq!(cfg.bound_for(400), 100, "shift cap + hard cap");
    }

    #[test]
    fn failure_grows_success_decays() {
        let cfg = ContentionConfig {
            decay_after: 2,
            ..ContentionConfig::default()
        };
        let mut s = BackoffState::new(1);
        for _ in 0..3 {
            s.on_failure(&cfg);
        }
        assert_eq!(s.history(), 3);
        s.on_success(&cfg);
        assert_eq!(s.history(), 3, "one success is below the decay streak");
        s.on_success(&cfg);
        assert_eq!(s.history(), 2, "two consecutive successes shed a level");
        s.on_failure(&cfg);
        s.on_success(&cfg);
        s.on_success(&cfg);
        assert_eq!(s.history(), 2, "a failure resets the streak");
    }

    #[test]
    fn naive_mode_is_constant_cadence() {
        let cfg = ContentionConfig::naive();
        for h in 0..40 {
            assert_eq!(cfg.bound_for(h), 64);
        }
    }

    #[test]
    fn thread_history_is_observable() {
        let cfg = ContentionConfig {
            attempts: 3,
            base: 0,
            decay_after: 1,
            ..ContentionConfig::default()
        };
        // Drain whatever history earlier tests on this thread left.
        while thread_history() > 0 {
            let _ = cfg.run(|| Probe::Done(()));
        }
        let got: Option<()> = cfg.run(|| Probe::Retry);
        assert_eq!(got, None);
        assert_eq!(thread_history(), 3);
        let _ = cfg.run(|| Probe::Done(()));
        assert_eq!(thread_history(), 2, "decay_after=1 sheds on every success");
    }
}
