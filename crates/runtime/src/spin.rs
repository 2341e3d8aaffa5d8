//! Three-tier contention management — the paper's Figure 3.
//!
//! Flat-lock contention is resolved by three nested loops:
//!
//! * **tier 1** (innermost): a bounded busy-wait as back-off;
//! * **tier 2** (middle): repeated probe/CAS attempts;
//! * **tier 3** (outermost): yields the CPU between tier-2 rounds.
//!
//! When every tier is exhausted the caller escalates (inflates the lock).
//! These tiers are the one back-off policy: the probe is a closure, so
//! the same skeleton serves every contended wait — a writer's probe
//! (Figure 3: SOLERO's, the conventional lock's, the seqlock's, and the
//! retry-exhausted read fallback, which acquires as a writer) and the
//! SOLERO slow read entry (Figure 8) — each of which exits the loops
//! for different word states. A writer's probe books its tier-1 waits
//! through [`SpinConfig::run_observed`].
//!
//! The tier-1 busy-wait runs only *between* probes: after the final
//! probe of a tier-2 round the next action is a yield (or escalation),
//! so burning `tier1` `spin_loop` hints there would delay the very
//! escalation the loop decided on without buying another probe.

use core::fmt;
use std::hint;

/// What a spin probe decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe<T> {
    /// Stop spinning with this result (lock acquired, or a state that the
    /// caller handles outside the loops, e.g. "inflated — go to monitor").
    Done(T),
    /// Keep spinning.
    Retry,
}

/// Tier iteration counts.
///
/// The defaults are sized for a simulator running on commodity hardware;
/// the paper's exact `tier1/tier2/tier3` values are not published.
///
/// # Examples
///
/// ```
/// use solero_runtime::spin::{SpinConfig, Probe};
///
/// let cfg = SpinConfig::default();
/// let mut n = 0;
/// let got = cfg.run(|| {
///     n += 1;
///     if n == 3 { Probe::Done("acquired") } else { Probe::Retry }
/// });
/// assert_eq!(got, Some("acquired"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SpinConfig {
    /// Innermost busy-wait iterations between probes.
    pub tier1: u32,
    /// Probe attempts per tier-3 round.
    pub tier2: u32,
    /// Yield rounds before giving up (escalating to inflation).
    pub tier3: u32,
}

impl Default for SpinConfig {
    fn default() -> Self {
        Self::for_parallelism(detected_parallelism())
    }
}

/// The host's hardware parallelism, detected once and cached
/// process-wide (the production fast path behind
/// [`SpinConfig::default`]). Falls back to 2 when the host refuses to
/// answer, so detection failure never silently selects the
/// uniprocessor tiers.
pub fn detected_parallelism() -> usize {
    use std::sync::OnceLock;
    static PAR: OnceLock<usize> = OnceLock::new();
    *PAR.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
    })
}

impl fmt::Debug for SpinConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SpinConfig(tier1={}, tier2={}, tier3={})",
            self.tier1, self.tier2, self.tier3
        )
    }
}

impl SpinConfig {
    /// A configuration that never spins: a single probe and out.
    /// Useful in tests that want deterministic escalation.
    pub fn immediate() -> Self {
        SpinConfig {
            tier1: 0,
            tier2: 1,
            tier3: 1,
        }
    }

    /// Tier sizes for a host with `parallelism` hardware threads — the
    /// pure, injectable form of [`SpinConfig::default`], so the
    /// uniprocessor branch is testable on any machine instead of being
    /// latched process-wide by the detection cache.
    ///
    /// Like production JVMs, spinning is effectively disabled on a
    /// uniprocessor: the lock holder cannot make progress while we
    /// spin, so yield almost immediately.
    ///
    /// ```
    /// use solero_runtime::spin::SpinConfig;
    ///
    /// assert_eq!(SpinConfig::for_parallelism(1).tier1, 0);
    /// assert!(SpinConfig::for_parallelism(16).tier1 > 0);
    /// ```
    pub fn for_parallelism(parallelism: usize) -> Self {
        if parallelism <= 1 {
            SpinConfig {
                tier1: 0,
                tier2: 2,
                tier3: 2,
            }
        } else {
            SpinConfig {
                tier1: 64,
                tier2: 32,
                tier3: 4,
            }
        }
    }

    /// Runs the three-tier loop. Returns `Some(value)` if the probe
    /// completed, or `None` when every tier is exhausted and the caller
    /// should escalate.
    pub fn run<T>(&self, probe: impl FnMut() -> Probe<T>) -> Option<T> {
        self.run_observed(probe, || {})
    }

    /// [`SpinConfig::run`] with an observer called once per tier-1
    /// wait, before it spins: the hook a lock uses to book a writer's
    /// waits in its `contention_backoffs` counter.
    pub fn run_observed<T>(
        &self,
        probe: impl FnMut() -> Probe<T>,
        mut on_backoff: impl FnMut(),
    ) -> Option<T> {
        self.run_with(
            probe,
            |iters| {
                on_backoff();
                for _ in 0..iters {
                    hint::spin_loop();
                }
            },
            std::thread::yield_now,
        )
    }

    /// The three-tier loop with injectable back-off and yield actions —
    /// the instrumentable skeleton behind [`SpinConfig::run`], used by
    /// tests to observe the exact probe/backoff/yield interleaving.
    ///
    /// `backoff(tier1)` runs only between probes of the same tier-2
    /// round; after a round's final probe the next action is `yield_round`
    /// (or exhaustion), never a tier-1 wait.
    pub fn run_with<T>(
        &self,
        mut probe: impl FnMut() -> Probe<T>,
        mut backoff: impl FnMut(u32),
        mut yield_round: impl FnMut(),
    ) -> Option<T> {
        for round in 0..self.tier3 {
            for attempt in 0..self.tier2 {
                match probe() {
                    Probe::Done(v) => return Some(v),
                    Probe::Retry => {}
                }
                // No probe follows the last attempt of this round; the
                // tier-1 wait would only delay the yield or escalation.
                if attempt + 1 < self.tier2 {
                    backoff(self.tier1);
                }
            }
            if round + 1 < self.tier3 {
                yield_round();
            }
        }
        None
    }

    /// Total number of probe attempts the loop will make before
    /// exhaustion.
    pub fn max_probes(&self) -> u64 {
        u64::from(self.tier2) * u64::from(self.tier3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_succeeds_on_first_probe() {
        let got = SpinConfig::immediate().run(|| Probe::Done(7));
        assert_eq!(got, Some(7));
    }

    #[test]
    fn exhaustion_returns_none() {
        let cfg = SpinConfig {
            tier1: 0,
            tier2: 3,
            tier3: 2,
        };
        let mut probes = 0u64;
        let got: Option<()> = cfg.run(|| {
            probes += 1;
            Probe::Retry
        });
        assert_eq!(got, None);
        assert_eq!(probes, cfg.max_probes());
    }

    #[test]
    fn succeeds_midway() {
        let cfg = SpinConfig {
            tier1: 1,
            tier2: 10,
            tier3: 3,
        };
        let mut n = 0;
        let got = cfg.run(|| {
            n += 1;
            if n == 17 {
                Probe::Done(n)
            } else {
                Probe::Retry
            }
        });
        assert_eq!(got, Some(17));
    }

    #[test]
    fn zero_tiers_probe_never_runs() {
        let cfg = SpinConfig {
            tier1: 0,
            tier2: 0,
            tier3: 0,
        };
        let got: Option<()> = cfg.run(|| panic!("probe must not run"));
        assert_eq!(got, None);
    }

    /// Regression: the tier-1 busy-wait must not run after the final
    /// probe of a tier-2 round. Before the fix every escalation to
    /// inflation and every yield round burned `tier1` wasted
    /// `spin_loop` iterations after a probe that could no longer be
    /// retried.
    #[test]
    fn no_backoff_after_final_probe_of_a_round() {
        let cfg = SpinConfig {
            tier1: 7,
            tier2: 3,
            tier3: 2,
        };
        let trace = std::cell::RefCell::new(String::new());
        let got: Option<()> = cfg.run_with(
            || {
                trace.borrow_mut().push('P');
                Probe::Retry
            },
            |iters| {
                assert_eq!(iters, cfg.tier1);
                trace.borrow_mut().push('B');
            },
            || trace.borrow_mut().push('Y'),
        );
        let log = trace.into_inner();
        assert_eq!(got, None);
        // tier2=3 probes with backoff only *between* them, a yield
        // between the tier3=2 rounds, and no trailing backoff before
        // either the yield or the final escalation.
        assert_eq!(log, "PBPBPYPBPBP");
    }

    /// Regression: exhaustion runs exactly tier2 - 1 backoffs per round
    /// (not tier2), for every shape, and `run_observed` books each.
    #[test]
    fn backoff_count_is_probes_minus_rounds() {
        for (t1, t2, t3) in [(1u32, 1u32, 1u32), (4, 2, 3), (64, 32, 4), (0, 5, 2)] {
            let cfg = SpinConfig {
                tier1: t1,
                tier2: t2,
                tier3: t3,
            };
            let mut probes = 0u64;
            let mut backoffs = 0u64;
            let mut yields = 0u64;
            let got: Option<()> = cfg.run_with(
                || {
                    probes += 1;
                    Probe::Retry
                },
                |_| backoffs += 1,
                || yields += 1,
            );
            assert_eq!(got, None);
            assert_eq!(probes, cfg.max_probes());
            assert_eq!(backoffs, u64::from(t3) * u64::from(t2.saturating_sub(1)));
            assert_eq!(yields, u64::from(t3.saturating_sub(1)));
            let mut observed = 0u64;
            let got: Option<()> = cfg.run_observed(|| Probe::Retry, || observed += 1);
            assert_eq!(got, None);
            assert_eq!(observed, backoffs, "the observer sees every tier-1 wait");
        }
    }

    /// A mid-round success stops before the following backoff.
    #[test]
    fn success_skips_the_trailing_backoff() {
        let cfg = SpinConfig {
            tier1: 9,
            tier2: 4,
            tier3: 1,
        };
        let mut probes = 0;
        let mut backoffs = 0;
        let got = cfg.run_with(
            || {
                probes += 1;
                if probes == 2 {
                    Probe::Done(())
                } else {
                    Probe::Retry
                }
            },
            |_| backoffs += 1,
            || {},
        );
        assert_eq!(got, Some(()));
        assert_eq!(backoffs, 1, "one backoff between probe 1 and probe 2");
    }

    /// The injectable constructor makes both detection branches
    /// testable on any host; the default stays the cached detection.
    #[test]
    fn parallelism_branches_are_injectable() {
        let up = SpinConfig::for_parallelism(1);
        assert_eq!((up.tier1, up.tier2, up.tier3), (0, 2, 2));
        let smp = SpinConfig::for_parallelism(8);
        assert_eq!((smp.tier1, smp.tier2, smp.tier3), (64, 32, 4));
        assert_eq!(SpinConfig::for_parallelism(0), up, "0 counts as uniprocessor");
        assert_eq!(
            SpinConfig::default(),
            SpinConfig::for_parallelism(detected_parallelism()),
            "Default must agree with the injectable constructor on the cached detection"
        );
        assert!(detected_parallelism() >= 1);
    }
}
