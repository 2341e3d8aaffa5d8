//! Write-bursty phase workload: the adaptive policy's proving ground.
//!
//! The paper's sweeps hold the write ratio constant, which is exactly
//! the regime where a static policy is fine. Adaptation matters when
//! the write intensity is *phased*: long quiet stretches where elision
//! should run free, punctuated by write bursts where speculating is
//! pure waste. This bench alternates those phases explicitly:
//!
//! * **Quiet** — readers only; every section should elide.
//! * **Burst** — writer threads re-acquire the lock back-to-back
//!   (spinning while holding it), so a speculative reader almost always
//!   finds the word busy at entry or changed at exit. An adaptive lock
//!   should forfeit elision within a budget's worth of sections and
//!   re-arm once the burst ends.
//!
//! [`BurstyBench::run_trajectory`] returns one [`PhaseReport`] (a
//! windowed [`StatsSnapshot`] delta) per phase — the series behind
//! `BENCH_adaptive.json` and the floor/ceiling assertions in
//! `tests/adaptive_policy_stress.rs`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use solero::{BoxedStrategy, Fault};
use solero_runtime::stats::StatsSnapshot;
use solero_testkit::pad::CachePadded;
use solero_testkit::rng::TestRng;

/// One phase of the alternating workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Readers only.
    Quiet,
    /// Readers plus back-to-back writers.
    Burst,
}

impl Phase {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Quiet => "quiet",
            Phase::Burst => "burst",
        }
    }
}

/// The canonical trajectory: quiet baseline, first burst, recovery,
/// second burst, final recovery — enough edges to show both the
/// auto-disable and the re-arm twice over.
pub const PHASES: [Phase; 5] = [
    Phase::Quiet,
    Phase::Burst,
    Phase::Quiet,
    Phase::Burst,
    Phase::Quiet,
];

/// Workload shape knobs.
#[derive(Debug, Clone, Copy)]
pub struct BurstyConfig {
    /// Reader threads (every phase).
    pub readers: usize,
    /// Writer threads (burst phases only).
    pub writers: usize,
    /// Read sections each reader runs per phase.
    pub reads_per_phase: usize,
    /// Spin iterations a writer burns *while holding the lock* — the
    /// knob that sets the writers' duty cycle. Writers re-acquire with
    /// no gap, so during a burst the lock is held almost continuously
    /// and a speculative reader can practically never validate.
    pub writer_hold_spin: u32,
    /// Cells in the shared array the sections touch.
    pub cells: usize,
}

impl BurstyConfig {
    /// A configuration small enough for unit tests.
    pub fn quick() -> Self {
        BurstyConfig {
            readers: 2,
            writers: 2,
            reads_per_phase: 400,
            writer_hold_spin: 400,
            cells: 16,
        }
    }

    /// The configuration the stress test and `BENCH_adaptive.json` use:
    /// more sections per phase, hotter writers.
    pub fn stress() -> Self {
        BurstyConfig {
            readers: 2,
            writers: 2,
            reads_per_phase: 1_500,
            writer_hold_spin: 800,
            cells: 32,
        }
    }
}

/// Per-phase outcome: the phase, its wall-clock time and the stats
/// delta it produced.
#[derive(Debug, Clone, Copy)]
pub struct PhaseReport {
    /// Which phase ran.
    pub phase: Phase,
    /// Wall-clock seconds from the first thread's spawn to the last
    /// one's exit.
    pub secs: f64,
    /// Lock statistics accumulated during the phase only.
    pub stats: StatsSnapshot,
}

impl PhaseReport {
    /// Fraction of read sections that completed elided. During a burst
    /// an adaptive lock drives this down (aborted sections fall back,
    /// forfeited sections acquire); in quiet phases it recovers.
    pub fn elision_rate(&self) -> f64 {
        if self.stats.read_enters == 0 {
            0.0
        } else {
            self.stats.elision_success as f64 / self.stats.read_enters as f64
        }
    }

    /// Fraction of read sections the policy sent straight to
    /// acquisition.
    pub fn skip_rate(&self) -> f64 {
        if self.stats.read_enters == 0 {
            0.0
        } else {
            self.stats.policy_skips as f64 / self.stats.read_enters as f64
        }
    }
}

/// The bench itself: one strategy instance guarding a cell array.
pub struct BurstyBench {
    strat: BoxedStrategy,
    cells: Vec<CachePadded<AtomicU64>>,
    cfg: BurstyConfig,
}

impl std::fmt::Debug for BurstyBench {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BurstyBench")
            .field("strategy", &self.strat.name())
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl BurstyBench {
    /// Builds the bench over a boxed strategy.
    pub fn new(cfg: BurstyConfig, make: impl FnOnce() -> BoxedStrategy) -> Self {
        let cells = (0..cfg.cells.max(1))
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect();
        BurstyBench {
            strat: make(),
            cells,
            cfg,
        }
    }

    /// The strategy's display name.
    pub fn name(&self) -> &'static str {
        self.strat.name()
    }

    /// The strategy under test (for stats and policy inspection).
    pub fn strategy(&self) -> &BoxedStrategy {
        &self.strat
    }

    /// Runs one phase to completion (each reader performs its
    /// `reads_per_phase` sections; burst writers run until the last
    /// reader finishes) and returns that phase's stats delta.
    ///
    /// A burst measures something only while its writers are running,
    /// so readers start once every writer has completed one write
    /// section, and the writers stop once every reader is done. Without
    /// the gate a reader can run its whole phase while the writer
    /// threads are still being spawned; without the count the first
    /// reader to finish would end the burst for the others.
    pub fn run_phase(&self, phase: Phase, seed: u64) -> PhaseReport {
        let before = self.strat.snapshot();
        let writers = match phase {
            Phase::Quiet => 0,
            Phase::Burst => self.cfg.writers,
        };
        let writers_in = AtomicUsize::new(0);
        let readers_left = AtomicUsize::new(self.cfg.readers);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for w in 0..writers {
                let writers_in = &writers_in;
                let readers_left = &readers_left;
                let strat = &self.strat;
                let cells = &self.cells;
                let hold = self.cfg.writer_hold_spin;
                let mut rng = TestRng::seed_from_u64(seed ^ (0xB065_7000 + w as u64));
                s.spawn(move || {
                    let mut first = true;
                    while readers_left.load(Ordering::Relaxed) > 0 {
                        let k = rng.gen_range(0..cells.len());
                        strat.write_with(|| {
                            // Hold the lock hot: the spin sets the duty
                            // cycle, the immediate re-acquire removes
                            // the gap.
                            for _ in 0..hold {
                                std::hint::spin_loop();
                            }
                            cells[k].fetch_add(1, Ordering::Relaxed);
                        });
                        if first {
                            first = false;
                            writers_in.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
            for r in 0..self.cfg.readers {
                let writers_in = &writers_in;
                let readers_left = &readers_left;
                let strat = &self.strat;
                let cells = &self.cells;
                let reads = self.cfg.reads_per_phase;
                let mut rng = TestRng::seed_from_u64(seed ^ (0x5EAD_E000 + r as u64));
                s.spawn(move || {
                    while writers_in.load(Ordering::Relaxed) < writers {
                        std::thread::yield_now();
                    }
                    for _ in 0..reads {
                        let a = rng.gen_range(0..cells.len());
                        let b = rng.gen_range(0..cells.len());
                        let _ = strat
                            .read_with(|ck| {
                                let x = cells[a].load(Ordering::Relaxed);
                                ck.checkpoint()?;
                                let y = cells[b].load(Ordering::Relaxed);
                                Ok::<_, Fault>(x.wrapping_add(y))
                            })
                            .expect("pure reads cannot genuinely fault");
                    }
                    readers_left.fetch_sub(1, Ordering::Relaxed);
                });
            }
        });
        PhaseReport {
            phase,
            secs: t0.elapsed().as_secs_f64(),
            stats: self.strat.snapshot().since(&before),
        }
    }

    /// Runs `phases` in order, returning one report per phase.
    pub fn run_trajectory(&self, phases: &[Phase], seed: u64) -> Vec<PhaseReport> {
        phases
            .iter()
            .enumerate()
            .map(|(i, &p)| self.run_phase(p, seed.wrapping_add(i as u64 * 0x9E37_79B9)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solero::{SoleroConfig, SoleroStrategy};

    fn adaptive() -> BoxedStrategy {
        Box::new(SoleroStrategy::configured(
            SoleroConfig::builder().adaptive(true).build(),
        ))
    }

    #[test]
    fn quiet_phase_elides_everything_and_never_skips() {
        let b = BurstyBench::new(BurstyConfig::quick(), adaptive);
        let r = b.run_phase(Phase::Quiet, 7);
        assert_eq!(
            r.stats.read_enters,
            (BurstyConfig::quick().readers * BurstyConfig::quick().reads_per_phase) as u64
        );
        assert_eq!(r.stats.policy_skips, 0, "{}", r.stats);
        assert_eq!(r.stats.read_aborts, 0, "{}", r.stats);
        assert!(r.elision_rate() > 0.999, "{}", r.elision_rate());
    }

    #[test]
    fn burst_phase_counts_stay_consistent() {
        let b = BurstyBench::new(BurstyConfig::quick(), adaptive);
        let r = b.run_phase(Phase::Burst, 11);
        let s = r.stats;
        assert_eq!(s.read_aborts, s.abort_reason_sum(), "{s}");
        assert_eq!(s.abort_retry_exhausted, s.fallback_acquires, "{s}");
        assert!(s.write_enters > 0, "writers must have run: {s}");
        // A read section completes at most one way: elided, fallen
        // back, policy-skipped (or via the monitor, counted by none of
        // these), so the three never exceed the sections entered.
        assert!(
            s.elision_success + s.fallback_acquires + s.policy_skips <= s.read_enters,
            "{s}"
        );
    }

    #[test]
    fn phase_names_and_canonical_trajectory() {
        assert_eq!(Phase::Quiet.name(), "quiet");
        assert_eq!(Phase::Burst.name(), "burst");
        assert_eq!(PHASES.len(), 5);
        assert_eq!(PHASES[0], Phase::Quiet);
        assert_eq!(PHASES[1], Phase::Burst);
    }
}
