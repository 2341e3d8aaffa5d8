//! Multi-threaded throughput measurement.
//!
//! Reproduces the paper's §4.1 protocol: each configuration is run
//! several times; within a run the throughput is measured over several
//! consecutive windows and the **best** window is kept (the paper does
//! this to exclude JIT-compilation warm-up; we keep it to exclude OS
//! scheduling noise); the reported score is the **average of the bests**
//! across runs.
//!
//! A [`Measurement`] carries the operations and lock counters of its
//! measured windows; `StatsSnapshot::to_jsonl` writes the counters as a
//! line of the per-lock counter export (the `obs_smoke` binary does
//! this for the strategy fleet).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use solero_testkit::pad::CachePadded;
use solero_testkit::rng::TestRng;
use solero_runtime::stats::StatsSnapshot;

/// Measurement protocol parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Worker thread count.
    pub threads: usize,
    /// Warm-up time before the first window.
    pub warmup: Duration,
    /// Length of one measurement window.
    pub window: Duration,
    /// Windows per run (best is kept) — the paper uses 5.
    pub windows: usize,
    /// Independent runs (bests are averaged) — the paper uses 5.
    pub runs: usize,
}

impl RunConfig {
    /// The paper's protocol at a given thread count, scaled down to
    /// simulator-friendly durations.
    pub fn paper(threads: usize) -> Self {
        RunConfig {
            threads,
            warmup: Duration::from_millis(100),
            window: Duration::from_millis(200),
            windows: 5,
            runs: 5,
        }
    }

    /// A fast configuration for tests and `--quick` reproduction runs.
    pub fn quick(threads: usize) -> Self {
        RunConfig {
            threads,
            warmup: Duration::from_millis(20),
            window: Duration::from_millis(60),
            windows: 2,
            runs: 2,
        }
    }
}

/// The outcome of measuring one workload configuration.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Operations per second (average of per-run best windows).
    pub ops_per_sec: f64,
    /// Operations completed over every measured window.
    pub ops: u64,
    /// Lock statistics accumulated over every measured window.
    pub stats: StatsSnapshot,
    /// Total measured time behind `stats` (for frequency computations).
    pub measured_secs: f64,
}

impl Measurement {
    /// Average nanoseconds per operation.
    pub fn ns_per_op(&self) -> f64 {
        if self.ops_per_sec == 0.0 {
            f64::INFINITY
        } else {
            1e9 / self.ops_per_sec
        }
    }
}

/// Runs `op` from `cfg.threads` worker threads and measures throughput.
///
/// `op(thread_index, rng)` performs one workload operation. `stats`
/// samples the workload's lock counters (used to attribute failure
/// ratios and read-only ratios to the measured windows).
pub fn measure<F>(cfg: &RunConfig, op: F, stats: impl Fn() -> StatsSnapshot) -> Measurement
where
    F: Fn(usize, &mut TestRng) + Sync,
{
    let mut best_sum = 0.0;
    let mut ops = 0;
    let mut stats_acc = StatsSnapshot::default();
    let mut measured_secs = 0.0;
    for run in 0..cfg.runs {
        let (best, n, st, secs) = one_run(cfg, &op, &stats, run as u64);
        best_sum += best;
        ops += n;
        stats_acc = stats_acc.merge(&st);
        measured_secs += secs;
    }
    Measurement {
        ops_per_sec: best_sum / cfg.runs as f64,
        ops,
        stats: stats_acc,
        // Actual wall time of the measured windows, not the configured
        // window length: sleeps only promise a *lower* bound, and the
        // overshoot is exactly the time the accumulated `stats` kept
        // counting — deriving event frequencies from the configured
        // duration would overstate them.
        measured_secs,
    }
}

fn one_run<F>(
    cfg: &RunConfig,
    op: &F,
    stats: &impl Fn() -> StatsSnapshot,
    seed_base: u64,
) -> (f64, u64, StatsSnapshot, f64)
where
    F: Fn(usize, &mut TestRng) + Sync,
{
    let running = AtomicBool::new(true);
    let counters: Vec<CachePadded<AtomicU64>> = (0..cfg.threads)
        .map(|_| CachePadded::new(AtomicU64::new(0)))
        .collect();
    let mut best = 0.0f64;
    let mut ops = 0u64;
    let mut stats_delta = StatsSnapshot::default();
    let mut measured_secs = 0.0f64;
    std::thread::scope(|s| {
        for t in 0..cfg.threads {
            let running = &running;
            let counter = &counters[t];
            s.spawn(move || {
                let mut rng = TestRng::seed_from_u64(
                    0x9e37_79b9_7f4a_7c15u64
                        .wrapping_mul(t as u64 + 1)
                        .wrapping_add(seed_base),
                );
                let mut local = 0u64;
                while running.load(Ordering::Relaxed) {
                    op(t, &mut rng);
                    local += 1;
                    // Publish in small batches to keep the counter off
                    // the hot path.
                    if local % 64 == 0 {
                        counter.store(local, Ordering::Relaxed);
                    }
                }
                counter.store(local, Ordering::Relaxed);
            });
        }
        std::thread::sleep(cfg.warmup);
        let stats_before = stats();
        for _ in 0..cfg.windows {
            let count0: u64 = counters.iter().map(|c| c.load(Ordering::Relaxed)).sum();
            let t0 = Instant::now();
            std::thread::sleep(cfg.window);
            let count1: u64 = counters.iter().map(|c| c.load(Ordering::Relaxed)).sum();
            let dt = t0.elapsed().as_secs_f64();
            measured_secs += dt;
            ops += count1 - count0;
            let rate = (count1 - count0) as f64 / dt;
            if rate > best {
                best = rate;
            }
        }
        stats_delta = stats().since(&stats_before);
        running.store(false, Ordering::Relaxed);
    });
    (best, ops, stats_delta, measured_secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as RawAtomic;

    #[test]
    fn measures_a_trivial_op() {
        let total = RawAtomic::new(0);
        let cfg = RunConfig {
            threads: 2,
            warmup: Duration::from_millis(5),
            window: Duration::from_millis(20),
            windows: 2,
            runs: 1,
        };
        let m = measure(
            &cfg,
            |_, _| {
                total.fetch_add(1, Ordering::Relaxed);
            },
            StatsSnapshot::default,
        );
        assert!(m.ops_per_sec > 1000.0, "{}", m.ops_per_sec);
        assert!(m.ns_per_op() < 1e6);
        // The windows count only what ran inside them.
        let done = total.load(Ordering::Relaxed);
        assert!(m.ops > 0 && m.ops <= done, "{} of {done}", m.ops);
    }

    #[test]
    fn measured_secs_is_actual_window_time() {
        let cfg = RunConfig {
            threads: 1,
            warmup: Duration::from_millis(1),
            window: Duration::from_millis(10),
            windows: 3,
            runs: 2,
        };
        let m = measure(&cfg, |_, _| std::hint::spin_loop(), StatsSnapshot::default);
        let configured = cfg.runs as f64 * cfg.windows as f64 * cfg.window.as_secs_f64();
        // Sleeps never return early, so the measured time can only
        // overshoot the configured one — and on a loaded machine it
        // does, which is exactly why it must be measured, not assumed.
        assert!(
            m.measured_secs >= configured,
            "measured {} < configured {configured}",
            m.measured_secs
        );
        // Sanity bound: not wildly off either (an hour of overshoot on
        // 60ms of windows would mean the accumulation is broken).
        assert!(
            m.measured_secs < configured * 100.0 + 10.0,
            "measured {} implausibly large",
            m.measured_secs
        );
    }

    #[test]
    fn quick_config_is_smaller_than_paper() {
        let q = RunConfig::quick(4);
        let p = RunConfig::paper(4);
        assert!(q.window < p.window);
        assert!(q.runs <= p.runs);
        assert_eq!(q.threads, 4);
    }

    #[test]
    fn zero_rate_yields_infinite_ns() {
        let m = Measurement {
            ops_per_sec: 0.0,
            ops: 0,
            stats: StatsSnapshot::default(),
            measured_secs: 1.0,
        };
        assert!(m.ns_per_op().is_infinite());
    }
}
