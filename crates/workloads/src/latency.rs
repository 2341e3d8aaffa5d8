//! Per-operation latency distribution.
//!
//! Throughput (the paper's metric) hides the *tail*: a conventional
//! lock's reader can be descheduled holding the lock and stall every
//! other thread, while SOLERO readers cannot block anyone. The latency
//! histogram makes that visible — an addition to the paper's
//! methodology, reported by `reproduce latency`.
//!
//! The histogram itself lives in [`solero_obs::hist`] (one log2
//! histogram for the whole workspace, shared with the open-loop
//! driver); this module re-exports it and layers the measurement loop
//! plus the [`LatencyReport`] percentile summary on top.

use std::time::Instant;

use solero_testkit::rng::TestRng;

pub use solero_obs::hist::{HistSnapshot, LatencyHistogram};

/// Percentile summary of one latency measurement.
#[derive(Debug, Clone, Copy)]
pub struct LatencyReport {
    /// Median, ns (bucket upper bound).
    pub p50: u64,
    /// 90th percentile, ns.
    pub p90: u64,
    /// 99th percentile, ns.
    pub p99: u64,
    /// 99.9th percentile, ns.
    pub p999: u64,
    /// Samples recorded.
    pub samples: u64,
}

impl LatencyReport {
    /// Summarizes a histogram snapshot.
    ///
    /// # Examples
    ///
    /// ```
    /// use solero_workloads::latency::{LatencyHistogram, LatencyReport};
    ///
    /// let h = LatencyHistogram::new();
    /// for ns in [100, 200, 400, 100_000] {
    ///     h.record_ns(ns);
    /// }
    /// let r = LatencyReport::from_snapshot(&h.snapshot());
    /// assert_eq!(r.samples, 4);
    /// assert!(r.p50 >= 100 && r.p50 <= 512);
    /// assert!(r.p999 >= 65_536);
    /// ```
    pub fn from_snapshot(s: &HistSnapshot) -> Self {
        LatencyReport {
            p50: s.percentile(0.50),
            p90: s.percentile(0.90),
            p99: s.percentile(0.99),
            p999: s.percentile(0.999),
            samples: s.count(),
        }
    }
}

/// Runs `op` from `threads` threads, `samples_per_thread` times each,
/// timing every invocation.
pub fn measure_latency<F>(threads: usize, samples_per_thread: u64, op: F) -> LatencyReport
where
    F: Fn(usize, &mut TestRng) + Sync,
{
    let hist = LatencyHistogram::new();
    std::thread::scope(|s| {
        for t in 0..threads {
            let hist = &hist;
            let op = &op;
            s.spawn(move || {
                let mut rng = TestRng::seed_from_u64(t as u64 + 1);
                for _ in 0..samples_per_thread {
                    let t0 = Instant::now();
                    op(t, &mut rng);
                    hist.record_ns(t0.elapsed().as_nanos() as u64);
                }
            });
        }
    });
    LatencyReport::from_snapshot(&hist.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_is_the_obs_histogram() {
        // The re-export must be the one concurrent histogram the whole
        // workspace shares, not a second implementation.
        let h: solero_obs::hist::LatencyHistogram = LatencyHistogram::new();
        h.record_ns(100);
        let s: solero_obs::hist::HistSnapshot = h.snapshot();
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn report_percentiles_are_monotone() {
        let h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record_ns(i * 17);
        }
        let r = LatencyReport::from_snapshot(&h.snapshot());
        assert!(
            r.p50 <= r.p90 && r.p90 <= r.p99 && r.p99 <= r.p999,
            "{r:?}"
        );
        assert_eq!(r.samples, 1000);
    }

    #[test]
    fn empty_report_is_zero() {
        let r = LatencyReport::from_snapshot(&HistSnapshot::default());
        assert_eq!(r.samples, 0);
        assert_eq!(r.p999, 0);
    }

    #[test]
    fn measure_latency_collects_all_samples() {
        let r = measure_latency(2, 500, |_, _| {
            std::hint::black_box(42);
        });
        assert_eq!(r.samples, 1_000);
        assert!(r.p50 <= r.p999);
    }
}
