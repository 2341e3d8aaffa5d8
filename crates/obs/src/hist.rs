//! Log2-bucketed latency histograms (HDR-style, fixed-size).
//!
//! [`LatencyHistogram`] is the concurrent recording side (relaxed
//! atomic buckets); [`HistSnapshot`] is the plain-array copy that
//! merges like `StatsSnapshot`. The workloads' closed- and open-loop
//! latency recorders use both. Covers 1 ns .. 2^48 ns (~78 h) — one
//! `u64` counter per power of two.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets.
pub const BUCKETS: usize = 48;

#[inline]
fn bucket_of(ns: u64) -> usize {
    (64 - ns.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1)
}

/// A fixed-size, lock-free log2 histogram of nanosecond samples.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [0u64; BUCKETS].map(AtomicU64::new),
        }
    }

    /// Records one sample in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time plain copy.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistSnapshot { buckets }
    }

    /// Resets every bucket to zero.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// A plain copy of a [`LatencyHistogram`], mergeable across threads and
/// strategies like `StatsSnapshot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Sample counts; bucket `i` holds samples in `[2^i, 2^(i+1))` ns.
    pub buckets: [u64; BUCKETS],
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            buckets: [0; BUCKETS],
        }
    }
}

impl HistSnapshot {
    /// Total samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Bucket-wise sum.
    pub fn merge(&self, other: &HistSnapshot) -> HistSnapshot {
        let mut buckets = self.buckets;
        for (a, b) in buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        HistSnapshot { buckets }
    }

    /// Approximate `p`-quantile in nanoseconds (bucket upper bound);
    /// `p` in `[0, 1]`. Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * p).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return 1u64 << (i + 1);
            }
        }
        1u64 << BUCKETS
    }

    /// Mean in nanoseconds, using each bucket's geometric midpoint.
    pub fn mean(&self) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &c)| c as f64 * 1.5 * (1u64 << i) as f64)
            .sum();
        sum / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn snapshot_merge_percentile() {
        let h = LatencyHistogram::new();
        for ns in [100u64, 200, 400, 100_000] {
            h.record_ns(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 4);
        assert!(s.percentile(0.5) >= 100 && s.percentile(0.5) <= 512);
        assert!(s.percentile(1.0) >= 65_536);
        let m = s.merge(&s);
        assert_eq!(m.count(), 8);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = HistSnapshot::default();
        assert_eq!(s.count(), 0);
        assert_eq!(s.percentile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn reset_clears() {
        let h = LatencyHistogram::new();
        h.record_ns(50);
        h.reset();
        assert_eq!(h.snapshot().count(), 0);
    }

    #[test]
    fn percentiles_monotone() {
        let h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record_ns(i * 13);
        }
        let s = h.snapshot();
        assert!(s.percentile(0.5) <= s.percentile(0.9));
        assert!(s.percentile(0.9) <= s.percentile(0.99));
        assert!(s.mean() > 0.0);
    }
}
