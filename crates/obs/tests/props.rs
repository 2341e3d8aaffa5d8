//! Property tests for the observability layer: the log2 histogram
//! merge must form a commutative monoid (results must not depend on
//! which thread's snapshot is folded in first). The per-lock counter
//! export's round trip is tested beside its writer and reader, in
//! `solero-runtime`'s `tests/stats_export_props.rs`.

use solero_obs::hist::{HistSnapshot, LatencyHistogram, BUCKETS};
use solero_testkit::{forall, Gen};

/// A random snapshot; bucket counts stay far from `u64::MAX` so sums
/// can't overflow even across repeated merges.
fn gen_snapshot(g: &mut Gen) -> HistSnapshot {
    let mut buckets = [0u64; BUCKETS];
    for b in buckets.iter_mut() {
        *b = g.rng().gen_range(0u64..1 << 40);
    }
    HistSnapshot { buckets }
}

#[test]
fn hist_merge_is_commutative() {
    forall(256, 0x0B5_01, |g| {
        let (a, b) = (gen_snapshot(g), gen_snapshot(g));
        assert_eq!(a.merge(&b), b.merge(&a));
    });
}

#[test]
fn hist_merge_is_associative() {
    forall(256, 0x0B5_02, |g| {
        let (a, b, c) = (gen_snapshot(g), gen_snapshot(g), gen_snapshot(g));
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
    });
}

#[test]
fn hist_merge_identity_and_count() {
    forall(256, 0x0B5_03, |g| {
        let a = gen_snapshot(g);
        let empty = HistSnapshot::default();
        assert_eq!(a.merge(&empty), a, "empty snapshot is the identity");
        assert_eq!(empty.merge(&a), a);
        let b = gen_snapshot(g);
        assert_eq!(
            a.merge(&b).count(),
            a.count() + b.count(),
            "merge preserves total sample count"
        );
    });
}

/// Recording samples then snapshotting agrees with merging per-sample
/// snapshots: the concurrent recording side and the plain merge side
/// bucket identically.
#[test]
fn recording_agrees_with_merging() {
    forall(128, 0x0B5_04, |g| {
        let samples: Vec<u64> = {
            let n = g.gen_range(0usize..64);
            (0..n).map(|_| g.rng().gen_range(0u64..1 << 48)).collect()
        };
        let hist = LatencyHistogram::new();
        let mut folded = HistSnapshot::default();
        for &s in &samples {
            hist.record_ns(s);
            let one = LatencyHistogram::new();
            one.record_ns(s);
            folded = folded.merge(&one.snapshot());
        }
        assert_eq!(hist.snapshot(), folded);
        assert_eq!(folded.count(), samples.len() as u64);
    });
}
