//! Output checks. Every value a workload stores encodes its key
//! (`value >> 20 == key`), so a read can be checked without a model of
//! the writes racing it.

use solero_runtime::stats::StatsSnapshot;
use solero_store::StoreCheckpoint;

/// Bits of a value below its key.
pub const KEY_SHIFT: u32 = 20;

/// A value for `key` carrying `salt` in its low bits.
pub fn value_for(key: i64, salt: u64) -> i64 {
    key << KEY_SHIFT | (salt & ((1 << KEY_SHIFT) - 1)) as i64
}

/// A read of a key that no workload ever removes for good.
pub fn value_ok(key: i64, got: Option<i64>) -> bool {
    got.is_some_and(|v| v >> KEY_SHIFT == key)
}

/// A scan of `[start, start + len)` over a store holding every key in
/// `[0, keys)`: ascending, in range, complete, values encoding keys.
pub fn scan_ok(start: i64, len: usize, keys: i64, pairs: &[(i64, i64)]) -> bool {
    let end = (start + len as i64).min(keys);
    pairs.len() as i64 == end - start
        && pairs
            .iter()
            .zip(start..)
            .all(|(&(k, v), want)| k == want && v >> KEY_SHIFT == k)
}

/// A whole-store checkpoint: every key present, each value its own.
pub fn checkpoint_ok(cut: &StoreCheckpoint, keys: i64) -> bool {
    cut.len() as i64 == keys
        && cut
            .shards
            .iter()
            .all(|s| s.pairs.iter().all(|&(k, v)| v >> KEY_SHIFT == k))
}

/// The abort taxonomy's teardown invariants; the broken ones, named.
pub fn taxonomy_violations(s: &StatsSnapshot) -> Vec<String> {
    let mut bad = Vec::new();
    if s.read_aborts != s.abort_reason_sum() {
        bad.push(format!(
            "read_aborts {} != abort_reason_sum {}",
            s.read_aborts,
            s.abort_reason_sum()
        ));
    }
    if s.fallback_acquires != s.abort_retry_exhausted {
        bad.push(format!(
            "fallback_acquires {} != abort_retry_exhausted {}",
            s.fallback_acquires, s.abort_retry_exhausted
        ));
    }
    if s.deflations > s.inflations {
        bad.push(format!(
            "deflations {} > inflations {}",
            s.deflations, s.inflations
        ));
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use solero_store::ShardSnapshot;

    #[test]
    fn rejects_a_planted_wrong_value() {
        assert!(value_ok(5, Some(value_for(5, 77))));
        assert!(!value_ok(5, Some(value_for(6, 77))), "another key's value");
        assert!(!value_ok(5, None), "missing key");
    }

    #[test]
    fn rejects_unsorted_incomplete_or_foreign_scans() {
        let good: Vec<(i64, i64)> = (10..14).map(|k| (k, value_for(k, 3))).collect();
        assert!(scan_ok(10, 4, 100, &good));
        let mut unsorted = good.clone();
        unsorted.swap(1, 2);
        assert!(!scan_ok(10, 4, 100, &unsorted));
        assert!(!scan_ok(10, 4, 100, &good[..3]), "incomplete");
        let mut wrong = good.clone();
        wrong[3].1 = value_for(99, 0);
        assert!(!scan_ok(10, 4, 100, &wrong), "value of another key");
        // Clamped at the end of the key space.
        assert!(scan_ok(12, 10, 14, &good[2..]));
    }

    #[test]
    fn rejects_an_incomplete_checkpoint() {
        let shard = |pairs: Vec<(i64, i64)>| ShardSnapshot {
            shard: 0,
            version: 1,
            pairs,
        };
        let full = StoreCheckpoint {
            shards: vec![shard((0..4).map(|k| (k, value_for(k, 1))).collect())],
        };
        assert!(checkpoint_ok(&full, 4));
        assert!(!checkpoint_ok(&full, 5));
        let torn = StoreCheckpoint {
            shards: vec![shard(vec![(0, value_for(0, 1)), (1, value_for(0, 1))])],
        };
        assert!(!checkpoint_ok(&torn, 2));
    }

    #[test]
    fn names_each_broken_taxonomy_invariant() {
        let ok = StatsSnapshot {
            read_aborts: 3,
            abort_word_changed_at_exit: 2,
            abort_retry_exhausted: 1,
            fallback_acquires: 1,
            inflations: 2,
            deflations: 2,
            ..Default::default()
        };
        assert!(taxonomy_violations(&ok).is_empty());
        let bad = StatsSnapshot {
            read_aborts: 4,
            deflations: 3,
            ..ok
        };
        assert_eq!(taxonomy_violations(&bad).len(), 2);
    }
}
