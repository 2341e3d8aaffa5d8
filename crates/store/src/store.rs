//! The public store: range-sharded key space, per-shard elided
//! sections, whole-store checkpoints.

use std::sync::Arc;

use solero::{BoxedStrategy, Fault, SyncStrategy};
use solero_heap::Heap;
use solero_runtime::stats::StatsSnapshot;

use crate::shard::{runs, Shard, ShardOp};

/// Store shape: key space, shard count, COW granularity.
///
/// # Examples
///
/// ```
/// use solero_store::StoreConfig;
///
/// let cfg = StoreConfig::new(1 << 20).with_shards(64);
/// assert_eq!(cfg.keys, 1 << 20);
/// assert_eq!(cfg.shards, 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Key space `[0, keys)`.
    pub keys: i64,
    /// Number of range shards (each with its own lock and epoch).
    pub shards: usize,
    /// Keys per copy-on-write bucket (1–63: the presence bitmap plus
    /// the bucket's in-range guard share one word).
    pub bucket_width: u32,
}

impl StoreConfig {
    /// Defaults: 8 shards, 16-key buckets.
    pub fn new(keys: i64) -> Self {
        StoreConfig {
            keys,
            shards: 8,
            bucket_width: 16,
        }
    }

    /// Sets the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the COW bucket width.
    pub fn with_bucket_width(mut self, width: u32) -> Self {
        self.bucket_width = width;
        self
    }

    fn validate(&self) {
        assert!(self.keys >= 1, "empty key space");
        assert!(
            self.shards >= 1 && self.shards as i64 <= self.keys,
            "need 1..=keys shards, got {} for {} keys",
            self.shards,
            self.keys
        );
        assert!(
            (1..=63).contains(&self.bucket_width),
            "bucket width must be 1..=63, got {}",
            self.bucket_width
        );
    }

    /// Keys per shard (the last shard may own fewer).
    fn span(&self) -> i64 {
        (self.keys + self.shards as i64 - 1) / self.shards as i64
    }

    /// Heap words to pre-size: directory + buckets, ×3 for COW churn
    /// (a whole-shard batch transiently doubles that shard's buckets),
    /// plus slack for headers.
    fn heap_words(&self) -> usize {
        let span = self.span();
        let buckets_per_shard = ((span + self.bucket_width as i64 - 1) / self.bucket_width as i64) as usize;
        let total_buckets = buckets_per_shard * self.shards;
        let dir = self.shards * (buckets_per_shard + 3);
        let buckets = total_buckets * (self.bucket_width as usize + 4);
        (dir + 3 * buckets + (1 << 12)).next_power_of_two()
    }
}

/// One shard's validated, epoch-tagged snapshot: every pair belongs to
/// exactly `version` — never a mix of two installs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// The shard version the pairs were validated against.
    pub version: u64,
    /// Present `(key, value)` pairs in ascending key order.
    pub pairs: Vec<(i64, i64)>,
}

/// A whole-store cut: one validated [`ShardSnapshot`] per shard, taken
/// by the background checkpointer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreCheckpoint {
    /// Per-shard snapshots, in shard order.
    pub shards: Vec<ShardSnapshot>,
}

impl StoreCheckpoint {
    /// Total pairs across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.pairs.len()).sum()
    }

    /// True when no shard holds any pair.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cut's version vector, in shard order.
    pub fn versions(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.version).collect()
    }

    /// Point lookup inside the cut.
    pub fn get(&self, key: i64) -> Option<i64> {
        self.shards.iter().find_map(|s| {
            s.pairs
                .binary_search_by_key(&key, |&(k, _)| k)
                .ok()
                .map(|i| s.pairs[i].1)
        })
    }
}

/// The sharded MVCC snapshot store. See the crate docs for the
/// protocol; see [`StoreConfig`] for the shape knobs.
pub struct KvStore {
    heap: Arc<Heap>,
    shards: Vec<Shard>,
    cfg: StoreConfig,
}

impl std::fmt::Debug for KvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvStore")
            .field("strategy", &self.name())
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl KvStore {
    /// Builds an empty store; the strategy factory is called once per
    /// shard. Generic for call-site convenience, boxed internally.
    pub fn new<S: SyncStrategy + 'static>(cfg: StoreConfig, make: impl Fn() -> S) -> Self {
        Self::new_boxed(cfg, || Box::new(make()))
    }

    /// Builds the store from an already-boxed strategy factory.
    pub fn new_boxed(cfg: StoreConfig, make: impl Fn() -> BoxedStrategy) -> Self {
        cfg.validate();
        let heap = Arc::new(Heap::new(cfg.heap_words()));
        let span = cfg.span();
        let shards = (0..cfg.shards)
            .map(|s| {
                let base = s as i64 * span;
                let keys = span.min(cfg.keys - base);
                Shard::new(&heap, make(), base, keys, cfg.bucket_width)
            })
            .collect();
        KvStore { heap, shards, cfg }
    }

    /// The configuration the store was built with.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The backing heap (read-only view; exposed for integrity checks).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Strategy name (identical across shards).
    pub fn name(&self) -> &'static str {
        self.shards[0].strat.name()
    }

    /// The shard owning `key`.
    pub fn shard_of(&self, key: i64) -> usize {
        self.check_key(key);
        (key / self.cfg.span()) as usize
    }

    /// The stable (fully installed) version of shard `s`.
    pub fn version(&self, s: usize) -> u64 {
        self.shards[s].version()
    }

    fn check_key(&self, key: i64) {
        assert!(
            (0..self.cfg.keys).contains(&key),
            "key {key} outside the store's key space [0, {})",
            self.cfg.keys
        );
    }

    /// Elided point-get.
    ///
    /// # Errors
    ///
    /// Genuine heap faults only; speculation artifacts (including epoch
    /// instability) are retried by the elision driver.
    ///
    /// # Panics
    ///
    /// If `key` is outside `[0, keys)`.
    pub fn get(&self, key: i64) -> Result<Option<i64>, Fault> {
        self.check_key(key);
        self.shards[self.shard_of(key)].get(&self.heap, key)
    }

    /// Bounded range-scan of `[start, start+len)`, clamped to the key
    /// space: one elided section (one epoch validation) per shard
    /// segment, concatenated in key order. Consistency is per shard —
    /// segments from different shards may sit at different versions,
    /// exactly like the checkpoint's version vector.
    ///
    /// # Errors
    ///
    /// Genuine heap faults only.
    pub fn scan(&self, start: i64, len: usize) -> Result<Vec<(i64, i64)>, Fault> {
        let lo = start.clamp(0, self.cfg.keys);
        let hi = start
            .saturating_add(len as i64)
            .clamp(0, self.cfg.keys);
        let mut out = Vec::new();
        let mut key = lo;
        while key < hi {
            let s = &self.shards[(key / self.cfg.span()) as usize];
            let seg_hi = hi.min(s.base + s.keys);
            out.extend(s.scan(&self.heap, key, seg_hi)?);
            key = seg_hi;
        }
        Ok(out)
    }

    /// Inserts or updates `key`, returning the previous value. One
    /// write section, one COW bucket, one epoch bump.
    ///
    /// # Errors
    ///
    /// Genuine heap faults only (writer-side faults are program bugs).
    ///
    /// # Panics
    ///
    /// If `key` is out of range, or the heap is exhausted.
    pub fn put(&self, key: i64, value: i64) -> Result<Option<i64>, Fault> {
        self.check_key(key);
        self.shards[self.shard_of(key)].put(&self.heap, key, Some(value))
    }

    /// Removes `key`, returning the previous value.
    ///
    /// # Errors
    ///
    /// Genuine heap faults only.
    pub fn remove(&self, key: i64) -> Result<Option<i64>, Fault> {
        self.check_key(key);
        self.shards[self.shard_of(key)].put(&self.heap, key, None)
    }

    /// Applies a write batch. Ops are grouped by shard; each shard's
    /// group installs atomically under **one** epoch bump (the
    /// single-writer-per-shard discipline makes a batch the shard's
    /// unit of versioning). Cross-shard batches are *not* atomic as a
    /// whole — shards version independently, as in the checkpoint cut.
    ///
    /// # Errors
    ///
    /// Genuine heap faults only. The shard whose group faults installs
    /// none of it and keeps its version; the groups of lower shards
    /// stay installed.
    ///
    /// # Panics
    ///
    /// If any key is out of range, or the heap is exhausted.
    pub fn put_many(&self, ops: &[(i64, i64)]) -> Result<(), Fault> {
        // One buffer sorted by key: `runs` cuts it into one contiguous
        // group per shard, already in the key order the shard needs, and
        // the stable sort keeps a later op on a key later, so it wins.
        let span = self.cfg.span();
        let mut routed: Vec<ShardOp> = ops
            .iter()
            .map(|&(key, value)| {
                self.check_key(key);
                (key, Some(value))
            })
            .collect();
        routed.sort_by_key(|&(key, _)| key);
        for group in runs(&routed, 0, span) {
            self.shards[(group[0].0 / span) as usize].apply(&self.heap, group)?;
        }
        Ok(())
    }

    /// One shard's validated, epoch-tagged snapshot.
    ///
    /// # Errors
    ///
    /// Genuine heap faults only.
    pub fn shard_snapshot(&self, s: usize) -> Result<ShardSnapshot, Fault> {
        let (version, pairs) = self.shards[s].snapshot(&self.heap)?;
        Ok(ShardSnapshot {
            shard: s,
            version,
            pairs,
        })
    }

    /// Whole-store checkpoint: every shard snapshotted through its own
    /// elided section. The cut can never mix epochs *within* a shard;
    /// across shards it carries the version vector instead of
    /// pretending to a global point in time.
    ///
    /// # Errors
    ///
    /// Genuine heap faults only.
    pub fn checkpoint(&self) -> Result<StoreCheckpoint, Fault> {
        let shards = (0..self.shards.len())
            .map(|s| self.shard_snapshot(s))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(StoreCheckpoint { shards })
    }

    /// Merged lock statistics across shards.
    pub fn snapshot_stats(&self) -> StatsSnapshot {
        self.shards
            .iter()
            .fold(StatsSnapshot::default(), |acc, s| acc.merge(&s.strat.snapshot()))
    }

    /// Resets statistics on every shard.
    pub fn reset_stats(&self) {
        for s in &self.shards {
            s.strat.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solero::{JavaRwLock, LockStrategy, RwStrategy, SoleroConfig, SoleroStrategy};

    fn small() -> StoreConfig {
        StoreConfig::new(256).with_shards(4).with_bucket_width(8)
    }

    #[test]
    fn roundtrip_under_every_strategy() {
        let makes: Vec<fn() -> BoxedStrategy> = vec![
            || Box::new(LockStrategy::new()),
            || Box::new(RwStrategy::<JavaRwLock>::new()),
            || Box::new(SoleroStrategy::new()),
            || {
                Box::new(SoleroStrategy::configured(
                    SoleroConfig::builder().adaptive(true).build(),
                ))
            },
        ];
        for make in makes {
            let store = KvStore::new_boxed(small(), make);
            assert_eq!(store.get(10).unwrap(), None);
            assert_eq!(store.put(10, 100).unwrap(), None);
            assert_eq!(store.put(10, 101).unwrap(), Some(100));
            assert_eq!(store.get(10).unwrap(), Some(101));
            assert_eq!(store.remove(10).unwrap(), Some(101));
            assert_eq!(store.get(10).unwrap(), None, "{}", store.name());
        }
    }

    #[test]
    fn scan_is_sorted_and_clamped() {
        let store = KvStore::new(small(), SoleroStrategy::new);
        for k in [3i64, 64, 65, 130, 200, 255] {
            store.put(k, k * 2).unwrap();
        }
        // Spans all four shards.
        let all = store.scan(0, 4096).unwrap();
        assert_eq!(
            all,
            vec![(3, 6), (64, 128), (65, 130), (130, 260), (200, 400), (255, 510)]
        );
        // Mid-bucket bounds.
        assert_eq!(store.scan(64, 2).unwrap(), vec![(64, 128), (65, 130)]);
        assert_eq!(store.scan(66, 60).unwrap(), vec![]);
        assert_eq!(store.scan(-5, 4).unwrap(), vec![]);
    }

    #[test]
    fn batch_bumps_each_shard_version_once() {
        let store = KvStore::new(small(), LockStrategy::new);
        assert_eq!(store.version(0), 0);
        // 3 keys in shard 0 (keys 0..64), 1 in shard 2: one bump each.
        store.put_many(&[(1, 10), (2, 20), (63, 30), (128, 40)]).unwrap();
        assert_eq!(store.version(0), 1);
        assert_eq!(store.version(1), 0);
        assert_eq!(store.version(2), 1);
        store.put(1, 11).unwrap();
        assert_eq!(store.version(0), 2);
        let cut = store.checkpoint().unwrap();
        assert_eq!(cut.versions(), vec![2, 0, 1, 0]);
        assert_eq!(cut.len(), 4);
        assert_eq!(cut.get(1), Some(11));
        assert_eq!(cut.get(128), Some(40));
        assert_eq!(cut.get(5), None);
    }

    #[test]
    fn cow_recycles_buckets_instead_of_leaking() {
        let store = KvStore::new(small(), SoleroStrategy::new);
        store.put(0, 0).unwrap();
        let used = store.heap().used_words();
        for i in 0..10_000 {
            store.put(i % 256, i).unwrap();
        }
        // Same-width buckets recycle through the free list: steady
        // state allocates nothing new.
        assert_eq!(store.heap().used_words(), used);
        store.heap().check_integrity().unwrap();
    }

    #[test]
    fn matches_a_model_map_under_random_ops() {
        use solero_testkit::forall;
        forall(48, 0x5EED_5701, |g| {
            let store = KvStore::new(small(), SoleroStrategy::new);
            let mut model = std::collections::BTreeMap::new();
            for _ in 0..g.rng().gen_range(1..200usize) {
                let k = g.rng().gen_range(0..256i64);
                match g.rng().gen_range(0..10u32) {
                    0..=5 => {
                        let v = g.rng().gen::<i64>();
                        assert_eq!(store.put(k, v).unwrap(), model.insert(k, v));
                    }
                    6..=7 => {
                        assert_eq!(store.remove(k).unwrap(), model.remove(&k));
                    }
                    _ => {
                        assert_eq!(store.get(k).unwrap(), model.get(&k).copied());
                    }
                }
            }
            let lo = g.rng().gen_range(0..256i64);
            let n = g.rng().gen_range(0..256usize);
            let expect: Vec<(i64, i64)> = model
                .range(lo..(lo + n as i64).min(256))
                .map(|(&k, &v)| (k, v))
                .collect();
            assert_eq!(store.scan(lo, n).unwrap(), expect);
        });
    }

    #[test]
    fn put_many_batches_match_a_model_map() {
        use solero_testkit::forall;
        forall(48, 0x5EED_5702, |g| {
            let store = KvStore::new(small(), SoleroStrategy::new);
            let live = store.heap().live_objects();
            let mut model = std::collections::BTreeMap::new();
            for _ in 0..g.rng().gen_range(1..40usize) {
                if g.rng().gen_range(0..5u32) == 0 {
                    // Removes leave absent slots for later batches to
                    // write around.
                    let k = g.rng().gen_range(0..256i64);
                    assert_eq!(store.remove(k).unwrap(), model.remove(&k));
                } else {
                    // Keys in random order across shards and buckets; a
                    // narrow window makes duplicates in one batch common,
                    // and a quarter of the batches hold a single key.
                    let len = if g.rng().gen_range(0..4u32) == 0 {
                        1
                    } else {
                        g.rng().gen_range(2..64usize)
                    };
                    let lo = g.rng().gen_range(0..256i64);
                    let hi = g.rng().gen_range(lo + 1..=256i64);
                    let batch: Vec<(i64, i64)> = (0..len)
                        .map(|_| (g.rng().gen_range(lo..hi), g.rng().gen::<i64>()))
                        .collect();
                    store.put_many(&batch).unwrap();
                    // Later duplicates win.
                    model.extend(batch.iter().copied());
                }
                let cut = store.checkpoint().unwrap();
                let got: Vec<(i64, i64)> = cut
                    .shards
                    .iter()
                    .flat_map(|s| s.pairs.iter().copied())
                    .collect();
                let want: Vec<(i64, i64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
                assert_eq!(got, want);
                assert_eq!(
                    store.heap().live_objects(),
                    live,
                    "a batch leaked or lost buckets"
                );
            }
            store.heap().check_integrity().unwrap();
        });
    }

    #[test]
    fn concurrent_snapshots_never_mix_batches() {
        // One writer per shard rewrites its whole shard to a round tag
        // in a single batch; every validated snapshot must be uniform.
        let store = std::sync::Arc::new(KvStore::new(
            StoreConfig::new(64).with_shards(2).with_bucket_width(8),
            SoleroStrategy::new,
        ));
        let span = 32i64;
        std::thread::scope(|sc| {
            for w in 0..2i64 {
                let store = std::sync::Arc::clone(&store);
                sc.spawn(move || {
                    for round in 1..=50i64 {
                        let batch: Vec<(i64, i64)> =
                            (w * span..(w + 1) * span).map(|k| (k, round)).collect();
                        store.put_many(&batch).unwrap();
                    }
                });
            }
            for _ in 0..2 {
                let store = std::sync::Arc::clone(&store);
                sc.spawn(move || {
                    for _ in 0..200 {
                        let cut = store.checkpoint().unwrap();
                        for s in &cut.shards {
                            if let Some(&(_, first)) = s.pairs.first() {
                                assert!(
                                    s.pairs.iter().all(|&(_, v)| v == first),
                                    "mixed-epoch snapshot: {s:?}"
                                );
                                assert_eq!(
                                    s.pairs.len(),
                                    span as usize,
                                    "partial batch visible: {s:?}"
                                );
                                assert_eq!(s.version, first as u64, "version/value drift");
                            }
                        }
                    }
                });
            }
        });
        let stats = store.snapshot_stats();
        assert_eq!(stats.read_aborts, stats.abort_reason_sum(), "{stats}");
        store.heap().check_integrity().unwrap();
    }
}
