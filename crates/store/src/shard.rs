//! One shard: a strategy lock, an epoch counter, and a COW bucket
//! directory. All cross-thread visibility flows through the
//! `solero-sync` facade so the model checker sees every step of the
//! install handshake.

use solero::{BoxedStrategy, Fault};
use solero_heap::{ClassId, Heap, ObjRef};
use solero_sync::atomic::{fence, AtomicU64, Ordering};

/// Directory object: one `ObjRef` slot per bucket.
pub(crate) const DIR_CLASS: ClassId = ClassId::new(17);
/// Bucket object: slot 0 = presence bitmap, slots `1..=width` = values.
pub(crate) const BUCKET_CLASS: ClassId = ClassId::new(18);

/// A write operation already routed to this shard: `Some` = put,
/// `None` = remove.
pub(crate) type ShardOp = (i64, Option<i64>);

/// Splits key-sorted `ops` into runs of keys that share a block
/// `[base + n * width, base + (n + 1) * width)` — a shard's buckets, or
/// the store's shards — with one binary search per run.
pub(crate) fn runs(mut ops: &[ShardOp], base: i64, width: i64) -> impl Iterator<Item = &[ShardOp]> {
    std::iter::from_fn(move || {
        let &(key, _) = ops.first()?;
        let end = key + width - (key - base) % width;
        let (run, rest) = ops.split_at(ops.partition_point(|&(k, _)| k < end));
        ops = rest;
        Some(run)
    })
}

/// One bucket of a write batch on its way in.
struct Install<'a> {
    /// The directory slot the fresh bucket swings into.
    slot: &'a AtomicU64,
    /// The bucket it displaces, and that bucket's presence bitmap.
    old: ObjRef,
    bits: u64,
    /// The bucket's first key.
    first: i64,
    /// The bucket's ops, in key order.
    run: &'a [ShardOp],
    /// The copy, null until built.
    fresh: ObjRef,
}

pub(crate) struct Shard {
    pub(crate) strat: BoxedStrategy,
    /// Seqlock epoch: odd while a writer is swinging directory slots,
    /// even otherwise. Version = `epoch >> 1`.
    epoch: AtomicU64,
    dir: ObjRef,
    pub(crate) base: i64,
    pub(crate) keys: i64,
    width: u32,
}

impl Shard {
    /// Allocates the directory and one empty bucket per slot.
    pub(crate) fn new(
        heap: &Heap,
        strat: BoxedStrategy,
        base: i64,
        keys: i64,
        width: u32,
    ) -> Self {
        let buckets = ((keys + width as i64 - 1) / width as i64) as u32;
        let dir = heap
            .alloc(DIR_CLASS, buckets)
            .expect("store heap sized for its own directory");
        for b in 0..buckets {
            let bucket = heap
                .alloc(BUCKET_CLASS, 1 + width)
                .expect("store heap sized for its own buckets");
            // Setup-time plain stores: nothing is shared yet.
            heap.store_plain(bucket, 0, 0).expect("fresh bucket");
            heap.store_ref(dir, b, bucket).expect("fresh directory");
        }
        Shard {
            strat,
            epoch: AtomicU64::new(0),
            dir,
            base,
            keys,
            width,
        }
    }

    /// Stable version: completed installs only.
    pub(crate) fn version(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst) >> 1
    }

    fn slot_of(&self, key: i64) -> (u32, u32) {
        debug_assert!(key >= self.base && key < self.base + self.keys);
        let off = (key - self.base) as u64;
        ((off / self.width as u64) as u32, (off % self.width as u64) as u32)
    }

    /// Epoch capture at section entry. An odd value means an install is
    /// mid-flight; returning [`Fault::Inconsistent`] hands the attempt
    /// to the elision driver, which classifies it as an
    /// `async_revalidation_fail` abort and retries.
    fn epoch_enter(&self) -> Result<u64, Fault> {
        let e = self.epoch.load(Ordering::SeqCst);
        if e & 1 == 1 {
            return Err(Fault::Inconsistent);
        }
        Ok(e)
    }

    /// Epoch re-validation at section exit: the snapshot is discarded
    /// unless no install started since entry. The fence keeps the data
    /// loads above from sinking below the epoch re-read.
    fn epoch_exit(&self, entry: u64) -> Result<(), Fault> {
        fence(Ordering::SeqCst);
        if self.epoch.load(Ordering::SeqCst) != entry {
            return Err(Fault::Inconsistent);
        }
        Ok(())
    }

    /// Speculative value load; every heap fault here can be a
    /// speculation artifact (recycled bucket) and is settled by the
    /// driver's word validation.
    fn load_value(&self, heap: &Heap, key: i64) -> Result<Option<i64>, Fault> {
        let (b, i) = self.slot_of(key);
        let bucket = heap.load_ref(self.dir, DIR_CLASS, b)?;
        let bits = heap.load(bucket, BUCKET_CLASS, 0)?;
        if bits >> i & 1 == 0 {
            return Ok(None);
        }
        Ok(Some(heap.load_i64(bucket, BUCKET_CLASS, 1 + i)?))
    }

    /// Elided point-get.
    pub(crate) fn get(&self, heap: &Heap, key: i64) -> Result<Option<i64>, Fault> {
        self.strat.read_with(|ck| {
            let e = self.epoch_enter()?;
            let v = self.load_value(heap, key)?;
            ck.checkpoint()?;
            self.epoch_exit(e)?;
            Ok(v)
        })
    }

    /// Elided scan of `[lo, hi)` (shard-local bounds): one section and
    /// **one** epoch validation for the whole segment. Present pairs
    /// are appended in ascending key order.
    pub(crate) fn scan(&self, heap: &Heap, lo: i64, hi: i64) -> Result<Vec<(i64, i64)>, Fault> {
        debug_assert!(lo >= self.base && hi <= self.base + self.keys && lo <= hi);
        self.strat.read_with(|ck| {
            let e = self.epoch_enter()?;
            let mut pairs = Vec::new();
            let mut key = lo;
            while key < hi {
                let (b, i0) = self.slot_of(key);
                let bucket = heap.load_ref(self.dir, DIR_CLASS, b)?;
                let bits = heap.load(bucket, BUCKET_CLASS, 0)?;
                let last = (self.width - 1).min((hi - 1 - self.base) as u32
                    - b * self.width);
                for i in i0..=last {
                    if bits >> i & 1 == 1 {
                        let k = self.base + (b * self.width + i) as i64;
                        pairs.push((k, heap.load_i64(bucket, BUCKET_CLASS, 1 + i)?));
                    }
                }
                // One check-point per bucket bounds how stale a doomed
                // speculation can run, without per-key cost.
                ck.checkpoint()?;
                key = self.base + ((b + 1) * self.width) as i64;
            }
            self.epoch_exit(e)?;
            Ok(pairs)
        })
    }

    /// Elided whole-shard snapshot, tagged with the validated version.
    pub(crate) fn snapshot(&self, heap: &Heap) -> Result<(u64, Vec<(i64, i64)>), Fault> {
        self.strat.read_with(|ck| {
            let e = self.epoch_enter()?;
            let mut pairs = Vec::new();
            let buckets = ((self.keys + self.width as i64 - 1) / self.width as i64) as u32;
            for b in 0..buckets {
                let bucket = heap.load_ref(self.dir, DIR_CLASS, b)?;
                let bits = heap.load(bucket, BUCKET_CLASS, 0)?;
                let last = (self.width - 1).min((self.keys - 1) as u32 - b * self.width);
                for i in 0..=last {
                    if bits >> i & 1 == 1 {
                        let k = self.base + (b * self.width + i) as i64;
                        pairs.push((k, heap.load_i64(bucket, BUCKET_CLASS, 1 + i)?));
                    }
                }
                ck.checkpoint()?;
            }
            self.epoch_exit(e)?;
            Ok((e >> 1, pairs))
        })
    }

    /// One write batch as one write section + one epoch bump.
    pub(crate) fn apply(&self, heap: &Heap, ops: &[ShardOp]) -> Result<(), Fault> {
        self.strat.write_with(|| self.apply_locked(heap, ops))
    }

    /// Put returning the previous value (read under the same lock).
    pub(crate) fn put(&self, heap: &Heap, key: i64, val: Option<i64>) -> Result<Option<i64>, Fault> {
        self.strat.write_with(|| {
            let old = self.load_value(heap, key)?;
            self.apply_locked(heap, &[(key, val)])?;
            Ok(old)
        })
    }

    /// The COW-install/epoch-bump handshake. Caller holds the shard's
    /// write lock (runs inside a `write_with` section).
    ///
    /// `ops` arrive in key order — one op from `put`/`remove`, or one
    /// shard's group of a `put_many` batch, which sorts the whole batch
    /// once — so routing is just splitting them into per-bucket runs.
    /// That sort is stable: the later of two writes to a key comes
    /// later in its run and wins. Each run becomes one [`Install`].
    fn apply_locked(&self, heap: &Heap, ops: &[ShardOp]) -> Result<(), Fault> {
        assert!(
            ops.is_sorted_by_key(|&(key, _)| key),
            "shard batch out of key order"
        );
        let (Some(&(lo, _)), Some(&(hi, _))) = (ops.first(), ops.last()) else {
            return Ok(());
        };
        for key in [lo, hi] {
            assert!(
                key >= self.base && key < self.base + self.keys,
                "key {key} outside shard range [{}, {})",
                self.base,
                self.base + self.keys
            );
        }
        if self.slot_of(lo).0 == self.slot_of(hi).0 {
            // One bucket, as for every `put`/`remove`: no Rust
            // allocation at all.
            return self.install(heap, &mut [self.resolve(heap, ops)?]);
        }
        let mut installs = runs(ops, self.base, self.width as i64)
            .map(|run| self.resolve(heap, run))
            .collect::<Result<Vec<_>, _>>()?;
        self.install(heap, &mut installs)
    }

    /// Resolves one bucket's run: the directory slot the fresh copy
    /// will swing into and the bucket it displaces. Every run is
    /// resolved before any fresh bucket is allocated, so a stale
    /// directory entry faults here rather than being handed back by
    /// the allocator as one of this batch's fresh buckets.
    fn resolve<'a>(&self, heap: &'a Heap, run: &'a [ShardOp]) -> Result<Install<'a>, Fault> {
        let (b, _) = self.slot_of(run[0].0);
        let slot = heap.slot_atomic(self.dir, b)?;
        let old = ObjRef::from_raw(slot.load(Ordering::Acquire) as u32);
        Ok(Install {
            slot,
            old,
            bits: heap.load(old, BUCKET_CLASS, 0)?,
            first: self.base + (b * self.width) as i64,
            run,
            fresh: ObjRef::NULL,
        })
    }

    /// Builds `ins`'s fresh bucket off to the side from the old bucket
    /// plus the run's ops. Plain stores suffice — publication happens
    /// via the directory swing and the epoch RMWs in [`Self::install`].
    fn build(&self, heap: &Heap, ins: &mut Install<'_>) -> Result<(), Fault> {
        ins.fresh = heap
            .alloc(BUCKET_CLASS, 1 + self.width)
            .unwrap_or_else(|_| {
                panic!("store heap exhausted mid-write: grow StoreConfig::new(keys)")
            });
        let (mut bits, mut touched) = (ins.bits, 0u64);
        for &(key, val) in ins.run {
            let i = (key - ins.first) as u32;
            touched |= 1 << i;
            match val {
                Some(v) => {
                    bits |= 1 << i;
                    heap.store_plain(ins.fresh, 1 + i, v as u64)?;
                }
                None => bits &= !(1 << i),
            }
        }
        // Readers never load an absent slot, so the only old values
        // worth copying are the present ones the run left alone.
        let mut copy = ins.bits & !touched;
        while copy != 0 {
            let i = copy.trailing_zeros();
            heap.store_plain(ins.fresh, 1 + i, heap.load_untyped(ins.old, 1 + i)?)?;
            copy &= copy - 1;
        }
        heap.store(ins.fresh, 0, bits)
    }

    /// Builds every fresh bucket, then runs the install window. A
    /// fault while building frees the fresh buckets built so far and
    /// returns with the epoch still even. Every slot was resolved
    /// beforehand, so from the odd bump on nothing can fail: the swing
    /// is straight-line stores.
    fn install(&self, heap: &Heap, installs: &mut [Install<'_>]) -> Result<(), Fault> {
        if let Err(fault) = installs
            .iter_mut()
            .try_for_each(|ins| self.build(heap, ins))
        {
            for ins in installs.iter().filter(|ins| !ins.fresh.is_null()) {
                heap.free(ins.fresh);
            }
            return Err(fault);
        }
        // Odd epoch first: any reader that overlaps the directory
        // swings sees odd at entry or a changed value at exit, so no
        // snapshot can mix two versions. The `SeqCst` RMWs also fence
        // the build-phase stores on TSO — by the time the even bump is
        // visible, every new bucket is.
        self.epoch.fetch_add(1, Ordering::SeqCst);
        for ins in installs.iter() {
            ins.slot.store(ins.fresh.raw() as u64, Ordering::Release);
        }
        self.epoch.fetch_add(1, Ordering::SeqCst);
        // Old buckets are freed only after the new version is visible;
        // a straggling reader touching one faults on the recycled
        // generation and the driver retries it.
        for ins in installs.iter() {
            heap.free(ins.old);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solero::SoleroStrategy;

    /// One 64-key shard in 8-key buckets, every key `k` holding `10 * k`.
    fn populated(heap: &Heap) -> Shard {
        let shard = Shard::new(heap, Box::new(SoleroStrategy::new()), 0, 64, 8);
        let all: Vec<ShardOp> = (0..64).map(|k| (k, Some(10 * k))).collect();
        shard.apply(heap, &all).unwrap();
        shard
    }

    /// Applies a batch touching bucket 1 and then the broken bucket 5,
    /// and checks the fault left no trace: the epoch is still the same
    /// even value, no fresh bucket outlives the batch, and the arena
    /// still tiles.
    fn faulting_batch(heap: &Heap, shard: &Shard) -> Fault {
        let (epoch, live) = (shard.epoch.load(Ordering::SeqCst), heap.live_objects());
        assert_eq!(epoch & 1, 0);
        let fault = shard
            .apply(heap, &[(8, Some(-1)), (40, Some(-1))])
            .expect_err("a broken bucket behind the directory must fault");
        assert_eq!(
            shard.epoch.load(Ordering::SeqCst),
            epoch,
            "install window opened"
        );
        assert_eq!(heap.live_objects(), live, "fresh buckets leaked");
        heap.check_integrity().unwrap();
        assert_eq!(
            shard.get(heap, 8).unwrap(),
            Some(80),
            "half the batch landed"
        );
        fault
    }

    #[test]
    fn a_faulting_build_frees_its_fresh_buckets_and_keeps_the_epoch_even() {
        // A bucket freed behind the directory faults while its run is
        // resolved, before any fresh bucket is allocated (and so
        // before the allocator could hand its storage back as one).
        let heap = Heap::new(1 << 12);
        let shard = populated(&heap);
        heap.free(heap.load_ref(shard.dir, DIR_CLASS, 5).unwrap());
        assert!(matches!(
            faulting_batch(&heap, &shard),
            Fault::StaleHandle { .. }
        ));

        // A bucket too short for its bitmap resolves, then faults while
        // its present values are copied — after the fresh buckets for
        // both runs were allocated, so both must be freed again.
        let heap = Heap::new(1 << 12);
        let shard = populated(&heap);
        let short = heap.alloc(BUCKET_CLASS, 2).unwrap();
        heap.store(short, 0, 0b110).unwrap();
        heap.store_ref(shard.dir, 5, short).unwrap();
        assert!(matches!(
            faulting_batch(&heap, &shard),
            Fault::IndexOutOfBounds { index: 2, len: 2 }
        ));
    }
}
