//! Property-based model tests: the shadow-heap collections must behave
//! exactly like `std::collections` maps under arbitrary operation
//! sequences, and the red-black invariants must hold after every
//! mutation.

use solero::NullCheckpoint;
use solero_collections::{JHashMap, JTreeMap};
use solero_heap::Heap;
use solero_testkit::{forall, TestRng};

#[derive(Debug, Clone)]
enum Op {
    Put(i64, i64),
    Remove(i64),
    Get(i64),
}

impl Op {
    fn key(&self) -> i64 {
        match *self {
            Op::Put(k, _) | Op::Remove(k) | Op::Get(k) => k,
        }
    }
}

// A small key space maximizes collisions and structural churn. The two
// extremes put a tree descent's `key > k` turn at the edges of `i64`.
fn gen_key(rng: &mut TestRng) -> i64 {
    match rng.gen_range(-33i64..33) {
        -33 => i64::MIN,
        32 => i64::MAX,
        k => k,
    }
}

fn gen_op(rng: &mut TestRng) -> Op {
    match rng.gen_range(0u32..3) {
        0 => Op::Put(gen_key(rng), rng.gen::<i64>()),
        1 => Op::Remove(gen_key(rng)),
        _ => Op::Get(gen_key(rng)),
    }
}

#[test]
fn hashmap_matches_std_model() {
    forall(256, 0x4A54, |g| {
        let ops = g.vec(1, 400, gen_op);
        let heap = Heap::new(1 << 20);
        let map = JHashMap::new(&heap, 4).unwrap();
        let mut model = std::collections::HashMap::new();
        let mut ck = NullCheckpoint;
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    assert_eq!(map.put(&heap, k, v).unwrap(), model.insert(k, v));
                }
                Op::Remove(k) => {
                    assert_eq!(map.remove(&heap, k).unwrap(), model.remove(&k));
                }
                Op::Get(k) => {
                    assert_eq!(map.get(&heap, k, &mut ck).unwrap(), model.get(&k).copied());
                }
            }
            assert_eq!(map.len(&heap).unwrap(), model.len());
        }
        let mut got = map.entries(&heap, &mut ck).unwrap();
        got.sort_unstable();
        let mut want: Vec<_> = model.into_iter().collect();
        want.sort_unstable();
        assert_eq!(got, want);
    });
}

#[test]
fn treemap_matches_std_model_and_invariants() {
    forall(256, 0x74EE, |g| {
        let ops = g.vec(1, 400, gen_op);
        let heap = Heap::new(1 << 20);
        let map = JTreeMap::new(&heap).unwrap();
        let mut model = std::collections::BTreeMap::new();
        let mut ck = NullCheckpoint;
        for op in ops {
            let probe = op.key();
            match op {
                Op::Put(k, v) => {
                    assert_eq!(map.put(&heap, k, v).unwrap(), model.insert(k, v));
                }
                Op::Remove(k) => {
                    assert_eq!(map.remove(&heap, k).unwrap(), model.remove(&k));
                }
                Op::Get(k) => {
                    assert_eq!(map.get(&heap, k, &mut ck).unwrap(), model.get(&k).copied());
                }
            }
            map.check_invariants(&heap).unwrap();
            assert_eq!(
                map.first_key(&heap, &mut ck).unwrap(),
                model.keys().next().copied()
            );
            assert_eq!(
                map.floor_key(&heap, probe, &mut ck).unwrap(),
                model.range(..=probe).next_back().map(|(&k, _)| k)
            );
        }
        let got = map.entries(&heap, &mut ck).unwrap();
        let want: Vec<_> = model.into_iter().collect();
        assert_eq!(got, want);
    });
}

#[test]
fn treemap_floor_matches_model() {
    forall(256, 0xF100,  |g| {
        let n_keys = g.size(1, 51) - 1;
        let keys: std::collections::BTreeSet<i64> =
            (0..n_keys).map(|_| g.gen_range(-100i64..100)).collect();
        let probes = g.vec(1, 40, |rng| rng.gen_range(-110i64..110));
        let heap = Heap::new(1 << 18);
        let map = JTreeMap::new(&heap).unwrap();
        let mut ck = NullCheckpoint;
        for &k in &keys {
            map.put(&heap, k, k).unwrap();
        }
        for p in probes {
            let want = keys.range(..=p).next_back().copied();
            assert_eq!(map.floor_key(&heap, p, &mut ck).unwrap(), want);
        }
    });
}

/// Concurrency: speculative SOLERO readers racing a writer must only
/// ever *return* values that were actually stored for that key (torn
/// observations must be filtered out by validation).
#[test]
fn speculative_reads_are_never_torn() {
    use solero::{Fault, SoleroLock};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let heap = Arc::new(Heap::new(1 << 22));
    let map = JHashMap::new(&heap, 64).unwrap();
    let lock = Arc::new(SoleroLock::new());
    let stop = Arc::new(AtomicBool::new(false));

    // Invariant: value for key k is always k * 1_000_003.
    const M: i64 = 1_000_003;
    std::thread::scope(|s| {
        {
            let (heap, lock, stop) = (Arc::clone(&heap), Arc::clone(&lock), Arc::clone(&stop));
            s.spawn(move || {
                let mut i = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let k = i % 512;
                    lock.write(|| {
                        if i % 3 == 2 {
                            map.remove(&heap, k).unwrap();
                        } else {
                            map.put(&heap, k, k * M).unwrap();
                        }
                    });
                    i += 1;
                }
            });
        }
        for _ in 0..4 {
            let (heap, lock) = (Arc::clone(&heap), Arc::clone(&lock));
            s.spawn(move || {
                for i in 0..30_000i64 {
                    let k = i % 512;
                    let got = lock
                        .read_only(|ck| map.get(&heap, k, ck))
                        .unwrap_or_else(|e: Fault| panic!("genuine fault leaked: {e}"));
                    if let Some(v) = got {
                        assert_eq!(v, k * M, "validated read returned a torn value");
                    }
                }
            });
        }
        // Let readers finish, then stop the writer.
        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
    });
    let snap = lock.stats().snapshot();
    assert!(snap.elision_success > 0, "some reads must have elided: {snap}");
}

/// Same property for the tree map, whose rotations give speculation far
/// more structural churn to trip over.
#[test]
fn speculative_tree_reads_are_never_torn() {
    use solero::{Fault, SoleroLock};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let heap = Arc::new(Heap::new(1 << 22));
    let map = JTreeMap::new(&heap).unwrap();
    let lock = Arc::new(SoleroLock::new());
    let stop = Arc::new(AtomicBool::new(false));

    const M: i64 = 777_777_777;
    std::thread::scope(|s| {
        {
            let (heap, lock, stop) = (Arc::clone(&heap), Arc::clone(&lock), Arc::clone(&stop));
            s.spawn(move || {
                let mut i = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let k = (i * 37) % 256;
                    lock.write(|| {
                        if i % 4 == 3 {
                            map.remove(&heap, k).unwrap();
                        } else {
                            map.put(&heap, k, k * M).unwrap();
                        }
                    });
                    i += 1;
                }
            });
        }
        for _ in 0..4 {
            let (heap, lock) = (Arc::clone(&heap), Arc::clone(&lock));
            s.spawn(move || {
                for i in 0..20_000i64 {
                    let k = (i * 11) % 256;
                    let got = lock
                        .read_only(|ck| map.get(&heap, k, ck))
                        .unwrap_or_else(|e: Fault| panic!("genuine fault leaked: {e}"));
                    if let Some(v) = got {
                        assert_eq!(v, k * M, "validated tree read returned a torn value");
                    }
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
    });
    // The writer mutated constantly, so some speculative failures are
    // expected — and they must all have been recovered from.
    let snap = lock.stats().snapshot();
    assert!(snap.elision_success > 0, "{snap}");
}
