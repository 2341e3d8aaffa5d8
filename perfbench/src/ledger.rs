//! The lock ledger: the map-read body (a `JHashMap` get over 1024
//! entries, uniform keys) under every contender, in fixed-work batches,
//! on one thread and on two threads sharing one lock.
//!
//! `unlocked` is the body alone and `bare-seqlock` the SNIPPETS.md §2
//! read loop around it, so the distance from either floor to a lock is
//! what that lock's read path costs. The report is the 25th-percentile
//! batch, which drops batches a host stall slowed.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use solero::{
    BoxedStrategy, BravoStrategy, Checkpoint, CompactLock, CompactSpace, Fault, JavaRwLock,
    LockStrategy, NullCheckpoint, RwStrategy, SeqStrategy, SoleroConfig, SoleroStrategy,
};
use solero_collections::JHashMap;
use solero_heap::Heap;

use crate::check::{value_for, value_ok};
use crate::gen::{quantile, Rng};
use crate::maps::{ENTRIES, HEAP_WORDS};
use crate::workload::{Outcome, CONTENDERS};

/// Gets per timed batch.
const BATCH: usize = 4096;
/// Passes over the contender list; each pass gets an equal share of the
/// time, so a slow stretch of the host is spread over all contenders.
const ROUNDS: usize = 2;

/// SNIPPETS.md §2's seqlock read loop, written out here as the floor: one
/// load before the body, one fence and load after, nothing else.
struct BareSeqLock {
    seq: AtomicU64,
}

impl BareSeqLock {
    fn read<R>(&self, mut f: impl FnMut() -> Result<R, Fault>) -> Result<R, Fault> {
        loop {
            let v1 = self.seq.load(Ordering::Acquire);
            if v1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let r = f();
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == v1 {
                return r;
            }
        }
    }
}

fn strategy(name: &str) -> BoxedStrategy {
    let solero = |b: fn(solero::SoleroConfigBuilder) -> solero::SoleroConfigBuilder| {
        Box::new(SoleroStrategy::configured(
            b(SoleroConfig::builder()).build(),
        )) as BoxedStrategy
    };
    match name {
        "SOLERO" => Box::new(SoleroStrategy::new()),
        "WeakBarrier-SOLERO" => solero(|b| b.weak_barrier(true)),
        "Unelided-SOLERO" => solero(|b| b.unelided(true)),
        "Adaptive-SOLERO" => solero(|b| b.adaptive(true)),
        "Lock" => Box::new(LockStrategy::new()),
        "RWLock" => Box::new(RwStrategy::<JavaRwLock>::new()),
        "BRAVO-RW" => Box::new(BravoStrategy::new()),
        "SeqLock" => Box::new(SeqStrategy::new(0u64)),
        other => unreachable!("{other} is not a strategy"),
    }
}

/// Runs `threads` threads of `read` batches for `budget`; returns each
/// batch's ns/op and the ops whose result failed its check.
fn cell<F>(read: &F, keys: &[Vec<i64>], threads: usize, budget: Duration) -> (Vec<f64>, u64, u64)
where
    F: Fn(i64) -> Result<Option<i64>, Fault> + Sync,
{
    let start = Barrier::new(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = keys[..threads]
            .iter()
            .map(|keys| {
                let start = &start;
                s.spawn(move || {
                    let (mut batches, mut failed) = (Vec::new(), 0);
                    start.wait();
                    let end = Instant::now() + budget;
                    loop {
                        let t = Instant::now();
                        for &k in keys {
                            failed += u64::from(!read(k).is_ok_and(|v| value_ok(k, v)));
                        }
                        batches.push(t.elapsed().as_nanos() as f64 / keys.len() as f64);
                        if Instant::now() >= end {
                            break;
                        }
                    }
                    (batches, failed)
                })
            })
            .collect();
        let mut out = (Vec::new(), 0, 0);
        for h in handles {
            let (b, f) = h.join().expect("ledger thread panicked");
            out.2 += (b.len() * BATCH) as u64;
            out.0.extend(b);
            out.1 += f;
        }
        out
    })
}

/// Runs every contender on one and on two threads within `seconds`.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let heap = Heap::new(HEAP_WORDS);
    let map = JHashMap::new(&heap, 16).expect("fresh heap");
    let mut salt = Rng::new(seed, 0);
    for k in 0..ENTRIES {
        map.put(&heap, k, value_for(k, salt.next_u64()))
            .expect("populate");
    }
    let keys: Vec<Vec<i64>> = (0..2)
        .map(|w| {
            let mut rng = Rng::new(seed, 100 + w);
            (0..BATCH)
                .map(|_| rng.below(ENTRIES as u64) as i64)
                .collect()
        })
        .collect();
    let get = |k: i64, ck: &mut dyn Checkpoint| map.get(&heap, k, ck);
    let cells = CONTENDERS.len() * 2 * ROUNDS;
    let budget = Duration::from_secs_f64(seconds / cells as f64);

    let mut batches = vec![[Vec::new(), Vec::new()]; CONTENDERS.len()];
    let mut out = Outcome::default();
    for _ in 0..ROUNDS {
        for (c, name) in CONTENDERS.iter().enumerate() {
            for (t, threads) in [1, 2].into_iter().enumerate() {
                // A fresh lock per cell, so no cell inherits another's
                // lock state or counters.
                let (b, failed, ops) = match *name {
                    "unlocked" => cell(&|k| get(k, &mut NullCheckpoint), &keys, threads, budget),
                    "bare-seqlock" => {
                        let lock = BareSeqLock {
                            seq: AtomicU64::new(0),
                        };
                        cell(
                            &|k| lock.read(|| get(k, &mut NullCheckpoint)),
                            &keys,
                            threads,
                            budget,
                        )
                    }
                    "CompactLock" => {
                        let (space, lock) = (CompactSpace::new(), CompactLock::new());
                        let read = |k| lock.bind(&space).read_only(|| get(k, &mut NullCheckpoint));
                        cell(&read, &keys, threads, budget)
                    }
                    _ => {
                        let s = strategy(name);
                        let read = |k| s.read_with(|ck| get(k, ck as &mut dyn Checkpoint));
                        cell(&read, &keys, threads, budget)
                    }
                };
                batches[c][t].extend(b);
                out.attempted += ops;
                out.failed += failed;
            }
        }
    }
    for (c, name) in CONTENDERS.iter().enumerate() {
        for (t, suffix) in ["", "_2t"].into_iter().enumerate() {
            let p25 = quantile(&batches[c][t], 0.25);
            out.put(format!("ledger.read_ns{suffix}.{name}"), p25, "ns");
        }
    }
    out
}
