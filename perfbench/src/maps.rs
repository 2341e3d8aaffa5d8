//! The closed-loop map workloads: generator threads call
//! `read_with`/`write_with` on one SOLERO-guarded map back to back.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use solero::{BoxedStrategy, Checkpoint, Fault, SoleroStrategy};
use solero_collections::{JHashMap, JTreeMap};
use solero_heap::Heap;
use solero_runtime::stats::StatsSnapshot;

use crate::check::{value_for, value_ok};
use crate::gen::{Digest, Rng};
use crate::trace::{self, op_id, Traced};

/// Entries in either map: keys `0..ENTRIES`, all present at all times.
pub const ENTRIES: i64 = 1024;
/// Heap words per map: about 3x what either map of [`ENTRIES`] uses,
/// node recycling included.
pub const HEAP_WORDS: usize = 1 << 15;
/// Completed ops are counted per window of this length.
pub const WINDOW: Duration = Duration::from_millis(250);
/// One op in this many is timed on its own for the latency metrics and,
/// in a traced run, gets spans.
pub const SAMPLE_EVERY: u64 = 1024;
/// Timed ops kept per generator thread.
const SAMPLES_PER_THREAD: usize = 1 << 17;
/// Ops between looks at the stop flag.
const CHUNK: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapKind {
    Hash,
    Tree,
}

/// A map workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct MapShape {
    pub kind: MapKind,
    /// Percent of ops that write.
    pub write_pct: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapOp {
    Get(i64),
    /// Overwrite a key's value in place.
    Put(i64, i64),
    /// Remove a key and put it back in one write section, so the node is
    /// freed and reallocated under readers.
    Replace(i64, i64),
}

impl MapOp {
    pub fn label(&self) -> &'static str {
        match self {
            MapOp::Get(_) => "get",
            MapOp::Put(..) => "put",
            MapOp::Replace(..) => "replace",
        }
    }
}

/// Generator thread `w`'s op stream.
pub struct MapGen {
    rng: Rng,
    write_pct: u64,
    /// Ops drawn so far.
    seq: u64,
}

impl MapGen {
    pub fn new(seed: u64, w: usize, shape: &MapShape) -> Self {
        MapGen {
            rng: Rng::new(seed, 1 + w as u64),
            write_pct: shape.write_pct,
            seq: 0,
        }
    }

    /// The next op and its position in the stream.
    pub fn next_op(&mut self) -> (u64, MapOp) {
        self.seq += 1;
        let key = self.rng.below(ENTRIES as u64) as i64;
        if self.write_pct == 0 || self.rng.below(100) >= self.write_pct {
            return (self.seq, MapOp::Get(key));
        }
        let salted = self.rng.next_u64();
        let v = value_for(key, salted >> 1);
        let op = if salted & 1 == 0 {
            MapOp::Put(key, v)
        } else {
            MapOp::Replace(key, v)
        };
        (self.seq, op)
    }
}

/// Digest of the first `n` ops of each of `threads` streams.
pub fn digest(seed: u64, shape: &MapShape, threads: usize, n: usize) -> Digest {
    let mut d = Digest::default();
    for w in 0..threads {
        let mut g = MapGen::new(seed, w, shape);
        for _ in 0..n {
            let (tag, k, v) = match g.next_op().1 {
                MapOp::Get(k) => (0, k, 0),
                MapOp::Put(k, v) => (1, k, v),
                MapOp::Replace(k, v) => (2, k, v),
            };
            [tag, k as u64, v as u64].into_iter().for_each(|x| d.add(x));
        }
    }
    d
}

enum Map {
    Hash(JHashMap),
    Tree(JTreeMap),
}

/// The system under test: one map on its own heap behind one lock.
pub struct MapSut {
    pub heap: Heap,
    map: Map,
    pub strat: BoxedStrategy,
}

impl MapSut {
    /// Builds and populates the map. With `traced`, the lock is wrapped
    /// in [`Traced`] and every populate write gets spans.
    pub fn build(shape: &MapShape, seed: u64, traced: bool) -> Self {
        let heap = Heap::new(HEAP_WORDS);
        let map = match shape.kind {
            MapKind::Hash => Map::Hash(JHashMap::new(&heap, 16).expect("fresh heap")),
            MapKind::Tree => Map::Tree(JTreeMap::new(&heap).expect("fresh heap")),
        };
        let solero: BoxedStrategy = Box::new(SoleroStrategy::new());
        let strat: BoxedStrategy = if traced {
            Box::new(Traced(solero))
        } else {
            solero
        };
        let sut = MapSut { heap, map, strat };
        let mut salt = Rng::new(seed, 0);
        for k in 0..ENTRIES {
            let op = MapOp::Put(k, value_for(k, salt.next_u64()));
            if traced {
                trace::begin_op(op_id(0, k as u64));
            }
            let start = trace::now_ns();
            let prev = sut.apply_write(op);
            assert_eq!(prev, Ok(None), "populate found key {k} present");
            if traced {
                trace::end_op("populate", 0, start, trace::now_ns());
            }
        }
        sut
    }

    fn get(&self, key: i64, ck: &mut dyn Checkpoint) -> Result<Option<i64>, Fault> {
        match &self.map {
            Map::Hash(m) => m.get(&self.heap, key, ck),
            Map::Tree(m) => m.get(&self.heap, key, ck),
        }
    }

    fn put(&self, key: i64, value: i64) -> Result<Option<i64>, Fault> {
        match &self.map {
            Map::Hash(m) => m.put(&self.heap, key, value),
            Map::Tree(m) => m.put(&self.heap, key, value),
        }
    }

    fn remove(&self, key: i64) -> Result<Option<i64>, Fault> {
        match &self.map {
            Map::Hash(m) => m.remove(&self.heap, key),
            Map::Tree(m) => m.remove(&self.heap, key),
        }
    }

    /// Runs a write op; returns the value the key held before.
    fn apply_write(&self, op: MapOp) -> Result<Option<i64>, Fault> {
        self.strat.write_with(|| match op {
            MapOp::Get(_) => unreachable!("not a write"),
            MapOp::Put(k, v) => self.put(k, v),
            MapOp::Replace(k, v) => {
                let old = self.remove(k)?;
                // Absent between the two calls, so the put must insert.
                Ok(self.put(k, v)?.map_or(old, |_| None))
            }
        })
    }

    /// Runs one op and checks what it returned.
    pub fn apply(&self, op: MapOp) -> bool {
        match op {
            MapOp::Get(k) => {
                let got = self
                    .strat
                    .read_with(|ck| self.get(k, ck as &mut dyn Checkpoint));
                got.is_ok_and(|v| value_ok(k, v))
            }
            MapOp::Put(k, _) | MapOp::Replace(k, _) => {
                self.apply_write(op).is_ok_and(|old| value_ok(k, old))
            }
        }
    }

    /// Every entry present with its own value; used at teardown.
    pub fn all_present(&self) -> bool {
        (0..ENTRIES).all(|k| {
            self.get(k, &mut solero::NullCheckpoint)
                .is_ok_and(|v| value_ok(k, v))
        })
    }
}

/// What a closed-loop phase measured.
#[derive(Debug, Default)]
pub struct ClosedOut {
    /// Ops/s of each window, over all threads.
    pub window_rates: Vec<f64>,
    /// Individually timed ops: `(start on the trace clock, ns taken)`.
    pub op_ns: Vec<(u64, u64)>,
    /// Ops run and ops whose result failed its check.
    pub attempted: u64,
    pub failed: u64,
    /// Lock counters over the phase.
    pub stats: StatsSnapshot,
    /// Spans per thread and spans dropped (traced runs).
    pub spans: Vec<Vec<trace::Span>>,
    pub dropped: u64,
}

#[repr(align(128))]
#[derive(Default)]
struct Padded(AtomicU64);

/// Runs one closed-loop generator thread per entry of `gens` against
/// `sut` for `dur`. A `measured` phase counts ops per [`WINDOW`] and
/// times one op in [`SAMPLE_EVERY`]; a warm-up phase only runs.
pub fn run(
    sut: &MapSut,
    gens: &mut [MapGen],
    dur: Duration,
    measured: bool,
    traced: bool,
) -> ClosedOut {
    let done: Vec<Padded> = gens.iter().map(|_| Padded::default()).collect();
    let stop = AtomicBool::new(false);
    let before = sut.strat.snapshot();
    let mut out = ClosedOut::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = gens
            .iter_mut()
            .zip(&done)
            .enumerate()
            .map(|(w, (gen, done))| {
                let stop = &stop;
                s.spawn(move || worker(sut, gen, w, &done.0, stop, measured, traced))
            })
            .collect();
        let total = || {
            done.iter()
                .map(|d| d.0.load(Ordering::Relaxed))
                .sum::<u64>()
        };
        let t0 = Instant::now();
        let (mut last_ops, mut last_t) = (total(), t0);
        for k in 1..=(dur.as_nanos() / WINDOW.as_nanos()).max(1) as u32 {
            std::thread::sleep((t0 + WINDOW * k).saturating_duration_since(Instant::now()));
            let (ops, t) = (total(), Instant::now());
            out.window_rates
                .push((ops - last_ops) as f64 / (t - last_t).as_secs_f64());
            (last_ops, last_t) = (ops, t);
        }
        stop.store(true, Ordering::Relaxed);
        for h in workers {
            let r = h.join().expect("generator thread panicked");
            out.attempted += r.ops;
            out.failed += r.failed;
            out.op_ns.extend(r.op_ns);
            out.spans.push(r.spans);
            out.dropped += r.dropped;
        }
    });
    out.stats = sut.strat.snapshot().since(&before);
    out
}

struct WorkerOut {
    ops: u64,
    failed: u64,
    op_ns: Vec<(u64, u64)>,
    spans: Vec<trace::Span>,
    dropped: u64,
}

fn worker(
    sut: &MapSut,
    gen: &mut MapGen,
    w: usize,
    done: &AtomicU64,
    stop: &AtomicBool,
    measured: bool,
    traced: bool,
) -> WorkerOut {
    let traced = traced && measured;
    if traced {
        trace::reserve();
    }
    // Touched up front, so the buffer's share of the peak RSS does not
    // depend on how many ops the run gets through.
    let mut op_ns = Vec::new();
    if measured {
        op_ns = vec![(u64::MAX, 0); SAMPLES_PER_THREAD];
        op_ns.clear();
    }
    let (mut ops, mut failed) = (0u64, 0u64);
    while !stop.load(Ordering::Relaxed) {
        for _ in 0..CHUNK {
            let (seq, op) = gen.next_op();
            let sampled = measured && seq % SAMPLE_EVERY == 0;
            if traced && sampled {
                trace::begin_op(op_id(w + 1, seq));
            }
            let start = sampled.then(Instant::now);
            let ok = sut.apply(op);
            if let Some(start) = start {
                let [s, e] = [start, Instant::now()].map(trace::ns_of);
                if op_ns.len() < op_ns.capacity() {
                    op_ns.push((s, e - s));
                }
                if traced {
                    trace::end_op(op.label(), 0, s, e);
                }
            }
            failed += u64::from(!ok);
        }
        ops += CHUNK;
        done.store(ops, Ordering::Relaxed);
    }
    let (spans, dropped) = if traced {
        trace::take()
    } else {
        Default::default()
    };
    WorkerOut {
        ops,
        failed,
        op_ns,
        spans,
        dropped,
    }
}
