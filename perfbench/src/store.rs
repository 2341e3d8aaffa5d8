//! The open-loop store workloads: generator threads issue ops on a fixed
//! arrival schedule and time each one from when it was due, so a stall
//! is charged to every op it delays.

use std::time::{Duration, Instant};

use solero::{BoxedStrategy, SoleroStrategy};
use solero_runtime::stats::StatsSnapshot;
use solero_store::{KvStore, StoreConfig};

use crate::check::{checkpoint_ok, scan_ok, value_for, value_ok};
use crate::gen::{Digest, Rng, Schedule, Zipf};
use crate::trace::{self, op_id, Traced};

/// One op in this many keeps its latency sample and, in a traced run,
/// gets spans.
pub const SAMPLE_EVERY: u64 = 64;
/// Keys per populate batch (one write section per shard group).
const POPULATE_BATCH: i64 = 4096;

/// A store workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct StoreShape {
    pub keys: i64,
    pub shards: usize,
    pub bucket_width: u32,
    /// Zipf skew of key popularity.
    pub theta: f64,
    /// Percent gets and percent scans; the rest are puts.
    pub get_pct: u64,
    pub scan_pct: u64,
    pub scan_len: usize,
    /// Whole-store checkpoints, issued by the last generator thread as
    /// scheduled ops.
    pub checkpoint_every: Option<Duration>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOp {
    Get(i64),
    Scan(i64, usize),
    Put(i64, i64),
    Checkpoint,
}

impl StoreOp {
    pub const KINDS: [&'static str; 4] = ["get", "scan", "put", "checkpoint"];

    fn kind(&self) -> usize {
        match self {
            StoreOp::Get(_) => 0,
            StoreOp::Scan(..) => 1,
            StoreOp::Put(..) => 2,
            StoreOp::Checkpoint => 3,
        }
    }
}

/// Generator thread `w`'s op stream.
#[derive(Clone)]
pub struct StoreGen {
    rng: Rng,
    zipf: Zipf,
    shape: StoreShape,
}

impl StoreGen {
    pub fn new(seed: u64, w: usize, shape: &StoreShape, zipf: &Zipf) -> Self {
        StoreGen {
            rng: Rng::new(seed, 1 + w as u64),
            zipf: zipf.clone(),
            shape: *shape,
        }
    }

    pub fn next_op(&mut self) -> StoreOp {
        let key = self.zipf.key(&mut self.rng) as i64;
        let dice = self.rng.below(100);
        if dice < self.shape.get_pct {
            StoreOp::Get(key)
        } else if dice < self.shape.get_pct + self.shape.scan_pct {
            StoreOp::Scan(key, self.shape.scan_len)
        } else {
            StoreOp::Put(key, value_for(key, self.rng.next_u64()))
        }
    }
}

/// Digest of the first `n` ops of each of `threads` streams.
pub fn digest(seed: u64, shape: &StoreShape, zipf: &Zipf, threads: usize, n: usize) -> Digest {
    let mut d = Digest::default();
    for w in 0..threads {
        let mut g = StoreGen::new(seed, w, shape, zipf);
        for _ in 0..n {
            let (tag, a, b) = match g.next_op() {
                StoreOp::Get(k) => (0, k as u64, 0),
                StoreOp::Scan(k, n) => (1, k as u64, n as u64),
                StoreOp::Put(k, v) => (2, k as u64, v as u64),
                StoreOp::Checkpoint => (3, 0, 0),
            };
            [tag, a, b].into_iter().for_each(|x| d.add(x));
        }
    }
    d
}

/// The system under test: the store, every key present.
pub struct StoreSut {
    pub store: KvStore,
    keys: i64,
}

impl StoreSut {
    /// Builds and populates the store. With `traced`, every shard's lock
    /// is wrapped in [`Traced`] and every populate batch gets spans.
    pub fn build(shape: &StoreShape, seed: u64, traced: bool) -> Self {
        let cfg = StoreConfig::new(shape.keys)
            .with_shards(shape.shards)
            .with_bucket_width(shape.bucket_width);
        let store = KvStore::new_boxed(cfg, || {
            let s: BoxedStrategy = Box::new(SoleroStrategy::new());
            if traced {
                Box::new(Traced(s))
            } else {
                s
            }
        });
        let mut salt = Rng::new(seed, 0);
        for (b, lo) in (0..shape.keys).step_by(POPULATE_BATCH as usize).enumerate() {
            let batch: Vec<(i64, i64)> = (lo..(lo + POPULATE_BATCH).min(shape.keys))
                .map(|k| (k, value_for(k, salt.next_u64())))
                .collect();
            if traced {
                trace::begin_op(op_id(0, b as u64));
            }
            let start = trace::now_ns();
            store.put_many(&batch).expect("populate");
            if traced {
                trace::end_op("populate", 0, start, trace::now_ns());
            }
        }
        StoreSut {
            store,
            keys: shape.keys,
        }
    }

    /// Runs one op and checks what it returned.
    pub fn apply(&self, op: StoreOp) -> bool {
        let s = &self.store;
        match op {
            StoreOp::Get(k) => s.get(k).is_ok_and(|v| value_ok(k, v)),
            StoreOp::Scan(k, n) => s.scan(k, n).is_ok_and(|p| scan_ok(k, n, self.keys, &p)),
            StoreOp::Put(k, v) => s.put(k, v).is_ok_and(|old| value_ok(k, old)),
            StoreOp::Checkpoint => s.checkpoint().is_ok_and(|c| checkpoint_ok(&c, self.keys)),
        }
    }
}

/// One latency sample: from due to done, and from start to done.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the op fell due, ns after the phase's start.
    pub due_ns: u64,
    pub kind: u8,
    pub latency_ns: u32,
    pub service_ns: u32,
}

/// What one open-loop phase measured.
#[derive(Debug, Default)]
pub struct OpenOut {
    /// Ops due in the phase; all of them run, late or not.
    pub ops: u64,
    pub failed: u64,
    /// One op in [`SAMPLE_EVERY`], plus every checkpoint.
    pub samples: Vec<Sample>,
    /// Ops that started a whole per-thread interval or more after due.
    pub late: u64,
    pub max_lag_ns: u64,
    /// From the phase's start to the last op's end.
    pub elapsed: Duration,
    pub stats: StatsSnapshot,
    pub spans: Vec<Vec<trace::Span>>,
    pub dropped: u64,
}

impl OpenOut {
    /// Completed ops per second of the phase.
    pub fn achieved(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64()
    }
}

/// Waits for `due`: sleeps while far off, spins the last stretch.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(200) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Runs one phase of `dur` at `rate` ops/s over all of `gens`' threads.
pub fn run_phase(
    sut: &StoreSut,
    shape: &StoreShape,
    gens: &mut [StoreGen],
    rate: u64,
    dur: Duration,
    traced: bool,
) -> OpenOut {
    let threads = gens.len();
    let sched = Schedule::new(rate, threads);
    let interval_ns = threads as u64 * 1_000_000_000 / rate;
    let before = sut.store.snapshot_stats();
    // Start a little ahead so every thread is waiting when op 0 falls due.
    let t0 = Instant::now() + Duration::from_millis(2);
    let mut out = OpenOut::default();
    let mut last_end = t0;
    std::thread::scope(|s| {
        let workers: Vec<_> = gens
            .iter_mut()
            .enumerate()
            .map(|(w, gen)| {
                let checkpoints = shape.checkpoint_every.filter(|_| w == threads - 1);
                s.spawn(move || {
                    worker(
                        sut,
                        gen,
                        w,
                        sched,
                        t0,
                        dur,
                        interval_ns,
                        checkpoints,
                        traced,
                    )
                })
            })
            .collect();
        for h in workers {
            let r = h.join().expect("generator thread panicked");
            out.ops += r.ops;
            out.failed += r.failed;
            out.samples.extend(r.samples);
            out.late += r.late;
            out.max_lag_ns = out.max_lag_ns.max(r.max_lag_ns);
            last_end = last_end.max(r.last_end);
            out.spans.push(r.spans);
            out.dropped += r.dropped;
        }
    });
    out.elapsed = last_end - t0;
    out.stats = sut.store.snapshot_stats().since(&before);
    out
}

struct WorkerOut {
    ops: u64,
    failed: u64,
    samples: Vec<Sample>,
    late: u64,
    max_lag_ns: u64,
    last_end: Instant,
    spans: Vec<trace::Span>,
    dropped: u64,
}

#[allow(clippy::too_many_arguments)]
fn worker(
    sut: &StoreSut,
    gen: &mut StoreGen,
    w: usize,
    sched: Schedule,
    t0: Instant,
    dur: Duration,
    interval_ns: u64,
    checkpoints: Option<Duration>,
    traced: bool,
) -> WorkerOut {
    if traced {
        trace::reserve();
    }
    let n = sched.thread_ops_before(w, dur.as_nanos() as u64);
    let mut out = WorkerOut {
        ops: 0,
        failed: 0,
        samples: Vec::with_capacity((n / SAMPLE_EVERY) as usize + 64),
        late: 0,
        max_lag_ns: 0,
        last_end: t0,
        spans: Vec::new(),
        dropped: 0,
    };
    let (mut next_checkpoint, mut checkpoints_run) = (checkpoints, 0);
    // `keep`: the op keeps its latency sample and, in a traced run, gets
    // spans.
    let mut run = |op: StoreOp, due_ns: u64, seq: u64, keep: bool| {
        let due = t0 + Duration::from_nanos(due_ns);
        wait_until(due);
        let start = Instant::now();
        let spans = traced && keep;
        if spans {
            trace::begin_op(op_id(w + 1, seq));
        }
        let ok = sut.apply(op);
        let end = Instant::now();
        if spans {
            let [d, s, e] = [due, start, end].map(trace::ns_of);
            trace::end_op(StoreOp::KINDS[op.kind()], d, s, e);
        }
        let lag = (start - due).as_nanos() as u64;
        out.late += u64::from(lag >= interval_ns);
        out.max_lag_ns = out.max_lag_ns.max(lag);
        if keep {
            out.samples.push(Sample {
                due_ns,
                kind: op.kind() as u8,
                latency_ns: (end - due).as_nanos().min(u32::MAX as u128) as u32,
                service_ns: (end - start).as_nanos().min(u32::MAX as u128) as u32,
            });
        }
        out.failed += u64::from(!ok);
        out.ops += 1;
        out.last_end = end;
    };
    for i in 0..n {
        let due_ns = sched.thread_due_ns(w, i);
        while let Some(c) = next_checkpoint.filter(|c| c.as_nanos() as u64 <= due_ns) {
            // Checkpoints are rare: every one is sampled and traced.
            run(
                StoreOp::Checkpoint,
                c.as_nanos() as u64,
                1 << 40 | checkpoints_run,
                true,
            );
            checkpoints_run += 1;
            next_checkpoint = Some(c + checkpoints.expect("checkpoints scheduled"));
        }
        run(gen.next_op(), due_ns, i, i % SAMPLE_EVERY == 0);
    }
    if traced {
        (out.spans, out.dropped) = trace::take();
    }
    out
}
