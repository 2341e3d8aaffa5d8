//! `bench_bravo` — reader-throughput sweep of the BRAVO biased lock
//! against the plain `RWLock` baseline, emitted as `BENCH_bravo.json`.
//!
//! ```text
//! bench_bravo [--quick] [--out PATH]
//! ```
//!
//! A fixed budget of read acquire/release pairs is split evenly across
//! 1, 4, 16 and 64 threads hammering one lock with **no writers** — the
//! workload BRAVO's bias is built for. `JavaRwLock` pays its shared
//! lock-word CAS and the `READ_HOLDS` reentrancy map on every pair;
//! biased `BravoLock` readers publish into the per-thread visible-
//! readers slot instead, so the per-op cost (and, on multicore hosts,
//! the coherence traffic) collapses. Each cell reports the measured
//! reads/s plus the fast/slow taxonomy; the headline number is the
//! BRAVO-vs-RWLock speedup at the widest cell.

use std::path::PathBuf;
use std::sync::Barrier;
use std::time::Instant;

use solero_rwlock::{BravoLock, JavaRwLock, RawRwLock};

const THREAD_COUNTS: [usize; 4] = [1, 4, 16, 64];

struct Cell {
    threads: usize,
    reads: u64,
    secs: f64,
    fast_reads: u64,
    slow_reads: u64,
}

impl Cell {
    fn mreads_per_sec(&self) -> f64 {
        self.reads as f64 / self.secs / 1e6
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"threads\":{},\"reads\":{},\"secs\":{:.6},\"mreads_per_sec\":{:.4},\
             \"fast_reads\":{},\"slow_reads\":{}}}",
            self.threads,
            self.reads,
            self.secs,
            self.mreads_per_sec(),
            self.fast_reads,
            self.slow_reads
        )
    }
}

/// One cell: `threads` workers splitting `total` read sections over a
/// single fresh lock, started together off a barrier.
fn run_cell<L: RawRwLock>(threads: usize, total: u64) -> Cell {
    let lock = L::default();
    let per = total / threads as u64;
    let start = Barrier::new(threads + 1);
    let t0 = std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                start.wait();
                for _ in 0..per {
                    let g = lock.read();
                    std::hint::black_box(&g);
                }
            });
        }
        // Clock starts *before* the barrier releases: if it started
        // after, the main thread could be descheduled across the
        // release and wake with the work already done, crediting the
        // lock with absurd throughput. This way the elapsed time can
        // only be overestimated, which best-of-N repeats then trims.
        let t0 = Instant::now();
        start.wait();
        t0
    });
    let secs = t0.elapsed().as_secs_f64();
    let snap = lock.stats().snapshot();
    assert_eq!(snap.read_enters, per * threads as u64, "lost reads");
    Cell {
        threads,
        reads: per * threads as u64,
        secs,
        fast_reads: snap.elision_success,
        slow_reads: snap.read_slow_enters,
    }
}

/// Best-of-`repeats` per cell, with the two locks interleaved inside
/// each repeat round: on a shared (single-core CI) host, steal time and
/// frequency drift swamp a single timing, and interleaving keeps a slow
/// patch from landing entirely on one contender.
fn run_sweep(total: u64, repeats: usize) -> (Vec<Cell>, Vec<Cell>) {
    let mut rw: Vec<Option<Cell>> = (0..THREAD_COUNTS.len()).map(|_| None).collect();
    let mut bravo: Vec<Option<Cell>> = (0..THREAD_COUNTS.len()).map(|_| None).collect();
    let keep_best = |slot: &mut Option<Cell>, c: Cell| {
        if slot.as_ref().is_none_or(|b| c.secs < b.secs) {
            *slot = Some(c);
        }
    };
    for round in 0..repeats {
        eprintln!("  repeat {}/{repeats}", round + 1);
        for (i, &threads) in THREAD_COUNTS.iter().enumerate() {
            keep_best(&mut rw[i], run_cell::<JavaRwLock>(threads, total));
            keep_best(&mut bravo[i], run_cell::<BravoLock>(threads, total));
        }
    }
    let unwrap = |cells: Vec<Option<Cell>>, name: &str| -> Vec<Cell> {
        let cells: Vec<Cell> = cells.into_iter().map(Option::unwrap).collect();
        for c in &cells {
            eprintln!(
                "  [{name:>8}] {:>2} threads: {:>8.3} Mreads/s ({} fast / {} slow)",
                c.threads,
                c.mreads_per_sec(),
                c.fast_reads,
                c.slow_reads
            );
        }
        cells
    };
    (
        unwrap(rw, <JavaRwLock as RawRwLock>::NAME),
        unwrap(bravo, <BravoLock as RawRwLock>::NAME),
    )
}

fn cells_json(cells: &[Cell]) -> String {
    cells.iter().map(Cell::to_json).collect::<Vec<_>>().join(",\n      ")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_bravo.json"));
    // 64 threads must divide the budget evenly.
    let total: u64 = if quick { 64 * 1_000 } else { 64 * 100_000 };
    let repeats = if quick { 1 } else { 7 };

    eprintln!("bench_bravo: {total} reads per cell, threads {THREAD_COUNTS:?}, best of {repeats}");
    let (rw_cells, bravo_cells) = run_sweep(total, repeats);
    let (rw_json, bravo_json) = (cells_json(&rw_cells), cells_json(&bravo_cells));

    let widest = THREAD_COUNTS.len() - 1;
    let speedup = bravo_cells[widest].mreads_per_sec() / rw_cells[widest].mreads_per_sec();
    eprintln!(
        "BRAVO-RW vs RWLock at {} threads: {speedup:.2}x",
        THREAD_COUNTS[widest]
    );

    // Assembled by hand like BENCH_adaptive.json: JsonObject has no
    // nested values, and the document must stay `solero_obs::json`
    // re-parseable (crates/bench/tests/bench_artifacts.rs).
    let doc = format!(
        "{{\n  \"workload\": \"read-storm\",\n  \
         \"reads_per_cell\": {total},\n  \
         \"thread_counts\": [1, 4, 16, 64],\n  \
         \"speedup_at_64_threads\": {speedup:.4},\n  \
         \"runs\": [\n    \
         {{\"strategy\": \"{}\", \"cells\": [\n      {rw_json}\n    ]}},\n    \
         {{\"strategy\": \"{}\", \"cells\": [\n      {bravo_json}\n    ]}}\n  ]\n}}\n",
        <JavaRwLock as RawRwLock>::NAME,
        <BravoLock as RawRwLock>::NAME,
    );
    std::fs::write(&out, &doc).unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    eprintln!("wrote {}", out.display());
}
