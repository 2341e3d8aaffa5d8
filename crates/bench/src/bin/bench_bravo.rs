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
//! the coherence traffic) collapses. Each cell carries the lock's
//! counters, so the fast/slow split is `elision_success` against
//! `read_slow_enters`; the headline number is the BRAVO-vs-RWLock
//! speedup at the widest cell.

use solero_bench::record::{best_of, timed, Args, Cell, Host, Record};
use solero_rwlock::{BravoLock, JavaRwLock, RawRwLock};

const THREAD_COUNTS: [usize; 4] = [1, 4, 16, 64];

/// One cell: `threads` workers splitting `total` read sections over a
/// single fresh lock.
fn run_cell<L: RawRwLock>(threads: usize, total: u64) -> Cell {
    let lock = L::default();
    let per = total / threads as u64;
    let secs = timed(threads, |_| {
        for _ in 0..per {
            let g = lock.read();
            std::hint::black_box(&g);
        }
    });
    let stats = lock.stats().snapshot();
    assert_eq!(stats.read_enters, per * threads as u64, "lost reads");
    Cell::new(L::NAME, threads, per * threads as u64, secs, stats)
}

fn main() {
    let args = Args::parse("BENCH_bravo.json", None, &[]);
    // 64 threads must divide the budget evenly.
    let total: u64 = if args.quick { 64 * 1_000 } else { 64 * 100_000 };
    let repeats = if args.quick { 1 } else { 7 };

    eprintln!("bench_bravo: {total} reads per cell, threads {THREAD_COUNTS:?}, best of {repeats}");
    // Every cell of both locks runs once per round.
    let runs: Vec<_> = THREAD_COUNTS
        .iter()
        .flat_map(|&threads| {
            [run_cell::<JavaRwLock> as fn(usize, u64) -> Cell, run_cell::<BravoLock>]
                .map(|run| move || run(threads, total))
        })
        .collect();
    let cells = best_of(repeats, &runs);
    for c in &cells {
        eprintln!(
            "  [{:>8}] {:>2} threads: {:>8.3} Mreads/s ({} fast / {} slow)",
            c.label,
            c.threads,
            c.ops_per_sec() / 1e6,
            c.stats.elision_success,
            c.stats.read_slow_enters
        );
    }

    let (rw, bravo) = (&cells[cells.len() - 2], &cells[cells.len() - 1]);
    let speedup = bravo.ops_per_sec() / rw.ops_per_sec();
    eprintln!("{} vs {} at {} threads: {speedup:.2}x", bravo.label, rw.label, rw.threads);

    Record::new("read-storm", Host::current(args.quick))
        .param("reads_per_cell", total as f64)
        .param("repeats", repeats as f64)
        .param("speedup_at_64_threads", speedup)
        .cells(cells)
        .save(&args.out);
}
