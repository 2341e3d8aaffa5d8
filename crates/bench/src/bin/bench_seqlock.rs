//! `bench_seqlock` — the inline seqlock's read gap and its fallback
//! storm, emitted as `BENCH_seqlock.json`.
//!
//! ```text
//! bench_seqlock [--quick] [--out PATH]
//! ```
//!
//! **Read sweep** — a fixed budget of validated pair-reads split across
//! 1, 4 and 16 threads, inline vs heap-backed. The inline cell is
//! `SeqLock<[u64; 2]>::read_inline()`: the payload words sit beside the
//! sequence word, so a read is a handful of same-line loads. The
//! heap-backed cell reads the same pair through the SOLERO elision
//! protocol over `solero-heap` — handle decode, class check, bounds
//! check and the header indirection on every word. Both validate
//! against a sequence word and neither writes it, so the per-op gap is
//! exactly the indirection the inline layout deletes.
//!
//! **Fallback storm** — 16 threads (deliberately oversubscribed; CI
//! hosts may have a single core) each mixing 50% *stretched*
//! `update_inline` writes into their reads on one lock, so writers get
//! preempted while the word is odd and the retry-exhausted fallback
//! plus the slow write path carry the traffic, both probing on the
//! default spin tiers (Figure 3), whose tier-3 yields hand the core
//! back to a preempted holder. Every cell carries the lock's counters,
//! so the storm's `contention_backoffs` (tier-1 waits) make the waits
//! attributable.

use solero::{Fault, SeqLock, SoleroLock};
use solero_bench::record::{best_of, timed, Args, Cell, Host, Record};
use solero_heap::{ClassId, Heap};
use solero_testkit::TestRng;

const READ_THREADS: [usize; 3] = [1, 4, 16];
const STORM_THREADS: usize = 16;
const PAIR: ClassId = ClassId::new(42);

/// Inline read cell: validated pair-reads straight off the lock's own
/// cache line.
fn run_inline_reads(threads: usize, total: u64) -> Cell {
    let lock = SeqLock::new([7u64, 7]);
    let per = total / threads as u64;
    let secs = timed(threads, |_| {
        for _ in 0..per {
            let pair = lock.read_inline();
            std::hint::black_box(pair);
        }
    });
    let s = lock.stats().snapshot();
    assert_eq!(s.read_enters, per * threads as u64, "lost inline reads");
    Cell::new("inline", threads, per * threads as u64, secs, s)
}

/// Heap-backed read cell: the same validated pair, but behind SOLERO's
/// elided read section over `solero-heap` handles.
fn run_heap_reads(threads: usize, total: u64) -> Cell {
    let lock = SoleroLock::new();
    let heap = Heap::new(64);
    let obj = heap.alloc(PAIR, 2).expect("bench heap is large enough");
    heap.store_plain(obj, 0, 7).unwrap();
    heap.store_plain(obj, 1, 7).unwrap();
    let per = total / threads as u64;
    let secs = timed(threads, |_| {
        for _ in 0..per {
            let pair = lock
                .read_only(|_| {
                    let a = heap.load_plain(obj, PAIR, 0)?;
                    let b = heap.load_plain(obj, PAIR, 1)?;
                    Ok::<_, Fault>((a, b))
                })
                .expect("no genuine faults in the read sweep");
            std::hint::black_box(pair);
        }
    });
    let s = lock.stats().snapshot();
    assert_eq!(s.read_enters, per * threads as u64, "lost heap reads");
    Cell::new("heap", threads, per * threads as u64, secs, s)
}

/// Fallback-storm cell: every thread mixes 50% coupled-pair writes into
/// its reads.
fn run_storm(total: u64) -> Cell {
    let lock = SeqLock::new([0u64; 2]);
    let per = total / STORM_THREADS as u64;
    let secs = timed(STORM_THREADS, |id| {
        let mut rng = TestRng::derive(0x5EC_10CC, id as u64);
        for _ in 0..per {
            if rng.gen_range(0u32..2) == 0 {
                lock.update_inline(|v| {
                    // Stretch the hold so writers are regularly
                    // preempted mid-section, while the word is odd.
                    for _ in 0..1024 {
                        std::hint::spin_loop();
                    }
                    v[0] += 1;
                    v[1] += 1;
                });
            } else {
                let [a, b] = lock.read_inline();
                assert_eq!(a, b, "storm read observed a torn pair");
            }
        }
    });
    let s = lock.stats().snapshot();
    assert_eq!(
        s.read_enters + s.write_enters,
        per * STORM_THREADS as u64,
        "lost storm ops"
    );
    Cell::new("storm", STORM_THREADS, per * STORM_THREADS as u64, secs, s)
}

fn main() {
    let args = Args::parse("BENCH_seqlock.json", None, &[]);
    // 16 threads must divide both budgets evenly.
    let reads: u64 = if args.quick { 16 * 4_000 } else { 16 * 200_000 };
    let storm_ops: u64 = if args.quick { 16 * 250 } else { 16 * 4_000 };
    let repeats = if args.quick { 1 } else { 5 };

    eprintln!(
        "bench_seqlock: {reads} reads per read cell (threads {READ_THREADS:?}), \
         {storm_ops} storm ops at {STORM_THREADS} threads, best of {repeats}"
    );

    // Warm both contenders untimed first: the very first cell otherwise
    // pays every one-time cost (lazy TLS, first page touches) and the
    // quick mode has no repeats to trim it.
    std::hint::black_box(run_inline_reads(1, 4_000));
    std::hint::black_box(run_heap_reads(1, 4_000));

    let mut cells = Vec::new();
    for &threads in &READ_THREADS {
        let pair = best_of(
            repeats,
            &[run_inline_reads as fn(usize, u64) -> Cell, run_heap_reads]
                .map(|run| move || run(threads, reads)),
        );
        let (inline, heap) = (&pair[0], &pair[1]);
        eprintln!(
            "  [reads] {threads:>2} threads: inline {:>8.2} ns/op, heap {:>8.2} ns/op ({:.2}x)",
            inline.ns_per_op(),
            heap.ns_per_op(),
            heap.ns_per_op() / inline.ns_per_op()
        );
        cells.extend(pair);
    }
    let inline_gap = cells[1].ns_per_op() / cells[0].ns_per_op();

    let storm = best_of(repeats, &[|| run_storm(storm_ops)]);
    eprintln!(
        "  [storm] {STORM_THREADS} threads: {:>7.3} Mops/s ({} backoffs)",
        storm[0].ops_per_sec() / 1e6,
        storm[0].stats.contention_backoffs
    );

    Record::new("seqlock-inline-and-fallback-storm", Host::current(args.quick))
        .param("reads_per_cell", reads as f64)
        .param("storm_ops", storm_ops as f64)
        .param("storm_threads", STORM_THREADS as f64)
        .param("repeats", repeats as f64)
        .param("inline_speedup_single_thread", inline_gap)
        .cells(cells)
        .cells(storm)
        .save(&args.out);
}
