//! `bench_seqlock` — the two deltas of the inline-seqlock issue,
//! emitted as `BENCH_seqlock.json`.
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
//! plus the slow write path carry the traffic. Run once with
//! `ContentionConfig::naive()` — the fixed spin cadence the pre-manager
//! code used, which never yields and never escalates, so every
//! contender burns its whole quantum while the preempted holder waits
//! for the CPU — and once with the default history-keyed manager,
//! whose escalating back-off crosses the yield threshold and hands the
//! core back. Every cell carries the lock's counters, so the storm's
//! `contention_backoffs` make the waits attributable; the headline is
//! the managed/naive throughput ratio.

use solero::{Fault, SeqLock, SoleroConfig, SoleroLock};
use solero_bench::record::{best_of, timed, Args, Cell, Host, Record};
use solero_heap::{ClassId, Heap};
use solero_runtime::contention::ContentionConfig;
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
/// its reads, under the given contention policy.
fn run_storm(label: &'static str, contention: ContentionConfig, total: u64) -> Cell {
    let lock = SeqLock::with_config(
        SoleroConfig::builder().contention(contention).build(),
        [0u64; 2],
    );
    let per = total / STORM_THREADS as u64;
    let secs = timed(STORM_THREADS, |id| {
        let mut rng = TestRng::derive(0x5EC_10CC, id as u64);
        for _ in 0..per {
            if rng.gen_range(0u32..2) == 0 {
                lock.update_inline(|v| {
                    // Stretch the hold so writers are regularly
                    // preempted mid-section — the shape that separates
                    // yielding back-off from blind spinning.
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
    Cell::new(label, STORM_THREADS, per * STORM_THREADS as u64, secs, s)
}

fn main() {
    let args = Args::parse("BENCH_seqlock.json", None);
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

    let storm = best_of(
        repeats,
        &[
            ("storm-naive", ContentionConfig::naive()),
            ("storm-managed", ContentionConfig::default()),
        ]
        .map(|(label, policy)| move || run_storm(label, policy, storm_ops)),
    );
    let (naive, managed) = (&storm[0], &storm[1]);
    let storm_ratio = managed.ops_per_sec() / naive.ops_per_sec();
    eprintln!(
        "  [storm] {STORM_THREADS} threads: naive {:>7.3} Mops/s, managed {:>7.3} Mops/s \
         ({storm_ratio:.2}x, {} managed backoffs)",
        naive.ops_per_sec() / 1e6,
        managed.ops_per_sec() / 1e6,
        managed.stats.contention_backoffs
    );

    Record::new("seqlock-inline-and-fallback-storm", Host::current(args.quick))
        .param("reads_per_cell", reads as f64)
        .param("storm_ops", storm_ops as f64)
        .param("storm_threads", STORM_THREADS as f64)
        .param("repeats", repeats as f64)
        .param("inline_speedup_single_thread", inline_gap)
        .param("managed_vs_naive_storm", storm_ratio)
        .cells(cells)
        .cells(storm)
        .save(&args.out);
}
