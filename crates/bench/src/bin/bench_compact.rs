//! `bench_compact` — the footprint claim of the compact-monitor issue,
//! emitted as `BENCH_compact.json`.
//!
//! ```text
//! bench_compact [--quick] [--out PATH]
//! ```
//!
//! **Footprint sweep** — a heap full of two-slot objects whose slot 0
//! *is* the lock: the compact scheme's entire per-object cost is that
//! one eight-byte word, with the config and statistics amortised
//! across the shared [`CompactSpace`] and every inflated structure
//! living in the global monitor table only while it is needed. The
//! sweep locks and elides on every object, drives a slice of them
//! through a full inflate → deflate cycle, and then *asserts* the
//! claim: side bytes per object (space + residual table entries) must
//! stay under one byte, and the monitor table must drain back to its
//! starting size once the heap is quiescent. The baseline is
//! `size_of::<SoleroLock>()` plus its out-of-line read stripes
//! ([`STRIPES_BYTES`]) — the standalone lock carries the same word
//! with a space of its own (config copy and full stats block), its
//! adaptive policy and its generation nonce, per lock.
//!
//! **Hot-object sweep** — a fixed budget of validated pair-reads on one
//! object, 1 and 4 threads, compact elision vs the standalone
//! `SoleroLock` over the same heap: both run one read driver over one
//! word layout, so this measures what the heap slot and the shared
//! space cost (or don't) on the elided fast path.

use std::time::Instant;

use solero::{CompactSpace, Fault, SoleroLock};
use solero_bench::record::{best_of, timed, Args, Cell, Host, Record};
use solero_heap::{ClassId, Heap};
use solero_runtime::osmonitor::MonitorTable;
use solero_runtime::stats::STRIPES_BYTES;
use solero_runtime::thread::ThreadId;

const NODE: ClassId = ClassId::new(77);
/// Slots per object: the compact lock word plus two payload words.
const SLOTS: u32 = 3;
/// Every `INFLATE_STRIDE`-th object runs a full inflate → deflate
/// cycle during the footprint sweep.
const INFLATE_STRIDE: usize = 256;
/// Comfortably past `SOLERO_RECURSION_MAX` (31): recursion saturation
/// inflates deterministically on one thread.
const NEST_DEPTH: usize = 40;
const READ_THREADS: [usize; 2] = [1, 4];

/// The footprint sweep: every object gets a write section and a
/// validated elided read through its in-slot word; every
/// `INFLATE_STRIDE`-th additionally runs a recursion-saturated
/// inflate → deflate cycle. Asserts the two halves of the claim.
fn run_footprint(objects: usize) -> Cell {
    let t0 = Instant::now();
    let table = MonitorTable::global();
    let table_before = table.len();
    let heap = Heap::new(objects * (1 + SLOTS as usize) + 8);
    let space = CompactSpace::new();
    let tid = ThreadId::current();

    let mut refs = Vec::with_capacity(objects);
    for _ in 0..objects {
        refs.push(heap.alloc(NODE, SLOTS).expect("sized for the sweep"));
    }

    let mut inflate_cycles = 0u64;
    for (i, &obj) in refs.iter().enumerate() {
        let key = heap.lock_key(obj, 0).expect("slot 0 is the lock word");
        let word = heap.slot_atomic(obj, 0).expect("slot 0 is the lock word");
        let r = space.lock(word, key);
        r.write(|| {
            heap.store_plain(obj, 1, i as u64).unwrap();
            heap.store_plain(obj, 2, i as u64).unwrap();
        });
        let (a, b) = r
            .read_only(|| {
                Ok::<_, Fault>((
                    heap.load_plain(obj, NODE, 1)?,
                    heap.load_plain(obj, NODE, 2)?,
                ))
            })
            .expect("pure reads cannot genuinely fault");
        assert_eq!(a, b, "torn footprint read");
        if i % INFLATE_STRIDE == 0 {
            // Drive this object's word fat and back: the monitor entry
            // must exist only between the inflate and the deflate.
            for _ in 0..NEST_DEPTH {
                r.enter_write(tid);
            }
            assert!(r.is_inflated(), "recursion saturation must inflate");
            for _ in 0..NEST_DEPTH {
                r.exit_write(tid);
            }
            assert!(!r.is_inflated(), "final exit deflates");
            assert!(!r.monitor_resident(), "deflation prunes the entry");
            inflate_cycles += 1;
        }
    }

    let table_after = table.len();
    assert!(
        table_after <= table_before,
        "monitor table must drain once the heap is quiescent: \
         {table_before} -> {table_after}"
    );
    // Side bytes: everything the compact scheme needs beyond the
    // in-object word — one shared space per heap (with its read
    // stripes) plus whatever the table still holds (one shard map
    // entry per residual monitor, conservatively costed at a cache
    // line each).
    let residual = table_after.saturating_sub(table_before);
    let side = (std::mem::size_of::<CompactSpace>() + STRIPES_BYTES + residual * 64) as f64
        / objects as f64;
    assert!(
        side < 1.0,
        "compact side footprint must stay near zero: {side:.4} bytes/object"
    );

    let s = space.stats().snapshot();
    assert!(s.inflations >= inflate_cycles, "{s:?}");
    assert!(s.deflations <= s.inflations, "{s:?}");
    Cell::new("footprint", 1, objects as u64, t0.elapsed().as_secs_f64(), s)
        .value("inflate_cycles", inflate_cycles as f64)
        .value("table_before", table_before as f64)
        .value("table_after", table_after as f64)
        .value("side_bytes_per_object", side)
}

/// Hot-object compact cell: validated pair-reads through one in-slot
/// word, elided by the compact protocol.
fn run_compact_reads(threads: usize, total: u64) -> Cell {
    let heap = Heap::new(64);
    let space = CompactSpace::new();
    let obj = heap.alloc(NODE, SLOTS).expect("bench heap is large enough");
    heap.store_plain(obj, 1, 7).unwrap();
    heap.store_plain(obj, 2, 7).unwrap();
    let key = heap.lock_key(obj, 0).unwrap();
    let word = heap.slot_atomic(obj, 0).unwrap();
    let per = total / threads as u64;
    let secs = timed(threads, |_| {
        let r = space.lock(word, key);
        for _ in 0..per {
            let pair = r
                .read_only(|| {
                    Ok::<_, Fault>((
                        heap.load_plain(obj, NODE, 1)?,
                        heap.load_plain(obj, NODE, 2)?,
                    ))
                })
                .expect("no genuine faults in the read sweep");
            std::hint::black_box(pair);
        }
    });
    let s = space.stats().snapshot();
    assert_eq!(s.read_enters, per * threads as u64, "lost compact reads");
    Cell::new("compact", threads, per * threads as u64, secs, s)
}

/// Baseline cell: the same pair behind a standalone `SoleroLock`.
fn run_solero_reads(threads: usize, total: u64) -> Cell {
    let heap = Heap::new(64);
    let lock = SoleroLock::new();
    let obj = heap.alloc(NODE, SLOTS).expect("bench heap is large enough");
    heap.store_plain(obj, 1, 7).unwrap();
    heap.store_plain(obj, 2, 7).unwrap();
    let per = total / threads as u64;
    let secs = timed(threads, |_| {
        for _ in 0..per {
            let pair = lock
                .read_only(|_| {
                    Ok::<_, Fault>((
                        heap.load_plain(obj, NODE, 1)?,
                        heap.load_plain(obj, NODE, 2)?,
                    ))
                })
                .expect("no genuine faults in the read sweep");
            std::hint::black_box(pair);
        }
    });
    let s = lock.stats().snapshot();
    assert_eq!(s.read_enters, per * threads as u64, "lost solero reads");
    Cell::new("solero", threads, per * threads as u64, secs, s)
}

fn main() {
    let args = Args::parse("BENCH_compact.json", None, &[]);
    let objects: usize = if args.quick { 50_000 } else { 2_000_000 };
    let reads: u64 = if args.quick { 4 * 4_000 } else { 4 * 200_000 };
    let repeats = if args.quick { 1 } else { 5 };

    eprintln!(
        "bench_compact: {objects} objects in the footprint sweep \
         (inflate every {INFLATE_STRIDE}th), {reads} reads per hot cell \
         (threads {READ_THREADS:?}), best of {repeats}"
    );

    let word_bytes = std::mem::size_of::<u64>();
    let solero_bytes = std::mem::size_of::<SoleroLock>() + STRIPES_BYTES;
    let fp = run_footprint(objects);
    eprintln!(
        "  [footprint] word {word_bytes} B + {:.4} side B/object (SoleroLock {solero_bytes} B); \
         {} inflate cycles, table {} -> {}",
        fp.values["side_bytes_per_object"],
        fp.values["inflate_cycles"],
        fp.values["table_before"],
        fp.values["table_after"]
    );

    // Warm both contenders untimed (first-touch costs; quick mode has
    // no repeats to trim them).
    std::hint::black_box(run_compact_reads(1, 4_000));
    std::hint::black_box(run_solero_reads(1, 4_000));

    let mut cells = vec![fp];
    for &threads in &READ_THREADS {
        let pair = best_of(
            repeats,
            &[run_compact_reads as fn(usize, u64) -> Cell, run_solero_reads]
                .map(|run| move || run(threads, reads)),
        );
        let (compact, solero) = (&pair[0], &pair[1]);
        eprintln!(
            "  [reads] {threads} threads: compact {:>8.2} ns/op, solero {:>8.2} ns/op ({:.2}x)",
            compact.ns_per_op(),
            solero.ns_per_op(),
            compact.ns_per_op() / solero.ns_per_op()
        );
        cells.extend(pair);
    }
    let hot_ratio = cells[1].ns_per_op() / cells[2].ns_per_op();

    Record::new("compact-monitor-footprint", Host::current(args.quick))
        .param("objects", objects as f64)
        .param("inflate_stride", INFLATE_STRIDE as f64)
        .param("compact_word_bytes", word_bytes as f64)
        .param("solero_bytes_per_lock", solero_bytes as f64)
        .param("reads_per_cell", reads as f64)
        .param("repeats", repeats as f64)
        .param("compact_vs_solero_hot_read", hot_ratio)
        .cells(cells)
        .save(&args.out);
}
