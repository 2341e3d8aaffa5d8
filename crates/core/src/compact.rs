//! Compact per-object locks over the global monitor table.
//!
//! This is the Compact Java Monitors design (Dice & Kogan, arXiv
//! 2102.04188) under the SOLERO elision protocol: the per-object lock
//! state is a **single eight-byte word** — the [`CompactWord`] layout
//! keeps the sequence counter *inside* the held word, so there is no
//! side cell, no per-lock config, no per-lock stats — and everything
//! inflated, contended, or waiting lives in the process-global
//! [`MonitorTable`], keyed by the word's address plus an allocation
//! generation.
//!
//! The split is deliberate: a heap of millions of mostly-uncontended
//! objects pays eight bytes per object, while the handful that actually
//! inflate pay for a monitor only while contended — deflation prunes the
//! table entry again.
//!
//! Shared knobs and counters live in a [`CompactSpace`], one per lock
//! *population* (a heap, a bench fleet, a test): operations go through a
//! [`CompactRef`], which borrows the space and the word. A
//! [`SoleroLock`](crate::SoleroLock) is the same word with a space of
//! its own, and it runs the same protocol: Figures 6–9 and 17 are
//! written once, as methods of [`CompactRef`] — the write side,
//! inflation and deflation in `lock.rs`, the elided read driver in
//! `read.rs` — and the public methods here delegate to them.
//!
//! A shared space carries no adaptive policy: per-lock abort histories
//! are precisely the per-object state this layout exists to avoid.
//! Adaptive elision remains a per-lock feature of
//! [`SoleroLock`](crate::SoleroLock) and [`SeqLock`](crate::SeqLock),
//! which each own a space of one lock.

use solero_sync::atomic::{AtomicU64, Ordering};

use solero_runtime::fault::Fault;
use solero_runtime::osmonitor::{MonitorKey, MonitorTable};
use solero_runtime::stats::LockStats;
use solero_runtime::thread::ThreadId;
use solero_runtime::word::{CompactWord, COMPACT_CTR_STEP};

use crate::adaptive::AdaptivePolicy;
use crate::config::SoleroConfig;
use crate::read::LockWord;

/// Shared configuration and statistics for a population of compact
/// locks.
///
/// Individual locks are bare eight-byte words ([`CompactLock`], or any
/// `AtomicU64` slot such as a heap cell); a `CompactSpace` holds
/// everything that would otherwise bloat them — the [`SoleroConfig`]
/// and the aggregate [`LockStats`]. All counters aggregate across the
/// population, and the taxonomy invariant `read_aborts ==
/// abort_reason_sum()` holds space-wide.
///
/// # Examples
///
/// ```
/// use solero::{CompactLock, CompactSpace, Fault};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let space = CompactSpace::new();
/// let lock = CompactLock::new();
/// let data = AtomicU64::new(0);
///
/// lock.bind(&space).write(|| data.store(42, Ordering::Release));
/// let seen = lock
///     .bind(&space)
///     .read_only(|| Ok::<_, Fault>(data.load(Ordering::Acquire)))
///     .unwrap();
/// assert_eq!(seen, 42);
/// assert_eq!(space.stats().snapshot().elision_success, 1);
/// ```
#[derive(Debug)]
#[repr(C)]
pub struct CompactSpace {
    /// First, so a lock that embeds its space right after its word (the
    /// conventional [`TasukiLock`](crate::TasukiLock)) has its hot
    /// counters right after the word.
    stats: LockStats,
    config: SoleroConfig,
}

impl Default for CompactSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl CompactSpace {
    /// A space with the paper's default configuration.
    pub fn new() -> Self {
        Self::with_config(SoleroConfig::default())
    }

    /// A space with explicit configuration. An `adaptive` setting is
    /// ignored — compact locks carry no per-lock policy state.
    pub fn with_config(config: SoleroConfig) -> Self {
        CompactSpace {
            stats: LockStats::default(),
            config,
        }
    }

    /// The space's configuration.
    pub fn config(&self) -> &SoleroConfig {
        &self.config
    }

    /// Aggregate statistics across every lock in the space.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// Binds a raw lock word to this space under `key`, yielding the
    /// operation handle. The caller owns the identity discipline: `key`
    /// must be stable for the word's lifetime and never shared by two
    /// live locks (heap cells use the slot address plus the heap
    /// allocation generation; see `solero-heap`'s `lock_key`).
    pub fn lock<'a>(&'a self, word: &'a AtomicU64, key: MonitorKey) -> CompactRef<'a> {
        CompactRef {
            space: self,
            word,
            key,
            policy: None,
            step: COMPACT_CTR_STEP,
        }
    }

    /// True if the global monitor table holds an entry for `key`.
    /// Quiescent locks must read `false`.
    pub fn resident(&self, key: MonitorKey) -> bool {
        MonitorTable::global().existing(key).is_some()
    }

    /// Sweeps `key`'s monitor-table entry, if any. Call when a lock
    /// word's storage is reclaimed outside a [`CompactLock`]'s `Drop`
    /// (e.g. a heap object freed while a lingering entry exists).
    pub fn detach(&self, key: MonitorKey) {
        MonitorTable::global().remove(key);
    }
}

/// A standalone eight-byte compact lock cell.
///
/// The entire per-lock footprint is this word — `size_of::<CompactLock>()
/// == 8` — which is the measured point of `bench_compact`. All
/// operations go through [`CompactLock::bind`], which pairs the cell
/// with a [`CompactSpace`].
///
/// Heap-resident locks don't need this type at all: any `AtomicU64`
/// slot works via [`CompactSpace::lock`] with a generation-bearing key.
#[derive(Debug)]
pub struct CompactLock {
    word: AtomicU64,
}

impl Default for CompactLock {
    fn default() -> Self {
        Self::new()
    }
}

impl CompactLock {
    /// An unlocked cell (counter zero). `const`, so compact locks can
    /// be embedded in statics and arrays.
    pub const fn new() -> Self {
        CompactLock {
            word: AtomicU64::new(0),
        }
    }

    /// This cell's monitor-table identity: its address under the raw
    /// (generation 0) namespace. Stable for the cell's lifetime; `Drop`
    /// sweeps the entry, so address reuse by a *later* `CompactLock`
    /// starts fresh.
    pub fn key(&self) -> MonitorKey {
        MonitorKey::of_addr(&self.word as *const _ as usize)
    }

    /// Pairs this cell with a space for one or more operations.
    pub fn bind<'a>(&'a self, space: &'a CompactSpace) -> CompactRef<'a> {
        space.lock(&self.word, self.key())
    }
}

impl Drop for CompactLock {
    fn drop(&mut self) {
        MonitorTable::global().remove(self.key());
    }
}

/// Operation handle: a compact lock word bound to its
/// [`CompactSpace`]. Cheap to construct on every use.
///
/// This is also the one implementation of the monitor protocol: a
/// [`SoleroLock`](crate::SoleroLock) hands out a handle over its own
/// word, space and adaptive policy and delegates every operation to it,
/// and so does the conventional [`TasukiLock`](crate::TasukiLock), with
/// a zero counter step.
#[derive(Debug, Clone, Copy)]
pub struct CompactRef<'a> {
    pub(crate) space: &'a CompactSpace,
    pub(crate) word: &'a AtomicU64,
    pub(crate) key: MonitorKey,
    /// The owning lock's adaptive policy; `None` for a word bound
    /// through a shared [`CompactSpace`].
    pub(crate) policy: Option<&'a AdaptivePolicy>,
    /// What a writing release adds to the counter: `COMPACT_CTR_STEP`
    /// on every SOLERO handle (Figure 6), zero on a
    /// [`TasukiLock`](crate::TasukiLock)'s (Figure 2), whose free word
    /// therefore always reads zero. Zero also selects the conventional
    /// writer's Figure 3 spin tiers over the contention manager.
    pub(crate) step: u64,
}

impl<'a> CompactRef<'a> {
    /// The current raw word (diagnostics and tests).
    pub fn raw_word(&self) -> CompactWord {
        CompactWord(self.word.load(Ordering::Acquire))
    }

    /// The monitor-table identity this handle operates under.
    pub fn key(&self) -> MonitorKey {
        self.key
    }

    /// True if the lock is currently in fat (inflated) mode.
    pub fn is_inflated(&self) -> bool {
        self.raw_word().is_inflated()
    }

    /// True if the global monitor table holds an entry for this lock.
    pub fn monitor_resident(&self) -> bool {
        self.space.resident(self.key)
    }

    /// True if any thread holds the lock (thin or fat).
    pub fn is_locked(&self) -> bool {
        let w = self.raw_word();
        if w.is_inflated() {
            // Lookup-only: an absent entry means a deflation is mid-
            // publish — the thin word is about to appear, and a fresh
            // monitor would be unowned anyway.
            self.monitor_existing().is_some_and(|m| m.is_owned())
        } else {
            w.is_held_flat()
        }
    }

    /// True if `tid` holds the lock.
    pub fn holds(&self, tid: ThreadId) -> bool {
        let w = self.raw_word();
        if w.is_inflated() {
            self.monitor_existing().is_some_and(|m| m.owned_by(tid))
        } else {
            w.tid() == Some(tid)
        }
    }

    /// Runs `f` as a writing critical section.
    #[inline]
    pub fn write<R>(&self, f: impl FnOnce() -> R) -> R {
        self.write_section(f)
    }

    /// Acquires the lock for writing. Unlike
    /// [`SoleroLock::enter_write`](crate::SoleroLock::enter_write) there
    /// is no ticket to carry back: the displaced counter rides inside
    /// the held word, which is the compact layout's point.
    pub fn enter_write(&self, tid: ThreadId) {
        self.acquire(tid)
    }

    /// Releases a writing critical section.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `tid` holds the lock.
    pub fn exit_write(&self, tid: ThreadId) {
        self.release(tid)
    }

    /// Runs `f` as a **read-only critical section**, eliding the lock
    /// when possible — the protocol and statistics of
    /// [`SoleroLock::read_only`](crate::SoleroLock::read_only), booked
    /// space-wide. Compact sections are plain closures: a section that
    /// polls check-points or upgrades in place belongs on a
    /// `SoleroLock`.
    ///
    /// # Errors
    ///
    /// Returns `Err` only for *genuine* faults (raised while the reads
    /// were provably consistent); speculation artifacts are recovered by
    /// re-execution, falling back to acquisition after
    /// `fallback_threshold` failures.
    #[inline]
    pub fn read_only<R>(&self, mut f: impl FnMut() -> Result<R, Fault>) -> Result<R, Fault> {
        self.read_section(move |_| f())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solero_runtime::spin::SpinConfig;
    use solero_runtime::word::SOLERO_RECURSION_MAX;
    use std::sync::atomic::AtomicU64 as StdAtomicU64;
    use std::sync::atomic::Ordering as StdOrdering;

    #[test]
    fn compact_lock_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<CompactLock>(), 8);
    }

    #[test]
    fn write_section_advances_counter() {
        let space = CompactSpace::new();
        let l = CompactLock::new();
        let c0 = l.bind(&space).raw_word().counter().unwrap();
        l.bind(&space).write(|| {});
        assert_eq!(l.bind(&space).raw_word().counter().unwrap(), c0 + 1);
        l.bind(&space).write(|| {});
        assert_eq!(l.bind(&space).raw_word().counter().unwrap(), c0 + 2);
    }

    #[test]
    fn elided_read_leaves_word_untouched() {
        let space = CompactSpace::new();
        let l = CompactLock::new();
        let before = l.bind(&space).raw_word();
        let n = l.bind(&space).read_only(|| Ok::<_, Fault>(5)).unwrap();
        assert_eq!(n, 5);
        assert_eq!(l.bind(&space).raw_word(), before);
        let s = space.stats().snapshot();
        assert_eq!(s.elision_success, 1);
        assert_eq!(s.elision_failure, 0);
    }

    #[test]
    fn recursion_roundtrip() {
        let space = CompactSpace::new();
        let l = CompactLock::new();
        let tid = ThreadId::current();
        let r = l.bind(&space);
        r.enter_write(tid);
        r.enter_write(tid);
        r.enter_write(tid);
        assert_eq!(r.raw_word().recursion(), 2);
        r.exit_write(tid);
        r.exit_write(tid);
        assert!(r.is_locked());
        r.exit_write(tid);
        assert!(!r.is_locked());
        assert_eq!(r.raw_word().counter(), Some(1));
    }

    #[test]
    fn deep_recursion_inflates_then_deflates_and_prunes() {
        let space = CompactSpace::new();
        let l = CompactLock::new();
        let tid = ThreadId::current();
        let r = l.bind(&space);
        let before = r.raw_word().counter().unwrap();
        let depth = (SOLERO_RECURSION_MAX + 4) as usize;
        for _ in 0..=depth {
            r.enter_write(tid);
        }
        assert!(r.is_inflated());
        assert!(r.holds(tid));
        assert!(r.monitor_resident(), "inflated lock is tabled");
        for _ in 0..=depth {
            r.exit_write(tid);
        }
        assert!(!r.is_locked());
        assert!(!r.is_inflated());
        assert!(!r.monitor_resident(), "deflation prunes the table entry");
        assert!(r.raw_word().counter().unwrap() > before);
        let s = space.stats().snapshot();
        assert!(s.inflations >= 1);
        assert!(s.deflations >= 1);
        assert!(s.deflations <= s.inflations);
    }

    #[test]
    fn reader_overlapping_writer_aborts_then_succeeds() {
        let space = CompactSpace::new();
        let l = CompactLock::new();
        let tid = ThreadId::current();
        let data = StdAtomicU64::new(0);
        // Simulate an overlapping writer by mutating the word mid-read.
        let mut first = true;
        let out = l.bind(&space).read_only(|| {
            if first {
                first = false;
                l.bind(&space).write(|| data.store(9, StdOrdering::Release));
            }
            Ok::<_, Fault>(data.load(StdOrdering::Acquire))
        });
        assert_eq!(out.unwrap(), 9);
        let s = space.stats().snapshot();
        assert_eq!(s.read_aborts, s.abort_reason_sum(), "taxonomy balances");
        assert!(s.elision_failure >= 1);
        assert_eq!(s.fallback_acquires, s.abort_retry_exhausted);
        let _ = tid;
    }

    #[test]
    fn genuine_fault_propagates() {
        let space = CompactSpace::new();
        let l = CompactLock::new();
        let mut runs = 0;
        let r: Result<(), Fault> = l.bind(&space).read_only(|| {
            runs += 1;
            Err(Fault::NullPointer)
        });
        assert_eq!(r, Err(Fault::NullPointer));
        assert_eq!(runs, 1, "consistent fault must not re-execute");
    }

    #[test]
    fn recursive_read_under_write_section() {
        let space = CompactSpace::new();
        let l = CompactLock::new();
        let tid = ThreadId::current();
        let r = l.bind(&space);
        r.enter_write(tid);
        let got = r.read_only(|| Ok::<_, Fault>(7)).unwrap();
        assert_eq!(got, 7);
        assert!(r.is_locked(), "read under held lock must not release it");
        r.exit_write(tid);
        assert!(!r.is_locked());
        assert!(space.stats().snapshot().recursive_enters >= 1);
    }

    #[test]
    fn contended_writes_are_mutually_exclusive() {
        use std::sync::Arc;
        let space = Arc::new(CompactSpace::with_config(SoleroConfig {
            spin: SpinConfig {
                tier1: 4,
                tier2: 8,
                tier3: 2,
            },
            ..SoleroConfig::default()
        }));
        let l = Arc::new(CompactLock::new());
        let counter = Arc::new(StdAtomicU64::new(0));
        const THREADS: usize = 8;
        const ITERS: u64 = 2_000;
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let (space, l, c) = (Arc::clone(&space), Arc::clone(&l), Arc::clone(&counter));
            handles.push(std::thread::spawn(move || {
                for _ in 0..ITERS {
                    l.bind(&space).write(|| {
                        let v = c.load(StdOrdering::Relaxed);
                        std::hint::black_box(v);
                        c.store(v + 1, StdOrdering::Relaxed);
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(StdOrdering::Relaxed), THREADS as u64 * ITERS);
        // Quiescent: any inflation must have deflated and pruned.
        let r = l.bind(&space);
        assert!(!r.is_inflated());
        assert!(!r.monitor_resident(), "quiescent lock must not be tabled");
        let s = space.stats().snapshot();
        assert!(s.deflations <= s.inflations, "{s}");
    }

    #[test]
    fn drop_sweeps_lingering_entry() {
        let space = CompactSpace::new();
        // Drop in place behind a Box that outlives the lock: a lock's
        // identity is its address, so `drop(l)` (which *moves* first)
        // would sweep the wrong key, and keeping the box allocated
        // stops a parallel test from reusing the address mid-assert.
        let mut slot: Box<Option<CompactLock>> = Box::new(Some(CompactLock::new()));
        let key = slot.as_ref().as_ref().unwrap().key();
        // Plant an entry as a lingering contender would.
        let _m = MonitorTable::global().monitor_for(key);
        assert!(space.resident(key));
        *slot = None;
        assert!(
            MonitorTable::global().existing(key).is_none(),
            "Drop must sweep the entry"
        );
    }
}
