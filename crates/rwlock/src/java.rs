//! The `java.util.concurrent`-style baseline reader-writer lock.
//!
//! The paper compares SOLERO against the read-write lock of
//! `java.util.concurrent` and attributes its poor single-thread showing
//! to two structural properties: the lock operations are **not inlined**
//! like monitor fast paths, and every operation goes through **a level
//! of indirection** to reach the lock state. [`JavaRwLock`] reproduces
//! both: the state lives in a separate heap allocation reached through a
//! pointer, and the acquire/release operations are `#[inline(never)]`.
//!
//! Readers share the lock by CASing a reader count; a writer sets a
//! writer bit and drains readers. A handoff flag gives writers
//! preference so the 5%-writes workloads cannot starve their writers —
//! matching `ReentrantReadWriteLock`'s non-starving behaviour in the
//! benchmarked configurations. Like Java's implementation, every read
//! acquire/release also updates a **per-thread hold counter** kept in
//! thread-local storage (Java's `ThreadLocalHoldCounter`), which is a
//! large part of why `java.util.concurrent` read-write locks lose to
//! inlined monitor fast paths on a single thread — and a large part of
//! the per-acquisition cost BRAVO's fast path avoids.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::PoisonError;
use std::time::Duration;

use solero_runtime::stats::LockStats;
use solero_sync::atomic::{AtomicU64, Ordering};
use solero_sync::{Condvar, Mutex};

use crate::plock;
use crate::raw::{RawRwLock, ReadToken};

/// Bit 63: a writer holds the lock.
const WRITER: u64 = 1 << 63;
/// Bit 62: a writer is waiting; new readers must queue.
const WRITER_PENDING: u64 = 1 << 62;
/// Low bits: active reader count.
const READERS: u64 = WRITER_PENDING - 1;

/// How long blocked threads park before re-probing the state word.
const PARK: Duration = Duration::from_micros(200);

thread_local! {
    /// Per-thread read-hold counts per lock, as in
    /// `ReentrantReadWriteLock.ThreadLocalHoldCounter`. Entries are
    /// removed when their count reaches zero (see
    /// `crates/rwlock/tests/read_holds.rs`): keying by lock address
    /// means a stale entry would be silently inherited by an unrelated
    /// lock allocated at a reused address.
    static READ_HOLDS: RefCell<HashMap<usize, u32>> = RefCell::new(HashMap::new());
}

/// Number of locks this thread currently has live read-hold entries
/// for. Diagnostics: must return to its prior value once every read
/// guard on this thread is dropped — a growing value is the thread-local
/// leak the hold-map removal exists to prevent.
pub fn thread_read_hold_entries() -> usize {
    READ_HOLDS.with(|h| h.borrow().len())
}

#[derive(Debug)]
struct RwState {
    /// `WRITER | WRITER_PENDING | reader-count`.
    word: AtomicU64,
    sleep: Mutex<()>,
    wake: Condvar,
}

/// A reader-writer lock in the style of
/// `java.util.concurrent.locks.ReentrantReadWriteLock` (non-reentrant).
///
/// # Examples
///
/// ```
/// use solero_rwlock::{JavaRwLock, RawRwLock};
///
/// let lock = JavaRwLock::new();
/// {
///     let _r1 = lock.read();
///     let _r2 = lock.read(); // readers share
/// }
/// {
///     let _w = lock.write(); // writers are exclusive
/// }
/// ```
#[derive(Debug)]
pub struct JavaRwLock {
    /// The indirection the paper calls out: lock state behind a pointer.
    state: Box<RwState>,
    stats: LockStats,
}

impl Default for JavaRwLock {
    fn default() -> Self {
        Self::new()
    }
}

impl JavaRwLock {
    /// Creates an unlocked reader-writer lock.
    pub fn new() -> Self {
        JavaRwLock {
            state: Box::new(RwState {
                word: AtomicU64::new(0),
                sleep: Mutex::new(()),
                wake: Condvar::new(),
            }),
            stats: LockStats::default(),
        }
    }

    /// Number of active readers (diagnostics).
    pub fn reader_count(&self) -> u64 {
        self.state.word.load(Ordering::Acquire) & READERS
    }

    /// True if a writer holds the lock.
    pub fn is_write_locked(&self) -> bool {
        self.state.word.load(Ordering::Acquire) & WRITER != 0
    }

    /// This thread's recorded read holds on this lock (diagnostics).
    pub fn current_thread_read_holds(&self) -> u32 {
        let key = self as *const _ as usize;
        READ_HOLDS.with(|h| h.borrow().get(&key).copied().unwrap_or(0))
    }

    fn note_read_hold(&self) {
        let key = self as *const _ as usize;
        READ_HOLDS.with(|h| *h.borrow_mut().entry(key).or_insert(0) += 1);
    }

    fn drop_read_hold(&self) {
        let key = self as *const _ as usize;
        READ_HOLDS.with(|h| {
            let mut h = h.borrow_mut();
            let c = h.get_mut(&key).expect("read_unlock without hold");
            *c -= 1;
            // Remove at zero: a retained entry would both leak (one
            // HashMap slot per lock ever read on this thread) and alias
            // a future lock allocated at the same address.
            if *c == 0 {
                h.remove(&key);
            }
        });
    }

    #[inline(never)]
    fn read_lock(&self) {
        self.stats.read_enters.fetch_add(1, Ordering::Relaxed);
        let s = &*self.state;
        loop {
            let w = s.word.load(Ordering::Acquire);
            if w & (WRITER | WRITER_PENDING) == 0 {
                if s.word
                    .compare_exchange_weak(w, w + 1, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    // Java's AQS bookkeeping: bump this thread's hold
                    // counter for this lock.
                    self.note_read_hold();
                    return;
                }
                continue;
            }
            // Writer active or queued: park briefly.
            let g = plock(&s.sleep);
            if s.word.load(Ordering::Acquire) & (WRITER | WRITER_PENDING) != 0 {
                let _ = s
                    .wake
                    .wait_timeout(g, PARK)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    #[inline(never)]
    fn try_read_lock(&self) -> bool {
        let s = &*self.state;
        loop {
            let w = s.word.load(Ordering::Acquire);
            if w & (WRITER | WRITER_PENDING) != 0 {
                return false;
            }
            if s.word
                .compare_exchange_weak(w, w + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                self.stats.read_enters.fetch_add(1, Ordering::Relaxed);
                self.note_read_hold();
                return true;
            }
        }
    }

    #[inline(never)]
    fn read_unlock(&self) {
        self.drop_read_hold();
        let s = &*self.state;
        let prev = s.word.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev & READERS > 0, "read_unlock without readers");
        // Last reader out while a writer waits: wake it.
        if prev & READERS == 1 && prev & WRITER_PENDING != 0 {
            let _g = plock(&s.sleep);
            s.wake.notify_all();
        }
    }

    #[inline(never)]
    fn write_lock(&self) {
        self.stats.write_enters.fetch_add(1, Ordering::Relaxed);
        let s = &*self.state;
        loop {
            let w = s.word.load(Ordering::Acquire);
            if w == 0 || w == WRITER_PENDING {
                if s.word
                    .compare_exchange_weak(w, WRITER, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    return;
                }
                continue;
            }
            if w & WRITER_PENDING == 0 {
                // Announce intent so new readers queue behind us.
                let _ = s.word.compare_exchange_weak(
                    w,
                    w | WRITER_PENDING,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
                continue;
            }
            let g = plock(&s.sleep);
            let w = s.word.load(Ordering::Acquire);
            if w != 0 && w != WRITER_PENDING {
                let _ = s
                    .wake
                    .wait_timeout(g, PARK)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    #[inline(never)]
    fn try_write_lock(&self) -> bool {
        let s = &*self.state;
        loop {
            let w = s.word.load(Ordering::Acquire);
            if w != 0 && w != WRITER_PENDING {
                return false;
            }
            if s.word
                .compare_exchange_weak(w, WRITER, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                self.stats.write_enters.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
    }

    #[inline(never)]
    fn write_unlock(&self) {
        let s = &*self.state;
        let prev = s.word.swap(0, Ordering::AcqRel);
        debug_assert!(prev & WRITER != 0, "write_unlock without writer");
        let _g = plock(&s.sleep);
        s.wake.notify_all();
    }
}

impl RawRwLock for JavaRwLock {
    const NAME: &'static str = "RWLock";

    fn acquire_read(&self) -> ReadToken {
        self.read_lock();
        ReadToken::slow()
    }

    fn release_read(&self, token: ReadToken) {
        debug_assert!(!token.is_fast(), "JavaRwLock has no fast path");
        self.read_unlock();
    }

    fn try_acquire_read(&self) -> Option<ReadToken> {
        self.try_read_lock().then(ReadToken::slow)
    }

    fn acquire_write(&self) {
        self.write_lock();
    }

    fn release_write(&self) {
        self.write_unlock();
    }

    fn try_acquire_write(&self) -> bool {
        self.try_write_lock()
    }

    fn stats(&self) -> &LockStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    #[test]
    fn readers_share() {
        let l = JavaRwLock::new();
        let r1 = l.read();
        let r2 = l.read();
        assert_eq!(l.reader_count(), 2);
        assert_eq!(l.current_thread_read_holds(), 2);
        drop(r1);
        drop(r2);
        assert_eq!(l.reader_count(), 0);
        assert_eq!(l.current_thread_read_holds(), 0);
    }

    #[test]
    fn writer_excludes_readers() {
        let l = Arc::new(JavaRwLock::new());
        let w = l.write();
        assert!(l.is_write_locked());
        let l2 = Arc::clone(&l);
        let got_read = Arc::new(AtomicU32::new(0));
        let g2 = Arc::clone(&got_read);
        let h = std::thread::spawn(move || {
            let _r = l2.read();
            g2.store(1, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(got_read.load(Ordering::SeqCst), 0, "reader must wait");
        drop(w);
        h.join().unwrap();
        assert_eq!(got_read.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pending_writer_blocks_new_readers() {
        let l = Arc::new(JavaRwLock::new());
        let r = l.read();
        let l2 = Arc::clone(&l);
        let wh = std::thread::spawn(move || {
            let _w = l2.write();
        });
        // Wait until the writer has announced itself.
        while l.state.word.load(Ordering::Acquire) & WRITER_PENDING == 0 {
            std::thread::yield_now();
        }
        assert!(l.try_read().is_none(), "pending writer rejects try_read");
        drop(r);
        wh.join().unwrap();
        assert!(!l.is_write_locked());
    }

    #[test]
    fn concurrent_increments_are_exclusive() {
        let l = Arc::new(JavaRwLock::new());
        let c = Arc::new(AtomicU32::new(0));
        const T: usize = 4;
        const N: u32 = 2_000;
        let mut hs = Vec::new();
        for _ in 0..T {
            let l = Arc::clone(&l);
            let c = Arc::clone(&c);
            hs.push(std::thread::spawn(move || {
                for i in 0..N {
                    if i % 4 == 0 {
                        let _w = l.write();
                        let v = c.load(Ordering::Relaxed);
                        c.store(v + 1, Ordering::Relaxed);
                    } else {
                        let _r = l.read();
                        std::hint::black_box(c.load(Ordering::Relaxed));
                    }
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(c.load(Ordering::Relaxed), T as u32 * N / 4);
    }

    #[test]
    fn stats_track_modes() {
        let l = JavaRwLock::new();
        drop(l.read());
        drop(l.read());
        drop(l.write());
        let s = l.stats().snapshot();
        assert_eq!(s.read_enters, 2);
        assert_eq!(s.write_enters, 1);
        assert!((s.read_only_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn try_paths_refuse_contended_modes() {
        let l = JavaRwLock::new();
        let r = l.read();
        assert!(l.try_read().is_some(), "readers share via try_read");
        assert!(l.try_write().is_none(), "reader blocks try_write");
        drop(r);
        let w = l.try_write().expect("uncontended try_write");
        assert!(l.try_read().is_none(), "writer blocks try_read");
        drop(w);
        let s = l.stats().snapshot();
        assert_eq!(s.read_enters, 2);
        assert_eq!(s.write_enters, 1);
    }
}
