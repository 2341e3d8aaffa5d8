//! OS monitors and the monitor table.
//!
//! When a flat lock inflates, the lock word is replaced by a fat-lock id
//! and all synchronization goes through an *OS monitor* — in the JVM a
//! heavyweight mutex + condition-variable pair fetched from a table that
//! maps the object to its monitor. We reproduce that: [`OsMonitor`] is a
//! reentrant logical monitor built on a mutex and two condition variables
//! (an entry set and a wait set, as in Java), and [`MonitorTable`] maps a
//! lock's identity — word address **plus allocation generation**
//! ([`MonitorKey`]) — to its monitor, holding entries only while the
//! lock is inflated (Compact Java Monitors, arXiv 2102.04188).
//!
//! For SOLERO the monitor additionally stores the **displaced counter**:
//! the sequence value (already incremented) that is written back to the
//! lock word on deflation, so concurrent speculative readers observe a
//! changed value across any inflate/deflate cycle (paper §3.2).

use std::collections::HashMap;
use std::sync::atomic::AtomicU64 as StdAtomicU64;
use std::sync::{Arc, Mutex as StdMutex, MutexGuard as StdMutexGuard, OnceLock, PoisonError};

// The monitor itself synchronizes protocol-visible state, so it lives
// on the `solero-sync` facade (std in normal builds, instrumented under
// `--cfg solero_mc`). The table below, by contrast, is lookup plumbing
// the paper's protocol never races on; it stays on raw `std` so monitor
// cache lookups do not pollute the model checker's state space.
use solero_sync::atomic::{AtomicU64, Ordering};
use solero_sync::{Condvar, Mutex, MutexGuard};

use crate::thread::ThreadId;

/// Poison-tolerant lock: a panic inside a monitor operation is already
/// a lock-implementation bug (the asserts below); subsequent operations
/// should still see consistent counters rather than cascade poison
/// panics through unrelated threads.
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn plock_std<T>(m: &StdMutex<T>) -> StdMutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn pwait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug, Default)]
struct MonitorInner {
    /// Raw id of the owning thread, 0 when unowned.
    owner: u64,
    /// Recursive entries by the owner beyond the first.
    recursion: u32,
    /// Threads blocked in `enter`.
    queued: u32,
    /// Threads parked in the wait set.
    waiting: u32,
}

/// A reentrant, Java-style monitor.
///
/// Ownership is logical (recorded in the monitor state) rather than tied
/// to a guard lifetime, so `enter` and `exit` may be separate calls — as
/// the lock slow paths require.
///
/// # Examples
///
/// ```
/// use solero_runtime::osmonitor::OsMonitor;
/// use solero_runtime::thread::ThreadId;
///
/// let m = OsMonitor::new(1);
/// let me = ThreadId::current();
/// m.enter(me);
/// m.enter(me); // reentrant
/// m.exit(me);
/// m.exit(me);
/// assert!(!m.is_owned());
/// ```
#[derive(Debug)]
pub struct OsMonitor {
    id: u64,
    inner: Mutex<MonitorInner>,
    /// Entry set: threads waiting to own the monitor.
    entry: Condvar,
    /// Wait set: threads parked by [`OsMonitor::wait`].
    waitset: Condvar,
    /// SOLERO displaced counter word, written back on deflation.
    displaced: AtomicU64,
}

impl OsMonitor {
    /// Creates a monitor with the given fat-lock id.
    pub fn new(id: u64) -> Self {
        OsMonitor {
            id,
            inner: Mutex::new(MonitorInner::default()),
            entry: Condvar::new(),
            waitset: Condvar::new(),
            displaced: AtomicU64::new(0),
        }
    }

    /// The fat-lock id stored in inflated lock words.
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the calling thread owns the monitor. Reentrant.
    pub fn enter(&self, tid: ThreadId) {
        let raw = tid.as_u64();
        let mut g = plock(&self.inner);
        if g.owner == raw {
            g.recursion += 1;
            return;
        }
        g.queued += 1;
        while g.owner != 0 {
            g = pwait(&self.entry, g);
        }
        g.queued -= 1;
        g.owner = raw;
    }

    /// Attempts to own the monitor without blocking.
    pub fn try_enter(&self, tid: ThreadId) -> bool {
        let raw = tid.as_u64();
        let mut g = plock(&self.inner);
        if g.owner == raw {
            g.recursion += 1;
            true
        } else if g.owner == 0 {
            g.owner = raw;
            true
        } else {
            false
        }
    }

    /// Releases one level of ownership.
    ///
    /// # Panics
    ///
    /// Panics if the calling thread does not own the monitor — that is a
    /// lock-implementation bug, not a recoverable condition.
    pub fn exit(&self, tid: ThreadId) {
        let mut g = plock(&self.inner);
        assert_eq!(g.owner, tid.as_u64(), "monitor exit by non-owner");
        if g.recursion > 0 {
            g.recursion -= 1;
        } else {
            g.owner = 0;
            self.entry.notify_one();
        }
    }

    /// Java-style `wait`: atomically releases ownership (all recursion
    /// levels) and parks until notified, then reacquires to the previous
    /// depth before returning.
    ///
    /// # Panics
    ///
    /// Panics if the calling thread does not own the monitor.
    pub fn wait(&self, tid: ThreadId) {
        let raw = tid.as_u64();
        let mut g = plock(&self.inner);
        assert_eq!(g.owner, raw, "monitor wait by non-owner");
        let saved = g.recursion;
        g.owner = 0;
        g.recursion = 0;
        g.waiting += 1;
        self.entry.notify_one();
        // One park, Java semantics: spurious wakeups are permitted, so
        // callers loop on their condition around `wait`.
        g = pwait(&self.waitset, g);
        g.waiting -= 1;
        g.queued += 1;
        while g.owner != 0 {
            g = pwait(&self.entry, g);
        }
        g.queued -= 1;
        g.owner = raw;
        g.recursion = saved;
    }

    /// Like [`OsMonitor::wait`], but returns after `timeout` even without
    /// a notification. Returns `true` if notified, `false` on timeout.
    ///
    /// The flat-lock-contention protocol uses a timed wait: the paper's
    /// Figure 2/6 fast-path releases are plain stores guarded by a prior
    /// load, so an FLC bit set in the load→store window can be lost; the
    /// timed re-check restores liveness without putting an atomic
    /// read-modify-write on the release fast path.
    ///
    /// # Panics
    ///
    /// Panics if the calling thread does not own the monitor.
    pub fn wait_timeout(&self, tid: ThreadId, timeout: std::time::Duration) -> bool {
        let raw = tid.as_u64();
        let mut g = plock(&self.inner);
        assert_eq!(g.owner, raw, "monitor wait by non-owner");
        let saved = g.recursion;
        g.owner = 0;
        g.recursion = 0;
        g.waiting += 1;
        self.entry.notify_one();
        let (g2, res) = self
            .waitset
            .wait_timeout(g, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        g = g2;
        // As in Java, a spurious wakeup is indistinguishable from a
        // notification here; only a timeout is reported as `false`.
        let notified = !res.timed_out();
        g.waiting -= 1;
        g.queued += 1;
        while g.owner != 0 {
            g = pwait(&self.entry, g);
        }
        g.queued -= 1;
        g.owner = raw;
        g.recursion = saved;
        notified
    }

    /// The calling thread's ownership depth (1 = first entry), or 0 if it
    /// does not own the monitor. The lock deflation policy checks
    /// `depth == 1` before publishing a thin word on the final exit.
    pub fn depth(&self, tid: ThreadId) -> u32 {
        let g = plock(&self.inner);
        if g.owner == tid.as_u64() {
            g.recursion + 1
        } else {
            0
        }
    }

    /// Wakes every thread in the wait set.
    pub fn notify_all(&self) {
        self.waitset.notify_all();
    }

    /// Wakes one thread in the wait set.
    pub fn notify_one(&self) {
        self.waitset.notify_one();
    }

    /// True if some thread currently owns the monitor.
    pub fn is_owned(&self) -> bool {
        plock(&self.inner).owner != 0
    }

    /// True if the calling thread owns the monitor.
    pub fn owned_by(&self, tid: ThreadId) -> bool {
        plock(&self.inner).owner == tid.as_u64()
    }

    /// True if threads are blocked trying to enter — the deflation
    /// heuristic keeps the lock fat while there is queued contention.
    pub fn has_queued(&self) -> bool {
        plock(&self.inner).queued > 0
    }

    /// True if threads are parked in the wait set. Deflation must be
    /// deferred while waiters exist: a waiter that reacquires the
    /// monitor after a deflation would believe it holds a lock whose
    /// word says otherwise.
    pub fn has_waiters(&self) -> bool {
        plock(&self.inner).waiting > 0
    }

    /// Combined deflation guard: entry queue and wait set both empty.
    pub fn idle_for_deflation(&self) -> bool {
        let g = plock(&self.inner);
        g.queued == 0 && g.waiting == 0
    }

    /// Stores the displaced SOLERO counter word (already incremented past
    /// the value speculative readers may have captured).
    pub fn set_displaced(&self, word: u64) {
        self.displaced.store(word, Ordering::Release);
    }

    /// The displaced counter word to publish on deflation.
    pub fn displaced(&self) -> u64 {
        self.displaced.load(Ordering::Acquire)
    }

    /// Advances the displaced counter by `step` (one release step of the
    /// caller's word layout, `COMPACT_CTR_STEP` for a SOLERO lock),
    /// returning the new value. Used when a writing critical section
    /// completes while the lock is inflated, so that deflation never
    /// republishes a value a speculative reader might still hold.
    pub fn bump_displaced(&self, step: u64) -> u64 {
        self.displaced
            .fetch_add(step, Ordering::AcqRel)
            .wrapping_add(step)
    }
}

/// Returns a fresh, never-reused generation nonce for a lock identity.
///
/// Monitor-table keys pair an address with a generation so that a lock
/// allocated at a dropped lock's address can never adopt the old lock's
/// monitor (and its stale displaced counter). Heap objects use the heap
/// header's allocation generation; standalone locks draw a nonce from
/// this process-global counter at construction.
pub fn next_lock_gen() -> u64 {
    static NEXT_GEN: StdAtomicU64 = StdAtomicU64::new(1);
    NEXT_GEN.fetch_add(1, Ordering::Relaxed)
}

/// Identity of a lock in the [`MonitorTable`]: its word address **plus a
/// generation**, so address reuse across drop/realloc never aliases two
/// distinct locks onto one monitor.
///
/// The generation namespaces are disjoint by construction — embedded
/// `SoleroLock`s draw a process-unique nonce from [`next_lock_gen`],
/// heap-resident compact words use the heap's per-slot allocation
/// generation, and raw compact cells bound without a heap use
/// generation 0 — and even a cross-namespace collision would be benign:
/// fat-ownership claims are validated against the monitor *id* stored in
/// the lock word, never against table membership alone.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MonitorKey {
    /// Address of the lock word.
    pub addr: usize,
    /// Allocation generation of the identity the word belongs to.
    pub gen: u64,
}

impl MonitorKey {
    /// Key for `addr` under generation `gen`.
    #[inline]
    pub fn new(addr: usize, gen: u64) -> Self {
        MonitorKey { addr, gen }
    }

    /// Key for an address with no generation domain (generation 0) —
    /// raw compact cells whose storage the caller guarantees outlives
    /// the table entry.
    #[inline]
    pub fn of_addr(addr: usize) -> Self {
        MonitorKey { addr, gen: 0 }
    }

    /// SplitMix64 finalizer over both fields — addresses are
    /// pointer-aligned and generations are sequential, so the shard
    /// index needs real mixing to spread either dimension.
    #[inline]
    fn mix(self) -> u64 {
        let mut z = (self.addr as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(self.gen);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

const SHARDS: usize = 16;

/// Process-global sharded table mapping a lock's identity
/// ([`MonitorKey`]: word address + generation) to its [`OsMonitor`],
/// like the JVM's monitor cache in the Compact Java Monitors design.
///
/// Entries exist only while a lock is inflated (plus narrow race
/// windows): inflation inserts via [`MonitorTable::monitor_for`],
/// deflation removes via [`MonitorTable::remove_if`] *before* the thin
/// word is republished, and lock teardown sweeps any leftover via
/// [`MonitorTable::remove`]. Reactive paths (contenders, observers,
/// FLC releases) use [`MonitorTable::existing`] so they can never
/// resurrect an entry the deflater just pruned.
///
/// # Examples
///
/// ```
/// use solero_runtime::osmonitor::{MonitorKey, MonitorTable};
///
/// let key = MonitorKey::new(0xdead_beef, 1);
/// let m1 = MonitorTable::global().monitor_for(key);
/// let m2 = MonitorTable::global().monitor_for(key);
/// assert_eq!(m1.id(), m2.id(), "same key, same monitor");
/// // A different generation at the same address is a different lock:
/// let other = MonitorTable::global().monitor_for(MonitorKey::new(0xdead_beef, 2));
/// assert_ne!(m1.id(), other.id());
/// MonitorTable::global().remove(key);
/// MonitorTable::global().remove(MonitorKey::new(0xdead_beef, 2));
/// ```
#[derive(Debug)]
pub struct MonitorTable {
    shards: Vec<StdMutex<HashMap<MonitorKey, Arc<OsMonitor>>>>,
    next_id: StdAtomicU64,
}

impl MonitorTable {
    fn new() -> Self {
        MonitorTable {
            shards: (0..SHARDS).map(|_| StdMutex::new(HashMap::new())).collect(),
            next_id: StdAtomicU64::new(1),
        }
    }

    /// The process-global table.
    pub fn global() -> &'static MonitorTable {
        static TABLE: OnceLock<MonitorTable> = OnceLock::new();
        TABLE.get_or_init(MonitorTable::new)
    }

    #[inline]
    fn shard(&self, key: MonitorKey) -> &StdMutex<HashMap<MonitorKey, Arc<OsMonitor>>> {
        &self.shards[(key.mix() as usize) % SHARDS]
    }

    /// Returns the monitor for `key`, creating one on first use.
    ///
    /// Monitor ids are globally unique and never reused, which is what
    /// lets inflated lock words carry the id as proof of binding: a
    /// fresh monitor created after a deflate can never satisfy a claim
    /// check against a stale inflated word.
    ///
    /// Only inflating paths (and wait re-entry, which holds fat
    /// ownership) may call this; reactive paths use
    /// [`MonitorTable::existing`].
    pub fn monitor_for(&self, key: MonitorKey) -> Arc<OsMonitor> {
        let mut g = plock_std(self.shard(key));
        if let Some(m) = g.get(&key) {
            return Arc::clone(m);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let m = Arc::new(OsMonitor::new(id));
        g.insert(key, Arc::clone(&m));
        m
    }

    /// Returns the monitor for `key` only if one is currently tabled.
    /// The lookup-only counterpart of [`MonitorTable::monitor_for`] for
    /// reactive paths: a `None` means the lock deflated (retry from the
    /// word) — creating a monitor here would resurrect a pruned entry.
    pub fn existing(&self, key: MonitorKey) -> Option<Arc<OsMonitor>> {
        plock_std(self.shard(key)).get(&key).map(Arc::clone)
    }

    /// True if `key` is still bound to exactly `m`. Inflators must
    /// verify this (while owning `m`, which pins the binding — removal
    /// requires ownership) before CASing `m`'s id into a lock word.
    pub fn is_current(&self, key: MonitorKey, m: &Arc<OsMonitor>) -> bool {
        plock_std(self.shard(key))
            .get(&key)
            .is_some_and(|cur| Arc::ptr_eq(cur, m))
    }

    /// Removes the association for `key` only if it is still bound to
    /// exactly `m`; returns whether an entry was removed. The deflation
    /// path calls this *before* republishing the thin word so a racing
    /// re-inflation (which must create a *new* entry) can never have
    /// its entry swept by a stale deflater.
    pub fn remove_if(&self, key: MonitorKey, m: &Arc<OsMonitor>) -> bool {
        let mut g = plock_std(self.shard(key));
        if g.get(&key).is_some_and(|cur| Arc::ptr_eq(cur, m)) {
            g.remove(&key);
            true
        } else {
            false
        }
    }

    /// Drops the association for `key` unconditionally. Called from
    /// lock teardown so a future lock reusing the address starts fresh
    /// even if the final exit lost a removal race.
    pub fn remove(&self, key: MonitorKey) {
        plock_std(self.shard(key)).remove(&key);
    }

    /// Number of live associations (for tests and diagnostics).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| plock_std(s).len()).sum()
    }

    /// True if the table holds no associations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn enter_exit_roundtrip() {
        let m = OsMonitor::new(1);
        let me = ThreadId::current();
        assert!(!m.is_owned());
        m.enter(me);
        assert!(m.owned_by(me));
        m.exit(me);
        assert!(!m.is_owned());
    }

    #[test]
    fn reentrancy_counts() {
        let m = OsMonitor::new(1);
        let me = ThreadId::current();
        m.enter(me);
        m.enter(me);
        m.enter(me);
        m.exit(me);
        assert!(m.owned_by(me));
        m.exit(me);
        assert!(m.owned_by(me));
        m.exit(me);
        assert!(!m.is_owned());
    }

    #[test]
    fn try_enter_fails_when_contended() {
        let m = Arc::new(OsMonitor::new(1));
        let me = ThreadId::current();
        m.enter(me);
        let m2 = Arc::clone(&m);
        std::thread::spawn(move || {
            let other = ThreadId::current();
            assert!(!m2.try_enter(other));
        })
        .join()
        .unwrap();
        m.exit(me);
    }

    #[test]
    fn contended_enter_blocks_until_exit() {
        let m = Arc::new(OsMonitor::new(1));
        let me = ThreadId::current();
        m.enter(me);
        let entered = Arc::new(AtomicBool::new(false));
        let (m2, e2) = (Arc::clone(&m), Arc::clone(&entered));
        let h = std::thread::spawn(move || {
            let other = ThreadId::current();
            m2.enter(other);
            e2.store(true, Ordering::SeqCst);
            m2.exit(other);
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!entered.load(Ordering::SeqCst), "must block while owned");
        assert!(m.has_queued());
        m.exit(me);
        h.join().unwrap();
        assert!(entered.load(Ordering::SeqCst));
    }

    #[test]
    fn wait_releases_and_reacquires_recursion() {
        let m = Arc::new(OsMonitor::new(1));
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || {
            let me = ThreadId::current();
            m2.enter(me);
            m2.enter(me); // depth 2
            m2.wait(me); // releases fully
            assert!(m2.owned_by(me));
            m2.exit(me);
            m2.exit(me);
            assert!(!m2.is_owned());
        });
        // Let the waiter park, then take the monitor ourselves and notify.
        std::thread::sleep(Duration::from_millis(20));
        let me = ThreadId::current();
        m.enter(me);
        m.notify_all();
        m.exit(me);
        h.join().unwrap();
    }

    #[test]
    fn displaced_counter_bumps() {
        let m = OsMonitor::new(9);
        m.set_displaced(0x500);
        assert_eq!(m.displaced(), 0x500);
        let step = crate::word::COMPACT_CTR_STEP;
        assert_eq!(m.bump_displaced(step), 0x500 + step);
        assert_eq!(m.displaced(), 0x500 + step);
    }

    #[test]
    fn table_is_idempotent_per_key() {
        let t = MonitorTable::global();
        let addr = &t as *const _ as usize; // any unique address
        let k = MonitorKey::new(addr, next_lock_gen());
        let a = t.monitor_for(k);
        let b = t.monitor_for(k);
        assert_eq!(a.id(), b.id());
        t.remove(k);
        let c = t.monitor_for(k);
        assert_ne!(a.id(), c.id(), "fresh monitor after removal");
        t.remove(k);
    }

    #[test]
    fn generation_disambiguates_reused_addresses() {
        let t = MonitorTable::global();
        let addr = 0x7000_0000_usize;
        let old = MonitorKey::new(addr, next_lock_gen());
        let new = MonitorKey::new(addr, next_lock_gen());
        let stale = t.monitor_for(old); // entry the old lock leaked
        let fresh = t.monitor_for(new);
        assert_ne!(
            stale.id(),
            fresh.id(),
            "same address, different generation: distinct monitors"
        );
        t.remove(old);
        t.remove(new);
    }

    #[test]
    fn existing_never_creates() {
        let t = MonitorTable::global();
        let k = MonitorKey::new(0x7100_0000, next_lock_gen());
        assert!(t.existing(k).is_none());
        let m = t.monitor_for(k);
        let found = t.existing(k).expect("tabled after monitor_for");
        assert_eq!(found.id(), m.id());
        t.remove(k);
        assert!(t.existing(k).is_none(), "existing sees the removal");
    }

    #[test]
    fn remove_if_only_removes_the_matching_binding() {
        let t = MonitorTable::global();
        let k = MonitorKey::new(0x7200_0000, next_lock_gen());
        let first = t.monitor_for(k);
        assert!(t.is_current(k, &first));
        assert!(t.remove_if(k, &first), "matching binding removed");
        assert!(!t.remove_if(k, &first), "second removal is a no-op");
        // A successor monitor at the same key is a different binding:
        // the stale Arc must neither pass is_current nor remove it.
        let second = t.monitor_for(k);
        assert!(!t.is_current(k, &first));
        assert!(t.is_current(k, &second));
        assert!(!t.remove_if(k, &first), "stale deflater cannot sweep successor");
        assert!(t.existing(k).is_some());
        assert!(t.remove_if(k, &second));
        assert!(t.existing(k).is_none());
    }

    #[test]
    fn lock_gen_nonces_are_unique() {
        let a = next_lock_gen();
        let b = next_lock_gen();
        assert_ne!(a, b);
        assert!(a >= 1 && b >= 1, "generation 0 is reserved for raw cells");
    }
}
