//! The conventional bi-modal (tasuki) lock — the paper's baseline `Lock`.
//!
//! Fast paths follow the paper's Figure 2 exactly:
//!
//! * **acquire**: load the word; if zero, CAS in `tid << 8`; otherwise
//!   take the slow path (recursion, contention, or fat mode);
//! * **release**: if `(word & 0xff) == 0` (thin, recursion 0, no FLC,
//!   not inflated) store zero; otherwise take the slow path.
//!
//! Contention on a flat lock is resolved with the three-tier loops of
//! Figure 3; when they are exhausted (or the word shows FLC/inflation)
//! the thread moves to the OS monitor, sets the FLC bit, and waits; a
//! woken contender inflates the lock. Uncontended fat locks deflate back
//! to thin on release — the tasuki bidirectional transfer.

use solero_sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use solero_runtime::osmonitor::{next_lock_gen, MonitorKey, MonitorTable, OsMonitor};
use solero_runtime::spin::{Probe, SpinConfig};
use solero_runtime::stats::LockStats;
use solero_runtime::thread::ThreadId;
use solero_runtime::word::{ConvWord, CONV_RECURSION_MAX, CONV_RECURSION_STEP};

/// How long an FLC waiter parks before re-checking the word (guards
/// against the fast-release/FLC race; see `OsMonitor::wait_timeout`).
const FLC_RECHECK: Duration = Duration::from_millis(1);

/// The conventional Java monitor lock (mutual exclusion, reentrant,
/// bi-modal).
///
/// # Examples
///
/// ```
/// use solero_tasuki::TasukiLock;
///
/// let lock = TasukiLock::new();
/// let guard = lock.lock();
/// // ... critical section ...
/// drop(guard);
/// assert!(!lock.is_locked());
/// ```
#[derive(Debug)]
pub struct TasukiLock {
    word: AtomicU64,
    spin: SpinConfig,
    stats: LockStats,
    /// Process-unique generation nonce; paired with the word address to
    /// key the monitor table, so address reuse never aliases monitors.
    gen: u64,
}

impl Default for TasukiLock {
    fn default() -> Self {
        Self::new()
    }
}

/// RAII guard returned by [`TasukiLock::lock`].
#[derive(Debug)]
pub struct TasukiGuard<'a> {
    lock: &'a TasukiLock,
    tid: ThreadId,
}

impl Drop for TasukiGuard<'_> {
    fn drop(&mut self) {
        self.lock.exit(self.tid);
    }
}

impl TasukiLock {
    /// Creates an unlocked lock with default spin tiers.
    pub fn new() -> Self {
        Self::with_spin(SpinConfig::default())
    }

    /// Creates an unlocked lock with the given contention tiers.
    pub fn with_spin(spin: SpinConfig) -> Self {
        TasukiLock {
            word: AtomicU64::new(0),
            spin,
            stats: LockStats::default(),
            gen: next_lock_gen(),
        }
    }

    /// Acquires the lock, returning a guard that releases it on drop.
    pub fn lock(&self) -> TasukiGuard<'_> {
        let tid = ThreadId::current();
        self.enter(tid);
        TasukiGuard { lock: self, tid }
    }

    /// Per-lock statistics counters.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// True if any thread holds the lock (thin or fat).
    pub fn is_locked(&self) -> bool {
        let w = ConvWord(self.word.load(Ordering::Acquire));
        if w.is_inflated() {
            // Lookup-only: an absent entry means a deflation is mid-
            // publish, and a fresh monitor would be unowned anyway.
            self.monitor_existing().is_some_and(|m| m.is_owned())
        } else {
            w.is_held_flat()
        }
    }

    /// True if the calling thread holds the lock.
    pub fn held_by_current(&self) -> bool {
        self.holds(ThreadId::current())
    }

    /// True if `tid` holds the lock.
    pub fn holds(&self, tid: ThreadId) -> bool {
        let w = ConvWord(self.word.load(Ordering::Acquire));
        if w.is_inflated() {
            self.monitor_existing().is_some_and(|m| m.owned_by(tid))
        } else {
            w.tid() == Some(tid)
        }
    }

    /// True if the lock is currently in fat (inflated) mode.
    pub fn is_inflated(&self) -> bool {
        ConvWord(self.word.load(Ordering::Acquire)).is_inflated()
    }

    /// The current raw word (diagnostics and tests).
    pub fn raw_word(&self) -> ConvWord {
        ConvWord(self.word.load(Ordering::Acquire))
    }

    /// Identity of this lock in the global monitor table: word address
    /// plus the construction-time generation nonce. Public so table-
    /// hygiene tests can observe residency per lock.
    pub fn monitor_key(&self) -> MonitorKey {
        MonitorKey::new(&self.word as *const _ as usize, self.gen)
    }

    /// True if the global monitor table currently holds an entry for
    /// this lock (inflated, or a narrow race window).
    pub fn monitor_resident(&self) -> bool {
        MonitorTable::global().existing(self.monitor_key()).is_some()
    }

    /// Get-or-create resolution; only held-lock paths (inflation of a
    /// held word, wait re-entry) may call this.
    fn monitor(&self) -> std::sync::Arc<OsMonitor> {
        MonitorTable::global().monitor_for(self.monitor_key())
    }

    /// Lookup-only resolution for reactive paths; `None` means the lock
    /// is not inflated and the caller must fall back to the word.
    fn monitor_existing(&self) -> Option<std::sync::Arc<OsMonitor>> {
        MonitorTable::global().existing(self.monitor_key())
    }

    /// Acquires the lock on behalf of `tid` (explicit form used by the
    /// interpreter; prefer [`TasukiLock::lock`]).
    pub fn enter(&self, tid: ThreadId) {
        self.stats.write_enters.fetch_add(1, Ordering::Relaxed);
        // Figure 2, lines 1–11.
        let v = ConvWord(self.word.load(Ordering::Relaxed));
        if v.is_zero()
            && self
                .word
                .compare_exchange(0, ConvWord::held_by(tid).raw(), Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            self.stats.write_fast.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.slow_enter(tid);
    }

    /// Acquires the lock for a section known to be read-only.
    /// Synchronization is identical to [`TasukiLock::enter`] — mutual
    /// exclusion cannot exploit read-onlyness — only the statistics
    /// classification differs (Table 1 read-only ratios).
    pub fn enter_read(&self, tid: ThreadId) {
        self.stats.read_enters.fetch_add(1, Ordering::Relaxed);
        let v = ConvWord(self.word.load(Ordering::Relaxed));
        if v.is_zero()
            && self
                .word
                .compare_exchange(0, ConvWord::held_by(tid).raw(), Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            return;
        }
        self.slow_enter(tid);
    }

    /// Releases one level of the lock on behalf of `tid`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `tid` does not hold the lock.
    pub fn exit(&self, tid: ThreadId) {
        // Figure 2, lines 13–17.
        let v = ConvWord(self.word.load(Ordering::Relaxed));
        if v.fast_releasable() {
            debug_assert_eq!(v.tid(), Some(tid), "release by non-owner");
            self.word.store(0, Ordering::Release);
            return;
        }
        self.slow_exit(tid, v);
    }

    #[cold]
    fn slow_enter(&self, tid: ThreadId) {
        loop {
            let v = ConvWord(self.word.load(Ordering::Acquire));
            // Recursive flat acquisition.
            if !v.is_inflated() && v.tid() == Some(tid) {
                if v.recursion() == CONV_RECURSION_MAX {
                    // Recursion bits saturated: inflate, transferring the
                    // depth onto the monitor.
                    self.inflate_held(tid, v);
                    self.monitor().enter(tid); // the new level
                    return;
                }
                // Recursion bits belong to the owner; contenders only CAS,
                // so a plain fetch_add cannot corrupt the word.
                self.word.fetch_add(CONV_RECURSION_STEP, Ordering::Relaxed);
                self.stats.recursive_enters.fetch_add(1, Ordering::Relaxed);
                return;
            }
            if v.is_inflated() {
                if self.enter_fat(tid) {
                    return;
                }
                continue;
            }
            if v.is_zero() {
                if self
                    .word
                    .compare_exchange(0, ConvWord::held_by(tid).raw(), Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    self.stats.write_fast.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                continue;
            }
            // Held by another thread: three-tier spin (Figure 3).
            let spun = self.spin.run(|| {
                let v = ConvWord(self.word.load(Ordering::Acquire));
                if v.is_zero() {
                    if self
                        .word
                        .compare_exchange(0, ConvWord::held_by(tid).raw(), Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok()
                    {
                        return Probe::Done(true);
                    }
                } else if v.is_inflated() || v.has_flc() {
                    // Figure 3 line 8: leave the spin loops.
                    return Probe::Done(false);
                }
                Probe::Retry
            });
            match spun {
                Some(true) => return, // acquired in the spin loop
                Some(false) | None => {
                    // Contended beyond spinning: park on the monitor.
                    if self.enter_via_monitor(tid) {
                        return;
                    }
                }
            }
        }
    }

    /// Fat-mode entry: take the monitor, then confirm the lock is still
    /// inflated (it may have deflated while we blocked). Returns `false`
    /// if the caller must retry from the top.
    fn enter_fat(&self, tid: ThreadId) -> bool {
        let Some(m) = self.monitor_existing() else {
            // Inflated word but no entry: a deflater pruned the binding
            // and is about to publish the thin word. Retry.
            return false;
        };
        m.enter(tid);
        let v = ConvWord(self.word.load(Ordering::Acquire));
        if v.monitor_id() == Some(m.id()) {
            self.stats.monitor_enters.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            m.exit(tid);
            false
        }
    }

    /// FLC protocol: under the monitor, repeatedly set the FLC bit on the
    /// held word and park; a woken (or timed-out) contender that finds
    /// the word free inflates the lock and owns it. Returns `false` if
    /// the caller must retry from the top.
    fn enter_via_monitor(&self, tid: ThreadId) -> bool {
        let key = self.monitor_key();
        let table = MonitorTable::global();
        let m = table.monitor_for(key);
        m.enter(tid);
        loop {
            if !table.is_current(key, &m) {
                // Deflated (and pruned) while we blocked, or re-inflated
                // onto a fresh monitor: this one is an orphan.
                m.exit(tid);
                return false;
            }
            let v = ConvWord(self.word.load(Ordering::Acquire));
            if v.is_inflated() {
                if v.monitor_id() == Some(m.id()) {
                    // Someone else inflated; we already own the monitor.
                    self.stats.monitor_enters.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                // Stale inflated word this monitor never had.
                m.exit(tid);
                return false;
            }
            if !v.is_held_flat() {
                // Free (possibly with a stale FLC bit): inflate and own.
                if self
                    .word
                    .compare_exchange(v.raw(), ConvWord::inflated(m.id()).raw(), Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    self.stats.inflations.fetch_add(1, Ordering::Relaxed);
                    self.stats.monitor_enters.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                continue;
            }
            // Held: publish contention and park.
            if v.has_flc()
                || self
                    .word
                    .compare_exchange(v.raw(), v.with_flc().raw(), Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                self.stats.flc_waits.fetch_add(1, Ordering::Relaxed);
                m.wait_timeout(tid, FLC_RECHECK);
            }
        }
    }

    /// Java-style `Object.wait()`: releases the lock (all recursion
    /// levels) and parks until notified, then reacquires. Inflates first
    /// — waiting requires the OS monitor, as in the JVM.
    ///
    /// # Panics
    ///
    /// Panics if `tid` does not hold the lock (the analogue of
    /// `IllegalMonitorStateException`).
    pub fn wait(&self, tid: ThreadId) {
        let v = ConvWord(self.word.load(Ordering::Acquire));
        if !v.is_inflated() {
            assert_eq!(v.tid(), Some(tid), "wait without holding the lock");
            self.inflate_held(tid, v);
        }
        // The entry must exist: either we just inflated, or the word
        // was already inflated and we hold it fat (blocking deflation).
        let m = self
            .monitor_existing()
            .expect("wait without holding the lock");
        assert!(m.owned_by(tid), "wait without holding the lock");
        m.wait(tid);
    }

    /// Java-style `Object.notifyAll()`: wakes every thread waiting on
    /// this lock. The caller must hold the lock.
    ///
    /// # Panics
    ///
    /// Panics if `tid` does not hold the lock.
    pub fn notify_all(&self, tid: ThreadId) {
        assert!(self.holds(tid), "notify without holding the lock");
        // Waiters exist only while inflated; notify on a thin lock is a
        // no-op and must not plant a table entry.
        if let Some(m) = self.monitor_existing() {
            m.notify_all();
        }
    }

    /// Java-style `Object.notify()`: wakes one waiting thread.
    ///
    /// # Panics
    ///
    /// Panics if `tid` does not hold the lock.
    pub fn notify_one(&self, tid: ThreadId) {
        assert!(self.holds(tid), "notify without holding the lock");
        if let Some(m) = self.monitor_existing() {
            m.notify_one();
        }
    }

    /// Inflates while `tid` holds the flat lock with saturated recursion,
    /// transferring `v.recursion()` levels onto the monitor.
    fn inflate_held(&self, tid: ThreadId, v: ConvWord) {
        let m = self.monitor();
        m.enter(tid);
        for _ in 0..v.recursion() {
            m.enter(tid);
        }
        self.word.store(ConvWord::inflated(m.id()).raw(), Ordering::Release);
        self.stats.inflations.fetch_add(1, Ordering::Relaxed);
        m.notify_all(); // FLC waiters must re-examine the word
    }

    #[cold]
    fn slow_exit(&self, tid: ThreadId, v: ConvWord) {
        if v.is_inflated() {
            self.exit_fat(tid);
            return;
        }
        debug_assert_eq!(v.tid(), Some(tid), "release by non-owner");
        if v.recursion() > 0 {
            self.word.fetch_sub(CONV_RECURSION_STEP, Ordering::Release);
            return;
        }
        // FLC set: release under the monitor and wake contenders.
        // Lookup-only: the contender that set the bit tabled the entry;
        // if it is gone nobody is parked and a plain store suffices.
        debug_assert!(v.has_flc());
        match self.monitor_existing() {
            Some(m) => {
                m.enter(tid);
                self.word.store(0, Ordering::Release);
                m.notify_all();
                m.exit(tid);
            }
            None => self.word.store(0, Ordering::Release),
        }
    }

    fn exit_fat(&self, tid: ThreadId) {
        let key = self.monitor_key();
        let table = MonitorTable::global();
        let m = table
            .existing(key)
            .expect("fat owner's monitor must be tabled");
        debug_assert!(m.owned_by(tid), "fat release by non-owner");
        if m.depth(tid) == 1 && m.idle_for_deflation() {
            // Tasuki deflation: uncontended fat locks revert to thin.
            // Prune the table entry *first* so a racing contender can
            // never claim through (or re-use) the retired binding, then
            // publish the thin word.
            let removed = table.remove_if(key, &m);
            debug_assert!(removed, "deflater's binding must still be current");
            self.word.store(0, Ordering::Release);
            self.stats.deflations.fetch_add(1, Ordering::Relaxed);
            m.notify_all();
        }
        m.exit(tid);
    }
}

impl Drop for TasukiLock {
    fn drop(&mut self) {
        MonitorTable::global().remove(self.monitor_key());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    #[test]
    fn uncontended_lock_unlock() {
        let l = TasukiLock::new();
        assert!(!l.is_locked());
        {
            let _g = l.lock();
            assert!(l.is_locked());
            assert!(l.held_by_current());
        }
        assert!(!l.is_locked());
        let s = l.stats().snapshot();
        assert_eq!(s.write_enters, 1);
        assert_eq!(s.write_fast, 1);
    }

    #[test]
    fn reentrant_guards_nest() {
        let l = TasukiLock::new();
        let g1 = l.lock();
        let g2 = l.lock();
        let g3 = l.lock();
        assert_eq!(l.raw_word().recursion(), 2);
        drop(g3);
        drop(g2);
        assert!(l.is_locked());
        drop(g1);
        assert!(!l.is_locked());
        assert_eq!(l.stats().snapshot().recursive_enters, 2);
    }

    #[test]
    fn deep_recursion_inflates_and_recovers() {
        let l = TasukiLock::new();
        let tid = ThreadId::current();
        let depth = (CONV_RECURSION_MAX + 5) as usize;
        for _ in 0..=depth {
            l.enter(tid);
        }
        assert!(l.is_inflated(), "saturated recursion must inflate");
        assert!(l.holds(tid));
        for _ in 0..=depth {
            l.exit(tid);
        }
        assert!(!l.is_locked());
        assert!(!l.is_inflated(), "uncontended fat lock deflates");
        assert!(l.stats().snapshot().inflations >= 1);
        assert!(l.stats().snapshot().deflations >= 1);
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let l = Arc::new(TasukiLock::with_spin(SpinConfig {
            tier1: 4,
            tier2: 8,
            tier3: 2,
        }));
        let counter = Arc::new(AtomicU32::new(0));
        const THREADS: usize = 8;
        const ITERS: u32 = 2_000;
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let l = Arc::clone(&l);
            let c = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..ITERS {
                    let _g = l.lock();
                    // Non-atomic read-modify-write protected by the lock.
                    let v = c.load(Ordering::Relaxed);
                    std::hint::black_box(v);
                    c.store(v + 1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), THREADS as u32 * ITERS);
    }

    #[test]
    fn contention_inflates_then_deflates() {
        let l = Arc::new(TasukiLock::with_spin(SpinConfig::immediate()));
        let l2 = Arc::clone(&l);
        let g = l.lock();
        let h = std::thread::spawn(move || {
            let _g = l2.lock(); // must park, setting FLC / inflating
        });
        // Hold the lock until the contender has booked its FLC wait,
        // which it does just before parking: a timed hold can end
        // before a contender under load gets there. Deadline-capped, so
        // a regression fails the assert below, not the clock.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while l.stats().snapshot().flc_waits == 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        drop(g);
        h.join().unwrap();
        let s = l.stats().snapshot();
        assert!(
            s.flc_waits >= 1 || s.inflations >= 1,
            "contender should have used the monitor path: {s}"
        );
        // After all contention ends the next cycle leaves the lock thin.
        drop(l.lock());
        assert!(!l.is_inflated());
    }

    #[test]
    fn holds_is_per_thread() {
        let l = Arc::new(TasukiLock::new());
        let g = l.lock();
        let l2 = Arc::clone(&l);
        std::thread::spawn(move || {
            assert!(l2.is_locked());
            assert!(!l2.held_by_current());
        })
        .join()
        .unwrap();
        drop(g);
    }
}
