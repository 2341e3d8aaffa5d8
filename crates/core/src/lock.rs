//! The SOLERO lock, the conventional lock it extends, and the write
//! side of their one protocol: acquisition, release, inflation and
//! deflation.
//!
//! The write-side fast paths follow the paper's Figure 6:
//!
//! * **acquire**: load the word; if the low three bits are clear, CAS in
//!   `tid | LOCK_BIT` beside the counter; otherwise take the slow path;
//! * **release**: if `(word & 0xff) == LOCK_BIT`, store the held word's
//!   counter plus one step — the sequence counter advances so
//!   concurrent speculative readers observe a changed value. Only a
//!   section that wrote releases this way: a held read section stores
//!   the counter plus zero, the word it found (see [`crate::read`]).
//!
//! The paper's Figure 5 word keeps the pre-acquisition counter (the
//! *local lock variable* `v1`) outside the word while the lock is held;
//! the [`CompactWord`] layout keeps it inside, so no path here carries
//! it. The protocol is written once, as methods of [`CompactRef`]: a
//! [`SoleroLock`] is a word with a space of its own and delegates every
//! operation to a handle over them. The read-side paths (Figures 7–9
//! and the Figure 17 read-mostly extension) live in [`crate::read`].
//!
//! The conventional bi-modal (tasuki) lock of Figures 2 and 3, the
//! paper's baseline `Lock`, is the same protocol with a counter step of
//! zero: a release publishes the counter plus zero, so the word is zero
//! whenever the lock is free, exactly as Figure 2's release stores `0`.
//! [`TasukiLock`] builds its handle that way and elides nothing.

use std::sync::Arc;
use std::time::Duration;

use solero_sync::atomic::{AtomicU64, Ordering};

use solero_runtime::osmonitor::{next_lock_gen, MonitorKey, MonitorTable, OsMonitor};
use solero_runtime::spin::Probe;
use solero_runtime::stats::LockStats;
use solero_runtime::thread::ThreadId;
use solero_runtime::word::{
    CompactWord, COMPACT_CTR_STEP, SOLERO_RECURSION_MAX, SOLERO_RECURSION_STEP,
};

use crate::adaptive::AdaptivePolicy;
use crate::compact::{CompactRef, CompactSpace};
use crate::config::SoleroConfig;
use crate::read::LockWord;

/// Runs a fast path's slow branch as a cold call. A handle is too big
/// to pass in registers, so calling a slow path with it makes the
/// compiler write the handle to the stack, and it does so where the
/// handle is built, before the fast path runs. Moving the handle into
/// `f` builds that copy here, in the branch that needs it.
#[cold]
#[inline(never)]
fn out_of_line<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// Timed-wait interval for FLC waiters (see
/// `OsMonitor::wait_timeout` for why the wait is timed).
const FLC_RECHECK: Duration = Duration::from_millis(1);

/// The SOLERO lock (PLDI 2010): a drop-in replacement for the
/// conventional Java monitor whose read-only critical sections do not
/// write the lock word.
///
/// # Examples
///
/// ```
/// use solero::SoleroLock;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let lock = SoleroLock::new();
/// let data = AtomicU64::new(0);
///
/// // Writing critical section: acquires the lock.
/// lock.write(|| data.store(42, Ordering::Release));
///
/// // Read-only critical section: elides the lock.
/// let seen = lock
///     .read_only(|_s| Ok::<_, solero::Fault>(data.load(Ordering::Acquire)))
///     .unwrap();
/// assert_eq!(seen, 42);
/// assert_eq!(lock.stats().snapshot().elision_success, 1);
/// ```
#[derive(Debug)]
#[repr(C)]
pub struct SoleroLock {
    /// Statistics and configuration: a space of one lock.
    space: CompactSpace,
    /// The adaptive elision policy, present iff `config.adaptive` is.
    /// Cache-line aligned, so the word after it starts a line that
    /// holds nothing but the word and the nonce: elided readers, which
    /// only load the word, never share its line with the counters they
    /// bump.
    policy: Option<AdaptivePolicy>,
    /// The lock word ([`CompactWord`] layout).
    word: AtomicU64,
    /// Process-unique generation nonce drawn at construction; paired
    /// with the word address to form the monitor-table key, so a lock
    /// later allocated at this address can never adopt this lock's
    /// monitor (or its stale displaced counter).
    gen: u64,
}

impl Default for SoleroLock {
    fn default() -> Self {
        Self::new()
    }
}

/// Opaque token for a writing critical section, passed from
/// [`SoleroLock::enter_write`] back to [`SoleroLock::exit_write`]. It
/// carries nothing: the lock word itself holds the displaced counter.
#[derive(Debug)]
#[must_use = "a write ticket must be passed back to exit_write"]
pub struct WriteTicket(());

/// RAII guard returned by [`SoleroLock::lock_write`].
#[derive(Debug)]
pub struct SoleroWriteGuard<'a> {
    lock: &'a SoleroLock,
    tid: ThreadId,
}

impl Drop for SoleroWriteGuard<'_> {
    fn drop(&mut self) {
        self.lock.handle().release(self.tid);
    }
}

impl SoleroLock {
    /// Creates an unlocked lock with the paper's default configuration.
    pub fn new() -> Self {
        Self::with_config(SoleroConfig::default())
    }

    /// Creates an unlocked lock with explicit configuration.
    pub fn with_config(config: SoleroConfig) -> Self {
        SoleroLock {
            space: CompactSpace::with_config(config),
            policy: config.adaptive.map(AdaptivePolicy::new),
            word: AtomicU64::new(CompactWord::INIT.raw()),
            gen: next_lock_gen(),
        }
    }

    /// The protocol handle over this lock's word, key, space and
    /// policy.
    #[inline]
    pub(crate) fn handle(&self) -> CompactRef<'_> {
        CompactRef {
            space: &self.space,
            word: &self.word,
            key: self.monitor_key(),
            policy: self.policy.as_ref(),
            step: COMPACT_CTR_STEP,
        }
    }

    /// The lock's configuration.
    pub fn config(&self) -> &SoleroConfig {
        self.space.config()
    }

    /// Per-lock statistics counters.
    pub fn stats(&self) -> &LockStats {
        self.space.stats()
    }

    /// The adaptive elision policy, if this lock was configured with
    /// one.
    pub fn policy(&self) -> Option<&AdaptivePolicy> {
        self.policy.as_ref()
    }

    /// The current raw word (diagnostics and tests).
    pub fn raw_word(&self) -> CompactWord {
        self.handle().raw_word()
    }

    /// True if the lock is currently in fat (inflated) mode.
    pub fn is_inflated(&self) -> bool {
        self.handle().is_inflated()
    }

    /// True if any thread holds the lock (thin or fat).
    pub fn is_locked(&self) -> bool {
        self.handle().is_locked()
    }

    /// True if `tid` holds the lock.
    pub fn holds(&self, tid: ThreadId) -> bool {
        self.handle().holds(tid)
    }

    /// True if the calling thread holds the lock.
    pub fn held_by_current(&self) -> bool {
        self.holds(ThreadId::current())
    }

    /// Runs `f` as a writing critical section.
    #[inline]
    pub fn write<R>(&self, f: impl FnOnce() -> R) -> R {
        self.handle().write_section(f)
    }

    /// Acquires the lock for writing, returning a guard.
    pub fn lock_write(&self) -> SoleroWriteGuard<'_> {
        let tid = ThreadId::current();
        self.handle().acquire(tid);
        SoleroWriteGuard { lock: self, tid }
    }

    /// Identity of this lock in the global [`MonitorTable`]: the word's
    /// address plus the construction-time generation nonce. Public so
    /// table-hygiene tests can observe residency per lock.
    pub fn monitor_key(&self) -> MonitorKey {
        MonitorKey::new(&self.word as *const _ as usize, self.gen)
    }

    /// True if the global monitor table currently holds an entry for
    /// this lock. Quiescent locks must read `false` — an entry exists
    /// only while inflated (plus narrow race windows).
    pub fn monitor_resident(&self) -> bool {
        self.handle().monitor_resident()
    }

    /// Acquires the lock for a writing critical section (Figure 6,
    /// lines 1–13).
    pub fn enter_write(&self, tid: ThreadId) -> WriteTicket {
        self.handle().acquire(tid);
        WriteTicket(())
    }

    /// Releases a writing critical section (Figure 6, lines 15–21).
    ///
    /// # Panics
    ///
    /// Debug-asserts that `tid` holds the lock.
    pub fn exit_write(&self, tid: ThreadId, _ticket: WriteTicket) {
        self.handle().release(tid)
    }

    /// Java-style `Object.wait()`: releases the lock (all recursion
    /// levels) and parks until notified, then reacquires. Inflates first
    /// — waiting requires the OS monitor, and the displaced counter set
    /// at inflation keeps speculative readers correct across the cycle.
    ///
    /// # Panics
    ///
    /// Panics if `tid` does not hold the lock (the analogue of
    /// `IllegalMonitorStateException`). Never call this from a
    /// speculative read-only section — the paper's classifier rejects
    /// such sections precisely because `wait` is a side effect.
    pub fn wait(&self, tid: ThreadId) {
        self.handle().wait(tid)
    }

    /// Java-style `Object.notifyAll()`. The caller must hold the lock.
    ///
    /// # Panics
    ///
    /// Panics if `tid` does not hold the lock.
    pub fn notify_all(&self, tid: ThreadId) {
        self.handle().notify(tid, true)
    }

    /// Java-style `Object.notify()`. The caller must hold the lock.
    ///
    /// # Panics
    ///
    /// Panics if `tid` does not hold the lock.
    pub fn notify_one(&self, tid: ThreadId) {
        self.handle().notify(tid, false)
    }
}

impl Drop for SoleroLock {
    fn drop(&mut self) {
        // Unconditional sweep: normally the deflation path already
        // pruned the entry, but a lock torn down while inflated (or a
        // lingering FLC entry from a contender that never inflated)
        // must not pin its monitor for the process lifetime.
        self.space.detach(self.monitor_key());
    }
}

/// The conventional Java monitor lock — the paper's baseline `Lock`:
/// mutual exclusion, reentrant, bi-modal (Figures 2 and 3).
///
/// It is a [`SoleroLock`] without elision and with a zero counter step:
/// the same word, the same thin/fat protocol and the same monitor
/// table, but a release publishes the counter plus zero, so the word
/// reads zero whenever the lock is free, and a contended writer waits
/// on Figure 3's spin tiers before parking. Read-only sections take the
/// lock too ([`enter_read`](Self::enter_read)).
///
/// # Examples
///
/// ```
/// use solero::TasukiLock;
///
/// let lock = TasukiLock::new();
/// let guard = lock.lock();
/// // ... critical section ...
/// drop(guard);
/// assert!(!lock.is_locked());
/// assert_eq!(lock.raw_word().raw(), 0, "a free conventional lock reads zero");
/// ```
#[derive(Debug)]
#[repr(C)]
pub struct TasukiLock {
    /// The lock word ([`CompactWord`] layout, counter held at zero).
    word: AtomicU64,
    /// Statistics and configuration: a space of one lock. It follows
    /// the word, and its statistics come first, so the counters every
    /// write section bumps (`write_enters`, `write_fast`) lie within 24
    /// bytes of the word's start, on its cache line unless the lock
    /// starts in the last 16 bytes of one. A conventional section
    /// writes the word anyway, so then it owns no other line. A read
    /// section also books `read_enters`, with a plain store on the
    /// read stripe its thread owns (or a `fetch_add` on the overflow
    /// stripe when every other is taken).
    space: CompactSpace,
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
    /// Creates an unlocked lock with the default spin tiers.
    pub fn new() -> Self {
        TasukiLock {
            word: AtomicU64::new(CompactWord::INIT.raw()),
            space: CompactSpace::new(),
            gen: next_lock_gen(),
        }
    }

    /// The protocol handle over this lock's word, key and space, with a
    /// zero counter step.
    #[inline]
    fn handle(&self) -> CompactRef<'_> {
        CompactRef {
            space: &self.space,
            word: &self.word,
            key: MonitorKey::new(&self.word as *const _ as usize, self.gen),
            policy: None,
            step: 0,
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
        self.space.stats()
    }

    /// True if any thread holds the lock (thin or fat).
    pub fn is_locked(&self) -> bool {
        self.handle().is_locked()
    }

    /// True if the calling thread holds the lock.
    pub fn held_by_current(&self) -> bool {
        self.holds(ThreadId::current())
    }

    /// True if `tid` holds the lock.
    pub fn holds(&self, tid: ThreadId) -> bool {
        self.handle().holds(tid)
    }

    /// True if the lock is currently in fat (inflated) mode.
    pub fn is_inflated(&self) -> bool {
        self.handle().is_inflated()
    }

    /// The current raw word (diagnostics and tests).
    pub fn raw_word(&self) -> CompactWord {
        self.handle().raw_word()
    }

    /// Acquires the lock on behalf of `tid` (explicit form used by the
    /// interpreter; prefer [`TasukiLock::lock`]).
    pub fn enter(&self, tid: ThreadId) {
        self.handle().acquire(tid);
    }

    /// Acquires the lock for a section known to be read-only.
    /// Synchronization is identical to [`TasukiLock::enter`] — mutual
    /// exclusion cannot exploit read-onlyness — only the statistics
    /// classification differs (Table 1 read-only ratios).
    pub fn enter_read(&self, tid: ThreadId) {
        self.stats().note_read_enter();
        self.handle().acquire_uncounted(tid);
    }

    /// Releases one level of the lock on behalf of `tid`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `tid` holds the lock.
    pub fn exit(&self, tid: ThreadId) {
        self.handle().release(tid)
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
        self.handle().wait(tid)
    }

    /// Java-style `Object.notifyAll()`: wakes every thread waiting on
    /// this lock. The caller must hold the lock.
    ///
    /// # Panics
    ///
    /// Panics if `tid` does not hold the lock.
    pub fn notify_all(&self, tid: ThreadId) {
        self.handle().notify(tid, true)
    }

    /// Java-style `Object.notify()`: wakes one waiting thread.
    ///
    /// # Panics
    ///
    /// Panics if `tid` does not hold the lock.
    pub fn notify_one(&self, tid: ThreadId) {
        self.handle().notify(tid, false)
    }
}

impl Drop for TasukiLock {
    fn drop(&mut self) {
        self.space.detach(self.handle().key);
    }
}

/// The write side of the protocol, shared by every lock word: SOLERO's
/// and, with a zero step, the conventional lock's.
impl<'a> CompactRef<'a> {
    /// The word, as loaded with `order`.
    #[inline]
    pub(crate) fn load(self, order: Ordering) -> CompactWord {
        CompactWord(self.word.load(order))
    }

    /// The acquiring CAS (Figure 6, line 4): the free word `v` becomes
    /// `v` held by `tid`, its counter kept in place.
    #[inline]
    pub(crate) fn try_acquire(self, v: CompactWord, tid: ThreadId) -> bool {
        self.word
            .compare_exchange(
                v.raw(),
                CompactWord::held_by(v, tid).raw(),
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Get-or-create monitor resolution. Only paths that already hold
    /// the lock (inflation of a held word, wait re-entry) may call
    /// this: while held thin no deflation can race, so creating an
    /// entry here can never resurrect one a deflater just pruned.
    fn monitor(self) -> Arc<OsMonitor> {
        MonitorTable::global().monitor_for(self.key)
    }

    /// Lookup-only monitor resolution for reactive paths (observers,
    /// contenders, FLC releases). `None` means the lock is not
    /// inflated — the caller must fall back to the word.
    pub(crate) fn monitor_existing(self) -> Option<Arc<OsMonitor>> {
        MonitorTable::global().existing(self.key)
    }

    /// Runs `f` as a writing critical section.
    pub(crate) fn write_section<R>(self, f: impl FnOnce() -> R) -> R {
        let tid = ThreadId::current();
        self.acquire(tid);
        let r = f();
        self.release(tid);
        r
    }

    /// Acquires the lock for a writing critical section (Figure 6,
    /// lines 1–13).
    #[inline]
    pub(crate) fn acquire(self, tid: ThreadId) {
        self.stats().write_enters.fetch_add(1, Ordering::Relaxed);
        if self.acquire_uncounted(tid) {
            self.stats().write_fast.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The acquisition of [`acquire`](Self::acquire) without its write
    /// counters, for a section already booked as a read (unelided,
    /// forfeited, or a conventional lock's read). Returns `true` if the
    /// fast-path CAS took the lock.
    #[inline]
    pub(crate) fn acquire_uncounted(self, tid: ThreadId) -> bool {
        let v = self.load(Ordering::Relaxed);
        if v.is_elidable() && self.try_acquire(v, tid) {
            return true;
        }
        out_of_line(move || self.slow_acquire(tid));
        false
    }

    /// Releases a writing critical section (Figure 6, lines 15–21).
    #[inline]
    pub(crate) fn release(self, tid: ThreadId) {
        let v = self.load(Ordering::Relaxed);
        if v.fast_releasable() {
            debug_assert_eq!(v.tid(), Some(tid), "release by non-owner");
            self.word
                .store(self.release_word(v, self.step), Ordering::Release);
            return;
        }
        out_of_line(move || self.slow_release(tid, v));
    }

    /// Slow write acquisition: recursion, spinning, FLC, fat mode.
    #[cold]
    fn slow_acquire(self, tid: ThreadId) {
        loop {
            let v = self.load(Ordering::Acquire);
            if v.is_inflated() {
                if self.enter_fat(tid) {
                    return;
                }
                continue;
            }
            if v.tid() == Some(tid) {
                self.recurse(tid, v);
                return;
            }
            if v.is_elidable() {
                if self.try_acquire(v, tid) {
                    return;
                }
                continue;
            }
            // Held by another thread (or FLC pending): probe on Figure
            // 3's tiers, then park. Every lock on this word waits here:
            // a SOLERO or conventional writer, the retry-exhausted read
            // fallback and a forfeited read section.
            let spun = self.config().spin.run_observed(
                || {
                    let v = self.load(Ordering::Acquire);
                    if v.is_elidable() {
                        if self.try_acquire(v, tid) {
                            return Probe::Done(true);
                        }
                    } else if v.needs_monitor() {
                        return Probe::Done(false);
                    }
                    Probe::Retry
                },
                || {
                    self.stats()
                        .contention_backoffs
                        .fetch_add(1, Ordering::Relaxed);
                },
            );
            if spun == Some(true) || self.enter_via_monitor(tid) {
                return;
            }
        }
    }

    /// A recursive flat entry by the owner (Figure 8's
    /// `test_recursion`): one more level in the recursion bits or, at
    /// saturation, inflation with the new level taken on the monitor.
    pub(crate) fn recurse(self, tid: ThreadId, v: CompactWord) {
        if v.recursion() == SOLERO_RECURSION_MAX {
            self.inflate_held(tid, v);
            self.monitor().enter(tid);
        } else {
            self.word
                .fetch_add(SOLERO_RECURSION_STEP, Ordering::Relaxed);
            self.stats()
                .recursive_enters
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Fat-mode entry: resolve the tabled monitor, take it, then confirm
    /// the word still names *that* monitor. Returns `false` if the
    /// caller must retry from the top (the lock deflated, or a
    /// re-inflation bound a different monitor while we blocked).
    fn enter_fat(self, tid: ThreadId) -> bool {
        let Some(m) = self.monitor_existing() else {
            // Inflated word but no entry: a deflater pruned the binding
            // and is about to publish the thin word. Retry.
            return false;
        };
        m.enter(tid);
        if self.load(Ordering::Acquire).monitor_id() == Some(m.id()) {
            self.stats().monitor_enters.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            m.exit(tid);
            false
        }
    }

    /// FLC protocol under the monitor; a contender that finds the word
    /// free inflates the lock and owns it (fat). The displaced counter
    /// stored in the monitor is the pre-inflation counter plus one step,
    /// so a later deflation publishes a value no speculative reader can
    /// still match (plus zero, for the conventional lock).
    ///
    /// Returns `false` if the binding went stale (the lock deflated and
    /// pruned the entry we resolved); the caller retries from the word.
    /// Every iteration re-checks the binding: owning `m` pins it
    /// (removal requires ownership), so a current binding cannot change
    /// under us, and a monitor id in the word is only trusted when it
    /// matches the monitor we own.
    pub(crate) fn enter_via_monitor(self, tid: ThreadId) -> bool {
        let table = MonitorTable::global();
        let m = table.monitor_for(self.key);
        m.enter(tid);
        loop {
            if !table.is_current(self.key, &m) {
                // Deflated (and pruned) while we blocked on entry, or
                // re-inflated onto a fresh monitor: this monitor is an
                // orphan. Release it and retry from the word.
                m.exit(tid);
                return false;
            }
            let v = self.load(Ordering::Acquire);
            if v.is_inflated() {
                if v.monitor_id() == Some(m.id()) {
                    self.stats().monitor_enters.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                // A stale inflated word from a binding this monitor
                // never had; retry from the top.
                m.exit(tid);
                return false;
            }
            if !v.is_held_flat() {
                // Free counter word (FLC bit possibly set): inflate.
                // The binding check above ran while owning `m`, so the
                // table still maps our key to `m` at this CAS.
                if self
                    .word
                    .compare_exchange(
                        v.raw(),
                        CompactWord::inflated(m.id()).raw(),
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    m.set_displaced(self.released(v));
                    self.stats().inflations.fetch_add(1, Ordering::Relaxed);
                    self.stats().monitor_enters.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                continue;
            }
            // Held flat by another thread: publish contention and park.
            if v.has_flc()
                || self
                    .word
                    .compare_exchange(
                        v.raw(),
                        v.with_flc().raw(),
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    )
                    .is_ok()
            {
                self.stats().flc_waits.fetch_add(1, Ordering::Relaxed);
                m.wait_timeout(tid, FLC_RECHECK);
            }
        }
    }

    /// Inflates while `tid` holds the flat lock `v` (recursion
    /// saturation, `wait`), transferring the recursion depth onto the
    /// monitor. The displaced counter comes straight out of the held
    /// word.
    fn inflate_held(self, tid: ThreadId, v: CompactWord) {
        debug_assert_eq!(v.tid(), Some(tid));
        let m = self.monitor();
        m.enter(tid);
        for _ in 0..v.recursion() {
            m.enter(tid);
        }
        m.set_displaced(self.released(v));
        self.word
            .store(CompactWord::inflated(m.id()).raw(), Ordering::Release);
        self.stats().inflations.fetch_add(1, Ordering::Relaxed);
        m.notify_all();
    }

    #[cold]
    fn slow_release(self, tid: ThreadId, v: CompactWord) {
        if v.is_inflated() {
            self.exit_fat(tid, self.step);
        } else {
            self.release_flat(tid, v, self.step);
        }
    }

    /// Releases the flat lock `tid` holds as `v` (Figure 9, lines 2–8),
    /// advancing the counter by `step`: the handle's step for a section
    /// that wrote, zero for a held read. It pops one recursion level
    /// (a nested write still advances the counter inside the held word,
    /// so the outer section's release publishes it), or publishes the
    /// release word — under the monitor, waking the contenders, if one
    /// of them set FLC while we held the lock. Lookup-only: the
    /// contender that set FLC tabled the entry and is parked on it; if
    /// the entry is somehow gone there is nobody to wake and a plain
    /// store suffices (creating an entry here would leak it).
    pub(crate) fn release_flat(self, tid: ThreadId, v: CompactWord, step: u64) {
        debug_assert_eq!(v.tid(), Some(tid), "release by non-owner");
        if v.recursion() > 0 {
            self.word
                .fetch_add(step.wrapping_sub(SOLERO_RECURSION_STEP), Ordering::Release);
            return;
        }
        let next = self.release_word(v, step);
        let parked = if v.has_flc() {
            self.monitor_existing()
        } else {
            None
        };
        match parked {
            Some(m) => {
                m.enter(tid);
                self.word.store(next, Ordering::Release);
                m.notify_all();
                m.exit(tid);
            }
            None => self.word.store(next, Ordering::Release),
        }
    }

    /// Figure 6, line 18: the word a flat release publishes — the held
    /// word's counter advanced by `step`, owner and flag bits dropped.
    /// A section that wrote passes the handle's step, which is what
    /// aborts any reader that overlapped it; a held read passes zero
    /// and publishes the counter it found.
    ///
    /// Under `--cfg solero_mc` this is a mutation point the model
    /// checker must kill (see `crate::mutation`).
    #[inline]
    fn release_word(self, held: CompactWord, step: u64) -> u64 {
        #[cfg(solero_mc)]
        if crate::mutation::active() == crate::mutation::STUCK_COUNTER {
            return held.release_word(0).raw();
        }
        held.release_word(step).raw()
    }

    /// The free word that follows the thin word `held`: its counter plus
    /// this handle's step, owner and flag bits dropped. With a zero step
    /// (the conventional lock, whose counter never moves) that is zero.
    #[inline]
    fn released(self, held: CompactWord) -> u64 {
        held.release_word(self.step).raw()
    }

    /// Fat release of one level, advancing the displaced counter by
    /// `step` (the handle's step for a section that wrote, so deflation
    /// never republishes a captured value; zero for a held read). The
    /// final release deflates when the monitor is uncontended — prune
    /// the table entry **first**, then publish the displaced counter,
    /// then wake and exit.
    ///
    /// The ordering matters: once the entry is gone, a contender that
    /// still sees the inflated word resolves no monitor and retries,
    /// and any re-inflation must mint a fresh entry (new monitor, new
    /// id) that a stale deflater's `remove_if` can never sweep. The
    /// window where the word is inflated but the entry absent is
    /// therefore benign. The deflation guard itself is TOCTOU-safe:
    /// queued contenders re-check the word after our monitor exit, and
    /// new waiters are impossible while we own the monitor.
    pub(crate) fn exit_fat(self, tid: ThreadId, step: u64) {
        let table = MonitorTable::global();
        let m = table
            .existing(self.key)
            .expect("fat owner's monitor must be tabled");
        debug_assert!(m.owned_by(tid), "fat release by non-owner");
        if step != 0 {
            m.bump_displaced(step);
        }
        if m.depth(tid) == 1 && m.idle_for_deflation() {
            let removed = table.remove_if(self.key, &m);
            debug_assert!(removed, "deflater's binding must still be current");
            self.word.store(m.displaced(), Ordering::Release);
            self.stats().deflations.fetch_add(1, Ordering::Relaxed);
            m.notify_all();
        } else {
            // Handoff republish: a fat exit that does NOT deflate leaves
            // the inflated word untouched, so the next fat enterer's
            // acquire load of the word would otherwise synchronize with
            // the *inflater's* store — not with this section's writes.
            // The monitor's own mutex orders the handoff on real
            // hardware, but the release edge must also travel through
            // the word so the protocol is self-contained (and visible to
            // the model checker): republish the same inflated value as
            // an RMW before surrendering ownership.
            self.word.fetch_add(0, Ordering::AcqRel);
        }
        m.exit(tid);
    }

    /// `Object.wait()` for the owner `tid`; see [`SoleroLock::wait`].
    pub(crate) fn wait(self, tid: ThreadId) {
        let v = self.load(Ordering::Acquire);
        if !v.is_inflated() {
            assert_eq!(v.tid(), Some(tid), "wait without holding the lock");
            self.inflate_held(tid, v);
        }
        // The entry must exist: either we just inflated, or the word was
        // already inflated and we hold it fat (which blocks deflation).
        let m = self
            .monitor_existing()
            .expect("wait without holding the lock");
        assert!(m.owned_by(tid), "wait without holding the lock");
        m.wait(tid);
    }

    /// `Object.notifyAll()` (`all`) or `Object.notify()` for the owner
    /// `tid`.
    pub(crate) fn notify(self, tid: ThreadId, all: bool) {
        assert!(self.holds(tid), "notify without holding the lock");
        // Waiters exist only while inflated, so an absent entry means
        // an empty wait set: notify on a thin lock is a no-op and must
        // not plant a table entry.
        if let Some(m) = self.monitor_existing() {
            if all {
                m.notify_all();
            } else {
                m.notify_one();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solero_runtime::spin::SpinConfig;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn write_section_advances_counter() {
        let l = SoleroLock::new();
        let c0 = l.raw_word().counter().unwrap();
        l.write(|| {});
        let c1 = l.raw_word().counter().unwrap();
        assert_eq!(c1, c0 + 1, "each writing section leaves a new value");
        l.write(|| {});
        assert_eq!(l.raw_word().counter().unwrap(), c0 + 2);
    }

    #[test]
    fn guard_api_releases_on_drop() {
        let l = SoleroLock::new();
        {
            let _g = l.lock_write();
            assert!(l.is_locked());
            assert!(l.held_by_current());
        }
        assert!(!l.is_locked());
    }

    #[test]
    fn recursion_roundtrip() {
        let l = SoleroLock::new();
        let tid = ThreadId::current();
        let t1 = l.enter_write(tid);
        let t2 = l.enter_write(tid);
        let t3 = l.enter_write(tid);
        assert_eq!(l.raw_word().recursion(), 2);
        l.exit_write(tid, t3);
        l.exit_write(tid, t2);
        assert!(l.is_locked());
        l.exit_write(tid, t1);
        assert!(!l.is_locked());
        assert_eq!(
            l.raw_word().counter(),
            Some(3),
            "each nested write section advances the counter"
        );
    }

    #[test]
    fn deep_recursion_inflates_then_deflates_with_fresh_counter() {
        let l = SoleroLock::new();
        let tid = ThreadId::current();
        let before = l.raw_word().counter().unwrap();
        let depth = (SOLERO_RECURSION_MAX + 4) as usize;
        let tickets: Vec<_> = (0..=depth).map(|_| l.enter_write(tid)).collect();
        assert!(l.is_inflated());
        assert!(l.holds(tid));
        for t in tickets.into_iter().rev() {
            l.exit_write(tid, t);
        }
        assert!(!l.is_locked());
        assert!(!l.is_inflated());
        let after = l.raw_word().counter().unwrap();
        assert!(after > before, "deflation must publish a fresh counter");
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let l = std::sync::Arc::new(SoleroLock::with_config(SoleroConfig {
            spin: SpinConfig {
                tier1: 4,
                tier2: 8,
                tier3: 2,
            },
            ..SoleroConfig::default()
        }));
        let counter = std::sync::Arc::new(AtomicU32::new(0));
        const THREADS: usize = 8;
        const ITERS: u32 = 2_000;
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let l = std::sync::Arc::clone(&l);
            let c = std::sync::Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..ITERS {
                    l.write(|| {
                        let v = c.load(Ordering::Relaxed);
                        std::hint::black_box(v);
                        c.store(v + 1, Ordering::Relaxed);
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), THREADS as u32 * ITERS);
    }

    #[test]
    fn contention_goes_through_monitor_and_counter_still_advances() {
        let l = std::sync::Arc::new(SoleroLock::with_config(SoleroConfig {
            spin: SpinConfig::immediate(),
            ..SoleroConfig::default()
        }));
        let before = l.raw_word().counter().unwrap();
        let tid = ThreadId::current();
        let t = l.enter_write(tid);
        let l2 = std::sync::Arc::clone(&l);
        let h = std::thread::spawn(move || {
            l2.write(|| {});
        });
        // Hold the lock until the contender has booked its FLC wait,
        // which it does just before parking: a timed hold can end
        // before a contender under load gets there. Deadline-capped, so
        // a regression fails the asserts below, not the clock.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while l.stats().snapshot().flc_waits == 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        l.exit_write(tid, t);
        h.join().unwrap();
        // Drain any fat state with one more uncontended cycle.
        l.write(|| {});
        let w = l.raw_word();
        assert!(!w.is_inflated(), "deflates when uncontended: {w}");
        assert!(w.counter().unwrap() >= before + 3);
        let s = l.stats().snapshot();
        assert!(s.flc_waits + s.inflations >= 1, "{s}");
    }

    /// Lets `write` contend on this thread for a lock that `hold` takes
    /// on another, and returns the back-off waits the lock booked. The
    /// two threads meet at a barrier once the lock is held; the holder
    /// lets go once the writer has booked a wait (`waits`) or, when
    /// none is expected, once the writer has entered and had a moment
    /// to probe. Deadline-capped, so a regression fails the caller's
    /// assert, not the clock.
    fn contended_backoffs(
        stats: &LockStats,
        waits: bool,
        hold: impl FnOnce(&dyn Fn()) + Send,
        write: impl FnOnce(),
    ) -> u64 {
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                hold(&|| {
                    barrier.wait();
                    let deadline = std::time::Instant::now() + Duration::from_secs(10);
                    while std::time::Instant::now() < deadline {
                        let s = stats.snapshot();
                        // The holder's own section is one write entry.
                        let done = if waits {
                            s.contention_backoffs > 0
                        } else {
                            s.write_enters > 1
                        };
                        if done {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    if !waits {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                })
            });
            barrier.wait();
            write();
        });
        stats.snapshot().contention_backoffs
    }

    /// Every contended writer probes on the spin tiers and books each
    /// tier-1 wait: SOLERO's, the conventional lock's and the inline
    /// seqlock's. `SpinConfig::immediate()` probes once and books none,
    /// because no wait follows the final probe.
    #[test]
    fn contended_writers_book_their_tier1_waits() {
        for (spin, waits) in [
            (SpinConfig::default(), true),
            (SpinConfig::immediate(), false),
        ] {
            let config = SoleroConfig {
                spin,
                ..SoleroConfig::default()
            };
            let solero = SoleroLock::with_config(config);
            let tasuki = TasukiLock {
                word: AtomicU64::new(CompactWord::INIT.raw()),
                space: CompactSpace::with_config(config),
                gen: next_lock_gen(),
            };
            let seq = crate::SeqLock::with_config(config, 0u64);
            let booked = [
                (
                    "SOLERO",
                    contended_backoffs(
                        solero.stats(),
                        waits,
                        |hold| solero.write(hold),
                        || solero.write(|| {}),
                    ),
                ),
                (
                    "Lock",
                    contended_backoffs(
                        tasuki.stats(),
                        waits,
                        |hold| {
                            let _g = tasuki.lock();
                            hold()
                        },
                        || drop(tasuki.lock()),
                    ),
                ),
                (
                    "SeqLock",
                    contended_backoffs(
                        seq.stats(),
                        waits,
                        |hold| seq.update_inline(|_| hold()),
                        || seq.write_inline(1),
                    ),
                ),
            ];
            for (lock, n) in booked {
                assert_eq!(n > 0, waits, "{lock} on {spin:?} booked {n} waits");
            }
        }
    }

    #[test]
    fn counter_monotonic_across_many_writes() {
        let l = SoleroLock::new();
        let mut last = l.raw_word().counter().unwrap();
        for _ in 0..100 {
            l.write(|| {});
            let c = l.raw_word().counter().unwrap();
            assert!(c > last);
            last = c;
        }
    }

    #[test]
    fn word_line_holds_no_counters() {
        use std::mem::{align_of, offset_of, size_of};
        let word = offset_of!(SoleroLock, word);
        assert_eq!(
            align_of::<SoleroLock>() % 64,
            0,
            "the lock starts a cache line"
        );
        assert_eq!(word % 64, 0, "the word starts a cache line");
        let l = SoleroLock::new();
        let stats = l.stats() as *const LockStats as usize - &l as *const SoleroLock as usize;
        let line = word..word + 64;
        assert!(
            stats >= line.end || stats + size_of::<LockStats>() <= line.start,
            "LockStats at {stats}..{} shares the word's line {line:?}",
            stats + size_of::<LockStats>()
        );
        let word_at = &l.word as *const AtomicU64 as usize;
        let word_line = word_at..word_at + 64;
        for span in l.stats().stripe_spans() {
            assert_eq!(span.start % 64, 0, "stripe {span:?} starts a cache line");
            assert_eq!(span.len(), 64, "stripe {span:?} fills its line alone");
            assert!(
                span.start >= word_line.end || span.end <= word_line.start,
                "stripe {span:?} shares the word's line {word_line:?}"
            );
        }
    }

    /// The conventional lock: the same protocol with a zero step.
    mod tasuki {
        use super::*;
        use std::sync::Arc;

        #[test]
        fn word_is_followed_by_the_hot_counters() {
            use std::mem::{offset_of, size_of};
            let l = TasukiLock::new();
            let base = &l as *const TasukiLock as usize;
            let at = |c: &AtomicU64| c as *const AtomicU64 as usize - base;
            let s = l.stats();
            assert_eq!(offset_of!(TasukiLock, word), 0, "the word comes first");
            // Every write section bumps these counters. With the word
            // they span the lock's first 24 bytes, so they share the
            // word's cache line unless the lock starts in the last 16
            // bytes of a line. (`read_enters` lives in the read
            // stripes.)
            assert_eq!(at(&s.write_enters), size_of::<AtomicU64>());
            assert!(at(&s.write_fast) < 24);
        }

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
            let depth = (SOLERO_RECURSION_MAX + 5) as usize;
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
            let l = Arc::new(TasukiLock::new());
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
            let l = Arc::new(TasukiLock::new());
            let l2 = Arc::clone(&l);
            let g = l.lock();
            let h = std::thread::spawn(move || {
                let _g = l2.lock(); // must park, setting FLC / inflating
            });
            // Hold the lock until the contender has booked its FLC wait,
            // which it does just before parking: a timed hold can end
            // before a contender under load gets there. Deadline-capped,
            // so a regression fails the assert below, not the clock.
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

        #[test]
        fn free_word_is_zero() {
            let l = TasukiLock::new();
            let tid = ThreadId::current();
            drop(l.lock());
            assert_eq!(l.raw_word(), CompactWord::INIT, "after a flat release");
            for _ in 0..3 {
                l.enter(tid);
            }
            for _ in 0..3 {
                l.exit(tid);
            }
            assert_eq!(l.raw_word(), CompactWord::INIT, "after nested recursion");
            let depth = (SOLERO_RECURSION_MAX + 1) as usize;
            for _ in 0..=depth {
                l.enter(tid);
            }
            assert!(l.is_inflated());
            for _ in 0..=depth {
                l.exit(tid);
            }
            assert!(!l.is_inflated());
            assert_eq!(l.raw_word(), CompactWord::INIT, "after inflate/deflate");
        }
    }
}
