//! The BRAVO biased reader-writer lock.
//!
//! [`BravoLock`] layers BRAVO's reader bias (Dice & Kogan, arXiv
//! 1810.01553) over the baseline [`JavaRwLock`]:
//!
//! * While the lock is **read-biased** (`rbias == 1`), a reader
//!   publishes the lock's address into its hashed slot of the global
//!   [`visible`] readers table, re-checks the bias, and — if it still
//!   holds — owns shared access without ever touching the underlying
//!   lock word. Concurrent readers of one lock write *different* cache
//!   lines, which is what removes the 2–3× reader penalty Figure 11
//!   charges to the `java.util.concurrent` design.
//! * A **writer** acquires the underlying lock first, then *revokes*
//!   the bias: clears `rbias` with a `SeqCst` store, scans the table,
//!   and waits (timed parking, like the baseline's reader queue) for
//!   every slot still holding this lock to drain.
//! * Readers that lose a race (slot collision, or the bias revoked
//!   between publish and re-check) fall back to the underlying lock's
//!   ordinary shared mode — the **slow path**.
//! * The bias returns adaptively: [`BravoPolicy`] re-installs it after
//!   a streak of `rebias_after << penalty` *uncontended* reader slow
//!   paths, where `penalty` grows (capped) with each revocation. A
//!   revocation storm therefore makes the bias geometrically harder to
//!   earn back — the counter-based analog of the paper's multiplicative
//!   check/revoke cost bound (their time-based `InhibitUntil`, which a
//!   deterministic model checker cannot replay).
//!
//! New lock-layout work rides on the verification substrate:
//! `crates/mc/tests/bravo_mc.rs` drains the publish/revoke handoff
//! under DFS, DPOR and TSO weak memory before the high-thread-count
//! stress tests are trusted.

use std::time::Duration;

use solero_runtime::stats::LockStats;
use solero_sync::atomic::{AtomicU64, Ordering};
use solero_sync::{Condvar, Mutex};

use crate::java::JavaRwLock;
use crate::raw::{RawRwLock, ReadToken};
use crate::{plock, visible};

/// How long a revoking writer parks between probes of a still-occupied
/// slot (the unpublishing reader notifies it, so this is a backstop).
const PARK: Duration = Duration::from_micros(200);

/// `rbias` value while the read bias is installed.
const BIASED: u64 = 1;

/// The adaptive re-bias policy knobs.
///
/// # Examples
///
/// ```
/// use solero_rwlock::BravoPolicy;
///
/// let p = BravoPolicy::default();
/// assert_eq!(p.rebias_after, 16);
/// assert_eq!(p.max_penalty, 6);
/// assert!(BravoPolicy::minimal().rebias_after < p.rebias_after);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BravoPolicy {
    /// Base number of uncontended reader slow paths (no intervening
    /// writer) that earns the bias back.
    pub rebias_after: u64,
    /// Cap on the inhibition exponent: the effective threshold is
    /// `rebias_after << min(penalty, max_penalty)`.
    pub max_penalty: u32,
}

impl Default for BravoPolicy {
    fn default() -> Self {
        BravoPolicy {
            rebias_after: 16,
            max_penalty: 6,
        }
    }
}

impl BravoPolicy {
    /// One-step budgets so tests (and the model checker) can reach the
    /// whole revoke → slow-path streak → re-bias cycle in a few
    /// sections.
    pub fn minimal() -> Self {
        BravoPolicy {
            rebias_after: 1,
            max_penalty: 1,
        }
    }
}

/// A BRAVO biased reader-writer lock over [`JavaRwLock`].
///
/// # Examples
///
/// ```
/// use solero_rwlock::{BravoLock, RawRwLock};
///
/// let lock = BravoLock::new();
/// {
///     let r1 = lock.read(); // biased fast path: publishes a table slot
///     let r2 = lock.read(); // same-thread slot collision: slow path
///     assert!(r1.token().is_fast());
///     assert!(!r2.token().is_fast());
///     drop((r1, r2));
/// }
/// {
///     let _w = lock.write(); // revokes the bias, then excludes
///     assert!(!lock.is_biased());
/// }
/// let s = lock.stats().snapshot();
/// assert_eq!(s.read_enters, 2);
/// assert_eq!(s.bias_revocations, 1);
/// ```
#[derive(Debug)]
pub struct BravoLock {
    /// 1 while the read bias is installed. Kept first so the struct's
    /// address (the published table value) is distinct from the
    /// embedded underlying lock's.
    rbias: AtomicU64,
    /// Inhibition exponent: grows on each revocation, capped by
    /// [`BravoPolicy::max_penalty`], never decays.
    penalty: AtomicU64,
    /// Uncontended reader slow paths since the last writer.
    slow_streak: AtomicU64,
    policy: BravoPolicy,
    underlying: JavaRwLock,
    /// Park/wake handshake for revocation: a writer waiting on an
    /// occupied slot parks here; the unpublishing reader notifies.
    revoke_sleep: Mutex<()>,
    revoke_wake: Condvar,
    stats: LockStats,
}

impl Default for BravoLock {
    fn default() -> Self {
        Self::new()
    }
}

impl BravoLock {
    /// A lock with the default re-bias policy, born read-biased.
    ///
    /// (The paper starts unbiased and lets the first reader install the
    /// bias; our read-heavy workloads would do that immediately, so the
    /// constructor skips the warm-up. Writer-heavy locks shed the bias
    /// on the first write and then earn it back through the policy.)
    pub fn new() -> Self {
        Self::with_policy(BravoPolicy::default())
    }

    /// A lock with an explicit re-bias policy.
    pub fn with_policy(policy: BravoPolicy) -> Self {
        BravoLock {
            rbias: AtomicU64::new(BIASED),
            penalty: AtomicU64::new(0),
            slow_streak: AtomicU64::new(0),
            policy,
            underlying: JavaRwLock::new(),
            revoke_sleep: Mutex::new(()),
            revoke_wake: Condvar::new(),
            stats: LockStats::default(),
        }
    }

    /// True while the read bias is installed.
    pub fn is_biased(&self) -> bool {
        self.rbias.load(Ordering::SeqCst) == BIASED
    }

    /// The configured re-bias policy.
    pub fn policy(&self) -> BravoPolicy {
        self.policy
    }

    /// Slots of the global table currently publishing this lock
    /// (diagnostics: must be 0 whenever no read guard is live).
    pub fn published_readers(&self) -> usize {
        visible::global().published_count(self.addr())
    }

    /// The value readers publish: this lock's address.
    #[inline]
    fn addr(&self) -> usize {
        self as *const _ as usize
    }

    /// The current uncontended-slow-path streak needed to re-bias.
    fn rebias_threshold(&self) -> u64 {
        let p = self
            .penalty
            .load(Ordering::Relaxed)
            .min(self.policy.max_penalty as u64);
        self.policy.rebias_after.saturating_mul(1u64 << p)
    }

    /// Bumps the inhibition exponent, saturating at the policy cap.
    /// (A CAS loop: the model-checker atomic shim has no
    /// `fetch_update`.)
    fn escalate_penalty(&self) {
        let max = self.policy.max_penalty as u64;
        loop {
            let p = self.penalty.load(Ordering::Relaxed);
            if p >= max {
                return;
            }
            if self
                .penalty
                .compare_exchange(p, p + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Wakes a writer that may be parked on one of our slots.
    fn wake_revoker(&self) {
        let _g = plock(&self.revoke_sleep);
        self.revoke_wake.notify_all();
    }

    /// The biased fast path: publish, re-check, own shared access.
    #[inline]
    fn try_fast_read(&self) -> Option<ReadToken> {
        if !self.is_biased() {
            return None;
        }
        let addr = self.addr();
        let slot = visible::slot_for(addr);
        if !visible::global().try_publish(slot, addr) {
            // Hash collision (or a same-slot racing reader): slow path.
            return None;
        }
        // The publish (SeqCst RMW) is globally visible before this
        // re-check loads — the store→load edge a revoking writer's
        // mirror-image `rbias` store + slot scan relies on.
        if self.is_biased() {
            self.stats.note_elided();
            return Some(ReadToken::fast(slot));
        }
        // A revocation raced us between publish and re-check. Withdraw,
        // and wake the writer in case its scan saw the transient entry.
        visible::global().unpublish(slot, addr);
        self.wake_revoker();
        None
    }

    /// The reader slow path: really acquire the underlying lock, then
    /// let the streak earn the bias back.
    fn read_slow(&self) {
        self.stats.read_slow_enters.fetch_add(1, Ordering::Relaxed);
        let t = self.underlying.acquire_read();
        debug_assert!(!t.is_fast());
        self.note_uncontended_slow_read();
    }

    /// Re-bias bookkeeping, called while holding the underlying lock in
    /// shared mode (so no writer can hold it, and a queued writer will
    /// re-check the bias after it acquires).
    fn note_uncontended_slow_read(&self) {
        let streak = self.slow_streak.fetch_add(1, Ordering::Relaxed) + 1;
        if self.rbias.load(Ordering::SeqCst) == BIASED || streak < self.rebias_threshold() {
            return;
        }
        if self
            .rbias
            .compare_exchange(0, BIASED, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            self.stats.bias_rebiases.fetch_add(1, Ordering::Relaxed);
            self.slow_streak.store(0, Ordering::Relaxed);
            // The penalty deliberately does NOT decay here: if it did,
            // the +1 per revocation and -1 per re-bias would cancel and
            // a revocation storm would never escalate the threshold.
            // `max_penalty` keeps the bias reachable regardless.
        }
    }

    /// Revocation: called with the underlying lock held exclusively.
    fn revoke(&self) {
        // SeqCst: the clear must be globally visible before the scan
        // loads below, so any reader whose publish the scan misses is
        // guaranteed to see `rbias == 0` at its re-check and withdraw.
        self.rbias.store(0, Ordering::SeqCst);
        self.stats.bias_revocations.fetch_add(1, Ordering::Relaxed);
        self.escalate_penalty();
        let addr = self.addr();
        let table = visible::global();
        for slot in 0..visible::SLOTS {
            loop {
                if table.load(slot) != addr {
                    break;
                }
                // Park with the standard re-check-under-mutex pattern;
                // the unpublishing reader's SeqCst swap + bias check
                // guarantees it either beats this probe or notifies.
                let g = plock(&self.revoke_sleep);
                if table.load(slot) != addr {
                    break;
                }
                let _ = self
                    .revoke_wake
                    .wait_timeout(g, PARK)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
    }
}

impl RawRwLock for BravoLock {
    const NAME: &'static str = "BRAVO-RW";

    // The elided paths are `#[inline]` where `JavaRwLock` is
    // deliberately `#[inline(never)]`: the baseline models a JVM whose
    // lock acquisition is an out-of-line runtime call, while BRAVO's
    // fast path is exactly the code a JIT flattens into the reader.
    #[inline]
    fn acquire_read(&self) -> ReadToken {
        self.stats.note_read_enter();
        if let Some(t) = self.try_fast_read() {
            return t;
        }
        self.read_slow();
        ReadToken::slow()
    }

    #[inline]
    fn release_read(&self, token: ReadToken) {
        match token.fast_slot() {
            Some(slot) => {
                // SeqCst swap, then SeqCst bias load: if the load still
                // sees the bias, sequential consistency puts our slot
                // clear before any revoker's scan, so skipping the wake
                // is safe; otherwise a revocation is (or may be) parked
                // on this slot and must be notified.
                visible::global().unpublish(slot, self.addr());
                if !self.is_biased() {
                    self.wake_revoker();
                }
            }
            None => self.underlying.release_read(ReadToken::slow()),
        }
    }

    fn try_acquire_read(&self) -> Option<ReadToken> {
        if let Some(t) = self.try_fast_read() {
            self.stats.note_read_enter();
            return Some(t);
        }
        let t = self.underlying.try_acquire_read()?;
        debug_assert!(!t.is_fast());
        self.stats.note_read_enter();
        self.stats.read_slow_enters.fetch_add(1, Ordering::Relaxed);
        self.note_uncontended_slow_read();
        Some(t)
    }

    fn acquire_write(&self) {
        self.stats.write_enters.fetch_add(1, Ordering::Relaxed);
        self.underlying.acquire_write();
        if self.is_biased() {
            self.revoke();
        }
        // A writer interrupts the streak that earns the bias back.
        self.slow_streak.store(0, Ordering::Relaxed);
    }

    fn release_write(&self) {
        self.underlying.release_write();
    }

    fn try_acquire_write(&self) -> bool {
        if !self.underlying.try_acquire_write() {
            return false;
        }
        if self.is_biased() {
            // A non-blocking acquire cannot park waiting for published
            // fast-path readers (the holder may even be this thread).
            // Clear the bias, probe the table once, and back off if any
            // reader is visible.
            self.rbias.store(0, Ordering::SeqCst);
            if visible::global().published_count(self.addr()) != 0 {
                self.rbias.store(BIASED, Ordering::SeqCst);
                self.underlying.release_write();
                return false;
            }
            // The scan saw every slot clear after the SeqCst bias
            // store, so (as in `revoke`) any still-unseen publisher is
            // guaranteed to observe `rbias == 0` at its re-check and
            // withdraw: the revocation is complete.
            self.stats.bias_revocations.fetch_add(1, Ordering::Relaxed);
            self.escalate_penalty();
        }
        self.stats.write_enters.fetch_add(1, Ordering::Relaxed);
        self.slow_streak.store(0, Ordering::Relaxed);
        true
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
    fn fast_reader_avoids_the_underlying_lock() {
        let l = BravoLock::new();
        let r1 = l.read();
        assert!(r1.token().is_fast());
        assert_eq!(l.published_readers(), 1);
        assert_eq!(l.underlying.stats().snapshot().read_enters, 0);
        // A second read on the SAME thread hashes to the same slot:
        // that collision falls back to the slow path by design.
        let r2 = l.read();
        assert!(!r2.token().is_fast());
        drop(r2);
        drop(r1);
        assert_eq!(l.published_readers(), 0);
        let s = l.stats().snapshot();
        assert_eq!(s.read_enters, 2);
        assert_eq!(s.elision_success, 1);
        assert_eq!(s.read_slow_enters, 1);
    }

    #[test]
    fn fast_readers_on_distinct_threads_share() {
        let l = Arc::new(BravoLock::new());
        let gate = Arc::new(std::sync::Barrier::new(3));
        let mut hs = Vec::new();
        for _ in 0..2 {
            let (l, gate) = (Arc::clone(&l), Arc::clone(&gate));
            hs.push(std::thread::spawn(move || {
                let r = l.read();
                let fast = r.token().is_fast();
                gate.wait(); // both hold their read here
                gate.wait(); // main has inspected the table
                drop(r);
                fast
            }));
        }
        gate.wait();
        let published = l.published_readers();
        gate.wait();
        let fasts = hs
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&f| f)
            .count();
        // Distinct threads hash to distinct slots (up to the rare
        // 1/1024 collision, which degrades to the slow path).
        assert!(fasts >= 1, "at least one reader took the fast path");
        assert_eq!(published, fasts, "each fast reader occupied one slot");
        assert_eq!(l.published_readers(), 0, "all slots drained");
        assert_eq!(l.underlying.stats().snapshot().write_enters, 0);
    }

    #[test]
    fn writer_revokes_and_readers_fall_back() {
        let l = BravoLock::new();
        assert!(l.is_biased());
        drop(l.write());
        assert!(!l.is_biased(), "write revokes the bias");
        let r = l.read();
        assert!(!r.token().is_fast(), "unbiased read takes the slow path");
        drop(r);
        let s = l.stats().snapshot();
        assert_eq!(s.bias_revocations, 1);
        assert_eq!(s.read_slow_enters, 1);
        assert_eq!(s.read_enters, s.elision_success + s.read_slow_enters);
    }

    #[test]
    fn minimal_policy_earns_the_bias_back() {
        let l = BravoLock::with_policy(BravoPolicy::minimal());
        drop(l.write()); // revoke; penalty -> 1, threshold = 1 << 1 = 2
        assert!(!l.is_biased());
        drop(l.read()); // slow streak 1 < 2
        assert!(!l.is_biased());
        drop(l.read()); // slow streak 2: meets the threshold, re-bias
        assert!(l.is_biased(), "streak of uncontended slow reads re-biases");
        let r = l.read();
        assert!(r.token().is_fast(), "re-biased lock serves fast reads again");
        drop(r);
        let s = l.stats().snapshot();
        assert_eq!(s.bias_rebiases, 1);
        assert_eq!(s.bias_revocations, 1);
    }

    #[test]
    fn revocation_storm_escalates_the_threshold() {
        let l = BravoLock::with_policy(BravoPolicy {
            rebias_after: 1,
            max_penalty: 3,
        });
        // Three revocations (re-earning the bias between each so every
        // write really revokes): penalty saturates upward.
        for expected_penalty in 1..=3u64 {
            drop(l.write());
            assert_eq!(l.penalty.load(Ordering::Relaxed), expected_penalty);
            assert_eq!(l.rebias_threshold(), 1 << expected_penalty);
            // Earn it back so the next write revokes again.
            while !l.is_biased() {
                drop(l.read());
            }
        }
        drop(l.write());
        assert_eq!(
            l.penalty.load(Ordering::Relaxed),
            3,
            "penalty saturates at max_penalty"
        );
    }

    #[test]
    fn try_paths_respect_the_bias() {
        let l = BravoLock::new();
        let r = l.try_read().expect("uncontended try_read");
        assert!(r.token().is_fast());
        assert!(l.try_write().is_none(), "readers block try_write");
        drop(r);
        let w = l.try_write().expect("uncontended try_write revokes");
        assert!(!l.is_biased());
        assert!(l.try_read().is_none(), "writer excludes try_read");
        drop(w);
        let r = l.try_read().expect("unbiased try_read takes the slow path");
        assert!(!r.token().is_fast());
        drop(r);
        let s = l.stats().snapshot();
        assert_eq!(s.bias_revocations, 1);
        assert_eq!(s.read_enters, s.elision_success + s.read_slow_enters);
    }

    #[test]
    fn writer_waits_for_published_readers() {
        let l = Arc::new(BravoLock::new());
        let r = l.read();
        assert!(r.token().is_fast());
        let l2 = Arc::clone(&l);
        let wrote = Arc::new(AtomicU32::new(0));
        let w2 = Arc::clone(&wrote);
        let h = std::thread::spawn(move || {
            let _w = l2.write();
            w2.store(1, std::sync::atomic::Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            wrote.load(std::sync::atomic::Ordering::SeqCst),
            0,
            "writer must wait for the published reader"
        );
        drop(r);
        h.join().unwrap();
        assert_eq!(wrote.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn torn_pair_never_observed_under_churn() {
        let l = Arc::new(BravoLock::with_policy(BravoPolicy::minimal()));
        let a = Arc::new(AtomicU32::new(0));
        let b = Arc::new(AtomicU32::new(0));
        let mut hs = Vec::new();
        for _ in 0..2 {
            let (l, a, b) = (Arc::clone(&l), Arc::clone(&a), Arc::clone(&b));
            hs.push(std::thread::spawn(move || {
                for i in 0..500u32 {
                    let _w = l.write();
                    a.store(i, std::sync::atomic::Ordering::Relaxed);
                    b.store(i, std::sync::atomic::Ordering::Relaxed);
                }
            }));
        }
        for _ in 0..2 {
            let (l, a, b) = (Arc::clone(&l), Arc::clone(&a), Arc::clone(&b));
            hs.push(std::thread::spawn(move || {
                for _ in 0..2000 {
                    let g = l.read();
                    let (ra, rb) = (
                        a.load(std::sync::atomic::Ordering::Relaxed),
                        b.load(std::sync::atomic::Ordering::Relaxed),
                    );
                    drop(g);
                    assert_eq!(ra, rb, "reader saw a torn pair");
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(l.published_readers(), 0, "no slot leaked");
        let s = l.stats().snapshot();
        assert_eq!(s.read_enters, s.elision_success + s.read_slow_enters);
    }
}
