//! Read-only lock elision and recovery — Figures 7, 8, 9, 17 and §3.3.
//!
//! The driver implements the paper's retry/fallback protocol:
//!
//! 1. Capture the lock word; if it is free, run the section
//!    speculatively; otherwise take the slow entry (recursion, spin, or
//!    the monitor).
//! 2. On completion, re-read the word. Unchanged ⇒ the lock was free for
//!    the whole section and the reads are consistent — done, with no
//!    write to the lock word. Changed ⇒ the attempt failed.
//! 3. On a fault inside the section, validate: if the word changed the
//!    fault may be a speculation artifact — treat as a failed attempt;
//!    if unchanged the fault is genuine and propagates.
//! 4. After `fallback_threshold` failed attempts, acquire the lock and
//!    re-execute non-speculatively (starvation freedom).
//!
//! The driver is written once, as the provided methods of [`LockWord`],
//! generic over the few operations where lock words differ. Two words
//! implement it: [`CompactRef`] (the SOLERO word behind [`SoleroLock`]
//! and [`CompactRef::read_only`](crate::CompactRef::read_only)) and the
//! [`SeqLock`](crate::SeqLock) sequence word.

use std::marker::PhantomData;

use solero_sync::atomic::{AtomicU64, Ordering};

use solero_obs::AbortReason;
use solero_runtime::fault::Fault;
use solero_runtime::spin::Probe;
use solero_runtime::stats::LockStats;
use solero_runtime::thread::ThreadId;
use solero_runtime::word::CompactWord;

use crate::adaptive::{AdaptivePolicy, EntryDecision};
use crate::compact::{CompactRef, CompactSpace};
use crate::config::{ElisionMode, SoleroConfig};
use crate::lock::SoleroLock;
use crate::session::{MostlySession, ReadSession};

/// Outcome of settling one execution attempt.
#[derive(Debug)]
pub enum Settled<R> {
    /// The section is finished (successfully or with a genuine fault).
    Done(Result<R, Fault>),
    /// The attempt failed; add this many failures and re-execute.
    Retry(u32),
}

impl SoleroLock {
    /// Runs `f` as a **read-only critical section**, eliding the lock
    /// when possible.
    ///
    /// `f` may run speculatively and more than once; it must be free of
    /// externally visible side effects (the paper's JIT verifies this —
    /// see the `solero-jit` crate) and should call
    /// [`ReadSession::checkpoint`](crate::Checkpoint::checkpoint) at
    /// loop back-edges.
    ///
    /// # Errors
    ///
    /// Returns `Err` only for *genuine* faults — those raised while the
    /// reads were provably consistent. Speculation artifacts are
    /// recovered internally by re-execution.
    ///
    /// # Examples
    ///
    /// ```
    /// use solero::{Fault, SoleroLock};
    /// use std::sync::atomic::{AtomicU64, Ordering};
    ///
    /// let lock = SoleroLock::new();
    /// let x = AtomicU64::new(7);
    /// let v = lock.read_only(|_s| Ok::<_, Fault>(x.load(Ordering::Acquire)))?;
    /// assert_eq!(v, 7);
    /// # Ok::<(), Fault>(())
    /// ```
    #[inline]
    pub fn read_only<R>(
        &self,
        f: impl FnMut(&mut ReadSession<'_>) -> Result<R, Fault>,
    ) -> Result<R, Fault> {
        self.handle().read_section(f)
    }

    /// Runs `f` as a **read-mostly critical section** (§5): elided like
    /// a read-only section, but `f` may call
    /// [`MostlySession::ensure_write`](crate::WriteIntent::ensure_write)
    /// before its first write; on upgrade failure the section re-executes
    /// while holding the lock.
    ///
    /// # Errors
    ///
    /// Returns `Err` only for genuine faults, as with
    /// [`SoleroLock::read_only`].
    ///
    /// # Examples
    ///
    /// ```
    /// use solero::{Fault, SoleroLock, WriteIntent};
    /// use std::sync::atomic::{AtomicU64, Ordering};
    ///
    /// let lock = SoleroLock::new();
    /// let hits = AtomicU64::new(0);
    /// lock.read_mostly(|s| {
    ///     // ... mostly reads; rare write path: ...
    ///     s.ensure_write()?;
    ///     hits.fetch_add(1, Ordering::Relaxed);
    ///     Ok::<_, Fault>(())
    /// })?;
    /// assert_eq!(hits.load(Ordering::Relaxed), 1);
    /// # Ok::<(), Fault>(())
    /// ```
    #[inline]
    pub fn read_mostly<R>(
        &self,
        mut f: impl FnMut(&mut MostlySession<'_>) -> Result<R, Fault>,
    ) -> Result<R, Fault> {
        self.handle().read_section(move |s| {
            // MostlySession is a transparent wrapper adding the upgrade
            // operation; state changes flow back to the driver's view.
            let mut m = MostlySession(ReadSession {
                lock: s.lock,
                v: s.v,
                held: s.held,
                poll: s.poll.clone(),
                _word: PhantomData,
            });
            let r = f(&mut m);
            s.held = m.0.held;
            s.v = m.0.v;
            r
        })
    }
}

/// A lock word the read driver runs on.
///
/// The required methods are the operations where words differ; they
/// hide the word format from the driver, which sees only a raw `u64`
/// to capture and validate. A held section carries a `v` of the word's
/// choosing into its exit. The provided methods are the driver itself,
/// the same for every word: the inlined Figure 7 fast path, the
/// retry/fallback loop, the fault triage and the abort booking.
pub trait LockWord<'a>: Copy {
    /// The lock's configuration and statistics.
    fn space(self) -> &'a CompactSpace;

    /// The lock's adaptive elision policy, if it has one.
    fn policy(self) -> Option<&'a AdaptivePolicy>;

    /// The word a speculative section captures and validates.
    fn word(self) -> &'a AtomicU64;

    /// True if a section may speculate on the word value `raw`.
    fn is_free(raw: u64) -> bool;

    /// Slow entry for a word that was busy at entry (Figure 8):
    /// `Some((v, false))` once the word is free again at `v`,
    /// `Some((v, true))` to run the attempt under the held lock, `None`
    /// to send the section to the retry-exhausted fallback.
    fn slow_read_enter(self, tid: ThreadId) -> Option<(u64, bool)>;

    /// Read exit (Figure 9): releases a `held` section entered with `v`
    /// and returns `true`, or returns `false` for a speculative section
    /// that does not hold the lock, which must re-execute.
    fn slow_read_exit(self, tid: ThreadId, v: u64, held: bool) -> bool;

    /// The retry-exhausted fallback acquisition; returns the held
    /// section's `v`.
    fn fallback_acquire(self, tid: ThreadId) -> u64;

    /// Acquisition for a section that runs unelided or that the
    /// adaptive policy `forfeited`; returns its `v`.
    fn acquire_unelided(self, tid: ThreadId, forfeited: bool) -> u64;

    /// Release of an [`acquire_unelided`](Self::acquire_unelided)
    /// section.
    fn release_unelided(self, tid: ThreadId, v: u64);

    /// Figure 17, line 8: takes the lock iff the word is still `v`.
    /// `true` means the section now holds the lock.
    fn try_upgrade(self, v: u64, tid: ThreadId) -> bool;

    /// The lock's configuration.
    #[inline]
    fn config(self) -> &'a SoleroConfig {
        self.space().config()
    }

    /// The lock's statistics.
    #[inline]
    fn stats(self) -> &'a LockStats {
        self.space().stats()
    }

    /// Classifies one aborted speculative read attempt: the stats
    /// taxonomy (Figure 15) and the adaptive policy.
    /// Every abort goes through here exactly once.
    #[cold]
    fn note_abort(self, reason: AbortReason) {
        let stats = self.stats();
        stats.note_abort(reason);
        if let Some(p) = self.policy() {
            if p.on_abort(reason) {
                stats.policy_disables.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Books one successful elision: the counter, plus the adaptive
    /// policy's success streak.
    #[inline(always)]
    fn note_elided(self) {
        self.stats().elision_success.fetch_add(1, Ordering::Relaxed);
        if let Some(p) = self.policy() {
            p.on_elided();
        }
    }

    /// Runs `f` as a read-only critical section: an inlined fast path
    /// (the code shape the paper's JIT emits at every read-only
    /// synchronized block) backed by the out-of-line retry/fallback
    /// driver.
    #[inline]
    fn read_section<R>(
        self,
        mut f: impl FnMut(&mut ReadSession<'a, Self>) -> Result<R, Fault>,
    ) -> Result<R, Fault> {
        let stats = self.stats();
        let config = self.config();
        stats.read_enters.fetch_add(1, Ordering::Relaxed);
        if config.elision == ElisionMode::NoElide {
            return self.read_unelided(false, f);
        }
        // Adaptive consult: a forfeited entry acquires instead of
        // speculating. No speculation starts, so this is NOT an abort —
        // `read_aborts == abort_reason_sum()` must keep balancing — it
        // is counted separately as a policy skip.
        if let Some(p) = self.policy() {
            if let EntryDecision::Acquire { rearmed } = p.on_entry() {
                stats.policy_skips.fetch_add(1, Ordering::Relaxed);
                if rearmed {
                    stats.policy_rearms.fetch_add(1, Ordering::Relaxed);
                }
                return self.read_unelided(true, f);
            }
        }
        // Figure 7, lines 1–8, inlined.
        let v = self.word().load(Ordering::Acquire);
        if !Self::is_free(v) {
            // Busy at entry: slow entry, then the driver loop.
            return self.read_busy_entry(f);
        }
        config.barrier.read_entry_fence();
        let mut s = ReadSession::new(self, v, false);
        let out = f(&mut s);
        if out.is_ok() && !s.held {
            config.barrier.read_exit_fence();
            if self.exit_validates(s.v) {
                self.note_elided();
                return out;
            }
        }
        // Failed validation, a fault, or a section that upgraded.
        match self.settle_attempt(out, s.v, s.held) {
            Settled::Done(res) => res,
            Settled::Retry(failures) => self.read_resume(f, failures),
        }
    }

    /// Unelided execution: the read section runs under the acquired
    /// lock (the Figure 10 ablation). A section the adaptive policy
    /// `forfeited` runs the same way.
    #[cold]
    fn read_unelided<R>(
        self,
        forfeited: bool,
        mut f: impl FnMut(&mut ReadSession<'a, Self>) -> Result<R, Fault>,
    ) -> Result<R, Fault> {
        let tid = ThreadId::current();
        let v = self.acquire_unelided(tid, forfeited);
        let r = f(&mut ReadSession::new(self, v, true));
        self.release_unelided(tid, v);
        r
    }

    /// First attempt when the word was busy at entry.
    #[cold]
    fn read_busy_entry<R>(
        self,
        mut f: impl FnMut(&mut ReadSession<'a, Self>) -> Result<R, Fault>,
    ) -> Result<R, Fault> {
        let tid = ThreadId::current();
        let entry = self.busy_entry(tid);
        match self.attempt(&mut f, entry, tid) {
            Settled::Done(res) => res,
            Settled::Retry(failures) => self.read_resume(f, failures),
        }
    }

    /// The slow entry, booking a wait that ended on a free word: the
    /// word was busy at entry, so speculation had to wait for it to
    /// free up before (re)starting.
    fn busy_entry(self, tid: ThreadId) -> Option<(u64, bool)> {
        let entry = self.slow_read_enter(tid);
        if let Some((_, false)) = entry {
            self.note_abort(AbortReason::LockedAtEntry);
        }
        entry
    }

    /// One execution attempt, settled: speculative from a captured word
    /// or under the held lock, as `entry` says — or, for `None`, under
    /// the retry-exhausted fallback (starvation freedom).
    fn attempt<R>(
        self,
        f: &mut impl FnMut(&mut ReadSession<'a, Self>) -> Result<R, Fault>,
        entry: Option<(u64, bool)>,
        tid: ThreadId,
    ) -> Settled<R> {
        let (v, held) = match entry {
            Some(entry) => entry,
            None => {
                self.stats()
                    .fallback_acquires
                    .fetch_add(1, Ordering::Relaxed);
                self.note_abort(AbortReason::RetryExhaustedFallback);
                (self.fallback_acquire(tid), true)
            }
        };
        if !held {
            self.config().barrier.read_entry_fence();
        }
        let mut s = ReadSession::new(self, v, held);
        let out = f(&mut s);
        self.settle_attempt(out, s.v, s.held)
    }

    /// Figure 7, line 6: the exit re-read. A speculative section is
    /// valid iff the lock word it observed at entry is still the
    /// current word — an `Acquire` load so everything the last writer
    /// published is visible before we vouch for the result.
    ///
    /// Under `--cfg solero_mc` this is also the mutation point the
    /// model checker must kill (see `crate::mutation`), for every word.
    #[inline]
    fn exit_validates(self, v: u64) -> bool {
        #[cfg(solero_mc)]
        match crate::mutation::active() {
            crate::mutation::SKIP_EXIT_REREAD => return true,
            crate::mutation::WEAK_EXIT_LOAD => {
                return v == self.word().load(Ordering::Relaxed);
            }
            _ => {}
        }
        v == self.word().load(Ordering::Acquire)
    }

    /// Post-processing of one execution attempt: exit validation
    /// (Figure 7 lines 6–14) and the catch-block fault triage (§3.3).
    #[cold]
    fn settle_attempt<R>(self, out: Result<R, Fault>, v: u64, held: bool) -> Settled<R> {
        if held {
            // Faults under a held lock are genuine: release and
            // propagate (§3.3 — the conventional path).
            let released = self.slow_read_exit(ThreadId::current(), v, true);
            debug_assert!(released, "held section must release");
            return Settled::Done(out);
        }
        let stats = self.stats();
        match out {
            Ok(r) => {
                // Figure 7, line 6: validate.
                self.config().barrier.read_exit_fence();
                if self.exit_validates(v) {
                    self.note_elided();
                    return Settled::Done(Ok(r));
                }
                // Figure 7, line 9: the lock may be held by us through a
                // path the fast check misses.
                if self.slow_read_exit(ThreadId::current(), v, false) {
                    return Settled::Done(Ok(r));
                }
                stats.elision_failure.fetch_add(1, Ordering::Relaxed);
                self.note_abort(AbortReason::WordChangedAtExit);
                Settled::Retry(1)
            }
            Err(Fault::UpgradeFailed) => {
                // Figure 17, line 13: go straight to fallback. The
                // abort is counted once, by the fallback branch of
                // `attempt` (RetryExhaustedFallback) — counting
                // WordChangedAtExit here too would double-book the
                // same abort and break
                // `read_aborts == abort_reason_sum()`.
                stats.elision_failure.fetch_add(1, Ordering::Relaxed);
                Settled::Retry(self.config().fallback_threshold.max(1))
            }
            Err(fault) => {
                // Catch-block validation (§3.3): unchanged word means
                // the reads were consistent — the fault is genuine.
                if !fault.is_artifact_only() && v == self.word().load(Ordering::Acquire) {
                    return Settled::Done(Err(fault));
                }
                stats.speculative_faults.fetch_add(1, Ordering::Relaxed);
                stats.elision_failure.fetch_add(1, Ordering::Relaxed);
                // A check-point raised the inconsistency; any other fault
                // was ruled an artifact because the word changed.
                self.note_abort(if fault == Fault::Inconsistent {
                    AbortReason::AsyncRevalidationFail
                } else {
                    AbortReason::WordChangedAtExit
                });
                Settled::Retry(1)
            }
        }
    }

    /// Re-execution loop: optimistic retries until `fallback_threshold`
    /// failures, then under the acquired lock (starvation freedom).
    #[cold]
    fn read_resume<R>(
        self,
        mut f: impl FnMut(&mut ReadSession<'a, Self>) -> Result<R, Fault>,
        mut failures: u32,
    ) -> Result<R, Fault> {
        let tid = ThreadId::current();
        loop {
            let entry = if failures >= self.config().fallback_threshold {
                None
            } else {
                let v = self.word().load(Ordering::Acquire);
                if Self::is_free(v) {
                    Some((v, false))
                } else {
                    self.busy_entry(tid)
                }
            };
            match self.attempt(&mut f, entry, tid) {
                Settled::Done(res) => return res,
                Settled::Retry(add) => failures += add,
            }
        }
    }
}

/// The SOLERO word: free when its low three bits are clear; recursion,
/// spinning and the monitor on a busy entry; a held section carries no
/// `v` (the counter rides inside the held word).
impl<'a> LockWord<'a> for CompactRef<'a> {
    #[inline]
    fn space(self) -> &'a CompactSpace {
        self.space
    }

    #[inline]
    fn policy(self) -> Option<&'a AdaptivePolicy> {
        self.policy
    }

    #[inline]
    fn word(self) -> &'a AtomicU64 {
        self.word
    }

    #[inline]
    fn is_free(raw: u64) -> bool {
        CompactWord(raw).is_elidable()
    }

    /// Slow entry for read-only sections — Figure 8.
    ///
    /// Recursion increments the recursion bits; a busy flat lock is
    /// spun on; inflation (or persistent contention) acquires the fat
    /// lock. A held entry's `v` is never validated.
    #[cold]
    fn slow_read_enter(self, tid: ThreadId) -> Option<(u64, bool)> {
        // Figure 8, lines 2–5: test_recursion.
        let v = self.load(Ordering::Acquire);
        if v.tid() == Some(tid) {
            self.recurse(tid, v);
            return Some((0, true));
        }
        self.stats()
            .read_slow_enters
            .fetch_add(1, Ordering::Relaxed);
        // Figure 8, lines 6–17: three-tier wait for the lock to free up.
        let spun = self.config().spin.run(|| {
            let w = self.load(Ordering::Acquire);
            if w.is_elidable() {
                Probe::Done(Some(w.raw()))
            } else if w.needs_monitor() {
                // Figure 8, line 11: inflated or contended — stop.
                Probe::Done(None)
            } else {
                Probe::Retry
            }
        });
        match spun {
            Some(Some(v)) => Some((v, false)),
            // Figure 8, INFLATION: acquire the fat lock via the monitor.
            Some(None) | None => {
                self.note_abort(AbortReason::Inflation);
                // A deflate racing us can prune the binding we resolved
                // (`false`); the next call re-resolves — and if the word
                // went free in between, inflates it, which is the
                // contender-finds-free behaviour the protocol wants.
                while !self.enter_via_monitor(tid) {}
                Some((0, true))
            }
        }
    }

    /// Slow exit for read-only sections — Figure 9. Releases one level
    /// if `tid` holds the lock (recursion popped, flat lock released, or
    /// fat lock released); the word itself says whether it does. A fat
    /// read release does not bump the displaced counter; only a writing
    /// release does (see `slow_release`).
    #[cold]
    fn slow_read_exit(self, tid: ThreadId, _v: u64, _held: bool) -> bool {
        let w = self.load(Ordering::Acquire);
        if w.tid() == Some(tid) {
            self.release_flat(tid, w);
            return true;
        }
        // Figure 9, lines 9–11. Lookup-only: only the current binding
        // can be owned by us, and while we own it the word cannot
        // change, so no id re-check is needed here.
        if w.is_inflated() && self.monitor_existing().is_some_and(|m| m.owned_by(tid)) {
            self.exit_fat(tid);
            return true;
        }
        // Figure 9, line 13: the lock value changed — re-execute.
        false
    }

    fn fallback_acquire(self, tid: ThreadId) -> u64 {
        self.slow_acquire(tid);
        0
    }

    /// Unelided-SOLERO acquires as a writer does, but books no write
    /// entry: `read_section` already booked the section as a read. A
    /// forfeited section goes through
    /// [`acquire_forfeited`](CompactRef::acquire_forfeited).
    fn acquire_unelided(self, tid: ThreadId, forfeited: bool) -> u64 {
        if forfeited {
            self.acquire_forfeited(tid);
        } else {
            self.acquire_uncounted(tid);
        }
        0
    }

    fn release_unelided(self, tid: ThreadId, _v: u64) {
        self.release(tid);
    }

    /// `CAS(&obj->lock, v, thread_id + LOCK_BIT) || hold_lock(obj)`. The
    /// second half is defensive: a held lock normally enters through
    /// the recursion path and never reaches here.
    fn try_upgrade(self, v: u64, tid: ThreadId) -> bool {
        self.try_acquire(CompactWord(v), tid) || self.holds(tid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SoleroConfig;
    use crate::session::{Checkpoint, WriteIntent};
    use solero_runtime::spin::SpinConfig;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn elided_read_leaves_word_untouched() {
        let l = SoleroLock::new();
        let before = l.raw_word();
        let n = l.read_only(|_| Ok::<_, Fault>(5)).unwrap();
        assert_eq!(n, 5);
        assert_eq!(l.raw_word(), before, "read-only section writes no lock state");
        let s = l.stats().snapshot();
        assert_eq!(s.elision_success, 1);
        assert_eq!(s.elision_failure, 0);
    }

    #[test]
    fn unelided_mode_acquires() {
        let l = SoleroLock::with_config(SoleroConfig::builder().unelided(true).build());
        let before = l.raw_word().counter().unwrap();
        l.read_only(|s| {
            assert!(!s.is_speculative());
            Ok::<_, Fault>(())
        })
        .unwrap();
        assert_eq!(l.raw_word().counter().unwrap(), before + 1);
        assert_eq!(l.stats().snapshot().elision_success, 0);
    }

    #[test]
    fn forfeited_section_is_booked_once_as_a_read() {
        let l = SoleroLock::with_config(
            SoleroConfig::builder()
                .adaptive_budgets(crate::adaptive::AdaptiveBudgets::minimal())
                .build(),
        );
        assert!(l.policy().unwrap().on_abort(AbortReason::LockedAtEntry));
        l.read_only(|s| {
            assert!(!s.is_speculative(), "a forfeited section holds the lock");
            Ok::<_, Fault>(())
        })
        .unwrap();
        let s = l.stats().snapshot();
        assert_eq!(
            (s.read_enters, s.policy_skips, s.write_enters),
            (1, 1, 0),
            "{s}"
        );
    }

    #[test]
    fn genuine_fault_propagates_once() {
        let l = SoleroLock::new();
        let mut runs = 0;
        let r: Result<(), Fault> = l.read_only(|_| {
            runs += 1;
            Err(Fault::NullPointer)
        });
        assert_eq!(r, Err(Fault::NullPointer));
        assert_eq!(runs, 1, "consistent fault must not retry");
    }

    #[test]
    fn validation_failure_retries_then_falls_back() {
        let l = Arc::new(SoleroLock::new());
        let mut attempt = 0;
        let l2 = Arc::clone(&l);
        let r = l
            .read_only(|s| {
                attempt += 1;
                if attempt == 1 {
                    assert!(s.is_speculative());
                    // A concurrent writer invalidates us mid-section.
                    std::thread::scope(|sc| {
                        sc.spawn(|| l2.write(|| {}));
                    });
                    // The read completes but validation must now fail.
                    Ok::<_, Fault>(attempt)
                } else {
                    // Fallback execution holds the lock.
                    assert!(!s.is_speculative());
                    Ok(attempt)
                }
            })
            .unwrap();
        assert_eq!(r, 2);
        let s = l.stats().snapshot();
        assert_eq!(s.elision_failure, 1);
        assert_eq!(s.fallback_acquires, 1);
        assert_eq!(s.elision_success, 0);
        assert!(!l.is_locked(), "fallback must release");
    }

    #[test]
    fn speculative_fault_with_changed_word_retries() {
        let l = Arc::new(SoleroLock::new());
        let mut attempt = 0;
        let l2 = Arc::clone(&l);
        let r = l
            .read_only(|_| {
                attempt += 1;
                if attempt == 1 {
                    std::thread::scope(|sc| {
                        sc.spawn(|| l2.write(|| {}));
                    });
                    // Fault that *could* be a speculation artifact.
                    Err(Fault::NullPointer)
                } else {
                    Ok(99)
                }
            })
            .unwrap();
        assert_eq!(r, 99);
        assert_eq!(l.stats().snapshot().speculative_faults, 1);
    }

    #[test]
    fn checkpoint_detects_concurrent_writer() {
        let l = Arc::new(SoleroLock::with_config(SoleroConfig {
            checkpoint_period: 1, // validate at every back-edge
            ..SoleroConfig::default()
        }));
        let l2 = Arc::clone(&l);
        let mut attempt = 0;
        let r = l
            .read_only(|s| {
                attempt += 1;
                if attempt == 1 {
                    std::thread::scope(|sc| {
                        sc.spawn(|| l2.write(|| {}));
                    });
                    // Simulated infinite loop: the check-point must
                    // break it.
                    for _ in 0..1_000_000 {
                        s.checkpoint()?;
                    }
                    panic!("checkpoint failed to detect the writer");
                }
                Ok::<_, Fault>(attempt)
            })
            .unwrap();
        assert_eq!(r, 2);
        assert!(l.stats().snapshot().async_validations > 0);
    }

    #[test]
    fn read_inside_write_section_is_recursive() {
        let l = SoleroLock::new();
        let tid = ThreadId::current();
        let t = l.enter_write(tid);
        let r = l
            .read_only(|s| {
                assert!(!s.is_speculative(), "nested read runs under the lock");
                Ok::<_, Fault>(1)
            })
            .unwrap();
        assert_eq!(r, 1);
        assert!(l.holds(tid), "outer lock still held");
        l.exit_write(tid, t);
        assert!(!l.is_locked());
        assert_eq!(l.stats().snapshot().recursive_enters, 1);
    }

    #[test]
    fn slow_read_enter_waits_for_writer() {
        let l = Arc::new(SoleroLock::with_config(SoleroConfig {
            spin: SpinConfig {
                tier1: 16,
                tier2: 1024,
                tier3: 64,
            },
            ..SoleroConfig::default()
        }));
        let data = Arc::new(AtomicU64::new(0));
        let tid = ThreadId::current();
        let t = l.enter_write(tid);
        let (l2, d2) = (Arc::clone(&l), Arc::clone(&data));
        let h = std::thread::spawn(move || {
            l2.read_only(|_| Ok::<_, Fault>(d2.load(Ordering::Acquire)))
                .unwrap()
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        data.store(42, Ordering::Release);
        l.exit_write(tid, t);
        assert_eq!(h.join().unwrap(), 42, "reader must see the writer's data");
        assert!(l.stats().snapshot().read_slow_enters >= 1);
    }

    #[test]
    fn read_mostly_upgrades_in_place() {
        let l = SoleroLock::new();
        let data = AtomicU64::new(0);
        let before = l.raw_word().counter().unwrap();
        l.read_mostly(|s| {
            let seen = data.load(Ordering::Acquire);
            s.ensure_write()?;
            assert!(!s.is_speculative());
            data.store(seen + 1, Ordering::Release);
            Ok::<_, Fault>(())
        })
        .unwrap();
        assert_eq!(data.load(Ordering::Acquire), 1);
        assert_eq!(
            l.raw_word().counter().unwrap(),
            before + 1,
            "upgraded section releases like a writer"
        );
        assert_eq!(l.stats().snapshot().mostly_upgrades, 1);
        assert!(!l.is_locked());
    }

    #[test]
    fn read_mostly_without_write_elides() {
        let l = SoleroLock::new();
        let before = l.raw_word();
        l.read_mostly(|_| Ok::<_, Fault>(())).unwrap();
        assert_eq!(l.raw_word(), before);
        assert_eq!(l.stats().snapshot().elision_success, 1);
    }

    #[test]
    fn read_mostly_upgrade_failure_falls_back() {
        let l = Arc::new(SoleroLock::new());
        let l2 = Arc::clone(&l);
        let data = AtomicU64::new(0);
        let mut attempt = 0;
        l.read_mostly(|s| {
            attempt += 1;
            if attempt == 1 {
                // Invalidate before the upgrade point.
                std::thread::scope(|sc| {
                    sc.spawn(|| l2.write(|| {}));
                });
            }
            s.ensure_write()?;
            data.fetch_add(1, Ordering::Relaxed);
            Ok::<_, Fault>(())
        })
        .unwrap();
        assert_eq!(attempt, 2, "failed upgrade re-executes under the lock");
        assert_eq!(data.load(Ordering::Relaxed), 1, "write happens exactly once");
        assert!(!l.is_locked());
    }

    #[test]
    fn concurrent_readers_all_elide() {
        let l = Arc::new(SoleroLock::new());
        let data = Arc::new(AtomicU64::new(1234));
        std::thread::scope(|sc| {
            for _ in 0..8 {
                let l = Arc::clone(&l);
                let d = Arc::clone(&data);
                sc.spawn(move || {
                    for _ in 0..1_000 {
                        let v = l
                            .read_only(|_| Ok::<_, Fault>(d.load(Ordering::Acquire)))
                            .unwrap();
                        assert_eq!(v, 1234);
                    }
                });
            }
        });
        let s = l.stats().snapshot();
        assert_eq!(s.elision_success, 8_000);
        assert_eq!(s.elision_failure, 0);
        assert_eq!(s.write_enters, 0);
    }

    #[test]
    fn readers_and_writers_keep_snapshots_consistent() {
        // Two fields updated together under the lock must never be seen
        // torn by a *validated* read.
        let l = Arc::new(SoleroLock::new());
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        std::thread::scope(|sc| {
            for _ in 0..4 {
                let (l, a, b) = (Arc::clone(&l), Arc::clone(&a), Arc::clone(&b));
                sc.spawn(move || {
                    for _ in 0..3_000 {
                        let (x, y) = l
                            .read_only(|_| {
                                Ok::<_, Fault>((
                                    a.load(Ordering::Acquire),
                                    b.load(Ordering::Acquire),
                                ))
                            })
                            .unwrap();
                        assert_eq!(x, y, "validated read observed a torn pair");
                    }
                });
            }
            for _ in 0..2 {
                let (l, a, b) = (Arc::clone(&l), Arc::clone(&a), Arc::clone(&b));
                sc.spawn(move || {
                    for _ in 0..3_000 {
                        l.write(|| {
                            let v = a.load(Ordering::Relaxed) + 1;
                            a.store(v, Ordering::Release);
                            std::hint::spin_loop();
                            b.store(v, Ordering::Release);
                        });
                    }
                });
            }
        });
        assert_eq!(a.load(Ordering::Relaxed), 6_000);
    }
}
