//! Inline-data SeqLock fast path for small `Copy` read-mostly payloads.
//!
//! The SOLERO protocol validates reads of *heap* data against the lock
//! word; for tiny fixed-size payloads the pointer-chase through
//! `solero-heap` handles dominates the section. [`SeqLock`] keeps the
//! payload **inline, beside the sequence word, inside one cache line**:
//! a read is a handful of same-line loads bracketed by the §3.4
//! barriers, with no indirection at all.
//!
//! The protocol is the classic Linux-style seqlock (SNIPPETS.md
//! snippet 2) expressed in the SOLERO abort taxonomy:
//!
//! * the sequence word is even when free, odd while a writer is
//!   installing — an odd word at entry is `locked_at_entry`;
//! * a reader captures the even word, speculatively loads the payload
//!   words, then re-validates the word after the
//!   [`read_exit_fence`](solero_runtime::fence::BarrierMode) — a
//!   changed word is `word_changed_at_exit`;
//! * after `fallback_threshold` failed attempts the reader acquires
//!   the writer side (`retry_exhausted_fallback`), so readers cannot
//!   starve under a write storm;
//! * writers contend on the even→odd CAS under the history-keyed
//!   [`ContentionConfig`](solero_runtime::contention::ContentionConfig)
//!   back-off, bump the payload, and release with `+2`.
//!
//! A *fallback read* restores the same even word it displaced instead
//! of bumping it — it wrote nothing, so concurrent speculative readers
//! spanning the fallback may still validate. (Fallback *sections* run
//! arbitrary closures that may upgrade and write, so they release with
//! the conservative `+2`.)
//!
//! The payload lives in `solero_sync` atomics, so under
//! `--cfg solero_mc` every payload word load/store is a scheduling
//! point with store-buffer/stale-value semantics — the
//! writer-bump/reader-validate handshake is model-checked in
//! `crates/mc/tests/seqlock_mc.rs` under DFS, DPOR, and TSO, and the
//! Relaxed-demoted exit load (`WEAK_EXIT_LOAD`) dies there with a
//! deterministic replay.

use std::marker::PhantomData;
use std::mem::{align_of, size_of};

use solero_sync::atomic::{AtomicU64, Ordering};

use solero_obs::{AbortReason, EventKind, LockEvent, RecentAborts, SectionKind};
use solero_runtime::fault::Fault;
use solero_runtime::spin::Probe;
use solero_runtime::stats::{LockStats, StatsSnapshot};

use crate::adaptive::{AdaptivePolicy, EntryDecision};
use crate::config::{ElisionMode, SoleroConfig};
use crate::session::{Checkpoint, WriteIntent};
use crate::strategy::SyncStrategy;

/// Inline payload capacity in 64-bit words (64 bytes — one cache line
/// of payload beside the sequence word).
pub const SEQ_INLINE_WORDS: usize = 8;

/// Marker for payloads that may live in the inline word array.
///
/// # Safety
///
/// Implementors must guarantee both of:
///
/// * **every bit pattern is a valid value** — a torn speculative read
///   assembles words from different writes before validation rejects
///   it, and the assembled (soon-discarded) value must still be a
///   valid `T`;
/// * **the representation has no padding bytes** — the payload is
///   copied to and from the word array as raw bytes.
///
/// Fixed-width integers, floats, and arrays of them qualify; types
/// with niches (`bool`, enums, references) or padding (most tuples and
/// structs) do not, unless laid out `#[repr(C)]` without padding over
/// qualifying fields.
pub unsafe trait SeqData: Copy + Send + 'static {}

unsafe impl SeqData for u8 {}
unsafe impl SeqData for u16 {}
unsafe impl SeqData for u32 {}
unsafe impl SeqData for u64 {}
unsafe impl SeqData for usize {}
unsafe impl SeqData for i8 {}
unsafe impl SeqData for i16 {}
unsafe impl SeqData for i32 {}
unsafe impl SeqData for i64 {}
unsafe impl SeqData for isize {}
unsafe impl SeqData for f32 {}
unsafe impl SeqData for f64 {}
unsafe impl SeqData for () {}
unsafe impl<T: SeqData, const N: usize> SeqData for [T; N] {}

/// A sequence lock with **inline data**: the payload shares the
/// structure (and for payloads up to 56 bytes, the cache line) with
/// the sequence word.
///
/// # Examples
///
/// ```
/// use solero::SeqLock;
///
/// let l = SeqLock::new([1u64, 2]);
/// assert_eq!(l.read_inline(), [1, 2]);
/// l.update_inline(|v| v[0] += 10);
/// assert_eq!(l.read_inline(), [11, 2]);
/// assert_eq!(l.stats().snapshot().elision_success, 2);
/// ```
#[derive(Debug)]
pub struct SeqLock<T: SeqData> {
    /// Even = free (version), odd = writer installing.
    seq: AtomicU64,
    /// The inline payload words; only `Self::WORDS` are used.
    data: [AtomicU64; SEQ_INLINE_WORDS],
    config: SoleroConfig,
    stats: LockStats,
    recent: RecentAborts,
    policy: Option<AdaptivePolicy>,
    _payload: PhantomData<fn(T) -> T>,
}

impl<T: SeqData> SeqLock<T> {
    /// Payload words used by `T`. Evaluating this constant is also the
    /// compile-time capacity check: payloads over 64 bytes or aligned
    /// past 8 are rejected at monomorphization.
    const WORDS: usize = {
        assert!(
            size_of::<T>() <= 8 * SEQ_INLINE_WORDS,
            "SeqLock payload exceeds the 64-byte inline capacity"
        );
        assert!(
            align_of::<T>() <= 8,
            "SeqLock payload must not require alignment beyond 8 bytes"
        );
        size_of::<T>().div_ceil(8)
    };

    /// A lock around `init` with the paper's default configuration.
    pub fn new(init: T) -> Self {
        Self::with_config(SoleroConfig::default(), init)
    }

    /// A lock around `init` with explicit configuration. The relevant
    /// knobs are `barrier`, `fallback_threshold`, `spin` (the odd-word
    /// entry wait), `contention` (the writer CAS), `checkpoint_period`,
    /// and `adaptive`; `elision` disables speculation entirely.
    pub fn with_config(config: SoleroConfig, init: T) -> Self {
        let lock = SeqLock {
            seq: AtomicU64::new(0),
            data: std::array::from_fn(|_| AtomicU64::new(0)),
            config,
            stats: LockStats::default(),
            recent: RecentAborts::new(),
            policy: config.adaptive.map(AdaptivePolicy::new),
            _payload: PhantomData,
        };
        lock.store_words(init);
        lock
    }

    /// The lock's configuration.
    pub fn config(&self) -> &SoleroConfig {
        &self.config
    }

    /// Per-lock statistics counters (shared taxonomy with
    /// [`SoleroLock`](crate::SoleroLock)).
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// Per-class recent-abort history.
    pub fn recent_aborts(&self) -> &RecentAborts {
        &self.recent
    }

    /// The adaptive elision policy, if configured.
    pub fn policy(&self) -> Option<&AdaptivePolicy> {
        self.policy.as_ref()
    }

    /// The current raw sequence word (diagnostics and tests): even =
    /// free, odd = writer installing.
    pub fn raw_seq(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Stable lock identity for observability events.
    #[inline]
    fn obs_id(&self) -> u64 {
        &self.seq as *const _ as usize as u64
    }

    // ---- payload word marshalling -------------------------------------

    fn encode(value: T) -> [u64; SEQ_INLINE_WORDS] {
        let mut buf = [0u64; SEQ_INLINE_WORDS];
        // SAFETY: T: SeqData has no padding, so all size_of::<T>()
        // bytes are initialized; the buffer is large enough by the
        // Self::WORDS capacity assertion.
        unsafe {
            std::ptr::copy_nonoverlapping(
                &value as *const T as *const u8,
                buf.as_mut_ptr() as *mut u8,
                size_of::<T>(),
            );
        }
        buf
    }

    fn decode(buf: &[u64; SEQ_INLINE_WORDS]) -> T {
        // SAFETY: the buffer is 8-aligned and T's alignment is at most
        // 8 (capacity assertion); T: SeqData admits every bit pattern,
        // so even a torn (about-to-be-discarded) image is a valid T.
        unsafe { std::ptr::read(buf.as_ptr() as *const T) }
    }

    /// Speculative payload load: per-word `Relaxed` atomics, so the
    /// model checker branches on stale/buffered values here while
    /// normal builds compile to plain loads.
    fn load_words(&self) -> [u64; SEQ_INLINE_WORDS] {
        let mut buf = [0u64; SEQ_INLINE_WORDS];
        for (i, slot) in buf.iter_mut().enumerate().take(Self::WORDS) {
            *slot = self.data[i].load(Ordering::Relaxed);
        }
        buf
    }

    fn store_words(&self, value: T) {
        let buf = Self::encode(value);
        for (i, word) in buf.iter().enumerate().take(Self::WORDS) {
            self.data[i].store(*word, Ordering::Relaxed);
        }
    }

    // ---- abort taxonomy (mirrors SoleroLock) --------------------------

    /// Classifies one aborted speculative attempt, exactly once, so
    /// `read_aborts == abort_reason_sum()` holds here as it does for
    /// [`SoleroLock`](crate::SoleroLock).
    #[cold]
    fn note_abort(&self, reason: AbortReason) {
        self.stats.note_abort(reason);
        self.recent.note(reason);
        if let Some(p) = &self.policy {
            if p.on_abort(reason) {
                self.stats.policy_disables.fetch_add(1, Ordering::Relaxed);
            }
        }
        solero_obs::emit(|| LockEvent::now(self.obs_id(), EventKind::Abort(reason)));
    }

    #[inline]
    fn note_elided(&self) {
        self.stats.elision_success.fetch_add(1, Ordering::Relaxed);
        if let Some(p) = &self.policy {
            if p.on_elided() {
                self.recent.decay();
            }
        }
    }

    /// The exit re-validation: the captured even word must still be
    /// current, loaded `Acquire` after the
    /// [`read_exit_fence`](solero_runtime::fence::BarrierMode) — the
    /// same §3.4 barrier argument as SOLERO's Figure 7 line 6.
    ///
    /// Under `--cfg solero_mc` this shares `SoleroLock`'s mutation
    /// points: `SKIP_EXIT_REREAD` and the Relaxed-demoted
    /// `WEAK_EXIT_LOAD`, both of which the checker must kill.
    #[inline]
    fn exit_validates(&self, v1: u64) -> bool {
        #[cfg(solero_mc)]
        match crate::mutation::active() {
            crate::mutation::SKIP_EXIT_REREAD => return true,
            crate::mutation::WEAK_EXIT_LOAD => {
                return v1 == self.seq.load(Ordering::Relaxed);
            }
            _ => {}
        }
        v1 == self.seq.load(Ordering::Acquire)
    }

    // ---- writer side --------------------------------------------------

    /// Raw writer-side acquisition (no section counters): CAS the even
    /// word odd, contending under the history-keyed back-off. Returns
    /// the displaced even value.
    fn writer_lock(&self) -> u64 {
        let v = self.seq.load(Ordering::Relaxed);
        if v & 1 == 0
            && self
                .seq
                .compare_exchange(v, v + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            return v;
        }
        self.writer_lock_slow()
    }

    #[cold]
    fn writer_lock_slow(&self) -> u64 {
        loop {
            let got = self.config.contention.run_observed(
                || {
                    let v = self.seq.load(Ordering::Relaxed);
                    if v & 1 == 0
                        && self
                            .seq
                            .compare_exchange(v, v + 1, Ordering::AcqRel, Ordering::Relaxed)
                            .is_ok()
                    {
                        return Probe::Done(v);
                    }
                    Probe::Retry
                },
                |_| {
                    self.stats
                        .contention_backoffs
                        .fetch_add(1, Ordering::Relaxed);
                },
            );
            if let Some(v) = got {
                return v;
            }
            // Attempts exhausted. The inline lock has no monitor tier
            // to inflate to; yield and re-enter the managed probes (the
            // per-thread history keeps the renewed cadence polite).
            #[cfg(not(solero_mc))]
            std::thread::yield_now();
        }
    }

    /// Writing release: publish the payload and the next even word.
    fn writer_release(&self, displaced: u64) {
        solero_obs::emit(|| LockEvent::now(self.obs_id(), EventKind::WriteRelease));
        self.seq
            .store(displaced.wrapping_add(2), Ordering::Release);
    }

    /// Counted writer entry for the write-section APIs.
    fn writer_acquire(&self) -> u64 {
        self.stats.write_enters.fetch_add(1, Ordering::Relaxed);
        let v = self.seq.load(Ordering::Relaxed);
        if v & 1 == 0
            && self
                .seq
                .compare_exchange(v, v + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            self.stats.write_fast.fetch_add(1, Ordering::Relaxed);
            solero_obs::emit(|| LockEvent::now(self.obs_id(), EventKind::WriteAcquire));
            return v;
        }
        let v = self.writer_lock_slow();
        solero_obs::emit(|| LockEvent::now(self.obs_id(), EventKind::WriteAcquire));
        v
    }

    // ---- typed inline fast paths --------------------------------------

    /// Reads the payload — the inline fast path: capture the even
    /// word, load the payload words, re-validate; retry and fall back
    /// per the SOLERO taxonomy.
    pub fn read_inline(&self) -> T {
        self.stats.read_enters.fetch_add(1, Ordering::Relaxed);
        if self.config.elision == ElisionMode::NoElide {
            return self.read_locked();
        }
        if let Some(p) = &self.policy {
            if let EntryDecision::Acquire { rearmed } = p.on_entry() {
                self.stats.policy_skips.fetch_add(1, Ordering::Relaxed);
                if rearmed {
                    self.stats.policy_rearms.fetch_add(1, Ordering::Relaxed);
                }
                return self.read_locked();
            }
        }
        let threshold = self.config.fallback_threshold.max(1);
        let mut failures = 0u32;
        while failures < threshold {
            let Some(v1) = self.speculative_entry() else {
                break;
            };
            solero_obs::emit(|| LockEvent::now(self.obs_id(), EventKind::ElisionAttempt));
            self.config.barrier.read_entry_fence();
            let buf = self.load_words();
            self.config.barrier.read_exit_fence();
            if self.exit_validates(v1) {
                self.note_elided();
                return Self::decode(&buf);
            }
            self.stats.elision_failure.fetch_add(1, Ordering::Relaxed);
            self.note_abort(AbortReason::WordChangedAtExit);
            failures += 1;
        }
        self.fallback_read()
    }

    /// Overwrites the payload as a writing critical section.
    pub fn write_inline(&self, value: T) {
        let v = self.writer_acquire();
        self.store_words(value);
        self.writer_release(v);
    }

    /// Read-modify-write of the payload under the writer side.
    pub fn update_inline(&self, f: impl FnOnce(&mut T)) {
        let v = self.writer_acquire();
        let mut cur = Self::decode(&self.load_words());
        f(&mut cur);
        self.store_words(cur);
        self.writer_release(v);
    }

    /// Entry for one speculative attempt: the current even word, or
    /// `None` when the odd-word wait exhausted its spin tiers and the
    /// caller must fall back.
    fn speculative_entry(&self) -> Option<u64> {
        let v = self.seq.load(Ordering::Acquire);
        if v & 1 == 0 {
            return Some(v);
        }
        // Writer installing: Figure 8-style bounded wait for an even
        // word, then a LockedAtEntry abort books the stall.
        self.stats.read_slow_enters.fetch_add(1, Ordering::Relaxed);
        let spun = self.config.spin.run(|| {
            let v = self.seq.load(Ordering::Acquire);
            if v & 1 == 0 {
                Probe::Done(v)
            } else {
                Probe::Retry
            }
        });
        match spun {
            Some(v) => {
                self.note_abort(AbortReason::LockedAtEntry);
                Some(v)
            }
            None => None,
        }
    }

    /// Retry-exhausted fallback for the typed read path: acquire the
    /// writer side, read directly, and **restore the displaced even
    /// word** — nothing was written, so concurrent speculative readers
    /// spanning this hold may still validate.
    #[cold]
    fn fallback_read(&self) -> T {
        self.stats.fallback_acquires.fetch_add(1, Ordering::Relaxed);
        self.note_abort(AbortReason::RetryExhaustedFallback);
        solero_obs::emit(|| LockEvent::now(self.obs_id(), EventKind::FallbackAcquire));
        self.read_locked()
    }

    /// Non-speculative typed read (unelided mode, policy skips, and the
    /// tail of [`SeqLock::fallback_read`]).
    #[cold]
    fn read_locked(&self) -> T {
        let v = self.writer_lock();
        let buf = self.load_words();
        // Restore, not bump: this reader displaced the word but wrote
        // no payload.
        self.seq.store(v, Ordering::Release);
        Self::decode(&buf)
    }

    // ---- closure sections (the strategy surface) ----------------------

    /// Runs `f` as an elided read/read-mostly section over ambient
    /// data, validated against this lock's sequence word — the closure
    /// analogue of [`SeqLock::read_inline`], with in-place upgrade via
    /// [`WriteIntent::ensure_write`].
    fn run_section<R>(
        &self,
        mut f: impl FnMut(&mut dyn WriteIntent) -> Result<R, Fault>,
    ) -> Result<R, Fault> {
        self.stats.read_enters.fetch_add(1, Ordering::Relaxed);
        if self.config.elision == ElisionMode::NoElide {
            return self.locked_section(&mut f);
        }
        if let Some(p) = &self.policy {
            if let EntryDecision::Acquire { rearmed } = p.on_entry() {
                self.stats.policy_skips.fetch_add(1, Ordering::Relaxed);
                if rearmed {
                    self.stats.policy_rearms.fetch_add(1, Ordering::Relaxed);
                }
                return self.locked_section(&mut f);
            }
        }
        let threshold = self.config.fallback_threshold.max(1);
        let mut failures = 0u32;
        while failures < threshold {
            let Some(v1) = self.speculative_entry() else {
                break;
            };
            solero_obs::emit(|| LockEvent::now(self.obs_id(), EventKind::ElisionAttempt));
            self.config.barrier.read_entry_fence();
            let mut session = SeqSession {
                lock: self,
                v: v1,
                held: false,
                polls: 0,
            };
            let out = f(&mut session);
            if session.held {
                // Upgraded mid-section: it held the writer side and may
                // have written — release like a writer. Faults under
                // the held lock are genuine and propagate.
                self.writer_release(v1);
                return out;
            }
            match out {
                Ok(r) => {
                    self.config.barrier.read_exit_fence();
                    if self.exit_validates(v1) {
                        self.note_elided();
                        return Ok(r);
                    }
                    self.stats.elision_failure.fetch_add(1, Ordering::Relaxed);
                    self.note_abort(AbortReason::WordChangedAtExit);
                    failures += 1;
                }
                Err(Fault::UpgradeFailed) => {
                    // Figure 17, line 13: straight to fallback; the
                    // abort is booked once, as RetryExhaustedFallback.
                    self.stats.elision_failure.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Err(fault) => {
                    // Catch-block triage (§3.3): an unchanged word means
                    // the reads were consistent — the fault is genuine.
                    if !fault.is_artifact_only() && v1 == self.seq.load(Ordering::Acquire) {
                        return Err(fault);
                    }
                    self.stats
                        .speculative_faults
                        .fetch_add(1, Ordering::Relaxed);
                    self.stats.elision_failure.fetch_add(1, Ordering::Relaxed);
                    self.note_abort(if fault == Fault::Inconsistent {
                        AbortReason::AsyncRevalidationFail
                    } else {
                        AbortReason::WordChangedAtExit
                    });
                    failures += 1;
                }
            }
        }
        self.stats.fallback_acquires.fetch_add(1, Ordering::Relaxed);
        self.note_abort(AbortReason::RetryExhaustedFallback);
        solero_obs::emit(|| LockEvent::now(self.obs_id(), EventKind::FallbackAcquire));
        self.locked_section(&mut f)
    }

    /// Runs `f` holding the writer side (fallback, unelided mode, and
    /// policy skips). The closure may have written after
    /// `ensure_write`, so the release bumps conservatively.
    #[cold]
    fn locked_section<R>(
        &self,
        f: &mut impl FnMut(&mut dyn WriteIntent) -> Result<R, Fault>,
    ) -> Result<R, Fault> {
        let v = self.writer_lock();
        let mut session = SeqSession {
            lock: self,
            v,
            held: true,
            polls: 0,
        };
        let out = f(&mut session);
        self.writer_release(v);
        out
    }
}

/// The session handed to [`SeqStrategy`] section closures: a
/// [`Checkpoint`] validating against the sequence word plus the
/// in-place writer upgrade.
#[derive(Debug)]
struct SeqSession<'a, T: SeqData> {
    lock: &'a SeqLock<T>,
    /// The even word captured at entry (still the displaced value after
    /// an upgrade).
    v: u64,
    held: bool,
    polls: u64,
}

impl<T: SeqData> Checkpoint for SeqSession<'_, T> {
    fn checkpoint(&mut self) -> Result<(), Fault> {
        if self.held || self.lock.config.checkpoint_period == 0 {
            return Ok(());
        }
        self.polls += 1;
        if self.polls % self.lock.config.checkpoint_period != 0 {
            return Ok(());
        }
        self.lock
            .stats
            .async_validations
            .fetch_add(1, Ordering::Relaxed);
        if self.v == self.lock.seq.load(Ordering::Acquire) {
            Ok(())
        } else {
            Err(Fault::Inconsistent)
        }
    }

    fn is_speculative(&self) -> bool {
        !self.held
    }
}

impl<T: SeqData> WriteIntent for SeqSession<'_, T> {
    fn ensure_write(&mut self) -> Result<(), Fault> {
        if self.held {
            return Ok(());
        }
        // Figure 17 in miniature: upgrade in place iff the word is
        // still the captured even value.
        if self
            .lock
            .seq
            .compare_exchange(self.v, self.v + 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            self.held = true;
            self.lock
                .stats
                .mostly_upgrades
                .fetch_add(1, Ordering::Relaxed);
            Ok(())
        } else {
            Err(Fault::UpgradeFailed)
        }
    }
}

/// The inline-seqlock contender of the strategy fleet (`SeqLock` in
/// the benchmark tables): a [`SeqLock`] behind [`SyncStrategy`], plus
/// the typed `*_inline` fast paths for payload access without closure
/// dispatch.
///
/// # Examples
///
/// ```
/// use solero::{Fault, SeqStrategy, SyncStrategy};
///
/// let s = SeqStrategy::new([7u64, 7]);
/// assert_eq!(s.name(), "SeqLock");
/// assert_eq!(s.read_inline(), [7, 7]);
///
/// // The closure sections make it a drop-in fleet member too:
/// let sum = s
///     .read_section(|_| Ok::<_, Fault>(1 + 1))
///     .unwrap();
/// assert_eq!(sum, 2);
/// ```
#[derive(Debug)]
pub struct SeqStrategy<T: SeqData> {
    lock: SeqLock<T>,
    label: &'static str,
}

impl<T: SeqData> SeqStrategy<T> {
    /// Default configuration, labelled `SeqLock`.
    pub fn new(init: T) -> Self {
        SeqStrategy {
            lock: SeqLock::new(init),
            label: "SeqLock",
        }
    }

    /// Explicit configuration, deriving the display label the way
    /// [`SoleroStrategy::configured`](crate::SoleroStrategy::configured)
    /// does.
    pub fn configured(config: SoleroConfig, init: T) -> Self {
        let label = if config.adaptive.is_some() {
            "Adaptive-SeqLock"
        } else {
            "SeqLock"
        };
        SeqStrategy {
            lock: SeqLock::with_config(config, init),
            label,
        }
    }

    /// The underlying lock.
    pub fn lock(&self) -> &SeqLock<T> {
        &self.lock
    }

    /// Typed inline read — [`SeqLock::read_inline`] wrapped in the obs
    /// section timing, beside the closure-based
    /// [`read_section`](SyncStrategy::read_section).
    pub fn read_inline(&self) -> T {
        let t = solero_obs::section_start();
        let v = self.lock.read_inline();
        solero_obs::section_end(t, self.label, SectionKind::Read);
        v
    }

    /// Typed inline overwrite as a writing section.
    pub fn write_inline(&self, value: T) {
        let t = solero_obs::section_start();
        self.lock.write_inline(value);
        solero_obs::section_end(t, self.label, SectionKind::Write);
    }

    /// Typed inline read-modify-write as a writing section.
    pub fn update_inline(&self, f: impl FnOnce(&mut T)) {
        let t = solero_obs::section_start();
        self.lock.update_inline(f);
        solero_obs::section_end(t, self.label, SectionKind::Write);
    }
}

impl<T: SeqData> SyncStrategy for SeqStrategy<T> {
    fn name(&self) -> &'static str {
        self.label
    }

    fn write_section<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = solero_obs::section_start();
        let v = self.lock.writer_acquire();
        let r = f();
        self.lock.writer_release(v);
        solero_obs::section_end(t, self.label, SectionKind::Write);
        r
    }

    fn read_section<R>(
        &self,
        f: impl FnMut(&mut dyn WriteIntent) -> Result<R, Fault>,
    ) -> Result<R, Fault> {
        let t = solero_obs::section_start();
        let r = self.lock.run_section(f);
        solero_obs::section_end(t, self.label, SectionKind::Read);
        r
    }

    fn mostly_section<R>(
        &self,
        f: impl FnMut(&mut dyn WriteIntent) -> Result<R, Fault>,
    ) -> Result<R, Fault> {
        let t = solero_obs::section_start();
        let r = self.lock.run_section(f);
        solero_obs::section_end(t, self.label, SectionKind::Mostly);
        r
    }

    fn snapshot(&self) -> StatsSnapshot {
        self.lock.stats().snapshot()
    }

    fn reset_stats(&self) {
        self.lock.stats().reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};
    use std::sync::Arc;

    #[test]
    fn inline_round_trip_and_word_sizes() {
        let l = SeqLock::new(5u64);
        assert_eq!(l.read_inline(), 5);
        l.write_inline(9);
        assert_eq!(l.read_inline(), 9);
        assert_eq!(SeqLock::<u8>::WORDS, 1);
        assert_eq!(SeqLock::<[u64; 8]>::WORDS, 8);
        assert_eq!(SeqLock::<()>::WORDS, 0);
        let unit = SeqLock::new(());
        unit.read_inline();
        let bytes = SeqLock::new([1u8, 2, 3]);
        assert_eq!(bytes.read_inline(), [1, 2, 3]);
        bytes.update_inline(|b| b[1] = 7);
        assert_eq!(bytes.read_inline(), [1, 7, 3]);
    }

    #[test]
    fn reads_elide_and_writes_advance_the_word() {
        let l = SeqLock::new([0u64; 2]);
        let s0 = l.raw_seq();
        assert_eq!(s0 & 1, 0);
        for _ in 0..3 {
            l.read_inline();
        }
        assert_eq!(l.raw_seq(), s0, "elided reads never write the word");
        l.update_inline(|v| *v = [1, 1]);
        assert_eq!(l.raw_seq(), s0 + 2, "a write section advances by 2");
        let s = l.stats().snapshot();
        assert_eq!(s.elision_success, 3);
        assert_eq!(s.write_enters, 1);
        assert_eq!(s.write_fast, 1);
        assert_eq!(s.read_aborts, s.abort_reason_sum());
    }

    #[test]
    fn unelided_mode_restores_the_word() {
        let l = SeqLock::with_config(
            SoleroConfig::builder().unelided(true).build(),
            11u64,
        );
        let s0 = l.raw_seq();
        assert_eq!(l.read_inline(), 11);
        assert_eq!(l.raw_seq(), s0, "a locked typed read restores, not bumps");
        assert_eq!(l.stats().snapshot().elision_success, 0);
    }

    #[test]
    fn concurrent_pairs_are_never_torn() {
        let l = Arc::new(SeqLock::new([0u64; 2]));
        std::thread::scope(|sc| {
            for _ in 0..4 {
                let l = Arc::clone(&l);
                sc.spawn(move || {
                    for _ in 0..20_000 {
                        let [a, b] = l.read_inline();
                        assert_eq!(a, b, "validated inline read observed a torn pair");
                    }
                });
            }
            for _ in 0..2 {
                let l = Arc::clone(&l);
                sc.spawn(move || {
                    for _ in 0..5_000 {
                        l.update_inline(|v| {
                            v[0] += 1;
                            std::hint::spin_loop();
                            v[1] += 1;
                        });
                    }
                });
            }
        });
        assert_eq!(l.read_inline(), [10_000, 10_000]);
        let s = l.stats().snapshot();
        assert_eq!(s.read_aborts, s.abort_reason_sum(), "{s:?}");
        assert_eq!(s.fallback_acquires, s.abort_retry_exhausted, "{s:?}");
        assert_eq!(l.raw_seq() & 1, 0, "lock ends released");
    }

    #[test]
    fn strategy_runs_the_shared_workload_shape() {
        let s = SeqStrategy::new(0u64);
        let data = StdAtomicU64::new(0);
        s.write_section(|| data.store(5, StdOrdering::Release));
        let v = s
            .read_section(|ck| {
                ck.checkpoint()?;
                Ok(data.load(StdOrdering::Acquire))
            })
            .unwrap();
        assert_eq!(v, 5);
        s.mostly_section(|ck| {
            let cur = data.load(StdOrdering::Acquire);
            ck.ensure_write()?;
            data.store(cur + 1, StdOrdering::Release);
            Ok(())
        })
        .unwrap();
        assert_eq!(data.load(StdOrdering::Acquire), 6);
        let snap = s.snapshot();
        assert!(snap.total_sections() >= 2);
        assert_eq!(snap.mostly_upgrades, 1);
        assert_eq!(snap.read_aborts, snap.abort_reason_sum());
        s.reset_stats();
        assert_eq!(s.snapshot().total_sections(), 0);
    }

    #[test]
    fn mostly_upgrade_releases_like_a_writer() {
        let s = SeqStrategy::new(3u64);
        let before = s.lock().raw_seq();
        s.mostly_section(|ck| {
            ck.ensure_write()?;
            Ok(())
        })
        .unwrap();
        assert_eq!(
            s.lock().raw_seq(),
            before + 2,
            "an upgraded section must abort overlapping readers"
        );
        assert_eq!(s.snapshot().mostly_upgrades, 1);
    }

    #[test]
    fn genuine_fault_propagates_once() {
        let l = SeqLock::new(0u64);
        let mut runs = 0;
        let r: Result<(), Fault> = l.run_section(|_| {
            runs += 1;
            Err(Fault::NullPointer)
        });
        assert_eq!(r, Err(Fault::NullPointer));
        assert_eq!(runs, 1, "consistent fault must not retry");
    }

    #[test]
    fn validation_failure_retries_then_falls_back() {
        let l = Arc::new(SeqLock::new(0u64));
        let l2 = Arc::clone(&l);
        let mut attempt = 0;
        let r = l
            .run_section(|s| {
                attempt += 1;
                if attempt == 1 {
                    assert!(s.is_speculative());
                    std::thread::scope(|sc| {
                        sc.spawn(|| l2.write_inline(1));
                    });
                    Ok::<_, Fault>(attempt)
                } else {
                    assert!(!s.is_speculative(), "fallback holds the writer side");
                    Ok(attempt)
                }
            })
            .unwrap();
        assert_eq!(r, 2);
        let s = l.stats().snapshot();
        assert_eq!(s.elision_failure, 1);
        assert_eq!(s.fallback_acquires, 1);
        assert_eq!(s.abort_word_changed_at_exit, 1);
        assert_eq!(s.abort_retry_exhausted, 1);
        assert_eq!(s.read_aborts, s.abort_reason_sum());
        assert_eq!(l.raw_seq() & 1, 0, "fallback must release");
    }

    #[test]
    fn checkpoint_detects_concurrent_writer() {
        let l = Arc::new(SeqLock::with_config(
            SoleroConfig {
                checkpoint_period: 1,
                ..SoleroConfig::default()
            },
            0u64,
        ));
        let l2 = Arc::clone(&l);
        let mut attempt = 0;
        let r = l
            .run_section(|s| {
                attempt += 1;
                if attempt == 1 {
                    std::thread::scope(|sc| {
                        sc.spawn(|| l2.write_inline(1));
                    });
                    for _ in 0..1_000_000 {
                        s.checkpoint()?;
                    }
                    panic!("checkpoint failed to detect the writer");
                }
                Ok::<_, Fault>(attempt)
            })
            .unwrap();
        assert_eq!(r, 2);
        let s = l.stats().snapshot();
        assert!(s.async_validations > 0);
        assert_eq!(s.abort_async_revalidation, 1);
        assert_eq!(s.read_aborts, s.abort_reason_sum());
    }

    #[test]
    fn adaptive_policy_rides_along() {
        let s = SeqStrategy::configured(
            SoleroConfig::builder().adaptive(true).build(),
            0u64,
        );
        assert_eq!(s.name(), "Adaptive-SeqLock");
        assert!(s.lock().policy().is_some());
        for _ in 0..10 {
            assert_eq!(s.read_inline(), 0);
        }
        assert_eq!(s.snapshot().elision_success, 10);
    }

    #[test]
    fn upgrade_failure_reexecutes_under_the_lock() {
        let l = Arc::new(SeqLock::new(0u64));
        let l2 = Arc::clone(&l);
        let hits = StdAtomicU64::new(0);
        let mut attempt = 0;
        l.run_section(|s| {
            attempt += 1;
            if attempt == 1 {
                // Invalidate before the upgrade point.
                std::thread::scope(|sc| {
                    sc.spawn(|| l2.write_inline(1));
                });
            }
            s.ensure_write()?;
            hits.fetch_add(1, StdOrdering::Relaxed);
            Ok::<_, Fault>(())
        })
        .unwrap();
        assert_eq!(attempt, 2, "failed upgrade re-executes under the lock");
        assert_eq!(hits.load(StdOrdering::Relaxed), 1, "write happens once");
        assert_eq!(l.raw_seq() & 1, 0);
        let s = l.stats().snapshot();
        assert_eq!(s.fallback_acquires, 1);
        assert_eq!(s.read_aborts, s.abort_reason_sum());
    }
}
