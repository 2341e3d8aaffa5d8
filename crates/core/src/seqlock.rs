//! Inline-data SeqLock fast path for small `Copy` read-mostly payloads.
//!
//! The SOLERO protocol validates reads of *heap* data against the lock
//! word; for tiny fixed-size payloads the pointer-chase through
//! `solero-heap` handles dominates the section. [`SeqLock`] keeps the
//! payload **inline, right after the sequence word**: the word starts a
//! cache line and payloads up to 56 bytes share it, so a read is a
//! handful of same-line loads bracketed by the §3.4 barriers, with no
//! indirection at all. Configuration and statistics sit past the
//! payload, so a reader's counter updates never touch the word's line.
//!
//! The protocol is the classic Linux-style seqlock (SNIPPETS.md
//! snippet 2) run on the crate's one read driver (`read.rs`, shared with
//! [`SoleroLock`](crate::SoleroLock)), so it has the same abort
//! taxonomy, fallback, check-points, read-mostly upgrade and adaptive
//! policy. Only the word differs:
//!
//! * the sequence word is even when free, odd while held — an odd word
//!   at entry is `locked_at_entry` once it frees up within the spin
//!   tiers, and a retry-exhausted fallback when it does not;
//! * there is no owner, recursion or monitor: a held section is a CAS of
//!   the even word to odd, contending under the history-keyed
//!   [`ContentionConfig`](solero_runtime::contention::ContentionConfig)
//!   back-off, and the displaced even word rides in the section;
//! * writers, and closure sections that hold the word (they may have
//!   upgraded and written), release with `+2`. A *typed* read that held
//!   the word — a fallback, an unelided read, a policy skip — wrote
//!   nothing and **restores the displaced even word** instead, so
//!   concurrent speculative readers spanning it may still validate.
//!
//! The payload lives in `solero_sync` atomics, so under
//! `--cfg solero_mc` every payload word load/store is a scheduling
//! point with store-buffer/stale-value semantics — the
//! writer-bump/reader-validate handshake is model-checked in
//! `crates/mc/tests/seqlock_mc.rs` under DFS, DPOR, and TSO, and the
//! driver's exit-validation mutation points die on this word too
//! (`crates/mc/tests/seqlock_kill.rs`).

use std::marker::PhantomData;
use std::mem::{align_of, size_of};

use solero_sync::atomic::{AtomicU64, Ordering};

use solero_runtime::fault::Fault;
use solero_runtime::spin::Probe;
use solero_runtime::stats::{LockStats, StatsSnapshot};
use solero_runtime::thread::ThreadId;

use crate::adaptive::AdaptivePolicy;
use crate::compact::CompactSpace;
use crate::config::SoleroConfig;
use crate::read::LockWord;
use crate::session::WriteIntent;
use crate::strategy::SyncStrategy;

/// Inline payload capacity in 64-bit words (64 bytes).
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

/// A sequence lock with **inline data**: the payload follows the
/// sequence word (for payloads up to 56 bytes, in the same cache line).
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
#[repr(C, align(64))]
pub struct SeqLock<T: SeqData> {
    /// Even = free (version), odd = held.
    seq: AtomicU64,
    /// The inline payload words; only `Self::WORDS` are used.
    data: [AtomicU64; SEQ_INLINE_WORDS],
    /// Cache-line aligned, so it starts past the payload's last line
    /// and keeps the counters below off every line a reader loads.
    policy: Option<AdaptivePolicy>,
    /// Statistics and configuration: a space of one lock.
    space: CompactSpace,
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
            policy: config.adaptive.map(AdaptivePolicy::new),
            space: CompactSpace::with_config(config),
            _payload: PhantomData,
        };
        lock.store_words(init);
        lock
    }

    /// The read driver's handle on this lock's word. `restore` picks
    /// how a held section releases: typed reads restore the displaced
    /// word, closure sections bump it.
    #[inline]
    fn handle(&self, restore: bool) -> SeqRef<'_> {
        SeqRef {
            word: &self.seq,
            space: &self.space,
            policy: self.policy.as_ref(),
            restore,
        }
    }

    /// The lock's configuration.
    pub fn config(&self) -> &SoleroConfig {
        self.space.config()
    }

    /// Per-lock statistics counters (shared taxonomy with
    /// [`SoleroLock`](crate::SoleroLock)).
    pub fn stats(&self) -> &LockStats {
        self.space.stats()
    }

    /// The adaptive elision policy, if configured.
    pub fn policy(&self) -> Option<&AdaptivePolicy> {
        self.policy.as_ref()
    }

    /// The current raw sequence word (diagnostics and tests): even =
    /// free, odd = held.
    pub fn raw_seq(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
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

    // ---- writer side --------------------------------------------------

    /// Counted writer entry for the write-section APIs. Returns the
    /// displaced even word.
    fn writer_acquire(&self) -> u64 {
        let h = self.handle(false);
        h.stats().write_enters.fetch_add(1, Ordering::Relaxed);
        match h.try_lock() {
            Some(v) => {
                h.stats().write_fast.fetch_add(1, Ordering::Relaxed);
                v
            }
            None => h.lock_slow(),
        }
    }

    /// Writing release: publish the payload and the next even word.
    fn writer_release(&self, displaced: u64) {
        self.handle(false).unlock(displaced);
    }

    // ---- typed inline fast paths --------------------------------------

    /// Reads the payload — the inline fast path: capture the even
    /// word, load the payload words, re-validate; retry and fall back
    /// per the SOLERO taxonomy.
    pub fn read_inline(&self) -> T {
        let mut value = None;
        let read = self.handle(true).read_section(|_| {
            value = Some(Self::decode(&self.load_words()));
            Ok(())
        });
        debug_assert!(read.is_ok(), "payload loads cannot fault");
        value.expect("a read section runs its body")
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
}

/// The read driver's handle on a [`SeqLock`]'s sequence word. A held
/// section's `v` is the even word it displaced.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SeqRef<'a> {
    word: &'a AtomicU64,
    space: &'a CompactSpace,
    policy: Option<&'a AdaptivePolicy>,
    /// True if a held section restores the displaced word on exit (a
    /// typed read, which wrote nothing); false if it bumps it by 2 like
    /// a writer (a closure section, which may have upgraded and
    /// written).
    restore: bool,
}

impl SeqRef<'_> {
    /// One even→odd CAS attempt; the displaced even word on success.
    #[inline]
    fn try_lock(self) -> Option<u64> {
        let v = self.word.load(Ordering::Relaxed);
        (v & 1 == 0
            && self
                .word
                .compare_exchange(v, v + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok())
        .then_some(v)
    }

    /// Uncounted acquisition: the held sections of the read driver.
    fn lock(self) -> u64 {
        self.try_lock().unwrap_or_else(|| self.lock_slow())
    }

    /// Contended acquisition under the history-keyed back-off.
    #[cold]
    fn lock_slow(self) -> u64 {
        loop {
            let got = self.config().contention.run_observed(
                || match self.try_lock() {
                    Some(v) => Probe::Done(v),
                    None => Probe::Retry,
                },
                |_| {
                    self.stats()
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

    /// Writing release: the next even word.
    fn unlock(self, displaced: u64) {
        self.word
            .store(displaced.wrapping_add(2), Ordering::Release);
    }

    /// Releases a held read section that displaced `v`.
    fn held_exit(self, v: u64) {
        if self.restore {
            self.word.store(v, Ordering::Release);
        } else {
            self.unlock(v);
        }
    }
}

impl<'a> LockWord<'a> for SeqRef<'a> {
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
        raw & 1 == 0
    }

    /// Figure 8-style bounded wait for an even word; a wait that
    /// exhausts the spin tiers falls back.
    #[cold]
    fn slow_read_enter(self, _tid: ThreadId) -> Option<(u64, bool)> {
        self.stats()
            .read_slow_enters
            .fetch_add(1, Ordering::Relaxed);
        let v = self.config().spin.run(|| {
            let v = self.word.load(Ordering::Acquire);
            if v & 1 == 0 {
                Probe::Done(v)
            } else {
                Probe::Retry
            }
        })?;
        Some((v, false))
    }

    /// No owner to consult: only a held section releases.
    fn slow_read_exit(self, _tid: ThreadId, v: u64, held: bool) -> bool {
        if held {
            self.held_exit(v);
        }
        held
    }

    fn fallback_acquire(self, _tid: ThreadId) -> u64 {
        self.lock()
    }

    fn acquire_unelided(self, _tid: ThreadId, _forfeited: bool) -> u64 {
        self.lock()
    }

    fn release_unelided(self, _tid: ThreadId, v: u64) {
        self.held_exit(v);
    }

    fn try_upgrade(self, v: u64, _tid: ThreadId) -> bool {
        self.word
            .compare_exchange(v, v + 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }
}

/// The inline-seqlock contender of the strategy fleet (`SeqLock` in
/// the benchmark tables): a [`SeqLock`] behind [`SyncStrategy`]. The
/// lock's typed `*_inline` fast paths stay reachable through
/// [`lock`](SeqStrategy::lock) for payload access without closure
/// dispatch.
///
/// # Examples
///
/// ```
/// use solero::{Fault, SeqStrategy, SyncStrategy};
///
/// let s = SeqStrategy::new([7u64, 7]);
/// assert_eq!(s.name(), "SeqLock");
/// assert_eq!(s.lock().read_inline(), [7, 7]);
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
}

impl<T: SeqData> SyncStrategy for SeqStrategy<T> {
    fn name(&self) -> &'static str {
        self.label
    }

    fn write_section<R>(&self, f: impl FnOnce() -> R) -> R {
        let v = self.lock.writer_acquire();
        let r = f();
        self.lock.writer_release(v);
        r
    }

    fn read_section<R>(
        &self,
        mut f: impl FnMut(&mut dyn WriteIntent) -> Result<R, Fault>,
    ) -> Result<R, Fault> {
        self.lock.handle(false).read_section(|s| f(s))
    }

    fn mostly_section<R>(
        &self,
        mut f: impl FnMut(&mut dyn WriteIntent) -> Result<R, Fault>,
    ) -> Result<R, Fault> {
        self.lock.handle(false).read_section(|s| f(s))
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
    use crate::session::Checkpoint;
    use std::mem::offset_of;
    use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};
    use std::sync::Arc;

    #[test]
    fn word_line_holds_the_payload_and_no_counters() {
        type L = SeqLock<u64>;
        let word = offset_of!(L, seq);
        assert_eq!(align_of::<L>() % 64, 0, "the lock starts a cache line");
        assert_eq!(word % 64, 0, "the word starts a cache line");
        assert_eq!(
            offset_of!(L, data),
            word + size_of::<AtomicU64>(),
            "the payload follows the word"
        );
        let l = L::new(0);
        let stats = l.stats() as *const LockStats as usize - &l as *const L as usize;
        let line = word..word + 64;
        assert!(
            stats >= line.end || stats + size_of::<LockStats>() <= line.start,
            "LockStats at {stats}..{} shares the word's line {line:?}",
            stats + size_of::<LockStats>()
        );
        // A 64-byte payload's last word spills onto the next line; the
        // counters stay off that one too.
        let payload_end = offset_of!(L, data) + size_of::<[AtomicU64; SEQ_INLINE_WORDS]>();
        assert!(
            stats >= payload_end.next_multiple_of(64),
            "LockStats at {stats} shares a line with the payload (ends at {payload_end})"
        );
    }

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
        let r: Result<(), Fault> = l.handle(false).read_section(|_| {
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
            .handle(false)
            .read_section(|s| {
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
            .handle(false)
            .read_section(|s| {
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
            assert_eq!(s.lock().read_inline(), 0);
        }
        assert_eq!(s.snapshot().elision_success, 10);
    }

    #[test]
    fn upgrade_failure_reexecutes_under_the_lock() {
        let l = Arc::new(SeqLock::new(0u64));
        let l2 = Arc::clone(&l);
        let hits = StdAtomicU64::new(0);
        let mut attempt = 0;
        l.handle(false)
            .read_section(|s| {
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
