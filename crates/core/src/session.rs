//! Read-session contexts handed to critical-section closures.
//!
//! A read-only critical section under SOLERO may execute
//! **speculatively** — without holding the lock — so the code inside it
//! must (a) tolerate faults, returning `Result<_, Fault>` rather than
//! panicking, and (b) poll a validation check-point at loop back-edges,
//! which is how the paper's JIT breaks infinite loops caused by
//! inconsistent reads (§3.3). [`ReadSession`] carries the paper's *local
//! lock variable* and implements those check-points; [`MostlySession`]
//! adds the Figure 17 in-place upgrade for read-mostly sections.

use std::marker::PhantomData;

use solero_sync::atomic::Ordering;

use solero_runtime::events::EventPoll;
use solero_runtime::fault::Fault;
use solero_runtime::thread::ThreadId;

use crate::compact::CompactRef;
use crate::read::LockWord;

/// Validation polling inside critical sections, independent of the lock
/// implementation. Lock-based strategies use [`NullCheckpoint`] (always
/// consistent); SOLERO uses [`ReadSession`].
pub trait Checkpoint {
    /// Polls the validation check-point. Under speculation this may
    /// report [`Fault::Inconsistent`], which aborts and re-executes the
    /// section; under a held lock it always succeeds.
    ///
    /// Call this at loop back-edges (the paper's JIT inserts the check
    /// at back-edges and method entries).
    ///
    /// # Errors
    ///
    /// [`Fault::Inconsistent`] when the lock word changed under a
    /// speculative section.
    fn checkpoint(&mut self) -> Result<(), Fault>;

    /// True if the section is currently running without holding the lock.
    fn is_speculative(&self) -> bool;
}

/// A [`Checkpoint`] that never fails — for sections running under a
/// conventionally held lock.
///
/// # Examples
///
/// ```
/// use solero::{Checkpoint, NullCheckpoint};
///
/// let mut ck = NullCheckpoint;
/// assert!(ck.checkpoint().is_ok());
/// assert!(!ck.is_speculative());
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct NullCheckpoint;

impl Checkpoint for NullCheckpoint {
    #[inline]
    fn checkpoint(&mut self) -> Result<(), Fault> {
        Ok(())
    }

    #[inline]
    fn is_speculative(&self) -> bool {
        false
    }
}

/// Whether a read attempt holds the lock, and whether it wrote: what
/// its exit must do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hold {
    /// Running without the lock: the exit validates.
    Speculative,
    /// Holding the lock (recursion, fat mode, fallback, unelided or
    /// forfeited) and nothing written: the exit republishes the
    /// counter it found, so speculative readers spanning the hold may
    /// still validate.
    Held,
    /// Holding the lock after `ensure_write` (an upgrade, or a held
    /// section that declared a write): the exit advances the counter
    /// as a writer's does.
    Wrote,
}

/// Context of one execution attempt of a read-only critical section.
///
/// Obtained through [`SoleroLock::read_only`](crate::SoleroLock::read_only);
/// holds the local lock variable `v` captured at entry and whether the
/// attempt runs speculatively or under the (recursively/fat/fallback-)
/// held lock. The second parameter is the lock word the section runs
/// on; every section a caller can name runs on the SOLERO word.
#[derive(Debug)]
pub struct ReadSession<'a, W = CompactRef<'a>> {
    /// The protocol handle of the lock the section runs under.
    pub(crate) lock: W,
    /// The local lock variable (Figure 7's `v`).
    pub(crate) v: u64,
    /// Whether this attempt holds the lock (then validation is
    /// unnecessary) and whether it wrote.
    pub(crate) held: Hold,
    pub(crate) poll: EventPoll,
    pub(crate) _word: PhantomData<&'a ()>,
}

impl<'a, W: LockWord<'a>> ReadSession<'a, W> {
    pub(crate) fn new(lock: W, v: u64, held: Hold) -> Self {
        ReadSession {
            lock,
            v,
            held,
            poll: EventPoll::new(lock.config().checkpoint_period),
            _word: PhantomData,
        }
    }

    /// The captured lock value (diagnostics; `0` under a held entry on
    /// the SOLERO word).
    pub fn local_lock_value(&self) -> u64 {
        self.v
    }

    /// Forces a validation check regardless of pending events.
    ///
    /// # Errors
    ///
    /// [`Fault::Inconsistent`] when the lock word changed under a
    /// speculative section.
    pub fn validate_now(&self) -> Result<(), Fault> {
        if self.held != Hold::Speculative {
            return Ok(());
        }
        if self.lock.word().load(Ordering::Acquire) == self.v {
            Ok(())
        } else {
            Err(Fault::Inconsistent)
        }
    }

    /// Figure 17's upgrade: make the section hold the lock before its
    /// first write. On success all reads so far are validated (the CAS
    /// only succeeds if the word still equals the captured value). A
    /// section that already holds the lock is marked as writing, so its
    /// exit advances the counter.
    ///
    /// Under `--cfg solero_mc` the mark is a mutation point the model
    /// checker must kill (see `crate::mutation`), for every word.
    ///
    /// # Errors
    ///
    /// [`Fault::UpgradeFailed`] when the word changed and the section
    /// must re-execute while holding the lock.
    pub(crate) fn ensure_write(&mut self) -> Result<(), Fault> {
        if self.held == Hold::Speculative {
            if !self.lock.try_upgrade(self.v, ThreadId::current()) {
                return Err(Fault::UpgradeFailed);
            }
            self.lock
                .stats()
                .mostly_upgrades
                .fetch_add(1, Ordering::Relaxed);
        }
        self.held = Hold::Wrote;
        #[cfg(solero_mc)]
        if crate::mutation::active() == crate::mutation::HELD_EXIT_IGNORES_WRITE {
            self.held = Hold::Held;
        }
        Ok(())
    }
}

impl<'a, W: LockWord<'a>> Checkpoint for ReadSession<'a, W> {
    #[inline]
    fn checkpoint(&mut self) -> Result<(), Fault> {
        if self.held != Hold::Speculative {
            return Ok(());
        }
        if self.poll.should_validate() {
            self.lock.stats().note_async_validation();
            return self.validate_now();
        }
        Ok(())
    }

    #[inline]
    fn is_speculative(&self) -> bool {
        self.held == Hold::Speculative
    }
}

impl<'a, W: LockWord<'a>> WriteIntent for ReadSession<'a, W> {
    #[inline]
    fn ensure_write(&mut self) -> Result<(), Fault> {
        ReadSession::ensure_write(self)
    }
}

/// Declares that a section context can be asked for write permission
/// before the first write of a read-mostly section.
pub trait WriteIntent: Checkpoint {
    /// Ensures the section holds the lock from this point on.
    ///
    /// # Errors
    ///
    /// [`Fault::UpgradeFailed`] when speculation cannot be upgraded and
    /// the section must re-execute holding the lock.
    fn ensure_write(&mut self) -> Result<(), Fault>;
}

impl WriteIntent for NullCheckpoint {
    #[inline]
    fn ensure_write(&mut self) -> Result<(), Fault> {
        Ok(())
    }
}

/// Context of one execution attempt of a **read-mostly** critical
/// section (the paper's §5 extension). Wraps [`ReadSession`] and exposes
/// the in-place upgrade.
#[derive(Debug)]
pub struct MostlySession<'a>(pub(crate) ReadSession<'a>);

impl<'a> MostlySession<'a> {
    /// The captured lock value (diagnostics).
    pub fn local_lock_value(&self) -> u64 {
        self.0.local_lock_value()
    }

    /// True once the section holds the lock.
    pub fn holds_lock(&self) -> bool {
        self.0.held != Hold::Speculative
    }
}

impl Checkpoint for MostlySession<'_> {
    #[inline]
    fn checkpoint(&mut self) -> Result<(), Fault> {
        self.0.checkpoint()
    }

    #[inline]
    fn is_speculative(&self) -> bool {
        self.0.is_speculative()
    }
}

impl WriteIntent for MostlySession<'_> {
    #[inline]
    fn ensure_write(&mut self) -> Result<(), Fault> {
        self.0.ensure_write()
    }
}
