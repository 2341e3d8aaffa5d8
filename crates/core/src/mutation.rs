//! Protocol mutations for checking the checker (only compiled under
//! `--cfg solero_mc`).
//!
//! Each mutation weakens exactly one load/store the elision protocol
//! depends on. The model checker (`solero-mc`) must *kill* every
//! mutation — find a schedule where the weakened protocol hands a
//! torn or stale result to a validated read-only section — and the
//! unmutated protocol must survive the same search. A mutation the
//! checker cannot kill would mean the scenarios are too weak to trust.
//!
//! The switch is a plain `std` atomic on purpose: flipping it must not
//! create scheduling points or happens-before edges of its own. The
//! one coverage marker here, [`take_exit_waited`], is plain for the
//! same reason.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

/// No mutation: the protocol as shipped.
pub const NONE: u8 = 0;
/// Figure 7 line 6 removed: a read-only section exits successfully
/// without re-reading the lock word, so a concurrent write section is
/// never detected.
pub const SKIP_EXIT_REREAD: u8 = 1;
/// The exit re-read is demoted from `Acquire` to `Relaxed`, allowing
/// it to observe a stale (pre-write) lock word and validate a torn
/// read.
pub const WEAK_EXIT_LOAD: u8 = 2;
/// A flat release publishes the held word's counter as it was at
/// acquisition instead of one `COMPACT_CTR_STEP` past it: the lock
/// unlocks but the version counter does not advance, so an elided
/// reader spanning the whole write section ABA-validates.
pub const STUCK_COUNTER: u8 = 3;
/// A held read section's exit restores the counter it found even after
/// the section called `ensure_write` (the session does not record the
/// write): the section wrote under the lock, but a reader that
/// captured the word before the hold validates.
pub const HELD_EXIT_IGNORES_WRITE: u8 = 4;
/// The exit wait validates on any free word instead of only on the
/// captured one: a reader that waited out a writer validates after the
/// writer's release advanced the counter.
pub const EXIT_WAIT_ANY_FREE: u8 = 5;

static ACTIVE: AtomicU8 = AtomicU8::new(NONE);

static EXIT_WAITED: AtomicBool = AtomicBool::new(false);

/// Activates `mutation` process-wide (pass [`NONE`] to restore the
/// real protocol). Intended to bracket a single checker run.
pub fn set(mutation: u8) {
    ACTIVE.store(mutation, Ordering::SeqCst);
}

/// The currently active mutation.
pub fn active() -> u8 {
    ACTIVE.load(Ordering::SeqCst)
}

/// Marks that an exit wait just validated a section: the exit re-read
/// found the captured word held over, and the word came back as the
/// captured value.
pub(crate) fn note_exit_waited() {
    EXIT_WAITED.store(true, Ordering::SeqCst);
}

/// True if an exit wait validated a section since the last call, which
/// clears the mark. A scenario that must reach that path reads it once
/// per execution; the unmutated protocol sets it nowhere else.
pub fn take_exit_waited() -> bool {
    EXIT_WAITED.swap(false, Ordering::SeqCst)
}
