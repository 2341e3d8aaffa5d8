//! Thread identity.
//!
//! The flat-lock fast paths write the owning thread's id into the lock
//! word, so ids must be non-zero (zero means "free") and fit the word's
//! tid field. The JVM hands out such ids at thread start; we do the
//! same with a process-global registry and a thread-local cache.
//!
//! Two bounds apply. [`ThreadId::allocate`] and [`ThreadId::from_raw`]
//! accept any id that fits the word's 56-bit upper field
//! ([`FIELD_MAX`]), the width a monitor id has.
//! Every lock word, the conventional lock's included, holds its owner
//! in a 20-bit tid field
//! ([`COMPACT_TID_MAX`](crate::word::COMPACT_TID_MAX) = 1 048 575), and
//! [`CompactWord::held_by`](crate::word::CompactWord::held_by) asserts
//! that bound in every build profile. Ids are never recycled, so a
//! process that starts more than about a million threads over its
//! lifetime and then takes a lock panics there. The model checker
//! comes closest: it runs every execution on fresh OS threads, and
//! each of them that takes a lock draws an id. An elided reader draws
//! none, since its read-counter stripe comes from a bitmap of its own
//! (see [`stats`](crate::stats)). Run uncapped with one test thread,
//! the heaviest mc test binary, `seqlock_kill`, passes 589 824 ids
//! and stays below 655 360, so the 20-bit field has about 1.6×
//! headroom.

use core::fmt;
use core::num::NonZeroU64;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::word::FIELD_MAX;

/// A non-zero thread id that fits the word's 56-bit upper field; a
/// lock word holds owners up to 2^20 − 1 (see the module docs).
///
/// # Examples
///
/// ```
/// use solero_runtime::thread::ThreadId;
///
/// let me = ThreadId::current();
/// assert_eq!(ThreadId::current(), me, "stable within a thread");
/// assert_ne!(me.as_u64(), 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(NonZeroU64);

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT: ThreadId = ThreadId::allocate();
}

impl ThreadId {
    /// The id of the calling thread, assigned on first use.
    #[inline]
    pub fn current() -> Self {
        CURRENT.with(|id| *id)
    }

    /// Allocates a fresh id (normally done implicitly by [`current`]).
    ///
    /// # Panics
    ///
    /// Panics if the 56-bit id space is exhausted (2^56 − 1 threads).
    ///
    /// [`current`]: ThreadId::current
    pub fn allocate() -> Self {
        let raw = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        assert!(raw <= FIELD_MAX, "thread-id space exhausted");
        ThreadId(NonZeroU64::new(raw).expect("ids start at 1"))
    }

    /// Builds an id from a raw value, for tests and word decoding.
    ///
    /// Returns `None` if `raw` is zero or exceeds the 56-bit field.
    #[inline]
    pub fn from_raw(raw: u64) -> Option<Self> {
        if raw > FIELD_MAX {
            return None;
        }
        NonZeroU64::new(raw).map(ThreadId)
    }

    /// The raw id.
    #[inline]
    pub fn as_u64(self) -> u64 {
        self.0.get()
    }
}

impl fmt::Debug for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ThreadId({})", self.0)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn current_is_stable_per_thread() {
        let a = ThreadId::current();
        let b = ThreadId::current();
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_threads_get_distinct_ids() {
        let seen = Mutex::new(HashSet::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let id = ThreadId::current();
                    assert!(seen.lock().unwrap().insert(id), "duplicate id {id}");
                });
            }
        });
        assert_eq!(seen.into_inner().unwrap().len(), 8);
    }

    #[test]
    fn from_raw_rejects_zero_and_oversize() {
        assert!(ThreadId::from_raw(0).is_none());
        assert!(ThreadId::from_raw(FIELD_MAX + 1).is_none());
        assert_eq!(ThreadId::from_raw(FIELD_MAX).unwrap().as_u64(), FIELD_MAX);
    }
}
