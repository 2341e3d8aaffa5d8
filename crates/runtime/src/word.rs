//! Lock-word layouts.
//!
//! The paper uses two flat-lock word layouts (its Figures 1 and 5), both
//! 64 bits wide in the evaluated JVM:
//!
//! ```text
//! Conventional (tasuki) flat lock            SOLERO flat lock
//! ┌──────────────┬──────────┬───┬───┐        ┌──────────────┬─────────┬───┬───┬───┐
//! │ tid (56)     │ rec (6)  │FLC│INF│        │ ctr/tid (56) │ rec (5) │LCK│FLC│INF│
//! └──────────────┴──────────┴───┴───┘        └──────────────┴─────────┴───┴───┴───┘
//!  63           8 7        2  1   0           63           8 7       3  2   1   0
//! ```
//!
//! * `INF` — inflation bit: the word holds a fat-lock (OS monitor) id.
//! * `FLC` — flat-lock-contention bit: a contender is waiting on the
//!   monitor for the flat lock to be released.
//! * `LCK` — (SOLERO only) the lock bit: the flat lock is held and the
//!   upper field is a thread id; when clear **and** `FLC`/`INF` are clear
//!   the upper field is the sequence counter.
//! * `rec` — recursion count of the flat-lock owner.
//!
//! [`ConvWord`] implements Figure 1 for the tasuki baseline. SOLERO
//! locks keep Figure 5's low byte but not its upper field: there the
//! counter and the owner's id share one field, so the acquiring CAS
//! overwrites the counter and the owner must carry it elsewhere (the
//! paper's *local lock variable*) until release, or until inflation
//! needs it. [`CompactWord`] adopts the Compact Java Monitors header
//! (Dice & Kogan, arXiv 2102.04188) instead: the counter and thread-id
//! fields coexist, so the word is self-contained across every
//! transition:
//!
//! ```text
//! SOLERO flat lock (compact)
//! ┌──────────────┬──────────────┬─────────┬───┬───┬───┐
//! │ ctr (36)     │ tid (20)     │ rec (5) │LCK│FLC│INF│
//! └──────────────┴──────────────┴─────────┴───┴───┴───┘
//!  63          28 27           8 7       3  2   1   0
//! ```
//!
//! While held, the displaced sequence counter stays **in the word**
//! (bits 28..=63) alongside the owner's id, so a lock is exactly eight
//! bytes and no release or inflation path needs a side cell. While
//! inflated, the word is a monitor id (bits 8..=63) plus `INF`, and all
//! contended/wait-set state lives in the global hashed
//! [`MonitorTable`](crate::osmonitor::MonitorTable).
//!
//! Both newtypes wrap raw `u64` values and are deliberately `Copy`
//! value types — the atomic cell holding a word lives in the lock
//! implementations.

use core::fmt;

use crate::thread::ThreadId;

/// Bit 0: the lock is inflated; the upper field holds a monitor id.
pub const INFLATION_BIT: u64 = 0x1;
/// Bit 1: contention was detected on the flat lock.
pub const FLC_BIT: u64 = 0x2;
/// Bit 2 (SOLERO): the flat lock is held.
pub const LOCK_BIT: u64 = 0x4;

/// Shift of the upper field (thread id or monitor id).
pub const FIELD_SHIFT: u32 = 8;
/// Width of the upper field in bits.
pub const FIELD_BITS: u32 = 64 - FIELD_SHIFT;
/// Maximum value representable in the upper (thread-id / monitor-id)
/// field.
pub const FIELD_MAX: u64 = (1 << FIELD_BITS) - 1;

/// Conventional layout: recursion occupies bits 2..=7, step `0x4`.
pub const CONV_RECURSION_STEP: u64 = 0x4;
/// Conventional recursion mask (six bits).
pub const CONV_RECURSION_MASK: u64 = 0xfc;
/// Maximum conventional recursion depth before the count saturates.
pub const CONV_RECURSION_MAX: u64 = CONV_RECURSION_MASK / CONV_RECURSION_STEP;

/// SOLERO layout: recursion occupies bits 3..=7, step `0x8`.
pub const SOLERO_RECURSION_STEP: u64 = 0x8;
/// SOLERO recursion mask (five bits).
pub const SOLERO_RECURSION_MASK: u64 = 0xf8;
/// Maximum SOLERO recursion depth before the count saturates.
pub const SOLERO_RECURSION_MAX: u64 = SOLERO_RECURSION_MASK / SOLERO_RECURSION_STEP;

/// Mask of the three low bits the SOLERO fast paths test (`v & 0x7`).
pub const SOLERO_FAST_MASK: u64 = INFLATION_BIT | FLC_BIT | LOCK_BIT;
/// Mask of all low (non-field) bits (`v & 0xff`).
pub const LOW_MASK: u64 = 0xff;

/// A conventional (tasuki) flat-lock word — the paper's Figure 1.
///
/// The word is zero when the lock is free. While held it contains the
/// owner's thread id in the upper field plus a recursion count; while
/// inflated it contains a monitor id and the inflation bit.
///
/// # Examples
///
/// ```
/// use solero_runtime::word::ConvWord;
/// use solero_runtime::thread::ThreadId;
///
/// let tid = ThreadId::from_raw(7).unwrap();
/// let held = ConvWord::held_by(tid);
/// assert!(held.is_held_flat());
/// assert_eq!(held.tid(), Some(tid));
/// assert_eq!(held.recursion(), 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ConvWord(pub u64);

impl ConvWord {
    /// The free (zero) word.
    pub const FREE: ConvWord = ConvWord(0);

    /// Word representing a first (non-recursive) acquisition by `tid`.
    #[inline]
    pub fn held_by(tid: ThreadId) -> Self {
        ConvWord(tid.field_bits())
    }

    /// Word representing inflation to monitor `monitor_id`.
    #[inline]
    pub fn inflated(monitor_id: u64) -> Self {
        debug_assert!(monitor_id <= FIELD_MAX);
        ConvWord((monitor_id << FIELD_SHIFT) | INFLATION_BIT)
    }

    /// Raw value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// True if the word is exactly zero (free, no FLC pending).
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// True if the inflation bit is set.
    #[inline]
    pub fn is_inflated(self) -> bool {
        self.0 & INFLATION_BIT != 0
    }

    /// True if the FLC (flat-lock contention) bit is set.
    #[inline]
    pub fn has_flc(self) -> bool {
        self.0 & FLC_BIT != 0
    }

    /// True if the flat lock is held by some thread (not inflated, tid set).
    #[inline]
    pub fn is_held_flat(self) -> bool {
        !self.is_inflated() && (self.0 >> FIELD_SHIFT) != 0
    }

    /// The owner thread id, if held flat.
    #[inline]
    pub fn tid(self) -> Option<ThreadId> {
        if self.is_held_flat() {
            ThreadId::from_raw(self.0 >> FIELD_SHIFT)
        } else {
            None
        }
    }

    /// Monitor id, if inflated.
    #[inline]
    pub fn monitor_id(self) -> Option<u64> {
        if self.is_inflated() {
            Some(self.0 >> FIELD_SHIFT)
        } else {
            None
        }
    }

    /// Recursion count of the flat owner.
    #[inline]
    pub fn recursion(self) -> u64 {
        (self.0 & CONV_RECURSION_MASK) / CONV_RECURSION_STEP
    }

    /// Word with the recursion count incremented by one.
    ///
    /// # Panics
    ///
    /// Panics (in every build profile) if the count is already at
    /// [`CONV_RECURSION_MAX`]: one more step would carry into the
    /// tid/monitor-id field and silently corrupt the word. The lock
    /// implementations inflate before saturation, so a panic here means
    /// a caller bypassed that contract.
    #[inline]
    pub fn recurse(self) -> Self {
        assert!(
            self.recursion() < CONV_RECURSION_MAX,
            "ConvWord recursion overflow: depth {} would carry into the tid field",
            self.recursion()
        );
        ConvWord(self.0 + CONV_RECURSION_STEP)
    }

    /// Word with the recursion count decremented by one.
    ///
    /// # Panics
    ///
    /// Panics (in every build profile) if the count is already zero:
    /// the decrement would borrow out of the recursion bits.
    #[inline]
    pub fn unrecurse(self) -> Self {
        assert!(
            self.recursion() > 0,
            "ConvWord recursion underflow: unrecurse on a non-recursed word"
        );
        ConvWord(self.0 - CONV_RECURSION_STEP)
    }

    /// Word with the FLC bit set.
    #[inline]
    pub fn with_flc(self) -> Self {
        ConvWord(self.0 | FLC_BIT)
    }

    /// Word with the FLC bit cleared.
    #[inline]
    pub fn without_flc(self) -> Self {
        ConvWord(self.0 & !FLC_BIT)
    }

    /// True if the fast-path release test passes (`(w & 0xff) == 0`):
    /// not inflated, no contention flag, recursion zero.
    #[inline]
    pub fn fast_releasable(self) -> bool {
        self.0 & LOW_MASK == 0
    }
}

impl fmt::Debug for ConvWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConvWord")
            .field("raw", &format_args!("{:#x}", self.0))
            .field("inflated", &self.is_inflated())
            .field("flc", &self.has_flc())
            .field("recursion", &self.recursion())
            .field("field", &(self.0 >> FIELD_SHIFT))
            .finish()
    }
}

impl fmt::Display for ConvWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_inflated() {
            write!(f, "inflated(monitor={})", self.0 >> FIELD_SHIFT)
        } else if self.is_held_flat() {
            write!(
                f,
                "flat(tid={}, rec={}{})",
                self.0 >> FIELD_SHIFT,
                self.recursion(),
                if self.has_flc() { ", flc" } else { "" }
            )
        } else {
            write!(f, "free{}", if self.has_flc() { "(flc)" } else { "" })
        }
    }
}

impl fmt::LowerHex for ConvWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// Shift of the compact counter field (bits 28..=63).
pub const COMPACT_CTR_SHIFT: u32 = 28;
/// Increment applied to the compact counter on each release.
pub const COMPACT_CTR_STEP: u64 = 1 << COMPACT_CTR_SHIFT;
/// Mask selecting the compact counter bits.
pub const COMPACT_CTR_MASK: u64 = u64::MAX << COMPACT_CTR_SHIFT;
/// Width of the compact counter in bits.
pub const COMPACT_CTR_BITS: u32 = 64 - COMPACT_CTR_SHIFT;
/// Maximum compact counter value before it wraps off bit 63.
pub const COMPACT_CTR_MAX: u64 = (1 << COMPACT_CTR_BITS) - 1;
/// Shift of the compact thread-id field (bits 8..=27).
pub const COMPACT_TID_SHIFT: u32 = 8;
/// Width of the compact thread-id field in bits.
pub const COMPACT_TID_BITS: u32 = 20;
/// Maximum thread id representable in a compact word.
pub const COMPACT_TID_MAX: u64 = (1 << COMPACT_TID_BITS) - 1;
/// Mask selecting the compact thread-id bits.
pub const COMPACT_TID_MASK: u64 = COMPACT_TID_MAX << COMPACT_TID_SHIFT;

/// The SOLERO flat-lock word in the Compact Java Monitors layout
/// (arXiv 2102.04188).
///
/// Unlike the paper's Figure 5 word, the counter and thread-id fields
/// coexist: bits 28..=63 are **always** the sequence counter while the
/// word is thin (free or held), and bits 8..=27 are the owner's thread
/// id while held. The displaced counter therefore travels inside the
/// word across acquire/release, so a lock needs no side cell for it and
/// is exactly eight bytes embedded in an object.
///
/// While inflated the whole upper field (bits 8..=63) is a monitor id —
/// the id is load-bearing: fat-ownership claims require the in-word id
/// to match the monitor resolved from the global table, which is what
/// makes deflation + table removal safe against racing contenders.
///
/// The 36-bit counter wraps off bit 63 roughly every 64 billion writes
/// per lock; an elided reader would have to sleep across an exact
/// multiple of 2^36 writes to mis-validate (Figure 5's 56-bit field
/// puts that bound at 2^56). The 20-bit tid field holds ids up to
/// [`COMPACT_TID_MAX`]; [`held_by`](Self::held_by) asserts the bound in
/// every build profile.
///
/// # Examples
///
/// ```
/// use solero_runtime::word::CompactWord;
/// use solero_runtime::thread::ThreadId;
///
/// let free = CompactWord::with_counter(41);
/// assert!(free.is_elidable());
/// let tid = ThreadId::from_raw(9).unwrap();
/// let held = CompactWord::held_by(free, tid);
/// assert_eq!(held.counter(), Some(41)); // counter rides along
/// assert_eq!(held.tid(), Some(tid));
/// let released = held.release_word();
/// assert_eq!(released.counter(), Some(42));
/// assert!(released.is_elidable());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CompactWord(pub u64);

impl CompactWord {
    /// The initial word: counter zero, all flag bits clear.
    pub const INIT: CompactWord = CompactWord(0);

    /// Word holding counter value `c` with all flag bits clear.
    #[inline]
    pub fn with_counter(c: u64) -> Self {
        debug_assert!(c <= COMPACT_CTR_MAX);
        CompactWord(c << COMPACT_CTR_SHIFT)
    }

    /// Word representing a first acquisition by `tid`, preserving the
    /// counter of the pre-acquisition word `v1`.
    ///
    /// # Panics
    ///
    /// Panics (in every build profile) if `tid` exceeds
    /// [`COMPACT_TID_MAX`]: a wider id would corrupt the counter field.
    #[inline]
    pub fn held_by(v1: CompactWord, tid: ThreadId) -> Self {
        assert!(
            tid.as_u64() <= COMPACT_TID_MAX,
            "thread id {} exceeds the compact word's 20-bit tid field",
            tid.as_u64()
        );
        CompactWord((v1.0 & COMPACT_CTR_MASK) | (tid.as_u64() << COMPACT_TID_SHIFT) | LOCK_BIT)
    }

    /// Word representing inflation to monitor `monitor_id`.
    #[inline]
    pub fn inflated(monitor_id: u64) -> Self {
        debug_assert!(monitor_id <= FIELD_MAX);
        CompactWord((monitor_id << FIELD_SHIFT) | INFLATION_BIT)
    }

    /// Raw value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// True if a read-only section may proceed optimistically:
    /// `(w & 0x7) == 0` — not held, not inflated, no pending contention.
    #[inline]
    pub fn is_elidable(self) -> bool {
        self.0 & SOLERO_FAST_MASK == 0
    }

    /// True if the lock bit is set (flat lock held).
    #[inline]
    pub fn is_held_flat(self) -> bool {
        self.0 & LOCK_BIT != 0
    }

    /// True if the inflation bit is set.
    #[inline]
    pub fn is_inflated(self) -> bool {
        self.0 & INFLATION_BIT != 0
    }

    /// True if the FLC bit is set.
    #[inline]
    pub fn has_flc(self) -> bool {
        self.0 & FLC_BIT != 0
    }

    /// The sequence counter. Present in **every** thin state (free,
    /// held, FLC pending) — that is the point of the layout; absent only
    /// while inflated, when the bits belong to the monitor id.
    #[inline]
    pub fn counter(self) -> Option<u64> {
        if self.is_inflated() {
            None
        } else {
            Some(self.0 >> COMPACT_CTR_SHIFT)
        }
    }

    /// The owner thread id, if held flat.
    #[inline]
    pub fn tid(self) -> Option<ThreadId> {
        if self.is_held_flat() && !self.is_inflated() {
            ThreadId::from_raw((self.0 & COMPACT_TID_MASK) >> COMPACT_TID_SHIFT)
        } else {
            None
        }
    }

    /// Monitor id, if inflated.
    #[inline]
    pub fn monitor_id(self) -> Option<u64> {
        if self.is_inflated() {
            Some(self.0 >> FIELD_SHIFT)
        } else {
            None
        }
    }

    /// Recursion count of the flat owner (Figure 5's bits 3..=7).
    #[inline]
    pub fn recursion(self) -> u64 {
        (self.0 & SOLERO_RECURSION_MASK) / SOLERO_RECURSION_STEP
    }

    /// Word with the recursion count incremented (`+ 0x8`).
    ///
    /// # Panics
    ///
    /// Panics (in every build profile) if the count is already at
    /// [`SOLERO_RECURSION_MAX`]: one more step would carry into the
    /// tid field. The lock implementations inflate before saturation.
    #[inline]
    pub fn recurse(self) -> Self {
        assert!(
            self.recursion() < SOLERO_RECURSION_MAX,
            "CompactWord recursion overflow: depth {} would carry into the tid field",
            self.recursion()
        );
        CompactWord(self.0 + SOLERO_RECURSION_STEP)
    }

    /// Word with the recursion count decremented (`- 0x8`).
    ///
    /// # Panics
    ///
    /// Panics (in every build profile) if the count is already zero.
    #[inline]
    pub fn unrecurse(self) -> Self {
        assert!(
            self.recursion() > 0,
            "CompactWord recursion underflow: unrecurse on a non-recursed word"
        );
        CompactWord(self.0 - SOLERO_RECURSION_STEP)
    }

    /// True if the fast-path release test passes
    /// (`(w & 0xff) == LOCK_BIT`): held, recursion zero, no FLC, thin.
    #[inline]
    pub fn fast_releasable(self) -> bool {
        self.0 & LOW_MASK == LOCK_BIT
    }

    /// The free word a release publishes: keep the counter bits, drop
    /// the tid/flag bits, advance the counter one step. Works from any
    /// thin word (held, or free-with-FLC when computing a displaced
    /// value), because the counter occupies the same bits in all of
    /// them. A carry off bit 63 vanishes — the counter wraps inside its
    /// own field.
    #[inline]
    pub fn release_word(self) -> Self {
        debug_assert!(!self.is_inflated());
        CompactWord((self.0 & COMPACT_CTR_MASK).wrapping_add(COMPACT_CTR_STEP))
    }

    /// Word with the FLC bit set.
    #[inline]
    pub fn with_flc(self) -> Self {
        CompactWord(self.0 | FLC_BIT)
    }

    /// Word with the FLC bit cleared.
    #[inline]
    pub fn without_flc(self) -> Self {
        CompactWord(self.0 & !FLC_BIT)
    }

    /// True if the slow read path must go to the monitor
    /// (`(v & 0x3) != 0`): the lock is inflated or contended rather
    /// than merely held.
    #[inline]
    pub fn needs_monitor(self) -> bool {
        self.0 & (INFLATION_BIT | FLC_BIT) != 0
    }
}

impl fmt::Debug for CompactWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompactWord")
            .field("raw", &format_args!("{:#x}", self.0))
            .field("inflated", &self.is_inflated())
            .field("flc", &self.has_flc())
            .field("held", &self.is_held_flat())
            .field("recursion", &self.recursion())
            .field("counter", &(self.0 >> COMPACT_CTR_SHIFT))
            .field("tid_bits", &((self.0 & COMPACT_TID_MASK) >> COMPACT_TID_SHIFT))
            .finish()
    }
}

impl fmt::Display for CompactWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_inflated() {
            write!(f, "inflated(monitor={})", self.0 >> FIELD_SHIFT)
        } else if self.is_held_flat() {
            write!(
                f,
                "held(tid={}, ctr={}, rec={}{})",
                (self.0 & COMPACT_TID_MASK) >> COMPACT_TID_SHIFT,
                self.0 >> COMPACT_CTR_SHIFT,
                self.recursion(),
                if self.has_flc() { ", flc" } else { "" }
            )
        } else {
            write!(
                f,
                "free(ctr={}{})",
                self.0 >> COMPACT_CTR_SHIFT,
                if self.has_flc() { ", flc" } else { "" }
            )
        }
    }
}

impl fmt::LowerHex for CompactWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(n: u64) -> ThreadId {
        ThreadId::from_raw(n).unwrap()
    }

    #[test]
    fn conv_free_is_zero() {
        assert!(ConvWord::FREE.is_zero());
        assert!(!ConvWord::FREE.is_inflated());
        assert!(!ConvWord::FREE.is_held_flat());
        assert!(ConvWord::FREE.fast_releasable());
        assert_eq!(ConvWord::FREE.tid(), None);
    }

    #[test]
    fn conv_held_roundtrip() {
        let w = ConvWord::held_by(tid(123));
        assert!(w.is_held_flat());
        assert_eq!(w.tid(), Some(tid(123)));
        assert_eq!(w.recursion(), 0);
        assert!(w.fast_releasable() == false || w.0 & LOW_MASK == 0);
    }

    #[test]
    fn conv_recursion_steps() {
        let mut w = ConvWord::held_by(tid(5));
        for depth in 1..=CONV_RECURSION_MAX {
            w = w.recurse();
            assert_eq!(w.recursion(), depth);
            assert_eq!(w.tid(), Some(tid(5)), "tid preserved at depth {depth}");
        }
        for depth in (0..CONV_RECURSION_MAX).rev() {
            w = w.unrecurse();
            assert_eq!(w.recursion(), depth);
        }
        assert!(w.0 & LOW_MASK == 0);
    }

    /// Nests to the documented maximum and verifies the adjacent tid
    /// field is never disturbed. Runs identically in debug and release:
    /// the bound is a real `assert!`, not a `debug_assert!`.
    #[test]
    fn conv_recursion_saturates_without_tid_corruption() {
        let mut w = ConvWord::held_by(tid(200));
        for _ in 0..CONV_RECURSION_MAX {
            w = w.recurse();
        }
        assert_eq!(w.recursion(), CONV_RECURSION_MAX);
        assert_eq!(w.tid(), Some(tid(200)), "tid intact at saturation");
    }

    #[test]
    #[should_panic(expected = "ConvWord recursion overflow")]
    fn conv_recursion_overflow_panics_in_release() {
        let mut w = ConvWord::held_by(tid(1));
        for _ in 0..CONV_RECURSION_MAX {
            w = w.recurse();
        }
        // Depth 64 would carry into the tid bits; must panic even with
        // debug assertions compiled out.
        let _ = w.recurse();
    }

    #[test]
    #[should_panic(expected = "ConvWord recursion underflow")]
    fn conv_unrecurse_underflow_panics_in_release() {
        let _ = ConvWord::held_by(tid(1)).unrecurse();
    }

    #[test]
    fn conv_inflated_monitor_id() {
        let w = ConvWord::inflated(99);
        assert!(w.is_inflated());
        assert_eq!(w.monitor_id(), Some(99));
        assert_eq!(w.tid(), None);
        assert!(!w.fast_releasable());
    }

    #[test]
    fn conv_flc_bit() {
        let w = ConvWord::held_by(tid(3)).with_flc();
        assert!(w.has_flc());
        assert!(!w.fast_releasable());
        assert_eq!(w.without_flc(), ConvWord::held_by(tid(3)));
    }

    #[test]
    fn display_formats_are_nonempty() {
        for s in [
            format!("{}", ConvWord::FREE),
            format!("{}", ConvWord::held_by(tid(1))),
            format!("{}", ConvWord::inflated(2)),
        ] {
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn compact_init_elidable() {
        let w = CompactWord::INIT;
        assert!(w.is_elidable());
        assert_eq!(w.counter(), Some(0));
        assert!(!w.is_held_flat());
        assert_eq!(core::mem::size_of::<CompactWord>(), 8);
    }

    #[test]
    fn compact_held_preserves_counter() {
        let free = CompactWord::with_counter(77);
        let held = CompactWord::held_by(free, tid(9));
        assert!(held.is_held_flat());
        assert!(held.fast_releasable());
        assert!(!held.is_elidable());
        assert_eq!(held.tid(), Some(tid(9)));
        // The point of the layout: the displaced counter stays in-word.
        assert_eq!(held.counter(), Some(77));
        assert_eq!(held.recursion(), 0);
    }

    #[test]
    fn compact_release_advances_in_word_counter() {
        let held = CompactWord::held_by(CompactWord::with_counter(7), tid(3));
        let released = held.release_word();
        assert!(released.is_elidable());
        assert_eq!(released.counter(), Some(8));
        // Release also works from a free-with-FLC word (displaced value
        // computation in the inflate path): FLC and tid bits are dropped.
        let displaced = CompactWord::with_counter(7).with_flc().release_word();
        assert_eq!(displaced, released);
    }

    #[test]
    fn compact_counter_wraps_off_bit_63() {
        let held = CompactWord::held_by(CompactWord::with_counter(COMPACT_CTR_MAX), tid(5));
        let released = held.release_word();
        // The carry off bit 63 vanishes; no flag or tid bit is touched.
        assert_eq!(released.counter(), Some(0));
        assert_eq!(released.raw() & !COMPACT_CTR_MASK, 0);
    }

    #[test]
    #[should_panic(expected = "20-bit tid field")]
    fn compact_wide_tid_panics_in_release() {
        let wide = ThreadId::from_raw(COMPACT_TID_MAX + 1).unwrap();
        let _ = CompactWord::held_by(CompactWord::INIT, wide);
    }

    #[test]
    fn compact_recursion_saturation_preserves_fields() {
        let mut w = CompactWord::held_by(CompactWord::with_counter(123), tid(6));
        for _ in 0..SOLERO_RECURSION_MAX {
            w = w.recurse();
        }
        assert_eq!(w.recursion(), SOLERO_RECURSION_MAX);
        assert_eq!(w.tid(), Some(tid(6)), "tid intact at saturation");
        assert_eq!(w.counter(), Some(123), "counter intact at saturation");
        for _ in 0..SOLERO_RECURSION_MAX {
            w = w.unrecurse();
        }
        assert!(w.fast_releasable());
    }

    #[test]
    #[should_panic(expected = "CompactWord recursion overflow")]
    fn compact_recursion_overflow_panics_in_release() {
        let mut w = CompactWord::held_by(CompactWord::INIT, tid(1));
        for _ in 0..SOLERO_RECURSION_MAX {
            w = w.recurse();
        }
        let _ = w.recurse();
    }

    #[test]
    #[should_panic(expected = "CompactWord recursion underflow")]
    fn compact_unrecurse_underflow_panics_in_release() {
        let _ = CompactWord::held_by(CompactWord::INIT, tid(1)).unrecurse();
    }

    #[test]
    fn compact_inflated_carries_monitor_id() {
        let w = CompactWord::inflated(99);
        assert!(w.is_inflated());
        assert!(w.needs_monitor());
        assert!(!w.is_elidable());
        assert_eq!(w.monitor_id(), Some(99));
        assert_eq!(w.counter(), None, "inflated bits belong to the id");
        assert_eq!(w.tid(), None);
    }

    #[test]
    fn compact_flc_round_trip() {
        let held = CompactWord::held_by(CompactWord::with_counter(4), tid(2));
        let flc = held.with_flc();
        assert!(flc.has_flc());
        assert!(flc.needs_monitor());
        assert!(!flc.fast_releasable());
        assert_eq!(flc.without_flc(), held);
        assert!(!held.needs_monitor(), "merely-held spins, no monitor");
    }

    #[test]
    fn compact_display_formats_are_nonempty() {
        for s in [
            format!("{}", CompactWord::INIT),
            format!("{}", CompactWord::held_by(CompactWord::INIT, tid(1))),
            format!("{}", CompactWord::inflated(2)),
        ] {
            assert!(!s.is_empty());
        }
    }
}
