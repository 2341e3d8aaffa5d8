//! Lock-operation statistics.
//!
//! The paper's evaluation reports lock frequency and read-only ratio
//! (Table 1) and the speculative-failure ratio (Figure 15). Every lock
//! in this reproduction carries a [`LockStats`] of relaxed atomic
//! counters; the workload driver aggregates snapshots across locks and
//! threads.
//!
//! An elided read-only section writes nothing shared, and its counters
//! keep it that way. The three counters a validated elided read books
//! (`read_enters`, `elision_success`, `async_validations`) live in
//! [`READ_STRIPES`] cache-line stripes out of line and are bumped only
//! through [`LockStats::note_read_enter`], [`LockStats::note_elided`]
//! and [`LockStats::note_async_validation`]. A thread claims a stripe
//! index from a process-wide bitmap the first time it books, and a
//! thread-local destructor releases the index when the thread exits;
//! the claim covers that index in every lock's stripes. An owned
//! stripe has one writer, so its bump is a relaxed load and store, no
//! locked instruction, and counts stay exact: the bitmap's Release at
//! exit and Acquire at claim hand a released stripe's counts to its
//! next owner. Claims take the even indices first, so two claimants'
//! lines share no 128-byte adjacent-line prefetch pair until more than
//! half the stripes are taken. The last stripe is never claimed: a
//! thread that finds every other one taken, or books while its
//! thread-locals are torn down, shares that overflow stripe and bumps
//! it with a `fetch_add`. Every other counter is a field of the lock's
//! shared block. [`LockStats::snapshot`] and [`LockStats::reset`] fold
//! the stripes in, so a snapshot does not show where a counter lives.
//!
//! A [`StatsSnapshot`] is also the unit of the JSONL export, one line
//! per lock: `{"lock":<id>,"name":"<label>",...}` followed by every
//! counter under its field name. [`StatsSnapshot::to_jsonl`] writes a
//! line and [`StatsSnapshot::from_jsonl`] reads one back, through
//! [`StatsSnapshot::write_fields`] and [`StatsSnapshot::read_fields`],
//! which a bench record's cells use too. Both come from the one field
//! list below, so neither format can drift from the counters.
//!
//! ```
//! use std::sync::atomic::Ordering;
//! use solero_runtime::stats::{LockStats, StatsSnapshot};
//!
//! let stats = LockStats::default();
//! stats.write_enters.fetch_add(2, Ordering::Relaxed);
//! for _ in 0..3 {
//!     stats.note_read_enter();
//! }
//! let line = stats.snapshot().to_jsonl(7, "cache");
//! assert!(line.starts_with(r#"{"lock":7,"name":"cache","write_enters":2,"#));
//! let (lock, name, snap) = StatsSnapshot::from_jsonl(&line).unwrap();
//! assert_eq!((lock, name.as_str(), snap.read_enters), (7, "cache", 3));
//! // Every counter must be present.
//! assert!(StatsSnapshot::from_jsonl(r#"{"lock":7,"name":"cache"}"#).is_err());
//! ```

use core::fmt;
use core::ops::Range;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use solero_obs::json::{self, JsonObject, Value};
use solero_obs::AbortReason;

/// Read stripes per [`LockStats`], the overflow stripe included. A
/// constant, not a setting: enough that the threads one host runs at
/// once rarely need the overflow stripe, few enough that a lock's
/// stripes cost 1 KiB.
pub const READ_STRIPES: usize = 16;

/// Heap bytes a [`LockStats`] holds beyond its `size_of`: the
/// [`READ_STRIPES`] stripes, one cache line each.
pub const STRIPES_BYTES: usize = READ_STRIPES * std::mem::size_of::<ReadStripe>();

/// The stripe shared by threads without a claim. It is never claimed,
/// so it is the one stripe with more than one writer.
const OVERFLOW: usize = READ_STRIPES - 1;

/// A thread's stripe index before its first booking.
const UNCLAIMED: usize = usize::MAX;

/// The claimed stripe indices, one bit each, across the process.
static CLAIMED: AtomicU32 = AtomicU32::new(0);
const _: () = assert!(READ_STRIPES <= u32::BITS as usize);

/// The calling thread's stripe index; dropping it at thread exit
/// releases the claim.
struct Claim(Cell<usize>);

impl Drop for Claim {
    fn drop(&mut self) {
        let i = self.0.get();
        if i < OVERFLOW {
            // Release: this owner's bumps happen before the next
            // owner's first load of the stripe.
            CLAIMED.fetch_and(!(1 << i), Ordering::Release);
        }
    }
}

thread_local! {
    static CLAIM: Claim = const { Claim(Cell::new(UNCLAIMED)) };
}

/// Claims the first free stripe, even indices before odd ones, or
/// returns [`OVERFLOW`] if every other stripe is taken.
#[cold]
fn claim() -> usize {
    for i in (0..OVERFLOW).step_by(2).chain((1..OVERFLOW).step_by(2)) {
        let bit = 1 << i;
        // Acquire: pairs with the Release in `Claim::drop`.
        if CLAIMED.fetch_or(bit, Ordering::Acquire) & bit == 0 {
            return i;
        }
    }
    OVERFLOW
}

/// The calling thread's stripe: the one it claimed at its first
/// booking, or [`OVERFLOW`] if none was free then or its thread-locals
/// are being torn down.
#[inline]
fn stripe_index() -> usize {
    CLAIM
        .try_with(|c| match c.0.get() {
            UNCLAIMED => {
                let i = claim();
                c.0.set(i);
                i
            }
            i => i,
        })
        .unwrap_or(OVERFLOW)
}

/// Splits the counter list into the fields of [`LockStats`]'s shared
/// block (`shared`) and of one read stripe (`striped`), keeping each
/// group in list order.
macro_rules! split_counters {
    ([$($shared:tt)*] [$($striped:tt)*]) => {
        /// Per-lock event counters. All increments are `Relaxed`; the
        /// counters are statistics, not synchronization.
        ///
        /// The shared counters are public fields; the striped ones
        /// (see the module docs) are bumped through the `note_*`
        /// methods and read through [`snapshot`](Self::snapshot).
        /// `repr(C)` keeps the shared fields in list order,
        /// `write_enters` first, and the stripe pointer last, so a lock
        /// that puts its statistics right after its word keeps its
        /// write counters on the word's line.
        #[derive(Default)]
        #[repr(C)]
        pub struct LockStats {
            $($shared)*
            stripes: Box<[ReadStripe; READ_STRIPES]>,
        }

        /// One owner's copy of the striped counters (or, for the
        /// overflow stripe, the unclaimed threads'), alone on its
        /// cache line.
        #[derive(Default)]
        #[repr(C, align(64))]
        struct ReadStripe {
            $($striped)*
        }
    };
    ([$($shared:tt)*] [$($striped:tt)*]
     $(#[$m:meta])* $name:ident: shared, $($rest:tt)*) => {
        split_counters!([$($shared)* $(#[$m])* pub $name: AtomicU64,] [$($striped)*] $($rest)*);
    };
    ([$($shared:tt)*] [$($striped:tt)*]
     $(#[$m:meta])* $name:ident: striped, $($rest:tt)*) => {
        split_counters!([$($shared)*] [$($striped)* $name: AtomicU64,] $($rest)*);
    };
}

/// The total of one counter across the shared block or the stripes.
macro_rules! load_counter {
    ($stats:ident, shared, $name:ident) => {
        $stats.$name.load(Ordering::Relaxed)
    };
    ($stats:ident, striped, $name:ident) => {
        $stats
            .stripes
            .iter()
            .map(|s| s.$name.load(Ordering::Relaxed))
            .sum()
    };
}

/// Zeroes one counter in the shared block or in every stripe.
macro_rules! reset_counter {
    ($stats:ident, shared, $name:ident) => {
        $stats.$name.store(0, Ordering::Relaxed)
    };
    ($stats:ident, striped, $name:ident) => {
        for s in $stats.stripes.iter() {
            s.$name.store(0, Ordering::Relaxed);
        }
    };
}

macro_rules! counters {
    ($($(#[$m:meta])* $name:ident: $kind:ident),+ $(,)?) => {
        split_counters!([] [] $($(#[$m])* $name: $kind,)+);

        /// A point-in-time copy of [`LockStats`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$m])* pub $name: u64,)+
        }

        impl LockStats {
            /// Copies the counters, each striped one summed over the
            /// stripes.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: load_counter!(self, $kind, $name),)+
                }
            }

            /// Resets every counter to zero, in every stripe.
            ///
            /// Exact only while no section runs on the lock: an owner
            /// bumps its stripe with a load and a store, so a bump that
            /// straddles the reset writes back the count from before
            /// it. Every caller resets a quiescent lock: the
            /// `SyncStrategy::reset_stats` impls (whose callers are
            /// listed there) and the unit and property tests.
            pub fn reset(&self) {
                $(reset_counter!(self, $kind, $name);)+
            }
        }

        impl StatsSnapshot {
            /// Field-wise sum, for aggregating across locks.
            pub fn merge(&self, other: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name + other.$name,)+
                }
            }

            /// Field-wise difference (`self - earlier`), for windowed
            /// measurements.
            pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.saturating_sub(earlier.$name),)+
                }
            }

            /// The counter names, in declaration order: the keys
            /// [`write_fields`](Self::write_fields) writes and
            /// [`read_fields`](Self::read_fields) requires.
            pub const FIELDS: &'static [&'static str] = &[$(stringify!($name)),+];

            /// Appends every counter to `o` under its field name.
            pub fn write_fields(&self, o: JsonObject) -> JsonObject {
                o$(.num(stringify!($name), self.$name))+
            }

            /// Reads every counter from a parsed object. Keys outside
            /// [`FIELDS`](Self::FIELDS) are the caller's to judge.
            ///
            /// # Errors
            ///
            /// A missing counter, or one that is not a non-negative
            /// integer below 2^53; the message names the key.
            pub fn read_fields(o: &BTreeMap<String, Value>) -> Result<StatsSnapshot, String> {
                Ok(StatsSnapshot {
                    $($name: json::uint(o, stringify!($name))?,)+
                })
            }
        }
    };
}

impl StatsSnapshot {
    /// One export line for lock `lock`, labelled `name`: the id, the
    /// label, then every counter under its field name.
    pub fn to_jsonl(&self, lock: u64, name: &str) -> String {
        self.write_fields(JsonObject::new().num("lock", lock).str("name", name))
            .finish()
    }

    /// Reads one export line back as `(lock, name, counters)`.
    ///
    /// # Errors
    ///
    /// The first violation: malformed JSON, a key that is not `lock`,
    /// `name` or a counter, a missing key, or an id or counter that is
    /// not a non-negative integer below 2^53.
    pub fn from_jsonl(line: &str) -> Result<(u64, String, StatsSnapshot), String> {
        let v = json::parse(line)?;
        let o = v.as_obj().ok_or("line is not a JSON object")?;
        let known = |k: &str| matches!(k, "lock" | "name") || Self::FIELDS.contains(&k);
        if let Some(key) = o.keys().find(|k| !known(k)) {
            return Err(format!("unknown key {key:?}"));
        }
        let name = o
            .get("name")
            .and_then(Value::as_str)
            .ok_or("missing string key \"name\"")?;
        let counters = Self::read_fields(o)?;
        Ok((json::uint(o, "lock")?, name.to_string(), counters))
    }
}

// A `striped` counter is one a validated elided read books; it lives
// in the read stripes. A `shared` one is a field of the shared block.
counters! {
    /// Writing critical sections entered (fast or slow path).
    write_enters: shared,
    /// Writing entries satisfied by the fast-path CAS.
    write_fast: shared,
    /// Recursive flat-lock entries.
    recursive_enters: shared,
    /// Read-only critical sections started (per attempt group, not retry).
    read_enters: striped,
    /// Read-only sections completed with the lock elided.
    elision_success: striped,
    /// Speculative executions that failed validation or faulted and were
    /// re-executed (counts each failed attempt).
    elision_failure: shared,
    /// Read-only sections that fell back to acquiring the lock.
    fallback_acquires: shared,
    /// Read-only sections that entered the slow entry path (lock busy at
    /// first probe).
    read_slow_enters: shared,
    /// Transitions thin → fat.
    inflations: shared,
    /// Transitions fat → thin.
    deflations: shared,
    /// Times a thread parked on the monitor because of flat-lock
    /// contention (FLC protocol).
    flc_waits: shared,
    /// Entries that went through the OS monitor (fat mode).
    monitor_enters: shared,
    /// Validation checks triggered by asynchronous events at check-points.
    async_validations: striped,
    /// Speculative faults (null pointer, bounds, ...) observed and
    /// recovered from by re-execution.
    speculative_faults: shared,
    /// Read-mostly sections that upgraded in place to holding the lock
    /// (Figure 17 CAS succeeded).
    mostly_upgrades: shared,
    /// Speculative read attempts aborted, any reason (sum of the
    /// `abort_*` counters below).
    read_aborts: shared,
    /// Aborts: lock word busy at entry, speculation never started.
    abort_locked_at_entry: shared,
    /// Aborts: exit/catch validation saw the captured word change.
    abort_word_changed_at_exit: shared,
    /// Aborts: an asynchronous check-point re-validation failed.
    abort_async_revalidation: shared,
    /// Aborts: retry budget exhausted, fell back to real acquisition.
    abort_retry_exhausted: shared,
    /// Aborts: the lock inflated and the reader went through the
    /// monitor.
    abort_inflation: shared,
    /// Read-only sections the adaptive policy sent straight to real
    /// acquisition (elision forfeited). Not an abort: speculation never
    /// started, so these do NOT contribute to `read_aborts`.
    policy_skips: shared,
    /// Times the adaptive policy forfeited elision (a per-class retry
    /// budget hit zero while elision was still enabled).
    policy_disables: shared,
    /// Times the adaptive policy re-armed elision (a forfeit window
    /// drained and speculation resumed).
    policy_rearms: shared,
    /// BRAVO: writers that found the lock read-biased and revoked the
    /// bias (cleared `rbias`, then scanned the visible-readers table).
    /// Zero for every non-BRAVO lock.
    bias_revocations: shared,
    /// BRAVO: times a slow-path reader re-installed the read bias after
    /// the uncontended-slow-path threshold was met. Zero for every
    /// non-BRAVO lock.
    bias_rebiases: shared,
    /// Tier-1 back-off waits taken by a contended writer's probe
    /// (Figure 3's spin tiers), on the slow write and retry-exhausted
    /// fallback paths. Zero while every probe succeeds without waiting.
    contention_backoffs: shared,
}

impl LockStats {
    /// Adds one to the counter `pick` selects on the caller's stripe:
    /// a relaxed load and store on an owned stripe, which only its
    /// owner writes, and a `fetch_add` on the shared overflow stripe.
    #[inline]
    fn bump(&self, pick: impl FnOnce(&ReadStripe) -> &AtomicU64) {
        let i = stripe_index();
        let counter = pick(&self.stripes[i]);
        if i == OVERFLOW {
            counter.fetch_add(1, Ordering::Relaxed);
        } else {
            counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        }
    }

    /// Books one read-only section entry (`read_enters`) on the
    /// caller's stripe.
    #[inline]
    pub fn note_read_enter(&self) {
        self.bump(|s| &s.read_enters);
    }

    /// Books one read-only section that completed elided
    /// (`elision_success`) on the caller's stripe.
    #[inline]
    pub fn note_elided(&self) {
        self.bump(|s| &s.elision_success);
    }

    /// Books one check-point validation triggered by an asynchronous
    /// event (`async_validations`) on the caller's stripe.
    #[inline]
    pub fn note_async_validation(&self) {
        self.bump(|s| &s.async_validations);
    }

    /// The address range of each read stripe, for layout checks: a
    /// stripe must start its own cache line and share no line with the
    /// lock word.
    pub fn stripe_spans(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.stripes.iter().map(|s| {
            let at = s as *const ReadStripe as usize;
            at..at + std::mem::size_of::<ReadStripe>()
        })
    }

    /// Books one aborted speculative read attempt: the aggregate
    /// `read_aborts` counter plus the counter of its reason (the
    /// Figure 15 breakdown). Every lock books aborts here, exactly once
    /// each, so `read_aborts == abort_reason_sum()` always holds.
    pub fn note_abort(&self, reason: AbortReason) {
        self.read_aborts.fetch_add(1, Ordering::Relaxed);
        let counter = match reason {
            AbortReason::LockedAtEntry => &self.abort_locked_at_entry,
            AbortReason::WordChangedAtExit => &self.abort_word_changed_at_exit,
            AbortReason::AsyncRevalidationFail => &self.abort_async_revalidation,
            AbortReason::RetryExhaustedFallback => &self.abort_retry_exhausted,
            AbortReason::Inflation => &self.abort_inflation,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// Total critical sections (read + write) — the "lock operations" of
    /// Table 1.
    pub fn total_sections(&self) -> u64 {
        self.write_enters + self.read_enters
    }

    /// Fraction of sections that were read-only (Table 1, last column).
    pub fn read_only_ratio(&self) -> f64 {
        let total = self.total_sections();
        if total == 0 {
            0.0
        } else {
            self.read_enters as f64 / total as f64
        }
    }

    /// The abort counters paired with their stable reason names, in
    /// reporting order. The names are `solero-obs`'s `AbortReason`
    /// names.
    pub fn abort_reasons(&self) -> [(&'static str, u64); 5] {
        [
            ("locked_at_entry", self.abort_locked_at_entry),
            ("word_changed_at_exit", self.abort_word_changed_at_exit),
            ("async_revalidation_fail", self.abort_async_revalidation),
            ("retry_exhausted_fallback", self.abort_retry_exhausted),
            ("inflation", self.abort_inflation),
        ]
    }

    /// Sum of the per-reason abort counters. Invariant: equals
    /// [`read_aborts`](Self::read_aborts) — every abort is classified
    /// exactly once.
    pub fn abort_reason_sum(&self) -> u64 {
        self.abort_reasons().iter().map(|(_, n)| n).sum()
    }

    /// Fraction of speculative executions that failed (Figure 15).
    ///
    /// The denominator counts *executions* (successes + failed
    /// attempts), matching the paper's "ratio of failures in the
    /// speculative execution".
    pub fn failure_ratio(&self) -> f64 {
        let attempts = self.elision_success + self.elision_failure;
        if attempts == 0 {
            0.0
        } else {
            self.elision_failure as f64 / attempts as f64
        }
    }
}

impl fmt::Debug for LockStats {
    /// The counters as a snapshot would read them, the stripes folded
    /// in.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("LockStats").field(&self.snapshot()).finish()
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sections={} (write={}, read={}), elided={}, failed={}, \
             fallbacks={}, inflations={}, deflations={}, faults={}",
            self.total_sections(),
            self.write_enters,
            self.read_enters,
            self.elision_success,
            self.elision_failure,
            self.fallback_acquires,
            self.inflations,
            self.deflations,
            self.speculative_faults,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_increments() {
        let s = LockStats::default();
        s.write_enters.fetch_add(3, Ordering::Relaxed);
        for _ in 0..5 {
            s.note_elided();
        }
        let snap = s.snapshot();
        assert_eq!(snap.write_enters, 3);
        assert_eq!(snap.elision_success, 5);
        assert_eq!(snap.read_enters, 0);
    }

    #[test]
    fn merge_and_since() {
        let a = StatsSnapshot {
            write_enters: 2,
            read_enters: 8,
            ..Default::default()
        };
        let b = StatsSnapshot {
            write_enters: 1,
            read_enters: 4,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.write_enters, 3);
        assert_eq!(m.read_enters, 12);
        let d = a.since(&b);
        assert_eq!(d.write_enters, 1);
        assert_eq!(d.read_enters, 4);
    }

    #[test]
    fn ratios() {
        let s = StatsSnapshot {
            write_enters: 5,
            read_enters: 95,
            elision_success: 80,
            elision_failure: 20,
            ..Default::default()
        };
        assert!((s.read_only_ratio() - 0.95).abs() < 1e-12);
        assert!((s.failure_ratio() - 0.20).abs() < 1e-12);
    }

    #[test]
    fn empty_ratios_are_zero() {
        let s = StatsSnapshot::default();
        assert_eq!(s.read_only_ratio(), 0.0);
        assert_eq!(s.failure_ratio(), 0.0);
    }

    #[test]
    fn reset_zeroes() {
        let s = LockStats::default();
        s.inflations.fetch_add(7, Ordering::Relaxed);
        s.note_read_enter();
        s.note_async_validation();
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn abort_reason_sum_matches_fields() {
        let s = StatsSnapshot {
            read_aborts: 15,
            abort_locked_at_entry: 5,
            abort_word_changed_at_exit: 4,
            abort_async_revalidation: 3,
            abort_retry_exhausted: 2,
            abort_inflation: 1,
            ..Default::default()
        };
        assert_eq!(s.abort_reason_sum(), 15);
        assert_eq!(s.abort_reason_sum(), s.read_aborts);
        let names: Vec<&str> = s.abort_reasons().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "locked_at_entry",
                "word_changed_at_exit",
                "async_revalidation_fail",
                "retry_exhausted_fallback",
                "inflation"
            ]
        );
    }

    #[test]
    fn note_abort_books_each_reason_once() {
        let s = LockStats::default();
        for (i, reason) in AbortReason::ALL.into_iter().enumerate() {
            for _ in 0..=i {
                s.note_abort(reason);
            }
        }
        let snap = s.snapshot();
        assert_eq!(snap.read_aborts, 15);
        assert_eq!(snap.abort_reason_sum(), snap.read_aborts);
        let counts: Vec<u64> = snap.abort_reasons().iter().map(|(_, n)| *n).collect();
        assert_eq!(counts, [1, 2, 3, 4, 5]);
        let names: Vec<&str> = snap.abort_reasons().iter().map(|(n, _)| *n).collect();
        let reasons: Vec<&str> = AbortReason::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(names, reasons, "counter order follows the taxonomy");
    }

    /// Books one read entry on `stats` from a new thread, joins it and
    /// returns the stripe it booked on.
    fn book_on_a_new_thread(stats: &LockStats) -> usize {
        std::thread::scope(|s| {
            s.spawn(|| {
                stats.note_read_enter();
                stripe_index()
            })
            .join()
            .unwrap()
        })
    }

    #[test]
    fn exited_threads_release_their_stripes() {
        // More claimants than stripes, one at a time. `join` returns
        // after the thread's destructors ran, so each claim is back
        // in the bitmap before the next thread starts.
        let s = LockStats::default();
        let n = READ_STRIPES as u64 + 4;
        for _ in 0..n {
            book_on_a_new_thread(&s);
        }
        let fresh = book_on_a_new_thread(&s);
        assert_ne!(fresh, OVERFLOW, "a fresh thread owns a stripe");
        // A reused stripe carries its earlier owners' counts.
        assert_eq!(s.snapshot().read_enters, n + 1);
    }

    #[test]
    fn live_claimants_own_stripes_two_lines_apart() {
        // The adjacent-line prefetcher moves lines in 128-byte pairs,
        // so two owners in one pair would still pass it between cores.
        let s = LockStats::default();
        let both = std::sync::Barrier::new(2);
        let owner = || {
            s.note_elided();
            both.wait(); // both claims are live at once
            stripe_index()
        };
        let (a, b) = std::thread::scope(|sc| {
            let (a, b) = (sc.spawn(owner), sc.spawn(owner));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(a != OVERFLOW && b != OVERFLOW, "stripes {a} and {b}");
        let bytes = a.abs_diff(b) * std::mem::size_of::<ReadStripe>();
        assert!(bytes >= 128, "stripes {a} and {b} are {bytes} bytes apart");
        assert_eq!(s.snapshot().elision_success, 2);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", StatsSnapshot::default()).is_empty());
    }
}
