//! Lock-operation statistics.
//!
//! The paper's evaluation reports lock frequency and read-only ratio
//! (Table 1) and the speculative-failure ratio (Figure 15). Every lock
//! in this reproduction carries a [`LockStats`] of relaxed atomic
//! counters; the workload driver aggregates snapshots across locks and
//! threads.
//!
//! A [`StatsSnapshot`] is also the unit of the JSONL export, one line
//! per lock: `{"lock":<id>,"name":"<label>",...}` followed by every
//! counter under its field name. [`StatsSnapshot::to_jsonl`] writes a
//! line and [`StatsSnapshot::from_jsonl`] reads one back; both come
//! from the one field list below, so the format cannot drift from the
//! counters.
//!
//! ```
//! use std::sync::atomic::Ordering;
//! use solero_runtime::stats::{LockStats, StatsSnapshot};
//!
//! let stats = LockStats::default();
//! stats.read_enters.fetch_add(3, Ordering::Relaxed);
//! let line = stats.snapshot().to_jsonl(7, "cache");
//! assert!(line.starts_with(r#"{"lock":7,"name":"cache","write_enters":0,"#));
//! let (lock, name, snap) = StatsSnapshot::from_jsonl(&line).unwrap();
//! assert_eq!((lock, name.as_str(), snap.read_enters), (7, "cache", 3));
//! // Every counter must be present.
//! assert!(StatsSnapshot::from_jsonl(r#"{"lock":7,"name":"cache"}"#).is_err());
//! ```

use core::fmt;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use solero_obs::json::{self, JsonObject, Value};
use solero_obs::AbortReason;

macro_rules! counters {
    ($($(#[$m:meta])* $name:ident),+ $(,)?) => {
        /// Per-lock event counters. All increments are `Relaxed`; the
        /// counters are statistics, not synchronization.
        #[derive(Debug, Default)]
        pub struct LockStats {
            $($(#[$m])* pub $name: AtomicU64,)+
        }

        /// A point-in-time copy of [`LockStats`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$m])* pub $name: u64,)+
        }

        impl LockStats {
            /// Copies the counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                }
            }

            /// Resets every counter to zero.
            pub fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)+
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

            /// One export line for lock `lock`, labelled `name`: the id,
            /// the label, then every counter under its field name.
            pub fn to_jsonl(&self, lock: u64, name: &str) -> String {
                JsonObject::new()
                    .num("lock", lock)
                    .str("name", name)
                    $(.num(stringify!($name), self.$name))+
                    .finish()
            }

            /// Reads one export line back as `(lock, name, counters)`.
            ///
            /// # Errors
            ///
            /// The first violation: malformed JSON, a key that is not
            /// `lock`, `name` or a counter, a missing key, or an id or
            /// counter that is not a non-negative integer below 2^53.
            pub fn from_jsonl(line: &str) -> Result<(u64, String, StatsSnapshot), String> {
                const KEYS: &[&str] = &["lock", "name", $(stringify!($name)),+];
                let v = json::parse(line)?;
                let o = v.as_obj().ok_or("line is not a JSON object")?;
                if let Some(key) = o.keys().find(|k| !KEYS.contains(&k.as_str())) {
                    return Err(format!("unknown key {key:?}"));
                }
                let name = o
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("missing string key \"name\"")?;
                let counters = StatsSnapshot {
                    $($name: export_uint(o, stringify!($name))?,)+
                };
                Ok((export_uint(o, "lock")?, name.to_string(), counters))
            }
        }
    };
}

/// An export value as a `u64`. The JSON parser reads numbers as `f64`,
/// which holds every integer below 2^53 exactly; a larger one could come
/// back changed, so it is rejected rather than rounded.
fn export_uint(o: &BTreeMap<String, Value>, key: &str) -> Result<u64, String> {
    const EXACT: f64 = (1u64 << 53) as f64;
    match o.get(key).map(Value::as_num) {
        None => Err(format!("missing key {key:?}")),
        Some(Some(n)) if n >= 0.0 && n.fract() == 0.0 && n < EXACT => Ok(n as u64),
        Some(_) => Err(format!("{key:?} is not a non-negative integer below 2^53")),
    }
}

counters! {
    /// Writing critical sections entered (fast or slow path).
    write_enters,
    /// Writing entries satisfied by the fast-path CAS.
    write_fast,
    /// Recursive flat-lock entries.
    recursive_enters,
    /// Read-only critical sections started (per attempt group, not retry).
    read_enters,
    /// Read-only sections completed with the lock elided.
    elision_success,
    /// Speculative executions that failed validation or faulted and were
    /// re-executed (counts each failed attempt).
    elision_failure,
    /// Read-only sections that fell back to acquiring the lock.
    fallback_acquires,
    /// Read-only sections that entered the slow entry path (lock busy at
    /// first probe).
    read_slow_enters,
    /// Transitions thin → fat.
    inflations,
    /// Transitions fat → thin.
    deflations,
    /// Times a thread parked on the monitor because of flat-lock
    /// contention (FLC protocol).
    flc_waits,
    /// Entries that went through the OS monitor (fat mode).
    monitor_enters,
    /// Validation checks triggered by asynchronous events at check-points.
    async_validations,
    /// Speculative faults (null pointer, bounds, ...) observed and
    /// recovered from by re-execution.
    speculative_faults,
    /// Read-mostly sections that upgraded in place to holding the lock
    /// (Figure 17 CAS succeeded).
    mostly_upgrades,
    /// Speculative read attempts aborted, any reason (sum of the
    /// `abort_*` counters below).
    read_aborts,
    /// Aborts: lock word busy at entry, speculation never started.
    abort_locked_at_entry,
    /// Aborts: exit/catch validation saw the captured word change.
    abort_word_changed_at_exit,
    /// Aborts: an asynchronous check-point re-validation failed.
    abort_async_revalidation,
    /// Aborts: retry budget exhausted, fell back to real acquisition.
    abort_retry_exhausted,
    /// Aborts: the lock inflated and the reader went through the
    /// monitor.
    abort_inflation,
    /// Read-only sections the adaptive policy sent straight to real
    /// acquisition (elision forfeited). Not an abort: speculation never
    /// started, so these do NOT contribute to `read_aborts`.
    policy_skips,
    /// Times the adaptive policy forfeited elision (a per-class retry
    /// budget hit zero while elision was still enabled).
    policy_disables,
    /// Times the adaptive policy re-armed elision (a forfeit window
    /// drained and speculation resumed).
    policy_rearms,
    /// BRAVO: writers that found the lock read-biased and revoked the
    /// bias (cleared `rbias`, then scanned the visible-readers table).
    /// Zero for every non-BRAVO lock.
    bias_revocations,
    /// BRAVO: times a slow-path reader re-installed the read bias after
    /// the uncontended-slow-path threshold was met. Zero for every
    /// non-BRAVO lock.
    bias_rebiases,
    /// Back-off waits taken by the history-keyed contention manager on
    /// the slow write / retry-exhausted fallback path (arXiv 1305.5800).
    /// Zero while every probe succeeds without waiting.
    contention_backoffs,
}

impl LockStats {
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
        s.elision_success.fetch_add(5, Ordering::Relaxed);
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

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", StatsSnapshot::default()).is_empty());
    }
}
