//! Profile-guided demotion from a prior run's per-lock counter export.
//!
//! [`crate::profile`] adapts plans to *intra-method* behaviour (which
//! blocks are cold). This module closes the loop one level up: a
//! previous run's counter export says how each *lock* actually behaved
//! — how often it was written, how often speculative readers aborted —
//! and a statically read-only region on a lock that the profile shows
//! to be write-hot is better compiled conventionally than left to abort
//! its way to the fallback path at runtime.
//!
//! The pipeline:
//!
//! 1. run a workload and write each lock's `StatsSnapshot` as one
//!    export line keyed by its [`LockId`]
//!    ([`StatsSnapshot::to_jsonl`]);
//! 2. [`ObsProfile::parse`] the export — every line goes through
//!    [`StatsSnapshot::from_jsonl`], the reader the `obs_check` binary
//!    uses, and a malformed line is an **error carrying its line
//!    number**, never silently skipped (a truncated profile that loses
//!    its write counts would otherwise quietly demote nothing);
//! 3. [`ObsProfile::write_heavy`] names the offending locks;
//! 4. [`crate::lower::ProgramPlan::demote_locks`] flips their regions
//!    to [`crate::lower::LockPlan::Conventional`].

use std::collections::{BTreeMap, BTreeSet};

use solero_runtime::stats::StatsSnapshot;

use crate::ir::LockId;

/// A parsed counter export, one merged snapshot per lock.
#[derive(Debug, Clone, Default)]
pub struct ObsProfile {
    locks: BTreeMap<LockId, StatsSnapshot>,
}

impl ObsProfile {
    /// Parses a JSONL export. Lines naming the same lock are merged;
    /// blank lines are permitted.
    ///
    /// # Errors
    ///
    /// The first line that [`StatsSnapshot::from_jsonl`] rejects, or
    /// whose `lock` does not fit a [`LockId`], as `"line N: <why>"`.
    /// Rejecting instead of skipping is deliberate: a corrupt profile
    /// must not masquerade as a quiet one.
    pub fn parse(input: &str) -> Result<Self, String> {
        let mut locks: BTreeMap<LockId, StatsSnapshot> = BTreeMap::new();
        for (i, raw) in input.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            let at = |e: String| format!("line {}: {e}", i + 1);
            let (lock, _, snap) = StatsSnapshot::from_jsonl(line).map_err(at)?;
            let lock = LockId::try_from(lock)
                .map_err(|_| at(format!("lock {lock} does not fit a LockId")))?;
            let merged = locks.entry(lock).or_default();
            *merged = merged.merge(&snap);
        }
        Ok(ObsProfile { locks })
    }

    /// The recorded counters for `lock`, if the profile saw it at all.
    pub fn activity(&self, lock: LockId) -> Option<&StatsSnapshot> {
        self.locks.get(&lock)
    }

    /// Locks the profile shows to be poor elision candidates: at least
    /// `min_entries` section entries (`write_enters + read_enters`), of
    /// which at least `write_fraction` wrote (`write_enters +
    /// mostly_upgrades`).
    ///
    /// Locks below `min_entries` are never demoted — a profile that
    /// barely saw a lock has no standing to disable its elision.
    pub fn write_heavy(&self, min_entries: u64, write_fraction: f64) -> BTreeSet<LockId> {
        self.locks
            .iter()
            .filter(|(_, s)| {
                let entries = s.total_sections();
                let writing = s.write_enters + s.mostly_upgrades;
                entries >= min_entries.max(1) && writing as f64 >= write_fraction * entries as f64
            })
            .map(|(&l, _)| l)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One export line for `lock` with the counters `write_heavy` reads.
    fn line(lock: u64, write_enters: u64, read_enters: u64, mostly_upgrades: u64) -> String {
        let s = StatsSnapshot {
            write_enters,
            read_enters,
            mostly_upgrades,
            ..Default::default()
        };
        s.to_jsonl(lock, "l")
    }

    #[test]
    fn merges_lines_per_lock() {
        let lines = [line(3, 1, 1, 0), line(9, 0, 1, 0), line(9, 0, 0, 1)].join("\n");
        let p = ObsProfile::parse(&lines).unwrap();
        let a3 = p.activity(3).unwrap();
        assert_eq!(
            (a3.write_enters, a3.read_enters, a3.mostly_upgrades),
            (1, 1, 0)
        );
        let a9 = p.activity(9).unwrap();
        assert_eq!((a9.read_enters, a9.mostly_upgrades), (1, 1));
        assert!(p.activity(4).is_none());
    }

    #[test]
    fn malformed_line_is_an_error_with_its_number() {
        let lines = format!("{}\nnot json at all\n", line(1, 0, 0, 0));
        let err = ObsProfile::parse(&lines).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");

        // Format violations are rejected too, not just parse failures.
        let bad = r#"{"lock":2,"name":"l","write_enters":1}"#;
        let err = ObsProfile::parse(bad).unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn lock_id_must_fit_a_lock_id() {
        let max = u64::from(LockId::MAX);
        let p = ObsProfile::parse(&line(max, 0, 1, 0)).unwrap();
        assert!(p.activity(LockId::MAX).is_some());

        let lines = format!("\n{}", line(max + 1, 0, 1, 0));
        let err = ObsProfile::parse(&lines).unwrap_err();
        assert!(
            err.starts_with("line 2:") && err.contains("4294967296"),
            "{err}"
        );
    }

    #[test]
    fn write_heavy_applies_both_thresholds() {
        let lines = [
            line(1, 8, 2, 0),  // 8 writes, 2 reads — write-heavy.
            line(2, 1, 99, 0), // 1 write, 99 reads — read-dominated.
            line(3, 2, 0, 0),  // 2 writes, nothing else — under min_entries.
            line(4, 0, 6, 6),  // reads that all upgraded in place.
        ]
        .join("\n");
        let p = ObsProfile::parse(&lines).unwrap();
        assert_eq!(p.write_heavy(5, 0.5), BTreeSet::from([1, 4]));
    }
}
