//! Regression test for profile-guided demotion (`obsprofile` →
//! `ProgramPlan::demote_locks`).
//!
//! A per-lock counter export — every line valid under the same reader
//! the `obs_check` binary applies — shows one lock to be write-heavy.
//! Re-planning must demote exactly that lock's region to conventional
//! locking and leave the read-only regions of every other lock elided.
//! A malformed profile must be rejected with the line number, never
//! silently skipped. The profile may be hand-written or, as in the last
//! test, the export of a real interpreter run.

use std::collections::BTreeSet;
use std::sync::Arc;

use solero::SoleroLock;
use solero_heap::{ClassId, Heap};
use solero_jit::builder::MethodBuilder;
use solero_jit::interp::{Interpreter, RuntimeLock};
use solero_jit::ir::{BinOp, LockId, Point, Program};
use solero_jit::lower::{LockPlan, ProgramPlan};
use solero_jit::obsprofile::ObsProfile;
use solero_runtime::stats::StatsSnapshot;

const C: ClassId = ClassId::new(1);

/// Two methods, each a statically read-only region, on locks 0 and 7.
fn two_reader_program() -> Program {
    let mut p = Program::new();
    let mut b = MethodBuilder::new("get_quiet", 1);
    let v = b.fresh_local();
    b.monitor_enter(0).get_field(v, 0, C, 0).monitor_exit(0).ret(Some(v));
    p.add(b.finish());
    let mut b = MethodBuilder::new("get_hot", 1);
    let v = b.fresh_local();
    b.monitor_enter(7).get_field(v, 0, C, 0).monitor_exit(7).ret(Some(v));
    p.add(b.finish());
    p
}

/// One export line for `lock`.
fn lock_line(lock: u64, s: StatsSnapshot) -> String {
    s.to_jsonl(lock, &format!("lock{lock}"))
}

/// The profile of a run where lock 7 was hammered by writers while
/// lock 0 stayed read-only.
fn hot_lock_profile() -> String {
    let quiet = StatsSnapshot {
        read_enters: 6,
        ..Default::default()
    };
    // Writes dominate lock 7, and its speculation keeps aborting.
    let hot = StatsSnapshot {
        write_enters: 8,
        read_enters: 3,
        read_aborts: 3,
        ..Default::default()
    };
    [lock_line(0, quiet), lock_line(7, hot)].join("\n")
}

#[test]
fn profile_lines_pass_the_obs_check_schema() {
    for line in hot_lock_profile().lines() {
        StatsSnapshot::from_jsonl(line).expect("profile must satisfy the export schema");
    }
}

#[test]
fn write_heavy_lock_is_demoted_read_only_locks_stay_elided() {
    let p = two_reader_program();
    let mut plan = ProgramPlan::compute(&p);
    assert_eq!(plan.plan_counts(), (2, 0, 0), "both regions start elided");

    let prof = ObsProfile::parse(&hot_lock_profile()).expect("valid profile");
    let heavy = prof.write_heavy(5, 0.5);
    assert_eq!(heavy, BTreeSet::from([7 as LockId]), "exactly the hot lock");

    let demoted = plan.demote_locks(&heavy);
    assert_eq!(demoted, 1, "exactly one region demoted");
    assert_eq!(plan.plan_counts(), (1, 0, 1));
    let quiet = plan.region_at(0, Point { block: 0, inst: 0 }).unwrap();
    let hot = plan.region_at(1, Point { block: 0, inst: 0 }).unwrap();
    assert_eq!(quiet.plan, LockPlan::Elide, "lock 0 keeps eliding");
    assert_eq!(hot.plan, LockPlan::Conventional, "lock 7 demoted");

    // Demotion is idempotent.
    assert_eq!(plan.demote_locks(&heavy), 0);
}

#[test]
fn malformed_profile_is_rejected_with_line_number() {
    let mut profile = hot_lock_profile();
    // A line cut short after its label: every counter is missing.
    profile.push_str("\n{\"lock\":7,\"name\":\"lock7\"}");
    let last = profile.lines().count();
    let err = ObsProfile::parse(&profile).unwrap_err();
    assert!(
        err.starts_with(&format!("line {last}:")),
        "error must carry the offending line number: {err}"
    );

    // Unknown keys are format violations too.
    let line = lock_line(0, StatsSnapshot::default());
    let bad_kind = format!(
        "{},\"kind\":\"quantum_tunnel\"}}",
        line.trim_end_matches('}')
    );
    let err = ObsProfile::parse(&bad_kind).unwrap_err();
    assert!(err.contains("kind"), "{err}");
}

#[test]
fn quiet_profile_demotes_nothing() {
    let p = two_reader_program();
    let mut plan = ProgramPlan::compute(&p);
    let one_read = StatsSnapshot {
        read_enters: 1,
        ..Default::default()
    };
    let quiet: String = (0..10)
        .map(|_| lock_line(0, one_read))
        .collect::<Vec<_>>()
        .join("\n");
    let prof = ObsProfile::parse(&quiet).unwrap();
    assert!(prof.write_heavy(5, 0.5).is_empty());
    assert_eq!(plan.demote_locks(&prof.write_heavy(5, 0.5)), 0);
    assert_eq!(plan.plan_counts(), (2, 0, 0));
}

/// Lock 0 guards a counter that `inc` bumps and `get0` reads; lock 1
/// guards a cell that only `get1` reads.
fn counter_program() -> Program {
    let mut p = Program::new();
    // fn inc(obj) { synchronized(l0) { obj.f = obj.f + 1 } }
    let mut b = MethodBuilder::new("inc", 1);
    let (v, one) = (b.fresh_local(), b.fresh_local());
    b.constant(one, 1)
        .monitor_enter(0)
        .get_field(v, 0, C, 0)
        .binop(BinOp::Add, v, v, one)
        .put_field(0, C, 0, v)
        .monitor_exit(0)
        .ret(None);
    p.add(b.finish());
    for (name, lock) in [("get0", 0), ("get1", 1)] {
        let mut b = MethodBuilder::new(name, 1);
        let v = b.fresh_local();
        b.monitor_enter(lock)
            .get_field(v, 0, C, 0)
            .monitor_exit(lock)
            .ret(Some(v));
        p.add(b.finish());
    }
    p
}

#[test]
fn a_real_profile_demotes_the_real_lock() {
    let p = counter_program();
    let (inc, get0, get1) = (
        p.find("inc").unwrap(),
        p.find("get0").unwrap(),
        p.find("get1").unwrap(),
    );
    let heap = Arc::new(Heap::new(1 << 10));
    let counter = heap.alloc(C, 1).unwrap();
    let cell = heap.alloc(C, 1).unwrap();
    heap.store_i64(cell, 0, 42).unwrap();
    let (counter, cell) = (counter.raw() as i64, cell.raw() as i64);
    let locks = [Arc::new(SoleroLock::new()), Arc::new(SoleroLock::new())];
    let runtime = locks
        .iter()
        .map(|l| RuntimeLock::Solero(Arc::clone(l)))
        .collect();
    let interp = Interpreter::new(p, heap, runtime).unwrap();
    assert_eq!(
        interp.plan().plan_counts(),
        (2, 0, 1),
        "get0 and get1 elided, inc not"
    );

    for i in 0..12 {
        interp.run(inc, &[counter]).unwrap();
        if i % 3 == 0 {
            assert_eq!(interp.run(get0, &[counter]).unwrap(), Some(i + 1));
        }
        assert_eq!(interp.run(get1, &[cell]).unwrap(), Some(42));
    }

    // The export of this run: one line per lock, keyed by its LockId.
    let export: String = locks
        .iter()
        .enumerate()
        .map(|(id, l)| lock_line(id as u64, l.stats().snapshot()) + "\n")
        .collect();
    let prof = ObsProfile::parse(&export).expect("the export parses");
    assert_eq!(prof.activity(0).map(|s| s.write_enters), Some(12));
    assert_eq!(
        prof.activity(1).map(|s| (s.write_enters, s.read_enters)),
        Some((0, 12))
    );
    let heavy = prof.write_heavy(5, 0.5);
    assert_eq!(
        heavy,
        BTreeSet::from([0 as LockId]),
        "exactly the written lock"
    );

    let mut plan = interp.plan().clone();
    assert_eq!(
        plan.demote_locks(&heavy),
        1,
        "exactly get0's region demoted"
    );
    assert_eq!(plan.plan_counts(), (1, 0, 2));
    let at = Point { block: 0, inst: 0 };
    assert_eq!(
        plan.region_at(get0, at).unwrap().plan,
        LockPlan::Conventional
    );
    assert_eq!(
        plan.region_at(get1, at).unwrap().plan,
        LockPlan::Elide,
        "lock 1 keeps eliding"
    );
}
