//! End-to-end tests: programs flow through verify → classify → lower →
//! interpret, and the JIT-chosen lock plans behave identically to
//! conventional locking while actually eliding.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use solero::{Fault, SoleroLock, TasukiLock};
use solero_heap::{ClassId, Heap};
use solero_jit::builder::MethodBuilder;
use solero_jit::interp::{Interpreter, RuntimeLock};
use solero_jit::ir::{BinOp, Cmp, Program};

const CELL: ClassId = ClassId::new(1); // [value]
const PAIR: ClassId = ClassId::new(2); // [a, b]

/// Builds: reader `get(obj)` (synchronized read), writer
/// `set(obj, v)` (synchronized write of both pair fields).
fn pair_program() -> Program {
    let mut p = Program::new();

    // fn get(obj) { synchronized(l0) { a = obj.a; b = obj.b; } return a*1000 + b; }
    let mut g = MethodBuilder::new("get", 1);
    let a = g.fresh_local();
    let b = g.fresh_local();
    let k = g.fresh_local();
    g.monitor_enter(0)
        .get_field(a, 0, PAIR, 0)
        .get_field(b, 0, PAIR, 1)
        .monitor_exit(0)
        .constant(k, 1000)
        .binop(BinOp::Mul, a, a, k)
        .binop(BinOp::Add, a, a, b)
        .ret(Some(a));
    p.add(g.finish());

    // fn set(obj, v) { synchronized(l0) { obj.a = v; obj.b = v; } }
    let mut s = MethodBuilder::new("set", 2);
    s.monitor_enter(0)
        .put_field(0, PAIR, 0, 1)
        .put_field(0, PAIR, 1, 1)
        .monitor_exit(0)
        .ret(None);
    p.add(s.finish());
    p
}

#[test]
fn plans_match_the_paper_shapes() {
    let p = pair_program();
    let heap = Arc::new(Heap::new(1 << 10));
    let lock = Arc::new(SoleroLock::new());
    let interp = Interpreter::new(p, heap, vec![RuntimeLock::Solero(lock)]).unwrap();
    // One elided (get) + one conventional (set).
    assert_eq!(interp.plan().plan_counts(), (1, 0, 1));
}

#[test]
fn elided_read_and_conventional_write_roundtrip() {
    let p = pair_program();
    let get = p.find("get").unwrap();
    let set = p.find("set").unwrap();
    let heap = Arc::new(Heap::new(1 << 10));
    let obj = heap.alloc(PAIR, 2).unwrap();
    let lock = Arc::new(SoleroLock::new());
    let interp =
        Interpreter::new(p, Arc::clone(&heap), vec![RuntimeLock::Solero(Arc::clone(&lock))])
            .unwrap();

    interp.run(set, &[obj.raw() as i64, 7]).unwrap();
    let got = interp.run(get, &[obj.raw() as i64]).unwrap();
    assert_eq!(got, Some(7 * 1000 + 7));

    let st = lock.stats().snapshot();
    assert_eq!(st.write_enters, 1, "set acquired");
    assert_eq!(st.elision_success, 1, "get elided");
}

#[test]
fn solero_and_tasuki_agree_on_results() {
    for variant in 0..2 {
        let p = pair_program();
        let get = p.find("get").unwrap();
        let set = p.find("set").unwrap();
        let heap = Arc::new(Heap::new(1 << 10));
        let obj = heap.alloc(PAIR, 2).unwrap();
        let lock = match variant {
            0 => RuntimeLock::Solero(Arc::new(SoleroLock::new())),
            _ => RuntimeLock::Tasuki(Arc::new(TasukiLock::new())),
        };
        let interp = Interpreter::new(p, Arc::clone(&heap), vec![lock]).unwrap();
        for v in [1, 5, 123] {
            interp.run(set, &[obj.raw() as i64, v]).unwrap();
            assert_eq!(
                interp.run(get, &[obj.raw() as i64]).unwrap(),
                Some(v * 1000 + v),
                "variant {variant}"
            );
        }
    }
}

#[test]
fn concurrent_interpreted_readers_see_consistent_pairs() {
    let p = pair_program();
    let get = p.find("get").unwrap();
    let set = p.find("set").unwrap();
    let heap = Arc::new(Heap::new(1 << 12));
    let obj = heap.alloc(PAIR, 2).unwrap();
    let lock = Arc::new(SoleroLock::new());
    let interp = Arc::new(
        Interpreter::new(p, Arc::clone(&heap), vec![RuntimeLock::Solero(Arc::clone(&lock))])
            .unwrap(),
    );
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|sc| {
        {
            let (interp, stop) = (Arc::clone(&interp), Arc::clone(&stop));
            sc.spawn(move || {
                let mut v = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    interp.run(set, &[obj.raw() as i64, v % 500]).unwrap();
                    v += 1;
                }
            });
        }
        for _ in 0..4 {
            let interp = Arc::clone(&interp);
            sc.spawn(move || {
                for _ in 0..10_000 {
                    let got = interp.run(get, &[obj.raw() as i64]).unwrap().unwrap();
                    let (a, b) = (got / 1000, got % 1000);
                    assert_eq!(a, b, "validated read saw a torn pair: {got}");
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
        stop.store(true, Ordering::Relaxed);
    });
    let st = lock.stats().snapshot();
    assert!(st.elision_success > 0, "{st}");
}

#[test]
fn genuine_null_dereference_propagates() {
    let mut p = Program::new();
    let mut g = MethodBuilder::new("deref_null", 0);
    let obj = g.fresh_local();
    let v = g.fresh_local();
    g.constant(obj, 0) // null handle
        .monitor_enter(0)
        .get_field(v, obj, CELL, 0)
        .monitor_exit(0)
        .ret(Some(v));
    let mid = p.add(g.finish());
    let heap = Arc::new(Heap::new(64));
    let interp =
        Interpreter::new(p, heap, vec![RuntimeLock::Solero(Arc::new(SoleroLock::new()))]).unwrap();
    assert_eq!(interp.run(mid, &[]), Err(Fault::NullPointer));
}

#[test]
fn genuine_division_by_zero_propagates() {
    let mut p = Program::new();
    let mut g = MethodBuilder::new("div", 2);
    let r = g.fresh_local();
    g.binop(BinOp::Div, r, 0, 1).ret(Some(r));
    let mid = p.add(g.finish());
    let heap = Arc::new(Heap::new(64));
    let interp =
        Interpreter::new(p, heap, vec![RuntimeLock::Solero(Arc::new(SoleroLock::new()))]).unwrap();
    assert_eq!(interp.run(mid, &[10, 2]).unwrap(), Some(5));
    assert_eq!(interp.run(mid, &[10, 0]), Err(Fault::DivisionByZero));
}

#[test]
fn read_mostly_region_upgrades_only_on_the_cold_path() {
    // fn bump_if(obj, key) {
    //   synchronized(l0) {
    //     v = obj.a;
    //     if (v == key) { /* cold */ obj.b = v + 1; }
    //   }
    // }
    let mut p = Program::new();
    let mut b = MethodBuilder::new("bump_if", 2);
    let (obj, key) = (0, 1);
    let v = b.fresh_local();
    let one = b.fresh_local();
    let hot_exit = b.new_block();
    let cold = b.new_block();
    b.monitor_enter(0)
        .get_field(v, obj, PAIR, 0)
        .branch(v, Cmp::Eq, key, cold, hot_exit);
    b.switch_to(cold)
        .constant(one, 1)
        .binop(BinOp::Add, one, v, one)
        .put_field(obj, PAIR, 1, one)
        .jump(hot_exit);
    b.mark_cold(cold);
    b.switch_to(hot_exit).monitor_exit(0).ret(None);
    let mid = p.add(b.finish());

    let heap = Arc::new(Heap::new(1 << 10));
    let obj_ref = heap.alloc(PAIR, 2).unwrap();
    heap.store_i64(obj_ref, 0, 42).unwrap();
    let lock = Arc::new(SoleroLock::new());
    let interp =
        Interpreter::new(p, Arc::clone(&heap), vec![RuntimeLock::Solero(Arc::clone(&lock))])
            .unwrap();
    assert_eq!(interp.plan().plan_counts(), (0, 1, 0), "planned ElideMostly");

    // Hot path: no upgrade, pure elision.
    interp.run(mid, &[obj_ref.raw() as i64, 7]).unwrap();
    let st = lock.stats().snapshot();
    assert_eq!(st.mostly_upgrades, 0);
    assert_eq!(st.elision_success, 1);

    // Cold path: upgrade in place, write happens.
    interp.run(mid, &[obj_ref.raw() as i64, 42]).unwrap();
    let st = lock.stats().snapshot();
    assert_eq!(st.mostly_upgrades, 1);
    assert_eq!(heap.load_i64(obj_ref, PAIR, 1).unwrap(), 43);
}

#[test]
fn region_loop_checkpoints_under_concurrent_writes() {
    // Reader: synchronized { s = 0; for i in 0..n { s += arr[i] } }
    // Writer keeps rewriting the array; the reader's back-edge
    // check-points and validation must recover every time.
    const ARR: ClassId = ClassId::new(3);
    let mut p = Program::new();
    let mut r = MethodBuilder::new("sum", 2);
    let (arr, n) = (0, 1);
    let i = r.fresh_local();
    let s = r.fresh_local();
    let v = r.fresh_local();
    let one = r.fresh_local();
    let head = r.new_block();
    let body = r.new_block();
    let done = r.new_block();
    let after = r.new_block();
    r.monitor_enter(0)
        .constant(i, 0)
        .constant(s, 0)
        .constant(one, 1)
        .jump(head);
    r.switch_to(head).branch(i, Cmp::Lt, n, body, done);
    r.switch_to(body)
        .array_load(v, arr, ARR, i)
        .binop(BinOp::Add, s, s, v)
        .binop(BinOp::Add, i, i, one)
        .jump(head);
    r.switch_to(done).monitor_exit(0).jump(after);
    r.switch_to(after).ret(Some(s));
    let sum = p.add(r.finish());

    // Writer: synchronized { for i in 0..n { arr[i] = x } }
    let mut w = MethodBuilder::new("fill", 3);
    let (arr, n, x) = (0, 1, 2);
    let i = w.fresh_local();
    let one = w.fresh_local();
    let head = w.new_block();
    let body = w.new_block();
    let done = w.new_block();
    let after = w.new_block();
    w.monitor_enter(0).constant(i, 0).constant(one, 1).jump(head);
    w.switch_to(head).branch(i, Cmp::Lt, n, body, done);
    w.switch_to(body)
        .array_store(arr, ARR, i, x)
        .binop(BinOp::Add, i, i, one)
        .jump(head);
    w.switch_to(done).monitor_exit(0).jump(after);
    w.switch_to(after).ret(None);
    let fill = p.add(w.finish());

    const N: i64 = 64;
    let heap = Arc::new(Heap::new(1 << 12));
    let a = heap.alloc(ARR, N as u32).unwrap();
    let lock = Arc::new(SoleroLock::new());
    let interp = Arc::new(
        Interpreter::new(p, Arc::clone(&heap), vec![RuntimeLock::Solero(Arc::clone(&lock))])
            .unwrap(),
    );
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|sc| {
        {
            let (interp, stop) = (Arc::clone(&interp), Arc::clone(&stop));
            sc.spawn(move || {
                let mut x = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    interp.run(fill, &[a.raw() as i64, N, x]).unwrap();
                    x += 1;
                }
            });
        }
        for _ in 0..3 {
            let interp = Arc::clone(&interp);
            sc.spawn(move || {
                for _ in 0..2_000 {
                    let s = interp.run(sum, &[a.raw() as i64, N]).unwrap().unwrap();
                    // A validated sum must be N * x for some fill value x.
                    assert_eq!(s % N, 0, "torn array sum {s}");
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
        stop.store(true, Ordering::Relaxed);
    });
    let st = lock.stats().snapshot();
    assert!(st.elision_success > 0, "{st}");
}

#[test]
fn deep_call_chains_inside_elided_regions() {
    // Pure helper chain: f3(x) = x+1; f2 = f3(f3(x)); region calls f2.
    let mut p = Program::new();
    let mut f3 = MethodBuilder::new("f3", 1);
    let r = f3.fresh_local();
    let one = f3.fresh_local();
    f3.constant(one, 1).binop(BinOp::Add, r, 0, one).ret(Some(r));
    let f3_id = p.add(f3.finish());

    let mut f2 = MethodBuilder::new("f2", 1);
    let t = f2.fresh_local();
    f2.invoke(Some(t), f3_id, &[0]).invoke(Some(t), f3_id, &[t]).ret(Some(t));
    let f2_id = p.add(f2.finish());

    let mut m = MethodBuilder::new("entry", 1);
    let out = m.fresh_local();
    m.monitor_enter(0)
        .invoke(Some(out), f2_id, &[0])
        .monitor_exit(0)
        .ret(Some(out));
    let entry = p.add(m.finish());

    let heap = Arc::new(Heap::new(64));
    let lock = Arc::new(SoleroLock::new());
    let interp =
        Interpreter::new(p, heap, vec![RuntimeLock::Solero(Arc::clone(&lock))]).unwrap();
    assert_eq!(interp.plan().plan_counts(), (1, 0, 0), "pure calls elide");
    assert_eq!(interp.run(entry, &[40]).unwrap(), Some(42));
    assert_eq!(lock.stats().snapshot().elision_success, 1);
}

#[test]
fn tiered_recompilation_promotes_rare_writes() {
    use solero_jit::profile::Profile;

    // synchronized { v = obj.a; if (v == key) { obj.b = v } } — no
    // static cold marks; only a profile can prove the write is rare.
    fn build() -> (Program, u32) {
        let mut p = Program::new();
        let mut b = MethodBuilder::new("lookup", 2);
        let (obj, key) = (0, 1);
        let v = b.fresh_local();
        let exit_bb = b.new_block();
        let write_bb = b.new_block();
        b.monitor_enter(0)
            .get_field(v, obj, PAIR, 0)
            .branch(v, Cmp::Eq, key, write_bb, exit_bb);
        b.switch_to(write_bb).put_field(obj, PAIR, 1, v).jump(exit_bb);
        b.switch_to(exit_bb).monitor_exit(0).ret(None);
        let mid = p.add(b.finish());
        (p, mid)
    }

    let heap = Arc::new(Heap::new(1 << 10));
    let obj = heap.alloc(PAIR, 2).unwrap();
    heap.store_i64(obj, 0, 42).unwrap();

    // Tier 1: conventional execution with profiling.
    let (mut program, lookup) = build();
    let lock1 = Arc::new(SoleroLock::new());
    let mut tier1 = Interpreter::new(
        program.clone(),
        Arc::clone(&heap),
        vec![RuntimeLock::Solero(Arc::clone(&lock1))],
    )
    .unwrap();
    assert_eq!(tier1.plan().plan_counts(), (0, 0, 1), "statically Writing");
    let profile = Arc::new(Profile::for_program(&program));
    tier1.attach_profile(Arc::clone(&profile));
    for i in 0..5_000 {
        // key=42 matches (and writes) only once in a while.
        let key = if i % 500 == 0 { 42 } else { 7 };
        tier1.run(lookup, &[obj.raw() as i64, key]).unwrap();
    }
    assert_eq!(
        lock1.stats().snapshot().write_enters,
        5_000,
        "tier 1 always acquires"
    );

    // Tier 2: re-plan with the profile — the region becomes ReadMostly.
    profile.mark_cold(&mut program, 0.05);
    let lock2 = Arc::new(SoleroLock::new());
    let tier2 = Interpreter::new(
        program,
        Arc::clone(&heap),
        vec![RuntimeLock::Solero(Arc::clone(&lock2))],
    )
    .unwrap();
    assert_eq!(tier2.plan().plan_counts(), (0, 1, 0), "promoted to ElideMostly");
    for i in 0..5_000 {
        let key = if i % 500 == 0 { 42 } else { 7 };
        tier2.run(lookup, &[obj.raw() as i64, key]).unwrap();
    }
    let st = lock2.stats().snapshot();
    assert_eq!(st.mostly_upgrades, 10, "only the rare hits upgraded");
    assert_eq!(st.elision_success, 4_990, "the common path elided");
    assert_eq!(heap.load_i64(obj, PAIR, 1).unwrap(), 42, "writes landed");
}
