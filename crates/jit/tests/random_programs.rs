//! Differential property testing of the whole JIT pipeline.
//!
//! Random structured programs (arithmetic, field reads, optional field
//! writes, bounded loops, all inside a synchronized region) are run
//! under the conventional tasuki lock and under SOLERO; results and
//! final heap state must agree, and the classifier's verdict must match
//! a reference predicate ("did the generator emit a write?").

use std::sync::Arc;

use solero::{SoleroLock, TasukiLock};
use solero_heap::{ClassId, Heap};
use solero_jit::analysis::{classify_method, RegionClass};
use solero_jit::builder::MethodBuilder;
use solero_jit::interp::{Interpreter, RuntimeLock};
use solero_jit::ir::{BinOp, Cmp, Program};
use solero_jit::verify::verify_program;
use solero_testkit::{forall, Gen, TestRng};

/// Object layout used by generated programs: 4 data fields.
const OBJ: ClassId = ClassId::new(7);
const FIELDS: u32 = 4;

/// One generated operation inside the synchronized region.
#[derive(Debug, Clone)]
enum OpSpec {
    /// `scratch[d] = constant`
    Const(u8, i64),
    /// `scratch[d] = scratch[a] <op> scratch[b]` (no div: keep it
    /// fault-free so results compare exactly)
    Arith(u8, u8, u8, u8),
    /// `scratch[d] = obj.field`
    Read(u8, u8),
    /// `obj.field = scratch[s]` — makes the region Writing.
    Write(u8, u8),
    /// `for i in 0..n { scratch[d] ^= obj.field }`
    LoopRead(u8, u8, u8),
}

const SCRATCH: u8 = 4;

fn gen_op(rng: &mut TestRng, allow_writes: bool) -> OpSpec {
    let kinds = if allow_writes { 5u32 } else { 4 };
    match rng.gen_range(0..kinds) {
        0 => OpSpec::Const(rng.gen_range(0..SCRATCH), rng.gen_range(-100i64..100)),
        1 => OpSpec::Arith(
            rng.gen_range(0..SCRATCH),
            rng.gen_range(0..SCRATCH),
            rng.gen_range(0..SCRATCH),
            rng.gen_range(0u8..3),
        ),
        2 => OpSpec::Read(rng.gen_range(0..SCRATCH), rng.gen_range(0..FIELDS as u8)),
        3 => OpSpec::LoopRead(
            rng.gen_range(0..SCRATCH),
            rng.gen_range(0..FIELDS as u8),
            rng.gen_range(1u8..6),
        ),
        _ => OpSpec::Write(rng.gen_range(0..FIELDS as u8), rng.gen_range(0..SCRATCH)),
    }
}

/// `n ∈ [0, hi)` generated ops, `n` shrink-scaled through [`Gen::size`].
fn gen_ops(g: &mut Gen, hi: usize, allow_writes: bool) -> Vec<OpSpec> {
    let n = g.size(0, hi);
    (0..n).map(|_| gen_op(g.rng(), allow_writes)).collect()
}

/// Builds `fn main(obj) { synchronized(l0) { ops } return mix(scratch) }`.
fn build_program(ops: &[OpSpec]) -> (Program, bool) {
    let mut has_write = false;
    let mut b = MethodBuilder::new("generated", 1);
    let obj = 0;
    let scratch: Vec<_> = (0..SCRATCH).map(|_| b.fresh_local()).collect();
    b.monitor_enter(0);
    // Initialize scratch inside the region so nothing is live at entry.
    for (i, &s) in scratch.iter().enumerate() {
        b.constant(s, i as i64 + 1);
    }
    for op in ops {
        match *op {
            OpSpec::Const(d, v) => {
                b.constant(scratch[d as usize], v);
            }
            OpSpec::Arith(d, x, y, o) => {
                let op = match o {
                    0 => BinOp::Add,
                    1 => BinOp::Sub,
                    _ => BinOp::Xor,
                };
                b.binop(op, scratch[d as usize], scratch[x as usize], scratch[y as usize]);
            }
            OpSpec::Read(d, f) => {
                b.get_field(scratch[d as usize], obj, OBJ, f as u32);
            }
            OpSpec::Write(f, s) => {
                has_write = true;
                b.put_field(obj, OBJ, f as u32, scratch[s as usize]);
            }
            OpSpec::LoopRead(d, f, n) => {
                let i = b.fresh_local();
                let bound = b.fresh_local();
                let one = b.fresh_local();
                let tmp = b.fresh_local();
                b.constant(i, 0).constant(bound, n as i64).constant(one, 1);
                let head = b.new_block();
                let body = b.new_block();
                let done = b.new_block();
                b.jump(head);
                b.switch_to(head).branch(i, Cmp::Lt, bound, body, done);
                b.switch_to(body)
                    .get_field(tmp, obj, OBJ, f as u32)
                    .binop(BinOp::Xor, scratch[d as usize], scratch[d as usize], tmp)
                    .binop(BinOp::Add, i, i, one)
                    .jump(head);
                b.switch_to(done);
            }
        }
    }
    b.monitor_exit(0);
    // Fold the scratch registers into one observable result.
    let acc = b.fresh_local();
    b.mov(acc, scratch[0]);
    for &s in &scratch[1..] {
        b.binop(BinOp::Xor, acc, acc, s);
    }
    b.ret(Some(acc));
    let mut p = Program::new();
    p.add(b.finish());
    (p, has_write)
}

fn run_under(
    p: &Program,
    lock: RuntimeLock,
    init: &[i64],
) -> (Option<i64>, Vec<i64>) {
    let heap = Arc::new(Heap::new(1 << 10));
    let obj = heap.alloc(OBJ, FIELDS).unwrap();
    for (i, &v) in init.iter().enumerate() {
        heap.store_i64(obj, i as u32, v).unwrap();
    }
    let interp = Interpreter::new(p.clone(), Arc::clone(&heap), vec![lock]).unwrap();
    let r = interp
        .run_with_fuel(0, &[obj.raw() as i64], 1_000_000)
        .unwrap();
    let finals = (0..FIELDS)
        .map(|f| heap.load_i64(obj, OBJ, f).unwrap())
        .collect();
    (r, finals)
}

#[test]
fn generated_programs_verify() {
    forall(128, 0x11E1_01, |g| {
        let ops = gen_ops(g, 12, true);
        let (p, _) = build_program(&ops);
        assert_eq!(verify_program(&p), Ok(()));
    });
}

#[test]
fn classifier_matches_reference_predicate() {
    forall(128, 0x11E1_02, |g| {
        let ops = gen_ops(g, 12, true);
        let (p, has_write) = build_program(&ops);
        let classes = classify_method(&p, 0);
        assert_eq!(classes.len(), 1);
        // No cold marks ⇒ the only possible classes are ReadOnly and
        // Writing, decided exactly by the presence of a heap write.
        let expected = if has_write { RegionClass::Writing } else { RegionClass::ReadOnly };
        assert_eq!(classes[0].class, expected);
    });
}

#[test]
fn solero_and_tasuki_execute_identically() {
    forall(128, 0x11E1_03, |g| {
        let ops = gen_ops(g, 12, true);
        let init: Vec<i64> = (0..4).map(|_| g.gen_range(-50i64..50)).collect();
        let (p, has_write) = build_program(&ops);
        let solero_lock = Arc::new(SoleroLock::new());
        let got_solero = run_under(&p, RuntimeLock::Solero(Arc::clone(&solero_lock)), &init);
        let got_tasuki = run_under(&p, RuntimeLock::Tasuki(Arc::new(TasukiLock::new())), &init);
        assert_eq!(&got_solero, &got_tasuki, "lock choice changed the semantics");
        // Read-only programs must actually elide under SOLERO.
        if !has_write {
            assert_eq!(solero_lock.stats().snapshot().elision_success, 1);
        } else {
            assert_eq!(solero_lock.stats().snapshot().write_enters, 1);
        }
    });
}

#[test]
fn elided_programs_elide_on_every_repetition() {
    forall(128, 0x11E1_04, |g| {
        let ops = gen_ops(g, 10, false);
        let reps = g.size(1, 20);
        let (p, has_write) = build_program(&ops);
        assert!(!has_write);
        let heap = Arc::new(Heap::new(1 << 10));
        let obj = heap.alloc(OBJ, FIELDS).unwrap();
        let lock = Arc::new(SoleroLock::new());
        let interp = Interpreter::new(
            p,
            Arc::clone(&heap),
            vec![RuntimeLock::Solero(Arc::clone(&lock))],
        ).unwrap();
        let first = interp.run_with_fuel(0, &[obj.raw() as i64], 1_000_000).unwrap();
        for _ in 1..reps {
            let again = interp.run_with_fuel(0, &[obj.raw() as i64], 1_000_000).unwrap();
            assert_eq!(again, first, "read-only program must be deterministic");
        }
        let st = lock.stats().snapshot();
        assert_eq!(st.elision_success, reps as u64);
        assert_eq!(st.elision_failure, 0);
        assert_eq!(st.write_enters, 0);
    });
}
