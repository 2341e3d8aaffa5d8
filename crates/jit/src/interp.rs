//! The execution engine.
//!
//! The interpreter plays the role of the JIT-compiled code: it executes
//! IR methods against the shadow heap, entering each synchronized
//! region through the code shape its [`LockPlan`] prescribes —
//! conventional acquisition, read-only elision with validation and
//! recovery, or read-mostly elision with in-place upgrade.
//!
//! Speculative semantics are exact:
//!
//! * an elided region executes on a **copy** of the frame's locals,
//!   committed only when the SOLERO driver accepts the attempt — so a
//!   re-execution observes pristine locals (this is why the classifier
//!   may reject regions writing *live-in* locals and still be safe
//!   here: the engine restores all locals regardless);
//! * heap faults inside the region surface as `Err(Fault)` and flow to
//!   the SOLERO recovery driver, which retries or propagates;
//! * the validation check-point is polled at intra-region loop
//!   back-edges and at method entries, as the paper's JIT inserts its
//!   asynchronous checks.

use std::sync::Arc;

use solero::{Fault, NullCheckpoint, SoleroLock, TasukiLock, WriteIntent};
use solero_heap::{Heap, ObjRef};
use solero_runtime::thread::ThreadId;

use crate::ir::{BinOp, Inst, MethodId, Point, Program, Terminator};
use crate::lower::{LockPlan, PlannedRegion, ProgramPlan};
use crate::profile::Profile;
use crate::verify::{verify_program, VerifyError};

/// Maximum interpreter call depth.
const MAX_CALL_DEPTH: u32 = 256;

/// A lock implementation bound to a [`crate::ir::LockId`].
#[derive(Debug, Clone)]
pub enum RuntimeLock {
    /// SOLERO: regions follow their lock plans.
    Solero(Arc<SoleroLock>),
    /// Conventional tasuki lock: every region acquires.
    Tasuki(Arc<TasukiLock>),
}

/// What a write instruction may do in the current execution context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteMode {
    /// Outside any elided region (or under a held lock): writes are free.
    Free,
    /// Inside an elided read-only region: writes are a classifier bug.
    Forbidden,
    /// Inside an elided read-mostly region: upgrade before each write.
    Upgrade,
}

struct Ctx<'a> {
    ck: &'a mut dyn WriteIntent,
    mode: WriteMode,
    depth: u32,
    fuel: &'a mut u64,
}

/// Executes IR programs with JIT-planned lock elision.
///
/// # Examples
///
/// ```
/// use solero_jit::builder::MethodBuilder;
/// use solero_jit::interp::{Interpreter, RuntimeLock};
/// use solero_jit::ir::Program;
/// use solero::SoleroLock;
/// use solero_heap::{ClassId, Heap};
/// use std::sync::Arc;
///
/// const CELL: ClassId = ClassId::new(1);
/// let heap = Arc::new(Heap::new(1 << 10));
/// let cell = heap.alloc(CELL, 1).unwrap();
/// heap.store_i64(cell, 0, 99).unwrap();
///
/// // fn read(obj) { synchronized(lock0) { return obj.f } }
/// let mut p = Program::new();
/// let mut b = MethodBuilder::new("read", 1);
/// let v = b.fresh_local();
/// b.monitor_enter(0).get_field(v, 0, CELL, 0).monitor_exit(0).ret(Some(v));
/// let read = p.add(b.finish());
///
/// let lock = Arc::new(SoleroLock::new());
/// let interp = Interpreter::new(p, Arc::clone(&heap),
///     vec![RuntimeLock::Solero(Arc::clone(&lock))]).unwrap();
/// let got = interp.run(read, &[cell.raw() as i64]).unwrap();
/// assert_eq!(got, Some(99));
/// // The region was classified read-only and elided:
/// assert_eq!(lock.stats().snapshot().elision_success, 1);
/// ```
#[derive(Debug)]
pub struct Interpreter {
    program: Program,
    plan: ProgramPlan,
    heap: Arc<Heap>,
    locks: Vec<RuntimeLock>,
    profile: Option<Arc<Profile>>,
}

impl Interpreter {
    /// Verifies `program`, computes its lock plans, and builds the
    /// engine. `locks[i]` backs `LockId` `i`.
    ///
    /// # Errors
    ///
    /// [`VerifyError`] if the program is structurally ill-formed.
    pub fn new(
        program: Program,
        heap: Arc<Heap>,
        locks: Vec<RuntimeLock>,
    ) -> Result<Self, VerifyError> {
        verify_program(&program)?;
        let plan = ProgramPlan::compute(&program);
        Ok(Interpreter {
            program,
            plan,
            heap,
            locks,
            profile: None,
        })
    }

    /// Attaches an execution profile; subsequent runs record per-block
    /// counts into it (the first tier of profile-guided read-mostly
    /// planning — see [`crate::profile`]).
    pub fn attach_profile(&mut self, profile: Arc<Profile>) {
        self.profile = Some(profile);
    }

    #[inline]
    fn record(&self, mid: MethodId, bid: u32) {
        if let Some(p) = &self.profile {
            p.hit(mid, bid);
        }
    }

    /// The computed lock plans (diagnostics, tests).
    pub fn plan(&self) -> &ProgramPlan {
        &self.plan
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The shadow heap.
    pub fn heap(&self) -> &Arc<Heap> {
        &self.heap
    }

    /// Runs `method` with `args`.
    ///
    /// # Errors
    ///
    /// A genuine [`Fault`] (uncaught runtime exception) raised by the
    /// program. Speculation artifacts never escape.
    ///
    /// # Panics
    ///
    /// Panics on interpreter bugs (call-depth overflow) — not on
    /// program-level faults.
    pub fn run(&self, method: MethodId, args: &[i64]) -> Result<Option<i64>, Fault> {
        self.run_with_fuel(method, args, u64::MAX)
    }

    /// Like [`Interpreter::run`] with an instruction budget — a test
    /// harness guard against genuinely non-terminating programs.
    ///
    /// # Errors
    ///
    /// As [`Interpreter::run`].
    ///
    /// # Panics
    ///
    /// Panics when the budget is exhausted.
    pub fn run_with_fuel(
        &self,
        method: MethodId,
        args: &[i64],
        fuel: u64,
    ) -> Result<Option<i64>, Fault> {
        let mut fuel = fuel;
        let mut ck = NullCheckpoint;
        let mut ctx = Ctx {
            ck: &mut ck,
            mode: WriteMode::Free,
            depth: 0,
            fuel: &mut fuel,
        };
        self.call(method, args, &mut ctx)
    }

    fn call(&self, mid: MethodId, args: &[i64], ctx: &mut Ctx<'_>) -> Result<Option<i64>, Fault> {
        assert!(ctx.depth < MAX_CALL_DEPTH, "interpreter call depth exceeded");
        // Method-entry check-point (§3.3).
        ctx.ck.checkpoint()?;
        let m = self.program.method(mid);
        debug_assert_eq!(args.len(), m.params as usize);
        self.record(mid, 0);
        let mut frame = vec![0i64; m.locals as usize];
        frame[..args.len()].copy_from_slice(args);
        self.exec_body(mid, &mut frame, ctx)
    }

    /// Executes a method body from its entry until `Return`.
    fn exec_body(
        &self,
        mid: MethodId,
        frame: &mut Vec<i64>,
        ctx: &mut Ctx<'_>,
    ) -> Result<Option<i64>, Fault> {
        let m = self.program.method(mid);
        let mut bid = 0u32;
        let mut idx = 0usize;
        loop {
            let b = m.block(bid);
            if idx < b.insts.len() {
                match &b.insts[idx] {
                    Inst::MonitorEnter { .. } => {
                        let exit = self.enter_region(
                            mid,
                            Point {
                                block: bid,
                                inst: idx,
                            },
                            frame,
                            ctx,
                        )?;
                        bid = exit.block;
                        idx = exit.inst + 1;
                    }
                    Inst::MonitorExit { .. } => {
                        unreachable!("verified IR cannot exit an unentered monitor")
                    }
                    inst => {
                        self.step(inst, frame, ctx)?;
                        idx += 1;
                    }
                }
                continue;
            }
            match &b.term {
                Terminator::Jump(t) => {
                    // Conservative back-edge heuristic for loops in
                    // invoked methods: backward jumps poll the check-point.
                    if *t <= bid {
                        ctx.ck.checkpoint()?;
                    }
                    self.record(mid, *t);
                    bid = *t;
                    idx = 0;
                }
                Terminator::Branch {
                    lhs,
                    cmp,
                    rhs,
                    then_bb,
                    else_bb,
                } => {
                    let t = if cmp.eval(frame[*lhs as usize], frame[*rhs as usize]) {
                        *then_bb
                    } else {
                        *else_bb
                    };
                    if t <= bid {
                        ctx.ck.checkpoint()?;
                    }
                    self.record(mid, t);
                    bid = t;
                    idx = 0;
                }
                Terminator::Return(v) => return Ok(v.map(|l| frame[l as usize])),
            }
        }
    }

    /// Dispatches a `monitorenter` through the region's lock plan.
    /// Returns the point of the matching `monitorexit`; the caller
    /// resumes after it.
    fn enter_region(
        &self,
        mid: MethodId,
        enter: Point,
        frame: &mut Vec<i64>,
        ctx: &mut Ctx<'_>,
    ) -> Result<Point, Fault> {
        let planned = self
            .plan
            .region_at(mid, enter)
            .expect("every monitorenter has a planned region");
        let lock_id = planned.region.lock as usize;
        match &self.locks[lock_id] {
            RuntimeLock::Tasuki(l) => {
                let tid = ThreadId::current();
                if planned.plan == LockPlan::Conventional {
                    l.enter(tid);
                } else {
                    // Would-be-elided region: same acquisition, counted
                    // as a read section (strategy-independent Table 1).
                    l.enter_read(tid);
                }
                let res = self.exec_region(mid, planned, frame, ctx);
                l.exit(tid);
                res
            }
            RuntimeLock::Solero(l) => match planned.plan {
                LockPlan::Conventional => {
                    let tid = ThreadId::current();
                    let t = l.enter_write(tid);
                    let res = self.exec_region(mid, planned, frame, ctx);
                    l.exit_write(tid, t);
                    res
                }
                LockPlan::Elide => {
                    let base = frame.clone();
                    let depth = ctx.depth;
                    let fuel: &mut u64 = ctx.fuel;
                    let (committed, exit) = l.read_only(|s| {
                        let mut work = base.clone();
                        let mut inner = Ctx {
                            ck: s,
                            // Read-only regions never write, speculative
                            // or fallback alike.
                            mode: WriteMode::Forbidden,
                            depth,
                            fuel: &mut *fuel,
                        };
                        let exit = self.exec_region(mid, planned, &mut work, &mut inner)?;
                        Ok((work, exit))
                    })?;
                    *frame = committed;
                    Ok(exit)
                }
                LockPlan::ElideMostly => {
                    let base = frame.clone();
                    let depth = ctx.depth;
                    let fuel: &mut u64 = ctx.fuel;
                    let (committed, exit) = l.read_mostly(|s| {
                        let mut work = base.clone();
                        let mut inner = Ctx {
                            ck: s,
                            mode: WriteMode::Upgrade,
                            depth,
                            fuel: &mut *fuel,
                        };
                        let exit = self.exec_region(mid, planned, &mut work, &mut inner)?;
                        Ok((work, exit))
                    })?;
                    *frame = committed;
                    Ok(exit)
                }
            },
        }
    }

    /// Executes region code from just after its `monitorenter` to the
    /// matching `monitorexit`, whose point is returned. Nested regions
    /// are entered recursively (so a directly encountered exit always
    /// belongs to this region).
    fn exec_region(
        &self,
        mid: MethodId,
        planned: &PlannedRegion,
        frame: &mut Vec<i64>,
        ctx: &mut Ctx<'_>,
    ) -> Result<Point, Fault> {
        let m = self.program.method(mid);
        let mut bid = planned.region.enter.block;
        let mut idx = planned.region.enter.inst + 1;
        loop {
            let b = m.block(bid);
            if idx < b.insts.len() {
                let pt = Point {
                    block: bid,
                    inst: idx,
                };
                match &b.insts[idx] {
                    Inst::MonitorExit { lock } => {
                        debug_assert_eq!(*lock, planned.region.lock, "verified nesting");
                        return Ok(pt);
                    }
                    Inst::MonitorEnter { .. } => {
                        debug_assert_eq!(
                            ctx.mode,
                            WriteMode::Free,
                            "classifier must not elide regions containing monitors"
                        );
                        let exit = self.enter_region(mid, pt, frame, ctx)?;
                        bid = exit.block;
                        idx = exit.inst + 1;
                    }
                    inst => {
                        self.step(inst, frame, ctx)?;
                        idx += 1;
                    }
                }
                continue;
            }
            let next = match &b.term {
                Terminator::Jump(t) => *t,
                Terminator::Branch {
                    lhs,
                    cmp,
                    rhs,
                    then_bb,
                    else_bb,
                } => {
                    if cmp.eval(frame[*lhs as usize], frame[*rhs as usize]) {
                        *then_bb
                    } else {
                        *else_bb
                    }
                }
                Terminator::Return(_) => {
                    unreachable!("verified IR cannot return inside a region")
                }
            };
            // Precise intra-region back-edges: the JIT's loop
            // check-points (§3.3).
            if planned.backedges.contains(&(bid, next)) {
                ctx.ck.checkpoint()?;
            }
            self.record(mid, next);
            bid = next;
            idx = 0;
        }
    }

    /// Executes one non-monitor instruction.
    fn step(&self, inst: &Inst, frame: &mut [i64], ctx: &mut Ctx<'_>) -> Result<(), Fault> {
        *ctx.fuel = ctx
            .fuel
            .checked_sub(1)
            .expect("interpreter fuel exhausted — non-terminating program?");
        match inst {
            Inst::Const { dst, value } => frame[*dst as usize] = *value,
            Inst::Move { dst, src } => frame[*dst as usize] = frame[*src as usize],
            Inst::BinOp { op, dst, lhs, rhs } => {
                let (a, b) = (frame[*lhs as usize], frame[*rhs as usize]);
                frame[*dst as usize] = match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => {
                        if b == 0 {
                            return Err(Fault::DivisionByZero);
                        }
                        a.wrapping_div(b)
                    }
                    BinOp::Rem => {
                        if b == 0 {
                            return Err(Fault::DivisionByZero);
                        }
                        a.wrapping_rem(b)
                    }
                    BinOp::And => a & b,
                    BinOp::Or => a | b,
                    BinOp::Xor => a ^ b,
                    BinOp::Shl => a.wrapping_shl(b as u32),
                    BinOp::Shr => a.wrapping_shr(b as u32),
                };
            }
            Inst::New { dst, class, len } => {
                self.gate_write(ctx)?;
                let r = self.heap.alloc(*class, *len).expect("shadow heap exhausted");
                frame[*dst as usize] = r.raw() as i64;
            }
            Inst::GetField {
                dst,
                obj,
                class,
                field,
            } => {
                let r = Self::as_ref(frame[*obj as usize]);
                frame[*dst as usize] = self.heap.load_i64(r, *class, *field)?;
            }
            Inst::PutField {
                obj,
                class,
                field,
                src,
            } => {
                self.gate_write(ctx)?;
                let r = Self::as_ref(frame[*obj as usize]);
                // Class check on the writer side too (genuine errors).
                let _ = self.heap.load(r, *class, *field)?;
                self.heap.store_i64(r, *field, frame[*src as usize])?;
            }
            Inst::ArrayLen { dst, arr } => {
                let r = Self::as_ref(frame[*arr as usize]);
                frame[*dst as usize] = self.heap.len_of(r)? as i64;
            }
            Inst::ArrayLoad {
                dst,
                arr,
                class,
                index,
            } => {
                let r = Self::as_ref(frame[*arr as usize]);
                let i = Self::as_index(frame[*index as usize], self.heap.len_of(r)?)?;
                frame[*dst as usize] = self.heap.load_i64(r, *class, i)?;
            }
            Inst::ArrayStore {
                arr,
                class,
                index,
                src,
            } => {
                self.gate_write(ctx)?;
                let r = Self::as_ref(frame[*arr as usize]);
                let i = Self::as_index(frame[*index as usize], self.heap.len_of(r)?)?;
                let _ = self.heap.load(r, *class, i)?;
                self.heap.store_i64(r, i, frame[*src as usize])?;
            }
            Inst::Invoke { dst, method, args } => {
                let argv: Vec<i64> = args.iter().map(|&a| frame[a as usize]).collect();
                let mut inner = Ctx {
                    ck: &mut *ctx.ck,
                    mode: ctx.mode,
                    depth: ctx.depth + 1,
                    fuel: &mut *ctx.fuel,
                };
                let r = self.call(*method, &argv, &mut inner)?;
                if let Some(d) = dst {
                    frame[*d as usize] = r.unwrap_or(0);
                }
            }
            Inst::MonitorEnter { .. } | Inst::MonitorExit { .. } => {
                unreachable!("monitor instructions are handled by the region dispatcher")
            }
        }
        Ok(())
    }

    fn gate_write(&self, ctx: &mut Ctx<'_>) -> Result<(), Fault> {
        match ctx.mode {
            WriteMode::Free => Ok(()),
            WriteMode::Upgrade => ctx.ck.ensure_write(),
            WriteMode::Forbidden => {
                unreachable!("heap write inside an elided read-only region — classifier bug")
            }
        }
    }

    #[inline]
    fn as_ref(v: i64) -> ObjRef {
        ObjRef::from_raw(v as u32)
    }

    #[inline]
    fn as_index(v: i64, len: u32) -> Result<u32, Fault> {
        if v < 0 || v >= len as i64 {
            Err(Fault::IndexOutOfBounds { index: v, len })
        } else {
            Ok(v as u32)
        }
    }
}
