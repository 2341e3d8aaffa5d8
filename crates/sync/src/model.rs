//! Scheduler-facing data model, compiled in **every** build.
//!
//! The cooperative runtime (`crate::rt`) only exists under
//! `--cfg solero_mc`, but the vocabulary it speaks — decision points,
//! choosers, execution results, the printed trace format — is plain
//! data. Keeping it cfg-free lets `solero-mc` compile (and unit-test
//! its DFS/replay logic) in ordinary builds, so the tier-1 suite
//! exercises the explorer's control logic without the shims.

/// Hard cap on virtual threads per execution. Small on purpose: the
/// schedule space is exponential in thread count, and every scenario
/// the checkers run fits in 3–4 threads.
pub const MAX_THREADS: usize = 8;

/// First pseudo-thread id used for store-buffer flush options under the
/// weak-memory mode ([`Opts::weak_memory`]). A [`Decision::Thread`]
/// option `FLUSH_BASE + t` means "apply the oldest buffered store of
/// virtual thread `t` to memory" rather than "run thread `t`". Flush
/// pseudo-ids also appear as [`StepRec::thread`] on
/// [`AccessKind::StoreFlush`] records so the DPOR analysis can reorder
/// a flush independently of its issuing thread.
pub const FLUSH_BASE: usize = MAX_THREADS;

/// One point in an execution where more than one continuation exists.
///
/// The scheduler consults the [`Chooser`] *only* when there are at
/// least two options; forced steps are not decisions and do not appear
/// in the trace. That keeps traces short and makes replay independent
/// of how many single-option steps surround each real choice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Pick which virtual thread runs next.
    Thread {
        /// Slot of the thread that just yielded (it may or may not be
        /// in `enabled`; when it is not, any choice is a forced switch
        /// rather than a preemption).
        current: u32,
        /// Slots currently able to run, in ascending slot order.
        enabled: Vec<u32>,
    },
    /// Pick which store a `Relaxed` load observes (index into the
    /// candidate window, oldest first; the last index is the newest
    /// store, i.e. the sequentially consistent answer).
    Value {
        /// Number of candidate stores (always ≥ 2 when consulted).
        candidates: u32,
    },
}

impl Decision {
    /// Number of options at this decision.
    pub fn options(&self) -> u32 {
        match self {
            Decision::Thread { enabled, .. } => enabled.len() as u32,
            Decision::Value { candidates } => *candidates,
        }
    }
}

/// Strategy that resolves decision points. Implemented by the DFS,
/// seeded-random and replay choosers in `solero-mc`.
pub trait Chooser: Send {
    /// Returns the index of the option to take (`< d.options()`).
    fn choose(&mut self, d: &Decision) -> u32;
}

/// What one scheduled step did, for the dependence (conflict) relation
/// of dynamic partial-order reduction.
///
/// Read-class and write-class operations on the same address conflict
/// when at least one is write-class; `Spawn`/`Join` never conflict with
/// anything — they only contribute happens-before edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Non-`Relaxed` atomic load (read class).
    Load,
    /// `Relaxed` atomic load (read class; may observe stale stores).
    LoadRelaxed,
    /// Atomic store (write class).
    Store,
    /// Read-modify-write (write class).
    Rmw,
    /// Successful compare-exchange (write class).
    CasSuccess,
    /// Failed compare-exchange — a load of the newest value (read class).
    CasFail,
    /// Mutex acquisition (write class on the mutex address).
    MutexLock,
    /// Mutex release (write class on the mutex address).
    MutexUnlock,
    /// Condvar wait enqueue (write class on the condvar address).
    CvWait,
    /// Condvar wake-up — notified or timed out (write class on the
    /// condvar address, so the wake is ordered after its notify).
    CvWake,
    /// Condvar notify (write class on the condvar address).
    CvNotify,
    /// Virtual-thread spawn; `addr` is the child slot (hb edge only).
    Spawn,
    /// Virtual-thread join; `addr` is the target slot (hb edge only).
    Join,
    /// `atomic::fence(ord)` through the facade. Orders the issuing
    /// thread's own operations (a drain point under the weak-memory
    /// mode when `SeqCst`); conflicts with nothing by itself.
    Fence,
    /// The modeled Store→Load barrier (`storeload_fence`): always a
    /// full drain of the issuing thread's store buffer.
    StoreLoadFence,
    /// Weak-memory mode only: a store deposited into the issuing
    /// thread's store buffer. Not yet visible to anyone else, so it is
    /// neither read- nor write-class; the conflict-relevant write is
    /// the later [`AccessKind::StoreFlush`].
    StoreBuffered,
    /// Weak-memory mode only: a buffered store becoming globally
    /// visible (write class). Attributed to pseudo-thread
    /// [`FLUSH_BASE`]` + owner` so DPOR can reverse a flush against a
    /// racing access without also reordering the owner's program.
    StoreFlush,
}

/// Address spaces for access records. Mutex/condvar shims key their
/// model state by the shim's own address, which can numerically collide
/// with an atomic cell's address; tagging the space keeps the conflict
/// relation from inventing cross-type dependencies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessSpace {
    /// Atomic cells.
    Atomic,
    /// Model mutexes.
    Mutex,
    /// Model condvars.
    Cv,
    /// Thread slots (spawn/join).
    Thread,
    /// Fences (no location; `addr` is always 0).
    Fence,
}

impl AccessKind {
    /// True for operations that behave like a write for the conflict
    /// relation. Lock and condvar operations are all write-class on
    /// their own address — conservative, and exactly how classic DPOR
    /// treats acquire/release.
    pub fn is_write_class(self) -> bool {
        matches!(
            self,
            AccessKind::Store
                | AccessKind::StoreFlush
                | AccessKind::Rmw
                | AccessKind::CasSuccess
                | AccessKind::MutexLock
                | AccessKind::MutexUnlock
                | AccessKind::CvWait
                | AccessKind::CvWake
                | AccessKind::CvNotify
        )
    }

    /// True for operations that behave like a read.
    pub fn is_read_class(self) -> bool {
        matches!(
            self,
            AccessKind::Load | AccessKind::LoadRelaxed | AccessKind::CasFail
        )
    }

    /// The address space this kind's `addr` lives in.
    pub fn space(self) -> AccessSpace {
        match self {
            AccessKind::Load
            | AccessKind::LoadRelaxed
            | AccessKind::Store
            | AccessKind::StoreBuffered
            | AccessKind::StoreFlush
            | AccessKind::Rmw
            | AccessKind::CasSuccess
            | AccessKind::CasFail => AccessSpace::Atomic,
            AccessKind::MutexLock | AccessKind::MutexUnlock => AccessSpace::Mutex,
            AccessKind::CvWait | AccessKind::CvWake | AccessKind::CvNotify => AccessSpace::Cv,
            AccessKind::Spawn | AccessKind::Join => AccessSpace::Thread,
            AccessKind::Fence | AccessKind::StoreLoadFence => AccessSpace::Fence,
        }
    }
}

/// One executed operation of an execution, in program order of the
/// whole schedule. The runtime records these so the DPOR explorer can
/// run its post-hoc race analysis without re-instrumenting anything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepRec {
    /// Virtual-thread slot that performed the operation.
    pub thread: u32,
    /// Index into the decision trace of the scheduling decision that
    /// let this thread reach the operation, or `None` when the
    /// scheduler had no choice (a single enabled thread). A `None`
    /// step cannot be the target of a backtrack insertion — with one
    /// enabled thread there was nothing else to schedule, which is
    /// exactly the co-enabledness side condition of Flanagan–Godefroid.
    pub decision: Option<u32>,
    /// What the operation did.
    pub kind: AccessKind,
    /// Location key within [`AccessKind::space`].
    pub addr: usize,
}

/// Per-execution limits and knobs.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Abort (as a truncation, not a failure) after this many
    /// scheduling points. Bounds schedules that live-lock, e.g. a
    /// timed waiter firing its timeout in a loop.
    pub max_steps: u64,
    /// How many times each timed wait may wake by timeout before it is
    /// treated as an untimed wait. Timed waits are the protocol's
    /// liveness backstop (FLC re-checks); an unbounded model of them
    /// would branch forever.
    pub timeout_budget: u32,
    /// Model TSO-style store buffering: plain atomic stores go into a
    /// per-thread FIFO buffer and become globally visible only at a
    /// scheduler-chosen flush point (a `FLUSH_BASE + t` option), at a
    /// forced drain (RMW/CAS, `SeqCst` store or fence,
    /// `storeload_fence`, mutex/condvar ops, spawn, joining a thread),
    /// or when the buffer overflows. Off by default: the base model
    /// stays sequentially consistent apart from `Relaxed` stale loads.
    pub weak_memory: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            max_steps: 4_000,
            timeout_budget: 3,
            weak_memory: false,
        }
    }
}

/// Outcome of one execution under a chooser.
#[derive(Clone, Debug, Default)]
pub struct ExecResult {
    /// First invariant violation observed (assertion message, deadlock
    /// description, …). `None` for a clean or truncated execution.
    pub failure: Option<String>,
    /// Option index taken at every decision point, in order. Feeding
    /// this back through a replay chooser reproduces the execution.
    pub trace: Vec<u32>,
    /// The execution hit `max_steps` or exhausted every timeout budget
    /// and was cut short. Not a failure: the explored prefix is valid.
    pub truncated: bool,
    /// Scheduling points executed.
    pub steps: u64,
    /// Every instrumented operation in schedule order, with its
    /// decision attribution — the input to the DPOR race analysis.
    /// Empty outside the model-checked runtime.
    pub accesses: Vec<StepRec>,
}

/// Renders a trace as the printed, replayable string form: option
/// indices joined by `.` (empty trace ⇒ `"-"`, an execution with no
/// choice at all).
pub fn format_trace(trace: &[u32]) -> String {
    if trace.is_empty() {
        "-".to_string()
    } else {
        trace
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(".")
    }
}

/// Parses the string form produced by [`format_trace`].
pub fn parse_trace(s: &str) -> Result<Vec<u32>, String> {
    let s = s.trim();
    if s.is_empty() || s == "-" {
        return Ok(Vec::new());
    }
    s.split('.')
        .map(|part| {
            part.parse::<u32>()
                .map_err(|e| format!("bad trace element {part:?}: {e}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_roundtrip() {
        for t in [vec![], vec![0], vec![3, 0, 1, 2, 10]] {
            assert_eq!(parse_trace(&format_trace(&t)).unwrap(), t);
        }
    }

    #[test]
    fn empty_trace_prints_dash() {
        assert_eq!(format_trace(&[]), "-");
        assert_eq!(parse_trace("-").unwrap(), Vec::<u32>::new());
        assert_eq!(parse_trace("").unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn bad_trace_reports_element() {
        let err = parse_trace("1.x.2").unwrap_err();
        assert!(err.contains("\"x\""), "{err}");
    }

    #[test]
    fn decision_option_counts() {
        let t = Decision::Thread {
            current: 0,
            enabled: vec![0, 2],
        };
        assert_eq!(t.options(), 2);
        assert_eq!(Decision::Value { candidates: 3 }.options(), 3);
    }
}
