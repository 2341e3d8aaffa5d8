//! Schedule-space exploration strategies.
//!
//! Everything here is pure bookkeeping over [`Decision`] values and is
//! compiled (and unit-tested) in every build; only the driver that
//! actually runs executions (`crate::Checker`) needs the
//! `--cfg solero_mc` runtime.
//!
//! The exhaustive mode is a stateless DFS over schedule prefixes with
//! *iterative context bounding* (Musuvathi & Qadeer): at every thread
//! decision the currently running thread is tried first, and switching
//! away from a still-enabled thread (a *preemption*) is only explored
//! while the per-schedule preemption budget lasts. Most concurrency
//! bugs need very few preemptions, so a small bound covers the
//! interesting schedules at a fraction of the unbounded cost.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use solero_sync::model::{AccessSpace, Chooser, Decision, StepRec, MAX_THREADS};
use solero_testkit::TestRng;

/// The options a chooser may take at `d`, in exploration order, given
/// how many preemptions the schedule has already spent.
///
/// * Value decisions: newest store first (the sequentially consistent
///   answer), then increasingly stale candidates.
/// * Thread decisions: the current thread first when it is still
///   enabled; other threads only while the budget lasts. When the
///   current thread cannot continue, every switch is forced (free).
pub fn allowed_options(d: &Decision, preemptions: u32, bound: Option<u32>) -> Vec<u32> {
    match d {
        Decision::Value { candidates } => (0..*candidates).rev().collect(),
        Decision::Thread { current, enabled } => {
            match enabled.iter().position(|&t| t == *current) {
                Some(p) => {
                    let mut opts = vec![p as u32];
                    if bound.map_or(true, |b| preemptions < b) {
                        opts.extend((0..enabled.len() as u32).filter(|&i| i != p as u32));
                    }
                    opts
                }
                None => (0..enabled.len() as u32).collect(),
            }
        }
    }
}

/// True if taking `option` at `d` preempts a thread that could have
/// kept running.
pub fn is_preemption(d: &Decision, option: u32) -> bool {
    match d {
        Decision::Value { .. } => false,
        Decision::Thread { current, enabled } => {
            enabled.contains(current) && enabled[option as usize] != *current
        }
    }
}

struct BranchRec {
    /// Option indices in exploration order (fixed at first visit).
    options: Vec<u32>,
    /// Which of `options` the current execution takes.
    next: usize,
}

/// Persistent state of the exhaustive DFS, shared across executions.
pub struct DfsCore {
    bound: Option<u32>,
    path: Vec<BranchRec>,
    depth: usize,
    preemptions: u32,
    complete: bool,
}

impl DfsCore {
    pub fn new(bound: Option<u32>) -> Self {
        DfsCore {
            bound,
            path: Vec::new(),
            depth: 0,
            preemptions: 0,
            complete: false,
        }
    }

    /// Resets the per-execution cursor. Call before each execution.
    pub fn begin(&mut self) {
        self.depth = 0;
        self.preemptions = 0;
    }

    /// Resolves one decision: replays the recorded prefix, then
    /// extends the path depth-first.
    pub fn choose(&mut self, d: &Decision) -> u32 {
        if self.depth == self.path.len() {
            let options = allowed_options(d, self.preemptions, self.bound);
            debug_assert!(!options.is_empty());
            self.path.push(BranchRec { options, next: 0 });
        }
        let rec = &self.path[self.depth];
        let opt = rec.options[rec.next];
        assert!(
            opt < d.options(),
            "DFS prefix diverged: option {opt} of {} at depth {} — \
             the scenario is not deterministic under replay",
            d.options(),
            self.depth
        );
        self.depth += 1;
        if is_preemption(d, opt) {
            self.preemptions += 1;
        }
        opt
    }

    /// Moves to the next unexplored schedule. Returns `true` when the
    /// (bounded) space is exhausted.
    pub fn advance(&mut self) -> bool {
        debug_assert!(self.depth == self.path.len(), "execution ended mid-prefix");
        self.path.truncate(self.depth);
        loop {
            match self.path.last_mut() {
                None => {
                    self.complete = true;
                    return true;
                }
                Some(rec) => {
                    rec.next += 1;
                    if rec.next < rec.options.len() {
                        return false;
                    }
                    self.path.pop();
                }
            }
        }
    }

    /// True once [`DfsCore::advance`] reported exhaustion.
    pub fn complete(&self) -> bool {
        self.complete
    }
}

/// Per-execution handle onto a shared [`DfsCore`].
pub struct DfsChooser(pub Arc<Mutex<DfsCore>>);

impl Chooser for DfsChooser {
    fn choose(&mut self, d: &Decision) -> u32 {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .choose(d)
    }
}

/// Seeded random walk over the (budget-filtered) options. Each
/// execution gets its own chooser derived from `(root_seed, index)`,
/// so a sampling run is reproducible execution-by-execution.
pub struct RandomChooser {
    rng: TestRng,
    bound: Option<u32>,
    preemptions: u32,
}

impl RandomChooser {
    pub fn new(rng: TestRng, bound: Option<u32>) -> Self {
        RandomChooser {
            rng,
            bound,
            preemptions: 0,
        }
    }
}

impl Chooser for RandomChooser {
    fn choose(&mut self, d: &Decision) -> u32 {
        let opts = allowed_options(d, self.preemptions, self.bound);
        let opt = opts[self.rng.gen_range(0..opts.len())];
        if is_preemption(d, opt) {
            self.preemptions += 1;
        }
        opt
    }
}

// ---------------------------------------------------------------- DPOR

/// Analysis thread-id width: the real slots plus one flush
/// pseudo-thread per slot (`FLUSH_BASE + t`, weak-memory mode). A
/// flush is an independently schedulable event, so it gets its own
/// clock component — reversing a flush against a racing access must
/// not imply reordering the owner's program steps.
const ATHREADS: usize = 2 * MAX_THREADS;

/// Step-index vector clock for the post-hoc race analysis. Component
/// `t` holds `j + 1` where `j` is the highest step index of thread `t`
/// that happens-before the clock's owner (0 ⇒ none). Step `j` of
/// thread `t` is concurrent with a point whose clock is `c` iff
/// `j >= c[t]`.
type StepClock = [usize; ATHREADS];

fn clock_join(a: &mut StepClock, b: &StepClock) {
    for i in 0..ATHREADS {
        a[i] = a[i].max(b[i]);
    }
}

/// Per-location state of the race analysis: the last write (with the
/// writer's clock *after* that write), plus every read since it.
#[derive(Default)]
struct LocAnal {
    /// `(thread, step index, clock)` of the most recent write-class op.
    w: Option<(usize, usize, StepClock)>,
    /// Read-class ops since the last write: `(thread, step index)`.
    reads: Vec<(usize, usize)>,
    /// Join of the readers' clocks, so a write orders after all of them.
    racc: StepClock,
}

/// One decision point of the DPOR exploration path.
enum DporNode {
    Thread {
        /// Thread that was running when the decision was taken.
        current: u32,
        /// Enabled slots, ascending (must replay identically).
        enabled: Vec<u32>,
        /// Preemptions spent strictly before this node. Path-invariant
        /// while the node is on the path, so the budget filter for
        /// backtrack insertions is well-defined.
        preempt_before: u32,
        /// Slot the current execution schedules here.
        scheduled: u32,
        /// Slots that must be explored from this state (persistent
        /// set, grown by race-driven insertions).
        backtrack: Vec<u32>,
        /// Slots already explored from this state.
        done: Vec<u32>,
    },
    Value {
        /// Option indices in exploration order (same order as the DFS:
        /// newest store first).
        options: Vec<u32>,
        next: usize,
    },
}

/// Persistent-set dynamic partial-order reduction over the DFS's
/// schedule space (Flanagan & Godefroid, POPL 2005), driven by the
/// access log the runtime records per execution.
///
/// Instead of enumerating every allowed option at every thread
/// decision, each node starts with a single scheduled thread; after an
/// execution, a vector-clock race analysis over its [`StepRec`] log
/// finds pairs of conflicting, concurrent operations and inserts the
/// later op's thread into the *backtrack set* of the decision that
/// scheduled the earlier op. Only inserted alternatives are explored,
/// so schedule pairs that merely commute independent operations are
/// never both run.
///
/// Two deliberate properties:
///
/// * The first execution takes exactly the choices the DFS would take
///   (current thread first, newest store first), and insertions are
///   filtered by the same preemption budget the DFS applies, so the
///   explored set is a subset of the bounded DFS's and every recorded
///   trace replays identically under [`ReplayChooser`].
/// * Steps whose `decision` is `None` had a single enabled thread, so
///   no insertion is possible there — which is precisely the
///   co-enabledness side condition of the classic algorithm.
pub struct DporCore {
    bound: Option<u32>,
    path: Vec<DporNode>,
    depth: usize,
    preemptions: u32,
    complete: bool,
}

impl DporCore {
    pub fn new(bound: Option<u32>) -> Self {
        DporCore {
            bound,
            path: Vec::new(),
            depth: 0,
            preemptions: 0,
            complete: false,
        }
    }

    /// Resets the per-execution cursor. Call before each execution.
    pub fn begin(&mut self) {
        self.depth = 0;
        self.preemptions = 0;
    }

    /// Resolves one decision: replays the recorded prefix, then
    /// extends the path with the DFS-preferred choice.
    pub fn choose(&mut self, d: &Decision) -> u32 {
        if self.depth == self.path.len() {
            self.path.push(match d {
                Decision::Thread { current, enabled } => {
                    let preferred = if enabled.contains(current) {
                        *current
                    } else {
                        enabled[0]
                    };
                    DporNode::Thread {
                        current: *current,
                        enabled: enabled.clone(),
                        preempt_before: self.preemptions,
                        scheduled: preferred,
                        backtrack: vec![preferred],
                        done: Vec::new(),
                    }
                }
                Decision::Value { candidates } => DporNode::Value {
                    options: (0..*candidates).rev().collect(),
                    next: 0,
                },
            });
        }
        let opt = match (&self.path[self.depth], d) {
            (
                DporNode::Thread {
                    enabled, scheduled, ..
                },
                Decision::Thread {
                    enabled: now_enabled,
                    ..
                },
            ) => {
                assert_eq!(
                    enabled, now_enabled,
                    "DPOR prefix diverged at depth {}: the scenario is \
                     not deterministic under replay",
                    self.depth
                );
                now_enabled
                    .iter()
                    .position(|t| t == scheduled)
                    .expect("scheduled thread no longer enabled") as u32
            }
            (DporNode::Value { options, next }, Decision::Value { .. }) => options[*next],
            _ => panic!(
                "DPOR prefix diverged at depth {}: decision kind changed",
                self.depth
            ),
        };
        assert!(opt < d.options());
        self.depth += 1;
        if is_preemption(d, opt) {
            self.preemptions += 1;
        }
        opt
    }

    /// Runs the race analysis over the finished execution's access log,
    /// grows backtrack sets, and moves to the next unexplored schedule.
    /// Returns `true` when the (bounded, persistent-set) space is
    /// exhausted.
    pub fn advance(&mut self, steps: &[StepRec]) -> bool {
        debug_assert!(self.depth == self.path.len(), "execution ended mid-prefix");
        self.analyze(steps);
        for node in &mut self.path {
            if let DporNode::Thread {
                scheduled, done, ..
            } = node
            {
                if !done.contains(scheduled) {
                    done.push(*scheduled);
                }
            }
        }
        loop {
            match self.path.last_mut() {
                None => {
                    self.complete = true;
                    return true;
                }
                Some(DporNode::Value { options, next }) => {
                    *next += 1;
                    if *next < options.len() {
                        return false;
                    }
                    self.path.pop();
                }
                Some(DporNode::Thread {
                    scheduled,
                    backtrack,
                    done,
                    ..
                }) => {
                    if let Some(&t) = backtrack.iter().find(|t| !done.contains(t)) {
                        *scheduled = t;
                        return false;
                    }
                    self.path.pop();
                }
            }
        }
    }

    /// True once [`DporCore::advance`] reported exhaustion.
    pub fn complete(&self) -> bool {
        self.complete
    }

    /// Vector-clock happens-before pass over one execution's access
    /// log. Conflicts between concurrent steps of different threads
    /// become backtrack insertions at the decision that scheduled the
    /// earlier step.
    fn analyze(&mut self, steps: &[StepRec]) {
        let mut clocks = [[0usize; ATHREADS]; ATHREADS];
        let mut locs: HashMap<(AccessSpace, usize), LocAnal> = HashMap::new();
        // `(earlier step index, later thread)` conflict pairs.
        let mut races: Vec<(usize, u32)> = Vec::new();
        for (k, s) in steps.iter().enumerate() {
            let p = (s.thread as usize).min(ATHREADS - 1);
            let space = s.kind.space();
            if space == AccessSpace::Thread {
                // Spawn/join: pure happens-before edges, no conflicts.
                let other = s.addr.min(MAX_THREADS - 1);
                if s.kind == solero_sync::model::AccessKind::Spawn {
                    clocks[p][p] = k + 1;
                    let parent = clocks[p];
                    clock_join(&mut clocks[other], &parent);
                } else {
                    let child = clocks[other];
                    clock_join(&mut clocks[p], &child);
                    clocks[p][p] = k + 1;
                }
                continue;
            }
            if !s.kind.is_write_class() && !s.kind.is_read_class() {
                // Fences: they order the issuing thread's own accesses
                // but are not themselves reads or writes of a location,
                // so they never participate in a conflict pair.
                clocks[p][p] = k + 1;
                continue;
            }
            let loc = locs.entry((space, s.addr)).or_default();
            if s.kind.is_write_class() {
                if let Some((tw, jw, _)) = &loc.w {
                    if *tw != p && *jw >= clocks[p][*tw] {
                        races.push((*jw, s.thread));
                    }
                }
                for &(tr, jr) in &loc.reads {
                    if tr != p && jr >= clocks[p][tr] {
                        races.push((jr, s.thread));
                    }
                }
                if let Some((_, _, cw)) = &loc.w {
                    let cw = *cw;
                    clock_join(&mut clocks[p], &cw);
                }
                let racc = loc.racc;
                clock_join(&mut clocks[p], &racc);
                clocks[p][p] = k + 1;
                loc.w = Some((p, k, clocks[p]));
                loc.reads.clear();
                loc.racc = [0; ATHREADS];
            } else {
                if let Some((tw, jw, cw)) = &loc.w {
                    if *tw != p && *jw >= clocks[p][*tw] {
                        races.push((*jw, s.thread));
                    }
                    let cw = *cw;
                    clock_join(&mut clocks[p], &cw);
                }
                clocks[p][p] = k + 1;
                loc.reads.push((p, k));
                let mine = clocks[p];
                clock_join(&mut loc.racc, &mine);
            }
        }
        for (j, t) in races {
            self.insert_backtrack(steps, j, t);
        }
    }

    /// Classic backtrack insertion at the decision that scheduled step
    /// `j`: insert the racing thread `t` when it was enabled there,
    /// otherwise every enabled thread. Insertions that would preempt
    /// past the budget are skipped, keeping the explored set inside the
    /// bounded DFS's (see DESIGN.md §9 for the coverage caveat this
    /// inherits from bounded partial-order reduction).
    fn insert_backtrack(&mut self, steps: &[StepRec], j: usize, t: u32) {
        let Some(d) = steps[j].decision else {
            return;
        };
        let bound = self.bound;
        let Some(DporNode::Thread {
            current,
            enabled,
            preempt_before,
            backtrack,
            done,
            ..
        }) = self.path.get_mut(d as usize)
        else {
            return;
        };
        let current = *current;
        let preempt_before = *preempt_before;
        let current_enabled = enabled.contains(&current);
        let candidates: Vec<u32> = if enabled.contains(&t) {
            vec![t]
        } else {
            enabled.clone()
        };
        for cand in candidates {
            let preemptive = current_enabled && cand != current;
            if preemptive && bound.is_some_and(|b| preempt_before >= b) {
                continue;
            }
            if !backtrack.contains(&cand) && !done.contains(&cand) {
                backtrack.push(cand);
            }
        }
    }
}

/// Per-execution handle onto a shared [`DporCore`].
pub struct DporChooser(pub Arc<Mutex<DporCore>>);

impl Chooser for DporChooser {
    fn choose(&mut self, d: &Decision) -> u32 {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .choose(d)
    }
}

/// Replays a recorded trace exactly.
pub struct ReplayChooser {
    trace: Vec<u32>,
    pos: usize,
}

impl ReplayChooser {
    pub fn new(trace: Vec<u32>) -> Self {
        ReplayChooser { trace, pos: 0 }
    }
}

impl Chooser for ReplayChooser {
    fn choose(&mut self, d: &Decision) -> u32 {
        assert!(
            self.pos < self.trace.len(),
            "replay ran past the recorded trace ({} decisions): \
             the scenario is not deterministic",
            self.trace.len()
        );
        let opt = self.trace[self.pos];
        assert!(
            opt < d.options(),
            "replay mismatch at decision {}: trace says {opt}, only {} options",
            self.pos,
            d.options()
        );
        self.pos += 1;
        opt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread(current: u32, enabled: &[u32]) -> Decision {
        Decision::Thread {
            current,
            enabled: enabled.to_vec(),
        }
    }

    #[test]
    fn current_thread_explored_first() {
        let opts = allowed_options(&thread(1, &[0, 1, 2]), 0, Some(2));
        assert_eq!(opts, vec![1, 0, 2], "current (index 1) first");
    }

    #[test]
    fn budget_exhausted_pins_current() {
        let opts = allowed_options(&thread(1, &[0, 1, 2]), 2, Some(2));
        assert_eq!(opts, vec![1], "no preemptions left");
    }

    #[test]
    fn forced_switch_is_free() {
        // Current thread blocked: all switches allowed even at budget 0.
        let opts = allowed_options(&thread(1, &[0, 2]), 5, Some(0));
        assert_eq!(opts, vec![0, 1]);
        assert!(!is_preemption(&thread(1, &[0, 2]), 0));
    }

    #[test]
    fn value_options_prefer_newest() {
        let opts = allowed_options(&Decision::Value { candidates: 3 }, 0, Some(0));
        assert_eq!(opts, vec![2, 1, 0]);
        assert!(!is_preemption(&Decision::Value { candidates: 3 }, 0));
    }

    #[test]
    fn preemption_definition() {
        let d = thread(0, &[0, 1]);
        assert!(!is_preemption(&d, 0));
        assert!(is_preemption(&d, 1));
    }

    /// Drives the DFS against a synthetic 2-decision tree and checks it
    /// enumerates exactly the full cross product, each schedule once.
    #[test]
    fn dfs_enumerates_small_tree() {
        let mut core = DfsCore::new(None);
        let d1 = thread(0, &[0, 1]);
        let d2 = Decision::Value { candidates: 3 };
        let mut seen = Vec::new();
        loop {
            core.begin();
            let a = core.choose(&d1);
            let b = core.choose(&d2);
            seen.push((a, b));
            if core.advance() {
                break;
            }
        }
        assert_eq!(seen.len(), 6, "2 × 3 schedules");
        let mut uniq = seen.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 6, "no duplicates: {seen:?}");
        assert!(core.complete());
    }

    /// With bound 0 the second thread is never explored while thread 0
    /// can run: only the no-preemption schedule exists.
    #[test]
    fn dfs_respects_preemption_bound() {
        let mut core = DfsCore::new(Some(0));
        let d = thread(0, &[0, 1]);
        let mut schedules = 0;
        loop {
            core.begin();
            // Three consecutive decisions where thread 0 stays enabled.
            for _ in 0..3 {
                assert_eq!(core.choose(&d), 0);
            }
            schedules += 1;
            if core.advance() {
                break;
            }
        }
        assert_eq!(schedules, 1);
    }

    /// Bound 1: schedules are "run thread 0, preempt at most once".
    #[test]
    fn dfs_bound_one_counts() {
        let mut core = DfsCore::new(Some(1));
        let d = thread(0, &[0, 1]);
        let mut schedules = 0;
        loop {
            core.begin();
            let mut preempted = false;
            for _ in 0..3 {
                let c = core.choose(&d);
                if c == 1 {
                    assert!(!preempted, "second preemption explored despite bound 1");
                    preempted = true;
                }
            }
            schedules += 1;
            if core.advance() {
                break;
            }
        }
        // Preempt at decision 0, 1, 2, or never.
        assert_eq!(schedules, 4);
    }

    #[test]
    fn replay_follows_trace() {
        let mut r = ReplayChooser::new(vec![1, 0, 2]);
        assert_eq!(r.choose(&thread(0, &[0, 1])), 1);
        assert_eq!(r.choose(&thread(1, &[0, 1])), 0);
        assert_eq!(r.choose(&Decision::Value { candidates: 3 }), 2);
    }

    #[test]
    #[should_panic(expected = "ran past the recorded trace")]
    fn replay_panics_past_trace() {
        let mut r = ReplayChooser::new(vec![0]);
        let d = thread(0, &[0, 1]);
        r.choose(&d);
        r.choose(&d);
    }

    #[test]
    fn random_chooser_is_deterministic_per_seed() {
        let d = thread(0, &[0, 1, 2]);
        let run = |seed| {
            let mut c = RandomChooser::new(TestRng::seed_from_u64(seed), Some(4));
            (0..16).map(|_| c.choose(&d)).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
    }

    use solero_sync::model::AccessKind;

    /// Minimal faithful re-creation of the runtime's scheduling loop,
    /// enough to drive a core: every op is one scheduling point, the
    /// chooser is consulted only with ≥ 2 enabled threads, and each
    /// executed op is logged with its decision attribution.
    fn run_sim(
        core: &mut DporCore,
        progs: &[&[(AccessKind, usize)]],
    ) -> Vec<StepRec> {
        core.begin();
        let mut cursor = vec![0usize; progs.len()];
        let mut current = 0u32;
        let mut trace_len = 0u32;
        let mut steps = Vec::new();
        loop {
            let enabled: Vec<u32> = (0..progs.len())
                .filter(|&t| cursor[t] < progs[t].len())
                .map(|t| t as u32)
                .collect();
            if enabled.is_empty() {
                return steps;
            }
            let (chosen, decision) = if enabled.len() > 1 {
                let d = Decision::Thread {
                    current,
                    enabled: enabled.clone(),
                };
                let idx = core.choose(&d);
                trace_len += 1;
                (enabled[idx as usize], Some(trace_len - 1))
            } else {
                (enabled[0], None)
            };
            let (kind, addr) = progs[chosen as usize][cursor[chosen as usize]];
            cursor[chosen as usize] += 1;
            steps.push(StepRec {
                thread: chosen,
                decision,
                kind,
                addr,
            });
            current = chosen;
        }
    }

    fn count_dpor(progs: &[&[(AccessKind, usize)]], bound: Option<u32>) -> u64 {
        let mut core = DporCore::new(bound);
        let mut n = 0;
        loop {
            let steps = run_sim(&mut core, progs);
            n += 1;
            assert!(n < 10_000, "DPOR failed to converge");
            if core.advance(&steps) {
                return n;
            }
        }
    }

    /// Independent writes to distinct locations: one schedule suffices
    /// (the DFS would run two).
    #[test]
    fn dpor_prunes_independent_writes() {
        let progs: &[&[(AccessKind, usize)]] = &[
            &[(AccessKind::Store, 0x10)],
            &[(AccessKind::Store, 0x20)],
        ];
        assert_eq!(count_dpor(progs, None), 1);
    }

    /// Concurrent reads never conflict, even on the same location.
    #[test]
    fn dpor_prunes_read_read() {
        let progs: &[&[(AccessKind, usize)]] = &[
            &[(AccessKind::Load, 0x10)],
            &[(AccessKind::Load, 0x10)],
        ];
        assert_eq!(count_dpor(progs, None), 1);
    }

    /// Conflicting writes must be explored in both orders.
    #[test]
    fn dpor_reverses_conflicting_writes() {
        let progs: &[&[(AccessKind, usize)]] = &[
            &[(AccessKind::Store, 0x10)],
            &[(AccessKind::Store, 0x10)],
        ];
        assert_eq!(count_dpor(progs, None), 2);
    }

    /// A write racing a read is reversed; the read-read pair is not.
    #[test]
    fn dpor_write_read_race_only() {
        let progs: &[&[(AccessKind, usize)]] = &[
            &[(AccessKind::Load, 0x10), (AccessKind::Load, 0x20)],
            &[(AccessKind::Store, 0x10)],
        ];
        let dpor = count_dpor(progs, None);
        // DFS over the same tree for comparison.
        let mut dfs = DfsCore::new(None);
        let mut dfs_n = 0;
        loop {
            dfs.begin();
            let mut cursor = [0usize; 2];
            let mut current = 0u32;
            loop {
                let enabled: Vec<u32> = (0..2)
                    .filter(|&t| cursor[t] < progs[t].len())
                    .map(|t| t as u32)
                    .collect();
                if enabled.is_empty() {
                    break;
                }
                let chosen = if enabled.len() > 1 {
                    let d = Decision::Thread {
                        current,
                        enabled: enabled.clone(),
                    };
                    enabled[dfs.choose(&d) as usize]
                } else {
                    enabled[0]
                };
                cursor[chosen as usize] += 1;
                current = chosen;
            }
            dfs_n += 1;
            if dfs.advance() {
                break;
            }
        }
        assert!(
            dpor < dfs_n,
            "expected a strict reduction: dpor={dpor} dfs={dfs_n}"
        );
        // Both orders of the racing (load 0x10, store 0x10) pair exist.
        assert!(dpor >= 2, "the race must still be reversed: {dpor}");
    }

    /// Preemption bound 0 pins the schedule exactly like the DFS does:
    /// the racing insertion is preemptive and gets filtered.
    #[test]
    fn dpor_respects_preemption_bound() {
        let progs: &[&[(AccessKind, usize)]] = &[
            &[(AccessKind::Store, 0x10)],
            &[(AccessKind::Store, 0x10)],
        ];
        assert_eq!(count_dpor(progs, Some(0)), 1);
    }

    /// The first execution of the DPOR core makes exactly the choices
    /// the DFS makes, so recorded traces stay replay-compatible.
    #[test]
    fn dpor_first_execution_matches_dfs() {
        let d1 = Decision::Thread {
            current: 0,
            enabled: vec![0, 1, 2],
        };
        let d2 = Decision::Thread {
            current: 2,
            enabled: vec![1, 2],
        };
        let d3 = Decision::Value { candidates: 3 };
        let mut dfs = DfsCore::new(Some(2));
        let mut dpor = DporCore::new(Some(2));
        dfs.begin();
        dpor.begin();
        for d in [&d1, &d2, &d3] {
            assert_eq!(dfs.choose(d), dpor.choose(d), "diverged at {d:?}");
        }
    }

    /// Value decisions are enumerated exhaustively even when no thread
    /// race ever inserts a backtrack point.
    #[test]
    fn dpor_enumerates_value_decisions() {
        let mut core = DporCore::new(None);
        let d = Decision::Value { candidates: 3 };
        let mut seen = Vec::new();
        loop {
            core.begin();
            seen.push(core.choose(&d));
            if core.advance(&[]) {
                break;
            }
        }
        assert_eq!(seen, vec![2, 1, 0]);
        assert!(core.complete());
    }

    /// Spawn/join edges are happens-before, not conflicts: a parent
    /// writing before spawn and a child writing the same location must
    /// not count as a race (no second execution).
    #[test]
    fn dpor_spawn_edge_orders_parent_and_child() {
        // Hand-built log: parent (t0) stores, spawns t1, t1 stores the
        // same location. No decision ever had 2 enabled threads.
        let steps = [
            StepRec {
                thread: 0,
                decision: None,
                kind: AccessKind::Store,
                addr: 0x10,
            },
            StepRec {
                thread: 0,
                decision: None,
                kind: AccessKind::Spawn,
                addr: 1,
            },
            StepRec {
                thread: 1,
                decision: None,
                kind: AccessKind::Store,
                addr: 0x10,
            },
        ];
        let mut core = DporCore::new(None);
        core.begin();
        assert!(core.advance(&steps), "nothing to backtrack into");
    }

    #[test]
    fn random_chooser_respects_bound() {
        let d = thread(0, &[0, 1]);
        let mut c = RandomChooser::new(TestRng::seed_from_u64(3), Some(2));
        let picks: Vec<u32> = (0..64).map(|_| c.choose(&d)).collect();
        assert!(
            picks.iter().filter(|&&p| p == 1).count() <= 2,
            "at most 2 preemptions: {picks:?}"
        );
    }
}
