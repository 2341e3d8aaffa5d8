//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! The generator records an op span around each sampled op (one in
//! 1024 on the maps, one in 64 on the store, every populate op).
//! [`Traced`] wraps the strategy handed to the map or the store and,
//! for sampled ops only, records a section span around each
//! `read_with`/`write_with` call and a child span around each execution
//! of the section body. A section's self time is its duration minus its
//! body spans, so the lock layer's cost is measured without
//! instrumenting the library.
//!
//! Spans go into per-thread vectors preallocated before the measured
//! phase and are written out when the run ends.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

use solero::{DynSyncStrategy, Fault, WriteIntent};
use solero_runtime::stats::StatsSnapshot;

/// Spans kept per thread; later spans are counted, not kept.
const CAPACITY: usize = 1 << 18;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process's first call.
pub fn now_ns() -> u64 {
    ns_of(Instant::now())
}

/// `t` on the [`now_ns`] clock.
pub fn ns_of(t: Instant) -> u64 {
    t.saturating_duration_since(*EPOCH.get_or_init(Instant::now))
        .as_nanos() as u64
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A generator op; the label is the op kind ("get", "scan", ...).
    Op(&'static str),
    ReadSection,
    WriteSection,
    /// One execution of a section body.
    Attempt,
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub kind: Kind,
    /// Ops only: when the schedule meant the op to start (0 for
    /// closed-loop ops, which start when the previous one ends).
    pub intended: u64,
    pub start: u64,
    pub end: u64,
    /// Sections only: summed duration of their body spans.
    pub body: u64,
    /// Sections only: body executions.
    pub attempts: u64,
}

#[derive(Default)]
struct ThreadSpans {
    spans: Vec<Span>,
    dropped: u64,
    next_id: u64,
}

thread_local! {
    static SPANS: RefCell<ThreadSpans> = RefCell::default();
    /// `(op, op span id)` of the sampled op in flight.
    static CURRENT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

fn next_id() -> u64 {
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        s.next_id += 1;
        s.next_id
    })
}

fn push(span: Span) {
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        if s.spans.len() < CAPACITY {
            s.spans.push(span);
        } else {
            s.dropped += 1;
        }
    })
}

/// Preallocates this thread's span buffer.
pub fn reserve() {
    SPANS.with(|s| s.borrow_mut().spans.reserve(CAPACITY));
}

/// The id shared by the spans of `thread`'s `seq`-th op, with threads
/// numbered as in the trace file: 0 is populate, `w + 1` generator `w`.
pub fn op_id(thread: usize, seq: u64) -> u64 {
    (thread as u64) << 48 | seq
}

/// Marks op `op` as sampled: sections until [`end_op`] get spans.
pub fn begin_op(op: u64) {
    CURRENT.set(Some((op, next_id())));
}

/// Records the op span of the op [`begin_op`] opened.
pub fn end_op(label: &'static str, intended: u64, start: u64, end: u64) {
    let (op, id) = CURRENT.take().expect("end_op without begin_op");
    push(Span {
        id,
        parent: 0,
        op,
        kind: Kind::Op(label),
        intended,
        start,
        end,
        body: 0,
        attempts: 0,
    });
}

/// This thread's spans and the count it had to drop.
pub fn take() -> (Vec<Span>, u64) {
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        (std::mem::take(&mut s.spans), std::mem::take(&mut s.dropped))
    })
}

/// A strategy wrapper recording section and body spans for sampled ops.
pub struct Traced(pub Box<dyn DynSyncStrategy>);

impl Traced {
    /// Runs `section` (which calls the inner strategy with the wrapped
    /// body) between a section span's ends.
    fn span<R>(
        kind: Kind,
        section: impl FnOnce(&mut dyn FnMut(&mut dyn FnMut() -> R) -> R) -> R,
    ) -> R {
        let Some((op, parent)) = CURRENT.get() else {
            return section(&mut |body| body());
        };
        let id = next_id();
        let start = now_ns();
        let (mut body_ns, mut attempts) = (0, 0);
        let r = section(&mut |body| {
            let a = now_ns();
            let r = body();
            let b = now_ns();
            push(Span {
                id: next_id(),
                parent: id,
                op,
                kind: Kind::Attempt,
                intended: 0,
                start: a,
                end: b,
                body: 0,
                attempts: 0,
            });
            body_ns += b - a;
            attempts += 1;
            r
        });
        push(Span {
            id,
            parent,
            op,
            kind,
            intended: 0,
            start,
            end: now_ns(),
            body: body_ns,
            attempts,
        });
        r
    }
}

impl DynSyncStrategy for Traced {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn write_section_dyn(&self, f: &mut dyn FnMut()) {
        Self::span(Kind::WriteSection, |wrap| {
            self.0.write_section_dyn(&mut || wrap(&mut || f()))
        })
    }

    fn read_section_dyn(
        &self,
        f: &mut dyn FnMut(&mut dyn WriteIntent) -> Result<(), Fault>,
    ) -> Result<(), Fault> {
        Self::span(Kind::ReadSection, |wrap| {
            self.0.read_section_dyn(&mut |w| wrap(&mut || f(w)))
        })
    }

    fn mostly_section_dyn(
        &self,
        f: &mut dyn FnMut(&mut dyn WriteIntent) -> Result<(), Fault>,
    ) -> Result<(), Fault> {
        self.0.mostly_section_dyn(f)
    }

    fn snapshot(&self) -> StatsSnapshot {
        self.0.snapshot()
    }

    fn reset_stats(&self) {
        self.0.reset_stats()
    }
}

/// Writes every span as one JSON line: `thread` (its index in
/// `threads`), `op`, `id`, `parent` (0 for ops), `kind`, and nanosecond
/// timestamps on one clock.
pub fn write_jsonl(path: &std::path::Path, threads: &[&[Span]]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (t, spans) in threads.iter().enumerate() {
        for s in spans.iter() {
            let kind = match s.kind {
                Kind::Op(label) => label,
                Kind::ReadSection => "read_section",
                Kind::WriteSection => "write_section",
                Kind::Attempt => "attempt",
            };
            write!(
                out,
                "{{\"thread\":{t},\"op\":{},\"id\":{},\"parent\":{},\"kind\":\"{kind}\",\"start_ns\":{},\"end_ns\":{}",
                s.op, s.id, s.parent, s.start, s.end
            )?;
            match s.kind {
                Kind::Op(_) if s.intended > 0 => write!(out, ",\"intended_ns\":{}", s.intended)?,
                Kind::ReadSection | Kind::WriteSection => {
                    write!(out, ",\"body_ns\":{},\"attempts\":{}", s.body, s.attempts)?
                }
                _ => {}
            }
            writeln!(out, "}}")?;
        }
    }
    out.flush()
}
