//! # solero-obs — lock-event observability
//!
//! A zero-dependency observability layer for the SOLERO lock crates:
//!
//! - [`LockEvent`] / [`EventKind`] / [`AbortReason`] — the event model,
//!   including the five-way abort taxonomy behind Figure 15.
//! - [`EventRing`] — bounded, cache-padded per-thread ring buffers.
//! - [`LatencyHistogram`] / [`HistSnapshot`] — mergeable log2 latency
//!   histograms for read-/write-section latencies per strategy.
//! - [`Recorder`] — the dyn-compatible recording strategy, with
//!   [`NullRecorder`] (drop everything) and [`TraceRecorder`] (full
//!   fidelity, JSONL-exportable).
//! - [`emit`] / [`section_start`] / [`section_end`] — the hooks the
//!   lock crates call. Without the `trace` feature they compile to
//!   nothing; with it they cost one relaxed load when no recorder is
//!   installed.
//! - [`schema::validate_line`] — the JSONL schema checker behind the
//!   offline `obs_check` CI step.
//!
//! The crate sits at the bottom of the workspace graph (no deps, not
//! even on the testkit) so every lock crate can hook into it without
//! cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod event;
pub mod hist;
pub mod json;
pub mod recorder;
pub mod report;
pub mod ring;
pub mod schema;

pub use event::{now_ns, AbortReason, EventKind, LockEvent};
pub use hist::{HistSnapshot, LatencyHistogram, BUCKETS};
pub use recorder::{
    emit, install, recorder, section_end, section_start, NullRecorder, ObsSnapshot, Recorder,
    SectionKind, SectionStats, SectionTimer, TraceRecorder,
};
pub use ring::{EventRing, DEFAULT_RING_CAPACITY};
