//! # solero-mc — deterministic model checker for the elision protocol
//!
//! Exhaustively (or randomly, seeded) explores thread interleavings of
//! small SOLERO / tasuki / rwlock scenarios (the tasuki baseline runs
//! the SOLERO protocol itself, with a zero counter step). Scenarios run on the
//! cooperative virtual-thread scheduler in `solero-sync::rt`, which is
//! only compiled under `--cfg solero_mc`; in that configuration the
//! `solero-sync` facade routes every atomic and mutex/condvar
//! operation through the scheduler, so every synchronization op is a
//! scheduling point and every schedule is reproducible.
//!
//! Build and run the checker tests with:
//!
//! ```text
//! RUSTFLAGS="--cfg solero_mc" CARGO_TARGET_DIR=target/mc \
//!     cargo test --offline -p solero-sync -p solero-mc
//! ```
//!
//! A violation prints a dot-separated *trace string* (for example
//! `1.0.3.2`) recording every nondeterministic choice. Feed it back
//! through `Checker::replay` to re-execute that exact schedule —
//! same assertion, same failure, every time.
//!
//! The exploration strategies themselves ([`explore`]) are plain data
//! structure code, compiled and unit-tested in every build.

pub mod explore;

pub use explore::{
    allowed_options, is_preemption, DfsChooser, DfsCore, DporChooser, DporCore, RandomChooser,
    ReplayChooser,
};
pub use solero_sync::model::{
    format_trace, parse_trace, AccessKind, AccessSpace, Decision, ExecResult, Opts, StepRec,
};

#[cfg(solero_mc)]
mod checker;
#[cfg(solero_mc)]
pub use checker::{budget_overridden, spawn, Checker, McStats, McViolation};
