//! Umbrella crate for the SOLERO reproduction: re-exports every
//! workspace crate under one roof so the examples and integration tests
//! (and downstream experiments) can depend on a single package.
//!
//! * [`solero`] — the SOLERO lock (the paper's contribution) and the
//!   conventional lock it extends (`solero::TasukiLock`, the `Lock`
//!   baseline);
//! * [`solero_rwlock`] — the reader-writer baselines;
//! * [`solero_runtime`] — lock words, monitors, events, fences, stats;
//! * [`solero_heap`] / [`solero_collections`] — the speculation-safe
//!   data substrate;
//! * [`solero_jit`] — IR, read-only classification, lock-plan lowering,
//!   interpreter;
//! * [`solero_workloads`] — the paper's benchmarks and the measurement
//!   driver.
//!
//! See `README.md` for the tour and `DESIGN.md` for the system
//! inventory.

#![warn(missing_docs)]

pub use solero;
pub use solero_collections;
pub use solero_heap;
pub use solero_jit;
pub use solero_runtime;
pub use solero_rwlock;
pub use solero_workloads;
