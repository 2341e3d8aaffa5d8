//! `solero-testkit` — the workspace's hermetic, zero-dependency test
//! substrate.
//!
//! The SOLERO reproduction validates a lock-elision protocol whose core
//! claim is concurrency-sensitive: an elided read-only section observes
//! a consistent snapshot or retries, with a bounded fallback to real
//! acquisition. Testing that needs seeded, reproducible concurrent
//! workloads — and the build environment has no registry access, so the
//! substrate lives in-tree:
//!
//! * [`rng`] — SplitMix64 seed derivation and a xoshiro256** generator
//!   with the `seed_from_u64` / `gen` / `gen_range` / `shuffle` surface
//!   the workloads use;
//! * [`prop`] — [`prop::forall`], a property-test runner with
//!   failing-seed reporting and iteration shrinking;
//! * [`stress`](mod@stress) — [`stress::stress`], a deterministic
//!   concurrency harness: named threads, barrier-phased rounds,
//!   per-worker seeds derived from one root seed, and a bounded-time
//!   watchdog;
//! * [`pad`] — [`pad::CachePadded`] for per-thread counters.
//!
//! Reproduction workflow: every failure message prints a root seed;
//! `SOLERO_TESTKIT_SEED=<seed>` replays the identical case matrix, and
//! `SOLERO_TESTKIT_CASES=<n>` scales property-case counts up or down.
//!
//! This crate intentionally has **no dependencies** (std only) and must
//! stay that way — it is what makes `cargo build --release --offline &&
//! cargo test -q --offline` the workspace's tier-1 gate.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod pad;
pub mod prop;
pub mod rng;
pub mod stress;

pub use pad::CachePadded;
pub use prop::{forall, seed_override, Gen};
pub use rng::{derive_seed, SplitMix64, TestRng};
pub use stress::{seed_matrix, stress, StressConfig, Worker};
