//! The paper's workloads and the measurement driver.
//!
//! Every benchmark of the evaluation section, expressed once and run
//! over any [`solero::SyncStrategy`] so the three lock implementations
//! (and the two SOLERO ablations) are compared on identical code:
//!
//! * [`empty`] — the empty-synchronized-block overhead probe
//!   (Figure 10);
//! * [`maps`] — HashMap/TreeMap with 0%/5% writes, coarse and
//!   fine-grained (Figures 11–13 and 15);
//! * [`jbb`] — a mini-SPECjbb2005 with the TPC-C style transaction mix
//!   (Figures 11 and 14);
//! * [`dacapo`] — synthetic applications matching the DaCapo lock
//!   profiles of Table 1 (Figure 16);
//! * [`bursty`] — the write-bursty phase workload behind the adaptive
//!   policy's auto-disable/re-enable evidence (`BENCH_adaptive.json`);
//! * [`zipf`] / [`openloop`] — the service-shaped extension: a seeded
//!   Zipfian key sampler and the coordinated-omission-safe open-loop
//!   driver for the `solero-store` MVCC snapshot store
//!   (`BENCH_store.json`);
//! * [`driver`] — the §4.1 best-of-windows, average-of-runs throughput
//!   protocol.
//!
//! # Examples
//!
//! Measure single-thread HashMap throughput under SOLERO:
//!
//! ```
//! use solero::SoleroStrategy;
//! use solero_workloads::driver::{measure, RunConfig};
//! use solero_workloads::maps::{MapBench, MapConfig, MapKind};
//! use std::time::Duration;
//!
//! let bench = MapBench::new(MapConfig::paper(MapKind::Hash, 0, 1), SoleroStrategy::new);
//! let cfg = RunConfig { threads: 1, warmup: Duration::from_millis(5),
//!     window: Duration::from_millis(20), windows: 1, runs: 1 };
//! let m = measure(&cfg, |t, rng| bench.op(t, rng), || bench.snapshot());
//! assert!(m.ops_per_sec > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bursty;
pub mod dacapo;
pub mod driver;
pub mod empty;
pub mod jbb;
pub mod latency;
pub mod maps;
pub mod openloop;
pub mod zipf;
