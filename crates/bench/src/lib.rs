//! Benchmark harness: the paper's evaluation and the extension
//! benches, each written as a `BENCH_*.json` record.
//!
//! * [`figures`] — Table 1, Figures 10–16, two ablations and a latency
//!   experiment, each the cells it needs plus its tables rendered from
//!   cells; the `reproduce` binary measures each cell once and writes
//!   them all to `BENCH_paper.json` (`reproduce --quick all`);
//! * [`report`] — aligned text tables;
//! * [`record`] — the `BENCH_*.json` records `reproduce` and the
//!   `bench_*` bins write, and the timer, best-of-N and command line
//!   they share.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod figures;
pub mod record;
pub mod report;
