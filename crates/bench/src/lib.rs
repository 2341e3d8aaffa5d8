//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation section.
//!
//! * [`figures`] — one generator per table/figure (Table 1, Figures
//!   10–16), each returning renderable [`report::Table`]s;
//! * [`report`] — aligned text tables + CSV output under `results/`;
//! * [`record`] — the `BENCH_*.json` records the `bench_*` bins write,
//!   and the timer, best-of-N and command line they share;
//! * the `reproduce` binary drives them (`reproduce --quick all`);
//! * the Criterion benches (`cargo bench`) cover the micro costs:
//!   lock-word operations, the empty critical section, and
//!   single-thread map lookups per strategy.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod figures;
pub mod record;
pub mod report;
