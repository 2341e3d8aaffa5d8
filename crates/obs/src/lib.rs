//! # solero-obs — observability primitives for the SOLERO crates
//!
//! A zero-dependency layer at the bottom of the workspace graph (no
//! deps, not even on the testkit), so every lock crate can use it
//! without cycles:
//!
//! - [`AbortReason`] — the five-way abort taxonomy behind Figure 15.
//! - [`LatencyHistogram`] / [`HistSnapshot`] — mergeable log2 latency
//!   histograms for the workloads' per-op latencies.
//! - [`json`] — the JSON writer and parser behind the per-lock counter
//!   export (`solero-runtime`'s `StatsSnapshot` lines), the `obs_check`
//!   binary and the bench documents.
//! - [`CachePadded`] — 64-byte cache-line padding.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod abort;
pub mod hist;
pub mod json;

pub use abort::AbortReason;
pub use hist::{HistSnapshot, LatencyHistogram, BUCKETS};

/// Pads the wrapped value to its own 64-byte cache lines. The testkit
/// has a 128-byte `CachePadded`; this one stays at 64 bytes so padded
/// per-lock state (the adaptive policy inside every `SoleroLock`, the
/// BRAVO visible-readers slots) does not double in size.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padding_is_one_64_byte_line() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 64);
        assert_eq!(std::mem::size_of::<CachePadded<u64>>(), 64);
    }
}
