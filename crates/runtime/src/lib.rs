//! Shared runtime substrate for the SOLERO reproduction.
//!
//! This crate provides the JVM-runtime machinery that both the
//! conventional (tasuki) lock and SOLERO are built on:
//!
//! * [`word`] — the one flat-lock word layout, the compact SOLERO word
//!   whose counter rides inside the held word (the conventional lock
//!   holds that counter at zero);
//! * [`thread`] — non-zero thread ids (20 bits in a lock word);
//! * [`spin`] — the three-tier contention loops of Figure 3;
//! * [`contention`] — the history-keyed back-off contention manager
//!   (arXiv 1305.5800) behind the slow write / fallback probes;
//! * [`osmonitor`] — reentrant Java-style OS monitors and the monitor
//!   table used by lock inflation;
//! * [`events`] — asynchronous validation events (the JVM's GC-check
//!   events the paper reuses to break inconsistent infinite loops);
//! * [`fence`] — the memory-ordering points of §3.4, including the
//!   deliberately weak `WeakBarrier-SOLERO` mode;
//! * [`stats`] — the per-lock counters behind Table 1 and Figure 15.
//!
//! # Examples
//!
//! ```
//! use solero_runtime::word::{CompactWord, COMPACT_CTR_STEP};
//! use solero_runtime::thread::ThreadId;
//!
//! // A free SOLERO word carries a counter; acquisition adds tid|LOCK_BIT
//! // beside it and release publishes counter+1.
//! let free = CompactWord::with_counter(10);
//! let held = CompactWord::held_by(free, ThreadId::current());
//! assert!(free.is_elidable() && !held.is_elidable());
//! assert_eq!(held.release_word(COMPACT_CTR_STEP).counter(), Some(11));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod contention;
pub mod events;
pub mod fault;
pub mod fence;
pub mod osmonitor;
pub mod spin;
pub mod stats;
pub mod thread;
pub mod word;
