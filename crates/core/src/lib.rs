//! **SOLERO** — *Software Optimistic Lock Elision for Read-Only critical
//! sections* (Nakaike & Michael, PLDI 2010), reproduced in Rust.
//!
//! SOLERO is a drop-in replacement for the conventional Java monitor
//! whose **read-only critical sections never write the lock word**.
//! While the lock is free its word holds a sequence counter; every
//! writing critical section leaves the counter at a new value, so a
//! read-only section is consistent exactly when the word was "free" at
//! entry and unchanged at exit. Unlike a bare Linux-style seqlock,
//! SOLERO keeps the **full monitor feature set** — reentrancy, bi-modal
//! inflation to OS monitors, contention management — and **recovers**
//! from the faults speculation can induce (null dereferences, division
//! by zero, infinite loops) by validating the captured lock value and
//! re-executing, falling back to real acquisition after repeated
//! failures.
//!
//! # Quick start
//!
//! ```
//! use solero::{Fault, SoleroLock};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let lock = SoleroLock::new();
//! let balance = AtomicU64::new(100);
//!
//! // Writers acquire the lock and advance the sequence counter:
//! lock.write(|| balance.store(150, Ordering::Release));
//!
//! // Readers validate instead of acquiring — no lock-word write, no
//! // cache-line ping-pong between concurrent readers:
//! let seen = lock.read_only(|_session| {
//!     Ok::<_, Fault>(balance.load(Ordering::Acquire))
//! })?;
//! assert_eq!(seen, 150);
//! # Ok::<(), Fault>(())
//! ```
//!
//! # Crate map
//!
//! * [`SoleroLock`] — the lock: write paths (paper Figure 6), read-only
//!   elision (Figures 7–9), read-mostly upgrade (Figure 17);
//! * [`TasukiLock`] — the conventional bi-modal monitor it extends, the
//!   paper's baseline `Lock` (Figures 2 and 3): the same protocol over
//!   the same word with a zero counter step, so its free word is zero,
//!   and no elided reads;
//! * [`SoleroConfig`] / [`ElisionMode`] — the paper's ablations
//!   (`Unelided-SOLERO`, `WeakBarrier-SOLERO`);
//! * [`AdaptivePolicy`] / [`AdaptiveBudgets`] — per-lock adaptive
//!   elision: per-abort-class retry budgets, forfeit with geometric
//!   escalation, re-arm on quiet (the `Adaptive-SOLERO` contender);
//! * [`ReadSession`] / [`MostlySession`] / [`Checkpoint`] /
//!   [`WriteIntent`] — contexts handed to critical-section closures,
//!   carrying validation check-points and the in-place upgrade;
//! * [`CompactSpace`] / [`CompactLock`] / [`CompactRef`] — Compact Java
//!   Monitors over the SOLERO protocol: an eight-byte per-object lock
//!   word whose elision counter rides *inside* the held word, with all
//!   inflated state in the global generation-keyed monitor table —
//!   per-object footprint for millions-of-objects heaps;
//! * [`SeqLock`] / [`SeqStrategy`] — the inline-data seqlock fast path
//!   for small `Copy` read-mostly payloads: the payload follows the
//!   sequence word (no heap indirection), readers run the same elision
//!   driver as [`SoleroLock`] over the even/odd word, and writers
//!   contend under the history-keyed back-off of
//!   [`ContentionConfig`](solero_runtime::contention::ContentionConfig);
//! * [`SyncStrategy`] with [`LockStrategy`], [`RwStrategy`] (over any
//!   [`RawRwLock`]: the `RWLock` baseline [`JavaRwLock`] or the BRAVO
//!   biased lock [`BravoLock`]), [`SoleroStrategy`] — the lock
//!   implementations the evaluation compares, behind one interface so
//!   workloads are shared;
//! * [`DynSyncStrategy`] / [`BoxedStrategy`] — the object-safe facade,
//!   so drivers can hold heterogeneous `Vec<Box<dyn DynSyncStrategy>>`
//!   fleets and dispatch sections dynamically;
//! * [`Fault`] — the runtime-exception model used for speculative-fault
//!   recovery (§3.3).
//!
//! The companion crates build the rest of the paper's world:
//! `solero-heap` (a speculation-safe shadow heap), `solero-collections`
//! (HashMap/TreeMap), `solero-jit` (read-only classification of
//! synchronized regions), `solero-workloads` and `solero-bench` (the
//! evaluation).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adaptive;
mod compact;
mod config;
mod dynstrategy;
mod lock;
#[cfg(solero_mc)]
pub mod mutation;
mod read;
mod seqlock;
mod session;
mod strategy;

pub use adaptive::{AdaptiveBudgets, AdaptivePolicy, EntryDecision, PolicyProbe};
pub use compact::{CompactLock, CompactRef, CompactSpace};
pub use config::{ElisionMode, SoleroConfig, SoleroConfigBuilder};
pub use dynstrategy::{BoxedStrategy, DynSyncStrategy};
pub use lock::{SoleroLock, SoleroWriteGuard, TasukiGuard, TasukiLock, WriteTicket};
pub use seqlock::{SeqData, SeqLock, SeqStrategy, SEQ_INLINE_WORDS};
pub use session::{Checkpoint, MostlySession, NullCheckpoint, ReadSession, WriteIntent};
pub use strategy::{BravoStrategy, LockStrategy, RwStrategy, SoleroStrategy, SyncStrategy};

pub use solero_rwlock::{BravoLock, BravoPolicy, JavaRwLock, RawRwLock};

pub use solero_runtime::fault::Fault;
