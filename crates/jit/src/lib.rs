//! A miniature JIT front end for automatic lock elision.
//!
//! **Substitution note (see DESIGN.md §2):** the paper implements SOLERO
//! inside a commercial JVM whose JIT compiler (a) identifies
//! synchronized blocks that are read-only, (b) honours a
//! `@SoleroReadOnly` annotation where the analysis is too conservative
//! (virtual calls), and (c) emits the elision entry/exit sequences plus
//! asynchronous validation check-points at method entries and loop
//! back-edges. This crate rebuilds that pipeline over a bytecode-like
//! IR:
//!
//! * [`ir`] / [`builder`] — the IR and a fluent constructor;
//! * [`verify`] — structural verification (balanced `monitorenter`/
//!   `monitorexit` along every path, as `javac` guarantees);
//! * [`liveness`] — live-variable analysis (the "no writes to live-in
//!   locals" rule);
//! * [`analysis`] — synchronized-region discovery and the §3.2
//!   read-only / §5 read-mostly classification, with violation
//!   diagnostics;
//! * [`lower`] — lock-plan selection and back-edge check-point
//!   placement;
//! * [`obsprofile`] — profile-guided demotion: a prior run's per-lock
//!   counter export (one `StatsSnapshot` line per [`ir::LockId`]) names
//!   write-heavy locks, whose regions are re-planned conventionally;
//! * [`interp`] — the execution engine: runs regions speculatively with
//!   frame rollback, exactly as the paper's generated code re-executes
//!   a failed critical section.
//!
//! # Examples
//!
//! The classifier in action:
//!
//! ```
//! use solero_jit::analysis::{classify_method, RegionClass};
//! use solero_jit::builder::MethodBuilder;
//! use solero_jit::ir::Program;
//! use solero_heap::ClassId;
//!
//! const C: ClassId = ClassId::new(1);
//! let mut p = Program::new();
//!
//! // synchronized(l0) { return obj.f; }   — read-only
//! let mut b = MethodBuilder::new("get", 1);
//! let v = b.fresh_local();
//! b.monitor_enter(0).get_field(v, 0, C, 0).monitor_exit(0).ret(Some(v));
//! let get = p.add(b.finish());
//!
//! // synchronized(l0) { obj.f = x; }      — writing
//! let mut b = MethodBuilder::new("set", 2);
//! b.monitor_enter(0).put_field(0, C, 0, 1).monitor_exit(0).ret(None);
//! let set = p.add(b.finish());
//!
//! assert_eq!(classify_method(&p, get)[0].class, RegionClass::ReadOnly);
//! assert_eq!(classify_method(&p, set)[0].class, RegionClass::Writing);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod builder;
pub mod disasm;
pub mod interp;
pub mod ir;
pub mod liveness;
pub mod lower;
pub mod obsprofile;
pub mod opt;
pub mod profile;
pub mod verify;
