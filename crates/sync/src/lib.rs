//! Synchronization facade for the SOLERO reproduction.
//!
//! Every protocol crate (`solero`, home of both SOLERO and the tasuki
//! baseline, `solero-rwlock`, `solero-heap`, and the `OsMonitor` half
//! of `solero-runtime`) imports
//! its atomics, mutexes and condition variables from here instead of
//! `std::sync`. In a normal build this module is nothing but
//! re-exports — the types *are* the `std` types, so the facade is
//! zero-cost and the benches compile unchanged.
//!
//! Under `RUSTFLAGS="--cfg solero_mc"` the same paths resolve to
//! instrumented shims (`shim`) that yield to a cooperative scheduler
//! (`rt`) at every operation. The scheduler runs exactly one virtual
//! thread at a time and asks a [`model::Chooser`] which one, which is
//! what lets `solero-mc` exhaustively enumerate interleavings of small
//! lock scenarios and deterministically replay any failing schedule.
//!
//! The cfg is deliberately a `rustc` flag rather than a Cargo feature:
//! feature unification would silently poison ordinary builds of any
//! crate in the same graph, whereas `--cfg solero_mc` only exists when
//! the model-checking step sets it (with its own target directory).

pub mod model;

#[cfg(not(solero_mc))]
pub mod atomic {
    //! Re-exports of `std::sync::atomic` (normal builds).
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering,
    };
}

#[cfg(not(solero_mc))]
pub use std::sync::{Condvar, LockResult, Mutex, MutexGuard, PoisonError, WaitTimeoutResult};

#[cfg(solero_mc)]
pub mod rt;

#[cfg(solero_mc)]
pub mod shim;

#[cfg(solero_mc)]
pub mod atomic {
    //! Instrumented atomics (model-checking builds). `fence` routes
    //! through the shim so the scheduler sees every barrier the
    //! protocol issues (the §3.4 entry fence is protocol-critical and
    //! must be a first-class scheduler op, not an invisible intrinsic).
    pub use crate::shim::{fence, AtomicU64, AtomicUsize, Ordering};
    pub use std::sync::atomic::{AtomicBool, AtomicU32};
}

#[cfg(solero_mc)]
pub use shim::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};

#[cfg(solero_mc)]
pub use std::sync::{LockResult, PoisonError};

#[cfg(all(test, not(solero_mc)))]
mod tests {
    //! The facade's whole contract in a normal build is "these are the
    //! std types". Exercise the paths the protocol crates use.
    use super::atomic::{AtomicU64, AtomicUsize, Ordering};
    use super::{Condvar, Mutex, PoisonError};
    use std::time::Duration;

    #[test]
    fn atomics_are_std_atomics() {
        let a: std::sync::atomic::AtomicU64 = AtomicU64::new(7);
        a.fetch_add(1, Ordering::AcqRel);
        assert_eq!(a.load(Ordering::Acquire), 8);
        let b: std::sync::atomic::AtomicUsize = AtomicUsize::new(1);
        assert_eq!(b.swap(2, Ordering::AcqRel), 1);
    }

    #[test]
    fn mutex_condvar_are_std() {
        let m = Mutex::new(0u32);
        let cv = Condvar::new();
        let g = m.lock().unwrap_or_else(PoisonError::into_inner);
        let (g, res) = cv
            .wait_timeout(g, Duration::from_millis(1))
            .unwrap_or_else(PoisonError::into_inner);
        assert!(res.timed_out());
        assert_eq!(*g, 0);
    }
}
