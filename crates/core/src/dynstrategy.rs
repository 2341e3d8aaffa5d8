//! An object-safe facade over [`SyncStrategy`].
//!
//! [`SyncStrategy`]'s section methods are generic over closure and
//! return types, which makes the trait itself not dyn-compatible — yet
//! the workload driver, the benchmark harness, and the observability
//! exporter all want to iterate over a heterogeneous
//! `Vec<Box<dyn ...>>` of strategies. [`DynSyncStrategy`] is the
//! dyn-compatible mirror: sections take `&mut dyn FnMut` and return
//! `()`-shaped results, a blanket impl covers every [`SyncStrategy`]
//! for free, and typed adapters on the trait object
//! ([`write_with`](DynSyncStrategy::write_with) and friends) recover
//! the ergonomic generic signatures by smuggling the return value
//! through a captured `Option`.
//!
//! Under SOLERO a read section may execute several times; the adapters
//! store each successful attempt's value, so the *last* (validated)
//! execution wins — the same semantics the generic API gives.

use solero_runtime::fault::Fault;
use solero_runtime::stats::StatsSnapshot;

use crate::session::WriteIntent;
use crate::strategy::SyncStrategy;

/// A boxed, dynamically-dispatched synchronization strategy.
pub type BoxedStrategy = Box<dyn DynSyncStrategy>;

/// Dyn-compatible mirror of [`SyncStrategy`].
///
/// Implemented for every [`SyncStrategy`] by a blanket impl; implement
/// it directly only for types that cannot offer the generic API.
///
/// # Examples
///
/// ```
/// use solero::{BoxedStrategy, LockStrategy, SoleroStrategy};
///
/// let fleet: Vec<BoxedStrategy> = vec![
///     Box::new(LockStrategy::new()),
///     Box::new(SoleroStrategy::new()),
/// ];
/// for s in &fleet {
///     s.write_with(|| {});
///     let n = s.read_with(|_| Ok(42)).unwrap();
///     assert_eq!(n, 42);
///     assert_eq!(s.snapshot().total_sections(), 2);
/// }
/// ```
pub trait DynSyncStrategy: Send + Sync {
    /// Human-readable name used in benchmark output.
    fn name(&self) -> &'static str;

    /// Runs `f` as a writing critical section.
    fn write_section_dyn(&self, f: &mut dyn FnMut());

    /// Runs `f` as a read-only critical section. `f` may execute
    /// speculatively and multiple times.
    ///
    /// # Errors
    ///
    /// Propagates only genuine faults from `f`.
    fn read_section_dyn(
        &self,
        f: &mut dyn FnMut(&mut dyn WriteIntent) -> Result<(), Fault>,
    ) -> Result<(), Fault>;

    /// Runs `f` as a read-mostly critical section.
    ///
    /// # Errors
    ///
    /// Propagates only genuine faults from `f`.
    fn mostly_section_dyn(
        &self,
        f: &mut dyn FnMut(&mut dyn WriteIntent) -> Result<(), Fault>,
    ) -> Result<(), Fault>;

    /// Point-in-time statistics.
    fn snapshot(&self) -> StatsSnapshot;

    /// Resets the statistics counters; exact only while no section
    /// runs, as [`SyncStrategy::reset_stats`] says.
    fn reset_stats(&self);
}

impl<S: SyncStrategy> DynSyncStrategy for S {
    fn name(&self) -> &'static str {
        SyncStrategy::name(self)
    }

    fn write_section_dyn(&self, f: &mut dyn FnMut()) {
        self.write_section(|| f());
    }

    fn read_section_dyn(
        &self,
        f: &mut dyn FnMut(&mut dyn WriteIntent) -> Result<(), Fault>,
    ) -> Result<(), Fault> {
        self.read_section(|w| f(w))
    }

    fn mostly_section_dyn(
        &self,
        f: &mut dyn FnMut(&mut dyn WriteIntent) -> Result<(), Fault>,
    ) -> Result<(), Fault> {
        self.mostly_section(|w| f(w))
    }

    fn snapshot(&self) -> StatsSnapshot {
        SyncStrategy::snapshot(self)
    }

    fn reset_stats(&self) {
        SyncStrategy::reset_stats(self);
    }
}

impl dyn DynSyncStrategy + '_ {
    /// Typed adapter over
    /// [`write_section_dyn`](DynSyncStrategy::write_section_dyn): runs
    /// `f` as a writing section and returns its value.
    pub fn write_with<R>(&self, f: impl FnOnce() -> R) -> R {
        let mut f = Some(f);
        let mut out = None;
        self.write_section_dyn(&mut || {
            let f = f.take().expect("write section ran more than once");
            out = Some(f());
        });
        out.expect("write section did not run")
    }

    /// Typed adapter over
    /// [`read_section_dyn`](DynSyncStrategy::read_section_dyn): runs `f`
    /// as a read-only section, returning the value of the last
    /// successful execution.
    ///
    /// # Errors
    ///
    /// Propagates only genuine faults from `f`.
    pub fn read_with<R>(
        &self,
        mut f: impl FnMut(&mut dyn WriteIntent) -> Result<R, Fault>,
    ) -> Result<R, Fault> {
        let mut out = None;
        self.read_section_dyn(&mut |w| {
            out = Some(f(w)?);
            Ok(())
        })?;
        Ok(out.expect("read section did not run"))
    }

    /// Typed adapter over
    /// [`mostly_section_dyn`](DynSyncStrategy::mostly_section_dyn).
    ///
    /// # Errors
    ///
    /// Propagates only genuine faults from `f`.
    pub fn mostly_with<R>(
        &self,
        mut f: impl FnMut(&mut dyn WriteIntent) -> Result<R, Fault>,
    ) -> Result<R, Fault> {
        let mut out = None;
        self.mostly_section_dyn(&mut |w| {
            out = Some(f(w)?);
            Ok(())
        })?;
        Ok(out.expect("mostly section did not run"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SoleroConfig;
    use crate::strategy::{BravoStrategy, LockStrategy, RwStrategy, SoleroStrategy};
    use solero_rwlock::JavaRwLock;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn fleet() -> Vec<BoxedStrategy> {
        vec![
            Box::new(LockStrategy::new()),
            Box::new(RwStrategy::<JavaRwLock>::new()),
            Box::new(BravoStrategy::new()),
            Box::new(SoleroStrategy::new()),
            Box::new(SoleroStrategy::configured(
                SoleroConfig::builder().unelided(true).build(),
            )),
        ]
    }

    #[test]
    fn boxed_fleet_runs_the_shared_workload() {
        for s in &fleet() {
            let data = AtomicU64::new(0);
            s.write_with(|| data.store(5, Ordering::Release));
            let v = s
                .read_with(|ck| {
                    ck.checkpoint()?;
                    Ok(data.load(Ordering::Acquire))
                })
                .unwrap();
            assert_eq!(v, 5, "{}", s.name());
            s.mostly_with(|w| {
                let cur = data.load(Ordering::Acquire);
                w.ensure_write()?;
                data.store(cur + 1, Ordering::Release);
                Ok(())
            })
            .unwrap();
            assert_eq!(data.load(Ordering::Acquire), 6, "{}", s.name());
            let snap = s.snapshot();
            // How sections are counted varies by strategy (RWLock's
            // mostly-section takes the write mode), so bound rather than
            // pin.
            assert!(snap.read_enters >= 1, "{}", s.name());
            assert!(snap.total_sections() >= 3, "{}", s.name());
            s.reset_stats();
            assert_eq!(s.snapshot().total_sections(), 0);
        }
    }

    #[test]
    fn genuine_fault_propagates_through_the_facade() {
        for s in &fleet() {
            let r: Result<u64, Fault> = s.read_with(|_| Err(Fault::DivisionByZero));
            assert_eq!(r, Err(Fault::DivisionByZero), "{}", s.name());
        }
    }

    #[test]
    fn retried_read_returns_the_validated_value() {
        // A concurrent writer invalidates the first speculative attempt;
        // the adapter must return the *re-executed* attempt's value.
        let solero = SoleroStrategy::new();
        let s: &dyn DynSyncStrategy = &solero;
        let inner = Arc::new(AtomicU64::new(0));
        let mut attempt = 0u64;
        let lock = solero.lock();
        let v = s
            .read_with(|_| {
                attempt += 1;
                if attempt == 1 {
                    std::thread::scope(|sc| {
                        sc.spawn(|| lock.write(|| inner.store(1, Ordering::Release)));
                    });
                }
                Ok(inner.load(Ordering::Acquire) * 100 + attempt)
            })
            .unwrap();
        assert_eq!(v, 102, "last successful execution wins");
        // Validation failure, then (threshold 1) the immediate fallback:
        // two classified aborts.
        let snap = DynSyncStrategy::snapshot(&solero);
        assert_eq!(snap.abort_word_changed_at_exit, 1);
        assert_eq!(snap.abort_retry_exhausted, 1);
        assert_eq!(snap.read_aborts, snap.abort_reason_sum());
    }

    #[test]
    fn names_survive_dynamic_dispatch() {
        let names: Vec<&str> = fleet().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["Lock", "RWLock", "BRAVO-RW", "SOLERO", "Unelided-SOLERO"]
        );
    }
}
