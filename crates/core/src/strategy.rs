//! A common interface over the three evaluated lock implementations.
//!
//! The paper's workloads run unchanged over `Lock` (conventional
//! monitor), `RWLock`, and `SOLERO`; only the synchronization strategy
//! differs. [`SyncStrategy`] captures that: a workload expresses its
//! critical sections as closures, and each strategy decides how to
//! protect them — mutual exclusion, shared/exclusive modes, or
//! speculative elision with recovery.
//!
//! Read sections receive a [`WriteIntent`] context (a
//! [`Checkpoint`] plus the read-mostly upgrade hook): under SOLERO it is
//! live machinery; under the lock-based strategies it is a no-op, so the
//! workload code — including its back-edge check-points — is identical
//! across strategies, keeping the comparison fair.

use solero_runtime::fault::Fault;
use solero_runtime::stats::StatsSnapshot;
use solero_runtime::thread::ThreadId;
use solero_rwlock::{BravoLock, RawRwLock};

use crate::config::SoleroConfig;
use crate::lock::{SoleroLock, TasukiLock};
use crate::session::{NullCheckpoint, WriteIntent};

/// A synchronization strategy for critical sections.
pub trait SyncStrategy: Send + Sync {
    /// Human-readable name used in benchmark output ("Lock", "RWLock",
    /// "SOLERO", ...).
    fn name(&self) -> &'static str;

    /// Runs `f` as a writing critical section.
    fn write_section<R>(&self, f: impl FnOnce() -> R) -> R
    where
        Self: Sized;

    /// Runs `f` as a read-only critical section. `f` may execute
    /// speculatively and multiple times under SOLERO; it must confine
    /// its effects to its return value.
    ///
    /// # Errors
    ///
    /// Propagates only genuine faults from `f`.
    fn read_section<R>(
        &self,
        f: impl FnMut(&mut dyn WriteIntent) -> Result<R, Fault>,
    ) -> Result<R, Fault>
    where
        Self: Sized;

    /// Runs `f` as a read-mostly critical section: mostly reads, with
    /// `ensure_write` called before any write. Defaults to
    /// [`SyncStrategy::read_section`], which is correct for strategies
    /// whose read sections already hold a write-excluding lock.
    ///
    /// # Errors
    ///
    /// Propagates only genuine faults from `f`.
    fn mostly_section<R>(
        &self,
        f: impl FnMut(&mut dyn WriteIntent) -> Result<R, Fault>,
    ) -> Result<R, Fault>
    where
        Self: Sized,
    {
        self.read_section(f)
    }

    /// Point-in-time statistics.
    fn snapshot(&self) -> StatsSnapshot;

    /// Resets the statistics counters.
    ///
    /// Exact only while no section runs on the lock: an elided read
    /// books on a stripe its thread owns with a plain load and store,
    /// and a bump that straddles the reset undoes it
    /// ([`LockStats::reset`](solero_runtime::stats::LockStats::reset)).
    /// Every caller resets a quiescent lock. `solero_workloads`'
    /// open-loop driver resets its store between its two start
    /// barriers, after warm-up and before the measured sections;
    /// `KvStore::reset_stats`, `DynSyncStrategy::reset_stats`, the
    /// benchmark's traced strategy and the workloads' `reset_stats`
    /// (`EmptyBench`, `MapBench`, `JbbBench`, `DacapoBench`) forward to
    /// it; and the unit tests reset after their sections return.
    fn reset_stats(&self);
}

/// The conventional monitor — the paper's `Lock`.
///
/// Read sections acquire the lock exactly like write sections (mutual
/// exclusion does not distinguish them); they are counted as reads for
/// the Table 1 statistics.
#[derive(Debug, Default)]
pub struct LockStrategy {
    lock: TasukiLock,
}

impl LockStrategy {
    /// Creates the strategy.
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying lock.
    pub fn lock(&self) -> &TasukiLock {
        &self.lock
    }
}

impl SyncStrategy for LockStrategy {
    fn name(&self) -> &'static str {
        "Lock"
    }

    fn write_section<R>(&self, f: impl FnOnce() -> R) -> R {
        let tid = ThreadId::current();
        self.lock.enter(tid);
        let r = f();
        self.lock.exit(tid);
        r
    }

    fn read_section<R>(
        &self,
        mut f: impl FnMut(&mut dyn WriteIntent) -> Result<R, Fault>,
    ) -> Result<R, Fault> {
        let tid = ThreadId::current();
        // Same acquisition; counted as a read section so Table 1's
        // read-only ratio is strategy-independent.
        self.lock.enter_read(tid);
        let r = f(&mut NullCheckpoint);
        self.lock.exit(tid);
        r
    }

    fn mostly_section<R>(
        &self,
        mut f: impl FnMut(&mut dyn WriteIntent) -> Result<R, Fault>,
    ) -> Result<R, Fault> {
        let tid = ThreadId::current();
        self.lock.enter_read(tid);
        let r = f(&mut NullCheckpoint);
        self.lock.exit(tid);
        r
    }

    fn snapshot(&self) -> StatsSnapshot {
        self.lock.stats().snapshot()
    }

    fn reset_stats(&self) {
        self.lock.stats().reset();
    }
}

/// A reader-writer lock strategy, generic over the lock behind the
/// [`RawRwLock`] interface — the paper's `RWLock` baseline when
/// instantiated with [`JavaRwLock`](solero_rwlock::JavaRwLock), the
/// BRAVO biased contender when
/// instantiated with [`BravoLock`].
#[derive(Debug, Default)]
pub struct RwStrategy<L: RawRwLock> {
    lock: L,
}

/// The BRAVO biased reader-writer lock strategy (`BRAVO-RW` in the
/// benchmark tables).
pub type BravoStrategy = RwStrategy<BravoLock>;

impl<L: RawRwLock> RwStrategy<L> {
    /// Creates the strategy over a default-constructed lock.
    pub fn new() -> Self {
        RwStrategy { lock: L::default() }
    }

    /// The underlying lock.
    pub fn lock(&self) -> &L {
        &self.lock
    }
}

impl<L: RawRwLock> SyncStrategy for RwStrategy<L> {
    fn name(&self) -> &'static str {
        L::NAME
    }

    fn write_section<R>(&self, f: impl FnOnce() -> R) -> R {
        let _g = self.lock.write();
        f()
    }

    fn read_section<R>(
        &self,
        mut f: impl FnMut(&mut dyn WriteIntent) -> Result<R, Fault>,
    ) -> Result<R, Fault> {
        let _g = self.lock.read();
        f(&mut NullCheckpoint)
    }

    fn mostly_section<R>(
        &self,
        mut f: impl FnMut(&mut dyn WriteIntent) -> Result<R, Fault>,
    ) -> Result<R, Fault> {
        // A read-mostly section may write after `ensure_write`; under a
        // read-write lock that requires the write mode.
        let _g = self.lock.write();
        f(&mut NullCheckpoint)
    }

    fn snapshot(&self) -> StatsSnapshot {
        self.lock.stats().snapshot()
    }

    fn reset_stats(&self) {
        self.lock.stats().reset();
    }
}

/// SOLERO — the paper's contribution, including its `Unelided` and
/// `WeakBarrier` ablation configurations.
#[derive(Debug)]
pub struct SoleroStrategy {
    lock: SoleroLock,
    label: &'static str,
}

impl Default for SoleroStrategy {
    fn default() -> Self {
        Self::new()
    }
}

impl SoleroStrategy {
    /// The paper's default configuration.
    pub fn new() -> Self {
        Self::configured(SoleroConfig::default())
    }

    /// A strategy from a built [`SoleroConfig`], deriving the display
    /// label from the configuration — the one constructor behind
    /// `SoleroConfig::builder()`:
    ///
    /// ```
    /// use solero::{SoleroConfig, SoleroStrategy, SyncStrategy};
    ///
    /// let s = SoleroStrategy::configured(
    ///     SoleroConfig::builder().retries(4).weak_barrier(true).build(),
    /// );
    /// assert_eq!(s.name(), "WeakBarrier-SOLERO");
    /// ```
    pub fn configured(config: SoleroConfig) -> Self {
        let label = if config.elision == crate::config::ElisionMode::NoElide {
            "Unelided-SOLERO"
        } else if config.barrier == solero_runtime::fence::BarrierMode::Weak {
            "WeakBarrier-SOLERO"
        } else if config.adaptive.is_some() {
            "Adaptive-SOLERO"
        } else {
            "SOLERO"
        };
        SoleroStrategy {
            lock: SoleroLock::with_config(config),
            label,
        }
    }

    /// The underlying lock.
    pub fn lock(&self) -> &SoleroLock {
        &self.lock
    }
}

impl SyncStrategy for SoleroStrategy {
    fn name(&self) -> &'static str {
        self.label
    }

    fn write_section<R>(&self, f: impl FnOnce() -> R) -> R {
        self.lock.write(f)
    }

    fn read_section<R>(
        &self,
        mut f: impl FnMut(&mut dyn WriteIntent) -> Result<R, Fault>,
    ) -> Result<R, Fault> {
        self.lock.read_only(|s| f(s))
    }

    fn mostly_section<R>(
        &self,
        mut f: impl FnMut(&mut dyn WriteIntent) -> Result<R, Fault>,
    ) -> Result<R, Fault> {
        self.lock.read_mostly(|s| f(s))
    }

    fn snapshot(&self) -> StatsSnapshot {
        self.lock.stats().snapshot()
    }

    fn reset_stats(&self) {
        self.lock.stats().reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solero_rwlock::JavaRwLock;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn exercise<S: SyncStrategy>(s: &S) {
        let data = AtomicU64::new(0);
        s.write_section(|| data.store(5, Ordering::Release));
        let v = s
            .read_section(|ck| {
                ck.checkpoint()?;
                Ok(data.load(Ordering::Acquire))
            })
            .unwrap();
        assert_eq!(v, 5);
        s.mostly_section(|ck| {
            let cur = data.load(Ordering::Acquire);
            ck.ensure_write()?;
            data.store(cur + 1, Ordering::Release);
            Ok(())
        })
        .unwrap();
        assert_eq!(data.load(Ordering::Acquire), 6);
        let snap = s.snapshot();
        assert!(snap.total_sections() >= 2, "{}: {snap}", s.name());
        s.reset_stats();
        assert_eq!(s.snapshot().total_sections(), 0);
    }

    #[test]
    fn all_strategies_run_the_same_workload() {
        exercise(&LockStrategy::new());
        exercise(&RwStrategy::<JavaRwLock>::new());
        exercise(&BravoStrategy::new());
        exercise(&SoleroStrategy::new());
        exercise(&SoleroStrategy::configured(
            SoleroConfig::builder().unelided(true).build(),
        ));
        exercise(&SoleroStrategy::configured(
            SoleroConfig::builder().weak_barrier(true).build(),
        ));
        exercise(&SoleroStrategy::configured(
            SoleroConfig::builder().adaptive(true).build(),
        ));
        exercise(&crate::SeqStrategy::new(0u64));
        exercise(&crate::SeqStrategy::configured(
            SoleroConfig::builder().adaptive(true).build(),
            0u64,
        ));
    }

    #[test]
    fn read_ratio_is_strategy_independent() {
        for run in 0..3 {
            let (lock, rw, so, un) = (
                LockStrategy::new(),
                BravoStrategy::new(),
                SoleroStrategy::new(),
                SoleroStrategy::configured(SoleroConfig::builder().unelided(true).build()),
            );
            fn mix<S: SyncStrategy>(s: &S) -> f64 {
                for i in 0..100 {
                    if i % 10 == 0 {
                        s.write_section(|| {});
                    } else {
                        s.read_section(|_| Ok(())).unwrap();
                    }
                }
                s.snapshot().read_only_ratio()
            }
            let (a, b, c, d) = (mix(&lock), mix(&rw), mix(&so), mix(&un));
            assert!((a - 0.9).abs() < 1e-12, "run {run}: lock ratio {a}");
            assert!((b - 0.9).abs() < 1e-12, "run {run}: rw ratio {b}");
            assert!((c - 0.9).abs() < 1e-12, "run {run}: solero ratio {c}");
            // An unelided read runs under the lock but is still one read.
            assert!((d - 0.9).abs() < 1e-12, "run {run}: unelided ratio {d}");
        }
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            LockStrategy::new().name(),
            RwStrategy::<JavaRwLock>::new().name(),
            BravoStrategy::new().name(),
            SoleroStrategy::new().name(),
            SoleroStrategy::configured(SoleroConfig::builder().unelided(true).build()).name(),
            SoleroStrategy::configured(SoleroConfig::builder().weak_barrier(true).build()).name(),
            SoleroStrategy::configured(SoleroConfig::builder().adaptive(true).build()).name(),
            crate::SeqStrategy::new(0u64).name(),
            crate::SeqStrategy::configured(SoleroConfig::builder().adaptive(true).build(), 0u64)
                .name(),
        ];
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
