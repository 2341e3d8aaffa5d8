//! Instrumented drop-in replacements for the `std::sync` types the
//! protocol crates use (compiled under `--cfg solero_mc`).
//!
//! Each type keeps a *mirror* `std` primitive holding the current
//! value/data. Inside an execution, every operation first routes
//! through the scheduler ([`crate::rt`]) — a scheduling point plus the
//! model semantics (store histories, model mutex ownership, condvar
//! wait queues) — and then updates the mirror while still the only
//! running virtual thread. Outside an execution, or while the calling
//! thread is unwinding, operations degrade to the plain `std` form so
//! that setup code, drops and panic teardown never touch the
//! scheduler.

use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};
use std::sync::{
    Condvar as StdCondvar, LockResult, Mutex as StdMutex, MutexGuard as StdMutexGuard,
    PoisonError,
};
use std::time::Duration;

use crate::rt;

pub use std::sync::atomic::Ordering;

/// Instrumented `atomic::fence`: inside an execution it is a scheduling
/// point the checker records (and, under the weak-memory mode, a drain
/// point for `SeqCst`); outside it is the plain `std` fence.
pub fn fence(order: Ordering) {
    match rt::cur_ctx() {
        None => std::sync::atomic::fence(order),
        Some(ctx) => rt::fence_op(&ctx, matches!(order, Ordering::SeqCst)),
    }
}

/// Instrumented Store→Load barrier. The real implementation lives in
/// `solero-runtime::fence` (x86 `lock add [rsp - 8], 0`); model-checked
/// builds route here so the scheduler sees the barrier instead of an
/// opaque asm block.
pub fn storeload_fence() {
    match rt::cur_ctx() {
        None => std::sync::atomic::fence(Ordering::SeqCst),
        Some(ctx) => rt::storeload_fence_op(&ctx),
    }
}

#[inline]
fn is_relaxed(o: Ordering) -> bool {
    matches!(o, Ordering::Relaxed)
}

#[inline]
fn is_release(o: Ordering) -> bool {
    matches!(o, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

macro_rules! mc_atomic {
    ($name:ident, $prim:ty, $std:ty) => {
        /// Model-checked atomic; see the module docs.
        pub struct $name {
            mirror: $std,
        }

        impl $name {
            pub const fn new(v: $prim) -> Self {
                Self {
                    mirror: <$std>::new(v),
                }
            }

            #[inline]
            fn addr(&self) -> usize {
                self as *const _ as usize
            }

            #[inline]
            fn init(&self) -> u64 {
                self.mirror.load(Ordering::Relaxed) as u64
            }

            pub fn load(&self, order: Ordering) -> $prim {
                match rt::cur_ctx() {
                    None => self.mirror.load(order),
                    Some(ctx) => {
                        rt::atomic_load(&ctx, self.addr(), self.init(), is_relaxed(order))
                            as $prim
                    }
                }
            }

            pub fn store(&self, val: $prim, order: Ordering) {
                match rt::cur_ctx() {
                    None => self.mirror.store(val, order),
                    Some(ctx) => {
                        rt::atomic_store(
                            &ctx,
                            self.addr(),
                            self.init(),
                            val as u64,
                            is_release(order),
                            matches!(order, Ordering::SeqCst),
                        );
                        self.mirror.store(val, Ordering::SeqCst);
                    }
                }
            }

            pub fn swap(&self, val: $prim, order: Ordering) -> $prim {
                match rt::cur_ctx() {
                    None => self.mirror.swap(val, order),
                    Some(ctx) => {
                        let old =
                            rt::atomic_rmw(&ctx, self.addr(), self.init(), |_| val as u64);
                        self.mirror.store(val, Ordering::SeqCst);
                        old as $prim
                    }
                }
            }

            pub fn fetch_add(&self, val: $prim, order: Ordering) -> $prim {
                match rt::cur_ctx() {
                    None => self.mirror.fetch_add(val, order),
                    Some(ctx) => {
                        let old = rt::atomic_rmw(&ctx, self.addr(), self.init(), |o| {
                            (o as $prim).wrapping_add(val) as u64
                        });
                        let old = old as $prim;
                        self.mirror.store(old.wrapping_add(val), Ordering::SeqCst);
                        old
                    }
                }
            }

            pub fn fetch_sub(&self, val: $prim, order: Ordering) -> $prim {
                match rt::cur_ctx() {
                    None => self.mirror.fetch_sub(val, order),
                    Some(ctx) => {
                        let old = rt::atomic_rmw(&ctx, self.addr(), self.init(), |o| {
                            (o as $prim).wrapping_sub(val) as u64
                        });
                        let old = old as $prim;
                        self.mirror.store(old.wrapping_sub(val), Ordering::SeqCst);
                        old
                    }
                }
            }

            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                match rt::cur_ctx() {
                    None => self.mirror.compare_exchange(current, new, success, failure),
                    Some(ctx) => {
                        let r = rt::atomic_cas(
                            &ctx,
                            self.addr(),
                            self.init(),
                            current as u64,
                            new as u64,
                        );
                        match r {
                            Ok(old) => {
                                self.mirror.store(new, Ordering::SeqCst);
                                Ok(old as $prim)
                            }
                            Err(old) => Err(old as $prim),
                        }
                    }
                }
            }

            /// Modelled with strong semantics (no spurious failure);
            /// every weak-CAS behaviour is a subset of the strong one
            /// plus a retry the surrounding loop already performs.
            pub fn compare_exchange_weak(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                self.compare_exchange(current, new, success, failure)
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_tuple(stringify!($name))
                    .field(&self.mirror.load(Ordering::Relaxed))
                    .finish()
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new(0)
            }
        }
    };
}

mc_atomic!(AtomicU64, u64, std::sync::atomic::AtomicU64);
mc_atomic!(AtomicUsize, usize, std::sync::atomic::AtomicUsize);

// ----------------------------------------------------------------- mutex

/// Model-checked mutex; see the module docs.
pub struct Mutex<T: ?Sized> {
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(t: T) -> Self {
        Self {
            inner: StdMutex::new(t),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    #[inline]
    fn addr(&self) -> usize {
        self as *const _ as *const () as usize
    }

    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        match rt::cur_ctx() {
            None => {
                let g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
                Ok(MutexGuard {
                    std: ManuallyDrop::new(g),
                    mx: self,
                    tracked: false,
                })
            }
            Some(ctx) => {
                rt::mutex_lock(&ctx, self.addr());
                // Model ownership is exclusive, so the real lock is
                // uncontended here.
                let g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
                Ok(MutexGuard {
                    std: ManuallyDrop::new(g),
                    mx: self,
                    tracked: true,
                })
            }
        }
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

/// Guard for [`Mutex`]. Releases the real lock first, then tells the
/// scheduler — between the two nothing else can run, because the
/// dropping thread is still the active virtual thread.
pub struct MutexGuard<'a, T: ?Sized> {
    std: ManuallyDrop<StdMutexGuard<'a, T>>,
    mx: &'a Mutex<T>,
    tracked: bool,
}

impl<'a, T: ?Sized> MutexGuard<'a, T> {
    fn into_parts(mut self) -> (StdMutexGuard<'a, T>, &'a Mutex<T>, bool) {
        // SAFETY: `self` is forgotten immediately, so the guard is
        // dropped exactly once (by the caller).
        let std = unsafe { ManuallyDrop::take(&mut self.std) };
        let mx = self.mx;
        let tracked = self.tracked;
        std::mem::forget(self);
        (std, mx, tracked)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.std
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.std
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // SAFETY: drop runs once; the field is never touched again.
        unsafe { ManuallyDrop::drop(&mut self.std) };
        if self.tracked {
            if let Some(ctx) = rt::cur_ctx() {
                rt::mutex_unlock(&ctx, self.mx.addr());
            }
            // else: unwinding (abort teardown). The model owner stays
            // set; threads blocked on it are woken by the abort.
        }
    }
}

// --------------------------------------------------------------- condvar

/// Result of a timed wait. `std`'s equivalent has no public
/// constructor, hence this mirror type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Model-checked condition variable; see the module docs.
pub struct Condvar {
    std: StdCondvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Self {
            std: StdCondvar::new(),
        }
    }

    #[inline]
    fn addr(&self) -> usize {
        self as *const _ as usize
    }

    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        match rt::cur_ctx() {
            None => {
                let (std, mx, tracked) = guard.into_parts();
                let g = self.std.wait(std).unwrap_or_else(PoisonError::into_inner);
                Ok(MutexGuard {
                    std: ManuallyDrop::new(g),
                    mx,
                    tracked,
                })
            }
            Some(ctx) => {
                let (std, mx, tracked) = guard.into_parts();
                drop(std);
                rt::cv_wait(&ctx, self.addr(), mx.addr(), false);
                let g = mx.inner.lock().unwrap_or_else(PoisonError::into_inner);
                Ok(MutexGuard {
                    std: ManuallyDrop::new(g),
                    mx,
                    tracked,
                })
            }
        }
    }

    /// The duration is ignored under the model: a timed wait may fire
    /// its timeout whenever scheduled, up to the per-thread budget.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        match rt::cur_ctx() {
            None => {
                let (std, mx, tracked) = guard.into_parts();
                let (g, r) = self
                    .std
                    .wait_timeout(std, dur)
                    .unwrap_or_else(PoisonError::into_inner);
                Ok((
                    MutexGuard {
                        std: ManuallyDrop::new(g),
                        mx,
                        tracked,
                    },
                    WaitTimeoutResult(r.timed_out()),
                ))
            }
            Some(ctx) => {
                let (std, mx, tracked) = guard.into_parts();
                drop(std);
                let timed_out = rt::cv_wait(&ctx, self.addr(), mx.addr(), true);
                let g = mx.inner.lock().unwrap_or_else(PoisonError::into_inner);
                Ok((
                    MutexGuard {
                        std: ManuallyDrop::new(g),
                        mx,
                        tracked,
                    },
                    WaitTimeoutResult(timed_out),
                ))
            }
        }
    }

    pub fn notify_one(&self) {
        match rt::cur_ctx() {
            None => self.std.notify_one(),
            Some(ctx) => rt::cv_notify(&ctx, self.addr(), false),
        }
    }

    pub fn notify_all(&self) {
        match rt::cur_ctx() {
            None => self.std.notify_all(),
            Some(ctx) => rt::cv_notify(&ctx, self.addr(), true),
        }
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}
