//! Memory-ordering points (paper §3.4).
//!
//! The correctness of the SOLERO fast paths depends on four orderings:
//!
//! 1. write entry: the acquiring CAS before the section's loads/stores —
//!    the CAS uses `AcqRel` (the paper inserts `lwsync` after it on
//!    POWER);
//! 2. write exit: the section's loads/stores before the releasing store —
//!    the store uses `Release`;
//! 3. read-only entry: the lock-word load before the section's loads —
//!    the load uses `Acquire`; additionally the Java lock semantics
//!    require *stores preceding the section* to be ordered before the
//!    section's loads, a Store→Load edge that even TSO machines need a
//!    full fence for — the paper inserts `sync` here; we issue
//!    [`core::sync::atomic::fence`]`(SeqCst)`;
//! 4. read-only exit: the section's loads before the re-load of the lock
//!    word — guaranteed because all speculative heap loads are `Acquire`,
//!    plus an explicit `Acquire` fence for belt and braces.
//!
//! [`BarrierMode::Weak`] deliberately drops the entry `SeqCst` fence,
//! reproducing the paper's **WeakBarrier-SOLERO** measurement (the cost
//! of the extra ordering), *not* a correct configuration.

use solero_sync::atomic::{fence, Ordering};

/// Which fences the read-only fast path issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BarrierMode {
    /// The correct fences from §3.4 (the POWER `sync` analogue at
    /// read-only entry).
    #[default]
    Strong,
    /// The conventional lock's weaker fences — the paper's deliberately
    /// incorrect `WeakBarrier-SOLERO` configuration, measured to isolate
    /// the memory-ordering overhead.
    Weak,
}

/// A full Store→Load barrier.
///
/// On x86-64 this is the locked-RMW-to-the-stack idiom JIT compilers
/// emit instead of `mfence` (HotSpot's `lock addl $0, 0(%rsp)`): it
/// drains the store buffer like `mfence` but retires faster because the
/// target line is always exclusive in L1. It targets the word just
/// below the stack pointer, as Linux's `smp_mb()` does, not the word
/// at it: the compiler often spills a value there and reloads it right
/// after the fence, and a reload of the word the locked add just wrote
/// waits for that add. Elsewhere it is a `SeqCst` fence.
///
/// Under `--cfg solero_mc` the asm block would be invisible to the
/// cooperative scheduler (the §3.4 barrier the checker exists to test
/// would vanish from the model), so the barrier routes through the
/// `solero-sync` shim instead.
#[cfg(not(solero_mc))]
#[inline]
pub fn storeload_fence() {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: atomically adds 0 to the word at [rsp - 8] — a no-op
    // write to our own stack's red zone. Without `options(nostack)` the
    // compiler keeps nothing live there across the block, and adding 0
    // leaves the word unchanged anyway. The `lock` prefix makes it a
    // full barrier. The asm block is maximally conservative (clobbers
    // memory and flags), so the compiler also treats it as a compiler
    // fence.
    unsafe {
        core::arch::asm!("lock add qword ptr [rsp - 8], 0");
    }
    #[cfg(not(target_arch = "x86_64"))]
    fence(Ordering::SeqCst);
}

/// Model-checked Store→Load barrier: a first-class scheduler op (see
/// the non-mc variant above for the hardware idiom this stands in for).
#[cfg(solero_mc)]
#[inline]
pub fn storeload_fence() {
    solero_sync::shim::storeload_fence();
}

impl BarrierMode {
    /// Fence after loading the lock word at read-only entry.
    #[inline]
    pub fn read_entry_fence(self) {
        match self {
            BarrierMode::Strong => storeload_fence(),
            BarrierMode::Weak => {}
        }
    }

    /// Fence before re-loading the lock word at read-only exit.
    #[inline]
    pub fn read_exit_fence(self) {
        match self {
            BarrierMode::Strong => fence(Ordering::Acquire),
            BarrierMode::Weak => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_strong() {
        assert_eq!(BarrierMode::default(), BarrierMode::Strong);
    }

    #[test]
    fn fences_execute() {
        // Smoke test: both modes run without panicking.
        for m in [BarrierMode::Strong, BarrierMode::Weak] {
            m.read_entry_fence();
            m.read_exit_fence();
        }
    }
}
