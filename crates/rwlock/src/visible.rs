//! BRAVO's global visible-readers table.
//!
//! Fast-path readers make themselves visible to writers by publishing
//! the lock's address into one slot of a process-global, cache-padded
//! array instead of CASing a per-lock reader count — the whole point of
//! BRAVO (Dice & Kogan, arXiv 1810.01553): concurrent readers of one
//! lock touch *different* cache lines, so read acquisition stops being
//! a coherence-traffic bottleneck.
//!
//! The slot index mixes the publishing thread's id with the lock
//! address, so one thread reading many locks, and many threads reading
//! one lock, both spread across the table. A collision (slot already
//! taken) is not an error — the reader just falls back to the
//! underlying lock's slow path.
//!
//! Publish is a `SeqCst` compare-exchange and unpublish a `SeqCst`
//! swap; a revoking writer clears the lock's bias with a `SeqCst` store
//! *before* scanning the table. Sequential consistency on these three
//! operations is what makes the store→load pattern on both sides (the
//! reader publishes then re-checks the bias; the writer clears the bias
//! then scans) immune to store-buffer reordering — the same §3.4-style
//! hazard the model checker's TSO mode exists to catch, covered by
//! `crates/mc/tests/bravo_mc.rs`.

use solero_obs::CachePadded;
use solero_runtime::thread::ThreadId;
use solero_sync::atomic::{AtomicUsize, Ordering};

/// Slots in the visible-readers table.
///
/// Normal builds use 1024 padded slots (64 KiB): large enough that the
/// birthday bound keeps collision rates low at the thread counts the
/// benches sweep. Model-checking builds shrink the table to 8 slots so
/// a revocation scan contributes a bounded handful of scheduler steps
/// to the explored state space.
#[cfg(not(solero_mc))]
pub const SLOTS: usize = 1024;
/// Slots in the visible-readers table (model-checking size).
#[cfg(solero_mc)]
pub const SLOTS: usize = 8;

/// A visible-readers slot array. The process-global instance behind
/// [`global`] serves every [`BravoLock`](crate::BravoLock); owned
/// instances exist for deterministic property tests.
pub struct VisibleReaders {
    slots: [CachePadded<AtomicUsize>; SLOTS],
}

impl std::fmt::Debug for VisibleReaders {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VisibleReaders")
            .field("slots", &SLOTS)
            .field("occupied", &self.occupied())
            .finish()
    }
}

impl Default for VisibleReaders {
    fn default() -> Self {
        Self::new()
    }
}

impl VisibleReaders {
    /// An empty table.
    pub const fn new() -> Self {
        const EMPTY: CachePadded<AtomicUsize> = CachePadded(AtomicUsize::new(0));
        VisibleReaders {
            slots: [EMPTY; SLOTS],
        }
    }

    /// The slot a `(thread, lock)` pair hashes to.
    #[inline]
    pub fn slot_for(&self, thread_key: u64, lock_addr: usize) -> usize {
        (mix(thread_key ^ (lock_addr as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) as usize)
            % SLOTS
    }

    /// Attempts to publish `lock_addr` in `slot`. Fails when the slot
    /// is occupied (hash collision or a racing publisher).
    #[inline]
    pub fn try_publish(&self, slot: usize, lock_addr: usize) -> bool {
        debug_assert_ne!(lock_addr, 0, "a lock never lives at address 0");
        self.slots[slot]
            .0
            .compare_exchange(0, lock_addr, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Withdraws a publication made by this thread's `try_publish`.
    ///
    /// # Panics
    ///
    /// Panics if the slot does not hold `lock_addr` — an unpublish
    /// without a matching publish is a protocol bug.
    #[inline]
    pub fn unpublish(&self, slot: usize, lock_addr: usize) {
        // A SeqCst swap rather than a plain store: the release must be
        // globally visible before the reader's subsequent bias check,
        // or a revoking writer could park on a slot whose owner already
        // left without ever learning it must wake the writer.
        let prev = self.slots[slot].0.swap(0, Ordering::SeqCst);
        assert_eq!(prev, lock_addr, "unpublish of a slot this reader does not hold");
    }

    /// The current occupant of `slot` (0 = empty).
    #[inline]
    pub fn load(&self, slot: usize) -> usize {
        self.slots[slot].0.load(Ordering::SeqCst)
    }

    /// How many slots currently hold `lock_addr` (diagnostics/tests).
    pub fn published_count(&self, lock_addr: usize) -> usize {
        (0..SLOTS).filter(|&i| self.load(i) == lock_addr).count()
    }

    /// How many slots are occupied at all (diagnostics/tests).
    pub fn occupied(&self) -> usize {
        (0..SLOTS).filter(|&i| self.load(i) != 0).count()
    }
}

/// SplitMix64 finalizer: full-avalanche mixing so nearby thread ids and
/// pointer-aligned lock addresses spread over the whole table.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

static GLOBAL: VisibleReaders = VisibleReaders::new();

/// The process-global table every [`BravoLock`](crate::BravoLock)
/// publishes into.
pub fn global() -> &'static VisibleReaders {
    &GLOBAL
}

/// The key identifying the calling thread in slot hashing.
///
/// Normal builds use the runtime's per-thread id. Model-checking builds
/// use the stable virtual-thread index instead: OS-level ids grow
/// across the thousands of executions in one search, so hashing them
/// would give a recorded trace a different collision pattern — and a
/// different branch structure — on replay.
pub fn thread_key() -> u64 {
    #[cfg(solero_mc)]
    if let Some(slot) = solero_sync::rt::vthread_slot() {
        return slot as u64 + 1;
    }
    ThreadId::current().as_u64()
}

/// The slot the calling thread uses for `lock_addr` in the global
/// table.
///
/// Under the model checker the lock address is deliberately ignored:
/// heap addresses are not reproducible across executions, and replay
/// determinism requires the slot choice to be a pure function of the
/// stable virtual-thread index.
pub fn slot_for(lock_addr: usize) -> usize {
    #[cfg(solero_mc)]
    {
        let _ = lock_addr;
        thread_key() as usize % SLOTS
    }
    #[cfg(not(solero_mc))]
    {
        // One-entry per-thread memo: a reader typically re-acquires the
        // same lock in a loop, and its slot is a pure function of
        // (thread, address), so the common case skips the id lookup and
        // the mix. Address reuse is safe — a recycled allocation at the
        // same address hashes to the same slot by definition.
        thread_local! {
            static LAST: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
        }
        LAST.with(|last| {
            let (addr, slot) = last.get();
            if addr == lock_addr {
                return slot;
            }
            let slot = global().slot_for(thread_key(), lock_addr);
            last.set((lock_addr, slot));
            slot
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_round_trip() {
        let t = VisibleReaders::new();
        let slot = t.slot_for(1, 0x1000);
        assert!(t.try_publish(slot, 0x1000));
        assert_eq!(t.load(slot), 0x1000);
        assert!(!t.try_publish(slot, 0x2000), "occupied slot rejects");
        t.unpublish(slot, 0x1000);
        assert_eq!(t.load(slot), 0);
        assert_eq!(t.occupied(), 0);
    }

    #[test]
    #[should_panic(expected = "unpublish of a slot")]
    fn unpublish_without_publish_panics() {
        let t = VisibleReaders::new();
        t.unpublish(3, 0xBEEF);
    }

    #[test]
    fn thread_key_is_stable_within_a_thread() {
        assert_eq!(thread_key(), thread_key());
        assert_ne!(thread_key(), 0);
    }
}
