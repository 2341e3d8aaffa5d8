//! The shadow heap.
//!
//! Why it exists: SOLERO's read-only critical sections run **without**
//! holding the lock, concurrently with writers mutating the protected
//! object graph. In Java that is memory-safe — the worst outcomes are
//! stale/mixed values surfacing as runtime exceptions, which the
//! recovery machinery catches (§3.3). Plain Rust references cannot
//! express that (a data race is undefined behaviour), so protected data
//! lives here instead: objects are arrays of `AtomicU64` slots addressed
//! by handles, reads are `Acquire` loads that can observe stale or
//! mutually inconsistent *values* but never corrupt memory, and every
//! access is classified and bounds-checked against the object header so
//! inconsistency surfaces as a typed [`Fault`] exactly as it surfaces as
//! an exception in the paper's JVM.

use solero_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use solero_sync::{Mutex, MutexGuard};
use std::sync::PoisonError;

use solero_runtime::fault::Fault;
use solero_runtime::osmonitor::MonitorKey;

/// Poison-tolerant lock on the free-list map: it only caches recyclable
/// regions, so state observed across a panicking allocator thread is
/// still a valid free list.
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

use crate::object::{ClassId, Header, ObjRef};

/// Error returned by [`Heap::alloc`] when the arena is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Words requested.
    pub requested: u32,
    /// Words available.
    pub available: usize,
}

impl core::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "shadow heap exhausted: requested {} words, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// Arena summary returned by [`Heap::check_integrity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapReport {
    /// Live (allocated, not freed) objects found.
    pub live: u64,
    /// Freed regions found.
    pub freed: u64,
    /// Arena words covered by the walk.
    pub words_scanned: usize,
}

/// A fixed-capacity shadow heap of atomic words.
///
/// Writers must externally synchronize mutations of an object graph
/// (that is the whole point of the locks under evaluation); readers may
/// access any object at any time and receive values or [`Fault`]s,
/// never undefined behaviour.
///
/// # Examples
///
/// ```
/// use solero_heap::{ClassId, Heap, ObjRef};
///
/// const PAIR: ClassId = ClassId::new(1);
/// let heap = Heap::new(1 << 10);
/// let obj = heap.alloc(PAIR, 2).unwrap();
/// heap.store(obj, 0, 7).unwrap();
/// heap.store(obj, 1, 9).unwrap();
/// assert_eq!(heap.load(obj, PAIR, 0).unwrap(), 7);
/// assert_eq!(heap.load(obj, PAIR, 1).unwrap(), 9);
/// assert!(heap.load(ObjRef::NULL, PAIR, 0).is_err());
/// ```
#[derive(Debug)]
pub struct Heap {
    mem: Box<[AtomicU64]>,
    /// Next unallocated word (offset 0 is reserved for `null`).
    bump: AtomicUsize,
    /// Free lists per object length, for handle recycling.
    free: Mutex<std::collections::HashMap<u32, Vec<u32>>>,
    /// Allocation counter (diagnostics).
    allocs: AtomicU64,
    /// Free counter (diagnostics).
    frees: AtomicU64,
}

impl Heap {
    /// Creates a heap of `capacity_words` words.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_words` is zero or exceeds `u32::MAX` (handles
    /// are 32-bit).
    pub fn new(capacity_words: usize) -> Self {
        assert!(capacity_words > 0, "heap capacity must be non-zero");
        assert!(
            capacity_words <= u32::MAX as usize,
            "heap capacity exceeds 32-bit handle space"
        );
        let mut v = Vec::with_capacity(capacity_words);
        v.resize_with(capacity_words, || AtomicU64::new(0));
        Heap {
            mem: v.into_boxed_slice(),
            bump: AtomicUsize::new(1), // offset 0 = null
            free: Mutex::new(std::collections::HashMap::new()),
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
        }
    }

    /// Total capacity in words.
    pub fn capacity(&self) -> usize {
        self.mem.len()
    }

    /// Words handed out so far (high-water mark; recycling does not
    /// lower it).
    pub fn used_words(&self) -> usize {
        self.bump.load(Ordering::Relaxed)
    }

    /// Live allocation count (allocs minus frees).
    pub fn live_objects(&self) -> u64 {
        self.allocs
            .load(Ordering::Relaxed)
            .saturating_sub(self.frees.load(Ordering::Relaxed))
    }

    /// Allocates an object of `class` with `len` slots, zero-filled.
    ///
    /// Recycles a freed region of the same length when one exists —
    /// deliberately, because handle recycling is what lets stale
    /// speculative readers observe class-cast faults, as in a real JVM
    /// heap reusing memory.
    ///
    /// # Errors
    ///
    /// [`OutOfMemory`] when neither the free list nor the arena can
    /// satisfy the request.
    pub fn alloc(&self, class: ClassId, len: u32) -> Result<ObjRef, OutOfMemory> {
        assert_ne!(class, ClassId::FREED, "cannot allocate the freed class");
        // Try the free list first.
        let recycled = plock(&self.free).get_mut(&len).and_then(Vec::pop);
        let off = match recycled {
            Some(off) => off as usize,
            None => {
                let need = len as usize + 1;
                let off = self.bump.fetch_add(need, Ordering::Relaxed);
                if off + need > self.mem.len() {
                    // Roll back so repeated failures do not wrap.
                    self.bump.fetch_sub(need, Ordering::Relaxed);
                    return Err(OutOfMemory {
                        requested: len + 1,
                        available: self.mem.len().saturating_sub(off),
                    });
                }
                off
            }
        };
        // Zero the slots, then publish the header.
        let old_gen = Header(self.mem[off].load(Ordering::Relaxed)).generation();
        for i in 1..=len as usize {
            self.mem[off + i].store(0, Ordering::Relaxed);
        }
        self.mem[off].store(
            Header::new(class, len, old_gen.wrapping_add(1)).0,
            Ordering::Release,
        );
        self.allocs.fetch_add(1, Ordering::Relaxed);
        Ok(ObjRef(off as u32))
    }

    /// Frees an object, making its storage recyclable. Stale handles to
    /// it will observe [`Fault::StaleHandle`] (or, after recycling,
    /// [`Fault::ClassCast`] / wrong-but-typed values).
    ///
    /// # Panics
    ///
    /// Panics on `null` or an already-freed reference — freeing is a
    /// writer-side operation performed under the lock, where those are
    /// program bugs.
    pub fn free(&self, r: ObjRef) {
        assert!(!r.is_null(), "free(null)");
        let off = r.0 as usize;
        let h = Header(self.mem[off].load(Ordering::Acquire));
        assert!(!h.is_freed(), "double free of {r}");
        self.mem[off].store(
            Header::new(ClassId::FREED, h.len(), h.generation()).0,
            Ordering::Release,
        );
        plock(&self.free).entry(h.len()).or_default().push(r.0);
        self.frees.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn header(&self, r: ObjRef) -> Result<Header, Fault> {
        if r.is_null() {
            return Err(Fault::NullPointer);
        }
        let off = r.0 as usize;
        if off >= self.bump.load(Ordering::Relaxed) || off >= self.mem.len() {
            return Err(Fault::StaleHandle { handle: r.0 });
        }
        let h = Header(self.mem[off].load(Ordering::Acquire));
        if h.is_freed() {
            return Err(Fault::StaleHandle { handle: r.0 });
        }
        Ok(h)
    }

    /// Slot `idx` of the object `r`, bounds-checked against its header.
    #[inline]
    fn slot(&self, r: ObjRef, idx: u32) -> Result<&AtomicU64, Fault> {
        self.slot_in(r, self.header(r)?, idx)
    }

    /// [`Heap::slot`], after checking that `r` is of class `expected`.
    #[inline]
    fn typed_slot(&self, r: ObjRef, expected: ClassId, idx: u32) -> Result<&AtomicU64, Fault> {
        let h = self.header(r)?;
        if h.class() != expected {
            return Err(Fault::ClassCast {
                expected: expected.raw() as u32,
                found: h.class().raw() as u32,
            });
        }
        self.slot_in(r, h, idx)
    }

    /// Slot `idx` of the object whose header `h` was read at `r`.
    ///
    /// A garbage handle can point into the middle of an object, at a
    /// slot whose value decodes as a live header of any length, so the
    /// header's bound does not keep the index inside the arena. The
    /// checked `get` (the compare an index expression makes anyway)
    /// turns that into [`Fault::StaleHandle`] instead of a panic.
    #[inline]
    fn slot_in(&self, r: ObjRef, h: Header, idx: u32) -> Result<&AtomicU64, Fault> {
        if idx >= h.len() {
            return Err(Fault::IndexOutOfBounds {
                index: idx as i64,
                len: h.len(),
            });
        }
        self.mem
            .get(r.0 as usize + 1 + idx as usize)
            .ok_or(Fault::StaleHandle { handle: r.0 })
    }

    /// The class of the object `r` refers to.
    ///
    /// # Errors
    ///
    /// [`Fault::NullPointer`] or [`Fault::StaleHandle`].
    pub fn class_of(&self, r: ObjRef) -> Result<ClassId, Fault> {
        Ok(self.header(r)?.class())
    }

    /// The slot count of the object `r` refers to.
    ///
    /// # Errors
    ///
    /// [`Fault::NullPointer`] or [`Fault::StaleHandle`].
    pub fn len_of(&self, r: ObjRef) -> Result<u32, Fault> {
        Ok(self.header(r)?.len())
    }

    /// The allocation generation of the live object `r` refers to.
    ///
    /// Every (re)allocation of a storage cell bumps its generation, so
    /// two observations of the same handle with different generations
    /// prove the object was freed and its storage recycled in between.
    /// Scenario hook: the model-checked collections tests use it to
    /// assert a structural mutation (rehash, rotation) really swapped
    /// epochs, i.e. the window under test actually opened.
    ///
    /// # Errors
    ///
    /// [`Fault::NullPointer`] or [`Fault::StaleHandle`].
    pub fn generation_of(&self, r: ObjRef) -> Result<u16, Fault> {
        Ok(self.header(r)?.generation())
    }

    /// Speculative-tolerant load of slot `idx`, verifying the object is
    /// of class `expected`.
    ///
    /// # Errors
    ///
    /// [`Fault::NullPointer`], [`Fault::StaleHandle`],
    /// [`Fault::ClassCast`] when the header class differs from
    /// `expected`, or [`Fault::IndexOutOfBounds`].
    #[inline]
    pub fn load(&self, r: ObjRef, expected: ClassId, idx: u32) -> Result<u64, Fault> {
        Ok(self.typed_slot(r, expected, idx)?.load(Ordering::Acquire))
    }

    /// Load without a class check (for code that just read the class).
    ///
    /// # Errors
    ///
    /// [`Fault::NullPointer`], [`Fault::StaleHandle`], or
    /// [`Fault::IndexOutOfBounds`].
    #[inline]
    pub fn load_untyped(&self, r: ObjRef, idx: u32) -> Result<u64, Fault> {
        Ok(self.slot(r, idx)?.load(Ordering::Acquire))
    }

    /// Writer-side store into slot `idx`. Callers synchronize via the
    /// lock under evaluation; the store itself is `Release` so
    /// validated readers observe complete values.
    ///
    /// # Errors
    ///
    /// [`Fault::NullPointer`], [`Fault::StaleHandle`], or
    /// [`Fault::IndexOutOfBounds`] — writer-side faults are genuine
    /// program errors.
    #[inline]
    pub fn store(&self, r: ObjRef, idx: u32, value: u64) -> Result<(), Fault> {
        self.slot(r, idx)?.store(value, Ordering::Release);
        Ok(())
    }

    /// Plain-mode load of slot `idx` — the model of an ordinary Java
    /// field read (`getfield` of a non-volatile field): no acquire
    /// ordering at all, so a speculative reader's safety rests
    /// entirely on the lock's barriers and exit validation. The
    /// regular [`Heap::load`] is `Acquire`, which on its own rescues
    /// some torn reads the protocol's validation is supposed to catch;
    /// mutation-kill scenarios use the plain accessors so weakened
    /// validation cannot hide behind the data loads.
    ///
    /// # Errors
    ///
    /// Same as [`Heap::load`].
    #[inline]
    pub fn load_plain(&self, r: ObjRef, expected: ClassId, idx: u32) -> Result<u64, Fault> {
        Ok(self.typed_slot(r, expected, idx)?.load(Ordering::Relaxed))
    }

    /// Plain-mode store into slot `idx` — the model of an ordinary
    /// Java field write (`putfield` of a non-volatile field). See
    /// [`Heap::load_plain`]; the writer relies on the lock's release
    /// for publication.
    ///
    /// # Errors
    ///
    /// Same as [`Heap::store`].
    #[inline]
    pub fn store_plain(&self, r: ObjRef, idx: u32, value: u64) -> Result<(), Fault> {
        self.slot(r, idx)?.store(value, Ordering::Relaxed);
        Ok(())
    }

    /// Borrows slot `idx` of the live object `r` as a raw atomic word —
    /// the storage for an **in-object compact lock word** (see
    /// `solero::CompactSpace::lock`). The reference stays valid for the
    /// heap's lifetime; it is the caller's job (the compact-lock layer,
    /// keyed by [`Heap::lock_key`]) not to interpret it after the object
    /// is freed and its storage recycled.
    ///
    /// # Errors
    ///
    /// [`Fault::NullPointer`], [`Fault::StaleHandle`], or
    /// [`Fault::IndexOutOfBounds`].
    #[inline]
    pub fn slot_atomic(&self, r: ObjRef, idx: u32) -> Result<&AtomicU64, Fault> {
        self.slot(r, idx)
    }

    /// The monitor-table identity for a compact lock living in slot
    /// `idx` of object `r`: the slot's address plus the object's
    /// **allocation generation**. Freeing the object and recycling its
    /// storage bumps the generation, so a new object at the same address
    /// gets a *different* key and can never adopt a stale monitor — the
    /// address-reuse aliasing fix. (Generations are `u16` and wrap;
    /// a wrapped collision is benign because monitor claims are checked
    /// against the word's stored monitor id, never trusted from the
    /// table alone.)
    ///
    /// # Errors
    ///
    /// [`Fault::NullPointer`], [`Fault::StaleHandle`], or
    /// [`Fault::IndexOutOfBounds`].
    #[inline]
    pub fn lock_key(&self, r: ObjRef, idx: u32) -> Result<MonitorKey, Fault> {
        let generation = self.header(r)?.generation();
        let slot = self.slot_atomic(r, idx)?;
        Ok(MonitorKey::new(
            slot as *const AtomicU64 as usize,
            generation as u64,
        ))
    }

    /// Walks the whole arena validating that object headers tile it
    /// exactly (every allocation or freed region is accounted for, no
    /// overlaps, all lengths in range). Writers must be quiescent.
    ///
    /// # Errors
    ///
    /// [`Fault::StaleHandle`] pointing at the first malformed header.
    pub fn check_integrity(&self) -> Result<HeapReport, Fault> {
        let bump = self.bump.load(Ordering::Acquire);
        let mut off = 1usize;
        let mut live = 0u64;
        let mut freed = 0u64;
        while off < bump {
            let h = Header(self.mem[off].load(Ordering::Acquire));
            let len = h.len() as usize;
            if off + len + 1 > bump {
                return Err(Fault::StaleHandle { handle: off as u32 });
            }
            if h.is_freed() {
                freed += 1;
            } else {
                live += 1;
            }
            off += len + 1;
        }
        Ok(HeapReport {
            live,
            freed,
            words_scanned: bump - 1,
        })
    }

    /// Loads a slot holding an object reference.
    ///
    /// # Errors
    ///
    /// As [`Heap::load`].
    #[inline]
    pub fn load_ref(&self, r: ObjRef, expected: ClassId, idx: u32) -> Result<ObjRef, Fault> {
        Ok(ObjRef::from_raw(self.load(r, expected, idx)? as u32))
    }

    /// Stores an object reference into a slot.
    ///
    /// # Errors
    ///
    /// As [`Heap::store`].
    #[inline]
    pub fn store_ref(&self, r: ObjRef, idx: u32, value: ObjRef) -> Result<(), Fault> {
        self.store(r, idx, value.raw() as u64)
    }

    /// Loads a slot holding a signed integer.
    ///
    /// # Errors
    ///
    /// As [`Heap::load`].
    #[inline]
    pub fn load_i64(&self, r: ObjRef, expected: ClassId, idx: u32) -> Result<i64, Fault> {
        Ok(self.load(r, expected, idx)? as i64)
    }

    /// Stores a signed integer into a slot.
    ///
    /// # Errors
    ///
    /// As [`Heap::store`].
    #[inline]
    pub fn store_i64(&self, r: ObjRef, idx: u32, value: i64) -> Result<(), Fault> {
        self.store(r, idx, value as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ClassId = ClassId::new(1);
    const B: ClassId = ClassId::new(2);

    #[test]
    fn alloc_store_load() {
        let h = Heap::new(64);
        let o = h.alloc(A, 3).unwrap();
        h.store(o, 0, 10).unwrap();
        h.store(o, 2, 30).unwrap();
        assert_eq!(h.load(o, A, 0).unwrap(), 10);
        assert_eq!(h.load(o, A, 1).unwrap(), 0, "slots start zeroed");
        assert_eq!(h.load(o, A, 2).unwrap(), 30);
        assert_eq!(h.class_of(o).unwrap(), A);
        assert_eq!(h.len_of(o).unwrap(), 3);
    }

    #[test]
    fn null_faults() {
        let h = Heap::new(16);
        assert_eq!(h.load(ObjRef::NULL, A, 0), Err(Fault::NullPointer));
        assert_eq!(h.store(ObjRef::NULL, 0, 1), Err(Fault::NullPointer));
        assert_eq!(h.class_of(ObjRef::NULL), Err(Fault::NullPointer));
    }

    #[test]
    fn class_cast_fault() {
        let h = Heap::new(16);
        let o = h.alloc(A, 1).unwrap();
        assert!(matches!(h.load(o, B, 0), Err(Fault::ClassCast { .. })));
    }

    #[test]
    fn bounds_fault() {
        let h = Heap::new(16);
        let o = h.alloc(A, 2).unwrap();
        assert!(matches!(
            h.load(o, A, 2),
            Err(Fault::IndexOutOfBounds { index: 2, len: 2 })
        ));
        assert!(matches!(h.store(o, 9, 0), Err(Fault::IndexOutOfBounds { .. })));
    }

    #[test]
    fn stale_handle_after_free() {
        let h = Heap::new(32);
        let o = h.alloc(A, 2).unwrap();
        h.free(o);
        assert!(matches!(h.load(o, A, 0), Err(Fault::StaleHandle { .. })));
    }

    #[test]
    fn recycled_handle_gets_fresh_generation_and_class_check() {
        let h = Heap::new(32);
        let o = h.alloc(A, 2).unwrap();
        h.store(o, 0, 77).unwrap();
        h.free(o);
        let o2 = h.alloc(B, 2).unwrap();
        assert_eq!(o2.raw(), o.raw(), "same-size free list recycles storage");
        // The stale typed access now sees a class-cast fault.
        assert!(matches!(h.load(o, A, 0), Err(Fault::ClassCast { .. })));
        // And the new object starts zeroed, not with the old 77.
        assert_eq!(h.load(o2, B, 0).unwrap(), 0);
    }

    #[test]
    fn out_of_memory_is_reported_and_recoverable() {
        let h = Heap::new(8);
        let o = h.alloc(A, 4).unwrap(); // 5 words incl. header, 3 left
        let e = h.alloc(A, 4).unwrap_err();
        assert!(e.available < 5);
        // Free and retry: recycling makes it fit again.
        h.free(o);
        assert!(h.alloc(A, 4).is_ok());
    }

    #[test]
    fn garbage_handle_is_stale_not_ub() {
        let h = Heap::new(16);
        let _ = h.alloc(A, 2).unwrap();
        let wild = ObjRef::from_raw(1_000_000);
        assert!(matches!(h.load(wild, A, 0), Err(Fault::StaleHandle { .. })));
    }

    #[test]
    fn handle_into_an_object_past_the_arena_is_stale_not_a_panic() {
        let h = Heap::new(64);
        let o = h.alloc(A, 4).unwrap();
        // Slot 1 holds a value that decodes as a live header of class A
        // with a length far past the arena's end.
        h.store(o, 1, Header::new(A, 1_000_000, 0).0).unwrap();
        let mid = ObjRef::from_raw(o.raw() + 2);
        let stale = Some(Fault::StaleHandle { handle: mid.raw() });
        assert_eq!(h.class_of(mid), Ok(A), "the slot passes the header checks");
        assert_eq!(h.load(mid, A, 100).err(), stale);
        assert_eq!(h.load_untyped(mid, 100).err(), stale);
        assert_eq!(h.load_plain(mid, A, 100).err(), stale);
        assert_eq!(h.store(mid, 100, 7).err(), stale);
        assert_eq!(h.store_plain(mid, 100, 7).err(), stale);
        assert_eq!(h.slot_atomic(mid, 100).err(), stale);
        assert_eq!(h.lock_key(mid, 100).err(), stale);
        // An index inside the arena still reads the slot it names.
        assert_eq!(h.load(mid, A, 0), Ok(0));
    }

    #[test]
    fn live_object_accounting() {
        let h = Heap::new(64);
        let a = h.alloc(A, 1).unwrap();
        let b = h.alloc(A, 1).unwrap();
        assert_eq!(h.live_objects(), 2);
        h.free(a);
        assert_eq!(h.live_objects(), 1);
        h.free(b);
        assert_eq!(h.live_objects(), 0);
    }

    #[test]
    fn ref_and_int_helpers_roundtrip() {
        let h = Heap::new(32);
        let a = h.alloc(A, 2).unwrap();
        let b = h.alloc(B, 1).unwrap();
        h.store_ref(a, 0, b).unwrap();
        h.store_i64(a, 1, -42).unwrap();
        assert_eq!(h.load_ref(a, A, 0).unwrap(), b);
        assert_eq!(h.load_i64(a, A, 1).unwrap(), -42);
        assert_eq!(h.load_ref(a, A, 1).ok().map(|r| r.is_null()), Some(false));
    }

    #[test]
    fn integrity_walk_tiles_the_arena() {
        let h = Heap::new(256);
        let a = h.alloc(A, 3).unwrap();
        let b = h.alloc(B, 1).unwrap();
        let c = h.alloc(A, 5).unwrap();
        let r = h.check_integrity().unwrap();
        assert_eq!(r.live, 3);
        assert_eq!(r.freed, 0);
        assert_eq!(r.words_scanned, 4 + 2 + 6);
        h.free(b);
        let r = h.check_integrity().unwrap();
        assert_eq!(r.live, 2);
        assert_eq!(r.freed, 1);
        // Recycling keeps the tiling intact.
        let b2 = h.alloc(B, 1).unwrap();
        assert_eq!(b2.raw(), b.raw());
        let r = h.check_integrity().unwrap();
        assert_eq!((r.live, r.freed), (3, 0));
        let _ = (a, c);
    }

    #[test]
    fn slot_atomic_exposes_the_slot_storage() {
        let h = Heap::new(32);
        let o = h.alloc(A, 2).unwrap();
        h.store(o, 1, 55).unwrap();
        let slot = h.slot_atomic(o, 1).unwrap();
        assert_eq!(slot.load(Ordering::Acquire), 55);
        slot.store(56, Ordering::Release);
        assert_eq!(h.load(o, A, 1).unwrap(), 56);
        assert!(matches!(
            h.slot_atomic(o, 2),
            Err(Fault::IndexOutOfBounds { .. })
        ));
        assert_eq!(
            h.slot_atomic(ObjRef::NULL, 0).err(),
            Some(Fault::NullPointer)
        );
    }

    #[test]
    fn lock_key_carries_generation_and_changes_across_recycling() {
        let h = Heap::new(32);
        let o = h.alloc(A, 2).unwrap();
        let k0 = h.lock_key(o, 0).unwrap();
        let k1 = h.lock_key(o, 1).unwrap();
        assert_ne!(k0, k1, "distinct slots get distinct keys");
        assert!(k0.gen >= 1, "heap keys never use the raw 0 namespace");
        h.free(o);
        assert_eq!(h.lock_key(o, 0), Err(Fault::StaleHandle { handle: o.raw() }));
        let o2 = h.alloc(A, 2).unwrap();
        assert_eq!(o2.raw(), o.raw(), "same-size free list recycles storage");
        let k0b = h.lock_key(o2, 0).unwrap();
        assert_eq!(k0.addr, k0b.addr, "same storage, same slot address");
        assert_ne!(k0, k0b, "recycling bumps the generation in the key");
    }

    #[test]
    fn store_to_freed_object_faults() {
        let h = Heap::new(32);
        let o = h.alloc(A, 2).unwrap();
        h.free(o);
        assert!(matches!(h.store(o, 0, 1), Err(Fault::StaleHandle { .. })));
    }

    #[test]
    fn concurrent_readers_never_crash() {
        use std::sync::Arc;
        let h = Arc::new(Heap::new(1 << 12));
        let root = h.alloc(A, 8).unwrap();
        std::thread::scope(|s| {
            // Writer: continuously free/realloc children and relink.
            let hw = Arc::clone(&h);
            s.spawn(move || {
                let mut child = ObjRef::NULL;
                for i in 0..5_000u64 {
                    if !child.is_null() {
                        hw.free(child);
                    }
                    child = hw.alloc(B, 2).unwrap();
                    hw.store(child, 0, i).unwrap();
                    hw.store(child, 1, i).unwrap();
                    hw.store_ref(root, 0, child).unwrap();
                }
            });
            // Readers: chase the pointer with no synchronization.
            for _ in 0..4 {
                let hr = Arc::clone(&h);
                s.spawn(move || {
                    for _ in 0..20_000 {
                        let r = hr
                            .load_ref(root, A, 0)
                            .and_then(|c| Ok((hr.load(c, B, 0)?, hr.load(c, B, 1)?)));
                        // Values may be stale or the handle dangling,
                        // but the call must return, not crash.
                        std::hint::black_box(r).ok();
                    }
                });
            }
        });
    }
}
