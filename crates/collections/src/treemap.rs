//! `JTreeMap` — a `java.util.TreeMap`-shaped red-black tree on the
//! shadow heap.
//!
//! Layout:
//!
//! ```text
//! MAP object:  [root: ref NODE, size: i64]
//! NODE object: [key, value, left, right, parent, color]  (0 red, 1 black)
//! ```
//!
//! `get`/`first_key`/`entries` are read-only and poll the validation
//! [`Checkpoint`] at every descent/walk step, so a speculatively
//! observed cycle (e.g. a rotation racing with the traversal) cannot
//! loop forever. `put`/`remove` implement the standard insertion and
//! deletion fix-ups (ported from `java.util.TreeMap`) and must run under
//! the evaluated lock.

use solero::Checkpoint;
use solero_heap::{ClassId, Fault, Heap, ObjRef};

/// Class id of the map header object.
pub const TMAP_CLASS: ClassId = ClassId::new(20);
/// Class id of tree nodes.
pub const TNODE_CLASS: ClassId = ClassId::new(21);

const F_ROOT: u32 = 0;
const F_SIZE: u32 = 1;
const MAP_FIELDS: u32 = 2;

const N_KEY: u32 = 0;
const N_VALUE: u32 = 1;
const N_LEFT: u32 = 2;
const N_RIGHT: u32 = 3;
const N_PARENT: u32 = 4;
const N_COLOR: u32 = 5;
const NODE_FIELDS: u32 = 6;

const RED: i64 = 0;
const BLACK: i64 = 1;

// `child_slot` computes the turn as `N_LEFT + (key > k)`.
const _: () = assert!(N_RIGHT == N_LEFT + 1);

/// The child slot a descent for `key` takes at a node holding `k`, for
/// `key != k`: `N_LEFT` below `k`, `N_RIGHT` above it.
///
/// The turn is arithmetic, not a branch, so an optimized build emits
/// `setg` (or `cmov`) for it. With uniform keys each turn of a descent
/// is a coin flip that a conditional jump mispredicts about every other
/// level; as data it only lengthens the chain of dependent loads, since
/// the next load waits for the key compare. Down a predictable path a
/// predicted jump is cheaper, so only `get` and `remove` use this:
/// `put` keeps its branches because inserts often come in key order
/// (a map filled `0..n`, jbb's order ids), and `floor_key` keeps its
/// because jbb asks it for the floor of `i64::MAX`.
#[inline(always)]
fn child_slot(key: i64, k: i64) -> u32 {
    N_LEFT + u32::from(key > k)
}

/// A `java.util.TreeMap<long, long>` equivalent on the shadow heap.
///
/// # Examples
///
/// ```
/// use solero::NullCheckpoint;
/// use solero_collections::JTreeMap;
/// use solero_heap::Heap;
///
/// let heap = Heap::new(1 << 16);
/// let map = JTreeMap::new(&heap).unwrap();
/// for k in [5, 1, 9, 3] {
///     map.put(&heap, k, k * 10).unwrap();
/// }
/// let mut ck = NullCheckpoint;
/// assert_eq!(map.get(&heap, 3, &mut ck).unwrap(), Some(30));
/// assert_eq!(map.first_key(&heap, &mut ck).unwrap(), Some(1));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct JTreeMap {
    root_obj: ObjRef,
}

impl JTreeMap {
    /// Creates an empty map.
    ///
    /// # Panics
    ///
    /// Panics if the heap cannot hold the map header.
    pub fn new(heap: &Heap) -> Result<Self, Fault> {
        let root_obj = heap.alloc(TMAP_CLASS, MAP_FIELDS).expect("heap exhausted");
        heap.store_ref(root_obj, F_ROOT, ObjRef::NULL)?;
        heap.store_i64(root_obj, F_SIZE, 0)?;
        Ok(JTreeMap { root_obj })
    }

    /// The heap object anchoring this map.
    pub fn root(&self) -> ObjRef {
        self.root_obj
    }

    /// Number of entries.
    ///
    /// # Errors
    ///
    /// Heap faults on stale speculation.
    pub fn len(&self, heap: &Heap) -> Result<usize, Fault> {
        Ok(heap.load_i64(self.root_obj, TMAP_CLASS, F_SIZE)?.max(0) as usize)
    }

    /// True if the map holds no entries.
    ///
    /// # Errors
    ///
    /// Heap faults on stale speculation.
    pub fn is_empty(&self, heap: &Heap) -> Result<bool, Fault> {
        Ok(self.len(heap)? == 0)
    }

    // ---- read-only operations -------------------------------------

    /// Read-only lookup; descends the tree polling `ck` per step. Each
    /// turn is computed, not branched on; finding the key is the
    /// descent's only data-dependent branch.
    ///
    /// # Errors
    ///
    /// Heap faults and [`Fault::Inconsistent`] from the check-point;
    /// under a SOLERO read section these trigger re-execution.
    pub fn get(
        &self,
        heap: &Heap,
        key: i64,
        ck: &mut dyn Checkpoint,
    ) -> Result<Option<i64>, Fault> {
        let mut n = heap.load_ref(self.root_obj, TMAP_CLASS, F_ROOT)?;
        while !n.is_null() {
            ck.checkpoint()?;
            let k = heap.load_i64(n, TNODE_CLASS, N_KEY)?;
            if key == k {
                return Ok(Some(heap.load_i64(n, TNODE_CLASS, N_VALUE)?));
            }
            n = heap.load_ref(n, TNODE_CLASS, child_slot(key, k))?;
        }
        Ok(None)
    }

    /// True if `key` is present (read-only).
    ///
    /// # Errors
    ///
    /// As [`JTreeMap::get`].
    pub fn contains_key(
        &self,
        heap: &Heap,
        key: i64,
        ck: &mut dyn Checkpoint,
    ) -> Result<bool, Fault> {
        Ok(self.get(heap, key, ck)?.is_some())
    }

    /// Smallest key, if any (read-only).
    ///
    /// # Errors
    ///
    /// As [`JTreeMap::get`].
    pub fn first_key(&self, heap: &Heap, ck: &mut dyn Checkpoint) -> Result<Option<i64>, Fault> {
        let mut n = heap.load_ref(self.root_obj, TMAP_CLASS, F_ROOT)?;
        if n.is_null() {
            return Ok(None);
        }
        loop {
            ck.checkpoint()?;
            let l = heap.load_ref(n, TNODE_CLASS, N_LEFT)?;
            if l.is_null() {
                return Ok(Some(heap.load_i64(n, TNODE_CLASS, N_KEY)?));
            }
            n = l;
        }
    }

    /// Largest key `<= key`, if any (read-only floor query).
    ///
    /// # Errors
    ///
    /// As [`JTreeMap::get`].
    pub fn floor_key(
        &self,
        heap: &Heap,
        key: i64,
        ck: &mut dyn Checkpoint,
    ) -> Result<Option<i64>, Fault> {
        let mut n = heap.load_ref(self.root_obj, TMAP_CLASS, F_ROOT)?;
        let mut best = None;
        while !n.is_null() {
            ck.checkpoint()?;
            let k = heap.load_i64(n, TNODE_CLASS, N_KEY)?;
            match key.cmp(&k) {
                std::cmp::Ordering::Less => n = heap.load_ref(n, TNODE_CLASS, N_LEFT)?,
                std::cmp::Ordering::Equal => return Ok(Some(k)),
                std::cmp::Ordering::Greater => {
                    best = Some(k);
                    n = heap.load_ref(n, TNODE_CLASS, N_RIGHT)?;
                }
            }
        }
        Ok(best)
    }

    /// Collects all entries in key order (read-only in-order walk).
    ///
    /// # Errors
    ///
    /// As [`JTreeMap::get`].
    pub fn entries(
        &self,
        heap: &Heap,
        ck: &mut dyn Checkpoint,
    ) -> Result<Vec<(i64, i64)>, Fault> {
        let mut out = Vec::new();
        // Iterative in-order walk with an explicit stack (the tree is on
        // the shadow heap; the stack is ordinary Rust memory).
        let mut stack = Vec::new();
        let mut n = heap.load_ref(self.root_obj, TMAP_CLASS, F_ROOT)?;
        loop {
            ck.checkpoint()?;
            if !n.is_null() {
                stack.push(n);
                n = heap.load_ref(n, TNODE_CLASS, N_LEFT)?;
            } else if let Some(top) = stack.pop() {
                out.push((
                    heap.load_i64(top, TNODE_CLASS, N_KEY)?,
                    heap.load_i64(top, TNODE_CLASS, N_VALUE)?,
                ));
                n = heap.load_ref(top, TNODE_CLASS, N_RIGHT)?;
            } else {
                break;
            }
            // A speculative cycle could grow the stack without bound;
            // bound it by the only thing that can be this deep.
            if stack.len() > 1_000_000 {
                return Err(Fault::Inconsistent);
            }
        }
        Ok(out)
    }

    // ---- writer-side helpers (null-safe, as in java.util.TreeMap) --

    fn tree_root(&self, heap: &Heap) -> Result<ObjRef, Fault> {
        heap.load_ref(self.root_obj, TMAP_CLASS, F_ROOT)
    }

    fn set_tree_root(&self, heap: &Heap, n: ObjRef) -> Result<(), Fault> {
        heap.store_ref(self.root_obj, F_ROOT, n)
    }

    fn key(heap: &Heap, n: ObjRef) -> Result<i64, Fault> {
        heap.load_i64(n, TNODE_CLASS, N_KEY)
    }

    fn left_of(heap: &Heap, n: ObjRef) -> Result<ObjRef, Fault> {
        if n.is_null() {
            Ok(ObjRef::NULL)
        } else {
            heap.load_ref(n, TNODE_CLASS, N_LEFT)
        }
    }

    fn right_of(heap: &Heap, n: ObjRef) -> Result<ObjRef, Fault> {
        if n.is_null() {
            Ok(ObjRef::NULL)
        } else {
            heap.load_ref(n, TNODE_CLASS, N_RIGHT)
        }
    }

    fn parent_of(heap: &Heap, n: ObjRef) -> Result<ObjRef, Fault> {
        if n.is_null() {
            Ok(ObjRef::NULL)
        } else {
            heap.load_ref(n, TNODE_CLASS, N_PARENT)
        }
    }

    fn color_of(heap: &Heap, n: ObjRef) -> Result<i64, Fault> {
        if n.is_null() {
            Ok(BLACK)
        } else {
            heap.load_i64(n, TNODE_CLASS, N_COLOR)
        }
    }

    fn set_color(heap: &Heap, n: ObjRef, c: i64) -> Result<(), Fault> {
        if !n.is_null() {
            heap.store_i64(n, N_COLOR, c)?;
        }
        Ok(())
    }

    fn set_left(heap: &Heap, n: ObjRef, v: ObjRef) -> Result<(), Fault> {
        heap.store_ref(n, N_LEFT, v)
    }

    fn set_right(heap: &Heap, n: ObjRef, v: ObjRef) -> Result<(), Fault> {
        heap.store_ref(n, N_RIGHT, v)
    }

    fn set_parent(heap: &Heap, n: ObjRef, v: ObjRef) -> Result<(), Fault> {
        heap.store_ref(n, N_PARENT, v)
    }

    fn rotate_left(&self, heap: &Heap, p: ObjRef) -> Result<(), Fault> {
        if p.is_null() {
            return Ok(());
        }
        let r = Self::right_of(heap, p)?;
        let rl = Self::left_of(heap, r)?;
        Self::set_right(heap, p, rl)?;
        if !rl.is_null() {
            Self::set_parent(heap, rl, p)?;
        }
        let pp = Self::parent_of(heap, p)?;
        Self::set_parent(heap, r, pp)?;
        if pp.is_null() {
            self.set_tree_root(heap, r)?;
        } else if Self::left_of(heap, pp)? == p {
            Self::set_left(heap, pp, r)?;
        } else {
            Self::set_right(heap, pp, r)?;
        }
        Self::set_left(heap, r, p)?;
        Self::set_parent(heap, p, r)?;
        Ok(())
    }

    fn rotate_right(&self, heap: &Heap, p: ObjRef) -> Result<(), Fault> {
        if p.is_null() {
            return Ok(());
        }
        let l = Self::left_of(heap, p)?;
        let lr = Self::right_of(heap, l)?;
        Self::set_left(heap, p, lr)?;
        if !lr.is_null() {
            Self::set_parent(heap, lr, p)?;
        }
        let pp = Self::parent_of(heap, p)?;
        Self::set_parent(heap, l, pp)?;
        if pp.is_null() {
            self.set_tree_root(heap, l)?;
        } else if Self::right_of(heap, pp)? == p {
            Self::set_right(heap, pp, l)?;
        } else {
            Self::set_left(heap, pp, l)?;
        }
        Self::set_right(heap, l, p)?;
        Self::set_parent(heap, p, l)?;
        Ok(())
    }

    // ---- writer-side operations ------------------------------------

    /// Writer-side insert; returns the previous value if any. Must run
    /// under the evaluated lock.
    ///
    /// # Errors
    ///
    /// Writer-side heap faults are genuine errors.
    ///
    /// # Panics
    ///
    /// Panics if the heap is exhausted.
    pub fn put(&self, heap: &Heap, key: i64, value: i64) -> Result<Option<i64>, Fault> {
        let mut t = self.tree_root(heap)?;
        if t.is_null() {
            let n = self.new_node(heap, key, value, ObjRef::NULL)?;
            Self::set_color(heap, n, BLACK)?;
            self.set_tree_root(heap, n)?;
            heap.store_i64(self.root_obj, F_SIZE, 1)?;
            return Ok(None);
        }
        // Branches, not `child_slot`: down the rightmost path of an
        // in-order fill they are always predicted.
        let parent;
        loop {
            let k = Self::key(heap, t)?;
            match key.cmp(&k) {
                std::cmp::Ordering::Equal => {
                    let old = heap.load_i64(t, TNODE_CLASS, N_VALUE)?;
                    heap.store_i64(t, N_VALUE, value)?;
                    return Ok(Some(old));
                }
                std::cmp::Ordering::Less => {
                    let l = Self::left_of(heap, t)?;
                    if l.is_null() {
                        parent = t;
                        break;
                    }
                    t = l;
                }
                std::cmp::Ordering::Greater => {
                    let r = Self::right_of(heap, t)?;
                    if r.is_null() {
                        parent = t;
                        break;
                    }
                    t = r;
                }
            }
        }
        let n = self.new_node(heap, key, value, parent)?;
        if key < Self::key(heap, parent)? {
            Self::set_left(heap, parent, n)?;
        } else {
            Self::set_right(heap, parent, n)?;
        }
        self.fix_after_insertion(heap, n)?;
        let size = heap.load_i64(self.root_obj, TMAP_CLASS, F_SIZE)? + 1;
        heap.store_i64(self.root_obj, F_SIZE, size)?;
        Ok(None)
    }

    fn new_node(
        &self,
        heap: &Heap,
        key: i64,
        value: i64,
        parent: ObjRef,
    ) -> Result<ObjRef, Fault> {
        let n = heap.alloc(TNODE_CLASS, NODE_FIELDS).expect("heap exhausted");
        heap.store_i64(n, N_KEY, key)?;
        heap.store_i64(n, N_VALUE, value)?;
        heap.store_ref(n, N_LEFT, ObjRef::NULL)?;
        heap.store_ref(n, N_RIGHT, ObjRef::NULL)?;
        heap.store_ref(n, N_PARENT, parent)?;
        heap.store_i64(n, N_COLOR, RED)?;
        Ok(n)
    }

    fn fix_after_insertion(&self, heap: &Heap, mut x: ObjRef) -> Result<(), Fault> {
        Self::set_color(heap, x, RED)?;
        while !x.is_null() {
            let p = Self::parent_of(heap, x)?;
            if p.is_null() || Self::color_of(heap, p)? != RED {
                break;
            }
            let g = Self::parent_of(heap, p)?;
            if p == Self::left_of(heap, g)? {
                let y = Self::right_of(heap, g)?;
                if Self::color_of(heap, y)? == RED {
                    Self::set_color(heap, p, BLACK)?;
                    Self::set_color(heap, y, BLACK)?;
                    Self::set_color(heap, g, RED)?;
                    x = g;
                } else {
                    if x == Self::right_of(heap, p)? {
                        x = p;
                        self.rotate_left(heap, x)?;
                    }
                    let p = Self::parent_of(heap, x)?;
                    let g = Self::parent_of(heap, p)?;
                    Self::set_color(heap, p, BLACK)?;
                    Self::set_color(heap, g, RED)?;
                    self.rotate_right(heap, g)?;
                }
            } else {
                let y = Self::left_of(heap, g)?;
                if Self::color_of(heap, y)? == RED {
                    Self::set_color(heap, p, BLACK)?;
                    Self::set_color(heap, y, BLACK)?;
                    Self::set_color(heap, g, RED)?;
                    x = g;
                } else {
                    if x == Self::left_of(heap, p)? {
                        x = p;
                        self.rotate_right(heap, x)?;
                    }
                    let p = Self::parent_of(heap, x)?;
                    let g = Self::parent_of(heap, p)?;
                    Self::set_color(heap, p, BLACK)?;
                    Self::set_color(heap, g, RED)?;
                    self.rotate_left(heap, g)?;
                }
            }
        }
        let root = self.tree_root(heap)?;
        Self::set_color(heap, root, BLACK)?;
        Ok(())
    }

    /// Writer-side removal; returns the removed value if any.
    ///
    /// # Errors
    ///
    /// Writer-side heap faults are genuine errors.
    pub fn remove(&self, heap: &Heap, key: i64) -> Result<Option<i64>, Fault> {
        // Locate the node (writer-side: no checkpoints needed).
        let mut p = self.tree_root(heap)?;
        while !p.is_null() {
            let k = Self::key(heap, p)?;
            if key == k {
                break;
            }
            p = heap.load_ref(p, TNODE_CLASS, child_slot(key, k))?;
        }
        if p.is_null() {
            return Ok(None);
        }
        let old = heap.load_i64(p, TNODE_CLASS, N_VALUE)?;
        self.delete_entry(heap, p)?;
        let size = heap.load_i64(self.root_obj, TMAP_CLASS, F_SIZE)? - 1;
        heap.store_i64(self.root_obj, F_SIZE, size)?;
        Ok(Some(old))
    }

    /// `java.util.TreeMap.deleteEntry`, ported.
    fn delete_entry(&self, heap: &Heap, mut p: ObjRef) -> Result<(), Fault> {
        // If strictly internal, copy successor's element to p, then make
        // p point to successor.
        if !Self::left_of(heap, p)?.is_null() && !Self::right_of(heap, p)?.is_null() {
            let mut s = Self::right_of(heap, p)?;
            loop {
                let l = Self::left_of(heap, s)?;
                if l.is_null() {
                    break;
                }
                s = l;
            }
            heap.store_i64(p, N_KEY, Self::key(heap, s)?)?;
            heap.store_i64(p, N_VALUE, heap.load_i64(s, TNODE_CLASS, N_VALUE)?)?;
            p = s;
        }
        // Start fixup at replacement node, if it exists.
        let left = Self::left_of(heap, p)?;
        let replacement = if !left.is_null() {
            left
        } else {
            Self::right_of(heap, p)?
        };
        if !replacement.is_null() {
            // Link replacement to parent.
            let pp = Self::parent_of(heap, p)?;
            Self::set_parent(heap, replacement, pp)?;
            if pp.is_null() {
                self.set_tree_root(heap, replacement)?;
            } else if p == Self::left_of(heap, pp)? {
                Self::set_left(heap, pp, replacement)?;
            } else {
                Self::set_right(heap, pp, replacement)?;
            }
            if Self::color_of(heap, p)? == BLACK {
                self.fix_after_deletion(heap, replacement)?;
            }
        } else if Self::parent_of(heap, p)?.is_null() {
            // Sole node.
            self.set_tree_root(heap, ObjRef::NULL)?;
        } else {
            // No children: use self as phantom replacement.
            if Self::color_of(heap, p)? == BLACK {
                self.fix_after_deletion(heap, p)?;
            }
            let pp = Self::parent_of(heap, p)?;
            if !pp.is_null() {
                if p == Self::left_of(heap, pp)? {
                    Self::set_left(heap, pp, ObjRef::NULL)?;
                } else if p == Self::right_of(heap, pp)? {
                    Self::set_right(heap, pp, ObjRef::NULL)?;
                }
            }
        }
        heap.free(p); // recycled storage → stale readers fault
        Ok(())
    }

    /// `java.util.TreeMap.fixAfterDeletion`, ported (null-safe helpers
    /// treat null as black, exactly as Java's static accessors do).
    fn fix_after_deletion(&self, heap: &Heap, mut x: ObjRef) -> Result<(), Fault> {
        while x != self.tree_root(heap)? && Self::color_of(heap, x)? == BLACK {
            let p = Self::parent_of(heap, x)?;
            if x == Self::left_of(heap, p)? {
                let mut sib = Self::right_of(heap, p)?;
                if Self::color_of(heap, sib)? == RED {
                    Self::set_color(heap, sib, BLACK)?;
                    Self::set_color(heap, p, RED)?;
                    self.rotate_left(heap, p)?;
                    sib = Self::right_of(heap, Self::parent_of(heap, x)?)?;
                }
                if Self::color_of(heap, Self::left_of(heap, sib)?)? == BLACK
                    && Self::color_of(heap, Self::right_of(heap, sib)?)? == BLACK
                {
                    Self::set_color(heap, sib, RED)?;
                    x = Self::parent_of(heap, x)?;
                } else {
                    if Self::color_of(heap, Self::right_of(heap, sib)?)? == BLACK {
                        Self::set_color(heap, Self::left_of(heap, sib)?, BLACK)?;
                        Self::set_color(heap, sib, RED)?;
                        self.rotate_right(heap, sib)?;
                        sib = Self::right_of(heap, Self::parent_of(heap, x)?)?;
                    }
                    let p = Self::parent_of(heap, x)?;
                    Self::set_color(heap, sib, Self::color_of(heap, p)?)?;
                    Self::set_color(heap, p, BLACK)?;
                    Self::set_color(heap, Self::right_of(heap, sib)?, BLACK)?;
                    self.rotate_left(heap, p)?;
                    x = self.tree_root(heap)?;
                }
            } else {
                // Symmetric.
                let mut sib = Self::left_of(heap, p)?;
                if Self::color_of(heap, sib)? == RED {
                    Self::set_color(heap, sib, BLACK)?;
                    Self::set_color(heap, p, RED)?;
                    self.rotate_right(heap, p)?;
                    sib = Self::left_of(heap, Self::parent_of(heap, x)?)?;
                }
                if Self::color_of(heap, Self::right_of(heap, sib)?)? == BLACK
                    && Self::color_of(heap, Self::left_of(heap, sib)?)? == BLACK
                {
                    Self::set_color(heap, sib, RED)?;
                    x = Self::parent_of(heap, x)?;
                } else {
                    if Self::color_of(heap, Self::left_of(heap, sib)?)? == BLACK {
                        Self::set_color(heap, Self::right_of(heap, sib)?, BLACK)?;
                        Self::set_color(heap, sib, RED)?;
                        self.rotate_left(heap, sib)?;
                        sib = Self::left_of(heap, Self::parent_of(heap, x)?)?;
                    }
                    let p = Self::parent_of(heap, x)?;
                    Self::set_color(heap, sib, Self::color_of(heap, p)?)?;
                    Self::set_color(heap, p, BLACK)?;
                    Self::set_color(heap, Self::left_of(heap, sib)?, BLACK)?;
                    self.rotate_right(heap, p)?;
                    x = self.tree_root(heap)?;
                }
            }
        }
        Self::set_color(heap, x, BLACK)?;
        Ok(())
    }

    // ---- invariant checking (tests/diagnostics) --------------------

    /// Verifies the red-black invariants; returns the black-height.
    ///
    /// Writer-side diagnostic used by the tests and property checks.
    ///
    /// # Errors
    ///
    /// Heap faults, or [`Fault::Inconsistent`] if an invariant is
    /// violated.
    pub fn check_invariants(&self, heap: &Heap) -> Result<u32, Fault> {
        let root = self.tree_root(heap)?;
        if root.is_null() {
            return Ok(0);
        }
        if Self::color_of(heap, root)? != BLACK {
            return Err(Fault::Inconsistent);
        }
        self.check_node(heap, root, i64::MIN, i64::MAX)
    }

    fn check_node(&self, heap: &Heap, n: ObjRef, lo: i64, hi: i64) -> Result<u32, Fault> {
        if n.is_null() {
            return Ok(1); // null leaves are black
        }
        let k = Self::key(heap, n)?;
        if k < lo || k > hi {
            return Err(Fault::Inconsistent); // BST order violated
        }
        let c = Self::color_of(heap, n)?;
        let l = Self::left_of(heap, n)?;
        let r = Self::right_of(heap, n)?;
        if c == RED
            && (Self::color_of(heap, l)? == RED || Self::color_of(heap, r)? == RED)
        {
            return Err(Fault::Inconsistent); // red-red violation
        }
        // Parent pointers must be consistent.
        if !l.is_null() && Self::parent_of(heap, l)? != n {
            return Err(Fault::Inconsistent);
        }
        if !r.is_null() && Self::parent_of(heap, r)? != n {
            return Err(Fault::Inconsistent);
        }
        let hl = self.check_node(heap, l, lo, k.saturating_sub(1))?;
        let hr = self.check_node(heap, r, k.saturating_add(1), hi)?;
        if hl != hr {
            return Err(Fault::Inconsistent); // black-height mismatch
        }
        Ok(hl + if c == BLACK { 1 } else { 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solero::NullCheckpoint;

    fn setup() -> (Heap, JTreeMap) {
        let heap = Heap::new(1 << 18);
        let map = JTreeMap::new(&heap).unwrap();
        (heap, map)
    }

    #[test]
    fn put_get_ordered() {
        let (heap, map) = setup();
        let mut ck = NullCheckpoint;
        for k in [50, 20, 70, 10, 30, 60, 80] {
            map.put(&heap, k, k * 2).unwrap();
        }
        for k in [50, 20, 70, 10, 30, 60, 80] {
            assert_eq!(map.get(&heap, k, &mut ck).unwrap(), Some(k * 2));
        }
        assert_eq!(map.get(&heap, 55, &mut ck).unwrap(), None);
        assert_eq!(map.first_key(&heap, &mut ck).unwrap(), Some(10));
        map.check_invariants(&heap).unwrap();
    }

    #[test]
    fn overwrite_returns_old() {
        let (heap, map) = setup();
        assert_eq!(map.put(&heap, 1, 10).unwrap(), None);
        assert_eq!(map.put(&heap, 1, 11).unwrap(), Some(10));
        assert_eq!(map.len(&heap).unwrap(), 1);
    }

    #[test]
    fn ascending_inserts_stay_balanced() {
        let (heap, map) = setup();
        let mut ck = NullCheckpoint;
        for k in 0..1_000 {
            map.put(&heap, k, -k).unwrap();
        }
        let bh = map.check_invariants(&heap).unwrap();
        // A red-black tree of 1000 nodes has black-height ≤ ~2·log2(n)/2.
        assert!(bh >= 5 && bh <= 11, "black height {bh}");
        assert_eq!(map.first_key(&heap, &mut ck).unwrap(), Some(0));
        let es = map.entries(&heap, &mut ck).unwrap();
        assert_eq!(es.len(), 1_000);
        assert!(es.windows(2).all(|w| w[0].0 < w[1].0), "in-order walk sorted");
    }

    #[test]
    fn remove_all_permutations_of_small_sets() {
        // Exhaustively delete in every order from a 6-element tree.
        fn permutations(v: &mut Vec<i64>, k: usize, out: &mut Vec<Vec<i64>>) {
            if k == v.len() {
                out.push(v.clone());
                return;
            }
            for i in k..v.len() {
                v.swap(k, i);
                permutations(v, k + 1, out);
                v.swap(k, i);
            }
        }
        let mut orders = Vec::new();
        permutations(&mut vec![1, 2, 3, 4, 5, 6], 0, &mut orders);
        for order in orders {
            let (heap, map) = setup();
            for k in [4, 2, 6, 1, 3, 5] {
                map.put(&heap, k, k).unwrap();
            }
            for (i, &k) in order.iter().enumerate() {
                assert_eq!(map.remove(&heap, k).unwrap(), Some(k), "order {order:?}");
                map.check_invariants(&heap)
                    .unwrap_or_else(|e| panic!("invariants after removing {k} in {order:?}: {e}"));
                assert_eq!(map.len(&heap).unwrap(), 6 - i - 1);
            }
            assert!(map.is_empty(&heap).unwrap());
        }
    }

    #[test]
    fn remove_missing_is_none() {
        let (heap, map) = setup();
        map.put(&heap, 5, 5).unwrap();
        assert_eq!(map.remove(&heap, 9).unwrap(), None);
        assert_eq!(map.len(&heap).unwrap(), 1);
    }

    #[test]
    fn floor_queries() {
        let (heap, map) = setup();
        let mut ck = NullCheckpoint;
        for k in [10, 20, 30] {
            map.put(&heap, k, k).unwrap();
        }
        assert_eq!(map.floor_key(&heap, 25, &mut ck).unwrap(), Some(20));
        assert_eq!(map.floor_key(&heap, 30, &mut ck).unwrap(), Some(30));
        assert_eq!(map.floor_key(&heap, 5, &mut ck).unwrap(), None);
    }

    #[test]
    fn interleaved_insert_delete_matches_model() {
        let (heap, map) = setup();
        let mut ck = NullCheckpoint;
        let mut model = std::collections::BTreeMap::new();
        // Deterministic pseudo-random sequence.
        let mut state = 0x12345678u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..5_000 {
            let k = (next() % 200) as i64;
            match next() % 3 {
                0 | 1 => {
                    let got = map.put(&heap, k, k * 7).unwrap();
                    let want = model.insert(k, k * 7);
                    assert_eq!(got, want);
                }
                _ => {
                    let got = map.remove(&heap, k).unwrap();
                    let want = model.remove(&k);
                    assert_eq!(got, want);
                }
            }
        }
        map.check_invariants(&heap).unwrap();
        let got = map.entries(&heap, &mut ck).unwrap();
        let want: Vec<_> = model.into_iter().collect();
        assert_eq!(got, want);
    }
}
