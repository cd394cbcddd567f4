//! Type-stable node storage: a segmented, growable **and reclaimable** arena.
//!
//! The scheme's central liberty — `FAA`-ing the `mm_ref` of a node that may
//! already have been reclaimed (paper §3: "we assume that this field will be
//! present at each memory block indefinitely") — is only sound if reclaimed
//! nodes keep their header readable. The arena provides exactly that for
//! **LIVE** segments: nodes are allocated in segments whose slabs are never
//! freed (or moved) while the segment is LIVE, so addresses handed out stay
//! valid. With PR 5 a fully-quiesced trailing segment may be *retired* — its
//! slab returned to the allocator — but only after the reclaim protocol
//! (`wfrc-core::reclaim`) has proven no stale reference can address it; see
//! DESIGN.md §4c for the safety argument.
//!
//! The paper's experiments (and Valois' original scheme) ran with a fixed
//! pool of fixed-size blocks; [`Growth::Disabled`] reproduces that exactly —
//! one segment, sized up front, out-of-memory terminal. With
//! [`Growth::Enabled`] the arena may append further segments at runtime, up
//! to [`MAX_SEGMENTS`], wait-free:
//!
//! * The segment table is a **fixed-capacity array** of atomic pointers to
//!   immortal segment *headers*; publication is a single CAS on the first
//!   empty slot — no relocation, no epoch, and existing node addresses are
//!   untouched (type stability is preserved across growth).
//! * Any number of threads may race [`Arena::try_grow`]; exactly one wins
//!   the slot CAS and publishes, the losers drop their unpublished segment
//!   and observe the winner's capacity. Growth events are bounded by
//!   `MAX_SEGMENTS`, so the retries they cause in `AllocNode` are bounded
//!   too — the allocation path stays wait-free.
//! * Publication order is `slab → total → seg_count → state`, each with
//!   `Release`; readers load `seg_count`/`total` with `Acquire`, so a
//!   visible count implies visible segment contents.
//!
//! # Segment lifecycle (PR 5)
//!
//! Each slot holds an immortal `Segment` header (freed only at arena drop)
//! whose `slab` pointer owns the actual `Box<[Node<T>]>`. The header walks a
//! small state machine:
//!
//! ```text
//!        try_begin_tail_retire            finish_retire
//!   LIVE ─────────────────────► DRAINING ─────────────► RETIRED
//!     ▲                            │                       │
//!     │        abort_retire        │                       │ try_grow
//!     ◄────────────────────────────┘                       │ (revive)
//!     ▲                                                    ▼
//!     └──────────────────────────────────────────────── REVIVING
//! ```
//!
//! * `free_count` is the segment-occupancy counter: how many of the
//!   segment's nodes are verifiably parked on *shared* structures (free-list
//!   stripes and announcement-gift cells; per-thread magazines are
//!   deliberately **not** counted so their fast paths stay FAA-free). It may
//!   transiently under-count (nodes in transit through a refill), never
//!   the reverse at quiescence; retirement additionally *physically*
//!   collects every node, so the counter is a trigger, not the proof.
//!   Slot 0 is not counted at all (its counter stays 0): it is never a
//!   retire candidate, so nothing would read the count.
//! * Retiring frees only the slab; the header (and thus `start`/`len` and
//!   the state word) stays readable forever, so racing observers can always
//!   classify the slot. Reviving allocates a **fresh** slab — addresses are
//!   never reused across a retire/revive cycle, which kills ABA by
//!   construction.
//! * Only the trailing segment (slot `seg_count − 1`, never slot 0) is a
//!   retire candidate, so `start`/`total` arithmetic stays a prefix sum.
//!
//! This replaces the need for a general lock-free allocator underneath
//! (Michael PLDI 2004, Gidenstam et al.) with the two special cases the
//! scheme needs: append-only growth, and whole-segment retirement at proven
//! quiescence.

use core::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

use crate::node::Node;

/// Maximum number of segments an arena can hold. With a doubling policy the
/// pool can grow by a factor of 2⁶³ before hitting this, so the bound exists
/// to keep the segment table a fixed array (lookups and publication stay
/// wait-free) rather than to constrain capacity.
pub const MAX_SEGMENTS: usize = 64;

/// Page size (bytes) for page-granular slab carving of byte-class arenas
/// (see [`crate::class`]). A carved arena rounds every slab to a whole
/// number of pages' worth of nodes, so a segment is always claimed by
/// exactly one size class and the carve geometry stays deterministic
/// across retire/revive cycles.
pub const CARVE_PAGE: usize = 4096;

/// Rounds `count` nodes up so a slab of `Node<T>`s fills whole
/// [`CARVE_PAGE`] pages. Nodes larger than a page carve at node
/// granularity (one node already spans one or more pages), so the count
/// comes back unchanged.
pub fn page_carved<T>(count: usize) -> usize {
    let per_page = (CARVE_PAGE / core::mem::size_of::<Node<T>>()).max(1);
    count.div_ceil(per_page).max(1) * per_page
}

/// Segment state: published and serving allocations.
pub const SEG_LIVE: usize = 0;
/// Segment state: a reclaimer holds the retire claim and is collecting the
/// segment's nodes; alloc paths must not hand its nodes out.
pub const SEG_DRAINING: usize = 1;
/// Segment state: slab freed; the header persists so `try_grow` can revive
/// the slot with a fresh slab.
pub const SEG_RETIRED: usize = 2;
/// Segment state: a reviver won the `RETIRED → REVIVING` CAS and is
/// building the fresh slab; concurrent growers back off with `Lost`.
pub const SEG_REVIVING: usize = 3;
/// Growth policy for an arena (and the domain that owns it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Growth {
    /// Fixed pool — the paper's model. Allocation beyond the initial
    /// capacity fails terminally with `OutOfMemory`.
    Disabled,
    /// Append segments on demand until `max_capacity` total nodes.
    Enabled {
        /// Target multiple of the current capacity after one growth step
        /// (2 = doubling). Must be ≥ 2; each new segment holds
        /// `current · (factor − 1)` nodes, clamped to `max_capacity`.
        factor: usize,
        /// Hard ceiling on total nodes; `OutOfMemory` is terminal only
        /// once this is reached (and no retired slot can be revived).
        max_capacity: usize,
    },
}

impl Growth {
    /// Doubling growth up to `max_capacity` (the common policy).
    pub fn doubling_to(max_capacity: usize) -> Self {
        Growth::Enabled {
            factor: 2,
            max_capacity,
        }
    }
}

/// One slab of nodes plus its immortal header. `start` is the arena-global
/// index of its first node. The header is freed only at arena drop; the
/// slab (`slab` pointer, `len` nodes) is freed on retire and reallocated on
/// revive.
struct Segment<T> {
    start: usize,
    len: usize,
    /// `SEG_LIVE` / `SEG_DRAINING` / `SEG_RETIRED` / `SEG_REVIVING`.
    state: AtomicUsize,
    /// Occupancy: nodes of this segment currently parked on shared
    /// structures (stripes + gift cells). Maintained by the free-list and
    /// magazine layers for slots ≥ 1; see the module docs.
    free_count: AtomicUsize,
    /// First node of the slab, or null while RETIRED. Owns the
    /// `Box<[Node<T>]>` allocation.
    slab: AtomicPtr<Node<T>>,
}

impl<T> Segment<T> {
    fn new(start: usize, nodes: Box<[Node<T>]>) -> Self {
        let len = nodes.len();
        let slab = Box::into_raw(nodes) as *mut Node<T>;
        Segment {
            start,
            len,
            state: AtomicUsize::new(SEG_LIVE),
            free_count: AtomicUsize::new(0),
            slab: AtomicPtr::new(slab),
        }
    }

    /// Slice view of the slab, or `None` while retired.
    ///
    /// Callers must hold the slab alive: either the segment is LIVE and the
    /// caller is inside the reclaim safety protocol, or the caller has
    /// quiesced the domain (leak checks, tests, drop).
    fn nodes(&self) -> Option<&[Node<T>]> {
        let p = self.slab.load(Ordering::Acquire);
        if p.is_null() {
            None
        } else {
            // SAFETY: `p` was published from a Box<[Node<T>]> of `len`
            // nodes; per the contract above it has not been freed.
            Some(unsafe { core::slice::from_raw_parts(p, self.len) })
        }
    }

    /// Address-range membership test. Performs **no dereference** of the
    /// slab, so it is safe to call while a retire races (the answer is then
    /// advisory — callers on hot paths only consult it for DRAINING
    /// segments, whose slab is still allocated).
    fn contains_addr(&self, ptr: *const Node<T>) -> bool {
        let base = self.slab.load(Ordering::Acquire) as usize;
        if base == 0 {
            return false;
        }
        let size = core::mem::size_of::<Node<T>>();
        let addr = ptr as usize;
        addr >= base && addr < base + self.len * size
    }
}

impl<T> Drop for Segment<T> {
    fn drop(&mut self) {
        let p = *self.slab.get_mut();
        if !p.is_null() {
            // SAFETY: exclusively owned at drop; the slab was produced by
            // Box::into_raw on a boxed slice of `len` nodes.
            drop(unsafe { Box::from_raw(core::ptr::slice_from_raw_parts_mut(p, self.len)) });
        }
    }
}

/// Outcome of one [`Arena::try_grow`] attempt.
pub enum GrowOutcome<'a, T> {
    /// This thread published a new (or revived) segment; the caller must
    /// seed these nodes into the free-lists.
    Grew {
        /// The freshly published nodes, all at `FREE_REF`.
        nodes: &'a [Node<T>],
        /// True when the segment was a revived RETIRED slot rather than a
        /// brand-new one.
        revived: bool,
    },
    /// Another thread published (or is mid-publish, or a retire is mid-
    /// transition) — capacity may change momentarily; re-scan the
    /// free-lists and retry.
    Lost,
    /// The policy forbids further growth ([`Growth::Disabled`], the
    /// `max_capacity` ceiling, or `MAX_SEGMENTS`).
    AtCapacity,
}

/// A segmented slab of nodes with stable addresses while LIVE.
pub struct Arena<T> {
    /// Table of immortal segment headers; slot `s` is CASed from null at
    /// most once, and the header then persists until arena drop (retire
    /// frees only the slab).
    segments: [AtomicPtr<Segment<T>>; MAX_SEGMENTS],
    /// Published segment count. Stored `Release` after the segment and
    /// `total` are visible; decremented only by `finish_retire`.
    seg_count: AtomicUsize,
    /// Total nodes across published segments.
    total: AtomicUsize,
    /// Cumulative segments retired (telemetry).
    retired_total: AtomicUsize,
    /// Cumulative RETIRED slots revived (telemetry).
    revived_total: AtomicUsize,
    growth: Growth,
    /// When set, grown slabs are rounded up to whole [`CARVE_PAGE`] pages
    /// (byte-class arenas; the node arena keeps exact sizing).
    page_carve: bool,
    /// Payload initializer for segment construction (growth can run on any
    /// thread, hence the `Send + Sync` bounds).
    init: Box<dyn Fn(usize) -> T + Send + Sync>,
}

impl<T> Arena<T> {
    /// Allocates a fixed arena of `capacity` nodes, initializing payload
    /// `i` with `init(i)` ([`Growth::Disabled`] semantics).
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, init: impl Fn(usize) -> T + Send + Sync + 'static) -> Self {
        Self::with_growth(capacity, Growth::Disabled, init)
    }

    /// Allocates the first segment of `initial_capacity` nodes under the
    /// given growth policy.
    ///
    /// # Panics
    /// Panics if `initial_capacity == 0`, or if the policy is
    /// [`Growth::Enabled`] with `factor < 2` or
    /// `max_capacity < initial_capacity`.
    pub fn with_growth(
        initial_capacity: usize,
        growth: Growth,
        init: impl Fn(usize) -> T + Send + Sync + 'static,
    ) -> Self {
        Self::build(initial_capacity, growth, false, init)
    }

    /// Like [`Arena::with_growth`], but every grown slab is carved at
    /// [`CARVE_PAGE`] granularity (rounded up to whole pages, still
    /// clamped to the policy ceiling). The caller is responsible for
    /// page-rounding `initial_capacity` and the policy's `max_capacity`
    /// with [`page_carved`] so the geometry stays page-exact throughout;
    /// the byte classes in [`crate::class`] do exactly that.
    pub fn with_growth_carved(
        initial_capacity: usize,
        growth: Growth,
        init: impl Fn(usize) -> T + Send + Sync + 'static,
    ) -> Self {
        Self::build(initial_capacity, growth, true, init)
    }

    fn build(
        initial_capacity: usize,
        growth: Growth,
        page_carve: bool,
        init: impl Fn(usize) -> T + Send + Sync + 'static,
    ) -> Self {
        assert!(initial_capacity > 0, "arena capacity must be positive");
        if let Growth::Enabled {
            factor,
            max_capacity,
        } = growth
        {
            assert!(factor >= 2, "growth factor must be at least 2");
            assert!(
                max_capacity >= initial_capacity,
                "max_capacity ({max_capacity}) below initial capacity ({initial_capacity})"
            );
        }
        let nodes: Box<[Node<T>]> = (0..initial_capacity).map(|i| Node::new(init(i))).collect();
        let first = Box::into_raw(Box::new(Segment::new(0, nodes)));
        let segments: [AtomicPtr<Segment<T>>; MAX_SEGMENTS] =
            core::array::from_fn(|_| AtomicPtr::new(core::ptr::null_mut()));
        segments[0].store(first, Ordering::Release);
        Self {
            segments,
            seg_count: AtomicUsize::new(1),
            total: AtomicUsize::new(initial_capacity),
            retired_total: AtomicUsize::new(0),
            revived_total: AtomicUsize::new(0),
            growth,
            page_carve,
            init: Box::new(init),
        }
    }

    /// Total nodes across all published segments.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.total.load(Ordering::Acquire)
    }

    /// Number of published (resident) segments.
    #[inline]
    pub fn segment_count(&self) -> usize {
        self.seg_count.load(Ordering::Acquire)
    }

    /// The arena's growth policy.
    #[inline]
    pub fn growth(&self) -> Growth {
        self.growth
    }

    /// Cumulative count of segments retired over the arena's lifetime.
    #[inline]
    pub fn segments_retired(&self) -> usize {
        self.retired_total.load(Ordering::Relaxed)
    }

    /// Cumulative count of RETIRED slots revived by [`Arena::try_grow`].
    #[inline]
    pub fn segments_revived(&self) -> usize {
        self.revived_total.load(Ordering::Relaxed)
    }

    /// RETIRED slots whose occupancy counter is nonzero. `finish_retire`
    /// zeroes the counter, so any such slot means occupancy traffic reached
    /// a dead slab: a protocol bug, which [`crate::Domain::leak_check`]
    /// reports. Only meaningful at quiescence.
    pub fn retired_occupied(&self) -> usize {
        (0..MAX_SEGMENTS)
            .map_while(|s| self.header(s))
            .filter(|seg| {
                seg.state.load(Ordering::SeqCst) == SEG_RETIRED
                    && seg.free_count.load(Ordering::SeqCst) != 0
            })
            .count()
    }

    /// Header for slot `s`, if ever published.
    #[inline]
    fn header(&self, s: usize) -> Option<&Segment<T>> {
        let p = self.segments[s].load(Ordering::Acquire);
        // SAFETY: headers are published exactly once and freed only at
        // arena drop, which requires exclusive access.
        (!p.is_null()).then(|| unsafe { &*p })
    }

    /// Published segments, in order. Skips slots whose slab has been
    /// retired mid-iteration (possible only while a retire races).
    fn published(&self) -> impl Iterator<Item = &Segment<T>> {
        let count = self.seg_count.load(Ordering::Acquire);
        (0..count).filter_map(move |s| self.header(s))
    }

    /// Pointer to node `i`.
    ///
    /// # Panics
    /// Panics if `i >= capacity()`.
    #[inline]
    pub fn node_ptr(&self, i: usize) -> *mut Node<T> {
        self.node(i) as *const Node<T> as *mut Node<T>
    }

    /// Shared reference to node `i` (test/diagnostic use; callers must not
    /// race a retire of the segment holding `i`).
    ///
    /// # Panics
    /// Panics if `i >= capacity()`.
    pub fn node(&self, i: usize) -> &Node<T> {
        for seg in self.published() {
            if i < seg.start + seg.len {
                if let Some(nodes) = seg.nodes() {
                    return &nodes[i - seg.start];
                }
            }
        }
        panic!(
            "node index {i} out of bounds (capacity {})",
            self.capacity()
        );
    }

    /// The arena index of `ptr`, or `None` if `ptr` is not one of this
    /// arena's resident nodes. Pure address arithmetic — never
    /// dereferences the slab.
    pub fn index_of(&self, ptr: *const Node<T>) -> Option<usize> {
        let size = core::mem::size_of::<Node<T>>();
        let addr = ptr as usize;
        for seg in self.published() {
            let base = seg.slab.load(Ordering::Acquire) as usize;
            if base == 0 || addr < base {
                continue;
            }
            let off = addr - base;
            if !off.is_multiple_of(size) {
                continue;
            }
            let idx = off / size;
            if idx < seg.len {
                return Some(seg.start + idx);
            }
        }
        None
    }

    /// True if `ptr` points at a resident node of this arena.
    #[inline]
    pub fn contains(&self, ptr: *const Node<T>) -> bool {
        self.index_of(ptr).is_some()
    }

    /// Iterates over all resident nodes (diagnostics: leak checks, audits;
    /// quiescent use only — see `Segment::nodes`). RETIRED slabs are
    /// skipped, so their nodes never show up as leaks.
    pub fn iter(&self) -> impl Iterator<Item = &Node<T>> {
        self.published().flat_map(|seg| {
            let nodes = seg.nodes().unwrap_or(&[]);
            nodes.iter()
        })
    }

    // --- occupancy bookkeeping -------------------------------------------

    /// Slot index of the segment whose slab contains `ptr`, if any.
    #[inline]
    pub fn slot_of(&self, ptr: *const Node<T>) -> Option<usize> {
        let count = self.seg_count.load(Ordering::Acquire);
        (0..count).find(|&s| {
            self.header(s)
                .map(|seg| seg.contains_addr(ptr))
                .unwrap_or(false)
        })
    }

    /// The segment whose occupancy `ptr`'s node is counted in: none for
    /// slot 0. The immortal segment is never a retire candidate, so nothing
    /// reads its counter — and every `AllocNode`/`FreeNode` pair of a domain
    /// that never grew would otherwise bounce that one shared line twice.
    /// Slots ≥ 1 are counted exactly.
    #[inline]
    fn counted_segment(&self, ptr: *const Node<T>) -> Option<&Segment<T>> {
        match self.slot_of(ptr)? {
            0 => None,
            s => self.header(s),
        }
    }

    /// Records that `ptr`'s node landed on a shared structure (stripe or
    /// gift cell). Relaxed — the counter is a reclaim trigger, not a proof.
    #[inline]
    pub fn occupancy_inc(&self, ptr: *const Node<T>) {
        if let Some(seg) = self.counted_segment(ptr) {
            seg.free_count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records that `ptr`'s node left a shared structure.
    #[inline]
    pub fn occupancy_dec(&self, ptr: *const Node<T>) {
        if let Some(seg) = self.counted_segment(ptr) {
            seg.free_count.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Bulk-credits a freshly seeded slab (`count` nodes starting at
    /// `first`) to its segment's occupancy in one FAA. Used after `seed` /
    /// `seed_grown` push an entire segment onto the stripes.
    pub fn note_seeded(&self, first: *const Node<T>, count: usize) {
        if let Some(seg) = self.counted_segment(first) {
            seg.free_count.fetch_add(count, Ordering::Relaxed);
        }
    }

    // --- segment state machine -------------------------------------------

    /// State word of slot `s` (`SEG_LIVE` etc.), or `None` if the slot was
    /// never published.
    #[inline]
    pub fn seg_state(&self, s: usize) -> Option<usize> {
        self.header(s).map(|seg| seg.state.load(Ordering::SeqCst))
    }

    /// Node count of slot `s`'s slab.
    #[inline]
    pub fn seg_len(&self, s: usize) -> Option<usize> {
        self.header(s).map(|seg| seg.len)
    }

    /// Arena-global index of slot `s`'s first node.
    #[inline]
    pub fn seg_start(&self, s: usize) -> Option<usize> {
        self.header(s).map(|seg| seg.start)
    }

    /// Current occupancy counter of slot `s`.
    #[inline]
    pub fn seg_free_count(&self, s: usize) -> Option<usize> {
        self.header(s)
            .map(|seg| seg.free_count.load(Ordering::SeqCst))
    }

    /// True if `ptr` lies in slot `s`'s slab (address arithmetic only).
    #[inline]
    pub fn seg_contains(&self, s: usize, ptr: *const Node<T>) -> bool {
        self.header(s)
            .map(|seg| seg.contains_addr(ptr))
            .unwrap_or(false)
    }

    /// Attempts to claim the trailing segment for retirement: requires at
    /// least two resident segments (slot 0 is immortal), a LIVE state, and
    /// a full occupancy counter. On success the segment is `DRAINING` and
    /// the returned slot index identifies it; the caller owns completing
    /// ([`Arena::finish_retire`]) or aborting ([`Arena::abort_retire`]) the
    /// transition.
    pub fn try_begin_tail_retire(&self) -> Option<usize> {
        let s = self.seg_count.load(Ordering::SeqCst);
        if s < 2 {
            return None;
        }
        let slot = s - 1;
        let seg = self.header(slot)?;
        if seg.free_count.load(Ordering::SeqCst) < seg.len {
            return None;
        }
        seg.state
            .compare_exchange(SEG_LIVE, SEG_DRAINING, Ordering::SeqCst, Ordering::SeqCst)
            .ok()?;
        // Re-verify trailing-ness under the claim: a concurrent grow may
        // have published a later slot between our load and the CAS. The
        // retire would then leave a hole, so back out.
        if self.seg_count.load(Ordering::SeqCst) != s {
            seg.state.store(SEG_LIVE, Ordering::SeqCst);
            return None;
        }
        Some(slot)
    }

    /// Reverts a `DRAINING` claim taken by [`Arena::try_begin_tail_retire`].
    pub fn abort_retire(&self, slot: usize) {
        if let Some(seg) = self.header(slot) {
            let prev = seg.state.swap(SEG_LIVE, Ordering::SeqCst);
            debug_assert_eq!(prev, SEG_DRAINING, "abort_retire on non-DRAINING segment");
        }
    }

    /// Completes a retire whose nodes have all been physically collected by
    /// the caller: unpublishes the slot (`seg_count`/`total` shrink), frees
    /// the slab, and marks the header `RETIRED`. Returns `false` (leaving
    /// the segment `DRAINING`, caller must abort) if a concurrent grow
    /// published a later slot — retiring would leave a hole in the table.
    ///
    /// # Safety contract (checked by the caller, see `reclaim.rs`)
    /// Every node of the slab is privately held by the caller, all
    /// registered threads have passed a grace period, and no announcement
    /// slot is occupied — i.e. no stale pointer into the slab exists
    /// anywhere. After this returns `true` those node addresses are dead.
    pub fn finish_retire(&self, slot: usize) -> bool {
        let Some(seg) = self.header(slot) else {
            return false;
        };
        debug_assert_eq!(seg.state.load(Ordering::SeqCst), SEG_DRAINING);
        if self
            .seg_count
            .compare_exchange(slot + 1, slot, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return false;
        }
        self.total.store(seg.start, Ordering::Release);
        let slab = seg.slab.swap(core::ptr::null_mut(), Ordering::AcqRel);
        debug_assert!(!slab.is_null());
        // SAFETY: per the contract the caller holds every node privately
        // and no other reference to the slab exists; the slot is already
        // unpublished, so no new reference can form.
        drop(unsafe { Box::from_raw(core::ptr::slice_from_raw_parts_mut(slab, seg.len)) });
        seg.free_count.store(0, Ordering::SeqCst);
        seg.state.store(SEG_RETIRED, Ordering::SeqCst);
        self.retired_total.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Attempts to publish one new segment under the growth policy, either
    /// by filling the next empty slot or by **reviving** a RETIRED slot
    /// with a fresh slab (fresh addresses — no ABA across the cycle).
    ///
    /// Wait-free: one segment allocation + initialization, one CAS. Any
    /// number of threads may race; see the module docs for the protocol.
    /// On [`GrowOutcome::Grew`] the **caller** owns seeding the returned
    /// nodes into its free-list(s) — the arena does not know the free-list
    /// layout (the wait-free scheme stripes, the lock-free baseline has a
    /// single head).
    pub fn try_grow(&self) -> GrowOutcome<'_, T> {
        let Growth::Enabled {
            factor,
            max_capacity,
        } = self.growth
        else {
            return GrowOutcome::AtCapacity;
        };
        let s = self.seg_count.load(Ordering::Acquire);
        if s >= MAX_SEGMENTS {
            return GrowOutcome::AtCapacity;
        }
        // Consistent with `s`: the winner of slot s−1 stored `total` before
        // `seg_count`, both Release, and we loaded `seg_count` Acquire.
        let total = self.total.load(Ordering::Acquire);
        if total >= max_capacity {
            return GrowOutcome::AtCapacity;
        }
        if let Some(seg) = self.header(s) {
            // The slot already has a header: a previously retired segment.
            // Revive it with a fresh slab instead of appending a new slot.
            return self.revive(s, seg);
        }
        let mut len = total
            .saturating_mul(factor - 1)
            .clamp(1, max_capacity - total);
        if self.page_carve {
            // Whole pages per step; the ceiling still wins (a final
            // partial-page step beats refusing to reach max_capacity).
            len = page_carved::<T>(len).min(max_capacity - total);
        }
        let nodes: Box<[Node<T>]> = (0..len)
            .map(|k| Node::new((self.init)(total + k)))
            .collect();
        let seg = Box::into_raw(Box::new(Segment::new(total, nodes)));
        match self.segments[s].compare_exchange(
            core::ptr::null_mut(),
            seg,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                // Publish capacity, then the count readers key off.
                self.total.store(total + len, Ordering::Release);
                self.seg_count.store(s + 1, Ordering::Release);
                // SAFETY: just published; the slab stays alive while LIVE.
                let nodes = unsafe { (*seg).nodes().unwrap() };
                GrowOutcome::Grew {
                    nodes,
                    revived: false,
                }
            }
            Err(_) => {
                // Another thread won slot `s`; ours was never shared.
                // SAFETY: `seg` came from Box::into_raw above and was not
                // published.
                drop(unsafe { Box::from_raw(seg) });
                GrowOutcome::Lost
            }
        }
    }

    /// Revives RETIRED slot `s`: builds a fresh slab of the header's
    /// original `len` and republishes `total`/`seg_count`. The doubling
    /// ladder is deterministic, so the header's `start`/`len` are exactly
    /// what a fresh grow at this capacity would have chosen.
    fn revive<'a>(&'a self, s: usize, seg: &'a Segment<T>) -> GrowOutcome<'a, T> {
        if seg
            .state
            .compare_exchange(
                SEG_RETIRED,
                SEG_REVIVING,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_err()
        {
            // Mid-retire (DRAINING) or another reviver — treat like losing
            // the publication race: capacity is in flux, caller re-scans.
            return GrowOutcome::Lost;
        }
        debug_assert_eq!(self.total.load(Ordering::Acquire), seg.start);
        let nodes: Box<[Node<T>]> = (seg.start..seg.start + seg.len)
            .map(|i| Node::new((self.init)(i)))
            .collect();
        let slab = Box::into_raw(nodes) as *mut Node<T>;
        seg.free_count.store(0, Ordering::SeqCst);
        seg.slab.store(slab, Ordering::Release);
        self.total.store(seg.start + seg.len, Ordering::Release);
        self.seg_count.store(s + 1, Ordering::Release);
        seg.state.store(SEG_LIVE, Ordering::SeqCst);
        self.revived_total.fetch_add(1, Ordering::Relaxed);
        // SAFETY: just published from a Box of `len` nodes.
        let nodes = unsafe { core::slice::from_raw_parts(slab, seg.len) };
        GrowOutcome::Grew {
            nodes,
            revived: true,
        }
    }
}

impl<T> Drop for Arena<T> {
    fn drop(&mut self) {
        for slot in &mut self.segments {
            let p = *slot.get_mut();
            if !p.is_null() {
                // SAFETY: exclusively owned at drop; published exactly once.
                // Segment::drop frees the slab if still resident.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

impl<T> core::fmt::Debug for Arena<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Arena")
            .field("capacity", &self.capacity())
            .field("segments", &self.segment_count())
            .field("retired", &self.segments_retired())
            .field("revived", &self.segments_revived())
            .field("growth", &self.growth)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_start_free() {
        let a: Arena<u64> = Arena::new(8, |i| i as u64);
        assert_eq!(a.capacity(), 8);
        for n in a.iter() {
            assert_eq!(n.load_ref(), Node::<u64>::FREE_REF);
        }
    }

    #[test]
    fn index_of_roundtrip() {
        let a: Arena<u32> = Arena::new(16, |_| 0);
        for i in 0..16 {
            assert_eq!(a.index_of(a.node_ptr(i)), Some(i));
            assert!(a.contains(a.node_ptr(i)));
        }
    }

    #[test]
    fn index_of_rejects_foreign_pointers() {
        let a: Arena<u32> = Arena::new(4, |_| 0);
        let foreign = Node::new(0u32);
        assert_eq!(a.index_of(&foreign), None);
        // Misaligned interior pointer.
        let inside = (a.node_ptr(0) as usize + 1) as *const Node<u32>;
        assert_eq!(a.index_of(inside), None);
        // One-past-the-end.
        let past = (a.node_ptr(3) as usize + core::mem::size_of::<Node<u32>>()) as *const Node<u32>;
        assert_eq!(a.index_of(past), None);
        // Below the base.
        let below =
            (a.node_ptr(0) as usize - core::mem::size_of::<Node<u32>>()) as *const Node<u32>;
        assert_eq!(a.index_of(below), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Arena::<u8>::new(0, |_| 0);
    }

    #[test]
    fn addresses_are_stable_and_distinct() {
        let a: Arena<u64> = Arena::new(32, |_| 0);
        let mut seen = std::collections::HashSet::new();
        for i in 0..32 {
            assert!(seen.insert(a.node_ptr(i) as usize));
        }
        // Tag bit must be free on every node.
        for i in 0..32 {
            assert_eq!(a.node_ptr(i) as usize & 1, 0);
        }
    }

    #[test]
    fn disabled_growth_never_grows() {
        let a: Arena<u64> = Arena::new(4, |_| 0);
        assert!(matches!(a.try_grow(), GrowOutcome::AtCapacity));
        assert_eq!(a.capacity(), 4);
        assert_eq!(a.segment_count(), 1);
    }

    #[test]
    fn doubling_growth_publishes_segments() {
        let a: Arena<u64> = Arena::with_growth(4, Growth::doubling_to(32), |i| i as u64);
        // 4 -> 8 -> 16 -> 32, then terminal.
        let mut starts = Vec::new();
        while let GrowOutcome::Grew { nodes, revived } = a.try_grow() {
            assert!(!revived);
            starts.push(nodes.len());
        }
        assert_eq!(starts, vec![4, 8, 16]);
        assert_eq!(a.capacity(), 32);
        assert_eq!(a.segment_count(), 4);
        assert!(matches!(a.try_grow(), GrowOutcome::AtCapacity));
        // init covered the grown indices, and indexing spans segments.
        // SAFETY: the arena is unshared here; no node is referenced.
        let payloads: Vec<u64> = (0..32).map(|i| unsafe { *a.node(i).payload() }).collect();
        assert_eq!(payloads, (0..32u64).collect::<Vec<_>>());
        // Round-trips still hold across segment boundaries.
        for i in 0..32 {
            assert_eq!(a.index_of(a.node_ptr(i)), Some(i));
        }
    }

    #[test]
    fn growth_clamps_to_max_capacity() {
        let a: Arena<u64> = Arena::with_growth(5, Growth::doubling_to(12), |_| 0);
        assert!(matches!(a.try_grow(), GrowOutcome::Grew { nodes, .. } if nodes.len() == 5));
        // 10 * 1 = 10, clamped to 12 - 10 = 2.
        assert!(matches!(a.try_grow(), GrowOutcome::Grew { nodes, .. } if nodes.len() == 2));
        assert_eq!(a.capacity(), 12);
        assert!(matches!(a.try_grow(), GrowOutcome::AtCapacity));
    }

    #[test]
    fn addresses_survive_growth() {
        let a: Arena<u64> = Arena::with_growth(4, Growth::doubling_to(64), |_| 0);
        let before: Vec<usize> = (0..4).map(|i| a.node_ptr(i) as usize).collect();
        while let GrowOutcome::Grew { .. } = a.try_grow() {}
        let after: Vec<usize> = (0..4).map(|i| a.node_ptr(i) as usize).collect();
        assert_eq!(before, after, "growth must not move existing nodes");
        // All nodes distinct and tag-bit-free across every segment.
        let mut seen = std::collections::HashSet::new();
        for i in 0..a.capacity() {
            let p = a.node_ptr(i) as usize;
            assert!(seen.insert(p));
            assert_eq!(p & 1, 0);
        }
    }

    #[test]
    #[should_panic(expected = "growth factor")]
    fn factor_below_two_panics() {
        let _ = Arena::<u8>::with_growth(
            1,
            Growth::Enabled {
                factor: 1,
                max_capacity: 8,
            },
            |_| 0,
        );
    }

    #[test]
    #[should_panic(expected = "max_capacity")]
    fn max_below_initial_panics() {
        let _ = Arena::<u8>::with_growth(8, Growth::doubling_to(4), |_| 0);
    }

    #[test]
    fn concurrent_growers_publish_each_segment_once() {
        use std::sync::Arc;
        let a: Arc<Arena<u64>> =
            Arc::new(Arena::with_growth(2, Growth::doubling_to(1 << 12), |_| 0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    let mut grew = 0usize;
                    for _ in 0..6 {
                        if let GrowOutcome::Grew { .. } = a.try_grow() {
                            grew += 1;
                        }
                    }
                    grew
                })
            })
            .collect();
        let wins: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();
        // Every published segment had exactly one winner.
        assert_eq!(wins, a.segment_count() - 1);
        // Capacity is consistent with the doubling ladder from 2.
        assert_eq!(a.capacity(), 2 << (a.segment_count() - 1));
        // No duplicate or misaligned nodes appeared.
        let mut seen = std::collections::HashSet::new();
        for i in 0..a.capacity() {
            assert!(seen.insert(a.node_ptr(i) as usize));
        }
    }

    // --- PR 5: retire / revive -------------------------------------------

    /// Drives the full retire protocol the way `reclaim.rs` does, for a
    /// quiescent single-threaded arena: claim, collect (trivially — nothing
    /// holds the nodes here), finish.
    fn retire_tail(a: &Arena<u64>) -> bool {
        let Some(slot) = a.try_begin_tail_retire() else {
            return false;
        };
        if a.finish_retire(slot) {
            true
        } else {
            a.abort_retire(slot);
            false
        }
    }

    #[test]
    fn retire_requires_full_occupancy() {
        let a: Arena<u64> = Arena::with_growth(4, Growth::doubling_to(16), |_| 0);
        let GrowOutcome::Grew { nodes, .. } = a.try_grow() else {
            panic!("grow failed");
        };
        // Occupancy is zero (nothing seeded) — candidate must be rejected.
        assert_eq!(nodes.len(), 4);
        assert!(a.try_begin_tail_retire().is_none());
        a.note_seeded(nodes.as_ptr(), nodes.len());
        assert_eq!(a.seg_free_count(1), Some(4));
        assert!(retire_tail(&a));
        assert_eq!(a.segment_count(), 1);
        assert_eq!(a.capacity(), 4);
        assert_eq!(a.seg_state(1), Some(SEG_RETIRED));
        assert_eq!(a.segments_retired(), 1);
    }

    #[test]
    fn slot_zero_is_not_counted_and_slot_one_is() {
        let a: Arena<u64> = Arena::with_growth(4, Growth::doubling_to(16), |_| 0);
        let GrowOutcome::Grew { nodes, .. } = a.try_grow() else {
            panic!("grow failed");
        };
        let (immortal, grown) = (a.node_ptr(0), nodes.as_ptr());
        // Seed, alloc (dec), gift (inc + dec), free (inc): slot 0 stays 0.
        a.note_seeded(immortal, 4);
        assert_eq!(a.seg_free_count(0), Some(0));
        a.occupancy_dec(immortal);
        a.occupancy_inc(immortal);
        a.occupancy_dec(immortal);
        a.occupancy_inc(immortal);
        assert_eq!(a.seg_free_count(0), Some(0));
        // The same traffic on slot 1 is counted exactly, up to `len`.
        a.note_seeded(grown, nodes.len());
        assert_eq!(a.seg_free_count(1), Some(4));
        a.occupancy_dec(grown);
        assert_eq!(a.seg_free_count(1), Some(3));
        assert!(a.try_begin_tail_retire().is_none());
        a.occupancy_inc(grown);
        assert_eq!(a.seg_free_count(1), Some(4));
        assert!(retire_tail(&a));
    }

    #[test]
    fn slot_zero_is_immortal() {
        let a: Arena<u64> = Arena::with_growth(4, Growth::doubling_to(16), |_| 0);
        // Single segment, fully free: still not a candidate.
        let first: Vec<*mut Node<u64>> = (0..4).map(|i| a.node_ptr(i)).collect();
        a.note_seeded(first[0], 4);
        assert!(a.try_begin_tail_retire().is_none());
    }

    #[test]
    fn revive_reuses_slot_with_a_fresh_slab() {
        let a: Arena<u64> = Arena::with_growth(4, Growth::doubling_to(16), |i| i as u64);
        let GrowOutcome::Grew { nodes, .. } = a.try_grow() else {
            panic!("grow failed");
        };
        // Scribble on the payloads so re-initialisation is observable.
        // (Address disjointness across retire/revive is NOT asserted: the
        // OS allocator may legitimately hand the freed chunk back, and
        // the §4c safety argument never depends on fresh addresses.)
        for n in nodes {
            // SAFETY: arena unshared here.
            unsafe { *n.payload_mut() = u64::MAX };
        }
        a.note_seeded(nodes.as_ptr(), nodes.len());
        assert!(retire_tail(&a));
        assert_eq!(a.capacity(), 4);
        // try_grow revives the RETIRED slot rather than appending slot 2.
        let GrowOutcome::Grew { nodes, revived } = a.try_grow() else {
            panic!("revive failed");
        };
        assert!(revived);
        assert_eq!(nodes.len(), 4);
        assert_eq!(a.segment_count(), 2);
        assert_eq!(a.capacity(), 8);
        assert_eq!(a.seg_state(1), Some(SEG_LIVE));
        assert_eq!(a.segments_revived(), 1);
        // Fresh slab: payload init re-ran with the same global indices,
        // erasing the scribbles.
        for (k, n) in nodes.iter().enumerate() {
            // SAFETY: arena unshared here.
            assert_eq!(unsafe { *n.payload() }, 4 + k as u64);
        }
    }

    #[test]
    fn capacity_oscillates_across_cycles() {
        let a: Arena<u64> = Arena::with_growth(4, Growth::doubling_to(16), |_| 0);
        for _ in 0..20 {
            let GrowOutcome::Grew { nodes, .. } = a.try_grow() else {
                panic!("grow failed");
            };
            a.note_seeded(nodes.as_ptr(), nodes.len());
            assert_eq!(a.capacity(), 8);
            assert!(retire_tail(&a));
            assert_eq!(a.capacity(), 4);
            assert_eq!(a.segment_count(), 1);
        }
        assert_eq!(a.segments_retired(), 20);
        assert_eq!(a.segments_revived(), 19);
    }

    #[test]
    fn draining_segment_blocks_grow_and_iter_skips_retired() {
        let a: Arena<u64> = Arena::with_growth(4, Growth::doubling_to(32), |_| 0);
        let GrowOutcome::Grew { nodes, .. } = a.try_grow() else {
            panic!("grow failed");
        };
        a.note_seeded(nodes.as_ptr(), nodes.len());
        let freed_base = nodes.as_ptr();
        let slot = a.try_begin_tail_retire().expect("claim");
        assert_eq!(a.seg_state(slot), Some(SEG_DRAINING));
        // A second claim must fail while the first is held.
        assert!(a.try_begin_tail_retire().is_none());
        a.abort_retire(slot);
        assert_eq!(a.seg_state(slot), Some(SEG_LIVE));
        // Retire, then confirm the diagnostic iterator only sees residents.
        assert!(retire_tail(&a));
        assert_eq!(a.iter().count(), 4);
        assert_eq!(a.index_of(freed_base), None);
    }
}
