//! Per-size-class byte arenas: the allocation pipeline generalized beyond
//! one node shape.
//!
//! PRs 1–5 built the paper's pipeline for exactly one payload type per
//! domain — every segment is carved into identical `Node<T>` cells. This
//! module adds a set of **byte classes** next to the node pool: geometric
//! block sizes (64 B … 4 KiB, [`CLASS_SIZES`]) whose blocks are untyped
//! byte buffers. Each class is a complete, independent instance of the
//! existing machinery — its own segmented [`crate::arena::Arena`] (carved
//! at [`crate::arena::CARVE_PAGE`] granularity, so a segment belongs to
//! exactly one class from the moment it is grown), its own striped
//! free-lists, per-thread magazines, occupancy counters, and
//! LIVE→DRAINING→RETIRED retirement state. Nothing is shared between
//! classes except the domain's thread registry, so the footnote-4 retry
//! bound and the winner-seeds-slab grow protocol hold **per class**: the
//! wait-freedom argument of DESIGN.md §4 applies verbatim to each class in
//! isolation (see DESIGN.md §4d).
//!
//! Byte blocks are *leaf* objects — they hold no [`crate::Link`]s, are
//! never published through links, and are never the target of the
//! announcement protocol. Each class still owns an (idle) announcement
//! matrix purely so the reclaim protocol's announcement check is uniform;
//! its slots are permanently empty, which makes the announcement veto of a
//! class retire trivially pass.
//!
//! A class is generic over the [`Scheme`]: `ByteClass<N, S>` wraps one
//! `S::Pool<RawBuf<N>>`, so the description above is the wait-free scheme's
//! and a lock-free domain gets the same ladder over its own pool.
//!
//! The public surface is on [`crate::Handle`]: `alloc_bytes` /
//! `free_bytes` / `bytes` for raw buffers (returning a [`RawBytes`]
//! token).

use core::cell::Cell;

use crate::arena::{page_carved, Arena, Growth};
use crate::counters::OpCounters;
use crate::domain::Census;
use crate::link::Link;
use crate::node::{Node, RcObject};
use crate::oom::OutOfMemory;
use crate::reclaim::ReclaimOutcome;
use crate::scheme::{OpGuard, Pool, Scheme, Tuning};

/// The supported byte-class block sizes: a geometric ladder 64 B – 4 KiB.
/// [`ClassConfig::size`] must be one of these (the class layer is
/// monomorphized per size so blocks are ordinary `Node<[u8; N]>` slabs).
pub const CLASS_SIZES: [usize; 7] = [64, 128, 256, 512, 1024, 2048, 4096];

/// Upper bound on configured byte classes per domain. The per-class
/// breakdowns in [`crate::counters::OpCounters`] are fixed arrays of this
/// length so the counter struct stays `Copy`-snapshot friendly.
pub const MAX_CLASSES: usize = 8;

/// A fixed-size untyped block payload. Blocks are leaves: they contain no
/// [`Link`]s, so releasing one never recurses. `repr(transparent)`
/// guarantees the buffer sits at offset 0, so a `*mut RawBuf<N>` **is**
/// the data address.
#[repr(transparent)]
pub struct RawBuf<const N: usize>([u8; N]);

impl<const N: usize> Default for RawBuf<N> {
    fn default() -> Self {
        Self([0u8; N])
    }
}

impl<const N: usize> RcObject for RawBuf<N> {
    #[inline]
    fn each_link(&self, _f: &mut dyn FnMut(&Link<Self>)) {}
}

/// Handle to one allocated byte block: which class it came from, how many
/// bytes the caller asked for, and the (type-erased) node address.
///
/// The token is plain data (`Copy`) — it carries no lifetime and may be
/// stored in payloads or sent across threads; every *use* goes through a
/// registered [`crate::Handle`] of the owning domain (`bytes`,
/// `free_bytes`), which re-binds the required context. Dropping a token
/// without `free_bytes` leaks the block (it shows up in
/// [`crate::LeakReport::classes`] as a live node).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawBytes {
    class: u32,
    len: u32,
    node: *mut u8,
}

// SAFETY: the token is an address plus two integers; all dereferences
// happen through ThreadHandle methods that re-establish the domain
// context, and the underlying block is protocol-protected shared memory.
unsafe impl Send for RawBytes {}
unsafe impl Sync for RawBytes {}

impl RawBytes {
    pub(crate) fn new(class: usize, len: usize, node: *mut u8) -> Self {
        Self {
            class: class as u32,
            len: len as u32,
            node,
        }
    }

    /// Index of the owning class in the domain's configured class list.
    #[inline]
    pub fn class_index(&self) -> usize {
        self.class as usize
    }

    /// Number of bytes the allocation requested (≤ the class block size).
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for zero-length allocations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The type-erased node address. User code has no use for it — all
    /// access goes through [`crate::Handle::bytes`].
    #[inline]
    pub fn node_ptr(&self) -> *mut u8 {
        self.node
    }
}

/// Configuration of one byte class (see [`crate::DomainConfig::classes`]).
#[derive(Debug, Clone)]
pub struct ClassConfig {
    /// Block size in bytes; must be one of [`CLASS_SIZES`].
    pub size: usize,
    /// Initial block-pool capacity of the class (rounded **up** to whole
    /// carve pages at construction — see [`crate::arena::page_carved`]).
    pub capacity: usize,
    /// Growth policy of the class arena (`max_capacity` is page-rounded
    /// the same way). Defaults to [`Growth::Disabled`].
    pub growth: Growth,
    /// Requested per-thread magazine capacity for this class (0 disables;
    /// clamped exactly like the node pool's).
    pub magazine: usize,
}

impl ClassConfig {
    /// Standard configuration for one class.
    pub fn new(size: usize, capacity: usize) -> Self {
        Self {
            size,
            capacity,
            growth: Growth::Disabled,
            magazine: 0,
        }
    }

    /// Sets the class growth policy.
    pub fn with_growth(mut self, growth: Growth) -> Self {
        self.growth = growth;
        self
    }

    /// Enables per-thread magazines of (at most) `cap` blocks.
    pub fn with_magazine(mut self, cap: usize) -> Self {
        self.magazine = cap;
        self
    }
}

/// The full [`CLASS_SIZES`] ladder, each class with `capacity` initial
/// blocks — the convenience most callers want.
pub fn geometric_ladder(capacity: usize) -> Vec<ClassConfig> {
    CLASS_SIZES
        .iter()
        .map(|&s| ClassConfig::new(s, capacity))
        .collect()
}

/// Quiescent audit of one byte class (see [`crate::LeakReport::classes`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClassLeak {
    /// Block size of the class in bytes.
    pub size: usize,
    /// Total blocks across the class's resident segments.
    pub capacity: usize,
    /// Resident segments of the class arena.
    pub segments: usize,
    /// Cumulative class segments retired over the domain's lifetime.
    pub segments_retired: usize,
    /// Blocks in the class free-lists (`mm_ref == 1`).
    pub free_nodes: usize,
    /// Blocks parked in the class's gift cells (`mm_ref == 3`).
    pub parked_gifts: usize,
    /// Blocks parked in registered handles' class magazines.
    pub magazine_nodes: usize,
    /// Blocks currently allocated (live token).
    pub live_nodes: usize,
    /// Blocks in a state the quiescent invariants forbid.
    pub corrupt_nodes: usize,
    /// Threads whose class `alloc_need` bit is up (0 at quiescence).
    pub alloc_need: usize,
}

impl ClassLeak {
    /// Fills the block categories from `c` (see [`crate::census`]). Blocks are
    /// leaves outside the weak and snapshot tiers, so a block found deferred
    /// or DEAD-but-weak is corrupt.
    pub fn count(&mut self, c: &Census) {
        self.free_nodes = c.free_nodes;
        self.parked_gifts = c.parked_gifts;
        self.magazine_nodes = c.magazine_nodes;
        self.live_nodes = c.live_nodes;
        self.corrupt_nodes = c.corrupt_nodes + c.deferred_nodes + c.weak_nodes;
        self.alloc_need = c.alloc_need;
    }

    /// True when no block is live or corrupt and all are accounted for.
    pub fn is_clean(&self) -> bool {
        self.live_nodes == 0
            && self.corrupt_nodes == 0
            && self.alloc_need == 0
            && self.free_nodes + self.parked_gifts + self.magazine_nodes == self.capacity
    }
}

/// Object-safe operations of one byte class, erasing both the
/// `ByteClass<N, S>` monomorphization and the scheme, so a domain holds one
/// heterogeneous class list whatever its scheme.
pub(crate) trait ByteClassOps: Send + Sync {
    /// Block size in bytes.
    fn block_size(&self) -> usize;
    /// Current block capacity of the class arena.
    fn capacity(&self) -> usize;
    /// Resident segments of the class arena.
    fn segment_count(&self) -> usize;
    /// Allocates one block (stale contents), returning the erased node
    /// pointer. Brackets the class epoch of `tid`.
    ///
    /// # Safety
    /// `tid` must be the caller's registered slot.
    unsafe fn alloc(&self, tid: usize, c: &OpCounters) -> Result<*mut u8, OutOfMemory>;
    /// Address of the block's payload bytes.
    fn data_ptr(&self, node: *mut u8) -> *mut u8;
    /// Frees a block previously returned by [`ByteClassOps::alloc`].
    ///
    /// # Safety
    /// `node` must be an unfreed allocation of **this** class, and `tid`
    /// must be the caller's registered slot.
    unsafe fn free(&self, tid: usize, c: &OpCounters, node: *mut u8);
    /// Runs the online retire protocol on the class arena. `is_taken` is
    /// the domain's registry probe (class epochs, domain-wide slots).
    ///
    /// # Safety
    /// `tid` must be the caller's registered slot.
    unsafe fn reclaim(
        &self,
        tid: usize,
        c: &OpCounters,
        is_taken: &dyn Fn(usize) -> bool,
    ) -> ReclaimOutcome;
    /// Stop-the-world retire of the class arena's trailing segment.
    fn reclaim_quiescent(&mut self) -> bool;
    /// A fresh registration claimed slot `tid`.
    fn slot_registered(&self, tid: usize);
    /// Orphan-slot recovery for this class ([`Pool::adopt_slot`]). Returns
    /// the number of blocks returned to circulation.
    ///
    /// # Safety
    /// The caller must have claimed the corpse's slot `tid`.
    unsafe fn adopt_slot(&self, tid: usize, c: &OpCounters) -> usize;
    /// Drains slot `tid`'s class magazine back to the shared structure.
    ///
    /// # Safety
    /// `tid` must be the caller's registered slot.
    unsafe fn drain_magazine(&self, tid: usize, c: &OpCounters);
    /// Quiescent audit of the class.
    fn leak(&self) -> ClassLeak;
    /// Installs the domain's tuning into the class pool.
    fn set_tuning(&mut self, tuning: &Tuning);
}

/// One byte class: a complete pool of scheme `S` over page-carved
/// `RawBuf<N>` blocks. All the pool's machinery (free structure, magazines,
/// grow, retire) is reused verbatim; blocks are leaves holding exactly one
/// reference, so `alloc_node` / `release_ref` are the whole allocation
/// protocol and the class adds only the block geometry.
struct ByteClass<const N: usize, S: Scheme> {
    pool: S::Pool<RawBuf<N>>,
}

impl<const N: usize, S: Scheme> ByteClass<N, S> {
    /// `cfg.capacity` and the growth ceiling rounded up to whole carve
    /// pages, zeroed blocks.
    fn new(cfg: &ClassConfig, n: usize, tuning: &Tuning) -> Self {
        assert!(cfg.capacity > 0, "class capacity must be positive");
        let capacity = page_carved::<RawBuf<N>>(cfg.capacity);
        let growth = match cfg.growth {
            Growth::Disabled => Growth::Disabled,
            Growth::Enabled {
                factor,
                max_capacity,
            } => Growth::Enabled {
                factor,
                max_capacity: page_carved::<RawBuf<N>>(max_capacity.max(capacity)),
            },
        };
        let arena = Arena::with_growth_carved(capacity, growth, |_| RawBuf::default());
        let mut class = Self {
            pool: S::Pool::new(arena, n, cfg.magazine),
        };
        class.set_tuning(tuning);
        class
    }

    /// Runs `f` as one leaf operation of slot `tid` in this class's own
    /// quiescence bracket (never nested: blocks are leaves).
    #[inline]
    fn bracketed<R>(&self, tid: usize, f: impl FnOnce() -> R) -> R {
        let depth = Cell::new(0);
        let _op = OpGuard::enter(&self.pool, tid, &depth);
        f()
    }
}

impl<const N: usize, S: Scheme> ByteClassOps for ByteClass<N, S> {
    fn block_size(&self) -> usize {
        N
    }

    fn capacity(&self) -> usize {
        self.pool.arena().capacity()
    }

    fn segment_count(&self) -> usize {
        self.pool.arena().segment_count()
    }

    unsafe fn alloc(&self, tid: usize, c: &OpCounters) -> Result<*mut u8, OutOfMemory> {
        // SAFETY: forwarded contract.
        let node = self.bracketed(tid, || unsafe { self.pool.alloc_node(tid, c) })?;
        Ok(node as *mut u8)
    }

    fn data_ptr(&self, node: *mut u8) -> *mut u8 {
        let node = node as *mut Node<RawBuf<N>>;
        // SAFETY: per the alloc/free contracts the node is a live block of
        // this class, so forming `&Node` is sound; `payload_ptr` yields the
        // buffer address without a payload reference (RawBuf is
        // repr(transparent), so the payload address is the data address).
        unsafe { (*node).payload_ptr() as *mut u8 }
    }

    unsafe fn free(&self, tid: usize, c: &OpCounters, node: *mut u8) {
        // A block allocation owns exactly one reference (mm_ref == 2);
        // releasing it claims the block and frees it. Blocks are leaves, so
        // the release never recurses.
        // SAFETY: forwarded contract.
        self.bracketed(tid, || unsafe {
            self.pool.release_ref(tid, c, node as *mut Node<RawBuf<N>>)
        });
    }

    unsafe fn reclaim(
        &self,
        tid: usize,
        c: &OpCounters,
        is_taken: &dyn Fn(usize) -> bool,
    ) -> ReclaimOutcome {
        // Not bracketed, exactly like the node pool's reclaim: the grace
        // period must observe the caller itself as quiescent.
        // SAFETY: forwarded contract.
        unsafe { self.pool.reclaim(tid, c, is_taken) }
    }

    fn reclaim_quiescent(&mut self) -> bool {
        self.pool.reclaim_quiescent()
    }

    fn slot_registered(&self, tid: usize) {
        self.pool.slot_registered(tid);
    }

    unsafe fn adopt_slot(&self, tid: usize, c: &OpCounters) -> usize {
        // SAFETY: forwarded contract.
        unsafe { self.pool.adopt_slot(tid, c) }.nodes_recovered()
    }

    unsafe fn drain_magazine(&self, tid: usize, c: &OpCounters) {
        // SAFETY: forwarded contract.
        self.bracketed(tid, || unsafe { self.pool.drain_magazine(tid, c) });
    }

    fn leak(&self) -> ClassLeak {
        let arena = self.pool.arena();
        let mut report = ClassLeak {
            size: N,
            capacity: arena.capacity(),
            segments: arena.segment_count(),
            segments_retired: arena.segments_retired(),
            ..ClassLeak::default()
        };
        report.count(&self.pool.census());
        report
    }

    fn set_tuning(&mut self, tuning: &Tuning) {
        *self.pool.tuning_mut() = tuning.clone();
    }
}

/// Monomorphization dispatch: size → `ByteClass<N, S>` behind the
/// object-safe trait. Panics on a size outside [`CLASS_SIZES`] (a
/// configuration error, caught at domain construction).
pub(crate) fn build_class<S: Scheme>(
    cfg: &ClassConfig,
    n: usize,
    tuning: &Tuning,
) -> Box<dyn ByteClassOps> {
    match cfg.size {
        64 => Box::new(ByteClass::<64, S>::new(cfg, n, tuning)),
        128 => Box::new(ByteClass::<128, S>::new(cfg, n, tuning)),
        256 => Box::new(ByteClass::<256, S>::new(cfg, n, tuning)),
        512 => Box::new(ByteClass::<512, S>::new(cfg, n, tuning)),
        1024 => Box::new(ByteClass::<1024, S>::new(cfg, n, tuning)),
        2048 => Box::new(ByteClass::<2048, S>::new(cfg, n, tuning)),
        4096 => Box::new(ByteClass::<4096, S>::new(cfg, n, tuning)),
        other => panic!("unsupported class size {other} (supported: {CLASS_SIZES:?})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Wf;

    #[test]
    fn ladder_covers_the_documented_sizes() {
        let ladder = geometric_ladder(32);
        assert_eq!(ladder.len(), CLASS_SIZES.len());
        for (cfg, &size) in ladder.iter().zip(CLASS_SIZES.iter()) {
            assert_eq!(cfg.size, size);
            assert_eq!(cfg.capacity, 32);
        }
    }

    #[test]
    fn capacity_is_page_rounded() {
        let cls = build_class::<Wf>(&ClassConfig::new(64, 1), 1, &Tuning::default());
        // Node<RawBuf<64>> is 80 B -> 51 per 4 KiB page.
        let per_page = 4096 / (64 + 16);
        assert_eq!(cls.capacity(), per_page);
        assert!(cls.leak().is_clean());
    }

    #[test]
    #[should_panic(expected = "unsupported class size")]
    fn odd_sizes_are_rejected() {
        let _ = build_class::<Wf>(&ClassConfig::new(100, 8), 1, &Tuning::default());
    }

    #[test]
    fn alloc_free_roundtrip_and_audit() {
        let cls = build_class::<Wf>(&ClassConfig::new(256, 8), 1, &Tuning::default());
        let c = OpCounters::new();
        // SAFETY: no domain, so slot 0 is trivially ours.
        let (a, b) = unsafe { (cls.alloc(0, &c).unwrap(), cls.alloc(0, &c).unwrap()) };
        assert_ne!(a, b);
        let mid = cls.leak();
        assert_eq!(mid.live_nodes, 2);
        assert!(!mid.is_clean());
        // SAFETY: both are unfreed allocations of this class.
        unsafe {
            cls.free(0, &c, a);
            cls.free(0, &c, b);
        }
        assert!(cls.leak().is_clean(), "{:?}", cls.leak());
    }
}
