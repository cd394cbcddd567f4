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
//! The public surface is on [`crate::ThreadHandle`]: `alloc_bytes` /
//! `free_bytes` / `bytes` for raw buffers (returning a [`RawBytes`]
//! token), and `alloc_box` for typed values ([`crate::DomainBox`]).

use crate::announce::Announce;
use crate::arena::{page_carved, Arena, Growth};
use crate::counters::OpCounters;
use crate::domain::{Census, Shared};
use crate::freelist::FreeLists;
use crate::link::Link;
use crate::magazine::{clamped_cap, Magazines};
use crate::node::{Node, RcObject};
use crate::oom::{alloc_retry_bound, OutOfMemory};
use crate::reclaim::{try_reclaim_shared, ReclaimOutcome, ReclaimPolicy};

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
/// registered [`crate::ThreadHandle`] of the owning domain (`bytes`,
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

    /// The type-erased node address. Support API for alternative-scheme
    /// baselines (`wfrc-baselines`) that mirror the byte-class layer;
    /// user code has no use for it — all access goes through
    /// [`crate::ThreadHandle::bytes`].
    #[inline]
    pub fn node_ptr(&self) -> *mut u8 {
        self.node
    }

    /// Builds a token from raw parts — the constructor counterpart of
    /// [`RawBytes::node_ptr`], for baselines implementing their own
    /// `alloc_bytes`. The parts must describe a block actually allocated
    /// from class `class` (misuse surfaces as corruption in the audits).
    #[inline]
    pub fn from_raw_parts(class: usize, len: usize, node: *mut u8) -> Self {
        Self::new(class, len, node)
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
    /// Reclamation budgets for the class arena.
    pub reclaim: ReclaimPolicy,
}

impl ClassConfig {
    /// Standard configuration for one class.
    pub fn new(size: usize, capacity: usize) -> Self {
        Self {
            size,
            capacity,
            growth: Growth::Disabled,
            magazine: 0,
            reclaim: ReclaimPolicy::default(),
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

    /// Tunes the class reclamation budgets.
    pub fn with_reclaim(mut self, policy: ReclaimPolicy) -> Self {
        self.reclaim = policy;
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
    /// Blocks currently allocated (live token or `DomainBox`).
    pub live_nodes: usize,
    /// Blocks in a state the quiescent invariants forbid.
    pub corrupt_nodes: usize,
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
    }

    /// True when no block is live or corrupt and all are accounted for.
    pub fn is_clean(&self) -> bool {
        self.live_nodes == 0
            && self.corrupt_nodes == 0
            && self.free_nodes + self.parked_gifts + self.magazine_nodes == self.capacity
    }
}

/// Object-safe operations of one byte class, erasing the `ByteClass<N>`
/// monomorphization so the domain can hold a heterogeneous class list.
pub(crate) trait ByteClassOps: Send + Sync {
    /// Block size in bytes.
    fn block_size(&self) -> usize;
    /// Current block capacity of the class arena.
    fn capacity(&self) -> usize;
    /// Resident segments of the class arena.
    fn segment_count(&self) -> usize;
    /// Allocates one block (stale contents), returning the erased node
    /// pointer. Brackets the class epoch of `tid`.
    fn alloc(&self, tid: usize, c: &OpCounters) -> Result<*mut u8, OutOfMemory>;
    /// Address of the block's payload bytes.
    fn data_ptr(&self, node: *mut u8) -> *mut u8;
    /// Frees a block previously returned by [`ByteClassOps::alloc`].
    ///
    /// # Safety
    /// `node` must be an unfreed allocation of **this** class, and `tid`
    /// must be the caller's registered slot.
    unsafe fn free(&self, tid: usize, c: &OpCounters, node: *mut u8);
    /// Runs the retire protocol on the class arena. `is_taken` is the
    /// domain's registry probe (class epochs, domain-wide slots).
    fn reclaim(
        &self,
        tid: usize,
        c: &OpCounters,
        is_taken: &dyn Fn(usize) -> bool,
    ) -> ReclaimOutcome;
    /// Resets slot `tid`'s class epoch to quiescent (fresh registration).
    fn reset_epoch(&self, tid: usize);
    /// Orphan-slot recovery for this class: reopen a retire the corpse
    /// held, reset its epoch, collect its gift, drain its magazine.
    /// Returns the number of blocks returned to circulation.
    fn adopt_slot(&self, tid: usize, c: &OpCounters) -> usize;
    /// Drains slot `tid`'s class magazine back to the shared stripes.
    fn drain_magazine(&self, tid: usize, c: &OpCounters);
    /// Quiescent audit of the class.
    fn leak(&self) -> ClassLeak;
    /// Installs the domain's fault schedule into the class pipeline.
    #[cfg(feature = "fault-injection")]
    fn set_fault_plan(&mut self, plan: std::sync::Arc<crate::fault::FaultPlan>);
}

/// One byte class: a complete `Shared` pipeline over `RawBuf<N>` blocks.
/// All the Figure-5 machinery (striped free-lists, gifting, magazines,
/// grow, retire) is reused verbatim; only the announcement matrix sits
/// idle (blocks are never published through links).
struct ByteClass<const N: usize> {
    shared: Shared<RawBuf<N>>,
}

/// The arena of one `N`-byte class: `cfg.capacity` and the growth ceiling
/// rounded up to whole carve pages, zeroed blocks. Support API for the
/// baselines in `wfrc-baselines`, whose class pools share this geometry.
///
/// # Panics
/// If `cfg.capacity` is 0.
pub fn class_arena<const N: usize>(cfg: &ClassConfig) -> Arena<RawBuf<N>> {
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
    Arena::with_growth_carved(capacity, growth, |_| RawBuf::default())
}

impl<const N: usize> ByteClass<N> {
    fn new(cfg: &ClassConfig, n: usize) -> Self {
        let arena = class_arena::<N>(cfg);
        let capacity = arena.capacity();
        let fl = FreeLists::new(n);
        fl.seed(&arena);
        let shared = Shared {
            mag: Magazines::new(n, clamped_cap(cfg.magazine, capacity, n)),
            arena,
            ann: Announce::new(n),
            fl,
            n,
            // Footnote 4, per class: each class races only its own lists.
            oom_bound: alloc_retry_bound(n),
            reclaim: crate::reclaim::ReclaimCtl::new(n, cfg.reclaim),
            #[cfg(feature = "fault-injection")]
            faults: None,
        };
        Self { shared }
    }
}

impl<const N: usize> ByteClassOps for ByteClass<N> {
    fn block_size(&self) -> usize {
        N
    }

    fn capacity(&self) -> usize {
        self.shared.arena.capacity()
    }

    fn segment_count(&self) -> usize {
        self.shared.arena.segment_count()
    }

    fn alloc(&self, tid: usize, c: &OpCounters) -> Result<*mut u8, OutOfMemory> {
        let _op = self.shared.reclaim.epoch(tid).bracket();
        let node = self.shared.alloc_node(tid, c)?;
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
        let _op = self.shared.reclaim.epoch(tid).bracket();
        // A block allocation owns exactly one reference (mm_ref == 2);
        // releasing it claims the block and free-lists it. Blocks are
        // leaves, so the release never recurses.
        self.shared
            .release_ref(tid, c, node as *mut Node<RawBuf<N>>);
    }

    fn reclaim(
        &self,
        tid: usize,
        c: &OpCounters,
        is_taken: &dyn Fn(usize) -> bool,
    ) -> ReclaimOutcome {
        // Not epoch-bracketed, exactly like the node pool's reclaim: the
        // grace period must observe the caller itself as quiescent.
        try_reclaim_shared(&self.shared, tid, c, is_taken)
    }

    fn reset_epoch(&self, tid: usize) {
        self.shared.reclaim.epoch(tid).reset();
    }

    fn adopt_slot(&self, tid: usize, c: &OpCounters) -> usize {
        let s = &self.shared;
        s.adopt_reclaim_state(tid, c);
        // Announcements are never used on byte classes, so the slot's
        // row is necessarily empty; only the gift cell and the magazine
        // can hold blocks.
        // SAFETY: slot ownership claimed by the adopter.
        let recovered = s.adopt_gift(tid, c) + unsafe { s.mag.len(tid) };
        s.drain_magazine(tid, c);
        recovered
    }

    fn drain_magazine(&self, tid: usize, c: &OpCounters) {
        let _op = self.shared.reclaim.epoch(tid).bracket();
        self.shared.drain_magazine(tid, c);
    }

    fn leak(&self) -> ClassLeak {
        let s = &self.shared;
        let mut report = ClassLeak {
            size: N,
            capacity: s.arena.capacity(),
            segments: s.arena.segment_count(),
            segments_retired: s.arena.segments_retired(),
            ..ClassLeak::default()
        };
        report.count(&s.census());
        report
    }

    #[cfg(feature = "fault-injection")]
    fn set_fault_plan(&mut self, plan: std::sync::Arc<crate::fault::FaultPlan>) {
        self.shared.faults = Some(plan);
    }
}

/// Monomorphization dispatch: size → `ByteClass<N>` behind the object-safe
/// trait. Panics on a size outside [`CLASS_SIZES`] (a configuration error,
/// caught at domain construction).
pub(crate) fn build_class(cfg: &ClassConfig, n: usize) -> Box<dyn ByteClassOps> {
    match cfg.size {
        64 => Box::new(ByteClass::<64>::new(cfg, n)),
        128 => Box::new(ByteClass::<128>::new(cfg, n)),
        256 => Box::new(ByteClass::<256>::new(cfg, n)),
        512 => Box::new(ByteClass::<512>::new(cfg, n)),
        1024 => Box::new(ByteClass::<1024>::new(cfg, n)),
        2048 => Box::new(ByteClass::<2048>::new(cfg, n)),
        4096 => Box::new(ByteClass::<4096>::new(cfg, n)),
        other => panic!("unsupported class size {other} (supported: {CLASS_SIZES:?})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let cls = build_class(&ClassConfig::new(64, 1), 1);
        // Node<RawBuf<64>> is 80 B -> 51 per 4 KiB page.
        let per_page = 4096 / (64 + 16);
        assert_eq!(cls.capacity(), per_page);
        assert!(cls.leak().is_clean());
    }

    #[test]
    #[should_panic(expected = "unsupported class size")]
    fn odd_sizes_are_rejected() {
        let _ = build_class(&ClassConfig::new(100, 8), 1);
    }

    #[test]
    fn alloc_free_roundtrip_and_audit() {
        let cls = build_class(&ClassConfig::new(256, 8), 1);
        let c = OpCounters::new();
        let a = cls.alloc(0, &c).unwrap();
        let b = cls.alloc(0, &c).unwrap();
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
