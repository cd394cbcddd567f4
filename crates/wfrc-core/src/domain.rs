//! The memory-management domain: a registration table over one node pool
//! and a list of byte-class pools, under one [`Scheme`].
//!
//! A [`Domain`] is the unit of isolation: all links, nodes and handles
//! belong to exactly one domain, and the wait-freedom bounds are stated in
//! terms of its `max_threads`. It is written once over the
//! [`crate::scheme`] seam; [`WfrcDomain`] is the paper's instantiation,
//! whose pool ([`Shared`]) is one arena + one instance of every global
//! structure from Figures 4 and 5. The node pool is sized at construction
//! and — when the [`Growth`] policy allows — grows wait-free at runtime by
//! appending arena segments (see [`crate::arena`]); with
//! [`Growth::Disabled`] the pool is exactly the paper's model: fixed-size
//! blocks from a pre-seeded free-list, out-of-memory terminal.

use core::cell::Cell;
use core::sync::atomic::Ordering;

use wfrc_primitives::AtomicWord;

use crate::announce::Announce;
use crate::arena::{Arena, Growth};
use crate::class::{build_class, ByteClassOps, ClassConfig, ClassLeak, MAX_CLASSES};
use crate::counters::OpCounters;
use crate::freelist::FreeLists;
use crate::handle::Handle;
use crate::link::Link;
use crate::magazine::{clamped_cap, Magazines};
use crate::node::{Node, RcObject};
use crate::oom::{alloc_retry_bound, OutOfMemory};
use crate::reclaim::{ReclaimCtl, ReclaimOutcome, SnapStats};
use crate::scheme::{Pool, Scheme, Tuning, Wf};
use crate::MAX_THREADS;

/// The wait-free scheme's pool: one arena plus one instance of every global
/// structure of Figures 4 and 5, bundled so `rc.rs` and `freelist.rs` can
/// implement the figures as methods. The node pool of a [`WfrcDomain`] is
/// one; so is each of its byte classes.
pub struct Shared<T> {
    pub(crate) arena: Arena<T>,
    pub(crate) ann: Announce,
    pub(crate) fl: FreeLists<T>,
    /// Per-thread allocation magazines (see [`crate::magazine`]).
    pub(crate) mag: Magazines<T>,
    /// `NR_THREADS`.
    pub(crate) n: usize,
    /// Footnote-4 retry bound for `AllocNode`.
    pub(crate) oom_bound: usize,
    /// Segment-reclamation state: retire claim, parking chain, and the
    /// per-slot operation epochs (see [`crate::reclaim`]).
    pub(crate) reclaim: ReclaimCtl<T>,
    /// The arena can hold a segment that retires: its growth policy is not
    /// [`Growth::Disabled`] (a fixed arena is slot 0 alone, which never
    /// retires). Fixed at construction; it decides which epoch enter the
    /// pool's operations pay (`reclaim::SlotEpoch`).
    pub(crate) can_retire: bool,
    /// The owning domain's tuning (the fault schedule, when one is
    /// installed).
    pub(crate) tuning: Tuning,
}

/// The wait-free pool: every inherent operation of [`Shared`] (Figures 4–5
/// in `rc.rs` / `freelist.rs`, magazines, the retire protocol and the
/// deferred lists in `reclaim.rs`) behind the seam, hooks included.
// SAFETY: the paper's §4 (linearizability Lemmas 2–5, wait-freedom Lemmas
// 6–10) proves the guarantees for Figures 4–5 as `Shared` implements them.
unsafe impl<T: RcObject> Pool<T> for Shared<T> {
    /// Seeds every node of `arena` onto the striped free-lists.
    fn new(arena: Arena<T>, n: usize, magazine: usize) -> Self {
        let fl = FreeLists::new(n);
        fl.seed(&arena);
        Self {
            can_retire: arena.growth() != Growth::Disabled,
            mag: Magazines::new(n, clamped_cap(magazine, arena.capacity(), n)),
            arena,
            ann: Announce::new(n),
            fl,
            n,
            // Footnote 4, per pool: each pool races only its own lists.
            oom_bound: alloc_retry_bound(n),
            reclaim: ReclaimCtl::new(n),
            tuning: Tuning::default(),
        }
    }

    fn arena(&self) -> &Arena<T> {
        &self.arena
    }

    fn magazines(&self) -> &Magazines<T> {
        &self.mag
    }

    fn tuning(&self) -> &Tuning {
        &self.tuning
    }

    fn tuning_mut(&mut self) -> &mut Tuning {
        &mut self.tuning
    }

    #[inline]
    unsafe fn alloc_node(&self, tid: usize, c: &OpCounters) -> Result<*mut Node<T>, OutOfMemory> {
        Shared::alloc_node(self, tid, c)
    }

    #[inline]
    unsafe fn deref_link(&self, tid: usize, c: &OpCounters, link: &Link<T>) -> *mut Node<T> {
        Shared::deref_link(self, tid, c, link)
    }

    #[inline]
    unsafe fn free_finalized(&self, tid: usize, c: &OpCounters, node: *mut Node<T>) {
        // SAFETY: the caller hands over a claimed node, exclusively its own.
        debug_assert!(
            unsafe { (*node).links_are_null() },
            "link stored into a freed node"
        );
        self.defer_or_free(tid, c, node);
    }

    unsafe fn drain_magazine(&self, tid: usize, c: &OpCounters) {
        Shared::drain_magazine(self, tid, c);
    }

    /// Adoption (node pool and every class alike). A crashed (or abandoned)
    /// thread leaves behind (r) possibly a segment-retire claim and an odd
    /// epoch or a published pin; (a) possibly-live announcement slots —
    /// including a helper's answer installed *after* the death, which
    /// carries a transferred reference count; (b) a node parked in its
    /// `annAlloc` gift slot; (c) its deferred-decrement backlog and its
    /// allocation magazine. All of it is released through the ordinary
    /// protocol operations. The caller owns the corpse's slot.
    unsafe fn adopt_slot(&self, tid: usize, c: &OpCounters) -> AdoptReport {
        let mut report = AdoptReport::default();
        // (r) Reopen a retire the corpse held (the `SegmentRetire` fault
        // site): parked nodes return to the stripes, the claim clears, and
        // a later attempt can redo the retire cleanly. Then make the slot
        // quiescent: it may have died inside an operation with an odd epoch
        // — or holding a snapshot pin. Retracting the pin bit first means
        // the deferred drain below can free wholesale if this was the last
        // pin in the domain.
        if self.reclaim.claimed_by(tid) {
            self.reopen_reclaim(tid, c);
        }
        self.reclaim.epoch(tid).reset();
        self.reclaim.unpin(tid);
        // (a) Retract every announcement slot. A live link-address word
        // holds no count (the victim died before D5, or its speculative
        // count was its own and died with its guards); an odd word is a
        // helper's answer whose transferred count we now own.
        for idx in 0..self.n {
            let word = self.ann.retract(tid, idx);
            if word & 1 == 1 {
                let node = (word & !1) as *mut Node<T>;
                self.release_ref(tid, c, node);
                report.announce_refs_released += 1;
            }
        }
        // A corpse that ever dereferenced left its presence bit up (it is
        // lowered only at handle drop, which a death skips). With every
        // slot retracted above, the row is empty and the bit can be lowered
        // (never before: helpers would skip a still-live announcement).
        self.ann.clear_summary(tid);
        // A corpse that died in `AllocNode`'s slow path left its need bit
        // up. Lowered before the gift is collected; a helper that read the
        // bit before this may still park one gift after the collection
        // below, which waits in the cell (a parked gift, not a leak) for
        // the slot's next owner.
        self.fl.need.lower(tid);
        // (b) Collect a parked gift: `mm_ref` 3 → 2 (the A4 FixRef), then
        // the reference just taken over is released.
        let gift = self.fl.take_gift(tid);
        if !gift.is_null() {
            // The node left a counted gift cell (see `crate::reclaim`).
            self.arena.occupancy_dec(gift);
            // SAFETY: the gift was parked for `tid`, whose slot the adopter
            // exclusively owns.
            unsafe { (*gift).faa_ref(-1) };
            self.release_ref(tid, c, gift);
            report.gifts_recovered += 1;
        }
        // (c) Count the corpse's magazine before the deferred drain below
        // can park freed nodes into it (each node is reported under exactly
        // one category), then free the deferred-decrement backlog (a death
        // mid-upgrade or mid-release batches frees it never got to drain),
        // then drain the magazine: the releases above and the deferred
        // frees may park nodes in it, and the drain returns everything to
        // the stripes.
        // SAFETY: slot ownership claimed by the adopter.
        report.magazine_nodes_recovered += unsafe { self.mag.len(tid) };
        report.deferred_nodes_recovered += self.try_drain_deferred(tid, tid, c);
        self.drain_magazine(tid, c);
        report
    }

    /// Quiescent audit of this pool (node pool or byte class): [`census`]
    /// over its arena, gift cells, magazines and deferred lists.
    fn census(&self) -> Census {
        let gifts = (0..self.n)
            .map(|t| self.fl.gift_for(t) as usize)
            .filter(|p| *p != 0)
            .collect();
        let mut deferred = std::collections::HashSet::new();
        self.reclaim.for_each_deferred(|p| {
            deferred.insert(p as usize);
        });
        Census {
            alloc_need: self.fl.need.count(),
            ..census(self.arena.iter(), &gifts, &self.mag.parked(), &deferred)
        }
    }

    #[inline]
    unsafe fn help_deref(&self, tid: usize, c: &OpCounters, link: &Link<T>) {
        Shared::help_deref(self, tid, c, link);
    }

    /// The shared epoch (the convention lives in
    /// `reclaim::SlotEpoch`) flips odd/even only at the 0↔1
    /// transitions of `depth`, so re-entrancy — a user closure inside
    /// `alloc_with` dropping a `NodeRef` — stays one logical operation.
    /// The enter is fenced only where a grace period can read it
    /// (`Shared::can_retire`).
    #[inline]
    fn op_enter(&self, tid: usize, depth: &Cell<usize>) {
        let d = depth.get();
        depth.set(d + 1);
        if d == 0 {
            self.reclaim.epoch(tid).enter(self.can_retire);
        }
    }

    #[inline]
    fn op_exit(&self, tid: usize, depth: &Cell<usize>) {
        let d = depth.get() - 1;
        depth.set(d);
        if d == 0 {
            self.reclaim.epoch(tid).exit();
        }
    }

    #[inline]
    fn pin(&self, tid: usize) {
        self.reclaim.pin(tid);
    }

    #[inline]
    fn unpin(&self, tid: usize) {
        self.reclaim.unpin(tid);
    }

    unsafe fn drain_deferred(&self, tid: usize, c: &OpCounters) -> usize {
        self.try_drain_deferred(tid, tid, c)
    }

    /// A fresh owner starts quiescent: reset the slot's operation epoch so
    /// a reclaimer never waits on a dead owner's parity, and retract any
    /// pin bit (DESIGN.md §4f) or `alloc_need` bit a previous owner left
    /// up.
    fn slot_registered(&self, tid: usize) {
        self.reclaim.epoch(tid).reset();
        self.reclaim.unpin(tid);
        self.fl.need.lower(tid);
    }

    /// Lowers the announcement-presence bit this registration may have
    /// raised: no operation of the slot is in flight, so its row is empty,
    /// and from here on writers stop reading it (`announce.rs`).
    fn slot_retired(&self, tid: usize) {
        self.ann.clear_summary(tid);
    }

    unsafe fn reclaim(
        &self,
        tid: usize,
        c: &OpCounters,
        is_taken: &dyn Fn(usize) -> bool,
    ) -> ReclaimOutcome {
        crate::reclaim::try_reclaim(self, tid, c, is_taken)
    }
}

/// Configuration for a [`Domain`].
#[derive(Debug, Clone)]
pub struct DomainConfig {
    /// `NR_THREADS`: maximum simultaneously registered threads.
    pub max_threads: usize,
    /// Initial node pool size (the total pool size when `growth` is
    /// [`Growth::Disabled`]).
    pub capacity: usize,
    /// Arena growth policy. Defaults to [`Growth::Disabled`] — the exact
    /// fixed-pool semantics of the paper.
    pub growth: Growth,
    /// Requested per-thread magazine capacity (see [`crate::magazine`]).
    /// 0 (the default) disables the layer; the effective value is clamped
    /// by [`clamped_cap`] so full magazines can never park the whole pool.
    pub magazine: usize,
    /// Byte classes of the domain (see [`crate::class`]); empty (the
    /// default) builds the classic single-shape domain with zero overhead
    /// on the node paths. At most [`MAX_CLASSES`] entries.
    pub classes: Vec<ClassConfig>,
}

impl DomainConfig {
    /// The conventional per-thread magazine capacity for
    /// [`DomainConfig::with_magazine`] (clamped down on small pools).
    pub const DEFAULT_MAGAZINE: usize = 64;

    /// Standard configuration.
    pub fn new(max_threads: usize, capacity: usize) -> Self {
        Self {
            max_threads,
            capacity,
            growth: Growth::Disabled,
            magazine: 0,
            classes: Vec::new(),
        }
    }

    /// Enables per-thread allocation magazines of (at most) `cap` nodes.
    ///
    /// The effective capacity is `clamped_cap(cap, capacity, max_threads)`
    /// — strictly below `capacity / max_threads` — so that even with every
    /// magazine full, the shared free-lists keep at least one node in
    /// circulation (no spurious out-of-memory; see [`crate::magazine`]).
    pub fn with_magazine(mut self, cap: usize) -> Self {
        self.magazine = cap;
        self
    }

    /// Sets the arena growth policy (`capacity` becomes the *initial*
    /// capacity; see [`Growth::Enabled`] for the ceiling and factor).
    pub fn with_growth(mut self, growth: Growth) -> Self {
        self.growth = growth;
        self
    }

    /// Replaces the byte-class list (see [`crate::class::ClassConfig`]
    /// and [`crate::class::geometric_ladder`]).
    pub fn with_classes(mut self, classes: Vec<ClassConfig>) -> Self {
        self.classes = classes;
        self
    }

    /// Appends one byte class.
    pub fn with_class(mut self, class: ClassConfig) -> Self {
        self.classes.push(class);
        self
    }
}

/// Registration-slot / telemetry word, padded to a cache line so that
/// register/unregister churn on one thread id (and the adoption telemetry
/// FAAs) never false-shares with a neighbouring slot.
type SlotWord = wfrc_primitives::CachePadded<AtomicWord>;

fn new_slot_word(v: usize) -> SlotWord {
    wfrc_primitives::CachePadded::new(AtomicWord::new(v))
}

/// A reference-counted memory management domain over payloads `T`, managed
/// by scheme `S`: the registration table, the adoption loop, the byte-class
/// list and the leak audit, written once over the [`Pool`] seam.
///
/// See the [crate docs](crate) for the usage model, and [`Handle`] for the
/// per-thread operations.
pub struct Domain<T: RcObject, S: Scheme = Wf> {
    pool: S::Pool<T>,
    /// Byte classes (see [`crate::class`]): independent pools over untyped
    /// blocks, in configuration order. Empty for the classic single-shape
    /// domain.
    classes: Box<[Box<dyn ByteClassOps>]>,
    /// Registration state, one word per thread id: [`SLOT_FREE`],
    /// [`SLOT_TAKEN`], or [`SLOT_ORPHANED`].
    slots: Box<[SlotWord]>,
    /// Cumulative [`Domain::adopt_orphans`] telemetry.
    orphans_adopted: SlotWord,
    orphan_nodes_recovered: SlotWord,
    /// Domain-lifetime snapshot/weak-path telemetry, folded from dropped
    /// handles and surfaced in [`Domain::leak_check`].
    pub(crate) snap: SnapStats,
}

/// The paper's wait-free domain: [`Domain`] under the [`Wf`] scheme.
pub type WfrcDomain<T> = Domain<T, Wf>;

/// Slot states for the registration words.
pub(crate) const SLOT_FREE: usize = 0;
pub(crate) const SLOT_TAKEN: usize = 1;
/// The owning thread died (panicked with the handle live) or explicitly
/// abandoned the handle: the slot's announcement rows, `annAlloc` gift, and
/// magazine may still hold nodes. Recovered by
/// [`Domain::adopt_orphans`]; not registrable until then.
pub(crate) const SLOT_ORPHANED: usize = 2;

/// Error returned by [`Domain::register`] when all `max_threads` ids are
/// taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryFull;

impl core::fmt::Display for RegistryFull {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "all thread slots of the domain are registered")
    }
}

impl std::error::Error for RegistryFull {}

impl<T: RcObject + Default, S: Scheme> Domain<T, S> {
    /// Creates a domain whose node payloads start as `T::default()`.
    pub fn new(config: DomainConfig) -> Self {
        Self::with_init(config, |_| T::default())
    }
}

impl<T: RcObject, S: Scheme> Domain<T, S> {
    /// Creates a domain initializing payload `i` with `init(i)`.
    ///
    /// # Panics
    /// Panics if `max_threads` is 0 or exceeds [`MAX_THREADS`], if
    /// `capacity` is 0, or if `classes` is invalid (more than
    /// [`MAX_CLASSES`] entries, a size outside
    /// [`crate::class::CLASS_SIZES`], or a zero capacity).
    pub fn with_init(
        config: DomainConfig,
        init: impl Fn(usize) -> T + Send + Sync + 'static,
    ) -> Self {
        let n = config.max_threads;
        assert!(
            (1..=MAX_THREADS).contains(&n),
            "max_threads must be in 1..={MAX_THREADS}, got {n}"
        );
        let arena = Arena::with_growth(config.capacity, config.growth, init);
        let mut domain = Self {
            pool: S::Pool::new(arena, n, config.magazine),
            classes: Box::new([]),
            slots: (0..n).map(|_| new_slot_word(SLOT_FREE)).collect(),
            orphans_adopted: new_slot_word(0),
            orphan_nodes_recovered: new_slot_word(0),
            snap: SnapStats::default(),
        };
        domain.set_classes(config.classes);
        domain
    }

    /// Replaces the byte-class list (see [`DomainConfig::with_classes`]).
    /// Must happen before the domain is shared (`&mut self`).
    ///
    /// # Panics
    /// Like [`Domain::with_init`], on an invalid class list.
    pub fn set_classes(&mut self, classes: Vec<ClassConfig>) {
        assert!(
            classes.len() <= MAX_CLASSES,
            "at most {MAX_CLASSES} byte classes, got {}",
            classes.len()
        );
        let n = self.slots.len();
        self.classes = classes
            .iter()
            .map(|cfg| build_class::<S>(cfg, n, self.pool.tuning()))
            .collect();
    }

    /// Edits the domain's [`Tuning`] and copies it into every pool (node
    /// pool and byte classes). Must happen before the domain is shared.
    #[doc(hidden)]
    pub fn retune(&mut self, edit: impl FnOnce(&mut Tuning)) {
        edit(self.pool.tuning_mut());
        for class in self.classes.iter_mut() {
            class.set_tuning(self.pool.tuning());
        }
    }

    /// Installs a fault schedule (see [`crate::fault`]). Must happen before
    /// the domain is shared (`&mut self`). The plan is shared with every
    /// byte class, so class-pipeline sites (`GrowSeed`, `MagazineRefill`,
    /// …) fire there too.
    #[cfg(feature = "fault-injection")]
    pub fn set_fault_plan(&mut self, plan: std::sync::Arc<crate::fault::FaultPlan>) {
        self.retune(|t| t.faults = Some(plan));
    }

    /// Registers the calling context, claiming a thread id.
    ///
    /// The handle is `Send` but not `Sync`: a thread id must never be used
    /// from two threads at once (the paper's `threadId` is "unique and
    /// fixed"), and the `!Sync` bound enforces exactly that while still
    /// allowing a handle to migrate with a moved worker.
    ///
    /// Equivalent to [`Domain::try_register`]; both return
    /// [`RegistryFull`] without panicking when every slot is taken, so
    /// callers multiplexing more tasks than slots (see [`crate::lease`])
    /// can treat exhaustion as a recoverable condition.
    pub fn register(&self) -> Result<Handle<'_, T, S>, RegistryFull> {
        self.try_register()
    }

    /// Non-panicking registration: claims a free thread id, or reports
    /// [`RegistryFull`] if all `max_threads` ids are in use (taken or
    /// awaiting [`Domain::adopt_orphans`]).
    pub fn try_register(&self) -> Result<Handle<'_, T, S>, RegistryFull> {
        for (tid, slot) in self.slots.iter().enumerate() {
            // Relaxed pre-check: a pure scan hint, the CAS re-validates.
            // Acquire on success pairs with the Release in `unregister` /
            // `adopt_orphans` so the new owner sees the previous owner's
            // drained magazine and retracted announcement slots.
            if slot.load_with(Ordering::Relaxed) == SLOT_FREE
                && slot.cas_with(SLOT_FREE, SLOT_TAKEN, Ordering::Acquire, Ordering::Relaxed)
            {
                // A fresh owner starts quiescent in the node pool and in
                // every class.
                self.pool.slot_registered(tid);
                for class in self.classes.iter() {
                    class.slot_registered(tid);
                }
                return Ok(Handle::new(self, tid, OpCounters::new()));
            }
        }
        Err(RegistryFull)
    }

    pub(crate) fn unregister(&self, tid: usize) {
        // Release publishes the handle's teardown (magazine drain, slot
        // retractions) to whichever `register` re-claims this id.
        let was = self.slots[tid].swap_with(SLOT_FREE, Ordering::Release);
        debug_assert_eq!(was, SLOT_TAKEN, "double unregister of thread {tid}");
    }

    /// Marks `tid`'s slot orphaned instead of free: the thread died (or
    /// abandoned its handle) without draining, so the slot's resources must
    /// be recovered by [`Domain::adopt_orphans`] before reuse.
    pub(crate) fn orphan(&self, tid: usize) {
        // Release publishes the dying thread's last writes (its magazine
        // vector in particular is plain memory) to the adopter's Acquire
        // claim in `adopt_orphans`.
        let was = self.slots[tid].swap_with(SLOT_ORPHANED, Ordering::Release);
        debug_assert_eq!(was, SLOT_TAKEN, "orphaning an unregistered thread {tid}");
    }

    /// The node pool.
    #[doc(hidden)]
    pub fn pool(&self) -> &S::Pool<T> {
        &self.pool
    }

    /// The node pool, before the domain is shared.
    #[doc(hidden)]
    pub fn pool_mut(&mut self) -> &mut S::Pool<T> {
        &mut self.pool
    }

    pub(crate) fn classes(&self) -> &[Box<dyn ByteClassOps>] {
        &self.classes
    }

    /// Number of configured byte classes (0 for a classic domain).
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Block size in bytes of class `class`.
    ///
    /// # Panics
    /// Panics if `class >= class_count()`.
    pub fn class_block_size(&self, class: usize) -> usize {
        self.classes[class].block_size()
    }

    /// Current block capacity of class `class` (page-rounded; grows with
    /// the class arena).
    ///
    /// # Panics
    /// Panics if `class >= class_count()`.
    pub fn class_capacity(&self, class: usize) -> usize {
        self.classes[class].capacity()
    }

    /// Resident segments of class `class`.
    ///
    /// # Panics
    /// Panics if `class >= class_count()`.
    pub fn class_segments(&self, class: usize) -> usize {
        self.classes[class].segment_count()
    }

    /// True when slot `tid` is currently owned by a live registration.
    /// (Used by the reclaim grace period: only TAKEN slots can be inside an
    /// operation; FREE slots have no thread and ORPHANED slots are corpses.)
    pub(crate) fn slot_is_taken(&self, tid: usize) -> bool {
        self.slot_state(tid) == SLOT_TAKEN
    }

    /// `NR_THREADS` for this domain.
    pub fn max_threads(&self) -> usize {
        self.slots.len()
    }

    /// Total node pool size (current, including grown segments).
    pub fn capacity(&self) -> usize {
        self.pool.arena().capacity()
    }

    /// Number of arena segments currently published (1 until growth).
    pub fn segment_count(&self) -> usize {
        self.pool.arena().segment_count()
    }

    /// Number of arena segments currently resident (slab allocated) — the
    /// quantity the `--reclaim` experiments plot. Identical to
    /// [`Domain::segment_count`]: RETIRED slots are unpublished.
    pub fn resident_segments(&self) -> usize {
        self.pool.arena().segment_count()
    }

    /// Cumulative count of segments retired (slabs returned to the
    /// allocator) over the domain's lifetime.
    pub fn segments_retired(&self) -> usize {
        self.pool.arena().segments_retired()
    }

    /// Cumulative count of RETIRED slots revived by the growth path.
    pub fn segments_revived(&self) -> usize {
        self.pool.arena().segments_revived()
    }

    /// Number of currently registered threads.
    pub fn registered_threads(&self) -> usize {
        // Relaxed: a diagnostic snapshot with no synchronization role.
        self.slots
            .iter()
            .filter(|s| s.load_with(Ordering::Relaxed) == SLOT_TAKEN)
            .count()
    }

    /// Number of orphaned slots awaiting [`Domain::adopt_orphans`].
    pub fn orphaned_threads(&self) -> usize {
        // Relaxed: diagnostic only; `adopt_orphans` re-checks with a CAS.
        self.slots
            .iter()
            .filter(|s| s.load_with(Ordering::Relaxed) == SLOT_ORPHANED)
            .count()
    }

    /// Registration-slot state word for `tid` ([`Self::slot_is_taken`]).
    pub(crate) fn slot_state(&self, tid: usize) -> usize {
        // SeqCst: pairs with the registration/orphaning stores so the
        // grace period's probe never lags a completed transition.
        self.slots[tid].load_with(Ordering::SeqCst)
    }

    /// Cumulative count of orphan slots reclaimed by
    /// [`Domain::adopt_orphans`] over the domain's lifetime.
    pub fn orphans_adopted(&self) -> usize {
        // Relaxed: telemetry, no synchronization role.
        self.orphans_adopted.load_with(Ordering::Relaxed)
    }

    /// Cumulative count of nodes recovered from orphans (announcement-slot
    /// answers, parked `annAlloc` gifts, and magazine contents).
    pub fn orphan_nodes_recovered(&self) -> usize {
        // Relaxed: telemetry, no synchronization role.
        self.orphan_nodes_recovered.load_with(Ordering::Relaxed)
    }

    /// Reclaims every orphaned thread slot: whatever the scheme lets a
    /// crashed (or abandoned) thread leave behind — for the wait-free
    /// scheme announcement slots, a gift, deferred frees and a magazine,
    /// for a lock-free one its magazine — is recovered per pool
    /// ([`Pool::adopt_slot`]) through the ordinary protocol operations, and
    /// the slot reopens for [`Domain::register`].
    ///
    /// Safe to run concurrently with live threads (the adopter claims each
    /// orphan slot with a CAS, and a retracted announcement makes any
    /// still-pending helper answer CAS fail exactly as in the D6/H6 race),
    /// and safe to call twice — the second call finds nothing.
    ///
    /// The paper models threads as reliable; adoption is this
    /// reproduction's extension for fail-stop threads (DESIGN.md §7).
    ///
    /// Adoption runs injection-shielded (`crate::fault::shielded` when the
    /// `fault-injection` feature is on): it performs protocol
    /// operations under the *dead* thread's id, and the corpse's
    /// still-armed fault rules must not fire inside its own recovery.
    pub fn adopt_orphans(&self) -> AdoptReport {
        #[cfg(feature = "fault-injection")]
        return crate::fault::shielded(|| self.adopt_orphans_impl());
        #[cfg(not(feature = "fault-injection"))]
        self.adopt_orphans_impl()
    }

    fn adopt_orphans_impl(&self) -> AdoptReport {
        let mut report = AdoptReport::default();
        for (tid, slot) in self.slots.iter().enumerate() {
            // Relaxed pre-check: a sweep over a healthy domain reads every
            // slot word instead of taking each line exclusively with a CAS.
            // The CAS below re-checks and carries the synchronization.
            if slot.load_with(Ordering::Relaxed) != SLOT_ORPHANED {
                continue;
            }
            // Claim exclusivity over the corpse's slot: whoever wins this
            // CAS owns tid's announcement row, gift slot, and magazine.
            // Acquire pairs with the Release in `orphan` so the corpse's
            // plain-memory state (magazine vector) is visible here.
            if !slot.cas_with(
                SLOT_ORPHANED,
                SLOT_TAKEN,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                continue;
            }
            let c = OpCounters::new();
            // SAFETY: the CAS above made slot `tid` exclusively ours.
            report = report.merged(&unsafe { self.pool.adopt_slot(tid, &c) });
            // The same recovery per byte class.
            for class in self.classes.iter() {
                // SAFETY: as above.
                report.class_nodes_recovered += unsafe { class.adopt_slot(tid, &c) };
            }
            // Release reopens the slot, publishing the recovery to the
            // `register` that next claims this id.
            slot.store_with(SLOT_FREE, Ordering::Release);
            report.orphans_adopted += 1;
        }
        // Relaxed: monotonic telemetry counters, read by diagnostics only.
        // Skipped when nothing was adopted, so a sweep of a healthy domain
        // stays read-only.
        if report.orphans_adopted > 0 {
            self.orphans_adopted
                .faa_with(report.orphans_adopted as isize, Ordering::Relaxed);
            self.orphan_nodes_recovered
                .faa_with(report.nodes_recovered() as isize, Ordering::Relaxed);
        }
        report
    }

    /// Effective per-thread magazine capacity (0 = magazines disabled).
    /// May be smaller than the [`DomainConfig::with_magazine`] request —
    /// see [`crate::magazine::clamped_cap`].
    pub fn magazine_cap(&self) -> usize {
        self.pool.magazines().cap()
    }

    /// Stop-the-world retirement of the node pool's trailing segment
    /// ([`Pool::reclaim_quiescent`]) — `&mut self` is the quiescence proof.
    /// Returns `true` when a segment was retired (call again to shrink
    /// further); always `false` under a scheme that retires online
    /// ([`Handle::reclaim`]).
    pub fn reclaim_quiescent(&mut self) -> bool {
        self.pool.reclaim_quiescent()
    }

    /// [`Domain::reclaim_quiescent`] for byte class `class`.
    ///
    /// # Panics
    /// If `class >= self.class_count()`.
    pub fn reclaim_class_quiescent(&mut self, class: usize) -> bool {
        self.classes[class].reclaim_quiescent()
    }

    /// Audits node states. **Only meaningful at quiescence** (no concurrent
    /// operations in flight): walks the arena and classifies every node by
    /// its `mm_ref`.
    ///
    /// At quiescence the scheme's invariants say every node is exactly one
    /// of: free (`mm_ref == 1`), parked as an un-collected gift in some
    /// `annAlloc` slot (`mm_ref == 3`), parked in a registered handle's
    /// magazine (`mm_ref == 1`, counted separately), or live with an even
    /// count ≥ 2. Anything else is reported in `corrupt_nodes` and
    /// indicates a usage error (e.g. a missed `each_link`).
    pub fn leak_check(&self) -> LeakReport {
        let arena = self.pool.arena();
        let mut report = LeakReport {
            capacity: arena.capacity(),
            segments: arena.segment_count(),
            resident_segments: arena.segment_count(),
            segments_retired: arena.segments_retired(),
            retired_occupied: arena.retired_occupied(),
            ..LeakReport::default()
        };
        self.snap.report(&mut report);
        report.count(&self.pool.census());
        if report.live_nodes > 0 {
            report.roots = leak_roots(arena);
        }
        report.classes = self.classes.iter().map(|c| c.leak()).collect();
        report
    }
}

/// The live nodes of `arena` that no live node links to — the roots of
/// whatever is still live, sorted. **Only meaningful at quiescence** (it
/// reads live payloads' links).
fn leak_roots<T: RcObject>(arena: &Arena<T>) -> Vec<LeakRoot> {
    use crate::node::Node;
    use std::collections::HashSet;
    let live = |n: &Node<T>| {
        let r = n.load_ref();
        let low = r & Node::<T>::STRONG_MASK;
        r & Node::<T>::DEAD == 0 && low.is_multiple_of(2) && low >= 2
    };
    let out_links = |n: &Node<T>| {
        let mut targets = Vec::new();
        // SAFETY: a live node's payload is initialised, and at quiescence
        // nobody writes it.
        unsafe { n.payload() }.each_link(&mut |l| {
            let p = l.load_snapshot();
            if !p.is_null() {
                targets.push(p as usize);
            }
        });
        targets
    };
    let linked: HashSet<usize> = arena
        .iter()
        .filter(|n| live(n))
        .flat_map(out_links)
        .collect();
    let mut roots: Vec<LeakRoot> = arena
        .iter()
        .filter(|n| live(n) && !linked.contains(&(*n as *const Node<T> as usize)))
        .map(|n| LeakRoot {
            segment: arena.slot_of(n).unwrap_or(usize::MAX),
            mm_ref: n.load_ref() & Node::<T>::STRONG_MASK,
            claimed: n.is_claimed(),
            weak_count: n.weak_count(),
            links: out_links(n).len(),
        })
        .collect();
    roots.sort_unstable();
    roots
}

/// One root of the live set in a [`LeakReport`]: a live node that no other
/// live node links to. At quiescence every live node is a leak, and a
/// leaked chain shows up as its root alone — "7 964 live" becomes "one
/// node with one count too many, holding one link".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LeakRoot {
    /// Arena segment (table slot) holding the node.
    pub segment: usize,
    /// The strong half of the count word: claim bit + 2 × strong count (2
    /// = one reference).
    pub mm_ref: usize,
    /// The claim bit (always clear on a live node; a set bit here would be
    /// a census error).
    pub claimed: bool,
    /// Weak references on the node.
    pub weak_count: usize,
    /// Non-null strong links the node's payload holds — the references
    /// through which it keeps the rest of the leak alive.
    pub links: usize,
}

/// Diagnostics of the mechanisms only the wait-free scheme has.
impl<T: RcObject> WfrcDomain<T> {
    #[cfg(test)]
    pub(crate) fn shared(&self) -> &Shared<T> {
        &self.pool
    }

    /// True when no thread's announcement-presence bit is up — no
    /// registered thread has dereferenced since it registered, the state in
    /// which every `HelpDeRef` returns via the summary fast path without
    /// reading a single announcement-slot word. Diagnostic: a concurrent
    /// `DeRefLink` can raise a bit immediately after this returns.
    #[must_use]
    pub fn announcement_summary_empty(&self) -> bool {
        self.pool.ann.summary_empty()
    }

    /// True when thread `tid`'s announcement-presence bit is up: the
    /// thread has dereferenced at least once since it registered (or died
    /// having done so and awaits adoption). The bit outlives each
    /// announcement — it is lowered at handle drop and by adoption — so it
    /// says "writers read this thread's row", not "an announcement is
    /// live"; a bit that is down is authoritative: the row is empty.
    #[must_use]
    pub fn announcement_summary_bit(&self, tid: usize) -> bool {
        self.pool.ann.summary_bit(tid)
    }

    /// Nodes currently batched on deferred-decrement lists, domain-wide
    /// (approximate while threads are running — see DESIGN.md §4f).
    pub fn deferred_len(&self) -> usize {
        self.pool.reclaim.deferred_len()
    }
}

/// Where every node of one pool sits at quiescence: the result of
/// [`census`], from which [`LeakReport`] and [`ClassLeak`] are filled.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Census {
    /// On a shared free structure (`mm_ref == 1`).
    pub free_nodes: usize,
    /// Parked in a gift cell (`mm_ref == 3`).
    pub parked_gifts: usize,
    /// Parked in a magazine (`mm_ref == 1`).
    pub magazine_nodes: usize,
    /// Batched on a deferred-decrement list (`mm_ref == 1`).
    pub deferred_nodes: usize,
    /// Live: even strong count ≥ 2, not DEAD.
    pub live_nodes: usize,
    /// DEAD-but-weak: payload reclaimed, header pinned by weak references.
    pub weak_nodes: usize,
    /// Sum of weak counts over every node.
    pub weak_count: u64,
    /// In a state the quiescent invariants forbid.
    pub corrupt_nodes: usize,
    /// Threads whose `alloc_need` bit is up; at quiescence no allocation is
    /// in flight, so anything but 0 is a bit a dead slot left behind. Not
    /// a node count: [`census`] leaves it 0 and the pool fills it in.
    pub alloc_need: usize,
}

/// The node audit — the one `mm_ref` classification in the workspace. Every
/// node of `nodes` lands in exactly one [`Census`] category: a node whose
/// address is in `gifts`, `parked` (magazines) or `deferred` must carry that
/// structure's representation (3, 1, 1) or is corrupt; any other node is
/// free, DEAD-but-weak, live, or corrupt by its word alone. A scheme without
/// one of the structures passes an empty set.
///
/// **Only meaningful at quiescence.**
pub fn census<'a, T: 'a>(
    nodes: impl Iterator<Item = &'a crate::node::Node<T>>,
    gifts: &std::collections::HashSet<usize>,
    parked: &std::collections::HashSet<usize>,
    deferred: &std::collections::HashSet<usize>,
) -> Census {
    use crate::node::Node;
    let mut out = Census::default();
    for node in nodes {
        let r = node.load_ref();
        let low = r & Node::<T>::STRONG_MASK;
        let weak = (r & Node::<T>::WEAK_MASK) >> 32;
        let dead = r & Node::<T>::DEAD != 0;
        out.weak_count += weak as u64;
        let ptr = node as *const _ as usize;
        // On a parking structure the expected word is exact: nodes reach
        // the free path only after strong and weak counts fully drained.
        let category = if gifts.contains(&ptr) {
            if r == 3 {
                &mut out.parked_gifts
            } else {
                &mut out.corrupt_nodes
            }
        } else if parked.contains(&ptr) {
            if r == 1 {
                &mut out.magazine_nodes
            } else {
                &mut out.corrupt_nodes
            }
        } else if deferred.contains(&ptr) {
            // Claimed (free representation) but held back while a snapshot
            // pin may still read them.
            if r == 1 {
                &mut out.deferred_nodes
            } else {
                &mut out.corrupt_nodes
            }
        } else if r == 1 {
            &mut out.free_nodes
        } else if dead && low == 1 && weak > 0 {
            // Off every free structure; at quiescence these are leaks of
            // held `Weak`s, reported separately.
            &mut out.weak_nodes
        } else if !dead && low.is_multiple_of(2) && low >= 2 {
            &mut out.live_nodes
        } else {
            &mut out.corrupt_nodes
        };
        *category += 1;
    }
    out
}

// SAFETY: the domain is designed for cross-thread sharing; all shared state
// is atomics, the pool and the classes are `Send + Sync` by their trait
// bounds, and payload access is protocol-mediated (T: Send + Sync via the
// RcObject bound).
unsafe impl<T: RcObject, S: Scheme> Sync for Domain<T, S> {}
unsafe impl<T: RcObject, S: Scheme> Send for Domain<T, S> {}

impl<T: RcObject, S: Scheme> core::fmt::Debug for Domain<T, S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Domain")
            .field("scheme", &S::NAME)
            .field("max_threads", &self.slots.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

/// Result of one [`Domain::adopt_orphans`] pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AdoptReport {
    /// Orphaned slots this pass reclaimed and reopened.
    pub orphans_adopted: usize,
    /// Announcement-slot answers released (each carried one transferred
    /// reference the dead thread never consumed).
    pub announce_refs_released: usize,
    /// `annAlloc` gift nodes recovered (at most one per orphan).
    pub gifts_recovered: usize,
    /// Nodes drained from orphans' magazines back to the shared stripes.
    pub magazine_nodes_recovered: usize,
    /// Nodes freed from orphans' deferred-decrement lists (a corpse that
    /// died holding a snapshot pin, or before its unpin drain ran, leaves
    /// claimed-but-unfreed nodes behind; see DESIGN.md §4f).
    pub deferred_nodes_recovered: usize,
    /// Byte-class blocks recovered from orphans (gift cells + class
    /// magazines, summed over every class).
    pub class_nodes_recovered: usize,
}

impl AdoptReport {
    /// Total nodes this pass returned to circulation.
    pub fn nodes_recovered(&self) -> usize {
        self.announce_refs_released
            + self.gifts_recovered
            + self.magazine_nodes_recovered
            + self.deferred_nodes_recovered
            + self.class_nodes_recovered
    }

    /// Element-wise sum, for aggregating reports over several passes
    /// (e.g. the lease pool's recovery loop).
    pub fn merged(mut self, other: &AdoptReport) -> AdoptReport {
        self.orphans_adopted += other.orphans_adopted;
        self.announce_refs_released += other.announce_refs_released;
        self.gifts_recovered += other.gifts_recovered;
        self.magazine_nodes_recovered += other.magazine_nodes_recovered;
        self.deferred_nodes_recovered += other.deferred_nodes_recovered;
        self.class_nodes_recovered += other.class_nodes_recovered;
        self
    }
}

/// Result of [`Domain::leak_check`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LeakReport {
    /// Total nodes in the arena (across all *resident* segments — a
    /// RETIRED slab's node addresses no longer exist and are not audited,
    /// so they can never be reported as leaks).
    pub capacity: usize,
    /// Arena segments the audit walked (1 unless the domain grew).
    pub segments: usize,
    /// Resident (slab-allocated) segments at audit time — same value as
    /// `segments`, named for the reclaim experiments.
    pub resident_segments: usize,
    /// Cumulative segments retired over the domain's lifetime.
    pub segments_retired: usize,
    /// RETIRED arena slots whose occupancy counter is nonzero. Retirement
    /// zeroes the counter, so a nonzero count means occupancy traffic
    /// reached a dead slab — a protocol bug, never lost capacity. 0 when
    /// clean.
    pub retired_occupied: usize,
    /// Nodes in the free-lists (`mm_ref == 1`).
    pub free_nodes: usize,
    /// Nodes parked in `annAlloc` slots awaiting pickup (`mm_ref == 3`).
    pub parked_gifts: usize,
    /// Nodes parked in registered handles' magazines (`mm_ref == 1`).
    /// These are *not* leaks: they return to the stripes when the owning
    /// handle drains (on overflow or deregistration).
    pub magazine_nodes: usize,
    /// Nodes batched on deferred-decrement lists (`mm_ref == 1`): claimed
    /// by a release that ran under a live snapshot pin, freed when the
    /// pin's grace period expires (DESIGN.md §4f). Not leaks — they drain
    /// on unpin, handle drop, reclaim, or adoption.
    pub deferred_nodes: usize,
    /// Nodes with a live even reference count.
    pub live_nodes: usize,
    /// DEAD-but-weak nodes: payload reclaimed (strong hit zero, links
    /// stripped) but the header is still pinned by outstanding weak
    /// references (DESIGN.md §4g). At quiescence these are leaked `Weak`s.
    pub weak_nodes: usize,
    /// Sum of weak counts across all audited nodes (live and dead). Zero
    /// at clean teardown: every `Weak` and every non-null `AtomicWeak`
    /// link holds one unit.
    pub weak_count: u64,
    /// Nodes in a state the quiescent invariants forbid.
    pub corrupt_nodes: usize,
    /// Node-pool threads whose `alloc_need` bit is up (`freelist.rs`). An
    /// allocation lowers its bit on every exit and adoption lowers a
    /// corpse's, so at quiescence this must read 0.
    pub alloc_need: usize,
    /// Domain-lifetime count of snapshot (plain-load) dereferences, folded
    /// from every dropped handle.
    pub snapshot_derefs: u64,
    /// Domain-lifetime count of releases whose final free was deferred
    /// under a live snapshot pin.
    pub deferred_decs: u64,
    /// Domain-lifetime count of snapshot→owned upgrades (each ran the
    /// full announcement protocol).
    pub upgrade_slow: u64,
    /// Domain-lifetime count of weak→strong upgrade attempts
    /// (`Weak::upgrade` + `load_weak`), folded from every dropped handle.
    pub weak_upgrades: u64,
    /// Domain-lifetime count of upgrade attempts that observed a dead (or
    /// null) target and returned `None`.
    pub upgrade_failed: u64,
    /// Per-class audits, in configuration order (empty for a classic
    /// single-shape domain).
    pub classes: Vec<ClassLeak>,
    /// The roots of the live node set (see [`LeakRoot`]), sorted; empty
    /// when nothing is live.
    pub roots: Vec<LeakRoot>,
}

impl LeakReport {
    /// Fills the node-pool categories from `c` (see [`census`]).
    pub fn count(&mut self, c: &Census) {
        self.free_nodes = c.free_nodes;
        self.parked_gifts = c.parked_gifts;
        self.magazine_nodes = c.magazine_nodes;
        self.deferred_nodes = c.deferred_nodes;
        self.live_nodes = c.live_nodes;
        self.weak_nodes = c.weak_nodes;
        self.weak_count = c.weak_count;
        self.corrupt_nodes = c.corrupt_nodes;
        self.alloc_need = c.alloc_need;
    }

    /// True when nothing is live, nothing is corrupt, and every node —
    /// including every byte class's blocks — is accounted for.
    pub fn is_clean(&self) -> bool {
        self.live_nodes == 0
            && self.corrupt_nodes == 0
            && self.alloc_need == 0
            && self.retired_occupied == 0
            && self.weak_nodes == 0
            && self.weak_count == 0
            && self.free_nodes + self.parked_gifts + self.magazine_nodes + self.deferred_nodes
                == self.capacity
            && self.classes.iter().all(ClassLeak::is_clean)
    }
}

impl core::fmt::Display for LeakReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "leak report: {} ({} nodes, {} segments resident, {} retired, {} retired occupied)",
            if self.is_clean() { "clean" } else { "DIRTY" },
            self.capacity,
            self.resident_segments,
            self.segments_retired,
            self.retired_occupied,
        )?;
        writeln!(
            f,
            "  node pool: {} free, {} gifts, {} magazine, {} deferred, {} live, {} corrupt",
            self.free_nodes,
            self.parked_gifts,
            self.magazine_nodes,
            self.deferred_nodes,
            self.live_nodes,
            self.corrupt_nodes,
        )?;
        if self.alloc_need > 0 {
            writeln!(f, "  alloc_need bits up: {}", self.alloc_need)?;
        }
        const SHOWN_ROOTS: usize = 8;
        for r in self.roots.iter().take(SHOWN_ROOTS) {
            writeln!(
                f,
                "  live root: segment {}, mm_ref {}, claim {}, {} weak, {} links",
                r.segment,
                r.mm_ref,
                u8::from(r.claimed),
                r.weak_count,
                r.links,
            )?;
        }
        if self.roots.len() > SHOWN_ROOTS {
            writeln!(f, "  … {} more live roots", self.roots.len() - SHOWN_ROOTS)?;
        }
        if self.snapshot_derefs + self.deferred_decs + self.upgrade_slow > 0 {
            writeln!(
                f,
                "  snapshots: {} plain-load derefs, {} deferred decs, {} slow upgrades",
                self.snapshot_derefs, self.deferred_decs, self.upgrade_slow,
            )?;
        }
        if self.weak_nodes > 0 || self.weak_count > 0 || self.weak_upgrades > 0 {
            writeln!(
                f,
                "  weak refs: {} dead-but-weak nodes, {} weak count, \
                 {} upgrades ({} failed)",
                self.weak_nodes, self.weak_count, self.weak_upgrades, self.upgrade_failed,
            )?;
        }
        for c in &self.classes {
            writeln!(
                f,
                "  class {:>5} B: {} blocks in {} segs ({} retired) — {} free, \
                 {} gifts, {} magazine, {} live, {} corrupt",
                c.size,
                c.capacity,
                c.segments,
                c.segments_retired,
                c.free_nodes,
                c.parked_gifts,
                c.magazine_nodes,
                c.live_nodes,
                c.corrupt_nodes,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_assigns_distinct_ids_up_to_n() {
        let d = WfrcDomain::<u64>::new(DomainConfig::new(3, 8));
        let h0 = d.register().unwrap();
        let h1 = d.register().unwrap();
        let h2 = d.register().unwrap();
        assert_eq!(
            {
                let mut ids = [h0.tid(), h1.tid(), h2.tid()];
                ids.sort_unstable();
                ids
            },
            [0, 1, 2]
        );
        assert_eq!(d.register().unwrap_err(), RegistryFull);
        assert_eq!(d.registered_threads(), 3);
    }

    #[test]
    fn unregister_frees_the_slot() {
        let d = WfrcDomain::<u64>::new(DomainConfig::new(1, 2));
        let h = d.register().unwrap();
        let tid = h.tid();
        drop(h);
        let h2 = d.register().unwrap();
        assert_eq!(h2.tid(), tid);
    }

    #[test]
    fn fresh_domain_leak_check_is_clean() {
        let d = WfrcDomain::<u64>::new(DomainConfig::new(4, 32));
        let r = d.leak_check();
        assert!(r.is_clean(), "{r:?}");
        assert_eq!(r.free_nodes, 32);
        assert_eq!(r.live_nodes, 0);
    }

    #[test]
    fn leak_check_sees_live_nodes() {
        let d = WfrcDomain::<u64>::new(DomainConfig::new(1, 4));
        let h = d.register().unwrap();
        let a = h.alloc_with(|_| {}).unwrap();
        let r = d.leak_check();
        assert_eq!(r.live_nodes, 1);
        assert!(!r.is_clean());
        drop(a);
        assert!(d.leak_check().is_clean());
    }

    #[test]
    #[should_panic(expected = "max_threads")]
    fn zero_threads_panics() {
        let _ = WfrcDomain::<u64>::new(DomainConfig::new(0, 4));
    }

    #[test]
    fn leak_report_display_names_every_class() {
        let report = LeakReport {
            capacity: 64,
            segments: 2,
            resident_segments: 2,
            segments_retired: 3,
            retired_occupied: 1,
            free_nodes: 60,
            parked_gifts: 1,
            magazine_nodes: 3,
            deferred_nodes: 2,
            live_nodes: 0,
            weak_nodes: 1,
            weak_count: 4,
            corrupt_nodes: 0,
            alloc_need: 0,
            snapshot_derefs: 1000,
            deferred_decs: 2,
            upgrade_slow: 5,
            weak_upgrades: 9,
            upgrade_failed: 3,
            classes: vec![
                ClassLeak {
                    size: 64,
                    capacity: 51,
                    segments: 1,
                    segments_retired: 0,
                    free_nodes: 51,
                    ..ClassLeak::default()
                },
                ClassLeak {
                    size: 1024,
                    capacity: 12,
                    segments: 3,
                    segments_retired: 7,
                    free_nodes: 10,
                    magazine_nodes: 1,
                    live_nodes: 1,
                    ..ClassLeak::default()
                },
            ],
            roots: vec![],
        };
        // Display mentions cleanliness and every class size.
        let text = report.to_string();
        assert!(text.contains("DIRTY"), "{text}");
        assert!(text.contains("class    64 B"), "{text}");
        assert!(text.contains("class  1024 B"), "{text}");
    }

    #[test]
    fn retired_occupancy_makes_the_report_dirty() {
        let mut report = LeakReport::default();
        assert!(report.is_clean());
        report.retired_occupied = 1;
        assert!(!report.is_clean(), "{report}");
    }

    #[test]
    fn live_domain_report_displays_clean() {
        use crate::class::ClassConfig;
        let d = WfrcDomain::<u64>::new(
            DomainConfig::new(2, 16)
                .with_classes(vec![ClassConfig::new(64, 8), ClassConfig::new(256, 8)]),
        );
        let r = d.leak_check();
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.classes.len(), 2);
        assert!(r.to_string().contains("clean"));
    }

    #[test]
    fn class_leaks_make_the_report_dirty() {
        use crate::class::ClassConfig;
        let d =
            WfrcDomain::<u64>::new(DomainConfig::new(1, 4).with_class(ClassConfig::new(128, 4)));
        let h = d.register().unwrap();
        let token = h.alloc_bytes(b"hello").unwrap();
        let mid = d.leak_check();
        assert_eq!(mid.classes[0].live_nodes, 1);
        assert!(!mid.is_clean(), "a live class block must dirty the report");
        // The node pool itself is untouched by class traffic.
        assert_eq!(mid.live_nodes, 0);
        // SAFETY: `token` is this handle's unfreed allocation.
        unsafe { h.free_bytes(token) };
        drop(h);
        assert!(d.leak_check().is_clean());
    }

    /// The leak-root report: one extra count leaked on the head of a
    /// 3-node chain leaves three live nodes and exactly one root — the
    /// head, with one reference and the one link that holds the rest.
    #[test]
    fn leaked_chain_reports_its_head_as_the_only_root() {
        #[derive(Default)]
        struct Cell {
            next: Link<Cell>,
        }
        impl RcObject for Cell {
            fn each_link(&self, f: &mut dyn FnMut(&Link<Self>)) {
                f(&self.next);
            }
        }
        let d = WfrcDomain::<Cell>::new(DomainConfig::new(1, 8));
        let h = d.register().unwrap();
        let root = Link::null();
        {
            let c = h.alloc_with(|_| {}).unwrap();
            let b = h.alloc_with(|_| {}).unwrap();
            h.store(&b.next, Some(&c));
            let a = h.alloc_with(|_| {}).unwrap();
            h.store(&a.next, Some(&b));
            h.store(&root, Some(&a));
            // The leak: a count nobody will release.
            // SAFETY: `a` holds a reference.
            unsafe { h.add_ref_raw(a.as_ptr(), 1) };
        }
        h.store(&root, None);
        drop(h);
        let report = d.leak_check();
        assert_eq!(report.live_nodes, 3, "{report}");
        assert_eq!(
            report.roots,
            vec![LeakRoot {
                segment: 0,
                mm_ref: 2,
                claimed: false,
                weak_count: 0,
                links: 1,
            }],
            "{report}"
        );
        assert!(
            report
                .to_string()
                .contains("live root: segment 0, mm_ref 2"),
            "{report}"
        );
    }

    #[test]
    fn with_init_seeds_payloads() {
        let d = WfrcDomain::<u64>::with_init(DomainConfig::new(1, 4), |i| i as u64 * 10);
        // Payloads are only observable through allocation; the four allocs
        // drain the seeded list in order.
        let h = d.register().unwrap();
        let guards: Vec<_> = (0..4).map(|_| h.alloc_with(|_| {}).unwrap()).collect();
        let mut seen: Vec<u64> = guards.iter().map(|g| **g).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 10, 20, 30]);
    }
}
