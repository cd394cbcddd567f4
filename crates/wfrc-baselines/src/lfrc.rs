//! Lock-free reference counting: the paper's comparator.
//!
//! This is the scheme of Valois (PhD thesis, 1995) with the Michael & Scott
//! (1995) correction — what the paper calls "the default lock-free memory
//! management scheme" in its §5 experiment. It shares everything with
//! `wfrc-core` except the two places the paper improves:
//!
//! * **Dereference** (`DeRefLink`): optimistically `FAA(+2)` the target and
//!   *re-check* the link; on mismatch, release and retry. "However, the
//!   number of repeats is unbounded" (paper §3) — a fast writer can starve
//!   a reader forever. The retry count is recorded per call so experiment
//!   E4 can plot the unboundedness against the wait-free scheme's zero.
//! * **Free-list**: a single Treiber list with one head. Every alloc and
//!   free CASes the same word; one winner fails all other attempts, so both
//!   operations are only lock-free (experiment E5/E7 measures the resulting
//!   retry tails and starvation).
//!
//! The node representation, the even/odd `mm_ref` convention, the arena
//! type-stability, and the recursive release of held links (drained
//! iteratively) are identical to `wfrc-core` — deliberately, so E1/E4/E5
//! compare only the algorithmic difference and not incidental layout
//! choices.

use core::marker::PhantomData;
use core::ptr;
use core::sync::atomic::Ordering;
use std::collections::HashSet;

use wfrc_core::arena::{Arena, GrowOutcome};
use wfrc_core::class::{class_arena, RawBuf};
use wfrc_core::counters::OpCounters;
#[cfg(feature = "fault-injection")]
use wfrc_core::fault::FaultSite;
use wfrc_core::magazine::{clamped_cap, Magazines};
use wfrc_core::node::chain_tail;
use wfrc_core::oom::OutOfMemory;
use wfrc_core::Growth;
use wfrc_core::{
    census, AtomicWeak, Census, Claim, ClassConfig, ClassLeak, Link, Node, RawBytes, RcObject,
};
use wfrc_primitives::{AtomicWord, Backoff, CachePadded, WordPtr};

/// Registration-slot / telemetry word, cache-padded like the wait-free
/// domain's (`wfrc_core::domain`), so the two schemes pay the same layout
/// costs in E4/E5 comparisons.
type SlotWord = CachePadded<AtomicWord>;

fn new_slot_word(v: usize) -> SlotWord {
    CachePadded::new(AtomicWord::new(v))
}

/// Registration slot states — the same three-state protocol as
/// `wfrc_core::domain` (free / taken / orphaned-awaiting-adoption).
const SLOT_FREE: usize = 0;
const SLOT_TAKEN: usize = 1;
const SLOT_ORPHANED: usize = 2;

/// What every pool of one domain shares: set on the domain, copied into the
/// node pool and each byte class.
#[derive(Clone)]
struct Tuning {
    /// Whether retry loops back off (the NOBLE-era default). Disable for
    /// raw retry-count measurements.
    backoff: bool,
    /// Installed fault schedule; `None` = no injection even with the
    /// feature compiled in.
    #[cfg(feature = "fault-injection")]
    faults: Option<std::sync::Arc<wfrc_core::fault::FaultPlan>>,
}

/// The scheme's memory pool: a segmented arena behind a **single** Treiber
/// head (the signature bottleneck) plus optional per-thread magazines. The
/// node domain owns one; every byte class owns one over `RawBuf<N>` blocks
/// — the same shape as `wfrc_core`'s `Shared<T>` under its `ByteClass<N>`,
/// so both schemes run one allocation pipeline per pool kind, not two.
struct LfrcPool<T: RcObject> {
    /// Segmented node storage — the same growable arena as `wfrc-core`, so
    /// the growth-path experiments compare schemes over identical pools.
    arena: Arena<T>,
    /// The single free-list head all threads contend on.
    head: CachePadded<WordPtr<Node<T>>>,
    /// Per-thread allocation magazines — the same layer as
    /// [`wfrc_core::magazine`]. Disabled (cap 0) by default.
    mag: Magazines<T>,
    /// Registration slots of the owning domain (= magazine slots).
    threads: usize,
    tuning: Tuning,
}

impl<T: RcObject> LfrcPool<T> {
    /// Wraps `arena`, chaining every node into the single free-list.
    fn new(arena: Arena<T>, threads: usize, magazine: usize, tuning: Tuning) -> Self {
        let capacity = arena.capacity();
        let pool = Self {
            mag: Magazines::new(threads, clamped_cap(magazine, capacity, threads)),
            arena,
            head: CachePadded::new(WordPtr::null()),
            threads,
            tuning,
        };
        pool.push_all((0..capacity).map(|i| pool.arena.node_ptr(i)));
        pool
    }

    /// Treiber push of an exclusively-owned, pre-linked chain
    /// (`first..=last`) onto the single head. Returns the retry count.
    fn push_chain(&self, first: *mut Node<T>, last: *mut Node<T>) -> u64 {
        let mut backoff = Backoff::new();
        let mut retries: u64 = 0;
        loop {
            // Relaxed head load / Release publish CAS — the same Treiber
            // orderings (and release-sequence argument) as
            // `wfrc_core::freelist::push_chain`.
            let head = self.head.load_with(Ordering::Relaxed);
            // SAFETY: `last` is exclusively ours until the CAS publishes it.
            unsafe { (*last).link_private(head) };
            if self
                .head
                .cas_with(head, first, Ordering::Release, Ordering::Relaxed)
            {
                return retries;
            }
            retries += 1;
            if self.tuning.backoff {
                backoff.snooze();
            }
        }
    }

    /// Links exclusively-owned `nodes` through `mm_next` in order and
    /// pushes them as one chain (no-op when empty). Returns the retry count.
    fn push_all(&self, nodes: impl IntoIterator<Item = *mut Node<T>>) -> u64 {
        let mut nodes = nodes.into_iter();
        let Some(first) = nodes.next() else {
            return 0;
        };
        let mut last = first;
        for node in nodes {
            // SAFETY: exclusively owned per contract.
            unsafe { (*last).link_private(node) };
            last = node;
        }
        self.push_chain(first, last)
    }

    /// Feeds a hot-path push's retry count into the free-push telemetry.
    fn note_push_retries(&self, c: &OpCounters, retries: u64) {
        OpCounters::add(&c.free_push_retries, retries);
        OpCounters::record_max(&c.max_free_push_retries, retries);
    }

    /// `AllocNode` (see [`LfrcHandle::alloc_raw`]).
    fn alloc(&self, tid: usize, c: &OpCounters) -> Result<*mut Node<T>, OutOfMemory> {
        OpCounters::bump(&c.alloc_calls);
        if let Some(node) = self.magazine_pop(tid, c) {
            return Ok(node);
        }
        let mut backoff = Backoff::new();
        let mut iters: u64 = 0;
        let result = loop {
            iters += 1;
            // Acquire: pairs with the Release push that published `node`,
            // making its `mm_next` and recycled payload visible.
            let node = self.head.load_with(Ordering::Acquire);
            if node.is_null() {
                // Valois' scheme has no stripe to advance to: an observed
                // empty head means the pool looks dry. Try to grow the
                // arena (a no-op under `Growth::Disabled`); only when the
                // policy is exhausted is this out-of-memory (nodes in
                // flight during concurrent pops can make this spuriously
                // early — the same caveat as the wait-free scheme's retry
                // bound, noted in DESIGN.md).
                OpCounters::bump(&c.alloc_slow_path);
                if self.try_grow(tid, c) {
                    continue;
                }
                break Err(OutOfMemory);
            }
            // SAFETY: arena node; headers are type-stable.
            let nref = unsafe { &*node };
            nref.faa_ref(2); // pin against reinsertion (same as paper line A9)
            let next = nref.mm_next().load();
            // AcqRel pop: same argument as the wait-free A10 (the store
            // side stays in the pusher's release sequence).
            if self
                .head
                .cas_with(node, next, Ordering::AcqRel, Ordering::Relaxed)
            {
                nref.faa_ref(-1); // claimed free node (1+2) -> one live ref (2)
                break Ok(node);
            }
            OpCounters::bump(&c.alloc_cas_failures);
            // SAFETY: we own the +2 pin we just added.
            unsafe { self.release(tid, c, node) };
            if self.tuning.backoff {
                backoff.snooze();
            }
        };
        OpCounters::add(&c.alloc_iters, iters);
        OpCounters::record_max(&c.max_alloc_iters, iters);
        result
    }

    /// One growth step: returns true when capacity grew (by this thread or
    /// a concurrent winner) and the allocation loop should re-scan. The
    /// winner chains the new segment and pushes it with one CAS.
    fn try_grow(&self, tid: usize, c: &OpCounters) -> bool {
        match self.arena.try_grow() {
            GrowOutcome::Grew { nodes, revived } => {
                OpCounters::bump(&c.segments_grown);
                if revived {
                    OpCounters::bump(&c.segments_revived);
                }
                OpCounters::add(&c.nodes_seeded, nodes.len() as u64);
                let seed = || {
                    self.push_all(nodes.iter().map(|n| n as *const Node<T> as *mut Node<T>));
                };
                // A death between winning the growth CAS and seeding would
                // strand the whole segment; the completion seeds it first.
                #[cfg(feature = "fault-injection")]
                self.fault_hit_or(tid, c, FaultSite::GrowSeed, seed);
                #[cfg(not(feature = "fault-injection"))]
                let _ = tid;
                seed();
                true
            }
            GrowOutcome::Lost => true,
            GrowOutcome::AtCapacity => false,
        }
    }

    /// `ReleaseRef` (see [`LfrcHandle::release_raw`]).
    ///
    /// # Safety
    /// The caller must own an unreleased reference on `node` (non-null,
    /// this pool).
    unsafe fn release(&self, tid: usize, c: &OpCounters, node: *mut Node<T>) {
        debug_assert!(!node.is_null());
        // A death at the FAA must not forget the caller's count — the
        // completion performs the whole release (same contract as the
        // wait-free scheme's ReleaseFaa site).
        #[cfg(feature = "fault-injection")]
        self.fault_hit_or(tid, c, FaultSite::ReleaseFaa, || {
            // SAFETY: forwarded caller contract.
            unsafe { self.release_body(tid, c, node) };
        });
        // SAFETY: forwarded caller contract.
        unsafe { self.release_body(tid, c, node) };
    }

    /// # Safety
    /// Same contract as [`LfrcPool::release`].
    unsafe fn release_body(&self, tid: usize, c: &OpCounters, node: *mut Node<T>) {
        let mut pending: Option<Vec<*mut Node<T>>> = None;
        let mut cur = node;
        loop {
            OpCounters::bump(&c.releases);
            // SAFETY: arena node.
            let n = unsafe { &*cur };
            n.faa_ref(-2);
            match n.try_claim_weak() {
                Claim::Busy => {
                    // Our decrement may have been the speculative bump that
                    // blocked a DEAD header's finalize — if the word now
                    // reads the bare sentinel, we inherit the free.
                    if n.maybe_finalize() {
                        self.free_node(tid, c, cur);
                    }
                }
                claim => {
                    OpCounters::bump(&c.reclaims);
                    // SAFETY: claim won — payload links exclusively ours.
                    unsafe { n.payload() }.each_link(&mut |l| {
                        // Strip a possible deletion mark: it carries no count.
                        let child =
                            wfrc_primitives::tagged::without_tag(l.swap_raw(ptr::null_mut()));
                        if !child.is_null() {
                            pending.get_or_insert_with(Vec::new).push(child);
                        }
                    });
                    // SAFETY: same exclusivity; each non-null weak link
                    // holds one weak unit on its target.
                    unsafe { n.payload() }.each_weak_link(&mut |wl| {
                        let child = wl.inner().swap_raw(ptr::null_mut());
                        if !child.is_null() {
                            // SAFETY: the link owned one weak unit on `child`.
                            unsafe { self.release_weak(tid, c, child) };
                        }
                    });
                    match claim {
                        Claim::Free => self.free_node(tid, c, cur),
                        // Drop the claim's guard unit; the last weak
                        // release finalizes the header.
                        // SAFETY: the DeadWeak claim deposited that unit.
                        Claim::DeadWeak => unsafe { self.release_weak(tid, c, cur) },
                        Claim::Busy => unreachable!("matched above"),
                    }
                }
            }
            match pending.as_mut().and_then(|p| p.pop()) {
                Some(next) => cur = next,
                None => break,
            }
        }
    }

    /// Drops one weak unit; the last one off a DEAD header frees the node.
    ///
    /// # Safety
    /// The caller must own an unreleased weak unit on `node`.
    unsafe fn release_weak(&self, tid: usize, c: &OpCounters, node: *mut Node<T>) {
        // SAFETY: arena node; the caller's weak unit is ours to drop.
        let n = unsafe { &*node };
        n.faa_weak(-1);
        if n.maybe_finalize() {
            self.free_node(tid, c, node);
        }
    }

    /// Treiber push of a claimed node onto the single free-list (or into
    /// `tid`'s magazine when the layer is enabled).
    fn free_node(&self, tid: usize, c: &OpCounters, node: *mut Node<T>) {
        OpCounters::bump(&c.free_calls);
        if !self.magazine_push(tid, c, node) {
            self.note_push_retries(c, self.push_chain(node, node));
        }
    }

    /// Magazine fast path of `alloc`: pop locally, refilling from the
    /// single head in one batch (one SWAP) when empty. `None` falls through
    /// to the Treiber loop. Same node-state protocol as
    /// [`wfrc_core::magazine`]: parked nodes keep `mm_ref == 1`, popping
    /// applies `FAA(+1)` (1 → 2).
    fn magazine_pop(&self, tid: usize, c: &OpCounters) -> Option<*mut Node<T>> {
        if !self.mag.is_enabled() {
            return None;
        }
        // SAFETY: `tid` is the caller's registered thread id (exclusive).
        let node = match unsafe { self.mag.pop(tid) } {
            Some(node) => node,
            None => {
                self.magazine_refill(tid, c);
                // SAFETY: same exclusivity.
                unsafe { self.mag.pop(tid) }?
            }
        };
        OpCounters::bump(&c.magazine_hits);
        // SAFETY: arena node; headers are type-stable.
        unsafe { (*node).faa_ref(1) };
        Some(node)
    }

    /// Steals the whole free-list with one `SWAP(head, ⊥)`, keeps at most
    /// half a magazine, and hands the rest back (CAS ⊥ → rest, falling
    /// back to a Treiber chain-push if an allocator raced in).
    fn magazine_refill(&self, tid: usize, c: &OpCounters) {
        // A death here holds nothing yet — the head has not been swapped.
        #[cfg(feature = "fault-injection")]
        self.fault_hit(tid, c, FaultSite::MagazineRefill);
        let target = (self.mag.cap() / 2).max(1);
        // Acquire: pairs with the Release pushes that built the chain.
        let chain = self.head.swap_with(ptr::null_mut(), Ordering::Acquire);
        if chain.is_null() {
            return;
        }
        // Between the head SWAP and the magazine extend this thread owns
        // the whole chain: a death must hand it back or the pool shrinks.
        #[cfg(feature = "fault-injection")]
        self.fault_hit_or(tid, c, FaultSite::StripeSwap, || {
            // SAFETY: the stolen chain is exclusively ours.
            self.push_chain(chain, unsafe { chain_tail(chain) }.0);
        });
        let mut kept = Vec::with_capacity(target);
        let mut p = chain;
        while !p.is_null() && kept.len() < target {
            kept.push(p);
            // SAFETY: node of the stolen chain — exclusively ours.
            p = unsafe { (*p).mm_next().load() };
        }
        let rest = p;
        // Release hand-back publishes the remainder chain's links.
        if !rest.is_null()
            && !self
                .head
                .cas_with(ptr::null_mut(), rest, Ordering::Release, Ordering::Relaxed)
        {
            // SAFETY: the stolen remainder is exclusively ours.
            self.note_push_retries(c, self.push_chain(rest, unsafe { chain_tail(rest) }.0));
        }
        // SAFETY: tid exclusivity; kept.len() <= cap / 2 fits.
        unsafe { self.mag.extend(tid, kept) };
        OpCounters::bump(&c.magazine_refills);
    }

    /// Magazine fast path of `free_node`: push locally, draining the
    /// oldest half as one chain-push when full.
    fn magazine_push(&self, tid: usize, c: &OpCounters, node: *mut Node<T>) -> bool {
        if !self.mag.is_enabled() {
            return false;
        }
        // A death here owns the claimed `node` and nothing else; the
        // completion pushes it straight to the shared head (chain of one)
        // so the pool cannot silently deplete.
        #[cfg(feature = "fault-injection")]
        self.fault_hit_or(tid, c, FaultSite::MagazineDrain, || {
            self.push_chain(node, node);
        });
        // SAFETY: `tid` is the caller's registered thread id (exclusive).
        if unsafe { self.mag.try_push(tid, node) } {
            return true;
        }
        self.drain_magazine(tid, c, (self.mag.cap() / 2).max(1));
        // SAFETY: same exclusivity; we just made room.
        let pushed = unsafe { self.mag.try_push(tid, node) };
        debug_assert!(pushed, "magazine still full after drain");
        pushed
    }

    /// Returns up to `count` of slot `tid`'s oldest magazine nodes to the
    /// head with one Treiber CAS (`usize::MAX` = flush) and reports how
    /// many. The caller owns the slot: its handle, or an adopter that
    /// CAS-claimed a corpse's.
    fn drain_magazine(&self, tid: usize, c: &OpCounters, count: usize) -> usize {
        // SAFETY: slot exclusivity (caller contract).
        let batch = unsafe { self.mag.take(tid, count) };
        let drained = batch.len();
        if drained > 0 {
            OpCounters::bump(&c.magazine_drains);
            self.note_push_retries(c, self.push_all(batch));
        }
        drained
    }

    /// Retires the trailing segment if every one of its nodes is free,
    /// returning its slab to the allocator. Returns `true` when a segment
    /// was retired (call again to shrink further).
    ///
    /// LFRC has no epochs or announcement rows, so it cannot reclaim
    /// concurrently — `&mut self` demands quiescence (no live handles
    /// borrow the domain), which makes the whole protocol a private
    /// sweep: detach the single head chain, partition out the candidate
    /// segment's nodes, and either complete the retire or push everything
    /// back. Same arena state machine as `wfrc_core::ThreadHandle::reclaim`,
    /// but stop-the-world instead of wait-free.
    fn reclaim_quiescent(&mut self) -> bool {
        let s = self.arena.segment_count();
        if s < 2 {
            return false;
        }
        // LFRC's alloc/free hot paths don't maintain the per-segment
        // occupancy trigger (the private sweep below is authoritative
        // under `&mut self`), so arm the counter to pass the shared claim
        // gate. A sweep that then finds live nodes simply aborts.
        let tail = s - 1;
        if let (Some(start), Some(len), Some(have)) = (
            self.arena.seg_start(tail),
            self.arena.seg_len(tail),
            self.arena.seg_free_count(tail),
        ) {
            if have < len {
                self.arena
                    .note_seeded(self.arena.node_ptr(start), len - have);
            }
        }
        let Some(slot) = self.arena.try_begin_tail_retire() else {
            return false;
        };
        let len = self.arena.seg_len(slot).unwrap_or(0);
        // `&mut self`: no handle can exist, so magazines have no owner —
        // drain them all back to the head so parked nodes can't hide from
        // the sweep. (Handle drop already drains, so this usually no-ops;
        // it matters only after `std::mem::forget`-style leaks.)
        let scratch = OpCounters::new();
        for tid in 0..self.threads {
            self.drain_magazine(tid, &scratch, usize::MAX);
        }
        // Detach the entire free-list and partition it privately.
        let mut p = self.head.swap_with(ptr::null_mut(), Ordering::Acquire);
        let mut candidates: Vec<*mut Node<T>> = Vec::with_capacity(len);
        let mut keep: Vec<*mut Node<T>> = Vec::new();
        while !p.is_null() {
            // SAFETY: detached chain is privately owned.
            let next = unsafe { (*p).mm_next().load() };
            if self.arena.seg_contains(slot, p) {
                candidates.push(p);
            } else {
                keep.push(p);
            }
            p = next;
        }
        let complete = candidates.len() == len
            // SAFETY: candidate nodes are privately held; headers stable.
            && candidates.iter().all(|&n| unsafe { (*n).load_ref() } == 1)
            && self.arena.finish_retire(slot);
        if !complete {
            // Some nodes are live (or the table raced): hand everything
            // back and reopen the segment.
            keep.append(&mut candidates);
            self.arena.abort_retire(slot);
        }
        self.push_all(keep);
        complete
    }

    /// Quiescent node audit (see [`wfrc_core::census`]): LFRC has neither
    /// gift cells nor deferred lists, so only the magazines can park.
    fn census(&self) -> Census {
        let none = HashSet::new();
        census(self.arena.iter(), &none, &self.mag.parked(), &none)
    }

    /// Fires the injection hook for `site` if a plan is installed (resource-
    /// free sites only; see [`wfrc_core::fault`]).
    #[cfg(feature = "fault-injection")]
    #[inline]
    fn fault_hit(&self, tid: usize, c: &OpCounters, site: FaultSite) {
        if let Some(p) = &self.tuning.faults {
            p.hit(site, tid, c);
        }
    }

    /// Fires the injection hook with a completion obligation (see
    /// [`wfrc_core::fault::FaultPlan::hit_or`]).
    #[cfg(feature = "fault-injection")]
    #[inline]
    fn fault_hit_or(&self, tid: usize, c: &OpCounters, site: FaultSite, complete: impl FnOnce()) {
        if let Some(p) = &self.tuning.faults {
            p.hit_or(site, tid, c, complete);
        }
    }
}

/// A lock-free reference-counted memory domain (Valois-style baseline).
pub struct LfrcDomain<T: RcObject> {
    /// The node pool: arena, single free-list head, magazines.
    pool: LfrcPool<T>,
    slots: Box<[SlotWord]>,
    /// Byte classes mirroring [`wfrc_core::class`], each its own
    /// page-carved pool behind a **single** Treiber head (the scheme's
    /// signature bottleneck, reproduced per class). Empty by default; see
    /// [`LfrcDomain::set_classes`].
    classes: Box<[Box<dyn LfrcClassOps>]>,
    /// Cumulative [`LfrcDomain::adopt_orphans`] telemetry.
    orphans_adopted: SlotWord,
    orphan_nodes_recovered: SlotWord,
    /// Domain-lifetime snapshot/weak-path telemetry, folded from dropped
    /// handles and surfaced in [`LfrcDomain::leak_check`] — the wait-free
    /// scheme's own accumulator.
    stats: wfrc_core::SnapStats,
}

impl<T: RcObject + Default> LfrcDomain<T> {
    /// Creates a domain with `capacity` default-initialized nodes and
    /// `max_threads` registration slots.
    pub fn new(max_threads: usize, capacity: usize) -> Self {
        Self::with_init(max_threads, capacity, |_| T::default())
    }

    /// Creates a growable domain: `capacity` initial default-initialized
    /// nodes, growing under `growth` exactly like
    /// [`wfrc_core::WfrcDomain`] (new segments are seeded onto the single
    /// free-list head).
    pub fn with_growth(max_threads: usize, capacity: usize, growth: Growth) -> Self {
        Self::with_growth_init(max_threads, capacity, growth, |_| T::default())
    }
}

impl<T: RcObject> LfrcDomain<T> {
    /// Creates a domain initializing payload `i` with `init(i)`.
    pub fn with_init(
        max_threads: usize,
        capacity: usize,
        init: impl Fn(usize) -> T + Send + Sync + 'static,
    ) -> Self {
        Self::with_growth_init(max_threads, capacity, Growth::Disabled, init)
    }

    /// Creates a growable domain initializing payload `i` with `init(i)`.
    pub fn with_growth_init(
        max_threads: usize,
        capacity: usize,
        growth: Growth,
        init: impl Fn(usize) -> T + Send + Sync + 'static,
    ) -> Self {
        assert!(max_threads > 0);
        let tuning = Tuning {
            backoff: true,
            #[cfg(feature = "fault-injection")]
            faults: None,
        };
        Self {
            pool: LfrcPool::new(
                Arena::with_growth(capacity, growth, init),
                max_threads,
                0,
                tuning,
            ),
            slots: (0..max_threads).map(|_| new_slot_word(SLOT_FREE)).collect(),
            classes: Box::new([]),
            orphans_adopted: new_slot_word(0),
            orphan_nodes_recovered: new_slot_word(0),
            stats: wfrc_core::SnapStats::default(),
        }
    }

    /// Installs a fault schedule (see [`wfrc_core::fault`]) into the node
    /// pool and every byte class. Must happen before the domain is shared,
    /// like [`LfrcDomain::set_backoff`].
    #[cfg(feature = "fault-injection")]
    pub fn set_fault_plan(&mut self, plan: std::sync::Arc<wfrc_core::fault::FaultPlan>) {
        self.pool.tuning.faults = Some(plan);
        self.retune_classes();
    }

    /// Disables backoff in retry loops (for step-count experiments).
    pub fn set_backoff(&mut self, on: bool) {
        self.pool.tuning.backoff = on;
        self.retune_classes();
    }

    /// Copies the node pool's tuning into every byte class.
    fn retune_classes(&mut self) {
        for class in self.classes.iter_mut() {
            class.set_tuning(self.pool.tuning.clone());
        }
    }

    /// Enables per-thread allocation magazines of (at most) `cap` nodes,
    /// clamped exactly like [`wfrc_core::DomainConfig::with_magazine`].
    /// Must be called before the domain is shared (hence `&mut self`, the
    /// same pattern as [`LfrcDomain::set_backoff`]).
    pub fn set_magazine(&mut self, cap: usize) {
        let threads = self.slots.len();
        self.pool.mag = Magazines::new(
            threads,
            clamped_cap(cap, self.pool.arena.capacity(), threads),
        );
    }

    /// Effective per-thread magazine capacity (0 = magazines disabled).
    pub fn magazine_cap(&self) -> usize {
        self.pool.mag.cap()
    }

    /// Installs byte classes mirroring
    /// [`wfrc_core::DomainConfig::with_classes`] (same sizes, same
    /// page-carved capacities, same magazine clamping) — except that each
    /// class free-list is a **single** Treiber head, the scheme's
    /// signature bottleneck. Must be called before the domain is shared,
    /// like [`LfrcDomain::set_backoff`].
    pub fn set_classes(&mut self, classes: Vec<ClassConfig>) {
        assert!(
            classes.len() <= wfrc_core::MAX_CLASSES,
            "at most {} byte classes per domain",
            wfrc_core::MAX_CLASSES
        );
        let n = self.slots.len();
        self.classes = classes
            .iter()
            .map(|cfg| build_lfrc_class(cfg, n, self.pool.tuning.clone()))
            .collect();
    }

    /// Number of configured byte classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Block size of class `class`.
    ///
    /// # Panics
    /// If `class >= self.class_count()`.
    pub fn class_block_size(&self, class: usize) -> usize {
        self.classes[class].block_size()
    }

    /// Current block capacity of class `class`.
    ///
    /// # Panics
    /// If `class >= self.class_count()`.
    pub fn class_capacity(&self, class: usize) -> usize {
        self.classes[class].capacity()
    }

    /// Number of live (non-retired) segments backing class `class`.
    ///
    /// # Panics
    /// If `class >= self.class_count()`.
    pub fn class_segments(&self, class: usize) -> usize {
        self.classes[class].segment_count()
    }

    /// Retires the trailing segment of byte class `class` if every one of
    /// its blocks is free — the class analogue of
    /// [`LfrcDomain::reclaim_quiescent`], with the same stop-the-world
    /// contract (`&mut self`). Returns `true` when a segment was retired.
    ///
    /// # Panics
    /// If `class >= self.class_count()`.
    pub fn reclaim_class_quiescent(&mut self, class: usize) -> bool {
        self.classes[class].reclaim_quiescent()
    }

    /// Registers the calling context. Equivalent to
    /// [`LfrcDomain::try_register`] (same non-panicking contract as
    /// `wfrc_core::WfrcDomain::register`).
    pub fn register(&self) -> Result<LfrcHandle<'_, T>, wfrc_core::domain::RegistryFull> {
        self.try_register()
    }

    /// Non-panicking registration: claims a free thread id, or reports
    /// [`wfrc_core::domain::RegistryFull`] if all slots are in use.
    pub fn try_register(&self) -> Result<LfrcHandle<'_, T>, wfrc_core::domain::RegistryFull> {
        for (tid, slot) in self.slots.iter().enumerate() {
            // Same orderings (and argument) as `wfrc_core::domain::register`:
            // Relaxed probe, Acquire claim pairing with the Release free.
            if slot.load_with(Ordering::Relaxed) == SLOT_FREE
                && slot.cas_with(SLOT_FREE, SLOT_TAKEN, Ordering::Acquire, Ordering::Relaxed)
            {
                return Ok(LfrcHandle {
                    domain: self,
                    tid,
                    counters: OpCounters::new(),
                    _not_sync: PhantomData,
                });
            }
        }
        Err(wfrc_core::domain::RegistryFull)
    }

    /// Number of orphaned slots awaiting [`LfrcDomain::adopt_orphans`].
    pub fn orphaned_threads(&self) -> usize {
        // Relaxed: diagnostic only; `adopt_orphans` re-checks with a CAS.
        self.slots
            .iter()
            .filter(|s| s.load_with(Ordering::Relaxed) == SLOT_ORPHANED)
            .count()
    }

    /// Cumulative orphan slots reclaimed over the domain's lifetime.
    pub fn orphans_adopted(&self) -> usize {
        // Relaxed: telemetry, no synchronization role.
        self.orphans_adopted.load_with(Ordering::Relaxed)
    }

    /// Cumulative nodes recovered from orphans' magazines.
    pub fn orphan_nodes_recovered(&self) -> usize {
        // Relaxed: telemetry, no synchronization role.
        self.orphan_nodes_recovered.load_with(Ordering::Relaxed)
    }

    /// Reclaims every orphaned slot. LFRC has no announcement rows or gift
    /// slots, so a dead thread's only recoverable resource is its
    /// allocation magazine: drain it back to the single free-list head and
    /// reopen the slot. Mirrors [`wfrc_core::WfrcDomain::adopt_orphans`]
    /// (same CAS-claimed exclusivity, same report type; the announcement
    /// and gift fields stay 0 here).
    ///
    /// Like the WFRC adopter, runs injection-shielded (see
    /// `wfrc_core::fault::shielded`) so the corpse's still-armed fault
    /// rules cannot fire inside its recovery.
    pub fn adopt_orphans(&self) -> wfrc_core::AdoptReport {
        #[cfg(feature = "fault-injection")]
        return wfrc_core::fault::shielded(|| self.adopt_orphans_impl());
        #[cfg(not(feature = "fault-injection"))]
        self.adopt_orphans_impl()
    }

    fn adopt_orphans_impl(&self) -> wfrc_core::AdoptReport {
        let mut report = wfrc_core::AdoptReport::default();
        for (tid, slot) in self.slots.iter().enumerate() {
            // Acquire claim pairs with the Release orphaning swap, making
            // the corpse's magazine vector visible to this drain.
            if !slot.cas_with(
                SLOT_ORPHANED,
                SLOT_TAKEN,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                continue;
            }
            let c = OpCounters::new();
            report.magazine_nodes_recovered += self.pool.drain_magazine(tid, &c, usize::MAX);
            // Per-class magazines are the corpse's only class-side
            // resource (LFRC classes have no gifts or announcements).
            for class in self.classes.iter() {
                report.class_nodes_recovered += class.drain_magazine(tid, &c);
            }
            // Release reopens the slot, publishing the recovery to the
            // `register` that next claims this id.
            slot.store_with(SLOT_FREE, Ordering::Release);
            report.orphans_adopted += 1;
        }
        // Relaxed: monotonic telemetry counters, read by diagnostics only.
        self.orphans_adopted
            .faa_with(report.orphans_adopted as isize, Ordering::Relaxed);
        self.orphan_nodes_recovered
            .faa_with(report.nodes_recovered() as isize, Ordering::Relaxed);
        report
    }

    /// Node pool size (current, including grown segments).
    pub fn capacity(&self) -> usize {
        self.pool.arena.capacity()
    }

    /// Number of arena segments currently published (1 until growth).
    pub fn segment_count(&self) -> usize {
        self.pool.arena.segment_count()
    }

    /// Cumulative segments retired by [`LfrcDomain::reclaim_quiescent`].
    pub fn segments_retired(&self) -> usize {
        self.pool.arena.segments_retired()
    }

    /// Cumulative RETIRED slots revived by growth.
    pub fn segments_revived(&self) -> usize {
        self.pool.arena.segments_revived()
    }

    /// Retires the trailing node-pool segment if every one of its nodes is
    /// free, returning its slab to the allocator. Returns `true` when a
    /// segment was retired (call again to shrink further).
    ///
    /// Stop-the-world — `&mut self` is the quiescence proof, since LFRC has
    /// no epochs to reclaim beside live handles: the apples-to-apples
    /// counterpart of `wfrc_core::ThreadHandle::reclaim` for the E5
    /// `--reclaim` experiment.
    pub fn reclaim_quiescent(&mut self) -> bool {
        self.pool.reclaim_quiescent()
    }

    /// Quiescent audit, same classification as
    /// [`wfrc_core::WfrcDomain::leak_check`] (LFRC has neither gift parking
    /// nor deferred lists, so `parked_gifts` and `deferred_nodes` are
    /// always 0).
    pub fn leak_check(&self) -> wfrc_core::LeakReport {
        let arena = &self.pool.arena;
        let mut report = wfrc_core::LeakReport {
            capacity: arena.capacity(),
            segments: arena.segment_count(),
            resident_segments: arena.segment_count(),
            segments_retired: arena.segments_retired(),
            ..Default::default()
        };
        // LFRC counts on every deref, so nothing is ever deferred and an
        // "upgrade" is just a counted deref; `deferred_decs` stays 0.
        self.stats.report(&mut report);
        report.count(&self.pool.census());
        report.classes = self.classes.iter().map(|c| c.leak()).collect();
        report
    }
}

// SAFETY: same argument as WfrcDomain — all shared state is atomic, payload
// access is protocol-mediated, T: Send + Sync via RcObject.
unsafe impl<T: RcObject> Sync for LfrcDomain<T> {}
unsafe impl<T: RcObject> Send for LfrcDomain<T> {}

/// A registered thread's view of an [`LfrcDomain`]. Mirrors
/// [`wfrc_core::ThreadHandle`]'s raw layer so data structures can be generic
/// over both schemes.
pub struct LfrcHandle<'d, T: RcObject> {
    domain: &'d LfrcDomain<T>,
    tid: usize,
    counters: OpCounters,
    _not_sync: PhantomData<core::cell::Cell<()>>,
}

impl<'d, T: RcObject> LfrcHandle<'d, T> {
    /// This handle's thread id.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// The domain this handle belongs to.
    pub fn domain(&self) -> &'d LfrcDomain<T> {
        self.domain
    }

    /// The handle's operation counters.
    pub fn counters(&self) -> &OpCounters {
        &self.counters
    }

    /// Allocates a node from the single free-list (lock-free: retries on
    /// CAS failure). Returns a node with one reference (`mm_ref == 2`) and
    /// stale payload.
    pub fn alloc_raw(&self) -> Result<*mut Node<T>, OutOfMemory> {
        self.domain.pool.alloc(self.tid, &self.counters)
    }

    /// Valois/Michael–Scott `DeRefLink`: optimistic increment + re-check,
    /// retried unboundedly.
    ///
    /// # Safety
    /// `link` must only ever hold nodes of this handle's domain.
    pub unsafe fn deref_raw(&self, link: &Link<T>) -> *mut Node<T> {
        OpCounters::bump(&self.counters.deref_calls);
        let mut backoff = Backoff::new();
        let mut retries: u64 = 0;
        loop {
            // Raw word, possibly carrying a deletion mark in bit 0 — a
            // marked link still points to its node.
            let raw = link.load_raw();
            let node = wfrc_primitives::tagged::without_tag(raw);
            if node.is_null() {
                self.note_deref_retries(retries);
                return node;
            }
            // Between the read and the optimistic FAA — the race Valois'
            // re-check loop pays for. A death here holds nothing yet.
            #[cfg(feature = "fault-injection")]
            self.fault_hit(FaultSite::DerefFaa);
            // SAFETY: arena node; type-stable header makes the optimistic
            // FAA safe even if the node was just reclaimed.
            unsafe { (*node).faa_ref(2) };
            // Re-check against the raw word (mark included): a mark-only
            // change leaves the target identical, so it must not retry.
            if link.load_raw() == raw {
                self.note_deref_retries(retries);
                return node;
            }
            // The link moved on: our increment may be on a stale or even
            // reclaimed node. Undo and retry — this is the unbounded loop
            // the wait-free scheme eliminates.
            retries += 1;
            // SAFETY: we own the +2 we just added.
            unsafe { self.release_raw(node) };
            if self.domain.pool.tuning.backoff {
                backoff.snooze();
            }
        }
    }

    fn note_deref_retries(&self, retries: u64) {
        OpCounters::add(&self.counters.deref_retries, retries);
        OpCounters::record_max(&self.counters.max_deref_retries, retries);
    }

    /// `ReleaseRef`: identical semantics to the wait-free scheme's
    /// (including the iterative drain of held links), but reclaimed nodes
    /// go to the single contended free-list.
    ///
    /// # Safety
    /// The caller must own an unreleased reference on `node` (non-null,
    /// this domain).
    pub unsafe fn release_raw(&self, node: *mut Node<T>) {
        // SAFETY: forwarded caller contract.
        unsafe { self.domain.pool.release(self.tid, &self.counters, node) };
    }

    /// [`LfrcPool::fault_hit`] under this handle's identity.
    #[cfg(feature = "fault-injection")]
    #[inline]
    fn fault_hit(&self, site: FaultSite) {
        self.domain.pool.fault_hit(self.tid, &self.counters, site);
    }

    /// Number of nodes currently parked in this thread's magazine.
    pub fn magazine_len(&self) -> usize {
        // SAFETY: this handle is the exclusive owner of `tid`'s slot.
        unsafe { self.domain.pool.mag.len(self.tid) }
    }

    /// `FixRef(node, 2·refs)`.
    ///
    /// # Safety
    /// Caller must already own a reference on `node`.
    pub unsafe fn add_ref_raw(&self, node: *mut Node<T>, refs: usize) {
        debug_assert!(!node.is_null());
        // SAFETY: arena node.
        unsafe { (*node).faa_ref(2 * refs as isize) };
    }

    /// Link CAS. LFRC has no helping obligation — a plain CAS is the whole
    /// protocol. Count discipline is the caller's, exactly as in
    /// [`wfrc_core::ThreadHandle::cas_link_raw`].
    ///
    /// # Safety
    /// `old`/`new` must be null or nodes of this domain; the caller owns
    /// the reference transferred on `new`.
    pub unsafe fn cas_link_raw(
        &self,
        link: &Link<T>,
        old: *mut Node<T>,
        new: *mut Node<T>,
    ) -> bool {
        link.cas_raw(old, new)
    }

    /// Direct write of an **unpublished** link (previous value ⊥).
    ///
    /// # Safety
    /// Same contract as [`wfrc_core::ThreadHandle::store_link_raw`].
    pub unsafe fn store_link_raw(&self, link: &Link<T>, node: *mut Node<T>) {
        debug_assert!(link.is_null());
        link.store_raw(node);
    }

    /// Shared payload access.
    ///
    /// # Safety
    /// Caller must hold a reference on `node` for the borrow's duration.
    pub unsafe fn payload_raw(&self, node: *mut Node<T>) -> &T {
        // SAFETY: forwarded contract.
        unsafe { (*node).payload() }
    }

    /// Exclusive payload access (fresh unpublished node).
    ///
    /// # Safety
    /// Caller must own `node` exclusively.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn payload_mut_raw(&self, node: *mut Node<T>) -> &mut T {
        // SAFETY: forwarded contract.
        unsafe { (*node).payload_mut() }
    }

    // ------------------------------------------------------------------
    // Snapshot layer mirror (apples-to-apples with wfrc-core's §4f)
    // ------------------------------------------------------------------

    /// No-op pin entry mirroring [`wfrc_core::ThreadHandle::pin_raw`]: LFRC
    /// has no epoch or pin bitmap, so nothing is published — it exists so
    /// the E4 `--snapshot` readers run the *same* enter + plain load + exit
    /// sequence over both schemes and measure only the protocol
    /// difference. LFRC's plain load is **unprotected** (that is the
    /// baseline's known unsafety window), which is why
    /// [`LfrcHandle::snapshot_raw`] stays `unsafe`.
    pub fn pin_raw(&self) {}

    /// No-op pin exit (mirrors [`wfrc_core::ThreadHandle::unpin_raw`]).
    ///
    /// # Safety
    /// Trivially safe — present only for signature parity with the
    /// wait-free scheme.
    pub unsafe fn unpin_raw(&self) {}

    /// Plain (`SeqCst`) load of `link`, deletion mark stripped, counted as
    /// a snapshot deref — the baseline twin of
    /// [`wfrc_core::ThreadHandle::snapshot_raw`]. Carries no reference
    /// count **and no protection**: LFRC has no deferral machinery.
    ///
    /// # Safety
    /// The caller must otherwise guarantee the target cannot be reclaimed
    /// while the pointer is dereferenced (e.g. a standing reference held
    /// for the benchmark's duration).
    #[must_use = "the returned pointer is unprotected; the caller guarantees liveness"]
    pub unsafe fn snapshot_raw(&self, link: &Link<T>) -> *mut Node<T> {
        OpCounters::bump(&self.counters.snapshot_derefs);
        wfrc_primitives::tagged::without_tag(link.load_raw())
    }

    // ------------------------------------------------------------------
    // Weak layer mirror (apples-to-apples with wfrc-core's §4g)
    // ------------------------------------------------------------------

    /// Adds one weak reference to `node` — the raw twin of
    /// [`wfrc_core::ThreadHandle::downgrade`]. The caller becomes
    /// responsible for a matching [`LfrcHandle::release_weak_raw`].
    ///
    /// # Safety
    /// The caller must hold a strong reference on `node` (non-null, this
    /// domain) for the duration of the call.
    pub unsafe fn downgrade_raw(&self, node: *mut Node<T>) {
        debug_assert!(!node.is_null());
        OpCounters::bump(&self.counters.weak_downgrades);
        // SAFETY: arena node; caller's strong reference keeps it live.
        unsafe { (*node).faa_weak(1) };
    }

    /// Attempts to turn a weak reference into a strong one: on `true` the
    /// caller owns one new strong reference on `node` (the weak reference
    /// is untouched). The raw twin of `wfrc_core::Weak::upgrade`.
    ///
    /// # Safety
    /// The caller must hold a weak reference on `node` (it pins the header
    /// against finalize and recycling for the duration of the call).
    pub unsafe fn upgrade_raw(&self, node: *mut Node<T>) -> bool {
        debug_assert!(!node.is_null());
        OpCounters::bump(&self.counters.weak_upgrades);
        // Holds nothing yet — a death here loses only the attempt.
        #[cfg(feature = "fault-injection")]
        self.fault_hit(FaultSite::WeakUpgrade);
        // SAFETY: caller's weak reference keeps the header stable.
        if unsafe { (*node).try_upgrade() } {
            true
        } else {
            OpCounters::bump(&self.counters.upgrade_failed);
            false
        }
    }

    /// Drops one weak reference; the last one off a DEAD header frees the
    /// node.
    ///
    /// # Safety
    /// The caller must own an unreleased weak reference on `node`.
    pub unsafe fn release_weak_raw(&self, node: *mut Node<T>) {
        debug_assert!(!node.is_null());
        // SAFETY: forwarded caller contract.
        unsafe {
            self.domain
                .pool
                .release_weak(self.tid, &self.counters, node)
        };
    }

    /// Stores `new` into the weak link `w`, transferring one weak unit onto
    /// `new` and dropping the displaced target's — the raw twin of
    /// [`wfrc_core::ThreadHandle::store_weak`].
    ///
    /// # Safety
    /// `new` must be null or a node of this domain on which the caller
    /// holds a strong reference; `w` must only ever hold nodes of this
    /// domain.
    pub unsafe fn store_weak_raw(&self, w: &AtomicWeak<T>, new: *mut Node<T>) {
        if !new.is_null() {
            OpCounters::bump(&self.counters.weak_downgrades);
            // SAFETY: caller's strong reference keeps `new` live.
            unsafe { (*new).faa_weak(1) };
        }
        let old = w.inner().swap_raw(new);
        if !old.is_null() {
            // SAFETY: the link owned one weak unit on `old`.
            unsafe { self.release_weak_raw(old) };
        }
    }

    /// Reads the weak link `w` and upgrades the target in one step: returns
    /// a node the caller holds one **strong** reference on, or null if the
    /// link is empty or its target died. Runs the Valois optimistic
    /// deref (unbounded retries) against the inner link, then validates the
    /// claim bit — the baseline twin of
    /// [`wfrc_core::ThreadHandle::load_weak`].
    ///
    /// # Safety
    /// `w` must only ever hold nodes of this handle's domain.
    pub unsafe fn load_weak_raw(&self, w: &AtomicWeak<T>) -> *mut Node<T> {
        OpCounters::bump(&self.counters.weak_upgrades);
        // SAFETY: forwarded caller contract. The link's own weak unit keeps
        // the target's header unrecycled while it remains the target, so
        // the optimistic FAA lands on a stable header.
        let node = unsafe { self.deref_raw(w.inner()) };
        if node.is_null() {
            OpCounters::bump(&self.counters.upgrade_failed);
            return node;
        }
        // We now hold a (possibly speculative) +2 on the target. A death
        // here must release it or the node leaks.
        #[cfg(feature = "fault-injection")]
        self.domain
            .pool
            .fault_hit_or(self.tid, &self.counters, FaultSite::WeakUpgrade, || {
                // SAFETY: releases the count taken above.
                unsafe { self.release_raw(node) };
            });
        // SAFETY: our +2 keeps the header pinned while we validate.
        if unsafe { (*node).is_claimed() } {
            // Target is DEAD (or back on the free-list): the speculative
            // count is not a live reference — undo it (this may inherit
            // the finalize, see `release_raw_body`'s Busy arm).
            OpCounters::bump(&self.counters.upgrade_failed);
            // SAFETY: releases the count taken above.
            unsafe { self.release_raw(node) };
            return ptr::null_mut();
        }
        node
    }

    // ------------------------------------------------------------------
    // Byte-class layer (mirrors `wfrc_core::ThreadHandle`'s)
    // ------------------------------------------------------------------

    /// Number of byte classes configured on this domain.
    pub fn class_count(&self) -> usize {
        self.domain.classes.len()
    }

    /// Allocates a block from the smallest class that fits `bytes` and
    /// copies `bytes` in — the LFRC twin of
    /// [`wfrc_core::ThreadHandle::alloc_bytes`] (lock-free: the class
    /// head's Treiber CAS can retry unboundedly).
    ///
    /// # Panics
    /// If no configured class has `block_size >= bytes.len()`.
    pub fn alloc_bytes(&self, bytes: &[u8]) -> Result<RawBytes, OutOfMemory> {
        let (idx, cls) = self
            .domain
            .classes
            .iter()
            .enumerate()
            .filter(|(_, cls)| cls.block_size() >= bytes.len())
            .min_by_key(|(_, cls)| cls.block_size())
            .unwrap_or_else(|| panic!("no configured byte class fits {} bytes", bytes.len()));
        let node = cls.alloc(self.tid, &self.counters)?;
        let data = cls.data_ptr(node);
        // SAFETY: freshly popped block, exclusively ours; the class fits.
        unsafe { core::ptr::copy_nonoverlapping(bytes.as_ptr(), data, bytes.len()) };
        OpCounters::bump(&self.counters.class_allocs[idx]);
        Ok(RawBytes::from_raw_parts(idx, bytes.len(), node))
    }

    /// The bytes stored behind `token`.
    ///
    /// # Safety
    /// Same contract as [`wfrc_core::ThreadHandle::bytes`].
    pub unsafe fn bytes(&self, token: &RawBytes) -> &[u8] {
        let cls = &self.domain.classes[token.class_index()];
        let data = cls.data_ptr(token.node_ptr());
        // SAFETY: per contract the block is live and unaliased by writers.
        unsafe { core::slice::from_raw_parts(data, token.len()) }
    }

    /// Returns `token`'s block to its class free-list.
    ///
    /// # Safety
    /// Same contract as [`wfrc_core::ThreadHandle::free_bytes`].
    pub unsafe fn free_bytes(&self, token: RawBytes) {
        let idx = token.class_index();
        let cls = &self.domain.classes[idx];
        // SAFETY: forwarded contract.
        unsafe { cls.free(self.tid, &self.counters, token.node_ptr()) };
        OpCounters::bump(&self.counters.class_frees[idx]);
    }

    /// Drains this handle's magazines (node pool and byte classes) back
    /// to the shared free structures without dropping the handle — the
    /// baseline twin of [`wfrc_core::ThreadHandle::flush_magazines`],
    /// used by the lease pool's `flush_on_release` policy.
    pub fn flush_magazines(&self) {
        self.domain
            .pool
            .drain_magazine(self.tid, &self.counters, usize::MAX);
        for cls in self.domain.classes.iter() {
            cls.drain_magazine(self.tid, &self.counters);
        }
    }

    /// Deliberately orphans this handle for
    /// [`LfrcDomain::adopt_orphans`], exactly like
    /// [`wfrc_core::ThreadHandle::abandon`].
    pub fn abandon(self) {
        // Release publishes this thread's magazine state to the adopter's
        // Acquire claim.
        let was = self.domain.slots[self.tid].swap_with(SLOT_ORPHANED, Ordering::Release);
        debug_assert_eq!(was, SLOT_TAKEN);
        core::mem::forget(self);
    }
}

impl<T: RcObject> Drop for LfrcHandle<'_, T> {
    fn drop(&mut self) {
        // Fold the snapshot-path counters into the domain-lifetime stats
        // on both exit paths, mirroring `wfrc_core::ThreadHandle`.
        self.domain.stats.fold(&self.counters.snapshot());
        // A panicking thread leaves recovery to `adopt_orphans`, same as
        // `wfrc_core::ThreadHandle`.
        if std::thread::panicking() {
            // Release: publish the dying thread's state to the adopter.
            let was = self.domain.slots[self.tid].swap_with(SLOT_ORPHANED, Ordering::Release);
            debug_assert_eq!(was, SLOT_TAKEN);
            return;
        }
        // Return magazine-parked nodes (node pool and every byte class)
        // strictly before the thread id becomes claimable, same as
        // `wfrc_core::ThreadHandle`.
        self.flush_magazines();
        // Release: pairs with the Acquire claim of the next `register`.
        let was = self.domain.slots[self.tid].swap_with(SLOT_FREE, Ordering::Release);
        debug_assert_eq!(was, SLOT_TAKEN);
    }
}

/// The lease pool runs over the baseline unmodified: registration,
/// abandonment, and adoption have the same shape, so the E12 server bench
/// compares the schemes behind one [`wfrc_core::lease::LeasePool`] API.
impl<T: RcObject> wfrc_core::lease::LeaseRegistry for LfrcDomain<T> {
    type Handle<'d>
        = LfrcHandle<'d, T>
    where
        Self: 'd;

    fn try_register_handle(&self) -> Result<Self::Handle<'_>, wfrc_core::domain::RegistryFull> {
        self.try_register()
    }

    fn abandon_handle<'d>(&'d self, handle: Self::Handle<'d>) {
        handle.abandon();
    }

    fn adopt_all(&self) -> wfrc_core::AdoptReport {
        self.adopt_orphans()
    }

    fn flush_handle<'d>(&'d self, handle: &Self::Handle<'d>) {
        handle.flush_magazines();
    }

    fn handle_tid(handle: &Self::Handle<'_>) -> usize {
        handle.tid()
    }

    #[cfg(feature = "fault-injection")]
    fn lease_fault<'d>(&'d self, handle: &Self::Handle<'d>) {
        handle.fault_hit(FaultSite::LeaseExpire);
    }
}

/// The LFRC registry under [`wfrc_core::sentinel`] supervision — the
/// apples-to-apples mirror of the WFRC domain's impl, so the same
/// `Sentinel` (and the same E10/E12 harness code) drives recovery over
/// both schemes. LFRC has no operation epochs, announcement bits, or
/// retire claims, so the only obligation a slot can hold is being
/// `ORPHANED`, and the slot word itself is the progress fingerprint.
impl<T: RcObject> wfrc_core::sentinel::Supervised for LfrcDomain<T> {
    fn watch_slots(&self) -> usize {
        self.slots.len()
    }

    fn obligated(&self, slot: usize) -> bool {
        // SeqCst mirrors the WFRC impl: never lag a completed orphaning.
        self.slots[slot].load_with(Ordering::SeqCst) == SLOT_ORPHANED
    }

    fn fingerprint(&self, slot: usize) -> u64 {
        self.slots[slot].load_with(Ordering::SeqCst) as u64
    }

    fn help(&self, slot: usize) -> bool {
        self.obligated(slot) && self.adopt_orphans().orphans_adopted > 0
    }

    fn declare_dead(&self, slot: usize) -> bool {
        // Adoption only ever touches ORPHANED slots — same conservatism as
        // the WFRC domain: a live registration is never seized.
        self.help(slot)
    }
}

/// Object-safe operations of one LFRC byte class — the baseline twin of
/// the erased trait in `wfrc_core::class`, minus everything the scheme
/// lacks (epochs, announcements, gifts, concurrent reclamation).
trait LfrcClassOps: Send + Sync {
    /// Block size in bytes.
    fn block_size(&self) -> usize;
    /// Current block capacity of the class arena.
    fn capacity(&self) -> usize;
    /// Number of live (non-retired) segments backing the class.
    fn segment_count(&self) -> usize;
    /// Allocates one block (stale contents); lock-free Treiber pop.
    fn alloc(&self, tid: usize, c: &OpCounters) -> Result<*mut u8, OutOfMemory>;
    /// Address of the block's payload bytes.
    fn data_ptr(&self, node: *mut u8) -> *mut u8;
    /// Frees a block previously returned by `alloc`.
    ///
    /// # Safety
    /// `node` must be an unfreed allocation of **this** class; `tid` must
    /// be the caller's registered slot.
    unsafe fn free(&self, tid: usize, c: &OpCounters, node: *mut u8);
    /// Drains slot `tid`'s class magazine back to the single head (handle
    /// flush, or orphan recovery); returns the number of blocks drained.
    fn drain_magazine(&self, tid: usize, c: &OpCounters) -> usize;
    /// Stop-the-world tail-segment retire (`&mut`: quiescence by borrow).
    fn reclaim_quiescent(&mut self) -> bool;
    /// Quiescent audit of the class.
    fn leak(&self) -> ClassLeak;
    /// Installs the domain's backoff switch and fault schedule.
    fn set_tuning(&mut self, tuning: Tuning);
}

/// One LFRC byte class: an [`LfrcPool`] over page-carved `RawBuf<N>`
/// blocks. Blocks are leaves holding exactly one reference, so the pool's
/// `alloc`/`release` are the whole allocation protocol; the class adds only
/// the block geometry and the size-erasing trait.
struct LfrcByteClass<const N: usize> {
    pool: LfrcPool<RawBuf<N>>,
}

impl<const N: usize> LfrcClassOps for LfrcByteClass<N> {
    fn block_size(&self) -> usize {
        N
    }

    fn capacity(&self) -> usize {
        self.pool.arena.capacity()
    }

    fn segment_count(&self) -> usize {
        self.pool.arena.segment_count()
    }

    fn alloc(&self, tid: usize, c: &OpCounters) -> Result<*mut u8, OutOfMemory> {
        Ok(self.pool.alloc(tid, c)? as *mut u8)
    }

    fn data_ptr(&self, node: *mut u8) -> *mut u8 {
        let node = node as *mut Node<RawBuf<N>>;
        // SAFETY: per the alloc/free contracts `node` is a block of this
        // class; `payload_ptr` forms no payload reference (RawBuf is
        // repr(transparent), so the payload address is the data address).
        unsafe { (*node).payload_ptr() as *mut u8 }
    }

    unsafe fn free(&self, tid: usize, c: &OpCounters, node: *mut u8) {
        // SAFETY: forwarded contract — the allocation's one reference.
        unsafe { self.pool.release(tid, c, node as *mut Node<RawBuf<N>>) };
    }

    fn drain_magazine(&self, tid: usize, c: &OpCounters) -> usize {
        self.pool.drain_magazine(tid, c, usize::MAX)
    }

    fn reclaim_quiescent(&mut self) -> bool {
        self.pool.reclaim_quiescent()
    }

    fn leak(&self) -> ClassLeak {
        let arena = &self.pool.arena;
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

    fn set_tuning(&mut self, tuning: Tuning) {
        self.pool.tuning = tuning;
    }
}

/// Monomorphization dispatch, mirroring `wfrc_core::class`'s: size →
/// `LfrcByteClass<N>` behind the object-safe trait.
fn build_lfrc_class(cfg: &ClassConfig, n: usize, tuning: Tuning) -> Box<dyn LfrcClassOps> {
    fn class<const N: usize>(cfg: &ClassConfig, n: usize, tuning: Tuning) -> Box<dyn LfrcClassOps> {
        let pool = LfrcPool::new(class_arena::<N>(cfg), n, cfg.magazine, tuning);
        Box::new(LfrcByteClass { pool })
    }
    match cfg.size {
        64 => class::<64>(cfg, n, tuning),
        128 => class::<128>(cfg, n, tuning),
        256 => class::<256>(cfg, n, tuning),
        512 => class::<512>(cfg, n, tuning),
        1024 => class::<1024>(cfg, n, tuning),
        2048 => class::<2048>(cfg, n, tuning),
        4096 => class::<4096>(cfg, n, tuning),
        other => panic!(
            "unsupported class size {other} (supported: {:?})",
            wfrc_core::CLASS_SIZES
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_release_roundtrip() {
        let d = LfrcDomain::<u64>::new(1, 4);
        let h = d.register().unwrap();
        let n = h.alloc_raw().unwrap();
        // SAFETY: fresh node, we own it.
        unsafe {
            *h.payload_mut_raw(n) = 7;
            assert_eq!(*h.payload_raw(n), 7);
            assert_eq!((*n).ref_count(), 1);
            h.release_raw(n);
        }
        assert!(d.leak_check().is_clean());
    }

    #[test]
    fn alloc_exhausts_then_recovers() {
        let d = LfrcDomain::<u64>::new(1, 3);
        let h = d.register().unwrap();
        let nodes: Vec<_> = (0..3).map(|_| h.alloc_raw().unwrap()).collect();
        assert_eq!(h.alloc_raw(), Err(OutOfMemory));
        // SAFETY: we own all three references.
        unsafe {
            for n in nodes {
                h.release_raw(n);
            }
        }
        assert!(h.alloc_raw().is_ok());
    }

    #[test]
    fn deref_increments_and_recheck_passes_uncontended() {
        let d = LfrcDomain::<u64>::new(1, 4);
        let h = d.register().unwrap();
        let n = h.alloc_raw().unwrap();
        let link = Link::null();
        // SAFETY: transfer our reference into the link, then re-acquire.
        unsafe {
            h.store_link_raw(&link, n);
            let p = h.deref_raw(&link);
            assert_eq!(p, n);
            assert_eq!((*n).ref_count(), 2);
            h.release_raw(p);
            // Clear the link, releasing its count.
            assert!(h.cas_link_raw(&link, n, ptr::null_mut()));
            h.release_raw(n);
        }
        assert!(d.leak_check().is_clean());
        assert_eq!(h.counters().snapshot().max_deref_retries, 0);
    }

    #[test]
    fn release_drains_children() {
        struct Cell {
            next: Link<Cell>,
        }
        impl RcObject for Cell {
            fn each_link(&self, f: &mut dyn FnMut(&Link<Self>)) {
                f(&self.next);
            }
        }
        impl Default for Cell {
            fn default() -> Self {
                Cell { next: Link::null() }
            }
        }
        let d = LfrcDomain::<Cell>::new(1, 100);
        let h = d.register().unwrap();
        // SAFETY: standard raw-chain construction; counts transferred.
        unsafe {
            let mut head = h.alloc_raw().unwrap();
            for _ in 1..100 {
                let prev = h.alloc_raw().unwrap();
                h.store_link_raw(&h.payload_raw(prev).next, head);
                head = prev;
            }
            h.release_raw(head);
        }
        assert!(d.leak_check().is_clean());
    }

    #[test]
    fn weak_refs_upgrade_then_die_then_finalize() {
        let d = LfrcDomain::<u64>::new(1, 4);
        let h = d.register().unwrap();
        let n = h.alloc_raw().unwrap();
        // SAFETY: standard raw count discipline throughout.
        unsafe {
            h.downgrade_raw(n);
            assert!(h.upgrade_raw(n)); // strong 1 -> 2
            h.release_raw(n); // 2 -> 1
            h.release_raw(n); // 1 -> 0: DEAD-but-weak, not freed
            assert!((*n).is_dead());
            assert!(!h.upgrade_raw(n));
            let mid = d.leak_check();
            assert_eq!(mid.weak_nodes, 1);
            assert_eq!(mid.weak_count, 1);
            assert!(!mid.is_clean());
            h.release_weak_raw(n); // last weak unit finalizes + frees
        }
        let s = h.counters().snapshot();
        assert_eq!(s.weak_downgrades, 1);
        assert_eq!(s.weak_upgrades, 2);
        assert_eq!(s.upgrade_failed, 1);
        drop(h);
        let r = d.leak_check();
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.weak_upgrades, 2);
        assert_eq!(r.upgrade_failed, 1);
    }

    #[test]
    fn weak_links_load_store_and_strip_on_release() {
        #[derive(Default)]
        struct P {
            w: AtomicWeak<P>,
        }
        impl RcObject for P {
            fn each_link(&self, _f: &mut dyn FnMut(&Link<Self>)) {}
            fn each_weak_link(&self, f: &mut dyn FnMut(&AtomicWeak<Self>)) {
                f(&self.w);
            }
        }
        let d = LfrcDomain::<P>::new(1, 4);
        let h = d.register().unwrap();
        let a = h.alloc_raw().unwrap();
        let b = h.alloc_raw().unwrap();
        // SAFETY: standard raw count discipline throughout.
        unsafe {
            h.store_weak_raw(&h.payload_raw(a).w, b);
            let got = h.load_weak_raw(&h.payload_raw(a).w);
            assert_eq!(got, b);
            assert_eq!((*b).ref_count(), 2);
            h.release_raw(got);
            // Dropping b's last strong ref leaves it DEAD (the link's weak
            // unit pins the header) — and a load must now fail clean.
            h.release_raw(b);
            assert!((*b).is_dead());
            assert!(h.load_weak_raw(&h.payload_raw(a).w).is_null());
            // Releasing a strips its weak link, finalizing b.
            h.release_raw(a);
        }
        drop(h);
        assert!(d.leak_check().is_clean());
    }

    #[test]
    fn magazine_roundtrip_hits_and_drains_on_drop() {
        let mut d = LfrcDomain::<u64>::new(1, 64);
        d.set_magazine(8);
        assert_eq!(d.magazine_cap(), 8);
        let h = d.register().unwrap();
        for _ in 0..100 {
            let n = h.alloc_raw().unwrap();
            // SAFETY: we own the reference.
            unsafe { h.release_raw(n) };
        }
        let s = h.counters().snapshot();
        assert!(s.magazine_hits > 0, "no magazine hits: {s:?}");
        assert!(h.magazine_len() > 0);
        let mid = d.leak_check();
        assert!(mid.is_clean(), "{mid:?}");
        assert!(mid.magazine_nodes > 0);
        drop(h);
        let report = d.leak_check();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.magazine_nodes, 0);
        assert_eq!(report.free_nodes, 64);
    }

    #[test]
    fn quiescent_reclaim_oscillates_capacity() {
        let mut d = LfrcDomain::<u64>::with_growth(
            2,
            8,
            Growth::Enabled {
                factor: 2,
                max_capacity: 64,
            },
        );
        for _ in 0..5 {
            {
                let h = d.register().unwrap();
                let nodes: Vec<_> = (0..20).map(|_| h.alloc_raw().unwrap()).collect();
                assert!(d.segment_count() > 1);
                // SAFETY: we own every reference.
                unsafe {
                    for n in nodes {
                        h.release_raw(n);
                    }
                }
            }
            while d.reclaim_quiescent() {}
            assert_eq!(d.segment_count(), 1, "trailing segments not retired");
            assert_eq!(d.capacity(), 8);
            let r = d.leak_check();
            assert!(r.is_clean(), "{r:?}");
            assert_eq!(r.free_nodes, 8);
        }
        assert!(d.segments_retired() >= 5);
        assert!(d.segments_revived() >= 4);
    }

    #[test]
    fn quiescent_reclaim_aborts_on_live_node() {
        let mut d = LfrcDomain::<u64>::with_growth(
            1,
            4,
            Growth::Enabled {
                factor: 2,
                max_capacity: 32,
            },
        );
        let held;
        {
            let h = d.register().unwrap();
            let nodes: Vec<_> = (0..8).map(|_| h.alloc_raw().unwrap()).collect();
            // SAFETY: we own every reference; keep the last-allocated one
            // (it lives in the grown tail segment).
            unsafe {
                for &n in &nodes[..7] {
                    h.release_raw(n);
                }
            }
            held = nodes[7];
        }
        assert!(d.segment_count() > 1);
        assert!(!d.reclaim_quiescent(), "retired a segment with a live node");
        assert!(d.segment_count() > 1);
        {
            let h = d.register().unwrap();
            // SAFETY: the held reference survived the failed reclaim.
            unsafe { h.release_raw(held) };
        }
        while d.reclaim_quiescent() {}
        assert_eq!(d.segment_count(), 1);
        assert!(d.leak_check().is_clean());
    }

    #[test]
    fn byte_class_roundtrip_and_audit() {
        let mut d = LfrcDomain::<u64>::new(1, 4);
        d.set_classes(vec![ClassConfig::new(64, 8), ClassConfig::new(256, 8)]);
        assert_eq!(d.class_count(), 2);
        assert_eq!(d.class_block_size(1), 256);
        let h = d.register().unwrap();
        let small = h.alloc_bytes(b"tiny").unwrap();
        assert_eq!(small.class_index(), 0);
        let big = h.alloc_bytes(&[9u8; 200]).unwrap();
        assert_eq!(big.class_index(), 1);
        let mid = d.leak_check();
        assert_eq!(mid.classes.len(), 2);
        assert_eq!(mid.classes[0].live_nodes, 1);
        assert_eq!(mid.classes[1].live_nodes, 1);
        assert!(!mid.is_clean());
        // SAFETY: live tokens, no concurrent writers.
        unsafe {
            assert_eq!(h.bytes(&small), b"tiny");
            assert_eq!(h.bytes(&big), &[9u8; 200][..]);
            h.free_bytes(small);
            h.free_bytes(big);
        }
        let snap = h.counters().snapshot();
        assert_eq!(snap.class_allocs[0], 1);
        assert_eq!(snap.class_frees[1], 1);
        drop(h);
        assert!(d.leak_check().is_clean(), "{}", d.leak_check());
    }

    #[test]
    fn byte_class_grows_and_reclaims_quiescently() {
        let mut d = LfrcDomain::<u64>::new(2, 4);
        d.set_classes(vec![ClassConfig::new(64, 8).with_growth(Growth::Enabled {
            factor: 2,
            max_capacity: 1024,
        })]);
        let base = d.class_capacity(0);
        {
            let h = d.register().unwrap();
            let tokens: Vec<_> = (0..base + 10)
                .map(|_| h.alloc_bytes(&[1u8; 64]).unwrap())
                .collect();
            assert!(d.class_capacity(0) > base, "class arena did not grow");
            // SAFETY: our own live tokens.
            unsafe {
                for t in tokens {
                    h.free_bytes(t);
                }
            }
        }
        while d.reclaim_class_quiescent(0) {}
        assert_eq!(d.class_capacity(0), base, "class capacity did not shrink");
        assert!(d.leak_check().is_clean());
    }

    #[test]
    fn class_magazines_survive_orphan_adoption() {
        let mut d = LfrcDomain::<u64>::new(1, 4);
        d.set_classes(vec![ClassConfig::new(128, 8).with_magazine(4)]);
        let h = d.register().unwrap();
        let t = h.alloc_bytes(&[2u8; 100]).unwrap();
        // SAFETY: our own live token; parks in the class magazine.
        unsafe { h.free_bytes(t) };
        h.abandon();
        let report = d.adopt_orphans();
        assert_eq!(report.orphans_adopted, 1);
        // The alloc batch-refilled half a magazine (2 blocks) like every
        // other pool; the free put the allocated one back beside the other.
        assert_eq!(report.class_nodes_recovered, 2);
        let audit = d.leak_check();
        assert!(audit.is_clean(), "{audit}");
        assert_eq!(audit.classes[0].magazine_nodes, 0);
    }

    #[test]
    fn concurrent_alloc_free_conserves_nodes() {
        use std::sync::Arc;
        let d = Arc::new(LfrcDomain::<u64>::new(4, 64));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    let h = d.register().unwrap();
                    for _ in 0..2_000 {
                        let n = h.alloc_raw().unwrap();
                        // SAFETY: we own the reference.
                        unsafe { h.release_raw(n) };
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(d.leak_check().is_clean());
    }
}
