//! Lock-free reference counting: the paper's comparator.
//!
//! This is the scheme of Valois (PhD thesis, 1995) with the Michael & Scott
//! (1995) correction — what the paper calls "the default lock-free memory
//! management scheme" in its §5 experiment. It shares everything with
//! `wfrc-core` except the two places the paper improves, and this file is
//! those two places: [`LfrcPool`], one [`wfrc_core::scheme::Pool`].
//!
//! * **Dereference** (`DeRefLink`): optimistically `FAA(+2)` the target and
//!   *re-check* the link; on mismatch, release and retry. The attempt is
//!   `wfrc_core::rc::try_deref_once`, the same body the wait-free scheme
//!   runs once before announcing; this file owns only the loop. "However, the
//!   number of repeats is unbounded" (paper §3) — a fast writer can starve
//!   a reader forever. The retry count is recorded per call so experiment
//!   E4 can plot the unboundedness against the wait-free scheme's zero.
//! * **Free-list**: a single Treiber list with one head. Every alloc and
//!   free CASes the same word; one winner fails all other attempts, so both
//!   operations are only lock-free (experiment E7 measures the resulting
//!   retry tails and starvation).
//!
//! Everything else — the node representation and the even/odd `mm_ref`
//! convention, the type-stable arena, `ReleaseRef`, the registration table,
//! orphan adoption, the handle with its raw, guard, weak and byte-class
//! layers, leasing and supervision — is `wfrc-core`'s own code, run over
//! this pool through the [`Lf`] scheme: [`LfrcHandle`] is
//! [`wfrc_core::Handle`] and [`LfrcDomain`] wraps [`wfrc_core::Domain`]. So
//! the experiments compare only the algorithmic difference. What the scheme
//! lacks stays absent: no helping, no epochs, no snapshot pins, no deferral,
//! no online segment retirement (the defaulted hooks of the seam).

use core::ptr;
use core::sync::atomic::Ordering;
use std::collections::HashSet;

use wfrc_core::arena::Arena;
use wfrc_core::counters::OpCounters;
#[cfg(feature = "fault-injection")]
use wfrc_core::fault::FaultSite;
use wfrc_core::lease::LeaseRegistry;
use wfrc_core::magazine::{clamped_cap, Magazines};
use wfrc_core::node::chain_tail;
use wfrc_core::oom::OutOfMemory;
use wfrc_core::rc::try_deref_once;
use wfrc_core::scheme::{Pool, Scheme, Tuning};
use wfrc_core::{census, AdoptReport, Census, Domain, DomainConfig, Growth, Handle};
use wfrc_core::{Link, Node, RcObject, RegistryFull};
use wfrc_primitives::{Backoff, CachePadded, WordPtr};

/// The lock-free scheme of Valois / Michael & Scott.
#[derive(Debug, Clone, Copy)]
pub struct Lf;

impl Scheme for Lf {
    type Pool<T: RcObject> = LfrcPool<T>;
    const NAME: &'static str = "lfrc";
    /// LFRC has no deferral machinery: a plain-loaded pointer is
    /// unprotected (the baseline's known unsafety window).
    const SNAPSHOT_PROTECTED: bool = false;
}

/// The scheme's memory pool: a segmented arena behind a **single** Treiber
/// head (the signature bottleneck) plus optional per-thread magazines. The
/// node domain owns one; every byte class owns one over its block type.
pub struct LfrcPool<T: RcObject> {
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
    /// Replaces the magazines by ones of (at most) `cap` nodes, clamped
    /// exactly like [`wfrc_core::DomainConfig::with_magazine`]. Before the
    /// pool is shared: the old magazines are necessarily empty.
    fn set_magazine(&mut self, cap: usize) {
        let cap = clamped_cap(cap, self.arena.capacity(), self.threads);
        self.mag = Magazines::new(self.threads, cap);
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

    /// Magazine fast path of `alloc_node`: pop locally, refilling from the
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
        self.fault_hit(c, FaultSite::MagazineRefill, tid);
        let target = (self.mag.cap() / 2).max(1);
        // Acquire: pairs with the Release pushes that built the chain.
        let chain = self.head.swap_with(ptr::null_mut(), Ordering::Acquire);
        if chain.is_null() {
            return;
        }
        // Between the head SWAP and the magazine extend this thread owns
        // the whole chain: a death must hand it back or the pool shrinks.
        #[cfg(feature = "fault-injection")]
        self.fault_hit_or(c, FaultSite::StripeSwap, tid, || {
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

    /// Magazine fast path of `free_finalized`: push locally, draining the
    /// oldest half as one chain-push when full.
    fn magazine_push(&self, tid: usize, c: &OpCounters, node: *mut Node<T>) -> bool {
        if !self.mag.is_enabled() {
            return false;
        }
        // A death here owns the claimed `node` and nothing else; the
        // completion pushes it straight to the shared head (chain of one)
        // so the pool cannot silently deplete.
        #[cfg(feature = "fault-injection")]
        self.fault_hit_or(c, FaultSite::MagazineDrain, tid, || {
            self.push_chain(node, node);
        });
        // SAFETY: `tid` is the caller's registered thread id (exclusive).
        if unsafe { self.mag.try_push(tid, node) } {
            return true;
        }
        self.drain(tid, c, (self.mag.cap() / 2).max(1));
        // SAFETY: same exclusivity; we just made room.
        let pushed = unsafe { self.mag.try_push(tid, node) };
        debug_assert!(pushed, "magazine still full after drain");
        pushed
    }

    /// Returns up to `count` of slot `tid`'s oldest magazine nodes to the
    /// head with one Treiber CAS (`usize::MAX` = flush) and reports how
    /// many. The caller owns the slot: its handle, or an adopter that
    /// CAS-claimed a corpse's.
    fn drain(&self, tid: usize, c: &OpCounters, count: usize) -> usize {
        // SAFETY: slot exclusivity (caller contract).
        let batch = unsafe { self.mag.take(tid, count) };
        let drained = batch.len();
        if drained > 0 {
            OpCounters::bump(&c.magazine_drains);
            self.note_push_retries(c, self.push_all(batch));
        }
        drained
    }
}

// SAFETY: Valois' scheme with the Michael & Scott correction — the re-check
// after the optimistic increment is what makes `deref_link`'s result a node
// the link held during the call; type-stable arena headers make the
// increment itself safe.
unsafe impl<T: RcObject> Pool<T> for LfrcPool<T> {
    /// Chains every node of `arena` into the single free-list.
    fn new(arena: Arena<T>, threads: usize, magazine: usize) -> Self {
        let mut pool = Self {
            mag: Magazines::new(threads, 0),
            arena,
            head: CachePadded::new(WordPtr::null()),
            threads,
            tuning: Tuning::default(),
        };
        pool.set_magazine(magazine);
        pool.push_all((0..pool.arena.capacity()).map(|i| pool.arena.node_ptr(i)));
        pool
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

    /// Allocates from the single free-list (lock-free: retries on CAS
    /// failure).
    unsafe fn alloc_node(&self, tid: usize, c: &OpCounters) -> Result<*mut Node<T>, OutOfMemory> {
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
                // The winner chains the new segment and pushes it with one CAS.
                let seed = |nodes: &[Node<T>]| {
                    self.push_all(nodes.iter().map(|n| n as *const Node<T> as *mut Node<T>));
                };
                if self.grow(tid, c, seed) {
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
            unsafe { self.release_ref(tid, c, node) };
            if self.tuning.backoff {
                backoff.snooze();
            }
        };
        OpCounters::add(&c.alloc_iters, iters);
        OpCounters::record_max(&c.max_alloc_iters, iters);
        result
    }

    /// Valois/Michael–Scott `DeRefLink`: the seam's one validated attempt
    /// (optimistic increment + re-check, [`try_deref_once`]), retried
    /// unboundedly.
    unsafe fn deref_link(&self, tid: usize, c: &OpCounters, link: &Link<T>) -> *mut Node<T> {
        OpCounters::bump(&c.deref_calls);
        let mut backoff = Backoff::new();
        let mut retries: u64 = 0;
        let node = loop {
            // SAFETY: forwarded contract.
            if let Some(node) = unsafe { try_deref_once(self, tid, c, link) } {
                break node;
            }
            // The link moved on and the attempt returned its count. Retry —
            // this is the unbounded loop the wait-free scheme eliminates.
            retries += 1;
            if self.tuning.backoff {
                backoff.snooze();
            }
        };
        OpCounters::add(&c.deref_retries, retries);
        OpCounters::record_max(&c.max_deref_retries, retries);
        node
    }

    /// Treiber push of a claimed node onto the single free-list (or into
    /// `tid`'s magazine when the layer is enabled).
    #[inline]
    unsafe fn free_finalized(&self, tid: usize, c: &OpCounters, node: *mut Node<T>) {
        // SAFETY: the caller hands over a claimed node, exclusively its own.
        debug_assert!(
            unsafe { (*node).links_are_null() },
            "link stored into a freed node"
        );
        OpCounters::bump(&c.free_calls);
        if !self.magazine_push(tid, c, node) {
            self.note_push_retries(c, self.push_chain(node, node));
        }
    }

    unsafe fn drain_magazine(&self, tid: usize, c: &OpCounters) {
        self.drain(tid, c, usize::MAX);
    }

    /// LFRC has no announcement rows or gift slots, so a dead thread's only
    /// recoverable resource is its allocation magazine.
    unsafe fn adopt_slot(&self, tid: usize, c: &OpCounters) -> AdoptReport {
        AdoptReport {
            magazine_nodes_recovered: self.drain(tid, c, usize::MAX),
            ..AdoptReport::default()
        }
    }

    /// LFRC has neither gift cells nor deferred lists, so only the
    /// magazines can park.
    fn census(&self) -> Census {
        let none = HashSet::new();
        census(self.arena.iter(), &none, &self.mag.parked(), &none)
    }

    /// Retires the trailing segment if every one of its nodes is free,
    /// returning its slab to the allocator.
    ///
    /// LFRC has no epochs or announcement rows, so it cannot reclaim
    /// concurrently — `&mut self` demands quiescence (no live handles
    /// borrow the domain), which makes the whole protocol a private
    /// sweep: detach the single head chain, partition out the candidate
    /// segment's nodes, and either complete the retire or push everything
    /// back. Same arena state machine as the wait-free scheme's online
    /// retire, but stop-the-world.
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
            self.drain(tid, &scratch, usize::MAX);
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
}

/// A registered thread's view of an [`LfrcDomain`]: the one
/// [`wfrc_core::Handle`], at the [`Lf`] scheme — the same raw, guard, weak
/// and byte-class layers as `wfrc_core::ThreadHandle`.
///
/// The safe snapshot surface is the exception: `pin()` exists only where a
/// pin protects what it reads, and LFRC's plain load is unprotected.
///
/// ```compile_fail,E0599
/// let domain = wfrc_baselines::LfrcDomain::<u64>::new(1, 4);
/// let handle: wfrc_baselines::LfrcHandle<'_, u64> = domain.register().unwrap();
/// let _guard = handle.pin(); // no method `pin` on `Handle<'_, u64, Lf>`
/// ```
pub type LfrcHandle<'d, T> = Handle<'d, T, Lf>;

/// A lock-free reference-counted memory domain (Valois-style baseline):
/// [`wfrc_core::Domain`] at the [`Lf`] scheme, behind the positional
/// constructors and `&mut` setters the experiments were written against.
/// Everything else — `register`, `leak_check`, `adopt_orphans`,
/// `set_classes`, `reclaim_quiescent`, … — is the wrapped domain's, by
/// `Deref`.
pub struct LfrcDomain<T: RcObject>(Domain<T, Lf>);

impl<T: RcObject + Default> LfrcDomain<T> {
    /// Creates a domain with `capacity` default-initialized nodes and
    /// `max_threads` registration slots.
    pub fn new(max_threads: usize, capacity: usize) -> Self {
        Self::with_growth(max_threads, capacity, Growth::Disabled)
    }

    /// Creates a growable domain: `capacity` initial default-initialized
    /// nodes, growing under `growth` exactly like
    /// [`wfrc_core::WfrcDomain`] (new segments are seeded onto the single
    /// free-list head).
    pub fn with_growth(max_threads: usize, capacity: usize, growth: Growth) -> Self {
        let config = DomainConfig::new(max_threads, capacity).with_growth(growth);
        Self(Domain::new(config))
    }
}

impl<T: RcObject> LfrcDomain<T> {
    /// Disables backoff in retry loops (for step-count experiments). Must
    /// be called before the domain is shared (hence `&mut self`).
    pub fn set_backoff(&mut self, on: bool) {
        self.0.retune(|t| t.backoff = on);
    }

    /// Enables per-thread allocation magazines of (at most) `cap` nodes,
    /// clamped exactly like [`wfrc_core::DomainConfig::with_magazine`].
    /// Must be called before the domain is shared.
    pub fn set_magazine(&mut self, cap: usize) {
        self.0.pool_mut().set_magazine(cap);
    }
}

impl<T: RcObject> core::ops::Deref for LfrcDomain<T> {
    type Target = Domain<T, Lf>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<T: RcObject> core::ops::DerefMut for LfrcDomain<T> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

/// Forwards to the wrapped domain's impl, so a lease pool (and the server
/// benchmark) takes an `&LfrcDomain` as it takes a `&WfrcDomain`.
impl<T: RcObject> LeaseRegistry for LfrcDomain<T> {
    type Handle<'d>
        = LfrcHandle<'d, T>
    where
        Self: 'd;

    fn try_register_handle(&self) -> Result<Self::Handle<'_>, RegistryFull> {
        self.0.try_register_handle()
    }

    fn abandon_handle<'d>(&'d self, handle: Self::Handle<'d>) {
        self.0.abandon_handle(handle);
    }

    fn adopt_all(&self) -> AdoptReport {
        self.0.adopt_all()
    }

    fn handle_tid(handle: &Self::Handle<'_>) -> usize {
        handle.tid()
    }

    #[cfg(feature = "fault-injection")]
    fn lease_fault<'d>(&'d self, handle: &Self::Handle<'d>) {
        self.0.lease_fault(handle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfrc_core::{AtomicWeak, ClassConfig};

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
