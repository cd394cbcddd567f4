//! Per-thread allocation magazines: a thread-local caching layer over the
//! striped wait-free free-lists.
//!
//! The paper's `AllocNode`/`FreeNode` (Figure 5) always goes through the
//! shared `2 · NR_THREADS` free-list stripes, so every allocation pays at
//! least one shared CAS even when a thread is the only one allocating. This
//! module adds the classic magazine layer (Bonwick's vmem/slab terminology,
//! and the per-process pools of Blelloch & Wei's constant-time fixed-size
//! allocator): each registered thread owns a small bounded LIFO of node
//! pointers, and the common-case alloc/free touches only that — zero shared
//! atomics beyond the node's own `mm_ref` bookkeeping.
//!
//! ## Interaction with the Figure 5 protocol
//!
//! * **Parked representation.** A node sitting in a magazine keeps
//!   `mm_ref == 1` (free, claimed) — exactly the free-list representation.
//!   Popping one for allocation applies `FAA(mm_ref, +1)` (1 → 2), which is
//!   the same net effect as the shared path's A9 pin (+2) followed by A17
//!   (−1). The FAA accounting of Lemma 3 therefore carries over unchanged:
//!   a transient +2 pin from a stale shared-path loser (line A9 on a node
//!   we already cached) is always matched by that loser's release, and the
//!   claim bit goes to whichever decrement reaches zero.
//! * **Refill** takes a *whole stripe* with one `SWAP(head, ⊥)` — a single
//!   shared atomic for up to a stripe's worth of nodes — keeps at most half
//!   a magazine, and returns the remainder with one CAS (⊥ → rest) or, if an
//!   allocator raced in, the bounded two-stripe chain-push of F7–F10.
//! * **Drain** (magazine full, or handle deregistration) chains the batch
//!   through `mm_next` locally and pushes it with the F4–F6 stripe pick and
//!   the F7–F10 retry dance — one shared CAS per *batch*, and the retry
//!   count inherits Lemma 10's bound because a chain-push is
//!   indistinguishable from a single-node push to the competing allocators.
//! * **Gifting is preserved at batch granularity, on request.** Every
//!   refill that nets more than one node reads the `alloc_need` word and,
//!   when some thread asked, offers one node to the first flagged thread at
//!   or after `helpCurrent` (the A11–A15 obligation); every drain does the
//!   same (the corrected F3 obligation). A starving allocator is still fed:
//!   it now waits at most O(N · magazine capacity) shared interactions for
//!   its gift instead of O(N) — a larger constant, but still a bound, so
//!   per-operation wait-freedom survives (argued in DESIGN.md).
//! * **Gifts bypass magazines** entirely: `annAlloc` hand-offs land in the
//!   recipient's announced slot and are collected at line A4 before the
//!   magazine is even consulted by the next caller.
//!
//! ## Capacity rule
//!
//! Magazines park nodes where no other thread can allocate them. If every
//! thread could park `capacity / NR_THREADS` nodes or more, the shared
//! stripes could go permanently dry while the pool is nominally non-empty,
//! and `AllocNode`'s footnote-4 retry bound would report a spurious
//! out-of-memory. [`clamped_cap`] therefore caps the per-thread capacity
//! strictly below `capacity / max_threads`, guaranteeing at least one node
//! circulates through the shared structure even when every magazine is full.

use core::cell::UnsafeCell;
use std::collections::HashSet;

use crate::counters::OpCounters;
use crate::domain::Shared;
use crate::node::{chain_tail, Node, RcObject};
#[cfg(feature = "fault-injection")]
use crate::scheme::Pool;

type Slot<T> = wfrc_primitives::CachePadded<UnsafeCell<Vec<*mut Node<T>>>>;

fn new_slot<T>(cap: usize) -> Slot<T> {
    wfrc_primitives::CachePadded::new(UnsafeCell::new(Vec::with_capacity(cap)))
}

/// Clamps a requested per-thread magazine capacity for a pool of
/// `capacity` nodes shared by `max_threads` threads.
///
/// The result is strictly below `capacity / max_threads` (see the module
/// docs for why), so with every magazine full at least one node still
/// circulates through the shared stripes. Growth only ever adds capacity,
/// so clamping against the *initial* capacity stays conservative.
pub fn clamped_cap(requested: usize, capacity: usize, max_threads: usize) -> usize {
    requested.min(capacity.saturating_sub(1) / max_threads.max(1))
}

// Reclamation note: segment reclamation (see `reclaim`) never retires the
// initial segment — only trailing *grown* segments — so clamping against
// the initial capacity remains conservative even when capacity oscillates.

/// The per-thread magazine slots of one domain: `max_threads` bounded LIFO
/// stacks of free node pointers.
///
/// Slot `tid` is owned exclusively by the thread registered under `tid` —
/// the same exclusivity contract that makes the paper's `threadId`-indexed
/// globals sound, enforced here by the `!Sync` handles. The per-slot
/// methods are `unsafe` with that contract; the whole-structure audits
/// ([`Magazines::parked`], [`Magazines::total_parked`]) are safe but only
/// meaningful at quiescence, like `WfrcDomain::leak_check`.
pub struct Magazines<T> {
    cap: usize,
    slots: Box<[Slot<T>]>,
}

// SAFETY: the raw pointers inside are arena nodes (Send + Sync via the
// nodes themselves); per-slot access is serialized by the tid-exclusivity
// contract on the unsafe methods.
unsafe impl<T: Send + Sync> Send for Magazines<T> {}
unsafe impl<T: Send + Sync> Sync for Magazines<T> {}

impl<T> Magazines<T> {
    /// Creates `max_threads` empty magazines of `cap` nodes each.
    /// `cap == 0` disables the layer (every call falls through to the
    /// shared free-lists).
    pub fn new(max_threads: usize, cap: usize) -> Self {
        Self {
            cap,
            slots: (0..max_threads).map(|_| new_slot(cap)).collect(),
        }
    }

    /// Per-thread capacity (0 = the layer is disabled).
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// True when magazines are in use (`cap > 0`).
    pub fn is_enabled(&self) -> bool {
        self.cap > 0
    }

    /// # Safety
    /// Caller must be the exclusive owner of slot `tid`.
    #[allow(clippy::mut_from_ref)]
    unsafe fn stack(&self, tid: usize) -> &mut Vec<*mut Node<T>> {
        // SAFETY: tid exclusivity per contract — no aliasing access.
        unsafe { &mut *self.slots[tid].get() }
    }

    /// Pops the most recently cached node, if any.
    ///
    /// # Safety
    /// Caller must be the exclusive owner of slot `tid` (i.e. hold the
    /// registration for thread id `tid`).
    pub unsafe fn pop(&self, tid: usize) -> Option<*mut Node<T>> {
        // SAFETY: forwarded contract.
        unsafe { self.stack(tid) }.pop()
    }

    /// Pushes `node`; returns false (without caching) when the magazine is
    /// full or disabled.
    ///
    /// # Safety
    /// Same tid-exclusivity contract as [`Magazines::pop`].
    pub unsafe fn try_push(&self, tid: usize, node: *mut Node<T>) -> bool {
        // SAFETY: forwarded contract.
        let stack = unsafe { self.stack(tid) };
        if stack.len() >= self.cap {
            return false;
        }
        stack.push(node);
        true
    }

    /// Current fill of magazine `tid`.
    ///
    /// # Safety
    /// Same tid-exclusivity contract as [`Magazines::pop`].
    pub unsafe fn len(&self, tid: usize) -> usize {
        // SAFETY: forwarded contract.
        unsafe { self.stack(tid) }.len()
    }

    /// Removes and returns up to `count` nodes, oldest first (the LIFO top
    /// stays hot in cache for the owner).
    ///
    /// # Safety
    /// Same tid-exclusivity contract as [`Magazines::pop`].
    pub unsafe fn take(&self, tid: usize, count: usize) -> Vec<*mut Node<T>> {
        // SAFETY: forwarded contract.
        let stack = unsafe { self.stack(tid) };
        let count = count.min(stack.len());
        stack.drain(..count).collect()
    }

    /// Appends a refill batch (the caller guarantees it fits).
    ///
    /// # Safety
    /// Same tid-exclusivity contract as [`Magazines::pop`].
    pub unsafe fn extend(&self, tid: usize, batch: impl IntoIterator<Item = *mut Node<T>>) {
        // SAFETY: forwarded contract.
        let stack = unsafe { self.stack(tid) };
        stack.extend(batch);
        debug_assert!(stack.len() <= self.cap);
    }

    /// The addresses of every node parked in any magazine. **Only
    /// meaningful at quiescence** (no concurrent alloc/free in flight) —
    /// the audit counterpart of `FreeLists::gift_for`.
    pub fn parked(&self) -> HashSet<usize> {
        self.slots
            .iter()
            .flat_map(|s| {
                // SAFETY: quiescent per the documented contract, so no slot
                // owner is concurrently mutating its stack.
                unsafe { &*s.get() }.iter().map(|p| *p as usize)
            })
            .collect()
    }

    /// Total number of parked nodes across all magazines. Quiescent-only,
    /// like [`Magazines::parked`].
    pub fn total_parked(&self) -> usize {
        self.slots
            .iter()
            // SAFETY: quiescent per the documented contract.
            .map(|s| unsafe { &*s.get() }.len())
            .sum()
    }
}

impl<T> core::fmt::Debug for Magazines<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Magazines")
            .field("cap", &self.cap)
            .field("threads", &self.slots.len())
            .finish()
    }
}

impl<T: RcObject> Shared<T> {
    /// Magazine fast path of `AllocNode`: pop locally, refilling from the
    /// shared stripes in one batch when empty. `None` falls through to the
    /// Figure 5 loop (gift collection, helping, growth, out-of-memory).
    #[inline]
    pub(crate) fn magazine_pop(&self, tid: usize, c: &OpCounters) -> Option<*mut Node<T>> {
        if !self.mag.is_enabled() {
            return None;
        }
        let mut refilled = false;
        loop {
            // SAFETY: `tid` is this caller's registered thread id
            // (exclusive).
            let node = match unsafe { self.mag.pop(tid) } {
                Some(node) => node,
                None => {
                    if refilled {
                        return None;
                    }
                    self.magazine_refill(tid, c);
                    refilled = true;
                    // SAFETY: same exclusivity as above.
                    unsafe { self.mag.pop(tid) }?
                }
            };
            // A cached node of the segment being retired goes to the
            // reclaim parking chain instead of being served (a refill can
            // capture candidate nodes in the window before the DRAINING
            // claim lands — this filter closes that window).
            if self.divert_if_draining(node) {
                continue;
            }
            OpCounters::bump(&c.magazine_hits);
            // 1 -> 2: the parked free node becomes one caller-owned
            // reference. Equivalent to A9's +2 pin followed by A17's -1, so
            // the Lemma 3 accounting is undisturbed (see module docs).
            // SAFETY: arena node; headers are type-stable.
            unsafe { (*node).faa_ref(1) };
            return Some(node);
        }
    }

    /// Refills magazine `tid` by stealing one whole stripe: a single
    /// `SWAP(head, ⊥)`, keep at most `cap / 2` nodes, hand the rest back.
    /// Scans the thread's own two stripes first (where its drains land),
    /// then every stripe once from `currentFreeList` — the same bounded
    /// scan shape as A5–A7.
    fn magazine_refill(&self, tid: usize, c: &OpCounters) {
        // A death here holds nothing yet — the scan has not swapped a
        // stripe — so a bare unwind is already safe.
        #[cfg(feature = "fault-injection")]
        self.fault_hit(c, crate::fault::FaultSite::MagazineRefill, tid);
        let fl = &self.fl;
        let lists = fl.lists();
        let target = (self.mag.cap() / 2).max(1);
        let current = fl.current_index();
        let candidates = [tid, tid + self.n]
            .into_iter()
            .chain((0..lists).map(|k| (current + k) % lists));
        for idx in candidates {
            if fl.head_ptr(idx).is_null() {
                continue;
            }
            let chain = fl.take_stripe(idx);
            if chain.is_null() {
                continue; // lost the stripe to a racer; try the next one
            }
            // Between the stripe SWAP and the magazine extend, this thread
            // privately owns the whole chain: a death must hand it back
            // (walk to the tail, one F4–F10 chain-push) or the stripe's
            // worth of nodes would vanish from the pool.
            #[cfg(feature = "fault-injection")]
            self.fault_hit_or(c, crate::fault::FaultSite::StripeSwap, tid, || {
                // SAFETY: the stolen chain is exclusively ours.
                let (tail, _) = unsafe { chain_tail(chain) };
                self.fl.push_chain(tid, chain, tail);
            });
            // Walk off the nodes we keep. The chain is exclusively ours
            // after the swap, so plain `mm_next` loads suffice. Nodes of a
            // DRAINING segment are diverted to the reclaim parking chain;
            // either way a removed node leaves the counted stripes, so its
            // segment occupancy is debited (see `reclaim`). The remainder
            // handed back below stays counted throughout (in transit).
            let mut kept = Vec::with_capacity(target);
            let mut p = chain;
            while !p.is_null() && kept.len() < target {
                // SAFETY: node of the stolen chain — exclusively ours.
                let next = unsafe { (*p).mm_next().load() };
                self.arena.occupancy_dec(p);
                if self.draining_member(p) {
                    self.park_for_reclaim(p);
                } else {
                    kept.push(p);
                }
                p = next;
            }
            let rest = p;
            if !rest.is_null() && !fl.untake_stripe(idx, rest) {
                // An allocator (or a growth seed) repopulated the stripe
                // behind us: chain-push the remainder like any drain. The
                // walk to its tail is bounded by the stripe length we just
                // removed.
                // SAFETY: the stolen remainder is exclusively ours.
                let (tail, _) = unsafe { chain_tail(rest) };
                let retries = fl.push_chain(tid, rest, tail);
                OpCounters::add(&c.free_push_retries, retries);
                OpCounters::record_max(&c.max_free_push_retries, retries);
            }
            if kept.len() > 1 {
                // The batch removal stands in for A10's successful CAS, so
                // honor the A11–A15 helping obligation (on request) once per
                // refill.
                if let Some(&gift) = kept.last() {
                    if self.try_gift(gift) {
                        kept.pop();
                        OpCounters::bump(&c.alloc_gave_gift);
                    }
                }
            }
            // SAFETY: tid exclusivity (caller contract); kept.len() <=
            // target <= cap / 2 fits an empty magazine.
            unsafe { self.mag.extend(tid, kept) };
            OpCounters::bump(&c.magazine_refills);
            return;
        }
        // Every stripe was (transiently) empty: leave the magazine dry and
        // let the shared loop handle gifts / growth / out-of-memory.
    }

    /// Magazine fast path of `FreeNode`: push locally, draining the oldest
    /// half to the shared stripes in one batch when full. `false` falls
    /// through to the Figure 5 free (gift attempt + stripe push). `node`
    /// must be claimed (`mm_ref == 1`), as for `free_node`.
    #[inline]
    pub(crate) fn magazine_push(&self, tid: usize, c: &OpCounters, node: *mut Node<T>) -> bool {
        if !self.mag.is_enabled() {
            return false;
        }
        // A death here owns the claimed `node` and nothing else; it is in
        // no structure adoption can enumerate, so the completion pushes it
        // straight to the shared stripes (a chain of one) before unwinding.
        // Without this the pool would silently deplete — leak_check cannot
        // see a stranded mm_ref == 1 node.
        #[cfg(feature = "fault-injection")]
        self.fault_hit_or(c, crate::fault::FaultSite::MagazineDrain, tid, || {
            self.arena.occupancy_inc(node);
            self.fl.push_chain(tid, node, node);
        });
        // SAFETY: `tid` is this caller's registered thread id (exclusive).
        if unsafe { self.mag.try_push(tid, node) } {
            return true;
        }
        let half = (self.mag.cap() / 2).max(1);
        // SAFETY: same exclusivity.
        let batch = unsafe { self.mag.take(tid, half) };
        self.drain_batch(tid, c, batch);
        // SAFETY: same exclusivity; we just made room.
        let pushed = unsafe { self.mag.try_push(tid, node) };
        debug_assert!(pushed, "magazine still full after drain");
        pushed
    }

    /// Returns every node parked in magazine `tid` to the shared stripes.
    /// Called on handle drop/deregistration so register/alloc/drop cycles
    /// conserve capacity.
    pub(crate) fn drain_magazine(&self, tid: usize, c: &OpCounters) {
        if !self.mag.is_enabled() {
            return;
        }
        // SAFETY: `tid` is the dropping handle's thread id (exclusive).
        let batch = unsafe { self.mag.take(tid, usize::MAX) };
        if !batch.is_empty() {
            self.drain_batch(tid, c, batch);
        }
    }

    /// Chains `batch` through `mm_next` (all nodes exclusively ours) and
    /// pushes it with one F4–F10 chain-push, after honoring the corrected
    /// F3 gifting obligation (on request) once for the whole batch.
    fn drain_batch(&self, tid: usize, c: &OpCounters, mut batch: Vec<*mut Node<T>>) {
        debug_assert!(!batch.is_empty());
        OpCounters::bump(&c.magazine_drains);
        if let Some(&gift) = batch.last() {
            if self.try_gift(gift) {
                batch.pop();
                OpCounters::bump(&c.free_gifted);
            }
        }
        let Some((&first, _)) = batch.split_first() else {
            return; // the single node went out as a gift
        };
        // Magazine-parked nodes are not occupancy-counted; credit their
        // segments before the batch re-enters the shared stripes.
        for &p in &batch {
            self.arena.occupancy_inc(p);
        }
        for w in batch.windows(2) {
            // SAFETY: claimed nodes exclusively owned by this drain; the
            // chain is unshared until the publishing CAS in push_chain.
            unsafe { (*w[0]).link_private(w[1]) };
        }
        let last = batch[batch.len() - 1];
        let retries = self.fl.push_chain(tid, first, last);
        OpCounters::add(&c.free_push_retries, retries);
        OpCounters::record_max(&c.max_free_push_retries, retries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{DomainConfig, WfrcDomain};

    #[test]
    fn clamp_keeps_shared_pool_nonempty() {
        // 64 nodes, 4 threads: full magazines must park < 64 nodes.
        assert_eq!(clamped_cap(64, 64, 4), 15);
        assert!(4 * clamped_cap(64, 64, 4) < 64);
        assert_eq!(clamped_cap(8, 64, 4), 8); // small requests untouched
        assert_eq!(clamped_cap(64, 2, 4), 0); // tiny pools disable the layer
        assert_eq!(clamped_cap(0, 1024, 4), 0); // 0 = explicitly disabled
    }

    #[test]
    fn lifo_order_and_bounded_push() {
        let m = Magazines::<u64>::new(1, 2);
        let a = 0x10 as *mut Node<u64>;
        let b = 0x20 as *mut Node<u64>;
        let c = 0x30 as *mut Node<u64>;
        // SAFETY: single-threaded test owns tid 0.
        unsafe {
            assert!(m.try_push(0, a));
            assert!(m.try_push(0, b));
            assert!(!m.try_push(0, c)); // full at cap 2
            assert_eq!(m.len(0), 2);
            assert_eq!(m.pop(0), Some(b)); // LIFO
            assert_eq!(m.pop(0), Some(a));
            assert_eq!(m.pop(0), None);
        }
    }

    #[test]
    fn take_removes_oldest_first() {
        let m = Magazines::<u64>::new(1, 4);
        let ptrs: Vec<_> = (1..=4).map(|i| (i * 0x10) as *mut Node<u64>).collect();
        // SAFETY: single-threaded test owns tid 0.
        unsafe {
            m.extend(0, ptrs.iter().copied());
            let taken = m.take(0, 2);
            assert_eq!(taken, ptrs[..2]); // oldest half leaves
            assert_eq!(m.pop(0), Some(ptrs[3])); // hottest stays on top
        }
        assert_eq!(m.total_parked(), 1);
        assert!(m.parked().contains(&(ptrs[2] as usize)));
    }

    #[test]
    fn magazine_alloc_free_roundtrip_hits() {
        let d = WfrcDomain::<u64>::new(DomainConfig::new(1, 64).with_magazine(8));
        assert_eq!(d.magazine_cap(), 8);
        let h = d.register().unwrap();
        for i in 0..100 {
            let g = h.alloc_with(|v| *v = i).unwrap();
            assert_eq!(*g, i);
        }
        let s = h.counters().snapshot();
        assert!(s.magazine_hits > 0, "no magazine hits: {s:?}");
        assert!(s.magazine_refills >= 1);
        drop(h);
        assert!(d.leak_check().is_clean());
    }

    #[test]
    fn disabled_magazine_changes_nothing() {
        let d = WfrcDomain::<u64>::new(DomainConfig::new(1, 8));
        assert_eq!(d.magazine_cap(), 0);
        let h = d.register().unwrap();
        let g = h.alloc_with(|v| *v = 1).unwrap();
        drop(g);
        assert_eq!(h.counters().snapshot().magazine_hits, 0);
        assert_eq!(h.magazine_len(), 0);
        drop(h);
        assert!(d.leak_check().is_clean());
    }
}
