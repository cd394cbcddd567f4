//! The wait-free free-list: `AllocNode` / `FreeNode` (paper Figure 5).
//!
//! A single Treiber-style free-list head makes alloc/free only lock-free:
//! one thread's successful CAS fails everyone else's, unboundedly. The
//! paper's construction removes the unboundedness with three ideas:
//!
//! 1. **Striping**: `2 · NR_THREADS` free-list heads. All allocators work on
//!    one head (`currentFreeList`, advanced when it empties); each *freeing*
//!    thread owns two heads (`tid` and `tid + N`) and picks the one the
//!    allocators are not on (lines F4–F6), so a free conflicts only with
//!    allocations, never with other frees.
//! 2. **Round-robin helping**: every free, and the first successful removal
//!    CAS of every alloc, attempts to gift a node to the thread named by
//!    `helpCurrent` through its `annAlloc` slot, then advances `helpCurrent`.
//!    An allocator that keeps losing its CAS is therefore eventually handed
//!    a node directly (Lemma 9); it checks its slot at the top of every
//!    iteration (line A4).
//! 3. **Reference counts against ABA**: line A9 bumps `mm_ref` *before*
//!    reading `mm_next` for the removal CAS, which pins the node out of any
//!    future free-list reinsertion until line A18 releases it — so a
//!    successful A10 CAS can never splice a stale `mm_next`.
//!
//! ## Correction to the paper's line F3
//!
//! As published, `FreeNode`'s gifting CAS hands over a node with
//! `mm_ref = 1` (free/claimed), while the gifting path inside `AllocNode`
//! (lines A9→A12) hands over `mm_ref = 3`. The recipient applies a single
//! `FixRef(node, −1)` (line A4), which yields a correct `mm_ref = 2` for the
//! A12 path but an immediately-reclaimable `mm_ref = 0` for the F3 path —
//! the paper's Lemma 4 only proves the A12 case. We apply the standard fix:
//! `FreeNode` performs `FixRef(node, +2)` before the gifting CAS and
//! `FixRef(node, −2)` if the CAS fails, making both gift sources identical.
//! (Recorded in DESIGN.md §4 as a deviation.)
//!
//! ## Memory orderings
//!
//! Unlike the announcement matrix (which is a store-load pattern and needs
//! `SeqCst`, see `announce`), every free-list invariant is a *message
//! passing* pattern and is carried by release/acquire pairs (DESIGN.md §4b):
//!
//! * A node's `mm_next` chain and recycled payload are written before the
//!   **Release** push CAS that publishes it on a head, and read after the
//!   **Acquire** head load that observes it. The `mm_next` stores
//!   themselves are therefore **Relaxed** ([`Node::link_private`]): the
//!   node is privately owned until that CAS. Pop CASes in the middle of a
//!   chain stay in the release sequence (they are RMWs), so later acquirers
//!   of the shortened chain still synchronize with the original push.
//! * `annAlloc` gifts: **Release** install CAS / **Acquire** take swap —
//!   the recipient's reads of the node pair with the gifter's writes.
//! * `currentFreeList` and `helpCurrent` are round-robin *hints*: they
//!   select an index but carry no payload (the chosen head/slot is
//!   re-validated by its own CAS), so all their accesses are **Relaxed**.

use core::ptr;
use core::sync::atomic::Ordering;

use wfrc_primitives::AtomicWord;

use crate::counters::OpCounters;
use crate::domain::Shared;
use crate::node::{Node, RcObject};
use crate::oom::OutOfMemory;
use crate::scheme::Pool;

type HeadCell<T> = wfrc_primitives::CachePadded<wfrc_primitives::WordPtr<Node<T>>>;
type WordCell = wfrc_primitives::CachePadded<AtomicWord>;

fn new_head<T>() -> HeadCell<T> {
    wfrc_primitives::CachePadded::new(wfrc_primitives::WordPtr::null())
}

fn new_word() -> WordCell {
    wfrc_primitives::CachePadded::new(AtomicWord::new(0))
}

/// The Figure 5 globals: `currentFreeList`, `freeList[2N]`, `helpCurrent`,
/// `annAlloc[N]`.
pub struct FreeLists<T> {
    n: usize,
    current: WordCell,
    heads: Box<[HeadCell<T>]>,
    help_current: WordCell,
    ann_alloc: Box<[HeadCell<T>]>,
}

impl<T> FreeLists<T> {
    /// Creates the structure for `n` threads with all heads empty.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n > 0);
        Self {
            n,
            current: new_word(),
            heads: (0..2 * n).map(|_| new_head()).collect(),
            help_current: new_word(),
            ann_alloc: (0..n).map(|_| new_head()).collect(),
        }
    }

    /// Chains nodes `[0, capacity)` of `arena` into `freeList[0]`
    /// (the paper's initial condition). Called once before the domain is
    /// shared.
    pub(crate) fn seed(&self, arena: &crate::arena::Arena<T>) {
        let cap = arena.capacity();
        for i in 0..cap {
            let node = arena.node_ptr(i);
            let next = if i + 1 < cap {
                arena.node_ptr(i + 1)
            } else {
                ptr::null_mut()
            };
            // SAFETY: seeding happens before any sharing; we own every node.
            unsafe { (*node).link_private(next) };
        }
        self.heads[0].store(arena.node_ptr(0));
        // Credit segment occupancy for the whole seeded range (reclaim's
        // retire-candidate gate, see `reclaim`).
        arena.note_seeded(arena.node_ptr(0), cap);
    }

    #[inline]
    fn head(&self, i: usize) -> &wfrc_primitives::WordPtr<Node<T>> {
        &self.heads[i]
    }

    /// Current value of `currentFreeList`, reduced to a stripe index.
    /// Relaxed: a stripe-selection hint, never a data dependency.
    #[inline]
    pub(crate) fn current_index(&self) -> usize {
        self.current.load_with(Ordering::Relaxed) % (2 * self.n)
    }

    /// Plain load of stripe `i`'s head (a cheap emptiness probe for the
    /// magazine refill scan). Relaxed: probe only — the actual steal is
    /// [`FreeLists::take_stripe`], which synchronizes.
    #[inline]
    pub(crate) fn head_ptr(&self, i: usize) -> *mut Node<T> {
        self.head(i).load_with(Ordering::Relaxed)
    }

    /// Steals the whole chain of stripe `i` with one `SWAP(head, ⊥)`.
    ///
    /// Safe against concurrent A10 removals by the same argument that
    /// covers a removal CAS: any allocator racing on the old head either
    /// won its CAS before our swap (the chain we get no longer contains its
    /// node) or loses and retries on the now-empty stripe. Its transient A9
    /// pin (+2) on a node we took is matched by its A18 release, exactly
    /// the Lemma 3 accounting.
    pub(crate) fn take_stripe(&self, i: usize) -> *mut Node<T> {
        // Acquire: pairs with the Release push that built the chain, making
        // every taken node's `mm_next` (and recycled payload) visible.
        self.head(i).swap_with(ptr::null_mut(), Ordering::Acquire)
    }

    /// Attempts to hand a stolen chain back to the (expected still empty)
    /// stripe `i` with one CAS. False means someone repopulated it; the
    /// caller falls back to [`FreeLists::push_chain`].
    pub(crate) fn untake_stripe(&self, i: usize, chain: *mut Node<T>) -> bool {
        // Release publishes the chain's links; failure needs nothing.
        self.head(i)
            .cas_with(ptr::null_mut(), chain, Ordering::Release, Ordering::Relaxed)
    }

    /// Pushes the pre-linked chain `first..=last` onto one of thread
    /// `tid`'s two stripes: the F4–F6 stripe pick and the F7–F10 retry
    /// dance, generalized from one node to a chain. Returns the retry
    /// count (the quantity Lemma 10 bounds — to competing allocators a
    /// chain push is indistinguishable from a single-node push).
    ///
    /// The chain must be exclusively owned by the caller (claimed nodes,
    /// `mm_next` pre-linked, `last.mm_next` overwritten here).
    pub(crate) fn push_chain(&self, tid: usize, first: *mut Node<T>, last: *mut Node<T>) -> u64 {
        let n = self.n;
        // F4–F6: pick the stripe the allocators are least likely to be on.
        let current = self.current_index();
        let mut index = if current <= tid || current > n + tid {
            n + tid
        } else {
            tid
        };
        let mut retries: u64 = 0;
        loop {
            // F7–F9. Relaxed head load: `head` is only spliced below `last`,
            // never dereferenced here, and the F9 Release CAS orders the
            // splice for whoever pops through us.
            let head = self.head(index).load_with(Ordering::Relaxed);
            // SAFETY: `last` is exclusively ours until the CAS publishes it.
            unsafe { (*last).link_private(head) }; // F8
            if self
                .head(index)
                .cas_with(head, first, Ordering::Release, Ordering::Relaxed)
            {
                return retries; // F9 succeeded: Release publishes the chain
            }
            retries += 1;
            index = (index + n) % (2 * n); // F10: try our other stripe
        }
    }

    /// Diagnostic: the node currently gifted to thread `tid`, if any.
    pub fn gift_for(&self, tid: usize) -> *mut Node<T> {
        // Relaxed: quiescent diagnostic (leak_check), no data read through it.
        self.ann_alloc[tid].load_with(Ordering::Relaxed)
    }

    /// Claims the gift parked for thread `tid` (the A4 swap, performed on
    /// its behalf by an adopter that owns the orphaned slot). Returns null
    /// when no gift was parked.
    pub(crate) fn take_gift(&self, tid: usize) -> *mut Node<T> {
        // Acquire: pairs with the gifter's Release install.
        self.ann_alloc[tid].swap_with(ptr::null_mut(), Ordering::Acquire)
    }

    /// Diagnostic: walks free-list `i` and returns its length. Only
    /// meaningful at quiescence.
    pub fn list_len(&self, i: usize) -> usize {
        let mut len = 0;
        let mut p = self.head(i).load();
        while !p.is_null() {
            len += 1;
            // SAFETY: quiescent per contract; nodes live in the arena.
            p = unsafe { (*p).mm_next().load() };
        }
        len
    }

    /// Number of free-list heads (`2 · NR_THREADS`).
    pub fn lists(&self) -> usize {
        2 * self.n
    }

    /// Chains a freshly grown segment's nodes and publishes the whole chain
    /// onto one free-list head with a single CAS, rotating stripes on
    /// failure (the same two-way dance as F7–F10, generalized to all
    /// stripes). The nodes are unshared until the CAS succeeds, so their
    /// `mm_next` stores are Relaxed ([`Node::link_private`]).
    pub(crate) fn seed_grown(&self, nodes: &[Node<T>]) {
        debug_assert!(!nodes.is_empty());
        let first = &nodes[0] as *const Node<T> as *mut Node<T>;
        for w in nodes.windows(2) {
            w[0].link_private(&w[1] as *const Node<T> as *mut Node<T>);
        }
        let last = &nodes[nodes.len() - 1];
        // Relaxed index hint + Relaxed head load / Release publish CAS:
        // the same pattern (and argument) as `push_chain`.
        let mut index = self.current.load_with(Ordering::Relaxed) % (2 * self.n);
        loop {
            let head = self.head(index).load_with(Ordering::Relaxed);
            last.link_private(head);
            if self
                .head(index)
                .cas_with(head, first, Ordering::Release, Ordering::Relaxed)
            {
                break;
            }
            index = (index + 1) % (2 * self.n);
        }
    }
}

impl<T: RcObject> Shared<T> {
    /// `AllocNode` (paper lines A1–A18, plus the footnote-4 retry bound).
    ///
    /// On success the node has `mm_ref == 2` (one reference owned by the
    /// caller) and its payload is whatever the previous user left — callers
    /// re-initialize it before publishing (see `ThreadHandle::alloc_with`).
    pub(crate) fn alloc_node(
        &self,
        tid: usize,
        c: &OpCounters,
    ) -> Result<*mut Node<T>, OutOfMemory> {
        OpCounters::bump(&c.alloc_calls);
        if let Some(node) = self.magazine_pop(tid, c) {
            return Ok(node);
        }
        let n = self.n;
        let fl = &self.fl;
        let mut helped = false; // A1
                                // A2. Relaxed: helpCurrent is a round-robin hint (see module docs).
        let help_id = fl.help_current.load_with(Ordering::Relaxed) % n;
        let mut iters: u64 = 0;
        loop {
            // A3
            iters += 1;
            // A4: were we gifted a node? Acquire pairs with the gifter's
            // Release install (A12 / corrected F3).
            let gift = fl.ann_alloc[tid].swap_with(ptr::null_mut(), Ordering::Acquire);
            if !gift.is_null() {
                // The node left a counted gift cell (see `reclaim`).
                self.arena.occupancy_dec(gift);
                if self.draining_member(gift) {
                    // A gift out of the segment being retired: demote it to
                    // FREE_REF and help the reclaimer instead of using it.
                    // SAFETY: the swap transferred exclusive ownership.
                    unsafe { (*gift).faa_ref(-2) }; // 3 -> 1
                    self.park_for_reclaim(gift);
                    continue;
                }
                // FixRef(gift, -1): 3 -> 2, one reference for the caller.
                // SAFETY: arena node; the gifter transferred ownership.
                unsafe { (*gift).faa_ref(-1) };
                OpCounters::bump(&c.alloc_from_gift);
                self.note_alloc_iters(c, iters);
                return Ok(gift);
            }
            if iters as usize > self.oom_bound {
                // Growth slow path: the free-lists looked dry for a full
                // retry bound. Try to publish a new arena segment; any
                // concurrent winner also counts as progress. Growth events
                // are bounded by `MAX_SEGMENTS`, so resetting the retry
                // budget here preserves the wait-free bound (at most
                // `MAX_SEGMENTS · oom_bound` iterations before a terminal
                // out-of-memory).
                OpCounters::bump(&c.alloc_slow_path);
                // Anti-livelock while a retire is in flight: take a node
                // off the reclaim parking chain rather than growing (or
                // failing). The shortfall makes the retire abort — an
                // in-flight reclaim never turns allocations into OOMs.
                // This is the one documented path that hands out a node of
                // a DRAINING segment (see DESIGN.md §4c).
                if let Some(node) = self.reclaim_steal() {
                    // SAFETY: the steal transferred exclusive ownership of
                    // a FREE_REF node.
                    unsafe { (*node).faa_ref(1) }; // 1 -> 2: one reference
                    OpCounters::bump(&c.alloc_from_steal);
                    self.note_alloc_iters(c, iters);
                    return Ok(node);
                }
                // The CAS winner seeds the fresh slab onto a stripe as one
                // pre-linked chain and credits its segment's occupancy.
                let seed = |nodes: &[Node<T>]| {
                    self.fl.seed_grown(nodes);
                    self.arena.note_seeded(nodes.as_ptr(), nodes.len());
                };
                if self.grow(tid, c, seed) {
                    iters = 0;
                    continue;
                }
                self.note_alloc_iters(c, iters);
                return Err(OutOfMemory);
            }
            // A5. Relaxed: stripe-selection hint.
            let current = fl.current.load_with(Ordering::Relaxed) % (2 * n);
            // A6. Acquire: pairs with the Release push of `node`, so the
            // `mm_next` read below (and the recycled payload) are visible.
            let node = fl.head(current).load_with(Ordering::Acquire);
            if node.is_null() {
                // A7: advance to the next stripe. Relaxed RMW on a hint.
                fl.current.cas_with(
                    current,
                    (current + 1) % (2 * n),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                continue;
            }
            // SAFETY: `node` came from a free-list head; arena nodes are
            // never deallocated, so the header is always readable (the
            // type-stability assumption of §3).
            let nref = unsafe { &*node };
            nref.faa_ref(2); // A9: pin against reinsertion
            let next = nref.mm_next().load();
            // A10. AcqRel: Acquire re-confirms the push that made `node`
            // visible; the store side stays in the pusher's release
            // sequence (an RMW), so later acquirers of `next` still
            // synchronize with the chain's original publisher.
            if fl
                .head(current)
                .cas_with(node, next, Ordering::AcqRel, Ordering::Relaxed)
            {
                // A10 succeeded: we removed `node`.
                if self.draining_member(node) {
                    // We popped a node of the segment being retired: drop
                    // the A9 pin back to FREE_REF and park it for the
                    // reclaimer instead of allocating (or gifting) it.
                    self.arena.occupancy_dec(node);
                    nref.faa_ref(-2); // 3 -> 1
                    self.park_for_reclaim(node);
                    continue;
                }
                // A8 probe is Relaxed: the install CAS below re-validates.
                if !helped && fl.ann_alloc[help_id].load_with(Ordering::Relaxed).is_null() {
                    // A11–A15: gift the node to the thread we owe help.
                    // Release publishes the node to the recipient's
                    // Acquire take (A4).
                    if fl.ann_alloc[help_id].cas_with(
                        ptr::null_mut(),
                        node,
                        Ordering::Release,
                        Ordering::Relaxed,
                    ) {
                        helped = true; // A13
                        OpCounters::bump(&c.alloc_gave_gift);
                        // A14. Relaxed RMW on the round-robin hint.
                        fl.help_current.cas_with(
                            help_id,
                            (help_id + 1) % n,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        );
                        continue; // A15
                    }
                }
                // A16. Relaxed RMW on the round-robin hint.
                fl.help_current.cas_with(
                    help_id,
                    (help_id + 1) % n,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                // The node leaves the counted structures for the caller.
                // (A successful A12 gift above keeps it counted: it merely
                // moved from a stripe to a gift cell — see `reclaim`.)
                self.arena.occupancy_dec(node);
                nref.faa_ref(-1); // A17: FixRef(node, -1): 3 -> 2
                self.note_alloc_iters(c, iters);
                return Ok(node);
            }
            // A18: lost the race; drop the A9 pin (reclaims if the winner's
            // user already released — see Lemma 3's accounting).
            OpCounters::bump(&c.alloc_cas_failures);
            self.release_ref(tid, c, node);
        }
    }

    fn note_alloc_iters(&self, c: &OpCounters, iters: u64) {
        OpCounters::add(&c.alloc_iters, iters);
        OpCounters::record_max(&c.max_alloc_iters, iters);
    }

    /// `FreeNode` (paper lines F1–F10, with the F3 refcount correction).
    ///
    /// `node` must be claimed (`mm_ref == 1`): only `ReleaseRef`'s winning
    /// R2 CAS reaches here, which is why user code never calls this
    /// directly (§3.2).
    pub(crate) fn free_node(&self, tid: usize, c: &OpCounters, node: *mut Node<T>) {
        OpCounters::bump(&c.free_calls);
        // Claimed and weak-free — but not necessarily *exactly* `FREE_REF`:
        // a stale allocator's A9 pin (+2 on a head it has not won) may sit
        // on a claimed node until its A18 release takes it back (Lemma 3's
        // accounting; `wfrc-model`'s `Op::Free` step R2 says the same).
        debug_assert_eq!(
            // SAFETY: arena node, exclusively owned by this invocation
            // (claimed).
            unsafe { (*node).load_ref() } & !(Node::<T>::STRONG_MASK & !1),
            Node::<T>::FREE_REF,
            "FreeNode on unclaimed node"
        );
        // A node of the segment being retired goes straight to the reclaim
        // parking chain (it is already at FREE_REF and exclusively ours).
        if self.divert_if_draining(node) {
            return;
        }
        if self.magazine_push(tid, c, node) {
            return;
        }
        let fl = &self.fl;
        // F1–F2. Relaxed: helpCurrent is a round-robin hint.
        let help_id = fl.help_current.load_with(Ordering::Relaxed) % self.n;
        fl.help_current.cas_with(
            help_id,
            (help_id + 1) % self.n,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        // Corrected F3: match the A12 gift's mm_ref (see module docs).
        if self.gift_cas(help_id, node) {
            OpCounters::bump(&c.free_gifted);
            return;
        }
        // F4–F10 for a chain of one. Occupancy credit precedes the push so
        // the counter only ever errs high (see `reclaim`: a premature
        // retire candidate aborts; a wrapped-negative counter must never
        // exist).
        self.arena.occupancy_inc(node);
        let retries = fl.push_chain(tid, node, node);
        OpCounters::add(&c.free_push_retries, retries);
        OpCounters::record_max(&c.max_free_push_retries, retries);
    }

    /// The corrected-F3 gift hand-off: bumps the claimed node to the A12
    /// gift representation (`mm_ref` 1 → 3) and CASes it into thread
    /// `help_id`'s `annAlloc` slot, undoing the bump on failure.
    fn gift_cas(&self, help_id: usize, node: *mut Node<T>) -> bool {
        // SAFETY: arena node, exclusively owned by the caller (claimed).
        let nref = unsafe { &*node };
        nref.faa_ref(2); // 1 -> 3
                         // Occupancy credit before the install (errs high, never
                         // negative — see `reclaim`); undone on failure.
        self.arena.occupancy_inc(node);
        // Release publishes the node (refbump included) to the recipient's
        // Acquire take; failure transfers nothing.
        if self.fl.ann_alloc[help_id].cas_with(
            ptr::null_mut(),
            node,
            Ordering::Release,
            Ordering::Relaxed,
        ) {
            true
        } else {
            self.arena.occupancy_dec(node);
            nref.faa_ref(-2); // 3 -> 1
            false
        }
    }

    /// One batch-granularity helping attempt for the magazine layer: offer
    /// the claimed `node` to the current help target and advance
    /// `helpCurrent`, mirroring A11–A15 (refill) / F1–F3 (drain). Returns
    /// true when the gift was accepted (the node now belongs to the
    /// recipient's `annAlloc` slot).
    pub(crate) fn try_gift(&self, node: *mut Node<T>) -> bool {
        let fl = &self.fl;
        // Relaxed: helpCurrent is a round-robin hint.
        let help_id = fl.help_current.load_with(Ordering::Relaxed) % self.n;
        if self.gift_cas(help_id, node) {
            // A14. Relaxed RMW on the hint.
            fl.help_current.cas_with(
                help_id,
                (help_id + 1) % self.n,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{DomainConfig, WfrcDomain};

    #[test]
    fn seed_puts_everything_on_list_zero() {
        let d = WfrcDomain::<u64>::new(DomainConfig::new(2, 10));
        assert_eq!(d.shared().fl.list_len(0), 10);
        for i in 1..d.shared().fl.lists() {
            assert_eq!(d.shared().fl.list_len(i), 0);
        }
    }

    #[test]
    fn alloc_until_oom_then_free_restores() {
        let d = WfrcDomain::<u64>::new(DomainConfig::new(1, 4));
        let h = d.register().unwrap();
        let mut nodes = Vec::new();
        for _ in 0..4 {
            nodes.push(h.alloc_with(|_| {}).unwrap());
        }
        assert!(h.alloc_with(|_| {}).is_err());
        nodes.pop();
        // One node came back (possibly via our own annAlloc gift).
        let again = h.alloc_with(|_| {}).unwrap();
        drop(again);
        drop(nodes);
        drop(h);
        assert_eq!(d.leak_check().live_nodes, 0);
    }

    #[test]
    fn alloc_sets_one_reference() {
        let d = WfrcDomain::<u64>::new(DomainConfig::new(1, 4));
        let h = d.register().unwrap();
        let r = h.alloc_with(|v| *v = 3).unwrap();
        let node = r.as_node();
        assert_eq!(node.load_ref(), Node::<u64>::ONE_REF);
        assert_eq!(node.ref_count(), 1);
        assert!(!node.is_claimed());
    }

    #[test]
    fn freed_node_is_reusable_and_counts_conserve() {
        let d = WfrcDomain::<u64>::new(DomainConfig::new(1, 2));
        let h = d.register().unwrap();
        for i in 0..100 {
            let a = h.alloc_with(|v| *v = i).unwrap();
            assert_eq!(*a, i);
            drop(a);
        }
        drop(h);
        let report = d.leak_check();
        assert_eq!(report.live_nodes, 0);
        assert_eq!(report.free_nodes + report.parked_gifts, 2);
    }

    /// Regression: `FreeNode` must tolerate a stale allocator's A9 pin on
    /// the claimed node it is handed.
    #[test]
    fn free_node_tolerates_a_stale_alloc_pin() {
        let d = WfrcDomain::<u64>::new(DomainConfig::new(1, 2));
        let h = d.register().unwrap();
        let node = h.alloc_raw().unwrap();
        // SAFETY: arena node we hold the only reference on.
        let n = unsafe { &*node };
        n.faa_ref(-2); // R1
        assert!(n.try_claim()); // R2
        n.faa_ref(2); // the stale A9 pin lands between R2 and FreeNode
        d.shared().free_node(h.tid(), h.counters(), node);
        n.faa_ref(-2); // its A18 release: the claim bit keeps it a no-op
        drop(h);
        assert!(d.leak_check().is_clean(), "{}", d.leak_check());
    }

    #[test]
    fn gifting_feeds_the_helped_thread() {
        // With one thread, every FreeNode gifts to thread 0 itself, so the
        // next alloc must come from annAlloc (line A4).
        let d = WfrcDomain::<u64>::new(DomainConfig::new(1, 2));
        let h = d.register().unwrap();
        let a = h.alloc_with(|_| {}).unwrap();
        drop(a); // free -> gift to thread 0
        assert!(!d.shared().fl.gift_for(0).is_null());
        let before = h.counters().snapshot().alloc_from_gift;
        let b = h.alloc_with(|_| {}).unwrap();
        assert_eq!(h.counters().snapshot().alloc_from_gift, before + 1);
        drop(b);
    }

    #[test]
    fn gifted_node_has_gift_refcount() {
        let d = WfrcDomain::<u64>::new(DomainConfig::new(1, 2));
        let h = d.register().unwrap();
        let a = h.alloc_with(|_| {}).unwrap();
        let ptr = a.as_ptr();
        drop(a);
        // The free gifted it: mm_ref must be 3 (corrected F3), not 1.
        assert_eq!(d.shared().fl.gift_for(0), ptr);
        // SAFETY: node is parked in annAlloc; arena keeps it alive.
        assert_eq!(unsafe { (*ptr).load_ref() }, 3);
    }
}
