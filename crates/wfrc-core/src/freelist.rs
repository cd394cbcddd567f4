//! The wait-free free-list: `AllocNode` / `FreeNode` (paper Figure 5).
//!
//! A single Treiber-style free-list head makes alloc/free only lock-free:
//! one thread's successful CAS fails everyone else's, unboundedly. The
//! paper's construction removes the unboundedness with three ideas:
//!
//! 1. **Striping**: `2 · NR_THREADS` free-list heads. Allocators that miss
//!    their own stripe work on one head (`currentFreeList`, advanced when it
//!    empties); each *freeing* thread owns two heads (`tid` and `tid + N`)
//!    and picks the one the allocators are not on (lines F4–F6), so a free
//!    conflicts only with allocations, never with other frees.
//! 2. **Help on request**: an allocator that misses twice (below) raises its
//!    bit in the `alloc_need` summary word and runs the paper's A3–A18
//!    loop, checking its `annAlloc` slot at the top of every iteration (A4)
//!    and lowering the bit on every exit. Every successful removal, every
//!    free and every magazine batch reads the word once. When it is zero,
//!    nothing is gifted and `helpCurrent` is not written. Otherwise the node
//!    goes to the first flagged thread at or after `helpCurrent` (A11–A15,
//!    F1–F3), and `helpCurrent` advances past that thread. An allocator that
//!    keeps losing its CAS is therefore handed a node directly (Lemma 9,
//!    argued for this variant in DESIGN.md §4a). The word has the presence
//!    summary's shape (`crate::bitmap`): one bit per thread, RMWs only.
//! 3. **Reference counts against ABA**: line A9 bumps `mm_ref` *before*
//!    reading `mm_next` for the removal CAS, which pins the node out of any
//!    future free-list reinsertion until line A18 releases it — so a
//!    successful A10 CAS can never splice a stale `mm_next`.
//!
//! ## Own stripe first
//!
//! Before it asks for help, `AllocNode` makes two plain attempts, each one
//! A9 pin + A10 CAS, and helps on request after either succeeds:
//!
//! 1. **The own stripe**: the F4–F6 pick for the caller's `tid` — the stripe
//!    its own frees push to. The pick is never `currentFreeList` at the
//!    moment it is read, and other threads' frees go to their own stripes,
//!    so in the common case the pop races nobody: a thread that frees what
//!    it allocates recycles its own nodes at the cost of one CAS.
//! 2. **The plain attempt**: a `Relaxed` probe of the caller's `annAlloc`
//!    slot, swapped only when it shows a gift (one parked after the
//!    caller's bit last went down), then one A5–A10 attempt on
//!    `currentFreeList` (A7 if it is empty).
//!
//! Both count as iterations against footnote 4's `oom_bound`, which the
//! loop continues from. Gating the gifts alone, with plain pops on
//! `currentFreeList`, is worse than always gifting (DESIGN.md §4a): the
//! gift channel was what kept two allocators off one `current` head.
//! Popping where the thread's own frees landed removes that contention
//! instead.
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
//! `SeqCst`, see `announce`), the free-list's *data* invariants are
//! *message passing* patterns and are carried by release/acquire pairs
//! (DESIGN.md §4b):
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
//!
//! Help on request adds one store-load pattern, and it is `SeqCst`: a
//! flagged thread raises its bit, then loads a head; a remover CASes that
//! head, then loads the need word. The raise (`fetch_or`), the loop's A6
//! head load, every removal (the A10 CAS on success, the refill's stripe
//! SWAP) and the need load are `SeqCst`, so a removal that makes a flagged
//! thread's A10 fail is ordered after its raise and sees the bit. The
//! fast path's head loads stay Acquire (the caller's bit is down) and the
//! lowering `fetch_and` is Release.

use core::ptr;
use core::sync::atomic::Ordering;

use wfrc_primitives::AtomicWord;

use crate::bitmap::ThreadBits;
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
/// `annAlloc[N]` — plus the `alloc_need` word that gates the helping.
pub struct FreeLists<T> {
    n: usize,
    current: WordCell,
    heads: Box<[HeadCell<T>]>,
    help_current: WordCell,
    ann_alloc: Box<[HeadCell<T>]>,
    /// One bit per thread in the slow path (see module docs).
    pub(crate) need: ThreadBits,
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
            need: ThreadBits::new(n),
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

    /// A7: moves `currentFreeList` off stripe `index`, found empty, if it
    /// is still there. The probe spares the RMW when it is not (an empty
    /// own stripe). Relaxed: a hint.
    #[inline]
    fn advance_current(&self, index: usize) {
        if self.current_index() == index {
            self.current.cas_with(
                index,
                (index + 1) % (2 * self.n),
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }

    /// F4–F6: the one of thread `tid`'s two stripes (`tid`, `tid + N`)
    /// that `currentFreeList` is not on right now — where its frees land,
    /// and where its allocations look first.
    #[inline]
    fn own_stripe(&self, tid: usize) -> usize {
        let (n, current) = (self.n, self.current_index());
        if current <= tid || current > n + tid {
            n + tid
        } else {
            tid
        }
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
        // SeqCst: a removal, ordered like an A10 CAS before the refill's
        // need-word load (Lemma 9, DESIGN.md §4a).
        self.head(i).swap_with(ptr::null_mut(), Ordering::SeqCst)
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
        let mut index = self.own_stripe(tid);
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

    /// The node currently gifted to thread `tid`, if any: the owner's
    /// fast-path probe, and a quiescent diagnostic (`leak_check`).
    pub fn gift_for(&self, tid: usize) -> *mut Node<T> {
        // Relaxed: a probe; no data is read through it (the owner's
        // collecting swap is Acquire).
        self.ann_alloc[tid].load_with(Ordering::Relaxed)
    }

    /// A12 / F3: parks `node` in thread `id`'s empty `annAlloc` slot.
    /// The Relaxed probe skips the CAS on a full slot; the CAS
    /// re-validates.
    fn install_gift(&self, id: usize, node: *mut Node<T>) -> bool {
        let slot = &self.ann_alloc[id];
        // Release publishes the node (and any refcount bump) to the
        // recipient's Acquire take; failure transfers nothing.
        slot.load_with(Ordering::Relaxed).is_null()
            && slot.cas_with(ptr::null_mut(), node, Ordering::Release, Ordering::Relaxed)
    }

    /// Claims the gift parked for thread `tid`: the owner's A4 swap, or
    /// an adopter's on its behalf. Returns null when no gift was parked.
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
    /// `AllocNode` (paper lines A1–A18, plus the footnote-4 retry bound),
    /// behind the two-attempt fast path of the module docs.
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
        let fl = &self.fl;
        // A1
        let mut helped = false;
        // Iteration 1: the stripe our own frees land on (F4–F6). Acquire
        // suffices on both fast attempts: our need bit is down, so no
        // helper's argument depends on these loads.
        let own = fl.own_stripe(tid);
        if let Some(node) = self.take_from(tid, c, own, Ordering::Acquire, &mut helped) {
            return Ok(self.hand_out(c, node, 1));
        }
        // Iteration 2: a gift parked after our bit last went down, then one
        // plain attempt on `current`.
        if !fl.gift_for(tid).is_null() {
            if let Some(gift) = self.collect_gift(tid, c) {
                self.note_alloc_iters(c, 2);
                return Ok(gift);
            }
        }
        let current = fl.current_index();
        if let Some(node) = self.take_from(tid, c, current, Ordering::Acquire, &mut helped) {
            return Ok(self.hand_out(c, node, 2));
        }
        // Slow path: ask for help, then the paper's loop. The bit comes
        // down on every exit — node, gift or out-of-memory.
        fl.need.raise(tid);
        // A death here leaves the bit up over an empty-handed corpse:
        // helpers may park one gift for it, and adoption lowers the bit and
        // collects the gift.
        #[cfg(feature = "fault-injection")]
        self.fault_hit(c, crate::fault::FaultSite::AllocNeed, tid);
        let out = self.alloc_helped(tid, c, helped);
        fl.need.lower(tid);
        out
    }

    /// The A3–A18 loop, run with the caller's `alloc_need` bit up. Its
    /// iterations continue the fast path's count, so the two attempts and
    /// this loop share one `oom_bound`.
    fn alloc_helped(
        &self,
        tid: usize,
        c: &OpCounters,
        mut helped: bool,
    ) -> Result<*mut Node<T>, OutOfMemory> {
        let fl = &self.fl;
        let mut iters: u64 = 2;
        loop {
            // A3
            iters += 1;
            // A4: were we gifted a node?
            if let Some(gift) = self.collect_gift(tid, c) {
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
            // A5. SeqCst on A6: with our bit up, the removal that makes
            // our A10 fail is ordered after this load, so its need-word
            // load sees the bit (Lemma 9, DESIGN.md §4a).
            let current = fl.current_index();
            if let Some(node) = self.take_from(tid, c, current, Ordering::SeqCst, &mut helped) {
                return Ok(self.hand_out(c, node, iters));
            }
        }
    }

    /// One A6–A16 attempt on stripe `index`, with the A6 head load at
    /// `load` ordering. Returns the removed node (pinned at `mm_ref` 3,
    /// still occupancy-counted) unless the head was ⊥ (A7), the A10 CAS
    /// lost (A18), the node belonged to a segment being retired (parked
    /// for the reclaimer) or it went out as a gift (A11–A15).
    fn take_from(
        &self,
        tid: usize,
        c: &OpCounters,
        index: usize,
        load: Ordering,
        helped: &mut bool,
    ) -> Option<*mut Node<T>> {
        let head = self.fl.head(index);
        // A6: the ordering pairs with the Release push of `node`, so the
        // `mm_next` read below (and the recycled payload) are visible.
        let node = head.load_with(load);
        if node.is_null() {
            self.fl.advance_current(index); // A7
            return None;
        }
        // SAFETY: `node` came from a free-list head; arena nodes are never
        // deallocated, so the header is always readable (the type-stability
        // assumption of §3).
        let nref = unsafe { &*node };
        nref.faa_ref(2); // A9: pin against reinsertion
        let next = nref.mm_next().load();
        // A10. SeqCst on success: the removal must follow, in the total
        // order, every loser's SeqCst A6 load it overtakes, and precede
        // its own need-word load. Acquire re-confirms the push that made
        // `node` visible; the store side stays in the pusher's release
        // sequence (an RMW), so later acquirers of `next` still
        // synchronize with the chain's original publisher.
        if !head.cas_with(node, next, Ordering::SeqCst, Ordering::Relaxed) {
            // A18: lost the race; drop the A9 pin (reclaims if the winner's
            // user already released — see Lemma 3's accounting).
            OpCounters::bump(&c.alloc_cas_failures);
            self.release_ref(tid, c, node);
            return None;
        }
        if self.draining_member(node) {
            // We popped a node of the segment being retired: drop the A9
            // pin back to FREE_REF and park it for the reclaimer instead of
            // allocating (or gifting) it.
            self.arena.occupancy_dec(node);
            nref.faa_ref(-2); // 3 -> 1
            self.park_for_reclaim(node);
            return None;
        }
        (!self.gift_to_owed(c, node, helped)).then_some(node)
    }

    /// A11–A15 on request: unless this call already helped, gift the
    /// just-removed `node` (`mm_ref` 3, the gift representation) to the
    /// thread owed help, if any. True when the node went out as a gift.
    /// It stays occupancy-counted: it only moved from a stripe to a gift
    /// cell (see `reclaim`).
    fn gift_to_owed(&self, c: &OpCounters, node: *mut Node<T>, helped: &mut bool) -> bool {
        if *helped || !self.help_owed(|id| self.fl.install_gift(id, node)) {
            return false;
        }
        *helped = true; // A13
        OpCounters::bump(&c.alloc_gave_gift);
        true
    }

    /// A17: the removed `node` leaves the counted structures for the
    /// caller, `mm_ref` 3 → 2.
    fn hand_out(&self, c: &OpCounters, node: *mut Node<T>, iters: u64) -> *mut Node<T> {
        self.arena.occupancy_dec(node);
        // SAFETY: arena node we removed (A10) and hold pinned.
        unsafe { (*node).faa_ref(-1) }; // FixRef(node, -1): 3 -> 2
        self.note_alloc_iters(c, iters);
        node
    }

    /// A4: takes the gift parked for `tid`, if any, as one caller-owned
    /// reference. A gift out of the segment being retired is demoted to
    /// FREE_REF and parked for the reclaimer instead (`None`).
    fn collect_gift(&self, tid: usize, c: &OpCounters) -> Option<*mut Node<T>> {
        let gift = self.fl.take_gift(tid);
        if gift.is_null() {
            return None;
        }
        // The node left a counted gift cell (see `reclaim`).
        self.arena.occupancy_dec(gift);
        if self.draining_member(gift) {
            // SAFETY: the swap transferred exclusive ownership.
            unsafe { (*gift).faa_ref(-2) }; // 3 -> 1
            self.park_for_reclaim(gift);
            return None;
        }
        // FixRef(gift, -1): 3 -> 2, one reference for the caller.
        // SAFETY: arena node; the gifter transferred ownership.
        unsafe { (*gift).faa_ref(-1) };
        OpCounters::bump(&c.alloc_from_gift);
        Some(gift)
    }

    fn note_alloc_iters(&self, c: &OpCounters, iters: u64) {
        OpCounters::add(&c.alloc_iters, iters);
        OpCounters::record_max(&c.max_alloc_iters, iters);
    }

    /// Help on request, shared by every gift source: reads the
    /// `alloc_need` word once; when a bit is up, offers a node to the first
    /// flagged thread at or after `helpCurrent` through `install` and
    /// advances `helpCurrent` past that thread whether or not the install
    /// took (a full gift cell means the thread is already served). With
    /// the word at zero, nothing is offered and `helpCurrent` is not
    /// touched.
    fn help_owed(&self, install: impl FnOnce(usize) -> bool) -> bool {
        let fl = &self.fl;
        let mut hint = 0;
        let Some(id) = fl.need.first_from(|| {
            hint = fl.help_current.load_with(Ordering::Relaxed) % self.n;
            hint
        }) else {
            return false;
        };
        let gave = install(id);
        // A14 / A16 / F2. Relaxed RMW on the round-robin hint.
        fl.help_current.cas_with(
            hint,
            (id + 1) % self.n,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        gave
    }

    /// `FreeNode` (paper lines F1–F10, with the F3 refcount correction and
    /// F1–F3 on request).
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
        // F1–F3 on request, with the corrected F3 (see module docs).
        if self.try_gift(node) {
            OpCounters::bump(&c.free_gifted);
            return;
        }
        // F4–F10 for a chain of one. Occupancy credit precedes the push so
        // the counter only ever errs high (see `reclaim`: a premature
        // retire candidate aborts; a wrapped-negative counter must never
        // exist).
        self.arena.occupancy_inc(node);
        let retries = self.fl.push_chain(tid, node, node);
        OpCounters::add(&c.free_push_retries, retries);
        OpCounters::record_max(&c.max_free_push_retries, retries);
    }

    /// The corrected-F3 gift hand-off: bumps the claimed node to the A12
    /// gift representation (`mm_ref` 1 → 3) and CASes it into thread
    /// `id`'s `annAlloc` slot, undoing the bump on failure.
    fn gift_cas(&self, id: usize, node: *mut Node<T>) -> bool {
        // SAFETY: arena node, exclusively owned by the caller (claimed).
        let nref = unsafe { &*node };
        nref.faa_ref(2); // 1 -> 3
                         // Occupancy credit before the install (errs high, never
                         // negative — see `reclaim`); undone on failure.
        self.arena.occupancy_inc(node);
        if self.fl.install_gift(id, node) {
            true
        } else {
            self.arena.occupancy_dec(node);
            nref.faa_ref(-2); // 3 -> 1
            false
        }
    }

    /// Gifts the claimed `node` to the thread owed help, if one asked:
    /// F1–F3 for `FreeNode`, and the batch-granularity A11–A15 / F1–F3 of
    /// the magazine refill and drain. Returns true when the gift was
    /// accepted (the node now belongs to the recipient's `annAlloc` slot).
    pub(crate) fn try_gift(&self, node: *mut Node<T>) -> bool {
        self.help_owed(|id| self.gift_cas(id, node))
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
        // With thread 0's need bit up (as its slow path raises it), the
        // free gifts to it, so the next alloc comes from annAlloc: the
        // fast path's probe collects what A4 would.
        let d = WfrcDomain::<u64>::new(DomainConfig::new(1, 2));
        let h = d.register().unwrap();
        let a = h.alloc_with(|_| {}).unwrap();
        d.shared().fl.need.raise(0);
        drop(a); // free -> gift to thread 0
        d.shared().fl.need.lower(0);
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
        d.shared().fl.need.raise(0);
        drop(a);
        // The free gifted it: mm_ref must be 3 (corrected F3), not 1.
        assert_eq!(d.shared().fl.gift_for(0), ptr);
        // SAFETY: node is parked in annAlloc; arena keeps it alive.
        assert_eq!(unsafe { (*ptr).load_ref() }, 3);
        d.shared().fl.need.lower(0);
    }

    #[test]
    fn free_does_not_gift_when_nobody_asked() {
        // Two threads, no need bit up: frees push to the freeing thread's
        // own stripe, leave helpCurrent alone, and the next alloc pops
        // that stripe on its first attempt.
        let d = WfrcDomain::<u64>::new(DomainConfig::new(2, 4));
        let (h0, _h1) = (d.register().unwrap(), d.register().unwrap());
        let fl = &d.shared().fl;
        let a = h0.alloc_with(|_| {}).unwrap();
        let ptr = a.as_ptr();
        drop(a);
        assert!(fl.gift_for(0).is_null() && fl.gift_for(1).is_null());
        assert_eq!(
            fl.help_current.load(),
            0,
            "helpCurrent moved with nobody flagged"
        );
        assert_eq!(
            fl.head_ptr(fl.own_stripe(0)),
            ptr,
            "the free left the own stripe"
        );
        let before = h0.counters().snapshot();
        let b = h0.alloc_with(|_| {}).unwrap();
        assert_eq!(b.as_ptr(), ptr);
        let after = h0.counters().snapshot();
        assert_eq!(after.alloc_iters - before.alloc_iters, 1, "own-stripe hit");
        assert_eq!(after.free_gifted + after.alloc_gave_gift, 0);
        drop(b);
        assert!(fl.need.is_empty());
    }
}
