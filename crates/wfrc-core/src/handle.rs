//! Per-thread access to a domain: the user model of §3.2.
//!
//! All memory-management operations are invoked through a [`Handle`], which
//! carries the paper's `threadId`. The handle is written once over the
//! [`Scheme`] seam — [`ThreadHandle`] is the wait-free instantiation — and
//! offers two API layers:
//!
//! * **Raw layer** (`unsafe`): the paper's operations verbatim
//!   ([`Handle::deref_raw`], [`Handle::release_raw`],
//!   [`Handle::cas_link_raw`], …) for data-structure implementations that
//!   manage counts manually (see `wfrc-structures`). Each primitive's body
//!   is defined here, once.
//! * **Guard layer** (safe): [`Handle::alloc_with`], [`Handle::deref`],
//!   [`Handle::cas`], [`Handle::store`] — every acquired reference is an
//!   RAII [`NodeRef`] whose `Drop` is `ReleaseRef`, so the §3.2 bookkeeping
//!   rules ("for each `AllocNode` or `DeRefLink` call there should be a
//!   matching `ReleaseRef` call") hold by construction. Built on the raw
//!   layer.
//!
//! A third, read-optimized surface sits on top of both where the scheme
//! protects it (DESIGN.md §4f): [`ThreadHandle::pin`] publishes an
//! epoch-backed snapshot pin, under which [`PinGuard::snapshot`] turns
//! every dereference into a **plain load** — zero FAAs, zero
//! announcement-slot writes — returning a lifetime-bound [`Snapshot`]
//! borrow. Escaping the guard goes through [`Snapshot::upgrade`], which
//! re-runs the full wait-free announcement protocol, so the worst case is
//! unchanged.

use core::cell::Cell;
use core::marker::PhantomData;
use core::ops::Deref;
use core::ptr::NonNull;

use crate::class::RawBytes;
use crate::counters::OpCounters;
use crate::domain::Domain;
use crate::link::{AtomicWeak, Link};
use crate::node::{Node, RcObject};
use crate::oom::OutOfMemory;
use crate::rc::release_weak;
use crate::reclaim::ReclaimOutcome;
use crate::scheme::{OpGuard, Pool, Scheme, Wf};

/// A registered thread's view of a [`Domain`].
///
/// `Send` (a worker may be moved across OS threads together with its handle)
/// but `!Sync` (a thread id must never be used concurrently — the paper's
/// `threadId` is exclusive). The `!Sync` comes for free from the `Cell`s in
/// [`OpCounters`]; the `PhantomData` documents the intent.
#[must_use = "dropping the handle immediately unregisters the thread id"]
pub struct Handle<'d, T: RcObject, S: Scheme = Wf> {
    domain: &'d Domain<T, S>,
    tid: usize,
    counters: OpCounters,
    /// Operation-nesting depth for the pool's quiescence bracket
    /// ([`Pool::op_enter`]): re-entrancy (a user closure inside
    /// `alloc_with` dropping a `NodeRef`) stays one logical operation.
    op_depth: Cell<usize>,
    /// Snapshot-pin nesting depth (see [`Handle::pin_raw`]): the pin and
    /// its backing operation bracket are published/retired only at the
    /// 0↔1 transitions, so nested guards (or raw `pin_raw` pairs) share
    /// one pin session.
    pin_depth: Cell<usize>,
    _not_sync: PhantomData<core::cell::Cell<()>>,
}

/// A registered thread's view of a [`crate::WfrcDomain`]: [`Handle`] under
/// the paper's wait-free scheme.
pub type ThreadHandle<'d, T> = Handle<'d, T, Wf>;

/// Runs its closure if dropped during an unwind. Placed between two raw
/// steps of a guard-layer operation when an injected death in the first
/// must not skip the second (the §3.2 release after an obligatory help).
#[cfg(feature = "fault-injection")]
struct OnUnwind<F: FnMut()>(F);

#[cfg(feature = "fault-injection")]
impl<F: FnMut()> Drop for OnUnwind<F> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            (self.0)();
        }
    }
}

impl<'d, T: RcObject, S: Scheme> Handle<'d, T, S> {
    pub(crate) fn new(domain: &'d Domain<T, S>, tid: usize, counters: OpCounters) -> Self {
        Self {
            domain,
            tid,
            counters,
            op_depth: Cell::new(0),
            pin_depth: Cell::new(0),
            _not_sync: PhantomData,
        }
    }

    /// The node pool.
    #[inline]
    fn pool(&self) -> &'d S::Pool<T> {
        self.domain.pool()
    }

    /// Brackets one memory-management operation in the pool's quiescence
    /// scope (a no-op under a scheme without one).
    #[inline]
    fn op(&self) -> OpGuard<'_, T, S::Pool<T>> {
        OpGuard::enter(self.pool(), self.tid, &self.op_depth)
    }

    /// This handle's `threadId`.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// The domain this handle belongs to.
    pub fn domain(&self) -> &'d Domain<T, S> {
        self.domain
    }

    /// The handle's operation counters (see [`OpCounters`]).
    pub fn counters(&self) -> &OpCounters {
        &self.counters
    }

    /// Number of nodes currently parked in this thread's allocation
    /// magazine (always 0 when the domain was built without
    /// [`crate::DomainConfig::with_magazine`]).
    pub fn magazine_len(&self) -> usize {
        // SAFETY: this handle is the exclusive owner of `tid`'s slot.
        unsafe { self.pool().magazines().len(self.tid) }
    }

    // ------------------------------------------------------------------
    // Guard layer
    // ------------------------------------------------------------------

    /// `AllocNode` + payload initialization: removes a node from the
    /// free-list, hands its payload to `init` while ownership is still
    /// exclusive, and returns it holding one reference.
    ///
    /// The payload passed to `init` is whatever the node's previous life
    /// left behind (initially the arena seed) — initialize every field you
    /// will read.
    pub fn alloc_with(&self, init: impl FnOnce(&mut T)) -> Result<NodeRef<'_, T, S>, OutOfMemory> {
        let _op = self.op();
        let node = self.alloc_raw()?;
        // SAFETY: freshly allocated and unpublished — exclusively ours.
        init(unsafe { self.payload_mut_raw(node) });
        // SAFETY: `node` is non-null on the Ok path.
        Ok(unsafe { NodeRef::from_raw(self, node) })
    }

    /// `DeRefLink`: dereference of `link`, returning a guard holding one
    /// reference, or `None` if the link was ⊥.
    #[must_use = "the returned guard owns a reference; discarding it silently releases"]
    pub fn deref<'h>(&'h self, link: &Link<T>) -> Option<NodeRef<'h, T, S>> {
        // SAFETY: a safe `Link<T>` is only ever stored through a handle of
        // its domain.
        let node = unsafe { self.deref_raw(link) };
        if node.is_null() {
            None
        } else {
            debug_assert!(
                self.pool().arena().contains(node),
                "link resolved to a node outside this domain's arena"
            );
            // SAFETY: deref_raw returned a non-null node with a count.
            Some(unsafe { NodeRef::from_raw(self, node) })
        }
    }

    /// `CompareAndSwapLink` (Figure 6) with full §3.2 bookkeeping: if
    /// `link` currently equals `expected` it is replaced by `new`, the
    /// obligatory `HelpDeRef` runs, and the reference the link held on the
    /// old node is released. The link acquires its own reference on `new`;
    /// the caller's guards are untouched.
    ///
    /// Returns `true` on success.
    pub fn cas(
        &self,
        link: &Link<T>,
        expected: Option<&NodeRef<'_, T, S>>,
        new: Option<&NodeRef<'_, T, S>>,
    ) -> bool {
        let _op = self.op();
        let old_ptr = expected.map_or(core::ptr::null_mut(), |r| r.as_ptr());
        let new_ptr = new.map_or(core::ptr::null_mut(), |r| r.as_ptr());
        // SAFETY: both pointers come from live guards of this domain; the
        // count added for the link is the one transferred into it.
        unsafe {
            if !new_ptr.is_null() {
                self.add_ref_raw(new_ptr, 1); // the link's own reference
            }
            let swapped = {
                // An injected death inside the help of a CAS that succeeded
                // would skip the old node's release below; the guard
                // performs it on unwind (a CAS that failed cannot unwind).
                #[cfg(feature = "fault-injection")]
                let _release_old = OnUnwind(|| {
                    if !old_ptr.is_null() {
                        self.release_raw(old_ptr);
                    }
                });
                self.cas_link_raw(link, old_ptr, new_ptr)
            };
            let stale = if swapped { old_ptr } else { new_ptr };
            if !stale.is_null() {
                self.release_raw(stale);
            }
            swapped
        }
    }

    /// Unconditionally replaces `link`'s target, releasing the reference it
    /// held on the previous node (after the obligatory `HelpDeRef`).
    ///
    /// This generalizes §3.2's "direct write" rule: a SWAP never loses the
    /// old value, so the protocol obligations can always be met. Use
    /// [`Handle::cas`] when the update must be conditional.
    pub fn store(&self, link: &Link<T>, new: Option<&NodeRef<'_, T, S>>) {
        let _op = self.op();
        let new_ptr = new.map_or(core::ptr::null_mut(), |r| r.as_ptr());
        // SAFETY: `new` is a live guard of this domain; the count added is
        // the one transferred into the link, and the swapped-out target's
        // link count is ours to release.
        unsafe {
            if !new_ptr.is_null() {
                self.add_ref_raw(new_ptr, 1);
            }
            let old = link.swap_raw(new_ptr);
            if !old.is_null() {
                {
                    // Same unwind obligation as in `cas` above.
                    #[cfg(feature = "fault-injection")]
                    let _release_old = OnUnwind(|| self.release_raw(old));
                    self.pool().help_deref(self.tid, &self.counters, link);
                }
                self.release_raw(old);
            }
        }
    }

    /// Attempts to retire the trailing arena segment beside live traffic
    /// (see [`crate::reclaim`]): if every node of the last grown segment is
    /// back on the shared free structures, all registered threads pass a
    /// grace period, and no announcement is in flight, the segment's slab
    /// is returned to the allocator and [`Domain::capacity`] shrinks. The
    /// slot can later be revived by the growth path, so capacity oscillates
    /// with demand. A scheme without online retirement answers
    /// [`ReclaimOutcome::NoCandidate`] (see [`Domain::reclaim_quiescent`]).
    ///
    /// Deliberately *not* bracketed: the caller is quiescent while
    /// reclaiming (a reclaimer inside its own grace period would deadlock
    /// on its own parity). Wait-freedom of the memory operations is
    /// unaffected — reclamation is an auxiliary, abortable protocol.
    pub fn reclaim(&self) -> ReclaimOutcome {
        // SAFETY: this handle owns slot `tid` and is outside any operation.
        unsafe {
            self.pool()
                .reclaim(self.tid, &self.counters, &|t| self.domain.slot_is_taken(t))
        }
    }

    /// Runs the segment-retire protocol on byte class `class` (the class
    /// analogue of [`Handle::reclaim`], with the same non-bracketing
    /// rationale).
    ///
    /// # Panics
    /// If `class >= self.domain().class_count()`.
    pub fn reclaim_class(&self, class: usize) -> ReclaimOutcome {
        // SAFETY: this handle owns slot `tid`.
        unsafe {
            self.domain.classes()[class]
                .reclaim(self.tid, &self.counters, &|t| self.domain.slot_is_taken(t))
        }
    }

    /// Deliberately orphans this handle: the slot is marked for
    /// [`Domain::adopt_orphans`] instead of being drained and
    /// unregistered, exactly as if the owning thread had died. Models a
    /// thread that leaks its handle (e.g. `mem::forget` in user code) for
    /// the recovery tests and the chaos driver.
    pub fn abandon(self) {
        self.domain.orphan(self.tid);
        core::mem::forget(self);
    }

    /// Drains this handle's magazines — node pool and every byte class —
    /// back to the shared free structures (the handle-drop teardown).
    fn flush_magazines(&self) {
        // SAFETY: this handle owns slot `tid` in every pool of the domain.
        unsafe {
            {
                let _op = self.op();
                self.pool().drain_magazine(self.tid, &self.counters);
            }
            for cls in self.domain.classes() {
                cls.drain_magazine(self.tid, &self.counters);
            }
        }
    }

    // ------------------------------------------------------------------
    // Snapshot layer, raw (DESIGN.md §4f; the safe form is
    // [`ThreadHandle::pin`])
    // ------------------------------------------------------------------

    /// Raw (non-RAII) pin entry: publishes the pin and holds the operation
    /// bracket open until the matching [`Handle::unpin_raw`]. Re-entrant.
    /// Under a scheme whose [`Scheme::SNAPSHOT_PROTECTED`] is false nothing
    /// is published and [`Handle::snapshot_raw`] targets are unprotected.
    pub fn pin_raw(&self) {
        let d = self.pin_depth.get();
        self.pin_depth.set(d + 1);
        if d == 0 {
            // Enter the operation bracket for the whole pin session: nested
            // handle operations under the pin do not advance it
            // (op_depth > 0), so the epoch value doubles as the session's
            // baseline in the deferred-drain protocol (crate::reclaim).
            self.pool().op_enter(self.tid, &self.op_depth);
            self.pool().pin(self.tid);
        }
    }

    /// Raw pin exit: retires the pin published by the matching
    /// [`Handle::pin_raw`] and opportunistically drains this slot's
    /// deferred list.
    ///
    /// # Safety
    /// Must pair a preceding `pin_raw` on this handle, and no pointer
    /// obtained from [`Handle::snapshot_raw`] during the session may be
    /// dereferenced afterwards (unless independently protected).
    pub unsafe fn unpin_raw(&self) {
        let d = self.pin_depth.get();
        debug_assert!(d > 0, "unpin_raw without a matching pin_raw");
        self.pin_depth.set(d - 1);
        if d == 1 {
            let pool = self.pool();
            pool.unpin(self.tid);
            pool.op_exit(self.tid, &self.op_depth);
            // Opportunistic drain: if this was the domain's last live pin
            // the whole batch frees wholesale.
            // SAFETY: this handle owns slot `tid`.
            unsafe { pool.drain_deferred(self.tid, &self.counters) };
        }
    }

    /// Raw snapshot dereference: a single plain (`SeqCst`) load of
    /// `link`, deletion mark stripped. Carries **no** reference count.
    ///
    /// # Safety
    /// The caller must hold a live pin session ([`Handle::pin_raw`]) on
    /// this handle for as long as the returned pointer is dereferenced —
    /// and, where [`Scheme::SNAPSHOT_PROTECTED`] is false, must itself
    /// guarantee the target cannot be reclaimed meanwhile; `link` must only
    /// ever hold nodes of this handle's domain.
    #[must_use = "the returned pointer is only protected while the pin is held"]
    pub unsafe fn snapshot_raw(&self, link: &Link<T>) -> *mut Node<T> {
        debug_assert!(
            self.pin_depth.get() > 0,
            "snapshot_raw outside a pin session"
        );
        OpCounters::bump(&self.counters.snapshot_derefs);
        link.load_snapshot()
    }

    // ------------------------------------------------------------------
    // Weak layer (DESIGN.md §4g)
    // ------------------------------------------------------------------

    /// Mints a [`Weak`] reference from a strong one: a single
    /// `FAA(+WEAK_UNIT)` on the node's packed count word (the strong guard
    /// proves the node is alive, so no validation is needed). The weak
    /// reference keeps the node's *header* reachable after the strong
    /// count drains — the payload dies with the last strong reference.
    pub fn downgrade<'h>(&'h self, r: &NodeRef<'_, T, S>) -> Weak<'h, T, S> {
        // SAFETY: `r` is a live guard of this domain.
        unsafe { self.downgrade_raw(r.as_ptr()) };
        Weak {
            handle: self,
            node: r.node,
        }
    }

    /// Stores a weak pointer into `w`: mints one weak count on `new`'s
    /// node, swaps the link, runs the obligatory `HelpDeRef` for announced
    /// readers of the link, and drops the weak count the link held on its
    /// previous target (finalizing a drained DEAD header).
    pub fn store_weak(&self, w: &AtomicWeak<T>, new: Option<&NodeRef<'_, T, S>>) {
        // SAFETY: `new` is a live guard of this domain (strong reference
        // held for the duration of the call).
        unsafe { self.store_weak_raw(w, new.map_or(core::ptr::null_mut(), |r| r.as_ptr())) }
    }

    /// Raw twin of [`Handle::store_weak`].
    ///
    /// # Safety
    /// `new` must be null or a node of this domain on which the caller
    /// holds a strong reference; `w` must only ever hold nodes of this
    /// domain.
    pub unsafe fn store_weak_raw(&self, w: &AtomicWeak<T>, new_ptr: *mut Node<T>) {
        let _op = self.op();
        if !new_ptr.is_null() {
            OpCounters::bump(&self.counters.weak_downgrades);
            // SAFETY: caller's strong reference keeps `new_ptr` live.
            unsafe { (*new_ptr).faa_weak(1) };
        }
        let old = w.inner().swap_raw(new_ptr);
        if !old.is_null() {
            {
                // A helper death inside help_deref would skip the weak
                // release below, stranding the old header un-finalizable;
                // the guard performs it on unwind (cf. `store`).
                #[cfg(feature = "fault-injection")]
                // SAFETY: the link's weak unit on `old` is ours to drop.
                let _release_old = OnUnwind(|| unsafe { self.release_weak_raw(old) });
                // §3.2 obligation: the link's weak count is what keeps the
                // old header safely dereferenceable for announced readers —
                // answer them before dropping it.
                // SAFETY: this handle owns slot `tid`.
                unsafe { self.pool().help_deref(self.tid, &self.counters, w.inner()) };
            }
            // SAFETY: the link owned one weak unit on `old`.
            unsafe { self.release_weak_raw(old) };
        }
    }

    /// Loads `w` and upgrades the target to a strong reference in one
    /// operation: the scheme's full `DeRefLink` on the weak link (so under
    /// the wait-free scheme the speculative count is helped exactly like a
    /// strong read), followed by the claim-bit validation that decides
    /// whether the target is still alive. Returns `None` if the link was ⊥
    /// or the target's strong count had already drained (DEAD header).
    #[must_use = "the returned guard owns a reference; discarding it silently releases"]
    pub fn load_weak<'h>(&'h self, w: &AtomicWeak<T>) -> Option<NodeRef<'h, T, S>> {
        // SAFETY: `w` is typed to this domain's payload; a non-null result
        // carries one strong reference for the guard.
        let node = unsafe { self.load_weak_raw(w) };
        // SAFETY: non-null, of this domain, carrying our count.
        (!node.is_null()).then(|| unsafe { NodeRef::from_raw(self, node) })
    }

    /// Raw twin of [`Handle::load_weak`]: a non-null return carries one
    /// caller-owned **strong** reference (pair with
    /// [`Handle::release_raw`]).
    ///
    /// # Safety
    /// `w` must only ever hold nodes of this handle's domain.
    pub unsafe fn load_weak_raw(&self, w: &AtomicWeak<T>) -> *mut Node<T> {
        let _op = self.op();
        OpCounters::bump(&self.counters.weak_upgrades);
        // SAFETY: forwarded contract. The link's own weak unit keeps the
        // target's header unrecycled while it remains the target.
        let node = unsafe { self.deref_raw(w.inner()) };
        if node.is_null() {
            OpCounters::bump(&self.counters.upgrade_failed);
            return node;
        }
        // Death mid-upgrade holds one speculative count on a possibly-DEAD
        // header; the completion releases it (which finalizes the header
        // if this count was the last thing blocking it).
        #[cfg(feature = "fault-injection")]
        self.pool().fault_hit_or(
            &self.counters,
            crate::fault::FaultSite::WeakUpgrade,
            self.tid,
            // SAFETY: releases the count taken above.
            || unsafe { self.release_raw(node) },
        );
        // Claim-bit validation: our speculative +2 pins the header (it
        // cannot finalize or recycle under us), so the bit is decisive —
        // set means the payload is dead, clear means our count is a
        // genuine strong reference.
        // SAFETY: arena node (type-stable header).
        if unsafe { (*node).is_claimed() } {
            OpCounters::bump(&self.counters.upgrade_failed);
            // SAFETY: releases the count taken above.
            unsafe { self.release_raw(node) };
            core::ptr::null_mut()
        } else {
            node
        }
    }

    /// Raw twin of [`Handle::downgrade`]: adds one weak reference to
    /// `node`. The caller becomes responsible for a matching
    /// [`Handle::release_weak_raw`].
    ///
    /// # Safety
    /// The caller must hold a strong reference on `node` (non-null, this
    /// domain) for the duration of the call.
    pub unsafe fn downgrade_raw(&self, node: *mut Node<T>) {
        // Not bracketed: the caller's strong reference keeps the node off
        // every free structure, so no segment retire can complete under
        // this FAA (DESIGN.md §4c).
        OpCounters::bump(&self.counters.weak_downgrades);
        // SAFETY: caller's strong reference keeps the node live.
        unsafe { (*node).faa_weak(1) };
    }

    /// Raw twin of [`Weak::upgrade`]: on `true` the caller owns one new
    /// strong reference on `node` (the weak reference is untouched).
    ///
    /// # Safety
    /// The caller must hold a weak reference on `node` (it pins the header
    /// against finalize and recycling for the duration of the call).
    pub unsafe fn upgrade_raw(&self, node: *mut Node<T>) -> bool {
        // Not bracketed: the caller's weak count pins the header — a DEAD
        // header stays off every free structure until its last weak count
        // drops — so no segment retire can complete under the CAS
        // (DESIGN.md §4c).
        OpCounters::bump(&self.counters.weak_upgrades);
        // Death here holds nothing — a clean abort (the weak count stays
        // with its owner).
        #[cfg(feature = "fault-injection")]
        self.pool().fault_hit(
            &self.counters,
            crate::fault::FaultSite::WeakUpgrade,
            self.tid,
        );
        // SAFETY: caller's weak count pins the header.
        let upgraded = unsafe { (*node).try_upgrade() };
        if !upgraded {
            OpCounters::bump(&self.counters.upgrade_failed);
        }
        upgraded
    }

    /// Raw weak release: drops one weak count on `node`, finalizing (and
    /// freeing through [`Pool::free_finalized`]) a DEAD header whose counts
    /// drained to zero.
    ///
    /// # Safety
    /// The caller must own an unreleased weak reference on `node`.
    pub unsafe fn release_weak_raw(&self, node: *mut Node<T>) {
        let _op = self.op();
        // SAFETY: forwarded contract; this handle owns slot `tid`.
        unsafe { release_weak(self.pool(), self.tid, &self.counters, node) };
    }

    // ------------------------------------------------------------------
    // Raw layer: the paper's operations verbatim
    // ------------------------------------------------------------------

    /// Raw `AllocNode`: returns a node holding one reference
    /// (`mm_ref == 2`) whose payload is **stale** (previous contents).
    ///
    /// Initialize it via [`Handle::payload_mut_raw`] before publishing.
    /// Pair with [`Handle::release_raw`].
    pub fn alloc_raw(&self) -> Result<*mut Node<T>, OutOfMemory> {
        let _op = self.op();
        // SAFETY: this handle owns slot `tid`.
        let node = unsafe { self.pool().alloc_node(self.tid, &self.counters) }?;
        // SAFETY: a fresh allocation is exclusively ours.
        debug_assert!(
            unsafe { (*node).links_are_null() },
            "allocated a node with a live link"
        );
        Ok(node)
    }

    /// Raw `DeRefLink`: returns a node pointer carrying one reference (or
    /// null). Pair with [`Handle::release_raw`].
    ///
    /// # Safety
    /// `link` must only ever hold nodes of this handle's domain.
    #[must_use = "the returned pointer carries a reference that must be released"]
    pub unsafe fn deref_raw(&self, link: &Link<T>) -> *mut Node<T> {
        let _op = self.op();
        // SAFETY: forwarded contract; this handle owns slot `tid`.
        unsafe { self.pool().deref_link(self.tid, &self.counters, link) }
    }

    /// Raw `ReleaseRef`: gives up one reference on `node`.
    ///
    /// # Safety
    /// `node` must be a non-null node of this domain on which the caller
    /// owns an unreleased reference.
    pub unsafe fn release_raw(&self, node: *mut Node<T>) {
        let _op = self.op();
        // SAFETY: forwarded contract; this handle owns slot `tid`.
        unsafe { self.pool().release_ref(self.tid, &self.counters, node) };
    }

    /// Raw `FixRef(node, 2·refs)`: acquire `refs` additional references
    /// ("for increasing the reference count when copying shared pointers",
    /// §3.2).
    ///
    /// # Safety
    /// `node` must be a non-null node of this domain on which the caller
    /// already owns at least one reference (so it cannot be concurrently
    /// reclaimed).
    pub unsafe fn add_ref_raw(&self, node: *mut Node<T>, refs: usize) {
        // Not bracketed: the caller's reference keeps the node off every
        // free structure, so its segment's occupancy cannot reach `len` and
        // no retire can complete under the FAA (DESIGN.md §4c).
        debug_assert!(!node.is_null());
        // SAFETY: arena node (type-stable header), live per contract.
        unsafe { (*node).faa_ref(2 * refs as isize) };
    }

    /// Raw `CompareAndSwapLink` (Figure 6): CAS `link` from `old` to `new`
    /// and, on success, run the scheme's helping obligation (`HelpDeRef`
    /// under the wait-free scheme). **Does not touch reference counts** —
    /// the caller transfers one owned reference on `new` into the link, and
    /// on success becomes responsible for releasing the reference the link
    /// held on `old`.
    ///
    /// # Safety
    /// `old`/`new` must be null or nodes of this domain; the caller must
    /// own the reference being transferred on `new`.
    pub unsafe fn cas_link_raw(
        &self,
        link: &Link<T>,
        old: *mut Node<T>,
        new: *mut Node<T>,
    ) -> bool {
        let _op = self.op();
        let swapped = link.cas_raw(old, new);
        if swapped {
            // SAFETY: forwarded contract; this handle owns slot `tid`.
            unsafe { self.pool().help_deref(self.tid, &self.counters, link) };
        }
        swapped
    }

    /// Raw direct write for **unpublished** links (§3.2: previous value
    /// known ⊥, no concurrent updates — e.g. wiring a freshly allocated
    /// node before it becomes reachable). Transfers one caller-owned
    /// reference on `node` into the link.
    ///
    /// # Safety
    /// The link must be unreachable by other threads and currently ⊥; the
    /// caller must own the transferred reference.
    pub unsafe fn store_link_raw(&self, link: &Link<T>, node: *mut Node<T>) {
        debug_assert!(link.is_null(), "store_link_raw on a non-null link");
        link.store_raw(node);
    }

    /// Shared payload access for a raw node pointer.
    ///
    /// # Safety
    /// The caller must own a reference on `node` for at least the returned
    /// borrow's lifetime.
    pub unsafe fn payload_raw(&self, node: *mut Node<T>) -> &T {
        // SAFETY: forwarded contract.
        unsafe { (*node).payload() }
    }

    /// Exclusive payload access for a raw node pointer.
    ///
    /// # Safety
    /// The caller must own `node` exclusively (freshly allocated and not
    /// yet published).
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn payload_mut_raw(&self, node: *mut Node<T>) -> &mut T {
        // SAFETY: forwarded contract.
        unsafe { (*node).payload_mut() }
    }

    // ------------------------------------------------------------------
    // Byte-class layer (see `crate::class`)
    // ------------------------------------------------------------------

    /// Allocates a block from the smallest byte class that fits `bytes`,
    /// copies `bytes` into it, and returns the [`RawBytes`] token.
    ///
    /// The chosen class's own pool allocates it, with the scheme's progress
    /// guarantee (wait-free with the footnote-4 bound of
    /// [`Handle::alloc_with`] under the wait-free scheme). The token must
    /// eventually be passed to [`Handle::free_bytes`] or the block leaks
    /// (visible in [`crate::LeakReport::classes`]).
    ///
    /// # Panics
    /// If no configured class has `block_size >= bytes.len()` — a
    /// configuration error, matching the spirit of the arena's fixed
    /// geometry (capacity exhaustion, by contrast, is the recoverable
    /// [`OutOfMemory`]).
    pub fn alloc_bytes(&self, bytes: &[u8]) -> Result<RawBytes, OutOfMemory> {
        let classes = self.domain.classes();
        let (idx, cls) = classes
            .iter()
            .enumerate()
            .filter(|(_, cls)| cls.block_size() >= bytes.len())
            .min_by_key(|(_, cls)| cls.block_size())
            .unwrap_or_else(|| {
                panic!(
                    "no configured byte class fits {} bytes (largest: {:?})",
                    bytes.len(),
                    classes.iter().map(|c| c.block_size()).max()
                )
            });
        // SAFETY: this handle owns slot `tid`.
        let node = unsafe { cls.alloc(self.tid, &self.counters) }?;
        let data = cls.data_ptr(node);
        // SAFETY: the block was just allocated and is unpublished, so we
        // own its buffer exclusively; `block_size >= bytes.len()` by class
        // selection.
        unsafe { core::ptr::copy_nonoverlapping(bytes.as_ptr(), data, bytes.len()) };
        OpCounters::bump(&self.counters.class_allocs[idx]);
        Ok(RawBytes::new(idx, bytes.len(), node))
    }

    /// The bytes stored behind `token` (the `len` passed to
    /// [`Handle::alloc_bytes`]).
    ///
    /// # Safety
    /// `token` must come from this handle's domain and not have been freed;
    /// no thread may concurrently free it or write its buffer for the
    /// lifetime of the returned slice.
    pub unsafe fn bytes(&self, token: &RawBytes) -> &[u8] {
        let cls = &self.domain.classes()[token.class_index()];
        let data = cls.data_ptr(token.node_ptr());
        // SAFETY: per contract the block is live and unaliased by writers.
        unsafe { core::slice::from_raw_parts(data, token.len()) }
    }

    /// Returns `token`'s block to its class pool (the byte-class
    /// `ReleaseRef`: blocks hold exactly one reference).
    ///
    /// # Safety
    /// `token` must come from this handle's domain, must not have been
    /// freed already, and no other thread may still be reading its buffer.
    pub unsafe fn free_bytes(&self, token: RawBytes) {
        let idx = token.class_index();
        let cls = &self.domain.classes()[idx];
        // SAFETY: forwarded contract (unfreed allocation of this class).
        unsafe { cls.free(self.tid, &self.counters, token.node_ptr()) };
        OpCounters::bump(&self.counters.class_frees[idx]);
    }
}

/// The safe snapshot surface, which exists only where a pin protects what
/// it reads ([`Scheme::SNAPSHOT_PROTECTED`]): under a scheme without
/// deferral a plain-loaded pointer can dangle, so `pin()` is not offered
/// there (`wfrc_baselines::LfrcHandle` has a doctest that says so).
impl<'d, T: RcObject> ThreadHandle<'d, T> {
    /// Publishes a snapshot pin and returns its RAII guard: under the
    /// guard, [`PinGuard::snapshot`] dereferences links with a **single
    /// plain load** — no FAA, no announcement-slot write — the read path
    /// that closes the counted-deref gap against uncounted baselines.
    ///
    /// Entering bumps the slot's operation epoch once (the whole pin
    /// session is one logical operation; nested handle calls do not
    /// advance it) and sets this thread's bit in the domain's pin bitmap.
    /// While any pin is live, releases that would free a node defer the
    /// free to a per-slot list instead (drained on unpin / epoch
    /// advance), so a snapshot can never dangle. Pins are re-entrant:
    /// nested guards share one session.
    ///
    /// Escaping the guard goes through [`Snapshot::upgrade`], which runs
    /// the full wait-free announcement protocol — the worst case is
    /// unchanged.
    ///
    /// **Keep pin sessions short.** A long-held guard suppresses memory
    /// reclamation *domain-wide* for its whole duration: every release
    /// defers its free onto a per-slot list, and segment retirement is
    /// vetoed (each [`Handle::reclaim`] attempt aborts after a
    /// bounded check). Memory use grows with the deferral backlog until
    /// the pin retires; safety is never affected. Leaking a guard with
    /// `mem::forget` extends this to the handle's lifetime — the handle's
    /// drop retracts a still-published pin, so the suppression ends there.
    ///
    /// ```
    /// use wfrc_core::{DomainConfig, Link, WfrcDomain};
    ///
    /// let domain = WfrcDomain::<u64>::new(DomainConfig::new(1, 4));
    /// let handle = domain.register().unwrap();
    /// let root = Link::null();
    /// let a = handle.alloc_with(|v| *v = 7).unwrap();
    /// handle.store(&root, Some(&a));
    /// drop(a); // the link keeps the node alive
    ///
    /// let guard = handle.pin();
    /// let snap = guard.snapshot(&root).expect("link is non-null");
    /// assert_eq!(*snap, 7); // plain load — zero FAAs
    /// let owned = snap.upgrade().expect("link unchanged"); // wait-free slow path
    /// drop(snap);
    /// drop(guard); // retires the pin, drains deferred frees
    /// assert_eq!(*owned, 7); // the owned reference survives the guard
    /// drop(owned);
    /// handle.store(&root, None);
    /// assert!(domain.leak_check().is_clean());
    /// ```
    pub fn pin(&self) -> PinGuard<'_, 'd, T> {
        self.pin_raw();
        PinGuard { handle: self }
    }

    /// Drains this slot's deferred-decrement list (frees every batched
    /// node whose covering pins have retired) and returns the number of
    /// nodes freed. Runs automatically on unpin and handle drop; exposed
    /// for benchmarks and tests that measure drain latency directly.
    pub fn drain_deferred(&self) -> usize {
        // SAFETY: this handle owns slot `tid`.
        unsafe { self.pool().drain_deferred(self.tid, &self.counters) }
    }
}

impl<T: RcObject, S: Scheme> Drop for Handle<'_, T, S> {
    fn drop(&mut self) {
        // Fold the snapshot-path counters into the domain-lifetime stats
        // (surfaced by the leak audit) on both exit paths — the
        // per-handle cells die with the handle.
        self.domain.snap.fold(&self.counters.snapshot());
        // A panicking thread must not run the cooperative teardown: its
        // announcement row or gift slot may still hold references that only
        // an adopter can account for, and draining here could double-count.
        // Mark the slot orphaned and let `Domain::adopt_orphans` do the
        // whole recovery (including any deferred-decrement backlog and a
        // still-published pin bit).
        if std::thread::panicking() {
            self.domain.orphan(self.tid);
            return;
        }
        let pool = self.pool();
        // A leaked guard (`mem::forget(PinGuard)`) never ran its unpin:
        // retract the still-published pin bit and restore epoch parity
        // here, or every subsequent release in the domain would defer
        // forever and segment retirement would stay vetoed. Sound because
        // dropping the handle requires that no guard or `Snapshot` borrow
        // of it is live — nothing can still read under the leaked pin.
        if self.pin_depth.get() > 0 {
            self.pin_depth.set(0);
            pool.unpin(self.tid);
            // The session entered exactly one operation level (pin_raw
            // opens one only on the outermost pin).
            pool.op_exit(self.tid, &self.op_depth);
        }
        // Free what the deferred list allows first — drained nodes may
        // park in this thread's magazine, which the flush below returns.
        // SAFETY: this handle owns slot `tid` until `unregister` below.
        unsafe { pool.drain_deferred(self.tid, &self.counters) };
        // Return magazine-parked nodes (node pool and every byte class) to
        // the shared structures strictly before the thread id becomes
        // claimable: a successor thread gets a fresh (empty) magazine, and
        // repeated register/alloc/drop cycles conserve the pool. The
        // Release in `unregister` publishes the drain to the next claimant.
        self.flush_magazines();
        pool.slot_retired(self.tid);
        self.domain.unregister(self.tid);
    }
}

impl<T: RcObject, S: Scheme> core::fmt::Debug for Handle<'_, T, S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Handle")
            .field("scheme", &S::NAME)
            .field("tid", &self.tid)
            .finish()
    }
}

/// An owned reference to a node: the RAII form of the paper's
/// `AllocNode`/`DeRefLink` results. Dropping it is `ReleaseRef`; cloning it
/// is `FixRef(node, 2)`.
#[must_use = "dropping the guard immediately releases the reference"]
pub struct NodeRef<'h, T: RcObject, S: Scheme = Wf> {
    handle: &'h Handle<'h, T, S>,
    node: NonNull<Node<T>>,
}

impl<'h, T: RcObject, S: Scheme> NodeRef<'h, T, S> {
    /// Wraps a raw node carrying one owned reference.
    ///
    /// # Safety
    /// `node` must be non-null, of the handle's domain, with one unreleased
    /// reference owned by the caller.
    pub unsafe fn from_raw(handle: &'h Handle<'h, T, S>, node: *mut Node<T>) -> Self {
        debug_assert!(!node.is_null());
        Self {
            handle,
            // SAFETY: non-null per contract.
            node: unsafe { NonNull::new_unchecked(node) },
        }
    }

    /// The raw node pointer (still owned by the guard).
    pub fn as_ptr(&self) -> *mut Node<T> {
        self.node.as_ptr()
    }

    /// The node header (for diagnostics/tests).
    pub fn as_node(&self) -> &Node<T> {
        // SAFETY: guard holds a reference; node cannot be reclaimed.
        unsafe { self.node.as_ref() }
    }

    /// Consumes the guard *without* releasing: returns the raw pointer and
    /// transfers the reference to the caller (pair with
    /// [`Handle::release_raw`]).
    #[must_use = "the returned pointer carries the guard's reference; dropping it leaks"]
    pub fn into_raw(self) -> *mut Node<T> {
        let p = self.node.as_ptr();
        core::mem::forget(self);
        p
    }
}

impl<T: RcObject, S: Scheme> Deref for NodeRef<'_, T, S> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard owns a reference, so the payload is stable.
        unsafe { self.as_node().payload() }
    }
}

impl<T: RcObject, S: Scheme> Clone for NodeRef<'_, T, S> {
    fn clone(&self) -> Self {
        // FixRef(node, 2): copying a shared pointer (§3.2).
        // SAFETY: this guard's reference keeps the node live.
        unsafe { self.handle.add_ref_raw(self.as_ptr(), 1) };
        Self {
            handle: self.handle,
            node: self.node,
        }
    }
}

impl<T: RcObject, S: Scheme> Drop for NodeRef<'_, T, S> {
    fn drop(&mut self) {
        // SAFETY: the guard's own reference.
        unsafe { self.handle.release_raw(self.node.as_ptr()) };
    }
}

impl<T: RcObject, S: Scheme> PartialEq for NodeRef<'_, T, S> {
    fn eq(&self, other: &Self) -> bool {
        self.node == other.node
    }
}
impl<T: RcObject, S: Scheme> Eq for NodeRef<'_, T, S> {}

impl<T: RcObject + core::fmt::Debug, S: Scheme> core::fmt::Debug for NodeRef<'_, T, S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("NodeRef")
            .field("node", &self.node)
            .field("payload", &**self)
            .finish()
    }
}

/// An active snapshot-pin session (created by [`ThreadHandle::pin`]).
///
/// While the guard lives, this thread's pin bit is published in the
/// domain's pin bitmap and its operation epoch is held odd; every release
/// that would free a node defers the free to a per-slot list instead
/// (see [`crate::reclaim`], DESIGN.md §4f). That is what makes
/// [`PinGuard::snapshot`]'s plain-load dereference sound.
///
/// Dropping the guard retires the pin and opportunistically drains this
/// slot's deferred-decrement list — wholesale, if this was the domain's
/// last live pin.
#[must_use = "dropping the guard immediately retires the pin"]
pub struct PinGuard<'h, 'd, T: RcObject> {
    handle: &'h ThreadHandle<'d, T>,
}

impl<'h, 'd, T: RcObject> PinGuard<'h, 'd, T> {
    /// The handle this pin session belongs to.
    pub fn handle(&self) -> &'h ThreadHandle<'d, T> {
        self.handle
    }

    /// Snapshot dereference: a single plain (`SeqCst`) load of `link` —
    /// no FAA, no announcement-slot write — returning a borrow that
    /// cannot outlive the guard, or `None` if the link was ⊥.
    ///
    /// The target cannot be recycled while the guard lives: a release
    /// that strips it out of the structure lands its free on a deferred
    /// list, drained only after this pin's epoch baseline has retired.
    pub fn snapshot<'g>(&'g self, link: &'g Link<T>) -> Option<Snapshot<'g, 'h, T>> {
        // SAFETY: the pin session is live for at least `'g` — the guard
        // is borrowed for `'g` and `Snapshot` keeps that borrow alive.
        let p = unsafe { self.handle.snapshot_raw(link) };
        NonNull::new(p).map(|node| Snapshot {
            node,
            link,
            handle: self.handle,
            _pin: PhantomData,
        })
    }
}

impl<T: RcObject> Drop for PinGuard<'_, '_, T> {
    fn drop(&mut self) {
        // SAFETY: pairs the `pin_raw` taken in `ThreadHandle::pin`; the
        // borrow rules guarantee no `Snapshot` of this session survives.
        unsafe { self.handle.unpin_raw() };
    }
}

impl<T: RcObject> core::fmt::Debug for PinGuard<'_, '_, T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PinGuard")
            .field("tid", &self.handle.tid)
            .finish()
    }
}

/// A lifetime-bound borrow of a node obtained by a plain load under a
/// [`PinGuard`] — the read-optimized counterpart of [`NodeRef`].
///
/// Holds **no reference count**: validity comes entirely from the pin
/// (the borrow cannot outlive the guard). [`Snapshot::upgrade`] converts
/// it into an owned [`NodeRef`] that survives the guard.
#[must_use = "a snapshot borrows the pin guard and does nothing on its own"]
pub struct Snapshot<'g, 'h, T: RcObject> {
    node: NonNull<Node<T>>,
    link: &'g Link<T>,
    handle: &'h ThreadHandle<'h, T>,
    /// Ties the snapshot to the guard's borrow: the guard cannot be
    /// dropped (retiring the pin) while any snapshot from it is live.
    _pin: PhantomData<&'g ()>,
}

impl<'g, 'h, T: RcObject> Snapshot<'g, 'h, T> {
    /// The raw node pointer (protected by the pin, not by a count).
    pub fn as_ptr(&self) -> *mut Node<T> {
        self.node.as_ptr()
    }

    /// Upgrades the snapshot to an owned [`NodeRef`] through the full
    /// wait-free announcement protocol ([`Handle::deref`] on the
    /// snapshot's source link), so the result is independent of the pin
    /// and may outlive the guard.
    ///
    /// Returns `None` if the link no longer resolves to the snapshot's
    /// node — the structure moved on and the caller should re-read. The
    /// snapshot itself stays valid either way (the pin still protects
    /// it).
    pub fn upgrade(&self) -> Option<NodeRef<'h, T>> {
        let h: &'h ThreadHandle<'h, T> = self.handle;
        OpCounters::bump(&h.counters.upgrade_slow);
        // Death mid-upgrade holds no protocol resource beyond the pin and
        // epoch: the unwinding guard drop retires both, the handle drop
        // orphans the slot, and adoption recovers any deferred nodes.
        #[cfg(feature = "fault-injection")]
        h.pool()
            .fault_hit(&h.counters, crate::fault::FaultSite::SnapshotUpgrade, h.tid);
        // A retargeted link drops the fresh guard: re-read.
        h.deref(self.link)
            .filter(|owned| owned.as_ptr() == self.node.as_ptr())
    }
}

impl<T: RcObject> Deref for Snapshot<'_, '_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the pin guard is borrowed for this snapshot's lifetime,
        // so every release of this node since the pin was published sits
        // on a deferred list — the payload cannot be recycled.
        unsafe { self.node.as_ref().payload() }
    }
}

impl<T: RcObject + core::fmt::Debug> core::fmt::Debug for Snapshot<'_, '_, T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Snapshot")
            .field("node", &self.node)
            .field("payload", &**self)
            .finish()
    }
}

/// A weak reference to a node (DESIGN.md §4g): keeps the node's *header*
/// reachable without keeping its payload alive.
///
/// Created by [`Handle::downgrade`] (one FAA — the strong guard proves
/// liveness). Holds one weak count in the upper half of the node's packed
/// `mm_ref` word; the strong hot path is untouched. When the strong count
/// drains, the payload's links are stripped and the header enters the
/// DEAD-but-weak state — off every free structure — until the last weak
/// reference drops and finalizes it back into the free path.
///
/// [`Weak::upgrade`] attempts to mint a strong reference: a bounded CAS
/// loop that succeeds iff the claim bit is clear (equivalently, iff the
/// strong count is nonzero at the upgrade's linearization point — see
/// [`Node::try_upgrade`]).
#[must_use = "dropping the weak reference immediately releases its count"]
pub struct Weak<'h, T: RcObject, S: Scheme = Wf> {
    handle: &'h Handle<'h, T, S>,
    node: NonNull<Node<T>>,
}

impl<'h, T: RcObject, S: Scheme> Weak<'h, T, S> {
    /// Attempts to upgrade to an owned strong reference. Fails (returns
    /// `None`) iff the node's strong count had already drained and its
    /// claim was taken — once dead, a node stays dead for as long as this
    /// weak reference pins its header.
    pub fn upgrade(&self) -> Option<NodeRef<'h, T, S>> {
        let (h, node) = (self.handle, self.node.as_ptr());
        // SAFETY: our weak count pins the header; a successful upgrade
        // installed one strong reference the new guard owns.
        unsafe { h.upgrade_raw(node).then(|| NodeRef::from_raw(h, node)) }
    }

    /// The raw node pointer. The header is pinned by this weak reference,
    /// but the payload may be dead — never dereference without upgrading.
    pub fn as_ptr(&self) -> *mut Node<T> {
        self.node.as_ptr()
    }

    /// True if the target's payload has died (strong count drained and
    /// claim taken). A `false` answer is advisory — it may be stale by the
    /// time the caller acts; only [`Weak::upgrade`] decides authoritatively.
    pub fn is_dead(&self) -> bool {
        // SAFETY: our weak count pins the header.
        unsafe { self.node.as_ref() }.is_claimed()
    }
}

impl<T: RcObject, S: Scheme> Clone for Weak<'_, T, S> {
    fn clone(&self) -> Self {
        // Our own weak count pins the header (and keeps it off every free
        // structure, so no retire can complete under us): a plain FAA,
        // unbracketed, suffices.
        // SAFETY: header pinned per above.
        unsafe { self.node.as_ref() }.faa_weak(1);
        Self {
            handle: self.handle,
            node: self.node,
        }
    }
}

impl<T: RcObject, S: Scheme> Drop for Weak<'_, T, S> {
    fn drop(&mut self) {
        // SAFETY: this reference's own weak count.
        unsafe { self.handle.release_weak_raw(self.node.as_ptr()) };
    }
}

impl<T: RcObject, S: Scheme> core::fmt::Debug for Weak<'_, T, S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Weak")
            .field("node", &self.node)
            .field("dead", &self.is_dead())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{DomainConfig, WfrcDomain};

    fn domain(threads: usize, cap: usize) -> WfrcDomain<u64> {
        WfrcDomain::new(DomainConfig::new(threads, cap))
    }

    #[test]
    fn guard_drop_releases() {
        let d = domain(1, 2);
        let h = d.register().unwrap();
        let a = h.alloc_with(|v| *v = 1).unwrap();
        assert_eq!(a.as_node().ref_count(), 1);
        drop(a);
        assert!(d.leak_check().is_clean());
    }

    #[test]
    fn guard_clone_bumps_count() {
        let d = domain(1, 2);
        let h = d.register().unwrap();
        let a = h.alloc_with(|v| *v = 1).unwrap();
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.as_node().ref_count(), 2);
        drop(a);
        assert_eq!(b.as_node().ref_count(), 1);
        assert_eq!(*b, 1);
    }

    #[test]
    fn cas_success_transfers_link_count() {
        let d = domain(1, 4);
        let h = d.register().unwrap();
        let a = h.alloc_with(|v| *v = 1).unwrap();
        let b = h.alloc_with(|v| *v = 2).unwrap();
        let link = Link::null();
        assert!(h.cas(&link, None, Some(&a)));
        assert_eq!(a.as_node().ref_count(), 2);
        assert!(h.cas(&link, Some(&a), Some(&b)));
        assert_eq!(a.as_node().ref_count(), 1);
        assert_eq!(b.as_node().ref_count(), 2);
        assert!(h.cas(&link, Some(&b), None));
        assert_eq!(b.as_node().ref_count(), 1);
    }

    #[test]
    fn cas_failure_leaves_counts_unchanged() {
        let d = domain(1, 4);
        let h = d.register().unwrap();
        let a = h.alloc_with(|v| *v = 1).unwrap();
        let b = h.alloc_with(|v| *v = 2).unwrap();
        let link = Link::null();
        h.store(&link, Some(&a));
        // Expect b (wrong): must fail and not disturb anything.
        assert!(!h.cas(&link, Some(&b), None));
        assert_eq!(a.as_node().ref_count(), 2);
        assert_eq!(b.as_node().ref_count(), 1);
        assert_eq!(link.load_raw(), a.as_ptr());
        h.store(&link, None);
    }

    #[test]
    fn store_replaces_and_releases_old() {
        let d = domain(1, 4);
        let h = d.register().unwrap();
        let a = h.alloc_with(|v| *v = 1).unwrap();
        let b = h.alloc_with(|v| *v = 2).unwrap();
        let link = Link::null();
        h.store(&link, Some(&a));
        h.store(&link, Some(&b));
        assert_eq!(a.as_node().ref_count(), 1);
        assert_eq!(b.as_node().ref_count(), 2);
        h.store(&link, None);
        assert_eq!(b.as_node().ref_count(), 1);
    }

    #[test]
    fn deref_returns_guarded_payload() {
        let d = domain(1, 4);
        let h = d.register().unwrap();
        let a = h.alloc_with(|v| *v = 42).unwrap();
        let link = Link::null();
        h.store(&link, Some(&a));
        drop(a); // the link keeps it alive
        let g = h.deref(&link).expect("link is non-null");
        assert_eq!(*g, 42);
        assert_eq!(g.as_node().ref_count(), 2); // link + guard
        h.store(&link, None);
        assert_eq!(g.as_node().ref_count(), 1);
        drop(g);
        assert!(d.leak_check().is_clean());
    }

    #[test]
    fn into_raw_and_release_raw_roundtrip() {
        let d = domain(1, 2);
        let h = d.register().unwrap();
        let a = h.alloc_with(|v| *v = 7).unwrap();
        let p = a.into_raw();
        // SAFETY: we own the transferred reference.
        unsafe {
            assert_eq!(*h.payload_raw(p), 7);
            h.release_raw(p);
        }
        assert!(d.leak_check().is_clean());
    }

    #[test]
    fn alloc_bytes_picks_smallest_fitting_class() {
        use crate::class::ClassConfig;
        let d = WfrcDomain::<u64>::new(
            DomainConfig::new(1, 2)
                .with_class(ClassConfig::new(64, 8))
                .with_class(ClassConfig::new(256, 8)),
        );
        let h = d.register().unwrap();
        let small = h.alloc_bytes(b"tiny").unwrap();
        assert_eq!(small.class_index(), 0);
        let big = h.alloc_bytes(&[7u8; 100]).unwrap();
        assert_eq!(big.class_index(), 1);
        // SAFETY: both tokens are live and nothing writes their buffers.
        unsafe {
            assert_eq!(h.bytes(&small), b"tiny");
            assert_eq!(h.bytes(&big), &[7u8; 100][..]);
            h.free_bytes(small);
            h.free_bytes(big);
        }
        let snap = h.counters().snapshot();
        assert_eq!(snap.class_allocs[0], 1);
        assert_eq!(snap.class_allocs[1], 1);
        assert_eq!(snap.class_frees[0], 1);
        assert_eq!(snap.class_frees[1], 1);
        drop(h);
        assert!(d.leak_check().is_clean());
    }

    #[test]
    #[should_panic(expected = "no configured byte class fits")]
    fn alloc_bytes_panics_when_nothing_fits() {
        use crate::class::ClassConfig;
        let d = WfrcDomain::<u64>::new(DomainConfig::new(1, 2).with_class(ClassConfig::new(64, 8)));
        let h = d.register().unwrap();
        let _ = h.alloc_bytes(&[0u8; 65]);
    }

    #[test]
    fn class_magazines_drain_on_handle_drop() {
        use crate::class::ClassConfig;
        let d = WfrcDomain::<u64>::new(
            DomainConfig::new(1, 2).with_class(ClassConfig::new(64, 8).with_magazine(4)),
        );
        let h = d.register().unwrap();
        let t = h.alloc_bytes(&[1, 2, 3]).unwrap();
        // SAFETY: freeing our own live token; with a magazine configured
        // the block parks in the thread's class magazine.
        unsafe { h.free_bytes(t) };
        drop(h);
        // The drop drained the class magazine, so the audit sees every
        // block back on the shared structures.
        let report = d.leak_check();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.classes[0].magazine_nodes, 0);
    }

    /// The bracket contract: `FixRef` (the caller already holds a
    /// reference) leaves the slot epoch alone, while a dereference flips it
    /// twice — in a fixed pool and in one that can retire alike.
    #[test]
    fn add_ref_raw_is_unbracketed_and_deref_raw_is_bracketed() {
        use crate::arena::Growth;
        for growth in [Growth::Disabled, Growth::doubling_to(64)] {
            let d = WfrcDomain::<u64>::new(DomainConfig::new(1, 4).with_growth(growth));
            let h = d.register().unwrap();
            let epoch = || d.shared().reclaim.epoch(h.tid()).read();
            let a = h.alloc_with(|v| *v = 3).unwrap();
            let link = Link::null();
            h.store(&link, Some(&a));
            let before = epoch();
            // SAFETY: `a` holds a reference for the whole block.
            unsafe { h.add_ref_raw(a.as_ptr(), 1) };
            assert_eq!(epoch(), before, "{growth:?}: FixRef moved the epoch");
            // SAFETY: `link` holds only nodes of this domain.
            let p = unsafe { h.deref_raw(&link) };
            assert_eq!(p, a.as_ptr());
            assert_eq!(epoch(), before + 2, "{growth:?}: deref is one bracket");
            // SAFETY: the FixRef's and the deref's references.
            unsafe {
                h.release_raw(p);
                h.release_raw(p);
            }
            h.store(&link, None);
            drop(a);
            drop(h);
            assert!(d.leak_check().is_clean(), "{growth:?}");
        }
    }

    /// `SlotEpoch::enter`'s `SeqCst` FAA is reached only from a pool that
    /// can retire a segment: a fixed pool (node pool and byte class) runs
    /// every bracketed operation on the plain store.
    #[test]
    fn only_a_pool_that_can_retire_pays_the_fenced_enter() {
        use crate::arena::Growth;
        use crate::class::ClassConfig;
        use crate::reclaim::FENCED_ENTERS;
        let fenced = || FENCED_ENTERS.with(|n| n.get());
        let churn = |growth: Growth| {
            let d = WfrcDomain::<u64>::new(
                DomainConfig::new(1, 4)
                    .with_growth(growth)
                    .with_class(ClassConfig::new(64, 4).with_growth(growth)),
            );
            assert_eq!(d.shared().can_retire, growth != Growth::Disabled);
            let h = d.register().unwrap();
            let start = fenced();
            let link = Link::null();
            let a = h.alloc_with(|v| *v = 1).unwrap();
            h.store(&link, Some(&a));
            drop(h.deref(&link));
            drop(a.clone());
            h.store(&link, None);
            drop(a);
            let token = h.alloc_bytes(b"block").unwrap();
            // SAFETY: our own unfreed token.
            unsafe { h.free_bytes(token) };
            drop(h.pin());
            let n = fenced() - start;
            drop(h);
            assert!(d.leak_check().is_clean());
            n
        };
        assert_eq!(churn(Growth::Disabled), 0);
        assert!(churn(Growth::doubling_to(64)) > 0);
    }

    #[test]
    fn node_keeps_value_while_any_guard_lives() {
        let d = domain(1, 1); // single node: reuse would overwrite
        let h = d.register().unwrap();
        let a = h.alloc_with(|v| *v = 11).unwrap();
        let b = a.clone();
        drop(a);
        // Allocation must fail: the only node is still referenced.
        assert!(h.alloc_with(|v| *v = 99).is_err());
        assert_eq!(*b, 11);
    }
}
