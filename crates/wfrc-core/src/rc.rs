//! The wait-free reference counting operations (paper Figure 4).
//!
//! The fundamental race in concurrent reference counting: between reading a
//! link (`node := *link`) and incrementing the target's count
//! (`FAA(&node.mm_ref, 2)`), a concurrent thread may remove the last
//! reference and reclaim the node. Valois' lock-free answer increments
//! anyway (type-stable memory makes that safe) and *re-checks* the link,
//! retrying on mismatch — unboundedly under contention.
//!
//! The paper's wait-free answer inverts the obligation: the reader
//! **announces** the link first (lines D1–D3); any writer that changes a
//! link must run `HelpDeRef` over all announcements *before* releasing the
//! old target (§3.2 rule), installing a fresh reference-counted answer into
//! any matching announcement slot (lines H3–H6). The reader's retracting
//! SWAP (line D6) then either finds its own announcement intact — in which
//! case the paper's Lemma 2 shows the plain read of D4 was already safe —
//! or finds a helper's answer and uses that, returning its own speculative
//! increment (line D8).
//!
//! In front of D1 sits one Valois attempt, [`try_deref_once`]: load the
//! link, `FAA(+2)`, re-load. An unchanged link returns the node at LFRC's
//! price; a moved one returns the count and falls through to D1–D10 —
//! Kogan and Petrank's fast-path/slow-path construction (DESIGN.md §4a).
//! One attempt, then the paper's D1–D10: `DeRefLink` is wait-free by
//! construction, and `HelpDeRef` is one bounded pass over `NR_THREADS`
//! slots. The lock-free baseline's `DeRefLink` is the same attempt in a
//! loop.

use core::ptr;

use crate::announce::decode_retract;
use crate::counters::OpCounters;
use crate::domain::Shared;
use crate::link::Link;
use crate::node::{Claim, Node, RcObject};
use crate::scheme::Pool;

impl<T: RcObject> Shared<T> {
    /// `DeRefLink`: dereference `link`, returning a node pointer with one
    /// additional reference count owned by the caller, or null if the link
    /// was ⊥ — one [`try_deref_once`] attempt, then on a miss the paper's
    /// lines D1–D10.
    ///
    /// The returned node is one the link pointed to at some instant during
    /// this call (the attempt's re-load, or the linearizability point of
    /// Lemma 2).
    pub(crate) fn deref_link(&self, tid: usize, c: &OpCounters, link: &Link<T>) -> *mut Node<T> {
        OpCounters::bump(&c.deref_calls);
        // SAFETY: crate-internal callers hold slot `tid`; `link` holds
        // nodes of this pool.
        match unsafe { try_deref_once(self, tid, c, link) } {
            Some(node) => node,
            None => self.deref_announced(tid, c, link),
        }
    }

    /// Lines D1–D10: the announced dereference a missed fast attempt falls
    /// back to.
    fn deref_announced(&self, tid: usize, c: &OpCounters, link: &Link<T>) -> *mut Node<T> {
        let ann = &self.ann;
        // D1: pick an announcement slot with no pending helper CAS.
        let idx = {
            let mut scanned = 1u64;
            let mut i = 0;
            while ann.busy_count(tid, i) != 0 {
                i += 1;
                scanned += 1;
                assert!(
                    i < self.n,
                    "announcement protocol violated: all slots busy (thread {tid})"
                );
            }
            OpCounters::add(&c.deref_slot_scans, scanned);
            OpCounters::record_max(&c.max_deref_slot_scan, scanned);
            i
        };
        ann.set_index(tid, idx); // D2
        ann.publish(tid, idx, link.addr()); // D3
                                            // A death here leaves exactly one live announcement, which adoption
                                            // retracts (and releases, if a helper answered it post-mortem).
        #[cfg(feature = "fault-injection")]
        self.fault_hit(c, crate::fault::FaultSite::AnnouncePublish, tid);
        // D4 — stripping a possible deletion mark (bit 0): the structures
        // of [18] mark a node's outgoing links before unlinking it; a marked
        // link still *points to* its node for dereferencing purposes.
        let mut node = wfrc_primitives::tagged::without_tag(link.load_raw());
        // Between the D4 read and the D5 increment is the race the paper's
        // helping closes; a death here still holds nothing but the
        // announcement (the speculative count has not been taken yet).
        #[cfg(feature = "fault-injection")]
        self.fault_hit(c, crate::fault::FaultSite::DerefFaa, tid);
        if !node.is_null() {
            // D5: speculative increment — safe even on a reclaimed node
            // because arena headers are type-stable.
            // SAFETY: see above; `node` was read from a link of this domain.
            unsafe { (*node).faa_ref(2) };
        }
        let word = ann.retract(tid, idx); // D6

        // The announcement is gone; the presence bit stays up for the rest
        // of the registration. A death here leaves an empty row under a
        // raised bit — helpers read it and match nothing — until adoption
        // lowers the bit. But the dying deref owns counts nobody can
        // enumerate any more (the slot is already empty, so adoption's
        // retraction finds nothing): the completion consumes them, leaving
        // exactly "slot empty, bit up" as the crash residue this site
        // models.
        #[cfg(feature = "fault-injection")]
        self.fault_hit_or(c, crate::fault::FaultSite::SummaryClear, tid, || {
            let final_node = match decode_retract(word, link.addr()) {
                Some(answer) => {
                    if !node.is_null() {
                        self.release_ref(tid, c, node); // D8
                    }
                    answer as *mut Node<T>
                }
                None => node,
            };
            if !final_node.is_null() {
                self.release_ref(tid, c, final_node);
            }
        });
        if let Some(answer) = decode_retract(word, link.addr()) {
            // D7: a helper answered; our speculative target may be stale.
            OpCounters::bump(&c.deref_helped);
            if !node.is_null() {
                self.release_ref(tid, c, node); // D8
            }
            node = answer as *mut Node<T>; // D9
        }
        node // D10
    }

    /// `ReleaseRef` under this pool's slot `tid` (see [`release_ref`]).
    #[inline]
    pub(crate) fn release_ref(&self, tid: usize, c: &OpCounters, node: *mut Node<T>) {
        // SAFETY: crate-internal callers hold slot `tid` and a reference on
        // `node`, a node of this pool.
        unsafe { release_ref(self, tid, c, node) }
    }

    /// `HelpDeRef` (paper lines H1–H8): called by every operation that has
    /// changed `link`, *before* it releases the node `link` previously
    /// pointed to (§3.2). Scans all threads' current announcements and
    /// answers any that match `link` with a freshly dereferenced,
    /// reference-counted node.
    #[inline]
    pub(crate) fn help_deref(&self, tid: usize, c: &OpCounters, link: &Link<T>) {
        OpCounters::bump(&c.help_calls);
        // Fast path: line H1 restricted to threads that have announced
        // since they registered. A thread's presence bit goes up before its
        // first D3 and stays up until its handle drops (`announce.rs`,
        // "Announcement-presence summary"), so an empty summary means no
        // registered thread is a reader and the §3.2 obligation is
        // discharged without reading a slot word. Safety of trusting a bit
        // that is down: the raise is SeqCst and precedes D3, our load is
        // SeqCst and follows our link change, so any announcer that read
        // the old node is visible here.
        if self.ann.summary_empty() {
            OpCounters::bump(&c.help_scan_skips);
            return;
        }
        self.help_deref_scan(tid, c, link);
    }

    /// The H1–H8 sweep proper, over the rows whose presence bit is up: two
    /// loads a row (`annIndex`, then the slot it names) and no RMW unless a
    /// slot matches — a bit over an idle reader's empty row costs exactly
    /// those two loads. Entered only when the summary was non-empty at the
    /// check above (a handle may have dropped since — the sweep visits
    /// whatever is still flagged, and counts as a skip if nothing is).
    fn help_deref_scan(&self, tid: usize, c: &OpCounters, link: &Link<T>) {
        let ann = &self.ann;
        let la = link.addr();
        let scanned = ann.for_each_announcer(|id| {
            // H1 (restricted to threads whose presence bit is up)
            let idx = ann.current_index(id); // H2
            if ann.slot_announces(id, idx, la) {
                // H3 matched: pin the slot so it cannot be reused while our
                // answer CAS is pending (the ABA defence of §3). The pin is
                // RAII so an unwind through H5/H6 still performs H8 — a
                // dead helper must not leave a slot busy forever (it would
                // shrink the announcer's D1 slot supply permanently).
                let _pin = BusyPin::new(ann, id, idx); // H4
                                                       // A death here holds only the busy pin, which `_pin`
                                                       // releases on unwind.
                #[cfg(feature = "fault-injection")]
                self.fault_hit(c, crate::fault::FaultSite::HelperCas, tid);
                let node = self.deref_link(tid, c, link); // H5
                if ann.try_answer(id, idx, la, node as usize) {
                    // H6 succeeded: the reference we took in H5 is
                    // transferred to the announcing thread.
                    OpCounters::bump(&c.help_answers);
                } else {
                    // H6 lost (someone else answered, or the announcement
                    // completed): keep our count honest.
                    OpCounters::bump(&c.help_lost);
                    if !node.is_null() {
                        self.release_ref(tid, c, node); // H7
                    }
                }
                // H8 via `_pin`'s drop.
            }
        });
        if scanned {
            OpCounters::bump(&c.help_scan_full);
        } else {
            OpCounters::bump(&c.help_scan_skips);
        }
    }
}

/// One validated Valois attempt at `DeRefLink`, the body both schemes'
/// [`Pool::deref_link`] start with (the wait-free one falls back to D1–D10
/// on a miss, the lock-free one loops): load the raw link (deletion mark
/// included), return ⊥ if it is ⊥, otherwise `FAA(+2)` the node and
/// re-load the link. Unchanged, the node is returned with the caller's
/// count — the re-load is the linearization point. Moved, the speculative
/// count goes back through `ReleaseRef` (as D8 returns D5's) and the
/// attempt reports a miss with `None`.
///
/// The increment may land on a node reclaimed since the load; type-stable
/// headers and the claim-bit parity absorb it exactly as they absorb D5's,
/// and the miss's release re-checks a DEAD-but-weak header's finalize
/// sentinel. No announcement is published, so no writer owes this attempt
/// help. The three accesses are `SeqCst`, so the re-load cannot be
/// satisfied before the increment (DESIGN.md §4b).
///
/// # Safety
/// The caller owns slot `tid` of `pool`'s domain, and `link` only ever
/// holds nodes of `pool`.
#[inline]
pub unsafe fn try_deref_once<T: RcObject, P: Pool<T>>(
    pool: &P,
    tid: usize,
    c: &OpCounters,
    link: &Link<T>,
) -> Option<*mut Node<T>> {
    let raw = link.load_raw();
    let node = wfrc_primitives::tagged::without_tag(raw);
    if node.is_null() {
        return Some(node);
    }
    // Between the load and the increment: a death here holds nothing. A
    // `Swing` armed here fails the re-check below on purpose.
    #[cfg(feature = "fault-injection")]
    let swung = pool.fault_hit(c, crate::fault::FaultSite::DerefFast, tid);
    #[cfg(not(feature = "fault-injection"))]
    let swung = false;
    // SAFETY: arena node; the type-stable header makes the speculative
    // increment safe even if the node was just reclaimed.
    unsafe { (*node).faa_ref(2) };
    // Re-check the raw word: a mark-only change leaves the target
    // identical and must not miss.
    if !swung && link.load_raw() == raw {
        return Some(node);
    }
    OpCounters::bump(&c.deref_fast_miss);
    // SAFETY: we own the +2 just added.
    unsafe { release_ref(pool, tid, c, node) };
    None
}

/// `ReleaseRef` (paper lines R1–R4): drop one reference count from `node`;
/// the invocation whose R2 CAS claims the node at count zero releases the
/// node's own links (R3) and returns it to the pool (R4,
/// [`Pool::free_finalized`] — the one step in which the schemes differ).
///
/// The paper writes R3 as recursion; a chain of single-referenced nodes
/// would recurse chain-deep, so this implementation drives the same order
/// of operations with an explicit work list (allocated lazily — the common
/// non-reclaiming call does no heap work).
///
/// # Safety
/// The caller owns slot `tid` of `pool`'s domain and an unreleased
/// reference on non-null `node`, a node of `pool`.
pub(crate) unsafe fn release_ref<T: RcObject, P: Pool<T>>(
    pool: &P,
    tid: usize,
    c: &OpCounters,
    node: *mut Node<T>,
) {
    debug_assert!(!node.is_null());
    // A death at this site must not forget the count the caller is
    // contractually dropping (it would pin `node` live forever): the
    // completion performs the whole release before the unwind resumes.
    #[cfg(feature = "fault-injection")]
    pool.fault_hit_or(c, crate::fault::FaultSite::ReleaseFaa, tid, || {
        // SAFETY: forwarded contract.
        unsafe { release_ref_body(pool, tid, c, node) };
    });
    // SAFETY: forwarded contract.
    unsafe { release_ref_body(pool, tid, c, node) };
}

/// # Safety
/// Same contract as [`release_ref`].
unsafe fn release_ref_body<T: RcObject, P: Pool<T>>(
    pool: &P,
    tid: usize,
    c: &OpCounters,
    node: *mut Node<T>,
) {
    let mut pending: Option<Vec<*mut Node<T>>> = None;
    let mut cur = node;
    loop {
        OpCounters::bump(&c.releases);
        // SAFETY: arena node (type-stable header).
        let n = unsafe { &*cur };
        n.faa_ref(-2); // R1
        match n.try_claim_weak() {
            Claim::Busy => {
                // Either the node is still strongly referenced, or we were
                // a speculative release on a DEAD-but-weak header. If our
                // decrement exposed the finalize sentinel (DEAD|1), the
                // weak holders have all dropped and we are the designated
                // finalizer.
                if n.maybe_finalize() {
                    // SAFETY: the finalize CAS made `cur` exclusively ours.
                    unsafe { pool.free_finalized(tid, c, cur) };
                }
            }
            claim => {
                // R2 won: we own `cur`'s payload exclusively now.
                OpCounters::bump(&c.reclaims);
                // R3: strip and release every reference the payload holds —
                // strong links recurse through the work list, weak links
                // drop one weak count on their target (finalizing it if
                // that was the last).
                // SAFETY: exclusive ownership — strong count is 0 and
                // claimed, so no thread can reach the payload through the
                // protocol.
                let payload = unsafe { n.payload() };
                payload.each_link(&mut |l| {
                    // Deletion marks (bit 0) do not carry a count of their
                    // own — strip before releasing.
                    let child = wfrc_primitives::tagged::without_tag(l.swap_raw(ptr::null_mut()));
                    if !child.is_null() {
                        pending.get_or_insert_with(Vec::new).push(child);
                    }
                });
                payload.each_weak_link(&mut |wl| {
                    let child =
                        wfrc_primitives::tagged::without_tag(wl.inner().swap_raw(ptr::null_mut()));
                    if !child.is_null() {
                        // SAFETY: the link owned one weak unit on `child`.
                        unsafe { release_weak(pool, tid, c, child) };
                    }
                });
                match claim {
                    // R4 (under a live snapshot pin the wait-free pool
                    // defers instead — the node's payload may still be
                    // borrowed by a plain-load `Snapshot`; reclaim.rs).
                    // SAFETY: the claim made `cur` exclusively ours.
                    Claim::Free => unsafe { pool.free_finalized(tid, c, cur) },
                    // Weak references remain: the header stays
                    // DEAD-but-weak, off every free structure. Drop the
                    // guard weak reference the claim CAS deposited; if
                    // every holder raced their drop in during the strip,
                    // finalize here.
                    // SAFETY: that guard unit is ours to drop.
                    Claim::DeadWeak => unsafe { release_weak(pool, tid, c, cur) },
                    Claim::Busy => unreachable!(),
                }
            }
        }
        match pending.as_mut().and_then(|p| p.pop()) {
            Some(next) => cur = next,
            None => break,
        }
    }
}

/// Drops one weak count on `node`; the last one off a DEAD header
/// finalizes it and hands it to [`Pool::free_finalized`].
///
/// # Safety
/// The caller owns slot `tid` of `pool`'s domain and an unreleased weak
/// count on non-null `node`, a node of `pool`.
pub(crate) unsafe fn release_weak<T: RcObject, P: Pool<T>>(
    pool: &P,
    tid: usize,
    c: &OpCounters,
    node: *mut Node<T>,
) {
    // SAFETY: arena node (type-stable header), pinned by the caller's count.
    let n = unsafe { &*node };
    n.faa_weak(-1);
    if n.maybe_finalize() {
        // SAFETY: the finalize CAS made `node` exclusively ours.
        unsafe { pool.free_finalized(tid, c, node) };
    }
}

/// Scope guard for the H4 busy pin: `Drop` performs H8 so the pin survives
/// an unwind through H5–H7 (see `help_deref`).
struct BusyPin<'a> {
    ann: &'a crate::announce::Announce,
    id: usize,
    idx: usize,
}

impl<'a> BusyPin<'a> {
    fn new(ann: &'a crate::announce::Announce, id: usize, idx: usize) -> Self {
        ann.busy_inc(id, idx); // H4
        Self { ann, id, idx }
    }
}

impl Drop for BusyPin<'_> {
    fn drop(&mut self) {
        self.ann.busy_dec(self.id, self.idx); // H8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{DomainConfig, WfrcDomain};
    use crate::handle::ThreadHandle;

    fn domain(threads: usize, cap: usize) -> WfrcDomain<u64> {
        WfrcDomain::new(DomainConfig::new(threads, cap))
    }

    fn raw_parts<'d>(h: &ThreadHandle<'d, u64>) -> (&'d Shared<u64>, usize) {
        (h.domain().shared(), h.tid())
    }

    #[test]
    fn deref_null_link_returns_null_without_count_changes() {
        let d = domain(1, 4);
        let h = d.register().unwrap();
        let link = Link::null();
        let (s, tid) = raw_parts(&h);
        let p = s.deref_link(tid, h.counters(), &link);
        assert!(p.is_null());
    }

    #[test]
    fn deref_live_link_increments_count() {
        let d = domain(1, 4);
        let h = d.register().unwrap();
        let a = h.alloc_with(|v| *v = 5).unwrap();
        let link = Link::null();
        h.store(&link, Some(&a)); // link holds +2
        let node = a.as_node();
        assert_eq!(node.ref_count(), 2); // guard + link
        let (s, tid) = raw_parts(&h);
        let p = s.deref_link(tid, h.counters(), &link);
        assert_eq!(p, a.as_ptr());
        assert_eq!(node.ref_count(), 3);
        s.release_ref(tid, h.counters(), p);
        assert_eq!(node.ref_count(), 2);
        h.store(&link, None);
        assert_eq!(node.ref_count(), 1);
    }

    #[test]
    fn uncontended_deref_never_announces() {
        let d = domain(1, 4);
        let h = d.register().unwrap();
        let a = h.alloc_with(|v| *v = 5).unwrap();
        let link = Link::null();
        h.store(&link, Some(&a));
        for _ in 0..3 {
            assert_eq!(h.deref(&link).map(|g| *g), Some(5));
        }
        assert!(
            !d.announcement_summary_bit(h.tid()),
            "a hit never announces"
        );
        let c = h.counters().snapshot();
        assert_eq!((c.deref_calls, c.deref_fast_miss), (3, 0));
        assert_eq!(a.as_node().ref_count(), 2, "guard + link");
        h.store(&link, None);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn a_missed_attempt_falls_back_to_the_announcement() {
        use crate::fault::FaultPlan;
        let mut d = domain(1, 4);
        let plan = std::sync::Arc::new(FaultPlan::new(1));
        d.set_fault_plan(std::sync::Arc::clone(&plan));
        plan.swing_every_deref(0);
        let h = d.register().unwrap();
        let a = h.alloc_with(|v| *v = 5).unwrap();
        let link = Link::null();
        h.store(&link, Some(&a));
        assert_eq!(h.deref(&link).map(|g| *g), Some(5));
        assert!(d.announcement_summary_bit(h.tid()), "D1-D10 raised the bit");
        let c = h.counters().snapshot();
        assert_eq!((c.deref_calls, c.deref_fast_miss), (1, 1));
        assert_eq!(a.as_node().ref_count(), 2, "the miss returned its count");
        assert_eq!(plan.injected(), 0, "a swing is not a fault");
        h.store(&link, None);
    }

    #[test]
    fn release_to_zero_reclaims_and_frees() {
        let d = domain(1, 4);
        let h = d.register().unwrap();
        let a = h.alloc_with(|v| *v = 9).unwrap();
        let ptr = a.as_ptr();
        let before = h.counters().snapshot().reclaims;
        drop(a); // release to zero
        assert_eq!(h.counters().snapshot().reclaims, before + 1);
        // SAFETY: arena keeps the header readable after reclamation.
        let raw = unsafe { (*ptr).load_ref() };
        assert!(
            raw == 1 || raw == 3,
            "free (1) or parked as gift (3), got {raw}"
        );
    }

    #[test]
    fn helper_answers_pending_announcement() {
        // Simulate the helping flow by hand: announce, then run help_deref
        // from the same (only) thread and observe the answer transfer.
        let d = domain(2, 8);
        let h0 = d.register().unwrap();
        let h1 = d.register().unwrap();
        let a = h0.alloc_with(|v| *v = 1).unwrap();
        let link = Link::null();
        h0.store(&link, Some(&a));

        let s = d.shared();
        // Thread 0 announces but has not yet read the link (we stop there).
        let idx = 0;
        s.ann.set_index(h0.tid(), idx);
        s.ann.publish(h0.tid(), idx, link.addr());
        // Thread 1 (the link modifier) helps.
        s.help_deref(h1.tid(), h1.counters(), &link);
        assert_eq!(h1.counters().snapshot().help_answers, 1);
        // The announcement now carries a node answer with a transferred count.
        let word = s.ann.retract(h0.tid(), idx);
        let ans = decode_retract(word, link.addr()).expect("must be an answer");
        assert_eq!(ans as *mut Node<u64>, a.as_ptr());
        assert_eq!(a.as_node().ref_count(), 3); // guard + link + answer
        s.release_ref(h0.tid(), h0.counters(), ans as *mut Node<u64>);
        h0.store(&link, None);
    }

    #[test]
    fn help_deref_ignores_foreign_links() {
        let d = domain(2, 8);
        let h0 = d.register().unwrap();
        let h1 = d.register().unwrap();
        let a = h0.alloc_with(|v| *v = 1).unwrap();
        let link_a = Link::null();
        let link_b = Link::null();
        h0.store(&link_a, Some(&a));
        let s = d.shared();
        // Announce link_a, help link_b: no match, no answer.
        s.ann.set_index(h0.tid(), 0);
        s.ann.publish(h0.tid(), 0, link_a.addr());
        s.help_deref(h1.tid(), h1.counters(), &link_b);
        assert_eq!(h1.counters().snapshot().help_answers, 0);
        assert_eq!(s.ann.retract(h0.tid(), 0), link_a.addr());
        h0.store(&link_a, None);
    }

    #[test]
    fn release_drains_child_links_iteratively() {
        // Build a 10_000-long chain a -> b -> c ... and drop the head: the
        // recursive R3 of the paper would recurse 10_000 deep.
        #[derive(Default)]
        struct Cell {
            next: Link<Cell>,
        }
        impl RcObject for Cell {
            fn each_link(&self, f: &mut dyn FnMut(&Link<Self>)) {
                f(&self.next);
            }
        }

        const LEN: usize = 10_000;
        let d = WfrcDomain::<Cell>::new(DomainConfig::new(1, LEN));
        let h = d.register().unwrap();
        let mut head = h.alloc_with(|_| {}).unwrap();
        for _ in 1..LEN {
            let prev = h.alloc_with(|_| {}).unwrap();
            h.store(&prev.next, Some(&head));
            head = prev;
        }
        let reclaims_before = h.counters().snapshot().reclaims;
        drop(head); // must not overflow the stack
        assert_eq!(
            h.counters().snapshot().reclaims - reclaims_before,
            LEN as u64
        );
        drop(h);
        assert_eq!(d.leak_check().live_nodes, 0);
    }

    #[test]
    fn fix_ref_adjusts_raw_count() {
        let d = domain(1, 2);
        let h = d.register().unwrap();
        let a = h.alloc_with(|_| {}).unwrap();
        // SAFETY: `a` holds a reference; the extra one is released below.
        unsafe { h.add_ref_raw(a.as_ptr(), 1) };
        assert_eq!(a.as_node().ref_count(), 2);
        // SAFETY: the reference added above.
        unsafe { h.release_raw(a.as_ptr()) };
        assert_eq!(a.as_node().ref_count(), 1);
    }
}
