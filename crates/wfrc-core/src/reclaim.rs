//! Quiescent-state segment reclamation: returning fully-free trailing
//! arena segments to the OS, and letting them re-grow on demand.
//!
//! PR 1's segmented arena made capacity elastic *upward* only — a traffic
//! spike permanently pinned its high-water mark. This module closes the
//! loop with a quiescence protocol in the spirit of epoch/quiescent-state
//! reclamation (Brown's DEBRA; Nikolaev & Ravindran's Hyaline for the
//! robust-to-crashed-threads regime):
//!
//! 1. **Operation epochs.** Every registered slot owns a cache-padded
//!    epoch counter, bumped at the *boundaries* of each handle-level
//!    operation that can dereference a node it holds no reference on
//!    (alloc / deref / cas / store / release — `scheme::OpGuard`, the byte
//!    classes and the pin sessions all go through `SlotEpoch`). Odd =
//!    inside an operation. Helping recursion (H5) happens *within* a single
//!    guard, so parity keeps its meaning. `FixRef` and the weak
//!    downgrade/upgrade are not bracketed: the caller's own (strong or
//!    weak) count keeps the node off every free structure, so no retire can
//!    complete under them (DESIGN.md §4c). The enter has two forms, and
//!    each reader gets the one it needs: the grace period (gate 4 below)
//!    reads a `SeqCst` FAA, which only a pool that can retire a segment
//!    pays; a fixed pool (`Growth::Disabled`, slot 0 alone) never runs a
//!    grace period, so its enter is the owner's plain store. That store
//!    stays because the deferred-drain baseline still reads it (through
//!    the pin's `fetch_or`).
//! 2. **Occupancy trigger.** Each segment counts how many of its nodes sit
//!    on *shared* structures (stripes + `annAlloc` gift cells; magazines
//!    are deliberately uncounted — their fast paths stay free of extra
//!    atomics, and magazine-parked nodes simply make their segment
//!    ineligible until drained). A trailing segment whose counter reaches
//!    `len` is a retire candidate.
//! 3. **Claim + physical collection.** The reclaimer CASes the candidate
//!    `LIVE → DRAINING` and publishes the claim in a shared control word
//!    (slot, claiming tid) so a crash mid-retire is adoptable. It then
//!    sweeps every stripe and gift cell, moving the candidate's nodes onto
//!    a shared *parking chain* and handing foreign nodes straight back with
//!    the existing chain primitives. While DRAINING, the alloc paths divert
//!    any of the segment's nodes they encounter onto the same chain.
//!    Two allocations can still come out of a DRAINING segment, and both
//!    are caught by the physical count rather than by the filters: the
//!    anti-livelock steal below, which dooms the retire, and an allocation
//!    that *straddles* the claim — it removed its node (still
//!    occupancy-counted) and passed the filter before the claim was
//!    published. Its node is simply live: the sweep comes up short and the
//!    retire aborts, unless the node is freed back in time, in which case
//!    the free path parks it and gates 2–3 apply to it like to any other.
//! 4. **Grace period + announcement check.** With all `len` nodes parked,
//!    the reclaimer waits for every registered slot's epoch to be even or to
//!    *change* (bounded spins — a parked thread stalls the retire, which
//!    then aborts), and re-checks that no thread's announcement slot is
//!    occupied (the slot words themselves — a reader's presence bit stays
//!    up while it idles and vetoes nothing).
//!    Only then is `finish_retire` allowed to unmap the slab. DESIGN.md §4c
//!    gives the full argument that no stale `NodeRef` or raw pointer can
//!    address a RETIRED slab.
//! 5. **Abort/reopen.** Every failure (nodes in flight, stalled epoch,
//!    racing growth, live announcement) reopens the segment: parked nodes are
//!    chain-pushed back onto a stripe, `DRAINING → LIVE`, claim cleared.
//!    `adopt_orphans` performs the same reopen when the claiming thread
//!    died at the `SegmentRetire` fault site.
//!
//! **Liveness.** An allocator that runs dry while a reclaim is in flight
//! may *steal* from the parking chain (swap-detach, take one, push the rest
//! back) instead of declaring out-of-memory; the resulting shortfall makes
//! the retire abort, never the allocator. Growth is never blocked: a racing
//! `try_grow` publishing a later slot simply makes `finish_retire`'s
//! `seg_count` CAS fail, aborting the retire.
//!
//! # Snapshot pins and deferred reclamation (PR 9, DESIGN.md §4f)
//!
//! The epoch machinery above also hosts the *snapshot* read path
//! ([`crate::ThreadHandle::pin`]): a pinned slot publishes a bit in a
//! presence bitmap (`pins`, same shard-and-pad layout as the announcement
//! summary) and holds its operation epoch odd for the pin's whole duration.
//! While **any** pin bit is set, `ReleaseRef` must not hand a
//! freshly-claimed node back to the free-list — a snapshot holder may still
//! be reading its payload — so the claimed node (links already stripped,
//! `mm_ref == FREE_REF`) is pushed onto the releasing slot's *deferred
//! list* instead. Deferred nodes drain in two-bucket batches:
//!
//! * `pending` accumulates new deferrals;
//! * when `aging` is empty, `pending` is closed into `aging` and a
//!   *baseline* is recorded — the operation epoch of every slot whose pin
//!   bit is set at close time;
//! * `aging` frees once every baseline slot has unpinned or changed epoch
//!   (a changed epoch proves at least one unpin happened since the close).
//!
//! The baseline is a conservative superset: any pin that could still hold a
//! snapshot of a batched node was live before that node's claim, hence
//! still live (and recorded) at close time; epochs are monotonic, so a
//! recorded odd epoch can never recur. When the bitmap is globally empty
//! the drain frees both buckets wholesale. Deferred nodes hold no
//! occupancy, so their segment can never reach the retire trigger — and the
//! retire protocol additionally vetoes on a non-empty pin bitmap (the same
//! gate as the live-announcement veto) both before claiming a candidate
//! and after the grace period.

use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::arena::SEG_DRAINING;
use crate::counters::OpCounters;
use crate::domain::Shared;
use crate::node::{chain_tail, Node, RcObject};
#[cfg(feature = "fault-injection")]
use crate::scheme::Pool;

type EpochCell = wfrc_primitives::CachePadded<AtomicUsize>;

/// One slot's operation epoch — the quiescence convention of this module,
/// written here and nowhere else: **odd = inside an operation**. There are
/// two enters, and the pool picks one once, at construction
/// (`Shared::can_retire`):
///
/// * **Fenced** (a pool that can retire a segment): a `SeqCst` FAA, the
///   store-load edge against the reclaimer's `SeqCst` DRAINING claim and
///   [`Shared::grace_period`] reads — either the reclaimer sees the odd
///   epoch or the operation sees the claim.
/// * **Plain** (a fixed pool, slot 0 alone): the owner-only `Relaxed` load
///   and `Release` store that leaving already is. No grace period ever runs
///   there, so nothing needs the store-load edge. The store stays because
///   the deferred-drain baseline still reads it: that reader loads an
///   epoch only after it has seen the slot's pin bit, and the pin's
///   `SeqCst` `fetch_or` follows the enter in program order (DESIGN.md
///   §4f).
///
/// Leaving is a `Release` store: a reclaimer that observes an even (or
/// advanced) epoch needs everything the slot did *before* to happen-before
/// it, and nothing after — so it knows every pointer the slot obtained
/// before the claim has been released. Epochs only grow between resets, so
/// an observed odd value never recurs.
#[derive(Clone, Copy)]
pub(crate) struct SlotEpoch<'a>(&'a AtomicUsize);

#[cfg(test)]
thread_local! {
    /// Fenced enters run by this thread (the pool tests assert a fixed
    /// pool never reaches the FAA).
    pub(crate) static FENCED_ENTERS: core::cell::Cell<usize> = const { core::cell::Cell::new(0) };
}

impl<'a> SlotEpoch<'a> {
    /// Even → odd: the slot is inside an operation, `fenced` (a `SeqCst`
    /// FAA) only where a grace period can read it — see the type docs.
    /// Callers nest through their own depth counter; the epoch itself flips
    /// once per bracket.
    #[inline]
    pub(crate) fn enter(self, fenced: bool) {
        if fenced {
            #[cfg(test)]
            FENCED_ENTERS.with(|n| n.set(n.get() + 1));
            self.0.fetch_add(1, Ordering::SeqCst);
        } else {
            self.bump();
        }
    }

    /// Odd → even: the slot is quiescent again.
    #[inline]
    pub(crate) fn exit(self) {
        self.bump();
    }

    /// One parity flip by the owner. Only the slot's owner writes its epoch
    /// while the slot is in service, so the increment needs no RMW.
    #[inline]
    fn bump(self) {
        let e = self.0.load(Ordering::Relaxed);
        self.0.store(e.wrapping_add(1), Ordering::Release);
    }

    /// Back to quiescent, whatever the parity was: a fresh registration, or
    /// adoption of a slot whose owner died mid-operation.
    pub(crate) fn reset(self) {
        self.0.store(0, Ordering::SeqCst);
    }

    /// Current value (`SeqCst`): the grace period's probe and the
    /// deferred drain's baseline.
    #[inline]
    pub(crate) fn read(self) -> usize {
        self.0.load(Ordering::SeqCst)
    }
}

/// Threads per pin-bitmap word (same sharding as the announcement summary).
const PIN_BITS: usize = usize::BITS as usize;

/// Sentinel for "no baseline entry recorded for this slot".
const NO_BASELINE: usize = usize::MAX;

/// One slot's deferred-decrement state (see the module docs). `pending` is
/// a shared Treiber chain (the owner pushes, any drainer may detach);
/// `aging` and `baseline` are only touched under `drain_lock`.
struct DeferredSlot<T> {
    /// Newly deferred nodes (`mm_ref == FREE_REF`, links stripped, chained
    /// through `mm_next`).
    pending: wfrc_primitives::WordPtr<Node<T>>,
    /// Approximate `pending` length (telemetry; leak audits walk chains).
    pending_len: AtomicUsize,
    /// The batch currently waiting out its grace condition.
    aging: wfrc_primitives::WordPtr<Node<T>>,
    aging_len: AtomicUsize,
    /// Per-slot operation epoch recorded when `aging` was closed;
    /// `NO_BASELINE` = that slot was unpinned at close time.
    baseline: Box<[AtomicUsize]>,
    /// Drain mutual exclusion (0 = free). Contenders *skip* rather than
    /// wait, so the drain never blocks anyone (another drain is already
    /// making the same progress).
    drain_lock: AtomicUsize,
}

impl<T> DeferredSlot<T> {
    fn new(n: usize) -> Self {
        Self {
            pending: wfrc_primitives::WordPtr::null(),
            pending_len: AtomicUsize::new(0),
            aging: wfrc_primitives::WordPtr::null(),
            aging_len: AtomicUsize::new(0),
            baseline: (0..n).map(|_| AtomicUsize::new(NO_BASELINE)).collect(),
            drain_lock: AtomicUsize::new(0),
        }
    }
}

/// Domain-lifetime telemetry of the snapshot and weak read paths, folded out
/// of per-thread counter cells when a handle drops so quiescent audits
/// ([`crate::LeakReport`]) can report them after every handle is gone. Both
/// schemes keep one (the baseline's `deferred_decs` simply stays 0).
#[derive(Debug, Default)]
pub struct SnapStats {
    snapshot_derefs: AtomicU64,
    deferred_decs: AtomicU64,
    upgrade_slow: AtomicU64,
    weak_upgrades: AtomicU64,
    upgrade_failed: AtomicU64,
}

impl SnapStats {
    /// Adds one handle's final counter values (Relaxed telemetry).
    pub fn fold(&self, snap: &crate::counters::CounterSnapshot) {
        self.snapshot_derefs
            .fetch_add(snap.snapshot_derefs, Ordering::Relaxed);
        self.deferred_decs
            .fetch_add(snap.deferred_decs, Ordering::Relaxed);
        self.upgrade_slow
            .fetch_add(snap.upgrade_slow, Ordering::Relaxed);
        self.weak_upgrades
            .fetch_add(snap.weak_upgrades, Ordering::Relaxed);
        self.upgrade_failed
            .fetch_add(snap.upgrade_failed, Ordering::Relaxed);
    }

    /// Copies the folded totals into `report`.
    pub fn report(&self, report: &mut crate::LeakReport) {
        report.snapshot_derefs = self.snapshot_derefs.load(Ordering::Relaxed);
        report.deferred_decs = self.deferred_decs.load(Ordering::Relaxed);
        report.upgrade_slow = self.upgrade_slow.load(Ordering::Relaxed);
        report.weak_upgrades = self.weak_upgrades.load(Ordering::Relaxed);
        report.upgrade_failed = self.upgrade_failed.load(Ordering::Relaxed);
    }
}

/// Bounded spin budget per registered slot when a retire waits for an
/// in-flight operation's epoch to advance. A thread stalled inside an
/// operation past this budget aborts the retire (it can be retried).
const GRACE_SPINS: usize = 10_000;

/// Sweep passes over the stripes/gift cells before a retire concludes that
/// some of the candidate's nodes are unreachable (in use or in a magazine)
/// and aborts.
const SWEEP_PASSES: usize = 8;

/// Outcome of one [`crate::ThreadHandle::reclaim`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReclaimOutcome {
    /// The trailing segment was retired: its `nodes` node addresses are
    /// dead and its slab memory has been returned to the allocator.
    Retired {
        /// Segment-table slot that was retired (available for revival).
        slot: usize,
        /// Number of node slots the retired slab held.
        nodes: usize,
    },
    /// Nothing eligible: fewer than two resident segments, the trailing
    /// segment's occupancy is not full (nodes live or magazine-parked), or
    /// announcements are in flight.
    NoCandidate,
    /// Another thread holds the retire claim.
    Contended,
    /// A claim was taken but had to be reopened: nodes could not all be
    /// collected, a registered thread sat in one operation past the grace
    /// budget, growth raced the retire, or an announcement went live. The
    /// segment is LIVE again; the attempt can be retried.
    Aborted,
}

/// Shared reclaim state of one domain: the retire claim, the parking chain
/// for collected nodes, and the per-slot operation epochs. All of it is
/// plain shared memory so that a thread dying mid-retire leaves a state an
/// adopter can enumerate and repair.
pub(crate) struct ReclaimCtl<T> {
    /// `slot + 1` of the segment being drained; 0 = no retire in flight.
    /// Doubles as the "filters active" flag the hot paths poll (Relaxed).
    pub(crate) draining: AtomicUsize,
    /// `tid + 1` of the claiming thread; adoption matches this against the
    /// orphan it is recovering to reopen a crashed retire.
    pub(crate) draining_by: AtomicUsize,
    /// Treiber chain of collected candidate nodes (`mm_ref == FREE_REF`,
    /// linked through `mm_next`). Shared so it survives a reclaimer crash
    /// and so the hot-path diverters/stealers can use it too.
    parked: wfrc_primitives::WordPtr<Node<T>>,
    /// Approximate length of `parked` (telemetry / steal hint only; the
    /// retire's authoritative count is a private walk after detaching).
    parked_len: AtomicUsize,
    /// Per-slot operation epochs: odd = inside a handle operation.
    epochs: Box<[EpochCell]>,
    /// Snapshot-pin presence bitmap, one bit per slot (word-sharded and
    /// padded like the announcement summary). Non-empty = some thread may
    /// hold plain-load snapshots, so claimed nodes must defer their free.
    pins: Box<[PinCell]>,
    /// Per-slot deferred-decrement lists (indexed by the releasing slot).
    deferred: Box<[DeferredSlot<T>]>,
}

type PinCell = wfrc_primitives::CachePadded<wfrc_primitives::AtomicWord>;

impl<T> ReclaimCtl<T> {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            draining: AtomicUsize::new(0),
            draining_by: AtomicUsize::new(0),
            parked: wfrc_primitives::WordPtr::null(),
            parked_len: AtomicUsize::new(0),
            epochs: (0..n)
                .map(|_| wfrc_primitives::CachePadded::new(AtomicUsize::new(0)))
                .collect(),
            pins: (0..n.div_ceil(PIN_BITS))
                .map(|_| wfrc_primitives::CachePadded::new(wfrc_primitives::AtomicWord::new(0)))
                .collect(),
            deferred: (0..n).map(|_| DeferredSlot::new(n)).collect(),
        }
    }

    /// The operation epoch of slot `tid`.
    #[inline]
    pub(crate) fn epoch(&self, tid: usize) -> SlotEpoch<'_> {
        SlotEpoch(&self.epochs[tid])
    }

    /// Publishes slot `tid`'s snapshot pin. `SeqCst`, strictly *before* any
    /// snapshot load: in the SC total order the bit precedes the reader's
    /// link load, which (if it returned node X) precedes the link change
    /// that removed X, which precedes X's claiming FAA, which precedes the
    /// releaser's [`Self::pins_empty`] check — so a release that could free
    /// a snapshot-visible node always observes the pin.
    #[inline]
    pub(crate) fn pin(&self, tid: usize) {
        self.pins[tid / PIN_BITS].fetch_or(1 << (tid % PIN_BITS));
    }

    /// Withdraws slot `tid`'s pin. `Release`: every snapshot access of the
    /// pin session happens-before the clear, so a drain observing the
    /// cleared bit (`SeqCst` load) may free the session's covered nodes.
    /// Also clears a corpse's bit (adoption, slot re-registration): the
    /// dead thread executes nothing, so no snapshot of its session can
    /// still be read.
    #[inline]
    pub(crate) fn unpin(&self, tid: usize) {
        self.pins[tid / PIN_BITS].fetch_and_with(!(1 << (tid % PIN_BITS)), Ordering::Release);
    }

    /// True when no slot holds a snapshot pin (`SeqCst` — see [`Self::pin`]).
    #[inline]
    pub(crate) fn pins_empty(&self) -> bool {
        self.pins.iter().all(|w| w.load() == 0)
    }

    /// Is slot `tid`'s pin bit set? (`SeqCst`.)
    #[inline]
    fn pinned(&self, tid: usize) -> bool {
        self.pins[tid / PIN_BITS].load() & (1 << (tid % PIN_BITS)) != 0
    }

    /// True when `tid` holds the segment-drain claim (a crashed drainer
    /// leaves it set; adoption reopens it).
    pub(crate) fn claimed_by(&self, tid: usize) -> bool {
        self.draining_by.load(Ordering::SeqCst) == tid + 1
    }

    /// Pushes a claimed node (`mm_ref == FREE_REF`, links stripped) onto
    /// slot `tid`'s deferred list.
    pub(crate) fn defer(&self, tid: usize, node: *mut Node<T>) {
        let d = &self.deferred[tid];
        loop {
            let head = d.pending.load_with(Ordering::Relaxed);
            // SAFETY: exclusively ours until the CAS publishes it.
            unsafe { (*node).link_private(head) };
            if d.pending
                .cas_with(head, node, Ordering::Release, Ordering::Relaxed)
            {
                break;
            }
        }
        d.pending_len.fetch_add(1, Ordering::Relaxed);
    }

    /// Nodes currently sitting on deferred lists (approximate telemetry).
    pub(crate) fn deferred_len(&self) -> usize {
        self.deferred
            .iter()
            .map(|d| d.pending_len.load(Ordering::Relaxed) + d.aging_len.load(Ordering::Relaxed))
            .sum()
    }

    /// Visits every node on every deferred chain. Quiescent audits only:
    /// the walk takes no locks, so concurrent drains would invalidate it.
    pub(crate) fn for_each_deferred(&self, mut f: impl FnMut(*mut Node<T>)) {
        for d in self.deferred.iter() {
            for chain in [
                d.pending.load_with(Ordering::Acquire),
                d.aging.load_with(Ordering::Acquire),
            ] {
                let mut p = chain;
                while !p.is_null() {
                    f(p);
                    // SAFETY: quiescent walk per contract.
                    p = unsafe { (*p).mm_next().load() };
                }
            }
        }
    }

    /// Nodes currently on the parking chain (approximate while racing).
    pub(crate) fn parked_len(&self) -> usize {
        self.parked_len.load(Ordering::Relaxed)
    }

    /// Pushes one collected node onto the shared parking chain. `node`
    /// must be at `FREE_REF` and exclusively held by the caller.
    pub(crate) fn park(&self, node: *mut Node<T>) {
        loop {
            let head = self.parked.load_with(Ordering::Relaxed);
            // SAFETY: exclusively ours until the CAS publishes it.
            unsafe { (*node).link_private(head) };
            if self
                .parked
                .cas_with(head, node, Ordering::Release, Ordering::Relaxed)
            {
                break;
            }
        }
        self.parked_len.fetch_add(1, Ordering::Relaxed);
    }

    /// Detaches the whole parking chain (for the retire's private count
    /// pass, a reopen, or a steal).
    fn detach(&self) -> *mut Node<T> {
        let chain = self
            .parked
            .swap_with(core::ptr::null_mut(), Ordering::Acquire);
        if !chain.is_null() {
            self.parked_len.store(0, Ordering::Relaxed);
        }
        chain
    }

    /// Re-attaches a privately held chain (first..=last pre-linked) to the
    /// parking chain head. Push-only, so no ABA concern.
    fn reattach(&self, first: *mut Node<T>, last: *mut Node<T>, count: usize) {
        loop {
            let head = self.parked.load_with(Ordering::Relaxed);
            // SAFETY: chain privately held until the CAS publishes it.
            unsafe { (*last).link_private(head) };
            if self
                .parked
                .cas_with(head, first, Ordering::Release, Ordering::Relaxed)
            {
                break;
            }
        }
        self.parked_len.fetch_add(count, Ordering::Relaxed);
    }

    /// Anti-livelock escape for the allocation slow path: take one node
    /// off the parking chain. Swap-detach + push-back (never a head pop),
    /// so the chain cannot be ABA-corrupted by a concurrent re-park of the
    /// same node. Returns a node at `FREE_REF`.
    pub(crate) fn steal(&self) -> Option<*mut Node<T>> {
        let chain = self.detach();
        if chain.is_null() {
            return None;
        }
        // SAFETY: the whole chain is privately ours after the swap.
        let rest = unsafe { (*chain).mm_next().load() };
        if !rest.is_null() {
            // SAFETY: private chain.
            let (tail, count) = unsafe { chain_tail(rest) };
            self.reattach(rest, tail, count);
        }
        Some(chain)
    }
}

impl<T: RcObject> Shared<T> {
    /// True while a retire is in flight. One Relaxed load — the only cost
    /// the hot paths pay when no reclaim is active.
    #[inline]
    pub(crate) fn reclaim_active(&self) -> bool {
        self.reclaim.draining.load(Ordering::Relaxed) != 0
    }

    /// Hot-path membership probe: does `node` belong to the segment
    /// currently DRAINING? One Relaxed load when no reclaim is active.
    #[inline]
    pub(crate) fn draining_member(&self, node: *mut Node<T>) -> bool {
        let d = self.reclaim.draining.load(Ordering::Relaxed);
        if d == 0 {
            return false;
        }
        self.draining_member_slow(d - 1, node)
    }

    #[cold]
    fn draining_member_slow(&self, slot: usize, node: *mut Node<T>) -> bool {
        // SeqCst state read: do not divert for a segment that already went
        // back to LIVE (a reopen would then strand the node briefly).
        self.arena.seg_state(slot) == Some(SEG_DRAINING) && self.arena.seg_contains(slot, node)
    }

    /// Hot-path diversion filter: if `node` belongs to the segment
    /// currently DRAINING, park it on the reclaim chain (helping the
    /// retire) and return true — the caller must not hand it out. `node`
    /// must be at `FREE_REF` and exclusively held, and must already be off
    /// every occupancy-counted structure.
    #[inline]
    pub(crate) fn divert_if_draining(&self, node: *mut Node<T>) -> bool {
        if !self.draining_member(node) {
            return false;
        }
        self.reclaim.park(node);
        true
    }

    /// Parks an exclusively held `FREE_REF` node on the reclaim chain
    /// (used by alloc paths that already established draining membership).
    #[inline]
    pub(crate) fn park_for_reclaim(&self, node: *mut Node<T>) {
        self.reclaim.park(node);
    }

    /// Emergency allocation source while a retire is in flight (see the
    /// module docs): returns a parked node at `FREE_REF`, or `None`.
    #[inline]
    pub(crate) fn reclaim_steal(&self) -> Option<*mut Node<T>> {
        if !self.reclaim_active() && self.reclaim.parked_len() == 0 {
            return None;
        }
        self.reclaim.steal()
    }

    /// `ReleaseRef`'s line R4 under snapshot pins: frees a freshly claimed
    /// node immediately when no pin is live anywhere (one bitmap-word load
    /// — the only cost the release path pays when snapshots are unused),
    /// and defers it onto slot `tid`'s list otherwise.
    #[inline]
    pub(crate) fn defer_or_free(&self, tid: usize, c: &OpCounters, node: *mut Node<T>) {
        if self.reclaim.pins_empty() {
            self.free_node(tid, c, node);
        } else {
            self.reclaim.defer(tid, node);
            OpCounters::bump(&c.deferred_decs);
        }
    }

    /// Attempts to drain slot `owner`'s deferred list, freeing every node
    /// whose grace condition has passed (see the module docs). Never
    /// blocks: a held drain lock means another thread is already making
    /// this exact progress, so contenders skip. Returns nodes freed.
    pub(crate) fn try_drain_deferred(&self, owner: usize, tid: usize, c: &OpCounters) -> usize {
        let d = &self.reclaim.deferred[owner];
        // Early-exit on the chain heads, not the length counters: `defer`
        // increments `pending_len` only *after* its CAS publishes the
        // node, so a counter-based check could see 0 with a non-empty
        // chain and skip a due drain.
        if d.pending.load_with(Ordering::Acquire).is_null()
            && d.aging.load_with(Ordering::Acquire).is_null()
        {
            return 0;
        }
        if d.drain_lock
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return 0;
        }
        let freed = self.drain_deferred_locked(owner, tid, c);
        d.drain_lock.store(0, Ordering::Release);
        freed
    }

    /// Drains every slot's deferred list (reclaim candidacy, teardown).
    pub(crate) fn drain_all_deferred(&self, tid: usize, c: &OpCounters) -> usize {
        let mut freed = 0;
        for owner in 0..self.n {
            freed += self.try_drain_deferred(owner, tid, c);
        }
        freed
    }

    /// The drain body, under `owner`'s drain lock.
    fn drain_deferred_locked(&self, owner: usize, tid: usize, c: &OpCounters) -> usize {
        let rc = &self.reclaim;
        let d = &rc.deferred[owner];
        let mut freed = 0;
        // Globally unpinned: the wholesale path (the common case — a lone
        // reader's guard drop finds the bitmap empty right after its own
        // unpin). The aging batch frees on the strength of this one check:
        // its nodes were claimed strictly before the batch closed, so every
        // pin that could still see one was live at claim time — and an
        // empty bitmap proves those pins have all retired (a pin published
        // *after* a node's claim cannot reach it; see `ReclaimCtl::pin`).
        if rc.pins_empty() {
            let aging = d.aging.swap_with(core::ptr::null_mut(), Ordering::Acquire);
            d.aging_len.store(0, Ordering::Relaxed);
            freed += self.free_deferred_chain(aging, tid, c);
            // The pending chain is racier: `defer` pushes do not take the
            // drain lock, so between the check above and this swap a reader
            // can pin, snapshot a still-linked node, and a releaser — now
            // observing that pin — can push the claimed node here. Detach
            // *first*, then re-read the bitmap: every node in the detached
            // chain was pushed (hence claimed) before the re-check, so an
            // empty bitmap again proves its claim-time pins are gone.
            let pending = d
                .pending
                .swap_with(core::ptr::null_mut(), Ordering::Acquire);
            let moved = d.pending_len.swap(0, Ordering::Relaxed);
            if rc.pins_empty() {
                freed += self.free_deferred_chain(pending, tid, c);
            } else if !pending.is_null() {
                // Raced with a fresh pin: a node in `pending` may already
                // be snapshot-visible to it. Close the detached chain into
                // the (now empty) aging bucket with a recorded baseline
                // instead of freeing it — safe because `aging` is only
                // mutated under `drain_lock`, which we hold.
                self.close_into_aging(d, pending, moved);
            }
            return freed;
        }
        // Aged batch ready? Every slot recorded in the baseline must have
        // unpinned or changed epoch since the batch closed.
        if !d.aging.load_with(Ordering::Acquire).is_null() {
            let satisfied = (0..self.n).all(|t| {
                let e = d.baseline[t].load(Ordering::Relaxed);
                e == NO_BASELINE || !rc.pinned(t) || rc.epoch(t).read() != e
            });
            if satisfied {
                let aging = d.aging.swap_with(core::ptr::null_mut(), Ordering::Acquire);
                d.aging_len.store(0, Ordering::Relaxed);
                freed += self.free_deferred_chain(aging, tid, c);
            }
        }
        // Close the pending bucket into the (now possibly empty) aging
        // bucket, recording the live-pin baseline.
        if d.aging.load_with(Ordering::Acquire).is_null()
            && !d.pending.load_with(Ordering::Acquire).is_null()
        {
            let chain = d
                .pending
                .swap_with(core::ptr::null_mut(), Ordering::Acquire);
            let moved = d.pending_len.swap(0, Ordering::Relaxed);
            self.close_into_aging(d, chain, moved);
        }
        freed
    }

    /// Closes a detached chain into `d`'s (empty) aging bucket, recording
    /// the live-pin baseline. Caller must hold `d.drain_lock` with
    /// `d.aging` null. Order matters: the pin bit is read before the
    /// epoch, so a concurrent unpin yields either a cleared bit later
    /// (satisfied) or an even/newer epoch that no future pin session can
    /// reproduce (epochs are monotonic).
    fn close_into_aging(&self, d: &DeferredSlot<T>, chain: *mut Node<T>, moved: usize) {
        let rc = &self.reclaim;
        for t in 0..self.n {
            let e = if rc.pinned(t) {
                rc.epoch(t).read()
            } else {
                NO_BASELINE
            };
            d.baseline[t].store(e, Ordering::Relaxed);
        }
        d.aging.store_with(chain, Ordering::Release);
        d.aging_len.store(moved, Ordering::Relaxed);
    }

    /// Frees a privately detached deferred chain through the normal
    /// `FreeNode` path (magazines, gifts, draining diversion all apply).
    fn free_deferred_chain(&self, chain: *mut Node<T>, tid: usize, c: &OpCounters) -> usize {
        let mut p = chain;
        let mut n = 0;
        while !p.is_null() {
            // SAFETY: detached chain — privately ours; `free_node` takes
            // over each node, so read `mm_next` first.
            let next = unsafe { (*p).mm_next().load() };
            self.free_node(tid, c, p);
            p = next;
            n += 1;
        }
        n
    }

    /// Detaches the parking chain and returns its nodes to a stripe,
    /// re-crediting their occupancy.
    fn unpark_all(&self, tid: usize, c: &OpCounters) {
        let chain = self.reclaim.detach();
        if chain.is_null() {
            return;
        }
        // SAFETY: detached — privately ours.
        let (tail, count) = unsafe { chain_tail(chain) };
        let mut p = chain;
        for _ in 0..count {
            self.arena.occupancy_inc(p);
            // SAFETY: private chain walk.
            p = unsafe { (*p).mm_next().load() };
        }
        let retries = self.fl.push_chain(tid, chain, tail);
        OpCounters::add(&c.free_push_retries, retries);
    }

    /// Reopens a DRAINING segment: parked nodes go back onto a stripe
    /// (re-crediting occupancy), the segment returns to LIVE, the claim
    /// clears. Used by the abort paths of `try_reclaim` and by orphan
    /// adoption when the claiming thread died mid-retire.
    pub(crate) fn reopen_reclaim(&self, tid: usize, c: &OpCounters) {
        let d = self.reclaim.draining.load(Ordering::SeqCst);
        if d == 0 {
            return;
        }
        let slot = d - 1;
        // LIVE first: from here on the hot-path filters refuse to park for
        // this segment, so the drain below can terminate.
        self.arena.abort_retire(slot);
        // Drain the chain (twice: once for the bulk, once for a straggler
        // that passed the state check just before the abort above). A
        // straggler landing after the second pass is collected by the next
        // reclaim attempt or the steal path — never lost (it stays on the
        // shared chain with `mm_ref == FREE_REF`).
        for _ in 0..2 {
            self.unpark_all(tid, c);
        }
        self.reclaim.draining_by.store(0, Ordering::SeqCst);
        self.reclaim.draining.store(0, Ordering::SeqCst);
        OpCounters::bump(&c.reclaim_aborts);
    }

    /// One sweep pass: pulls the candidate segment's nodes out of every
    /// stripe and gift cell onto the parking chain, handing everything
    /// foreign straight back. Returns the (approximate) parked total.
    fn sweep_pass(&self, tid: usize, c: &OpCounters, slot: usize) -> usize {
        let fl = &self.fl;
        for i in 0..fl.lists() {
            if fl.head_ptr(i).is_null() {
                continue;
            }
            let chain = fl.take_stripe(i);
            if chain.is_null() {
                continue;
            }
            // Partition the privately held chain: candidates park, the
            // foreign remainder is re-pushed as one chain (its occupancy
            // never changed — it is "in transit", like a refill).
            let mut keep_first: *mut Node<T> = core::ptr::null_mut();
            let mut keep_last: *mut Node<T> = core::ptr::null_mut();
            let mut p = chain;
            while !p.is_null() {
                // SAFETY: node of the stolen chain — exclusively ours.
                let next = unsafe { (*p).mm_next().load() };
                if self.arena.seg_contains(slot, p) {
                    self.arena.occupancy_dec(p);
                    self.reclaim.park(p);
                } else if keep_first.is_null() {
                    keep_first = p;
                    keep_last = p;
                    // SAFETY: exclusively ours; terminate the keep chain.
                    unsafe { (*p).link_private(core::ptr::null_mut()) };
                } else {
                    // SAFETY: exclusively ours; append to the keep chain.
                    unsafe { (*keep_last).link_private(p) };
                    unsafe { (*p).link_private(core::ptr::null_mut()) };
                    keep_last = p;
                }
                p = next;
            }
            if !keep_first.is_null() && !fl.untake_stripe(i, keep_first) {
                let retries = fl.push_chain(tid, keep_first, keep_last);
                OpCounters::add(&c.free_push_retries, retries);
            }
        }
        // Gift cells: only disturb a gift that is (probably) a candidate.
        for t in 0..self.n {
            let peek = fl.gift_for(t);
            if peek.is_null() || !self.arena.seg_contains(slot, peek) {
                continue;
            }
            let gift = fl.take_gift(t);
            if gift.is_null() {
                continue;
            }
            // Demote the gift representation (3 -> 1, the corrected-F3
            // bump undone) whatever it turned out to be.
            // SAFETY: the swap transferred exclusive ownership to us.
            unsafe { (*gift).faa_ref(-2) };
            if self.arena.seg_contains(slot, gift) {
                self.arena.occupancy_dec(gift);
                self.reclaim.park(gift);
            } else {
                // The cell was re-gifted between peek and swap: return the
                // foreign node to the stripes (gift-count moves to
                // stripe-count on the same segment — occupancy unchanged).
                let retries = fl.push_chain(tid, gift, gift);
                OpCounters::add(&c.free_push_retries, retries);
            }
        }
        self.reclaim.parked_len()
    }

    /// Bounded per-slot grace wait: every registered slot must be observed
    /// quiescent (even epoch) or must make progress (epoch change) within
    /// the spin budget. Returns false on timeout (a stalled in-flight
    /// operation — e.g. a parked thread mid-dereference).
    fn grace_period(&self, is_taken: impl Fn(usize) -> bool) -> bool {
        for t in 0..self.n {
            if !is_taken(t) {
                // FREE slots have no thread; ORPHANED slots are corpses —
                // they execute nothing, and what they left behind is
                // covered by the sweep + announcement check (and by adoption).
                continue;
            }
            let e0 = self.reclaim.epoch(t).read();
            if e0.is_multiple_of(2) {
                continue;
            }
            // A published snapshot pin holds its slot's epoch odd for the
            // whole session, which may be arbitrarily long — abort the
            // retire immediately rather than burn the spin budget (the
            // post-grace `pins_empty` re-check would veto it anyway).
            if self.reclaim.pinned(t) {
                return false;
            }
            let mut ok = false;
            for i in 0..GRACE_SPINS {
                if self.reclaim.epoch(t).read() != e0 {
                    ok = true;
                    break;
                }
                core::hint::spin_loop();
                if i % 64 == 0 {
                    std::thread::yield_now();
                }
            }
            if !ok {
                return false;
            }
        }
        true
    }
}

/// The full retire protocol (see the module docs) over one [`Shared`] pool.
/// `tid` is the calling thread's registered id; the caller must not be
/// inside any other domain operation. The node pool and every byte class
/// run the identical protocol; only the registry probe (`is_taken`,
/// answering "does slot `t` currently host a live thread?") comes from
/// outside, because slot ownership is domain-wide while epochs are per pool.
pub(crate) fn try_reclaim<T: RcObject>(
    s: &Shared<T>,
    tid: usize,
    c: &OpCounters,
    is_taken: &dyn Fn(usize) -> bool,
) -> ReclaimOutcome {
    let ctl = &s.reclaim;
    if ctl.draining.load(Ordering::SeqCst) != 0 {
        return ReclaimOutcome::Contended;
    }
    // Flush the caller's own magazine first: magazine-parked nodes are not
    // occupancy-counted, so a candidate node cached here would hold the
    // trigger below `len` forever. Other threads' magazines stay untouched
    // (their caches drain at handle drop); their parked candidates merely
    // delay the retire to a later quiescent attempt.
    s.drain_magazine(tid, c);
    // Opportunistically return reopen stragglers to the stripes (see
    // `reopen_reclaim`): the chain must be empty before a new claim, or a
    // previous segment's leftovers would be miscounted as this candidate's.
    s.unpark_all(tid, c);
    // Deferred decrements first: a drained node returns to the stripes
    // (re-crediting occupancy), which is what lets a segment full of
    // snapshot-covered releases ever reach the retire trigger.
    s.drain_all_deferred(tid, c);
    // A fixed pool has slot 0 alone, which never retires — and its
    // operations enter their epochs without the fence a grace period
    // needs, so it must never reach the claim below.
    if !s.can_retire {
        return ReclaimOutcome::NoCandidate;
    }
    // Condition (c) first — it is the cheapest disqualifier. Slot words,
    // not presence bits: an idle registered reader keeps its bit up and
    // must not veto.
    let announcing = || (0..s.n).any(|t| s.ann.announcing(t));
    if announcing() {
        return ReclaimOutcome::NoCandidate;
    }
    // Snapshot-pin veto, the same gate as the announcement veto: a live guard
    // epoch means plain-load borrows may exist and deferred lists cannot
    // fully drain, so don't burn the sweep/grace budget on a candidate
    // that cannot pass the recheck below.
    if !ctl.pins_empty() {
        return ReclaimOutcome::NoCandidate;
    }
    // Conditions on the candidate: trailing, LIVE, occupancy full.
    let Some(slot) = s.arena.try_begin_tail_retire() else {
        return ReclaimOutcome::NoCandidate;
    };
    debug_assert!(
        s.can_retire,
        "a DRAINING claim in a pool that cannot retire"
    );
    let len = s.arena.seg_len(slot).unwrap_or(0);
    // Publish the claim identity *before* the fault site: a Die at
    // SegmentRetire must leave an adoptable record.
    ctl.draining_by.store(tid + 1, Ordering::SeqCst);
    ctl.draining.store(slot + 1, Ordering::SeqCst);
    OpCounters::bump(&c.reclaim_passes);
    #[cfg(feature = "fault-injection")]
    s.fault_hit(c, crate::fault::FaultSite::SegmentRetire, tid);
    // Physically collect every node of the candidate.
    let mut collected = 0;
    for pass in 0..SWEEP_PASSES {
        collected = s.sweep_pass(tid, c, slot);
        if collected >= len {
            break;
        }
        if pass > 0 {
            std::thread::yield_now();
        }
    }
    if collected < len {
        s.reopen_reclaim(tid, c);
        return ReclaimOutcome::Aborted;
    }
    // Grace period over all registered slots, then the announcement and
    // snapshot-pin re-checks (a pin taken after the veto above is caught
    // here; the grace wait aborts immediately on a pinned slot and after
    // the bounded spin budget on any other stalled operation, so a parked
    // guard costs at most one aborted retire attempt per call).
    if !s.grace_period(is_taken) || announcing() || !ctl.pins_empty() {
        s.reopen_reclaim(tid, c);
        return ReclaimOutcome::Aborted;
    }
    // Detach and verify: exactly `len` nodes, every one at FREE_REF (a
    // count still held anywhere would show here). After the grace period
    // no thread can park further nodes for this segment, so the detached
    // chain is the whole collection.
    let chain = ctl.detach();
    if chain.is_null() {
        // A legal shortfall, not an invariant breach: `ReclaimCtl::steal`
        // swap-detaches the whole chain before re-attaching the rest, and
        // the anti-livelock steal may have emptied it for good.
        s.reopen_reclaim(tid, c);
        return ReclaimOutcome::Aborted;
    }
    // SAFETY: detached — privately ours.
    let (tail, count) = unsafe { chain_tail(chain) };
    let mut all_free = true;
    {
        let mut p = chain;
        for _ in 0..count {
            // SAFETY: private chain walk; headers are readable (slab not
            // yet freed).
            unsafe {
                if (*p).load_ref() != Node::<T>::FREE_REF || !s.arena.seg_contains(slot, p) {
                    all_free = false;
                }
                p = (*p).mm_next().load();
            }
        }
    }
    if count != len || !all_free {
        ctl.reattach(chain, tail, count);
        s.reopen_reclaim(tid, c);
        return ReclaimOutcome::Aborted;
    }
    // Unpublish + unmap. The only failure left is a concurrent grow having
    // published a later slot (seg_count CAS) — reopen and let the grown
    // arena live.
    if !s.arena.finish_retire(slot) {
        ctl.reattach(chain, tail, count);
        s.reopen_reclaim(tid, c);
        return ReclaimOutcome::Aborted;
    }
    ctl.draining_by.store(0, Ordering::SeqCst);
    ctl.draining.store(0, Ordering::SeqCst);
    OpCounters::bump(&c.segments_retired);
    ReclaimOutcome::Retired { slot, nodes: len }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Growth;
    use crate::domain::{DomainConfig, WfrcDomain};

    /// Regression: an allocator's anti-livelock steal may empty the parking
    /// chain between the sweep and the post-grace detach. That is a
    /// shortfall abort, not an invariant breach.
    #[test]
    fn steal_emptying_the_parking_chain_aborts_the_retire() {
        let d =
            WfrcDomain::<u64>::new(DomainConfig::new(1, 4).with_growth(Growth::doubling_to(64)));
        let h = d.register().unwrap();
        let held: Vec<_> = (0..8).map(|_| h.alloc_with(|_| {}).unwrap()).collect();
        assert!(d.segment_count() > 1);
        drop(held);
        let (s, tid, c) = (d.shared(), h.tid(), h.counters());
        // The registry probe runs inside the grace period — after the sweep
        // parked every candidate, before the detach — which is exactly the
        // window a starved allocator steals in.
        let stolen = core::cell::RefCell::new(Vec::new());
        let outcome = try_reclaim(s, tid, c, &|_| {
            while let Some(node) = s.reclaim_steal() {
                stolen.borrow_mut().push(node);
            }
            false
        });
        assert_eq!(outcome, ReclaimOutcome::Aborted);
        assert!(!stolen.borrow().is_empty());
        for node in stolen.into_inner() {
            // Stolen nodes are at FREE_REF and exclusively ours.
            s.free_node(tid, c, node);
        }
        assert!(matches!(h.reclaim(), ReclaimOutcome::Retired { .. }));
        drop(h);
        assert!(d.leak_check().is_clean(), "{}", d.leak_check());
    }

    /// An allocation that straddles the claim — its node was off the
    /// stripes but still occupancy-counted when the reclaimer looked — is a
    /// live node of a DRAINING segment: legal, and caught by the sweep's
    /// count.
    #[test]
    fn allocation_straddling_the_claim_aborts_the_retire() {
        let d =
            WfrcDomain::<u64>::new(DomainConfig::new(1, 4).with_growth(Growth::doubling_to(64)));
        let h = d.register().unwrap();
        let mut held: Vec<_> = (0..8).map(|_| h.alloc_raw().unwrap()).collect();
        let s = d.shared();
        let tail = s.arena.segment_count() - 1;
        assert!(tail >= 1);
        let at = held
            .iter()
            .position(|&n| s.arena.seg_contains(tail, n))
            .expect("a node of the grown segment");
        let straddler = held.swap_remove(at);
        for n in held {
            // SAFETY: our own alloc references.
            unsafe { h.release_raw(n) };
        }
        // The straddle, frozen: the allocator has its node but has not yet
        // debited the segment's occupancy.
        s.arena.occupancy_inc(straddler);
        assert_eq!(h.reclaim(), ReclaimOutcome::Aborted);
        s.arena.occupancy_dec(straddler);
        // SAFETY: the reference survived the aborted retire.
        unsafe { h.release_raw(straddler) };
        assert!(matches!(h.reclaim(), ReclaimOutcome::Retired { .. }));
        drop(h);
        assert!(d.leak_check().is_clean(), "{}", d.leak_check());
    }
}
