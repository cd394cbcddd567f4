//! The scheme seam: the part of a reference-counting memory manager that
//! Figures 4 and 5 change, and nothing else.
//!
//! The paper's §3.2 point is that its wait-free operations have *exactly*
//! the signature of lock-free reference counting — that is how its §5
//! experiment swapped schemes under one priority queue. This module states
//! that signature once. A [`Scheme`] names a family of [`Pool`]s (one per
//! payload type: the node pool over `T`, every byte class over its block
//! type); a pool supplies allocation, dereference, the terminal free and
//! the recovery of what a dead thread left in it. Every tier above the pool
//! — the registration table and adoption loop ([`crate::Domain`]), the
//! handle with its raw and guard APIs ([`crate::Handle`]), the byte-class
//! ladder ([`crate::class`]), leasing and orphan recovery — is written
//! once over this trait and never asks which scheme it runs on.
//!
//! What only the wait-free scheme has (helping, the quiescence bracket,
//! snapshot pins, online segment retirement) is a *defaulted hook*: an empty `#[inline]` body that a scheme without the
//! mechanism inherits, so the lock-free yardstick executes none of it.

use core::cell::Cell;

use crate::arena::{Arena, GrowOutcome};
use crate::counters::OpCounters;
use crate::domain::{AdoptReport, Census, Shared};
use crate::link::Link;
use crate::magazine::Magazines;
use crate::node::{Node, RcObject};
use crate::oom::OutOfMemory;
use crate::reclaim::ReclaimOutcome;

/// A reference-counting scheme: the pool type it manages each payload with.
pub trait Scheme: Send + Sync + Sized + 'static {
    /// The scheme's pool over payloads `T`.
    type Pool<T: RcObject>: Pool<T>;

    /// Short name for reports ("wfrc" / "lfrc").
    const NAME: &'static str;

    /// Whether a pin session ([`crate::Handle::pin_raw`]) protects
    /// [`crate::Handle::snapshot_raw`] targets from reclamation. The safe
    /// `pin()` / [`crate::Snapshot`] API exists only where this is true.
    const SNAPSHOT_PROTECTED: bool;
}

/// The paper's scheme: wait-free `DeRefLink` by announcement and helping
/// (Figure 4) over the wait-free striped free-list (Figure 5).
#[derive(Debug, Clone, Copy)]
pub struct Wf;

impl Scheme for Wf {
    type Pool<T: RcObject> = Shared<T>;
    const NAME: &'static str = "wfrc";
    const SNAPSHOT_PROTECTED: bool = true;
}

/// What a domain sets before it is shared and copies into every one of its
/// pools (node pool and byte classes).
#[derive(Clone)]
pub struct Tuning {
    /// Whether unbounded retry loops back off. Only a scheme that has such
    /// loops reads it; on by default (the NOBLE-era convention).
    pub backoff: bool,
    /// Installed fault schedule (see [`crate::fault`]); `None` = no
    /// injection even with the feature compiled in.
    #[cfg(feature = "fault-injection")]
    pub faults: Option<std::sync::Arc<crate::fault::FaultPlan>>,
}

impl Default for Tuning {
    fn default() -> Self {
        Self {
            backoff: true,
            #[cfg(feature = "fault-injection")]
            faults: None,
        }
    }
}

/// One memory pool of a [`Scheme`]: a segmented [`Arena`] plus the scheme's
/// free structure and dereference protocol.
///
/// # Safety
///
/// Implementors owe the §3.2 guarantees the safe [`crate::Handle`] API is
/// built on: [`Pool::deref_link`] returns a node the link pointed to during
/// the call, with one reference transferred to the caller; a node whose
/// `mm_ref` says it is referenced is never handed out by
/// [`Pool::alloc_node`] nor re-initialized; and [`Pool::help_deref`] does
/// whatever helping the scheme's dereference relies on.
///
/// Callers of the slot-bound methods — every `unsafe fn` below takes the
/// caller's registration slot `tid` — share one contract: the caller owns
/// slot `tid` of the pool's domain exclusively (a registered
/// [`crate::Handle`], or an adopter that claimed the corpse's slot), and
/// every node or link argument belongs to this pool. [`crate::Handle`] is
/// the safe owner of that contract; a method that asks for more says so.
#[allow(clippy::missing_safety_doc)] // one contract, stated above
pub unsafe trait Pool<T: RcObject>: Send + Sync + Sized {
    /// Wraps `arena`, putting every node on the free structure. `threads`
    /// is the domain's `NR_THREADS`; `magazine` the requested per-thread
    /// magazine capacity (clamped by [`crate::magazine::clamped_cap`]).
    fn new(arena: Arena<T>, threads: usize, magazine: usize) -> Self;

    /// The pool's node storage.
    fn arena(&self) -> &Arena<T>;

    /// The pool's per-thread magazines (capacity 0 = layer disabled).
    fn magazines(&self) -> &Magazines<T>;

    /// The tuning this pool runs under.
    fn tuning(&self) -> &Tuning;

    /// Pre-sharing access to the tuning (see [`crate::Domain::retune`]).
    fn tuning_mut(&mut self) -> &mut Tuning;

    /// `AllocNode`: a node holding one reference (`mm_ref == 2`), stale
    /// payload.
    unsafe fn alloc_node(&self, tid: usize, c: &OpCounters) -> Result<*mut Node<T>, OutOfMemory>;

    /// `DeRefLink`: the link's target (deletion mark stripped) with one
    /// reference for the caller, or null.
    unsafe fn deref_link(&self, tid: usize, c: &OpCounters, link: &Link<T>) -> *mut Node<T>;

    /// The terminal step of `ReleaseRef` and of the last weak release:
    /// takes a claimed, fully drained header (`mm_ref == 1`) back. `node` is
    /// exclusively the caller's.
    unsafe fn free_finalized(&self, tid: usize, c: &OpCounters, node: *mut Node<T>);

    /// Returns every node parked in slot `tid`'s magazine to the shared
    /// free structure.
    unsafe fn drain_magazine(&self, tid: usize, c: &OpCounters);

    /// Recovers what a dead owner of slot `tid` left in this pool and
    /// leaves the slot quiescent. Only the per-pool fields of the report
    /// are filled.
    unsafe fn adopt_slot(&self, tid: usize, c: &OpCounters) -> AdoptReport;

    /// Quiescent audit: where every node of the pool sits.
    fn census(&self) -> Census;

    /// `ReleaseRef` (paper lines R1–R4) — the one body both schemes run,
    /// ending in [`Pool::free_finalized`]. The caller owns an unreleased
    /// reference on non-null `node`.
    #[inline]
    unsafe fn release_ref(&self, tid: usize, c: &OpCounters, node: *mut Node<T>) {
        // SAFETY: forwarded contract.
        unsafe { crate::rc::release_ref(self, tid, c, node) }
    }

    /// One arena growth step, for an allocator that found the pool dry:
    /// true when capacity grew — by this thread, which then `seed`s the
    /// fresh slab onto the scheme's free structure, or by a concurrent
    /// winner — and the caller should re-scan; false when the growth policy
    /// is exhausted and out-of-memory is terminal.
    fn grow(&self, tid: usize, c: &OpCounters, seed: impl Fn(&[Node<T>])) -> bool {
        #[cfg(not(feature = "fault-injection"))]
        let _ = tid;
        match self.arena().try_grow() {
            GrowOutcome::Grew { nodes, revived } => {
                OpCounters::bump(&c.segments_grown);
                if revived {
                    OpCounters::bump(&c.segments_revived);
                }
                OpCounters::add(&c.nodes_seeded, nodes.len() as u64);
                // A death between winning the growth CAS and seeding would
                // strand the entire new segment outside every free structure
                // — invisible to adoption — so the completion seeds it first.
                #[cfg(feature = "fault-injection")]
                self.fault_hit_or(c, crate::fault::FaultSite::GrowSeed, tid, || seed(nodes));
                seed(nodes);
                true
            }
            GrowOutcome::Lost => true,
            GrowOutcome::AtCapacity => false,
        }
    }

    /// `HelpDeRef`: the obligation of whoever changed `link`, before it
    /// releases the old target. Default: none (a re-checking dereference
    /// needs no help).
    #[inline]
    unsafe fn help_deref(&self, _tid: usize, _c: &OpCounters, _link: &Link<T>) {}

    /// Opens one level of slot `tid`'s quiescence bracket. `depth` is the
    /// caller's nesting counter for this pool (a handle's own for the node
    /// pool, a fresh zero for a leaf operation). Default: no bracket.
    #[inline]
    fn op_enter(&self, _tid: usize, _depth: &Cell<usize>) {}

    /// Closes the level opened by [`Pool::op_enter`].
    #[inline]
    fn op_exit(&self, _tid: usize, _depth: &Cell<usize>) {}

    /// Publishes slot `tid`'s snapshot pin. Default: nothing to publish.
    #[inline]
    fn pin(&self, _tid: usize) {}

    /// Withdraws slot `tid`'s snapshot pin.
    #[inline]
    fn unpin(&self, _tid: usize) {}

    /// Frees what slot `tid` deferred under snapshot pins and may now
    /// free; returns the count. Default: nothing is ever deferred.
    #[inline]
    unsafe fn drain_deferred(&self, _tid: usize, _c: &OpCounters) -> usize {
        0
    }

    /// A fresh registration claimed slot `tid`: make it quiescent.
    #[inline]
    fn slot_registered(&self, _tid: usize) {}

    /// Slot `tid`'s handle is dropping with no operation in flight.
    #[inline]
    fn slot_retired(&self, _tid: usize) {}

    /// Online retirement of the trailing segment, beside live traffic.
    /// `is_taken` is the domain's registry probe. Default: the scheme
    /// cannot (see [`Pool::reclaim_quiescent`]). The caller is not inside
    /// an operation.
    #[inline]
    unsafe fn reclaim(
        &self,
        _tid: usize,
        _c: &OpCounters,
        _is_taken: &dyn Fn(usize) -> bool,
    ) -> ReclaimOutcome {
        ReclaimOutcome::NoCandidate
    }

    /// Stop-the-world retirement of the trailing segment: `&mut self` is
    /// the proof that no handle is live. Returns true when a segment was
    /// retired. Default: the scheme retires online instead.
    #[inline]
    fn reclaim_quiescent(&mut self) -> bool {
        false
    }

    /// Fires the injection hook for `site` if a plan is installed. For
    /// sites that hold no protocol resource: an injected death unwinds
    /// without stranding anything adoption cannot enumerate. True when the
    /// fired action is [`crate::fault::FaultAction::Swing`].
    #[cfg(feature = "fault-injection")]
    #[inline]
    fn fault_hit(&self, c: &OpCounters, site: crate::fault::FaultSite, tid: usize) -> bool {
        self.tuning()
            .faults
            .as_ref()
            .is_some_and(|p| p.hit(site, tid, c))
    }

    /// Fires the injection hook with a completion obligation (see
    /// [`crate::fault::FaultPlan::hit_or`]).
    #[cfg(feature = "fault-injection")]
    #[inline]
    fn fault_hit_or(
        &self,
        c: &OpCounters,
        site: crate::fault::FaultSite,
        tid: usize,
        complete: impl FnOnce(),
    ) {
        if let Some(p) = &self.tuning().faults {
            p.hit_or(site, tid, c, complete);
        }
    }
}

/// RAII form of one [`Pool::op_enter`] / [`Pool::op_exit`] level: the exit
/// runs on unwind too, so an injected death inside the bracket leaves the
/// slot quiescent and a reclaimer never waits on a corpse.
pub(crate) struct OpGuard<'a, T: RcObject, P: Pool<T>> {
    pool: &'a P,
    tid: usize,
    depth: &'a Cell<usize>,
    _payload: core::marker::PhantomData<fn() -> T>,
}

impl<'a, T: RcObject, P: Pool<T>> OpGuard<'a, T, P> {
    #[inline]
    pub(crate) fn enter(pool: &'a P, tid: usize, depth: &'a Cell<usize>) -> Self {
        pool.op_enter(tid, depth);
        Self {
            pool,
            tid,
            depth,
            _payload: core::marker::PhantomData,
        }
    }
}

impl<T: RcObject, P: Pool<T>> Drop for OpGuard<'_, T, P> {
    #[inline]
    fn drop(&mut self) {
        self.pool.op_exit(self.tid, self.depth);
    }
}
