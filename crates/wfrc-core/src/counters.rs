//! Per-thread operation counters.
//!
//! The paper's headline property — wait-freedom — is a statement about *step
//! counts*, not wall-clock time, and the single-CPU CI box this reproduction
//! runs on cannot show it by timing alone. Every loop in the scheme
//! therefore reports its iteration counts into the owning thread's
//! [`OpCounters`] (plain `Cell`s: the handle is single-threaded, so the
//! counters cost one non-atomic increment — unmeasurable next to the
//! `SeqCst` operations they sit beside). Experiments E4/E5/E7 read these to
//! demonstrate the bounded-retry guarantees of Lemmas 6–10 against the
//! unbounded retries of the lock-free baseline.

use core::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters for one registered thread. Snapshot with [`OpCounters::snapshot`].
#[derive(Debug, Default)]
pub struct OpCounters {
    /// `DeRefLink` invocations (including those performed while helping).
    pub deref_calls: Cell<u64>,
    /// `DeRefLink` invocations answered by a helper (line D7 taken).
    pub deref_helped: Cell<u64>,
    /// Announcement slots inspected by line D1 before a free one was found.
    /// Bounded by `NR_THREADS` per call — the wait-free bound of D1.
    pub deref_slot_scans: Cell<u64>,
    /// Worst single-call D1 scan length observed.
    pub max_deref_slot_scan: Cell<u64>,
    /// Fast dereference attempts (`rc::try_deref_once`) whose re-check
    /// found the link moved: the speculative count was returned and the
    /// call fell back — to D1–D10 in the wait-free scheme, to another
    /// attempt in the lock-free baseline. A fallback is not a retry.
    pub deref_fast_miss: Cell<u64>,
    /// Dereference retries (always 0 for the wait-free scheme; the
    /// lock-free baseline's Valois-style re-check loop counts here).
    pub deref_retries: Cell<u64>,
    /// Worst single-call dereference retry count — unbounded for the
    /// lock-free baseline under interference (experiment E4).
    pub max_deref_retries: Cell<u64>,
    /// Plain-load dereferences under a snapshot pin (`PinGuard::snapshot` /
    /// the raw snapshot load) — reads that paid zero FAAs and zero
    /// announcement-slot writes.
    pub snapshot_derefs: Cell<u64>,
    /// Claimed nodes whose free was deferred because a snapshot pin was
    /// live somewhere (drained later via the deferred lists).
    pub deferred_decs: Cell<u64>,
    /// `Snapshot::upgrade` calls — each runs one full announcement-based
    /// `DeRefLink` (the wait-free slow path behind the plain-load reads).
    pub upgrade_slow: Cell<u64>,
    /// `downgrade` calls — weak references minted from strong ones (one
    /// FAA of [`crate::Node::WEAK_UNIT`] each).
    pub weak_downgrades: Cell<u64>,
    /// Weak upgrade attempts (`Weak::upgrade` and `load_weak` combined).
    pub weak_upgrades: Cell<u64>,
    /// Weak upgrade attempts that failed: the target was DEAD (or the weak
    /// link was ⊥ in `load_weak`).
    pub upgrade_failed: Cell<u64>,
    /// `ReleaseRef` invocations.
    pub releases: Cell<u64>,
    /// Reclamations won (line R2 CAS succeeded).
    pub reclaims: Cell<u64>,
    /// `HelpDeRef` invocations.
    pub help_calls: Cell<u64>,
    /// Announcements answered successfully (line H6 CAS succeeded).
    pub help_answers: Cell<u64>,
    /// Help attempts whose answer CAS lost (line H7 taken).
    pub help_lost: Cell<u64>,
    /// `HelpDeRef` invocations that returned from the announcement-presence
    /// summary without reading a single slot word (no registered thread
    /// has dereferenced since it registered).
    pub help_scan_skips: Cell<u64>,
    /// `HelpDeRef` invocations that examined at least one thread's
    /// announcement row (some registered thread is a reader — rows read,
    /// not RMWs issued).
    pub help_scan_full: Cell<u64>,
    /// `AllocNode` invocations.
    pub alloc_calls: Cell<u64>,
    /// Total `AllocNode` iterations on the shared free-lists: the two
    /// fast-path attempts (own stripe, plain) count as iterations 1 and 2,
    /// the A3–A18 loop continues from there.
    pub alloc_iters: Cell<u64>,
    /// Worst single-call iteration count — the quantity Lemma 9 bounds.
    pub max_alloc_iters: Cell<u64>,
    /// Failed A10 CAS attempts.
    pub alloc_cas_failures: Cell<u64>,
    /// Allocations satisfied from `annAlloc` (line A4: this thread was helped).
    pub alloc_from_gift: Cell<u64>,
    /// Times `AllocNode` exhausted its retry bound and entered the growth
    /// slow path (whether or not growth then succeeded).
    pub alloc_slow_path: Cell<u64>,
    /// Allocations served by stealing a node off an in-flight reclaim's
    /// parking chain (the anti-livelock escape; dooms that retire).
    pub alloc_from_steal: Cell<u64>,
    /// Arena segments this thread published (won the growth CAS).
    pub segments_grown: Cell<u64>,
    /// Fresh nodes this thread seeded into the free-lists after growth.
    pub nodes_seeded: Cell<u64>,
    /// Nodes this thread gave away at line A12.
    pub alloc_gave_gift: Cell<u64>,
    /// `FreeNode` invocations.
    pub free_calls: Cell<u64>,
    /// Frees satisfied by gifting (corrected line F3 CAS succeeded).
    pub free_gifted: Cell<u64>,
    /// Failed F9 CAS attempts — the quantity Lemma 10 bounds.
    pub free_push_retries: Cell<u64>,
    /// Worst single-call F9 retry count.
    pub max_free_push_retries: Cell<u64>,
    /// Allocations served from the thread-local magazine (zero shared
    /// atomics on the free-list; see [`crate::magazine`]).
    pub magazine_hits: Cell<u64>,
    /// Magazine refill events that obtained at least one node from the
    /// shared free-list stripes.
    pub magazine_refills: Cell<u64>,
    /// Magazine drain events (a batch of cached nodes chain-pushed back to
    /// the shared free-list stripes).
    pub magazine_drains: Cell<u64>,
    /// Reclaim attempts by this thread that claimed a trailing segment
    /// (took it `LIVE → DRAINING`), whether or not the retire completed.
    pub reclaim_passes: Cell<u64>,
    /// Claimed reclaims this thread had to reopen (stalled epoch, nodes in
    /// flight, racing growth, or a live announcement).
    pub reclaim_aborts: Cell<u64>,
    /// Arena segments this thread retired (slab returned to the allocator).
    pub segments_retired: Cell<u64>,
    /// RETIRED arena slots this thread revived on the growth path.
    pub segments_revived: Cell<u64>,
    /// Faults this thread had injected into it (stalls, parks, deaths).
    /// Always 0 unless the `fault-injection` feature is active and a
    /// `FaultPlan` is installed.
    pub faults_injected: Cell<u64>,
    /// Byte-class block allocations, indexed by class position in the
    /// domain's configured class list (see [`crate::class`]). Classes
    /// beyond the configured count stay 0.
    pub class_allocs: [Cell<u64>; crate::class::MAX_CLASSES],
    /// Byte-class block frees, same indexing as `class_allocs`.
    pub class_frees: [Cell<u64>; crate::class::MAX_CLASSES],
}

impl OpCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds 1 to a counter cell (helper for scheme implementations).
    #[doc(hidden)]
    #[inline]
    pub fn bump(c: &Cell<u64>) {
        c.set(c.get() + 1);
    }

    /// Adds `k` to a counter cell.
    #[doc(hidden)]
    #[inline]
    pub fn add(c: &Cell<u64>, k: u64) {
        c.set(c.get() + k);
    }

    /// Raises a max-tracking cell to at least `k`.
    #[doc(hidden)]
    #[inline]
    pub fn record_max(c: &Cell<u64>, k: u64) {
        if k > c.get() {
            c.set(k);
        }
    }

    /// Copies the current values out (the handle cannot be read from other
    /// threads; workers snapshot at the end of a run and send the snapshot).
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            deref_calls: self.deref_calls.get(),
            deref_helped: self.deref_helped.get(),
            deref_slot_scans: self.deref_slot_scans.get(),
            max_deref_slot_scan: self.max_deref_slot_scan.get(),
            deref_fast_miss: self.deref_fast_miss.get(),
            deref_retries: self.deref_retries.get(),
            max_deref_retries: self.max_deref_retries.get(),
            snapshot_derefs: self.snapshot_derefs.get(),
            deferred_decs: self.deferred_decs.get(),
            upgrade_slow: self.upgrade_slow.get(),
            weak_downgrades: self.weak_downgrades.get(),
            weak_upgrades: self.weak_upgrades.get(),
            upgrade_failed: self.upgrade_failed.get(),
            releases: self.releases.get(),
            reclaims: self.reclaims.get(),
            help_calls: self.help_calls.get(),
            help_answers: self.help_answers.get(),
            help_lost: self.help_lost.get(),
            help_scan_skips: self.help_scan_skips.get(),
            help_scan_full: self.help_scan_full.get(),
            alloc_calls: self.alloc_calls.get(),
            alloc_iters: self.alloc_iters.get(),
            max_alloc_iters: self.max_alloc_iters.get(),
            alloc_cas_failures: self.alloc_cas_failures.get(),
            alloc_from_gift: self.alloc_from_gift.get(),
            alloc_slow_path: self.alloc_slow_path.get(),
            alloc_from_steal: self.alloc_from_steal.get(),
            segments_grown: self.segments_grown.get(),
            nodes_seeded: self.nodes_seeded.get(),
            alloc_gave_gift: self.alloc_gave_gift.get(),
            free_calls: self.free_calls.get(),
            free_gifted: self.free_gifted.get(),
            free_push_retries: self.free_push_retries.get(),
            max_free_push_retries: self.max_free_push_retries.get(),
            magazine_hits: self.magazine_hits.get(),
            magazine_refills: self.magazine_refills.get(),
            magazine_drains: self.magazine_drains.get(),
            reclaim_passes: self.reclaim_passes.get(),
            reclaim_aborts: self.reclaim_aborts.get(),
            segments_retired: self.segments_retired.get(),
            segments_revived: self.segments_revived.get(),
            faults_injected: self.faults_injected.get(),
            class_allocs: core::array::from_fn(|i| self.class_allocs[i].get()),
            class_frees: core::array::from_fn(|i| self.class_frees[i].get()),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.deref_calls.set(0);
        self.deref_helped.set(0);
        self.deref_slot_scans.set(0);
        self.max_deref_slot_scan.set(0);
        self.deref_fast_miss.set(0);
        self.deref_retries.set(0);
        self.max_deref_retries.set(0);
        self.snapshot_derefs.set(0);
        self.deferred_decs.set(0);
        self.upgrade_slow.set(0);
        self.weak_downgrades.set(0);
        self.weak_upgrades.set(0);
        self.upgrade_failed.set(0);
        self.releases.set(0);
        self.reclaims.set(0);
        self.help_calls.set(0);
        self.help_answers.set(0);
        self.help_lost.set(0);
        self.help_scan_skips.set(0);
        self.help_scan_full.set(0);
        self.alloc_calls.set(0);
        self.alloc_iters.set(0);
        self.max_alloc_iters.set(0);
        self.alloc_cas_failures.set(0);
        self.alloc_from_gift.set(0);
        self.alloc_slow_path.set(0);
        self.alloc_from_steal.set(0);
        self.segments_grown.set(0);
        self.nodes_seeded.set(0);
        self.alloc_gave_gift.set(0);
        self.free_calls.set(0);
        self.free_gifted.set(0);
        self.free_push_retries.set(0);
        self.max_free_push_retries.set(0);
        self.magazine_hits.set(0);
        self.magazine_refills.set(0);
        self.magazine_drains.set(0);
        self.reclaim_passes.set(0);
        self.reclaim_aborts.set(0);
        self.segments_retired.set(0);
        self.segments_revived.set(0);
        self.faults_injected.set(0);
        for c in &self.class_allocs {
            c.set(0);
        }
        for c in &self.class_frees {
            c.set(0);
        }
    }
}

/// An owned, `Send` copy of [`OpCounters`] values.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings documented on OpCounters
pub struct CounterSnapshot {
    pub deref_calls: u64,
    pub deref_helped: u64,
    pub deref_slot_scans: u64,
    pub max_deref_slot_scan: u64,
    pub deref_fast_miss: u64,
    pub deref_retries: u64,
    pub max_deref_retries: u64,
    pub snapshot_derefs: u64,
    pub deferred_decs: u64,
    pub upgrade_slow: u64,
    pub weak_downgrades: u64,
    pub weak_upgrades: u64,
    pub upgrade_failed: u64,
    pub releases: u64,
    pub reclaims: u64,
    pub help_calls: u64,
    pub help_answers: u64,
    pub help_lost: u64,
    pub help_scan_skips: u64,
    pub help_scan_full: u64,
    pub alloc_calls: u64,
    pub alloc_iters: u64,
    pub max_alloc_iters: u64,
    pub alloc_cas_failures: u64,
    pub alloc_from_gift: u64,
    pub alloc_slow_path: u64,
    pub alloc_from_steal: u64,
    pub segments_grown: u64,
    pub nodes_seeded: u64,
    pub alloc_gave_gift: u64,
    pub free_calls: u64,
    pub free_gifted: u64,
    pub free_push_retries: u64,
    pub max_free_push_retries: u64,
    pub magazine_hits: u64,
    pub magazine_refills: u64,
    pub magazine_drains: u64,
    pub reclaim_passes: u64,
    pub reclaim_aborts: u64,
    pub segments_retired: u64,
    pub segments_revived: u64,
    pub faults_injected: u64,
    pub class_allocs: [u64; crate::class::MAX_CLASSES],
    pub class_frees: [u64; crate::class::MAX_CLASSES],
}

impl CounterSnapshot {
    /// Element-wise sum, for aggregating per-thread snapshots.
    pub fn merged(mut self, other: &CounterSnapshot) -> CounterSnapshot {
        self.deref_calls += other.deref_calls;
        self.deref_helped += other.deref_helped;
        self.deref_slot_scans += other.deref_slot_scans;
        self.max_deref_slot_scan = self.max_deref_slot_scan.max(other.max_deref_slot_scan);
        self.deref_fast_miss += other.deref_fast_miss;
        self.deref_retries += other.deref_retries;
        self.max_deref_retries = self.max_deref_retries.max(other.max_deref_retries);
        self.snapshot_derefs += other.snapshot_derefs;
        self.deferred_decs += other.deferred_decs;
        self.upgrade_slow += other.upgrade_slow;
        self.weak_downgrades += other.weak_downgrades;
        self.weak_upgrades += other.weak_upgrades;
        self.upgrade_failed += other.upgrade_failed;
        self.releases += other.releases;
        self.reclaims += other.reclaims;
        self.help_calls += other.help_calls;
        self.help_answers += other.help_answers;
        self.help_lost += other.help_lost;
        self.help_scan_skips += other.help_scan_skips;
        self.help_scan_full += other.help_scan_full;
        self.alloc_calls += other.alloc_calls;
        self.alloc_iters += other.alloc_iters;
        self.max_alloc_iters = self.max_alloc_iters.max(other.max_alloc_iters);
        self.alloc_cas_failures += other.alloc_cas_failures;
        self.alloc_from_gift += other.alloc_from_gift;
        self.alloc_slow_path += other.alloc_slow_path;
        self.alloc_from_steal += other.alloc_from_steal;
        self.segments_grown += other.segments_grown;
        self.nodes_seeded += other.nodes_seeded;
        self.alloc_gave_gift += other.alloc_gave_gift;
        self.free_calls += other.free_calls;
        self.free_gifted += other.free_gifted;
        self.free_push_retries += other.free_push_retries;
        self.max_free_push_retries = self.max_free_push_retries.max(other.max_free_push_retries);
        self.magazine_hits += other.magazine_hits;
        self.magazine_refills += other.magazine_refills;
        self.magazine_drains += other.magazine_drains;
        self.reclaim_passes += other.reclaim_passes;
        self.reclaim_aborts += other.reclaim_aborts;
        self.segments_retired += other.segments_retired;
        self.segments_revived += other.segments_revived;
        self.faults_injected += other.faults_injected;
        for i in 0..crate::class::MAX_CLASSES {
            self.class_allocs[i] += other.class_allocs[i];
            self.class_frees[i] += other.class_frees[i];
        }
        self
    }
}

/// Pool-level telemetry for the lease subsystem ([`crate::lease`]).
///
/// Unlike [`OpCounters`] — which are strictly per-thread `Cell`s — lease
/// events are produced by every task that touches the pool, so these are
/// shared `Relaxed` atomics. They are telemetry only: no protocol decision
/// reads them.
#[derive(Debug, Default)]
pub struct LeaseStats {
    /// Leases checked out (scan claims + handoffs).
    pub issued: AtomicU64,
    /// Guards dropped cleanly (slot returned to circulation).
    pub released: AtomicU64,
    /// Releases that handed the slot directly to an enrolled waiter
    /// instead of returning it to the free scan.
    pub handoffs: AtomicU64,
    /// Waiters that enrolled on the wakeup list (the helping-ticket path).
    pub enrolled: AtomicU64,
    /// Bounded claim scans that completed a full pass without claiming
    /// (the reservation guarantees a later pass succeeds; see DESIGN.md).
    pub long_scans: AtomicU64,
    /// `try_acquire` calls refused because every slot was checked out.
    pub exhausted: AtomicU64,
    /// Guards dropped during a panic (slot marked ORPHANED for recovery).
    pub panic_orphans: AtomicU64,
    /// ORPHANED lease slots recovered back into circulation.
    pub recovered: AtomicU64,
    /// Recovery attempts that could not re-register a handle (the slot
    /// stays out of circulation until a later `recover_orphaned` retries).
    pub recover_failures: AtomicU64,
}

impl LeaseStats {
    /// Creates zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds 1 to a stat (helper for the lease implementation).
    #[doc(hidden)]
    #[inline]
    pub fn bump(c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current values out.
    pub fn snapshot(&self) -> LeaseSnapshot {
        LeaseSnapshot {
            issued: self.issued.load(Ordering::Relaxed),
            released: self.released.load(Ordering::Relaxed),
            handoffs: self.handoffs.load(Ordering::Relaxed),
            enrolled: self.enrolled.load(Ordering::Relaxed),
            long_scans: self.long_scans.load(Ordering::Relaxed),
            exhausted: self.exhausted.load(Ordering::Relaxed),
            panic_orphans: self.panic_orphans.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
            recover_failures: self.recover_failures.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of [`LeaseStats`] values.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings documented on LeaseStats
pub struct LeaseSnapshot {
    pub issued: u64,
    pub released: u64,
    pub handoffs: u64,
    pub enrolled: u64,
    pub long_scans: u64,
    pub exhausted: u64,
    pub panic_orphans: u64,
    pub recovered: u64,
    pub recover_failures: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_stats_snapshot() {
        let s = LeaseStats::new();
        LeaseStats::bump(&s.issued);
        LeaseStats::bump(&s.issued);
        LeaseStats::bump(&s.handoffs);
        let snap = s.snapshot();
        assert_eq!(snap.issued, 2);
        assert_eq!(snap.handoffs, 1);
        assert_eq!(snap.released, 0);
    }

    #[test]
    fn bump_add_and_max() {
        let c = OpCounters::new();
        OpCounters::bump(&c.deref_calls);
        OpCounters::bump(&c.deref_calls);
        OpCounters::add(&c.alloc_iters, 5);
        OpCounters::record_max(&c.max_alloc_iters, 3);
        OpCounters::record_max(&c.max_alloc_iters, 2);
        let s = c.snapshot();
        assert_eq!(s.deref_calls, 2);
        assert_eq!(s.alloc_iters, 5);
        assert_eq!(s.max_alloc_iters, 3);
    }

    #[test]
    fn merged_sums_and_maxes() {
        let a = CounterSnapshot {
            deref_calls: 1,
            max_alloc_iters: 7,
            ..Default::default()
        };
        let b = CounterSnapshot {
            deref_calls: 2,
            max_alloc_iters: 3,
            ..Default::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.deref_calls, 3);
        assert_eq!(m.max_alloc_iters, 7);
    }

    #[test]
    fn reset_zeroes() {
        let c = OpCounters::new();
        OpCounters::bump(&c.reclaims);
        c.reset();
        assert_eq!(c.snapshot(), CounterSnapshot::default());
    }
}
