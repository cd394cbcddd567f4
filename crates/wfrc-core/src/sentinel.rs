//! Autonomous stall detection and self-healing recovery.
//!
//! Every recovery primitive (orphan adoption, orphaned-lease recovery,
//! segment-retire reopening) is safe and idempotent, but something still
//! has to call it. A [`Sentinel`] watches a [`Supervised`] target — the
//! domain's registration slots, or a lease pool's slot words — and walks
//! each slot up a two-rung ladder:
//!
//! ```text
//!          fingerprint advanced, or obligation discharged
//!       ┌──────────────────────────────────────────────┐
//!       ▼                                              │
//!     IDLE ──obligated──▶ OBSERVE ──stale × HELP_AFTER──▶ HELP
//!                                                   (run the helper
//!                                                    on its behalf)
//! ```
//!
//! * **Detection** is a per-slot progress *fingerprint* — the operation
//!   epoch, the registration-slot state, and whether an announcement is
//!   live for a domain; the `generation << 3 | state` word for a lease
//!   slot. A slot whose fingerprint has not advanced for [`HELP_AFTER`]
//!   consecutive examinations *while it holds obligations* (an orphaned
//!   slot, a live announcement, a DRAINING claim) escalates.
//! * **Help** runs the target's idempotent helper on the slot's behalf —
//!   exactly what a courteous peer thread would do, just scheduled. The
//!   helpers only touch `ORPHANED` slots, so a live registration or lease
//!   is never seized: a merely-slow thread survives by construction, and
//!   the paper's `threadId` stays "unique and fixed".
//!
//! Every [`Sentinel::tick`] does O([`SLOTS_PER_TICK`])
//! work via a rotor cursor: any thread can donate a tick without breaking
//! its own wait-freedom bound, and `wfrc-sim::supervisor` provides the
//! dedicated-thread form.
//!
//! # Example
//!
//! ```
//! use wfrc_core::sentinel::{Sentinel, Stage};
//! use wfrc_core::{DomainConfig, WfrcDomain};
//!
//! let domain = WfrcDomain::<u64>::new(DomainConfig::new(2, 16));
//! let sentinel = Sentinel::new(&domain);
//!
//! // A healthy domain: ticks are cheap no-ops.
//! for _ in 0..4 {
//!     sentinel.tick();
//! }
//! assert_eq!(sentinel.stats().ticks, 4);
//! assert_eq!(sentinel.stats().helps, 0);
//! assert_eq!(sentinel.stage(0), Stage::Idle);
//!
//! // A handle abandoned mid-flight (a "crash") is found and adopted by
//! // the ladder's HELP stage — no manual `adopt_orphans` call.
//! let handle = domain.register().unwrap();
//! handle.abandon();
//! assert_eq!(domain.orphaned_threads(), 1);
//! while domain.orphaned_threads() > 0 {
//!     sentinel.tick();
//! }
//! assert!(sentinel.stats().helps >= 1);
//! ```

use core::sync::atomic::{AtomicU64, Ordering};

use wfrc_primitives::{AtomicWord, CachePadded};

use crate::counters::{SentinelSnapshot, SentinelStats};
use crate::domain::{Domain, SLOT_ORPHANED, SLOT_TAKEN};
use crate::node::RcObject;
use crate::scheme::Scheme;

// ---------------------------------------------------------------------------
// The supervision contract
// ---------------------------------------------------------------------------

/// What a [`Sentinel`] needs from a supervised structure: a fixed set of
/// watch slots, each with an *obligation* predicate, a progress
/// *fingerprint*, and an idempotent *helper*.
///
/// Implementations must make every method safe under arbitrary concurrency
/// (the sentinel may run from any thread, racing the slot's owner and other
/// sentinels), and [`Supervised::help`] must be idempotent and must never
/// seize a slot that still has a live owner — the ladder retries it freely.
pub trait Supervised: Sync {
    /// Number of watch slots (fixed for the structure's lifetime).
    fn watch_slots(&self) -> usize;

    /// True when `slot` currently holds an obligation worth chasing: a
    /// corpse awaiting adoption, a live announcement, a half-finished
    /// retire. Un-obligated slots are never escalated.
    fn obligated(&self, slot: usize) -> bool;

    /// A word that provably changes whenever `slot` makes progress
    /// (operation epoch, slot-word generation, state transitions). The
    /// sentinel compares successive values; equality across examinations
    /// is the staleness signal.
    fn fingerprint(&self, slot: usize) -> u64;

    /// Runs the structure's existing safe helper on `slot`'s behalf
    /// (e.g. orphan adoption). Returns true if recovery work was done —
    /// the sentinel then resets the slot's ladder.
    fn help(&self, slot: usize) -> bool;
}

/// The domain's registration slots under supervision, whatever the scheme.
///
/// * **Obligated**: the slot is `ORPHANED` (a corpse awaiting adoption), or
///   `TAKEN` and obligated in *any* pool of the domain — node pool or byte
///   class ([`crate::scheme::Pool::progress`]: under the wait-free scheme a
///   live announcement, an open operation or a segment-retire claim; under
///   a scheme whose slots can hold nothing, never).
/// * **Fingerprint**: slot state ⊕ the pools' folded heartbeat.
/// * **Help**: [`Domain::adopt_orphans`] — idempotent, and it only ever
///   touches `ORPHANED` slots, so a merely-slow (parked, stalled) thread
///   whose slot is still `TAKEN` is never seized no matter how many ticks
///   pass. Death always orphans the slot on the unwind path.
impl<T: RcObject, S: Scheme> Supervised for Domain<T, S> {
    fn watch_slots(&self) -> usize {
        self.max_threads()
    }

    fn obligated(&self, slot: usize) -> bool {
        match self.slot_state(slot) {
            SLOT_ORPHANED => true,
            SLOT_TAKEN => self.progress(slot).obligated,
            _ => false,
        }
    }

    fn fingerprint(&self, slot: usize) -> u64 {
        // Mix so distinct (heartbeat, state) pairs land on distinct words;
        // the sentinel only ever compares for equality.
        self.progress(slot)
            .heartbeat
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.slot_state(slot) as u64)
    }

    fn help(&self, slot: usize) -> bool {
        if self.slot_state(slot) != SLOT_ORPHANED {
            return false;
        }
        self.adopt_orphans().orphans_adopted > 0
    }
}

// ---------------------------------------------------------------------------
// Escalation ladder state
// ---------------------------------------------------------------------------

/// Ladder position of one watch slot (diagnostics / tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// No obligation observed.
    Idle,
    /// Obligated; fingerprint advanced recently.
    Observe,
    /// Stale for [`HELP_AFTER`] examinations; the helper runs on the
    /// slot's behalf at every further examination.
    Help,
}

const STAGE_IDLE: usize = 0;
const STAGE_OBSERVE: usize = 1;
const STAGE_HELP: usize = 2;

/// Initial fingerprint sentinel: never produced by the mixers above in
/// practice; a collision merely costs one extra examination.
const FP_UNSET: u64 = u64::MAX;

struct Watch {
    /// Examination claim: a ticker CASes 0 → 1 before touching the watch
    /// words, so concurrent tickers skip (bounded) instead of interleaving.
    busy: CachePadded<AtomicWord>,
    /// Last fingerprint observed.
    fp: AtomicU64,
    /// Consecutive stale examinations.
    stale: AtomicWord,
    stage: AtomicWord,
}

impl Watch {
    fn new() -> Self {
        Self {
            busy: CachePadded::new(AtomicWord::new(0)),
            fp: AtomicU64::new(FP_UNSET),
            stale: AtomicWord::new(0),
            stage: AtomicWord::new(STAGE_IDLE),
        }
    }

    /// Back to IDLE (obligation discharged or recovery done). Caller holds
    /// the busy claim.
    fn reset(&self) {
        self.fp.store(FP_UNSET, Ordering::Relaxed);
        self.stale.store_with(0, Ordering::Relaxed);
        self.stage.store_with(STAGE_IDLE, Ordering::Relaxed);
    }
}

/// Watch slots examined per [`Sentinel::tick`] (the per-tick work bound; at
/// most the target's slot count).
pub const SLOTS_PER_TICK: usize = 8;

/// Stale examinations of an obligated slot before the HELP rung runs the
/// target's helper. An examination is one [`Sentinel::tick`] that reaches
/// the slot through the rotor, so a slower tick cadence stretches it.
pub const HELP_AFTER: usize = 2;

// ---------------------------------------------------------------------------
// The sentinel
// ---------------------------------------------------------------------------

/// A cooperative recovery supervisor over a [`Supervised`] target. See the
/// [module docs](crate::sentinel) for the ladder.
///
/// `tick()` is safe to call from any number of threads concurrently — each
/// watch slot is claimed with a CAS and concurrent tickers skip busy slots
/// — and each call does a bounded amount of work, so worker threads can
/// donate ticks from their own loops without losing their wait-freedom
/// bounds. `wfrc-sim::supervisor` runs it from a dedicated thread instead.
pub struct Sentinel<'t, S: Supervised + ?Sized> {
    target: &'t S,
    watches: Box<[Watch]>,
    /// Rotor cursor: ticks spread their examination budget around the slot
    /// array instead of re-examining slot 0 forever.
    rotor: CachePadded<AtomicWord>,
    stats: SentinelStats,
}

impl<'t, S: Supervised + ?Sized> Sentinel<'t, S> {
    /// Builds a sentinel over `target` with one watch per
    /// [`Supervised::watch_slots`] slot.
    pub fn new(target: &'t S) -> Self {
        Self {
            watches: (0..target.watch_slots()).map(|_| Watch::new()).collect(),
            rotor: CachePadded::new(AtomicWord::new(0)),
            target,
            stats: SentinelStats::new(),
        }
    }

    /// The supervised target.
    pub fn target(&self) -> &'t S {
        self.target
    }

    /// Telemetry snapshot.
    #[must_use]
    pub fn stats(&self) -> SentinelSnapshot {
        self.stats.snapshot()
    }

    /// Current ladder position of watch `slot` (diagnostic; racy).
    ///
    /// # Panics
    /// Panics if `slot >= watch_slots()`.
    #[must_use]
    pub fn stage(&self, slot: usize) -> Stage {
        match self.watches[slot].stage.load_with(Ordering::Relaxed) {
            STAGE_IDLE => Stage::Idle,
            STAGE_OBSERVE => Stage::Observe,
            _ => Stage::Help,
        }
    }

    /// One supervision step: examines up to
    /// [`SLOTS_PER_TICK`] watch slots starting at the
    /// rotor cursor, advancing each obligated-but-stale slot one rung up
    /// the escalation ladder. O(bounded); never blocks; reentrant.
    pub fn tick(&self) {
        let n = self.watches.len();
        SentinelStats::bump(&self.stats.ticks);
        if n == 0 {
            return;
        }
        let budget = SLOTS_PER_TICK.min(n);
        let start = self.rotor.faa_with(budget as isize, Ordering::Relaxed);
        for k in 0..budget {
            self.examine((start + k) % n);
        }
    }

    fn examine(&self, idx: usize) {
        let w = &self.watches[idx];
        // Claim the watch; a concurrent ticker owns it — skip, bounded.
        if !w.busy.cas_with(0, 1, Ordering::Acquire, Ordering::Relaxed) {
            return;
        }
        self.examine_claimed(idx, w);
        w.busy.store_with(0, Ordering::Release);
    }

    fn examine_claimed(&self, idx: usize, w: &Watch) {
        SentinelStats::bump(&self.stats.probes);
        if !self.target.obligated(idx) {
            w.reset();
            return;
        }
        let fp = self.target.fingerprint(idx);
        if fp != w.fp.load(Ordering::Relaxed) {
            // Progress: restart the ladder at OBSERVE.
            w.fp.store(fp, Ordering::Relaxed);
            w.stale.store_with(0, Ordering::Relaxed);
            w.stage.store_with(STAGE_OBSERVE, Ordering::Relaxed);
            return;
        }
        let stale = (w.stale.load_with(Ordering::Relaxed) + 1).min(HELP_AFTER);
        w.stale.store_with(stale, Ordering::Relaxed);
        if stale < HELP_AFTER {
            w.stage.store_with(STAGE_OBSERVE, Ordering::Relaxed);
            return;
        }
        w.stage.store_with(STAGE_HELP, Ordering::Relaxed);
        if self.target.help(idx) {
            SentinelStats::bump(&self.stats.helps);
            w.reset();
        }
    }
}

impl<'t, S: Supervised + ?Sized> core::fmt::Debug for Sentinel<'t, S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Sentinel")
            .field("watch_slots", &self.watches.len())
            .field("ticks", &self.stats.ticks.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DomainConfig, WfrcDomain};

    #[test]
    fn idle_domain_never_escalates() {
        let d = WfrcDomain::<u64>::new(DomainConfig::new(4, 32));
        let s = Sentinel::new(&d);
        for _ in 0..100 {
            s.tick();
        }
        let snap = s.stats();
        assert_eq!(snap.ticks, 100);
        assert_eq!(snap.helps, 0);
        for slot in 0..4 {
            assert_eq!(s.stage(slot), Stage::Idle);
        }
    }

    #[test]
    fn orphan_is_adopted_at_the_help_stage() {
        let d = WfrcDomain::<u64>::new(DomainConfig::new(2, 32).with_magazine(4));
        let h = d.register().unwrap();
        drop(h.alloc_with(|v| *v = 1).unwrap());
        h.abandon();
        assert_eq!(d.orphaned_threads(), 1);
        let s = Sentinel::new(&d);
        let mut ticks = 0;
        while d.orphaned_threads() > 0 {
            s.tick();
            ticks += 1;
            assert!(ticks < 1_000, "sentinel failed to adopt the orphan");
        }
        assert!(s.stats().helps >= 1);
        assert_eq!(d.orphans_adopted(), 1);
        assert!(d.leak_check().is_clean());
    }

    #[test]
    fn live_registration_is_never_declared_dead() {
        // A registered handle that stalls, however long, is never seized:
        // its slot is TAKEN, not ORPHANED, so the helper has nothing to do.
        let d = WfrcDomain::<u64>::new(DomainConfig::new(2, 32));
        let h = d.register().unwrap();
        let s = Sentinel::new(&d);
        for _ in 0..200 {
            s.tick();
        }
        assert_eq!(s.stats().helps, 0);
        assert_eq!(d.registered_threads(), 1);
        assert_eq!(d.orphans_adopted(), 0);
        drop(h);
    }

    #[test]
    fn concurrent_tickers_are_safe() {
        let d = WfrcDomain::<u64>::new(DomainConfig::new(4, 64).with_magazine(4));
        for _ in 0..3 {
            let h = d.register().unwrap();
            drop(h.alloc_with(|v| *v = 7).unwrap());
            h.abandon();
        }
        let s = Sentinel::new(&d);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..500 {
                        s.tick();
                    }
                });
            }
        });
        assert_eq!(d.orphaned_threads(), 0);
        assert_eq!(d.orphans_adopted(), 3);
        assert!(d.leak_check().is_clean());
    }
}
