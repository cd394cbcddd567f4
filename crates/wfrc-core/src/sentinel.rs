//! Autonomous stall detection and self-healing recovery.
//!
//! The crash story so far (orphaned registration slots, lease expiry,
//! segment-retire reopening) is *mechanism*: every recovery primitive is
//! safe and idempotent, but something still has to call it at the right
//! moment. This module adds the *policy*: a [`Sentinel`] watches a
//! [`Supervised`] target — the domain's registration slots, or a lease
//! pool's slot words — and walks each slot up an escalation ladder:
//!
//! ```text
//!            fingerprint advanced, or obligation discharged
//!       ┌───────────────────────────────────────────────────────┐
//!       ▼                                                       │
//!     IDLE ──obligated──▶ OBSERVE ──stale──▶ HELP ──stale──▶ SUSPECT ──K──▶ DEAD
//!                                    (run the helper          (decorrelated-   (forcible
//!                                     on its behalf)           jitter probes)   recovery)
//! ```
//!
//! * **Detection** is a per-slot progress *fingerprint* — the PR 5
//!   operation epoch, the registration-slot state, and whether an
//!   announcement is live for a domain; the `generation << 3 | state`
//!   word for a lease slot. A slot whose fingerprint has not advanced for
//!   `help_after` consecutive examinations *while it holds obligations*
//!   (an orphaned slot, a live announcement, an overdue lease, a DRAINING
//!   claim) escalates.
//! * **Help** runs the target's existing idempotent helper on the slot's
//!   behalf (orphan adoption, orphaned-lease recovery) — exactly what a
//!   courteous peer thread would do, just scheduled.
//! * **Suspect** spaces further probes with decorrelated jitter
//!   ([`wfrc_primitives::DecorrelatedJitter`]) so a fleet of sentinels
//!   never thunders on one stalled slot.
//! * **Dead** is only declared after `dead_after` stale examinations, and
//!   [`Supervised::declare_dead`] is *still* conservative: for a domain it
//!   only adopts `ORPHANED` slots (a live registration is never seized —
//!   a merely-slow thread survives by construction); for a lease pool it
//!   only expires slots whose TTL deadline has already passed (the PR 7
//!   expiry contract).
//!
//! Every [`Sentinel::tick`] does O([`SLOTS_PER_TICK`])
//! work via a rotor cursor: any thread can donate a tick without breaking
//! its own wait-freedom bound, and `wfrc-sim::supervisor` provides the
//! dedicated-thread form.
//!
//! # Example
//!
//! ```
//! use wfrc_core::sentinel::{Sentinel, SentinelConfig, Stage};
//! use wfrc_core::{DomainConfig, WfrcDomain};
//!
//! let domain = WfrcDomain::<u64>::new(DomainConfig::new(2, 16));
//! let sentinel = Sentinel::new(&domain, SentinelConfig::default());
//!
//! // A healthy domain: ticks are cheap no-ops.
//! for _ in 0..4 {
//!     sentinel.tick();
//! }
//! assert_eq!(sentinel.stats().ticks, 4);
//! assert_eq!(sentinel.stats().declared_dead, 0);
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

use core::cell::UnsafeCell;
use core::sync::atomic::{AtomicU64, Ordering};

use wfrc_primitives::{AtomicWord, CachePadded, DecorrelatedJitter};

use crate::counters::{SentinelSnapshot, SentinelStats};
use crate::domain::{Domain, SLOT_ORPHANED, SLOT_TAKEN};
use crate::node::RcObject;
use crate::scheme::Scheme;

// ---------------------------------------------------------------------------
// The supervision contract
// ---------------------------------------------------------------------------

/// What a [`Sentinel`] needs from a supervised structure: a fixed set of
/// watch slots, each with an *obligation* predicate, a progress
/// *fingerprint*, an idempotent *helper*, and a conservative forcible
/// recovery.
///
/// Implementations must make every method safe under arbitrary concurrency
/// (the sentinel may run from any thread, racing the slot's owner and other
/// sentinels), and [`Supervised::help`] / [`Supervised::declare_dead`] must
/// be idempotent — the ladder retries them freely.
pub trait Supervised: Sync {
    /// Number of watch slots (fixed for the structure's lifetime).
    fn watch_slots(&self) -> usize;

    /// True when `slot` currently holds an obligation worth chasing: a
    /// corpse awaiting adoption, a live announcement, an overdue lease, a
    /// half-finished retire. Un-obligated slots are never escalated.
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

    /// Forcible recovery after `dead_after` stale examinations. Must stay
    /// conservative: return false (and do nothing) if the slot might still
    /// have a live owner. Returns true if the slot was reclaimed.
    fn declare_dead(&self, slot: usize) -> bool;
}

/// The domain's registration slots under supervision, whatever the scheme.
///
/// * **Obligated**: the slot is `ORPHANED` (a corpse awaiting adoption), or
///   `TAKEN` and obligated in *any* pool of the domain — node pool or byte
///   class ([`crate::scheme::Pool::progress`]: under the wait-free scheme a
///   live announcement, an open operation or a segment-retire claim; under
///   a scheme whose slots can hold nothing, never).
/// * **Fingerprint**: slot state ⊕ the pools' folded heartbeat.
/// * **Help / declare dead**: [`Domain::adopt_orphans`] — idempotent, and
///   it only ever touches `ORPHANED` slots, so a merely-slow (parked,
///   stalled) thread whose slot is still `TAKEN` is never seized no matter
///   how many ticks pass.
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

    fn declare_dead(&self, slot: usize) -> bool {
        // Adoption is already the strongest safe action: a TAKEN slot has a
        // live owner by definition (death in this codebase always orphans
        // the slot on the unwind path), so there is nothing more forcible
        // to do that would not seize a live thread's id.
        self.help(slot)
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
    /// Stale past [`SentinelConfig::help_after`]; the helper has been run
    /// on the slot's behalf.
    Help,
    /// Stale past [`SentinelConfig::suspect_after`]; probes are spaced
    /// with decorrelated jitter.
    Suspect,
    /// Stale past [`SentinelConfig::dead_after`]; forcible recovery has
    /// been attempted at least once.
    Dead,
}

const STAGE_IDLE: usize = 0;
const STAGE_OBSERVE: usize = 1;
const STAGE_HELP: usize = 2;
const STAGE_SUSPECT: usize = 3;
const STAGE_DEAD: usize = 4;

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
    /// Earliest tick number at which a SUSPECT slot is examined again.
    next_probe: AtomicU64,
    /// Jitter schedule for SUSPECT probes. Accessed only under the `busy`
    /// claim (see the `Sync` impl).
    jitter: UnsafeCell<DecorrelatedJitter>,
}

impl Watch {
    fn new(config: &SentinelConfig, slot: usize) -> Self {
        Self {
            busy: CachePadded::new(AtomicWord::new(0)),
            fp: AtomicU64::new(FP_UNSET),
            stale: AtomicWord::new(0),
            stage: AtomicWord::new(STAGE_IDLE),
            next_probe: AtomicU64::new(0),
            jitter: UnsafeCell::new(DecorrelatedJitter::new(
                PROBE_BASE,
                PROBE_CAP,
                config.seed ^ (slot as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
            )),
        }
    }

    /// Back to IDLE (obligation discharged or recovery done). Caller holds
    /// the busy claim.
    fn reset(&self) {
        self.fp.store(FP_UNSET, Ordering::Relaxed);
        self.stale.store_with(0, Ordering::Relaxed);
        self.stage.store_with(STAGE_IDLE, Ordering::Relaxed);
        self.next_probe.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Watch slots examined per [`Sentinel::tick`] (the per-tick work bound; at
/// most the target's slot count).
pub const SLOTS_PER_TICK: usize = 8;
/// Shortest and longest SUSPECT probe spacing, in ticks.
const PROBE_BASE: u64 = 1;
const PROBE_CAP: u64 = 8;

/// Tuning for a [`Sentinel`]. The thresholds are in *examinations of the
/// slot* (one per [`Sentinel::tick`] that reaches it via the rotor), so a
/// slower tick cadence stretches every stage proportionally.
#[derive(Debug, Clone)]
#[must_use = "a config does nothing until passed to Sentinel::new"]
pub struct SentinelConfig {
    /// Stale examinations before the HELP stage runs the target's helper.
    pub help_after: u32,
    /// Stale examinations before SUSPECT (jitter-spaced probing).
    pub suspect_after: u32,
    /// Stale examinations before a DEAD declaration — the "K ticks" bound:
    /// a merely-slow slot is never declared dead before this many stale
    /// examinations.
    pub dead_after: u32,
    /// Seed for the per-slot jitter streams (deterministic schedules).
    pub seed: u64,
}

impl Default for SentinelConfig {
    fn default() -> Self {
        Self {
            help_after: 2,
            suspect_after: 4,
            dead_after: 8,
            seed: 0x5EA1_7135,
        }
    }
}

impl SentinelConfig {
    /// Sets the escalation thresholds (`help ≤ suspect ≤ dead` is
    /// enforced by raising the later ones).
    pub fn with_ladder(mut self, help_after: u32, suspect_after: u32, dead_after: u32) -> Self {
        self.help_after = help_after.max(1);
        self.suspect_after = suspect_after.max(self.help_after);
        self.dead_after = dead_after.max(self.suspect_after);
        self
    }

    /// Sets the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

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
    /// Monotonic tick clock (the unit of `next_probe`).
    clock: AtomicU64,
    config: SentinelConfig,
    stats: SentinelStats,
}

// SAFETY: all shared state is atomics except each watch's `jitter`
// UnsafeCell, which is only ever accessed by the ticker holding that
// watch's `busy` claim (CAS 0 → 1, released with a store) — one exclusive
// owner at a time. The target reference is `Sync` by trait bound.
unsafe impl<'t, S: Supervised + ?Sized> Sync for Sentinel<'t, S> {}
// SAFETY: same argument; nothing is thread-affine.
unsafe impl<'t, S: Supervised + ?Sized> Send for Sentinel<'t, S> {}

impl<'t, S: Supervised + ?Sized> Sentinel<'t, S> {
    /// Builds a sentinel over `target` with one watch per
    /// [`Supervised::watch_slots`] slot.
    pub fn new(target: &'t S, config: SentinelConfig) -> Self {
        let n = target.watch_slots();
        Self {
            watches: (0..n).map(|i| Watch::new(&config, i)).collect(),
            rotor: CachePadded::new(AtomicWord::new(0)),
            clock: AtomicU64::new(0),
            config,
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
            STAGE_HELP => Stage::Help,
            STAGE_SUSPECT => Stage::Suspect,
            _ => Stage::Dead,
        }
    }

    /// One supervision step: examines up to
    /// [`SLOTS_PER_TICK`] watch slots starting at the
    /// rotor cursor, advancing each obligated-but-stale slot one rung up
    /// the escalation ladder. O(bounded); never blocks; reentrant.
    pub fn tick(&self) {
        let n = self.watches.len();
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        SentinelStats::bump(&self.stats.ticks);
        if n == 0 {
            return;
        }
        let budget = SLOTS_PER_TICK.min(n);
        let start = self.rotor.faa_with(budget as isize, Ordering::Relaxed);
        for k in 0..budget {
            self.examine((start + k) % n, now);
        }
    }

    fn examine(&self, idx: usize, now: u64) {
        let w = &self.watches[idx];
        // Claim the watch; a concurrent ticker owns it — skip, bounded.
        if !w.busy.cas_with(0, 1, Ordering::Acquire, Ordering::Relaxed) {
            return;
        }
        self.examine_claimed(idx, w, now);
        w.busy.store_with(0, Ordering::Release);
    }

    fn examine_claimed(&self, idx: usize, w: &Watch, now: u64) {
        let stage = w.stage.load_with(Ordering::Relaxed);
        if stage == STAGE_SUSPECT && now < w.next_probe.load(Ordering::Relaxed) {
            // Jitter spacing: a suspected slot is probed on its own
            // decorrelated schedule, not every tick.
            return;
        }
        SentinelStats::bump(&self.stats.probes);
        if !self.target.obligated(idx) {
            if stage >= STAGE_SUSPECT {
                SentinelStats::bump(&self.stats.exonerated);
            }
            w.reset();
            return;
        }
        let fp = self.target.fingerprint(idx);
        if fp != w.fp.load(Ordering::Relaxed) {
            // Progress: restart the ladder at OBSERVE.
            if stage >= STAGE_SUSPECT {
                SentinelStats::bump(&self.stats.exonerated);
            }
            w.fp.store(fp, Ordering::Relaxed);
            w.stale.store_with(0, Ordering::Relaxed);
            w.stage.store_with(STAGE_OBSERVE, Ordering::Relaxed);
            return;
        }
        let stale = w.stale.load_with(Ordering::Relaxed) + 1;
        w.stale.store_with(stale, Ordering::Relaxed);
        let stale = stale as u32;
        if stale >= self.config.dead_after {
            w.stage.store_with(STAGE_DEAD, Ordering::Relaxed);
            SentinelStats::bump(&self.stats.declared_dead);
            if self.target.declare_dead(idx) {
                SentinelStats::bump(&self.stats.dead_recovered);
                w.reset();
            } else {
                // Not provably a corpse (the target refused): drop back to
                // SUSPECT and keep probing on the jitter schedule.
                w.stage.store_with(STAGE_SUSPECT, Ordering::Relaxed);
                self.schedule_probe(w, now);
            }
        } else if stale >= self.config.suspect_after {
            if stage < STAGE_SUSPECT {
                SentinelStats::bump(&self.stats.suspects);
            }
            w.stage.store_with(STAGE_SUSPECT, Ordering::Relaxed);
            self.schedule_probe(w, now);
        } else if stale >= self.config.help_after {
            w.stage.store_with(STAGE_HELP, Ordering::Relaxed);
            if self.target.help(idx) {
                SentinelStats::bump(&self.stats.helps);
                w.reset();
            }
        } else {
            w.stage.store_with(STAGE_OBSERVE, Ordering::Relaxed);
        }
    }

    fn schedule_probe(&self, w: &Watch, now: u64) {
        // SAFETY: caller holds the watch's busy claim (see `Sync` impl).
        let delay = unsafe { (*w.jitter.get()).next_delay() };
        w.next_probe.store(now + delay, Ordering::Relaxed);
    }
}

impl<'t, S: Supervised + ?Sized> core::fmt::Debug for Sentinel<'t, S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Sentinel")
            .field("watch_slots", &self.watches.len())
            .field("ticks", &self.clock.load(Ordering::Relaxed))
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
        let s = Sentinel::new(&d, SentinelConfig::default());
        for _ in 0..100 {
            s.tick();
        }
        let snap = s.stats();
        assert_eq!(snap.ticks, 100);
        assert_eq!(snap.helps, 0);
        assert_eq!(snap.suspects, 0);
        assert_eq!(snap.declared_dead, 0);
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
        let s = Sentinel::new(&d, SentinelConfig::default());
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
        // A registered handle sitting mid-operation (odd epoch via an
        // in-flight guard is hard to fake here, so use the announcement
        // bit path: no announcement, slot TAKEN and un-obligated) must
        // never be seized no matter how long it stalls.
        let d = WfrcDomain::<u64>::new(DomainConfig::new(2, 32));
        let h = d.register().unwrap();
        let s = Sentinel::new(&d, SentinelConfig::default().with_ladder(1, 2, 3));
        for _ in 0..200 {
            s.tick();
        }
        // The slot is TAKEN but holds no obligation: the ladder stays idle.
        assert_eq!(s.stats().declared_dead, 0);
        assert_eq!(d.registered_threads(), 1);
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
        let s = Sentinel::new(&d, SentinelConfig::default());
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
