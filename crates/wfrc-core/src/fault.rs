//! Deterministic fault injection at the linearization-critical steps.
//!
//! The paper's proofs reason about adversarial schedules: a thread that
//! stalls *between* its announcement store (D3) and the speculative FAA
//! (D5), a helper whose answer CAS (H6) is arbitrarily delayed, an
//! allocator that dies holding a whole stolen stripe. Normal testing never
//! produces those interleavings on purpose. This module makes them
//! reproducible: a [`FaultPlan`] arms named [`FaultSite`]s — one per step
//! the §4 proofs single out — with a deterministic firing rule and one of
//! four [`FaultAction`]s:
//!
//! * **`Stall(steps)`** — a bounded stall: spin/yield for `steps` steps and
//!   continue. Models preemption at the worst instant.
//! * **`Park`** — an unbounded stall: the thread blocks inside the
//!   operation until the harness calls [`FaultPlan::release`] (or
//!   [`FaultPlan::disarm`]). Models the paper's "crashed or delayed
//!   arbitrarily long" adversary while keeping the thread recoverable.
//! * **`Die`** — simulated thread death: the site panics with an
//!   [`InjectedDeath`] payload. The library's unwind paths are panic-safe
//!   (see below), the dying thread's [`crate::ThreadHandle`] marks its slot
//!   *orphaned* instead of unregistering, and
//!   [`crate::WfrcDomain::adopt_orphans`] later reclaims everything the
//!   corpse held.
//! * **`Swing`** — not a fault but a schedule: the fast dereference
//!   attempt's re-check fails as if a writer had swung the link between its
//!   two loads, so the dereference takes the paper's D1–D10. Scenarios arm
//!   it on a victim to make the announcement sites reachable on purpose.
//!
//! ## Why `Die` is recoverable at every site
//!
//! A site either holds no protocol resource when it fires (announcement
//! published but no count taken yet; helper pinned via an RAII busy guard
//! that unpins on unwind), or the hook runs with a *completion* cleanup:
//! the injection wrapper catches the injected panic, finishes the
//! obligation the paper's protocol requires (complete the release, push the
//! stolen stripe chain back, seed the grown segment), and resumes the
//! unwind. Thread death therefore only ever strands resources that
//! adoption can enumerate: the orphan's announcement slots, its `annAlloc`
//! gift, and its magazine.
//!
//! Injection is inert while the current thread is already panicking (a
//! dying thread's guard drops must not double-panic into an abort) and
//! after the thread has died once (the `DYING` thread-local), so exactly
//! one death is injected per victim thread.
//!
//! All of this is feature-gated behind `fault-injection`; default builds
//! compile the hooks to nothing.

use core::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once};

use wfrc_sim::rng::SmallRng;

use crate::counters::OpCounters;

/// The named injection sites — one per linearization-critical step of the
/// scheme (plus the growth/magazine extensions of PR 1/2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Between the announcement publish (D3) and the link read (D4): the
    /// announcement is live, no count is taken yet.
    AnnouncePublish,
    /// Between the link read (D4) and the speculative `FAA(+2)` (D5): the
    /// window the helping protocol exists to cover.
    DerefFaa,
    /// In `HelpDeRef`, after the busy pin (H4) and before the helper's own
    /// dereference (H5) and answer CAS (H6).
    HelperCas,
    /// At the top of `ReleaseRef`, before the `FAA(−2)` (R1). `Die` here
    /// completes the release on the unwind path — a count, once owed, is
    /// always returned.
    ReleaseFaa,
    /// In the magazine refill, immediately after the whole-stripe
    /// `SWAP(head, ⊥)`: the victim holds the entire stolen chain. `Die`
    /// pushes the chain back before unwinding.
    StripeSwap,
    /// At the entry of the magazine refill, before any stripe is touched.
    MagazineRefill,
    /// In the magazine overflow drain (`FreeNode` fast path), before the
    /// half-magazine batch is taken. `Die` completes the push of the node
    /// being freed so it cannot strand outside every structure.
    MagazineDrain,
    /// Between winning `try_grow` and seeding the new segment's nodes onto
    /// the free-lists. `Die` seeds the segment before unwinding (an
    /// unseeded segment would be permanently invisible capacity).
    GrowSeed,
    /// Immediately after the retracting SWAP (D6): the slot is empty, the
    /// counts the dereference took are still held, and the thread's
    /// announcement-presence bit is up (it stays up for the registration —
    /// only handle drop and adoption lower it). `Die` here is the
    /// bit-over-an-empty-row proof obligation — the completion returns the
    /// counts, helpers read the row and match nothing, and adoption lowers
    /// the corpse's bit.
    SummaryClear,
    /// In `AllocNode`'s slow path, right after the thread raised its
    /// `alloc_need` bit and before the A3–A18 loop: the victim holds no
    /// node, but helpers now owe it one. `Die` here leaves the bit up over
    /// a corpse; adoption must lower it and collect any gift parked for
    /// it, or the audit reports the bit and later frees keep gifting to a
    /// dead slot.
    AllocNeed,
    /// In the segment-reclaim protocol, immediately after the reclaimer's
    /// `LIVE → DRAINING` claim and before the node sweep. `Die` here leaves
    /// the segment DRAINING with the reclaimer's identity recorded in the
    /// shared reclaim control word — `adopt_orphans` reopens the segment
    /// (parked nodes pushed back, `DRAINING → LIVE`), after which a fresh
    /// `reclaim()` call can complete the retire.
    SegmentRetire,
    /// In [`crate::lease`] checkout, after the guard is built and before it
    /// is handed to the caller. `Die` here models a task that perishes the
    /// instant it owns a lease: the unwind drops the guard, which marks the
    /// slot ORPHANED, and `LeasePool::recover_orphaned` routes it back
    /// into circulation via `adopt_orphans`.
    LeaseCheckout,
    /// In `Snapshot::upgrade`, after the snapshot pin is re-confirmed and
    /// before the announcement-based dereference that mints the owned
    /// reference. The victim holds only its pin and operation epoch — no
    /// count, no announcement — so a `Die` here exercises
    /// death-mid-upgrade: the unwind drops the guard (unpinning and
    /// attempting a drain of the slot's deferred list), the panicking
    /// handle drop orphans the slot, and `adopt_orphans` must recover a
    /// corpse that may leave a non-empty deferred list behind.
    SnapshotUpgrade,
    /// In the weak-upgrade path (`Weak::upgrade` / `load_weak`), between
    /// acquiring the candidate reference and the claim-bit validation that
    /// decides success. In `load_weak` the victim holds an
    /// announcement-covered speculative count on a possibly-DEAD header;
    /// `Die` must release it on the unwind path (the completion does) or
    /// the header could never finalize. In `Weak::upgrade` the victim
    /// holds nothing yet, so a `Die` is a clean abort.
    WeakUpgrade,
    /// In the fast dereference attempt (`rc::try_deref_once`), between its
    /// link load and its speculative `FAA(+2)`: the same window as
    /// `DerefFaa`, before any announcement. The victim holds nothing, so
    /// `Die` needs no completion. [`FaultAction::Swing`] armed here fails
    /// the attempt's re-check, sending the dereference to D1–D10 (the
    /// lock-free baseline, whose loop is this attempt, retries once).
    DerefFast,
}

impl FaultSite {
    /// Every registered site: protocol order, later sites appended (sweeps
    /// seed by position and the `Chance` rule by discriminant, so appending
    /// keeps every earlier site's schedule).
    pub const ALL: [FaultSite; 15] = [
        FaultSite::AnnouncePublish,
        FaultSite::DerefFaa,
        FaultSite::HelperCas,
        FaultSite::ReleaseFaa,
        FaultSite::StripeSwap,
        FaultSite::MagazineRefill,
        FaultSite::MagazineDrain,
        FaultSite::GrowSeed,
        FaultSite::SummaryClear,
        FaultSite::AllocNeed,
        FaultSite::SegmentRetire,
        FaultSite::LeaseCheckout,
        FaultSite::SnapshotUpgrade,
        FaultSite::WeakUpgrade,
        FaultSite::DerefFast,
    ];

    /// Stable display name (used by the chaos driver's report).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::AnnouncePublish => "announce_publish",
            FaultSite::DerefFaa => "deref_faa",
            FaultSite::HelperCas => "helper_cas",
            FaultSite::ReleaseFaa => "release_faa",
            FaultSite::StripeSwap => "stripe_swap",
            FaultSite::MagazineRefill => "magazine_refill",
            FaultSite::MagazineDrain => "magazine_drain",
            FaultSite::GrowSeed => "grow_seed",
            FaultSite::SummaryClear => "summary_clear",
            FaultSite::AllocNeed => "alloc_need",
            FaultSite::SegmentRetire => "segment_retire",
            FaultSite::LeaseCheckout => "lease_checkout",
            FaultSite::SnapshotUpgrade => "snapshot_upgrade",
            FaultSite::WeakUpgrade => "weak_upgrade",
            FaultSite::DerefFast => "deref_fast",
        }
    }

    #[inline]
    fn index(self) -> u64 {
        self as u64
    }
}

/// What an armed site does when its rule fires.
#[derive(Debug, Clone, Copy)]
pub enum FaultAction {
    /// Bounded stall: spin/yield for this many steps, then continue.
    Stall(u32),
    /// Unbounded stall: park inside the operation until
    /// [`FaultPlan::release`] / [`FaultPlan::disarm`].
    Park,
    /// Simulated thread death: panic with an [`InjectedDeath`] payload.
    Die,
    /// Fails the fast dereference attempt's re-check, as a writer swinging
    /// the link between the attempt's two loads would — a reachable
    /// interleaving, not a fault: it is not counted by
    /// [`FaultPlan::injected`]. Meaningful only at [`FaultSite::DerefFast`]
    /// (elsewhere it does nothing). A harness arms it on a thread with
    /// [`FireRule::EveryNth`]`(1)` so that every dereference of that
    /// thread takes the announcement path D1–D10.
    Swing,
}

/// When an armed site fires, as a function of its per-arm hit count `n`
/// (1-based).
#[derive(Debug, Clone, Copy)]
pub enum FireRule {
    /// Fire exactly once, on the `n`-th hit.
    Nth(u64),
    /// Fire on every `n`-th hit.
    EveryNth(u64),
    /// Fire with probability `p` per hit, decided by a pure function of
    /// `(plan seed, site, hit count)` — deterministic for a fixed seed, no
    /// shared RNG state.
    Chance(f64),
}

/// The panic payload of a [`FaultAction::Die`] injection. Harnesses
/// downcast a joined thread's panic payload to this to distinguish an
/// injected death from a real bug.
#[derive(Debug)]
pub struct InjectedDeath {
    /// The site the victim died at.
    pub site: FaultSite,
}

struct Arm {
    site: FaultSite,
    victim: Option<usize>,
    action: FaultAction,
    rule: FireRule,
    hits: u64,
}

/// A seeded, shareable fault schedule. Install one with
/// [`crate::WfrcDomain::set_fault_plan`] (or the LFRC equivalent), arm
/// sites, run the workload, and observe [`FaultPlan::injected`] /
/// [`FaultPlan::parked`].
///
/// Arming is interior-mutable (`&self`) so a harness can re-arm between
/// chaos rounds without rebuilding the domain.
pub struct FaultPlan {
    seed: u64,
    arms: Mutex<Vec<Arm>>,
    enabled: AtomicBool,
    injected: AtomicU64,
    parked: AtomicU64,
    release_epoch: AtomicU64,
    /// Set by the first fired fault: the repro banner (seed + env line)
    /// prints exactly once per plan.
    announced: AtomicBool,
}

/// Parses a `WFRC_FAULT_SEED` value: decimal or `0x`-prefixed hex.
fn parse_seed(v: &str) -> Option<u64> {
    let v = v.trim();
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

/// The process-wide seed override, if `WFRC_FAULT_SEED` is set and parses.
fn env_seed() -> Option<u64> {
    let v = std::env::var("WFRC_FAULT_SEED").ok()?;
    let parsed = parse_seed(&v);
    if parsed.is_none() {
        eprintln!("wfrc: ignoring unparseable WFRC_FAULT_SEED={v:?} (want u64, decimal or 0x-hex)");
    }
    parsed
}

thread_local! {
    /// Set just before an injected death's panic: this thread is a corpse
    /// and must never be re-injected (its unwind path runs real protocol
    /// cleanups through the same instrumented code).
    static DYING: Cell<bool> = const { Cell::new(false) };

    /// Set while this thread runs the recovery path (see [`shielded`]).
    static SHIELDED: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with injection suppressed on the calling thread.
///
/// The adopters ([`crate::WfrcDomain::adopt_orphans`] and the LFRC
/// equivalent) run shielded: they execute protocol operations *on behalf
/// of* a dead thread's id, so the dead tid's still-armed rules would
/// otherwise fire inside its own recovery — a fault model with no floor,
/// since every recovery attempt could be killed forever. The model is
/// "threads die, the recovery path is correct code".
pub fn shielded<R>(f: impl FnOnce() -> R) -> R {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            SHIELDED.with(|s| s.set(false));
        }
    }
    SHIELDED.with(|s| s.set(true));
    let _reset = Reset;
    f()
}

impl FaultPlan {
    /// Creates an empty plan. `seed` drives every [`FireRule::Chance`]
    /// decision; two runs with the same seed, arms, and schedule of hits
    /// make identical injection decisions.
    ///
    /// A `WFRC_FAULT_SEED` environment variable (decimal or `0x`-hex)
    /// overrides `seed` — the replay knob for a failing chaos run: the
    /// first fault a plan fires prints the effective seed and this exact
    /// override line.
    pub fn new(seed: u64) -> Self {
        Self {
            seed: env_seed().unwrap_or(seed),
            arms: Mutex::new(Vec::new()),
            enabled: AtomicBool::new(true),
            injected: AtomicU64::new(0),
            parked: AtomicU64::new(0),
            release_epoch: AtomicU64::new(0),
            announced: AtomicBool::new(false),
        }
    }

    /// The effective seed (after any `WFRC_FAULT_SEED` override). Harness
    /// output should echo this so a failure is replayable.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn arms(&self) -> std::sync::MutexGuard<'_, Vec<Arm>> {
        // The lock scope never panics, but a harness thread may die between
        // rounds while arming: tolerate poison rather than cascade.
        self.arms.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Arms `site` for every thread.
    pub fn arm(&self, site: FaultSite, action: FaultAction, rule: FireRule) {
        self.arm_for(None, site, action, rule);
    }

    /// Arms `site` for hits by thread `victim` only.
    pub fn arm_victim(&self, victim: usize, site: FaultSite, action: FaultAction, rule: FireRule) {
        self.arm_for(Some(victim), site, action, rule);
    }

    fn arm_for(&self, victim: Option<usize>, site: FaultSite, action: FaultAction, rule: FireRule) {
        self.arms().push(Arm {
            site,
            victim,
            action,
            rule,
            hits: 0,
        });
    }

    /// Arms [`FaultAction::Swing`] at [`FaultSite::DerefFast`] on every
    /// hit by `victim`: each of its dereferences misses the fast attempt
    /// and takes D1–D10, so the announcement sites are reachable on
    /// purpose. Rules are consulted in arming order and the first that
    /// fires wins, so arm any other `DerefFast` rule for `victim` first.
    pub fn swing_every_deref(&self, victim: usize) {
        self.arm_victim(
            victim,
            FaultSite::DerefFast,
            FaultAction::Swing,
            FireRule::EveryNth(1),
        );
    }

    /// Removes every arm (hit counters included). Parked threads stay
    /// parked; pair with [`FaultPlan::release`] between chaos rounds.
    pub fn clear_arms(&self) {
        self.arms().clear();
    }

    /// Total faults injected (stalls + parks + deaths) since construction.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Number of threads currently parked at a [`FaultAction::Park`] site.
    pub fn parked(&self) -> u64 {
        self.parked.load(Ordering::SeqCst)
    }

    /// Releases every currently parked thread (they resume their
    /// operation). Threads parking *after* this call park against the new
    /// epoch and need another `release`.
    pub fn release(&self) {
        self.release_epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Disables all injection and releases parked threads — the terminal
    /// "chaos over" switch.
    pub fn disarm(&self) {
        self.enabled.store(false, Ordering::SeqCst);
        self.release();
    }

    /// Re-enables injection after [`FaultPlan::disarm`].
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::SeqCst);
    }

    /// [`FaultPlan::hit`] with a *completion* obligation: if the hook
    /// injects a death, `complete` runs (finishing the protocol step the
    /// site interrupted — e.g. pushing a stolen chain back) before the
    /// unwind resumes.
    pub fn hit_or(&self, site: FaultSite, tid: usize, c: &OpCounters, complete: impl FnOnce()) {
        if let Err(payload) =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.hit(site, tid, c)))
        {
            complete();
            std::panic::resume_unwind(payload);
        }
    }

    /// The injection hook: called by the instrumented sites with the
    /// current thread id. Decides per the armed rules and executes the
    /// action. Inert when disabled, when the thread is unwinding, or when
    /// this thread already died once.
    ///
    /// Returns true when the fired action is [`FaultAction::Swing`]: the
    /// caller's next re-check is to fail.
    pub fn hit(&self, site: FaultSite, tid: usize, c: &OpCounters) -> bool {
        if !self.enabled.load(Ordering::Relaxed) {
            return false;
        }
        if std::thread::panicking() || DYING.with(|d| d.get()) || SHIELDED.with(|s| s.get()) {
            return false;
        }
        let Some(action) = self.decide(site, tid) else {
            return false;
        };
        if let FaultAction::Swing = action {
            return true;
        }
        // Failing-seed reproducibility: the first fault fired in this
        // process prints the effective seed and the exact env override that
        // replays its schedule. Per-process (not per-plan) so a many-round
        // chaos soak emits one banner, not thousands; round-level harnesses
        // echo their own per-round seeds in failure messages.
        static ANNOUNCED: AtomicBool = AtomicBool::new(false);
        if !self.announced.swap(true, Ordering::SeqCst) && !ANNOUNCED.swap(true, Ordering::SeqCst) {
            eprintln!(
                "wfrc fault injection: first fault fired at site `{}` (tid {tid}, {action:?}); \
                 seed {seed:#x}\n  reproduce with: WFRC_FAULT_SEED={seed:#x} \
                 cargo test --features fault-injection <test> -- --nocapture",
                site.name(),
                seed = self.seed,
            );
        }
        self.injected.fetch_add(1, Ordering::SeqCst);
        OpCounters::bump(&c.faults_injected);
        match action {
            FaultAction::Stall(steps) => {
                for i in 0..steps {
                    core::hint::spin_loop();
                    if i % 64 == 0 {
                        std::thread::yield_now();
                    }
                }
            }
            FaultAction::Park => self.park(),
            FaultAction::Die => {
                DYING.with(|d| d.set(true));
                std::panic::panic_any(InjectedDeath { site });
            }
            FaultAction::Swing => unreachable!("returned above"),
        }
        false
    }

    fn decide(&self, site: FaultSite, tid: usize) -> Option<FaultAction> {
        let mut arms = self.arms();
        for arm in arms.iter_mut() {
            if arm.site != site || arm.victim.is_some_and(|v| v != tid) {
                continue;
            }
            arm.hits += 1;
            let n = arm.hits;
            let fires = match arm.rule {
                FireRule::Nth(k) => n == k,
                FireRule::EveryNth(k) => k != 0 && n % k == 0,
                FireRule::Chance(p) => {
                    // Stateless determinism: the decision is a pure function
                    // of (seed, site, hit ordinal), so concurrent hits on
                    // other sites cannot perturb it.
                    let mix = self.seed
                        ^ (site.index().wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ n.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
                    SmallRng::seed_from_u64(mix).gen_bool(p)
                }
            };
            if fires {
                return Some(arm.action);
            }
        }
        None
    }

    fn park(&self) {
        let epoch = self.release_epoch.load(Ordering::SeqCst);
        self.parked.fetch_add(1, Ordering::SeqCst);
        while self.enabled.load(Ordering::SeqCst)
            && self.release_epoch.load(Ordering::SeqCst) == epoch
        {
            std::thread::yield_now();
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }
}

impl core::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("arms", &self.arms().len())
            .field("injected", &self.injected())
            .field("parked", &self.parked())
            .finish()
    }
}

/// Installs a process-wide panic hook that suppresses the default
/// "thread panicked" report for [`InjectedDeath`] panics (they are
/// expected, by the hundreds, in chaos runs) while forwarding everything
/// else to the previous hook. Idempotent.
pub fn silence_injected_deaths() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedDeath>().is_none() {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn nth_fires_exactly_once() {
        let plan = FaultPlan::new(1);
        plan.arm(FaultSite::DerefFaa, FaultAction::Stall(1), FireRule::Nth(3));
        let c = OpCounters::new();
        for _ in 0..10 {
            plan.hit(FaultSite::DerefFaa, 0, &c);
        }
        assert_eq!(plan.injected(), 1);
        assert_eq!(c.snapshot().faults_injected, 1);
    }

    #[test]
    fn every_nth_fires_periodically() {
        let plan = FaultPlan::new(1);
        plan.arm(
            FaultSite::ReleaseFaa,
            FaultAction::Stall(1),
            FireRule::EveryNth(4),
        );
        let c = OpCounters::new();
        for _ in 0..12 {
            plan.hit(FaultSite::ReleaseFaa, 0, &c);
        }
        assert_eq!(plan.injected(), 3);
    }

    #[test]
    fn victim_filter_and_site_filter() {
        let plan = FaultPlan::new(1);
        plan.arm_victim(
            2,
            FaultSite::HelperCas,
            FaultAction::Stall(1),
            FireRule::Nth(1),
        );
        let c = OpCounters::new();
        plan.hit(FaultSite::HelperCas, 0, &c); // wrong tid
        plan.hit(FaultSite::DerefFaa, 2, &c); // wrong site
        assert_eq!(plan.injected(), 0);
        plan.hit(FaultSite::HelperCas, 2, &c);
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn chance_is_deterministic_for_a_seed() {
        let decide = |seed: u64| {
            let plan = FaultPlan::new(seed);
            plan.arm(
                FaultSite::StripeSwap,
                FaultAction::Stall(1),
                FireRule::Chance(0.5),
            );
            let c = OpCounters::new();
            for _ in 0..64 {
                plan.hit(FaultSite::StripeSwap, 0, &c);
            }
            plan.injected()
        };
        assert_eq!(decide(42), decide(42));
        // Sanity: a fair coin over 64 trials lands strictly inside (0, 64).
        let n = decide(42);
        assert!(n > 0 && n < 64, "implausible Chance(0.5) count: {n}");
    }

    #[test]
    fn park_blocks_until_release() {
        let plan = Arc::new(FaultPlan::new(7));
        plan.arm(
            FaultSite::AnnouncePublish,
            FaultAction::Park,
            FireRule::Nth(1),
        );
        let p = Arc::clone(&plan);
        let t = std::thread::spawn(move || {
            let c = OpCounters::new();
            p.hit(FaultSite::AnnouncePublish, 0, &c);
            true
        });
        while plan.parked() == 0 {
            std::thread::yield_now();
        }
        assert_eq!(plan.injected(), 1);
        plan.release();
        assert!(t.join().unwrap());
        assert_eq!(plan.parked(), 0);
    }

    #[test]
    fn die_panics_with_payload_and_thread_stays_dead() {
        silence_injected_deaths();
        let plan = Arc::new(FaultPlan::new(9));
        plan.arm(FaultSite::GrowSeed, FaultAction::Die, FireRule::Nth(1));
        let p = Arc::clone(&plan);
        let err = std::thread::spawn(move || {
            let c = OpCounters::new();
            p.hit(FaultSite::GrowSeed, 0, &c);
        })
        .join()
        .unwrap_err();
        let death = err
            .downcast_ref::<InjectedDeath>()
            .expect("injected payload");
        assert_eq!(death.site, FaultSite::GrowSeed);
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn seed_parse_accepts_decimal_and_hex() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed(" 0xdeadbeef "), Some(0xDEAD_BEEF));
        assert_eq!(parse_seed("0XFF"), Some(255));
        assert_eq!(parse_seed("not-a-seed"), None);
    }

    #[test]
    fn plan_reports_its_seed() {
        // No WFRC_FAULT_SEED in the test environment: the constructor seed
        // is the effective seed.
        if std::env::var("WFRC_FAULT_SEED").is_err() {
            assert_eq!(FaultPlan::new(0xABCD).seed(), 0xABCD);
        }
    }

    #[test]
    fn disarm_silences_everything() {
        let plan = FaultPlan::new(3);
        plan.arm(FaultSite::DerefFaa, FaultAction::Die, FireRule::Nth(1));
        plan.disarm();
        let c = OpCounters::new();
        plan.hit(FaultSite::DerefFaa, 0, &c); // would panic if armed
        assert_eq!(plan.injected(), 0);
        plan.enable();
        plan.clear_arms();
        plan.hit(FaultSite::DerefFaa, 0, &c);
        assert_eq!(plan.injected(), 0);
    }
}
