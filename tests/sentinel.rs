//! Sentinel supervision: autonomous stall detection and self-healing
//! recovery (DESIGN.md §7).
//!
//! The non-gated tests cover the always-on surfaces: lease recovery with
//! zero manual `recover_orphaned`/`adopt_orphans` calls, idempotency of the
//! recovery entry points under concurrent callers racing sentinel ticks,
//! a slow lease holder that keeps its slot, and POISONED segment
//! quarantine. The `fault-injection`-gated half drives Stall/Park/Die at
//! every armed site and asserts the escalation ladder's two
//! safety/liveness halves: a parked-then-resumed thread is never seized,
//! and a genuine death is always adopted within a bounded number of ticks.

use std::time::Duration;

use wfrc::core::lease::{LeaseConfig, LeasePool};
use wfrc::core::sentinel::HELP_AFTER;
use wfrc::core::{DomainConfig, Growth, Sentinel, WfrcDomain};

mod common;

/// Checks a lease out, stores `value` through it, and dies holding it: the
/// task panics (without the panic hook's message) and the guard unwinds,
/// orphaning the slot the way a crashed task's does.
fn die_holding_lease(pool: &LeasePool<'_, WfrcDomain<u64>>, value: u64) {
    let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let lease = pool.acquire();
        drop(lease.alloc_with(|v| *v = value).expect("alloc"));
        std::panic::resume_unwind(Box::new("the task dies holding its lease"));
    }));
    assert!(died.is_err());
}

/// A lease whose holder died is healed by sentinel ticks alone.
#[test]
fn sentinel_recovers_a_forgotten_lease() {
    let domain = WfrcDomain::<u64>::new(DomainConfig::new(2, 64).with_magazine(4));
    let pool = LeasePool::new(&domain, LeaseConfig::new(2)).expect("pool fits domain");
    die_holding_lease(&pool, 7);

    let sentinel = Sentinel::new(&pool);
    let mut ticks = 0u32;
    while pool.stats().recovered == 0 {
        sentinel.tick();
        ticks += 1;
        assert!(ticks < 10_000, "sentinel never recovered the dead lease");
    }
    let snap = pool.stats();
    assert_eq!(
        snap.panic_orphans, 1,
        "the dead slot is orphaned exactly once"
    );
    assert_eq!(snap.recovered, 1);
    assert!(
        sentinel.stats().helps >= 1,
        "an orphaned lease heals at the HELP rung"
    );

    // Full capacity is back: both slots check out concurrently.
    let (a, b) = (pool.acquire(), pool.acquire());
    drop((a, b));
    drop(pool);
    assert!(domain.leak_check().is_clean());
}

/// `recover_orphaned` and `adopt_orphans` stay safe and idempotent when
/// many callers race each other *and* sentinel ticks — every dead lease is
/// orphaned exactly once and recovered exactly once, no matter who gets
/// there first.
#[test]
fn concurrent_expiry_adoption_and_ticks_recover_each_lease_once() {
    const SLOTS: usize = 4;
    const ROUNDS: usize = 25;
    let domain = WfrcDomain::<u64>::new(DomainConfig::new(SLOTS, 128).with_magazine(4));
    let pool = LeasePool::new(&domain, LeaseConfig::new(SLOTS)).expect("pool fits domain");
    let sentinel = Sentinel::new(&pool);

    for round in 0..ROUNDS {
        let before = pool.stats();
        // Kill every holder: all SLOTS leases are orphaned.
        for _ in 0..SLOTS {
            die_holding_lease(&pool, round as u64);
        }
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..200 {
                        let _ = pool.recover_orphaned();
                        std::thread::yield_now();
                    }
                });
                s.spawn(|| {
                    for _ in 0..200 {
                        let _ = domain.adopt_orphans();
                        std::thread::yield_now();
                    }
                });
                s.spawn(|| {
                    for _ in 0..400 {
                        sentinel.tick();
                        std::thread::yield_now();
                    }
                });
            }
        });
        // Whoever won each slot's race, the books balance exactly.
        let mut spins = 0;
        loop {
            let snap = pool.stats();
            if snap.recovered == before.recovered + SLOTS as u64 {
                assert_eq!(
                    snap.panic_orphans,
                    before.panic_orphans + SLOTS as u64,
                    "round {round}: each dead lease is orphaned exactly once"
                );
                break;
            }
            // Tolerate transient RegistryFull recover failures: the next
            // pass retries the parked ORPHANED slot.
            let _ = pool.recover_orphaned();
            spins += 1;
            assert!(spins < 10_000, "round {round}: recovery never converged");
            std::thread::yield_now();
        }
        // Full capacity restored before the next round.
        let guards: Vec<_> = (0..SLOTS).map(|_| pool.acquire()).collect();
        drop(guards);
    }
    drop(sentinel);
    drop(pool);
    assert!(domain.leak_check().is_clean());
}

/// A holder that sleeps inside its session for 300 ms — longer than any
/// lease deadline E12 ever used — keeps its slot while another thread
/// loops `recover_orphaned` and sentinel ticks: the slot's generation does
/// not move, nothing is recovered, and the holder's next op reads its own
/// write.
#[test]
fn slow_holder_keeps_its_slot() {
    let domain = WfrcDomain::<u64>::new(DomainConfig::new(2, 64));
    let pool = LeasePool::new(&domain, LeaseConfig::new(1)).expect("pool fits domain");
    let sentinel = Sentinel::new(&pool);
    let link = wfrc::core::Link::<u64>::null();
    let done = std::sync::atomic::AtomicBool::new(false);
    let fingerprint =
        |p: &LeasePool<'_, WfrcDomain<u64>>| wfrc::core::Supervised::fingerprint(p, 0);
    std::thread::scope(|s| {
        let lease = pool.acquire();
        let node = lease.alloc_with(|v| *v = 42).expect("alloc");
        lease.store(&link, Some(&node));
        drop(node);
        let word = fingerprint(&pool);
        let meddler = s.spawn(|| {
            let mut passes = 0u64;
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                assert_eq!(pool.recover_orphaned().recovered, 0);
                sentinel.tick();
                passes += 1;
                std::thread::yield_now();
            }
            passes
        });
        std::thread::sleep(Duration::from_millis(300));
        // Observe, stop the meddler, then assert: a failed assertion must
        // not leave the scope joining a thread that never stops.
        let seen = (fingerprint(&pool), lease.deref(&link).map(|g| *g));
        lease.store(&link, None);
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        let passes = meddler.join().unwrap();
        assert_eq!(seen, (word, Some(42)), "the slot changed hands");
        assert!(passes > HELP_AFTER as u64);
    });
    assert_eq!(pool.stats().recovered, 0);
    assert_eq!(sentinel.stats().helps, 0);
    drop(sentinel);
    drop(pool);
    assert!(domain.leak_check().is_clean());
}

/// A segment that repeatedly audits anomalous after adoption is
/// quarantined POISONED: excluded from `try_grow` revival (allocation
/// degrades to the remaining capacity) and reported by the leak audit
/// without counting as a leak.
#[test]
fn poisoned_segment_is_quarantined_from_revival() {
    let domain =
        WfrcDomain::<u64>::new(DomainConfig::new(2, 16).with_growth(Growth::doubling_to(64)));
    let h = domain.register().unwrap();
    // Grow past the floor, then drain and retire the grown segments.
    let pile: Vec<_> = (0..40)
        .map(|i| h.alloc_with(|v| *v = i).expect("growth covers this"))
        .collect();
    assert!(domain.capacity() > 16);
    drop(pile);
    while !matches!(h.reclaim(), wfrc::core::ReclaimOutcome::NoCandidate) {}
    assert!(domain.segments_retired() >= 1);

    // Three strikes against the retired segment poison it.
    assert!(!domain.debug_strike_segment(1));
    assert!(!domain.debug_strike_segment(1));
    assert!(domain.debug_strike_segment(1));
    assert_eq!(domain.segments_poisoned(), 1);

    // Revival is refused: the domain is capped at the floor. Most of the
    // floor still allocates, but the refill that previously grew to 40
    // live nodes now stalls at the floor — growth through the quarantined
    // slot is refused.
    let refill: Vec<_> = (0..40)
        .filter_map(|i| h.alloc_with(|v| *v = i).ok())
        .collect();
    assert!(refill.len() >= 14, "the unpoisoned floor still serves");
    assert!(
        refill.len() <= 16,
        "growth through a POISONED slot must be refused (got {} nodes)",
        refill.len()
    );
    assert_eq!(domain.capacity(), 16, "capacity stays at the floor");
    drop(refill);

    let report = domain.leak_check();
    assert_eq!(report.segments_poisoned, 1);
    assert!(
        report.is_clean(),
        "quarantine is degraded capacity, not a leak: {report}"
    );
}

/// A registered reader that has announced and now idles keeps its
/// announcement-presence bit up for the rest of its registration. The
/// ladder reads the announcement *slot*, so the bit alone is no obligation:
/// the reader stays `Idle` however long it sits.
#[test]
fn idle_reader_never_climbs_the_ladder() {
    let domain = WfrcDomain::<u64>::new(DomainConfig::new(2, 16));
    let reader = domain.register().unwrap();
    let link = wfrc::core::Link::<u64>::null();
    {
        let seed = reader.alloc_with(|v| *v = 3).unwrap();
        reader.store(&link, Some(&seed));
    }
    common::raise_presence_bit(&domain, &reader, &link, 3);
    assert!(domain.announcement_summary_bit(reader.tid()));

    let ticks = HELP_AFTER + 1;
    let sentinel = Sentinel::new(&domain);
    for _ in 0..ticks {
        sentinel.tick();
        assert_eq!(sentinel.stage(reader.tid()), wfrc::core::Stage::Idle);
    }
    assert!(!wfrc::core::Supervised::obligated(&domain, reader.tid()));

    reader.store(&link, None);
    drop(reader);
    assert!(domain.leak_check().is_clean());
}

/// Ladder property tests: seeded Stall/Park/Die at every armed site.
#[cfg(feature = "fault-injection")]
mod ladder {
    use std::sync::Arc;

    use wfrc::core::fault::silence_injected_deaths;
    use wfrc::core::{
        DomainConfig, FaultAction, FaultPlan, FaultSite, FireRule, Growth, InjectedDeath, Link,
        Sentinel, ThreadHandle, WfrcDomain,
    };

    const LINKS: usize = 4;

    /// Generic site-reaching churn (same shape as tests/fault_injection.rs):
    /// alloc/store/deref churn with a held pile and a periodic
    /// drain+reclaim beat so the retire-path sites are reachable too.
    fn victim_loop(h: &ThreadHandle<'_, u64>, links: &[Link<u64>], plan: &FaultPlan) {
        let mut held = Vec::new();
        for i in 0..60_000usize {
            if plan.injected() > 0 {
                break;
            }
            if let Ok(g) = h.alloc_with(|v| *v = i as u64) {
                h.store(&links[i % links.len()], Some(&g));
                if held.len() < 48 {
                    held.push(g);
                }
            }
            if let Some(g) = h.deref(&links[(i + 1) % links.len()]) {
                std::hint::black_box(*g);
            }
            if i % 3 == 2 {
                // Snapshot read + upgrade so the PR 9 `SnapshotUpgrade`
                // site is reachable mid-churn.
                let guard = h.pin();
                if let Some(snap) = guard.snapshot(&links[(i + 2) % links.len()]) {
                    std::hint::black_box(*snap);
                    drop(snap.upgrade());
                }
            }
            if i % 5 == 4 {
                held.pop();
            }
            if i % 48 == 47 {
                held.clear();
                for l in links {
                    h.store(l, None);
                }
                let _ = h.reclaim();
            }
        }
    }

    fn run_case(site: FaultSite, action: FaultAction, seed: u64) {
        let mut domain = WfrcDomain::<u64>::new(
            DomainConfig::new(2, 16)
                .with_magazine(8)
                .with_growth(Growth::doubling_to(4096)),
        );
        let plan = Arc::new(FaultPlan::new(seed));
        domain.set_fault_plan(Arc::clone(&plan));
        plan.arm_victim(0, site, action, FireRule::Nth(1));
        plan.swing_every_deref(0);
        let links: Vec<Link<u64>> = (0..LINKS).map(|_| Link::null()).collect();
        let victim = domain.register().unwrap();
        assert_eq!(victim.tid(), 0);
        // The MTTR bound below is counted in ticks against `HELP_AFTER`.
        let sentinel = Sentinel::new(&domain);

        let died = std::thread::scope(|s| {
            let (links, plan) = (&links, &plan);
            let vt = s.spawn(move || victim_loop(&victim, links, plan));
            match action {
                FaultAction::Park => {
                    // Liveness half: tick well past `HELP_AFTER` while the
                    // victim sits parked. Its registration is live (merely
                    // slow), so the ladder must never seize it.
                    let mut parked_ticks = 0;
                    while plan.parked() == 0 && plan.injected() == 0 && !vt.is_finished() {
                        std::thread::yield_now();
                    }
                    while plan.parked() > 0 && parked_ticks < 200 {
                        sentinel.tick();
                        parked_ticks += 1;
                        assert_eq!(
                            domain.orphans_adopted(),
                            0,
                            "{site:?}/Park: a parked thread was seized after \
                             {parked_ticks} ticks"
                        );
                    }
                    assert_eq!(sentinel.stats().helps, 0);
                    while !vt.is_finished() {
                        plan.release();
                        std::thread::yield_now();
                    }
                }
                FaultAction::Stall(_) | FaultAction::Die | FaultAction::Swing => {
                    while !vt.is_finished() {
                        sentinel.tick();
                        std::thread::yield_now();
                    }
                }
            }
            match vt.join() {
                Ok(()) => false,
                Err(err) => {
                    err.downcast::<InjectedDeath>()
                        .expect("victims only die by injection");
                    true
                }
            }
        });

        match action {
            FaultAction::Die => {
                if died {
                    // Adoption half: a corpse is adopted within a bounded
                    // number of ticks (the MTTR bound — ladder depth, with
                    // slack).
                    let mut mttr_ticks = 0u32;
                    while domain.orphaned_threads() > 0 {
                        sentinel.tick();
                        mttr_ticks += 1;
                        assert!(
                            mttr_ticks < 500,
                            "{site:?}/Die: corpse not adopted within 500 ticks"
                        );
                    }
                    assert_eq!(domain.orphans_adopted(), 1);
                }
            }
            FaultAction::Park | FaultAction::Stall(_) | FaultAction::Swing => {
                // A parked/stalled victim resumed and exited on its own:
                // nothing to adopt, nothing adopted.
                assert!(!died, "{site:?}/{action:?} must not kill");
                assert_eq!(domain.orphans_adopted(), 0);
            }
        }

        plan.disarm();
        drop(sentinel);
        // Quiescent audit: whatever the ladder did, the books balance.
        let sweeper = domain.register().unwrap();
        for l in &links {
            sweeper.store(l, None);
        }
        while !matches!(sweeper.reclaim(), wfrc::core::ReclaimOutcome::NoCandidate) {
            std::thread::yield_now();
        }
        drop(sweeper);
        let report = domain.leak_check();
        assert!(report.is_clean(), "{site:?}/{action:?} leaked: {report}");
    }

    /// The other half of `idle_reader_never_climbs_the_ladder`: with both
    /// presence bits up, a thread parked *inside* a `DeRefLink` (its slot
    /// holds the announcement) is obligated and climbs, while the idle
    /// reader beside it is not and does not.
    #[test]
    fn parked_deref_is_obligated_beside_an_idle_reader() {
        use wfrc::core::{Stage, Supervised};
        let mut domain = WfrcDomain::<u64>::new(DomainConfig::new(2, 16));
        let plan = Arc::new(FaultPlan::new(0x1D1E));
        domain.set_fault_plan(Arc::clone(&plan));
        let link = Link::<u64>::null();
        let idle = domain.register().unwrap();
        let victim = domain.register().unwrap();
        let (idle_tid, victim_tid) = (idle.tid(), victim.tid());
        {
            let seed = idle.alloc_with(|v| *v = 5).unwrap();
            idle.store(&link, Some(&seed));
        }
        // The idle reader's one dereference announces (its bit goes up);
        // every one of the victim's does.
        plan.arm_victim(
            idle_tid,
            FaultSite::DerefFast,
            FaultAction::Swing,
            FireRule::Nth(1),
        );
        plan.swing_every_deref(victim_tid);
        assert_eq!(idle.deref(&link).map(|g| *g), Some(5));
        plan.arm_victim(
            victim_tid,
            FaultSite::AnnouncePublish,
            FaultAction::Park,
            FireRule::Nth(1),
        );
        let ticks = wfrc::core::sentinel::HELP_AFTER + 1;
        let sentinel = Sentinel::new(&domain);

        // Observe while the victim is parked, assert after it is released:
        // a failed assertion must not leave the scope joining a parked
        // thread.
        let seen = std::thread::scope(|s| {
            let (link, plan, domain) = (&link, &plan, &domain);
            let vt = s.spawn(move || {
                assert_eq!(victim.deref(link).map(|g| *g), Some(5));
            });
            while plan.parked() == 0 && !vt.is_finished() {
                std::thread::yield_now();
            }
            let parked = plan.parked() == 1;
            let bits = [idle_tid, victim_tid].map(|t| domain.announcement_summary_bit(t));
            for _ in 0..ticks {
                sentinel.tick();
            }
            let seen = [idle_tid, victim_tid].map(|t| (domain.obligated(t), sentinel.stage(t)));
            plan.release();
            vt.join().unwrap();
            (parked, bits, seen)
        });
        assert_eq!(
            seen,
            (
                true,
                [true, true],
                [(false, Stage::Idle), (true, Stage::Help)]
            )
        );
        // Merely slow: resumed, finished, never seized.
        assert_eq!(domain.orphans_adopted(), 0);
        idle.store(&link, None);
        drop(idle);
        assert!(domain.leak_check().is_clean());
    }

    /// A fixed pool (`Growth::Disabled`) enters its operation epoch with a
    /// plain store, not the `SeqCst` FAA a retirable pool pays — and the
    /// ladder's view is the same: a thread parked inside `AllocNode`'s slow
    /// path (odd epoch, need bit up, no announcement) is obligated, its
    /// heartbeat stays frozen across the ticks, and it climbs to Help.
    #[test]
    fn parked_alloc_in_a_fixed_pool_is_obligated() {
        use wfrc::core::{Stage, Supervised};
        let mut domain = WfrcDomain::<u64>::new(DomainConfig::new(2, 4));
        let plan = Arc::new(FaultPlan::new(0xF1DE));
        domain.set_fault_plan(Arc::clone(&plan));
        let holder = domain.register().unwrap();
        let victim = domain.register().unwrap();
        let victim_tid = victim.tid();
        // Hold the whole pool so the victim's fast path misses.
        let held: Vec<_> = (0..4).map(|_| holder.alloc_with(|_| {}).unwrap()).collect();
        plan.arm_victim(
            victim_tid,
            FaultSite::AllocNeed,
            FaultAction::Park,
            FireRule::Nth(1),
        );
        let ticks = wfrc::core::sentinel::HELP_AFTER + 1;
        let sentinel = Sentinel::new(&domain);

        // Observe while the victim is parked, assert after it is released
        // (cf. `parked_deref_is_obligated_beside_an_idle_reader`).
        let (parked, seen, oom) = std::thread::scope(|s| {
            let (plan, domain) = (&plan, &domain);
            let vt = s.spawn(move || victim.alloc_with(|_| {}).is_err());
            while plan.parked() == 0 && !vt.is_finished() {
                std::thread::yield_now();
            }
            let parked = plan.parked() == 1;
            let before = domain.fingerprint(victim_tid);
            for _ in 0..ticks {
                sentinel.tick();
            }
            let seen = (
                domain.obligated(victim_tid),
                domain.fingerprint(victim_tid) == before,
                sentinel.stage(victim_tid),
            );
            plan.release();
            (parked, seen, vt.join().unwrap())
        });
        assert!(parked, "the victim never reached AllocNode's slow path");
        assert_eq!(seen, (true, true, Stage::Help));
        // Merely slow: resumed, ran out of memory (the pool is held), and
        // was never seized.
        assert!(oom, "the held pool cannot serve the victim");
        assert_eq!(domain.orphans_adopted(), 0);
        drop(held);
        drop(holder);
        assert!(domain.leak_check().is_clean());
    }

    /// The sentinel watches every pool of the domain, not only the node
    /// pool: a thread parked inside `reclaim_class`, holding a byte class's
    /// retire claim (an even node-pool epoch, no announcement), is obligated
    /// and climbs the ladder.
    #[test]
    fn parked_class_retire_is_obligated() {
        use wfrc::core::{ClassConfig, ReclaimOutcome, Stage, Supervised};
        let class = ClassConfig::new(64, 4).with_growth(Growth::doubling_to(4096));
        let mut domain = WfrcDomain::<u64>::new(DomainConfig::new(2, 16).with_class(class));
        let plan = Arc::new(FaultPlan::new(0xC1A5));
        domain.set_fault_plan(Arc::clone(&plan));
        let victim = domain.register().unwrap();
        let victim_tid = victim.tid();
        // Grow the class past its first segment and free everything: its
        // trailing segment is now a retire candidate.
        let tokens: Vec<_> = (0..=domain.class_capacity(0))
            .map(|_| victim.alloc_bytes(&[7; 48]).expect("class grows"))
            .collect();
        assert!(domain.class_segments(0) > 1);
        for token in tokens {
            // SAFETY: the victim's own live tokens, freed once.
            unsafe { victim.free_bytes(token) };
        }
        plan.arm_victim(
            victim_tid,
            FaultSite::SegmentRetire,
            FaultAction::Park,
            FireRule::Nth(1),
        );
        let ticks = wfrc::core::sentinel::HELP_AFTER + 1;
        let sentinel = Sentinel::new(&domain);

        // Observe while the victim is parked, assert after it is released
        // (cf. `parked_deref_is_obligated_beside_an_idle_reader`).
        let (parked, seen, outcome) = std::thread::scope(|s| {
            let (plan, domain) = (&plan, &domain);
            let vt = s.spawn(move || victim.reclaim_class(0));
            while plan.parked() == 0 && !vt.is_finished() {
                std::thread::yield_now();
            }
            let parked = plan.parked() == 1;
            for _ in 0..ticks {
                sentinel.tick();
            }
            let seen = (domain.obligated(victim_tid), sentinel.stage(victim_tid));
            plan.release();
            (parked, seen, vt.join().unwrap())
        });
        assert!(parked, "the victim never reached the class's retire claim");
        assert_eq!(seen, (true, Stage::Help));
        // Merely slow: resumed, finished its retire, never seized.
        assert!(
            matches!(outcome, ReclaimOutcome::Retired { .. }),
            "{outcome:?}"
        );
        assert_eq!(domain.orphans_adopted(), 0);
        assert!(domain.leak_check().is_clean());
    }

    /// The Die half of [`run_case`] over the LFRC baseline, with the death
    /// inside a byte class (the class runs the node pool's code, so its
    /// sites are armed too): the sentinel alone adopts the corpse within
    /// the tick bound, and the books balance.
    fn run_lfrc_class_case(site: FaultSite, seed: u64) {
        use wfrc::baselines::LfrcDomain;
        use wfrc::core::{ClassConfig, RawBytes};
        let mut domain = LfrcDomain::<u64>::new(2, 16);
        domain.set_classes(vec![ClassConfig::new(64, 4)
            .with_growth(Growth::doubling_to(4096))
            .with_magazine(4)]);
        let plan = Arc::new(FaultPlan::new(seed));
        domain.set_fault_plan(Arc::clone(&plan));
        plan.arm_victim(0, site, FaultAction::Die, FireRule::Nth(1));
        // `Supervised` is the wrapped `Domain`'s impl, the same for both
        // schemes.
        let sentinel = Sentinel::new(&*domain);
        let victim = domain.register().unwrap();
        assert_eq!(victim.tid(), 0);
        // Tokens escape the victim so its death leaks no live blocks.
        let escaped: std::sync::Mutex<Vec<RawBytes>> = std::sync::Mutex::new(Vec::new());

        std::thread::scope(|s| {
            let escaped = &escaped;
            let vt = s.spawn(move || {
                for i in 0..10_000usize {
                    let tok = victim.alloc_bytes(&[i as u8; 48]).expect("class grows");
                    escaped.lock().unwrap().push(tok);
                }
            });
            while !vt.is_finished() {
                sentinel.tick();
                std::thread::yield_now();
            }
            vt.join()
                .expect_err("victim must die inside the class")
                .downcast::<InjectedDeath>()
                .expect("victims only die by injection");
        });
        let mut mttr_ticks = 0u32;
        while domain.orphaned_threads() > 0 {
            sentinel.tick();
            mttr_ticks += 1;
            assert!(
                mttr_ticks < 500,
                "lfrc class {site:?}/Die: corpse not adopted within 500 ticks"
            );
        }
        assert_eq!(domain.orphans_adopted(), 1);

        plan.disarm();
        drop(sentinel);
        let sweeper = domain.register().unwrap();
        for tok in escaped.into_inner().unwrap() {
            // SAFETY: live tokens the victim transferred out; freed once.
            unsafe { sweeper.free_bytes(tok) };
        }
        drop(sweeper);
        let report = domain.leak_check();
        assert!(
            report.is_clean(),
            "lfrc class {site:?}/Die leaked: {report}"
        );
    }

    /// Seeded sweep: every armed site × {Stall, Park, Die}. Sites the
    /// churn cannot reach under a given seed exit cleanly and still go
    /// through the quiescent audit.
    #[test]
    fn ladder_is_safe_and_live_at_every_site() {
        silence_injected_deaths();
        for (i, &site) in FaultSite::ALL.iter().enumerate() {
            for (j, action) in [
                FaultAction::Stall(1_000),
                FaultAction::Park,
                FaultAction::Die,
            ]
            .into_iter()
            .enumerate()
            {
                let seed = 0x5EA1_BA5E ^ ((i as u64) << 8) ^ j as u64;
                run_case(site, action, seed);
            }
        }
        for site in [FaultSite::GrowSeed, FaultSite::MagazineRefill] {
            run_lfrc_class_case(site, 0x5EA1_BA5E ^ site as u64);
        }
    }
}
