//! Weak references (PR 10): the cross-layer interleaving matrix.
//!
//! The non-gated half drives the four ISSUE scenarios under real
//! concurrency: a weak upgrade racing a release-to-zero, a pinned
//! `Snapshot` of a link retargeted to a weakly-held node, weak links
//! (`AtomicWeak`) stripped on reclaim, and the DEAD-but-weak header
//! lifecycle visible through `LeakReport`. The `fault-injection`-gated
//! half sweeps the same shapes across armed fault sites — including the
//! new `WeakUpgrade` site — with a victim parked or killed mid-operation
//! while a survivor makes a fixed quota, ending in clean adoption.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use wfrc::core::{AtomicWeak, DomainConfig, Growth, Link, WfrcDomain};
use wfrc::sim::exec::StopFlag;

/// Downgrade → upgrade → death → failed upgrade, with every transition
/// visible in the counters and the leak report's weak fields.
#[test]
fn downgrade_upgrade_lifecycle() {
    let d = WfrcDomain::<u64>::new(DomainConfig::new(2, 8));
    let h = d.register().unwrap();
    let link = Link::null();
    let g = h.alloc_with(|v| *v = 7).unwrap();
    h.store(&link, Some(&g));

    let w = h.downgrade(&g);
    drop(g); // the link still holds a strong count
    assert!(!w.is_dead());
    let up = w.upgrade().expect("strong count is nonzero");
    assert_eq!(*up, 7);
    let w2 = w.clone();
    drop(up);

    // Release-to-zero: the link held the last strong count. The header
    // must flip to DEAD-but-weak (memory held for the two weak guards),
    // and every later upgrade must fail.
    h.store(&link, None);
    assert!(w.is_dead());
    assert!(w.upgrade().is_none(), "upgrade after death must fail");
    assert!(w2.upgrade().is_none());

    // Scan-level accounting: one DEAD-but-weak header carrying two weak
    // counts, visible before the guards drop.
    let mid = d.leak_check();
    assert_eq!(mid.weak_nodes, 1, "{mid:?}");
    assert_eq!(mid.weak_count, 2, "{mid:?}");

    let c = h.counters().snapshot();
    assert_eq!(c.weak_downgrades, 1, "{c:?}");
    assert_eq!(c.weak_upgrades, 3, "{c:?}");
    assert_eq!(c.upgrade_failed, 2, "{c:?}");

    // The last weak drop finalizes the header back to the free pool.
    drop((w, w2));
    drop(h);
    let r = d.leak_check();
    assert!(r.is_clean(), "{r:?}");
    assert_eq!(r.weak_upgrades, 3, "{r:?}");
    assert_eq!(r.upgrade_failed, 2, "{r:?}");
}

/// ISSUE scenario (a): a weak upgrade racing a release-to-zero. Whatever
/// the interleaving, a successful upgrade yields a readable payload with
/// the round's value, and once an upgrade fails the node stays dead.
#[test]
fn upgrade_races_release_to_zero() {
    const ROUNDS: usize = 300;
    let d = WfrcDomain::<u64>::new(DomainConfig::new(2, 64).with_growth(Growth::doubling_to(1024)));
    let link = Link::null();
    let barrier = Barrier::new(2);
    let successes = AtomicUsize::new(0);
    let failures = AtomicUsize::new(0);

    std::thread::scope(|s| {
        let (d, link, barrier) = (&d, &link, &barrier);
        let (successes, failures) = (&successes, &failures);
        s.spawn(move || {
            let h = d.register().unwrap();
            for r in 0..ROUNDS {
                let g = h.alloc_with(|v| *v = r as u64).unwrap();
                h.store(link, Some(&g));
                drop(g);
                barrier.wait();
                // The reader takes its weak reference between the barriers,
                // so every round has the race — none is skipped because the
                // clear beat the reader's dereference.
                barrier.wait();
                // The race: clear the link (release-to-zero unless the
                // reader holds a count) while the reader upgrades.
                h.store(link, None);
                barrier.wait();
            }
        });
        s.spawn(move || {
            let h = d.register().unwrap();
            for r in 0..ROUNDS {
                barrier.wait();
                let g = h.deref(link).expect("published before the barrier");
                let w = h.downgrade(&g);
                drop(g);
                barrier.wait();
                // Upgrade until the writer's clear wins; every success
                // must read this round's value.
                loop {
                    match w.upgrade() {
                        Some(up) => {
                            assert_eq!(*up, r as u64, "upgrade revived a stale payload");
                            successes.fetch_add(1, Ordering::Relaxed);
                            drop(up);
                        }
                        None => {
                            failures.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                assert!(w.is_dead(), "a failed upgrade is final");
                barrier.wait();
            }
        });
    });

    assert_eq!(
        failures.load(Ordering::Relaxed),
        ROUNDS,
        "every round ends with the upgrade failing for good"
    );
    let r = d.leak_check();
    assert!(r.is_clean(), "{r:?}");
    assert!(r.weak_upgrades >= successes.load(Ordering::Relaxed) as u64);
    assert_eq!(r.weak_count, 0, "{r:?}");
}

/// ISSUE scenario (b): a pinned `Snapshot` of a link that is retargeted
/// to a weakly-held node mid-read. The snapshot keeps reading the old
/// target, its upgrade refuses (link moved on), the weak upgrade of the
/// new target succeeds while the link holds it, and the old target's
/// release-to-zero defers under the live pin.
#[test]
fn snapshot_of_link_retargeted_to_weakly_held_node() {
    let d = WfrcDomain::<u64>::new(DomainConfig::new(2, 8));
    let h = d.register().unwrap();
    let link = Link::null();
    let a = h.alloc_with(|v| *v = 1).unwrap();
    h.store(&link, Some(&a));
    drop(a);

    let b = h.alloc_with(|v| *v = 2).unwrap();
    let wb = h.downgrade(&b);

    let guard = h.pin();
    let snap = guard.snapshot(&link).expect("link holds a");
    assert_eq!(*snap, 1);
    // Retarget under the pin: a's only strong count drains, so the free
    // must divert to the deferred list (the snapshot still reads it).
    h.store(&link, Some(&b));
    drop(b);
    assert_eq!(*snap, 1, "snapshot pins the observed node");
    assert!(snap.upgrade().is_none(), "link moved on");
    assert_eq!(h.counters().snapshot().deferred_decs, 1);

    // The weakly-held new target upgrades while the link keeps it alive.
    let ub = wb.upgrade().expect("link holds b strongly");
    assert_eq!(*ub, 2);
    drop(ub);
    // The guard drop's opportunistic drain frees `a` wholesale.
    drop(guard);
    assert_eq!(d.deferred_len(), 0, "a frees once the pin lifts");
    h.store(&link, None);
    assert!(wb.upgrade().is_none(), "b died with the link's count");
    drop(wb);
    drop(h);
    let r = d.leak_check();
    assert!(r.is_clean(), "{r:?}");
}

/// Weak links: `store_weak`/`load_weak` retargeting, the claim-bit
/// validation on load, and the link's own weak unit visible in the scan.
#[test]
fn atomic_weak_link_retarget_and_death() {
    let d = WfrcDomain::<u64>::new(DomainConfig::new(2, 8));
    let h = d.register().unwrap();
    let strong = Link::null();
    let w: AtomicWeak<u64> = AtomicWeak::null();

    let a = h.alloc_with(|v| *v = 10).unwrap();
    h.store(&strong, Some(&a));
    h.store_weak(&w, Some(&a));
    drop(a);
    {
        let got = h.load_weak(&w).expect("target alive via strong link");
        assert_eq!(*got, 10);
    }

    // Retarget the weak link: the old target's weak unit must transfer
    // cleanly (no finalize — a is still strongly held).
    let b = h.alloc_with(|v| *v = 20).unwrap();
    h.store_weak(&w, Some(&b));
    {
        let got = h.load_weak(&w).expect("b held by our guard");
        assert_eq!(*got, 20);
    }

    // Kill b: the weak link alone never keeps a payload alive, so the
    // load must observe the claim bit and refuse.
    drop(b);
    assert!(h.load_weak(&w).is_none(), "dead target must not load");
    let mid = d.leak_check();
    assert_eq!(mid.weak_nodes, 1, "b is DEAD-but-weak: {mid:?}");
    assert_eq!(mid.weak_count, 1, "the link's own unit: {mid:?}");

    // Clearing the link drops the last weak unit and finalizes b.
    h.store_weak(&w, None);
    h.store(&strong, None);
    drop(h);
    let r = d.leak_check();
    assert!(r.is_clean(), "{r:?}");
    assert_eq!(r.weak_count, 0, "{r:?}");
}

/// Concurrent weak-link churn: writers retarget an `AtomicWeak` ring
/// while readers `load_weak` through the full announcement-covered path.
/// Every successful load must read a self-consistent payload, and the
/// books must balance at teardown.
#[test]
fn concurrent_weak_link_churn() {
    const ITERS: usize = 8_000;
    const LINKS: usize = 4;
    let d =
        WfrcDomain::<u64>::new(DomainConfig::new(3, 256).with_growth(Growth::doubling_to(1024)));
    let strongs: Vec<Link<u64>> = (0..LINKS).map(|_| Link::null()).collect();
    let weaks: Vec<AtomicWeak<u64>> = (0..LINKS).map(|_| AtomicWeak::null()).collect();
    let stop = StopFlag::new();

    std::thread::scope(|s| {
        let (d, strongs, weaks, stop) = (&d, &strongs, &weaks, &stop);
        for _ in 0..2 {
            s.spawn(move || {
                let h = d.register().unwrap();
                while !stop.is_stopped() {
                    for w in weaks {
                        if let Some(g) = h.load_weak(w) {
                            std::hint::black_box(*g);
                        }
                    }
                }
            });
        }
        // Dropped after the churn, and if the churn dies on an assertion —
        // the readers must not keep the scope open.
        let stopper = stop.stop_on_drop();
        let h = d.register().unwrap();
        for i in 0..ITERS {
            if let Ok(g) = h.alloc_with(|v| *v = i as u64) {
                h.store(&strongs[i % LINKS], Some(&g));
                h.store_weak(&weaks[i % LINKS], Some(&g));
            }
            if i % 5 == 4 {
                // Kill a strong target while its weak link stands: the
                // readers' loads must start failing, never crash.
                h.store(&strongs[(i + 2) % LINKS], None);
            }
        }
        drop(stopper);
        for l in strongs {
            h.store(l, None);
        }
        for w in weaks {
            h.store_weak(w, None);
        }
        drop(h);
    });

    let r = d.leak_check();
    assert!(r.is_clean(), "{r:?}");
    assert_eq!(r.weak_count, 0, "{r:?}");
    assert!(
        r.upgrade_failed > 0,
        "the churn never observed a dead target"
    );
}

#[cfg(feature = "fault-injection")]
mod faulted {
    use std::sync::Arc;

    use wfrc::baselines::LfrcDomain;
    use wfrc::core::fault::silence_injected_deaths;
    use wfrc::core::{
        AtomicWeak, DomainConfig, FaultAction, FaultPlan, FaultSite, FireRule, Growth,
        InjectedDeath, Link, ThreadHandle, WfrcDomain,
    };

    const CAPACITY: usize = 64;
    const SURVIVOR_QUOTA: usize = 2_000;

    fn faulted_domain(seed: u64) -> (WfrcDomain<u64>, Arc<FaultPlan>) {
        let mut domain = WfrcDomain::<u64>::new(
            DomainConfig::new(3, CAPACITY)
                .with_magazine(8)
                .with_growth(Growth::doubling_to(4096)),
        );
        let plan = Arc::new(FaultPlan::new(seed));
        domain.set_fault_plan(Arc::clone(&plan));
        (domain, plan)
    }

    /// Weak-heavy churn that reaches every armed site: allocs refill
    /// magazines, derefs announce, downgrade/upgrade hit `WeakUpgrade`,
    /// weak-link stores/loads walk the §3.2 helping path, and link
    /// overwrites release to zero under standing weak references.
    fn weak_victim_loop(
        h: ThreadHandle<'_, u64>,
        links: &[Link<u64>],
        weaks: &[AtomicWeak<u64>],
        plan: &FaultPlan,
    ) {
        let mut held = Vec::new();
        for i in 0..200_000usize {
            if plan.injected() > 0 {
                break;
            }
            if let Ok(g) = h.alloc_with(|v| *v = i as u64) {
                h.store(&links[i % links.len()], Some(&g));
                h.store_weak(&weaks[i % weaks.len()], Some(&g));
                if held.len() < CAPACITY + 36 {
                    let w = h.downgrade(&g);
                    drop(w.upgrade());
                    held.push(g);
                }
            }
            if let Some(g) = h.deref(&links[(i + 1) % links.len()]) {
                let w = h.downgrade(&g);
                drop(g);
                if let Some(up) = w.upgrade() {
                    std::hint::black_box(*up);
                }
            }
            if let Some(g) = h.load_weak(&weaks[(i + 2) % weaks.len()]) {
                std::hint::black_box(*g);
            }
            if i % 7 == 6 {
                held.pop();
            }
        }
        assert!(
            plan.injected() > 0,
            "victim exhausted its loop without the armed site firing"
        );
    }

    fn weak_survivor_quota(
        h: &ThreadHandle<'_, u64>,
        links: &[Link<u64>],
        weaks: &[AtomicWeak<u64>],
        quota: usize,
    ) {
        let mut done = 0usize;
        let mut i = 0usize;
        while done < quota {
            i += 1;
            if let Ok(g) = h.alloc_with(|v| *v = i as u64) {
                h.store(&links[i % links.len()], Some(&g));
                h.store_weak(&weaks[i % weaks.len()], Some(&g));
                done += 1;
            }
            if let Some(g) = h.load_weak(&weaks[(i + 1) % weaks.len()]) {
                std::hint::black_box(*g);
                done += 1;
            }
        }
    }

    /// The generic sweep, weak edition: victim (tid 0) churns weak ops
    /// until the armed site fires (parked or dead), the survivor makes
    /// its quota through the same weak surfaces, and recovery must leave
    /// zero leaks and zero standing weak counts.
    fn run_weak_site_scenario(site: FaultSite, die: bool) {
        silence_injected_deaths();
        let (domain, plan) = faulted_domain(0x3EAC ^ site as u64);
        let action = if die {
            FaultAction::Die
        } else {
            FaultAction::Park
        };
        plan.arm_victim(0, site, action, FireRule::Nth(1));
        plan.swing_every_deref(0);

        let links: Vec<Link<u64>> = (0..4).map(|_| Link::null()).collect();
        let weaks: Vec<AtomicWeak<u64>> = (0..4).map(|_| AtomicWeak::null()).collect();
        let victim = domain.register().unwrap();
        let survivor = domain.register().unwrap();
        assert_eq!(victim.tid(), 0);

        std::thread::scope(|s| {
            let (links_ref, weaks_ref) = (&links, &weaks);
            let plan_ref: &FaultPlan = &plan;
            let vt = s.spawn(move || weak_victim_loop(victim, links_ref, weaks_ref, plan_ref));
            if die {
                let err = vt.join().expect_err("victim must die at the armed site");
                let death = err
                    .downcast::<InjectedDeath>()
                    .expect("panic payload must be InjectedDeath");
                assert_eq!(death.site, site);
                weak_survivor_quota(&survivor, &links, &weaks, SURVIVOR_QUOTA);
            } else {
                while plan.parked() == 0 {
                    std::thread::yield_now();
                }
                weak_survivor_quota(&survivor, &links, &weaks, SURVIVOR_QUOTA);
                plan.release();
                vt.join().expect("released victim exits cleanly");
            }
            for l in &links {
                survivor.store(l, None);
            }
            for w in &weaks {
                survivor.store_weak(w, None);
            }
            drop(survivor);
        });

        assert!(plan.injected() >= 1, "site {} never fired", site.name());
        let report = domain.adopt_orphans();
        assert_eq!(
            report.orphans_adopted,
            usize::from(die),
            "exactly the dead victim's slot must need adoption ({site:?})"
        );
        let leaks = domain.leak_check();
        assert!(
            leaks.is_clean(),
            "leaks after {} ({}): {leaks:?}",
            site.name(),
            if die { "die" } else { "park" },
        );
        assert_eq!(leaks.weak_count, 0, "standing weak count: {leaks:?}");
    }

    macro_rules! weak_site_scenarios {
        ($($name_park:ident, $name_die:ident => $site:expr;)*) => {
            $(
                #[test]
                fn $name_park() {
                    run_weak_site_scenario($site, false);
                }
                #[test]
                fn $name_die() {
                    run_weak_site_scenario($site, true);
                }
            )*
        };
    }

    weak_site_scenarios! {
        weak_announce_publish_park, weak_announce_publish_die => FaultSite::AnnouncePublish;
        weak_deref_faa_park, weak_deref_faa_die => FaultSite::DerefFaa;
        weak_release_faa_park, weak_release_faa_die => FaultSite::ReleaseFaa;
        weak_upgrade_park, weak_upgrade_die => FaultSite::WeakUpgrade;
        weak_magazine_refill_park, weak_magazine_refill_die => FaultSite::MagazineRefill;
    }

    /// ISSUE scenario (a), faulted: the releaser dies mid
    /// release-to-zero (armed `ReleaseFaa`) while a survivor stands by
    /// with a `Weak`. Adoption must complete the half-done release, after
    /// which the upgrade must fail — never read freed memory, never
    /// revive the payload.
    #[test]
    fn release_to_zero_die_leaves_weak_dead() {
        silence_injected_deaths();
        let (domain, plan) = faulted_domain(0xDEADFA11);
        // The victim's first release is the alloc guard drop (count
        // stays), its second is the link clear (release-to-zero) — arm
        // the second.
        plan.arm_victim(0, FaultSite::ReleaseFaa, FaultAction::Die, FireRule::Nth(2));

        let link = Link::null();
        let victim = domain.register().unwrap();
        let survivor = domain.register().unwrap();
        assert_eq!(victim.tid(), 0);
        let ready = std::sync::atomic::AtomicBool::new(false);
        let weak_taken = std::sync::atomic::AtomicBool::new(false);

        std::thread::scope(|s| {
            let (link, ready, weak_taken) = (&link, &ready, &weak_taken);
            let vt = s.spawn(move || {
                let g = victim.alloc_with(|v| *v = 7).unwrap();
                victim.store(link, Some(&g));
                drop(g); // ReleaseFaa hit #1: count survives in the link
                ready.store(true, std::sync::atomic::Ordering::Release);
                while !weak_taken.load(std::sync::atomic::Ordering::Acquire) {
                    std::thread::yield_now();
                }
                victim.store(link, None); // hit #2: dies mid release-to-zero
                unreachable!("armed ReleaseFaa never fired");
            });
            while !ready.load(std::sync::atomic::Ordering::Acquire) {
                std::thread::yield_now();
            }
            let g = survivor.deref(link).expect("link holds the node");
            let w = survivor.downgrade(&g);
            drop(g);
            weak_taken.store(true, std::sync::atomic::Ordering::Release);

            let err = vt.join().expect_err("victim must die mid-release");
            let death = err
                .downcast::<InjectedDeath>()
                .expect("panic payload must be InjectedDeath");
            assert_eq!(death.site, FaultSite::ReleaseFaa);

            // Adoption completes the corpse's in-flight release; the
            // node's strong count is drained, so the upgrade must refuse.
            let report = domain.adopt_orphans();
            assert_eq!(report.orphans_adopted, 1, "{report:?}");
            assert!(w.upgrade().is_none(), "upgrade revived a drained node");
            assert!(w.is_dead());

            let mid = domain.leak_check();
            assert_eq!(mid.weak_nodes, 1, "DEAD-but-weak header: {mid:?}");
            assert_eq!(mid.weak_count, 1, "{mid:?}");
            drop(w);
            drop(survivor);
        });

        let leaks = domain.leak_check();
        assert!(leaks.is_clean(), "{leaks:?}");
    }

    /// ISSUE scenario (c): death at the armed `WeakUpgrade` site with a
    /// live `PinGuard` and a non-empty deferred list. The unwind drops
    /// the `Weak` and the pin; adoption recovers the slot and the
    /// deferred nodes, and the weak books balance to zero.
    #[test]
    fn die_mid_weak_upgrade_with_live_pin_guard() {
        silence_injected_deaths();
        let (domain, plan) = faulted_domain(0x3EAD);
        plan.arm_victim(
            0,
            FaultSite::WeakUpgrade,
            FaultAction::Die,
            FireRule::Nth(1),
        );

        let link = Link::null();
        let victim = domain.register().unwrap();
        let supervisor = domain.register().unwrap();
        assert_eq!(victim.tid(), 0);
        let standing = supervisor.pin();

        std::thread::scope(|s| {
            let link = &link;
            let vt = s.spawn(move || {
                // Non-empty deferred list: the supervisor's standing pin
                // diverts every release-to-zero.
                for i in 0..4 {
                    drop(victim.alloc_with(|v| *v = i).unwrap());
                }
                assert_eq!(victim.counters().snapshot().deferred_decs, 4);
                let g = victim.alloc_with(|v| *v = 99).unwrap();
                victim.store(link, Some(&g));
                let w = victim.downgrade(&g);
                drop(g);
                let _guard = victim.pin();
                let _ = w.upgrade(); // armed: dies here, pin and weak live
                unreachable!("WeakUpgrade never fired");
            });
            let err = vt.join().expect_err("victim must die mid-upgrade");
            let death = err
                .downcast::<InjectedDeath>()
                .expect("panic payload must be InjectedDeath");
            assert_eq!(death.site, FaultSite::WeakUpgrade);
        });

        assert_eq!(domain.deferred_len(), 4);
        drop(standing);
        let report = domain.adopt_orphans();
        assert_eq!(report.orphans_adopted, 1, "{report:?}");
        assert_eq!(report.deferred_nodes_recovered, 4, "{report:?}");

        supervisor.store(&link, None);
        drop(supervisor);
        let r = domain.leak_check();
        assert!(r.is_clean(), "{r:?}");
        assert_eq!(r.weak_count, 0, "the unwound Weak leaked its count: {r:?}");
    }

    /// `load_weak` dies at its armed `WeakUpgrade` site while holding the
    /// speculative strong count on the target: the completion closure
    /// must release it on the way out, or the node leaks.
    #[test]
    fn die_mid_load_weak_releases_speculative_count() {
        silence_injected_deaths();
        let (domain, plan) = faulted_domain(0x10AD);
        plan.arm_victim(
            0,
            FaultSite::WeakUpgrade,
            FaultAction::Die,
            FireRule::Nth(1),
        );

        let link = Link::null();
        let w: AtomicWeak<u64> = AtomicWeak::null();
        let victim = domain.register().unwrap();
        let survivor = domain.register().unwrap();
        assert_eq!(victim.tid(), 0);

        {
            let g = survivor.alloc_with(|v| *v = 5).unwrap();
            survivor.store(&link, Some(&g));
            survivor.store_weak(&w, Some(&g));
        }

        std::thread::scope(|s| {
            let w = &w;
            let vt = s.spawn(move || {
                let _ = victim.load_weak(w); // armed: dies holding +2
                unreachable!("WeakUpgrade never fired");
            });
            let err = vt.join().expect_err("victim must die mid-load");
            let death = err
                .downcast::<InjectedDeath>()
                .expect("panic payload must be InjectedDeath");
            assert_eq!(death.site, FaultSite::WeakUpgrade);
        });

        let report = domain.adopt_orphans();
        assert_eq!(report.orphans_adopted, 1, "{report:?}");
        // The target must still be fully releasable: the speculative
        // count died with the victim's completion, not with the node.
        survivor.store(&link, None);
        survivor.store_weak(&w, None);
        drop(survivor);
        let r = domain.leak_check();
        assert!(r.is_clean(), "speculative count leaked: {r:?}");
    }

    /// The LFRC baseline sweeps the same `WeakUpgrade` site: the raw
    /// mirror's upgrade dies cleanly and the domain's books balance.
    #[test]
    fn lfrc_weak_upgrade_die_is_clean() {
        silence_injected_deaths();
        let mut domain = LfrcDomain::<u64>::new(2, CAPACITY);
        let plan = Arc::new(FaultPlan::new(0x1F3C));
        domain.set_fault_plan(Arc::clone(&plan));
        plan.arm_victim(
            0,
            FaultSite::WeakUpgrade,
            FaultAction::Die,
            FireRule::Nth(1),
        );

        let link = Link::null();
        let victim = domain.register().unwrap();
        let survivor = domain.register().unwrap();
        assert_eq!(victim.tid(), 0);

        std::thread::scope(|s| {
            let link = &link;
            let vt = s.spawn(move || {
                let node = victim.alloc_raw().unwrap();
                // SAFETY: fresh unpublished node, exclusively ours; the
                // add_ref transfers one count to the link.
                unsafe {
                    *victim.payload_mut_raw(node) = 3;
                    victim.add_ref_raw(node, 1);
                    victim.store_link_raw(link, node);
                    victim.downgrade_raw(node);
                    let ok = victim.upgrade_raw(node); // armed: dies here
                    assert!(ok, "unreachable — the fault fires first");
                }
                unreachable!("WeakUpgrade never fired");
            });
            let err = vt.join().expect_err("victim must die mid-upgrade");
            let death = err
                .downcast::<InjectedDeath>()
                .expect("panic payload must be InjectedDeath");
            assert_eq!(death.site, FaultSite::WeakUpgrade);
        });

        assert_eq!(domain.adopt_orphans().orphans_adopted, 1);
        // The raw API has no unwind guards: the corpse's alloc-guard
        // count and weak count are unowned now, and the survivor
        // reconstructs the books by hand before clearing the link.
        // SAFETY: counts exist per the victim's sequence above; the link
        // holds its own count until the CAS hands it to us.
        unsafe {
            let target = survivor.deref_raw(&link);
            assert!(!target.is_null());
            survivor.release_raw(target); // the victim's alloc guard
            survivor.release_weak_raw(target); // the victim's weak ref
            assert!(survivor.cas_link_raw(&link, target, core::ptr::null_mut()));
            survivor.release_raw(target); // the link's count
            survivor.release_raw(target); // our own deref above
        }
        drop(survivor);
        let r = domain.leak_check();
        assert!(r.is_clean(), "{r:?}");
        assert!(r.weak_upgrades >= 1, "{r:?}");
    }
}
