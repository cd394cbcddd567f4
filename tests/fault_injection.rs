//! Fault-injection torture: for every registered [`FaultSite`], a victim
//! thread is stalled (`Park`, then released) and killed (`Die`) mid-operation
//! while a survivor completes a fixed op quota. Every scenario must end with
//! [`WfrcDomain::adopt_orphans`] recovering the victim's slot and
//! [`WfrcDomain::leak_check`] reporting zero leaks — the ISSUE's acceptance
//! bar for the helping protocol surviving crashes.
//!
//! Built only with `--features fault-injection`; the default build contains
//! none of the hooks these tests drive.

#![cfg(feature = "fault-injection")]

use std::sync::Arc;

use wfrc::baselines::LfrcDomain;
use wfrc::core::fault::silence_injected_deaths;
use wfrc::core::{
    DomainConfig, FaultAction, FaultPlan, FaultSite, FireRule, Growth, InjectedDeath, Link,
    ReclaimOutcome, ThreadHandle, WfrcDomain,
};

const THREADS: usize = 3;
const CAPACITY: usize = 64;
const SURVIVOR_QUOTA: usize = 2_000;

/// Growth is enabled so a victim parked while holding an entire stolen
/// stripe (or the whole initial pool, for `GrowSeed`) cannot starve the
/// survivor: wait-freedom of the survivor quota must not depend on the
/// victim's nodes ever coming back.
fn config() -> DomainConfig {
    DomainConfig::new(THREADS, CAPACITY)
        .with_magazine(8)
        .with_growth(Growth::doubling_to(4096))
}

fn faulted_domain(seed: u64) -> (WfrcDomain<u64>, Arc<FaultPlan>) {
    let mut domain = WfrcDomain::<u64>::new(config());
    let plan = Arc::new(FaultPlan::new(seed));
    domain.set_fault_plan(Arc::clone(&plan));
    (domain, plan)
}

/// Mixed alloc/store/deref/release churn that reaches every generic site:
/// the first alloc refills the magazine (`MagazineRefill`, `StripeSwap`),
/// derefs hit `DerefFast` and — every one swung onto D1–D10 by
/// `run_site_scenario` — `AnnouncePublish`/`DerefFaa`/`SummaryClear`, link
/// overwrites and guard drops
/// hit `ReleaseFaa`/`MagazineDrain`, and the growing `held` pile forces a
/// growth step (`GrowSeed`) once the initial pool is pinned.
fn victim_loop(h: ThreadHandle<'_, u64>, links: &[Link<u64>], plan: &FaultPlan) {
    let mut held = Vec::new();
    for i in 0..200_000usize {
        if plan.injected() > 0 {
            break;
        }
        if let Ok(g) = h.alloc_with(|v| *v = i as u64) {
            h.store(&links[i % links.len()], Some(&g));
            if held.len() < CAPACITY + 36 {
                held.push(g);
            }
        }
        if let Some(g) = h.deref(&links[(i + 1) % links.len()]) {
            std::hint::black_box(*g);
            if i % 5 == 4 {
                // Weak downgrade/upgrade churn (PR 10): reaches the
                // `WeakUpgrade` site.
                let w = h.downgrade(&g);
                drop(w.upgrade());
            }
        }
        if i % 3 == 2 {
            // Pinned snapshot read + upgrade (PR 9): reaches the
            // `SnapshotUpgrade` site, and the releases above defer while
            // the pin is live.
            let guard = h.pin();
            if let Some(snap) = guard.snapshot(&links[(i + 2) % links.len()]) {
                std::hint::black_box(*snap);
                drop(snap.upgrade());
            }
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

/// Survivor progress while the victim is parked or dead: `quota` completed
/// operations, none of which may block on the victim.
fn survivor_quota(h: &ThreadHandle<'_, u64>, links: &[Link<u64>], quota: usize) {
    let mut done = 0usize;
    let mut i = 0usize;
    while done < quota {
        i += 1;
        if let Ok(g) = h.alloc_with(|v| *v = i as u64) {
            h.store(&links[i % links.len()], Some(&g));
            done += 1;
        }
        if let Some(g) = h.deref(&links[(i + 2) % links.len()]) {
            std::hint::black_box(*g);
            done += 1;
        }
    }
}

/// One full scenario: arm `site` for the victim (tid 0), run it until the
/// fault fires, let the survivor finish its quota, then recover and audit.
fn run_site_scenario(site: FaultSite, die: bool) {
    silence_injected_deaths();
    let (domain, plan) = faulted_domain(0x5EED ^ site as u64);
    let action = if die {
        FaultAction::Die
    } else {
        FaultAction::Park
    };
    plan.arm_victim(0, site, action, FireRule::Nth(1));
    plan.swing_every_deref(0);

    let links: Vec<Link<u64>> = (0..4).map(|_| Link::null()).collect();
    let victim = domain.register().unwrap();
    let survivor = domain.register().unwrap();
    assert_eq!(victim.tid(), 0);

    std::thread::scope(|s| {
        let links_ref = &links;
        let plan_ref: &FaultPlan = &plan;
        let vt = s.spawn(move || victim_loop(victim, links_ref, plan_ref));
        if die {
            let err = vt.join().expect_err("victim must die at the armed site");
            let death = err
                .downcast::<InjectedDeath>()
                .expect("panic payload must be InjectedDeath");
            assert_eq!(death.site, site);
            survivor_quota(&survivor, &links, SURVIVOR_QUOTA);
        } else {
            while plan.parked() == 0 {
                std::thread::yield_now();
            }
            survivor_quota(&survivor, &links, SURVIVOR_QUOTA);
            // A parked thread is merely slow: its slot is TAKEN, so
            // however often recovery runs, it never seizes the victim.
            // Observe before the release, assert after it, so a failure
            // does not leave the scope joining a parked thread.
            let mut passes = 0;
            while plan.parked() > 0 && passes < 8 {
                domain.adopt_orphans();
                passes += 1;
            }
            let seized = domain.orphans_adopted();
            plan.release();
            vt.join().expect("released victim exits cleanly");
            assert!(passes > 0, "{site:?}: the victim left its park early");
            assert_eq!(seized, 0, "{site:?}/Park: a parked thread was seized");
        }
        for l in &links {
            survivor.store(l, None);
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
}

macro_rules! site_scenarios {
    ($($name_park:ident, $name_die:ident => $site:expr;)*) => {
        $(
            #[test]
            fn $name_park() {
                run_site_scenario($site, false);
            }
            #[test]
            fn $name_die() {
                run_site_scenario($site, true);
            }
        )*
    };
}

site_scenarios! {
    deref_fast_park, deref_fast_die => FaultSite::DerefFast;
    announce_publish_park, announce_publish_die => FaultSite::AnnouncePublish;
    deref_faa_park, deref_faa_die => FaultSite::DerefFaa;
    release_faa_park, release_faa_die => FaultSite::ReleaseFaa;
    stripe_swap_park, stripe_swap_die => FaultSite::StripeSwap;
    magazine_refill_park, magazine_refill_die => FaultSite::MagazineRefill;
    magazine_drain_park, magazine_drain_die => FaultSite::MagazineDrain;
    grow_seed_park, grow_seed_die => FaultSite::GrowSeed;
    summary_clear_park, summary_clear_die => FaultSite::SummaryClear;
    alloc_need_park, alloc_need_die => FaultSite::AllocNeed;
    snapshot_upgrade_park, snapshot_upgrade_die => FaultSite::SnapshotUpgrade;
    weak_upgrade_park, weak_upgrade_die => FaultSite::WeakUpgrade;
}

/// `HelperCas` needs a pending announcement for the victim to help: an aux
/// thread (tid 2) parks between publish (D3) and load (D4), then the victim
/// (tid 0) stores over the announced link, enters `HelpDeRef`, and hits the
/// armed site inside the busy pin.
fn run_helper_cas_scenario(die: bool) {
    silence_injected_deaths();
    let (domain, plan) = faulted_domain(0xFA11);
    plan.arm_victim(
        2,
        FaultSite::AnnouncePublish,
        FaultAction::Park,
        FireRule::Nth(1),
    );
    let action = if die {
        FaultAction::Die
    } else {
        FaultAction::Park
    };
    plan.swing_every_deref(2);
    plan.arm_victim(0, FaultSite::HelperCas, action, FireRule::Nth(1));

    let links: Vec<Link<u64>> = (0..4).map(|_| Link::null()).collect();
    let victim = domain.register().unwrap();
    let survivor = domain.register().unwrap();
    let aux = domain.register().unwrap();
    assert_eq!((victim.tid(), aux.tid()), (0, 2));

    {
        let seed = survivor.alloc_with(|v| *v = 1).unwrap();
        survivor.store(&links[0], Some(&seed));
    }

    std::thread::scope(|s| {
        let links_ref = &links;

        let at = s.spawn(move || {
            // Parks at AnnouncePublish with a live announcement on links[0].
            let g = aux.deref(&links_ref[0]);
            drop(g);
        });
        while plan.parked() == 0 {
            std::thread::yield_now();
        }

        let vt = s.spawn(move || {
            let fresh = victim.alloc_with(|v| *v = 2).expect("pool sized");
            // SWAP, then HelpDeRef finds aux's announcement → HelperCas.
            victim.store(&links_ref[0], Some(&fresh));
        });
        if die {
            let err = vt.join().expect_err("victim must die inside HelpDeRef");
            let death = err
                .downcast::<InjectedDeath>()
                .expect("panic payload must be InjectedDeath");
            assert_eq!(death.site, FaultSite::HelperCas);
            survivor_quota(&survivor, &links, SURVIVOR_QUOTA);
            plan.release();
        } else {
            while plan.parked() < 2 {
                std::thread::yield_now();
            }
            survivor_quota(&survivor, &links, SURVIVOR_QUOTA);
            plan.release();
            vt.join().expect("released victim exits cleanly");
        }
        at.join().expect("aux completes its deref after release");
        for l in &links {
            survivor.store(l, None);
        }
        drop(survivor);
    });

    let report = domain.adopt_orphans();
    assert_eq!(report.orphans_adopted, usize::from(die));
    let leaks = domain.leak_check();
    assert!(leaks.is_clean(), "leaks after HelperCas: {leaks:?}");
}

#[test]
fn helper_cas_park() {
    run_helper_cas_scenario(false);
}

#[test]
fn helper_cas_die() {
    run_helper_cas_scenario(true);
}

/// Bounded stalls (`Stall(n)`) must be invisible to correctness: the stalled
/// thread simply resumes, and the per-thread `faults_injected` counter
/// records each injection.
#[test]
fn bounded_stalls_are_transparent() {
    let (domain, plan) = faulted_domain(0x57A11);
    plan.arm(
        FaultSite::DerefFaa,
        FaultAction::Stall(500),
        FireRule::EveryNth(50),
    );
    plan.arm(
        FaultSite::ReleaseFaa,
        FaultAction::Stall(500),
        FireRule::EveryNth(77),
    );
    plan.arm(
        FaultSite::WeakUpgrade,
        FaultAction::Stall(500),
        FireRule::EveryNth(63),
    );

    let link = Link::null();
    let h = domain.register().unwrap();
    for i in 0..2_000u64 {
        let g = h.alloc_with(|v| *v = i).unwrap();
        h.store(&link, Some(&g));
        let w = h.downgrade(&g);
        drop(g);
        if let Some(r) = h.deref(&link) {
            assert_eq!(*r, i);
        }
        // A stalled upgrade is still linearizable: the link's count keeps
        // the node alive, so the upgrade must succeed regardless.
        assert_eq!(*w.upgrade().expect("link holds a strong count"), i);
    }
    let snapshot = h.counters().snapshot();
    h.store(&link, None);
    drop(h);

    assert!(plan.injected() >= 1, "stall rules never fired");
    assert!(
        snapshot.faults_injected >= 1,
        "per-thread counter must record injections"
    );
    assert!(domain.leak_check().is_clean());
}

/// A thread parked **inside** an operation pins the reclamation epoch at an
/// odd value: a perfect candidate segment must keep aborting its retire
/// (the grace period can never pass) until the thread is released — after
/// which the very same candidate retires.
#[test]
fn parked_mid_op_thread_stalls_reclaim_until_released() {
    silence_injected_deaths();
    let mut domain =
        WfrcDomain::<u64>::new(DomainConfig::new(3, 16).with_growth(Growth::doubling_to(4096)));
    let plan = Arc::new(FaultPlan::new(0x0EC0));
    domain.set_fault_plan(Arc::clone(&plan));
    // Fires inside `ReleaseRef` — mid-operation, epoch odd, and (unlike a
    // deref park) with no announcement published, so the summary pre-check
    // cannot mask the epoch stall this test is about.
    plan.arm_victim(
        0,
        FaultSite::ReleaseFaa,
        FaultAction::Park,
        FireRule::Nth(1),
    );

    let victim = domain.register().unwrap();
    let reclaimer = domain.register().unwrap();
    assert_eq!(victim.tid(), 0);

    std::thread::scope(|s| {
        let vt = s.spawn(move || {
            // First release parks; the node came from the immortal segment
            // 0, so the candidate tail's occupancy is unaffected.
            let g = victim.alloc_with(|v| *v = 7).unwrap();
            drop(g);
        });
        while plan.parked() == 0 {
            std::thread::yield_now();
        }
        // Build a perfect candidate: grow the ladder, then free it all.
        let pile: Vec<_> = (0..100)
            .map(|_| reclaimer.alloc_with(|v| *v = 1).unwrap())
            .collect();
        let peak = domain.resident_segments();
        assert!(peak >= 3, "never grew: {peak}");
        drop(pile);
        for _ in 0..3 {
            assert_eq!(
                reclaimer.reclaim(),
                ReclaimOutcome::Aborted,
                "a parked mid-op thread must fail the grace period"
            );
        }
        assert_eq!(
            domain.resident_segments(),
            peak,
            "retired despite the stall"
        );
        assert!(reclaimer.counters().snapshot().reclaim_aborts >= 3);
        plan.release();
        vt.join().expect("released victim exits cleanly");
    });

    // The stall is gone (the victim's handle dropped cleanly): the same
    // candidate now retires all the way down.
    let mut stalls = 0;
    loop {
        match reclaimer.reclaim() {
            ReclaimOutcome::Retired { .. } => stalls = 0,
            ReclaimOutcome::NoCandidate => break,
            _ => {
                stalls += 1;
                assert!(stalls < 100, "reclaim still stalled after release");
                std::thread::yield_now();
            }
        }
    }
    assert_eq!(domain.resident_segments(), 1);
    drop(reclaimer);
    let leaks = domain.leak_check();
    assert!(leaks.is_clean(), "{leaks:?}");
}

/// A thread killed at `SegmentRetire` dies holding a half-claimed
/// `DRAINING` segment. The claim words it published must make the retire
/// adoptable: other reclaimers see `Contended` (never a half-retired
/// segment), and `adopt_orphans` reopens the segment so a successor can
/// complete the shrink — leak-free.
#[test]
fn die_at_segment_retire_is_adopted_and_retire_completes() {
    silence_injected_deaths();
    let mut domain =
        WfrcDomain::<u64>::new(DomainConfig::new(3, 16).with_growth(Growth::doubling_to(4096)));
    let plan = Arc::new(FaultPlan::new(0xDEAD5E6));
    domain.set_fault_plan(Arc::clone(&plan));
    plan.arm_victim(
        0,
        FaultSite::SegmentRetire,
        FaultAction::Die,
        FireRule::Nth(1),
    );

    let victim = domain.register().unwrap();
    assert_eq!(victim.tid(), 0);
    std::thread::scope(|s| {
        let vt = s.spawn(move || {
            let pile: Vec<_> = (0..100)
                .map(|_| victim.alloc_with(|v| *v = 1).unwrap())
                .collect();
            drop(pile);
            // Claims the tail segment, then dies mid-DRAINING.
            let _ = victim.reclaim();
        });
        let err = vt.join().expect_err("victim must die at SegmentRetire");
        let death = err
            .downcast::<InjectedDeath>()
            .expect("panic payload must be InjectedDeath");
        assert_eq!(death.site, FaultSite::SegmentRetire);
    });

    // The corpse still owns the claim: a live reclaimer backs off rather
    // than touching the DRAINING segment.
    let h = domain.register().unwrap();
    assert_eq!(h.reclaim(), ReclaimOutcome::Contended);
    assert_eq!(domain.orphaned_threads(), 1);
    let report = domain.adopt_orphans();
    assert_eq!(report.orphans_adopted, 1);

    // Adoption reopened the segment; the successor completes the shrink.
    let mut retired = 0;
    let mut stalls = 0;
    loop {
        match h.reclaim() {
            ReclaimOutcome::Retired { .. } => {
                retired += 1;
                stalls = 0;
            }
            ReclaimOutcome::NoCandidate => break,
            _ => {
                stalls += 1;
                assert!(stalls < 100, "reclaim stuck after adoption");
                std::thread::yield_now();
            }
        }
    }
    assert!(retired >= 2, "adopted claim never completed: {retired}");
    assert_eq!(domain.resident_segments(), 1);
    assert_eq!(domain.capacity(), 16);
    drop(h);
    let leaks = domain.leak_check();
    assert!(leaks.is_clean(), "{leaks:?}");
}

/// A thread killed at `GrowSeed` **on a byte class** (not the node pool)
/// dies between winning the class arena's growth CAS and seeding the new
/// segment. The completion obligation seeds the segment before the unwind,
/// so the grown capacity stays visible; `adopt_orphans` then recovers the
/// corpse's class-side slot state (epoch, gift, class magazine), a
/// successor can allocate from the grown class, and the class shrinks back
/// to its floor — leak-free.
#[test]
fn die_at_class_grow_seed_is_adopted() {
    use wfrc::core::{ClassConfig, RawBytes};
    silence_injected_deaths();
    let mut domain = WfrcDomain::<u64>::new(
        // Node pool amply sized and growth-disabled: the armed GrowSeed
        // can only fire on the class pipeline.
        DomainConfig::new(THREADS, CAPACITY)
            .with_class(ClassConfig::new(64, 4).with_growth(Growth::doubling_to(1 << 14)))
            .with_class(
                ClassConfig::new(256, 4)
                    .with_growth(Growth::doubling_to(1 << 14))
                    .with_magazine(8),
            ),
    );
    let plan = Arc::new(FaultPlan::new(0xC1A55));
    domain.set_fault_plan(Arc::clone(&plan));
    plan.arm_victim(0, FaultSite::GrowSeed, FaultAction::Die, FireRule::Nth(1));
    let floor = domain.class_segments(1);

    let victim = domain.register().unwrap();
    assert_eq!(victim.tid(), 0);
    // Tokens escape the victim so its death leaks no live blocks: RawBytes
    // is Copy + Send, and any registered handle may free a token.
    let escaped: std::sync::Mutex<Vec<RawBytes>> = std::sync::Mutex::new(Vec::new());

    std::thread::scope(|s| {
        let escaped = &escaped;
        let vt = s.spawn(move || {
            // Hold ever more 256-class blocks: the first page's worth of
            // blocks runs out and the next alloc must grow the class.
            for i in 0..100_000usize {
                let tok = victim
                    .alloc_bytes(&[i as u8; 200])
                    .expect("class growth covers the pile");
                escaped.lock().unwrap().push(tok);
            }
        });
        let err = vt.join().expect_err("victim must die at the class grow");
        let death = err
            .downcast::<InjectedDeath>()
            .expect("panic payload must be InjectedDeath");
        assert_eq!(death.site, FaultSite::GrowSeed);
    });

    assert_eq!(domain.orphaned_threads(), 1);
    let report = domain.adopt_orphans();
    assert_eq!(report.orphans_adopted, 1);
    assert!(
        domain.class_segments(1) > floor,
        "the completion obligation must keep the grown segment visible"
    );

    // A successor sees the corpse's growth: it can free the escaped
    // tokens, keep allocating from the grown class, and shrink it back.
    let h = domain.register().unwrap();
    for tok in escaped.into_inner().unwrap() {
        assert_eq!(tok.class_index(), 1);
        // SAFETY: live tokens the victim transferred out; freed once each.
        unsafe { h.free_bytes(tok) };
    }
    let tok = h.alloc_bytes(&[7u8; 200]).expect("grown class serves");
    // SAFETY: `tok` is live and freed exactly once.
    unsafe { h.free_bytes(tok) };
    let mut stalls = 0;
    loop {
        match h.reclaim_class(1) {
            ReclaimOutcome::Retired { .. } => stalls = 0,
            ReclaimOutcome::NoCandidate => break,
            _ => {
                stalls += 1;
                assert!(stalls < 100, "class reclaim stuck after adoption");
                std::thread::yield_now();
            }
        }
    }
    assert_eq!(domain.class_segments(1), floor);
    drop(h);
    let leaks = domain.leak_check();
    assert!(leaks.is_clean(), "{leaks:?}");
}

/// The LFRC baseline shares the orphan/adoption model: a thread killed at
/// `site` — in the node pool, or with `class_traffic` inside a byte class,
/// which runs the same pool code — leaves its slot orphaned, and
/// `adopt_orphans` drains its magazines so `leak_check` stays clean.
fn lfrc_death_is_recovered(site: FaultSite, nth: u64, class_traffic: bool) {
    use wfrc::core::{ClassConfig, RawBytes};
    silence_injected_deaths();
    let mut domain = LfrcDomain::<u64>::new(2, CAPACITY);
    domain.set_magazine(8);
    domain.set_classes(vec![ClassConfig::new(256, 4)
        .with_growth(Growth::doubling_to(1 << 14))
        .with_magazine(4)]);
    let plan = Arc::new(FaultPlan::new(0x1F2C));
    domain.set_fault_plan(Arc::clone(&plan));
    plan.arm_victim(0, site, FaultAction::Die, FireRule::Nth(nth));
    let floor = domain.class_segments(0);
    // Tokens escape the victim so its death leaks no live blocks.
    let escaped: std::sync::Mutex<Vec<RawBytes>> = std::sync::Mutex::new(Vec::new());

    std::thread::scope(|s| {
        let (d, escaped) = (&domain, &escaped);
        let t = s.spawn(move || {
            let h = d.register().unwrap();
            for i in 0..1_000usize {
                if class_traffic {
                    // An ever-growing pile: every other alloc refills the
                    // class magazine, and the class must grow to serve it.
                    let tok = h.alloc_bytes(&[i as u8; 200]).expect("class grows");
                    escaped.lock().unwrap().push(tok);
                } else {
                    let n = h.alloc_raw().expect("pool sized");
                    // SAFETY: `n` is a live node this thread owns one count on.
                    unsafe { h.release_raw(n) };
                }
            }
        });
        let err = t.join().expect_err("victim must die at the armed site");
        let death = err
            .downcast::<InjectedDeath>()
            .expect("panic payload must be InjectedDeath");
        assert_eq!(death.site, site);
    });

    assert_eq!(domain.orphaned_threads(), 1);
    let report = domain.adopt_orphans();
    assert_eq!(report.orphans_adopted, 1);
    if site == FaultSite::GrowSeed {
        assert!(
            domain.class_segments(0) > floor,
            "the completion obligation must keep the grown segment visible"
        );
    }
    let h = domain.register().unwrap();
    for tok in escaped.into_inner().unwrap() {
        // SAFETY: live tokens the victim transferred out; freed once each.
        unsafe { h.free_bytes(tok) };
    }
    drop(h);
    let leaks = domain.leak_check();
    assert!(leaks.is_clean(), "{site:?}: {leaks}");
    assert_eq!(domain.adopt_orphans().orphans_adopted, 0);
}

#[test]
fn lfrc_die_mid_release_is_recovered() {
    lfrc_death_is_recovered(FaultSite::ReleaseFaa, 5, false);
}

#[test]
fn lfrc_die_inside_a_byte_class_is_recovered() {
    lfrc_death_is_recovered(FaultSite::GrowSeed, 1, true);
    lfrc_death_is_recovered(FaultSite::MagazineRefill, 3, true);
}

/// Mini-soak: repeated kill/adopt cycles against one long-lived domain with
/// every site armed probabilistically — the e10_chaos loop in miniature.
#[test]
fn soak_kill_adopt_cycles() {
    silence_injected_deaths();
    let (domain, plan) = faulted_domain(42);
    let links: Vec<Link<u64>> = (0..4).map(|_| Link::null()).collect();
    let survivor = domain.register().unwrap();
    let mut kills = 0usize;

    for round in 0..8 {
        plan.clear_arms();
        for site in FaultSite::ALL {
            plan.arm_victim(1, site, FaultAction::Die, FireRule::Chance(0.02));
        }
        let victim = domain.register().unwrap();
        assert_eq!(victim.tid(), 1, "adoption must free the slot for reuse");

        std::thread::scope(|s| {
            let links_ref = &links;
            let vt = s.spawn(move || {
                let mut held = Vec::new();
                for i in 0..50_000usize {
                    if let Ok(g) = victim.alloc_with(|v| *v = i as u64) {
                        victim.store(&links_ref[i % links_ref.len()], Some(&g));
                        if held.len() < 24 {
                            held.push(g);
                        }
                    }
                    if let Some(g) = victim.deref(&links_ref[(i + 1) % links_ref.len()]) {
                        std::hint::black_box(*g);
                    }
                    if i % 5 == 4 {
                        held.pop();
                    }
                    if i % 2_000 == 1_999 {
                        // Exercise SegmentRetire under Chance-armed death:
                        // a kill mid-DRAINING must be adoptable below.
                        let _ = victim.reclaim();
                    }
                }
            });
            survivor_quota(&survivor, &links, 500);
            if let Err(err) = vt.join() {
                err.downcast::<InjectedDeath>()
                    .unwrap_or_else(|_| panic!("round {round}: non-injected panic"));
                kills += 1;
                let report = domain.adopt_orphans();
                assert_eq!(report.orphans_adopted, 1);
            }
        });
    }

    assert!(
        kills >= 1,
        "Chance(0.02) across 8 rounds should kill at least once"
    );
    assert_eq!(domain.orphans_adopted(), kills);
    for l in &links {
        survivor.store(l, None);
    }
    drop(survivor);
    assert_eq!(domain.adopt_orphans().orphans_adopted, 0);
    let leaks = domain.leak_check();
    assert!(leaks.is_clean(), "soak leaked: {leaks:?}");
}
