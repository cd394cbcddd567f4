//! Fault-injection over the lease pool: a task killed at the
//! `LeaseCheckout` site (mid-checkout, right after the guard is built) and
//! at every generic armed site *while holding a lease* must be recovered
//! by [`LeasePool::recover_orphaned`] routing the corpse through the
//! domain's orphan adoption — no leaked nodes, no lost slot.
//!
//! Built only with `--features fault-injection`.

#![cfg(feature = "fault-injection")]

use std::sync::Arc;

use wfrc::core::fault::silence_injected_deaths;
use wfrc::core::lease::{LeaseConfig, LeasePool};
use wfrc::core::{
    DomainConfig, FaultAction, FaultPlan, FaultSite, FireRule, Growth, InjectedDeath, Link,
    ThreadHandle, WfrcDomain,
};

const CAPACITY: usize = 64;
const SURVIVOR_QUOTA: usize = 2_000;

/// Same shape as `tests/fault_injection.rs`: magazines + growth so a dead
/// leaseholder pinning nodes can never starve the survivor.
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

/// The generic site-reaching churn from `tests/fault_injection.rs`, run
/// through a *leased* handle instead of an owned one.
fn leased_victim_loop(h: &ThreadHandle<'_, u64>, links: &[Link<u64>], plan: &FaultPlan) {
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
                // Weak churn through the leased handle (PR 10): reaches
                // the `WeakUpgrade` site while the lease is held.
                let w = h.downgrade(&g);
                drop(w.upgrade());
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
        };
    }
}

/// Death at an armed site while holding a lease: the unwinding guard
/// marks the slot ORPHANED, `recover_orphaned` abandons the corpse, adopts
/// it, and re-registers a fresh handle — the slot survives its tenant.
fn run_leased_site_scenario(site: FaultSite) {
    silence_injected_deaths();
    let (domain, plan) = faulted_domain(0x1EA5E ^ site as u64);
    // The pool registers tids 0 and 1; the first acquire lands on slot 0
    // (fresh rotor), so only tid 0 is armed — the survivor (tid 2) and
    // slot 1's idle handle never fire.
    plan.arm_victim(0, site, FaultAction::Die, FireRule::Nth(1));
    plan.swing_every_deref(0);
    let pool = LeasePool::new(&domain, LeaseConfig::new(2)).unwrap();
    let survivor = domain.register().unwrap();
    assert_eq!(survivor.tid(), 2);
    let links: Vec<Link<u64>> = (0..4).map(|_| Link::null()).collect();

    std::thread::scope(|s| {
        let (pool_ref, links_ref, plan_ref) = (&pool, &links, &*plan);
        let vt = s.spawn(move || {
            let g = pool_ref.acquire();
            assert_eq!(g.tid(), 0, "first acquire must land on the armed slot");
            leased_victim_loop(&g, links_ref, plan_ref);
        });
        let err = vt.join().expect_err("victim must die at the armed site");
        let death = err
            .downcast::<InjectedDeath>()
            .expect("panic payload must be InjectedDeath");
        assert_eq!(death.site, site);
        // The survivor makes its quota while the corpse still owns slot 0.
        survivor_quota(&survivor, &links, SURVIVOR_QUOTA);
    });

    assert_eq!(pool.stats().panic_orphans, 1, "guard must orphan on unwind");
    let report = pool.recover_orphaned();
    assert_eq!(report.recovered, 1, "the corpse's slot must come back");
    assert_eq!(report.adopt.orphans_adopted, 1, "{site:?}");

    // The recovered slot serves again.
    let g = pool.try_acquire().expect("recovered slot is reusable");
    drop(g);
    for l in &links {
        survivor.store(l, None);
    }
    drop(survivor);
    drop(pool);
    assert_eq!(domain.adopt_orphans().orphans_adopted, 0);
    let leaks = domain.leak_check();
    assert!(leaks.is_clean(), "leaks after {}: {leaks:?}", site.name());
}

macro_rules! leased_site_scenarios {
    ($($name:ident => $site:expr;)*) => {
        $(
            #[test]
            fn $name() {
                run_leased_site_scenario($site);
            }
        )*
    };
}

leased_site_scenarios! {
    leased_announce_publish_die => FaultSite::AnnouncePublish;
    leased_deref_faa_die => FaultSite::DerefFaa;
    leased_release_faa_die => FaultSite::ReleaseFaa;
    leased_stripe_swap_die => FaultSite::StripeSwap;
    leased_magazine_refill_die => FaultSite::MagazineRefill;
    leased_magazine_drain_die => FaultSite::MagazineDrain;
    leased_grow_seed_die => FaultSite::GrowSeed;
    leased_summary_clear_die => FaultSite::SummaryClear;
    leased_weak_upgrade_die => FaultSite::WeakUpgrade;
}

/// Lease recovery while the tenant holds a `Weak`. The
/// tenant publishes a strong link and a weak link, then dies at the armed
/// `WeakUpgrade` site still holding the lease; `recover_orphaned` routes the
/// corpse through adoption, and a fresh tenant can still upgrade through
/// the standing weak link — the weak unit belongs to the link, not to the
/// dead tenant.
#[test]
fn recovery_keeps_a_dead_tenants_weak_link() {
    use wfrc::core::AtomicWeak;
    silence_injected_deaths();
    let (domain, plan) = faulted_domain(0x3A2B);
    plan.arm_victim(
        0,
        FaultSite::WeakUpgrade,
        FaultAction::Die,
        FireRule::Nth(1),
    );
    let pool = LeasePool::new(&domain, LeaseConfig::new(2)).unwrap();
    let link: Link<u64> = Link::null();
    let weak_link: AtomicWeak<u64> = AtomicWeak::null();

    std::thread::scope(|s| {
        let (pool_ref, link, weak_link) = (&pool, &link, &weak_link);
        let vt = s.spawn(move || {
            let g = pool_ref.acquire();
            assert_eq!(g.tid(), 0, "first acquire must land on the armed slot");
            let node = g.alloc_with(|v| *v = 321).unwrap();
            g.store(link, Some(&node));
            g.store_weak(weak_link, Some(&node));
            let w = g.downgrade(&node);
            drop(node);
            let _ = w.upgrade(); // armed: dies holding lease + Weak
            unreachable!("WeakUpgrade never fired");
        });
        let err = vt.join().expect_err("victim must die at WeakUpgrade");
        let death = err
            .downcast::<InjectedDeath>()
            .expect("panic payload must be InjectedDeath");
        assert_eq!(death.site, FaultSite::WeakUpgrade);
    });

    assert_eq!(pool.stats().panic_orphans, 1, "guard must orphan on unwind");
    let report = pool.recover_orphaned();
    assert_eq!(report.recovered, 1, "the corpse's slot must come back");
    assert_eq!(report.adopt.orphans_adopted, 1);

    // The weak tier survived the tenant: a fresh lease upgrades through
    // the standing weak link and reads the dead tenant's write.
    let g = pool.try_acquire().expect("recovered slot is reusable");
    {
        let got = g.load_weak(&weak_link).expect("target still strongly held");
        assert_eq!(*got, 321);
    }
    g.store(&link, None);
    assert!(
        g.load_weak(&weak_link).is_none(),
        "strong count drained — the weak link must refuse"
    );
    g.store_weak(&weak_link, None);
    drop(g);
    drop(pool);
    let leaks = domain.leak_check();
    assert!(leaks.is_clean(), "{leaks:?}");
    assert_eq!(leaks.weak_count, 0, "{leaks:?}");
}

/// Death at `LeaseCheckout` itself: the guard exists but has not reached
/// the caller. The unwind drops it, which orphans the slot, and recovery
/// brings it back — no deadline involved.
#[test]
fn lease_checkout_die_is_recovered_by_adoption() {
    silence_injected_deaths();
    let (domain, plan) = faulted_domain(0xDEAD1EA5);
    plan.arm_victim(
        0,
        FaultSite::LeaseCheckout,
        FaultAction::Die,
        FireRule::Nth(1),
    );
    let pool = LeasePool::new(&domain, LeaseConfig::new(1)).unwrap();

    let err = std::thread::scope(|s| {
        let pool_ref = &pool;
        s.spawn(move || {
            let g = pool_ref.acquire();
            unreachable!("checkout must die before the guard is returned: {g:?}")
        })
        .join()
        .expect_err("victim must die at LeaseCheckout")
    });
    let death = err
        .downcast::<InjectedDeath>()
        .expect("panic payload must be InjectedDeath");
    assert_eq!(death.site, FaultSite::LeaseCheckout);
    assert_eq!(pool.leased(), 1, "the orphaned slot is out of circulation");
    let stats = pool.stats();
    assert_eq!((stats.issued, stats.panic_orphans), (1, 1));

    let report = pool.recover_orphaned();
    assert_eq!(report.recovered, 1);
    assert_eq!(report.adopt.orphans_adopted, 1);

    let g = pool.try_acquire().expect("recovered slot is reusable");
    drop(g);
    drop(pool);
    assert!(domain.leak_check().is_clean());
}

/// The same death over the LFRC baseline: its pool recovers through the
/// same orphan path.
#[test]
fn lfrc_lease_checkout_die_is_recovered() {
    use wfrc::baselines::LfrcDomain;
    silence_injected_deaths();
    let mut domain = LfrcDomain::<u64>::new(2, CAPACITY);
    let plan = Arc::new(FaultPlan::new(0xBA5E));
    domain.set_fault_plan(Arc::clone(&plan));
    plan.arm_victim(
        0,
        FaultSite::LeaseCheckout,
        FaultAction::Die,
        FireRule::Nth(1),
    );
    let pool = LeasePool::new(&domain, LeaseConfig::new(1)).unwrap();

    let err = std::thread::scope(|s| {
        let pool_ref = &pool;
        s.spawn(move || {
            let g = pool_ref.acquire();
            unreachable!(
                "checkout must die before the guard is returned: {:?}",
                g.tid()
            )
        })
        .join()
        .expect_err("victim must die at LeaseCheckout")
    });
    let death = err
        .downcast::<InjectedDeath>()
        .expect("panic payload must be InjectedDeath");
    assert_eq!(death.site, FaultSite::LeaseCheckout);
    assert_eq!(pool.stats().panic_orphans, 1);

    let report = pool.recover_orphaned();
    assert_eq!(report.recovered, 1);
    assert_eq!(report.adopt.orphans_adopted, 1);
    let g = pool.try_acquire().expect("recovered slot is reusable");
    drop(g);
    drop(pool);
    assert!(domain.leak_check().is_clean());
}
