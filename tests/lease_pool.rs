//! Lease-pool integration: many more threads than registration slots, each
//! blocking in `acquire` until a slot is free or handed over, always
//! ending with a clean [`wfrc::core::domain::LeakReport`]. Covers the
//! slot-exhaustion and recycling paths, the non-panicking `try_register`
//! surface on both schemes, the rapid register/drop slot-reuse regression,
//! and recovery of a dead tenant with live nodes owned by the corpse.

use wfrc::baselines::LfrcDomain;
use wfrc::core::lease::{LeaseConfig, LeasePool};
use wfrc::core::{DomainConfig, Link, WfrcDomain};
use wfrc::structures::RcMm;

fn domain(threads: usize, capacity: usize) -> WfrcDomain<u64> {
    WfrcDomain::new(DomainConfig::new(threads, capacity).with_magazine(8))
}

/// More threads than slots: every acquire eventually succeeds, every
/// lease comes back, and the domain ends leak-clean.
#[test]
fn thread_churn_over_few_slots() {
    const THREADS: usize = 16;
    const CYCLES: usize = 50;
    let d = domain(4, 1024);
    let pool = LeasePool::new(&d, LeaseConfig::new(4)).unwrap();
    let links: Vec<Link<u64>> = (0..8).map(|_| Link::null()).collect();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (pool, links) = (&pool, &links);
            s.spawn(move || {
                for i in 0..CYCLES {
                    let g = pool.acquire();
                    let node = g.alloc_with(|v| *v = (t * CYCLES + i) as u64).unwrap();
                    g.store(&links[(t + i) % links.len()], Some(&node));
                    if let Some(seen) = g.deref(&links[i % links.len()]) {
                        std::hint::black_box(*seen);
                    };
                }
            });
        }
    });
    let stats = pool.stats();
    assert_eq!(stats.issued, (THREADS * CYCLES) as u64);
    assert_eq!(stats.issued, stats.released);
    let cleaner = pool.acquire();
    for l in &links {
        cleaner.store(l, None);
    }
    drop(cleaner);
    drop(pool);
    let leak = d.leak_check();
    assert!(leak.is_clean(), "thread churn must end clean: {leak:?}");
}

/// All slots held ⇒ `try_acquire` reports exhaustion (and counts it);
/// releasing any lease makes the next attempt succeed.
#[test]
fn exhaustion_and_recycling() {
    let d = domain(2, 64);
    let pool = LeasePool::new(&d, LeaseConfig::new(2)).unwrap();
    let a = pool.try_acquire().unwrap();
    let b = pool.try_acquire().unwrap();
    assert_ne!(a.tid(), b.tid());
    assert!(pool.try_acquire().is_err());
    assert!(pool.stats().exhausted >= 1);
    drop(a);
    let c = pool.try_acquire().expect("released slot is reusable");
    drop(c);
    drop(b);
    drop(pool);
    assert!(d.leak_check().is_clean());
}

/// Satellite: `try_register` is the non-panicking registration surface on
/// both schemes — a full registry is an `Err`, not a crash.
#[test]
fn try_register_reports_a_full_registry() {
    let d = domain(2, 64);
    let h0 = d.try_register().unwrap();
    let h1 = d.try_register().unwrap();
    assert!(d.try_register().is_err());
    drop(h1);
    let h1b = d.try_register().expect("dropped slot is reusable");
    drop(h1b);
    drop(h0);
    assert!(d.leak_check().is_clean());

    let l = LfrcDomain::<u64>::new(2, 64);
    let b0 = l.try_register().unwrap();
    let b1 = l.try_register().unwrap();
    assert!(l.try_register().is_err());
    drop(b0);
    drop(b1);
    assert!(l.leak_check().is_clean());
}

/// Regression (handle-drop ordering): rapid register/drop cycles reusing
/// the same slot id must drain the magazine before the slot is marked
/// free — a leak or double-free here shows up in the per-cycle audit.
#[test]
fn rapid_register_drop_reuses_the_slot_cleanly() {
    let d = domain(2, 256);
    let observer = d.register().unwrap();
    let expected_tid = {
        let h = d.try_register().unwrap();
        h.tid()
    };
    for i in 0..100u64 {
        let h = d.try_register().unwrap();
        assert_eq!(h.tid(), expected_tid, "cycles must reuse the same slot");
        // Fill the magazine (allocs) and feed it (guard drops), so the
        // drop path has a non-empty magazine to drain every cycle.
        for j in 0..20u64 {
            let g = h.alloc_with(|v| *v = i * 100 + j).unwrap();
            drop(g);
        }
        drop(h);
        let leak = d.leak_check();
        assert!(leak.is_clean(), "cycle {i} leaked: {leak:?}");
    }
    drop(observer);
    assert!(d.leak_check().is_clean());
}

/// Same regression through the pool: acquire/release cycles on one slot
/// keep the magazine accounted while it is returned hot.
#[test]
fn lease_cycles_keep_magazines_accounted() {
    let d = domain(1, 256);
    let pool = LeasePool::new(&d, LeaseConfig::new(1)).unwrap();
    for _ in 0..50 {
        let g = pool.acquire();
        for j in 0..20u64 {
            let n = g.alloc_with(|v| *v = j).unwrap();
            drop(n);
        }
    }
    drop(pool);
    let leak = d.leak_check();
    assert!(leak.is_clean(), "leaked: {leak:?}");
}

/// Recovery with state at stake: a tenant dies holding its lease (its
/// guard unwinds and orphans the slot); the corpse's stored node survives
/// (shared structure is untouched), its handle is adopted, and the slot
/// serves a fresh tenant that can read what the dead one wrote.
#[test]
fn expired_tenant_is_adopted_with_its_nodes() {
    let d = domain(2, 64);
    let pool = LeasePool::new(&d, LeaseConfig::new(1)).unwrap();
    let link: Link<u64> = Link::null();
    let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let g = pool.acquire();
        let node = g.alloc_with(|v| *v = 777).unwrap();
        g.store(&link, Some(&node));
        drop(node);
        std::panic::resume_unwind(Box::new("the task perishes holding its lease"));
    }));
    assert!(died.is_err());
    let report = pool.recover_orphaned();
    assert_eq!(pool.stats().panic_orphans, 1);
    assert_eq!(report.recovered, 1);
    assert_eq!(report.adopt.orphans_adopted, 1);
    let g = pool.acquire();
    let seen = g.deref(&link).expect("dead tenant's write survives");
    assert_eq!(*seen, 777);
    drop(seen);
    g.store(&link, None);
    drop(g);
    drop(pool);
    let leak = d.leak_check();
    assert!(leak.is_clean(), "recovery must end clean: {leak:?}");
}

/// The LFRC mirror: the same pool runs over the baseline domain.
#[test]
fn lfrc_pool_churns_leak_free() {
    const THREADS: usize = 8;
    const CYCLES: usize = 25;
    let d = LfrcDomain::<u64>::new(2, 512);
    let pool = LeasePool::new(&d, LeaseConfig::new(2)).unwrap();
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let pool = &pool;
            s.spawn(move || {
                for _ in 0..CYCLES {
                    let g = pool.acquire();
                    for _ in 0..8 {
                        let node = g.alloc_node().unwrap();
                        // SAFETY: we own the alloc reference, freed once.
                        unsafe { g.release_node(node) };
                    }
                }
            });
        }
    });
    assert_eq!(pool.stats().issued, (THREADS * CYCLES) as u64);
    drop(pool);
    assert!(d.leak_check().is_clean());
}
