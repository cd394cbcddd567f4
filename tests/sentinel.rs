//! Recovery of dead lease holders (DESIGN.md §7): the idempotent helpers
//! `LeasePool::recover_orphaned` and `Domain::adopt_orphans`, called by
//! whoever wants recovery — here the tests themselves.
//!
//! A lease orphaned by a holder's death is recovered once, however many
//! callers race; a slow holder keeps its slot however often recovery
//! runs. The per-site park/die half lives in `tests/fault_injection.rs`.

use std::time::Duration;

use wfrc::core::lease::{LeaseConfig, LeasePool};
use wfrc::core::{DomainConfig, WfrcDomain};

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

/// A lease whose holder died is healed by one `recover_orphaned` call; a
/// second call finds nothing.
#[test]
fn sentinel_recovers_a_forgotten_lease() {
    let domain = WfrcDomain::<u64>::new(DomainConfig::new(2, 64).with_magazine(4));
    let pool = LeasePool::new(&domain, LeaseConfig::new(2)).expect("pool fits domain");
    die_holding_lease(&pool, 7);

    assert_eq!(pool.recover_orphaned().recovered, 1);
    assert_eq!(pool.recover_orphaned().recovered, 0);
    let snap = pool.stats();
    assert_eq!(
        snap.panic_orphans, 1,
        "the dead slot is orphaned exactly once"
    );
    assert_eq!(snap.recovered, 1);

    // Full capacity is back: both slots check out concurrently.
    let (a, b) = (pool.acquire(), pool.acquire());
    drop((a, b));
    drop(pool);
    assert!(domain.leak_check().is_clean());
}

/// `recover_orphaned` and `adopt_orphans` stay safe and idempotent when
/// many callers race each other — every dead lease is orphaned exactly
/// once and recovered exactly once, no matter who gets there first.
#[test]
fn concurrent_expiry_adoption_and_ticks_recover_each_lease_once() {
    const SLOTS: usize = 4;
    const ROUNDS: usize = 25;
    let domain = WfrcDomain::<u64>::new(DomainConfig::new(SLOTS, 128).with_magazine(4));
    let pool = LeasePool::new(&domain, LeaseConfig::new(SLOTS)).expect("pool fits domain");

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
                        let _ = pool.recover_orphaned();
                        let _ = domain.adopt_orphans();
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
    drop(pool);
    assert!(domain.leak_check().is_clean());
}

/// A holder that sleeps inside its session for 300 ms — longer than any
/// lease deadline E12 ever used — keeps its slot while another thread
/// loops `recover_orphaned` and `adopt_orphans`: the pool's books do not
/// move (no checkout, release or recovery), nothing is adopted, and the
/// holder's next op reads its own write.
#[test]
fn slow_holder_keeps_its_slot() {
    let domain = WfrcDomain::<u64>::new(DomainConfig::new(2, 64));
    let pool = LeasePool::new(&domain, LeaseConfig::new(1)).expect("pool fits domain");
    let link = wfrc::core::Link::<u64>::null();
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let lease = pool.acquire();
        let node = lease.alloc_with(|v| *v = 42).expect("alloc");
        lease.store(&link, Some(&node));
        drop(node);
        let books = pool.stats();
        let meddler = s.spawn(|| {
            let mut passes = 0u64;
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                assert_eq!(pool.recover_orphaned().recovered, 0);
                assert_eq!(domain.adopt_orphans().orphans_adopted, 0);
                passes += 1;
                std::thread::yield_now();
            }
            passes
        });
        std::thread::sleep(Duration::from_millis(300));
        // Observe, stop the meddler, then assert: a failed assertion must
        // not leave the scope joining a thread that never stops.
        let seen = (pool.stats(), lease.deref(&link).map(|g| *g));
        lease.store(&link, None);
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        let passes = meddler.join().unwrap();
        assert_eq!(seen, (books, Some(42)), "the slot changed hands");
        assert!(passes > 2);
    });
    assert_eq!(pool.stats().recovered, 0);
    assert_eq!(domain.orphans_adopted(), 0);
    drop(pool);
    assert!(domain.leak_check().is_clean());
}
