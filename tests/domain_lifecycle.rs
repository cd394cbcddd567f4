//! Domain and handle lifecycle: registration churn, out-of-memory
//! behaviour and recovery, payload drop correctness, and the domain-level
//! invariants that hold across all of it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use wfrc::core::{DomainConfig, Link, RcObject, WfrcDomain};

#[test]
fn register_unregister_churn_across_threads() {
    let domain = Arc::new(WfrcDomain::<u64>::new(DomainConfig::new(3, 64)));
    let workers: Vec<_> = (0..6)
        .map(|_| {
            let domain = Arc::clone(&domain);
            std::thread::spawn(move || {
                for _ in 0..500 {
                    // Only 3 slots for 6 threads: registration can fail;
                    // back off and retry.
                    let h = loop {
                        match domain.register() {
                            Ok(h) => break h,
                            Err(_) => std::thread::yield_now(),
                        }
                    };
                    let n = h.alloc_with(|v| *v = 7).unwrap();
                    assert_eq!(*n, 7);
                    drop(n);
                    drop(h); // slot released for the other threads
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(domain.registered_threads(), 0);
    assert!(domain.leak_check().is_clean());
}

#[test]
fn oom_is_reported_and_recoverable_under_concurrency() {
    const THREADS: usize = 4;
    let domain = Arc::new(WfrcDomain::<u64>::new(DomainConfig::new(THREADS, 8)));
    let failures = Arc::new(AtomicU64::new(0));
    let successes = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let domain = Arc::clone(&domain);
            let failures = Arc::clone(&failures);
            let successes = Arc::clone(&successes);
            std::thread::spawn(move || {
                let h = domain.register().unwrap();
                let mut held = Vec::new();
                for i in 0..2_000u64 {
                    if i % 7 < 4 {
                        match h.alloc_with(|v| *v = i) {
                            Ok(n) => {
                                held.push(n);
                                successes.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(_) => {
                                failures.fetch_add(1, Ordering::SeqCst);
                                held.pop(); // free one up and move on
                            }
                        }
                    } else {
                        held.pop();
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    assert!(successes.load(Ordering::SeqCst) > 0);
    // With 4 threads hoarding on an 8-node pool, OOM must have fired.
    assert!(failures.load(Ordering::SeqCst) > 0, "pool never exhausted?");
    assert!(domain.leak_check().is_clean(), "{:?}", domain.leak_check());
}

/// Payload values must be dropped exactly once across node reuse: the old
/// value is dropped when `alloc_with`'s initializer overwrites it, and the
/// final generation when the arena is dropped.
#[test]
fn payload_values_drop_exactly_once() {
    static DROPS: AtomicU64 = AtomicU64::new(0);
    static CREATED: AtomicU64 = AtomicU64::new(0);

    struct Tracked(#[allow(dead_code)] u64);
    impl Tracked {
        fn new(v: u64) -> Self {
            CREATED.fetch_add(1, Ordering::SeqCst);
            Tracked(v)
        }
    }
    impl Drop for Tracked {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }
    #[derive(Default)]
    struct Holder(Option<Tracked>);

    impl RcObject for Holder {
        fn each_link(&self, _f: &mut dyn FnMut(&Link<Self>)) {}
    }

    DROPS.store(0, Ordering::SeqCst);
    CREATED.store(0, Ordering::SeqCst);
    {
        let domain = WfrcDomain::<Holder>::new(DomainConfig::new(1, 4));
        let h = domain.register().unwrap();
        for i in 0..100 {
            let n = h.alloc_with(|p| p.0 = Some(Tracked::new(i))).unwrap();
            drop(n); // node recycled; value stays until overwritten
        }
        drop(h);
    } // domain drop: arena drops the last generation of payloads
    assert_eq!(
        DROPS.load(Ordering::SeqCst),
        CREATED.load(Ordering::SeqCst),
        "every Tracked dropped exactly once"
    );
    assert_eq!(CREATED.load(Ordering::SeqCst), 100);
}

#[test]
fn leak_check_classifies_all_states() {
    let domain = WfrcDomain::<u64>::new(DomainConfig::new(2, 8));
    let h = domain.register().unwrap();
    // live
    let a = h.alloc_with(|v| *v = 1).unwrap();
    let _b = h.alloc_with(|v| *v = 2).unwrap();
    // freed (possibly parked as a gift)
    let c = h.alloc_with(|v| *v = 3).unwrap();
    drop(c);
    let r = domain.leak_check();
    assert_eq!(r.capacity, 8);
    assert_eq!(r.live_nodes, 2);
    assert_eq!(r.corrupt_nodes, 0);
    assert_eq!(r.free_nodes + r.parked_gifts + r.live_nodes, 8);
    assert!(!r.is_clean());
    drop(a);
    drop(_b);
    drop(h);
    assert!(domain.leak_check().is_clean());
}

#[test]
fn link_reuse_after_clear() {
    let domain = WfrcDomain::<u64>::new(DomainConfig::new(1, 4));
    let h = domain.register().unwrap();
    let link = Link::null();
    for gen in 0..50u64 {
        let n = h.alloc_with(|v| *v = gen).unwrap();
        h.store(&link, Some(&n));
        drop(n);
        let g = h.deref(&link).unwrap();
        assert_eq!(*g, gen);
        drop(g);
        h.store(&link, None);
        assert!(link.is_null());
    }
    drop(h);
    assert!(domain.leak_check().is_clean());
}

#[test]
fn max_threads_domain_boundary() {
    // The paper's matrices are N x N; make sure the largest supported N
    // constructs and operates.
    let n = wfrc::core::MAX_THREADS;
    let domain = WfrcDomain::<u64>::new(DomainConfig::new(n, n * 2));
    let handles: Vec<_> = (0..8).map(|_| domain.register().unwrap()).collect();
    for h in &handles {
        let g = h.alloc_with(|v| *v = h.tid() as u64).unwrap();
        assert_eq!(*g, h.tid() as u64);
    }
    drop(handles);
    assert!(domain.leak_check().is_clean());
}

#[test]
#[should_panic(expected = "max_threads")]
fn too_many_threads_rejected() {
    let _ = WfrcDomain::<u64>::new(DomainConfig::new(wfrc::core::MAX_THREADS + 1, 4));
}

#[test]
fn custom_oom_bound_respected() {
    // Exhaustion under the footnote-4 bound (`alloc_retry_bound`) is
    // reported, not a hang or UB, and a free makes the pool usable again.
    let domain = WfrcDomain::<u64>::new(DomainConfig::new(1, 1));
    let h = domain.register().unwrap();
    let a = h.alloc_with(|_| {}).unwrap();
    assert!(h.alloc_with(|_| {}).is_err());
    drop(a);
    assert!(h.alloc_with(|_| {}).is_ok());
}

/// A thread that panics mid-work must leave its slot *orphaned*, not free:
/// the slot is unusable until [`WfrcDomain::adopt_orphans`] recovers its
/// parked resources, after which registration hands out the same tid again.
#[test]
fn panicked_thread_is_orphaned_then_adopted_and_slot_reused() {
    let domain = WfrcDomain::<u64>::new(DomainConfig::new(2, 32).with_magazine(4));
    let link = Link::null();
    std::thread::scope(|s| {
        let d = &domain;
        let link_ref = &link;
        let t = s.spawn(move || {
            let h = d.register().unwrap();
            assert_eq!(h.tid(), 0);
            for i in 0..16u64 {
                let g = h.alloc_with(|v| *v = i).unwrap();
                h.store(link_ref, Some(&g));
            }
            // Free one node outright so the magazine is provably non-empty
            // when the thread dies.
            drop(h.alloc_with(|v| *v = 99).unwrap());
            panic!("synthetic crash");
        });
        assert!(t.join().is_err());
    });

    assert_eq!(domain.orphaned_threads(), 1);
    let h1 = domain.register().unwrap();
    assert_eq!(h1.tid(), 1, "the orphaned slot must not be handed out");
    assert!(
        domain.register().is_err(),
        "slot 0 is orphaned, not free: registration must fail"
    );

    let report = domain.adopt_orphans();
    assert_eq!(report.orphans_adopted, 1);
    assert!(
        report.magazine_nodes_recovered >= 1,
        "the crashed thread's magazine must be drained: {report:?}"
    );
    assert_eq!(domain.orphan_nodes_recovered(), report.nodes_recovered());

    let h0 = domain.register().unwrap();
    assert_eq!(h0.tid(), 0, "adoption must reopen the crashed slot");
    h0.store(&link, None);
    drop(h0);
    drop(h1);
    assert!(domain.leak_check().is_clean());
}

/// `abandon` is the deliberate-crash API: the slot goes straight to
/// orphaned, and a second `adopt_orphans` finds nothing (the slot CAS makes
/// adoption exactly-once even when called repeatedly or concurrently).
#[test]
fn abandon_then_double_adoption_is_idempotent() {
    let domain = WfrcDomain::<u64>::new(DomainConfig::new(1, 16).with_magazine(4));
    let h = domain.register().unwrap();
    drop(h.alloc_with(|v| *v = 7).unwrap());
    h.abandon();

    assert_eq!(domain.orphaned_threads(), 1);
    assert!(
        domain.register().is_err(),
        "abandoned slot unusable before adoption"
    );

    let first = domain.adopt_orphans();
    assert_eq!(first.orphans_adopted, 1);
    let second = domain.adopt_orphans();
    assert_eq!(second.orphans_adopted, 0);
    assert_eq!(second.nodes_recovered(), 0);
    assert_eq!(domain.orphans_adopted(), 1);

    drop(domain.register().unwrap());
    assert!(domain.leak_check().is_clean());
}

/// The LFRC baseline shares the orphan model: an abandoned handle's
/// magazine is recovered by its `adopt_orphans`.
#[test]
fn lfrc_abandoned_handle_is_adopted() {
    let mut domain = wfrc::baselines::LfrcDomain::<u64>::new(2, 32);
    domain.set_magazine(4);
    let h = domain.register().unwrap();
    for _ in 0..8 {
        let n = h.alloc_raw().unwrap();
        // SAFETY: `n` is a live node this thread owns one count on.
        unsafe { h.release_raw(n) };
    }
    assert!(h.magazine_len() > 0);
    h.abandon();

    assert_eq!(domain.orphaned_threads(), 1);
    let report = domain.adopt_orphans();
    assert_eq!(report.orphans_adopted, 1);
    assert!(report.magazine_nodes_recovered >= 1);
    assert!(domain.leak_check().is_clean());
    assert_eq!(domain.adopt_orphans().orphans_adopted, 0);
}

/// Byte-class allocations run the pool's one `AllocNode`, so they show up
/// in the free-list counters like node allocations do, under both schemes.
#[test]
fn class_allocs_are_counted_as_allocs() {
    use wfrc::core::ClassConfig;
    use wfrc::structures::{ByteMm, RcMm, RcMmDomain};
    const N: u64 = 50;

    fn check<D: RcMmDomain<u64>>(domain: &D)
    where
        for<'d> D::Handle<'d>: ByteMm,
    {
        let h = domain.register_mm().unwrap();
        let tokens: Vec<_> = (0..N).map(|_| h.alloc_value(b"x").unwrap()).collect();
        let snap = h.counter_snapshot();
        assert_eq!(snap.alloc_calls, N, "{}", domain.scheme_name());
        assert!(snap.alloc_iters >= N, "{}", domain.scheme_name());
        assert!(snap.max_alloc_iters >= 1, "{}", domain.scheme_name());
        for t in tokens {
            // SAFETY: live, owned, freed once.
            unsafe { h.free_value(t) };
        }
        drop(h);
        assert!(domain.leak_check_mm().is_clean());
    }

    let class = ClassConfig::new(64, 64);
    check(&WfrcDomain::<u64>::new(
        DomainConfig::new(1, 4).with_class(class.clone()),
    ));
    let mut lf = wfrc::baselines::LfrcDomain::<u64>::new(1, 4);
    lf.set_classes(vec![class]);
    check(&lf);
}

/// Adoption racing a *live* helper: a victim dies between the announcement
/// publish and its own count acquisition, then a surviving writer keeps
/// retargeting the announced link (its `HelpDeRef` may answer the dead
/// thread's announcement) while the main thread adopts the orphan. The
/// retract-vs-answer CAS makes exactly one side responsible for the count,
/// whichever order the race resolves in.
#[cfg(feature = "fault-injection")]
#[test]
fn adoption_races_live_helper_without_leaks() {
    use wfrc::core::fault::silence_injected_deaths;
    use wfrc::core::{FaultAction, FaultPlan, FaultSite, FireRule};

    silence_injected_deaths();
    for round in 0..20u64 {
        let mut domain = WfrcDomain::<u64>::new(DomainConfig::new(3, 64).with_magazine(8));
        let plan = Arc::new(FaultPlan::new(round));
        domain.set_fault_plan(Arc::clone(&plan));
        plan.arm_victim(0, FaultSite::DerefFaa, FaultAction::Die, FireRule::Nth(1));
        plan.swing_every_deref(0);

        let link = Link::null();
        let victim = domain.register().unwrap();
        let helper = domain.register().unwrap();
        std::thread::scope(|s| {
            let link_ref = &link;
            {
                let g = helper.alloc_with(|v| *v = 1).unwrap();
                helper.store(link_ref, Some(&g));
            }
            let vt = s.spawn(move || {
                // Dies with its announcement still pointing at `link`.
                let _ = victim.deref(link_ref);
            });
            assert!(vt.join().is_err());

            let d = &domain;
            let ht = s.spawn(move || {
                for i in 0..100u64 {
                    if let Ok(n) = helper.alloc_with(|v| *v = i) {
                        helper.store(link_ref, Some(&n));
                    }
                }
                helper.store(link_ref, None);
            });
            let report = d.adopt_orphans();
            assert_eq!(report.orphans_adopted, 1);
            ht.join().unwrap();
        });
        let leaks = domain.leak_check();
        assert!(leaks.is_clean(), "round {round} leaked: {leaks:?}");
    }
}
