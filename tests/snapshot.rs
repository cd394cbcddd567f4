//! Snapshot references (PR 9): epoch-pinned plain-load reads with
//! deferred reference counting (DESIGN.md §4f).
//!
//! The non-gated tests cover the protocol's safety surfaces: snapshots
//! stay readable across releases that would otherwise free the node, the
//! occupancy sweep treats a live pin as a retirement veto, deferred
//! releases are visible in the telemetry and drain on demand, and orphan
//! adoption running concurrently with pin/release churn never unbalances
//! the books. The `fault-injection`-gated half kills a thread mid-upgrade
//! with a non-empty deferred list and asserts adoption recovers every
//! node.

use wfrc::core::{DomainConfig, Growth, Link, ReclaimOutcome, WfrcDomain};
use wfrc::sim::exec::StopFlag;

#[test]
fn pin_snapshot_read_and_upgrade() {
    let d = WfrcDomain::<u64>::new(DomainConfig::new(2, 8));
    let h = d.register().unwrap();
    let link = Link::null();
    let g = h.alloc_with(|v| *v = 7).unwrap();
    h.store(&link, Some(&g));
    drop(g);

    let guard = h.pin();
    let snap = guard.snapshot(&link).expect("link is non-null");
    assert_eq!(*snap, 7);
    let owned = snap.upgrade().expect("link unchanged");
    assert_eq!(*owned, 7);
    // The owned reference outlives the guard (that is the point of the
    // upgrade): drop the guard first, then keep reading.
    drop(guard);
    assert_eq!(*owned, 7);
    drop(owned);

    let snap_counters = h.counters().snapshot();
    assert!(snap_counters.snapshot_derefs >= 1, "{snap_counters:?}");
    assert_eq!(snap_counters.upgrade_slow, 1, "{snap_counters:?}");

    h.store(&link, None);
    drop(h);
    let r = d.leak_check();
    assert!(r.is_clean(), "{r:?}");
    // The per-thread snapshot stats fold into the leak report on drop.
    assert!(r.snapshot_derefs >= 1, "{r:?}");
    assert_eq!(r.upgrade_slow, 1, "{r:?}");
}

#[test]
fn upgrade_after_retarget_returns_none() {
    let d = WfrcDomain::<u64>::new(DomainConfig::new(2, 8));
    let h = d.register().unwrap();
    let link = Link::null();
    let a = h.alloc_with(|v| *v = 1).unwrap();
    h.store(&link, Some(&a));

    let guard = h.pin();
    let snap = guard.snapshot(&link).expect("non-null");
    assert_eq!(*snap, 1);
    // Retarget the link while the snapshot is live: the snapshot still
    // reads the old node safely, but an upgrade must refuse it.
    let b = h.alloc_with(|v| *v = 2).unwrap();
    h.store(&link, Some(&b));
    assert_eq!(*snap, 1, "snapshot pins the observed node, not the link");
    assert!(snap.upgrade().is_none(), "link moved on — no owned ref");
    drop(guard);

    h.store(&link, None);
    drop((a, b));
    drop(h);
    assert!(d.leak_check().is_clean());
}

/// The §4f grace argument made concrete: a release that reaches count zero
/// while any pin is live must defer the free, so the snapshot keeps
/// reading valid memory even after every counted reference is gone.
#[test]
fn snapshot_survives_release_to_zero() {
    let d = WfrcDomain::<u64>::new(DomainConfig::new(2, 8));
    let h1 = d.register().unwrap();
    let h2 = d.register().unwrap();
    let link = Link::null();
    let g = h1.alloc_with(|v| *v = 42).unwrap();
    h1.store(&link, Some(&g));
    drop(g); // the link now holds the only count

    let guard = h2.pin();
    let snap = guard.snapshot(&link).expect("non-null");
    // Clear the link from the other handle: count reaches zero, and the
    // free must divert to h1's deferred list instead of the free-list.
    h1.store(&link, None);
    assert_eq!(*snap, 42, "deferred free keeps the snapshot readable");
    assert_eq!(h1.counters().snapshot().deferred_decs, 1);
    assert_eq!(d.deferred_len(), 1);
    assert!(snap.upgrade().is_none(), "node is dead — upgrade must fail");
    drop(guard);

    // With no pin live, the owner's drain frees the node wholesale.
    assert_eq!(h1.drain_deferred(), 1);
    assert_eq!(d.deferred_len(), 0);
    drop((h1, h2));
    let r = d.leak_check();
    assert!(r.is_clean(), "{r:?}");
    assert_eq!(r.deferred_decs, 1, "{r:?}");
}

/// Weak × snapshot interplay (PR 10): a node whose free was *deferred*
/// under a live pin is dead for the weak tier the moment its strong count
/// drains — the snapshot keeps reading the deferred memory, but a weak
/// upgrade must refuse it (death linearized at the claim, not the free).
#[test]
fn weak_upgrade_refuses_deferred_dead_node() {
    let d = WfrcDomain::<u64>::new(DomainConfig::new(2, 8));
    let h1 = d.register().unwrap();
    let h2 = d.register().unwrap();
    let link = Link::null();
    let g = h1.alloc_with(|v| *v = 42).unwrap();
    h1.store(&link, Some(&g));
    let w = h1.downgrade(&g);
    drop(g);

    let guard = h2.pin();
    let snap = guard.snapshot(&link).expect("non-null");
    // Release-to-zero under the pin: the claim is taken (the node is dead
    // to the weak tier) but the standing weak count holds the memory, so
    // nothing defers yet.
    h1.store(&link, None);
    assert_eq!(*snap, 42, "weak-held header keeps the memory readable");
    assert_eq!(d.deferred_len(), 0, "the weak count blocks the free");
    assert!(w.is_dead(), "claim taken at release-to-zero");
    assert!(w.upgrade().is_none(), "dead node must not upgrade");
    let mid = d.leak_check();
    assert_eq!(mid.weak_nodes, 1, "{mid:?}");
    assert_eq!(mid.weak_count, 1, "{mid:?}");

    // The last weak drop finalizes the header; with the pin still live
    // the free diverts to the deferred list — the snapshot reads on.
    drop(w);
    assert_eq!(d.deferred_len(), 1, "finalize under a pin must defer");
    assert_eq!(*snap, 42);
    drop(guard);
    // The unpin's opportunistic drain covers only h2's slot; the node
    // sits in h1's — an explicit drain frees it wholesale.
    assert_eq!(h1.drain_deferred(), 1);
    assert_eq!(d.deferred_len(), 0);
    drop((h1, h2));
    let r = d.leak_check();
    assert!(r.is_clean(), "{r:?}");
    assert_eq!(r.upgrade_failed, 1, "{r:?}");
}

/// Satellite 4 regression: a parked guard is a retirement veto — the
/// occupancy sweep must never retire a segment while any slot holds a live
/// pin epoch, exactly like the announcement-summary veto.
#[test]
fn parked_guard_vetoes_segment_retirement() {
    let d = WfrcDomain::<u64>::new(DomainConfig::new(2, 8).with_growth(Growth::doubling_to(256)));
    let h = d.register().unwrap();
    let pinner = d.register().unwrap();
    let guards: Vec<_> = (0..64).map(|_| h.alloc_with(|v| *v = 1).unwrap()).collect();
    let peak = d.resident_segments();
    assert!(peak >= 3, "never grew: {peak}");
    drop(guards);

    // Park a pin across what would otherwise be a full retire cycle.
    let guard = pinner.pin();
    for _ in 0..10 {
        let out = h.reclaim();
        assert!(
            !matches!(out, ReclaimOutcome::Retired { .. }),
            "retired a segment under a live pin: {out:?}"
        );
    }
    assert_eq!(
        d.resident_segments(),
        peak,
        "resident curve moved under pin"
    );
    drop(guard);

    // Pin released: the same quiescent state must now retire freely.
    let mut retired = 0;
    let mut stalls = 0;
    loop {
        match h.reclaim() {
            ReclaimOutcome::Retired { .. } => {
                retired += 1;
                stalls = 0;
            }
            ReclaimOutcome::NoCandidate => break,
            ReclaimOutcome::Contended | ReclaimOutcome::Aborted => {
                stalls += 1;
                assert!(stalls < 100, "reclaim livelocked");
                std::thread::yield_now();
            }
        }
    }
    assert!(retired >= 2, "nothing retired after unpin");
    assert_eq!(d.resident_segments(), 1);
    drop((h, pinner));
    assert!(d.leak_check().is_clean());
}

/// A guard leaked with `mem::forget` never runs its unpin; the handle's
/// drop must retract the still-published pin bit and restore epoch parity,
/// or every later release in the domain would defer forever and segment
/// retirement would stay vetoed.
#[test]
fn forgotten_pin_guard_is_retracted_by_handle_drop() {
    let d = WfrcDomain::<u64>::new(DomainConfig::new(2, 8).with_growth(Growth::doubling_to(256)));
    let h1 = d.register().unwrap();
    let h2 = d.register().unwrap();
    std::mem::forget(h1.pin());
    // The leaked pin suppresses frees domain-wide...
    let g = h2.alloc_with(|v| *v = 1).unwrap();
    drop(g);
    assert_eq!(d.deferred_len(), 1, "leaked pin must defer the free");
    // ...until the handle drop retracts it.
    drop(h1);
    assert_eq!(h2.drain_deferred(), 1);
    assert_eq!(d.deferred_len(), 0);
    // Releases free immediately again: no defer without a live pin.
    drop(h2.alloc_with(|v| *v = 2).unwrap());
    assert_eq!(d.deferred_len(), 0);

    // Epoch parity was restored too: a successor on the leaked slot can
    // run a full grow-and-retire cycle (an odd stuck epoch would make
    // every grace period fail).
    let h3 = d.register().unwrap();
    let grown: Vec<_> = (0..64)
        .map(|_| h3.alloc_with(|v| *v = 3).unwrap())
        .collect();
    assert!(d.resident_segments() >= 3);
    drop(grown);
    let mut retired = 0;
    let mut stalls = 0;
    loop {
        match h3.reclaim() {
            ReclaimOutcome::Retired { .. } => {
                retired += 1;
                stalls = 0;
            }
            ReclaimOutcome::NoCandidate => break,
            ReclaimOutcome::Contended | ReclaimOutcome::Aborted => {
                stalls += 1;
                assert!(stalls < 100, "reclaim livelocked after leaked pin");
                std::thread::yield_now();
            }
        }
    }
    assert!(retired >= 1, "leaked pin permanently vetoed retirement");
    drop((h2, h3));
    assert!(d.leak_check().is_clean());
}

/// The two-bucket grace condition end to end: under a live pin a drain
/// closes pending into aging (baseline = the pin's epoch) and frees
/// nothing; the batch frees only once that epoch can no longer recur —
/// even if the bitmap is never observed empty.
#[test]
fn aging_batch_frees_after_epoch_advance_under_new_pin() {
    let d = WfrcDomain::<u64>::new(DomainConfig::new(2, 8));
    let owner = d.register().unwrap();
    let reader = d.register().unwrap();
    let guard = reader.pin();
    drop(owner.alloc_with(|v| *v = 5).unwrap()); // defers: pin is live
    assert_eq!(d.deferred_len(), 1);
    // First drain under the pin: pending closes into aging, nothing frees.
    assert_eq!(owner.drain_deferred(), 0);
    assert_eq!(d.deferred_len(), 1);
    // Same pin session: the baseline epoch still matches — still held.
    assert_eq!(owner.drain_deferred(), 0);
    // A new pin session advanced the reader's epoch past the baseline, so
    // the batch frees although the pin bitmap is non-empty throughout.
    drop(guard);
    let guard2 = reader.pin();
    assert_eq!(owner.drain_deferred(), 1);
    assert_eq!(d.deferred_len(), 0);
    drop(guard2);
    drop((owner, reader));
    assert!(d.leak_check().is_clean());
}

/// Regression for the wholesale-drain race: a drain that finds the pin
/// bitmap empty must detach the pending chain *before* trusting that
/// emptiness — a reader pinning concurrently with a releaser's push could
/// otherwise have its snapshot freed under it. Hammer exactly that window:
/// a reader pinning/unpinning around snapshot reads, a writer releasing
/// into the deferred lists, and a drainer running wholesale drains.
#[test]
fn concurrent_pin_release_drain_churn() {
    const ITERS: usize = 20_000;
    let d =
        WfrcDomain::<u64>::new(DomainConfig::new(3, 256).with_growth(Growth::doubling_to(1024)));
    let link = Link::null();
    let stop = StopFlag::new();
    std::thread::scope(|s| {
        let (d, link, stop) = (&d, &link, &stop);
        let reader = s.spawn(move || {
            let h = d.register().unwrap();
            while !stop.is_stopped() {
                let guard = h.pin();
                if let Some(snap) = guard.snapshot(link) {
                    std::hint::black_box(*snap);
                }
                drop(guard);
            }
        });
        let drainer = s.spawn(move || {
            let h = d.register().unwrap();
            while !stop.is_stopped() {
                let _ = h.reclaim(); // drains every slot's deferred list
                std::thread::yield_now();
            }
        });
        let writer = s.spawn(move || {
            // Raised on unwind too: a writer dying on an assertion must end
            // the scope, not leave the reader and drainer spinning.
            let _stop = stop.stop_on_drop();
            let h = d.register().unwrap();
            for i in 0..ITERS {
                if let Ok(g) = h.alloc_with(|v| *v = i as u64) {
                    h.store(link, Some(&g));
                }
            }
            h.store(link, None);
        });
        writer.join().unwrap();
        reader.join().unwrap();
        drainer.join().unwrap();
    });
    let main = d.register().unwrap();
    let _ = main.reclaim();
    assert_eq!(d.deferred_len(), 0);
    drop(main);
    assert!(d.leak_check().is_clean());
}

/// `adopt_orphans` in a loop racing pin sessions, deferred releases, and
/// drains, while one worker abandons its handle mid-run: the adoption of
/// that corpse runs beside the other workers' drains, no merely-pinned
/// thread is seized, and the node books balance.
#[test]
fn sentinel_ticks_race_deferred_drains() {
    const LINKS: usize = 4;
    const WORKERS: usize = 3;
    const OPS: usize = 4_000;
    let d = WfrcDomain::<u64>::new(
        DomainConfig::new(WORKERS + 1, 512).with_growth(Growth::doubling_to(4096)),
    );
    let links: Vec<Link<u64>> = (0..LINKS).map(|_| Link::null()).collect();
    let stop = StopFlag::new();
    let main = d.register().unwrap();
    // A standing pin on the supervisor thread guarantees every
    // release-to-zero in the churn below is a deferred dec.
    let standing = main.pin();

    std::thread::scope(|s| {
        let (d, links, stop) = (&d, &links, &stop);
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                s.spawn(move || {
                    let h = d.register().unwrap();
                    for i in 0..OPS {
                        if w == 0 && i == OPS / 2 {
                            // A crash mid-run, deferred list and all.
                            h.abandon();
                            return;
                        }
                        if let Ok(g) = h.alloc_with(|v| *v = i as u64) {
                            h.store(&links[(i + w) % LINKS], Some(&g));
                        }
                        let guard = h.pin();
                        if let Some(snap) = guard.snapshot(&links[(i + 1) % LINKS]) {
                            std::hint::black_box(*snap);
                            if i % 17 == 0 {
                                drop(snap.upgrade());
                            }
                        }
                        drop(guard);
                        if i % 256 == 255 {
                            let _ = h.drain_deferred();
                        }
                    }
                })
            })
            .collect();
        let ticker = s.spawn(move || loop {
            // One last pass after the stop is seen: the abandon happened
            // before it, so that pass cannot miss the corpse.
            let stopped = stop.is_stopped();
            d.adopt_orphans();
            if stopped {
                break;
            }
            std::thread::yield_now();
        });
        // Dropped before the join below, and on a worker's panic.
        let stopper = stop.stop_on_drop();
        for w in workers {
            w.join().unwrap();
        }
        drop(stopper);
        ticker.join().unwrap();
    });

    for l in &links {
        main.store(l, None);
    }
    drop(standing);
    // The workers' slots may still hold deferred nodes (their final drains
    // ran under the standing pin); a reclaim pass drains every slot.
    let _ = main.reclaim();
    assert_eq!(d.deferred_len(), 0);
    drop(main);
    assert_eq!(
        d.orphans_adopted(),
        1,
        "only the abandoned handle is adopted"
    );
    let r = d.leak_check();
    assert!(r.is_clean(), "{r}");
    assert!(r.deferred_decs > 0, "standing pin never forced a defer");
    assert!(r.snapshot_derefs > 0, "{r:?}");
}

#[cfg(feature = "fault-injection")]
mod faulted {
    use std::sync::Arc;

    use wfrc::core::fault::silence_injected_deaths;
    use wfrc::core::{
        DomainConfig, FaultAction, FaultPlan, FaultSite, FireRule, InjectedDeath, Link, WfrcDomain,
    };

    /// Satellite 3: a thread dies at the armed `SnapshotUpgrade` site with
    /// a non-empty deferred list. Adoption must recover every deferred
    /// node once the surviving pin lifts.
    #[test]
    fn die_mid_upgrade_with_nonempty_deferred_list_is_adopted() {
        silence_injected_deaths();
        let mut domain = WfrcDomain::<u64>::new(DomainConfig::new(2, 64));
        let plan = Arc::new(FaultPlan::new(0x9A9));
        domain.set_fault_plan(Arc::clone(&plan));
        plan.arm_victim(
            0,
            FaultSite::SnapshotUpgrade,
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
                // Build the non-empty deferred list: with the supervisor's
                // pin live, every release-to-zero diverts.
                for i in 0..8 {
                    let g = victim.alloc_with(|v| *v = i).unwrap();
                    drop(g);
                }
                assert_eq!(victim.counters().snapshot().deferred_decs, 8);
                let g = victim.alloc_with(|v| *v = 99).unwrap();
                victim.store(link, Some(&g));
                drop(g);
                let guard = victim.pin();
                let snap = guard.snapshot(link).expect("non-null");
                let _ = snap.upgrade(); // armed: dies here
                unreachable!("SnapshotUpgrade never fired");
            });
            let err = vt.join().expect_err("victim must die mid-upgrade");
            let death = err
                .downcast::<InjectedDeath>()
                .expect("panic payload must be InjectedDeath");
            assert_eq!(death.site, FaultSite::SnapshotUpgrade);
        });

        // The corpse's deferred list survived its death (the standing pin
        // blocked every drain attempt on the unwind path).
        assert_eq!(domain.deferred_len(), 8);
        drop(standing);
        let report = domain.adopt_orphans();
        assert_eq!(report.orphans_adopted, 1, "{report:?}");
        assert_eq!(report.deferred_nodes_recovered, 8, "{report:?}");
        assert_eq!(domain.deferred_len(), 0);

        supervisor.store(&link, None);
        drop(supervisor);
        let r = domain.leak_check();
        assert!(r.is_clean(), "{r:?}");
    }
}

/// A fixed pool (`Growth::Disabled`) enters its operation epochs with a
/// plain store instead of a `SeqCst` FAA. The deferred-drain baseline still
/// holds: a drainer reads a slot's epoch only after seeing its pin bit,
/// and the pin's `fetch_or` follows the epoch store, so the batch closed
/// under a live pin on another thread frees only after that pinner unpins.
#[test]
fn fixed_pool_deferred_batch_frees_only_after_unpin() {
    use std::sync::Barrier;
    let d = WfrcDomain::<u64>::new(DomainConfig::new(2, 8));
    let owner = d.register().unwrap();
    let link = Link::null();
    {
        let g = owner.alloc_with(|v| *v = 9).unwrap();
        owner.store(&link, Some(&g));
    }
    let (pinned, released, unpinned) = (Barrier::new(2), Barrier::new(2), Barrier::new(2));
    // Observe while the reader is pinned, assert after every barrier: a
    // failed assertion must not leave the scope joining a blocked thread.
    let (deferred, under_pin, after_unpin) = std::thread::scope(|s| {
        let (d, link) = (&d, &link);
        let (pinned, released, unpinned) = (&pinned, &released, &unpinned);
        let reader = s.spawn(move || {
            let reader = d.register().unwrap();
            let guard = reader.pin();
            let snap = guard.snapshot(link);
            pinned.wait();
            released.wait();
            // The node's last count is gone; the pin keeps it readable.
            let still = snap.as_deref() == Some(&9);
            drop(guard);
            unpinned.wait();
            still
        });
        pinned.wait();
        owner.store(link, None); // release to zero under the pin: defers
        let deferred = d.deferred_len();
        // Under the pin: the first drain closes the batch with the
        // reader's odd epoch as its baseline; later ones find it unchanged.
        let under_pin: Vec<usize> = (0..3)
            .map(|_| {
                let _ = owner.deref(link);
                owner.drain_deferred()
            })
            .collect();
        released.wait();
        unpinned.wait();
        let after_unpin = owner.drain_deferred();
        assert!(
            reader.join().unwrap(),
            "the snapshot must read 9 under the pin"
        );
        (deferred, under_pin, after_unpin)
    });
    assert_eq!(deferred, 1);
    assert_eq!(under_pin, [0, 0, 0], "freed under a live pin");
    assert_eq!(
        after_unpin, 1,
        "the batch must free once the pinner unpinned"
    );
    assert_eq!(d.deferred_len(), 0);
    drop(owner);
    let r = d.leak_check();
    assert!(r.is_clean(), "{r}");
    assert_eq!(r.deferred_decs, 1, "{r}");
}
