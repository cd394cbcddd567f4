//! Integration tests for quiescent-state segment reclamation (PR 5).
//!
//! The elastic-capacity battery: a domain grown past its initial capacity
//! must, once the extra nodes are all free again, return its trailing
//! segments to the allocator (`LIVE → DRAINING → RETIRED`), re-grow on
//! demand (`RETIRED → REVIVING → LIVE` with a **fresh** slab), and keep a
//! clean leak audit through every phase of the oscillation — including
//! while other threads allocate concurrently.

use std::sync::{Arc, Barrier};

use wfrc::core::{DomainConfig, Growth, ReclaimOutcome, WfrcDomain};
use wfrc::sim::exec::StopFlag;

mod common;

fn grow_cfg(threads: usize, initial: usize, max: usize) -> DomainConfig {
    DomainConfig::new(threads, initial).with_growth(Growth::doubling_to(max))
}

/// Drives `handle.reclaim()` until the domain reports no candidate,
/// tolerating a bounded number of aborted/contended attempts (both are
/// legal transient outcomes). Returns the number of segments retired.
fn reclaim_to_quiescence(h: &wfrc::core::ThreadHandle<'_, u64>) -> usize {
    let mut retired = 0;
    let mut stalls = 0;
    loop {
        match h.reclaim() {
            ReclaimOutcome::Retired { .. } => {
                retired += 1;
                stalls = 0;
            }
            ReclaimOutcome::NoCandidate => return retired,
            ReclaimOutcome::Contended | ReclaimOutcome::Aborted => {
                stalls += 1;
                assert!(stalls < 100, "reclaim livelocked after {retired} retires");
                std::thread::yield_now();
            }
        }
    }
}

#[test]
fn single_thread_grow_quiesce_shrink() {
    let d = WfrcDomain::<u64>::new(grow_cfg(1, 8, 256));
    let h = d.register().unwrap();
    let guards: Vec<_> = (0..64).map(|_| h.alloc_with(|v| *v = 1).unwrap()).collect();
    let peak_segments = d.segment_count();
    assert!(peak_segments >= 3, "never grew: {peak_segments}");
    // Still live: nothing is a candidate.
    assert_eq!(h.reclaim(), ReclaimOutcome::NoCandidate);
    assert_eq!(d.resident_segments(), peak_segments);
    drop(guards);
    let retired = reclaim_to_quiescence(&h);
    assert_eq!(retired, peak_segments - 1, "{:?}", d.leak_check());
    assert_eq!(d.resident_segments(), 1);
    assert_eq!(d.capacity(), 8);
    assert_eq!(d.segments_retired(), retired);
    let snap = h.counters().snapshot();
    assert_eq!(snap.segments_retired, retired as u64, "{snap:?}");
    assert!(snap.reclaim_passes >= snap.segments_retired, "{snap:?}");
    drop(h);
    let r = d.leak_check();
    assert!(r.is_clean(), "{r:?}");
    assert_eq!(r.resident_segments, 1);
    assert_eq!(r.segments_retired, retired);
    assert_eq!(r.free_nodes + r.parked_gifts, 8, "{r:?}");
}

#[test]
fn retired_segment_revives_with_fresh_nodes() {
    // Payload init is index-deterministic, so a revived slab is
    // distinguishable from a survived one: retirement frees the slab, and
    // revival rebuilds every node through the init closure. (Address
    // comparison would be flaky — the allocator may hand the same chunk
    // back — but payload state proves the slab was rebuilt.)
    let d = WfrcDomain::<u64>::with_init(grow_cfg(1, 4, 64), |i| i as u64);
    let h = d.register().unwrap();
    let guards: Vec<_> = (0..16)
        .map(|_| h.alloc_with(|v| *v |= 1 << 40).unwrap())
        .collect();
    assert!(d.segment_count() >= 3);
    drop(guards);
    let retired = reclaim_to_quiescence(&h);
    assert!(retired >= 2);
    assert_eq!(d.resident_segments(), 1);
    // Demand capacity again: RETIRED slots revive rather than extending
    // the ladder, and every revived node went through `init` afresh.
    let reborn: Vec<_> = (0..16).map(|_| h.alloc_with(|_| {}).unwrap()).collect();
    assert_eq!(d.segments_revived(), retired);
    let snap = h.counters().snapshot();
    assert_eq!(snap.segments_revived, retired as u64, "{snap:?}");
    // Segment 0 is immortal: its 4 nodes recycle with stale payloads. The
    // other 12 come from revived slabs and must be freshly initialized.
    let stale = reborn.iter().filter(|g| ***g & (1 << 40) != 0).count();
    assert!(stale <= 4, "{stale} stale payloads survived a revive");
    for g in reborn.iter().filter(|g| ***g & (1 << 40) == 0) {
        assert!(**g < 16, "revived init saw the wrong index: {}", **g);
    }
    drop(reborn);
    drop(h);
    assert!(d.leak_check().is_clean());
}

#[test]
fn one_live_node_in_tail_blocks_retirement() {
    let d = WfrcDomain::<u64>::new(grow_cfg(1, 4, 64));
    let h = d.register().unwrap();
    let mut guards: Vec<_> = (0..16).map(|_| h.alloc_with(|_| {}).unwrap()).collect();
    assert!(d.segment_count() >= 3);
    // Keep exactly the most-recently allocated node: it lives in the
    // trailing segment, so occupancy there can never reach `len`.
    let keeper = guards.pop().unwrap();
    drop(guards);
    let before = d.resident_segments();
    for _ in 0..10 {
        // The trailing segment is disqualified; everything below it is
        // non-trailing. Nothing may retire.
        assert_eq!(h.reclaim(), ReclaimOutcome::NoCandidate);
    }
    assert_eq!(d.resident_segments(), before);
    drop(keeper);
    assert!(reclaim_to_quiescence(&h) >= 2);
    assert_eq!(d.resident_segments(), 1);
    drop(h);
    assert!(d.leak_check().is_clean());
}

/// The announcement-presence bit lasts a registration, so a reader that
/// announced once and then idles keeps it up. Retirement vetoes on live
/// announcements — slot words — and must not mistake the bit for one.
#[test]
fn idle_reader_does_not_veto_retirement() {
    let d = WfrcDomain::<u64>::new(grow_cfg(2, 4, 64));
    let reader = d.register().unwrap();
    let link = wfrc::core::Link::<u64>::null();
    {
        let seed = reader.alloc_with(|v| *v = 9).unwrap();
        reader.store(&link, Some(&seed));
    }
    common::raise_presence_bit(&d, &reader, &link, 9);
    assert!(
        d.announcement_summary_bit(reader.tid()),
        "a dereference raises the bit for the whole registration"
    );
    // Another thread grows the domain, frees everything and reclaims while
    // the reader sits idle, registered, bit up.
    std::thread::scope(|s| {
        s.spawn(|| {
            let h = d.register().unwrap();
            let guards: Vec<_> = (0..16).map(|_| h.alloc_with(|_| {}).unwrap()).collect();
            assert!(d.segment_count() >= 3);
            drop(guards);
            assert!(reclaim_to_quiescence(&h) >= 2);
        });
    });
    assert!(d.announcement_summary_bit(reader.tid()));
    assert_eq!(d.resident_segments(), 1);
    reader.store(&link, None);
    drop(reader);
    assert!(d.announcement_summary_empty());
    assert!(d.leak_check().is_clean());
}

#[test]
fn reclaimer_flushes_its_own_magazine() {
    // Magazine-parked nodes are not occupancy-counted; if the reclaimer's
    // own cache could hold tail-segment nodes the trigger would never
    // fire. `reclaim()` drains the caller's magazine first.
    let d = WfrcDomain::<u64>::new(grow_cfg(1, 8, 128).with_magazine(16));
    let h = d.register().unwrap();
    let guards: Vec<_> = (0..32).map(|_| h.alloc_with(|_| {}).unwrap()).collect();
    assert!(d.segment_count() >= 2);
    drop(guards); // most of these land in the magazine
    assert!(h.magazine_len() > 0, "magazine never filled");
    assert!(reclaim_to_quiescence(&h) >= 1);
    assert_eq!(d.resident_segments(), 1);
    drop(h);
    assert!(d.leak_check().is_clean());
}

/// The satellite acceptance workload: 8 threads oscillate the domain
/// through grow → quiesce → shrink → re-grow cycles, with a leak audit
/// after every phase.
#[test]
fn eight_thread_oscillation_is_elastic_and_leak_free() {
    const THREADS: usize = 8;
    const CYCLES: usize = 10;
    const PEAK_PER_THREAD: usize = 24;
    let d = Arc::new(WfrcDomain::<u64>::new(grow_cfg(THREADS, 16, 8192)));
    let initial_segments = d.segment_count();
    for cycle in 0..CYCLES {
        // Grow phase: 8 threads push the pool well past its floor.
        let barrier = Arc::new(Barrier::new(THREADS));
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let d = Arc::clone(&d);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let h = d.register().unwrap();
                    barrier.wait();
                    for round in 0..20 {
                        let held: Vec<_> = (0..PEAK_PER_THREAD)
                            .map(|k| {
                                h.alloc_with(|v| *v = (t * 1000 + round + k) as u64)
                                    .expect("growth must prevent OOM")
                            })
                            .collect();
                        drop(held);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let peak = d.resident_segments();
        assert!(peak > initial_segments, "cycle {cycle} never grew");
        let mid = d.leak_check();
        assert!(mid.is_clean(), "cycle {cycle} post-grow: {mid:?}");
        // Quiesce + shrink phase: one reclaimer returns the whole ladder.
        {
            let h = d.register().unwrap();
            let retired = reclaim_to_quiescence(&h);
            assert_eq!(retired, peak - 1, "cycle {cycle}");
        }
        assert_eq!(
            d.resident_segments(),
            initial_segments,
            "cycle {cycle} did not shrink to the floor"
        );
        assert_eq!(d.capacity(), 16, "cycle {cycle}");
        let r = d.leak_check();
        assert!(r.is_clean(), "cycle {cycle} post-shrink: {r:?}");
        assert_eq!(r.free_nodes + r.parked_gifts, 16, "cycle {cycle}: {r:?}");
    }
    assert!(d.segments_retired() >= CYCLES);
    assert!(d.segments_revived() >= CYCLES - 1);
}

/// Reclamation racing live allocation traffic: retires may abort (that is
/// the design — liveness of the mutators wins), but nothing may leak, no
/// DRAINING node may be handed out (checked by the scheme's own
/// debug-asserts in the alloc paths), and the domain must still shrink to
/// the floor once traffic stops.
#[test]
fn concurrent_reclaim_under_load_stays_sound() {
    const WORKERS: usize = 4;
    let d = Arc::new(WfrcDomain::<u64>::new(grow_cfg(WORKERS + 1, 16, 4096)));
    let stop = Arc::new(StopFlag::new());
    let workers: Vec<_> = (0..WORKERS)
        .map(|_| {
            let d = Arc::clone(&d);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let h = d.register().unwrap();
                while !stop.is_stopped() {
                    // Bursty: hold a pile (forces growth), then free it all
                    // (opens reclaim windows).
                    let held: Vec<_> = (0..24)
                        .map(|_| h.alloc_with(|v| *v = 3).expect("no OOM"))
                        .collect();
                    drop(held);
                }
            })
        })
        .collect();
    {
        // Raised on unwind too, so a failed assertion here does not leave
        // the workers spinning for the rest of the test binary's run.
        let _stop = stop.stop_on_drop();
        let h = d.register().unwrap();
        let mut retired = 0u64;
        for _ in 0..2_000 {
            if let ReclaimOutcome::Retired { .. } = h.reclaim() {
                retired += 1;
            }
        }
        // Not asserted > 0: under constant traffic every attempt may
        // legally lose. The counters record what happened either way.
        let snap = h.counters().snapshot();
        assert_eq!(snap.segments_retired, retired, "{snap:?}");
    }
    for w in workers {
        w.join().unwrap();
    }
    let mid = d.leak_check();
    assert!(mid.is_clean(), "post-load audit: {mid:?}");
    // Traffic gone: the ladder must come all the way back down.
    let h = d.register().unwrap();
    reclaim_to_quiescence(&h);
    assert_eq!(d.resident_segments(), 1);
    assert_eq!(d.capacity(), 16);
    drop(h);
    let r = d.leak_check();
    assert!(r.is_clean(), "{r:?}");
    assert_eq!(r.free_nodes + r.parked_gifts, 16, "{r:?}");
}

/// A fixed pool (`Growth::Disabled`, the paper's configuration) is slot 0
/// alone, which never retires: `reclaim` answers `NoCandidate` without
/// ever taking a DRAINING claim — node pool and byte class alike — and the
/// books stay clean.
#[test]
fn fixed_pool_never_claims_a_retire() {
    use wfrc::core::ClassConfig;
    let d = WfrcDomain::<u64>::new(
        DomainConfig::new(2, 8)
            .with_magazine(2)
            .with_class(ClassConfig::new(64, 4)),
    );
    let h = d.register().unwrap();
    for round in 0..3u64 {
        let guards: Vec<_> = (0..8)
            .map(|i| h.alloc_with(|v| *v = round * 8 + i).unwrap())
            .collect();
        drop(guards);
        let token = h.alloc_bytes(b"fixed").unwrap();
        // SAFETY: our own unfreed token.
        unsafe { h.free_bytes(token) };
        assert_eq!(h.reclaim(), ReclaimOutcome::NoCandidate);
        assert_eq!(h.reclaim_class(0), ReclaimOutcome::NoCandidate);
    }
    let snap = h.counters().snapshot();
    assert_eq!(snap.reclaim_passes, 0, "a claim was taken: {snap:?}");
    assert_eq!(snap.segments_retired, 0, "{snap:?}");
    drop(h);
    assert_eq!(d.segments_retired(), 0);
    assert_eq!(d.class_segments(0), 1);
    let r = d.leak_check();
    assert!(r.is_clean(), "{r}");
    assert_eq!((r.resident_segments, r.segments_retired), (1, 0));
}
