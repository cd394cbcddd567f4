//! The announcement-presence summary: `HelpDeRef`'s zero-announcer fast
//! path must skip every slot read while no registered thread is a reader,
//! fall back to the per-thread scan exactly while a presence bit is up (a
//! reader's whole registration), and stay conservatively correct across
//! crashes (a bit over an empty row is harmless; a bit is lowered only at
//! handle drop, or by adoption once every slot of the corpse is retracted).

use std::sync::Arc;

use wfrc::core::{DomainConfig, Link, WfrcDomain};
use wfrc::primitives::spin::SpinBarrier;

mod common;

/// Writer-only workload: links change constantly, but nothing ever
/// dereferences, so no announcement is ever published. Every obligatory
/// `HelpDeRef` must return from the summary without reading one slot word.
#[test]
fn writer_only_workload_never_reads_a_slot_word() {
    const WRITERS: usize = 4;
    const ROUNDS: u64 = 10_000;

    let domain = Arc::new(WfrcDomain::<u64>::new(DomainConfig::new(WRITERS + 1, 128)));
    let link = Arc::new(Link::<u64>::null());
    // Pre-seed so every store has a non-null predecessor and therefore
    // runs the full SWAP + HelpDeRef + ReleaseRef obligation chain.
    {
        let h = domain.register().unwrap();
        let first = h.alloc_with(|v| *v = u64::MAX).unwrap();
        h.store(&link, Some(&first));
    }
    let barrier = Arc::new(SpinBarrier::new(WRITERS));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let domain = Arc::clone(&domain);
            let link = Arc::clone(&link);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let h = domain.register().unwrap();
                barrier.wait();
                for i in 0..ROUNDS {
                    let fresh = h
                        .alloc_with(|v| *v = (w as u64) << 32 | i)
                        .expect("pool sized for churn");
                    h.store(&link, Some(&fresh));
                }
                h.counters().snapshot()
            })
        })
        .collect();

    let mut total_help_calls = 0;
    for t in writers {
        let s = t.join().unwrap();
        assert_eq!(
            s.help_scan_full, 0,
            "a writer-only workload must never scan announcement slots"
        );
        assert_eq!(
            s.help_scan_skips, s.help_calls,
            "every HelpDeRef must take the summary fast path"
        );
        total_help_calls += s.help_calls;
    }
    // Every store had a non-null predecessor, so every store helped.
    assert_eq!(total_help_calls, WRITERS as u64 * ROUNDS);
    assert!(
        domain.announcement_summary_empty(),
        "no announcement was ever published"
    );

    let h = domain.register().unwrap();
    h.store(&link, None);
    drop(h);
    assert!(domain.leak_check().is_clean());
}

/// With readers in the mix the two scan counters must partition
/// `help_calls` exactly, and the protocol stays leak-free — the summary may
/// skip or scan depending on timing, but never a third thing.
#[test]
fn skip_and_full_partition_help_calls_under_contention() {
    const READERS: usize = 2;
    const WRITERS: usize = 2;
    const ROUNDS: u64 = 20_000;

    let domain = Arc::new(WfrcDomain::<u64>::new(DomainConfig::new(
        READERS + WRITERS,
        256,
    )));
    let link = Arc::new(Link::<u64>::null());
    {
        let h = domain.register().unwrap();
        let first = h.alloc_with(|v| *v = 0).unwrap();
        h.store(&link, Some(&first));
    }
    let barrier = Arc::new(SpinBarrier::new(READERS + WRITERS));

    let writers: Vec<_> = (0..WRITERS)
        .map(|_| {
            let domain = Arc::clone(&domain);
            let link = Arc::clone(&link);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let h = domain.register().unwrap();
                barrier.wait();
                for i in 0..ROUNDS {
                    let fresh = h.alloc_with(|v| *v = i).expect("pool sized");
                    h.store(&link, Some(&fresh));
                }
                h.counters().snapshot()
            })
        })
        .collect();
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let domain = Arc::clone(&domain);
            let link = Arc::clone(&link);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let h = domain.register().unwrap();
                barrier.wait();
                for _ in 0..ROUNDS {
                    if let Some(g) = h.deref(&link) {
                        std::hint::black_box(*g);
                    }
                }
            })
        })
        .collect();

    for t in writers {
        let s = t.join().unwrap();
        assert_eq!(
            s.help_scan_skips + s.help_scan_full,
            s.help_calls,
            "the scan counters must partition help_calls"
        );
    }
    for t in readers {
        t.join().unwrap();
    }

    let h = domain.register().unwrap();
    h.store(&link, None);
    drop(h);
    assert!(
        domain.announcement_summary_empty(),
        "every deref retracted; no bit may survive quiescence"
    );
    assert!(domain.leak_check().is_clean());
}

/// A reader's presence bit lasts its registration, no longer: while the
/// reader is registered every `HelpDeRef` reads its row, and once its
/// handle drops the writers are back on the fast path.
#[test]
fn dropping_the_reader_restores_the_fast_path() {
    const STORES: u64 = 100;
    // Three slots: writer, reader, and the swinger that raises the
    // reader's bit.
    let domain = WfrcDomain::<u64>::new(DomainConfig::new(3, 64));
    let link = Link::<u64>::null();
    let writer = domain.register().unwrap();
    let store_round = |from: u64| {
        for i in from..from + STORES {
            let fresh = writer.alloc_with(|v| *v = i).unwrap();
            writer.store(&link, Some(&fresh));
        }
        writer.counters().snapshot()
    };
    let start = store_round(0);
    assert_eq!(start.help_scan_full, 0, "no reader yet");

    let reader = domain.register().unwrap();
    common::raise_presence_bit(&domain, &reader, &link, STORES - 1);
    // Idle but registered: the bit is up and every help reads the row.
    assert!(domain.announcement_summary_bit(reader.tid()));
    let with_reader = store_round(STORES);
    assert_eq!(with_reader.help_scan_full - start.help_scan_full, STORES);
    assert_eq!(with_reader.help_scan_skips, start.help_scan_skips);
    assert_eq!(with_reader.help_answers, 0, "an empty row matches nothing");

    drop(reader);
    assert!(domain.announcement_summary_empty());
    let after = store_round(2 * STORES);
    assert_eq!(
        after.help_scan_full, with_reader.help_scan_full,
        "full scans must stop growing once the reader's handle is gone"
    );
    assert_eq!(after.help_scan_skips - with_reader.help_scan_skips, STORES);

    writer.store(&link, None);
    drop(writer);
    assert!(domain.leak_check().is_clean());
}

/// Crash residue: a thread that dies anywhere after its first dereference
/// leaves its presence bit up (only handle drop lowers it, and a death
/// skips that). Survivors must merely pay a fruitless full scan (never a
/// wrong answer), and adoption must lower the bit — after which the fast
/// path returns.
#[cfg(feature = "fault-injection")]
mod faulted {
    use super::*;
    use wfrc::core::fault::silence_injected_deaths;
    use wfrc::core::{FaultAction, FaultPlan, FaultSite, FireRule, InjectedDeath};

    /// Every site a lone reader's `deref` + guard drop crosses, each armed
    /// *after* a first, complete dereference raised the bit.
    #[test]
    fn death_after_the_first_deref_leaves_the_bit_for_adoption() {
        silence_injected_deaths();
        for site in [
            FaultSite::AnnouncePublish,
            FaultSite::DerefFaa,
            FaultSite::SummaryClear,
            FaultSite::ReleaseFaa,
        ] {
            let mut domain = WfrcDomain::<u64>::new(DomainConfig::new(2, 64));
            let plan = Arc::new(FaultPlan::new(0xB17));
            domain.set_fault_plan(Arc::clone(&plan));
            let link = Link::<u64>::null();
            let victim = domain.register().unwrap();
            let survivor = domain.register().unwrap();
            let victim_tid = victim.tid();
            plan.swing_every_deref(victim_tid);
            {
                let seed = survivor.alloc_with(|v| *v = 7).unwrap();
                survivor.store(&link, Some(&seed));
            }
            std::thread::scope(|s| {
                let (link, plan) = (&link, &plan);
                let vt = s.spawn(move || {
                    drop(victim.deref(link)); // raises the bit, completes
                    plan.arm_victim(victim_tid, site, FaultAction::Die, FireRule::Nth(1));
                    drop(victim.deref(link)); // dies at `site`
                });
                let death = vt
                    .join()
                    .expect_err("victim must die")
                    .downcast::<InjectedDeath>()
                    .expect("panic payload must be InjectedDeath");
                assert_eq!(death.site, site);
            });
            assert!(
                domain.announcement_summary_bit(victim_tid),
                "{site:?}: a death must leave the presence bit up"
            );
            let report = domain.adopt_orphans();
            assert_eq!(report.orphans_adopted, 1, "{site:?}");
            assert!(
                domain.announcement_summary_empty(),
                "{site:?}: adoption must lower the corpse's bit"
            );
            survivor.store(&link, None);
            drop(survivor);
            let report = domain.leak_check();
            assert!(report.is_clean(), "{site:?} leaked: {report}");
        }
    }

    #[test]
    fn stale_set_bit_is_harmless_and_adoption_clears_it() {
        silence_injected_deaths();
        let mut domain = WfrcDomain::<u64>::new(DomainConfig::new(2, 64));
        let plan = Arc::new(FaultPlan::new(0xB17));
        domain.set_fault_plan(Arc::clone(&plan));
        plan.arm_victim(
            0,
            FaultSite::SummaryClear,
            FaultAction::Die,
            FireRule::Nth(1),
        );
        plan.swing_every_deref(0);
        let domain = Arc::new(domain);

        let link = Arc::new(Link::<u64>::null());
        let victim = domain.register().unwrap();
        let survivor = domain.register().unwrap();
        assert_eq!(victim.tid(), 0);
        {
            let seed = survivor.alloc_with(|v| *v = 7).unwrap();
            survivor.store(&link, Some(&seed));
        }

        std::thread::scope(|s| {
            let link_ref = &link;
            let vt = s.spawn(move || {
                // The deref announces (D3), reads and pins (D4–D5), retracts
                // (D6) — and dies at the armed site, its bit still up.
                let g = victim.deref(link_ref);
                drop(g);
            });
            let err = vt.join().expect_err("victim must die at SummaryClear");
            let death = err
                .downcast::<InjectedDeath>()
                .expect("panic payload must be InjectedDeath");
            assert_eq!(death.site, FaultSite::SummaryClear);
        });

        // The row is empty, the bit is up: conservative, by design.
        assert!(
            domain.announcement_summary_bit(0),
            "a death after D6 must leave the presence bit set"
        );

        // A survivor's writes now pay the fallback scan (full, matching no
        // slot) but must stay correct.
        let before = survivor.counters().snapshot();
        for i in 0..100u64 {
            let fresh = survivor.alloc_with(|v| *v = i).unwrap();
            survivor.store(&link, Some(&fresh));
        }
        let mid = survivor.counters().snapshot();
        assert_eq!(
            mid.help_scan_full - before.help_scan_full,
            100,
            "a stale-set bit must force the fallback scan"
        );
        assert_eq!(mid.help_answers, before.help_answers, "nothing to answer");

        // Adoption retracts every slot of the corpse, then lowers the
        // bit — never the other way round.
        let report = domain.adopt_orphans();
        assert_eq!(report.orphans_adopted, 1);
        assert!(
            !domain.announcement_summary_bit(0),
            "adoption must clear the corpse's presence bit"
        );
        assert!(domain.announcement_summary_empty());

        // The fast path is restored.
        for i in 0..100u64 {
            let fresh = survivor.alloc_with(|v| *v = i).unwrap();
            survivor.store(&link, Some(&fresh));
        }
        let after = survivor.counters().snapshot();
        assert_eq!(
            after.help_scan_full, mid.help_scan_full,
            "no full scans once the stale bit is withdrawn"
        );
        assert_eq!(after.help_scan_skips - mid.help_scan_skips, 100);

        survivor.store(&link, None);
        drop(survivor);
        assert!(domain.leak_check().is_clean());
    }
}
