//! E9 — reclamation under a stalled thread: the paper's real-time
//! argument, measured.
//!
//! One thread acquires a reference/pin/hazard and then stalls forever.
//! The other threads churn through nodes. How much memory can pile up?
//!
//! * **WFRC / LFRC (reference counting)**: a stalled thread pins exactly
//!   the nodes it holds counts on — here, one. Everything else recycles.
//! * **Hazard pointers**: a stalled thread pins at most `K` nodes (its
//!   hazard slots); retired lists stay below the scan threshold.
//! * **Epochs**: a stalled *pinned* thread freezes the global epoch —
//!   garbage grows **without bound** (proportional to the churn), which is
//!   why EBR was never a candidate for the paper's real-time setting.
//!
//! Each row also reports the stalled victim's **footprint** (every node it
//! pins: held refs plus parked magazine nodes for the refcounting schemes,
//! hazard slots for HP, the frozen garbage pile for EBR) and the measured
//! **recovery latency**: the time from declaring the victim dead to all of
//! its pinned resources being recovered. For WFRC/LFRC that is the crash
//! path this repo's robustness layer exists for — `abandon()` the handle
//! and `adopt_orphans()` the slot; for HP/EBR it is the scheme's own
//! teardown (clear + scan, unpin + advance).
//!
//! With `--grow` two extra rows run each refcounting scheme on an
//! **under-provisioned growable pool** (initial capacity 8, doubling):
//! the stalled holder must not force unbounded growth — the pool grows to
//! cover the churn's working set and then stops, and nothing leaks.
//!
//! With `--magazine` two extra rows run each refcounting scheme with
//! per-thread allocation magazines enabled: a stalled thread additionally
//! parks its magazine's nodes (bounded by the magazine capacity — reported
//! in the "stalled holds" cell together with the churn thread's fast-path
//! hit rate), and everything else still recycles.
//!
//! With `--reclaim` two extra rows sharpen the stall bound from *nodes* to
//! *address space*: after the churn grows the pool, WFRC shrinks back to
//! its capacity floor **while the victim is still stalled** (the stall
//! pins one node in the immortal first segment, nothing else), whereas
//! LFRC's stop-the-world `reclaim_quiescent` needs exclusive access and
//! can only shrink after the victim's slot has been recovered.
//!
//! ```text
//! cargo run --release --bin e9_stall [-- --ops 50000 --grow --magazine --reclaim]
//! ```

use std::sync::atomic::AtomicPtr;
use std::time::Instant;

use bench::Args;
use wfrc_baselines::epoch::EbrDomain;
use wfrc_baselines::hazard::HpDomain;
use wfrc_baselines::LfrcDomain;
use wfrc_core::{DomainConfig, Growth, ReclaimOutcome, WfrcDomain};
use wfrc_sim::stats::Table;

const COLUMNS: [&str; 7] = [
    "scheme",
    "stalled holds",
    "churned",
    "unreclaimed",
    "stall footprint",
    "recovery µs",
    "bounded?",
];

fn main() {
    let args = Args::parse(
        &["--ops", "--json", "--grow", "--magazine", "--reclaim"],
        &[],
        50_000,
    );
    let churn = args.ops;
    let mut table = Table::new(
        "E9: unreclaimed nodes after churn with one stalled thread",
        &COLUMNS,
    );

    // WFRC: stalled thread holds one NodeRef.
    {
        let d = WfrcDomain::<u64>::new(DomainConfig::new(2, 64));
        let h_stall = d.register().unwrap();
        let held = h_stall.alloc_with(|v| *v = 1).unwrap(); // stalled forever
        let h = d.register().unwrap();
        for _ in 0..churn {
            let n = h.alloc_with(|v| *v = 2).expect("pool never exhausts");
            drop(n);
        }
        drop(h);
        let live = d.leak_check().live_nodes;
        let footprint = 1 + h_stall.magazine_len();
        let t0 = Instant::now();
        drop(held);
        h_stall.abandon();
        let _ = d.adopt_orphans();
        let recovery_us = t0.elapsed().as_micros();
        table.row(&[
            "wfrc".into(),
            "1 ref".into(),
            churn.to_string(),
            (live - 1).to_string(), // minus the deliberately held node
            footprint.to_string(),
            recovery_us.to_string(),
            "yes (exact)".into(),
        ]);
        assert!(d.leak_check().is_clean(), "wfrc stall must end clean");
    }

    // LFRC: identical bound (refcounting property, not wait-freedom).
    {
        let d = LfrcDomain::<u64>::new(2, 64);
        let h_stall = d.register().unwrap();
        let held = h_stall.alloc_raw().unwrap(); // stalled forever
        let h = d.register().unwrap();
        for _ in 0..churn {
            let n = h.alloc_raw().expect("pool never exhausts");
            // SAFETY: we own the alloc reference.
            unsafe { h.release_raw(n) };
        }
        drop(h);
        let live = d.leak_check().live_nodes;
        let footprint = 1 + h_stall.magazine_len();
        let t0 = Instant::now();
        // SAFETY: teardown of the deliberately held reference.
        unsafe { h_stall.release_raw(held) };
        h_stall.abandon();
        let _ = d.adopt_orphans();
        let recovery_us = t0.elapsed().as_micros();
        table.row(&[
            "lfrc".into(),
            "1 ref".into(),
            churn.to_string(),
            (live - 1).to_string(),
            footprint.to_string(),
            recovery_us.to_string(),
            "yes (exact)".into(),
        ]);
        assert!(d.leak_check().is_clean(), "lfrc stall must end clean");
    }

    // Hazard pointers: stalled thread protects one node.
    {
        let d = HpDomain::<u64>::new(2);
        let mut h_stall = d.register().unwrap();
        let node = h_stall.alloc(7);
        let src = AtomicPtr::new(node);
        let p = h_stall.protect(0, &src);
        assert_eq!(p, node); // protected forever
        let mut h = d.register().unwrap();
        for i in 0..churn {
            let n = h.alloc(i);
            // SAFETY: never published; retired exactly once.
            unsafe { h.retire(n) };
        }
        h.scan();
        let pending = h.pending();
        let t0 = Instant::now();
        h_stall.clear(0);
        // SAFETY: sole owner now.
        unsafe { h_stall.retire(node) };
        h_stall.scan();
        let recovery_us = t0.elapsed().as_micros();
        table.row(&[
            "hazard".into(),
            "1 hazard".into(),
            churn.to_string(),
            pending.to_string(),
            "1".into(),
            recovery_us.to_string(),
            "yes (≤ scan threshold)".into(),
        ]);
    }

    // Epochs: stalled thread pins.
    {
        let d = EbrDomain::<u64>::new(2);
        let h_stall = d.register().unwrap();
        let _pin = h_stall.pin(); // stalled while pinned: reclamation freezes
        let h = d.register().unwrap();
        h.try_advance(); // one advance may still slip through
        for i in 0..churn {
            let n = h.alloc(i);
            // SAFETY: never published; retired exactly once.
            unsafe { h.retire(n) };
        }
        let pending = h.pending();
        // EBR's "footprint" is the whole frozen pile: every retired node
        // since the stall is pinned by the stuck epoch.
        let t0 = Instant::now();
        drop(_pin);
        // Three advances cycle all three bags once the pin is gone.
        for _ in 0..3 {
            h.try_advance();
        }
        let recovery_us = t0.elapsed().as_micros();
        table.row(&[
            "epoch".into(),
            "1 pin".into(),
            churn.to_string(),
            pending.to_string(),
            pending.to_string(),
            recovery_us.to_string(),
            "NO (grows with churn)".into(),
        ]);
    }

    // Growth mode: the same stall scenario on under-provisioned pools.
    // Each churn iteration holds a 16-node burst, so the pool must grow
    // past its 8-node start — but only up to the working set, stall or not.
    if args.grow {
        let growth = Growth::doubling_to(1 << 16);
        {
            let d = WfrcDomain::<u64>::new(DomainConfig::new(2, 8).with_growth(growth));
            let h_stall = d.register().unwrap();
            let held = h_stall.alloc_with(|v| *v = 1).unwrap(); // stalled forever
            let h = d.register().unwrap();
            for _ in 0..churn / 16 {
                let burst: Vec<_> = (0..16)
                    .map(|_| h.alloc_with(|v| *v = 2).expect("growth covers the peak"))
                    .collect();
                drop(burst);
            }
            let grown = h.counters().snapshot().segments_grown;
            drop(h);
            let live = d.leak_check().live_nodes;
            let footprint = 1 + h_stall.magazine_len();
            let t0 = Instant::now();
            drop(held);
            h_stall.abandon();
            let _ = d.adopt_orphans();
            let recovery_us = t0.elapsed().as_micros();
            table_growth_row(
                &mut table,
                "wfrc+grow",
                churn,
                live - 1,
                d.capacity(),
                d.segment_count(),
                grown,
                footprint,
                recovery_us,
            );
            assert!(
                d.leak_check().is_clean(),
                "wfrc growth stall must end clean"
            );
        }
        {
            let d = LfrcDomain::<u64>::with_growth(2, 8, growth);
            let h_stall = d.register().unwrap();
            let held = h_stall.alloc_raw().unwrap(); // stalled forever
            let h = d.register().unwrap();
            for _ in 0..churn / 16 {
                let burst: Vec<_> = (0..16)
                    .map(|_| h.alloc_raw().expect("growth covers the peak"))
                    .collect();
                // SAFETY: we own one reference per node.
                unsafe {
                    for n in burst {
                        h.release_raw(n);
                    }
                }
            }
            let grown = h.counters().snapshot().segments_grown;
            drop(h);
            let live = d.leak_check().live_nodes;
            let footprint = 1 + h_stall.magazine_len();
            let t0 = Instant::now();
            // SAFETY: teardown of the deliberately held reference.
            unsafe { h_stall.release_raw(held) };
            h_stall.abandon();
            let _ = d.adopt_orphans();
            let recovery_us = t0.elapsed().as_micros();
            table_growth_row(
                &mut table,
                "lfrc+grow",
                churn,
                live - 1,
                d.capacity(),
                d.segment_count(),
                grown,
                footprint,
                recovery_us,
            );
            assert!(
                d.leak_check().is_clean(),
                "lfrc growth stall must end clean"
            );
        }
    }

    // Magazine mode: the same stall scenario with per-thread magazines.
    // The stalled thread's pinned footprint grows by at most its magazine
    // capacity (nodes parked there stay parked until it drains), which is
    // a constant — the refcounting bound stays exact, just offset. The
    // recovery column times `abandon` + `adopt_orphans` actually draining
    // that parked pile back into circulation.
    if args.magazine {
        const MAG: usize = 16;
        {
            let d = WfrcDomain::<u64>::new(DomainConfig::new(2, 256).with_magazine(MAG));
            let h_stall = d.register().unwrap();
            let held = h_stall.alloc_with(|v| *v = 1).unwrap(); // stalled forever
            let h = d.register().unwrap();
            for _ in 0..churn {
                let n = h.alloc_with(|v| *v = 2).expect("pool never exhausts");
                drop(n);
            }
            let s = h.counters().snapshot();
            let stall_parked = h_stall.magazine_len();
            drop(h);
            let report = d.leak_check();
            let t0 = Instant::now();
            drop(held);
            h_stall.abandon();
            let adopted = d.adopt_orphans();
            let recovery_us = t0.elapsed().as_micros();
            table_magazine_row(
                &mut table,
                "wfrc+mag",
                churn,
                report.live_nodes - 1,
                d.magazine_cap(),
                stall_parked,
                s.magazine_hits as f64 / s.alloc_calls.max(1) as f64,
                1 + stall_parked,
                recovery_us,
            );
            assert!(
                adopted.magazine_nodes_recovered >= stall_parked,
                "adoption must recover the parked magazine"
            );
            assert!(
                d.leak_check().is_clean(),
                "wfrc magazine stall must end clean"
            );
        }
        {
            let mut d = LfrcDomain::<u64>::new(2, 256);
            d.set_magazine(MAG);
            let h_stall = d.register().unwrap();
            let held = h_stall.alloc_raw().unwrap(); // stalled forever
            let h = d.register().unwrap();
            for _ in 0..churn {
                let n = h.alloc_raw().expect("pool never exhausts");
                // SAFETY: we own the alloc reference.
                unsafe { h.release_raw(n) };
            }
            let s = h.counters().snapshot();
            let stall_parked = h_stall.magazine_len();
            drop(h);
            let report = d.leak_check();
            let t0 = Instant::now();
            // SAFETY: teardown of the deliberately held reference.
            unsafe { h_stall.release_raw(held) };
            h_stall.abandon();
            let adopted = d.adopt_orphans();
            let recovery_us = t0.elapsed().as_micros();
            table_magazine_row(
                &mut table,
                "lfrc+mag",
                churn,
                report.live_nodes - 1,
                d.magazine_cap(),
                stall_parked,
                s.magazine_hits as f64 / s.alloc_calls.max(1) as f64,
                1 + stall_parked,
                recovery_us,
            );
            assert!(
                adopted.magazine_nodes_recovered >= stall_parked,
                "adoption must recover the parked magazine"
            );
            assert!(
                d.leak_check().is_clean(),
                "lfrc magazine stall must end clean"
            );
        }
    }

    // Reclaim mode: the stall bound extended from nodes to address space.
    // The victim stalls holding one node from the immortal first segment;
    // the churn forces the pool to grow far past it. A refcounting stall
    // pins exactly what it holds — so WFRC's concurrent reclaimer can
    // retire every grown segment back to the floor *around* the stalled
    // thread. LFRC's shrink is stop-the-world (`&mut self`), so its grown
    // footprint is stuck at the peak until the victim's slot is recovered.
    if args.reclaim {
        let growth = Growth::doubling_to(1 << 16);
        {
            let d = WfrcDomain::<u64>::new(DomainConfig::new(3, 8).with_growth(growth));
            let h_stall = d.register().unwrap();
            let held = h_stall.alloc_with(|v| *v = 1).unwrap(); // stalled forever
            let h = d.register().unwrap();
            for _ in 0..churn / 16 {
                let burst: Vec<_> = (0..16)
                    .map(|_| h.alloc_with(|v| *v = 2).expect("growth covers the peak"))
                    .collect();
                drop(burst);
            }
            let peak = d.resident_segments();
            drop(h);
            // Shrink while the victim is still stalled.
            let reclaimer = d.register().unwrap();
            let (mut aborted, mut stalls) = (0u64, 0u64);
            loop {
                match reclaimer.reclaim() {
                    ReclaimOutcome::Retired { .. } => stalls = 0,
                    ReclaimOutcome::NoCandidate => break,
                    _ => {
                        aborted += 1;
                        stalls += 1;
                        assert!(stalls < 1_000, "reclaim stuck despite quiescence");
                        std::thread::yield_now();
                    }
                }
            }
            let resident = d.resident_segments();
            assert_eq!(resident, 1, "a stalled holder must not pin grown segments");
            let retired = d.segments_retired();
            let live = d.leak_check().live_nodes;
            drop(reclaimer);
            let t0 = Instant::now();
            drop(held);
            h_stall.abandon();
            let _ = d.adopt_orphans();
            let recovery_us = t0.elapsed().as_micros();
            table.row(&[
                "wfrc+reclaim".into(),
                format!("1 ref; {peak}→{resident} segs while stalled ({retired} retired, {aborted} aborts)"),
                churn.to_string(),
                (live - 1).to_string(),
                "1 node (0 segments)".into(),
                recovery_us.to_string(),
                "yes (pins nodes, not address space)".into(),
            ]);
            assert!(
                d.leak_check().is_clean(),
                "wfrc reclaim stall must end clean"
            );
        }
        {
            let mut d = LfrcDomain::<u64>::with_growth(2, 8, growth);
            let h_stall = d.register().unwrap();
            let held = h_stall.alloc_raw().unwrap(); // stalled forever
            let h = d.register().unwrap();
            for _ in 0..churn / 16 {
                let burst: Vec<_> = (0..16)
                    .map(|_| h.alloc_raw().expect("growth covers the peak"))
                    .collect();
                // SAFETY: we own one reference per node.
                unsafe {
                    for n in burst {
                        h.release_raw(n);
                    }
                }
            }
            let peak = d.segment_count();
            drop(h);
            let live = d.leak_check().live_nodes;
            // No shrink is possible here: `reclaim_quiescent` takes
            // `&mut self`, and the stalled handle still borrows the
            // domain. Recovery must come first.
            let t0 = Instant::now();
            // SAFETY: teardown of the deliberately held reference.
            unsafe { h_stall.release_raw(held) };
            h_stall.abandon();
            let _ = d.adopt_orphans();
            let mut retired = 0u64;
            while d.reclaim_quiescent() {
                retired += 1;
            }
            let recovery_us = t0.elapsed().as_micros();
            assert_eq!(
                d.segment_count(),
                1,
                "post-recovery shrink must reach the floor"
            );
            table.row(&[
                "lfrc+reclaim".into(),
                format!("1 ref; stuck at {peak} segs until recovery ({retired} retired after)"),
                churn.to_string(),
                (live - 1).to_string(),
                format!("{peak} segments"),
                recovery_us.to_string(),
                "nodes yes; segments only stop-the-world".into(),
            ]);
            assert!(
                d.leak_check().is_clean(),
                "lfrc reclaim stall must end clean"
            );
        }
    }

    println!("{}", table.render());
    if args.json {
        println!("{}", table.to_json());
    }
}

/// Magazine rows reuse the E9 columns: "stalled holds" carries the
/// magazine telemetry so the table shape (and JSON schema) stays stable.
#[allow(clippy::too_many_arguments)]
fn table_magazine_row(
    table: &mut Table,
    scheme: &str,
    churned: u64,
    unreclaimed: usize,
    cap: usize,
    stall_parked: usize,
    hit_rate: f64,
    footprint: usize,
    recovery_us: u128,
) {
    table.row(&[
        scheme.into(),
        format!("1 ref + {stall_parked} parked (mag cap {cap}, churn hit rate {hit_rate:.3})"),
        churned.to_string(),
        unreclaimed.to_string(),
        footprint.to_string(),
        recovery_us.to_string(),
        "yes (ref + magazine cap)".into(),
    ]);
}

/// Growth rows reuse the E9 columns: "stalled holds" carries the pool
/// telemetry so the table shape (and JSON schema) stays stable.
#[allow(clippy::too_many_arguments)]
fn table_growth_row(
    table: &mut Table,
    scheme: &str,
    churned: u64,
    unreclaimed: usize,
    capacity: usize,
    segments: usize,
    grown: u64,
    footprint: usize,
    recovery_us: u128,
) {
    table.row(&[
        scheme.into(),
        format!("1 ref; 8→{capacity} nodes, {segments} segs ({grown} grown)"),
        churned.to_string(),
        unreclaimed.to_string(),
        footprint.to_string(),
        recovery_us.to_string(),
        "yes (growth stops at working set)".into(),
    ]);
}
