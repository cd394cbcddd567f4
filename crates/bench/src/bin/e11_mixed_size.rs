//! E11 — mixed-size allocation across per-size-class arenas.
//!
//! Every worker cycles through all configured byte classes (offset by its
//! thread id, so at any instant different threads hammer different classes
//! and **all classes are live concurrently**), holding a sliding window of
//! live tokens whose first payload byte is verified on every free. The
//! point under test is that the per-class generalization keeps each
//! class's alloc/free independently wait-free: class traffic never
//! serializes on a shared head, and one class's growth or reclamation
//! never stalls another's fast path.
//!
//! With `--grow` the classes start **under-provisioned** (8 blocks each,
//! doubling growth): the run can only finish by publishing per-class
//! segments, exercising the winner-seeds-slab protocol on every class at
//! once. With `--reclaim` a reclaimer then drives
//! [`wfrc_core::ThreadHandle::reclaim_class`] to quiescence per class
//! (LFRC: the stop-the-world `reclaim_class_quiescent`), and the per-class
//! resident curve must return to (at most one segment above) the floor.
//!
//! Every cell ends with a full [`wfrc_core::domain::LeakReport`] audit:
//! the run fails unless **every class** reports zero live blocks and full
//! free-list accounting.
//!
//! ```text
//! cargo run --release --bin e11_mixed_size [-- --threads 2,4,8 --ops 40000 \
//!     --classes 64,256,1024 --grow --reclaim --magazine --json]
//! ```

use bench::drivers::{fmt_class_curve, run_mixed_size, Elastic};
use bench::Args;
use wfrc_baselines::LfrcDomain;
use wfrc_core::{ClassConfig, Domain, DomainConfig, Growth, WfrcDomain};
use wfrc_sim::stats::{fmt_ops, Table};

/// Tokens held live per thread (the sliding window).
const WINDOW: usize = 32;
/// Under-provisioned per-class start (`--grow`): far below the live peak.
const GROW_INITIAL: usize = 8;

/// Builds the per-class configs for one cell.
fn class_configs(sizes: &[usize], threads: usize, grow: bool, magazine: bool) -> Vec<ClassConfig> {
    sizes
        .iter()
        .map(|&s| {
            let mut cfg = if grow {
                ClassConfig::new(s, GROW_INITIAL).with_growth(Growth::doubling_to(1 << 20))
            } else {
                // Roomy: the window can land entirely in one class.
                ClassConfig::new(s, threads * WINDOW + 64)
            };
            if magazine {
                cfg = cfg.with_magazine(16);
            }
            cfg
        })
        .collect()
}

fn sum(a: &[u64]) -> u64 {
    a.iter().sum()
}

/// One cell: the mixed-size run on `d`, the `--grow --reclaim` acceptance
/// bar (every class's resident-segment count returns to at most one segment
/// above its floor), the per-class leak audit, one table row.
fn cell<S: Elastic>(table: &mut Table, d: &mut Domain<u64, S>, t: usize, args: &Args) {
    let scheme = S::NAME;
    let classes = d.class_count();
    let floors: Vec<usize> = (0..classes).map(|i| d.class_segments(i)).collect();
    let (r, curve) = run_mixed_size(d, t, args.ops, WINDOW, args.reclaim);
    if args.grow && args.reclaim {
        for (c, &floor) in curve.iter().zip(&floors) {
            assert!(
                c.resident_after <= floor + 1,
                "{scheme} class {}B: resident {} > floor {floor}+1",
                c.size,
                c.resident_after
            );
        }
    }
    let leak = d.leak_check();
    assert!(
        leak.is_clean(),
        "{scheme} mixed-size run must end clean: {leak}"
    );
    assert_eq!(leak.classes.len(), classes, "every class audited");
    table.row(&[
        t.to_string(),
        scheme.into(),
        fmt_ops(r.ops_per_sec()),
        sum(&r.counters.class_allocs).to_string(),
        sum(&r.counters.class_frees).to_string(),
        r.counters.segments_grown.to_string(),
        fmt_class_curve(&curve),
        curve.iter().map(|c| c.retired).sum::<u64>().to_string(),
        curve.iter().map(|c| c.aborted).sum::<u64>().to_string(),
    ]);
}

fn main() {
    let args = Args::parse(
        &[
            "--threads",
            "--ops",
            "--json",
            "--classes",
            "--grow",
            "--reclaim",
            "--magazine",
        ],
        &[2, 4, 8],
        40_000,
    );
    let sizes: Vec<usize> = if args.classes.is_empty() {
        vec![64, 256, 1024]
    } else {
        args.classes.clone()
    };
    assert!(
        sizes.len() >= 2,
        "E11 needs at least two byte classes (got --classes {sizes:?})"
    );
    let mut table = Table::new(
        "E11: mixed-size churn across per-size-class arenas",
        &[
            "threads",
            "scheme",
            "ops/s",
            "class allocs",
            "class frees",
            "segments grown",
            "class curve",
            "retired",
            "reclaim aborts",
        ],
    );
    for &t in &args.threads {
        let configs = || class_configs(&sizes, t, args.grow, args.magazine);
        // +1 thread slot for the reclaimer; tiny node pool — E11 moves raw
        // bytes, not nodes.
        let mut wf = WfrcDomain::<u64>::new(DomainConfig::new(t + 1, 64).with_classes(configs()));
        cell(&mut table, &mut wf, t, &args);
        let mut lf = LfrcDomain::<u64>::new(t, 64);
        lf.set_backoff(false);
        lf.set_classes(configs());
        cell(&mut table, &mut lf, t, &args);
    }
    println!("{}", table.render());
    if args.json {
        println!("{}", table.to_json());
    }
}
