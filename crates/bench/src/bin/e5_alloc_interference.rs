//! E5 — wait-freedom of `AllocNode`/`FreeNode` (Lemmas 9–10) vs. the
//! single-head Treiber free-list.
//!
//! All threads alloc/free at full speed on a small pool. Load-bearing
//! columns: **max A3–A18 iterations per alloc** (bounded by helping for
//! WFRC — Lemma 9's claim) and **free push retries** (bounded to the two
//! per-thread stripes for WFRC — Lemma 10), vs. the baseline's unbounded
//! equivalents. Gift statistics show the helping machinery actually firing.
//!
//! With `--grow` the pools start **under-provisioned** (initial capacity
//! far below the live-node peak) with doubling growth enabled: the run can
//! only finish by publishing arena segments, and the table reports the
//! growth-path cost — segments grown, nodes seeded, slow-path entries, and
//! the p99/max allocation latency whose tail contains the segment
//! publications.
//!
//! With `--magazine` each scheme runs the same churn twice — per-thread
//! allocation magazines off and on (capacity 64, roomy pool) — and the
//! table reports `magazine_hit_rate` (hits / allocs) next to the shared
//! free-list traffic (slow-path entries, alloc CAS failures, free push
//! retries) that the magazine layer is supposed to absorb.
//!
//! With `--reclaim` each scheme runs an oscillating grow → quiesce →
//! shrink workload over 20 cycles, reclamation off (control) and on: the
//! resident-segment curve must return to the capacity floor after every
//! quiescent phase, and the ops/s pair prices the elasticity machinery.
//!
//! ```text
//! cargo run --release --bin e5_alloc_interference [-- --threads 1,2,4,8 --ops 100000 --json --grow --magazine --reclaim]
//! ```

use std::sync::Arc;

use bench::drivers::{
    fmt_curve, run_alloc_churn, run_alloc_growth, run_reclaim_oscillation, Elastic,
};
use bench::Args;
use wfrc_baselines::LfrcDomain;
use wfrc_core::{DomainConfig, Growth, WfrcDomain};
use wfrc_sim::stats::{fmt_ns, fmt_ops, Table};
use wfrc_structures::RcMmDomain;

/// One `--grow` cell: alloc bursts on `d`, one table row, leak audit.
fn growth_cell<D>(table: &mut Table, d: D, t: usize, bursts: u64, hold: usize)
where
    D: RcMmDomain<u64> + Send + Sync + 'static,
{
    let d = Arc::new(d);
    let (r, hist) = run_alloc_growth(Arc::clone(&d), t, bursts, hold);
    let leak = d.leak_check_mm();
    assert!(
        leak.is_clean(),
        "{} growth run must end clean",
        d.scheme_name()
    );
    table.row(&[
        t.to_string(),
        d.scheme_name().into(),
        fmt_ops(r.ops_per_sec()),
        r.counters.segments_grown.to_string(),
        r.counters.nodes_seeded.to_string(),
        r.counters.alloc_slow_path.to_string(),
        leak.capacity.to_string(),
        fmt_ns(hist.quantile(0.99)),
        fmt_ns(hist.max()),
    ]);
}

/// Growth mode: each thread holds 32 nodes per burst; pools start at 8
/// nodes total and may double up to far beyond the peak.
fn run_growth_table(args: &Args) {
    const HOLD: usize = 32;
    let mut table = Table::new(
        "E5 (--grow): under-provisioned pools, alloc bursts across segment growth",
        &[
            "threads",
            "scheme",
            "ops/s",
            "segments grown",
            "nodes seeded",
            "slow-path entries",
            "final capacity",
            "p99 alloc",
            "max alloc",
        ],
    );
    for &t in &args.threads {
        let bursts = (args.ops / HOLD as u64).max(1);
        let growth = Growth::doubling_to(1 << 20);
        let wf = WfrcDomain::<u64>::new(DomainConfig::new(t, 8).with_growth(growth));
        growth_cell(&mut table, wf, t, bursts, HOLD);
        let mut lf = LfrcDomain::<u64>::with_growth(t, 8, growth);
        lf.set_backoff(false);
        growth_cell(&mut table, lf, t, bursts, HOLD);
    }
    println!("{}", table.render());
    if args.json {
        println!("{}", table.to_json());
    }
}

/// Grow → quiesce → shrink cycles per `--reclaim` cell.
const CYCLES: usize = 20;

/// One `--reclaim` cell: the oscillation on `d`, the acceptance bar (every
/// quiescent phase returns the footprint to at most one segment above the
/// floor), one table row, leak audit.
fn reclaim_cell<D>(table: &mut Table, d: &mut D, t: usize, bursts: u64, hold: usize, reclaim: bool)
where
    D: RcMmDomain<u64> + Elastic,
{
    let floor = d.segments(None);
    let (r, curve) = run_reclaim_oscillation(d, t, CYCLES, bursts, hold, reclaim);
    if reclaim {
        for (i, c) in curve.iter().enumerate() {
            assert!(
                c.resident_after <= floor + 1,
                "{} cycle {i}: resident {} > floor {floor}+1",
                d.scheme_name(),
                c.resident_after
            );
        }
    }
    let leak = d.leak_check_mm();
    assert!(
        leak.is_clean(),
        "{} reclaim run must end clean",
        d.scheme_name()
    );
    table.row(&[
        t.to_string(),
        d.scheme_name().into(),
        if reclaim { "on" } else { "off" }.into(),
        fmt_ops(r.ops_per_sec()),
        fmt_curve(&curve),
        leak.segments_retired.to_string(),
        r.counters.segments_revived.to_string(),
        r.counters.reclaim_aborts.to_string(),
        leak.capacity.to_string(),
    ]);
}

/// Reclaim mode: oscillating load across ≥20 grow → quiesce → shrink
/// cycles. Each scheme runs the identical workload twice — reclamation off
/// (control) and on — so the ops/s delta is the price of elasticity, and
/// the resident-segment curve shows capacity actually returning to the
/// floor after every quiescent phase. WFRC reclaims through a registered
/// handle (epoch grace + occupancy sweep); LFRC can only shrink
/// stop-the-world (`reclaim_quiescent`), which is the asymmetry under test.
fn run_reclaim_table(args: &Args) {
    const HOLD: usize = 32;
    const INITIAL: usize = 16;
    let mut table = Table::new(
        "E5 (--reclaim): elastic capacity over grow/quiesce cycles",
        &[
            "threads",
            "scheme",
            "reclaim",
            "ops/s",
            "resident curve",
            "segments retired",
            "segments revived",
            "reclaim aborts",
            "final capacity",
        ],
    );
    for &t in &args.threads {
        // Same per-thread op budget as the growth table, split across the
        // cycles so the whole sweep stays comparable to `--grow`.
        let bursts = (args.ops / (HOLD as u64 * CYCLES as u64)).max(1);
        let growth = Growth::doubling_to(1 << 20);
        for reclaim in [false, true] {
            // +1 registration slot for the reclaimer.
            let mut d =
                WfrcDomain::<u64>::new(DomainConfig::new(t + 1, INITIAL).with_growth(growth));
            reclaim_cell(&mut table, &mut d, t, bursts, HOLD, reclaim);
        }
        for reclaim in [false, true] {
            let mut d = LfrcDomain::<u64>::with_growth(t, INITIAL, growth);
            d.set_backoff(false);
            reclaim_cell(&mut table, &mut d, t, bursts, HOLD, reclaim);
        }
    }
    println!("{}", table.render());
    if args.json {
        println!("{}", table.to_json());
    }
}

/// Magazine mode: same churn, magazines off vs. on, roomy pool (the
/// contrast under test is fast-path coverage, not pool pressure).
fn run_magazine_table(args: &Args) {
    const MAG_CAP: usize = 64;
    let mut table = Table::new(
        "E5 (--magazine): per-thread magazines over the shared free-lists",
        &[
            "threads",
            "scheme",
            "magazine",
            "ops/s",
            "magazine_hit_rate",
            "shared allocs",
            "refills",
            "drains",
            "slow-path entries",
            "alloc CAS fails",
            "free push retries",
        ],
    );
    for &t in &args.threads {
        // Roomy: the clamp leaves the full 64-node magazines in place.
        let cap = t * 256;
        for scheme in ["wfrc", "lfrc"] {
            for mag in [0usize, MAG_CAP] {
                let (r, leak) = if scheme == "wfrc" {
                    let d = Arc::new(WfrcDomain::<u64>::new(
                        DomainConfig::new(t, cap).with_magazine(mag),
                    ));
                    let r = run_alloc_churn(Arc::clone(&d), t, args.ops);
                    (r, d.leak_check())
                } else {
                    let mut d = LfrcDomain::<u64>::new(t, cap);
                    d.set_backoff(false);
                    d.set_magazine(mag);
                    let d = Arc::new(d);
                    let r = run_alloc_churn(Arc::clone(&d), t, args.ops);
                    (r, d.leak_check())
                };
                assert!(leak.is_clean(), "{scheme} magazine run must end clean");
                let hit_rate = if r.counters.alloc_calls > 0 {
                    r.counters.magazine_hits as f64 / r.counters.alloc_calls as f64
                } else {
                    0.0
                };
                table.row(&[
                    t.to_string(),
                    scheme.to_string(),
                    if mag == 0 {
                        "off".into()
                    } else {
                        format!("{mag}")
                    },
                    fmt_ops(r.ops_per_sec()),
                    format!("{hit_rate:.3}"),
                    (r.counters.alloc_calls - r.counters.magazine_hits).to_string(),
                    r.counters.magazine_refills.to_string(),
                    r.counters.magazine_drains.to_string(),
                    r.counters.alloc_slow_path.to_string(),
                    r.counters.alloc_cas_failures.to_string(),
                    r.counters.free_push_retries.to_string(),
                ]);
            }
        }
    }
    println!("{}", table.render());
    if args.json {
        println!("{}", table.to_json());
    }
}

fn main() {
    let args = Args::parse(&[1, 2, 4, 8], 100_000);
    if args.grow {
        run_growth_table(&args);
        return;
    }
    if args.magazine {
        run_magazine_table(&args);
        return;
    }
    if args.reclaim {
        run_reclaim_table(&args);
        return;
    }
    let mut table = Table::new(
        "E5: free-list churn (alloc+free per op)",
        &[
            "threads",
            "scheme",
            "ops/s",
            "max alloc iters",
            "alloc CAS fails",
            "max free retries",
            "gifts given",
            "allocs from gift",
        ],
    );
    for &t in &args.threads {
        let cap = t * 4 + 8;
        for scheme in ["wfrc", "lfrc"] {
            let r = if scheme == "wfrc" {
                run_alloc_churn(
                    Arc::new(WfrcDomain::<u64>::new(DomainConfig::new(t, cap))),
                    t,
                    args.ops,
                )
            } else {
                let mut d = LfrcDomain::<u64>::new(t, cap);
                d.set_backoff(false);
                run_alloc_churn(Arc::new(d), t, args.ops)
            };
            table.row(&[
                t.to_string(),
                scheme.to_string(),
                fmt_ops(r.ops_per_sec()),
                r.counters.max_alloc_iters.to_string(),
                r.counters.alloc_cas_failures.to_string(),
                r.counters.max_free_push_retries.to_string(),
                r.counters.alloc_gave_gift.to_string(),
                r.counters.alloc_from_gift.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
    if args.json {
        println!("{}", table.to_json());
    }
}
