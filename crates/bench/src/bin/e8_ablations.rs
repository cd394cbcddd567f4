//! E8 — ablation of the read path: counted vs pinned plain-load.
//!
//! A **runtime** ablation: the same reader workload with the counted
//! dereference against the PR 9 pinned plain-load snapshot path, plus the
//! deferred-list drain latency; see [`snapshot_table`].
//!
//! ```text
//! cargo run --release --bin e8_ablations [-- --mode snapshot --threads 0,2 --ops 20000 --json]
//! ```

use std::sync::Arc;

use bench::drivers::{
    run_deferred_drain_micro, run_deref_interference, run_deref_interference_snapshot,
};
use bench::Args;
use wfrc_core::counters::CounterSnapshot;
use wfrc_core::{DomainConfig, WfrcDomain};
use wfrc_sim::stats::{fmt_ns, fmt_ops, Summary, Table};

/// E8 (snapshot, PR 9): a **runtime** ablation — the same reader workload
/// with the counted dereference vs. the pinned plain-load snapshot path,
/// plus the deferred-drain latency micro. The `count FAAs/op` column is
/// the counters-grounded cost model: the counted path performs one
/// `mm_ref` fetch-add on dereference and one on release (`deref_calls +
/// releases`, ≈2/op); the snapshot path performs zero (its per-session
/// epoch bump and pin-bit write amortize over
/// [`SNAPSHOT_REPIN`](bench::drivers::SNAPSHOT_REPIN) ops) — every FAA
/// shown avoided is a `SeqCst` RMW off the read path. The drain row
/// forces up to 4096 frees onto the deferred
/// list under a parked foreign pin, then times the wholesale drain after
/// the pin drops.
fn snapshot_table(args: &Args) {
    /// Count-field fetch-adds per reader op, from the reader's counters.
    fn faas_per_op(c: &CounterSnapshot, ops: u64) -> String {
        format!("{:.3}", (c.deref_calls + c.releases) as f64 / ops as f64)
    }
    let mut table = Table::new(
        "E8 (snapshot): counted vs plain-load reads + deferred-drain latency",
        &[
            "variant",
            "writers",
            "reader ops/s",
            "mean",
            "p99",
            "count FAAs/op",
            "snapshot derefs",
            "deferred decs",
        ],
    );
    for &w in &args.threads {
        let d = Arc::new(WfrcDomain::<u64>::new(DomainConfig::new(w + 2, 16)));
        let (res, hist, c) = run_deref_interference(d, w, args.ops);
        let s = Summary::of(&hist);
        table.row(&[
            "counted deref".into(),
            w.to_string(),
            fmt_ops(res.ops_per_sec()),
            fmt_ns(s.mean as u64),
            fmt_ns(s.p99),
            faas_per_op(&c, args.ops),
            c.snapshot_derefs.to_string(),
            c.deferred_decs.to_string(),
        ]);
        let d = Arc::new(WfrcDomain::<u64>::new(DomainConfig::new(w + 2, 16)));
        let (res, hist, c) = run_deref_interference_snapshot(d, w, args.ops);
        let s = Summary::of(&hist);
        table.row(&[
            "snapshot deref".into(),
            w.to_string(),
            fmt_ops(res.ops_per_sec()),
            fmt_ns(s.mean as u64),
            fmt_ns(s.p99),
            faas_per_op(&c, args.ops),
            c.snapshot_derefs.to_string(),
            c.deferred_decs.to_string(),
        ]);
    }
    let drain_nodes = (args.ops as usize).clamp(64, 4096);
    let (drained, wall, c) = run_deferred_drain_micro(drain_nodes);
    assert_eq!(
        drained, drain_nodes,
        "drain must recover every deferred node"
    );
    table.row(&[
        format!("deferred drain ({drain_nodes} nodes)"),
        "-".into(),
        "-".into(),
        fmt_ns((wall.as_nanos() as u64) / drain_nodes as u64),
        "-".into(),
        "-".into(),
        c.snapshot_derefs.to_string(),
        c.deferred_decs.to_string(),
    ]);
    println!("{}", table.render());
    println!(
        "note: counted FAAs/op counts mm_ref fetch-adds (deref + release); the snapshot\n\
         rows' 0.000 is the ablation's claim — >=2 SeqCst RMWs avoided per deref. The\n\
         drain row's mean is ns/node for the post-unpin wholesale drain; its deferred\n\
         decs confirm every free was diverted while the foreign pin was live.\n"
    );
    if args.json {
        println!("{}", table.to_json());
    }
}

fn main() {
    snapshot_table(&Args::parse(&[1, 4], 20_000));
}
