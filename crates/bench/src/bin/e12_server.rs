//! E12 — server workload: M tasks multiplexed over N leased slots.
//!
//! The paper fixes `NR_THREADS` at domain creation; a server admitting
//! tens of thousands of short-lived sessions cannot dedicate a
//! registration slot to each. E12 drives that shape: `--workers` threads
//! drain `--tasks` sessions (default 10 000). Each session blocks in
//! [`wfrc_core::lease::LeasePool::acquire`] for one of `--slots` leases
//! (default sweep 16,64), performs `--ops` mixed put/get/remove operations
//! against one shared [`wfrc_structures::SessionCache`] with values drawn
//! from the byte-class ladder, and checks back in. Reported per cell: cache
//! throughput, lease-checkout latency (p50/p99/p999 — the queue wait
//! under slot contention), per-op latency (p50/p99/p999), and the pool's
//! handoff/enroll counters. Both schemes run the identical task set.
//!
//! With `--grow` the byte classes start under-provisioned (8 blocks,
//! doubling growth) so the run must grow arenas mid-churn; with
//! `--reclaim` the wfrc cell additionally runs a **concurrent** segment
//! reclaimer for the whole measured section (the LFRC baseline can only
//! reclaim stop-the-world after its workers exit — the asymmetry is part
//! of the result).
//!
//! With `--kill N`, N tasks "crash" holding their lease: each panics
//! mid-session, its guard unwinds and orphans the slot, and a supervisor
//! thread calling `LeasePool::recover_orphaned` every millisecond — the
//! run's only recovery agent — must recover every dead slot; the table
//! reports the kill→recovery MTTR (p50/p99). Threads blocked behind a dead
//! holder are handed its slot as soon as the supervisor recovers it. No
//! live holder is ever taken back, however slow. Any other panic in a
//! session stops every worker and fails the run.
//!
//! Every cell ends with a [`wfrc_core::domain::LeakReport`] audit and a
//! lease audit (`issued == released + killed`, `killed == orphaned ==
//! recovered`, one checkout sample per task): the run fails unless both
//! schemes finish leak-free.
//!
//! ```text
//! cargo run --release --bin e12_server [-- --tasks 10000 --slots 16,64 \
//!     --ops 200 --workers 8 --classes 64,256,1024 --grow --reclaim \
//!     --kill 32 --json]
//! ```

use bench::drivers::{run_server, Elastic, ServerCfg};
use bench::Args;
use wfrc_baselines::LfrcDomain;
use wfrc_core::{ClassConfig, Domain, DomainConfig, Growth, RawBytes, WfrcDomain};
use wfrc_sim::stats::{fmt_ns, fmt_ops, Summary, Table};
use wfrc_structures::ListCell;

/// Key range shared by all tasks (small enough for real contention).
const KEYSPACE: u64 = 4096;
/// Under-provisioned per-class start (`--grow`).
const GROW_INITIAL: usize = 8;
/// Roomy per-class start (default): growth still enabled, rarely needed.
const ROOMY_INITIAL: usize = 1024;

/// Byte-class ladder for one cell. Magazines are always on here — the
/// pool's hot handoff (magazines stay with the slot) is part of what E12
/// measures.
fn class_configs(sizes: &[usize], grow: bool) -> Vec<ClassConfig> {
    let initial = if grow { GROW_INITIAL } else { ROOMY_INITIAL };
    sizes
        .iter()
        .map(|&s| {
            ClassConfig::new(s, initial)
                .with_growth(Growth::doubling_to(1 << 20))
                .with_magazine(16)
        })
        .collect()
}

/// Node-pool capacity: live list cells are bounded by the keyspace plus
/// per-slot in-flight nodes; double it and pad.
fn node_capacity(slots: usize) -> usize {
    KEYSPACE as usize * 2 + slots * 16 + 1024
}

fn audit(scheme: &str, r: &bench::drivers::ServerResult, tasks: usize) {
    assert_eq!(
        r.lease.issued,
        r.lease.released + r.killed,
        "{scheme}: every lease checked out must be checked back in or killed"
    );
    assert_eq!(
        r.checkout.len(),
        tasks as u64,
        "{scheme}: every task sampled exactly one checkout"
    );
    assert!(
        r.lease.panic_orphans == r.killed && r.lease.recovered == r.killed,
        "{scheme}: every killed lease, and only those, must be orphaned and recovered \
         (killed {}, orphaned {}, recovered {})",
        r.killed,
        r.lease.panic_orphans,
        r.lease.recovered
    );
}

fn row(table: &mut Table, slots: usize, scheme: &str, r: &bench::drivers::ServerResult) {
    let co = Summary::of(&r.checkout);
    let op = Summary::of(&r.op);
    let mttr = |q| {
        if r.mttr.is_empty() {
            "-".into()
        } else {
            fmt_ns(r.mttr.quantile(q))
        }
    };
    table.row(&[
        slots.to_string(),
        scheme.into(),
        r.tasks.to_string(),
        fmt_ops(r.ops_per_sec()),
        fmt_ns(co.p50),
        fmt_ns(co.p99),
        fmt_ns(co.p999),
        fmt_ns(op.p50),
        fmt_ns(op.p99),
        fmt_ns(op.p999),
        r.lease.handoffs.to_string(),
        r.lease.enrolled.to_string(),
        r.retired.to_string(),
        r.killed.to_string(),
        r.lease.panic_orphans.to_string(),
        r.lease.recovered.to_string(),
        mttr(0.50),
        mttr(0.99),
    ]);
}

/// One cell: the server run on `d`, leak and lease audits, one table row.
fn cell<S: Elastic>(table: &mut Table, d: &mut Domain<ListCell<RawBytes>, S>, cfg: &ServerCfg) {
    let scheme = S::NAME;
    let r = run_server(d, cfg);
    let leak = d.leak_check();
    assert!(
        leak.is_clean(),
        "{scheme} server run must end clean: {leak}"
    );
    audit(scheme, &r, cfg.tasks);
    row(table, cfg.slots, scheme, &r);
}

fn main() {
    let args = Args::parse(
        &[
            "--tasks",
            "--slots",
            "--ops",
            "--workers",
            "--classes",
            "--grow",
            "--reclaim",
            "--kill",
            "--json",
        ],
        &[],
        200,
    );
    let workers = if args.workers == 0 {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        args.workers
    };
    let sizes: Vec<usize> = if args.classes.is_empty() {
        vec![64, 256, 1024]
    } else {
        args.classes.clone()
    };
    let mut table = Table::new(
        "E12: server workload — tasks over leased registration slots",
        &[
            "slots", "scheme", "tasks", "ops/s", "co p50", "co p99", "co p999", "op p50", "op p99",
            "op p999", "handoffs", "enrolled", "retired", "killed", "orphaned", "recov",
            "mttr p50", "mttr p99",
        ],
    );
    for &slots in &args.slots {
        assert!(slots >= 1, "E12 needs at least one lease slot");
        let cfg = ServerCfg {
            tasks: args.tasks,
            slots,
            workers,
            ops_per_task: args.ops,
            keyspace: KEYSPACE,
            reclaim: args.reclaim,
            kill: args.kill,
        };
        // +1 registration slot for the concurrent reclaimer.
        let mut wf = WfrcDomain::<ListCell<RawBytes>>::new(
            DomainConfig::new(slots + 1, node_capacity(slots))
                .with_classes(class_configs(&sizes, args.grow)),
        );
        cell(&mut table, &mut wf, &cfg);
        let mut lf = LfrcDomain::<ListCell<RawBytes>>::new(slots + 1, node_capacity(slots));
        lf.set_backoff(false);
        lf.set_classes(class_configs(&sizes, args.grow));
        cell(&mut table, &mut lf, &cfg);
    }
    println!("{}", table.render());
    if args.json {
        println!("{}", table.to_json());
    }
}
