//! E7 — allocation fairness: does every thread make progress under full
//! free-list contention?
//!
//! All threads alloc/free for a fixed window; we report each thread's
//! completed operations and the min/max ratio. The wait-free scheme's
//! round-robin helping (`helpCurrent`, on request: a thread that misses
//! its two fast-path attempts raises its `alloc_need` bit) guarantees
//! every flagged thread is served (Lemma 9); the Treiber baseline has no
//! such mechanism, so its ratio degrades under contention (on a
//! multi-core box; a single CPU's scheduler masks some of the effect).
//!
//! The run is also Lemma 9's scoreboard: the wait-free scheme's worst
//! A3–A18 iteration count is asserted against
//! [`wfrc_core::oom::alloc_retry_bound`], allocation failures are counted
//! (the pool is sized never to exhaust), and both schemes are leak-audited.
//!
//! ```text
//! cargo run --release --bin e7_fairness [-- --threads 2,4,8 --ops 300]
//! ```
//! (`--ops` is the measurement window in milliseconds here)

use std::sync::Arc;

use bench::drivers::run_alloc_fairness;
use bench::Args;
use wfrc_baselines::LfrcDomain;
use wfrc_core::oom::alloc_retry_bound;
use wfrc_core::{DomainConfig, WfrcDomain};
use wfrc_sim::stats::Table;
use wfrc_structures::RcMmDomain;

/// One cell: the fairness window on `d`, the Lemma 9 gate where the scheme
/// has a bound (`iters_bound`), the leak audit, one table row.
fn cell<D>(table: &mut Table, d: D, t: usize, window_ms: u64, iters_bound: Option<usize>)
where
    D: RcMmDomain<u64> + Send + Sync + 'static,
{
    let d = Arc::new(d);
    let scheme = d.scheme_name();
    let r = run_alloc_fairness(Arc::clone(&d), t, window_ms);
    if let Some(bound) = iters_bound {
        assert!(
            r.counters.max_alloc_iters <= bound as u64,
            "{scheme} t={t}: max alloc iters {} > bound {bound} ({} alloc failures)",
            r.counters.max_alloc_iters,
            r.failures
        );
    }
    let leak = d.leak_check_mm();
    assert!(
        leak.is_clean(),
        "{scheme} fairness run must end clean: {leak}"
    );
    let min = *r.per_thread.iter().min().unwrap();
    let max = *r.per_thread.iter().max().unwrap();
    table.row(&[
        t.to_string(),
        scheme.into(),
        min.to_string(),
        max.to_string(),
        format!("{:.3}", min as f64 / max.max(1) as f64),
        r.failures.to_string(),
        r.counters.max_alloc_iters.to_string(),
        iters_bound.map_or("none".into(), |b| b.to_string()),
    ]);
}

fn main() {
    let args = Args::parse(&["--threads", "--ops", "--json"], &[2, 4, 8], 300);
    let window_ms = args.ops;
    let mut table = Table::new(
        "E7: per-thread alloc completions in a fixed window (fairness)",
        &[
            "threads",
            "scheme",
            "min ops",
            "max ops",
            "min/max",
            "alloc failures",
            "max alloc iters",
            "iters bound",
        ],
    );
    for &t in &args.threads {
        let cap = t * 2 + 4;
        let wf = WfrcDomain::<u64>::new(DomainConfig::new(t, cap));
        cell(&mut table, wf, t, window_ms, Some(alloc_retry_bound(t)));
        let mut lf = LfrcDomain::<u64>::new(t, cap);
        lf.set_backoff(false);
        cell(&mut table, lf, t, window_ms, None);
    }
    println!("{}", table.render());
    if args.json {
        println!("{}", table.to_json());
    }
}
