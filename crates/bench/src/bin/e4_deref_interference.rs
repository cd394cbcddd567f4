//! E4 — the wait-freedom of `DeRefLink` (Lemma 6) vs. the unbounded retry
//! loop of Valois-style dereferencing, under adversarial link flipping.
//!
//! Two tables, selected with `--mode read|write|both`:
//!
//! * **read** (reader-side): one reader dereferences a hot link while k
//!   writer threads flip it between two nodes. The load-bearing column is
//!   **max retries per op**: 0 for the wait-free scheme (its dereference
//!   is at most one fast attempt and then D1–D10, where the announcement
//!   either survives or is answered — a fallback, not a retry), and
//!   growing with interference for the lock-free baseline, whose loop is
//!   that same attempt. **Fast miss share** is the share of dereferences
//!   whose fast attempt missed: at most 1 for the wait-free scheme, the
//!   mean retries per call for the baseline. Latency percentiles on a
//!   1-CPU box are dominated by preemption, so the counters are the
//!   primary evidence; the latency tail is reported anyway.
//! * **write** (zero-announcer): the writers flip the link via raw
//!   `CompareAndSwapLink` with **no reader and no dereference anywhere**,
//!   so no announcement is ever live and every obligatory `HelpDeRef` runs
//!   against an empty table. The skip-rate column shows how often the
//!   announcement-presence summary answered that in one word
//!   (`help_scan_skips / (help_scan_skips + help_scan_full)`); the ops/s
//!   column is the §3.2 write-side helping tax with nothing to help —
//!   the common case for store/CAS-heavy workloads. The domain is sized
//!   at [`NR_THREADS`] for every row (the paper's `NR_THREADS` is a
//!   compile-time machine constant, so the matrices — and the O(N) sweep
//!   the summary short-circuits — are sized for the machine, not for the
//!   active writer count).
//!
//! A third variant, `--mode read --snapshot`, sets the reader's counted
//! dereference beside the PR 9 pinned plain-load snapshot path — see
//! [`read_snapshot_table`].
//!
//! Every cell's domain is leak-audited after its run.
//!
//! ```text
//! cargo run --release --bin e4_deref_interference [-- --threads 0,1,2,4 --ops 100000 --json --mode both]
//! cargo run --release --bin e4_deref_interference -- --mode read --snapshot
//! ```
//! (here `--threads` = interfering writer counts; write mode skips 0)

use std::sync::Arc;

use bench::drivers::{run_deref_interference, run_write_interference};
use bench::Args;
use wfrc_baselines::LfrcDomain;
use wfrc_core::{DomainConfig, WfrcDomain};
use wfrc_sim::stats::{fmt_ns, fmt_ops, Summary, Table};
use wfrc_structures::RcMmDomain;

fn wfrc(threads: usize) -> WfrcDomain<u64> {
    WfrcDomain::new(DomainConfig::new(threads, 16))
}

/// Backoff off, so retry counts reflect raw contention.
fn lfrc(threads: usize) -> LfrcDomain<u64> {
    let mut d = LfrcDomain::new(threads, 16);
    d.set_backoff(false);
    d
}

/// Runs one cell on `d`, then leak-audits the domain. Returns the scheme
/// name with the cell's result.
fn audited<D: RcMmDomain<u64>, R>(d: D, run: impl FnOnce(Arc<D>) -> R) -> (&'static str, R) {
    let d = Arc::new(d);
    let r = run(Arc::clone(&d));
    let leak = d.leak_check_mm();
    assert!(
        leak.is_clean(),
        "{} E4 cell must end clean: {leak}",
        d.scheme_name()
    );
    (d.scheme_name(), r)
}

fn read_table(args: &Args) {
    let mut table = Table::new(
        "E4: DeRefLink under link-flipping interference (reader-side)",
        &[
            "writers",
            "scheme",
            "reader ops/s",
            "mean",
            "p99",
            "max",
            "deref retries (total)",
            "max retries/op",
            "fast miss share",
            "helped derefs",
        ],
    );
    for &w in &args.threads {
        let ops = args.ops;
        for (scheme, (result, hist)) in [
            audited(wfrc(w + 2), |d| run_deref_interference(d, w, ops, false)),
            audited(lfrc(w + 2), |d| run_deref_interference(d, w, ops, false)),
        ] {
            let (s, c) = (Summary::of(&hist), result.counters);
            table.row(&[
                w.to_string(),
                scheme.into(),
                fmt_ops(result.ops_per_sec()),
                fmt_ns(s.mean as u64),
                fmt_ns(s.p99),
                fmt_ns(s.max),
                c.deref_retries.to_string(),
                c.max_deref_retries.to_string(),
                format!(
                    "{:.4}",
                    c.deref_fast_miss as f64 / c.deref_calls.max(1) as f64
                ),
                c.deref_helped.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "note: a wfrc DeRefLink is <= 1 fast attempt + D1-D10 (Lemma 6); a fallback is not a \
         retry, so its max retries/op stays 0 and its fast miss share stays <= 1.\n"
    );
    if args.json {
        println!("{}", table.to_json());
    }
}

/// E4 `--mode read --snapshot`: the PR 9 snapshot read path — the reader
/// holds a pin session and dereferences with plain loads (DESIGN.md §4f) —
/// beside the counted path it replaces. The headline column is **ns/deref
/// vs. LFRC**: the counted wait-free path pays ~2× the baseline's per-deref
/// cost (announcement write + count FAAs); the snapshot path runs the
/// identical loads the unprotected baseline runs, so the gap collapses.
/// `count FAAs/op` is the counters-grounded cost model: one `mm_ref`
/// fetch-add on dereference and one on release (`deref_calls + releases`,
/// 2/op while the fast attempt hits; a miss adds its release) for the
/// counted reader, zero for the snapshot reader — its
/// per-session epoch bump and pin-bit write amortize over the re-pin
/// interval. `snapshot derefs` confirms every read took the plain-load
/// path; `deferred decs` counts frees the live pin diverted to the deferred
/// lists (0 here — the experiment's standing counts mean no node ever dies
/// mid-run).
fn read_snapshot_table(args: &Args) {
    let mut table = Table::new(
        "E4 (snapshot): counted vs plain-load reads under a pin, link-flipping interference",
        &[
            "writers",
            "scheme",
            "reader",
            "reader ops/s",
            "mean",
            "p99",
            "max",
            "count FAAs/op",
            "snapshot derefs",
            "deferred decs",
            "upgrade slow",
        ],
    );
    for &w in &args.threads {
        let ops = args.ops;
        for (reader, (scheme, (result, hist))) in [
            (
                "counted",
                audited(wfrc(w + 2), |d| run_deref_interference(d, w, ops, false)),
            ),
            (
                "snapshot",
                audited(wfrc(w + 2), |d| run_deref_interference(d, w, ops, true)),
            ),
            (
                "snapshot",
                audited(lfrc(w + 2), |d| run_deref_interference(d, w, ops, true)),
            ),
        ] {
            let (s, c) = (Summary::of(&hist), result.counters);
            table.row(&[
                w.to_string(),
                scheme.into(),
                reader.into(),
                fmt_ops(result.ops_per_sec()),
                fmt_ns(s.mean as u64),
                fmt_ns(s.p99),
                fmt_ns(s.max),
                format!(
                    "{:.3}",
                    (c.deref_calls + c.releases) as f64 / args.ops as f64
                ),
                c.snapshot_derefs.to_string(),
                c.deferred_decs.to_string(),
                c.upgrade_slow.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "note: both snapshot rows run the identical plain-load reader loop; the lfrc row's\n\
         guard is a no-op (its loads are protected only by the experiment's standing\n\
         counts), so the wfrc/lfrc ratio is the full price of snapshot protection.\n"
    );
    if args.json {
        println!("{}", table.to_json());
    }
}

/// The write table's `NR_THREADS` (paper §3: the matrices are statically
/// sized for the machine). Sizing per-row at `writers + 1` instead would
/// shrink the very sweep the presence summary is meant to short-circuit.
const NR_THREADS: usize = 32;

fn write_table(args: &Args) {
    let mut table = Table::new(
        "E4 (write path): link flips with no announcer (help-scan fast path)",
        &[
            "writers",
            "scheme",
            "write ops/s",
            "help_calls",
            "help_answers",
            "scan skips",
            "full scans",
            "skip rate",
        ],
    );
    for &w in &args.threads {
        if w == 0 {
            continue; // the write table needs at least one writer
        }
        let n = NR_THREADS.max(w + 1);
        for (scheme, result) in [
            audited(wfrc(n), |d| run_write_interference(d, w, args.ops)),
            audited(lfrc(n), |d| run_write_interference(d, w, args.ops)),
        ] {
            let c = result.counters;
            table.row(&[
                w.to_string(),
                scheme.into(),
                fmt_ops(result.ops_per_sec()),
                c.help_calls.to_string(),
                c.help_answers.to_string(),
                c.help_scan_skips.to_string(),
                c.help_scan_full.to_string(),
                skip_rate(c.help_scan_skips, c.help_scan_full),
            ]);
        }
    }
    println!("{}", table.render());
    if args.json {
        println!("{}", table.to_json());
    }
}

/// `skips / (skips + full)`, or `n/a` when the scheme never scans (LFRC has
/// no helping obligation at all).
fn skip_rate(skips: u64, full: u64) -> String {
    let total = skips + full;
    if total == 0 {
        "n/a".into()
    } else {
        format!("{:.4}", skips as f64 / total as f64)
    }
}

fn main() {
    let args = Args::parse(
        &["--threads", "--ops", "--json", "--mode", "--snapshot"],
        &[0, 1, 2, 4],
        100_000,
    );
    match args.mode.as_str() {
        "read" if args.snapshot => read_snapshot_table(&args),
        "read" => read_table(&args),
        "write" => write_table(&args),
        _ => {
            read_table(&args);
            if args.snapshot {
                read_snapshot_table(&args);
            }
            write_table(&args);
        }
    }
}
