//! The repo's benchmark: one process runs one workload, either untraced
//! (`--trace 0`, the end-to-end metrics) or with the LFRC yardstick and a
//! traced round (`--trace 1`, the per-layer metrics). `run.sh` is the one
//! command around it; README.md is the glossary.

mod clock;
mod harness;
mod oracle;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use harness::{Kind, Round, RoundOut};
use report::{Metric, PerLayerInput};
use workloads::{Plan, RunFn, Scheme};

const USAGE: &str = "usage: wfrc-benchmark --workload pq|churn|graph|server \
[--seed N] [--seconds N] [--trace 0|1] [--quick]";

/// Seed used when none is given; recorded in every output.
const DEFAULT_SEED: u64 = 20_050_404;
/// Length of one round; `--seconds` buys `seconds / ROUND_S` of them (never
/// fewer than `MIN_ROUNDS`, so short runs get shorter rounds instead).
const ROUND_S: f64 = 4.0;
const MIN_ROUNDS: usize = 5;
const WARMUP_S: f64 = 1.0;
/// Set-ups of a `--trace 0` run: the measured pass's own, then set-up and
/// teardown of further fresh domains. `setup_s` is their median — one
/// set-up is a millisecond or less on three of the workloads, too short to
/// stand alone.
const SETUPS: usize = 15;
/// Where `--trace 1` writes `trace-<workload>.jsonl`, from the repo root.
const RESULTS_DIR: &str = "benchmark/results";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// One round of one second per phase; the oracles stay on.
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 28.0,
        trace: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(1.0..=60.0).contains(&args.seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    Ok(args)
}

fn rounds(warmup_s: f64, kinds: &[(Kind, usize)], secs: f64) -> Vec<Round> {
    let mut out = vec![Round {
        kind: Kind::Warmup,
        secs: warmup_s,
    }];
    for &(kind, n) in kinds {
        out.extend((0..n).map(|_| Round { kind, secs }));
    }
    out
}

/// One line per measured round on standard error: the values the medians
/// are taken over, and the sample count behind each percentile.
fn log_rounds(scheme: Scheme, rounds: &[RoundOut]) {
    for r in rounds.iter().filter(|r| r.kind != Kind::Warmup) {
        eprintln!(
            "wfrc-benchmark: {scheme:?} {:?} round: {:.0} ops/s, p50 {:.0} ns, p99 {:.0} ns ({} samples)",
            r.kind,
            r.ops as f64 / r.wall_s,
            clock::to_ns(u64::from(r.lat.p50)),
            clock::to_ns(u64::from(r.lat.p99)),
            r.lat.samples
        );
    }
}

fn print_table(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
}

fn run(args: &Args, workload: RunFn) -> Result<(u64, u64, Vec<Metric>), String> {
    let threads = harness::worker_threads();
    let (n, secs, warmup_s) = if args.quick {
        (1, 1.0, 0.2)
    } else {
        let n = ((args.seconds / ROUND_S) as usize).max(MIN_ROUNDS);
        (n, args.seconds / n as f64, WARMUP_S)
    };
    let plan = |kinds: &[(Kind, usize)]| Plan {
        threads,
        seed: args.seed,
        rounds: rounds(warmup_s, kinds, secs),
    };

    if !args.trace {
        let wfrc = workload(Scheme::Wfrc, &plan(&[(Kind::Plain, n)]))?;
        // Read before the further set-ups: they are not the workload's.
        let peak_rss_mib = harness::peak_rss_mib();
        log_rounds(Scheme::Wfrc, &wfrc.driven.rounds);
        let bare = Plan {
            threads,
            seed: args.seed,
            rounds: Vec::new(),
        };
        let mut setups = vec![wfrc.setup_s];
        for _ in 1..SETUPS {
            setups.push(workload(Scheme::Wfrc, &bare)?.setup_s);
        }
        let (attempted, failed) = report::attempts(&wfrc.driven.rounds);
        let metrics = report::end_to_end(&wfrc.driven.rounds, peak_rss_mib, stats::median(&setups));
        return Ok((attempted, failed, metrics));
    }

    // The measured time splits 2 : 2 : 1 between untraced wfrc rounds (the
    // counters and the overhead base), the LFRC yardstick, and the trace.
    let (n_plain, n_traced) = ((2 * n / 5).max(1), (n / 5).max(1));
    let timer_ticks = trace::calibrate_timer();
    let wfrc = workload(
        Scheme::Wfrc,
        &plan(&[(Kind::Plain, n_plain), (Kind::Traced, n_traced)]),
    )?;
    let lfrc = workload(Scheme::Lfrc, &plan(&[(Kind::Plain, n_plain)]))?;
    let (wfrc_rounds, lfrc_rounds) = (&wfrc.driven.rounds[..], &lfrc.driven.rounds[..]);
    log_rounds(Scheme::Wfrc, wfrc_rounds);
    log_rounds(Scheme::Lfrc, lfrc_rounds);
    let path = Path::new(RESULTS_DIR).join(format!("trace-{}.jsonl", args.workload));
    let traced = report::traced_agg(wfrc_rounds);
    std::fs::create_dir_all(RESULTS_DIR)
        .and_then(|()| trace::write_jsonl(&path, &args.workload, &traced))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let (attempted, failed) = report::attempts(wfrc_rounds);
    let metrics = report::per_layer(&PerLayerInput {
        wfrc_rounds,
        traced: &traced,
        checkout_ticks: &wfrc.checkout_ticks,
        lfrc_rounds,
        timer_ticks,
        threads,
        pinned: wfrc.driven.pinned,
    });
    Ok((attempted, failed, metrics))
}

fn main() -> ExitCode {
    // A worker that panics would leave the others waiting at the round
    // barrier for ever: any panic ends the process, with a failing code.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("wfrc-benchmark: {info}");
        std::process::exit(101);
    }));
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(&(_, workload)) = workloads::ALL.iter().find(|(n, _)| *n == args.workload) else {
        eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    eprintln!(
        "wfrc-benchmark: workload {} seed {} trace {} threads {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        harness::worker_threads()
    );
    match run(&args, workload) {
        Ok((attempted, failed, metrics)) => {
            print_table(&args.workload, &metrics);
            println!(
                "{}",
                report::result_json(true, attempted.max(1), failed, &metrics)
            );
            ExitCode::SUCCESS
        }
        Err(violation) => {
            eprintln!("wfrc-benchmark: INTEGRITY VIOLATION: {violation}");
            ExitCode::FAILURE
        }
    }
}
