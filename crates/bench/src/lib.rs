//! Shared experiment drivers.
//!
//! Each `src/bin/eN_*.rs` binary is a thin front-end over these drivers;
//! DESIGN.md §5 maps experiment ids to binaries. All drivers use fixed
//! operation counts (identical work per scheme — the paper-era
//! methodology), barrier-started workers, and seeded per-task RNG streams,
//! so scheme comparisons are apples-to-apples.

pub mod drivers;

use std::time::Duration;

use wfrc_core::counters::CounterSnapshot;

/// Result of one experiment cell.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Worker thread count.
    pub threads: usize,
    /// Total completed operations across workers.
    pub total_ops: u64,
    /// Wall time of the measured section.
    pub wall: Duration,
    /// Merged per-thread memory-management counters (zeroed for the
    /// non-refcounting schemes, which report their own stats).
    pub counters: CounterSnapshot,
}

impl RunResult {
    /// Operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.total_ops as f64 / self.wall.as_secs_f64()
        }
    }
}

/// Parses `--threads 1,2,4` / `--ops 50000` style args with defaults, so
/// every experiment binary shares one tiny CLI convention.
pub struct Args {
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Operations per thread.
    pub ops: u64,
    /// Emit a JSON blob after the table.
    pub json: bool,
    /// Run the under-provisioned growth-mode variant (E9/E11/E12): pools
    /// start far below the live peak and must grow to finish.
    pub grow: bool,
    /// Run with per-thread allocation magazines (E9/E11).
    pub magazine: bool,
    /// Give grown segments back (E9/E11/E12): quiescent segment
    /// reclamation after — and for E12 beside — the traffic.
    pub reclaim: bool,
    /// E4 table selection: `read` (reader-side deref interference), `write`
    /// (zero-announcer link flipping), or `both` (default).
    pub mode: String,
    /// E4 read-mode variant: readers use the pinned plain-load snapshot
    /// path (DESIGN.md §4f) instead of counted dereferences.
    pub snapshot: bool,
    /// Byte-class block sizes (E11/E12), e.g. `--classes 64,256,1024`; an
    /// empty vec means "use the binary's default ladder".
    pub classes: Vec<usize>,
    /// Sessions for the server experiment (E12).
    pub tasks: usize,
    /// Lease-pool slot counts to sweep (E12), e.g. `--slots 16,64`.
    pub slots: Vec<usize>,
    /// Worker threads draining the E12 sessions; 0 means "use the
    /// machine's available parallelism".
    pub workers: usize,
    /// Tasks that die holding a lease (E12 chaos mode); starts the
    /// recovery supervisor thread.
    pub kill: usize,
}

impl Args {
    /// Parses `std::env::args` with the given defaults. `flags` lists the
    /// options this binary reads; any other argument panics with that list,
    /// so a flag the binary would ignore cannot pass for one it honoured.
    pub fn parse(flags: &[&str], default_threads: &[usize], default_ops: u64) -> Self {
        Self::parse_from(
            std::env::args().skip(1),
            flags,
            default_threads,
            default_ops,
        )
    }

    fn parse_from(
        mut args: impl Iterator<Item = String>,
        flags: &[&str],
        default_threads: &[usize],
        default_ops: u64,
    ) -> Self {
        let mut out = Self {
            threads: default_threads.to_vec(),
            ops: default_ops,
            json: false,
            grow: false,
            magazine: false,
            reclaim: false,
            mode: "both".into(),
            snapshot: false,
            classes: Vec::new(),
            tasks: 10_000,
            slots: vec![16, 64],
            workers: 0,
            kill: 0,
        };
        while let Some(a) = args.next() {
            assert!(
                flags.contains(&a.as_str()),
                "unknown argument: {a} (expected {})",
                flags.join("/")
            );
            match a.as_str() {
                "--threads" => {
                    let v = args.next().expect("--threads needs a value");
                    out.threads = v
                        .split(',')
                        .map(|s| s.trim().parse().expect("bad thread count"))
                        .collect();
                }
                "--ops" => {
                    out.ops = args
                        .next()
                        .expect("--ops needs a value")
                        .parse()
                        .expect("bad op count");
                }
                "--json" => out.json = true,
                "--grow" => out.grow = true,
                "--magazine" => out.magazine = true,
                "--reclaim" => out.reclaim = true,
                "--mode" => {
                    out.mode = args.next().expect("--mode needs a value");
                    assert!(
                        matches!(out.mode.as_str(), "read" | "write" | "both"),
                        "bad --mode {} (expected read/write/both)",
                        out.mode
                    );
                }
                "--snapshot" => out.snapshot = true,
                "--classes" => {
                    let v = args.next().expect("--classes needs a value");
                    out.classes = v
                        .split(',')
                        .map(|s| s.trim().parse().expect("bad class size"))
                        .collect();
                    assert!(!out.classes.is_empty(), "--classes needs at least one size");
                }
                "--tasks" => {
                    out.tasks = args
                        .next()
                        .expect("--tasks needs a value")
                        .parse()
                        .expect("bad task count");
                }
                "--slots" => {
                    let v = args.next().expect("--slots needs a value");
                    out.slots = v
                        .split(',')
                        .map(|s| s.trim().parse().expect("bad slot count"))
                        .collect();
                    assert!(!out.slots.is_empty(), "--slots needs at least one count");
                }
                "--workers" => {
                    out.workers = args
                        .next()
                        .expect("--workers needs a value")
                        .parse()
                        .expect("bad worker count");
                }
                "--kill" => {
                    out.kill = args
                        .next()
                        .expect("--kill needs a value")
                        .parse()
                        .expect("bad kill count");
                }
                other => unreachable!("{other} is listed but has no parser"),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::Args;

    fn parse(argv: &[&str], flags: &[&str]) -> Args {
        Args::parse_from(argv.iter().map(|s| s.to_string()), flags, &[1], 10)
    }

    #[test]
    fn listed_flags_parse_and_defaults_hold() {
        let a = parse(
            &["--threads", "2,4", "--reclaim"],
            &["--threads", "--ops", "--reclaim"],
        );
        assert_eq!(a.threads, [2, 4]);
        assert_eq!(a.ops, 10);
        assert!(a.reclaim && !a.grow);
    }

    #[test]
    #[should_panic(expected = "unknown argument: --reclaim (expected --threads/--ops/--json)")]
    fn a_flag_the_binary_never_reads_is_rejected() {
        parse(
            &["--ops", "5", "--reclaim"],
            &["--threads", "--ops", "--json"],
        );
    }
}
