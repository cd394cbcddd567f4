//! Measurement harness for the `bench/` diagnostics and the test suites.
//!
//! The paper's one experiment (§5: priority-queue throughput parity) is the
//! `benchmark/` package's `pq` workload; this crate is the shared machinery
//! of the diagnostic binaries that remain beside it (DESIGN.md §5) and of
//! the stress tests:
//!
//! * [`rng`] — the in-tree SplitMix64 generator (the repository builds
//!   offline with zero external dependencies);
//! * [`exec`] — barrier-started thread executors (fixed-op and fixed-time)
//!   returning per-thread results, and the shared [`StopFlag`]. Every
//!   experiment runs on plain threads; there is no async executor;
//! * [`latency`] — a fixed-bucket log-scale histogram for per-op latency
//!   (no allocation on the record path);
//! * [`stats`] — summaries (mean/percentiles/max) and fixed-width table
//!   printing, plus JSON export for EXPERIMENTS.md;
//! * [`supervisor`] — a dedicated thread that calls a recovery helper at
//!   a fixed period, stopped when its handle drops.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod exec;
pub mod latency;
pub mod rng;
pub mod stats;
pub mod supervisor;

pub use exec::{run_fixed_ops, run_timed, StopFlag};
pub use latency::Histogram;
pub use rng::SmallRng;
pub use stats::{Summary, Table};
pub use supervisor::Supervisor;
