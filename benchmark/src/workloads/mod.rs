//! The four workloads. Each puts a different layer of the stack on the
//! critical path (README.md, "Workloads"), runs over either scheme, and
//! checks its own outputs at teardown.

use crate::harness::{Driven, Round};

pub mod churn;
pub mod graph;
pub mod pq;
pub mod server;

/// Node pool of the paper configuration (no magazines, growth or classes).
pub const PAPER_CAPACITY: usize = 1 << 17;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scheme {
    /// The wait-free scheme under test.
    Wfrc,
    /// Valois-style lock-free reference counting, the in-run yardstick.
    Lfrc,
}

/// What one pass runs between set-up and teardown. With no rounds the pass
/// is a set-up and a teardown only: the further samples behind `setup_s`.
pub struct Plan {
    pub threads: usize,
    pub seed: u64,
    pub rounds: Vec<Round>,
}

/// One set-up → rounds → teardown pass over a fresh domain.
pub struct Session {
    /// Domain build, prefill, registration and pool build.
    pub setup_s: f64,
    pub driven: Driven,
    /// `server` only: sampled lease checkout latencies of the untraced
    /// measured rounds, in ticks, ascending.
    pub checkout_ticks: Vec<u32>,
}

/// Every workload's entry point. `Err` is an integrity violation.
pub type RunFn = fn(Scheme, &Plan) -> Result<Session, String>;

pub const ALL: [(&str, RunFn); 4] = [
    ("pq", pq::run),
    ("churn", churn::run),
    ("graph", graph::run),
    ("server", server::run),
];
