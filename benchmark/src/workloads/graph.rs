//! `graph` — churn over the weak-back-edged `LruList`: 30 % weak reads
//! inside a snapshot-pin session, 70 % strictly alternating
//! `push_front` / `pop_front`.
//!
//! The only workload that crosses the `pin` and `weak` tiers; it uses `rc`
//! and `link` differently from `pq` (reads under a pin beside
//! head-retargeting writes).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use wfrc_baselines::LfrcDomain;
use wfrc_core::counters::CounterSnapshot;
use wfrc_core::{DomainConfig, Growth, WfrcDomain};
use wfrc_structures::{LruCell, LruList, RcMm, RcMmDomain};

use super::{Plan, Scheme, Session, PAPER_CAPACITY};
use crate::harness::{drive, Kind, Op, Rng, Worker};
use crate::oracle::{check_balance, check_leaks, Integrity};
use crate::trace::{Traced, Tracer};

/// The pool grows past the paper's size only when it must. A worker that is
/// descheduled inside its pin session has every node the other frees
/// deferred behind it; the seed box takes its vCPUs away for up to ~100 ms
/// at a time, which at this workload's rate is some 70 000 nodes. At a fixed
/// 1<<16 that was a failed `push_front` in 2 of 16 runs; at 1<<16 with
/// growth it was a grown segment, and a `peak_rss_mb` of 6.7 or 9.7 MiB, in
/// 2 of 10. The steady state never reaches the growth path; a stall that
/// does shows as `arena.segments_grown`.
const MAX_CAPACITY: usize = 1 << 22;
const PREFILL: u64 = 64;
const WEAK_READ_PERCENT: u64 = 30;
const WALK: usize = 4;

/// Count and wrapping sum of the values that went through one end.
#[derive(Default)]
struct Flow {
    count: AtomicU64,
    sum: AtomicU64,
}

impl Flow {
    fn add(&self, count: u64, sum: u64) {
        self.count.fetch_add(count, Ordering::Relaxed);
        // fetch_add wraps, which is what a checksum wants.
        self.sum.fetch_add(sum, Ordering::Relaxed);
    }
}

#[derive(Default)]
struct Tally {
    pushed: Flow,
    popped: Flow,
}

struct GraphWorker<'a, H> {
    h: H,
    list: &'a LruList<u64>,
    rng: Rng,
    tid: u64,
    threads: u64,
    seq: u64,
    push_next: bool,
    integrity: &'a Integrity,
    tally: &'a Tally,
    pushed: (u64, u64),
    popped: (u64, u64),
}

impl<H> GraphWorker<'_, H> {
    /// A value read through a weak edge is one somebody pushed: a prefill
    /// index or a `(tid << 40) | seq` of a real worker.
    fn plausible(&self, v: u64) -> bool {
        v < PREFILL || (v >> 40) < self.threads
    }
}

impl<H: RcMm<LruCell<u64>>> Worker for GraphWorker<'_, H> {
    #[inline]
    fn op<Tr: Tracer>(&mut self, tr: &Tr) -> Op {
        let mm = Traced::new(&self.h, tr);
        if self.rng.below(100) < WEAK_READ_PERCENT {
            mm.snapshot_enter();
            let oldest = self.list.peek_lru(&mm);
            let newer = self.list.walk_newer(&mm, WALK);
            // SAFETY: pairs the enter above; no snapshot pointer escapes.
            unsafe { mm.snapshot_exit() };
            // A dead tail hint is an outcome (weak.upgrade_fail_share).
            for v in oldest.into_iter().chain(newer) {
                self.integrity.check(self.plausible(v), || {
                    format!("graph: weak read gave {v:#x}")
                });
            }
            return Op::Done;
        }
        let push = self.push_next;
        self.push_next = !push;
        if push {
            let v = (self.tid << 40) | self.seq;
            self.seq += 1;
            let ok = self.list.push_front(&mm, v).is_ok();
            if ok {
                self.pushed = (self.pushed.0 + 1, self.pushed.1.wrapping_add(v));
            }
            Op::done_if(ok)
        } else {
            // An empty list is an outcome, not a failure.
            if let Some(v) = self.list.pop_front(&mm) {
                self.popped = (self.popped.0 + 1, self.popped.1.wrapping_add(v));
            }
            Op::Done
        }
    }

    fn round_end(&mut self, _kind: Kind) -> CounterSnapshot {
        self.tally.pushed.add(self.pushed.0, self.pushed.1);
        self.tally.popped.add(self.popped.0, self.popped.1);
        (self.pushed, self.popped) = ((0, 0), (0, 0));
        self.h.counter_snapshot()
    }
}

fn session<D: RcMmDomain<LruCell<u64>>>(
    domain: &D,
    t0: Instant,
    plan: &Plan,
) -> Result<Session, String> {
    let integrity = Integrity::default();
    let tally = Tally::default();
    let list = LruList::<u64>::new();
    {
        let h = domain.register_mm().ok_or("graph: registry full")?;
        for v in 0..PREFILL {
            list.push_front(&h, v)
                .map_err(|_| "graph: prefill out of memory")?;
        }
        tally.pushed.add(PREFILL, (0..PREFILL).sum());
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let driven = drive(
        plan.threads,
        &plan.rounds,
        |tid| GraphWorker {
            h: domain.register_mm().expect("domain sized for the workers"),
            list: &list,
            rng: Rng::new(plan.seed, tid as u64),
            tid: tid as u64,
            threads: plan.threads as u64,
            seq: 0,
            push_next: true,
            integrity: &integrity,
            tally: &tally,
            pushed: (0, 0),
            popped: (0, 0),
        },
        Default::default,
    );

    let h = domain
        .register_mm()
        .ok_or("graph: registry full at teardown")?;
    let (mut drained, mut drained_sum) = (0u64, 0u64);
    while let Some(v) = list.pop_front(&h) {
        (drained, drained_sum) = (drained + 1, drained_sum.wrapping_add(v));
    }
    list.clear(&h); // drops the tail hint's weak count
    drop(h);
    let load = |f: &Flow| {
        (
            f.count.load(Ordering::Relaxed),
            f.sum.load(Ordering::Relaxed),
        )
    };
    let ((pushed, pushed_sum), (popped, popped_sum)) = (load(&tally.pushed), load(&tally.popped));
    check_balance(&integrity, "graph values", pushed, popped, drained);
    check_balance(
        &integrity,
        "graph checksum",
        pushed_sum,
        popped_sum,
        drained_sum,
    );
    check_leaks(&integrity, &domain.leak_check_mm());
    integrity.into_result()?;
    Ok(Session {
        setup_s,
        driven,
        checkout_ticks: Vec::new(),
    })
}

pub fn run(scheme: Scheme, plan: &Plan) -> Result<Session, String> {
    let threads = plan.threads + 1;
    let growth = Growth::doubling_to(MAX_CAPACITY);
    let t0 = Instant::now();
    match scheme {
        Scheme::Wfrc => {
            let config = DomainConfig::new(threads, PAPER_CAPACITY).with_growth(growth);
            session(&WfrcDomain::<LruCell<u64>>::new(config), t0, plan)
        }
        Scheme::Lfrc => {
            let domain = LfrcDomain::<LruCell<u64>>::with_growth(threads, PAPER_CAPACITY, growth);
            session(&domain, t0, plan)
        }
    }
}
