//! `pq` — the paper's §5 experiment: a skiplist priority queue, 50 % insert
//! / 50 % delete-min, over the paper configuration.
//!
//! Traversal-heavy: `rc.deref`, `rc.release` and `rc.fixref` carry almost
//! all of the memory-manager time, the free-list almost none.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use wfrc_baselines::LfrcDomain;
use wfrc_core::counters::CounterSnapshot;
use wfrc_core::{DomainConfig, WfrcDomain};
use wfrc_structures::{PqCell, PriorityQueue, RcMm, RcMmDomain};

use super::{Plan, Scheme, Session, PAPER_CAPACITY};
use crate::harness::{drive, Kind, Op, Rng, Worker};
use crate::oracle::{check_balance, check_leaks, Integrity};
use crate::trace::{Traced, Tracer};

const PREFILL: u64 = 4096;
const KEYS: u64 = 1 << 20;

#[derive(Default)]
struct Tally {
    inserted: AtomicU64,
    deleted: AtomicU64,
}

struct PqWorker<'a, H> {
    h: H,
    pq: &'a PriorityQueue<u64>,
    rng: Rng,
    /// The kinds of the next ops of the current block, one bit each
    /// (1 = insert), and how many of them are left.
    block: u64,
    left: u32,
    integrity: &'a Integrity,
    tally: &'a Tally,
    inserted: u64,
    deleted: u64,
}

impl<H: RcMm<PqCell<u64>>> Worker for PqWorker<'_, H> {
    #[inline]
    fn op<Tr: Tracer>(&mut self, tr: &Tr) -> Op {
        let mm = Traced::new(&self.h, tr);
        if self.left == 0 {
            // 50 % inserts in random order, exactly so over every 64 ops:
            // the queue length then stays within 64 per thread of the
            // prefill instead of drifting by thousands over a run, and with
            // it the depth every search descends.
            self.block = loop {
                let bits = self.rng.next();
                if bits.count_ones() == 32 {
                    break bits;
                }
            };
            self.left = 64;
        }
        let insert = self.block & 1 == 1;
        (self.block, self.left) = (self.block >> 1, self.left - 1);
        if insert {
            let k = self.rng.below(KEYS);
            let ok = self.pq.insert(&mm, k, k).is_ok();
            self.inserted += u64::from(ok);
            Op::done_if(ok)
        } else {
            // An empty queue is an outcome, not a failure.
            if let Some((k, v)) = self.pq.delete_min(&mm) {
                self.integrity.check(v == k, || {
                    format!("pq: delete_min gave value {v} for key {k}")
                });
                self.deleted += 1;
            }
            Op::Done
        }
    }

    fn round_end(&mut self, _kind: Kind) -> CounterSnapshot {
        self.tally
            .inserted
            .fetch_add(self.inserted, Ordering::Relaxed);
        self.tally
            .deleted
            .fetch_add(self.deleted, Ordering::Relaxed);
        (self.inserted, self.deleted) = (0, 0);
        self.h.counter_snapshot()
    }
}

fn session<D: RcMmDomain<PqCell<u64>>>(
    domain: &D,
    t0: Instant,
    plan: &Plan,
) -> Result<Session, String> {
    let integrity = Integrity::default();
    let tally = Tally::default();
    let pq = {
        let h = domain.register_mm().ok_or("pq: registry full")?;
        let pq = PriorityQueue::<u64>::new(&h).map_err(|_| "pq: no node for the sentinel")?;
        let mut rng = Rng::new(plan.seed, u64::MAX);
        for _ in 0..PREFILL {
            let k = rng.below(KEYS);
            pq.insert(&h, k, k)
                .map_err(|_| "pq: prefill out of memory")?;
        }
        pq
    };
    let setup_s = t0.elapsed().as_secs_f64();

    let driven = drive(
        plan.threads,
        &plan.rounds,
        |tid| PqWorker {
            h: domain.register_mm().expect("domain sized for the workers"),
            pq: &pq,
            rng: Rng::new(plan.seed, tid as u64),
            block: 0,
            left: 0,
            integrity: &integrity,
            tally: &tally,
            inserted: 0,
            deleted: 0,
        },
        Default::default,
    );

    let h = domain
        .register_mm()
        .ok_or("pq: registry full at teardown")?;
    let (mut drained, mut last) = (0u64, 0u64);
    while let Some((k, v)) = pq.delete_min(&h) {
        integrity.check(v == k, || format!("pq: drain gave value {v} for key {k}"));
        integrity.check(k >= last, || {
            format!("pq: drain not sorted, {k} after {last}")
        });
        (drained, last) = (drained + 1, k);
    }
    pq.dispose(&h);
    drop(h);
    check_balance(
        &integrity,
        "pq entries",
        PREFILL + tally.inserted.load(Ordering::Relaxed),
        tally.deleted.load(Ordering::Relaxed),
        drained,
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
    let t0 = Instant::now();
    match scheme {
        Scheme::Wfrc => {
            let domain = WfrcDomain::<PqCell<u64>>::new(DomainConfig::new(threads, PAPER_CAPACITY));
            session(&domain, t0, plan)
        }
        Scheme::Lfrc => {
            let domain = LfrcDomain::<PqCell<u64>>::new(threads, PAPER_CAPACITY);
            session(&domain, t0, plan)
        }
    }
}
