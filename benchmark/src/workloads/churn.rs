//! `churn` — the paper's Fig. 5 free-list used as a fixed-size allocator.
//!
//! Every thread keeps a ring of 64 live nodes; one op releases the oldest
//! and allocates and stamps a new one. `freelist.alloc` and `rc.release`
//! (→ FreeNode) are all of the calls: no derefs, no link CASes — the
//! mirror image of `pq`.

use std::ptr;
use std::time::Instant;

use wfrc_baselines::LfrcDomain;
use wfrc_core::counters::CounterSnapshot;
use wfrc_core::{DomainConfig, Link, Node, RcObject, WfrcDomain};
use wfrc_structures::{RcMm, RcMmDomain};

use super::{Plan, Scheme, Session, PAPER_CAPACITY};
use crate::harness::{drive, Kind, Op, Worker};
use crate::oracle::{check_leaks, Integrity};
use crate::trace::{Traced, Tracer};

const RING: usize = 64;

/// Two-word payload: who allocated the node, and as their how-manieth.
#[derive(Default)]
pub struct Stamp {
    tid: u64,
    seq: u64,
}

impl RcObject for Stamp {
    fn each_link(&self, _f: &mut dyn FnMut(&Link<Self>)) {}
}

/// A live node and the sequence number stamped into it.
type Entry = (*mut Node<Stamp>, u64);

struct ChurnWorker<'a, H: RcMm<Stamp>> {
    h: H,
    tid: u64,
    seq: u64,
    ring: [Entry; RING],
    integrity: &'a Integrity,
}

/// Releases `entry`'s node after checking that its stamp is the one written
/// at allocation — a node handed out twice would carry the other owner's.
fn retire<M: RcMm<Stamp>>(mm: &M, integrity: &Integrity, tid: u64, entry: &mut Entry) {
    let (old, expect) = std::mem::replace(entry, (ptr::null_mut(), 0));
    if old.is_null() {
        return;
    }
    // SAFETY: `old` carries the reference its allocation handed out, released
    // exactly once here.
    unsafe {
        let s = mm.payload(old);
        let (t, q) = (s.tid, s.seq);
        integrity.check(t == tid && q == expect, || {
            format!("churn: node stamped ({t}, {q}), expected ({tid}, {expect})")
        });
        mm.release_node(old);
    }
}

impl<H: RcMm<Stamp>> Worker for ChurnWorker<'_, H> {
    #[inline]
    fn op<Tr: Tracer>(&mut self, tr: &Tr) -> Op {
        let mm = Traced::new(&self.h, tr);
        let entry = &mut self.ring[(self.seq % RING as u64) as usize];
        retire(&mm, self.integrity, self.tid, entry);
        let ok = match mm.alloc_node() {
            Ok(n) => {
                // SAFETY: fresh, unpublished node — exclusively ours.
                unsafe {
                    *mm.payload_mut(n) = Stamp {
                        tid: self.tid,
                        seq: self.seq,
                    };
                }
                *entry = (n, self.seq);
                true
            }
            Err(_) => false,
        };
        self.seq += 1;
        Op::done_if(ok)
    }

    fn round_end(&mut self, _kind: Kind) -> CounterSnapshot {
        self.h.counter_snapshot()
    }
}

impl<H: RcMm<Stamp>> Drop for ChurnWorker<'_, H> {
    fn drop(&mut self) {
        for entry in &mut self.ring {
            retire(&self.h, self.integrity, self.tid, entry);
        }
    }
}

fn session<D: RcMmDomain<Stamp>>(domain: &D, t0: Instant, plan: &Plan) -> Result<Session, String> {
    let integrity = Integrity::default();
    // Registration is the whole set-up beyond the domain build.
    drop(domain.register_mm().ok_or("churn: registry full")?);
    let setup_s = t0.elapsed().as_secs_f64();
    let driven = drive(
        plan.threads,
        &plan.rounds,
        |tid| ChurnWorker {
            h: domain.register_mm().expect("domain sized for the workers"),
            tid: tid as u64,
            seq: 0,
            ring: [(ptr::null_mut(), 0); RING],
            integrity: &integrity,
        },
        Default::default,
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
            let domain = WfrcDomain::<Stamp>::new(DomainConfig::new(threads, PAPER_CAPACITY));
            session(&domain, t0, plan)
        }
        Scheme::Lfrc => session(&LfrcDomain::<Stamp>::new(threads, PAPER_CAPACITY), t0, plan),
    }
}
