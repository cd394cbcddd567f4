//! `server` — sessions over leased registration slots hammer one
//! `SessionCache` whose values live in byte classes (E12 without chaos).
//!
//! The only workload with `lease`, `class` and `magazine` on the path; the
//! shared free-list is mostly bypassed. No reclaimer, sentinel, TTL or
//! kills.

use std::sync::Mutex;
use std::time::Instant;

use wfrc_baselines::LfrcDomain;
use wfrc_core::counters::CounterSnapshot;
use wfrc_core::{
    ClassConfig, DomainConfig, Growth, LeaseConfig, LeaseGuard, LeasePool, LeaseRegistry, RawBytes,
    WfrcDomain,
};
use wfrc_structures::{ListCell, RcMm, RcMmDomain, SessionCache, SessionMm};

use super::{Plan, Scheme, Session};
use crate::clock;
use crate::harness::{drive, Kind, Op, Rng, Worker};
use crate::oracle::{check_leaks, check_pattern, fill_pattern, Integrity};
use crate::trace::{Layer, Traced, Tracer};

type Cell = ListCell<RawBytes>;

const SLOTS: usize = 16;
const SESSION_OPS: u32 = 32;
/// Keys per lease stripe: `key = tid + SLOTS * r`, `r` in `0..STRIPE_KEYS`.
const STRIPE_KEYS: u64 = 256;
const SIZES: [usize; 3] = [64, 256, 1024];
const CLASS_BLOCKS: usize = 4096;
/// E12's node pool: two cells per key, slack per slot, and a margin.
const NODES: usize = 2 * (SLOTS * STRIPE_KEYS as usize) + 16 * SLOTS + 1024;
/// One lease checkout in 16 is timed (untraced measured rounds only).
const CHECKOUT_SAMPLE: u64 = 16;

fn class_configs() -> Vec<ClassConfig> {
    SIZES
        .iter()
        .map(|&size| {
            ClassConfig::new(size, CLASS_BLOCKS)
                .with_growth(Growth::doubling_to(1 << 20))
                .with_magazine(16)
        })
        .collect()
}

struct ServerWorker<'p, 'd, R: LeaseRegistry> {
    pool: &'p LeasePool<'d, R>,
    cache: &'p SessionCache,
    integrity: &'p Integrity,
    checkouts: &'p Mutex<Vec<u32>>,
    /// The session in progress, and how many of its ops are done.
    guard: Option<LeaseGuard<'p, 'd, R>>,
    step: u32,
    sessions: u64,
    ops: u64,
    rng: Rng,
    scratch: Vec<u8>,
    checkout_ticks: Vec<u32>,
}

impl<'d, R> Worker for ServerWorker<'_, 'd, R>
where
    R: LeaseRegistry,
    R::Handle<'d>: SessionMm,
{
    /// One cache op. The session's first op also checks the lease out; its
    /// last also purges the stripe (one session in four) and returns the
    /// lease — so every nanosecond of a session belongs to some op. An op
    /// that purged gives no latency sample: at 1 op in 128 and ~15 µs the
    /// purges sit right at the p99 rank, and `tail.op_p99_ns` flipped between
    /// the cache ops' own tail and the purge from run to run (spread 19 %).
    #[inline]
    fn op<Tr: Tracer>(&mut self, tr: &Tr) -> Op {
        if self.guard.is_none() {
            let timed = !Tr::ON && self.sessions % CHECKOUT_SAMPLE == 0;
            let t0 = if timed { clock::ticks() } else { 0 };
            let guard = tr.span(Layer::Lease, || self.pool.acquire());
            if timed {
                let dt = clock::ticks() - t0;
                self.checkout_ticks
                    .push(u32::try_from(dt).unwrap_or(u32::MAX));
            }
            (self.guard, self.step) = (Some(guard), 0);
            self.sessions += 1;
        }
        let guard = self.guard.as_ref().expect("session opened above");
        // The lease is the ownership token: SessionCache wants one operator
        // per key, and concurrent sessions hold distinct tids.
        let stripe = guard.tid() as u64;
        self.integrity.check(stripe < SLOTS as u64, || {
            format!("server: leased tid {stripe} outside the {SLOTS} stripes")
        });
        let mm = Traced::new(&**guard, tr);
        let (cache, integrity) = (self.cache, self.integrity);
        let hit = |key: u64, v: Option<Vec<u8>>| {
            if let Some(v) = v {
                integrity.check(check_pattern(key, &v), || {
                    format!("server: value of key {key} ({} bytes) corrupted", v.len())
                });
            }
        };
        let key = stripe + SLOTS as u64 * self.rng.below(STRIPE_KEYS);
        let roll = self.rng.below(100);
        let ok = if roll < 50 {
            // Just under a class size, so smallest-fit selection is used.
            let size = SIZES[self.rng.below(SIZES.len() as u64) as usize];
            let value = &mut self.scratch[..size - (self.ops % 8) as usize];
            fill_pattern(key, value);
            cache.put(&mm, key, value).is_ok()
        } else if roll < 80 {
            hit(key, cache.get(&mm, key));
            true
        } else {
            hit(key, cache.remove(&mm, key));
            true
        };
        let mut op = Op::done_if(ok);
        self.ops += 1;
        self.step += 1;
        if self.step == SESSION_OPS {
            if self.rng.below(4) == 0 {
                for r in 0..STRIPE_KEYS {
                    let key = stripe + SLOTS as u64 * r;
                    hit(key, cache.remove(&mm, key));
                }
                if ok {
                    op = Op::DoneUntimed;
                }
            }
            let guard = self.guard.take();
            tr.span(Layer::Lease, || drop(guard));
        }
        op
    }

    fn round_end(&mut self, kind: Kind) -> CounterSnapshot {
        // Return the lease, so the slots' counters can be read while the
        // workers are parked; the next round starts a fresh session.
        self.guard = None;
        if kind == Kind::Warmup {
            self.checkout_ticks.clear();
        }
        self.checkouts
            .lock()
            .expect("checkout samples poisoned")
            .append(&mut self.checkout_ticks);
        CounterSnapshot::default()
    }
}

fn session<'d, R>(domain: &'d R, t0: Instant, plan: &Plan) -> Result<Session, String>
where
    R: LeaseRegistry + RcMmDomain<Cell>,
    <R as LeaseRegistry>::Handle<'d>: SessionMm,
{
    let integrity = Integrity::default();
    let pool = LeasePool::new(domain, LeaseConfig::new(SLOTS))
        .map_err(|_| "server: domain too small for the lease pool")?;
    let cache = SessionCache::new(1024);
    let setup_s = t0.elapsed().as_secs_f64();

    let checkouts = Mutex::new(Vec::new());
    let driven = drive(
        plan.threads,
        &plan.rounds,
        |tid| ServerWorker {
            pool: &pool,
            cache: &cache,
            integrity: &integrity,
            checkouts: &checkouts,
            guard: None,
            step: 0,
            sessions: 0,
            ops: 0,
            rng: Rng::new(plan.seed, tid as u64),
            scratch: vec![0; SIZES[SIZES.len() - 1]],
            checkout_ticks: Vec::new(),
        },
        || {
            let stats = pool.stats();
            // The counters live in the pool's handles: check all of
            // them out at once and add them up.
            let guards: Vec<_> = (0..SLOTS).map(|_| pool.acquire()).collect();
            let counters = guards.iter().fold(CounterSnapshot::default(), |sum, g| {
                sum.merged(&<<R as LeaseRegistry>::Handle<'d> as RcMm<Cell>>::counter_snapshot(g))
            });
            (counters, stats)
        },
    );

    let stats = pool.stats();
    integrity.check(stats.issued == stats.released, || {
        format!(
            "server: {} leases issued, {} released",
            stats.issued, stats.released
        )
    });
    {
        let guard = pool.acquire();
        cache.dispose(&*guard);
    }
    drop(pool);
    check_leaks(&integrity, &domain.leak_check_mm());
    integrity.into_result()?;
    let mut checkout_ticks = checkouts.into_inner().expect("checkout samples poisoned");
    checkout_ticks.sort_unstable();
    Ok(Session {
        setup_s,
        driven,
        checkout_ticks,
    })
}

pub fn run(scheme: Scheme, plan: &Plan) -> Result<Session, String> {
    let t0 = Instant::now();
    match scheme {
        Scheme::Wfrc => {
            let config = DomainConfig::new(SLOTS + 1, NODES)
                .with_magazine(DomainConfig::DEFAULT_MAGAZINE)
                .with_classes(class_configs());
            session(&WfrcDomain::<Cell>::new(config), t0, plan)
        }
        Scheme::Lfrc => {
            let mut domain = LfrcDomain::<Cell>::new(SLOTS + 1, NODES);
            domain.set_magazine(DomainConfig::DEFAULT_MAGAZINE);
            domain.set_classes(class_configs());
            session(&domain, t0, plan)
        }
    }
}
