//! The benchmark's `pq` workload in miniature, hunting its rare teardown
//! leak: two workers run random 50/50 insert / delete-min against one
//! skiplist priority queue in the paper configuration (fixed pool), beside
//! a yielding CPU hog that forces preemption inside operations. At the end
//! the queue drains in key order, the entry count balances, and the domain
//! must audit clean — a failure prints the `LeakReport` with its roots.
//!
//! Both schemes run the same test: a leak on both points at the structure,
//! a leak on one at its scheme. Each run is time-bounded, so a release
//! build covers many more operations in the same wall time.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use wfrc::baselines::LfrcDomain;
use wfrc::core::{DomainConfig, WfrcDomain};
use wfrc::sim::rng::SmallRng;
use wfrc::structures::manager::RcMmDomain;
use wfrc::structures::priority_queue::{PqCell, PriorityQueue};

const WORKERS: usize = 2;
const CAPACITY: usize = 1 << 14;
const PREFILL: u64 = 512;
const KEYS: u64 = 1 << 20;
const RUN: Duration = Duration::from_millis(1500);

/// A fresh seed per process (printed on failure): repeated runs cover
/// different key sequences.
fn seed() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

fn pq_teardown<D: RcMmDomain<PqCell<u64>>>(domain: &D, seed: u64) {
    let name = domain.scheme_name();
    let pq = {
        let h = domain.register_mm().expect("a slot for the setup");
        let pq = PriorityQueue::<u64>::new(&h).expect("a node for the head");
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..PREFILL {
            let k = rng.gen_range(KEYS);
            pq.insert(&h, k, k).expect("prefill fits the pool");
        }
        pq
    };
    let stop = AtomicBool::new(false);
    let (inserted, deleted) = std::thread::scope(|s| {
        let hog = s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..1_000 {
                    std::hint::spin_loop();
                }
                std::thread::yield_now();
            }
        });
        let workers: Vec<_> = (0..WORKERS as u64)
            .map(|w| {
                let pq = &pq;
                s.spawn(move || {
                    let h = domain.register_mm().expect("a slot per worker");
                    let mut rng = SmallRng::seed_from_u64(seed ^ ((w + 1) << 32));
                    let (mut inserted, mut deleted) = (0u64, 0u64);
                    let end = Instant::now() + RUN;
                    while Instant::now() < end {
                        for _ in 0..64 {
                            if rng.gen_bool(0.5) {
                                let k = rng.gen_range(KEYS);
                                inserted += u64::from(pq.insert(&h, k, k).is_ok());
                            } else if let Some((k, v)) = pq.delete_min(&h) {
                                assert_eq!(k, v, "{name}: delete_min paired key {k} with {v}");
                                deleted += 1;
                            }
                        }
                    }
                    (inserted, deleted)
                })
            })
            .collect();
        let totals = workers
            .into_iter()
            .map(|w| w.join().expect("workers never panic"))
            .fold((0, 0), |(i, d), (wi, wd)| (i + wi, d + wd));
        stop.store(true, Ordering::Relaxed);
        hog.join().expect("the hog never panics");
        totals
    });

    let h = domain.register_mm().expect("a slot for the teardown");
    let (mut drained, mut last) = (0u64, 0u64);
    while let Some((k, v)) = pq.delete_min(&h) {
        assert_eq!(k, v, "{name}: drain paired key {k} with {v}");
        assert!(k >= last, "{name}: drain not sorted, {k} after {last}");
        (drained, last) = (drained + 1, k);
    }
    pq.dispose(&h);
    drop(h);
    assert_eq!(
        PREFILL + inserted,
        deleted + drained,
        "{name}: entries do not balance (seed {seed:#x})"
    );
    let report = domain.leak_check_mm();
    assert!(
        report.is_clean(),
        "{name}: teardown leaked (seed {seed:#x}, {inserted} inserts, {deleted} deletes)\n{report}"
    );
}

#[test]
fn pq_teardown_is_leak_free_wfrc() {
    let domain = WfrcDomain::<PqCell<u64>>::new(DomainConfig::new(WORKERS + 1, CAPACITY));
    pq_teardown(&domain, seed());
}

#[test]
fn pq_teardown_is_leak_free_lfrc() {
    let domain = LfrcDomain::<PqCell<u64>>::new(WORKERS + 1, CAPACITY);
    pq_teardown(&domain, seed());
}
