//! Targeted races on the announcement/helping protocol — the heart of the
//! paper's wait-freedom argument (§3, Lemma 2).

use std::sync::Arc;

use wfrc::baselines::LfrcDomain;
use wfrc::core::counters::CounterSnapshot;
use wfrc::core::oom::alloc_retry_bound;
use wfrc::core::{DomainConfig, Link, Node, WfrcDomain};
use wfrc::primitives::spin::SpinBarrier;
use wfrc::structures::{RcMm, RcMmDomain};

/// Readers hammer `deref` on a link while writers retarget it and release
/// the old node — the §3.2 situation `HelpDeRef` exists for. After the
/// dust settles every node must be accounted for, and the counters must
/// show help actually flowing (not just never triggering).
#[test]
fn helpers_answer_racing_readers() {
    const READERS: usize = 3;
    const WRITERS: usize = 3;
    const ROUNDS: u64 = 30_000;

    let domain = Arc::new(WfrcDomain::<u64>::new(DomainConfig::new(
        READERS + WRITERS,
        256,
    )));
    let link = Arc::new(Link::<u64>::null());
    // Publish an initial node so the link is never ⊥: every reader deref
    // must then return a live node, regardless of scheduling.
    {
        let h = domain.register().unwrap();
        let first = h.alloc_with(|v| *v = u64::MAX).unwrap();
        h.store(&link, Some(&first));
    }
    let barrier = Arc::new(SpinBarrier::new(READERS + WRITERS));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let domain = Arc::clone(&domain);
            let link = Arc::clone(&link);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let h = domain.register().unwrap();
                barrier.wait();
                let mut helped_total = 0;
                for i in 0..ROUNDS {
                    let fresh = h
                        .alloc_with(|v| *v = (w as u64) << 32 | i)
                        .expect("pool sized for churn");
                    // store = SWAP + HelpDeRef + ReleaseRef(old): the full
                    // obligation chain.
                    h.store(&link, Some(&fresh));
                    helped_total += 1;
                }
                let s = h.counters().snapshot();
                (helped_total, s.help_calls, s.help_answers)
            })
        })
        .collect();

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let domain = Arc::clone(&domain);
            let link = Arc::clone(&link);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let h = domain.register().unwrap();
                barrier.wait();
                let mut nonnull = 0u64;
                for _ in 0..ROUNDS {
                    if let Some(g) = h.deref(&link) {
                        std::hint::black_box(*g);
                        nonnull += 1;
                    }
                }
                let s = h.counters().snapshot();
                (nonnull, s.deref_helped, s.max_deref_retries)
            })
        })
        .collect();

    let mut total_help_calls = 0;
    for w in writers {
        let (_, help_calls, _answers) = w.join().unwrap();
        total_help_calls += help_calls;
    }
    let mut total_helped = 0;
    for r in readers {
        let (nonnull, helped, max_retries) = r.join().unwrap();
        assert_eq!(
            nonnull, ROUNDS,
            "link is never null after the initial publish"
        );
        assert_eq!(max_retries, 0, "DeRefLink never retries");
        total_helped += helped;
    }
    // Every store ran HelpDeRef (the obligation), so help_calls must equal
    // the number of link changes that had a non-null predecessor.
    assert_eq!(
        total_help_calls,
        WRITERS as u64 * ROUNDS,
        "HelpDeRef must run on every link change"
    );
    // The readers being *actually answered* is scheduling-dependent on one
    // CPU; report rather than require.
    println!("derefs answered by helpers across readers: {total_helped}");

    let h = domain.register().unwrap();
    h.store(&link, None);
    drop(h);
    let report = domain.leak_check();
    assert!(report.is_clean(), "leak: {report:?}");
}

/// The ABA defence: an announcement slot with a pending helper CAS (busy
/// count > 0) must not be reused; exercised indirectly by checking that
/// slot scans occasionally pass over busy slots under load, and that no
/// corruption results.
#[test]
fn busy_slots_are_skipped_under_load() {
    const THREADS: usize = 4;
    const ROUNDS: u64 = 20_000;
    let domain = Arc::new(WfrcDomain::<u64>::new(DomainConfig::new(THREADS, 128)));
    let links: Arc<Vec<Link<u64>>> = Arc::new((0..4).map(|_| Link::null()).collect());

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let domain = Arc::clone(&domain);
            let links = Arc::clone(&links);
            std::thread::spawn(move || {
                let h = domain.register().unwrap();
                for i in 0..ROUNDS {
                    let l = &links[(t + i as usize) % links.len()];
                    if i % 2 == 0 {
                        if let Ok(n) = h.alloc_with(|v| *v = i) {
                            h.store(l, Some(&n));
                        }
                    } else if let Some(g) = h.deref(l) {
                        std::hint::black_box(*g);
                    }
                }
                h.counters().snapshot().max_deref_slot_scan
            })
        })
        .collect();
    let max_scan = workers
        .into_iter()
        .map(|w| w.join().unwrap())
        .max()
        .unwrap();
    // The D1 scan is bounded by NR_THREADS (the wait-free bound).
    assert!(
        max_scan <= THREADS as u64,
        "slot scan exceeded the Lemma bound: {max_scan}"
    );

    let h = domain.register().unwrap();
    for l in links.iter() {
        h.store(l, None);
    }
    drop(h);
    assert!(domain.leak_check().is_clean());
}

/// A reader announcing a link that then gets cleared must observe either
/// the old node (kept alive long enough by the protocol) or null — never
/// garbage. Run many short rounds to catch the narrow windows.
#[test]
fn deref_vs_clear_never_yields_garbage() {
    const ROUNDS: usize = 5_000;
    let domain = Arc::new(WfrcDomain::<u64>::new(DomainConfig::new(2, 16)));
    for round in 0..ROUNDS {
        let link = Arc::new(Link::<u64>::null());
        let sentinel = 0xDEAD_0000 + round as u64;
        {
            let h = domain.register().unwrap();
            let n = h.alloc_with(|v| *v = sentinel).unwrap();
            h.store(&link, Some(&n));
        }
        let reader = {
            let domain = Arc::clone(&domain);
            let link = Arc::clone(&link);
            std::thread::spawn(move || {
                let h = domain.register().unwrap();
                if let Some(g) = h.deref(&link) {
                    assert_eq!(*g, sentinel, "read of a freed/garbage node");
                    drop(g);
                }
                drop(h);
            })
        };
        {
            let h = domain.register().unwrap();
            h.store(&link, None); // clears + helps + releases
        }
        reader.join().unwrap();
    }
    assert!(domain.leak_check().is_clean());
}

/// `threads` workers alloc/free at full speed on `d`, a pool too large to
/// exhaust: no allocation may fail. Returns the merged counters.
fn alloc_churn<D: RcMmDomain<u64> + Sync>(d: &D, threads: usize, ops: u64) -> CounterSnapshot {
    let barrier = SpinBarrier::new(threads);
    let merged = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let h = d.register_mm().unwrap();
                    barrier.wait();
                    for _ in 0..ops {
                        let n = h.alloc_node().expect("pool sized to never exhaust");
                        // SAFETY: we own the alloc reference.
                        unsafe { h.release_node(n) };
                    }
                    h.counter_snapshot()
                })
            })
            .collect();
        workers
            .into_iter()
            .fold(CounterSnapshot::default(), |acc, w| {
                acc.merged(&w.join().unwrap())
            })
    });
    let report = d.leak_check_mm();
    assert!(report.is_clean(), "{}: {report:?}", d.scheme_name());
    merged
}

/// Lemma 9 as an assertion: under full free-list contention on a small
/// fixed pool no allocation fails, and the wait-free scheme's worst A3–A18
/// iteration count stays within the bound computed from the config. (The
/// Treiber baseline has no bound to hold; it only must not run dry.)
#[test]
fn alloc_churn_stays_within_the_lemma_9_bound() {
    const THREADS: usize = 4;
    const OPS: u64 = 50_000;
    let cap = THREADS * 4 + 8;
    let wf = WfrcDomain::<u64>::new(DomainConfig::new(THREADS, cap));
    let c = alloc_churn(&wf, THREADS, OPS);
    assert_eq!(c.alloc_calls, THREADS as u64 * OPS);
    assert!(
        c.max_alloc_iters <= alloc_retry_bound(THREADS) as u64,
        "max alloc iters {} > Lemma 9 bound {}",
        c.max_alloc_iters,
        alloc_retry_bound(THREADS)
    );
    alloc_churn(&LfrcDomain::<u64>::new(THREADS, cap), THREADS, OPS);
}

/// Help on request when one thread starves by construction: the allocator
/// never frees, so its own stripes stay empty and its fast path's first
/// attempt always misses; the freer's frees land on the stripe
/// `currentFreeList` is not on. The allocator therefore keeps reaching the
/// A3–A18 loop with its `alloc_need` bit up, and the freer's F1–F3 must
/// feed it gifts — within footnote 4's bound, and with the bit down again
/// once both threads are done.
#[test]
fn a_thread_that_only_allocates_is_fed_by_one_that_only_frees() {
    const THREADS: usize = 2;
    const OPS: usize = 20_000;
    let d = WfrcDomain::<u64>::new(DomainConfig::new(THREADS, 64));
    // At most 16 nodes in the channel plus one in each thread's hand: the
    // pool is never exhausted, so no allocation may fail.
    let (tx, rx) = std::sync::mpsc::sync_channel::<usize>(16);
    let c = std::thread::scope(|s| {
        let d = &d;
        s.spawn(move || {
            let h = d.register().unwrap();
            for n in rx {
                // SAFETY: the allocator handed over the one reference its
                // allocation returned; it is released exactly once here.
                unsafe { h.release_raw(n as *mut Node<u64>) };
            }
        });
        s.spawn(move || {
            let h = d.register().unwrap();
            for _ in 0..OPS {
                let n = h.alloc_raw().expect("pool sized to never exhaust");
                tx.send(n as usize).unwrap();
            }
            h.counters().snapshot()
        })
        .join()
        .unwrap()
    });
    assert_eq!(c.alloc_calls, OPS as u64);
    assert!(
        c.alloc_from_gift > 0,
        "the freer never fed the starving allocator: {c:?}"
    );
    assert!(
        c.max_alloc_iters <= alloc_retry_bound(THREADS) as u64,
        "max alloc iters {} > Lemma 9 bound {}",
        c.max_alloc_iters,
        alloc_retry_bound(THREADS)
    );
    let report = d.leak_check();
    assert_eq!(report.alloc_need, 0, "a need bit outlived its allocation");
    assert!(report.is_clean(), "leak: {report:?}");
    println!(
        "starving allocator: {} of {OPS} allocations were gifts, max {} iterations",
        c.alloc_from_gift, c.max_alloc_iters
    );
}
