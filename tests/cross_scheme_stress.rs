//! Cross-crate stress: every reference-counted structure, both schemes,
//! heavier thread/op counts than the unit tests, with exactly-once
//! delivery checks and quiescent leak audits.

use std::collections::HashSet;
use std::sync::Arc;

use wfrc::baselines::{Lf, LfrcDomain, LfrcHandle};
use wfrc::core::{AtomicWeak, Domain, DomainConfig, Handle, Link, RcObject};
use wfrc::core::{Scheme, ThreadHandle, Wf, WfrcDomain};
use wfrc::structures::lru_list::{LruCell, LruList};
use wfrc::structures::manager::{ByteMm, RcMmDomain};
use wfrc::structures::ordered_list::{ListCell, OrderedList};
use wfrc::structures::priority_queue::{PqCell, PriorityQueue};
use wfrc::structures::queue::{Queue, QueueCell};
use wfrc::structures::stack::{Stack, StackCell};

const THREADS: usize = 6;
const PER: u64 = 3_000;

fn stack_stress<D: RcMmDomain<StackCell<u64>> + Send + 'static>(d: D) {
    let d = Arc::new(d);
    let s = Arc::new(Stack::<u64>::new());
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let d = Arc::clone(&d);
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let h = d.register_mm().unwrap();
                let mut got = Vec::new();
                for i in 0..PER {
                    s.push(&h, (t as u64) << 32 | i).unwrap();
                    if i % 3 != 0 {
                        if let Some(v) = s.pop(&h) {
                            got.push(v);
                        }
                    }
                }
                got
            })
        })
        .collect();
    let mut seen: Vec<u64> = workers
        .into_iter()
        .flat_map(|w| w.join().unwrap())
        .collect();
    let h = d.register_mm().unwrap();
    while let Some(v) = s.pop(&h) {
        seen.push(v);
    }
    assert_eq!(seen.len(), THREADS * PER as usize);
    assert_eq!(
        seen.iter().collect::<HashSet<_>>().len(),
        seen.len(),
        "duplicate pop"
    );
    drop(h);
    assert!(d.leak_check_mm().is_clean(), "{:?}", d.leak_check_mm());
}

#[test]
fn stack_stress_wfrc() {
    stack_stress(WfrcDomain::new(DomainConfig::new(
        THREADS + 1,
        THREADS * PER as usize + 256,
    )));
}

#[test]
fn stack_stress_lfrc() {
    stack_stress(LfrcDomain::new(THREADS + 1, THREADS * PER as usize + 256));
}

fn queue_stress<D: RcMmDomain<QueueCell<u64>> + Send + 'static>(d: D) {
    let d = Arc::new(d);
    let h0 = d.register_mm().unwrap();
    let q = Arc::new(Queue::<u64>::new(&h0).unwrap());
    drop(h0);
    // Dedicated producers and consumers (unlike the unit tests' mixed
    // roles), so queue order is stressed across thread boundaries.
    let producers: Vec<_> = (0..THREADS / 2)
        .map(|t| {
            let d = Arc::clone(&d);
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let h = d.register_mm().unwrap();
                for i in 0..PER {
                    q.enqueue(&h, (t as u64) << 32 | i).unwrap();
                }
            })
        })
        .collect();
    let consumers: Vec<_> = (0..THREADS / 2)
        .map(|_| {
            let d = Arc::clone(&d);
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let h = d.register_mm().unwrap();
                let mut got: Vec<u64> = Vec::new();
                let target = PER; // each consumer takes ~its share
                while (got.len() as u64) < target {
                    if let Some(v) = q.dequeue(&h) {
                        got.push(v);
                    } else {
                        std::thread::yield_now();
                    }
                }
                got
            })
        })
        .collect();
    for p in producers {
        p.join().unwrap();
    }
    let mut seen: Vec<u64> = consumers
        .into_iter()
        .flat_map(|c| c.join().unwrap())
        .collect();
    let h = d.register_mm().unwrap();
    while let Some(v) = q.dequeue(&h) {
        seen.push(v);
    }
    assert_eq!(seen.len(), (THREADS / 2) * PER as usize);
    // Per-producer FIFO: each producer's items are consumed in order
    // *within each consumer* (global interleaving may split a producer's
    // stream across consumers, but any one consumer's subsequence must be
    // increasing per producer).
    // The drain tail is consumed single-threaded, so it must be globally
    // per-producer ordered as well — the set check plus the unit FIFO test
    // covers the rest.
    assert_eq!(
        seen.iter().collect::<HashSet<_>>().len(),
        seen.len(),
        "duplicate dequeue"
    );
    match Arc::try_unwrap(q) {
        Ok(q) => q.dispose(&h),
        Err(_) => panic!("all threads joined"),
    }
    drop(h);
    assert!(d.leak_check_mm().is_clean(), "{:?}", d.leak_check_mm());
}

#[test]
fn queue_stress_wfrc() {
    queue_stress(WfrcDomain::new(DomainConfig::new(
        THREADS + 1,
        (THREADS / 2) * PER as usize + 256,
    )));
}

#[test]
fn queue_stress_lfrc() {
    queue_stress(LfrcDomain::new(
        THREADS + 1,
        (THREADS / 2) * PER as usize + 256,
    ));
}

fn pq_stress<D: RcMmDomain<PqCell<u64>> + Send + 'static>(d: D) {
    let d = Arc::new(d);
    let h0 = d.register_mm().unwrap();
    let pq = Arc::new(PriorityQueue::<u64>::new(&h0).unwrap());
    drop(h0);
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let d = Arc::clone(&d);
            let pq = Arc::clone(&pq);
            std::thread::spawn(move || {
                let h = d.register_mm().unwrap();
                let mut got = Vec::new();
                for i in 0..PER {
                    pq.insert(&h, (i << 8) | t as u64, i).unwrap();
                    if i % 2 == 0 {
                        if let Some((k, _)) = pq.delete_min(&h) {
                            got.push(k);
                        }
                    }
                }
                got
            })
        })
        .collect();
    let mut seen: Vec<u64> = workers
        .into_iter()
        .flat_map(|w| w.join().unwrap())
        .collect();
    let h = d.register_mm().unwrap();
    let mut prev = 0;
    while let Some((k, _)) = pq.delete_min(&h) {
        assert!(k >= prev, "quiescent drain out of order: {k} < {prev}");
        prev = k;
        seen.push(k);
    }
    assert_eq!(seen.len(), THREADS * PER as usize);
    assert_eq!(
        seen.iter().collect::<HashSet<_>>().len(),
        seen.len(),
        "duplicate delete_min"
    );
    match Arc::try_unwrap(pq) {
        Ok(pq) => pq.dispose(&h),
        Err(_) => panic!("all threads joined"),
    }
    drop(h);
    assert!(d.leak_check_mm().is_clean(), "{:?}", d.leak_check_mm());
}

#[test]
fn pq_stress_wfrc() {
    pq_stress(WfrcDomain::new(DomainConfig::new(
        THREADS + 1,
        THREADS * PER as usize + 256,
    )));
}

#[test]
fn pq_stress_lfrc() {
    pq_stress(LfrcDomain::new(THREADS + 1, THREADS * PER as usize + 256));
}

fn list_stress<D: RcMmDomain<ListCell<u64>> + Send + 'static>(d: D) {
    let d = Arc::new(d);
    let h0 = d.register_mm().unwrap();
    let l = Arc::new(OrderedList::<u64>::new(&h0).unwrap());
    drop(h0);
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let d = Arc::clone(&d);
            let l = Arc::clone(&l);
            std::thread::spawn(move || {
                let h = d.register_mm().unwrap();
                // Private range churn + contended range churn.
                let base = (t as u64 + 1) << 20;
                for i in 0..PER {
                    let k = base + (i % 64);
                    if l.insert(&h, k, k).unwrap() {
                        assert!(l.contains(&h, k));
                        assert_eq!(l.remove(&h, k), Some(k));
                    }
                    let ck = i % 16; // contended
                    let _ = l.insert(&h, ck, ck).unwrap();
                    let _ = l.remove(&h, ck);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let h = d.register_mm().unwrap();
    for ck in 0..16 {
        let _ = l.remove(&h, ck);
    }
    assert_eq!(l.len(&h), 0);
    match Arc::try_unwrap(l) {
        Ok(l) => l.dispose(&h),
        Err(_) => panic!("all threads joined"),
    }
    drop(h);
    assert!(d.leak_check_mm().is_clean(), "{:?}", d.leak_check_mm());
}

#[test]
fn list_stress_wfrc() {
    list_stress(WfrcDomain::new(DomainConfig::new(THREADS + 1, 4096)));
}

#[test]
fn list_stress_lfrc() {
    list_stress(LfrcDomain::new(THREADS + 1, 4096));
}

/// PR 10 coverage fix: the cross-scheme comparison previously never ran
/// with byte classes configured or the pin machinery live. This driver
/// runs both at once, in audited cycles, over both schemes:
///
/// * a [`Stack`] churned by every worker, with [`Stack::peek`] on each
///   iteration — under the wait-free scheme that is a live pin session
///   (`snapshot_enter` + plain load), the DESIGN.md §4f read path;
/// * byte-class traffic through [`ByteMm`] (`with_classes` on the
///   wait-free domain, [`LfrcDomain::set_classes`] on the baseline) racing
///   the node traffic on the same domain;
/// * an [`LruList`] on a second domain — weak back edges created, upgraded
///   and killed under contention (`load_weak_link` in `peek_lru`/
///   `walk_newer` races `pop_front` retiring targets);
/// * a full [`LeakReport`] audit **per cycle**, not just at teardown:
///   node arena clean, every byte class clean, weak tier fully drained.
fn classed_pinned_weak_stress<DS, DL>(ds: DS, dl: DL, pinned: bool)
where
    DS: RcMmDomain<StackCell<u64>> + Send + 'static,
    for<'a> DS::Handle<'a>: ByteMm,
    DL: RcMmDomain<LruCell<u64>> + Send + 'static,
{
    const CYCLES: usize = 3;
    const PER_CYCLE: u64 = 1_000;
    const CLASS_SIZES: [usize; 2] = [64, 256];
    let ds = Arc::new(ds);
    let dl = Arc::new(dl);
    let s = Arc::new(Stack::<u64>::new());
    let lru = Arc::new(LruList::<u64>::new());
    for cycle in 0..CYCLES {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let ds = Arc::clone(&ds);
                let dl = Arc::clone(&dl);
                let s = Arc::clone(&s);
                let lru = Arc::clone(&lru);
                std::thread::spawn(move || {
                    let h = ds.register_mm().unwrap();
                    let hl = dl.register_mm().unwrap();
                    let mut popped = Vec::new();
                    let mut tokens = Vec::new();
                    for i in 0..PER_CYCLE {
                        let v = (cycle as u64) << 48 | (t as u64) << 32 | i;
                        s.push(&h, v).unwrap();
                        // Pin-protected read: a snapshot session under the
                        // wait-free scheme, a counted deref on the baseline.
                        let _ = s.peek(&h);
                        if i % 2 == 1 {
                            if let Some(v) = s.pop(&h) {
                                popped.push(v);
                            }
                        }
                        // Byte-class churn racing the node churn.
                        let fill = (i as u8) ^ (t as u8);
                        let len = CLASS_SIZES[(i % 2) as usize] - (i % 8) as usize;
                        let tok = h.alloc_value(&vec![fill; len]).unwrap();
                        tokens.push((tok, fill));
                        if tokens.len() > 16 {
                            let (tok, fill) = tokens.swap_remove((i % 16) as usize);
                            // SAFETY: live token removed from `tokens`,
                            // read then freed exactly once.
                            unsafe {
                                assert_eq!(h.value_bytes(&tok)[0], fill);
                                h.free_value(tok);
                            }
                        }
                        // Weak-link churn: the LRU's recency edges are
                        // AtomicWeak back edges; reads upgrade them while
                        // pops kill their targets.
                        lru.push_front(&hl, v).unwrap();
                        if i % 2 == 0 {
                            let _ = lru.pop_front(&hl);
                        }
                        if i % 16 == 7 {
                            let _ = lru.peek_lru(&hl);
                            let _ = lru.walk_newer(&hl, 4);
                        }
                    }
                    for (tok, fill) in tokens {
                        // SAFETY: live tokens, each freed exactly once.
                        unsafe {
                            assert_eq!(h.value_bytes(&tok)[0], fill);
                            h.free_value(tok);
                        }
                    }
                    popped
                })
            })
            .collect();
        let mut seen: Vec<u64> = workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect();
        let h = ds.register_mm().unwrap();
        while let Some(v) = s.pop(&h) {
            seen.push(v);
        }
        drop(h);
        assert_eq!(seen.len(), THREADS * PER_CYCLE as usize, "cycle {cycle}");
        assert_eq!(
            seen.iter().collect::<HashSet<_>>().len(),
            seen.len(),
            "cycle {cycle}: duplicate pop"
        );
        let hl = dl.register_mm().unwrap();
        lru.clear(&hl);
        drop(hl);

        // The per-cycle audit: both domains quiescent-clean between
        // cycles, byte classes included, weak tier fully drained.
        let r = ds.leak_check_mm();
        assert!(r.is_clean(), "cycle {cycle} [{}]: {r:?}", ds.scheme_name());
        assert_eq!(r.classes.len(), CLASS_SIZES.len(), "cycle {cycle}");
        for (ci, cl) in r.classes.iter().enumerate() {
            assert_eq!(cl.live_nodes, 0, "cycle {cycle} class {ci}: {cl:?}");
            assert_eq!(cl.corrupt_nodes, 0, "cycle {cycle} class {ci}: {cl:?}");
        }
        if pinned {
            assert!(
                r.snapshot_derefs > 0,
                "cycle {cycle}: peek must ride the pin machinery: {r:?}"
            );
        }
        let rl = dl.leak_check_mm();
        assert!(
            rl.is_clean(),
            "cycle {cycle} [{}]: {rl:?}",
            dl.scheme_name()
        );
        assert_eq!(rl.weak_count, 0, "cycle {cycle}: {rl:?}");
        assert!(
            rl.weak_upgrades > 0,
            "cycle {cycle}: the LRU reads must exercise the weak tier: {rl:?}"
        );
    }
}

fn stress_classes() -> Vec<wfrc::core::ClassConfig> {
    [64usize, 256]
        .iter()
        .map(|&s| {
            wfrc::core::ClassConfig::new(s, 64).with_growth(wfrc::core::Growth::doubling_to(4096))
        })
        .collect()
}

#[test]
fn classed_pinned_weak_stress_wfrc() {
    classed_pinned_weak_stress(
        WfrcDomain::new(DomainConfig::new(THREADS + 1, 8192).with_classes(stress_classes())),
        WfrcDomain::new(DomainConfig::new(THREADS + 1, 8192)),
        true,
    );
}

#[test]
fn classed_pinned_weak_stress_lfrc() {
    let mut ds = LfrcDomain::new(THREADS + 1, 8192);
    ds.set_classes(stress_classes());
    classed_pinned_weak_stress(ds, LfrcDomain::new(THREADS + 1, 8192), false);
}

/// Two structures of the same payload type sharing one domain: the
/// free-list is a domain-level resource, exactly as in the paper.
#[test]
fn two_stacks_share_one_domain() {
    let d = Arc::new(WfrcDomain::<StackCell<u64>>::new(DomainConfig::new(
        4, 8192,
    )));
    let s1 = Arc::new(Stack::<u64>::new());
    let s2 = Arc::new(Stack::<u64>::new());
    let workers: Vec<_> = (0..3)
        .map(|t| {
            let d = Arc::clone(&d);
            let s1 = Arc::clone(&s1);
            let s2 = Arc::clone(&s2);
            std::thread::spawn(move || {
                let h = d.register_mm().unwrap();
                for i in 0..2_000u64 {
                    // Move elements between the two stacks.
                    s1.push(&h, (t as u64) << 32 | i).unwrap();
                    if let Some(v) = s1.pop(&h) {
                        s2.push(&h, v).unwrap();
                    }
                    if i % 2 == 0 {
                        let _ = s2.pop(&h);
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let h = d.register_mm().unwrap();
    s1.clear(&h);
    s2.clear(&h);
    drop(h);
    assert!(d.leak_check_mm().is_clean(), "{:?}", d.leak_check_mm());
}

/// There is one handle: the two schemes' handle types are the same generic
/// type at two schemes (checked by this function compiling).
#[allow(dead_code)]
fn one_handle_two_schemes<'d, T: RcObject>(
    wf: ThreadHandle<'d, T>,
    lf: LfrcHandle<'d, T>,
) -> (Handle<'d, T, Wf>, Handle<'d, T, Lf>) {
    (wf, lf)
}

#[derive(Default)]
struct Peer {
    value: u64,
    next: Link<Peer>,
    back: AtomicWeak<Peer>,
}

impl RcObject for Peer {
    fn each_link(&self, f: &mut dyn FnMut(&Link<Self>)) {
        f(&self.next);
    }
    fn each_weak_link(&self, f: &mut dyn FnMut(&AtomicWeak<Self>)) {
        f(&self.back);
    }
}

/// The *guard* API — `alloc_with` / `deref` / `cas` / `store` /
/// `downgrade` + `Weak::upgrade` / `store_weak` + `load_weak` — written
/// once over the scheme, so the baseline has the safe layer too.
fn guard_api<S: Scheme>(domain: &Domain<Peer, S>) {
    let h = domain.register().unwrap();
    let root = Link::null();
    let a = h.alloc_with(|p| p.value = 1).unwrap();
    let b = h.alloc_with(|p| p.value = 2).unwrap();
    h.store(&root, Some(&a));
    assert_eq!(h.deref(&root).map(|g| g.value), Some(1));
    assert!(h.cas(&root, Some(&a), Some(&b)));
    assert!(!h.cas(&root, Some(&a), None), "the link holds b now");
    h.store(&b.next, Some(&a));
    assert_eq!(a.as_node().ref_count(), 2, "the guard and b.next");

    let weak = h.downgrade(&a);
    assert_eq!(weak.upgrade().map(|g| g.value), Some(1));
    h.store_weak(&b.back, Some(&a));
    assert_eq!(h.load_weak(&b.back).map(|g| g.value), Some(1));

    // The last strong references go: a is DEAD-but-weak, pinned by `weak`
    // and by b's back edge, and no upgrade can revive it.
    h.store(&b.next, None);
    drop(a);
    assert!(weak.is_dead());
    assert!(weak.upgrade().is_none());
    assert!(h.load_weak(&b.back).is_none());
    assert_eq!(domain.leak_check().weak_nodes, 1);

    // The last weak counts go: the header finalizes into the free path.
    h.store_weak(&b.back, None);
    drop(weak);
    h.store(&root, None);
    drop(b);
    let counters = h.counters().snapshot();
    assert_eq!((counters.weak_upgrades, counters.upgrade_failed), (4, 2));
    drop(h);
    let report = domain.leak_check();
    assert!(report.is_clean(), "[{}] {report}", S::NAME);
}

#[test]
fn guard_api_runs_over_both_schemes() {
    guard_api(&WfrcDomain::new(DomainConfig::new(1, 8)));
    guard_api(&LfrcDomain::new(1, 8));
}
