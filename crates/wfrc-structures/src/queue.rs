//! Michael–Scott lock-free FIFO queue over reference-counted links.
//!
//! The M&S queue is the second canonical host for reclamation schemes, and
//! the harder one: it keeps *two* roots (`head`, `tail`), `tail` may lag
//! behind the true end and point at already-dequeued nodes, and the dummy
//! node migrates — so a correct count discipline exercises every rule of
//! §3.2 (lagging-tail advancement is exactly the case where a thread must
//! dereference a link inside a node that is no longer in the structure,
//! which fixed-reference schemes like hazard pointers only support because
//! the queue happens to need ≤ 2 protected pointers).
//!
//! # Count discipline
//!
//! Invariants at quiescence: the `head` link and the `tail` link each hold
//! one reference on their target; every node's `next` link holds one
//! reference on its successor. A dequeued dummy keeps referencing its
//! successor until reclaimed (the R3 drain returns that count), which is
//! what makes the lagging `tail` safe.

use core::ptr;

use wfrc_core::oom::OutOfMemory;
use wfrc_core::{Link, RcObject};

use crate::manager::RcMm;

/// Node payload for [`Queue`]. The first node is a value-less dummy.
pub struct QueueCell<V> {
    value: Option<V>,
    next: Link<QueueCell<V>>,
}

impl<V> Default for QueueCell<V> {
    fn default() -> Self {
        Self {
            value: None,
            next: Link::null(),
        }
    }
}

impl<V: Send + Sync + 'static> RcObject for QueueCell<V> {
    fn each_link(&self, f: &mut dyn FnMut(&Link<Self>)) {
        f(&self.next);
    }
}

/// A lock-free FIFO queue (Michael & Scott, PODC 1996) whose nodes are
/// managed by a pluggable reference-counting scheme.
pub struct Queue<V> {
    head: Link<QueueCell<V>>,
    tail: Link<QueueCell<V>>,
}

impl<V: Clone + Send + Sync + 'static> Queue<V> {
    /// Creates a queue, allocating its initial dummy node from `mm`'s
    /// domain.
    pub fn new<M: RcMm<QueueCell<V>>>(mm: &M) -> Result<Self, OutOfMemory> {
        let dummy = mm.alloc_node()?;
        // SAFETY: fresh, unpublished.
        unsafe {
            let cell = mm.payload_mut(dummy);
            cell.value = None;
            cell.next.store_raw(ptr::null_mut());
        }
        let q = Self {
            head: Link::null(),
            tail: Link::null(),
        };
        // SAFETY: both roots are unpublished; transfer the alloc reference
        // into `head` and acquire a second for `tail`.
        unsafe {
            mm.add_refs(dummy, 1);
            mm.store_link(&q.head, dummy);
            mm.store_link(&q.tail, dummy);
        }
        Ok(q)
    }

    /// Enqueues `value` at the tail.
    pub fn enqueue<M: RcMm<QueueCell<V>>>(&self, mm: &M, value: V) -> Result<(), OutOfMemory> {
        let node = mm.alloc_node()?;
        // SAFETY: fresh, unpublished; borrow ends before publication.
        unsafe {
            let cell = mm.payload_mut(node);
            cell.value = Some(value);
            cell.next.store_raw(ptr::null_mut());
        }
        loop {
            // SAFETY: `tail` holds nodes of the caller's domain.
            let tail = unsafe { mm.deref_link(&self.tail) };
            debug_assert!(!tail.is_null(), "tail link is never ⊥");
            // SAFETY: we hold `tail`.
            let (next, marked) = unsafe { mm.payload(tail) }.next.load_decomposed();
            if marked {
                // Our tail snapshot was dequeued and cut after we read the
                // root; the root has necessarily advanced (a node is only
                // dequeued once the tail has moved past it) — re-read it.
                // SAFETY: our dereference.
                unsafe { mm.release_node(tail) };
                continue;
            }
            if !next.is_null() {
                // Tail lags: help advance it. `next` is pinned by
                // `tail.next` (set-once) while we hold `tail`.
                // SAFETY: counts per the discipline above.
                unsafe {
                    mm.add_refs(next, 1); // prospective tail-link count
                    if mm.cas_link(&self.tail, tail, next) {
                        mm.release_node(tail); // tail link's old count
                    } else {
                        mm.release_node(next); // undo
                    }
                    mm.release_node(tail); // our dereference
                }
                continue;
            }
            // SAFETY: transfer one of our counts on `node` into `tail.next`.
            unsafe {
                mm.add_refs(node, 1);
                if mm.cas_link(&mm.payload(tail).next, ptr::null_mut(), node) {
                    // Linked. Swing the tail (best effort).
                    mm.add_refs(node, 1);
                    if mm.cas_link(&self.tail, tail, node) {
                        mm.release_node(tail); // tail link's old count
                    } else {
                        mm.release_node(node); // undo swing count
                    }
                    mm.release_node(tail); // our dereference
                    mm.release_node(node); // our alloc count
                    return Ok(());
                }
                mm.release_node(node); // undo link count
                mm.release_node(tail); // our dereference
            }
        }
    }

    /// Dequeues the oldest value, or `None` if the queue is empty.
    ///
    /// The winner **cuts** the retired dummy's `next` edge (swap to a
    /// marked null, releasing the edge's count) — without this, any holder
    /// of an old dummy would transitively retain every node enqueued since
    /// (each dead dummy's `next` holds a count on its successor), growing
    /// without bound under churn. The cut is safe because the M&S
    /// `head == tail` help-first rule below guarantees the tail never
    /// points at a dequeued dummy, so no enqueuer can race the cut with a
    /// link CAS (a marked word also fails any `null → node` CAS).
    pub fn dequeue<M: RcMm<QueueCell<V>>>(&self, mm: &M) -> Option<V> {
        loop {
            // SAFETY: `head` holds nodes of the caller's domain.
            let head = unsafe { mm.deref_link(&self.head) };
            debug_assert!(!head.is_null(), "head link is never ⊥");
            // SAFETY: we hold `head`.
            let (next, marked) = unsafe { mm.payload(head) }.next.load_decomposed();
            if marked {
                // `head` was dequeued and cut under us; retry.
                // SAFETY: our dereference.
                unsafe { mm.release_node(head) };
                continue;
            }
            if next.is_null() {
                // SAFETY: our dereference.
                unsafe { mm.release_node(head) };
                return None;
            }
            let (tail, _) = self.tail.load_decomposed();
            if head == tail {
                // M&S rule: never move head past tail — help the tail
                // forward first. Keeps the cut above race-free.
                // SAFETY: `next` is pinned by `head.next` (unmarked, and
                // we hold `head`).
                unsafe {
                    mm.add_refs(next, 1);
                    if mm.cas_link(&self.tail, head, next) {
                        mm.release_node(head); // tail link's old count
                    } else {
                        mm.release_node(next); // undo
                    }
                    mm.release_node(head); // our dereference
                }
                continue;
            }
            // SAFETY: `next` is pinned by `head.next` while we hold `head`;
            // take one count for ourselves and one for the head link.
            unsafe { mm.add_refs(next, 2) };
            // SAFETY: counts prepared.
            if unsafe { mm.cas_link(&self.head, head, next) } {
                // SAFETY: we won; `head` is the retired dummy, exclusively
                // ours to cut. Counts: we owe two releases on `head`
                // (link's + ours), one on `next` for the cut edge, and one
                // on `next` for our temporary; the head link keeps its new
                // count on `next`.
                unsafe {
                    let value = mm.payload(next).value.clone();
                    let edge = mm
                        .payload(head)
                        .next
                        .swap_raw(wfrc_primitives::tagged::with_tag(ptr::null_mut()));
                    debug_assert_eq!(edge, next, "set-once next changed before cut");
                    mm.release_node(next); // the cut edge's count
                    mm.release_node(next); // our temporary
                    mm.release_node(head); // head link's old count
                    mm.release_node(head); // our dereference
                    debug_assert!(value.is_some(), "non-dummy node without value");
                    return value;
                }
            }
            // SAFETY: undo.
            unsafe {
                mm.release_node(next);
                mm.release_node(next);
                mm.release_node(head);
            }
        }
    }

    /// True if the queue was empty at the instant of the check.
    pub fn is_empty<M: RcMm<QueueCell<V>>>(&self, mm: &M) -> bool {
        // SAFETY: hand-over-hand: hold the dummy, inspect its next.
        unsafe {
            let head = mm.deref_link(&self.head);
            let empty = mm.payload(head).next.is_null();
            mm.release_node(head);
            empty
        }
    }

    /// Counts queued values via traversal; a snapshot only at quiescence.
    pub fn len<M: RcMm<QueueCell<V>>>(&self, mm: &M) -> usize {
        let mut n = 0;
        // SAFETY: hand-over-hand traversal from the dummy.
        unsafe {
            let mut cur = mm.deref_link(&self.head);
            loop {
                let next = mm.deref_link(&mm.payload(cur).next);
                mm.release_node(cur);
                if next.is_null() {
                    return n;
                }
                n += 1;
                cur = next;
            }
        }
    }

    /// Drains the queue and releases the root links, returning the domain
    /// to a leak-checkable state. Must be called at quiescence (exclusive
    /// access).
    pub fn dispose<M: RcMm<QueueCell<V>>>(self, mm: &M) {
        while self.dequeue(mm).is_some() {}
        // SAFETY: quiescent per contract — plain swaps suffice; each root
        // link owns one count on its target.
        unsafe {
            let h = self.head.swap_raw(ptr::null_mut());
            if !h.is_null() {
                mm.release_node(h);
            }
            let t = self.tail.swap_raw(ptr::null_mut());
            if !t.is_null() {
                mm.release_node(t);
            }
        }
    }
}

// SAFETY: two atomic root links; all node access goes through the scheme.
unsafe impl<V: Send> Send for Queue<V> {}
unsafe impl<V: Send + Sync> Sync for Queue<V> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::RcMmDomain;
    use std::collections::HashSet;
    use std::sync::Arc;
    use wfrc_baselines::LfrcDomain;
    use wfrc_core::{DomainConfig, WfrcDomain};

    fn sequential_fifo<D: RcMmDomain<QueueCell<u64>>>(d: &D) {
        let h = d.register_mm().unwrap();
        let q = Queue::new(&h).unwrap();
        assert!(q.is_empty(&h));
        assert_eq!(q.dequeue(&h), None);
        for i in 0..100 {
            q.enqueue(&h, i).unwrap();
        }
        assert_eq!(q.len(&h), 100);
        assert!(!q.is_empty(&h));
        for i in 0..100 {
            assert_eq!(q.dequeue(&h), Some(i));
        }
        assert_eq!(q.dequeue(&h), None);
        q.dispose(&h);
        drop(h);
        assert!(d.leak_check_mm().is_clean(), "{:?}", d.leak_check_mm());
    }

    #[test]
    fn fifo_order_wfrc() {
        sequential_fifo(&WfrcDomain::new(DomainConfig::new(2, 128)));
    }

    #[test]
    fn fifo_order_lfrc() {
        sequential_fifo(&LfrcDomain::new(2, 128));
    }

    #[test]
    fn interleaved_enqueue_dequeue_preserves_order() {
        let d = WfrcDomain::<QueueCell<u64>>::new(DomainConfig::new(1, 32));
        let h = d.register_mm().unwrap();
        let q = Queue::new(&h).unwrap();
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        for round in 0..50 {
            for _ in 0..(round % 4) + 1 {
                q.enqueue(&h, next_in).unwrap();
                next_in += 1;
            }
            for _ in 0..(round % 3) + 1 {
                if let Some(v) = q.dequeue(&h) {
                    assert_eq!(v, next_out);
                    next_out += 1;
                }
            }
        }
        q.dispose(&h);
        drop(h);
        assert!(d.leak_check_mm().is_clean());
    }

    fn concurrent_mpmc<D: RcMmDomain<QueueCell<u64>> + Send + 'static>(d: D, threads: usize) {
        let d = Arc::new(d);
        let h0 = d.register_mm().unwrap();
        let q = Arc::new(Queue::<u64>::new(&h0).unwrap());
        drop(h0);
        let per = 2_000u64;
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let d = Arc::clone(&d);
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let h = d.register_mm().unwrap();
                    let mut got = Vec::new();
                    for i in 0..per {
                        q.enqueue(&h, (t as u64) << 32 | i).unwrap();
                        if i % 2 == 1 {
                            if let Some(v) = q.dequeue(&h) {
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
        while let Some(v) = q.dequeue(&h) {
            seen.push(v);
        }
        // Exactly-once delivery of every element.
        assert_eq!(seen.len(), threads * per as usize);
        let set: HashSet<u64> = seen.iter().copied().collect();
        assert_eq!(set.len(), seen.len(), "duplicate delivery");
        // Per-producer FIFO: for each producer, consumed order ascending.
        // (seen is not globally ordered, so check via per-producer filter
        // over the drain segment only — omitted: exact-once + sequential
        // FIFO tests cover ordering.)
        Arc::try_unwrap(q).ok().expect("sole owner").dispose(&h);
        drop(h);
        assert!(d.leak_check_mm().is_clean(), "{:?}", d.leak_check_mm());
    }

    #[test]
    fn concurrent_wfrc() {
        concurrent_mpmc(
            WfrcDomain::<QueueCell<u64>>::new(DomainConfig::new(5, 5 * 2_000 + 64)),
            4,
        );
    }

    #[test]
    fn concurrent_lfrc() {
        concurrent_mpmc(LfrcDomain::<QueueCell<u64>>::new(5, 5 * 2_000 + 64), 4);
    }

    #[test]
    fn new_fails_cleanly_when_pool_empty() {
        let d = WfrcDomain::<QueueCell<u64>>::new(DomainConfig::new(1, 1));
        let h = d.register_mm().unwrap();
        let q = Queue::new(&h).unwrap(); // takes the only node as dummy
        assert_eq!(q.enqueue(&h, 1), Err(OutOfMemory));
        q.dispose(&h);
        drop(h);
        assert!(d.leak_check_mm().is_clean());
    }
}
