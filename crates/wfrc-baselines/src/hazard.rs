//! Hazard pointers (Michael, PODC 2002 / IEEE TPDS 2004).
//!
//! The scheme the paper's introduction cites as reference [11, 12]: each
//! thread owns `K` *hazard pointer* slots; before dereferencing a shared
//! pointer a thread publishes it in a slot and re-validates the source
//! (lock-free — the validation can retry). Removed nodes are *retired* into
//! a thread-local list; when the list exceeds a threshold the thread scans
//! all hazard slots and frees exactly the retired nodes no slot protects —
//! that scan is wait-free and amortizes to O(1) per retirement.
//!
//! The structural limitation the paper exploits: only the `K · N` pointers
//! in the hazard array are ever protected, so a structure cannot hold an
//! unbounded number of safe references *from within itself* — which is why
//! reference counting remains necessary for structures like the
//! paper's §5 priority queue, and why this baseline only appears as a row
//! of the stalled-thread experiment (E9).
//!
//! Unlike the arena-based reference-counting schemes, hazard-pointer nodes
//! are ordinary heap allocations (`Box`), freed for real — the scheme's
//! selling point.

use core::cell::RefCell;
use core::marker::PhantomData;
use core::ptr;
use core::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::collections::HashSet;
use std::sync::Mutex;

use wfrc_primitives::CachePadded;

/// Hazard slots per thread. Treiber stacks need 1, Michael–Scott queues
/// need 2 per operation (head + next); 4 leaves headroom for nested
/// traversals.
const SLOTS_PER_THREAD: usize = 4;

/// A hazard-pointer reclamation domain for heap nodes of type `T`.
pub struct HpDomain<T> {
    /// `hazards[t * k + i]`: slot `i` of thread `t`. Null = unprotected.
    hazards: Box<[CachePadded<AtomicPtr<T>>]>,
    /// Registration flags.
    slots: Box<[CachePadded<AtomicUsize>]>,
    /// Hazard slots per thread (`K`).
    k: usize,
    /// Retire-list length that triggers a scan (`R` in Michael's paper;
    /// must exceed `N · K` for the amortization argument).
    scan_threshold: usize,
    /// Retired nodes orphaned by handles that unregistered before their
    /// lists drained. Teardown path only — never touched by hot operations.
    orphans: Mutex<Vec<*mut T>>,
}

// SAFETY: raw pointers in the hazard array and orphan list refer to heap
// nodes managed by the protocol; T: Send ensures they may be dropped on any
// thread.
unsafe impl<T: Send> Sync for HpDomain<T> {}
unsafe impl<T: Send> Send for HpDomain<T> {}

impl<T: Send> HpDomain<T> {
    /// Creates a domain for `max_threads` threads with four hazard slots
    /// each.
    pub fn new(max_threads: usize) -> Self {
        Self::with_slots(max_threads, SLOTS_PER_THREAD)
    }

    /// Creates a domain with `k` hazard slots per thread.
    fn with_slots(max_threads: usize, k: usize) -> Self {
        assert!(max_threads > 0 && k > 0);
        let total = max_threads * k;
        Self {
            hazards: (0..total)
                .map(|_| CachePadded::new(AtomicPtr::new(ptr::null_mut())))
                .collect(),
            slots: (0..max_threads)
                .map(|_| CachePadded::new(AtomicUsize::new(0)))
                .collect(),
            k,
            scan_threshold: (2 * total).max(64),
            orphans: Mutex::new(Vec::new()),
        }
    }

    /// Registers the calling context.
    pub fn register(&self) -> Option<HpHandle<'_, T>> {
        for (tid, slot) in self.slots.iter().enumerate() {
            if slot.load(Ordering::SeqCst) == 0
                && slot
                    .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                return Some(HpHandle {
                    domain: self,
                    tid,
                    retired: RefCell::new(Vec::new()),
                    _not_sync: PhantomData,
                });
            }
        }
        None
    }

    fn collect_hazards(&self) -> HashSet<*mut T> {
        self.hazards
            .iter()
            .map(|h| h.load(Ordering::SeqCst))
            .filter(|p| !p.is_null())
            .collect()
    }
}

impl<T> Drop for HpDomain<T> {
    fn drop(&mut self) {
        // No handles can outlive the domain (they borrow it), so nothing is
        // protected: every orphan is reclaimable.
        for p in self.orphans.get_mut().unwrap().drain(..) {
            // SAFETY: retired exactly once, unreachable, unprotected.
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

/// A registered thread's hazard-pointer interface.
pub struct HpHandle<'d, T: Send> {
    domain: &'d HpDomain<T>,
    tid: usize,
    retired: RefCell<Vec<*mut T>>,
    _not_sync: PhantomData<core::cell::Cell<()>>,
}

impl<'d, T: Send> HpHandle<'d, T> {
    fn hazard(&self, slot: usize) -> &AtomicPtr<T> {
        assert!(slot < self.domain.k, "hazard slot out of range");
        &self.domain.hazards[self.tid * self.domain.k + slot]
    }

    /// Allocates a fresh heap node (plain `Box` — hazard pointers reclaim
    /// to the allocator, not to a pool).
    pub fn alloc(&self, value: T) -> *mut T {
        Box::into_raw(Box::new(value))
    }

    /// Publishes `src`'s current value in hazard slot `slot` and
    /// re-validates until stable (Michael's protect loop). Returns the
    /// protected pointer (possibly null).
    ///
    /// The loop is lock-free, not wait-free: a writer flipping `src` can
    /// starve it — the exact weakness the paper's announcement scheme
    /// removes for reference counts.
    pub fn protect(&mut self, slot: usize, src: &AtomicPtr<T>) -> *mut T {
        let hazard = self.hazard(slot);
        let mut p = src.load(Ordering::SeqCst);
        loop {
            hazard.store(p, Ordering::SeqCst);
            let q = src.load(Ordering::SeqCst);
            if q == p {
                return p;
            }
            p = q;
        }
    }

    /// Clears hazard slot `slot`.
    pub fn clear(&self, slot: usize) {
        self.hazard(slot).store(ptr::null_mut(), Ordering::SeqCst);
    }

    /// Retires a node removed from a structure: it will be freed once no
    /// hazard slot protects it.
    ///
    /// # Safety
    /// `node` must have been made unreachable from the structure, be
    /// retired exactly once, and never be dereferenced by this thread
    /// again.
    pub unsafe fn retire(&mut self, node: *mut T) {
        debug_assert!(!node.is_null());
        self.retired.get_mut().push(node);
        if self.retired.get_mut().len() >= self.domain.scan_threshold {
            self.scan();
        }
    }

    /// The scan step: frees every retired node no hazard protects.
    /// Wait-free (one pass over a fixed-size array plus set operations).
    pub fn scan(&mut self) {
        let protected = self.domain.collect_hazards();
        let retired = self.retired.get_mut();
        let mut kept = Vec::with_capacity(retired.len());
        for p in retired.drain(..) {
            if protected.contains(&p) {
                kept.push(p);
            } else {
                // SAFETY: unreachable (retire contract) and unprotected.
                drop(unsafe { Box::from_raw(p) });
            }
        }
        *retired = kept;
    }

    /// Number of nodes currently awaiting reclamation on this thread.
    pub fn pending(&self) -> usize {
        self.retired.borrow().len()
    }
}

impl<T: Send> Drop for HpHandle<'_, T> {
    fn drop(&mut self) {
        // Last-chance scan, then hand leftovers to the domain.
        self.scan();
        let leftovers: Vec<*mut T> = self.retired.get_mut().drain(..).collect();
        if !leftovers.is_empty() {
            self.domain.orphans.lock().unwrap().extend(leftovers);
        }
        // Clear our hazard slots and release the registration.
        for i in 0..self.domain.k {
            self.clear(i);
        }
        self.domain.slots[self.tid].store(0, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;
    use std::sync::Arc;

    static DROPS: StdAtomicUsize = StdAtomicUsize::new(0);

    struct Counted(#[allow(dead_code)] u64);
    impl Drop for Counted {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn protect_returns_source_value() {
        let d = HpDomain::<u64>::new(1);
        let mut h = d.register().unwrap();
        let n = h.alloc(5);
        let src = AtomicPtr::new(n);
        let p = h.protect(0, &src);
        assert_eq!(p, n);
        // SAFETY: protected.
        assert_eq!(unsafe { *p }, 5);
        h.clear(0);
        // SAFETY: we own it; unreachable.
        unsafe { h.retire(n) };
        h.scan();
        assert_eq!(h.pending(), 0);
    }

    #[test]
    fn protected_node_survives_scan() {
        let d = HpDomain::<u64>::new(2);
        let mut h0 = d.register().unwrap();
        let mut h1 = d.register().unwrap();
        let n = h0.alloc(9);
        let src = AtomicPtr::new(n);
        let p = h1.protect(0, &src);
        assert_eq!(p, n);
        // Thread 0 retires it; thread 1 still protects it.
        // SAFETY: unreachable from any structure.
        unsafe { h0.retire(n) };
        h0.scan();
        assert_eq!(h0.pending(), 1, "protected node must not be freed");
        // SAFETY: still protected by h1's hazard.
        assert_eq!(unsafe { *p }, 9);
        h1.clear(0);
        h0.scan();
        assert_eq!(h0.pending(), 0);
    }

    #[test]
    fn orphans_freed_at_domain_drop() {
        DROPS.store(0, Ordering::SeqCst);
        {
            let d = HpDomain::<Counted>::new(2);
            let mut h0 = d.register().unwrap();
            let h1 = d.register().unwrap();
            let n = h0.alloc(Counted(1));
            let src = AtomicPtr::new(n);
            // Protect from the *other* handle so h0's drop-scan can't free it.
            let mut h1 = h1;
            let _p = h1.protect(0, &src);
            // SAFETY: unreachable.
            unsafe { h0.retire(n) };
            drop(h0); // orphaned (still protected by h1)
            assert_eq!(DROPS.load(Ordering::SeqCst), 0);
            drop(h1);
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn threshold_scan_amortizes() {
        let d = HpDomain::<u64>::with_slots(1, 1);
        let mut h = d.register().unwrap();
        for i in 0..500 {
            let n = h.alloc(i);
            // SAFETY: never published anywhere.
            unsafe { h.retire(n) };
        }
        assert!(
            h.pending() < d.scan_threshold,
            "threshold must have triggered scans"
        );
    }

    #[test]
    fn concurrent_protect_retire_stress() {
        let d = Arc::new(HpDomain::<u64>::new(3));
        let shared = Arc::new(AtomicPtr::<u64>::new(ptr::null_mut()));
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let d = Arc::clone(&d);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let mut h = d.register().unwrap();
                    for i in 0..3_000u64 {
                        let n = h.alloc(i);
                        let old = shared.swap(n, Ordering::SeqCst);
                        if !old.is_null() {
                            // SAFETY: we unlinked `old`; each swap result is
                            // retired exactly once.
                            unsafe { h.retire(old) };
                        }
                    }
                })
            })
            .collect();
        let reader = {
            let d = Arc::clone(&d);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let mut h = d.register().unwrap();
                let mut sum = 0u64;
                for _ in 0..3_000 {
                    let p = h.protect(0, &shared);
                    if !p.is_null() {
                        // SAFETY: protected.
                        sum = sum.wrapping_add(unsafe { *p });
                    }
                    h.clear(0);
                }
                sum
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        let _ = reader.join().unwrap();
        // Final published node is never retired; clean up.
        let last = shared.load(Ordering::SeqCst);
        if !last.is_null() {
            // SAFETY: all threads done; sole owner.
            drop(unsafe { Box::from_raw(last) });
        }
    }
}
