//! Epoch-based reclamation (Fraser's three-epoch scheme; what crossbeam
//! ships today).
//!
//! Readers *pin* the current global epoch before touching shared nodes and
//! unpin afterwards; writers retire removed nodes into the bag of the epoch
//! they observed. The global epoch may advance from `e` to `e+1` only when
//! every pinned thread has observed `e`; at that point nodes retired in
//! epoch `e-1` can no longer be reachable by anyone and are freed. Three
//! bags per thread suffice because at most two epochs can have live
//! references at once.
//!
//! Included because the reproduction's novelty note is exactly that OSS
//! uses hazard pointers/epochs rather than wait-free reference counting:
//! EBR has the cheapest reads of all four schemes (one store + fence to
//! pin), but a single stalled pinned thread **stops reclamation globally**
//! — the anti-real-time behaviour the paper's refcounting avoids, and
//! measurable here (see `stalled_reader_blocks_reclamation`).

use core::cell::{Cell, RefCell};
use core::marker::PhantomData;
use core::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use wfrc_primitives::CachePadded;

/// A participant's epoch word: bit 0 = pinned flag, upper bits = the epoch
/// observed at pin time.
const PINNED: usize = 1;

/// Retire this many nodes between advance attempts.
const ADVANCE_EVERY: usize = 64;

/// An epoch-based reclamation domain for heap nodes of type `T`.
pub struct EbrDomain<T> {
    global: CachePadded<AtomicUsize>,
    /// Per-thread epoch words (pinned flag + observed epoch).
    locals: Box<[CachePadded<AtomicUsize>]>,
    /// Registration flags.
    slots: Box<[CachePadded<AtomicUsize>]>,
    /// Bags orphaned by unregistered handles; freed on domain drop.
    orphans: Mutex<Vec<*mut T>>,
}

// SAFETY: pointers in orphan bags are heap nodes managed by the protocol;
// T: Send lets any thread drop them.
unsafe impl<T: Send> Sync for EbrDomain<T> {}
unsafe impl<T: Send> Send for EbrDomain<T> {}

impl<T: Send> EbrDomain<T> {
    /// Creates a domain for up to `max_threads` registered threads.
    pub fn new(max_threads: usize) -> Self {
        assert!(max_threads > 0);
        Self {
            global: CachePadded::new(AtomicUsize::new(0)),
            locals: (0..max_threads)
                .map(|_| CachePadded::new(AtomicUsize::new(0)))
                .collect(),
            slots: (0..max_threads)
                .map(|_| CachePadded::new(AtomicUsize::new(0)))
                .collect(),
            orphans: Mutex::new(Vec::new()),
        }
    }

    /// Registers the calling context.
    pub fn register(&self) -> Option<EbrHandle<'_, T>> {
        for (tid, slot) in self.slots.iter().enumerate() {
            if slot.load(Ordering::SeqCst) == 0
                && slot
                    .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                return Some(EbrHandle {
                    domain: self,
                    tid,
                    bags: RefCell::new([Vec::new(), Vec::new(), Vec::new()]),
                    since_advance: Cell::new(0),
                    _not_sync: PhantomData,
                });
            }
        }
        None
    }

    /// True if every pinned participant has observed epoch `e`.
    fn all_observed(&self, e: usize) -> bool {
        self.locals.iter().all(|l| {
            let w = l.load(Ordering::SeqCst);
            w & PINNED == 0 || w >> 1 == e
        })
    }
}

impl<T> Drop for EbrDomain<T> {
    fn drop(&mut self) {
        for p in self.orphans.get_mut().unwrap().drain(..) {
            // SAFETY: no handles (they borrow the domain) → nothing pinned →
            // every orphan unreachable.
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

/// A registered thread's EBR interface.
pub struct EbrHandle<'d, T: Send> {
    domain: &'d EbrDomain<T>,
    tid: usize,
    /// Retired-node bags, indexed by `epoch % 3`.
    bags: RefCell<[Vec<*mut T>; 3]>,
    since_advance: Cell<usize>,
    _not_sync: PhantomData<core::cell::Cell<()>>,
}

impl<'d, T: Send> EbrHandle<'d, T> {
    /// Allocates a fresh heap node.
    pub fn alloc(&self, value: T) -> *mut T {
        Box::into_raw(Box::new(value))
    }

    /// Pins the current epoch: shared nodes reached while the guard lives
    /// cannot be freed. Re-entrant pinning is a logic error (enforced by a
    /// debug assertion).
    pub fn pin(&self) -> EbrGuard<'_, 'd, T> {
        let local = &self.domain.locals[self.tid];
        debug_assert_eq!(local.load(Ordering::SeqCst) & PINNED, 0, "re-entrant pin");
        let e = self.domain.global.load(Ordering::SeqCst);
        local.store(e << 1 | PINNED, Ordering::SeqCst);
        EbrGuard { handle: self }
    }

    /// Retires a node removed from a structure; it is freed two epoch
    /// advances later.
    ///
    /// # Safety
    /// `node` must be unreachable from the structure, retired exactly once,
    /// and not dereferenced by this thread after the call.
    pub unsafe fn retire(&self, node: *mut T) {
        debug_assert!(!node.is_null());
        let e = self.domain.global.load(Ordering::SeqCst);
        self.bags.borrow_mut()[e % 3].push(node);
        let n = self.since_advance.get() + 1;
        self.since_advance.set(n);
        if n >= ADVANCE_EVERY {
            self.since_advance.set(0);
            self.try_advance();
        }
    }

    /// Attempts to advance the global epoch; on success frees this
    /// thread's bag from two epochs ago. Returns whether the epoch moved.
    pub fn try_advance(&self) -> bool {
        let e = self.domain.global.load(Ordering::SeqCst);
        if !self.domain.all_observed(e) {
            return false;
        }
        if self
            .domain
            .global
            .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            // Someone else advanced; our bags are still freed on *our* next
            // successful advance.
            return false;
        }
        // After the advance to e+1, nodes retired in epoch e-1 (bag index
        // (e+2) % 3 == (e-1) % 3) are unreachable by every thread.
        let bag = &mut self.bags.borrow_mut()[(e + 2) % 3];
        for p in bag.drain(..) {
            // SAFETY: retired in epoch e-1; every thread has observed ≥ e,
            // so no pinned reader can still hold it.
            drop(unsafe { Box::from_raw(p) });
        }
        true
    }

    /// Nodes currently awaiting reclamation on this thread.
    pub fn pending(&self) -> usize {
        self.bags.borrow().iter().map(Vec::len).sum()
    }
}

impl<T: Send> Drop for EbrHandle<'_, T> {
    fn drop(&mut self) {
        // Opportunistic advances to drain what we can, then orphan the rest.
        for _ in 0..3 {
            self.try_advance();
        }
        let leftovers: Vec<*mut T> = self
            .bags
            .get_mut()
            .iter_mut()
            .flat_map(|b| b.drain(..))
            .collect();
        if !leftovers.is_empty() {
            self.domain.orphans.lock().unwrap().extend(leftovers);
        }
        self.domain.locals[self.tid].store(0, Ordering::SeqCst);
        self.domain.slots[self.tid].store(0, Ordering::SeqCst);
    }
}

/// An RAII pin. While alive, nodes observed through shared pointers cannot
/// be freed.
pub struct EbrGuard<'h, 'd, T: Send> {
    handle: &'h EbrHandle<'d, T>,
}

impl<T: Send> Drop for EbrGuard<'_, '_, T> {
    fn drop(&mut self) {
        self.handle.domain.locals[self.handle.tid].store(0, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicPtr;
    use std::sync::Arc;

    #[test]
    fn retire_frees_after_two_advances() {
        let d = EbrDomain::<u64>::new(1);
        let h = d.register().unwrap();
        let n = h.alloc(1);
        // SAFETY: never published.
        unsafe { h.retire(n) };
        assert_eq!(h.pending(), 1);
        // With no one pinned, each try_advance succeeds; after enough
        // advances the bag cycles out.
        for _ in 0..3 {
            h.try_advance();
        }
        assert_eq!(h.pending(), 0);
    }

    #[test]
    fn pinned_reader_blocks_advance() {
        let d = EbrDomain::<u64>::new(2);
        let h0 = d.register().unwrap();
        let h1 = d.register().unwrap();
        let e0 = d.global.load(Ordering::SeqCst);
        let _guard = h1.pin();
        // h1 observed e0; advance to e0+1 is allowed once...
        assert!(h0.try_advance());
        // ...but a further advance requires h1 to re-pin at the new epoch.
        assert!(!h0.try_advance());
        assert_eq!(d.global.load(Ordering::SeqCst), e0 + 1);
    }

    #[test]
    fn stalled_reader_blocks_reclamation() {
        // The anti-real-time behaviour: one pinned thread, unbounded garbage.
        let d = EbrDomain::<u64>::new(2);
        let h0 = d.register().unwrap();
        let h1 = d.register().unwrap();
        let _stalled = h1.pin();
        h0.try_advance(); // one advance is still possible
        for i in 0..1_000 {
            let n = h0.alloc(i);
            // SAFETY: never published.
            unsafe { h0.retire(n) };
        }
        assert!(
            h0.pending() >= 1_000 - ADVANCE_EVERY,
            "stalled reader must pile up garbage, pending = {}",
            h0.pending()
        );
        drop(_stalled);
    }

    #[test]
    fn guard_unpins_on_drop() {
        let d = EbrDomain::<u64>::new(1);
        let h = d.register().unwrap();
        {
            let _g = h.pin();
            assert_eq!(d.locals[0].load(Ordering::SeqCst) & PINNED, PINNED);
        }
        assert_eq!(d.locals[0].load(Ordering::SeqCst) & PINNED, 0);
    }

    #[test]
    fn orphaned_bags_freed_at_domain_drop() {
        use std::sync::atomic::AtomicUsize as A;
        static DROPS: A = A::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        {
            let d = EbrDomain::<Counted>::new(2);
            let h0 = d.register().unwrap();
            let h1 = d.register().unwrap();
            let _pin = h1.pin(); // blocks h0's drop-time advances
            let n = h0.alloc(Counted);
            // SAFETY: never published.
            unsafe { h0.retire(n) };
            drop(h0);
            drop(_pin);
            drop(h1);
            assert_eq!(DROPS.load(Ordering::SeqCst), 0);
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_swap_retire_stress() {
        let d = Arc::new(EbrDomain::<u64>::new(3));
        let shared = Arc::new(AtomicPtr::<u64>::new(core::ptr::null_mut()));
        let workers: Vec<_> = (0..3)
            .map(|w| {
                let d = Arc::clone(&d);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let h = d.register().unwrap();
                    let mut sum = 0u64;
                    for i in 0..3_000u64 {
                        let g = h.pin();
                        if w == 0 {
                            let p = shared.load(Ordering::SeqCst);
                            if !p.is_null() {
                                // SAFETY: pinned; publishers retire only
                                // after unlinking, frees wait two epochs.
                                sum = sum.wrapping_add(unsafe { *p });
                            }
                        } else {
                            let n = h.alloc(i);
                            let old = shared.swap(n, Ordering::SeqCst);
                            if !old.is_null() {
                                // SAFETY: unlinked; retired exactly once.
                                unsafe { h.retire(old) };
                            }
                        }
                        drop(g);
                    }
                    sum
                })
            })
            .collect();
        for w in workers {
            let _ = w.join().unwrap();
        }
        let last = shared.load(Ordering::SeqCst);
        if !last.is_null() {
            // SAFETY: all threads joined.
            drop(unsafe { Box::from_raw(last) });
        }
    }
}
