//! Handle virtualization: a wait-free lease pool over registration slots.
//!
//! Every table in the scheme — announcement matrices, free-list stripes,
//! operation epochs — is sized by the domain's `NR_THREADS`, and the paper
//! assumes a thread's `threadId` is "unique and fixed". A server workload
//! has neither: tens of thousands of short-lived tasks, none pinned to a
//! thread. This module keeps the paper's machinery intact by *leasing*
//! thread ids: a [`LeasePool`] holds `N` pre-registered handles and checks
//! them out to `M ≫ N` tasks, one at a time per handle, so the `O(N)`
//! helping bounds and per-slot state never grow with task count (the same
//! move DEBRA+ makes for reclamation state — bound the per-thread table,
//! recover entries from stalled owners).
//!
//! # Checkout protocol
//!
//! A lease slot is one word, `generation << 3 | state`, with four states:
//!
//! ```text
//! FREE ──claim CAS (gen+1)──▶ LEASED ──guard drop──▶ FREE
//!   ▲                           │ guard dropped while unwinding
//!   │                           ▼
//! RECOVERING ◀──claim CAS── ORPHANED
//!   │  take handle · abandon · adopt_all · re-register
//!   ▼
//! FREE (gen+1)
//! ```
//!
//! [`LeasePool::try_acquire`] first *reserves* capacity with one
//! fetch-and-add on a semaphore word (`free_count`), then claims a FREE
//! slot with a bounded rotor scan — at most [`SCAN_PASSES`]
//! passes over the `N` slot words, each claim a single CAS. The
//! reservation keeps the count an *undercount* of actually-FREE slots, so
//! a failed scan pass can only mean another reserver claimed concurrently;
//! the call is bounded either way (`O(passes · N)` steps, then an error).
//!
//! [`LeasePool::acquire`] adds the *helping ticket*: when the bounded scan
//! trips, the caller enrolls in a fixed array of waiter cells and sets its
//! bit in a one-word waiter summary (the same presence-summary idiom as
//! the announcement bitmap of PR 4). A releasing guard that sees the
//! summary non-zero does not return its slot to the scan at all — it takes
//! the slot back (`FREE(g) → LEASED(g+1)`) and *hands it directly* to one
//! enrolled waiter through the waiter's cell, so an enrolled waiter never
//! competes with the scan again: one release, one targeted wake, one
//! checkout. Blocking happens only while **every** slot is checked out —
//! genuine capacity exhaustion, which no allocator can wait-free its way
//! around — and each coordination step (reserve, claim, enroll, hand off)
//! is individually bounded. See DESIGN.md §4e for the full argument.
//!
//! # Death and recovery
//!
//! A slot is only ever taken back from a holder that is gone. A guard
//! dropped while its holder unwinds (a panic, or an injected `Die`) marks
//! the slot `ORPHANED`; [`LeasePool::recover_orphaned`] then abandons the
//! handle (its domain registration becomes ORPHANED, as for a crashed
//! thread), runs [`LeaseRegistry::adopt_all`], re-registers a fresh handle
//! and returns the slot to circulation. Whoever wants recovery calls it: a
//! worker between sessions, a test, or a timer thread
//! (`wfrc_sim::Supervisor` with `|| { pool.recover_orphaned(); }`). The
//! call only reads the slot words of a healthy pool, so a frequent timer
//! costs little. Nothing takes back a slot whose holder
//! is still running, however slow: the paper's `threadId` is "unique and
//! fixed", and only the holder writes a `LEASED` word. A leaked guard
//! (`mem::forget`) therefore keeps its slot, exactly as a leaked domain
//! [`Handle`] keeps its registration.
//!
//! # Example
//!
//! ```
//! use wfrc_core::lease::{LeaseConfig, LeasePool};
//! use wfrc_core::{DomainConfig, WfrcDomain};
//!
//! let domain = WfrcDomain::<u64>::new(DomainConfig::new(8, 128).with_magazine(8));
//! // 4 lease slots multiplex any number of tasks over 4 thread ids.
//! let pool = LeasePool::new(&domain, LeaseConfig::new(4)).unwrap();
//!
//! let lease = pool.acquire();
//! let node = lease.alloc_with(|v| *v = 7).unwrap();
//! assert_eq!(*node, 7);
//! drop(node);
//! drop(lease); // slot returned hot, magazine intact
//!
//! assert_eq!(pool.stats().issued, 1);
//! assert_eq!(pool.stats().released, 1);
//! drop(pool);
//! assert!(domain.leak_check().is_clean());
//! ```

use core::cell::UnsafeCell;
use core::marker::PhantomData;
use core::sync::atomic::Ordering;
use core::time::Duration;
use std::sync::Mutex;
use std::thread::Thread;

use wfrc_primitives::{AtomicWord, CachePadded};

use crate::counters::{LeaseSnapshot, LeaseStats};
use crate::domain::{AdoptReport, Domain, RegistryFull};
use crate::handle::Handle;
use crate::node::RcObject;
use crate::scheme::Scheme;

// ---------------------------------------------------------------------------
// Registry abstraction
// ---------------------------------------------------------------------------

/// What a [`LeasePool`] needs from a domain: registration, abandonment
/// and orphan adoption. Implemented once, for
/// [`Domain`] under any scheme, so the pool (and the E12 server bench) runs
/// identically over both schemes.
pub trait LeaseRegistry: Sync {
    /// The per-slot handle checked in and out of the pool. `Send` because
    /// the pool is shared: a slot's handle serves whichever thread checks
    /// the slot out next, and recovery abandons it from whichever thread
    /// runs `recover_orphaned`. Never `Sync` in practice
    /// (one thread id, one user at a time).
    type Handle<'d>: Send
    where
        Self: 'd;

    /// Claims a registration slot without panicking on exhaustion.
    fn try_register_handle(&self) -> Result<Self::Handle<'_>, RegistryFull>;

    /// Marks `handle`'s slot ORPHANED for [`LeaseRegistry::adopt_all`],
    /// exactly as if the owning thread died.
    fn abandon_handle<'d>(&'d self, handle: Self::Handle<'d>);

    /// Runs the domain's orphan adoption, recovering every abandoned
    /// slot's resources (announcements, gifts, magazines).
    fn adopt_all(&self) -> AdoptReport;

    /// `handle`'s registered thread id, for diagnostics.
    fn handle_tid(handle: &Self::Handle<'_>) -> usize;

    /// Fires the [`LeaseCheckout`](crate::fault::FaultSite::LeaseCheckout)
    /// fault site on behalf of `handle`, if a plan is installed.
    #[cfg(feature = "fault-injection")]
    fn lease_fault<'d>(&'d self, handle: &Self::Handle<'d>);
}

impl<T: RcObject, S: Scheme> LeaseRegistry for Domain<T, S> {
    type Handle<'d>
        = Handle<'d, T, S>
    where
        Self: 'd;

    fn try_register_handle(&self) -> Result<Self::Handle<'_>, RegistryFull> {
        self.try_register()
    }

    fn abandon_handle<'d>(&'d self, handle: Self::Handle<'d>) {
        handle.abandon();
    }

    fn adopt_all(&self) -> AdoptReport {
        self.adopt_orphans()
    }

    fn handle_tid(handle: &Self::Handle<'_>) -> usize {
        handle.tid()
    }

    #[cfg(feature = "fault-injection")]
    fn lease_fault<'d>(&'d self, handle: &Self::Handle<'d>) {
        use crate::scheme::Pool;
        self.pool().fault_hit(
            handle.counters(),
            crate::fault::FaultSite::LeaseCheckout,
            handle.tid(),
        );
    }
}

// ---------------------------------------------------------------------------
// Slot and waiter words
// ---------------------------------------------------------------------------

/// Slot states, packed as `generation << STATE_BITS | state`. The
/// generation bumps on every claim out of FREE (and on recovery), so a
/// stale claim or recovery decision from a previous tenancy can never CAS
/// a current one (the registration-slot ABA defense, one word).
const STATE_BITS: u32 = 3;
const STATE_MASK: usize = (1 << STATE_BITS) - 1;
const FREE: usize = 0;
const LEASED: usize = 1;
const ORPHANED: usize = 2;
const RECOVERING: usize = 3;

#[inline]
fn pack(generation: usize, state: usize) -> usize {
    (generation << STATE_BITS) | state
}

#[inline]
fn state_of(word: usize) -> usize {
    word & STATE_MASK
}

#[inline]
fn gen_of(word: usize) -> usize {
    word >> STATE_BITS
}

/// Waiter-cell states. `SETUP` is a private intermediate (the enrolling or
/// cancelling waiter owns the cell while installing/removing its parker);
/// releasers only ever CAS `WAITING → CLAIMED`, take the parker, then store
/// the handed slot as `(slot_index << STATE_BITS) | HANDED_TAG`.
const W_EMPTY: usize = 0;
const W_SETUP: usize = 1;
const W_WAITING: usize = 2;
const W_CLAIMED: usize = 3;
const HANDED_TAG: usize = 4;

#[inline]
fn handed_word(slot: usize) -> usize {
    (slot << STATE_BITS) | HANDED_TAG
}

#[inline]
fn is_handed(word: usize) -> bool {
    word & STATE_MASK == HANDED_TAG
}

#[inline]
fn handed_slot(word: usize) -> usize {
    word >> STATE_BITS
}

struct WaiterCell {
    state: CachePadded<AtomicWord>,
    /// The blocked acquirer's thread. Every access is made by whoever the
    /// state word makes the cell's sole owner: the waiter installs it under
    /// `SETUP`, a releaser takes it under `CLAIMED` (before publishing
    /// `HANDED`, so a late wake can never take the parker of the cell's
    /// next enrollment), and a cancel clears it under `SETUP`. The mutex
    /// is therefore uncontended; it only makes that hand-over safe code.
    parker: Mutex<Option<Thread>>,
}

impl WaiterCell {
    fn new() -> Self {
        Self {
            state: CachePadded::new(AtomicWord::new(W_EMPTY)),
            parker: Mutex::new(None),
        }
    }

    fn set_parker(&self, p: Option<Thread>) {
        *self.parker.lock().unwrap_or_else(|e| e.into_inner()) = p;
    }

    fn take_parker(&self) -> Option<Thread> {
        self.parker.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

struct LeaseSlot<H> {
    state: CachePadded<AtomicWord>,
    /// The registered handle parked in this slot. Accessed only by the
    /// slot's current exclusive owner: the guard holder (claimed LEASED),
    /// the recoverer (claimed RECOVERING), or pool construction/drop.
    handle: UnsafeCell<Option<H>>,
}

// ---------------------------------------------------------------------------
// Configuration and errors
// ---------------------------------------------------------------------------

/// Configuration for a [`LeasePool`].
#[derive(Debug, Clone)]
pub struct LeaseConfig {
    /// Number of handles to pre-register (≤ the domain's free slots).
    pub slots: usize,
}

/// Full scan passes [`LeasePool::try_acquire`] attempts before reporting
/// contention (and [`LeasePool::acquire`] falls back to the helping
/// ticket).
pub const SCAN_PASSES: usize = 2;

impl LeaseConfig {
    /// A pool of `slots` leases.
    pub fn new(slots: usize) -> Self {
        Self { slots }
    }
}

/// Error of [`LeasePool::try_acquire`]: no lease could be claimed within
/// the bounded scan — every slot checked out, or (rarely) every FREE slot
/// lost to a concurrent claimant within the pass bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolExhausted;

impl core::fmt::Display for PoolExhausted {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "no lease slot claimable within the bounded scan")
    }
}

impl std::error::Error for PoolExhausted {}

/// What one [`LeasePool::recover_orphaned`] pass did.
#[derive(Debug, Default, Clone, Copy)]
pub struct RecoverReport {
    /// `ORPHANED` slots recovered back into circulation.
    pub recovered: usize,
    /// Recoveries that could not re-register a handle (slot left out of
    /// circulation; a later pass retries).
    pub register_failures: usize,
    /// Aggregated domain-side adoption work (see [`AdoptReport`]).
    pub adopt: AdoptReport,
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// A wait-free pool of leased [`LeaseRegistry::Handle`]s. See the
/// [module docs](crate::lease) for the protocol.
pub struct LeasePool<'d, R: LeaseRegistry> {
    registry: &'d R,
    slots: Box<[LeaseSlot<R::Handle<'d>>]>,
    /// Capacity semaphore: an undercount of FREE slots (each outstanding
    /// reservation and each not-yet-recirculated release subtracts).
    /// Manipulated exclusively with FAA; transiently dips below zero
    /// (stored as two's-complement) under racing reservers.
    free_count: CachePadded<AtomicWord>,
    /// Rotor: scan start position, FAA-advanced per scan so concurrent
    /// claimants spread over the slot array instead of colliding on 0.
    rotor: CachePadded<AtomicWord>,
    waiters: Box<[WaiterCell]>,
    /// One presence bit per waiter cell (the PR 4 summary idiom): a
    /// releaser reads one word to learn "someone is enrolled" and only
    /// then walks the cells.
    waiter_summary: CachePadded<AtomicWord>,
    stats: LeaseStats,
}

// SAFETY: the only non-Sync ingredient is the `UnsafeCell<Option<Handle>>`
// per slot, and the protocol grants it to exactly one owner at a time: the
// guard holder (claimed `FREE → LEASED` or received a handoff), the
// recoverer (claimed `ORPHANED → RECOVERING`), or `&mut self` paths. The
// handle itself is `Send` (trait bound), so moving that exclusive access
// across threads is sound. Everything else is atomics and a Mutex.
unsafe impl<'d, R: LeaseRegistry> Sync for LeasePool<'d, R> {}
// SAFETY: same argument; the pool owns handles only through the cells.
unsafe impl<'d, R: LeaseRegistry> Send for LeasePool<'d, R> {}

impl<'d, R: LeaseRegistry> LeasePool<'d, R> {
    /// Pre-registers `config.slots` handles from `registry` and builds the
    /// pool. Fails with [`RegistryFull`] if the domain cannot supply that
    /// many ids (handles already claimed are released).
    ///
    /// # Panics
    /// If `config.slots` is 0.
    pub fn new(registry: &'d R, config: LeaseConfig) -> Result<Self, RegistryFull> {
        assert!(config.slots >= 1, "a lease pool needs at least one slot");
        let mut slots = Vec::with_capacity(config.slots);
        for _ in 0..config.slots {
            let handle = registry.try_register_handle()?;
            slots.push(LeaseSlot {
                state: CachePadded::new(AtomicWord::new(pack(0, FREE))),
                handle: UnsafeCell::new(Some(handle)),
            });
        }
        let waiter_cells = usize::BITS as usize;
        Ok(Self {
            registry,
            free_count: CachePadded::new(AtomicWord::new(config.slots)),
            rotor: CachePadded::new(AtomicWord::new(0)),
            slots: slots.into_boxed_slice(),
            waiters: (0..waiter_cells).map(|_| WaiterCell::new()).collect(),
            waiter_summary: CachePadded::new(AtomicWord::new(0)),
            stats: LeaseStats::new(),
        })
    }

    /// Number of lease slots.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// The registry this pool leases from.
    pub fn registry(&self) -> &'d R {
        self.registry
    }

    /// Pool telemetry snapshot.
    pub fn stats(&self) -> LeaseSnapshot {
        self.stats.snapshot()
    }

    /// Number of slots currently checked out or awaiting recovery
    /// (diagnostic; racy by nature).
    pub fn leased(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| state_of(s.state.load_with(Ordering::Relaxed)) != FREE)
            .count()
    }

    // -- reservation ------------------------------------------------------

    /// One FAA down on the capacity semaphore; repairs and fails if it
    /// went non-positive. Bounded: two FAAs, no loop.
    ///
    /// SeqCst: this FAA is the read side of the Dekker pair with
    /// [`LeasePool::recirculate`]'s post-bump summary recheck. An enroller
    /// publishes its summary bit (SeqCst) and then reserves; a releaser
    /// bumps the credit (SeqCst) and then rereads the summary (SeqCst). In
    /// the SC total order one of the two must see the other — so a waiter
    /// whose rescan misses the credit is guaranteed to have its bit seen
    /// by the releaser's recheck, which converts the credit into a direct
    /// handoff instead of leaving the waiter asleep for a full
    /// `park_timeout` while a slot sits FREE.
    #[inline]
    fn reserve(&self) -> bool {
        let prev = self.free_count.faa_with(-1, Ordering::SeqCst) as isize;
        if prev <= 0 {
            self.free_count.faa_with(1, Ordering::SeqCst);
            return false;
        }
        true
    }

    #[inline]
    fn unreserve(&self) {
        self.free_count.faa_with(1, Ordering::SeqCst);
    }

    /// One rotor pass over the slots: at most `N` loads and one CAS per
    /// FREE word seen. Caller must hold a reservation.
    fn claim_pass(&self) -> Option<(usize, usize)> {
        let n = self.slots.len();
        let start = self.rotor.faa_with(1, Ordering::Relaxed);
        for i in 0..n {
            let idx = (start + i) % n;
            let slot = &self.slots[idx];
            let word = slot.state.load_with(Ordering::Relaxed);
            if state_of(word) != FREE {
                continue;
            }
            let claimed = pack(gen_of(word) + 1, LEASED);
            // Acquire pairs with the Release of the freeing CAS: the new
            // tenant sees the previous tenant's handle state.
            if slot
                .state
                .cas_with(word, claimed, Ordering::Acquire, Ordering::Relaxed)
            {
                return Some((idx, claimed));
            }
        }
        None
    }

    /// Builds the guard, then fires the `LeaseCheckout` site. An injected
    /// death there unwinds through the guard's drop, which orphans the
    /// slot for [`LeasePool::recover_orphaned`].
    fn finish_checkout(&self, idx: usize, word: usize) -> LeaseGuard<'_, 'd, R> {
        debug_assert_eq!(state_of(word), LEASED);
        LeaseStats::bump(&self.stats.issued);
        let guard = LeaseGuard {
            pool: self,
            idx,
            word,
            _not_sync: PhantomData,
        };
        #[cfg(feature = "fault-injection")]
        self.registry.lease_fault(&guard);
        guard
    }

    /// Bounded claim: reserve, then at most [`SCAN_PASSES`] rotor passes.
    fn try_checkout(&self) -> Option<LeaseGuard<'_, 'd, R>> {
        if !self.reserve() {
            return None;
        }
        for pass in 0..SCAN_PASSES {
            if let Some((idx, word)) = self.claim_pass() {
                return Some(self.finish_checkout(idx, word));
            }
            if pass + 1 < SCAN_PASSES {
                std::thread::yield_now();
            }
        }
        // Every FREE slot we saw was claimed under us within the bound:
        // give the reservation back and let the caller decide (error for
        // `try_acquire`, helping ticket for `acquire`).
        LeaseStats::bump(&self.stats.long_scans);
        self.unreserve();
        None
    }

    /// Claims a lease without blocking.
    ///
    /// Bounded wait-free: one reservation FAA plus at most
    /// [`SCAN_PASSES`] passes of one CAS-per-free-slot, then
    /// [`PoolExhausted`]. Use [`LeasePool::acquire`] for the blocking,
    /// handoff-backed form.
    ///
    /// ```
    /// use wfrc_core::lease::{LeaseConfig, LeasePool};
    /// use wfrc_core::{DomainConfig, WfrcDomain};
    ///
    /// let domain = WfrcDomain::<u64>::new(DomainConfig::new(4, 64));
    /// let pool = LeasePool::new(&domain, LeaseConfig::new(1)).unwrap();
    /// let held = pool.try_acquire().unwrap();
    /// assert!(pool.try_acquire().is_err()); // sole slot checked out
    /// drop(held);
    /// assert!(pool.try_acquire().is_ok());
    /// ```
    #[must_use = "the lease is released immediately if the guard is discarded"]
    pub fn try_acquire(&self) -> Result<LeaseGuard<'_, 'd, R>, PoolExhausted> {
        self.try_checkout().ok_or_else(|| {
            LeaseStats::bump(&self.stats.exhausted);
            PoolExhausted
        })
    }

    /// Claims a lease, blocking while every slot is checked out.
    ///
    /// The fast path is the bounded scan of [`LeasePool::try_acquire`];
    /// past the bound the caller enrolls on the waiter list and is handed
    /// a slot directly by a releasing guard (the helping ticket — see the
    /// [module docs](crate::lease)). Blocking therefore only occurs while
    /// the pool is at true capacity.
    #[must_use = "the lease is released immediately if the guard is discarded"]
    pub fn acquire(&self) -> LeaseGuard<'_, 'd, R> {
        loop {
            if let Some(guard) = self.try_checkout() {
                return guard;
            }
            let Some(cell) = self.enroll(std::thread::current()) else {
                // Waiter list full (more than one blocked thread per
                // summary bit): fall back to re-scanning. Capacity is
                // exhausted anyway; this is the oversubscription path.
                std::thread::yield_now();
                continue;
            };
            // Enrolled. Close the lost-wakeup window — a slot freed
            // between our failed scan and the summary-bit store — by
            // rescanning once *after* the bit is visible.
            loop {
                if let Some(guard) = self.try_checkout() {
                    if let Some(word) = self.cancel_waiter(cell) {
                        // A handoff raced our cancel: we now hold two
                        // slots. Return the handed one to circulation.
                        self.release_unissued(handed_slot(word));
                    }
                    return guard;
                }
                let word = self.waiters[cell].state.load_with(Ordering::Acquire);
                if is_handed(word) {
                    // The releaser took our parker before publishing
                    // HANDED; the cell is ours to empty.
                    self.waiters[cell]
                        .state
                        .store_with(W_EMPTY, Ordering::Release);
                    let idx = handed_slot(word);
                    let slot_word = self.slots[idx].state.load_with(Ordering::Acquire);
                    return self.finish_checkout(idx, slot_word);
                }
                // Belt and suspenders: a bounded park, so a wake the
                // protocol fails to deliver degrades to a periodic
                // re-check instead of a hang. (A handoff landing between
                // the load above and this park is kept by the unpark
                // token.)
                std::thread::park_timeout(Duration::from_micros(200));
            }
        }
    }

    // -- waiter list ------------------------------------------------------

    /// Claims an EMPTY waiter cell, installs `parker`, publishes WAITING
    /// and the summary bit. At most one pass over the (word-width) cells.
    fn enroll(&self, parker: Thread) -> Option<usize> {
        for (bit, cell) in self.waiters.iter().enumerate() {
            if cell.state.load_with(Ordering::Relaxed) == W_EMPTY
                && cell
                    .state
                    .cas_with(W_EMPTY, W_SETUP, Ordering::Acquire, Ordering::Relaxed)
            {
                cell.set_parker(Some(parker));
                cell.state.store_with(W_WAITING, Ordering::Release);
                // SeqCst store-load pairing with the releaser's post-bump
                // summary recheck (see `reserve`): after this, any release
                // must either see our bit — and hand us its slot — or have
                // published its semaphore credit before our post-enroll
                // rescan's `reserve`, which then succeeds.
                self.waiter_summary
                    .fetch_or_with(1 << bit, Ordering::SeqCst);
                LeaseStats::bump(&self.stats.enrolled);
                return Some(bit);
            }
        }
        None
    }

    /// Withdraws waiter cell `bit`. Returns `Some(handed_word)` if a
    /// handoff won the race — the caller now owns that slot and must
    /// either use it or recirculate it.
    fn cancel_waiter(&self, bit: usize) -> Option<usize> {
        let cell = &self.waiters[bit];
        loop {
            let word = cell.state.load_with(Ordering::Acquire);
            match word {
                W_WAITING => {
                    if cell
                        .state
                        .cas_with(W_WAITING, W_SETUP, Ordering::Acquire, Ordering::Relaxed)
                    {
                        self.waiter_summary
                            .fetch_and_with(!(1 << bit), Ordering::SeqCst);
                        cell.set_parker(None);
                        cell.state.store_with(W_EMPTY, Ordering::Release);
                        return None;
                    }
                }
                W_CLAIMED => {
                    // A releaser is mid-handoff (CLAIMED → HANDED is a
                    // handful of its instructions, no user code): spin.
                    std::hint::spin_loop();
                }
                w if is_handed(w) => {
                    // The releaser already took the parker.
                    cell.state.store_with(W_EMPTY, Ordering::Release);
                    return Some(w);
                }
                _ => unreachable!("cancel of a waiter cell we do not own"),
            }
        }
    }

    // -- release ----------------------------------------------------------

    /// Guard-drop path: free the slot, recirculate (handoff-aware).
    fn release_slot(&self, idx: usize, word: usize) {
        self.free_owned(idx, word);
        LeaseStats::bump(&self.stats.released);
        self.recirculate(idx, pack(gen_of(word), FREE));
    }

    /// Releases a slot the caller owns but never issued as a guard (a
    /// cancelled handoff).
    fn release_unissued(&self, idx: usize) {
        let word = self.slots[idx].state.load_with(Ordering::Acquire);
        self.free_owned(idx, word);
        self.recirculate(idx, pack(gen_of(word), FREE));
    }

    /// `LEASED(g) → FREE(g)` by the slot's holder. Only the holder writes
    /// a `LEASED` word, so a plain store suffices; Release publishes this
    /// tenancy's handle state to the next claimant's Acquire.
    fn free_owned(&self, idx: usize, word: usize) {
        let state = &self.slots[idx].state;
        debug_assert_eq!(state.load_with(Ordering::Relaxed), word);
        debug_assert_eq!(state_of(word), LEASED);
        state.store_with(pack(gen_of(word), FREE), Ordering::Release);
    }

    /// Puts a freshly FREE slot back in circulation: hand it to an
    /// enrolled waiter if any, else bump the capacity semaphore.
    fn recirculate(&self, idx: usize, freed: usize) {
        if self.waiter_summary.load_with(Ordering::SeqCst) != 0 {
            // Take the slot back before a scanner steals it; losing the
            // take-back CAS means a reserver claimed it — their progress.
            let retaken = pack(gen_of(freed) + 1, LEASED);
            if self.slots[idx]
                .state
                .cas_with(freed, retaken, Ordering::Acquire, Ordering::Relaxed)
            {
                if self.hand_to_waiter(idx) {
                    return;
                }
                // Every summary bit went stale under us: undo the
                // take-back (we own the LEASED word, so a plain store is
                // safe) and fall through to the semaphore.
                self.slots[idx]
                    .state
                    .store_with(pack(gen_of(retaken), FREE), Ordering::Release);
            }
        }
        self.free_count.faa_with(1, Ordering::SeqCst);
        // Post-bump recheck — the other half of the Dekker pair with
        // `reserve` (see its comment). A waiter that enrolled after the
        // summary check above and rescanned before the bump just above
        // saw neither the handoff nor the credit; without this recheck it
        // sleeps out a full `park_timeout` while this slot sits FREE. If
        // the bit is visible now, convert the credit back into a direct
        // handoff. The loop re-runs only when a raced cancellation staled
        // every bit under us — each iteration is charged to that
        // concurrent cancel, so this stays lock-free.
        loop {
            if self.waiter_summary.load_with(Ordering::SeqCst) == 0 {
                return;
            }
            if !self.reserve() {
                // Another thread holds the credit; its scan (or its own
                // release) is the one responsible for the waiter now.
                return;
            }
            let Some((rescue, word)) = self.claim_pass() else {
                self.unreserve();
                return;
            };
            if self.hand_to_waiter(rescue) {
                return;
            }
            // Waiter cancelled under us: free the slot first, then the
            // credit, keeping the semaphore an undercount throughout.
            self.slots[rescue]
                .state
                .store_with(pack(gen_of(word), FREE), Ordering::Release);
            self.free_count.faa_with(1, Ordering::SeqCst);
        }
    }

    /// Hands LEASED slot `idx` (owned by the caller) to one enrolled
    /// waiter: claim its cell, clear its bit, publish the handed word,
    /// wake. One pass over the summary's set bits.
    fn hand_to_waiter(&self, idx: usize) -> bool {
        let mut summary = self.waiter_summary.load_with(Ordering::SeqCst);
        while summary != 0 {
            let bit = summary.trailing_zeros() as usize;
            summary &= summary - 1;
            let cell = &self.waiters[bit];
            if cell
                .state
                .cas_with(W_WAITING, W_CLAIMED, Ordering::Acquire, Ordering::Relaxed)
            {
                self.waiter_summary
                    .fetch_and_with(!(1 << bit), Ordering::SeqCst);
                // Take the parker while CLAIMED makes the cell ours, then
                // publish the slot index and wake.
                let parker = cell.take_parker();
                cell.state.store_with(handed_word(idx), Ordering::Release);
                if let Some(thread) = parker {
                    thread.unpark();
                }
                LeaseStats::bump(&self.stats.handoffs);
                return true;
            }
        }
        false
    }

    // -- recovery ---------------------------------------------------------

    /// Recovers every orphaned slot: claim it (`ORPHANED → RECOVERING`),
    /// abandon its handle to the domain, run [`LeaseRegistry::adopt_all`],
    /// re-register a fresh handle, and recirculate the slot.
    ///
    /// Only a guard dropped while unwinding orphans a slot, so this never
    /// touches a live holder. Safe under concurrent callers: each claim is
    /// a generation-checked CAS, so a slot is recovered exactly once per
    /// orphaning and losers move on.
    pub fn recover_orphaned(&self) -> RecoverReport {
        let mut report = RecoverReport::default();
        for idx in 0..self.slots.len() {
            self.try_recover_slot(idx, &mut report);
        }
        report
    }

    /// One slot of [`LeasePool::recover_orphaned`]: claim `ORPHANED →
    /// RECOVERING`, abandon the corpse's handle, adopt, re-register,
    /// recirculate. The claim CAS makes this safe and idempotent under
    /// arbitrary concurrency — one recoverer per orphaning wins; everyone
    /// else no-ops.
    fn try_recover_slot(&self, idx: usize, report: &mut RecoverReport) {
        let slot = &self.slots[idx];
        let word = slot.state.load_with(Ordering::Acquire);
        if state_of(word) != ORPHANED {
            return;
        }
        if !slot.state.cas_with(
            word,
            pack(gen_of(word), RECOVERING),
            Ordering::Acquire,
            Ordering::Relaxed,
        ) {
            return;
        }
        // SAFETY: the RECOVERING claim makes us the slot's exclusive
        // owner; the previous holder's guard unwound (only that orphans).
        let corpse = unsafe { (*slot.handle.get()).take() };
        if let Some(handle) = corpse {
            self.registry.abandon_handle(handle);
            report.adopt = report.adopt.merged(&self.registry.adopt_all());
        }
        match self.registry.try_register_handle() {
            Ok(fresh) => {
                // SAFETY: still the exclusive owner (RECOVERING).
                unsafe { *slot.handle.get() = Some(fresh) };
                let freed = pack(gen_of(word) + 1, FREE);
                slot.state.store_with(freed, Ordering::Release);
                report.recovered += 1;
                LeaseStats::bump(&self.stats.recovered);
                self.recirculate(idx, freed);
            }
            Err(RegistryFull) => {
                // Out of ids (e.g. an unrelated orphan holds ours):
                // park the slot as ORPHANED-with-empty-cell and retry
                // on a later pass.
                slot.state
                    .store_with(pack(gen_of(word) + 1, ORPHANED), Ordering::Release);
                report.register_failures += 1;
                LeaseStats::bump(&self.stats.recover_failures);
            }
        }
    }
}

impl<'d, R: LeaseRegistry> Drop for LeasePool<'d, R> {
    fn drop(&mut self) {
        // Guards borrow the pool, so no lease is live here. FREE slots
        // tear down cooperatively (handle drop drains and unregisters);
        // anything else is a corpse from an unrecovered death — abandon
        // and adopt so the domain ends leak-clean.
        let mut need_adopt = false;
        for slot in self.slots.iter_mut() {
            let word = slot.state.load_with(Ordering::Acquire);
            match (state_of(word), slot.handle.get_mut().take()) {
                (FREE, Some(handle)) => drop(handle),
                (_, Some(handle)) => {
                    self.registry.abandon_handle(handle);
                    need_adopt = true;
                }
                (_, None) => {}
            }
        }
        if need_adopt {
            let _ = self.registry.adopt_all();
        }
    }
}

impl<'d, R: LeaseRegistry> core::fmt::Debug for LeasePool<'d, R> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("LeasePool")
            .field("slots", &self.slots.len())
            .field("leased", &self.leased())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// The guard
// ---------------------------------------------------------------------------

/// An RAII lease on one pooled handle: derefs to the handle, returns the
/// slot hot (its magazines intact) on drop. Dropped during a panic it marks
/// the slot ORPHANED instead, so [`LeasePool::recover_orphaned`] recovers
/// it like a crashed thread.
///
/// `Send` (the holder may move it to another thread; the thread id goes
/// with it) but not `Sync` — one thread id, one user at a time, the
/// paper's `threadId` contract.
#[must_use = "dropping the guard immediately releases the lease"]
pub struct LeaseGuard<'p, 'd, R: LeaseRegistry> {
    pool: &'p LeasePool<'d, R>,
    idx: usize,
    /// The exact LEASED word we own — a stale release can never CAS a
    /// successor tenancy.
    word: usize,
    _not_sync: PhantomData<core::cell::Cell<()>>,
}

impl<'p, 'd, R: LeaseRegistry> LeaseGuard<'p, 'd, R> {
    /// The lease slot index (0..pool.slots()).
    pub fn slot(&self) -> usize {
        self.idx
    }

    /// The leased handle's registered thread id.
    pub fn tid(&self) -> usize {
        R::handle_tid(self)
    }
}

impl<'p, 'd, R: LeaseRegistry> core::ops::Deref for LeaseGuard<'p, 'd, R> {
    type Target = R::Handle<'d>;

    fn deref(&self) -> &Self::Target {
        // SAFETY: the guard holds the LEASED claim on `idx`, making it the
        // cell's exclusive owner; a leased cell always holds a handle.
        unsafe { (*self.pool.slots[self.idx].handle.get()).as_ref() }
            .expect("leased slot holds a handle")
    }
}

impl<'p, 'd, R: LeaseRegistry> Drop for LeaseGuard<'p, 'd, R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // The holder is dying mid-operation: the handle may hold
            // un-retracted announcements or magazine state only adoption
            // can account for. Strand the slot for `recover_orphaned`.
            // Only the holder writes a LEASED word, so a store suffices;
            // Release hands the corpse's writes to the recoverer's claim.
            let state = &self.pool.slots[self.idx].state;
            debug_assert_eq!(state.load_with(Ordering::Relaxed), self.word);
            state.store_with(pack(gen_of(self.word), ORPHANED), Ordering::Release);
            LeaseStats::bump(&self.pool.stats.panic_orphans);
            return;
        }
        self.pool.release_slot(self.idx, self.word);
    }
}

impl<'p, 'd, R: LeaseRegistry> core::fmt::Debug for LeaseGuard<'p, 'd, R> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("LeaseGuard")
            .field("slot", &self.idx)
            .field("tid", &self.tid())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DomainConfig;
    use crate::WfrcDomain;

    fn domain(threads: usize, cap: usize) -> WfrcDomain<u64> {
        WfrcDomain::<u64>::new(DomainConfig::new(threads, cap).with_magazine(4))
    }

    #[test]
    fn checkout_release_cycle() {
        let d = domain(4, 64);
        let pool = LeasePool::new(&d, LeaseConfig::new(2)).unwrap();
        let a = pool.acquire();
        let b = pool.acquire();
        assert_ne!(a.slot(), b.slot());
        assert!(pool.try_acquire().is_err());
        drop(a);
        let c = pool.try_acquire().unwrap();
        drop(b);
        drop(c);
        let s = pool.stats();
        assert_eq!(s.issued, 3);
        assert_eq!(s.released, 3);
        drop(pool);
        assert!(d.leak_check().is_clean());
    }

    #[test]
    fn pool_new_fails_when_domain_too_small() {
        let d = domain(2, 64);
        assert!(LeasePool::new(&d, LeaseConfig::new(3)).is_err());
        // The partial registration rolled back: both ids are claimable.
        let pool = LeasePool::new(&d, LeaseConfig::new(2)).unwrap();
        drop(pool);
        assert!(d.leak_check().is_clean());
    }

    #[test]
    fn guard_derefs_to_a_working_handle() {
        let d = domain(2, 64);
        let pool = LeasePool::new(&d, LeaseConfig::new(1)).unwrap();
        let lease = pool.acquire();
        let node = lease.alloc_with(|v| *v = 41).unwrap();
        assert_eq!(*node, 41);
        drop(node);
        // The refill kept two nodes (nobody asked for a gift); the freed
        // one is back, parked hot.
        assert_eq!(lease.magazine_len(), 2);
        drop(lease);
        // Hot release: the magazine stays with the slot.
        let again = pool.acquire();
        assert_eq!(again.magazine_len(), 2);
        drop(again);
        drop(pool);
        assert!(d.leak_check().is_clean());
    }

    /// Nothing expires a lease: a leaked guard keeps its slot (as a leaked
    /// `Handle` keeps its registration) until the pool is dropped, whose
    /// teardown abandons and adopts it.
    #[test]
    fn forgotten_guard_is_recovered_by_expiry() {
        let d = domain(2, 64);
        let pool = LeasePool::new(&d, LeaseConfig::new(1)).unwrap();
        let lease = pool.acquire();
        drop(lease.alloc_with(|v| *v = 5).unwrap());
        let word = pool.slots[lease.slot()].state.load_with(Ordering::Relaxed);
        core::mem::forget(lease);
        assert_eq!(pool.recover_orphaned().recovered, 0);
        assert!(pool.try_acquire().is_err());
        assert_eq!(pool.slots[0].state.load_with(Ordering::Relaxed), word);
        assert_eq!(pool.stats().recovered, 0);
        drop(pool);
        assert!(d.leak_check().is_clean());
    }

    #[test]
    fn expiry_leaves_current_tenants_alone() {
        let d = domain(4, 64);
        let pool = LeasePool::new(&d, LeaseConfig::new(2)).unwrap();
        let held = pool.acquire();
        let report = pool.recover_orphaned();
        assert_eq!(report.recovered, 0);
        assert_eq!(report.adopt.orphans_adopted, 0);
        drop(held);
        assert_eq!(pool.stats().released, 1);
    }

    #[test]
    fn handoff_wakes_a_blocked_acquirer() {
        let d = domain(2, 64);
        let pool = LeasePool::new(&d, LeaseConfig::new(1)).unwrap();
        std::thread::scope(|s| {
            let held = pool.acquire();
            let waiter = s.spawn(|| {
                let lease = pool.acquire();
                lease.tid()
            });
            // Wait for the waiter to enroll, then release: the slot must
            // be handed over directly.
            while pool.stats().enrolled == 0 {
                std::thread::yield_now();
            }
            drop(held);
            waiter.join().unwrap();
        });
        assert_eq!(pool.stats().handoffs, 1);
    }

    /// The branch `acquire` takes when its post-enroll rescan wins a slot
    /// after a handoff has already landed in its cell: the cancel must
    /// return the handed slot, and recirculating it must lose nothing.
    #[test]
    fn cancelled_enrollment_returns_a_raced_handoff() {
        let d = domain(2, 64);
        let pool = LeasePool::new(&d, LeaseConfig::new(1)).unwrap();
        let held = pool.acquire();
        let bit = pool.enroll(std::thread::current()).unwrap();
        drop(held); // the handoff lands in our cell
        let word = pool
            .cancel_waiter(bit)
            .expect("the handed slot is returned");
        assert!(is_handed(word));
        pool.release_unissued(handed_slot(word));
        drop(
            pool.try_acquire()
                .expect("the cancelled handoff's slot is back"),
        );
        let s = pool.stats();
        assert_eq!((s.issued, s.released, s.handoffs), (2, 2, 1));
        drop(pool);
        assert!(d.leak_check().is_clean());
    }
}
