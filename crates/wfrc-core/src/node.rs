//! The `Node` structure of the paper's Figure 3.
//!
//! Every memory block managed by the scheme carries two header words:
//!
//! * `mm_ref` — the reference-count word. Following Valois' convention
//!   (which the paper adopts), the *real* reference count is `mm_ref / 2`;
//!   the low bit is a claim flag used to agree on which `ReleaseRef`
//!   invocation reclaims the node. A node in the free-list has `mm_ref == 1`
//!   (count 0, claimed); a node with one holder has `mm_ref == 2`.
//! * `mm_next` — the free-list chain pointer, owned exclusively by the
//!   freeing thread while the node is being pushed (Figure 5, line F8).
//!
//! `mm_ref` is the **first** field (`#[repr(C)]`): the paper's Lemma 1
//! (a link address can never equal a node address) depends on it, and while
//! this implementation additionally tags announcement answers (see
//! [`crate::announce`]), keeping the layout preserves the paper's invariant
//! verbatim.
//!
//! # Weak-count packing (PR 10)
//!
//! The single `mm_ref` word additionally carries a weak-reference count so
//! the strong-path `FAA` stays one word wide:
//!
//! ```text
//!  bit 63      bits 62..32          bits 31..1        bit 0
//! ┌───────┬───────────────────┬───────────────────┬──────────┐
//! │ DEAD  │   weak count      │   strong count    │  claim   │
//! └───────┴───────────────────┴───────────────────┴──────────┘
//! ```
//!
//! The low 32 bits are the legacy word unchanged (claim flag + strong
//! count × 2), so every pre-existing `±2`/`±1` FAA and every exact compare
//! against [`Node::FREE_REF`] / gift values is byte-identical on weak-free
//! nodes. `DEAD` marks a node whose strong count hit zero and whose claim
//! was won while weak references remained: its payload links are stripped
//! but the header is *not* freed until the weak count drains to zero
//! ([`Node::maybe_finalize`]).

use core::cell::UnsafeCell;
use core::sync::atomic::Ordering;
use wfrc_primitives::{AtomicWord, WordPtr};

use crate::link::{AtomicWeak, Link};

// The weak count and DEAD flag pack into bits 32..=63 of `mm_ref`; a
// 32-bit word has no room for them.
const _: () = assert!(usize::BITS == 64, "wfrc requires a 64-bit word");

/// Payload types storable in a [`crate::WfrcDomain`].
///
/// The single obligation is [`RcObject::each_link`]: when a node's reference
/// count reaches zero, `ReleaseRef` must "recursively call `ReleaseRef` for
/// all held references by \[the\] node" (paper line R3). The domain cannot see
/// inside your payload, so you enumerate its [`Link`] fields here. Payloads
/// with no internal links implement it as a no-op (see
/// [`leaf_rc_object!`](crate::leaf_rc_object)).
///
/// `Send + Sync` are required because payloads are shared across every
/// registered thread; `'static` because the arena outlives any borrow the
/// payload could otherwise smuggle in.
pub trait RcObject: Send + Sync + 'static {
    /// Calls `f` on every [`Link`] field contained in this payload.
    ///
    /// Must visit *all* links through which this object holds reference
    /// counts, and no other. Missing a link leaks its target; visiting a
    /// non-link double-frees.
    fn each_link(&self, f: &mut dyn FnMut(&Link<Self>))
    where
        Self: Sized;

    /// Calls `f` on every [`AtomicWeak`] field contained in this payload.
    ///
    /// Each non-null `AtomicWeak` holds one *weak* count on its target;
    /// when this node is reclaimed those weak counts must be dropped, so
    /// you enumerate the weak links here exactly like [`each_link`]
    /// enumerates the strong ones. Defaults to a no-op for payloads with
    /// no weak links.
    ///
    /// [`each_link`]: RcObject::each_link
    fn each_weak_link(&self, f: &mut dyn FnMut(&AtomicWeak<Self>))
    where
        Self: Sized,
    {
        let _ = f;
    }
}

/// Implements [`RcObject`] for payload types that contain no internal links.
#[macro_export]
macro_rules! leaf_rc_object {
    ($($ty:ty),+ $(,)?) => {
        $(impl $crate::RcObject for $ty {
            #[inline]
            fn each_link(&self, _f: &mut dyn FnMut(&$crate::Link<Self>)) {}
        })+
    };
}

leaf_rc_object!(
    u8,
    u16,
    u32,
    u64,
    usize,
    i8,
    i16,
    i32,
    i64,
    isize,
    bool,
    (),
    String
);

/// Outcome of [`Node::try_claim_weak`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// Strong count nonzero or claim already taken — not ours to reclaim.
    Busy,
    /// Claim won with no weak references: strip links and free the node.
    Free,
    /// Claim won but weak references remain: strip links, mark DEAD, and
    /// leave the header for [`Node::maybe_finalize`] to free later.
    DeadWeak,
}

/// A managed memory block: the paper's Figure 3 `Node`.
///
/// Nodes live in a [`crate::arena::Arena`] for the lifetime of their domain
/// (the paper's "`mm_ref` will be present at each memory block indefinitely"
/// assumption), so it is always sound to `FAA` the `mm_ref` of a node that
/// has already been reclaimed — the announcement protocol will repair the
/// count afterwards.
#[repr(C)]
pub struct Node<T> {
    /// Reference-count word; the real count is `mm_ref / 2`, low bit claims
    /// the node for reclamation. Initially 1 (paper Figure 3).
    mm_ref: AtomicWord,
    /// Free-list chain pointer (paper Figure 3 / Figure 5 line F8).
    mm_next: WordPtr<Node<T>>,
    payload: UnsafeCell<T>,
}

// SAFETY: all concurrent access to `payload` is mediated by the reference
// counting protocol — shared `&T` is only handed out while the caller holds a
// count, and `&mut T` only during allocation, when the allocating thread owns
// the node exclusively. `T: Send + Sync` is required for payloads (enforced
// at the `RcObject` bound on every public entry point).
unsafe impl<T: Send + Sync> Sync for Node<T> {}
unsafe impl<T: Send> Send for Node<T> {}

impl<T> Node<T> {
    /// `mm_ref` value of a node sitting in the free-list: count 0, claimed.
    pub const FREE_REF: usize = 1;
    /// `mm_ref` value of a node with exactly one live reference.
    pub const ONE_REF: usize = 2;
    /// Mask of the legacy low word: claim bit + strong count × 2.
    pub const STRONG_MASK: usize = 0xFFFF_FFFF;
    /// One weak reference, in raw `mm_ref` units (bits 32..=62).
    pub const WEAK_UNIT: usize = 1 << 32;
    /// Mask of the weak-count field.
    pub const WEAK_MASK: usize = ((1 << 31) - 1) << 32;
    /// DEAD flag (bit 63): strong count reached zero and the claim was won
    /// while weak references remained. The payload's links are stripped but
    /// the header stays weak-reachable until the weak count drains.
    pub const DEAD: usize = 1 << 63;

    pub(crate) fn new(payload: T) -> Self {
        Self {
            mm_ref: AtomicWord::new(Self::FREE_REF),
            mm_next: WordPtr::null(),
            payload: UnsafeCell::new(payload),
        }
    }

    /// Atomically adds `delta` (in raw `mm_ref` units, i.e. ±2 per
    /// reference) and returns the previous raw value.
    ///
    /// This is the paper's `FAA(&node.mm_ref, fix)` (`SeqCst`).
    #[inline]
    pub fn faa_ref(&self, delta: isize) -> usize {
        self.mm_ref.faa(delta)
    }

    /// Reads the raw `mm_ref` word.
    #[inline]
    pub fn load_ref(&self) -> usize {
        self.mm_ref.load()
    }

    /// The real strong reference count (`(mm_ref & STRONG_MASK) / 2`).
    #[inline]
    pub fn ref_count(&self) -> usize {
        (self.load_ref() & Self::STRONG_MASK) >> 1
    }

    /// The weak reference count (bits 32..=62 of `mm_ref`).
    #[inline]
    pub fn weak_count(&self) -> usize {
        (self.load_ref() & Self::WEAK_MASK) >> 32
    }

    /// True if the DEAD flag is set: reclaimed while weak-reachable.
    #[inline]
    pub fn is_dead(&self) -> bool {
        self.load_ref() & Self::DEAD != 0
    }

    /// True if the claim bit is set (node reclaimed or in the free-list).
    #[inline]
    pub fn is_claimed(&self) -> bool {
        self.load_ref() & 1 == 1
    }

    /// Atomically adds `delta` weak references and returns the previous raw
    /// `mm_ref` word. One weak reference is [`Node::WEAK_UNIT`] raw units.
    #[inline]
    pub fn faa_weak(&self, delta: isize) -> usize {
        self.faa_ref(delta * Self::WEAK_UNIT as isize)
    }

    /// The zero-detection step of `ReleaseRef` (paper line R2):
    /// `mm_ref == 0 && CAS(&mm_ref, 0, 1)`. Exactly one invocation can win.
    ///
    /// Public so alternative schemes (the Valois-style lock-free baseline)
    /// can reuse the node representation; user code has no business calling
    /// it.
    #[inline]
    pub fn try_claim(&self) -> bool {
        self.load_ref() == 0 && self.mm_ref.cas(0, 1)
    }

    /// Weak-aware zero-detection (paper line R2 extended for PR 10).
    ///
    /// * strong count nonzero (or already claimed) → [`Claim::Busy`];
    /// * whole word zero → legacy claim, [`Claim::Free`] — the caller owns
    ///   the node and must strip its links and free it;
    /// * strong part zero but weak count nonzero → sets claim + DEAD in one
    ///   CAS, [`Claim::DeadWeak`] — the caller strips the links but must
    ///   **not** free; the last weak release finalizes the header via
    ///   [`Node::maybe_finalize`]. The CAS also deposits one *guard* weak
    ///   reference owned by the claimer, so no concurrent weak drop can
    ///   finalize (and recycle) the header while the claimer is still
    ///   stripping its links; the claimer drops the guard with
    ///   `faa_weak(-1)` + `maybe_finalize` when done.
    ///
    /// The CAS loop only retries when the word changed between load and CAS;
    /// each retry is caused by one concurrent weak-count mutation (strong
    /// traffic flips the next load to `Busy`), so the retry count is bounded
    /// by the number of in-flight weak operations.
    pub fn try_claim_weak(&self) -> Claim {
        let mut w = self.load_ref();
        loop {
            if w & Self::STRONG_MASK != 0 {
                return Claim::Busy;
            }
            debug_assert_eq!(w & Self::DEAD, 0);
            if w == 0 {
                if self.mm_ref.cas(0, 1) {
                    return Claim::Free;
                }
            } else if self.mm_ref.cas(w, (w + Self::WEAK_UNIT) | 1 | Self::DEAD) {
                return Claim::DeadWeak;
            }
            w = self.load_ref();
        }
    }

    /// The weak-upgrade CAS loop (PR 10): installs one strong reference
    /// (`+2`) iff the claim bit is clear, returning `true` on success.
    ///
    /// Linearization: success linearizes at the winning CAS, failure at the
    /// load that observed the claim bit. A release linearizes at its claim
    /// resolution (the R2 CAS deciding reclamation), not its R1 decrement —
    /// so an upgrade that lands between a releaser's R1 and R2 orders
    /// *before* the release, observes `strong > 0`, and legitimately
    /// revives the node (the releaser's claim then fails on the nonzero
    /// strong part). Once the claim bit is set it stays set for as long as
    /// the caller's weak reference pins the header (free and reallocation
    /// require the weak count to drain first), so a `false` answer is
    /// stable.
    ///
    /// The loop retries only when the word changed between load and CAS;
    /// retries are bounded by the number of concurrent count mutations, the
    /// same interference bound the paper's footnote arguments use.
    pub fn try_upgrade(&self) -> bool {
        let mut w = self.load_ref();
        loop {
            if w & 1 == 1 {
                return false;
            }
            if self.mm_ref.cas(w, w + 2) {
                return true;
            }
            w = self.load_ref();
        }
    }

    /// Finalizes a DEAD-but-weak header whose weak count has drained:
    /// a single `CAS(DEAD|1 → 1)` that exactly one caller can win. On
    /// success the node is back at [`Node::FREE_REF`] and the winner must
    /// route it into the free path (`defer_or_free` on the wait-free scheme).
    ///
    /// Any in-flight speculative strong bump (`FAA +2` from a stale deref)
    /// makes the word differ from `DEAD|1`, so the finalize is deferred to
    /// whichever release observes `DEAD|1` after its own decrement.
    #[inline]
    pub fn maybe_finalize(&self) -> bool {
        let sentinel = Self::DEAD | 1;
        self.load_ref() == sentinel && self.mm_ref.cas(sentinel, 1)
    }

    /// The free-list chain pointer.
    ///
    /// Public for alternative scheme implementations; only the thread that
    /// exclusively owns the node (during a free-list push) may write it.
    #[inline]
    pub fn mm_next(&self) -> &WordPtr<Node<T>> {
        &self.mm_next
    }

    /// Chains this node to `next` while the caller owns it exclusively (a
    /// claimed node being linked for a free-list, magazine, deferred or
    /// parking-chain push). `Relaxed`: no other thread may read the chain
    /// until the `Release` CAS that publishes its head, and that CAS is what
    /// orders this store for whoever acquires the head (message passing —
    /// `freelist.rs`, "Memory orderings").
    #[inline]
    pub fn link_private(&self, next: *mut Node<T>) {
        self.mm_next.store_with(next, Ordering::Relaxed);
    }

    /// Shared payload access.
    ///
    /// # Safety
    /// The caller must hold a reference count on this node (or otherwise own
    /// it exclusively, e.g. during arena teardown).
    #[inline]
    pub unsafe fn payload(&self) -> &T {
        // SAFETY: per contract the node is not concurrently reclaimed and
        // re-initialized, so the payload is a valid, stable `T`.
        unsafe { &*self.payload.get() }
    }

    /// Exclusive payload access for (re-)initialization at allocation time.
    ///
    /// # Safety
    /// The caller must own the node exclusively: it was just removed from
    /// the free-list and has not been published yet.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn payload_mut(&self) -> &mut T {
        // SAFETY: per contract no other thread can reach the payload.
        unsafe { &mut *self.payload.get() }
    }

    /// Raw payload address. No reference to the payload is formed, so the
    /// caller needs no count — useful for address arithmetic (byte-class
    /// data pointers) on nodes whose contents may be concurrently touched.
    #[inline]
    pub fn payload_ptr(&self) -> *mut T {
        self.payload.get()
    }

    /// Test/diagnostic hook: raw `mm_ref` accessor for invariant audits.
    pub fn raw_ref_word(&self) -> &AtomicWord {
        &self.mm_ref
    }
}

impl<T: RcObject> Node<T> {
    /// Freed-node probe: true when every strong and weak link of the
    /// payload is ⊥. A node on its way to or from a free structure holds no
    /// counts — R3 stripped its links — so a non-null link there is a store
    /// into a node its writer no longer referenced, and the count it carries
    /// leaks the target. Both schemes `debug_assert!` it where a node is
    /// freed and where an allocation hands one out.
    ///
    /// # Safety
    /// The caller owns the node exclusively (claimed, or just allocated).
    pub unsafe fn links_are_null(&self) -> bool {
        // SAFETY: per contract nobody else reaches the payload.
        let payload = unsafe { self.payload() };
        let mut clean = true;
        payload.each_link(&mut |l| clean &= l.load_raw().is_null());
        payload.each_weak_link(&mut |w| clean &= w.inner().load_raw().is_null());
        clean
    }
}

impl<T: core::fmt::Debug> core::fmt::Debug for Node<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Node")
            .field("mm_ref", &self.load_ref())
            .field("mm_next", &self.mm_next.load())
            .finish_non_exhaustive()
    }
}

/// Walks a privately held `mm_next` chain, returning `(last, count)`.
///
/// # Safety
/// `first` must head a null-terminated chain exclusively owned by the
/// caller.
pub unsafe fn chain_tail<T>(first: *mut Node<T>) -> (*mut Node<T>, usize) {
    let mut tail = first;
    let mut count = 1usize;
    loop {
        // SAFETY: private chain per contract.
        let next = unsafe { (*tail).mm_next().load() };
        if next.is_null() {
            return (tail, count);
        }
        tail = next;
        count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm_ref_is_first_field() {
        // Lemma 1 depends on the refcount being at offset 0.
        let n = Node::new(42u64);
        let node_addr = &n as *const _ as usize;
        let ref_addr = &n.mm_ref as *const _ as usize;
        assert_eq!(node_addr, ref_addr);
    }

    #[test]
    fn node_alignment_allows_tagging() {
        assert!(core::mem::align_of::<Node<u8>>() >= 8);
    }

    #[test]
    fn fresh_node_is_free_and_claimed() {
        let n = Node::new(0u32);
        assert_eq!(n.load_ref(), Node::<u32>::FREE_REF);
        assert_eq!(n.ref_count(), 0);
        assert!(n.is_claimed());
    }

    #[test]
    fn faa_ref_tracks_count_parity() {
        let n = Node::new(0u32);
        n.faa_ref(2); // free-list removal bump: 1 -> 3
        assert_eq!(n.ref_count(), 1);
        assert!(n.is_claimed());
        n.faa_ref(-1); // FixRef(node, -1): claimed -> live
        assert_eq!(n.load_ref(), Node::<u32>::ONE_REF);
        assert!(!n.is_claimed());
    }

    #[test]
    fn try_claim_exactly_once() {
        let n = Node::new(0u32);
        n.faa_ref(-1); // 1 -> 0
        assert_eq!(n.load_ref(), 0);
        assert!(n.try_claim());
        assert!(!n.try_claim());
        assert_eq!(n.load_ref(), 1);
    }

    #[test]
    fn try_claim_fails_on_nonzero() {
        let n = Node::new(0u32);
        assert!(!n.try_claim()); // mm_ref == 1
        n.faa_ref(1); // 2
        assert!(!n.try_claim());
    }

    #[test]
    fn leaf_rc_object_visits_nothing() {
        let v = 5u64;
        let mut visits = 0;
        v.each_link(&mut |_| visits += 1);
        assert_eq!(visits, 0);
        let mut weak_visits = 0;
        v.each_weak_link(&mut |_| weak_visits += 1);
        assert_eq!(weak_visits, 0);
    }

    #[test]
    fn weak_units_do_not_touch_strong_word() {
        let n = Node::new(0u32);
        n.faa_ref(1); // free-list 1 -> live 2 (one strong ref)
        n.faa_weak(1);
        assert_eq!(n.ref_count(), 1);
        assert_eq!(n.weak_count(), 1);
        assert!(!n.is_claimed());
        assert!(!n.is_dead());
        assert_eq!(
            n.load_ref() & Node::<u32>::STRONG_MASK,
            Node::<u32>::ONE_REF
        );
        n.faa_weak(-1);
        assert_eq!(n.weak_count(), 0);
        assert_eq!(n.load_ref(), Node::<u32>::ONE_REF);
    }

    #[test]
    fn try_claim_weak_free_path_matches_legacy() {
        let n = Node::new(0u32);
        n.faa_ref(-1); // 1 -> 0
        assert_eq!(n.try_claim_weak(), Claim::Free);
        assert_eq!(n.load_ref(), Node::<u32>::FREE_REF);
        assert_eq!(n.try_claim_weak(), Claim::Busy);
    }

    #[test]
    fn try_claim_weak_dead_path_and_finalize() {
        let n = Node::new(0u32);
        n.faa_ref(-1); // strong part -> 0
        n.faa_weak(2);
        assert_eq!(n.try_claim_weak(), Claim::DeadWeak);
        assert!(n.is_dead());
        assert!(n.is_claimed());
        assert_eq!(n.weak_count(), 3); // 2 holders + the claimer's guard
        n.faa_weak(-1); // claimer drops its guard after stripping links
        assert!(!n.maybe_finalize());
        // Weak count still nonzero: finalize must refuse.
        n.faa_weak(-1);
        assert!(!n.maybe_finalize());
        // Last weak drops: exactly one finalize wins and lands on FREE_REF.
        n.faa_weak(-1);
        assert!(n.maybe_finalize());
        assert!(!n.maybe_finalize());
        assert_eq!(n.load_ref(), Node::<u32>::FREE_REF);
    }

    #[test]
    fn speculative_bump_blocks_finalize() {
        let n = Node::new(0u32);
        n.faa_ref(-1);
        n.faa_weak(1);
        assert_eq!(n.try_claim_weak(), Claim::DeadWeak);
        n.faa_weak(-1); // claimer's guard
                        // A stale deref lands a speculative +2 on the DEAD header.
        n.faa_ref(2);
        n.faa_weak(-1);
        assert!(!n.maybe_finalize()); // word is DEAD|1|2, not DEAD|1
        n.faa_ref(-2); // the speculative release undoes its bump…
        assert!(n.maybe_finalize()); // …and finalizes on its way out
        assert_eq!(n.load_ref(), Node::<u32>::FREE_REF);
    }
}
