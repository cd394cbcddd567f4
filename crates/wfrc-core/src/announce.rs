//! The announcement matrices of the paper's §3 (Figure 4 globals).
//!
//! Three shared arrays, all indexed by thread id:
//!
//! * `annReadAddr[t][i]` — thread `t`'s announcement slots. A slot holds a
//!   *union* of: ⊥ (empty/consumed), the **address of a link** `t` is about
//!   to dereference, or a **node-pointer answer** installed by a helper.
//! * `annIndex[t]` — which slot `t`'s current announcement lives in.
//! * `annBusy[t][i]` — how many helpers hold a pending answer-CAS against
//!   slot `(t, i)`. A slot may only be reused for a *new* announcement when
//!   its busy count is zero; otherwise a slow helper's CAS could answer a
//!   newer announcement of the *same* link with a stale node (the ABA the
//!   paper identifies — CAS alone cannot tell two announcements of one link
//!   apart).
//!
//! Why `NR_THREADS` slots per thread suffice: a helper raises exactly one
//! busy count at a time (`HelpDeRef` helps one announcement to completion
//! before moving on), so at most `N - 1` of a thread's slots are busy, and
//! while the thread itself is *choosing* a slot it has no live announcement,
//! hence no helper can pass the `annReadAddr == link` check and raise a new
//! busy count — the busy set can only shrink during the scan. A single pass
//! therefore always finds a free slot: line D1 is wait-free.
//!
//! # Word encoding
//!
//! The paper discriminates link addresses from node answers by layout
//! (its Lemma 1). We additionally tag answers in bit 0 (nodes are ≥ 8
//! aligned, links are word-aligned, so the bit is free in both), which makes
//! the discrimination explicit:
//!
//! | word | meaning |
//! |---|---|
//! | `0` | ⊥ — or a helper's answer "the link was null" (distinguishable by context: a live announcement is never 0, so a 0 seen by the announcer's retracting SWAP means *answered null*) |
//! | even, non-zero | a link address (live announcement) |
//! | odd | a node-pointer answer, `node \| 1` |
//!
//! # Announcement-presence summary
//!
//! `HelpDeRef`'s obligation is a scan over all `NR_THREADS` announcement
//! rows, paid by **every** link store/CAS — even when no thread in the
//! domain ever dereferences. The `summary` bitmap (one bit per thread,
//! word-sharded above `usize::BITS` threads) restricts line H1 to the rows
//! of threads that *have announced since they registered*: helpers load
//! each summary word once and visit only the flagged rows, and a domain of
//! writers alone never reads a slot word.
//!
//! The bit lasts a **registration, not a dereference**. It says "this
//! thread's row may be non-empty", nothing more exact:
//!
//! * **Who raises it.** Only the row's owner, in [`Announce::publish`],
//!   with a `SeqCst` `fetch_or` strictly before the D3 slot store — and
//!   only when a `Relaxed` read of its *own* bit finds it down (nobody else
//!   writes that bit while the owner is alive, so the read cannot miss its
//!   own earlier raise). Every dereference after a thread's first therefore
//!   pays no RMW on the shared summary line.
//! * **Who lowers it.** [`Announce::clear_summary`], called from exactly
//!   two places, both with the row provably empty and leaving service: the
//!   owner's handle drop (it is outside every D3–D6 window by
//!   construction) and `adopt_orphans`, after it retracted every slot of a
//!   corpse. Never a helper, never per dereference.
//! * **Why a bit that is up over an empty row is cheap.** A helper that
//!   finds it reads that row's `annIndex` and the one slot word it names —
//!   two loads, no RMW, never more than the paper's H1 — matches nothing
//!   and moves on.
//!
//! Raises and lowers both happen outside the owner's D3–D6 window, so
//! "slot non-empty ⇒ bit up" is an invariant, and the one way to break
//! safety — a helper skipping an announcement it was obliged to answer —
//! needs a helper to see the bit *down*. In the `SeqCst` total order the
//! owner's `fetch_or` precedes its D3 slot store, which precedes its D4
//! link read; if that read returned the *old* node it precedes the
//! writer's link CAS, which precedes the writer's summary load in
//! `help_deref` — so whenever the helper's answer could matter (the
//! announcer read the value the helper is retiring), the load follows the
//! raise. It can then miss the bit only by reading a later lowering, and a
//! load that reads the `Release` clear synchronizes with it: the owner
//! issued it after its last D6 — after the D5 increment that makes that
//! dereference's result safe on its own. Both the `fetch_or` and the
//! helper's load must stay `SeqCst` for the first chain; the clear only
//! needs `Release`. The bits are RMWs, not stores, because threads share a
//! summary word.
//!
//! Code that needs to know whether a thread has an announcement up *right
//! now* — the segment-retire gates — asks [`Announce::announcing`], which
//! reads the slot word, not the bit.

use core::sync::atomic::Ordering;

use wfrc_primitives::AtomicWord;

use crate::bitmap::ThreadBits;

type Cell = wfrc_primitives::CachePadded<AtomicWord>;

fn new_cell() -> Cell {
    wfrc_primitives::CachePadded::new(AtomicWord::new(0))
}

/// The empty/consumed slot value (the paper's ⊥).
pub const EMPTY: usize = 0;

/// Encodes a helper's answer for `annReadAddr`: `node | 1`, or 0 for a null
/// node (see module docs for why 0 is unambiguous).
#[inline]
pub fn encode_answer(node: usize) -> usize {
    debug_assert_eq!(node & 1, 0, "node pointers are at least 8-aligned");
    if node == 0 {
        0
    } else {
        node | 1
    }
}

/// Decodes the word an announcer's retracting SWAP (line D6) returned.
/// `Some(node)` if a helper answered (node may be 0 = null), `None` if the
/// word is still the original `link_addr` (not helped).
#[inline]
pub fn decode_retract(word: usize, link_addr: usize) -> Option<usize> {
    if word == link_addr {
        None
    } else if word == 0 {
        Some(0)
    } else {
        debug_assert_eq!(
            word & 1,
            1,
            "non-link announcement word must be a tagged answer"
        );
        Some(word & !1)
    }
}

/// The three announcement matrices, plus the presence summary.
pub struct Announce {
    n: usize,
    /// `annReadAddr`, row-major `n x n`.
    read_addr: Box<[Cell]>,
    /// `annIndex`, length `n`.
    index: Box<[Cell]>,
    /// `annBusy`, row-major `n x n`.
    busy: Box<[Cell]>,
    /// Announcement-presence bitmap, one bit per thread (see module docs).
    summary: ThreadBits,
}

impl Announce {
    /// Creates matrices for `n` threads.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        Self {
            n,
            read_addr: (0..n * n).map(|_| new_cell()).collect(),
            index: (0..n).map(|_| new_cell()).collect(),
            busy: (0..n * n).map(|_| new_cell()).collect(),
            summary: ThreadBits::new(n),
        }
    }

    /// Number of threads (rows).
    #[inline]
    pub fn threads(&self) -> usize {
        self.n
    }

    #[inline]
    fn at(&self, t: usize, i: usize) -> usize {
        debug_assert!(t < self.n && i < self.n);
        t * self.n + i
    }

    /// Line D1: choose a slot of `tid` with `annBusy == 0`.
    ///
    /// # Panics
    /// Panics if no slot is free after a full pass — impossible when the
    /// protocol is followed (see module docs); a panic here means a protocol
    /// violation (e.g. more helpers than registered threads).
    pub fn choose_free_slot(&self, tid: usize) -> usize {
        for i in 0..self.n {
            if self.busy[self.at(tid, i)].load() == 0 {
                return i;
            }
        }
        unreachable!(
            "announcement protocol violated: all {} slots of thread {} busy",
            self.n, tid
        );
    }

    /// Line D2: record which slot the current announcement uses. The owner
    /// is `annIndex[tid]`'s only writer, so it stores only when the chosen
    /// slot differs from the one already recorded — slot 0 in every call
    /// but those that find it pinned by a slow helper (H4).
    #[inline]
    pub fn set_index(&self, tid: usize, idx: usize) {
        if self.index[tid].load_with(Ordering::Relaxed) != idx {
            self.index[tid].store(idx);
        }
    }

    /// Line H2: read which slot thread `id` last announced in.
    #[inline]
    pub fn current_index(&self, id: usize) -> usize {
        self.index[id].load()
    }

    /// Line D3: publish the link address in the chosen slot.
    ///
    /// Raises `tid`'s presence bit first if it is down — strictly *before*
    /// the slot word becomes visible: a helper that observes the bit down
    /// must be guaranteed the row holds no announcement it owes an answer
    /// (module docs, "Announcement-presence summary"). The bit then stays
    /// up until [`Announce::clear_summary`].
    #[inline]
    pub fn publish(&self, tid: usize, idx: usize, link_addr: usize) {
        debug_assert_ne!(link_addr, 0);
        debug_assert_eq!(link_addr & 1, 0, "link addresses are word-aligned");
        // Relaxed read of our own bit: only we (or, once we are dead, our
        // adopter) ever write it, so coherence alone shows us our own
        // raise. SeqCst RMW when it is down: the raise must precede the D3
        // store *and* take part in the total order the helper's summary
        // load relies on.
        if !self.summary.is_set_by_owner(tid) {
            self.summary.raise(tid);
        }
        self.read_addr[self.at(tid, idx)].store(link_addr);
    }

    /// Lowers `tid`'s presence bit. Call only when `tid`'s row is empty and
    /// leaving service — the owner's handle drop, or adoption after it
    /// retracted every slot of a corpse: lowering the bit under a live
    /// announcement would let a helper skip an answer it owes.
    #[inline]
    pub fn clear_summary(&self, tid: usize) {
        // Release RMW: the row's last retracting SWAP (and the D5 increment
        // before it) cannot be reordered after this clear; nothing needs to
        // be ordered after it.
        self.summary.lower(tid);
    }

    /// True while `tid` has an announcement up: the slot `annIndex[tid]`
    /// names holds a link address or a helper's node answer. Exact where
    /// the presence bit is only an upper bound — it reads the slot word —
    /// so an idle registered reader answers `false`. (A slot answered
    /// "the link was null" also reads `false`: it names no node.) Racing a
    /// *running* owner the two loads can straddle a D2 and miss; the
    /// callers cover running threads by their operation epoch and use this
    /// for what an epoch cannot show — a parked or dead thread's row.
    #[must_use]
    #[inline]
    pub fn announcing(&self, tid: usize) -> bool {
        self.slot_word(tid, self.current_index(tid)) != EMPTY
    }

    /// True when no thread's presence bit is up — the zero-announcer fast
    /// path of `HelpDeRef`: no registered thread has dereferenced since it
    /// registered. One `SeqCst` load per summary word.
    #[must_use]
    #[inline]
    pub fn summary_empty(&self) -> bool {
        self.summary.is_empty()
    }

    /// True if `tid`'s presence bit is currently set (diagnostics/tests).
    #[must_use]
    #[inline]
    pub fn summary_bit(&self, tid: usize) -> bool {
        self.summary.is_set(tid)
    }

    /// Calls `f(id)` for every thread whose presence bit is set, ascending,
    /// loading each summary word once (`SeqCst`). Returns `true` if any bit
    /// was seen — i.e. whether the caller did a (partial) slot scan at all.
    #[inline]
    pub fn for_each_announcer(&self, f: impl FnMut(usize)) -> bool {
        self.summary.for_each(f)
    }

    /// Line D6: atomically retract the announcement, returning whatever the
    /// slot held (the original link address, or a helper's answer).
    #[inline]
    pub fn retract(&self, tid: usize, idx: usize) -> usize {
        self.read_addr[self.at(tid, idx)].swap(EMPTY)
    }

    /// Line H3: does slot `(id, idx)` currently announce `link_addr`?
    #[inline]
    pub fn slot_announces(&self, id: usize, idx: usize, link_addr: usize) -> bool {
        self.read_addr[self.at(id, idx)].load() == link_addr
    }

    /// Line H4: pin the slot against reuse while an answer CAS is pending.
    #[inline]
    pub fn busy_inc(&self, id: usize, idx: usize) {
        self.busy[self.at(id, idx)].faa(1);
    }

    /// Line H8: release the pin.
    #[inline]
    pub fn busy_dec(&self, id: usize, idx: usize) {
        let prev = self.busy[self.at(id, idx)].faa(-1);
        debug_assert!(prev >= 1, "annBusy underflow");
    }

    /// Line H6: try to answer the announcement. Succeeds only if the slot
    /// still holds `link_addr`.
    #[inline]
    pub fn try_answer(&self, id: usize, idx: usize, link_addr: usize, node: usize) -> bool {
        self.read_addr[self.at(id, idx)].cas(link_addr, encode_answer(node))
    }

    /// Diagnostic: current busy count of a slot.
    pub fn busy_count(&self, id: usize, idx: usize) -> usize {
        self.busy[self.at(id, idx)].load()
    }

    /// Diagnostic: raw word of a slot.
    pub fn slot_word(&self, id: usize, idx: usize) -> usize {
        self.read_addr[self.at(id, idx)].load()
    }
}

impl core::fmt::Debug for Announce {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Announce")
            .field("threads", &self.n)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_answer_roundtrip() {
        let node = 0x1000usize;
        let link = 0x2000usize;
        assert_eq!(decode_retract(encode_answer(node), link), Some(node));
        assert_eq!(decode_retract(encode_answer(0), link), Some(0));
        assert_eq!(decode_retract(link, link), None);
    }

    #[test]
    fn announce_retract_unhelped() {
        let a = Announce::new(2);
        let idx = a.choose_free_slot(0);
        a.set_index(0, idx);
        a.publish(0, idx, 0x4008);
        assert!(a.slot_announces(0, idx, 0x4008));
        assert_eq!(a.retract(0, idx), 0x4008);
        assert_eq!(a.slot_word(0, idx), EMPTY);
    }

    #[test]
    fn answer_wins_then_retract_sees_it() {
        let a = Announce::new(2);
        let idx = a.choose_free_slot(1);
        a.set_index(1, idx);
        a.publish(1, idx, 0x4008);
        // Helper path.
        assert_eq!(a.current_index(1), idx);
        assert!(a.slot_announces(1, idx, 0x4008));
        a.busy_inc(1, idx);
        assert!(a.try_answer(1, idx, 0x4008, 0x8000));
        a.busy_dec(1, idx);
        // Announcer retracts and decodes the help.
        let word = a.retract(1, idx);
        assert_eq!(decode_retract(word, 0x4008), Some(0x8000));
    }

    #[test]
    fn stale_answer_cas_fails_after_retract() {
        let a = Announce::new(2);
        let idx = 0;
        a.set_index(0, idx);
        a.publish(0, idx, 0x4008);
        assert_eq!(a.retract(0, idx), 0x4008);
        // Helper that matched before the retract now fails its CAS.
        assert!(!a.try_answer(0, idx, 0x4008, 0x8000));
    }

    #[test]
    fn busy_slot_skipped_by_chooser() {
        let a = Announce::new(3);
        a.busy_inc(0, 0);
        a.busy_inc(0, 1);
        assert_eq!(a.choose_free_slot(0), 2);
        a.busy_dec(0, 0);
        assert_eq!(a.choose_free_slot(0), 0);
    }

    #[test]
    fn null_answer_decodes_as_null_node() {
        let a = Announce::new(1);
        a.set_index(0, 0);
        a.publish(0, 0, 0x4008);
        assert!(a.try_answer(0, 0, 0x4008, 0));
        let word = a.retract(0, 0);
        assert_eq!(decode_retract(word, 0x4008), Some(0));
    }

    #[test]
    fn publish_sets_summary_before_clear_withdraws_it() {
        let a = Announce::new(3);
        assert!(a.summary_empty());
        assert!(!a.announcing(1));
        a.set_index(1, 0);
        a.publish(1, 0, 0x4008);
        assert!(a.summary_bit(1) && a.announcing(1));
        assert!(!a.summary_bit(0) && !a.summary_bit(2));
        assert_eq!(a.retract(1, 0), 0x4008);
        // The retract empties the slot; the bit stays for the registration.
        assert!(a.summary_bit(1) && !a.announcing(1));
        // A later announcement in another slot finds the bit up and is
        // found through annIndex.
        a.set_index(1, 2);
        a.publish(1, 2, 0x4010);
        assert!(a.summary_bit(1) && a.announcing(1));
        assert_eq!(a.retract(1, 2), 0x4010);
        a.clear_summary(1);
        assert!(a.summary_empty());
    }

    #[test]
    fn for_each_announcer_visits_only_set_bits() {
        let a = Announce::new(5);
        assert!(!a.for_each_announcer(|_| panic!("no bits set")));
        a.publish(0, 0, 0x4008);
        a.publish(3, 0, 0x4010);
        let mut seen = Vec::new();
        assert!(a.for_each_announcer(|id| seen.push(id)));
        assert_eq!(seen, vec![0, 3]);
        a.clear_summary(0);
        seen.clear();
        assert!(a.for_each_announcer(|id| seen.push(id)));
        assert_eq!(seen, vec![3]);
        a.clear_summary(3);
        assert!(a.summary_empty());
    }

    #[test]
    fn clear_summary_is_per_thread_within_a_shared_word() {
        // All tids share summary word 0: clears must be RMWs, not stores.
        let a = Announce::new(8);
        for t in 0..8 {
            a.publish(t, 0, 0x4008);
        }
        for t in (0..8).rev() {
            assert!(a.summary_bit(t));
            a.clear_summary(t);
            assert!(!a.summary_bit(t));
            for still in 0..t {
                assert!(a.summary_bit(still), "clear({t}) must not touch {still}");
            }
        }
        assert!(a.summary_empty());
    }

    #[test]
    #[should_panic(expected = "protocol violated")]
    fn exhausted_slots_panic() {
        let a = Announce::new(2);
        a.busy_inc(0, 0);
        a.busy_inc(0, 1);
        let _ = a.choose_free_slot(0);
    }
}
