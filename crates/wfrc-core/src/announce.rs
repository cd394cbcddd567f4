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
//! rows, paid by **every** link store/CAS — even when no announcement is
//! live anywhere, which is the overwhelmingly common case. The `summary`
//! bitmap (one bit per thread, word-sharded above `usize::BITS` threads)
//! makes that case O(words): helpers load each summary word once and visit
//! only the threads whose bit is set.
//!
//! The summary is *conservative* and its safety is asymmetric:
//!
//! * a **stale set** bit is harmless — the fallback per-slot scan simply
//!   finds no slot matching the helped link (the pre-summary behaviour);
//! * a **premature clear** is unsafe — a helper would skip an announcement
//!   it was obliged to answer, re-opening the read/reclaim race.
//!
//! Hence the protocol: the bit is set (`SeqCst` RMW) strictly **before**
//! line D3 publishes the slot word, and cleared (`Release` RMW) only
//! **after** line D6's retracting SWAP. Why no helper can miss a relevant
//! announcement, in the `SeqCst` total order: the announcer's
//! `fetch_or` precedes its D3 slot store, which precedes its D4 link read;
//! if that read returned the *old* node then it precedes the writer's link
//! CAS, which precedes the writer's summary load in `help_deref` — so
//! whenever the helper's answer could matter (the announcer read the value
//! the helper is retiring), the helper's load observes the bit. Both the
//! `fetch_or` and the helper's load must stay `SeqCst` for that chain; the
//! clear only needs `Release` (it must not hoist above the prior SWAP, and
//! sinking later merely leaves the harmless stale-set window open longer).
//! The bits are RMWs, not stores, because threads share a summary word.
//!
//! One bit per thread is exact, not approximate: a thread has at most one
//! live announcement at a time (`DeRefLink`'s announce window D3–D6 never
//! nests — the helper recursion of H5 announces under the *helper's* own
//! thread id). A thread that dies inside the window leaves its bit set;
//! `adopt_orphans` clears it after retracting the corpse's slots.

use core::sync::atomic::Ordering;

use wfrc_primitives::AtomicWord;

/// Bits per summary word (the shard width).
const SUMMARY_BITS: usize = usize::BITS as usize;

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
    /// `ceil(n / usize::BITS)` words, each on its own padded line so the
    /// helper-side load doesn't false-share with the slot matrices.
    summary: Box<[Cell]>,
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
            summary: (0..n.div_ceil(SUMMARY_BITS)).map(|_| new_cell()).collect(),
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

    /// Line D2: record which slot the current announcement uses.
    #[inline]
    pub fn set_index(&self, tid: usize, idx: usize) {
        self.index[tid].store(idx);
    }

    /// Line H2: read which slot thread `id` last announced in.
    #[inline]
    pub fn current_index(&self, id: usize) -> usize {
        self.index[id].load()
    }

    /// Line D3: publish the link address in the chosen slot.
    ///
    /// Sets `tid`'s presence bit strictly *before* the slot word becomes
    /// visible: a helper that observes a cleared bit must be guaranteed no
    /// live announcement exists (module docs, "Announcement-presence
    /// summary"). The bit is only withdrawn by [`Announce::clear_summary`]
    /// after the retracting SWAP of line D6.
    #[inline]
    pub fn publish(&self, tid: usize, idx: usize, link_addr: usize) {
        debug_assert_ne!(link_addr, 0);
        debug_assert_eq!(link_addr & 1, 0, "link addresses are word-aligned");
        // SeqCst RMW: the set must precede the D3 store *and* participate
        // in the total order the helper's summary load relies on.
        self.summary[tid / SUMMARY_BITS].fetch_or(1 << (tid % SUMMARY_BITS));
        self.read_addr[self.at(tid, idx)].store(link_addr);
    }

    /// Withdraws `tid`'s presence bit. Call only *after* the thread's live
    /// announcement has been retracted (line D6) — clearing early would let
    /// a helper skip an announcement it is obliged to answer. A missed or
    /// late clear (e.g. a thread dying between D6 and here) is harmless:
    /// helpers fall back to the per-slot scan and match nothing.
    #[inline]
    pub fn clear_summary(&self, tid: usize) {
        // Release RMW: the prior retracting SWAP cannot be reordered after
        // this clear; nothing needs to be ordered after it (a later clear
        // only widens the harmless stale-set window).
        self.summary[tid / SUMMARY_BITS]
            .fetch_and_with(!(1 << (tid % SUMMARY_BITS)), Ordering::Release);
    }

    /// True when no thread currently has a presence bit set — the
    /// zero-announcement fast path of `HelpDeRef`. One `SeqCst` load per
    /// summary word.
    ///
    /// Segment reclamation (`reclaim.rs`) consults this before *and after*
    /// claiming a retire: a set bit may encode an `annDeRef` word naming a
    /// node in the candidate segment, so a non-empty summary vetoes the
    /// unmap rather than forcing a per-slot decode.
    #[must_use]
    #[inline]
    pub fn summary_empty(&self) -> bool {
        self.summary.iter().all(|w| w.load() == 0)
    }

    /// True if `tid`'s presence bit is currently set (diagnostics/tests).
    #[must_use]
    #[inline]
    pub fn summary_bit(&self, tid: usize) -> bool {
        self.summary[tid / SUMMARY_BITS].load() & (1 << (tid % SUMMARY_BITS)) != 0
    }

    /// Calls `f(id)` for every thread whose presence bit is set, ascending,
    /// loading each summary word once (`SeqCst`). Returns `true` if any bit
    /// was seen — i.e. whether the caller did a (partial) slot scan at all.
    #[inline]
    pub fn for_each_announcer(&self, mut f: impl FnMut(usize)) -> bool {
        let mut any = false;
        for (w, word) in self.summary.iter().enumerate() {
            let mut bits = word.load();
            any |= bits != 0;
            while bits != 0 {
                let id = w * SUMMARY_BITS + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                f(id);
            }
        }
        any
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
        a.set_index(1, 0);
        a.publish(1, 0, 0x4008);
        assert!(!a.summary_empty());
        assert!(a.summary_bit(1));
        assert!(!a.summary_bit(0) && !a.summary_bit(2));
        assert_eq!(a.retract(1, 0), 0x4008);
        // Retract alone leaves the bit (stale-set is harmless)…
        assert!(a.summary_bit(1));
        a.clear_summary(1);
        // …and the clear withdraws it.
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
