//! One bit per registered thread, word-sharded: the shape of both summary
//! words a helper reads before it looks for work — the announcement
//! presence summary (`announce.rs`) and the allocators' `alloc_need` word
//! (`freelist.rs`).
//!
//! Threads share a word, so every write is an RMW on the thread's own bit
//! (`fetch_or` / `fetch_and`): a plain store would clear a neighbour's bit.
//! Each word sits on its own padded line, away from the slot arrays the
//! bits summarize.

use core::sync::atomic::Ordering;

use wfrc_primitives::AtomicWord;

use crate::MAX_THREADS;

/// Bits per word (the shard width).
const BITS: usize = usize::BITS as usize;

/// Words needed for [`MAX_THREADS`] bits.
const MAX_WORDS: usize = MAX_THREADS.div_ceil(BITS);

type Cell = wfrc_primitives::CachePadded<AtomicWord>;

/// A `ceil(n / usize::BITS)`-word bitmap with one bit per thread id.
pub(crate) struct ThreadBits {
    words: Box<[Cell]>,
}

impl ThreadBits {
    /// All bits down, for thread ids `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n > 0 && n <= MAX_THREADS);
        Self {
            words: (0..n.div_ceil(BITS))
                .map(|_| wfrc_primitives::CachePadded::new(AtomicWord::new(0)))
                .collect(),
        }
    }

    #[inline]
    fn cell(&self, tid: usize) -> (&AtomicWord, usize) {
        (&self.words[tid / BITS], 1 << (tid % BITS))
    }

    /// Raises `tid`'s bit with a `SeqCst` RMW: the raise takes part in the
    /// total order the readers' `SeqCst` loads rely on.
    #[inline]
    pub(crate) fn raise(&self, tid: usize) {
        let (word, bit) = self.cell(tid);
        word.fetch_or(bit);
    }

    /// Lowers `tid`'s bit (a `Release` RMW: whatever the owner did before
    /// lowering cannot sink below it).
    #[inline]
    pub(crate) fn lower(&self, tid: usize) {
        let (word, bit) = self.cell(tid);
        word.fetch_and_with(!bit, Ordering::Release);
    }

    /// `tid`'s bit as a `Relaxed` load. Exact only for a reader that is the
    /// bit's sole writer: coherence shows it its own last raise or lower.
    #[inline]
    pub(crate) fn is_set_by_owner(&self, tid: usize) -> bool {
        let (word, bit) = self.cell(tid);
        word.load_with(Ordering::Relaxed) & bit != 0
    }

    /// `tid`'s bit (`SeqCst` load).
    #[inline]
    pub(crate) fn is_set(&self, tid: usize) -> bool {
        let (word, bit) = self.cell(tid);
        word.load() & bit != 0
    }

    /// True when no bit is up: one `SeqCst` load per word.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|w| w.load() == 0)
    }

    /// Bits currently up (diagnostic; exact only at quiescence).
    pub(crate) fn count(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load().count_ones() as usize)
            .sum()
    }

    /// Calls `f(id)` for every raised bit, ascending, loading each word
    /// once (`SeqCst`). Returns whether any bit was up.
    #[inline]
    pub(crate) fn for_each(&self, mut f: impl FnMut(usize)) -> bool {
        let mut any = false;
        for (w, word) in self.words.iter().enumerate() {
            let mut bits = word.load();
            any |= bits != 0;
            while bits != 0 {
                f(w * BITS + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        any
    }

    /// The first raised bit at or after `start()`, wrapping around, loading
    /// each word once (`SeqCst`). `start` is called only when some bit is
    /// up, so a caller whose bitmap is empty pays the loads and nothing
    /// else; it must return an id below the `n` of [`ThreadBits::new`].
    #[inline]
    pub(crate) fn first_from(&self, start: impl FnOnce() -> usize) -> Option<usize> {
        let mut snap = [0usize; MAX_WORDS];
        let mut any = 0;
        for (s, w) in snap.iter_mut().zip(self.words.iter()) {
            *s = w.load();
            any |= *s;
        }
        if any == 0 {
            return None;
        }
        let start = start();
        let (len, sw) = (self.words.len(), start / BITS);
        let at_or_after = snap[sw] & (!0usize << (start % BITS));
        if at_or_after != 0 {
            return Some(sw * BITS + at_or_after.trailing_zeros() as usize);
        }
        // The following words, then the start word again: its bits below
        // `start` are the only ones left in it.
        (1..=len).find_map(|k| {
            let w = (sw + k) % len;
            (snap[w] != 0).then(|| w * BITS + snap[w].trailing_zeros() as usize)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_is_per_thread_within_a_shared_word() {
        let b = ThreadBits::new(8);
        for t in 0..8 {
            b.raise(t);
        }
        for t in (0..8).rev() {
            assert!(b.is_set(t) && b.is_set_by_owner(t));
            b.lower(t);
            assert!(!b.is_set(t));
            assert!(
                (0..t).all(|still| b.is_set(still)),
                "lower({t}) hit a neighbour"
            );
        }
        assert!(b.is_empty());
    }

    #[test]
    fn first_from_wraps_within_and_across_words() {
        let b = ThreadBits::new(MAX_THREADS);
        assert_eq!(b.first_from(|| panic!("empty: start not read")), None);
        b.raise(3);
        b.raise(70);
        assert_eq!(b.first_from(|| 0), Some(3));
        assert_eq!(b.first_from(|| 3), Some(3));
        assert_eq!(b.first_from(|| 4), Some(70));
        assert_eq!(b.first_from(|| 71), Some(3));
        b.lower(3);
        assert_eq!(b.first_from(|| 71), Some(70));
        assert_eq!(b.count(), 1);
        let mut seen = Vec::new();
        assert!(b.for_each(|id| seen.push(id)));
        assert_eq!(seen, vec![70]);
    }

    #[test]
    fn first_from_on_one_word_wraps_to_low_bits() {
        let b = ThreadBits::new(4);
        b.raise(1);
        assert_eq!(b.first_from(|| 2), Some(1));
        b.raise(2);
        assert_eq!(b.first_from(|| 2), Some(2));
    }
}
