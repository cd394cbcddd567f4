//! The shared-memory model: the Figure 4 globals, small enough to
//! enumerate.

/// Threads in the model (the announcement matrices are `T × T`).
pub const MODEL_THREADS: usize = 2;
/// Nodes in the model arena.
pub const MODEL_NODES: usize = 2;

/// A node identifier (index into the model arena).
pub type NodeId = usize;

/// An announcement-slot word: the paper's `union LinkOrPointer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AnnWord {
    /// ⊥ — empty or consumed.
    #[default]
    Empty,
    /// A published link announcement (the model has one link, so the
    /// address is implicit).
    Announced,
    /// A helper's answer.
    Answer(Option<NodeId>),
}

/// Outcome of the weak-aware release claim (PR 10): mirrors
/// `wfrc_core::node::Claim` over the packed strong/weak word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Claim {
    /// Strong count still nonzero — the releaser walks away.
    Busy,
    /// Claimed with no weak references: the node frees wholesale.
    Free,
    /// Claimed DEAD-but-weak: the memory stays until the weak count
    /// drains; the claim deposited a guard weak reference.
    DeadWeak,
}

/// The entire shared state. `Clone + Eq + Hash` so the explorer can
/// memoize visited states.
///
/// The implementation packs strong count, weak count, claim bit, and DEAD
/// bit into one 64-bit word so every transition is a single FAA/CAS; the
/// model splits them into fields (`mm_ref`, `weak`, `dead`) but mutates
/// them together inside single `step()` accesses, which is the same
/// atomicity.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shared {
    /// The single shared link under test.
    pub link: Option<NodeId>,
    /// `mm_ref` per node (raw convention: count = mm_ref / 2, odd = claimed).
    pub mm_ref: [i32; MODEL_NODES],
    /// Weak count per node (the packed word's bits 32..63).
    pub weak: [u32; MODEL_NODES],
    /// DEAD bit per node (bit 63): claimed with weak survivors.
    pub dead: [bool; MODEL_NODES],
    /// Free set: node has been handed to `FreeNode`.
    pub freed: [bool; MODEL_NODES],
    /// `annReadAddr[t][i]`.
    pub ann_read: [[AnnWord; MODEL_THREADS]; MODEL_THREADS],
    /// `annIndex[t]`.
    pub ann_index: [usize; MODEL_THREADS],
    /// `annBusy[t][i]`.
    pub ann_busy: [[u8; MODEL_THREADS]; MODEL_THREADS],
    /// The announcement-presence summary (`announce.rs`): bit `t` up = H1
    /// visits thread `t`'s row. One word in the implementation, so a helper
    /// reads all of it in one access.
    pub summary: [bool; MODEL_THREADS],
    /// Ghost: per-thread witness sets — which link values each thread's
    /// *currently active* dereference has seen the link hold. Bit `n` set =
    /// value `Some(n)` occurred; bit `MODEL_NODES` = `None` occurred.
    pub witness: [u8; MODEL_THREADS],
    /// Ghost: whether each thread currently has an active top-level deref
    /// window (for witness maintenance).
    pub deref_active: [bool; MODEL_THREADS],
}

impl Shared {
    /// Initial state: `link = Some(node0)` holding one reference
    /// (`mm_ref = 2`); every other node starts with one thread-owned
    /// reference (`mm_ref = 2`) so scripts can CAS it in.
    pub fn initial() -> Self {
        let mut s = Self {
            link: Some(0),
            mm_ref: [2; MODEL_NODES],
            weak: [0; MODEL_NODES],
            dead: [false; MODEL_NODES],
            freed: [false; MODEL_NODES],
            ann_read: Default::default(),
            ann_index: [0; MODEL_THREADS],
            ann_busy: [[0; MODEL_THREADS]; MODEL_THREADS],
            summary: [false; MODEL_THREADS],
            witness: [0; MODEL_THREADS],
            deref_active: [false; MODEL_THREADS],
        };
        s.note_link_value();
        s
    }

    /// FAA on a node's `mm_ref`. Panics (= model violation) on underflow.
    pub fn faa(&mut self, n: NodeId, delta: i32) -> i32 {
        let old = self.mm_ref[n];
        self.mm_ref[n] += delta;
        assert!(
            self.mm_ref[n] >= 0,
            "mm_ref underflow on node {n}: {} + {delta}",
            old
        );
        old
    }

    /// The `ReleaseRef` R2 claim: `mm_ref == 0 && CAS(mm_ref, 0, 1)`.
    pub fn try_claim(&mut self, n: NodeId) -> bool {
        if self.mm_ref[n] == 0 {
            self.mm_ref[n] = 1;
            true
        } else {
            false
        }
    }

    /// The weak-aware R2 claim (PR 10): one CAS over the packed word.
    /// With weak survivors the claim deposits a **guard** weak reference
    /// so no concurrent weak drop can finalize the header while the
    /// claimer is still stripping links.
    pub fn try_claim_weak(&mut self, n: NodeId) -> Claim {
        if self.mm_ref[n] != 0 {
            return Claim::Busy;
        }
        if self.weak[n] == 0 {
            self.mm_ref[n] = 1;
            Claim::Free
        } else {
            self.mm_ref[n] = 1;
            self.dead[n] = true;
            self.weak[n] += 1; // the claim CAS's guard weak reference
            Claim::DeadWeak
        }
    }

    /// FAA on a node's weak count. Underflow is a model violation.
    pub fn faa_weak(&mut self, n: NodeId, delta: i32) {
        let next = self.weak[n] as i32 + delta;
        assert!(
            next >= 0,
            "weak underflow on node {n}: {} + {delta}",
            self.weak[n]
        );
        self.weak[n] = next as u32;
    }

    /// The finalize CAS: `word == DEAD|1 && CAS(DEAD|1, 1)` — exactly one
    /// caller wins, landing the header at `FREE_REF`.
    pub fn maybe_finalize(&mut self, n: NodeId) -> bool {
        if self.dead[n] && self.weak[n] == 0 && self.mm_ref[n] == 1 {
            self.dead[n] = false;
            true
        } else {
            false
        }
    }

    /// The upgrade CAS: succeeds iff the claim bit is clear at this access
    /// — the linearization point of `Weak::upgrade`. Success from
    /// `mm_ref == 0` is the legal pre-claim revival window (releases
    /// linearize at the R2 claim, not the R1 FAA).
    pub fn try_upgrade(&mut self, n: NodeId) -> bool {
        assert!(
            self.weak[n] > 0,
            "upgrade without a weak reference on node {n}"
        );
        if self.mm_ref[n] % 2 == 1 {
            false
        } else {
            self.mm_ref[n] += 2;
            assert!(
                !self.freed[n],
                "use-after-free: upgrade minted a strong reference on freed node {n}"
            );
            true
        }
    }

    /// `FreeNode` abstracted: move to the free set. Double-free is a model
    /// violation.
    ///
    /// The count need not be exactly 1: concurrent dereferences may have
    /// landed *spurious* `FAA(+2)`s on the node between the winning R2
    /// claim and this free — the paper's Lemma 3 argues each such count
    /// carries a pending `ReleaseRef` that will drain it. The claim bit
    /// (odd value) must be set, though.
    pub fn free(&mut self, n: NodeId) {
        assert!(!self.freed[n], "double free of node {n}");
        assert!(
            self.mm_ref[n] % 2 == 1,
            "free of unclaimed node {n} (mm_ref = {})",
            self.mm_ref[n]
        );
        assert_eq!(self.weak[n], 0, "free of weak-held node {n}");
        assert!(!self.dead[n], "free of unfinalized DEAD node {n}");
        self.freed[n] = true;
    }

    /// CAS on the link; records the new value into active witnesses.
    pub fn link_cas(&mut self, old: Option<NodeId>, new: Option<NodeId>) -> bool {
        if self.link == old {
            self.link = new;
            self.note_link_value();
            true
        } else {
            false
        }
    }

    /// Ghost: fold the current link value into every active deref witness.
    pub fn note_link_value(&mut self) {
        let bit = match self.link {
            Some(n) => 1u8 << n,
            None => 1u8 << MODEL_NODES,
        };
        for t in 0..MODEL_THREADS {
            if self.deref_active[t] {
                self.witness[t] |= bit;
            }
        }
    }

    /// Ghost: open thread `t`'s top-level deref window.
    pub fn open_witness(&mut self, t: usize) {
        self.deref_active[t] = true;
        self.witness[t] = 0;
        self.note_link_value();
    }

    /// Ghost: close the window and check the returned value was witnessed
    /// (Lemma 2: the dereference returns a value the link held during the
    /// operation).
    pub fn close_witness(&mut self, t: usize, returned: Option<NodeId>) {
        let bit = match returned {
            Some(n) => 1u8 << n,
            None => 1u8 << MODEL_NODES,
        };
        assert!(
            self.witness[t] & bit != 0,
            "thread {t} deref returned {returned:?}, never held by the link during the op \
             (witness mask {:#b})",
            self.witness[t]
        );
        self.deref_active[t] = false;
        self.witness[t] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_counts() {
        let s = Shared::initial();
        assert_eq!(s.link, Some(0));
        assert_eq!(s.mm_ref, [2, 2]);
        assert!(!s.freed.iter().any(|&f| f));
    }

    #[test]
    fn faa_and_claim() {
        let mut s = Shared::initial();
        s.faa(0, -2);
        assert!(s.try_claim(0));
        assert!(!s.try_claim(0));
        s.free(0);
        assert!(s.freed[0]);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn underflow_caught() {
        let mut s = Shared::initial();
        s.faa(0, -2);
        s.faa(0, -2);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_caught() {
        let mut s = Shared::initial();
        s.faa(0, -2);
        assert!(s.try_claim(0));
        s.free(0);
        s.free(0);
    }

    #[test]
    fn weak_claim_deposits_guard_and_finalizes_once() {
        let mut s = Shared::initial();
        s.faa_weak(0, 1); // a standing weak reference
        s.faa(0, -2);
        assert_eq!(s.try_claim_weak(0), Claim::DeadWeak);
        assert_eq!(s.weak[0], 2, "claim must deposit the guard");
        assert!(s.dead[0]);
        assert!(!s.maybe_finalize(0), "guard + weak still hold the header");
        s.faa_weak(0, -1); // guard drop
        assert!(!s.maybe_finalize(0), "the standing weak still holds");
        s.faa_weak(0, -1); // last weak drop
        assert!(s.maybe_finalize(0));
        assert!(!s.maybe_finalize(0), "finalize has exactly one winner");
        s.free(0);
    }

    #[test]
    fn upgrade_succeeds_iff_claim_bit_clear() {
        let mut s = Shared::initial();
        s.faa_weak(0, 1);
        assert!(s.try_upgrade(0), "strong count nonzero");
        s.faa(0, -2); // drop the minted reference
        s.faa(0, -2); // drain the link's count (pre-claim window)
        assert!(s.try_upgrade(0), "pre-claim revival is legal");
        s.faa(0, -2);
        assert_eq!(s.try_claim_weak(0), Claim::DeadWeak);
        assert!(!s.try_upgrade(0), "claim taken — dead stays dead");
    }

    #[test]
    #[should_panic(expected = "free of weak-held node")]
    fn free_under_weak_count_caught() {
        let mut s = Shared::initial();
        s.faa_weak(0, 1);
        s.faa(0, -2);
        let _ = s.try_claim_weak(0);
        s.free(0);
    }

    #[test]
    fn witness_tracks_link_history() {
        let mut s = Shared::initial();
        s.open_witness(0);
        assert!(s.link_cas(Some(0), Some(1)));
        s.close_witness(0, Some(1)); // ok: seen during window
        s.open_witness(0);
        s.close_witness(0, Some(1)); // ok: current value at open
    }

    #[test]
    #[should_panic(expected = "never held")]
    fn unwitnessed_return_caught() {
        let mut s = Shared::initial();
        assert!(s.link_cas(Some(0), Some(1)));
        s.open_witness(0); // window opens with link = Some(1)
        s.close_witness(0, Some(0)); // Some(0) never seen in window
    }
}
