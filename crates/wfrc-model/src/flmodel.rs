//! Model of the wait-free free-list (Figure 5): `AllocNode` / `FreeNode`
//! with the own-stripe fast path and help on request, explored
//! exhaustively.
//!
//! Complements [`crate::machine`] (which models the Figure 4 announcement
//! protocol): here the checked properties are the paper's Lemmas 4, 5, 9
//! and 10 on a two-thread, small-arena configuration:
//!
//! * **Conservation** — at quiescence every node is in exactly one place:
//!   on some free-list, parked in an `annAlloc` slot, or owned by a
//!   script (ghost-tracked), with exactly the `mm_ref` its location
//!   dictates (1 / 3 / 2).
//! * **No loss, no duplication** — two concurrent allocations never
//!   return the same node; a node freed concurrently with allocations is
//!   never lost.
//! * **Bounded steps** — every operation completes within a fixed step
//!   budget in *every* explored schedule (the mechanized form of the
//!   wait-freedom lemmas at this configuration size; a livelocking
//!   protocol would exceed the budget on some schedule, or recurse
//!   forever and overflow the DFS).
//! * **Lemma 9 at model size** — a ghost counter per thread counts the
//!   times it was *overtaken while flagged*: a node another thread removed
//!   after this thread raised its `alloc_need` bit was handed to its
//!   remover while this thread still waited with an empty `annAlloc`
//!   slot. It must stay ≤ [`OVERTAKE_BOUND`] (`FL_THREADS − 1`) in every
//!   schedule: every removal that overtakes a flagged thread reads the need
//!   word and gifts.
//!
//! The allocator is the one `wfrc-core/src/freelist.rs` implements: one
//! attempt on the thread's own stripe (the F4–F6 pick), a probe of its own
//! `annAlloc` slot and one plain attempt on `currentFreeList`, and only
//! then the need bit (`fetch_or`) and the A3–A18 loop, lowering the bit
//! (`fetch_and`) on exit. Every successful removal and every free reads
//! the need word and, when a bit is up, gifts to the first flagged thread
//! at or after `helpCurrent`. Two [`Mutant`]s break one step each and the
//! explorer must reject both.
//!
//! The corrected F3 (`FixRef(+2)` before the gifting CAS — see
//! `wfrc-core/src/freelist.rs`) is modeled as implemented; the test
//! `uncorrected_f3_is_caught` models the *paper's literal* F3 and shows
//! the conservation check failing — evidence the correction is necessary,
//! not stylistic.

/// Threads in the free-list model.
pub const FL_THREADS: usize = 2;
/// Nodes in the free-list model arena. Three, not two: one may be parked
/// as a gift for a thread that never allocates again, one may be held by a
/// script, and the third keeps every allocation completable (the protocol's
/// wait-freedom is conditional on nodes being *available* — a gift parked
/// for thread X is unavailable to thread Y, exactly as in the paper).
pub const FL_NODES: usize = 3;
/// Free lists (`2 · NR_THREADS`).
pub const FL_LISTS: usize = 2 * FL_THREADS;
/// Per-operation step budget: generous versus the Lemma 9 bound for this
/// configuration; exceeding it in any schedule is a wait-freedom
/// violation.
pub const STEP_BUDGET: u32 = 120;

/// Lemma 9 at model size: the most times a flagged thread may be
/// overtaken (module docs) — once by each other thread. Within the
/// `FL_THREADS` the lemma's round-robin argument allows, and tight: the
/// real protocol reaches 1 and the own-stripe mutant reaches 2.
pub const OVERTAKE_BOUND: usize = FL_THREADS - 1;

/// Shared state of the Figure 5 globals.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FlShared {
    /// `mm_ref` per node.
    pub mm_ref: [i32; FL_NODES],
    /// `mm_next` per node (arena index or None).
    pub next: [Option<usize>; FL_NODES],
    /// `freeList[..]` heads.
    pub heads: [Option<usize>; FL_LISTS],
    /// `currentFreeList`.
    pub current: usize,
    /// `helpCurrent`.
    pub help_current: usize,
    /// `annAlloc[t]`.
    pub ann_alloc: [Option<usize>; FL_THREADS],
    /// The `alloc_need` word: bit `t` is up while thread `t` runs the
    /// A3–A18 loop.
    pub need: u8,
    /// Ghost: thread `t` is between its raise and its lower.
    pub flagged: [bool; FL_THREADS],
    /// Ghost: times thread `t` was overtaken while flagged (module docs).
    pub overtaken: [u8; FL_THREADS],
}

impl FlShared {
    /// All nodes chained on list 0, `mm_ref = 1` (the paper's initial
    /// condition).
    pub fn initial() -> Self {
        let mut next = [None; FL_NODES];
        for (i, n) in next.iter_mut().enumerate().take(FL_NODES - 1) {
            *n = Some(i + 1);
        }
        Self {
            mm_ref: [1; FL_NODES],
            next,
            heads: {
                let mut h = [None; FL_LISTS];
                h[0] = Some(0);
                h
            },
            current: 0,
            help_current: 0,
            ann_alloc: [None; FL_THREADS],
            need: 0,
            flagged: [false; FL_THREADS],
            overtaken: [0; FL_THREADS],
        }
    }

    fn faa(&mut self, n: usize, d: i32) {
        self.mm_ref[n] += d;
        assert!(self.mm_ref[n] >= 0, "mm_ref underflow on node {n}");
    }

    /// Threads other than `tid` that are flagged with an empty gift slot.
    fn waiting_unserved(&self, tid: usize) -> u8 {
        (0..FL_THREADS)
            .filter(|&t| t != tid && self.flagged[t] && self.ann_alloc[t].is_none())
            .fold(0, |m, t| m | 1 << t)
    }

    /// The first flagged thread at or after `hint`, if any bit is up.
    fn first_flagged(&self, hint: usize) -> Option<usize> {
        (0..FL_THREADS)
            .map(|k| (hint + k) % FL_THREADS)
            .find(|&t| self.need & (1 << t) != 0)
    }
}

/// One deliberately broken step; the explorer must reject each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutant {
    /// The own-stripe attempt returns its node without reading the need
    /// word.
    OwnStripeSkipsNeedCheck,
    /// Lowering the need bit is a plain `store(0)`, which clears every
    /// other thread's bit in the shared word too.
    LowerWithStore,
}

/// Which of the allocator's three attempts an `AllocNode` is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    /// The F4–F6 stripe: where this thread's own frees land.
    Own,
    /// The gift probe and one attempt on `currentFreeList`.
    Plain,
    /// The A3–A18 loop, with the need bit up.
    Helped,
}

/// Program counter states of the alloc/free machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    /// `AllocNode`; result recorded in `owned`.
    Alloc {
        pc: u8,
        phase: Phase,
        helped: bool,
        /// The `helpCurrent` value a gift attempt read.
        hint: usize,
        /// The thread a gift attempt targets.
        target: usize,
        cur: usize,
        node: usize,
        nxt: Option<usize>,
        /// Ghost: threads waiting unserved when our A10 succeeded.
        overtook: u8,
    },
    /// `FreeNode` of an owned node (the script first releases its count:
    /// the model folds `ReleaseRef`'s R1/R2 into pc 0/1).
    Free {
        pc: u8,
        node: usize,
        hint: usize,
        target: usize,
        index: usize,
        /// Model the paper's uncorrected F3 (for the counterexample test).
        corrected: bool,
        /// When the free is the R4 of a failed-A10 release (alloc line
        /// A18), the alloc loop resumes in this phase afterwards.
        resume: Option<(Phase, bool)>,
    },
    Done,
}

/// A thread running a script of alloc/free calls.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FlMachine {
    tid: usize,
    /// true = alloc, false = free the most recently allocated node.
    script: Vec<bool>,
    ip: usize,
    op: Op,
    /// Ghost: nodes currently owned by this thread (allocated, unreleased).
    pub owned: Vec<usize>,
    steps_this_op: u32,
    /// Use the corrected F3 (default true).
    corrected_f3: bool,
    mutant: Option<Mutant>,
}

impl FlMachine {
    /// Creates a machine; script entries: `true` = `AllocNode`, `false` =
    /// release + `FreeNode` of the most recent allocation.
    pub fn new(tid: usize, script: Vec<bool>) -> Self {
        Self {
            tid,
            script,
            ip: 0,
            op: Op::Done,
            owned: Vec::new(),
            steps_this_op: 0,
            corrected_f3: true,
            mutant: None,
        }
    }

    /// Switches to the paper's literal (uncorrected) F3.
    pub fn with_uncorrected_f3(mut self) -> Self {
        self.corrected_f3 = false;
        self
    }

    /// Runs this machine with one step broken.
    pub fn with_mutant(mut self, m: Mutant) -> Self {
        self.mutant = Some(m);
        self
    }

    /// True when the script has completed.
    pub fn done(&self) -> bool {
        matches!(self.op, Op::Done) && self.ip == self.script.len()
    }

    /// One step (≤ one shared access).
    pub fn step(&mut self, s: &mut FlShared) {
        debug_assert!(!self.done());
        if matches!(self.op, Op::Done) {
            let is_alloc = self.script[self.ip];
            self.ip += 1;
            self.steps_this_op = 0;
            self.op = if is_alloc {
                Self::alloc_at(0, Phase::Own, false)
            } else {
                let node = self.owned.pop().expect("script frees an owned node");
                Op::Free {
                    pc: 0,
                    node,
                    hint: 0,
                    target: 0,
                    index: 0,
                    corrected: self.corrected_f3,
                    resume: None,
                }
            };
            return;
        }
        self.steps_this_op += 1;
        assert!(
            self.steps_this_op <= STEP_BUDGET,
            "thread {} exceeded the wait-freedom step budget in {:?}",
            self.tid,
            self.op
        );
        self.op = self.advance(s);
    }

    fn alloc_at(pc: u8, phase: Phase, helped: bool) -> Op {
        Op::Alloc {
            pc,
            phase,
            helped,
            hint: 0,
            target: 0,
            cur: 0,
            node: 0,
            nxt: None,
            overtook: 0,
        }
    }

    /// Where an allocation goes after an attempt of `phase` missed: the
    /// next attempt, or (in the loop) the next iteration's A4.
    fn after_miss(phase: Phase, helped: bool) -> Op {
        match phase {
            Phase::Own => Self::alloc_at(PC_PROBE, Phase::Plain, helped),
            Phase::Plain => Self::alloc_at(PC_RAISE, Phase::Helped, helped),
            Phase::Helped => Self::alloc_at(PC_TAKE, Phase::Helped, helped),
        }
    }

    /// Completes a FreeNode: return to the interrupted alloc (A18 path)
    /// or finish the script op.
    fn finish_free(resume: Option<(Phase, bool)>) -> Op {
        match resume {
            Some((phase, helped)) => Self::after_miss(phase, helped),
            None => Op::Done,
        }
    }

    /// The allocation is complete with `node` in hand.
    fn alloc_done(&mut self, node: usize, phase: Phase) -> Op {
        self.owned.push(node);
        if phase == Phase::Helped {
            Self::alloc_at(PC_LOWER, phase, true)
        } else {
            Op::Done
        }
    }

    fn advance(&mut self, s: &mut FlShared) -> Op {
        let tid = self.tid;
        match self.op {
            Op::Alloc {
                pc,
                phase,
                helped,
                hint,
                target,
                cur,
                node,
                nxt,
                overtook,
            } => {
                let at = |pc: u8, cur: usize, node: usize, nxt: Option<usize>| Op::Alloc {
                    pc,
                    phase,
                    helped,
                    hint,
                    target,
                    cur,
                    node,
                    nxt,
                    overtook,
                };
                match pc {
                    PC_OWN => {
                        // F4–F6 pick from currentFreeList: our own stripe.
                        let c = s.current;
                        let own = if c <= tid || c > FL_THREADS + tid {
                            FL_THREADS + tid
                        } else {
                            tid
                        };
                        at(PC_HEAD, own, node, nxt)
                    }
                    PC_PROBE => {
                        // Relaxed probe of our own annAlloc slot.
                        if s.ann_alloc[tid].is_some() {
                            at(PC_TAKE, cur, node, nxt)
                        } else {
                            at(PC_CURRENT, cur, node, nxt)
                        }
                    }
                    PC_TAKE => {
                        // A4: SWAP annAlloc[tid].
                        if let Some(gift) = s.ann_alloc[tid].take() {
                            // FixRef(gift, -1): 3 -> 2, recorded as owned.
                            s.faa(gift, -1);
                            return self.alloc_done(gift, phase);
                        }
                        at(PC_CURRENT, cur, node, nxt)
                    }
                    PC_CURRENT => {
                        // A5: read currentFreeList.
                        at(PC_HEAD, s.current, node, nxt)
                    }
                    PC_HEAD => {
                        // A6/A7: read head; advance stripe if empty (the
                        // own-stripe attempt just misses).
                        match s.heads[cur] {
                            None => {
                                if phase != Phase::Own && s.current == cur {
                                    s.current = (cur + 1) % FL_LISTS; // A7 CAS
                                }
                                Self::after_miss(phase, helped)
                            }
                            Some(n) => at(PC_PIN, cur, n, nxt),
                        }
                    }
                    PC_PIN => {
                        // A9: pin.
                        s.faa(node, 2);
                        at(PC_NEXT, cur, node, nxt)
                    }
                    PC_NEXT => {
                        // read node.mm_next (safe: pinned).
                        at(PC_CAS, cur, node, s.next[node])
                    }
                    PC_CAS => {
                        // A10: CAS head.
                        if s.heads[cur] == Some(node) {
                            s.heads[cur] = nxt;
                            Op::Alloc {
                                pc: PC_NEED,
                                phase,
                                helped,
                                hint,
                                target,
                                cur,
                                node,
                                nxt,
                                overtook: s.waiting_unserved(tid),
                            }
                        } else {
                            // A18: ReleaseRef(node) — R1 here, R2 next step.
                            s.faa(node, -2);
                            at(PC_CLAIM, cur, node, nxt)
                        }
                    }
                    PC_NEED => {
                        // Read the need word once (unless this call has
                        // already helped).
                        let skip = helped
                            || (phase == Phase::Own
                                && self.mutant == Some(Mutant::OwnStripeSkipsNeedCheck));
                        if skip || s.need == 0 {
                            at(PC_HAND_OUT, cur, node, nxt)
                        } else {
                            at(PC_TARGET, cur, node, nxt)
                        }
                    }
                    PC_TARGET => {
                        // Read helpCurrent; the target is the first flagged
                        // thread at or after it (the bits as read now — a
                        // bit lowered since the need read means no gift).
                        let hint = s.help_current;
                        match s.first_flagged(hint) {
                            Some(t) => Op::Alloc {
                                pc: PC_GIFT,
                                phase,
                                helped,
                                hint,
                                target: t,
                                cur,
                                node,
                                nxt,
                                overtook,
                            },
                            None => at(PC_HAND_OUT, cur, node, nxt),
                        }
                    }
                    PC_GIFT => {
                        // A12: CAS annAlloc[target] ⊥ -> node, then
                        // A14/A16: advance helpCurrent past the target
                        // (next step).
                        if s.ann_alloc[target].is_none() {
                            s.ann_alloc[target] = Some(node);
                            Op::Alloc {
                                pc: PC_ADVANCE_GAVE,
                                phase,
                                helped: true, // A13
                                hint,
                                target,
                                cur,
                                node,
                                nxt,
                                overtook,
                            }
                        } else {
                            at(PC_ADVANCE_KEPT, cur, node, nxt)
                        }
                    }
                    PC_ADVANCE_GAVE | PC_ADVANCE_KEPT => {
                        if s.help_current == hint {
                            s.help_current = (target + 1) % FL_THREADS;
                        }
                        if pc == PC_ADVANCE_GAVE {
                            // A15: the node went out; next attempt.
                            Self::after_miss(phase, helped)
                        } else {
                            at(PC_HAND_OUT, cur, node, nxt)
                        }
                    }
                    PC_HAND_OUT => {
                        // A17: FixRef(node, -1). Ghost: every thread that
                        // was waiting unserved when we removed the node and
                        // still is has been overtaken.
                        s.faa(node, -1);
                        for t in 0..FL_THREADS {
                            if overtook & (1 << t) != 0 && s.flagged[t] && s.ann_alloc[t].is_none()
                            {
                                s.overtaken[t] += 1;
                                assert!(
                                    s.overtaken[t] as usize <= OVERTAKE_BOUND,
                                    "thread {t} overtaken {} times while flagged \
                                     (Lemma 9 bound {OVERTAKE_BOUND}): {s:?}",
                                    s.overtaken[t]
                                );
                            }
                        }
                        self.alloc_done(node, phase)
                    }
                    PC_CLAIM => {
                        // A18 continued: R2 claim check. If the count hit
                        // zero (the winner's user already released), *we*
                        // reclaim: run FreeNode (entering past R1/R2) and
                        // then resume the allocation — Lemma 3's hand-off.
                        if s.mm_ref[node] == 0 {
                            s.mm_ref[node] = 1;
                            Op::Free {
                                pc: 2,
                                node,
                                hint: 0,
                                target: 0,
                                index: 0,
                                corrected: self.corrected_f3,
                                resume: Some((phase, helped)),
                            }
                        } else {
                            Self::after_miss(phase, helped)
                        }
                    }
                    PC_RAISE => {
                        // fetch_or: ask for help.
                        s.need |= 1 << tid;
                        s.flagged[tid] = true;
                        s.overtaken[tid] = 0;
                        at(PC_TAKE, cur, node, nxt)
                    }
                    PC_LOWER => {
                        // fetch_and on every exit — or the mutant's store.
                        if self.mutant == Some(Mutant::LowerWithStore) {
                            s.need = 0;
                        } else {
                            s.need &= !(1 << tid);
                        }
                        s.flagged[tid] = false;
                        Op::Done
                    }
                    _ => unreachable!(),
                }
            }
            Op::Free {
                pc,
                node,
                hint,
                target,
                index,
                corrected,
                resume,
            } => {
                let at = |pc: u8, hint: usize, target: usize, index: usize| Op::Free {
                    pc,
                    node,
                    hint,
                    target,
                    index,
                    corrected,
                    resume,
                };
                match pc {
                    0 => {
                        // ReleaseRef R1 on our own count.
                        s.faa(node, -2);
                        at(1, hint, target, index)
                    }
                    1 => {
                        // R2: claim. A concurrent allocator's stale A9 pin
                        // can make the count non-zero here; then *its* A18
                        // release reclaims instead (Lemma 3's hand-off) and
                        // this free is complete.
                        if s.mm_ref[node] != 0 {
                            return Self::finish_free(resume);
                        }
                        s.mm_ref[node] = 1;
                        at(2, hint, target, index)
                    }
                    2 => {
                        // F1: read the need word; nobody asked -> F4.
                        if s.need == 0 {
                            at(6, hint, target, index)
                        } else {
                            at(3, hint, target, index)
                        }
                    }
                    3 => {
                        // Read helpCurrent; pick the first flagged thread.
                        let hint = s.help_current;
                        match s.first_flagged(hint) {
                            Some(t) => at(4, hint, t, index),
                            None => at(6, hint, target, index),
                        }
                    }
                    4 => {
                        // F3 (corrected: FixRef +2 first).
                        if corrected {
                            s.faa(node, 2);
                        }
                        at(5, hint, target, index)
                    }
                    5 => {
                        // F3 CAS annAlloc[target] ⊥ -> node.
                        if s.ann_alloc[target].is_none() {
                            s.ann_alloc[target] = Some(node);
                            return at(7, hint, target, index);
                        }
                        if corrected {
                            s.faa(node, -2);
                        }
                        at(8, hint, target, index)
                    }
                    7 | 8 => {
                        // F2: advance helpCurrent past the target; a free
                        // that gifted is done.
                        if s.help_current == hint {
                            s.help_current = (target + 1) % FL_THREADS;
                        }
                        if pc == 7 {
                            Self::finish_free(resume)
                        } else {
                            at(6, hint, target, index)
                        }
                    }
                    6 => {
                        // F4–F6: pick the stripe away from the allocators.
                        let cur = s.current;
                        let index = if cur <= self.tid || cur > FL_THREADS + self.tid {
                            FL_THREADS + self.tid
                        } else {
                            self.tid
                        };
                        at(9, hint, target, index)
                    }
                    9 => {
                        // F8: node.mm_next := head (own node, but head read
                        // is shared).
                        s.next[node] = s.heads[index];
                        at(10, hint, target, index)
                    }
                    10 => {
                        // F9: CAS head.
                        if s.heads[index] == s.next[node] {
                            s.heads[index] = Some(node);
                            Self::finish_free(resume)
                        } else {
                            // F10: the other stripe.
                            at(9, hint, target, (index + FL_THREADS) % FL_LISTS)
                        }
                    }
                    _ => unreachable!(),
                }
            }
            Op::Done => unreachable!(),
        }
    }
}

const PC_OWN: u8 = 0;
const PC_PROBE: u8 = 1;
const PC_TAKE: u8 = 2;
const PC_CURRENT: u8 = 3;
const PC_HEAD: u8 = 4;
const PC_PIN: u8 = 5;
const PC_NEXT: u8 = 6;
const PC_CAS: u8 = 7;
const PC_NEED: u8 = 8;
const PC_TARGET: u8 = 9;
const PC_GIFT: u8 = 10;
const PC_ADVANCE_GAVE: u8 = 11;
const PC_ADVANCE_KEPT: u8 = 12;
const PC_HAND_OUT: u8 = 13;
const PC_CLAIM: u8 = 14;
const PC_RAISE: u8 = 15;
const PC_LOWER: u8 = 16;

/// Conservation invariant at quiescence: every node in exactly one place
/// with the right count.
pub fn check_conservation(s: &FlShared, machines: &[FlMachine]) {
    let mut seen = [0u32; FL_NODES];
    // Free lists.
    for (li, mut head) in s.heads.iter().copied().enumerate() {
        let mut hops = 0;
        while let Some(n) = head {
            seen[n] += 1;
            assert_eq!(
                s.mm_ref[n], 1,
                "node {n} on free list {li} must have mm_ref 1: {s:?}"
            );
            head = s.next[n];
            hops += 1;
            assert!(hops <= FL_NODES, "free-list cycle: {s:?}");
        }
    }
    // Parked gifts.
    for t in 0..FL_THREADS {
        if let Some(n) = s.ann_alloc[t] {
            seen[n] += 1;
            assert_eq!(
                s.mm_ref[n], 3,
                "gift {n} in annAlloc[{t}] must have mm_ref 3: {s:?}"
            );
        }
    }
    // Script-owned.
    for m in machines {
        for &n in &m.owned {
            seen[n] += 1;
            assert_eq!(s.mm_ref[n], 2, "owned node {n} must have mm_ref 2: {s:?}");
        }
    }
    for (n, &count) in seen.iter().enumerate() {
        assert_eq!(
            count, 1,
            "node {n} is in {count} places at quiescence: {s:?} {machines:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, Violation};

    #[test]
    fn solo_alloc_free_roundtrip() {
        let mut s = FlShared::initial();
        let mut m = FlMachine::new(0, vec![true, false]);
        let mut steps = 0;
        while !m.done() {
            m.step(&mut s);
            steps += 1;
            assert!(steps < 1000);
        }
        check_conservation(&s, &[m]);
    }

    #[test]
    fn concurrent_allocs_get_distinct_nodes() {
        let r = explore(
            FlShared::initial(),
            vec![FlMachine::new(0, vec![true]), FlMachine::new(1, vec![true])],
            |s, ms| {
                check_conservation(s, ms);
                // Both allocations must have succeeded with distinct nodes.
                assert_eq!(ms[0].owned.len(), 1);
                assert_eq!(ms[1].owned.len(), 1);
                assert_ne!(ms[0].owned[0], ms[1].owned[0], "duplicate allocation");
            },
        );
        assert!(r.violation.is_none(), "{:?}", r.violation);
        println!("2x alloc: {} states, {} finals", r.states, r.final_states);
        assert!(r.states > 50);
    }

    #[test]
    fn alloc_free_churn_conserves() {
        let r = explore(
            FlShared::initial(),
            vec![
                FlMachine::new(0, vec![true, false]),
                FlMachine::new(1, vec![true, false]),
            ],
            check_conservation,
        );
        assert!(r.violation.is_none(), "{:?}", r.violation);
        println!(
            "churn: {} states, {} finals (all conserve)",
            r.states, r.final_states
        );
    }

    #[test]
    fn gifting_races_conserve() {
        // T0 allocates twice (will drain the gift the freeing thread may
        // park); T1 allocates and frees.
        let r = explore(
            FlShared::initial(),
            vec![
                FlMachine::new(0, vec![true, false, true, false]),
                FlMachine::new(1, vec![true, false]),
            ],
            check_conservation,
        );
        assert!(r.violation.is_none(), "{:?}", r.violation);
        println!("gift races: {} states", r.states);
    }

    /// Own-stripe hits, plain pops, gifts on request and the loop, raced
    /// exhaustively: conservation, the step budget and the overtake bound
    /// hold, and the need word is zero when both scripts are done.
    #[test]
    fn help_on_request_conserves_and_bounds_overtakes() {
        for (a, b) in [
            (vec![true], vec![true, false, true, false, true]),
            (vec![true, false, true], vec![true, false, true, false]),
        ] {
            let r = explore(
                FlShared::initial(),
                vec![FlMachine::new(0, a), FlMachine::new(1, b)],
                |s, ms| {
                    check_conservation(s, ms);
                    assert_eq!(s.need, 0, "a need bit outlived its allocation");
                },
            );
            assert!(r.violation.is_none(), "{:?}", r.violation);
            println!("help on request: {} states", r.states);
        }
    }

    fn explore_mutant(m: Mutant, a: Vec<bool>, b: Vec<bool>) -> Violation {
        let r = explore(
            FlShared::initial(),
            vec![
                FlMachine::new(0, a).with_mutant(m),
                FlMachine::new(1, b).with_mutant(m),
            ],
            check_conservation,
        );
        r.violation
            .unwrap_or_else(|| panic!("{m:?} must be rejected ({} states)", r.states))
    }

    #[test]
    fn own_stripe_pop_without_need_check_is_caught() {
        // T1 pops its own stripe twice while T0 waits flagged: without the
        // need read neither pop serves T0.
        let v = explore_mutant(
            Mutant::OwnStripeSkipsNeedCheck,
            vec![true],
            vec![true, false, true, false, true],
        );
        assert!(v.0.contains("overtaken"), "{}", v.0);
        println!("own-stripe mutant: {}", v.0);
    }

    #[test]
    fn lowering_the_need_bit_with_a_store_is_caught() {
        // T1's exit stores 0 over the shared word, clearing T0's bit while
        // T0 is still in the loop: later removals no longer serve it.
        let v = explore_mutant(Mutant::LowerWithStore, vec![true], vec![true, false, true]);
        assert!(v.0.contains("overtaken"), "{}", v.0);
        println!("store-lowering mutant: {}", v.0);
    }

    #[test]
    fn uncorrected_f3_is_caught() {
        // The paper's literal F3 gifts with mm_ref = 1; the recipient's
        // FixRef(-1) yields a live node with count 0 — conservation must
        // fail in some schedule.
        let r = explore(
            FlShared::initial(),
            vec![
                // T0 churns so its A4 picks up T1's gift.
                FlMachine::new(0, vec![true, false, true, false]),
                FlMachine::new(1, vec![true, false]).with_uncorrected_f3(),
            ],
            check_conservation,
        );
        let v = r
            .violation
            .expect("the paper's uncorrected F3 must break count conservation");
        println!("uncorrected F3 violation: {}", v.0);
    }
}
