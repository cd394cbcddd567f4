//! Step machines for the Figure 4 / Figure 6 operations.
//!
//! Each machine executes a *script* of calls; every `step()` performs at
//! most one shared-memory access, so the explorer's interleavings are
//! exactly the sequentially-consistent executions of the pseudo-code.
//! Nested operations (`HelpDeRef` calling `DeRefLink` at H5, `DeRefLink`
//! calling `ReleaseRef` at D8) run as stacked frames.
//!
//! The announcement-presence bit of `wfrc-core`'s `announce.rs` is part of
//! the machine: a dereference raises its thread's bit before D3 when it is
//! down (the owner is the bit's only writer, so finding it up costs no
//! shared access), nothing lowers it but a script-level
//! [`Call::Unregister`], and `HelpDeRef` reads the summary — the fast-path
//! check, then the snapshot H1 iterates — and visits flagged rows only.
//! Under the explorer's sequential consistency what the bit must bracket is
//! the D4 link read and the D5 increment: a raise anywhere before D4, and a
//! lower anywhere after D5, explore clean. The two mutants of
//! [`DerefKind`] step just across each boundary.
//!
//! `wfrc-core` puts one validated Valois attempt (load, `FAA(+2)`,
//! re-load) in front of D1; [`DerefKind::Fast`] is that attempt followed,
//! on a miss, by the paper's steps — and it is what a helper's H5 runs. Its
//! mutants are [`DerefKind::Unsafe`] (the attempt without the re-load is
//! the naive dereference, step for step) and
//! [`DerefKind::FastReloadFirst`].

use crate::shared::{AnnWord, Claim, NodeId, Shared, MODEL_THREADS};

/// Which dereference algorithm a script step uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DerefKind {
    /// The paper's Figure 4 `DeRefLink` (announce → read → FAA → retract).
    WaitFree,
    /// The naive dereference (read, FAA, return — no announcement, no
    /// re-check). This is the algorithm whose use-after-free the paper's
    /// §3 motivates; the explorer finds the bug (see the crate tests).
    Unsafe,
    /// Mutant of [`DerefKind::WaitFree`]: the presence bit is raised after
    /// the D3 store *and the D4 read* instead of before them. A writer that
    /// swings the link in between finds the summary empty, skips the
    /// announcement and frees the node D4 returned — the naive
    /// dereference's use-after-free.
    RaiseAfterRead,
    /// Mutant of [`DerefKind::WaitFree`]: the bit is lowered per
    /// dereference, and too early — between the D4 read and the D5
    /// increment instead of at `Unregister`. Same trace.
    LowerBeforeFaa,
    /// The implementation's `DeRefLink`: one Valois attempt — load the
    /// link, `FAA(+2)`, re-load — returning the node when the re-load still
    /// sees it. On a miss it releases the speculative count (as D8 does)
    /// and runs the [`DerefKind::WaitFree`] steps from D1. The attempt
    /// announces nothing, so its bit stays as it was.
    Fast,
    /// Mutant of [`DerefKind::Fast`], the classic Valois bug: the re-load
    /// comes *before* the increment. A writer that swings the link and
    /// frees the old target between the two leaves the increment on a
    /// freed node, which the attempt then returns — use-after-free.
    FastReloadFirst,
}

/// One script entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Call {
    /// Dereference the link; the result lands in the machine's result
    /// register.
    Deref(DerefKind),
    /// `ReleaseRef` on the last dereference result (no-op if it was null).
    ReleaseResult,
    /// `ReleaseRef` on a specific node.
    Release(NodeId),
    /// `FixRef(node, delta)` — one FAA.
    FixRef(NodeId, i32),
    /// Figure 6 `CompareAndSwapLink`: CAS, then `HelpDeRef` on success.
    /// The outcome lands in the machine's CAS flag.
    CasLink {
        /// Expected link value.
        old: Option<NodeId>,
        /// Replacement link value.
        new: Option<NodeId>,
    },
    /// `ReleaseRef(node)` if the last `CasLink` succeeded (the §3.2
    /// obligation on the old target).
    ReleaseIfCasOk(NodeId),
    /// `ReleaseRef(node)` if the last `CasLink` failed (undoing a
    /// speculative `FixRef`).
    ReleaseIfCasFailed(NodeId),
    /// Weak tier (PR 10): add one weak reference (the caller's script
    /// must hold a strong reference at this point — asserted).
    Downgrade(NodeId),
    /// The upgrade CAS; the outcome lands in the machine's upgrade flag.
    /// The caller's script must hold a weak reference.
    WeakUpgrade(NodeId),
    /// `ReleaseRef(node)` if the last `WeakUpgrade` succeeded (dropping
    /// the strong reference the upgrade minted).
    ReleaseIfUpgradeOk(NodeId),
    /// Drop one weak reference, finalizing (and freeing) a drained DEAD
    /// header if this was the last thing holding it.
    WeakRelease(NodeId),
    /// Handle drop: lower this thread's presence bit. The thread is
    /// between operations, so its row is empty (asserted). A later
    /// `Deref` in the same script models the id's next registration.
    Unregister,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Frame {
    Deref {
        kind: DerefKind,
        pc: u8,
        idx: usize,
        node: Option<NodeId>,
        answer: Option<NodeId>,
        top_level: bool,
    },
    Release {
        pc: u8,
        node: NodeId,
    },
    Help {
        pc: u8,
        /// The summary as H1 loaded it: the rows this sweep visits.
        flagged: [bool; MODEL_THREADS],
        id: usize,
        idx: usize,
        node: Option<NodeId>,
    },
    CasLink {
        pc: u8,
        old: Option<NodeId>,
        new: Option<NodeId>,
    },
    WeakRelease {
        pc: u8,
        node: NodeId,
    },
}

/// A thread: a script plus its execution state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Machine {
    tid: usize,
    script: Vec<Call>,
    ip: usize,
    stack: Vec<Frame>,
    /// Result register: last completed dereference.
    pub result: Option<NodeId>,
    /// Last `CasLink` outcome.
    pub cas_ok: bool,
    /// Last `WeakUpgrade` outcome.
    pub upgrade_ok: bool,
    /// Return slot from a just-popped child frame.
    ret: Option<Option<NodeId>>,
}

impl Machine {
    /// Creates a machine for thread `tid` running `script`.
    pub fn new(tid: usize, script: Vec<Call>) -> Self {
        assert!(tid < MODEL_THREADS);
        Self {
            tid,
            script,
            ip: 0,
            stack: Vec::new(),
            result: None,
            cas_ok: false,
            upgrade_ok: false,
            ret: None,
        }
    }

    /// True when the script has run to completion.
    pub fn done(&self) -> bool {
        self.stack.is_empty() && self.ip == self.script.len()
    }

    /// Executes one step (at most one shared-memory access).
    pub fn step(&mut self, s: &mut Shared) {
        debug_assert!(!self.done());
        if self.stack.is_empty() {
            let call = self.script[self.ip];
            self.ip += 1;
            match call {
                Call::Deref(kind) => {
                    s.open_witness(self.tid);
                    self.stack.push(Frame::Deref {
                        kind,
                        pc: 0,
                        idx: 0,
                        node: None,
                        answer: None,
                        top_level: true,
                    });
                }
                Call::ReleaseResult => {
                    if let Some(n) = self.result {
                        self.stack.push(Frame::Release { pc: 0, node: n });
                    }
                }
                Call::Release(n) => self.stack.push(Frame::Release { pc: 0, node: n }),
                Call::FixRef(n, d) => {
                    s.faa(n, d);
                }
                Call::CasLink { old, new } => self.stack.push(Frame::CasLink { pc: 0, old, new }),
                Call::ReleaseIfCasOk(n) => {
                    if self.cas_ok {
                        self.stack.push(Frame::Release { pc: 0, node: n });
                    }
                }
                Call::ReleaseIfCasFailed(n) => {
                    if !self.cas_ok {
                        self.stack.push(Frame::Release { pc: 0, node: n });
                    }
                }
                Call::Downgrade(n) => {
                    // The script contract mirrors `downgrade_raw`'s safety
                    // clause: a strong reference must be held.
                    assert!(
                        s.mm_ref[n] >= 2 && s.mm_ref[n] % 2 == 0,
                        "downgrade of node {n} without a live strong count (mm_ref = {})",
                        s.mm_ref[n]
                    );
                    s.faa_weak(n, 1);
                }
                Call::WeakUpgrade(n) => {
                    self.upgrade_ok = s.try_upgrade(n);
                }
                Call::ReleaseIfUpgradeOk(n) => {
                    if self.upgrade_ok {
                        self.stack.push(Frame::Release { pc: 0, node: n });
                    }
                }
                Call::WeakRelease(n) => self.stack.push(Frame::WeakRelease { pc: 0, node: n }),
                Call::Unregister => {
                    assert!(
                        s.ann_read[self.tid].iter().all(|w| *w == AnnWord::Empty),
                        "thread {} unregistered over a live announcement",
                        self.tid
                    );
                    s.summary[self.tid] = false;
                }
            }
            return;
        }
        self.step_frame(s);
    }

    fn step_frame(&mut self, s: &mut Shared) {
        let tid = self.tid;
        let top = self.stack.len() - 1;
        // Take the frame out to sidestep borrow gymnastics; push back if
        // it survives the step.
        let mut frame = self.stack.pop().expect("stack non-empty");
        match &mut frame {
            Frame::Deref {
                kind:
                    kind @ (DerefKind::WaitFree | DerefKind::RaiseAfterRead | DerefKind::LowerBeforeFaa),
                pc,
                idx,
                node,
                answer,
                top_level,
            } => match *pc {
                0 => {
                    // D1: choose a slot with busy == 0 (bounded scan).
                    *idx = (0..MODEL_THREADS)
                        .find(|&i| s.ann_busy[tid][i] == 0)
                        .expect("announcement protocol violated: all slots busy");
                    *pc = 1;
                    self.stack.push(frame);
                }
                1 => {
                    s.ann_index[tid] = *idx; // D2
                                             // Raise the presence bit next if it is down. Reading
                                             // our own bit is no shared access — we are its only
                                             // writer — so finding it up costs no step.
                    let raise = *kind != DerefKind::RaiseAfterRead && !s.summary[tid];
                    *pc = if raise { 2 } else { 3 };
                    self.stack.push(frame);
                }
                2 => {
                    s.summary[tid] = true; // strictly before D3
                    *pc = 3;
                    self.stack.push(frame);
                }
                3 => {
                    s.ann_read[tid][*idx] = AnnWord::Announced; // D3
                    *pc = 4;
                    self.stack.push(frame);
                }
                4 => {
                    *node = s.link; // D4
                                    // Only the mutants touch the bit between D4 and D5.
                    let mutant_step = match *kind {
                        DerefKind::RaiseAfterRead => !s.summary[tid],
                        DerefKind::LowerBeforeFaa => true,
                        _ => false,
                    };
                    *pc = if mutant_step { 5 } else { 6 };
                    self.stack.push(frame);
                }
                5 => {
                    s.summary[tid] = *kind == DerefKind::RaiseAfterRead;
                    *pc = 6;
                    self.stack.push(frame);
                }
                6 => {
                    if let Some(n) = *node {
                        s.faa(n, 2); // D5
                    }
                    *pc = 7;
                    self.stack.push(frame);
                }
                7 => {
                    // D6: retract and inspect. The bit stays up.
                    let word = std::mem::replace(&mut s.ann_read[tid][*idx], AnnWord::Empty);
                    match word {
                        AnnWord::Announced => {
                            // Not helped: return `node`.
                            let tl = *top_level;
                            let ret = *node;
                            self.finish_deref(s, ret, tl);
                        }
                        AnnWord::Answer(ans) => {
                            // D7–D9: helped; release the speculative count.
                            *answer = ans;
                            *pc = 8;
                            let spec = *node;
                            self.stack.push(frame);
                            if let Some(n) = spec {
                                self.stack.push(Frame::Release { pc: 0, node: n });
                            }
                        }
                        AnnWord::Empty => {
                            unreachable!("announcement vanished without answer")
                        }
                    }
                }
                8 => {
                    // Release child (if any) has completed: return answer.
                    let tl = *top_level;
                    let ans = *answer;
                    self.finish_deref(s, ans, tl);
                }
                _ => unreachable!(),
            },
            Frame::Deref {
                kind: kind @ (DerefKind::Fast | DerefKind::FastReloadFirst),
                pc,
                node,
                top_level,
                ..
            } => {
                let reload_first = *kind == DerefKind::FastReloadFirst;
                match *pc {
                    0 => {
                        *node = s.link; // the attempt's load
                        match *node {
                            None => {
                                let tl = *top_level;
                                self.finish_deref(s, None, tl);
                            }
                            Some(_) => {
                                *pc = 1;
                                self.stack.push(frame);
                            }
                        }
                    }
                    // The increment (the mutant re-loads here instead).
                    1 if !reload_first => {
                        s.faa(node.expect("non-null"), 2);
                        *pc = 2;
                        self.stack.push(frame);
                    }
                    2 if reload_first => {
                        let n = node.expect("non-null");
                        s.faa(n, 2);
                        let tl = *top_level;
                        self.finish_deref(s, Some(n), tl);
                    }
                    _ => {
                        // The re-load: unchanged returns the node (or, for
                        // the mutant, goes on to its increment).
                        let n = node.expect("non-null");
                        if s.link == Some(n) {
                            if reload_first {
                                *pc = 2;
                                self.stack.push(frame);
                            } else {
                                let tl = *top_level;
                                self.finish_deref(s, Some(n), tl);
                            }
                            return;
                        }
                        // Miss: the paper's steps from D1, after returning
                        // the speculative count (the mutant took none).
                        let held = !reload_first;
                        *kind = DerefKind::WaitFree;
                        *pc = 0;
                        *node = None;
                        self.stack.push(frame);
                        if held {
                            self.stack.push(Frame::Release { pc: 0, node: n });
                        }
                    }
                }
            }
            Frame::Deref {
                kind: DerefKind::Unsafe,
                pc,
                node,
                top_level,
                ..
            } => match *pc {
                0 => {
                    *node = s.link; // naive read
                    *pc = 1;
                    self.stack.push(frame);
                }
                1 => {
                    if let Some(n) = *node {
                        s.faa(n, 2); // naive increment, no re-check
                    }
                    let tl = *top_level;
                    let ret = *node;
                    self.finish_deref(s, ret, tl);
                }
                _ => unreachable!(),
            },
            Frame::Release { pc, node } => match *pc {
                0 => {
                    s.faa(*node, -2); // R1
                    *pc = 1;
                    self.stack.push(frame);
                }
                1 => {
                    // R2, weak-aware (PR 10): one CAS over the packed word.
                    match s.try_claim_weak(*node) {
                        Claim::Busy => {
                            // A speculative count may be exposing a
                            // drained DEAD sentinel: the releaser that
                            // uncovers it inherits the free.
                            *pc = 4;
                            self.stack.push(frame);
                        }
                        Claim::Free => {
                            // R4 next (no child links in the model).
                            *pc = 2;
                            self.stack.push(frame);
                        }
                        Claim::DeadWeak => {
                            // Strip done (no links); drop the guard.
                            *pc = 3;
                            self.stack.push(frame);
                        }
                    }
                }
                2 => {
                    s.free(*node); // R4
                }
                3 => {
                    // The DeadWeak guard drop: one FAA, then the finalize
                    // CAS as its own access.
                    s.faa_weak(*node, -1);
                    *pc = 4;
                    self.stack.push(frame);
                }
                4 => {
                    if s.maybe_finalize(*node) {
                        *pc = 2;
                        self.stack.push(frame);
                    }
                    // else: pop (someone else still holds the header).
                }
                _ => unreachable!(),
            },
            Frame::Help {
                pc,
                flagged,
                id,
                idx,
                node,
            } => match *pc {
                0 => {
                    // The fast path: an empty summary discharges the
                    // obligation without reading a slot word.
                    if s.summary.iter().any(|&up| up) {
                        *pc = 1;
                        self.stack.push(frame);
                    }
                }
                1 => {
                    // H1, restricted: load the summary once and sweep the
                    // rows it flags.
                    *flagged = s.summary;
                    *id = next_flagged(flagged, 0);
                    *pc = 2;
                    self.stack.push(frame);
                }
                2 => {
                    if *id == MODEL_THREADS {
                        // H1 loop exhausted.
                    } else {
                        *idx = s.ann_index[*id]; // H2
                        *pc = 3;
                        self.stack.push(frame);
                    }
                }
                3 => {
                    // H3: does the slot announce our (single) link?
                    // (A separate step from H4 — the helper may stall in
                    // this window, which is exactly the race the busy
                    // counters defend; the explorer must see it.)
                    if s.ann_read[*id][*idx] == AnnWord::Announced {
                        *pc = 4;
                    } else {
                        *id = next_flagged(flagged, *id + 1);
                        *pc = 2;
                    }
                    self.stack.push(frame);
                }
                4 => {
                    s.ann_busy[*id][*idx] += 1; // H4: pin the slot
                    *pc = 5;
                    self.stack.push(frame);
                    // H5: nested DeRefLink with our own slots — the
                    // fast attempt first, as `wfrc-core`'s helper runs it.
                    self.stack.push(Frame::Deref {
                        kind: DerefKind::Fast,
                        pc: 0,
                        idx: 0,
                        node: None,
                        answer: None,
                        top_level: false,
                    });
                }
                5 => {
                    // H5 child returned; H6: try to answer.
                    *node = self.ret.take().expect("nested deref must return");
                    let answered = if s.ann_read[*id][*idx] == AnnWord::Announced {
                        s.ann_read[*id][*idx] = AnnWord::Answer(*node);
                        true
                    } else {
                        false
                    };
                    *pc = 6;
                    let n = *node;
                    self.stack.push(frame);
                    if !answered {
                        // H7: our reference wasn't transferred; release it.
                        if let Some(n) = n {
                            self.stack.push(Frame::Release { pc: 0, node: n });
                        }
                    }
                }
                6 => {
                    s.ann_busy[*id][*idx] -= 1; // H8
                    *id = next_flagged(flagged, *id + 1);
                    *pc = 2;
                    self.stack.push(frame);
                }
                _ => unreachable!(),
            },
            Frame::CasLink { pc, old, new } => match *pc {
                0 => {
                    self.cas_ok = s.link_cas(*old, *new);
                    if self.cas_ok {
                        *pc = 1;
                        self.stack.push(frame);
                        // Figure 6: HelpDeRef after a successful CAS.
                        self.stack.push(Frame::Help {
                            pc: 0,
                            flagged: [false; MODEL_THREADS],
                            id: 0,
                            idx: 0,
                            node: None,
                        });
                    }
                    // On failure: pop, cas_ok = false.
                }
                1 => {
                    // Help child done; pop.
                }
                _ => unreachable!(),
            },
            Frame::WeakRelease { pc, node } => match *pc {
                0 => {
                    s.faa_weak(*node, -1);
                    *pc = 1;
                    self.stack.push(frame);
                }
                1 => {
                    if s.maybe_finalize(*node) {
                        *pc = 2;
                        self.stack.push(frame);
                    }
                    // else: pop (header still strong- or weak-held).
                }
                2 => {
                    s.free(*node);
                }
                _ => unreachable!(),
            },
        }
        debug_assert!(self.stack.len() <= top + 2);
    }

    /// Completes a dereference frame: safety + linearizability checks,
    /// then routes the return value to the parent.
    fn finish_deref(&mut self, s: &mut Shared, ret: Option<NodeId>, top_level: bool) {
        if let Some(n) = ret {
            assert!(
                !s.freed[n],
                "use-after-free: thread {} dereference returned node {n}, \
                 which is in the free set at return time",
                self.tid
            );
        }
        if top_level {
            s.close_witness(self.tid, ret);
            self.result = ret;
        } else {
            self.ret = Some(ret);
        }
    }
}

/// The first row at or after `from` that the summary snapshot flags
/// (`MODEL_THREADS` when none is left) — H1's iteration, local to the helper.
fn next_flagged(flagged: &[bool; MODEL_THREADS], from: usize) -> usize {
    (from..MODEL_THREADS)
        .find(|&t| flagged[t])
        .unwrap_or(MODEL_THREADS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_completion(mut m: Machine, s: &mut Shared) -> Machine {
        let mut steps = 0;
        while !m.done() {
            m.step(s);
            steps += 1;
            assert!(steps < 10_000, "machine diverged");
        }
        m
    }

    #[test]
    fn solo_deref_returns_link_target() {
        let mut s = Shared::initial();
        let m = Machine::new(
            0,
            vec![Call::Deref(DerefKind::WaitFree), Call::ReleaseResult],
        );
        let m = run_to_completion(m, &mut s);
        assert_eq!(m.result, Some(0));
        assert_eq!(s.mm_ref, [2, 2], "deref+release is count-neutral");
    }

    #[test]
    fn bit_rises_at_the_first_deref_and_falls_only_at_unregister() {
        let mut s = Shared::initial();
        let deref = [Call::Deref(DerefKind::WaitFree), Call::ReleaseResult];
        let m = run_to_completion(Machine::new(0, deref.to_vec()), &mut s);
        assert_eq!(m.result, Some(0));
        assert_eq!(s.summary, [true, false], "the bit outlives the deref");
        // A second deref finds it up; a writer's help then sweeps row 0
        // (empty — nothing to answer) and only row 0.
        run_to_completion(Machine::new(0, deref.to_vec()), &mut s);
        let swing = vec![
            Call::FixRef(1, 2),
            Call::CasLink {
                old: Some(0),
                new: Some(1),
            },
            Call::ReleaseIfCasOk(0),
        ];
        let w = run_to_completion(Machine::new(1, swing), &mut s);
        assert!(w.cas_ok && s.freed[0]);
        assert_eq!(s.summary, [true, false], "helping raises nothing");
        run_to_completion(Machine::new(0, vec![Call::Unregister]), &mut s);
        assert_eq!(s.summary, [false, false]);
    }

    #[test]
    fn solo_fast_deref_takes_one_count_and_leaves_the_bit_down() {
        let mut s = Shared::initial();
        let m = Machine::new(0, vec![Call::Deref(DerefKind::Fast), Call::ReleaseResult]);
        let m = run_to_completion(m, &mut s);
        assert_eq!(m.result, Some(0));
        assert_eq!(s.mm_ref, [2, 2], "deref+release is count-neutral");
        assert_eq!(
            s.summary,
            [false, false],
            "an attempt that hits never announces"
        );
    }

    #[test]
    fn solo_cas_and_release_frees_old() {
        let mut s = Shared::initial();
        // T: FixRef(b,+2) for the link; CAS a->b; release link's old count
        // on a; release own count on a?? — the model's initial state gives
        // the *link* the count on a, so one release suffices; then drop own
        // b reference.
        let m = Machine::new(
            0,
            vec![
                Call::FixRef(1, 2),
                Call::CasLink {
                    old: Some(0),
                    new: Some(1),
                },
                Call::ReleaseIfCasOk(0),
                Call::ReleaseIfCasFailed(1),
            ],
        );
        let m = run_to_completion(m, &mut s);
        assert!(m.cas_ok);
        assert_eq!(s.link, Some(1));
        assert_eq!(s.mm_ref[0], 1, "a reclaimed");
        assert!(s.freed[0]);
        assert_eq!(s.mm_ref[1], 4, "b: link count + owner count");
        assert!(!s.freed[1]);
    }

    #[test]
    fn solo_unsafe_deref_matches_on_quiet_link() {
        let mut s = Shared::initial();
        let m = Machine::new(0, vec![Call::Deref(DerefKind::Unsafe), Call::ReleaseResult]);
        let m = run_to_completion(m, &mut s);
        assert_eq!(m.result, Some(0));
        assert_eq!(s.mm_ref, [2, 2]);
    }

    #[test]
    fn machines_are_hashable_for_memoization() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        let m = Machine::new(0, vec![Call::Deref(DerefKind::WaitFree)]);
        set.insert(m.clone());
        assert!(set.contains(&m));
    }
}
