//! Model of segment retirement (`wfrc-core/src/reclaim.rs`, DESIGN.md §4c)
//! against the operations that touch nodes, explored exhaustively.
//!
//! Two threads share one trailing segment of [`RT_NODES`] nodes:
//!
//! * **Thread 0, the op thread**, runs a script of handle operations:
//!   bracket enter and exit (its operation epoch; odd = inside), a
//!   dereference (read the link, then touch the target's count), `FixRef`
//!   on a reference it holds, `ReleaseRef`, and `AllocNode` — pop a stripe
//!   node, divert it to the parking chain while the segment is DRAINING,
//!   or, with the stripes dry, *steal* from the parking chain (detach the
//!   whole chain, then push back all but one).
//! * **Thread 1, the reclaimer**, may first unlink the link's target (the
//!   writer whose release frees it), then runs the retire protocol: read
//!   the occupancy (every node on a stripe), claim `LIVE → DRAINING`, sweep
//!   the stripes onto the parking chain (abort unless all `len` nodes are
//!   parked), wait out the grace period (the op thread's epoch even, or
//!   changed — a bounded wait that aborts), detach the parking chain
//!   (abort unless it holds exactly `len` nodes), and retire.
//!
//! **The property: no step touches a node of a retired segment.** Every
//! access of the op thread to a node header asserts it, and the final check
//! asserts that a retired segment took every one of its nodes with it (a
//! node left on the parking chain, a stripe or the link would be touched by
//! the next operation to reach it).
//!
//! The model is sequentially consistent: it checks the protocol's logic,
//! not the memory orderings (DESIGN.md §4b argues those). Announcements and
//! snapshot pins are left out — their vetoes only add abort paths.
//!
//! What the tests show:
//!
//! * the real protocol survives every interleaving with a bracketed
//!   dereference, and with an allocator that steals mid-retire;
//! * `FixRef` **without** a bracket, on a reference the caller holds, is
//!   safe: the held node keeps the occupancy below `len` (or the sweep
//!   short), so no retire completes under it — the argument for leaving
//!   `add_ref_raw` unbracketed;
//! * two mutants are rejected: a dereference without the bracket, and a
//!   reclaimer that treats a null detach as a full collection
//!   ([`RtMutant::NullDetachIsFull`], the bug an allocator's steal exposed
//!   in the real code).

/// Nodes in the model's candidate segment (its `len`).
pub const RT_NODES: usize = 2;

/// Grace-period probes before the reclaimer gives up and aborts (the real
/// protocol's bounded spin budget).
pub const GRACE_TRIES: u8 = 2;

/// The candidate segment's state machine (the slot of `arena.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Seg {
    /// Serving allocations.
    Live,
    /// Claimed by the reclaimer: the alloc and free paths divert its nodes.
    Draining,
    /// Retired: its slab is gone, and so is every one of its nodes.
    Retired,
}

/// Where a node sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Place {
    /// Referenced (`refs > 0`).
    Live,
    /// On a free-list stripe (counted by the segment's occupancy).
    Stripe,
    /// On the shared parking chain.
    Parked,
    /// In an allocator's privately detached steal chain.
    Stolen,
    /// In the reclaimer's privately detached collection.
    Detached,
}

/// Shared state: the link, the segment, and thread 0's operation epoch.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RtShared {
    /// The one shared link.
    pub link: Option<usize>,
    /// References per node (the link's and the op thread's).
    pub refs: [u8; RT_NODES],
    /// Where each node sits.
    pub place: [Place; RT_NODES],
    /// The candidate segment's state.
    pub seg: Seg,
    /// The op thread's operation epoch (odd = inside a bracket). The
    /// reclaimer's own is always even while it reclaims, so it is not
    /// modeled.
    pub epoch: u8,
}

impl RtShared {
    /// Node 0 is the link's target (one reference, the link's); node 1 is
    /// on a stripe.
    pub fn initial() -> Self {
        Self {
            link: Some(0),
            refs: [1, 0],
            place: [Place::Live, Place::Stripe],
            seg: Seg::Live,
            epoch: 0,
        }
    }

    fn count(&self, p: Place) -> usize {
        self.place.iter().filter(|&&q| q == p).count()
    }

    /// The property: a node header is touched only while its segment
    /// exists.
    fn touch(&self, n: usize) {
        assert!(
            self.seg != Seg::Retired,
            "use-after-retire: node {n} touched after its segment retired: {self:?}"
        );
    }

    /// `ReleaseRef` of one reference: at zero the node goes back to a
    /// stripe, or to the parking chain while its segment is DRAINING.
    fn release(&mut self, n: usize) {
        self.touch(n);
        self.refs[n] -= 1;
        if self.refs[n] == 0 {
            self.place[n] = if self.seg == Seg::Draining {
                Place::Parked
            } else {
                Place::Stripe
            };
        }
    }

    /// A node handed to its allocator with one reference.
    fn hand_out(&mut self, n: usize) {
        self.touch(n);
        self.place[n] = Place::Live;
        self.refs[n] = 1;
    }

    /// The abort path (`reopen_reclaim`): LIVE again, and the collection —
    /// parked or detached — back on the stripes. A stealer's private chain
    /// stays with the stealer.
    fn reopen(&mut self) {
        self.seg = Seg::Live;
        for p in &mut self.place {
            if matches!(*p, Place::Parked | Place::Detached) {
                *p = Place::Stripe;
            }
        }
    }
}

/// One call of a script.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RtCall {
    /// Opens the operation bracket (epoch to odd).
    Enter,
    /// Closes it (epoch to even).
    Exit,
    /// `DeRefLink`: read the link, then touch the target's count; holds a
    /// reference on success (a target already freed yields none).
    Deref,
    /// `FixRef(+1)` on the most recently acquired held reference (no-op
    /// when none is held).
    FixRef,
    /// `ReleaseRef` of the most recently acquired held reference (no-op
    /// when none is held).
    Release,
    /// `AllocNode`: stripe pop (diverted while DRAINING), else a steal from
    /// the parking chain, else out of memory.
    Alloc,
    /// The writer's half: clear the link and release the count it held.
    Unlink,
    /// The whole retire protocol.
    Reclaim,
}

/// A deliberately broken reclaimer step; the explorer must reject it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RtMutant {
    /// The post-grace detach comes back empty (an allocator's steal holds
    /// the chain) and the reclaimer retires as if it had collected `len`
    /// nodes.
    NullDetachIsFull,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    Idle,
    DerefTouch(Option<usize>),
    StealPushBack,
    ClaimCas,
    Sweep,
    GraceRead,
    GraceCheck { e0: u8, tries: u8 },
    Detach,
    Retire,
}

/// One thread running a script of [`RtCall`]s.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RtMachine {
    script: Vec<RtCall>,
    pc: usize,
    phase: Phase,
    /// References this thread owns, most recent last.
    pub held: Vec<usize>,
    mutant: Option<RtMutant>,
}

impl RtMachine {
    /// A thread that will run `script`.
    pub fn new(script: Vec<RtCall>) -> Self {
        Self {
            script,
            pc: 0,
            phase: Phase::Idle,
            held: Vec::new(),
            mutant: None,
        }
    }

    /// The same thread with a broken step.
    pub fn with_mutant(mut self, m: RtMutant) -> Self {
        self.mutant = Some(m);
        self
    }

    /// True once the script has run.
    pub fn done(&self) -> bool {
        self.pc == self.script.len()
    }

    fn next(&mut self) {
        self.pc += 1;
        self.phase = Phase::Idle;
    }

    /// Executes one atomic step.
    pub fn step(&mut self, s: &mut RtShared) {
        match (self.phase, self.script[self.pc]) {
            (Phase::Idle, RtCall::Enter | RtCall::Exit) => {
                s.epoch = s.epoch.wrapping_add(1);
                self.next();
            }
            (Phase::Idle, RtCall::Deref) => self.phase = Phase::DerefTouch(s.link),
            (Phase::DerefTouch(target), _) => {
                if let Some(n) = target {
                    s.touch(n);
                    if s.place[n] == Place::Live {
                        s.refs[n] += 1;
                        self.held.push(n);
                    }
                }
                self.next();
            }
            (Phase::Idle, RtCall::FixRef) => {
                if let Some(&n) = self.held.last() {
                    s.touch(n);
                    s.refs[n] += 1;
                    self.held.push(n);
                }
                self.next();
            }
            (Phase::Idle, RtCall::Release) => {
                if let Some(n) = self.held.pop() {
                    s.release(n);
                }
                self.next();
            }
            (Phase::Idle, RtCall::Alloc) => {
                if let Some(n) = (0..RT_NODES).find(|&n| s.place[n] == Place::Stripe) {
                    s.touch(n);
                    if s.seg == Seg::Draining {
                        // Divert and retry.
                        s.place[n] = Place::Parked;
                    } else {
                        s.hand_out(n);
                        self.held.push(n);
                        self.next();
                    }
                } else if s.count(Place::Parked) > 0 {
                    // The anti-livelock steal: detach the whole chain.
                    for p in &mut s.place {
                        if *p == Place::Parked {
                            *p = Place::Stolen;
                        }
                    }
                    self.phase = Phase::StealPushBack;
                } else {
                    self.next(); // out of memory: no node touched
                }
            }
            (Phase::StealPushBack, _) => {
                // Keep one, push the rest back onto the parking chain.
                let mut stolen = (0..RT_NODES).filter(|&n| s.place[n] == Place::Stolen);
                let first = stolen.next().expect("a steal holds at least one node");
                for n in stolen.collect::<Vec<_>>() {
                    s.touch(n);
                    s.place[n] = Place::Parked;
                }
                s.hand_out(first);
                self.held.push(first);
                self.next();
            }
            (Phase::Idle, RtCall::Unlink) => {
                if let Some(n) = s.link.take() {
                    s.release(n);
                }
                self.next();
            }
            (Phase::Idle, RtCall::Reclaim) => {
                // The trigger: occupancy == len.
                if s.seg == Seg::Live && s.count(Place::Stripe) == RT_NODES {
                    self.phase = Phase::ClaimCas;
                } else {
                    self.next(); // NoCandidate
                }
            }
            (Phase::ClaimCas, _) => {
                if s.seg == Seg::Live {
                    s.seg = Seg::Draining;
                    self.phase = Phase::Sweep;
                } else {
                    self.next();
                }
            }
            (Phase::Sweep, _) => {
                for p in &mut s.place {
                    if *p == Place::Stripe {
                        *p = Place::Parked;
                    }
                }
                if s.count(Place::Parked) < RT_NODES {
                    s.reopen();
                    self.next();
                } else {
                    self.phase = Phase::GraceRead;
                }
            }
            (Phase::GraceRead, _) => {
                self.phase = if s.epoch.is_multiple_of(2) {
                    Phase::Detach
                } else {
                    Phase::GraceCheck {
                        e0: s.epoch,
                        tries: 0,
                    }
                };
            }
            (Phase::GraceCheck { e0, tries }, _) => {
                if s.epoch != e0 {
                    self.phase = Phase::Detach;
                } else if tries + 1 == GRACE_TRIES {
                    s.reopen();
                    self.next();
                } else {
                    self.phase = Phase::GraceCheck {
                        e0,
                        tries: tries + 1,
                    };
                }
            }
            (Phase::Detach, _) => {
                for p in &mut s.place {
                    if *p == Place::Parked {
                        *p = Place::Detached;
                    }
                }
                let count = s.count(Place::Detached);
                let null_is_full = count == 0 && self.mutant == Some(RtMutant::NullDetachIsFull);
                if count == RT_NODES || null_is_full {
                    self.phase = Phase::Retire;
                } else {
                    s.reopen();
                    self.next();
                }
            }
            (Phase::Retire, _) => {
                s.seg = Seg::Retired;
                self.next();
            }
        }
    }
}

/// Quiescent accounting: a retired segment took every node with it (each
/// in the reclaimer's collection, nothing referenced); otherwise every
/// node's count matches the link plus the references its threads hold, and
/// no node is left in a private chain.
pub fn check_final(s: &RtShared, machines: &[RtMachine]) {
    if s.seg == Seg::Retired {
        // Anything but the reclaimer's collection is reachable — by the
        // link, a thread, or the next allocation — after the slab is gone.
        for (n, &p) in s.place.iter().enumerate() {
            assert!(
                p == Place::Detached && s.link != Some(n),
                "use-after-retire: the segment retired with node {n} {p:?}: \
                 {s:?} {machines:?}"
            );
        }
        return;
    }
    assert_ne!(s.seg, Seg::Draining, "a retire left its claim: {s:?}");
    for n in 0..RT_NODES {
        let held = machines
            .iter()
            .map(|m| m.held.iter().filter(|&&h| h == n).count())
            .sum::<usize>();
        let expected = held + usize::from(s.link == Some(n));
        assert_eq!(usize::from(s.refs[n]), expected, "node {n}: {s:?}");
        // A straggler pushed back after a reopen legally stays on the
        // parking chain until the next reclaim or steal.
        let place_ok = match s.place[n] {
            Place::Live => expected > 0,
            Place::Stripe | Place::Parked => expected == 0,
            Place::Stolen | Place::Detached => false,
        };
        assert!(place_ok, "node {n} misplaced at quiescence: {s:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;
    use core::cell::Cell;
    use RtCall::*;

    /// Explores `op` against a reclaimer that unlinks node 0 and then runs
    /// the retire protocol, returning the result and whether some schedule
    /// retired the segment.
    fn run(op: Vec<RtCall>, mutant: Option<RtMutant>) -> (crate::ExploreResult, bool) {
        let mut reclaimer = RtMachine::new(vec![Unlink, Reclaim]);
        if let Some(m) = mutant {
            reclaimer = reclaimer.with_mutant(m);
        }
        let retired = Cell::new(false);
        let r = explore(
            RtShared::initial(),
            vec![RtMachine::new(op), reclaimer],
            |s, ms| {
                check_final(s, ms);
                if s.seg == Seg::Retired {
                    retired.set(true);
                }
            },
        );
        (r, retired.get())
    }

    #[test]
    fn bracketed_deref_survives_every_retire() {
        let (r, retired) = run(vec![Enter, Deref, Release, Exit], None);
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert!(retired, "no schedule retired the segment");
        println!(
            "bracketed deref: {} states, {} finals",
            r.states, r.final_states
        );
    }

    /// The audit's proof: `FixRef` outside any bracket, on a reference the
    /// op thread holds (taken by a bracketed dereference), never touches a
    /// retired node — the held node keeps the segment from retiring.
    #[test]
    fn fixref_without_a_bracket_under_a_held_reference_is_safe() {
        let op = vec![Enter, Deref, Exit, FixRef, Enter, Release, Release, Exit];
        let (r, retired) = run(op, None);
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert!(retired, "no schedule retired the segment");
        println!(
            "unbracketed FixRef: {} states, {} finals",
            r.states, r.final_states
        );
    }

    /// An allocator that steals from the parking chain mid-retire: it
    /// re-entered its bracket after the grace period's first read, so the
    /// changed epoch lets the reclaimer through while the steal holds the
    /// chain. The real reclaimer sees the short (or null) detach and aborts.
    fn steal_script() -> Vec<RtCall> {
        vec![
            Enter, Deref, Release, Exit, Enter, Alloc, Exit, Enter, Release, Exit,
        ]
    }

    #[test]
    fn steal_during_a_retire_survives_every_interleaving() {
        let (r, retired) = run(steal_script(), None);
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert!(retired, "no schedule retired the segment");
        println!(
            "steal vs retire: {} states, {} finals",
            r.states, r.final_states
        );
    }

    /// Mutant 1: the dereference outside the bracket. The grace period
    /// sees an even epoch while the op thread sits between its link read
    /// and its count touch, and the segment retires under it.
    #[test]
    fn deref_without_the_bracket_is_caught() {
        let (r, _) = run(vec![Deref, Enter, Release, Exit], None);
        let v = r.violation.expect("an unbracketed deref must be caught");
        assert!(v.0.contains("use-after-retire"), "{}", v.0);
        println!("unbracketed deref: {}", v.0);
    }

    /// Mutant 2: the reclaimer treats a null post-grace detach as a full
    /// collection and retires while the stealer holds the chain.
    #[test]
    fn null_detach_treated_as_full_is_caught() {
        let (r, _) = run(steal_script(), Some(RtMutant::NullDetachIsFull));
        let v = r.violation.expect("a null detach must not retire");
        assert!(v.0.contains("use-after-retire"), "{}", v.0);
        println!("null detach mutant: {}", v.0);
    }
}
