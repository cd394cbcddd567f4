//! The exhaustive scheduler: depth-first search over all interleavings of
//! a model's threads, with visited-state memoization. One DFS serves every
//! model ([`crate::machine`], [`crate::flmodel`], [`crate::rtmodel`]): each
//! supplies its shared state and a [`Thread`] step machine.

use std::collections::HashSet;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::flmodel::{FlMachine, FlShared};
use crate::machine::Machine;
use crate::rtmodel::{RtMachine, RtShared};
use crate::shared::Shared;

/// One thread of a model: a step machine over shared state `S`. A step is
/// one atomic action; the explorer interleaves steps of runnable threads in
/// every order.
pub trait Thread<S>: Clone + Eq + Hash {
    /// True once the thread's script has run to completion.
    fn done(&self) -> bool;
    /// Executes one atomic step against `shared`.
    fn step(&mut self, shared: &mut S);
}

impl Thread<Shared> for Machine {
    fn done(&self) -> bool {
        Machine::done(self)
    }
    fn step(&mut self, shared: &mut Shared) {
        Machine::step(self, shared);
    }
}

impl Thread<FlShared> for FlMachine {
    fn done(&self) -> bool {
        FlMachine::done(self)
    }
    fn step(&mut self, shared: &mut FlShared) {
        FlMachine::step(self, shared);
    }
}

impl Thread<RtShared> for RtMachine {
    fn done(&self) -> bool {
        RtMachine::done(self)
    }
    fn step(&mut self, shared: &mut RtShared) {
        RtMachine::step(self, shared);
    }
}

/// A detected protocol violation (the message of the failed model
/// assertion).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation(pub String);

/// Outcome of an exploration.
#[derive(Debug)]
pub struct ExploreResult {
    /// Distinct `(shared, machines)` states visited.
    pub states: usize,
    /// Distinct final (quiescent) states reached.
    pub final_states: usize,
    /// The first violation found, if any.
    pub violation: Option<Violation>,
}

/// Explores every interleaving of `machines` starting from `initial`,
/// running `check_final` once on every distinct quiescent state (shared
/// state and threads together). Model assertions (use-after-free, double
/// free, underflow, linearizability witnesses, touching a retired node)
/// and `check_final` panics are reported as [`Violation`]s.
pub fn explore<S, M>(
    initial: S,
    machines: Vec<M>,
    check_final: impl Fn(&S, &[M]) + Copy,
) -> ExploreResult
where
    S: Clone + Eq + Hash,
    M: Thread<S>,
{
    let mut visited: HashSet<(S, Vec<M>)> = HashSet::new();
    let mut finals: HashSet<(S, Vec<M>)> = HashSet::new();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        dfs(initial, machines, &mut visited, &mut finals, &check_final);
    }));
    ExploreResult {
        states: visited.len(),
        final_states: finals.len(),
        violation: outcome.err().map(|e| {
            let msg = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".into());
            Violation(msg)
        }),
    }
}

fn dfs<S, M>(
    shared: S,
    machines: Vec<M>,
    visited: &mut HashSet<(S, Vec<M>)>,
    finals: &mut HashSet<(S, Vec<M>)>,
    check_final: &impl Fn(&S, &[M]),
) where
    S: Clone + Eq + Hash,
    M: Thread<S>,
{
    if !visited.insert((shared.clone(), machines.clone())) {
        return;
    }
    let runnable: Vec<usize> = (0..machines.len())
        .filter(|&i| !machines[i].done())
        .collect();
    if runnable.is_empty() {
        if finals.insert((shared.clone(), machines.clone())) {
            check_final(&shared, &machines);
        }
        return;
    }
    for i in runnable {
        let mut s2 = shared.clone();
        let mut m2 = machines.clone();
        m2[i].step(&mut s2);
        dfs(s2, m2, visited, finals, check_final);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Call, DerefKind};
    use crate::shared::MODEL_NODES;

    /// Script: thread 1 swings the link from node 0 to node 1 and frees the
    /// old target; thread 0 dereferences concurrently.
    fn swing_scripts(kind: DerefKind) -> Vec<Machine> {
        vec![
            Machine::new(0, vec![Call::Deref(kind), Call::ReleaseResult]),
            Machine::new(
                1,
                vec![
                    Call::FixRef(1, 2), // link's count on the new target
                    Call::CasLink {
                        old: Some(0),
                        new: Some(1),
                    },
                    Call::ReleaseIfCasOk(0),     // the link's old count
                    Call::ReleaseIfCasFailed(1), // undo the speculation
                    Call::Release(1),            // drop own reference on b
                ],
            ),
        ]
    }

    fn final_check(s: &Shared, ms: &[Machine]) {
        // T1's CAS is the only link write and T0 never writes, so the CAS
        // must have succeeded in every execution.
        assert!(ms[1].cas_ok, "CAS cannot fail in this scenario");
        assert_eq!(s.link, Some(1));
        // Node 0: unlinked, fully released -> must be reclaimed.
        assert!(s.freed[0], "old target must be reclaimed: {s:?}");
        assert_eq!(s.mm_ref[0], 1);
        // Node 1: held only by the link.
        assert!(!s.freed[1]);
        assert_eq!(s.mm_ref[1], 2, "{s:?}");
        // T0's result must have been node 0, node 1 — never garbage (the
        // use-after-free assertion fired inside the machines if so).
        assert!(ms[0].result == Some(0) || ms[0].result == Some(1));
        // No announcement residue.
        for t in 0..crate::shared::MODEL_THREADS {
            for i in 0..crate::shared::MODEL_THREADS {
                assert_eq!(s.ann_busy[t][i], 0);
                assert_eq!(s.ann_read[t][i], crate::shared::AnnWord::Empty);
            }
        }
        let _ = MODEL_NODES;
    }

    #[test]
    fn wait_free_deref_survives_every_interleaving() {
        let r = explore(
            Shared::initial(),
            swing_scripts(DerefKind::WaitFree),
            final_check,
        );
        assert!(
            r.violation.is_none(),
            "wait-free protocol violated: {:?}",
            r.violation
        );
        assert!(r.states > 100, "exploration too small: {} states", r.states);
        println!(
            "wait-free swing: {} states, {} finals",
            r.states, r.final_states
        );
    }

    /// The implementation's dereference: one validated Valois attempt in
    /// front of D1–D10. Every interleaving with the swing ends with the
    /// same books as the paper's own, whichever path the reader took.
    #[test]
    fn fast_deref_survives_every_interleaving() {
        let r = explore(
            Shared::initial(),
            swing_scripts(DerefKind::Fast),
            final_check,
        );
        assert!(
            r.violation.is_none(),
            "fast attempt violated: {:?}",
            r.violation
        );
        assert!(r.states > 100, "exploration too small: {} states", r.states);
        println!("fast swing: {} states, {} finals", r.states, r.final_states);
    }

    /// The fast attempt's two mutants: without the re-load it is the naive
    /// dereference ([`DerefKind::Unsafe`], step for step), and with the
    /// re-load before the increment it is the classic Valois bug. The
    /// explorer must find the use-after-free in both.
    #[test]
    fn fast_attempt_mutants_are_caught() {
        for kind in [DerefKind::Unsafe, DerefKind::FastReloadFirst] {
            let r = explore(Shared::initial(), swing_scripts(kind), |_, _| {});
            let v = r
                .violation
                .unwrap_or_else(|| panic!("{kind:?} must exhibit use-after-free"));
            assert!(
                v.0.contains("use-after-free"),
                "{kind:?}: expected use-after-free, got: {}",
                v.0
            );
        }
    }

    #[test]
    fn naive_deref_is_caught() {
        let r = explore(
            Shared::initial(),
            swing_scripts(DerefKind::Unsafe),
            |_, _| {},
        );
        let v = r
            .violation
            .expect("the naive dereference must exhibit use-after-free");
        assert!(
            v.0.contains("use-after-free"),
            "expected use-after-free, got: {}",
            v.0
        );
    }

    /// The presence-bit mutants (see [`DerefKind`]): each lets the writer's
    /// `HelpDeRef` find the summary empty while the reader sits between its
    /// D4 read and its D5 increment, and the explorer must come back with
    /// the naive dereference's trace.
    #[test]
    fn presence_bit_mutants_are_caught() {
        for kind in [DerefKind::RaiseAfterRead, DerefKind::LowerBeforeFaa] {
            let r = explore(Shared::initial(), swing_scripts(kind), |_, _| {});
            let v = r
                .violation
                .unwrap_or_else(|| panic!("{kind:?} must exhibit use-after-free"));
            assert!(
                v.0.contains("use-after-free"),
                "{kind:?}: expected use-after-free, got: {}",
                v.0
            );
        }
    }

    /// The bit across registrations: the reader dereferences, unregisters
    /// (the one place the bit falls), and its id's next owner dereferences
    /// again — every step of it racing the writer's swing and release.
    #[test]
    fn bit_lowered_at_unregister_survives_every_interleaving() {
        for kind in [DerefKind::WaitFree, DerefKind::Fast] {
            let registration = [Call::Deref(kind), Call::ReleaseResult, Call::Unregister];
            let mut ms = swing_scripts(kind);
            ms[0] = Machine::new(0, [registration, registration].concat());
            let r = explore(Shared::initial(), ms, |s, ms| {
                final_check(s, ms);
                assert!(!s.summary[0], "Unregister must leave the bit down: {s:?}");
            });
            assert!(r.violation.is_none(), "{kind:?}: {:?}", r.violation);
            println!(
                "{kind:?} two registrations vs swing: {} states, {} finals",
                r.states, r.final_states
            );
        }
    }

    #[test]
    fn two_concurrent_derefs_are_harmless() {
        let ms = vec![
            Machine::new(
                0,
                vec![Call::Deref(DerefKind::WaitFree), Call::ReleaseResult],
            ),
            Machine::new(
                1,
                vec![Call::Deref(DerefKind::WaitFree), Call::ReleaseResult],
            ),
        ];
        let r = explore(Shared::initial(), ms, |s, ms| {
            assert_eq!(s.mm_ref, [2, 2], "counts must be restored: {s:?}");
            assert_eq!(ms[0].result, Some(0));
            assert_eq!(ms[1].result, Some(0));
            assert!(!s.freed[0]);
        });
        assert!(r.violation.is_none(), "{:?}", r.violation);
    }

    #[test]
    fn clear_to_null_with_concurrent_deref() {
        for kind in [DerefKind::WaitFree, DerefKind::Fast] {
            let ms = vec![
                Machine::new(0, vec![Call::Deref(kind), Call::ReleaseResult]),
                Machine::new(
                    1,
                    vec![
                        Call::CasLink {
                            old: Some(0),
                            new: None,
                        },
                        Call::ReleaseIfCasOk(0),
                    ],
                ),
            ];
            let r = explore(Shared::initial(), ms, |s, ms| {
                assert!(ms[1].cas_ok);
                assert_eq!(s.link, None);
                assert!(s.freed[0], "{s:?}");
                assert!(ms[0].result == Some(0) || ms[0].result.is_none());
            });
            assert!(r.violation.is_none(), "{kind:?}: {:?}", r.violation);
            println!(
                "{kind:?} clear: {} states, {} finals",
                r.states, r.final_states
            );
        }
    }

    /// PR 10, the tentpole property over **every** interleaving: a weak
    /// upgrade racing a release-to-zero. Thread 1 starts with one weak
    /// reference on node 0 and tries to upgrade while thread 0 clears the
    /// link and releases its count. The per-step assertions prove the
    /// upgrade is linearized at its CAS (success ⇒ the node was not freed
    /// at that access; failure ⇒ the claim had been taken), and the final
    /// check proves the DEAD-but-weak lifecycle always converges: the
    /// header frees exactly once, after the last weak drop.
    #[test]
    fn weak_upgrade_races_release_to_zero_every_interleaving() {
        let mut init = Shared::initial();
        init.weak[0] = 1; // T1's pre-existing weak reference
        let ms = vec![
            Machine::new(
                0,
                vec![
                    Call::CasLink {
                        old: Some(0),
                        new: None,
                    },
                    Call::ReleaseIfCasOk(0),
                ],
            ),
            Machine::new(
                1,
                vec![
                    Call::WeakUpgrade(0),
                    Call::ReleaseIfUpgradeOk(0),
                    Call::WeakRelease(0),
                ],
            ),
        ];
        let r = explore(init, ms, |s, ms| {
            assert!(ms[0].cas_ok, "the CAS cannot fail in this scenario");
            assert_eq!(s.link, None);
            // Whatever the interleaving — upgrade first (revival), claim
            // first (dead), or the pre-claim window — every count drains
            // and the header frees exactly once.
            assert!(s.freed[0], "DEAD-but-weak header never freed: {s:?}");
            assert_eq!(s.weak[0], 0, "{s:?}");
            assert!(!s.dead[0], "finalize must clear DEAD: {s:?}");
            assert_eq!(s.mm_ref[0], 1, "{s:?}");
        });
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert!(r.states > 30, "exploration too small: {} states", r.states);
        println!(
            "weak upgrade race: {} states, {} finals",
            r.states, r.final_states
        );
    }

    /// Two concurrent weak drops against a release-to-zero: the finalize
    /// CAS must have exactly one winner in every interleaving (the
    /// double-free assertion is the teeth).
    #[test]
    fn concurrent_weak_drops_finalize_exactly_once() {
        let mut init = Shared::initial();
        init.weak[0] = 2; // one weak reference per thread
        let ms = vec![
            Machine::new(
                0,
                vec![
                    Call::CasLink {
                        old: Some(0),
                        new: None,
                    },
                    Call::ReleaseIfCasOk(0),
                    Call::WeakRelease(0),
                ],
            ),
            Machine::new(1, vec![Call::WeakRelease(0)]),
        ];
        let r = explore(init, ms, |s, _| {
            assert!(s.freed[0], "{s:?}");
            assert_eq!(s.weak[0], 0, "{s:?}");
            assert!(!s.dead[0], "{s:?}");
        });
        assert!(r.violation.is_none(), "{:?}", r.violation);
        println!(
            "weak drop race: {} states, {} finals",
            r.states, r.final_states
        );
    }

    /// A downgrade-then-upgrade running against the full wait-free
    /// dereference machinery: the weak tier must compose with
    /// announcements and helping, not just with plain releases.
    #[test]
    fn weak_ops_compose_with_wait_free_deref() {
        let mut init = Shared::initial();
        init.weak[0] = 1;
        let ms = vec![
            Machine::new(
                0,
                vec![Call::Deref(DerefKind::WaitFree), Call::ReleaseResult],
            ),
            Machine::new(
                1,
                vec![
                    Call::WeakUpgrade(0),
                    Call::ReleaseIfUpgradeOk(0),
                    Call::WeakRelease(0),
                ],
            ),
        ];
        let r = explore(init, ms, |s, ms| {
            // The link is never cleared, so node 0 survives with exactly
            // the link's count, and the deref returned it.
            assert!(!s.freed[0], "{s:?}");
            assert_eq!(s.mm_ref[0], 2, "{s:?}");
            assert_eq!(s.weak[0], 0, "{s:?}");
            assert!(ms[1].upgrade_ok, "link count was live throughout");
            assert_eq!(ms[0].result, Some(0));
        });
        assert!(r.violation.is_none(), "{:?}", r.violation);
    }

    /// A fast attempt's speculative increment landing on a DEAD-but-weak
    /// header: thread 0 clears the link, releases to zero with its weak
    /// reference standing, then drops the weak; thread 1's attempt loads
    /// the old target, increments, misses, and releases. Whichever of the
    /// two drops last must see the finalize sentinel — the header frees
    /// exactly once in every interleaving.
    #[test]
    fn fast_miss_on_a_dead_but_weak_header_finalizes_once() {
        let mut init = Shared::initial();
        init.weak[0] = 1; // T0's weak reference
        let ms = vec![
            Machine::new(
                0,
                vec![
                    Call::CasLink {
                        old: Some(0),
                        new: None,
                    },
                    Call::ReleaseIfCasOk(0),
                    Call::WeakRelease(0),
                ],
            ),
            Machine::new(1, vec![Call::Deref(DerefKind::Fast), Call::ReleaseResult]),
        ];
        let r = explore(init, ms, |s, ms| {
            assert!(ms[0].cas_ok);
            assert!(ms[1].result == Some(0) || ms[1].result.is_none());
            assert!(s.freed[0], "DEAD-but-weak header never freed: {s:?}");
            assert_eq!(s.weak[0], 0, "{s:?}");
            assert!(!s.dead[0], "finalize must clear DEAD: {s:?}");
            assert_eq!(s.mm_ref[0], 1, "{s:?}");
        });
        assert!(r.violation.is_none(), "{:?}", r.violation);
        println!(
            "fast miss on DEAD-but-weak: {} states, {} finals",
            r.states, r.final_states
        );
    }

    #[test]
    fn double_swing_ping_pong() {
        // T1 swings a->b while T0 dereferences twice — the paper's
        // dereference, then the fast attempt — helping in both directions.
        let ms = vec![
            Machine::new(
                0,
                vec![
                    Call::Deref(DerefKind::WaitFree),
                    Call::ReleaseResult,
                    Call::Deref(DerefKind::Fast),
                    Call::ReleaseResult,
                ],
            ),
            Machine::new(
                1,
                vec![
                    Call::FixRef(1, 2),
                    Call::CasLink {
                        old: Some(0),
                        new: Some(1),
                    },
                    Call::ReleaseIfCasOk(0),
                    Call::ReleaseIfCasFailed(1),
                    Call::Release(1),
                ],
            ),
        ];
        let r = explore(Shared::initial(), ms, |s, _| {
            assert!(s.freed[0]);
            assert!(!s.freed[1]);
            assert_eq!(s.mm_ref[1], 2);
        });
        assert!(r.violation.is_none(), "{:?}", r.violation);
    }
}
