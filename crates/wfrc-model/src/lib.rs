//! Exhaustive model checking of the wait-free reference counting protocol.
//!
//! The paper proves linearizability and wait-freedom by hand (§4). This
//! crate re-checks the heart of that proof mechanically: the operations of
//! Figure 4 (`DeRefLink`, `ReleaseRef`, `HelpDeRef`) plus Figure 6's
//! `CompareAndSwapLink` are encoded as explicit step machines over a small
//! shared-memory model, and a depth-first scheduler explores **every**
//! interleaving of two threads (with state memoization), asserting:
//!
//! * **No use-after-free** — a completed dereference never returns a node
//!   that is in the free set at the moment of return (the property naive
//!   reference counting violates, and the one the announcement protocol
//!   exists to restore).
//! * **No double-free / negative counts** — `FreeNode` never sees an
//!   already-freed node; `mm_ref` never underflows.
//! * **Linearizability witnesses** — every dereference returns a value the
//!   link actually held at some instant inside the operation's window
//!   (Lemma 2's statement, checked per schedule).
//! * **Exact final accounting** — at quiescence, every node's `mm_ref`
//!   matches the surviving references, and exactly the right nodes were
//!   reclaimed.
//!
//! The checker has teeth: [`machine::DerefKind::Unsafe`] models the naive
//! dereference (read, then increment, no announcement, no re-check) and
//! the explorer *finds* the use-after-free within a few hundred states —
//! see `naive_deref_is_caught` in the tests. The wait-free dereference
//! passes the same exploration exhaustively, and so does
//! [`machine::DerefKind::Fast`], the implementation's one validated Valois
//! attempt in front of it, whose re-load-before-increment mutant is caught.
//!
//! Three protocol families are modeled:
//!
//! * [`machine`]/[`shared`] — the Figure 4 announcement protocol, with
//!   reclamation abstracted to a free set, extended (PR 10) with the
//!   packed strong/weak word: the weak-aware release claim, the
//!   DEAD-but-weak header state, the finalize CAS, and the upgrade whose
//!   success is linearized at a single CAS (succeeds iff the claim bit is
//!   clear — checked against the free set on every interleaving);
//! * [`flmodel`] — the Figure 5 free-list with round-robin gifting,
//!   checking count conservation, distinct allocation, bounded steps, and
//!   the necessity of the F3 correction (DESIGN.md §4a);
//! * [`rtmodel`] — segment retirement (DESIGN.md §4c) against an op thread
//!   that dereferences, `FixRef`s, releases and allocates (stealing from the
//!   parking chain): no step touches a node of a retired segment, `FixRef`
//!   needs no quiescence bracket under a held reference, and the explorer
//!   rejects an unbracketed dereference and a reclaimer that treats a null
//!   detach as a full collection.
//!
//! One depth-first explorer ([`explore()`]) serves all three through the
//! [`Thread`] trait.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![forbid(unsafe_code)]

pub mod explore;
pub mod flmodel;
pub mod machine;
pub mod rtmodel;
pub mod shared;

pub use explore::{explore, ExploreResult, Thread, Violation};
pub use machine::{Call, DerefKind, Machine};
pub use shared::{Claim, NodeId, Shared, MODEL_THREADS};
