//! Baseline memory-reclamation schemes for the reproduction.
//!
//! The paper's §5 evaluation compares its wait-free scheme against "the
//! default lock-free memory management scheme" of the NOBLE library — the
//! Valois / Michael–Scott corrected lock-free reference counting — and its
//! introduction contrasts reference counting against the fixed-reference
//! schemes used in practice. This crate implements all three comparators
//! from their original papers:
//!
//! * [`lfrc`] — **lock-free reference counting** (Valois 1995; Michael &
//!   Scott 1995 correction). Same node representation, same even/odd
//!   `mm_ref` convention as `wfrc-core`, but dereferencing retries
//!   unboundedly and the free-list is a single CAS-contended Treiber list.
//!   This is the baseline of every `benchmark/` workload and of E4/E7.
//! * [`hazard`] — **hazard pointers** (Michael, PODC 2002 / TPDS 2004): a
//!   fixed number of per-thread protected pointers, amortized scan-and-free.
//!   Lock-free dereference, wait-free reclamation, but — as the paper's
//!   introduction notes — "only … a fixed number of references from process
//!   owned variables" can be protected, so it cannot express structures
//!   that hold arbitrary references from within the structure itself.
//! * [`epoch`] — **epoch-based reclamation** (Fraser-style three-epoch
//!   scheme, what today's OSS — crossbeam — ships): cheap pinned reads,
//!   but a single stalled reader halts reclamation globally, which is why
//!   it was never a candidate for the paper's real-time setting.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod epoch;
pub mod hazard;
pub mod lfrc;

pub use lfrc::{Lf, LfrcDomain, LfrcHandle};
