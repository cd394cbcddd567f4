//! Wait-free reference counting and memory management.
//!
//! This crate is a complete implementation of Håkan Sundell's *Wait-Free
//! Reference Counting and Memory Management* (Chalmers TR 2004-10 /
//! IPPS 2005): the first wait-free garbage-collection scheme based on
//! reference counting that supports arbitrary dynamic concurrent data
//! structures, plus its companion wait-free free-list for fixed-size memory
//! blocks.
//!
//! # Why this exists
//!
//! Lock-free reference counting (Valois 1995; Michael & Scott 1995) lets a
//! thread safely dereference a shared link by optimistically bumping the
//! target's reference count and re-checking the link — but the re-check can
//! fail forever under contention, so dereferencing is only *lock-free*.
//! Sundell's scheme makes every operation **wait-free**: a thread first
//! *announces* the link it is about to dereference; any thread that changes
//! that link is obliged to *help* pending announcements with a fresh,
//! reference-counted answer before it may drop the old target's reference.
//! A per-thread pool of announcement slots guarded by busy counters defeats
//! the ABA problem of slow helpers. Similarly, allocation round-robins help
//! across threads so no allocator can starve on the free-list CAS.
//!
//! # Map to the paper
//!
//! | Paper | Here |
//! |---|---|
//! | Figure 3 `Node` (`mm_ref`, `mm_next`) | [`node`] |
//! | type-stable memory assumption | [`arena`] |
//! | announcement matrices (`annReadAddr`, `annIndex`, `annBusy`) | [`announce`] |
//! | Figure 4 `DeRefLink` / `ReleaseRef` / `HelpDeRef` | [`rc`] (driven through [`WfrcDomain`]) |
//! | §3.2 "the same signature as lock-free reference counting" | [`scheme`]: every tier above the pool is written once over it |
//! | Figure 5 `AllocNode` / `FreeNode` / `FixRef` | [`freelist`] |
//! | Figure 6 `CompareAndSwapLink`, §3.2 usage rules | [`link`], [`handle`] |
//! | footnote 4 out-of-memory detection | [`oom`] |
//!
//! # Quickstart
//!
//! ```
//! use wfrc_core::{WfrcDomain, DomainConfig, Link, RcObject};
//!
//! // A payload with one internal link (visited on reclamation, paper R3).
//! struct Cell {
//!     value: u64,
//!     next: Link<Cell>,
//! }
//! impl RcObject for Cell {
//!     fn each_link(&self, f: &mut dyn FnMut(&Link<Self>)) {
//!         f(&self.next);
//!     }
//! }
//! impl Default for Cell {
//!     fn default() -> Self {
//!         Cell { value: 0, next: Link::null() }
//!     }
//! }
//!
//! let domain = WfrcDomain::<Cell>::new(DomainConfig::new(2, 64));
//! let handle = domain.register().unwrap();
//!
//! // AllocNode: returns a node with one reference, RAII-released.
//! let a = handle.alloc_with(|c| c.value = 7).unwrap();
//! assert_eq!(a.value, 7);
//!
//! // Publish it in a shared link, then wait-free dereference it.
//! let root: Link<Cell> = Link::null();
//! handle.store(&root, Some(&a));
//! let again = handle.deref(&root).unwrap();
//! assert_eq!(again.value, 7);
//! drop(again);
//!
//! // Clear the link (CAS + obligatory HelpDeRef + ReleaseRef of the old value).
//! assert!(handle.cas(&root, Some(&a), None));
//! drop(a);
//! assert_eq!(domain.leak_check().live_nodes, 0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod announce;
pub mod arena;
mod bitmap;
pub mod class;
pub mod counters;
pub mod domain;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod freelist;
pub mod handle;
pub mod lease;
pub mod link;
pub mod magazine;
pub mod node;
pub mod oom;
pub mod rc;
pub mod reclaim;
pub mod scheme;

pub use arena::{Growth, CARVE_PAGE, MAX_SEGMENTS};
pub use class::{geometric_ladder, ClassConfig, ClassLeak, RawBytes, CLASS_SIZES, MAX_CLASSES};
pub use counters::{LeaseSnapshot, LeaseStats, OpCounters};
pub use domain::{
    census, AdoptReport, Census, Domain, DomainConfig, LeakReport, LeakRoot, RegistryFull,
    WfrcDomain,
};
#[cfg(feature = "fault-injection")]
pub use fault::{FaultAction, FaultPlan, FaultSite, FireRule, InjectedDeath};
pub use handle::{Handle, NodeRef, PinGuard, Snapshot, ThreadHandle, Weak};
pub use lease::{LeaseConfig, LeaseGuard, LeasePool, LeaseRegistry};
pub use link::{AtomicWeak, Link};
pub use magazine::Magazines;
pub use node::{Claim, Node, RcObject};
pub use oom::OutOfMemory;
pub use reclaim::{ReclaimOutcome, SnapStats};
pub use scheme::{Scheme, Wf};

/// Hard upper bound on threads per domain.
///
/// The announcement matrices are `N x N` words and the free-list has `2N`
/// heads; the bound keeps worst-case helping scans (`HelpDeRef` is `O(N)`)
/// sane. The paper's experiments used at most tens of threads.
pub const MAX_THREADS: usize = 128;
