//! # wfrc — Wait-Free Reference Counting and Memory Management
//!
//! A complete Rust implementation of Håkan Sundell's *Wait-Free Reference
//! Counting and Memory Management* (Chalmers TR 2004-10 / IPPS 2005),
//! together with the baselines it is evaluated against and the data
//! structures that exercise it. This crate is the umbrella: it re-exports
//! the workspace and hosts the runnable examples and cross-crate
//! integration tests.
//!
//! * [`core`] (`wfrc-core`) — the paper's contribution: wait-free
//!   `DeRefLink`/`ReleaseRef`/`HelpDeRef` reference counting (Figure 4) and
//!   the wait-free `AllocNode`/`FreeNode` free-list (Figure 5), behind a
//!   safe RAII API.
//! * [`baselines`] (`wfrc-baselines`) — Valois-style lock-free reference
//!   counting (the paper's §5 comparator), hazard pointers, and
//!   epoch-based reclamation.
//! * [`structures`] (`wfrc-structures`) — Treiber stack, Michael–Scott
//!   queue, skiplist priority queue, and ordered list, generic over the
//!   reference-counting scheme.
//! * [`sim`] (`wfrc-sim`) — the measurement harness behind the `bench/`
//!   diagnostic binaries (see DESIGN.md §5).
//! * [`model`] (`wfrc-model`) — an exhaustive interleaving checker for the
//!   announcement protocol (mechanized Lemma 2, with a demonstrably
//!   detectable naive-scheme bug).
//! * [`primitives`] (`wfrc-primitives`) — FAA/CAS/SWAP wrappers, cache
//!   padding, tagged pointers, backoff.
//!
//! ## Quickstart
//!
//! ```
//! use wfrc::core::{DomainConfig, Link, WfrcDomain};
//!
//! // A domain manages a fixed pool of nodes for up to N threads.
//! let domain = WfrcDomain::<u64>::new(DomainConfig::new(4, 1024));
//! let handle = domain.register().unwrap();
//!
//! let node = handle.alloc_with(|v| *v = 42).unwrap();
//! let shared: Link<u64> = Link::null();
//! handle.store(&shared, Some(&node));
//!
//! // DeRefLink: wait-free, even while other threads retarget `shared`.
//! let seen = handle.deref(&shared).unwrap();
//! assert_eq!(*seen, 42);
//! # drop(seen);
//!
//! // Read-optimized tier (PR 9): pin once, then every read is a plain
//! // load — zero count traffic; upgrade to an owned ref on demand.
//! let guard = handle.pin();
//! let snap = guard.snapshot(&shared).unwrap();
//! assert_eq!(*snap, 42);
//! let owned = snap.upgrade().unwrap();
//! drop(guard);
//! assert_eq!(*owned, 42);
//! # drop(owned);
//! # handle.store(&shared, None);
//! # drop(node);
//! # drop(handle);
//! # assert!(domain.leak_check().is_clean());
//! ```
//!
//! See `examples/quickstart.rs` for a complete program: the API tour with a
//! leak audit at the end.

#![warn(missing_docs)]

pub use wfrc_baselines as baselines;
pub use wfrc_core as core;
pub use wfrc_model as model;
pub use wfrc_primitives as primitives;
pub use wfrc_sim as sim;
pub use wfrc_structures as structures;
