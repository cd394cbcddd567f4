//! Machine-model substrate for the wait-free reference counting scheme.
//!
//! The paper (Sundell, *Wait-Free Reference Counting and Memory Management*,
//! IPPS 2005) assumes a cache-coherent shared-memory multiprocessor that
//! provides three single-word read-modify-write primitives (its Figure 2):
//!
//! * `FAA` — fetch-and-add,
//! * `CAS` — compare-and-swap,
//! * `SWAP` — unconditional exchange.
//!
//! This crate wraps those primitives ([`atomics`]) with the memory orderings
//! the rest of the workspace relies on, and provides the small amount of
//! low-level machinery every lock-free/wait-free crate here shares:
//! cache-line padding ([`pad`]), bounded exponential backoff for the
//! *lock-free baselines* ([`backoff`] — the wait-free algorithms never spin),
//! and tagged-pointer utilities ([`tagged`]) used by the announcement
//! protocol and by marked links in the data structures.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod atomics;
pub mod backoff;
pub mod pad;
pub mod spin;
pub mod tagged;

pub use atomics::{AtomicWord, WordPtr};
pub use backoff::Backoff;
pub use pad::CachePadded;
