//! Dynamic lock-free data structures over pluggable memory reclamation.
//!
//! The paper's §3.2 claims its wait-free memory management is "compatible
//! to previous implementations of non-blocking dynamic data structures";
//! this crate is that claim made executable. Every reference-counted
//! structure here is generic over [`manager::RcMm`], so the same code runs
//! over the wait-free scheme (`wfrc-core`) and the Valois lock-free
//! baseline (`wfrc-baselines::lfrc`) — exactly the §5 experiment setup.
//!
//! * [`stack`] — Treiber stack (the canonical §3.2 usage example).
//! * [`queue`] — Michael–Scott two-lock-free queue.
//! * [`priority_queue`] — skiplist-based priority queue in the style of
//!   Sundell & Tsigas \[18\], the structure the paper's experiment used.
//! * [`ordered_list`] — ordered set with marked links (Harris-style
//!   deletion adapted to reference counting).
//! * [`hash_map`] — fixed-bucket lock-free hash map over ordered-list
//!   buckets (Michael's PODC 2002 shape).
//! * [`lru_list`] — recency list whose back edges and tail hint are weak
//!   references (PR 10): the cycle-free doubly-linked shape the
//!   benchmark's `graph` workload drives.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod hash_map;
pub mod lru_list;
pub mod manager;
pub mod ordered_list;
pub mod priority_queue;
pub mod queue;
pub mod stack;

pub use hash_map::{HashMap, SessionCache, SessionHandle, SessionMm};
pub use lru_list::{LruCell, LruList};
pub use manager::{ByteMm, RcMm, RcMmDomain};
pub use ordered_list::{ListCell, OrderedList};
pub use priority_queue::{PqCell, PriorityQueue};
pub use queue::{Queue, QueueCell};
pub use stack::{Stack, StackCell};
