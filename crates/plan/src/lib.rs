//! Query plan representation for the MPQ optimizer.
//!
//! Two representations are used, mirroring Section 5.2 of the paper:
//!
//! * [`Plan`] — a full operator tree, its operators in post-order
//!   ([`PlanOp`]), plus its root cost. Its operators are what workers
//!   serialize and send back to the master, one byte each ("Storing plans
//!   generally takes `O(n)` space"); the master prices them itself. It is
//!   also the user-facing result type. Per-node costs,
//!   cardinalities and orders are recomputed from the query where they
//!   are wanted (`mpq_dp::explain`), not carried.
//! * [`PlanEntry`] — the compact memo representation: an operator tag plus
//!   references to the two child memo slots ("each plan can be represented
//!   by at most two pointers to optimal sub-plans ... which requires only
//!   `O(1)` space").
//!
//! [`pruning::PruningPolicy`] implements the two pruning functions the
//! paper plugs into the same dynamic program: classical single-objective
//! pruning with interesting orders, and multi-objective α-approximate
//! Pareto pruning (Trummer & Koch, SIGMOD 2014).
//!
//! [`cache`] provides the **cross-query cache**: canonical query
//! signatures and a byte-budgeted LRU ([`MemoCache`]) that lets the
//! resident service serve finished results — optimal plans and Pareto
//! frontiers — to later queries with identical statistics, predicates and
//! cost-model parameters.

#![forbid(unsafe_code)]

pub mod cache;
pub mod entry;
pub mod pruning;
pub mod tree;

pub use cache::{
    query_signature, query_signature_with_room, CacheKey, CacheKeyBuilder, CacheStats, CacheWeight,
    MemoCache,
};
pub use entry::{PlanEntry, PlanNode};
pub use pruning::{KeyedSlot, PruningPolicy};
pub use tree::{Plan, PlanError, PlanOp};
