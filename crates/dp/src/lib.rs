//! The per-partition dynamic program — the `Worker` function of
//! Algorithm 2.
//!
//! Given a query and a constraint set decoded from a partition ID, the
//! worker
//!
//! 1. enumerates the admissible join results (`AdmJoinResults`,
//!    crate `mpq-partition`),
//! 2. seeds the memo with scan plans for every single table,
//! 3. visits admissible sets in an order that guarantees subsets come
//!    first, trying every constraint-respecting split of each set into two
//!    operands (`TrySplits`, [`worker`]) and pruning dominated plans, and
//! 4. reconstructs and returns the best complete plan(s) of the partition.
//!
//! Running the worker with an empty constraint set *is* the classical
//! serial algorithm ("If we use one worker then MPQ is equivalent to the
//! classical query optimization algorithms as it treats the same table sets
//! in the same order", Section 6.2); [`optimize_serial`] exposes exactly
//! that.
//!
//! There is one memo, [`ArenaMemo`] ([`arena`] — one contiguous entry
//! array with write-once per-set spans addressed by the dense
//! admissible-set index), and two ways to fill it bottom-up: the streaming
//! kernel ([`optimize_partition_parallel`] — per-order-class minima,
//! optional intra-worker parallelism via [`ParallelPolicy`]; the default)
//! and the textbook slot-at-a-time loop ([`optimize_partition_reference`])
//! that the differential suites hold it to, bit for bit. Top-down,
//! parametric and SMA's per-set enumeration run on the same memo.
//!
//! [`cached`] wraps the partition optimizers in the cross-query memo
//! cache (`mpq_plan::cache`): repeated subproblems — same canonical query
//! signature, statistics epoch, space, objective and partition scope —
//! are served from finished results instead of re-running the DP.

#![forbid(unsafe_code)]

pub mod arena;
pub mod cached;
pub mod naive;
pub mod parametric;
pub mod reconstruct;
pub mod stats;
pub mod topdown;
pub mod worker;

#[doc(hidden)]
pub use arena::OrderClassMinima;
pub use arena::{optimize_partition_parallel, ArenaMemo, ParallelPolicy};
pub use cached::{
    optimize_partition_id_cached, optimize_partition_id_cached_parallel,
    optimize_partition_topdown_cached, optimize_serial_cached, push_scope, PlanCache,
};
pub use naive::{exhaustive_frontier, exhaustive_linear_best_time};
pub use parametric::{
    interpolate, merge_parametric, optimize_parametric, optimize_parametric_partition, pick_for,
    ParametricOutcome, ParametricQuery,
};
pub use reconstruct::reconstruct_plan;
pub use stats::WorkerStats;
pub use topdown::optimize_partition_topdown;
pub use worker::{
    complete_plans, compute_entries_for_set, optimize_partition, optimize_partition_id,
    optimize_partition_reference, optimize_serial, seed_scans, PartitionOutcome,
};
