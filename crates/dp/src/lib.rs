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
//! There is one memo, [`ArenaMemo`] ([`arena`] — one write-once record per
//! admissible set, statistics and entry span, addressed by the dense
//! admissible-set index over one contiguous entry array), and two ways to
//! fill it bottom-up: the streaming kernel ([`optimize_partition`] —
//! per-order-class minima compared on time, cost vectors and entries built
//! only for the candidates that are kept; the default) and the textbook
//! slot-at-a-time loop ([`optimize_partition_reference`]) that the
//! differential suites hold it to, bit for bit. Parametric and SMA's
//! per-set enumeration run on the same memo.
//!
//! [`explain()`] recomputes a finished plan's per-node costs, cardinalities
//! and orders from its query, bit for bit as the kernels computed them,
//! and a [`Pricer`] gives a received plan its cost that way: on the wire
//! a plan is its operator tree alone.
//!
//! [`cached`] holds the keys of the cross-query result cache the service
//! facade keeps (`mpq_plan::cache`): a repeated query — same canonical
//! signature, statistics epoch, space and objective — is served its
//! finished result instead of re-running the DP.

#![forbid(unsafe_code)]

pub mod arena;
pub mod cached;
pub mod explain;
pub mod naive;
pub mod parametric;
pub mod reconstruct;
pub mod stats;
pub mod worker;

pub use arena::{optimize_partition, ArenaMemo, ParallelPolicy};
#[doc(hidden)]
pub use arena::{ClassMinima, ParetoSink};
pub use cached::{push_scope, result_key, PlanCache};
pub use explain::{
    explain, ExplainError, Explanation, NodeEstimate, PriceError, PricedPlan, Pricer,
};
pub use naive::{exhaustive_frontier, exhaustive_linear_best_time};
pub use parametric::{
    interpolate, merge_parametric, optimize_parametric, optimize_parametric_partition, pick_for,
    ParametricOutcome, ParametricQuery,
};
pub use reconstruct::reconstruct_plan;
pub use stats::WorkerStats;
pub use worker::{
    complete_plans, compute_entries_for_set, optimize_partition_id, optimize_partition_reference,
    optimize_serial, seed_scans, PartitionOutcome,
};
#[doc(hidden)]
pub use worker::{join_plans, Candidate, CandidateSink};
