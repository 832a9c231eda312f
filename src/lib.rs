//! # pqopt — parallel query optimization on shared-nothing architectures
//!
//! A from-scratch Rust reproduction of Trummer & Koch, *"Parallelizing Query
//! Optimization on Shared-Nothing Architectures"* (VLDB 2016). The facade
//! crate re-exports the workspace crates; see the individual crates for the
//! full API:
//!
//! * [`model`] — queries, catalogs, statistics, workload generation;
//! * [`cost`] — cardinality estimation and operator cost formulas;
//! * [`plan`] — plan trees, memo entries, pruning functions;
//! * [`partition`] — the paper's plan-space partitioning scheme;
//! * [`dp`] — the per-partition dynamic program (worker algorithm);
//! * [`cluster`] — the simulated shared-nothing cluster substrate;
//! * [`mpq`] — the MPQ master/worker algorithm (the paper's contribution);
//! * [`sma`] — the fine-grained shared-memory-style baseline;
//! * [`service`] — the persistent [`service::OptimizerService`]: one
//!   long-lived MPQ cluster multiplexing many concurrent queries, with
//!   in-flight coalescing and a result cache on top.
//!
//! ## Quickstart
//!
//! ```
//! use pqopt::prelude::*;
//!
//! // Generate a 10-table star query with Steinbrunn-style statistics.
//! let mut gen = WorkloadGenerator::new(WorkloadConfig::paper_default(10), 42);
//! let query = gen.next_query();
//!
//! // Optimize it over 8 simulated shared-nothing workers.
//! let outcome = MpqOptimizer::new(MpqConfig::default())
//!     .optimize(&query, PlanSpace::Linear, Objective::Single, 8);
//! let best = &outcome.plans[0];
//! assert_eq!(best.tables(), query.all_tables());
//! assert!(best.is_left_deep());
//! ```
//!
//! ## Serving a stream of queries
//!
//! For anything beyond a one-off query, keep the cluster resident and
//! stream queries through the [`service::OptimizerService`]:
//!
//! ```
//! use pqopt::prelude::*;
//!
//! let mut service = OptimizerService::spawn(ServiceConfig::new(4)).unwrap();
//! let mut gen = WorkloadGenerator::new(WorkloadConfig::paper_default(8), 7);
//! // Many queries in flight at once on the same four workers.
//! let handles: Vec<_> = (0..4)
//!     .map(|_| {
//!         let q = gen.next_query();
//!         service.submit(&q, PlanSpace::Linear, Objective::Single).unwrap()
//!     })
//!     .collect();
//! for handle in handles {
//!     let plans = service.wait(handle).unwrap();
//!     assert_eq!(plans.len(), 1);
//! }
//! service.shutdown();
//! ```

#![forbid(unsafe_code)]

pub mod service;

pub use mpq_algo as mpq;
pub use mpq_cluster as cluster;
pub use mpq_cost as cost;
pub use mpq_dp as dp;
pub use mpq_exec as exec;
pub use mpq_heuristics as heuristics;
pub use mpq_model as model;
pub use mpq_partition as partition;
pub use mpq_plan as plan;
pub use mpq_sma as sma;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::service::{
        Backend, CoalesceStats, OptimizerService, ServiceConfig, ServiceHandle,
    };
    pub use mpq_algo::{MpqConfig, MpqError, MpqOptimizer, MpqOutcome, MpqService, RetryPolicy};
    pub use mpq_cluster::{ClusterError, FaultPlan, NetworkMetrics, QueryId};
    pub use mpq_cost::{CostVector, Objective};
    pub use mpq_dp::{
        explain, optimize_partition, optimize_serial, ParallelPolicy, PartitionOutcome,
    };
    pub use mpq_exec::{execute, DataConfig, Database};
    pub use mpq_heuristics::{greedy_min_result, IterativeImprovement, SimulatedAnnealing};
    pub use mpq_model::{
        Catalog, JoinGraph, Predicate, Query, TableSet, TableStats, WorkloadConfig,
        WorkloadGenerator,
    };
    pub use mpq_partition::{effective_workers, partition_constraints, PlanSpace};
    pub use mpq_plan::{CacheStats, MemoCache, Plan, PlanOp, PruningPolicy};
    pub use mpq_sma::{SmaError, SmaOptimizer};
}
