//! Cardinality estimation and operator cost formulas.
//!
//! The paper (Section 6.1) uses "standard cost formulas [Steinbrunn et al.]
//! to estimate the cost of standard join operators such as block-nested loop
//! join, hash join, and sort-merge join", execution time as the first cost
//! metric, and buffer-space consumption as the second metric for the
//! multi-objective experiments. This crate implements exactly that:
//!
//! * [`cardinality`] — System-R style estimates under the independence
//!   assumption; the estimate for a table set depends only on the set, never
//!   on the plan producing it, which the dynamic program relies on — and
//!   why it can keep one [`SetStats`] per table set in its memo.
//! * [`operators`] — scan and join operator implementations
//!   ([`JoinOp::NestedLoop`], [`JoinOp::Hash`], [`JoinOp::SortMerge`])
//!   with their time and buffer cost formulas, and the sort orders they
//!   require/produce (interesting orders, Section 5.4); [`SplitCosts`]
//!   evaluates the formulas once per split for the DP's inner loop.
//! * [`predicates`] — the per-query predicate index behind the selectivity
//!   product, the sort-merge rule and the interesting-order liveness rule
//!   derived from it.
//! * [`vector`] — fixed-arity cost vectors and (approximate) Pareto
//!   domination used by single- and multi-objective pruning.

#![forbid(unsafe_code)]

pub mod cardinality;
pub mod operators;
pub mod predicates;
pub mod vector;

pub use cardinality::{CardinalityEstimator, SetStats};
pub use operators::{JoinFloor, JoinOp, Order, ScanOp, SplitCosts, JOIN_OPS};
pub use predicates::{InsidePredicates, PredicateIndex};
pub use vector::{CostVector, Objective};
