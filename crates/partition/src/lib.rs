//! Plan-space partitioning — the core contribution of Trummer & Koch
//! (VLDB 2016).
//!
//! The plan space of a query is divided into `m = 2^l` equal partitions by
//! choosing, for each of `l` disjoint table groups, one of two complementary
//! join-order constraints. Each worker decodes its partition ID into a
//! constraint set (Algorithm 3, [`space::partition_constraints`]), derives
//! the set of *admissible* intermediate join results (Algorithm 4,
//! [`AdmissibleSets`]) and runs an unmodified dynamic program over only
//! those sets. The union of the partitions covers the whole space, so the
//! best of the per-partition optima is the global optimum.
//!
//! * Linear (left-deep) spaces constrain table *pairs*: `x ≺ y` ("join `x`
//!   before `y`") removes every set containing `y` without `x` — 1/4 of all
//!   sets, leaving the 3/4 factor of Theorem 2.
//! * Bushy spaces constrain table *triples*: `x ⪯ y | z` removes every set
//!   containing `y` and `z` without `x` — 1/8 of all sets, leaving the 7/8
//!   factor of Theorem 3.
//!
//! Because admissible sets are a Cartesian product of per-group admissible
//! local subsets, they admit a **dense mixed-radix index**
//! ([`AdmissibleSets::index_of`]): the memo of the dynamic program becomes a
//! flat array with O(1) lookup and zero hashing, and iterating indices in
//! ascending order visits every subset of a set before the set itself.

#![forbid(unsafe_code)]

pub mod admissible;
pub mod constraints;
pub mod grouping;
pub mod space;

pub use admissible::{AdmissibleSets, SplitPart, MAX_GROUPS};
pub use constraints::{Constraint, ConstraintSet};
pub use grouping::Grouping;
pub use space::{effective_workers, is_partition_range, partition_constraints, PlanSpace};
