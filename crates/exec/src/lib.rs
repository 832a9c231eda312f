//! In-memory execution engine for optimizer-produced plans.
//!
//! The paper evaluates plan *generation*; a system a downstream user would
//! adopt must also run the generated plans. This crate provides the
//! execution substrate:
//!
//! * [`data`] — synthetic table generation consistent with the
//!   catalog statistics the optimizer costs against: each table carries a
//!   join-attribute column drawn uniformly from `[0, domain)`. The domains
//!   are derived from the query's predicates (the catalog carries none):
//!   a table's is the smallest `1 / selectivity` among its predicates, so
//!   the realized selectivity of an equality predicate matches the
//!   System-R estimate `1 / max(domain_a, domain_b)` in expectation — and
//!   for every generated query, `1 / max` of the derived domains is each
//!   predicate's selectivity bit for bit.
//! * [`operators`] — physical implementations of the three join operators
//!   the cost model knows (nested-loop, hash, sort-merge) over a compact
//!   columnar-ish row format. All three produce identical result
//!   multisets; they differ in the work they do — mirroring the cost
//!   formulas.
//! * [`engine`] — a recursive plan interpreter with work counters, used to
//!   validate end-to-end that (a) any two plans for the same query produce
//!   the same result and (b) realized cardinalities track the optimizer's
//!   estimates.

#![forbid(unsafe_code)]

pub mod data;
pub mod engine;
pub mod operators;

pub use data::{DataConfig, Database, Relation};
pub use engine::{execute, ExecError, ExecStats};
