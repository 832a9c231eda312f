//! Scan and join operator implementations with Steinbrunn-style cost
//! formulas.
//!
//! The paper's implementation "considers all standard operators"
//! (Section 3); time complexity grows linearly in the number of operator
//! implementations (Section 5.4). We provide one scan and three joins.
//! Costs are in abstract work units proportional to tuple touches; buffer
//! costs are in bytes of working memory. Both are the classic textbook
//! formulas used by the Steinbrunn et al. benchmark the paper builds on.
//!
//! Interesting orders: a sort-merge join consumes sorted inputs and produces
//! output sorted on the join attribute; re-using that order lets a later
//! sort-merge skip a sort. An [`Order`] identifies the table whose join
//! attribute the tuple stream is sorted on. We use the conservative
//! simplification that an order is satisfied only by the exact attribute
//! (no equivalence-class propagation); this keeps the memo mechanics the
//! paper describes (one optimal plan per set *and interesting order*,
//! Section 5.4) while staying compact.
//!
//! An order is *interesting* only while a later operator can use it
//! (Selinger et al. 1979). Here that is decidable per join result: a
//! sort-merge join sorts on the lowest-numbered predicate crossing its
//! split, so an order on table `t` can spare a sort above a result `S` only
//! if for some `u ∉ S` the lowest-numbered predicate between `S` and `u`
//! ends at `t`. Proof sketch: the sort-merge that would use the order joins
//! some `S' ⊇ S` with an operand containing such a `u`, and its chosen
//! predicate, lowest across that split, is a fortiori lowest between `S`
//! and `u`; so an order that fails the test for `S` fails it for every
//! superset and may be labelled [`Order::None`] without changing the cost
//! of any plan tree. The operators below always report the *physical*
//! order; the DP applies [`Order::if_live`] to it, with the live set from
//! [`crate::PredicateIndex::interesting_orders`] — where the rule, the
//! full proof, and the sort-merge rule it depends on live side by side.
//! **The rule is valid only for the lowest-numbered-predicate sort-merge
//! rule**: change one and the other must change with it.

use crate::cardinality::{CardinalityEstimator, SetStats};
use crate::predicates::PredicateIndex;
use crate::vector::CostVector;
use mpq_model::TableSet;
use serde::{Deserialize, Serialize};

/// Sort order of a tuple stream: unsorted, or sorted on the join attribute
/// of a specific table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Order {
    /// No useful order.
    None,
    /// Sorted on the join attribute of table `t`.
    OnAttribute(u8),
}

impl Order {
    /// Compact encoding for memo keys: 0 = unsorted, `t + 1` = sorted on
    /// table `t`'s attribute.
    pub fn to_code(self) -> u8 {
        match self {
            Order::None => 0,
            Order::OnAttribute(t) => t + 1,
        }
    }

    /// Inverse of [`Order::to_code`].
    pub fn from_code(code: u8) -> Self {
        if code == 0 {
            Order::None
        } else {
            Order::OnAttribute(code - 1)
        }
    }

    /// The order as the memo labels it for a join result whose interesting
    /// orders are `live`
    /// ([`PredicateIndex::interesting_orders`](crate::PredicateIndex::interesting_orders)):
    /// itself while some later sort-merge join can still ask for it,
    /// [`Order::None`] once none can. Total: an order decoded off the wire
    /// may name a table no set can hold, and is never live.
    #[inline]
    pub fn if_live(self, live: TableSet) -> Self {
        match self {
            Order::OnAttribute(t)
                if t as usize >= TableSet::MAX_TABLES || !live.contains(t as usize) =>
            {
                Order::None
            }
            order => order,
        }
    }
}

/// Scan operator: a full sequential scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScanOp {
    /// Sequential scan of a base table; output unsorted.
    Full,
}

impl ScanOp {
    /// Cost of scanning table `t`.
    pub fn cost(&self, est: &CardinalityEstimator, t: usize) -> CostVector {
        let card = est.cardinality(TableSet::singleton(t));
        let bytes = est.tuple_bytes(TableSet::singleton(t));
        match self {
            // Time: one touch per tuple. Buffer: one page-sized read buffer,
            // approximated by a single tuple.
            ScanOp::Full => CostVector::new(card, bytes / card.max(1.0)),
        }
    }

    /// Output order of the scan.
    pub fn output_order(&self) -> Order {
        Order::None
    }
}

/// Join operator implementations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JoinOp {
    /// Block-nested-loop join: outer × inner tuple comparisons.
    NestedLoop,
    /// Hash join: build on the inner (right) operand, probe with the outer.
    Hash,
    /// Sort-merge join on the first predicate connecting the operands;
    /// inapplicable to cross products.
    SortMerge,
}

/// All join operators, in the order they are tried by the optimizer.
pub const JOIN_OPS: [JoinOp; 3] = [JoinOp::NestedLoop, JoinOp::Hash, JoinOp::SortMerge];

/// Everything the optimizer needs to know about applying one join operator
/// to a pair of operands.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JoinApplication {
    /// Incremental cost of the operator itself (children not included).
    pub cost: CostVector,
    /// Sort order of the operator's output.
    pub output_order: Order,
}

/// The floors of what an operator adds to a join of one left plan on one
/// split, by output order ([`SplitCosts::floor`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JoinFloor {
    /// Nested loop and hash join, which output the left plan's order.
    pub outer_order: JoinApplication,
    /// Sort-merge, over any right plan; `None` on a cross product.
    pub sort_merge: Option<JoinApplication>,
}

impl JoinOp {
    /// Computes the incremental cost of joining `left` (outer) with `right`
    /// (inner), given the orders the operand plans deliver. Returns `None`
    /// if the operator is inapplicable (sort-merge join on a cross product).
    ///
    /// One-shot form of [`SplitCosts`], estimating both operands on the
    /// spot: callers costing many operand plans of one split build the
    /// `SplitCosts` once instead, and the DP builds it from the operand
    /// statistics in its memo ([`SplitCosts::from_stats`]).
    pub fn apply(
        &self,
        est: &mut CardinalityEstimator,
        left: TableSet,
        right: TableSet,
        left_order: Order,
        right_order: Order,
    ) -> Option<JoinApplication> {
        SplitCosts::new(est, left, right).apply(*self, left_order, right_order)
    }
}

/// Everything about costing a join that depends on the split
/// `(left, right)` alone. The operand *plans* contribute only their output
/// orders, so the DP builds this once per split and calls
/// [`SplitCosts::time`] once per (left plan × right plan × operator), and
/// [`SplitCosts::buffer`] for the plans whose buffer it needs too.
///
/// Precomputing an operand of a sum or `max` does not change a rounding:
/// `apply` performs the same f64 additions and `max`es, in the same order,
/// that a from-scratch evaluation would — sort-merge time is
/// `(lc + rc) [+ sort_left] [+ sort_right]`, its buffer
/// `0.0.max(lc·bytes_left).max(rc·bytes_right)` — so costs are bit-identical
/// however the evaluations are batched.
#[derive(Clone, Copy, Debug)]
pub struct SplitCosts {
    nested_loop: CostVector,
    hash: CostVector,
    /// `None` for a cross product, where sort-merge is inapplicable.
    sort_merge: Option<SortMergeCosts>,
}

/// The split-dependent parts of a sort-merge join's cost.
#[derive(Clone, Copy, Debug)]
struct SortMergeCosts {
    /// Input orders that make the respective sort unnecessary.
    want_left: Order,
    want_right: Order,
    /// Time of the merge itself.
    merge: f64,
    /// Time and working memory of sorting each operand, charged only when
    /// the operand plan does not already deliver the wanted order.
    sort_left: f64,
    sort_right: f64,
    buffer_left: f64,
    buffer_right: f64,
}

impl SplitCosts {
    /// Costs the split joining `left` (outer) with `right` (inner),
    /// estimating both operands on the spot.
    pub fn new(est: &mut CardinalityEstimator, left: TableSet, right: TableSet) -> Self {
        let (left_stats, right_stats) = (est.set_stats(left), est.set_stats(right));
        SplitCosts::from_stats(est.predicates(), left, &left_stats, right, &right_stats)
    }

    /// Costs the split joining `left` (outer) with `right` (inner) from
    /// the operands' statistics.
    #[inline(always)]
    pub fn from_stats(
        predicates: &PredicateIndex,
        left: TableSet,
        left_stats: &SetStats,
        right: TableSet,
        right_stats: &SetStats,
    ) -> Self {
        let lc = left_stats.cardinality;
        let rc = right_stats.cardinality;
        let bytes_right = right_stats.tuple_bytes;
        SplitCosts {
            // Time: every outer tuple compared with every inner tuple.
            // Buffer: one block of each operand; approximate with the
            // inner tuple width (the block that is repeatedly rescanned).
            nested_loop: CostVector::new(lc * rc, bytes_right),
            // Time: build inner (2 touches/tuple) + probe outer.
            // Buffer: the hash table holds the inner operand.
            hash: CostVector::new(2.0 * rc + lc, rc * bytes_right),
            sort_merge: predicates
                .sort_merge_attributes(left, right)
                .map(|(la, ra)| SortMergeCosts {
                    want_left: Order::OnAttribute(la),
                    want_right: Order::OnAttribute(ra),
                    merge: lc + rc,
                    sort_left: left_stats.sort_cost,
                    sort_right: right_stats.sort_cost,
                    buffer_left: lc * left_stats.tuple_bytes,
                    buffer_right: rc * bytes_right,
                }),
        }
    }

    /// Time of `op` on this split and the operator's physical output order,
    /// given the orders the operand plans deliver: the half of
    /// [`SplitCosts::apply`] that single-objective pruning decides on, by
    /// the same additions in the same order. `None` where `apply` is.
    #[inline]
    pub fn time(&self, op: JoinOp, left_order: Order, right_order: Order) -> Option<(f64, Order)> {
        Some(match op {
            // Nested-loop preserves the outer order; hash join output
            // follows the probe (outer) order.
            JoinOp::NestedLoop => (self.nested_loop.time, left_order),
            JoinOp::Hash => (self.hash.time, left_order),
            JoinOp::SortMerge => {
                let sm = self.sort_merge.as_ref()?;
                let mut time = sm.merge;
                if left_order != sm.want_left {
                    time += sm.sort_left;
                }
                if right_order != sm.want_right {
                    time += sm.sort_right;
                }
                // Output is sorted on the outer-side attribute.
                (time, sm.want_left)
            }
        })
    }

    /// Working memory of `op` on this split, given the orders the operand
    /// plans deliver: the other half of [`SplitCosts::apply`], for a caller
    /// that already has the time. `None` where `apply` is.
    #[inline]
    pub fn buffer(&self, op: JoinOp, left_order: Order, right_order: Order) -> Option<f64> {
        Some(match op {
            JoinOp::NestedLoop => self.nested_loop.buffer,
            JoinOp::Hash => self.hash.buffer,
            JoinOp::SortMerge => {
                let sm = self.sort_merge.as_ref()?;
                let mut buffer: f64 = 0.0;
                if left_order != sm.want_left {
                    buffer = buffer.max(sm.buffer_left);
                }
                if right_order != sm.want_right {
                    buffer = buffer.max(sm.buffer_right);
                }
                buffer
            }
        })
    }

    /// How many join operators apply on this split: 3, or 2 on a cross
    /// product, where sort-merge does not.
    #[inline]
    pub fn operators(&self) -> u64 {
        2 + u64::from(self.sort_merge.is_some())
    }

    /// Lower bounds on what an operator adds to a join of a left plan of
    /// order `left_order` on this split, one per output order the join can
    /// have: no [`SplitCosts::apply`] of that left order yields a cost below
    /// its class's floor in either metric. `None` unless every time and
    /// buffer this split can add is finite.
    ///
    /// Nested loop and hash join output `left_order`, and what they add
    /// depends on no order: their floor is the component-wise minimum of the
    /// two. Sort-merge outputs its own order; its floor is the
    /// component-wise minimum over a right plan sorted and one unsorted.
    #[inline]
    pub fn floor(&self, left_order: Order) -> Option<JoinFloor> {
        let (nested_loop, hash) = (self.nested_loop, self.hash);
        let finite = [nested_loop, hash]
            .iter()
            .all(|c| c.time.is_finite() && c.buffer.is_finite())
            && self.sort_merge.as_ref().is_none_or(|sm| {
                [
                    sm.merge,
                    sm.sort_left,
                    sm.sort_right,
                    sm.buffer_left,
                    sm.buffer_right,
                ]
                .iter()
                .all(|t| t.is_finite())
            });
        if !finite {
            return None;
        }
        let cheaper = |a: CostVector, b: CostVector| {
            CostVector::new(a.time.min(b.time), a.buffer.min(b.buffer))
        };
        let sort_merge = match &self.sort_merge {
            Some(sm) => {
                // Sort-merge applies wherever it has costs: neither is `None`.
                let sorted = self.apply(JoinOp::SortMerge, left_order, sm.want_right)?;
                let unsorted = self.apply(JoinOp::SortMerge, left_order, Order::None)?;
                Some(JoinApplication {
                    cost: cheaper(sorted.cost, unsorted.cost),
                    output_order: sm.want_left,
                })
            }
            None => None,
        };
        Some(JoinFloor {
            outer_order: JoinApplication {
                cost: cheaper(nested_loop, hash),
                output_order: left_order,
            },
            sort_merge,
        })
    }

    /// Incremental cost and output order of `op` on this split, given the
    /// orders the operand plans deliver. Returns `None` if the operator is
    /// inapplicable (sort-merge join on a cross product).
    #[inline]
    pub fn apply(
        &self,
        op: JoinOp,
        left_order: Order,
        right_order: Order,
    ) -> Option<JoinApplication> {
        let (time, output_order) = self.time(op, left_order, right_order)?;
        let buffer = self.buffer(op, left_order, right_order)?;
        Some(JoinApplication {
            cost: CostVector::new(time, buffer),
            output_order,
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_macros)]
    use super::*;
    use mpq_model::{Catalog, JoinGraph, Predicate, Query, TableStats};

    fn two_table_query(lc: f64, rc: f64, sel: f64) -> Query {
        let catalog = Catalog::from_stats(vec![
            TableStats {
                cardinality: lc,
                tuple_bytes: 10.0,
            },
            TableStats {
                cardinality: rc,
                tuple_bytes: 10.0,
            },
        ]);
        Query {
            catalog,
            predicates: vec![Predicate {
                left: 0,
                right: 1,
                selectivity: sel,
            }],
            graph: JoinGraph::Chain,
        }
    }

    #[test]
    fn order_encode_roundtrip() {
        for o in [Order::None, Order::OnAttribute(0), Order::OnAttribute(13)] {
            assert_eq!(Order::from_code(o.to_code()), o);
        }
    }

    #[test]
    fn only_a_live_order_keeps_its_label() {
        let live = TableSet::from_tables([2, 5]);
        assert_eq!(Order::OnAttribute(5).if_live(live), Order::OnAttribute(5));
        assert_eq!(Order::OnAttribute(3).if_live(live), Order::None);
        assert_eq!(Order::None.if_live(live), Order::None);
        // No set holds table 200: never live, and no shift overflow.
        assert_eq!(
            Order::OnAttribute(200).if_live(TableSet::full(64)),
            Order::None
        );
    }

    #[test]
    fn scan_cost_is_cardinality() {
        let q = two_table_query(500.0, 100.0, 0.01);
        let est = CardinalityEstimator::new(&q);
        let c = ScanOp::Full.cost(&est, 0);
        assert_eq!(c.time, 500.0);
        assert_eq!(ScanOp::Full.output_order(), Order::None);
    }

    #[test]
    fn nested_loop_quadratic() {
        let q = two_table_query(100.0, 200.0, 0.01);
        let mut est = CardinalityEstimator::new(&q);
        let a = JoinOp::NestedLoop
            .apply(
                &mut est,
                TableSet::singleton(0),
                TableSet::singleton(1),
                Order::None,
                Order::None,
            )
            .unwrap();
        assert_eq!(a.cost.time, 100.0 * 200.0);
        assert_eq!(a.output_order, Order::None);
    }

    #[test]
    fn hash_join_linear_and_buffer_on_inner() {
        let q = two_table_query(100.0, 200.0, 0.01);
        let mut est = CardinalityEstimator::new(&q);
        let a = JoinOp::Hash
            .apply(
                &mut est,
                TableSet::singleton(0),
                TableSet::singleton(1),
                Order::None,
                Order::None,
            )
            .unwrap();
        assert_eq!(a.cost.time, 2.0 * 200.0 + 100.0);
        assert_eq!(a.cost.buffer, 200.0 * 10.0);
    }

    #[test]
    fn sort_merge_skips_sort_on_sorted_input() {
        let q = two_table_query(1000.0, 1000.0, 0.001);
        let mut est = CardinalityEstimator::new(&q);
        let unsorted = JoinOp::SortMerge
            .apply(
                &mut est,
                TableSet::singleton(0),
                TableSet::singleton(1),
                Order::None,
                Order::None,
            )
            .unwrap();
        let sorted = JoinOp::SortMerge
            .apply(
                &mut est,
                TableSet::singleton(0),
                TableSet::singleton(1),
                Order::OnAttribute(0),
                Order::OnAttribute(1),
            )
            .unwrap();
        assert!(sorted.cost.time < unsorted.cost.time);
        // A fully sorted pair costs just the merge.
        assert_eq!(sorted.cost.time, 2000.0);
        assert_eq!(sorted.output_order, Order::OnAttribute(0));
    }

    #[test]
    fn sort_merge_rejects_cross_product() {
        let catalog = Catalog::from_stats(vec![
            TableStats::with_cardinality(10.0),
            TableStats::with_cardinality(10.0),
        ]);
        let q = Query {
            catalog,
            predicates: vec![],
            graph: JoinGraph::Chain,
        };
        let mut est = CardinalityEstimator::new(&q);
        assert!(JoinOp::SortMerge
            .apply(
                &mut est,
                TableSet::singleton(0),
                TableSet::singleton(1),
                Order::None,
                Order::None
            )
            .is_none());
    }

    #[test]
    fn nested_loop_preserves_outer_order() {
        let q = two_table_query(10.0, 10.0, 0.1);
        let mut est = CardinalityEstimator::new(&q);
        let a = JoinOp::NestedLoop
            .apply(
                &mut est,
                TableSet::singleton(0),
                TableSet::singleton(1),
                Order::OnAttribute(0),
                Order::None,
            )
            .unwrap();
        assert_eq!(a.output_order, Order::OnAttribute(0));
    }

    #[test]
    fn all_ops_listed_once() {
        assert_eq!(JOIN_OPS.len(), 3);
        let mut seen = std::collections::HashSet::new();
        for op in JOIN_OPS {
            assert!(seen.insert(format!("{op:?}")));
        }
    }
}
