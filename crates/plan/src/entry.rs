//! Compact memo-table entries.
//!
//! During dynamic programming a plan for a table set is stored as an
//! operator tag plus references to the child memo slots, exactly the O(1)
//! representation from Theorem 4's proof ("each plan can be represented by
//! at most two pointers to optimal sub-plans stored for table subsets").
//! A reference is `(child table set, index into that set's entry list)`;
//! indices are stable because the DP finalizes every set before any larger
//! set references it.

use mpq_cost::{CostVector, JoinOp, Order, ScanOp};
use mpq_model::TableSet;
use serde::{Deserialize, Serialize};

/// The operator at the root of a memoized sub-plan.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum PlanNode {
    /// Leaf: scan of one base table.
    Scan {
        /// The scanned table.
        table: u8,
        /// Scan implementation.
        op: ScanOp,
    },
    /// Inner node: join of the best plans stored for two disjoint subsets.
    Join {
        /// Join implementation.
        op: JoinOp,
        /// Outer operand's table set.
        left: TableSet,
        /// Index of the outer operand's entry in `left`'s memo slot.
        left_idx: u32,
        /// Inner operand's table set.
        right: TableSet,
        /// Index of the inner operand's entry in `right`'s memo slot.
        right_idx: u32,
    },
}

/// One memoized plan alternative for a table set.
///
/// A slot keeps several entries when they are incomparable: distinct
/// interesting orders under single-objective pruning, or Pareto-incomparable
/// cost vectors under multi-objective pruning. An order counts as
/// interesting only while a later join can use it; the DP relabels it
/// `None` before the entry gets here, so a slot holds no class that cannot
/// pay off.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlanEntry {
    /// Total cost of the memoized subtree.
    pub cost: CostVector,
    /// Interesting order of the subtree's output (relabelled `None` once
    /// no later join can use it).
    pub order: Order,
    /// Root operator and child references.
    pub node: PlanNode,
}

impl PlanEntry {
    /// Creates a scan entry.
    pub fn scan(table: u8, op: ScanOp, cost: CostVector) -> Self {
        PlanEntry {
            cost,
            order: op.output_order(),
            node: PlanNode::Scan { table, op },
        }
    }

    /// Creates a join entry.
    #[allow(clippy::too_many_arguments)]
    pub fn join(
        op: JoinOp,
        left: TableSet,
        left_idx: u32,
        right: TableSet,
        right_idx: u32,
        cost: CostVector,
        order: Order,
    ) -> Self {
        PlanEntry {
            cost,
            order,
            node: PlanNode::Join {
                op,
                left,
                left_idx,
                right,
                right_idx,
            },
        }
    }

    /// Deterministic ordering key used to canonicalize entry lists before
    /// they are exchanged between nodes (the SMA baseline relies on all
    /// replicas agreeing on entry indices).
    pub fn canonical_key(&self) -> (u64, u64, u8) {
        (
            self.cost.time.to_bits(),
            self.cost.buffer.to_bits(),
            self.order.to_code(),
        )
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn scan_entry_has_scan_order() {
        let e = PlanEntry::scan(4, ScanOp::Full, CostVector::new(10.0, 1.0));
        assert_eq!(e.order, Order::None);
        assert!(matches!(e.node, PlanNode::Scan { table: 4, .. }));
    }

    #[test]
    fn join_entry_fields() {
        let l = TableSet::from_tables([0, 1]);
        let r = TableSet::singleton(2);
        let e = PlanEntry::join(
            JoinOp::Hash,
            l,
            3,
            r,
            0,
            CostVector::new(99.0, 5.0),
            Order::OnAttribute(1),
        );
        match e.node {
            PlanNode::Join {
                op,
                left,
                left_idx,
                right,
                right_idx,
            } => {
                assert_eq!(op, JoinOp::Hash);
                assert_eq!(left, l);
                assert_eq!(left_idx, 3);
                assert_eq!(right, r);
                assert_eq!(right_idx, 0);
            }
            _ => panic!("expected join node"),
        }
        assert_eq!(e.order, Order::OnAttribute(1));
    }

    #[test]
    fn canonical_key_orders_by_cost_first() {
        let cheap = PlanEntry::scan(0, ScanOp::Full, CostVector::new(1.0, 0.0));
        let pricey = PlanEntry::scan(0, ScanOp::Full, CostVector::new(2.0, 0.0));
        assert!(cheap.canonical_key() < pricey.canonical_key());
    }

    #[test]
    fn entry_is_small() {
        // The O(1)-space claim: an entry must stay pointer-sized-ish, far
        // below the O(n) cost of a full plan.
        assert!(std::mem::size_of::<PlanEntry>() <= 64);
    }
}
