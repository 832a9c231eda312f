//! Full query plan trees.

use mpq_cost::{CostVector, JoinOp, Order, ScanOp};
use mpq_model::TableSet;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A complete, self-contained query plan.
///
/// Plans form binary trees: leaves scan base tables, inner nodes join the
/// results of their children, with the left child as the outer and the
/// right child as the inner operand (Section 3 of the paper). Every node
/// carries its estimated total cost, output cardinality and output order so
/// that a received plan can be compared without re-costing.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Plan {
    /// Scan of a single base table.
    Scan {
        /// The scanned table.
        table: u8,
        /// Scan implementation.
        op: ScanOp,
        /// Total cost of the scan.
        cost: CostVector,
        /// Output cardinality.
        cardinality: f64,
    },
    /// Join of two sub-plans (`left` = outer, `right` = inner).
    Join {
        /// Join implementation.
        op: JoinOp,
        /// Outer operand.
        left: Box<Plan>,
        /// Inner operand.
        right: Box<Plan>,
        /// Total cost of the subtree (children included).
        cost: CostVector,
        /// Output cardinality.
        cardinality: f64,
        /// Interesting order of the output stream: the order a later join
        /// can still use, `Order::None` once none can. Plans built by the
        /// DP carry this label, not the physical order (the root of a
        /// complete plan is always `None`); see
        /// `mpq_cost::PredicateIndex::interesting_orders`.
        order: Order,
    },
}

impl Plan {
    /// Total cost of the plan.
    pub fn cost(&self) -> CostVector {
        match self {
            Plan::Scan { cost, .. } | Plan::Join { cost, .. } => *cost,
        }
    }

    /// Output cardinality of the plan.
    pub fn cardinality(&self) -> f64 {
        match self {
            Plan::Scan { cardinality, .. } | Plan::Join { cardinality, .. } => *cardinality,
        }
    }

    /// Interesting order of the plan's output (relabelled `None` once no
    /// later join can use it).
    pub fn order(&self) -> Order {
        match self {
            Plan::Scan { .. } => Order::None,
            Plan::Join { order, .. } => *order,
        }
    }

    /// Set of base tables the plan joins.
    pub fn tables(&self) -> TableSet {
        match self {
            Plan::Scan { table, .. } => TableSet::singleton(*table as usize),
            Plan::Join { left, right, .. } => left.tables().union(right.tables()),
        }
    }

    /// Number of join operators in the plan (`n - 1` for a complete plan
    /// over `n` tables).
    pub fn num_joins(&self) -> usize {
        match self {
            Plan::Scan { .. } => 0,
            Plan::Join { left, right, .. } => 1 + left.num_joins() + right.num_joins(),
        }
    }

    /// Whether the plan is left-deep: the inner (right) operand of every
    /// join is a scan (Section 3).
    pub fn is_left_deep(&self) -> bool {
        match self {
            Plan::Scan { .. } => true,
            Plan::Join { left, right, .. } => {
                matches!(**right, Plan::Scan { .. }) && left.is_left_deep()
            }
        }
    }

    /// The join order of a left-deep plan as a table sequence (post-order
    /// leaf traversal, Section 3). Returns `None` for bushy plans.
    pub fn join_order(&self) -> Option<Vec<u8>> {
        if !self.is_left_deep() {
            return None;
        }
        let mut order = Vec::new();
        fn walk(p: &Plan, out: &mut Vec<u8>) {
            match p {
                Plan::Scan { table, .. } => out.push(*table),
                Plan::Join { left, right, .. } => {
                    walk(left, out);
                    walk(right, out);
                }
            }
        }
        walk(self, &mut order);
        Some(order)
    }

    /// Structural sanity check: children of every join are disjoint, and
    /// node costs are at least the sum of the children's times (costs are
    /// monotone). Used by tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Plan::Scan { .. } => Ok(()),
            Plan::Join {
                left, right, cost, ..
            } => {
                left.validate()?;
                right.validate()?;
                if !left.tables().is_disjoint(right.tables()) {
                    return Err(format!(
                        "join operands overlap: {} vs {}",
                        left.tables(),
                        right.tables()
                    ));
                }
                let child_time = left.cost().time + right.cost().time;
                if cost.time + 1e-9 < child_time {
                    return Err("join cost below sum of child costs".to_string());
                }
                Ok(())
            }
        }
    }

    /// Approximate serialized size in bytes (`b_p` in the complexity
    /// analysis): linear in the number of nodes.
    pub fn approx_byte_size(&self) -> usize {
        match self {
            Plan::Scan { .. } => 24,
            Plan::Join { left, right, .. } => {
                40 + left.approx_byte_size() + right.approx_byte_size()
            }
        }
    }

    /// Renders the plan as an indented operator tree.
    pub fn display_indented(&self) -> String {
        let mut s = String::new();
        self.render(&mut s, 0);
        s
    }

    fn render(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        match self {
            Plan::Scan {
                table,
                op,
                cost,
                cardinality,
            } => {
                out.push_str(&format!(
                    "Scan[{op:?}] Q{table} (card={cardinality:.0}, time={:.3e})\n",
                    cost.time
                ));
            }
            Plan::Join {
                op,
                left,
                right,
                cost,
                cardinality,
                ..
            } => {
                out.push_str(&format!(
                    "Join[{op:?}] {} (card={cardinality:.0}, time={:.3e}, buf={:.3e})\n",
                    self.tables(),
                    cost.time,
                    cost.buffer
                ));
                left.render(out, depth + 1);
                right.render(out, depth + 1);
            }
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_indented())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn scan(t: u8, card: f64) -> Plan {
        Plan::Scan {
            table: t,
            op: ScanOp::Full,
            cost: CostVector::new(card, 1.0),
            cardinality: card,
        }
    }

    fn join(l: Plan, r: Plan, time: f64) -> Plan {
        let card = l.cardinality() * r.cardinality();
        Plan::Join {
            op: JoinOp::Hash,
            cost: CostVector::new(time, 0.0),
            cardinality: card,
            order: Order::None,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    #[test]
    fn scan_properties() {
        let p = scan(3, 100.0);
        assert_eq!(p.tables(), TableSet::singleton(3));
        assert_eq!(p.num_joins(), 0);
        assert!(p.is_left_deep());
        assert_eq!(p.join_order(), Some(vec![3]));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn left_deep_detection_and_order() {
        // ((0 ⋈ 1) ⋈ 2) is left-deep with order [0, 1, 2].
        let p = join(
            join(scan(0, 10.0), scan(1, 10.0), 200.0),
            scan(2, 10.0),
            2000.0,
        );
        assert!(p.is_left_deep());
        assert_eq!(p.join_order(), Some(vec![0, 1, 2]));
        assert_eq!(p.num_joins(), 2);
    }

    #[test]
    fn bushy_detection() {
        // (0 ⋈ 1) ⋈ (2 ⋈ 3) is bushy.
        let p = join(
            join(scan(0, 10.0), scan(1, 10.0), 200.0),
            join(scan(2, 10.0), scan(3, 10.0), 200.0),
            3000.0,
        );
        assert!(!p.is_left_deep());
        assert_eq!(p.join_order(), None);
        assert_eq!(p.tables(), TableSet::full(4));
    }

    #[test]
    fn validate_rejects_overlap() {
        let p = join(scan(0, 10.0), scan(0, 10.0), 200.0);
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_non_monotone_cost() {
        let p = join(scan(0, 10.0), scan(1, 10.0), 5.0); // < 10 + 10
        assert!(p.validate().is_err());
    }

    #[test]
    fn byte_size_linear_in_nodes() {
        let p2 = join(scan(0, 1.0), scan(1, 1.0), 10.0);
        let p3 = join(p2.clone(), scan(2, 1.0), 100.0);
        assert!(p3.approx_byte_size() > p2.approx_byte_size());
        assert_eq!(p3.approx_byte_size(), p2.approx_byte_size() + 40 + 24);
    }

    #[test]
    fn display_contains_operators() {
        let p = join(scan(0, 1.0), scan(1, 1.0), 10.0);
        let s = p.to_string();
        assert!(s.contains("Join[Hash]"));
        assert!(s.contains("Scan[Full] Q0"));
    }
}
