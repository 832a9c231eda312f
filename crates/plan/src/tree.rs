//! Full query plan trees.

use mpq_cost::{CostVector, JoinOp, ScanOp};
use mpq_model::TableSet;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One operator of a [`Plan`]. A plan lists its operators in post-order:
/// a join follows its outer (left) operand's operators, which follow its
/// inner (right) operand's.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlanOp {
    /// Scan of a single base table: a leaf.
    Scan {
        /// The scanned table.
        table: u8,
        /// Scan implementation.
        op: ScanOp,
    },
    /// Join of the two subtrees before it (outer first, then inner).
    Join {
        /// Join implementation.
        op: JoinOp,
    },
}

/// Why an operator sequence is not one plan tree ([`Plan::validate`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// The plan has no operators.
    Empty,
    /// The join at this operator position found fewer than two subtrees
    /// before it.
    MissingOperand {
        /// Position of the join in the operator list.
        at: usize,
    },
    /// The operators form more than one tree.
    ExtraRoots {
        /// How many trees they form.
        roots: usize,
    },
    /// A table is scanned twice, so two operands would overlap.
    RepeatedTable {
        /// The table scanned again.
        table: u8,
    },
    /// A scan names a table index a [`TableSet`] cannot hold (≥ 64).
    TableOutOfRange {
        /// The offending index.
        table: u8,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Empty => f.write_str("plan has no operators"),
            PlanError::MissingOperand { at } => {
                write!(f, "join at operator {at} lacks an operand")
            }
            PlanError::ExtraRoots { roots } => write!(f, "operators form {roots} trees, not one"),
            PlanError::RepeatedTable { table } => write!(f, "table {table} is scanned twice"),
            PlanError::TableOutOfRange { table } => write!(
                f,
                "table index {table} exceeds the {}-table limit",
                TableSet::MAX_TABLES
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// A complete query plan: its operator tree and the tree's total cost.
///
/// Plans are binary trees: leaves scan base tables, inner nodes join the
/// results of their children, with the left child as the outer and the
/// right child as the inner operand (Section 3 of the paper). Only the
/// tree travels: every node's cost, cardinality and output order, the
/// root cost included, are functions of the query and the tree, so
/// whoever holds the query recomputes them (`mpq_dp::explain`) instead of
/// trusting a sender's figures. A decoded plan is therefore
/// [unpriced](Plan::unpriced) until its receiver prices it
/// (`mpq_dp::Pricer`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// Total cost of the plan: NaN in both components while the plan is
    /// [unpriced](Plan::unpriced).
    pub cost: CostVector,
    /// The operators, in post-order (the root last).
    pub ops: Vec<PlanOp>,
}

impl Plan {
    /// A plan with no cost yet: `ops` as a decoder reads them, before
    /// anyone who holds the query has priced them. Its cost is NaN in
    /// both components, so that no figure — least of all a low one — is
    /// ever attached to a tree nobody computed it for.
    pub fn unpriced(ops: Vec<PlanOp>) -> Plan {
        Plan {
            cost: CostVector::new(f64::NAN, f64::NAN),
            ops,
        }
    }

    /// Total cost of the plan.
    pub fn cost(&self) -> CostVector {
        self.cost
    }

    /// Set of base tables the plan scans (indices a [`TableSet`] cannot
    /// hold are left out; [`Plan::validate`] reports them).
    pub fn tables(&self) -> TableSet {
        self.ops
            .iter()
            .filter_map(|op| match *op {
                PlanOp::Scan { table, .. } if (table as usize) < TableSet::MAX_TABLES => {
                    Some(table as usize)
                }
                _ => None,
            })
            .collect()
    }

    /// Number of join operators in the plan (`n - 1` for a complete plan
    /// over `n` tables).
    pub fn num_joins(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, PlanOp::Join { .. }))
            .count()
    }

    /// Whether the plan is left-deep: the inner (right) operand of every
    /// join is a scan (Section 3). In post-order the inner operand's root
    /// is the operator just before the join.
    pub fn is_left_deep(&self) -> bool {
        self.ops
            .windows(2)
            .all(|w| matches!(w[0], PlanOp::Scan { .. }) || matches!(w[1], PlanOp::Scan { .. }))
    }

    /// The join order of a left-deep plan as a table sequence (post-order
    /// leaf traversal, Section 3). Returns `None` for bushy plans.
    pub fn join_order(&self) -> Option<Vec<u8>> {
        if !self.is_left_deep() {
            return None;
        }
        Some(
            self.ops
                .iter()
                .filter_map(|op| match *op {
                    PlanOp::Scan { table, .. } => Some(table),
                    PlanOp::Join { .. } => None,
                })
                .collect(),
        )
    }

    /// The table set of every operator's subtree, in operator order, or
    /// why the operators are not one tree: a scan names a table no
    /// [`TableSet`] holds or one scanned before, a join lacks an operand,
    /// or there is not exactly one root.
    pub fn subtrees(&self) -> Result<Vec<TableSet>, PlanError> {
        let mut sets = Vec::with_capacity(self.ops.len());
        let mut stack: Vec<TableSet> = Vec::new();
        let mut seen = TableSet::empty();
        for (at, op) in self.ops.iter().enumerate() {
            let set = match *op {
                PlanOp::Scan { table, .. } => {
                    let t = table as usize;
                    if t >= TableSet::MAX_TABLES {
                        return Err(PlanError::TableOutOfRange { table });
                    }
                    if seen.contains(t) {
                        return Err(PlanError::RepeatedTable { table });
                    }
                    seen = seen.insert(t);
                    TableSet::singleton(t)
                }
                PlanOp::Join { .. } => match (stack.pop(), stack.pop()) {
                    (Some(right), Some(left)) => left.union(right),
                    _ => return Err(PlanError::MissingOperand { at }),
                },
            };
            stack.push(set);
            sets.push(set);
        }
        match stack.len() {
            0 => Err(PlanError::Empty),
            1 => Ok(sets),
            roots => Err(PlanError::ExtraRoots { roots }),
        }
    }

    /// Structural check: the operators form one tree whose join operands
    /// are disjoint ([`Plan::subtrees`]). Costs are not checked here:
    /// `mpq_dp::explain` recomputes them against the query.
    pub fn validate(&self) -> Result<(), PlanError> {
        self.subtrees().map(|_| ())
    }
}

/// The shape as nested operator calls, `Hash(NestedLoop(Q0, Q1), Q2)`,
/// then the root cost.
impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut stack: Vec<String> = Vec::new();
        for op in &self.ops {
            let node = match *op {
                PlanOp::Scan { table, .. } => format!("Q{table}"),
                PlanOp::Join { op } => match (stack.pop(), stack.pop()) {
                    (Some(right), Some(left)) => format!("{op:?}({left}, {right})"),
                    _ => return f.write_str("<malformed plan>"),
                },
            };
            stack.push(node);
        }
        match stack.as_slice() {
            [root] => write!(
                f,
                "{root} (time={:.3e}, buf={:.3e})",
                self.cost.time, self.cost.buffer
            ),
            _ => f.write_str("<malformed plan>"),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_macros)]
    use super::*;

    fn scan(t: u8) -> PlanOp {
        PlanOp::Scan {
            table: t,
            op: ScanOp::Full,
        }
    }

    const HASH: PlanOp = PlanOp::Join { op: JoinOp::Hash };

    fn plan(ops: Vec<PlanOp>) -> Plan {
        Plan {
            cost: CostVector::new(10.0, 1.0),
            ops,
        }
    }

    #[test]
    fn scan_properties() {
        let p = plan(vec![scan(3)]);
        assert_eq!(p.tables(), TableSet::singleton(3));
        assert_eq!(p.num_joins(), 0);
        assert!(p.is_left_deep());
        assert_eq!(p.join_order(), Some(vec![3]));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn left_deep_detection_and_order() {
        // ((0 ⋈ 1) ⋈ 2) is left-deep with order [0, 1, 2].
        let p = plan(vec![scan(0), scan(1), HASH, scan(2), HASH]);
        assert!(p.is_left_deep());
        assert_eq!(p.join_order(), Some(vec![0, 1, 2]));
        assert_eq!(p.num_joins(), 2);
        assert_eq!(
            p.subtrees().unwrap(),
            [
                TableSet::singleton(0),
                TableSet::singleton(1),
                TableSet::from_tables([0, 1]),
                TableSet::singleton(2),
                TableSet::full(3),
            ]
        );
    }

    #[test]
    fn bushy_detection() {
        // (0 ⋈ 1) ⋈ (2 ⋈ 3) is bushy, and so is 0 ⋈ (1 ⋈ 2).
        let p = plan(vec![scan(0), scan(1), HASH, scan(2), scan(3), HASH, HASH]);
        assert!(!p.is_left_deep());
        assert_eq!(p.join_order(), None);
        assert_eq!(p.tables(), TableSet::full(4));
        assert!(p.validate().is_ok());
        let right_deep = plan(vec![scan(0), scan(1), scan(2), HASH, HASH]);
        assert!(!right_deep.is_left_deep());
        assert!(right_deep.validate().is_ok());
    }

    #[test]
    fn validate_rejects_overlap() {
        let p = plan(vec![scan(0), scan(1), HASH, scan(1), HASH]);
        assert_eq!(p.validate(), Err(PlanError::RepeatedTable { table: 1 }));
    }

    #[test]
    fn validate_rejects_malformed_shapes() {
        let cases = [
            (vec![], PlanError::Empty),
            (vec![scan(0), HASH], PlanError::MissingOperand { at: 1 }),
            (vec![HASH], PlanError::MissingOperand { at: 0 }),
            (vec![scan(0), scan(1)], PlanError::ExtraRoots { roots: 2 }),
            (
                vec![scan(0), scan(0), HASH],
                PlanError::RepeatedTable { table: 0 },
            ),
            (vec![scan(64)], PlanError::TableOutOfRange { table: 64 }),
            (vec![scan(0xFF)], PlanError::TableOutOfRange { table: 0xFF }),
        ];
        for (ops, err) in cases {
            let p = plan(ops);
            assert_eq!(p.validate(), Err(err), "{:?}", p.ops);
            assert!(!err.to_string().is_empty());
        }
        // An out-of-range scan never reaches the table set.
        assert_eq!(plan(vec![scan(0xFF)]).tables(), TableSet::empty());
    }

    #[test]
    fn display_contains_operators() {
        let p = plan(vec![scan(0), scan(1), HASH, scan(2), HASH]);
        assert_eq!(
            p.to_string(),
            "Hash(Hash(Q0, Q1), Q2) (time=1.000e1, buf=1.000e0)"
        );
        assert_eq!(plan(vec![HASH]).to_string(), "<malformed plan>");
        assert_eq!(plan(vec![scan(0), scan(1)]).to_string(), "<malformed plan>");
        assert_eq!(plan(vec![]).to_string(), "<malformed plan>");
    }
}
