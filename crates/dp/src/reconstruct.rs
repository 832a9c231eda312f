//! Plan reconstruction: expanding a compact memo entry into a full
//! [`Plan`].
//!
//! Memo entries store O(1) child references (Theorem 4); only when a worker
//! returns its partition-optimal plan to the master is the full O(n)
//! operator tree materialized and serialized (`b_p` bytes, Theorem 1).

use crate::arena::ArenaMemo;
use mpq_model::TableSet;
use mpq_plan::{Plan, PlanEntry, PlanNode, PlanOp};

/// Expands `entry` (stored for `set`) into a full plan by following child
/// references through the memo: its operators in post-order and its root
/// cost. The per-node estimates are left behind; [`crate::explain()`]
/// recomputes them bit for bit.
///
/// # Panics
/// Panics if a child reference points at an entry the memo does not hold
/// — that would mean the memo was mutated after the entry was created,
/// which the DP's finalize-before-reference order rules out.
pub fn reconstruct_plan(memo: &ArenaMemo, set: TableSet, entry: &PlanEntry) -> Plan {
    let mut ops = Vec::with_capacity((2 * set.len()).saturating_sub(1));
    push_ops(memo, entry, &mut ops);
    Plan {
        cost: entry.cost,
        ops,
    }
}

/// Appends the operators of `entry`'s subtree to `ops`, outer operand
/// first, the entry's own operator last.
fn push_ops(memo: &ArenaMemo, entry: &PlanEntry, ops: &mut Vec<PlanOp>) {
    match entry.node {
        PlanNode::Scan { table, op } => ops.push(PlanOp::Scan { table, op }),
        PlanNode::Join {
            op,
            left,
            left_idx,
            right,
            right_idx,
        } => {
            push_ops(memo, &memo.entries(left)[left_idx as usize], ops);
            push_ops(memo, &memo.entries(right)[right_idx as usize], ops);
            ops.push(PlanOp::Join { op });
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::worker::optimize_serial;
    use mpq_cost::Objective;
    use mpq_model::{WorkloadConfig, WorkloadGenerator};
    use mpq_partition::PlanSpace;

    #[test]
    fn reconstructed_plan_is_consistent() {
        let q = WorkloadGenerator::new(WorkloadConfig::paper_default(5), 33).next_query();
        let out = optimize_serial(&q, PlanSpace::Bushy, Objective::Single);
        let p = &out.plans[0];
        p.validate().expect("valid tree");
        assert_eq!(p.tables(), q.all_tables());
        // Root cost equals the memoized optimum (reconstruction must not
        // change costs).
        assert!(p.cost().time.is_finite());
        assert!(p.cost().time > 0.0);
    }

    #[test]
    fn reconstruction_preserves_cardinality_estimates() {
        let q = WorkloadGenerator::new(WorkloadConfig::paper_default(4), 34).next_query();
        let out = optimize_serial(&q, PlanSpace::Linear, Objective::Single);
        let p = &out.plans[0];
        // The root's cardinality, as `explain` recomputes it, is the
        // estimator's value for the full set, whatever the join order.
        let est = mpq_cost::CardinalityEstimator::new(&q);
        let expected = est.cardinality(q.all_tables());
        let root = *crate::explain(&q, p)
            .expect("the plan fits its query")
            .root();
        assert_eq!(root.cardinality.to_bits(), expected.to_bits());
        assert_eq!(root.cost, p.cost());
    }
}
