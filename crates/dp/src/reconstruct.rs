//! Plan reconstruction: expanding a compact memo entry into a full
//! [`Plan`] tree.
//!
//! Memo entries store O(1) child references (Theorem 4); only when a worker
//! returns its partition-optimal plan to the master is the full O(n) tree
//! materialized and serialized (`b_p` bytes, Theorem 1).

use crate::arena::ArenaMemo;
use mpq_model::TableSet;
use mpq_plan::{Plan, PlanEntry, PlanNode};

/// Expands `entry` (stored for `set`) into a full plan tree by following
/// child references through the memo; every node's cardinality is the one
/// recorded with its set.
///
/// # Panics
/// Panics if `entry` or a child reference points at a set or entry the
/// memo does not hold — that would mean the memo was mutated after the
/// entry was created, which the DP's finalize-before-reference order rules
/// out.
pub fn reconstruct_plan(memo: &ArenaMemo, set: TableSet, entry: &PlanEntry) -> Plan {
    let cardinality = memo
        .stats(set)
        .expect("an entry's set is stored")
        .cardinality;
    match entry.node {
        PlanNode::Scan { table, op } => Plan::Scan {
            table,
            op,
            cost: entry.cost,
            cardinality,
        },
        PlanNode::Join {
            op,
            left,
            left_idx,
            right,
            right_idx,
        } => {
            debug_assert_eq!(
                left.union(right),
                set,
                "child sets must partition the parent"
            );
            let le = memo.entries(left)[left_idx as usize];
            let re = memo.entries(right)[right_idx as usize];
            let left_plan = reconstruct_plan(memo, left, &le);
            let right_plan = reconstruct_plan(memo, right, &re);
            Plan::Join {
                op,
                cost: entry.cost,
                cardinality,
                order: entry.order,
                left: Box::new(left_plan),
                right: Box::new(right_plan),
            }
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
        // The root's cardinality must match the estimator's value for the
        // full set, regardless of the join order chosen.
        let est = mpq_cost::CardinalityEstimator::new(&q);
        let expected = est.cardinality(q.all_tables());
        assert!((p.cardinality() - expected).abs() <= 1e-9 * expected.max(1.0));
    }
}
