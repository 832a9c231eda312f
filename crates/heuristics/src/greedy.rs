//! Greedy minimum-intermediate-result join ordering — the classic
//! polynomial-time heuristic baseline: start from the smallest table and
//! repeatedly append the table that minimizes the next intermediate
//! result's cardinality.

use mpq_cost::CardinalityEstimator;
use mpq_model::{Query, TableSet};

/// Returns the greedy join order for `query`.
pub fn greedy_min_result(query: &Query) -> Vec<usize> {
    let n = query.num_tables();
    let est = CardinalityEstimator::new(query);
    assert!(n >= 1, "query must join at least one table");
    // Start from the smallest base table.
    let first = (0..n)
        .min_by(|&a, &b| {
            let ca = est.cardinality(TableSet::singleton(a));
            let cb = est.cardinality(TableSet::singleton(b));
            ca.partial_cmp(&cb).expect("finite cardinalities")
        })
        .expect("non-empty query");
    let mut order = vec![first];
    let mut used = TableSet::singleton(first);
    while order.len() < n {
        let next = (0..n)
            .filter(|&t| !used.contains(t))
            .min_by(|&a, &b| {
                let ca = est.cardinality(used.insert(a));
                let cb = est.cardinality(used.insert(b));
                ca.partial_cmp(&cb).expect("finite cardinalities")
            })
            .expect("tables remain");
        order.push(next);
        used = used.insert(next);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::order_cost;
    use mpq_model::{WorkloadConfig, WorkloadGenerator};

    fn query(n: usize, seed: u64) -> Query {
        WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query()
    }

    #[test]
    fn produces_valid_permutation() {
        let q = query(9, 1);
        let order = greedy_min_result(&q);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn starts_with_smallest_table() {
        let q = query(6, 2);
        let order = greedy_min_result(&q);
        let smallest = (0..6)
            .min_by(|&a, &b| {
                q.catalog
                    .stats(a)
                    .cardinality
                    .partial_cmp(&q.catalog.stats(b).cardinality)
                    .unwrap()
            })
            .unwrap();
        assert_eq!(order[0], smallest);
    }

    #[test]
    fn greedy_is_costable_and_bounded_below_by_optimum() {
        use mpq_cost::Objective;
        use mpq_partition::PlanSpace;
        for seed in 0..4 {
            let q = query(6, seed + 10);
            let order = greedy_min_result(&q);
            let cost = order_cost(&q, &order);
            let opt = mpq_dp::optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0]
                .cost()
                .time;
            assert!(cost >= opt, "heuristic cannot beat the optimum");
        }
    }

    #[test]
    fn single_table() {
        let q = query(1, 3);
        assert_eq!(greedy_min_result(&q), vec![0]);
    }
}
