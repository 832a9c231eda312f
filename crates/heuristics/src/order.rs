//! Exact costing of a fixed left-deep join order.
//!
//! Randomized optimizers explore the space of join orders (table
//! permutations); for each candidate order the physical details — which
//! join operator to use at each step, whether to exploit interesting
//! orders — are solved exactly by a small dynamic program over the
//! prefix's output order: at each join step, for every reachable output
//! order, keep the cheapest way to arrive sorted that way.

use mpq_cost::{CardinalityEstimator, CostVector, JoinOp, Order, ScanOp, JOIN_OPS};
use mpq_model::{Query, TableSet};
use mpq_plan::{Plan, PlanOp};

/// One reachable costing state for a prefix of the join order.
#[derive(Clone, Copy, Debug)]
struct State {
    cost: CostVector,
    order: Order,
    /// Back-pointers for plan reconstruction: operator used at this step
    /// and the predecessor state index in the previous step's state list.
    op: Option<JoinOp>,
    prev: usize,
}

/// Exact minimal execution-time cost of the left-deep plan joining tables
/// in the given `permutation`, with operator selection and interesting
/// orders solved optimally for that order.
///
/// # Panics
/// Panics if `permutation` is empty or mentions a table twice.
pub fn order_cost(query: &Query, permutation: &[usize]) -> f64 {
    cost_states(query, permutation)
        .last()
        .expect("at least one step")
        .iter()
        .map(|s| s.cost.time)
        .fold(f64::INFINITY, f64::min)
}

/// Builds the full [`Plan`] realizing [`order_cost`] for `permutation`.
pub fn order_to_plan(query: &Query, permutation: &[usize]) -> Plan {
    let layers = cost_states(query, permutation);
    let mut est = CardinalityEstimator::new(query);
    // Find the cheapest final state and walk the back-pointers.
    let last = layers.last().expect("non-empty");
    let mut best = 0;
    for (i, s) in last.iter().enumerate() {
        if s.cost.time < last[best].cost.time {
            best = i;
        }
    }
    let mut choice = Vec::with_capacity(layers.len());
    let mut idx = best;
    for layer in layers.iter().rev() {
        choice.push(layer[idx].op);
        idx = layer[idx].prev;
    }
    choice.reverse();

    // Rebuild the plan bottom-up, the running cost and output order in
    // locals.
    let first = permutation[0];
    let mut cost = ScanOp::Full.cost(&est, first);
    let mut order = ScanOp::Full.output_order();
    let mut ops = Vec::with_capacity(2 * permutation.len() - 1);
    ops.push(PlanOp::Scan {
        table: first as u8,
        op: ScanOp::Full,
    });
    let mut used = TableSet::singleton(first);
    for (step, &t) in permutation.iter().enumerate().skip(1) {
        let op = choice[step].expect("join steps carry an operator");
        let right = TableSet::singleton(t);
        let app = op
            .apply(&mut est, used, right, order, Order::None)
            .expect("operator was applicable during costing");
        cost = cost.add(&ScanOp::Full.cost(&est, t)).add(&app.cost);
        order = app.output_order;
        used = used.insert(t);
        ops.push(PlanOp::Scan {
            table: t as u8,
            op: ScanOp::Full,
        });
        ops.push(PlanOp::Join { op });
    }
    Plan { cost, ops }
}

/// Computes, for every prefix of the permutation, the Pareto-minimal
/// `(cost, output order)` states.
fn cost_states(query: &Query, permutation: &[usize]) -> Vec<Vec<State>> {
    assert!(!permutation.is_empty(), "empty join order");
    let mut seen = TableSet::empty();
    for &t in permutation {
        assert!(!seen.contains(t), "table {t} repeated in join order");
        seen = seen.insert(t);
    }
    let mut est = CardinalityEstimator::new(query);
    let mut layers: Vec<Vec<State>> = Vec::with_capacity(permutation.len());
    let first = permutation[0];
    layers.push(vec![State {
        cost: ScanOp::Full.cost(&est, first),
        order: Order::None,
        op: None,
        prev: 0,
    }]);
    let mut used = TableSet::singleton(first);
    for &t in &permutation[1..] {
        let right = TableSet::singleton(t);
        let rcost = ScanOp::Full.cost(&est, t);
        let mut next: Vec<State> = Vec::new();
        let prev_layer = layers.last().expect("non-empty").clone();
        for (pi, p) in prev_layer.iter().enumerate() {
            for op in JOIN_OPS {
                let Some(app) = op.apply(&mut est, used, right, p.order, Order::None) else {
                    continue;
                };
                let cost = p.cost.add(&rcost).add(&app.cost);
                push_state(
                    &mut next,
                    State {
                        cost,
                        order: app.output_order,
                        op: Some(op),
                        prev: pi,
                    },
                );
            }
        }
        used = used.insert(t);
        layers.push(next);
    }
    layers
}

/// Keeps only the cheapest state per output order.
fn push_state(states: &mut Vec<State>, new: State) {
    for s in states.iter_mut() {
        if s.order == new.order {
            if new.cost.time < s.cost.time {
                *s = new;
            }
            return;
        }
    }
    states.push(new);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_model::{WorkloadConfig, WorkloadGenerator};

    fn query(n: usize, seed: u64) -> Query {
        WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query()
    }

    #[test]
    fn single_table_cost_is_scan() {
        let q = query(3, 1);
        let c = order_cost(&q, &[1]);
        assert_eq!(c, q.catalog.stats(1).cardinality);
    }

    #[test]
    fn plan_matches_cost() {
        let q = query(5, 2);
        let perm = [2usize, 0, 4, 1, 3];
        let plan = order_to_plan(&q, &perm);
        let cost = order_cost(&q, &perm);
        assert_eq!(plan.cost().time.to_bits(), cost.to_bits());
        assert!(plan.is_left_deep());
        assert_eq!(
            plan.join_order(),
            Some(perm.iter().map(|&t| t as u8).collect())
        );
        plan.validate().expect("valid tree");
        let explained = mpq_dp::explain(&q, &plan).expect("fits its query");
        assert!(explained.is_monotone());
        assert_eq!(explained.root().cost, plan.cost());
    }

    #[test]
    fn best_order_matches_dp_optimum() {
        // Minimizing order_cost over all permutations must equal the DP.
        use mpq_cost::Objective;
        use mpq_partition::PlanSpace;
        for seed in 0..4 {
            let q = query(5, seed + 10);
            let dp = mpq_dp::optimize_serial(&q, PlanSpace::Linear, Objective::Single);
            let mut best = f64::INFINITY;
            let mut perm: Vec<usize> = (0..5).collect();
            permute_all(&mut perm, 0, &mut |p| {
                best = best.min(order_cost(&q, p));
            });
            let dp_time = dp.plans[0].cost().time;
            assert_eq!(
                best.to_bits(),
                dp_time.to_bits(),
                "seed {seed}: {best} vs {dp_time}"
            );
        }
    }

    fn permute_all(perm: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
        if k == perm.len() {
            f(perm);
            return;
        }
        for i in k..perm.len() {
            perm.swap(k, i);
            permute_all(perm, k + 1, f);
            perm.swap(k, i);
        }
    }

    #[test]
    #[should_panic]
    fn repeated_table_rejected() {
        let q = query(3, 3);
        let _ = order_cost(&q, &[0, 0, 1]);
    }

    #[test]
    #[should_panic]
    fn empty_order_rejected() {
        let q = query(3, 4);
        let _ = order_cost(&q, &[]);
    }
}
