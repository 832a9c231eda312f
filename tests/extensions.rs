//! Integration tests for the extension modules: parametric optimization,
//! the randomized baselines and the execution engine — exercised together
//! across crate boundaries.

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_macros)]

use pqopt::dp::{
    merge_parametric, optimize_parametric, optimize_parametric_partition, optimize_serial,
    pick_for, ParametricQuery, Pricer,
};
use pqopt::exec::{execute, DataConfig, Database};
use pqopt::heuristics::{
    greedy_min_result, order_cost, order_to_plan, IiConfig, IterativeImprovement, SaConfig,
    SimulatedAnnealing,
};
use pqopt::partition::{partition_constraints, ConstraintSet, Grouping};
use pqopt::prelude::*;

fn query(n: usize, seed: u64) -> Query {
    WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query()
}

fn parametric(n: usize, seed: u64) -> ParametricQuery {
    let low = query(n, seed);
    let mut high = low.clone();
    for p in &mut high.predicates {
        p.selectivity = (p.selectivity * 100.0).min(0.5);
    }
    ParametricQuery::new(low, high)
}

#[test]
fn parametric_parallel_equals_serial_at_every_theta() {
    let pq = parametric(7, 1);
    let serial = optimize_parametric(&pq, PlanSpace::Linear);
    let m = 8u64;
    let merged = merge_parametric(
        (0..m)
            .map(|id| {
                let cs = partition_constraints(7, PlanSpace::Linear, id, m);
                optimize_parametric_partition(&pq, PlanSpace::Linear, &cs)
            })
            .collect(),
    );
    for theta in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let pick = |o: &pqopt::dp::ParametricOutcome| {
            let p = pick_for(o, theta);
            o.plans
                .iter()
                .find(|(q, _)| q == p)
                .map(|(_, c)| *c)
                .unwrap()
        };
        let s = pick(&serial);
        let p = pick(&merged);
        let interp = |c: CostVector| c.time * (1.0 - theta) + c.buffer * theta;
        assert_eq!(
            interp(p).to_bits(),
            interp(s).to_bits(),
            "theta {theta}: parallel pick {} vs serial pick {}",
            interp(p),
            interp(s)
        );
    }
}

#[test]
fn heuristic_plans_execute_to_the_same_result_as_optimal_plans() {
    let q = query(5, 3);
    let db = Database::generate(
        &q,
        &DataConfig {
            max_rows_per_table: 60,
            seed: 3,
        },
    );
    let optimal = optimize_serial(&q, PlanSpace::Bushy, Objective::Single)
        .plans
        .remove(0);
    let reference = execute(&q, &optimal, &db).unwrap().0.canonical_rows();

    for plan in [
        order_to_plan(&q, &greedy_min_result(&q)),
        order_to_plan(
            &q,
            &IterativeImprovement::new(IiConfig {
                restarts: 2,
                seed: 1,
            })
            .optimize(&q)
            .0,
        ),
        order_to_plan(
            &q,
            &SimulatedAnnealing::new(SaConfig {
                seed: 1,
                ..SaConfig::default()
            })
            .optimize(&q)
            .0,
        ),
    ] {
        plan.validate().expect("valid tree");
        assert!(pqopt::dp::explain(&q, &plan).unwrap().is_monotone());
        let rows = execute(&q, &plan, &db).unwrap().0.canonical_rows();
        assert_eq!(rows, reference, "all plans answer the same query");
    }
}

#[test]
fn heuristics_never_beat_the_dp_and_ii_is_close() {
    for seed in 0..4 {
        let q = query(8, 10 + seed);
        let opt = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0]
            .cost()
            .time;
        let (_, ii) = IterativeImprovement::new(IiConfig { restarts: 6, seed }).optimize(&q);
        let (_, sa) = SimulatedAnnealing::new(SaConfig {
            seed,
            ..SaConfig::default()
        })
        .optimize(&q);
        let greedy = order_cost(&q, &greedy_min_result(&q));
        for (name, c) in [("ii", ii), ("sa", sa), ("greedy", greedy)] {
            assert!(
                c >= opt,
                "{name} reported cost below the optimum: {c} < {opt}"
            );
        }
        assert!(
            ii <= 3.0 * opt,
            "II should be within 3x on 8 tables, got {}",
            ii / opt
        );
    }
}

#[test]
fn mpq_plan_survives_wire_and_executes() {
    // Plan chosen in parallel → serialized → deserialized → executed: the
    // full production path a downstream system would take.
    use pqopt::cluster::Wire;
    let q = query(6, 4);
    let out = MpqOptimizer::new(MpqConfig::default()).optimize(
        &q,
        PlanSpace::Bushy,
        Objective::Single,
        4,
    );
    let bytes = out.plans[0].to_bytes();
    // The tree crosses the wire, not its cost: the receiver prices it.
    let plan = Plan::from_bytes(&bytes).expect("decode");
    assert_eq!(plan.ops, out.plans[0].ops);
    let priced = Pricer::new(&q)
        .price(PlanSpace::Bushy, plan)
        .expect("an MPQ plan prices")
        .into_plan();
    assert_eq!(
        priced.cost().time.to_bits(),
        out.plans[0].cost().time.to_bits()
    );
    let plan = priced;
    let db = Database::generate(
        &q,
        &DataConfig {
            max_rows_per_table: 50,
            seed: 4,
        },
    );
    let (rel, stats) = execute(&q, &plan, &db).expect("runs");
    assert_eq!(rel.tables, q.all_tables());
    assert_eq!(stats.joins as usize, q.num_tables() - 1);
}

#[test]
fn parametric_set_is_small_but_covering() {
    let pq = parametric(8, 5);
    let out = optimize_parametric(&pq, PlanSpace::Linear);
    // A parametric plan set should be a handful of plans, not the whole
    // plan space, yet contain the scenario optima.
    assert!(
        out.plans.len() < 64,
        "frontier exploded: {}",
        out.plans.len()
    );
    let opt_low = optimize_serial(&pq.low, PlanSpace::Linear, Objective::Single).plans[0]
        .cost()
        .time;
    let best_low = out
        .plans
        .iter()
        .map(|(_, c)| c.time)
        .fold(f64::INFINITY, f64::min);
    assert_eq!(best_low.to_bits(), opt_low.to_bits());
}

#[test]
fn unconstrained_constraint_set_is_the_serial_space() {
    let grouping = Grouping::new(9, PlanSpace::Bushy);
    let cs = ConstraintSet::unconstrained(grouping);
    let q = query(9, 7);
    let a = pqopt::dp::optimize_partition(&q, PlanSpace::Bushy, Objective::Single, &cs);
    let b = optimize_serial(&q, PlanSpace::Bushy, Objective::Single);
    assert_eq!(a.plans[0].cost().time, b.plans[0].cost().time);
    assert_eq!(a.stats.stored_sets, b.stats.stored_sets);
}
