//! Join-graph study (miniature Figure 3): because MPQ's dynamic program
//! enumerates the same admissible table sets regardless of predicate
//! structure (cross products allowed), the join graph shape has negligible
//! impact on optimization time — while the *plans* it picks differ
//! substantially.
//!
//! ```sh
//! cargo run --release --example join_graphs
//! ```

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use pqopt::prelude::*;

fn main() {
    let tables = 12;
    let optimizer = MpqOptimizer::new(MpqConfig::default());
    println!("MPQ on {tables}-table queries, 16 workers, linear plan space\n");
    println!(
        "{:>8} {:>12} {:>14} {:>14} {:>16}",
        "graph", "time (ms)", "splits tried", "plan cost", "cross products"
    );
    for graph in JoinGraph::ALL {
        let mut generator = WorkloadGenerator::new(WorkloadConfig::with_graph(tables, graph), 99);
        let query = generator.next_query();
        let out = optimizer.optimize(&query, PlanSpace::Linear, Objective::Single, 16);
        let plan = &out.plans[0];
        let splits: u64 = out
            .metrics
            .worker_stats
            .iter()
            .map(|s| s.splits_tried)
            .sum();
        println!(
            "{:>8} {:>12.1} {:>14} {:>14.4e} {:>16}",
            format!("{graph:?}"),
            out.metrics.total_micros as f64 / 1e3,
            splits,
            plan.cost().time,
            count_cross_products(&query, plan),
        );
    }
    println!(
        "\nsplits tried is identical across graphs: the DP's work depends only\n\
         on the query size, which is exactly the paper's Figure 3 finding."
    );
}

/// Counts joins in `plan` that have no connecting predicate (pure cross
/// products).
fn count_cross_products(query: &Query, plan: &Plan) -> usize {
    let subtrees = plan.subtrees().expect("an optimizer plan is one tree");
    (0..plan.ops.len())
        .filter(|&at| matches!(plan.ops[at], PlanOp::Join { .. }))
        .filter(|&at| {
            // In post-order the inner operand's subtree ends just before
            // its join; the outer operand holds the rest of the join's.
            let right = subtrees[at - 1];
            let left = subtrees[at].difference(right);
            query.join_selectivity(left, right) == 1.0
        })
        .count()
}
