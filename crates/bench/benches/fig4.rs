//! Figure 4: MPQ vs SMA for multi-objective query optimization (two cost
//! metrics: execution time and buffer space, α = 10).
//!
//! Question: Figure 1's, with Pareto frontiers in every memo slot and in
//! every reply. Every id is exact.
//!
//! Paper configuration: Linear 10 and Bushy 9, workers 1..128. These sizes
//! are small enough to run unscaled; the scaled default only reduces the
//! worker range and query count.
//!
//! Expected shape (paper): same tendencies as single-objective — MPQ far
//! cheaper in bytes; MPQ's network traffic is higher than in the
//! single-objective case because each worker returns a Pareto *set*.

use mpq_bench::*;
use mpq_cost::Objective;
use mpq_model::JoinGraph;
use mpq_partition::PlanSpace;

fn main() {
    let full = full_scale();
    let objective = Objective::Multi { alpha: 10.0 };
    let configs: Vec<(&str, PlanSpace, usize, u64)> = vec![
        (
            "Linear 10",
            PlanSpace::Linear,
            10,
            if full { 32 } else { 16 },
        ),
        ("Bushy 9", PlanSpace::Bushy, 9, 8),
    ];
    println!("Figure 4 reproduction: MPQ vs SMA, two cost metrics (α = 10)");
    let mut report = BenchReport::new("fig4");
    report.config("queries_per_point", queries_per_point());
    for (label, space, tables, max_workers) in configs {
        let batch = query_batch(tables, JoinGraph::Star, 0xF164, queries_per_point());
        versus_table(&mut report, label, &batch, space, objective, max_workers);
    }

    // The paper also reports the median number of complete Pareto-optimal
    // plans (21 for Linear 12, 16 for Bushy 9).
    let mut rows = Vec::new();
    for (label, space, tables) in [
        ("Linear 12", PlanSpace::Linear, 12),
        ("Bushy 9", PlanSpace::Bushy, 9),
    ] {
        let batch = query_batch(tables, JoinGraph::Star, 0xF164, queries_per_point());
        let mut sizes: Vec<f64> = batch
            .iter()
            .map(|q| {
                MpqOptimizer::default()
                    .optimize(q, space, objective, 1)
                    .plans
                    .len() as f64
            })
            .collect();
        let plans = median(&mut sizes);
        report.exact(&format!("pareto_plans_{}", slug(label)), "count", plans);
        rows.push(vec![label.to_string(), fmt_num(plans)]);
    }
    print_table(
        "Median Pareto-set size (paper: 21 for Linear 12, 16 for Bushy 9)",
        &["space", "median plans"],
        &rows,
    );
    report.write();
}
