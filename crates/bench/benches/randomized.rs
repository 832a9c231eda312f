//! Supplementary study (Section 1 of the paper): randomized join-ordering
//! algorithms — iterated improvement and simulated annealing — are easier
//! to parallelize than the dynamic program, but carry no optimality
//! guarantee.
//!
//! Question: how far from the optimum do they land, and what do they cost
//! on one thread? `benchmark/` runs only the exact optimizer. The quality
//! gap that motivates parallelizing the DP instead is exact (seeded
//! heuristics, one cost model): `quality_{ii,sa,greedy}_linear{n}`, the
//! median cost ratio to the DP optimum on star queries; `time_*` are the
//! one-thread clock readings beside it.

use mpq_bench::*;
use mpq_cost::Objective;
use mpq_dp::optimize_serial;
use mpq_heuristics::{
    greedy_min_result, order_cost, IiConfig, IterativeImprovement, SaConfig, SimulatedAnnealing,
};
use mpq_model::JoinGraph;
use mpq_partition::PlanSpace;
use std::time::Instant;

fn main() {
    let full = full_scale();
    let sizes: Vec<usize> = if full {
        vec![10, 12, 14, 16]
    } else {
        vec![8, 10, 12]
    };
    println!("Randomized baselines vs the dynamic program (left-deep, star queries)");
    println!("cells: median cost ratio to the DP optimum (1.0 = optimal) | median ms");
    let mut report = BenchReport::new("randomized");
    report.config("queries_per_point", queries_per_point());
    let mut rows = Vec::new();
    for tables in sizes {
        let batch = query_batch(tables, JoinGraph::Star, 0x9A4D, queries_per_point());
        let mut dp_ms = Vec::new();
        let mut ii_ratio = Vec::new();
        let mut ii_ms = Vec::new();
        let mut sa_ratio = Vec::new();
        let mut sa_ms = Vec::new();
        let mut greedy_ratio = Vec::new();
        for (i, q) in batch.iter().enumerate() {
            let t0 = Instant::now();
            let opt = optimize_serial(q, PlanSpace::Linear, Objective::Single).plans[0]
                .cost()
                .time;
            dp_ms.push(t0.elapsed().as_secs_f64() * 1e3);

            let t0 = Instant::now();
            let (_, ii) = IterativeImprovement::new(IiConfig {
                restarts: 4,
                seed: i as u64,
            })
            .optimize(q);
            ii_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            ii_ratio.push(ii / opt);

            let t0 = Instant::now();
            let (_, sa) = SimulatedAnnealing::new(SaConfig {
                seed: i as u64,
                ..SaConfig::default()
            })
            .optimize(q);
            sa_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            sa_ratio.push(sa / opt);

            let greedy = order_cost(q, &greedy_min_result(q));
            greedy_ratio.push(greedy / opt);
        }
        let id = |what: &str| format!("{what}_linear{tables}");
        report
            .timing(&id("time_dp"), "ms", &dp_ms)
            .timing(&id("time_ii"), "ms", &ii_ms)
            .timing(&id("time_sa"), "ms", &sa_ms);
        let (ii, sa, greedy) = (
            median(&mut ii_ratio),
            median(&mut sa_ratio),
            median(&mut greedy_ratio),
        );
        assert!(
            ii.min(sa).min(greedy) >= 1.0,
            "{tables} tables: no heuristic may beat the DP optimum"
        );
        report
            .exact(&id("quality_ii"), "ratio", ii)
            .exact(&id("quality_sa"), "ratio", sa)
            .exact(&id("quality_greedy"), "ratio", greedy);
        rows.push(vec![
            tables.to_string(),
            format!("{:.1}", median(&mut dp_ms)),
            format!("{ii:.3} | {:.1}", median(&mut ii_ms)),
            format!("{sa:.3} | {:.1}", median(&mut sa_ms)),
            format!("{greedy:.3}"),
        ]);
    }
    print_table(
        "quality vs DP optimum",
        &[
            "tables",
            "DP ms",
            "iter.improve",
            "sim.anneal",
            "greedy ratio",
        ],
        &rows,
    );
    report.write();
}
