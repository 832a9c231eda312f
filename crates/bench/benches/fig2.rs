//! Figure 2: MPQ scaling for sufficiently large search spaces, one cost
//! metric — max worker time (W-Time), per-worker memory in relations, and
//! network bytes, as the worker count doubles.
//!
//! Question: do a worker's time and memory fall by the paper's factor per
//! doubling while network bytes grow linearly? `benchmark/` answers it for
//! one 15-table query per run; this target sweeps the figure's sizes and
//! **asserts** the exact series against the theorems.
//!
//! Paper configuration: Linear 20 & 24, Bushy 15 & 18, workers 1..128.
//! Scaled default: Linear 16 & 18, Bushy 12 & 14, workers 1..64.
//!
//! Expected shape (paper): steady scaling at the theoretical factors —
//! time and memory shrink by ~3/4 per doubling for linear spaces and by
//! ~21/27 (time) / ~7/8 (memory) for bushy spaces; network bytes grow
//! linearly in the worker count and depend only marginally on query size.

use mpq_bench::*;
use mpq_cost::Objective;
use mpq_model::JoinGraph;
use mpq_partition::PlanSpace;

fn main() {
    let full = full_scale();
    let configs: Vec<(&str, PlanSpace, usize, u64)> = if full {
        vec![
            ("Linear 20", PlanSpace::Linear, 20, 128),
            ("Linear 24", PlanSpace::Linear, 24, 128),
            ("Bushy 15", PlanSpace::Bushy, 15, 32),
            ("Bushy 18", PlanSpace::Bushy, 18, 64),
        ]
    } else {
        vec![
            ("Linear 16", PlanSpace::Linear, 16, 64),
            ("Linear 18", PlanSpace::Linear, 18, 64),
            ("Bushy 12", PlanSpace::Bushy, 12, 16),
            ("Bushy 14", PlanSpace::Bushy, 14, 16),
        ]
    };
    println!("Figure 2 reproduction: MPQ scaling, one cost metric (star queries)");
    println!("(scaled run: {}; set MPQ_FULL=1 for paper sizes)", !full);
    let mut report = BenchReport::new("fig2");
    report.config("queries_per_point", queries_per_point());
    for (label, space, tables, max_workers) in configs {
        let batch = query_batch(tables, JoinGraph::Star, 0xF162, queries_per_point());
        let workers = worker_counts(1, max_workers);
        let points = scaling_series(
            &mut report,
            label,
            &batch,
            space,
            Objective::Single,
            &workers,
        );
        assert_paper_factors(label, space, &points);
        // One task out, one plan back per worker: exactly linear.
        for (&w, p) in workers.iter().zip(&points) {
            assert_eq!(
                p.net_bytes,
                w as f64 * points[0].net_bytes,
                "{label}: bytes at {w} workers"
            );
        }
    }
    report.write();
}
