//! Figure 5: MPQ scaling for multi-objective optimization (two cost
//! metrics, α = 10) on queries large enough to exploit high parallelism.
//!
//! Question: does Figure 2's scaling survive Pareto frontiers, where a
//! worker's reply is a plan *set*? `benchmark/`'s `large_bushy_multi`
//! covers one bushy size up to 16 partitions; this is the figure's linear
//! sweep to 64.
//!
//! Paper configuration: Linear 16, 18, 20 tables, workers 16..256.
//! Scaled default: Linear 12, 14, 16, workers 4..64.
//!
//! Expected shape (paper): steady scaling up to the maximum worker count
//! without diminishing returns; memory per worker decreases steadily;
//! network grows linearly in workers.

use mpq_bench::*;
use mpq_cost::Objective;
use mpq_model::JoinGraph;
use mpq_partition::PlanSpace;

fn main() {
    let full = full_scale();
    let objective = Objective::Multi { alpha: 10.0 };
    let (sizes, min_w, max_w): (Vec<usize>, u64, u64) = if full {
        (vec![16, 18, 20], 16, 256)
    } else {
        (vec![12, 14, 16], 4, 64)
    };
    println!("Figure 5 reproduction: MPQ scaling, two cost metrics (α = 10)");
    println!("(scaled run: {}; set MPQ_FULL=1 for paper sizes)", !full);
    let mut report = BenchReport::new("fig5");
    report.config("queries_per_point", queries_per_point());
    for tables in sizes {
        let batch = query_batch(tables, JoinGraph::Star, 0xF165, queries_per_point());
        let label = format!("Linear {tables}");
        let points = scaling_series(
            &mut report,
            &label,
            &batch,
            PlanSpace::Linear,
            objective,
            &worker_counts(min_w, max_w),
        );
        // A linear split count shrinks by 3/4 · (1 − 1/(3n/2 − l)) at the
        // l-th doubling (the new constraint also bars one of its pair's
        // three removable tables), which tends to the paper's 3/4 from
        // below: at 12 tables the term is worth 0.052 over this sweep, so
        // that series is tabulated (EXPERIMENTS.md) but not held to ± 0.05.
        if tables >= 14 {
            assert_paper_factors(&label, PlanSpace::Linear, &points);
        }
    }
    report.write();
}
