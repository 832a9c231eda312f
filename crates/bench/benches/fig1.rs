//! Figure 1: MPQ vs SMA — network traffic for single-objective
//! optimization over linear and bushy plan spaces.
//!
//! Question: what does each algorithm ship as workers double?
//! `benchmark/` runs no SMA at all. Every id is exact, so this target is
//! one of those CI runs twice. (The figure's time axis is `fig2`'s
//! uncontended W-time for MPQ; SMA is a straight-line run billed message
//! by message, with no wall clock.)
//!
//! Paper configuration: Linear 8 & 16 tables, Bushy 9 & 15 tables, star
//! join graphs, workers 1..128, median of 20 queries. Scaled default:
//! Linear 8 & 12, Bushy 9 & 12, workers 1..32, median of 3 queries
//! (`MPQ_FULL=1` restores paper sizes).
//!
//! Expected shape (paper): SMA ships megabytes (intermediate-result
//! sharing, growing with the memo) while MPQ ships kilobytes (one task
//! out, one plan back per worker).

use mpq_bench::*;
use mpq_cost::Objective;
use mpq_model::JoinGraph;
use mpq_partition::PlanSpace;

fn main() {
    let full = full_scale();
    let configs: Vec<(&str, PlanSpace, usize, u64)> = if full {
        vec![
            ("Linear 8", PlanSpace::Linear, 8, 16),
            ("Linear 16", PlanSpace::Linear, 16, 128),
            ("Bushy 9", PlanSpace::Bushy, 9, 8),
            ("Bushy 15", PlanSpace::Bushy, 15, 32),
        ]
    } else {
        vec![
            ("Linear 8", PlanSpace::Linear, 8, 16),
            ("Linear 12", PlanSpace::Linear, 12, 32),
            ("Bushy 9", PlanSpace::Bushy, 9, 8),
            ("Bushy 12", PlanSpace::Bushy, 12, 16),
        ]
    };
    println!("Figure 1 reproduction: MPQ vs SMA, one cost metric (star queries)");
    println!("(scaled run: {}; set MPQ_FULL=1 for paper sizes)", !full);
    let mut report = BenchReport::new("fig1");
    report.config("queries_per_point", queries_per_point());
    for (label, space, tables, max_workers) in configs {
        let batch = query_batch(tables, JoinGraph::Star, 0xF161, queries_per_point());
        versus_table(
            &mut report,
            label,
            &batch,
            space,
            Objective::Single,
            max_workers,
        );
    }
    report.write();
}
