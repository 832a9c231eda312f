//! Figure 3: impact of the join-graph structure (chain / star / cycle) on
//! optimization work for SMA (8 and 12 tables) and MPQ (12 tables), plus
//! how evenly that work falls on the partitions.
//!
//! Question: does the join graph change what a worker does? Both
//! algorithms run the classical DP over all table subsets (cross products
//! allowed), so the paper reports overlapping time curves. In exact form:
//! an MPQ worker's splits tried and stored relations are **equal** across
//! graphs (asserted); plans generated — and with them the memo entries
//! SMA ships — differ only by the interesting orders a graph keeps alive. `work_imbalance_{plans,splits}_{graph}` — max ÷ mean
//! over the 8 partitions at Linear 15 — is ROADMAP item 6's number as an
//! id; `benchmark/` has only its timing shadow (`dp.imbalance.m8`) and
//! only on the star. Every id is exact.
//!
//! Scaled default uses SMA at 8 & 10 tables and MPQ at 12
//! (`MPQ_FULL=1`: SMA 8 & 12, MPQ 12, workers up to 128).

use mpq_bench::*;
use mpq_cost::Objective;
use mpq_model::JoinGraph;
use mpq_partition::PlanSpace;

const SEED: u64 = 0xF163;

fn name(graph: JoinGraph) -> String {
    format!("{graph:?}").to_lowercase()
}

fn main() {
    let full = full_scale();
    let workers: Vec<u64> = if full {
        vec![2, 16, 128]
    } else {
        vec![2, 8, 32]
    };
    let sma_sizes: Vec<usize> = if full { vec![8, 12] } else { vec![8, 10] };
    let graphs = [JoinGraph::Chain, JoinGraph::Star, JoinGraph::Cycle];
    let header = ["workers", "chain", "star", "cycle"];
    println!("Figure 3 reproduction: join-graph structure vs optimization work");
    let mut report = BenchReport::new("fig3");
    report.config("queries_per_point", queries_per_point());

    for &tables in &sma_sizes {
        let mut rows = Vec::new();
        for &w in &workers {
            let mut cells = vec![w.to_string()];
            for g in graphs {
                let batch = query_batch(tables, g, SEED, queries_per_point());
                let bytes = run_sma_point(&batch, PlanSpace::Linear, Objective::Single, w as usize);
                let id = format!("net_bytes_sma_{}_linear{tables}_w{w}", name(g));
                report.exact(&id, "bytes", bytes);
                cells.push(fmt_num(bytes));
            }
            rows.push(cells);
        }
        print_table(
            &format!("SMA-{tables} tables: network bytes"),
            &header,
            &rows,
        );
    }

    let mut rows = Vec::new();
    for &w in &workers {
        let points = graphs.map(|g| {
            let batch = query_batch(12, g, SEED, queries_per_point());
            let p = run_mpq_point(&batch, PlanSpace::Linear, Objective::Single, w);
            let id = |series: &str| format!("work_{series}_max_{}_linear12_w{w}", name(g));
            report
                .exact(&id("splits"), "count", p.splits)
                .exact(&id("plans"), "count", p.plans);
            p
        });
        assert!(
            points
                .iter()
                .all(|p| (p.splits, p.stored_sets) == (points[0].splits, points[0].stored_sets)),
            "MPQ-12, {w} workers: the enumeration must not depend on the graph"
        );
        let mut cells = vec![w.to_string()];
        cells.extend(
            points
                .iter()
                .map(|p| format!("{} | {}", fmt_num(p.splits), fmt_num(p.plans))),
        );
        rows.push(cells);
    }
    print_table(
        "MPQ-12 tables: max-over-workers splits | plans",
        &header,
        &rows,
    );

    // How evenly 8 partitions share a 15-table query, per graph.
    let mut rows = Vec::new();
    for g in [
        JoinGraph::Chain,
        JoinGraph::Star,
        JoinGraph::Cycle,
        JoinGraph::Clique,
    ] {
        let mut plans = Vec::new();
        let mut splits = Vec::new();
        for q in query_batch(15, g, SEED, queries_per_point()) {
            let stats = MpqOptimizer::default()
                .optimize(&q, PlanSpace::Linear, Objective::Single, 8)
                .metrics
                .worker_stats;
            let max_over_mean = |f: fn(&mpq_dp::WorkerStats) -> u64| {
                let max = stats.iter().map(f).max().expect("eight workers") as f64;
                max / (stats.iter().map(f).sum::<u64>() as f64 / stats.len() as f64)
            };
            plans.push(max_over_mean(|s| s.plans_generated));
            splits.push(max_over_mean(|s| s.splits_tried));
        }
        let (plans, splits) = (median(&mut plans), median(&mut splits));
        report
            .exact(&format!("work_imbalance_plans_{}", name(g)), "ratio", plans)
            .exact(
                &format!("work_imbalance_splits_{}", name(g)),
                "ratio",
                splits,
            );
        rows.push(vec![name(g), format!("{plans:.4}"), format!("{splits:.4}")]);
    }
    print_table(
        "Linear 15, 8 partitions: max ÷ mean of per-partition work",
        &["graph", "plans", "splits"],
        &rows,
    );
    report.write();
}
