//! Ablation: constraint-aware bushy split enumeration (Cartesian product
//! of admissible per-group parts, Algorithm 5) vs filter-after-enumerate.
//!
//! Question: what does Algorithm 5 buy? The paper invests "more effort in
//! case of bushy plans" to generate only admissible splits, making
//! per-set work linear in the number of *admissible* rather than
//! *possible* splits (Section 4.2). With `l` constraints the filtered
//! variant still touches all `2^|U|` splits per set while the product
//! variant touches `~(6/8)^l` of them: `splits_{product,filtered}_*` are
//! the exact counts, `dp_{product,filtered}_*` the one-thread time. Both
//! columns run the same slot-at-a-time reference loop, so they differ
//! only in the enumeration. `benchmark/` never runs the filtered walk.

use mpq_bench::*;
use mpq_cost::Objective;
use mpq_dp::{optimize_partition_reference, worker::optimize_partition_bushy_filtered};
use mpq_model::JoinGraph;
use mpq_partition::{partition_constraints, PlanSpace};
use std::time::Instant;

fn main() {
    let full = full_scale();
    let tables = if full { 15 } else { 12 };
    let max_l = PlanSpace::Bushy.max_constraints(tables) as u32;
    println!("Ablation: bushy split enumeration (product vs filtered), {tables} tables");
    let batch = query_batch(tables, JoinGraph::Star, 0xAB15, queries_per_point());
    let mut report = BenchReport::new("ablation_splits");
    report.config("queries_per_point", queries_per_point());
    let mut rows = Vec::new();
    for l in 0..=max_l {
        let partitions = 1u64 << l;
        let constraints = partition_constraints(tables, PlanSpace::Bushy, 0, partitions);
        let mut product_ms = Vec::new();
        let mut filtered_ms = Vec::new();
        let mut product_splits = 0u64;
        let mut filtered_splits = 0u64;
        for q in &batch {
            let t0 = Instant::now();
            let a =
                optimize_partition_reference(q, PlanSpace::Bushy, Objective::Single, &constraints);
            product_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            product_splits = a.stats.splits_tried;

            let t0 = Instant::now();
            let b = optimize_partition_bushy_filtered(q, Objective::Single, &constraints);
            filtered_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            filtered_splits = b.stats.splits_tried;

            assert_eq!(
                a.plans[0].cost().time,
                b.plans[0].cost().time,
                "both enumerations must find the same optimum"
            );
        }
        assert!(
            product_splits <= filtered_splits,
            "the product walk visits a subset of the filtered walk's splits"
        );
        let id = |what: &str| format!("{what}_bushy{tables}_l{l}");
        report
            .exact(&id("splits_product"), "count", product_splits as f64)
            .exact(&id("splits_filtered"), "count", filtered_splits as f64)
            .timing(&id("dp_product"), "ms", &product_ms)
            .timing(&id("dp_filtered"), "ms", &filtered_ms);
        rows.push(vec![
            l.to_string(),
            fmt_num(median(&mut product_ms)),
            fmt_num(median(&mut filtered_ms)),
            product_splits.to_string(),
            filtered_splits.to_string(),
        ]);
    }
    print_table(
        "median DP time and splits tried per constraint count",
        &[
            "l",
            "product(ms)",
            "filtered(ms)",
            "product splits",
            "filtered splits",
        ],
        &rows,
    );
    report.write();
}
