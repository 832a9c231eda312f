//! Ablation: dense mixed-radix memo vs hash-map memo vs arena memo.
//!
//! The dense layout (flat array addressed by the mixed-radix index over
//! per-group admissible subsets) was this implementation's original data-
//! structure choice; the hash memo is the conventional alternative; the
//! arena layout (one contiguous entry array with per-set spans, streaming
//! pruning) is the current default kernel. All three run the identical
//! dynamic program — the bench asserts they agree on the optimum — and
//! this measures the layout's effect on serial and partitioned
//! optimization time.

use mpq_bench::*;
use mpq_cost::Objective;
use mpq_dp::{
    optimize_partition_parallel, optimize_partition_with, DenseMemo, HashMemo, ParallelPolicy,
};
use mpq_model::JoinGraph;
use mpq_partition::{partition_constraints, AdmissibleSets, PlanSpace};
use std::time::Instant;

fn main() {
    let full = full_scale();
    let configs: Vec<(PlanSpace, usize, u64)> = if full {
        vec![
            (PlanSpace::Linear, 16, 1),
            (PlanSpace::Linear, 18, 1),
            (PlanSpace::Linear, 18, 16),
            (PlanSpace::Bushy, 14, 1),
        ]
    } else {
        vec![
            (PlanSpace::Linear, 14, 1),
            (PlanSpace::Linear, 16, 1),
            (PlanSpace::Linear, 16, 16),
            (PlanSpace::Bushy, 12, 1),
        ]
    };
    println!("Ablation: dense mixed-radix memo vs hash memo vs arena memo");
    let mut rows = Vec::new();
    for (space, tables, partitions) in configs {
        let batch = query_batch(tables, JoinGraph::Star, 0xAB1A, queries_per_point());
        let constraints = partition_constraints(tables, space, 0, partitions);
        let adm = AdmissibleSets::new(&constraints);
        let mut dense_ms = Vec::new();
        let mut hash_ms = Vec::new();
        let mut arena_ms = Vec::new();
        let mut dense_cost = 0.0;
        let mut hash_cost = 0.0;
        let mut arena_cost = 0.0;
        for q in &batch {
            let t0 = Instant::now();
            let mut memo = DenseMemo::new(adm.clone());
            let out =
                optimize_partition_with(q, space, Objective::Single, &constraints, &adm, &mut memo);
            dense_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            dense_cost = out.plans[0].cost().time;

            let t0 = Instant::now();
            let mut memo = HashMemo::new(tables);
            let out =
                optimize_partition_with(q, space, Objective::Single, &constraints, &adm, &mut memo);
            hash_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            hash_cost = out.plans[0].cost().time;

            let t0 = Instant::now();
            let out = optimize_partition_parallel(
                q,
                space,
                Objective::Single,
                &constraints,
                ParallelPolicy::serial(),
            );
            arena_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            arena_cost = out.plans[0].cost().time;
        }
        assert_eq!(dense_cost, hash_cost, "layouts must agree on the optimum");
        assert_eq!(dense_cost, arena_cost, "layouts must agree on the optimum");
        let d = median(&mut dense_ms);
        let h = median(&mut hash_ms);
        let a = median(&mut arena_ms);
        rows.push(vec![
            format!("{space:?} {tables} (l={})", partitions.trailing_zeros()),
            fmt_num(d),
            fmt_num(h),
            fmt_num(a),
            format!("{:.2}x", h / d),
            format!("{:.2}x", a / d),
        ]);
    }
    print_table(
        "median DP time per layout",
        &[
            "config",
            "dense(ms)",
            "hash(ms)",
            "arena(ms)",
            "hash/dense",
            "arena/dense",
        ],
        &rows,
    );
}
