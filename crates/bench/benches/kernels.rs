//! Micro-benchmarks of the optimizer's hot kernels: the per-partition DP
//! in its three configurations (textbook reference loop, streaming arena
//! kernel, arena with intra-worker parallelism), dense-index lookup,
//! admissible-set enumeration, and the wire codec. These guard the
//! constant factors behind the paper-level experiments.
//!
//! Question: what does one kernel call cost on one thread, variant beside
//! variant on the same partition? `benchmark/` times the kernel only
//! through a whole query (`dp.partition_ms_best.*`) and never the
//! reference loop or `ParallelPolicy`.

use mpq_bench::{full_scale, median, print_table, BenchReport};
use mpq_cluster::Wire;
use mpq_cost::Objective;
use mpq_dp::{optimize_partition_parallel, optimize_partition_reference, ParallelPolicy};
use mpq_model::{JoinGraph, TableSet, WorkloadConfig, WorkloadGenerator};
use mpq_partition::{partition_constraints, AdmissibleSets, PlanSpace};
use std::hint::black_box;
use std::time::Instant;

/// Times `f` once per sample after one warmup call; returns milliseconds.
fn sample_ms<F: FnMut()>(samples: usize, mut f: F) -> Vec<f64> {
    f();
    (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

fn bench_dp_kernels(report: &mut BenchReport, samples: usize) {
    let configs: Vec<(&str, PlanSpace, usize, u64)> = vec![
        ("linear16_l4", PlanSpace::Linear, 16, 16),
        ("bushy12_l2", PlanSpace::Bushy, 12, 4),
    ];
    let mut rows = Vec::new();
    for (label, space, tables, partitions) in configs {
        let q = WorkloadGenerator::new(WorkloadConfig::with_graph(tables, JoinGraph::Star), 7)
            .next_query();
        let constraints = partition_constraints(tables, space, partitions / 2, partitions);

        // The variants must agree before their timings mean anything.
        let reference = optimize_partition_reference(&q, space, Objective::Single, &constraints);
        // The exact work behind the timings below, so ns-per-plan can be
        // derived from the committed file.
        report.exact(
            &format!("dp_plans_generated_{label}"),
            "count",
            reference.stats.plans_generated as f64,
        );
        // The memo the partition ends with: Theorem 4's space, in entries.
        report.exact(
            &format!("dp_entries_{label}"),
            "count",
            reference.stats.total_entries as f64,
        );
        for threads in [1usize, 2, 4] {
            let out = optimize_partition_parallel(
                &q,
                space,
                Objective::Single,
                &constraints,
                ParallelPolicy::with_threads(threads),
            );
            assert_eq!(
                out.plans[0].cost().time.to_bits(),
                reference.plans[0].cost().time.to_bits(),
                "{label}: kernel variants disagree"
            );
        }

        // `None` is the reference loop; `Some(t)` the arena kernel on `t`
        // threads (`optimize_partition` is the one-thread case).
        let mut row = vec![label.to_string()];
        for (variant, threads) in [
            ("reference", None),
            ("arena", Some(1)),
            ("arena_t2", Some(2)),
            ("arena_t4", Some(4)),
        ] {
            let ms = sample_ms(samples, || {
                black_box(match threads {
                    None => optimize_partition_reference(
                        black_box(&q),
                        space,
                        Objective::Single,
                        &constraints,
                    ),
                    Some(threads) => optimize_partition_parallel(
                        black_box(&q),
                        space,
                        Objective::Single,
                        &constraints,
                        ParallelPolicy::with_threads(threads),
                    ),
                });
            });
            row.push(format!("{:.2}", median(&mut ms.clone())));
            report.timing(&format!("dp_{variant}_{label}"), "ms", &ms);
        }
        rows.push(row);
    }
    print_table(
        "DP kernel median ms (reference loop vs arena vs arena+threads)",
        &["partition", "reference", "arena", "arena_t2", "arena_t4"],
        &rows,
    );
}

fn bench_serial(report: &mut BenchReport, samples: usize) {
    for (id, space, tables, seed) in [
        ("dp_serial_linear12", PlanSpace::Linear, 12, 7),
        ("dp_serial_bushy10", PlanSpace::Bushy, 10, 8),
    ] {
        let q = WorkloadGenerator::new(WorkloadConfig::with_graph(tables, JoinGraph::Star), seed)
            .next_query();
        let ms = sample_ms(samples, || {
            black_box(mpq_dp::optimize_serial(
                black_box(&q),
                space,
                Objective::Single,
            ));
        });
        report.timing(id, "ms", &ms);
    }
}

fn bench_index_and_enumeration(report: &mut BenchReport, samples: usize) {
    let constraints = partition_constraints(16, PlanSpace::Linear, 5, 64);
    let adm = AdmissibleSets::new(&constraints);
    let sets: Vec<TableSet> = (0..adm.len()).step_by(7).map(|i| adm.set_at(i)).collect();
    let ms = sample_ms(samples, || {
        let mut acc = 0usize;
        for &s in &sets {
            acc ^= adm.index_of(black_box(s)).unwrap_or(0);
        }
        black_box(acc);
    });
    report.timing("dense_index_of", "ms", &ms);

    let enum_constraints = partition_constraints(18, PlanSpace::Linear, 21, 64);
    let ms = sample_ms(samples, || {
        black_box(AdmissibleSets::new(black_box(&enum_constraints)).len());
    });
    report.timing("admissible_build_linear18_l6", "ms", &ms);
}

fn bench_codec(report: &mut BenchReport, samples: usize) {
    let q = WorkloadGenerator::new(WorkloadConfig::with_graph(20, JoinGraph::Star), 9).next_query();
    let ms = sample_ms(samples, || {
        // One sample covers a small batch so sub-microsecond encodes
        // stay measurable.
        for _ in 0..256 {
            black_box(black_box(&q).to_bytes());
        }
    });
    report.timing("codec_query_encode_x256", "ms", &ms);
    let bytes = q.to_bytes();
    let ms = sample_ms(samples, || {
        for _ in 0..256 {
            black_box(mpq_model::Query::from_bytes(black_box(&bytes)).expect("valid bytes"));
        }
    });
    report.timing("codec_query_decode_x256", "ms", &ms);
}

fn main() {
    let samples = if full_scale() { 31 } else { 11 };
    println!("Kernel micro-benchmarks ({samples} samples per metric)");
    let mut report = BenchReport::new("kernels");
    report.config("samples", samples);
    bench_dp_kernels(&mut report, samples);
    bench_serial(&mut report, samples);
    bench_index_and_enumeration(&mut report, samples);
    bench_codec(&mut report, samples);
    report.write();
}
