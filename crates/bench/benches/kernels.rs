//! Micro-benchmarks of the optimizer's hot kernels: the per-partition DP
//! in its two configurations (textbook reference loop, streaming arena
//! kernel), single-objective and Pareto, with the memo's bytes per stored
//! set, the partition
//! `benchmark/`'s `large_linear` runs, a one-thread pair of partitions
//! straddling the size where the estimator's table used to stop,
//! dense-index lookup beside the carried-index step,
//! admissible-set enumeration, and the wire codec. These guard the
//! constant factors behind the paper-level experiments.
//!
//! Question: what does one kernel call cost on one thread, variant beside
//! variant on the same partition? `benchmark/` times the kernel only
//! through a whole query (`dp.partition_ms_best.*`) and never the
//! reference loop.

use mpq_bench::{full_scale, median, print_table, BenchReport};
use mpq_cluster::Wire;
use mpq_cost::Objective;
use mpq_dp::{optimize_partition, optimize_partition_reference, ArenaMemo, PartitionOutcome};
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
    let configs: Vec<(&str, PlanSpace, usize, u64, Objective)> = vec![
        ("linear16_l4", PlanSpace::Linear, 16, 16, Objective::Single),
        ("bushy12_l2", PlanSpace::Bushy, 12, 4, Objective::Single),
        // `benchmark/`'s `large_bushy_multi` partition shape, where the
        // Pareto kernel passes over the left plans' groups whose floors
        // the slot already rejects.
        (
            "bushy9_a2_l1",
            PlanSpace::Bushy,
            9,
            2,
            Objective::Multi { alpha: 2.0 },
        ),
        // The paper's α on a left-deep space, whose right operand is one
        // scan: no group is checked, and the Pareto loop must not pay for
        // the check.
        (
            "linear12_a10_l1",
            PlanSpace::Linear,
            12,
            2,
            Objective::PAPER_MULTI,
        ),
    ];
    let mut rows = Vec::new();
    for (label, space, tables, partitions, objective) in configs {
        let q = WorkloadGenerator::new(WorkloadConfig::with_graph(tables, JoinGraph::Star), 7)
            .next_query();
        let constraints = partition_constraints(tables, space, partitions / 2, partitions);

        // The variants must agree before their timings mean anything.
        let reference = optimize_partition_reference(&q, space, objective, &constraints);
        // The exact work behind the timings below, so ns-per-plan can be
        // derived from the committed file.
        report.exact(
            &format!("dp_plans_generated_{label}"),
            "count",
            reference.stats.plans_generated as f64,
        );
        // The memo the partition ends with: Theorem 4's space, in entries
        // and in bytes per stored set — one record per admissible set and
        // per table, plus the entries.
        report.exact(
            &format!("dp_entries_{label}"),
            "count",
            reference.stats.total_entries as f64,
        );
        let memo_bytes = ArenaMemo::footprint_bytes(
            AdmissibleSets::new(&constraints).len(),
            tables,
            reference.stats.total_entries,
        );
        report.exact(
            &format!("dp_bytes_per_set_{label}"),
            "bytes",
            memo_bytes as f64 / reference.stats.stored_sets as f64,
        );
        let out = optimize_partition(&q, space, objective, &constraints);
        let bits = |out: &PartitionOutcome| -> Vec<[u64; 2]> {
            out.plans
                .iter()
                .map(|p| [p.cost().time.to_bits(), p.cost().buffer.to_bits()])
                .collect()
        };
        assert_eq!(
            bits(&out),
            bits(&reference),
            "{label}: kernel variants disagree"
        );
        assert_eq!(out.stats.plans_generated, reference.stats.plans_generated);
        assert_eq!(out.stats.stored_sets, reference.stats.stored_sets);
        assert_eq!(out.stats.total_entries, reference.stats.total_entries);

        // The variants' samples alternate, and so does which of them goes
        // first, so host drift lands in both alike, not in their ratio.
        let kernels = [optimize_partition_reference, optimize_partition];
        for kernel in kernels {
            black_box(kernel(black_box(&q), space, objective, &constraints));
        }
        let mut ms = [Vec::with_capacity(samples), Vec::with_capacity(samples)];
        for s in 0..samples {
            for k in [s % 2, 1 - s % 2] {
                let t0 = Instant::now();
                black_box(kernels[k](black_box(&q), space, objective, &constraints));
                ms[k].push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        let mut row = vec![label.to_string()];
        for (variant, ms) in ["reference", "arena"].into_iter().zip(ms) {
            row.push(format!("{:.2}", median(&mut ms.clone())));
            report.timing(&format!("dp_{variant}_{label}"), "ms", &ms);
        }
        rows.push(row);
    }
    print_table(
        "DP kernel median ms (reference loop vs arena)",
        &["partition", "reference", "arena"],
        &rows,
    );
}

/// Times the arena kernel on partition `id` of `partitions` of a
/// `tables`-table left-deep star query, one thread; records the samples
/// as `dp_arena_linear{tables}_l{log2 partitions}` and returns the median.
fn time_linear_partition(
    report: &mut BenchReport,
    tables: usize,
    id: u64,
    partitions: u64,
    samples: usize,
) -> f64 {
    let q =
        WorkloadGenerator::new(WorkloadConfig::with_graph(tables, JoinGraph::Star), 7).next_query();
    let constraints = partition_constraints(tables, PlanSpace::Linear, id, partitions);
    let ms = sample_ms(samples, || {
        black_box(optimize_partition(
            black_box(&q),
            PlanSpace::Linear,
            Objective::Single,
            &constraints,
        ));
    });
    let l = partitions.trailing_zeros();
    report.timing(&format!("dp_arena_linear{tables}_l{l}"), "ms", &ms);
    median(&mut ms.clone())
}

/// `benchmark/`'s `large_linear` partition — 15 tables, left-deep, one of
/// two partitions — on one thread: the shape a claim on that workload's
/// `opt_ms_best` is sized on, without the service around it.
fn bench_claimed_shape(report: &mut BenchReport, samples: usize) {
    time_linear_partition(report, 15, 1, 2, samples);
}

/// One quarter of Linear 20 and of Linear 21, on one thread: the pair
/// straddles the size above which the estimator used to keep no table at
/// all (Linear 21 cost 4.0x Linear 20 for 2.1x the splits). ROADMAP item 9
/// asks for at most 2.3x.
fn bench_size_step(report: &mut BenchReport) {
    let medians = [20usize, 21].map(|tables| time_linear_partition(report, tables, 2, 4, 3));
    println!(
        "\nLinear 21 / Linear 20 (l = 2, one thread): {:.1} ms / {:.1} ms = x{:.2} (target <= 2.3)",
        medians[1],
        medians[0],
        medians[1] / medians[0]
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

    // The same number of lookups as one step from a set's own index: what
    // the linear split loop pays per split.
    let steps: Vec<(TableSet, usize, usize)> = sets
        .iter()
        .filter_map(|&s| {
            let u = s.iter().find(|&u| constraints.may_join_last(u, s))?;
            Some((s, adm.index_of(s)?, u))
        })
        .collect();
    let ms = sample_ms(samples, || {
        let mut acc = 0usize;
        for &(s, idx, u) in &steps {
            acc ^= adm.index_without(black_box(s), idx, u);
        }
        black_box(acc);
    });
    report.timing("dense_index_without", "ms", &ms);

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
    bench_claimed_shape(&mut report, samples);
    bench_size_step(&mut report);
    bench_serial(&mut report, samples);
    bench_index_and_enumeration(&mut report, samples);
    bench_codec(&mut report, samples);
    report.write();
}
