//! Shared experiment harness for the paper-reproduction benchmarks.
//!
//! Every bench binary in `benches/` regenerates one table or figure of the
//! paper, or answers one implementation question no other harness does
//! (EXPERIMENTS.md lists the question per target). Contended wall clock —
//! end to end and per layer — belongs to the repository's `benchmark/`;
//! what is measured here is **exact on any host**: max-over-workers work
//! counters and network bytes of a real MPQ run, which do not depend on
//! how many cores the workers had to share, plus one clock series that
//! does not either, [`uncontended_wtime_ms`]. Default parameters are
//! scaled down so that every target finishes in about a minute; set
//! `MPQ_FULL=1` to run paper-sized queries and worker counts. Results are
//! printed as aligned text tables and emitted as `BENCH_<name>.json`
//! ([`report`]), committed as baselines and gated by
//! `cargo run -p xtask -- bench-check`.

#![forbid(unsafe_code)]

pub mod report;

pub use report::BenchReport;

use mpq_cost::Objective;
use mpq_dp::{optimize_partition_id, WorkerStats};
use mpq_model::{JoinGraph, Query, WorkloadConfig, WorkloadGenerator};
use mpq_partition::{effective_workers, PlanSpace};
use std::hint::black_box;
use std::time::Instant;

pub use mpq_algo::MpqOptimizer;
pub use mpq_sma::SmaOptimizer;

/// Whether paper-scale parameters were requested via `MPQ_FULL=1`.
pub fn full_scale() -> bool {
    std::env::var("MPQ_FULL").map(|v| v == "1").unwrap_or(false)
}

/// Number of random queries per data point (the paper uses 20; scaled
/// default is 3).
pub fn queries_per_point() -> usize {
    if full_scale() {
        20
    } else {
        3
    }
}

/// Generates the query batch for one data point.
pub fn query_batch(tables: usize, graph: JoinGraph, seed: u64, count: usize) -> Vec<Query> {
    WorkloadGenerator::new(WorkloadConfig::with_graph(tables, graph), seed).batch(count)
}

/// The `p`-quantile of an ascending sample, linearly interpolated.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    let pos = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of a sample (destructive; f64, NaN-free inputs expected).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    quantile(values, 0.5)
}

/// Powers of two from 1 (or `from`) up to `max` inclusive.
pub fn worker_counts(from: u64, max: u64) -> Vec<u64> {
    let mut v = Vec::new();
    let mut w = from.max(1);
    while w <= max {
        v.push(w);
        w *= 2;
    }
    v
}

/// `"Linear 16"` → `"linear16"`: stable metric-id fragment.
pub fn slug(label: &str) -> String {
    label.to_lowercase().replace(' ', "")
}

/// The exact side of one MPQ data point: medians over a query batch (as
/// in the paper's Figures 1, 2, 4, 5) of counts that are the same on any
/// host and under any load.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MpqPoint {
    /// Network bytes, both directions.
    pub net_bytes: f64,
    /// Max over workers of stored relations ("Memory").
    pub stored_sets: f64,
    /// Max over workers of memo entries.
    pub entries: f64,
    /// Max over workers of splits tried.
    pub splits: f64,
    /// Max over workers of plans generated.
    pub plans: f64,
}

/// Runs MPQ on each query of `batch` with `workers` workers and reports
/// the median exact metrics.
pub fn run_mpq_point(
    batch: &[Query],
    space: PlanSpace,
    objective: Objective,
    workers: u64,
) -> MpqPoint {
    // Per query: bytes, then the max-over-workers counters.
    let runs: Vec<[u64; 5]> = batch
        .iter()
        .map(|q| {
            let m = MpqOptimizer::default()
                .optimize(q, space, objective, workers)
                .metrics;
            let slowest = m
                .worker_stats
                .iter()
                .fold(WorkerStats::default(), |a, s| a.max(s));
            [
                m.network.total_bytes(),
                slowest.stored_sets,
                slowest.total_entries,
                slowest.splits_tried,
                slowest.plans_generated,
            ]
        })
        .collect();
    let [net_bytes, stored_sets, entries, splits, plans] =
        std::array::from_fn(|i| median(&mut runs.iter().map(|r| r[i] as f64).collect::<Vec<_>>()));
    MpqPoint {
        net_bytes,
        stored_sets,
        entries,
        splits,
        plans,
    }
}

/// Timings behind one partition's best in [`uncontended_wtime_ms`].
pub const REPEATS: usize = 3;

/// W-time as a cluster whose nodes share no cores sees it: the slowest of
/// the partitions `workers` workers would be dealt, each timed alone on
/// the calling thread and taken at the best of [`REPEATS`] runs. Timing
/// `m` worker threads on fewer than `m` cores measures the host's
/// scheduler instead. Only the partition that is currently slowest is
/// timed again — more runs can only lower a partition's best, so the
/// others cannot become the maximum — which makes a sweep cost about one
/// pass over the partitions, not [`REPEATS`].
pub fn uncontended_wtime_ms(
    query: &Query,
    space: PlanSpace,
    objective: Objective,
    workers: u64,
) -> f64 {
    let m = effective_workers(space, query.num_tables(), workers);
    let time = |p: usize| {
        let t0 = Instant::now();
        black_box(optimize_partition_id(
            black_box(query),
            space,
            objective,
            p as u64,
            m,
        ));
        t0.elapsed().as_secs_f64() * 1e3
    };
    let mut best: Vec<(f64, usize)> = (0..m as usize).map(|p| (time(p), 1)).collect();
    loop {
        let (p, &(slowest, runs)) = best
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
            .expect("at least one partition");
        if runs == REPEATS {
            return slowest;
        }
        best[p] = (slowest.min(time(p)), runs + 1);
    }
}

/// The factor by which `series` shrinks per step: the geometric mean over
/// the whole series (`benchmark/`'s `dp.work_ratio_per_doubling`).
pub fn per_doubling(series: &[f64]) -> f64 {
    assert!(series.len() >= 2, "a ratio needs two points");
    (series[series.len() - 1] / series[0]).powf(1.0 / (series.len() - 1) as f64)
}

/// Holds a series with one value per doubling of the worker count to the
/// factor the paper's theorems predict.
pub fn assert_per_doubling(what: &str, series: &[f64], predicted: f64, tolerance: f64) {
    let measured = per_doubling(series);
    assert!(
        (measured - predicted).abs() <= tolerance,
        "{what}: {measured:.4} per doubling over {series:?}, predicted {predicted:.4} ± {tolerance}"
    );
}

/// One line of Figure 2 / Figure 5: MPQ on `batch` as the worker count
/// doubles through `workers`. Records per worker count the exact series
/// (`work_{stored_sets,entries,splits,plans}_max_{slug}_w{m}`,
/// `net_bytes_{slug}_w{m}`) and the uncontended `wtime_{slug}_w{m}` (one
/// sample per query), prints the table, and returns the points for
/// [`assert_paper_factors`].
pub fn scaling_series(
    report: &mut BenchReport,
    label: &str,
    batch: &[Query],
    space: PlanSpace,
    objective: Objective,
    workers: &[u64],
) -> Vec<MpqPoint> {
    let slug = slug(label);
    let mut points = Vec::new();
    let mut wtimes = Vec::new();
    for &w in workers {
        let p = run_mpq_point(batch, space, objective, w);
        for (name, unit, value) in [
            ("work_stored_sets_max", "count", p.stored_sets),
            ("work_entries_max", "count", p.entries),
            ("work_splits_max", "count", p.splits),
            ("work_plans_max", "count", p.plans),
            ("net_bytes", "bytes", p.net_bytes),
        ] {
            report.exact(&format!("{name}_{slug}_w{w}"), unit, value);
        }
        let mut wtime: Vec<f64> = batch
            .iter()
            .map(|q| uncontended_wtime_ms(q, space, objective, w))
            .collect();
        report.timing(&format!("wtime_{slug}_w{w}"), "ms", &wtime);
        points.push(p);
        wtimes.push(median(&mut wtime));
    }

    let series = |f: fn(&MpqPoint) -> f64| points.iter().map(f).collect::<Vec<_>>();
    let columns = [
        wtimes,
        series(|p| p.stored_sets),
        series(|p| p.splits),
        series(|p| p.plans),
    ];
    let rows: Vec<Vec<String>> = (0..workers.len())
        .map(|i| {
            let mut row = vec![workers[i].to_string()];
            for column in &columns {
                row.push(fmt_num(column[i]));
                row.push(match i {
                    0 => "-".to_string(),
                    _ => format!("{:.3}", column[i] / column[i - 1]),
                });
            }
            row.extend([fmt_num(points[i].entries), fmt_num(points[i].net_bytes)]);
            row
        })
        .collect();
    let [wtime, sets, splits, plans] = columns.map(|c| per_doubling(&c));
    print_table(
        &format!(
            "{label}: per doubling, paper {:.3} (sets) / {:.3} (time); measured \
             {sets:.3} sets, {splits:.3} splits, {plans:.3} plans, {wtime:.3} W-time",
            space.set_reduction_factor(),
            space.time_reduction_factor(),
        ),
        &[
            "workers",
            "W-time(ms)",
            "x",
            "mem(rel)",
            "x",
            "splits",
            "x",
            "plans",
            "x",
            "entries",
            "net(B)",
        ],
        &rows,
    );
    points
}

/// Stored relations follow Theorems 2/3 at every step, to rounding.
pub const SET_TOLERANCE: f64 = 0.01;
/// Splits and plans follow Theorems 6/7 over a whole series; single steps
/// differ (a constraint on the hub of a star removes fewer plans than
/// one between spokes).
pub const WORK_TOLERANCE: f64 = 0.05;

/// Holds the exact series of [`scaling_series`] to the paper's factors:
/// the run fails if the partitioning stops delivering them.
pub fn assert_paper_factors(label: &str, space: PlanSpace, points: &[MpqPoint]) {
    let series = |f: fn(&MpqPoint) -> f64| points.iter().map(f).collect::<Vec<_>>();
    for step in series(|p| p.stored_sets).windows(2) {
        assert_per_doubling(
            &format!("{label} stored sets"),
            step,
            space.set_reduction_factor(),
            SET_TOLERANCE,
        );
    }
    for (what, work) in [
        ("splits", series(|p| p.splits)),
        ("plans", series(|p| p.plans)),
    ] {
        assert_per_doubling(
            &format!("{label} {what}"),
            &work,
            space.time_reduction_factor(),
            WORK_TOLERANCE,
        );
    }
}

/// Runs SMA on each query of `batch` with `workers` workers and reports
/// the median network bytes (both directions) — exact, like
/// [`MpqPoint::net_bytes`].
pub fn run_sma_point(
    batch: &[Query],
    space: PlanSpace,
    objective: Objective,
    workers: usize,
) -> f64 {
    let mut bytes: Vec<f64> = batch
        .iter()
        .map(|q| {
            let out = SmaOptimizer.optimize(q, space, objective, workers);
            out.metrics.network.total_bytes() as f64
        })
        .collect();
    median(&mut bytes)
}

/// One panel of Figure 1 / Figure 4: MPQ beside SMA on `batch` as the
/// worker count doubles to `max_workers`. Records
/// `net_bytes_{mpq,sma}_{slug}_w{m}`, holds them to the figure's claim
/// (SMA ships more at every point), and prints the table.
pub fn versus_table(
    report: &mut BenchReport,
    label: &str,
    batch: &[Query],
    space: PlanSpace,
    objective: Objective,
    max_workers: u64,
) {
    let slug = slug(label);
    let mut rows = Vec::new();
    for w in worker_counts(1, max_workers) {
        let mpq = run_mpq_point(batch, space, objective, w).net_bytes;
        let sma = run_sma_point(batch, space, objective, w as usize);
        assert!(
            sma > mpq,
            "{label}, {w} workers: SMA must ship more than MPQ ({sma} vs {mpq} bytes)"
        );
        report
            .exact(&format!("net_bytes_mpq_{slug}_w{w}"), "bytes", mpq)
            .exact(&format!("net_bytes_sma_{slug}_w{w}"), "bytes", sma);
        rows.push(vec![
            w.to_string(),
            fmt_num(mpq),
            fmt_num(sma),
            format!("{:.0}", sma / mpq),
        ]);
    }
    print_table(
        &format!("{label} ({} queries/point)", batch.len()),
        &["workers", "MPQ net(B)", "SMA net(B)", "SMA/MPQ"],
        &rows,
    );
}

/// Pretty-prints a table: a header row and aligned numeric rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    // The header is one more row as far as column widths go.
    let width = |i: usize| {
        let column = rows.iter().chain([&head]).filter_map(|r| r.get(i));
        column.map(String::len).max().unwrap_or(0)
    };
    let fmt_row = |cells: &[String]| {
        let padded = cells.iter().enumerate();
        let padded = padded.map(|(i, c)| format!("{c:>w$}", w = width(i)));
        padded.collect::<Vec<_>>().join("  ")
    };
    let head_line = fmt_row(&head);
    println!("{head_line}\n{}", "-".repeat(head_line.chars().count()));
    for r in rows {
        println!("{}", fmt_row(r));
    }
}

/// Formats a float with engineering-style precision for table cells.
pub fn fmt_num(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e6 {
        format!("{v:.3e}")
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::EXACT_UNITS;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn worker_count_series() {
        assert_eq!(worker_counts(1, 8), vec![1, 2, 4, 8]);
        assert_eq!(worker_counts(16, 8), Vec::<u64>::new());
        assert_eq!(worker_counts(2, 2), vec![2]);
    }

    #[test]
    fn fmt_num_ranges() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(0.5), "0.5000");
        assert_eq!(fmt_num(12.345), "12.35");
        assert_eq!(fmt_num(1234.0), "1234");
        assert!(fmt_num(2.5e7).contains('e'));
    }

    /// The figure point at toy size, as `fig2` runs it.
    fn toy_series() -> (BenchReport, Vec<MpqPoint>) {
        let batch = query_batch(8, JoinGraph::Star, 1, 2);
        let mut report = BenchReport::new("toy");
        let points = scaling_series(
            &mut report,
            "Linear 8",
            &batch,
            PlanSpace::Linear,
            Objective::Single,
            &[1, 2, 4],
        );
        (report, points)
    }

    #[test]
    fn mpq_point_runs() {
        // Two runs of the figure point: every exact id identical, clock
        // readings present beside them.
        let (first, points) = toy_series();
        let (second, _) = toy_series();
        let exact = |r: &BenchReport| {
            r.metrics()
                .iter()
                .filter(|m| EXACT_UNITS.contains(&m.unit.as_str()))
                .map(|m| (m.id.clone(), m.median.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(exact(&first), exact(&second));
        assert_eq!(exact(&first).len(), 15);
        assert_eq!(first.metrics().len(), 18, "plus one wtime id per point");
        // One task out and one plan back per worker: bytes are linear.
        for (m, p) in [1.0, 2.0, 4.0].into_iter().zip(&points) {
            assert_eq!(p.net_bytes, m * points[0].net_bytes);
        }
        // What the threads counted is what the partitions cost alone.
        let q = &query_batch(8, JoinGraph::Star, 1, 1)[0];
        let alone = (0..4)
            .map(|p| optimize_partition_id(q, PlanSpace::Linear, Objective::Single, p, 4).stats)
            .fold(WorkerStats::default(), |a, s| a.max(&s));
        let threads = run_mpq_point(
            std::slice::from_ref(q),
            PlanSpace::Linear,
            Objective::Single,
            4,
        );
        assert_eq!(threads.plans, alone.plans_generated as f64);
        assert_eq!(threads.stored_sets, alone.stored_sets as f64);
    }

    #[test]
    fn sma_point_runs() {
        let batch = query_batch(5, JoinGraph::Star, 2, 2);
        let bytes = run_sma_point(&batch, PlanSpace::Linear, Objective::Single, 2);
        assert!(bytes > run_mpq_point(&batch, PlanSpace::Linear, Objective::Single, 2).net_bytes);
        assert_eq!(
            bytes,
            run_sma_point(&batch, PlanSpace::Linear, Objective::Single, 2)
        );
    }

    #[test]
    fn versus_table_records_both_sides_per_worker_count() {
        let batch = query_batch(5, JoinGraph::Star, 2, 2);
        let mut report = BenchReport::new("toy");
        versus_table(
            &mut report,
            "Bushy 5",
            &batch,
            PlanSpace::Bushy,
            Objective::Multi { alpha: 10.0 },
            2,
        );
        let ids: Vec<&str> = report.metrics().iter().map(|m| m.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "net_bytes_mpq_bushy5_w1",
                "net_bytes_sma_bushy5_w1",
                "net_bytes_mpq_bushy5_w2",
                "net_bytes_sma_bushy5_w2"
            ]
        );
        assert!(report.metrics().iter().all(|m| m.unit == "bytes"));
    }

    #[test]
    fn per_doubling_is_the_geometric_mean() {
        assert_eq!(per_doubling(&[64.0, 48.0, 36.0]), 0.75);
        assert_per_doubling("sets", &[65535.0, 49152.0, 36865.0], 0.75, SET_TOLERANCE);
    }

    #[test]
    #[should_panic(expected = "doctored: 0.8660 per doubling")]
    fn a_series_off_the_predicted_factor_fails_the_bench() {
        // fig2's own series with the last count edited up by a third.
        assert_per_doubling(
            "doctored",
            &[65535.0, 49152.0, 49152.0],
            0.75,
            WORK_TOLERANCE,
        );
    }
}
