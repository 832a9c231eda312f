//! Table 1: minimal degree of parallelism required to reach approximation
//! precision α within a fixed optimization-time budget (two cost metrics,
//! linear plan space).
//!
//! Question: how many workers does a precision cost? No `benchmark/`
//! workload varies α. A cell is the smallest worker count whose
//! *uncontended* W-time (`mpq_bench::uncontended_wtime_ms`: what each of
//! that many nodes would need on its own cores) meets the budget for a
//! majority of the test cases — timing threads that share this host's
//! cores instead made every cell read `1` or `inf`. Cells are clock
//! readings (`min_workers_*`, unit `workers`, never gated: one sample per
//! test case, `inf` recorded as twice the maximum, so the id's median is
//! the cell and its quartiles say how close the cases were to the next
//! doubling); the exact side is
//! `work_plans_linear{n}_a{α}_w1`, the candidate plans precision α costs
//! one worker.
//!
//! Paper configuration: budgets 10/30/60 s, 14-20 tables,
//! α ∈ {1.01, 1.05, 1.25, 1.5, 2, 5, 10}, workers up to 128, a cell is
//! the minimal parallelism solving ≥ 8 of 15 test cases in budget (∞ if
//! even the maximum failed). Scaled default: budgets 5/15/30 ms,
//! 9-13 tables, workers up to 32, 2 of 3 cases (`MPQ_FULL=1` restores
//! paper scale).
//!
//! Expected shape (paper): smaller α (higher precision) and larger queries
//! need more workers; some cells stay ∞; for a fixed budget the required
//! parallelism decreases as α grows.

use mpq_bench::*;
use mpq_cost::Objective;
use mpq_dp::optimize_serial;
use mpq_model::JoinGraph;
use mpq_partition::PlanSpace;

fn main() {
    let full = full_scale();
    let alphas = [1.01, 1.05, 1.25, 1.5, 2.0, 5.0, 10.0];
    let (budgets_ms, sizes, max_workers): (Vec<f64>, Vec<usize>, u64) = if full {
        (
            vec![10_000.0, 30_000.0, 60_000.0],
            vec![14, 16, 18, 20],
            128,
        )
    } else {
        (vec![5.0, 15.0, 30.0], vec![9, 11, 13], 32)
    };
    let cases = if full { 15 } else { 3 };
    let needed = cases / 2 + 1; // majority, like the paper's 8 of 15
    let workers = worker_counts(1, max_workers);

    println!("Table 1 reproduction: minimal parallelism for precision α in budget");
    println!("(scaled run: {}; set MPQ_FULL=1 for paper scale)", !full);
    let mut report = BenchReport::new("table1");
    report.config("cases", cases).config("needed", needed);

    // cells[budget][size] = one cell per α.
    let mut cells = vec![vec![Vec::new(); sizes.len()]; budgets_ms.len()];
    for (s, &tables) in sizes.iter().enumerate() {
        let batch = query_batch(tables, JoinGraph::Star, 0x7AB1, cases);
        for &alpha in &alphas {
            let objective = Objective::Multi { alpha };
            let mut plans: Vec<f64> = batch
                .iter()
                .map(|q| {
                    optimize_serial(q, PlanSpace::Linear, objective)
                        .stats
                        .plans_generated as f64
                })
                .collect();
            report.exact(
                &format!("work_plans_linear{tables}_a{alpha}_w1"),
                "count",
                median(&mut plans),
            );
            // wtime[case][i] at workers[i].
            let wtime: Vec<Vec<f64>> = batch
                .iter()
                .map(|q| {
                    workers
                        .iter()
                        .map(|&w| uncontended_wtime_ms(q, PlanSpace::Linear, objective, w))
                        .collect()
                })
                .collect();
            for (b, &budget) in budgets_ms.iter().enumerate() {
                // Per case, the first worker count that meets the budget
                // (`inf` as twice the maximum). The majority cell is the
                // `needed`-th smallest — the median, for an odd number of
                // cases — so the recorded quartiles are the cell's band.
                let mut minimal: Vec<f64> = wtime
                    .iter()
                    .map(|series| {
                        let met = workers.iter().zip(series).find(|(_, &ms)| ms <= budget);
                        met.map_or(2 * max_workers, |(&w, _)| w) as f64
                    })
                    .collect();
                report.timing(
                    &format!("min_workers_b{budget}ms_linear{tables}_a{alpha}"),
                    "workers",
                    &minimal,
                );
                minimal.sort_by(f64::total_cmp);
                let cell = minimal[needed - 1];
                cells[b][s].push(if cell > max_workers as f64 {
                    "inf".to_string()
                } else {
                    cell.to_string()
                });
            }
        }
    }

    let header: Vec<String> = std::iter::once("tables".to_string())
        .chain(alphas.iter().map(|a| format!("α={a}")))
        .collect();
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    for (b, budget) in budgets_ms.iter().enumerate() {
        let rows: Vec<Vec<String>> = sizes
            .iter()
            .zip(&cells[b])
            .map(|(tables, row)| {
                std::iter::once(tables.to_string())
                    .chain(row.clone())
                    .collect()
            })
            .collect();
        print_table(&format!("budget {budget} ms"), &header, &rows);
    }
    report.write();
}
