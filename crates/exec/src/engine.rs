//! Plan interpretation.
//!
//! [`execute`] walks an optimizer-produced [`Plan`]'s operators in their
//! post-order with a stack of intermediate results, dispatching each join
//! to the physical operator the optimizer chose, and
//! returns the result relation plus work counters. Because the optimizer
//! guarantees only cost-optimality, not result difference, any two plans
//! for the same query must produce the same result multiset — the
//! integration tests assert exactly that.

use crate::data::{Database, Relation};
use crate::operators::{hash_join, nested_loop_join, sort_merge_join, WorkCounter};
use mpq_cost::JoinOp;
use mpq_model::Query;
use mpq_plan::{Plan, PlanError, PlanOp};
use std::fmt;

/// Execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The plan references a table the database does not have.
    UnknownTable(u8),
    /// The plan's operators are not one tree.
    Malformed(PlanError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownTable(t) => write!(f, "plan references unknown table Q{t}"),
            ExecError::Malformed(e) => write!(f, "malformed plan: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Work performed by one plan execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Aggregated operator work counters.
    pub work: WorkCounter,
    /// Number of join operators executed.
    pub joins: u64,
    /// Total rows materialized across all intermediate results.
    pub intermediate_rows: u64,
}

/// Executes `plan` against `db`, returning the result relation and the
/// work performed.
pub fn execute(
    query: &Query,
    plan: &Plan,
    db: &Database,
) -> Result<(Relation, ExecStats), ExecError> {
    plan.validate().map_err(ExecError::Malformed)?;
    let mut stats = ExecStats::default();
    let mut stack: Vec<Relation> = Vec::new();
    for (at, op) in plan.ops.iter().enumerate() {
        let out = match *op {
            PlanOp::Scan { table, .. } => {
                let t = table as usize;
                if t >= db.num_tables() {
                    return Err(ExecError::UnknownTable(table));
                }
                db.table(t).clone()
            }
            PlanOp::Join { op } => {
                let (Some(r), Some(l)) = (stack.pop(), stack.pop()) else {
                    return Err(ExecError::Malformed(PlanError::MissingOperand { at }));
                };
                let out = match op {
                    JoinOp::NestedLoop => nested_loop_join(query, &l, &r, &mut stats.work),
                    JoinOp::Hash => hash_join(query, &l, &r, &mut stats.work),
                    JoinOp::SortMerge => sort_merge_join(query, &l, &r, &mut stats.work),
                };
                stats.joins += 1;
                stats.intermediate_rows += out.len() as u64;
                out
            }
        };
        stack.push(out);
    }
    match stack.pop() {
        Some(rel) => Ok((rel, stats)),
        None => Err(ExecError::Malformed(PlanError::Empty)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DataConfig;
    use mpq_cost::Objective;
    use mpq_dp::{optimize_partition_id, optimize_serial};
    use mpq_model::{WorkloadConfig, WorkloadGenerator};
    use mpq_partition::PlanSpace;

    fn setup(n: usize, seed: u64, cap: usize) -> (Query, Database) {
        let q = WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query();
        let db = Database::generate(
            &q,
            &DataConfig {
                max_rows_per_table: cap,
                seed,
            },
        );
        (q, db)
    }

    #[test]
    fn optimal_plan_executes() {
        let (q, db) = setup(4, 1, 60);
        let plan = optimize_serial(&q, PlanSpace::Linear, Objective::Single)
            .plans
            .remove(0);
        let (rel, stats) = execute(&q, &plan, &db).expect("plan executes");
        assert_eq!(rel.tables, q.all_tables());
        assert_eq!(stats.joins, 3);
    }

    #[test]
    fn different_join_orders_same_result() {
        // Every partition's optimal plan must produce the same multiset.
        let (q, db) = setup(4, 2, 40);
        let reference = {
            let plan = optimize_serial(&q, PlanSpace::Bushy, Objective::Single)
                .plans
                .remove(0);
            execute(&q, &plan, &db).unwrap().0.canonical_rows()
        };
        for id in 0..4u64 {
            let plan = optimize_partition_id(&q, PlanSpace::Linear, Objective::Single, id, 4)
                .plans
                .remove(0);
            let rows = execute(&q, &plan, &db).unwrap().0.canonical_rows();
            assert_eq!(rows, reference, "partition {id} plan diverged");
        }
    }

    #[test]
    fn result_rows_satisfy_all_predicates() {
        let (q, db) = setup(5, 3, 40);
        let plan = optimize_serial(&q, PlanSpace::Linear, Objective::Single)
            .plans
            .remove(0);
        let (rel, _) = execute(&q, &plan, &db).unwrap();
        for i in 0..rel.len() {
            let row = rel.row(i);
            for p in &q.predicates {
                let a = rel.column_of(p.left).unwrap();
                let b = rel.column_of(p.right).unwrap();
                assert_eq!(row[a], row[b], "predicate {p:?} violated");
            }
        }
    }

    #[test]
    fn unknown_table_errors() {
        let (q, db) = setup(2, 4, 10);
        let scan = |table| PlanOp::Scan {
            table,
            op: mpq_cost::ScanOp::Full,
        };
        let plan = |ops| Plan {
            cost: mpq_cost::CostVector::ZERO,
            ops,
        };
        assert_eq!(
            execute(&q, &plan(vec![scan(9)]), &db),
            Err(ExecError::UnknownTable(9))
        );
        assert!(ExecError::UnknownTable(9).to_string().contains("Q9"));
        // A malformed plan is refused before any operator runs.
        assert_eq!(
            execute(&q, &plan(vec![scan(0), scan(1)]), &db),
            Err(ExecError::Malformed(PlanError::ExtraRoots { roots: 2 }))
        );
    }

    #[test]
    fn cheaper_plan_does_less_work_on_average() {
        // The optimizer's cost model should correlate with executed work:
        // compare the optimal plan against the plan optimized for the
        // *wrong* direction (maximal cost via inverted comparison is not
        // exposed, so use a deliberately bad heuristic: join in reverse
        // numbering order with nested loops).
        use mpq_cost::{CostVector, ScanOp};
        let mut wins = 0usize;
        let trials = 6;
        for seed in 0..trials {
            let (q, db) = setup(4, 100 + seed, 40);
            let good = optimize_serial(&q, PlanSpace::Bushy, Objective::Single)
                .plans
                .remove(0);
            // Bad plan: ((3 x 2) x 1) x 0 all nested-loop.
            let scan = |table: u8| PlanOp::Scan {
                table,
                op: ScanOp::Full,
            };
            let mut bad = Plan {
                cost: CostVector::ZERO,
                ops: vec![scan(3)],
            };
            for t in [2u8, 1, 0] {
                bad.ops.push(scan(t));
                bad.ops.push(PlanOp::Join {
                    op: JoinOp::NestedLoop,
                });
            }
            let (_, good_stats) = execute(&q, &good, &db).unwrap();
            let (_, bad_stats) = execute(&q, &bad, &db).unwrap();
            if good_stats.work.comparisons <= bad_stats.work.comparisons {
                wins += 1;
            }
        }
        assert!(
            wins * 3 >= trials as usize * 2,
            "optimal plans should usually do less work ({wins}/{trials})"
        );
    }
}
