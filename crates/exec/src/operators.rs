//! Physical join operator implementations.
//!
//! Each operator joins two disjoint relations on the equality predicates
//! that cross them (all crossing predicates are applied; with none the
//! join degenerates to a Cartesian product, which the optimizer permits).
//! All operators produce the same result multiset; they differ in the work
//! they perform, which the [`WorkCounter`] records so that tests can
//! confirm the cost model's ordering reflects reality.

use crate::data::Relation;
use mpq_model::{Query, TableSet};
use std::collections::HashMap;

/// Tuple-touch counters, the execution analogue of the cost model's
/// abstract work units.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkCounter {
    /// Pairwise comparisons (nested loop) or probe lookups (hash) or merge
    /// steps (sort-merge).
    pub comparisons: u64,
    /// Rows materialized into operator outputs.
    pub rows_out: u64,
    /// Rows moved during sorting (sort-merge only).
    pub sort_moves: u64,
}

/// The equality predicates of `query` crossing `left` and `right`, as
/// `(left_table, right_table)` pairs oriented to the operand sides.
pub fn crossing_predicates(query: &Query, left: TableSet, right: TableSet) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for p in &query.predicates {
        if left.contains(p.left) && right.contains(p.right) {
            out.push((p.left, p.right));
        } else if left.contains(p.right) && right.contains(p.left) {
            out.push((p.right, p.left));
        }
    }
    out
}

fn row_matches(
    left: &Relation,
    lrow: &[u64],
    right: &Relation,
    rrow: &[u64],
    preds: &[(usize, usize)],
) -> bool {
    preds.iter().all(|&(lt, rt)| {
        let lc = left.column_of(lt).expect("left predicate column");
        let rc = right.column_of(rt).expect("right predicate column");
        lrow[lc] == rrow[rc]
    })
}

/// Block-nested-loop join: compares every pair of rows.
pub fn nested_loop_join(
    query: &Query,
    left: &Relation,
    right: &Relation,
    work: &mut WorkCounter,
) -> Relation {
    let preds = crossing_predicates(query, left.tables, right.tables);
    let mut out = Relation::new(left.tables.union(right.tables));
    for i in 0..left.len() {
        for j in 0..right.len() {
            work.comparisons += 1;
            if row_matches(left, left.row(i), right, right.row(j), &preds) {
                out.push_joined(left, left.row(i), right, right.row(j));
                work.rows_out += 1;
            }
        }
    }
    out
}

/// Hash join: builds on the inner (right) operand keyed by the predicate
/// columns, probes with the outer. Falls back to nested-loop for cross
/// products (no key to hash on).
pub fn hash_join(
    query: &Query,
    left: &Relation,
    right: &Relation,
    work: &mut WorkCounter,
) -> Relation {
    let preds = crossing_predicates(query, left.tables, right.tables);
    if preds.is_empty() {
        return nested_loop_join(query, left, right, work);
    }
    let rcols: Vec<usize> = preds
        .iter()
        .map(|&(_, rt)| right.column_of(rt).expect("column"))
        .collect();
    let lcols: Vec<usize> = preds
        .iter()
        .map(|&(lt, _)| left.column_of(lt).expect("column"))
        .collect();
    // Build phase.
    let mut table: HashMap<Vec<u64>, Vec<usize>> = HashMap::with_capacity(right.len());
    for j in 0..right.len() {
        let key: Vec<u64> = rcols.iter().map(|&c| right.row(j)[c]).collect();
        table.entry(key).or_default().push(j);
        work.comparisons += 1;
    }
    // Probe phase.
    let mut out = Relation::new(left.tables.union(right.tables));
    for i in 0..left.len() {
        work.comparisons += 1;
        let key: Vec<u64> = lcols.iter().map(|&c| left.row(i)[c]).collect();
        if let Some(matches) = table.get(&key) {
            for &j in matches {
                out.push_joined(left, left.row(i), right, right.row(j));
                work.rows_out += 1;
            }
        }
    }
    out
}

/// Sort-merge join on the first crossing predicate; remaining predicates
/// are applied as a post-filter inside each merge group. Falls back to
/// nested-loop for cross products (as the cost model declares sort-merge
/// inapplicable there).
pub fn sort_merge_join(
    query: &Query,
    left: &Relation,
    right: &Relation,
    work: &mut WorkCounter,
) -> Relation {
    let preds = crossing_predicates(query, left.tables, right.tables);
    let Some(&(lt, rt)) = preds.first() else {
        return nested_loop_join(query, left, right, work);
    };
    let lc = left.column_of(lt).expect("column");
    let rc = right.column_of(rt).expect("column");
    let mut lidx: Vec<usize> = (0..left.len()).collect();
    let mut ridx: Vec<usize> = (0..right.len()).collect();
    lidx.sort_by_key(|&i| left.row(i)[lc]);
    ridx.sort_by_key(|&j| right.row(j)[rc]);
    work.sort_moves += (left.len() + right.len()) as u64;

    let mut out = Relation::new(left.tables.union(right.tables));
    let (mut i, mut j) = (0usize, 0usize);
    while i < lidx.len() && j < ridx.len() {
        let lv = left.row(lidx[i])[lc];
        let rv = right.row(ridx[j])[rc];
        work.comparisons += 1;
        match lv.cmp(&rv) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                // Delimit the equal-key groups on both sides.
                let i_end = (i..lidx.len())
                    .find(|&x| left.row(lidx[x])[lc] != lv)
                    .unwrap_or(lidx.len());
                let j_end = (j..ridx.len())
                    .find(|&x| right.row(ridx[x])[rc] != rv)
                    .unwrap_or(ridx.len());
                for &li in &lidx[i..i_end] {
                    for &rj in &ridx[j..j_end] {
                        work.comparisons += 1;
                        if row_matches(left, left.row(li), right, right.row(rj), &preds[1..]) {
                            out.push_joined(left, left.row(li), right, right.row(rj));
                            work.rows_out += 1;
                        }
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{DataConfig, Database};
    use mpq_model::{WorkloadConfig, WorkloadGenerator};

    fn setup(n: usize, seed: u64) -> (Query, Database) {
        let q = WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query();
        let db = Database::generate(
            &q,
            &DataConfig {
                max_rows_per_table: 200,
                seed,
            },
        );
        (q, db)
    }

    #[test]
    fn all_joins_agree_on_predicate_join() {
        let (q, db) = setup(3, 1);
        let (a, b) = (db.table(0), db.table(1));
        let mut w = WorkCounter::default();
        let nl = nested_loop_join(&q, a, b, &mut w);
        let hj = hash_join(&q, a, b, &mut w);
        let sm = sort_merge_join(&q, a, b, &mut w);
        assert_eq!(nl.canonical_rows(), hj.canonical_rows());
        assert_eq!(nl.canonical_rows(), sm.canonical_rows());
    }

    #[test]
    fn cross_product_size_is_product() {
        // Tables 1 and 2 of a star query share no predicate.
        let (q, db) = setup(3, 2);
        let (a, b) = (db.table(1), db.table(2));
        let mut w = WorkCounter::default();
        let out = nested_loop_join(&q, a, b, &mut w);
        assert_eq!(out.len(), a.len() * b.len());
        let hj = hash_join(&q, a, b, &mut w);
        assert_eq!(hj.len(), out.len());
    }

    #[test]
    fn hash_join_does_less_work_than_nested_loop() {
        let (q, db) = setup(2, 3);
        let (a, b) = (db.table(0), db.table(1));
        let mut wn = WorkCounter::default();
        nested_loop_join(&q, a, b, &mut wn);
        let mut wh = WorkCounter::default();
        hash_join(&q, a, b, &mut wh);
        assert!(wh.comparisons < wn.comparisons);
    }

    #[test]
    fn realized_selectivity_tracks_estimate() {
        // With a small join domain (40, derived from the selectivity) the
        // expected match count is large enough to compare against
        // |A| * |B| * selectivity statistically.
        use mpq_model::{Catalog, JoinGraph, Predicate, TableStats};
        let mut ratios = Vec::new();
        for seed in 0..8u64 {
            let stats = TableStats {
                cardinality: 300.0,
                tuple_bytes: 8.0,
            };
            let catalog = Catalog::from_stats(vec![stats.clone(), stats]);
            let q = Query {
                catalog,
                predicates: vec![Predicate {
                    left: 0,
                    right: 1,
                    selectivity: 1.0 / 40.0,
                }],
                graph: JoinGraph::Chain,
            };
            let db = Database::generate(
                &q,
                &DataConfig {
                    max_rows_per_table: 300,
                    seed,
                },
            );
            let mut w = WorkCounter::default();
            let out = hash_join(&q, db.table(0), db.table(1), &mut w);
            let expected = 300.0 * 300.0 / 40.0; // 2250 matches expected
            ratios.push(out.len() as f64 / expected);
        }
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(
            avg > 0.8 && avg < 1.25,
            "selectivity estimate off: avg ratio {avg}"
        );
    }

    #[test]
    fn multi_predicate_join_applies_all() {
        // A cycle query of 3 tables: joining {0,1} with {2} crosses two
        // predicates (1-2 and 2-0); both must hold.
        let q = WorkloadGenerator::new(
            WorkloadConfig::with_graph(3, mpq_model::JoinGraph::Cycle),
            7,
        )
        .next_query();
        let db = Database::generate(
            &q,
            &DataConfig {
                max_rows_per_table: 120,
                seed: 7,
            },
        );
        let mut w = WorkCounter::default();
        let left = nested_loop_join(&q, db.table(0), db.table(1), &mut w);
        let nl = nested_loop_join(&q, &left, db.table(2), &mut w);
        let hj = hash_join(&q, &left, db.table(2), &mut w);
        let sm = sort_merge_join(&q, &left, db.table(2), &mut w);
        assert_eq!(nl.canonical_rows(), hj.canonical_rows());
        assert_eq!(nl.canonical_rows(), sm.canonical_rows());
        // Every output row satisfies both predicates.
        for i in 0..nl.len() {
            let row = nl.row(i);
            for p in &q.predicates {
                if let (Some(a), Some(b)) = (nl.column_of(p.left), nl.column_of(p.right)) {
                    assert_eq!(row[a], row[b], "predicate {p:?} must hold");
                }
            }
        }
    }

    #[test]
    fn empty_inputs_yield_empty_outputs() {
        let (q, _) = setup(2, 9);
        let empty_a = Relation::new(mpq_model::TableSet::singleton(0));
        let empty_b = Relation::new(mpq_model::TableSet::singleton(1));
        let mut w = WorkCounter::default();
        assert!(nested_loop_join(&q, &empty_a, &empty_b, &mut w).is_empty());
        assert!(hash_join(&q, &empty_a, &empty_b, &mut w).is_empty());
        assert!(sort_merge_join(&q, &empty_a, &empty_b, &mut w).is_empty());
    }
}
