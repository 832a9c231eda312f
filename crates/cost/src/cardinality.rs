//! Cardinality estimation under the independence assumption.
//!
//! The estimate for a table set `S` is
//! `prod_{t in S} |t|  *  prod_{p inside S} sel(p)`,
//! the classic System-R formula. Crucially the estimate is a function of the
//! *set* alone: every plan producing the same intermediate result has the
//! same output cardinality, which is what lets the dynamic program compare
//! plans per table set. The estimator memoizes per-set results because the
//! split-enumeration loops of the optimizer ask for the same sets many
//! times.

use crate::predicates::PredicateIndex;
use mpq_model::{Query, TableSet};

/// Cardinality and width estimator for one query.
///
/// Construct one per query; estimates are cached in a dense table indexed by
/// the set bit-pattern when the query is small enough. Above `DENSE_LIMIT`
/// tables nothing is cached: every ask walks the set's tables and all the
/// predicates again, and the DP asks for both operands of every split it
/// tries — its memo holds plans, not cardinalities.
pub struct CardinalityEstimator<'q> {
    query: &'q Query,
    predicates: PredicateIndex,
    /// Dense cache for queries of at most `DENSE_LIMIT` tables; `NaN` marks
    /// an unfilled slot. Kept in a `Box<[f64]>` (2^n entries).
    dense: Option<Box<[f64]>>,
}

/// Largest query size for which the dense cardinality cache is allocated
/// (2^20 doubles = 8 MiB).
const DENSE_LIMIT: usize = 20;

impl<'q> CardinalityEstimator<'q> {
    /// Creates an estimator for `query`.
    pub fn new(query: &'q Query) -> Self {
        let n = query.num_tables();
        let dense = if n <= DENSE_LIMIT {
            Some(vec![f64::NAN; 1usize << n].into_boxed_slice())
        } else {
            None
        };
        CardinalityEstimator {
            query,
            predicates: PredicateIndex::new(query),
            dense,
        }
    }

    /// The query this estimator was built for.
    pub fn query(&self) -> &'q Query {
        self.query
    }

    /// The query's predicate index: sort-merge attributes and interesting
    /// orders.
    pub fn predicates(&self) -> &PredicateIndex {
        &self.predicates
    }

    /// Estimated cardinality of the join of `tables`.
    ///
    /// Returns `1.0` for the empty set (neutral element of the product).
    pub fn cardinality(&mut self, tables: TableSet) -> f64 {
        if let Some(cache) = &mut self.dense {
            let idx = tables.bits() as usize;
            let cached = cache[idx];
            if !cached.is_nan() {
                return cached;
            }
            let v = compute_cardinality(self.query, tables);
            cache[idx] = v;
            v
        } else {
            compute_cardinality(self.query, tables)
        }
    }

    /// Estimated output cardinality of joining `left` with `right`
    /// (`left` and `right` must be disjoint).
    pub fn join_cardinality(&mut self, left: TableSet, right: TableSet) -> f64 {
        debug_assert!(left.is_disjoint(right));
        self.cardinality(left.union(right))
    }

    /// Estimated tuple width in bytes of the join result of `tables`
    /// (sum of the member tables' tuple widths: a join concatenates tuples).
    pub fn tuple_bytes(&self, tables: TableSet) -> f64 {
        tables
            .iter()
            .map(|t| self.query.catalog.stats(t).tuple_bytes)
            .sum()
    }
}

fn compute_cardinality(query: &Query, tables: TableSet) -> f64 {
    if tables.is_empty() {
        return 1.0;
    }
    let mut card = 1.0;
    for t in tables.iter() {
        card *= query.catalog.stats(t).cardinality;
    }
    card * query.internal_selectivity(tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_model::{Catalog, JoinGraph, Predicate, Query, TableStats};

    fn chain_query(cards: &[f64], sel: f64) -> Query {
        let catalog = Catalog::from_stats(
            cards
                .iter()
                .map(|&c| TableStats::with_cardinality(c))
                .collect(),
        );
        let predicates = (1..cards.len())
            .map(|i| Predicate {
                left: i - 1,
                right: i,
                selectivity: sel,
            })
            .collect();
        Query {
            catalog,
            predicates,
            graph: JoinGraph::Chain,
        }
    }

    #[test]
    fn singleton_is_table_cardinality() {
        let q = chain_query(&[100.0, 200.0], 0.01);
        let mut est = CardinalityEstimator::new(&q);
        assert_eq!(est.cardinality(TableSet::singleton(0)), 100.0);
        assert_eq!(est.cardinality(TableSet::singleton(1)), 200.0);
    }

    #[test]
    fn empty_set_is_one() {
        let q = chain_query(&[10.0], 0.5);
        let mut est = CardinalityEstimator::new(&q);
        assert_eq!(est.cardinality(TableSet::empty()), 1.0);
    }

    #[test]
    fn pair_applies_selectivity() {
        let q = chain_query(&[100.0, 200.0], 0.01);
        let mut est = CardinalityEstimator::new(&q);
        let both = TableSet::from_tables([0, 1]);
        assert!((est.cardinality(both) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn cross_product_multiplies() {
        let q = chain_query(&[10.0, 20.0, 30.0], 0.1);
        let mut est = CardinalityEstimator::new(&q);
        // {0, 2} has no internal predicate in a chain.
        let s = TableSet::from_tables([0, 2]);
        assert!((est.cardinality(s) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn plan_independence() {
        // The estimate depends on the set, not on how it is asked for.
        let q = chain_query(&[50.0, 60.0, 70.0, 80.0], 0.05);
        let mut est = CardinalityEstimator::new(&q);
        let l = TableSet::from_tables([0, 1]);
        let r = TableSet::from_tables([2, 3]);
        let via_join = est.join_cardinality(l, r);
        let direct = est.cardinality(l.union(r));
        assert_eq!(via_join, direct);
    }

    #[test]
    fn caching_is_transparent() {
        let q = chain_query(&[100.0, 200.0, 300.0], 0.01);
        let mut est = CardinalityEstimator::new(&q);
        let s = TableSet::full(3);
        let a = est.cardinality(s);
        let b = est.cardinality(s);
        assert_eq!(a, b);
    }

    #[test]
    fn tuple_bytes_sum() {
        let catalog = Catalog::from_stats(vec![
            TableStats {
                cardinality: 1.0,
                tuple_bytes: 10.0,
                join_domain: 1.0,
            },
            TableStats {
                cardinality: 1.0,
                tuple_bytes: 30.0,
                join_domain: 1.0,
            },
        ]);
        let q = Query {
            catalog,
            predicates: vec![],
            graph: JoinGraph::Chain,
        };
        let est = CardinalityEstimator::new(&q);
        assert_eq!(est.tuple_bytes(TableSet::full(2)), 40.0);
    }
}
