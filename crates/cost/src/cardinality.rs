//! Cardinality estimation under the independence assumption.
//!
//! The estimate for a table set `S` is
//! `prod_{t in S} |t|  *  prod_{p inside S} sel(p)`,
//! the classic System-R formula. Crucially the estimate is a function of the
//! *set* alone: every plan producing the same intermediate result has the
//! same output cardinality, which is what lets the dynamic program compare
//! plans per table set. The estimator remembers nothing: the dynamic
//! program asks once per table set ([`CardinalityEstimator::set_stats`]) and
//! keeps the answer in its memo, beside the set's plans, so estimator
//! memory does not depend on the query size.

use crate::predicates::PredicateIndex;
use mpq_model::{Query, TableSet};

/// What costing a join needs to know about one operand — a function of the
/// table set alone, whatever plan produces it. The DP memo stores one per
/// set; [`crate::SplitCosts`] is built from two.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SetStats {
    /// Estimated cardinality of the join of the set's tables.
    pub cardinality: f64,
    /// Estimated tuple width in bytes.
    pub tuple_bytes: f64,
    /// `n log2 n` time of sorting the set's join result.
    pub sort_cost: f64,
}

/// Cardinality and width estimator for one query. Every answer is computed
/// from the query on the spot.
pub struct CardinalityEstimator<'q> {
    query: &'q Query,
    predicates: PredicateIndex,
}

impl<'q> CardinalityEstimator<'q> {
    /// Creates an estimator for `query`.
    pub fn new(query: &'q Query) -> Self {
        CardinalityEstimator {
            query,
            predicates: PredicateIndex::new(query),
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

    /// Estimated cardinality of the join of `tables`: the table
    /// cardinalities multiplied up in table order, times the selectivities
    /// of the predicates inside the set in predicate-number order — the
    /// multiplication order is part of the result bits.
    ///
    /// Returns `1.0` for the empty set (neutral element of the product).
    pub fn cardinality(&self, tables: TableSet) -> f64 {
        let mut card = 1.0;
        for t in tables.iter() {
            card *= self.query.catalog.stats(t).cardinality;
        }
        card * self.predicates.internal_selectivity(tables)
    }

    /// Estimated output cardinality of joining `left` with `right`
    /// (`left` and `right` must be disjoint).
    pub fn join_cardinality(&self, left: TableSet, right: TableSet) -> f64 {
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

    /// Everything costing needs to know about `tables` as a join operand.
    pub fn set_stats(&self, tables: TableSet) -> SetStats {
        let cardinality = self.cardinality(tables);
        SetStats {
            cardinality,
            tuple_bytes: self.tuple_bytes(tables),
            sort_cost: sort_cost(cardinality),
        }
    }
}

/// `n log2 n` sort cost, safe for tiny inputs.
fn sort_cost(card: f64) -> f64 {
    card * card.max(2.0).log2()
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
        let est = CardinalityEstimator::new(&q);
        assert_eq!(est.cardinality(TableSet::singleton(0)), 100.0);
        assert_eq!(est.cardinality(TableSet::singleton(1)), 200.0);
    }

    #[test]
    fn empty_set_is_one() {
        let q = chain_query(&[10.0], 0.5);
        let est = CardinalityEstimator::new(&q);
        assert_eq!(est.cardinality(TableSet::empty()), 1.0);
    }

    #[test]
    fn pair_applies_selectivity() {
        let q = chain_query(&[100.0, 200.0], 0.01);
        let est = CardinalityEstimator::new(&q);
        let both = TableSet::from_tables([0, 1]);
        assert!((est.cardinality(both) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn cross_product_multiplies() {
        let q = chain_query(&[10.0, 20.0, 30.0], 0.1);
        let est = CardinalityEstimator::new(&q);
        // {0, 2} has no internal predicate in a chain.
        let s = TableSet::from_tables([0, 2]);
        assert!((est.cardinality(s) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn plan_independence() {
        // The estimate depends on the set, not on how it is asked for.
        let q = chain_query(&[50.0, 60.0, 70.0, 80.0], 0.05);
        let est = CardinalityEstimator::new(&q);
        let l = TableSet::from_tables([0, 1]);
        let r = TableSet::from_tables([2, 3]);
        let via_join = est.join_cardinality(l, r);
        let direct = est.cardinality(l.union(r));
        assert_eq!(via_join, direct);
    }

    #[test]
    fn caching_is_transparent() {
        // Nothing is cached any more: two asks are two computations, and
        // the memo's copy (`set_stats`) is a third. All agree bit for bit.
        let q = chain_query(&[100.0, 200.0, 300.0], 0.01);
        let est = CardinalityEstimator::new(&q);
        let s = TableSet::full(3);
        let a = est.cardinality(s);
        assert_eq!(a.to_bits(), est.cardinality(s).to_bits());
        let stats = est.set_stats(s);
        assert_eq!(a.to_bits(), stats.cardinality.to_bits());
        assert_eq!(stats.tuple_bytes, est.tuple_bytes(s));
        assert_eq!(stats.sort_cost, a * a.log2());
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
