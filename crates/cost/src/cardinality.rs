//! Cardinality estimation under the independence assumption.
//!
//! The estimate for a table set `S` is
//! `prod_{t in S} |t|  *  prod_{p inside S} sel(p)`,
//! the classic System-R formula. Crucially the estimate is a function of the
//! *set* alone: every plan producing the same intermediate result has the
//! same output cardinality, which is what lets the dynamic program compare
//! plans per table set. The dynamic program asks once per table set
//! ([`CardinalityEstimator::set_stats`]) and keeps the answer in its memo,
//! beside the set's plans. What the estimator keeps is per query: one
//! prefix table of at most 2^10 entries per statistic over the low table
//! and predicate bits (the cardinality product, the tuple-width sum, the
//! selectivity product), each entry the exact left fold of its subset, so
//! a set's answer is one lookup plus the bits above the cap folded in one
//! at a time — the same operations in the same order as the fold from
//! scratch, and so the same bits. Beside them the predicate index keeps
//! one union table per ten tables (the predicates and the tables a set
//! touches), which grows with the table and predicate counts.

use crate::predicates::{prefix_fold, InsidePredicates, PredicateIndex};
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

/// Cardinality and width estimator for one query. It copies what it reads
/// of the query, so it can be kept beside the query for as long as a copy
/// of the query lives (an SMA run builds one for its memo).
pub struct CardinalityEstimator {
    predicates: PredicateIndex,
    /// Per table, its cardinality and tuple width.
    cardinality: Vec<f64>,
    tuple_bytes: Vec<f64>,
    /// The cardinality products and tuple-width sums of the low tables,
    /// by their bits ([`prefix_fold`]).
    cardinality_low: Vec<f64>,
    tuple_bytes_low: Vec<f64>,
}

impl CardinalityEstimator {
    /// Creates an estimator for `query`.
    pub fn new(query: &Query) -> Self {
        let stats = || query.catalog.iter().map(|(_, s)| s);
        let cardinality: Vec<f64> = stats().map(|s| s.cardinality).collect();
        let tuple_bytes: Vec<f64> = stats().map(|s| s.tuple_bytes).collect();
        // Whichever zero `Iterator::sum` starts from, so that the empty
        // set's width, and every sum built on it, has its bits.
        let no_bytes: f64 = std::iter::empty::<f64>().sum();
        CardinalityEstimator {
            predicates: PredicateIndex::new(query),
            cardinality_low: prefix_fold(1.0, cardinality.iter().copied(), |c, x| c * x),
            tuple_bytes_low: prefix_fold(no_bytes, tuple_bytes.iter().copied(), |b, x| b + x),
            cardinality,
            tuple_bytes,
        }
    }

    /// The query's predicate index: sort-merge attributes and interesting
    /// orders.
    pub fn predicates(&self) -> &PredicateIndex {
        &self.predicates
    }

    /// The fold over `tables` of a per-table statistic whose fold over the
    /// low tables is `low`: that entry, then the tables above the cap one
    /// at a time, in table order.
    #[inline]
    fn fold(
        &self,
        low: &[f64],
        tables: TableSet,
        stat: impl Fn(usize) -> f64,
        op: impl Fn(f64, f64) -> f64,
    ) -> f64 {
        let low_tables = (low.len() - 1) as u64;
        TableSet(tables.bits() & !low_tables)
            .iter()
            .fold(low[(tables.bits() & low_tables) as usize], |acc, t| {
                op(acc, stat(t))
            })
    }

    /// Estimated cardinality of the join of `tables`: the table
    /// cardinalities multiplied up in table order, times the selectivities
    /// of the predicates inside the set in predicate-number order — the
    /// multiplication order is part of the result bits.
    ///
    /// Returns `1.0` for the empty set (neutral element of the product).
    pub fn cardinality(&self, tables: TableSet) -> f64 {
        self.cardinality_at(tables, self.predicates.internal_selectivity(tables))
    }

    /// The cardinality of `tables` whose predicates inside multiply up to
    /// `selectivity`.
    #[inline]
    fn cardinality_at(&self, tables: TableSet, selectivity: f64) -> f64 {
        let card = self.fold(
            &self.cardinality_low,
            tables,
            |t| self.cardinality[t],
            |c, x| c * x,
        );
        card * selectivity
    }

    /// Estimated tuple width in bytes of the join result of `tables`
    /// (sum of the member tables' tuple widths, in table order: a join
    /// concatenates tuples).
    pub fn tuple_bytes(&self, tables: TableSet) -> f64 {
        self.fold(
            &self.tuple_bytes_low,
            tables,
            |t| self.tuple_bytes[t],
            |b, x| b + x,
        )
    }

    /// Everything costing needs to know about `tables` as a join operand.
    pub fn set_stats(&self, tables: TableSet) -> SetStats {
        self.stats_at(tables, self.predicates.internal_selectivity(tables))
    }

    /// [`CardinalityEstimator::set_stats`] of `tables`, whose inside
    /// predicates the caller has at hand ([`PredicateIndex::inside`]), bit
    /// for bit.
    pub fn set_stats_inside(&self, tables: TableSet, inside: &InsidePredicates) -> SetStats {
        self.stats_at(tables, self.predicates.selectivity(inside))
    }

    #[inline]
    fn stats_at(&self, tables: TableSet, selectivity: f64) -> SetStats {
        let cardinality = self.cardinality_at(tables, selectivity);
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
    #![allow(clippy::disallowed_macros)]
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
            },
            TableStats {
                cardinality: 1.0,
                tuple_bytes: 30.0,
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
