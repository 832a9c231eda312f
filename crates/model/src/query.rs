//! Join queries and join graphs.
//!
//! Following the paper's problem model (Section 3), a query is a set of
//! tables to be joined, plus equality join predicates. Cross products are
//! permitted (the paper deliberately does not restrict them, citing Ono &
//! Lohman), so any pair of subsets can be joined; predicates only influence
//! cardinality estimates.

use crate::catalog::{Catalog, TableId};
use crate::tableset::TableSet;
use serde::{Deserialize, Serialize};

/// Shape of the join graph connecting the query tables, as used in the
/// paper's Figure 3 experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JoinGraph {
    /// `Q_0 - Q_1 - ... - Q_{n-1}`.
    Chain,
    /// `Q_0` is the hub; every other table joins it. This is the paper's
    /// default shape.
    Star,
    /// A chain with an extra edge closing `Q_{n-1} - Q_0`.
    Cycle,
    /// Every pair of tables is connected.
    Clique,
}

impl JoinGraph {
    /// The edges (unordered table pairs) of this graph over `n` tables.
    pub fn edges(&self, n: usize) -> Vec<(TableId, TableId)> {
        let mut e = Vec::new();
        match self {
            JoinGraph::Chain => {
                for i in 1..n {
                    e.push((i - 1, i));
                }
            }
            JoinGraph::Star => {
                for i in 1..n {
                    e.push((0, i));
                }
            }
            JoinGraph::Cycle => {
                for i in 1..n {
                    e.push((i - 1, i));
                }
                if n > 2 {
                    e.push((n - 1, 0));
                }
            }
            JoinGraph::Clique => {
                for i in 0..n {
                    for j in (i + 1)..n {
                        e.push((i, j));
                    }
                }
            }
        }
        e
    }

    /// All four shapes, in the order used by the Figure 3 experiment.
    pub const ALL: [JoinGraph; 4] = [
        JoinGraph::Chain,
        JoinGraph::Star,
        JoinGraph::Cycle,
        JoinGraph::Clique,
    ];
}

/// An equality join predicate `t_left.attr = t_right.attr` with its
/// estimated selectivity.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Predicate {
    /// One side of the equality.
    pub left: TableId,
    /// The other side.
    pub right: TableId,
    /// Fraction of the Cartesian product that satisfies the predicate
    /// (`0 < selectivity <= 1`).
    pub selectivity: f64,
}

/// A join query: `n` tables (statistics in the embedded [`Catalog`]) plus
/// join predicates. Serializable so the master can ship it — together with
/// its query-specific statistics — to every worker, as in Algorithm 1.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Per-table statistics (the "query-specific statistics" of Section 4.1).
    pub catalog: Catalog,
    /// Equality join predicates.
    pub predicates: Vec<Predicate>,
    /// Shape used to generate the predicates, kept for reporting.
    pub graph: JoinGraph,
}

impl Query {
    /// Number of tables joined by the query.
    pub fn num_tables(&self) -> usize {
        self.catalog.len()
    }

    /// The full table set `{0, .., n-1}`.
    pub fn all_tables(&self) -> TableSet {
        TableSet::full(self.num_tables())
    }

    /// Combined selectivity of all predicates that connect a table in
    /// `left` with a table in `right`, under the standard independence
    /// assumption (product of selectivities). Returns `1.0` for a pure
    /// cross product.
    pub fn join_selectivity(&self, left: TableSet, right: TableSet) -> f64 {
        let mut sel = 1.0;
        for p in &self.predicates {
            let crosses = (left.contains(p.left) && right.contains(p.right))
                || (left.contains(p.right) && right.contains(p.left));
            if crosses {
                sel *= p.selectivity;
            }
        }
        sel
    }

    /// Combined selectivity of all predicates with both endpoints inside
    /// `tables` — the total predicate effect on the join of that set.
    pub fn internal_selectivity(&self, tables: TableSet) -> f64 {
        let mut sel = 1.0;
        for p in &self.predicates {
            if tables.contains(p.left) && tables.contains(p.right) {
                sel *= p.selectivity;
            }
        }
        sel
    }

    /// The first predicate endpoint that names a table the query does not
    /// have (`>= num_tables()`), if any. Every per-table structure built
    /// from the query is sized by its table count, so the boundaries (the
    /// wire decoder, service admission, the SMA run) refuse such a query.
    pub fn stray_endpoint(&self) -> Option<TableId> {
        let n = self.num_tables();
        self.predicates
            .iter()
            .flat_map(|p| [p.left, p.right])
            .find(|&t| t >= n)
    }

    /// The first statistic no catalog can have, as `(field, value)`: a
    /// cardinality or tuple width that is NaN, infinite or negative, or a
    /// selectivity outside `0 < selectivity <= 1` (NaN included). `None`
    /// when every statistic is admissible.
    ///
    /// The optimizers stay deterministic on such input, but `0 · ∞`
    /// cardinalities cost plans at NaN, and among NaN times the winner can
    /// depend on how the plan space is partitioned — so the boundaries
    /// (the wire decoder, service admission) refuse them.
    pub fn invalid_statistic(&self) -> Option<(&'static str, f64)> {
        let table = self.catalog.iter().flat_map(|(_, s)| {
            [
                ("cardinality", s.cardinality),
                ("tuple_bytes", s.tuple_bytes),
            ]
        });
        let bad_table = table.filter(|&(_, v)| !(v.is_finite() && v >= 0.0));
        let bad_predicate = self
            .predicates
            .iter()
            .map(|p| ("selectivity", p.selectivity))
            .filter(|&(_, s)| !(s > 0.0 && s <= 1.0));
        bad_table.chain(bad_predicate).next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableStats;

    fn query_with_edges(n: usize, graph: JoinGraph, sel: f64) -> Query {
        let catalog = Catalog::from_stats(
            (0..n)
                .map(|i| TableStats::with_cardinality(100.0 * (i + 1) as f64))
                .collect(),
        );
        let predicates = graph
            .edges(n)
            .into_iter()
            .map(|(a, b)| Predicate {
                left: a,
                right: b,
                selectivity: sel,
            })
            .collect();
        Query {
            catalog,
            predicates,
            graph,
        }
    }

    #[test]
    fn chain_edges() {
        assert_eq!(JoinGraph::Chain.edges(4), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn star_edges() {
        assert_eq!(JoinGraph::Star.edges(4), vec![(0, 1), (0, 2), (0, 3)]);
    }

    #[test]
    fn cycle_edges_close_the_loop() {
        let e = JoinGraph::Cycle.edges(4);
        assert_eq!(e.len(), 4);
        assert!(e.contains(&(3, 0)));
    }

    #[test]
    fn cycle_of_two_is_a_chain() {
        assert_eq!(JoinGraph::Cycle.edges(2), vec![(0, 1)]);
    }

    #[test]
    fn clique_edge_count() {
        assert_eq!(JoinGraph::Clique.edges(5).len(), 5 * 4 / 2);
    }

    #[test]
    fn join_selectivity_crossing_only() {
        let q = query_with_edges(4, JoinGraph::Chain, 0.1);
        // Split {0,1} vs {2,3}: only edge (1,2) crosses.
        let l = TableSet::from_tables([0, 1]);
        let r = TableSet::from_tables([2, 3]);
        assert!((q.join_selectivity(l, r) - 0.1).abs() < 1e-12);
        // Split {0,2} vs {1,3}: edges (0,1),(1,2),(2,3) all cross.
        let l = TableSet::from_tables([0, 2]);
        let r = TableSet::from_tables([1, 3]);
        assert!((q.join_selectivity(l, r) - 0.001).abs() < 1e-12);
    }

    #[test]
    fn cross_product_has_unit_selectivity() {
        let q = query_with_edges(4, JoinGraph::Chain, 0.1);
        let l = TableSet::singleton(0);
        let r = TableSet::singleton(3);
        assert_eq!(q.join_selectivity(l, r), 1.0);
    }

    #[test]
    fn internal_selectivity_counts_contained_edges() {
        let q = query_with_edges(4, JoinGraph::Chain, 0.5);
        let s = TableSet::from_tables([0, 1, 2]);
        // Edges (0,1) and (1,2) are inside.
        assert!((q.internal_selectivity(s) - 0.25).abs() < 1e-12);
        assert_eq!(q.internal_selectivity(TableSet::singleton(1)), 1.0);
    }

    #[test]
    fn selectivity_consistency_between_views() {
        // internal(L ∪ R) == internal(L) * internal(R) * crossing(L, R)
        let q = query_with_edges(5, JoinGraph::Cycle, 0.3);
        let l = TableSet::from_tables([0, 1, 4]);
        let r = TableSet::from_tables([2, 3]);
        let lhs = q.internal_selectivity(l.union(r));
        let rhs = q.internal_selectivity(l) * q.internal_selectivity(r) * q.join_selectivity(l, r);
        assert!((lhs - rhs).abs() < 1e-12);
    }
}
