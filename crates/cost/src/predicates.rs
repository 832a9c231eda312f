//! The per-query predicate index: which predicates lie inside a table set
//! (the selectivity product of its cardinality estimate), which predicate a
//! sort-merge join sorts on, and — derived from the same lookup — which
//! sort orders a join result can still put to use.
//!
//! The two order rules are defined here, through one private lookup
//! (`lowest_between`: the lowest-numbered predicate between a table set and
//! an outside table), so the pruning rule cannot drift from the sort-merge
//! rule it depends on:
//!
//! * **Sort-merge rule.** A sort-merge join of `left` and `right` sorts on
//!   the endpoints of the *lowest-numbered* predicate crossing the split
//!   ([`PredicateIndex::sort_merge_attributes`]).
//! * **Liveness rule.** An order on table `t` is *live* for a join result
//!   `S` iff for some table `u ∉ S` the lowest-numbered predicate between
//!   `S` and `u` ends at `t` ([`PredicateIndex::interesting_orders`]). Only
//!   a live order can ever spare a later sort, so the DP labels every other
//!   order [`Order::None`](crate::Order::None) and keeps no memo class for
//!   it.
//!
//! Why that loses nothing. A plan for `S` sorted on `t ∈ S` profits only
//! if some ancestor — a result `S' ⊇ S` that still carries the order, since
//! nested-loop and hash joins pass the outer order up — is sort-merged with
//! an operand `R` whose lowest-numbered crossing predicate `p` ends at `t`.
//! Let `u ∈ R` be `p`'s other endpoint. Every predicate between `S` and `u`
//! also crosses `S'`/`R`, so none is numbered below `p`, and `p` itself
//! runs between `S` and `u`: `t` is live for `S`. Contrapositive: an order
//! that is not live for `S` is not live for any superset and spares no
//! sort in any plan tree, so relabelling it `None` changes no plan's cost.
//!
//! The argument leans on the sort-merge rule picking the *lowest-numbered*
//! crossing predicate. A different choice (most selective, say) needs a
//! different liveness rule — change both here, together.

use mpq_model::{Query, TableSet};

/// Per table, its predicates' other endpoints in predicate-number order,
/// plus the set of those endpoints; and per table the predicates that touch
/// it, as a bitset over predicate numbers. Built once per query.
///
/// A predicate with an endpoint outside the query's tables or with both
/// endpoints on one table never crosses a split and is left out of the
/// partner lists; one with an endpoint outside the query's tables lies
/// inside no table set and is left out of the bitsets as well.
#[derive(Clone, Debug)]
pub struct PredicateIndex {
    /// Table `t`'s predicates are `partners[starts[t]..starts[t + 1]]`.
    starts: Vec<u32>,
    /// `(predicate number, other endpoint)`, ascending by number per table.
    partners: Vec<(u32, u8)>,
    /// Per table, the tables it shares a predicate with.
    neighbours: Vec<TableSet>,
    /// Every predicate's selectivity, by predicate number.
    selectivity: Vec<f64>,
    /// Words per predicate bitset: a 17-table clique already has 136
    /// predicates.
    words: usize,
    /// The predicates with both endpoints among the query's tables.
    within_query: Vec<u64>,
    /// `incident[u * words..][..words]`: the predicates with an endpoint at
    /// table `u`.
    incident: Vec<u64>,
}

impl PredicateIndex {
    /// Indexes the predicates of `query`.
    pub fn new(query: &Query) -> Self {
        let n = query.num_tables();
        let crossing = || {
            query
                .predicates
                .iter()
                .enumerate()
                .filter(|(_, p)| p.left < n && p.right < n && p.left != p.right)
        };
        let mut starts = vec![0u32; n + 1];
        for (_, p) in crossing() {
            starts[p.left + 1] += 1;
            starts[p.right + 1] += 1;
        }
        for t in 0..n {
            starts[t + 1] += starts[t];
        }
        let mut next = starts.clone();
        let mut partners = vec![(0u32, 0u8); starts[n] as usize];
        let mut neighbours = vec![TableSet::empty(); n];
        for (number, p) in crossing() {
            for (t, other) in [(p.left, p.right), (p.right, p.left)] {
                partners[next[t] as usize] = (number as u32, other as u8);
                next[t] += 1;
                neighbours[t] = neighbours[t].insert(other);
            }
        }
        let words = query.predicates.len().div_ceil(64);
        let mut within_query = vec![0u64; words];
        let mut incident = vec![0u64; n * words];
        for (number, p) in query.predicates.iter().enumerate() {
            if p.left < n && p.right < n {
                let (word, bit) = (number / 64, 1u64 << (number % 64));
                within_query[word] |= bit;
                incident[p.left * words + word] |= bit;
                incident[p.right * words + word] |= bit;
            }
        }
        PredicateIndex {
            starts,
            partners,
            neighbours,
            selectivity: query.predicates.iter().map(|p| p.selectivity).collect(),
            words,
            within_query,
            incident,
        }
    }

    /// Combined selectivity of the predicates with both endpoints inside
    /// `set` (a subset of the query's tables): bit for bit what
    /// [`Query::internal_selectivity`] returns, found without walking the
    /// predicates that are not inside. Those inside are what is left of all
    /// predicates once every outside table's are struck, and they are
    /// multiplied up in predicate-number order, as the full walk does — the
    /// order is part of the result bits.
    pub fn internal_selectivity(&self, set: TableSet) -> f64 {
        let outside = TableSet::full(self.neighbours.len()).difference(set);
        let mut sel = 1.0;
        for (word, &within_query) in self.within_query.iter().enumerate() {
            let mut inside = within_query;
            for u in outside.iter() {
                inside &= !self.incident[u * self.words + word];
            }
            while inside != 0 {
                sel *= self.selectivity[word * 64 + inside.trailing_zeros() as usize];
                inside &= inside - 1;
            }
        }
        sel
    }

    /// The lowest-numbered predicate between the table set `s` and the
    /// table `u ∉ s`: its number and its endpoint in `s`.
    #[inline]
    fn lowest_between(&self, s: TableSet, u: usize) -> Option<(u32, u8)> {
        if self.neighbours[u].is_disjoint(s) {
            return None;
        }
        self.partners[self.starts[u] as usize..self.starts[u + 1] as usize]
            .iter()
            .copied()
            .find(|&(_, t)| s.contains(t as usize))
    }

    /// The join attributes a sort-merge join between `left` and `right`
    /// sorts on: the `left` and `right` endpoints of the lowest-numbered
    /// predicate crossing the two sets, or `None` for a cross product.
    #[inline]
    pub fn sort_merge_attributes(&self, left: TableSet, right: TableSet) -> Option<(u8, u8)> {
        let mut best: Option<(u32, u8, u8)> = None;
        for u in right.iter() {
            if let Some((number, t)) = self.lowest_between(left, u) {
                if best.is_none_or(|(b, ..)| number < b) {
                    best = Some((number, t, u as u8));
                }
            }
        }
        best.map(|(_, t, u)| (t, u))
    }

    /// The tables of `set` whose sort order a later sort-merge join can
    /// still ask for (the liveness rule of the module docs): the `set`
    /// endpoints of the lowest-numbered predicate to each outside table.
    /// Empty for the full table set.
    pub fn interesting_orders(&self, set: TableSet) -> TableSet {
        let outside = TableSet::full(self.neighbours.len()).difference(set);
        let mut live = TableSet::empty();
        for u in outside.iter() {
            if let Some((_, t)) = self.lowest_between(set, u) {
                live = live.insert(t as usize);
            }
        }
        live
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use mpq_model::{Catalog, JoinGraph, Predicate, TableStats};

    /// `n` tables joined by the edges of `graph`, predicates numbered in
    /// edge order.
    fn graph_query(n: usize, graph: JoinGraph) -> Query {
        edge_query(n, &graph.edges(n))
    }

    fn edge_query(n: usize, edges: &[(usize, usize)]) -> Query {
        Query {
            catalog: Catalog::from_stats(vec![TableStats::with_cardinality(100.0); n]),
            predicates: edges
                .iter()
                .map(|&(left, right)| Predicate {
                    left,
                    right,
                    selectivity: 0.1,
                })
                .collect(),
            graph: JoinGraph::Chain,
        }
    }

    fn live(query: &Query, set: &[usize]) -> Vec<usize> {
        PredicateIndex::new(query)
            .interesting_orders(TableSet::from_tables(set.iter().copied()))
            .iter()
            .collect()
    }

    #[test]
    fn star_with_the_hub_keeps_only_the_hub() {
        let q = graph_query(7, JoinGraph::Star);
        for set in [&[0, 3][..], &[0, 1, 2, 4, 6], &[0, 1, 2, 3, 4, 5]] {
            assert_eq!(live(&q, set), [0], "{set:?}");
        }
    }

    #[test]
    fn star_without_the_hub_keeps_the_spoke_the_hub_reaches_first() {
        // The hub's lowest-numbered predicate into the set ends at min(S);
        // no other outside table has a predicate into a hub-free set.
        let q = graph_query(7, JoinGraph::Star);
        assert_eq!(live(&q, &[3, 5, 6]), [3]);
        assert_eq!(live(&q, &[2, 4]), [2]);
        assert_eq!(live(&q, &[6]), [6]);
    }

    #[test]
    fn clique_keeps_only_the_lowest_table() {
        let q = graph_query(6, JoinGraph::Clique);
        for set in [&[1, 4][..], &[2, 3, 5], &[0, 1, 2, 3, 4], &[5]] {
            assert_eq!(live(&q, set), [set[0]], "{set:?}");
        }
    }

    #[test]
    fn chain_keeps_the_tables_an_outside_neighbour_reaches_first() {
        // t is live iff t+1 is outside S (predicate t is t+1's lowest), or
        // t-1 is outside and t-2 — t-1's lower-numbered partner — is too.
        let n = 7;
        let q = graph_query(n, JoinGraph::Chain);
        let index = PredicateIndex::new(&q);
        for bits in 1u64..(1 << n) {
            let s = TableSet(bits);
            let outside = |t: usize| t < n && !s.contains(t);
            let expected = TableSet::from_tables(s.iter().filter(|&t| {
                outside(t + 1) || (t >= 1 && outside(t - 1) && (t < 2 || outside(t - 2)))
            }));
            assert_eq!(index.interesting_orders(s), expected, "{s:?}");
        }
    }

    #[test]
    fn full_set_and_predicate_free_set_have_no_live_order() {
        let q = graph_query(5, JoinGraph::Cycle);
        assert!(live(&q, &[0, 1, 2, 3, 4]).is_empty());
        // Tables 3 and 4 join nothing.
        let q = edge_query(5, &[(0, 1), (1, 2)]);
        assert!(live(&q, &[3, 4]).is_empty());
        assert!(live(&edge_query(3, &[]), &[0, 2]).is_empty());
    }

    #[test]
    fn sixty_four_tables_do_not_overflow_a_shift() {
        let q = graph_query(64, JoinGraph::Chain);
        let index = PredicateIndex::new(&q);
        assert_eq!(
            index.interesting_orders(TableSet::from_tables([62, 63])),
            TableSet::singleton(62)
        );
        assert_eq!(
            index.interesting_orders(TableSet::from_tables(0..63)),
            TableSet::singleton(62)
        );
        assert!(index.interesting_orders(TableSet::full(64)).is_empty());
        assert_eq!(
            index.sort_merge_attributes(TableSet::from_tables(0..63), TableSet::singleton(63)),
            Some((62, 63))
        );
    }

    #[test]
    fn sort_merge_takes_the_lowest_numbered_crossing_predicate() {
        // Predicate numbers: 0 = (2,3), 1 = (0,3), 2 = (1,2), 3 = (3,0).
        let q = edge_query(4, &[(2, 3), (0, 3), (1, 2), (3, 0)]);
        let index = PredicateIndex::new(&q);
        let set = |ts: &[usize]| TableSet::from_tables(ts.iter().copied());
        // Oriented left-to-right whichever way the predicate was written.
        assert_eq!(
            index.sort_merge_attributes(set(&[3]), set(&[2])),
            Some((3, 2))
        );
        // A multi-table right operand: predicate 0 beats predicate 1.
        assert_eq!(
            index.sort_merge_attributes(set(&[3]), set(&[0, 2])),
            Some((3, 2))
        );
        assert_eq!(
            index.sort_merge_attributes(set(&[0, 1]), set(&[2, 3])),
            Some((0, 3))
        );
        // The duplicate (3,0) never wins over (0,3).
        assert_eq!(
            index.sort_merge_attributes(set(&[0]), set(&[3])),
            Some((0, 3))
        );
        assert_eq!(index.sort_merge_attributes(set(&[0]), set(&[1])), None);
    }

    /// The bitset product against the full walk it replaced, bit for bit,
    /// on every table set of `query` (or a seeded sample of them).
    fn assert_selectivity_matches_the_full_walk(query: &Query) {
        let index = PredicateIndex::new(query);
        let n = query.num_tables();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..(1u64 << n.min(11)) {
            let bits = if n <= 11 {
                i
            } else {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 20) & TableSet::full(n).bits()
            };
            let set = TableSet(bits);
            assert_eq!(
                index.internal_selectivity(set).to_bits(),
                query.internal_selectivity(set).to_bits(),
                "{set} of {n} tables"
            );
        }
    }

    /// Distinct selectivities, so a product taken in another order (or
    /// over other predicates) rounds differently.
    fn with_distinct_selectivities(mut query: Query) -> Query {
        for (number, p) in query.predicates.iter_mut().enumerate() {
            p.selectivity = 1.0 / (3.0 + number as f64 * 1.7);
        }
        query
    }

    #[test]
    fn bitset_selectivity_equals_the_full_walk_on_every_shape() {
        for graph in JoinGraph::ALL {
            for n in [1, 2, 5, 9] {
                assert_selectivity_matches_the_full_walk(&with_distinct_selectivities(
                    graph_query(n, graph),
                ));
            }
        }
        // 136 predicates: three words.
        let clique = with_distinct_selectivities(graph_query(17, JoinGraph::Clique));
        assert_eq!(clique.predicates.len(), 136);
        assert_selectivity_matches_the_full_walk(&clique);
    }

    #[test]
    fn bitset_selectivity_equals_the_full_walk_on_a_hand_built_query() {
        // Through the public fields: a duplicate predicate (both count), a
        // self-loop (inside any set holding its table), an endpoint beyond
        // the tables (inside no set), and more than 128 predicates.
        let mut edges = vec![(0, 1), (1, 0), (0, 1), (2, 2), (3, 40), (40, 41), (4, 3)];
        while edges.len() <= 130 {
            let k = edges.len();
            edges.push((k % 6, (k * 5 + 1) % 6));
        }
        let query = with_distinct_selectivities(edge_query(6, &edges));
        assert_selectivity_matches_the_full_walk(&query);
        let index = PredicateIndex::new(&query);
        let sel = |number: usize| query.predicates[number].selectivity;
        assert_eq!(
            index.internal_selectivity(TableSet::singleton(2)),
            edges
                .iter()
                .enumerate()
                .filter(|(_, &e)| e == (2, 2))
                .fold(1.0, |product, (number, _)| product * sel(number))
        );
        assert_eq!(index.internal_selectivity(TableSet::empty()), 1.0);
        assert_eq!(index.internal_selectivity(TableSet::singleton(3)), 1.0);
        assert!(PredicateIndex::new(&edge_query(4, &[]))
            .internal_selectivity(TableSet::full(4))
            .eq(&1.0));
    }

    #[test]
    fn predicates_that_cannot_cross_are_left_out() {
        // A query built through the public fields may carry an endpoint
        // beyond its tables, or a self-loop: neither ever crosses a split.
        let q = edge_query(3, &[(0, 40), (1, 1), (63, 2), (1, 2)]);
        let index = PredicateIndex::new(&q);
        let set = |ts: &[usize]| TableSet::from_tables(ts.iter().copied());
        assert_eq!(index.sort_merge_attributes(set(&[0]), set(&[1, 2])), None);
        assert_eq!(
            index.sort_merge_attributes(set(&[0, 1]), set(&[2])),
            Some((1, 2))
        );
        assert_eq!(index.interesting_orders(set(&[1])), set(&[1]));
        assert_eq!(index.interesting_orders(set(&[0])), set(&[]));
    }
}
