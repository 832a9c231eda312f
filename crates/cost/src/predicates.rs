//! The per-query predicate index: which predicates lie inside a table set
//! (the selectivity product of its cardinality estimate), which predicate a
//! sort-merge join sorts on, and — derived from the same lookup — which
//! sort orders a join result can still put to use.
//!
//! Everything is read off predicate bitsets: the predicates touching a
//! table set (`touching`, one prefix-table lookup plus the tables above
//! it), those incident to a table, and `trailing_zeros` for the
//! lowest-numbered one. The two order rules are defined here, from the same
//! lookup — the lowest-numbered predicate in `incident[u] & touching(S)`,
//! between a table set `S` and a table `u` outside it — so the pruning rule
//! cannot drift from the sort-merge rule it depends on:
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

/// Bits of a set that a per-query prefix table covers: the low
/// `PREFIX_BITS` tables (or predicates) of a query, at most 2^10 entries
/// per table whatever the query's size. Bits above are folded in one at a
/// time.
pub(crate) const PREFIX_BITS: usize = 10;

/// The exact left fold of `op` over every subset of the first
/// [`PREFIX_BITS`] elements of `xs`, indexed by the subset's bits:
/// `t[0] = empty` and `t[m] = op(t[m without its highest bit], xs[highest])`.
/// An entry is the fold in ascending element order, operation for
/// operation, so it has the bits of folding the subset from scratch.
pub(crate) fn prefix_fold<T: Copy>(
    empty: T,
    xs: impl IntoIterator<Item = T>,
    op: impl Fn(T, T) -> T,
) -> Vec<T> {
    let xs = xs.into_iter().take(PREFIX_BITS);
    let mut table = Vec::with_capacity(1 << xs.size_hint().0);
    table.push(empty);
    for x in xs {
        let len = table.len();
        table.extend_from_within(..);
        for t in &mut table[len..] {
            *t = op(*t, x);
        }
    }
    table
}

/// Bitwise unions of per-table rows of `words` words over table sets: one
/// prefix table per chunk of [`PREFIX_BITS`] tables, built as
/// [`prefix_fold`] builds one, so that a set's union is one lookup per
/// chunk it reaches — a union is exact in any grouping, unlike the
/// estimator's floating-point folds.
#[derive(Clone, Debug)]
struct SetUnions {
    words: usize,
    /// Word `w` of chunk `c`'s union over its tables `m` is
    /// `unions[((c << PREFIX_BITS) + m) * words + w]`: every chunk but the
    /// last is full.
    unions: Vec<u64>,
}

impl SetUnions {
    /// The unions of `rows`, table `t`'s row being
    /// `rows[t * words..][..words]`.
    fn new(rows: &[u64], words: usize) -> Self {
        // No words, no rows: `max` only keeps `chunks` from a zero size.
        let chunks = || rows.chunks(PREFIX_BITS * words.max(1));
        let capacity = chunks().map(|c| (1 << (c.len() / words)) * words);
        let mut unions = Vec::with_capacity(capacity.sum());
        for chunk in chunks() {
            let base = unions.len();
            unions.resize(base + words, 0);
            for row in chunk.chunks(words) {
                let len = unions.len();
                unions.extend_from_within(base..);
                for (union, word) in unions[len..].iter_mut().zip(row.iter().cycle()) {
                    *union |= word;
                }
            }
        }
        SetUnions { words, unions }
    }

    /// Word `word` of the union over `set`, a subset of the tables.
    #[inline]
    fn union(&self, set: u64, word: usize) -> u64 {
        const CHUNK: u64 = (1 << PREFIX_BITS) - 1;
        let (mut rest, mut chunk, mut union) = (set, 0, 0);
        while rest != 0 {
            union |= self.unions[(chunk + (rest & CHUNK) as usize) * self.words + word];
            rest >>= PREFIX_BITS;
            chunk += 1 << PREFIX_BITS;
        }
        union
    }
}

/// Per table, the predicates that touch it, as a bitset over predicate
/// numbers, and per predicate its endpoints and selectivity; plus
/// per-query prefix tables over the low predicate bits and over chunks of
/// tables (`PREFIX_BITS`). Built once per query: the selectivity table
/// has at most 2^10 entries, and each union table has 2^10 rows of one
/// word (neighbours) or one word per 64 predicates (touching) for every
/// ten tables, so those grow with the table and predicate counts.
///
/// A predicate with an endpoint outside the query's tables lies inside no
/// table set and touches none: it is left out of the bitsets. A self-loop
/// (both endpoints on one table) lies inside every set holding its table
/// but never crosses a split, since the two operands of a split are
/// disjoint.
#[derive(Clone, Debug)]
pub struct PredicateIndex {
    /// The query's tables, as set bits.
    all: u64,
    /// Words per predicate bitset: a 17-table clique already has 136
    /// predicates.
    words: usize,
    /// Every predicate's selectivity, by predicate number.
    selectivity: Vec<f64>,
    /// The selectivity products over the low predicate numbers, by their
    /// bits ([`prefix_fold`]).
    selectivity_low: Vec<f64>,
    /// Every predicate's endpoints, by predicate number (read only for one
    /// with both among the query's tables).
    ends: Vec<[u8; 2]>,
    /// The predicates with both endpoints among the query's tables.
    within_query: Vec<u64>,
    /// `incident[u * words..][..words]`: the predicates with an endpoint at
    /// table `u`.
    incident: Vec<u64>,
    /// The predicates touching a set: the union of `incident`.
    touching: SetUnions,
    /// The tables sharing a predicate with some table of a set: the union
    /// of each table's neighbours.
    adjacent: SetUnions,
}

impl PredicateIndex {
    /// Indexes the predicates of `query`.
    pub fn new(query: &Query) -> Self {
        let n = query.num_tables();
        let words = query.predicates.len().div_ceil(64);
        let mut within_query = vec![0u64; words];
        let mut incident = vec![0u64; n * words];
        let mut neighbours = vec![0u64; n];
        let mut ends = vec![[0u8; 2]; query.predicates.len()];
        for (number, p) in query.predicates.iter().enumerate() {
            if p.left < n && p.right < n {
                let (word, bit) = (number / 64, 1u64 << (number % 64));
                within_query[word] |= bit;
                incident[p.left * words + word] |= bit;
                incident[p.right * words + word] |= bit;
                neighbours[p.left] |= 1 << p.right;
                neighbours[p.right] |= 1 << p.left;
                // A table index below a table count no `TableSet` exceeds.
                ends[number] = [p.left as u8, p.right as u8];
            }
        }
        let selectivity: Vec<f64> = query.predicates.iter().map(|p| p.selectivity).collect();
        PredicateIndex {
            all: TableSet::full(n).bits(),
            words,
            selectivity_low: prefix_fold(1.0, selectivity.iter().copied(), |sel, s| sel * s),
            selectivity,
            ends,
            within_query,
            touching: SetUnions::new(&incident, words),
            adjacent: SetUnions::new(&neighbours, 1),
            incident,
        }
    }

    /// Word `word` of the predicates touching the tables `set` (a subset
    /// of the query's tables).
    #[inline]
    fn touching(&self, set: u64, word: usize) -> u64 {
        self.touching.union(set, word)
    }

    /// The endpoint of predicate `number` that is not table `u`, one of
    /// its endpoints.
    #[inline]
    fn other_end(&self, number: usize, u: usize) -> u8 {
        match self.ends[number] {
            [a, b] if a as usize == u => b,
            [a, _] => a,
        }
    }

    /// Combined selectivity of the predicates with both endpoints inside
    /// `set`: bit for bit what [`Query::internal_selectivity`] returns.
    /// Those inside are the query's predicates that no outside table
    /// touches, and they are multiplied up in predicate-number order, as
    /// the full walk does — the order is part of the result bits: the low
    /// predicate numbers' product from the prefix table, then the others
    /// one at a time.
    pub fn internal_selectivity(&self, set: TableSet) -> f64 {
        let outside = self.all & !set.bits();
        let low_predicates = (self.selectivity_low.len() - 1) as u64;
        let mut sel = 1.0;
        for word in 0..self.words {
            let mut inside = self.within_query[word] & !self.touching(outside, word);
            if word == 0 {
                sel = self.selectivity_low[(inside & low_predicates) as usize];
                inside &= !low_predicates;
            }
            while inside != 0 {
                sel *= self.selectivity[word * 64 + inside.trailing_zeros() as usize];
                inside &= inside - 1;
            }
        }
        sel
    }

    /// The join attributes a sort-merge join between `left` and `right`
    /// (disjoint) sorts on: the `left` and `right` endpoints of the
    /// lowest-numbered predicate crossing the two sets, or `None` for a
    /// cross product. The crossing predicates are those touching both.
    #[inline]
    pub fn sort_merge_attributes(&self, left: TableSet, right: TableSet) -> Option<(u8, u8)> {
        let (left, right) = (left.bits() & self.all, right.bits() & self.all);
        for word in 0..self.words {
            let crossing = self.touching(left, word) & self.touching(right, word);
            if crossing != 0 {
                let [a, b] = self.ends[word * 64 + crossing.trailing_zeros() as usize];
                return Some(if left >> a & 1 == 1 { (a, b) } else { (b, a) });
            }
        }
        None
    }

    /// The tables of `set` whose sort order a later sort-merge join can
    /// still ask for (the liveness rule of the module docs): the `set`
    /// endpoints of the lowest-numbered predicate to each outside table
    /// `u`, the lowest of `incident[u] & touching(set)`. Empty for the
    /// full table set.
    pub fn interesting_orders(&self, set: TableSet) -> TableSet {
        let set = set.bits() & self.all;
        // Outside tables whose lowest predicate into `set` is still to be
        // found, in a higher word.
        let mut pending = self.adjacent.union(set, 0) & !set;
        let mut live = TableSet::empty();
        for word in 0..self.words {
            if pending == 0 {
                break;
            }
            let touching = self.touching(set, word);
            let mut outside = pending;
            while outside != 0 {
                let u = outside.trailing_zeros() as usize;
                outside &= outside - 1;
                let between = self.incident[u * self.words + word] & touching;
                if between != 0 {
                    let number = word * 64 + between.trailing_zeros() as usize;
                    live = live.insert(self.other_end(number, u) as usize);
                    pending &= !(1 << u);
                }
            }
        }
        live
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_macros)]
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
