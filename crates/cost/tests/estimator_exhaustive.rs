//! The estimator's per-set answers ≡ the folds and walks they replaced,
//! bit for bit, on every subset of every query of the grid.
//!
//! `set_stats` starts from per-query prefix tables and folds the bits
//! above their cap in one at a time; interesting orders and sort-merge
//! attributes are read off predicate bitsets. The oracles here do neither:
//! statistics are the left folds over the set's tables in table order (and
//! [`Query::internal_selectivity`], the formula of record, for the
//! predicates), and the order rules walk `query.predicates` in number
//! order. Tier-1 covers all four shapes at 1–10 tables — every subset, and
//! every split of it into two operands — plus one query each with a
//! self-loop, a duplicated predicate, an endpoint beyond the tables, and
//! more than 64 predicates (a 12-table clique: two bitset words, tables
//! and predicates above the cap). The ignored deep grid runs the shapes at
//! up to 13 tables in release.

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_macros)]

use mpq_cost::CardinalityEstimator;
use mpq_model::{JoinGraph, Predicate, Query, TableSet, WorkloadConfig, WorkloadGenerator};

fn seeded(n: usize, graph: JoinGraph, seed: u64) -> Query {
    WorkloadGenerator::new(WorkloadConfig::with_graph(n, graph), seed).next_query()
}

/// `set_stats` as three from-scratch folds, as bits.
fn naive_stats(query: &Query, set: TableSet) -> [u64; 3] {
    let mut cardinality = 1.0;
    for t in set.iter() {
        cardinality *= query.catalog.stats(t).cardinality;
    }
    let cardinality = cardinality * query.internal_selectivity(set);
    let tuple_bytes: f64 = set.iter().map(|t| query.catalog.stats(t).tuple_bytes).sum();
    let sort_cost = cardinality * cardinality.max(2.0).log2();
    [cardinality, tuple_bytes, sort_cost].map(f64::to_bits)
}

/// The lowest-numbered predicate that can cross a split between the table
/// sets `a` and `b`, as its endpoints `(in a, in b)`: the first in number
/// order with one endpoint in each (a self-loop has both on one table, and
/// an endpoint beyond the query's tables is in no set).
fn naive_lowest_between(query: &Query, a: TableSet, b: TableSet) -> Option<(u8, u8)> {
    let n = query.num_tables();
    query
        .predicates
        .iter()
        .filter(|p| p.left < n && p.right < n && p.left != p.right)
        .find_map(|p| {
            if a.contains(p.left) && b.contains(p.right) {
                Some((p.left as u8, p.right as u8))
            } else if a.contains(p.right) && b.contains(p.left) {
                Some((p.right as u8, p.left as u8))
            } else {
                None
            }
        })
}

/// The liveness rule as written: the `set` endpoint of the lowest-numbered
/// predicate between `set` and each outside table.
fn naive_interesting_orders(query: &Query, set: TableSet) -> TableSet {
    let outside = TableSet::full(query.num_tables()).difference(set);
    TableSet::from_tables(outside.iter().filter_map(|u| {
        naive_lowest_between(query, set, TableSet::singleton(u)).map(|(t, _)| t as usize)
    }))
}

/// Checks every subset of `query`'s tables, and the splits of each into a
/// left and a right operand: all of them with `all_splits`, else those
/// with one table on the right (a linear split) or with every other table
/// of the query on the right. Returns how many splits it checked.
fn check_query(query: &Query, all_splits: bool, ctx: &str) -> u64 {
    let est = CardinalityEstimator::new(query);
    let predicates = est.predicates();
    let n = query.num_tables();
    let full = TableSet::full(n);
    let mut splits = 0;
    for bits in 0..=full.bits() {
        let set = TableSet(bits);
        let stats = est.set_stats(set);
        assert_eq!(
            [stats.cardinality, stats.tuple_bytes, stats.sort_cost].map(f64::to_bits),
            naive_stats(query, set),
            "{ctx}: statistics of {set}"
        );
        assert_eq!(
            predicates.interesting_orders(set),
            naive_interesting_orders(query, set),
            "{ctx}: interesting orders of {set}"
        );
        let mut check_split = |left: TableSet, right: TableSet| {
            assert_eq!(
                predicates.sort_merge_attributes(left, right),
                naive_lowest_between(query, left, right),
                "{ctx}: sort-merge attributes of {left} ⋈ {right}"
            );
            splits += 1;
        };
        if all_splits {
            for left in set.proper_subsets() {
                check_split(left, set.difference(left));
            }
        } else if !set.is_empty() {
            for u in set.iter().filter(|_| set.len() > 1) {
                check_split(set.remove(u), TableSet::singleton(u));
            }
            if set != full {
                check_split(set, full.difference(set));
            }
        }
    }
    splits
}

/// The four shapes at every size up to `max_tables`, every split: each of
/// the `2^|S| − 2` of every set `S`, `3^n − 2^(n+1) + 1` in all.
fn check_shapes(max_tables: usize) {
    for (g, graph) in JoinGraph::ALL.into_iter().enumerate() {
        for n in 1..=max_tables {
            let query = seeded(n, graph, 0xE57 + 97 * n as u64 + g as u64);
            let splits = check_query(&query, true, &format!("{graph:?} {n}"));
            assert_eq!(splits, 3u64.pow(n as u32) + 1 - (2 << n), "{graph:?} {n}");
        }
    }
}

#[test]
fn estimator_matches_the_naive_walk_on_every_shape() {
    check_shapes(10);
}

/// Predicates a seeded query never has, one query each: a self-loop (inside
/// every set holding its table, crossing no split), a duplicate written
/// the other way round (both count; the lower number wins a sort-merge),
/// and an endpoint beyond the tables (inside no set, touching none). Each
/// goes in the middle of the numbering, so it is neither first nor last.
#[test]
fn estimator_matches_the_naive_walk_on_odd_predicates() {
    type Odd = fn(&Query) -> Predicate;
    let odd: [(&str, Odd); 3] = [
        ("self-loop", |_| Predicate {
            left: 3,
            right: 3,
            selectivity: 0.37,
        }),
        ("duplicate", |query| Predicate {
            left: query.predicates[1].right,
            right: query.predicates[1].left,
            selectivity: 0.61,
        }),
        ("endpoint beyond the tables", |_| Predicate {
            left: 2,
            right: 40,
            selectivity: 0.29,
        }),
    ];
    for (g, (what, predicate)) in odd.into_iter().enumerate() {
        let mut query = seeded(8, JoinGraph::ALL[g], 0x0DD + g as u64);
        let middle = query.predicates.len() / 2;
        query.predicates.insert(middle, predicate(&query));
        check_query(&query, true, what);
    }
}

/// 66 predicates: two bitset words, and tables and predicate numbers past
/// the prefix tables' cap.
#[test]
fn estimator_matches_the_naive_walk_past_one_word_and_the_cap() {
    let clique = seeded(12, JoinGraph::Clique, 0xC11);
    assert_eq!(clique.predicates.len(), 66);
    let splits = check_query(&clique, false, "12-table clique");
    assert!(splits > 20_000, "{splits} splits checked");
}

#[test]
#[ignore = "deep grid: run with --release -- --include-ignored"]
fn estimator_matches_the_naive_walk_deep() {
    check_shapes(13);
}
