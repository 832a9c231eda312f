//! `SplitCosts` ≡ the per-candidate formula it replaced, checked bitwise.
//!
//! `reference_apply` is a verbatim copy of `JoinOp::apply` as it stood
//! before the per-split hoist, when every (left plan × right plan ×
//! operator) evaluation recomputed cardinalities, widths, the sort-merge
//! attributes and the sort costs from scratch. It is deliberately
//! self-contained (own `sort_merge_attributes`, own `sort_cost`) so that
//! a slip in the shipped formulas cannot move the oracle with it.

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mpq_cost::operators::JoinApplication;
use mpq_cost::{CardinalityEstimator, CostVector, JoinOp, Order, SplitCosts, JOIN_OPS};
use mpq_model::{JoinGraph, Query, TableSet, WorkloadConfig, WorkloadGenerator};

fn reference_apply(
    op: JoinOp,
    query: &Query,
    est: &mut CardinalityEstimator,
    left: TableSet,
    right: TableSet,
    left_order: Order,
    right_order: Order,
) -> Option<JoinApplication> {
    let lc = est.cardinality(left);
    let rc = est.cardinality(right);
    match op {
        JoinOp::NestedLoop => {
            let time = lc * rc;
            let buffer = est.tuple_bytes(right);
            Some(JoinApplication {
                cost: CostVector::new(time, buffer),
                output_order: left_order,
            })
        }
        JoinOp::Hash => {
            let time = 2.0 * rc + lc;
            let buffer = rc * est.tuple_bytes(right);
            Some(JoinApplication {
                cost: CostVector::new(time, buffer),
                output_order: left_order,
            })
        }
        JoinOp::SortMerge => {
            let (la, ra) = reference_sort_merge_attributes(query, left, right)?;
            let want_left = Order::OnAttribute(la);
            let want_right = Order::OnAttribute(ra);
            let mut time = lc + rc;
            let mut buffer: f64 = 0.0;
            if left_order != want_left {
                time += reference_sort_cost(lc);
                buffer = buffer.max(lc * est.tuple_bytes(left));
            }
            if right_order != want_right {
                time += reference_sort_cost(rc);
                buffer = buffer.max(rc * est.tuple_bytes(right));
            }
            Some(JoinApplication {
                cost: CostVector::new(time, buffer),
                output_order: want_left,
            })
        }
    }
}

fn reference_sort_merge_attributes(
    query: &Query,
    left: TableSet,
    right: TableSet,
) -> Option<(u8, u8)> {
    for p in &query.predicates {
        if left.contains(p.left) && right.contains(p.right) {
            return Some((p.left as u8, p.right as u8));
        }
        if left.contains(p.right) && right.contains(p.left) {
            return Some((p.right as u8, p.left as u8));
        }
    }
    None
}

fn reference_sort_cost(card: f64) -> f64 {
    card * card.max(2.0).log2()
}

/// Deterministic generator; the cost crate has no randomness dependency.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// A random non-empty disjoint pair over `n` tables: each table goes left,
/// right or nowhere.
fn random_split(rng: &mut Lcg, n: usize) -> (TableSet, TableSet) {
    loop {
        let (mut left, mut right) = (TableSet::empty(), TableSet::empty());
        for t in 0..n {
            match rng.next() % 3 {
                0 => left = left.insert(t),
                1 => right = right.insert(t),
                _ => {}
            }
        }
        if !left.is_empty() && !right.is_empty() {
            return (left, right);
        }
    }
}

#[test]
fn split_costs_match_the_per_candidate_formula_bitwise() {
    let mut rng = Lcg(0x5EED);
    let (mut applicable, mut cross_products) = (0u32, 0u32);
    for (g, graph) in JoinGraph::ALL.into_iter().enumerate() {
        for seed in 0..6u64 {
            let n = 4 + (seed as usize + g) % 6;
            let q = WorkloadGenerator::new(WorkloadConfig::with_graph(n, graph), 977 * seed + 13)
                .next_query();
            let mut est = CardinalityEstimator::new(&q);
            let mut ref_est = CardinalityEstimator::new(&q);
            for _ in 0..40 {
                let (left, right) = random_split(&mut rng, n);
                let split = SplitCosts::new(&mut est, left, right);
                // The orders that matter: unsorted, the wanted attribute
                // (when the split has one), and some other attribute.
                let (want_l, want_r) = match reference_sort_merge_attributes(&q, left, right) {
                    Some((la, ra)) => (Order::OnAttribute(la), Order::OnAttribute(ra)),
                    None => (Order::OnAttribute(0), Order::OnAttribute(1)),
                };
                let other = Order::OnAttribute(n as u8);
                for lo in [Order::None, want_l, other] {
                    for ro in [Order::None, want_r, other] {
                        for op in JOIN_OPS {
                            let want = reference_apply(op, &q, &mut ref_est, left, right, lo, ro);
                            let got = split.apply(op, lo, ro);
                            let one_shot = op.apply(&mut est, left, right, lo, ro);
                            let ctx = format!("{graph:?} seed {seed} {left:?}|{right:?} {op:?}");
                            // The time-only accessor is the same half of it.
                            assert_eq!(
                                split.time(op, lo, ro).map(|(t, o)| (t.to_bits(), o)),
                                want.map(|w| (w.cost.time.to_bits(), w.output_order)),
                                "{ctx}"
                            );
                            for got in [got, one_shot] {
                                match (want, got) {
                                    (None, None) => cross_products += 1,
                                    (Some(w), Some(g)) => {
                                        applicable += 1;
                                        assert_eq!(w.cost.time.to_bits(), g.cost.time.to_bits());
                                        assert_eq!(
                                            w.cost.buffer.to_bits(),
                                            g.cost.buffer.to_bits(),
                                            "{ctx}"
                                        );
                                        assert_eq!(w.output_order, g.output_order, "{ctx}");
                                    }
                                    _ => panic!("{ctx}: applicability differs"),
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(applicable > 10_000, "formula paths exercised");
    assert!(cross_products > 1_000, "SortMerge -> None exercised");
}
