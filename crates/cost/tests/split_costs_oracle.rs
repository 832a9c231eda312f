//! `SplitCosts` ≡ the per-candidate formula it replaced, checked bitwise;
//! and its floors (`SplitCosts::floor`) are lower bounds of that formula.
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

/// `SplitCosts::floor` bounds every operator cost of its class from below:
/// on random splits, for every operator and every pair of left and right
/// orders, `apply` is component-wise at least the floor of the class its
/// output order falls in — nested loop and hash join that of the left
/// order, sort-merge its own — and every component of a floor is some
/// operator's own, so no floor is looser than it need be.
#[test]
fn a_floor_bounds_every_operator_of_its_class() {
    let mut rng = Lcg(0xF100);
    let mut checked = 0u32;
    for (g, graph) in JoinGraph::ALL.into_iter().enumerate() {
        for seed in 0..6u64 {
            let n = 4 + (seed as usize + g) % 6;
            let q = WorkloadGenerator::new(WorkloadConfig::with_graph(n, graph), 331 * seed + 5)
                .next_query();
            let mut est = CardinalityEstimator::new(&q);
            for _ in 0..40 {
                let (left, right) = random_split(&mut rng, n);
                let split = SplitCosts::new(&mut est, left, right);
                let (want_l, want_r) = match reference_sort_merge_attributes(&q, left, right) {
                    Some((la, ra)) => (Order::OnAttribute(la), Order::OnAttribute(ra)),
                    None => (Order::OnAttribute(0), Order::OnAttribute(1)),
                };
                let other = Order::OnAttribute(n as u8);
                for lo in [Order::None, want_l, other] {
                    let floor = split.floor(lo).expect("finite statistics have a floor");
                    let ctx = format!("{graph:?} seed {seed} {left:?}|{right:?} {lo:?}");
                    assert_eq!(floor.outer_order.output_order, lo, "{ctx}");
                    let mut attained = [[false; 2]; 2];
                    for ro in [Order::None, want_r, other] {
                        for op in JOIN_OPS {
                            let Some(app) = split.apply(op, lo, ro) else {
                                assert!(floor.sort_merge.is_none(), "{ctx}");
                                continue;
                            };
                            let (class, c) = match op {
                                JoinOp::NestedLoop | JoinOp::Hash => (floor.outer_order, 0),
                                JoinOp::SortMerge => (floor.sort_merge.expect("applies"), 1),
                            };
                            assert_eq!(app.output_order, class.output_order, "{ctx} {op:?}");
                            assert!(app.cost.time >= class.cost.time, "{ctx} {op:?} {ro:?}");
                            assert!(app.cost.buffer >= class.cost.buffer, "{ctx} {op:?} {ro:?}");
                            attained[c][0] |= app.cost.time == class.cost.time;
                            attained[c][1] |= app.cost.buffer == class.cost.buffer;
                            checked += 1;
                        }
                    }
                    assert!(attained[0] == [true; 2], "{ctx}: {attained:?}");
                    if floor.sort_merge.is_some() {
                        assert!(attained[1] == [true; 2], "{ctx}: {attained:?}");
                    }
                }
            }
        }
    }
    assert!(checked > 5_000, "{checked} operator costs checked");
}

/// A split whose costs read a non-finite statistic has no floor, whatever
/// the left order: the candidates it would bound could be NaN. Every
/// split reads both cardinalities and the right tuple width; a split with
/// a sort-merge predicate reads the sort costs and the left tuple width
/// too. The finite values are small, so finite statistics never overflow.
#[test]
fn non_finite_statistics_give_no_floor() {
    let q = WorkloadGenerator::new(WorkloadConfig::with_graph(4, JoinGraph::Chain), 3).next_query();
    let est = CardinalityEstimator::new(&q);
    let grid = [0.0, 1.0, 3.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    let mut rng = Lcg(0xF1);
    let (mut none, mut some) = (0u32, 0u32);
    // Tables 0 and 1 share a predicate; 0 and 2 do not.
    for (left, right) in
        [(0, 1), (0, 2)].map(|(l, r)| (TableSet::singleton(l), TableSet::singleton(r)))
    {
        let sort_merge = reference_sort_merge_attributes(&q, left, right).is_some();
        for _ in 0..600 {
            let mut pick = || grid[(rng.next() % grid.len() as u64) as usize];
            let [l, r] = [(); 2].map(|_| mpq_cost::SetStats {
                cardinality: pick(),
                tuple_bytes: pick(),
                sort_cost: pick(),
            });
            let split = SplitCosts::from_stats(est.predicates(), left, &l, right, &r);
            let mut read = vec![l.cardinality, r.cardinality, r.tuple_bytes];
            if sort_merge {
                read.extend([l.tuple_bytes, l.sort_cost, r.sort_cost]);
            }
            let non_finite = read.iter().any(|s| !s.is_finite());
            for lo in [Order::None, Order::OnAttribute(0), Order::OnAttribute(3)] {
                let floor = split.floor(lo);
                assert_eq!(floor.is_none(), non_finite, "{l:?} {r:?} {lo:?}: {floor:?}");
                if non_finite {
                    none += 1;
                } else {
                    some += 1;
                }
            }
        }
    }
    assert!(
        none > 1_000 && some > 100,
        "{none} without a floor, {some} with"
    );
}
