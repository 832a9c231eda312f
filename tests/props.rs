//! Property-based tests (proptest) over the core invariants: partition
//! coverage and disjoint reduction, dense-index bijectivity, codec
//! roundtrips, optimizer agreement on random queries, and pruning-set
//! invariants.

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use pqopt::cost::{CostVector, Objective, Order, ScanOp};
use pqopt::dp::{exhaustive_linear_best_time, optimize_partition_id, optimize_serial};
use pqopt::model::{
    Catalog, JoinGraph, Predicate, Query, TableSet, TableStats, WorkloadConfig, WorkloadGenerator,
};
use pqopt::partition::{partition_constraints, AdmissibleSets, PlanSpace};
use pqopt::plan::{PlanEntry, PruningPolicy};
use proptest::prelude::*;

fn arb_space() -> impl Strategy<Value = PlanSpace> {
    prop_oneof![Just(PlanSpace::Linear), Just(PlanSpace::Bushy)]
}

fn arb_query(max_tables: usize) -> impl Strategy<Value = Query> {
    (1..=max_tables, any::<u64>(), 0..4usize).prop_map(|(n, seed, g)| {
        let graph = JoinGraph::ALL[g];
        WorkloadGenerator::new(WorkloadConfig::with_graph(n, graph), seed).next_query()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every subset of the query tables is admissible in at least one
    /// partition (completeness of the plan-space partitioning).
    #[test]
    fn partitions_cover_power_set(
        n in 2usize..=10,
        space in arb_space(),
        l_raw in 0u32..=5,
    ) {
        let max_l = space.max_constraints(n) as u32;
        let l = l_raw.min(max_l);
        let m = 1u64 << l;
        let parts: Vec<AdmissibleSets> = (0..m)
            .map(|id| AdmissibleSets::new(&partition_constraints(n, space, id, m)))
            .collect();
        for bits in 0u64..(1u64 << n) {
            let set = TableSet(bits);
            prop_assert!(
                parts.iter().any(|a| a.is_admissible(set)),
                "set {set} not admissible anywhere (n={n}, {space:?}, m={m})"
            );
        }
        // Partition sizes are equal (skew-free parallelization).
        let sizes: Vec<usize> = parts.iter().map(|a| a.len()).collect();
        prop_assert!(sizes.windows(2).all(|w| w[0] == w[1]), "unequal sizes {sizes:?}");
    }

    /// The dense mixed-radix index is a bijection between admissible sets
    /// and 0..len, monotone with respect to set inclusion.
    #[test]
    fn dense_index_is_monotone_bijection(
        n in 2usize..=9,
        space in arb_space(),
        id_raw in any::<u64>(),
        l_raw in 0u32..=4,
    ) {
        let l = l_raw.min(space.max_constraints(n) as u32);
        let m = 1u64 << l;
        let id = id_raw % m;
        let adm = AdmissibleSets::new(&partition_constraints(n, space, id, m));
        let mut seen = std::collections::HashSet::new();
        for i in 0..adm.len() {
            let s = adm.set_at(i);
            prop_assert_eq!(adm.index_of(s), Some(i));
            prop_assert!(seen.insert(s.bits()));
        }
        // Monotone: subsets come before supersets.
        for i in 0..adm.len() {
            let si = adm.set_at(i);
            for j in (i + 1)..adm.len() {
                let sj = adm.set_at(j);
                prop_assert!(!sj.is_subset_of(si) || sj == si,
                    "superset order violated: {} at {} vs {} at {}", si, i, sj, j);
            }
        }
    }

    /// Any single partition's optimum is an upper bound on the global
    /// optimum, and the best over all partitions equals the serial result.
    #[test]
    fn partition_optima_bound_and_cover(query in arb_query(7)) {
        let n = query.num_tables();
        let space = PlanSpace::Linear;
        let serial = optimize_serial(&query, space, Objective::Single);
        let serial_cost = serial.plans[0].cost().time;
        let l = space.max_constraints(n).min(2) as u32;
        let m = 1u64 << l;
        let mut best = f64::INFINITY;
        for id in 0..m {
            let out = optimize_partition_id(&query, space, Objective::Single, id, m);
            let c = out.plans[0].cost().time;
            prop_assert!(c >= serial_cost);
            best = best.min(c);
        }
        prop_assert_eq!(best.to_bits(), serial_cost.to_bits());
    }

    /// The DP agrees with brute-force enumeration on small random queries.
    #[test]
    fn dp_matches_brute_force(query in arb_query(5)) {
        let dp = optimize_serial(&query, PlanSpace::Linear, Objective::Single);
        let brute = exhaustive_linear_best_time(&query);
        let t = dp.plans[0].cost().time;
        prop_assert_eq!(t.to_bits(), brute.to_bits(), "{} vs {}", t, brute);
    }

    /// Codec roundtrips: random queries survive encode/decode bit-exactly.
    #[test]
    fn codec_query_roundtrip(query in arb_query(16)) {
        use pqopt::cluster::Wire;
        let bytes = query.to_bytes();
        let back = Query::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, query);
    }

    /// Codec roundtrips for cost vectors with arbitrary finite floats.
    #[test]
    fn codec_cost_roundtrip(time in prop::num::f64::NORMAL, buffer in prop::num::f64::NORMAL) {
        use pqopt::cluster::Wire;
        let v = CostVector::new(time, buffer);
        let back = CostVector::from_bytes(&v.to_bytes()).unwrap();
        prop_assert_eq!(back, v);
    }

    /// Pruned entry sets never contain an entry made redundant by another
    /// (the invariant the DP relies on for memo-size bounds).
    #[test]
    fn pruning_set_invariant(
        costs in prop::collection::vec((1.0..1e6f64, 1.0..1e6f64, 0u8..3), 1..40),
        alpha in 1.0..4.0f64,
        multi in any::<bool>(),
    ) {
        let objective = if multi { Objective::Multi { alpha } } else { Objective::Single };
        let policy = PruningPolicy::new(objective, 8);
        let mut slot: Vec<PlanEntry> = Vec::new();
        for (t, b, o) in costs {
            let entry = PlanEntry::scan(0, ScanOp::Full, CostVector::new(t, b));
            let entry = PlanEntry { order: Order::from_code(o), ..entry };
            policy.try_insert(&mut slot, entry);
        }
        // No kept entry exactly dominates another with a covering order.
        for (i, a) in slot.iter().enumerate() {
            for (j, b) in slot.iter().enumerate() {
                if i == j { continue; }
                let covers = b.order == Order::None || a.order == b.order;
                if !covers { continue; }
                let strictly = match objective {
                    Objective::Single => a.cost.time < b.cost.time,
                    Objective::Multi { .. } => a.cost.strictly_dominates(&b.cost),
                };
                prop_assert!(!strictly,
                    "kept entry {:?} strictly dominated by {:?}", b.cost, a.cost);
            }
        }
    }

    /// The lemma the interesting-order pruning rests on, over arbitrary
    /// predicate lists (duplicates, self-loops, any numbering): an order
    /// that is not live for `S` is not live for any superset, and only a
    /// table of `S` with a neighbour outside `S` is ever live.
    #[test]
    fn dead_orders_stay_dead_in_supersets(
        n in 2usize..=12,
        edges in prop::collection::vec((0usize..12, 0usize..12), 0..30),
        small in any::<u64>(),
        extra in any::<u64>(),
    ) {
        let predicates: Vec<Predicate> = edges
            .iter()
            .map(|&(a, b)| Predicate { left: a % n, right: b % n, selectivity: 0.5 })
            .collect();
        let catalog = Catalog::from_stats(vec![TableStats::with_cardinality(10.0); n]);
        let q = Query { catalog, predicates, graph: JoinGraph::Chain };
        let index = pqopt::cost::PredicateIndex::new(&q);
        let all = TableSet::full(n);
        let s = TableSet(small).intersect(all);
        let superset = s.union(TableSet(extra).intersect(all));
        let live = index.interesting_orders(s);
        prop_assert!(
            index.interesting_orders(superset).intersect(s).is_subset_of(live),
            "an order dead for {s} is live for {superset}"
        );
        let outside = all.difference(s);
        let has_outside_neighbour = TableSet::from_tables(s.iter().filter(|&t| {
            q.predicates.iter().any(|p| {
                (p.left == t && outside.contains(p.right))
                    || (p.right == t && outside.contains(p.left))
            })
        }));
        prop_assert!(live.is_subset_of(has_outside_neighbour), "live {live} for {s}");
    }

    /// Workload generation is a pure function of (config, seed).
    #[test]
    fn workload_deterministic(n in 1usize..=20, seed in any::<u64>()) {
        let cfg = WorkloadConfig::paper_default(n);
        let a = WorkloadGenerator::new(cfg.clone(), seed).batch(3);
        let b = WorkloadGenerator::new(cfg, seed).batch(3);
        prop_assert_eq!(a, b);
    }

    /// Cardinality estimates are plan-independent and multiplicative
    /// under disjoint union with unit selectivity.
    #[test]
    fn cardinality_consistency(
        cards in prop::collection::vec(1.0..1e5f64, 2..8),
        sel in 0.0001..1.0f64,
    ) {
        let n = cards.len();
        let catalog = Catalog::from_stats(
            cards.iter().map(|&c| TableStats::with_cardinality(c)).collect(),
        );
        let predicates = (1..n)
            .map(|i| Predicate { left: i - 1, right: i, selectivity: sel })
            .collect();
        let q = Query { catalog, predicates, graph: JoinGraph::Chain };
        let est = pqopt::cost::CardinalityEstimator::new(&q);
        let full = TableSet::full(n);
        let direct = est.cardinality(full);
        // Product formula computed independently.
        let expected = cards.iter().product::<f64>() * sel.powi(n as i32 - 1);
        prop_assert!((direct - expected).abs() <= 1e-9 * expected.max(1e-9));
    }
}
