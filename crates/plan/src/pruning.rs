//! Pruning functions.
//!
//! The paper's key extension point (Section 4): "The algorithm presented
//! next can ... easily be transformed into an algorithm handling other query
//! optimization variants by essentially replacing the pruning function."
//! This module provides the two pruning functions used in the evaluation:
//!
//! * **Single-objective** — keep the cheapest plan per table set *and
//!   interesting order* (Selinger). An entry with an order is only pruned
//!   by an entry delivering the same order; an unordered entry is pruned by
//!   any entry that is at most as expensive. The policy takes the order
//!   labels as given: deciding that an order has stopped being interesting
//!   (relabelled `None` once no later join can use it) is the caller's
//!   job — the DP's candidate loop does it, from
//!   `mpq_cost::PredicateIndex::interesting_orders`.
//! * **Multi-objective α-approximate Pareto** (Trummer & Koch, SIGMOD 2014)
//!   — a new plan is *rejected* if an existing plan α-dominates it, and
//!   existing plans are *removed* only when exactly dominated. Rejecting
//!   with α but removing exactly keeps the invariant that every discarded
//!   cost vector is α-dominated by a kept one. To guarantee an end-to-end
//!   factor α after `L` join levels the per-insertion factor is
//!   `α^(1/L)`, as in the SIGMOD'14 approximation scheme.

use crate::entry::PlanEntry;
use crate::tree::Plan;
use mpq_cost::{CostVector, Objective, Order};

/// A pruning policy: decides which memo entries survive and which completed
/// plans the master keeps.
#[derive(Clone, Copy, Debug)]
pub struct PruningPolicy {
    objective: Objective,
    /// Approximation factor applied per insertion (1.0 for single-objective
    /// and for exact Pareto).
    insert_alpha: f64,
}

impl PruningPolicy {
    /// Builds the policy for `objective` on a query with `num_tables`
    /// tables. For [`Objective::Multi`] the per-insertion factor is
    /// `alpha^(1/(num_tables-1))` so that the accumulated factor over all
    /// join levels stays within `alpha`.
    #[expect(
        clippy::disallowed_macros,
        reason = "internal invariant, not input: Objective::decode (the wire) and \
                  SessionTable::admit (the API) both refuse such a factor typed before a \
                  policy is built, and letting it through would prune with a NaN factor \
                  silently"
    )]
    pub fn new(objective: Objective, num_tables: usize) -> Self {
        let insert_alpha = match objective {
            Objective::Single => 1.0,
            Objective::Multi { alpha } => {
                assert!(objective.is_valid(), "alpha must be a finite number >= 1");
                let levels = num_tables.saturating_sub(1).max(1) as f64;
                alpha.powf(1.0 / levels)
            }
        };
        PruningPolicy {
            objective,
            insert_alpha,
        }
    }

    /// The objective this policy optimizes for.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The per-insertion approximation factor (exposed for tests).
    pub fn insert_alpha(&self) -> f64 {
        self.insert_alpha
    }

    /// Whether `a` provides every benefit a plan of `cost` and `order`
    /// could provide: at least as good cost (under the objective's
    /// comparison) and an output order that satisfies whatever `order`
    /// could satisfy.
    fn rejects(&self, a: &PlanEntry, cost: &CostVector, order: Order) -> bool {
        if !order_covers(a.order, order) {
            return false;
        }
        match self.objective {
            Objective::Single => a.cost.time <= cost.time,
            Objective::Multi { .. } => a.cost.alpha_dominates(cost, self.insert_alpha),
        }
    }

    /// Whether `a` makes keeping `b` pointless (used for removals; always
    /// exact so the α-invariant cannot compound through removals).
    fn removes(&self, a: &PlanEntry, b: &PlanEntry) -> bool {
        if !order_covers(a.order, b.order) {
            return false;
        }
        match self.objective {
            Objective::Single => a.cost.time <= b.cost.time,
            Objective::Multi { .. } => a.cost.dominates(&b.cost),
        }
    }

    /// Implements the paper's `Prune(P, p)` for one memo slot: inserts
    /// `new` unless an existing entry makes it redundant, and drops
    /// existing entries the new one supersedes. Returns whether the entry
    /// was kept.
    pub fn try_insert(&self, entries: &mut Vec<PlanEntry>, new: PlanEntry) -> bool {
        self.try_insert_with(entries, 0, new.cost, new.order, || new)
    }

    /// Whether an entry of `slot` rejects a plan of `cost` and `order`:
    /// the test [`PruningPolicy::try_insert_with`] makes before it keeps
    /// one.
    #[inline]
    pub fn rejected(&self, slot: &[PlanEntry], cost: &CostVector, order: Order) -> bool {
        slot.iter().any(|e| self.rejects(e, cost, order))
    }

    /// [`PruningPolicy::try_insert`] restricted to the slot occupying
    /// `entries[start..]`, of an entry that does not exist yet. Entries
    /// below `start` are neither consulted nor touched: this is the
    /// insertion primitive of the arena memo, where the slot under
    /// construction is the tail of one shared entry array and everything
    /// before `start` belongs to already-finalized sets. Rejection is
    /// decided on `cost` and `order` alone, and `build` (which must return
    /// an entry of that cost and order) runs only for an entry that is
    /// kept. The DP's Pareto path offers every candidate it generates this
    /// way and builds the few that survive.
    #[inline]
    pub fn try_insert_with(
        &self,
        entries: &mut Vec<PlanEntry>,
        start: usize,
        cost: CostVector,
        order: Order,
        build: impl FnOnce() -> PlanEntry,
    ) -> bool {
        if self.rejected(&entries[start..], &cost, order) {
            return false;
        }
        self.insert_kept(entries, start, build());
        true
    }

    /// The second half of [`PruningPolicy::try_insert_with`]: `new` is
    /// kept; drops the entries of the slot it supersedes and appends it.
    /// Out of line, so that the DP's candidate loop, which has one call
    /// site per join operator, carries three rejection scans and not three
    /// compactions.
    #[inline(never)]
    fn insert_kept(&self, entries: &mut Vec<PlanEntry>, start: usize, new: PlanEntry) {
        // In-place compaction of the tail (order-preserving), i.e.
        // `retain` scoped to `entries[start..]`.
        let mut keep = start;
        for i in start..entries.len() {
            if !self.removes(&new, &entries[i]) {
                entries.swap(keep, i);
                keep += 1;
            }
        }
        entries.truncate(keep);
        entries.push(new);
    }

    /// Implements the paper's `FinalPrune`: merges completed plans at the
    /// master. For completed plans the tuple order "does not need to be
    /// taken into account anymore" (Section 4.2), so only costs matter:
    /// single-objective keeps the cheapest plan, multi-objective keeps the
    /// exact Pareto frontier over the candidates.
    pub fn final_prune(&self, plans: &mut Vec<Plan>) {
        match self.objective {
            Objective::Single => {
                if let Some(best) = plans
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.cost().time.total_cmp(&b.cost().time))
                    .map(|(i, _)| i)
                {
                    let keep = plans.swap_remove(best);
                    plans.clear();
                    plans.push(keep);
                }
            }
            Objective::Multi { .. } => {
                let costs: Vec<CostVector> = plans.iter().map(|p| p.cost()).collect();
                let mut keep = vec![true; plans.len()];
                for i in 0..plans.len() {
                    if !keep[i] {
                        continue;
                    }
                    for j in 0..plans.len() {
                        if i == j || !keep[j] {
                            continue;
                        }
                        // Drop j if i dominates it (ties broken by index to
                        // keep exactly one of equal-cost plans).
                        if costs[i].dominates(&costs[j])
                            && (costs[i].strictly_dominates(&costs[j]) || i < j)
                        {
                            keep[j] = false;
                        }
                    }
                }
                let mut idx = 0;
                plans.retain(|_| {
                    let k = keep[idx];
                    idx += 1;
                    k
                });
            }
        }
    }
}

/// Whether output order `a` satisfies every future operator that order `b`
/// would satisfy.
fn order_covers(a: Order, b: Order) -> bool {
    b == Order::None || a == b
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_macros)]
    use super::*;
    use crate::tree::PlanOp;
    use mpq_cost::ScanOp;

    fn entry(time: f64, buffer: f64, order: Order) -> PlanEntry {
        PlanEntry {
            cost: CostVector::new(time, buffer),
            order,
            node: scan_node(),
        }
    }

    fn scan_node() -> crate::entry::PlanNode {
        crate::entry::PlanNode::Scan {
            table: 0,
            op: ScanOp::Full,
        }
    }

    /// `try_insert_with` of an entry that already exists.
    fn insert_at(p: &PruningPolicy, slot: &mut Vec<PlanEntry>, start: usize, e: PlanEntry) -> bool {
        p.try_insert_with(slot, start, e.cost, e.order, || e)
    }

    fn plan(time: f64, buffer: f64) -> Plan {
        Plan {
            cost: CostVector::new(time, buffer),
            ops: vec![PlanOp::Scan {
                table: 0,
                op: ScanOp::Full,
            }],
        }
    }

    #[test]
    fn single_keeps_cheapest() {
        let p = PruningPolicy::new(Objective::Single, 4);
        let mut slot = Vec::new();
        assert!(p.try_insert(&mut slot, entry(10.0, 0.0, Order::None)));
        assert!(!p.try_insert(&mut slot, entry(20.0, 0.0, Order::None)));
        assert!(p.try_insert(&mut slot, entry(5.0, 0.0, Order::None)));
        assert_eq!(slot.len(), 1);
        assert_eq!(slot[0].cost.time, 5.0);
    }

    #[test]
    fn single_keeps_interesting_orders() {
        let p = PruningPolicy::new(Objective::Single, 4);
        let mut slot = Vec::new();
        assert!(p.try_insert(&mut slot, entry(10.0, 0.0, Order::None)));
        // More expensive but sorted: kept, because a later sort-merge join
        // may exploit the order.
        assert!(p.try_insert(&mut slot, entry(15.0, 0.0, Order::OnAttribute(2))));
        assert_eq!(slot.len(), 2);
        // A cheaper sorted plan replaces both (its order covers None too).
        assert!(p.try_insert(&mut slot, entry(8.0, 0.0, Order::OnAttribute(2))));
        assert_eq!(slot.len(), 1);
        assert_eq!(slot[0].cost.time, 8.0);
    }

    #[test]
    fn single_sorted_does_not_prune_other_order() {
        let p = PruningPolicy::new(Objective::Single, 4);
        let mut slot = Vec::new();
        assert!(p.try_insert(&mut slot, entry(10.0, 0.0, Order::OnAttribute(1))));
        assert!(p.try_insert(&mut slot, entry(12.0, 0.0, Order::OnAttribute(2))));
        assert_eq!(slot.len(), 2);
    }

    #[test]
    fn multi_keeps_incomparable() {
        let p = PruningPolicy::new(Objective::Multi { alpha: 1.0 }, 2);
        let mut slot = Vec::new();
        assert!(p.try_insert(&mut slot, entry(10.0, 100.0, Order::None)));
        assert!(p.try_insert(&mut slot, entry(100.0, 10.0, Order::None)));
        assert_eq!(slot.len(), 2);
        // Dominated in both metrics: rejected.
        assert!(!p.try_insert(&mut slot, entry(101.0, 11.0, Order::None)));
        // Dominates the first: replaces it.
        assert!(p.try_insert(&mut slot, entry(9.0, 99.0, Order::None)));
        assert_eq!(slot.len(), 2);
    }

    #[test]
    fn multi_alpha_rejects_near_duplicates() {
        // alpha = 4 over a 3-table query => per-insert factor 2.
        let p = PruningPolicy::new(Objective::Multi { alpha: 4.0 }, 3);
        assert!((p.insert_alpha() - 2.0).abs() < 1e-12);
        let mut slot = Vec::new();
        assert!(p.try_insert(&mut slot, entry(10.0, 10.0, Order::None)));
        // Within factor 2 in both metrics: rejected even though it is
        // strictly better in buffer.
        assert!(!p.try_insert(&mut slot, entry(11.0, 6.0, Order::None)));
        // Outside factor 2 in buffer: kept.
        assert!(p.try_insert(&mut slot, entry(11.0, 4.0, Order::None)));
        assert_eq!(slot.len(), 2);
    }

    #[test]
    fn multi_removal_is_exact() {
        let p = PruningPolicy::new(Objective::Multi { alpha: 4.0 }, 3);
        let mut slot = Vec::new();
        assert!(p.try_insert(&mut slot, entry(10.0, 10.0, Order::None)));
        // Not α-dominated (buffer 4 < 10/2): inserted. It α-dominates the
        // first entry but does not exactly dominate it, so both remain.
        assert!(p.try_insert(&mut slot, entry(11.0, 4.0, Order::None)));
        assert_eq!(slot.len(), 2);
        // Exactly dominates both: removes both.
        assert!(p.try_insert(&mut slot, entry(1.0, 1.0, Order::None)));
        assert_eq!(slot.len(), 1);
    }

    #[test]
    fn final_prune_single_keeps_one() {
        let p = PruningPolicy::new(Objective::Single, 4);
        let mut plans = vec![plan(30.0, 0.0), plan(10.0, 5.0), plan(20.0, 0.0)];
        p.final_prune(&mut plans);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].cost().time, 10.0);
    }

    #[test]
    fn final_prune_multi_keeps_frontier() {
        let p = PruningPolicy::new(Objective::Multi { alpha: 10.0 }, 4);
        let mut plans = vec![
            plan(10.0, 100.0),
            plan(100.0, 10.0),
            plan(50.0, 50.0),
            plan(200.0, 200.0), // dominated
            plan(10.0, 100.0),  // duplicate of the first
        ];
        p.final_prune(&mut plans);
        assert_eq!(plans.len(), 3);
        for i in 0..plans.len() {
            for j in 0..plans.len() {
                if i != j {
                    assert!(!plans[i].cost().strictly_dominates(&plans[j].cost()));
                }
            }
        }
    }

    #[test]
    fn single_objective_insert_alpha_is_one() {
        let p = PruningPolicy::new(Objective::Single, 20);
        assert_eq!(p.insert_alpha(), 1.0);
    }

    #[test]
    fn range_insert_ignores_the_frozen_prefix() {
        let p = PruningPolicy::new(Objective::Single, 4);
        // A frozen prefix entry cheaper than everything: it must neither
        // reject the newcomer nor be removed by it.
        let mut arena = vec![entry(1.0, 0.0, Order::None)];
        assert!(insert_at(&p, &mut arena, 1, entry(10.0, 0.0, Order::None)));
        assert!(insert_at(&p, &mut arena, 1, entry(5.0, 0.0, Order::None)));
        assert!(!insert_at(&p, &mut arena, 1, entry(7.0, 0.0, Order::None)));
        assert_eq!(arena.len(), 2);
        assert_eq!(arena[0].cost.time, 1.0, "prefix untouched");
        assert_eq!(arena[1].cost.time, 5.0);
    }

    #[test]
    fn range_insert_matches_whole_slot_semantics() {
        // Against an empty prefix, `try_insert_with(.., 0, ..)` and
        // `try_insert` are the same function; spot-check order handling.
        let p = PruningPolicy::new(Objective::Single, 4);
        let mut a = Vec::new();
        let mut b = Vec::new();
        let stream = [
            entry(10.0, 0.0, Order::None),
            entry(15.0, 0.0, Order::OnAttribute(2)),
            entry(8.0, 0.0, Order::OnAttribute(2)),
            entry(9.0, 0.0, Order::None),
        ];
        for e in stream {
            assert_eq!(p.try_insert(&mut a, e), insert_at(&p, &mut b, 0, e));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn range_removal_preserves_survivor_order() {
        let p = PruningPolicy::new(Objective::Multi { alpha: 1.0 }, 2);
        let mut slot = Vec::new();
        assert!(insert_at(&p, &mut slot, 0, entry(10.0, 100.0, Order::None)));
        assert!(insert_at(&p, &mut slot, 0, entry(100.0, 10.0, Order::None)));
        assert!(insert_at(&p, &mut slot, 0, entry(50.0, 50.0, Order::None)));
        // Dominates only the middle entry: the survivors keep their
        // relative order, the newcomer appends.
        assert!(insert_at(&p, &mut slot, 0, entry(90.0, 9.0, Order::None)));
        let times: Vec<f64> = slot.iter().map(|e| e.cost.time).collect();
        assert_eq!(times, vec![10.0, 50.0, 90.0]);
    }
}
