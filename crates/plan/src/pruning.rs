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
//!
//! [`PruningPolicy::try_insert`] is the scalar form of both rules, entry by
//! entry over a slot of [`PlanEntry`]s: the slot-at-a-time steps use it,
//! and it is the oracle the DP kernel is tested against. The kernel's
//! Pareto arm offers every candidate it generates to a [`KeyedSlot`]: the
//! same α-reject, exact-remove and order-cover rules over three dense
//! columns kept beside the entries — time, buffer and order code — so a
//! rejection scan reads 17 bytes per entry, not a 56-byte entry, and a
//! slot's entries, their order included, are those `try_insert` leaves.

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
    /// could satisfy. [`KeyedSlot::rejects`] is the multi-objective arm
    /// over columns.
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
    /// [`KeyedSlot`]'s compaction is the multi-objective arm over columns.
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
    /// existing entries the new one supersedes, keeping the survivors in
    /// their order and appending `new`. Returns whether the entry was kept.
    pub fn try_insert(&self, entries: &mut Vec<PlanEntry>, new: PlanEntry) -> bool {
        if entries
            .iter()
            .any(|e| self.rejects(e, &new.cost, new.order))
        {
            return false;
        }
        entries.retain(|e| !self.removes(&new, e));
        entries.push(new);
        true
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

/// The multi-objective slot under construction, keyed for its rejection
/// scan: the entries and, beside them in the same order, three dense
/// columns — each entry's time, buffer and order code
/// ([`Order::to_code`]). It prunes by the rule of
/// [`PruningPolicy::try_insert`] under [`Objective::Multi`], decided on the
/// columns alone: a plan is rejected by an entry whose order covers its own
/// and whose cost is at most α times the plan's in both metrics, and an
/// entry is removed by a kept plan whose order covers the entry's and whose
/// cost is at most the entry's (exactly). Every comparison is the one the
/// scalar rule makes, on the same f64 values, so offering a stream of
/// plans leaves the entries, in the same order, that inserting them leaves.
///
/// The DP kernel's Pareto arm builds each result set's slot in one, apart
/// from the memo arena its candidates borrow their operands from, copies
/// it in when the set is done and clears it for the next; it builds an
/// entry only for a candidate that is kept ([`KeyedSlot::offer`]).
#[derive(Debug)]
pub struct KeyedSlot {
    /// The per-insertion factor α of the rejection test.
    alpha: f64,
    entries: Vec<PlanEntry>,
    times: Vec<f64>,
    buffers: Vec<f64>,
    orders: Vec<u8>,
}

impl KeyedSlot {
    /// An empty slot of `policy`'s multi-objective rule, rejecting with
    /// its per-insertion factor ([`PruningPolicy::insert_alpha`]).
    pub fn new(policy: &PruningPolicy) -> Self {
        Self::with_entries(policy, [])
    }

    /// A slot of `policy`'s rule holding `entries` as they are, unpruned:
    /// a made-up starting slot for a test.
    pub fn with_entries(
        policy: &PruningPolicy,
        entries: impl IntoIterator<Item = PlanEntry>,
    ) -> Self {
        let mut slot = KeyedSlot {
            alpha: policy.insert_alpha,
            entries: Vec::new(),
            times: Vec::new(),
            buffers: Vec::new(),
            orders: Vec::new(),
        };
        for e in entries {
            slot.push(e.cost, e.order, e);
        }
        slot
    }

    /// The entries, in slot order.
    pub fn entries(&self) -> &[PlanEntry] {
        &self.entries
    }

    /// Whether the slot holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Empties the slot for the next set, keeping its buffers.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.times.clear();
        self.buffers.clear();
        self.orders.clear();
    }

    /// Whether an entry rejects a plan of `cost` and `order`. Four entries
    /// a step, their tests combined without short-circuit so that a step
    /// has one branch; the scan stops at the first step that holds a
    /// rejecter.
    #[inline]
    pub fn rejects(&self, cost: &CostVector, order: Order) -> bool {
        let (time, buffer) = (self.alpha * cost.time, self.alpha * cost.buffer);
        let code = order.to_code();
        let any_order = code == Order::None.to_code();
        let rejecter =
            |t: f64, b: f64, o: u8| (any_order | (o == code)) & (t <= time) & (b <= buffer);
        let mut times = self.times.chunks_exact(4);
        let mut buffers = self.buffers.chunks_exact(4);
        let mut orders = self.orders.chunks_exact(4);
        for ((t, b), o) in (&mut times).zip(&mut buffers).zip(&mut orders) {
            if rejecter(t[0], b[0], o[0])
                | rejecter(t[1], b[1], o[1])
                | rejecter(t[2], b[2], o[2])
                | rejecter(t[3], b[3], o[3])
            {
                return true;
            }
        }
        let tail = times.remainder().iter().zip(buffers.remainder());
        tail.zip(orders.remainder())
            .any(|((&t, &b), &o)| rejecter(t, b, o))
    }

    /// Offers a plan of `cost` and `order`: unless an entry rejects it,
    /// drops the entries it removes and appends the entry `build` returns
    /// (which must have that cost and order), which runs only then.
    /// Returns whether the plan was kept.
    #[inline]
    pub fn offer(
        &mut self,
        cost: CostVector,
        order: Order,
        build: impl FnOnce() -> PlanEntry,
    ) -> bool {
        if self.rejects(&cost, order) {
            return false;
        }
        self.insert_kept(cost, order, build());
        true
    }

    /// The second half of [`KeyedSlot::offer`]: the plan is kept. Out of
    /// line, so that the DP's candidate loop, which has one call site per
    /// join operator, carries three rejection scans and not three
    /// compactions. The compaction moves the entries and the three
    /// columns alike, in order.
    #[inline(never)]
    fn insert_kept(&mut self, cost: CostVector, order: Order, entry: PlanEntry) {
        let code = order.to_code();
        let unordered = Order::None.to_code();
        let mut keep = 0;
        for i in 0..self.entries.len() {
            let (t, b, o) = (self.times[i], self.buffers[i], self.orders[i]);
            let removed = ((o == unordered) | (o == code)) & (cost.time <= t) & (cost.buffer <= b);
            if !removed {
                self.entries[keep] = self.entries[i];
                self.times[keep] = t;
                self.buffers[keep] = b;
                self.orders[keep] = o;
                keep += 1;
            }
        }
        self.entries.truncate(keep);
        self.times.truncate(keep);
        self.buffers.truncate(keep);
        self.orders.truncate(keep);
        self.push(cost, order, entry);
    }

    fn push(&mut self, cost: CostVector, order: Order, entry: PlanEntry) {
        self.entries.push(entry);
        self.times.push(cost.time);
        self.buffers.push(cost.buffer);
        self.orders.push(order.to_code());
    }
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
    fn keyed_removal_preserves_survivor_order() {
        let p = PruningPolicy::new(Objective::Multi { alpha: 1.0 }, 2);
        let mut slot = KeyedSlot::new(&p);
        for (time, buffer) in [(10.0, 100.0), (100.0, 10.0), (50.0, 50.0), (90.0, 9.0)] {
            let e = entry(time, buffer, Order::None);
            assert!(slot.offer(e.cost, e.order, || e));
        }
        // The last dominates only the second: the survivors keep their
        // relative order, the newcomer appends.
        let times: Vec<f64> = slot.entries().iter().map(|e| e.cost.time).collect();
        assert_eq!(times, vec![10.0, 50.0, 90.0]);
    }

    /// Deterministic LCG: the plan crate has no property-testing
    /// dependency.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }

        fn pick<T: Copy>(&mut self, grid: &[T]) -> T {
            grid[(self.next() % grid.len() as u64) as usize]
        }
    }

    /// Entries as bit patterns: NaN compares equal to itself, the zeros of
    /// either sign do not, and the node tells equal costs apart.
    fn bits(slot: &[PlanEntry]) -> Vec<(u64, u64, Order, crate::entry::PlanNode)> {
        slot.iter()
            .map(|e| {
                (
                    e.cost.time.to_bits(),
                    e.cost.buffer.to_bits(),
                    e.order,
                    e.node,
                )
            })
            .collect()
    }

    /// What the streams of [`keyed_slot_matches_scalar_insertion`] reach:
    /// per order relation between a candidate and a slot entry whose cost
    /// would reject it, how often; and the cases the scan's and the
    /// compaction's shortcuts could get wrong.
    #[derive(Default)]
    struct Reach {
        /// Candidate unordered, entry ordered; both unordered; equal
        /// orders; candidate ordered, entry not or ordered otherwise.
        unordered_by_ordered: u64,
        unordered_by_unordered: u64,
        equal_orders: u64,
        not_covered: u64,
        /// A rejecting entry's time or buffer is exactly α times the
        /// candidate's.
        ties: u64,
        nan: u64,
        infinite: u64,
        /// The first rejecter lies past the last whole step of four.
        tail_rejecter: u64,
        /// The first rejecter lies in a whole step of four.
        step_rejecter: u64,
        /// A kept plan removes an entry that some survivor follows.
        removal_before_survivor: u64,
    }

    /// Offers `streams` random candidate streams to a keyed slot and
    /// inserts them through the scalar `try_insert`, checking after every
    /// candidate that both kept or both rejected it and that the slots
    /// hold the same entries, in the same order, bit for bit. Costs are
    /// drawn from small grids of powers of two, ±0, ±∞ and NaN, so that
    /// costs tie exactly (α ∈ {1, 2, 10} turns a tie into `α·x = y`),
    /// and orders from `None` and three attributes.
    fn check_keyed_slot(streams: u64) -> Reach {
        let inf = f64::INFINITY;
        let times = [
            -inf,
            -0.0,
            0.0,
            1.0,
            2.0,
            4.0,
            8.0,
            10.0,
            20.0,
            40.0,
            inf,
            f64::NAN,
        ];
        let buffers = [-0.0, 0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 100.0, inf, f64::NAN];
        let mut reach = Reach::default();
        for stream in 0..streams {
            let mut rng = Lcg(stream * 2654435761 + 17);
            let alpha = rng.pick(&[1.0, 2.0, 10.0]);
            // Two tables: one join level, so α is the per-insertion factor.
            let policy = PruningPolicy::new(Objective::Multi { alpha }, 2);
            let (mut scalar, mut keyed) = (Vec::new(), KeyedSlot::new(&policy));
            for step in 0..1 + rng.next() % 48 {
                let order = match rng.next() % 4 {
                    0 => Order::None,
                    t => Order::OnAttribute(t as u8 - 1),
                };
                let new = PlanEntry {
                    cost: CostVector::new(rng.pick(&times), rng.pick(&buffers)),
                    order,
                    node: crate::entry::PlanNode::Join {
                        op: mpq_cost::JoinOp::Hash,
                        left: mpq_model::TableSet::singleton(0),
                        left_idx: step as u32,
                        right: mpq_model::TableSet::singleton(1),
                        right_idx: 0,
                    },
                };
                reach.note(&policy, &scalar, &new);
                let kept = policy.try_insert(&mut scalar, new);
                let ctx = || format!("stream {stream}, step {step}, α = {alpha}, {new:?}");
                assert_eq!(keyed.offer(new.cost, new.order, || new), kept, "{}", ctx());
                assert_eq!(bits(keyed.entries()), bits(&scalar), "{}", ctx());
            }
        }
        reach
    }

    impl Reach {
        /// Counts what offering `new` to `slot` exercises.
        fn note(&mut self, policy: &PruningPolicy, slot: &[PlanEntry], new: &PlanEntry) {
            let (c, alpha) = (new.cost, policy.insert_alpha());
            self.nan += u64::from(c.time.is_nan() || c.buffer.is_nan());
            self.infinite += u64::from(c.time.is_infinite() || c.buffer.is_infinite());
            let mut first = None;
            for (i, e) in slot.iter().enumerate() {
                if !e.cost.alpha_dominates(&c, alpha) {
                    continue;
                }
                let counter = match (new.order, e.order) {
                    (Order::None, Order::None) => &mut self.unordered_by_unordered,
                    (Order::None, _) => &mut self.unordered_by_ordered,
                    (a, b) if a == b => &mut self.equal_orders,
                    _ => &mut self.not_covered,
                };
                *counter += 1;
                if policy.rejects(e, &c, new.order) {
                    first.get_or_insert(i);
                    let tied = e.cost.time == alpha * c.time || e.cost.buffer == alpha * c.buffer;
                    self.ties += u64::from(tied);
                }
            }
            match first {
                Some(i) if i >= slot.len() / 4 * 4 => self.tail_rejecter += 1,
                Some(_) => self.step_rejecter += 1,
                None => {
                    let removed: Vec<bool> = slot.iter().map(|e| policy.removes(new, e)).collect();
                    let survivor_after = |i: usize| removed[i + 1..].contains(&false);
                    let before = (0..slot.len()).any(|i| removed[i] && survivor_after(i));
                    self.removal_before_survivor += u64::from(before);
                }
            }
        }
    }

    /// The keyed slot is the scalar rule over columns: every keep/reject
    /// decision and every slot, entry order included, over 3 000 random
    /// streams; the streams reach every order-cover case, exact ties, NaN
    /// and ±∞, rejecters in whole steps and in the tail, and removals
    /// ahead of survivors.
    #[test]
    fn keyed_slot_matches_scalar_insertion() {
        let reach = check_keyed_slot(3_000);
        for (what, count) in [
            (
                "unordered candidate, ordered entry",
                reach.unordered_by_ordered,
            ),
            ("both unordered", reach.unordered_by_unordered),
            ("equal orders", reach.equal_orders),
            ("order not covered", reach.not_covered),
            ("α·x = y ties", reach.ties),
            ("NaN components", reach.nan),
            ("±∞ components", reach.infinite),
            ("first rejecter in the tail", reach.tail_rejecter),
            ("first rejecter in a step of four", reach.step_rejecter),
            ("removal ahead of a survivor", reach.removal_before_survivor),
        ] {
            assert!(count >= 200, "{what}: only {count} times");
        }
    }

    /// [`keyed_slot_matches_scalar_insertion`] at 100 times the streams.
    /// Seconds in release, where CI runs it.
    #[test]
    #[ignore = "deep: run with --release -- --include-ignored"]
    fn keyed_slot_matches_scalar_insertion_deep() {
        check_keyed_slot(300_000);
    }
}
