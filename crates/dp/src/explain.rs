//! Per-node estimates of a plan, recomputed from its query.
//!
//! On the wire a [`Plan`] is its operator tree alone — what Theorem 1's
//! `b_p` bills. Every node's cost, cardinality and interesting order, the
//! root cost included, is a function of the query and the tree, so
//! [`explain`] recomputes them where they are wanted, with the formulas
//! the DP kernels use: the same f64 additions and `max`es, in the same
//! order. Each node's estimate is therefore bit-identical to the memo
//! entry it was reconstructed from.
//!
//! A [`Pricer`] does the same for every plan a session receives, over one
//! estimator: the MPQ master ranks and returns only the [`PricedPlan`]s it
//! makes, so no cost it compares was computed by a worker.

// The master runs this file on decoded input, so it is held panic-free
// although the rest of `mpq_dp` is not.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::disallowed_macros
)]

use crate::worker::stored_time;
use mpq_cost::{CardinalityEstimator, CostVector, JoinOp, Order, SetStats, SplitCosts};
use mpq_model::{Query, TableSet};
use mpq_partition::PlanSpace;
use mpq_plan::{Plan, PlanError, PlanOp};
use std::fmt;

/// One node of an explained plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeEstimate {
    /// The node's operator.
    pub op: PlanOp,
    /// The tables its subtree joins.
    pub tables: TableSet,
    /// Total cost of its subtree.
    pub cost: CostVector,
    /// Its output cardinality.
    pub cardinality: f64,
    /// Interesting order of its output: the order a later join can still
    /// use, [`Order::None`] once none can (the label the memo carries).
    pub order: Order,
}

/// Why a plan does not fit a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExplainError {
    /// The operators are not one tree ([`Plan::validate`]).
    Shape(PlanError),
    /// A scan names a table the query does not have.
    UnknownTable {
        /// The scanned table.
        table: u8,
        /// The query's table count.
        tables: usize,
    },
    /// A join's operator does not apply to its operands: a sort-merge
    /// join of a cross product.
    Inapplicable {
        /// Position of the join in the operator list.
        at: usize,
        /// Its operator.
        op: JoinOp,
    },
}

impl fmt::Display for ExplainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplainError::Shape(e) => write!(f, "malformed plan: {e}"),
            ExplainError::UnknownTable { table, tables } => {
                write!(f, "plan scans table {table} of a {tables}-table query")
            }
            ExplainError::Inapplicable { at, op } => {
                write!(
                    f,
                    "{op:?} join at operator {at} does not apply to its operands"
                )
            }
        }
    }
}

impl std::error::Error for ExplainError {}

/// Why a [`Pricer`] refuses a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PriceError {
    /// The plan does not fit the query ([`explain`]'s refusal).
    Explain(ExplainError),
    /// A plan with a composite inner operand, priced for a left-deep
    /// ([`PlanSpace::Linear`]) search: no partition of that space holds it.
    NotLeftDeep,
}

impl fmt::Display for PriceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PriceError::Explain(e) => e.fmt(f),
            PriceError::NotLeftDeep => f.write_str("bushy plan in a left-deep plan space"),
        }
    }
}

impl std::error::Error for PriceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PriceError::Explain(e) => Some(e),
            PriceError::NotLeftDeep => None,
        }
    }
}

/// A plan whose cost was computed from its query by whoever priced it
/// ([`Pricer::price`], the only constructor): what the MPQ master ranks
/// and returns. A decoded plan is [unpriced](Plan::unpriced) and cannot
/// pass for one:
///
/// ```compile_fail,E0451
/// use mpq_dp::PricedPlan;
/// use mpq_plan::Plan;
/// let plan = Plan::unpriced(Vec::new());
/// let priced = PricedPlan { plan };
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PricedPlan {
    plan: Plan,
}

impl PricedPlan {
    /// The priced plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The priced plan, by value.
    pub fn into_plan(self) -> Plan {
        self.plan
    }
}

/// Prices plans for one query: [`explain`]'s arithmetic over one
/// [`CardinalityEstimator`], built once and shared by every plan, so a
/// session's replies pay for the estimator once. The estimator's answers
/// do not depend on what it was asked before, so a plan prices to the
/// same bits whichever plans came first.
pub struct Pricer {
    est: CardinalityEstimator,
    tables: usize,
}

impl Pricer {
    /// A pricer for `query`.
    pub fn new(query: &Query) -> Pricer {
        Pricer {
            est: CardinalityEstimator::new(query),
            tables: query.num_tables(),
        }
    }

    /// Estimates every node of `plan` in operator order, hands each to
    /// `visit` and returns the root's. Each set's statistics are asked for
    /// once and kept on the operand stack for the join that consumes them
    /// ([`SplitCosts::from_stats`], the costs [`SplitCosts::new`] would
    /// compute from the same statistics).
    fn walk(
        &self,
        plan: &Plan,
        mut visit: impl FnMut(NodeEstimate),
    ) -> Result<NodeEstimate, ExplainError> {
        let sets = plan.subtrees().map_err(ExplainError::Shape)?;
        let (est, tables) = (&self.est, self.tables);
        let mut operands: Vec<(NodeEstimate, SetStats)> = Vec::new();
        for (at, (&op, &set)) in plan.ops.iter().zip(&sets).enumerate() {
            let (cost, order) = match op {
                PlanOp::Scan { table, op: scan } => {
                    if table as usize >= tables {
                        return Err(ExplainError::UnknownTable { table, tables });
                    }
                    (scan.cost(est, table as usize), scan.output_order())
                }
                PlanOp::Join { op: join } => {
                    let (Some((r, r_stats)), Some((l, l_stats))) = (operands.pop(), operands.pop())
                    else {
                        return Err(ExplainError::Shape(PlanError::MissingOperand { at }));
                    };
                    let app = SplitCosts::from_stats(
                        est.predicates(),
                        l.tables,
                        &l_stats,
                        r.tables,
                        &r_stats,
                    )
                    .apply(join, l.order, r.order)
                    .ok_or(ExplainError::Inapplicable { at, op: join })?;
                    let cost = CostVector::new(
                        stored_time((l.cost.time + r.cost.time) + app.cost.time),
                        l.cost.buffer.max(r.cost.buffer).max(app.cost.buffer),
                    );
                    let live = est.predicates().interesting_orders(set);
                    (cost, app.output_order.if_live(live))
                }
            };
            let stats = est.set_stats(set);
            let node = NodeEstimate {
                op,
                tables: set,
                cost,
                cardinality: stats.cardinality,
                order,
            };
            visit(node);
            operands.push((node, stats));
        }
        match operands.pop() {
            Some((root, _)) => Ok(root),
            None => Err(ExplainError::Shape(PlanError::Empty)),
        }
    }

    /// `plan` with its cost computed here: its explained root's. Refuses
    /// a plan [`explain`] refuses and, in a [`PlanSpace::Linear`] search,
    /// a plan that is not left-deep.
    pub fn price(&self, space: PlanSpace, plan: Plan) -> Result<PricedPlan, PriceError> {
        let cost = self.walk(&plan, |_| {}).map_err(PriceError::Explain)?.cost;
        if space == PlanSpace::Linear && !plan.is_left_deep() {
            return Err(PriceError::NotLeftDeep);
        }
        Ok(PricedPlan {
            plan: Plan {
                cost,
                ops: plan.ops,
            },
        })
    }
}

/// A plan's per-node estimates, one per operator, in the plan's operator
/// order (post-order: the root last). Its `Display` is the indented
/// operator tree, outer operand first, each node with its cardinality and
/// cost.
#[derive(Clone, Debug, PartialEq)]
pub struct Explanation {
    nodes: Vec<NodeEstimate>,
    root: NodeEstimate,
}

impl Explanation {
    /// The estimates, in the plan's operator order.
    pub fn nodes(&self) -> &[NodeEstimate] {
        &self.nodes
    }

    /// The root's estimate: its cost is the plan's.
    pub fn root(&self) -> &NodeEstimate {
        &self.root
    }

    /// Positions of the operands of the join at `at`: the inner one ends
    /// just before it, the outer one just before the inner one's
    /// `2k - 1` operators.
    fn operands(&self, at: usize) -> (usize, usize) {
        let right = at - 1;
        (right + 1 - 2 * self.nodes[right].tables.len(), right)
    }

    /// Whether every join costs at least the times of its operands added
    /// up: the monotonicity the DP's principle of optimality rests on. A
    /// NaN time fails it.
    pub fn is_monotone(&self) -> bool {
        self.nodes
            .iter()
            .enumerate()
            .all(|(at, node)| match node.op {
                PlanOp::Scan { .. } => true,
                PlanOp::Join { .. } => {
                    let (left, right) = self.operands(at);
                    node.cost.time >= self.nodes[left].cost.time + self.nodes[right].cost.time
                }
            })
    }

    fn render(&self, at: usize, depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let node = &self.nodes[at];
        write!(f, "{:width$}", "", width = 2 * depth)?;
        match node.op {
            PlanOp::Scan { table, op } => writeln!(
                f,
                "Scan[{op:?}] Q{table} (card={:.0}, time={:.3e})",
                node.cardinality, node.cost.time
            ),
            PlanOp::Join { op } => {
                writeln!(
                    f,
                    "Join[{op:?}] {} (card={:.0}, time={:.3e}, buf={:.3e})",
                    node.tables, node.cardinality, node.cost.time, node.cost.buffer
                )?;
                let (left, right) = self.operands(at);
                self.render(left, depth + 1, f)?;
                self.render(right, depth + 1, f)
            }
        }
    }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(self.nodes.len() - 1, 0, f)
    }
}

/// Recomputes every node's cost, cardinality and interesting order of
/// `plan` for `query`, as the DP kernels computed them:
///
/// * a scan costs [`mpq_cost::ScanOp::cost`];
/// * a join of `l` and `r` by `op` costs `(l.time + r.time) + app.time`
///   (a NaN stored as the memo stores it) and
///   `l.buffer.max(r.buffer).max(app.buffer)`, where `app` is
///   [`SplitCosts::apply`] of `op` to the operands' orders;
/// * a join's order is the operator's output order while some later join
///   can use it ([`Order::if_live`]), and every node's cardinality is the
///   estimator's for its table set.
///
/// Fails with a typed error when the plan is not one tree, scans a table
/// the query does not have, or joins by an operator that does not apply.
pub fn explain(query: &Query, plan: &Plan) -> Result<Explanation, ExplainError> {
    let mut nodes = Vec::with_capacity(plan.ops.len());
    let root = Pricer::new(query).walk(plan, |node| nodes.push(node))?;
    Ok(Explanation { nodes, root })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_macros)]
    use super::*;
    use crate::arena::{fill, ArenaMemo};
    use crate::reconstruct::reconstruct_plan;
    use crate::worker::optimize_serial;
    use mpq_cost::{Objective, ScanOp};
    use mpq_model::{JoinGraph, WorkloadConfig, WorkloadGenerator};
    use mpq_partition::{partition_constraints, PlanSpace};
    use mpq_plan::{PlanEntry, PlanNode, PruningPolicy};

    fn query(n: usize, seed: u64) -> Query {
        WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query()
    }

    /// Holds the explained node at `at` to the memo entry it was
    /// reconstructed from — cost, order and its set's cardinality, bit
    /// for bit — and its operands to theirs.
    fn assert_node_is_entry(
        memo: &ArenaMemo,
        x: &Explanation,
        at: usize,
        (set, entry): (TableSet, &PlanEntry),
        ctx: &str,
    ) {
        let node = &x.nodes()[at];
        let card = memo.stats(set).expect("a stored set").cardinality;
        assert_eq!(node.tables, set, "{ctx}: node {at}");
        assert_eq!(
            node.cost.time.to_bits(),
            entry.cost.time.to_bits(),
            "{ctx}: node {at}"
        );
        assert_eq!(
            node.cost.buffer.to_bits(),
            entry.cost.buffer.to_bits(),
            "{ctx}: node {at}"
        );
        assert_eq!(
            node.cardinality.to_bits(),
            card.to_bits(),
            "{ctx}: node {at}"
        );
        assert_eq!(node.order, entry.order, "{ctx}: node {at}");
        if let PlanNode::Join {
            left,
            left_idx,
            right,
            right_idx,
            ..
        } = entry.node
        {
            let (l, r) = x.operands(at);
            let le = &memo.entries(left)[left_idx as usize];
            let re = &memo.entries(right)[right_idx as usize];
            assert_node_is_entry(memo, x, l, (left, le), ctx);
            assert_node_is_entry(memo, x, r, (right, re), ctx);
        }
    }

    /// Over the kernel differential suite's queries (5–8 tables, the four
    /// graph shapes), both spaces, single-objective and α ∈ {1, 2}, and
    /// every partition of 1, 2 and 4 the space supports: every complete
    /// plan the kernel's memo holds explains to that memo, node for node,
    /// bit for bit.
    /// (Multi-objective points stop at 7 tables, as there.)
    #[test]
    fn explain_reproduces_every_memo_node_bit_for_bit() {
        let objectives = [
            Objective::Single,
            Objective::Multi { alpha: 1.0 },
            Objective::Multi { alpha: 2.0 },
        ];
        for seed in 0..50u64 {
            let n = 5 + (seed % 4) as usize;
            let graph = JoinGraph::ALL[(seed % 4) as usize];
            let config = WorkloadConfig::with_graph(n, graph);
            let q = WorkloadGenerator::new(config, seed * 6271 + 5).next_query();
            for space in [PlanSpace::Linear, PlanSpace::Bushy] {
                for objective in objectives {
                    if n > 7 && objective != Objective::Single {
                        continue;
                    }
                    let pruning = PruningPolicy::new(objective, n);
                    for m in [1u64, 2, 4]
                        .into_iter()
                        .filter(|&m| m <= space.max_partitions(n))
                    {
                        for id in 0..m {
                            let c = partition_constraints(n, space, id, m);
                            let (memo, _) = fill(&q, space, &pruning, &c);
                            let full = q.all_tables();
                            for (i, entry) in memo.entries(full).iter().enumerate() {
                                let ctx = format!(
                                    "seed {seed} (n={n}) {space:?} {objective:?} {id}/{m} plan {i}"
                                );
                                let plan = reconstruct_plan(&memo, full, entry);
                                let x = explain(&q, &plan).expect("a memo plan fits its query");
                                assert_eq!(x.root().cost, plan.cost(), "{ctx}");
                                let root = plan.ops.len() - 1;
                                assert_node_is_entry(&memo, &x, root, (full, entry), &ctx);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Every DP plan of both spaces and objectives explains to its own
    /// root cost, and its costs grow monotonically toward the root.
    #[test]
    fn explained_costs_are_monotone_and_end_at_the_root_cost() {
        for (n, seed) in [(1, 1), (2, 2), (5, 3), (7, 4)] {
            let q = query(n, seed);
            for space in [PlanSpace::Linear, PlanSpace::Bushy] {
                for objective in [Objective::Single, Objective::Multi { alpha: 2.0 }] {
                    for p in optimize_serial(&q, space, objective).plans {
                        let x = explain(&q, &p).expect("a DP plan fits its query");
                        assert_eq!(x.nodes().len(), p.ops.len());
                        assert!(x.is_monotone(), "{p}");
                        assert_eq!(x.root().cost, p.cost());
                        assert_eq!(x.root().tables, q.all_tables());
                        assert_eq!(x.root().order, Order::None);
                    }
                }
            }
        }
    }

    #[test]
    fn a_cost_below_its_operands_is_not_monotone() {
        let q = query(3, 5);
        let p = optimize_serial(&q, PlanSpace::Linear, Objective::Single)
            .plans
            .remove(0);
        let mut x = explain(&q, &p).unwrap();
        assert!(x.is_monotone());
        let root = x.nodes.len() - 1;
        x.nodes[root].cost.time = 1.0;
        assert!(!x.is_monotone());
        x.nodes[root].cost.time = f64::NAN;
        assert!(!x.is_monotone());
    }

    #[test]
    fn a_plan_that_does_not_fit_the_query_is_a_typed_error() {
        let q = query(3, 6);
        let scan = |table| PlanOp::Scan {
            table,
            op: ScanOp::Full,
        };
        let plan = |ops| Plan {
            cost: CostVector::ZERO,
            ops,
        };
        let join = |op| PlanOp::Join { op };
        assert_eq!(
            explain(&q, &plan(vec![scan(0), join(JoinOp::Hash)])),
            Err(ExplainError::Shape(PlanError::MissingOperand { at: 1 }))
        );
        assert_eq!(
            explain(&q, &plan(vec![scan(0), scan(3), join(JoinOp::Hash)])),
            Err(ExplainError::UnknownTable {
                table: 3,
                tables: 3
            })
        );
        // The workload's chain joins 0-1 and 1-2 only: 0 and 2 meet in a
        // cross product, where sort-merge does not apply.
        let chain = WorkloadGenerator::new(
            WorkloadConfig::with_graph(3, mpq_model::JoinGraph::Chain),
            7,
        )
        .next_query();
        let cross = plan(vec![scan(0), scan(2), join(JoinOp::SortMerge)]);
        assert_eq!(
            explain(&chain, &cross),
            Err(ExplainError::Inapplicable {
                at: 2,
                op: JoinOp::SortMerge
            })
        );
        let e = ExplainError::Inapplicable {
            at: 2,
            op: JoinOp::SortMerge,
        };
        assert!(e.to_string().contains("SortMerge"));
    }

    /// One pricer, shared by every plan of a query in any order, gives
    /// each the cost its memo computed — whatever cost the plan claimed
    /// on arrival — and refuses a bushy plan only in a left-deep space.
    #[test]
    fn a_pricer_prices_every_plan_as_its_memo_did_whatever_it_claims() {
        for (n, seed) in [(1, 11), (4, 12), (6, 13), (7, 14)] {
            let q = query(n, seed);
            let mut plans = Vec::new();
            for space in [PlanSpace::Linear, PlanSpace::Bushy] {
                for objective in [Objective::Single, Objective::Multi { alpha: 2.0 }] {
                    plans.extend(optimize_serial(&q, space, objective).plans);
                }
            }
            for order in [false, true] {
                let pricer = Pricer::new(&q);
                let mut visit: Vec<&Plan> = plans.iter().collect();
                if order {
                    visit.reverse();
                }
                for p in visit {
                    let claimed = Plan {
                        cost: CostVector::ZERO,
                        ops: p.ops.clone(),
                    };
                    let linear = pricer.price(PlanSpace::Linear, claimed.clone());
                    if p.is_left_deep() {
                        let linear = linear.unwrap().into_plan();
                        assert_eq!(linear.cost.time.to_bits(), p.cost.time.to_bits(), "{p}");
                    } else {
                        assert_eq!(linear, Err(PriceError::NotLeftDeep), "{p}");
                    }
                    let priced = pricer.price(PlanSpace::Bushy, claimed).unwrap();
                    assert_eq!(priced.plan().ops, p.ops);
                    assert_eq!(priced.plan().cost.time.to_bits(), p.cost.time.to_bits());
                    assert_eq!(priced.plan().cost.buffer.to_bits(), p.cost.buffer.to_bits());
                }
            }
        }
    }

    #[test]
    fn display_indents_operands_under_their_join() {
        let q = query(3, 8);
        let p = optimize_serial(&q, PlanSpace::Bushy, Objective::Single)
            .plans
            .remove(0);
        let text = explain(&q, &p).unwrap().to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("Join[") && lines[0].contains("{0,1,2}"));
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.trim_start().starts_with("Scan[Full] Q"))
                .count(),
            3
        );
        assert!(lines[1..].iter().all(|l| l.starts_with("  ")));
    }
}
