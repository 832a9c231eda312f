//! SMA wire messages.
//!
//! Unlike MPQ's single task/reply pair, SMA needs four master-side message
//! kinds (initialization, per-level assignment, memo broadcast, final plan
//! request) and two worker-side kinds (level results, final plans). The
//! memo-delta messages are the exponential-traffic culprit.
//!
//! [`SmaOptimizer`](crate::SmaOptimizer) encodes every message the
//! protocol would send, to count its bytes; nothing dispatches on them.

use mpq_cluster::wire;
use mpq_cost::Objective;
use mpq_dp::WorkerStats;
use mpq_model::{Query, TableSet};
use mpq_partition::PlanSpace;
use mpq_plan::{Plan, PlanEntry};

/// One memo slot crossing the network: the table set and its surviving
/// plan entries, in canonical (producer) order.
#[derive(Clone, Debug, PartialEq)]
pub struct SlotUpdate {
    /// The join result this slot belongs to.
    pub set: TableSet,
    /// Surviving entries for the set.
    pub entries: Vec<PlanEntry>,
}

/// Master → worker messages.
#[derive(Clone, Debug, PartialEq)]
pub enum SmaMasterMsg {
    /// Start a query: workers build their memo replica and seed scans.
    Init {
        /// The query with statistics.
        query: Query,
        /// Plan space to search.
        space: PlanSpace,
        /// Objective / pruning function.
        objective: Objective,
    },
    /// Compute plan entries for these (same-cardinality) join results.
    Assign {
        /// The table sets assigned to this worker for the current level.
        sets: Vec<TableSet>,
    },
    /// Merge these slots into the replica (level broadcast).
    Delta {
        /// Slots produced by all workers during the current level.
        slots: Vec<SlotUpdate>,
    },
    /// Reconstruct and return the final plan(s) for the full table set.
    Finish,
}

/// Worker → master messages.
#[derive(Clone, Debug, PartialEq)]
pub enum SmaReply {
    /// Results of one `Assign`: the computed slots plus the compute time.
    LevelDone {
        /// Slots computed by this worker.
        slots: Vec<SlotUpdate>,
        /// Pure compute time for the batch, microseconds. Fixed-width, so
        /// its value never changes the bill; the straight-line run sends 0.
        micros: u64,
    },
    /// Response to `Finish`.
    Final {
        /// Complete plan(s) for the query, each on the wire as its
        /// operator tree alone (SMA's answer is read from the run's own
        /// memo, so nothing decodes these).
        plans: Vec<Plan>,
        /// Memory/work counters of this worker's replica.
        stats: WorkerStats,
    },
}

wire! {
    /// This crate's wire types, as declared here (see
    /// [`mpq_cluster::codec::WIRE_TYPES`]).
    pub const WIRE_TYPES;

    struct SlotUpdate { set: TableSet, entries: Vec<PlanEntry> }
    enum SmaMasterMsg {
        0 => Init { query: Query, space: PlanSpace, objective: Objective },
        1 => Assign { sets: Vec<TableSet> },
        2 => Delta { slots: Vec<SlotUpdate> },
        3 => Finish
    }
    enum SmaReply {
        0 => LevelDone { slots: Vec<SlotUpdate>, micros: u64 },
        1 => Final { plans: Vec<Plan>, stats: WorkerStats }
    }
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::disallowed_macros
    )]
    use super::*;
    use mpq_cluster::Wire;
    use mpq_cost::{CostVector, ScanOp};
    use mpq_model::{WorkloadConfig, WorkloadGenerator};

    #[test]
    fn master_messages_roundtrip() {
        let query = WorkloadGenerator::new(WorkloadConfig::paper_default(6), 1).next_query();
        let msgs = vec![
            SmaMasterMsg::Init {
                query,
                space: PlanSpace::Linear,
                objective: Objective::Single,
            },
            SmaMasterMsg::Assign {
                sets: vec![TableSet::from_tables([0, 1]), TableSet::from_tables([2, 3])],
            },
            SmaMasterMsg::Delta {
                slots: vec![SlotUpdate {
                    set: TableSet::from_tables([0, 1]),
                    entries: vec![PlanEntry::scan(0, ScanOp::Full, CostVector::new(1.0, 2.0))],
                }],
            },
            SmaMasterMsg::Finish,
        ];
        for msg in msgs {
            let bytes = msg.to_bytes();
            assert_eq!(SmaMasterMsg::from_bytes(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn replies_roundtrip() {
        let r = SmaReply::LevelDone {
            slots: vec![SlotUpdate {
                set: TableSet::singleton(3),
                entries: vec![],
            }],
            micros: 42,
        };
        assert_eq!(SmaReply::from_bytes(&r.to_bytes()).unwrap(), r);
        let query = WorkloadGenerator::new(WorkloadConfig::paper_default(4), 2).next_query();
        let out = mpq_dp::optimize_serial(&query, PlanSpace::Linear, Objective::Single);
        let r = SmaReply::Final {
            plans: out.plans.clone(),
            stats: out.stats,
        };
        // The plans come back as their trees: no cost crosses the wire.
        let Ok(SmaReply::Final { plans, stats }) = SmaReply::from_bytes(&r.to_bytes()) else {
            panic!("a final reply decodes as one");
        };
        assert_eq!(stats, out.stats);
        assert_eq!(plans.len(), out.plans.len());
        for (back, sent) in plans.iter().zip(&out.plans) {
            assert_eq!(back.ops, sent.ops);
            assert!(back.cost.time.is_nan());
        }
    }

    #[test]
    fn bad_tag_rejected() {
        assert!(SmaMasterMsg::from_bytes(&[9]).is_err());
        assert!(SmaReply::from_bytes(&[7]).is_err());
    }
}
