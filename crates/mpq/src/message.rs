//! MPQ wire messages.
//!
//! One task message from the master; the worker answers with a tagged
//! [`WorkerMsg`] — either the final [`WorkerReply`] for its range
//! (matching the single communication round of the algorithm) or, when
//! the task requests it, a lightweight [`Progress`] report after every
//! `progress_every` completed partitions. The task message carries the
//! query together with its statistics (the "send query-specific
//! statistics with each query" mode of Section 4.1) plus four integers;
//! the reply carries the partition-optimal plan(s) and the worker's
//! counters.

use mpq_cluster::{wire, Progress};
use mpq_cost::Objective;
use mpq_dp::WorkerStats;
use mpq_model::Query;
use mpq_partition::PlanSpace;
use mpq_plan::Plan;

/// Task sent from the master to one worker (Algorithm 1, line 5).
#[derive(Clone, Debug, PartialEq)]
pub struct MasterMessage {
    /// The query to optimize, including per-table statistics.
    pub query: Query,
    /// Plan space to search.
    pub space: PlanSpace,
    /// Objective / pruning function to use.
    pub objective: Objective,
    /// First partition ID assigned to this worker (0-based).
    pub first_partition: u64,
    /// Number of consecutive partitions assigned to this worker: 1 in the
    /// paper's layout; more when stealing oversubscribes the space, in a
    /// stolen sub-range, or in an explicit `submit_assigned` layout.
    pub partition_count: u64,
    /// Total number of plan-space partitions `m`.
    pub total_partitions: u64,
    /// Progress-report cadence: the worker sends a [`Progress`] report
    /// after every this-many completed partitions of the range (never for
    /// the final partition — the reply itself signals completion). The
    /// master sends 1 with stealing on and 0, which disables progress
    /// reporting, with it off.
    pub progress_every: u64,
}

/// Reply sent from a worker back to the master.
///
/// The reply echoes the task's partition range so the master can match
/// replies to tasks by content rather than by sender: under speculative
/// re-execution the same range may be issued to several workers, and the
/// master must discard duplicate results for an already-completed range.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerReply {
    /// First partition ID of the completed range (task echo).
    pub first_partition: u64,
    /// Number of partitions in the completed range (task echo).
    pub partition_count: u64,
    /// Best plan(s) within the worker's partition(s): one plan for
    /// single-objective optimization, a Pareto frontier otherwise. Each
    /// travels as its operator tree alone: a decoded reply's plans are
    /// [unpriced](Plan::unpriced), and the master prices them against its
    /// own copy of the query before ranking any.
    pub plans: Vec<Plan>,
    /// Work counters, aggregated over the worker's partitions.
    pub stats: WorkerStats,
    /// Always 0: workers hold no cache (the service facade keeps the one
    /// result cache). The field stays on the wire, and in the type, only
    /// because the frozen `benchmark/` builds replies with it.
    pub cache_hits: u64,
    /// Always 0, like [`WorkerReply::cache_hits`].
    pub cache_misses: u64,
}

/// Every worker → master message, tagged: the final range reply, or a
/// mid-range [`Progress`] report (sent only when the task's
/// `progress_every` is non-zero). The one-byte tag keeps the steal-off
/// wire cost at `O(b_p) + 1` per reply.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerMsg {
    /// The range is done; plans and counters attached.
    Reply(WorkerReply),
    /// The range is still running; `completed` of `partition_count`
    /// partitions are finished.
    Progress(Progress),
}

impl WorkerMsg {
    /// Wire tag of [`WorkerMsg::Reply`] — the first byte of the payload,
    /// shared with the master's cheap tag peek (which classifies messages
    /// without decoding plan vectors).
    pub const TAG_REPLY: u8 = 0;
    /// Wire tag of [`WorkerMsg::Progress`]; see [`WorkerMsg::TAG_REPLY`].
    pub const TAG_PROGRESS: u8 = 1;
}

wire! {
    /// This crate's wire types, as declared here (see
    /// [`mpq_cluster::codec::WIRE_TYPES`]).
    pub const WIRE_TYPES;

    struct MasterMessage {
        query: Query,
        space: PlanSpace,
        objective: Objective,
        first_partition: u64,
        partition_count: u64,
        total_partitions: u64,
        progress_every: u64
    }
    struct WorkerReply {
        first_partition: u64,
        partition_count: u64,
        plans: Vec<Plan>,
        stats: WorkerStats,
        cache_hits: u64,
        cache_misses: u64
    }
    enum WorkerMsg {
        WorkerMsg::TAG_REPLY => Reply(reply: WorkerReply),
        WorkerMsg::TAG_PROGRESS => Progress(progress: Progress)
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
    use mpq_model::{WorkloadConfig, WorkloadGenerator};

    /// A reply as it crosses the wire: everything but the plans' costs,
    /// which stay with the sender.
    fn assert_same_reply(back: &WorkerReply, sent: &WorkerReply) {
        assert_eq!(
            (back.first_partition, back.partition_count, back.stats),
            (sent.first_partition, sent.partition_count, sent.stats)
        );
        assert_eq!(
            (back.cache_hits, back.cache_misses),
            (sent.cache_hits, sent.cache_misses)
        );
        assert_eq!(back.plans.len(), sent.plans.len());
        for (b, p) in back.plans.iter().zip(&sent.plans) {
            assert_eq!(b.ops, p.ops);
            assert!(b.cost.time.is_nan() && b.cost.buffer.is_nan());
        }
    }

    #[test]
    fn master_message_roundtrip() {
        let query = WorkloadGenerator::new(WorkloadConfig::paper_default(8), 3).next_query();
        let msg = MasterMessage {
            query,
            space: PlanSpace::Bushy,
            objective: Objective::Multi { alpha: 10.0 },
            first_partition: 5,
            partition_count: 2,
            total_partitions: 8,
            progress_every: 1,
        };
        let bytes = msg.to_bytes();
        assert_eq!(MasterMessage::from_bytes(&bytes).unwrap(), msg);
    }

    #[test]
    fn worker_reply_roundtrip() {
        let query = WorkloadGenerator::new(WorkloadConfig::paper_default(5), 4).next_query();
        let out = mpq_dp::optimize_serial(&query, PlanSpace::Linear, Objective::Single);
        let reply = WorkerReply {
            first_partition: 3,
            partition_count: 2,
            plans: out.plans.clone(),
            stats: out.stats,
            cache_hits: 1,
            cache_misses: 1,
        };
        let bytes = reply.to_bytes();
        assert_same_reply(&WorkerReply::from_bytes(&bytes).unwrap(), &reply);
    }

    #[test]
    fn worker_msg_tags_roundtrip() {
        let query = WorkloadGenerator::new(WorkloadConfig::paper_default(4), 6).next_query();
        let out = mpq_dp::optimize_serial(&query, PlanSpace::Linear, Objective::Single);
        let reply = WorkerReply {
            first_partition: 0,
            partition_count: 4,
            plans: out.plans,
            stats: out.stats,
            cache_hits: 0,
            cache_misses: 0,
        };
        let bytes = WorkerMsg::Reply(reply.clone()).to_bytes();
        let Ok(WorkerMsg::Reply(back)) = WorkerMsg::from_bytes(&bytes) else {
            panic!("a reply decodes as a reply");
        };
        assert_same_reply(&back, &reply);
        let progress = WorkerMsg::Progress(Progress {
            first_partition: 0,
            completed: 2,
            partition_count: 4,
        });
        let bytes = progress.to_bytes();
        assert_eq!(bytes.len(), 25, "tag byte plus the 24-byte report");
        assert_eq!(WorkerMsg::from_bytes(&bytes).unwrap(), progress);
        assert!(WorkerMsg::from_bytes(&[9]).is_err(), "unknown tag rejected");
    }

    #[test]
    fn task_message_size_linear_in_query() {
        // The per-worker task is O(b_q): constant overhead past the query.
        let q = WorkloadGenerator::new(WorkloadConfig::paper_default(10), 5).next_query();
        let query_bytes = q.to_bytes().len();
        let msg = MasterMessage {
            query: q,
            space: PlanSpace::Linear,
            objective: Objective::Single,
            first_partition: 0,
            partition_count: 1,
            total_partitions: 64,
            progress_every: 0,
        };
        assert!(msg.to_bytes().len() <= query_bytes + 40);
    }
}
