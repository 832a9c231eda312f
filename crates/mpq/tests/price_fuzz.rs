//! The master's trust boundary, fuzzed: whatever bytes a worker sends,
//! decoding them and pricing every plan they hold against the session's
//! query ends in a priced plan or a typed error, never a panic.
//!
//! A reply plan carries no cost: the MPQ master decodes it
//! (`WorkerMsg::from_bytes`, which checks only that it is one tree over
//! distinct tables below 64) and prices it with `mpq_dp::Pricer`, which
//! walks it against a query it was not built for. Each case draws a 1–8
//! table query and feeds the decoder one of: byte soup, a reply of random
//! operator sequences (trees or not, tables inside and outside the query,
//! any join operator), or a real DP reply for the query, each of the last
//! two with a few bits flipped. Every plan that decodes is priced for
//! both plan spaces; one that prices must cost what `explain` recomputes,
//! join only the query's tables and, in a left-deep space, be left-deep.
//!
//! Cases: `PROPTEST_CASES` (as in the CI sanitizer job) or 512. The
//! generator is a fixed-seed SplitMix64, so a failing case repeats.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mpq_algo::{WorkerMsg, WorkerReply};
use mpq_cluster::Wire;
use mpq_cost::{Objective, ScanOp, JOIN_OPS};
use mpq_dp::{explain, optimize_partition_id, ExplainError, PriceError, Pricer, WorkerStats};
use mpq_model::{JoinGraph, Query, WorkloadConfig, WorkloadGenerator};
use mpq_partition::PlanSpace;
use mpq_plan::{Plan, PlanOp};

/// Case count: `PROPTEST_CASES` or the default.
fn cases(default: u64) -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// A random operator sequence over `n` query tables: half the time a tree
/// over distinct tables (random pairs of subtrees joined by any operator;
/// now and then one table is past the query's), else any mix of scans and
/// joins.
fn random_ops(rng: &mut Rng, n: usize) -> Vec<PlanOp> {
    let join = |rng: &mut Rng| PlanOp::Join {
        op: JOIN_OPS[rng.below(JOIN_OPS.len() as u64) as usize],
    };
    let scan = |t: u64| PlanOp::Scan {
        table: t as u8,
        op: ScanOp::Full,
    };
    if rng.coin() {
        let mut tables: Vec<u64> = (0..n as u64).collect();
        if rng.below(4) == 0 {
            tables.push(n as u64 + rng.below(64 - n as u64));
        }
        let leaves = 1 + rng.below(tables.len() as u64) as usize;
        let mut trees: Vec<Vec<PlanOp>> = (0..leaves)
            .map(|_| {
                vec![scan(
                    tables.swap_remove(rng.below(tables.len() as u64) as usize),
                )]
            })
            .collect();
        while trees.len() > 1 {
            let right = trees.swap_remove(rng.below(trees.len() as u64) as usize);
            let left = trees.swap_remove(rng.below(trees.len() as u64) as usize);
            let mut ops = left;
            ops.extend(right);
            ops.push(join(rng));
            trees.push(ops);
        }
        trees.pop().unwrap_or_default()
    } else {
        (0..rng.below(2 * n as u64 + 2))
            .map(|_| {
                if rng.coin() {
                    scan(rng.below(n as u64 + 2))
                } else {
                    join(rng)
                }
            })
            .collect()
    }
}

fn reply(plans: Vec<Plan>) -> Vec<u8> {
    WorkerMsg::Reply(WorkerReply {
        first_partition: 0,
        partition_count: 1,
        plans,
        stats: WorkerStats::default(),
        cache_hits: 0,
        cache_misses: 0,
    })
    .to_bytes()
    .to_vec()
}

/// One worker message's bytes for `q`, as a broken or hostile worker
/// might send them.
fn hostile_bytes(rng: &mut Rng, q: &Query) -> Vec<u8> {
    let n = q.num_tables();
    let mut bytes = match rng.below(3) {
        0 => (0..rng.below(600)).map(|_| rng.next() as u8).collect(),
        1 => reply(
            (0..rng.below(4))
                .map(|_| Plan::unpriced(random_ops(rng, n)))
                .collect(),
        ),
        _ => {
            let space = [PlanSpace::Linear, PlanSpace::Bushy][rng.below(2) as usize];
            let objective =
                [Objective::Single, Objective::Multi { alpha: 2.0 }][rng.below(2) as usize];
            reply(optimize_partition_id(q, space, objective, 0, 1).plans)
        }
    };
    if !bytes.is_empty() {
        for _ in 0..rng.below(3) {
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] ^= 1 << rng.below(8);
        }
    }
    bytes
}

/// Prices `plan` for `q` in `space`: a priced plan costs what `explain`
/// recomputes, joins only the query's tables and fits the space; a
/// refusal is `explain`'s or the space's. Returns the outcome's index in
/// [`OUTCOMES`].
fn check_price(q: &Query, pricer: &Pricer, space: PlanSpace, plan: &Plan) -> usize {
    match pricer.price(space, plan.clone()) {
        Ok(priced) => {
            let priced = priced.into_plan();
            assert_eq!(priced.ops, plan.ops);
            let root = explain(q, plan)
                .expect("a priced plan explains")
                .root()
                .cost;
            assert_eq!(priced.cost.time.to_bits(), root.time.to_bits());
            assert_eq!(priced.cost.buffer.to_bits(), root.buffer.to_bits());
            assert!(priced.tables().is_subset_of(q.all_tables()));
            assert!(space == PlanSpace::Bushy || priced.is_left_deep());
            0
        }
        Err(PriceError::Explain(e)) => {
            assert_eq!(explain(q, plan).err(), Some(e));
            match e {
                ExplainError::Shape(_) => 1,
                ExplainError::UnknownTable { .. } => 2,
                ExplainError::Inapplicable { .. } => 3,
            }
        }
        Err(PriceError::NotLeftDeep) => {
            assert!(space == PlanSpace::Linear && !plan.is_left_deep());
            4
        }
    }
}

/// What pricing a decoded plan can end in.
const OUTCOMES: [&str; 5] = [
    "priced",
    "Shape",
    "UnknownTable",
    "Inapplicable",
    "NotLeftDeep",
];

#[test]
fn decoded_reply_plans_price_or_fail_typed() {
    let mut rng = Rng(0x5eed_f00d_b0de);
    let mut seen = [0u64; OUTCOMES.len()];
    for _ in 0..cases(512) {
        let n = 1 + rng.below(8) as usize;
        let graph = JoinGraph::ALL[rng.below(4) as usize];
        let q =
            WorkloadGenerator::new(WorkloadConfig::with_graph(n, graph), rng.next()).next_query();
        let pricer = Pricer::new(&q);
        let Ok(WorkerMsg::Reply(reply)) = WorkerMsg::from_bytes(&hostile_bytes(&mut rng, &q))
        else {
            continue;
        };
        for plan in &reply.plans {
            assert!(plan.cost.time.is_nan(), "a decoded plan is unpriced");
            for space in [PlanSpace::Linear, PlanSpace::Bushy] {
                seen[check_price(&q, &pricer, space, plan)] += 1;
            }
        }
    }
    // The decoder admits no malformed tree, so `explain` never sees one;
    // at the default count the generator reaches every other outcome.
    assert_eq!(seen[1], 0, "{OUTCOMES:?}: {seen:?}");
    if cases(512) >= 512 {
        assert!(
            [0, 2, 3, 4].iter().all(|&i| seen[i] > 0),
            "{OUTCOMES:?}: {seen:?}"
        );
    }
}
