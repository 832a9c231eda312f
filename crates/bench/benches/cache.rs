//! Result-cache admission: how many submissions of a skewed stream still
//! reach the optimizer?
//!
//! Question: the facade's result cache decides which queries of a
//! repetitive stream reach the dynamic program at all. Once full, it
//! admits a result only on its key's second offer, so a query seen once
//! cannot evict a result that repeats. The stream has the shape of
//! `benchmark/`'s `stream_zipf`: 64 hot 8-table `paper_default` queries
//! drawn Zipf(s = 1.1), plus 5 % fresh cold queries that never recur,
//! against a 19 KiB budget (49 results of 390 B: a 94 B plan and its
//! 296 B key). Each submission is keyed and
//! probed, and on a miss the serial optimum is offered to the cache — the
//! facade's probe-then-insert order with one query in flight. Every id is
//! an exact count: `cache_misses` is the number of submissions that need
//! an optimization, and `cache_declined` and `cache_evictions` say how
//! the budget was kept.

use mpq_bench::{print_table, BenchReport};
use mpq_cost::Objective;
use mpq_dp::{optimize_serial, result_key, PlanCache};
use mpq_model::{Query, WorkloadConfig, WorkloadGenerator};
use mpq_partition::PlanSpace;

const SUBMISSIONS: usize = 20_000;
const TABLES: usize = 8;
const HOT: usize = 64;
const ZIPF_S: f64 = 1.1;
const COLD_SHARE: f64 = 0.05;
const BUDGET: usize = 19 * 1024;

/// SplitMix64: a seeded, dependency-free source for the Zipf draws.
struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Cumulative Zipf(s) over ranks `0..n`, for inverse-CDF draws.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|rank| (rank as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn main() {
    let (space, objective) = (PlanSpace::Linear, Objective::Single);
    let config = WorkloadConfig::paper_default(TABLES);
    let hot: Vec<Query> = WorkloadGenerator::new(config.clone(), 31).batch(HOT);
    let hot_plans: Vec<_> = hot
        .iter()
        .map(|q| optimize_serial(q, space, objective).plans)
        .collect();
    let mut cold = WorkloadGenerator::new(config, 32);
    let cdf = zipf_cdf(HOT, ZIPF_S);
    let mut rng = Rng(33);

    let mut cache = PlanCache::new(BUDGET);
    let mut cold_submissions = 0u64;
    for _ in 0..SUBMISSIONS {
        let fresh;
        let (query, rank) = if rng.next_f64() < COLD_SHARE {
            cold_submissions += 1;
            fresh = cold.next_query();
            (&fresh, None)
        } else {
            let u = rng.next_f64();
            let rank = cdf.partition_point(|&c| c <= u).min(HOT - 1);
            (&hot[rank], Some(rank))
        };
        let key = result_key(query, space, objective);
        match (cache.get(&key), rank) {
            (Some(plans), Some(rank)) => assert_eq!(plans, hot_plans[rank], "a hit is the optimum"),
            (Some(_), None) => panic!("a fresh cold query cannot hit"),
            (None, Some(rank)) => cache.insert(key, hot_plans[rank].clone()),
            (None, None) => cache.insert(key, optimize_serial(query, space, objective).plans),
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses, SUBMISSIONS as u64);
    assert!(stats.bytes <= stats.capacity_bytes);

    let mut report = BenchReport::new("cache");
    report
        .config("submissions", SUBMISSIONS)
        .config("tables", TABLES)
        .config("hot_queries", HOT)
        .config("zipf_s", ZIPF_S)
        .config("cold_share", COLD_SHARE)
        .config("budget_bytes", BUDGET)
        .exact("cache_misses", "count", stats.misses as f64)
        .exact("cache_declined", "count", stats.declined as f64)
        .exact("cache_evictions", "count", stats.evictions as f64);
    print_table(
        "result cache on a Zipf(1.1) stream: 64 hot 8-table queries + 5 % cold, 19 KiB",
        &[
            "submissions",
            "cold",
            "hits",
            "misses",
            "hit ratio",
            "declined",
            "evictions",
            "resident",
        ],
        &[vec![
            SUBMISSIONS.to_string(),
            cold_submissions.to_string(),
            stats.hits.to_string(),
            stats.misses.to_string(),
            format!("{:.3}", stats.hit_rate()),
            stats.declined.to_string(),
            stats.evictions.to_string(),
            stats.entries.to_string(),
        ]],
    );
    report.write();
}
