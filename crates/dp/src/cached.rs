//! Cache-consulting wrappers around the partition optimizers.
//!
//! Every wrapper consults a caller-owned [`PlanCache`] before running the
//! dynamic program and populates it afterwards. Keys extend the canonical
//! query signature ([`mpq_plan::query_signature`]) with an **engine tag**
//! (bottom-up vs top-down — the two enumerators agree on costs, but a
//! cache entry must only ever be served back to the engine that produced
//! it, so hits are byte-identical to recomputation), the plan space, the
//! objective, and the partition scope `(part_id, partitions)`.
//!
//! On a hit the returned [`PartitionOutcome`] carries the cached plans
//! verbatim and zeroed work counters — the saved work is the point; the
//! boolean in the return value tells the caller which path was taken so
//! shard-local hit/miss accounting stays exact.

use crate::arena::optimize_partition;
use crate::topdown::optimize_partition_topdown;
use crate::worker::PartitionOutcome;
use crate::WorkerStats;
use mpq_cost::Objective;
use mpq_model::Query;
use mpq_partition::{partition_constraints, PlanSpace};
use mpq_plan::cache::{query_signature, CacheKey, CacheKeyBuilder, MemoCache};
use mpq_plan::Plan;

/// The plan-level cross-query cache: canonical subproblem key → finished
/// partition-optimal plan(s).
pub type PlanCache = MemoCache<Vec<Plan>>;

/// Engine tag for the bottom-up dynamic program (Algorithm 2).
const ENGINE_BOTTOM_UP: u8 = 0;
/// Engine tag for the memoized top-down enumerator.
const ENGINE_TOP_DOWN: u8 = 1;

/// Appends the `(plan space, objective)` scope tags to a cache key: the
/// one shared encoding for every engine's keys (the SMA worker reuses it
/// for its memo-slot keys), so the scope format cannot drift between
/// engines.
pub fn push_scope(b: &mut CacheKeyBuilder, space: PlanSpace, objective: Objective) {
    b.push_u8(match space {
        PlanSpace::Linear => 0,
        PlanSpace::Bushy => 1,
    });
    match objective {
        Objective::Single => b.push_u8(0),
        Objective::Multi { alpha } => {
            b.push_u8(1);
            b.push_f64(alpha);
        }
    }
}

/// Builds the full cache key for one partition subproblem.
pub fn partition_cache_key(
    query: &Query,
    engine: u8,
    space: PlanSpace,
    objective: Objective,
    part_id: u64,
    partitions: u64,
) -> CacheKey {
    let mut b = query_signature(query);
    b.push_u8(engine);
    push_scope(&mut b, space, objective);
    b.push_u64(part_id);
    b.push_u64(partitions);
    b.finish()
}

/// The one probe → run → insert body behind every wrapper. Returns the
/// outcome and whether it was served from the cache.
fn through_cache(
    cache: &mut PlanCache,
    key: impl FnOnce() -> CacheKey,
    run: impl FnOnce() -> PartitionOutcome,
) -> (PartitionOutcome, bool) {
    if !cache.is_enabled() {
        // No key construction, no plan clone: the disabled path is the
        // pre-cache hot path, byte for byte.
        return (run(), false);
    }
    let key = key();
    if let Some(plans) = cache.get(&key) {
        let stats = WorkerStats::default();
        return (PartitionOutcome { plans, stats }, true);
    }
    let out = run();
    cache.insert(key, out.plans.clone());
    (out, false)
}

/// [`crate::optimize_partition_id`] through the cache. Returns the outcome
/// and whether it was served from the cache.
pub fn optimize_partition_id_cached(
    query: &Query,
    space: PlanSpace,
    objective: Objective,
    part_id: u64,
    partitions: u64,
    cache: &mut PlanCache,
) -> (PartitionOutcome, bool) {
    through_cache(
        cache,
        || {
            partition_cache_key(
                query,
                ENGINE_BOTTOM_UP,
                space,
                objective,
                part_id,
                partitions,
            )
        },
        || {
            let constraints = partition_constraints(query.num_tables(), space, part_id, partitions);
            optimize_partition(query, space, objective, &constraints)
        },
    )
}

/// [`crate::optimize_serial`] through the cache: the unconstrained
/// partition `0 of 1`, so serial entries and `(0, 1)` partition entries
/// are the same entries. Returns the outcome and whether it was served
/// from the cache.
pub fn optimize_serial_cached(
    query: &Query,
    space: PlanSpace,
    objective: Objective,
    cache: &mut PlanCache,
) -> (PartitionOutcome, bool) {
    optimize_partition_id_cached(query, space, objective, 0, 1, cache)
}

/// [`optimize_partition_topdown`] through the cache, for the partition
/// `part_id` of `partitions`. Returns the outcome and whether it was
/// served from the cache.
pub fn optimize_partition_topdown_cached(
    query: &Query,
    space: PlanSpace,
    objective: Objective,
    part_id: u64,
    partitions: u64,
    cache: &mut PlanCache,
) -> (PartitionOutcome, bool) {
    through_cache(
        cache,
        || {
            partition_cache_key(
                query,
                ENGINE_TOP_DOWN,
                space,
                objective,
                part_id,
                partitions,
            )
        },
        || {
            let constraints = partition_constraints(query.num_tables(), space, part_id, partitions);
            optimize_partition_topdown(query, space, objective, &constraints)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{optimize_partition_id, optimize_serial};
    use mpq_model::{TableStats, WorkloadConfig, WorkloadGenerator};

    fn query(n: usize, seed: u64) -> Query {
        WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query()
    }

    #[test]
    fn warm_hit_is_byte_identical_to_cold_computation() {
        let mut cache = PlanCache::new(1 << 20);
        for seed in 0..4 {
            let q = query(6, seed);
            for space in [PlanSpace::Linear, PlanSpace::Bushy] {
                let (cold, hit) = optimize_serial_cached(&q, space, Objective::Single, &mut cache);
                assert!(!hit);
                let (warm, hit) = optimize_serial_cached(&q, space, Objective::Single, &mut cache);
                assert!(hit);
                assert_eq!(cold.plans, warm.plans, "hits must be byte-identical");
            }
        }
        assert_eq!(cache.stats().hits, 8);
    }

    #[test]
    fn partitions_cache_independently() {
        let mut cache = PlanCache::new(1 << 20);
        let q = query(6, 9);
        for part in 0..4 {
            let (_, hit) = optimize_partition_id_cached(
                &q,
                PlanSpace::Linear,
                Objective::Single,
                part,
                4,
                &mut cache,
            );
            assert!(!hit, "distinct partitions must not alias");
        }
        let (out, hit) = optimize_partition_id_cached(
            &q,
            PlanSpace::Linear,
            Objective::Single,
            2,
            4,
            &mut cache,
        );
        assert!(hit);
        let fresh = optimize_partition_id(&q, PlanSpace::Linear, Objective::Single, 2, 4);
        assert_eq!(out.plans, fresh.plans);
    }

    #[test]
    fn serial_and_partition_zero_of_one_share_entries() {
        let mut cache = PlanCache::new(1 << 20);
        let (a, b) = (query(5, 21), query(5, 22));
        let (space, obj) = (PlanSpace::Bushy, Objective::Single);
        let (cold, hit) = optimize_serial_cached(&a, space, obj, &mut cache);
        assert!(!hit);
        let (warm, hit) = optimize_partition_id_cached(&a, space, obj, 0, 1, &mut cache);
        assert!(hit, "partition 0 of 1 is the serial problem");
        assert_eq!(warm.plans, cold.plans);
        // And the other way round.
        let (cold, hit) = optimize_partition_id_cached(&b, space, obj, 0, 1, &mut cache);
        assert!(!hit);
        let (warm, hit) = optimize_serial_cached(&b, space, obj, &mut cache);
        assert!(hit);
        assert_eq!(warm.plans, cold.plans);
    }

    #[test]
    fn engines_never_share_entries() {
        let mut cache = PlanCache::new(1 << 20);
        let q = query(5, 3);
        let (_, hit) = optimize_serial_cached(&q, PlanSpace::Linear, Objective::Single, &mut cache);
        assert!(!hit);
        let (td, hit) = optimize_partition_topdown_cached(
            &q,
            PlanSpace::Linear,
            Objective::Single,
            0,
            1,
            &mut cache,
        );
        assert!(!hit, "top-down must not consume a bottom-up entry");
        assert_eq!(
            td.plans[0].cost().time,
            optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0]
                .cost()
                .time
        );
    }

    #[test]
    fn epoch_bump_with_identical_stats_misses() {
        let mut cache = PlanCache::new(1 << 20);
        let q = query(5, 11);
        let (_, hit) = optimize_serial_cached(&q, PlanSpace::Linear, Objective::Single, &mut cache);
        assert!(!hit);
        let mut bumped = q.clone();
        bumped.catalog.bump_epoch();
        let (_, hit) =
            optimize_serial_cached(&bumped, PlanSpace::Linear, Objective::Single, &mut cache);
        assert!(
            !hit,
            "a mutation epoch makes pre-mutation entries unreachable even \
             when the statistics bits are unchanged"
        );
    }

    #[test]
    fn stats_mutation_misses_and_recomputes() {
        let mut cache = PlanCache::new(1 << 20);
        let q = query(5, 12);
        let (cold, _) =
            optimize_serial_cached(&q, PlanSpace::Linear, Objective::Single, &mut cache);
        let mut mutated = q.clone();
        mutated
            .catalog
            .set_stats(0, TableStats::with_cardinality(123_456.0));
        let (fresh, hit) =
            optimize_serial_cached(&mutated, PlanSpace::Linear, Objective::Single, &mut cache);
        assert!(!hit);
        let reference = optimize_serial(&mutated, PlanSpace::Linear, Objective::Single);
        assert_eq!(fresh.plans, reference.plans);
        // The original query still hits its own (pre-mutation) entry —
        // entries are per-catalog-state, not globally invalidated.
        let (warm, hit) =
            optimize_serial_cached(&q, PlanSpace::Linear, Objective::Single, &mut cache);
        assert!(hit);
        assert_eq!(warm.plans, cold.plans);
    }
}
