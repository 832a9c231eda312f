//! Cache keys of finished optimization results.
//!
//! The service facade keeps the one cross-query cache: a [`PlanCache`]
//! from [`result_key`] — the canonical query signature
//! ([`mpq_plan::query_signature`]) scoped by plan space and objective — to
//! the finished plans. The key is the identity in-flight coalescing joins
//! on too, so "the same query" means one thing everywhere.
//!
//! [`partition_cache_key`] scopes the signature further by an engine tag
//! and a partition range. No engine caches partitions any more; the key
//! stays public only because the frozen `benchmark/` replays its recorded
//! task stream through it.

use mpq_cost::Objective;
use mpq_model::Query;
use mpq_partition::PlanSpace;
use mpq_plan::cache::{
    query_signature, query_signature_with_room, CacheKey, CacheKeyBuilder, MemoCache,
};
use mpq_plan::Plan;

/// The cross-query cache of finished results: [`result_key`] → the plans
/// a backend answered with.
pub type PlanCache = MemoCache<Vec<Plan>>;

/// Appends the `(plan space, objective)` scope tags to a cache key: the
/// one shared encoding of the scope, so it cannot drift between keys.
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

/// Bytes [`push_scope`] appends: a space tag and an objective tag, plus
/// the α bits of a multi-objective scope.
fn scope_bytes(objective: Objective) -> usize {
    match objective {
        Objective::Single => 2,
        Objective::Multi { .. } => 10,
    }
}

/// The key of a finished result: the query's canonical signature scoped
/// by plan space and objective, built in one allocation.
pub fn result_key(query: &Query, space: PlanSpace, objective: Objective) -> CacheKey {
    let mut b = query_signature_with_room(query, scope_bytes(objective));
    push_scope(&mut b, space, objective);
    b.finish()
}

/// The key of one partition subproblem under an engine tag. Kept only for
/// the frozen `benchmark/`, whose cache replay keys partitions this way.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::optimize_serial;
    use mpq_model::{TableStats, WorkloadConfig, WorkloadGenerator};

    fn query(n: usize, seed: u64) -> Query {
        WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query()
    }

    /// Serves `query` from `cache` or computes and inserts it, the way
    /// the facade does; returns the plans and whether they were a hit.
    fn through(cache: &mut PlanCache, query: &Query, space: PlanSpace) -> (Vec<Plan>, bool) {
        let key = result_key(query, space, Objective::Single);
        if let Some(plans) = cache.get(&key) {
            return (plans, true);
        }
        let plans = optimize_serial(query, space, Objective::Single).plans;
        cache.insert(key, plans.clone());
        (plans, false)
    }

    #[test]
    fn warm_hit_is_byte_identical_to_cold_computation() {
        let mut cache = PlanCache::new(1 << 20);
        for seed in 0..4 {
            // A clone keys identically: the key is the query's content.
            let q = query(6, seed);
            for space in [PlanSpace::Linear, PlanSpace::Bushy] {
                let (cold, hit) = through(&mut cache, &q, space);
                assert!(!hit);
                let (warm, hit) = through(&mut cache, &q.clone(), space);
                assert!(hit);
                assert_eq!(cold, warm, "hits must be byte-identical");
            }
        }
        assert_eq!(cache.stats().hits, 8);
    }

    #[test]
    fn partitions_cache_independently() {
        let q = query(6, 9);
        let key = |part| partition_cache_key(&q, 0, PlanSpace::Linear, Objective::Single, part, 4);
        let keys: Vec<CacheKey> = (0..4).map(key).collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "distinct partitions must not alias");
            }
        }
        assert_eq!(keys[2], key(2));
    }

    #[test]
    fn engines_never_share_entries() {
        let q = query(5, 3);
        let (space, objective) = (PlanSpace::Linear, Objective::Single);
        let bottom_up = partition_cache_key(&q, 0, space, objective, 0, 1);
        let top_down = partition_cache_key(&q, 1, space, objective, 0, 1);
        assert_ne!(bottom_up, top_down);
        // Nor does a partition key alias the facade's result key.
        let result = result_key(&q, space, objective);
        assert_ne!(result, bottom_up);
        assert_ne!(result, top_down);
    }

    #[test]
    fn epoch_bump_with_identical_stats_misses() {
        let mut cache = PlanCache::new(1 << 20);
        let q = query(5, 11);
        let (_, hit) = through(&mut cache, &q, PlanSpace::Linear);
        assert!(!hit);
        let mut bumped = q.clone();
        bumped.catalog.bump_epoch();
        let (_, hit) = through(&mut cache, &bumped, PlanSpace::Linear);
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
        let (cold, _) = through(&mut cache, &q, PlanSpace::Linear);
        let mut mutated = q.clone();
        mutated
            .catalog
            .set_stats(0, TableStats::with_cardinality(123_456.0));
        let (fresh, hit) = through(&mut cache, &mutated, PlanSpace::Linear);
        assert!(!hit);
        let reference = optimize_serial(&mutated, PlanSpace::Linear, Objective::Single);
        assert_eq!(fresh, reference.plans);
        // The original query still hits its own (pre-mutation) entry —
        // entries are per-catalog-state, not globally invalidated.
        let (warm, hit) = through(&mut cache, &q, PlanSpace::Linear);
        assert!(hit);
        assert_eq!(warm, cold);
    }

    /// The key of one fixed 8-table query, pinned: flight-table order and
    /// the model-check fingerprints depend on the key bytes and their
    /// hash, so any change to either must be deliberate.
    #[test]
    fn result_key_is_pinned_for_a_fixed_query() {
        let q = query(8, 1);
        let key = result_key(&q, PlanSpace::Linear, Objective::Single);
        assert_eq!(key.bytes().len(), 296);
        assert_eq!(key.hash(), 0x8e0b_80f2_1070_121f);
        let multi = result_key(&q, PlanSpace::Bushy, Objective::Multi { alpha: 2.0 });
        assert_eq!(multi.bytes().len(), 304);
        assert_eq!(multi.hash(), 0xfa75_81bb_b5eb_8c89);
    }

    #[test]
    fn objective_and_space_scope_the_result_key() {
        let q = query(5, 13);
        let keys = [
            result_key(&q, PlanSpace::Linear, Objective::Single),
            result_key(&q, PlanSpace::Bushy, Objective::Single),
            result_key(&q, PlanSpace::Linear, Objective::Multi { alpha: 2.0 }),
            result_key(&q, PlanSpace::Linear, Objective::Multi { alpha: 4.0 }),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
