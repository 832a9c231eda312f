//! The cross-query cache.
//!
//! The paper's analysis assumes every query pays the full dynamic-
//! programming bill. Real query streams are heavily repetitive — the same
//! table sets and predicate shapes recur across sessions — so a resident
//! optimizer can amortize *optimization itself* by caching finished
//! results (optimal plans and Pareto frontiers) across queries. This
//! module provides the machinery:
//!
//! * [`CacheKey`] / [`CacheKeyBuilder`] — collision-proof canonical keys.
//!   [`query_signature`] canonicalizes a query into a key prefix covering
//!   the cost-model version, the catalog **statistics epoch** (see
//!   `Catalog::epoch` in `mpq_model`), every table's statistics bits, and
//!   the join-predicate signature (orientation-canonicalized). Callers
//!   append a scope — plan space and objective — so entries are only ever
//!   served to byte-identical requests.
//! * [`MemoCache`] — a byte-budgeted LRU map from keys to cached values
//!   (`Vec<Plan>`: the service facade's finished results), each entry
//!   charged its value's weight plus its key's canonical bytes, with a
//!   second-request admission rule once full: a key the cache has not
//!   refused before is refused once, its hash remembered in a small
//!   *ghost list*, and admitted — evicting the LRU entry — on its next
//!   insert. One-time queries then never displace results that repeat. A
//!   budget of zero disables the cache entirely, which is the default
//!   everywhere: caching is opt-in.
//! * [`CacheStats`] — hit/miss/eviction/declined/bytes-saved counters
//!   surfaced through the service layer.
//!
//! **Transparency contract.** A cache hit must be byte-identical to
//! recomputation. Three design rules enforce this: keys store their full
//! canonical bytes and compare them on lookup (a 64-bit hash collision
//! degrades to a miss, never a wrong value); the statistics epoch and the
//! raw statistics bits are both part of the signature, so any catalog
//! mutation makes stale entries structurally unreachable; and predicate
//! *order* is deliberately part of the signature (floating-point
//! selectivity products are rounding-order sensitive), while predicate
//! *orientation* — provably symmetric in the estimator — is canonicalized.

use crate::tree::{Plan, PlanOp};
use mpq_model::Query;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::mem::size_of;

/// Version of the cost-model parameters baked into every cache key. Bump
/// this whenever a cost formula or operator constant changes, so caches
/// never serve entries computed under an older model.
pub const COST_MODEL_VERSION: u64 = 1;

/// A collision-proof cache key: a 64-bit hash for bucketing plus the full
/// canonical byte string for equality (hash collisions degrade to misses,
/// never to wrong values).
///
/// Keys are totally ordered (hash first, then canonical bytes) and
/// hashable, so they double as map keys outside the [`MemoCache`] — the
/// service layer's in-flight coalescing tables key coalitions by exactly
/// this canonical identity, reusing "identical query" as the cache
/// defines it rather than re-deriving it.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    hash: u64,
    bytes: Vec<u8>,
}

impl CacheKey {
    /// The key's bucket hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The full canonical byte string (the equality witness behind the
    /// hash).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Incremental builder of a [`CacheKey`]'s canonical byte string.
#[derive(Clone, Debug, Default)]
pub struct CacheKeyBuilder {
    bytes: Vec<u8>,
}

impl CacheKeyBuilder {
    /// Starts an empty key.
    pub fn new() -> CacheKeyBuilder {
        CacheKeyBuilder::default()
    }

    /// Starts an empty key with room for `bytes` canonical bytes, so a
    /// key whose length is known up front is built in one allocation.
    pub fn with_capacity(bytes: usize) -> CacheKeyBuilder {
        CacheKeyBuilder {
            bytes: Vec::with_capacity(bytes),
        }
    }

    /// Appends one byte.
    pub fn push_u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    /// Appends a little-endian u64.
    pub fn push_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an f64 by its exact bit pattern (cache keys must
    /// distinguish values that differ in any bit).
    pub fn push_f64(&mut self, v: f64) {
        self.push_u64(v.to_bits());
    }

    /// Finalizes the key, hashing the canonical bytes (FNV-1a).
    pub fn finish(self) -> CacheKey {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in &self.bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        CacheKey {
            hash,
            bytes: self.bytes,
        }
    }
}

/// Canonicalizes `query` into a key-prefix builder: cost-model version,
/// statistics epoch, per-table statistics bits, and the join-predicate
/// signature. Append an engine/space/objective/subproblem scope and call
/// [`CacheKeyBuilder::finish`] to obtain the full key.
///
/// Canonicalization: predicate endpoints are ordered `(min, max)` — the
/// estimator treats predicates symmetrically, so orientation cannot affect
/// results — but predicate *order* is preserved, because selectivity
/// products are floating-point and therefore rounding-order sensitive.
pub fn query_signature(query: &Query) -> CacheKeyBuilder {
    query_signature_with_room(query, 0)
}

/// [`query_signature`] with room reserved for `scope_bytes` more bytes:
/// the whole key, signature and scope, then takes one allocation.
pub fn query_signature_with_room(query: &Query, scope_bytes: usize) -> CacheKeyBuilder {
    // Three u64 headers, two f64 statistics per table, the predicate
    // count, and two endpoint bytes plus an f64 per predicate.
    let len = 3 * 8 + 16 * query.num_tables() + 8 + 10 * query.predicates.len();
    let mut b = CacheKeyBuilder::with_capacity(len + scope_bytes);
    b.push_u64(COST_MODEL_VERSION);
    b.push_u64(query.catalog.epoch());
    b.push_u64(query.num_tables() as u64);
    for (_, stats) in query.catalog.iter() {
        b.push_f64(stats.cardinality);
        b.push_f64(stats.tuple_bytes);
    }
    b.push_u64(query.predicates.len() as u64);
    for p in &query.predicates {
        b.push_u8(p.left.min(p.right) as u8);
        b.push_u8(p.left.max(p.right) as u8);
        b.push_f64(p.selectivity);
    }
    b
}

/// Resident size of a cached value, charged against the LRU byte budget
/// together with its key's canonical bytes.
pub trait CacheWeight {
    /// Bytes this value occupies in the cache.
    fn weight_bytes(&self) -> usize;
}

impl CacheWeight for Vec<Plan> {
    /// The vector, each plan and each plan's operators, by `size_of`: an
    /// 8-table result — one plan of 15 operators — weighs 94 B.
    fn weight_bytes(&self) -> usize {
        size_of::<Vec<Plan>>()
            + self
                .iter()
                .map(|p| size_of::<Plan>() + p.ops.len() * size_of::<PlanOp>())
                .sum::<usize>()
    }
}

/// Point-in-time counters of one [`MemoCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to computation.
    pub misses: u64,
    /// Values inserted.
    pub insertions: u64,
    /// Values evicted to stay within the byte budget.
    pub evictions: u64,
    /// Inserts refused by the admission rule: the cache was full and the
    /// key had not been refused before, so its hash went onto the ghost
    /// list instead of evicting anything.
    pub declined: u64,
    /// Inserts skipped because the value alone exceeded the whole byte
    /// budget (distinct from evictions: nothing resident was displaced).
    pub skipped_inserts: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Bytes currently resident: each entry's value weight plus its key
    /// bytes.
    pub bytes: u64,
    /// The configured byte budget (0 = disabled).
    pub capacity_bytes: u64,
    /// Cumulative weight of values served from the cache (their keys not
    /// counted) — the results the cache saved recomputing.
    pub bytes_saved: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when the cache saw none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Slot<V> {
    key_bytes: Vec<u8>,
    value: V,
    /// The value's weight plus the key bytes: what the entry is charged.
    weight: usize,
    tick: u64,
}

/// A byte-budgeted LRU cache from canonical [`CacheKey`]s to finished memo
/// values, with second-request admission once full. Single-owner by
/// design: the service cache lives inside one service — no locking.
///
/// **Admission.** While the budget has room every insert is admitted.
/// Once an insert of a key that is not resident would force an eviction,
/// the key is admitted only if its hash is on the *ghost list* — the
/// hashes of keys refused before. An admitted hash leaves the list and
/// LRU eviction makes room as usual; any other key is refused
/// ([`CacheStats::declined`]), its hash is appended to the list, and
/// nothing resident moves. A value asked for once while the cache is full
/// therefore never displaces one that repeats.
///
/// **Charge.** An entry costs its value's [`CacheWeight`] plus its key's
/// canonical bytes (296 B for an 8-table single-objective key): a
/// finished plan weighs about a hundred bytes, so the key is a large part
/// of what an entry holds.
///
/// The ghost list holds hashes only, first in first out, with exact
/// membership, and never more of them than there are resident entries.
/// Like the LRU order map, it is not charged to the byte budget. A hash
/// collision can change an admission decision, never a served value:
/// lookups compare the full key bytes.
pub struct MemoCache<V> {
    budget: usize,
    map: HashMap<u64, Slot<V>>,
    /// LRU order: tick → key hash. Ticks are unique (monotone counter).
    order: BTreeMap<u64, u64>,
    /// Hashes of refused keys, oldest first. A linear scan finds one: the
    /// list is never longer than the resident entry count, and a scan
    /// runs only on an insert into a full cache, after a miss.
    ghost: VecDeque<u64>,
    tick: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    declined: u64,
    skipped_inserts: u64,
    bytes_saved: u64,
}

impl<V: CacheWeight + Clone> MemoCache<V> {
    /// Creates a cache with the given byte budget. A budget of zero
    /// disables the cache: every lookup misses (uncounted) and inserts are
    /// dropped, so a disabled cache is exactly the pre-cache behavior.
    pub fn new(budget_bytes: usize) -> MemoCache<V> {
        MemoCache {
            budget: budget_bytes,
            map: HashMap::new(),
            order: BTreeMap::new(),
            ghost: VecDeque::new(),
            tick: 0,
            bytes: 0,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
            declined: 0,
            skipped_inserts: 0,
            bytes_saved: 0,
        }
    }

    /// Whether the cache can ever store anything.
    pub fn is_enabled(&self) -> bool {
        self.budget > 0
    }

    /// Looks `key` up, refreshing its LRU position and returning a clone
    /// of the cached value on a hit. Full canonical key bytes are compared,
    /// so a hash collision is a miss, never a wrong value.
    pub fn get(&mut self, key: &CacheKey) -> Option<V> {
        if !self.is_enabled() {
            return None;
        }
        match self.map.get_mut(&key.hash) {
            Some(slot) if slot.key_bytes == key.bytes => {
                self.order.remove(&slot.tick);
                self.tick += 1;
                slot.tick = self.tick;
                self.order.insert(self.tick, key.hash);
                self.hits += 1;
                self.bytes_saved += (slot.weight - slot.key_bytes.len()) as u64;
                Some(slot.value.clone())
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts `value` under `key`, evicting least-recently-used entries
    /// until the byte budget holds — unless the admission rule (see the
    /// type docs) declines a key that would force an eviction. Entries
    /// heavier than the whole budget, key bytes included, are not stored. A resident hash
    /// bypasses admission: its entry is replaced, even by a colliding
    /// hash with different canonical bytes (keeps the map
    /// one-value-per-hash and is vanishingly rare with 64-bit hashes).
    pub fn insert(&mut self, key: CacheKey, value: V) {
        if !self.is_enabled() {
            return;
        }
        let weight = value.weight_bytes() + key.bytes.len();
        if weight > self.budget {
            // An oversize value is a *skip*, not an eviction: nothing
            // resident is displaced and the byte counter must not move.
            self.skipped_inserts += 1;
            return;
        }
        if !self.map.contains_key(&key.hash)
            && self.bytes + weight > self.budget
            && !self.admit_from_ghost(key.hash)
        {
            self.declined += 1;
            return;
        }
        if let Some(old) = self.map.remove(&key.hash) {
            self.order.remove(&old.tick);
            self.bytes -= old.weight;
        }
        self.tick += 1;
        self.map.insert(
            key.hash,
            Slot {
                key_bytes: key.bytes,
                value,
                weight,
                tick: self.tick,
            },
        );
        self.order.insert(self.tick, key.hash);
        self.bytes += weight;
        self.insertions += 1;
        while self.bytes > self.budget {
            // `bytes > 0` implies entries, and `order`/`map` stay in
            // sync; if either ever drifts, stop evicting rather than
            // panic — the cache is an accelerator, not a correctness
            // dependency.
            let Some((&tick, &hash)) = self.order.iter().next() else {
                break;
            };
            self.order.remove(&tick);
            let Some(evicted) = self.map.remove(&hash) else {
                break;
            };
            self.bytes -= evicted.weight;
            self.evictions += 1;
        }
        // Evictions may leave fewer residents than remembered hashes.
        let excess = self.ghost.len().saturating_sub(self.map.len());
        self.ghost.drain(..excess);
    }

    /// The admission decision for a key whose insert would force an
    /// eviction: `true` if its hash was refused before (it leaves the
    /// ghost list), else `false` with the hash remembered — oldest one
    /// out first if the list already matches the resident count.
    fn admit_from_ghost(&mut self, hash: u64) -> bool {
        if let Some(at) = self.ghost.iter().position(|&h| h == hash) {
            self.ghost.remove(at);
            return true;
        }
        // The cache is full, so it holds at least one entry and the
        // list keeps room for this hash after dropping the oldest.
        if self.ghost.len() >= self.map.len() {
            self.ghost.pop_front();
        }
        self.ghost.push_back(hash);
        false
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            insertions: self.insertions,
            evictions: self.evictions,
            declined: self.declined,
            skipped_inserts: self.skipped_inserts,
            entries: self.map.len() as u64,
            bytes: self.bytes as u64,
            capacity_bytes: self.budget as u64,
            bytes_saved: self.bytes_saved,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use mpq_cost::{CostVector, ScanOp};
    use mpq_model::{Catalog, JoinGraph, Predicate, TableStats};

    fn plan(time: f64) -> Vec<Plan> {
        vec![Plan {
            cost: CostVector::new(time, 0.0),
            ops: vec![PlanOp::Scan {
                table: 0,
                op: ScanOp::Full,
            }],
        }]
    }

    fn key(tag: u64) -> CacheKey {
        let mut b = CacheKeyBuilder::new();
        b.push_u64(tag);
        b.finish()
    }

    /// What one single-plan entry under a [`key`] is charged: the value
    /// and the key's eight bytes.
    fn entry_weight() -> usize {
        plan(0.0).weight_bytes() + key(0).bytes().len()
    }

    #[test]
    fn weight_is_the_size_of_what_the_value_holds() {
        // One scan: the vector, the plan, one operator.
        assert_eq!(
            plan(0.0).weight_bytes(),
            size_of::<Vec<Plan>>() + size_of::<Plan>() + size_of::<PlanOp>()
        );
        // A complete plan over n tables has 2n - 1 operators.
        let join = PlanOp::Join {
            op: mpq_cost::JoinOp::Hash,
        };
        let mut eight = plan(0.0);
        eight[0].ops.extend([plan(0.0)[0].ops[0], join].repeat(7));
        assert_eq!(
            eight.weight_bytes() - plan(0.0).weight_bytes(),
            14 * size_of::<PlanOp>()
        );
    }

    #[test]
    fn an_entry_is_charged_its_key_bytes() {
        let mut c: MemoCache<Vec<Plan>> = MemoCache::new(1 << 20);
        let mut long = CacheKeyBuilder::new();
        for tag in 0..37 {
            long.push_u64(tag);
        }
        c.insert(key(1), plan(1.0));
        c.insert(long.finish(), plan(2.0));
        let value = plan(0.0).weight_bytes() as u64;
        assert_eq!(c.stats().bytes, (value + 8) + (value + 296));
        // A hit saves the value, not the key.
        c.get(&key(1)).unwrap();
        assert_eq!(c.stats().bytes_saved, value);
        // A budget with room for the value alone declines the entry.
        let mut tight: MemoCache<Vec<Plan>> = MemoCache::new(value as usize + 7);
        tight.insert(key(1), plan(1.0));
        assert_eq!(tight.stats().skipped_inserts, 1);
    }

    fn query(selectivities: &[(usize, usize, f64)], epoch_bumps: u64) -> Query {
        let mut catalog = Catalog::from_stats(vec![
            TableStats::with_cardinality(10.0),
            TableStats::with_cardinality(20.0),
            TableStats::with_cardinality(30.0),
        ]);
        for _ in 0..epoch_bumps {
            catalog.bump_epoch();
        }
        Query {
            catalog,
            predicates: selectivities
                .iter()
                .map(|&(left, right, selectivity)| Predicate {
                    left,
                    right,
                    selectivity,
                })
                .collect(),
            graph: JoinGraph::Star,
        }
    }

    #[test]
    fn hit_returns_inserted_value() {
        let mut c: MemoCache<Vec<Plan>> = MemoCache::new(1 << 20);
        assert!(c.get(&key(1)).is_none());
        c.insert(key(1), plan(5.0));
        assert_eq!(c.get(&key(1)).unwrap()[0].cost().time, 5.0);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert!(s.bytes_saved > 0);
    }

    #[test]
    fn disabled_cache_never_stores() {
        let mut c: MemoCache<Vec<Plan>> = MemoCache::new(0);
        assert!(!c.is_enabled());
        c.insert(key(1), plan(5.0));
        assert!(c.get(&key(1)).is_none());
        let s = c.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.hits + s.misses, 0, "disabled lookups are uncounted");
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let weight = entry_weight();
        let mut c: MemoCache<Vec<Plan>> = MemoCache::new(2 * weight);
        c.insert(key(1), plan(1.0));
        c.insert(key(2), plan(2.0));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(&key(1)).is_some());
        // The full cache declines 3's first sighting and admits its
        // second, which evicts the LRU entry.
        c.insert(key(3), plan(3.0));
        assert_eq!((c.stats().declined, c.stats().evictions), (1, 0));
        c.insert(key(3), plan(3.0));
        assert!(c.get(&key(2)).is_none(), "2 was least recently used");
        assert!(c.get(&key(1)).is_some());
        assert!(c.get(&key(3)).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert!(c.stats().bytes <= c.stats().capacity_bytes);
    }

    /// A full cache fed keys that never repeat keeps every resident
    /// entry: each one-time key is declined, nothing is evicted.
    #[test]
    fn full_cache_declines_keys_that_never_repeat() {
        let weight = entry_weight();
        let mut c: MemoCache<Vec<Plan>> = MemoCache::new(3 * weight);
        for tag in 0..3u64 {
            c.insert(key(tag), plan(tag as f64));
        }
        const N: u64 = 40;
        for tag in 100..100 + N {
            c.insert(key(tag), plan(tag as f64));
        }
        let s = c.stats();
        assert_eq!((s.declined, s.evictions), (N, 0));
        assert_eq!((s.insertions, s.entries), (3, 3));
        assert_eq!(s.bytes, 3 * weight as u64);
        for tag in 0..3u64 {
            assert!(c.get(&key(tag)).is_some(), "hot key {tag} survived");
        }
        for tag in 100..100 + N {
            assert!(
                c.get(&key(tag)).is_none(),
                "one-time key {tag} was declined"
            );
        }
    }

    /// A declined key's second insert is admitted and evicts the LRU
    /// entry; its hash leaves the ghost list, so once evicted again it
    /// must be refused once more before it returns.
    #[test]
    fn declined_key_is_admitted_on_its_second_insert() {
        let weight = entry_weight();
        let mut c: MemoCache<Vec<Plan>> = MemoCache::new(2 * weight);
        c.insert(key(1), plan(1.0));
        c.insert(key(2), plan(2.0));
        c.insert(key(3), plan(3.0));
        assert!(c.get(&key(3)).is_none(), "first sighting declined");
        assert_eq!(Vec::from(c.ghost.clone()), vec![key(3).hash()]);
        c.insert(key(3), plan(3.0));
        assert!(c.ghost.is_empty(), "the admitted hash left the list");
        assert!(c.get(&key(1)).is_none(), "1 was least recently used");
        assert_eq!(c.get(&key(3)).unwrap()[0].cost().time, 3.0);
        // 2 is now the LRU entry: 4 evicts it on its second insert.
        c.insert(key(4), plan(4.0));
        c.insert(key(4), plan(4.0));
        assert!(c.get(&key(2)).is_none());
        // 1 was admitted before, but its hash is no longer remembered.
        c.insert(key(1), plan(1.0));
        assert!(
            c.get(&key(1)).is_none(),
            "a returning key is declined again"
        );
        let s = c.stats();
        assert_eq!((s.declined, s.evictions, s.insertions), (3, 2, 4));
    }

    /// The ghost list is first in first out and never holds more hashes
    /// than there are resident entries — also after one admission evicts
    /// several entries.
    #[test]
    fn ghost_list_never_outgrows_the_resident_entries() {
        let weight = entry_weight();
        let mut c: MemoCache<Vec<Plan>> = MemoCache::new(4 * weight);
        let check = |c: &MemoCache<Vec<Plan>>| {
            assert!(
                c.ghost.len() <= c.map.len(),
                "{} > {}",
                c.ghost.len(),
                c.map.len()
            );
        };
        for tag in 0..4u64 {
            c.insert(key(tag), plan(tag as f64));
            check(&c);
        }
        for tag in 10..20u64 {
            c.insert(key(tag), plan(tag as f64));
            check(&c);
        }
        let newest: Vec<u64> = (16..20u64).map(|t| key(t).hash()).collect();
        assert_eq!(
            Vec::from(c.ghost.clone()),
            newest,
            "the oldest hashes left first"
        );
        // A two-plan value needs two evictions once admitted.
        let big = || vec![plan(1.0)[0].clone(), plan(2.0)[0].clone()];
        let big_weight = big().weight_bytes() + 8;
        assert!(big_weight > weight && big_weight <= 2 * weight);
        c.insert(key(50), big());
        check(&c);
        c.insert(key(50), big());
        check(&c);
        let s = c.stats();
        assert_eq!((s.entries, s.evictions), (3, 2));
        assert_eq!(c.ghost.len(), 3, "trimmed to the three residents");
    }

    /// Re-inserting a resident key replaces it without an admission
    /// decision, even when the heavier value forces an eviction.
    #[test]
    fn reinserting_a_resident_key_bypasses_admission() {
        let weight = entry_weight();
        let mut c: MemoCache<Vec<Plan>> = MemoCache::new(2 * weight);
        c.insert(key(1), plan(1.0));
        c.insert(key(2), plan(2.0));
        c.insert(key(1), plan(10.0));
        assert_eq!(c.get(&key(1)).unwrap()[0].cost().time, 10.0);
        let heavier = vec![plan(20.0)[0].clone(), plan(21.0)[0].clone()];
        c.insert(key(2), heavier);
        let s = c.stats();
        assert_eq!((s.declined, s.evictions, s.entries), (0, 1, 1));
        assert!(c.get(&key(1)).is_none(), "1 made room for the heavier 2");
        assert_eq!(c.get(&key(2)).unwrap().len(), 2);
        assert!(c.ghost.is_empty());
    }

    /// While the budget has room every key is admitted the first time it
    /// is seen — the cache behaves exactly like a plain LRU.
    #[test]
    fn cache_with_room_admits_a_key_on_first_sight() {
        let weight = entry_weight();
        let mut c: MemoCache<Vec<Plan>> = MemoCache::new(3 * weight);
        for tag in 0..3u64 {
            c.insert(key(tag), plan(tag as f64));
            assert!(c.get(&key(tag)).is_some(), "key {tag} admitted at once");
        }
        let s = c.stats();
        assert_eq!((s.insertions, s.declined, s.evictions), (3, 0, 0));
        assert!(c.ghost.is_empty());
    }

    #[test]
    fn oversized_value_is_not_stored() {
        let mut c: MemoCache<Vec<Plan>> = MemoCache::new(8);
        c.insert(key(1), plan(1.0));
        assert_eq!(c.stats().entries, 0);
    }

    /// Regression (ISSUE 5 satellite): re-inserting an existing key must
    /// replace the slot without drifting the byte counter — the old
    /// weight comes out before the new one goes in.
    #[test]
    fn reinserting_a_key_does_not_drift_the_byte_counter() {
        let weight = entry_weight() as u64;
        let mut c: MemoCache<Vec<Plan>> = MemoCache::new(1 << 20);
        for round in 0..100 {
            c.insert(key(1), plan(round as f64));
        }
        let s = c.stats();
        assert_eq!(s.entries, 1, "one key, one slot");
        assert_eq!(s.bytes, weight, "bytes track the resident slot exactly");
        assert_eq!(s.insertions, 100);
        assert_eq!(s.evictions, 0, "replacement is not an eviction");
        // The replacement kept the newest value.
        assert_eq!(c.get(&key(1)).unwrap()[0].cost().time, 99.0);
        // A different-weight value under the same key re-accounts fully.
        let two = vec![plan(1.0)[0].clone(), plan(2.0)[0].clone()];
        let two_weight = (two.weight_bytes() + 8) as u64;
        c.insert(key(1), two);
        assert_eq!(c.stats().bytes, two_weight);
        assert_eq!(c.stats().entries, 1);
    }

    /// Regression (ISSUE 5 satellite): oversize-value inserts are counted
    /// as skips, not evictions, and leave every resident counter intact.
    #[test]
    fn oversize_inserts_count_as_skips_not_evictions() {
        let weight = entry_weight();
        let mut c: MemoCache<Vec<Plan>> = MemoCache::new(weight + weight / 2);
        c.insert(key(1), plan(1.0));
        let resident = c.stats();
        // A two-plan value exceeds the whole budget: skipped wholesale.
        let big = vec![plan(2.0)[0].clone(), plan(3.0)[0].clone()];
        assert!(big.weight_bytes() + 8 > weight + weight / 2);
        c.insert(key(2), big);
        let s = c.stats();
        assert_eq!(s.skipped_inserts, 1, "the oversize insert is a skip");
        assert_eq!(s.evictions, 0, "nothing resident was displaced");
        assert_eq!(s.declined, 0, "a skip is not an admission decision");
        assert_eq!(s.entries, resident.entries);
        assert_eq!(s.bytes, resident.bytes);
        assert!(c.get(&key(1)).is_some(), "the resident entry survived");
    }

    /// Regression (ISSUE 5 satellite): across evict-to-fit loops the
    /// stats stay exact — bytes equal the sum of resident weights, and
    /// insertions balance against evictions plus residents. Once the
    /// cache is full a key's first insert is declined, so each declined
    /// key is inserted again, and that second insert evicts the LRU entry.
    #[test]
    fn stats_stay_exact_across_evict_to_fit_loops() {
        let weight = entry_weight();
        // Room for three single-plan values.
        let mut c: MemoCache<Vec<Plan>> = MemoCache::new(3 * weight + weight / 2);
        let check = |c: &MemoCache<Vec<Plan>>, tag: u64| {
            let s = c.stats();
            assert!(s.bytes <= s.capacity_bytes, "budget holds at tag {tag}");
            assert_eq!(
                s.bytes,
                s.entries * weight as u64,
                "bytes are the exact sum of resident weights at tag {tag}"
            );
            assert_eq!(
                s.insertions,
                s.evictions + s.entries,
                "every insert is resident or evicted at tag {tag}"
            );
        };
        for tag in 0..50u64 {
            let declined = c.stats().declined;
            c.insert(key(tag), plan(tag as f64));
            check(&c, tag);
            if c.stats().declined > declined {
                c.insert(key(tag), plan(tag as f64));
                check(&c, tag);
            }
        }
        let s = c.stats();
        assert_eq!(s.entries, 3);
        assert_eq!(s.evictions, 47);
        assert_eq!(
            s.declined, 47,
            "one refusal per key that found the cache full"
        );
        assert_eq!(s.skipped_inserts, 0);
        // The three newest keys survive, LRU order intact.
        for tag in 47..50u64 {
            assert!(c.get(&key(tag)).is_some(), "key {tag} is resident");
        }
        assert!(c.get(&key(46)).is_none());
    }

    #[test]
    fn signature_distinguishes_stats_predicates_and_epoch() {
        let base = query(&[(0, 1, 0.5)], 0).clone();
        let sig = |q: &Query| query_signature(q).finish();
        // Identical queries agree.
        assert_eq!(sig(&base), sig(&query(&[(0, 1, 0.5)], 0)));
        // Orientation is canonicalized away...
        assert_eq!(sig(&base), sig(&query(&[(1, 0, 0.5)], 0)));
        // ...but selectivity, endpoints and the epoch are not.
        assert_ne!(sig(&base), sig(&query(&[(0, 1, 0.25)], 0)));
        assert_ne!(sig(&base), sig(&query(&[(0, 2, 0.5)], 0)));
        assert_ne!(sig(&base), sig(&query(&[(0, 1, 0.5)], 1)));
        // A statistics change flips the signature even at equal epoch.
        let mut mutated = base.clone();
        mutated.catalog = Catalog::from_stats(vec![
            TableStats::with_cardinality(11.0),
            TableStats::with_cardinality(20.0),
            TableStats::with_cardinality(30.0),
        ]);
        assert_ne!(sig(&base), sig(&mutated));
    }

    /// The signature's reserved length is exact: a key built with room
    /// for its scope never reallocates and fills its capacity.
    #[test]
    fn signature_reserves_its_exact_length() {
        let q = query(&[(0, 1, 0.5), (1, 2, 0.25)], 0);
        let mut b = query_signature_with_room(&q, 9);
        let reserved = b.bytes.capacity();
        b.push_u8(1);
        b.push_u64(2);
        assert_eq!(b.bytes.capacity(), reserved, "no reallocation");
        assert_eq!(b.bytes.len(), 3 * 8 + 3 * 16 + 8 + 2 * 10 + 9);
        assert!(reserved < b.bytes.len() + 8, "no generous over-reservation");
        assert_eq!(
            query_signature(&q).finish().bytes().len(),
            b.bytes.len() - 9
        );
    }

    #[test]
    fn predicate_order_is_part_of_the_signature() {
        // Floating-point selectivity products are rounding-order
        // sensitive, so permuted predicate lists must not share entries.
        let a = query(&[(0, 1, 0.5), (1, 2, 0.25)], 0);
        let b = query(&[(1, 2, 0.25), (0, 1, 0.5)], 0);
        assert_ne!(query_signature(&a).finish(), query_signature(&b).finish());
    }

    #[test]
    fn colliding_hash_with_different_bytes_is_a_miss() {
        let mut c: MemoCache<Vec<Plan>> = MemoCache::new(1 << 20);
        c.insert(key(7), plan(1.0));
        // Forge a key with the same hash but different canonical bytes.
        let genuine = key(7);
        let forged = CacheKey {
            hash: genuine.hash(),
            bytes: vec![0xFF],
        };
        assert!(c.get(&forged).is_none(), "full-key compare rejects it");
    }
}
