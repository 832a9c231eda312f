//! Random query generation after Steinbrunn, Moerkotte & Kemper
//! (VLDBJ 1997), the method the paper uses for all benchmark queries
//! ("We choose table cardinalities and attribute domain sizes by the method
//! introduced by Steinbrunn et al. which is commonly used for query
//! optimization benchmarks", Section 6.1).
//!
//! The generator draws, per table, a cardinality uniformly from
//! `[10, 100_000]` and a join-attribute domain size uniformly from a range
//! proportional to the cardinality; equality-predicate selectivity between
//! tables `a` and `b` is `1 / max(domain_a, domain_b)`. Join graphs can be
//! chains, stars, cycles or cliques. Everything is deterministic in the
//! seed so experiments are reproducible and every worker of a simulated
//! cluster can regenerate identical statistics.

use crate::catalog::{Catalog, TableStats};
use crate::query::{JoinGraph, Predicate, Query};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the Steinbrunn-style generator.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of tables per query.
    pub num_tables: usize,
    /// Join graph shape (the paper defaults to star).
    pub graph: JoinGraph,
    /// Minimum table cardinality (Steinbrunn: 10).
    pub min_cardinality: f64,
    /// Maximum table cardinality (Steinbrunn: 100 000).
    pub max_cardinality: f64,
    /// Tuple width bounds in bytes, drawn uniformly.
    pub min_tuple_bytes: f64,
    /// See `min_tuple_bytes`.
    pub max_tuple_bytes: f64,
}

impl WorkloadConfig {
    /// The paper's default: star-shaped join graph, Steinbrunn statistics.
    pub fn paper_default(num_tables: usize) -> Self {
        WorkloadConfig {
            num_tables,
            graph: JoinGraph::Star,
            min_cardinality: 10.0,
            max_cardinality: 100_000.0,
            min_tuple_bytes: 8.0,
            max_tuple_bytes: 200.0,
        }
    }

    /// Same statistics with an explicit graph shape (Figure 3 experiment).
    pub fn with_graph(num_tables: usize, graph: JoinGraph) -> Self {
        WorkloadConfig {
            graph,
            ..Self::paper_default(num_tables)
        }
    }
}

/// Deterministic random query generator.
pub struct WorkloadGenerator {
    config: WorkloadConfig,
    rng: StdRng,
}

impl WorkloadGenerator {
    /// Creates a generator with the given configuration and seed.
    ///
    /// # Panics
    /// Panics if the configuration is degenerate (zero tables, inverted
    /// bounds, more than 64 tables).
    pub fn new(config: WorkloadConfig, seed: u64) -> Self {
        assert!(config.num_tables >= 1, "query must join at least one table");
        assert!(config.num_tables <= 64, "at most 64 tables supported");
        assert!(
            config.min_cardinality >= 1.0 && config.min_cardinality <= config.max_cardinality,
            "invalid cardinality bounds"
        );
        assert!(
            config.min_tuple_bytes > 0.0 && config.min_tuple_bytes <= config.max_tuple_bytes,
            "invalid tuple width bounds"
        );
        WorkloadGenerator {
            config,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Generates the next random query.
    pub fn next_query(&mut self) -> Query {
        let c = &self.config;
        let mut stats = Vec::with_capacity(c.num_tables);
        let mut domains = Vec::with_capacity(c.num_tables);
        for _ in 0..c.num_tables {
            let cardinality = self
                .rng
                .random_range(c.min_cardinality..=c.max_cardinality)
                .round();
            // Steinbrunn draws attribute domains as a fraction of the
            // cardinality; we use [10%, 100%] which keeps selectivities in
            // a realistic range and never exceeds the key domain. The
            // domain only makes selectivities: no statistic carries it.
            let frac = self.rng.random_range(0.1..=1.0);
            domains.push((cardinality * frac).max(2.0).round());
            let tuple_bytes = self
                .rng
                .random_range(c.min_tuple_bytes..=c.max_tuple_bytes)
                .round();
            stats.push(TableStats {
                cardinality,
                tuple_bytes,
            });
        }
        let predicates = c
            .graph
            .edges(c.num_tables)
            .into_iter()
            .map(|(a, b)| Predicate {
                left: a,
                right: b,
                selectivity: 1.0 / domains[a].max(domains[b]),
            })
            .collect();
        Query {
            catalog: Catalog::from_stats(stats),
            predicates,
            graph: c.graph,
        }
    }

    /// Generates a batch of `count` queries (the paper reports medians over
    /// twenty random queries per data point).
    pub fn batch(&mut self, count: usize) -> Vec<Query> {
        (0..count).map(|_| self.next_query()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let cfg = WorkloadConfig::paper_default(8);
        let q1 = WorkloadGenerator::new(cfg.clone(), 42).next_query();
        let q2 = WorkloadGenerator::new(cfg, 42).next_query();
        assert_eq!(q1, q2);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = WorkloadConfig::paper_default(8);
        let q1 = WorkloadGenerator::new(cfg.clone(), 1).next_query();
        let q2 = WorkloadGenerator::new(cfg, 2).next_query();
        assert_ne!(q1, q2);
    }

    #[test]
    fn statistics_within_bounds() {
        let cfg = WorkloadConfig::paper_default(12);
        let mut g = WorkloadGenerator::new(cfg.clone(), 7);
        for q in g.batch(20) {
            for (_, s) in q.catalog.iter() {
                assert!(s.cardinality >= cfg.min_cardinality);
                assert!(s.cardinality <= cfg.max_cardinality);
                assert!(s.tuple_bytes >= cfg.min_tuple_bytes);
                assert!(s.tuple_bytes <= cfg.max_tuple_bytes);
            }
            // A domain is at least 2 and at most its table's cardinality,
            // so a predicate's is at most the larger endpoint's.
            for p in &q.predicates {
                let domain = (1.0 / p.selectivity).round();
                let card = |t| q.catalog.stats(t).cardinality;
                assert!(domain >= 2.0);
                assert!(domain <= card(p.left).max(card(p.right)).max(2.0));
            }
        }
    }

    #[test]
    fn selectivities_valid() {
        let mut g = WorkloadGenerator::new(WorkloadConfig::paper_default(10), 3);
        for q in g.batch(10) {
            for p in &q.predicates {
                assert!(p.selectivity > 0.0 && p.selectivity <= 0.5);
                assert_ne!(p.left, p.right);
            }
        }
    }

    #[test]
    fn graph_shape_respected() {
        for graph in JoinGraph::ALL {
            let mut g = WorkloadGenerator::new(WorkloadConfig::with_graph(6, graph), 11);
            let q = g.next_query();
            assert_eq!(q.predicates.len(), graph.edges(6).len());
            assert_eq!(q.graph, graph);
        }
    }

    /// FNV-1a over every generated number: each table's statistics and
    /// each predicate's endpoints and selectivity, by their bits.
    fn generated_bits_hash(queries: &[Query]) -> u64 {
        let words = queries.iter().flat_map(|q| {
            let stats = q
                .catalog
                .iter()
                .flat_map(|(_, s)| [s.cardinality.to_bits(), s.tuple_bytes.to_bits()]);
            let predicates = q
                .predicates
                .iter()
                .flat_map(|p| [p.left as u64, p.right as u64, p.selectivity.to_bits()]);
            stats.chain(predicates).collect::<Vec<_>>()
        });
        words
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
    }

    /// The generator's numbers, pinned for every graph shape at 12 tables
    /// and seed 12: a change to what a table carries must not move a
    /// single drawn cardinality, width or selectivity.
    #[test]
    fn generated_statistics_and_predicates_are_pinned() {
        let queries: Vec<Query> = JoinGraph::ALL
            .into_iter()
            .flat_map(|graph| {
                WorkloadGenerator::new(WorkloadConfig::with_graph(12, graph), 12).batch(5)
            })
            .collect();
        assert_eq!(generated_bits_hash(&queries), 0xeff6_f545_e91f_c2e5);
    }

    #[test]
    fn batch_size() {
        let mut g = WorkloadGenerator::new(WorkloadConfig::paper_default(4), 5);
        assert_eq!(g.batch(20).len(), 20);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_tables() {
        let mut cfg = WorkloadConfig::paper_default(4);
        cfg.num_tables = 0;
        let _ = WorkloadGenerator::new(cfg, 0);
    }

    #[test]
    #[should_panic]
    fn rejects_inverted_bounds() {
        let mut cfg = WorkloadConfig::paper_default(4);
        cfg.max_cardinality = 5.0;
        cfg.min_cardinality = 10.0;
        let _ = WorkloadGenerator::new(cfg, 0);
    }
}
