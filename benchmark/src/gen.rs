//! Seeded, dependency-free input generators.
//!
//! Everything a workload feeds the optimizer derives from `--seed`: the
//! Steinbrunn statistics (through the repository's own
//! `WorkloadGenerator`, seeded from here), the Zipf draws and the stream
//! of never-seen cold queries.

use mpq_model::{JoinGraph, Query, WorkloadConfig, WorkloadGenerator};

/// SplitMix64: small, fast, and good enough to drive a Zipf sampler.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An independent sub-seed of `seed` for stream number `stream`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xd605_bbb5_8c8a_bc25)).next_u64()
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|rank| (rank as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One round of a workload: the distinct queries it touches and the order
/// in which the load generator submits them (indices into `pool`).
pub struct Round {
    pub pool: Vec<Query>,
    pub order: Vec<u32>,
}

impl Round {
    fn each_once(pool: Vec<Query>) -> Round {
        let order = (0..pool.len() as u32).collect();
        Round { pool, order }
    }
}

pub const SHAPES: [JoinGraph; 4] = [
    JoinGraph::Star,
    JoinGraph::Chain,
    JoinGraph::Cycle,
    JoinGraph::Clique,
];

/// `per_shape` queries of each join-graph shape, interleaved by shape.
pub fn shaped_queries(seed: u64, tables: usize, per_shape: usize) -> Round {
    let mut gens: Vec<WorkloadGenerator> = SHAPES
        .iter()
        .enumerate()
        .map(|(i, &g)| {
            WorkloadGenerator::new(
                WorkloadConfig::with_graph(tables, g),
                derive(seed, i as u64),
            )
        })
        .collect();
    let pool = (0..per_shape)
        .flat_map(|_| gens.iter_mut().map(|g| g.next_query()).collect::<Vec<_>>())
        .collect();
    Round::each_once(pool)
}

/// `count` distinct star queries (the paper's default shape).
pub fn star_queries(seed: u64, tables: usize, count: usize) -> Round {
    let mut gen = WorkloadGenerator::new(WorkloadConfig::paper_default(tables), derive(seed, 100));
    Round::each_once(gen.batch(count))
}

/// The skewed stream: a fixed hot set drawn Zipf(s), plus a share of cold
/// queries no earlier round has seen.
pub struct ZipfStream {
    hot: Vec<Query>,
    zipf: Zipf,
    rng: Rng,
    cold: WorkloadGenerator,
    cold_share: f64,
}

impl ZipfStream {
    pub fn new(seed: u64, tables: usize, hot: usize, s: f64, cold_share: f64) -> ZipfStream {
        let config = WorkloadConfig::paper_default(tables);
        ZipfStream {
            hot: WorkloadGenerator::new(config.clone(), derive(seed, 200)).batch(hot),
            zipf: Zipf::new(hot, s),
            rng: Rng::new(derive(seed, 201)),
            cold: WorkloadGenerator::new(config, derive(seed, 202)),
            cold_share,
        }
    }

    /// The next `size` submissions. The pool is the hot set followed by
    /// this round's fresh cold queries.
    pub fn next_round(&mut self, size: usize) -> Round {
        let mut pool = self.hot.clone();
        let order = (0..size)
            .map(|_| {
                if self.rng.next_f64() < self.cold_share {
                    pool.push(self.cold.next_query());
                    (pool.len() - 1) as u32
                } else {
                    self.zipf.sample(&mut self.rng) as u32
                }
            })
            .collect();
        Round { pool, order }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_stream_is_deterministic_per_seed() {
        let a = ZipfStream::new(7, 6, 16, 1.1, 0.05).next_round(500);
        let b = ZipfStream::new(7, 6, 16, 1.1, 0.05).next_round(500);
        let c = ZipfStream::new(8, 6, 16, 1.1, 0.05).next_round(500);
        assert_eq!(a.order, b.order);
        assert_eq!(a.pool, b.pool);
        assert_ne!(a.order, c.order);
    }

    #[test]
    fn zipf_favours_low_ranks_and_cold_queries_are_fresh() {
        let mut stream = ZipfStream::new(3, 6, 64, 1.1, 0.05);
        let first = stream.next_round(4000);
        let hits_rank0 = first.order.iter().filter(|&&i| i == 0).count();
        let hits_rank63 = first.order.iter().filter(|&&i| i == 63).count();
        assert!(hits_rank0 > 10 * hits_rank63.max(1));
        let cold = first.pool.len() - 64;
        assert!((100..=320).contains(&cold), "{cold} cold of 4000");
        // Cold queries never repeat, within or across rounds.
        let second = stream.next_round(4000);
        for q in &second.pool[64..] {
            assert!(!first.pool.contains(q));
        }
    }

    #[test]
    fn shaped_queries_cover_every_shape() {
        let round = shaped_queries(12, 5, 2);
        assert_eq!(round.pool.len(), 8);
        for shape in SHAPES {
            assert_eq!(round.pool.iter().filter(|q| q.graph == shape).count(), 2);
        }
    }
}
