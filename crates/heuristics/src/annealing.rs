//! Simulated annealing (Ioannidis & Kang, SIGMOD 1990) over left-deep
//! join orders with a geometric cooling schedule.

use crate::order::order_cost;
use mpq_model::Query;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Configuration of simulated annealing.
#[derive(Clone, Copy, Debug)]
pub struct SaConfig {
    /// Starting temperature as a fraction of the initial cost.
    pub initial_temperature: f64,
    /// Multiplicative cooling per stage (0 < rate < 1).
    pub cooling_rate: f64,
    /// Moves attempted per temperature stage.
    pub moves_per_stage: usize,
    /// Stop when the temperature falls below this fraction of the initial
    /// cost.
    pub frozen_fraction: f64,
    /// Generator seed.
    pub seed: u64,
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            initial_temperature: 0.5,
            cooling_rate: 0.9,
            moves_per_stage: 64,
            frozen_fraction: 1e-5,
            seed: 0,
        }
    }
}

/// Simulated-annealing optimizer over left-deep join orders.
pub struct SimulatedAnnealing {
    config: SaConfig,
}

impl SimulatedAnnealing {
    /// Creates the optimizer.
    ///
    /// # Panics
    /// Panics on a non-cooling schedule.
    pub fn new(config: SaConfig) -> Self {
        assert!(
            config.cooling_rate > 0.0 && config.cooling_rate < 1.0,
            "cooling rate must be in (0, 1)"
        );
        SimulatedAnnealing { config }
    }

    /// Returns the best join order found and its cost.
    pub fn optimize(&self, query: &Query) -> (Vec<usize>, f64) {
        let n = query.num_tables();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut current: Vec<usize> = (0..n).collect();
        current.shuffle(&mut rng);
        let mut current_cost = order_cost(query, &current);
        let mut best = current.clone();
        let mut best_cost = current_cost;
        if n < 2 {
            return (best, best_cost);
        }
        let mut temperature = self.config.initial_temperature * current_cost.max(1.0);
        let frozen = self.config.frozen_fraction * current_cost.max(1.0);
        while temperature > frozen {
            for _ in 0..self.config.moves_per_stage {
                let mut cand = current.clone();
                // Random move: swap two positions or relocate one table.
                if rng.random_bool(0.5) {
                    let i = rng.random_range(0..n);
                    let j = rng.random_range(0..n);
                    cand.swap(i, j);
                } else {
                    let i = rng.random_range(0..n);
                    let v = cand.remove(i);
                    let j = rng.random_range(0..n);
                    cand.insert(j, v);
                }
                let cand_cost = order_cost(query, &cand);
                let delta = cand_cost - current_cost;
                let accept = delta <= 0.0 || rng.random::<f64>() < (-delta / temperature).exp();
                if accept {
                    current = cand;
                    current_cost = cand_cost;
                    if current_cost < best_cost {
                        best = current.clone();
                        best_cost = current_cost;
                    }
                }
            }
            temperature *= self.config.cooling_rate;
        }
        (best, best_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_model::{WorkloadConfig, WorkloadGenerator};

    fn query(n: usize, seed: u64) -> Query {
        WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query()
    }

    #[test]
    fn finds_valid_permutation() {
        let q = query(7, 1);
        let (perm, cost) = SimulatedAnnealing::new(SaConfig::default()).optimize(&q);
        let mut sorted = perm;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..7).collect::<Vec<_>>());
        assert!(cost.is_finite() && cost > 0.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let q = query(6, 2);
        let cfg = SaConfig {
            seed: 11,
            ..SaConfig::default()
        };
        let a = SimulatedAnnealing::new(cfg).optimize(&q);
        let b = SimulatedAnnealing::new(cfg).optimize(&q);
        assert_eq!(a, b);
    }

    #[test]
    fn near_optimal_on_small_queries() {
        use mpq_cost::Objective;
        use mpq_partition::PlanSpace;
        for seed in 0..3 {
            let q = query(5, seed + 30);
            let dp = mpq_dp::optimize_serial(&q, PlanSpace::Linear, Objective::Single);
            let (_, cost) = SimulatedAnnealing::new(SaConfig {
                seed,
                ..SaConfig::default()
            })
            .optimize(&q);
            let opt = dp.plans[0].cost().time;
            // SA carries no guarantee (the paper's point); allow 2x slack
            // but typically it finds the optimum at this size.
            assert!(
                cost <= 2.0 * opt,
                "seed {seed}: SA found {cost}, optimum {opt}"
            );
            assert!(cost >= opt, "cost below optimum is impossible");
        }
    }

    #[test]
    fn single_table_query() {
        let q = query(1, 4);
        let (perm, _) = SimulatedAnnealing::new(SaConfig::default()).optimize(&q);
        assert_eq!(perm, vec![0]);
    }

    #[test]
    #[should_panic]
    fn rejects_bad_cooling_rate() {
        let _ = SimulatedAnnealing::new(SaConfig {
            cooling_rate: 1.5,
            ..SaConfig::default()
        });
    }
}
