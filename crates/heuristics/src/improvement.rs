//! Iterated improvement (Swami, SIGMOD 1989): repeated random restarts,
//! each followed by steepest descent to a local minimum of the join-order
//! cost under a swap/insert neighborhood.

use crate::order::order_cost;
use mpq_model::Query;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Configuration of iterated improvement.
#[derive(Clone, Copy, Debug)]
pub struct IiConfig {
    /// Number of random restarts.
    pub restarts: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Default for IiConfig {
    fn default() -> Self {
        IiConfig {
            restarts: 10,
            seed: 0,
        }
    }
}

/// Iterated-improvement optimizer over left-deep join orders.
pub struct IterativeImprovement {
    config: IiConfig,
}

impl IterativeImprovement {
    /// Creates the optimizer.
    pub fn new(config: IiConfig) -> Self {
        IterativeImprovement { config }
    }

    /// Returns the best join order found and its cost.
    pub fn optimize(&self, query: &Query) -> (Vec<usize>, f64) {
        let n = query.num_tables();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut best: Option<(Vec<usize>, f64)> = None;
        for _ in 0..self.config.restarts.max(1) {
            let mut perm: Vec<usize> = (0..n).collect();
            perm.shuffle(&mut rng);
            let (perm, cost) = descend(query, perm);
            if best.as_ref().map(|(_, c)| cost < *c).unwrap_or(true) {
                best = Some((perm, cost));
            }
        }
        best.expect("at least one restart")
    }
}

/// Steepest descent: repeatedly move to the cheapest neighbor until no
/// neighbor improves.
fn descend(query: &Query, mut perm: Vec<usize>) -> (Vec<usize>, f64) {
    let mut cost = order_cost(query, &perm);
    loop {
        let mut improved = false;
        let mut best_neighbor: Option<(Vec<usize>, f64)> = None;
        for_neighbors(&perm, |cand| {
            let c = order_cost(query, cand);
            if c < cost
                && best_neighbor
                    .as_ref()
                    .map(|(_, bc)| c < *bc)
                    .unwrap_or(true)
            {
                best_neighbor = Some((cand.to_vec(), c));
            }
        });
        if let Some((p, c)) = best_neighbor {
            perm = p;
            cost = c;
            improved = true;
        }
        if !improved {
            return (perm, cost);
        }
    }
}

/// Enumerates the swap and insert neighborhoods of `perm`.
pub(crate) fn for_neighbors(perm: &[usize], mut f: impl FnMut(&[usize])) {
    let n = perm.len();
    let mut scratch = perm.to_vec();
    // All pairwise swaps.
    for i in 0..n {
        for j in (i + 1)..n {
            scratch.copy_from_slice(perm);
            scratch.swap(i, j);
            f(&scratch);
        }
    }
    // All single-element moves (remove at i, insert at j).
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            scratch.copy_from_slice(perm);
            let v = scratch.remove(i);
            scratch.insert(j, v);
            f(&scratch);
        }
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
        let (perm, cost) = IterativeImprovement::new(IiConfig::default()).optimize(&q);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..7).collect::<Vec<_>>());
        assert!(cost.is_finite() && cost > 0.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let q = query(6, 2);
        let a = IterativeImprovement::new(IiConfig {
            restarts: 3,
            seed: 7,
        })
        .optimize(&q);
        let b = IterativeImprovement::new(IiConfig {
            restarts: 3,
            seed: 7,
        })
        .optimize(&q);
        assert_eq!(a, b);
    }

    #[test]
    fn finds_optimum_on_small_queries() {
        // With enough restarts on tiny queries, II reaches the DP optimum.
        use mpq_cost::Objective;
        use mpq_partition::PlanSpace;
        for seed in 0..3 {
            let q = query(5, seed + 20);
            let dp = mpq_dp::optimize_serial(&q, PlanSpace::Linear, Objective::Single);
            let (_, cost) = IterativeImprovement::new(IiConfig { restarts: 20, seed }).optimize(&q);
            let opt = dp.plans[0].cost().time;
            assert_eq!(
                cost.to_bits(),
                opt.to_bits(),
                "seed {seed}: II found {cost}, optimum {opt}"
            );
        }
    }

    #[test]
    fn more_restarts_never_hurt() {
        let q = query(8, 3);
        let few = IterativeImprovement::new(IiConfig {
            restarts: 1,
            seed: 5,
        })
        .optimize(&q)
        .1;
        let many = IterativeImprovement::new(IiConfig {
            restarts: 8,
            seed: 5,
        })
        .optimize(&q)
        .1;
        assert!(many <= few);
    }

    #[test]
    fn neighborhood_size() {
        let perm = [0usize, 1, 2, 3];
        let mut count = 0;
        for_neighbors(&perm, |_| count += 1);
        // C(4,2) swaps + 4*3 inserts.
        assert_eq!(count, 6 + 12);
    }
}
