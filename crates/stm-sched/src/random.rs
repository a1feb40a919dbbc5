//! Random transaction-system generation for the makespan experiments.
//!
//! Theorem 9 bounds the competitive ratio of *any* pending-commit manager on
//! *any* instance; the benchmark sweeps randomly generated instances (varying
//! the number of transactions `n`, objects `s`, transaction lengths, and
//! access densities), simulates them under several contention managers, and
//! compares the resulting makespans to the optimal list schedule.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::simulator::{SimAccess, SimTransaction};

/// Parameters of the random instance generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomSystemConfig {
    /// Number of transactions.
    pub transactions: usize,
    /// Number of shared objects.
    pub objects: usize,
    /// Minimum transaction duration in ticks.
    pub min_duration: u64,
    /// Maximum transaction duration in ticks (inclusive).
    pub max_duration: u64,
    /// Expected number of accesses per transaction (at least 1, at most the
    /// number of objects).
    pub accesses_per_transaction: usize,
    /// Fraction of accesses that are updates (the rest are reads).
    pub write_fraction: f64,
}

impl Default for RandomSystemConfig {
    fn default() -> Self {
        RandomSystemConfig {
            transactions: 8,
            objects: 4,
            min_duration: 5,
            max_duration: 20,
            accesses_per_transaction: 2,
            write_fraction: 1.0,
        }
    }
}

/// Generates a random transaction system. Deterministic for a given `seed`.
///
/// # Panics
///
/// Panics if the configuration is degenerate (no transactions, no objects, or
/// an empty duration range).
pub fn random_transaction_system(config: &RandomSystemConfig, seed: u64) -> Vec<SimTransaction> {
    assert!(config.transactions > 0, "need at least one transaction");
    assert!(config.objects > 0, "need at least one object");
    assert!(
        config.min_duration > 0 && config.min_duration <= config.max_duration,
        "invalid duration range"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut transactions = Vec::with_capacity(config.transactions);
    for i in 0..config.transactions {
        let duration = rng.gen_range(config.min_duration..=config.max_duration);
        let count = config
            .accesses_per_transaction
            .clamp(1, config.objects)
            .max(1);
        // Choose distinct objects for this transaction.
        let mut chosen: Vec<usize> = (0..config.objects).collect();
        for k in 0..count.min(chosen.len()) {
            let j = rng.gen_range(k..chosen.len());
            chosen.swap(k, j);
        }
        chosen.truncate(count);
        let mut accesses: Vec<SimAccess> = chosen
            .into_iter()
            .map(|object| SimAccess {
                offset: rng.gen_range(0..duration),
                object,
                write: rng.gen_bool(config.write_fraction.clamp(0.0, 1.0)),
            })
            .collect();
        accesses.sort_by_key(|a| a.offset);
        transactions.push(SimTransaction {
            duration,
            priority: i as u64,
            accesses,
        });
    }
    transactions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::optimal_list_schedule;
    use crate::simulator::{simulate, SimConfig};
    use crate::tasks::TaskSystem;
    use stm_cm::GreedyManager;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = RandomSystemConfig::default();
        let a = random_transaction_system(&config, 7);
        let b = random_transaction_system(&config, 7);
        let c = random_transaction_system(&config, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_transactions_are_valid() {
        let config = RandomSystemConfig {
            transactions: 20,
            objects: 6,
            accesses_per_transaction: 3,
            ..RandomSystemConfig::default()
        };
        for seed in 0..10 {
            for txn in random_transaction_system(&config, seed) {
                txn.validate().expect("generated transaction must be valid");
                assert!(txn.accesses.len() <= 3);
                assert!(!txn.accesses.is_empty());
            }
        }
    }

    #[test]
    fn greedy_respects_theorem9_bound_on_random_instances() {
        let config = RandomSystemConfig {
            transactions: 6,
            objects: 3,
            min_duration: 4,
            max_duration: 12,
            accesses_per_transaction: 2,
            write_fraction: 1.0,
        };
        for seed in 0..20u64 {
            let txns = random_transaction_system(&config, seed);
            let outcome = simulate(&txns, GreedyManager::factory(), SimConfig::default());
            let makespan = outcome.makespan_ticks.expect("greedy always finishes") as f64;
            let tasks = TaskSystem::from_transactions(&txns);
            let optimal = optimal_list_schedule(&tasks).makespan;
            let bound = crate::bounds::theorem9_bound(config.objects);
            assert!(
                makespan <= bound * optimal + 1e-6,
                "seed {seed}: makespan {makespan} optimal {optimal} bound {bound}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one transaction")]
    fn degenerate_config_is_rejected() {
        let config = RandomSystemConfig {
            transactions: 0,
            ..RandomSystemConfig::default()
        };
        let _ = random_transaction_system(&config, 0);
    }
}
