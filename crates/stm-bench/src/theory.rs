//! Theory experiments: the adversarial chain (E5) and the Theorem 9
//! competitive-ratio check on random instances (E6).

use serde_json::{json, Value};
use stm_cm::ManagerKind;
use stm_sched::{
    optimal_list_schedule, random_transaction_system, simulate, theorem9_bound, RandomSystemConfig,
    SimConfig, TaskSystem,
};

use crate::report::{Ctx, Outcome};

/// E5: the Section 4 chain — greedy is expected near `s + 1` time units,
/// the optimal list schedule takes 2.
pub fn chain(ctx: &Ctx) -> Outcome {
    let sizes: &[usize] = if ctx.short() { &[2, 4] } else { &[2, 4, 8, 16] };
    let managers = [
        ManagerKind::Greedy,
        ManagerKind::Aggressive,
        ManagerKind::Karma,
        ManagerKind::Timestamp,
    ];
    let rows = chain_experiment(sizes, &managers);
    Outcome::new(rows.iter().map(ChainRow::to_json).collect(), Vec::new())
}

/// E6: the Theorem 9 competitive-ratio sweep over random instances.
pub fn bound(ctx: &Ctx) -> Outcome {
    let (sizes, instances): (&[(usize, usize)], usize) = if ctx.short() {
        (&[(4, 2), (6, 3)], 5)
    } else {
        (&[(4, 2), (6, 3), (8, 4), (12, 6)], 20)
    };
    let managers = [
        ManagerKind::Greedy,
        ManagerKind::Timestamp,
        ManagerKind::Karma,
    ];
    let rows = bound_experiment(sizes, &managers, instances, 0xbeef);
    Outcome::new(rows.iter().map(BoundRow::to_json).collect(), Vec::new())
}

/// One row of the adversarial-chain experiment (E5).
#[derive(Debug, Clone)]
pub struct ChainRow {
    /// Number of shared objects `s`.
    pub s: usize,
    /// Contention manager simulated.
    pub manager: String,
    /// Simulated makespan in time units (`f64::INFINITY` if the manager
    /// never finished within the tick budget).
    pub makespan: f64,
    /// Makespan of the optimal off-line list schedule.
    pub optimal: f64,
    /// The ratio of the two.
    pub ratio: f64,
    /// Theorem 9's bound `s(s+1)+2`.
    pub bound: f64,
    /// Whether the pending-commit property held throughout the simulation.
    pub pending_commit: bool,
}

impl ChainRow {
    /// The row as a flat JSON object, keys in declaration order.
    #[must_use]
    pub(crate) fn to_json(&self) -> Value {
        json!({
            "s": self.s,
            "manager": self.manager.as_str(),
            "makespan": self.makespan,
            "optimal": self.optimal,
            "ratio": self.ratio,
            "bound": self.bound,
            "pending_commit": self.pending_commit,
        })
    }
}

/// Runs the paper's chain construction for each `s` in `sizes` under each of
/// `managers`, and compares against the optimal list schedule.
pub fn chain_experiment(sizes: &[usize], managers: &[ManagerKind]) -> Vec<ChainRow> {
    let ticks = 10u64;
    let mut rows = Vec::new();
    for &s in sizes {
        let instance = stm_sched::chain(s, ticks);
        let tasks = TaskSystem::from_transactions(&instance.transactions);
        let optimal = optimal_list_schedule(&tasks).makespan / ticks as f64;
        for manager in managers {
            let outcome = simulate(
                &instance.transactions,
                manager.factory(),
                SimConfig { max_ticks: 200_000 },
            );
            let makespan = outcome.makespan_units(ticks as f64);
            rows.push(ChainRow {
                s,
                manager: manager.name().to_string(),
                makespan,
                optimal,
                ratio: makespan / optimal,
                bound: theorem9_bound(s),
                pending_commit: outcome.pending_commit_held,
            });
        }
    }
    rows
}

/// One row of the random-instance competitive-ratio experiment (E6).
#[derive(Debug, Clone)]
pub struct BoundRow {
    /// Number of transactions `n`.
    pub n: usize,
    /// Number of shared objects `s`.
    pub s: usize,
    /// Contention manager simulated.
    pub manager: String,
    /// Number of random instances simulated.
    pub instances: usize,
    /// Number of instances that finished within the tick budget.
    pub finished: usize,
    /// Mean makespan / optimal-list-schedule ratio over finished instances.
    pub mean_ratio: f64,
    /// Worst observed ratio.
    pub max_ratio: f64,
    /// Theorem 9's bound for this `s`.
    pub bound: f64,
    /// Fraction of finished instances on which the pending-commit property
    /// held.
    pub pending_commit_fraction: f64,
}

impl BoundRow {
    /// The row as a flat JSON object, keys in declaration order.
    #[must_use]
    pub(crate) fn to_json(&self) -> Value {
        json!({
            "n": self.n,
            "s": self.s,
            "manager": self.manager.as_str(),
            "instances": self.instances,
            "finished": self.finished,
            "mean_ratio": self.mean_ratio,
            "max_ratio": self.max_ratio,
            "bound": self.bound,
            "pending_commit_fraction": self.pending_commit_fraction,
        })
    }
}

/// Sweeps random transaction systems and reports the observed competitive
/// ratios against Theorem 9's bound.
pub fn bound_experiment(
    sizes: &[(usize, usize)],
    managers: &[ManagerKind],
    instances: usize,
    seed: u64,
) -> Vec<BoundRow> {
    let mut rows = Vec::new();
    for &(n, s) in sizes {
        let config = RandomSystemConfig {
            transactions: n,
            objects: s,
            min_duration: 4,
            max_duration: 16,
            accesses_per_transaction: 2.min(s),
            write_fraction: 1.0,
        };
        for manager in managers {
            let mut ratios = Vec::new();
            let mut pending = 0usize;
            for i in 0..instances {
                let txns = random_transaction_system(&config, seed.wrapping_add(i as u64));
                let tasks = TaskSystem::from_transactions(&txns);
                let optimal = optimal_list_schedule(&tasks).makespan;
                let outcome = simulate(&txns, manager.factory(), SimConfig { max_ticks: 100_000 });
                if let Some(ticks) = outcome.makespan_ticks {
                    if optimal > 0.0 {
                        ratios.push(ticks as f64 / optimal);
                    }
                    if outcome.pending_commit_held {
                        pending += 1;
                    }
                }
            }
            let finished = ratios.len();
            let mean_ratio = if finished > 0 {
                ratios.iter().sum::<f64>() / finished as f64
            } else {
                f64::INFINITY
            };
            let max_ratio = ratios.iter().copied().fold(0.0, f64::max);
            rows.push(BoundRow {
                n,
                s,
                manager: manager.name().to_string(),
                instances,
                finished,
                mean_ratio,
                max_ratio,
                bound: theorem9_bound(s),
                pending_commit_fraction: if finished > 0 {
                    pending as f64 / finished as f64
                } else {
                    0.0
                },
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_experiment_reproduces_the_paper_scenario() {
        let rows = chain_experiment(&[2, 4], &[ManagerKind::Greedy]);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!((row.optimal - 2.0).abs() < 1e-6, "optimal is 2 time units");
            assert!(
                (row.makespan - (row.s as f64 + 1.0)).abs() < 0.2,
                "greedy needs s+1 units, got {} for s = {}",
                row.makespan,
                row.s
            );
            assert!(row.ratio <= row.bound);
            assert!(row.pending_commit);
        }
    }

    #[test]
    fn bound_experiment_stays_under_theorem9_for_greedy() {
        let rows = bound_experiment(&[(5, 3)], &[ManagerKind::Greedy], 5, 42);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.finished, row.instances);
        assert!(row.max_ratio <= row.bound + 1e-6);
        // The transactional execution may legitimately beat the task-model
        // optimum (a transaction only holds an object from its access point
        // onwards, while the task model reserves it for the whole duration),
        // so the ratio is only bounded above, not below, by 1.
        assert!(row.mean_ratio.is_finite() && row.mean_ratio > 0.0);
        assert!(row.pending_commit_fraction > 0.99);
    }

    #[test]
    fn bound_experiment_handles_multiple_managers() {
        let rows = bound_experiment(
            &[(4, 2)],
            &[ManagerKind::Greedy, ManagerKind::Timestamp],
            3,
            7,
        );
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert!(row.finished <= row.instances);
        }
    }
}
