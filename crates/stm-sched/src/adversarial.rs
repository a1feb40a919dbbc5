//! The paper's adversarial chain (Section 4, the example between Theorem 1
//! and the task-system formalism).
//!
//! Transactions `T_0, ..., T_s` share objects `X_1, ..., X_s`; every
//! transaction runs for one time unit, and `T_i` has higher priority (an
//! earlier timestamp) than `T_{i-1}`. `T_0` accesses `X_1`, `T_s` accesses
//! `X_s`, and each remaining `T_i` accesses `X_i` and `X_{i+1}`:
//!
//! * At time `0`, each `T_i` with `i < s` opens `X_{i+1}`.
//! * Just before finishing (time `1 - ε`) each `T_i` with `i ≥ 1` opens
//!   `X_i`, which is held by the lower-priority `T_{i-1}` — so the greedy
//!   manager aborts `T_{i-1}`. Only `T_s` commits at time 1.
//! * The scenario repeats, one victim fewer each round, for a makespan of
//!   `s + 1`, while a good list schedule (evens then odds) achieves `2`.
//!
//! [`chain`] builds this instance for the execution simulator; the
//! corresponding task system (for the optimal list schedule) is obtained via
//! [`crate::tasks::TaskSystem::from_transactions`].

use crate::simulator::{SimAccess, SimTransaction};

/// The generated chain instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainInstance {
    /// Number of shared objects `s`.
    pub s: usize,
    /// Ticks per paper time unit.
    pub ticks_per_unit: u64,
    /// The transactions `T_0, ..., T_s` (index `i` is `T_i`).
    pub transactions: Vec<SimTransaction>,
}

impl ChainInstance {
    /// Expected greedy makespan in time units (`s + 1`).
    pub fn expected_greedy_makespan(&self) -> f64 {
        (self.s + 1) as f64
    }

    /// Expected optimal list-schedule makespan in time units (`2`, for
    /// `s >= 2`; `1` when there is no conflict at all).
    pub fn expected_optimal_makespan(&self) -> f64 {
        if self.s >= 2 {
            2.0
        } else {
            2.0_f64.min((self.s + 1) as f64)
        }
    }
}

/// Builds the chain instance with `s` objects and the given tick resolution
/// (the access "at time `1 - ε`" is placed on the last tick of the unit).
///
/// # Panics
///
/// Panics if `s == 0` or `ticks_per_unit < 2` (the construction needs a tick
/// strictly between 0 and the end of the unit).
pub fn chain(s: usize, ticks_per_unit: u64) -> ChainInstance {
    assert!(s >= 1, "the chain needs at least one shared object");
    assert!(ticks_per_unit >= 2, "need at least two ticks per time unit");
    let last_tick = ticks_per_unit - 1;
    let mut transactions = Vec::with_capacity(s + 1);
    for i in 0..=s {
        // T_i has higher priority than T_{i-1}: priorities descend with i.
        let priority = (s - i) as u64;
        let mut accesses = Vec::new();
        if i < s {
            // Objects are indexed 0..s internally; X_{i+1} is index i.
            accesses.push(SimAccess {
                offset: 0,
                object: i,
                write: true,
            });
        }
        if i >= 1 {
            // X_i is index i - 1, accessed just before the end of the unit.
            accesses.push(SimAccess {
                offset: last_tick,
                object: i - 1,
                write: true,
            });
        }
        accesses.sort_by_key(|a| a.offset);
        transactions.push(SimTransaction {
            duration: ticks_per_unit,
            priority,
            accesses,
        });
    }
    ChainInstance {
        s,
        ticks_per_unit,
        transactions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::optimal_list_schedule;
    use crate::simulator::{simulate, SimConfig};
    use crate::tasks::TaskSystem;
    use stm_cm::GreedyManager;

    #[test]
    fn chain_shape_matches_the_paper() {
        let instance = chain(3, 10);
        assert_eq!(instance.transactions.len(), 4);
        // T_0 accesses only X_1 at time 0.
        assert_eq!(instance.transactions[0].accesses.len(), 1);
        assert_eq!(instance.transactions[0].accesses[0].offset, 0);
        // T_3 accesses only X_3, at 1 - epsilon.
        assert_eq!(instance.transactions[3].accesses.len(), 1);
        assert_eq!(instance.transactions[3].accesses[0].offset, 9);
        // Interior transactions access two objects.
        assert_eq!(instance.transactions[1].accesses.len(), 2);
        assert_eq!(instance.transactions[2].accesses.len(), 2);
        // Priorities descend with the index (T_s is the oldest).
        assert!(instance.transactions[3].priority < instance.transactions[0].priority);
    }

    #[test]
    fn greedy_needs_s_plus_one_units() {
        for s in 2..=5usize {
            let ticks = 10;
            let instance = chain(s, ticks);
            let outcome = simulate(
                &instance.transactions,
                GreedyManager::factory(),
                SimConfig::default(),
            );
            let makespan = outcome.makespan_units(ticks as f64);
            assert!(
                (makespan - instance.expected_greedy_makespan()).abs() < 0.2,
                "s = {s}: greedy makespan {makespan}, expected {}",
                instance.expected_greedy_makespan()
            );
            assert!(
                outcome.pending_commit_held,
                "greedy satisfies pending commit"
            );
        }
    }

    #[test]
    fn optimal_list_schedule_needs_two_units() {
        for s in 2..=6usize {
            let ticks = 10u64;
            let instance = chain(s, ticks);
            let tasks = TaskSystem::from_transactions(&instance.transactions);
            let best = optimal_list_schedule(&tasks);
            let expected = instance.expected_optimal_makespan() * ticks as f64;
            assert!(
                (best.makespan - expected).abs() < 1e-6,
                "s = {s}: optimal {} expected {expected}",
                best.makespan
            );
        }
    }

    #[test]
    fn greedy_to_optimal_ratio_stays_under_the_theorem_bound() {
        for s in 2..=5usize {
            let ticks = 10u64;
            let instance = chain(s, ticks);
            let outcome = simulate(
                &instance.transactions,
                GreedyManager::factory(),
                SimConfig::default(),
            );
            let tasks = TaskSystem::from_transactions(&instance.transactions);
            let best = optimal_list_schedule(&tasks);
            let ratio = outcome.makespan_units(ticks as f64) / (best.makespan / ticks as f64);
            let bound = crate::bounds::theorem9_bound(s);
            assert!(
                ratio <= bound + 1e-9,
                "s = {s}: ratio {ratio} exceeds bound {bound}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one shared object")]
    fn zero_object_chain_is_rejected() {
        let _ = chain(0, 10);
    }

    #[test]
    #[should_panic(expected = "two ticks")]
    fn single_tick_chain_is_rejected() {
        let _ = chain(3, 1);
    }
}
