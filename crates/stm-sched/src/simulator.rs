//! A discrete-time execution simulator for contention-managed transactions.
//!
//! The simulator takes the paper's abstract execution model literally: `n`
//! transactions all start at time 0, each runs for a fixed number of ticks,
//! and each opens a given object at a given offset into its execution. When
//! an open conflicts with a live transaction, the opener consults a *real*
//! [`ContentionManager`] implementation (the same code that drives the STM
//! runtime) and either aborts the enemy, waits, or aborts itself; aborted
//! transactions restart from scratch while keeping their timestamp. The
//! simulation ends when every transaction has committed; the *makespan* is
//! the tick at which the last one commits.
//!
//! Besides the makespan the simulator reports per-transaction abort counts
//! and whether the **pending-commit property** held: at every instant before
//! the makespan, some transaction that was running at that instant went on to
//! commit without aborting or waiting in between. Theorem 9 of the paper
//! derives the `s(s+1)+2` competitive bound from exactly this property.

use std::sync::Arc;

use stm_core::manager::ManagerFactory;
use stm_core::{ConflictKind, ContentionManager, TxLineage, TxShared, TxView};

/// One object access performed by a simulated transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimAccess {
    /// Tick offset into the transaction's execution at which the access
    /// happens (must be smaller than the transaction's duration).
    pub offset: u64,
    /// Index of the accessed object.
    pub object: usize,
    /// Whether the access is an update (`true`) or a read (`false`).
    pub write: bool,
}

/// A simulated transaction: a duration, a priority timestamp, and a list of
/// accesses sorted by offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimTransaction {
    /// Number of ticks of work the transaction performs per attempt.
    pub duration: u64,
    /// Timestamp used as the greedy priority (smaller = older = higher).
    pub priority: u64,
    /// Accesses in non-decreasing offset order.
    pub accesses: Vec<SimAccess>,
}

impl SimTransaction {
    /// Validates the transaction shape (positive duration, offsets within the
    /// duration and non-decreasing).
    pub fn validate(&self) -> Result<(), String> {
        if self.duration == 0 {
            return Err("duration must be positive".to_string());
        }
        let mut last = 0;
        for access in &self.accesses {
            if access.offset >= self.duration {
                return Err(format!(
                    "access offset {} is not smaller than duration {}",
                    access.offset, self.duration
                ));
            }
            if access.offset < last {
                return Err("accesses must be sorted by offset".to_string());
            }
            last = access.offset;
        }
        Ok(())
    }
}

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Upper bound on simulated ticks; if the system has not quiesced by
    /// then (e.g. a livelocking manager) the outcome reports a `None`
    /// makespan.
    pub max_ticks: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_ticks: 1_000_000,
        }
    }
}

/// The result of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Tick at which the last transaction committed, or `None` if the run
    /// hit the tick limit first.
    pub makespan_ticks: Option<u64>,
    /// Commit tick of each transaction (`u64::MAX` if it never committed).
    pub commit_ticks: Vec<u64>,
    /// Abort count of each transaction.
    pub aborts: Vec<u64>,
    /// Whether the pending-commit property held at every tick before the
    /// makespan.
    pub pending_commit_held: bool,
    /// Number of ticks actually simulated.
    pub ticks_run: u64,
}

impl SimOutcome {
    /// Total aborts across all transactions.
    pub fn total_aborts(&self) -> u64 {
        self.aborts.iter().sum()
    }

    /// Makespan converted to time units given the tick resolution, or
    /// infinity if the run did not finish.
    pub fn makespan_units(&self, ticks_per_unit: f64) -> f64 {
        match self.makespan_ticks {
            Some(ticks) => ticks as f64 / ticks_per_unit,
            None => f64::INFINITY,
        }
    }
}

/// Which transactions currently use an object.
#[derive(Debug, Default, Clone)]
struct ObjectState {
    writer: Option<usize>,
    readers: Vec<usize>,
}

/// Per-transaction runtime state inside the simulator.
struct TxRuntime {
    lineage: Arc<TxLineage>,
    shared: Arc<TxShared>,
    manager: Box<dyn ContentionManager>,
    progress: u64,
    next_access: usize,
    waiting_on: Option<usize>,
    committed_at: Option<u64>,
    aborts: u64,
    uninterrupted_from: u64,
    uninterrupted_from_at_commit: u64,
}

/// Runs the simulation of `transactions` under the contention manager built
/// by `factory` (one instance per transaction, as in the real runtime).
///
/// # Panics
///
/// Panics if any transaction fails [`SimTransaction::validate`].
pub fn simulate(
    transactions: &[SimTransaction],
    factory: ManagerFactory,
    config: SimConfig,
) -> SimOutcome {
    for (i, txn) in transactions.iter().enumerate() {
        if let Err(msg) = txn.validate() {
            panic!("invalid simulated transaction {i}: {msg}");
        }
    }
    let num_objects = transactions
        .iter()
        .flat_map(|t| t.accesses.iter().map(|a| a.object + 1))
        .max()
        .unwrap_or(0);
    let mut objects: Vec<ObjectState> = vec![ObjectState::default(); num_objects];
    let mut txs: Vec<TxRuntime> = transactions
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let lineage = Arc::new(TxLineage::new(i as u64, spec.priority));
            let shared = Arc::new(TxShared::new(Arc::clone(&lineage), 1));
            let mut manager = factory();
            manager.begin(TxView::new(&shared));
            TxRuntime {
                lineage,
                shared,
                manager,
                progress: 0,
                next_access: 0,
                waiting_on: None,
                committed_at: None,
                aborts: 0,
                uninterrupted_from: 0,
                uninterrupted_from_at_commit: 0,
            }
        })
        .collect();

    let n = transactions.len();
    let mut tick = 0u64;
    while tick < config.max_ticks {
        if txs.iter().all(|t| t.committed_at.is_some()) {
            break;
        }
        // Phase A: clean up transactions that were aborted, restart them.
        for (i, tx) in txs.iter_mut().enumerate() {
            if tx.committed_at.is_some() {
                continue;
            }
            if tx.shared.is_aborted() {
                release_objects(&mut objects, i);
                let old_shared = Arc::clone(&tx.shared);
                tx.manager.aborted(TxView::new(&old_shared));
                tx.aborts += 1;
                let attempt = tx.aborts + 1;
                let shared = Arc::new(TxShared::new(Arc::clone(&tx.lineage), attempt));
                tx.manager.begin(TxView::new(&shared));
                tx.shared = shared;
                tx.progress = 0;
                tx.next_access = 0;
                tx.waiting_on = None;
                tx.uninterrupted_from = tick;
            }
        }
        // Phase B: wake waiters whose enemy is gone or itself waiting.
        for i in 0..n {
            if txs[i].committed_at.is_some() {
                continue;
            }
            if let Some(j) = txs[i].waiting_on {
                let enemy_gone = !txs[j].shared.is_active() || txs[j].shared.is_waiting();
                if enemy_gone {
                    txs[i].waiting_on = None;
                    txs[i].shared.set_waiting(false);
                    txs[i].uninterrupted_from = tick;
                }
            }
        }
        // Phase C1: every running transaction performs the accesses scheduled
        // for its current progress, resolving conflicts through its manager.
        for i in 0..n {
            if txs[i].committed_at.is_some()
                || txs[i].waiting_on.is_some()
                || txs[i].shared.is_aborted()
            {
                continue;
            }
            let mut attempts_this_tick = 0usize;
            'accesses: while txs[i].next_access < transactions[i].accesses.len() {
                let access = transactions[i].accesses[txs[i].next_access];
                if access.offset != txs[i].progress {
                    break;
                }
                attempts_this_tick += 1;
                if attempts_this_tick > 4 * n.max(1) {
                    // Give up for this tick; retry next tick.
                    break;
                }
                prune_object(&mut objects[access.object], &txs);
                let enemy = find_enemy(&objects[access.object], &txs, i, access.write);
                match enemy {
                    None => {
                        acquire(&mut objects[access.object], i, access.write);
                        let shared = Arc::clone(&txs[i].shared);
                        txs[i].manager.opened(TxView::new(&shared));
                        txs[i].next_access += 1;
                    }
                    Some(j) => {
                        let kind = if access.write {
                            ConflictKind::WriteWrite
                        } else {
                            ConflictKind::ReadWrite
                        };
                        let me_shared = Arc::clone(&txs[i].shared);
                        let other_shared = Arc::clone(&txs[j].shared);
                        let resolution = txs[i].manager.resolve(
                            TxView::new(&me_shared),
                            TxView::new(&other_shared),
                            kind,
                        );
                        match resolution {
                            stm_core::Resolution::AbortOther => {
                                other_shared.try_abort();
                                release_objects(&mut objects, j);
                                // Retry the same access immediately.
                            }
                            stm_core::Resolution::Wait(_) => {
                                txs[i].waiting_on = Some(j);
                                txs[i].shared.set_waiting(true);
                                break 'accesses;
                            }
                            stm_core::Resolution::AbortSelf => {
                                txs[i].shared.try_abort();
                                break 'accesses;
                            }
                        }
                    }
                }
            }
        }
        // Phase C2: progress and commits.
        for i in 0..n {
            if txs[i].committed_at.is_some()
                || txs[i].waiting_on.is_some()
                || txs[i].shared.is_aborted()
            {
                continue;
            }
            // A transaction only advances once the accesses scheduled for the
            // current tick have all been performed (the per-tick retry cap in
            // phase C1 can leave one pending).
            let pending_access = transactions[i]
                .accesses
                .get(txs[i].next_access)
                .map(|a| a.offset == txs[i].progress)
                .unwrap_or(false);
            if pending_access {
                continue;
            }
            txs[i].progress += 1;
            if txs[i].progress >= transactions[i].duration
                && txs[i].next_access >= transactions[i].accesses.len()
                && txs[i].shared.try_commit()
            {
                txs[i].committed_at = Some(tick + 1);
                txs[i].uninterrupted_from_at_commit = txs[i].uninterrupted_from;
                release_objects(&mut objects, i);
                let shared = Arc::clone(&txs[i].shared);
                txs[i].manager.committed(TxView::new(&shared));
            }
        }
        tick += 1;
    }

    let commit_ticks: Vec<u64> = txs
        .iter()
        .map(|t| t.committed_at.unwrap_or(u64::MAX))
        .collect();
    let makespan_ticks = if txs.iter().all(|t| t.committed_at.is_some()) {
        Some(commit_ticks.iter().copied().max().unwrap_or(0))
    } else {
        None
    };
    let pending_commit_held = match makespan_ticks {
        None => false,
        Some(makespan) => (0..makespan).all(|t| {
            txs.iter().any(|txn| match txn.committed_at {
                Some(commit) => commit > t && txn.uninterrupted_from_at_commit <= t,
                None => false,
            })
        }),
    };
    SimOutcome {
        makespan_ticks,
        commit_ticks,
        aborts: txs.iter().map(|t| t.aborts).collect(),
        pending_commit_held,
        ticks_run: tick,
    }
}

fn release_objects(objects: &mut [ObjectState], owner: usize) {
    for obj in objects.iter_mut() {
        if obj.writer == Some(owner) {
            obj.writer = None;
        }
        obj.readers.retain(|&r| r != owner);
    }
}

fn prune_object(obj: &mut ObjectState, txs: &[TxRuntime]) {
    if let Some(w) = obj.writer {
        if !txs[w].shared.is_active() {
            obj.writer = None;
        }
    }
    obj.readers.retain(|&r| txs[r].shared.is_active());
}

fn find_enemy(obj: &ObjectState, txs: &[TxRuntime], me: usize, write: bool) -> Option<usize> {
    if let Some(w) = obj.writer {
        if w != me && txs[w].shared.is_active() {
            return Some(w);
        }
    }
    if write {
        obj.readers
            .iter()
            .copied()
            .find(|&r| r != me && txs[r].shared.is_active())
    } else {
        None
    }
}

fn acquire(obj: &mut ObjectState, me: usize, write: bool) {
    if write {
        obj.writer = Some(me);
        obj.readers.retain(|&r| r == me);
    } else if !obj.readers.contains(&me) {
        obj.readers.push(me);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_cm::{AggressiveManager, GreedyManager, KarmaManager};
    use stm_core::manager::factory;

    fn write_access(offset: u64, object: usize) -> SimAccess {
        SimAccess {
            offset,
            object,
            write: true,
        }
    }

    #[test]
    fn independent_transactions_finish_in_one_duration() {
        let txns: Vec<SimTransaction> = (0..4)
            .map(|i| SimTransaction {
                duration: 10,
                priority: i,
                accesses: vec![write_access(0, i as usize)],
            })
            .collect();
        let outcome = simulate(&txns, GreedyManager::factory(), SimConfig::default());
        assert_eq!(outcome.makespan_ticks, Some(10));
        assert_eq!(outcome.total_aborts(), 0);
        assert!(outcome.pending_commit_held);
        assert!((outcome.makespan_units(10.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_conflicting_transactions_serialize_under_greedy() {
        let txns = vec![
            SimTransaction {
                duration: 10,
                priority: 0,
                accesses: vec![write_access(0, 0)],
            },
            SimTransaction {
                duration: 10,
                priority: 1,
                accesses: vec![write_access(0, 0)],
            },
        ];
        let outcome = simulate(&txns, GreedyManager::factory(), SimConfig::default());
        // The older transaction runs to completion; the younger waits and
        // then runs: makespan two durations.
        assert_eq!(outcome.makespan_ticks, Some(20));
        assert!(outcome.pending_commit_held);
        assert_eq!(outcome.commit_ticks[0], 10);
        assert_eq!(outcome.commit_ticks[1], 20);
    }

    #[test]
    fn greedy_never_aborts_the_highest_priority_transaction() {
        // Transaction 0 has the earliest timestamp; whatever the interleaving
        // it must commit on its first attempt.
        let txns = vec![
            SimTransaction {
                duration: 20,
                priority: 0,
                accesses: vec![write_access(0, 0), write_access(10, 1)],
            },
            SimTransaction {
                duration: 20,
                priority: 1,
                accesses: vec![write_access(0, 1), write_access(10, 0)],
            },
            SimTransaction {
                duration: 20,
                priority: 2,
                accesses: vec![write_access(0, 2), write_access(5, 0)],
            },
        ];
        let outcome = simulate(&txns, GreedyManager::factory(), SimConfig::default());
        assert!(outcome.makespan_ticks.is_some());
        assert_eq!(outcome.aborts[0], 0, "highest priority must never abort");
        assert!(outcome.pending_commit_held);
    }

    #[test]
    fn aggressive_can_livelock_but_greedy_cannot() {
        // Two transactions that want each other's objects mid-way. Under the
        // aggressive manager they can keep aborting each other; the tick
        // limit makes the simulation terminate either way. Greedy resolves it
        // deterministically.
        let txns = vec![
            SimTransaction {
                duration: 10,
                priority: 0,
                accesses: vec![write_access(0, 0), write_access(5, 1)],
            },
            SimTransaction {
                duration: 10,
                priority: 1,
                accesses: vec![write_access(0, 1), write_access(5, 0)],
            },
        ];
        let greedy = simulate(
            &txns,
            GreedyManager::factory(),
            SimConfig { max_ticks: 10_000 },
        );
        assert!(greedy.makespan_ticks.is_some());
        assert!(greedy.pending_commit_held);
        let aggressive = simulate(
            &txns,
            factory(AggressiveManager::new),
            SimConfig { max_ticks: 2_000 },
        );
        // Aggressive may or may not converge (it is livelock-prone); the
        // simulator must simply terminate and report what happened.
        assert!(aggressive.ticks_run <= 2_000);
    }

    #[test]
    fn karma_accumulates_priority_across_aborts() {
        let txns = vec![
            SimTransaction {
                duration: 30,
                priority: 0,
                accesses: vec![write_access(0, 0), write_access(20, 1)],
            },
            SimTransaction {
                duration: 10,
                priority: 1,
                accesses: vec![write_access(0, 1)],
            },
            SimTransaction {
                duration: 10,
                priority: 2,
                accesses: vec![write_access(0, 2), write_access(5, 1)],
            },
        ];
        let outcome = simulate(&txns, KarmaManager::factory(), SimConfig::default());
        assert!(
            outcome.makespan_ticks.is_some(),
            "karma workload must finish"
        );
    }

    #[test]
    fn invalid_transactions_are_rejected() {
        let bad = SimTransaction {
            duration: 5,
            priority: 0,
            accesses: vec![write_access(7, 0)],
        };
        assert!(bad.validate().is_err());
        let unsorted = SimTransaction {
            duration: 10,
            priority: 0,
            accesses: vec![write_access(5, 0), write_access(1, 1)],
        };
        assert!(unsorted.validate().is_err());
        let zero = SimTransaction {
            duration: 0,
            priority: 0,
            accesses: vec![],
        };
        assert!(zero.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid simulated transaction")]
    fn simulate_panics_on_invalid_input() {
        let bad = SimTransaction {
            duration: 0,
            priority: 0,
            accesses: vec![],
        };
        let _ = simulate(&[bad], GreedyManager::factory(), SimConfig::default());
    }

    #[test]
    fn read_accesses_do_not_conflict_with_each_other() {
        let txns: Vec<SimTransaction> = (0..4)
            .map(|i| SimTransaction {
                duration: 10,
                priority: i,
                accesses: vec![SimAccess {
                    offset: 0,
                    object: 0,
                    write: false,
                }],
            })
            .collect();
        let outcome = simulate(&txns, GreedyManager::factory(), SimConfig::default());
        assert_eq!(outcome.makespan_ticks, Some(10));
        assert_eq!(outcome.total_aborts(), 0);
    }
}
