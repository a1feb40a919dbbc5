//! The greedy contention manager — the paper's central contribution.
//!
//! Every transaction is assigned a timestamp when it *first* begins and keeps
//! it across aborts and restarts; an earlier timestamp means higher priority.
//! When transaction `A` is about to perform an access that conflicts with
//! transaction `B`, the greedy manager applies two rules (Section 3):
//!
//! 1. If `B` is lower priority than `A`, **or** `B` is waiting for another
//!    transaction, then `A` aborts `B`.
//! 2. If `B` is higher priority than `A` and is not waiting, then `A` waits
//!    until `B` commits, aborts, or starts waiting (in which case Rule 1
//!    applies).
//!
//! Because the highest-priority running transaction never waits and is never
//! aborted, the greedy manager satisfies the *pending-commit property* — at
//! any time some running transaction will run uninterrupted until it commits
//! — which by Theorem 9 bounds the makespan of `n` concurrent transactions
//! sharing `s` objects to within a factor of `s(s+1)+2` of an optimal
//! off-line list schedule, and by Theorem 1 guarantees that every transaction
//! commits within a bounded delay.
//!
//! [`GreedyTimeoutManager`] adds the Section 6 extension for transactions
//! that may halt undetectably: waits are bounded by a per-enemy time-out that
//! doubles every time a wait on that enemy expires and the enemy has to be
//! killed.

use std::collections::HashMap;
use std::time::Duration;

use stm_core::manager::{factory, ManagerFactory};
use stm_core::{ConflictKind, ContentionManager, Resolution, TxView, WaitSpec};

/// Returns `true` when `other` has strictly lower priority than `me`
/// (i.e. a strictly later timestamp; ties are broken by transaction id so two
/// distinct transactions are never considered equal).
fn lower_priority(me: TxView<'_>, other: TxView<'_>) -> bool {
    match other.timestamp().cmp(&me.timestamp()) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => other.id() > me.id(),
    }
}

/// The greedy contention manager (paper, Section 3).
///
/// Stateless: decisions depend only on the two transactions' timestamps and
/// the enemy's `waiting` flag, so the manager is trivially decentralised.
#[derive(Debug, Default, Clone, Copy)]
pub struct GreedyManager;

impl GreedyManager {
    /// Creates a greedy manager.
    pub fn new() -> Self {
        GreedyManager
    }

    /// A per-thread factory for use with [`stm_core::StmBuilder::manager`].
    pub fn factory() -> ManagerFactory {
        factory(GreedyManager::new)
    }
}

impl ContentionManager for GreedyManager {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn resolve(&mut self, me: TxView<'_>, other: TxView<'_>, _kind: ConflictKind) -> Resolution {
        // Rule 1: abort enemies that are lower priority or themselves waiting.
        if lower_priority(me, other) || other.is_waiting() {
            Resolution::AbortOther
        } else {
            // Rule 2: wait until the higher-priority enemy commits, aborts,
            // or starts waiting. The runtime's wait loop wakes on exactly
            // those three events.
            Resolution::wait_for_enemy()
        }
    }
}

/// Default initial wait time-out of [`GreedyTimeoutManager`].
pub const DEFAULT_GREEDY_TIMEOUT: Duration = Duration::from_micros(50);

/// The greedy manager extended with doubling time-outs (paper, Section 6).
///
/// Whenever a transaction waits for a higher-priority enemy, the wait is
/// bounded by a time-out associated with that enemy. If the time-out expires
/// and the enemy is still active (it may have crashed or been swapped out),
/// the enemy is aborted and its time-out is doubled for the next encounter —
/// "choose the time-out period to be proportional to the number of times A
/// had to wait for B and then aborted B ... simply performed by doubling the
/// time for each such new discovery."
#[derive(Debug, Clone)]
pub struct GreedyTimeoutManager {
    base: Duration,
    /// Per-enemy state, keyed by the enemy's lineage: (current time-out
    /// exponent, the enemy attempt our last wait was for). Meeting that same
    /// attempt again means the wait expired with it still in the way; an
    /// enemy that aborted and restarted meanwhile did not halt.
    enemies: HashMap<u64, (u32, Option<u64>)>,
}

impl Default for GreedyTimeoutManager {
    fn default() -> Self {
        GreedyTimeoutManager::new(DEFAULT_GREEDY_TIMEOUT)
    }
}

impl GreedyTimeoutManager {
    /// Creates a greedy-with-time-out manager with the given initial wait
    /// time-out.
    pub fn new(base: Duration) -> Self {
        GreedyTimeoutManager {
            base,
            enemies: HashMap::new(),
        }
    }

    /// A per-thread factory using [`DEFAULT_GREEDY_TIMEOUT`].
    pub fn factory() -> ManagerFactory {
        factory(GreedyTimeoutManager::default)
    }

    fn timeout_for(&self, exponent: u32) -> Duration {
        self.base * (1u32 << exponent.min(16))
    }
}

impl ContentionManager for GreedyTimeoutManager {
    fn name(&self) -> &'static str {
        "greedy-timeout"
    }

    fn committed(&mut self, _me: TxView<'_>) {
        self.enemies.clear();
    }

    fn resolve(&mut self, me: TxView<'_>, other: TxView<'_>, _kind: ConflictKind) -> Resolution {
        if lower_priority(me, other) || other.is_waiting() {
            return Resolution::AbortOther;
        }
        let attempt = Some(other.attempt());
        let (exponent, waited_for) = self.enemies.get(&other.id()).copied().unwrap_or((0, None));
        if waited_for == attempt {
            // We already waited for this very attempt and it is still in the
            // way: presume it halted, abort it, and double the time-out we
            // will grant it next time.
            self.enemies
                .insert(other.id(), (exponent.saturating_add(1), None));
            return Resolution::AbortOther;
        }
        self.enemies.insert(other.id(), (exponent, attempt));
        let timeout = self.timeout_for(exponent);
        Resolution::Wait(WaitSpec::bounded(timeout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{tx, view};
    use std::sync::Arc;
    use stm_core::TxShared;

    #[test]
    fn rule_one_aborts_lower_priority_enemy() {
        let me = tx(1, 10);
        let other = tx(2, 20); // later timestamp -> lower priority
        let mut greedy = GreedyManager::new();
        assert_eq!(
            greedy.resolve(view(&me), view(&other), ConflictKind::WriteWrite),
            Resolution::AbortOther
        );
    }

    #[test]
    fn rule_one_aborts_waiting_enemy_even_if_higher_priority() {
        let me = tx(1, 20);
        let other = tx(2, 10); // earlier timestamp -> higher priority
        other.set_waiting(true);
        let mut greedy = GreedyManager::new();
        assert_eq!(
            greedy.resolve(view(&me), view(&other), ConflictKind::WriteWrite),
            Resolution::AbortOther
        );
    }

    #[test]
    fn rule_two_waits_for_higher_priority_enemy() {
        let me = tx(1, 20);
        let other = tx(2, 10);
        let mut greedy = GreedyManager::new();
        assert_eq!(
            greedy.resolve(view(&me), view(&other), ConflictKind::ReadWrite),
            Resolution::wait_for_enemy()
        );
    }

    #[test]
    fn ties_are_broken_deterministically_and_asymmetrically() {
        let a = tx(1, 10);
        let b = tx(2, 10);
        let mut greedy = GreedyManager::new();
        let ab = greedy.resolve(view(&a), view(&b), ConflictKind::WriteWrite);
        let ba = greedy.resolve(view(&b), view(&a), ConflictKind::WriteWrite);
        // Exactly one direction aborts, the other waits: no mutual abort, no
        // mutual wait.
        assert_ne!(ab == Resolution::AbortOther, ba == Resolution::AbortOther);
    }

    #[test]
    fn highest_priority_transaction_never_waits_nor_aborts_itself() {
        let oldest = tx(1, 0);
        let mut greedy = GreedyManager::new();
        for ts in 1..50u64 {
            let enemy = tx(ts + 1, ts);
            let r = greedy.resolve(view(&oldest), view(&enemy), ConflictKind::WriteWrite);
            assert_eq!(r, Resolution::AbortOther);
        }
    }

    #[test]
    fn greedy_timeout_waits_then_kills_then_doubles() {
        let me = tx(1, 20);
        let other = tx(2, 10);
        let mut mgr = GreedyTimeoutManager::new(Duration::from_micros(10));
        // First encounter: bounded wait with the base time-out.
        let r1 = mgr.resolve(view(&me), view(&other), ConflictKind::WriteWrite);
        match r1 {
            Resolution::Wait(spec) => assert_eq!(spec.max, Some(Duration::from_micros(10))),
            other => panic!("expected wait, got {other:?}"),
        }
        // Second encounter with the same live enemy: presume halted, kill it.
        let r2 = mgr.resolve(view(&me), view(&other), ConflictKind::WriteWrite);
        assert_eq!(r2, Resolution::AbortOther);
        // Third encounter: wait again, but with the doubled time-out.
        let r3 = mgr.resolve(view(&me), view(&other), ConflictKind::WriteWrite);
        match r3 {
            Resolution::Wait(spec) => assert_eq!(spec.max, Some(Duration::from_micros(20))),
            other => panic!("expected wait, got {other:?}"),
        }
    }

    #[test]
    fn greedy_timeout_waits_again_for_a_restarted_enemy() {
        let me = tx(1, 20);
        let other = tx(2, 10);
        let mut mgr = GreedyTimeoutManager::new(Duration::from_micros(10));
        let base_wait = Resolution::backoff(Duration::from_micros(10));
        let first = mgr.resolve(view(&me), view(&other), ConflictKind::WriteWrite);
        assert_eq!(first, base_wait);
        // The wait ended because the enemy's attempt aborted, not because it
        // expired: the enemy's next attempt is owed a fresh wait at the
        // same time-out, not a kill.
        let restarted = Arc::new(TxShared::new(Arc::clone(other.lineage()), 2));
        let second = mgr.resolve(view(&me), view(&restarted), ConflictKind::WriteWrite);
        assert_eq!(second, base_wait);
    }

    #[test]
    fn greedy_timeout_still_applies_rule_one() {
        let me = tx(1, 10);
        let other = tx(2, 20);
        let mut mgr = GreedyTimeoutManager::default();
        assert_eq!(
            mgr.resolve(view(&me), view(&other), ConflictKind::WriteWrite),
            Resolution::AbortOther
        );
        assert_eq!(mgr.name(), "greedy-timeout");
    }

    #[test]
    fn factories_produce_named_managers() {
        assert_eq!(GreedyManager::factory()().name(), "greedy");
        assert_eq!(GreedyTimeoutManager::factory()().name(), "greedy-timeout");
    }
}

