//! Greedy's Section 6 extension for transactions that may halt
//! undetectably.
//!
//! The greedy manager itself ([`GreedyManager`](crate::GreedyManager),
//! re-exported from `stm-core`, whose default it is) orders transactions by
//! [`TxView::outranks`] and waits for a higher-priority enemy until it
//! commits, aborts or starts waiting — a wait that never ends if the enemy
//! halted. [`GreedyTimeoutManager`] bounds those waits by a per-enemy
//! time-out that doubles every time a wait on that enemy expires and the
//! enemy has to be killed.

use std::collections::HashMap;
use std::time::Duration;

use stm_core::manager::{factory, ManagerFactory};
use stm_core::{ConflictKind, ContentionManager, Resolution, TxView, WaitSpec};

/// Initial wait time-out of [`GreedyTimeoutManager`] for every enemy.
const BASE: Duration = Duration::from_micros(50);

/// The greedy manager extended with doubling time-outs (paper, Section 6).
///
/// Whenever a transaction waits for a higher-priority enemy, the wait is
/// bounded by a time-out associated with that enemy. If the time-out expires
/// and the enemy is still active (it may have crashed or been swapped out),
/// the enemy is aborted and its time-out is doubled for the next encounter —
/// "choose the time-out period to be proportional to the number of times A
/// had to wait for B and then aborted B ... simply performed by doubling the
/// time for each such new discovery."
#[derive(Debug, Clone, Default)]
pub struct GreedyTimeoutManager {
    /// Per-enemy state, keyed by the enemy's lineage: (current time-out
    /// exponent, the enemy attempt our last wait was for). Meeting that same
    /// attempt again means the wait expired with it still in the way; an
    /// enemy that aborted and restarted meanwhile did not halt.
    enemies: HashMap<u64, (u32, Option<u64>)>,
}

impl GreedyTimeoutManager {
    /// A per-thread factory.
    pub fn factory() -> ManagerFactory {
        factory(GreedyTimeoutManager::default)
    }
}

/// The time-out granted an enemy already killed `exponent` times.
fn timeout_for(exponent: u32) -> Duration {
    BASE * (1u32 << exponent.min(16))
}

impl ContentionManager for GreedyTimeoutManager {
    fn name(&self) -> &'static str {
        "greedy-timeout"
    }

    fn committed(&mut self, _me: TxView<'_>) {
        self.enemies.clear();
    }

    fn resolve(&mut self, me: TxView<'_>, other: TxView<'_>, _kind: ConflictKind) -> Resolution {
        if me.outranks(other) || other.is_waiting() {
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
        let timeout = timeout_for(exponent);
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
    fn greedy_timeout_waits_then_kills_then_doubles() {
        let me = tx(1, 20);
        let other = tx(2, 10);
        let mut mgr = GreedyTimeoutManager::default();
        // First encounter: bounded wait with the base time-out.
        let r1 = mgr.resolve(view(&me), view(&other), ConflictKind::WriteWrite);
        match r1 {
            Resolution::Wait(spec) => assert_eq!(spec.max, Some(BASE)),
            other => panic!("expected wait, got {other:?}"),
        }
        // Second encounter with the same live enemy: presume halted, kill it.
        let r2 = mgr.resolve(view(&me), view(&other), ConflictKind::WriteWrite);
        assert_eq!(r2, Resolution::AbortOther);
        // Third encounter: wait again, but with the doubled time-out.
        let r3 = mgr.resolve(view(&me), view(&other), ConflictKind::WriteWrite);
        match r3 {
            Resolution::Wait(spec) => assert_eq!(spec.max, Some(2 * BASE)),
            other => panic!("expected wait, got {other:?}"),
        }
    }

    #[test]
    fn greedy_timeout_waits_again_for_a_restarted_enemy() {
        let me = tx(1, 20);
        let other = tx(2, 10);
        let mut mgr = GreedyTimeoutManager::default();
        let base_wait = Resolution::backoff(BASE);
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
        assert_eq!(crate::GreedyManager::factory()().name(), "greedy");
        assert_eq!(GreedyTimeoutManager::factory()().name(), "greedy-timeout");
    }
}
