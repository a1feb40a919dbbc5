//! The Karma contention manager (Scherer & Scott).
//!
//! Karma estimates how much work a transaction has already invested by
//! counting the objects it has opened; the count — its *karma* — is retained
//! across aborts, so a transaction that keeps getting knocked down
//! accumulates seniority. On conflict a transaction aborts the enemy only if
//! its own karma plus the number of times it has already retried this
//! conflict exceeds the enemy's karma; otherwise it backs off briefly and
//! tries again.
//!
//! The paper reports Karma doing particularly well in contention-intensive
//! workloads, but also points out its theoretical weakness: "any transaction
//! A might get repeatedly aborted due to newcomer transactions that, between
//! two aborts of A, get aborted more often and access more objects" — it has
//! no deterministic progress guarantee.

use std::time::Duration;

use stm_core::manager::{factory, ManagerFactory};
use stm_core::{ContentionManager, Resolution, TxView, WaitSpec};

/// Inter-round backoff while the karma gap is open.
const BACKOFF: Duration = Duration::from_micros(4);
/// Karma earned per object opened (1 in Scherer & Scott's formulation).
const INCREMENT: u64 = 1;

/// Work-based priority contention manager.
#[derive(Debug, Clone, Default)]
pub struct KarmaManager {
    /// Retry counter for the conflict currently being fought.
    attempts: u64,
    conflict_with: Option<u64>,
}

impl KarmaManager {
    /// A per-thread factory.
    pub fn factory() -> ManagerFactory {
        factory(KarmaManager::default)
    }
}

impl ContentionManager for KarmaManager {
    fn name(&self) -> &'static str {
        "karma"
    }

    fn opened(&mut self, me: TxView<'_>) {
        // Accumulated in the lineage, so it survives aborts.
        me.add_karma(INCREMENT);
    }

    fn committed(&mut self, me: TxView<'_>) {
        // Karma is spent once the transaction finally commits.
        me.reset_karma();
        self.attempts = 0;
        self.conflict_with = None;
    }

    fn resolve(&mut self, me: TxView<'_>, other: TxView<'_>) -> Resolution {
        if self.conflict_with != Some(other.id()) {
            self.conflict_with = Some(other.id());
            self.attempts = 0;
        }
        let my_priority = me.karma() + self.attempts;
        if my_priority > other.karma() {
            self.attempts = 0;
            self.conflict_with = None;
            Resolution::AbortOther
        } else {
            self.attempts += 1;
            Resolution::Wait(WaitSpec::bounded(BACKOFF))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{tx, view};

    #[test]
    fn opened_accumulates_karma_and_commit_resets_it() {
        let me = tx(1, 1);
        let mut m = KarmaManager::default();
        m.opened(view(&me));
        m.opened(view(&me));
        m.opened(view(&me));
        assert_eq!(view(&me).karma(), 3);
        m.committed(view(&me));
        assert_eq!(view(&me).karma(), 0);
    }

    #[test]
    fn increment_scales_earned_priority() {
        let me = tx(1, 1);
        let mut m = KarmaManager::default();
        m.opened(view(&me));
        m.opened(view(&me));
        assert_eq!(view(&me).karma(), 2 * INCREMENT);
    }

    #[test]
    fn richer_transaction_aborts_poorer_enemy() {
        let me = tx(1, 1);
        let other = tx(2, 2);
        view(&me).add_karma(10);
        view(&other).add_karma(3);
        let mut m = KarmaManager::default();
        assert_eq!(m.resolve(view(&me), view(&other)), Resolution::AbortOther);
    }

    #[test]
    fn poorer_transaction_waits_until_attempts_close_the_gap() {
        let me = tx(1, 1);
        let other = tx(2, 2);
        view(&other).add_karma(3);
        let mut m = KarmaManager::default();
        // gap of 3 karma, so the first rounds wait; after enough retries the
        // attempt counter closes the gap and the enemy is aborted.
        let mut waits = 0;
        while let Resolution::Wait(spec) = m.resolve(view(&me), view(&other)) {
            assert_eq!(spec.max, Some(BACKOFF));
            waits += 1;
            assert!(waits < 100, "karma never closed the gap");
        }
        assert_eq!(waits, 4, "needs karma+attempts > enemy karma");
    }

    #[test]
    fn attempt_counter_resets_for_new_enemy() {
        let me = tx(1, 1);
        let a = tx(2, 2);
        let b = tx(3, 3);
        view(&a).add_karma(2);
        view(&b).add_karma(2);
        let mut m = KarmaManager::default();
        let _ = m.resolve(view(&me), view(&a));
        let _ = m.resolve(view(&me), view(&a));
        // Switching enemies restarts the attempt counter, so b still wins.
        assert!(matches!(
            m.resolve(view(&me), view(&b)),
            Resolution::Wait(_)
        ));
        assert_eq!(m.name(), "karma");
        assert_eq!(KarmaManager::factory()().name(), "karma");
    }
}
