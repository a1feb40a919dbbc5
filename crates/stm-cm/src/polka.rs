//! The Polka contention manager (Scherer & Scott, "Advanced contention
//! management for dynamic software transactional memory", PODC 2005).
//!
//! Polka is the marriage of **Pol**ite and **Ka**rma: priorities are the
//! Karma work estimates (objects opened, retained across aborts), but instead
//! of fixed-size backoff rounds a conflicting transaction performs a number
//! of *exponentially growing* backoffs equal to the difference between the
//! enemy's priority and its own, and only then aborts the enemy. The paper's
//! figures show Polka (together with Karma) leading in contention-intensive
//! scenarios.

use std::time::Duration;

use stm_core::manager::{factory, ManagerFactory};
use stm_core::{ContentionManager, Resolution, TxView, WaitSpec};

/// Initial backoff interval.
const BASE: Duration = Duration::from_micros(2);
/// Maximum backoff interval.
const CAP: Duration = Duration::from_millis(1);
/// Hard upper bound on backoff rounds regardless of the karma gap (keeps
/// the tail bounded when the enemy is vastly richer).
const MAX_ROUNDS: u32 = 16;

/// Polite + Karma: karma-difference many exponential backoffs, then abort.
/// Earns one karma per object opened.
#[derive(Debug, Default, Clone)]
pub struct PolkaManager {
    round: u32,
    conflict_with: Option<u64>,
}

impl PolkaManager {
    /// A per-thread factory.
    pub fn factory() -> ManagerFactory {
        factory(PolkaManager::default)
    }

    fn interval(&self) -> Duration {
        let factor = 1u32 << self.round.min(20);
        BASE.saturating_mul(factor).min(CAP)
    }
}

impl ContentionManager for PolkaManager {
    fn name(&self) -> &'static str {
        "polka"
    }

    fn opened(&mut self, me: TxView<'_>) {
        me.add_karma(1);
    }

    fn committed(&mut self, me: TxView<'_>) {
        me.reset_karma();
        self.round = 0;
        self.conflict_with = None;
    }

    fn resolve(&mut self, me: TxView<'_>, other: TxView<'_>) -> Resolution {
        if self.conflict_with != Some(other.id()) {
            self.conflict_with = Some(other.id());
            self.round = 0;
        }
        let gap = other.karma().saturating_sub(me.karma());
        let rounds_allowed = (gap.min(u64::from(MAX_ROUNDS))) as u32;
        if u64::from(self.round) >= u64::from(rounds_allowed) {
            self.round = 0;
            self.conflict_with = None;
            return Resolution::AbortOther;
        }
        let wait = self.interval();
        self.round += 1;
        Resolution::Wait(WaitSpec::bounded(wait))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{tx, view};

    #[test]
    fn richer_me_aborts_immediately() {
        let me = tx(1, 1);
        let other = tx(2, 2);
        view(&me).add_karma(5);
        view(&other).add_karma(2);
        let mut m = PolkaManager::default();
        assert_eq!(m.resolve(view(&me), view(&other)), Resolution::AbortOther);
    }

    #[test]
    fn backoff_rounds_equal_karma_gap() {
        let me = tx(1, 1);
        let other = tx(2, 2);
        view(&other).add_karma(3);
        let mut m = PolkaManager::default();
        let mut waits = 0;
        while let Resolution::Wait(_) = m.resolve(view(&me), view(&other)) {
            waits += 1;
            assert!(waits < 50);
        }
        assert_eq!(waits, 3, "gap of 3 karma means 3 backoff rounds");
    }

    #[test]
    fn rounds_are_capped() {
        let me = tx(1, 1);
        let other = tx(2, 2);
        view(&other).add_karma(1_000);
        let mut m = PolkaManager::default();
        let mut waits = 0;
        while let Resolution::Wait(spec) = m.resolve(view(&me), view(&other)) {
            assert!(spec.max.unwrap() <= CAP);
            waits += 1;
        }
        assert_eq!(waits, MAX_ROUNDS);
    }

    #[test]
    fn hooks_and_names() {
        let me = tx(1, 1);
        let mut m = PolkaManager::default();
        m.opened(view(&me));
        assert_eq!(view(&me).karma(), 1);
        m.committed(view(&me));
        assert_eq!(view(&me).karma(), 0);
        assert_eq!(m.name(), "polka");
        assert_eq!(PolkaManager::factory()().name(), "polka");
    }
}
