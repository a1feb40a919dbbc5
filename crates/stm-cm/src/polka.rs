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
use stm_core::{ConflictKind, ContentionManager, Resolution, TxView, WaitSpec};

/// Default initial backoff interval.
pub const DEFAULT_POLKA_BASE: Duration = Duration::from_micros(2);
/// Default maximum backoff interval.
pub const DEFAULT_POLKA_CAP: Duration = Duration::from_millis(1);
/// Default hard cap on backoff rounds regardless of the karma gap.
pub const DEFAULT_POLKA_MAX_ROUNDS: u32 = 16;

/// Polite + Karma: karma-difference many exponential backoffs, then abort.
#[derive(Debug, Clone)]
pub struct PolkaManager {
    base: Duration,
    cap: Duration,
    /// Hard upper bound on backoff rounds regardless of the karma gap (keeps
    /// the tail bounded when the enemy is vastly richer).
    max_rounds: u32,
    round: u32,
    conflict_with: Option<u64>,
}

impl Default for PolkaManager {
    fn default() -> Self {
        PolkaManager::new(DEFAULT_POLKA_BASE, DEFAULT_POLKA_CAP, DEFAULT_POLKA_MAX_ROUNDS)
    }
}

impl PolkaManager {
    /// Creates a Polka manager earning one karma per object opened.
    pub fn new(base: Duration, cap: Duration, max_rounds: u32) -> Self {
        PolkaManager {
            base,
            cap,
            max_rounds,
            round: 0,
            conflict_with: None,
        }
    }

    /// A per-thread factory with the default parameters.
    pub fn factory() -> ManagerFactory {
        factory(PolkaManager::default)
    }

    fn interval(&self) -> Duration {
        let factor = 1u32 << self.round.min(20);
        self.base.saturating_mul(factor).min(self.cap)
    }
}

impl ContentionManager for PolkaManager {
    fn name(&self) -> &'static str {
        "polka"
    }

    fn opened(&mut self, me: TxView<'_>, _object_id: u64) {
        me.add_karma(1);
    }

    fn committed(&mut self, me: TxView<'_>) {
        me.reset_karma();
        self.round = 0;
        self.conflict_with = None;
    }

    fn resolve(&mut self, me: TxView<'_>, other: TxView<'_>, _kind: ConflictKind) -> Resolution {
        if self.conflict_with != Some(other.id()) {
            self.conflict_with = Some(other.id());
            self.round = 0;
        }
        let gap = other.karma().saturating_sub(me.karma());
        let rounds_allowed = (gap.min(self.max_rounds as u64)) as u32;
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
        assert_eq!(
            m.resolve(view(&me), view(&other), ConflictKind::WriteWrite),
            Resolution::AbortOther
        );
    }

    #[test]
    fn backoff_rounds_equal_karma_gap() {
        let me = tx(1, 1);
        let other = tx(2, 2);
        view(&other).add_karma(3);
        let mut m = PolkaManager::new(Duration::from_micros(1), Duration::from_millis(1), 16);
        let mut waits = 0;
        loop {
            match m.resolve(view(&me), view(&other), ConflictKind::WriteWrite) {
                Resolution::Wait(_) => waits += 1,
                Resolution::AbortOther => break,
                Resolution::AbortSelf => panic!("polka never aborts itself"),
            }
            assert!(waits < 50);
        }
        assert_eq!(waits, 3, "gap of 3 karma means 3 backoff rounds");
    }

    #[test]
    fn rounds_are_capped() {
        let me = tx(1, 1);
        let other = tx(2, 2);
        view(&other).add_karma(1_000);
        let mut m = PolkaManager::new(Duration::from_micros(1), Duration::from_micros(16), 4);
        let mut waits = 0;
        loop {
            match m.resolve(view(&me), view(&other), ConflictKind::WriteWrite) {
                Resolution::Wait(spec) => {
                    assert!(spec.max.unwrap() <= Duration::from_micros(16));
                    waits += 1;
                }
                Resolution::AbortOther => break,
                Resolution::AbortSelf => unreachable!(),
            }
        }
        assert_eq!(waits, 4);
    }

    #[test]
    fn hooks_and_names() {
        let me = tx(1, 1);
        let mut m = PolkaManager::default();
        m.opened(view(&me), 1);
        assert_eq!(view(&me).karma(), 1);
        m.committed(view(&me));
        assert_eq!(view(&me).karma(), 0);
        assert_eq!(m.name(), "polka");
        assert_eq!(PolkaManager::factory()().name(), "polka");
    }
}
