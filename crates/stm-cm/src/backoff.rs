//! Adaptive exponential backoff ("Backoff" in the paper's figures).
//!
//! On conflict the transaction simply backs off for an exponentially growing
//! interval and retries the access; after a bounded number of rounds against
//! the same enemy it gives up being nice and aborts the enemy. Works well
//! when transactions have roughly the same size, but — as the paper's
//! introduction notes — is "less effective if long transactions must compete
//! with shorter transactions", and it provides no deterministic progress
//! guarantee.

use std::time::Duration;

use stm_core::manager::{factory, ManagerFactory};
use stm_core::{ConflictKind, ContentionManager, Resolution, TxView, WaitSpec};

/// Initial backoff interval.
const BASE: Duration = Duration::from_micros(2);
/// Maximum backoff interval.
const CAP: Duration = Duration::from_millis(1);
/// Backoff rounds against one enemy before the enemy is aborted.
const MAX_ROUNDS: u32 = 12;

/// Exponential-backoff contention manager.
///
/// The interval doubles from 2 µs up to 1 ms, and an enemy is aborted after
/// 12 rounds against it.
#[derive(Debug, Clone, Default)]
pub struct BackoffManager {
    round: u32,
    conflict_with: Option<u64>,
}

impl BackoffManager {
    /// A per-thread factory.
    pub fn factory() -> ManagerFactory {
        factory(BackoffManager::default)
    }

    fn interval(&self) -> Duration {
        let factor = 1u32 << self.round.min(20);
        BASE.saturating_mul(factor).min(CAP)
    }
}

impl ContentionManager for BackoffManager {
    fn name(&self) -> &'static str {
        "backoff"
    }

    fn begin(&mut self, _me: TxView<'_>) {
        self.round = 0;
        self.conflict_with = None;
    }

    fn resolve(&mut self, _me: TxView<'_>, other: TxView<'_>, _kind: ConflictKind) -> Resolution {
        if self.conflict_with != Some(other.id()) {
            self.conflict_with = Some(other.id());
            self.round = 0;
        }
        if self.round >= MAX_ROUNDS {
            self.round = 0;
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
    fn backs_off_with_growing_intervals() {
        let me = tx(1, 1);
        let other = tx(2, 2);
        let mut m = BackoffManager::default();
        let mut last = Duration::ZERO;
        for _ in 0..MAX_ROUNDS {
            match m.resolve(view(&me), view(&other), ConflictKind::WriteWrite) {
                Resolution::Wait(spec) => {
                    let d = spec.max.unwrap();
                    assert!(d >= last);
                    last = d;
                }
                r => panic!("expected wait, got {r:?}"),
            }
        }
        assert_eq!(last, CAP);
        assert_eq!(
            m.resolve(view(&me), view(&other), ConflictKind::WriteWrite),
            Resolution::AbortOther
        );
    }

    #[test]
    fn interval_is_capped() {
        let me = tx(1, 1);
        let other = tx(2, 2);
        let mut m = BackoffManager::default();
        for _ in 0..MAX_ROUNDS {
            if let Resolution::Wait(spec) =
                m.resolve(view(&me), view(&other), ConflictKind::WriteWrite)
            {
                assert!(spec.max.unwrap() <= CAP);
            }
        }
    }

    #[test]
    fn new_enemy_restarts_series_and_begin_resets() {
        let me = tx(1, 1);
        let a = tx(2, 2);
        let b = tx(3, 3);
        let mut m = BackoffManager::default();
        for _ in 0..MAX_ROUNDS {
            let _ = m.resolve(view(&me), view(&a), ConflictKind::WriteWrite);
        }
        // Next against `a` would abort; against `b` the series restarts.
        assert!(matches!(
            m.resolve(view(&me), view(&b), ConflictKind::WriteWrite),
            Resolution::Wait(_)
        ));
        m.begin(view(&me));
        assert!(matches!(
            m.resolve(view(&me), view(&a), ConflictKind::WriteWrite),
            Resolution::Wait(_)
        ));
        assert_eq!(m.name(), "backoff");
        assert_eq!(BackoffManager::factory()().name(), "backoff");
    }
}
