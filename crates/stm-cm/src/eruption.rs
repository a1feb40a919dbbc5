//! The Eruption contention manager (Scherer & Scott).
//!
//! Eruption is Karma with *pressure transfer*: a transaction that decides to
//! wait behind a higher-karma enemy adds its own karma (its "momentum") to
//! that enemy, so a transaction that blocks many others quickly accumulates
//! enough priority to erupt through whatever is blocking *it*. Like Karma it
//! accounts for the work a conflicting transaction has performed and for how
//! often it has already been aborted — and like Karma it offers no
//! deterministic progress guarantee.

use std::time::Duration;

use stm_core::manager::{factory, ManagerFactory};
use stm_core::{ConflictKind, ContentionManager, Resolution, TxView, WaitSpec};

/// Inter-round backoff while blocked.
const BACKOFF: Duration = Duration::from_micros(4);

/// Karma with pressure transfer onto the blocking transaction.
#[derive(Debug, Default, Clone)]
pub struct EruptionManager {
    attempts: u64,
    conflict_with: Option<u64>,
    /// Whether we already pushed our momentum onto the current enemy (we only
    /// push once per conflict episode to avoid unbounded self-inflation in a
    /// tight retry loop).
    pushed: bool,
}

impl EruptionManager {
    /// A per-thread factory.
    pub fn factory() -> ManagerFactory {
        factory(EruptionManager::default)
    }
}

impl ContentionManager for EruptionManager {
    fn name(&self) -> &'static str {
        "eruption"
    }

    fn opened(&mut self, me: TxView<'_>) {
        me.add_karma(1);
    }

    fn committed(&mut self, me: TxView<'_>) {
        me.reset_karma();
        self.attempts = 0;
        self.conflict_with = None;
        self.pushed = false;
    }

    fn resolve(&mut self, me: TxView<'_>, other: TxView<'_>, _kind: ConflictKind) -> Resolution {
        if self.conflict_with != Some(other.id()) {
            self.conflict_with = Some(other.id());
            self.attempts = 0;
            self.pushed = false;
        }
        let my_priority = me.karma() + self.attempts;
        if my_priority > other.karma() {
            self.attempts = 0;
            self.conflict_with = None;
            self.pushed = false;
            Resolution::AbortOther
        } else {
            if !self.pushed {
                // Transfer our momentum to the transaction blocking us.
                other.add_karma(me.karma() + 1);
                self.pushed = true;
            }
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
    fn blocked_transaction_pushes_momentum_onto_blocker() {
        let me = tx(1, 1);
        let other = tx(2, 2);
        view(&me).add_karma(2);
        view(&other).add_karma(10);
        let mut m = EruptionManager::default();
        let before = view(&other).karma();
        let r = m.resolve(view(&me), view(&other), ConflictKind::WriteWrite);
        assert!(matches!(r, Resolution::Wait(_)));
        assert_eq!(view(&other).karma(), before + 3, "blocker gains my karma + 1");
        // Momentum is pushed only once per conflict episode.
        let _ = m.resolve(view(&me), view(&other), ConflictKind::WriteWrite);
        assert_eq!(view(&other).karma(), before + 3);
    }

    #[test]
    fn richer_transaction_erupts_through() {
        let me = tx(1, 1);
        let other = tx(2, 2);
        view(&me).add_karma(20);
        view(&other).add_karma(1);
        let mut m = EruptionManager::default();
        assert_eq!(
            m.resolve(view(&me), view(&other), ConflictKind::WriteWrite),
            Resolution::AbortOther
        );
    }

    #[test]
    fn attempts_eventually_close_the_gap() {
        let me = tx(1, 1);
        let other = tx(2, 2);
        view(&other).add_karma(3);
        let mut m = EruptionManager::default();
        let mut rounds = 0;
        loop {
            match m.resolve(view(&me), view(&other), ConflictKind::WriteWrite) {
                Resolution::AbortOther => break,
                Resolution::Wait(_) => {
                    rounds += 1;
                    assert!(rounds < 100);
                }
                Resolution::AbortSelf => panic!("eruption never aborts itself"),
            }
        }
        assert!(rounds > 0);
    }

    #[test]
    fn commit_resets_state_and_hooks_accumulate() {
        let me = tx(1, 1);
        let mut m = EruptionManager::default();
        m.opened(view(&me));
        m.opened(view(&me));
        assert_eq!(view(&me).karma(), 2);
        m.committed(view(&me));
        assert_eq!(view(&me).karma(), 0);
        assert_eq!(m.name(), "eruption");
        assert_eq!(EruptionManager::factory()().name(), "eruption");
    }
}
