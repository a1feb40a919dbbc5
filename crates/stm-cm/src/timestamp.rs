//! The timestamp contention manager (Scherer & Scott).
//!
//! Like greedy, priority is the transaction's start timestamp (older wins).
//! Unlike greedy, a transaction that finds an *older* enemy in its way does
//! not wait indefinitely: it waits in bounded quanta and keeps a per-enemy
//! suspicion counter; once the counter exceeds a patience bound the enemy is
//! presumed defunct (crashed, preempted, swapped out) and killed. The paper
//! credits this manager as the only one from the literature that ensures
//! progress if transactions can stop prematurely, and models its greedy
//! timeout extension (Section 6) on it.

use std::collections::HashMap;
use std::time::Duration;

use stm_core::manager::{factory, ManagerFactory};
use stm_core::{ConflictKind, ContentionManager, Resolution, TxView, WaitSpec};

/// Length of one bounded wait quantum.
const QUANTUM: Duration = Duration::from_micros(20);
/// Expired quanta before an older enemy is presumed defunct.
const PATIENCE: u32 = 8;

/// Timestamp-priority contention manager with suspect-and-kill patience.
#[derive(Debug, Default, Clone)]
pub struct TimestampManager {
    suspicion: HashMap<u64, u32>,
}

impl TimestampManager {
    /// A per-thread factory.
    pub fn factory() -> ManagerFactory {
        factory(TimestampManager::default)
    }
}

impl ContentionManager for TimestampManager {
    fn name(&self) -> &'static str {
        "timestamp"
    }

    fn begin(&mut self, _me: TxView<'_>) {
        self.suspicion.clear();
    }

    fn resolve(&mut self, me: TxView<'_>, other: TxView<'_>, _kind: ConflictKind) -> Resolution {
        if me.outranks(other) {
            // Older transactions simply kill younger ones in their way.
            return Resolution::AbortOther;
        }
        let count = self.suspicion.entry(other.id()).or_insert(0);
        if *count >= PATIENCE {
            // The older enemy has been in our way for `PATIENCE` quanta:
            // presume it is defunct and kill it.
            *count = 0;
            return Resolution::AbortOther;
        }
        *count += 1;
        Resolution::Wait(WaitSpec::bounded(QUANTUM))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{tx, view};

    #[test]
    fn younger_enemy_is_aborted() {
        let me = tx(1, 5);
        let younger = tx(2, 9);
        let mut m = TimestampManager::default();
        assert_eq!(
            m.resolve(view(&me), view(&younger), ConflictKind::WriteWrite),
            Resolution::AbortOther
        );
    }

    #[test]
    fn older_enemy_gets_patience_then_is_killed() {
        let me = tx(2, 9);
        let older = tx(1, 5);
        let mut m = TimestampManager::default();
        for _ in 0..PATIENCE {
            assert_eq!(
                m.resolve(view(&me), view(&older), ConflictKind::WriteWrite),
                Resolution::backoff(QUANTUM)
            );
        }
        assert_eq!(
            m.resolve(view(&me), view(&older), ConflictKind::WriteWrite),
            Resolution::AbortOther
        );
        // After the kill the suspicion counter restarts.
        assert!(matches!(
            m.resolve(view(&me), view(&older), ConflictKind::WriteWrite),
            Resolution::Wait(_)
        ));
    }

    #[test]
    fn suspicion_is_tracked_per_enemy() {
        let me = tx(3, 9);
        let older_a = tx(1, 1);
        let older_b = tx(2, 2);
        let mut m = TimestampManager::default();
        for _ in 0..PATIENCE {
            assert!(matches!(
                m.resolve(view(&me), view(&older_a), ConflictKind::WriteWrite),
                Resolution::Wait(_)
            ));
        }
        // A different enemy has its own counter.
        assert!(matches!(
            m.resolve(view(&me), view(&older_b), ConflictKind::WriteWrite),
            Resolution::Wait(_)
        ));
        assert_eq!(
            m.resolve(view(&me), view(&older_a), ConflictKind::WriteWrite),
            Resolution::AbortOther
        );
    }

    #[test]
    fn begin_clears_suspicion() {
        let me = tx(2, 9);
        let older = tx(1, 5);
        let mut m = TimestampManager::default();
        for _ in 0..PATIENCE {
            let _ = m.resolve(view(&me), view(&older), ConflictKind::WriteWrite);
        }
        m.begin(view(&me));
        assert!(matches!(
            m.resolve(view(&me), view(&older), ConflictKind::WriteWrite),
            Resolution::Wait(_)
        ));
        assert_eq!(m.name(), "timestamp");
        assert_eq!(TimestampManager::factory()().name(), "timestamp");
    }
}
