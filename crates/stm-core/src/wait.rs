//! Waiting and backoff primitives used when a contention manager decides
//! that the current transaction should wait for an enemy.

use std::time::Duration;

use crate::txn::TxShared;

/// How long, and under which conditions, a transaction should wait for the
/// enemy transaction it conflicts with.
///
/// [`WaitSpec::is_over`] is the one rule for when a wait ends, and both the
/// runtime's wait loop and `stm-sched`'s simulator obey it: the wait ends as
/// soon as the enemy is no longer active (it committed or aborted), as soon
/// as the enemy itself starts waiting (the condition the greedy manager's
/// Rule 2 watches for), as soon as the waiting transaction is itself aborted
/// by a third party, or once `max` has passed. The waiter then re-runs the
/// access that conflicted, consulting its manager again if the conflict is
/// still there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitSpec {
    /// Upper bound on the wait. `None` means "wait until the enemy commits,
    /// aborts, or starts waiting" (the greedy manager's unbounded wait, which
    /// is nonetheless finite when transaction delays are finite).
    pub max: Option<Duration>,
}

impl WaitSpec {
    /// Wait until the enemy commits, aborts, or starts waiting.
    pub const fn until_enemy_quiesces() -> Self {
        WaitSpec { max: None }
    }

    /// Wait at most `max`, then give control back to the contention manager.
    pub const fn bounded(max: Duration) -> Self {
        WaitSpec { max: Some(max) }
    }

    /// Whether the wait of `me` for `enemy` is over, given how long it has
    /// lasted so far. `waited` is called only for a bounded spec, so an
    /// unbounded wait never reads a clock.
    pub fn is_over(
        &self,
        me: &TxShared,
        enemy: &TxShared,
        waited: impl FnOnce() -> Duration,
    ) -> bool {
        !enemy.is_active()
            || enemy.is_waiting()
            || me.is_aborted()
            || self.max.is_some_and(|max| waited() >= max)
    }
}

/// A small spin/yield backoff used inside wait loops.
///
/// The first few iterations spin with `core::hint::spin_loop`, after which
/// the waiter yields to the OS scheduler, and eventually sleeps for short,
/// exponentially growing intervals (capped). This mirrors the adaptive
/// backoff used by the DSTM/SXM runtimes the paper experiments with.
#[derive(Debug)]
pub struct SpinWait {
    step: u32,
}

impl Default for SpinWait {
    fn default() -> Self {
        Self::new()
    }
}

impl SpinWait {
    const SPIN_LIMIT: u32 = 6;
    const YIELD_LIMIT: u32 = 10;
    const MAX_SLEEP_US: u64 = 100;

    /// Creates a fresh backoff state.
    pub fn new() -> Self {
        SpinWait { step: 0 }
    }

    /// Performs one backoff step: spin, yield, or sleep depending on how many
    /// steps have already been taken.
    pub fn snooze(&mut self) {
        if self.step < Self::SPIN_LIMIT {
            for _ in 0..(1u32 << self.step) {
                core::hint::spin_loop();
            }
        } else if self.step < Self::YIELD_LIMIT {
            std::thread::yield_now();
        } else {
            let exp = (self.step - Self::YIELD_LIMIT).min(6);
            let us = (1u64 << exp).min(Self::MAX_SLEEP_US);
            std::thread::sleep(Duration::from_micros(us));
        }
        self.step = self.step.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::TxLineage;
    use std::sync::Arc;
    use std::time::Instant;

    fn tx(id: u64) -> TxShared {
        TxShared::new(Arc::new(TxLineage::new(id, id)), 1)
    }

    #[test]
    fn wait_spec_constructors() {
        assert_eq!(WaitSpec::until_enemy_quiesces().max, None);
        assert_eq!(
            WaitSpec::bounded(Duration::from_millis(5)).max,
            Some(Duration::from_millis(5))
        );
    }

    /// A case: its name, what it does to (waiter, enemy), how long the wait
    /// has lasted, and whether it is over.
    type Case = (&'static str, fn(&TxShared, &TxShared), Duration, bool);

    #[test]
    fn a_wait_ends_on_each_stop_condition_and_on_no_other() {
        let max = Duration::from_micros(50);
        let cases: [Case; 6] = [
            ("both running", |_, _| {}, max / 2, false),
            (
                "enemy committed",
                |_, enemy| assert!(enemy.try_commit()),
                max / 2,
                true,
            ),
            (
                "enemy aborted",
                |_, enemy| assert!(enemy.try_abort()),
                max / 2,
                true,
            ),
            (
                "enemy waiting",
                |_, enemy| enemy.set_waiting(true),
                max / 2,
                true,
            ),
            (
                "waiter aborted",
                |me, _| assert!(me.try_abort()),
                max / 2,
                true,
            ),
            ("max passed", |_, _| {}, max, true),
        ];
        for (case, set_up, waited, over) in cases {
            let (me, enemy) = (tx(1), tx(2));
            set_up(&me, &enemy);
            let spec = WaitSpec::bounded(max);
            assert_eq!(spec.is_over(&me, &enemy, || waited), over, "{case}");
        }
    }

    #[test]
    fn an_unbounded_wait_never_times_out() {
        let (me, enemy) = (tx(1), tx(2));
        let clock = || unreachable!("an unbounded wait read the clock");
        assert!(!WaitSpec::until_enemy_quiesces().is_over(&me, &enemy, clock));
    }

    #[test]
    fn spin_wait_does_not_sleep_excessively() {
        let mut w = SpinWait::new();
        let start = Instant::now();
        for _ in 0..40 {
            w.snooze();
        }
        // 40 steps with a 100us cap must finish well under a second.
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}
