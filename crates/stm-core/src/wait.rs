//! Waiting and backoff primitives used when a contention manager decides
//! that the current transaction should wait for an enemy.

use std::time::Duration;

/// How long, and under which conditions, a transaction should wait for the
/// enemy transaction it conflicts with.
///
/// Regardless of the spec, the runtime always stops waiting as soon as the
/// enemy is no longer active (it committed or aborted), as soon as the enemy
/// itself starts waiting (the condition the greedy manager's Rule 2 watches
/// for), or as soon as the waiting transaction is itself aborted by a third
/// party.
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
    use std::time::Instant;

    #[test]
    fn wait_spec_constructors() {
        assert_eq!(WaitSpec::until_enemy_quiesces().max, None);
        assert_eq!(
            WaitSpec::bounded(Duration::from_millis(5)).max,
            Some(Duration::from_millis(5))
        );
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
