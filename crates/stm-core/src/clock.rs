//! Timestamp generation.
//!
//! The greedy contention manager assigns each transaction a timestamp when it
//! *first* begins; the timestamp is retained across aborts and restarts and
//! determines priority (earlier timestamp = higher priority). The paper notes
//! that timestamps can be generated "by a variety of methods, including
//! logical clocks"; the key property is that once a transaction takes
//! timestamp `t`, there is a fixed bound on the number of transactions that
//! will ever run with an earlier timestamp.
//!
//! [`TimestampClock`] is a single shared atomic counter, the scheme used in
//! the paper's rules: once a transaction takes `t`, at most `t` transactions
//! ever hold an earlier one. Its values are unique, so the runtime also uses a
//! transaction's timestamp as its identity — one shared counter per
//! transaction start.

use crate::sync::atomic::{AtomicU64, Ordering};

/// A monotone timestamp source shared by all transactions of one [`crate::Stm`].
///
/// Each call to [`TimestampClock::next`] returns a strictly increasing value.
#[derive(Debug, Default)]
pub struct TimestampClock {
    counter: AtomicU64,
}

impl TimestampClock {
    /// Creates a new clock starting at zero.
    pub fn new() -> Self {
        TimestampClock {
            counter: AtomicU64::new(0),
        }
    }

    /// Returns the next timestamp. Values are unique and strictly increasing
    /// across all threads sharing this clock.
    #[inline]
    pub fn next(&self) -> u64 {
        self.counter.fetch_add(1, Ordering::Relaxed)
    }

    /// Returns the number of timestamps handed out so far.
    pub fn issued(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn clock_is_strictly_increasing() {
        let c = TimestampClock::new();
        let a = c.next();
        let b = c.next();
        let d = c.next();
        assert!(a < b && b < d);
        assert_eq!(c.issued(), 3);
    }

    #[test]
    fn clock_values_are_unique_across_threads() {
        let c = Arc::new(TimestampClock::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || {
                (0..1000).map(|_| c.next()).collect::<Vec<u64>>()
            }));
        }
        let mut seen = HashSet::new();
        for h in handles {
            for v in h.join().unwrap() {
                assert!(seen.insert(v), "duplicate timestamp {v}");
            }
        }
        assert_eq!(seen.len(), 8000);
    }
}
