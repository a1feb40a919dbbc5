//! A trivial transactional counter, used by examples, tests and the
//! starvation experiment (Theorem 1: every transaction commits within a
//! bounded delay, even a long transaction that touches many counters while
//! short transactions hammer them).

use stm_core::{Stm, TVar, TxResult, Txn};

/// A shared 64-bit counter.
#[derive(Debug, Clone, Default)]
pub struct TxCounter {
    value: TVar<i64>,
}

impl TxCounter {
    /// Creates a counter starting at zero.
    pub fn new() -> Self {
        TxCounter {
            value: TVar::new(0),
        }
    }

    /// Adds `delta` to the counter and returns the new value.
    pub fn add(&self, tx: &mut Txn<'_>, delta: i64) -> TxResult<i64> {
        let next = tx.read(&self.value)? + delta;
        tx.write(&self.value, next)?;
        Ok(next)
    }

    /// Increments the counter by one and returns the new value.
    pub fn increment(&self, tx: &mut Txn<'_>) -> TxResult<i64> {
        self.add(tx, 1)
    }

    /// Reads the counter inside a transaction.
    pub fn get(&self, tx: &mut Txn<'_>) -> TxResult<i64> {
        tx.read(&self.value)
    }

    /// Reads the latest committed value outside any transaction.
    pub fn load(&self, stm: &Stm) -> i64 {
        stm.read_atomic(&self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use stm_cm::GreedyManager;

    #[test]
    fn increments_and_reads() {
        let stm = Stm::default();
        let counter = TxCounter::new();
        let mut ctx = stm.thread();
        let v = ctx
            .atomically(|tx| {
                counter.add(tx, 5)?;
                counter.increment(tx)?;
                counter.get(tx)
            })
            .unwrap();
        assert_eq!(v, 6);
        assert_eq!(counter.load(&stm), 6);
    }

    #[test]
    fn concurrent_increments_are_exact_under_greedy() {
        let stm = Arc::new(Stm::builder().manager(GreedyManager::factory()).build());
        let counter = TxCounter::new();
        let threads = 4;
        let per_thread = 1_000;
        thread::scope(|scope| {
            for _ in 0..threads {
                let stm = Arc::clone(&stm);
                let counter = counter.clone();
                scope.spawn(move || {
                    let mut ctx = stm.thread();
                    for _ in 0..per_thread {
                        ctx.atomically(|tx| counter.increment(tx)).unwrap();
                    }
                });
            }
        });
        assert_eq!(counter.load(&stm), threads * per_thread);
    }
}
