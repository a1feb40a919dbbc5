//! The sorted linked-list integer set (Figure 1, "List application").
//!
//! Every operation walks the list from the head, transactionally reading
//! each node it passes; with the paper's parameters (256 possible keys, 100%
//! updates) the shared prefix makes this the most contention-intensive of
//! the benchmark structures.
//!
//! The list uses two sentinel nodes holding `i64::MIN` and `i64::MAX`, so
//! traversal never has to special-case an empty list.

use stm_core::{TVar, TxResult, Txn};

use crate::set::TxSet;

/// One list node: a key and the next node.
#[derive(Debug, Clone)]
struct Node {
    key: i64,
    next: Option<TVar<Node>>,
}

/// A transactional sorted linked-list set.
#[derive(Debug, Clone)]
pub struct TxList {
    head: TVar<Node>,
}

impl Default for TxList {
    fn default() -> Self {
        Self::new()
    }
}

impl TxList {
    /// Creates an empty list.
    pub fn new() -> Self {
        let tail = TVar::new(Node {
            key: i64::MAX,
            next: None,
        });
        let head = TVar::new(Node {
            key: i64::MIN,
            next: Some(tail),
        });
        TxList { head }
    }

    /// Finds the node pair `(pred, curr)` such that `pred.key < key` and
    /// `curr.key >= key`. `curr` is `None` only if the key is larger than
    /// every element (impossible given the `i64::MAX` sentinel).
    fn locate(&self, tx: &mut Txn<'_>, key: i64) -> TxResult<(TVar<Node>, Node, TVar<Node>, Node)> {
        debug_assert!(
            key > i64::MIN && key < i64::MAX,
            "sentinel keys are reserved"
        );
        let mut pred_var = self.head.clone();
        let mut pred = tx.read(&pred_var)?;
        loop {
            let curr_var = pred
                .next
                .clone()
                .expect("interior nodes always have a successor");
            let curr = tx.read(&curr_var)?;
            if curr.key >= key {
                return Ok((pred_var, pred, curr_var, curr));
            }
            pred_var = curr_var;
            pred = curr;
        }
    }

    /// Materializes the whole list inside the caller's transaction.
    ///
    /// A snapshot is a single pass whose read set covers every node — the
    /// longest read chain any benchmark structure produces — so it
    /// is the list's entry in the range-query workloads: any concurrent
    /// update to any node conflicts with it.
    pub fn snapshot(&self, tx: &mut Txn<'_>) -> TxResult<Vec<i64>> {
        let mut out = Vec::new();
        let mut node = tx.read(&self.head)?;
        while let Some(next_var) = node.next.clone() {
            node = tx.read(&next_var)?;
            if node.key != i64::MAX {
                out.push(node.key);
            }
        }
        Ok(out)
    }
}

impl TxSet for TxList {
    fn insert(&self, tx: &mut Txn<'_>, key: i64) -> TxResult<bool> {
        let (pred_var, pred, curr_var, curr) = self.locate(tx, key)?;
        if curr.key == key {
            return Ok(false);
        }
        let node = TVar::new(Node {
            key,
            next: Some(curr_var),
        });
        tx.write(
            &pred_var,
            Node {
                key: pred.key,
                next: Some(node),
            },
        )?;
        Ok(true)
    }

    fn remove(&self, tx: &mut Txn<'_>, key: i64) -> TxResult<bool> {
        let (pred_var, pred, _curr_var, curr) = self.locate(tx, key)?;
        if curr.key != key {
            return Ok(false);
        }
        tx.write(
            &pred_var,
            Node {
                key: pred.key,
                next: curr.next,
            },
        )?;
        Ok(true)
    }

    fn contains(&self, tx: &mut Txn<'_>, key: i64) -> TxResult<bool> {
        let (_, _, _, curr) = self.locate(tx, key)?;
        Ok(curr.key == key)
    }

    fn len(&self, tx: &mut Txn<'_>) -> TxResult<usize> {
        Ok(self.to_vec(tx)?.len())
    }

    fn to_vec(&self, tx: &mut Txn<'_>) -> TxResult<Vec<i64>> {
        self.snapshot(tx)
    }

    /// Walks from the head and stops at the first key past `hi`, so the read
    /// set covers only the prefix up to the end of the interval (the list
    /// cannot skip the prefix below `lo`).
    fn range(&self, tx: &mut Txn<'_>, lo: i64, hi: i64) -> TxResult<Vec<i64>> {
        let mut out = Vec::new();
        let mut node = tx.read(&self.head)?;
        while let Some(next_var) = node.next.clone() {
            node = tx.read(&next_var)?;
            if node.key == i64::MAX || node.key > hi {
                break;
            }
            if node.key >= lo {
                out.push(node.key);
            }
        }
        Ok(out)
    }

    fn structure_name(&self) -> &'static str {
        "list"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Arc;
    use std::thread;
    use stm_cm::GreedyManager;
    use stm_core::Stm;

    fn with_list<R>(f: impl FnOnce(&Stm, &TxList) -> R) -> R {
        let stm = Stm::builder().manager(GreedyManager::factory()).build();
        let list = TxList::new();
        f(&stm, &list)
    }

    #[test]
    fn insert_remove_contains_basics() {
        with_list(|stm, list| {
            let mut ctx = stm.thread();
            assert!(ctx.atomically(|tx| list.insert(tx, 5)).unwrap());
            assert!(ctx.atomically(|tx| list.insert(tx, 1)).unwrap());
            assert!(ctx.atomically(|tx| list.insert(tx, 9)).unwrap());
            assert!(!ctx.atomically(|tx| list.insert(tx, 5)).unwrap());
            assert!(ctx.atomically(|tx| list.contains(tx, 5)).unwrap());
            assert!(!ctx.atomically(|tx| list.contains(tx, 4)).unwrap());
            assert_eq!(ctx.atomically(|tx| list.to_vec(tx)).unwrap(), vec![1, 5, 9]);
            assert!(ctx.atomically(|tx| list.remove(tx, 5)).unwrap());
            assert!(!ctx.atomically(|tx| list.remove(tx, 5)).unwrap());
            assert_eq!(ctx.atomically(|tx| list.to_vec(tx)).unwrap(), vec![1, 9]);
            assert_eq!(ctx.atomically(|tx| list.len(tx)).unwrap(), 2);
            assert!(!ctx.atomically(|tx| list.is_empty(tx)).unwrap());
            assert_eq!(list.structure_name(), "list");
        });
    }

    #[test]
    fn matches_a_model_set_for_a_random_workload() {
        with_list(|stm, list| {
            let mut ctx = stm.thread();
            let mut model = BTreeSet::new();
            let mut seed = 0x9e3779b97f4a7c15u64;
            for _ in 0..2_000 {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                let key = ((seed >> 33) % 64) as i64;
                let insert = (seed >> 11) & 1 == 0;
                let (expected, actual) = if insert {
                    (
                        model.insert(key),
                        ctx.atomically(|tx| list.insert(tx, key)).unwrap(),
                    )
                } else {
                    (
                        model.remove(&key),
                        ctx.atomically(|tx| list.remove(tx, key)).unwrap(),
                    )
                };
                assert_eq!(expected, actual);
            }
            let contents = ctx.atomically(|tx| list.to_vec(tx)).unwrap();
            assert_eq!(contents, model.iter().copied().collect::<Vec<_>>());
        });
    }

    #[test]
    fn snapshot_and_range_agree_with_to_vec() {
        with_list(|stm, list| {
            let mut ctx = stm.thread();
            for key in [4, 1, 9, 6, 2] {
                ctx.atomically(|tx| list.insert(tx, key)).unwrap();
            }
            assert_eq!(
                ctx.atomically(|tx| list.snapshot(tx)).unwrap(),
                vec![1, 2, 4, 6, 9]
            );
            assert_eq!(
                ctx.atomically(|tx| list.range(tx, 2, 6)).unwrap(),
                vec![2, 4, 6]
            );
            assert_eq!(
                ctx.atomically(|tx| list.range(tx, 5, 5)).unwrap(),
                Vec::<i64>::new()
            );
            assert_eq!(
                ctx.atomically(|tx| list.range(tx, -100, 100)).unwrap(),
                vec![1, 2, 4, 6, 9]
            );
            // A range sees writes of its own transaction.
            let in_tx = ctx
                .atomically(|tx| {
                    list.insert(tx, 3)?;
                    list.range(tx, 1, 4)
                })
                .unwrap();
            assert_eq!(in_tx, vec![1, 2, 3, 4]);
        });
    }

    #[test]
    fn multi_key_transaction_is_atomic() {
        with_list(|stm, list| {
            let mut ctx = stm.thread();
            ctx.atomically(|tx| {
                list.insert(tx, 1)?;
                list.insert(tx, 2)?;
                list.insert(tx, 3)?;
                Ok(())
            })
            .unwrap();
            // Aborted transaction leaves no partial effects.
            let _ = ctx.atomically(|tx| {
                list.remove(tx, 1)?;
                list.remove(tx, 2)?;
                tx.abort::<()>()
            });
            assert_eq!(ctx.atomically(|tx| list.to_vec(tx)).unwrap(), vec![1, 2, 3]);
        });
    }

    #[test]
    fn concurrent_disjoint_inserts_all_land() {
        let stm = Arc::new(Stm::builder().manager(GreedyManager::factory()).build());
        let list = TxList::new();
        let threads = 4i64;
        let per_thread = 64i64;
        thread::scope(|scope| {
            for t in 0..threads {
                let stm = Arc::clone(&stm);
                let list = list.clone();
                scope.spawn(move || {
                    let mut ctx = stm.thread();
                    for i in 0..per_thread {
                        let key = t * per_thread + i;
                        assert!(ctx.atomically(|tx| list.insert(tx, key)).unwrap());
                    }
                });
            }
        });
        let mut ctx = stm.thread();
        let contents = ctx.atomically(|tx| list.to_vec(tx)).unwrap();
        assert_eq!(contents.len(), (threads * per_thread) as usize);
        assert!(contents.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
    }

    #[test]
    fn concurrent_mixed_workload_preserves_set_semantics() {
        let stm = Arc::new(Stm::builder().manager(GreedyManager::factory()).build());
        let list = TxList::new();
        let keys = 32i64;
        thread::scope(|scope| {
            for t in 0..4u64 {
                let stm = Arc::clone(&stm);
                let list = list.clone();
                scope.spawn(move || {
                    let mut ctx = stm.thread();
                    let mut seed = t.wrapping_mul(0x9e3779b97f4a7c15) | 1;
                    for _ in 0..500 {
                        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let key = ((seed >> 33) % keys as u64) as i64;
                        if (seed >> 7) & 1 == 0 {
                            let _ = ctx.atomically(|tx| list.insert(tx, key)).unwrap();
                        } else {
                            let _ = ctx.atomically(|tx| list.remove(tx, key)).unwrap();
                        }
                    }
                });
            }
        });
        let mut ctx = stm.thread();
        let contents = ctx.atomically(|tx| list.to_vec(tx)).unwrap();
        assert!(contents.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
        assert!(contents.iter().all(|&k| (0..keys).contains(&k)));
    }
}
