//! The red-black forest (Figure 4, "Red-black forest application").
//!
//! "A data structure made of fifty red-black trees, in which insertions and
//! removals of elements proceed in either one or all trees on a random
//! basis; the distribution of the lengths of the transactions produced ...
//! thus exhibits a high variance." Short transactions touch a single tree;
//! occasionally a transaction updates every tree, producing an update
//! transaction roughly fifty times longer — exactly the "long transactions
//! competing with shorter transactions" situation in which simple backoff
//! struggles and priority-accumulating or priority-preserving managers are
//! expected to shine.
//!
//! The *decision* of whether to touch one tree or all of them belongs to the
//! workload (the caller), which keeps this structure deterministic; the
//! benchmark harness draws it from its own RNG.

use stm_core::{TxResult, Txn};

use crate::rbtree::TxRbTree;
use crate::set::TxSet;

/// Number of trees used by the paper's benchmark.
pub const DEFAULT_FOREST_SIZE: usize = 50;

/// Which trees a forest update targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateScope {
    /// Update the single tree with this index.
    One(usize),
    /// Update every tree in the forest.
    All,
}

/// A collection of red-black trees updated together or individually.
#[derive(Debug, Clone)]
pub struct TxRbForest {
    trees: Vec<TxRbTree>,
}

impl Default for TxRbForest {
    fn default() -> Self {
        Self::new(DEFAULT_FOREST_SIZE)
    }
}

impl TxRbForest {
    /// Creates a forest of `size` empty trees.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "a forest needs at least one tree");
        TxRbForest {
            trees: (0..size).map(|_| TxRbTree::new()).collect(),
        }
    }

    /// Number of trees in the forest.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Access to an individual tree.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn tree(&self, index: usize) -> &TxRbTree {
        &self.trees[index]
    }

    /// Inserts `key` into the trees selected by `scope`. Returns the number
    /// of trees in which the key was newly inserted.
    pub fn insert(&self, tx: &mut Txn<'_>, scope: UpdateScope, key: i64) -> TxResult<usize> {
        match scope {
            UpdateScope::One(index) => Ok(usize::from(self.trees[index].insert(tx, key)?)),
            UpdateScope::All => {
                let mut inserted = 0;
                for tree in &self.trees {
                    if tree.insert(tx, key)? {
                        inserted += 1;
                    }
                }
                Ok(inserted)
            }
        }
    }

    /// Removes `key` from the trees selected by `scope`. Returns the number
    /// of trees from which the key was removed.
    pub fn remove(&self, tx: &mut Txn<'_>, scope: UpdateScope, key: i64) -> TxResult<usize> {
        match scope {
            UpdateScope::One(index) => Ok(usize::from(self.trees[index].remove(tx, key)?)),
            UpdateScope::All => {
                let mut removed = 0;
                for tree in &self.trees {
                    if tree.remove(tx, key)? {
                        removed += 1;
                    }
                }
                Ok(removed)
            }
        }
    }

    /// Returns `true` if `key` is present in the tree with index `index`.
    pub fn contains_in(&self, tx: &mut Txn<'_>, index: usize, key: i64) -> TxResult<bool> {
        self.trees[index].contains(tx, key)
    }

    /// The keys in `lo..=hi` of the tree with index `index`, in ascending
    /// order (see [`TxSet::range`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn range_in(&self, tx: &mut Txn<'_>, index: usize, lo: i64, hi: i64) -> TxResult<Vec<i64>> {
        self.trees[index].range(tx, lo, hi)
    }

    /// Total number of elements across all trees.
    pub fn total_len(&self, tx: &mut Txn<'_>) -> TxResult<usize> {
        let mut total = 0;
        for tree in &self.trees {
            total += tree.len(tx)?;
        }
        Ok(total)
    }

    /// Validates the red-black invariants of every tree and returns the total
    /// number of nodes.
    pub fn check_invariants(&self, tx: &mut Txn<'_>) -> TxResult<usize> {
        let mut total = 0;
        for tree in &self.trees {
            total += tree.check_invariants(tx)?;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use stm_cm::KarmaManager;
    use stm_core::Stm;

    #[test]
    fn one_scope_touches_a_single_tree() {
        let stm = Stm::default();
        let forest = TxRbForest::new(5);
        let mut ctx = stm.thread();
        assert_eq!(
            ctx.atomically(|tx| forest.insert(tx, UpdateScope::One(2), 7))
                .unwrap(),
            1
        );
        assert!(ctx.atomically(|tx| forest.contains_in(tx, 2, 7)).unwrap());
        assert!(!ctx.atomically(|tx| forest.contains_in(tx, 0, 7)).unwrap());
        assert_eq!(ctx.atomically(|tx| forest.total_len(tx)).unwrap(), 1);
        assert_eq!(
            ctx.atomically(|tx| forest.range_in(tx, 2, 0, 10)).unwrap(),
            vec![7]
        );
        assert_eq!(
            ctx.atomically(|tx| forest.range_in(tx, 0, 0, 10)).unwrap(),
            Vec::<i64>::new()
        );
    }

    #[test]
    fn all_scope_touches_every_tree_atomically() {
        let stm = Stm::default();
        let forest = TxRbForest::new(8);
        let mut ctx = stm.thread();
        assert_eq!(
            ctx.atomically(|tx| forest.insert(tx, UpdateScope::All, 42))
                .unwrap(),
            8
        );
        for i in 0..8 {
            assert!(ctx.atomically(|tx| forest.contains_in(tx, i, 42)).unwrap());
        }
        assert_eq!(
            ctx.atomically(|tx| forest.remove(tx, UpdateScope::All, 42))
                .unwrap(),
            8
        );
        assert_eq!(ctx.atomically(|tx| forest.total_len(tx)).unwrap(), 0);
        // Aborted all-tree update leaves nothing behind.
        let _ = ctx.atomically(|tx| {
            forest.insert(tx, UpdateScope::All, 1)?;
            tx.abort::<()>()
        });
        assert_eq!(ctx.atomically(|tx| forest.total_len(tx)).unwrap(), 0);
    }

    #[test]
    fn default_forest_has_fifty_trees() {
        let forest = TxRbForest::default();
        assert_eq!(forest.num_trees(), DEFAULT_FOREST_SIZE);
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_sized_forest_is_rejected() {
        let _ = TxRbForest::new(0);
    }

    #[test]
    fn concurrent_mixed_scope_workload_preserves_invariants() {
        let stm = Arc::new(Stm::builder().manager(KarmaManager::factory()).build());
        let forest = TxRbForest::new(10);
        thread::scope(|scope| {
            for t in 0..4u64 {
                let stm = Arc::clone(&stm);
                let forest = forest.clone();
                scope.spawn(move || {
                    let mut ctx = stm.thread();
                    let mut seed = t.wrapping_mul(0x5851F42D4C957F2D) | 1;
                    for step in 0..200 {
                        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let key = ((seed >> 33) % 32) as i64;
                        let scope_choice = if step % 20 == 0 {
                            UpdateScope::All
                        } else {
                            UpdateScope::One(((seed >> 7) % 10) as usize)
                        };
                        if (seed >> 3) & 1 == 0 {
                            ctx.atomically(|tx| forest.insert(tx, scope_choice, key))
                                .unwrap();
                        } else {
                            ctx.atomically(|tx| forest.remove(tx, scope_choice, key))
                                .unwrap();
                        }
                    }
                });
            }
        });
        let mut ctx = stm.thread();
        ctx.atomically(|tx| forest.check_invariants(tx)).unwrap();
    }
}
