//! The [`TxSet`] trait: the integer-set interface shared by all benchmark
//! structures, so workloads can be written once and run against the list,
//! the skiplist, the red-black tree, or the forest.

use stm_core::{TxResult, Txn};

/// A transactional set of 64-bit integers.
///
/// All operations run inside the caller's transaction: they neither start
/// nor commit transactions themselves, so several operations can be composed
/// atomically.
pub trait TxSet: Send + Sync {
    /// Inserts `key`. Returns `true` if the key was not already present.
    fn insert(&self, tx: &mut Txn<'_>, key: i64) -> TxResult<bool>;

    /// Removes `key`. Returns `true` if the key was present.
    fn remove(&self, tx: &mut Txn<'_>, key: i64) -> TxResult<bool>;

    /// Returns `true` if `key` is present.
    fn contains(&self, tx: &mut Txn<'_>, key: i64) -> TxResult<bool>;

    /// Number of elements in the set.
    fn len(&self, tx: &mut Txn<'_>) -> TxResult<usize>;

    /// Returns `true` when the set is empty.
    fn is_empty(&self, tx: &mut Txn<'_>) -> TxResult<bool> {
        Ok(self.len(tx)? == 0)
    }

    /// The set's elements in ascending order.
    fn to_vec(&self, tx: &mut Txn<'_>) -> TxResult<Vec<i64>>;

    /// The set's elements in `lo..=hi`, in ascending order.
    ///
    /// Range queries run entirely inside the caller's transaction, so the
    /// whole interval is observed as one consistent snapshot, and every
    /// object read stays registered until the transaction ends: the
    /// accumulated read set is what a writer to any part of the interval
    /// has to settle with. The default implementation
    /// materializes the full set via [`TxSet::to_vec`] and filters;
    /// implementations override it with a bounded walk that reads only the
    /// search path to `lo` plus the interval itself.
    fn range(&self, tx: &mut Txn<'_>, lo: i64, hi: i64) -> TxResult<Vec<i64>> {
        Ok(self
            .to_vec(tx)?
            .into_iter()
            .filter(|key| (lo..=hi).contains(key))
            .collect())
    }

    /// A short name for reports ("list", "skiplist", "rbtree", ...).
    fn structure_name(&self) -> &'static str;
}
