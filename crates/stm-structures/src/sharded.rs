//! A shard-aware wrapper that partitions one logical [`TxSet`] across many
//! underlying sets.
//!
//! Sharding is the standard first move when scaling a keyspace past one
//! structure's contention ceiling: keys are partitioned by residue class
//! (`key mod shards`), so transactions that touch different shards share no
//! `TVar`s at all and can only conflict through keys that genuinely collide.
//! Because every constituent set is itself transactional, a multi-shard
//! operation (a cross-shard `range`, a batch touching keys in several
//! shards) still executes as one serializable transaction — sharding changes
//! the conflict footprint, never the semantics. The price of residue
//! classes is order: every window spans every shard. (`stm-kv`'s store
//! partitions by 1,024-key block instead, so a short window stays in one
//! or two trees.)
//!
//! Ordered queries ([`ShardedTxSet::range`], [`ShardedTxSet::to_vec`])
//! gather the per-shard results (each already ascending) and merge them.

use std::sync::Arc;

use stm_core::{TxResult, Txn};

use crate::chunked::TxChunkedSet;
use crate::rbtree::TxRbTree;
use crate::set::TxSet;
use crate::skiplist::TxSkipList;

/// A transactional integer set partitioned over `shards` underlying sets by
/// key residue (`key.rem_euclid(shards)`).
#[derive(Clone)]
pub struct ShardedTxSet {
    shards: Vec<Arc<dyn TxSet>>,
}

impl std::fmt::Debug for ShardedTxSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedTxSet")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl ShardedTxSet {
    /// Builds a sharded set from explicit shard instances.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is empty.
    pub fn new(shards: Vec<Arc<dyn TxSet>>) -> Self {
        assert!(!shards.is_empty(), "a sharded set needs at least one shard");
        ShardedTxSet { shards }
    }

    /// `shards` (at least one) shards built by `make`.
    fn of<S: TxSet + 'static>(shards: usize, make: fn() -> S) -> Self {
        ShardedTxSet::new(
            (0..shards.max(1))
                .map(|_| Arc::new(make()) as Arc<dyn TxSet>)
                .collect(),
        )
    }

    /// A sharded set whose shards are chunked B+-trees (the `stm-kv`
    /// keyspace-index configuration).
    pub fn chunked(shards: usize) -> Self {
        Self::of(shards, TxChunkedSet::new)
    }

    /// A sharded set whose shards are red-black trees (the paper's Figure 3
    /// structure).
    pub fn rbtree(shards: usize) -> Self {
        Self::of(shards, TxRbTree::new)
    }

    /// A sharded set whose shards are skiplists.
    pub fn skiplist(shards: usize) -> Self {
        Self::of(shards, TxSkipList::new)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index responsible for `key`.
    pub fn shard_of(&self, key: i64) -> usize {
        key.rem_euclid(self.shards.len() as i64) as usize
    }

    fn shard(&self, key: i64) -> &dyn TxSet {
        &*self.shards[self.shard_of(key)]
    }

    /// Merges per-shard ascending runs into one ascending vector.
    fn merge_sorted(runs: Vec<Vec<i64>>) -> Vec<i64> {
        let total = runs.iter().map(Vec::len).sum();
        let mut merged = Vec::with_capacity(total);
        let mut cursors = vec![0usize; runs.len()];
        loop {
            let mut best: Option<(usize, i64)> = None;
            for (i, run) in runs.iter().enumerate() {
                if let Some(&head) = run.get(cursors[i]) {
                    if best.is_none_or(|(_, b)| head < b) {
                        best = Some((i, head));
                    }
                }
            }
            match best {
                Some((i, head)) => {
                    cursors[i] += 1;
                    merged.push(head);
                }
                None => break,
            }
        }
        merged
    }
}

impl TxSet for ShardedTxSet {
    fn insert(&self, tx: &mut Txn<'_>, key: i64) -> TxResult<bool> {
        self.shard(key).insert(tx, key)
    }

    fn remove(&self, tx: &mut Txn<'_>, key: i64) -> TxResult<bool> {
        self.shard(key).remove(tx, key)
    }

    fn contains(&self, tx: &mut Txn<'_>, key: i64) -> TxResult<bool> {
        self.shard(key).contains(tx, key)
    }

    fn len(&self, tx: &mut Txn<'_>) -> TxResult<usize> {
        let mut total = 0;
        for shard in &self.shards {
            total += shard.len(tx)?;
        }
        Ok(total)
    }

    fn to_vec(&self, tx: &mut Txn<'_>) -> TxResult<Vec<i64>> {
        let mut runs = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            runs.push(shard.to_vec(tx)?);
        }
        Ok(Self::merge_sorted(runs))
    }

    fn range(&self, tx: &mut Txn<'_>, lo: i64, hi: i64) -> TxResult<Vec<i64>> {
        let mut runs = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            runs.push(shard.range(tx, lo, hi)?);
        }
        Ok(Self::merge_sorted(runs))
    }

    fn structure_name(&self) -> &'static str {
        "sharded"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::Stm;

    fn with_set(shards: usize, body: impl FnOnce(&Stm, &ShardedTxSet)) {
        let stm = Stm::default();
        let set = ShardedTxSet::rbtree(shards);
        body(&stm, &set);
    }

    #[test]
    fn basic_ops_route_to_shards() {
        with_set(4, |stm, set| {
            let mut ctx = stm.thread();
            ctx.atomically(|tx| {
                for key in [-5i64, -1, 0, 3, 4, 7, 100] {
                    assert!(set.insert(tx, key)?);
                    assert!(!set.insert(tx, key)?);
                }
                assert!(set.contains(tx, 7)?);
                assert!(!set.contains(tx, 8)?);
                assert!(set.remove(tx, 3)?);
                assert!(!set.remove(tx, 3)?);
                assert_eq!(set.len(tx)?, 6);
                Ok(())
            })
            .unwrap();
        });
    }

    #[test]
    fn to_vec_and_range_merge_ascending_across_shards() {
        with_set(3, |stm, set| {
            let mut ctx = stm.thread();
            let keys: Vec<i64> = vec![9, 2, 14, -3, 0, 5, 7, 21, 22, 23];
            ctx.atomically(|tx| {
                for &key in &keys {
                    set.insert(tx, key)?;
                }
                Ok(())
            })
            .unwrap();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            let all = ctx.atomically(|tx| set.to_vec(tx)).unwrap();
            assert_eq!(all, sorted);
            let window = ctx.atomically(|tx| set.range(tx, 0, 14)).unwrap();
            let expect: Vec<i64> = sorted.iter().copied().filter(|k| (0..=14).contains(k)).collect();
            assert_eq!(window, expect);
        });
    }

    #[test]
    fn shard_of_handles_negative_keys() {
        let set = ShardedTxSet::rbtree(8);
        assert_eq!(set.num_shards(), 8);
        for key in [-17i64, -8, -1, 0, 1, 63] {
            let shard = set.shard_of(key);
            assert!(shard < 8);
            assert_eq!(shard as i64, key.rem_euclid(8));
        }
    }

    #[test]
    fn skiplist_shards_and_single_shard_degenerate() {
        let stm = Stm::default();
        let set = ShardedTxSet::skiplist(1);
        assert_eq!(set.num_shards(), 1);
        assert_eq!(set.structure_name(), "sharded");
        let mut ctx = stm.thread();
        ctx.atomically(|tx| {
            set.insert(tx, 10)?;
            set.insert(tx, 1)?;
            Ok(())
        })
        .unwrap();
        assert_eq!(ctx.atomically(|tx| set.to_vec(tx)).unwrap(), vec![1, 10]);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn empty_shard_vector_is_rejected() {
        let _ = ShardedTxSet::new(Vec::new());
    }
}
