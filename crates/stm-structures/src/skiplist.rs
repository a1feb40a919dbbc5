//! The skiplist integer set (Figure 2, "Skiplist application").
//!
//! A skiplist keeps several levels of forward pointers so that searches skip
//! over large portions of the list; compared to the plain sorted list this
//! shortens the shared prefix that every transaction reads, and therefore
//! reduces (but does not eliminate) contention.
//!
//! Node levels are derived deterministically from the key (by hashing), so
//! the structure needs no per-operation random-number generator and its
//! shape is reproducible across runs — convenient for benchmarking, and the
//! expected level distribution is the same geometric distribution a
//! randomized skiplist would use.

use stm_core::{TVar, TxResult, Txn};

use crate::set::TxSet;

/// Maximum number of levels. With 256-key benchmark sets, levels beyond 8
/// are essentially never populated, but the structure supports much larger
/// sets.
pub const MAX_LEVEL: usize = 16;

/// One skiplist node: a key and one forward pointer per level.
#[derive(Debug, Clone)]
struct Node {
    key: i64,
    /// Forward pointers; `forward.len()` is the node's level (>= 1). The
    /// tail sentinel has no forward pointers.
    forward: Vec<Option<TVar<Node>>>,
}

/// A transactional skiplist set.
#[derive(Debug, Clone)]
pub struct TxSkipList {
    head: TVar<Node>,
}

impl Default for TxSkipList {
    fn default() -> Self {
        Self::new()
    }
}

/// Deterministic node level for a key: a geometric distribution with
/// parameter 1/2 obtained from the trailing zeros of a mixed hash.
fn level_for_key(key: i64) -> usize {
    let mut h = key as u64 ^ 0x9e37_79b9_7f4a_7c15;
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    ((h.trailing_zeros() as usize) + 1).min(MAX_LEVEL)
}

impl TxSkipList {
    /// Creates an empty skiplist.
    pub fn new() -> Self {
        let tail = TVar::new(Node {
            key: i64::MAX,
            forward: Vec::new(),
        });
        let head = TVar::new(Node {
            key: i64::MIN,
            forward: vec![Some(tail); MAX_LEVEL],
        });
        TxSkipList { head }
    }

    /// Walks the skiplist and returns, for every level, the predecessor node
    /// (as a `TVar` plus its value) of the position where `key` belongs,
    /// together with the node found at level 0 (which has `node.key >= key`).
    #[allow(clippy::type_complexity)]
    fn locate(
        &self,
        tx: &mut Txn<'_>,
        key: i64,
    ) -> TxResult<(Vec<(TVar<Node>, Node)>, TVar<Node>, Node)> {
        debug_assert!(
            key > i64::MIN && key < i64::MAX,
            "sentinel keys are reserved"
        );
        let mut preds: Vec<(TVar<Node>, Node)> = Vec::with_capacity(MAX_LEVEL);
        let mut current_var = self.head.clone();
        let mut current = tx.read(&current_var)?;
        for level in (0..MAX_LEVEL).rev() {
            loop {
                let next_var = current.forward[level]
                    .clone()
                    .expect("interior levels always point at the tail sentinel");
                let next = tx.read(&next_var)?;
                if next.key < key {
                    current_var = next_var;
                    current = next;
                } else {
                    break;
                }
            }
            preds.push((current_var.clone(), current.clone()));
        }
        preds.reverse(); // preds[level] is now the predecessor at `level`.
        let succ_var = preds[0].1.forward[0]
            .clone()
            .expect("level-0 predecessor always has a successor");
        let succ = tx.read(&succ_var)?;
        Ok((preds, succ_var, succ))
    }
}

impl TxSet for TxSkipList {
    fn insert(&self, tx: &mut Txn<'_>, key: i64) -> TxResult<bool> {
        let (preds, _succ_var, succ) = self.locate(tx, key)?;
        if succ.key == key {
            return Ok(false);
        }
        let level = level_for_key(key);
        // The new node's forward pointers are what each predecessor currently
        // points at, level by level.
        let mut forward = Vec::with_capacity(level);
        for (lvl, (_, pred)) in preds.iter().enumerate().take(level) {
            forward.push(pred.forward[lvl].clone());
        }
        let node = TVar::new(Node { key, forward });
        // Re-read each predecessor through `modify`: the same node may be the
        // predecessor at several levels, so each link update must start from
        // the value produced by the previous one.
        for (lvl, (pred_var, _)) in preds.iter().enumerate().take(level) {
            let node = node.clone();
            tx.modify(pred_var, move |p| {
                let mut updated = p.clone();
                updated.forward[lvl] = Some(node);
                updated
            })?;
        }
        Ok(true)
    }

    fn remove(&self, tx: &mut Txn<'_>, key: i64) -> TxResult<bool> {
        let (preds, succ_var, succ) = self.locate(tx, key)?;
        if succ.key != key {
            return Ok(false);
        }
        for (lvl, (pred_var, _)) in preds.iter().enumerate().take(succ.forward.len()) {
            // Only unlink at levels where the predecessor actually points at
            // the victim; re-read through `modify` because the same node may
            // be the predecessor at several levels.
            let victim = succ_var.clone();
            let replacement = succ.forward[lvl].clone();
            tx.modify(pred_var, move |p| {
                let points_at_victim = p.forward[lvl]
                    .as_ref()
                    .map(|next| next.same_object(&victim))
                    .unwrap_or(false);
                if points_at_victim {
                    let mut updated = p.clone();
                    updated.forward[lvl] = replacement;
                    updated
                } else {
                    p.clone()
                }
            })?;
        }
        Ok(true)
    }

    fn contains(&self, tx: &mut Txn<'_>, key: i64) -> TxResult<bool> {
        let (_, _, succ) = self.locate(tx, key)?;
        Ok(succ.key == key)
    }

    fn len(&self, tx: &mut Txn<'_>) -> TxResult<usize> {
        Ok(self.to_vec(tx)?.len())
    }

    /// Uses the forward pointers to skip the prefix below `lo`, then walks
    /// level 0 until the first key past `hi`: the transaction's read set is
    /// the `O(log n)` descent plus exactly the interval — the long read
    /// set the range workloads stress.
    fn range(&self, tx: &mut Txn<'_>, lo: i64, hi: i64) -> TxResult<Vec<i64>> {
        // Unlike `locate`, sentinel-valued bounds are fine here: the descent
        // never advances past a key >= lo, and the tail check below fires
        // before the `> hi` comparison.
        if lo > hi {
            return Ok(Vec::new());
        }
        // Descend to the level-0 predecessor of `lo` (same walk as `locate`,
        // without recording the per-level predecessors).
        let mut current = tx.read(&self.head)?;
        for level in (0..MAX_LEVEL).rev() {
            loop {
                let next_var = current.forward[level]
                    .clone()
                    .expect("interior levels always point at the tail sentinel");
                let next = tx.read(&next_var)?;
                if next.key < lo {
                    current = next;
                } else {
                    break;
                }
            }
        }
        let mut out = Vec::new();
        let mut node_var = current.forward[0]
            .clone()
            .expect("level-0 predecessor always has a successor");
        loop {
            let node = tx.read(&node_var)?;
            if node.key == i64::MAX || node.key > hi {
                break;
            }
            out.push(node.key);
            node_var = node.forward[0]
                .clone()
                .expect("interior nodes always have a level-0 successor");
        }
        Ok(out)
    }

    fn to_vec(&self, tx: &mut Txn<'_>) -> TxResult<Vec<i64>> {
        let mut out = Vec::new();
        let mut node = tx.read(&self.head)?;
        while let Some(next_var) = node.forward.first().cloned().flatten() {
            node = tx.read(&next_var)?;
            if node.key == i64::MAX {
                break;
            }
            out.push(node.key);
        }
        Ok(out)
    }

    fn structure_name(&self) -> &'static str {
        "skiplist"
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

    #[test]
    fn level_distribution_is_geometric_and_bounded() {
        let mut histogram = [0usize; MAX_LEVEL + 1];
        for key in 0..4096i64 {
            let level = level_for_key(key);
            assert!((1..=MAX_LEVEL).contains(&level));
            histogram[level] += 1;
        }
        // Roughly half the keys should be level 1, a quarter level 2, etc.
        assert!(histogram[1] > 1500 && histogram[1] < 2600);
        assert!(histogram[2] > 700 && histogram[2] < 1400);
        assert!(histogram[1] > histogram[2]);
        assert!(histogram[2] > histogram[3]);
    }

    #[test]
    fn insert_remove_contains_basics() {
        let stm = Stm::builder().manager(GreedyManager::factory()).build();
        let set = TxSkipList::new();
        let mut ctx = stm.thread();
        assert!(ctx.atomically(|tx| set.insert(tx, 10)).unwrap());
        assert!(ctx.atomically(|tx| set.insert(tx, 3)).unwrap());
        assert!(ctx.atomically(|tx| set.insert(tx, 7)).unwrap());
        assert!(!ctx.atomically(|tx| set.insert(tx, 7)).unwrap());
        assert!(ctx.atomically(|tx| set.contains(tx, 3)).unwrap());
        assert!(!ctx.atomically(|tx| set.contains(tx, 4)).unwrap());
        assert_eq!(ctx.atomically(|tx| set.to_vec(tx)).unwrap(), vec![3, 7, 10]);
        assert!(ctx.atomically(|tx| set.remove(tx, 7)).unwrap());
        assert!(!ctx.atomically(|tx| set.remove(tx, 7)).unwrap());
        assert_eq!(ctx.atomically(|tx| set.to_vec(tx)).unwrap(), vec![3, 10]);
        assert_eq!(set.structure_name(), "skiplist");
    }

    #[test]
    fn matches_a_model_set_for_a_random_workload() {
        let stm = Stm::builder().manager(GreedyManager::factory()).build();
        let set = TxSkipList::new();
        let mut ctx = stm.thread();
        let mut model = BTreeSet::new();
        let mut seed = 0xdeadbeefcafef00du64;
        for _ in 0..3_000 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = ((seed >> 33) % 128) as i64;
            let insert = (seed >> 13) & 1 == 0;
            let (expected, actual) = if insert {
                (
                    model.insert(key),
                    ctx.atomically(|tx| set.insert(tx, key)).unwrap(),
                )
            } else {
                (
                    model.remove(&key),
                    ctx.atomically(|tx| set.remove(tx, key)).unwrap(),
                )
            };
            assert_eq!(expected, actual);
            // Membership of a few probe keys stays consistent as well.
            let probe = (key + 17) % 128;
            assert_eq!(
                model.contains(&probe),
                ctx.atomically(|tx| set.contains(tx, probe)).unwrap()
            );
        }
        let contents = ctx.atomically(|tx| set.to_vec(tx)).unwrap();
        assert_eq!(contents, model.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn range_returns_the_requested_interval() {
        let stm = Stm::builder().manager(GreedyManager::factory()).build();
        let set = TxSkipList::new();
        let mut ctx = stm.thread();
        for key in (0..64i64).step_by(3) {
            ctx.atomically(|tx| set.insert(tx, key)).unwrap();
        }
        assert_eq!(
            ctx.atomically(|tx| set.range(tx, 10, 25)).unwrap(),
            vec![12, 15, 18, 21, 24]
        );
        assert_eq!(ctx.atomically(|tx| set.range(tx, 0, 0)).unwrap(), vec![0]);
        assert_eq!(
            ctx.atomically(|tx| set.range(tx, 64, 100)).unwrap(),
            Vec::<i64>::new()
        );
        assert_eq!(
            ctx.atomically(|tx| set.range(tx, 25, 10)).unwrap(),
            Vec::<i64>::new()
        );
        // Sentinel-valued bounds are a full-set scan, not a panic.
        assert_eq!(
            ctx.atomically(|tx| set.range(tx, i64::MIN, i64::MAX))
                .unwrap(),
            ctx.atomically(|tx| set.to_vec(tx)).unwrap()
        );
        // A range sees writes of its own transaction.
        let in_tx = ctx
            .atomically(|tx| {
                set.insert(tx, 13)?;
                set.range(tx, 12, 15)
            })
            .unwrap();
        assert_eq!(in_tx, vec![12, 13, 15]);
    }

    #[test]
    fn concurrent_disjoint_inserts_all_land() {
        let stm = Arc::new(Stm::builder().manager(GreedyManager::factory()).build());
        let set = TxSkipList::new();
        let threads = 4i64;
        let per_thread = 64i64;
        thread::scope(|scope| {
            for t in 0..threads {
                let stm = Arc::clone(&stm);
                let set = set.clone();
                scope.spawn(move || {
                    let mut ctx = stm.thread();
                    for i in 0..per_thread {
                        assert!(ctx
                            .atomically(|tx| set.insert(tx, t * per_thread + i))
                            .unwrap());
                    }
                });
            }
        });
        let mut ctx = stm.thread();
        let contents = ctx.atomically(|tx| set.to_vec(tx)).unwrap();
        assert_eq!(contents.len(), (threads * per_thread) as usize);
        assert!(contents.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn concurrent_mixed_workload_preserves_set_semantics() {
        let stm = Arc::new(Stm::builder().manager(GreedyManager::factory()).build());
        let set = TxSkipList::new();
        thread::scope(|scope| {
            for t in 0..4u64 {
                let stm = Arc::clone(&stm);
                let set = set.clone();
                scope.spawn(move || {
                    let mut ctx = stm.thread();
                    let mut seed = t.wrapping_mul(0x2545F4914F6CDD1D) | 1;
                    for _ in 0..400 {
                        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let key = ((seed >> 33) % 48) as i64;
                        if (seed >> 9) & 1 == 0 {
                            let _ = ctx.atomically(|tx| set.insert(tx, key)).unwrap();
                        } else {
                            let _ = ctx.atomically(|tx| set.remove(tx, key)).unwrap();
                        }
                    }
                });
            }
        });
        let mut ctx = stm.thread();
        let contents = ctx.atomically(|tx| set.to_vec(tx)).unwrap();
        assert!(contents.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
        assert!(contents.iter().all(|&k| (0..48).contains(&k)));
    }
}
