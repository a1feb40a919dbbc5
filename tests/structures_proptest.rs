//! Property-based tests: every transactional set implementation must behave
//! exactly like a reference `BTreeSet` for arbitrary operation sequences, and
//! the red-black tree and the chunked B+-tree must maintain their structural
//! invariants throughout.
//! Operation sequences are drawn from a seeded PRNG so failures reproduce
//! deterministically.

use std::collections::BTreeSet;

use greedy_stm::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A single randomly drawn set operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(i64),
    Remove(i64),
    Contains(i64),
}

fn random_op(rng: &mut SmallRng, key_range: i64) -> Op {
    let key = rng.gen_range(0..key_range);
    match rng.gen_range(0u32..3) {
        0 => Op::Insert(key),
        1 => Op::Remove(key),
        _ => Op::Contains(key),
    }
}

fn random_ops(rng: &mut SmallRng, key_range: i64, max_len: usize) -> Vec<Op> {
    (0..rng.gen_range(0..max_len))
        .map(|_| random_op(rng, key_range))
        .collect()
}

fn check_against_model<S: TxSet>(set: &S, ops: &[Op]) {
    let stm = Stm::builder().manager(GreedyManager::factory()).build();
    let mut ctx = stm.thread();
    let mut model = BTreeSet::new();
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert(k) => {
                let expected = model.insert(k);
                let actual = ctx.atomically(|tx| set.insert(tx, k)).unwrap();
                assert_eq!(expected, actual, "insert({k}) diverged at step {step}");
            }
            Op::Remove(k) => {
                let expected = model.remove(&k);
                let actual = ctx.atomically(|tx| set.remove(tx, k)).unwrap();
                assert_eq!(expected, actual, "remove({k}) diverged at step {step}");
            }
            Op::Contains(k) => {
                let expected = model.contains(&k);
                let actual = ctx.atomically(|tx| set.contains(tx, k)).unwrap();
                assert_eq!(expected, actual, "contains({k}) diverged at step {step}");
            }
        }
    }
    let contents = ctx.atomically(|tx| set.to_vec(tx)).unwrap();
    assert_eq!(contents, model.iter().copied().collect::<Vec<_>>());
    assert_eq!(
        ctx.atomically(|tx| set.len(tx)).unwrap(),
        model.len(),
        "length diverged"
    );
}

#[test]
fn list_matches_btreeset() {
    let mut rng = SmallRng::seed_from_u64(0x11_57);
    for _case in 0..48 {
        check_against_model(&TxList::new(), &random_ops(&mut rng, 48, 200));
    }
}

#[test]
fn skiplist_matches_btreeset() {
    let mut rng = SmallRng::seed_from_u64(0x5_c1b);
    for _case in 0..48 {
        check_against_model(&TxSkipList::new(), &random_ops(&mut rng, 64, 200));
    }
}

#[test]
fn rbtree_matches_btreeset() {
    let mut rng = SmallRng::seed_from_u64(0x4b_74e3);
    for _case in 0..48 {
        check_against_model(&TxRbTree::new(), &random_ops(&mut rng, 96, 250));
    }
}

#[test]
fn sharded_set_matches_btreeset_across_shard_counts() {
    let mut rng = SmallRng::seed_from_u64(0x5a4d_1234);
    for shards in [1usize, 2, 7, 16] {
        for _case in 0..12 {
            check_against_model(
                &ShardedTxSet::rbtree(shards),
                &random_ops(&mut rng, 96, 250),
            );
        }
    }
}

#[test]
fn chunked_set_matches_btreeset_bare_and_sharded() {
    let mut rng = SmallRng::seed_from_u64(0xc4_0a6e);
    for _case in 0..12 {
        // Few keys (one leaf, every op collides) and many (splits, merges).
        check_against_model(&TxChunkedSet::new(), &random_ops(&mut rng, 96, 250));
        check_against_model(&TxChunkedSet::new(), &random_ops(&mut rng, 1_024, 2_500));
        check_against_model(
            &ShardedTxSet::chunked(5),
            &random_ops(&mut rng, 1_024, 2_500),
        );
    }
}

#[test]
fn rbtree_invariants_hold_throughout() {
    let mut rng = SmallRng::seed_from_u64(0x4b_114a);
    for _case in 0..48 {
        let ops = random_ops(&mut rng, 32, 120);
        let stm = Stm::builder().manager(GreedyManager::factory()).build();
        let tree = TxRbTree::new();
        let mut ctx = stm.thread();
        let mut model = BTreeSet::new();
        for op in &ops {
            match *op {
                Op::Insert(k) => {
                    model.insert(k);
                    ctx.atomically(|tx| tree.insert(tx, k)).unwrap();
                }
                Op::Remove(k) => {
                    model.remove(&k);
                    ctx.atomically(|tx| tree.remove(tx, k)).unwrap();
                }
                Op::Contains(k) => {
                    ctx.atomically(|tx| tree.contains(tx, k)).unwrap();
                }
            }
            // The red-black invariants (BST order, no red-red edge, equal
            // black heights, black root) must hold after every operation.
            let count = ctx.atomically(|tx| tree.check_invariants(tx)).unwrap();
            assert_eq!(count, model.len());
        }
    }
}

/// Seeded property test for `TxSet::range` / `TxList::snapshot`: under a
/// stream of interleaved insert/remove transactions, every range query must
/// return exactly the model `BTreeSet`'s interval — sorted and
/// duplicate-free by construction of the model comparison, and asserted
/// explicitly as well.
fn check_range_against_model<S: TxSet>(make: impl Fn() -> S, seed: u64, key_range: i64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for _case in 0..16 {
        let stm = Stm::builder().manager(GreedyManager::factory()).build();
        let set = make();
        let mut ctx = stm.thread();
        let mut model = BTreeSet::new();
        for _round in 0..24 {
            // A batch of interleaved insert/remove transactions.
            for _ in 0..10 {
                let key = rng.gen_range(0..key_range);
                if rng.gen_bool(0.5) {
                    model.insert(key);
                    ctx.atomically(|tx| set.insert(tx, key)).unwrap();
                } else {
                    model.remove(&key);
                    ctx.atomically(|tx| set.remove(tx, key)).unwrap();
                }
            }
            // A range query over a random interval (occasionally inverted).
            let a = rng.gen_range(0..key_range);
            let b = rng.gen_range(0..key_range);
            let (lo, hi) = if rng.gen_bool(0.9) {
                (a.min(b), a.max(b))
            } else {
                (a.max(b), a.min(b)) // inverted: must come back empty
            };
            let got = ctx.atomically(|tx| set.range(tx, lo, hi)).unwrap();
            let want: Vec<i64> = model.range(lo.min(hi)..=hi.max(lo)).copied().collect();
            if lo <= hi {
                assert_eq!(got, want, "range({lo}, {hi}) diverged from the model");
            } else {
                assert!(got.is_empty(), "inverted range({lo}, {hi}) must be empty");
            }
            assert!(
                got.windows(2).all(|w| w[0] < w[1]),
                "range({lo}, {hi}) not sorted / contains duplicates: {got:?}"
            );
            // A mutation and a range inside one transaction observe each
            // other (ranges see the transaction's own writes).
            let probe = rng.gen_range(0..key_range);
            let model_after = {
                let mut m = model.clone();
                m.insert(probe);
                m.range(0..=key_range).copied().collect::<Vec<_>>()
            };
            let got_in_tx = ctx
                .atomically(|tx| {
                    set.insert(tx, probe)?;
                    set.range(tx, 0, key_range)
                })
                .unwrap();
            assert_eq!(
                got_in_tx, model_after,
                "in-transaction range missed its own insert"
            );
            model.insert(probe);
        }
    }
}

#[test]
fn skiplist_range_matches_btreeset() {
    check_range_against_model(TxSkipList::new, 0x3a9e_0001, 96);
}

#[test]
fn rbtree_range_matches_btreeset() {
    check_range_against_model(TxRbTree::new, 0x3a9e_0002, 96);
}

#[test]
fn sharded_range_merges_shards_in_order() {
    // Cross-shard ranges must interleave the per-shard runs correctly.
    check_range_against_model(|| ShardedTxSet::rbtree(5), 0x3a9e_0004, 96);
}

#[test]
fn chunked_range_matches_btreeset() {
    check_range_against_model(TxChunkedSet::new, 0x3a9e_0005, 96);
    check_range_against_model(|| ShardedTxSet::chunked(5), 0x3a9e_0006, 96);
}

/// `range` on a set deep enough to have several inner nodes (5,000 keys: a
/// bare chunked set is three levels, ~160 leaves): windows that start and
/// end mid-leaf and span anything from one key to every inner node, the
/// `i64` extremes as bounds and as keys, and inverted bounds — all while
/// keys come and go.
fn check_deep_range_against_model<S: TxSet>(set: &S, seed: u64) {
    const SPAN: i64 = 15_000;
    let stm = Stm::builder().manager(GreedyManager::factory()).build();
    let mut ctx = stm.thread();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut model: BTreeSet<i64> = (0..SPAN).step_by(3).chain([i64::MIN, i64::MAX]).collect();
    for chunk in model.iter().copied().collect::<Vec<_>>().chunks(500) {
        ctx.atomically(|tx| {
            chunk
                .iter()
                .try_for_each(|key| set.insert(tx, *key).map(drop))
        })
        .unwrap();
    }
    for round in 0..300 {
        for _ in 0..20 {
            let key = rng.gen_range(-50..SPAN + 50);
            if rng.gen_bool(0.5) {
                assert_eq!(
                    ctx.atomically(|tx| set.insert(tx, key)).unwrap(),
                    model.insert(key)
                );
            } else {
                assert_eq!(
                    ctx.atomically(|tx| set.remove(tx, key)).unwrap(),
                    model.remove(&key)
                );
            }
        }
        let lo = rng.gen_range(-100..SPAN);
        let hi = lo + [0, 1, 40, 700, 12_000][round % 5] + rng.gen_range(0i64..50);
        let windows = [
            (lo, hi),
            (hi, lo),
            (lo, lo),
            (i64::MIN, lo),
            (hi, i64::MAX),
            (i64::MIN, i64::MAX),
            (i64::MAX, i64::MIN),
            (i64::MIN, i64::MIN),
            (i64::MAX, i64::MAX),
        ];
        for (lo, hi) in windows {
            let got = ctx.atomically(|tx| set.range(tx, lo, hi)).unwrap();
            let want: Vec<i64> = if lo <= hi {
                model.range(lo..=hi).copied().collect()
            } else {
                Vec::new()
            };
            assert_eq!(got, want, "seed {seed:#x} round {round}: range({lo}, {hi})");
        }
    }
    assert_eq!(ctx.atomically(|tx| set.len(tx)).unwrap(), model.len());
}

#[test]
fn chunked_deep_ranges_match_btreeset_bare_and_sharded() {
    let bare = TxChunkedSet::new();
    check_deep_range_against_model(&bare, 0x3a9e_0007);
    let stm = Stm::default();
    stm.thread()
        .atomically(|tx| bare.check_invariants(tx))
        .unwrap();
    check_deep_range_against_model(&ShardedTxSet::chunked(5), 0x3a9e_0008);
}

#[test]
fn list_range_and_snapshot_match_btreeset() {
    check_range_against_model(TxList::new, 0x3a9e_0003, 48);
    // `snapshot` is the list's full-structure read; it must equal `to_vec`.
    let stm = Stm::builder().manager(GreedyManager::factory()).build();
    let list = TxList::new();
    let mut ctx = stm.thread();
    let mut rng = SmallRng::seed_from_u64(0x3a9e_0004);
    for _ in 0..200 {
        let key = rng.gen_range(0i64..64);
        if rng.gen_bool(0.6) {
            ctx.atomically(|tx| list.insert(tx, key)).unwrap();
        } else {
            ctx.atomically(|tx| list.remove(tx, key)).unwrap();
        }
        let (snap, vec) = ctx
            .atomically(|tx| Ok((list.snapshot(tx)?, list.to_vec(tx)?)))
            .unwrap();
        assert_eq!(snap, vec);
    }
}

/// Raises a stop flag when dropped, so threads polling it are released even
/// when the thread that owns the guard panics.
struct StopOnExit(std::sync::Arc<std::sync::atomic::AtomicBool>);

impl Drop for StopOnExit {
    fn drop(&mut self) {
        self.0.store(true, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Concurrent snapshot consistency: writers insert and remove keys strictly
/// in `(2k, 2k + 1)` pairs, each pair inside one transaction, while readers
/// run range queries over the whole key space. Because pair updates are
/// atomic, any range covering both keys must observe both or neither — a
/// torn pair means the range walk read across a commit.
fn check_concurrent_range_snapshots<S: TxSet + Clone + 'static>(set: S, seed: u64) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::thread;

    const PAIRS: i64 = 24;
    let stm = Arc::new(Stm::builder().manager(GreedyManager::factory()).build());
    let stop = Arc::new(AtomicBool::new(false));
    thread::scope(|scope| {
        for w in 0..2u64 {
            let stm = Arc::clone(&stm);
            let stop = Arc::clone(&stop);
            let set = set.clone();
            scope.spawn(move || {
                let mut ctx = stm.thread();
                let mut rng = SmallRng::seed_from_u64(seed ^ (w + 1));
                while !stop.load(Ordering::Relaxed) {
                    let pair = rng.gen_range(0..PAIRS);
                    let (lo_key, hi_key) = (2 * pair, 2 * pair + 1);
                    if rng.gen_bool(0.5) {
                        ctx.atomically(|tx| {
                            set.insert(tx, lo_key)?;
                            set.insert(tx, hi_key)?;
                            Ok(())
                        })
                        .unwrap();
                    } else {
                        ctx.atomically(|tx| {
                            set.remove(tx, lo_key)?;
                            set.remove(tx, hi_key)?;
                            Ok(())
                        })
                        .unwrap();
                    }
                }
            });
        }
        let stm_reader = Arc::clone(&stm);
        let stop_reader = Arc::clone(&stop);
        let set_reader = set.clone();
        scope.spawn(move || {
            // Release the writers even if an assertion below panics —
            // otherwise they spin on `stop` forever and the failure becomes
            // a hang instead of a test failure.
            let _guard = StopOnExit(Arc::clone(&stop_reader));
            let mut ctx = stm_reader.thread();
            for _ in 0..150 {
                let snapshot = ctx
                    .atomically(|tx| set_reader.range(tx, 0, 2 * PAIRS - 1))
                    .unwrap();
                assert!(
                    snapshot.windows(2).all(|w| w[0] < w[1]),
                    "range result not sorted / has duplicates: {snapshot:?}"
                );
                let present: BTreeSet<i64> = snapshot.iter().copied().collect();
                for pair in 0..PAIRS {
                    let lo_in = present.contains(&(2 * pair));
                    let hi_in = present.contains(&(2 * pair + 1));
                    assert_eq!(
                        lo_in, hi_in,
                        "torn pair {pair}: range observed a half-committed update"
                    );
                }
            }
        });
    });
}

#[test]
fn skiplist_concurrent_ranges_see_consistent_snapshots() {
    check_concurrent_range_snapshots(TxSkipList::new(), 0x51ab_0001);
}

#[test]
fn rbtree_concurrent_ranges_see_consistent_snapshots() {
    check_concurrent_range_snapshots(TxRbTree::new(), 0x51ab_0002);
}

#[test]
fn chunked_concurrent_ranges_see_consistent_snapshots() {
    check_concurrent_range_snapshots(TxChunkedSet::new(), 0x51ab_0003);
    check_concurrent_range_snapshots(ShardedTxSet::chunked(5), 0x51ab_0004);
}

/// The chunked set's conflict granule is the leaf: writers of *different*
/// keys in one leaf contend for one object. Three writers own the interleaved
/// keys (`k ≡ t mod 3`) of one 64-key span — a single root leaf — and toggle
/// them a pair at a time while a reader ranges over the span. Whatever the
/// manager decides, each writer must always find exactly the membership it
/// last committed, the reader must never see half a pair, and everyone must
/// finish.
#[test]
fn same_leaf_contention_keeps_per_thread_membership_under_every_manager() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::thread;

    const WRITERS: i64 = 3;
    const SPAN: i64 = 64;
    /// Writer `t`'s `j`-th pair: two of its own keys, half a span apart.
    fn pair(t: i64, j: i64) -> (i64, i64) {
        (t + WRITERS * j, t + WRITERS * j + 30)
    }

    let managers = [
        ManagerKind::Greedy,
        ManagerKind::Karma,
        ManagerKind::Polka,
        ManagerKind::Timestamp,
    ];
    for kind in managers {
        let what = kind.to_string();
        let stm = Stm::builder().manager(kind.factory()).build();
        let set = TxChunkedSet::new();
        let stop = Arc::new(AtomicBool::new(false));
        let finals: Vec<BTreeSet<i64>> = thread::scope(|scope| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|t| {
                    let (stm, set, what) = (&stm, &set, &what);
                    scope.spawn(move || {
                        let mut ctx = stm.thread();
                        let mut rng = SmallRng::seed_from_u64(0x5a3e_1eaf ^ t as u64);
                        let mut mine = BTreeSet::new();
                        for step in 0..250 {
                            let (a, b) = pair(t, rng.gen_range(0i64..10));
                            let insert = !mine.contains(&a);
                            let seen = ctx
                                .atomically(|tx| {
                                    let seen = set.range(tx, 0, SPAN - 1)?;
                                    for key in [a, b] {
                                        let changed = if insert {
                                            set.insert(tx, key)?
                                        } else {
                                            set.remove(tx, key)?
                                        };
                                        assert!(
                                            changed,
                                            "{what}: writer {t} step {step} key {key}"
                                        );
                                    }
                                    Ok(seen)
                                })
                                .unwrap();
                            let seen_mine: BTreeSet<i64> =
                                seen.into_iter().filter(|k| k % WRITERS == t).collect();
                            assert_eq!(seen_mine, mine, "{what}: writer {t} step {step}");
                            if insert {
                                mine.extend([a, b]);
                            } else {
                                mine.remove(&a);
                                mine.remove(&b);
                            }
                        }
                        mine
                    })
                })
                .collect();
            let reader = {
                let (stm, set, what, stop) = (&stm, &set, &what, &stop);
                scope.spawn(move || {
                    let mut ctx = stm.thread();
                    let mut snapshots = 0u32;
                    while !stop.load(Ordering::Relaxed) || snapshots < 50 {
                        let seen: BTreeSet<i64> = ctx
                            .atomically(|tx| set.range(tx, 0, SPAN - 1))
                            .unwrap()
                            .into_iter()
                            .collect();
                        for t in 0..WRITERS {
                            for j in 0..10 {
                                let (a, b) = pair(t, j);
                                assert_eq!(
                                    seen.contains(&a),
                                    seen.contains(&b),
                                    "{what}: torn pair ({a}, {b}) in {seen:?}"
                                );
                            }
                        }
                        snapshots += 1;
                    }
                })
            };
            // Stops the reader once the writers are done — or one panicked.
            let writers_done = StopOnExit(Arc::clone(&stop));
            let finals = writers
                .into_iter()
                .map(|writer| writer.join().expect("writer finished"))
                .collect();
            drop(writers_done);
            reader.join().expect("reader finished");
            finals
        });
        let mut ctx = stm.thread();
        let expected: Vec<i64> = finals
            .iter()
            .flatten()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        assert_eq!(
            ctx.atomically(|tx| set.to_vec(tx)).unwrap(),
            expected,
            "{what}"
        );
        assert_eq!(
            ctx.atomically(|tx| set.check_invariants(tx)).unwrap(),
            expected.len(),
            "{what}"
        );
    }
}

#[test]
fn queue_behaves_like_vecdeque() {
    let mut rng = SmallRng::seed_from_u64(0x40e0e);
    for _case in 0..48 {
        // `Some(v)` enqueues, `None` dequeues.
        let ops: Vec<Option<i64>> = (0..rng.gen_range(0usize..200))
            .map(|_| {
                if rng.gen_bool(0.5) {
                    Some(rng.gen_range(0i64..1000))
                } else {
                    None
                }
            })
            .collect();
        let stm = Stm::builder().manager(GreedyManager::factory()).build();
        let queue = TxQueue::new();
        let mut ctx = stm.thread();
        let mut model = std::collections::VecDeque::new();
        for op in ops {
            match op {
                Some(v) => {
                    model.push_back(v);
                    ctx.atomically(|tx| queue.enqueue(tx, v)).unwrap();
                }
                None => {
                    let expected = model.pop_front();
                    let actual = ctx.atomically(|tx| queue.dequeue(tx)).unwrap();
                    assert_eq!(expected, actual);
                }
            }
            let len = ctx.atomically(|tx| queue.len(tx)).unwrap();
            assert_eq!(len, model.len());
        }
    }
}

#[test]
fn composed_transactions_keep_two_sets_identical() {
    let mut rng = SmallRng::seed_from_u64(0xc046_05ed);
    for _case in 0..48 {
        let ops = random_ops(&mut rng, 32, 100);
        // Applying each operation to a list and a tree inside one transaction
        // must keep them permanently identical — even though their internal
        // read/write sets are completely different.
        let stm = Stm::builder().manager(GreedyManager::factory()).build();
        let list = TxList::new();
        let tree = TxRbTree::new();
        let mut ctx = stm.thread();
        for op in &ops {
            ctx.atomically(|tx| {
                match *op {
                    Op::Insert(k) => {
                        list.insert(tx, k)?;
                        tree.insert(tx, k)?;
                    }
                    Op::Remove(k) => {
                        list.remove(tx, k)?;
                        tree.remove(tx, k)?;
                    }
                    Op::Contains(k) => {
                        let a = list.contains(tx, k)?;
                        let b = tree.contains(tx, k)?;
                        assert_eq!(a, b);
                    }
                }
                Ok(())
            })
            .unwrap();
        }
        let (a, b) = ctx
            .atomically(|tx| Ok((list.to_vec(tx)?, tree.to_vec(tx)?)))
            .unwrap();
        assert_eq!(a, b);
    }
}
