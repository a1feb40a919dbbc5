//! The chunked ordered set: a B+-tree whose nodes are whole [`TVar`]s.
//!
//! The paper prices a transaction by the objects it opens, and a binary
//! tree opens one per key on its path. Here a **leaf** is a sorted run of at
//! most [`MAX`] keys in *one* `TVar`, and an **inner node** is at most `MAX`
//! `(low fence, child)` entries in one `TVar`, so a point operation opens
//! `height` objects (3 for 10⁵ keys) and a range opens the leaves it
//! overlaps plus their ancestors — not one object per key returned. The
//! root `TVar` is fixed; the tree grows taller only when the root splits and
//! shorter only when the root is left with one child.
//!
//! **Fence invariant.** Child `i ≥ 1` of an inner node holds exactly the
//! keys `k` with `fence[i] ≤ k < fence[i + 1]` (the node's own upper bound
//! after the last child); fences are strictly ascending. A node does not
//! store its own lower bound — its parent does — so `fence[0]` is always
//! `i64::MIN` and child 0 takes everything below `fence[1]`. Dropping or
//! replacing a first child therefore never leaves a stale fence behind.
//! All leaves sit at one depth, and no node but a sole root leaf is empty.
//!
//! **Deletion is merge-only.** A node that falls under [`MIN`] entries is
//! folded into one neighbour when the pair fits under [`MERGE_CAP`] — below
//! `MAX`, so the next insert does not split what was just merged — and
//! otherwise stays under-full; there is no borrowing. A node that empties is
//! dropped from its parent outright.
//!
//! **Reads and writes.** Nodes are read with [`Txn::read_arc`] (no copy of
//! the run) and replaced whole with [`Txn::write`]. A node whose new state
//! breaks a size bound is handed to its parent *unwritten* ([`Change::Pending`]),
//! so a split or merge costs one more write (and, for a merge, one sibling
//! read) per level it reaches and nothing is written twice. Every
//! structural change writes the parent of the nodes it adds or drops, and
//! every path to a node passes through its parent, so a dropped node needs
//! no tombstone: whoever still holds it also holds a read of a written
//! parent. An insert of `k` always writes the leaf a `contains(k)` read,
//! which is what makes a miss a valid absence witness.
//!
//! **The conflict-granule trade.** A leaf is one object: far fewer opens,
//! but two writers of *different* keys in one leaf now conflict, and so do a
//! writer and a range overlapping the leaf, where the red-black tree
//! ([`crate::TxRbTree`]) would have let them pass. Inner nodes keep that
//! local: a split writes the leaf's parent only, never a shared directory.
//! `tests/structures_proptest.rs` (`same_leaf_contention_*`) drives threads
//! toggling interleaved keys of one leaf under four managers and both read
//! visibilities; `tests/store_footprint.rs` holds the open counts and shows
//! a split 64 leaves away leaves a parked range undisturbed.

use stm_core::{TVar, TxResult, Txn};

use crate::set::TxSet;

/// Most keys in a leaf, and most children under an inner node. A constant,
/// not a knob: EXPERIMENTS.md E20 swept 32/64/128 on `wire_scan_churn`.
const MAX: usize = 64;
/// A node left with fewer entries than this tries to fold into a neighbour.
const MIN: usize = MAX / 4;
/// Most entries a merged pair may hold.
const MERGE_CAP: usize = 3 * MAX / 4;

/// An inner-node entry: the child's low fence and the child.
type Child = (i64, TVar<Node>);

#[derive(Debug, Clone)]
enum Node {
    Leaf(Vec<i64>),
    Inner(Vec<Child>),
}

impl Node {
    fn len(&self) -> usize {
        match self {
            Node::Leaf(keys) => keys.len(),
            Node::Inner(children) => children.len(),
        }
    }

    /// Halves an over-full node: the left half, the right half's low fence,
    /// the right half.
    fn split(self) -> (Node, i64, Node) {
        match self {
            Node::Leaf(mut keys) => {
                let right = keys.split_off(keys.len() / 2);
                (Node::Leaf(keys), right[0], Node::Leaf(right))
            }
            Node::Inner(mut children) => {
                let mut right = children.split_off(children.len() / 2);
                let fence = std::mem::replace(&mut right[0].0, i64::MIN);
                (Node::Inner(children), fence, Node::Inner(right))
            }
        }
    }

    /// `left` followed by `right`, its right sibling under low fence `fence`.
    fn join(left: &Node, fence: i64, right: &Node) -> Node {
        match (left, right) {
            (Node::Leaf(left), Node::Leaf(right)) => Node::Leaf([&left[..], &right[..]].concat()),
            (Node::Inner(left), Node::Inner(right)) => {
                let mut children = [&left[..], &right[..]].concat();
                children[left.len()].0 = fence;
                Node::Inner(children)
            }
            _ => unreachable!("siblings sit at one depth"),
        }
    }
}

/// What an insert or remove below a node did, as reported to its parent.
enum Change {
    /// The key was already present (insert) or absent (remove); nothing
    /// was written.
    Unchanged,
    /// The node wrote its new state.
    Written,
    /// The node's new state, **not yet written**: it is over `MAX` (insert)
    /// or under `MIN` (remove), and the parent splits it or folds it away.
    Pending(Node),
}

/// Index of the child whose fence interval holds `key`.
fn route(children: &[Child], key: i64) -> usize {
    children.partition_point(|(fence, _)| *fence <= key) - 1
}

fn insert_at(tx: &mut Txn<'_>, var: &TVar<Node>, key: i64) -> TxResult<Change> {
    let grown = match &*tx.read_arc(var)? {
        Node::Leaf(keys) => {
            let Err(at) = keys.binary_search(&key) else {
                return Ok(Change::Unchanged);
            };
            Node::Leaf([&keys[..at], &[key][..], &keys[at..]].concat())
        }
        Node::Inner(children) => {
            let at = route(children, key);
            let child = &children[at].1;
            match insert_at(tx, child, key)? {
                Change::Pending(over) => {
                    let (left, fence, right) = over.split();
                    tx.write(child, left)?;
                    let mut grown = children.clone();
                    grown.insert(at + 1, (fence, TVar::new(right)));
                    Node::Inner(grown)
                }
                settled => return Ok(settled),
            }
        }
    };
    if grown.len() > MAX {
        return Ok(Change::Pending(grown));
    }
    tx.write(var, grown)?;
    Ok(Change::Written)
}

fn remove_at(tx: &mut Txn<'_>, var: &TVar<Node>, key: i64) -> TxResult<Change> {
    let shrunk = match &*tx.read_arc(var)? {
        Node::Leaf(keys) => {
            let Ok(at) = keys.binary_search(&key) else {
                return Ok(Change::Unchanged);
            };
            Node::Leaf([&keys[..at], &keys[at + 1..]].concat())
        }
        Node::Inner(children) => {
            let at = route(children, key);
            match remove_at(tx, &children[at].1, key)? {
                Change::Pending(under) => match fold(tx, children, at, under)? {
                    Some(shrunk) => Node::Inner(shrunk),
                    None => return Ok(Change::Written),
                },
                settled => return Ok(settled),
            }
        }
    };
    if shrunk.len() < MIN {
        return Ok(Change::Pending(shrunk));
    }
    tx.write(var, shrunk)?;
    Ok(Change::Written)
}

/// Settles `under`, the unwritten under-full new state of `children[at]`:
/// drops the child if it emptied, folds it with one neighbour (the left
/// one, or the right one for a first child) if the pair fits, and otherwise
/// writes it back as it is. Returns the parent's new entries when it lost a
/// child.
fn fold(
    tx: &mut Txn<'_>,
    children: &[Child],
    at: usize,
    under: Node,
) -> TxResult<Option<Vec<Child>>> {
    if under.len() == 0 {
        let mut shrunk = children.to_vec();
        shrunk.remove(at);
        if let Some(first) = shrunk.first_mut() {
            first.0 = i64::MIN;
        }
        return Ok(Some(shrunk));
    }
    if children.len() > 1 {
        let left = at.saturating_sub(1);
        let fence = children[left + 1].0;
        let sibling = tx.read_arc(&children[if at == 0 { 1 } else { left }].1)?;
        if under.len() + sibling.len() <= MERGE_CAP {
            let merged = if at == 0 {
                Node::join(&under, fence, &sibling)
            } else {
                Node::join(&sibling, fence, &under)
            };
            tx.write(&children[left].1, merged)?;
            let mut shrunk = children.to_vec();
            shrunk.remove(left + 1);
            return Ok(Some(shrunk));
        }
    }
    tx.write(&children[at].1, under)?;
    Ok(None)
}

/// Calls `visit` with each leaf's keys inside `lo..=hi`, ascending.
fn scan<F: FnMut(&[i64])>(
    tx: &mut Txn<'_>,
    var: &TVar<Node>,
    lo: i64,
    hi: i64,
    visit: &mut F,
) -> TxResult<()> {
    match &*tx.read_arc(var)? {
        Node::Leaf(keys) => {
            let from = keys.partition_point(|key| *key < lo);
            let to = keys.partition_point(|key| *key <= hi);
            visit(&keys[from..to]);
        }
        Node::Inner(children) => {
            for (_, child) in &children[route(children, lo)..=route(children, hi)] {
                scan(tx, child, lo, hi, visit)?;
            }
        }
    }
    Ok(())
}

/// A transactional ordered set stored as a B+-tree of chunked nodes (see
/// the [module docs](self)). Clones share the tree.
#[derive(Debug, Clone)]
pub struct TxChunkedSet {
    root: TVar<Node>,
}

impl Default for TxChunkedSet {
    fn default() -> Self {
        Self::new()
    }
}

impl TxChunkedSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        TxChunkedSet {
            root: TVar::new(Node::Leaf(Vec::new())),
        }
    }

    /// Number of nodes on a root-to-leaf path (1 for a sole root leaf):
    /// what a point operation opens.
    pub fn height(&self, tx: &mut Txn<'_>) -> TxResult<usize> {
        let mut height = 1;
        let mut node = tx.read_arc(&self.root)?;
        while let Node::Inner(children) = &*node {
            height += 1;
            node = tx.read_arc(&children[0].1)?;
        }
        Ok(height)
    }

    /// Validates the module's invariants — fences, key intervals, sorted
    /// leaves, sizes, no empty or single-child-root node, uniform leaf
    /// depth — and returns the number of keys. Intended for tests.
    pub fn check_invariants(&self, tx: &mut Txn<'_>) -> TxResult<usize> {
        /// Returns `(keys, depth)` of the subtree holding `lower..upper`.
        fn walk(
            tx: &mut Txn<'_>,
            var: &TVar<Node>,
            lower: i64,
            upper: Option<i64>,
            is_root: bool,
        ) -> TxResult<(usize, usize)> {
            let node = tx.read_arc(var)?;
            assert!(node.len() <= MAX, "node of {} entries", node.len());
            let inside = |key: i64| key >= lower && upper.is_none_or(|upper| key < upper);
            match &*node {
                Node::Leaf(keys) => {
                    assert!(is_root || !keys.is_empty(), "empty non-root leaf");
                    assert!(
                        keys.windows(2).all(|w| w[0] < w[1]),
                        "unsorted leaf {keys:?}"
                    );
                    assert!(
                        keys.iter().all(|key| inside(*key)),
                        "leaf {keys:?} outside {lower}..{upper:?}"
                    );
                    Ok((keys.len(), 1))
                }
                Node::Inner(children) => {
                    assert!(
                        children.len() >= if is_root { 2 } else { 1 },
                        "childless inner node"
                    );
                    assert_eq!(children[0].0, i64::MIN, "first fence is the sentinel");
                    let fences: Vec<i64> = children.iter().map(|(fence, _)| *fence).collect();
                    assert!(fences.windows(2).all(|w| w[0] < w[1]), "fences {fences:?}");
                    assert!(
                        fences[1..]
                            .iter()
                            .all(|fence| inside(*fence) && *fence > lower),
                        "fences {fences:?} outside {lower}..{upper:?}"
                    );
                    let (mut total, mut depth) = (0, None);
                    for (i, (fence, child)) in children.iter().enumerate() {
                        let lower = if i == 0 { lower } else { *fence };
                        let upper = fences.get(i + 1).copied().or(upper);
                        let (keys, below) = walk(tx, child, lower, upper, false)?;
                        assert_eq!(*depth.get_or_insert(below), below, "leaves at two depths");
                        total += keys;
                    }
                    Ok((total, 1 + depth.expect("an inner node has children")))
                }
            }
        }
        Ok(walk(tx, &self.root, i64::MIN, None, true)?.0)
    }
}

impl TxSet for TxChunkedSet {
    fn insert(&self, tx: &mut Txn<'_>, key: i64) -> TxResult<bool> {
        Ok(match insert_at(tx, &self.root, key)? {
            Change::Unchanged => false,
            Change::Written => true,
            Change::Pending(over) => {
                let (left, fence, right) = over.split();
                let halves = vec![(i64::MIN, TVar::new(left)), (fence, TVar::new(right))];
                tx.write(&self.root, Node::Inner(halves))?;
                true
            }
        })
    }

    fn remove(&self, tx: &mut Txn<'_>, key: i64) -> TxResult<bool> {
        Ok(match remove_at(tx, &self.root, key)? {
            Change::Unchanged => false,
            Change::Written => true,
            Change::Pending(mut small) => {
                // The root has no minimum, but one child is no root at all.
                while let Node::Inner(children) = &small {
                    let [(_, only)] = &children[..] else { break };
                    small = (*tx.read_arc(only)?).clone();
                }
                tx.write(&self.root, small)?;
                true
            }
        })
    }

    fn contains(&self, tx: &mut Txn<'_>, key: i64) -> TxResult<bool> {
        let mut node = tx.read_arc(&self.root)?;
        loop {
            node = match &*node {
                Node::Leaf(keys) => return Ok(keys.binary_search(&key).is_ok()),
                Node::Inner(children) => tx.read_arc(&children[route(children, key)].1)?,
            };
        }
    }

    fn len(&self, tx: &mut Txn<'_>) -> TxResult<usize> {
        let mut len = 0;
        scan(tx, &self.root, i64::MIN, i64::MAX, &mut |run| {
            len += run.len()
        })?;
        Ok(len)
    }

    fn to_vec(&self, tx: &mut Txn<'_>) -> TxResult<Vec<i64>> {
        self.range(tx, i64::MIN, i64::MAX)
    }

    fn range(&self, tx: &mut Txn<'_>, lo: i64, hi: i64) -> TxResult<Vec<i64>> {
        let mut out = Vec::new();
        if lo <= hi {
            scan(tx, &self.root, lo, hi, &mut |run| {
                out.extend_from_slice(run)
            })?;
        }
        Ok(out)
    }

    fn structure_name(&self) -> &'static str {
        "chunked"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use stm_cm::GreedyManager;
    use stm_core::{Stm, ThreadCtx};

    fn new_stm() -> Stm {
        Stm::builder().manager(GreedyManager::factory()).build()
    }

    /// A 64-bit LCG step (the constants of `rbtree`'s tests).
    fn next(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        *seed >> 33
    }

    /// Runs `op` as one transaction and returns its result with the
    /// `(reads, writes)` it opened.
    fn opens(
        ctx: &mut ThreadCtx<'_>,
        mut op: impl FnMut(&mut Txn<'_>) -> TxResult<bool>,
    ) -> (bool, (u64, u64)) {
        let (result, report) = ctx.atomically_traced(&mut op);
        (result.unwrap(), (report.reads, report.writes))
    }

    /// Invariants hold and the walker counts `expected` keys.
    fn check(ctx: &mut ThreadCtx<'_>, set: &TxChunkedSet, expected: usize) {
        assert_eq!(
            ctx.atomically(|tx| set.check_invariants(tx)).unwrap(),
            expected
        );
    }

    #[test]
    fn insert_remove_contains_basics() {
        let stm = new_stm();
        let set = TxChunkedSet::new();
        let mut ctx = stm.thread();
        for key in [5, 2, 8, i64::MAX, 1, 9, i64::MIN, 3, 7] {
            assert!(ctx.atomically(|tx| set.insert(tx, key)).unwrap());
        }
        assert!(!ctx.atomically(|tx| set.insert(tx, 5)).unwrap());
        assert!(ctx.atomically(|tx| set.contains(tx, 7)).unwrap());
        assert!(!ctx.atomically(|tx| set.contains(tx, 6)).unwrap());
        assert_eq!(
            ctx.atomically(|tx| set.to_vec(tx)).unwrap(),
            vec![i64::MIN, 1, 2, 3, 5, 7, 8, 9, i64::MAX]
        );
        assert!(ctx.atomically(|tx| set.remove(tx, 5)).unwrap());
        assert!(!ctx.atomically(|tx| set.remove(tx, 5)).unwrap());
        assert_eq!(ctx.atomically(|tx| set.len(tx)).unwrap(), 8);
        assert_eq!(ctx.atomically(|tx| set.height(tx)).unwrap(), 1);
        check(&mut ctx, &set, 8);
        assert_eq!(set.structure_name(), "chunked");
    }

    #[test]
    fn aborted_split_leaves_the_tree_as_it_was() {
        let stm = new_stm();
        let set = TxChunkedSet::new();
        let mut ctx = stm.thread();
        ctx.atomically(|tx| (0..MAX as i64).try_for_each(|key| set.insert(tx, key).map(drop)))
            .unwrap();
        let _ = ctx.atomically(|tx| {
            set.insert(tx, 1_000)?;
            assert_eq!(set.height(tx)?, 2, "the transaction sees its own split");
            tx.abort::<()>()
        });
        assert_eq!(ctx.atomically(|tx| set.height(tx)).unwrap(), 1);
        check(&mut ctx, &set, MAX);
    }

    #[test]
    fn ordered_insertions_keep_invariants_after_every_operation() {
        let stm = new_stm();
        let mut ctx = stm.thread();
        let n = 3 * (MAX * MAX) as i64 / 2;
        /// The `i`-th of `n` keys.
        type Order = fn(i64, i64) -> i64;
        let orders: [(&str, Order); 3] = [
            ("ascending", |i, _| i),
            ("descending", |i, n| n - 1 - i),
            // 0, n - 1, 1, n - 2, ...
            ("alternating ends", |i, n| {
                if i % 2 == 0 {
                    i / 2
                } else {
                    n - 1 - i / 2
                }
            }),
        ];
        for (name, key_of) in orders {
            let set = TxChunkedSet::new();
            for i in 0..n {
                assert!(
                    ctx.atomically(|tx| set.insert(tx, key_of(i, n))).unwrap(),
                    "{name}"
                );
                check(&mut ctx, &set, i as usize + 1);
            }
            assert_eq!(
                ctx.atomically(|tx| set.to_vec(tx)).unwrap(),
                (0..n).collect::<Vec<i64>>(),
                "{name}"
            );
            assert_eq!(ctx.atomically(|tx| set.height(tx)).unwrap(), 3, "{name}");
        }
    }

    #[test]
    fn seeded_grow_then_drain_to_empty_keeps_invariants_after_every_operation() {
        let stm = new_stm();
        let set = TxChunkedSet::new();
        let mut ctx = stm.thread();
        let mut model = BTreeSet::new();
        let mut seed = 0x00c4_0a6e_d5e7_0001u64;
        let mut tallest = 1;
        for step in 0..20_000u32 {
            // Grow for the first half (3 inserts to 1 remove), then shrink.
            let key = (next(&mut seed) % 8_192) as i64;
            let insert = (next(&mut seed) % 4 < 3) == (step < 10_000);
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
            assert_eq!(expected, actual, "step {step}, key {key}, insert {insert}");
            check(&mut ctx, &set, model.len());
            tallest = tallest.max(ctx.atomically(|tx| set.height(tx)).unwrap());
        }
        assert_eq!(tallest, 3, "the sequence must reach a two-level directory");
        // Drain what is left, outermost keys last.
        let mut rest: Vec<i64> = model.iter().copied().collect();
        rest.sort_by_key(|key| std::cmp::Reverse((key - 4_096).abs()));
        while let Some(key) = rest.pop() {
            assert!(ctx.atomically(|tx| set.remove(tx, key)).unwrap());
            check(&mut ctx, &set, rest.len());
        }
        assert_eq!(ctx.atomically(|tx| set.height(tx)).unwrap(), 1);
        assert!(ctx.atomically(|tx| set.is_empty(tx)).unwrap());
    }

    #[test]
    fn an_emptied_only_child_takes_its_parent_with_it() {
        // Merge-only deletion can leave an inner node with one child beside
        // a sibling too full to fold into. Built by hand: the root over
        // `lone` (one leaf, one key) and `full` (MAX one-key leaves).
        let leaf = |key: i64| TVar::new(Node::Leaf(vec![key]));
        let lone = Node::Inner(vec![(i64::MIN, leaf(0))]);
        let full: Vec<Child> = (1..=MAX as i64)
            .map(|key| (if key == 1 { i64::MIN } else { key }, leaf(key)))
            .collect();
        let set = TxChunkedSet {
            root: TVar::new(Node::Inner(vec![
                (i64::MIN, TVar::new(lone)),
                (1, TVar::new(Node::Inner(full))),
            ])),
        };
        let stm = new_stm();
        let mut ctx = stm.thread();
        check(&mut ctx, &set, MAX + 1);
        // The leaf empties, `lone` empties with it, and the root — left with
        // one child — takes that child's place.
        assert!(ctx.atomically(|tx| set.remove(tx, 0)).unwrap());
        check(&mut ctx, &set, MAX);
        assert_eq!(ctx.atomically(|tx| set.height(tx)).unwrap(), 2);
        assert_eq!(
            ctx.atomically(|tx| set.to_vec(tx)).unwrap(),
            (1..=MAX as i64).collect::<Vec<i64>>()
        );
    }

    #[test]
    fn point_operations_open_one_path_and_splits_and_merges_one_more_write_per_level() {
        let stm = new_stm();
        let set = TxChunkedSet::new();
        let mut ctx = stm.thread();
        // Ascending inserts: every leaf but the last settles at MAX / 2.
        let n = (MAX * MAX) as i64;
        for key in (0..n).map(|i| 4 * i) {
            ctx.atomically(|tx| set.insert(tx, key)).unwrap();
        }
        let h = ctx.atomically(|tx| set.height(tx)).unwrap() as u64;
        assert_eq!(h, 3);

        assert_eq!(
            opens(&mut ctx, |tx| set.contains(tx, 1_000)),
            (true, (h, 0))
        );
        assert_eq!(
            opens(&mut ctx, |tx| set.contains(tx, 1_001)),
            (false, (h, 0))
        );
        assert_eq!(opens(&mut ctx, |tx| set.insert(tx, 1_000)), (false, (h, 0)));
        assert_eq!(opens(&mut ctx, |tx| set.remove(tx, 1_001)), (false, (h, 0)));
        assert_eq!(opens(&mut ctx, |tx| set.insert(tx, 1_001)), (true, (h, 1)));
        assert_eq!(opens(&mut ctx, |tx| set.remove(tx, 1_001)), (true, (h, 1)));

        // Fill the gaps in the first leaf's span: the insert that makes a
        // leaf MAX + 1 splits it and writes the parent too.
        let mut splits = 0;
        let gaps: Vec<i64> = (0..2 * MAX as i64).filter(|key| key % 4 != 0).collect();
        for &key in &gaps {
            let (inserted, (reads, writes)) = opens(&mut ctx, |tx| set.insert(tx, key));
            assert!(inserted);
            assert_eq!(reads, h, "insert {key}");
            assert!(writes == 1 || writes == 2, "insert {key}: {writes} writes");
            splits += writes - 1;
        }
        assert!(splits >= 1);
        check(&mut ctx, &set, n as usize + gaps.len());

        // Empty a stretch: a leaf that falls under MIN reads one neighbour
        // and, when the pair fits, writes the merged leaf and the parent.
        let mut merges = 0;
        for key in 4_000..4_000 + 4 * MAX as i64 {
            let present = key % 4 == 0;
            let (removed, (reads, writes)) = opens(&mut ctx, |tx| set.remove(tx, key));
            assert_eq!(removed, present);
            if !present {
                assert_eq!((reads, writes), (h, 0));
                continue;
            }
            assert!(
                [(h, 1), (h + 1, 1), (h + 1, 2)].contains(&(reads, writes)),
                "remove {key}: ({reads}, {writes})"
            );
            merges += writes - 1;
        }
        assert!(merges >= 1);
        check(&mut ctx, &set, n as usize + gaps.len() - MAX);
    }

    #[test]
    fn range_reads_only_the_leaves_it_overlaps() {
        let stm = new_stm();
        let set = TxChunkedSet::new();
        let mut ctx = stm.thread();
        let n = (MAX * MAX) as i64;
        for key in 0..n {
            ctx.atomically(|tx| set.insert(tx, key)).unwrap();
        }
        // Leaves hold MAX / 2 consecutive keys; a window of one leaf's width
        // overlaps at most two of them, under at most two inner nodes.
        for lo in [0, 7, 1_000, 2_047, 2_048, n - 40] {
            let hi = lo + MAX as i64 / 2 - 1;
            let (result, report) = ctx.atomically_traced(|tx| set.range(tx, lo, hi));
            let want: Vec<i64> = (lo..=hi.min(n - 1)).collect();
            assert_eq!(result.unwrap(), want);
            assert!(
                report.reads <= 5,
                "range({lo}, {hi}) opened {} nodes",
                report.reads
            );
            assert_eq!(report.writes, 0);
        }
        assert_eq!(
            ctx.atomically(|tx| set.range(tx, 10, 5)).unwrap(),
            Vec::<i64>::new()
        );
        assert_eq!(
            ctx.atomically(|tx| set.range(tx, i64::MIN, i64::MAX))
                .unwrap()
                .len(),
            n as usize
        );
    }
}
