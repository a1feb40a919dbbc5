//! The red-black tree integer set (Figure 3, "Red-black application").
//!
//! A classic CLRS-style red-black tree whose nodes live in [`TVar`]s, so
//! every traversal read and every structural write is transactional. The
//! tree keeps no parent pointers (which would create `Arc` cycles); instead
//! the insertion and deletion algorithms record the access path on the way
//! down and perform the bottom-up recolouring/rotation fix-ups from that
//! path stack.
//!
//! Compared to the list and skiplist, searches touch only `O(log n)` nodes
//! and updates conflict mostly near the nodes they rebalance, which is why
//! the paper pairs this structure with its *low-contention* workload.

use stm_core::{TVar, TxResult, Txn};

use crate::set::TxSet;

/// Node colour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Color {
    Red,
    Black,
}

/// Direction taken when descending from a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    Left,
    Right,
}

type Link = Option<TVar<Node>>;

/// One tree node.
#[derive(Debug, Clone)]
struct Node {
    key: i64,
    color: Color,
    left: Link,
    right: Link,
}

impl Node {
    fn child(&self, dir: Dir) -> Link {
        match dir {
            Dir::Left => self.left.clone(),
            Dir::Right => self.right.clone(),
        }
    }
}

/// A path entry: a node plus the direction taken from it.
type PathEntry = (TVar<Node>, Dir);

/// A transactional red-black tree set.
#[derive(Debug, Clone)]
pub struct TxRbTree {
    root: TVar<Link>,
}

impl Default for TxRbTree {
    fn default() -> Self {
        Self::new()
    }
}

impl TxRbTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        TxRbTree {
            root: TVar::new(None),
        }
    }

    fn read_node(tx: &mut Txn<'_>, var: &TVar<Node>) -> TxResult<Node> {
        tx.read(var)
    }

    fn recolor(tx: &mut Txn<'_>, var: &TVar<Node>, color: Color) -> TxResult<()> {
        let node = tx.read(var)?;
        if node.color != color {
            tx.write(var, Node { color, ..node })?;
        }
        Ok(())
    }

    fn set_child_of(tx: &mut Txn<'_>, var: &TVar<Node>, dir: Dir, child: Link) -> TxResult<()> {
        let node = tx.read(var)?;
        let updated = match dir {
            Dir::Left => Node {
                left: child,
                ..node
            },
            Dir::Right => Node {
                right: child,
                ..node
            },
        };
        tx.write(var, updated)
    }

    /// Attaches `child` below `parent` (or installs it as the root when
    /// `parent` is `None`).
    fn attach(&self, tx: &mut Txn<'_>, parent: Option<&PathEntry>, child: Link) -> TxResult<()> {
        match parent {
            None => tx.write(&self.root, child),
            Some((var, dir)) => Self::set_child_of(tx, var, *dir, child),
        }
    }

    /// Left rotation at `x`: `x`'s right child `y` becomes the subtree root,
    /// `x` becomes `y`'s left child. Returns `y`. The caller must re-attach
    /// `y` below `x`'s former parent.
    fn rotate_left(tx: &mut Txn<'_>, x_var: &TVar<Node>) -> TxResult<TVar<Node>> {
        let x = tx.read(x_var)?;
        let y_var = x.right.clone().expect("rotate_left requires a right child");
        let y = tx.read(&y_var)?;
        tx.write(
            x_var,
            Node {
                right: y.left.clone(),
                ..x
            },
        )?;
        tx.write(
            &y_var,
            Node {
                left: Some(x_var.clone()),
                ..y
            },
        )?;
        Ok(y_var)
    }

    /// Right rotation at `x` (mirror of [`TxRbTree::rotate_left`]).
    fn rotate_right(tx: &mut Txn<'_>, x_var: &TVar<Node>) -> TxResult<TVar<Node>> {
        let x = tx.read(x_var)?;
        let y_var = x.left.clone().expect("rotate_right requires a left child");
        let y = tx.read(&y_var)?;
        tx.write(
            x_var,
            Node {
                left: y.right.clone(),
                ..x
            },
        )?;
        tx.write(
            &y_var,
            Node {
                right: Some(x_var.clone()),
                ..y
            },
        )?;
        Ok(y_var)
    }

    fn rotate(tx: &mut Txn<'_>, var: &TVar<Node>, dir: Dir) -> TxResult<TVar<Node>> {
        match dir {
            Dir::Left => Self::rotate_left(tx, var),
            Dir::Right => Self::rotate_right(tx, var),
        }
    }

    /// Descends from the root looking for `key`, recording the path. Returns
    /// the path and the node holding `key`, if present.
    fn descend(
        &self,
        tx: &mut Txn<'_>,
        key: i64,
    ) -> TxResult<(Vec<PathEntry>, Option<TVar<Node>>)> {
        let mut path = Vec::new();
        let mut current = tx.read(&self.root)?;
        while let Some(var) = current {
            let node = tx.read(&var)?;
            if node.key == key {
                return Ok((path, Some(var)));
            }
            let dir = if key < node.key {
                Dir::Left
            } else {
                Dir::Right
            };
            path.push((var, dir));
            current = node.child(dir);
        }
        Ok((path, None))
    }

    /// Makes sure the root (if any) is black. Blackening the root never
    /// violates any red-black invariant.
    fn blacken_root(&self, tx: &mut Txn<'_>) -> TxResult<()> {
        if let Some(root_var) = tx.read(&self.root)? {
            Self::recolor(tx, &root_var, Color::Black)?;
        }
        Ok(())
    }

    fn insert_fixup(
        &self,
        tx: &mut Txn<'_>,
        mut path: Vec<PathEntry>,
        mut _z: TVar<Node>,
    ) -> TxResult<()> {
        // When the path is exhausted, z is the root; blacken_root finishes.
        while let Some((parent_var, parent_dir)) = path.last().cloned() {
            let parent = Self::read_node(tx, &parent_var)?;
            if parent.color == Color::Black {
                break;
            }
            // The parent is red, so it cannot be the root: a grandparent exists.
            let (grand_var, grand_dir) = path[path.len() - 2].clone();
            let grand = Self::read_node(tx, &grand_var)?;
            let uncle_link = grand.child(opposite(grand_dir));
            let uncle_is_red = match &uncle_link {
                Some(u) => Self::read_node(tx, u)?.color == Color::Red,
                None => false,
            };
            if uncle_is_red {
                // Case 1: red uncle — recolour and move the violation up.
                Self::recolor(tx, &parent_var, Color::Black)?;
                if let Some(u) = &uncle_link {
                    Self::recolor(tx, u, Color::Black)?;
                }
                Self::recolor(tx, &grand_var, Color::Red)?;
                _z = grand_var;
                path.pop();
                path.pop();
                continue;
            }
            // Cases 2 and 3: black (or absent) uncle — rotations.
            let mut pivot_var = parent_var.clone();
            if parent_dir != grand_dir {
                // Case 2 (zig-zag): rotate at the parent so the violation
                // becomes a zig-zig.
                let new_sub = Self::rotate(tx, &parent_var, grand_dir)?;
                Self::set_child_of(tx, &grand_var, grand_dir, Some(new_sub.clone()))?;
                pivot_var = new_sub;
            }
            // Case 3 (zig-zig): recolour and rotate at the grandparent.
            Self::recolor(tx, &pivot_var, Color::Black)?;
            Self::recolor(tx, &grand_var, Color::Red)?;
            let new_sub = Self::rotate(tx, &grand_var, opposite(grand_dir))?;
            let above = if path.len() >= 3 {
                Some(path[path.len() - 3].clone())
            } else {
                None
            };
            self.attach(tx, above.as_ref(), Some(new_sub))?;
            break;
        }
        self.blacken_root(tx)
    }

    fn delete_fixup(
        &self,
        tx: &mut Txn<'_>,
        mut path: Vec<PathEntry>,
        mut x: Link,
    ) -> TxResult<()> {
        loop {
            let Some((parent_var, dir)) = path.last().cloned() else {
                // x is the root (or the tree is empty): blacken and stop.
                if let Some(xv) = &x {
                    Self::recolor(tx, xv, Color::Black)?;
                }
                break;
            };
            if let Some(xv) = &x {
                if Self::read_node(tx, xv)?.color == Color::Red {
                    Self::recolor(tx, xv, Color::Black)?;
                    break;
                }
            }
            let parent = Self::read_node(tx, &parent_var)?;
            let w_var = parent
                .child(opposite(dir))
                .expect("a doubly-black node always has a sibling");
            let w = Self::read_node(tx, &w_var)?;
            if w.color == Color::Red {
                // Case 1: red sibling — rotate it above the parent so the
                // new sibling is black.
                Self::recolor(tx, &w_var, Color::Black)?;
                Self::recolor(tx, &parent_var, Color::Red)?;
                let new_sub = Self::rotate(tx, &parent_var, dir)?;
                let above = if path.len() >= 2 {
                    Some(path[path.len() - 2].clone())
                } else {
                    None
                };
                self.attach(tx, above.as_ref(), Some(new_sub.clone()))?;
                // The path to x gains one level: ... -> new_sub -> parent -> x.
                let last = path.len() - 1;
                path.insert(last, (new_sub, dir));
                continue;
            }
            let near_link = w.child(dir);
            let far_link = w.child(opposite(dir));
            let near_red = match &near_link {
                Some(v) => Self::read_node(tx, v)?.color == Color::Red,
                None => false,
            };
            let far_red = match &far_link {
                Some(v) => Self::read_node(tx, v)?.color == Color::Red,
                None => false,
            };
            if !near_red && !far_red {
                // Case 2: black sibling with black children — recolour the
                // sibling and move the double black up.
                Self::recolor(tx, &w_var, Color::Red)?;
                x = Some(parent_var.clone());
                path.pop();
                continue;
            }
            if !far_red {
                // Case 3: near nephew red, far nephew black — rotate the
                // sibling so the red nephew moves to the far side.
                let near_var = near_link.expect("near nephew is red, hence present");
                Self::recolor(tx, &near_var, Color::Black)?;
                Self::recolor(tx, &w_var, Color::Red)?;
                let new_w = Self::rotate(tx, &w_var, opposite(dir))?;
                Self::set_child_of(tx, &parent_var, opposite(dir), Some(new_w))?;
                continue; // Falls into case 4 on the next iteration.
            }
            // Case 4: far nephew red — one rotation finishes the repair.
            let parent_color = Self::read_node(tx, &parent_var)?.color;
            Self::recolor(tx, &w_var, parent_color)?;
            Self::recolor(tx, &parent_var, Color::Black)?;
            let far_var = far_link.expect("far nephew is red, hence present");
            Self::recolor(tx, &far_var, Color::Black)?;
            let new_sub = Self::rotate(tx, &parent_var, dir)?;
            let above = if path.len() >= 2 {
                Some(path[path.len() - 2].clone())
            } else {
                None
            };
            self.attach(tx, above.as_ref(), Some(new_sub))?;
            break;
        }
        self.blacken_root(tx)
    }

    /// In-order walk pruned to `lo..=hi`: subtrees that cannot intersect the
    /// interval are never read, so the transaction's read set is the two
    /// boundary search paths plus the nodes inside the interval.
    fn range_walk(
        tx: &mut Txn<'_>,
        link: &Link,
        lo: i64,
        hi: i64,
        out: &mut Vec<i64>,
    ) -> TxResult<()> {
        let Some(var) = link else {
            return Ok(());
        };
        let node = tx.read(var)?;
        if node.key > lo {
            Self::range_walk(tx, &node.left, lo, hi, out)?;
        }
        if (lo..=hi).contains(&node.key) {
            out.push(node.key);
        }
        if node.key < hi {
            Self::range_walk(tx, &node.right, lo, hi, out)?;
        }
        Ok(())
    }

    /// Validates the red-black invariants (binary-search-tree order, no
    /// red node with a red child, equal black heights) and returns the
    /// number of nodes. Intended for tests and debugging.
    pub fn check_invariants(&self, tx: &mut Txn<'_>) -> TxResult<usize> {
        fn walk(
            tx: &mut Txn<'_>,
            link: &Link,
            lower: Option<i64>,
            upper: Option<i64>,
            parent_red: bool,
        ) -> TxResult<(usize, usize)> {
            match link {
                None => Ok((1, 0)), // nil nodes are black, height 1 by convention
                Some(var) => {
                    let node = tx.read(var)?;
                    if let Some(lo) = lower {
                        assert!(node.key > lo, "BST order violated: {} <= {}", node.key, lo);
                    }
                    if let Some(hi) = upper {
                        assert!(node.key < hi, "BST order violated: {} >= {}", node.key, hi);
                    }
                    let is_red = node.color == Color::Red;
                    assert!(
                        !(parent_red && is_red),
                        "red-red violation at key {}",
                        node.key
                    );
                    let (lh, lc) = walk(tx, &node.left, lower, Some(node.key), is_red)?;
                    let (rh, rc) = walk(tx, &node.right, Some(node.key), upper, is_red)?;
                    assert_eq!(
                        lh, rh,
                        "black-height mismatch under key {}: {} vs {}",
                        node.key, lh, rh
                    );
                    let own = if is_red { 0 } else { 1 };
                    Ok((lh + own, lc + rc + 1))
                }
            }
        }
        let root = tx.read(&self.root)?;
        if let Some(root_var) = &root {
            let root_node = tx.read(root_var)?;
            assert_eq!(root_node.color, Color::Black, "root must be black");
        }
        let (_, count) = walk(tx, &root, None, None, false)?;
        Ok(count)
    }
}

fn opposite(dir: Dir) -> Dir {
    match dir {
        Dir::Left => Dir::Right,
        Dir::Right => Dir::Left,
    }
}

impl TxSet for TxRbTree {
    fn insert(&self, tx: &mut Txn<'_>, key: i64) -> TxResult<bool> {
        let (path, found) = self.descend(tx, key)?;
        if found.is_some() {
            return Ok(false);
        }
        let z = TVar::new(Node {
            key,
            color: Color::Red,
            left: None,
            right: None,
        });
        self.attach(tx, path.last(), Some(z.clone()))?;
        self.insert_fixup(tx, path, z)?;
        Ok(true)
    }

    fn remove(&self, tx: &mut Txn<'_>, key: i64) -> TxResult<bool> {
        let (mut path, found) = self.descend(tx, key)?;
        let Some(z_var) = found else {
            return Ok(false);
        };
        let z = tx.read(&z_var)?;
        let target_var = if z.left.is_some() && z.right.is_some() {
            // Two children: find the in-order successor, copy its key into z,
            // then splice the successor out instead.
            path.push((z_var.clone(), Dir::Right));
            let mut current = z.right.clone().expect("right child checked above");
            loop {
                let node = tx.read(&current)?;
                match node.left.clone() {
                    Some(left) => {
                        path.push((current.clone(), Dir::Left));
                        current = left;
                    }
                    None => break,
                }
            }
            let successor = tx.read(&current)?;
            let z_now = tx.read(&z_var)?;
            tx.write(
                &z_var,
                Node {
                    key: successor.key,
                    ..z_now
                },
            )?;
            current
        } else {
            z_var
        };
        let target = tx.read(&target_var)?;
        let child = target.left.clone().or_else(|| target.right.clone());
        self.attach(tx, path.last(), child.clone())?;
        if target.color == Color::Black {
            self.delete_fixup(tx, path, child)?;
        } else {
            self.blacken_root(tx)?;
        }
        Ok(true)
    }

    fn contains(&self, tx: &mut Txn<'_>, key: i64) -> TxResult<bool> {
        let (_, found) = self.descend(tx, key)?;
        Ok(found.is_some())
    }

    fn len(&self, tx: &mut Txn<'_>) -> TxResult<usize> {
        Ok(self.to_vec(tx)?.len())
    }

    fn to_vec(&self, tx: &mut Txn<'_>) -> TxResult<Vec<i64>> {
        let mut out = Vec::new();
        let mut stack: Vec<(TVar<Node>, bool)> = Vec::new();
        if let Some(root) = tx.read(&self.root)? {
            stack.push((root, false));
        }
        while let Some((var, expanded)) = stack.pop() {
            let node = tx.read(&var)?;
            if expanded {
                out.push(node.key);
                continue;
            }
            // In-order: right, self (marked), left — pushed in reverse.
            if let Some(right) = node.right.clone() {
                stack.push((right, false));
            }
            stack.push((var, true));
            if let Some(left) = node.left.clone() {
                stack.push((left, false));
            }
        }
        Ok(out)
    }

    fn range(&self, tx: &mut Txn<'_>, lo: i64, hi: i64) -> TxResult<Vec<i64>> {
        let mut out = Vec::new();
        if lo <= hi {
            let root = tx.read(&self.root)?;
            Self::range_walk(tx, &root, lo, hi, &mut out)?;
        }
        Ok(out)
    }

    fn structure_name(&self) -> &'static str {
        "rbtree"
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

    fn new_stm() -> Stm {
        Stm::builder().manager(GreedyManager::factory()).build()
    }

    #[test]
    fn insert_remove_contains_basics() {
        let stm = new_stm();
        let tree = TxRbTree::new();
        let mut ctx = stm.thread();
        for key in [5, 2, 8, 1, 9, 3, 7] {
            assert!(ctx.atomically(|tx| tree.insert(tx, key)).unwrap());
        }
        assert!(!ctx.atomically(|tx| tree.insert(tx, 5)).unwrap());
        assert!(ctx.atomically(|tx| tree.contains(tx, 7)).unwrap());
        assert!(!ctx.atomically(|tx| tree.contains(tx, 6)).unwrap());
        assert_eq!(
            ctx.atomically(|tx| tree.to_vec(tx)).unwrap(),
            vec![1, 2, 3, 5, 7, 8, 9]
        );
        assert!(ctx.atomically(|tx| tree.remove(tx, 5)).unwrap());
        assert!(!ctx.atomically(|tx| tree.remove(tx, 5)).unwrap());
        assert_eq!(ctx.atomically(|tx| tree.len(tx)).unwrap(), 6);
        ctx.atomically(|tx| tree.check_invariants(tx)).unwrap();
        assert_eq!(tree.structure_name(), "rbtree");
    }

    #[test]
    fn ascending_and_descending_insertions_stay_balanced() {
        let stm = new_stm();
        let mut ctx = stm.thread();
        for ascending in [true, false] {
            let tree = TxRbTree::new();
            let keys: Vec<i64> = if ascending {
                (0..128).collect()
            } else {
                (0..128).rev().collect()
            };
            for &k in &keys {
                assert!(ctx.atomically(|tx| tree.insert(tx, k)).unwrap());
                ctx.atomically(|tx| tree.check_invariants(tx)).unwrap();
            }
            let count = ctx.atomically(|tx| tree.check_invariants(tx)).unwrap();
            assert_eq!(count, 128);
            assert_eq!(
                ctx.atomically(|tx| tree.to_vec(tx)).unwrap(),
                (0..128).collect::<Vec<i64>>()
            );
        }
    }

    #[test]
    fn deleting_every_element_in_various_orders_keeps_invariants() {
        let stm = new_stm();
        let mut ctx = stm.thread();
        let n = 64i64;
        for removal_stride in [1i64, 3, 7, 11] {
            let tree = TxRbTree::new();
            for k in 0..n {
                ctx.atomically(|tx| tree.insert(tx, k)).unwrap();
            }
            let mut remaining: BTreeSet<i64> = (0..n).collect();
            let mut key = 0i64;
            while !remaining.is_empty() {
                key = (key + removal_stride) % n;
                if remaining.remove(&key) {
                    assert!(ctx.atomically(|tx| tree.remove(tx, key)).unwrap());
                } else {
                    assert!(!ctx.atomically(|tx| tree.remove(tx, key)).unwrap());
                }
                let count = ctx.atomically(|tx| tree.check_invariants(tx)).unwrap();
                assert_eq!(count, remaining.len());
            }
            assert!(ctx.atomically(|tx| tree.is_empty(tx)).unwrap());
        }
    }

    #[test]
    fn matches_a_model_set_for_a_random_workload_with_invariants() {
        let stm = new_stm();
        let tree = TxRbTree::new();
        let mut ctx = stm.thread();
        let mut model = BTreeSet::new();
        let mut seed = 0x0123_4567_89ab_cdefu64;
        for step in 0..4_000u32 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = ((seed >> 33) % 256) as i64;
            let insert = (seed >> 17) & 1 == 0;
            let (expected, actual) = if insert {
                (
                    model.insert(key),
                    ctx.atomically(|tx| tree.insert(tx, key)).unwrap(),
                )
            } else {
                (
                    model.remove(&key),
                    ctx.atomically(|tx| tree.remove(tx, key)).unwrap(),
                )
            };
            assert_eq!(expected, actual, "step {step}, key {key}, insert {insert}");
            if step % 64 == 0 {
                let count = ctx.atomically(|tx| tree.check_invariants(tx)).unwrap();
                assert_eq!(count, model.len());
            }
        }
        assert_eq!(
            ctx.atomically(|tx| tree.to_vec(tx)).unwrap(),
            model.iter().copied().collect::<Vec<_>>()
        );
        ctx.atomically(|tx| tree.check_invariants(tx)).unwrap();
    }

    #[test]
    fn range_matches_a_model_over_random_intervals() {
        let stm = new_stm();
        let tree = TxRbTree::new();
        let mut ctx = stm.thread();
        let mut model = BTreeSet::new();
        let mut seed = 0x7a3e_11d5_90cc_4b01u64;
        for _ in 0..500 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = ((seed >> 33) % 128) as i64;
            if (seed >> 11) & 1 == 0 {
                model.insert(key);
                ctx.atomically(|tx| tree.insert(tx, key)).unwrap();
            } else {
                model.remove(&key);
                ctx.atomically(|tx| tree.remove(tx, key)).unwrap();
            }
            let a = ((seed >> 5) % 128) as i64;
            let b = ((seed >> 21) % 128) as i64;
            let (lo, hi) = (a.min(b), a.max(b));
            let got = ctx.atomically(|tx| tree.range(tx, lo, hi)).unwrap();
            let want: Vec<i64> = model.range(lo..=hi).copied().collect();
            assert_eq!(got, want, "range({lo}, {hi}) diverged");
        }
        // Inverted and empty intervals.
        assert_eq!(
            ctx.atomically(|tx| tree.range(tx, 10, 5)).unwrap(),
            Vec::<i64>::new()
        );
        assert_eq!(
            ctx.atomically(|tx| tree.range(tx, 1000, 2000)).unwrap(),
            Vec::<i64>::new()
        );
    }

    #[test]
    fn multi_key_transaction_is_atomic() {
        let stm = new_stm();
        let tree = TxRbTree::new();
        let mut ctx = stm.thread();
        ctx.atomically(|tx| {
            for k in 0..10 {
                tree.insert(tx, k)?;
            }
            Ok(())
        })
        .unwrap();
        let _ = ctx.atomically(|tx| {
            tree.remove(tx, 3)?;
            tree.remove(tx, 4)?;
            tx.abort::<()>()
        });
        assert_eq!(ctx.atomically(|tx| tree.len(tx)).unwrap(), 10);
    }

    #[test]
    fn concurrent_mixed_workload_preserves_invariants() {
        let stm = Arc::new(new_stm());
        let tree = TxRbTree::new();
        thread::scope(|scope| {
            for t in 0..4u64 {
                let stm = Arc::clone(&stm);
                let tree = tree.clone();
                scope.spawn(move || {
                    let mut ctx = stm.thread();
                    let mut seed = t.wrapping_mul(0x9e3779b97f4a7c15) | 1;
                    for _ in 0..400 {
                        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let key = ((seed >> 33) % 64) as i64;
                        if (seed >> 5) & 1 == 0 {
                            let _ = ctx.atomically(|tx| tree.insert(tx, key)).unwrap();
                        } else {
                            let _ = ctx.atomically(|tx| tree.remove(tx, key)).unwrap();
                        }
                    }
                });
            }
        });
        let mut ctx = stm.thread();
        let contents = ctx.atomically(|tx| tree.to_vec(tx)).unwrap();
        assert!(contents.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
        let count = ctx.atomically(|tx| tree.check_invariants(tx)).unwrap();
        assert_eq!(count, contents.len());
    }
}
