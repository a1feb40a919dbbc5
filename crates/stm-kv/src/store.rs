//! The transactional keyspace behind the server.
//!
//! A [`KvStore`] is a **dynamic** map from arbitrary `i64` keys to typed
//! [`Value`]s (`Int` / `Str` / `Bytes`). Each key's value lives in its own
//! `TVar` cell, found through a cell table; an ordered index of chunked
//! B+-trees ([`TxChunkedSet`]: one `TVar` per 64-key node) keeps the present
//! keys in order. Every writer keeps the two in step, inside one
//! transaction:
//!
//! > **Invariant.** At every committed state, `key ∈ index` ⇔ the cell
//! > linked for `key` holds `CellState::Full`.
//!
//! So the cell alone says whether a key is present, and a tracked read of
//! it is a sufficient serialization witness: whoever changes the key's
//! membership writes that cell. **Point operations (`GET`/`PUT`/`ADD`/`DEL`)
//! therefore go to the cell first** and open the index only when membership
//! changes or when there is no cell to witness absence; `RANGE`/`SUM`/
//! `dump`/`len` read the index, the one thing that knows key order. A hit
//! `GET` or an overwriting `PUT` opens exactly one `TVar`; it neither pays
//! for a tree walk nor read-conflicts with a split or merge on its shard's
//! root path. A key-creating `PUT` or a hit `DEL` adds one root-to-leaf
//! path (the tree's height, 3 at 4,096 keys a shard) and one leaf write; a
//! `RANGE` opens the leaves its window overlaps, not a node per key.
//! [`KvStore::index_walks`] counts the calls that did open the index.
//! It is the counter `stm_kv_index_walks_total` of the store's own registry,
//! whose exposition [`KvStore::metrics_text`] renders with the cell gauges.
//!
//! **Partition.** Keys are dealt to the shards in blocks of 1,024
//! consecutive keys: block `key >> 10` belongs to shard `block mod shards`
//! ([`KvStore::shard_of`]). A shard owns both structures for its blocks,
//! their tree and their cell table, so contiguous keys share a tree and a
//! dense keyspace still spreads evenly. A window of fewer blocks than shards
//! visits its blocks in order and asks each block's tree for the window
//! clamped to that block: the runs come back sorted, so there is no merge,
//! and a 256-key `RANGE` opens one tree or two. A wider window (`dump`,
//! `i64::MIN..=i64::MAX`) asks every tree once and sorts.
//!
//! **Cell table.** A key's cell is materialised by the first *writer* to
//! touch it and found through its shard's table, a
//! `stm_core::sync::Mutex<HashMap<key, TVar>>` (the lock guards only cell
//! *identity* — two racing transactions must obtain the same `TVar` for one
//! key — and is never held across an STM operation). A point operation
//! takes one hold for its key. A scan (`RANGE`/`SUM`/`dump`) takes one hold
//! per block run of the keys its index walk returned — at most 1,024 keys —
//! cloning every linked cell of the run, then reads each cell through the
//! handle it took ([`stm_core::Txn::read_owned`]): the read set keeps that
//! handle, so a scanned key costs one table probe and one refcount.
//!
//! **Two lookup outcomes, and a transient third.** A point operation looks
//! its key up in the table and finds the cell
//!
//! * **linked** — it reads the cell and answers from its state: `Full` is
//!   present, `Vacant` (or a tombstone this same transaction wrote) is
//!   absent. The index is not consulted.
//! * **unlinked** — no writer has a cell for the key, so by the invariant
//!   it is absent, but there is nothing to read. A `PUT`/`ADD` links a
//!   fresh `Vacant` cell and proceeds as above. Every other operation
//!   (`GET`, `DEL`, and a scan's key with no cell) must not
//!   materialise a cell — a miss would leak one, and so would a reader that
//!   a concurrent `DEL` has already doomed; it reads the key's path in the
//!   index instead, which is exactly what a later creator's `index.insert`
//!   will write. Should that walk find the key — a creator committed
//!   between the table lookup and the walk — the operation looks the (now
//!   linked) cell up again.
//!
//! In between, a linked cell may be **tombstoned**: it holds a *committed*
//! `CellState::Dead` — a `DEL` committed and its unlink is imminent. The
//! operation helps unlink the cell and looks the key up again. A scan hands
//! a key whose cell is missing or reads `Dead` (committed, or its own
//! tombstone) to the point lookup, which applies these rules.
//!
//! **Commit-time cell GC.** A committed `DEL` unlinks the key's cell, and
//! the cell's `Arc` frees it. The deleting transaction writes the `Dead`
//! tombstone and registers a deferred action
//! ([`stm_core::Txn::defer_on_commit`]) that — only if the delete committed
//! and the tombstone is still the committed value — removes the cell from
//! its shard table. The table's reference is dropped there; a transaction
//! that fetched the cell a moment earlier holds its own `Arc` clone, so the
//! memory lives until that transaction lets go, and no grace period is
//! needed. The tombstone is still needed, for *table identity*, which is
//! outside the STM: such a straggler must not read the unlinked cell as the
//! key's current value, nor write through it. Every operation reads a cell
//! before writing it, and a committed `Dead` is terminal — the reader helps
//! unlink and looks the key up again, and only the transaction that wrote a
//! tombstone may overwrite it (a `DEL` followed by a `PUT` of the same key
//! in one transaction, detected via [`stm_core::Txn::owns`]). A transaction
//! that raced the delete while it was still active conflicts with it on the
//! cell itself and is arbitrated by the contention manager as usual. The
//! books are exact at every instant: [`KvStore::cells_allocated`] −
//! [`KvStore::cells_released`] = [`KvStore::cells_live`] (`METRICS`:
//! `stm_kv_cells_allocated` − `stm_kv_cells_freed` = linked cells).
//!
//! **Typing.** The arithmetic operations (`ADD`, and `SUM` over a range)
//! are only defined on `Int` values: hitting a `Str`/`Bytes` value reports
//! a [`TypeMismatch`] naming the offending key and the kind found, which
//! the server surfaces as a `TYPE` error (inside an `EXEC` it aborts the
//! whole transaction).
//!
//! All operations run inside the caller's transaction and compose: the
//! server's `EXEC` batches simply run several store operations in
//! one `atomically` closure, which is what makes multi-key batches
//! serializable across clients — a point read and a range read in one
//! transaction witness the same serial order.

use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use metrics::{Counter, Registry};
use stm_core::sync::{Mutex, MutexGuard};
use stm_core::{TVar, TxResult, Txn};
use stm_structures::{TxChunkedSet, TxSet};

use crate::Value;

/// An arithmetic operation hit a non-integer value: the typed error `ADD`
/// and `SUM` report instead of silently coercing (or crashing on) a string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TypeMismatch {
    /// The key whose value has the wrong kind.
    pub key: i64,
    /// The kind actually stored there (`str` or `bytes`).
    pub found: &'static str,
}

impl std::fmt::Display for TypeMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "key {} holds a {} value, not an int",
            self.key, self.found
        )
    }
}

impl std::error::Error for TypeMismatch {}

/// The transactional state of one value cell.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CellState {
    /// No value yet: the state a cell is linked in, until its creator's
    /// write commits.
    Vacant,
    /// A present value.
    Full(Value),
    /// The tombstone a committed `DEL` leaves in the cell. Terminal
    /// once committed: the deleter unlinks the cell, and any other
    /// transaction that reads this state looks the key up again.
    Dead,
}

impl CellState {
    /// The value held — by the module invariant, `Some` exactly when the
    /// key is present.
    fn value(&self) -> Option<&Value> {
        match self {
            CellState::Full(value) => Some(value),
            CellState::Vacant | CellState::Dead => None,
        }
    }
}

/// log2 of the keys in one block, the partition's unit (see the module
/// docs): a 256-key window crosses at most one block edge, and 64 blocks of
/// a dense 65,536-key range deal out evenly over 16 shards.
const BLOCK_BITS: u32 = 10;

/// One shard's cell table: key → linked value cell.
type CellTable = HashMap<i64, TVar<CellState>>;

#[cfg(test)]
thread_local! {
    /// Cell-table holds this thread has taken (test builds only).
    static TABLE_HOLDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Cell-table holds the calling thread has taken so far, in any store.
#[cfg(test)]
fn table_holds() -> u64 {
    TABLE_HOLDS.with(std::cell::Cell::get)
}

/// One shard: the ordered index and the cell table of the blocks it owns.
/// The mutex guards cell identity only; it is never held across an STM
/// operation.
#[derive(Debug)]
struct Shard {
    /// This shard's present keys, in order.
    index: TxChunkedSet,
    /// Locked only through [`Shard::cells`].
    cells: Mutex<CellTable>,
    /// Cells this shard has unlinked (monotone), bumped under the lock.
    released: AtomicU64,
}

impl Shard {
    /// The cell table, locked: the one place the store takes the lock (test
    /// builds count each hold per thread).
    fn cells(&self) -> MutexGuard<'_, CellTable> {
        #[cfg(test)]
        TABLE_HOLDS.with(|holds| holds.set(holds.get() + 1));
        self.cells.lock()
    }

    /// Removes `cell` from the table if it is still the cell linked under
    /// `key`, and counts it. Idempotent under the table lock: exactly one
    /// caller — the deleter's deferred commit action or a helping
    /// transaction that found the tombstone first — wins the unlink.
    fn unlink_dead(&self, key: i64, cell: &TVar<CellState>) {
        let mut cells = self.cells();
        if cells.get(&key).is_some_and(|entry| entry.same_object(cell)) {
            cells.remove(&key);
            self.released.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A dynamic transactional `i64 → Value` key-value store with commit-time
/// reclamation of deleted keys' cells.
#[derive(Debug)]
pub struct KvStore {
    /// `index_walks` and the cell gauges.
    registry: Registry,
    /// Calls into the shards' trees (monotone): the operations that paid a
    /// tree walk.
    index_walks: Arc<Counter>,
    /// `shards[shard_of(k)]` owns key `k`'s place in the index and its
    /// value cell. Sharded so cell creation and index writes do not
    /// serialize across the keyspace; `Arc` so deferred commit actions can
    /// capture their shard. The trees are reached only through
    /// [`KvStore::index`], [`KvStore::keys_in`] and [`KvStore::len`], which
    /// count the call.
    shards: Vec<Arc<Shard>>,
    /// Cells ever materialised (monotone; freed cells still count).
    cells_created: AtomicU64,
}

impl KvStore {
    /// Creates an empty store whose membership index and cell table are
    /// partitioned over `shards` shards by 1,024-key block
    /// ([`KvStore::shard_of`]).
    ///
    /// # Panics
    ///
    /// Panics when `shards == 0`.
    pub fn new(shards: usize) -> Self {
        KvStore::with_preallocated(shards, 0)
    }

    /// [`KvStore::new`] with room reserved in the cell table for `keys`
    /// cells, spread evenly over the shards. No cell is created: the name is
    /// the one `bench/` calls.
    ///
    /// # Panics
    ///
    /// Panics when `shards == 0`.
    pub fn with_preallocated(shards: usize, keys: i64) -> Self {
        assert!(shards > 0, "need at least one shard");
        let per_shard = usize::try_from(keys).unwrap_or(0) / shards;
        let registry = Registry::new();
        KvStore {
            index_walks: registry.counter("stm_kv_index_walks_total", &[]),
            registry,
            shards: (0..shards)
                .map(|_| {
                    Arc::new(Shard {
                        index: TxChunkedSet::new(),
                        cells: Mutex::new(HashMap::with_capacity(per_shard)),
                        released: AtomicU64::new(0),
                    })
                })
                .collect(),
            cells_created: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `key`'s index entry and value cell: the key's
    /// 1,024-key block, `key >> 10`, modulo the number of shards. So keys
    /// that are close share a shard, and any 1,024 × `shards` consecutive
    /// keys put exactly 1,024 in each.
    pub fn shard_of(&self, key: i64) -> usize {
        (key >> BLOCK_BITS).rem_euclid(self.shards.len() as i64) as usize
    }

    /// The shard owning `key`.
    fn shard(&self, key: i64) -> &Arc<Shard> {
        &self.shards[self.shard_of(key)]
    }

    /// The tree holding `key`, for one point call into it. Every tree
    /// operation the store performs goes through here, [`KvStore::keys_in`]
    /// or [`KvStore::len`], so [`KvStore::index_walks`] counts exactly the
    /// operations that left the cell-only fast path.
    fn index(&self, key: i64) -> &TxChunkedSet {
        self.index_walks.add(1);
        &self.shard(key).index
    }

    /// The present keys in `lo..=hi`, ascending, in one counted index walk.
    /// A window of fewer blocks than shards takes [`KvStore::block_walk`];
    /// a wider one asks every tree once and sorts, so `dump`'s
    /// `i64::MIN..=i64::MAX` costs one walk of each tree.
    fn keys_in(&self, tx: &mut Txn<'_>, lo: i64, hi: i64) -> TxResult<Vec<i64>> {
        self.index_walks.add(1);
        // In i128: `i64::MIN..=i64::MAX` spans 2^54 blocks, and no count
        // of blocks can overflow.
        let blocks = i128::from(hi >> BLOCK_BITS) - i128::from(lo >> BLOCK_BITS) + 1;
        if blocks < self.shards.len() as i128 {
            return self.block_walk(tx, lo, hi);
        }
        let mut keys = Vec::new();
        for shard in &self.shards {
            keys.extend(shard.index.range(tx, lo, hi)?);
        }
        keys.sort_unstable();
        Ok(keys)
    }

    /// The present keys in `lo..=hi` block by block, in ascending order:
    /// each block's tree is asked for the window clamped to the block, so
    /// the runs need no merge and a tree that owns two blocks of the window
    /// answers for each in its place. Correct at any width; it opens a root
    /// path per block, so [`KvStore::keys_in`] takes it only while that is
    /// fewer paths than one per tree.
    fn block_walk(&self, tx: &mut Txn<'_>, lo: i64, hi: i64) -> TxResult<Vec<i64>> {
        let mut keys = Vec::new();
        for block in (lo >> BLOCK_BITS)..=(hi >> BLOCK_BITS) {
            // `block` lies in `i64::MIN >> 10 ..= i64::MAX >> 10`, so
            // neither shift back out of it can overflow.
            let first = block << BLOCK_BITS;
            let last = first | ((1 << BLOCK_BITS) - 1);
            let tree = &self.shard(first).index;
            keys.extend(tree.range(tx, lo.max(first), hi.min(last))?);
        }
        Ok(keys)
    }

    /// Calls the store has made into its ordered index (monotone): key
    /// creations and removals, point misses on never-linked keys, and every
    /// `RANGE`/`SUM`/`dump`/`len`. A hit `GET` or an overwriting `PUT`/`ADD`
    /// adds nothing. Exported as `stm_kv_index_walks_total` in `METRICS`.
    pub fn index_walks(&self) -> u64 {
        self.index_walks.value()
    }

    /// The store's registry in Prometheus text exposition, with the cell
    /// gauges set from the books as of this call.
    pub fn metrics_text(&self) -> String {
        let gauge = |name, labels: &[(&'static str, &str)], value: usize| {
            self.registry.gauge(name, labels).set(value as i64);
        };
        gauge("stm_kv_cells_allocated", &[], self.cells_allocated());
        gauge("stm_kv_cells_freed", &[], self.cells_released());
        for (shard, cells) in self.cells_per_shard().into_iter().enumerate() {
            gauge(
                "stm_kv_overflow_cells",
                &[("shard", &shard.to_string())],
                cells,
            );
        }
        self.registry.render()
    }

    /// The value cell currently linked for `key`, if any — never creates
    /// one, so a point miss leaves the table as it found it.
    fn linked_cell(&self, key: i64) -> Option<TVar<CellState>> {
        self.shard(key).cells().get(&key).cloned()
    }

    /// The value cell currently linked for `key`, created on first touch
    /// under the shard's lock.
    fn fetch_cell(&self, key: i64) -> TVar<CellState> {
        let mut cells = self.shard(key).cells();
        cells
            .entry(key)
            .or_insert_with(|| {
                self.cells_created.fetch_add(1, Ordering::Relaxed);
                TVar::new(CellState::Vacant)
            })
            .clone()
    }

    /// Reads `cell` (the one linked for `key`) in `tx`. The tracked read is
    /// what lets the runtime arbitrate with a concurrent writer of the key.
    /// `None` means the cell held
    /// a committed tombstone — it is unlinked or about to be, this call
    /// helped unlink it, and the caller must look the key up again. Our own
    /// uncommitted tombstone (a `DEL` earlier in this transaction) is
    /// returned as-is so a re-`PUT` reuses the same cell.
    fn read_cell(
        &self,
        tx: &mut Txn<'_>,
        key: i64,
        cell: &TVar<CellState>,
    ) -> TxResult<Option<Arc<CellState>>> {
        let state = tx.read_arc(cell)?;
        if *state == CellState::Dead && !tx.owns(cell) {
            self.shard(key).unlink_dead(key, cell);
            return Ok(None);
        }
        Ok(Some(state))
    }

    /// `key`'s cell, created if unlinked, and its state as read in `tx`:
    /// the read-before-write step of every operation that may create the
    /// key.
    fn live_cell(&self, tx: &mut Txn<'_>, key: i64) -> TxResult<(TVar<CellState>, Arc<CellState>)> {
        loop {
            let cell = self.fetch_cell(key);
            if let Some(state) = self.read_cell(tx, key, &cell)? {
                return Ok((cell, state));
            }
        }
    }

    /// `key`'s cell and its state as read in `tx`, **without** creating a
    /// cell: the lookup of the operations that cannot create the key. `None`
    /// means no cell is linked and the key is absent, witnessed by the read
    /// of its index path — the nodes a later creator's insert must write.
    fn peek_cell(
        &self,
        tx: &mut Txn<'_>,
        key: i64,
    ) -> TxResult<Option<(TVar<CellState>, Arc<CellState>)>> {
        loop {
            match self.linked_cell(key) {
                Some(cell) => {
                    if let Some(state) = self.read_cell(tx, key, &cell)? {
                        return Ok(Some((cell, state)));
                    }
                }
                None => {
                    if !self.index(key).contains(tx, key)? {
                        return Ok(None);
                    }
                    // A creator committed between the table lookup and the
                    // walk, so its cell is linked now.
                }
            }
        }
    }

    /// Number of value cells ever materialised (monotone — released cells
    /// still count), the gauge `stm_kv_cells_allocated`.
    pub fn cells_allocated(&self) -> usize {
        self.cells_created.load(Ordering::Relaxed) as usize
    }

    /// Number of cells a committed `DEL` has unlinked (monotone), each
    /// freed once the last transaction holding it lets go: the gauge
    /// `stm_kv_cells_freed`. `cells_allocated − cells_released =
    /// cells_live`.
    pub fn cells_released(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.released.load(Ordering::Relaxed) as usize)
            .sum()
    }

    /// Number of cells currently linked: the store's resident cell count.
    pub fn cells_live(&self) -> usize {
        self.cells_per_shard().iter().sum()
    }

    /// Number of cells currently linked per shard — how the keyspace
    /// distributes over the shards' blocks: the gauges
    /// `stm_kv_overflow_cells{shard=…}`, the name the series has always
    /// had.
    pub fn cells_per_shard(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|shard| shard.cells().len())
            .collect()
    }

    /// Reads the value at `key`, or `None` when the key is absent. A miss
    /// never materialises a cell.
    pub fn get(&self, tx: &mut Txn<'_>, key: i64) -> TxResult<Option<Value>> {
        let found = self.peek_cell(tx, key)?;
        Ok(found.and_then(|(_cell, state)| state.value().cloned()))
    }

    /// Stores `value` at `key` and returns the state it replaced. Only a
    /// `PUT` that creates the key opens the index.
    fn put_cell(&self, tx: &mut Txn<'_>, key: i64, value: Value) -> TxResult<Arc<CellState>> {
        let (cell, state) = self.live_cell(tx, key)?;
        if state.value().is_none() {
            self.index(key).insert(tx, key)?;
        }
        tx.write(&cell, CellState::Full(value))?;
        Ok(state)
    }

    /// Stores `value` at `key`, returning the previous value if the key was
    /// present.
    pub fn put(
        &self,
        tx: &mut Txn<'_>,
        key: i64,
        value: impl Into<Value>,
    ) -> TxResult<Option<Value>> {
        let replaced = self.put_cell(tx, key, value.into())?;
        Ok(replaced.value().cloned())
    }

    /// [`KvStore::put`] for callers that do not want the previous value
    /// (it is not copied out): returns whether the key was already present.
    pub fn set(&self, tx: &mut Txn<'_>, key: i64, value: impl Into<Value>) -> TxResult<bool> {
        let replaced = self.put_cell(tx, key, value.into())?;
        Ok(replaced.value().is_some())
    }

    /// Removes `key` and returns the `Full` state it held, or `None` when
    /// it was absent. The cell receives the `Dead` tombstone and, once the
    /// delete commits, is unlinked from its shard table. A miss opens the index only when no
    /// cell is linked, and then read-only: removing there would race a
    /// `PUT` that linked its cell after our lookup.
    fn del_cell(&self, tx: &mut Txn<'_>, key: i64) -> TxResult<Option<Arc<CellState>>> {
        let Some((cell, state)) = self.peek_cell(tx, key)? else {
            return Ok(None);
        };
        if state.value().is_none() {
            return Ok(None);
        }
        self.index(key).remove(tx, key)?;
        tx.write(&cell, CellState::Dead)?;
        let shard = Arc::clone(self.shard(key));
        let tombstone = cell;
        tx.defer_on_commit(move || {
            // Skip when this same transaction re-PUT the key after the
            // DEL: the committed value is then Full, and the cell stays.
            if *tombstone.load_committed_arc() == CellState::Dead {
                shard.unlink_dead(key, &tombstone);
            }
        });
        Ok(Some(state))
    }

    /// Removes `key`, returning its value if it was present.
    pub fn del(&self, tx: &mut Txn<'_>, key: i64) -> TxResult<Option<Value>> {
        let removed = self.del_cell(tx, key)?;
        Ok(removed.and_then(|state| state.value().cloned()))
    }

    /// [`KvStore::del`] for callers that do not want the removed value (it
    /// is not copied out): returns whether the key was present.
    pub fn unset(&self, tx: &mut Txn<'_>, key: i64) -> TxResult<bool> {
        Ok(self.del_cell(tx, key)?.is_some())
    }

    /// Adds `delta` to the integer value at `key` (treating an absent key as
    /// `0` and inserting it), returning the new value — or a
    /// [`TypeMismatch`] when the key holds a non-integer value. This is the
    /// closed read-modify-write the `EXEC` transfer batches are built from.
    pub fn add(
        &self,
        tx: &mut Txn<'_>,
        key: i64,
        delta: i64,
    ) -> TxResult<Result<i64, TypeMismatch>> {
        let (cell, state) = self.live_cell(tx, key)?;
        let current = match state.value() {
            Some(Value::Int(v)) => *v,
            Some(other) => {
                return Ok(Err(TypeMismatch {
                    key,
                    found: other.type_name(),
                }))
            }
            None => {
                self.index(key).insert(tx, key)?;
                0
            }
        };
        let next = current.wrapping_add(delta);
        tx.write(&cell, CellState::Full(Value::Int(next)))?;
        Ok(Ok(next))
    }

    /// Hands each present key of `keys` (ascending, as [`KvStore::keys_in`]
    /// returns them) with its value to `visit`, in order, until `visit`
    /// breaks. Each block run of `keys` — the keys of one 1,024-key block —
    /// clones its linked cells in one hold of its shard's table, and each
    /// cell is read through the handle taken there
    /// ([`stm_core::Txn::read_owned`]). A key with no linked cell, or whose
    /// cell reads `Dead`, takes the point lookup instead: that path helps
    /// unlink a committed tombstone, honours this transaction's own, and
    /// reads the index where no cell witnesses absence.
    fn scan<B>(
        &self,
        tx: &mut Txn<'_>,
        keys: &[i64],
        mut visit: impl FnMut(i64, &Value) -> ControlFlow<B>,
    ) -> TxResult<Option<B>> {
        let mut cells = Vec::new();
        for run in keys.chunk_by(|a, b| a >> BLOCK_BITS == b >> BLOCK_BITS) {
            {
                let table = self.shard(run[0]).cells();
                cells.extend(run.iter().map(|key| table.get(key).cloned()));
            }
            for (&key, cell) in run.iter().zip(cells.drain(..)) {
                let state = match cell.map(|cell| tx.read_owned(cell)).transpose()? {
                    Some(state) if *state != CellState::Dead => Some(state),
                    // Read without creating: a reader that a concurrent
                    // `DEL` has already doomed must not re-link a cell for
                    // the key it lost.
                    _ => self.peek_cell(tx, key)?.map(|(_cell, state)| state),
                };
                if let Some(value) = state.as_deref().and_then(CellState::value) {
                    if let ControlFlow::Break(stop) = visit(key, value) {
                        return Ok(Some(stop));
                    }
                }
            }
        }
        Ok(None)
    }

    /// The present keys in `lo..=hi` with their values, ascending: one index
    /// walk, then one cell-table hold per block run (the private `scan`).
    pub fn range(&self, tx: &mut Txn<'_>, lo: i64, hi: i64) -> TxResult<Vec<(i64, Value)>> {
        let mut pairs = Vec::new();
        if lo > hi {
            return Ok(pairs);
        }
        let keys = self.keys_in(tx, lo, hi)?;
        self.scan::<()>(tx, &keys, |key, value| {
            pairs.push((key, value.clone()));
            ControlFlow::Continue(())
        })?;
        Ok(pairs)
    }

    /// The sum and count of the integer values present in `lo..=hi`,
    /// observed as one consistent snapshot — the conservation audit the
    /// serializability tests run over the wire. A non-integer value in the
    /// window is a [`TypeMismatch`] naming the first offending key. Reads
    /// as [`KvStore::range`] does, adding from each cell in place: no value
    /// is copied out only to be summed or skipped.
    pub fn sum(
        &self,
        tx: &mut Txn<'_>,
        lo: i64,
        hi: i64,
    ) -> TxResult<Result<(i64, usize), TypeMismatch>> {
        let (mut total, mut count) = (0i64, 0usize);
        if lo > hi {
            return Ok(Ok((total, count)));
        }
        let keys = self.keys_in(tx, lo, hi)?;
        let mismatch = self.scan(tx, &keys, |key, value| match value {
            Value::Int(v) => {
                total = total.wrapping_add(*v);
                count += 1;
                ControlFlow::Continue(())
            }
            other => ControlFlow::Break(TypeMismatch {
                key,
                found: other.type_name(),
            }),
        })?;
        Ok(match mismatch {
            Some(mismatch) => Err(mismatch),
            None => Ok((total, count)),
        })
    }

    /// Every present key with its value, ascending — the consistent cut a
    /// point-in-time snapshot persists. Runs inside the caller's
    /// transaction, so concurrent writers serialize against it. Reads as
    /// [`KvStore::range`] does.
    pub fn dump(&self, tx: &mut Txn<'_>) -> TxResult<Vec<(i64, Value)>> {
        self.range(tx, i64::MIN, i64::MAX)
    }

    /// Number of present keys: one counted walk of every tree.
    pub fn len(&self, tx: &mut Txn<'_>) -> TxResult<usize> {
        self.index_walks.add(1);
        let mut len = 0;
        for shard in &self.shards {
            len += shard.index.len(tx)?;
        }
        Ok(len)
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self, tx: &mut Txn<'_>) -> TxResult<bool> {
        Ok(self.len(tx)? == 0)
    }
}

#[cfg(test)]
impl KvStore {
    /// Test walker for the module invariant, at a quiescent committed state:
    /// each shard's tree holds exactly the keys whose cell the shard links
    /// as `Full`, and every one of them belongs to that shard.
    fn assert_index_matches_cells(&self, stm: &stm_core::Stm) {
        let mut ctx = stm.thread();
        let is_full = |cell: &TVar<CellState>| cell.load_committed_arc().value().is_some();
        for (i, shard) in self.shards.iter().enumerate() {
            let indexed = ctx
                .atomically(|tx| shard.index.to_vec(tx))
                .expect("index walk commits");
            let mut full: Vec<i64> = {
                let cells = shard.cells();
                cells
                    .iter()
                    .filter(|(_, cell)| is_full(cell))
                    .map(|(key, _)| *key)
                    .collect()
            };
            full.sort_unstable();
            assert_eq!(
                indexed, full,
                "shard {i}: key ∈ index ⇔ linked cell is Full"
            );
            assert!(
                indexed.iter().all(|key| self.shard_of(*key) == i),
                "shard {i}: {indexed:?}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::Stm;

    fn int(v: i64) -> Option<Value> {
        Some(Value::Int(v))
    }

    #[test]
    fn get_put_del_add_round_trip() {
        let stm = Stm::default();
        let store = KvStore::new(4);
        let mut ctx = stm.thread();
        ctx.atomically(|tx| {
            assert_eq!(store.get(tx, 5)?, None);
            assert_eq!(store.put(tx, 5, 50)?, None);
            assert_eq!(store.get(tx, 5)?, int(50));
            assert_eq!(store.put(tx, 5, 60)?, int(50));
            assert_eq!(store.add(tx, 5, -10)?, Ok(50));
            assert_eq!(store.add(tx, 9, 7)?, Ok(7), "add creates absent keys at 0");
            assert_eq!(store.del(tx, 5)?, int(50));
            assert_eq!(store.del(tx, 5)?, None);
            assert_eq!(store.len(tx)?, 1);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn typed_values_round_trip_and_gate_arithmetic() {
        let stm = Stm::default();
        let store = KvStore::new(4);
        let mut ctx = stm.thread();
        ctx.atomically(|tx| {
            store.put(tx, 1, "hello\nworld \0")?;
            store.put(tx, 2, vec![0u8, 255, 10])?;
            store.put(tx, 3, 30)?;
            assert_eq!(
                store.get(tx, 1)?,
                Some(Value::Str("hello\nworld \0".into()))
            );
            assert_eq!(store.get(tx, 2)?, Some(Value::Bytes(vec![0, 255, 10])));
            // ADD on a string is a typed error, not an abort: the
            // transaction continues and the value is untouched.
            assert_eq!(
                store.add(tx, 1, 5)?,
                Err(TypeMismatch {
                    key: 1,
                    found: "str"
                })
            );
            assert_eq!(
                store.get(tx, 1)?,
                Some(Value::Str("hello\nworld \0".into()))
            );
            // SUM over a window containing a blob names the offending key.
            assert_eq!(
                store.sum(tx, 0, 10)?,
                Err(TypeMismatch {
                    key: 1,
                    found: "str"
                })
            );
            // A window of ints still sums.
            assert_eq!(store.sum(tx, 3, 10)?, Ok((30, 1)));
            // Overwriting with an int restores arithmetic.
            store.put(tx, 1, 1)?;
            store.del(tx, 2)?;
            assert_eq!(store.sum(tx, 0, 10)?, Ok((31, 2)));
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn keyspace_grows_on_demand_including_negative_and_huge_keys() {
        let stm = Stm::default();
        let store = KvStore::new(4);
        let mut ctx = stm.thread();
        ctx.atomically(|tx| {
            assert_eq!(store.put(tx, -1_000_000, 1)?, None);
            assert_eq!(store.put(tx, i64::MAX, 2)?, None);
            assert_eq!(store.add(tx, i64::MIN, -3)?, Ok(-3));
            assert_eq!(store.get(tx, -1_000_000)?, int(1));
            assert_eq!(store.get(tx, i64::MAX)?, int(2));
            assert_eq!(store.len(tx)?, 3);
            Ok(())
        })
        .unwrap();
        assert!(store.cells_allocated() >= 3);
        assert_eq!(
            store.cells_per_shard().iter().sum::<usize>(),
            store.cells_allocated(),
            "no deletes: every cell ever created is still linked"
        );
        assert_eq!(store.cells_per_shard().len(), 4);
    }

    #[test]
    fn deleted_key_recreated_by_add_starts_at_zero() {
        let stm = Stm::default();
        let store = KvStore::new(2);
        let mut ctx = stm.thread();
        ctx.atomically(|tx| {
            store.put(tx, 3, 99)?;
            store.del(tx, 3)?;
            // The old cell content must not leak back into the map.
            assert_eq!(store.add(tx, 3, 1)?, Ok(1));
            assert_eq!(store.get(tx, 3)?, int(1));
            // Same for a deleted string value.
            store.put(tx, 4, "gone")?;
            store.del(tx, 4)?;
            assert_eq!(
                store.add(tx, 4, 2)?,
                Ok(2),
                "deleted str must not block ADD"
            );
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn committed_delete_unlinks_and_reclaims_the_cell() {
        let stm = Stm::default();
        let store = KvStore::new(2);
        let mut ctx = stm.thread();
        ctx.atomically(|tx| store.put(tx, 1_000, 7)).unwrap();
        assert_eq!(store.cells_allocated(), 1);
        assert_eq!(store.cells_live(), 1);
        ctx.atomically(|tx| store.del(tx, 1_000)).unwrap();
        // The deferred commit action unlinked the cell, and the books say
        // so at once: allocated − released = live.
        assert_eq!(store.cells_live(), 0, "deleted cell must leave the table");
        assert_eq!(store.cells_released(), 1);
        assert_eq!(
            store.cells_allocated(),
            1,
            "allocation count stays monotone"
        );
        // The key is re-creatable and gets a fresh cell.
        ctx.atomically(|tx| store.put(tx, 1_000, 8)).unwrap();
        assert_eq!(store.cells_live(), 1);
        assert_eq!(store.cells_allocated(), 2);
        assert_eq!(ctx.atomically(|tx| store.get(tx, 1_000)).unwrap(), int(8));
    }

    #[test]
    fn del_then_put_in_one_transaction_keeps_the_cell() {
        let stm = Stm::default();
        let store = KvStore::new(2);
        let mut ctx = stm.thread();
        ctx.atomically(|tx| store.put(tx, 500, 1)).unwrap();
        ctx.atomically(|tx| {
            store.del(tx, 500)?;
            store.put(tx, 500, 2)
        })
        .unwrap();
        // The re-PUT overwrote the tombstone before commit, so the deferred
        // unlink must have been a no-op: same cell, nothing released.
        assert_eq!(store.cells_allocated(), 1);
        assert_eq!(store.cells_live(), 1);
        assert_eq!(store.cells_released(), 0);
        assert_eq!(ctx.atomically(|tx| store.get(tx, 500)).unwrap(), int(2));
    }

    #[test]
    fn aborted_delete_reclaims_nothing() {
        let stm = Stm::default();
        let store = KvStore::new(2);
        let mut ctx = stm.thread();
        ctx.atomically(|tx| store.put(tx, 900, 5)).unwrap();
        let _ = ctx.atomically(|tx| {
            store.del(tx, 900)?;
            tx.abort::<()>()
        });
        assert_eq!(store.cells_live(), 1, "aborted DEL must not unlink");
        assert_eq!(store.cells_released(), 0);
        assert_eq!(ctx.atomically(|tx| store.get(tx, 900)).unwrap(), int(5));
    }

    #[test]
    fn small_keys_get_no_permanent_cell() {
        let stm = Stm::default();
        let store = KvStore::new(2);
        let mut ctx = stm.thread();
        assert_eq!(store.cells_allocated(), 0);
        ctx.atomically(|tx| store.put(tx, 3, 30)).unwrap();
        assert_eq!((store.cells_allocated(), store.cells_live()), (1, 1));
        ctx.atomically(|tx| store.del(tx, 3)).unwrap();
        assert_eq!(
            store.cells_live(),
            0,
            "DEL unlinks key 3's cell like any other"
        );
        assert_eq!(ctx.atomically(|tx| store.get(tx, 3)).unwrap(), None);
        assert_eq!(store.cells_allocated(), 1, "a miss materialises nothing");
        // A later transaction's PUT allocates a fresh cell; the old one is
        // released, not reused.
        ctx.atomically(|tx| store.put(tx, 3, 31)).unwrap();
        assert_eq!((store.cells_allocated(), store.cells_live()), (2, 1));
        assert_eq!(store.cells_released(), 1);
        assert_eq!(ctx.atomically(|tx| store.get(tx, 3)).unwrap(), int(31));
    }

    #[test]
    fn with_preallocated_reserves_room_but_creates_no_cells() {
        let stm = Stm::default();
        let store = KvStore::with_preallocated(16, 65_536);
        assert_eq!(store.cells_allocated(), 0);
        assert_eq!(store.cells_live(), 0);
        assert_eq!(store.num_shards(), 16);
        let mut ctx = stm.thread();
        ctx.atomically(|tx| store.put(tx, 7, 70)).unwrap();
        assert_eq!(store.cells_allocated(), 1);
        // A nonsensical hint reserves nothing and still builds a store.
        assert_eq!(KvStore::with_preallocated(4, -1).cells_allocated(), 0);
    }

    #[test]
    fn put_del_churn_under_contention_stays_bounded_and_conserves() {
        use std::sync::Arc as StdArc;
        let stm = StdArc::new(Stm::default());
        let store = StdArc::new(KvStore::new(4));
        let threads = 4usize;
        let ops = 300i64;
        let window = 8i64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let stm = StdArc::clone(&stm);
                let store = StdArc::clone(&store);
                scope.spawn(move || {
                    let mut ctx = stm.thread();
                    let base = 10_000 + (t as i64) * 100_000;
                    for i in 0..ops {
                        ctx.atomically(|tx| store.put(tx, base + i, i)).unwrap();
                        if i >= window {
                            let victim = base + i - window;
                            let prev = ctx.atomically(|tx| store.del(tx, victim)).unwrap();
                            assert_eq!(prev, int(i - window), "lost write at {victim}");
                        }
                    }
                });
            }
        });
        let live = threads as i64 * window;
        assert_eq!(
            store.cells_live() as i64,
            live,
            "table must hold exactly the live keys after churn"
        );
        assert_eq!(
            store.cells_allocated() - store.cells_released(),
            store.cells_live(),
            "every allocated cell is either linked or was released"
        );
    }

    #[test]
    fn range_sum_and_dump_snapshot_consistently() {
        let stm = Stm::default();
        let store = KvStore::new(4);
        let mut ctx = stm.thread();
        ctx.atomically(|tx| {
            for key in [2i64, 7, 11, 30, 500] {
                store.put(tx, key, key * 10)?;
            }
            Ok(())
        })
        .unwrap();
        let pairs = ctx.atomically(|tx| store.range(tx, -100, 100)).unwrap();
        let as_ints: Vec<(i64, i64)> = pairs
            .iter()
            .map(|(k, v)| (*k, v.as_int().unwrap()))
            .collect();
        assert_eq!(as_ints, vec![(2, 20), (7, 70), (11, 110), (30, 300)]);
        let window = ctx.atomically(|tx| store.range(tx, 3, 11)).unwrap();
        assert_eq!(window.len(), 2);
        assert_eq!(
            ctx.atomically(|tx| store.sum(tx, 0, 31)).unwrap(),
            Ok((500, 4))
        );
        assert_eq!(
            ctx.atomically(|tx| store.sum(tx, 12, 3)).unwrap(),
            Ok((0, 0))
        );
        let dump = ctx.atomically(|tx| store.dump(tx)).unwrap();
        assert_eq!(dump.len(), 5);
        assert_eq!(dump[4], (500, Value::Int(5000)));
    }

    #[test]
    fn windows_across_block_edges_match_a_btreemap_model() {
        use std::collections::BTreeMap;
        const BLOCK: i64 = 1 << BLOCK_BITS;
        const SHARDS: i64 = 4;
        let stm = Stm::default();
        let store = KvStore::new(SHARDS as usize);
        let mut ctx = stm.thread();

        // Keys on both sides of the block edges around zero and far out,
        // and at both ends of `i64`.
        let mut model = BTreeMap::new();
        for block in (-9..=9).chain([1 << 22, (1 << 22) + 1]) {
            let edge = block * BLOCK;
            for key in [edge - 2, edge - 1, edge, edge + 1, edge + BLOCK / 2] {
                model.insert(key, key / 3);
            }
        }
        for key in [
            i64::MIN,
            i64::MIN + 1,
            i64::MIN + BLOCK,
            i64::MAX - BLOCK,
            i64::MAX,
        ] {
            model.insert(key, key / 3);
        }
        ctx.atomically(|tx| {
            for (&key, &value) in &model {
                store.put(tx, key, value)?;
            }
            Ok(())
        })
        .unwrap();

        // Every pair of the keys and their neighbours, `lo > hi` included,
        // and windows of `SHARDS − 1`, `SHARDS` and `SHARDS + 1` whole and
        // trimmed blocks, on both sides of the switch to the wide path.
        let mut points: Vec<i64> = model
            .keys()
            .flat_map(|&key| [key.saturating_sub(1), key, key.saturating_add(1)])
            .collect();
        points.sort_unstable();
        points.dedup();
        let mut windows: Vec<(i64, i64)> = points
            .iter()
            .flat_map(|&lo| points.iter().map(move |&hi| (lo, hi)))
            .collect();
        for blocks in [SHARDS - 1, SHARDS, SHARDS + 1] {
            for first in [-6, -2, -1, 0, 3, 1 << 22] {
                let (lo, hi) = (first * BLOCK, (first + blocks) * BLOCK - 1);
                windows.extend([(lo, hi), (lo + 1, hi - 1), (lo - 1, hi), (lo, hi + 1)]);
            }
        }

        let expect = |lo: i64, hi: i64| -> Vec<(i64, i64)> {
            if lo > hi {
                return Vec::new();
            }
            model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect()
        };
        for &(lo, hi) in &windows {
            let want = expect(lo, hi);
            let walks = store.index_walks();
            let pairs = ctx.atomically(|tx| store.range(tx, lo, hi)).unwrap();
            let got: Vec<(i64, i64)> = pairs
                .iter()
                .map(|(k, v)| (*k, v.as_int().unwrap()))
                .collect();
            assert_eq!(got, want, "RANGE [{lo}, {hi}]");
            let sum = want
                .iter()
                .fold(0i64, |total, (_, v)| total.wrapping_add(*v));
            assert_eq!(
                ctx.atomically(|tx| store.sum(tx, lo, hi)).unwrap(),
                Ok((sum, want.len())),
                "SUM [{lo}, {hi}]"
            );
            let one_each = u64::from(lo <= hi);
            assert_eq!(store.index_walks() - walks, 2 * one_each, "[{lo}, {hi}]");

            // The block walk alone is right at any width its loop can
            // finish, also where a tree owns two or more of its blocks.
            let blocks = i128::from(hi >> BLOCK_BITS) - i128::from(lo >> BLOCK_BITS) + 1;
            if blocks <= 4 * i128::from(SHARDS) {
                let keys = ctx.atomically(|tx| store.block_walk(tx, lo, hi)).unwrap();
                assert!(
                    keys.iter().copied().eq(want.iter().map(|(k, _)| *k)),
                    "block walk [{lo}, {hi}]: {keys:?}"
                );
            }
        }

        let walks = store.index_walks();
        let dump = ctx.atomically(|tx| store.dump(tx)).unwrap();
        assert!(dump
            .iter()
            .map(|(k, v)| (*k, v.as_int().unwrap()))
            .eq(model.iter().map(|(k, v)| (*k, *v))));
        assert_eq!(ctx.atomically(|tx| store.len(tx)).unwrap(), model.len());
        assert_eq!(
            store.index_walks() - walks,
            2,
            "one walk for dump, one for len"
        );
        store.assert_index_matches_cells(&stm);
    }

    #[test]
    fn concurrent_first_touch_of_one_key_agrees_on_the_cell() {
        use std::sync::Arc;
        let stm = Arc::new(Stm::default());
        let store = Arc::new(KvStore::new(4));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let stm = Arc::clone(&stm);
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    let mut ctx = stm.thread();
                    for _ in 0..250 {
                        ctx.atomically(|tx| store.add(tx, 12345, 1))
                            .unwrap()
                            .unwrap();
                    }
                });
            }
        });
        let mut ctx = stm.thread();
        assert_eq!(
            ctx.atomically(|tx| store.get(tx, 12345)).unwrap(),
            int(1000),
            "increments through a racing first-touch cell must not be lost"
        );
    }

    #[test]
    fn a_scan_holds_its_shard_table_once_per_block_run() {
        let stm = Stm::default();
        let store = KvStore::new(4);
        let mut ctx = stm.thread();
        ctx.atomically(|tx| {
            for key in 0..1_536 {
                store.put(tx, key, key)?;
            }
            Ok(())
        })
        .unwrap();
        // (table holds, keys found) of one transaction.
        let mut holds = |op: &dyn Fn(&mut Txn<'_>) -> TxResult<usize>| {
            let before = table_holds();
            let found = ctx.atomically(op).unwrap();
            (table_holds() - before, found)
        };
        let store = &store;
        let range = |lo, hi| move |tx: &mut Txn<'_>| Ok(store.range(tx, lo, hi)?.len());
        assert_eq!(holds(&range(0, 255)), (1, 256), "RANGE in one block");
        assert_eq!(
            holds(&range(900, 1_155)),
            (2, 256),
            "RANGE across a block edge"
        );
        let sum = |tx: &mut Txn<'_>| Ok(store.sum(tx, 0, 255)?.unwrap().1);
        assert_eq!(holds(&sum), (1, 256), "SUM in one block");
        let get = |tx: &mut Txn<'_>| Ok(usize::from(store.get(tx, 5)?.is_some()));
        assert_eq!(holds(&get), (1, 1), "hit GET");
        let dump = |tx: &mut Txn<'_>| Ok(store.dump(tx)?.len());
        assert_eq!(holds(&dump), (2, 1_536), "dump over two blocks");
    }

    #[test]
    fn scans_after_a_delete_in_the_same_transaction_match_the_model() {
        use std::collections::BTreeMap;
        let stm = Stm::default();
        let store = KvStore::new(4);
        let mut ctx = stm.thread();
        let mut model = BTreeMap::new();
        let puts: Vec<ModelOp> = (0..8)
            .chain(1_020..1_028)
            .map(|key| ModelOp::Put(key, Value::Int(key)))
            .collect();
        commit_and_compare(&store, &mut ctx, &mut model, &puts);
        // The window keys this transaction deletes carry its own tombstone
        // until it commits, the re-PUT one included.
        let ops = [
            ModelOp::Del(3),
            ModelOp::Range(0, 2_000),
            ModelOp::Sum(0, 2_000),
            ModelOp::Put(3, Value::Int(33)),
            ModelOp::Range(0, 7),
            ModelOp::Del(1_024),
            ModelOp::Range(1_000, 1_100),
            ModelOp::Sum(1_000, 1_100),
            ModelOp::Del(3),
            ModelOp::Sum(0, 7),
        ];
        commit_and_compare(&store, &mut ctx, &mut model, &ops);
        commit_and_compare(&store, &mut ctx, &mut model, &[ModelOp::Range(0, 2_000)]);
        store.assert_index_matches_cells(&stm);
        assert_eq!(store.cells_live(), model.len());
    }

    /// Applies `ops` to `model` and to the store in one transaction, which
    /// commits.
    fn commit_and_compare(
        store: &KvStore,
        ctx: &mut stm_core::ThreadCtx<'_>,
        model: &mut std::collections::BTreeMap<i64, Value>,
        ops: &[ModelOp],
    ) {
        let mut after = model.clone();
        ctx.atomically(|tx| {
            after = model.clone();
            for op in ops {
                apply_and_compare(store, tx, &mut after, op)?;
            }
            Ok(())
        })
        .unwrap();
        *model = after;
    }

    #[test]
    fn scans_match_the_model_while_a_committed_delete_awaits_its_unlink() {
        use std::collections::BTreeMap;
        use std::sync::Mutex as StdMutex;
        let stm = Arc::new(Stm::default());
        let store = Arc::new(KvStore::new(4));
        let mut ctx = stm.thread();
        let mut model = BTreeMap::new();
        let puts: Vec<ModelOp> = (0..8)
            .chain(1_020..1_028)
            .map(|key| ModelOp::Put(key, Value::Int(key)))
            .collect();
        commit_and_compare(&store, &mut ctx, &mut model, &puts);
        let deleted = [3, 1_024];
        let seen = Arc::new(StdMutex::new(Vec::new()));
        ctx.atomically(|tx| {
            let (scan_stm, scan_store, seen) =
                (Arc::clone(&stm), Arc::clone(&store), Arc::clone(&seen));
            // Registered before the deletes' own unlinks, so it runs first:
            // both deletes have committed and both tombstones are linked.
            tx.defer_on_commit(move || {
                let (stm, store) = (scan_stm, scan_store);
                let mut ctx = stm.thread();
                let mut model = BTreeMap::new();
                for key in (0..8)
                    .chain(1_020..1_028)
                    .filter(|key| !deleted.contains(key))
                {
                    model.insert(key, Value::Int(key));
                }
                let mut seen = seen.lock().unwrap();
                seen.push(store.cells_live());
                let scans = [
                    ModelOp::Range(0, 2_000),
                    ModelOp::Sum(0, 2_000),
                    ModelOp::Range(1_000, 1_100),
                    ModelOp::Sum(2, 4),
                ];
                commit_and_compare(&store, &mut ctx, &mut model, &scans);
                seen.push(store.cells_live());
            });
            for key in deleted {
                store.del(tx, key)?;
            }
            Ok(())
        })
        .unwrap();
        for key in deleted {
            model.remove(&key);
        }
        assert_eq!(
            *seen.lock().unwrap(),
            [model.len() + 2, model.len() + 2],
            "the tombstones stay linked through the scans"
        );
        assert_eq!(
            store.cells_live(),
            model.len(),
            "then the deleter unlinks them"
        );
        assert_eq!(store.cells_released(), 2);
        store.assert_index_matches_cells(&stm);
    }

    /// One store operation of the model test.
    #[derive(Debug, Clone)]
    enum ModelOp {
        Get(i64),
        Put(i64, Value),
        Add(i64, i64),
        Del(i64),
        Range(i64, i64),
        Sum(i64, i64),
    }

    /// Applies `op` to the store inside `tx` and to `model`, asserting both
    /// give the same answer.
    fn apply_and_compare(
        store: &KvStore,
        tx: &mut Txn<'_>,
        model: &mut std::collections::BTreeMap<i64, Value>,
        op: &ModelOp,
    ) -> TxResult<()> {
        let window = |model: &std::collections::BTreeMap<i64, Value>, lo: i64, hi: i64| {
            let mut pairs = Vec::new();
            if lo <= hi {
                pairs.extend(model.range(lo..=hi).map(|(k, v)| (*k, v.clone())));
            }
            pairs
        };
        match op {
            ModelOp::Get(key) => {
                assert_eq!(store.get(tx, *key)?, model.get(key).cloned(), "{op:?}")
            }
            ModelOp::Put(key, value) => {
                // Alternate the two spellings of PUT.
                let expected = model.insert(*key, value.clone());
                if key % 2 == 0 {
                    assert_eq!(store.put(tx, *key, value.clone())?, expected, "{op:?}");
                } else {
                    assert_eq!(
                        store.set(tx, *key, value.clone())?,
                        expected.is_some(),
                        "{op:?}"
                    );
                }
            }
            ModelOp::Add(key, delta) => {
                let expected = match model.get(key) {
                    None => Ok(*delta),
                    Some(Value::Int(v)) => Ok(v.wrapping_add(*delta)),
                    Some(other) => Err(TypeMismatch {
                        key: *key,
                        found: other.type_name(),
                    }),
                };
                if let Ok(next) = expected {
                    model.insert(*key, Value::Int(next));
                }
                assert_eq!(store.add(tx, *key, *delta)?, expected, "{op:?}");
            }
            ModelOp::Del(key) => {
                let expected = model.remove(key);
                if key % 2 == 0 {
                    assert_eq!(store.del(tx, *key)?, expected, "{op:?}");
                } else {
                    assert_eq!(store.unset(tx, *key)?, expected.is_some(), "{op:?}");
                }
            }
            ModelOp::Range(lo, hi) => {
                assert_eq!(
                    store.range(tx, *lo, *hi)?,
                    window(model, *lo, *hi),
                    "{op:?}"
                )
            }
            ModelOp::Sum(lo, hi) => {
                let pairs = window(model, *lo, *hi);
                let mut expected = Ok((0i64, pairs.len()));
                for (key, value) in &pairs {
                    match (value, &mut expected) {
                        (Value::Int(v), Ok((total, _))) => *total = total.wrapping_add(*v),
                        (other, Ok(_)) => {
                            expected = Err(TypeMismatch {
                                key: *key,
                                found: other.type_name(),
                            })
                        }
                        (_, Err(_)) => {}
                    }
                }
                assert_eq!(store.sum(tx, *lo, *hi)?, expected, "{op:?}");
            }
        }
        Ok(())
    }

    #[test]
    fn seeded_ops_match_a_btreemap_model_and_keep_index_and_cells_in_step() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;
        use stm_cm::ManagerKind;

        // Small, huge and negative keys, few enough that every op often
        // finds its key in every state: present, vacant, never linked,
        // released. The keys on both sides of block edges make windows of
        // one to six blocks, narrow and wide, beside the far ones.
        let keys: Vec<i64> = (0..12)
            .chain((1 << 32)..(1 << 32) + 12)
            .chain(-4..0)
            .chain([1_023, 1_024, 3_071, 3_072, 4_096, 5_119])
            .collect();
        let managers = [
            ManagerKind::Greedy,
            ManagerKind::Karma,
            ManagerKind::Polka,
            ManagerKind::Timestamp,
        ];
        for (m, kind) in managers.into_iter().enumerate() {
            let seed = 0x0057_04e5 + m as u64;
            let mut rng = SmallRng::seed_from_u64(seed);
            let stm = Stm::builder().manager(kind.factory()).build();
            let store = KvStore::new(4);
            let mut ctx = stm.thread();
            let mut model: BTreeMap<i64, Value> = BTreeMap::new();

            for step in 0..800 {
                let mut ops = Vec::new();
                for _ in 0..rng.gen_range(1..=4usize) {
                    let key = keys[rng.gen_range(0..keys.len())];
                    let value = match rng.gen_range(0..8u32) {
                        0 => Value::Str(format!("s{step}")),
                        1 => Value::Bytes(vec![step as u8; 3]),
                        _ => Value::Int(rng.gen_range(-50i64..50)),
                    };
                    let lo = keys[rng.gen_range(0..keys.len())];
                    let hi = keys[rng.gen_range(0..keys.len())];
                    match rng.gen_range(0..10u32) {
                        0 | 1 => ops.push(ModelOp::Get(key)),
                        2 | 3 => ops.push(ModelOp::Put(key, value)),
                        4 => ops.push(ModelOp::Add(key, rng.gen_range(-9i64..=9))),
                        5 => ops.push(ModelOp::Del(key)),
                        6 => ops.push(ModelOp::Range(lo, hi)),
                        7 => ops.push(ModelOp::Sum(lo, hi)),
                        // The tombstone's own-transaction cases.
                        8 => ops.extend([ModelOp::Del(key), ModelOp::Put(key, value)]),
                        _ => ops.extend([ModelOp::Del(key), ModelOp::Get(key)]),
                    }
                }
                let abort = rng.gen_range(0..8u32) == 0;
                let mut after = model.clone();
                let outcome = ctx.atomically(|tx| {
                    after = model.clone();
                    for op in &ops {
                        apply_and_compare(&store, tx, &mut after, op)?;
                    }
                    if abort {
                        return tx.abort();
                    }
                    Ok(())
                });
                assert_eq!(
                    outcome.is_err(),
                    abort,
                    "{kind}/seed {seed:#x}/step {step}: {ops:?}"
                );
                if !abort {
                    model = after;
                }

                store.assert_index_matches_cells(&stm);
                let dump = ctx.atomically(|tx| store.dump(tx)).unwrap();
                assert!(
                    dump.iter()
                        .cloned()
                        .eq(model.iter().map(|(k, v)| (*k, v.clone()))),
                    "{kind}/seed {seed:#x}/step {step}: store {dump:?} != model {model:?}"
                );
                // Exact after every transaction, not only at the end.
                assert_eq!(
                    store.cells_allocated() - store.cells_released(),
                    store.cells_live(),
                    "{kind}/seed {seed:#x}/step {step}: allocated − released = linked"
                );
            }
        }
    }
}
