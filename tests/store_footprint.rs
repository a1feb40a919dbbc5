//! Footprint gate for `KvStore`'s point operations: how many `TVar`s one
//! `GET`/`PUT`/`ADD`/`DEL` opens, counted by `ThreadCtx::atomically_traced`
//! (`TxRunReport::reads`/`writes`) on a 65,536-key store, in both cell
//! tiers. The paper prices a transaction by the objects it opens, so these
//! are the numbers the cell-first point path is held to. They are counts,
//! not times: single-threaded, they repeat exactly on any host.
//!
//! * hit `GET`, and a miss `GET` on a pre-allocated key: **1 read**;
//! * overwriting `PUT`, `ADD` on a present key: **the cell** (1 read,
//!   1 write) and no index open;
//! * creating `PUT`, hit `DEL`: the cell plus **one tree path** — exactly
//!   what `ShardedTxSet::insert`/`remove` of that key opens on a mirror
//!   index holding the same keys in the same shape;
//! * `GET`/`DEL` miss on a never-linked overflow key: **the tree path only**
//!   (`ShardedTxSet::contains`), no write, and no cell materialised — also
//!   after 10,000 of them.

use greedy_stm::core::stats::TxRunReport;
use greedy_stm::kv::Value;
use greedy_stm::prelude::*;
use greedy_stm::ThreadCtx;

const KEYS: i64 = 65_536;
const SHARDS: usize = 16;
/// Where the overflow tier's keys start: far outside any pre-allocated range.
const OVERFLOW_BASE: i64 = 1 << 32;
/// A shard holds 4,096 keys; a root-to-leaf walk with its re-reads during
/// rebalancing stays far below this, a scan of the shard far above.
const PATH_READS_MAX: u64 = 256;
/// Probe offsets, spread over the keyspace and over the shards.
const PROBES: [i64; 6] = [0, 1, 4_097, 30_001, 50_000, 65_535];

/// A store holding `base..base + KEYS` and a bare index holding the same
/// keys inserted in the same order, so both trees have the same shape and
/// the mirror prices "one tree path" for any key.
struct Fixture {
    stm: Stm,
    store: KvStore,
    mirror: ShardedTxSet,
    base: i64,
}

impl Fixture {
    /// `prealloc` cells up front (0 = every key is an overflow key).
    fn new(prealloc: i64, base: i64) -> Fixture {
        let fixture = Fixture {
            stm: Stm::default(),
            store: KvStore::with_preallocated(SHARDS, prealloc),
            mirror: ShardedTxSet::rbtree(SHARDS),
            base,
        };
        let mut ctx = fixture.stm.thread();
        for chunk in (base..base + KEYS).collect::<Vec<_>>().chunks(512) {
            ctx.atomically(|tx| {
                for &key in chunk {
                    fixture.store.put(tx, key, key)?;
                    fixture.mirror.insert(tx, key)?;
                }
                Ok(())
            })
            .unwrap();
        }
        drop(ctx);
        fixture
    }
}

/// Runs `body` as one transaction; returns its result, its report and how
/// many calls into the index the store made.
fn traced<T>(
    ctx: &mut ThreadCtx<'_>,
    store: &KvStore,
    mut body: impl FnMut(&mut Txn<'_>) -> TxResult<T>,
) -> (T, TxRunReport, u64) {
    let walks = store.index_walks();
    let (result, report) = ctx.atomically_traced(&mut body);
    assert_eq!(report.attempts, 1, "single-threaded: no retries");
    (result.unwrap(), report, store.index_walks() - walks)
}

/// The `(reads, writes)` of one operation on the mirror index.
fn mirror_cost(
    ctx: &mut ThreadCtx<'_>,
    mut op: impl FnMut(&mut Txn<'_>) -> TxResult<bool>,
) -> (u64, u64) {
    let (result, report) = ctx.atomically_traced(&mut op);
    result.unwrap();
    (report.reads, report.writes)
}

fn opens(report: &TxRunReport) -> (u64, u64) {
    (report.reads, report.writes)
}

/// The counts that hold in either tier, for present keys and for keys this
/// test creates and removes again.
fn check_point_ops(fixture: &Fixture, tier: &str) {
    let Fixture {
        stm,
        store,
        mirror,
        base,
    } = fixture;
    let mut ctx = stm.thread();
    for offset in PROBES {
        let key = base + offset;
        let what = format!("{tier} key {key}");

        let (value, report, walks) = traced(&mut ctx, store, |tx| store.get(tx, key));
        assert_eq!(value, Some(Value::Int(key)), "{what}");
        assert_eq!((opens(&report), walks), ((1, 0), 0), "GET hit, {what}");

        let (previous, report, walks) = traced(&mut ctx, store, |tx| store.put(tx, key, -key));
        assert_eq!(previous, Some(Value::Int(key)), "{what}");
        assert_eq!(
            (opens(&report), walks),
            ((1, 1), 0),
            "PUT overwrite, {what}"
        );

        let (present, report, walks) = traced(&mut ctx, store, |tx| store.set(tx, key, 7));
        assert!(present, "{what}");
        assert_eq!(
            (opens(&report), walks),
            ((1, 1), 0),
            "set overwrite, {what}"
        );

        let (sum, report, walks) = traced(&mut ctx, store, |tx| store.add(tx, key, 3));
        assert_eq!(sum, Ok(10), "{what}");
        assert_eq!((opens(&report), walks), ((1, 1), 0), "ADD present, {what}");

        // DEL hit: the cell (read + tombstone/vacate) and one remove path.
        let (path_reads, path_writes) = mirror_cost(&mut ctx, |tx| mirror.remove(tx, key));
        let (removed, report, walks) = traced(&mut ctx, store, |tx| store.del(tx, key));
        assert_eq!(removed, Some(Value::Int(10)), "{what}");
        assert_eq!(
            (opens(&report), walks),
            ((1 + path_reads, 1 + path_writes), 1),
            "DEL hit, {what}"
        );
        assert!(
            path_reads < PATH_READS_MAX,
            "a path, not a scan: {path_reads}"
        );

        // PUT new: the cell (read + write) and one insert path.
        let (path_reads, path_writes) = mirror_cost(&mut ctx, |tx| mirror.insert(tx, key));
        let (previous, report, walks) = traced(&mut ctx, store, |tx| store.put(tx, key, key));
        assert_eq!(previous, None, "{what}");
        assert_eq!(
            (opens(&report), walks),
            ((1 + path_reads, 1 + path_writes), 1),
            "PUT new, {what}"
        );
        assert!(
            path_reads < PATH_READS_MAX,
            "a path, not a scan: {path_reads}"
        );

        // ADD creating the key costs what PUT new costs.
        mirror_cost(&mut ctx, |tx| mirror.remove(tx, key));
        traced(&mut ctx, store, |tx| store.unset(tx, key));
        let (path_reads, path_writes) = mirror_cost(&mut ctx, |tx| mirror.insert(tx, key));
        let (sum, report, walks) = traced(&mut ctx, store, |tx| store.add(tx, key, key));
        assert_eq!(sum, Ok(key), "{what}");
        assert_eq!(
            (opens(&report), walks),
            ((1 + path_reads, 1 + path_writes), 1),
            "ADD new, {what}"
        );
    }
}

#[test]
fn preallocated_tier_point_ops_open_the_cell_and_at_most_one_tree_path() {
    // 64 spare pre-allocated cells stay absent: the miss probes.
    let fixture = Fixture::new(KEYS + 64, 0);
    check_point_ops(&fixture, "prealloc");

    let Fixture { stm, store, .. } = &fixture;
    let mut ctx = stm.thread();
    let allocated = store.cells_allocated();
    for key in KEYS..KEYS + 64 {
        let (value, report, walks) = traced(&mut ctx, store, |tx| store.get(tx, key));
        assert_eq!(value, None);
        assert_eq!(
            (opens(&report), walks),
            ((1, 0), 0),
            "GET miss, prealloc key {key}"
        );
        let (removed, report, walks) = traced(&mut ctx, store, |tx| store.del(tx, key));
        assert_eq!(removed, None);
        assert_eq!(
            (opens(&report), walks),
            ((1, 0), 0),
            "DEL miss, prealloc key {key}"
        );
    }
    assert_eq!(store.cells_allocated(), allocated);
}

#[test]
fn overflow_tier_point_ops_open_the_cell_and_at_most_one_tree_path() {
    let fixture = Fixture::new(0, OVERFLOW_BASE);
    check_point_ops(&fixture, "overflow");

    // Misses on never-linked keys: the index path is the only witness there
    // is, nothing is written, and no cell appears.
    let Fixture {
        stm,
        store,
        mirror,
        base,
    } = &fixture;
    let mut ctx = stm.thread();
    let allocated = store.cells_allocated();
    let linked = store.cells_live();
    for i in 0..10_000 {
        // Absent keys on both sides of and inside the present range's shards.
        let key = match i % 3 {
            0 => base + KEYS + i,
            1 => base - 1 - i,
            _ => i64::MIN + i,
        };
        let path = mirror_cost(&mut ctx, |tx| mirror.contains(tx, key));
        assert_eq!(path.1, 0);
        let (value, report, walks) = traced(&mut ctx, store, |tx| store.get(tx, key));
        assert_eq!(value, None);
        assert_eq!(
            (opens(&report), walks),
            (path, 1),
            "GET miss, unlinked key {key}"
        );
        let (removed, report, walks) = traced(&mut ctx, store, |tx| store.unset(tx, key));
        assert!(!removed);
        assert_eq!(
            (opens(&report), walks),
            (path, 1),
            "DEL miss, unlinked key {key}"
        );
    }
    assert_eq!(
        store.cells_allocated(),
        allocated,
        "a miss must not materialise a cell"
    );
    assert_eq!(store.cells_live(), linked);
}
