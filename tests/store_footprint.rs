//! Footprint gate for `KvStore`: how many `TVar`s one operation opens,
//! counted by `ThreadCtx::atomically_traced` (`TxRunReport::reads`/`writes`)
//! on a 65,536-key store, for small keys and far-out keys alike. The paper prices a transaction
//! by the objects it opens, so these are the numbers the cell-first point
//! path and the chunked index are held to. They are counts, not times:
//! single-threaded, they repeat exactly on any host.
//!
//! With `h` the height of the key's shard tree (asserted ≤ 3 here: 4,096
//! keys a shard in leaves and inner nodes of ≤ 64):
//!
//! * hit `GET`: **1 read**;
//! * overwriting `PUT`, `ADD` on a present key: **the cell** (1 read,
//!   1 write) and no index open;
//! * creating `PUT`/`ADD`: **(1 + h, 2)** — the cell, one root-to-leaf path,
//!   the leaf — and one more write per level that splits;
//! * hit `DEL`: **(1 + h, 2)**, and one more read (the sibling) and write
//!   (the parent) per level that merges;
//! * `GET`/`DEL` miss on a never-linked key: **(h, 0)**, and no
//!   cell materialised — also after 10,000 of them;
//! * a 256-key `RANGE` over a half-full stripe: at most 12 index objects
//!   (the window lies in one 1,024-key block, so one tree: its root, ≤ 2
//!   inner nodes and the leaves) and one cell per pair.
//!
//! Each is also held equal to what `TxChunkedSet::insert`/`remove`/
//! `contains`/`range` opens on a mirror index: one bare tree per shard, each
//! key routed by `KvStore::shard_of`, built in the same order. The last
//! test but one shows the conflict surface that buys: a split writes its
//! leaf and the leaf's parent, so a range parked elsewhere in the shard is
//! not disturbed, and one parked on that leaf is. The last holds the
//! partition's spread: a dense 65,536-key store puts exactly 4,096 keys in
//! each of the 16 shards.

use std::sync::mpsc;

use greedy_stm::core::stats::TxRunReport;
use greedy_stm::kv::Value;
use greedy_stm::prelude::*;
use greedy_stm::ThreadCtx;

const KEYS: i64 = 65_536;
const SHARDS: usize = 16;
/// The far-out fixture's first key (the repo benchmark's key base).
const FAR_BASE: i64 = 1 << 32;
/// The tallest a shard's tree may be at 4,096 keys.
const HEIGHT_MAX: u64 = 3;
/// Probe offsets, spread over the keyspace and over the shards.
const PROBES: [i64; 6] = [0, 1, 4_097, 30_001, 50_000, 65_535];

/// A store holding `base..base + KEYS` and a bare index holding the same
/// keys inserted in the same order into the same shards, so both have trees
/// of the same shape and the mirror prices "one tree path" for any key.
struct Fixture {
    stm: Stm,
    store: KvStore,
    /// One tree per shard; `mirror[store.shard_of(k)]` holds key `k`.
    mirror: Vec<TxChunkedSet>,
    base: i64,
}

impl Fixture {
    fn new(base: i64) -> Fixture {
        let fixture = Fixture {
            // Aggressive, not the default greedy: the split test parks an
            // older range reader inside its transaction while younger PUTs
            // write the leaf it read, and greedy's Rule 2 would have each
            // PUT wait for that reader until it finished — which it cannot
            // do while parked.
            stm: Stm::builder()
                .manager(ManagerKind::Aggressive.factory())
                .build(),
            store: KvStore::new(SHARDS),
            mirror: (0..SHARDS).map(|_| TxChunkedSet::new()).collect(),
            base,
        };
        let mut ctx = fixture.stm.thread();
        for chunk in (base..base + KEYS).collect::<Vec<_>>().chunks(512) {
            ctx.atomically(|tx| {
                for &key in chunk {
                    fixture.store.put(tx, key, key)?;
                    fixture.tree(key).insert(tx, key)?;
                }
                Ok(())
            })
            .unwrap();
        }
        drop(ctx);
        fixture
    }

    /// The mirror tree holding `key`.
    fn tree(&self, key: i64) -> &TxChunkedSet {
        &self.mirror[self.store.shard_of(key)]
    }

    /// Height of the tree holding `key`, asserted to be at most `HEIGHT_MAX`.
    fn height(&self, ctx: &mut ThreadCtx<'_>, key: i64) -> u64 {
        let tree = self.tree(key);
        let height = ctx.atomically(|tx| tree.height(tx)).unwrap() as u64;
        assert!((2..=HEIGHT_MAX).contains(&height), "height {height}");
        height
    }

    /// The mirror's keys in `lo..=hi`, ascending: each run of consecutive
    /// keys of one shard asked of that shard's tree, in key order — what the
    /// store opens for a window of fewer blocks than shards.
    fn mirror_range(&self, tx: &mut Txn<'_>, lo: i64, hi: i64) -> TxResult<Vec<i64>> {
        let mut keys = Vec::new();
        let mut run_lo = lo;
        for key in lo..=hi {
            if key == hi || self.store.shard_of(key + 1) != self.store.shard_of(run_lo) {
                keys.extend(self.tree(run_lo).range(tx, run_lo, key)?);
                run_lo = key + 1;
            }
        }
        Ok(keys)
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

/// A store operation that changed membership opened the cell (read and
/// write) plus what the same index call cost on the mirror, in one walk.
fn assert_cell_plus_path(report: &TxRunReport, walks: u64, path: (u64, u64), what: &str) {
    assert_eq!(
        (opens(report), walks),
        ((1 + path.0, 1 + path.1), 1),
        "{what}"
    );
}

/// The counts for present keys and for keys this test creates and removes
/// again; `tier` names the fixture in a failure.
fn check_point_ops(fixture: &Fixture, tier: &str) {
    let Fixture { stm, store, .. } = fixture;
    let mut ctx = stm.thread();
    for offset in PROBES {
        let key = fixture.base + offset;
        let what = format!("{tier} key {key}");
        let h = fixture.height(&mut ctx, key);

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

        // The fixture's leaves hold 32 or more keys, so removing one key and
        // putting it back neither merges nor splits: exactly one path and
        // the leaf, beside the cell.
        let path = mirror_cost(&mut ctx, |tx| fixture.tree(key).remove(tx, key));
        assert_eq!(path, (h, 1), "remove path, {what}");
        let (removed, report, walks) = traced(&mut ctx, store, |tx| store.del(tx, key));
        assert_eq!(removed, Some(Value::Int(10)), "{what}");
        assert_cell_plus_path(&report, walks, path, &format!("DEL hit, {what}"));

        let path = mirror_cost(&mut ctx, |tx| fixture.tree(key).insert(tx, key));
        assert_eq!(path, (h, 1), "insert path, {what}");
        let (previous, report, walks) = traced(&mut ctx, store, |tx| store.put(tx, key, key));
        assert_eq!(previous, None, "{what}");
        assert_cell_plus_path(&report, walks, path, &format!("PUT new, {what}"));

        // ADD creating the key costs what PUT new costs.
        mirror_cost(&mut ctx, |tx| fixture.tree(key).remove(tx, key));
        traced(&mut ctx, store, |tx| store.unset(tx, key));
        let path = mirror_cost(&mut ctx, |tx| fixture.tree(key).insert(tx, key));
        assert_eq!(path, (h, 1), "insert path, {what}");
        let (sum, report, walks) = traced(&mut ctx, store, |tx| store.add(tx, key, key));
        assert_eq!(sum, Ok(key), "{what}");
        assert_cell_plus_path(&report, walks, path, &format!("ADD new, {what}"));
    }
    check_splits_and_merges(fixture, tier);
    check_range(fixture, tier);
}

/// Creates 40 keys just below the fixture's lowest key of `base`'s shard —
/// all into that shard's first leaf, which must split exactly once — then
/// deletes them and the 40 keys from `base` on, which must merge leaves.
/// Every step costs the cell plus the mirror's path, and the path stays
/// within one more write per level that split, one more read and write per
/// level that merged.
fn check_splits_and_merges(fixture: &Fixture, tier: &str) {
    let Fixture { stm, store, .. } = fixture;
    let mut ctx = stm.thread();
    let h = fixture.height(&mut ctx, fixture.base);

    // The shard's keys below `base` lie a whole round of blocks down, in
    // a block the fixture left empty.
    let shard = store.shard_of(fixture.base);
    let top = (1..)
        .map(|d| fixture.base - d)
        .find(|&key| store.shard_of(key) == shard)
        .unwrap();
    let below: Vec<i64> = (top - 39..=top).collect();
    assert!(
        below.iter().all(|&key| store.shard_of(key) == shard),
        "{tier}"
    );

    let mut splits = 0;
    for &key in below.iter().rev() {
        let what = format!("{tier} key {key}");
        let path = mirror_cost(&mut ctx, |tx| fixture.tree(key).insert(tx, key));
        assert_eq!(path.0, h, "insert reads one path, {what}");
        assert!(
            (1..=h).contains(&path.1),
            "insert writes {}, {what}",
            path.1
        );
        splits += path.1 - 1;
        let (previous, report, walks) = traced(&mut ctx, store, |tx| store.put(tx, key, key));
        assert_eq!(previous, None, "{what}");
        assert_cell_plus_path(&report, walks, path, &format!("PUT new, {what}"));
    }
    assert_eq!(
        splits, 1,
        "{tier}: 32 + 40 keys into one leaf split it once"
    );
    assert_eq!(fixture.height(&mut ctx, fixture.base), h);

    let mut merges = 0;
    for key in below.into_iter().chain(fixture.base..fixture.base + 40) {
        let what = format!("{tier} key {key}");
        let path = mirror_cost(&mut ctx, |tx| fixture.tree(key).remove(tx, key));
        assert!(
            (h..2 * h).contains(&path.0),
            "remove reads {}, {what}",
            path.0
        );
        assert!(
            (1..=h).contains(&path.1),
            "remove writes {}, {what}",
            path.1
        );
        assert!(
            path.1 - 1 <= path.0 - h,
            "a merge reads the sibling, {what}"
        );
        merges += path.1 - 1;
        let (present, report, walks) = traced(&mut ctx, store, |tx| store.unset(tx, key));
        assert!(present, "{what}");
        assert_cell_plus_path(&report, walks, path, &format!("DEL hit, {what}"));
    }
    assert!(
        merges >= 1,
        "{tier}: emptying two leaves' worth of keys merged none"
    );
}

/// A 256-key `RANGE` over a stripe with every other run of 16 keys deleted:
/// at most 12 index objects, one cell per pair, one walk.
fn check_range(fixture: &Fixture, tier: &str) {
    let Fixture { stm, store, .. } = fixture;
    let mut ctx = stm.thread();
    let stride = 16;
    let lo = fixture.base + 20_000;
    let gone: Vec<i64> = (lo - 256..lo + 512)
        .filter(|key| (key / stride) % 2 == 1)
        .collect();
    ctx.atomically(|tx| {
        for &key in &gone {
            assert!(store.unset(tx, key)?);
            assert!(fixture.tree(key).remove(tx, key)?);
        }
        Ok(())
    })
    .unwrap();

    for lo in [lo, lo + 7, lo + 100] {
        let hi = lo + 255;
        let (keys, index) = ctx.atomically_traced(|tx| fixture.mirror_range(tx, lo, hi));
        let keys = keys.unwrap();
        assert_eq!(keys.len(), 128, "{tier}: half of [{lo}, {hi}]");
        assert!(
            index.reads <= 12,
            "{tier}: RANGE [{lo}, {hi}] opened {} index objects",
            index.reads
        );
        let (pairs, report, walks) = traced(&mut ctx, store, |tx| store.range(tx, lo, hi));
        assert!(pairs.iter().map(|(key, _)| key).eq(keys.iter()), "{tier}");
        assert_eq!(
            (opens(&report), walks),
            ((index.reads + 128, 0), 1),
            "{tier}: RANGE [{lo}, {hi}]"
        );
        let (sum, report, walks) = traced(&mut ctx, store, |tx| store.sum(tx, lo, hi));
        assert_eq!(sum, Ok((keys.iter().sum(), 128)), "{tier}");
        assert_eq!(
            (opens(&report), walks),
            ((index.reads + 128, 0), 1),
            "{tier}: SUM [{lo}, {hi}]"
        );
    }
}

#[test]
fn overflow_tier_point_ops_open_the_cell_and_at_most_one_tree_path() {
    // One cell table: the counts are the same for keys from 0 as for keys
    // from 2^32, and a fresh store has allocated nothing.
    assert_eq!(KvStore::new(SHARDS).cells_allocated(), 0);
    for (base, name) in [(0, "small"), (FAR_BASE, "far")] {
        let fixture = Fixture::new(base);
        assert_eq!(fixture.store.cells_allocated() as i64, KEYS, "{name}");
        check_point_ops(&fixture, name);

        // Misses on never-linked keys: the index path is the only witness
        // there is, nothing is written, and no cell appears.
        let Fixture { stm, store, .. } = &fixture;
        let mut ctx = stm.thread();
        let allocated = store.cells_allocated();
        let linked = store.cells_live();
        for i in 0..10_000 {
            // Absent keys on both sides of and inside the present range's
            // shards.
            let key = match i % 3 {
                0 => base + KEYS + i,
                1 => base - 1_000 - i,
                _ => i64::MIN + i,
            };
            let path = (fixture.height(&mut ctx, key), 0);
            let (value, report, walks) = traced(&mut ctx, store, |tx| store.get(tx, key));
            assert_eq!(value, None);
            assert_eq!(
                (opens(&report), walks),
                (path, 1),
                "GET miss, unlinked {name} key {key}"
            );
            let (removed, report, walks) = traced(&mut ctx, store, |tx| store.unset(tx, key));
            assert!(!removed);
            assert_eq!(
                (opens(&report), walks),
                (path, 1),
                "DEL miss, unlinked {name} key {key}"
            );
        }
        assert_eq!(
            store.cells_allocated(),
            allocated,
            "{name}: a miss must not materialise a cell"
        );
        assert_eq!(store.cells_live(), linked, "{name}");
    }
}

/// Runs `store.range(lo, hi)` on its own thread and parks it inside the
/// transaction, reads taken, until `meanwhile` returns; then lets it commit
/// and returns its report. The closure parks on its first attempt only, so
/// an aborted range retries straight through.
fn range_parked_while(
    fixture: &Fixture,
    (lo, hi): (i64, i64),
    meanwhile: impl FnOnce(),
) -> TxRunReport {
    let Fixture { stm, store, .. } = fixture;
    let (parked_tx, parked_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut ctx = stm.thread();
            let mut first = true;
            let (pairs, report) = ctx.atomically_traced(|tx| {
                let pairs = store.range(tx, lo, hi)?;
                if std::mem::take(&mut first) {
                    parked_tx.send(()).expect("the test thread is listening");
                    release_rx.recv().expect("the test thread releases");
                }
                Ok(pairs)
            });
            assert!(!pairs.unwrap().is_empty());
            report
        });
        parked_rx.recv().expect("the reader parks");
        // Released by drop, so a panic in `meanwhile` fails the test instead
        // of hanging it.
        let parked = Release(release_tx);
        meanwhile();
        drop(parked);
        reader.join().expect("the reader finished")
    })
}

struct Release(mpsc::Sender<()>);

impl Drop for Release {
    fn drop(&mut self) {
        // The reader is gone already only if it panicked, which `join` reports.
        let _ = self.0.send(());
    }
}

/// Creates keys past the fixture's end, in `base`'s shard, until one of the
/// `PUT`s splits the shard's last leaf; returns every `PUT`'s report, that
/// one last.
fn put_until_split(fixture: &Fixture) -> Vec<TxRunReport> {
    let Fixture { stm, store, .. } = fixture;
    let mut ctx = stm.thread();
    let next = ctx
        .atomically(|tx| store.range(tx, fixture.base + KEYS, i64::MAX))
        .unwrap();
    let mut key = next
        .last()
        .map_or(fixture.base + KEYS, |(last, _)| last + 1);
    assert_eq!(store.shard_of(key), store.shard_of(fixture.base));
    let mut reports = Vec::new();
    while reports
        .last()
        .is_none_or(|put: &TxRunReport| put.writes == 2)
    {
        assert!(reports.len() <= 64, "65 keys into one leaf and no split");
        let (result, report) = ctx.atomically_traced(|tx| store.put(tx, key, key));
        assert_eq!(result.unwrap(), None);
        reports.push(report);
        key += 1;
    }
    reports
}

#[test]
fn a_split_disturbs_only_ranges_over_its_own_leaf() {
    let fixture = Fixture::new(FAR_BASE);
    let base = fixture.base;

    // A range over the first 256 keys reads their shard's root, first inner
    // node and first leaves. A split of that shard's last leaf — 120-odd
    // leaves and two inner nodes away — writes that leaf and its parent and
    // only reads the root: neither transaction notices the other.
    let mut puts = Vec::new();
    let range = range_parked_while(&fixture, (base, base + 255), || {
        puts = put_until_split(&fixture);
    });
    let split = puts.last().expect("the split ran");
    assert_eq!(
        split.writes, 3,
        "the cell, the leaf's left half, its parent: {split:?}"
    );
    assert_eq!(
        (range.attempts, range.conflicts),
        (1, 0),
        "far range: {range:?}"
    );
    for put in &puts {
        assert_eq!((put.attempts, put.conflicts), (1, 0), "far put: {put:?}");
    }

    // The converse: the range covers the leaf the keys go into. The
    // fixture's aggressive manager has the writer abort the parked reader
    // at once: every `PUT` commits in one attempt, the range retries once.
    let range = range_parked_while(&fixture, (base + KEYS - 256, i64::MAX), || {
        puts = put_until_split(&fixture);
    });
    assert!(
        puts.iter().any(|put| put.conflicts >= 1),
        "near puts: {puts:?}"
    );
    assert!(
        puts.iter().all(|put| put.attempts == 1),
        "near puts: {puts:?}"
    );
    assert_eq!(range.attempts, 2, "near range: {range:?}");
}

#[test]
fn dense_keys_spread_evenly_over_the_shards() {
    // 65,536 consecutive keys from a block edge are 64 whole blocks, dealt
    // four to a shard: a count, so a partition that skews fails exactly.
    let stm = Stm::default();
    let mut ctx = stm.thread();
    for base in [0, FAR_BASE] {
        let store = KvStore::new(SHARDS);
        for chunk in (base..base + KEYS).collect::<Vec<_>>().chunks(512) {
            ctx.atomically(|tx| {
                for &key in chunk {
                    store.put(tx, key, key)?;
                }
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(
            store.cells_per_shard(),
            vec![KEYS as usize / SHARDS; SHARDS],
            "base {base}"
        );
    }
}
