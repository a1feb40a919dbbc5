//! The write-ahead log: an append-only record stream with group commit.
//!
//! A [`Wal`] owns a directory of segment files (`wal-<first_seq>.log`) and
//! no thread. The commit path never touches the filesystem: the
//! [`Wal::commit_hook`] takes the log's one lock, runs the transaction's
//! commit CAS under it, and only if the CAS won assigns the next sequence
//! number and encodes the record straight into the pending batch (see
//! `stm_core::hook` for why one lock across the CAS and the append makes
//! log order extend serialization order). A lost CAS takes no sequence
//! number, so the log is gapless.
//!
//! The filesystem work is done by whoever waits. [`Wal::wait_durable`] is
//! the group commit: a waiter whose sequence number is not durable and that
//! finds no flush in flight leads one — it takes the pending batch, writes
//! it with one `write_all`, fsyncs, and publishes the durable watermark —
//! while the other waiters sleep until it publishes (see `group_commit.rs`).
//! One fsync thus covers every commit that arrived during the previous one,
//! and an acknowledged write is on disk. A commit nobody waits on is
//! written at the next wait, when 1,024 records are pending, or at
//! shutdown, so `durable_seq` can lag for unwaited commits.
//!
//! [`Wal::write_snapshot`] persists a point-in-time snapshot and prunes
//! segments the snapshot covers. Dropping the [`Wal`] flushes and fsyncs
//! everything outstanding.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use stm_core::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use stm_core::{CommitHook, CommitOp, CommitValue};

use crate::group_commit::{Batch, GroupCommit};
use crate::record;
use crate::recovery::{self, Recovered};
use crate::snapshot;

/// When the group commit calls `fsync`: after every batch it writes. The one variant is kept by name only because the repo benchmark
/// (`bench/`) names it; nothing selects between policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// After every drained batch — synchronous durability for callers that
    /// wait on [`Wal::wait_durable`].
    EveryCommit,
}

impl FsyncPolicy {
    /// Stable label used in experiment cells.
    pub fn label(&self) -> String {
        "every".to_string()
    }
}

/// Configuration of a [`Wal`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding segments and snapshots (created if absent).
    pub dir: PathBuf,
    /// Rotate to a new segment once the current one exceeds this size.
    pub segment_bytes: u64,
}

impl WalConfig {
    /// A config with 8 MiB segments.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            segment_bytes: 8 << 20,
        }
    }
}

/// A snapshot of the WAL's counters and positions, read in process;
/// [`Wal::metrics_text`] exposes the same figures as `stm_wal_*` series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Next sequence number to be assigned.
    pub next_seq: u64,
    /// Highest sequence number covered by an fsync.
    pub durable_seq: u64,
    /// Records appended since this `Wal` was opened.
    pub records: u64,
    /// Bytes written to segment files since open.
    pub bytes: u64,
    /// fsync calls issued since open.
    pub fsyncs: u64,
    /// Segment files currently on disk.
    pub segments: u64,
    /// Snapshots written since open.
    pub snapshots: u64,
    /// Sequence number of the latest snapshot (0 = none).
    pub last_snapshot_seq: u64,
    /// Records appended since the latest snapshot.
    pub records_since_snapshot: u64,
    /// Whether the log stopped on an unrecoverable filesystem error (see
    /// [`Wal::is_failed`]).
    pub failed: bool,
}

/// The WAL's instruments, all in one registry that [`Wal::metrics_text`]
/// renders into the serving layer's `METRICS` payload. Only the current
/// group-commit leader records the histograms, so their striping is idle;
/// `records` is bumped by every committing thread, which is what the
/// striping is for.
struct WalTelemetry {
    registry: metrics::Registry,
    /// Committed records per drained group-commit batch.
    batch_records: Arc<metrics::Histogram>,
    /// `sync_data` wall time, microseconds.
    fsync_us: Arc<metrics::Histogram>,
    /// Records pending when a flush writes its batch, sampled once per
    /// written batch. Named for the slot ring this lock replaced; the repo
    /// benchmark scrapes it under that name.
    ring_occupancy: Arc<metrics::Histogram>,
    /// Records appended since this `Wal` was opened.
    records: Arc<metrics::Counter>,
    /// Bytes written to segment files since open.
    bytes: Arc<metrics::Counter>,
    /// fsync calls issued since open, one per written batch.
    fsyncs: Arc<metrics::Counter>,
    /// Snapshots written since open.
    snapshots: Arc<metrics::Counter>,
}

impl WalTelemetry {
    fn new() -> WalTelemetry {
        let registry = metrics::Registry::new();
        WalTelemetry {
            batch_records: registry.histogram("stm_wal_batch_records", &[]),
            fsync_us: registry.histogram("stm_wal_fsync_us", &[]),
            ring_occupancy: registry.histogram("stm_wal_ring_occupancy", &[]),
            records: registry.counter("stm_wal_records_total", &[]),
            bytes: registry.counter("stm_wal_bytes_total", &[]),
            fsyncs: registry.counter("stm_wal_fsyncs_total", &[]),
            snapshots: registry.counter("stm_wal_snapshots_total", &[]),
            registry,
        }
    }
}

/// The backpressure bound: a committer that finds this many records
/// pending waits for or leads a flush before its commit CAS (cold path).
const MAX_PENDING: u64 = 1024;

struct Shared {
    dir: PathBuf,
    segment_bytes: u64,
    /// Sequence assignment, the pending batch, leader election and the
    /// durable watermark — all in [`crate::group_commit`], where the
    /// bounded concurrency models can drive them directly. Its sink is the
    /// open segment, which only the current leader touches.
    group: GroupCommit<Option<OpenSegment>>,
    segments: AtomicU64,
    last_snapshot_seq: AtomicU64,
    since_snapshot: AtomicU64,
    snapshot_in_progress: AtomicBool,
    telemetry: WalTelemetry,
}

impl Shared {
    /// The leader's step: appends `batch` to the open segment (rotating or
    /// opening one first) and fsyncs it. Any error fails the log for good
    /// (see [`GroupCommit`]): after a failed open a later batch would
    /// advance the watermark over records that are not on disk; after a
    /// failed write the segment may be torn mid-record; after a failed
    /// fsync the kernel may have dropped the dirty pages and cleared the
    /// error, so a later "successful" fsync proves nothing about them.
    fn persist(&self, segment: &mut Option<OpenSegment>, batch: &Batch) -> io::Result<()> {
        self.telemetry.batch_records.record(batch.records);
        self.telemetry.ring_occupancy.record(self.group.pending());
        if segment
            .as_ref()
            .is_some_and(|open| open.written >= self.segment_bytes)
        {
            // Rotate. Nothing in the full segment is unsynced: every batch
            // was fsynced by the flush that wrote it.
            *segment = None;
        }
        let open = match segment {
            Some(open) => open,
            None => {
                let open = open_segment(&self.dir, batch.first_seq)
                    .map_err(context("cannot open segment"))?;
                self.segments.fetch_add(1, Ordering::Relaxed);
                segment.insert(open)
            }
        };
        open.file
            .write_all(&batch.bytes)
            .map_err(context("segment write failed"))?;
        open.written += batch.bytes.len() as u64;
        self.telemetry.bytes.add(batch.bytes.len() as u64);
        let sync_started = Instant::now();
        open.file.sync_data().map_err(context("fsync failed"))?;
        self.telemetry
            .fsync_us
            .record(sync_started.elapsed().as_micros() as u64);
        self.telemetry.fsyncs.add(1);
        Ok(())
    }

    /// [`GroupCommit::wait`] with this log's segments as the sink.
    fn wait_durable(&self, seq: u64) -> bool {
        self.group
            .wait(seq, |segment, batch| self.persist(segment, batch))
    }
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal").field("dir", &self.dir).finish()
    }
}

impl CommitHook for Shared {
    fn on_commit(&self, ops: &[CommitOp], commit: &mut dyn FnMut() -> bool) -> Option<u64> {
        // A dead log (failed or stopping) writes nothing: commits proceed
        // in memory and their non-durability is reported by `wait_durable`.
        self.group.append(
            commit,
            |pending, seq| {
                record::encode_into(pending, seq, ops);
                self.telemetry.records.add(1);
                self.since_snapshot.fetch_add(1, Ordering::Relaxed);
            },
            |segment, batch| self.persist(segment, batch),
        )
    }
}

/// The durable commit log. See the [module documentation](self).
pub struct Wal {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.shared.fmt(f)
    }
}

impl Wal {
    /// Opens (or creates) the log in `config.dir`: runs recovery, truncates
    /// a torn tail, and starts the log at the next unused sequence number.
    /// Returns the running log and what recovery found.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from recovery or directory creation.
    pub fn open(config: WalConfig) -> io::Result<(Wal, Recovered)> {
        fs::create_dir_all(&config.dir)?;
        let recovered = recovery::recover(&config.dir)?;
        let segments = recovery::list_segments(&config.dir)?.len() as u64;
        let shared = Arc::new(Shared {
            dir: config.dir,
            segment_bytes: config.segment_bytes.max(4096),
            // Every sequence below the recovered tip was made durable by a
            // previous process life; nothing is pending.
            group: GroupCommit::new(MAX_PENDING, recovered.next_seq, None),
            segments: AtomicU64::new(segments),
            last_snapshot_seq: AtomicU64::new(recovered.snapshot_seq),
            since_snapshot: AtomicU64::new(recovered.replayed),
            snapshot_in_progress: AtomicBool::new(false),
            telemetry: WalTelemetry::new(),
        });
        Ok((Wal { shared }, recovered))
    }

    /// The [`CommitHook`] to install on the [`stm_core::Stm`] serving this
    /// log (`Stm::builder().commit_hook(wal.commit_hook())`).
    pub fn commit_hook(&self) -> Arc<dyn CommitHook> {
        Arc::clone(&self.shared) as Arc<dyn CommitHook>
    }

    /// The directory holding segments and snapshots.
    pub fn dir(&self) -> &Path {
        &self.shared.dir
    }

    /// Highest sequence number currently covered by an fsync.
    pub fn durable_seq(&self) -> u64 {
        self.shared.group.durable()
    }

    /// Sequence number of the newest record assigned (0 when none): a
    /// commit's seq is assigned in the same critical section as its commit,
    /// so every write committed before this call is logged at or below it.
    pub fn last_seq(&self) -> u64 {
        self.shared.group.next_seq().saturating_sub(1)
    }

    /// Whether the log hit an unrecoverable filesystem error: nothing is
    /// written from then on, nothing appended after the failure point is
    /// (or will become) durable, and [`Wal::wait_durable`] reports `false`
    /// for it.
    pub fn is_failed(&self) -> bool {
        self.shared.group.is_failed()
    }

    /// Blocks until `seq` is durable (covered by an fsync), leading the
    /// group commit's write and fsync when no other waiter is. Returns
    /// `false` when the log shut down or [failed](Wal::is_failed) before
    /// that happened — never blocking on a watermark that cannot advance.
    pub fn wait_durable(&self, seq: u64) -> bool {
        self.shared.wait_durable(seq)
    }

    /// Records appended since the latest snapshot — the trigger the server's
    /// `--snapshot-every` policy polls.
    pub fn records_since_snapshot(&self) -> u64 {
        self.shared.since_snapshot.load(Ordering::Relaxed)
    }

    /// Claims the snapshot slot (at most one snapshot runs at a time).
    /// Returns `false` when another thread holds it; the claimer must call
    /// [`Wal::write_snapshot`] (which releases it) or [`Wal::abandon_snapshot`].
    pub fn begin_snapshot(&self) -> bool {
        // ordering: acquire pairs with the Release releases below so the
        // next claimer sees the previous snapshot's counter updates; release
        // publishes the claim itself.
        !self
            .shared
            .snapshot_in_progress
            .swap(true, Ordering::AcqRel)
    }

    /// Releases the snapshot slot without writing (the cut transaction
    /// failed).
    pub fn abandon_snapshot(&self) {
        // ordering: release — pairs with the AcqRel claim in `begin_snapshot`.
        self.shared
            .snapshot_in_progress
            .store(false, Ordering::Release);
    }

    /// Durably writes the snapshot of `pairs` at cut `seq`, releases the
    /// snapshot slot, and prunes snapshots and closed segments the new
    /// snapshot covers.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (the slot is released either way).
    pub fn write_snapshot(&self, seq: u64, pairs: &[(i64, CommitValue)]) -> io::Result<PathBuf> {
        let result = snapshot::write(&self.shared.dir, seq, pairs);
        if result.is_ok() {
            self.shared.telemetry.snapshots.add(1);
            self.shared.last_snapshot_seq.store(seq, Ordering::Relaxed);
            self.shared.since_snapshot.store(0, Ordering::Relaxed);
            self.prune(seq);
        }
        // ordering: release — the snapshot counters above must be visible
        // to whoever claims the slot next (pairs with `begin_snapshot`).
        self.shared
            .snapshot_in_progress
            .store(false, Ordering::Release);
        result
    }

    /// Deletes snapshots older than the one at `upto` and segment files all
    /// of whose records are covered by it (a segment is covered when the
    /// *next* segment starts at or below `upto + 1`). The newest snapshot
    /// and the open segment are never touched.
    fn prune(&self, upto: u64) {
        let Ok(segments) = recovery::list_segments(&self.shared.dir) else {
            return;
        };
        for pair in segments.windows(2) {
            let (_, successor_first) = pair[1];
            if successor_first <= upto + 1 {
                let _ = fs::remove_file(&pair[0].0);
                self.shared.segments.fetch_sub(1, Ordering::Relaxed);
            }
        }
        if let Ok(snapshots) = recovery::list_snapshots(&self.shared.dir) {
            for (path, seq) in snapshots {
                if seq < upto {
                    let _ = fs::remove_file(&path);
                }
            }
        }
    }

    /// A snapshot of the log's counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            next_seq: self.shared.group.next_seq(),
            durable_seq: self.durable_seq(),
            records: self.shared.telemetry.records.value(),
            bytes: self.shared.telemetry.bytes.value(),
            fsyncs: self.shared.telemetry.fsyncs.value(),
            segments: self.shared.segments.load(Ordering::Relaxed),
            snapshots: self.shared.telemetry.snapshots.value(),
            last_snapshot_seq: self.shared.last_snapshot_seq.load(Ordering::Relaxed),
            records_since_snapshot: self.shared.since_snapshot.load(Ordering::Relaxed),
            failed: self.is_failed(),
        }
    }

    /// Prometheus-style text exposition of every `stm_wal_*` series — the
    /// serving layer appends this block to its `METRICS` payload. The
    /// histograms and counters are recorded where the work happens; the
    /// gauges mirror [`Wal::stats`] as of this call.
    pub fn metrics_text(&self) -> String {
        let stats = self.stats();
        let registry = &self.shared.telemetry.registry;
        for (name, value) in [
            ("stm_wal_next_seq", stats.next_seq),
            ("stm_wal_durable_seq", stats.durable_seq),
            ("stm_wal_segments", stats.segments),
            ("stm_wal_last_snapshot_seq", stats.last_snapshot_seq),
            (
                "stm_wal_records_since_snapshot",
                stats.records_since_snapshot,
            ),
            ("stm_wal_failed", u64::from(stats.failed)),
        ] {
            registry
                .gauge(name, &[])
                .set(i64::try_from(value).unwrap_or(i64::MAX));
        }
        registry.render()
    }

    /// Stops the log, then flushes and fsyncs everything outstanding on
    /// this thread. Idempotent; also invoked by `Drop`, so a graceful
    /// shutdown never loses a commit.
    pub fn shutdown(&mut self) {
        let shared = &self.shared;
        shared
            .group
            .shutdown(|segment, batch| shared.persist(segment, batch));
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Prefixes an I/O error with what the log was doing.
fn context(what: &'static str) -> impl Fn(io::Error) -> io::Error {
    move |err| io::Error::new(err.kind(), format!("{what}: {err}"))
}

fn segment_file_name(first_seq: u64) -> String {
    format!("wal-{first_seq:020}.log")
}

/// The open segment, as the group-commit leader sees it.
struct OpenSegment {
    file: File,
    written: u64,
}

fn open_segment(dir: &Path, first_seq: u64) -> io::Result<OpenSegment> {
    let path = dir.join(segment_file_name(first_seq));
    let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
    let mut written = file.metadata()?.len();
    // A fresh segment leads with the format magic; recovery reads no
    // records from a segment without it.
    if written == 0 {
        file.write_all(record::SEGMENT_MAGIC)?;
        written = record::SEGMENT_MAGIC.len() as u64;
    }
    // Persist the directory entry: fsyncing file *data* does not persist the
    // dirent, and acknowledged records in a segment whose name vanishes on
    // power loss would be acknowledged-then-lost.
    File::open(dir)?.sync_all()?;
    Ok(OpenSegment { file, written })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "stm-log-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn log_through_hook(wal: &Wal, ops: &[CommitOp]) -> u64 {
        wal.commit_hook()
            .on_commit(ops, &mut || true)
            .expect("commit closure returned true")
    }

    #[test]
    fn append_wait_durable_and_reopen_replays_everything() {
        let dir = temp_dir("roundtrip");
        let (wal, recovered) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(recovered.snapshot_seq, 0);
        assert!(recovered.live_pairs().is_empty());
        assert_eq!(recovered.next_seq, 1);
        let mut last = 0;
        for i in 0..10i64 {
            last = log_through_hook(&wal, &[CommitOp::put(i, i * 10)]);
        }
        assert!(wal.wait_durable(last));
        assert!(wal.durable_seq() >= last);
        let stats = wal.stats();
        assert_eq!(stats.records, 10);
        assert!(stats.fsyncs >= 1);
        drop(wal);

        let (wal2, recovered) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(recovered.replayed, 10);
        assert_eq!(recovered.next_seq, 11);
        let expected: Vec<_> = (0..10i64).map(|i| (i, CommitValue::Int(i * 10))).collect();
        assert_eq!(recovered.live_pairs(), expected);
        drop(wal2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_lost_commit_takes_no_seq_and_the_next_commit_takes_the_next() {
        let dir = temp_dir("lost");
        let (wal, _) = Wal::open(WalConfig::new(&dir)).unwrap();
        let hook = wal.commit_hook();
        assert_eq!(log_through_hook(&wal, &[CommitOp::put(1, 1)]), 1);
        assert_eq!(hook.on_commit(&[CommitOp::put(2, 2)], &mut || false), None);
        assert_eq!(log_through_hook(&wal, &[CommitOp::put(3, 3)]), 2);
        assert!(wal.wait_durable(2));
        assert_eq!(wal.stats().records, 2);
        drop(wal);
        let (_wal, recovered) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!((recovered.replayed, recovered.next_seq), (2, 3));
        let expected = [(1, CommitValue::Int(1)), (3, CommitValue::Int(3))];
        assert_eq!(recovered.live_pairs(), expected);
        drop(_wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_rotate_and_snapshot_prunes_them() {
        let dir = temp_dir("rotate");
        let mut cfg = WalConfig::new(&dir);
        cfg.segment_bytes = 4096; // minimum — forces rotation quickly
        let (wal, _) = Wal::open(cfg).unwrap();
        let mut last = 0;
        for i in 0..2_000i64 {
            last = log_through_hook(&wal, &[CommitOp::put(i, i)]);
            // Give the group commit batches small enough to rotate between.
            if i % 256 == 0 {
                wal.wait_durable(last);
            }
        }
        wal.wait_durable(last);
        assert!(
            wal.stats().segments >= 2,
            "4 KiB segments must have rotated: {:?}",
            wal.stats()
        );
        // Snapshot at the very tip: every closed segment becomes prunable.
        assert!(wal.begin_snapshot());
        assert!(!wal.begin_snapshot(), "slot must be exclusive");
        let pairs: Vec<(i64, CommitValue)> =
            (0..2_000i64).map(|i| (i, CommitValue::Int(i))).collect();
        wal.write_snapshot(last, &pairs).unwrap();
        assert!(wal.begin_snapshot(), "slot released after write");
        wal.abandon_snapshot();
        let stats = wal.stats();
        assert_eq!(stats.last_snapshot_seq, last);
        assert_eq!(stats.records_since_snapshot, 0);
        assert_eq!(stats.segments, 1, "only the open segment survives pruning");
        drop(wal);
        // Recovery now starts from the snapshot and replays nothing.
        let (wal2, recovered) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(recovered.snapshot_seq, last, "snapshot must be found");
        assert_eq!(recovered.live_pairs(), pairs);
        assert_eq!(recovered.replayed, 0);
        assert_eq!(recovered.next_seq, last + 1);
        drop(wal2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_hook_commits_are_logged_in_seq_order() {
        let dir = temp_dir("concurrent");
        let (wal, _) = Wal::open(WalConfig::new(&dir)).unwrap();
        let hook = wal.commit_hook();
        std::thread::scope(|scope| {
            for t in 0..4i64 {
                let hook = &hook;
                scope.spawn(move || {
                    for i in 0..200i64 {
                        hook.on_commit(&[CommitOp::put(t, i)], &mut || true)
                            .unwrap();
                    }
                });
            }
        });
        let stats = wal.stats();
        assert_eq!(stats.records, 800);
        wal.wait_durable(800);
        drop(wal);
        // What the log put on disk, record by record, in file order.
        let mut seqs = Vec::new();
        for (path, _) in recovery::list_segments(&dir).unwrap() {
            let bytes = fs::read(path).unwrap();
            let mut at = record::SEGMENT_MAGIC.len();
            while let record::Decoded::Ok(rec, used) = record::decode(&bytes[at..]) {
                seqs.push(rec.seq);
                at += used;
            }
            assert_eq!(at, bytes.len(), "every byte decodes");
        }
        assert_eq!(seqs, (1..=800).collect::<Vec<_>>(), "gapless and ordered");
        let _ = fs::remove_dir_all(&dir);
    }
}
