//! The write-ahead log: an append-only record stream with group commit.
//!
//! A [`Wal`] owns a directory of segment files (`wal-<first_seq>.log`) and a
//! background **group-commit writer thread**. Commit-path threads never
//! touch the filesystem — and never a process-wide lock either: the
//! [`Wal::commit_hook`] *reserves* a sequence number with one `fetch_add`
//! before running the transaction's commit CAS, encodes the record into a
//! private buffer, and publishes it into the slot ring at its reserved
//! position (see `stm_core::hook` for why reservation-inside-the-commit-
//! window makes log order equal serialization order). A reservation whose
//! commit CAS loses is published as an *abandoned* ticket, so the on-disk
//! stream may contain sequence gaps — recovery is gap-tolerant and the
//! durability watermark counts abandoned tickets as trivially durable.
//! The writer consumes ring slots strictly in sequence order and drains
//! whole batches — every record that accumulated while the previous write
//! was in flight goes out in one `write_all` — and fsyncs every batch it
//! wrote before consuming the next. A caller that blocks on
//! [`Wal::wait_durable`] therefore gets synchronous durability, and the
//! batching means one fsync covers every commit that arrived during the
//! previous fsync (classic group commit). There is no lazier policy: an
//! acknowledged write is on disk.
//!
//! [`Wal::wait_durable`] blocks until a given sequence number is covered by
//! an fsync; [`Wal::write_snapshot`] persists a point-in-time snapshot and
//! prunes segments the snapshot covers. Dropping the [`Wal`] flushes and
//! fsyncs everything outstanding before joining the writer.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stm_core::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use stm_core::sync::{Condvar, Mutex};
use stm_core::{CommitHook, CommitOp, CommitValue};

use crate::record;
use crate::ring::SlotRing;
use crate::recovery::{self, Recovered};
use crate::snapshot;

/// When the group-commit writer calls `fsync`: after every batch it
/// writes. The one variant is kept by name only because the repo benchmark
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
    /// Whether the writer stopped on an unrecoverable filesystem error
    /// (see [`Wal::is_failed`]).
    pub failed: bool,
}

/// The WAL's instruments, all in one registry that [`Wal::metrics_text`]
/// renders into the serving layer's `METRICS` payload. The writer thread is
/// the only recorder of the histograms, so their striping is idle; `records`
/// is bumped by every committing thread, which is what the striping is for.
struct WalTelemetry {
    registry: metrics::Registry,
    /// Committed records per drained group-commit batch.
    batch_records: Arc<metrics::Histogram>,
    /// `sync_data` wall time, microseconds.
    fsync_us: Arc<metrics::Histogram>,
    /// Reserved-but-unconsumed sequence numbers, sampled once per writer
    /// iteration — how full the slot ring runs (RING = backpressure).
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

/// Slots in the hand-off ring between commit threads and the writer. Also
/// the backpressure bound: a reservation stalls (cold path) only when it is
/// this many sequence numbers ahead of the writer.
const RING: usize = 1024;

/// The longest the writer parks with nothing to consume. Fills and shutdown
/// wake it directly; this only bounds a wakeup that never comes.
const PARK_TICK: Duration = Duration::from_millis(50);

struct Shared {
    dir: PathBuf,
    segment_bytes: u64,
    /// The producer/consumer hand-off between commit threads and the writer
    /// — sequence reservation, slot publication, parked/ready wakeup and
    /// backpressure all live in [`crate::ring`], where the bounded
    /// concurrency models can drive them directly.
    ring: SlotRing,
    durable: Mutex<u64>,
    durable_cv: Condvar,
    stop: AtomicBool,
    segments: AtomicU64,
    last_snapshot_seq: AtomicU64,
    since_snapshot: AtomicU64,
    snapshot_in_progress: AtomicBool,
    /// Set when the writer hit a filesystem error it cannot recover from
    /// (failed segment open/write, failed fsync). A failed log stops
    /// buffering, never advances the durable watermark again, and makes
    /// [`Wal::wait_durable`] return `false` immediately — an acknowledged
    /// durability promise is never built on a record that may not be on
    /// disk, and nothing is appended after a possibly-torn write (so the
    /// on-disk prefix stays exactly the committed prefix).
    failed: AtomicBool,
    telemetry: WalTelemetry,
}

impl Shared {
    fn fail(&self, context: &str, err: &io::Error) {
        // ordering: first-failure latch; SeqCst orders the flag ahead of the
        // wakeups below so woken waiters observe it and bail.
        if !self.failed.swap(true, Ordering::SeqCst) {
            eprintln!(
                "stm-log: {context}: {err} — log writer stopped; durability is disabled from \
                 this point (commits continue in memory, wait_durable now reports failure)"
            );
        }
        self.durable_cv.notify_all();
        // Reservations blocked on ring space must observe the failure and
        // bail rather than wait on a writer that will never drain again.
        self.ring.wake_all();
    }

    /// `true` while commits should skip logging: the writer is gone (failed
    /// log) or going (shutdown). Passed to the ring's backpressure wait so
    /// a reservation never deadlocks against a writer that will never drain.
    fn log_dead(&self) -> bool {
        self.failed.load(Ordering::Relaxed) || self.stop.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal").field("dir", &self.dir).finish()
    }
}

impl CommitHook for Shared {
    fn on_commit(&self, ops: &[CommitOp], commit: &mut dyn FnMut() -> bool) -> Option<u64> {
        // Reserve the sequence number *before* the commit CAS. The
        // reservation is inside the commit window, so if transaction B
        // depends on A (B's read saw A's write), B's window opened after
        // A's CAS — hence after A's reservation — and seq(A) < seq(B):
        // log order extends serialization order without any global lock.
        let seq = self.ring.reserve();
        // Backpressure (cold path): the slot is only busy when this
        // reservation is RING sequence numbers ahead of the writer. A dead
        // writer (failed or stopping log) means skip logging entirely —
        // commits proceed in memory and their non-durability is reported
        // through `wait_durable`.
        let log_alive = self.ring.wait_for_slot(seq, || self.log_dead());
        if !commit() {
            // The reservation is already in the sequence stream; publish it
            // as abandoned so the writer's in-order consumption never
            // stalls on a ticket nobody will fill.
            if log_alive {
                self.ring.fill(seq, Vec::new(), false);
            }
            return None;
        }
        if log_alive {
            let mut buf = Vec::with_capacity(32 + ops.len() * 24);
            record::encode_into(&mut buf, seq, ops);
            self.telemetry.records.add(1);
            self.since_snapshot.fetch_add(1, Ordering::Relaxed);
            self.ring.fill(seq, buf, true);
        }
        Some(seq)
    }
}

/// One contiguous run of committed records drained from the ring.
struct Batch {
    bytes: Vec<u8>,
    records: u64,
    first_seq: u64,
}

/// The durable commit log. See the [module documentation](self).
pub struct Wal {
    shared: Arc<Shared>,
    writer: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.shared.fmt(f)
    }
}

impl Wal {
    /// Opens (or creates) the log in `config.dir`: runs recovery, truncates
    /// a torn tail, and starts the group-commit writer at the next unused
    /// sequence number. Returns the running log and what recovery found.
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
            failed: AtomicBool::new(false),
            // Every sequence below the recovered tip was consumed by a
            // previous process life; the ring starts empty.
            ring: SlotRing::new(RING, recovered.next_seq),
            durable: Mutex::new(recovered.next_seq.saturating_sub(1)),
            durable_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            segments: AtomicU64::new(segments),
            last_snapshot_seq: AtomicU64::new(
                recovered.snapshot.as_ref().map(|s| s.seq).unwrap_or(0),
            ),
            since_snapshot: AtomicU64::new(recovered.tail.len() as u64),
            snapshot_in_progress: AtomicBool::new(false),
            telemetry: WalTelemetry::new(),
        });
        let writer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("stm-log-writer".to_string())
                .spawn(move || writer_loop(&shared))
                .expect("spawn wal writer thread")
        };
        Ok((
            Wal {
                shared,
                writer: Some(writer),
            },
            recovered,
        ))
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
        *self.shared.durable.lock()
    }

    /// Whether the log hit an unrecoverable filesystem error: the writer
    /// has stopped, nothing appended after the failure point is (or will
    /// become) durable, and [`Wal::wait_durable`] reports `false` for it.
    pub fn is_failed(&self) -> bool {
        self.shared.failed.load(Ordering::Relaxed)
    }

    /// Blocks until `seq` is durable (covered by an fsync). Returns `false`
    /// when the log shut down or [failed](Wal::is_failed) before that
    /// happened — never blocking on a watermark that cannot advance.
    pub fn wait_durable(&self, seq: u64) -> bool {
        let mut durable = self.shared.durable.lock();
        loop {
            if *durable >= seq {
                return true;
            }
            if self.shared.stop.load(Ordering::Relaxed)
                || self.shared.failed.load(Ordering::Relaxed)
            {
                return false;
            }
            let _ = self
                .shared
                .durable_cv
                .wait_for(&mut durable, Duration::from_millis(50));
        }
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
        !self.shared.snapshot_in_progress.swap(true, Ordering::AcqRel)
    }

    /// Releases the snapshot slot without writing (the cut transaction
    /// failed).
    pub fn abandon_snapshot(&self) {
        // ordering: release — pairs with the AcqRel claim in `begin_snapshot`.
        self.shared.snapshot_in_progress.store(false, Ordering::Release);
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
        self.shared.snapshot_in_progress.store(false, Ordering::Release);
        result
    }

    /// Deletes snapshots older than the one at `upto` and segment files all
    /// of whose records are covered by it (a segment is covered when the
    /// *next* segment starts at or below `upto + 1`). The newest snapshot
    /// and the open segment are never touched.
    fn prune(&self, upto: u64) {
        let Ok(mut segments) = recovery::list_segments(&self.shared.dir) else {
            return;
        };
        segments.sort();
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
            next_seq: self.shared.ring.next_seq(),
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
            ("stm_wal_records_since_snapshot", stats.records_since_snapshot),
            ("stm_wal_failed", u64::from(stats.failed)),
        ] {
            registry
                .gauge(name, &[])
                .set(i64::try_from(value).unwrap_or(i64::MAX));
        }
        registry.render()
    }

    /// Flushes and fsyncs everything outstanding, then stops the writer.
    /// Idempotent; also invoked by `Drop`, so a graceful shutdown never
    /// loses a commit.
    pub fn shutdown(&mut self) {
        // ordering: the stop latch must be visible before the wakeups below
        // — a woken waiter re-checks it and must see it set.
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // `wake_all` takes the pairing locks before notifying so the wakeup
        // cannot fall between anyone's stop-check and their condvar wait.
        self.shared.ring.wake_all();
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
        self.shared.durable_cv.notify_all();
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn segment_file_name(first_seq: u64) -> String {
    format!("wal-{first_seq:020}.log")
}

/// The writer's view of the currently open segment.
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

fn writer_loop(shared: &Shared) {
    let mut segment: Option<OpenSegment> = None;
    // Highest sequence number published to the durable watermark; tracked
    // locally so iterations that make no progress skip the lock entirely.
    let mut published_durable = shared.ring.consumed();
    let mut next = published_durable + 1;
    let mut last_progress = Instant::now();
    loop {
        // Drain every contiguous ready slot. Strictly in-order consumption
        // is what turns per-commit seq reservations back into a totally
        // ordered on-disk stream; a not-yet-filled slot ends the run even
        // if later slots are ready.
        let mut batch: Option<Batch> = None;
        while let Some((bytes, committed)) = shared.ring.consume(next) {
            if committed {
                match &mut batch {
                    None => {
                        batch = Some(Batch {
                            bytes,
                            records: 1,
                            first_seq: next,
                        })
                    }
                    Some(batch) => {
                        batch.bytes.extend_from_slice(&bytes);
                        batch.records += 1;
                    }
                }
            }
            next += 1;
            last_progress = Instant::now();
        }
        let consumed_tip = next - 1;
        shared.telemetry.ring_occupancy.record(shared.ring.occupancy(next));
        shared.ring.notify_space();
        let stopping = shared.stop.load(Ordering::Relaxed);
        if let Some(batch) = batch {
            shared.telemetry.batch_records.record(batch.records);
            if segment
                .as_ref()
                .is_some_and(|open| open.written >= shared.segment_bytes)
            {
                // Rotate. Nothing in the full segment is unsynced: every
                // batch was fsynced in the iteration that wrote it.
                segment = None;
            }
            if segment.is_none() {
                match open_segment(&shared.dir, batch.first_seq) {
                    Ok(open) => {
                        shared.segments.fetch_add(1, Ordering::Relaxed);
                        segment = Some(open);
                    }
                    Err(err) => {
                        // A lost batch may never be leapfrogged: a later
                        // batch fsyncing would advance the seq-based
                        // durability watermark over records that are not on
                        // disk. Fail the whole log instead and stop.
                        shared.fail("cannot open segment", &err);
                        return;
                    }
                }
            }
            let open = segment.as_mut().expect("segment opened above");
            if let Err(err) = open.file.write_all(&batch.bytes) {
                // The write may have torn mid-record; anything appended
                // after it would sit beyond a Corrupt cut and be discarded
                // by recovery even if fsynced. Stop writing entirely.
                shared.fail("segment write failed", &err);
                return;
            }
            open.written += batch.bytes.len() as u64;
            shared.telemetry.bytes.add(batch.bytes.len() as u64);
            let sync_started = Instant::now();
            if let Err(err) = open.file.sync_data() {
                // After a failed fsync the kernel may have dropped the dirty
                // pages and cleared the error — a later "successful" fsync
                // proves nothing about these records. Fail the log rather
                // than ever advancing the watermark over them.
                shared.fail("fsync failed", &err);
                return;
            }
            shared
                .telemetry
                .fsync_us
                .record(sync_started.elapsed().as_micros() as u64);
            shared.telemetry.fsyncs.add(1);
        }
        // Every consumed committed record was written and fsynced above
        // (consumption, write and fsync happen in the same iteration), so
        // the whole consumed prefix is durable — abandoned tickets trivially
        // so.
        if consumed_tip > published_durable {
            let mut durable = shared.durable.lock();
            if consumed_tip > *durable {
                *durable = consumed_tip;
            }
            drop(durable);
            published_durable = consumed_tip;
            shared.durable_cv.notify_all();
        }
        if stopping {
            // Drained once every reservation handed out so far has been
            // consumed and every batch written has been fsynced; exit even
            // if an fsync failed rather than spin on a broken filesystem. A
            // reservation that never fills its slot (its thread bailed or
            // died mid-commit) is abandoned after a grace period so
            // shutdown cannot hang.
            if next == shared.ring.next_seq() {
                return;
            }
            if last_progress.elapsed() > Duration::from_millis(250) {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        // Park until a producer fills the next slot. The parked/ready Dekker
        // pairing with `SlotRing::fill` is documented (and model-checked) in
        // `crate::ring`.
        shared.ring.park_until_ready(next, PARK_TICK, || shared.stop.load(Ordering::Relaxed));
    }
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
        assert!(recovered.snapshot.is_none());
        assert!(recovered.tail.is_empty());
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
        assert_eq!(recovered.tail.len(), 10);
        assert_eq!(recovered.next_seq, 11);
        assert_eq!(
            recovered.tail[3],
            (4, vec![CommitOp::put(3, 30)])
        );
        drop(wal2);
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
            // Give the writer batches small enough to rotate between.
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
        let snapshot = recovered.snapshot.expect("snapshot must be found");
        assert_eq!(snapshot.seq, last);
        assert_eq!(snapshot.pairs.len(), 2_000);
        assert!(recovered.tail.is_empty());
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
        let (_wal2, recovered) = Wal::open(WalConfig::new(&dir)).unwrap();
        let seqs: Vec<u64> = recovered.tail.iter().map(|(seq, _)| *seq).collect();
        assert_eq!(seqs, (1..=800).collect::<Vec<_>>(), "gapless and ordered");
        let _ = fs::remove_dir_all(&dir);
    }
}
