//! Group commit without a writer thread: one lock over everything a commit
//! and a flush share.
//!
//! A committer [`append`](GroupCommit::append)s under the lock: it runs the
//! transaction's commit CAS and, only if the CAS won, takes the next
//! sequence number and encodes its record straight into the pending batch.
//! A lost CAS takes no sequence number and writes no bytes, so the log is
//! gapless. Because the CAS and the sequence assignment share one critical
//! section, log order extends serialization order (see `stm_core::hook`).
//!
//! There is no consumer thread. A caller of [`GroupCommit::wait`] whose
//! sequence number is not durable and that finds no flush in flight becomes
//! the *leader*: under the lock it swaps the pending batch for the spare
//! buffer, then persists the batch outside the lock, publishes the durable
//! watermark and wakes the waiters. A committer that finds `capacity`
//! records pending waits or leads the same way before its CAS. The lock and
//! condvar come from [`stm_core::sync`], so [`crate::models`] can drive
//! this code under `--features model-check`.

use std::io;

use stm_core::sync::{Condvar, Mutex, MutexGuard};

/// One flush's records: a contiguous run of sequence numbers.
pub(crate) struct Batch {
    /// The records' encoded bytes, concatenated in sequence order.
    pub(crate) bytes: Vec<u8>,
    /// Records in `bytes`.
    pub(crate) records: u64,
    /// Sequence number of the first record in `bytes`.
    pub(crate) first_seq: u64,
}

/// Everything a commit and a flush share, under [`GroupCommit`]'s lock.
#[derive(Default)]
struct State {
    /// The sequence number the next winning commit takes.
    next_seq: u64,
    /// Encoded records appended since the last flush took the batch.
    pending: Vec<u8>,
    /// Records in `pending`.
    pending_records: u64,
    /// Sequence number of the newest record in `pending`.
    last_pending: u64,
    /// The buffer the next flush swaps in for `pending`: the previous
    /// batch's, cleared, so a batch does not regrow its buffer from empty.
    spare: Vec<u8>,
    /// Sequence number of the last record a completed flush persisted.
    durable: u64,
    /// Set while a leader is flushing; whoever sets it owns the sink.
    flushing: bool,
    /// Set when a persist failed (see [`GroupCommit`]).
    failed: bool,
    /// Set by [`GroupCommit::shutdown`].
    stop: bool,
}

impl State {
    /// `true` once the log failed or is stopping: commits are not logged
    /// and waits report `false`.
    fn is_dead(&self) -> bool {
        self.failed || self.stop
    }
}

/// Group commit over the sink `W`, which only the current leader touches.
/// See the [module docs](self).
///
/// Every operation that may flush takes `persist`, which writes one batch
/// to `W` and makes it durable. An error from it fails the log for good:
/// the watermark never advances again and nothing more is persisted, so a
/// durability promise is never built on a record that may not be on disk,
/// and nothing is appended after a possibly-torn write.
pub(crate) struct GroupCommit<W> {
    /// Pending records at which a committer waits or leads before its CAS.
    capacity: u64,
    state: Mutex<State>,
    /// Waiters sleep here until a flush completes; failure and shutdown
    /// wake them too.
    changed: Condvar,
    /// Locked only by the holder of `flushing`, so never contended; the
    /// lock hands the sink from one leader to the next.
    sink: Mutex<W>,
}

impl<W> GroupCommit<W> {
    /// A group commit whose next sequence number is `next_seq`; everything
    /// below it is durable already. A committer that finds `capacity`
    /// records pending waits for or leads a flush before its CAS.
    pub(crate) fn new(capacity: u64, next_seq: u64, sink: W) -> GroupCommit<W> {
        assert!(capacity > 0, "group commit capacity must be positive");
        GroupCommit {
            capacity,
            state: Mutex::new(State {
                next_seq,
                durable: next_seq.saturating_sub(1),
                ..State::default()
            }),
            changed: Condvar::new(),
            sink: Mutex::new(sink),
        }
    }

    /// Sequence number of the last record a completed flush persisted.
    pub(crate) fn durable(&self) -> u64 {
        self.state.lock().durable
    }

    /// The sequence number the next winning commit takes.
    pub(crate) fn next_seq(&self) -> u64 {
        self.state.lock().next_seq
    }

    /// Records appended and not yet taken by a flush.
    pub(crate) fn pending(&self) -> u64 {
        self.state.lock().pending_records
    }

    /// The sink, for work after [`GroupCommit::shutdown`] returned, when no
    /// flush can start any more.
    pub(crate) fn sink(&self) -> MutexGuard<'_, W> {
        self.sink.lock()
    }

    /// Whether `persist` ever failed.
    pub(crate) fn is_failed(&self) -> bool {
        self.state.lock().failed
    }

    /// Runs `commit` (the transaction's commit CAS) under the lock. If it
    /// returns `true`, assigns the next sequence number, has `write` encode
    /// the record for it into the pending batch, and returns it; otherwise
    /// returns `None` and writes nothing. A dead log (failed or stopping)
    /// still assigns the number but writes nothing, so it never becomes
    /// durable. Before the CAS, a committer that finds `capacity` records
    /// pending waits for or leads a flush.
    pub(crate) fn append(
        &self,
        commit: &mut dyn FnMut() -> bool,
        write: impl FnOnce(&mut Vec<u8>, u64),
        persist: impl Fn(&mut W, &Batch) -> io::Result<()>,
    ) -> Option<u64> {
        let mut state = self.state.lock();
        while state.pending_records >= self.capacity && !state.is_dead() {
            state = self.flush_or_wait(state, &persist);
        }
        if !commit() {
            return None;
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        if !state.is_dead() {
            write(&mut state.pending, seq);
            state.pending_records += 1;
            state.last_pending = seq;
        }
        Some(seq)
    }

    /// Blocks until `seq` is durable, leading flushes while none is in
    /// flight. Returns `false` when the log failed or is stopping before
    /// that happened, or when `seq` was never assigned — never blocking on
    /// a watermark that cannot reach it.
    pub(crate) fn wait(
        &self,
        seq: u64,
        persist: impl Fn(&mut W, &Batch) -> io::Result<()>,
    ) -> bool {
        let mut state = self.state.lock();
        loop {
            if state.durable >= seq {
                return true;
            }
            if state.is_dead() || seq >= state.next_seq {
                return false;
            }
            state = self.flush_or_wait(state, &persist);
        }
    }

    /// Stops the log: from here on commits are not logged and waits return
    /// `false`. Then waits for the flush in flight, if any, and flushes what
    /// is pending. Idempotent.
    pub(crate) fn shutdown(&self, persist: impl Fn(&mut W, &Batch) -> io::Result<()>) {
        let mut state = self.state.lock();
        if state.stop {
            return;
        }
        state.stop = true;
        self.changed.notify_all();
        while !state.failed && (state.flushing || state.pending_records > 0) {
            state = self.flush_or_wait(state, &persist);
        }
    }

    /// Sleeps until the flush in flight completes, or, if there is none,
    /// leads one: takes the pending batch, persists it outside the lock,
    /// publishes the watermark and wakes every waiter. Returns the lock.
    /// Callers only get here with a flush in flight or records pending.
    fn flush_or_wait<'a>(
        &'a self,
        mut state: MutexGuard<'a, State>,
        persist: &impl Fn(&mut W, &Batch) -> io::Result<()>,
    ) -> MutexGuard<'a, State> {
        if state.flushing {
            self.changed.wait(&mut state);
            return state;
        }
        state.flushing = true;
        let spare = std::mem::take(&mut state.spare);
        let records = std::mem::take(&mut state.pending_records);
        let batch = Batch {
            bytes: std::mem::replace(&mut state.pending, spare),
            records,
            first_seq: state.last_pending + 1 - records,
        };
        drop(state);
        let persisted = persist(&mut self.sink.lock(), &batch);
        let mut state = self.state.lock();
        match persisted {
            Ok(()) => state.durable = state.durable.max(batch.first_seq + batch.records - 1),
            Err(err) => {
                // No flush starts on a failed log, so this is the first.
                state.failed = true;
                eprintln!(
                    "stm-log: {err} — the log stopped; durability is disabled from this \
                     point (commits continue in memory, wait_durable now reports failure)"
                );
            }
        }
        state.flushing = false;
        let mut bytes = batch.bytes;
        bytes.clear();
        state.spare = bytes;
        self.changed.notify_all();
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that records each batch's bytes (every record is its own
    /// one-byte seq).
    fn record_batch(sink: &mut Vec<Vec<u8>>, batch: &Batch) -> io::Result<()> {
        assert_eq!(batch.records as usize, batch.bytes.len());
        assert_eq!(u64::from(batch.bytes[0]), batch.first_seq);
        sink.push(batch.bytes.clone());
        Ok(())
    }

    /// Appends a record whose payload is its own seq.
    fn append<W>(
        group: &GroupCommit<W>,
        wins: bool,
        persist: impl Fn(&mut W, &Batch) -> io::Result<()>,
    ) -> Option<u64> {
        group.append(&mut || wins, |buf, seq| buf.push(seq as u8), persist)
    }

    #[test]
    fn append_applies_backpressure_by_leading_and_logs_nothing_when_stopped() {
        let group = GroupCommit::new(2, 1, Vec::new());
        // Within capacity: no flush at all.
        for seq in 1..=2 {
            assert_eq!(append(&group, true, record_batch), Some(seq));
        }
        assert_eq!(group.durable(), 0);
        // Two records pending: the third committer leads a flush first.
        assert_eq!(append(&group, true, record_batch), Some(3));
        assert_eq!(group.durable(), 2);
        assert!(group.wait(3, record_batch));
        assert_eq!(*group.sink.lock(), [vec![1, 2], vec![3]]);
        assert!(!group.wait(4, record_batch), "seq 4 was never assigned");
        // A stopped log writes nothing and acknowledges nothing new.
        group.shutdown(record_batch);
        assert_eq!(append(&group, true, record_batch), Some(4));
        assert!(group.wait(3, record_batch), "already durable stays durable");
        assert!(!group.wait(4, record_batch));
        assert_eq!(group.sink.lock().len(), 2);
    }

    /// The race with `shutdown`, made deterministic: a commit lands while
    /// the final flush persists. It takes a seq after `stop` and is never
    /// written, so the watermark — the last flushed record's seq, not
    /// `next_seq - 1` — never covers it, during or after the final flush.
    #[test]
    fn a_commit_after_stop_is_never_reported_durable() {
        let group = GroupCommit::new(4, 1, Vec::new());
        assert_eq!(append(&group, true, record_batch), Some(1));
        let late = std::cell::Cell::new(None);
        group.shutdown(|sink, batch| {
            late.set(append(&group, true, record_batch));
            record_batch(sink, batch)
        });
        assert_eq!((late.get(), group.next_seq()), (Some(2), 3));
        assert_eq!(*group.sink.lock(), [vec![1]]);
        assert_eq!(group.durable(), 1);
        assert!(!group.wait(2, record_batch));
    }

    #[test]
    fn a_failed_persist_stops_the_log_for_good() {
        let group = GroupCommit::new(4, 1, 0u32);
        let failing = |calls: &mut u32, _: &Batch| {
            *calls += 1;
            Err(io::Error::other("disk gone"))
        };
        let seq = append(&group, true, failing).unwrap();
        assert!(!group.wait(seq, failing));
        assert!(group.is_failed());
        assert_eq!(group.durable(), 0, "a failed batch is never durable");
        let seq = append(&group, true, failing).unwrap();
        assert_eq!(group.pending(), 0, "a failed log writes nothing");
        assert!(!group.wait(seq, failing));
        group.shutdown(failing);
        assert_eq!(*group.sink.lock(), 1, "nothing persisted after a failure");
    }
}
