//! Bounded loomlite models of the WAL's group commit.
//!
//! Compiled only under `--features model-check`, where
//! [`stm_core::sync`] resolves to loomlite modeled primitives — the models
//! drive the *shipped* `GroupCommit`, not a copy; only the disk is a
//! stand-in.
//!
//! Every wait in the group commit is an untimed condvar wait, so a lost
//! wakeup leaves every thread asleep and the checker reports a deadlock.
//! The models also run with [`fail_on_timeout_rescue`], so a timed wait
//! added later could not hide one behind its timeout either: no waiter is
//! stranded.
//!
//! Every function returns the checker's [`Report`] (or, for the model
//! with a negative twin, its [`Failure`]) so callers (unit tests here and
//! the workspace-level `tests/model_check.rs`) can assert exhaustiveness
//! and schedule counts.
//!
//! [`fail_on_timeout_rescue`]: loomlite::Builder::fail_on_timeout_rescue

use std::io;

use loomlite::{Builder, Failure, Report};

use crate::group_commit::{Batch, GroupCommit};
use stm_core::sync::atomic::{AtomicU64, Ordering};
use stm_core::sync::{Arc, Mutex};

/// Default builder: bounded-exhaustive (preemption bound 2) plus the seeded
/// random phase, with timeout rescues treated as lost-wakeup failures.
fn builder() -> Builder {
    Builder {
        fail_on_timeout_rescue: true,
        ..Builder::default()
    }
}

/// Appends a record whose payload is its own one-byte sequence number; the
/// commit CAS wins if `wins`.
fn append(
    group: &GroupCommit<()>,
    wins: bool,
    persist: impl Fn(&mut (), &Batch) -> io::Result<()>,
) -> Option<u64> {
    group.append(&mut || wins, |batch, seq| batch.push(seq as u8), persist)
}

/// A stand-in disk that appends every batch's bytes to `log`, checking the
/// batch is the contiguous run its header says.
fn recording(log: &Arc<Mutex<Vec<u8>>>) -> impl Fn(&mut (), &Batch) -> io::Result<()> {
    let log = Arc::clone(log);
    move |_, batch| {
        let seqs: Vec<u64> = (batch.first_seq..).take(batch.records as usize).collect();
        let bytes: Vec<u64> = batch.bytes.iter().map(|&b| u64::from(b)).collect();
        assert_eq!(bytes, seqs, "a batch is not the contiguous run it claims");
        log.lock().extend_from_slice(&batch.bytes);
        Ok(())
    }
}

/// Two committers, one whose commit CAS loses, against this thread, which
/// commits and then leads a flush for its record. The winner waits for its
/// record too, so either may lead, or both in turn. On every interleaving:
///
/// * the loser gets `None` and writes no bytes;
/// * the two winners get seqs 1 and 2;
/// * the flushed stream is exactly `[1, 2]`: gapless and in seq order.
pub fn append_is_gapless_and_a_lost_commit_writes_nothing() -> Report {
    builder().check(|| {
        let group = Arc::new(GroupCommit::new(4, 1, ()));
        let log = Arc::new(Mutex::new(Vec::new()));
        let winner = {
            let (group, log) = (Arc::clone(&group), Arc::clone(&log));
            loomlite::thread::spawn(move || {
                let seq = append(&group, true, recording(&log)).expect("the CAS won");
                assert!(group.wait(seq, recording(&log)), "never stopped");
                seq
            })
        };
        let loser = {
            let (group, log) = (Arc::clone(&group), Arc::clone(&log));
            loomlite::thread::spawn(move || {
                assert_eq!(append(&group, false, recording(&log)), None)
            })
        };
        let mine = append(&group, true, recording(&log)).expect("the CAS won");
        assert!(group.wait(mine, recording(&log)), "never stopped");
        let theirs = winner.join().unwrap();
        loser.join().unwrap();
        let mut seqs = [mine, theirs];
        seqs.sort_unstable();
        assert_eq!(seqs, [1, 2], "winners' seqs");
        assert_eq!(*log.lock(), [1, 2], "the flushed stream");
        assert_eq!((group.durable(), group.next_seq()), (2, 3));
    })
}

/// Backpressure at capacity 1: seq 1 is pending before a second committer
/// appends, so that committer must see seq 1 taken by a flush before its
/// CAS. It appends while this thread waits for seq 1, so either side may
/// flush seq 1: the appender by leading the flush itself, or this thread,
/// with the appender asleep until it publishes. Both cases are asserted to
/// occur across the explored schedules, and a missed wakeup on either path
/// leaves a thread asleep: a deadlock.
pub fn backpressure_admits_after_a_flush() -> Report {
    use std::sync::atomic::AtomicBool as Seen;
    let flushed_by = std::sync::Arc::new([Seen::new(false), Seen::new(false)]);
    let seen = std::sync::Arc::clone(&flushed_by);
    let report = builder().check(move || {
        let group = Arc::new(GroupCommit::new(1, 1, ()));
        let log = Arc::new(Mutex::new(Vec::new()));
        // Who persisted seq 1: 0 = the appender, 1 = this thread.
        let persist = |who: usize| {
            let (seen, log) = (std::sync::Arc::clone(&seen), recording(&log));
            move |sink: &mut (), batch: &Batch| {
                if batch.first_seq == 1 {
                    seen[who].store(true, std::sync::atomic::Ordering::Relaxed);
                }
                log(sink, batch)
            }
        };
        assert_eq!(append(&group, true, persist(1)), Some(1));

        let appender = {
            let group = Arc::clone(&group);
            let persist = persist(0);
            loomlite::thread::spawn(move || {
                assert_eq!(append(&group, true, &persist), Some(2));
                assert!(group.wait(2, persist), "never stopped");
            })
        };

        assert!(group.wait(1, persist(1)), "never stopped");
        appender.join().unwrap();
        assert_eq!(*log.lock(), [1, 2]);
        assert_eq!(group.durable(), 2);
    });
    for (who, seen) in ["the appender", "the waiter"].iter().zip(flushed_by.iter()) {
        assert!(
            seen.load(std::sync::atomic::Ordering::Relaxed),
            "no schedule had {who} flush seq 1: {report}"
        );
    }
    report
}

/// The stand-in disk for the leader hand-off: every payload is its own
/// one-byte sequence number, and "fsync" stores the batch's highest one into
/// `synced`. With `publish_before_fsync` the fsync runs on a thread of its
/// own and `persist` returns without waiting for it — a leader that
/// publishes the watermark before its fsync returns.
fn disk(
    synced: &Arc<AtomicU64>,
    publish_before_fsync: bool,
) -> impl Fn(&mut (), &Batch) -> io::Result<()> {
    let synced = Arc::clone(synced);
    move |_, batch| {
        let tip = u64::from(*batch.bytes.last().expect("a batch holds a record"));
        let synced = Arc::clone(&synced);
        // ordering: the stand-in fsync's completion; waiters read it after
        // the watermark told them their record is durable.
        let fsync = move || synced.store(tip, Ordering::SeqCst);
        if publish_before_fsync {
            drop(loomlite::thread::spawn(fsync));
        } else {
            fsync();
        }
        Ok(())
    }
}

/// Waits for `seq` and asserts that, if acknowledged, it was taken by a
/// flush whose fsync completed.
fn wait_acknowledged(
    group: &GroupCommit<()>,
    synced: &Arc<AtomicU64>,
    seq: u64,
    publish_before_fsync: bool,
) {
    assert!(
        group.wait(seq, disk(synced, publish_before_fsync)),
        "never stopped"
    );
    // ordering: see `disk`.
    let on_disk = synced.load(Ordering::SeqCst);
    assert!(
        on_disk >= seq,
        "seq {seq} acknowledged before its fsync returned (synced {on_disk})"
    );
}

/// The group commit's leader hand-off at capacity 2, with seq 1 appended up
/// front by this thread.
///
/// * A producer appends and never waits.
/// * A second waiter appends — if the producer got there first, two
///   records are pending and it must see a flush first, which it may lead —
///   then waits for its record.
/// * This thread waits for seq 1, and once both have appended, for seq 3.
///
/// Either waiter may lead while the other sleeps on the flush in flight.
/// On every interleaving:
///
/// * no waiter is acknowledged before its record was taken by a flush
///   whose fsync completed (asserted against the stand-in disk);
/// * no waiter is stranded, and a backpressured appender is admitted
///   (either would be a deadlock);
/// * the watermark ends at 3.
///
/// With `publish_before_fsync` the stand-in fsync finishes on its own
/// thread after `persist` returns; the model must then fail.
///
/// # Errors
///
/// The checker's failure, expected only with `publish_before_fsync`.
pub fn group_commit_leader_hand_off(publish_before_fsync: bool) -> Result<Report, Failure> {
    builder().check_quiet(move || {
        let group = Arc::new(GroupCommit::new(2, 1, ()));
        let synced = Arc::new(AtomicU64::new(0));
        let persist = || disk(&synced, publish_before_fsync);
        assert_eq!(append(&group, true, persist()), Some(1));

        let producer = {
            let (group, persist) = (Arc::clone(&group), persist());
            loomlite::thread::spawn(move || assert!(append(&group, true, persist).is_some()))
        };
        let backpressured = {
            let (group, synced) = (Arc::clone(&group), Arc::clone(&synced));
            loomlite::thread::spawn(move || {
                let persist = disk(&synced, publish_before_fsync);
                let seq = append(&group, true, persist).expect("the CAS won");
                wait_acknowledged(&group, &synced, seq, publish_before_fsync);
            })
        };

        wait_acknowledged(&group, &synced, 1, publish_before_fsync);
        producer.join().unwrap();
        backpressured.join().unwrap();
        wait_acknowledged(&group, &synced, 3, publish_before_fsync);
        assert_eq!(group.durable(), 3);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_flushed_stream_is_gapless_and_a_lost_commit_writes_nothing() {
        let report = append_is_gapless_and_a_lost_commit_writes_nothing();
        eprintln!("gapless append: {report}");
        assert!(report.schedules() > 100, "{report}");
        assert_eq!(report.timeout_rescues, 0);
    }

    #[test]
    fn backpressure_is_relieved_by_the_appender_or_the_waiter() {
        let report = backpressure_admits_after_a_flush();
        eprintln!("backpressure: {report}");
        assert!(report.schedules() > 100, "{report}");
        assert_eq!(report.timeout_rescues, 0);
    }

    #[test]
    fn leader_hand_off_acknowledges_only_synced_records_and_strands_no_one() {
        let report =
            group_commit_leader_hand_off(false).unwrap_or_else(|failure| panic!("{failure}"));
        eprintln!("group commit leader: {report}");
        assert!(report.schedules() > 100, "{report}");
        assert_eq!(report.timeout_rescues, 0);
    }

    #[test]
    fn a_leader_publishing_before_its_fsync_returns_is_caught() {
        let failure = group_commit_leader_hand_off(true)
            .expect_err("a watermark published ahead of the fsync must be caught");
        eprintln!("caught as expected:\n{failure}");
        assert!(
            failure.message.contains("before its fsync returned"),
            "{failure}"
        );
        assert!(!failure.trace.is_empty(), "{failure}");
    }
}
