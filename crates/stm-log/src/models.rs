//! Bounded loomlite models of the WAL's slot ring and group commit.
//!
//! Compiled only under `--features model-check`, where
//! [`stm_core::sync`] resolves to loomlite modeled primitives — the models
//! drive the *shipped* `SlotRing` and `GroupCommit`, not a copy; only the
//! disk is a stand-in.
//!
//! Every wait in the ring and the group commit is an untimed condvar wait,
//! so a lost wakeup leaves every thread asleep and the checker reports a
//! deadlock. The models also run with [`fail_on_timeout_rescue`], so a
//! timed wait added later could not hide one behind its timeout either:
//! consumption cannot stall and no waiter is stranded.
//!
//! Every function returns the checker's [`Report`] (or, for the model
//! with a negative twin, its [`Failure`]) so callers (unit tests here and
//! the workspace-level `tests/model_check.rs`) can assert exhaustiveness
//! and schedule counts.
//!
//! [`fail_on_timeout_rescue`]: loomlite::Builder::fail_on_timeout_rescue

use std::io;

use loomlite::{Builder, Failure, Report};

use crate::ring::{Batch, GroupCommit, SlotRing};
use stm_core::sync::atomic::{AtomicU64, Ordering};
use stm_core::sync::Arc;

/// Default builder: bounded-exhaustive (preemption bound 2) plus the seeded
/// random phase, with timeout rescues treated as lost-wakeup failures.
fn builder() -> Builder {
    Builder {
        fail_on_timeout_rescue: true,
        ..Builder::default()
    }
}

/// Consume `seq`, parking between attempts exactly like a leader stopped
/// by a gap.
fn consume_parking(ring: &SlotRing, seq: u64) -> (Vec<u8>, bool) {
    loop {
        if let Some(out) = ring.consume(seq) {
            return out;
        }
        ring.park_until_ready(seq, || false);
    }
}

/// The stand-in disk: every payload is its own one-byte sequence number,
/// and "fsync" stores the batch's highest one into `synced`. With
/// `publish_before_fsync` the fsync runs on a thread of its own and
/// `persist` returns without waiting for it — a leader that publishes the
/// watermark before its fsync returns.
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

/// Waits for `seq` and asserts that, if acknowledged, it was consumed by a
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

/// Minimal Dekker model: one producer fills one slot while the consumer
/// parks for it. The producer's publish-then-check-`parked` races the
/// consumer's set-`parked`-then-re-check; a lost wakeup would strand the
/// consumer in its wait and surface as a deadlock. Referenced by the
/// `// ordering:` comment in `SlotRing::fill`.
pub fn ring_parked_consumer_never_misses_a_fill() -> Report {
    builder().check(|| {
        let ring = Arc::new(SlotRing::new(2, 1));
        let producer = {
            let ring = Arc::clone(&ring);
            loomlite::thread::spawn(move || {
                let seq = ring.reserve();
                assert_eq!(seq, 1);
                ring.fill(seq, vec![7], true);
            })
        };
        // Consumer (this thread): park until the fill lands, then take it.
        assert_eq!(consume_parking(&ring, 1), (vec![7], true));
        producer.join().unwrap();
        assert_eq!(ring.consumed(), 1);
    })
}

/// Two producers race their reserve+fill against a parking consumer.
/// Asserts on every interleaving that consumption is strictly in sequence
/// order at the expected generation (the payload carries its sequence
/// number), that the abandoned ticket flows through without stalling the
/// committed one behind it, and — since a sleep through a fill would be a
/// deadlock — that the consumer never misses one.
pub fn ring_consumes_in_order_without_stalling() -> Report {
    builder().check(|| {
        let ring = Arc::new(SlotRing::new(2, 1));
        let committer = {
            let ring = Arc::clone(&ring);
            loomlite::thread::spawn(move || {
                let seq = ring.reserve();
                ring.fill(seq, vec![seq as u8], true);
                seq
            })
        };
        let abandoner = {
            let ring = Arc::clone(&ring);
            loomlite::thread::spawn(move || {
                let seq = ring.reserve();
                // A reservation whose commit CAS lost: empty abandoned ticket.
                ring.fill(seq, Vec::new(), false);
                seq
            })
        };

        // Consumer (this thread): strictly in-order, parking when pending.
        let mut committed_payloads = 0;
        for seq in 1..=2u64 {
            let (bytes, committed) = consume_parking(&ring, seq);
            if committed {
                committed_payloads += 1;
                assert_eq!(bytes, vec![seq as u8], "payload from a different generation");
            } else {
                assert!(bytes.is_empty(), "abandoned ticket carried bytes");
            }
        }

        let committed_seq = committer.join().unwrap();
        let abandoned_seq = abandoner.join().unwrap();
        assert_ne!(committed_seq, abandoned_seq, "reservation handed out twice");
        assert_eq!(committed_payloads, 1, "committed record lost or duplicated");
        assert_eq!(ring.consumed(), 2);
        assert_eq!(ring.occupancy(), 0);
    })
}

/// Backpressure model on a capacity-1 ring: the second reservation is a
/// whole ring ahead of the log and must not fill its slot before the first
/// is consumed. It claims the slot through `GroupCommit::claim_slot` while
/// this thread waits for it to become durable, so either side may drain
/// seq 1: the blocked
/// reservation by leading the flush itself, or this thread — which then
/// finds seq 2 pending, releases leadership and parks on it. Both cases are
/// asserted to occur across the explored schedules, and a missed wakeup on
/// either path leaves a thread asleep: a deadlock.
pub fn ring_backpressure_admits_after_drain() -> Report {
    use std::sync::atomic::AtomicBool as Seen;
    let drained_by = std::sync::Arc::new([Seen::new(false), Seen::new(false)]);
    let seen = std::sync::Arc::clone(&drained_by);
    let report = builder().check(move || {
        let group = Arc::new(GroupCommit::new(1, 1, ()));
        let first = group.ring.reserve();
        group.ring.fill(first, vec![1], true);
        // Who persisted seq 1: 0 = the blocked reservation, 1 = this thread.
        let persist = |who: usize| {
            let seen = std::sync::Arc::clone(&seen);
            move |_: &mut (), batch: &Batch| {
                if batch.first_seq == 1 {
                    seen[who].store(true, std::sync::atomic::Ordering::Relaxed);
                }
                Ok(())
            }
        };

        let producer = {
            let group = Arc::clone(&group);
            let persist = persist(0);
            loomlite::thread::spawn(move || {
                let seq = group.ring.reserve();
                assert_eq!(seq, 2);
                assert!(group.claim_slot(seq, persist), "never aborted");
                assert!(
                    group.ring.consumed() >= 1,
                    "slot reused before it was drained"
                );
                group.ring.fill(seq, vec![2], true);
            })
        };

        assert!(group.wait(2, persist(1)), "never stopped");
        producer.join().unwrap();
        assert_eq!(group.ring.consumed(), 2);
        assert_eq!(group.durable(), 2);
    });
    for (who, seen) in ["the blocked reservation", "the waiter"]
        .iter()
        .zip(drained_by.iter())
    {
        assert!(
            seen.load(std::sync::atomic::Ordering::Relaxed),
            "no schedule had {who} drain seq 1: {report}"
        );
    }
    report
}

/// The group commit's leader hand-off: two waiters and one producer over a
/// capacity-2 ring, with seqs 1–3 reserved up front.
///
/// * This thread fills seq 1 and waits for seq 2.
/// * The producer fills seq 2 and never waits.
/// * The second waiter claims seq 3 — a whole ring ahead, so it waits for
///   seq 1 first and may lead that flush — then fills it and waits for it.
///
/// Either waiter may lead, find seq 2 unfilled, release leadership and park
/// on it; both may be parked on it at once, and one may consume it while
/// the other is only about to park. On every interleaving:
///
/// * no waiter is acknowledged before its seq was consumed by a flush whose
///   fsync completed (asserted against the stand-in disk);
/// * no waiter is stranded, and a gap-parked leader never blocks the
///   backpressured filler (either would be a deadlock);
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
        let seqs: Vec<u64> = (0..3).map(|_| group.ring.reserve()).collect();
        assert_eq!(seqs, [1, 2, 3]);

        // Seqs 1 and 2 are within a ring of the log: their slots are free
        // without a claim.
        let producer = {
            let group = Arc::clone(&group);
            loomlite::thread::spawn(move || group.ring.fill(2, vec![2], true))
        };
        let backpressured = {
            let group = Arc::clone(&group);
            let synced = Arc::clone(&synced);
            loomlite::thread::spawn(move || {
                assert!(group.claim_slot(3, disk(&synced, publish_before_fsync)));
                group.ring.fill(3, vec![3], true);
                wait_acknowledged(&group, &synced, 3, publish_before_fsync);
            })
        };

        group.ring.fill(1, vec![1], true);
        wait_acknowledged(&group, &synced, 2, publish_before_fsync);
        producer.join().unwrap();
        backpressured.join().unwrap();
        assert_eq!(group.durable(), 3);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parked_consumer_never_misses_a_fill() {
        let report = ring_parked_consumer_never_misses_a_fill();
        eprintln!("ring parked/fill: {report}");
        assert!(report.schedules() > 100, "{report}");
        assert_eq!(report.timeout_rescues, 0);
    }

    #[test]
    fn consumption_is_in_order_and_never_stalls() {
        let report = ring_consumes_in_order_without_stalling();
        eprintln!("ring in-order: {report}");
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

    #[test]
    fn backpressure_wakes_the_blocked_reservation() {
        let report = ring_backpressure_admits_after_drain();
        eprintln!("ring backpressure: {report}");
        assert!(report.schedules() > 100, "{report}");
        assert_eq!(report.timeout_rescues, 0);
    }
}
