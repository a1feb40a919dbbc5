//! The producer/consumer slot ring between commit threads and the
//! group-commit writer.
//!
//! Extracted from `wal.rs` so the hand-off protocol — sequence reservation,
//! slot publication, the Dekker-style parked/ready wakeup, and the
//! backpressure wait — is one self-contained unit that the bounded
//! concurrency models in [`crate::models`] can drive directly (capacity and
//! first sequence number are parameters; the WAL uses 1024 and the
//! recovered tip).
//!
//! All synchronization goes through [`stm_core::sync`], so under
//! `--features model-check` the ring runs on loomlite modeled primitives
//! and its interleavings are explored exhaustively.
//!
//! Protocol summary (see the method docs for the ordering arguments):
//!
//! * A producer [`reserve`](SlotRing::reserve)s a sequence number with one
//!   `fetch_add`, waits for its slot to be free
//!   ([`wait_for_slot`](SlotRing::wait_for_slot) — cold path, only when the
//!   reservation is a whole ring ahead of the consumer), and publishes with
//!   [`fill`](SlotRing::fill).
//! * The single consumer takes contiguous ready slots in sequence order
//!   with [`consume`](SlotRing::consume) and parks in
//!   [`park_until_ready`](SlotRing::park_until_ready) when the next slot is
//!   pending.

use std::time::Duration;

use stm_core::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use stm_core::sync::{Condvar, Mutex};

/// One ring slot. `ready` holds `seq + 1` once the slot at
/// `seq % capacity` is filled for sequence `seq` (0 = empty); the `+ 1`
/// bias disambiguates the empty state from a filled seq-0 slot and lets the
/// consumer verify it is consuming exactly the generation it expects. The
/// per-slot mutex is touched by exactly one producer (the reservation
/// holder) and the consumer, so it is uncontended in steady state —
/// nothing process-wide.
struct Slot {
    ready: AtomicU64,
    data: Mutex<SlotData>,
}

#[derive(Default)]
struct SlotData {
    bytes: Vec<u8>,
    /// `false` marks an abandoned ticket: the reservation's commit CAS
    /// failed, so the consumer skips its bytes but still advances past it.
    committed: bool,
}

/// The hand-off ring. See the [module docs](self).
pub(crate) struct SlotRing {
    capacity: u64,
    /// Next sequence number to reserve. `fetch_add` here — inside the
    /// commit window, before the commit CAS — is the whole of sequence
    /// assignment.
    next_seq: AtomicU64,
    /// Highest sequence number the consumer has taken from the ring.
    consumed: AtomicU64,
    slots: Vec<Slot>,
    /// Pairs with `work`: the consumer re-checks the ring under this lock
    /// before sleeping, so a producer that fills a slot and then finds
    /// `parked` set cannot lose its wakeup.
    work_lock: Mutex<()>,
    work: Condvar,
    /// Set by the consumer around its condvar wait; producers skip the
    /// `work_lock` round-trip entirely while the consumer is busy draining.
    parked: AtomicBool,
    /// Pairs with `space_cv`: reservations a whole ring ahead of the
    /// consumer wait here; `space_waiters` lets the consumer skip
    /// notification entirely in the common case of an empty wait queue.
    space_lock: Mutex<()>,
    space_cv: Condvar,
    space_waiters: AtomicU64,
}

impl SlotRing {
    /// A ring of `capacity` slots whose next reservation is `next_seq`
    /// (everything below it counts as already consumed).
    pub(crate) fn new(capacity: usize, next_seq: u64) -> SlotRing {
        assert!(capacity > 0, "ring capacity must be positive");
        SlotRing {
            capacity: capacity as u64,
            next_seq: AtomicU64::new(next_seq),
            consumed: AtomicU64::new(next_seq.saturating_sub(1)),
            slots: (0..capacity)
                .map(|_| Slot {
                    ready: AtomicU64::new(0),
                    data: Mutex::new(SlotData::default()),
                })
                .collect(),
            work_lock: Mutex::new(()),
            work: Condvar::new(),
            parked: AtomicBool::new(false),
            space_lock: Mutex::new(()),
            space_cv: Condvar::new(),
            space_waiters: AtomicU64::new(0),
        }
    }

    /// Reserves the next sequence number.
    pub(crate) fn reserve(&self) -> u64 {
        // ordering: the reservation must be ordered against the commit CAS
        // that follows it inside the commit window (log order extends
        // serialization order); SeqCst also keeps `next_seq` reads in
        // `occupancy`/shutdown draining exact.
        self.next_seq.fetch_add(1, Ordering::SeqCst)
    }

    /// The next sequence number that would be reserved.
    pub(crate) fn next_seq(&self) -> u64 {
        // ordering: see `reserve`.
        self.next_seq.load(Ordering::SeqCst)
    }

    /// Highest sequence number the consumer has taken.
    pub(crate) fn consumed(&self) -> u64 {
        // ordering: pairs with the consumer's `consumed` store — the
        // backpressure check in `wait_for_slot` must not miss progress.
        self.consumed.load(Ordering::SeqCst)
    }

    /// Reserved-but-unconsumed sequence numbers as of this call, given the
    /// consumer's next expected sequence (occupancy telemetry).
    pub(crate) fn occupancy(&self, next: u64) -> u64 {
        self.next_seq().saturating_sub(next)
    }

    /// Whether the slot for `seq` is published at the expected generation.
    pub(crate) fn slot_ready(&self, seq: u64) -> bool {
        // ordering: acquire side of `fill`'s release store, and part of the
        // Dekker pairing with `parked` (see `park_until_ready`); the
        // matching SeqCst load also orders the producer's `data` write
        // before the consumer's read without contending on the slot mutex.
        self.slots[(seq % self.capacity) as usize]
            .ready
            .load(Ordering::SeqCst)
            == seq + 1
    }

    /// Blocks until the ring slot for `seq` is free — its previous occupant
    /// (`seq - capacity`) consumed — which in-order consumption reduces to
    /// `seq <= consumed + capacity`. Returns `false` when `abort` reports
    /// the consumer is gone (failed or stopping log), so a reservation
    /// never deadlocks against a consumer that will never drain again.
    pub(crate) fn wait_for_slot(&self, seq: u64, abort: impl Fn() -> bool) -> bool {
        loop {
            if abort() {
                return false;
            }
            if seq <= self.consumed() + self.capacity {
                return true;
            }
            // ordering: the waiter count must be raised before the re-check
            // under the lock; the consumer checks it after storing
            // `consumed` — SeqCst makes one side see the other, so the
            // notification cannot be skipped while we commit to waiting.
            self.space_waiters.fetch_add(1, Ordering::SeqCst);
            {
                let mut guard = self.space_lock.lock();
                if seq > self.consumed() + self.capacity && !abort() {
                    let _ = self.space_cv.wait_for(&mut guard, Duration::from_millis(10));
                }
            }
            // ordering: see the fetch_add above.
            self.space_waiters.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Publishes the filled (or abandoned) slot for `seq` and wakes the
    /// consumer if it is parked.
    pub(crate) fn fill(&self, seq: u64, bytes: Vec<u8>, committed: bool) {
        let slot = &self.slots[(seq % self.capacity) as usize];
        {
            let mut data = slot.data.lock();
            data.bytes = bytes;
            data.committed = committed;
        }
        // ordering: the release point of the publication — and one half of
        // the Dekker pairing with the consumer's park sequence. The
        // consumer stores `parked`, then re-checks `ready` under
        // `work_lock`; we store `ready`, then check `parked`. SeqCst makes
        // at least one side observe the other (proven by
        // `models::ring_parked_consumer_never_misses_a_fill`), and taking
        // `work_lock` before notifying serializes against the
        // check-then-wait so the wakeup cannot fall between them.
        slot.ready.store(seq + 1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) {
            drop(self.work_lock.lock());
            self.work.notify_one();
        }
    }

    /// Takes the slot for `seq` if it is published, marking it consumed.
    /// Consumers call this with strictly increasing `seq`; a pending slot
    /// returns `None` and ends the contiguous run even if later slots are
    /// ready.
    pub(crate) fn consume(&self, seq: u64) -> Option<(Vec<u8>, bool)> {
        if !self.slot_ready(seq) {
            return None;
        }
        let slot = &self.slots[(seq % self.capacity) as usize];
        let (bytes, committed) = {
            let mut data = slot.data.lock();
            (std::mem::take(&mut data.bytes), data.committed)
        };
        // ordering: the empty-marker store must be ordered before the
        // `consumed` bump — a producer admitted by `wait_for_slot` may
        // immediately reuse this slot for `seq + capacity`.
        slot.ready.store(0, Ordering::SeqCst);
        // ordering: pairs with `wait_for_slot`'s backpressure check.
        self.consumed.store(seq, Ordering::SeqCst);
        Some((bytes, committed))
    }

    /// Wakes backpressure waiters if there are any (consumer side, after a
    /// drain made progress).
    pub(crate) fn notify_space(&self) {
        // ordering: counterpart of the waiter-count handshake in
        // `wait_for_slot`.
        if self.space_waiters.load(Ordering::SeqCst) > 0 {
            drop(self.space_lock.lock());
            self.space_cv.notify_all();
        }
    }

    /// Parks the consumer until the slot for `seq` is published, `tick`
    /// elapses, or `cancel` reports shutdown. The `parked` flag plus the re-check
    /// under `work_lock` pairs with `fill`'s publish-then-notify so the
    /// wakeup cannot be lost.
    pub(crate) fn park_until_ready(&self, seq: u64, tick: Duration, cancel: impl Fn() -> bool) {
        if self.slot_ready(seq) {
            return;
        }
        // ordering: Dekker pairing with `fill` — see the note there.
        self.parked.store(true, Ordering::SeqCst);
        {
            let mut guard = self.work_lock.lock();
            if !self.slot_ready(seq) && !cancel() {
                let _ = self.work.wait_for(&mut guard, tick);
            }
        }
        // ordering: see above.
        self.parked.store(false, Ordering::SeqCst);
    }

    /// Wakes everything (consumer park and backpressure waiters) — shutdown
    /// and failure paths. Takes both pairing locks first so the wakeup
    /// cannot fall between anyone's check and wait.
    pub(crate) fn wake_all(&self) {
        drop(self.work_lock.lock());
        self.work.notify_all();
        drop(self.space_lock.lock());
        self.space_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_fill_consume_roundtrip_in_order() {
        let ring = SlotRing::new(4, 1);
        assert_eq!(ring.reserve(), 1);
        assert_eq!(ring.reserve(), 2);
        assert!(ring.consume(1).is_none(), "nothing published yet");
        ring.fill(2, vec![2], true);
        assert!(ring.consume(1).is_none(), "in-order: seq 1 still pending");
        ring.fill(1, vec![1], true);
        assert_eq!(ring.consume(1), Some((vec![1], true)));
        assert_eq!(ring.consume(2), Some((vec![2], true)));
        assert_eq!(ring.consumed(), 2);
        assert_eq!(ring.occupancy(3), 0);
    }

    #[test]
    fn abandoned_tickets_flow_through() {
        let ring = SlotRing::new(2, 7);
        assert_eq!(ring.reserve(), 7);
        ring.fill(7, Vec::new(), false);
        assert_eq!(ring.consume(7), Some((Vec::new(), false)));
    }

    #[test]
    fn wait_for_slot_applies_backpressure_and_abort() {
        let ring = SlotRing::new(2, 1);
        // Within capacity: no wait at all.
        assert!(ring.wait_for_slot(1, || false));
        assert!(ring.wait_for_slot(2, || false));
        // seq 3 is a full ring ahead of consumed == 0: only abort frees it.
        assert!(!ring.wait_for_slot(3, || true));
        // Consuming seq 1 admits seq 3.
        ring.fill(1, vec![1], true);
        assert_eq!(ring.consume(1), Some((vec![1], true)));
        assert!(ring.wait_for_slot(3, || false));
    }

    #[test]
    fn generation_bias_distinguishes_wrapped_slots() {
        let ring = SlotRing::new(2, 1);
        ring.fill(1, vec![1], true);
        // Slot index of seq 3 == slot index of seq 1, but the generation
        // check must not confuse them.
        assert!(ring.slot_ready(1));
        assert!(!ring.slot_ready(3));
        assert_eq!(ring.consume(1), Some((vec![1], true)));
        ring.fill(3, vec![3], true);
        assert!(ring.slot_ready(3));
        assert!(!ring.slot_ready(1));
    }
}
