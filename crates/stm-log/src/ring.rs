//! The slot ring between commit threads and the log, and the group commit
//! that drains it.
//!
//! Extracted from `wal.rs` so the whole hand-off — sequence reservation,
//! slot publication, the Dekker-style parked/ready wakeup, leader election
//! and backpressure — is one self-contained unit that the bounded
//! concurrency models in [`crate::models`] drive directly. Capacity, first
//! sequence number and what a flush does with its batch are parameters; the
//! WAL uses 1024 slots, the recovered tip, and segment write + fsync.
//!
//! All synchronization goes through [`stm_core::sync`], so under
//! `--features model-check` the ring runs on loomlite modeled primitives
//! and its interleavings are explored exhaustively.
//!
//! Protocol summary (see the method docs for the ordering arguments):
//!
//! * A producer [`reserve`](SlotRing::reserve)s a sequence number with one
//!   `fetch_add`, claims its slot ([`GroupCommit::claim_slot`] — a wait only
//!   when the reservation is a whole ring ahead of the log), and publishes
//!   with [`fill`](SlotRing::fill).
//! * There is no consumer thread. A caller of [`GroupCommit::wait`] whose
//!   sequence number is not durable and that finds no flush in flight
//!   becomes the *leader*: it takes the contiguous ready slots in sequence
//!   order ([`consume`](SlotRing::consume)), persists them as one batch,
//!   publishes the durable watermark and wakes the followers. A leader
//!   stopped by a slot nobody has filled yet releases leadership first and
//!   then parks on that slot ([`park_until_ready`](SlotRing::park_until_ready)).

use std::io;
use std::time::{Duration, Instant};

use stm_core::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use stm_core::sync::{Condvar, Mutex};

/// At shutdown, how long the final flush waits on a reservation that never
/// fills its slot before giving up on it.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(250);

/// One ring slot. `ready` holds `seq + 1` once the slot at
/// `seq % capacity` is filled for sequence `seq` (0 = empty); the `+ 1`
/// bias disambiguates the empty state from a filled seq-0 slot and lets the
/// consumer verify it is consuming exactly the generation it expects. The
/// per-slot mutex is touched by exactly one producer (the reservation
/// holder) and the leader, so it is uncontended in steady state — nothing
/// process-wide.
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
    /// Highest sequence number taken from the ring. Only the leader
    /// writes it, so it is also where the next flush starts.
    consumed: AtomicU64,
    slots: Vec<Slot>,
    /// Pairs with `work`: a parked leader re-checks its slot under this
    /// lock before sleeping, so a producer that fills the slot and then
    /// finds `parked` raised cannot lose its wakeup.
    work_lock: Mutex<()>,
    work: Condvar,
    /// Threads parked on a pending slot; producers and consumers skip the
    /// `work_lock` round-trip entirely while it is zero.
    parked: AtomicU64,
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
            parked: AtomicU64::new(0),
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

    /// Highest sequence number taken from the ring.
    pub(crate) fn consumed(&self) -> u64 {
        // ordering: pairs with the `consumed` store in `consume` — the
        // backpressure check in `claim_slot` and the parked re-check in
        // `park_until_ready` must not miss progress.
        self.consumed.load(Ordering::SeqCst)
    }

    /// Reserved-but-unconsumed sequence numbers as of this call
    /// (occupancy telemetry).
    pub(crate) fn occupancy(&self) -> u64 {
        self.next_seq().saturating_sub(self.consumed() + 1)
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

    /// Whether the slot for `seq` is free — its previous occupant
    /// (`seq - capacity`) consumed — which in-order consumption reduces to
    /// `seq <= consumed + capacity`.
    fn slot_free(&self, seq: u64) -> bool {
        seq <= self.consumed() + self.capacity
    }

    /// Publishes the filled (or abandoned) slot for `seq` and wakes parked
    /// leaders.
    pub(crate) fn fill(&self, seq: u64, bytes: Vec<u8>, committed: bool) {
        let slot = &self.slots[(seq % self.capacity) as usize];
        {
            let mut data = slot.data.lock();
            data.bytes = bytes;
            data.committed = committed;
        }
        // ordering: the release point of the publication — and one half of
        // the Dekker pairing with the park sequence. A parker raises
        // `parked`, then re-checks `ready` under `work_lock`; we store
        // `ready`, then check `parked`. SeqCst makes at least one side
        // observe the other (proven by
        // `models::ring_parked_consumer_never_misses_a_fill`), and taking
        // `work_lock` before notifying serializes against the
        // check-then-wait so the wakeup cannot fall between them.
        slot.ready.store(seq + 1, Ordering::SeqCst);
        self.wake_parked();
    }

    /// Takes the slot for `seq` if it is published, marking it consumed.
    /// The leader calls this with strictly increasing `seq`; a pending slot
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
        // `consumed` bump — a producer admitted by `claim_slot` may
        // immediately reuse this slot for `seq + capacity`.
        slot.ready.store(0, Ordering::SeqCst);
        // ordering: pairs with `claim_slot`'s backpressure check and with
        // the parked re-check (a parker whose slot another leader consumed
        // must see it or be woken by `wake_parked`).
        self.consumed.store(seq, Ordering::SeqCst);
        Some((bytes, committed))
    }

    /// Wakes every parked leader if there is one: after a fill, and after a
    /// drain that consumed something (a slot someone parked on may have
    /// been consumed by another leader before they parked).
    fn wake_parked(&self) {
        // ordering: the second half of the Dekker pairings described in
        // `fill` and `consume`.
        if self.parked.load(Ordering::SeqCst) > 0 {
            drop(self.work_lock.lock());
            self.work.notify_all();
        }
    }

    /// Parks until the slot for `seq` is published or consumed, or
    /// `cancel` reports shutdown. Raising `parked` plus the re-check under
    /// `work_lock` pairs with `fill`'s publish-then-notify and with the
    /// leader's consume-then-notify, so the wakeup cannot be lost. May
    /// return early; callers re-check.
    pub(crate) fn park_until_ready(&self, seq: u64, cancel: impl Fn() -> bool) {
        // ordering: Dekker pairing with `fill` and `consume` — see `fill`.
        self.parked.fetch_add(1, Ordering::SeqCst);
        {
            let mut guard = self.work_lock.lock();
            if self.consumed() < seq && !self.slot_ready(seq) && !cancel() {
                self.work.wait(&mut guard);
            }
        }
        // ordering: see above.
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wakes every parked leader unconditionally — shutdown and failure.
    /// Takes the pairing lock first so the wakeup cannot fall between
    /// anyone's check and wait.
    fn wake_all(&self) {
        drop(self.work_lock.lock());
        self.work.notify_all();
    }
}

/// One contiguous run of committed records drained from the ring.
pub(crate) struct Batch {
    /// The records' encoded bytes, concatenated in sequence order.
    pub(crate) bytes: Vec<u8>,
    /// Committed records in `bytes` (abandoned tickets carry none).
    pub(crate) records: u64,
    /// Sequence number of the first record in `bytes`.
    pub(crate) first_seq: u64,
}

/// The durable watermark and the leader flag, under one lock.
struct Watermark {
    /// Highest sequence number covered by a completed flush.
    durable: u64,
    /// Set while a leader is flushing; whoever sets it owns the sink.
    flushing: bool,
}

/// Group commit without a writer thread: the slot ring, the durable
/// watermark, and the sink `W` that only the current leader touches. See
/// the [module docs](self).
///
/// Every operation that may flush takes `persist`, which writes one batch
/// to `W` and makes it durable. An error from it fails the log for good:
/// the watermark never advances again and nothing more is persisted, so a
/// durability promise is never built on a record that may not be on disk,
/// and nothing is appended after a possibly-torn write.
pub(crate) struct GroupCommit<W> {
    pub(crate) ring: SlotRing,
    watermark: Mutex<Watermark>,
    /// Followers wait here for the leader to publish; failure and shutdown
    /// wake them too.
    durable_cv: Condvar,
    /// Locked only by the holder of `flushing`, so never contended; the
    /// lock hands the sink from one leader to the next.
    sink: Mutex<W>,
    /// Set when `persist` failed (see the type docs).
    failed: AtomicBool,
    /// Set by [`GroupCommit::shutdown`].
    stop: AtomicBool,
}

impl<W> GroupCommit<W> {
    /// A group commit over a `capacity`-slot ring whose next reservation is
    /// `next_seq`; everything below it is durable already.
    pub(crate) fn new(capacity: usize, next_seq: u64, sink: W) -> GroupCommit<W> {
        GroupCommit {
            ring: SlotRing::new(capacity, next_seq),
            watermark: Mutex::new(Watermark {
                durable: next_seq.saturating_sub(1),
                flushing: false,
            }),
            durable_cv: Condvar::new(),
            sink: Mutex::new(sink),
            failed: AtomicBool::new(false),
            stop: AtomicBool::new(false),
        }
    }

    /// Highest sequence number covered by a completed flush.
    pub(crate) fn durable(&self) -> u64 {
        self.watermark.lock().durable
    }

    /// Whether `persist` ever failed.
    pub(crate) fn is_failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }

    /// `true` once the log failed or is stopping: commits skip logging and
    /// waits report `false`.
    fn is_dead(&self) -> bool {
        self.is_failed() || self.stop.load(Ordering::Relaxed)
    }

    /// Makes the slot for the reservation `seq` free to fill. Cold path:
    /// only a reservation a whole ring ahead of the log waits, and it waits
    /// the way every other waiter does — by leading a flush if none is in
    /// flight. Returns `false` (skip logging) when the log is dead.
    pub(crate) fn claim_slot(
        &self,
        seq: u64,
        persist: impl Fn(&mut W, &Batch) -> io::Result<()>,
    ) -> bool {
        !self.is_dead()
            && (self.ring.slot_free(seq) || self.wait(seq - self.ring.capacity, persist))
    }

    /// Blocks until `seq` is durable, leading flushes while none is in
    /// flight. Returns `false` when the log failed or is stopping before
    /// that happened — never blocking on a watermark that cannot advance.
    pub(crate) fn wait(
        &self,
        seq: u64,
        persist: impl Fn(&mut W, &Batch) -> io::Result<()>,
    ) -> bool {
        let mut mark = self.watermark.lock();
        loop {
            if mark.durable >= seq {
                return true;
            }
            if self.is_dead() {
                return false;
            }
            if mark.flushing {
                // The leader publishes under this lock, then notifies.
                self.durable_cv.wait(&mut mark);
                continue;
            }
            mark.flushing = true;
            drop(mark);
            let next = self.lead(&persist);
            if next <= seq {
                // A lower reservation has not filled its slot yet. The flag
                // is released already, so a backpressured filler can lead
                // meanwhile; park on the gap rather than spin on it.
                self.ring.park_until_ready(next, || self.is_dead());
            }
            mark = self.watermark.lock();
        }
    }

    /// One flush, by the holder of the `flushing` flag: drains every
    /// contiguous ready slot, persists the committed records among them as
    /// one batch, publishes the consumed prefix as durable, and releases
    /// the flag. Returns the next sequence number still to consume.
    fn lead(&self, persist: &impl Fn(&mut W, &Batch) -> io::Result<()>) -> u64 {
        let mut sink = self.sink.lock();
        let first = self.ring.consumed() + 1;
        let mut next = first;
        let mut batch = Batch {
            bytes: Vec::new(),
            records: 0,
            first_seq: first,
        };
        // Strictly in-order consumption is what turns per-commit seq
        // reservations back into a totally ordered on-disk stream.
        while let Some((bytes, committed)) = self.ring.consume(next) {
            if committed {
                if batch.records == 0 {
                    batch.bytes = bytes;
                    batch.first_seq = next;
                } else {
                    batch.bytes.extend_from_slice(&bytes);
                }
                batch.records += 1;
            }
            next += 1;
        }
        if next > first {
            // Someone may be parked on a slot this flush consumed. Waking
            // them on progress only keeps two leaders parked on the same
            // gap from waking each other in turn.
            self.ring.wake_parked();
        }
        let persisted = if batch.records == 0 {
            Ok(())
        } else {
            persist(&mut sink, &batch)
        };
        drop(sink);
        if let Err(err) = &persisted {
            self.fail(err);
        }
        let mut mark = self.watermark.lock();
        if persisted.is_ok() {
            // Every consumed committed record is on disk, so the whole
            // consumed prefix is durable — abandoned tickets trivially so.
            mark.durable = next - 1;
        }
        mark.flushing = false;
        drop(mark);
        self.durable_cv.notify_all();
        next
    }

    /// Latches the failure and wakes every waiter so it observes it.
    fn fail(&self, err: &io::Error) {
        // ordering: first-failure latch; SeqCst orders the flag ahead of the
        // wakeups below so woken waiters observe it and bail.
        if !self.failed.swap(true, Ordering::SeqCst) {
            eprintln!(
                "stm-log: {err} — the log stopped; durability is disabled from this point \
                 (commits continue in memory, wait_durable now reports failure)"
            );
        }
        self.wake_all();
    }

    /// Wakes followers and parked leaders. Takes each pairing lock before
    /// notifying so the wakeup cannot fall between anyone's check and wait.
    fn wake_all(&self) {
        drop(self.watermark.lock());
        self.durable_cv.notify_all();
        self.ring.wake_all();
    }

    /// Stops the log: from here on commits skip logging and waits return
    /// `false`. Then flushes inline until every reservation handed out so
    /// far is consumed, giving up on a reservation that never fills its
    /// slot (its thread bailed or died mid-commit) once nothing has been
    /// consumed for [`SHUTDOWN_GRACE`]. Idempotent.
    pub(crate) fn shutdown(&self, persist: impl Fn(&mut W, &Batch) -> io::Result<()>) {
        // ordering: the stop latch must be visible before the wakeups below
        // — a woken waiter re-checks it and must see it set.
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.wake_all();
        let mut last_progress = Instant::now();
        loop {
            let mut mark = self.watermark.lock();
            while mark.flushing {
                self.durable_cv.wait(&mut mark);
            }
            if self.is_failed() {
                return;
            }
            mark.flushing = true;
            drop(mark);
            let consumed = self.ring.consumed();
            let next = self.lead(&persist);
            if next == self.ring.next_seq() {
                return;
            }
            if next > consumed + 1 {
                last_progress = Instant::now();
            } else if last_progress.elapsed() > SHUTDOWN_GRACE {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
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
        assert_eq!(ring.occupancy(), 0);
    }

    #[test]
    fn abandoned_tickets_flow_through() {
        let ring = SlotRing::new(2, 7);
        assert_eq!(ring.reserve(), 7);
        ring.fill(7, Vec::new(), false);
        assert_eq!(ring.consume(7), Some((Vec::new(), false)));
    }

    /// A sink that records each batch's sequence numbers (every payload is
    /// its own one-byte seq).
    fn record_batch(sink: &mut Vec<Vec<u8>>, batch: &Batch) -> io::Result<()> {
        assert_eq!(batch.records as usize, batch.bytes.len());
        assert_eq!(u64::from(batch.bytes[0]), batch.first_seq);
        sink.push(batch.bytes.clone());
        Ok(())
    }

    #[test]
    fn claim_slot_applies_backpressure_by_leading_and_aborts_when_stopped() {
        let group = GroupCommit::new(2, 1, Vec::new());
        // Within capacity: no wait at all.
        for seq in 1..=2 {
            assert_eq!(group.ring.reserve(), seq);
            assert!(group.claim_slot(seq, record_batch));
            group.ring.fill(seq, vec![seq as u8], true);
        }
        // seq 3 is a full ring ahead of consumed == 0: it leads a flush.
        assert_eq!(group.ring.reserve(), 3);
        assert!(group.claim_slot(3, record_batch));
        assert_eq!(group.durable(), 2);
        group.ring.fill(3, vec![3], true);
        assert!(group.wait(3, record_batch));
        assert_eq!(*group.sink.lock(), [vec![1, 2], vec![3]]);
        // A stopped log admits nothing and acknowledges nothing new.
        group.shutdown(record_batch);
        assert!(!group.claim_slot(group.ring.reserve(), record_batch));
        assert!(group.wait(3, record_batch), "already durable stays durable");
        assert!(!group.wait(4, record_batch));
    }

    #[test]
    fn a_waiter_behind_a_gap_parks_until_the_filler_arrives() {
        let group = GroupCommit::new(4, 1, Vec::new());
        let (gap, mine) = (group.ring.reserve(), group.ring.reserve());
        group.ring.fill(mine, vec![mine as u8], true);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                group.ring.fill(gap, vec![gap as u8], true);
            });
            assert!(group.wait(mine, record_batch));
        });
        assert_eq!(group.durable(), 2);
        assert_eq!(group.sink.lock().concat(), [1, 2]);
    }

    #[test]
    fn a_failed_persist_stops_the_log_for_good() {
        let group = GroupCommit::new(4, 1, 0u32);
        let failing = |calls: &mut u32, _: &Batch| {
            *calls += 1;
            Err(io::Error::other("disk gone"))
        };
        let seq = group.ring.reserve();
        group.ring.fill(seq, vec![1], true);
        assert!(!group.wait(seq, failing));
        assert!(group.is_failed());
        assert_eq!(
            group.durable(),
            0,
            "the watermark never covers a failed batch"
        );
        let seq = group.ring.reserve();
        assert!(!group.claim_slot(seq, failing));
        assert!(!group.wait(seq, failing));
        group.shutdown(failing);
        assert_eq!(
            *group.sink.lock(),
            1,
            "nothing is persisted after a failure"
        );
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
