//! Transactional objects.
//!
//! A [`TVar<T>`] is an object-granularity transactional cell in the style of
//! DSTM: its current state is described by a *locator* that records the
//! transaction that most recently acquired the object for writing together
//! with the object's value before (`old`) and after (`new`) that
//! transaction. The logically current value is therefore a function of the
//! owner's status word:
//!
//! | owner status | current value |
//! |--------------|---------------|
//! | none         | `new` (baseline) |
//! | `Active`     | `old` (the writer has not committed yet) |
//! | `Committed`  | `new` |
//! | `Aborted`    | `old` |
//!
//! Acquiring an object means atomically replacing its locator with one that
//! names the acquiring transaction; committing or aborting the transaction
//! then flips the meaning of every locator it installed at once, via the
//! single status-word CAS. This is what makes the design obstruction-free at
//! the transaction level: no transaction ever holds a lock across user code.
//!
//! *Implementation note (what stands in for DSTM's garbage collector):*
//! DSTM publishes locators with a raw pointer CAS and relies on garbage
//! collection. Locator publication here is the same single pointer CAS,
//! through the vendored `arcswap` atomic-`Arc` cell; the garbage collector
//! is substituted by `arcswap`'s counter-deferred reclamation (a displaced
//! locator is dropped only once no in-flight load can still dereference
//! it — see `vendor/arcswap`'s crate docs for the grace protocol). The
//! `unsafe` that DSTM's pointer games require lives entirely in that
//! vendored crate; this crate stays `forbid(unsafe_code)`. The transaction
//! status word — the CAS the contention-management protocol actually
//! relies on — was always a true lock-free CAS.
//!
//! An object is its locator and its reader word, nothing else. Every
//! transactional read is visible: the reader registers on the object, and a
//! writer that acquires the object arbitrates with each registered reader.
//!
//! **The slot table.** A process-global `ReaderTable` has
//! [`READER_SLOTS`] (48) slots. Each live [`crate::ThreadCtx`] claims one
//! (a `ReaderSlot`) and publishes each attempt's descriptor into it before
//! the attempt's body runs: one uncontended lock per attempt, none per read.
//! An object's reader word is a bitmap over the slots. A read registers with
//! one `fetch_or(bit, AcqRel)`, and the prior bit is the dedupe: a
//! transaction that reads an object twice registers once. Finishing the
//! attempt (commit, abort or unwind) clears its bits with
//! `fetch_and(!bit, Release)`.
//!
//! **The handshake.** A writer first CASes the locator, then does an RMW on
//! the word (`fetch_or(0, AcqRel)`), not a plain load. A reader first
//! registers with its RMW, then loads the locator. The two RMWs are ordered
//! in the word's modification order, and each reads the latest value:
//!
//! * if the reader's RMW comes first, the writer's RMW reads its bit;
//! * if the writer's RMW comes first, the reader's RMW reads from it (or from
//!   a later RMW, which continues the release sequence), so the writer's RMW
//!   synchronizes with the reader's, the locator CAS happens before the
//!   reader's locator load, and the reader sees the writer.
//!
//! They can never both miss. (This is the argument that lets one word do
//! what a mutex did; it is the RMW-ordering argument of Aspnes' notes on
//! distributed systems, and the model in `crate::models` checks it on these
//! very methods.)
//!
//! **Arbitration.** For each set bit other than its own, the writer loads
//! that slot's descriptor and re-reads the word, and skips the slot if the
//! bit has cleared. The slot's owner cleared its bits before it published
//! its next attempt, and the slot's lock orders that publication before the
//! writer's load, so a bit still set is the published attempt's own
//! registration: the writer never arbitrates with a slot's next transaction
//! that never read the object.
//!
//! **Overflow.** Contexts past the 48th get an overflow slot. The word's top
//! 16 bits count overflow registrations: an overflow reader `fetch_add`s and
//! `fetch_sub`s the count with the same orderings, and its descriptor sits in
//! one overflow list on the table. A writer that sees a non-zero count
//! arbitrates with every active overflow attempt. That may over-arbitrate,
//! but it can never miss a reader. An overflow slot has no bit to dedupe on,
//! so its transaction dedupes against its read set; one registration per
//! object per overflow context keeps the count below 2^16, and claiming past
//! `READER_SLOTS + u16::MAX` live contexts panics.
//!
//! The atomics and locks come from [`crate::sync`], so under
//! `--features model-check` the bounded model in `crate::models` drives
//! these very methods over a table of its own.

use std::sync::OnceLock;

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, Mutex};

use arcswap::ArcSwap;

use crate::txn::TxShared;

/// Reader slots in the process-global table: one bit each in an object's
/// reader word. Contexts past this many live ones register through the
/// overflow count instead (see the module docs).
pub const READER_SLOTS: usize = 48;

/// The overflow registration count occupies the word above the slot bits.
const OVERFLOW_SHIFT: u32 = READER_SLOTS as u32;
const OVERFLOW_ONE: u64 = 1 << OVERFLOW_SHIFT;
const SLOT_BITS: u64 = OVERFLOW_ONE - 1;

/// Live overflow contexts at most: each registers at most once per object,
/// so the 16-bit count cannot wrap.
const MAX_OVERFLOW: usize = u16::MAX as usize;

/// The process-global table of reader slots (see the module docs).
pub(crate) struct ReaderTable {
    /// Each slot's current attempt.
    slots: [Mutex<Option<Arc<TxShared>>>; READER_SLOTS],
    /// Bit `i` set: slot `i` is claimed by a live context.
    claimed: Mutex<u64>,
    overflow: Mutex<Overflow>,
}

/// The overflow contexts' current attempts, by overflow index.
#[derive(Default)]
struct Overflow {
    attempts: Vec<Option<Arc<TxShared>>>,
    free: Vec<usize>,
}

impl ReaderTable {
    /// A table with every slot free. The runtime uses [`ReaderTable::global`];
    /// the models build their own (loomlite types are not `const`).
    pub(crate) fn new() -> Self {
        ReaderTable {
            slots: std::array::from_fn(|_| Mutex::new(None)),
            claimed: Mutex::new(0),
            overflow: Mutex::new(Overflow::default()),
        }
    }

    /// The table every [`crate::ThreadCtx`] claims its slot from.
    pub(crate) fn global() -> &'static Arc<ReaderTable> {
        static TABLE: OnceLock<Arc<ReaderTable>> = OnceLock::new();
        TABLE.get_or_init(|| Arc::new(ReaderTable::new()))
    }

    /// Claims the lowest free slot, or an overflow slot when all are taken.
    ///
    /// # Panics
    ///
    /// When `READER_SLOTS + u16::MAX` contexts are already live.
    pub(crate) fn claim(table: &Arc<ReaderTable>) -> ReaderSlot {
        let index = {
            let mut claimed = table.claimed.lock();
            let free = !*claimed & SLOT_BITS;
            (free != 0).then(|| {
                let index = free.trailing_zeros() as usize;
                *claimed |= 1 << index;
                index
            })
        };
        let index = index.unwrap_or_else(|| {
            let mut overflow = table.overflow.lock();
            let live = overflow.attempts.len() - overflow.free.len();
            assert!(
                live < MAX_OVERFLOW,
                "more than {} live thread contexts",
                READER_SLOTS + MAX_OVERFLOW
            );
            let k = overflow.free.pop().unwrap_or_else(|| {
                overflow.attempts.push(None);
                overflow.attempts.len() - 1
            });
            READER_SLOTS + k
        });
        ReaderSlot {
            table: Arc::clone(table),
            index,
        }
    }

    /// The active overflow attempts other than `me`'s.
    fn overflow_attempts(&self, me: &ReaderSlot) -> Vec<Arc<TxShared>> {
        let overflow = self.overflow.lock();
        overflow
            .attempts
            .iter()
            .enumerate()
            .filter(|&(k, _)| READER_SLOTS + k != me.index)
            .filter_map(|(_, attempt)| attempt.clone())
            .collect()
    }
}

/// A live context's claim on the [`ReaderTable`]: one slot (a bit in every
/// object's reader word) or an overflow slot. Dropping it frees the claim.
pub(crate) struct ReaderSlot {
    table: Arc<ReaderTable>,
    /// Below [`READER_SLOTS`] a slot; otherwise `READER_SLOTS` plus an
    /// overflow index.
    index: usize,
}

impl ReaderSlot {
    /// This slot's bit in a reader word; 0 for an overflow slot.
    fn bit(&self) -> u64 {
        if self.is_overflow() {
            0
        } else {
            1 << self.index
        }
    }

    /// Whether this is an overflow slot, with no bit of its own.
    pub(crate) fn is_overflow(&self) -> bool {
        self.index >= READER_SLOTS
    }

    /// Makes `attempt` the slot's current attempt, the one a writer that
    /// sees this slot's registration arbitrates with. The runtime calls it
    /// before each attempt's body runs.
    pub(crate) fn publish(&self, attempt: &Arc<TxShared>) {
        self.set(Some(Arc::clone(attempt)));
    }

    fn set(&self, attempt: Option<Arc<TxShared>>) {
        // The guard is a temporary: the previous attempt drops after it.
        let _previous = if self.is_overflow() {
            let index = self.index - READER_SLOTS;
            std::mem::replace(&mut self.table.overflow.lock().attempts[index], attempt)
        } else {
            std::mem::replace(&mut *self.table.slots[self.index].lock(), attempt)
        };
    }
}

impl Drop for ReaderSlot {
    fn drop(&mut self) {
        self.set(None);
        if self.is_overflow() {
            let index = self.index - READER_SLOTS;
            self.table.overflow.lock().free.push(index);
        } else {
            *self.table.claimed.lock() &= !self.bit();
        }
    }
}

/// A locator names the last writer of an object together with the object
/// value before and after that writer.
#[derive(Debug)]
pub(crate) struct Locator<T> {
    owner: Option<Arc<TxShared>>,
    old: Arc<T>,
    new: ArcSwap<T>,
}

impl<T> Locator<T> {
    /// A locator for an object with no pending writer.
    pub(crate) fn baseline(value: Arc<T>) -> Self {
        Locator {
            owner: None,
            old: Arc::clone(&value),
            new: ArcSwap::new(value),
        }
    }

    /// A locator installed by `owner`, recording the pre-state `old` and the
    /// tentative post-state `new`.
    pub(crate) fn owned(owner: Arc<TxShared>, old: Arc<T>, new: Arc<T>) -> Self {
        Locator {
            owner: Some(owner),
            old,
            new: ArcSwap::new(new),
        }
    }

    /// The transaction that installed this locator, if any.
    pub(crate) fn owner(&self) -> Option<&Arc<TxShared>> {
        self.owner.as_ref()
    }

    /// The tentative new value written by the owner.
    pub(crate) fn new_value(&self) -> Arc<T> {
        self.new.load_full()
    }

    /// Replaces the tentative new value (only the owner does this, while it
    /// is still active).
    pub(crate) fn set_new_value(&self, value: Arc<T>) {
        self.new.store(value);
    }

    /// The logically current (most recently committed) value described by
    /// this locator.
    pub(crate) fn stable_value(&self) -> Arc<T> {
        match &self.owner {
            // A baseline locator has no owner and therefore no one who may
            // call `set_new_value`: `new` still holds the `Arc` it was
            // constructed with, which is the same one `old` holds. Cloning
            // `old` skips the atomic load of the `new` cell on the
            // read-mostly hot path.
            None => Arc::clone(&self.old),
            Some(owner) => {
                if owner.is_committed() {
                    self.new_value()
                } else {
                    Arc::clone(&self.old)
                }
            }
        }
    }
}

/// Shared interior of a [`TVar`]: its locator and its reader word.
#[derive(Debug)]
pub(crate) struct TVarInner<T> {
    locator: ArcSwap<Locator<T>>,
    /// Bit `i`: slot `i`'s attempt has registered. The top 16 bits: the
    /// count of overflow registrations.
    readers: AtomicU64,
}

impl<T> TVarInner<T> {
    fn new(value: T) -> Self {
        TVarInner {
            locator: ArcSwap::from_value(Locator::baseline(Arc::new(value))),
            readers: AtomicU64::new(0),
        }
    }

    /// Loads the current locator.
    pub(crate) fn load_locator(&self) -> Arc<Locator<T>> {
        self.locator.load_full()
    }

    /// Borrows the current locator without taking a reference count on it —
    /// the read path's load. The returned guard pins the locator against
    /// reclamation (readers counter, see `vendor/arcswap`) but skips the
    /// `Arc` clone/drop pair `load_locator` pays; use it whenever the
    /// locator is only inspected transiently and never retained.
    pub(crate) fn peek_locator(&self) -> arcswap::Guard<'_, Locator<T>> {
        self.locator.load()
    }

    /// Replaces the locator with `new` if the current locator is still
    /// (pointer-)equal to `expected`. Returns `true` on success. This is
    /// DSTM's acquisition step: a single pointer compare-exchange, no lock.
    pub(crate) fn try_replace_locator(
        &self,
        expected: &Arc<Locator<T>>,
        new: Arc<Locator<T>>,
    ) -> bool {
        self.locator.compare_and_swap(expected, new)
    }

    /// Registers `slot`'s current attempt as a visible reader, before the
    /// caller loads the locator. Returns `true` if it was not registered
    /// already. An overflow slot has no bit to tell, so it always counts
    /// itself in and returns `true`: its caller dedupes.
    pub(crate) fn register_reader(&self, slot: &ReaderSlot) -> bool {
        let bit = slot.bit();
        if bit == 0 {
            // ordering: AcqRel, the reader's half of the RMW handshake (module
            // docs), as for a slot's bit below.
            self.readers.fetch_add(OVERFLOW_ONE, Ordering::AcqRel);
            return true;
        }
        // ordering: AcqRel — release publishes the slot's attempt to a writer
        // whose RMW reads this bit; acquire makes a writer's earlier RMW (and
        // its locator CAS) visible to the locator load that follows.
        self.readers.fetch_or(bit, Ordering::AcqRel) & bit == 0
    }

    /// Withdraws `slot`'s registration once its attempt has finished.
    pub(crate) fn unregister_reader(&self, slot: &ReaderSlot) {
        match slot.bit() {
            // ordering: release — a writer whose RMW reads the cleared word
            // sees the attempt finished.
            0 => self.readers.fetch_sub(OVERFLOW_ONE, Ordering::Release),
            // ordering: release, as above.
            bit => self.readers.fetch_and(!bit, Ordering::Release),
        };
    }

    /// Visits every active registered reader other than `me`, after the
    /// caller has CASed the locator to name itself: the writer's half of
    /// the handshake. No `Vec` is built unless overflow readers are counted.
    pub(crate) fn active_readers<E>(
        &self,
        me: &ReaderSlot,
        visit: impl FnMut(&Arc<TxShared>) -> Result<(), E>,
    ) -> Result<(), E> {
        // ordering: AcqRel on an RMW, not a load: ordered against every
        // reader's RMW in the word's modification order, so either this reads
        // the reader's bit or the reader's RMW reads from this one and its
        // locator load sees the caller's CAS (module docs; the model in
        // `crate::models` checks it).
        let word = self.readers.fetch_or(0, Ordering::AcqRel);
        self.visit_readers(word, me, visit)
    }

    /// The arbitration walk over a word the writer has read: for each other
    /// set bit, the slot's descriptor, kept only if the bit is still set
    /// after the descriptor was loaded; then every active overflow attempt if
    /// the overflow count is non-zero.
    pub(crate) fn visit_readers<E>(
        &self,
        word: u64,
        me: &ReaderSlot,
        mut visit: impl FnMut(&Arc<TxShared>) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut bits = word & SLOT_BITS & !me.bit();
        while bits != 0 {
            let index = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let Some(reader) = me.table.slots[index].lock().clone() else {
                continue;
            };
            // ordering: acquire, pairing with the clear's release. The slot
            // lock ordered the owner's clear of its last attempt's bits before
            // this load, so a bit still set is `reader`'s own registration.
            if self.readers.load(Ordering::Acquire) & (1 << index) == 0 {
                continue;
            }
            if reader.is_active() {
                visit(&reader)?;
            }
        }
        if word >> OVERFLOW_SHIFT != 0 {
            for reader in me.table.overflow_attempts(me) {
                if reader.is_active() {
                    visit(&reader)?;
                }
            }
        }
        Ok(())
    }

    /// The reader word as it stands (tests, and the models' weakened
    /// writer).
    #[cfg(any(test, feature = "model-check"))]
    pub(crate) fn reader_word(&self) -> u64 {
        // ordering: acquire, as the re-read in `visit_readers`.
        self.readers.load(Ordering::Acquire)
    }
}

/// A transactional memory cell holding a value of type `T`.
///
/// `TVar`s are cheap to clone (clones share the same underlying object) and
/// are accessed inside transactions through [`crate::Txn::read`],
/// [`crate::Txn::write`] and [`crate::Txn::modify`].
///
/// ```
/// use stm_core::{Stm, TVar};
/// let stm = Stm::default();
/// let v = TVar::new(1u32);
/// let mut ctx = stm.thread();
/// ctx.atomically(|tx| tx.modify(&v, |x| x + 1)).unwrap();
/// assert_eq!(stm.read_atomic(&v), 2);
/// ```
#[derive(Debug)]
pub struct TVar<T> {
    inner: Arc<TVarInner<T>>,
}

impl<T> Clone for TVar<T> {
    fn clone(&self) -> Self {
        TVar {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Send + Sync> TVar<T> {
    /// Creates a new transactional cell holding `value`.
    pub fn new(value: T) -> Self {
        TVar {
            inner: Arc::new(TVarInner::new(value)),
        }
    }

    /// Returns `true` if `self` and `other` refer to the same object.
    pub fn same_object(&self, other: &TVar<T>) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    pub(crate) fn inner(&self) -> &Arc<TVarInner<T>> {
        &self.inner
    }
}

impl<T: Send + Sync> TVar<T> {
    /// Reads the most recently committed value outside of any transaction.
    ///
    /// This is a single-object snapshot; it is linearizable for the one
    /// object but offers no consistency across objects. Use a transaction
    /// for multi-object reads.
    pub fn load_committed_arc(&self) -> Arc<T> {
        self.inner.peek_locator().stable_value()
    }
}

impl<T: Clone + Send + Sync> TVar<T> {
    /// Like [`TVar::load_committed_arc`] but returns a clone of the value.
    pub fn load_committed(&self) -> T {
        (*self.load_committed_arc()).clone()
    }
}

impl<T: Default + Send + Sync> Default for TVar<T> {
    fn default() -> Self {
        TVar::new(T::default())
    }
}

/// A read tracked by a transaction, for cleanup. Stored as
/// `Arc<dyn TrackedRead>` so the read set can hold the object's own `Arc`
/// (`Sync` is required for that sharing).
pub(crate) trait TrackedRead: Send + Sync {
    /// Releases the registration `slot`'s attempt holds on the object.
    fn release(&self, slot: &ReaderSlot);
}

/// A read is tracked by the object itself: the registration lives in the
/// object's reader word and release clears it. The read set stores the
/// object directly (an `Arc` clone of `TVarInner`) rather than boxing a
/// wrapper, which keeps the read fast path free of per-read heap
/// allocation.
impl<T: Send + Sync> TrackedRead for TVarInner<T> {
    fn release(&self, slot: &ReaderSlot) {
        self.unregister_reader(slot);
    }
}

/// A write (acquisition) performed by a transaction.
pub(crate) trait TrackedWrite: Send {
    /// After commit, collapses the locator chain so later readers do not need
    /// to chase the (now committed) owner's status.
    fn detach_committed(&self);
}

/// The record of an object acquisition.
pub(crate) struct OwnedWrite<T> {
    inner: Arc<TVarInner<T>>,
    locator: Arc<Locator<T>>,
}

impl<T> OwnedWrite<T> {
    pub(crate) fn new(inner: Arc<TVarInner<T>>, locator: Arc<Locator<T>>) -> Self {
        OwnedWrite { inner, locator }
    }
}

impl<T: Send + Sync> TrackedWrite for OwnedWrite<T> {
    fn detach_committed(&self) {
        let value = self.locator.new_value();
        let baseline = Arc::new(Locator::baseline(value));
        // If another transaction already replaced our locator this is a no-op.
        self.inner.try_replace_locator(&self.locator, baseline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::TxLineage;
    use crate::{Stm, TxResult};
    use std::mem::size_of;

    /// A running attempt with transaction id `id`.
    fn reader(id: u64) -> Arc<TxShared> {
        Arc::new(TxShared::new(Arc::new(TxLineage::new(id, id)), 1))
    }

    #[test]
    fn an_object_is_its_locator_and_its_reader_word() {
        // No id, no other field: a count that holds on any host.
        assert_eq!(
            size_of::<TVarInner<i64>>(),
            size_of::<ArcSwap<Locator<i64>>>() + size_of::<AtomicU64>()
        );
    }

    #[test]
    fn same_object_compares_identity() {
        let a = TVar::new(0u8);
        let b = TVar::new(0u8);
        assert!(a.same_object(&a.clone()));
        assert!(!a.same_object(&b));
    }

    #[test]
    fn baseline_locator_exposes_value() {
        let v = TVar::new(41u32);
        assert_eq!(v.load_committed(), 41);
        assert_eq!(*v.load_committed_arc(), 41);
    }

    #[test]
    fn default_tvar_uses_default_value() {
        let v: TVar<u64> = TVar::default();
        assert_eq!(v.load_committed(), 0);
    }

    #[test]
    fn stable_value_follows_owner_status() {
        let old = Arc::new(1u32);
        let new = Arc::new(2u32);
        let owner = reader(1);
        let loc = Locator::owned(Arc::clone(&owner), Arc::clone(&old), Arc::clone(&new));
        // Active owner: the old value is current.
        assert_eq!(*loc.stable_value(), 1);
        assert!(owner.try_commit());
        assert_eq!(*loc.stable_value(), 2);

        let owner2 = reader(1);
        let loc2 = Locator::owned(Arc::clone(&owner2), old, new);
        assert!(owner2.try_abort());
        assert_eq!(*loc2.stable_value(), 1);
    }

    #[test]
    fn set_new_value_changes_committed_result() {
        let owner = reader(1);
        let loc = Locator::owned(Arc::clone(&owner), Arc::new(1u32), Arc::new(1u32));
        loc.set_new_value(Arc::new(99));
        owner.try_commit();
        assert_eq!(*loc.stable_value(), 99);
    }

    #[test]
    fn try_replace_locator_is_conditional() {
        let inner = TVarInner::new(5u32);
        let current = inner.load_locator();
        let replacement = Arc::new(Locator::baseline(Arc::new(6u32)));
        assert!(inner.try_replace_locator(&current, Arc::clone(&replacement)));
        // The original expectation is now stale.
        let stale = Arc::new(Locator::baseline(Arc::new(7u32)));
        assert!(!inner.try_replace_locator(&current, stale));
        assert_eq!(*inner.load_locator().stable_value(), 6);
    }

    /// Every active registered reader `me` would arbitrate with.
    fn scan(inner: &TVarInner<u32>, me: &ReaderSlot) -> Vec<Arc<TxShared>> {
        let mut seen = Vec::new();
        inner
            .active_readers(me, |r| {
                seen.push(Arc::clone(r));
                Ok::<_, ()>(())
            })
            .unwrap();
        seen
    }

    #[test]
    fn a_read_registers_once_and_the_prior_bit_is_the_dedupe() {
        let table = Arc::new(ReaderTable::new());
        let (a, b) = (ReaderTable::claim(&table), ReaderTable::claim(&table));
        let (ra, rb) = (reader(1), reader(2));
        a.publish(&ra);
        b.publish(&rb);
        let inner = TVarInner::new(0u32);
        assert!(inner.register_reader(&a));
        assert!(!inner.register_reader(&a), "the prior bit was set");
        assert!(inner.register_reader(&b));
        assert_eq!(inner.reader_word(), a.bit() | b.bit());
        // The scan leaves out `me`.
        let seen = scan(&inner, &b);
        assert_eq!(seen.len(), 1);
        assert!(Arc::ptr_eq(&seen[0], &ra));
        // A finished attempt whose slot published a successor that never
        // read the object is not arbitrated with.
        ra.try_commit();
        inner.unregister_reader(&a);
        a.publish(&reader(3));
        assert!(scan(&inner, &b).is_empty());
        inner.unregister_reader(&b);
        assert_eq!(inner.reader_word(), 0);
    }

    #[test]
    fn the_word_is_zero_after_a_commit_an_abort_and_a_panicking_body() {
        let stm = Stm::default();
        let v = TVar::new(0u32);
        let mut ctx = stm.thread();
        ctx.atomically(|tx| {
            tx.read(&v)?;
            tx.read(&v)
        })
        .unwrap();
        assert_eq!(v.inner().reader_word(), 0, "after a commit");
        let _ = ctx.atomically(|tx| {
            tx.read(&v)?;
            tx.abort::<()>()
        });
        assert_eq!(v.inner().reader_word(), 0, "after an abort");
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.atomically(|tx| -> TxResult<()> {
                tx.read(&v)?;
                panic!("body panics after its read")
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(v.inner().reader_word(), 0, "after a panicking body");
    }

    #[test]
    fn overflow_registrations_leave_the_word_at_zero() {
        let stm = Stm::default();
        // With every slot held, the next context overflows even while other
        // tests hold some; releasing the held ones keeps the overflow claim.
        let held: Vec<_> = (0..READER_SLOTS).map(|_| stm.thread()).collect();
        let mut ctx = stm.thread();
        drop(held);
        let v = TVar::new(0u32);
        ctx.atomically(|tx| {
            tx.read(&v)?;
            tx.read(&v)?;
            // One registration, in the count, deduped against the read set.
            assert_eq!(v.inner().reader_word(), OVERFLOW_ONE);
            Ok(())
        })
        .unwrap();
        assert_eq!(v.inner().reader_word(), 0, "after a commit");
        let _ = ctx.atomically(|tx| {
            tx.read(&v)?;
            tx.abort::<()>()
        });
        assert_eq!(v.inner().reader_word(), 0, "after an abort");
    }

    #[test]
    fn claims_past_the_slots_overflow_and_freed_claims_are_reused() {
        let table = Arc::new(ReaderTable::new());
        let mut held: Vec<_> = (0..READER_SLOTS)
            .map(|_| ReaderTable::claim(&table))
            .collect();
        assert!(held.iter().all(|slot| !slot.is_overflow()));
        let over = ReaderTable::claim(&table);
        assert!(over.is_overflow());
        held.truncate(READER_SLOTS - 1);
        assert!(!ReaderTable::claim(&table).is_overflow());
        drop(over);
        assert_eq!(table.overflow.lock().free.len(), 1);
    }

    #[test]
    fn detach_committed_collapses_locator() {
        let inner = Arc::new(TVarInner::new(1u32));
        let owner = reader(1);
        let current = inner.load_locator();
        let owned = Arc::new(Locator::owned(
            Arc::clone(&owner),
            current.stable_value(),
            Arc::new(10u32),
        ));
        assert!(inner.try_replace_locator(&current, Arc::clone(&owned)));
        owner.try_commit();
        let write = OwnedWrite::new(Arc::clone(&inner), owned);
        write.detach_committed();
        let loc = inner.load_locator();
        assert!(loc.owner().is_none());
        assert_eq!(*loc.stable_value(), 10);
    }
}
