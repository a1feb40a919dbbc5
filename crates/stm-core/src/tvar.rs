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
//! Acquiring an object means replacing its locator with one that names the
//! acquiring transaction; committing or aborting the transaction then flips
//! the meaning of every locator it installed at once, via the single
//! status-word CAS. No transaction holds a lock across user code, a
//! contention-manager call or a wait, so a transaction never blocks on
//! another's progress through its body; a lock holder that is descheduled
//! can still delay others for the length of its hold, as a reader slot's
//! lock already can.
//!
//! *Implementation note (what stands in for DSTM's garbage collector):*
//! DSTM publishes a fresh locator with a raw pointer CAS and relies on
//! garbage collection to free the displaced one. Here the locator is three
//! plain fields, `owner`, `old` and `new`, under the object's own short
//! lock, and is updated in place, so nothing is displaced that a concurrent
//! load could still be reading: no reclaimer is needed and the crate stays
//! `forbid(unsafe_code)`. The lock is held for a few loads and `Arc` clones
//! only, in four places: a read (and `Txn::owns`, and
//! [`TVar::load_committed_arc`]) inspects the owner and clones a value; an
//! acquire checks the owner, re-checks the acquiring attempt's status and
//! installs `(me, stable, stable)`; a write stores its tentative value if
//! the attempt still owns the object; a commit resets the locator to a
//! baseline if the attempt still owns it. A hold never spans user code, a
//! manager call, a wait or another object's lock, and the `Arc`s a hold
//! displaces drop after it is released (`T` may itself own `TVar`s). The
//! transaction status word — the CAS the contention-management protocol
//! actually relies on — is a true lock-free CAS.
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
//! one `fetch_or(bit, Release)`, and the prior bit is the dedupe: a
//! transaction that reads an object twice registers once. Finishing the
//! attempt (commit, abort or unwind) clears its bits with
//! `fetch_and(!bit, Release)`.
//!
//! **The handshake.** A reader first registers on the word, then takes the
//! object's lock to inspect the owner. A writer first takes the lock to
//! install itself as the owner, then loads the word. The lock totally orders
//! the reader's hold and the writer's:
//!
//! * if the reader's hold comes first, its registration is sequenced before
//!   its unlock, which happens before the writer's lock, so the writer's
//!   later load of the word sees the reader's bit (or a later value, which
//!   keeps the bit until the reader has finished);
//! * if the writer's hold comes first, the reader's hold sees the writer as
//!   the owner.
//!
//! They can never both miss. This is a mutual-exclusion argument, not an
//! ordering one (Aspnes' notes on distributed systems), and the model in
//! `crate::models` checks it on these very methods.
//!
//! **Arbitration.** For each set bit other than its own, the writer loads
//! that slot's descriptor and re-reads the word, and skips the slot if the
//! bit has cleared. The slot's owner cleared its bits before it published
//! its next attempt, and the slot's lock orders that publication before the
//! writer's load, so a bit still set is the published attempt's own
//! registration: the writer never arbitrates with a slot's next transaction
//! that never read the object. The registration's release and the writer's
//! acquire load of the word order the other way round: a writer that sees a
//! bit sees the attempt its slot published before registering.
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

use crate::error::{AbortCause, StmError, TxResult};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, Mutex};

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
/// value before and after that writer. It lives under its object's lock and
/// is updated in place.
#[derive(Debug)]
pub(crate) struct Locator<T> {
    owner: Option<Arc<TxShared>>,
    old: Arc<T>,
    new: Arc<T>,
}

impl<T> Locator<T> {
    /// A locator for an object with no pending writer.
    fn baseline(value: Arc<T>) -> Self {
        Locator {
            owner: None,
            old: Arc::clone(&value),
            new: value,
        }
    }

    fn is_owned_by(&self, me: &Arc<TxShared>) -> bool {
        self.owner
            .as_ref()
            .is_some_and(|owner| Arc::ptr_eq(owner, me))
    }

    /// The logically current (most recently committed) value described by
    /// this locator.
    fn stable_value(&self) -> Arc<T> {
        match &self.owner {
            Some(owner) if owner.is_committed() => Arc::clone(&self.new),
            _ => Arc::clone(&self.old),
        }
    }

    /// What `me` finds on opening the object.
    fn open(&self, me: &Arc<TxShared>) -> Open<T> {
        match &self.owner {
            Some(owner) if Arc::ptr_eq(owner, me) => Open::Mine(Arc::clone(&self.new)),
            Some(owner) if owner.is_active() => Open::Enemy(Arc::clone(owner)),
            _ => Open::Free(self.stable_value()),
        }
    }
}

/// What an attempt finds when it opens an object, read in one hold of the
/// object's lock.
pub(crate) enum Open<T> {
    /// The attempt owns the object: its tentative value.
    Mine(Arc<T>),
    /// Another attempt owns the object and is still active.
    Enemy(Arc<TxShared>),
    /// No active attempt owns the object: its committed value. After
    /// [`TVarInner::acquire`], the attempt now owns it with this value.
    Free(Arc<T>),
}

/// Shared interior of a [`TVar`]: its locator and its reader word.
#[derive(Debug)]
pub(crate) struct TVarInner<T> {
    locator: Mutex<Locator<T>>,
    /// Bit `i`: slot `i`'s attempt has registered. The top 16 bits: the
    /// count of overflow registrations.
    readers: AtomicU64,
}

impl<T> TVarInner<T> {
    fn new(value: T) -> Self {
        TVarInner {
            locator: Mutex::new(Locator::baseline(Arc::new(value))),
            readers: AtomicU64::new(0),
        }
    }

    /// A transactional read's look at the object: the caller registered as
    /// a reader first.
    pub(crate) fn open_read(&self, me: &Arc<TxShared>) -> Open<T> {
        self.locator.lock().open(me)
    }

    /// Whether `me` owns the object.
    pub(crate) fn is_owned_by(&self, me: &Arc<TxShared>) -> bool {
        self.locator.lock().is_owned_by(me)
    }

    /// The most recently committed value.
    fn stable_value(&self) -> Arc<T> {
        self.locator.lock().stable_value()
    }

    /// DSTM's acquisition step, in one hold of the lock: if no active
    /// attempt other than `me` owns the object, and `me` has not been
    /// aborted, `me` becomes its owner with the committed value as both its
    /// old and its tentative new value ([`Open::Free`]). Otherwise nothing
    /// changes: `me` already owns it ([`Open::Mine`]), an active enemy does
    /// ([`Open::Enemy`]), or `me` was aborted, which is an error so that no
    /// value an enemy committed after aborting `me` reaches user code.
    pub(crate) fn acquire(&self, me: &Arc<TxShared>) -> TxResult<Open<T>> {
        let mut locator = self.locator.lock();
        let open = locator.open(me);
        let Open::Free(stable) = &open else {
            return Ok(open);
        };
        if me.is_aborted() {
            return Err(StmError::Aborted(AbortCause::KilledByEnemy));
        }
        let mine = Locator {
            owner: Some(Arc::clone(me)),
            old: Arc::clone(stable),
            new: Arc::clone(stable),
        };
        let displaced = std::mem::replace(&mut *locator, mine);
        // `T` may own `TVar`s: what was displaced drops after the unlock.
        drop(locator);
        drop(displaced);
        Ok(open)
    }

    /// Stores `me`'s tentative value, computed outside the lock, if `me`
    /// still owns the object. Returns `false` when an enemy has acquired it
    /// since, which it can do only once `me` has been aborted.
    pub(crate) fn set_new_value(&self, me: &Arc<TxShared>, value: Arc<T>) -> bool {
        let mut locator = self.locator.lock();
        if !locator.is_owned_by(me) {
            return false;
        }
        let displaced = std::mem::replace(&mut locator.new, value);
        drop(locator);
        drop(displaced);
        true
    }

    /// Registers `slot`'s current attempt as a visible reader, before the
    /// caller opens the object. Returns `true` if it was not registered
    /// already. An overflow slot has no bit to tell, so it always counts
    /// itself in and returns `true`: its caller dedupes.
    pub(crate) fn register_reader(&self, slot: &ReaderSlot) -> bool {
        let bit = slot.bit();
        if bit == 0 {
            // ordering: Release, as for a slot's bit below; the overflow
            // attempt is published in the table's overflow list.
            self.readers.fetch_add(OVERFLOW_ONE, Ordering::Release);
            return true;
        }
        // ordering: Release publishes the slot's attempt to a writer whose
        // acquire load reads this bit, so it arbitrates with this attempt,
        // not a finished predecessor. The handshake itself needs no ordering
        // here: the object's lock orders this registration before a
        // writer's install, or the install before the reader's open (module
        // docs).
        self.readers.fetch_or(bit, Ordering::Release) & bit == 0
    }

    /// Withdraws `slot`'s registration once its attempt has finished.
    pub(crate) fn unregister_reader(&self, slot: &ReaderSlot) {
        match slot.bit() {
            // ordering: release — a writer whose load reads the cleared word
            // sees the attempt finished.
            0 => self.readers.fetch_sub(OVERFLOW_ONE, Ordering::Release),
            // ordering: release, as above.
            bit => self.readers.fetch_and(!bit, Ordering::Release),
        };
    }

    /// Visits every active registered reader other than `me`, after the
    /// caller has acquired the object: the writer's half of the handshake.
    /// For each other set bit, the slot's descriptor, kept only if the bit
    /// is still set after the descriptor was loaded; then every active
    /// overflow attempt if the overflow count is non-zero. No `Vec` is built
    /// unless overflow readers are counted.
    pub(crate) fn active_readers<E>(
        &self,
        me: &ReaderSlot,
        mut visit: impl FnMut(&Arc<TxShared>) -> Result<(), E>,
    ) -> Result<(), E> {
        // ordering: acquire, pairing with a registration's release so the
        // slot's published attempt is the one loaded below. The handshake
        // rests on the object's lock, not on this: the caller's acquire took
        // it after any reader that opened the object before, which makes
        // that reader's bit visible here (module docs; the model in
        // `crate::models` checks it).
        let word = self.readers.load(Ordering::Acquire);
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

    /// The reader word as it stands (tests).
    #[cfg(test)]
    pub(crate) fn reader_word(&self) -> u64 {
        // ordering: acquire, as the re-read in `active_readers`.
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

    /// The object's handle itself, for a read set that keeps it.
    pub(crate) fn into_inner(self) -> Arc<TVarInner<T>> {
        self.inner
    }
}

impl<T: Send + Sync> TVar<T> {
    /// Reads the most recently committed value outside of any transaction.
    ///
    /// This is a single-object snapshot; it is linearizable for the one
    /// object but offers no consistency across objects. Use a transaction
    /// for multi-object reads.
    pub fn load_committed_arc(&self) -> Arc<T> {
        self.inner.stable_value()
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

/// A write (acquisition) tracked by a transaction, for the commit. Stored as
/// `Arc<dyn TrackedWrite>`, like a read, so the write set holds the
/// object's own `Arc`.
pub(crate) trait TrackedWrite: Send + Sync {
    /// After `me` committed, resets the locator to a baseline holding `me`'s
    /// value, so later opens need not read `me`'s status. Nothing changes if
    /// another attempt has acquired the object since.
    fn detach_committed(&self, me: &Arc<TxShared>);
}

/// A write is tracked by the object itself: the write set stores an `Arc`
/// clone of `TVarInner`, with no per-write record to allocate.
impl<T: Send + Sync> TrackedWrite for TVarInner<T> {
    fn detach_committed(&self, me: &Arc<TxShared>) {
        let mut guard = self.locator.lock();
        if !guard.is_owned_by(me) {
            return;
        }
        let locator = &mut *guard;
        let displaced = (
            locator.owner.take(),
            std::mem::replace(&mut locator.old, Arc::clone(&locator.new)),
        );
        drop(guard);
        drop(displaced);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::AtomicBool;
    use crate::txn::TxLineage;
    use crate::{Stm, TxResult};
    use std::mem::size_of;

    /// A running attempt with transaction id `id`.
    fn reader(id: u64) -> Arc<TxShared> {
        Arc::new(TxShared::new(Arc::new(TxLineage::new(id, id)), 1))
    }

    #[test]
    fn an_object_is_its_locator_and_its_reader_word() {
        // No id, no other field, no indirection: counts that hold on any
        // host (40 bytes on 64-bit Linux).
        assert_eq!(
            size_of::<TVarInner<i64>>(),
            size_of::<Mutex<Locator<i64>>>() + size_of::<AtomicU64>()
        );
        assert_eq!(size_of::<Locator<i64>>(), 3 * size_of::<usize>());
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
        let (old, new) = (Arc::new(1u32), Arc::new(2u32));
        let owned_by = |owner: &Arc<TxShared>| Locator {
            owner: Some(Arc::clone(owner)),
            old: Arc::clone(&old),
            new: Arc::clone(&new),
        };
        let owner = reader(1);
        let loc = owned_by(&owner);
        // Active owner: the old value is current.
        assert_eq!(*loc.stable_value(), 1);
        assert!(owner.try_commit());
        assert_eq!(*loc.stable_value(), 2);

        let owner2 = reader(1);
        let loc2 = owned_by(&owner2);
        assert!(owner2.try_abort());
        assert_eq!(*loc2.stable_value(), 1);
    }

    #[test]
    fn set_new_value_changes_committed_result() {
        let inner = TVarInner::new(1u32);
        let owner = reader(1);
        assert!(matches!(inner.acquire(&owner), Ok(Open::Free(v)) if *v == 1));
        assert!(inner.set_new_value(&owner, Arc::new(99)));
        assert_eq!(*inner.stable_value(), 1, "not committed yet");
        owner.try_commit();
        assert_eq!(*inner.stable_value(), 99);
    }

    #[test]
    fn acquire_is_conditional_on_the_owner_and_the_acquirer() {
        let inner = TVarInner::new(5u32);
        let (a, b, c) = (reader(1), reader(2), reader(3));
        assert!(matches!(inner.acquire(&a), Ok(Open::Free(v)) if *v == 5));
        assert!(inner.set_new_value(&a, Arc::new(6)));
        assert!(matches!(inner.acquire(&a), Ok(Open::Mine(v)) if *v == 6));
        // An active owner keeps the object.
        assert!(matches!(inner.acquire(&b), Ok(Open::Enemy(o)) if Arc::ptr_eq(&o, &a)));
        // Once it has aborted, the object is free at its committed value,
        // and the displaced owner's late write cannot overwrite the new
        // owner's record.
        assert!(a.try_abort());
        assert!(matches!(inner.acquire(&b), Ok(Open::Free(v)) if *v == 5));
        assert!(!inner.set_new_value(&a, Arc::new(7)));
        assert!(b.try_commit());
        assert_eq!(*inner.stable_value(), 5);
        // An aborted attempt acquires nothing, even a free object.
        assert!(c.try_abort());
        assert!(inner.acquire(&c).is_err());
        assert!(inner.is_owned_by(&b));
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

    /// Handles on `v`'s object: the caller's plus one per read-set entry.
    fn handles<T: Send + Sync>(v: &TVar<T>) -> usize {
        Arc::strong_count(v.inner())
    }

    #[test]
    fn the_word_is_zero_after_a_commit_an_abort_and_a_panicking_body() {
        let stm = Stm::default();
        let v = TVar::new(0u32);
        let mut ctx = stm.thread();
        ctx.atomically(|tx| {
            tx.read(&v)?;
            assert_eq!(handles(&v), 2, "a borrowed read clones one entry");
            tx.read(&v)?;
            tx.read_owned(v.clone())?;
            assert_eq!(handles(&v), 2, "repeated reads add no entry");
            Ok(())
        })
        .unwrap();
        assert_eq!(v.inner().reader_word(), 0, "after a commit");
        assert_eq!(handles(&v), 1, "after a commit");
        ctx.atomically(|tx| {
            tx.read_owned(v.clone())?;
            assert_eq!(handles(&v), 2, "the handed-over handle is the entry");
            tx.read_owned(v.clone())?;
            tx.read(&v)?;
            assert_eq!(handles(&v), 2, "a deduped read drops its handle");
            Ok(())
        })
        .unwrap();
        assert_eq!(v.inner().reader_word(), 0, "after a commit");
        assert_eq!(handles(&v), 1, "after a commit");
        let _ = ctx.atomically(|tx| {
            tx.read_owned(v.clone())?;
            tx.read(&v)?;
            tx.abort::<()>()
        });
        assert_eq!(v.inner().reader_word(), 0, "after an abort");
        assert_eq!(handles(&v), 1, "after an abort");
        for owned in [false, true] {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ctx.atomically(|tx| -> TxResult<()> {
                    if owned {
                        tx.read_owned(v.clone())?;
                    } else {
                        tx.read(&v)?;
                    }
                    panic!("body panics after its read")
                })
            }));
            assert!(unwound.is_err());
            assert_eq!(v.inner().reader_word(), 0, "after a panicking body");
            assert_eq!(handles(&v), 1, "after a panicking body");
        }
    }

    /// A manager that panics when told of an open: the unwind leaves a read
    /// between its registration and its read-set entry.
    struct PanicsOnOpen;

    impl crate::ContentionManager for PanicsOnOpen {
        fn name(&self) -> &'static str {
            "panics-on-open"
        }

        fn opened(&mut self, _me: crate::manager::TxView<'_>) {
            panic!("manager panics inside a read")
        }

        fn resolve(
            &mut self,
            _me: crate::manager::TxView<'_>,
            _other: crate::manager::TxView<'_>,
        ) -> crate::manager::Resolution {
            crate::manager::Resolution::AbortOther
        }
    }

    #[test]
    fn a_read_that_unwinds_inside_its_open_withdraws_its_registration() {
        let stm = Stm::builder()
            .manager(crate::manager::factory(|| PanicsOnOpen))
            .build();
        let v = TVar::new(0u32);
        let mut ctx = stm.thread();
        for owned in [false, true] {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ctx.atomically(|tx| {
                    if owned {
                        tx.read_owned(v.clone())
                    } else {
                        tx.read_arc(&v)
                    }
                })
            }));
            assert!(unwound.is_err());
            assert_eq!(v.inner().reader_word(), 0, "owned {owned}");
            assert_eq!(handles(&v), 1, "owned {owned}");
        }
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
            tx.read_owned(v.clone())?;
            assert_eq!(v.inner().reader_word(), OVERFLOW_ONE);
            assert_eq!(handles(&v), 2, "a deduped owned read drops its handle");
            Ok(())
        })
        .unwrap();
        assert_eq!(v.inner().reader_word(), 0, "after a commit");
        ctx.atomically(|tx| {
            tx.read_owned(v.clone())?;
            tx.read_owned(v.clone())?;
            assert_eq!(v.inner().reader_word(), OVERFLOW_ONE);
            assert_eq!(handles(&v), 2, "the first handle is the one entry");
            Ok(())
        })
        .unwrap();
        assert_eq!(v.inner().reader_word(), 0, "after a commit");
        assert_eq!(handles(&v), 1, "after a commit");
        let _ = ctx.atomically(|tx| {
            tx.read_owned(v.clone())?;
            tx.abort::<()>()
        });
        assert_eq!(v.inner().reader_word(), 0, "after an abort");
        assert_eq!(handles(&v), 1, "after an abort");
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
        let inner = TVarInner::new(1u32);
        let owner = reader(1);
        assert!(matches!(inner.acquire(&owner), Ok(Open::Free(_))));
        assert!(inner.set_new_value(&owner, Arc::new(10)));
        owner.try_commit();
        inner.detach_committed(&owner);
        let loc = inner.locator.lock();
        assert!(loc.owner.is_none());
        assert!(Arc::ptr_eq(&loc.old, &loc.new));
        assert_eq!(*loc.stable_value(), 10);
    }

    /// The object locks one transaction takes, counted by the lock wrapper in
    /// `crate::sync` on the calling thread: a read takes the object's lock
    /// once to open it (registering on the reader word takes none, and a
    /// re-read opens again), a write twice (the acquire, then storing the
    /// tentative value computed outside the lock), and the commit once per
    /// written object (the detach) and never for a read (the release clears
    /// a bit).
    #[cfg(not(feature = "model-check"))]
    #[test]
    fn a_read_locks_once_a_write_twice_and_a_commit_once_per_written_object() {
        use crate::sync::acquisitions;
        use crate::Txn;
        let stm = Stm::default();
        let mut ctx = stm.thread();
        let (read_me, write_me) = (TVar::new(1u32), TVar::new(0u32));
        let body = |tx: &mut Txn<'_>| -> TxResult<([u64; 4], u64)> {
            let start = acquisitions();
            tx.read(&read_me)?;
            let first_read = acquisitions();
            tx.read(&read_me)?;
            let reread = acquisitions();
            tx.write(&write_me, 3)?;
            let first_write = acquisitions();
            tx.write(&write_me, 4)?;
            let rewrite = acquisitions();
            let opens = [start, first_read, reread, first_write, rewrite];
            Ok((std::array::from_fn(|i| opens[i + 1] - opens[i]), rewrite))
        };
        let (opens, body_returned) = ctx.atomically(body).unwrap();
        let commit = acquisitions() - body_returned;
        assert_eq!(
            opens,
            [1, 1, 2, 2],
            "locks per first read, re-read, first write, rewrite"
        );
        assert_eq!(
            commit, 1,
            "locks per commit of one read and one written object"
        );
        assert_eq!(stm.read_atomic(&write_me), 4);
    }

    /// A value that counts its live copies.
    struct Tracked {
        value: u64,
        live: Arc<AtomicU64>,
    }

    impl Tracked {
        fn new(value: u64, live: &Arc<AtomicU64>) -> Self {
            live.fetch_add(1, Ordering::Relaxed);
            Tracked {
                value,
                live: Arc::clone(live),
            }
        }
    }

    impl Clone for Tracked {
        fn clone(&self) -> Self {
            Tracked::new(self.value, &self.live)
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.live.fetch_sub(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn reader_writer_stress_never_tears_or_leaks() {
        let live = Arc::new(AtomicU64::new(0));
        let stm = Stm::default();
        let v = TVar::new(Tracked::new(0, &live));
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let mut last = 0;
                    while !stop.load(Ordering::Relaxed) {
                        // Committed values are monotone; a torn or freed
                        // read would break this.
                        let value = v.load_committed_arc().value;
                        assert!(value >= last, "{value} < {last}");
                        last = value;
                    }
                });
            }
            scope.spawn(|| {
                let mut ctx = stm.thread();
                for i in 1..=10_000 {
                    ctx.atomically(|tx| tx.write(&v, Tracked::new(i, &live)))
                        .unwrap();
                }
                stop.store(true, Ordering::Relaxed);
            });
        });
        assert_eq!(v.load_committed_arc().value, 10_000);
        assert_eq!(live.load(Ordering::Relaxed), 1, "only the current value");
        drop(v);
        assert_eq!(live.load(Ordering::Relaxed), 0, "nothing after the TVar");
    }
}
