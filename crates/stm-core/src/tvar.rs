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
//! An object is its locator and its readers, nothing else. Every
//! transactional read is visible: the reader registers in the object's
//! reader list, and a writer that acquires the object arbitrates with each
//! registered reader. The list is split into `READER_SHARDS` (eight)
//! mutexed shards, chosen by the reader's transaction id, so two threads
//! reading the same hot object take different locks (E30 measured one list
//! against eight shards and kept the shards). Finished readers are pruned
//! lazily: registration prunes only when its shard has grown past
//! `READER_PRUNE_THRESHOLD`, so the uncontended register/unregister pair is
//! O(1); a writer's scan prunes every shard it walks, which it walks anyway
//! to arbitrate. The locks come from [`crate::sync`], so under
//! `--features model-check` the bounded model in `crate::models` drives
//! these very methods.

use crate::sync::{Arc, Mutex};

use arcswap::ArcSwap;

use crate::txn::TxShared;

/// Reader-list shards per object. A reader's shard is its transaction id
/// modulo this, so one transaction always lands in the same shard.
pub(crate) const READER_SHARDS: usize = 8;

/// Shard occupancy past which registration prunes finished readers before
/// pushing. Below it, registration is append-only (amortized O(1)); the
/// finished entries an object holds are at most
/// `READER_SHARDS × READER_PRUNE_THRESHOLD`.
pub(crate) const READER_PRUNE_THRESHOLD: usize = 8;

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

/// Shared interior of a [`TVar`]: its locator and its reader list.
#[derive(Debug)]
pub(crate) struct TVarInner<T> {
    locator: ArcSwap<Locator<T>>,
    readers: [Mutex<Vec<Arc<TxShared>>>; READER_SHARDS],
}

impl<T> TVarInner<T> {
    fn new(value: T) -> Self {
        TVarInner {
            locator: ArcSwap::from_value(Locator::baseline(Arc::new(value))),
            readers: std::array::from_fn(|_| Mutex::new(Vec::new())),
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

    fn shard(&self, reader: &TxShared) -> &Mutex<Vec<Arc<TxShared>>> {
        &self.readers[(reader.id() % READER_SHARDS as u64) as usize]
    }

    /// Registers `reader` as a visible reader. Returns `true` if it was not
    /// already registered. Only the reader's own shard is touched, and
    /// finished entries are pruned only once the shard has grown past
    /// [`READER_PRUNE_THRESHOLD`], so the uncontended call is O(1).
    pub(crate) fn register_reader(&self, reader: &Arc<TxShared>) -> bool {
        let mut shard = self.shard(reader).lock();
        if shard.iter().any(|r| Arc::ptr_eq(r, reader)) {
            return false;
        }
        if shard.len() >= READER_PRUNE_THRESHOLD {
            shard.retain(|r| r.is_active());
        }
        shard.push(Arc::clone(reader));
        true
    }

    /// Removes `reader` from its shard. Removes only the caller's entry —
    /// no rescan on the release path.
    pub(crate) fn unregister_reader(&self, reader: &TxShared) {
        let mut shard = self.shard(reader).lock();
        if let Some(pos) = shard
            .iter()
            .position(|r| std::ptr::eq(Arc::as_ptr(r), reader))
        {
            shard.swap_remove(pos);
        }
    }

    /// Returns the registered active readers other than `me`, pruning
    /// finished readers from every shard on the way (the writer walks every
    /// reader regardless — it must arbitrate with each of them).
    pub(crate) fn active_readers(&self, me: &Arc<TxShared>) -> Vec<Arc<TxShared>> {
        let mut out = Vec::new();
        for shard in &self.readers {
            let mut shard = shard.lock();
            shard.retain(|r| r.is_active());
            out.extend(shard.iter().filter(|r| !Arc::ptr_eq(r, me)).cloned());
        }
        out
    }

    /// Number of registered readers, stale entries included (tests).
    #[cfg(test)]
    pub(crate) fn reader_count(&self) -> usize {
        self.readers.iter().map(|shard| shard.lock().len()).sum()
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
    /// Releases the reader registration this read holds.
    fn release(&self, me: &TxShared);
}

/// A read is tracked by the object itself: the registration lives in the
/// object's reader list and release unregisters. The read set stores the
/// object directly (an `Arc` clone of `TVarInner`) rather than boxing a
/// wrapper, which keeps the read fast path free of per-read heap
/// allocation.
impl<T: Send + Sync> TrackedRead for TVarInner<T> {
    fn release(&self, me: &TxShared) {
        self.unregister_reader(me);
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
    use std::mem::size_of;

    /// A running reader with transaction id `id` (its shard is `id` modulo
    /// [`READER_SHARDS`]).
    fn reader(id: u64) -> Arc<TxShared> {
        Arc::new(TxShared::new(Arc::new(TxLineage::new(id, id)), 1))
    }

    #[test]
    fn an_object_is_its_locator_and_its_reader_shards() {
        // No id, no other field: a count that holds on any host.
        assert_eq!(
            size_of::<TVarInner<i64>>(),
            size_of::<ArcSwap<Locator<i64>>>()
                + READER_SHARDS * size_of::<Mutex<Vec<Arc<TxShared>>>>()
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

    #[test]
    fn reader_registration_dedupes_and_prunes() {
        let inner = TVarInner::new(0u32);
        let r1 = reader(1);
        let r2 = reader(2);
        assert!(inner.register_reader(&r1));
        assert!(!inner.register_reader(&r1));
        assert!(inner.register_reader(&r2));
        // A distinct descriptor with the same id (its shard) is a distinct
        // registration: readers are told apart by pointer, not by id.
        let r1_twin = reader(1);
        assert!(inner.register_reader(&r1_twin));
        assert_eq!(inner.reader_count(), 3);
        inner.unregister_reader(&r1_twin);
        assert_eq!(inner.reader_count(), 2);
        // The scan leaves out `me`, skips finished readers and physically
        // prunes them.
        assert_eq!(inner.active_readers(&r1).len(), 1);
        r2.try_abort();
        let r3 = reader(3);
        assert!(inner.register_reader(&r3));
        let active = inner.active_readers(&r3);
        assert_eq!(active.len(), 1);
        assert!(Arc::ptr_eq(&active[0], &r1));
        assert_eq!(inner.reader_count(), 2);
        inner.unregister_reader(&r1);
        assert!(inner.active_readers(&r3).is_empty());
    }

    #[test]
    fn reader_list_stays_bounded_under_register_churn() {
        let inner = TVarInner::new(0u32);
        let live = reader(0);
        inner.register_reader(&live);
        for i in 1..=10_000u64 {
            let r = reader(i);
            inner.register_reader(&r);
            if i % 2 == 0 {
                r.try_commit();
            } else {
                r.try_abort();
            }
            // Only every fourth reader explicitly unregisters — the rest
            // rely on threshold pruning at registration time.
            if i % 4 == 0 {
                inner.unregister_reader(&r);
            }
        }
        // Lazy pruning leaves at most a threshold's worth of finished
        // entries per shard, plus the live readers — a constant, not a
        // function of churn volume.
        assert!(
            inner.reader_count() <= READER_SHARDS * READER_PRUNE_THRESHOLD + 1,
            "reader list leaked: {} entries",
            inner.reader_count()
        );
        // A writer's arbitration scan prunes every shard it walks.
        let me = reader(1);
        let active = inner.active_readers(&me);
        assert_eq!(active.len(), 1);
        assert!(Arc::ptr_eq(&active[0], &live));
        assert_eq!(inner.reader_count(), 1);
    }

    #[test]
    fn register_past_threshold_prunes_only_finished_entries() {
        let inner = TVarInner::new(0u32);
        let keep = reader(0);
        assert!(inner.register_reader(&keep));
        // Pile finished readers into the same shard until the threshold
        // forces a prune.
        for i in 1..=(2 * READER_PRUNE_THRESHOLD as u64) {
            let r = reader(i * READER_SHARDS as u64);
            inner.register_reader(&r);
            r.try_abort();
        }
        assert!(inner.reader_count() <= READER_PRUNE_THRESHOLD + 1);
        // The live registration survived every prune.
        let me = reader(1);
        let active = inner.active_readers(&me);
        assert_eq!(active.len(), 1);
        assert!(Arc::ptr_eq(&active[0], &keep));
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
