//! Transaction descriptors and the per-attempt transaction handle.
//!
//! Three layers of state make up a transaction:
//!
//! * [`TxLineage`] — state that survives aborts and restarts: the identity of
//!   the logical transaction, the **timestamp** assigned when it first began
//!   (the greedy manager's priority), and the karma that Karma, Eruption
//!   and Polka accumulate. The runtime draws one value from the [`Stm`]'s
//!   clock per transaction and uses it as both identity and timestamp.
//! * [`TxShared`] — the descriptor of one *attempt*, visible to every other
//!   thread: its attempt number, a CAS-able status word and the public
//!   `waiting` flag of the greedy manager. Enemy transactions hold `Arc`s to
//!   this descriptor (through object locators, or through the reader slot
//!   the attempt is published in) and may abort the attempt by CAS-ing its
//!   status.
//! * [`Txn`] — the handle passed to the user's transactional closure. It
//!   performs reads and writes, detects conflicts eagerly, and consults the
//!   thread's contention manager to resolve them.
//!
//! There is one read protocol: every read registers its transaction in the
//! reader word of the object it reads (see [`crate::tvar`]), and a writer
//! that acquires the object must settle with each registered reader through
//! its contention manager before it may commit. No read set is ever
//! re-validated, so no transaction is aborted
//! except by a manager's decision (its own or an enemy's) or by its body.
//! When every thread runs greedy, the oldest running transaction is
//! therefore never aborted: the pending-commit property the paper's
//! Theorems 1 and 9 rest on.

use std::sync::Arc;
use std::time::Instant;

use crate::error::{AbortCause, StmError, TxResult};
use crate::hook::CommitOp;
use crate::manager::{ContentionManager, Resolution, TxView};
use crate::stats::TxnStats;
use crate::status::{AtomicStatus, TxStatus};
use crate::stm::Stm;
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::tvar::{Open, ReaderSlot, TVar, TVarInner, TrackedRead, TrackedWrite};
use crate::wait::SpinWait;

/// State of a logical transaction that persists across aborts and retries.
///
/// The paper's greedy manager requires that "when a transaction begins, it is
/// given a timestamp which it retains even if it aborts and restarts"; the
/// lineage is where that timestamp lives. Managers that accumulate priority
/// over a transaction's lifetime (Karma, Eruption, Polka) store their
/// accumulated priority here as well.
#[derive(Debug)]
pub struct TxLineage {
    id: u64,
    timestamp: u64,
    karma: AtomicU64,
}

impl TxLineage {
    /// Creates a new lineage with the given identity and timestamp.
    pub fn new(id: u64, timestamp: u64) -> Self {
        TxLineage {
            id,
            timestamp,
            karma: AtomicU64::new(0),
        }
    }

    /// Identity of the logical transaction (unique per [`Stm`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The timestamp assigned when the transaction first began. Smaller
    /// timestamps mean higher priority for the greedy manager.
    pub fn timestamp(&self) -> u64 {
        self.timestamp
    }

    /// Accumulated manager-defined priority ("karma").
    pub fn karma(&self) -> u64 {
        self.karma.load(Ordering::Relaxed)
    }

    /// Adds to the accumulated priority. Used by Karma/Eruption/Polka.
    pub fn add_karma(&self, delta: u64) {
        self.karma.fetch_add(delta, Ordering::Relaxed);
    }

    /// Resets the accumulated priority to zero (Karma does this on commit).
    pub fn reset_karma(&self) {
        self.karma.store(0, Ordering::Relaxed);
    }
}

/// The shared descriptor of one transaction attempt.
///
/// Other threads interact with a transaction exclusively through this
/// structure: they inspect its priority and `waiting` flag, and they may
/// abort it by CAS-ing the status word.
#[derive(Debug)]
pub struct TxShared {
    lineage: Arc<TxLineage>,
    attempt: u64,
    status: AtomicStatus,
    waiting: AtomicBool,
}

impl TxShared {
    /// Creates a descriptor for attempt number `attempt` of `lineage`.
    pub fn new(lineage: Arc<TxLineage>, attempt: u64) -> Self {
        TxShared {
            lineage,
            attempt,
            status: AtomicStatus::new_active(),
            waiting: AtomicBool::new(false),
        }
    }

    /// The persistent lineage of this attempt.
    pub fn lineage(&self) -> &Arc<TxLineage> {
        &self.lineage
    }

    /// Identity of the logical transaction.
    pub fn id(&self) -> u64 {
        self.lineage.id()
    }

    /// Attempt number, starting at 1.
    pub fn attempt(&self) -> u64 {
        self.attempt
    }

    /// The greedy-priority timestamp (smaller = older = higher priority).
    pub fn timestamp(&self) -> u64 {
        self.lineage.timestamp()
    }

    /// Current status of this attempt.
    pub fn status(&self) -> TxStatus {
        self.status.load()
    }

    /// Whether this attempt is still active.
    pub fn is_active(&self) -> bool {
        self.status().is_active()
    }

    /// Whether this attempt committed.
    pub fn is_committed(&self) -> bool {
        self.status().is_committed()
    }

    /// Whether this attempt aborted.
    pub fn is_aborted(&self) -> bool {
        self.status().is_aborted()
    }

    /// Attempts to abort this transaction attempt (CAS `Active -> Aborted`).
    ///
    /// This is the operation an enemy transaction performs when its
    /// contention manager returns [`Resolution::AbortOther`]. Returns `true`
    /// if this call performed the abort.
    pub fn try_abort(&self) -> bool {
        self.status.try_abort()
    }

    /// Attempts to commit this transaction attempt (CAS `Active ->
    /// Committed`). Inside the STM runtime only the owning thread calls this;
    /// it is exposed publicly for execution simulators that drive
    /// descriptors directly.
    pub fn try_commit(&self) -> bool {
        self.status.try_commit()
    }

    /// Whether the transaction is currently waiting for another transaction.
    /// This is the public `waiting` field of the greedy manager's Rule 1.
    pub fn is_waiting(&self) -> bool {
        // ordering: acquire pairs with `set_waiting`'s release so an enemy
        // inspecting the flag sees the state the waiter published before it.
        self.waiting.load(Ordering::Acquire)
    }

    /// Sets the public `waiting` flag. The runtime flips this around every
    /// contention-manager wait; it is exposed publicly for contention-manager
    /// unit tests and for execution simulators that drive descriptors
    /// directly.
    pub fn set_waiting(&self, value: bool) {
        // ordering: release — see `is_waiting`.
        self.waiting.store(value, Ordering::Release);
    }
}

/// An action registered with [`Txn::defer_on_commit`], run only if the
/// transaction commits.
type DeferredAction = Box<dyn FnOnce() + Send>;

/// Per-thread transaction scratch space: the read/write/publish sets of the
/// attempt currently running on a [`crate::ThreadCtx`]. Owned by the thread
/// context and lent to each [`Txn`], so the backing vectors' capacity is
/// reused across transactions instead of being reallocated per attempt —
/// the tiny-transaction hot path performs no `Vec` spine allocation after
/// warm-up. Each [`Txn`] empties it when dropped, so the next attempt starts
/// with empty sets even if this one unwound.
#[derive(Default)]
pub(crate) struct TxScratch {
    reads: Vec<Arc<dyn TrackedRead>>,
    writes: Vec<Arc<dyn TrackedWrite>>,
    published: Vec<CommitOp>,
    deferred: Vec<DeferredAction>,
}

impl TxScratch {
    fn clear(&mut self) {
        self.reads.clear();
        self.writes.clear();
        self.published.clear();
        self.deferred.clear();
    }
}

/// The handle through which a transactional closure reads and writes
/// [`TVar`]s.
///
/// Obtained from [`crate::ThreadCtx::atomically`]; all operations may fail
/// with [`StmError::Aborted`], in which case the error should simply be
/// propagated with `?` — the runtime will retry the closure.
///
/// An attempt whose body panics is aborted as it unwinds (see the `Drop`
/// impl), so the objects it acquired and the reads it registered do not keep
/// naming an owner that will never finish.
pub struct Txn<'ctx> {
    stm: &'ctx Stm,
    shared: Arc<TxShared>,
    manager: &'ctx mut dyn ContentionManager,
    scratch: &'ctx mut TxScratch,
    /// The context's reader slot, in which `shared` is published.
    slot: &'ctx ReaderSlot,
    stats: TxnStats,
    publish_forced: bool,
    commit_seq: Option<u64>,
    finished: bool,
}

impl<'ctx> std::fmt::Debug for Txn<'ctx> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Txn")
            .field("id", &self.shared.id())
            .field("attempt", &self.shared.attempt())
            .field("timestamp", &self.shared.timestamp())
            .field("status", &self.shared.status())
            .finish()
    }
}

impl<'ctx> Txn<'ctx> {
    pub(crate) fn new(
        stm: &'ctx Stm,
        shared: Arc<TxShared>,
        manager: &'ctx mut dyn ContentionManager,
        scratch: &'ctx mut TxScratch,
        slot: &'ctx ReaderSlot,
    ) -> Self {
        Txn {
            stm,
            shared,
            manager,
            scratch,
            slot,
            stats: TxnStats::new(),
            publish_forced: false,
            commit_seq: None,
            finished: false,
        }
    }

    /// Identity of the logical transaction.
    pub fn id(&self) -> u64 {
        self.shared.id()
    }

    /// The greedy-priority timestamp of this transaction.
    pub fn timestamp(&self) -> u64 {
        self.shared.timestamp()
    }

    /// Attempt number, starting at 1.
    pub fn attempt(&self) -> u64 {
        self.shared.attempt()
    }

    /// Per-attempt statistics collected so far.
    pub fn stats(&self) -> &TxnStats {
        &self.stats
    }

    /// The shared descriptor of this attempt (mostly useful in tests and
    /// instrumentation).
    pub fn shared(&self) -> &Arc<TxShared> {
        &self.shared
    }

    /// Explicitly aborts the transaction. The error returned must be
    /// propagated out of the closure; [`crate::ThreadCtx::atomically`] then
    /// reports it to the caller without retrying.
    pub fn abort<T>(&mut self) -> TxResult<T> {
        Err(StmError::Aborted(AbortCause::Explicit))
    }

    /// Publishes one [`CommitOp`] to the [`crate::CommitHook`] installed on
    /// the [`Stm`]. Ops accumulate in publish order and are handed to the
    /// hook atomically at this attempt's commit point; an aborted attempt
    /// publishes nothing (the retry starts with an empty set). A no-op when
    /// no hook is installed.
    pub fn publish(&mut self, op: CommitOp) {
        self.scratch.published.push(op);
    }

    /// Forces this transaction through the commit hook even when nothing
    /// was published, so its commit receives a sequence number — the
    /// consistent-cut marker [`crate::ThreadCtx::atomically_logged`] uses.
    pub fn publish_marker(&mut self) {
        self.publish_forced = true;
    }

    /// The sequence number the commit hook assigned to this transaction's
    /// published write-set (`None` before commit, without a hook, or when
    /// nothing was published and no marker was requested).
    pub fn commit_seq(&self) -> Option<u64> {
        self.commit_seq
    }

    /// Registers an action to run **after** this attempt's commit point (the
    /// status CAS). An aborted attempt discards its actions — a retry starts
    /// with an empty list.
    ///
    /// This is the hook commit-time cell GC hangs off: a store that deletes
    /// a key registers the unlink of the key's cell from its own table here,
    /// so the unlink happens only for the attempt that actually committed
    /// the delete. Nothing waits for a grace period: a transaction that
    /// still holds the cell holds an `Arc` to it.
    pub fn defer_on_commit(&mut self, action: impl FnOnce() + Send + 'static) {
        self.scratch.deferred.push(Box::new(action));
    }

    /// Whether this transaction currently owns `tvar` for writing (it has an
    /// uncommitted write to it in this attempt). Lets callers distinguish
    /// "I wrote this tombstone myself" from "another transaction committed
    /// it" without consulting their own bookkeeping.
    pub fn owns<T>(&self, tvar: &TVar<T>) -> bool
    where
        T: Send + Sync + 'static,
    {
        tvar.inner().is_owned_by(&self.shared)
    }

    /// Reads the value of `tvar`, returning a clone.
    pub fn read<T>(&mut self, tvar: &TVar<T>) -> TxResult<T>
    where
        T: Clone + Send + Sync + 'static,
    {
        self.read_arc(tvar).map(|arc| (*arc).clone())
    }

    /// Reads the value of `tvar`, returning a shared handle to the version
    /// observed (cheaper than [`Txn::read`] for large values).
    pub fn read_arc<T>(&mut self, tvar: &TVar<T>) -> TxResult<Arc<T>>
    where
        T: Send + Sync + 'static,
    {
        self.ensure_active()?;
        self.register_read(tvar.inner());
        loop {
            self.ensure_active()?;
            match tvar.inner().open_read(&self.shared) {
                // Read-your-own-write.
                Open::Mine(value) => {
                    self.note_read();
                    return Ok(value);
                }
                Open::Enemy(owner) => {
                    self.resolve_conflict(&owner)?;
                }
                Open::Free(value) => {
                    // Opacity: re-check our own status *after* loading the
                    // value. An enemy that invalidates our earlier reads must
                    // abort us before it commits; if its commit preceded our
                    // load, its abort of us did too, so this check guarantees
                    // we never hand user code a value that is inconsistent
                    // with what it already read.
                    self.ensure_active()?;
                    self.note_read();
                    return Ok(value);
                }
            }
        }
    }

    /// Writes `value` into `tvar`.
    pub fn write<T>(&mut self, tvar: &TVar<T>, value: T) -> TxResult<()>
    where
        T: Clone + Send + Sync + 'static,
    {
        self.update(tvar, move |_| value)
    }

    /// Replaces the value of `tvar` with `f(current)`.
    pub fn modify<T>(&mut self, tvar: &TVar<T>, f: impl FnOnce(&T) -> T) -> TxResult<()>
    where
        T: Clone + Send + Sync + 'static,
    {
        self.update(tvar, f)
    }

    /// Reads `tvar` and acquires it for writing in one step, returning the
    /// current value. Subsequent [`Txn::write`]s to the same `tvar` by this
    /// transaction will not conflict with it again.
    pub fn read_for_update<T>(&mut self, tvar: &TVar<T>) -> TxResult<T>
    where
        T: Clone + Send + Sync + 'static,
    {
        let mut out: Option<T> = None;
        self.update(tvar, |current| {
            out = Some(current.clone());
            current.clone()
        })?;
        Ok(out.expect("update closure must run on success"))
    }

    fn update<T, F>(&mut self, tvar: &TVar<T>, f: F) -> TxResult<()>
    where
        T: Clone + Send + Sync + 'static,
        F: FnOnce(&T) -> T,
    {
        let inner = tvar.inner();
        let current = loop {
            self.ensure_active()?;
            // The acquire re-checks our status under the object's lock, the
            // same opacity check as in `read_arc`: it never installs, or
            // hands `f`, a value committed by an enemy that has already
            // aborted us.
            match inner.acquire(&self.shared)? {
                // Already acquired by this transaction.
                Open::Mine(current) => break current,
                Open::Enemy(owner) => {
                    self.resolve_conflict(&owner)?;
                }
                Open::Free(current) => {
                    self.scratch.writes.push(Arc::clone(inner) as _);
                    let slot = self.slot;
                    inner.active_readers(slot, |reader| self.arbitrate_reader(reader))?;
                    break current;
                }
            }
        };
        // The new value is computed outside the lock; an enemy that has
        // acquired the object since aborted us first.
        if !inner.set_new_value(&self.shared, Arc::new(f(&current))) {
            return Err(StmError::Aborted(AbortCause::KilledByEnemy));
        }
        self.note_write();
        Ok(())
    }

    /// Registers this attempt on the object it is about to read, once. The
    /// object itself is the tracked read (see the `TrackedRead` impl on
    /// `TVarInner`): an `Arc` clone, no per-read heap allocation.
    fn register_read<T: Send + Sync + 'static>(&mut self, inner: &Arc<TVarInner<T>>) {
        // A slot's bit dedupes through the word. An overflow slot has no
        // bit, so it dedupes against the read set: linear, on the rare path
        // of more live contexts than slots.
        if self.slot.is_overflow()
            && self
                .scratch
                .reads
                .iter()
                .any(|read| std::ptr::addr_eq(Arc::as_ptr(read), Arc::as_ptr(inner)))
        {
            return;
        }
        if inner.register_reader(self.slot) {
            self.scratch.reads.push(Arc::clone(inner) as _);
        }
    }

    /// A writer that just acquired an object must come to an arrangement with
    /// every transaction currently reading it: each reader is either aborted
    /// or allowed to finish first, as decided by the contention manager.
    fn arbitrate_reader(&mut self, reader: &Arc<TxShared>) -> TxResult<()> {
        while reader.is_active() {
            self.ensure_active()?;
            self.resolve_conflict(reader)?;
        }
        Ok(())
    }

    fn ensure_active(&self) -> TxResult<()> {
        if self.shared.is_aborted() {
            Err(StmError::Aborted(AbortCause::KilledByEnemy))
        } else {
            Ok(())
        }
    }

    /// Asks the contention manager what to do about a conflict with `other`,
    /// then carries out its decision. A wait lasts until
    /// [`WaitSpec::is_over`](crate::WaitSpec::is_over) says it is over.
    fn resolve_conflict(&mut self, other: &Arc<TxShared>) -> TxResult<()> {
        self.stats.conflicts += 1;
        let resolution = self
            .manager
            .resolve(TxView::new(&self.shared), TxView::new(other));
        match resolution {
            Resolution::AbortOther => {
                self.stats.enemy_aborts += 1;
                other.try_abort();
                Ok(())
            }
            Resolution::Wait(spec) => {
                self.stats.waits += 1;
                self.shared.set_waiting(true);
                let mut started = None;
                let mut spin = SpinWait::new();
                while !spec.is_over(&self.shared, other, || {
                    started.get_or_insert_with(Instant::now).elapsed()
                }) {
                    spin.snooze();
                }
                self.shared.set_waiting(false);
                if self.shared.is_aborted() {
                    Err(StmError::Aborted(AbortCause::KilledByEnemy))
                } else {
                    Ok(())
                }
            }
        }
    }

    fn note_read(&mut self) {
        self.stats.reads += 1;
        self.manager.opened(TxView::new(&self.shared));
    }

    fn note_write(&mut self) {
        self.stats.writes += 1;
        self.manager.opened(TxView::new(&self.shared));
    }

    /// Attempts to commit. Returns `true` when the attempt committed, and
    /// `false` when an enemy aborted it first.
    pub(crate) fn finish_commit(&mut self) -> bool {
        debug_assert!(!self.finished, "finish_commit called twice");
        // Only clone the hook handle when this commit actually goes through
        // it — transactions that published nothing skip the refcount
        // traffic entirely.
        let hook = if self.publish_forced || !self.scratch.published.is_empty() {
            self.stm.config().commit_hook.clone()
        } else {
            None
        };
        let committed = match hook {
            Some(hook) => {
                // The hook wraps the linearization point: it performs the
                // status CAS under its own ordering lock and records the
                // published ops only when the CAS succeeds, so log order
                // matches serialization order (see `crate::hook`).
                let shared = Arc::clone(&self.shared);
                let seq = hook.on_commit(&self.scratch.published, &mut || shared.try_commit());
                self.commit_seq = seq;
                seq.is_some()
            }
            None => self.shared.try_commit(),
        };
        if !committed {
            return false;
        }
        self.finished = true;
        for write in &self.scratch.writes {
            write.detach_committed(&self.shared);
        }
        for read in &self.scratch.reads {
            read.release(self.slot);
        }
        self.manager.committed(TxView::new(&self.shared));
        self.stm.stats().note_commit(&self.stats);
        // Deferred actions run after the commit point and after the writes
        // are detached, so they observe the committed values they test for.
        for action in self.scratch.deferred.drain(..) {
            action();
        }
        true
    }

    /// Marks the attempt aborted (attributing it to `cause`) and releases
    /// its reads.
    pub(crate) fn finish_abort(&mut self, cause: AbortCause) {
        debug_assert!(!self.finished, "finish_abort after the attempt finished");
        self.finished = true;
        self.shared.try_abort();
        for read in &self.scratch.reads {
            read.release(self.slot);
        }
        self.stm.stats().note_abort(&self.stats, cause);
    }
}

/// An attempt that is dropped unfinished is one whose body unwound: it is
/// aborted here, counted as [`AbortCause::Explicit`], so enemies stop
/// waiting on it. Every attempt, finished or not, leaves the thread's
/// scratch sets empty for the next one.
impl Drop for Txn<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.finish_abort(AbortCause::Explicit);
        }
        self.scratch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineage_counters() {
        let lineage = TxLineage::new(7, 42);
        assert_eq!(lineage.id(), 7);
        assert_eq!(lineage.timestamp(), 42);
        lineage.add_karma(5);
        lineage.add_karma(3);
        assert_eq!(lineage.karma(), 8);
        lineage.reset_karma();
        assert_eq!(lineage.karma(), 0);
    }

    #[test]
    fn shared_status_transitions() {
        let lineage = Arc::new(TxLineage::new(1, 10));
        let shared = TxShared::new(Arc::clone(&lineage), 1);
        assert!(shared.is_active());
        assert!(!shared.is_waiting());
        shared.set_waiting(true);
        assert!(shared.is_waiting());
        shared.set_waiting(false);
        assert!(shared.try_commit());
        assert!(shared.is_committed());
        assert!(!shared.try_abort());
    }

    #[test]
    fn shared_abort_wins_over_commit() {
        let lineage = Arc::new(TxLineage::new(2, 11));
        let shared = TxShared::new(lineage, 1);
        assert!(shared.try_abort());
        assert!(shared.is_aborted());
        assert!(!shared.try_commit());
        assert_eq!(shared.timestamp(), 11);
        assert_eq!(shared.id(), 2);
        assert_eq!(shared.attempt(), 1);
    }
}
