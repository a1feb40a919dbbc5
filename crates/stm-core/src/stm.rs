//! The STM runtime: configuration, thread contexts, and the retry loop.

use std::sync::Arc;

use crate::clock::TimestampClock;
use crate::error::{AbortCause, StmError, TxResult};
use crate::hook::CommitHook;
use crate::manager::{ContentionManager, GreedyManager, ManagerFactory, TxView};
use crate::stats::{StmStats, TxRunReport};
use crate::tvar::{ReaderSlot, ReaderTable, TVar};
use crate::txn::{TxLineage, TxScratch, TxShared, Txn};

/// Configuration of an [`Stm`] instance, assembled by [`StmBuilder`].
#[derive(Clone)]
pub(crate) struct StmConfig {
    pub(crate) manager_factory: ManagerFactory,
    pub(crate) commit_hook: Option<Arc<dyn CommitHook>>,
}

impl std::fmt::Debug for StmConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StmConfig")
            .field("commit_hook", &self.commit_hook.is_some())
            .finish()
    }
}

impl Default for StmConfig {
    fn default() -> Self {
        StmConfig {
            manager_factory: GreedyManager::factory(),
            commit_hook: None,
        }
    }
}

/// Builder for [`Stm`]: the contention manager and the commit hook are all
/// there is to configure. Every read is visible and every transaction is
/// retried until it commits (or its body aborts it explicitly), so every
/// conflict, read–write included, goes to the manager.
///
/// ```
/// use stm_core::Stm;
/// use stm_core::manager::{factory, AggressiveManager};
///
/// let stm = Stm::builder()
///     .manager(factory(AggressiveManager::new))
///     .build();
/// assert_eq!(stm.stats().snapshot().commits, 0);
/// ```
#[derive(Debug, Default)]
pub struct StmBuilder {
    config: StmConfig,
}

impl StmBuilder {
    /// Installs the contention-manager factory used for every thread context
    /// created from this STM (default: the paper's [`GreedyManager`]).
    pub fn manager(mut self, factory: ManagerFactory) -> Self {
        self.config.manager_factory = factory;
        self
    }

    /// Installs a [`CommitHook`] observing every committed transaction that
    /// published a write-set (default: none). See [`crate::hook`] for the
    /// ordering contract the runtime provides.
    pub fn commit_hook(mut self, hook: Arc<dyn CommitHook>) -> Self {
        self.config.commit_hook = Some(hook);
        self
    }

    /// Builds the [`Stm`].
    pub fn build(self) -> Stm {
        Stm {
            clock: TimestampClock::new(),
            config: self.config,
            stats: StmStats::new(),
        }
    }
}

/// A software-transactional-memory instance: timestamp clock, configuration
/// and shared statistics.
///
/// `Stm` is `Sync`; share it by reference (or `Arc`) among the threads that
/// participate in transactions, and give each thread its own [`ThreadCtx`].
#[derive(Debug)]
pub struct Stm {
    clock: TimestampClock,
    config: StmConfig,
    stats: StmStats,
}

impl Default for Stm {
    fn default() -> Self {
        Stm::builder().build()
    }
}

impl Stm {
    /// Starts building an [`Stm`] with non-default configuration.
    pub fn builder() -> StmBuilder {
        StmBuilder::default()
    }

    /// Creates a per-thread execution context using the configured
    /// contention-manager factory.
    ///
    /// The context claims a reader slot from the process-global table (see
    /// [`crate::tvar`]) and frees it when dropped. Past
    /// [`crate::tvar::READER_SLOTS`] live contexts, further ones share the
    /// overflow path.
    ///
    /// # Panics
    ///
    /// When `READER_SLOTS + u16::MAX` contexts are already live.
    pub fn thread(&self) -> ThreadCtx<'_> {
        self.thread_with((self.config.manager_factory)())
    }

    /// Creates a per-thread execution context with an explicit contention
    /// manager, overriding the configured factory. Useful for comparing
    /// managers within one program (see the `manager_showdown` example).
    /// It claims a reader slot as [`Stm::thread`] does, and panics likewise.
    pub fn thread_with(&self, manager: Box<dyn ContentionManager>) -> ThreadCtx<'_> {
        ThreadCtx {
            stm: self,
            manager,
            scratch: TxScratch::default(),
            slot: ReaderTable::claim(ReaderTable::global()),
        }
    }

    /// Reads the latest committed value of a single [`TVar`] outside any
    /// transaction.
    pub fn read_atomic<T: Clone + Send + Sync>(&self, tvar: &TVar<T>) -> T {
        tvar.load_committed()
    }

    /// The shared statistics of this STM instance.
    pub fn stats(&self) -> &StmStats {
        &self.stats
    }

    /// The timestamp clock (exposed for instrumentation and tests).
    pub fn clock(&self) -> &TimestampClock {
        &self.clock
    }

    /// Kept by name only because `bench/` samples `limbo_len()` (ROADMAP
    /// item 1 deletes it): there is no limbo — an unlinked cell's `Arc`
    /// frees it.
    pub fn epoch(&self) -> NoLimbo {
        NoLimbo
    }

    pub(crate) fn config(&self) -> &StmConfig {
        &self.config
    }
}

/// What [`Stm::epoch`] returns: an empty limbo.
#[derive(Debug, Clone, Copy)]
pub struct NoLimbo;

impl NoLimbo {
    /// Always `0`.
    pub fn limbo_len(self) -> usize {
        0
    }
}

/// A per-thread handle used to run transactions against an [`Stm`].
///
/// The context owns the thread's contention-manager instance; managers are
/// decentralised and never shared between threads.
pub struct ThreadCtx<'stm> {
    stm: &'stm Stm,
    manager: Box<dyn ContentionManager>,
    /// Reusable read/write/publish-set storage lent to each attempt, so the
    /// tiny-transaction hot path does not reallocate its vectors per run.
    scratch: TxScratch,
    /// The context's reader slot, freed when the context is dropped.
    slot: ReaderSlot,
}

impl<'stm> std::fmt::Debug for ThreadCtx<'stm> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadCtx")
            .field("manager", &self.manager.name())
            .finish()
    }
}

impl<'stm> ThreadCtx<'stm> {
    /// The name of the contention manager driving this context.
    pub fn manager_name(&self) -> &'static str {
        self.manager.name()
    }

    /// The [`Stm`] this context belongs to.
    pub fn stm(&self) -> &'stm Stm {
        self.stm
    }

    /// Runs `body` atomically, retrying on conflict-induced aborts until it
    /// commits.
    ///
    /// The closure receives a [`Txn`] handle; every transactional operation
    /// returns a [`TxResult`] whose error must be propagated (with `?`) so
    /// the runtime can restart the attempt. The transaction keeps its
    /// timestamp — and therefore its greedy priority — across restarts.
    ///
    /// # Errors
    ///
    /// [`StmError::Aborted`] with [`AbortCause::Explicit`] if the closure
    /// called [`Txn::abort`]. Every other abort is retried.
    pub fn atomically<T, F>(&mut self, body: F) -> Result<T, StmError>
    where
        F: FnMut(&mut Txn<'_>) -> TxResult<T>,
    {
        self.atomically_traced(body).0
    }

    /// Like [`ThreadCtx::atomically`], but also returns a [`TxRunReport`]
    /// accounting for every attempt of this one call: attempts, aborts,
    /// conflicts, waits. Request-serving callers (the `stm-kv` server, the
    /// benchmark drivers) use this to attribute contention to the individual
    /// request instead of the process-wide [`crate::StmStats`] aggregate.
    pub fn atomically_traced<T, F>(&mut self, body: F) -> (Result<T, StmError>, TxRunReport)
    where
        F: FnMut(&mut Txn<'_>) -> TxResult<T>,
    {
        self.run(body, false)
    }

    /// Like [`ThreadCtx::atomically_traced`], but every committed attempt
    /// passes through the [`crate::StmBuilder::commit_hook`] even when the
    /// closure published no [`crate::CommitOp`]s, and the sequence number
    /// the hook assigned lands in [`TxRunReport::commit_seq`].
    ///
    /// Durable request-serving callers use this for two things: waiting for
    /// a write to become durable (`commit_seq` names the log record to wait
    /// for) and obtaining a *consistent cut* — a read-only transaction run
    /// through `atomically_logged` gets a sequence number `S` such that the
    /// state it observed is exactly the replay of log records `1..=S`, which
    /// is what makes point-in-time snapshots of a live keyspace correct.
    pub fn atomically_logged<T, F>(&mut self, body: F) -> (Result<T, StmError>, TxRunReport)
    where
        F: FnMut(&mut Txn<'_>) -> TxResult<T>,
    {
        self.run(body, true)
    }

    fn run<T, F>(&mut self, mut body: F, force_publish: bool) -> (Result<T, StmError>, TxRunReport)
    where
        F: FnMut(&mut Txn<'_>) -> TxResult<T>,
    {
        let stm = self.stm;
        // One clock draw per transaction: the timestamp is unique per `Stm`,
        // so it is the transaction's id too.
        let ts = stm.clock.next();
        let lineage = Arc::new(TxLineage::new(ts, ts));
        stm.stats.note_transaction();
        let mut report = TxRunReport::default();
        let mut attempt: u64 = 0;
        loop {
            attempt += 1;
            report.attempts = attempt;
            stm.stats.note_attempt();
            let shared = Arc::new(TxShared::new(Arc::clone(&lineage), attempt));
            self.slot.publish(&shared);
            let manager: &mut dyn ContentionManager = self.manager.as_mut();
            manager.begin(TxView::new(&shared));
            let mut txn = Txn::new(
                stm,
                Arc::clone(&shared),
                manager,
                &mut self.scratch,
                &self.slot,
            );
            if force_publish {
                txn.publish_marker();
            }
            let outcome = body(&mut txn);
            report.absorb_attempt(txn.stats());
            let cause = match outcome {
                Ok(value) => {
                    if txn.finish_commit() {
                        report.commit_seq = txn.commit_seq();
                        return (Ok(value), report);
                    }
                    // The status CAS lost: an enemy aborted us first.
                    AbortCause::CommitFailed
                }
                Err(StmError::Aborted(cause)) => cause,
            };
            txn.finish_abort(cause);
            report.abort_causes[cause.index()] += 1;
            report.aborts = attempt;
            if cause == AbortCause::Explicit {
                return (Err(StmError::Aborted(cause)), report);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{factory, AggressiveManager};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn single_threaded_read_write() {
        let stm = Stm::default();
        let v = TVar::new(10i32);
        let mut ctx = stm.thread();
        let out = ctx
            .atomically(|tx| {
                let x = tx.read(&v)?;
                tx.write(&v, x + 5)?;
                tx.read(&v)
            })
            .unwrap();
        assert_eq!(out, 15);
        assert_eq!(stm.read_atomic(&v), 15);
        let snap = stm.stats().snapshot();
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.aborts, 0);
    }

    #[test]
    fn modify_and_read_for_update() {
        let stm = Stm::default();
        let v = TVar::new(3u64);
        let mut ctx = stm.thread();
        ctx.atomically(|tx| tx.modify(&v, |x| x * 2)).unwrap();
        assert_eq!(stm.read_atomic(&v), 6);
        let prev = ctx
            .atomically(|tx| {
                let prev = tx.read_for_update(&v)?;
                tx.write(&v, prev + 1)?;
                Ok(prev)
            })
            .unwrap();
        assert_eq!(prev, 6);
        assert_eq!(stm.read_atomic(&v), 7);
    }

    #[test]
    fn multi_object_transaction_is_atomic() {
        let stm = Stm::default();
        let a = TVar::new(100i64);
        let b = TVar::new(0i64);
        let mut ctx = stm.thread();
        ctx.atomically(|tx| {
            let x = tx.read(&a)?;
            tx.write(&a, x - 40)?;
            tx.modify(&b, |y| y + 40)?;
            Ok(())
        })
        .unwrap();
        assert_eq!(stm.read_atomic(&a), 60);
        assert_eq!(stm.read_atomic(&b), 40);
    }

    #[test]
    fn explicit_abort_escapes_and_has_no_effect() {
        let stm = Stm::default();
        let v = TVar::new(1u32);
        let mut ctx = stm.thread();
        let err = ctx
            .atomically(|tx| {
                tx.write(&v, 999)?;
                tx.abort::<()>()
            })
            .unwrap_err();
        assert_eq!(err.abort_cause(), Some(AbortCause::Explicit));
        assert_eq!(stm.read_atomic(&v), 1);
    }

    #[test]
    fn aborted_writes_are_invisible() {
        let stm = Stm::default();
        let v = TVar::new(5u32);
        let mut ctx = stm.thread();
        let _ = ctx.atomically(|tx| {
            tx.write(&v, 50)?;
            tx.abort::<()>()
        });
        assert_eq!(stm.read_atomic(&v), 5);
        // A later transaction sees the original value and can update it.
        ctx.atomically(|tx| tx.modify(&v, |x| x + 1)).unwrap();
        assert_eq!(stm.read_atomic(&v), 6);
    }

    #[test]
    fn read_your_own_writes() {
        let stm = Stm::default();
        let v = TVar::new(0u32);
        let mut ctx = stm.thread();
        ctx.atomically(|tx| {
            tx.write(&v, 7)?;
            assert_eq!(tx.read(&v)?, 7);
            tx.modify(&v, |x| x + 1)?;
            assert_eq!(tx.read(&v)?, 8);
            Ok(())
        })
        .unwrap();
        assert_eq!(stm.read_atomic(&v), 8);
    }

    #[test]
    fn counter_increments_are_not_lost_across_threads() {
        let stm = Arc::new(
            Stm::builder()
                .manager(factory(AggressiveManager::new))
                .build(),
        );
        let counter = TVar::new(0u64);
        let threads = 4;
        let per_thread = 500u64;
        thread::scope(|scope| {
            for _ in 0..threads {
                let stm = Arc::clone(&stm);
                let counter = counter.clone();
                scope.spawn(move || {
                    let mut ctx = stm.thread();
                    for _ in 0..per_thread {
                        ctx.atomically(|tx| tx.modify(&counter, |x| x + 1)).unwrap();
                    }
                });
            }
        });
        assert_eq!(stm.read_atomic(&counter), threads * per_thread);
    }

    #[test]
    fn bank_invariant_preserved_under_contention() {
        let stm = Arc::new(Stm::default());
        let accounts: Vec<TVar<i64>> = (0..8).map(|_| TVar::new(1000)).collect();
        let total: i64 = 8 * 1000;
        thread::scope(|scope| {
            for t in 0..4usize {
                let stm = Arc::clone(&stm);
                let accounts = accounts.clone();
                scope.spawn(move || {
                    let mut ctx = stm.thread();
                    for i in 0..400usize {
                        let from = (t + i) % accounts.len();
                        let to = (t + i * 7 + 1) % accounts.len();
                        if from == to {
                            continue;
                        }
                        ctx.atomically(|tx| {
                            let a = tx.read(&accounts[from])?;
                            let b = tx.read(&accounts[to])?;
                            tx.write(&accounts[from], a - 10)?;
                            tx.write(&accounts[to], b + 10)?;
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        });
        let sum: i64 = accounts.iter().map(|a| stm.read_atomic(a)).sum();
        assert_eq!(sum, total);
    }

    #[test]
    fn traced_run_accounts_attempts_and_aborts() {
        let stm = Stm::default();
        let v = TVar::new(0u32);
        let mut ctx = stm.thread();
        // First-try commit: one attempt, no aborts, one read + one write.
        let (result, report) = ctx.atomically_traced(|tx| tx.modify(&v, |x| x + 1));
        assert!(result.is_ok());
        assert_eq!(report.attempts, 1);
        assert_eq!(report.aborts, 0);
        assert_eq!(report.writes, 1);
        // A body that fails twice before committing: three attempts, two
        // aborts, and the per-attempt counters folded across all attempts.
        let failures = AtomicUsize::new(2);
        let (result, report) = ctx.atomically_traced(|tx| {
            tx.modify(&v, |x| x + 1)?;
            if failures.load(Ordering::Relaxed) > 0 {
                failures.fetch_sub(1, Ordering::Relaxed);
                return Err(StmError::Aborted(AbortCause::ValidationFailed));
            }
            Ok(())
        });
        assert!(result.is_ok());
        assert_eq!(report.attempts, 3);
        assert_eq!(report.aborts, 2);
        assert_eq!(report.writes, 3);
        assert_eq!(stm.read_atomic(&v), 2);
        // An explicit abort ends the call and counts its attempt as aborted.
        let (result, report) = ctx.atomically_traced(|tx| tx.abort::<()>());
        assert_eq!(result, Err(StmError::Aborted(AbortCause::Explicit)));
        assert_eq!(report.attempts, 1);
        assert_eq!(report.aborts, 1);
    }

    #[test]
    fn read_heavy_loop_keeps_visible_reader_list_bounded() {
        let stm = Stm::default();
        let v = TVar::new(0u32);
        let mut ctx = stm.thread();
        for _ in 0..5_000 {
            ctx.atomically(|tx| tx.read(&v)).unwrap();
        }
        // Every finished reader clears its own bit: nothing accumulates.
        assert_eq!(v.inner().reader_word(), 0, "a read-only loop left a reader");
    }

    #[test]
    fn thread_ctx_reports_manager_name() {
        let stm = Stm::default();
        assert_eq!(stm.thread().manager_name(), "greedy");
        let ctx = stm.thread_with(Box::new(AggressiveManager::new()));
        assert_eq!(ctx.manager_name(), "aggressive");
    }

    #[test]
    fn timestamps_increase_per_transaction() {
        let stm = Stm::default();
        let mut ctx = stm.thread();
        let t1 = ctx.atomically(|tx| Ok(tx.timestamp())).unwrap();
        let t2 = ctx.atomically(|tx| Ok(tx.timestamp())).unwrap();
        assert!(t2 > t1);
        assert!(stm.clock().issued() >= 2);
    }

    #[test]
    fn stats_track_commits_and_transactions() {
        let stm = Stm::default();
        let v = TVar::new(0u8);
        let mut ctx = stm.thread();
        for _ in 0..10 {
            ctx.atomically(|tx| tx.modify(&v, |x| x.wrapping_add(1)))
                .unwrap();
        }
        let snap = stm.stats().snapshot();
        assert_eq!(snap.transactions, 10);
        assert_eq!(snap.commits, 10);
        assert!(snap.attempts >= 10);
        assert!(snap.writes >= 10);
    }
}
