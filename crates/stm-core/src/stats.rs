//! Runtime statistics.
//!
//! Two levels of counters are maintained:
//!
//! * [`TxnStats`] — plain counters local to a single transaction attempt
//!   (reads, writes, conflicts, waits). They cost nothing to update.
//! * [`StmStats`] — atomic counters shared by every thread of an [`crate::Stm`].
//!   Attempt-level counters are folded into them when the attempt commits or
//!   aborts, so shared cache lines are touched once per attempt rather than
//!   once per operation.
//!
//! The benchmark harness (`stm-bench`) derives committed-transactions-per-
//! second figures — the metric of Figures 1–4 of the paper — from
//! [`StmStats::snapshot`].

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::AbortCause;

/// Number of distinct [`AbortCause`] values — the length of every
/// per-cause counter array ([`TxRunReport::abort_causes`],
/// [`StatsSnapshot::aborts_by_cause`]), indexed by [`AbortCause::index`].
pub const ABORT_CAUSES: usize = AbortCause::ALL.len();

/// Counters local to one transaction attempt.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TxnStats {
    /// Number of transactional reads performed.
    pub reads: u64,
    /// Number of transactional writes performed.
    pub writes: u64,
    /// Number of conflicts encountered (each conflict may be resolved by
    /// several contention-manager consultations).
    pub conflicts: u64,
    /// Number of times this attempt waited for an enemy.
    pub waits: u64,
    /// Number of times this attempt requested that an enemy be aborted.
    pub enemy_aborts: u64,
}

impl TxnStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        TxnStats::default()
    }

    /// Total number of object opens (reads plus writes).
    pub fn opens(&self) -> u64 {
        self.reads + self.writes
    }
}

/// The accounting of one complete [`crate::ThreadCtx::atomically`] call —
/// every attempt of one logical transaction, folded together.
///
/// Returned by [`crate::ThreadCtx::atomically_traced`] so callers that serve
/// independent requests (the `stm-kv` server, the benchmark drivers) can
/// attribute retries, conflicts and waits to the request that caused them
/// instead of reading the process-wide [`StmStats`] aggregate.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TxRunReport {
    /// Attempts made (1 = committed first try).
    pub attempts: u64,
    /// Aborted attempts (`attempts - 1` when the call ultimately committed).
    pub aborts: u64,
    /// Conflicts encountered across all attempts.
    pub conflicts: u64,
    /// Contention-manager waits performed across all attempts.
    pub waits: u64,
    /// Enemy aborts requested across all attempts.
    pub enemy_aborts: u64,
    /// Transactional reads across all attempts.
    pub reads: u64,
    /// Transactional writes across all attempts.
    pub writes: u64,
    /// Aborted attempts broken down by [`AbortCause`], indexed by
    /// [`AbortCause::index`]. Sums to [`TxRunReport::aborts`].
    pub abort_causes: [u64; ABORT_CAUSES],
    /// Sequence number the [`crate::CommitHook`] assigned to the committed
    /// attempt's published write-set (`None` without a hook, when nothing
    /// was published, or when the call did not commit). Durable callers
    /// wait on this to know their log record reached stable storage.
    pub commit_seq: Option<u64>,
}

impl TxRunReport {
    /// Folds one attempt's local counters into the report.
    pub(crate) fn absorb_attempt(&mut self, local: &TxnStats) {
        self.conflicts += local.conflicts;
        self.waits += local.waits;
        self.enemy_aborts += local.enemy_aborts;
        self.reads += local.reads;
        self.writes += local.writes;
    }
}

/// Snapshot of the shared counters of an [`crate::Stm`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Transactions (lineages) started.
    pub transactions: u64,
    /// Attempts started (each retry is a new attempt).
    pub attempts: u64,
    /// Attempts that committed.
    pub commits: u64,
    /// Attempts that aborted.
    pub aborts: u64,
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Waits performed on behalf of contention managers.
    pub waits: u64,
    /// Enemy aborts requested by contention managers.
    pub enemy_aborts: u64,
    /// Aborts with cause [`AbortCause::ValidationFailed`]: the same count
    /// as that cause's entry in [`StatsSnapshot::aborts_by_cause`]. The
    /// runtime never raises that cause (every read is visible), so this is
    /// 0 unless user code returns it; the field stays because benchmark
    /// reports read it by name.
    pub validation_failures: u64,
    /// Transactional reads.
    pub reads: u64,
    /// Transactional writes.
    pub writes: u64,
    /// Aborts broken down by [`AbortCause`], indexed by
    /// [`AbortCause::index`]. Sums to [`StatsSnapshot::aborts`].
    pub aborts_by_cause: [u64; ABORT_CAUSES],
}

impl StatsSnapshot {
    /// Ratio of aborted attempts to all finished attempts, in `[0, 1]`.
    pub fn abort_ratio(&self) -> f64 {
        let finished = self.commits + self.aborts;
        if finished == 0 {
            0.0
        } else {
            self.aborts as f64 / finished as f64
        }
    }

    /// Average number of attempts needed per committed transaction.
    pub fn attempts_per_commit(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.attempts as f64 / self.commits as f64
        }
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "txns={} attempts={} commits={} aborts={} (ratio {:.2}) conflicts={} waits={} enemy-aborts={}",
            self.transactions,
            self.attempts,
            self.commits,
            self.aborts,
            self.abort_ratio(),
            self.conflicts,
            self.waits,
            self.enemy_aborts,
        )
    }
}

/// Shared, thread-safe counters for one [`crate::Stm`] instance.
#[derive(Debug, Default)]
pub struct StmStats {
    transactions: AtomicU64,
    attempts: AtomicU64,
    commits: AtomicU64,
    aborts: AtomicU64,
    conflicts: AtomicU64,
    waits: AtomicU64,
    enemy_aborts: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    aborts_by_cause: [AtomicU64; ABORT_CAUSES],
}

impl StmStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        StmStats::default()
    }

    pub(crate) fn note_transaction(&self) {
        self.transactions.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_attempt(&self) {
        self.attempts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_commit(&self, local: &TxnStats) {
        // ordering: release pairs with `snapshot`'s acquire load of
        // `commits` — observing this commit makes the attempt increment
        // that preceded it (program order) visible too, so a snapshot can
        // never report `commits + aborts > attempts`.
        self.commits.fetch_add(1, Ordering::Release);
        self.fold(local);
    }

    pub(crate) fn note_abort(&self, local: &TxnStats, cause: AbortCause) {
        // ordering: release for the same attempts identity as `note_commit`.
        self.aborts.fetch_add(1, Ordering::Release);
        // ordering: release pairs with `snapshot` loading the cause array
        // *before* `aborts` — observing the cause increment makes the
        // `aborts` increment above visible, so a snapshot can never report
        // `sum(aborts_by_cause) > aborts`.
        self.aborts_by_cause[cause.index()].fetch_add(1, Ordering::Release);
        self.fold(local);
    }

    fn fold(&self, local: &TxnStats) {
        self.conflicts.fetch_add(local.conflicts, Ordering::Relaxed);
        self.waits.fetch_add(local.waits, Ordering::Relaxed);
        self.enemy_aborts
            .fetch_add(local.enemy_aborts, Ordering::Relaxed);
        self.reads.fetch_add(local.reads, Ordering::Relaxed);
        self.writes.fetch_add(local.writes, Ordering::Relaxed);
    }

    /// Takes a snapshot of all counters that is *directionally* consistent
    /// under concurrent updates: the identities
    ///
    /// * `commits + aborts <= attempts` and
    /// * `sum(aborts_by_cause) <= aborts`
    ///
    /// hold in every snapshot, because derived counters are loaded before
    /// the counters they derive from (acquire loads pairing with the
    /// release increments in `note_commit` / `note_abort`: observing a
    /// derived increment makes the base increment that preceded it
    /// visible). A previous version loaded everything relaxed in
    /// declaration order, and a snapshot racing `note_attempt` +
    /// `note_commit` could report more finished attempts than started ones
    /// — a torn read that `abort_ratio` turned into nonsense.
    pub fn snapshot(&self) -> StatsSnapshot {
        // ordering: acquire loads, most-derived counters first — see above.
        let aborts_by_cause =
            std::array::from_fn(|i| self.aborts_by_cause[i].load(Ordering::Acquire));
        let aborts = self.aborts.load(Ordering::Acquire);
        let commits = self.commits.load(Ordering::Acquire);
        let attempts = self.attempts.load(Ordering::Relaxed);
        StatsSnapshot {
            transactions: self.transactions.load(Ordering::Relaxed),
            attempts,
            commits,
            aborts,
            conflicts: self.conflicts.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            enemy_aborts: self.enemy_aborts.load(Ordering::Relaxed),
            validation_failures: aborts_by_cause[AbortCause::ValidationFailed.index()],
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            aborts_by_cause,
        }
    }

    /// Number of committed attempts so far.
    pub fn commits(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    /// Number of aborted attempts so far.
    pub fn aborts(&self) -> u64 {
        self.aborts.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_stats_opens() {
        let s = TxnStats {
            reads: 3,
            writes: 2,
            ..TxnStats::new()
        };
        assert_eq!(s.opens(), 5);
    }

    #[test]
    fn snapshot_reflects_folds() {
        let stats = StmStats::new();
        stats.note_transaction();
        stats.note_attempt();
        let local = TxnStats {
            reads: 4,
            writes: 1,
            conflicts: 2,
            waits: 1,
            enemy_aborts: 1,
        };
        stats.note_abort(&local, AbortCause::ValidationFailed);
        stats.note_attempt();
        stats.note_commit(&local);
        let snap = stats.snapshot();
        assert_eq!(snap.transactions, 1);
        assert_eq!(snap.attempts, 2);
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.aborts, 1);
        assert_eq!(snap.validation_failures, 1);
        assert_eq!(snap.aborts_by_cause[AbortCause::ValidationFailed.index()], 1);
        assert_eq!(snap.aborts_by_cause.iter().sum::<u64>(), snap.aborts);
        assert_eq!(snap.reads, 8);
        assert_eq!(snap.writes, 2);
        assert_eq!(snap.conflicts, 4);
        assert!((snap.abort_ratio() - 0.5).abs() < 1e-9);
        assert!((snap.attempts_per_commit() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_snapshot_ratios_are_zero() {
        let snap = StmStats::new().snapshot();
        assert_eq!(snap.abort_ratio(), 0.0);
        assert_eq!(snap.attempts_per_commit(), 0.0);
        assert!(snap.to_string().contains("commits=0"));
    }
}
