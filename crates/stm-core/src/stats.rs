//! Runtime statistics.
//!
//! Two levels of counters are maintained:
//!
//! * [`TxnStats`] — plain counters local to a single transaction attempt
//!   (reads, writes, conflicts, waits). They cost nothing to update.
//! * [`StmStats`] — the counters shared by every thread of an
//!   [`crate::Stm`]: striped counters of a `metrics::Registry`, so a thread
//!   increments its own cache line. Attempt-level counters are folded into
//!   them when the attempt commits or aborts, once per attempt rather than
//!   once per operation, and a fold of 0 is skipped.
//!
//! The registry is the one source of these counts: [`StmStats::snapshot`]
//! reads it in process (the benchmark harness `stm-bench` derives the
//! committed-transactions-per-second metric of Figures 1–4 of the paper
//! from it), and [`StmStats::metrics_text`] renders it for the `stm-kv`
//! server's `METRICS` verb. Each count has one counter; the only second
//! name is `stm_manager_decisions_total`, an alias kept while the repo
//! benchmark still reads it.

use std::fmt;
use std::sync::Arc;

use metrics::{Counter, Registry};

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

/// Shared, thread-safe counters for one [`crate::Stm`] instance, each a
/// series of its own registry, named `stm_<field>_total`. The aborts are
/// `stm_aborts_total{cause}`, one series per [`AbortCause`], and no other
/// counter: their sum is the abort count.
#[derive(Debug)]
pub struct StmStats {
    registry: Registry,
    transactions: Arc<Counter>,
    attempts: Arc<Counter>,
    commits: Arc<Counter>,
    conflicts: Arc<Counter>,
    waits: Arc<Counter>,
    enemy_aborts: Arc<Counter>,
    reads: Arc<Counter>,
    writes: Arc<Counter>,
    aborts_by_cause: [Arc<Counter>; ABORT_CAUSES],
}

impl StmStats {
    pub(crate) fn new() -> Self {
        let registry = Registry::new();
        let aborts_by_cause = AbortCause::ALL
            .map(|cause| registry.counter("stm_aborts_total", &[("cause", cause.label())]));
        let stats = StmStats {
            transactions: registry.counter("stm_transactions_total", &[]),
            attempts: registry.counter("stm_attempts_total", &[]),
            commits: registry.counter("stm_commits_total", &[]),
            conflicts: registry.counter("stm_conflicts_total", &[]),
            waits: registry.counter("stm_waits_total", &[]),
            enemy_aborts: registry.counter("stm_enemy_aborts_total", &[]),
            reads: registry.counter("stm_reads_total", &[]),
            writes: registry.counter("stm_writes_total", &[]),
            aborts_by_cause,
            registry,
        };
        let decision = "stm_manager_decisions_total";
        let self_aborts = &stats.aborts_by_cause[AbortCause::ManagerSelfAbort.index()];
        stats
            .registry
            .alias(decision, &[("decision", "wait")], &stats.waits);
        stats.registry.alias(
            decision,
            &[("decision", "abort_other")],
            &stats.enemy_aborts,
        );
        stats
            .registry
            .alias(decision, &[("decision", "abort_self")], self_aborts);
        stats
    }

    pub(crate) fn note_transaction(&self) {
        self.transactions.add(1);
    }

    pub(crate) fn note_attempt(&self) {
        self.attempts.add(1);
    }

    pub(crate) fn note_commit(&self, local: &TxnStats) {
        self.commits.add(1);
        self.fold(local);
    }

    pub(crate) fn note_abort(&self, local: &TxnStats, cause: AbortCause) {
        self.aborts_by_cause[cause.index()].add(1);
        self.fold(local);
    }

    fn fold(&self, local: &TxnStats) {
        for (counter, n) in [
            (&self.conflicts, local.conflicts),
            (&self.waits, local.waits),
            (&self.enemy_aborts, local.enemy_aborts),
            (&self.reads, local.reads),
            (&self.writes, local.writes),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
    }

    /// Takes a snapshot of all counters that is *directionally* consistent
    /// under concurrent updates: `commits + aborts <= attempts` holds in
    /// every snapshot, and `sum(aborts_by_cause) == aborts` by definition.
    ///
    /// A counter increment is a release and a counter read an acquire on
    /// every stripe (`metrics::Counter`), and an attempt is counted before
    /// its outcome, so the outcomes (causes, then commits) are read before
    /// the attempts: every outcome seen makes its attempt visible. Reading
    /// in declaration order once let a snapshot racing `note_attempt` +
    /// `note_commit` report more finished attempts than started ones.
    pub fn snapshot(&self) -> StatsSnapshot {
        let aborts_by_cause = self.aborts_by_cause.each_ref().map(|c| c.value());
        let commits = self.commits.value();
        let attempts = self.attempts.value();
        StatsSnapshot {
            transactions: self.transactions.value(),
            attempts,
            commits,
            aborts: aborts_by_cause.iter().sum(),
            conflicts: self.conflicts.value(),
            waits: self.waits.value(),
            enemy_aborts: self.enemy_aborts.value(),
            validation_failures: aborts_by_cause[AbortCause::ValidationFailed.index()],
            reads: self.reads.value(),
            writes: self.writes.value(),
            aborts_by_cause,
        }
    }

    /// Every series above in the registry's Prometheus text exposition.
    pub fn metrics_text(&self) -> String {
        self.registry.render()
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
        assert_eq!(
            snap.aborts_by_cause[AbortCause::ValidationFailed.index()],
            1
        );
        assert_eq!(snap.aborts_by_cause.iter().sum::<u64>(), snap.aborts);
        assert_eq!(snap.reads, 8);
        assert_eq!(snap.writes, 2);
        assert_eq!(snap.conflicts, 4);
        assert!((snap.abort_ratio() - 0.5).abs() < 1e-9);
        assert!((snap.attempts_per_commit() - 2.0).abs() < 1e-9);
        // The registry renders the same counts, and the decisions again.
        let text = stats.metrics_text();
        for line in [
            "stm_reads_total 8",
            "stm_aborts_total{cause=\"validation_failed\"} 1",
            "stm_manager_decisions_total{decision=\"wait\"} 2",
            "stm_manager_decisions_total{decision=\"abort_self\"} 0",
        ] {
            assert!(
                text.lines().any(|l| l == line),
                "missing `{line}` in:\n{text}"
            );
        }
        assert_eq!(text.matches("# TYPE").count(), 10, "{text}");
    }

    #[test]
    fn empty_snapshot_ratios_are_zero() {
        let snap = StmStats::new().snapshot();
        assert_eq!(snap.abort_ratio(), 0.0);
        assert_eq!(snap.attempts_per_commit(), 0.0);
        assert!(snap.to_string().contains("commits=0"));
    }
}
