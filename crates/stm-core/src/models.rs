//! Bounded loomlite models of this crate's lock-free hot paths.
//!
//! Compiled only under `--features model-check`, where the [`crate::sync`]
//! facade (and the `metrics` crate's own) resolves to loomlite modeled
//! primitives — the models below drive the *shipped* code, not a copy: the
//! reader-list methods of a real [`TVar`] with real [`TxShared`] readers,
//! and a real [`StmStats`] over its striped registry counters. (The crate
//! has no reclaimer to model: a `TVar` is an `Arc`, so nothing here frees
//! memory a transaction could still reach.)
//!
//! Every function returns the checker's [`Report`] so callers (unit tests
//! here and the workspace-level `tests/model_check.rs`) can assert
//! exhaustiveness and schedule counts.

use loomlite::{Builder, Report};

use crate::error::AbortCause;
use crate::stats::{StmStats, TxnStats};
use crate::sync::Arc;
use crate::tvar::{TVar, READER_PRUNE_THRESHOLD, READER_SHARDS};
use crate::txn::{TxLineage, TxShared};

/// A running reader whose transaction id is `id`. Its status word is a
/// plain std atomic (not modeled): it is flipped before the reader's modeled
/// lock traffic and read under the shard lock, so the model's schedule space
/// stays on the shard locks themselves.
fn reader(id: u64) -> Arc<TxShared> {
    Arc::new(TxShared::new(Arc::new(TxLineage::new(id, id)), 1))
}

/// Real-code model: two readers register in the same shard of one object —
/// one of them past the prune threshold, forcing a prune on the way in —
/// while a writer scans with the object's `active_readers`. Asserts that a
/// visible (running, registration-completed) reader is never lost: the scan
/// returns only running readers, and both registrants are present
/// afterwards.
pub fn reader_list_never_loses_a_visible_reader() -> Report {
    // Every id below is a multiple of the shard count: one shard, one lock.
    let shard_mate = |k: u64| k * READER_SHARDS as u64;
    // Bounded-exhaustive (preemption bound 2) plus the seeded random phase.
    Builder::default().check(move || {
        let object = TVar::new(0u8);
        // Pre-fill the shard to the prune threshold with finished readers
        // so one of the concurrent registrations prunes on the way in.
        for i in 0..READER_PRUNE_THRESHOLD as u64 {
            let stale = reader(shard_mate(3 + i));
            assert!(object.inner().register_reader(&stale));
            stale.try_abort();
        }

        let a = reader(shard_mate(0));
        let b = reader(shard_mate(1));
        let writer = reader(shard_mate(2)); // never registered

        let t1 = {
            let (object, a) = (object.clone(), Arc::clone(&a));
            loomlite::thread::spawn(move || assert!(object.inner().register_reader(&a)))
        };
        let t2 = {
            let (object, b) = (object.clone(), Arc::clone(&b));
            loomlite::thread::spawn(move || assert!(object.inner().register_reader(&b)))
        };

        // Writer (this thread): arbitration scan racing both registrations.
        let seen = object.inner().active_readers(&writer);
        for r in &seen {
            assert!(r.is_active(), "scan returned a finished reader");
        }

        t1.join().unwrap();
        t2.join().unwrap();

        // Both registrations completed: neither the concurrent scan's prune
        // nor the threshold prune may have evicted a running reader.
        let after = object.inner().active_readers(&writer);
        assert!(
            after.iter().any(|r| Arc::ptr_eq(r, &a)),
            "reader a lost after concurrent register/scan"
        );
        assert!(
            after.iter().any(|r| Arc::ptr_eq(r, &b)),
            "reader b lost after concurrent register/scan"
        );
        assert_eq!(after.len(), 2, "stale readers survived the writer scan");
    })
}

/// Real-code model: one thread counts an attempt and its commit, another
/// an attempt and its abort, while this thread takes a snapshot of the
/// same [`StmStats`]. Asserts the snapshot identities in every explored
/// schedule: `commits + aborts <= attempts` (the outcomes are read before
/// the attempts, each increment a release and each stripe read an
/// acquire) and `sum(aborts_by_cause) == aborts`. With a `Relaxed`
/// `metrics::Counter::add` the first one fails.
///
/// The snapshot alone is 104 stripe loads (13 counters × 8 stripes), each a
/// schedule point, so the preemption bound is 1: a torn read needs just
/// one, the switch that lets an outcome land before the snapshot reads it.
pub fn stats_snapshot_is_never_torn() -> Report {
    let builder = Builder {
        preemption_bound: Some(1),
        ..Builder::default()
    };
    builder.check(|| {
        let stats = Arc::new(StmStats::new());
        let local = TxnStats::new();
        let committer = {
            let stats = Arc::clone(&stats);
            loomlite::thread::spawn(move || {
                stats.note_attempt();
                stats.note_commit(&local);
            })
        };
        let aborter = {
            let stats = Arc::clone(&stats);
            loomlite::thread::spawn(move || {
                stats.note_attempt();
                stats.note_abort(&local, AbortCause::KilledByEnemy);
            })
        };

        let snap = stats.snapshot();
        assert!(
            snap.commits + snap.aborts <= snap.attempts,
            "torn snapshot: {} commits + {} aborts > {} attempts",
            snap.commits,
            snap.aborts,
            snap.attempts
        );
        assert_eq!(snap.aborts_by_cause.iter().sum::<u64>(), snap.aborts);

        committer.join().unwrap();
        aborter.join().unwrap();
        let settled = stats.snapshot();
        assert_eq!((settled.attempts, settled.commits, settled.aborts), (2, 1, 1));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_registry_is_safe() {
        let report = reader_list_never_loses_a_visible_reader();
        eprintln!("reader list: {report}");
        assert!(report.schedules() > 100, "{report}");
    }

    #[test]
    fn stats_snapshot_is_safe() {
        let report = stats_snapshot_is_never_torn();
        eprintln!("stats snapshot: {report}");
        assert!(report.schedules() > 100, "{report}");
    }
}
