//! Bounded loomlite models of this crate's concurrent hot paths.
//!
//! Compiled only under `--features model-check`, where the [`crate::sync`]
//! facade (and the `metrics` crate's own) resolves to loomlite modeled
//! primitives — the models below drive the *shipped* code, not a copy: the
//! reader-word methods and the locked open and acquire of a real [`TVar`]
//! over a reader table of the model's own, with real [`TxShared`]
//! attempts, a real [`StmStats`] over its striped registry counters, and
//! the shipped [`GreedyManager`]'s decisions over real attempts. (The crate
//! has no reclaimer to model: a `TVar` is an `Arc` and its locator is
//! three fields under its own lock, updated in place, so nothing here
//! frees memory a transaction could still reach.)
//!
//! Every model returns the checker's [`Report`] so the unit tests below can
//! assert exhaustiveness and schedule counts; [`reader_word_handshake`]
//! returns the [`Failure`] instead when its writer scans before it acquires
//! and is caught.

use loomlite::{Builder, Failure, Report};

use crate::error::AbortCause;
use crate::manager::{ContentionManager, GreedyManager, Resolution, TxView};
use crate::stats::{StmStats, TxnStats};
use crate::sync::Arc;
use crate::tvar::{Open, ReaderTable, TVar};
use crate::txn::{TxLineage, TxShared};

/// A running attempt of transaction `id`. Its status word is a modeled
/// atomic like every other one in the runtime, so each status load in the
/// writer's walk is a schedule point too.
fn attempt(id: u64) -> Arc<TxShared> {
    Arc::new(TxShared::new(Arc::new(TxLineage::new(id, id)), 1))
}

/// When the writer in [`reader_word_handshake`] reads the reader word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriterScan {
    /// The shipped order: acquire the object under its lock, then
    /// `active_readers`' `load(Acquire)` of the word and its walk.
    AfterAcquire,
    /// The shipped `active_readers`, but run *before* the acquire: the
    /// handshake's order reversed, which the checker catches.
    BeforeAcquire,
}

/// Real-code model of the reader-word handshake. A reader in slot 0
/// registers on an object and then opens it under its lock; a writer in
/// slot 1 acquires the object under the same lock and scans the word
/// (`scan` says when); a second reader in slot 2, registered before the
/// race, finishes, clears its bit and publishes a successor attempt that
/// never reads the object.
///
/// Asserts that the writer's scan returns the reader or the reader's open
/// sees the writer — never both miss — and that the scan never returns a
/// descriptor that did not register on the object.
pub fn reader_word_handshake(scan: WriterScan) -> Result<Report, Failure> {
    Builder::default().check_quiet(move || {
        let table = Arc::new(ReaderTable::new());
        let object = TVar::new(0u8);
        let (reader, writer, other) = (attempt(1), attempt(2), attempt(3));
        let reader_slot = ReaderTable::claim(&table);
        let writer_slot = ReaderTable::claim(&table);
        let other_slot = ReaderTable::claim(&table);
        reader_slot.publish(&reader);
        writer_slot.publish(&writer);
        other_slot.publish(&other);
        assert!(object.inner().register_reader(&other_slot));

        let reading = {
            let (object, reader, writer) =
                (object.clone(), Arc::clone(&reader), Arc::clone(&writer));
            loomlite::thread::spawn(move || {
                assert!(object.inner().register_reader(&reader_slot));
                let saw_writer = matches!(
                    object.inner().open_read(&reader),
                    Open::Enemy(owner) if Arc::ptr_eq(&owner, &writer)
                );
                // The attempt stays registered, so its slot stays claimed.
                (saw_writer, reader_slot)
            })
        };
        let finishing = {
            let (object, other) = (object.clone(), Arc::clone(&other));
            loomlite::thread::spawn(move || {
                assert!(other.try_commit());
                object.inner().unregister_reader(&other_slot);
                other_slot.publish(&attempt(4));
                // Keep the successor published until the writer is done.
                other_slot
            })
        };

        // The writer (this thread).
        let inner = object.inner();
        let mut seen = Vec::new();
        let mut collect = |r: &Arc<TxShared>| {
            seen.push(Arc::clone(r));
            Ok::<(), ()>(())
        };
        if scan == WriterScan::BeforeAcquire {
            inner.active_readers(&writer_slot, &mut collect).unwrap();
        }
        assert!(matches!(inner.acquire(&writer), Ok(Open::Free(_))));
        if scan == WriterScan::AfterAcquire {
            inner.active_readers(&writer_slot, &mut collect).unwrap();
        }

        let (saw_writer, _reader_slot) = reading.join().unwrap();
        let _successor = finishing.join().unwrap();
        assert!(
            saw_writer || seen.iter().any(|r| Arc::ptr_eq(r, &reader)),
            "both missed: the writer's scan lost the reader and the reader's \
             open missed the writer"
        );
        for r in &seen {
            assert!(
                Arc::ptr_eq(r, &reader) || Arc::ptr_eq(r, &other),
                "the scan returned a descriptor that never registered"
            );
        }
    })
}

/// The shipped handshake ([`WriterScan::AfterAcquire`]) explored under the
/// default builder: bounded-exhaustive at preemption bound 2, plus the
/// seeded random phase. Panics with the failing trace if it is unsafe.
pub fn reader_list_never_loses_a_visible_reader() -> Report {
    reader_word_handshake(WriterScan::AfterAcquire).unwrap_or_else(|failure| panic!("{failure}"))
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
        assert_eq!(
            (settled.attempts, settled.commits, settled.aborts),
            (2, 1, 1)
        );
    })
}

/// Decision-level model of greedy's pending-commit property (Section 3,
/// Rules 1–2): the oldest running attempt is never aborted and never told
/// to wait.
///
/// Three attempts run at once. Attempts 1 and 2 share a timestamp, so the
/// id tie-break of [`TxView::outranks`] is what makes attempt 1 the oldest;
/// attempt 3 is younger than both. Each thread, while its own attempt is
/// still active, asks a fresh `M` to resolve a conflict with each other
/// attempt that is still active, and acts on the verdict the way the
/// runtime does: `AbortOther` CASes the enemy to aborted, and `Wait` raises
/// its public `waiting` flag, resolves once more (acting on an
/// `AbortOther`), and lowers the flag. Then it tries to commit. Every status and `waiting` access is a modeled atomic, so the
/// checker interleaves them all.
///
/// The runtime's wait loop ([`crate::wait::SpinWait`]) is not modeled: it
/// spins, yields and sleeps on real `std`, so a `Wait` here is the one
/// re-resolve, not a wait until the enemy quiesces. The property is about
/// the verdicts, which that loop only repeats.
///
/// Each thread makes a dozen modeled accesses, so the preemption bound is
/// 1, which the checker explores completely (10,875 schedules, then 200
/// seeded random ones); the aggressive failure needs no preemption at all.
///
/// Asserts in every schedule that the oldest attempt was never told to
/// wait and committed. [`greedy_keeps_the_oldest_running`] runs it under
/// [`GreedyManager`]; under `AggressiveManager` the younger attempts abort
/// the oldest and the model fails with a trace.
pub fn pending_commit<M>() -> Result<Report, Failure>
where
    M: ContentionManager + Default + 'static,
{
    let builder = Builder {
        preemption_bound: Some(1),
        ..Builder::default()
    };
    builder.check_quiet(|| {
        let attempts: Arc<[Arc<TxShared>; 3]> = Arc::new([
            Arc::new(TxShared::new(Arc::new(TxLineage::new(1, 1)), 1)),
            Arc::new(TxShared::new(Arc::new(TxLineage::new(2, 1)), 1)),
            Arc::new(TxShared::new(Arc::new(TxLineage::new(3, 2)), 1)),
        ]);
        let threads: Vec<_> = (0..attempts.len())
            .map(|me| {
                let attempts = Arc::clone(&attempts);
                loomlite::thread::spawn(move || {
                    let mut manager = M::default();
                    let mine = &attempts[me];
                    let mut told_to_wait = false;
                    for enemy in attempts.iter().filter(|a| !Arc::ptr_eq(a, mine)) {
                        if !mine.is_active() {
                            break;
                        }
                        if !enemy.is_active() {
                            continue;
                        }
                        let resolve = |manager: &mut M| {
                            manager.resolve(TxView::new(mine), TxView::new(enemy))
                        };
                        match resolve(&mut manager) {
                            Resolution::AbortOther => {
                                enemy.try_abort();
                            }
                            Resolution::Wait(_) => {
                                told_to_wait = true;
                                mine.set_waiting(true);
                                if resolve(&mut manager) == Resolution::AbortOther {
                                    enemy.try_abort();
                                }
                                mine.set_waiting(false);
                            }
                        }
                    }
                    (told_to_wait, mine.try_commit())
                })
            })
            .collect();
        let outcomes: Vec<(bool, bool)> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        let (oldest_waited, oldest_committed) = outcomes[0];
        assert!(!oldest_waited, "the oldest attempt was told to wait");
        assert!(oldest_committed, "the oldest attempt was aborted");
    })
}

/// [`pending_commit`] under the shipped [`GreedyManager`]. Panics with the
/// failing trace if greedy ever stops or aborts the oldest attempt.
pub fn greedy_keeps_the_oldest_running() -> Report {
    pending_commit::<GreedyManager>().unwrap_or_else(|failure| panic!("{failure}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_registry_is_safe() {
        let report = reader_list_never_loses_a_visible_reader();
        eprintln!("reader word: {report}");
        assert!(report.schedules() > 100, "{report}");
    }

    #[test]
    fn a_scan_before_the_acquire_is_caught() {
        let failure = reader_word_handshake(WriterScan::BeforeAcquire)
            .expect_err("a scan before the acquire must be caught");
        eprintln!("scan before the acquire, caught as expected:\n{failure}");
        assert!(failure.message.contains("both missed"), "{failure}");
        // Caught by the exhaustive phase, so the verdict does not depend on
        // `LOOMLITE_SEED`.
        assert!(!failure.message.contains("random schedule"), "{failure}");
        assert!(!failure.trace.is_empty(), "{failure}");
    }

    #[test]
    fn greedy_keeps_the_oldest_running_and_aggressive_does_not() {
        let report = greedy_keeps_the_oldest_running();
        eprintln!("greedy pending commit: {report}");
        assert!(report.schedules() > 100, "{report}");
        let failure = pending_commit::<crate::manager::AggressiveManager>()
            .expect_err("aggressive aborts the oldest attempt");
        eprintln!("aggressive, caught as expected:\n{failure}");
        assert!(failure.message.contains("was aborted"), "{failure}");
        assert!(!failure.trace.is_empty(), "{failure}");
    }

    #[test]
    fn stats_snapshot_is_safe() {
        let report = stats_snapshot_is_never_torn();
        eprintln!("stats snapshot: {report}");
        assert!(report.schedules() > 100, "{report}");
    }
}
