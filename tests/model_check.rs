//! The headline bounded model-check suite (satellite of the loomlite work).
//!
//! Runs only with `--features model-check`, which swaps the concurrent hot
//! paths onto loomlite's modeled primitives via each crate's sync facade.
//! Each test drives one shipped protocol through its model and asserts the
//! checker actually explored a meaningful schedule space (> 100 distinct
//! schedules) — a model that silently degenerates to two or three
//! interleavings would be false confidence.
//!
//! The per-crate suites (`stm-core`, `stm-log`) run the same models and
//! more, each with its *negative* twin: a deliberately broken protocol is
//! caught with a printed failing trace. Here two negatives (the reordered
//! reader-word handshake and greedy's model under `AggressiveManager`)
//! keep the workspace gate exercising the detection path too. loomlite's
//! own weak-memory litmus tests run in its crate's suite.

#![cfg(feature = "model-check")]

/// WAL group commit: two committers, one whose commit CAS loses, against a
/// leading waiter. The flushed stream is gapless and in seq order, and the
/// loser takes no seq and writes no bytes (a lost wakeup would leave every
/// thread asleep: a deadlock, which fails the model).
#[test]
fn wal_group_commit_is_gapless() {
    let report = stm_log::models::append_is_gapless_and_a_lost_commit_writes_nothing();
    eprintln!("gapless append: {report}");
    assert!(report.schedules() > 100, "{report}");
}

/// A `TVar`'s reader word: a writer that acquires the object under its lock
/// and then loads the word either finds a registering reader or is seen by
/// that reader's open under the same lock, and never arbitrates with a
/// slot's successor attempt that did not read the object.
#[test]
fn reader_registry_is_safe() {
    let report = stm_core::models::reader_list_never_loses_a_visible_reader();
    eprintln!("reader word: {report}");
    assert!(report.schedules() > 100, "{report}");
}

/// `StmStats::snapshot` over the striped registry counters, racing one
/// commit and one abort: never more outcomes than attempts, and the causes
/// sum to the aborts.
#[test]
fn stats_snapshot_is_safe() {
    let report = stm_core::models::stats_snapshot_is_never_torn();
    eprintln!("stats snapshot: {report}");
    assert!(report.schedules() > 100, "{report}");
}

/// Greedy's pending-commit property at the decision level: three attempts,
/// two sharing a timestamp, each resolving against the other two with the
/// shipped `GreedyManager` and acting on the verdict — the oldest is never
/// told to wait and never aborted. Under `AggressiveManager` the same model
/// is caught with a trace.
#[test]
fn greedy_keeps_the_oldest_attempt_running() {
    let report = stm_core::models::greedy_keeps_the_oldest_running();
    eprintln!("greedy pending commit: {report}");
    assert!(report.schedules() > 100, "{report}");
    let failure = stm_core::models::pending_commit::<stm_core::manager::AggressiveManager>()
        .expect_err("aggressive aborts the oldest attempt");
    eprintln!("aggressive, caught as expected:\n{failure}");
    assert!(failure.message.contains("was aborted"), "{failure}");
    assert!(!failure.trace.is_empty(), "{failure}");
}

/// The detection path end-to-end: the reader-word handshake with the
/// writer's scan moved before its acquire is caught ("both missed") with a
/// non-empty failing trace, by the exhaustive phase, so the verdict does not
/// depend on `LOOMLITE_SEED`.
#[test]
fn a_reordered_handshake_is_caught() {
    let failure =
        stm_core::models::reader_word_handshake(stm_core::models::WriterScan::BeforeAcquire)
            .expect_err("a scan before the acquire must be caught");
    eprintln!("caught as expected:\n{failure}");
    assert!(failure.message.contains("both missed"), "{failure}");
    assert!(!failure.message.contains("random schedule"), "{failure}");
    assert!(!failure.trace.is_empty(), "{failure}");
}
