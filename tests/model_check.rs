//! The headline bounded model-check suite (satellite of the loomlite work).
//!
//! Runs only with `--features model-check`, which swaps the lock-free hot
//! paths onto loomlite's modeled primitives via each crate's sync facade.
//! Each test drives one shipped protocol through its model and asserts the
//! checker actually explored a meaningful schedule space (> 100 distinct
//! schedules) — a model that silently degenerates to two or three
//! interleavings would be false confidence.
//!
//! The per-crate suites (`stm-core`, `arcswap`, `stm-log`) run the same
//! models and more; `arcswap`'s also asserts the *negative* side:
//! deliberately weakened memory orderings are caught with a printed failing
//! trace. Here we keep one end-to-end negative test so the workspace gate
//! exercises the detection path too.

#![cfg(feature = "model-check")]

/// Locator CAS publication vs guard reads: no torn value, no early free,
/// no stranded spill entry.
#[test]
fn arcswap_cas_vs_guard_is_safe() {
    let report = arcswap::models::cas_vs_guard_reclamation();
    eprintln!("arcswap cas-vs-guard: {report}");
    assert!(report.schedules() > 100, "{report}");
}

/// WAL slot ring: consumption is strictly in order and never stalls (any
/// timeout rescue — a lost wakeup — fails the model).
#[test]
fn wal_slot_ring_is_safe() {
    let report = stm_log::models::ring_consumes_in_order_without_stalling();
    eprintln!("ring in-order: {report}");
    assert!(report.schedules() > 100, "{report}");
    assert_eq!(report.timeout_rescues, 0, "{report}");
}

/// A `TVar`'s reader word: a writer that CASes the locator and then does
/// its RMW on the word either finds a registering reader or is seen by that
/// reader's locator load, and never arbitrates with a slot's successor
/// attempt that did not read the object.
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
    let failure =
        stm_core::models::pending_commit::<stm_core::manager::AggressiveManager>()
            .expect_err("aggressive aborts the oldest attempt");
    eprintln!("aggressive, caught as expected:\n{failure}");
    assert!(failure.message.contains("was aborted"), "{failure}");
    assert!(!failure.trace.is_empty(), "{failure}");
}

/// The detection path end-to-end: arcswap's load/free handshake with a
/// `Relaxed` reader count is caught as a use-after-free with a non-empty
/// failing trace — and caught by the exhaustive phase (the model runs no
/// random schedules), so the verdict is the same under every
/// `LOOMLITE_SEED` and every load. The `SeqCst` handshake is explored
/// completely and is safe.
#[test]
fn weakened_orderings_are_caught() {
    let safe = arcswap::models::transcribed_load_vs_free(false)
        .expect("SeqCst load/free handshake must be safe");
    assert!(safe.complete, "{safe}");
    assert_eq!(safe.random_schedules, 0, "{safe}");
    let failure = arcswap::models::transcribed_load_vs_free(true)
        .expect_err("Relaxed reader count + Acquire pointer load must be caught");
    eprintln!("caught as expected:\n{failure}");
    assert!(failure.message.contains("UAF"), "{failure}");
    assert!(!failure.message.contains("random schedule"), "{failure}");
    assert!(!failure.trace.is_empty(), "{failure}");
}
