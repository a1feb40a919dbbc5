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

/// A `TVar`'s visible-reader list: a registered running reader is never
/// lost to a concurrent scan's pruning.
#[test]
fn reader_registry_is_safe() {
    let report = stm_core::models::reader_list_never_loses_a_visible_reader();
    eprintln!("reader list: {report}");
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
