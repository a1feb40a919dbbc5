//! Theorem 1 in practice: under the greedy manager a long transaction that
//! conflicts with a storm of short transactions still commits within a
//! bounded number of attempts (its timestamp only gets older, so eventually
//! it outranks every newcomer).

use greedy_stm::cm::ManagerKind;
use std::time::Duration;
use stm_bench::starvation_experiment;

#[test]
fn greedy_never_starves_the_long_transaction() {
    let result = starvation_experiment(ManagerKind::Greedy, 4, 24, Duration::from_millis(250));
    assert!(
        result.no_starvation,
        "greedy starved the long transaction: {result:?}"
    );
    assert!(result.long_commits > 0);
    assert!(result.short_commits > 0);
}

#[test]
fn greedy_timeout_extension_also_avoids_starvation() {
    let result = starvation_experiment(
        ManagerKind::GreedyTimeout,
        4,
        24,
        Duration::from_millis(250),
    );
    assert!(
        result.no_starvation,
        "greedy-timeout starved the long transaction: {result:?}"
    );
    assert!(result.long_commits > 0);
}

#[test]
fn timestamp_manager_also_completes_long_transactions() {
    // Scherer & Scott's timestamp manager is the other manager the paper
    // credits with progress if transactions can halt; it should also finish
    // long transactions here (no assertion on how many).
    let result = starvation_experiment(ManagerKind::Timestamp, 3, 16, Duration::from_millis(200));
    assert!(
        result.long_commits > 0,
        "timestamp never committed a long transaction"
    );
}

#[test]
fn starvation_experiment_reports_consistent_counters() {
    let result = starvation_experiment(ManagerKind::Karma, 2, 8, Duration::from_millis(120));
    assert_eq!(result.manager, "karma");
    assert_eq!(result.short_threads, 2);
    assert!(result.worst_attempts == 0 || result.long_commits > 0);
    assert!(result.worst_latency_ms >= 0.0);
}
