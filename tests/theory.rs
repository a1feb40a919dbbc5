//! Integration tests for the theory half of the paper (Section 4), driving
//! the simulator, the schedulers and the real contention managers together.

use greedy_stm::cm::ManagerKind;
use greedy_stm::sched::{
    chain, garey_graham_bound, list_schedule, optimal_list_schedule, random_transaction_system,
    simulate, theorem9_bound, RandomSystemConfig, SimAccess, SimConfig, SimTransaction, TaskSystem,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[test]
fn paper_example_greedy_is_s_plus_one_and_optimal_is_two() {
    for s in [2usize, 4, 8] {
        let ticks = 10u64;
        let instance = chain(s, ticks);
        let outcome = simulate(
            &instance.transactions,
            ManagerKind::Greedy.factory(),
            SimConfig::default(),
        );
        let makespan = outcome.makespan_units(ticks as f64);
        assert!(
            (makespan - (s as f64 + 1.0)).abs() < 0.2,
            "greedy makespan for s={s} was {makespan}, expected ~{}",
            s + 1
        );
        let tasks = TaskSystem::from_transactions(&instance.transactions);
        let optimal = optimal_list_schedule(&tasks).makespan / ticks as f64;
        assert!(
            (optimal - 2.0).abs() < 1e-9,
            "optimal should be 2, got {optimal}"
        );
        assert!(outcome.pending_commit_held);
        // Theorem 1: every transaction eventually commits.
        assert!(outcome.commit_ticks.iter().all(|&t| t != u64::MAX));
    }
}

#[test]
fn greedy_never_aborts_the_oldest_transaction_on_random_instances() {
    let config = RandomSystemConfig {
        transactions: 8,
        objects: 4,
        min_duration: 4,
        max_duration: 20,
        accesses_per_transaction: 3,
        write_fraction: 1.0,
    };
    for seed in 0..15u64 {
        let txns = random_transaction_system(&config, seed);
        let outcome = simulate(&txns, ManagerKind::Greedy.factory(), SimConfig::default());
        assert!(
            outcome.makespan_ticks.is_some(),
            "seed {seed} did not finish"
        );
        // The transaction with the smallest priority timestamp is never the
        // victim of Rule 1, so it must commit without a single abort.
        let oldest = txns
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| t.priority)
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(
            outcome.aborts[oldest], 0,
            "seed {seed}: the oldest transaction was aborted"
        );
    }
}

#[test]
fn greedy_respects_theorem9_on_random_instances() {
    // Only the pure greedy manager provably satisfies the pending-commit
    // property (the paper notes that none of the literature managers do, and
    // the Section 6 timeout extension can spuriously kill the oldest
    // transaction when its timeout is shorter than the enemy's execution), so
    // the strict Theorem 9 check applies to greedy alone.
    let config = RandomSystemConfig {
        transactions: 6,
        objects: 3,
        min_duration: 5,
        max_duration: 15,
        accesses_per_transaction: 2,
        write_fraction: 1.0,
    };
    let bound = theorem9_bound(config.objects);
    for seed in 0..15u64 {
        let txns = random_transaction_system(&config, seed);
        let outcome = simulate(
            &txns,
            ManagerKind::Greedy.factory(),
            SimConfig { max_ticks: 200_000 },
        );
        let Some(makespan) = outcome.makespan_ticks else {
            panic!("greedy did not finish on seed {seed}");
        };
        assert!(
            outcome.pending_commit_held,
            "seed {seed}: pending-commit violated"
        );
        let tasks = TaskSystem::from_transactions(&txns);
        let optimal = optimal_list_schedule(&tasks).makespan;
        assert!(
            (makespan as f64) <= bound * optimal + 1e-6,
            "seed {seed}: makespan {makespan} vs optimal {optimal} exceeds bound {bound}"
        );
    }
}

/// Garey & Graham: *every* list order is within (s + 1)× of the best list
/// order found (which itself upper-bounds the optimum).
#[test]
fn any_list_order_is_within_garey_graham_of_the_best() {
    let mut rng = SmallRng::seed_from_u64(0x6a7e_1157);
    for case in 0..24 {
        let seed = rng.gen_range(0u64..1000);
        let n = rng.gen_range(3usize..7);
        let s = rng.gen_range(1usize..4);
        let config = RandomSystemConfig {
            transactions: n,
            objects: s,
            min_duration: 2,
            max_duration: 12,
            accesses_per_transaction: 2.min(s),
            write_fraction: 1.0,
        };
        let txns = random_transaction_system(&config, seed);
        let tasks = TaskSystem::from_transactions(&txns);
        let best = optimal_list_schedule(&tasks);
        let identity: Vec<usize> = (0..tasks.len()).collect();
        let reversed: Vec<usize> = identity.iter().rev().copied().collect();
        for order in [identity, reversed] {
            let m = list_schedule(&tasks, &order).makespan;
            assert!(
                m <= garey_graham_bound(s) * best.makespan + 1e-6,
                "case {case} (seed {seed}, n {n}, s {s}): {m} exceeds bound"
            );
            assert!(
                m + 1e-9 >= best.makespan,
                "case {case}: beat the best order"
            );
            assert!(
                m + 1e-9 >= tasks.makespan_lower_bound(),
                "case {case}: beat the lower bound"
            );
        }
    }
}

/// The simulated greedy makespan never exceeds the serial execution of
/// all transactions (a loose but absolute sanity bound), and Theorem 1
/// holds: every transaction commits.
#[test]
fn greedy_simulation_terminates_within_serial_time() {
    let mut rng = SmallRng::seed_from_u64(0x005e_71a1);
    for case in 0..24 {
        let seed = rng.gen_range(0u64..1000);
        let n = rng.gen_range(2usize..8);
        let s = rng.gen_range(1usize..5);
        let config = RandomSystemConfig {
            transactions: n,
            objects: s,
            min_duration: 3,
            max_duration: 10,
            accesses_per_transaction: 2.min(s),
            write_fraction: 1.0,
        };
        let txns = random_transaction_system(&config, seed);
        let outcome = simulate(&txns, ManagerKind::Greedy.factory(), SimConfig::default());
        let makespan = outcome.makespan_ticks.expect("greedy always terminates");
        assert!(
            outcome.commit_ticks.iter().all(|&t| t != u64::MAX),
            "case {case} (seed {seed}): a transaction never committed"
        );
        // Under greedy, work is never wasted forever: the makespan is at most
        // the total serial duration times (1 + total number of aborts).
        let serial: u64 = txns.iter().map(|t| t.duration).sum();
        assert!(
            makespan <= serial * (1 + outcome.total_aborts()) + serial,
            "case {case} (seed {seed}): makespan {makespan} exceeds abort-adjusted serial time"
        );
    }
}

/// The chain construction scales: greedy lands on s + 1 for arbitrary s.
#[test]
fn chain_scales_with_s() {
    for s in 2usize..10 {
        let ticks = 10u64;
        let instance = chain(s, ticks);
        let outcome = simulate(
            &instance.transactions,
            ManagerKind::Greedy.factory(),
            SimConfig::default(),
        );
        let makespan = outcome.makespan_units(ticks as f64);
        assert!(
            (makespan - (s as f64 + 1.0)).abs() < 0.2,
            "s {s}: greedy makespan {makespan}, expected ~{}",
            s + 1
        );
        assert!(
            makespan / 2.0 <= theorem9_bound(s),
            "s {s}: ratio exceeds Theorem 9"
        );
    }
}

/// The simulator waits the way the runtime does: a bounded wait ends after
/// its `max` (one tick is 1 µs), and the waiter asks its manager again.
/// T0 is old and 10,000 ticks long, T1 young and 10 ticks long, and both
/// write object 0 at offset 0, so T1 meets T0 first thing and every manager
/// but Greedy and Aggressive bounds the wait it grants T0.
#[test]
fn a_bounded_wait_ends_and_the_manager_is_asked_again() {
    let write_object_0 = vec![SimAccess {
        offset: 0,
        object: 0,
        write: true,
    }];
    let txns = [(10_000, 0), (10, 1)].map(|(duration, priority)| SimTransaction {
        duration,
        priority,
        accesses: write_object_0.clone(),
    });
    let config = SimConfig { max_ticks: 100_000 };
    for kind in ManagerKind::ALL {
        let outcome = simulate(&txns, kind.factory(), config);
        let summary = format!("{}: {outcome:?}", kind.name());
        match kind {
            // Rule 2's wait is unbounded: T1 waits out the whole of T0.
            ManagerKind::Greedy => {
                assert_eq!(outcome.commit_ticks, [10_000, 10_010], "{summary}");
                assert_eq!(outcome.total_aborts(), 0, "{summary}");
            }
            // In lockstep the two abort each other every tick (ROADMAP item
            // 19 tells that artefact from the paper's livelock).
            ManagerKind::Aggressive => {}
            // Each expired wait doubles T0's time-out until one outlasts
            // its 10,000 ticks.
            ManagerKind::GreedyTimeout => {
                assert!(outcome.aborts[0] >= 1, "{summary}");
                assert!(outcome.makespan_ticks.is_some(), "{summary}");
            }
            _ => assert!(outcome.aborts[0] >= 1, "{summary}"),
        }
    }
}
