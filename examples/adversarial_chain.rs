//! The paper's Section 4 worst case, end to end.
//!
//! Builds the chain of `s + 1` unit-length transactions over `s` objects,
//! simulates it under several contention managers, and compares each
//! makespan against the optimal off-line list schedule and against
//! Theorem 9's `s(s+1)+2` bound. The greedy manager lands at `s + 1`
//! (exactly the paper's analysis); the optimal schedule needs only 2.
//!
//! ```sh
//! cargo run --release --example adversarial_chain
//! cargo run --release --example adversarial_chain -- 12
//! ```

use greedy_stm::cm::ManagerKind;
use greedy_stm::sched::{
    chain, optimal_list_schedule, simulate, theorem9_bound, SimConfig, TaskSystem,
};

fn main() {
    let s: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(8);
    let ticks_per_unit = 10u64;
    let instance = chain(s, ticks_per_unit);
    println!(
        "adversarial chain: {} transactions over {} objects, unit length each",
        instance.transactions.len(),
        s
    );

    let tasks = TaskSystem::from_transactions(&instance.transactions);
    let optimal = optimal_list_schedule(&tasks);
    let optimal_units = optimal.makespan / ticks_per_unit as f64;
    println!(
        "optimal off-line list schedule: {:.2} time units ({}exhaustive search)",
        optimal_units,
        if optimal.exact { "" } else { "non-" }
    );
    println!("Theorem 9 bound for s = {s}: {:.0}\n", theorem9_bound(s));

    println!(
        "{:>14} {:>10} {:>8} {:>10} {:>16}",
        "manager", "makespan", "ratio", "aborts", "pending-commit"
    );
    for kind in [
        ManagerKind::Greedy,
        ManagerKind::GreedyTimeout,
        ManagerKind::Timestamp,
        ManagerKind::Karma,
        ManagerKind::Aggressive,
    ] {
        let outcome = simulate(
            &instance.transactions,
            kind.factory(),
            SimConfig { max_ticks: 500_000 },
        );
        let makespan = outcome.makespan_units(ticks_per_unit as f64);
        let ratio = makespan / optimal_units;
        println!(
            "{:>14} {:>10.2} {:>8.2} {:>10} {:>16}",
            kind.name(),
            makespan,
            ratio,
            outcome.total_aborts(),
            outcome.pending_commit_held
        );
    }
    println!(
        "\nexpected from the paper: greedy ≈ {:.0} (s + 1), optimal = {:.0}",
        instance.expected_greedy_makespan(),
        instance.expected_optimal_makespan()
    );
}
