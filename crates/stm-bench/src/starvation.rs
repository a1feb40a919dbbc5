//! The starvation experiment (E7, Theorem 1).
//!
//! Theorem 1 states that under the greedy manager every transaction commits
//! within a bounded delay. The experiment stresses exactly the situation in
//! which weaker managers starve long transactions: one thread repeatedly runs
//! a *long* transaction that updates a whole block of counters while many
//! threads hammer the same counters with short transactions. We record how
//! many attempts the long transaction needed and how long its slowest commit
//! took; for the greedy manager the long transaction's priority only grows
//! older, so it is never starved indefinitely.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use serde_json::{json, Value};
use stm_cm::ManagerKind;
use stm_core::Stm;
use stm_structures::TxCounter;

use crate::report::Ctx;

/// E7: one long writer over 32 counters against four short writers, under
/// greedy and three managers that make no such promise.
pub fn starvation(ctx: &Ctx) -> Vec<Value> {
    let duration = Duration::from_millis(if ctx.short() { 150 } else { 500 });
    [
        ManagerKind::Greedy,
        ManagerKind::Karma,
        ManagerKind::Aggressive,
        ManagerKind::Backoff,
    ]
    .into_iter()
    .map(|manager| starvation_experiment(manager, 4, 32, duration).to_json())
    .collect()
}

/// Result of the starvation experiment for one manager.
#[derive(Debug, Clone)]
pub struct StarvationResult {
    /// Contention manager exercised.
    pub manager: String,
    /// Number of short-transaction threads.
    pub short_threads: usize,
    /// Long transactions that committed while the short writers ran.
    pub long_commits: u64,
    /// Worst-case number of attempts a counted long transaction needed.
    pub worst_attempts: u64,
    /// Worst-case wall-clock latency of a counted long transaction (start of
    /// its first attempt to commit), in milliseconds.
    pub worst_latency_ms: f64,
    /// Short transactions committed during the run.
    pub short_commits: u64,
    /// Whether a long transaction committed while the short writers ran.
    pub no_starvation: bool,
}

impl StarvationResult {
    /// The row as a flat JSON object, keys in declaration order.
    #[must_use]
    pub(crate) fn to_json(&self) -> Value {
        json!({
            "manager": self.manager.as_str(),
            "short_threads": self.short_threads,
            "long_commits": self.long_commits,
            "worst_attempts": self.worst_attempts,
            "worst_latency_ms": self.worst_latency_ms,
            "short_commits": self.short_commits,
            "no_starvation": self.no_starvation,
        })
    }
}

/// Runs the starvation experiment for one manager.
///
/// One thread runs long transactions over `block` counters; `short_threads`
/// threads increment single random counters as fast as they can, for
/// `duration`. A long commit counts only if the run was still on when its
/// `atomically` returned: one that lands after `stop` may have run alone,
/// once the short writers quit.
pub fn starvation_experiment(
    manager: ManagerKind,
    short_threads: usize,
    block: usize,
    duration: Duration,
) -> StarvationResult {
    assert!(short_threads > 0 && block > 0);
    let stm = Arc::new(Stm::builder().manager(manager.factory()).build());
    let counters: Arc<Vec<TxCounter>> = Arc::new((0..block).map(|_| TxCounter::new()).collect());
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(short_threads + 2));

    let ((long_commits, worst_attempts, worst_latency), short_commits) = thread::scope(|scope| {
        // Long-transaction thread.
        let long_handle = {
            let stm = Arc::clone(&stm);
            let counters = Arc::clone(&counters);
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let mut ctx = stm.thread();
                let mut commits = 0u64;
                let mut worst_attempts = 0u64;
                let mut worst_latency = Duration::ZERO;
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    let started = Instant::now();
                    let mut attempts = 0u64;
                    ctx.atomically(|tx| {
                        attempts += 1;
                        for counter in counters.iter() {
                            counter.add(tx, 1)?;
                        }
                        Ok(())
                    })
                    .expect("the body never aborts explicitly");
                    if !stop.load(Ordering::Relaxed) {
                        commits += 1;
                        worst_attempts = worst_attempts.max(attempts);
                        worst_latency = worst_latency.max(started.elapsed());
                    }
                }
                (commits, worst_attempts, worst_latency)
            })
        };
        // Short-transaction threads.
        let mut short_handles = Vec::new();
        for t in 0..short_threads {
            let stm = Arc::clone(&stm);
            let counters = Arc::clone(&counters);
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            short_handles.push(scope.spawn(move || {
                let mut ctx = stm.thread();
                let mut commits = 0u64;
                let mut index = t;
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    index = (index + 7) % counters.len();
                    if ctx.atomically(|tx| counters[index].increment(tx)).is_ok() {
                        commits += 1;
                    }
                }
                commits
            }));
        }
        barrier.wait();
        thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        let long = long_handle.join().expect("long thread panicked");
        let short: u64 = short_handles
            .into_iter()
            .map(|handle| handle.join().expect("short thread panicked"))
            .sum();
        (long, short)
    });

    StarvationResult {
        manager: manager.name().to_string(),
        short_threads,
        long_commits,
        worst_attempts,
        worst_latency_ms: worst_latency.as_secs_f64() * 1e3,
        short_commits,
        no_starvation: long_commits > 0,
    }
}
