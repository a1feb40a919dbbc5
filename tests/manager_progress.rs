//! Every contention manager in the registry must drive contended workloads
//! to completion (this is a liveness smoke test, not a performance claim —
//! the theory chapter is precise about which managers have *provable*
//! progress guarantees), and greedy must keep its oldest transaction
//! running to commit.

use greedy_stm::cm::ManagerKind;
use greedy_stm::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;
use stm_bench::{run_workload, StructureKind, WorkloadConfig};

#[test]
fn all_managers_complete_a_contended_list_workload() {
    for kind in ManagerKind::ALL {
        let cfg = WorkloadConfig {
            threads: 4,
            key_range: 24, // small key range to force conflicts
            duration: Duration::from_millis(60),
            local_work: 0,
            seed: 0xc0ffee,
            ..WorkloadConfig::default()
        };
        let result = run_workload(kind, &StructureKind::List, &cfg);
        assert!(
            result.commits > 0,
            "manager {kind} committed nothing on the list workload"
        );
    }
}

#[test]
fn all_managers_complete_a_contended_rbtree_workload() {
    for kind in ManagerKind::ALL {
        let cfg = WorkloadConfig {
            threads: 3,
            key_range: 32,
            duration: Duration::from_millis(50),
            local_work: 0,
            seed: 0xabcd,
            ..WorkloadConfig::default()
        };
        let result = run_workload(kind, &StructureKind::RbTree, &cfg);
        assert!(
            result.commits > 0,
            "manager {kind} committed nothing on the red-black tree workload"
        );
    }
}

#[test]
fn greedy_and_greedy_timeout_complete_long_vs_short_mix() {
    for kind in [ManagerKind::Greedy, ManagerKind::GreedyTimeout] {
        let stm = Arc::new(Stm::builder().manager(kind.factory()).build());
        let counters: Arc<Vec<TxCounter>> = Arc::new((0..8).map(|_| TxCounter::new()).collect());
        thread::scope(|scope| {
            // Long transactions over all counters.
            {
                let stm = Arc::clone(&stm);
                let counters = Arc::clone(&counters);
                scope.spawn(move || {
                    let mut ctx = stm.thread();
                    for _ in 0..50 {
                        ctx.atomically(|tx| {
                            for counter in counters.iter() {
                                counter.increment(tx)?;
                            }
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
            // Short transactions on single counters.
            for t in 0..3usize {
                let stm = Arc::clone(&stm);
                let counters = Arc::clone(&counters);
                scope.spawn(move || {
                    let mut ctx = stm.thread();
                    for i in 0..600usize {
                        let idx = (t + i) % counters.len();
                        ctx.atomically(|tx| counters[idx].increment(tx)).unwrap();
                    }
                });
            }
        });
        // Long thread added 50 to every counter; short threads added 1800 in
        // total across counters.
        let total: i64 = counters.iter().map(|c| c.load(&stm)).sum();
        assert_eq!(total, 8 * 50 + 3 * 600, "updates lost under {kind}");
    }
}

#[test]
fn per_thread_manager_override_is_respected() {
    let stm = Stm::builder().manager(ManagerKind::Aggressive.factory()).build();
    assert_eq!(stm.thread().manager_name(), "aggressive");
    let ctx = stm.thread_with(Box::new(GreedyManager::new()));
    assert_eq!(ctx.manager_name(), "greedy");
    // Mixed-manager threads still cooperate correctly.
    let stm = Arc::new(stm);
    let counter = TxCounter::new();
    thread::scope(|scope| {
        for i in 0..4usize {
            let stm = Arc::clone(&stm);
            let counter = counter.clone();
            scope.spawn(move || {
                let mut ctx = if i % 2 == 0 {
                    stm.thread_with(Box::new(GreedyManager::new()))
                } else {
                    stm.thread()
                };
                for _ in 0..200 {
                    ctx.atomically(|tx| counter.increment(tx)).unwrap();
                }
            });
        }
    });
    assert_eq!(counter.load(&stm), 800);
}

#[test]
fn greedy_never_aborts_an_older_reader_on_the_real_runtime() {
    // The pending-commit property on the runtime rather than the simulator:
    // a read-only transaction that began before every writer is the oldest
    // running transaction, so under greedy it is never aborted. Writers
    // that acquire an account it has read must wait for it; a writer it
    // meets on an account it has not read yet is younger and gets aborted.
    //
    // Two inputs: the reader on an ordinary context, then on an overflow
    // context. With all `READER_SLOTS` slots held, the next context
    // overflows even while other tests in this binary hold some; the held
    // ones are released once it is claimed, so the writers get slots and
    // find the reader through the word's overflow count.
    let stm = Stm::builder()
        .manager(ManagerKind::Greedy.factory())
        .build();
    older_reader_commits_first_try(&stm, stm.thread());
    let held: Vec<_> = (0..stm_core::READER_SLOTS).map(|_| stm.thread()).collect();
    let overflow = stm.thread();
    drop(held);
    older_reader_commits_first_try(&stm, overflow);
}

/// One run of the greedy reader test with the reader on `reader_ctx`.
fn older_reader_commits_first_try(stm: &Stm, mut reader_ctx: stm_core::ThreadCtx<'_>) {
    const ACCOUNTS: usize = 8;
    const WRITERS: usize = 3;
    const TRANSFERS: usize = 200;
    const INITIAL: i64 = 100;
    let waits_before = stm.stats().snapshot().waits;
    let accounts: Vec<TVar<i64>> = (0..ACCOUNTS).map(|_| TVar::new(INITIAL)).collect();
    let go = Barrier::new(WRITERS + 1);
    // Set while the reader's first attempt holds account 0, before any
    // writer starts; a writer that commits a transfer touching account 0
    // while it is set did not find the reader.
    let holding = AtomicBool::new(false);
    let overtakes = AtomicUsize::new(0);
    let (accounts, go, holding, overtakes) = (&accounts, &go, &holding, &overtakes);
    let (sum, report) = thread::scope(|scope| {
        for w in 0..WRITERS {
            scope.spawn(move || {
                let mut ctx = stm.thread();
                go.wait();
                // Every writer begins after the reader: all are younger. A
                // bounded count, so a greedy that did abort the reader lets
                // it commit late and fails the attempt check, not a hang.
                for i in w..w + TRANSFERS {
                    let (from, to) = (i % ACCOUNTS, (3 * i + 1) % ACCOUNTS);
                    ctx.atomically(|tx| {
                        tx.modify(&accounts[from], |b| b - 1)?;
                        tx.modify(&accounts[to], |b| b + 1)
                    })
                    .unwrap();
                    if (from == 0 || to == 0) && holding.load(Ordering::SeqCst) {
                        overtakes.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
        reader_ctx.atomically_traced(|tx| {
            let mut sum = tx.read(&accounts[0])?;
            if tx.attempt() == 1 {
                holding.store(true, Ordering::SeqCst);
                go.wait();
            }
            for account in &accounts[1..] {
                thread::sleep(Duration::from_millis(2));
                sum += tx.read(account)?;
            }
            holding.store(false, Ordering::SeqCst);
            Ok(sum)
        })
    });
    assert_eq!(
        report.attempts, 1,
        "greedy aborted the oldest transaction: {report:?}"
    );
    assert_eq!(sum.unwrap(), ACCOUNTS as i64 * INITIAL);
    assert_eq!(
        overtakes.load(Ordering::SeqCst),
        0,
        "writers committed over account 0 while the reader held it"
    );
    assert!(
        stm.stats().snapshot().waits > waits_before,
        "no writer ever met the reader"
    );
    let total: i64 = accounts.iter().map(|a| stm.read_atomic(a)).sum();
    assert_eq!(total, ACCOUNTS as i64 * INITIAL);
}
