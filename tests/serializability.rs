//! Cross-crate integration tests: atomicity and serializability of the STM
//! under concurrent workloads and several contention managers.

use greedy_stm::cm::ManagerKind;
use greedy_stm::prelude::*;
use std::sync::Arc;
use std::thread;

fn stm_with(kind: ManagerKind) -> Stm {
    Stm::builder().manager(kind.factory()).build()
}

#[test]
fn counter_is_exact_for_every_manager() {
    for kind in ManagerKind::ALL {
        let stm = Arc::new(stm_with(kind));
        let counter = TxCounter::new();
        let threads = 4;
        let per_thread = 300;
        thread::scope(|scope| {
            for _ in 0..threads {
                let stm = Arc::clone(&stm);
                let counter = counter.clone();
                scope.spawn(move || {
                    let mut ctx = stm.thread();
                    for _ in 0..per_thread {
                        ctx.atomically(|tx| counter.increment(tx)).unwrap();
                    }
                });
            }
        });
        assert_eq!(
            counter.load(&stm),
            threads * per_thread,
            "lost updates under manager {kind}"
        );
    }
}

/// Named for the two read modes it once ran in; every read is visible now.
#[test]
fn bank_conservation_under_greedy_and_karma_both_visibilities() {
    for kind in [ManagerKind::Greedy, ManagerKind::Karma] {
        let stm = Arc::new(stm_with(kind));
        let accounts: Vec<TVar<i64>> = (0..16).map(|_| TVar::new(500)).collect();
        let expected: i64 = 16 * 500;
        thread::scope(|scope| {
            for t in 0..4usize {
                let stm = Arc::clone(&stm);
                let accounts = accounts.clone();
                scope.spawn(move || {
                    let mut ctx = stm.thread();
                    let mut seed = (t as u64) * 77 + 1;
                    for _ in 0..500 {
                        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let from = (seed >> 33) as usize % accounts.len();
                        let to = (seed >> 13) as usize % accounts.len();
                        if from == to {
                            continue;
                        }
                        ctx.atomically(|tx| {
                            let a = tx.read(&accounts[from])?;
                            let b = tx.read(&accounts[to])?;
                            tx.write(&accounts[from], a - 7)?;
                            tx.write(&accounts[to], b + 7)?;
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        });
        let total: i64 = accounts.iter().map(|a| stm.read_atomic(a)).sum();
        assert_eq!(total, expected, "conservation violated ({kind})");
    }
}

#[test]
fn write_skew_is_prevented_with_visible_reads() {
    // Classic write-skew shape: invariant x + y >= 0; each transaction reads
    // both variables and decrements one of them only if the sum allows it.
    // Every read is visible, so the runtime forces the two transactions to
    // arbitrate and the invariant must hold.
    let stm = Arc::new(stm_with(ManagerKind::Greedy));
    let x = TVar::new(1i64);
    let y = TVar::new(1i64);
    for _ in 0..200 {
        // Reset.
        {
            let mut ctx = stm.thread();
            ctx.atomically(|tx| {
                tx.write(&x, 1)?;
                tx.write(&y, 1)?;
                Ok(())
            })
            .unwrap();
        }
        thread::scope(|scope| {
            let stm_a = Arc::clone(&stm);
            let (xa, ya) = (x.clone(), y.clone());
            scope.spawn(move || {
                let mut ctx = stm_a.thread();
                ctx.atomically(|tx| {
                    let sum = tx.read(&xa)? + tx.read(&ya)?;
                    if sum >= 2 {
                        tx.modify(&xa, |v| v - 2)?;
                    }
                    Ok(())
                })
                .unwrap();
            });
            let stm_b = Arc::clone(&stm);
            let (xb, yb) = (x.clone(), y.clone());
            scope.spawn(move || {
                let mut ctx = stm_b.thread();
                ctx.atomically(|tx| {
                    let sum = tx.read(&xb)? + tx.read(&yb)?;
                    if sum >= 2 {
                        tx.modify(&yb, |v| v - 2)?;
                    }
                    Ok(())
                })
                .unwrap();
            });
        });
        let total = stm.read_atomic(&x) + stm.read_atomic(&y);
        assert!(total >= 0, "write skew produced an invalid state: {total}");
    }
}

#[test]
fn multi_structure_transactions_are_atomic_under_contention() {
    let stm = Arc::new(stm_with(ManagerKind::Greedy));
    let tree = TxRbTree::new();
    let list = TxList::new();
    // Invariant: tree and list always contain exactly the same elements.
    thread::scope(|scope| {
        for t in 0..4i64 {
            let stm = Arc::clone(&stm);
            let tree = tree.clone();
            let list = list.clone();
            scope.spawn(move || {
                let mut ctx = stm.thread();
                let mut seed = (t as u64) | 1;
                for _ in 0..300 {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let key = ((seed >> 33) % 48) as i64;
                    let insert = (seed >> 9) & 1 == 0;
                    ctx.atomically(|tx| {
                        if insert {
                            let a = tree.insert(tx, key)?;
                            let b = list.insert(tx, key)?;
                            assert_eq!(a, b, "structures diverged inside a transaction");
                        } else {
                            let a = tree.remove(tx, key)?;
                            let b = list.remove(tx, key)?;
                            assert_eq!(a, b, "structures diverged inside a transaction");
                        }
                        Ok(())
                    })
                    .unwrap();
                }
            });
        }
    });
    let mut ctx = stm.thread();
    let (tree_contents, list_contents) = ctx
        .atomically(|tx| Ok((tree.to_vec(tx)?, list.to_vec(tx)?)))
        .unwrap();
    assert_eq!(tree_contents, list_contents);
    ctx.atomically(|tx| tree.check_invariants(tx)).unwrap();
}

#[test]
fn random_transfers_conserve_total_for_literature_managers() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const ACCOUNTS: usize = 12;
    const INITIAL: i64 = 1_000;
    const TRANSFERS_PER_THREAD: usize = 400;
    const THREADS: usize = 4;

    for kind in [
        ManagerKind::Greedy,
        ManagerKind::Karma,
        ManagerKind::Polka,
        ManagerKind::Timestamp,
    ] {
        let stm = Arc::new(stm_with(kind));
        let accounts: Vec<TVar<i64>> = (0..ACCOUNTS).map(|_| TVar::new(INITIAL)).collect();
        let expected = (ACCOUNTS as i64) * INITIAL;

        thread::scope(|scope| {
            for t in 0..THREADS {
                let stm = Arc::clone(&stm);
                let accounts = accounts.clone();
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0xacc7_0000 + t as u64);
                    let mut ctx = stm.thread();
                    for _ in 0..TRANSFERS_PER_THREAD {
                        let from = rng.gen_range(0..ACCOUNTS);
                        let to = rng.gen_range(0..ACCOUNTS);
                        let amount = rng.gen_range(1i64..=75);
                        ctx.atomically(|tx| {
                            // Overdrafts allowed: conservation is the
                            // invariant under test, not solvency.
                            tx.modify(&accounts[from], |b| b - amount)?;
                            tx.modify(&accounts[to], |b| b + amount)?;
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        });

        let direct: i64 = accounts.iter().map(|a| stm.read_atomic(a)).sum();
        assert_eq!(
            direct, expected,
            "manager {kind}: total drifted after random transfers"
        );
        let mut ctx = stm.thread();
        let audited: i64 = ctx
            .atomically(|tx| {
                let mut sum = 0;
                for account in &accounts {
                    sum += tx.read(account)?;
                }
                Ok(sum)
            })
            .unwrap();
        assert_eq!(
            audited, expected,
            "manager {kind}: transactional audit disagrees"
        );
    }
}

/// Read-mostly extension of the conservation check: 90% of each thread's
/// transactions are pure lookups that sum every account *inside* the
/// transaction and assert the invariant on the spot — a lookup that
/// interleaves with a half-committed transfer would observe a torn balance
/// immediately. The remaining 10% are the usual random transfers.
#[test]
fn read_mostly_lookups_never_observe_a_torn_balance() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const ACCOUNTS: usize = 12;
    const INITIAL: i64 = 1_000;
    const OPS_PER_THREAD: usize = 400;
    const THREADS: usize = 4;

    for kind in [
        ManagerKind::Greedy,
        ManagerKind::Karma,
        ManagerKind::Polka,
        ManagerKind::Timestamp,
    ] {
        let stm = Arc::new(stm_with(kind));
        let accounts: Vec<TVar<i64>> = (0..ACCOUNTS).map(|_| TVar::new(INITIAL)).collect();
        let expected = (ACCOUNTS as i64) * INITIAL;

        thread::scope(|scope| {
            for t in 0..THREADS {
                let stm = Arc::clone(&stm);
                let accounts = accounts.clone();
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0x4ead_0000 + t as u64);
                    let mut ctx = stm.thread();
                    let mut lookups = 0usize;
                    for _ in 0..OPS_PER_THREAD {
                        if rng.gen_bool(0.9) {
                            // Lookup: a long read-only transaction over
                            // every account; the sum must be exact at the
                            // instant the transaction (logically) executes.
                            let observed: i64 = ctx
                                .atomically(|tx| {
                                    let mut sum = 0;
                                    for account in &accounts {
                                        sum += tx.read(account)?;
                                    }
                                    Ok(sum)
                                })
                                .unwrap();
                            assert_eq!(
                                observed, expected,
                                "manager {kind}: lookup observed a torn balance"
                            );
                            lookups += 1;
                        } else {
                            let from = rng.gen_range(0..ACCOUNTS);
                            let to = rng.gen_range(0..ACCOUNTS);
                            let amount = rng.gen_range(1i64..=50);
                            ctx.atomically(|tx| {
                                tx.modify(&accounts[from], |b| b - amount)?;
                                tx.modify(&accounts[to], |b| b + amount)?;
                                Ok(())
                            })
                            .unwrap();
                        }
                    }
                    // The 90/10 split must actually be read-dominated.
                    assert!(lookups > OPS_PER_THREAD / 2);
                });
            }
        });

        let total: i64 = accounts.iter().map(|a| stm.read_atomic(a)).sum();
        assert_eq!(
            total, expected,
            "manager {kind}: total drifted in the read-mostly mix"
        );
    }
}
