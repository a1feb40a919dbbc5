//! A bank of accounts under concurrent transfers: the canonical "money is
//! conserved" STM demonstration, plus a whole-bank audit transaction that the
//! greedy manager guarantees will not starve (Theorem 1), even though it
//! conflicts with every transfer.
//!
//! ```sh
//! cargo run --release --example bank
//! ```

use greedy_stm::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const ACCOUNTS: usize = 64;
const INITIAL_BALANCE: i64 = 1_000;
const TRANSFER_THREADS: usize = 6;

fn main() {
    let stm = Arc::new(Stm::builder().manager(GreedyManager::factory()).build());
    let accounts: Arc<Vec<TVar<i64>>> =
        Arc::new((0..ACCOUNTS).map(|_| TVar::new(INITIAL_BALANCE)).collect());
    let expected_total = (ACCOUNTS as i64) * INITIAL_BALANCE;
    let stop = Arc::new(AtomicBool::new(false));

    let started = Instant::now();
    let mut audit_count = 0u64;
    let mut worst_audit_attempts = 0u64;
    thread::scope(|scope| {
        // Transfer threads: short two-account transactions.
        for t in 0..TRANSFER_THREADS {
            let stm = Arc::clone(&stm);
            let accounts = Arc::clone(&accounts);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut ctx = stm.thread();
                let mut seed = (t as u64).wrapping_mul(0x9e3779b97f4a7c15) | 1;
                while !stop.load(Ordering::Relaxed) {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let from = (seed >> 33) as usize % ACCOUNTS;
                    let to = (seed >> 13) as usize % ACCOUNTS;
                    if from == to {
                        continue;
                    }
                    let amount = ((seed >> 5) % 50) as i64 + 1;
                    ctx.atomically(|tx| {
                        let balance = tx.read(&accounts[from])?;
                        // Never overdraw: skip the transfer but still commit.
                        if balance >= amount {
                            tx.write(&accounts[from], balance - amount)?;
                            tx.modify(&accounts[to], |b| b + amount)?;
                        }
                        Ok(())
                    })
                    .unwrap();
                }
            });
        }
        // Audit thread: one long transaction reading every account.
        let audit = {
            let stm = Arc::clone(&stm);
            let accounts = Arc::clone(&accounts);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut ctx = stm.thread();
                let mut audits = 0u64;
                let mut worst_attempts = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let mut attempts = 0u64;
                    let total = ctx
                        .atomically(|tx| {
                            attempts += 1;
                            let mut sum = 0i64;
                            for account in accounts.iter() {
                                sum += tx.read(account)?;
                            }
                            Ok(sum)
                        })
                        .unwrap();
                    assert_eq!(
                        total,
                        (ACCOUNTS as i64) * INITIAL_BALANCE,
                        "money vanished!"
                    );
                    audits += 1;
                    worst_attempts = worst_attempts.max(attempts);
                    thread::sleep(Duration::from_millis(1));
                }
                (audits, worst_attempts)
            })
        };
        thread::sleep(Duration::from_millis(500));
        stop.store(true, Ordering::Relaxed);
        let (audits, worst) = audit.join().unwrap();
        audit_count = audits;
        worst_audit_attempts = worst;
    });

    let final_total: i64 = accounts.iter().map(|a| stm.read_atomic(a)).sum();
    let stats = stm.stats().snapshot();
    println!("ran for {:?}", started.elapsed());
    println!(
        "final total = {final_total} (expected {expected_total}) — conservation {}",
        if final_total == expected_total {
            "holds"
        } else {
            "VIOLATED"
        }
    );
    println!(
        "audits completed: {audit_count}, worst attempts for one audit: {worst_audit_attempts}"
    );
    println!(
        "transactions: {} committed, {} aborted ({:.1}% abort ratio), {} conflicts",
        stats.commits,
        stats.aborts,
        stats.abort_ratio() * 100.0,
        stats.conflicts
    );
    assert_eq!(final_total, expected_total);
}
