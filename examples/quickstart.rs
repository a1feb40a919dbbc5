//! Quickstart: transactional cells, composition, and contention managers.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use greedy_stm::prelude::*;
use std::sync::Arc;
use std::thread;

fn main() {
    // 1. Build an STM. Threads arbitrate conflicts with the greedy manager —
    //    the paper's provably starvation-free choice.
    let stm = Arc::new(Stm::builder().manager(GreedyManager::factory()).build());

    // 2. Shared state lives in TVars.
    let checking = TVar::new(900i64);
    let savings = TVar::new(100i64);

    // 3. A transaction is a closure over a `Txn` handle; everything inside
    //    commits atomically or not at all.
    let mut ctx = stm.thread();
    ctx.atomically(|tx| {
        let amount = 250;
        tx.modify(&checking, |b| b - amount)?;
        tx.modify(&savings, |b| b + amount)?;
        Ok(())
    })
    .expect("transfer commits");
    println!(
        "after transfer: checking = {}, savings = {}",
        stm.read_atomic(&checking),
        stm.read_atomic(&savings)
    );

    // 4. Transactions compose: the set structures run inside the caller's
    //    transaction, so a multi-structure update is still atomic.
    let tree = TxRbTree::new();
    let audit_log = TxList::new();
    ctx.atomically(|tx| {
        tree.insert(tx, 42)?;
        audit_log.insert(tx, 42)?;
        Ok(())
    })
    .unwrap();
    println!(
        "tree contains 42: {}, audit log: {:?}",
        ctx.atomically(|tx| tree.contains(tx, 42)).unwrap(),
        ctx.atomically(|tx| audit_log.to_vec(tx)).unwrap()
    );

    // 5. Under contention the manager earns its keep: eight threads hammer
    //    one counter and nothing is lost.
    let counter = TxCounter::new();
    let threads = 8;
    let per_thread = 10_000;
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
    let total = counter.load(&stm);
    assert_eq!(total, threads * per_thread);
    println!("{threads} threads x {per_thread} increments = {total} (exact)");

    let stats = stm.stats().snapshot();
    println!(
        "runtime stats: {} commits, {} aborts ({:.1}% abort ratio), {} waits",
        stats.commits,
        stats.aborts,
        stats.abort_ratio() * 100.0,
        stats.waits
    );
}
