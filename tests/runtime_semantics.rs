//! Additional integration tests of runtime-level semantics that the paper's
//! protocol relies on: timestamps retained across retries, statistics
//! accounting, explicit aborts, the greedy-timeout extension in the real
//! runtime, non-transactional committed reads, and an attempt that unwinds.

use greedy_stm::cm::ManagerKind;
use greedy_stm::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

#[test]
fn timestamp_is_retained_across_retries() {
    // Force retries by returning a validation-failure abort a few times; the
    // timestamp observed by the closure must be identical on every attempt.
    let stm = Stm::builder().manager(GreedyManager::factory()).build();
    let mut ctx = stm.thread();
    let observed = AtomicU64::new(u64::MAX);
    let attempts = AtomicU64::new(0);
    ctx.atomically(|tx| {
        let previous = observed.swap(tx.timestamp(), Ordering::Relaxed);
        if previous != u64::MAX {
            assert_eq!(previous, tx.timestamp(), "timestamp changed across retries");
        }
        if attempts.fetch_add(1, Ordering::Relaxed) < 3 {
            Err(StmError::Aborted(AbortCause::ValidationFailed))
        } else {
            Ok(())
        }
    })
    .unwrap();
    assert_eq!(attempts.load(Ordering::Relaxed), 4);
    // A later transaction gets a strictly larger timestamp.
    let later = ctx.atomically(|tx| Ok(tx.timestamp())).unwrap();
    assert!(later > observed.load(Ordering::Relaxed));
}

#[test]
fn attempt_counter_increases_and_stats_record_retries() {
    let stm = Stm::builder().manager(GreedyManager::factory()).build();
    let mut ctx = stm.thread();
    let seen_attempts = std::cell::RefCell::new(Vec::new());
    ctx.atomically(|tx| {
        seen_attempts.borrow_mut().push(tx.attempt());
        if seen_attempts.borrow().len() < 3 {
            Err(StmError::Aborted(AbortCause::ValidationFailed))
        } else {
            Ok(())
        }
    })
    .unwrap();
    assert_eq!(*seen_attempts.borrow(), vec![1, 2, 3]);
    let snap = stm.stats().snapshot();
    assert_eq!(snap.transactions, 1);
    assert_eq!(snap.attempts, 3);
    assert_eq!(snap.commits, 1);
    assert_eq!(snap.aborts, 2);
    assert!(snap.attempts_per_commit() >= 3.0 - 1e-9);
}

#[test]
fn explicit_abort_discards_every_structure_effect() {
    let stm = Stm::builder().manager(ManagerKind::Polka.factory()).build();
    let list = TxList::new();
    let tree = TxRbTree::new();
    let counter = TxCounter::new();
    let mut ctx = stm.thread();
    let err = ctx
        .atomically(|tx| {
            list.insert(tx, 1)?;
            tree.insert(tx, 2)?;
            counter.add(tx, 10)?;
            tx.abort::<()>()
        })
        .unwrap_err();
    assert_eq!(err.abort_cause(), Some(AbortCause::Explicit));
    assert!(ctx.atomically(|tx| list.is_empty(tx)).unwrap());
    assert!(ctx.atomically(|tx| tree.is_empty(tx)).unwrap());
    assert_eq!(counter.load(&stm), 0);
}

#[test]
fn load_committed_sees_only_committed_state() {
    let stm = Arc::new(Stm::builder().manager(GreedyManager::factory()).build());
    let cell = TVar::new(0i64);
    // A writer thread commits increasing values; a reader thread using the
    // non-transactional committed read must only ever observe committed
    // (monotonically increasing) values, never a torn or in-flight one.
    let writer = {
        let stm = Arc::clone(&stm);
        let cell = cell.clone();
        thread::spawn(move || {
            let mut ctx = stm.thread();
            for i in 1..=2_000i64 {
                ctx.atomically(|tx| tx.write(&cell, i)).unwrap();
            }
        })
    };
    let reader = {
        let cell = cell.clone();
        thread::spawn(move || {
            let mut last = 0i64;
            for _ in 0..20_000 {
                let v = cell.load_committed();
                assert!(v >= last, "committed value went backwards: {v} < {last}");
                assert!((0..=2_000).contains(&v));
                last = v;
            }
        })
    };
    writer.join().unwrap();
    reader.join().unwrap();
    assert_eq!(stm.read_atomic(&cell), 2_000);
}

#[test]
fn greedy_timeout_manager_works_in_the_real_runtime() {
    // The Section 6 extension must behave like greedy for ordinary workloads:
    // contended counters stay exact and long transactions finish.
    let stm = Arc::new(
        Stm::builder()
            .manager(GreedyTimeoutManager::factory())
            .build(),
    );
    let counters: Vec<TxCounter> = (0..4).map(|_| TxCounter::new()).collect();
    thread::scope(|scope| {
        for t in 0..4usize {
            let stm = Arc::clone(&stm);
            let counters = counters.clone();
            scope.spawn(move || {
                let mut ctx = stm.thread();
                for i in 0..400usize {
                    let idx = (t + i) % counters.len();
                    ctx.atomically(|tx| {
                        counters[idx].increment(tx)?;
                        counters[(idx + 1) % counters.len()].increment(tx)?;
                        Ok(())
                    })
                    .unwrap();
                }
            });
        }
    });
    let total: i64 = counters.iter().map(|c| c.load(&stm)).sum();
    assert_eq!(total, 4 * 400 * 2);
}

#[test]
fn a_panicking_body_releases_what_it_acquired() {
    // The body acquires `x` and panics. The unwound attempt must end as an
    // abort, or it stays the active owner of `x` forever and a younger
    // greedy writer waits on it for good. The writer runs on its own thread
    // so a regression fails the timeout instead of hanging the suite.
    let stm = Arc::new(Stm::builder().manager(GreedyManager::factory()).build());
    let x = TVar::new(0i64);
    let mut ctx = stm.thread();
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        ctx.atomically(|tx| -> TxResult<()> {
            tx.write(&x, 1)?;
            panic!("the body panics while it owns x");
        })
    }));
    assert!(unwound.is_err());
    let (done, written) = mpsc::channel();
    let writer = {
        let (stm, x) = (Arc::clone(&stm), x.clone());
        thread::spawn(move || {
            stm.thread().atomically(|tx| tx.write(&x, 2)).unwrap();
            let _ = done.send(());
        })
    };
    written
        .recv_timeout(Duration::from_secs(3))
        .expect("a writer conflicting with the unwound attempt is still waiting on it");
    writer.join().unwrap();
    assert_eq!(stm.read_atomic(&x), 2);
    // The same thread context runs on: nothing of the unwound attempt is
    // left in it.
    assert_eq!(ctx.atomically(|tx| tx.read(&x)).unwrap(), 2);
    let snap = stm.stats().snapshot();
    assert_eq!(
        snap.aborts_by_cause[AbortCause::Explicit.index()],
        1,
        "{snap:?}"
    );
}

#[test]
fn stats_snapshot_is_consistent_after_a_contended_run() {
    let stm = Arc::new(Stm::builder().manager(ManagerKind::Karma.factory()).build());
    let counter = TxCounter::new();
    thread::scope(|scope| {
        for _ in 0..4 {
            let stm = Arc::clone(&stm);
            let counter = counter.clone();
            scope.spawn(move || {
                let mut ctx = stm.thread();
                for _ in 0..250 {
                    ctx.atomically(|tx| counter.increment(tx)).unwrap();
                }
            });
        }
    });
    let snap = stm.stats().snapshot();
    assert_eq!(snap.commits, 1000);
    assert_eq!(snap.transactions, 1000);
    assert_eq!(snap.attempts, snap.commits + snap.aborts);
    assert!(snap.writes >= snap.commits);
    assert!(snap.abort_ratio() < 1.0);
    assert_eq!(counter.load(&stm), 1000);
}

#[test]
fn managers_can_be_mixed_across_threads_without_breaking_safety() {
    // Half the threads use greedy, half use aggressive; safety (exact counts)
    // must hold regardless of which managers meet each other.
    let stm = Arc::new(
        Stm::builder()
            .manager(ManagerKind::Greedy.factory())
            .build(),
    );
    let counter = TxCounter::new();
    thread::scope(|scope| {
        for i in 0..6usize {
            let stm = Arc::clone(&stm);
            let counter = counter.clone();
            scope.spawn(move || {
                let mut ctx = if i % 2 == 0 {
                    stm.thread_with(ManagerKind::Aggressive.factory()())
                } else {
                    stm.thread_with(ManagerKind::Greedy.factory()())
                };
                for _ in 0..200 {
                    ctx.atomically(|tx| counter.increment(tx)).unwrap();
                }
            });
        }
    });
    assert_eq!(counter.load(&stm), 1200);
}
