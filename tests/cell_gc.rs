//! Property tests of the commit-time cell GC: seeded random PUT/DEL/GET
//! churn across threads, repeated under **every** contention manager, must
//! (a) conserve a closed transfer total running concurrently with the
//! churn, (b) never lose a write to a released cell (each thread audits
//! its own rolling window mid-churn), and (c) keep the cell accounting
//! exact: every cell ever allocated is either still linked in a shard
//! table or was released by a committed `DEL` (`allocated − released =
//! linked`). There is no limbo to drain, so the books hold while a reader
//! still holds a deleted cell, too: the second test parks one across the
//! delete. A transaction that holds a released cell holds an `Arc` to it,
//! so a use-after-free cannot happen; a stale read of one would surface as
//! a lost window value or a wrong answer. The third test is the leak bound
//! on its own: a rolling PUT+DEL of fresh keys keeps the linked cells
//! within the live window, sampled while it runs.

use std::sync::{Arc, Barrier};
use std::thread;

use greedy_stm::cm::ManagerKind;
use greedy_stm::kv::Value;
use greedy_stm::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Closed-transfer keys (never deleted — the conservation witness).
const SHARED_LO: i64 = 0;
const SHARED_HI: i64 = 7;
const SEED_BALANCE: i64 = 100;

/// Keys every thread churns against every other thread (put/del/get races
/// on the same cells — the contention witness).
const CONTENDED_LO: i64 = 500;
const CONTENDED_KEYS: i64 = 6;

/// Per-thread private rolling window (the reclamation witness).
const WINDOW: i64 = 6;

fn stm_with(kind: ManagerKind) -> Stm {
    Stm::builder().manager(kind.factory()).build()
}

#[test]
fn seeded_churn_conserves_and_keeps_cell_accounting_exact_for_every_manager() {
    const THREADS: usize = 4;
    const OPS: i64 = 120;

    for kind in ManagerKind::ALL {
        let stm = Arc::new(stm_with(kind));
        // Every key lives in a reclaimable cell, so the GC is on the hook
        // for all of them, and the books open at zero.
        let store = Arc::new(KvStore::new(4));
        assert_eq!(store.cells_allocated(), 0, "{kind}");
        {
            let mut ctx = stm.thread();
            ctx.atomically(|tx| {
                for key in SHARED_LO..=SHARED_HI {
                    store.put(tx, key, SEED_BALANCE)?;
                }
                Ok(())
            })
            .unwrap();
        }
        let shared_total = (SHARED_HI - SHARED_LO + 1) * SEED_BALANCE;

        thread::scope(|scope| {
            for t in 0..THREADS {
                let stm = Arc::clone(&stm);
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0x6c_c000 + t as u64);
                    let mut ctx = stm.thread();
                    let base = 1_000_000 + (t as i64) * 1_000_000;
                    for i in 0..OPS {
                        // Private rolling window: create ahead, delete behind.
                        ctx.atomically(|tx| store.put(tx, base + i, i)).unwrap();
                        if i >= WINDOW {
                            let victim = base + i - WINDOW;
                            let prev = ctx.atomically(|tx| store.del(tx, victim)).unwrap();
                            assert_eq!(
                                prev,
                                Some(Value::Int(i - WINDOW)),
                                "{kind}: window write lost at key {victim}"
                            );
                        }
                        // Mid-churn audit of a random in-window key: a
                        // use-after-reclaim or torn unlink shows up here.
                        let probe = rng.gen_range((i - (WINDOW - 1)).max(0)..=i);
                        let seen = ctx.atomically(|tx| store.get(tx, base + probe)).unwrap();
                        assert_eq!(
                            seen,
                            Some(Value::Int(probe)),
                            "{kind}: window read disagrees at offset {probe}"
                        );
                        // A closed transfer between two shared keys.
                        let from = rng.gen_range(SHARED_LO..=SHARED_HI);
                        let to = rng.gen_range(SHARED_LO..=SHARED_HI);
                        let amount = rng.gen_range(1i64..=25);
                        ctx.atomically(|tx| {
                            store.add(tx, from, -amount)?.unwrap();
                            store.add(tx, to, amount)?.unwrap();
                            Ok(())
                        })
                        .unwrap();
                        // Contended churn: all threads put/del/get the same
                        // small key range, racing deletes against writes.
                        let hot = CONTENDED_LO + rng.gen_range(0..CONTENDED_KEYS);
                        match rng.gen_range(0u32..4) {
                            0 => {
                                ctx.atomically(|tx| store.put(tx, hot, i)).unwrap();
                            }
                            1 => {
                                ctx.atomically(|tx| store.del(tx, hot)).unwrap();
                            }
                            2 => {
                                // del + re-put in one transaction: the
                                // tombstone is overwritten before commit and
                                // the cell must survive.
                                ctx.atomically(|tx| {
                                    store.del(tx, hot)?;
                                    store.put(tx, hot, -i)
                                })
                                .unwrap();
                            }
                            _ => {
                                ctx.atomically(|tx| store.get(tx, hot)).unwrap();
                            }
                        }
                        // Concurrent conservation audit over the shared keys.
                        if i % 16 == 0 {
                            let (total, count) = ctx
                                .atomically(|tx| store.sum(tx, SHARED_LO, SHARED_HI))
                                .unwrap()
                                .unwrap();
                            assert_eq!(
                                total, shared_total,
                                "{kind}: mid-run audit saw a drifted total"
                            );
                            assert_eq!(count as i64, SHARED_HI - SHARED_LO + 1);
                        }
                    }
                });
            }
        });

        // Cell accounting is exact: allocated = linked + released.
        assert_eq!(
            store.cells_allocated(),
            store.cells_live() + store.cells_released(),
            "{kind}: allocation/release books must balance"
        );

        // The table holds exactly the live keys: shared + per-thread
        // windows + whatever subset of the contended range survived.
        let mut ctx = stm.thread();
        let live_keys = ctx.atomically(|tx| store.len(tx)).unwrap();
        assert_eq!(
            store.cells_live(),
            live_keys,
            "{kind}: resident cells must match present keys"
        );
        let windows = THREADS as i64 * WINDOW;
        let upper = (SHARED_HI - SHARED_LO + 1) + windows + CONTENDED_KEYS;
        assert!(
            (live_keys as i64) <= upper,
            "{kind}: {live_keys} live keys exceeds the {upper} possible"
        );

        // Final conservation + per-window model check.
        let (total, _) = ctx
            .atomically(|tx| store.sum(tx, SHARED_LO, SHARED_HI))
            .unwrap()
            .unwrap();
        assert_eq!(total, shared_total, "{kind}: final total drifted");
        for t in 0..THREADS as i64 {
            let base = 1_000_000 + t * 1_000_000;
            for i in (OPS - WINDOW)..OPS {
                assert_eq!(
                    ctx.atomically(|tx| store.get(tx, base + i)).unwrap(),
                    Some(Value::Int(i)),
                    "{kind}: surviving window key lost"
                );
            }
        }
    }
}

/// A store's cell books: allocated − freed = linked.
#[derive(Debug, PartialEq)]
struct Books {
    allocated: u64,
    freed: u64,
    linked: u64,
}

/// The books as the store keeps them and as a `METRICS` scrape of the
/// server that owns the store reports them.
fn books(server: &KvServer) -> (Books, Books) {
    let store = server.store();
    let kept = Books {
        allocated: store.cells_allocated() as u64,
        freed: store.cells_released() as u64,
        linked: store.cells_live() as u64,
    };
    let mut client = KvClient::connect(server.addr()).unwrap();
    let metrics = client.metrics().unwrap();
    client.quit().unwrap();
    let scraped = Books {
        allocated: metrics.counter("stm_kv_cells_allocated"),
        freed: metrics.counter("stm_kv_cells_freed"),
        linked: metrics
            .samples()
            .filter(|(series, _)| series.starts_with("stm_kv_overflow_cells{"))
            .map(|(_, cells)| cells)
            .sum(),
    };
    (kept, scraped)
}

#[test]
fn a_cell_deleted_under_a_parked_reader_is_released_at_commit() {
    const KEY: i64 = 1 << 40;
    let mut server = KvServer::start(ServerConfig {
        ..ServerConfig::default()
    })
    .unwrap();
    // The server's own store. Under Aggressive the deleter aborts the
    // registered reader it meets instead of waiting for it, so the reader
    // can stay parked across the whole delete.
    let stm = stm_with(ManagerKind::Aggressive);
    let store = server.store();
    stm.thread().atomically(|tx| store.put(tx, KEY, 1)).unwrap();
    let parked = Barrier::new(2);
    let release = Barrier::new(2);

    let (deleted, while_parked, (outcome, report)) = thread::scope(|scope| {
        let reader = scope.spawn(|| {
            stm.thread().atomically_traced(|tx| {
                let first = store.get(tx, KEY)?;
                if tx.attempt() == 1 {
                    assert_eq!(first, Some(Value::Int(1)));
                    parked.wait();
                    release.wait();
                }
                // The deleter aborted this attempt and committed while we
                // were parked: this open sees the abort and retries.
                store.get(tx, KEY)
            })
        });
        parked.wait();
        let deleted = stm.thread().atomically(|tx| store.del(tx, KEY)).unwrap();
        // The reader still holds the cell; read the books before letting it
        // go (asserting here would leave it parked forever on a failure).
        let while_parked = books(&server);
        release.wait();
        (deleted, while_parked, reader.join().unwrap())
    });

    assert_eq!(deleted, Some(Value::Int(1)));
    // Nothing waits for the reader to let go: the commit released the cell.
    let released = Books {
        allocated: 1,
        freed: 1,
        linked: 0,
    };
    assert_eq!(while_parked.0, released, "store, reader parked");
    assert_eq!(while_parked.1, released, "METRICS, reader parked");
    assert_eq!(outcome.unwrap(), None, "the retry must see the delete");
    assert!(
        report.attempts >= 2,
        "the parked attempt must abort: {report:?}"
    );
    let (kept, scraped) = books(&server);
    assert_eq!(kept, released, "store, reader done");
    assert_eq!(scraped, released, "METRICS, reader done");
    server.shutdown();
}

#[test]
fn rolling_churn_of_fresh_keys_keeps_linked_cells_within_the_live_window() {
    const THREADS: usize = 2;
    const KEYS_PER_THREAD: i64 = 400;
    const LIVE_WINDOW: i64 = 16;
    const SAMPLE_EVERY: i64 = 64;
    // Each thread holds at most its window of live keys, plus the key it is
    // creating and a few commit/unlink transients.
    let linked_bound = THREADS as u64 * (LIVE_WINDOW as u64 + 4);

    for kind in [ManagerKind::Greedy, ManagerKind::Karma] {
        let stm = stm_with(kind);
        let store = KvStore::new(8);
        let peaks: Vec<u64> = thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS as i64)
                .map(|t| {
                    let (stm, store) = (&stm, &store);
                    scope.spawn(move || {
                        let mut ctx = stm.thread();
                        let base = 1 + t * (i64::MAX / THREADS as i64);
                        let mut peak = 0u64;
                        for i in 0..KEYS_PER_THREAD {
                            ctx.atomically(|tx| store.put(tx, base + i, i)).unwrap();
                            if i >= LIVE_WINDOW {
                                let victim = base + i - LIVE_WINDOW;
                                ctx.atomically(|tx| store.del(tx, victim)).unwrap();
                            }
                            if i % SAMPLE_EVERY == 0 {
                                // Allocated before released: both counters
                                // only grow, so a race between the reads can
                                // only under-count the linked cells.
                                let allocated = store.cells_allocated();
                                let linked = allocated.saturating_sub(store.cells_released());
                                peak = peak.max(linked as u64);
                            }
                        }
                        peak
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let peak = peaks.into_iter().max().unwrap();
        assert!(
            peak <= linked_bound,
            "{kind}: {peak} linked cells sampled, bound {linked_bound}: a DEL did not \
             release its cell"
        );

        let fresh = THREADS as u64 * KEYS_PER_THREAD as u64;
        let live = THREADS as u64 * LIVE_WINDOW as u64;
        let kept = Books {
            allocated: store.cells_allocated() as u64,
            freed: store.cells_released() as u64,
            linked: store.cells_live() as u64,
        };
        let exact = Books {
            allocated: fresh,
            freed: fresh - live,
            linked: live,
        };
        assert_eq!(
            kept, exact,
            "{kind}: one cell per fresh key, freed by its DEL"
        );
        let present = stm.thread().atomically(|tx| store.len(tx)).unwrap() as u64;
        assert_eq!(
            present, live,
            "{kind}: linked cells must be the present keys"
        );
    }
}
