//! `KvStore`'s point path (cell only) and its range path (ordered index,
//! then cells) must witness **one** serial order, under every contention
//! manager that arbitrates differently and in both read-visibility modes.
//!
//! * Writers toggle key *pairs*: `DEL a; PUT b` (then `DEL b; PUT a`) in one
//!   transaction, so at every committed state exactly one key of a pair is
//!   present. Readers run `GET a; GET b; RANGE [a, b]` in one transaction:
//!   the two `GET`s (one cell each, or the index path when the deleted
//!   key's cell is already unlinked) must see exactly one key, and the
//!   `RANGE` (index walk) must list that same key with that same value.
//! * Racing first touch: `PUT k`, `DEL k` and `GET k` hit a never-linked
//!   key from three threads released by one barrier. Whatever the
//!   order, the key's final presence follows from what `DEL` returned, the
//!   values conserve, and the cell books balance:
//!   `allocated − released = linked = present keys`.
//!
//! Seeds are fixed (`SEED`) and named in every failure message.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread;

use greedy_stm::cm::ManagerKind;
use greedy_stm::kv::Value;
use greedy_stm::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0x15_5e71a1;
const MANAGERS: [ManagerKind; 4] = [
    ManagerKind::Greedy,
    ManagerKind::Karma,
    ManagerKind::Polka,
    ManagerKind::Timestamp,
];
const VISIBILITIES: [ReadVisibility; 2] = [ReadVisibility::Visible, ReadVisibility::Invisible];

fn stm_with(kind: ManagerKind, visibility: ReadVisibility) -> Stm {
    Stm::builder()
        .manager(kind.factory())
        .read_visibility(visibility)
        .build()
}

/// The first half of the pairs are small keys (`0..64`), the second half
/// start at `FAR_BASE`: one cell table serves both.
const PAIRS: usize = 12;
const FAR_BASE: i64 = 1 << 32;

/// The two keys of pair `p`: adjacent, so `RANGE [a, b]` covers only them.
fn pair(p: usize) -> (i64, i64) {
    let a = if p < PAIRS / 2 {
        2 * p as i64
    } else {
        FAR_BASE + 2 * p as i64
    };
    (a, a + 1)
}

#[test]
fn point_reads_and_range_reads_agree_on_one_serial_order() {
    const WRITERS: usize = 2;
    const READERS: usize = 2;
    const TOGGLES: i64 = 1_500;

    for kind in MANAGERS {
        for visibility in VISIBILITIES {
            let tag = format!("{kind}/{visibility:?}/seed {SEED:#x}");
            let stm = stm_with(kind, visibility);
            let store = KvStore::new(4);
            {
                let mut ctx = stm.thread();
                ctx.atomically(|tx| {
                    // Bystanders on either side keep the index paths busy.
                    for p in 0..PAIRS {
                        let (a, _b) = pair(p);
                        store.put(tx, a, 0)?;
                    }
                    store.put(tx, FAR_BASE - 1, -1)?;
                    store.put(tx, FAR_BASE + 2 * PAIRS as i64, -1)?;
                    Ok(())
                })
                .unwrap();
            }
            let start = Barrier::new(WRITERS + READERS);
            let writers_done = AtomicBool::new(false);
            let (stm, store, start, writers_done, tag) =
                (&stm, &store, &start, &writers_done, &tag);

            thread::scope(|scope| {
                let writers: Vec<_> = (0..WRITERS)
                    .map(|w| {
                        scope.spawn(move || {
                            let mut ctx = stm.thread();
                            start.wait();
                            for round in 1..=TOGGLES {
                                // Writer `w` owns the pairs `p ≡ w`: pairs
                                // are disjoint across writers.
                                for p in (w..PAIRS).step_by(WRITERS) {
                                    let (a, b) = pair(p);
                                    let (from, to) = if round % 2 == 1 { (a, b) } else { (b, a) };
                                    let removed = ctx
                                        .atomically(|tx| {
                                            let removed = store.del(tx, from)?;
                                            store.put(tx, to, round)?;
                                            Ok(removed)
                                        })
                                        .unwrap();
                                    assert_eq!(
                                        removed,
                                        Some(Value::Int(round - 1)),
                                        "{tag}: writer lost its own previous toggle of pair {p}"
                                    );
                                }
                            }
                        })
                    })
                    .collect();
                for r in 0..READERS {
                    scope.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(SEED + r as u64);
                        let mut ctx = stm.thread();
                        start.wait();
                        let mut audits = 0u64;
                        // At least a few audits even if the writers finish
                        // before this thread is first scheduled.
                        while audits < 64 || !writers_done.load(Ordering::Relaxed) {
                            let p = rng.gen_range(0..PAIRS);
                            let (a, b) = pair(p);
                            // Either point-read order, so both "deleted key
                            // first" and "created key first" occur.
                            let a_first = rng.gen_bool(0.5);
                            let (got_a, got_b, ranged) = ctx
                                .atomically(|tx| {
                                    let (got_a, got_b) = if a_first {
                                        let got_a = store.get(tx, a)?;
                                        (got_a, store.get(tx, b)?)
                                    } else {
                                        let got_b = store.get(tx, b)?;
                                        (store.get(tx, a)?, got_b)
                                    };
                                    Ok((got_a, got_b, store.range(tx, a, b)?))
                                })
                                .unwrap();
                            let expected: Vec<(i64, Value)> =
                                [(a, got_a.clone()), (b, got_b.clone())]
                                    .into_iter()
                                    .filter_map(|(key, value)| value.map(|v| (key, v)))
                                    .collect();
                            assert_eq!(
                                expected.len(),
                                1,
                                "{tag}: pair {p} must have exactly one key present, \
                                 GETs saw a={got_a:?} b={got_b:?}"
                            );
                            assert_eq!(
                                ranged, expected,
                                "{tag}: RANGE disagrees with the GETs of the same transaction"
                            );
                            audits += 1;
                        }
                    });
                }
                for writer in writers {
                    writer.join().unwrap();
                }
                writers_done.store(true, Ordering::Relaxed);
            });

            // Quiescent: every pair ended where an even number of toggles
            // leaves it, and only present keys hold a linked cell.
            let mut ctx = stm.thread();
            for p in 0..PAIRS {
                let (a, b) = pair(p);
                let seen = ctx.atomically(|tx| store.range(tx, a, b)).unwrap();
                assert_eq!(seen, vec![(a, Value::Int(TOGGLES))], "{tag}: pair {p}");
            }
            let present = ctx.atomically(|tx| store.len(tx)).unwrap();
            assert_eq!(present, PAIRS + 2, "{tag}");
            assert_eq!(
                store.cells_live(),
                present,
                "{tag}: a GET or DEL must not leave a cell behind"
            );
        }
    }
}

#[test]
fn racing_first_touch_of_an_unlinked_key_keeps_values_and_cell_books_exact() {
    const ROUNDS: i64 = 400;

    for kind in MANAGERS {
        let tag = format!("{kind}/seed {SEED:#x}");
        let stm = stm_with(kind, ReadVisibility::Visible);
        // Every round's key starts unlinked.
        let store = KvStore::new(4);
        let key_of = |round: i64| FAR_BASE + round;
        let gate = Barrier::new(3);
        let (stm, store, gate, tag) = (&stm, &store, &gate, &tag);

        let (deleted, seen) = thread::scope(|scope| {
            scope.spawn(move || {
                let mut ctx = stm.thread();
                for round in 0..ROUNDS {
                    gate.wait();
                    ctx.atomically(|tx| store.put(tx, key_of(round), round))
                        .unwrap();
                }
            });
            let deleter = scope.spawn(move || {
                let mut ctx = stm.thread();
                (0..ROUNDS)
                    .map(|round| {
                        gate.wait();
                        ctx.atomically(|tx| store.del(tx, key_of(round))).unwrap()
                    })
                    .collect::<Vec<_>>()
            });
            let reader = scope.spawn(move || {
                let mut ctx = stm.thread();
                (0..ROUNDS)
                    .map(|round| {
                        gate.wait();
                        ctx.atomically(|tx| store.get(tx, key_of(round))).unwrap()
                    })
                    .collect::<Vec<_>>()
            });
            (deleter.join().unwrap(), reader.join().unwrap())
        });

        // Each round: DEL either ran after the PUT (and took its value) or
        // before it (and the key survives); GET saw nothing or that value.
        let mut ctx = stm.thread();
        let mut survivors = 0i64;
        let mut survivor_total = 0i64;
        for round in 0..ROUNDS {
            let key = key_of(round);
            let value = Some(Value::Int(round));
            let now = ctx.atomically(|tx| store.get(tx, key)).unwrap();
            match &deleted[round as usize] {
                None => {
                    assert_eq!(
                        now, value,
                        "{tag}: DEL missed key {key}, so the PUT must stand"
                    );
                    survivors += 1;
                    survivor_total += round;
                }
                removed => {
                    assert_eq!(removed, &value, "{tag}: DEL returned a value nobody put");
                    assert_eq!(now, None, "{tag}: DEL took key {key}, so it must be gone");
                }
            }
            let got = &seen[round as usize];
            assert!(
                got.is_none() || got == &value,
                "{tag}: GET of {key} saw {got:?}"
            );
        }
        let (total, count) = ctx
            .atomically(|tx| store.sum(tx, key_of(0), key_of(ROUNDS - 1)))
            .unwrap()
            .unwrap();
        assert_eq!((total, count as i64), (survivor_total, survivors), "{tag}");

        assert_eq!(
            store.cells_allocated() - store.cells_released(),
            store.cells_live(),
            "{tag}: allocated − released = linked"
        );
        assert_eq!(
            store.cells_live() as i64,
            survivors,
            "{tag}: a racing GET or DEL miss must not link a cell"
        );
    }
}
