//! Property-based tests of the STM runtime semantics themselves: sequences
//! of committed and explicitly-aborted transactions over a small heap of
//! `TVar`s must behave exactly like the same sequence applied to a plain
//! `Vec` model (aborted transactions contributing nothing). Cases are drawn
//! from a seeded PRNG so failures reproduce deterministically.

use greedy_stm::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One primitive action inside a generated transaction.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// Write `value` to the variable at `slot`.
    Write { slot: usize, value: i64 },
    /// Add the value at `from` to the variable at `to`.
    AddFrom { from: usize, to: usize },
    /// Multiply the variable at `slot` by two.
    Double { slot: usize },
}

/// A generated transaction: a list of actions plus whether it aborts at the
/// end instead of committing.
#[derive(Debug, Clone)]
struct GenTxn {
    actions: Vec<Action>,
    abort: bool,
}

const SLOTS: usize = 6;

fn random_action(rng: &mut SmallRng) -> Action {
    match rng.gen_range(0u32..3) {
        0 => Action::Write {
            slot: rng.gen_range(0..SLOTS),
            value: rng.gen_range(-100i64..100),
        },
        1 => Action::AddFrom {
            from: rng.gen_range(0..SLOTS),
            to: rng.gen_range(0..SLOTS),
        },
        _ => Action::Double {
            slot: rng.gen_range(0..SLOTS),
        },
    }
}

fn random_txn(rng: &mut SmallRng) -> GenTxn {
    let actions = (0..rng.gen_range(0usize..12))
        .map(|_| random_action(rng))
        .collect();
    GenTxn {
        actions,
        abort: rng.gen_bool(0.2),
    }
}

fn apply_model(model: &mut [i64], txn: &GenTxn) {
    if txn.abort {
        return;
    }
    for action in &txn.actions {
        match *action {
            Action::Write { slot, value } => model[slot] = value,
            Action::AddFrom { from, to } => model[to] = model[to].wrapping_add(model[from]),
            Action::Double { slot } => model[slot] = model[slot].wrapping_mul(2),
        }
    }
}

fn run_scenario(txns: &[GenTxn]) {
    let stm = Stm::builder().manager(GreedyManager::factory()).build();
    let vars: Vec<TVar<i64>> = (0..SLOTS).map(|i| TVar::new(i as i64)).collect();
    let mut model: Vec<i64> = (0..SLOTS as i64).collect();
    let mut ctx = stm.thread();
    for txn in txns {
        let outcome = ctx.atomically(|tx| {
            for action in &txn.actions {
                match *action {
                    Action::Write { slot, value } => tx.write(&vars[slot], value)?,
                    Action::AddFrom { from, to } => {
                        let add = tx.read(&vars[from])?;
                        tx.modify(&vars[to], |v| v.wrapping_add(add))?;
                    }
                    Action::Double { slot } => tx.modify(&vars[slot], |v| v.wrapping_mul(2))?,
                }
            }
            if txn.abort {
                tx.abort::<()>()
            } else {
                Ok(())
            }
        });
        if txn.abort {
            assert_eq!(
                outcome.unwrap_err().abort_cause(),
                Some(AbortCause::Explicit)
            );
        } else {
            outcome.unwrap();
        }
        apply_model(&mut model, txn);
        // After every transaction the committed state matches the model.
        let state: Vec<i64> = vars.iter().map(|v| stm.read_atomic(v)).collect();
        assert_eq!(state, model, "state diverged");
    }
}

#[test]
fn sequential_transactions_match_the_model() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_000a);
    for _case in 0..64 {
        let txns: Vec<GenTxn> = (0..rng.gen_range(0usize..40))
            .map(|_| random_txn(&mut rng))
            .collect();
        run_scenario(&txns);
    }
}

#[test]
fn read_your_own_writes_holds_for_arbitrary_action_sequences() {
    let mut rng = SmallRng::seed_from_u64(0x0444_5eed);
    for _case in 0..64 {
        let actions: Vec<Action> = (0..rng.gen_range(1usize..20))
            .map(|_| random_action(&mut rng))
            .collect();
        // Inside one transaction, reads must always observe the effect of the
        // transaction's own earlier writes, for arbitrary interleavings of
        // writes and read-modify-writes.
        let stm = Stm::builder().manager(GreedyManager::factory()).build();
        let vars: Vec<TVar<i64>> = (0..SLOTS).map(|_| TVar::new(0)).collect();
        let mut ctx = stm.thread();
        ctx.atomically(|tx| {
            let mut shadow = vec![0i64; SLOTS];
            for action in &actions {
                match *action {
                    Action::Write { slot, value } => {
                        tx.write(&vars[slot], value)?;
                        shadow[slot] = value;
                    }
                    Action::AddFrom { from, to } => {
                        let add = tx.read(&vars[from])?;
                        assert_eq!(add, shadow[from]);
                        tx.modify(&vars[to], |v| v.wrapping_add(add))?;
                        shadow[to] = shadow[to].wrapping_add(add);
                    }
                    Action::Double { slot } => {
                        tx.modify(&vars[slot], |v| v.wrapping_mul(2))?;
                        shadow[slot] = shadow[slot].wrapping_mul(2);
                    }
                }
            }
            for (var, expected) in vars.iter().zip(&shadow) {
                assert_eq!(tx.read(var)?, *expected);
            }
            Ok(())
        })
        .unwrap();
    }
}
