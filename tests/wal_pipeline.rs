//! Cross-manager property test for the WAL commit pipeline: under every
//! contention manager in the registry, contended commits flowing through
//! the real `stm-log` writer (the commit CAS and the append under one lock,
//! group commit) must produce a log whose **replay in record order
//! reconstructs exactly the final committed state** — the property
//! recovery rests on — and whose seqs are exactly `1..=N` for `N`
//! committed transactions: a commit CAS that loses takes no seq, so the
//! log is gapless. Recovery does that replay and returns the state; this
//! test compares it.
//!
//! The run continues across a simulated crash: the newest segment's tail
//! is torn mid-record, recovery truncates it, a second contended phase
//! runs on the recovered state, and the final replay must still agree with
//! the final in-memory state.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use greedy_stm::cm::ManagerKind;
use greedy_stm::core::{CommitOp, Stm, TVar};
use greedy_stm::log::recovery::list_segments;
use greedy_stm::log::{Recovered, Wal, WalConfig};

const KEYS: usize = 8;
const THREADS: usize = 4;
const OPS_PER_THREAD: usize = 50;
const SEED: u64 = 0x9a1_5eed;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "stm-wal-pipeline-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs one phase of contended counter increments through `stm` (whose
/// commit hook is the real WAL), returning the highest commit sequence
/// number any transaction received.
fn run_phase(stm: &Arc<Stm>, cells: &[TVar<i64>], kind: ManagerKind, phase: u64) -> u64 {
    let mut max_seq = 0u64;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let stm = Arc::clone(stm);
            handles.push(scope.spawn(move || {
                let mut rng =
                    SmallRng::seed_from_u64(SEED ^ (kind as u64) << 32 ^ phase << 16 ^ t as u64);
                let mut ctx = stm.thread();
                let mut max_seq = 0u64;
                for _ in 0..OPS_PER_THREAD {
                    let key = rng.gen_range(0..KEYS);
                    let delta = rng.gen_range(1..5i64);
                    let (result, report) = ctx.atomically_traced(|tx| {
                        let next = tx.read(&cells[key])? + delta;
                        tx.write(&cells[key], next)?;
                        tx.publish(CommitOp::put(key as i64, next));
                        Ok(())
                    });
                    result.unwrap_or_else(|err| {
                        panic!("{kind}: increment transaction failed: {err}")
                    });
                    max_seq = max_seq.max(report.commit_seq.unwrap_or(0));
                }
                max_seq
            }));
        }
        for handle in handles {
            max_seq = max_seq.max(handle.join().expect("phase thread panicked"));
        }
    });
    max_seq
}

/// The recovered keyspace as one counter per key (0 = never written).
/// `recover` folded the log in record order; its debug build asserts that
/// order is strictly ascending by seq, so `replayed` records whose last seq
/// is `next_seq - 1 == replayed` are exactly the seqs `1..=replayed`.
fn counters(recovered: &Recovered) -> Vec<i64> {
    let mut counters = vec![0; KEYS];
    for (key, value) in recovered.live_pairs() {
        counters[*key as usize] = value.as_int().expect("only ints are published here");
    }
    counters
}

/// Tears the newest segment by truncating a few bytes off its end,
/// simulating a crash mid-write.
fn tear_newest_segment(dir: &Path) {
    let segments = list_segments(dir).expect("log dir readable");
    let (newest, _) = segments.last().expect("at least one segment on disk");
    let len = std::fs::metadata(newest).expect("segment metadata").len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(newest)
        .expect("segment writable");
    file.set_len(len - 3.min(len)).expect("segment truncation");
}

#[test]
fn seq_order_replay_matches_committed_state_under_every_manager() {
    for kind in ManagerKind::ALL {
        let dir = temp_dir(kind.name());

        // Phase 1: contended commits through the real WAL writer.
        let (wal, recovered) = Wal::open(WalConfig::new(&dir)).expect("fresh log opens");
        assert!(recovered.live_pairs().is_empty());
        let stm = Arc::new(
            Stm::builder()
                .manager(kind.factory())
                .commit_hook(wal.commit_hook())
                .build(),
        );
        let cells: Vec<TVar<i64>> = (0..KEYS).map(|_| TVar::new(0)).collect();
        let max_seq = run_phase(&stm, &cells, kind, 1);
        assert!(
            wal.wait_durable(max_seq),
            "{kind}: log failed during phase 1"
        );
        let committed: Vec<i64> = cells.iter().map(|cell| stm.read_atomic(cell)).collect();
        assert!(
            committed.iter().any(|v| *v > 0),
            "{kind}: the workload committed nothing"
        );
        drop(wal); // graceful shutdown: flush + fsync

        let (wal_check, recovered) = Wal::open(WalConfig::new(&dir)).expect("clean reopen");
        assert_eq!(
            recovered.truncated_bytes, 0,
            "{kind}: clean shutdown tore the log"
        );
        let committed_txns = (THREADS * OPS_PER_THREAD) as u64;
        assert_eq!(
            (recovered.replayed, recovered.next_seq),
            (committed_txns, committed_txns + 1),
            "{kind}: the log must hold exactly seqs 1..={committed_txns}, one per \
             committed transaction, with no gap"
        );
        assert_eq!(
            max_seq, committed_txns,
            "{kind}: a commit took a seq past N"
        );
        assert_eq!(
            counters(&recovered),
            committed,
            "{kind}/clean restart: replaying the log in seq order diverged from the \
             final committed state"
        );
        drop(wal_check);

        // Phase 2: tear the tail mid-record, recover, and keep going on the
        // recovered state — the log must stay replayable end to end.
        tear_newest_segment(&dir);
        let (wal2, recovered) = Wal::open(WalConfig::new(&dir)).expect("torn log recovers");
        assert!(
            recovered.truncated_bytes > 0,
            "{kind}: recovery must report the torn bytes it discarded"
        );
        let stm2 = Arc::new(
            Stm::builder()
                .manager(kind.factory())
                .commit_hook(wal2.commit_hook())
                .build(),
        );
        let cells2: Vec<TVar<i64>> = counters(&recovered).into_iter().map(TVar::new).collect();
        let resumed_at = recovered.next_seq;
        let max_seq = run_phase(&stm2, &cells2, kind, 2);
        assert!(
            wal2.wait_durable(max_seq),
            "{kind}: log failed during phase 2"
        );
        let committed2: Vec<i64> = cells2.iter().map(|cell| stm2.read_atomic(cell)).collect();
        drop(wal2);

        let (_wal3, recovered) = Wal::open(WalConfig::new(&dir)).expect("final reopen");
        assert_eq!(
            recovered.next_seq,
            resumed_at + committed_txns,
            "{kind}/torn restart: phase 2's seqs must continue the log with no gap"
        );
        assert_eq!(
            counters(&recovered),
            committed2,
            "{kind}/torn restart: replaying the log in seq order diverged from the \
             final committed state"
        );
        drop(_wal3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
