//! E15 — commit-path microbenchmark: the perf trajectory for the hot path.
//!
//! Tiny transactions (one read or one increment of a random cell from a
//! small `TVar<i64>` array) so that per-transaction runtime cost — locator
//! publication, visible-reader registration, commit — dominates the
//! measurement instead of workload logic. This is the workload that exposes
//! the serialization points ROADMAP's "Speed" item names: under the old
//! design every read and every acquire crossed a per-TVar `Mutex`, so the
//! read-mostly cells convoyed hard at 8 threads.
//!
//! Each cell reports committed throughput plus per-transaction p50/p99
//! wall-clock latency. The experiment reports and gates nothing: latency
//! follows the host, so what holds the commit path in CI is the count the
//! clock stood for — the unit test below pins how many objects each of the
//! two transaction bodies opens, which is the same on every machine.
//! `BENCH_hotpath.json` is E15's historical before/after record.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use stm_cm::ManagerKind;
use stm_core::{Stm, TVar, ThreadCtx, TxRunReport};

use crate::report::{Ctx, Outcome};

/// E15: managers × mixes × thread counts of single-cell transactions.
pub fn hotpath(ctx: &Ctx) -> Outcome {
    let cfg = ctx.size(HotpathConfig::smoke(), HotpathConfig::quick(), HotpathConfig::default());
    Outcome::new(&hotpath_matrix(&cfg), Vec::new())
}

/// The two operation mixes every hot-path sweep covers.
pub const HOTPATH_MIXES: [HotpathMix; 2] = [HotpathMix::ReadMostly, HotpathMix::UpdateOnly];

/// Operation mix of a hot-path cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotpathMix {
    /// 90% single-cell reads, 10% single-cell increments — the convoy case
    /// the ≥1.5× acceptance bar is measured on (8 threads, read-mostly).
    ReadMostly,
    /// 100% single-cell increments — pure acquire/commit cost.
    UpdateOnly,
}

impl HotpathMix {
    /// Stable label used in rows and baseline matching.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HotpathMix::ReadMostly => "read90",
            HotpathMix::UpdateOnly => "update",
        }
    }

    /// Probability that an operation is a read.
    #[must_use]
    pub fn read_fraction(self) -> f64 {
        match self {
            HotpathMix::ReadMostly => 0.9,
            HotpathMix::UpdateOnly => 0.0,
        }
    }
}

/// Parameters of one hot-path sweep.
#[derive(Debug, Clone)]
pub struct HotpathConfig {
    /// Cells in the shared `TVar<i64>` array.
    pub cells: usize,
    /// Committed transactions each thread performs (fixed-ops, not timed,
    /// so latency vectors have a deterministic length).
    pub ops_per_thread: u64,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Managers to sweep.
    pub managers: Vec<ManagerKind>,
    /// PRNG seed; each (manager, mix, thread-count, thread) cell derives
    /// its own stream from this.
    pub seed: u64,
}

impl Default for HotpathConfig {
    fn default() -> Self {
        HotpathConfig {
            cells: 64,
            ops_per_thread: 40_000,
            threads: vec![1, 4, 8],
            managers: vec![ManagerKind::Greedy, ManagerKind::Karma],
            seed: 0x407_9a7,
        }
    }
}

impl HotpathConfig {
    /// The seconds-long smoke size.
    #[must_use]
    pub fn smoke() -> Self {
        HotpathConfig {
            ops_per_thread: 4_000,
            ..HotpathConfig::default()
        }
    }

    /// The sub-minute quick size.
    #[must_use]
    pub fn quick() -> Self {
        HotpathConfig {
            ops_per_thread: 15_000,
            ..HotpathConfig::default()
        }
    }
}

/// One hot-path measurement cell.
#[derive(Debug, Clone, Serialize)]
pub struct HotpathRow {
    /// Contention manager label.
    pub manager: String,
    /// Mix label (`"read90"` / `"update"`).
    pub mix: String,
    /// Worker threads.
    pub threads: usize,
    /// Cells in the shared array.
    pub cells: usize,
    /// Committed transactions across all threads.
    pub ops: u64,
    /// Wall-clock of the measured phase, milliseconds.
    pub elapsed_ms: f64,
    /// Committed transactions per second.
    pub throughput: f64,
    /// Mean per-transaction latency, nanoseconds.
    pub mean_ns: f64,
    /// Median per-transaction latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile per-transaction latency, nanoseconds.
    pub p99_ns: u64,
}

fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// One hot-path transaction on `cell`: a read, or an increment.
fn one_op(ctx: &mut ThreadCtx<'_>, cell: &TVar<i64>, is_read: bool) -> TxRunReport {
    let (outcome, report) = if is_read {
        ctx.atomically_traced(|tx| tx.read(cell).map(drop))
    } else {
        ctx.atomically_traced(|tx| tx.modify(cell, |v| v + 1))
    };
    outcome.expect("a single-cell transaction commits");
    report
}

/// Runs one hot-path cell: `threads` workers each committing
/// `cfg.ops_per_thread` single-cell transactions under `kind` and `mix`.
///
/// # Panics
///
/// Panics when `threads == 0`, `cfg.cells == 0`, or a transaction exhausts
/// its retry budget (the workload never does by construction).
#[must_use]
pub fn hotpath_experiment(
    kind: ManagerKind,
    mix: HotpathMix,
    threads: usize,
    cfg: &HotpathConfig,
) -> HotpathRow {
    assert!(threads > 0, "need at least one thread");
    assert!(cfg.cells > 0, "need at least one cell");
    let stm = Arc::new(Stm::builder().manager(kind.factory()).build());
    let cells: Arc<Vec<TVar<i64>>> = Arc::new((0..cfg.cells).map(|_| TVar::new(0)).collect());
    let barrier = Arc::new(Barrier::new(threads + 1));
    let commits_total = AtomicU64::new(0);

    let mut latencies: Vec<u64> = Vec::with_capacity(threads * cfg.ops_per_thread as usize);
    let (per_thread, elapsed) = thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        {
            for t in 0..threads {
                let stm = Arc::clone(&stm);
                let cells = Arc::clone(&cells);
                let barrier = Arc::clone(&barrier);
                let commits_total = &commits_total;
                handles.push(scope.spawn(move || {
                    let mut ctx = stm.thread();
                    // Decorrelate every cell of the sweep: same seed only
                    // when (config seed, manager, mix, threads, t) match.
                    let mut rng = SmallRng::seed_from_u64(
                        cfg.seed
                            ^ (kind as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            ^ (mix.read_fraction().to_bits()).rotate_left(17)
                            ^ (threads as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9)
                            ^ (t as u64).wrapping_mul(0x94d0_49bb_1331_11eb),
                    );
                    let mut lat = Vec::with_capacity(cfg.ops_per_thread as usize);
                    let mut commits = 0u64;
                    barrier.wait();
                    for _ in 0..cfg.ops_per_thread {
                        let idx = rng.gen_range(0..cfg.cells);
                        let is_read = rng.gen_bool(mix.read_fraction());
                        let begin = Instant::now();
                        one_op(&mut ctx, &cells[idx], is_read);
                        lat.push(begin.elapsed().as_nanos() as u64);
                        commits += 1;
                    }
                    commits_total.fetch_add(commits, Ordering::Relaxed);
                    lat
                }));
            }
        }
        barrier.wait();
        let started = Instant::now();
        let mut per_thread: Vec<Vec<u64>> = Vec::with_capacity(threads);
        for h in handles {
            per_thread.push(h.join().unwrap());
        }
        (per_thread, started.elapsed())
    });
    for mut lat in per_thread {
        latencies.append(&mut lat);
    }
    latencies.sort_unstable();

    let ops = commits_total.load(Ordering::Relaxed);
    let mean_ns = latencies.iter().sum::<u64>() as f64 / latencies.len().max(1) as f64;
    HotpathRow {
        manager: kind.name().to_string(),
        mix: mix.name().to_string(),
        threads,
        cells: cfg.cells,
        ops,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        throughput: ops as f64 / elapsed.as_secs_f64().max(1e-9),
        mean_ns,
        p50_ns: percentile(&latencies, 50.0),
        p99_ns: percentile(&latencies, 99.0),
    }
}

/// Runs the full managers × mixes × thread-counts sweep.
#[must_use]
pub fn hotpath_matrix(cfg: &HotpathConfig) -> Vec<HotpathRow> {
    let mut rows = Vec::new();
    for &kind in &cfg.managers {
        for &mix in &HOTPATH_MIXES {
            for &threads in &cfg.threads {
                rows.push(hotpath_experiment(kind, mix, threads, cfg));
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HotpathConfig {
        HotpathConfig {
            cells: 8,
            ops_per_thread: 300,
            threads: vec![2],
            managers: vec![ManagerKind::Greedy],
            seed: 7,
        }
    }

    #[test]
    fn smoke_cell_commits_every_op_and_measures_latency() {
        let cfg = tiny();
        let row = hotpath_experiment(ManagerKind::Greedy, HotpathMix::ReadMostly, 2, &cfg);
        assert_eq!(row.ops, 600, "{row:?}");
        assert_eq!(row.mix, "read90");
        assert!(row.p50_ns > 0 && row.p99_ns >= row.p50_ns, "{row:?}");
        assert!(row.throughput > 0.0, "{row:?}");
    }

    #[test]
    fn update_mix_commits_every_increment() {
        let cfg = tiny();
        let row = hotpath_experiment(ManagerKind::Karma, HotpathMix::UpdateOnly, 2, &cfg);
        assert_eq!(row.ops, 600, "{row:?}");
        assert_eq!(row.mix, "update");
    }

    #[test]
    fn matrix_covers_managers_by_mixes_by_threads() {
        let mut cfg = tiny();
        cfg.managers = vec![ManagerKind::Greedy, ManagerKind::Karma];
        cfg.threads = vec![1, 2];
        let rows = hotpath_matrix(&cfg);
        assert_eq!(rows.len(), 2 * 2 * 2);
    }

    /// The count the deleted p50 gate was a proxy for: on one thread each
    /// body commits first try having opened exactly these objects, on any
    /// host. A commit path that starts opening more fails here.
    #[test]
    fn each_hot_path_body_commits_first_try_and_opens_exactly_its_objects() {
        for kind in [ManagerKind::Greedy, ManagerKind::Karma] {
            let stm = Stm::builder().manager(kind.factory()).build();
            let mut ctx = stm.thread();
            let cell = TVar::new(0i64);
            for round in 0..3 {
                let read = one_op(&mut ctx, &cell, true);
                assert_eq!((read.attempts, read.reads, read.writes), (1, 1, 0), "{kind} read");
                let update = one_op(&mut ctx, &cell, false);
                assert_eq!(
                    (update.attempts, update.reads, update.writes),
                    (1, 0, 1),
                    "{kind} modify, round {round}"
                );
            }
            assert_eq!(ctx.atomically(|tx| tx.read(&cell)).unwrap(), 3);
        }
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 51);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
    }
}
