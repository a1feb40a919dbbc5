//! The benchmark workload driver.
//!
//! Reproduces the experimental setup of Section 5: "a number of threads
//! ranging from 1 to 32 continuously insert and remove elements taken from a
//! small set of 256 integers, hence forcing contention to happen, and an
//! update rate of 100%". Each thread runs transactions back-to-back for a
//! fixed wall-clock interval; the metric is committed transactions per
//! second.
//!
//! The paper's fixed 100%-update mix is one point of an [`OpMix`]
//! distribution: every workload draws its operations from a weighted mix of
//! inserts, removes, point lookups and range queries, so the same driver also
//! produces the read-mostly and range-heavy scenarios, where every read
//! registers on its object and writers meet long read sets as conflicts (see
//! `EXPERIMENTS.md` at the repository root).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;

use stm_cm::ManagerKind;
use stm_core::{Stm, TxResult, Txn};
use stm_structures::forest::UpdateScope;
use stm_structures::{TxList, TxRbForest, TxRbTree, TxSet, TxSkipList};

/// Which benchmark structure a workload runs against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StructureKind {
    /// Sorted linked list (Figure 1).
    List,
    /// Skiplist (Figure 2).
    SkipList,
    /// Red-black tree (Figure 3).
    RbTree,
    /// Red-black forest (Figure 4).
    Forest {
        /// Number of trees (the paper uses fifty).
        trees: usize,
        /// Probability that an update touches every tree instead of one.
        all_probability: f64,
    },
}

impl StructureKind {
    /// The paper's red-black forest configuration.
    pub fn paper_forest() -> Self {
        StructureKind::Forest {
            trees: 50,
            all_probability: 0.1,
        }
    }

    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            StructureKind::List => "list",
            StructureKind::SkipList => "skiplist",
            StructureKind::RbTree => "rbtree",
            StructureKind::Forest { .. } => "rbforest",
        }
    }
}

/// The operation categories a workload mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Insert a random key.
    Insert,
    /// Remove a random key.
    Remove,
    /// Point membership lookup of a random key.
    Lookup,
    /// Range query over a random interval of `range_span` keys.
    Range,
}

impl OpKind {
    /// All categories, in reporting order.
    pub const ALL: [OpKind; 4] = [
        OpKind::Insert,
        OpKind::Remove,
        OpKind::Lookup,
        OpKind::Range,
    ];

    /// Label used in per-op breakdowns.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Insert => "insert",
            OpKind::Remove => "remove",
            OpKind::Lookup => "lookup",
            OpKind::Range => "range",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            OpKind::Insert => 0,
            OpKind::Remove => 1,
            OpKind::Lookup => 2,
            OpKind::Range => 3,
        }
    }
}

/// A weighted distribution over the four operation categories.
///
/// Weights need not sum to one — they are normalized when drawing. The
/// paper's Section 5 experiments use [`OpMix::update_only`]; the read-mostly
/// and range-heavy mixes extend the evaluation to the scenarios where
/// reads dominate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Weight of insert operations.
    pub insert: f64,
    /// Weight of remove operations.
    pub remove: f64,
    /// Weight of point lookups.
    pub lookup: f64,
    /// Weight of range queries.
    pub range: f64,
}

impl OpMix {
    /// The paper's mix: 100% updates, split evenly between inserts and
    /// removes.
    pub fn update_only() -> Self {
        OpMix {
            insert: 0.5,
            remove: 0.5,
            lookup: 0.0,
            range: 0.0,
        }
    }

    /// A read-dominated mix: 90% point lookups, updates split evenly.
    pub fn read_mostly() -> Self {
        OpMix {
            insert: 0.05,
            remove: 0.05,
            lookup: 0.9,
            range: 0.0,
        }
    }

    /// A range-heavy mix: long read sets from range scans on top of a
    /// half-update base load.
    pub fn range_heavy() -> Self {
        OpMix {
            insert: 0.25,
            remove: 0.25,
            lookup: 0.2,
            range: 0.3,
        }
    }

    /// A pure read-fraction point on the lookup axis: `read` of the
    /// operations are lookups, the rest are updates split evenly.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= read <= 1.0`.
    pub fn with_read_fraction(read: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&read),
            "read fraction must be in 0..=1"
        );
        let update = (1.0 - read) / 2.0;
        OpMix {
            insert: update,
            remove: update,
            lookup: read,
            range: 0.0,
        }
    }

    /// The three mixes every workload-matrix sweep covers.
    pub fn standard_matrix() -> Vec<OpMix> {
        vec![
            OpMix::update_only(),
            OpMix::read_mostly(),
            OpMix::range_heavy(),
        ]
    }

    /// Short name used in reports (`"update-only"`, `"read-mostly-90"`,
    /// `"range-heavy"`, or the weight vector for custom mixes).
    pub fn label(&self) -> String {
        if *self == OpMix::update_only() {
            "update-only".to_string()
        } else if *self == OpMix::read_mostly() {
            "read-mostly-90".to_string()
        } else if *self == OpMix::range_heavy() {
            "range-heavy".to_string()
        } else {
            let total = self.total();
            format!(
                "i{:02.0}-r{:02.0}-l{:02.0}-g{:02.0}",
                100.0 * self.insert / total,
                100.0 * self.remove / total,
                100.0 * self.lookup / total,
                100.0 * self.range / total,
            )
        }
    }

    fn total(&self) -> f64 {
        self.insert + self.remove + self.lookup + self.range
    }

    /// Maps a uniform `roll` in `[0, 1]` to an operation category.
    ///
    /// # Panics
    ///
    /// Panics if every weight is zero (or any is negative enough to cancel
    /// the total).
    pub fn pick(&self, roll: f64) -> OpKind {
        let total = self.total();
        assert!(total > 0.0, "op mix must have positive total weight");
        let mut r = roll.clamp(0.0, 1.0) * total;
        for (weight, kind) in [
            (self.insert, OpKind::Insert),
            (self.remove, OpKind::Remove),
            (self.lookup, OpKind::Lookup),
            (self.range, OpKind::Range),
        ] {
            if r < weight {
                return kind;
            }
            r -= weight;
        }
        // roll == 1.0 lands exactly on the upper edge of the last
        // positively-weighted category.
        if self.range > 0.0 {
            OpKind::Range
        } else if self.lookup > 0.0 {
            OpKind::Lookup
        } else if self.remove > 0.0 {
            OpKind::Remove
        } else {
            OpKind::Insert
        }
    }
}

impl Default for OpMix {
    fn default() -> Self {
        OpMix::update_only()
    }
}

/// Parameters of one workload run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Number of worker threads.
    pub threads: usize,
    /// Keys are drawn uniformly from `0..key_range` (the paper uses 256).
    pub key_range: i64,
    /// Wall-clock measurement interval.
    pub duration: Duration,
    /// Iterations of uncontended local work appended to every transaction
    /// (used by the low-contention red-black-tree experiment, Figure 3).
    pub local_work: u64,
    /// Seed for the per-thread operation generators.
    pub seed: u64,
    /// Distribution over operation categories each thread draws from.
    pub mix: OpMix,
    /// Width of the key interval scanned by a [`OpKind::Range`] query.
    pub range_span: i64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            threads: 4,
            key_range: 256,
            duration: Duration::from_millis(200),
            local_work: 0,
            seed: 0x5eed,
            mix: OpMix::update_only(),
            range_span: 32,
        }
    }
}

/// Latency and abort accounting for one operation category of a workload
/// run (the per-op breakdown carried by [`WorkloadResult::per_op`]).
#[derive(Debug, Clone)]
pub struct OpStats {
    /// Operation label (`"insert"`, `"remove"`, `"lookup"`, `"range"`).
    pub op: String,
    /// Completed operations of this category.
    pub ops: u64,
    /// Aborted attempts charged to this category.
    pub aborts: u64,
    /// Mean completion latency in microseconds.
    pub mean_us: f64,
    /// Median completion latency in microseconds.
    pub p50_us: f64,
    /// 99th-percentile completion latency in microseconds.
    pub p99_us: f64,
}

/// Accumulates latency samples and abort counts for one operation category.
#[derive(Debug, Default, Clone)]
pub(crate) struct OpRecorder {
    latencies_ns: Vec<u64>,
    aborts: u64,
}

impl OpRecorder {
    pub(crate) fn record(&mut self, latency: Duration, aborts: u64) {
        self.latencies_ns.push(latency.as_nanos() as u64);
        self.aborts += aborts;
    }

    pub(crate) fn merge(&mut self, other: OpRecorder) {
        self.latencies_ns.extend(other.latencies_ns);
        self.aborts += other.aborts;
    }

    pub(crate) fn finish(mut self, op: &str) -> Option<OpStats> {
        if self.latencies_ns.is_empty() {
            return None;
        }
        self.latencies_ns.sort_unstable();
        let n = self.latencies_ns.len();
        let percentile = |p: f64| -> f64 {
            let idx = ((p / 100.0) * (n as f64 - 1.0)).round() as usize;
            self.latencies_ns[idx.min(n - 1)] as f64 / 1_000.0
        };
        let mean_us = self.latencies_ns.iter().sum::<u64>() as f64 / n as f64 / 1_000.0;
        Some(OpStats {
            op: op.to_string(),
            ops: n as u64,
            aborts: self.aborts,
            mean_us,
            p50_us: percentile(50.0),
            p99_us: percentile(99.0),
        })
    }
}

/// The outcome of a workload run.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Contention manager used.
    pub manager: String,
    /// Structure exercised.
    pub structure: String,
    /// Operation mix driven (label of the [`OpMix`]).
    pub mix: String,
    /// Number of worker threads.
    pub threads: usize,
    /// Committed transactions across all threads.
    pub commits: u64,
    /// Aborted attempts across all threads.
    pub aborts: u64,
    /// Wall-clock seconds actually spent measuring.
    pub elapsed_s: f64,
    /// Committed transactions per second — the metric plotted in the paper's
    /// figures.
    pub throughput: f64,
    /// Fraction of attempts that aborted.
    pub abort_ratio: f64,
    /// Per-operation latency (p50/p99) and abort breakdown.
    pub per_op: Vec<OpStats>,
}

impl WorkloadResult {
    /// The row as a flat JSON object: the scalar fields in declaration
    /// order, then four columns per [`OpKind`] (`insert_ops`,
    /// `insert_aborts`, `insert_p50_us`, `insert_p99_us`, ...), `null` where
    /// the mix never drew that operation — so every cell of every sweep has
    /// the same keys.
    #[must_use]
    pub(crate) fn to_json(&self) -> Value {
        let mut row = vec![
            ("manager".to_string(), self.manager.as_str().into()),
            ("structure".to_string(), self.structure.as_str().into()),
            ("mix".to_string(), self.mix.as_str().into()),
            ("threads".to_string(), self.threads.into()),
            ("commits".to_string(), self.commits.into()),
            ("aborts".to_string(), self.aborts.into()),
            ("elapsed_s".to_string(), self.elapsed_s.into()),
            ("throughput".to_string(), self.throughput.into()),
            ("abort_ratio".to_string(), self.abort_ratio.into()),
        ];
        for kind in OpKind::ALL {
            let stats = self.per_op.iter().find(|stats| stats.op == kind.label());
            let values: [Value; 4] = match stats {
                Some(s) => [
                    s.ops.into(),
                    s.aborts.into(),
                    s.p50_us.into(),
                    s.p99_us.into(),
                ],
                None => [Value::Null, Value::Null, Value::Null, Value::Null],
            };
            for (key, value) in ["ops", "aborts", "p50_us", "p99_us"]
                .into_iter()
                .zip(values)
            {
                row.push((format!("{}_{key}", kind.label()), value));
            }
        }
        Value::Object(row)
    }
}

/// A sweep over thread counts for a set of managers (one paper figure), and —
/// for the workload matrix — over operation mixes.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Thread counts to sweep (the paper sweeps 1..=32).
    pub thread_counts: Vec<usize>,
    /// Managers to compare.
    pub managers: Vec<ManagerKind>,
    /// Operation mixes the workload matrix covers. The single-figure sweeps
    /// (Figures 1–4) use `base.mix` instead, which stays at the paper's
    /// update-only mix.
    pub mixes: Vec<OpMix>,
    /// Per-run parameters (thread count — and, in the matrix, the mix — are
    /// overridden per point).
    pub base: WorkloadConfig,
}

impl SweepConfig {
    /// The paper's configuration: Eruption, Greedy, Aggressive, Backoff and
    /// Karma swept over 1–32 threads.
    pub fn paper_defaults() -> Self {
        SweepConfig {
            thread_counts: vec![1, 2, 4, 8, 16, 32],
            managers: ManagerKind::FIGURE_SET.to_vec(),
            mixes: vec![OpMix::update_only()],
            base: WorkloadConfig::default(),
        }
    }

    /// A reduced configuration for smoke tests and `--sweep quick` runs.
    pub fn quick() -> Self {
        SweepConfig {
            thread_counts: vec![1, 2, 4],
            managers: vec![
                ManagerKind::Greedy,
                ManagerKind::Karma,
                ManagerKind::Aggressive,
            ],
            mixes: vec![OpMix::update_only()],
            base: WorkloadConfig {
                duration: Duration::from_millis(60),
                ..WorkloadConfig::default()
            },
        }
    }

    /// A machine-sized sweep: thread counts from 1 up to twice the host's
    /// available parallelism (powers of two plus the `2 × cores` endpoint),
    /// the paper's figure-set managers, and the three standard mixes.
    pub fn machine() -> Self {
        let cores = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        let mut thread_counts = Vec::new();
        let mut t = 1;
        while t < 2 * cores {
            thread_counts.push(t);
            t *= 2;
        }
        thread_counts.push(2 * cores);
        SweepConfig {
            thread_counts,
            managers: ManagerKind::FIGURE_SET.to_vec(),
            mixes: OpMix::standard_matrix(),
            base: WorkloadConfig {
                duration: Duration::from_millis(150),
                ..WorkloadConfig::default()
            },
        }
    }

    /// A seconds-long sanity pass over the full (structure × mix × manager)
    /// matrix, small enough to run in CI on every push.
    pub fn smoke() -> Self {
        SweepConfig {
            thread_counts: vec![1, 2],
            managers: vec![
                ManagerKind::Greedy,
                ManagerKind::Karma,
                ManagerKind::Timestamp,
                ManagerKind::Polka,
            ],
            mixes: OpMix::standard_matrix(),
            base: WorkloadConfig {
                key_range: 64,
                duration: Duration::from_millis(20),
                ..WorkloadConfig::default()
            },
        }
    }
}

enum Built {
    Set(Arc<dyn TxSet>),
    Forest {
        forest: TxRbForest,
        all_probability: f64,
    },
}

fn build_structure(kind: &StructureKind) -> Built {
    match kind {
        StructureKind::List => Built::Set(Arc::new(TxList::new())),
        StructureKind::SkipList => Built::Set(Arc::new(TxSkipList::new())),
        StructureKind::RbTree => Built::Set(Arc::new(TxRbTree::new())),
        StructureKind::Forest {
            trees,
            all_probability,
        } => Built::Forest {
            forest: TxRbForest::new(*trees),
            all_probability: *all_probability,
        },
    }
}

/// Cheap, optimizer-resistant local computation used to lengthen transactions
/// without touching shared state (Figure 3's uncontended tail).
fn local_work(iterations: u64, seed: u64) -> u64 {
    let mut acc = seed | 1;
    for _ in 0..iterations {
        acc ^= acc << 13;
        acc ^= acc >> 7;
        acc ^= acc << 17;
    }
    acc
}

/// One drawn operation: category, key, the forest's scope roll, and the seed
/// for the uncontended local-work tail.
#[derive(Debug, Clone, Copy)]
struct OpDraw {
    op: OpKind,
    key: i64,
    scope_roll: f64,
    work_seed: u64,
}

fn draw_op(rng: &mut SmallRng, cfg: &WorkloadConfig) -> OpDraw {
    OpDraw {
        key: rng.gen_range(0..cfg.key_range),
        op: cfg.mix.pick(rng.gen()),
        scope_roll: rng.gen(),
        work_seed: rng.gen(),
    }
}

fn one_op(tx: &mut Txn<'_>, built: &Built, draw: &OpDraw, cfg: &WorkloadConfig) -> TxResult<u64> {
    let hi = draw.key + cfg.range_span;
    let observed = match built {
        Built::Set(set) => match draw.op {
            OpKind::Insert => u64::from(set.insert(tx, draw.key)?),
            OpKind::Remove => u64::from(set.remove(tx, draw.key)?),
            OpKind::Lookup => u64::from(set.contains(tx, draw.key)?),
            OpKind::Range => set.range(tx, draw.key, hi)?.len() as u64,
        },
        Built::Forest {
            forest,
            all_probability,
        } => {
            let tree = (draw.key.unsigned_abs() as usize) % forest.num_trees();
            match draw.op {
                OpKind::Insert | OpKind::Remove => {
                    let scope = if draw.scope_roll < *all_probability {
                        UpdateScope::All
                    } else {
                        UpdateScope::One(tree)
                    };
                    if draw.op == OpKind::Insert {
                        forest.insert(tx, scope, draw.key)? as u64
                    } else {
                        forest.remove(tx, scope, draw.key)? as u64
                    }
                }
                OpKind::Lookup => u64::from(forest.contains_in(tx, tree, draw.key)?),
                OpKind::Range => forest.range_in(tx, tree, draw.key, hi)?.len() as u64,
            }
        }
    };
    // Fold the observation into the local-work accumulator so the optimizer
    // cannot discard read-only operations.
    Ok(local_work(cfg.local_work, draw.work_seed).wrapping_add(observed))
}

/// Runs the throughput workload: `cfg.threads` threads continuously draw
/// operations (insert, remove, lookup or range, weighted by `cfg.mix`) over
/// random keys for `cfg.duration`, under the contention manager `manager`.
pub fn run_workload(
    manager: ManagerKind,
    structure: &StructureKind,
    cfg: &WorkloadConfig,
) -> WorkloadResult {
    assert!(cfg.threads > 0, "need at least one thread");
    assert!(cfg.key_range > 0, "key range must be positive");
    let stm = Arc::new(Stm::builder().manager(manager.factory()).build());
    let built = Arc::new(build_structure(structure));
    prefill(&stm, &built, cfg.key_range);

    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(cfg.threads + 1));
    // Overwritten at the start barrier so thread-spawn time stays out of the
    // throughput denominator.
    let mut started = Instant::now();
    let mut commits_total = 0u64;
    let mut recorders: [OpRecorder; 4] = Default::default();
    thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..cfg.threads {
            let stm = Arc::clone(&stm);
            let built = Arc::clone(&built);
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            let cfg = *cfg;
            handles.push(scope.spawn(move || {
                let mut ctx = stm.thread();
                let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (t as u64).wrapping_mul(0x9e37));
                let mut commits = 0u64;
                let mut local: [OpRecorder; 4] = Default::default();
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    let draw = draw_op(&mut rng, &cfg);
                    let op_started = Instant::now();
                    let (outcome, report) =
                        ctx.atomically_traced(|tx| one_op(tx, &built, &draw, &cfg));
                    if outcome.is_ok() {
                        commits += 1;
                        local[draw.op.index()].record(op_started.elapsed(), report.aborts);
                    }
                }
                (commits, local)
            }));
        }
        barrier.wait();
        started = Instant::now();
        let deadline = started + cfg.duration;
        while Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
        for handle in handles {
            let (commits, local) = handle.join().expect("worker thread panicked");
            commits_total += commits;
            for (merged, thread_local) in recorders.iter_mut().zip(local) {
                merged.merge(thread_local);
            }
        }
    });
    let elapsed = started.elapsed();
    let snapshot = stm.stats().snapshot();
    let per_op = OpKind::ALL
        .into_iter()
        .zip(recorders)
        .filter_map(|(kind, recorder)| recorder.finish(kind.label()))
        .collect();
    WorkloadResult {
        manager: manager.name().to_string(),
        structure: structure.name().to_string(),
        mix: cfg.mix.label(),
        threads: cfg.threads,
        commits: commits_total,
        aborts: snapshot.aborts,
        elapsed_s: elapsed.as_secs_f64(),
        throughput: commits_total as f64 / elapsed.as_secs_f64(),
        abort_ratio: snapshot.abort_ratio(),
        per_op,
    }
}

/// Pre-populates the structure with every other key so that inserts and
/// removes both have roughly a 50% chance of modifying the structure.
fn prefill(stm: &Stm, built: &Built, key_range: i64) {
    let mut ctx = stm.thread();
    match built {
        Built::Set(set) => {
            for key in (0..key_range).step_by(2) {
                ctx.atomically(|tx| set.insert(tx, key))
                    .expect("prefill transaction must commit");
            }
        }
        Built::Forest { forest, .. } => {
            for key in (0..key_range).step_by(2) {
                ctx.atomically(|tx| forest.insert(tx, UpdateScope::All, key))
                    .expect("prefill transaction must commit");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(threads: usize) -> WorkloadConfig {
        WorkloadConfig {
            threads,
            key_range: 32,
            duration: Duration::from_millis(40),
            local_work: 0,
            seed: 1,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn list_workload_produces_commits() {
        let result = run_workload(ManagerKind::Greedy, &StructureKind::List, &tiny_cfg(2));
        assert!(result.commits > 0);
        assert!(result.throughput > 0.0);
        assert_eq!(result.manager, "greedy");
        assert_eq!(result.structure, "list");
        assert_eq!(result.threads, 2);
        assert!(result.abort_ratio >= 0.0 && result.abort_ratio <= 1.0);
    }

    #[test]
    fn every_structure_runs_under_karma() {
        for structure in [
            StructureKind::List,
            StructureKind::SkipList,
            StructureKind::RbTree,
            StructureKind::Forest {
                trees: 5,
                all_probability: 0.2,
            },
        ] {
            let result = run_workload(ManagerKind::Karma, &structure, &tiny_cfg(2));
            assert!(result.commits > 0, "no commits for {}", structure.name());
        }
    }

    #[test]
    fn local_work_lowers_throughput() {
        let no_work = run_workload(
            ManagerKind::Greedy,
            &StructureKind::RbTree,
            &WorkloadConfig {
                local_work: 0,
                ..tiny_cfg(1)
            },
        );
        let heavy_work = run_workload(
            ManagerKind::Greedy,
            &StructureKind::RbTree,
            &WorkloadConfig {
                local_work: 50_000,
                ..tiny_cfg(1)
            },
        );
        assert!(
            heavy_work.throughput < no_work.throughput,
            "local work must slow transactions down ({} vs {})",
            heavy_work.throughput,
            no_work.throughput
        );
    }

    #[test]
    fn per_op_breakdown_covers_the_mix() {
        let cfg = WorkloadConfig {
            mix: OpMix::range_heavy(),
            range_span: 8,
            ..tiny_cfg(2)
        };
        let result = run_workload(ManagerKind::Greedy, &StructureKind::RbTree, &cfg);
        // All four categories appear under the range-heavy mix.
        let labels: Vec<&str> = result.per_op.iter().map(|o| o.op.as_str()).collect();
        assert_eq!(labels, vec!["insert", "remove", "lookup", "range"]);
        let total_ops: u64 = result.per_op.iter().map(|o| o.ops).sum();
        assert_eq!(total_ops, result.commits);
        for op in &result.per_op {
            assert!(op.p50_us > 0.0, "{}: zero p50", op.op);
            assert!(op.p99_us >= op.p50_us, "{}: p99 below p50", op.op);
            assert!(op.mean_us > 0.0);
        }
        // An update-only mix reports exactly the two update categories.
        let update = run_workload(ManagerKind::Greedy, &StructureKind::List, &tiny_cfg(1));
        let labels: Vec<&str> = update.per_op.iter().map(|o| o.op.as_str()).collect();
        assert_eq!(labels, vec!["insert", "remove"]);
        // Single-threaded runs never abort, and the breakdown agrees.
        assert_eq!(update.per_op.iter().map(|o| o.aborts).sum::<u64>(), 0);
    }

    #[test]
    fn op_recorder_percentiles_are_exact_on_known_samples() {
        let mut recorder = OpRecorder::default();
        for micros in 1..=100u64 {
            recorder.record(Duration::from_micros(micros), 1);
        }
        let stats = recorder.finish("lookup").unwrap();
        assert_eq!(stats.ops, 100);
        assert_eq!(stats.aborts, 100);
        assert!((stats.p50_us - 50.0).abs() < 1.01, "p50 {}", stats.p50_us);
        assert!((stats.p99_us - 99.0).abs() < 1.01, "p99 {}", stats.p99_us);
        assert!((stats.mean_us - 50.5).abs() < 0.01);
        assert!(OpRecorder::default().finish("empty").is_none());
    }

    #[test]
    fn structure_names_and_sweep_defaults() {
        assert_eq!(StructureKind::List.name(), "list");
        assert_eq!(StructureKind::paper_forest().name(), "rbforest");
        let sweep = SweepConfig::paper_defaults();
        assert_eq!(sweep.thread_counts.last(), Some(&32));
        assert_eq!(sweep.managers.len(), 5);
        assert_eq!(sweep.mixes, vec![OpMix::update_only()]);
        let quick = SweepConfig::quick();
        assert!(quick.thread_counts.len() < sweep.thread_counts.len());
    }

    #[test]
    fn op_mix_pick_respects_the_weights() {
        let update = OpMix::update_only();
        assert_eq!(update.pick(0.0), OpKind::Insert);
        assert_eq!(update.pick(0.49), OpKind::Insert);
        assert_eq!(update.pick(0.51), OpKind::Remove);
        assert_eq!(update.pick(1.0), OpKind::Remove);

        let reads = OpMix::read_mostly();
        assert_eq!(reads.pick(0.02), OpKind::Insert);
        assert_eq!(reads.pick(0.07), OpKind::Remove);
        assert_eq!(reads.pick(0.5), OpKind::Lookup);
        assert_eq!(reads.pick(1.0), OpKind::Lookup);

        let ranges = OpMix::range_heavy();
        assert_eq!(ranges.pick(0.8), OpKind::Range);
        assert_eq!(ranges.pick(1.0), OpKind::Range);

        // Unnormalized weights behave like their normalized counterparts.
        let lopsided = OpMix {
            insert: 2.0,
            remove: 0.0,
            lookup: 6.0,
            range: 0.0,
        };
        assert_eq!(lopsided.pick(0.2), OpKind::Insert);
        assert_eq!(lopsided.pick(0.3), OpKind::Lookup);
    }

    #[test]
    fn op_mix_labels_and_read_fraction() {
        assert_eq!(OpMix::update_only().label(), "update-only");
        assert_eq!(OpMix::read_mostly().label(), "read-mostly-90");
        assert_eq!(OpMix::range_heavy().label(), "range-heavy");
        assert_eq!(OpMix::standard_matrix().len(), 3);
        let half = OpMix::with_read_fraction(0.5);
        assert_eq!(half.label(), "i25-r25-l50-g00");
        assert_eq!(OpMix::with_read_fraction(0.0), OpMix::update_only());
        assert_eq!(OpMix::default(), OpMix::update_only());
    }

    #[test]
    #[should_panic(expected = "positive total weight")]
    fn zero_weight_mix_is_rejected() {
        let mix = OpMix {
            insert: 0.0,
            remove: 0.0,
            lookup: 0.0,
            range: 0.0,
        };
        let _ = mix.pick(0.5);
    }

    #[test]
    fn read_mostly_and_range_mixes_produce_commits_on_every_structure() {
        for mix in [OpMix::read_mostly(), OpMix::range_heavy()] {
            for structure in [
                StructureKind::List,
                StructureKind::SkipList,
                StructureKind::RbTree,
                StructureKind::Forest {
                    trees: 5,
                    all_probability: 0.2,
                },
            ] {
                let cfg = WorkloadConfig {
                    mix,
                    range_span: 8,
                    ..tiny_cfg(2)
                };
                let result = run_workload(ManagerKind::Greedy, &structure, &cfg);
                assert!(
                    result.commits > 0,
                    "no commits for {} under {}",
                    structure.name(),
                    mix.label()
                );
                assert_eq!(result.mix, mix.label());
            }
        }
    }

    #[test]
    fn machine_and_smoke_sweeps_are_well_formed() {
        let machine = SweepConfig::machine();
        assert!(!machine.thread_counts.is_empty());
        assert!(machine.thread_counts.windows(2).all(|w| w[0] < w[1]));
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        assert_eq!(machine.thread_counts.last(), Some(&(2 * cores)));
        assert_eq!(machine.mixes.len(), 3);
        assert!(machine.managers.len() >= 4);

        let smoke = SweepConfig::smoke();
        assert_eq!(smoke.mixes.len(), 3);
        assert!(smoke.managers.len() >= 4);
        assert!(smoke.base.duration <= Duration::from_millis(50));
    }
}
