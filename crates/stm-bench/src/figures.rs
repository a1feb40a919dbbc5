//! The in-process sweeps over [`run_workload`] cells: one experiment per
//! figure of the paper's Section 5 (E1–E4), the workload matrix over
//! (structure × mix × threads × manager) cells (E8), the read-fraction sweep
//! (E9) and the manager-parameter ablation (E12). Every one of them returns
//! flat [`WorkloadResult`] rows.

use std::time::Duration;

use stm_cm::{BackoffManager, GreedyTimeoutManager, KarmaManager};
use stm_core::manager::{factory, ManagerFactory};
use stm_core::Stm;

use crate::report::{Ctx, Outcome};
use crate::workload::{
    run_workload, run_workload_with, OpMix, StructureKind, SweepConfig, WorkloadConfig,
    WorkloadResult,
};

/// Runs one [`WorkloadResult`] cell per (structure × mix × thread count ×
/// manager) combination, in that nesting order. `cfg.mixes` supplies the
/// mix axis; `cfg.base.mix` is overridden per cell.
pub fn workload_matrix(structures: &[StructureKind], cfg: &SweepConfig) -> Vec<WorkloadResult> {
    let mut cells = Vec::new();
    for structure in structures {
        for &mix in &cfg.mixes {
            for &threads in &cfg.thread_counts {
                for manager in &cfg.managers {
                    let run_cfg = WorkloadConfig {
                        threads,
                        mix,
                        ..cfg.base
                    };
                    cells.push(run_workload(*manager, structure, &run_cfg));
                }
            }
        }
    }
    cells
}

/// `cells` as ungated rows.
fn outcome(cells: &[WorkloadResult]) -> Outcome {
    Outcome::new(
        cells.iter().map(WorkloadResult::to_json).collect(),
        Vec::new(),
    )
}

/// One of the paper's four figures: threads × managers on `structure`, at
/// the sweep's base mix (the paper's 100% updates).
fn figure(structure: StructureKind, cfg: &SweepConfig) -> Outcome {
    let cfg = SweepConfig {
        mixes: vec![cfg.base.mix],
        ..cfg.clone()
    };
    outcome(&workload_matrix(&[structure], &cfg))
}

/// E1, Figure 1: the sorted list, 256 keys, 100% updates — high contention.
pub fn fig1(ctx: &Ctx) -> Outcome {
    figure(StructureKind::List, &ctx.cfg)
}

/// E2, Figure 2: the skiplist, 256 keys, 100% updates.
pub fn fig2(ctx: &Ctx) -> Outcome {
    figure(StructureKind::SkipList, &ctx.cfg)
}

/// E3, Figure 3: the red-black tree with an uncontended tail of local work
/// per transaction — low contention.
pub fn fig3(ctx: &Ctx) -> Outcome {
    let mut cfg = ctx.cfg.clone();
    if cfg.base.local_work == 0 {
        cfg.base.local_work = 2_000;
    }
    figure(StructureKind::RbTree, &cfg)
}

/// E4, Figure 4: the red-black forest — fifty trees, updates touch one or
/// all of them, so transaction lengths are highly irregular.
pub fn fig4(ctx: &Ctx) -> Outcome {
    figure(StructureKind::paper_forest(), &ctx.cfg)
}

/// E8: the workload matrix over list, skiplist and red-black tree (the
/// forest has its own figure and would dominate the wall-clock budget). It
/// always covers the three standard mixes, even under the single-mix paper
/// and quick sweeps.
pub fn matrix(ctx: &Ctx) -> Outcome {
    let mut cfg = ctx.cfg.clone();
    if cfg.mixes.len() < 2 {
        cfg.mixes = OpMix::standard_matrix();
    }
    let structures = [
        StructureKind::List,
        StructureKind::SkipList,
        StructureKind::RbTree,
    ];
    outcome(&workload_matrix(&structures, &cfg))
}

/// E9: throughput on the red-black tree as the lookup share of the mix moves
/// from 0% (the paper's update-only mix) to 100%, at the largest thread
/// count of the sweep — its most contended point, where managers separate.
pub fn readfrac(ctx: &Ctx) -> Outcome {
    let fractions: &[f64] = if ctx.short() {
        &[0.0, 0.5, 1.0]
    } else {
        &[0.0, 0.25, 0.5, 0.75, 0.9, 1.0]
    };
    let cfg = SweepConfig {
        mixes: fractions
            .iter()
            .map(|&read| OpMix::with_read_fraction(read))
            .collect(),
        thread_counts: vec![most_threads(&ctx.cfg)],
        ..ctx.cfg.clone()
    };
    outcome(&workload_matrix(&[StructureKind::RbTree], &cfg))
}

fn most_threads(cfg: &SweepConfig) -> usize {
    cfg.thread_counts.iter().copied().max().unwrap_or(1)
}

/// E12's sweep of greedy-timeout's initial presumed-halt time-out, in µs.
/// Too short kills healthy enemies spuriously; too long stalls behind
/// genuinely dead ones.
const GREEDY_TIMEOUT_US: [u64; 4] = [10, 50, 250, 1_000];
/// E12's sweep of Karma's priority earned per object opened. Larger
/// increments separate long transactions from short ones faster, at the
/// cost of starving newcomers longer.
const KARMA_INCREMENT: [u64; 4] = [1, 4, 16, 64];
/// E12's sweep of Backoff's exponential-backoff ceiling, in µs. A small cap
/// degenerates toward aggressive retry; a large cap toward politeness.
const BACKOFF_CAP_US: [u64; 3] = [100, 1_000, 10_000];

/// The points of the manager-parameter ablation: `("manager[knob=value]",
/// factory)`, each varying a manager's one constructor argument around its
/// default (which is among the values) — the three knobs the managers
/// have, the ones the paper's Section 6 discussion predicts crossovers for.
pub fn ablation_points() -> Vec<(String, ManagerFactory)> {
    let us = Duration::from_micros;
    let mut points = Vec::new();
    for value in GREEDY_TIMEOUT_US {
        let make = factory(move || GreedyTimeoutManager::new(us(value)));
        points.push((format!("greedy-timeout[greedy_timeout={value}us]"), make));
    }
    for value in KARMA_INCREMENT {
        let make = factory(move || KarmaManager::with_increment(value));
        points.push((format!("karma[karma_increment={value}]"), make));
    }
    for value in BACKOFF_CAP_US {
        let make = factory(move || BackoffManager::with_cap(us(value)));
        points.push((format!("backoff[backoff_cap={value}us]"), make));
    }
    points
}

/// E12: one manager knob at a time on the list, at the largest thread count
/// of the sweep (the contended point where the knobs matter). Each point is
/// one cell labelled in the `manager` field (`karma[karma_increment=16]`),
/// so one table holds a line per value.
pub fn ablate(ctx: &Ctx) -> Outcome {
    let mut cfg = WorkloadConfig {
        threads: most_threads(&ctx.cfg),
        ..ctx.cfg.base
    };
    if ctx.short() {
        cfg.duration = Duration::from_millis(40);
    }
    let cells: Vec<WorkloadResult> = ablation_points()
        .into_iter()
        .map(|(label, make)| {
            let stm = Stm::builder().manager(make).build();
            run_workload_with(stm, &label, &StructureKind::List, &cfg)
        })
        .collect();
    outcome(&cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;
    use stm_cm::ManagerKind;

    fn smoke_ctx() -> Ctx {
        Ctx {
            sweep: "smoke",
            cfg: SweepConfig {
                thread_counts: vec![1, 2],
                managers: vec![ManagerKind::Greedy, ManagerKind::Karma],
                mixes: vec![OpMix::update_only()],
                base: WorkloadConfig {
                    key_range: 32,
                    duration: Duration::from_millis(15),
                    ..WorkloadConfig::default()
                },
            },
        }
    }

    fn column<'a>(rows: &'a [Value], key: &str) -> Vec<&'a Value> {
        rows.iter()
            .map(|row| row.get(key).unwrap_or_else(|| panic!("no `{key}`")))
            .collect()
    }

    fn texts<'a>(rows: &'a [Value], key: &str) -> Vec<&'a str> {
        column(rows, key)
            .into_iter()
            .map(|v| v.as_str().unwrap())
            .collect()
    }

    #[test]
    fn each_figure_is_a_full_grid_on_its_own_structure() {
        let ctx = smoke_ctx();
        let figures: [fn(&Ctx) -> Outcome; 4] = [fig1, fig2, fig3, fig4];
        for (figure, structure) in figures
            .iter()
            .zip(["list", "skiplist", "rbtree", "rbforest"])
        {
            let outcome = figure(&ctx);
            assert!(outcome.violations.is_empty());
            assert_eq!(texts(&outcome.rows, "structure"), [structure; 4]);
            assert_eq!(texts(&outcome.rows, "mix"), ["update-only"; 4]);
            assert_eq!(
                texts(&outcome.rows, "manager"),
                ["greedy", "karma", "greedy", "karma"]
            );
            let threads: Vec<_> = column(&outcome.rows, "threads")
                .iter()
                .map(|t| t.as_u64().unwrap())
                .collect();
            assert_eq!(threads, [1, 1, 2, 2]);
            assert!(column(&outcome.rows, "throughput")
                .iter()
                .all(|t| t.as_f64().unwrap() > 0.0));
        }
    }

    #[test]
    fn the_matrix_covers_every_structure_under_every_standard_mix() {
        let mut ctx = smoke_ctx();
        ctx.cfg.thread_counts = vec![1];
        let rows = matrix(&ctx).rows;
        // 3 structures × the 3 standard mixes × 1 thread count × 2 managers.
        assert_eq!(rows.len(), 18);
        for key in ["structure", "mix"] {
            let mut seen = texts(&rows, key);
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), 3, "{key}: {seen:?}");
        }
        assert!(column(&rows, "commits")
            .iter()
            .all(|c| c.as_u64().unwrap() > 0));
        assert!(!texts(&rows, "structure").contains(&"rbforest"));
    }

    #[test]
    fn the_read_fraction_sweep_runs_every_fraction_at_the_largest_thread_count() {
        let rows = readfrac(&smoke_ctx()).rows;
        assert_eq!(rows.len(), 6, "3 fractions x 2 managers");
        assert_eq!(texts(&rows, "structure"), ["rbtree"; 6]);
        assert!(column(&rows, "threads")
            .iter()
            .all(|t| t.as_u64() == Some(2)));
        // Fraction 0 is the update-only mix; fraction 1 is pure lookups.
        assert_eq!(texts(&rows, "mix")[0], "update-only");
        assert_eq!(rows[0].get("lookup_ops"), Some(&Value::Null));
        let pure_reads = &rows[5];
        assert_eq!(pure_reads.get("insert_ops"), Some(&Value::Null));
        assert_eq!(pure_reads.get("lookup_ops"), pure_reads.get("commits"));
    }

    #[test]
    fn the_ablation_labels_every_knob_value_and_includes_the_defaults() {
        use stm_cm::backoff::DEFAULT_BACKOFF_CAP;
        use stm_cm::greedy::DEFAULT_GREEDY_TIMEOUT;
        use stm_cm::karma::DEFAULT_KARMA_INCREMENT;
        let micros = |d: Duration| d.as_micros() as u64;
        assert!(GREEDY_TIMEOUT_US.contains(&micros(DEFAULT_GREEDY_TIMEOUT)));
        assert!(KARMA_INCREMENT.contains(&DEFAULT_KARMA_INCREMENT));
        assert!(BACKOFF_CAP_US.contains(&micros(DEFAULT_BACKOFF_CAP)));
        let points = ablation_points();
        for (label, make) in &points {
            assert!(label.starts_with(&format!("{}[", make().name())), "{label}");
        }
        let mut ctx = smoke_ctx();
        ctx.cfg.thread_counts = vec![2];
        let rows = ablate(&ctx).rows;
        assert_eq!(rows.len(), points.len());
        assert_eq!(texts(&rows, "manager")[4], "karma[karma_increment=1]");
        assert!(column(&rows, "threads")
            .iter()
            .all(|t| t.as_u64() == Some(2)));
        assert!(column(&rows, "commits")
            .iter()
            .all(|c| c.as_u64().unwrap() > 0));
    }
}
