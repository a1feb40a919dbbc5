//! # stm-bench
//!
//! The benchmark harness that regenerates the evaluation of *"Toward a
//! Theory of Transactional Contention Managers"*:
//!
//! | Experiment | Paper reference | Module |
//! |------------|-----------------|--------|
//! | E1 | Figure 1 — list, high contention | [`figures::fig1_list`] |
//! | E2 | Figure 2 — skiplist | [`figures::fig2_skiplist`] |
//! | E3 | Figure 3 — red-black tree, low contention | [`figures::fig3_rbtree`] |
//! | E4 | Figure 4 — red-black forest, irregular lengths | [`figures::fig4_forest`] |
//! | E5 | Section 4 adversarial chain | [`theory::chain_experiment`] |
//! | E6 | Theorem 9 competitive-ratio check | [`theory::bound_experiment`] |
//! | E7 | Theorem 1 starvation / bounded commit delay | [`starvation::starvation_experiment`] |
//! | E8 | Workload matrix — mixes × structures × managers × threads | [`figures::workload_matrix`] |
//! | E9 | Read-fraction sweep — throughput vs lookup share 0..=1 | [`figures::read_fraction_sweep`] |
//! | E10 | Served load — closed-loop TCP clients vs a live `stm-kv` server | [`netload::run_netload`] |
//! | E11 | Durability overhead — fsync policy × manager over a WAL-backed server | [`netload::durability_matrix`] |
//! | E13 | String-value serving — typed `PUT` mix vs int baseline over a durable server | [`netload::string_value_matrix`] |
//! | E12 | Manager-parameter ablation — one `ManagerParams` knob per figure | [`figures::ablation_sweep`] |
//! | E14 | Keyspace churn — commit-time cell GC boundedness and cost | [`churn::churn_experiment`] |
//! | E15 | Commit-path microbenchmark — before/after p50/p99 + throughput | [`hotpath::hotpath_experiment`] |
//! | E16 | Overload serving — open-loop Poisson/zipfian load vs serve mode | [`netload::run_open_loop`] |
//!
//! The paper measures committed transactions per second as a function of the
//! number of threads (1–32) on a 256-key integer set with a 100% update mix;
//! [`workload`] implements that driver generically over the benchmark
//! structure, the contention manager, and an [`workload::OpMix`] operation
//! distribution (update-only, read-mostly, range-heavy, or any custom
//! weighting), so the same harness also covers the read-dominated and
//! range-query scenarios beyond the paper's Section 5.
//!
//! Throughput numbers depend on the host; what is expected to reproduce is
//! the *shape* of the comparison (which manager wins under which contention
//! pattern), recorded in `EXPERIMENTS.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod churn;
pub mod figures;
pub mod hotpath;
pub mod metricsprobe;
pub mod netload;
pub mod report;
pub mod starvation;
pub mod theory;
pub mod workload;

pub use churn::{churn_experiment, ChurnConfig, ChurnRow};
pub use hotpath::{
    check_against_baseline, hotpath_experiment, hotpath_matrix, HotpathConfig, HotpathMix,
    HotpathRow, BASELINE_P50_SLACK, HOTPATH_MIXES,
};
pub use figures::{
    ablation_sweep, default_ablation_knobs, default_read_fractions, fig1_list, fig2_skiplist,
    fig3_rbtree, fig4_forest, matrix_structures, read_fraction_sweep, workload_matrix,
    AblationKnob, FigureData, FractionSeries, ReadFractionSweep, Series,
};
pub use metricsprobe::{run_metrics_probe, MetricsProbeConfig, MetricsProbeResult};
pub use netload::{
    default_durability_policies, durability_matrix, run_netload, run_open_loop,
    string_value_matrix, NetLoadConfig, OpenLoopConfig, OpenLoopResult,
};
pub use report::{
    render_figure_table, render_matrix_table, render_op_breakdown, render_read_fraction_table,
    render_rows,
};
pub use starvation::{starvation_experiment, StarvationResult};
pub use theory::{bound_experiment, chain_experiment, BoundRow, ChainRow};
pub use workload::{
    run_workload, run_workload_with, OpKind, OpMix, OpStats, StructureKind, SweepConfig,
    WorkloadConfig, WorkloadResult,
};
