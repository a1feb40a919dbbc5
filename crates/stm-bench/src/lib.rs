//! # stm-bench
//!
//! The benchmark harness that regenerates the evaluation of *"Toward a
//! Theory of Transactional Contention Managers"*:
//!
//! | Experiment | Paper reference | `figures` name and function |
//! |------------|-----------------|-----------------------------|
//! | E1 | Figure 1 — list, high contention | [`fig1`](figures::fig1) |
//! | E2 | Figure 2 — skiplist | [`fig2`](figures::fig2) |
//! | E3 | Figure 3 — red-black tree, low contention | [`fig3`](figures::fig3) |
//! | E4 | Figure 4 — red-black forest, irregular lengths | [`fig4`](figures::fig4) |
//! | E5 | Section 4 adversarial chain | [`chain`](theory::chain) |
//! | E6 | Theorem 9 competitive-ratio check | [`bound`](theory::bound) |
//! | E7 | Theorem 1 starvation / bounded commit delay | [`starvation`](starvation::starvation) |
//! | E8 | Workload matrix — mixes × structures × managers × threads | [`matrix`](figures::matrix) |
//! | E9 | Read-fraction sweep — throughput vs lookup share | [`readfrac`](figures::readfrac) |
//!
//! Every experiment is a `fn(&Ctx) -> Vec<Value>` beside the code it drives,
//! returning flat JSON rows; the `figures` binary holds the table of them
//! and nothing else. `--json` wraps the rows in one [`envelope`] and text
//! comes from one [`render`]er. No experiment is a gate: every gate is a
//! tier-1 test. Every experiment measures the STM runtime or its simulator
//! in process: the repo benchmark under `bench/` is the one wire load
//! generator, with correctness checked on every run (`EXPERIMENTS.md` names
//! the experiments retired for it and for the tests).
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

pub mod figures;
pub mod report;
pub mod starvation;
pub mod theory;
pub mod workload;

pub use figures::workload_matrix;
pub use report::{envelope, render, Ctx, Experiment, View};
pub use starvation::{starvation_experiment, StarvationResult};
pub use theory::{bound_experiment, chain_experiment, BoundRow, ChainRow};
pub use workload::{
    run_workload, OpKind, OpMix, OpStats, StructureKind, SweepConfig, WorkloadConfig,
    WorkloadResult,
};
