//! # greedy-stm
//!
//! An object-based software transactional memory in which no transaction
//! holds a lock across user code, with pluggable contention management,
//! centred on the **greedy contention
//! manager** of Guerraoui, Herlihy and Pochon (*"Toward a Theory of
//! Transactional Contention Managers"*, PODC 2005) — the first contention
//! manager that combines non-trivial provable properties (bounded commit
//! delay for every transaction; makespan within `s(s+1)+2` of an optimal
//! off-line list schedule) with competitive practical performance.
//!
//! This crate is the facade over the workspace:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`core`] | the STM runtime: [`Stm`], [`TVar`], [`Txn`], the [`ContentionManager`] interface |
//! | [`cm`] | the greedy manager, its time-out extension, and the six managers the paper's figures and theory experiments compare it with |
//! | [`structures`] | transactional list, skiplist, red-black tree, forest, chunked B+-tree set, sharded set, counter |
//! | [`sched`] | Garey–Graham task systems, list/optimal schedulers, execution simulator |
//! | [`kv`] | the networked transactional key-value service: server, wire protocol, client |
//! | [`log`] | durability: write-ahead commit log, group commit, snapshots, crash recovery |
//!
//! ## Quickstart
//!
//! ```
//! use greedy_stm::prelude::*;
//!
//! // An STM whose threads arbitrate conflicts with the greedy manager.
//! let stm = Stm::builder().manager(GreedyManager::factory()).build();
//!
//! let checking = TVar::new(90i64);
//! let savings = TVar::new(10i64);
//!
//! let mut ctx = stm.thread();
//! ctx.atomically(|tx| {
//!     let amount = 25;
//!     tx.modify(&checking, |b| b - amount)?;
//!     tx.modify(&savings, |b| b + amount)?;
//!     Ok(())
//! })
//! .unwrap();
//!
//! assert_eq!(stm.read_atomic(&checking) + stm.read_atomic(&savings), 100);
//! ```
//!
//! ## Picking a contention manager
//!
//! Every thread owns a contention-manager instance created from the factory
//! installed on the [`Stm`]. The [`stm_cm::ManagerKind`] registry lists all
//! eight by name:
//!
//! ```
//! use greedy_stm::prelude::*;
//! use greedy_stm::cm::ManagerKind;
//!
//! for kind in ManagerKind::ALL {
//!     let stm = Stm::builder().manager(kind.factory()).build();
//!     let cell = TVar::new(0u32);
//!     let mut ctx = stm.thread();
//!     ctx.atomically(|tx| tx.modify(&cell, |v| v + 1)).unwrap();
//!     assert_eq!(stm.read_atomic(&cell), 1, "manager {kind} must make progress");
//! }
//! ```
//!
//! ## Reproducing the paper
//!
//! * `cargo run --release -p stm-bench --bin figures -- all` regenerates the
//!   throughput figures (Figures 1–4), the adversarial-chain and Theorem 9
//!   experiments, and the starvation check; `BENCH_paper.json` at the
//!   repository root holds one such run with `--json`. `figures` runs only
//!   experiments on the STM runtime and its simulator (nine of them), and
//!   none is a gate: the gates are tests.
//! * `cargo run --release -p stm-bench --bin figures -- matrix --sweep machine --json`
//!   runs the workload matrix — update-only, read-mostly and range-heavy
//!   `OpMix` mixes over every structure and figure-set manager, with the
//!   thread axis sized to the host — emitting one JSON record per cell.
//! * `EXPERIMENTS.md` at the repository root records paper-versus-measured
//!   outcomes, including the workload matrix's shapes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// The STM runtime (re-export of `stm-core`).
pub use stm_core as core;

/// Contention managers (re-export of `stm-cm`).
pub use stm_cm as cm;

/// Transactional data structures (re-export of `stm-structures`).
pub use stm_structures as structures;

/// Scheduling theory and the execution simulator (re-export of `stm-sched`).
pub use stm_sched as sched;

/// The networked transactional key-value service (re-export of `stm-kv`).
pub use stm_kv as kv;

/// Durable commit log and crash recovery (re-export of `stm-log`).
pub use stm_log as log;

pub use stm_cm::{GreedyManager, GreedyTimeoutManager};
pub use stm_core::{
    AbortCause, ContentionManager, Resolution, Stm, StmBuilder, StmError, TVar, ThreadCtx,
    TxResult, TxView, Txn, WaitSpec,
};

/// The most common imports in one place.
pub mod prelude {
    pub use crate::cm::{
        AggressiveManager, BackoffManager, EruptionManager, GreedyManager, GreedyTimeoutManager,
        KarmaManager, ManagerKind, PolkaManager, TimestampManager,
    };
    pub use crate::kv::{KvClient, KvServer, KvStore, ServerConfig};
    pub use crate::structures::{
        ShardedTxSet, TxChunkedSet, TxCounter, TxList, TxRbForest, TxRbTree, TxSet, TxSkipList,
    };
    pub use stm_core::{
        AbortCause, ContentionManager, Resolution, Stm, StmError, TVar, TxResult, Txn,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let stm = Stm::builder().manager(GreedyManager::factory()).build();
        let list = TxList::new();
        let mut ctx = stm.thread();
        ctx.atomically(|tx| {
            list.insert(tx, 1)?;
            list.insert(tx, 2)?;
            Ok(())
        })
        .unwrap();
        assert_eq!(ctx.atomically(|tx| list.len(tx)).unwrap(), 2);
    }
}
