//! # stm-core
//!
//! An object-based, eagerly-acquiring software transactional memory (STM)
//! runtime in the style of DSTM/SXM, built as the substrate for the
//! reproduction of *"Toward a Theory of Transactional Contention Managers"*
//! (Guerraoui, Herlihy, Pochon — PODC 2005).
//!
//! The runtime separates **safety** (serializability of transactions,
//! enforced by the runtime itself) from **progress** (which transaction gets
//! to proceed when two of them conflict), exactly as the paper advocates.
//! Progress is delegated to a pluggable, fully decentralised
//! [`ContentionManager`]: whenever a transaction `A` is about to perform an
//! access that conflicts with a live transaction `B`, `A` asks *its own*
//! contention manager whether to abort `B` or to wait for `B`.
//! Reads take part: every read registers on the object it reads, so a
//! writer must settle with the object's readers through its manager too,
//! and a transaction is retried until it commits unless its own body aborts
//! it.
//!
//! ## Model
//!
//! * Shared state lives in [`TVar<T>`] cells ("transactional objects"). An
//!   object is its DSTM locator (three fields under one short lock) and
//!   its reader word, nothing else: it has
//!   no id, and the word's bits name the reader slots (one per live
//!   [`ThreadCtx`]) whose current attempts have read it.
//! * A [`Stm`] value owns the global timestamp clock, its configuration
//!   (the contention manager and an optional [`CommitHook`]) and its
//!   [`StmStats`]: striped counters in a `metrics` registry of its own,
//!   read in process with [`StmStats::snapshot`] and rendered as text with
//!   [`StmStats::metrics_text`]. A transaction draws one timestamp when it
//!   first begins and uses it as its id as well.
//! * Each thread obtains a [`ThreadCtx`] from the [`Stm`] and runs closures
//!   atomically with [`ThreadCtx::atomically`]. Inside the closure a
//!   [`Txn`] handle provides `read`, `write`, and `modify` operations.
//! * A transaction's externally visible state is a [`TxShared`] descriptor:
//!   a CAS-able status word ([`TxStatus`]), a public `waiting` flag, and the
//!   persistent [`TxLineage`] (identity, timestamp, karma) that survives
//!   retries — the three ingredients the greedy manager needs.
//! * There is no reclamation domain. A [`TVar`] is an `Arc`, so an object a
//!   layer above unlinks from its own lookup table at commit (see
//!   [`Txn::defer_on_commit`]) stays alive for exactly as long as some
//!   transaction still holds it, and is freed when the last one lets go.
//!
//! ## Quick example
//!
//! ```
//! use stm_core::{Stm, TVar};
//!
//! let stm = Stm::default();
//! let account = TVar::new(100i64);
//!
//! let mut ctx = stm.thread();
//! ctx.atomically(|tx| {
//!     let balance = tx.read(&account)?;
//!     tx.write(&account, balance + 42)?;
//!     Ok(())
//! })
//! .unwrap();
//!
//! assert_eq!(stm.read_atomic(&account), 142);
//! ```
//!
//! ## Relationship to the paper
//!
//! The contention-manager interface ([`ContentionManager`], [`Resolution`])
//! keeps the part of SXM / DSTM's interface, as described by Scherer & Scott
//! and used by the paper's experiments, that the shipped managers use: the
//! `begin`, `opened` and `committed` hooks, and `resolve(me, other)`, which
//! aborts the enemy or waits. When a wait ends is one rule,
//! [`WaitSpec::is_over`], shared by the runtime and `stm-sched`'s simulator,
//! so a simulated verdict sequence is the runtime's. The paper's greedy
//! manager, [`manager::GreedyManager`], lives here beside the trivial
//! [`manager::AggressiveManager`], and [`Stm::default`] runs greedy. The
//! other managers from the literature live in the `stm-cm` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod error;
pub mod hook;
pub mod manager;
#[cfg(feature = "model-check")]
pub mod models;
pub mod stats;
pub mod status;
pub mod stm;
pub mod sync;
pub mod tvar;
pub mod txn;
pub mod wait;

pub use clock::TimestampClock;
pub use error::{AbortCause, StmError, TxResult};
pub use hook::{CommitHook, CommitOp, CommitValue};
pub use manager::{ContentionManager, ManagerFactory, Resolution, TxView};
pub use stats::{StmStats, TxRunReport, TxnStats, ABORT_CAUSES};
pub use status::TxStatus;
pub use stm::{Stm, StmBuilder, ThreadCtx};
pub use tvar::{TVar, READER_SLOTS};
pub use txn::{TxLineage, TxShared, Txn};
pub use wait::WaitSpec;
