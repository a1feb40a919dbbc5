//! # stm-cm
//!
//! Contention managers for the `stm-core` software transactional memory.
//!
//! The centrepiece is the [`GreedyManager`] from *"Toward a Theory of
//! Transactional Contention Managers"* (Guerraoui, Herlihy, Pochon — PODC
//! 2005): the first contention manager combining non-trivial provable
//! properties (every transaction commits within a bounded delay; the
//! makespan of `n` concurrent transactions over `s` shared objects is within
//! a factor of `s(s+1)+2` of an optimal off-line list schedule) with good
//! practical performance.
//!
//! Beside it sit the managers the paper's figures plot (Eruption,
//! Aggressive, Backoff, Karma — Scherer & Scott's suite, ported to C# for
//! SXM in the paper and re-implemented in Rust here from their published
//! descriptions), greedy's Section 6 time-out extension, and the two
//! managers the theory experiments and the repo benchmark contrast with
//! greedy (Timestamp, Polka):
//!
//! | Manager | Strategy | Provable progress |
//! |---------|----------|-------------------|
//! | [`GreedyManager`] | timestamp priority + `waiting` flag (Rules 1–2) | pending-commit property, bounded commit delay |
//! | [`GreedyTimeoutManager`] | greedy + doubling wait time-outs (Section 6 extension) | tolerates transactions that halt undetectably |
//! | [`AggressiveManager`] | always abort the enemy | livelock-prone |
//! | [`BackoffManager`] | adaptive exponential backoff keyed on the enemy | none |
//! | [`TimestampManager`] | abort younger enemies; suspect-and-kill older ones after repeated waits | starvation-free if delays finite |
//! | [`KarmaManager`] | priority = objects opened (accumulated across aborts) | none (newcomers can repeatedly win) |
//! | [`EruptionManager`] | karma + blocked transactions push priority onto the blocker | none |
//! | [`PolkaManager`] | Polite + Karma: karma-difference many exponential backoffs, then abort | none |
//!
//! All managers implement [`stm_core::ContentionManager`] and are constructed
//! per thread via [`stm_core::manager::ManagerFactory`]; the [`registry`]
//! module exposes the whole family by name so benchmarks and examples can
//! sweep over them.
//!
//! ```
//! use stm_core::{Stm, TVar};
//! use stm_cm::GreedyManager;
//!
//! let stm = Stm::builder().manager(GreedyManager::factory()).build();
//! let cell = TVar::new(0u32);
//! let mut ctx = stm.thread();
//! ctx.atomically(|tx| tx.modify(&cell, |v| v + 1)).unwrap();
//! assert_eq!(stm.read_atomic(&cell), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backoff;
pub mod eruption;
pub mod greedy;
pub mod karma;
pub mod polka;
pub mod registry;
pub mod timestamp;

pub use backoff::BackoffManager;
pub use eruption::EruptionManager;
pub use greedy::{GreedyManager, GreedyTimeoutManager};
pub use karma::KarmaManager;
pub use polka::PolkaManager;
pub use registry::{all_manager_names, default_manager_names, factory_by_name, ManagerKind};
pub use timestamp::TimestampManager;

// Re-export the manager that lives in stm-core so users have one place to
// look for the whole family.
pub use stm_core::manager::AggressiveManager;

#[cfg(test)]
pub(crate) mod test_util {
    //! Helpers shared by the manager unit tests.
    use std::sync::Arc;
    use stm_core::{TxLineage, TxShared, TxView};

    /// Builds a shared descriptor with the given id/timestamp, wrapped so a
    /// `TxView` can be taken.
    pub(crate) fn tx(id: u64, timestamp: u64) -> Arc<TxShared> {
        Arc::new(TxShared::new(Arc::new(TxLineage::new(id, timestamp)), 1))
    }

    /// Shorthand for taking a view.
    pub(crate) fn view(shared: &Arc<TxShared>) -> TxView<'_> {
        TxView::new(shared)
    }
}
