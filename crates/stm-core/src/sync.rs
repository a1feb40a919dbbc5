//! Synchronization facade: the single import point for every atomic, mutex,
//! and condvar used on the runtime's concurrent hot paths.
//!
//! Normally this re-exports `std::sync::atomic` and the vendored
//! `parking_lot` shim. Under `--features model-check` the same names resolve
//! to `loomlite` modeled types instead, so each object's locator lock and
//! reader word, the reader slot table, and (via its own facade) the
//! `stm-log` slot ring can be driven by the deterministic interleaving
//! checker — see the "Correctness tooling" section of the repository
//! README.
//!
//! **Rule:** new concurrent code in this crate (and in `stm-log`) must take
//! its `Atomic*`, `Mutex`, and `Condvar` from this module, not from
//! `std::sync` or `parking_lot` directly, or it silently escapes the model
//! checker (and trips the `lint_concurrency` test for mutexes). `Arc` stays
//! `std::sync::Arc` in both configurations: reference counting itself is not
//! under test and keeping the type stable preserves public signatures.

/// The atomic types the runtime and `stm-log` use, plus [`Ordering`].
///
/// [`Ordering`]: std::sync::atomic::Ordering
pub mod atomic {
    #[cfg(not(feature = "model-check"))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8};

    #[cfg(feature = "model-check")]
    pub use loomlite::sync::atomic::{AtomicBool, AtomicU64, AtomicU8};

    pub use std::sync::atomic::Ordering;
}

#[cfg(not(feature = "model-check"))]
pub use parking_lot::{Condvar, Mutex};

#[cfg(feature = "model-check")]
pub use loomlite::sync::{Condvar, Mutex};

pub use std::sync::Arc;
