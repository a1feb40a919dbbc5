//! Bounded loomlite models of this crate's lock-free hot paths.
//!
//! Compiled only under `--features model-check`, where the [`crate::sync`]
//! facade resolves to loomlite modeled primitives — the model below drives
//! the *shipped* [`ReaderRegistry`] code, not a copy. (The crate has no
//! reclaimer to model: a `TVar` is an `Arc`, so nothing here frees memory
//! a transaction could still reach.)
//!
//! Every function returns the checker's [`Report`] so callers (unit tests
//! here and the workspace-level `tests/model_check.rs`) can assert
//! exhaustiveness and schedule counts.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::AtomicBool as StdAtomicBool;

use loomlite::{Builder, Report};

use crate::readers::{ReaderRegistry, RegisteredReader, READER_PRUNE_THRESHOLD};
use crate::sync::Arc;

/// A two-field reader record for the registry model. The `running` flag is
/// plain (not modeled): it is flipped before the reader's modeled
/// unregister/registration traffic and read under the shard lock, and using
/// a real flag keeps the model's schedule space focused on the shard locks
/// themselves.
struct ModelReader {
    id: u64,
    running: StdAtomicBool,
}

impl ModelReader {
    fn new(id: u64) -> Arc<Self> {
        Arc::new(ModelReader {
            id,
            running: StdAtomicBool::new(true),
        })
    }
}

impl RegisteredReader for ModelReader {
    fn reader_id(&self) -> u64 {
        self.id
    }

    fn is_running(&self) -> bool {
        self.running.load(Relaxed)
    }
}

/// Real-code model: two readers register in the same shard — one of them
/// past the prune threshold, forcing a prune on the way in — while a writer
/// scans with [`ReaderRegistry::active_readers`]. Asserts that a visible
/// (running, registration-completed) reader is never lost: the scan returns
/// only running readers, and both registrants are present afterwards.
pub fn reader_registry_never_loses_a_visible_reader() -> Report {
    // Bounded-exhaustive (preemption bound 2) plus the seeded random phase.
    Builder::default().check(|| {
        let reg: Arc<ReaderRegistry<ModelReader>> = Arc::new(ReaderRegistry::new());
        // Pre-fill the shard to the prune threshold with finished readers
        // so one of the concurrent registrations prunes on the way in.
        for i in 0..READER_PRUNE_THRESHOLD as u64 {
            let stale = ModelReader::new(1000 + i * 8);
            assert!(reg.register(&stale));
            stale.running.store(false, Relaxed);
        }

        let a = ModelReader::new(0); // shard 0
        let b = ModelReader::new(8); // same shard
        let scanner_me = ModelReader::new(16); // same shard, never registered

        let t1 = {
            let (reg, a) = (Arc::clone(&reg), Arc::clone(&a));
            loomlite::thread::spawn(move || assert!(reg.register(&a)))
        };
        let t2 = {
            let (reg, b) = (Arc::clone(&reg), Arc::clone(&b));
            loomlite::thread::spawn(move || assert!(reg.register(&b)))
        };

        // Writer (this thread): arbitration scan racing both registrations.
        let seen = reg.active_readers(&scanner_me);
        for r in &seen {
            assert!(r.is_running(), "scan returned a finished reader");
        }

        t1.join().unwrap();
        t2.join().unwrap();

        // Both registrations completed: neither the concurrent scan's prune
        // nor the threshold prune may have evicted a running reader.
        let after = reg.active_readers(&scanner_me);
        assert!(
            after.iter().any(|r| Arc::ptr_eq(r, &a)),
            "reader a lost after concurrent register/scan"
        );
        assert!(
            after.iter().any(|r| Arc::ptr_eq(r, &b)),
            "reader b lost after concurrent register/scan"
        );
        assert_eq!(after.len(), 2, "stale readers survived the writer scan");
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_registry_is_safe() {
        let report = reader_registry_never_loses_a_visible_reader();
        eprintln!("reader registry: {report}");
        assert!(report.schedules() > 100, "{report}");
    }
}
