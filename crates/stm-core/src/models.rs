//! Bounded loomlite models of this crate's lock-free hot paths.
//!
//! Compiled only under `--features model-check`, where the [`crate::sync`]
//! facade resolves to loomlite modeled primitives — the models below drive
//! the *shipped* [`EpochGc`] and [`ReaderRegistry`] code, not a copy.
//!
//! Alongside the real-code models, [`epoch_pin_requires_seqcst`] transcribes
//! the pin/advance handshake with bare atomics so its orderings can be
//! weakened on purpose; the test suite asserts the checker catches the
//! resulting use-after-free, which is the evidence that the `SeqCst`
//! annotations in [`crate::epoch`] are load-bearing (see the `// ordering:`
//! comments there).
//!
//! Every function returns the checker's [`Report`] so callers (unit tests
//! here and the workspace-level `tests/model_check.rs`) can assert
//! exhaustiveness and schedule counts.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::AtomicBool as StdAtomicBool;

use loomlite::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use loomlite::{Builder, Failure, Report};

use crate::epoch::EpochGc;
use crate::readers::{ReaderRegistry, RegisteredReader, READER_PRUNE_THRESHOLD};
use crate::sync::Arc;

/// Default builder: bounded-exhaustive (preemption bound 2) plus the seeded
/// random phase — right for the real-code models, which have tens of
/// schedule points per run.
fn builder() -> Builder {
    Builder::default()
}

/// Builder for the transcribed handshake, which never runs the seeded random
/// phase, so its verdict depends on neither `LOOMLITE_SEED` nor the host.
///
/// The safe handshake is a proof: no preemption bound, few enough operations
/// that the full schedule tree is explored (`report.complete`). The weakened
/// one is a search for a counterexample, and its tree — a stale-value branch
/// at every weakened load on top of the switches — is past the
/// 50,000-schedule cap: unbounded, the depth-first phase gave up and left the
/// find to the 200 random schedules, which is why the negative test passed on
/// some runs and not others. The counterexample needs two preemptions, so the
/// bounded depth-first search reaches it within a hundred schedules.
fn handshake(weaken: bool) -> Builder {
    Builder {
        preemption_bound: weaken.then_some(2),
        random_schedules: 0,
        ..Builder::default()
    }
}

/// Sets a flag when the retired object is dropped, so the model knows the
/// ground-truth reclamation point (modeled operations serialize under the
/// scheduler token, so a plain flag records the interleaving order).
struct DropFlag(Arc<StdAtomicBool>);

impl Drop for DropFlag {
    fn drop(&mut self) {
        self.0.store(true, Relaxed);
    }
}

/// Real-code model: a reader pins, looks up an object through a published
/// pointer, and dereferences it; a writer unlinks the object, retires it
/// through the real [`EpochGc`], and collects. Asserts on every
/// interleaving that the reader never dereferences reclaimed memory and
/// that the retired object is reclaimed exactly once in the end.
pub fn epoch_reclamation_no_uaf() -> Report {
    builder().check(|| {
        let gc = Arc::new(EpochGc::new());
        let freed = Arc::new(StdAtomicBool::new(false));
        // 0 = the retire-bound object is still linked, 1 = unlinked.
        let published = Arc::new(AtomicUsize::new(0));

        let reader = {
            let gc = Arc::clone(&gc);
            let freed = Arc::clone(&freed);
            let published = Arc::clone(&published);
            loomlite::thread::spawn(move || {
                let slot = gc.register();
                gc.pin(&slot);
                // ordering: lookup must read the latest published pointer
                // relative to the unlink, mirroring the retire contract.
                if published.load(Ordering::SeqCst) == 0 {
                    // The object was still linked when we looked it up;
                    // dereference it: it must not have been reclaimed.
                    assert!(
                        !freed.load(Relaxed),
                        "UAF: epoch GC reclaimed an object a pinned reader holds"
                    );
                }
                gc.unpin(&slot);
            })
        };

        // Writer (this thread): unlink, then retire through the real GC
        // (retire collects opportunistically).
        published.store(1, Ordering::SeqCst);
        gc.retire(Box::new(DropFlag(Arc::clone(&freed))));

        reader.join().unwrap();
        // With the reader gone the grace period can always run out.
        gc.collect();
        assert!(freed.load(Relaxed), "retired object was never reclaimed");
        assert_eq!(gc.retired_total(), 1);
        assert_eq!(gc.reclaimed_total(), 1);
        assert_eq!(gc.limbo_len(), 0);
    })
}

const UNPINNED: u64 = u64::MAX;

/// Transcription of the pin/advance store-buffering handshake with
/// parameterizable orderings (the real code is in [`EpochGc::pin`] /
/// `try_advance`).
///
/// The `unlinked`/`freed` flags are plain (not modeled): modeled operations
/// serialize under the scheduler token, so they record the ground-truth
/// interleaving order. The reader's critical section — "found the object
/// before the unlink, dereferences it later" — is a real-flag check, a
/// modeled yield (the window where the collector may run), then the
/// dereference assert. The only modeled staleness in the whole model is
/// therefore the pin/scan handshake itself.
///
/// With `weaken = false` every handshake operation is `SeqCst` and the
/// model is safe. With `true` the pin publishes with `Release` and
/// re-checks with `Acquire`, and the collector scans the slot with
/// `Acquire`: both sides can then miss each other's store — the collector
/// double-steps the epoch past a pinned reader and reclaims an object the
/// reader still holds. The checker reports the use-after-free.
pub fn epoch_pin_requires_seqcst(weaken: bool) -> Result<Report, Failure> {
    let (pin_ld, pin_st, scan) = if weaken {
        (Ordering::Acquire, Ordering::Release, Ordering::Acquire)
    } else {
        (Ordering::SeqCst, Ordering::SeqCst, Ordering::SeqCst)
    };
    handshake(weaken).check_quiet(move || {
        let global = Arc::new(AtomicU64::new(0));
        let slot = Arc::new(AtomicU64::new(UNPINNED));
        let unlinked = Arc::new(StdAtomicBool::new(false));
        let freed = Arc::new(StdAtomicBool::new(false));

        let reader = {
            let (global, slot) = (Arc::clone(&global), Arc::clone(&slot));
            let (unlinked, freed) = (Arc::clone(&unlinked), Arc::clone(&freed));
            loomlite::thread::spawn(move || {
                // Pin: publish the observed epoch, confirm it did not move.
                loop {
                    let e = global.load(pin_ld);
                    slot.store(e, pin_st);
                    if global.load(pin_ld) == e {
                        break;
                    }
                }
                if !unlinked.load(Relaxed) {
                    // Found the object while it was still linked. Hold it
                    // across a schedule point, then dereference: the grace
                    // period must keep it alive for as long as we are pinned.
                    loomlite::thread::yield_now();
                    assert!(
                        !freed.load(Relaxed),
                        "UAF: collector double-stepped past a pinned reader"
                    );
                }
                slot.store(UNPINNED, Ordering::SeqCst);
            })
        };

        // Collector (this thread): unlink, stamp, try to advance twice,
        // reclaim once the grace period has passed. The yield is the
        // schedule point that lets the reader pin *before* the unlink
        // (plain flag writes execute inside the current token slice, so
        // without it the unlink would always precede the reader's lookup).
        loomlite::thread::yield_now();
        unlinked.store(true, Relaxed);
        let r = global.load(Ordering::SeqCst);
        for _ in 0..2 {
            let e = global.load(Ordering::SeqCst);
            let s = slot.load(scan);
            if s == UNPINNED || s == e {
                let _ = global.compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst);
            } else {
                break;
            }
        }
        if global.load(Ordering::SeqCst) >= r + 2 {
            freed.store(true, Relaxed);
        }
        reader.join().unwrap();
    })
}

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
    builder().check(|| {
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
    fn epoch_reclamation_is_safe() {
        let report = epoch_reclamation_no_uaf();
        eprintln!("epoch no-UAF: {report}");
        assert!(report.schedules() > 100, "{report}");
    }

    #[test]
    fn pin_handshake_is_safe_at_seqcst() {
        let report = epoch_pin_requires_seqcst(false).expect("SeqCst handshake must be safe");
        eprintln!("epoch pin handshake: {report}");
        assert!(report.complete, "tiny model should be explored completely");
        assert_eq!(report.random_schedules, 0, "{report}");
    }

    #[test]
    fn weakened_pin_handshake_is_caught_as_uaf() {
        let failure = epoch_pin_requires_seqcst(true)
            .expect_err("Release/Acquire pin handshake must be caught");
        eprintln!("caught as expected:\n{failure}");
        assert!(failure.message.contains("UAF"), "{failure}");
        assert!(!failure.message.contains("random schedule"), "{failure}");
        assert!(!failure.trace.is_empty());
    }

    #[test]
    fn reader_registry_is_safe() {
        let report = reader_registry_never_loses_a_visible_reader();
        eprintln!("reader registry: {report}");
        assert!(report.schedules() > 100, "{report}");
    }
}
