//! Transaction status word.
//!
//! The paper (Section 3) requires that each transaction carry a *status*
//! field that is "active, committed, or aborted", and that transitions out of
//! the active state are performed with a compare-and-swap instruction: a
//! transaction commits by CAS-ing its own status from `Active` to
//! `Committed`, and an enemy aborts it by CAS-ing the status from `Active` to
//! `Aborted`. The CAS is what makes the two transitions mutually exclusive —
//! exactly one of them can win.

use std::fmt;

use crate::sync::atomic::{AtomicU8, Ordering};

/// The externally visible state of a transaction attempt.
///
/// A transaction starts `Active`, and exactly one CAS moves it to either
/// `Committed` (performed by the owning thread) or `Aborted` (performed by
/// the owning thread *or* by an enemy transaction that won a conflict).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TxStatus {
    /// The transaction is running and has neither committed nor aborted.
    Active = 0,
    /// The transaction committed; its writes are the current versions.
    Committed = 1,
    /// The transaction aborted; its writes are discarded.
    Aborted = 2,
}

impl TxStatus {
    /// Returns `true` if the status is [`TxStatus::Active`].
    #[inline]
    pub fn is_active(self) -> bool {
        self == TxStatus::Active
    }

    /// Returns `true` if the status is [`TxStatus::Committed`].
    #[inline]
    pub fn is_committed(self) -> bool {
        self == TxStatus::Committed
    }

    /// Returns `true` if the status is [`TxStatus::Aborted`].
    #[inline]
    pub fn is_aborted(self) -> bool {
        self == TxStatus::Aborted
    }
}

impl fmt::Display for TxStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TxStatus::Active => "active",
            TxStatus::Committed => "committed",
            TxStatus::Aborted => "aborted",
        };
        f.write_str(s)
    }
}

/// A lock-free, CAS-able status word.
///
/// This is the one piece of per-transaction state that other threads mutate:
/// an enemy transaction that wins a conflict aborts this transaction by
/// CAS-ing `Active -> Aborted` here.
#[derive(Debug)]
pub(crate) struct AtomicStatus(AtomicU8);

impl AtomicStatus {
    /// Creates a new status word in the [`TxStatus::Active`] state.
    pub(crate) fn new_active() -> Self {
        AtomicStatus(AtomicU8::new(TxStatus::Active as u8))
    }

    /// Loads the current status.
    #[inline]
    pub(crate) fn load(&self) -> TxStatus {
        // ordering: acquire pairs with the AcqRel transitions below — a
        // reader that observes Committed also observes everything the
        // committer wrote before its CAS (the locator's new value).
        match self.0.load(Ordering::Acquire) {
            0 => TxStatus::Active,
            1 => TxStatus::Committed,
            _ => TxStatus::Aborted,
        }
    }

    /// Attempts the `Active -> Committed` transition.
    ///
    /// Returns `true` if this call performed the transition; `false` if the
    /// transaction was no longer active (typically because an enemy aborted
    /// it first).
    #[inline]
    pub(crate) fn try_commit(&self) -> bool {
        // ordering: AcqRel — the release half publishes the transaction's
        // writes to status readers (see `load`); the acquire half orders
        // the decided status against this thread's subsequent cleanup.
        self.0
            .compare_exchange(
                TxStatus::Active as u8,
                TxStatus::Committed as u8,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Attempts the `Active -> Aborted` transition.
    ///
    /// Returns `true` if this call performed the transition; `false` if the
    /// transaction already committed or was already aborted.
    #[inline]
    pub(crate) fn try_abort(&self) -> bool {
        // ordering: AcqRel for symmetry with `try_commit` — an enemy that
        // aborts a victim publishes the decision to the victim's own
        // status checks and to every locator reader.
        self.0
            .compare_exchange(
                TxStatus::Active as u8,
                TxStatus::Aborted as u8,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn new_status_is_active() {
        let s = AtomicStatus::new_active();
        assert_eq!(s.load(), TxStatus::Active);
        assert!(s.load().is_active());
        assert!(!s.load().is_committed());
        assert!(!s.load().is_aborted());
    }

    #[test]
    fn commit_transition_succeeds_once() {
        let s = AtomicStatus::new_active();
        assert!(s.try_commit());
        assert_eq!(s.load(), TxStatus::Committed);
        assert!(!s.try_commit());
        assert!(!s.try_abort());
        assert_eq!(s.load(), TxStatus::Committed);
    }

    #[test]
    fn abort_transition_succeeds_once() {
        let s = AtomicStatus::new_active();
        assert!(s.try_abort());
        assert_eq!(s.load(), TxStatus::Aborted);
        assert!(!s.try_abort());
        assert!(!s.try_commit());
        assert_eq!(s.load(), TxStatus::Aborted);
    }

    #[test]
    fn commit_and_abort_are_mutually_exclusive_under_contention() {
        // Many racing committers and aborters: exactly one CAS may win.
        for _ in 0..64 {
            let s = Arc::new(AtomicStatus::new_active());
            let mut handles = Vec::new();
            for i in 0..8 {
                let s = Arc::clone(&s);
                handles.push(thread::spawn(move || {
                    if i % 2 == 0 {
                        s.try_commit()
                    } else {
                        s.try_abort()
                    }
                }));
            }
            let wins: usize = handles
                .into_iter()
                .map(|h| usize::from(h.join().unwrap()))
                .sum();
            assert_eq!(wins, 1, "exactly one transition must win");
            assert_ne!(s.load(), TxStatus::Active);
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(TxStatus::Active.to_string(), "active");
        assert_eq!(TxStatus::Committed.to_string(), "committed");
        assert_eq!(TxStatus::Aborted.to_string(), "aborted");
    }
}
