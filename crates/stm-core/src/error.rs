//! Error and abort-cause types.

use std::fmt;

/// Why a transaction attempt was aborted.
///
/// Abort causes are reported in [`StmError::Aborted`] and recorded in the
/// runtime statistics, one counter series per cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortCause {
    /// An enemy transaction won a conflict and CAS-ed our status to aborted.
    KilledByEnemy,
    /// A contention manager's self-abort. The runtime never raises this
    /// cause: a manager can only abort the enemy or wait. The label stays
    /// because the repo benchmark reads its counter.
    ManagerSelfAbort,
    /// Read-set validation failed. The runtime never raises this cause: every
    /// read is visible, so no read set is re-validated. User code may return
    /// it to ask for a retry, and the per-cause telemetry keeps its label.
    ValidationFailed,
    /// The commit-time CAS from `Active` to `Committed` failed.
    CommitFailed,
    /// The user code called [`crate::Txn::abort`] explicitly.
    Explicit,
}

impl AbortCause {
    /// Every cause, in [`AbortCause::index`] order. Telemetry iterates this
    /// to emit one counter series per cause.
    pub const ALL: [AbortCause; 5] = [
        AbortCause::KilledByEnemy,
        AbortCause::ManagerSelfAbort,
        AbortCause::ValidationFailed,
        AbortCause::CommitFailed,
        AbortCause::Explicit,
    ];

    /// A stable machine-readable label (metric label values; renaming one
    /// is a deliberate exposition change).
    pub fn label(self) -> &'static str {
        match self {
            AbortCause::KilledByEnemy => "killed_by_enemy",
            AbortCause::ManagerSelfAbort => "manager_self_abort",
            AbortCause::ValidationFailed => "validation_failed",
            AbortCause::CommitFailed => "commit_failed",
            AbortCause::Explicit => "explicit",
        }
    }

    /// Position of this cause in [`AbortCause::ALL`] (dense array index for
    /// per-cause counters).
    pub fn index(self) -> usize {
        match self {
            AbortCause::KilledByEnemy => 0,
            AbortCause::ManagerSelfAbort => 1,
            AbortCause::ValidationFailed => 2,
            AbortCause::CommitFailed => 3,
            AbortCause::Explicit => 4,
        }
    }
}

impl fmt::Display for AbortCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AbortCause::KilledByEnemy => "killed by an enemy transaction",
            AbortCause::ManagerSelfAbort => "contention manager requested self-abort",
            AbortCause::ValidationFailed => "read-set validation failed",
            AbortCause::CommitFailed => "commit-time status CAS failed",
            AbortCause::Explicit => "explicitly aborted by user code",
        };
        f.write_str(s)
    }
}

/// Errors surfaced by the STM runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StmError {
    /// The current attempt aborted. Inside [`crate::ThreadCtx::atomically`]
    /// this is control flow: the attempt is retried (the lineage keeps its
    /// timestamp and priority). It only escapes to the caller when the
    /// cause is [`AbortCause::Explicit`].
    Aborted(AbortCause),
}

impl StmError {
    /// Returns the abort cause if this error is an abort.
    pub fn abort_cause(&self) -> Option<AbortCause> {
        match self {
            StmError::Aborted(cause) => Some(*cause),
        }
    }
}

impl fmt::Display for StmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StmError::Aborted(cause) => write!(f, "transaction aborted: {cause}"),
        }
    }
}

impl std::error::Error for StmError {}

/// Result alias used by transactional closures and [`crate::Txn`] methods.
pub type TxResult<T> = Result<T, StmError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_cause_accessor() {
        let e = StmError::Aborted(AbortCause::KilledByEnemy);
        assert_eq!(e.abort_cause(), Some(AbortCause::KilledByEnemy));
    }

    #[test]
    fn display_is_informative() {
        let e = StmError::Aborted(AbortCause::ValidationFailed);
        assert!(e.to_string().contains("validation"));
        for cause in AbortCause::ALL {
            assert!(!cause.to_string().is_empty());
        }
    }

    #[test]
    fn labels_and_indices_are_dense_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for (i, cause) in AbortCause::ALL.iter().enumerate() {
            assert_eq!(cause.index(), i);
            assert!(
                seen.insert(cause.label()),
                "duplicate label {}",
                cause.label()
            );
            assert!(cause
                .label()
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(StmError::Aborted(AbortCause::Explicit));
        assert!(e.to_string().contains("aborted"));
    }
}
