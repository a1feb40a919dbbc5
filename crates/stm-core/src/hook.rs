//! Commit observation: publishing a transaction's write-set atomically at
//! commit time.
//!
//! A durable service built on the STM (the `stm-kv` server with its
//! `stm-log` write-ahead log) needs every committed transaction to hand its
//! write-set to a logger **in serialization order** — otherwise a replay of
//! the log could apply two writes to the same object in the wrong order and
//! recover a state no serial execution produced.
//!
//! The runtime makes that possible with a [`CommitHook`]: a closure running
//! inside [`crate::ThreadCtx::atomically`] calls [`crate::Txn::publish`]
//! with [`CommitOp`]s describing the application-level effect of its writes,
//! and the hook installed via [`crate::StmBuilder::commit_hook`] is handed
//! those ops **wrapped around the commit linearization point**: the hook
//! receives a `commit` closure that performs the attempt's status CAS and
//! must invoke it exactly once, recording the ops only when it returns
//! `true`. A hook recovers serialization order with one internal lock held
//! across the `commit()` call and the recording: under the lock it runs
//! `commit()` and, only if the CAS won, assigns the next sequence number and
//! records the ops. That is sufficient because the lock makes each hook
//! call a critical section that contains its CAS:
//!
//! * if transaction `B` reads or overwrites an object `A` wrote, `B` can
//!   only acquire the object after `A`'s status CAS, so `B`'s CAS — and with
//!   it `B`'s whole critical section — comes after `A`'s; critical sections
//!   do not overlap, so `A` took its sequence number first and
//!   `seq(A) < seq(B)` whenever `B` depends on `A`;
//! * transactions that never conflict may be numbered in either order, and
//!   either order is a correct serialization;
//! * a `commit()` that returns `false` takes no sequence number, so the
//!   numbers of committed transactions are gapless.
//!
//! The `stm-log` WAL and the test hook below both follow this discipline;
//! the WAL's critical section is one CAS plus encoding the record into its
//! pending batch, and the filesystem work happens outside it.
//!
//! Transactions that publish nothing bypass the hook entirely (their commit
//! is the plain uncontended CAS), so a read-only request costs nothing
//! extra. [`crate::ThreadCtx::atomically_logged`] forces even an empty
//! write-set through the hook — that is how a snapshotter obtains a
//! sequence number marking a consistent cut of the log.

/// The typed payload of a published write: the value an object holds after
/// a committed transaction.
///
/// The runtime does not interpret values — it only carries them, in
/// serialization order, to the installed [`CommitHook`]. The `stm-kv`
/// service re-exports this enum as its `Value` type, so the same three
/// variants flow from the wire protocol through the store into the
/// write-ahead log without conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitValue {
    /// A signed 64-bit integer (the kind `ADD` and `SUM` operate on).
    Int(i64),
    /// A UTF-8 string, arbitrary bytes included (newlines, NULs).
    Str(String),
    /// An opaque byte blob.
    Bytes(Vec<u8>),
}

impl CommitValue {
    /// Stable lower-case name of this value's kind (`int`, `str`, `bytes`)
    /// — used in typed error messages and wire-level type reporting.
    pub fn type_name(&self) -> &'static str {
        match self {
            CommitValue::Int(_) => "int",
            CommitValue::Str(_) => "str",
            CommitValue::Bytes(_) => "bytes",
        }
    }

    /// The integer payload, when this value is an [`CommitValue::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            CommitValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The string payload, when this value is a [`CommitValue::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            CommitValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The blob payload, when this value is a [`CommitValue::Bytes`].
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            CommitValue::Bytes(b) => Some(b),
            _ => None,
        }
    }
}

impl From<i64> for CommitValue {
    fn from(v: i64) -> Self {
        CommitValue::Int(v)
    }
}

impl From<String> for CommitValue {
    fn from(s: String) -> Self {
        CommitValue::Str(s)
    }
}

impl From<&str> for CommitValue {
    fn from(s: &str) -> Self {
        CommitValue::Str(s.to_string())
    }
}

impl From<Vec<u8>> for CommitValue {
    fn from(b: Vec<u8>) -> Self {
        CommitValue::Bytes(b)
    }
}

/// One entry of a committed transaction's published write-set: an
/// application-defined object id and its new state.
///
/// The ids are chosen by the publisher (the `stm-kv` store publishes its
/// keys), not by the runtime; the runtime only guarantees ordering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitOp {
    /// Object `id` now holds `value`.
    Put {
        /// Application-defined object id.
        id: i64,
        /// The committed value.
        value: CommitValue,
    },
    /// Object `id` was removed.
    Del {
        /// Application-defined object id.
        id: i64,
    },
}

impl CommitOp {
    /// A `Put` of any value kind (`CommitOp::put(3, 42)`,
    /// `CommitOp::put(3, "text")`, `CommitOp::put(3, vec![0u8, 1])`).
    pub fn put(id: i64, value: impl Into<CommitValue>) -> CommitOp {
        CommitOp::Put {
            id,
            value: value.into(),
        }
    }

    /// A `Del` of object `id`.
    pub fn del(id: i64) -> CommitOp {
        CommitOp::Del { id }
    }

    /// The object id this op touches.
    pub fn id(&self) -> i64 {
        match *self {
            CommitOp::Put { id, .. } | CommitOp::Del { id } => id,
        }
    }
}

/// A commit observer installed on an [`crate::Stm`] via
/// [`crate::StmBuilder::commit_hook`].
///
/// See the [module documentation](self) for the ordering contract.
pub trait CommitHook: Send + Sync {
    /// Wraps the linearization point of one attempt's commit.
    ///
    /// `ops` is the write-set the transaction published (possibly empty when
    /// the caller used [`crate::ThreadCtx::atomically_logged`]); `commit`
    /// performs the attempt's `Active → Committed` status CAS.
    /// Implementations **must call `commit` exactly once**. When it returns
    /// `true` the implementation records `ops`, assigns them the next
    /// sequence number and returns it, all under one internal lock held
    /// across the `commit()` call and the recording, so that sequence order
    /// extends serialization order (see the [module documentation](self)).
    /// When `commit` returns `false` (an enemy aborted the attempt first)
    /// the implementation records nothing, assigns no number and returns
    /// `None`.
    fn on_commit(&self, ops: &[CommitOp], commit: &mut dyn FnMut() -> bool) -> Option<u64>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Stm, TVar};
    use std::sync::{Arc, Mutex};

    /// One `(seq, write-set)` record a test hook captured.
    type Recorded = (u64, Vec<CommitOp>);

    /// A hook that implements the intended locking discipline and remembers
    /// every record in order.
    #[derive(Default)]
    struct RecordingHook {
        log: Mutex<(u64, Vec<Recorded>)>,
    }

    impl CommitHook for RecordingHook {
        fn on_commit(&self, ops: &[CommitOp], commit: &mut dyn FnMut() -> bool) -> Option<u64> {
            let mut log = self.log.lock().unwrap();
            if !commit() {
                return None;
            }
            log.0 += 1;
            let seq = log.0;
            log.1.push((seq, ops.to_vec()));
            Some(seq)
        }
    }

    #[test]
    fn published_ops_reach_the_hook_in_commit_order() {
        let hook = Arc::new(RecordingHook::default());
        let stm = Stm::builder().commit_hook(hook.clone()).build();
        let v = TVar::new(0i64);
        let mut ctx = stm.thread();
        for i in 1..=3i64 {
            let (result, report) = ctx.atomically_traced(|tx| {
                tx.write(&v, i)?;
                tx.publish(CommitOp::put(7, i));
                Ok(())
            });
            result.unwrap();
            assert_eq!(report.commit_seq, Some(i as u64));
        }
        let log = hook.log.lock().unwrap();
        assert_eq!(
            log.1,
            vec![
                (1, vec![CommitOp::put(7, 1)]),
                (2, vec![CommitOp::put(7, 2)]),
                (3, vec![CommitOp::put(7, 3)]),
            ]
        );
    }

    #[test]
    fn unpublished_transactions_bypass_the_hook() {
        let hook = Arc::new(RecordingHook::default());
        let stm = Stm::builder().commit_hook(hook.clone()).build();
        let v = TVar::new(0i64);
        let mut ctx = stm.thread();
        let (result, report) = ctx.atomically_traced(|tx| tx.read(&v));
        assert_eq!(result.unwrap(), 0);
        assert_eq!(report.commit_seq, None);
        assert!(hook.log.lock().unwrap().1.is_empty());
    }

    #[test]
    fn atomically_logged_forces_an_empty_record_through() {
        let hook = Arc::new(RecordingHook::default());
        let stm = Stm::builder().commit_hook(hook.clone()).build();
        let v = TVar::new(5i64);
        let mut ctx = stm.thread();
        let (result, report) = ctx.atomically_logged(|tx| tx.read(&v));
        assert_eq!(result.unwrap(), 5);
        assert_eq!(report.commit_seq, Some(1));
        assert_eq!(hook.log.lock().unwrap().1, vec![(1, Vec::new())]);
    }

    #[test]
    fn only_the_committing_attempt_is_logged() {
        use crate::error::{AbortCause, StmError};
        use std::sync::atomic::{AtomicU64, Ordering};
        let hook = Arc::new(RecordingHook::default());
        let stm = Stm::builder().commit_hook(hook.clone()).build();
        let v = TVar::new(0i64);
        let failures = AtomicU64::new(2);
        let mut ctx = stm.thread();
        let (result, report) = ctx.atomically_traced(|tx| {
            let next = tx.read(&v)? + 1;
            tx.write(&v, next)?;
            tx.publish(CommitOp::put(0, next));
            if failures.load(Ordering::Relaxed) > 0 {
                failures.fetch_sub(1, Ordering::Relaxed);
                return Err(StmError::Aborted(AbortCause::ValidationFailed));
            }
            Ok(())
        });
        result.unwrap();
        assert_eq!(report.attempts, 3);
        assert_eq!(report.commit_seq, Some(1));
        // The two aborted attempts published too, but never reached the hook.
        assert_eq!(
            hook.log.lock().unwrap().1,
            vec![(1, vec![CommitOp::put(0, 1)])]
        );
        assert_eq!(stm.read_atomic(&v), 1);
    }

    #[test]
    fn replaying_the_log_reproduces_contended_final_state() {
        use std::thread;
        let hook = Arc::new(RecordingHook::default());
        let stm = Arc::new(Stm::builder().commit_hook(hook.clone()).build());
        let cells: Vec<TVar<i64>> = (0..4).map(|_| TVar::new(0)).collect();
        thread::scope(|scope| {
            for t in 0..4usize {
                let stm = Arc::clone(&stm);
                let cells = cells.clone();
                scope.spawn(move || {
                    let mut ctx = stm.thread();
                    for i in 0..100u64 {
                        let id = ((t as u64 + i) % 4) as usize;
                        ctx.atomically(|tx| {
                            let next = tx.read(&cells[id])? + 1;
                            tx.write(&cells[id], next)?;
                            tx.publish(CommitOp::put(id as i64, next));
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        });
        // Replay: the last Put per id in log order must equal the final
        // committed state — the property WAL recovery depends on.
        let log = hook.log.lock().unwrap();
        assert_eq!(log.1.len(), 400);
        let mut replayed = [0i64; 4];
        for (_, ops) in &log.1 {
            for op in ops {
                if let CommitOp::Put { id, value } = op {
                    replayed[*id as usize] = value.as_int().expect("int was published");
                }
            }
        }
        for (id, cell) in cells.iter().enumerate() {
            assert_eq!(replayed[id], stm.read_atomic(cell), "object {id} diverged");
        }
    }
}
