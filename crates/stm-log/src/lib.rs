//! # stm-log
//!
//! Durability for the greedy-STM stack: a write-ahead commit log with group
//! commit, point-in-time snapshots, and crash recovery.
//!
//! The `stm-kv` server keeps its keyspace in transactional memory; without
//! this crate a restart loses every committed transaction. `stm-log` closes
//! that gap with the classic logging-and-recovery construction (the
//! append-only, replayable log as the recovery substrate):
//!
//! * **Commit capture** — the [`Wal::commit_hook`] implements
//!   [`stm_core::CommitHook`]: a transaction *reserves* its sequence number
//!   with one atomic `fetch_add` inside the commit window (before the
//!   commit CAS), so the sequence order of the log extends the
//!   serialization order of the committed transactions — without any
//!   process-wide lock on the commit path. Replay in sequence order
//!   therefore reconstructs a state some serial execution produced — the
//!   whole correctness of recovery rests on that ordering. A reservation
//!   whose commit CAS loses leaves a (harmless, recovery-tolerated) gap.
//! * **Group commit** ([`wal`]) — commit-path threads only publish encoded
//!   records into a slot ring; a single writer thread consumes the ring in
//!   sequence order and drains batches into
//!   length-prefixed, CRC-checked records ([`record`]) in rotating segment
//!   files, fsyncing every batch it writes. [`Wal::wait_durable`] turns
//!   that into synchronous durability: one fsync covers every commit that
//!   arrived while the previous one ran, and nothing is acknowledged before
//!   it is on disk.
//! * **Snapshots** ([`snapshot`]) — a consistent cut of the whole keyspace
//!   (obtained with `ThreadCtx::atomically_logged`, whose sequence number
//!   marks the cut) written atomically; old segments the snapshot covers are
//!   pruned.
//! * **Recovery** ([`recovery`]) — newest valid snapshot + replay of the
//!   record tail, truncating a torn or corrupt final record (and discarding
//!   anything beyond it) so the committed prefix, and only the committed
//!   prefix, survives a crash.
//!
//! ```
//! use stm_core::{CommitOp, Stm};
//! use stm_log::{Wal, WalConfig};
//!
//! let dir = std::env::temp_dir().join(format!("stm-log-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let (wal, recovered) = Wal::open(WalConfig::new(&dir)).unwrap();
//! assert!(recovered.tail.is_empty());
//!
//! let stm = Stm::builder().commit_hook(wal.commit_hook()).build();
//! let cell = stm_core::TVar::new(0i64);
//! let mut ctx = stm.thread();
//! let (result, report) = ctx.atomically_traced(|tx| {
//!     tx.write(&cell, 42)?;
//!     tx.publish(CommitOp::put(7, 42));
//!     Ok(())
//! });
//! result.unwrap();
//! let seq = report.commit_seq.unwrap();
//! assert!(wal.wait_durable(seq)); // the record is on disk
//!
//! drop(wal);
//! let (_wal, recovered) = Wal::open(WalConfig::new(&dir)).unwrap();
//! assert_eq!(recovered.tail, vec![(seq, vec![CommitOp::put(7, 42)])]);
//! # drop(_wal);
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod crc;
#[cfg(feature = "model-check")]
pub mod models;
pub mod record;
pub mod recovery;
mod ring;
pub mod snapshot;
pub mod wal;

pub use record::SEGMENT_MAGIC;
pub use recovery::{recover, Recovered};
pub use snapshot::Snapshot;
pub use wal::{FsyncPolicy, Wal, WalConfig, WalStats};
