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
//!   [`stm_core::CommitHook`]: under the log's one lock a transaction runs
//!   its commit CAS and, only if the CAS won, takes the next sequence
//!   number and encodes its record into the pending batch. The lock makes
//!   each commit a critical section, so the sequence order of the log
//!   extends the serialization order of the committed transactions, and a
//!   lost CAS takes no number, so the log is gapless. Replay in sequence
//!   order therefore reconstructs a state some serial execution produced —
//!   the whole correctness of recovery rests on that ordering.
//! * **Group commit** ([`wal`]) — commit-path threads only append encoded
//!   records to the pending batch; there is no writer thread. A caller of
//!   [`Wal::wait_durable`] that finds no flush in flight leads one: it takes
//!   the pending batch of length-prefixed, CRC-checked records ([`record`]),
//!   writes it to the current rotating segment file and fsyncs it, while
//!   later waiters sleep until it publishes. One fsync covers every commit
//!   that arrived while the previous one ran, and nothing is acknowledged
//!   before it is on disk.
//! * **Snapshots** ([`Wal::write_snapshot`]) — a consistent cut of the whole
//!   keyspace (obtained with `ThreadCtx::atomically_logged`, whose sequence
//!   number marks the cut) written atomically; old segments the snapshot
//!   covers are pruned.
//! * **Recovery** ([`recovery`]) — the newest valid snapshot with every later
//!   record folded into it as the segments are read, truncating a torn or
//!   corrupt final record (and discarding anything beyond it). The result is
//!   the keyspace of the committed prefix, and only the committed prefix:
//!   [`Recovered::live_pairs`], never the log itself.
//!
//! ```
//! use stm_core::{CommitOp, CommitValue, Stm};
//! use stm_log::{Wal, WalConfig};
//!
//! let dir = std::env::temp_dir().join(format!("stm-log-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let (wal, recovered) = Wal::open(WalConfig::new(&dir)).unwrap();
//! assert!(recovered.live_pairs().is_empty());
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
//! assert_eq!(recovered.live_pairs(), [(7, CommitValue::Int(42))]);
//! assert_eq!((recovered.replayed, recovered.next_seq), (1, seq + 1));
//! # drop(_wal);
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod crc;
mod group_commit;
#[cfg(feature = "model-check")]
pub mod models;
pub mod record;
pub mod recovery;
mod snapshot;
pub mod wal;

pub use record::SEGMENT_MAGIC;
pub use recovery::{recover, Recovered};
pub use wal::{FsyncPolicy, Wal, WalConfig, WalStats};
