//! # stm-kv
//!
//! A networked transactional key-value service built on the `stm-core`
//! runtime — the serving surface that turns the contention-manager study
//! into something real clients can contend over.
//!
//! The paper's experiments (and the in-process `stm-bench` harness) drive
//! transactions from threads inside one address space; `stm-kv` puts the
//! same runtime behind a TCP wire so the interesting latency/throughput
//! behaviour of a contention manager shows up under real client load:
//!
//! * **Values** ([`Value`], a re-export of [`stm_core::CommitValue`]) —
//!   typed: `Int(i64)`, `Str(String)`, `Bytes(Vec<u8>)`. One enum flows
//!   from the wire through the store into the write-ahead log.
//! * **Storage** ([`KvStore`]) — a dynamic `i64 → Value` keyspace. The
//!   membership index is a [`stm_structures::ShardedTxSet`] over chunked
//!   B+-trees, and every key's value lives in its own [`stm_core::TVar`]
//!   cell in one sharded table (materialised by the first write, reclaimed
//!   after a committed delete, so any key is addressable); arithmetic ops
//!   (`ADD`/`SUM`) report a typed [`TypeMismatch`] on non-integer values.
//! * **Protocol** ([`proto`]) — one framing: after the one-line `HELLO 2`
//!   preamble every byte is a binary-safe length-prefixed frame (RESP-style,
//!   typeable from `nc`) that carries typed values byte-exactly and
//!   machine-readable [`ErrorCode`]s. One grammar table of thirteen verbs:
//!   `GET`, `PUT`, `DEL`, `ADD` (atomic read-modify-write), `RANGE`, `SUM`,
//!   plus `BEGIN`/`EXEC` multi-key atomic batches, `PING`/`SNAPSHOT`/`QUIT`,
//!   and the observability pair `METRICS` (the one statistics surface: a
//!   Prometheus-style text exposition of every counter, gauge and latency
//!   histogram the server, store, STM runtime and log keep) / `SLOWLOG n`
//!   (the n slowest requests with their abort causes and
//!   contention-manager verdicts).
//! * **Server** ([`KvServer`]) — `std::net::TcpListener` + a readiness
//!   event loop (shard threads multiplexing non-blocking connections over
//!   the vendored `minipoll`), no dependencies beyond the workspace. Every
//!   request executes as one STM transaction under the
//!   [`stm_cm::ManagerKind`] chosen at server start, so multi-key batches
//!   are serializable across clients by construction. With
//!   [`ServerConfig::wal_dir`] set the server is **durable**: every
//!   mutating request's write-set is appended to an `stm-log` write-ahead
//!   log in serialization order, its reply waits until the record is
//!   fsynced, point-in-time snapshots bound recovery, and a restart loads
//!   the keyspace `stm_log::recover` folds out of snapshot and log before
//!   accepting connections.
//! * **Client** ([`KvClient`]) — a blocking client that opens with the
//!   preamble, reports failures through the structured [`KvError`] enum,
//!   offers typed getters (`get_int`/`get_str`/`get_bytes`) and a fluent
//!   [`BatchBuilder`] for atomic multi-op transactions.
//!
//! ```
//! use stm_cm::ManagerKind;
//! use stm_kv::{KvClient, KvServer, ServerConfig, Value};
//!
//! let server = KvServer::start(ServerConfig {
//!     manager: ManagerKind::Greedy,
//!     ..ServerConfig::default()
//! })
//! .unwrap();
//!
//! let mut client = KvClient::connect(server.addr()).unwrap();
//! client.put(1, 100).unwrap();
//! client.put(2, 100).unwrap();
//! client.put(3, "binary-safe\nstring \0 ✓").unwrap();
//! // Atomically move 25 from key 1 to key 2.
//! client.transfer(1, 2, 25).unwrap();
//! assert_eq!(client.get_int(1).unwrap(), Some(75));
//! assert_eq!(client.get_str(3).unwrap().as_deref(), Some("binary-safe\nstring \0 ✓"));
//! // A fluent atomic batch.
//! let replies = client
//!     .batch_builder()
//!     .add(1, -5)
//!     .add(2, 5)
//!     .get(3)
//!     .run()
//!     .unwrap();
//! assert_eq!(replies.len(), 3);
//! assert_eq!(client.sum(0, 2).unwrap(), (200, 2));
//! client.quit().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub(crate) mod event_loop;
pub mod proto;
pub mod server;
pub mod store;
pub(crate) mod telemetry;

/// The typed value enum (`Int` / `Str` / `Bytes`) — one type from the wire
/// protocol through [`KvStore`] into the `stm-log` write-ahead log.
pub use stm_core::CommitValue as Value;

/// The reassembled histogram type [`client::MetricsSnapshot::histogram`]
/// returns — the same type the server records into, so client-side
/// quantiles agree with server-side accounting bucket-for-bucket.
pub use metrics::HistogramSnapshot;

pub use client::{BatchBuilder, BatchOp, KvClient, KvError, MetricsSnapshot};
pub use proto::{ErrorCode, ProtoError, Reply, Request};
pub use server::{KvServer, ServeMode, ServerConfig};
pub use store::{KvStore, TypeMismatch};
