//! The TCP server: a listener, a readiness event loop, one STM transaction
//! per request — and, optionally, a durable commit log underneath.
//!
//! The server runs exactly [`ServerConfig::event_shards`] threads, the
//! shards of `crate::event_loop`, and no other. A shard owns a
//! `minipoll::Poller` and a slab of non-blocking connections, so an idle
//! connection costs one registration rather than one thread, and no
//! connection waits for another to hang up before it is served. Shard 0
//! also accepts: the listener sits in its poller, and it deals each new
//! connection round-robin over the shards. Each shard thread builds its
//! serving state once, its own [`stm_core::ThreadCtx`] included — and
//! therefore its own contention-manager instance, keeping managers
//! decentralised exactly as in the in-process harness. The request core
//! (decode, transact, snapshot, the durability barrier, render) runs as
//! methods on that state, over one connection at a time.
//!
//! Every data request executes as one `atomically` call; an `EXEC` runs
//! all of its operations inside a single `atomically` call, which is what
//! makes multi-key batches serializable across clients by construction:
//! the runtime provides safety, and the [`ManagerKind`] chosen at server
//! start provides progress. A connection keeps no transaction state between
//! requests.
//!
//! **Framing.** A connection's first line is the `HELLO 2` preamble,
//! answered byte-for-byte; every byte after it is a frame (see
//! [`crate::proto`]). A pipelined burst may carry the preamble and the
//! first frames in one write. Any other first line, and any line that
//! outgrows [`MAX_HEADER_BYTES`](crate::proto::MAX_HEADER_BYTES) before its
//! `\n`, is answered with one `-PROTO` error frame and a close — a peer
//! that never sends `\n` cannot make the server buffer it.
//!
//! **Pipelining.** Request processing is batch-oriented: every complete
//! request buffered on the socket is parsed and executed before any reply
//! is written, and all the replies go back in one flush. A closed-loop
//! client sees identical semantics; a pipelining client amortises the
//! request/reply round trip over the whole burst.
//!
//! **Durability.** With [`ServerConfig::wal_dir`] set, the server opens a
//! [`stm_log::Wal`] in that directory, recovers the keyspace from the
//! latest snapshot plus log replay before accepting connections, and
//! installs the log's commit hook on the STM so every mutating request's
//! write-set — typed values included — is appended to the log in
//! serialization order. A mutating request's reply is withheld until its
//! record is fsynced (group commit: one fsync covers every request that
//! committed meanwhile), so an acknowledged write is on disk. A request that
//! logged nothing waits for the newest record assigned when it committed,
//! so no reply shows a write that is not yet on disk. `SNAPSHOT`
//! forces a point-in-time snapshot; [`ServerConfig::snapshot_every`] takes
//! one automatically every N logged records.
//!
//! **Statistics.** `METRICS` is the only statistics verb. Its payload is
//! four registries rendered back to back, and each series lives in exactly
//! one of them: the serving layer's `Telemetry`, the STM runtime's
//! ([`StmStats::metrics_text`](stm_core::StmStats::metrics_text)), the
//! store's ([`KvStore::metrics_text`]) and, when durable, the log's
//! ([`Wal::metrics_text`]). No series line is written anywhere else.
//!
//! [`KvServer::shutdown`] stops accepting, drains every connection (what it
//! already sent is executed and answered), joins every shard, and flushes
//! the log.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use stm_cm::ManagerKind;
use stm_core::{CommitOp, Stm, ThreadCtx, TxResult, Txn};
use stm_log::{FsyncPolicy, Wal, WalConfig};

use crate::event_loop::{Conn, EventLoops};
use crate::proto::{
    decode_frame, parse_preamble, parse_request_v2, render_reply_v2, ErrorCode, FrameError, Reply,
    Request, PREAMBLE,
};
use crate::store::KvStore;
use crate::telemetry::{elapsed_us, op_index, Telemetry, OP_EXEC};

/// Recovery replays at most this many logged write-sets per transaction.
const REPLAY_CHUNK: usize = 512;

/// Shards in the store. Each owns an ordered index tree and a cell table
/// for its keys, dealt out in 1,024-key blocks (block `key >> 10` to shard
/// `block mod shards`, [`KvStore::shard_of`]), so a `RANGE` of up to 1,024
/// keys opens one tree or two.
const STORE_SHARDS: usize = 16;

/// The listener's accept queue. Shard 0 accepts between serving its own
/// connections, so a connect burst queues here; `std`'s 128 overflowed at
/// 2,000 back-to-back dials, and each overflow cost a 1 s SYN retransmit.
const LISTEN_BACKLOG: i32 = 4096;

/// How the server maps connections onto threads. There is one way, the
/// readiness event loop; the type and [`KvServer::serve_mode`] are kept by
/// name only because the repo benchmark (`bench/`) records the label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// [`ServerConfig::event_shards`] shard threads each own a
    /// `minipoll::Poller` and a slab of non-blocking connections.
    Events,
}

impl ServeMode {
    /// Stable lowercase label (bench row field).
    pub fn label(self) -> &'static str {
        "events"
    }
}

/// Configuration of a [`KvServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address. The default binds an ephemeral loopback port; read the
    /// actual address back with [`KvServer::addr`].
    pub addr: String,
    /// Contention manager arbitrating every transaction on this server.
    pub manager: ManagerKind,
    /// Directory for the write-ahead log and snapshots. `None` (the
    /// default) runs the server volatile.
    pub wal_dir: Option<PathBuf>,
    /// The log's fsync rule. It has one value; the field is kept by name
    /// only because the repo benchmark (`bench/`) sets it.
    pub fsync: FsyncPolicy,
    /// Take a snapshot automatically every this many logged records
    /// (0 = only on explicit `SNAPSHOT`; ignored without `wal_dir`).
    pub snapshot_every: u64,
    /// Event-loop shard threads (0 = one per available core).
    pub event_shards: usize,
    /// Close connections idle longer than this (zero, the default,
    /// disables reaping).
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            manager: ManagerKind::Greedy,
            wal_dir: None,
            fsync: FsyncPolicy::EveryCommit,
            snapshot_every: 0,
            event_shards: 0,
            idle_timeout: Duration::ZERO,
        }
    }
}

/// The durable half of the server, shared by every shard.
pub(crate) struct Durable {
    pub(crate) wal: Arc<Wal>,
    /// Auto-snapshot threshold (0 = never).
    snapshot_every: u64,
}

/// A running key-value server. Dropping it shuts it down.
pub struct KvServer {
    addr: SocketAddr,
    manager: ManagerKind,
    stm: Arc<Stm>,
    store: Arc<KvStore>,
    telemetry: Arc<Telemetry>,
    durable: Option<Arc<Durable>>,
    stop: Arc<AtomicBool>,
    loops: Option<EventLoops>,
}

impl std::fmt::Debug for KvServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvServer")
            .field("addr", &self.addr)
            .field("manager", &self.manager.name())
            .field("durable", &self.durable.is_some())
            .finish()
    }
}

impl KvServer {
    /// Binds the listener, recovers the keyspace when a `wal_dir` is
    /// configured, and spawns the shard threads.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the address cannot be bound or
    /// the log directory cannot be opened/recovered.
    pub fn start(config: ServerConfig) -> std::io::Result<KvServer> {
        let listener = TcpListener::bind(&config.addr)?;
        minipoll::net::listen(&listener, LISTEN_BACKLOG)?;
        let addr = listener.local_addr()?;

        let opened_wal = match &config.wal_dir {
            Some(dir) => Some(Wal::open(WalConfig::new(dir.clone()))?),
            None => None,
        };

        let mut stm_builder = Stm::builder().manager(config.manager.factory());
        if let Some((wal, _)) = &opened_wal {
            stm_builder = stm_builder.commit_hook(wal.commit_hook());
        }
        let stm = Arc::new(stm_builder.build());
        let store = Arc::new(KvStore::new(STORE_SHARDS));

        let durable = opened_wal.map(|(wal, recovered)| {
            replay_recovered(&stm, &store, &recovered);
            Arc::new(Durable {
                wal: Arc::new(wal),
                snapshot_every: config.snapshot_every,
            })
        });

        let telemetry = Arc::new(Telemetry::new());
        let stop = Arc::new(AtomicBool::new(false));
        let loops = EventLoops::start(
            &config,
            listener,
            Arc::clone(&stm),
            Arc::clone(&store),
            Arc::clone(&telemetry),
            durable.clone(),
            Arc::clone(&stop),
        )?;

        Ok(KvServer {
            addr,
            manager: config.manager,
            stm,
            store,
            telemetry,
            durable,
            stop,
            loops: Some(loops),
        })
    }

    /// The address the server actually listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The contention manager this server runs under.
    pub fn manager(&self) -> ManagerKind {
        self.manager
    }

    /// The underlying store (for in-process audits in tests and examples;
    /// run transactions against it via [`KvServer::stm`]).
    pub fn store(&self) -> &Arc<KvStore> {
        &self.store
    }

    /// The underlying STM instance.
    pub fn stm(&self) -> &Arc<Stm> {
        &self.stm
    }

    /// The write-ahead log, when the server runs durable.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.durable.as_ref().map(|d| &d.wal)
    }

    /// Connections currently being served. Must be zero after
    /// [`KvServer::shutdown`] returns — the graceful drain closes (and
    /// un-counts) every connection it finishes with.
    pub fn conns_open(&self) -> u64 {
        u64::try_from(self.telemetry.conns_open.value()).unwrap_or(0)
    }

    /// The full `METRICS` exposition, as a wire client would scrape it
    /// (in-process hook for tests and the bench harness).
    pub fn metrics_text(&self) -> String {
        metrics_payload(
            &self.stm,
            &self.store,
            self.durable.as_deref(),
            &self.telemetry,
        )
    }

    /// Which serve mode this server runs in: always [`ServeMode::Events`].
    pub fn serve_mode(&self) -> ServeMode {
        ServeMode::Events
    }

    /// Stops accepting, gracefully drains every in-flight connection
    /// (pending replies are flushed before sockets close), joins every
    /// serving thread, and flushes the log. Idempotent; also invoked by
    /// `Drop`.
    pub fn shutdown(&mut self) {
        // ordering: first-shutdown latch; SeqCst orders it ahead of the
        // shard wake-ups below so every woken shard observes it and drains.
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(loops) = self.loops.take() {
            loops.shutdown();
        }
        // Shards are gone, so this is the last strong reference to the
        // `Wal` wrapper; shut it down explicitly for a deterministic final
        // flush + fsync (Drop would do the same).
        if let Some(durable) = self.durable.take() {
            if let Ok(durable) = Arc::try_unwrap(durable) {
                if let Ok(mut wal) = Arc::try_unwrap(durable.wal) {
                    wal.shutdown();
                }
            }
        }
    }
}

impl Drop for KvServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Rebuilds the store from the keyspace recovery returned
/// ([`stm_log::Recovered::live_pairs`]): only keys that survive the log are
/// PUT, so a key whose last logged op was a `Del` never materialises a value
/// cell. Replay runs in chunks so no single transaction grows unboundedly;
/// replay transactions publish nothing, so they are not re-logged.
fn replay_recovered(stm: &Stm, store: &KvStore, recovered: &stm_log::Recovered) {
    let mut ctx = stm.thread();
    for chunk in recovered.live_pairs().chunks(REPLAY_CHUNK) {
        ctx.atomically(|tx| {
            for (key, value) in chunk {
                store.put(tx, *key, value.clone())?;
            }
            Ok(())
        })
        .expect("recovery replay transaction must commit");
    }
}

/// Applies one data operation inside the caller's transaction, publishing
/// the write-set to the commit log when the server runs durable.
///
/// A [`TypeMismatch`](crate::TypeMismatch) from `ADD`/`SUM` is a `TYPE`
/// error reply. For a standalone request that is the whole story (the
/// failed op wrote nothing). Inside an `EXEC` the caller aborts the
/// **entire transaction** on a type error:
/// committing the other ops while one `ADD` silently failed would let a
/// `transfer` debit one account without crediting the other — destroying
/// the conservation invariant the batch contract exists to protect.
fn apply(store: &KvStore, tx: &mut Txn<'_>, request: &Request, log: bool) -> TxResult<Reply> {
    Ok(match request {
        Request::Get(key) => match store.get(tx, *key)? {
            Some(value) => Reply::Value(value),
            None => Reply::Nil,
        },
        Request::Put(key, value) => {
            store.set(tx, *key, value.clone())?;
            if log {
                tx.publish(CommitOp::Put {
                    id: *key,
                    value: value.clone(),
                });
            }
            Reply::Ok
        }
        Request::Del(key) => {
            let removed = store.unset(tx, *key)?;
            if log && removed {
                tx.publish(CommitOp::Del { id: *key });
            }
            Reply::OkN(i64::from(removed))
        }
        Request::Add(key, delta) => match store.add(tx, *key, *delta)? {
            Ok(value) => {
                if log {
                    tx.publish(CommitOp::put(*key, value));
                }
                Reply::Value(crate::Value::Int(value))
            }
            Err(mismatch) => Reply::err(ErrorCode::Type, mismatch.to_string()),
        },
        Request::Range(lo, hi) => Reply::Range(store.range(tx, *lo, *hi)?),
        Request::Sum(lo, hi) => match store.sum(tx, *lo, *hi)? {
            Ok((total, count)) => Reply::Sum(total, count),
            Err(mismatch) => Reply::err(ErrorCode::Type, mismatch.to_string()),
        },
        // Non-data requests never reach `apply`.
        Request::Exec(_)
        | Request::Ping
        | Request::Snapshot
        | Request::Metrics
        | Request::SlowLog(_)
        | Request::Quit => Reply::err(ErrorCode::Proto, "internal: non-data op in transaction"),
    })
}

/// The `METRICS` payload: four registries' Prometheus text expositions,
/// back to back —
///
/// 1. the server's [`Telemetry`] (request and connection counters, per-op
///    latency histograms, transaction attempt/latency histograms, event-loop
///    instrumentation, per-shard connection gauges);
/// 2. the STM runtime's counters (`stm_*_total`: commits, aborts by cause,
///    conflicts, contention-manager waits and enemy aborts, reads, writes);
/// 3. the store's index-walk counter and cell gauges, which make keyspace
///    growth *and reclamation* observable from the wire (allocated − freed
///    = linked, with no limbo in between);
/// 4. when durable, every `stm_wal_*` series.
fn metrics_payload(
    stm: &Stm,
    store: &KvStore,
    durable: Option<&Durable>,
    telemetry: &Telemetry,
) -> String {
    let mut out = telemetry.render();
    out.push_str(&stm.stats().metrics_text());
    out.push_str(&store.metrics_text());
    if let Some(durable) = durable {
        out.push_str(&durable.wal.metrics_text());
    }
    out
}

/// One shard thread's serving state, built once when the thread starts: its
/// transaction context (and so its own contention-manager instance), the
/// store, the telemetry and the log. The request core runs as its methods,
/// over one connection at a time.
pub(crate) struct Core<'a> {
    ctx: ThreadCtx<'a>,
    store: &'a KvStore,
    pub(crate) telemetry: &'a Telemetry,
    durable: Option<&'a Durable>,
    /// Highest log sequence number the burst being executed must wait on
    /// before its replies are flushed (only durable servers set one).
    barrier: Option<u64>,
}

impl<'a> Core<'a> {
    pub(crate) fn new(
        ctx: ThreadCtx<'a>,
        store: &'a KvStore,
        telemetry: &'a Telemetry,
        durable: Option<&'a Durable>,
    ) -> Core<'a> {
        Core {
            ctx,
            store,
            telemetry,
            durable,
            barrier: None,
        }
    }

    /// Executes what `conn` has buffered: answers the preamble once, then
    /// decodes and executes every complete frame in its input (partial
    /// trailing input stays buffered), appending the replies to its output
    /// in order. A first line that is not the preamble, a malformed frame,
    /// or either one's header line outgrowing its cap is answered with one
    /// error frame and sets `quit`: a length-prefixed stream cannot
    /// resynchronise past garbage, and nothing unterminated is kept
    /// buffered.
    ///
    /// Returns once the burst's logged commits are durable (group commit:
    /// the shard blocks in [`Wal::wait_durable`], leading the fsync itself
    /// if no other shard is, until one fsync covers every burst, on any
    /// connection, that committed meanwhile). Returns `false` when the log
    /// failed instead: nothing rendered may be acknowledged, so the caller
    /// closes the connection.
    pub(crate) fn execute(&mut self, conn: &mut Conn) -> bool {
        let mut consumed = 0usize;
        while !conn.quit {
            let rest = &conn.inbuf[consumed..];
            let step = if conn.greeted {
                decode_frame(rest).map(|(frame, used)| (Some(frame), used))
            } else {
                parse_preamble(rest).map(|used| (None, used))
            };
            match step {
                Ok((Some(frame), used)) => {
                    consumed += used;
                    self.handle_frame(frame, conn);
                }
                Ok((None, used)) => {
                    consumed += used;
                    conn.greeted = true;
                    conn.outbuf.extend_from_slice(PREAMBLE);
                }
                Err(FrameError::Incomplete) => break,
                Err(FrameError::Malformed(message)) => {
                    let what = if conn.greeted { "frame" } else { "preamble" };
                    let refusal =
                        Reply::err(ErrorCode::Proto, format!("malformed {what}: {message}"));
                    self.emit(&refusal, &mut conn.outbuf);
                    conn.quit = true;
                }
            }
        }
        if conn.quit {
            // Whatever follows a QUIT or a refusal is never parsed.
            conn.inbuf.clear();
        } else {
            conn.inbuf.drain(..consumed);
        }
        match (self.durable, self.barrier.take()) {
            (Some(durable), Some(barrier)) => durable.wal.wait_durable(barrier),
            _ => true,
        }
    }

    /// Renders one reply, counting error replies.
    fn emit(&self, reply: &Reply, out: &mut Vec<u8>) {
        if matches!(reply, Reply::Err(..)) {
            self.telemetry.errors.add(1);
        }
        render_reply_v2(out, reply);
    }

    /// Takes a point-in-time snapshot through `atomically_logged` (the
    /// commit sequence number marks the consistent cut).
    fn take_snapshot(&mut self) -> Reply {
        let Some(durable) = self.durable else {
            return Reply::err(
                ErrorCode::Wal,
                "durability disabled (start the server with --wal-dir)",
            );
        };
        if !durable.wal.begin_snapshot() {
            return Reply::err(ErrorCode::Wal, "snapshot already in progress");
        }
        let store = self.store;
        let (result, report) = self.ctx.atomically_logged(|tx| store.dump(tx));
        match result {
            Ok(pairs) => {
                let seq = report.commit_seq.unwrap_or(0);
                match durable.wal.write_snapshot(seq, &pairs) {
                    Ok(_) => Reply::Snapshot(seq, pairs.len()),
                    Err(err) => Reply::err(ErrorCode::Wal, format!("snapshot write failed: {err}")),
                }
            }
            Err(err) => {
                durable.wal.abandon_snapshot();
                Reply::err(
                    ErrorCode::Wal,
                    format!("snapshot transaction failed: {err}"),
                )
            }
        }
    }

    /// Auto-snapshot when the configured record budget is exhausted.
    fn maybe_auto_snapshot(&mut self) {
        let Some(durable) = self.durable else { return };
        if durable.snapshot_every == 0
            || durable.wal.records_since_snapshot() < durable.snapshot_every
        {
            return;
        }
        if let Reply::Err(_, message) = self.take_snapshot() {
            // "already in progress" just means another shard got there
            // first; anything else is worth a trace.
            if !message.contains("in progress") {
                eprintln!("stm-kv: auto-snapshot failed: {message}");
            }
        }
    }

    /// Processes one decoded request frame, appending its reply to the
    /// connection's output.
    fn handle_frame(&mut self, frame: crate::proto::Frame, conn: &mut Conn) {
        let out = &mut conn.outbuf;
        let request = match parse_request_v2(frame) {
            Ok(request) => request,
            Err(error) => return self.emit(&Reply::Err(error.code, error.message), out),
        };
        let store = self.store;
        let log = self.durable.is_some();
        match request {
            Request::Quit => {
                self.emit(&Reply::Bye, out);
                conn.quit = true;
            }
            Request::Ping => self.emit(&Reply::Pong, out),
            Request::Snapshot => {
                let reply = self.take_snapshot();
                self.emit(&reply, out);
            }
            Request::Metrics => {
                let payload =
                    metrics_payload(self.ctx.stm(), self.store, self.durable, self.telemetry);
                self.emit(&Reply::Metrics(payload), out);
            }
            Request::SlowLog(n) => {
                let entries = self.telemetry.slowlog.entries(n as usize);
                self.emit(&Reply::SlowLog(entries), out);
            }
            // A type error anywhere in an `EXEC` aborts the whole
            // transaction (explicit abort — no retry, nothing commits):
            // all-or-nothing is the batch's contract, and a half-applied
            // transfer would un-conserve the keyspace.
            Request::Exec(ops) => self.transact(OP_EXEC, out, |tx, refusal| {
                let mut replies = Vec::with_capacity(ops.len());
                for op in &ops {
                    match apply(store, tx, op, log)? {
                        Reply::Err(code, message) => {
                            *refusal =
                                Some(Reply::Err(code, format!("nothing executed: {message}")));
                            return tx.abort();
                        }
                        reply => replies.push(reply),
                    }
                }
                Ok(Reply::Exec(replies))
            }),
            op => self.transact(op_index(&op), out, |tx, _| apply(store, tx, &op, log)),
        }
    }

    /// Runs one data transaction — a standalone op, or every op of an
    /// `EXEC` — and renders its reply: `body` is the transaction, and a body
    /// that aborts explicitly leaves its reply in `refusal`. Counts and
    /// times the call, raises the burst's durability barrier and polls the
    /// auto-snapshot budget.
    fn transact(
        &mut self,
        op: usize,
        out: &mut Vec<u8>,
        mut body: impl FnMut(&mut Txn<'_>, &mut Option<Reply>) -> TxResult<Reply>,
    ) {
        if op == OP_EXEC {
            self.telemetry.batches.add(1);
        } else {
            self.telemetry.requests.add(1);
        }
        let mut refusal = None;
        let started = Instant::now();
        let (result, report) = self.ctx.atomically_traced(|tx| body(tx, &mut refusal));
        let txn_us = elapsed_us(started);
        if let Some(durable) = self.durable {
            // A commit the log took waits for its own record. Any other call
            // may have read a value whose record is not yet on disk; that
            // record's seq was assigned in the writer's commit, before this
            // call read it, so the newest seq assigned now covers it.
            let seq = report.commit_seq.unwrap_or_else(|| durable.wal.last_seq());
            self.barrier = self.barrier.max(Some(seq));
        }
        match result {
            Ok(reply) => {
                self.emit(&reply, out);
                self.maybe_auto_snapshot();
            }
            Err(err) => {
                let reply = refusal.unwrap_or_else(|| {
                    Reply::err(ErrorCode::Txn, format!("transaction failed: {err}"))
                });
                self.emit(&reply, out);
            }
        }
        self.telemetry
            .observe_op(op, &report, txn_us, elapsed_us(started));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{parse_reply_v2, render_request_v2, write_frame, Frame, MAX_HEADER_BYTES};
    use crate::{KvClient, Value};
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    fn int(v: i64) -> Reply {
        Reply::Value(Value::Int(v))
    }

    /// One request frame out, one reply frame back — error replies included.
    fn say(client: &mut KvClient, request: Request) -> Reply {
        client.send_raw(&render_request_v2(&request)).unwrap();
        client.recv().unwrap()
    }

    /// The requests' frames back to back: one pipelined write.
    fn burst_of(requests: &[Request]) -> Vec<u8> {
        requests.iter().flat_map(render_request_v2).collect()
    }

    fn say_err(client: &mut KvClient, request: Request) -> (ErrorCode, String) {
        match say(client, request) {
            Reply::Err(code, message) => (code, message),
            other => panic!("expected an error reply, got {other:?}"),
        }
    }

    #[test]
    fn server_starts_and_shuts_down_cleanly() {
        let mut server = KvServer::start(ServerConfig::default()).unwrap();
        assert_eq!(server.manager(), ManagerKind::Greedy);
        assert!(server.addr().port() != 0);
        assert!(server.wal().is_none());
        assert_eq!(
            server.store().cells_allocated(),
            0,
            "a fresh server holds no cells"
        );
        server.shutdown();
        server.shutdown(); // idempotent
    }

    #[test]
    fn shutdown_returns_while_a_client_keeps_sending() {
        let mut server = KvServer::start(ServerConfig::default()).unwrap();
        let addr = server.addr();
        let done = Arc::new(AtomicBool::new(false));
        let hammer = {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                // A closed-loop client that never goes idle: its shard's
                // reads keep returning data, so shutdown must be honoured
                // between bursts, not only while the poller is idle.
                let Ok(mut client) = KvClient::connect(addr) else {
                    return;
                };
                while !done.load(Ordering::Relaxed) && client.ping().is_ok() {}
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        server.shutdown(); // must join every shard despite the busy client
        done.store(true, Ordering::Relaxed);
        hammer.join().unwrap();
    }

    #[test]
    fn the_preamble_is_answered_and_every_byte_after_it_is_a_frame() {
        let server = KvServer::start(ServerConfig::default()).unwrap();
        // `connect` writes the preamble and checks the answer...
        let mut client = KvClient::connect(server.addr()).unwrap();
        // ...and everything after it is framed. Pipeline a typed PUT (value
        // containing newlines and NULs), a GET and a QUIT in one write.
        let value = Value::Str("framed \n payload \0 ✓".to_string());
        let burst = burst_of(&[
            Request::Put(5, value.clone()),
            Request::Get(5),
            Request::Quit,
        ]);
        client.send_raw(&burst).unwrap();
        assert_eq!(client.recv().unwrap(), Reply::Ok);
        assert_eq!(client.recv().unwrap(), Reply::Value(value));
        assert_eq!(client.recv().unwrap(), Reply::Bye);
        assert!(client.recv().is_err(), "QUIT closes the connection");
    }

    #[test]
    fn malformed_frame_reports_and_closes() {
        let server = KvServer::start(ServerConfig::default()).unwrap();
        let mut client = KvClient::connect(server.addr()).unwrap();
        client.send_raw(b"!garbage\n").unwrap();
        match client.recv().unwrap() {
            Reply::Err(ErrorCode::Proto, message) => {
                assert!(message.contains("malformed frame"), "{message}")
            }
            other => panic!("expected PROTO error, got {other:?}"),
        }
        assert!(
            client.recv().is_err(),
            "a malformed frame closes the connection"
        );
    }

    /// The request core in miniature: one read chunk appended, one
    /// `Core::execute` call, for a peer that never sends `\n` — before the
    /// preamble and inside a frame header.
    #[test]
    fn an_unterminated_line_is_refused_before_the_buffer_outgrows_one_chunk() {
        const CHUNK: usize = 4096;
        let stm = Stm::default();
        let store = KvStore::new(2);
        let telemetry = Telemetry::new();
        let mut core = Core::new(stm.thread(), &store, &telemetry, None);
        // `execute` works a connection's buffers only; its socket is idle.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (socket, _) = listener.accept().unwrap();
        for greeted in [false, true] {
            let mut conn = Conn::new(socket.try_clone().unwrap());
            if greeted {
                conn.inbuf.extend_from_slice(PREAMBLE);
                assert!(core.execute(&mut conn));
                assert_eq!(conn.outbuf, PREAMBLE);
                conn.outbuf.clear();
            }
            // Under the cap the line may still end: buffered, unanswered.
            conn.inbuf.extend_from_slice(&[b'+'; MAX_HEADER_BYTES]);
            assert!(core.execute(&mut conn));
            assert!(!conn.quit && conn.outbuf.is_empty());
            assert_eq!(conn.inbuf.len(), MAX_HEADER_BYTES);
            for _ in 0..64 {
                if conn.quit {
                    break;
                }
                conn.inbuf.extend_from_slice(&[b'+'; CHUNK]);
                assert!(
                    conn.inbuf.len() <= MAX_HEADER_BYTES + CHUNK,
                    "greeted={greeted}"
                );
                assert!(core.execute(&mut conn));
            }
            assert!(conn.quit, "greeted={greeted}: the peer must be refused");
            assert!(
                conn.inbuf.is_empty(),
                "greeted={greeted}: nothing stays buffered"
            );
            let out = &conn.outbuf;
            let (frame, used) = decode_frame(out).unwrap();
            assert_eq!(used, out.len(), "greeted={greeted}: exactly one frame");
            assert!(
                matches!(parse_reply_v2(frame), Ok(Reply::Err(ErrorCode::Proto, _))),
                "greeted={greeted}: {:?}",
                String::from_utf8_lossy(out)
            );
        }
    }

    #[test]
    fn type_errors_are_coded_and_do_not_abort_the_connection() {
        let server = KvServer::start(ServerConfig::default()).unwrap();
        let mut client = KvClient::connect(server.addr()).unwrap();
        assert_eq!(
            say(&mut client, Request::Put(1, Value::Str("text".into()))),
            Reply::Ok
        );
        let (code, message) = say_err(&mut client, Request::Add(1, 5));
        assert_eq!(code, ErrorCode::Type);
        assert!(message.contains("str"), "{message}");
        assert_eq!(say_err(&mut client, Request::Sum(0, 10)).0, ErrorCode::Type);
        // The connection survives; int arithmetic still works.
        assert_eq!(say(&mut client, Request::Add(2, 5)), int(5));
        assert_eq!(say(&mut client, Request::Quit), Reply::Bye);
    }

    /// An `EXEC` whose second op is not a runnable data op gets one error
    /// naming that op and runs none of its ops; the connection goes on.
    #[test]
    fn a_hostile_exec_executes_nothing_and_keeps_framing() {
        let server = KvServer::start(ServerConfig::default()).unwrap();
        let mut client = KvClient::connect(server.addr()).unwrap();
        let client = &mut client;
        assert_eq!(say(client, Request::Put(3, Value::Int(30))), Reply::Ok);
        let frame = |request: Request| decode_frame(&render_request_v2(&request)).unwrap().0;
        let verb = |name: &str, args: Vec<Frame>| {
            Frame::Array([vec![Frame::Status(name.to_string())], args].concat())
        };
        for (op, code, wanted) in [
            (
                frame(Request::Ping),
                ErrorCode::Batch,
                "PING is not a data op",
            ),
            (
                frame(Request::Exec(vec![Request::Add(3, 1)])),
                ErrorCode::Batch,
                "EXEC is not a data op",
            ),
            (
                verb("FLY", vec![]),
                ErrorCode::Proto,
                "unknown command 'FLY'",
            ),
            (
                verb("GET", vec![Frame::Int(3), Frame::Int(4)]),
                ErrorCode::Arg,
                "GET takes 1 argument, got 2",
            ),
        ] {
            let ops = vec![frame(Request::Add(3, 10)), op, frame(Request::Add(3, 100))];
            let mut bytes = Vec::new();
            write_frame(&mut bytes, &verb("EXEC", vec![Frame::Array(ops)]));
            client.send_raw(&bytes).unwrap();
            let reply = client.recv().unwrap();
            assert_eq!(reply, Reply::err(code, format!("op 1: {wanted}")));
            assert_eq!(say(client, Request::Get(3)), int(30), "{wanted}");
            assert_eq!(say(client, Request::Ping), Reply::Pong);
        }
        let add = Request::Exec(vec![Request::Add(3, 1)]);
        assert_eq!(say(client, add), Reply::Exec(vec![int(31)]));
        assert_eq!(
            say(client, Request::Exec(Vec::new())),
            Reply::Exec(Vec::new())
        );
        assert_eq!(say(client, Request::Quit), Reply::Bye);
    }

    #[test]
    fn pipelined_burst_gets_every_reply_in_order() {
        let server = KvServer::start(ServerConfig::default()).unwrap();
        let mut client = KvClient::connect(server.addr()).unwrap();
        // One write carrying many requests — the pipelined path.
        let mut requests: Vec<Request> = (0..50i64)
            .map(|key| Request::Put(key, Value::Int(key * 2)))
            .collect();
        requests.extend([Request::Sum(0, 49), Request::Ping]);
        client.send_raw(&burst_of(&requests)).unwrap();
        let replies: Vec<Reply> = (0..52).map(|_| client.recv().unwrap()).collect();
        assert!(replies[..50].iter().all(|r| *r == Reply::Ok), "{replies:?}");
        assert_eq!(replies[50], Reply::Sum((0..50i64).map(|k| k * 2).sum(), 50));
        assert_eq!(replies[51], Reply::Pong);
    }

    #[test]
    fn hello_and_v2_frames_pipeline_in_one_burst() {
        let server = KvServer::start(ServerConfig::default()).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        // The preamble line and the first frames in ONE write: the server
        // must answer the line and go on decoding mid-burst.
        let mut burst = PREAMBLE.to_vec();
        burst.extend_from_slice(&burst_of(&[
            Request::Put(1, Value::Bytes(vec![0, 10, 13, 255])),
            Request::Get(1),
            Request::Quit,
        ]));
        writer.write_all(&burst).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "HELLO 2\n");
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        let (frame, used) = decode_frame(&rest).unwrap();
        assert_eq!(parse_reply_v2(frame).unwrap(), Reply::Ok);
        let (frame, used2) = decode_frame(&rest[used..]).unwrap();
        assert_eq!(
            parse_reply_v2(frame).unwrap(),
            Reply::Value(Value::Bytes(vec![0, 10, 13, 255]))
        );
        let (frame, _) = decode_frame(&rest[used + used2..]).unwrap();
        assert_eq!(parse_reply_v2(frame).unwrap(), Reply::Bye);
    }

    #[test]
    fn exec_reply_nests_per_op_replies() {
        let server = KvServer::start(ServerConfig::default()).unwrap();
        let mut client = KvClient::connect(server.addr()).unwrap();
        let burst = burst_of(&[
            Request::Exec(vec![
                Request::Put(1, Value::Str("a".into())),
                Request::Add(2, 7),
                Request::Get(1),
            ]),
            Request::Quit,
        ]);
        client.send_raw(&burst).unwrap();
        assert_eq!(
            client.recv().unwrap(),
            Reply::Exec(vec![
                Reply::Ok,
                int(7),
                Reply::Value(Value::Str("a".into()))
            ])
        );
        assert_eq!(client.recv().unwrap(), Reply::Bye);
    }

    fn temp_wal_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "stm-kv-server-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_server_recovers_its_keyspace_after_restart() {
        let dir = temp_wal_dir("recover");
        let config = ServerConfig {
            wal_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        {
            let mut server = KvServer::start(config.clone()).unwrap();
            let mut client = KvClient::connect(server.addr()).unwrap();
            let client = &mut client;
            assert_eq!(say(client, Request::Put(1, Value::Int(100))), Reply::Ok);
            assert_eq!(say(client, Request::Put(2, Value::Int(200))), Reply::Ok);
            assert_eq!(say(client, Request::Del(2)), Reply::OkN(1));
            assert_eq!(say(client, Request::Add(3, 33)), int(33));
            let metrics = server.metrics_text();
            assert!(metrics.contains("stm_wal_records_total 4"), "{metrics}");
            let snap = say(client, Request::Snapshot);
            assert!(matches!(snap, Reply::Snapshot(..)), "{snap:?}");
            assert_eq!(say(client, Request::Put(4, Value::Int(400))), Reply::Ok);
            assert_eq!(say(client, Request::Quit), Reply::Bye);
            server.shutdown();
        }
        // Restart on the same directory: snapshot + tail replay.
        let server = KvServer::start(config).unwrap();
        let mut client = KvClient::connect(server.addr()).unwrap();
        let client = &mut client;
        assert_eq!(say(client, Request::Get(1)), int(100));
        assert_eq!(
            say(client, Request::Get(2)),
            Reply::Nil,
            "deleted key must stay deleted"
        );
        assert_eq!(say(client, Request::Get(3)), int(33));
        assert_eq!(
            say(client, Request::Get(4)),
            int(400),
            "post-snapshot tail replayed"
        );
        assert_eq!(say(client, Request::Sum(0, 15)), Reply::Sum(533, 3));
        assert_eq!(say(client, Request::Quit), Reply::Bye);
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_snapshot_fires_after_the_configured_record_budget() {
        let dir = temp_wal_dir("autosnap");
        let mut server = KvServer::start(ServerConfig {
            wal_dir: Some(dir.clone()),
            snapshot_every: 10,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut client = KvClient::connect(server.addr()).unwrap();
        for i in 0..25i64 {
            assert_eq!(
                say(&mut client, Request::Put(i % 8, Value::Int(i))),
                Reply::Ok
            );
        }
        let metrics = crate::MetricsSnapshot::parse(server.metrics_text()).unwrap();
        assert!(
            metrics.counter("stm_wal_snapshots_total") >= 2,
            "25 records / snapshot-every-10: {}",
            metrics.text
        );
        assert_eq!(say(&mut client, Request::Quit), Reply::Bye);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
