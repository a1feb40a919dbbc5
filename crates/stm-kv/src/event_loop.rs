//! The server's connection layer: a readiness event loop.
//!
//! N shard threads (default one per core) each own a `minipoll::Poller`
//! and a slab of non-blocking connections; one acceptor thread hands new
//! connections to shards round-robin through a small inbox + waker pair.
//! Per-connection state machines own their read/write buffers and feed the
//! incremental [`process_buffered`] request core:
//!
//! * a mostly-idle connection costs one poller registration, not one
//!   blocked OS thread, so a shard holds thousands of them and a new
//!   connection is served however many others sit open;
//! * a reply that does not fit the socket buffer parks its tail behind
//!   write-readiness (`stm_kv_partial_writes_total` counts these) instead
//!   of blocking the thread in `write_all`;
//! * at most once per tick, a scan of the shard's slab closes every
//!   connection idle for at least
//!   [`ServerConfig::idle_timeout`](crate::ServerConfig::idle_timeout);
//! * shutdown drains gracefully: accepting stops, every connection's
//!   already-received bytes are executed and their replies flushed before
//!   the socket closes.
//!
//! Durability: a burst whose commits were logged holds its replies behind
//! [`Wal::wait_durable`](stm_log::Wal). The shard thread blocks there — one
//! group-commit barrier amortised across every connection that committed
//! in the window — and, when no other shard is flushing, it writes and
//! fsyncs the batch itself: no reply leaves before its record is on disk.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use minipoll::{net as poll_net, Event, Interest, Poller, Token};
use stm_core::sync::Mutex;
use stm_core::{Stm, ThreadCtx};

use crate::proto::{header_end, FrameError};
use crate::server::{process_buffered, ConnState, Durable, ServerConfig};
use crate::store::KvStore;
use crate::telemetry::{elapsed_us, Telemetry};

/// Token of each shard's waker; connection slots start at 1.
const WAKER_TOKEN: Token = Token(0);

/// How long a shard blocks in `wait` with nothing scheduled. The waker
/// makes shutdown and hand-off latency independent of this; it only bounds
/// how late an idle scan can run.
const SHARD_TICK: Duration = Duration::from_millis(50);

/// A shard's tick under `idle_timeout`: an eighth of the timeout, at least
/// 10 ms and at most [`SHARD_TICK`].
fn shard_tick(idle_timeout: Duration) -> Duration {
    if idle_timeout.is_zero() {
        SHARD_TICK
    } else {
        (idle_timeout / 8)
            .max(Duration::from_millis(10))
            .min(SHARD_TICK)
    }
}

/// Events fetched per `wait` call.
const EVENT_BATCH: usize = 1024;

/// Per-read chunk size.
const READ_CHUNK: usize = 16 * 1024;

/// At shutdown, a draining flush retries a full socket for at most this
/// long before giving up on the peer.
const DRAIN_FLUSH_BUDGET: Duration = Duration::from_secs(2);

/// One connection owned by a shard: socket, protocol state machine, and
/// the read/write buffers the state machine works.
struct Conn {
    stream: TcpStream,
    state: ConnState,
    inbuf: Vec<u8>,
    /// Rendered replies not yet accepted by the kernel; `out_pos` marks how
    /// far the flush got (tail = `outbuf[out_pos..]`).
    outbuf: Vec<u8>,
    out_pos: usize,
    /// Registered for write-readiness (a previous flush was partial).
    want_write: bool,
    /// Peer sent EOF; close once the remaining replies are flushed.
    peer_eof: bool,
    last_active: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            state: ConnState::new(),
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            out_pos: 0,
            want_write: false,
            peer_eof: false,
            last_active: Instant::now(),
        }
    }

    fn pending_out(&self) -> bool {
        self.out_pos < self.outbuf.len()
    }
}

/// One shard's hand-off inbox: the acceptor pushes, the shard drains after
/// a wake.
struct Inbox {
    pending: Mutex<VecDeque<TcpStream>>,
    waker: poll_net::Waker,
}

/// The running event-loop serving threads; held by `KvServer` and joined on
/// shutdown.
pub(crate) struct EventLoops {
    acceptor: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
    inboxes: Vec<Arc<Inbox>>,
}

impl EventLoops {
    /// Spawns the acceptor and shard threads. The listener stays blocking —
    /// the acceptor is a dedicated thread, unblocked at shutdown by a
    /// throwaway loopback connection (`KvServer::shutdown`).
    pub(crate) fn start(
        config: &ServerConfig,
        listener: TcpListener,
        stm: Arc<Stm>,
        store: Arc<KvStore>,
        telemetry: Arc<Telemetry>,
        durable: Option<Arc<Durable>>,
        stop: Arc<AtomicBool>,
    ) -> std::io::Result<EventLoops> {
        let shard_count = if config.event_shards == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            config.event_shards
        };

        let mut inboxes = Vec::with_capacity(shard_count);
        let mut shards = Vec::with_capacity(shard_count);
        for shard_id in 0..shard_count {
            let (waker, wake_rx) = poll_net::waker()?;
            let inbox = Arc::new(Inbox {
                pending: Mutex::new(VecDeque::new()),
                waker,
            });
            inboxes.push(Arc::clone(&inbox));
            let poller = Poller::new()?;
            poller.register(&wake_rx, WAKER_TOKEN, Interest::READABLE)?;
            let stm = Arc::clone(&stm);
            let store = Arc::clone(&store);
            let telemetry = Arc::clone(&telemetry);
            let durable = durable.clone();
            let stop = Arc::clone(&stop);
            let idle_timeout = config.idle_timeout;
            shards.push(
                std::thread::Builder::new()
                    .name(format!("stm-kv-shard-{shard_id}"))
                    .spawn(move || {
                        let conns_gauge = telemetry.shard_conns(shard_id);
                        let mut shard = Shard {
                            poller,
                            wake_rx,
                            inbox,
                            conns: Vec::new(),
                            free: Vec::new(),
                            idle_timeout,
                            tick: shard_tick(idle_timeout),
                            last_scan: Instant::now(),
                            store,
                            telemetry,
                            conns_gauge,
                            durable,
                            stop,
                        };
                        let mut ctx = stm.thread();
                        shard.run(&mut ctx);
                    })
                    .expect("spawn shard thread"),
            );
        }

        let acceptor = {
            let telemetry = Arc::clone(&telemetry);
            let stop = Arc::clone(&stop);
            let inboxes = inboxes.clone();
            std::thread::Builder::new()
                .name("stm-kv-acceptor".to_string())
                .spawn(move || {
                    let mut next = 0usize;
                    for stream in listener.incoming() {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        telemetry.connections.add(1);
                        let inbox = &inboxes[next % inboxes.len()];
                        next = next.wrapping_add(1);
                        inbox.pending.lock().push_back(stream);
                        let _ = inbox.waker.wake();
                    }
                    // Stop is set (or the listener died): wake every shard
                    // so each one enters its graceful drain promptly.
                    for inbox in &inboxes {
                        let _ = inbox.waker.wake();
                    }
                })
                .expect("spawn acceptor thread")
        };

        Ok(EventLoops {
            acceptor: Some(acceptor),
            shards,
            inboxes,
        })
    }

    /// Joins the acceptor and every shard. The caller has already set the
    /// stop flag and poked the listener; shards run their graceful drain
    /// (flush pending replies, then close) before exiting.
    pub(crate) fn shutdown(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for inbox in &self.inboxes {
            let _ = inbox.waker.wake();
        }
        for shard in self.shards.drain(..) {
            let _ = shard.join();
        }
    }
}

/// One shard thread's whole world.
struct Shard {
    poller: Poller,
    wake_rx: poll_net::WakeReceiver,
    inbox: Arc<Inbox>,
    /// The connection slab; `Token(slot + 1)` addresses `conns[slot]`.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Connections idle this long are closed; zero keeps them forever.
    idle_timeout: Duration,
    /// The longest `wait`, and the least time between two idle scans.
    tick: Duration,
    /// When `reap_idle` last scanned the slab.
    last_scan: Instant,
    store: Arc<KvStore>,
    telemetry: Arc<Telemetry>,
    /// This shard's open-connections gauge (`stm_kv_shard_conns`).
    conns_gauge: Arc<metrics::Gauge>,
    durable: Option<Arc<Durable>>,
    stop: Arc<AtomicBool>,
}

impl Shard {
    fn run(&mut self, ctx: &mut ThreadCtx<'_>) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let wait_started = Instant::now();
            if self
                .poller
                .wait(&mut events, EVENT_BATCH, Some(self.tick))
                .is_err()
            {
                // A failed wait is unrecoverable for this shard; drain what
                // we have and exit rather than spin on the error.
                self.drain_all(ctx);
                return;
            }
            self.telemetry.note_poll_wait(elapsed_us(wait_started));
            self.telemetry.note_ready_batch(events.len() as u64);
            // Slots closed while handling an earlier event in this batch
            // are skipped (the slab entry is `None`); slots are never
            // *reused* within a batch because accepts only run after it.
            for event in &events {
                if event.token == WAKER_TOKEN {
                    self.wake_rx.drain();
                    continue;
                }
                self.handle_event(ctx, event);
            }
            self.accept_pending(ctx);
            self.reap_idle();
            if self.stop.load(Ordering::Relaxed) {
                self.drain_all(ctx);
                return;
            }
        }
    }

    /// The next connection the acceptor handed over, if any.
    fn next_handoff(&self) -> Option<TcpStream> {
        self.inbox.pending.lock().pop_front()
    }

    /// Takes a handed-over socket into the slab and counts it open. `None` if it cannot be made non-blocking.
    fn adopt(&mut self, stream: TcpStream) -> Option<usize> {
        if stream.set_nonblocking(true).is_err() {
            return None;
        }
        let _ = stream.set_nodelay(true);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        self.conns[slot] = Some(Conn::new(stream));
        self.telemetry.conns_open.add(1);
        self.conns_gauge.add(1);
        Some(slot)
    }

    /// Registers every connection the acceptor handed over since the last
    /// wake, then serves whatever those sockets already carry.
    fn accept_pending(&mut self, ctx: &mut ThreadCtx<'_>) {
        while let Some(stream) = self.next_handoff() {
            let Some(slot) = self.adopt(stream) else {
                continue;
            };
            let conn = self.conns[slot]
                .as_ref()
                .expect("adopted into this slot above");
            if self
                .poller
                .register(&conn.stream, Token(slot + 1), Interest::READABLE)
                .is_err()
            {
                self.close(slot);
                continue;
            }
            // A pipelining client may have sent its burst before the
            // registration existed; a level-triggered poller would catch it
            // on the next wait, but serving it now saves that round trip.
            self.service_read(ctx, slot);
        }
    }

    fn handle_event(&mut self, ctx: &mut ThreadCtx<'_>, event: &Event) {
        let slot = event.token.0 - 1;
        if self.conns.get(slot).is_none_or(Option::is_none) {
            return; // closed earlier in this batch
        }
        if event.writable {
            self.service_write(slot);
        }
        if event.readable && self.conns[slot].is_some() {
            self.service_read(ctx, slot);
        }
    }

    /// Reads everything available, executes every complete request through
    /// the shared core, and flushes the replies (parking the tail behind
    /// write-readiness when the socket fills).
    fn service_read(&mut self, ctx: &mut ThreadCtx<'_>, slot: usize) {
        let mut close_now = false;
        {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            let mut chunk = [0u8; READ_CHUNK];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.peer_eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.inbuf.extend_from_slice(&chunk[..n]);
                        // A line already past its cap is refused below:
                        // stop buffering the peer that never ends it.
                        if matches!(header_end(&conn.inbuf), Err(FrameError::Malformed(_))) {
                            break;
                        }
                    }
                    Err(err) if err.kind() == ErrorKind::WouldBlock => break,
                    Err(err) if err.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        close_now = true;
                        break;
                    }
                }
            }
            conn.last_active = Instant::now();
        }
        if close_now {
            self.close(slot);
            return;
        }
        if self.execute_buffered(ctx, slot) {
            self.service_write(slot);
        }
    }

    /// Runs the request core over the connection's input buffer, rendering
    /// the replies behind whatever is still unflushed, and returns once the
    /// burst's logged commits are durable. Returns `false` when the
    /// connection is gone instead: the log failed, so nothing it rendered
    /// may be acknowledged.
    fn execute_buffered(&mut self, ctx: &mut ThreadCtx<'_>, slot: usize) -> bool {
        let Some(conn) = self.conns[slot].as_mut() else {
            return false;
        };
        let barrier = process_buffered(
            &mut conn.state,
            ctx,
            &self.store,
            &self.telemetry,
            self.durable.as_deref(),
            &mut conn.inbuf,
            &mut conn.outbuf,
        );
        // Group commit: the shard blocks here — leading the fsync itself if
        // no other shard is — until one fsync covers every burst, on any
        // connection, that committed meanwhile.
        if let (Some(durable), Some(barrier)) = (self.durable.as_deref(), barrier) {
            if !durable.wal.wait_durable(barrier) {
                self.close(slot);
                return false;
            }
        }
        true
    }

    /// Pushes the unflushed reply tail into the socket. On `WouldBlock` the
    /// remainder waits for write-readiness; once everything is out the
    /// write interest is dropped again and a finished (`QUIT`/EOF)
    /// connection closes.
    fn service_write(&mut self, slot: usize) {
        let mut close_now = false;
        'flush: {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            while conn.pending_out() {
                match conn.stream.write(&conn.outbuf[conn.out_pos..]) {
                    Ok(0) => {
                        close_now = true;
                        break 'flush;
                    }
                    Ok(n) => conn.out_pos += n,
                    Err(err) if err.kind() == ErrorKind::WouldBlock => {
                        if !conn.want_write {
                            conn.want_write = true;
                            self.telemetry.partial_writes.add(1);
                            let _ = self.poller.reregister(
                                &conn.stream,
                                Token(slot + 1),
                                Interest::BOTH,
                            );
                        }
                        return;
                    }
                    Err(err) if err.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        close_now = true;
                        break 'flush;
                    }
                }
            }
            conn.outbuf.clear();
            conn.out_pos = 0;
            if conn.want_write {
                conn.want_write = false;
                let _ = self
                    .poller
                    .reregister(&conn.stream, Token(slot + 1), Interest::READABLE);
            }
            if conn.state.quit() || conn.peer_eof {
                close_now = true;
            }
        }
        if close_now {
            self.close(slot);
        }
    }

    /// At most once per tick, scans the slab and closes every connection
    /// idle for at least the idle timeout. Does nothing when the timeout is
    /// zero.
    fn reap_idle(&mut self) {
        if self.idle_timeout.is_zero() {
            return;
        }
        let now = Instant::now();
        if now.duration_since(self.last_scan) < self.tick {
            return;
        }
        self.last_scan = now;
        for slot in 0..self.conns.len() {
            let idle = self.conns[slot]
                .as_ref()
                .is_some_and(|conn| now.duration_since(conn.last_active) >= self.idle_timeout);
            if idle {
                self.telemetry.conns_reaped_idle.add(1);
                self.close(slot);
            }
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = self.poller.deregister(&conn.stream);
            self.telemetry.conns_open.sub(1);
            self.conns_gauge.sub(1);
            self.free.push(slot);
        }
    }

    /// Graceful drain at shutdown: for every connection (including ones
    /// still in the inbox), read what the peer already sent, execute it,
    /// flush every pending reply — retrying a full socket briefly — and
    /// close. No in-flight pipelined burst loses its replies.
    fn drain_all(&mut self, ctx: &mut ThreadCtx<'_>) {
        let drain_started = Instant::now();
        // Late hand-offs first: accepted before the stop flag landed.
        while let Some(stream) = self.next_handoff() {
            self.adopt(stream);
        }
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            // One final read pass over what the kernel already buffered.
            let mut chunk = [0u8; READ_CHUNK];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(n) if n > 0 => conn.inbuf.extend_from_slice(&chunk[..n]),
                    Err(err) if err.kind() == ErrorKind::Interrupted => continue,
                    _ => break,
                }
            }
            if !self.execute_buffered(ctx, slot) {
                continue;
            }
            if let Some(conn) = self.conns[slot].as_mut() {
                // Bounded blocking flush: the poller is done, so retry a
                // full socket with short sleeps instead of write-readiness.
                let deadline = Instant::now() + DRAIN_FLUSH_BUDGET;
                while conn.pending_out() && Instant::now() < deadline {
                    match conn.stream.write(&conn.outbuf[conn.out_pos..]) {
                        Ok(0) => break,
                        Ok(n) => conn.out_pos += n,
                        Err(err) if err.kind() == ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(err) if err.kind() == ErrorKind::Interrupted => {}
                        Err(_) => break,
                    }
                }
                let _ = conn.stream.flush();
            }
            self.close(slot);
        }
        self.telemetry.note_drain(elapsed_us(drain_started));
    }
}
