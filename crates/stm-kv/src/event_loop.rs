//! The server's connection layer: a readiness event loop.
//!
//! N shard threads (default one per core) each own a `minipoll::Poller`, a
//! slab of non-blocking connections, and a [`Core`]: the request core with
//! the thread's own `ThreadCtx`, built once when the thread starts from the
//! one [`ServerState`] every shard shares. Shard 0
//! also owns the non-blocking listener, registered in its poller: it
//! accepts whatever the listener holds and deals the sockets round-robin,
//! keeping its own tickets and pushing every other one into the target
//! shard's inbox and waking it. A server runs exactly its shard threads.
//! A connection is its socket, its flush and readiness state, and a
//! [`Wire`]: the byte state the core works (buffers and protocol flags).
//! Every readable event takes one path — read into the wire, then
//! [`Core::execute`] over it, then flush its output:
//!
//! * a readable socket is read through the shard's one buffer until a read
//!   comes back short (`stm_kv_socket_reads_total` counts the calls): the
//!   poller is level-triggered, so whatever arrives later is reported again,
//!   and a burst that arrived in one segment costs one read;
//! * a mostly-idle connection costs one poller registration, not one
//!   blocked OS thread, so a shard holds thousands of them and a new
//!   connection is served however many others sit open;
//! * a reply that does not fit the socket buffer parks its tail behind
//!   write-readiness (`stm_kv_partial_writes_total` counts these) instead
//!   of blocking the thread in `write_all`;
//! * at most once per tick, a scan of the shard's slab closes every
//!   connection idle for at least
//!   [`ServerConfig::idle_timeout`](crate::ServerConfig::idle_timeout);
//! * shutdown drains gracefully: accepting stops, and every connection
//!   takes the readable path once more, so what it already sent is executed
//!   and answered; a reply tail the socket would not take is then finished
//!   by one blocking write under [`DRAIN_FLUSH_BUDGET`] before the socket
//!   closes.
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

use metrics::{Counter, Gauge};
use minipoll::{net as poll_net, Event, Interest, Poller, Token};
use stm_core::sync::Mutex;

use crate::proto::{header_end, FrameError};
use crate::server::{Core, ServerConfig, ServerState, Wire};
use crate::telemetry::elapsed_us;

/// Token of each shard's waker; connection slots start at 1.
const WAKER_TOKEN: Token = Token(0);

/// Token of the listener in shard 0's poller; no slot reaches it.
const LISTENER_TOKEN: Token = Token(usize::MAX);

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

/// Events fetched per `wait` call: the length of each shard's one event
/// buffer, which the kernel fills in place.
const EVENT_BATCH: usize = 1024;

/// Per-read chunk size: the length of each shard's one read buffer.
const READ_CHUNK: usize = 16 * 1024;

/// At shutdown, the write timeout of the one blocking write that finishes a
/// parked reply tail: a peer that takes no byte for this long is given up
/// on.
const DRAIN_FLUSH_BUDGET: Duration = Duration::from_secs(2);

/// One connection owned by a shard: the socket, its flush and readiness
/// state, and the byte state the request core works.
struct Conn {
    stream: TcpStream,
    wire: Wire,
    /// How far the flush of `wire.outbuf` got (tail =
    /// `wire.outbuf[out_pos..]`).
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
            wire: Wire::default(),
            out_pos: 0,
            want_write: false,
            peer_eof: false,
            last_active: Instant::now(),
        }
    }

    fn pending_out(&self) -> bool {
        self.out_pos < self.wire.outbuf.len()
    }
}

/// One shard's hand-off inbox: shard 0 pushes what it accepted, the shard
/// drains it after the events of a wait.
struct Inbox {
    pending: Mutex<VecDeque<TcpStream>>,
    waker: poll_net::Waker,
}

/// Shard 0's accept side: the listener and every shard's inbox, the next
/// ticket indexing them round-robin.
struct Dealer {
    listener: TcpListener,
    inboxes: Vec<Arc<Inbox>>,
    next: usize,
}

/// The running shard threads; held by `KvServer` and joined on shutdown.
pub(crate) struct EventLoops {
    shards: Vec<JoinHandle<()>>,
    inboxes: Vec<Arc<Inbox>>,
}

impl EventLoops {
    /// Builds every shard's poller, registers the listener (made
    /// non-blocking) in shard 0's, and spawns the shard threads.
    pub(crate) fn start(
        config: &ServerConfig,
        listener: TcpListener,
        state: Arc<ServerState>,
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
        let mut pollers = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let (waker, wake_rx) = poll_net::waker()?;
            let poller = Poller::new()?;
            poller.register(&wake_rx, WAKER_TOKEN, Interest::READABLE)?;
            inboxes.push(Arc::new(Inbox {
                pending: Mutex::new(VecDeque::new()),
                waker,
            }));
            pollers.push((poller, wake_rx));
        }
        listener.set_nonblocking(true)?;
        pollers[0]
            .0
            .register(&listener, LISTENER_TOKEN, Interest::READABLE)?;
        let mut dealer = Some(Dealer {
            listener,
            inboxes: inboxes.clone(),
            next: 0,
        });

        let mut shards = Vec::with_capacity(shard_count);
        for (shard_id, (poller, wake_rx)) in pollers.into_iter().enumerate() {
            // Shard 0 takes the dealer; the others get `None`.
            let dealer = dealer.take();
            let inbox = Arc::clone(&inboxes[shard_id]);
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            let idle_timeout = config.idle_timeout;
            shards.push(
                std::thread::Builder::new()
                    .name(format!("stm-kv-shard-{shard_id}"))
                    .spawn(move || {
                        let mut shard = Shard {
                            core: state.core(),
                            poller,
                            wake_rx,
                            inbox,
                            dealer,
                            conns: Vec::new(),
                            free: Vec::new(),
                            chunk: vec![0; READ_CHUNK].into_boxed_slice(),
                            idle_timeout,
                            tick: shard_tick(idle_timeout),
                            last_scan: Instant::now(),
                            conns_gauge: state.telemetry.shard_conns(shard_id),
                            stop,
                        };
                        shard.run();
                    })
                    .expect("spawn shard thread"),
            );
        }

        Ok(EventLoops { shards, inboxes })
    }

    /// Wakes and joins every shard. The caller has already set the stop
    /// flag; shards run their graceful drain (flush pending replies, then
    /// close) before exiting.
    pub(crate) fn shutdown(self) {
        for inbox in &self.inboxes {
            let _ = inbox.waker.wake();
        }
        for shard in self.shards {
            let _ = shard.join();
        }
    }
}

/// One shard thread's whole world.
struct Shard<'a> {
    /// The request core, with this thread's transaction context.
    core: Core<'a>,
    poller: Poller,
    wake_rx: poll_net::WakeReceiver,
    inbox: Arc<Inbox>,
    /// Shard 0's listener and the inboxes it deals to; `None` elsewhere.
    dealer: Option<Dealer>,
    /// The connection slab; `Token(slot + 1)` addresses `conns[slot]`.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// The buffer every socket read of this shard goes through, allocated
    /// and zeroed once.
    chunk: Box<[u8]>,
    /// Connections idle this long are closed; zero keeps them forever.
    idle_timeout: Duration,
    /// The longest `wait`, and the least time between two idle scans.
    tick: Duration,
    /// When `reap_idle` last scanned the slab.
    last_scan: Instant,
    /// This shard's open-connections gauge (`stm_kv_shard_conns`).
    conns_gauge: Arc<Gauge>,
    stop: Arc<AtomicBool>,
}

impl Shard<'_> {
    fn run(&mut self) {
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
                self.drain_all();
                return;
            }
            let telemetry = &self.core.state.telemetry;
            telemetry.note_poll_wait(elapsed_us(wait_started));
            telemetry.note_ready_batch(events.len() as u64);
            // Slots closed while handling an earlier event in this batch
            // are skipped (the slab entry is `None`); slots are never
            // *reused* within a batch because accepted sockets only enter
            // the slab after it, through the inbox.
            for event in &events {
                match event.token() {
                    WAKER_TOKEN => self.wake_rx.drain(),
                    LISTENER_TOKEN => self.deal(),
                    _ => self.handle_event(event),
                }
            }
            self.accept_pending();
            self.reap_idle();
            if self.stop.load(Ordering::Relaxed) {
                self.drain_all();
                return;
            }
        }
    }

    /// Shard 0 only: accepts every connection the listener holds and deals
    /// them round-robin. Its own tickets go into its own inbox, taken in
    /// after this batch; every other one goes into the target shard's inbox,
    /// and that shard is woken.
    fn deal(&mut self) {
        let Some(dealer) = self.dealer.as_mut() else {
            return;
        };
        loop {
            match dealer.listener.accept() {
                Ok((stream, _)) => {
                    self.core.state.telemetry.connections.add(1);
                    let ticket = dealer.next % dealer.inboxes.len();
                    dealer.next = dealer.next.wrapping_add(1);
                    let inbox = &dealer.inboxes[ticket];
                    inbox.pending.lock().push_back(stream);
                    if ticket != 0 {
                        let _ = inbox.waker.wake();
                    }
                }
                Err(err) if err.kind() == ErrorKind::Interrupted => {}
                // `WouldBlock` empties the backlog; any other error (out of
                // descriptors, say) is reported again on the next wait.
                Err(_) => return,
            }
        }
    }

    /// The next connection dealt to this shard, if any.
    fn next_handoff(&self) -> Option<TcpStream> {
        self.inbox.pending.lock().pop_front()
    }

    /// Takes a dealt socket into the slab and counts it open. `None` if it cannot be made non-blocking.
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
        self.core.state.telemetry.conns_open.add(1);
        self.conns_gauge.add(1);
        Some(slot)
    }

    /// Registers every connection dealt to this shard since the last wait,
    /// then serves whatever those sockets already carry.
    fn accept_pending(&mut self) {
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
            self.service_read(slot);
        }
    }

    fn handle_event(&mut self, event: &Event) {
        let slot = event.token().0 - 1;
        if self.conns.get(slot).is_none_or(Option::is_none) {
            return; // closed earlier in this batch
        }
        if event.is_writable() {
            self.service_write(slot);
        }
        if event.is_readable() {
            self.service_read(slot);
        }
    }

    /// The one readable path: reads what the socket holds, executes every
    /// complete request through the request core (waiting out the burst's
    /// durability barrier), and flushes the replies, parking the tail
    /// behind write-readiness when the socket fills. A failed read or a
    /// failed log closes the connection without a reply.
    fn service_read(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let read = read_burst(
            conn,
            &mut self.chunk,
            &self.core.state.telemetry.socket_reads,
        );
        conn.last_active = Instant::now();
        if read.is_err() || !self.core.execute(&mut conn.wire) {
            self.close(slot);
            return;
        }
        self.service_write(slot);
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
                match conn.stream.write(&conn.wire.outbuf[conn.out_pos..]) {
                    Ok(0) => {
                        close_now = true;
                        break 'flush;
                    }
                    Ok(n) => conn.out_pos += n,
                    Err(err) if err.kind() == ErrorKind::WouldBlock => {
                        if !conn.want_write {
                            conn.want_write = true;
                            self.core.state.telemetry.partial_writes.add(1);
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
            conn.wire.outbuf.clear();
            conn.out_pos = 0;
            if conn.want_write {
                conn.want_write = false;
                let _ = self
                    .poller
                    .reregister(&conn.stream, Token(slot + 1), Interest::READABLE);
            }
            if conn.wire.quit || conn.peer_eof {
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
                self.core.state.telemetry.conns_reaped_idle.add(1);
                self.close(slot);
            }
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = self.poller.deregister(&conn.stream);
            self.core.state.telemetry.conns_open.sub(1);
            self.conns_gauge.sub(1);
            self.free.push(slot);
        }
    }

    /// Graceful drain at shutdown: every connection, the ones still in the
    /// inbox included, takes the readable path once more ([`Shard::service_read`]:
    /// what the peer already sent is read, executed and flushed). A reply
    /// tail the socket would not take is then finished by one blocking
    /// `write_all` under a [`DRAIN_FLUSH_BUDGET`] write timeout, and the
    /// connection closes. No in-flight pipelined burst loses its replies to
    /// a peer that reads them.
    fn drain_all(&mut self) {
        let drain_started = Instant::now();
        // Late hand-offs first: dealt before the stop flag landed.
        while let Some(stream) = self.next_handoff() {
            self.adopt(stream);
        }
        for slot in 0..self.conns.len() {
            self.service_read(slot);
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            if conn.pending_out()
                && conn.stream.set_nonblocking(false).is_ok()
                && conn
                    .stream
                    .set_write_timeout(Some(DRAIN_FLUSH_BUDGET))
                    .is_ok()
            {
                let _ = conn.stream.write_all(&conn.wire.outbuf[conn.out_pos..]);
            }
            self.close(slot);
        }
        self.core
            .state
            .telemetry
            .note_drain(elapsed_us(drain_started));
    }
}

/// Reads what `conn`'s socket holds into its input buffer through `chunk`,
/// counting every `read` call in `reads`. Stops at a short read — the
/// poller is level-triggered, so bytes that arrive later are reported again
/// — and at `WouldBlock`, at EOF (which sets `peer_eof`), and once the
/// buffered header line is past its cap. Errs when the socket failed.
fn read_burst(conn: &mut Conn, chunk: &mut [u8], reads: &Counter) -> std::io::Result<()> {
    loop {
        reads.add(1);
        match conn.stream.read(chunk) {
            Ok(0) => {
                conn.peer_eof = true;
                return Ok(());
            }
            Ok(n) => {
                conn.wire.inbuf.extend_from_slice(&chunk[..n]);
                // A line already past its cap is refused by the request
                // core: stop buffering the peer that never ends it.
                if n < chunk.len()
                    || matches!(header_end(&conn.wire.inbuf), Err(FrameError::Malformed(_)))
                {
                    return Ok(());
                }
            }
            Err(err) if err.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(err) if err.kind() == ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
}
