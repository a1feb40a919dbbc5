//! The load generator: raw protocol-v2 connections driven open loop (sent
//! when due, sojourn timed from the due time) or closed loop (a fixed
//! window in flight), one thread per connection.
//!
//! Sockets are non-blocking throughout. A generator with nothing to do
//! until its next due time blocks in `ppoll` when that is more than
//! 500 µs away and otherwise polls with `yield_now`; it never spins
//! bare, because on a 2-core host that would take the processor from the
//! server threads it is measuring.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::Duration;

use stm_cm::ManagerKind;
use stm_kv::proto::{decode_frame, parse_reply_v2, FrameError, Reply};
use stm_kv::{KvServer, ServerConfig, Value};
use stm_log::FsyncPolicy;

use crate::gen::{wire_key, Meta, Model, Op, Stream, Workload, RANGE_SPAN};
use crate::stats::{Clock, Hist};
use crate::sys;

/// Requests one connection may have in flight in the open loop. A request
/// that falls due beyond this is held until replies drain; its sojourn still
/// runs from its due time, so the wait is counted, not hidden.
pub const IN_FLIGHT_CAP: usize = 1024;
/// Window of the closed-loop **sat** phase.
pub const SAT_WINDOW: usize = 32;
/// A connection that hears nothing for this long with requests in flight
/// gives up on them (they count as failed).
const STALL: Duration = Duration::from_secs(10);
/// Block in `ppoll` only when the next due time is further away than this…
const BLOCK_BEYOND_NS: u64 = 500_000;
/// …and wake this much early, polling the rest: on this VM a `ppoll` timeout
/// fires 70 µs late at the median and 260 µs late at p99.
const WAKE_EARLY_NS: u64 = 300_000;

/// The server every wire workload measures: the shipped defaults with the
/// greedy manager, durable or not. No serve mode is named here, so this
/// measures whatever `ServerConfig::default()` ships.
pub fn start_server(wal_dir: Option<PathBuf>) -> io::Result<KvServer> {
    KvServer::start(ServerConfig {
        manager: ManagerKind::Greedy,
        wal_dir,
        fsync: FsyncPolicy::EveryCommit,
        ..Default::default()
    })
}

/// One raw v2 connection.
pub struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    consumed: usize,
    outbuf: Vec<u8>,
    written: usize,
    /// Read scratch, kept so a read does not zero 64 KiB of stack each time.
    chunk: Box<[u8; 1 << 16]>,
}

impl Conn {
    /// Connects and negotiates v2 with the text `HELLO 2` line.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(b"HELLO 2\n")?;
        let mut reply = Vec::new();
        let mut byte = [0u8; 1];
        while reply.last() != Some(&b'\n') {
            stream.read_exact(&mut byte)?;
            reply.push(byte[0]);
        }
        if reply != b"HELLO 2\n" {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("handshake answered {:?}", String::from_utf8_lossy(&reply)),
            ));
        }
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            inbuf: Vec::with_capacity(1 << 16),
            consumed: 0,
            outbuf: Vec::with_capacity(1 << 16),
            written: 0,
            chunk: Box::new([0; 1 << 16]),
        })
    }

    fn queue(&mut self, bytes: &[u8]) {
        self.outbuf.extend_from_slice(bytes);
    }

    fn has_output(&self) -> bool {
        self.written < self.outbuf.len()
    }

    /// Writes as much queued output as the socket takes.
    fn flush_some(&mut self) -> io::Result<()> {
        while self.has_output() {
            match self.stream.write(&self.outbuf[self.written..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(err) if err.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(err) if err.kind() == ErrorKind::Interrupted => {}
                Err(err) => return Err(err),
            }
        }
        self.outbuf.clear();
        self.written = 0;
        Ok(())
    }

    /// Reads what the socket holds; `Ok(0)` when it holds nothing.
    fn fill(&mut self) -> io::Result<usize> {
        if self.consumed > 0 && self.consumed == self.inbuf.len() {
            self.inbuf.clear();
            self.consumed = 0;
        }
        let mut total = 0;
        loop {
            match self.stream.read(&mut self.chunk[..]) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.inbuf.extend_from_slice(&self.chunk[..n]);
                    total += n;
                    if n < self.chunk.len() {
                        return Ok(total);
                    }
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => return Ok(total),
                Err(err) if err.kind() == ErrorKind::Interrupted => {}
                Err(err) => return Err(err),
            }
        }
    }

    /// The next complete reply already buffered.
    fn next_reply(&mut self) -> io::Result<Option<Reply>> {
        match decode_frame(&self.inbuf[self.consumed..]) {
            Ok((frame, used)) => {
                self.consumed += used;
                if self.consumed > 1 << 20 {
                    self.inbuf.drain(..self.consumed);
                    self.consumed = 0;
                }
                let reply = parse_reply_v2(frame)
                    .map_err(|message| io::Error::new(ErrorKind::InvalidData, message))?;
                Ok(Some(reply))
            }
            Err(FrameError::Incomplete) => Ok(None),
            Err(FrameError::Malformed(message)) => {
                Err(io::Error::new(ErrorKind::InvalidData, message))
            }
        }
    }

    fn wait(&self, timeout: Duration) {
        sys::wait_ready(self.stream.as_raw_fd(), self.has_output(), timeout);
    }

    /// Sends one request and waits for its reply (depth 1).
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.queue(request);
        loop {
            self.flush_some()?;
            self.fill()?;
            if let Some(reply) = self.next_reply()? {
                return Ok(reply);
            }
            self.wait(STALL);
        }
    }
}

/// How strictly a reply is checked.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Frame, arity and type only (timed runs: the generator must stay cheap).
    Shape,
    /// Exact equality with the connection's sequential model (traced run,
    /// where a single connection owns every key it reads).
    Exact,
}

/// Whether `reply` answers the request `meta` correctly.
pub fn reply_ok(
    workload: Workload,
    meta: &Meta,
    reply: &Reply,
    model: &Model,
    check: Check,
) -> bool {
    let typed = |value: &Value| match workload {
        Workload::WireDurablePut => matches!(value, Value::Bytes(_)),
        _ => matches!(value, Value::Int(_)),
    };
    let shape = match (meta.op, reply) {
        (Op::Get, Reply::Value(value)) => typed(value),
        // Only `wire_scan_churn` ever deletes.
        (Op::Get, Reply::Nil) => workload == Workload::WireScanChurn,
        (Op::Put, Reply::Ok) => true,
        (Op::Del, Reply::OkN(n)) => (0..=1).contains(n),
        (Op::Range, Reply::Range(pairs)) => {
            let lo = wire_key(meta.key);
            pairs.len() <= RANGE_SPAN as usize
                && pairs.windows(2).all(|w| w[0].0 < w[1].0)
                && pairs.iter().all(|(key, value)| {
                    (lo..lo + i64::from(RANGE_SPAN)).contains(key) && typed(value)
                })
        }
        _ => false,
    };
    if !shape || check == Check::Shape {
        return shape;
    }
    match (meta.op, reply) {
        (Op::Get, Reply::Value(value)) => model.get(meta.key).as_ref() == Some(value),
        (Op::Get, Reply::Nil) => !model.is_present(meta.key),
        (Op::Del, Reply::OkN(n)) => *n == i64::from(model.is_present(meta.key)),
        (Op::Range, Reply::Range(pairs)) => {
            *pairs == model.range(meta.key, meta.key + RANGE_SPAN - 1)
        }
        _ => true,
    }
}

/// One connection with everything its thread owns.
pub struct Gen {
    pub conn: Conn,
    pub stream: Stream,
    pub model: Model,
    /// Next stream position (taken modulo the stream's length).
    pub cursor: usize,
}

#[derive(Clone, Copy)]
pub enum Shape {
    /// Poisson arrivals from the stream's gaps, timed from the due time.
    Open,
    /// `window` requests in flight, timed from the send.
    Closed { window: usize },
}

#[derive(Clone, Copy)]
pub struct Phase {
    pub shape: Shape,
    pub duration: Duration,
}

/// What one connection saw in one phase.
pub struct PhaseResult {
    pub attempted: u64,
    pub failed: u64,
    /// Sojourn from the due time (open) or round trip from the send (closed).
    pub latency: Hist,
    /// Correct replies that arrived before the phase's end (goodput).
    pub done: u64,
    /// How late each request was sent against its due time (open only).
    pub lag: Hist,
    pub acked_puts: u64,
    pub error: Option<String>,
}

fn run_conn(workload: Workload, gen: &mut Gen, phase: Phase, clock: Clock) -> PhaseResult {
    let start = clock.now_ns();
    let duration_ns = phase.duration.as_nanos() as u64;
    let end = start + duration_ns;
    let mut result = PhaseResult {
        attempted: 0,
        failed: 0,
        latency: Hist::new(),
        done: 0,
        lag: Hist::new(),
        acked_puts: 0,
        error: None,
    };
    let len = gen.stream.len();
    let mut in_flight: VecDeque<(usize, u64)> = VecDeque::with_capacity(IN_FLIGHT_CAP);
    let mut next_due = start + u64::from(gen.stream.meta[gen.cursor % len].gap_ns);
    let mut last_progress = start;

    let outcome: io::Result<()> = (|| loop {
        let now = clock.now_ns();
        let mut queued = false;
        match phase.shape {
            Shape::Open => {
                while next_due <= now && next_due < end {
                    let at = gen.cursor % len;
                    if in_flight.len() >= IN_FLIGHT_CAP {
                        break;
                    }
                    result.attempted += 1;
                    gen.conn.queue(gen.stream.request(at));
                    in_flight.push_back((at, next_due));
                    result.lag.record(now - next_due);
                    queued = true;
                    gen.cursor += 1;
                    next_due += u64::from(gen.stream.meta[gen.cursor % len].gap_ns);
                }
            }
            Shape::Closed { window } => {
                while in_flight.len() < window && now < end {
                    let at = gen.cursor % len;
                    result.attempted += 1;
                    gen.conn.queue(gen.stream.request(at));
                    in_flight.push_back((at, now));
                    gen.cursor += 1;
                    queued = true;
                }
            }
        }
        gen.conn.flush_some()?;

        let read = gen.conn.fill()?;
        if read > 0 {
            let arrived = clock.now_ns();
            last_progress = arrived;
            while let Some(reply) = gen.conn.next_reply()? {
                let Some((at, since)) = in_flight.pop_front() else {
                    return Err(io::Error::new(
                        ErrorKind::InvalidData,
                        "reply without a request",
                    ));
                };
                let meta = gen.stream.meta[at];
                if reply_ok(workload, &meta, &reply, &gen.model, Check::Shape) {
                    gen.model.apply(&meta);
                    result.acked_puts += u64::from(meta.op == Op::Put);
                    result.latency.record(arrived - since);
                    result.done += u64::from(arrived <= end);
                } else {
                    result.failed += 1;
                }
            }
        }

        let sending_done = match phase.shape {
            Shape::Open => next_due >= end,
            Shape::Closed { .. } => now >= end,
        };
        if sending_done && in_flight.is_empty() && !gen.conn.has_output() {
            return Ok(());
        }
        if !in_flight.is_empty() && now.saturating_sub(last_progress) > STALL.as_nanos() as u64 {
            return Err(io::Error::new(ErrorKind::TimedOut, "no reply for 10 s"));
        }
        if read == 0 && !queued {
            let idle_until = match phase.shape {
                Shape::Open if !sending_done => next_due,
                _ => now + 100_000_000,
            };
            let away = idle_until.saturating_sub(now);
            if away > BLOCK_BEYOND_NS {
                gen.conn.wait(Duration::from_nanos(away - WAKE_EARLY_NS));
            } else {
                std::thread::yield_now();
            }
        }
    })();

    if let Err(err) = outcome {
        result.failed += in_flight.len() as u64;
        result.error = Some(err.to_string());
    }
    result
}

/// Runs one phase on every connection at once (one thread each, released
/// together), calling `sample` on this thread every 10 ms meanwhile.
pub fn run_phase(
    workload: Workload,
    gens: &mut [Gen],
    phase: Phase,
    clock: Clock,
    mut sample: impl FnMut(),
) -> Vec<PhaseResult> {
    let barrier = Barrier::new(gens.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = gens
            .iter_mut()
            .map(|gen| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    run_conn(workload, gen, phase, clock)
                })
            })
            .collect();
        while !handles.iter().all(|handle| handle.is_finished()) {
            sample();
            std::thread::sleep(Duration::from_millis(10));
        }
        handles
            .into_iter()
            .map(|handle| handle.join().expect("generator thread panicked"))
            .collect()
    })
}

/// Sends a whole stream once, pipelined, checking every reply is `OK` and
/// applying it to `model` (set-up prefill).
pub fn send_all(conn: &mut Conn, stream: &Stream, model: &mut Model) -> io::Result<()> {
    let (mut sent, mut acked) = (0usize, 0usize);
    while acked < stream.len() {
        while sent < stream.len() && sent - acked < IN_FLIGHT_CAP {
            conn.queue(stream.request(sent));
            sent += 1;
        }
        conn.flush_some()?;
        if conn.fill()? == 0 {
            conn.wait(STALL);
        }
        while let Some(reply) = conn.next_reply()? {
            if reply != Reply::Ok {
                return Err(io::Error::new(
                    ErrorKind::InvalidData,
                    format!("prefill PUT answered {reply:?}"),
                ));
            }
            model.apply(&stream.meta[acked]);
            acked += 1;
        }
    }
    Ok(())
}

/// Reads the whole keyspace back in `RANGE` chunks and counts the keys whose
/// presence or value differs from `model`; returns (keys compared, wrong).
pub fn verify_keyspace(
    conn: &mut Conn,
    workload: Workload,
    model: &Model,
    conns: usize,
) -> io::Result<(u64, u64)> {
    // 1,024 keys of 256-byte blobs is a 300 KB reply; integers are small.
    let chunk: u32 = if workload.durable() { 1_024 } else { 8_192 };
    let keys = workload.keyspace(conns);
    let mut wrong = 0u64;
    let mut lo = 0u32;
    while lo < keys {
        let hi = (lo + chunk - 1).min(keys - 1);
        let request = stm_kv::proto::render_request_v2(&stm_kv::proto::Request::Range(
            wire_key(lo),
            wire_key(hi),
        ));
        let reply = conn.roundtrip(&request)?;
        let Reply::Range(got) = reply else {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("RANGE answered {reply:?}"),
            ));
        };
        let want = model.range(lo, hi);
        if got != want {
            // Count differing keys, not differing chunks.
            let mut got = got.into_iter().peekable();
            let mut want = want.into_iter().peekable();
            loop {
                match (got.peek(), want.peek()) {
                    (None, None) => break,
                    (Some(g), Some(w)) if g.0 == w.0 => {
                        wrong += u64::from(g.1 != w.1);
                        got.next();
                        want.next();
                    }
                    (Some(g), Some(w)) if g.0 < w.0 => {
                        wrong += 1;
                        got.next();
                    }
                    (Some(_), None) => {
                        wrong += 1;
                        got.next();
                    }
                    _ => {
                        wrong += 1;
                        want.next();
                    }
                }
            }
        }
        lo = hi + 1;
    }
    Ok((u64::from(keys), wrong))
}
