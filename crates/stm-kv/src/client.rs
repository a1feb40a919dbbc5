//! A small blocking client for the `stm-kv` protocol.
//!
//! One [`KvClient`] owns one TCP connection and issues one request at a
//! time (batches are pipelined: all batch frames are written in one
//! syscall, then all replies are read back). [`KvClient::connect`] writes
//! the `HELLO 2` preamble and checks the server's answer; everything after
//! it is frames — typed values, binary-safe framing, coded errors.
//! [`KvClient::send_raw`] and [`KvClient::recv`] are the level below the
//! typed methods, for pipelined bursts and for tests that torture the
//! framing.
//!
//! Failures are structured: every method returns [`KvError`], which
//! separates transport problems ([`KvError::Io`]), framing violations
//! ([`KvError::Protocol`]), server-reported failures with their
//! machine-readable [`ErrorCode`] ([`KvError::Server`]) and client-side
//! type mismatches from the typed getters ([`KvError::Type`]) — no more
//! fishing categories out of one opaque error string.
//!
//! The client is used by the integration tests, the examples, and the
//! closed-loop network load generator in `stm-bench`.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use metrics::{HistogramSnapshot, BUCKETS};

use crate::proto::{
    decode_frame, parse_reply_v2, render_request_v2, ErrorCode, Frame, FrameError, Reply, Request,
    MAX_HEADER_BYTES, PREAMBLE,
};
use crate::Value;

/// A structured client-side error.
#[derive(Debug)]
pub enum KvError {
    /// The transport failed (connect, read, write, unexpected EOF).
    Io(io::Error),
    /// The peer violated the reply grammar (malformed frame, reply that does
    /// not match the request, a refused preamble).
    Protocol(String),
    /// The server reported a failure, with its machine-readable code.
    Server {
        /// Error category.
        code: ErrorCode,
        /// Human-readable server message.
        message: String,
    },
    /// A typed getter found a value of a different kind (`get_int` on a
    /// `Str`, ...).
    Type {
        /// The kind the caller asked for.
        expected: &'static str,
        /// The kind actually stored.
        found: &'static str,
    },
}

impl KvError {
    /// The server-reported error code, when this is a server failure.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            KvError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }

    fn unexpected(reply: &Reply, what: &str) -> KvError {
        KvError::Protocol(format!("unexpected reply {reply:?} to {what}"))
    }
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::Io(err) => write!(f, "i/o error: {err}"),
            KvError::Protocol(message) => write!(f, "protocol violation: {message}"),
            KvError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
            KvError::Type { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for KvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KvError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for KvError {
    fn from(err: io::Error) -> Self {
        KvError::Io(err)
    }
}

/// Result alias for client operations.
pub type KvResult<T> = Result<T, KvError>;

/// A data operation inside a [`KvClient::batch`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    /// Read one key.
    Get(i64),
    /// Store a value.
    Put(i64, Value),
    /// Remove a key.
    Del(i64),
    /// Add a delta to a key's integer value.
    Add(i64, i64),
    /// Keys and values in `lo..=hi`.
    Range(i64, i64),
    /// Sum + count of the integer values in `lo..=hi`.
    Sum(i64, i64),
}

impl BatchOp {
    fn to_request(&self) -> Request {
        match self {
            BatchOp::Get(k) => Request::Get(*k),
            BatchOp::Put(k, v) => Request::Put(*k, v.clone()),
            BatchOp::Del(k) => Request::Del(*k),
            BatchOp::Add(k, d) => Request::Add(*k, *d),
            BatchOp::Range(lo, hi) => Request::Range(*lo, *hi),
            BatchOp::Sum(lo, hi) => Request::Sum(*lo, *hi),
        }
    }
}

/// A fluent builder for an atomic `BEGIN`/`EXEC` batch.
///
/// ```no_run
/// # use stm_kv::{KvClient, Value};
/// # let mut client = KvClient::connect("127.0.0.1:7878").unwrap();
/// let replies = client
///     .batch_builder()
///     .put(1, "typed")
///     .add(2, 5)
///     .get(1)
///     .sum(0, 100)
///     .run()
///     .unwrap();
/// ```
#[derive(Debug)]
pub struct BatchBuilder<'a> {
    client: &'a mut KvClient,
    ops: Vec<BatchOp>,
}

impl<'a> BatchBuilder<'a> {
    /// Queues a read of `key`.
    pub fn get(mut self, key: i64) -> Self {
        self.ops.push(BatchOp::Get(key));
        self
    }

    /// Queues a typed store at `key`.
    pub fn put(mut self, key: i64, value: impl Into<Value>) -> Self {
        self.ops.push(BatchOp::Put(key, value.into()));
        self
    }

    /// Queues a removal of `key`.
    pub fn del(mut self, key: i64) -> Self {
        self.ops.push(BatchOp::Del(key));
        self
    }

    /// Queues an integer add at `key`.
    pub fn add(mut self, key: i64, delta: i64) -> Self {
        self.ops.push(BatchOp::Add(key, delta));
        self
    }

    /// Queues a range read over `lo..=hi`.
    pub fn range(mut self, lo: i64, hi: i64) -> Self {
        self.ops.push(BatchOp::Range(lo, hi));
        self
    }

    /// Queues an integer sum over `lo..=hi`.
    pub fn sum(mut self, lo: i64, hi: i64) -> Self {
        self.ops.push(BatchOp::Sum(lo, hi));
        self
    }

    /// The ops queued so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing is queued yet.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Executes the queued ops as one atomic transaction, returning one
    /// reply per op.
    ///
    /// # Errors
    ///
    /// Everything [`KvClient::batch`] reports.
    pub fn run(self) -> KvResult<Vec<Reply>> {
        let BatchBuilder { client, ops } = self;
        client.batch(&ops)
    }
}

/// The parsed payload of a `METRICS` reply — the server's one statistics
/// surface: its Prometheus-style text exposition folded into typed lookups.
///
/// Samples are keyed by their full rendered series — metric name plus
/// label set exactly as exposed, e.g.
/// `stm_aborts_total{cause="killed_by_enemy"}`. Histogram series can be
/// reassembled back into a [`HistogramSnapshot`] — the very type the
/// server records into — so client-side quantiles agree with server-side
/// accounting bucket-for-bucket.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// The raw exposition text, byte-for-byte as served.
    pub text: String,
    samples: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// Parses an exposition text: `#`-comment lines are skipped, every
    /// other non-empty line must read `series value`.
    ///
    /// # Errors
    ///
    /// [`KvError::Protocol`] on a malformed sample line.
    pub fn parse(text: String) -> KvResult<MetricsSnapshot> {
        let mut samples = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (series, raw) = line
                .rsplit_once(' ')
                .ok_or_else(|| proto_err(format!("malformed metrics line '{line}'")))?;
            // Gauges are signed on the wire; a (never expected) negative
            // sample clamps to zero rather than failing the whole scrape.
            let value = raw
                .parse::<u64>()
                .or_else(|_| raw.parse::<i64>().map(|v| v.max(0) as u64))
                .map_err(|_| proto_err(format!("malformed metrics value '{line}'")))?;
            samples.insert(series.to_string(), value);
        }
        Ok(MetricsSnapshot { text, samples })
    }

    /// The value of one series, by its full rendered name (labels
    /// included, in exposition order).
    pub fn value(&self, series: &str) -> Option<u64> {
        self.samples.get(series).copied()
    }

    /// Sum of every sample of one metric name across its label sets
    /// (series named exactly `name` or `name{...}`; a histogram's
    /// `_bucket`/`_sum`/`_count` series are distinct names and do not fold
    /// in).
    pub fn counter(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter_map(|(series, &value)| series_labels(series, name).map(|_| value))
            .sum()
    }

    /// Every parsed sample, sorted by series name — the stable surface the
    /// exposition-stability tests pin down.
    pub fn samples(&self) -> impl Iterator<Item = (&str, u64)> {
        self.samples.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Reassembles histogram `base` into a [`HistogramSnapshot`],
    /// de-cumulating its `_bucket{le=...}` samples.
    ///
    /// An unlabelled `base` (`"stm_kv_op_latency_us"`) folds every label
    /// set of that name together; a labelled one
    /// (`r#"stm_kv_op_latency_us{op="GET"}"#`) selects exactly that
    /// series. Returns `None` when no matching `_count` sample exists.
    pub fn histogram(&self, base: &str) -> Option<HistogramSnapshot> {
        let (name, want) = match base.split_once('{') {
            Some((name, labels)) => (name, labels.trim_end_matches('}')),
            None => (base, ""),
        };
        let bucket_name = format!("{name}_bucket");
        let sum_name = format!("{name}_sum");
        let count_name = format!("{name}_count");

        // Cumulative bucket samples, grouped per label set (each set has
        // its own cumulative sequence; the sets only add up after
        // de-cumulation). The `+Inf` bucket aliases the top finite bucket
        // when that bucket is populated — both land on index BUCKETS-1
        // with equal cumulative values, so the duplicate de-cumulates to
        // zero extra mass.
        let mut per_set: BTreeMap<&str, Vec<(usize, u64)>> = BTreeMap::new();
        for (series, &value) in &self.samples {
            let Some(labels) = series_labels(series, &bucket_name) else {
                continue;
            };
            let Some((own, le)) = split_le_label(labels) else {
                continue;
            };
            if !want.is_empty() && own != want {
                continue;
            }
            let Some(index) = le_bucket_index(le) else {
                continue;
            };
            per_set.entry(own).or_default().push((index, value));
        }
        let mut buckets = [0u64; BUCKETS];
        for (_, mut cumulatives) in per_set {
            cumulatives.sort_unstable();
            let mut previous = 0u64;
            for (index, cumulative) in cumulatives {
                buckets[index] += cumulative.saturating_sub(previous);
                previous = previous.max(cumulative);
            }
        }

        let mut sum = 0u64;
        let mut count = 0u64;
        let mut found = false;
        for (series, &value) in &self.samples {
            if let Some(own) = series_labels(series, &count_name) {
                if want.is_empty() || own == want {
                    count += value;
                    found = true;
                }
            } else if let Some(own) = series_labels(series, &sum_name) {
                if want.is_empty() || own == want {
                    sum = sum.wrapping_add(value);
                }
            }
        }
        if !found {
            return None;
        }
        Some(HistogramSnapshot {
            buckets,
            count,
            sum,
        })
    }
}

/// The label body of `series` when its metric name is exactly `name`:
/// `Some("")` for a bare `name`, `Some(inner)` for `name{inner}`, `None`
/// for any other metric (including longer names sharing the prefix).
fn series_labels<'a>(series: &'a str, name: &str) -> Option<&'a str> {
    let rest = series.strip_prefix(name)?;
    if rest.is_empty() {
        Some("")
    } else {
        rest.strip_prefix('{')?.strip_suffix('}')
    }
}

/// Splits a `_bucket` label body into (own labels, le value) — `le`
/// renders last, so everything before it belongs to the series itself.
fn split_le_label(labels: &str) -> Option<(&str, &str)> {
    let start = labels.rfind("le=\"")?;
    let le = labels[start + 4..].strip_suffix('"')?;
    Some((labels[..start].trim_end_matches(','), le))
}

/// Maps an `le` upper bound back to its log2 bucket index; `+Inf` and
/// `u64::MAX` are both the overflow bucket.
fn le_bucket_index(le: &str) -> Option<usize> {
    if le == "+Inf" {
        return Some(BUCKETS - 1);
    }
    let bound: u64 = le.parse().ok()?;
    // Valid bounds are 2^i - 1 (0, 1, 3, 7, ...) or u64::MAX.
    if !bound.wrapping_add(1).is_power_of_two() && bound != u64::MAX {
        return None;
    }
    Some((bound.wrapping_add(1).trailing_zeros() as usize).min(BUCKETS - 1))
}

/// A blocking connection to an `stm-kv` server.
#[derive(Debug)]
pub struct KvClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Bytes read off the socket but not yet consumed by a frame.
    pending: Vec<u8>,
}

fn proto_err(message: impl Into<String>) -> KvError {
    KvError::Protocol(message.into())
}

impl KvClient {
    /// Connects, writes the `HELLO 2` preamble and checks that the server
    /// answered it byte-for-byte.
    ///
    /// # Errors
    ///
    /// Propagates connection errors; [`KvError::Protocol`] carries whatever
    /// the peer answered instead of the preamble.
    pub fn connect(addr: impl ToSocketAddrs) -> KvResult<KvClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = KvClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            pending: Vec::new(),
        };
        client.send_raw(PREAMBLE)?;
        let mut answer = Vec::new();
        (&mut client.reader)
            .take(MAX_HEADER_BYTES as u64)
            .read_until(b'\n', &mut answer)?;
        if answer != PREAMBLE {
            return Err(proto_err(format!(
                "the preamble was answered with {:?}",
                String::from_utf8_lossy(&answer)
            )));
        }
        Ok(client)
    }

    /// Writes `bytes` to the connection as they are and flushes: rendered
    /// request frames ([`render_request_v2`]) for a pipelined burst, or
    /// whatever a framing test wants the server to see. Read the replies
    /// back with [`KvClient::recv`].
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn send_raw(&mut self, bytes: &[u8]) -> KvResult<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Reads one complete frame, buffering across reads.
    fn read_frame(&mut self) -> KvResult<Frame> {
        loop {
            match decode_frame(&self.pending) {
                Ok((frame, used)) => {
                    self.pending.drain(..used);
                    return Ok(frame);
                }
                Err(FrameError::Incomplete) => {
                    let chunk = self.reader.fill_buf()?;
                    if chunk.is_empty() {
                        return Err(KvError::Io(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            if self.pending.is_empty() {
                                "server closed the connection"
                            } else {
                                "server closed the connection mid-frame"
                            },
                        )));
                    }
                    let n = chunk.len();
                    self.pending.extend_from_slice(chunk);
                    self.reader.consume(n);
                }
                Err(FrameError::Malformed(message)) => return Err(proto_err(message)),
            }
        }
    }

    /// Writes one request (no flush).
    fn write_request(&mut self, request: &Request) -> KvResult<()> {
        self.writer.write_all(&render_request_v2(request))?;
        Ok(())
    }

    /// Reads the next reply frame — error replies included, as
    /// [`Reply::Err`]. A clean close by the server is an
    /// [`io::ErrorKind::UnexpectedEof`] whose message does not say
    /// "mid-frame".
    ///
    /// # Errors
    ///
    /// I/O failures and framing violations.
    pub fn recv(&mut self) -> KvResult<Reply> {
        let frame = self.read_frame()?;
        parse_reply_v2(frame).map_err(proto_err)
    }

    /// Sends one request and reads one reply, surfacing error replies as
    /// [`KvError::Server`].
    fn roundtrip(&mut self, request: &Request) -> KvResult<Reply> {
        self.write_request(request)?;
        self.writer.flush()?;
        match self.recv()? {
            Reply::Err(code, message) => Err(KvError::Server { code, message }),
            reply => Ok(reply),
        }
    }

    /// Reads one key as its typed value.
    ///
    /// # Errors
    ///
    /// I/O failures and server error replies.
    pub fn get(&mut self, key: i64) -> KvResult<Option<Value>> {
        match self.roundtrip(&Request::Get(key))? {
            Reply::Value(v) => Ok(Some(v)),
            Reply::Nil => Ok(None),
            other => Err(KvError::unexpected(&other, "GET")),
        }
    }

    /// Reads one key, requiring an integer value.
    ///
    /// # Errors
    ///
    /// [`KvError::Type`] when the key holds a `Str`/`Bytes` value, plus
    /// everything [`KvClient::get`] reports.
    pub fn get_int(&mut self, key: i64) -> KvResult<Option<i64>> {
        match self.get(key)? {
            None => Ok(None),
            Some(Value::Int(v)) => Ok(Some(v)),
            Some(other) => Err(KvError::Type {
                expected: "int",
                found: other.type_name(),
            }),
        }
    }

    /// Reads one key, requiring a string value.
    ///
    /// # Errors
    ///
    /// [`KvError::Type`] when the key holds an `Int`/`Bytes` value, plus
    /// everything [`KvClient::get`] reports.
    pub fn get_str(&mut self, key: i64) -> KvResult<Option<String>> {
        match self.get(key)? {
            None => Ok(None),
            Some(Value::Str(s)) => Ok(Some(s)),
            Some(other) => Err(KvError::Type {
                expected: "str",
                found: other.type_name(),
            }),
        }
    }

    /// Reads one key, requiring a bytes value.
    ///
    /// # Errors
    ///
    /// [`KvError::Type`] when the key holds an `Int`/`Str` value, plus
    /// everything [`KvClient::get`] reports.
    pub fn get_bytes(&mut self, key: i64) -> KvResult<Option<Vec<u8>>> {
        match self.get(key)? {
            None => Ok(None),
            Some(Value::Bytes(b)) => Ok(Some(b)),
            Some(other) => Err(KvError::Type {
                expected: "bytes",
                found: other.type_name(),
            }),
        }
    }

    /// Stores a typed value (`client.put(1, 5)`, `client.put(1, "text")`,
    /// `client.put(1, vec![0u8, 255])`).
    ///
    /// # Errors
    ///
    /// I/O failures and server error replies.
    pub fn put(&mut self, key: i64, value: impl Into<Value>) -> KvResult<()> {
        match self.roundtrip(&Request::Put(key, value.into()))? {
            Reply::Ok => Ok(()),
            other => Err(KvError::unexpected(&other, "PUT")),
        }
    }

    /// Removes a key; `true` when it was present.
    ///
    /// # Errors
    ///
    /// I/O failures and server error replies.
    pub fn del(&mut self, key: i64) -> KvResult<bool> {
        match self.roundtrip(&Request::Del(key))? {
            Reply::OkN(n) => Ok(n != 0),
            other => Err(KvError::unexpected(&other, "DEL")),
        }
    }

    /// Adds `delta` to a key's integer value, returning the new value.
    ///
    /// # Errors
    ///
    /// A [`KvError::Server`] with [`ErrorCode::Type`] when the key holds a
    /// non-integer value, plus I/O failures.
    pub fn add(&mut self, key: i64, delta: i64) -> KvResult<i64> {
        match self.roundtrip(&Request::Add(key, delta))? {
            Reply::Value(Value::Int(v)) => Ok(v),
            other => Err(KvError::unexpected(&other, "ADD")),
        }
    }

    /// The present keys in `lo..=hi` with their typed values.
    ///
    /// # Errors
    ///
    /// I/O failures and server error replies.
    pub fn range(&mut self, lo: i64, hi: i64) -> KvResult<Vec<(i64, Value)>> {
        match self.roundtrip(&Request::Range(lo, hi))? {
            Reply::Range(pairs) => Ok(pairs),
            other => Err(KvError::unexpected(&other, "RANGE")),
        }
    }

    /// Atomic `(sum, count)` of the integer values in `lo..=hi`.
    ///
    /// # Errors
    ///
    /// A [`KvError::Server`] with [`ErrorCode::Type`] when the window holds
    /// a non-integer value, plus I/O failures.
    pub fn sum(&mut self, lo: i64, hi: i64) -> KvResult<(i64, usize)> {
        match self.roundtrip(&Request::Sum(lo, hi))? {
            Reply::Sum(total, count) => Ok((total, count)),
            other => Err(KvError::unexpected(&other, "SUM")),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// I/O failures and server error replies.
    pub fn ping(&mut self) -> KvResult<()> {
        match self.roundtrip(&Request::Ping)? {
            Reply::Pong => Ok(()),
            other => Err(KvError::unexpected(&other, "PING")),
        }
    }

    /// Forces a point-in-time snapshot on a durable server, returning the
    /// cut sequence number and the number of keys persisted.
    ///
    /// # Errors
    ///
    /// I/O failures and server error replies (e.g. a volatile server, code
    /// [`ErrorCode::Wal`]).
    pub fn snapshot(&mut self) -> KvResult<(u64, usize)> {
        match self.roundtrip(&Request::Snapshot)? {
            Reply::Snapshot(seq, keys) => Ok((seq, keys)),
            other => Err(KvError::unexpected(&other, "SNAPSHOT")),
        }
    }

    /// Fetches the server's full `METRICS` exposition — request, cell and
    /// WAL counters, latency histograms, abort causes, manager decisions —
    /// parsed into a typed [`MetricsSnapshot`] (the raw text rides along in
    /// [`MetricsSnapshot::text`]).
    ///
    /// # Errors
    ///
    /// I/O failures, server error replies, and malformed exposition lines.
    pub fn metrics(&mut self) -> KvResult<MetricsSnapshot> {
        match self.roundtrip(&Request::Metrics)? {
            Reply::Metrics(text) => MetricsSnapshot::parse(text),
            other => Err(KvError::unexpected(&other, "METRICS")),
        }
    }

    /// The server's `n` slowest requests, slowest first — one rendered
    /// `key=value` line each (op, key count, attempts, abort causes,
    /// contention-manager verdicts, wall/transaction timings).
    ///
    /// # Errors
    ///
    /// I/O failures and server error replies.
    pub fn slowlog(&mut self, n: u64) -> KvResult<Vec<String>> {
        match self.roundtrip(&Request::SlowLog(n))? {
            Reply::SlowLog(entries) => Ok(entries),
            other => Err(KvError::unexpected(&other, "SLOWLOG")),
        }
    }

    /// Starts a fluent atomic batch; finish it with [`BatchBuilder::run`].
    pub fn batch_builder(&mut self) -> BatchBuilder<'_> {
        BatchBuilder {
            client: self,
            ops: Vec::new(),
        }
    }

    /// Executes `ops` as one atomic `BEGIN`/`EXEC` batch and returns one
    /// reply per operation. The whole batch is pipelined: every request is
    /// written before any reply is read.
    ///
    /// # Errors
    ///
    /// I/O failures, server error replies (the batch is poisoned
    /// server-side; [`KvError::Server`] carries the code of the first
    /// refusal), and framing violations.
    pub fn batch(&mut self, ops: &[BatchOp]) -> KvResult<Vec<Reply>> {
        self.write_request(&Request::Begin)?;
        for op in ops {
            self.write_request(&op.to_request())?;
        }
        self.write_request(&Request::Exec)?;
        self.writer.flush()?;

        // The whole batch is already on the wire, so a refused BEGIN or a
        // refused queued op must still drain every remaining pipelined reply
        // (including the EXEC response) before surfacing the error —
        // otherwise the connection's request/reply framing desyncs and every
        // later call reads some earlier op's answer.
        let mut first_error: Option<KvError> = None;
        match self.recv()? {
            Reply::Ok => {}
            Reply::Err(code, message) => {
                first_error = Some(KvError::Server {
                    code,
                    message: format!("BEGIN refused: {message}"),
                })
            }
            other => first_error = Some(KvError::unexpected(&other, "BEGIN")),
        }
        for op in ops {
            match self.recv()? {
                Reply::Queued => {}
                Reply::Err(code, message) => {
                    first_error.get_or_insert(KvError::Server {
                        code,
                        message: format!("batch op {op:?} refused: {message}"),
                    });
                }
                other => {
                    first_error
                        .get_or_insert_with(|| KvError::unexpected(&other, "a queued batch op"));
                }
            }
        }
        let exec = self.recv()?;
        if let Some(error) = first_error {
            // The server poisons a failed batch, so its EXEC reply is an
            // error — the replies (if it somehow executed) arrived inside
            // that one frame.
            return Err(error);
        }
        match exec {
            Reply::Exec(replies) => {
                if replies.len() != ops.len() {
                    return Err(proto_err(format!(
                        "EXEC returned {} replies for {} ops",
                        replies.len(),
                        ops.len()
                    )));
                }
                Ok(replies)
            }
            Reply::Err(code, message) => Err(KvError::Server {
                code,
                message: format!("batch failed: {message}"),
            }),
            other => Err(KvError::unexpected(&other, "EXEC")),
        }
    }

    /// Atomically moves `amount` from `from` to `to` (both treated as `0`
    /// when absent) — the conservation workload's primitive, built from one
    /// `BEGIN`/`EXEC` batch of two `ADD`s.
    ///
    /// # Errors
    ///
    /// Everything [`KvClient::batch`] reports, plus a [`KvError::Server`]
    /// with [`ErrorCode::Type`] when either account holds a non-integer
    /// value — in that case the server aborts the whole batch transaction,
    /// so **neither** account moved: a transfer can fail, but it can never
    /// half-apply.
    pub fn transfer(&mut self, from: i64, to: i64, amount: i64) -> KvResult<()> {
        let replies = self.batch(&[BatchOp::Add(from, -amount), BatchOp::Add(to, amount)])?;
        for reply in &replies {
            if let Reply::Err(code, message) = reply {
                return Err(KvError::Server {
                    code: *code,
                    message: message.clone(),
                });
            }
        }
        if replies.len() == 2 {
            Ok(())
        } else {
            Err(proto_err("transfer batch returned a partial reply"))
        }
    }

    /// Says goodbye and closes the connection.
    ///
    /// # Errors
    ///
    /// I/O failures before `BYE` arrives.
    pub fn quit(mut self) -> KvResult<()> {
        match self.roundtrip(&Request::Quit)? {
            Reply::Bye => Ok(()),
            other => Err(KvError::unexpected(&other, "QUIT")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{KvServer, ServerConfig};

    fn test_server() -> KvServer {
        KvServer::start(ServerConfig {
            shards: 4,
            ..ServerConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn typed_client_round_trips() {
        let server = test_server();
        let mut client = KvClient::connect(server.addr()).unwrap();
        client.ping().unwrap();
        assert_eq!(client.get(1).unwrap(), None);
        client.put(1, 11).unwrap();
        client.put(2, 22).unwrap();
        assert_eq!(client.get_int(1).unwrap(), Some(11));
        assert_eq!(client.add(1, -1).unwrap(), 10);
        let range = client.range(0, 63).unwrap();
        assert_eq!(range, vec![(1, Value::Int(10)), (2, Value::Int(22))]);
        assert_eq!(client.sum(0, 63).unwrap(), (32, 2));
        assert!(client.del(2).unwrap());
        assert!(!client.del(2).unwrap());
        // Typed values, byte-exact — newlines, NULs, UTF-8 boundaries.
        let text = "line\nbreak \0 NUL — ✓ 🦀";
        client.put(5, text).unwrap();
        assert_eq!(client.get_str(5).unwrap().as_deref(), Some(text));
        client.put(6, vec![0u8, 255, 10, 13]).unwrap();
        assert_eq!(client.get_bytes(6).unwrap(), Some(vec![0, 255, 10, 13]));
        // Typed getters enforce kinds client-side...
        match client.get_int(5).unwrap_err() {
            KvError::Type { expected, found } => {
                assert_eq!((expected, found), ("int", "str"));
            }
            other => panic!("expected a type error, got {other}"),
        }
        // ...and the server enforces arithmetic server-side, with a code.
        match client.add(5, 1).unwrap_err() {
            KvError::Server { code, message } => {
                assert_eq!(code, ErrorCode::Type, "{message}");
            }
            other => panic!("expected a coded server error, got {other}"),
        }
        // The keyspace is dynamic: any i64 key is addressable.
        assert_eq!(client.get(1_000_000).unwrap(), None);
        client.put(-5, 7).unwrap();
        assert_eq!(client.get_int(-5).unwrap(), Some(7));
        assert!(client.del(-5).unwrap());
        // Durability commands surface the server's polite refusal when the
        // server is volatile — coded — and the connection survives.
        match client.snapshot().unwrap_err() {
            KvError::Server { code, message } => {
                assert_eq!(code, ErrorCode::Wal);
                assert!(message.contains("durability disabled"), "{message}");
            }
            other => panic!("expected WAL error, got {other}"),
        }
        client.ping().unwrap();
        client.quit().unwrap();
    }

    #[test]
    fn batches_execute_atomically_and_report_per_op() {
        let server = test_server();
        let mut client = KvClient::connect(server.addr()).unwrap();
        client.put(10, 100).unwrap();
        let replies = client
            .batch(&[
                BatchOp::Add(10, -40),
                BatchOp::Add(11, 40),
                BatchOp::Get(10),
                BatchOp::Sum(0, 63),
                BatchOp::Del(12),
                BatchOp::Range(10, 11),
            ])
            .unwrap();
        assert_eq!(
            replies,
            vec![
                Reply::Value(Value::Int(60)),
                Reply::Value(Value::Int(40)),
                Reply::Value(Value::Int(60)),
                Reply::Sum(100, 2),
                Reply::OkN(0),
                Reply::Range(vec![(10, Value::Int(60)), (11, Value::Int(40))]),
            ]
        );
        client.transfer(10, 11, 10).unwrap();
        assert_eq!(client.sum(0, 63).unwrap(), (100, 2));
        assert_eq!(client.get_int(10).unwrap(), Some(50));
        let stats = client.metrics().unwrap();
        let text = &stats.text;
        assert!(stats.counter("stm_commits_total") > 0);
        assert!(stats.counter("stm_kv_batches_total") >= 2);
        assert!(stats.counter("stm_kv_cells_allocated") >= 2, "{text}");
        let overflow_shards = stats
            .samples()
            .filter(|(series, _)| series.starts_with("stm_kv_overflow_cells{"))
            .count();
        assert_eq!(overflow_shards, 4, "{text}");
        // Churn a far-out (overflow) key: its cell must show up as freed in
        // the next scrape.
        client.put(5_000_000, 1).unwrap();
        assert!(client.del(5_000_000).unwrap());
        let after = client.metrics().unwrap();
        assert!(
            after.counter("stm_kv_cells_freed") >= 1,
            "deleted overflow cell must be freed: {}",
            after.text
        );
        assert!(
            after.counter("stm_kv_cells_allocated") > stats.counter("stm_kv_cells_allocated"),
            "{}",
            after.text
        );
        client.quit().unwrap();
    }

    #[test]
    fn batch_builder_is_fluent_and_atomic() {
        let server = test_server();
        let mut client = KvClient::connect(server.addr()).unwrap();
        let builder = client
            .batch_builder()
            .put(1, 100)
            .put(2, "two\nlines")
            .add(1, -30)
            .get(2)
            .sum(0, 1)
            .del(3)
            .range(0, 2);
        assert_eq!(builder.len(), 7);
        assert!(!builder.is_empty());
        let replies = builder.run().unwrap();
        assert_eq!(replies[2], Reply::Value(Value::Int(70)));
        assert_eq!(replies[3], Reply::Value(Value::Str("two\nlines".into())));
        assert_eq!(replies[4], Reply::Sum(70, 1));
        assert_eq!(client.get_int(1).unwrap(), Some(70));
        client.quit().unwrap();
    }

    #[test]
    fn type_error_aborts_the_whole_batch() {
        let server = test_server();
        let mut client = KvClient::connect(server.addr()).unwrap();
        client.put(1, 100).unwrap();
        client.put(2, "not a number").unwrap();
        // ADD on the string key fails the batch as a whole: the PUT queued
        // before it must NOT have applied.
        let err = client
            .batch_builder()
            .put(3, 300)
            .add(2, 5)
            .run()
            .unwrap_err();
        match err {
            KvError::Server { code, message } => {
                assert_eq!(code, ErrorCode::Type, "{message}");
                assert!(message.contains("nothing executed"), "{message}");
            }
            other => panic!("expected TYPE error, got {other}"),
        }
        assert_eq!(
            client.get(3).unwrap(),
            None,
            "aborted batch must commit nothing"
        );
        assert_eq!(client.get_int(1).unwrap(), Some(100));
        client.quit().unwrap();
    }

    #[test]
    fn transfer_onto_a_typed_account_fails_without_moving_money() {
        let server = test_server();
        let mut client = KvClient::connect(server.addr()).unwrap();
        client.put(1, 50).unwrap();
        client.put(2, "not money").unwrap();
        match client.transfer(1, 2, 5).unwrap_err() {
            KvError::Server { code, message } => {
                assert_eq!(code, ErrorCode::Type, "{message}");
                assert!(message.contains("str"), "{message}");
            }
            other => panic!("expected TYPE error, got {other}"),
        }
        // The whole batch aborted: the debit did NOT apply — value is
        // conserved even when a transfer hits a mistyped account.
        assert_eq!(client.get_int(1).unwrap(), Some(50));
        assert_eq!(client.get_str(2).unwrap().as_deref(), Some("not money"));
        client.quit().unwrap();
    }

    #[test]
    fn metrics_and_slowlog_round_trip() {
        let server = test_server();
        let mut client = KvClient::connect(server.addr()).unwrap();
        for key in 0..50 {
            client.put(key, key).unwrap();
        }
        client.get(1).unwrap();
        client.transfer(1, 2, 1).unwrap();

        let metrics = client.metrics().unwrap();
        assert!(
            metrics.counter("stm_kv_requests_total") >= 51,
            "{}",
            metrics.text
        );
        assert!(metrics.value("stm_commits_total").unwrap() > 0);
        assert!(metrics
            .value(r#"stm_aborts_total{cause="killed_by_enemy"}"#)
            .is_some());
        // The per-op histograms reassemble: folding every op label
        // together must dominate any single op's series, and the
        // histogram mass must match the op counts we drove.
        let all_ops = metrics.histogram("stm_kv_op_latency_us").unwrap();
        let puts = metrics
            .histogram(r#"stm_kv_op_latency_us{op="PUT"}"#)
            .unwrap();
        assert!(puts.count >= 50, "{}", metrics.text);
        assert!(all_ops.count > puts.count, "{}", metrics.text);
        assert_eq!(puts.buckets.iter().sum::<u64>(), puts.count);
        assert!(all_ops.quantile(1.0) >= puts.quantile(0.5));

        let slow = client.slowlog(10).unwrap();
        assert!(slow.len() <= 10);
        for entry in &slow {
            assert!(entry.contains("op="), "{entry}");
            assert!(entry.contains("wall_us="), "{entry}");
        }
        assert!(client.slowlog(0).unwrap().is_empty());
        client.quit().unwrap();
    }
}
