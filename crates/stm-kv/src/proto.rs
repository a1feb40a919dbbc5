//! The wire protocol: one request grammar, one framing.
//!
//! **Preamble.** A connection opens with one text line, `HELLO 2` (trimmed,
//! case-insensitive, at most [`MAX_HEADER_BYTES`] before its `\n`), which
//! the server answers with the exact bytes `HELLO 2\n` ([`PREAMBLE`]). Any
//! other first line — or one that overruns the cap — is answered with one
//! `-PROTO …` error frame and a close. Every byte after the preamble is a
//! frame.
//!
//! **Frames.** Binary-safe, length-prefixed, RESP-style frames carry the
//! typed [`Value`] enum (`Int` / `Str` / `Bytes`) byte-exactly — newlines,
//! NULs and multi-byte UTF-8 included. One frame is:
//!
//! ```text
//! frame  = int | str | blob | status | error | nil | array
//! int    = ':' <decimal i64> '\n'            — Value::Int
//! str    = '$' <len> '\n' <len bytes> '\n'   — Value::Str (UTF-8 checked)
//! blob   = '=' <len> '\n' <len bytes> '\n'   — Value::Bytes
//! status = '+' <token> [' ' <text>] '\n'     — OK, PONG, BYE, reply tags
//! error  = '-' <CODE> ' ' <message> '\n'     — coded failure
//! nil    = '_' '\n'                          — absent key
//! array  = '*' <count> '\n' <count frames>   — requests, RANGE, EXEC
//! ```
//!
//! Headers are short text lines, so the protocol stays typeable: after
//! `HELLO 2`, the five lines `*2` `+GET` `:5` ask for key 5 from `nc`.
//!
//! **Requests.** There is one request grammar — the `VERBS` table:
//! twelve verbs, each with a fixed list of arguments, all integers except
//! `PUT`'s value and `EXEC`'s ops. A request is one array frame,
//! `[+VERB, arg frames...]`: the table row, its integer arguments as int
//! frames, a `PUT` value as any value frame and `EXEC`'s ops as one array
//! of request frames.
//!
//! | Request | Reply |
//! |---------|-------|
//! | `GET key` | the value frame, or nil |
//! | `PUT key value` | `+OK` |
//! | `DEL key` | `[+OK, :1]` (removed) or `[+OK, :0]` |
//! | `ADD key delta` | `:new` (absent keys start at 0) |
//! | `RANGE lo hi` | `[+RANGE, [[:k, value], ...]]` |
//! | `SUM lo hi` | `[+SUM, :total, :count]` |
//! | `EXEC [op, ...]` | `[+EXEC, [reply frames...]]`, one per op |
//! | `PING` | `+PONG` |
//! | `METRICS` | `[+METRICS, $text]` — the exposition |
//! | `SLOWLOG n` | `[+SLOWLOG, [$entry, ...]]` |
//! | `SNAPSHOT` | `[+SNAPSHOT, :seq, :keys]` (durable servers only) |
//! | `QUIT` | `+BYE`, then the connection closes |
//!
//! Replies map the [`Reply`] model as the table shows; failures are error
//! frames whose code is machine-readable ([`ErrorCode`]).
//!
//! `METRICS` is the only statistics verb: every counter, gauge and
//! histogram the server, the store, the STM runtime and the log keep is one
//! series of its exposition.
//!
//! **Batches.** `EXEC`'s one argument is an array of data-op request
//! frames (`GET` `PUT` `DEL` `ADD` `RANGE` `SUM`), each exactly the frame
//! the op would be on its own, and the server runs them as one transaction.
//! If one of them fails to parse, names another verb or nests an `EXEC`,
//! nothing runs: the reply is one error naming the op's index, with the
//! inner error's code or `BATCH`. A batch is bounded by [`MAX_ARRAY_LEN`]
//! like any array.
//!
//! Any failure — unknown verb, wrong arity, type mismatch, transaction
//! failure — is reported as an error reply and leaves the connection usable
//! (only an unparseable frame closes it: there is no way to resynchronise a
//! length-prefixed stream). Requests may be **pipelined**:
//! the server parses every complete request it has buffered before replying,
//! executes them in order, and writes all the replies back in one flush.
//!
//! Both directions are implemented here, so a single test suite pins the
//! grammar from both sides. (The `_v2` suffixes on the entry points are the
//! names `bench/` calls them by.)

use crate::Value;

/// The preamble line a client opens with, and the bytes the server answers.
pub const PREAMBLE: &[u8] = b"HELLO 2\n";

/// Upper bound on one bulk payload (`$`/`=` frames) — a framing sanity
/// check so a corrupted length cannot make a peer allocate gigabytes.
pub const MAX_BULK_BYTES: usize = 64 << 20;

/// Upper bound on one array's element count.
pub const MAX_ARRAY_LEN: usize = 1 << 20;

/// Upper bound on one header line — the preamble, or everything before a
/// frame's first `\n`. Error frames carry their whole message in the
/// header, so this must comfortably exceed any message the server emits;
/// `write_error` truncates to stay under it.
pub const MAX_HEADER_BYTES: usize = 1024;

/// Machine-readable category of a protocol error — the `CODE` token of an
/// error frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// Framing or grammar violation: unknown verb, malformed frame.
    Proto,
    /// A well-formed request with bad arguments (arity, non-integer key).
    Arg,
    /// An arithmetic op hit a non-integer value (`ADD`/`SUM` on a str).
    Type,
    /// An `EXEC` op that is not a data op (a nested `EXEC` included).
    Batch,
    /// The server-side transaction aborted explicitly (conflicts are
    /// retried until the transaction commits).
    Txn,
    /// Durability subsystem: disabled, snapshot in progress, write failure.
    Wal,
    /// Anything that fits no other category.
    Unknown,
}

impl ErrorCode {
    /// The stable wire token of this code (the `-CODE` of an error frame).
    pub fn token(&self) -> &'static str {
        match self {
            ErrorCode::Proto => "PROTO",
            ErrorCode::Arg => "ARG",
            ErrorCode::Type => "TYPE",
            ErrorCode::Batch => "BATCH",
            ErrorCode::Txn => "TXN",
            ErrorCode::Wal => "WAL",
            ErrorCode::Unknown => "ERR",
        }
    }

    /// Parses a wire token back to its code.
    pub fn from_token(token: &str) -> ErrorCode {
        match token {
            "PROTO" => ErrorCode::Proto,
            "ARG" => ErrorCode::Arg,
            "TYPE" => ErrorCode::Type,
            "BATCH" => ErrorCode::Batch,
            "TXN" => ErrorCode::Txn,
            "WAL" => ErrorCode::Wal,
            _ => ErrorCode::Unknown,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// A coded protocol-level failure (the payload of [`Reply::Err`], and what
/// request parsing reports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Machine-readable category.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
}

impl ProtoError {
    /// Shorthand constructor.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ProtoError {
        ProtoError {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Read one key.
    Get(i64),
    /// Store a value (creating or overwriting the key).
    Put(i64, Value),
    /// Remove a key.
    Del(i64),
    /// Add a delta to a key's integer value (absent keys start at 0).
    Add(i64, i64),
    /// The present keys in `lo..=hi` with their values.
    Range(i64, i64),
    /// Atomic sum + count of the integer values in `lo..=hi`.
    Sum(i64, i64),
    /// Run the data operations as one atomic transaction.
    Exec(Vec<Request>),
    /// Liveness probe.
    Ping,
    /// Full telemetry exposition (Prometheus-style text) — the one
    /// statistics verb.
    Metrics,
    /// The `n` slowest requests the server has retained, newest analysis
    /// of each: op, attempts, abort causes, manager verdicts, timings.
    SlowLog(u64),
    /// Force a point-in-time snapshot of the keyspace (durable servers).
    Snapshot,
    /// Close the connection.
    Quit,
}

impl Request {
    /// Whether this request is a data operation, one that may appear inside
    /// an `EXEC`.
    pub fn is_data_op(&self) -> bool {
        matches!(
            self,
            Request::Get(_)
                | Request::Put(..)
                | Request::Del(_)
                | Request::Add(..)
                | Request::Range(..)
                | Request::Sum(..)
        )
    }
}

/// A server reply to one request (or one operation of an `EXEC`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// A typed value (`GET` hit, `ADD` result).
    Value(Value),
    /// Key absent.
    Nil,
    /// Success without a payload (`PUT`).
    Ok,
    /// Success with a small integer payload (`DEL` → removed count).
    OkN(i64),
    /// Key/value pairs from a `RANGE`.
    Range(Vec<(i64, Value)>),
    /// Sum and count from a `SUM`.
    Sum(i64, usize),
    /// The replies of an executed `EXEC`, one per op.
    Exec(Vec<Reply>),
    /// A snapshot was written: its cut sequence number and key count.
    Snapshot(u64, usize),
    /// The full `METRICS` exposition (Prometheus-style text, one series
    /// sample per line).
    Metrics(String),
    /// The `SLOWLOG` entries, one rendered `key=value ...` line each,
    /// slowest first.
    SlowLog(Vec<String>),
    /// Reply to `PING`.
    Pong,
    /// Connection closing.
    Bye,
    /// Failure, with a machine-readable code.
    Err(ErrorCode, String),
}

impl Reply {
    /// Shorthand for an error reply.
    pub fn err(code: ErrorCode, message: impl Into<String>) -> Reply {
        Reply::Err(code, message.into())
    }
}

// ---------------------------------------------------------------------------
// The request grammar: one table, one builder, one decomposition.
// ---------------------------------------------------------------------------

/// One row of the request grammar.
struct Verb {
    /// The wire name, upper-case; requests may spell it in any case.
    name: &'static str,
    /// What each argument is called in an error message (arity = length).
    /// Every argument is an integer except `PUT`'s value.
    args: &'static [&'static str],
    /// Builds the request from `args.len()` argument frames.
    build: fn(&Verb, &mut [Frame]) -> Result<Request, ProtoError>,
}

const GET: Verb = Verb {
    name: "GET",
    args: &["key"],
    build: |verb, args| Ok(Request::Get(verb.int(args, 0)?)),
};
const PUT: Verb = Verb {
    name: "PUT",
    args: &["key", "value"],
    build: |verb, args| Ok(Request::Put(verb.int(args, 0)?, verb.value(args, 1)?)),
};
const DEL: Verb = Verb {
    name: "DEL",
    args: &["key"],
    build: |verb, args| Ok(Request::Del(verb.int(args, 0)?)),
};
const ADD: Verb = Verb {
    name: "ADD",
    args: &["key", "delta"],
    build: |verb, args| Ok(Request::Add(verb.int(args, 0)?, verb.int(args, 1)?)),
};
const RANGE: Verb = Verb {
    name: "RANGE",
    args: &["lo", "hi"],
    build: |verb, args| Ok(Request::Range(verb.int(args, 0)?, verb.int(args, 1)?)),
};
const SUM: Verb = Verb {
    name: "SUM",
    args: &["lo", "hi"],
    build: |verb, args| Ok(Request::Sum(verb.int(args, 0)?, verb.int(args, 1)?)),
};
const EXEC: Verb = Verb {
    name: "EXEC",
    args: &["ops"],
    build: |_, args| match std::mem::replace(&mut args[0], Frame::Nil) {
        Frame::Array(frames) => frames
            .into_iter()
            .enumerate()
            .map(|(i, frame)| {
                parse_exec_op(frame)
                    .map_err(|err| ProtoError::new(err.code, format!("op {i}: {}", err.message)))
            })
            .collect::<Result<_, _>>()
            .map(Request::Exec),
        other => Err(ProtoError::new(
            ErrorCode::Arg,
            format!("ops must be an array frame, got {}", other.describe()),
        )),
    },
};
const PING: Verb = Verb {
    name: "PING",
    args: &[],
    build: |_, _| Ok(Request::Ping),
};
const METRICS: Verb = Verb {
    name: "METRICS",
    args: &[],
    build: |_, _| Ok(Request::Metrics),
};
const SLOWLOG: Verb = Verb {
    name: "SLOWLOG",
    args: &["entry count"],
    build: |verb, args| {
        u64::try_from(verb.int(args, 0)?)
            .map(Request::SlowLog)
            .map_err(|_| ProtoError::new(ErrorCode::Arg, "entry count must be non-negative"))
    },
};
const SNAPSHOT: Verb = Verb {
    name: "SNAPSHOT",
    args: &[],
    build: |_, _| Ok(Request::Snapshot),
};
const QUIT: Verb = Verb {
    name: "QUIT",
    args: &[],
    build: |_, _| Ok(Request::Quit),
};

/// Every verb, most frequent first (lookup is a linear scan).
const VERBS: [&Verb; 12] = [
    &GET, &PUT, &DEL, &ADD, &RANGE, &SUM, &EXEC, &PING, &METRICS, &SLOWLOG, &SNAPSHOT, &QUIT,
];

/// One op of an `EXEC`: a data-op request frame.
fn parse_exec_op(frame: Frame) -> Result<Request, ProtoError> {
    let request = parse_request_v2(frame)?;
    if !request.is_data_op() {
        let name = request.parts().0.name;
        return Err(ProtoError::new(
            ErrorCode::Batch,
            format!("{name} is not a data op"),
        ));
    }
    Ok(request)
}

impl Verb {
    /// Looks a verb up by its name in any case, without building an
    /// upper-cased copy per request.
    fn find(name: &str) -> Result<&'static Verb, ProtoError> {
        VERBS
            .iter()
            .copied()
            .find(|verb| verb.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                ProtoError::new(
                    ErrorCode::Proto,
                    format!("unknown command '{}'", name.to_ascii_uppercase()),
                )
            })
    }

    /// Checks the arity, then builds the request from the argument frames.
    fn request(&self, args: &mut [Frame]) -> Result<Request, ProtoError> {
        self.check_arity(args.len())?;
        (self.build)(self, args)
    }

    fn check_arity(&self, got: usize) -> Result<(), ProtoError> {
        let n = self.args.len();
        if got == n {
            return Ok(());
        }
        Err(ProtoError::new(
            ErrorCode::Arg,
            format!(
                "{} takes {n} argument{}, got {got}",
                self.name,
                if n == 1 { "" } else { "s" }
            ),
        ))
    }

    fn int(&self, args: &[Frame], i: usize) -> Result<i64, ProtoError> {
        match &args[i] {
            Frame::Int(v) => Ok(*v),
            other => Err(ProtoError::new(
                ErrorCode::Arg,
                format!(
                    "{} must be an int frame, got {}",
                    self.args[i],
                    other.describe()
                ),
            )),
        }
    }

    /// Moves a value frame out of `args[i]`.
    fn value(&self, args: &mut [Frame], i: usize) -> Result<Value, ProtoError> {
        match std::mem::replace(&mut args[i], Frame::Nil) {
            Frame::Int(v) => Ok(Value::Int(v)),
            Frame::Str(s) => Ok(Value::Str(s)),
            Frame::Bytes(b) => Ok(Value::Bytes(b)),
            other => Err(ProtoError::new(
                ErrorCode::Arg,
                format!(
                    "{} must be an int/str/bytes frame, got {}",
                    self.args[i],
                    other.describe()
                ),
            )),
        }
    }
}

/// One borrowed request argument.
enum Arg<'a> {
    Int(i64),
    Value(&'a Value),
    Ops(&'a [Request]),
}

impl Request {
    /// The request's row of the grammar and its arguments — the inverse of
    /// [`Verb::request`], and what [`render_request_v2`] renders.
    fn parts(&self) -> (&'static Verb, [Option<Arg<'_>>; 2]) {
        let one = |a: i64| [Some(Arg::Int(a)), None];
        let two = |a: i64, b: i64| [Some(Arg::Int(a)), Some(Arg::Int(b))];
        match self {
            Request::Get(k) => (&GET, one(*k)),
            Request::Put(k, v) => (&PUT, [Some(Arg::Int(*k)), Some(Arg::Value(v))]),
            Request::Del(k) => (&DEL, one(*k)),
            Request::Add(k, d) => (&ADD, two(*k, *d)),
            Request::Range(lo, hi) => (&RANGE, two(*lo, *hi)),
            Request::Sum(lo, hi) => (&SUM, two(*lo, *hi)),
            Request::Exec(ops) => (&EXEC, [Some(Arg::Ops(ops)), None]),
            Request::Ping => (&PING, [None, None]),
            Request::Metrics => (&METRICS, [None, None]),
            // Counts past `i64::MAX` ask for "every entry" either way.
            Request::SlowLog(n) => (&SLOWLOG, one(i64::try_from(*n).unwrap_or(i64::MAX))),
            Request::Snapshot => (&SNAPSHOT, [None, None]),
            Request::Quit => (&QUIT, [None, None]),
        }
    }
}

// ---------------------------------------------------------------------------
// Frames: binary-safe, length-prefixed.
// ---------------------------------------------------------------------------

/// One decoded frame — the unit both requests and replies are built
/// from. See the [module documentation](self) for the byte grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// `:<i64>` — an integer value.
    Int(i64),
    /// `$<len>` + bytes — a UTF-8 string value.
    Str(String),
    /// `=<len>` + bytes — an opaque blob value.
    Bytes(Vec<u8>),
    /// `+<token...>` — a status word (`OK`, `PONG`, reply tags).
    Status(String),
    /// `-<CODE> <message>` — a coded failure.
    Error(ErrorCode, String),
    /// `_` — absent.
    Nil,
    /// `*<count>` + frames — a sequence.
    Array(Vec<Frame>),
}

impl Frame {
    fn describe(&self) -> &'static str {
        match self {
            Frame::Int(_) => "int",
            Frame::Str(_) => "str",
            Frame::Bytes(_) => "bytes",
            Frame::Status(_) => "status",
            Frame::Error(..) => "error",
            Frame::Nil => "nil",
            Frame::Array(_) => "array",
        }
    }
}

/// Why [`decode_frame`] returned no frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends mid-frame — read more bytes and retry.
    Incomplete,
    /// The bytes violate the frame grammar; the stream cannot be resynced.
    Malformed(String),
}

fn malformed(message: impl Into<String>) -> FrameError {
    FrameError::Malformed(message.into())
}

/// Appends a frame header line — `tag`, `n` in decimal, newline — built in
/// a stack buffer: a 128-pair `RANGE` reply has ~400 of these, and
/// `to_string()` allocates (and `write!` walks the `fmt` machinery) for each.
fn write_header(out: &mut Vec<u8>, tag: u8, n: i64) {
    // Tag, sign, the 19 digits of `i64::MIN`, newline.
    let mut line = [0u8; 22];
    let mut at = line.len() - 1;
    line[at] = b'\n';
    let mut rest = n.unsigned_abs();
    loop {
        at -= 1;
        line[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        at -= 1;
        line[at] = b'-';
    }
    at -= 1;
    line[at] = tag;
    out.extend_from_slice(&line[at..]);
}

/// [`write_header`] for a length (never above `isize::MAX`, so it fits).
fn write_len_header(out: &mut Vec<u8>, tag: u8, len: usize) {
    write_header(out, tag, i64::try_from(len).expect("a length fits in i64"));
}

/// Appends a length-prefixed bulk frame (`$`/`=`).
fn write_bulk(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    write_len_header(out, tag, payload.len());
    out.extend_from_slice(payload);
    out.push(b'\n');
}

/// Appends a value as its frame.
pub fn write_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Int(v) => write_header(out, b':', *v),
        Value::Str(s) => write_bulk(out, b'$', s.as_bytes()),
        Value::Bytes(b) => write_bulk(out, b'=', b),
    }
}

fn write_int(out: &mut Vec<u8>, v: i64) {
    write_header(out, b':', v);
}

fn write_status(out: &mut Vec<u8>, token: &str) {
    out.push(b'+');
    out.extend_from_slice(token.as_bytes());
    out.push(b'\n');
}

fn write_error(out: &mut Vec<u8>, code: ErrorCode, message: &str) {
    out.push(b'-');
    out.extend_from_slice(code.token().as_bytes());
    out.push(b' ');
    // The whole error frame is one header line; keep it under the decoder's
    // header cap (truncating on a char boundary) so a fragmented error
    // reply can never misread as malformed.
    let flat = message.replace('\n', " ");
    let mut cut = flat.len().min(MAX_HEADER_BYTES - 64);
    while !flat.is_char_boundary(cut) {
        cut -= 1;
    }
    out.extend_from_slice(&flat.as_bytes()[..cut]);
    out.push(b'\n');
}

fn write_array_header(out: &mut Vec<u8>, len: usize) {
    write_len_header(out, b'*', len);
}

/// Appends an arbitrary frame (used by tests and the client's batch path).
pub fn write_frame(out: &mut Vec<u8>, frame: &Frame) {
    match frame {
        Frame::Int(v) => write_int(out, *v),
        Frame::Str(s) => write_bulk(out, b'$', s.as_bytes()),
        Frame::Bytes(b) => write_bulk(out, b'=', b),
        Frame::Status(token) => write_status(out, token),
        Frame::Error(code, message) => write_error(out, *code, message),
        Frame::Nil => out.extend_from_slice(b"_\n"),
        Frame::Array(frames) => {
            write_array_header(out, frames.len());
            for frame in frames {
                write_frame(out, frame);
            }
        }
    }
}

/// The index of the `\n` ending the header line at the head of `buf` — the
/// preamble, or a frame's first line. A peer that never sends `\n` must not
/// grow the buffer forever, so past [`MAX_HEADER_BYTES`] the line is
/// malformed whether or not its end has arrived. The cap exceeds every
/// header a well-behaved peer emits ([`write_error`] truncates to guarantee
/// it), so a partially-received long reply never misreads as malformed.
pub(crate) fn header_end(buf: &[u8]) -> Result<usize, FrameError> {
    let window = &buf[..buf.len().min(MAX_HEADER_BYTES + 1)];
    match window.iter().position(|&b| b == b'\n') {
        Some(nl) => Ok(nl),
        None if buf.len() > MAX_HEADER_BYTES => Err(malformed("header line too long")),
        None => Err(FrameError::Incomplete),
    }
}

/// Checks the preamble line at the head of `buf` — `HELLO 2`, in any case,
/// surrounding whitespace (a `\r` included) ignored — and returns the number
/// of bytes it occupied. The server answers it with [`PREAMBLE`].
///
/// # Errors
///
/// [`FrameError::Incomplete`] while the line's `\n` has not arrived,
/// [`FrameError::Malformed`] for any other line or one past
/// [`MAX_HEADER_BYTES`] (the connection gets one error frame and closes).
pub fn parse_preamble(buf: &[u8]) -> Result<usize, FrameError> {
    let nl = header_end(buf)?;
    let line = String::from_utf8_lossy(&buf[..nl]);
    let mut tokens = line.split_ascii_whitespace();
    let hello = tokens
        .next()
        .is_some_and(|t| t.eq_ignore_ascii_case("HELLO"));
    if hello && tokens.next() == Some("2") && tokens.next().is_none() {
        return Ok(nl + 1);
    }
    let shown: String = line.chars().take(32).collect();
    Err(malformed(format!(
        "a connection opens with the line 'HELLO 2', got '{}'",
        shown.trim_end()
    )))
}

/// Decodes the frame at the head of `buf`, returning it with the number of
/// bytes it occupied.
///
/// # Errors
///
/// [`FrameError::Incomplete`] when `buf` ends mid-frame (read more and
/// retry — the pipelining contract), [`FrameError::Malformed`] when the
/// bytes violate the grammar (the connection must close: a length-prefixed
/// stream cannot be resynchronised).
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
    decode_frame_at_depth(buf, 0)
}

fn decode_frame_at_depth(buf: &[u8], depth: usize) -> Result<(Frame, usize), FrameError> {
    if depth > 8 {
        return Err(malformed("frame nesting too deep"));
    }
    let Some(&tag) = buf.first() else {
        return Err(FrameError::Incomplete);
    };
    let nl = header_end(buf)?;
    let after_header = nl + 1;
    // The common int and count headers skip UTF-8 validation and
    // `str::parse`; every other header, accepted or refused, takes the
    // generic path below with its own error text.
    let raw = &buf[1..nl];
    match (tag, plain_int(raw)) {
        (b':', Some(v)) => return Ok((Frame::Int(v), after_header)),
        // `*-0` is refused below, like every signed count.
        (b'*', Some(count)) if raw[0] != b'-' => {
            if let Ok(count) = usize::try_from(count) {
                return decode_array(buf, count, after_header, depth);
            }
        }
        _ => {}
    }
    let header = std::str::from_utf8(raw).map_err(|_| malformed("frame header is not UTF-8"))?;
    match tag {
        b':' => {
            let v = header
                .parse::<i64>()
                .map_err(|_| malformed(format!("malformed int frame ':{header}'")))?;
            Ok((Frame::Int(v), after_header))
        }
        b'$' | b'=' => {
            let len = header
                .parse::<usize>()
                .map_err(|_| malformed(format!("malformed bulk length '{header}'")))?;
            if len > MAX_BULK_BYTES {
                return Err(malformed(format!(
                    "bulk frame of {len} bytes exceeds the limit"
                )));
            }
            let end = after_header + len;
            let Some(payload) = buf.get(after_header..end) else {
                return Err(FrameError::Incomplete);
            };
            match buf.get(end) {
                None => return Err(FrameError::Incomplete),
                Some(b'\n') => {}
                Some(_) => return Err(malformed("bulk frame missing trailing newline")),
            }
            let frame = if tag == b'$' {
                Frame::Str(
                    std::str::from_utf8(payload)
                        .map_err(|_| malformed("str frame is not valid UTF-8"))?
                        .to_string(),
                )
            } else {
                Frame::Bytes(payload.to_vec())
            };
            Ok((frame, end + 1))
        }
        b'+' => {
            if header.is_empty() {
                return Err(malformed("empty status frame"));
            }
            Ok((Frame::Status(header.to_string()), after_header))
        }
        b'-' => {
            let (code, message) = match header.split_once(' ') {
                Some((token, message)) => (ErrorCode::from_token(token), message.to_string()),
                None => (ErrorCode::from_token(header), String::new()),
            };
            Ok((Frame::Error(code, message), after_header))
        }
        b'_' => {
            if !header.is_empty() {
                return Err(malformed("nil frame carries payload"));
            }
            Ok((Frame::Nil, after_header))
        }
        b'*' => {
            let count = header
                .parse::<usize>()
                .map_err(|_| malformed(format!("malformed array length '{header}'")))?;
            decode_array(buf, count, after_header, depth)
        }
        other => Err(malformed(format!(
            "unknown frame tag 0x{other:02x} (expected : $ = + - _ *)"
        ))),
    }
}

/// A header of the form `-?[0-9]{1,18}`, parsed straight from its bytes:
/// exactly the value `str::parse::<i64>` gives it (18 digits cannot
/// overflow). `None` for anything else, which the caller parses as text.
fn plain_int(header: &[u8]) -> Option<i64> {
    let (negative, digits) = match header.split_first() {
        Some((b'-', digits)) => (true, digits),
        _ => (false, header),
    };
    if digits.is_empty() || digits.len() > 18 {
        return None;
    }
    let mut value = 0i64;
    for &digit in digits {
        if !digit.is_ascii_digit() {
            return None;
        }
        value = value * 10 + i64::from(digit - b'0');
    }
    Some(if negative { -value } else { value })
}

/// The `count` frames of an array whose header ends at `after_header`.
fn decode_array(
    buf: &[u8],
    count: usize,
    after_header: usize,
    depth: usize,
) -> Result<(Frame, usize), FrameError> {
    if count > MAX_ARRAY_LEN {
        return Err(malformed(format!(
            "array of {count} frames exceeds the limit"
        )));
    }
    let mut frames = Vec::with_capacity(count.min(64));
    let mut at = after_header;
    for _ in 0..count {
        let (frame, used) = decode_frame_at_depth(&buf[at..], depth + 1)?;
        frames.push(frame);
        at += used;
    }
    Ok((Frame::Array(frames), at))
}

fn frame_to_value(frame: Frame) -> Option<Value> {
    match frame {
        Frame::Int(v) => Some(Value::Int(v)),
        Frame::Str(s) => Some(Value::Str(s)),
        Frame::Bytes(b) => Some(Value::Bytes(b)),
        _ => None,
    }
}

/// Renders a request as its frame bytes: `[+VERB, args...]`. A `PUT`
/// value is written straight from the borrowed request, never cloned.
pub fn render_request_v2(request: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    write_request(&mut out, request);
    out
}

fn write_request(out: &mut Vec<u8>, request: &Request) {
    let (verb, args) = request.parts();
    write_array_header(out, 1 + args.iter().flatten().count());
    write_status(out, verb.name);
    for arg in args.iter().flatten() {
        match arg {
            Arg::Int(v) => write_int(out, *v),
            Arg::Value(v) => write_value(out, v),
            Arg::Ops(ops) => {
                write_array_header(out, ops.len());
                for op in *ops {
                    write_request(out, op);
                }
            }
        }
    }
}

/// Interprets a decoded frame as a request.
///
/// # Errors
///
/// A coded error describing the violation (sent back as an error frame;
/// the connection stays usable — the frame itself was well-formed).
pub fn parse_request_v2(frame: Frame) -> Result<Request, ProtoError> {
    let Frame::Array(mut frames) = frame else {
        return Err(ProtoError::new(
            ErrorCode::Proto,
            format!("request must be an array frame, got {}", frame.describe()),
        ));
    };
    let Some((head, args)) = frames.split_first_mut() else {
        return Err(ProtoError::new(ErrorCode::Proto, "empty request"));
    };
    let name: &str = match head {
        Frame::Status(s) | Frame::Str(s) => s,
        other => {
            return Err(ProtoError::new(
                ErrorCode::Proto,
                format!(
                    "request verb must be a status/str frame, got {}",
                    other.describe()
                ),
            ))
        }
    };
    Verb::find(name)?.request(args)
}

/// Appends a reply as its frame bytes.
pub fn render_reply_v2(out: &mut Vec<u8>, reply: &Reply) {
    match reply {
        Reply::Value(v) => write_value(out, v),
        Reply::Nil => out.extend_from_slice(b"_\n"),
        Reply::Ok => write_status(out, "OK"),
        Reply::OkN(n) => {
            write_array_header(out, 2);
            write_status(out, "OK");
            write_int(out, *n);
        }
        Reply::Range(pairs) => {
            write_array_header(out, 2);
            write_status(out, "RANGE");
            write_array_header(out, pairs.len());
            for (k, v) in pairs {
                write_array_header(out, 2);
                write_int(out, *k);
                write_value(out, v);
            }
        }
        Reply::Sum(total, count) => {
            write_array_header(out, 3);
            write_status(out, "SUM");
            write_int(out, *total);
            write_int(out, *count as i64);
        }
        Reply::Exec(replies) => {
            write_array_header(out, 2);
            write_status(out, "EXEC");
            write_array_header(out, replies.len());
            for reply in replies {
                render_reply_v2(out, reply);
            }
        }
        Reply::Snapshot(seq, keys) => {
            write_array_header(out, 3);
            write_status(out, "SNAPSHOT");
            write_int(out, *seq as i64);
            write_int(out, *keys as i64);
        }
        Reply::Metrics(text) => {
            write_array_header(out, 2);
            write_status(out, "METRICS");
            write_value(out, &Value::Str(text.clone()));
        }
        Reply::SlowLog(entries) => {
            write_array_header(out, 2);
            write_status(out, "SLOWLOG");
            write_array_header(out, entries.len());
            for entry in entries {
                write_value(out, &Value::Str(entry.clone()));
            }
        }
        Reply::Pong => write_status(out, "PONG"),
        Reply::Bye => write_status(out, "BYE"),
        Reply::Err(code, message) => write_error(out, *code, message),
    }
}

/// Interprets a decoded frame as a reply — the client side of
/// [`render_reply_v2`].
///
/// # Errors
///
/// Returns a message describing the framing violation when the frame does
/// not match the reply grammar.
pub fn parse_reply_v2(frame: Frame) -> Result<Reply, String> {
    match frame {
        Frame::Int(v) => Ok(Reply::Value(Value::Int(v))),
        Frame::Str(s) => Ok(Reply::Value(Value::Str(s))),
        Frame::Bytes(b) => Ok(Reply::Value(Value::Bytes(b))),
        Frame::Nil => Ok(Reply::Nil),
        Frame::Error(code, message) => Ok(Reply::Err(code, message)),
        Frame::Status(token) => match token.as_str() {
            "OK" => Ok(Reply::Ok),
            "PONG" => Ok(Reply::Pong),
            "BYE" => Ok(Reply::Bye),
            other => Err(format!("unrecognized status reply '+{other}'")),
        },
        Frame::Array(mut frames) => {
            if frames.is_empty() {
                return Err("empty array reply".to_string());
            }
            let tag = match frames.remove(0) {
                Frame::Status(s) => s,
                other => {
                    return Err(format!(
                        "array reply must lead with a status tag, got {}",
                        other.describe()
                    ))
                }
            };
            let int_at = |frames: &[Frame], i: usize, what: &str| -> Result<i64, String> {
                match frames.get(i) {
                    Some(Frame::Int(v)) => Ok(*v),
                    other => Err(format!("{what} must be an int frame, got {other:?}")),
                }
            };
            match (tag.as_str(), frames.len()) {
                ("OK", 1) => Ok(Reply::OkN(int_at(&frames, 0, "count")?)),
                ("SUM", 2) => Ok(Reply::Sum(
                    int_at(&frames, 0, "total")?,
                    int_at(&frames, 1, "count")? as usize,
                )),
                ("SNAPSHOT", 2) => Ok(Reply::Snapshot(
                    int_at(&frames, 0, "seq")? as u64,
                    int_at(&frames, 1, "key count")? as usize,
                )),
                ("METRICS", 1) => match frames.remove(0) {
                    Frame::Str(text) => Ok(Reply::Metrics(text)),
                    other => Err(format!(
                        "METRICS payload must be a str frame, got {}",
                        other.describe()
                    )),
                },
                ("SLOWLOG", 1) => {
                    let Frame::Array(items) = frames.remove(0) else {
                        return Err("SLOWLOG payload must be an array frame".to_string());
                    };
                    let mut entries = Vec::with_capacity(items.len());
                    for item in items {
                        let Frame::Str(entry) = item else {
                            return Err("SLOWLOG entry must be a str frame".to_string());
                        };
                        entries.push(entry);
                    }
                    Ok(Reply::SlowLog(entries))
                }
                ("RANGE", 1) => {
                    let Frame::Array(items) = frames.remove(0) else {
                        return Err("RANGE payload must be an array frame".to_string());
                    };
                    let mut pairs = Vec::with_capacity(items.len());
                    for item in items {
                        let Frame::Array(mut pair) = item else {
                            return Err("RANGE pair must be an array frame".to_string());
                        };
                        if pair.len() != 2 {
                            return Err(format!("RANGE pair carries {} frames, not 2", pair.len()));
                        }
                        let value = frame_to_value(pair.remove(1))
                            .ok_or_else(|| "RANGE pair value must be a value frame".to_string())?;
                        let Frame::Int(key) = pair.remove(0) else {
                            return Err("RANGE pair key must be an int frame".to_string());
                        };
                        pairs.push((key, value));
                    }
                    Ok(Reply::Range(pairs))
                }
                ("EXEC", 1) => {
                    let Frame::Array(items) = frames.remove(0) else {
                        return Err("EXEC payload must be an array frame".to_string());
                    };
                    let replies = items
                        .into_iter()
                        .map(parse_reply_v2)
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok(Reply::Exec(replies))
                }
                (tag, n) => Err(format!("unrecognized array reply '{tag}' with {n} frames")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn typed_values() -> Vec<Value> {
        vec![
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Str(String::new()),
            Value::Str("line\nbreak \0 NUL — ✓ émoji 🦀".to_string()),
            Value::Bytes(vec![]),
            Value::Bytes(vec![0, 10, 13, 255, 0]),
        ]
    }

    #[test]
    fn v2_requests_round_trip_through_render_and_parse() {
        let mut requests = vec![
            Request::Get(3),
            Request::Del(0),
            Request::Add(7, -5),
            Request::Range(0, 255),
            Request::Sum(-10, 10),
            Request::Exec(Vec::new()),
            Request::Exec(vec![
                Request::Get(1),
                Request::Put(2, Value::Bytes(vec![0, 10])),
                Request::Sum(0, 9),
            ]),
            Request::Ping,
            Request::Metrics,
            Request::SlowLog(16),
            Request::Snapshot,
            Request::Quit,
        ];
        for value in typed_values() {
            requests.push(Request::Put(-3, value));
        }
        for request in requests {
            let bytes = render_request_v2(&request);
            let (frame, used) = decode_frame(&bytes).unwrap();
            assert_eq!(used, bytes.len(), "{request:?} left trailing bytes");
            assert_eq!(parse_request_v2(frame).unwrap(), request);
        }
    }

    /// Walks the grammar table itself: every row builds a request that
    /// decomposes back to that row and round-trips through its frames, in
    /// either case.
    #[test]
    fn every_verb_in_the_table_round_trips() {
        for verb in VERBS {
            let mut args: Vec<Frame> = (0..verb.args.len())
                .map(|i| match verb.args[i] {
                    "ops" => Frame::Array(Vec::new()),
                    _ => Frame::Int(7 + i as i64),
                })
                .collect();
            let request = verb.request(&mut args).unwrap();
            assert_eq!(request.parts().0.name, verb.name);

            let bytes = render_request_v2(&request);
            let (frame, used) = decode_frame(&bytes).unwrap();
            assert_eq!(used, bytes.len(), "{} left trailing bytes", verb.name);
            assert_eq!(parse_request_v2(frame).unwrap(), request);
            let (lower, _) = decode_frame(&bytes.to_ascii_lowercase()).unwrap();
            assert_eq!(parse_request_v2(lower).unwrap(), request);

            // One argument too many is an arity error naming the verb.
            let wanted = format!("{} takes {} argument", verb.name, verb.args.len());
            let mut frames = vec![Frame::Status(verb.name.to_string())];
            frames.extend((0..=verb.args.len()).map(|_| Frame::Int(1)));
            let err = parse_request_v2(Frame::Array(frames)).unwrap_err();
            assert_eq!(err.code, ErrorCode::Arg);
            assert!(err.message.starts_with(&wanted), "{err}");
        }
        assert_eq!(VERBS.len(), 12);
    }

    #[test]
    fn the_preamble_is_one_bounded_hello_2_line() {
        for line in ["HELLO 2\n", "hello 2\r\n", "  HeLLo \t 2  \n"] {
            assert_eq!(parse_preamble(line.as_bytes()), Ok(line.len()), "{line:?}");
        }
        // Only the line is consumed: frames may ride in the same burst.
        assert_eq!(parse_preamble(b"HELLO 2\n*1\n+PING\n"), Ok(PREAMBLE.len()));

        for partial in ["", "HEL", "HELLO 2", "GET 1"] {
            assert_eq!(
                parse_preamble(partial.as_bytes()),
                Err(FrameError::Incomplete)
            );
        }
        assert_eq!(
            parse_preamble(&[b'x'; MAX_HEADER_BYTES]),
            Err(FrameError::Incomplete)
        );

        for line in [
            "GET 1\n",
            "HELLO 1\n",
            "HELLO 3\n",
            "HELLO\n",
            "HELLO 2 3\n",
            "\n",
            "*1\n",
        ] {
            assert!(
                matches!(
                    parse_preamble(line.as_bytes()),
                    Err(FrameError::Malformed(_))
                ),
                "{line:?}"
            );
        }
        // Past the cap the line is refused whether or not it ever ends.
        let mut long = vec![b' '; MAX_HEADER_BYTES + 1];
        assert!(matches!(
            parse_preamble(&long),
            Err(FrameError::Malformed(_))
        ));
        long.extend_from_slice(PREAMBLE);
        assert!(matches!(
            parse_preamble(&long),
            Err(FrameError::Malformed(_))
        ));
        // The refusal quotes a bounded prefix of what arrived.
        let request_line = [b"GET 1 ", &[b'x'; 500][..], b"\n"].concat();
        let Err(FrameError::Malformed(message)) = parse_preamble(&request_line) else {
            panic!("a request line is not the preamble");
        };
        assert!(
            message.contains("'HELLO 2'") && message.contains("GET 1"),
            "{message}"
        );
        assert!(message.len() < 128, "{message}");
    }

    #[test]
    fn v2_verbs_are_case_insensitive_and_errors_name_them_upper_cased() {
        let parse = |verb: Frame, args: Vec<Frame>| {
            parse_request_v2(Frame::Array(std::iter::once(verb).chain(args).collect()))
        };
        let status = |s: &str| Frame::Status(s.to_string());
        assert_eq!(
            parse(status("get"), vec![Frame::Int(5)]).unwrap(),
            Request::Get(5)
        );
        assert_eq!(
            parse(
                Frame::Str("PuT".into()),
                vec![Frame::Int(1), Frame::Bytes(vec![0, 255])]
            )
            .unwrap(),
            Request::Put(1, Value::Bytes(vec![0, 255]))
        );
        let err = |verb: Frame, args: Vec<Frame>| {
            let err = parse(verb, args).unwrap_err();
            (err.code, err.message)
        };
        assert_eq!(
            err(status("get"), vec![]),
            (ErrorCode::Arg, "GET takes 1 argument, got 0".to_string())
        );
        assert_eq!(
            err(status("Range"), vec![Frame::Int(1)]),
            (ErrorCode::Arg, "RANGE takes 2 arguments, got 1".to_string())
        );
        assert_eq!(
            err(status("fly"), vec![Frame::Int(1)]),
            (ErrorCode::Proto, "unknown command 'FLY'".to_string())
        );
        assert_eq!(
            err(status(""), vec![]),
            (ErrorCode::Proto, "unknown command ''".to_string())
        );
        assert_eq!(
            err(status("put"), vec![Frame::Int(1), Frame::Nil]),
            (
                ErrorCode::Arg,
                "value must be an int/str/bytes frame, got nil".to_string()
            )
        );
        assert_eq!(
            err(Frame::Int(3), vec![]),
            (
                ErrorCode::Proto,
                "request verb must be a status/str frame, got int".to_string()
            )
        );
        assert_eq!(
            err(status("put"), vec![Frame::Int(1)]),
            (ErrorCode::Arg, "PUT takes 2 arguments, got 1".to_string())
        );
        assert_eq!(
            err(status("ping"), vec![Frame::Int(1)]),
            (ErrorCode::Arg, "PING takes 0 arguments, got 1".to_string())
        );
        assert_eq!(
            err(status("get"), vec![Frame::Str("x".into())]),
            (
                ErrorCode::Arg,
                "key must be an int frame, got str".to_string()
            )
        );
        let empty = parse_request_v2(Frame::Array(vec![])).unwrap_err();
        assert_eq!(
            (empty.code, empty.message.as_str()),
            (ErrorCode::Proto, "empty request")
        );
    }

    #[test]
    fn v2_replies_round_trip_through_render_and_parse() {
        let mut replies = vec![
            Reply::Nil,
            Reply::Ok,
            Reply::OkN(1),
            Reply::Range(Vec::new()),
            Reply::Range(
                typed_values()
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| (i as i64 - 2, v))
                    .collect(),
            ),
            Reply::Sum(-5, 3),
            Reply::Metrics("# TYPE a counter\na{op=\"get\"} 1\n".to_string()),
            Reply::SlowLog(vec![
                "op=EXEC keys=3 attempts=2 wall_us=912".to_string(),
                "op=PUT keys=1 attempts=1 wall_us=40".to_string(),
            ]),
            Reply::SlowLog(Vec::new()),
            Reply::Exec(vec![
                Reply::Value(Value::Str("a\nb".to_string())),
                Reply::Nil,
                Reply::Range(vec![(9, Value::Bytes(vec![0, 1]))]),
                Reply::err(ErrorCode::Type, "key 9 holds a bytes value, not an int"),
            ]),
            Reply::Exec(Vec::new()),
            Reply::Snapshot(17, 4096),
            Reply::Pong,
            Reply::Bye,
            Reply::err(ErrorCode::Wal, "durability disabled"),
        ];
        for value in typed_values() {
            replies.push(Reply::Value(value));
        }
        for reply in replies {
            let mut bytes = Vec::new();
            render_reply_v2(&mut bytes, &reply);
            let (frame, used) = decode_frame(&bytes).unwrap();
            assert_eq!(used, bytes.len(), "{reply:?} left trailing bytes");
            assert_eq!(parse_reply_v2(frame).unwrap(), reply);
        }
    }

    #[test]
    fn v2_frames_decode_incrementally() {
        // Every strict prefix of a valid frame stream is Incomplete, never
        // Malformed — the property the pipelined server loop relies on.
        let mut bytes = render_request_v2(&Request::Put(
            5,
            Value::Str("payload with \n and \0".to_string()),
        ));
        let mut reply_bytes = Vec::new();
        render_reply_v2(
            &mut reply_bytes,
            &Reply::Exec(vec![Reply::Value(Value::Bytes(vec![0, 255]))]),
        );
        bytes.extend_from_slice(&reply_bytes);
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Ok((_, used)) => assert!(used <= cut),
                Err(FrameError::Incomplete) => {}
                Err(FrameError::Malformed(m)) => {
                    panic!("prefix of length {cut} misread as malformed: {m}")
                }
            }
        }
    }

    /// What the text path makes of an int or count header: `str::parse`
    /// and the error texts, as they were before plain-digit headers got
    /// their byte path. An array's elements are `:7` each.
    fn decode_as_text(tag: u8, header: &str) -> Result<Frame, String> {
        if tag == b':' {
            return header
                .parse::<i64>()
                .map(Frame::Int)
                .map_err(|_| format!("malformed int frame ':{header}'"));
        }
        let count = header
            .parse::<usize>()
            .map_err(|_| format!("malformed array length '{header}'"))?;
        if count > MAX_ARRAY_LEN {
            return Err(format!("array of {count} frames exceeds the limit"));
        }
        Ok(Frame::Array(vec![Frame::Int(7); count]))
    }

    #[test]
    fn plain_digit_headers_decode_as_the_text_path_does() {
        let (min, max) = (i64::MIN.to_string(), i64::MAX.to_string());
        let headers = [
            "0",
            "-0",
            "+5",
            "007",
            "5",
            "-5",
            "999999999999999999",
            "-999999999999999999",
            "1000000000000000000",
            "-1000000000000000000",
            &min,
            &max,
            "12345678901234567890",
            "-12345678901234567890",
            "12x",
            "",
            "-",
            "+",
            " 5",
            "5 ",
            "5\r",
            "1048577",
        ];
        for tag in [b':', b'*'] {
            for header in headers {
                let mut bytes = vec![tag];
                bytes.extend_from_slice(header.as_bytes());
                bytes.push(b'\n');
                let want = decode_as_text(tag, header);
                if let Ok(Frame::Array(items)) = &want {
                    bytes.extend(b":7\n".repeat(items.len()));
                }
                let got = match decode_frame(&bytes) {
                    Ok((frame, used)) => {
                        assert_eq!(used, bytes.len(), "{}{header:?}", tag as char);
                        Ok(frame)
                    }
                    Err(FrameError::Malformed(message)) => Err(message),
                    Err(FrameError::Incomplete) => panic!("{}{header:?} incomplete", tag as char),
                };
                assert_eq!(got, want, "{}{header:?}", tag as char);
                for cut in 0..bytes.len() {
                    assert_eq!(
                        decode_frame(&bytes[..cut]),
                        Err(FrameError::Incomplete),
                        "{}{header:?} cut at {cut}",
                        tag as char
                    );
                }
            }
        }
    }

    #[test]
    fn v2_decoder_rejects_garbage_and_resource_claims() {
        assert!(matches!(
            decode_frame(b"!nope\n"),
            Err(FrameError::Malformed(_))
        ));
        assert!(matches!(
            decode_frame(b":not-a-number\n"),
            Err(FrameError::Malformed(_))
        ));
        // A bulk length beyond the cap is rejected before any allocation.
        assert!(matches!(
            decode_frame(b"$99999999999\n"),
            Err(FrameError::Malformed(_))
        ));
        assert!(matches!(
            decode_frame(b"*99999999\n"),
            Err(FrameError::Malformed(_))
        ));
        // Invalid UTF-8 in a str frame is malformed (bytes frames carry it).
        assert!(matches!(
            decode_frame(b"$2\n\xff\xfe\n"),
            Err(FrameError::Malformed(_))
        ));
        assert_eq!(
            decode_frame(b"=2\n\xff\xfe\n").unwrap().0,
            Frame::Bytes(vec![0xff, 0xfe])
        );
        // A header that never terminates is eventually rejected — but only
        // past the cap, so long (legitimate) error frames that arrive
        // fragmented stay Incomplete.
        assert!(matches!(
            decode_frame(&[b':'; MAX_HEADER_BYTES - 1]),
            Err(FrameError::Incomplete)
        ));
        assert!(matches!(
            decode_frame(&[b':'; MAX_HEADER_BYTES + 8]),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn integers_render_to_the_same_bytes_as_to_string() {
        let extremes = [i64::MIN, -1, 0, i64::MAX];
        let mut out = Vec::new();
        for v in extremes {
            render_reply_v2(&mut out, &Reply::Value(Value::Int(v)));
        }
        assert_eq!(
            out,
            b":-9223372036854775808\n:-1\n:0\n:9223372036854775807\n"
        );

        // A 300-pair range (three-digit array header, the extremes as keys
        // and values, a blob with a three-digit length) against the bytes
        // the `to_string()` renderer produced.
        let mut pairs: Vec<(i64, Value)> =
            (0..296).map(|i| (i * 7 - 1_000, Value::Int(-i))).collect();
        pairs.insert(0, (i64::MIN, Value::Int(i64::MAX)));
        pairs.push((1 << 40, Value::Bytes(vec![b'x'; 256])));
        pairs.push((i64::MAX - 1, Value::Str("s".to_string())));
        pairs.push((i64::MAX, Value::Int(i64::MIN)));
        assert_eq!(pairs.len(), 300);
        let mut v2 = b"*2\n+RANGE\n*300\n".to_vec();
        for (k, v) in &pairs {
            v2.extend_from_slice(b"*2\n:");
            v2.extend_from_slice(k.to_string().as_bytes());
            v2.push(b'\n');
            match v {
                Value::Int(v) => {
                    v2.extend_from_slice(format!(":{v}\n").as_bytes());
                }
                Value::Str(s) => {
                    v2.extend_from_slice(format!("${}\n{s}\n", s.len()).as_bytes());
                }
                Value::Bytes(b) => {
                    v2.extend_from_slice(format!("={}\n", b.len()).as_bytes());
                    v2.extend_from_slice(b);
                    v2.push(b'\n');
                }
            }
        }
        let reply = Reply::Range(pairs);
        let mut out = Vec::new();
        render_reply_v2(&mut out, &reply);
        assert_eq!(out, v2);
    }

    #[test]
    fn data_op_classification_gates_batches() {
        assert!(Request::Get(1).is_data_op());
        assert!(Request::Put(1, Value::Str("s".into())).is_data_op());
        assert!(Request::Sum(0, 1).is_data_op());
        for request in [
            Request::Exec(vec![Request::Get(1)]),
            Request::Ping,
            Request::Metrics,
            Request::SlowLog(8),
            Request::Snapshot,
            Request::Quit,
        ] {
            assert!(!request.is_data_op(), "{request:?}");
        }
    }

    #[test]
    fn err_rendering_strips_newlines() {
        let mut bytes = Vec::new();
        render_reply_v2(&mut bytes, &Reply::err(ErrorCode::Txn, "two\nlines"));
        let (frame, _) = decode_frame(&bytes).unwrap();
        assert_eq!(
            parse_reply_v2(frame).unwrap(),
            Reply::err(ErrorCode::Txn, "two lines")
        );
    }

    /// Draws a random typed value biased toward framing hazards: embedded
    /// newlines and NULs, frame-tag bytes (`:$=*+-_`), multi-byte UTF-8
    /// boundaries, empty payloads, extreme integers.
    fn draw_value(rng: &mut rand::rngs::SmallRng) -> Value {
        use rand::Rng;
        match rng.gen_range(0..6u32) {
            0 => Value::Int(match rng.gen_range(0..4u32) {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => rng.gen_range(-1_000_000..1_000_000i64),
            }),
            1 | 2 => {
                let len = rng.gen_range(0..64usize);
                let s: String = (0..len)
                    .map(|_| match rng.gen_range(0..8u32) {
                        0 => '\n',
                        1 => '\0',
                        2 => '✓',
                        3 => '🦀',
                        4 => ['$', ':', '*', '+', '-', '_', '='][rng.gen_range(0..7usize)],
                        _ => char::from(rng.gen_range(b' '..=b'~')),
                    })
                    .collect();
                Value::Str(s)
            }
            _ => {
                let len = rng.gen_range(0..64usize);
                Value::Bytes((0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect())
            }
        }
    }

    /// The seeded property at the heart of the framing: for random typed
    /// values — embedded newlines, NULs, frame-tag bytes, multi-byte UTF-8
    /// — `decode ∘ encode = id` for requests and replies, including when
    /// many frames are concatenated into one pipelined buffer.
    #[test]
    fn v2_framing_round_trips_seeded_random_values() {
        use rand::{Rng, SeedableRng};
        for seed in 0..16u64 {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(0xF2A3 + seed);
            // One pipelined buffer of several requests...
            let count = rng.gen_range(1..12usize);
            let mut requests = Vec::with_capacity(count);
            let mut wire = Vec::new();
            for _ in 0..count {
                let request = match rng.gen_range(0..4u32) {
                    0 => Request::Put(rng.gen_range(-100..100i64), draw_value(&mut rng)),
                    1 => Request::Get(rng.gen_range(-100..100i64)),
                    2 => Request::Add(rng.gen_range(-100..100i64), rng.gen_range(-50..50i64)),
                    _ => Request::Range(rng.gen_range(-100..0i64), rng.gen_range(0..100i64)),
                };
                wire.extend_from_slice(&render_request_v2(&request));
                requests.push(request);
            }
            let mut at = 0usize;
            for (i, expected) in requests.iter().enumerate() {
                let (frame, used) = decode_frame(&wire[at..])
                    .unwrap_or_else(|e| panic!("seed {seed} request {i}: {e:?}"));
                at += used;
                assert_eq!(&parse_request_v2(frame).unwrap(), expected, "seed {seed}");
            }
            assert_eq!(at, wire.len(), "seed {seed}: trailing request bytes");

            // ...and a pipelined buffer of several replies, nesting typed
            // values inside RANGE and EXEC.
            let count = rng.gen_range(1..10usize);
            let mut replies = Vec::with_capacity(count);
            let mut wire = Vec::new();
            for _ in 0..count {
                let reply = match rng.gen_range(0..5u32) {
                    0 => Reply::Value(draw_value(&mut rng)),
                    1 => Reply::Range(
                        (0..rng.gen_range(0..5usize))
                            .map(|i| (i as i64, draw_value(&mut rng)))
                            .collect(),
                    ),
                    2 => Reply::Exec(
                        (0..rng.gen_range(0..4usize))
                            .map(|_| Reply::Value(draw_value(&mut rng)))
                            .collect(),
                    ),
                    3 => Reply::Nil,
                    _ => Reply::Sum(rng.gen_range(-1000..1000i64), rng.gen_range(0..50usize)),
                };
                render_reply_v2(&mut wire, &reply);
                replies.push(reply);
            }
            let mut at = 0usize;
            for (i, expected) in replies.iter().enumerate() {
                let (frame, used) = decode_frame(&wire[at..])
                    .unwrap_or_else(|e| panic!("seed {seed} reply {i}: {e:?}"));
                at += used;
                assert_eq!(&parse_reply_v2(frame).unwrap(), expected, "seed {seed}");
            }
            assert_eq!(at, wire.len(), "seed {seed}: trailing reply bytes");
        }
    }

    /// Seeded prefix property: no strict prefix of a valid frame stream is
    /// ever Malformed — it is Incomplete (or a complete earlier frame) —
    /// which is what lets the server buffer partial pipelined bursts.
    #[test]
    fn v2_random_frame_prefixes_are_never_malformed() {
        use rand::SeedableRng;
        for seed in 0..8u64 {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(0x9F1E + seed);
            let mut wire = Vec::new();
            render_reply_v2(
                &mut wire,
                &Reply::Exec(vec![
                    Reply::Value(draw_value(&mut rng)),
                    Reply::Range(vec![(1, draw_value(&mut rng))]),
                ]),
            );
            for cut in 0..wire.len() {
                match decode_frame(&wire[..cut]) {
                    Ok((_, used)) => assert!(used <= cut, "seed {seed}"),
                    Err(FrameError::Incomplete) => {}
                    Err(FrameError::Malformed(m)) => {
                        panic!("seed {seed}: prefix {cut} misread as malformed: {m}")
                    }
                }
            }
        }
    }

    #[test]
    fn error_codes_round_trip_their_tokens() {
        for code in [
            ErrorCode::Proto,
            ErrorCode::Arg,
            ErrorCode::Type,
            ErrorCode::Batch,
            ErrorCode::Txn,
            ErrorCode::Wal,
            ErrorCode::Unknown,
        ] {
            assert_eq!(ErrorCode::from_token(code.token()), code);
        }
        assert_eq!(ErrorCode::from_token("WHAT"), ErrorCode::Unknown);
    }
}
