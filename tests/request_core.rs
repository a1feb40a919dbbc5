//! The request core over bytes: a [`ServerState`] built by its public
//! constructor, one [`Core`] over it, and a [`Wire`] fed request frames — no
//! listener, no poller, no thread. Every reply is compared as the exact
//! bytes the server would write to the socket.
//!
//! The socket-level behaviours (pipelining, fragmented reads, the preamble
//! over a real connection, the shutdown drain) are
//! `tests/event_loop_serving.rs`'.

use greedy_stm::kv::proto::{
    decode_frame, parse_reply_v2, render_reply_v2, render_request_v2, write_frame, Frame, PREAMBLE,
};
use greedy_stm::kv::{Core, ErrorCode, Reply, Request, ServerConfig, ServerState, Value, Wire};

fn int(v: i64) -> Reply {
    Reply::Value(Value::Int(v))
}

/// A volatile serving state, as `KvServer::start` builds one.
fn volatile() -> ServerState {
    ServerState::open(&ServerConfig::default()).unwrap()
}

/// A wire past the preamble, as `KvClient::connect` leaves a connection.
fn greeted(core: &mut Core<'_>) -> Wire {
    let mut wire = Wire::default();
    wire.inbuf.extend_from_slice(PREAMBLE);
    assert!(core.execute(&mut wire));
    assert_eq!(wire.outbuf, PREAMBLE);
    wire.outbuf.clear();
    wire
}

/// Feeds `bytes` to the core as one burst and takes what it rendered.
fn send(core: &mut Core<'_>, wire: &mut Wire, bytes: &[u8]) -> Vec<u8> {
    wire.inbuf.extend_from_slice(bytes);
    assert!(core.execute(wire), "the burst's durability wait failed");
    std::mem::take(&mut wire.outbuf)
}

/// One request frame in, its exact reply bytes out.
fn say(core: &mut Core<'_>, wire: &mut Wire, request: Request) -> Vec<u8> {
    send(core, wire, &render_request_v2(&request))
}

/// The bytes the server writes for `replies`, back to back.
fn bytes_of(replies: &[Reply]) -> Vec<u8> {
    let mut out = Vec::new();
    for reply in replies {
        render_reply_v2(&mut out, reply);
    }
    out
}

/// `bytes` read as exactly one error reply frame.
fn one_error(bytes: &[u8]) -> (ErrorCode, String) {
    let (frame, used) = decode_frame(bytes).unwrap();
    assert_eq!(used, bytes.len(), "exactly one reply frame");
    match parse_reply_v2(frame) {
        Ok(Reply::Err(code, message)) => (code, message),
        other => panic!("expected an error reply, got {other:?}"),
    }
}

#[test]
fn type_errors_are_coded_and_do_not_abort_the_connection() {
    let state = volatile();
    let mut core = state.core();
    let mut wire = greeted(&mut core);
    let (core, wire) = (&mut core, &mut wire);
    assert_eq!(
        say(core, wire, Request::Put(1, Value::Str("text".into()))),
        bytes_of(&[Reply::Ok])
    );
    let (code, message) = one_error(&say(core, wire, Request::Add(1, 5)));
    assert_eq!(code, ErrorCode::Type);
    assert!(message.contains("str"), "{message}");
    assert_eq!(
        one_error(&say(core, wire, Request::Sum(0, 10))).0,
        ErrorCode::Type
    );
    // The connection survives; int arithmetic still works.
    assert_eq!(say(core, wire, Request::Add(2, 5)), bytes_of(&[int(5)]));
    assert_eq!(say(core, wire, Request::Quit), bytes_of(&[Reply::Bye]));
}

/// An `EXEC` whose second op is not a runnable data op gets one error
/// naming that op and runs none of its ops; the connection goes on.
#[test]
fn a_hostile_exec_executes_nothing_and_keeps_framing() {
    let state = volatile();
    let mut core = state.core();
    let mut wire = greeted(&mut core);
    let (core, wire) = (&mut core, &mut wire);
    assert_eq!(
        say(core, wire, Request::Put(3, Value::Int(30))),
        bytes_of(&[Reply::Ok])
    );
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
        assert_eq!(
            send(core, wire, &bytes),
            bytes_of(&[Reply::err(code, format!("op 1: {wanted}"))])
        );
        assert_eq!(
            say(core, wire, Request::Get(3)),
            bytes_of(&[int(30)]),
            "{wanted}"
        );
        assert_eq!(say(core, wire, Request::Ping), bytes_of(&[Reply::Pong]));
    }
    let add = Request::Exec(vec![Request::Add(3, 1)]);
    assert_eq!(
        say(core, wire, add),
        bytes_of(&[Reply::Exec(vec![int(31)])])
    );
    assert_eq!(
        say(core, wire, Request::Exec(Vec::new())),
        bytes_of(&[Reply::Exec(Vec::new())])
    );
    assert_eq!(say(core, wire, Request::Quit), bytes_of(&[Reply::Bye]));
}

#[test]
fn exec_reply_nests_per_op_replies() {
    let state = volatile();
    let mut core = state.core();
    let mut wire = greeted(&mut core);
    let burst: Vec<u8> = [
        Request::Exec(vec![
            Request::Put(1, Value::Str("a".into())),
            Request::Add(2, 7),
            Request::Get(1),
        ]),
        Request::Quit,
    ]
    .iter()
    .flat_map(render_request_v2)
    .collect();
    assert_eq!(
        send(&mut core, &mut wire, &burst),
        bytes_of(&[
            Reply::Exec(vec![
                Reply::Ok,
                int(7),
                Reply::Value(Value::Str("a".into()))
            ]),
            Reply::Bye,
        ])
    );
}

#[test]
fn malformed_frame_reports_and_closes() {
    let state = volatile();
    let mut core = state.core();
    let mut wire = greeted(&mut core);
    let (code, message) = one_error(&send(&mut core, &mut wire, b"!garbage\n"));
    assert_eq!(code, ErrorCode::Proto);
    assert!(message.contains("malformed frame"), "{message}");
    assert!(wire.quit, "a malformed frame closes the connection");
    assert!(wire.inbuf.is_empty(), "nothing after it is kept");
}

/// Acknowledged implies durable, without a socket: `execute` returns a
/// `[PUT, GET]` burst's replies only once the log's durable watermark
/// covers the PUT's record. Nothing else waits on the log here, so without
/// the burst's barrier the record would still be pending.
#[test]
fn a_durable_burst_returns_once_its_put_is_durable() {
    let dir = std::env::temp_dir().join(format!("stm-kv-request-core-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let state = ServerState::open(&ServerConfig {
        wal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let wal = state.wal().expect("a wal_dir opens a log");
    let mut core = state.core();
    let mut wire = greeted(&mut core);
    let put = wal.last_seq() + 1;
    let burst: Vec<u8> = [Request::Put(7, Value::Int(70)), Request::Get(7)]
        .iter()
        .flat_map(render_request_v2)
        .collect();
    assert_eq!(
        send(&mut core, &mut wire, &burst),
        bytes_of(&[Reply::Ok, int(70)])
    );
    assert_eq!(wal.last_seq(), put, "the PUT is the burst's one record");
    let durable = wal.durable_seq();
    assert!(
        durable >= put,
        "replies returned with record {put} logged but durable_seq {durable}"
    );
    drop(core);
    drop(state);
    let _ = std::fs::remove_dir_all(&dir);
}
