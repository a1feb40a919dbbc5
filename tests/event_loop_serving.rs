//! End-to-end tests of the event-driven serving layer (`--serve-mode
//! events`): the readiness event loop must be byte-for-byte compatible
//! with the thread-per-connection pool under every framing torture the
//! kernel can inflict.
//!
//! - **Fragmented reads**: v2 frames delivered one byte at a time, and in
//!   seeded random splits, through a pipelined burst — the per-connection
//!   state machine must reassemble exactly the replies the pool would
//!   produce.
//! - **Cross-mode conservation**: the serializability witness (closed
//!   transfers over a fixed total) must hold under **every** contention
//!   manager in both serve modes.
//! - **Graceful drain**: a shutdown racing a pipelined in-flight burst
//!   must lose no replies in either mode.
//! - **Serving counters**: `conns_open` / `conns_accepted` /
//!   `conns_reaped_idle` / `partial_writes` must be visible through
//!   `KvClient::stats` and move when connections are opened, reaped by
//!   the idle wheel, or parked on a full socket.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use greedy_stm::cm::ManagerKind;
use greedy_stm::kv::proto::{decode_frame, parse_reply_v2, render_request_v2, FrameError};
use greedy_stm::kv::{KvClient, KvServer, Reply, Request, ServeMode, ServerConfig, Value};

const KEYS: i64 = 16;
const SEED_BALANCE: i64 = 100;
const TOTAL: i64 = KEYS * SEED_BALANCE;

fn start_server(manager: ManagerKind, serve_mode: ServeMode, workers: usize) -> KvServer {
    KvServer::start(ServerConfig {
        manager,
        capacity: 64,
        shards: 4,
        workers,
        serve_mode,
        event_shards: 2,
        ..ServerConfig::default()
    })
    .expect("server must start")
}

/// A deterministic little generator so the tests need no RNG plumbing.
fn scramble(x: u64) -> u64 {
    let mut x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    x ^= x >> 31;
    x.wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

/// Opens a raw v2 connection: performs the `HELLO 2` handshake over the
/// v1 line protocol and returns the stream positioned at frame boundary.
fn raw_v2(addr: std::net::SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.write_all(b"HELLO 2\n").unwrap();
    let mut hello = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        assert_eq!(stream.read(&mut byte).unwrap(), 1, "EOF during HELLO");
        if byte[0] == b'\n' {
            break;
        }
        hello.push(byte[0]);
    }
    assert!(
        hello.starts_with(b"HELLO 2"),
        "unexpected handshake reply: {:?}",
        String::from_utf8_lossy(&hello)
    );
    stream
}

/// Reads frames off `stream` until `count` replies have been decoded.
fn read_replies(stream: &mut TcpStream, count: usize) -> Vec<Reply> {
    let mut buf = Vec::new();
    let mut replies = Vec::new();
    let mut chunk = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(20);
    while replies.len() < count {
        assert!(Instant::now() < deadline, "timed out waiting for replies");
        loop {
            match decode_frame(&buf) {
                Ok((frame, used)) => {
                    buf.drain(..used);
                    replies.push(parse_reply_v2(frame).expect("well-formed reply"));
                    if replies.len() == count {
                        break;
                    }
                }
                Err(FrameError::Incomplete) => break,
                Err(FrameError::Malformed(err)) => panic!("malformed reply frame: {err}"),
            }
        }
        if replies.len() == count {
            break;
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "EOF after {} of {count} replies", replies.len());
        buf.extend_from_slice(&chunk[..n]);
    }
    replies
}

/// Builds one pipelined burst: `puts` PUTs, a closed transfer batch, a GET
/// and a SUM audit. Returns the bytes and the expected reply count.
fn pipelined_burst(puts: i64) -> (Vec<u8>, usize) {
    let mut bytes = Vec::new();
    let mut replies = 0usize;
    for key in 0..puts {
        bytes.extend_from_slice(&render_request_v2(&Request::Put(key, Value::Int(SEED_BALANCE))));
        replies += 1;
    }
    for req in [
        Request::Begin,
        Request::Add(0, -7),
        Request::Add(1, 7),
        Request::Exec,
        Request::Get(0),
        Request::Sum(0, puts - 1),
    ] {
        bytes.extend_from_slice(&render_request_v2(&req));
        replies += 1;
    }
    (bytes, replies)
}

fn assert_burst_replies(replies: &[Reply], puts: i64) {
    let n = replies.len();
    // PUTs then BEGIN/ADD/ADD all acknowledge.
    for reply in &replies[..n - 3] {
        assert!(
            matches!(reply, Reply::Ok | Reply::Queued),
            "unexpected ack: {reply:?}"
        );
    }
    assert!(
        matches!(&replies[n - 3], Reply::Exec(inner) if inner.len() == 2),
        "EXEC reply: {:?}",
        replies[n - 3]
    );
    assert!(
        matches!(&replies[n - 2], Reply::Value(Value::Int(v)) if *v == SEED_BALANCE - 7),
        "GET after transfer: {:?}",
        replies[n - 2]
    );
    assert!(
        matches!(replies[n - 1], Reply::Sum(total, count)
            if total == puts * SEED_BALANCE && count == puts as usize),
        "SUM audit: {:?}",
        replies[n - 1]
    );
}

#[test]
fn one_byte_fragments_reassemble_through_the_event_loop() {
    let mut server = start_server(ManagerKind::Greedy, ServeMode::Events, 2);
    let mut stream = raw_v2(server.addr());
    let (bytes, expected) = pipelined_burst(8);
    // Worst-case framing torture: every byte in its own TCP segment
    // (nodelay), with periodic pauses so the event loop actually wakes up
    // mid-frame instead of coalescing the whole burst in one read.
    for (i, byte) in bytes.iter().enumerate() {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        if i % 23 == 0 {
            thread::sleep(Duration::from_millis(1));
        }
    }
    let replies = read_replies(&mut stream, expected);
    assert_burst_replies(&replies, 8);
    drop(stream);
    server.shutdown();
}

#[test]
fn seeded_random_fragments_reassemble_through_the_event_loop() {
    let mut server = start_server(ManagerKind::Greedy, ServeMode::Events, 2);
    for seed in [3u64, 17, 451] {
        let mut stream = raw_v2(server.addr());
        let (bytes, expected) = pipelined_burst(8);
        let mut sent = 0usize;
        let mut roll = seed;
        while sent < bytes.len() {
            roll = scramble(roll);
            let chunk = 1 + (roll % 13) as usize;
            let end = (sent + chunk).min(bytes.len());
            stream.write_all(&bytes[sent..end]).unwrap();
            sent = end;
            if roll % 3 == 0 {
                thread::sleep(Duration::from_millis(1));
            }
        }
        let replies = read_replies(&mut stream, expected);
        assert_burst_replies(&replies, 8);
    }
    server.shutdown();
}

#[test]
fn both_serve_modes_conserve_balance_under_every_manager() {
    for serve_mode in [ServeMode::Threads, ServeMode::Events] {
        for manager in ManagerKind::ALL {
            let clients = 2usize;
            let batches_per_client = 15usize;
            let mut server = start_server(manager, serve_mode, clients + 1);
            let addr = server.addr();
            let mut setup = KvClient::connect(addr).unwrap();
            for key in 0..KEYS {
                setup.put(key, SEED_BALANCE).unwrap();
            }
            thread::scope(|scope| {
                for c in 0..clients {
                    scope.spawn(move || {
                        let mut client = KvClient::connect(addr).unwrap();
                        for i in 0..batches_per_client {
                            let roll = scramble((c * batches_per_client + i) as u64);
                            let from = (roll % KEYS as u64) as i64;
                            let to = ((roll >> 8) % KEYS as u64) as i64;
                            let amount = ((roll >> 16) % 40) as i64 + 1;
                            client.transfer(from, to, amount).unwrap_or_else(|e| {
                                panic!("{manager}/{serve_mode:?}: transfer failed: {e}")
                            });
                            if i % 5 == 0 {
                                let (sum, _) = client.sum(0, KEYS - 1).unwrap();
                                assert_eq!(
                                    sum, TOTAL,
                                    "{manager}/{serve_mode:?}: torn mid-run audit"
                                );
                            }
                        }
                        client.quit().unwrap();
                    });
                }
            });
            let (sum, count) = setup.sum(0, KEYS - 1).unwrap();
            assert_eq!(sum, TOTAL, "{manager}/{serve_mode:?}: final total drifted");
            assert_eq!(count, KEYS as usize);
            setup.quit().unwrap();
            server.shutdown();
            assert_eq!(
                server.conns_open(),
                0,
                "{manager}/{serve_mode:?}: conns_open leaked after shutdown"
            );
        }
    }
}

#[test]
fn shutdown_drains_pipelined_inflight_replies_in_both_modes() {
    for serve_mode in [ServeMode::Threads, ServeMode::Events] {
        let mut server = start_server(ManagerKind::Greedy, serve_mode, 2);
        let mut stream = raw_v2(server.addr());
        let (bytes, expected) = pipelined_burst(12);
        stream.write_all(&bytes).unwrap();
        // Shut down while the burst is (potentially) still being parsed,
        // executed, or flushed. The drain path must deliver every reply
        // before the connection closes.
        server.shutdown();
        let replies = read_replies(&mut stream, expected);
        assert_burst_replies(&replies, 12);
        // After the drained replies the server closes cleanly: EOF, not a
        // reset or a stray extra frame.
        let mut rest = Vec::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        match stream.read_to_end(&mut rest) {
            Ok(_) => assert!(
                rest.is_empty(),
                "{serve_mode:?}: unexpected trailing bytes: {rest:?}"
            ),
            Err(err) => panic!("{serve_mode:?}: expected clean EOF, got {err}"),
        }
        // The drain really closed (and un-counted) everything: once
        // shutdown has returned and every serving thread is joined, the
        // open-connections gauge must be back to zero in both modes.
        assert_eq!(
            server.conns_open(),
            0,
            "{serve_mode:?}: conns_open leaked across a graceful drain"
        );
    }
}

#[test]
fn idle_connections_are_reaped_and_counted() {
    let mut server = KvServer::start(ServerConfig {
        manager: ManagerKind::Greedy,
        capacity: 64,
        shards: 4,
        workers: 2,
        serve_mode: ServeMode::Events,
        event_shards: 2,
        idle_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let mut control = KvClient::connect(addr).unwrap();
    let conns_open = "stm_kv_conns_open";
    let conns_accepted = "stm_kv_connections_total";
    let conns_reaped_idle = "stm_kv_conns_reaped_idle_total";
    let base = control.metrics().unwrap();
    // Three connections that go silent; the control connection keeps
    // touching its own activity clock via METRICS polls, so it survives.
    let idle: Vec<KvClient> = (0..3).map(|_| KvClient::connect(addr).unwrap()).collect();
    let open_now = control.metrics().unwrap();
    assert!(
        open_now.counter(conns_open) >= base.counter(conns_open) + 3,
        "idle connections must register as open: {} -> {}",
        base.counter(conns_open),
        open_now.counter(conns_open)
    );
    assert!(open_now.counter(conns_accepted) >= base.counter(conns_accepted) + 3);
    let deadline = Instant::now() + Duration::from_secs(10);
    let reaped = loop {
        let stats = control.metrics().unwrap();
        if stats.counter(conns_reaped_idle) >= base.counter(conns_reaped_idle) + 3 {
            break stats.counter(conns_reaped_idle);
        }
        assert!(
            Instant::now() < deadline,
            "idle wheel never reaped the silent connections: {}",
            stats.text
        );
        thread::sleep(Duration::from_millis(25));
    };
    assert!(reaped >= 3);
    // The reaped connections are really gone, not just counted.
    let after = control.metrics().unwrap();
    assert!(
        after.counter(conns_open) <= open_now.counter(conns_open) - 3,
        "reaped connections still open: {} -> {}",
        open_now.counter(conns_open),
        after.counter(conns_open)
    );
    drop(idle);
    control.quit().unwrap();
    server.shutdown();
}

#[test]
fn slow_reader_parks_writes_and_counts_partial_flushes() {
    let mut server = start_server(ManagerKind::Greedy, ServeMode::Events, 2);
    let addr = server.addr();
    let mut control = KvClient::connect(addr).unwrap();
    // A value big enough that a pipelined burst of GETs overflows any
    // socket buffer pair: the shard must park the flush on write
    // readiness instead of blocking its whole event loop.
    let payload = "x".repeat(256 * 1024);
    control.put(-1, payload.clone()).unwrap();

    let mut stream = raw_v2(addr);
    let gets = 40usize;
    let mut bytes = Vec::new();
    for _ in 0..gets {
        bytes.extend_from_slice(&render_request_v2(&Request::Get(-1)));
    }
    stream.write_all(&bytes).unwrap();
    // Do not read yet: let the server hit WouldBlock on the ~10 MB of
    // replies it now owes this connection.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = control.metrics().unwrap();
        if stats.counter("stm_kv_partial_writes_total") > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no partial write registered while the reader stalled: {}",
            stats.text
        );
        thread::sleep(Duration::from_millis(10));
    }
    // Now drain: every reply must arrive intact once write readiness
    // resumes the flush.
    let replies = read_replies(&mut stream, gets);
    for reply in &replies {
        assert!(
            matches!(reply, Reply::Value(Value::Str(s)) if s.len() == payload.len()),
            "corrupt large reply: {reply:?}"
        );
    }
    drop(stream);
    control.quit().unwrap();
    server.shutdown();
}
