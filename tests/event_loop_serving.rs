//! End-to-end tests of the serving layer, the readiness event loop, under
//! every framing torture the kernel — or a hostile peer — can inflict.
//!
//! - **The preamble rule**: `HELLO 2` (any case, `\r` tolerated) is answered
//!   byte-for-byte; any other first line, and any line a peer never ends,
//!   gets one `-PROTO` error frame and a close.
//! - **Fragmented reads**: frames delivered one byte at a time, and in
//!   seeded random splits, through a pipelined burst — the per-connection
//!   state machine must reassemble exactly the replies of one whole write.
//! - **Conservation**: the serializability witness (closed transfers over
//!   a fixed total) must hold under **every** contention manager.
//! - **Graceful drain**: a shutdown racing a pipelined in-flight burst
//!   must lose no replies, and a peer that never reads its replies costs
//!   the drain one bounded flush, not a hang.
//! - **Round-robin dealing**: shard 0 deals accepted connections evenly
//!   over the shards.
//! - **No starvation by idle peers**: with up to 2,000 greeted connections
//!   sitting idle (as many as the open-files limit allows, 64 at least),
//!   the next is answered at once.
//! - **Serving counters**: `conns_open` / `conns_accepted` /
//!   `conns_reaped_idle` / `partial_writes` must be visible through
//!   `METRICS` and move when connections are opened, reaped by the idle
//!   scan, or parked on a full socket; a burst sent in one write costs one
//!   socket read (`stm_kv_socket_reads_total`).

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use greedy_stm::cm::ManagerKind;
use greedy_stm::kv::proto::{
    decode_frame, parse_reply_v2, render_request_v2, MAX_HEADER_BYTES, PREAMBLE,
};
use greedy_stm::kv::{ErrorCode, KvClient, KvError, KvServer, Reply, Request, ServerConfig, Value};

const KEYS: i64 = 16;
const SEED_BALANCE: i64 = 100;
const TOTAL: i64 = KEYS * SEED_BALANCE;

fn start_server(manager: ManagerKind) -> KvServer {
    KvServer::start(ServerConfig {
        manager,
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

/// Reads the next `count` replies off a raw-frame connection.
fn read_replies(client: &mut KvClient, count: usize) -> Vec<Reply> {
    (0..count)
        .map(|i| {
            client
                .recv()
                .unwrap_or_else(|err| panic!("reply {i} of {count}: {err}"))
        })
        .collect()
}

/// Builds one pipelined burst: `puts` PUTs, a closed transfer batch, a GET
/// and a SUM audit. Returns the bytes and the expected reply count.
fn pipelined_burst(puts: i64) -> (Vec<u8>, usize) {
    let mut bytes = Vec::new();
    let mut replies = 0usize;
    for key in 0..puts {
        bytes.extend_from_slice(&render_request_v2(&Request::Put(
            key,
            Value::Int(SEED_BALANCE),
        )));
        replies += 1;
    }
    for req in [
        Request::Exec(vec![Request::Add(0, -7), Request::Add(1, 7)]),
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
    // The PUTs all acknowledge.
    for reply in &replies[..n - 3] {
        assert_eq!(*reply, Reply::Ok, "unexpected ack");
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

/// Writes `bytes` as a connection's first bytes and returns everything the
/// server sends until it closes the connection.
fn first_bytes_until_close(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(bytes).unwrap();
    let mut answer = Vec::new();
    stream
        .read_to_end(&mut answer)
        .unwrap_or_else(|err| panic!("no answer and close within the timeout: {err}"));
    answer
}

/// Asserts `answer` is exactly one `-PROTO` error frame.
fn assert_one_proto_error(answer: &[u8], context: &str) -> String {
    let shown = String::from_utf8_lossy(answer);
    let (frame, used) =
        decode_frame(answer).unwrap_or_else(|err| panic!("{context}: {err:?}: {shown:?}"));
    assert_eq!(
        used,
        answer.len(),
        "{context}: more than one frame: {shown:?}"
    );
    match parse_reply_v2(frame) {
        Ok(Reply::Err(ErrorCode::Proto, message)) => message,
        other => panic!("{context}: expected a -PROTO error frame, got {other:?}"),
    }
}

// The name predates one serve mode: the server has only the event loop.
#[test]
fn a_first_line_other_than_hello_2_is_answered_and_closed_in_both_modes() {
    let mut server = start_server(ManagerKind::Greedy);
    let addr = server.addr();
    for line in ["GET 1\n", "HELLO 1\n", "HELLO 3\n", "\n", "*1\n+PING\n"] {
        let context = format!("{line:?}");
        let answer = first_bytes_until_close(addr, line.as_bytes());
        let message = assert_one_proto_error(&answer, &context);
        assert!(message.contains("HELLO 2"), "{context}: {message}");
    }
    // The preamble itself is matched trimmed and in any case, and is
    // answered with the exact bytes whatever its spelling.
    let mut burst = b"hello 2\r\n".to_vec();
    burst.extend_from_slice(&render_request_v2(&Request::Ping));
    burst.extend_from_slice(&render_request_v2(&Request::Quit));
    let answer = first_bytes_until_close(addr, &burst);
    assert_eq!(&answer[..PREAMBLE.len()], PREAMBLE);
    assert_eq!(&answer[PREAMBLE.len()..], b"+PONG\n+BYE\n");
    server.shutdown();
    assert_eq!(server.conns_open(), 0, "a refused connection leaked");
}

/// A peer that never sends `\n` — before the preamble, or inside a frame
/// header — is refused as soon as its line outgrows `MAX_HEADER_BYTES`: the
/// server does not wait for (or buffer) the rest.
#[test]
fn a_line_that_never_ends_is_refused_at_the_cap() {
    let mut server = start_server(ManagerKind::Greedy);
    let addr = server.addr();
    for greeted in [false, true] {
        let context = format!("greeted={greeted}");
        // What the server sent after answering the preamble, if it got one.
        let refusal = |answer: &[u8]| match greeted {
            true => answer
                .strip_prefix(PREAMBLE)
                .expect("the preamble is answered")
                .to_vec(),
            false => answer.to_vec(),
        };
        // One byte past the cap, then silence: the refusal must not need
        // another byte.
        let mut hostile = if greeted {
            PREAMBLE.to_vec()
        } else {
            Vec::new()
        };
        hostile.extend_from_slice(&[b'+'; MAX_HEADER_BYTES + 1]);
        let answer = first_bytes_until_close(addr, &hostile);
        let message = assert_one_proto_error(&refusal(&answer), &context);
        assert!(message.contains("too long"), "{context}: {message}");

        // A flood: 8 MiB without a newline. The server answers and closes
        // while the flood is still arriving; it never holds it.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        if greeted {
            stream.write_all(PREAMBLE).unwrap();
        }
        let mut flood = stream.try_clone().unwrap();
        let writer = thread::spawn(move || {
            let block = [b'x'; 64 * 1024];
            // Ends early with EPIPE/ECONNRESET once the server closes.
            (0..128)
                .take_while(|_| flood.write_all(&block).is_ok())
                .count()
        });
        let mut answer = Vec::new();
        // The close may surface as a reset (unread flood bytes) after the
        // error frame has been delivered.
        let _ = stream.read_to_end(&mut answer);
        assert_one_proto_error(&refusal(&answer), &format!("{context}/flood"));
        writer.join().unwrap();
    }
    // The server is still serving.
    let mut client = KvClient::connect(addr).unwrap();
    client.ping().unwrap();
    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn one_byte_fragments_reassemble_through_the_event_loop() {
    let mut server = start_server(ManagerKind::Greedy);
    let mut stream = KvClient::connect(server.addr()).unwrap();
    let (bytes, expected) = pipelined_burst(8);
    // Worst-case framing torture: every byte in its own TCP segment
    // (nodelay), with periodic pauses so the event loop actually wakes up
    // mid-frame instead of coalescing the whole burst in one read.
    for (i, byte) in bytes.iter().enumerate() {
        stream.send_raw(std::slice::from_ref(byte)).unwrap();
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
    let mut server = start_server(ManagerKind::Greedy);
    for seed in [3u64, 17, 451] {
        let mut stream = KvClient::connect(server.addr()).unwrap();
        let (bytes, expected) = pipelined_burst(8);
        let mut sent = 0usize;
        let mut roll = seed;
        while sent < bytes.len() {
            roll = scramble(roll);
            let chunk = 1 + (roll % 13) as usize;
            let end = (sent + chunk).min(bytes.len());
            stream.send_raw(&bytes[sent..end]).unwrap();
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
fn served_transfers_conserve_balance_under_every_manager() {
    for manager in ManagerKind::ALL {
        let clients = 2usize;
        let batches_per_client = 15usize;
        let mut server = start_server(manager);
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
                        client
                            .transfer(from, to, amount)
                            .unwrap_or_else(|e| panic!("{manager}: transfer failed: {e}"));
                        if i % 5 == 0 {
                            let (sum, _) = client.sum(0, KEYS - 1).unwrap();
                            assert_eq!(sum, TOTAL, "{manager}: torn mid-run audit");
                        }
                    }
                    client.quit().unwrap();
                });
            }
        });
        let (sum, count) = setup.sum(0, KEYS - 1).unwrap();
        assert_eq!(sum, TOTAL, "{manager}: final total drifted");
        assert_eq!(count, KEYS as usize);
        setup.quit().unwrap();
        server.shutdown();
        assert_eq!(
            server.conns_open(),
            0,
            "{manager}: conns_open leaked after shutdown"
        );
    }
}

#[test]
fn shutdown_drains_pipelined_inflight_replies() {
    let mut server = start_server(ManagerKind::Greedy);
    let mut stream = KvClient::connect(server.addr()).unwrap();
    let (bytes, expected) = pipelined_burst(12);
    stream.send_raw(&bytes).unwrap();
    // Shut down while the burst is (potentially) still being parsed,
    // executed, or flushed. The drain path must deliver every reply before
    // the connection closes.
    server.shutdown();
    let replies = read_replies(&mut stream, expected);
    assert_burst_replies(&replies, 12);
    // After the drained replies the server closes cleanly: EOF, not a reset
    // or a stray extra frame.
    match stream.recv() {
        Err(KvError::Io(err)) if err.kind() == ErrorKind::UnexpectedEof => assert!(
            !err.to_string().contains("mid-frame"),
            "unexpected trailing bytes: {err}"
        ),
        other => panic!("expected clean EOF, got {other:?}"),
    }
    // The drain really closed (and un-counted) everything: once shutdown
    // has returned and every shard is joined, the open-connections gauge
    // must be back to zero.
    assert_eq!(
        server.conns_open(),
        0,
        "conns_open leaked across a graceful drain"
    );
}

/// Shard 0 deals accepted connections round-robin over the shards: with
/// two shards, four greeted connections sit two on each.
#[test]
fn accepted_connections_are_dealt_round_robin_over_the_shards() {
    let mut server = start_server(ManagerKind::Greedy);
    let mut clients: Vec<KvClient> = (0..4)
        .map(|_| KvClient::connect(server.addr()).unwrap())
        .collect();
    let metrics = clients[3].metrics().unwrap();
    for shard in 0..2 {
        assert_eq!(
            metrics.value(&format!("stm_kv_shard_conns{{shard=\"{shard}\"}}")),
            Some(2),
            "shard {shard}: {}",
            metrics.text
        );
    }
    drop(clients);
    server.shutdown();
}

/// A peer that pipelines more reply bytes than the loopback socket buffers
/// hold and never reads costs the drain one flush budget, not a hang; a
/// second connection's pipelined burst still gets every reply, and the
/// drain closes both.
#[test]
fn shutdown_drains_past_a_peer_that_never_reads() {
    /// The drain's write timeout (`DRAIN_FLUSH_BUDGET`), plus slack.
    const DRAIN_BOUND: Duration = Duration::from_secs(2 + 3);
    let mut server = start_server(ManagerKind::Greedy);
    let addr = server.addr();
    let mut control = KvClient::connect(addr).unwrap();
    control.put(-1, vec![7u8; 1 << 20]).unwrap();

    let mut deaf = KvClient::connect(addr).unwrap();
    let gets: Vec<u8> = (0..32)
        .flat_map(|_| render_request_v2(&Request::Get(-1)))
        .collect();
    deaf.send_raw(&gets).unwrap();
    // Wait until the server has parked a tail for the deaf peer.
    let deadline = Instant::now() + Duration::from_secs(10);
    while control
        .metrics()
        .unwrap()
        .counter("stm_kv_partial_writes_total")
        == 0
    {
        assert!(Instant::now() < deadline, "no reply tail was parked");
        thread::sleep(Duration::from_millis(10));
    }

    let mut reader = KvClient::connect(addr).unwrap();
    let (bytes, expected) = pipelined_burst(12);
    reader.send_raw(&bytes).unwrap();
    // Shut down on a helper thread, so a drain that hangs fails the test.
    let (done_tx, done) = std::sync::mpsc::channel();
    let shutting_down = thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(server);
    });
    let server = done
        .recv_timeout(DRAIN_BOUND)
        .unwrap_or_else(|_| panic!("shutdown did not return within {DRAIN_BOUND:?}"));
    shutting_down.join().unwrap();
    assert_burst_replies(&read_replies(&mut reader, expected), 12);
    assert_eq!(server.conns_open(), 0, "the drain left connections open");
    drop((control, deaf));
}

/// How many idle connections the fleet test holds: 2,000 where the soft
/// open-files limit allows it, never fewer than 64. Both ends of a loopback
/// connection are descriptors of this process, and 256 are left over for
/// everything else; an unreadable limit means 64.
fn idle_fleet_size() -> usize {
    let soft = std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|limits| {
            let line = limits
                .lines()
                .find(|line| line.starts_with("Max open files"))?;
            match line.split_whitespace().nth(3)? {
                "unlimited" => Some(usize::MAX),
                soft => soft.parse().ok(),
            }
        });
    soft.map_or(64, |soft: usize| {
        (soft.saturating_sub(256) / 2).clamp(64, 2_000)
    })
}

/// A fleet of connections that said `HELLO 2` and went quiet must not keep
/// the next one from being served: its `PING` is answered within a second,
/// and the server counts the whole fleet and it open.
#[test]
fn an_idle_fleet_does_not_starve_the_next_connection() {
    let idle_count = idle_fleet_size();
    println!("idle fleet: {idle_count} connections");
    let patience = Duration::from_secs(1);
    let server = KvServer::start(ServerConfig::default()).unwrap();
    let dial = |hello: &[u8]| {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(patience)).unwrap();
        stream.write_all(hello).unwrap();
        stream
    };
    let idle: Vec<TcpStream> = (0..idle_count).map(|_| dial(PREAMBLE)).collect();

    let mut hello_ping = PREAMBLE.to_vec();
    hello_ping.extend_from_slice(&render_request_v2(&Request::Ping));
    let started = Instant::now();
    let mut last = dial(&hello_ping);
    let mut answer = [0u8; 14];
    last.read_exact(&mut answer).unwrap_or_else(|err| {
        panic!("no PONG within {patience:?} behind {idle_count} idle connections: {err}")
    });
    assert!(
        started.elapsed() < patience,
        "PONG took {:?}",
        started.elapsed()
    );
    assert_eq!(&answer, b"HELLO 2\n+PONG\n");

    // Every idle peer was greeted back, so each one is registered.
    for (i, mut stream) in idle.iter().enumerate() {
        let mut greeting = [0u8; 8];
        stream
            .read_exact(&mut greeting)
            .unwrap_or_else(|err| panic!("idle connection {i} never greeted: {err}"));
        assert_eq!(&greeting, PREAMBLE);
    }
    assert_eq!(server.conns_open(), idle_count as u64 + 1);
}

#[test]
fn idle_connections_are_reaped_and_counted() {
    let mut server = KvServer::start(ServerConfig {
        manager: ManagerKind::Greedy,
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
            "idle scan never reaped the silent connections: {}",
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
fn a_burst_sent_in_one_write_takes_one_socket_read() {
    let mut server = start_server(ManagerKind::Greedy);
    let mut client = KvClient::connect(server.addr()).unwrap();
    client.put(1, 10).unwrap();
    let reads = |client: &mut KvClient| {
        client
            .metrics()
            .unwrap()
            .counter("stm_kv_socket_reads_total")
    };
    // What one METRICS request costs on its own: its reads land before the
    // exposition is rendered.
    let first = reads(&mut client);
    let second = reads(&mut client);
    let per_metrics = second - first;
    let gets = 64;
    let mut burst = Vec::new();
    for _ in 0..gets {
        burst.extend_from_slice(&render_request_v2(&Request::Get(1)));
    }
    client.send_raw(&burst).unwrap();
    for reply in read_replies(&mut client, gets) {
        assert_eq!(reply, Reply::Value(Value::Int(10)));
    }
    let third = reads(&mut client);
    assert_eq!(
        (per_metrics, third - second - per_metrics),
        (1, 1),
        "(reads per METRICS request, reads for a {}-byte burst of {gets} GETs)",
        burst.len()
    );
    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn slow_reader_parks_writes_and_counts_partial_flushes() {
    let mut server = start_server(ManagerKind::Greedy);
    let addr = server.addr();
    let mut control = KvClient::connect(addr).unwrap();
    // A value big enough that a pipelined burst of GETs overflows any
    // socket buffer pair: the shard must park the flush on write
    // readiness instead of blocking its whole event loop.
    let payload = "x".repeat(256 * 1024);
    control.put(-1, payload.clone()).unwrap();

    let mut stream = KvClient::connect(addr).unwrap();
    let gets = 40usize;
    let mut bytes = Vec::new();
    for _ in 0..gets {
        bytes.extend_from_slice(&render_request_v2(&Request::Get(-1)));
    }
    stream.send_raw(&bytes).unwrap();
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
