//! End-to-end tests of the `stm-kv` server: concurrent clients drive
//! multi-key `EXEC` batches through a live TCP server and the
//! executions must be serializable under **every** contention manager.
//!
//! The serializability witness is balance conservation: the keyspace is
//! seeded with a fixed total, every batch is a closed transfer (two `ADD`s
//! summing to zero), and every `SUM` audit — issued concurrently with the
//! transfers — must observe exactly the seeded total. A torn or
//! non-serializable execution shows up as a drifted sum either mid-run or
//! at the end.
//!
//! Every client speaks frames (typed values, coded errors); the durable
//! tests restart the server on its WAL directory and prove the typed
//! keyspace recovers losslessly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use greedy_stm::cm::ManagerKind;
use greedy_stm::kv::{KvClient, KvError, KvServer, MetricsSnapshot, ServerConfig, Value};

const KEYS: i64 = 16;
const SEED_BALANCE: i64 = 100;
const TOTAL: i64 = KEYS * SEED_BALANCE;

fn start_server(manager: ManagerKind) -> KvServer {
    KvServer::start(ServerConfig {
        manager,
        ..ServerConfig::default()
    })
    .expect("server must start")
}

fn seed_balances(addr: std::net::SocketAddr) {
    let mut client = KvClient::connect(addr).unwrap();
    for key in 0..KEYS {
        client.put(key, SEED_BALANCE).unwrap();
    }
    assert_eq!(client.sum(0, KEYS - 1).unwrap(), (TOTAL, KEYS as usize));
    client.quit().unwrap();
}

/// A deterministic little generator so the test needs no RNG plumbing.
fn scramble(x: u64) -> u64 {
    let mut x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    x ^= x >> 31;
    x.wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

#[test]
fn concurrent_batches_are_serializable_under_every_manager() {
    for manager in ManagerKind::ALL {
        let clients = 4usize;
        let batches_per_client = 30usize;
        let mut server = start_server(manager);
        let addr = server.addr();
        seed_balances(addr);

        let audits_ok = Arc::new(AtomicU64::new(0));
        thread::scope(|scope| {
            for c in 0..clients {
                let audits_ok = Arc::clone(&audits_ok);
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
                        // Typed PUTs beside the int range: string values on
                        // the mirrored negative keys must not disturb the
                        // arithmetic the audits sum.
                        if i % 3 == 0 {
                            client
                                .put(-(from + 1), format!("v={roll:x}"))
                                .unwrap_or_else(|e| panic!("{manager}: string PUT failed: {e}"));
                        }
                        // Interleave atomic audits with the transfers: each
                        // must observe the conserved total even while other
                        // clients' batches are in flight.
                        if i % 5 == 0 {
                            let (sum, count) = client
                                .sum(0, KEYS - 1)
                                .unwrap_or_else(|e| panic!("{manager}: SUM failed: {e}"));
                            assert_eq!(
                                sum, TOTAL,
                                "{manager}: mid-run audit observed a torn total"
                            );
                            assert_eq!(count, KEYS as usize);
                            audits_ok.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    client.quit().unwrap();
                });
            }
        });
        assert!(
            audits_ok.load(Ordering::Relaxed) >= (clients * batches_per_client / 5) as u64,
            "{manager}: audits did not run"
        );

        // Final audit over a fresh connection, then an in-process audit
        // through the server's own store handle — both must agree.
        let mut auditor = KvClient::connect(addr).unwrap();
        assert_eq!(
            auditor.sum(0, KEYS - 1).unwrap(),
            (TOTAL, KEYS as usize),
            "{manager}: wire-level final total drifted"
        );
        let strings = auditor.range(-KEYS, -1).unwrap();
        assert!(
            !strings.is_empty() && strings.iter().all(|(_, v)| v.as_str().is_some()),
            "{manager}: the negative half must hold the string values: {strings:?}"
        );
        let stats = auditor.metrics().unwrap();
        assert!(
            stats.counter("stm_kv_batches_total") >= (clients * batches_per_client) as u64,
            "{manager}: server executed {} batches, expected at least {}",
            stats.counter("stm_kv_batches_total"),
            clients * batches_per_client
        );
        assert!(
            stats.counter("stm_kv_cells_allocated") >= KEYS as u64,
            "{manager}: METRICS must report keyspace growth, got {}",
            stats.text
        );
        auditor.quit().unwrap();
        let in_process = {
            let store = server.store();
            let mut ctx = server.stm().thread();
            ctx.atomically(|tx| store.sum(tx, 0, KEYS - 1))
                .unwrap()
                .unwrap()
        };
        assert_eq!(
            in_process,
            (TOTAL, KEYS as usize),
            "{manager}: in-process final total drifted"
        );

        // Clean shutdown: drains and joins every shard.
        server.shutdown();
    }
}

#[test]
fn server_survives_client_errors_and_disconnects() {
    let mut server = start_server(ManagerKind::GreedyTimeout);
    let addr = server.addr();

    // A client that vanishes mid-batch must not wedge its shard.
    {
        let mut rude = KvClient::connect(addr).unwrap();
        rude.put(0, 1).unwrap();
        drop(rude); // no QUIT
    }
    // Dynamic keyspace: far-out keys are legal, and the connection survives
    // a durability request the volatile server must refuse — with a coded
    // error, not an opaque string.
    let mut client = KvClient::connect(addr).unwrap();
    assert_eq!(client.get(KEYS * 10).unwrap(), None);
    match client.snapshot().unwrap_err() {
        KvError::Server { code, message } => {
            assert_eq!(code, greedy_stm::kv::ErrorCode::Wal, "{message}");
            assert!(message.contains("durability disabled"), "{message}");
        }
        other => panic!("expected coded server error, got {other}"),
    }
    client.ping().unwrap();
    assert_eq!(client.get(0).unwrap(), Some(Value::Int(1)));
    client.quit().unwrap();
    server.shutdown();
}

fn temp_wal_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "stm-kv-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_durable_server(
    manager: ManagerKind,
    dir: &std::path::Path,
    snapshot_every: u64,
) -> KvServer {
    KvServer::start(ServerConfig {
        manager,
        wal_dir: Some(dir.to_path_buf()),
        snapshot_every,
        ..ServerConfig::default()
    })
    .expect("durable server must start")
}

/// The restart-preserves-conservation test: concurrent wire transfers hit a
/// durable server; the server is shut down mid-history and restarted on the
/// same log directory; the recovered keyspace must hold exactly the
/// conserved total — every acknowledged transfer either fully applied or
/// fully absent, never torn.
#[test]
fn restart_preserves_balance_conservation() {
    for manager in [ManagerKind::Greedy, ManagerKind::Karma] {
        let dir = temp_wal_dir("conserve");
        let clients = 4usize;
        let batches_per_client = 25usize;
        {
            let mut server = start_durable_server(manager, &dir, 40);
            let addr = server.addr();
            seed_balances(addr);
            thread::scope(|scope| {
                for c in 0..clients {
                    scope.spawn(move || {
                        let mut client = KvClient::connect(addr).unwrap();
                        for i in 0..batches_per_client {
                            let roll = scramble((c * batches_per_client + i) as u64 ^ 0xD00D);
                            let from = (roll % KEYS as u64) as i64;
                            let to = ((roll >> 8) % KEYS as u64) as i64;
                            let amount = ((roll >> 16) % 40) as i64 + 1;
                            client
                                .transfer(from, to, amount)
                                .unwrap_or_else(|e| panic!("{manager}: transfer failed: {e}"));
                        }
                        client.quit().unwrap();
                    });
                }
            });
            server.shutdown();
        }
        // Restart on the same directory: snapshot + tail replay must
        // reconstruct a state some serial execution produced.
        let mut server = start_durable_server(manager, &dir, 0);
        let mut auditor = KvClient::connect(server.addr()).unwrap();
        assert_eq!(
            auditor.sum(0, KEYS - 1).unwrap(),
            (TOTAL, KEYS as usize),
            "{manager}: recovered keyspace lost or tore a committed transfer"
        );
        // `next_seq` survives restarts: every seeding PUT and every transfer
        // batch was one log record, so the sequence space must cover them.
        let next_seq = auditor.metrics().unwrap().counter("stm_wal_next_seq");
        assert!(
            next_seq > (clients * batches_per_client + KEYS as usize) as u64,
            "{manager}: expected every batch logged, next_seq={next_seq}"
        );
        auditor.quit().unwrap();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Typed values survive the full durability loop: strings and blobs written
/// over the wire (newlines, NULs, multi-byte UTF-8), snapshot taken mid-history,
/// more typed writes, restart — everything must come back byte-exact.
#[test]
fn restart_recovers_typed_values_through_snapshot_and_tail() {
    let dir = temp_wal_dir("typed");
    let text_snap = "snapshotted\nstring \0 with — ✓ 🦀";
    let text_tail = "tail\u{0}string\nafter the cut";
    let blob: Vec<u8> = vec![0, 255, 10, 13, 0, 42];
    {
        let mut server = start_durable_server(ManagerKind::Greedy, &dir, 0);
        let mut client = KvClient::connect(server.addr()).unwrap();
        client.put(1, text_snap).unwrap();
        client.put(2, blob.clone()).unwrap();
        client.put(3, 300).unwrap();
        let (seq, keys) = client.snapshot().unwrap();
        assert!(seq > 0);
        assert_eq!(keys, 3);
        // Post-snapshot tail: an overwrite and a fresh typed key.
        client.put(1, text_tail).unwrap();
        client.put(-7, "negative key survives too").unwrap();
        client.del(3).unwrap();
        client.quit().unwrap();
        server.shutdown();
    }
    let mut server = start_durable_server(ManagerKind::Greedy, &dir, 0);
    let mut client = KvClient::connect(server.addr()).unwrap();
    assert_eq!(client.get_str(1).unwrap().as_deref(), Some(text_tail));
    assert_eq!(client.get_bytes(2).unwrap(), Some(blob));
    assert_eq!(
        client.get(3).unwrap(),
        None,
        "deleted key must stay deleted"
    );
    assert_eq!(
        client.get_str(-7).unwrap().as_deref(),
        Some("negative key survives too")
    );
    client.quit().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// PUT+DEL churn over a rolling window of keys, then restart: recovery
/// folds the log to its final live keyspace, so a key whose last logged op
/// is a `DEL` must not materialise a value cell in the rebuilt store — the
/// restarted server's `stm_kv_cells_allocated` gauge counts exactly the
/// keys alive at shutdown.
#[test]
fn restart_after_churn_does_not_resurrect_tombstoned_cells() {
    let dir = temp_wal_dir("churn");
    let base = 1_000_000i64;
    let churned = 200i64;
    let window = 10i64;
    {
        let mut server = start_durable_server(ManagerKind::Greedy, &dir, 0);
        let mut client = KvClient::connect(server.addr()).unwrap();
        for i in 0..churned {
            client.put(base + i, i).unwrap();
            if i >= window {
                assert!(client.del(base + i - window).unwrap());
            }
        }
        client.quit().unwrap();
        server.shutdown();
    }
    let mut server = start_durable_server(ManagerKind::Greedy, &dir, 0);
    let mut client = KvClient::connect(server.addr()).unwrap();
    let stats = client.metrics().unwrap();
    assert_eq!(
        stats.counter("stm_kv_cells_allocated"),
        window as u64,
        "replay must allocate cells only for keys alive at shutdown: {}",
        stats.text
    );
    assert_eq!(
        stats.counter("stm_kv_cells_freed"),
        0,
        "a live-pairs replay never frees anything: {}",
        stats.text
    );
    // Everything outside the final window stayed deleted; the window survived.
    assert_eq!(client.get(base).unwrap(), None, "tombstoned key came back");
    assert_eq!(client.get(base + churned - window - 1).unwrap(), None);
    for i in (churned - window)..churned {
        assert_eq!(client.get_int(base + i).unwrap(), Some(i), "live key lost");
    }
    client.quit().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill-and-restart with a torn tail: after a graceful close, mangle the
/// final bytes of the newest segment (what a crash mid-write leaves
/// behind); recovery must truncate the torn record and come back with a
/// conserved total over the surviving committed prefix.
#[test]
fn restart_truncates_a_torn_tail_and_stays_conserved() {
    let dir = temp_wal_dir("torn");
    {
        let mut server = start_durable_server(ManagerKind::Greedy, &dir, 0);
        let addr = server.addr();
        seed_balances(addr);
        let mut client = KvClient::connect(addr).unwrap();
        for i in 0..30i64 {
            let from = i % KEYS;
            let to = (i * 7 + 1) % KEYS;
            if from != to {
                client.transfer(from, to, 5).unwrap();
            }
        }
        client.quit().unwrap();
        server.shutdown();
    }
    // Tear the newest segment: chop a few bytes off its final record.
    let mut segments: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let path = e.unwrap().path();
            (path.extension().is_some_and(|x| x == "log")).then_some(path)
        })
        .collect();
    segments.sort();
    let last = segments.last().expect("a segment must exist");
    let len = std::fs::metadata(last).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(last)
        .unwrap()
        .set_len(len - 7)
        .unwrap();
    assert!(
        greedy_stm::log::recover(&dir).unwrap().truncated_bytes > 0,
        "the chop must cut a record, not preallocated zeros"
    );

    let mut server = start_durable_server(ManagerKind::Greedy, &dir, 0);
    let mut auditor = KvClient::connect(server.addr()).unwrap();
    // A transfer is one record (both ADDs in one transaction), so cutting
    // the final record drops a whole transfer — conservation still holds.
    assert_eq!(
        auditor.sum(0, KEYS - 1).unwrap(),
        (TOTAL, KEYS as usize),
        "torn tail must truncate to a committed prefix, not a torn transfer"
    );
    auditor.quit().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acknowledged implies durable, as a client sees it: by the time any reply
/// to a mutating request has been read, the log's durable watermark covers
/// every record acknowledged so far — for single `PUT`s, for each reply of
/// a pipelined burst, and for an `EXEC` batch. One client and a
/// fresh log make sequence numbers gapless, so "records acknowledged" and
/// "sequence number" are the same count.
#[test]
fn acknowledged_writes_are_durable_before_the_reply() {
    use greedy_stm::kv::proto::render_request_v2;
    use greedy_stm::kv::{Reply, Request};

    let dir = temp_wal_dir("acked");
    let mut server = start_durable_server(ManagerKind::Greedy, &dir, 0);
    let wal = server.wal().expect("durable server has a log");
    let mut client = KvClient::connect(server.addr()).unwrap();
    let mut acked = 0u64;
    let assert_durable = |acked: u64, what: &str| {
        let durable = wal.durable_seq();
        assert!(
            durable >= acked,
            "{what}: {acked} acknowledged, durable_seq {durable}"
        );
    };

    for key in 0..16 {
        client.put(key, key).unwrap();
        acked += 1;
        assert_durable(acked, "single PUT");
    }

    let burst: Vec<u8> = (0..64i64)
        .flat_map(|key| render_request_v2(&Request::Put(100 + key, Value::Int(key))))
        .collect();
    client.send_raw(&burst).unwrap();
    for i in 0..64 {
        assert_eq!(client.recv().unwrap(), Reply::Ok, "burst reply {i}");
        acked += 1;
        assert_durable(acked, "pipelined PUT");
    }

    let replies = client
        .batch_builder()
        .put(1_000, "batched")
        .add(1_001, 5)
        .put(1_002, 7)
        .run()
        .unwrap();
    assert_eq!(replies.len(), 3);
    acked += 1; // one transaction, one record
    assert_durable(acked, "EXEC batch");

    client.quit().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Observed implies durable: a read's reply never shows a write whose
/// record is not yet on disk. Writes committed in process leave their
/// records pending (nobody waits on them); a wire `GET` that sees the value
/// — or the absence a `DEL` left — must not be answered before it is
/// fsynced.
#[test]
fn observed_writes_are_durable_before_the_reply() {
    use greedy_stm::core::CommitOp;

    let dir = temp_wal_dir("observed");
    let mut server = start_durable_server(ManagerKind::Greedy, &dir, 0);
    let wal = server.wal().expect("durable server has a log");
    let mut client = KvClient::connect(server.addr()).unwrap();
    let mut ctx = server.stm().thread();
    let store = server.store();
    let mut commit = |op: CommitOp| {
        let (result, report) = ctx.atomically_traced(|tx| {
            match &op {
                CommitOp::Put { id, value } => store.set(tx, *id, value.clone())?,
                CommitOp::Del { id } => store.unset(tx, *id)?,
            };
            tx.publish(op.clone());
            Ok(())
        });
        result.unwrap();
        report.commit_seq.expect("a logged commit has a seq")
    };

    let seq = commit(CommitOp::put(7, 70));
    assert_eq!(client.get(7).unwrap(), Some(Value::Int(70)));
    let durable = wal.durable_seq();
    assert!(
        durable >= seq,
        "GET returned the value of record {seq} while durable_seq was {durable}"
    );

    let seq = commit(CommitOp::Del { id: 7 });
    assert_eq!(client.get(7).unwrap(), None);
    let durable = wal.durable_seq();
    assert!(
        durable >= seq,
        "GET returned the nil of record {seq} while durable_seq was {durable}"
    );

    drop(ctx);
    client.quit().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Under Greedy and Karma, a seeded mix of `GET`, `PUT` and `SUM` requests
/// through `KvClient` moves each `stm_kv_op_latency_us{op=…}` count by
/// exactly the number the client sent.
#[test]
fn bench_client_emits_throughput_latency_json_per_manager() {
    let count = |scrape: &MetricsSnapshot, op: &str| {
        scrape
            .histogram(&format!("stm_kv_op_latency_us{{op=\"{op}\"}}"))
            .map_or(0, |h| h.count)
    };
    for manager in [ManagerKind::Greedy, ManagerKind::Karma] {
        let mut server = start_server(manager);
        let mut client = KvClient::connect(server.addr()).unwrap();
        let before = client.metrics().unwrap();
        let mut sent = [0u64; 3];
        for i in 0..300u64 {
            let roll = scramble(i);
            let key = (roll % KEYS as u64) as i64;
            let op = (roll >> 8) % 3;
            match op {
                0 => drop(client.get(key).unwrap()),
                1 => client.put(key, i as i64).unwrap(),
                _ => drop(client.sum(0, KEYS - 1).unwrap()),
            }
            sent[op as usize] += 1;
        }
        let after = client.metrics().unwrap();
        for (op, sent) in ["GET", "PUT", "SUM"].into_iter().zip(sent) {
            assert!(sent > 0, "{manager}: the seed sent no {op}");
            assert_eq!(
                count(&after, op) - count(&before, op),
                sent,
                "{manager}: {op}"
            );
        }
        client.quit().unwrap();
        server.shutdown();
    }
}
