//! `stm_kv_typed` — the wire protocol end to end: typed values over
//! binary-safe frames, a fluent atomic batch, and durable recovery of string
//! values across a server restart.
//!
//! ```sh
//! cargo run --release --example stm_kv_typed
//! ```
//!
//! The demo starts a WAL-backed `stm-kv` server, connects (`KvClient`
//! writes the `HELLO 2` preamble; everything after it is frames), stores
//! `Int`/`Str`/`Bytes` values — including strings with embedded newlines
//! and NULs, which length-prefixed frames carry byte-exactly — runs an
//! atomic multi-op transaction through the [`BatchBuilder`], shows the typed
//! `TYPE` error `ADD` reports on a string, then restarts the server on the
//! same log directory and proves every typed value came back byte-exact.
//!
//! [`BatchBuilder`]: greedy_stm::kv::BatchBuilder

use greedy_stm::cm::ManagerKind;
use greedy_stm::kv::{ErrorCode, KvClient, KvError, KvServer, Reply, ServerConfig, Value};

fn main() {
    let wal_dir = std::env::temp_dir().join(format!("stm-kv-typed-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let config = ServerConfig {
        manager: ManagerKind::Greedy,
        wal_dir: Some(wal_dir.clone()),
        ..ServerConfig::default()
    };

    let motto = "binary-safe:\nnewlines, NULs (\0), UTF-8 — ✓ 🦀";
    let blob: Vec<u8> = vec![0x00, 0xFF, 0x0A, 0x0D, 0x00];

    {
        let mut server = KvServer::start(config.clone()).expect("server must start");
        println!(
            "durable stm-kv on {} (wal: {})",
            server.addr(),
            wal_dir.display()
        );

        let mut client = KvClient::connect(server.addr()).unwrap();
        println!("preamble answered; speaking frames");

        // Typed puts: one API, three value kinds.
        client.put(1, 1000).unwrap();
        client.put(2, motto).unwrap();
        client.put(3, blob.clone()).unwrap();
        println!(
            "stored int / str / bytes; str round-trips byte-exact: {:?}",
            client.get_str(2).unwrap().as_deref() == Some(motto)
        );

        // Arithmetic is typed: ADD on a string is a coded TYPE error, not
        // a silent coercion — and the connection survives it.
        match client.add(2, 5).unwrap_err() {
            KvError::Server { code, message } => {
                assert_eq!(code, ErrorCode::Type);
                println!("ADD on a str value → TYPE error: {message}");
            }
            other => panic!("expected a TYPE error, got {other}"),
        }

        // A fluent atomic batch: all ops in one serializable transaction.
        let replies = client
            .batch_builder()
            .add(1, -250)
            .put(4, "created inside the batch")
            .get(1)
            .sum(0, 1)
            .run()
            .unwrap();
        assert_eq!(replies[2], Reply::Value(Value::Int(750)));
        println!(
            "batch of 4 ops executed atomically: balance now {:?}",
            replies[2]
        );

        client.quit().unwrap();
        server.shutdown();
        println!("server shut down — typed history lives in the WAL");
    }

    // Restart on the same directory: the typed keyspace must recover.
    let mut server = KvServer::start(config).expect("server must restart");
    let mut client = KvClient::connect(server.addr()).unwrap();
    assert_eq!(client.get_int(1).unwrap(), Some(750));
    assert_eq!(client.get_str(2).unwrap().as_deref(), Some(motto));
    assert_eq!(client.get_bytes(3).unwrap(), Some(blob));
    assert_eq!(
        client.get_str(4).unwrap().as_deref(),
        Some("created inside the batch")
    );
    println!("after restart: int, str (newlines/NULs intact), bytes and batch write all recovered");
    client.quit().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&wal_dir);
    println!("typed values survived the crash-recovery loop — frames end to end");
}
