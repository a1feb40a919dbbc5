//! `stm_kv_demo` — spin up the networked transactional key-value server,
//! drive it with concurrent clients, and audit serializability over the
//! wire.
//!
//! ```sh
//! cargo run --release --example stm_kv_demo
//! ```
//!
//! The demo starts an in-process `stm-kv` server under the greedy manager,
//! seeds 16 "accounts", lets four client connections fire concurrent
//! transfers at it (each one `EXEC` request of two `ADD`s, run as one
//! transaction), and shows that every atomic `SUM`
//! audit — including ones racing the transfers — observes the conserved
//! total.

use std::thread;

use greedy_stm::cm::ManagerKind;
use greedy_stm::kv::{KvClient, KvServer, ServerConfig};

const KEYS: i64 = 16;
const SEED: i64 = 1_000;

fn main() {
    let manager = ManagerKind::Greedy;
    let mut server = KvServer::start(ServerConfig {
        manager,
        ..ServerConfig::default()
    })
    .expect("server must start");
    println!(
        "stm-kv listening on {} under '{}'",
        server.addr(),
        manager.name()
    );

    // Seed the accounts over the wire.
    let addr = server.addr();
    let mut seeder = KvClient::connect(addr).unwrap();
    for key in 0..KEYS {
        seeder.put(key, SEED).unwrap();
    }
    let (total, count) = seeder.sum(0, KEYS - 1).unwrap();
    println!("seeded {count} accounts, total balance {total}");
    seeder.quit().unwrap();

    // Four clients hammer the keyspace with atomic transfers while auditing.
    thread::scope(|scope| {
        for c in 0..4i64 {
            scope.spawn(move || {
                let mut client = KvClient::connect(addr).unwrap();
                for i in 0..200i64 {
                    let from = (c * 7 + i) % KEYS;
                    let to = (c * 3 + i * 5 + 1) % KEYS;
                    client.transfer(from, to, 1 + (i % 9)).unwrap();
                    if i % 40 == 0 {
                        let (sum, _) = client.sum(0, KEYS - 1).unwrap();
                        assert_eq!(sum, KEYS * SEED, "client {c} saw a torn total");
                    }
                }
                client.quit().unwrap();
            });
        }
    });

    let mut auditor = KvClient::connect(addr).unwrap();
    let (sum, count) = auditor.sum(0, KEYS - 1).unwrap();
    let stats = auditor.metrics().unwrap();
    auditor.quit().unwrap();
    println!("after 800 concurrent transfer batches: total {sum} across {count} keys");
    println!(
        "server metrics: commits={} aborts={} batches={}",
        stats.counter("stm_commits_total"),
        stats.counter("stm_aborts_total"),
        stats.counter("stm_kv_batches_total"),
    );
    assert_eq!(sum, KEYS * SEED, "balance must be conserved");
    server.shutdown();
    println!("clean shutdown — serializability held over the wire");
}
