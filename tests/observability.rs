//! Observability surface tests: the `METRICS` exposition must expose a
//! stable, golden set of series names and labels, and several clients
//! must be able to scrape it (and `SLOWLOG`) concurrently while the server
//! is under contended load.
//!
//! The golden-set test is the compatibility contract for dashboards: it
//! drives every op kind once, scrapes, and asserts each promised series
//! is present (and non-zero where the load guarantees mass). A second
//! scrape must yield byte-identical series *keys* — new samples may
//! accumulate, new series must not appear, so recording rules written
//! against one scrape keep working against the next.
//!
//! The concurrent test is the thread-safety witness: two clients loop
//! `METRICS`/`SLOWLOG` against a live server while transfer
//! threads keep the contention managers busy, and every scrape must
//! parse, histogram counts must be monotone, and the keyspace balance
//! must still conserve at the end.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use greedy_stm::cm::ManagerKind;
use greedy_stm::kv::{KvClient, KvServer, MetricsSnapshot, ServerConfig};

const OPS: [&str; 7] = ["GET", "PUT", "DEL", "ADD", "RANGE", "SUM", "EXEC"];

/// Every STM-runtime counter series the exposition promises.
const STM_COUNTERS: [&str; 8] = [
    "stm_transactions_total",
    "stm_attempts_total",
    "stm_commits_total",
    "stm_conflicts_total",
    "stm_waits_total",
    "stm_enemy_aborts_total",
    "stm_reads_total",
    "stm_writes_total",
];

const ABORT_CAUSES: [&str; 5] = [
    "killed_by_enemy",
    "manager_self_abort",
    "validation_failed",
    "commit_failed",
    "explicit",
];

/// The same counts as `stm_waits_total`, `stm_enemy_aborts_total` and
/// `stm_aborts_total{cause="manager_self_abort"}`, under the names the repo
/// benchmark still reads.
const MANAGER_DECISIONS: [&str; 3] = ["wait", "abort_other", "abort_self"];

/// Every serving-layer counter the exposition promises.
const KV_COUNTERS: [&str; 7] = [
    "stm_kv_index_walks_total",
    "stm_kv_connections_total",
    "stm_kv_requests_total",
    "stm_kv_batches_total",
    "stm_kv_errors_total",
    "stm_kv_conns_reaped_idle_total",
    "stm_kv_partial_writes_total",
];

const KV_GAUGES: [&str; 3] = [
    "stm_kv_conns_open",
    "stm_kv_cells_allocated",
    "stm_kv_cells_freed",
];

/// Every log series a durable server adds; a volatile one exposes none.
const WAL_HISTOGRAMS: [&str; 3] = [
    "stm_wal_batch_records",
    "stm_wal_fsync_us",
    "stm_wal_ring_occupancy",
];

const WAL_COUNTERS: [&str; 4] = [
    "stm_wal_records_total",
    "stm_wal_bytes_total",
    "stm_wal_fsyncs_total",
    "stm_wal_snapshots_total",
];

const WAL_GAUGES: [&str; 6] = [
    "stm_wal_next_seq",
    "stm_wal_durable_seq",
    "stm_wal_segments",
    "stm_wal_last_snapshot_seq",
    "stm_wal_records_since_snapshot",
    "stm_wal_failed",
];

/// Registry histograms that exist regardless of load (the series render
/// before their first sample).
const KV_HISTOGRAMS: [&str; 5] = [
    "stm_kv_txn_attempts",
    "stm_kv_txn_latency_us",
    "stm_kv_poll_wait_us",
    "stm_kv_ready_batch",
    "stm_kv_drain_us",
];

fn temp_wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "stm-observability-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Drives every op kind at least once so each latency histogram has mass.
fn drive_all_ops(addr: std::net::SocketAddr) {
    let mut client = KvClient::connect(addr).unwrap();
    for key in 0..16 {
        client.put(key, 100).unwrap();
    }
    assert_eq!(client.get_int(3).unwrap(), Some(100));
    client.add(4, 7).unwrap();
    assert!(client.del(15).unwrap());
    assert_eq!(client.range(0, 3).unwrap().len(), 4);
    let (_, counted) = client.sum(0, 14).unwrap();
    assert_eq!(counted, 15);
    // One atomic batch so the EXEC histogram records too.
    client.transfer(0, 1, 25).unwrap();
    client.quit().unwrap();
}

/// The stable identity of a sample: its series key with the `le` bucket
/// label removed. Empty buckets are elided from the exposition, so
/// individual `_bucket` lines legitimately appear as latency mass lands
/// in new buckets — the *family + label set* is what must never drift.
fn stable_key(series: &str) -> String {
    if let Some(idx) = series.find(",le=\"") {
        format!("{}}}", &series[..idx])
    } else if let Some(idx) = series.find("{le=\"") {
        series[..idx].to_string()
    } else {
        series.to_string()
    }
}

fn series_keys(snapshot: &MetricsSnapshot) -> BTreeSet<String> {
    snapshot
        .samples()
        .map(|(series, _)| stable_key(series))
        .collect()
}

/// Asserts every series the exposition contract promises, returning the
/// scrape so callers can layer mode-specific checks on top.
fn assert_golden_set(snapshot: &MetricsSnapshot, driven: bool) {
    assert_families_render_once(&snapshot.text);
    for name in STM_COUNTERS {
        assert!(
            snapshot.value(name).is_some(),
            "missing STM counter series {name}"
        );
    }
    for cause in ABORT_CAUSES {
        let series = format!("stm_aborts_total{{cause=\"{cause}\"}}");
        assert!(snapshot.value(&series).is_some(), "missing {series}");
    }
    for decision in MANAGER_DECISIONS {
        let series = format!("stm_manager_decisions_total{{decision=\"{decision}\"}}");
        assert!(snapshot.value(&series).is_some(), "missing {series}");
    }
    for name in KV_COUNTERS {
        assert!(
            snapshot.value(name).is_some(),
            "missing serving counter series {name}"
        );
    }
    for name in KV_GAUGES {
        assert!(
            snapshot.value(name).is_some(),
            "missing serving gauge series {name}"
        );
    }
    for name in KV_HISTOGRAMS {
        assert!(
            snapshot.histogram(name).is_some(),
            "missing histogram series {name}"
        );
    }
    // One overflow gauge per index shard (every test server here has at
    // least two), present even while it reads zero.
    for shard in 0..2 {
        let series = format!("stm_kv_overflow_cells{{shard=\"{shard}\"}}");
        assert!(snapshot.value(&series).is_some(), "missing {series}");
    }
    // Accepted connections are `stm_kv_connections_total`, once.
    assert!(snapshot.value("stm_kv_conns_accepted").is_none());
    // One name per count: aborted attempts are `stm_aborts_total{cause}`,
    // and `validation_failed` is one of the causes.
    for gone in ["stm_kv_retries_total", "stm_validation_failures_total"] {
        assert!(snapshot.value(gone).is_none(), "{gone} is back");
    }
    // The per-op latency histogram registers all seven op labels up
    // front; each must be selectable on its own and fold together.
    let mut folded_count = 0u64;
    for op in OPS {
        let series = format!("stm_kv_op_latency_us{{op=\"{op}\"}}");
        let hist = snapshot
            .histogram(&series)
            .unwrap_or_else(|| panic!("missing {series}"));
        if driven {
            assert!(hist.count > 0, "{series} recorded nothing despite load");
        }
        folded_count += hist.count;
    }
    let folded = snapshot.histogram("stm_kv_op_latency_us").unwrap();
    assert_eq!(
        folded.count, folded_count,
        "unlabelled stm_kv_op_latency_us must fold all op label sets"
    );

    if driven {
        assert!(snapshot.value("stm_commits_total").unwrap() > 0);
        assert!(snapshot.value("stm_transactions_total").unwrap() > 0);
        assert!(snapshot.counter("stm_kv_requests_total") > 0);
        let attempts = snapshot.histogram("stm_kv_txn_attempts").unwrap();
        assert!(attempts.count > 0, "txn attempt histogram never fed");
        let txn_latency = snapshot.histogram("stm_kv_txn_latency_us").unwrap();
        assert_eq!(
            txn_latency.count, attempts.count,
            "attempt and latency histograms are fed from the same fold point"
        );
    }
}

#[test]
fn metrics_exposition_exposes_the_golden_series_set() {
    let mut server = KvServer::start(ServerConfig {
        manager: ManagerKind::Greedy,
        ..ServerConfig::default()
    })
    .expect("server must start");
    drive_all_ops(server.addr());

    let mut client = KvClient::connect(server.addr()).unwrap();
    let first = client.metrics().unwrap();
    assert_golden_set(&first, true);

    assert!(
        first
            .samples()
            .any(|(series, _)| series.starts_with("stm_kv_shard_conns{")),
        "the event loop must export per-shard connection gauges"
    );
    // Exposition text sanity: typed families and a +Inf bucket.
    assert!(first.text.contains("# TYPE stm_kv_op_latency_us histogram"));
    assert!(first.text.contains("# TYPE stm_commits_total counter"));
    assert!(first.text.contains("# TYPE stm_kv_conns_open gauge"));
    assert!(first.text.contains("le=\"+Inf\""));
    assert!(
        !first
            .samples()
            .any(|(series, _)| series.starts_with("stm_wal_")),
        "a volatile server has no log series"
    );

    // Stability: more traffic may grow counts, never the series set.
    drive_all_ops(server.addr());
    let second = client.metrics().unwrap();
    assert_eq!(
        series_keys(&first),
        series_keys(&second),
        "series key set drifted between scrapes"
    );
    assert_golden_set(&second, true);
    client.quit().unwrap();
    server.shutdown();
}

/// The payload is registries rendered back to back, so every family must
/// come from exactly one of them: a `# TYPE` line twice means two
/// registries (or a registry and hand-written text) export one name.
fn assert_families_render_once(text: &str) {
    let mut seen = BTreeSet::new();
    for line in text.lines().filter(|line| line.starts_with("# TYPE ")) {
        let family = line.split_whitespace().nth(2).unwrap();
        assert!(
            seen.insert(family),
            "family {family} rendered twice in:\n{text}"
        );
    }
    assert!(seen.len() > 20, "too few families: {seen:?}");
}

/// The `# TYPE` line of one metric family.
fn first_type_line<'a>(text: &'a str, name: &str) -> &'a str {
    let prefix = format!("# TYPE {name} ");
    text.lines()
        .find(|line| line.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no TYPE line for {name}"))
}

#[test]
fn durable_server_exposes_wal_series() {
    let dir = temp_wal_dir("wal-series");
    let mut server = KvServer::start(ServerConfig {
        manager: ManagerKind::Greedy,
        wal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("durable server must start");
    drive_all_ops(server.addr());

    let mut client = KvClient::connect(server.addr()).unwrap();
    let snapshot = client.metrics().unwrap();
    assert_golden_set(&snapshot, true);

    for name in WAL_HISTOGRAMS {
        let hist = snapshot
            .histogram(name)
            .unwrap_or_else(|| panic!("missing WAL histogram {name}"));
        assert!(hist.count > 0, "{name} recorded nothing under EveryCommit");
    }
    for name in WAL_COUNTERS.into_iter().chain(WAL_GAUGES) {
        assert!(snapshot.value(name).is_some(), "missing WAL series {name}");
    }
    assert!(first_type_line(&snapshot.text, "stm_wal_records_total").ends_with("counter"));
    assert!(first_type_line(&snapshot.text, "stm_wal_failed").ends_with("gauge"));
    assert_eq!(snapshot.value("stm_wal_failed"), Some(0));
    assert!(snapshot.value("stm_wal_records_total").unwrap() > 0);
    assert!(snapshot.value("stm_wal_fsyncs_total").unwrap() > 0);

    client.quit().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// "Why was this request slow: it walked the tree" must be answerable from
/// the running system: hit `GET`s and overwriting `PUT`/`ADD`s stay on the
/// cell-only point path, so 10,000 of them leave
/// `stm_kv_index_walks_total` exactly where the
/// prefill put it; a miss on a never-linked key and a key creation each
/// move it by one.
#[test]
fn hit_gets_and_overwrite_puts_never_walk_the_index() {
    const PER_RANGE: i64 = 64;
    const FAR_BASE: i64 = 1 << 32;

    let mut server = KvServer::start(ServerConfig {
        manager: ManagerKind::Greedy,
        ..ServerConfig::default()
    })
    .expect("server must start");
    let mut client = KvClient::connect(server.addr()).unwrap();
    // Small keys and far-out keys: one cell table serves both.
    let keys: Vec<i64> = (0..PER_RANGE)
        .chain(FAR_BASE..FAR_BASE + PER_RANGE)
        .collect();
    for &key in &keys {
        client.put(key, key).unwrap();
    }

    let walks = |client: &mut KvClient| {
        client
            .metrics()
            .unwrap()
            .counter("stm_kv_index_walks_total")
    };
    let before = walks(&mut client);
    assert_eq!(
        before,
        keys.len() as u64,
        "prefill: one insert per created key"
    );

    for i in 0..10_000usize {
        let key = keys[i * 7 % keys.len()];
        match i % 4 {
            0 => client.put(key, i as i64).unwrap(),
            1 => drop(client.add(key, 1).unwrap()),
            _ => assert!(
                client.get_int(key).unwrap().is_some(),
                "key {key} is present"
            ),
        }
    }
    assert_eq!(
        walks(&mut client),
        before,
        "the point path must not open the index"
    );

    for (n, key) in [(1, PER_RANGE), (3, FAR_BASE - 1)] {
        assert_eq!(client.get(key).unwrap(), None);
        assert_eq!(
            walks(&mut client),
            before + n,
            "a miss on an unlinked key reads its path"
        );
        client.put(key, 0).unwrap();
        assert_eq!(walks(&mut client), before + n + 1, "a creating PUT inserts");
    }

    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn clients_scrape_concurrently_under_load() {
    const KEYS: i64 = 16;
    const SEED_BALANCE: i64 = 100;
    const TOTAL: i64 = KEYS * SEED_BALANCE;
    const TRANSFER_THREADS: usize = 4;
    const TRANSFERS_EACH: usize = 150;

    let mut server = KvServer::start(ServerConfig {
        manager: ManagerKind::Greedy,
        ..ServerConfig::default()
    })
    .expect("server must start");
    let addr = server.addr();

    {
        let mut seeder = KvClient::connect(addr).unwrap();
        for key in 0..KEYS {
            seeder.put(key, SEED_BALANCE).unwrap();
        }
        seeder.quit().unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    thread::scope(|scope| {
        let mut load = Vec::new();
        for t in 0..TRANSFER_THREADS {
            load.push(scope.spawn(move || {
                let mut client = KvClient::connect(addr).unwrap();
                let mut x = 0x9e37_79b9_u64.wrapping_mul(t as u64 + 1);
                for _ in 0..TRANSFERS_EACH {
                    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9).wrapping_add(1);
                    let from = (x % KEYS as u64) as i64;
                    let to = ((x >> 17) % KEYS as u64) as i64;
                    if from != to {
                        client.transfer(from, to, 1).unwrap();
                    }
                }
                client.quit().unwrap();
            }));
        }

        // Two scrapers hammering METRICS + SLOWLOG while the transfers
        // run. Both must parse every scrape and see monotone histogram
        // mass.
        let mut scrapers = Vec::new();
        for _ in 0..2 {
            let stop = Arc::clone(&stop);
            scrapers.push(scope.spawn(move || {
                let mut client = KvClient::connect(addr).unwrap();
                let mut last_requests = 0u64;
                let mut last_op_count = 0u64;
                let mut scrapes = 0u32;
                while !stop.load(Ordering::Relaxed) || scrapes == 0 {
                    let snapshot = client.metrics().unwrap();
                    assert_golden_set(&snapshot, false);
                    let requests = snapshot.counter("stm_kv_requests_total");
                    let op_count = snapshot.histogram("stm_kv_op_latency_us").unwrap().count;
                    assert!(requests >= last_requests, "requests_total went backwards");
                    assert!(
                        op_count >= last_op_count,
                        "op histogram mass went backwards"
                    );
                    last_requests = requests;
                    last_op_count = op_count;

                    for entry in client.slowlog(5).unwrap() {
                        for field in [
                            "op=",
                            "keys=",
                            "attempts=",
                            "aborts=",
                            "causes=",
                            "conflicts=",
                            "waits=",
                            "enemy_aborts=",
                            "wall_us=",
                            "txn_us=",
                        ] {
                            assert!(
                                entry.contains(field),
                                "slowlog entry missing `{field}`: {entry}"
                            );
                        }
                    }
                    assert!(client.slowlog(0).unwrap().is_empty());
                    scrapes += 1;
                    thread::sleep(Duration::from_millis(2));
                }
                scrapes
            }));
        }

        for handle in load {
            handle.join().expect("transfer thread must not panic");
        }
        stop.store(true, Ordering::Relaxed);
        for handle in scrapers {
            let scrapes = handle.join().expect("scraper thread must not panic");
            assert!(scrapes > 0, "scraper never completed a scrape");
        }
    });

    // Serializability audit: closed transfers conserve the seeded total.
    let mut auditor = KvClient::connect(addr).unwrap();
    assert_eq!(auditor.sum(0, KEYS - 1).unwrap(), (TOTAL, KEYS as usize));

    let final_scrape = auditor.metrics().unwrap();
    // Not every op kind ran here (no GET/DEL/ADD/RANGE load), so only the
    // presence contract applies; mass checks follow for what did run.
    assert_golden_set(&final_scrape, false);
    assert!(final_scrape.value("stm_commits_total").unwrap() > 0);
    let folded = final_scrape.histogram("stm_kv_op_latency_us").unwrap();
    // Every transfer is one EXEC; seeds, audits and scrapes add more.
    assert!(
        folded.count >= (TRANSFER_THREADS * TRANSFERS_EACH) as u64 / 2,
        "op latency histogram undercounts the applied load"
    );
    auditor.quit().unwrap();
    server.shutdown();
}

/// The stats snapshot's directional identities must hold *while* commits
/// and aborts are racing the observer — `StmStats::snapshot` reads the
/// outcome counters before the attempts, every stripe with acquire pairing
/// with the release increments, so a scrape can never report more finished
/// attempts than started ones; the aborts are the sum of the causes, and
/// the validation failures one of them. Before that ordering, this test's
/// snapshot loop could observe `commits + aborts > attempts` and
/// `abort_ratio` went nonsensical. `stm_core::models` checks the same
/// identities in every schedule of one commit and one abort.
#[test]
fn stats_snapshot_is_never_torn_under_concurrent_load() {
    use greedy_stm::prelude::*;

    let stm = Stm::builder().build();
    let stop = Arc::new(AtomicBool::new(false));
    let cell = TVar::new(0i64);

    thread::scope(|scope| {
        // Contended increments on one shared cell: plenty of commits,
        // aborts and validation failures from all four threads.
        for _ in 0..4 {
            let stm = &stm;
            let cell = &cell;
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut ctx = stm.thread();
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..64 {
                        ctx.atomically(|tx| tx.modify(cell, |v| v + 1)).unwrap();
                    }
                }
            });
        }

        let mut snapshots = 0u64;
        let deadline = std::time::Instant::now() + Duration::from_millis(400);
        while std::time::Instant::now() < deadline {
            let snap = stm.stats().snapshot();
            assert!(
                snap.commits + snap.aborts <= snap.attempts,
                "torn snapshot: {} commits + {} aborts > {} attempts",
                snap.commits,
                snap.aborts,
                snap.attempts
            );
            assert!(
                snap.aborts_by_cause.iter().sum::<u64>() <= snap.aborts,
                "torn snapshot: cause array sums past aborts: {snap:?}"
            );
            assert!(
                snap.validation_failures <= snap.aborts,
                "torn snapshot: validation failures exceed aborts: {snap:?}"
            );
            assert!(snap.abort_ratio() <= 1.0, "ratio out of range: {snap:?}");
            snapshots += 1;
        }
        stop.store(true, Ordering::Relaxed);
        assert!(
            snapshots > 100,
            "observer barely ran ({snapshots} snapshots)"
        );
    });

    let settled = stm.stats().snapshot();
    assert_eq!(
        settled.commits + settled.aborts,
        settled.attempts,
        "at rest every attempt has exactly one outcome: {settled:?}"
    );
    assert_eq!(
        settled.aborts_by_cause.iter().sum::<u64>(),
        settled.aborts,
        "at rest the cause array accounts for every abort: {settled:?}"
    );
}
