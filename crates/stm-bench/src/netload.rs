//! Closed-loop network load generator for the `stm-kv` server.
//!
//! Drives `connections` [`KvClient`] connections against a live server
//! (typed values, binary-safe frames), each issuing operations drawn from the same
//! [`OpMix`] distribution the in-process workloads use:
//! `insert`/`remove`/`lookup`/`range` become `PUT`/`DEL`/`GET`/`RANGE` on
//! the wire — plus an optional fraction of `BEGIN`/`EXEC` transfer batches
//! (two `ADD`s moving an amount between two random keys), the multi-key
//! serializable path, and an optional fraction of **string-value** `PUT`s
//! ([`NetLoadConfig::string_fraction`], the E13 workload): variable-length
//! `Str` payloads written to the negative-key half of the keyspace, so the
//! integer transfer/audit range stays arithmetically typed while the server
//! handles mixed-type traffic.
//!
//! The generator is *closed-loop*: every connection waits for each reply
//! before issuing its next request, so throughput measures the full
//! request → transaction → reply round trip and latency percentiles are
//! per-request. Results are emitted as the same [`WorkloadResult`] cells as
//! the in-process sweeps (structure `"stm-kv"`), so over-the-wire and
//! in-process numbers for one manager land in one figure.
//!
//! [`run_open_loop`] is the complementary **open-loop** driver (E16):
//! requests arrive on Poisson schedules at a configured offered load with
//! zipfian keys, latency is *sojourn* time from the scheduled arrival, and
//! optional idle-connection fleets and connection-churn schedules exercise
//! the serving layer itself — the workload that separates the event-driven
//! server from the thread-per-connection pool under overload.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use rand::distributions::Zipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use stm_cm::ManagerKind;
use stm_kv::{BatchOp, KvClient, KvError, KvServer, ServerConfig};
use stm_log::FsyncPolicy;

use crate::workload::{OpKind, OpMix, OpRecorder, WorkloadResult};

/// Parameters of one network load run.
#[derive(Debug, Clone, Copy)]
pub struct NetLoadConfig {
    /// Concurrent client connections (one thread each). The server must be
    /// running with at least this many workers or connections will queue.
    pub connections: usize,
    /// Integer keys are drawn uniformly from `0..key_range`; string values
    /// live on the mirrored negative keys `-key_range..0`.
    pub key_range: i64,
    /// Wall-clock measurement interval.
    pub duration: Duration,
    /// Seed for the per-connection operation generators.
    pub seed: u64,
    /// Distribution over single-op categories.
    pub mix: OpMix,
    /// Width of the interval scanned by a `RANGE` request.
    pub range_span: i64,
    /// Fraction of iterations that issue a `BEGIN`/`EXEC` transfer batch
    /// instead of a single operation, in `[0, 1]`.
    pub batch_fraction: f64,
    /// Fraction of `insert` draws that `PUT` a variable-length string value
    /// (to a negative key) instead of an integer, in `[0, 1]` — the
    /// string-value workload of E13. `0.0` reproduces the int-only load.
    pub string_fraction: f64,
}

impl Default for NetLoadConfig {
    fn default() -> Self {
        NetLoadConfig {
            connections: 4,
            key_range: 256,
            duration: Duration::from_millis(200),
            seed: 0x6e65,
            mix: OpMix::update_only(),
            range_span: 32,
            batch_fraction: 0.2,
            string_fraction: 0.0,
        }
    }
}

/// Labels of the per-op latency recorders a netload cell carries: the four
/// single-op categories, the batch path, and string-value `PUT`s.
const WIRE_LABELS: [&str; 6] = ["put", "del", "get", "range", "batch", "put_str"];

/// Index of the batch recorder in [`WIRE_LABELS`].
const SLOT_BATCH: usize = 4;
/// Index of the string-PUT recorder in [`WIRE_LABELS`].
const SLOT_PUT_STR: usize = 5;

/// Runs the closed-loop load against a live server and returns one
/// [`WorkloadResult`] cell (`structure = "stm-kv"`, `threads` = client
/// connections). `manager` labels the cell — pass the manager the server
/// was started with.
///
/// Commits count client-visible completed operations; aborts and the abort
/// ratio come from the server's `METRICS` delta over the run, so they include
/// retries performed on behalf of these requests.
///
/// # Errors
///
/// Propagates connection and protocol errors.
///
/// # Panics
///
/// Panics when a load connection fails mid-run (a dead server mid-benchmark
/// has no meaningful partial result).
pub fn run_netload(
    addr: SocketAddr,
    manager: &str,
    cfg: &NetLoadConfig,
) -> Result<WorkloadResult, KvError> {
    assert!(cfg.connections > 0, "need at least one connection");
    assert!(cfg.key_range > 0, "key range must be positive");
    assert!(
        (0.0..=1.0).contains(&cfg.batch_fraction),
        "batch fraction must be in 0..=1"
    );
    assert!(
        (0.0..=1.0).contains(&cfg.string_fraction),
        "string fraction must be in 0..=1"
    );

    // Prefill every other key (mirrors the in-process harness) and snapshot
    // the server counters before the measured interval.
    let mut setup = KvClient::connect(addr)?;
    for key in (0..cfg.key_range).step_by(2) {
        setup.put(key, key)?;
    }
    let before = setup.metrics()?;

    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(cfg.connections + 1));
    // Overwritten at the start barrier so spawn/connect time stays out of
    // the throughput denominator.
    let mut started = Instant::now();
    let mut commits_total = 0u64;
    let mut recorders: [OpRecorder; WIRE_LABELS.len()] = Default::default();
    thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..cfg.connections {
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            let cfg = *cfg;
            handles.push(scope.spawn(move || {
                let mut client =
                    KvClient::connect(addr).expect("load connection must connect");
                let mut rng =
                    SmallRng::seed_from_u64(cfg.seed ^ (c as u64).wrapping_mul(0x9e37));
                let mut commits = 0u64;
                let mut local: [OpRecorder; WIRE_LABELS.len()] = Default::default();
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    let key = rng.gen_range(0..cfg.key_range);
                    let issued = Instant::now();
                    let slot = if rng.gen::<f64>() < cfg.batch_fraction {
                        let to = rng.gen_range(0..cfg.key_range);
                        let amount = rng.gen_range(1..16i64);
                        client
                            .batch(&[BatchOp::Add(key, -amount), BatchOp::Add(to, amount)])
                            .expect("transfer batch must execute");
                        SLOT_BATCH
                    } else {
                        let op = cfg.mix.pick(rng.gen());
                        match op {
                            OpKind::Insert if rng.gen::<f64>() < cfg.string_fraction => {
                                // Variable-length string payloads on the
                                // mirrored negative key, so the integer
                                // audit range stays arithmetically typed.
                                let len = rng.gen_range(0..96usize);
                                let mut payload = String::with_capacity(len + 8);
                                payload.push_str("v=");
                                for _ in 0..len {
                                    payload.push(char::from(rng.gen_range(b' '..=b'~')));
                                }
                                client
                                    .put(-(key + 1), payload)
                                    .expect("string PUT must execute");
                                SLOT_PUT_STR
                            }
                            OpKind::Insert => {
                                client.put(key, key).expect("PUT must execute");
                                OpKind::Insert.index()
                            }
                            OpKind::Remove => {
                                client.del(key).expect("DEL must execute");
                                OpKind::Remove.index()
                            }
                            OpKind::Lookup => {
                                client.get(key).expect("GET must execute");
                                OpKind::Lookup.index()
                            }
                            OpKind::Range => {
                                client
                                    .range(key, key + cfg.range_span)
                                    .expect("RANGE must execute");
                                OpKind::Range.index()
                            }
                        }
                    };
                    local[slot].record(issued.elapsed(), 0);
                    commits += 1;
                }
                let _ = client.quit();
                (commits, local)
            }));
        }
        barrier.wait();
        started = Instant::now();
        let deadline = started + cfg.duration;
        while Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
        for handle in handles {
            let (commits, local) = handle.join().expect("load connection panicked");
            commits_total += commits;
            for (merged, thread_local) in recorders.iter_mut().zip(local) {
                merged.merge(thread_local);
            }
        }
    });
    let elapsed = started.elapsed();
    let after = setup.metrics()?;
    setup.quit()?;

    let gained = |name: &str| after.counter(name).saturating_sub(before.counter(name));
    let aborts = gained("stm_aborts_total");
    let server_commits = gained("stm_commits_total");
    let finished = server_commits + aborts;
    let per_op = WIRE_LABELS
        .into_iter()
        .zip(recorders)
        .filter_map(|(label, recorder)| recorder.finish(label))
        .collect();
    Ok(WorkloadResult {
        manager: manager.to_string(),
        structure: "stm-kv".to_string(),
        mix: cfg.mix.label(),
        threads: cfg.connections,
        commits: commits_total,
        aborts,
        elapsed,
        throughput: commits_total as f64 / elapsed.as_secs_f64(),
        abort_ratio: if finished == 0 {
            0.0
        } else {
            aborts as f64 / finished as f64
        },
        per_op,
    })
}

/// Parameters of one **open-loop** run (E16): requests arrive on a Poisson
/// schedule at a configured offered load, independent of how fast the
/// server answers — so when the server saturates, lateness accumulates and
/// sojourn time (completion minus *scheduled* arrival) explodes instead of
/// the arrival rate silently adapting, which is exactly the overload
/// behaviour a closed-loop driver cannot show.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopConfig {
    /// Target offered load in requests/second, split evenly across the
    /// pool. Goodput below this number means the server cannot keep up.
    pub offered_load: f64,
    /// Fixed pool of generator connections. Each worker owns one
    /// connection and its own Poisson arrival schedule; a request whose
    /// scheduled arrival passed while the connection was busy is issued
    /// immediately and its wait is charged to sojourn time.
    pub pool: usize,
    /// Keys are drawn from `0..key_range`, Zipf-distributed by rank.
    pub key_range: i64,
    /// Zipfian skew over the keyspace (`0.0` = uniform, YCSB uses `0.99`).
    pub zipf_exponent: f64,
    /// Fraction of requests that `PUT` (the rest `GET`), in `[0, 1]`.
    pub put_fraction: f64,
    /// Wall-clock measurement interval.
    pub duration: Duration,
    /// Seed for the per-worker schedule and key generators.
    pub seed: u64,
    /// Extra connections opened before the run and held open, silent, for
    /// its whole duration — the mostly-idle-fleet scenario an event-driven
    /// server must absorb at fixed thread count.
    pub idle_connections: usize,
    /// Connection-churn schedule: each worker drops and re-dials its
    /// connection after this many completed requests (`0` = never), so
    /// accept-path cost shows up in the curves.
    pub churn_every: u64,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            offered_load: 2_000.0,
            pool: 4,
            key_range: 1024,
            zipf_exponent: 0.99,
            put_fraction: 0.5,
            duration: Duration::from_millis(500),
            seed: 0x0be7,
            idle_connections: 0,
            churn_every: 0,
        }
    }
}

/// One row of the open-loop overload sweep (E16).
#[derive(Debug, Clone, Serialize)]
pub struct OpenLoopResult {
    /// Serving mode the server ran (`"threads"` or `"events"`).
    pub serve_mode: String,
    /// Contention manager the server ran.
    pub manager: String,
    /// Configured offered load (requests/second).
    pub offered_load: f64,
    /// Completed requests per second of wall-clock time.
    pub goodput: f64,
    /// Requests completed inside the measurement interval.
    pub completed: u64,
    /// Mean sojourn time (scheduled arrival → reply) in microseconds.
    pub mean_sojourn_us: f64,
    /// Median sojourn time in microseconds.
    pub p50_sojourn_us: f64,
    /// 99th-percentile sojourn time in microseconds.
    pub p99_sojourn_us: f64,
    /// Measured wall-clock interval in seconds.
    pub elapsed_s: f64,
    /// Idle connections held open for the whole run.
    pub idle_connections: usize,
    /// Server-side `conns_open` sampled mid-run — with an idle fleet this
    /// proves the server is actually *holding* the connections, not
    /// timing them out or wedging the pool.
    pub conns_open_observed: u64,
    /// Worker reconnects performed by the churn schedule.
    pub reconnects: u64,
    /// Server-side `conns_accepted` delta over the run.
    pub conns_accepted: u64,
    /// Server-side `partial_writes` delta over the run (events mode only;
    /// always 0 under the thread pool).
    pub partial_writes: u64,
}

/// Draws an exponential inter-arrival gap for a Poisson process of `rate`
/// events/second.
fn exp_gap(rng: &mut SmallRng, rate: f64) -> Duration {
    // 1 - u is in (0, 1], so ln is finite and the gap non-negative.
    let u: f64 = rng.gen();
    Duration::from_secs_f64(-(1.0 - u).ln() / rate)
}

/// Runs the open-loop generator against a live server.
///
/// Workers issue zipfian `PUT`/`GET` singles on independent Poisson
/// schedules; `idle_connections` silent connections are held open
/// throughout; sojourn latency is measured from the *scheduled* arrival, so
/// queueing delay under overload is visible. `serve_mode` labels the row —
/// pass the mode the server was started with.
///
/// # Errors
///
/// Propagates connection and protocol errors from setup.
///
/// # Panics
///
/// Panics when a generator connection fails mid-run.
pub fn run_open_loop(
    addr: SocketAddr,
    manager: &str,
    serve_mode: &str,
    cfg: &OpenLoopConfig,
) -> Result<OpenLoopResult, KvError> {
    assert!(cfg.pool > 0, "need at least one generator connection");
    assert!(
        cfg.offered_load > 0.0 && cfg.offered_load.is_finite(),
        "offered load must be positive"
    );
    assert!(cfg.key_range > 0, "key range must be positive");
    assert!(
        (0.0..=1.0).contains(&cfg.put_fraction),
        "put fraction must be in 0..=1"
    );

    // Prefill so GETs mostly hit, and snapshot the server counters.
    let mut control = KvClient::connect(addr)?;
    for key in (0..cfg.key_range).step_by(2) {
        control.put(key, key)?;
    }
    let before = control.metrics()?;

    // The mostly-idle fleet: dialled before the measured interval, held
    // silent until after it. The preamble exchange in `connect` guarantees
    // the server has fully accepted each one before we count it.
    let idle_pool: Vec<KvClient> = (0..cfg.idle_connections)
        .map(|_| KvClient::connect(addr))
        .collect::<Result<_, _>>()?;

    let per_worker_rate = cfg.offered_load / cfg.pool as f64;
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(cfg.pool + 1));
    let reconnects = AtomicU64::new(0);
    let mut started = Instant::now();
    let mut sojourns = OpRecorder::default();
    let mut conns_open_observed = 0u64;
    thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..cfg.pool {
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            let reconnects = &reconnects;
            let cfg = *cfg;
            handles.push(scope.spawn(move || {
                let mut client =
                    KvClient::connect(addr).expect("open-loop connection must connect");
                let mut rng =
                    SmallRng::seed_from_u64(cfg.seed ^ (w as u64).wrapping_mul(0x9e37_79b9));
                let zipf = Zipf::new(cfg.key_range as u64, cfg.zipf_exponent);
                let mut local = OpRecorder::default();
                let mut since_churn = 0u64;
                barrier.wait();
                let anchor = Instant::now();
                let mut offset = Duration::ZERO;
                while !stop.load(Ordering::Relaxed) {
                    offset += exp_gap(&mut rng, per_worker_rate);
                    let scheduled = anchor + offset;
                    let now = Instant::now();
                    if scheduled > now {
                        thread::sleep(scheduled - now);
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    let key = zipf.sample(&mut rng) as i64;
                    if rng.gen::<f64>() < cfg.put_fraction {
                        client.put(key, key).expect("open-loop PUT must execute");
                    } else {
                        client.get(key).expect("open-loop GET must execute");
                    }
                    local.record(scheduled.elapsed(), 0);
                    since_churn += 1;
                    if cfg.churn_every > 0 && since_churn >= cfg.churn_every {
                        since_churn = 0;
                        let _ = client.quit();
                        client = KvClient::connect(addr)
                            .expect("open-loop reconnect must succeed");
                        reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let _ = client.quit();
                local
            }));
        }
        barrier.wait();
        started = Instant::now();
        let deadline = started + cfg.duration;
        // Sample conns_open mid-run, while the idle fleet and the workers
        // are all connected.
        thread::sleep(cfg.duration / 2);
        if let Ok(stats) = control.metrics() {
            conns_open_observed = stats.counter("stm_kv_conns_open");
        }
        while Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
        for handle in handles {
            sojourns.merge(handle.join().expect("open-loop worker panicked"));
        }
    });
    let elapsed = started.elapsed();
    let after = control.metrics()?;
    for idle in idle_pool {
        let _ = idle.quit();
    }
    control.quit()?;

    let gained = |name: &str| after.counter(name).saturating_sub(before.counter(name));
    let stats = sojourns
        .finish("sojourn")
        .expect("open-loop run completed zero requests");
    Ok(OpenLoopResult {
        serve_mode: serve_mode.to_string(),
        manager: manager.to_string(),
        offered_load: cfg.offered_load,
        goodput: stats.ops as f64 / elapsed.as_secs_f64(),
        completed: stats.ops,
        mean_sojourn_us: stats.mean_us,
        p50_sojourn_us: stats.p50_us,
        p99_sojourn_us: stats.p99_us,
        elapsed_s: elapsed.as_secs_f64(),
        idle_connections: cfg.idle_connections,
        conns_open_observed,
        reconnects: reconnects.into_inner(),
        conns_accepted: gained("stm_kv_connections_total"),
        partial_writes: gained("stm_kv_partial_writes_total"),
    })
}

/// The fsync policies the durability experiment (E11) compares: synchronous
/// durability, a 64-commit loss window, and a 5 ms loss window — plus the
/// volatile baseline (`None`).
pub fn default_durability_policies() -> Vec<Option<FsyncPolicy>> {
    vec![
        None,
        Some(FsyncPolicy::EveryCommit),
        Some(FsyncPolicy::EveryN(64)),
        Some(FsyncPolicy::EveryMs(5)),
    ]
}

/// Runs the durability netload matrix (E11): one live server per
/// (fsync policy × manager) cell — each durable server on a fresh temporary
/// WAL directory — driven by the closed-loop client. Fsync batching sits in
/// the commit path, so it stretches transaction hold times and therefore
/// conflict windows; comparing managers across policies shows how each one
/// absorbs that shift. Cells carry the policy in the structure label
/// (`stm-kv` for volatile, `stm-kv+wal[every]` etc. for durable), so the
/// JSON groups naturally next to the E10 cells.
///
/// Servers that fail to start (or runs that fail mid-load) are skipped with
/// a note on stderr; the returned cells cover everything that ran.
pub fn durability_matrix(
    policies: &[Option<FsyncPolicy>],
    managers: &[ManagerKind],
    cfg: &NetLoadConfig,
) -> Vec<WorkloadResult> {
    let mut cells = Vec::new();
    for policy in policies {
        for manager in managers {
            let wal_dir = policy.map(|p| temp_wal_dir("e11", *manager, &p.label()));
            let mut server = match KvServer::start(ServerConfig {
                manager: *manager,
                shards: 8,
                workers: cfg.connections + 1,
                wal_dir: wal_dir.clone(),
                fsync: policy.unwrap_or(FsyncPolicy::EveryCommit),
                ..ServerConfig::default()
            }) {
                Ok(server) => server,
                Err(err) => {
                    eprintln!("E11: cannot start server for {manager}/{policy:?}: {err}");
                    continue;
                }
            };
            match run_netload(server.addr(), manager.name(), cfg) {
                Ok(mut cell) => {
                    cell.structure = match policy {
                        None => "stm-kv".to_string(),
                        Some(p) => format!("stm-kv+wal[{}]", p.label()),
                    };
                    cells.push(cell);
                }
                Err(err) => eprintln!("E11: netload against {manager}/{policy:?} failed: {err}"),
            }
            server.shutdown();
            if let Some(dir) = wal_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
    cells
}

/// Runs the string-value netload comparison (E13): per manager, an int-only
/// baseline cell versus a 50%-string `PUT` mix — both against a **durable**
/// WAL-backed server (fresh temp directory per cell), so the typed-value
/// path is exercised end to end: frames → typed store cells → typed log
/// records. Cells are labelled `stm-kv+wal[<policy>]` (baseline) and
/// `stm-kv+str+wal[<policy>]` (string mix).
///
/// Servers that fail to start (or runs that fail mid-load) are skipped with
/// a note on stderr; the returned cells cover everything that ran.
pub fn string_value_matrix(
    managers: &[ManagerKind],
    fsync: FsyncPolicy,
    cfg: &NetLoadConfig,
) -> Vec<WorkloadResult> {
    let mut cells = Vec::new();
    for manager in managers {
        for string_fraction in [0.0, 0.5] {
            let tag = if string_fraction > 0.0 { "e13-str" } else { "e13-int" };
            let wal_dir = temp_wal_dir(tag, *manager, &fsync.label());
            let mut server = match KvServer::start(ServerConfig {
                manager: *manager,
                shards: 8,
                workers: cfg.connections + 1,
                wal_dir: Some(wal_dir.clone()),
                fsync,
                ..ServerConfig::default()
            }) {
                Ok(server) => server,
                Err(err) => {
                    eprintln!("E13: cannot start server for {manager}: {err}");
                    continue;
                }
            };
            let cell_cfg = NetLoadConfig {
                string_fraction,
                ..*cfg
            };
            match run_netload(server.addr(), manager.name(), &cell_cfg) {
                Ok(mut cell) => {
                    cell.structure = if string_fraction > 0.0 {
                        format!("stm-kv+str+wal[{}]", fsync.label())
                    } else {
                        format!("stm-kv+wal[{}]", fsync.label())
                    };
                    cells.push(cell);
                }
                Err(err) => eprintln!("E13: netload against {manager} failed: {err}"),
            }
            server.shutdown();
            let _ = std::fs::remove_dir_all(wal_dir);
        }
    }
    cells
}

fn temp_wal_dir(tag: &str, manager: ManagerKind, policy: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "stm-bench-{tag}-{}-{}-{}",
        manager.name(),
        policy.replace('=', "-"),
        std::process::id(),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netload_produces_a_cell_against_a_live_server() {
        let server = KvServer::start(ServerConfig {
            manager: ManagerKind::Greedy,
            shards: 4,
            workers: 3,
            ..ServerConfig::default()
        })
        .unwrap();
        let cfg = NetLoadConfig {
            connections: 2,
            key_range: 64,
            duration: Duration::from_millis(60),
            mix: OpMix::read_mostly(),
            range_span: 8,
            batch_fraction: 0.3,
            ..NetLoadConfig::default()
        };
        let cell = run_netload(server.addr(), "greedy", &cfg).unwrap();
        assert_eq!(cell.structure, "stm-kv");
        assert_eq!(cell.manager, "greedy");
        assert_eq!(cell.threads, 2);
        assert!(cell.commits > 0);
        assert!(cell.throughput > 0.0);
        assert!(!cell.per_op.is_empty());
        assert!(
            cell.per_op.iter().any(|o| o.op == "batch"),
            "30% batches must register: {:?}",
            cell.per_op
        );
        for op in &cell.per_op {
            assert!(op.p99_us >= op.p50_us);
        }
        // The cells serialize with the same shape as in-process cells.
        let json = crate::report::render_rows(&vec![cell]);
        assert!(json.contains("\"structure\": \"stm-kv\""));
        assert!(json.contains("\"per_op\""));
    }

    #[test]
    fn string_mix_registers_typed_puts_and_conserves_the_int_range() {
        let server = KvServer::start(ServerConfig {
            manager: ManagerKind::Greedy,
            shards: 4,
            workers: 3,
            ..ServerConfig::default()
        })
        .unwrap();
        let cfg = NetLoadConfig {
            connections: 2,
            key_range: 64,
            duration: Duration::from_millis(60),
            mix: OpMix::update_only(),
            batch_fraction: 0.2,
            string_fraction: 0.6,
            ..NetLoadConfig::default()
        };
        let cell = run_netload(server.addr(), "greedy", &cfg).unwrap();
        assert!(cell.commits > 0);
        assert!(
            cell.per_op.iter().any(|o| o.op == "put_str"),
            "60% string PUTs must register: {:?}",
            cell.per_op
        );
        // The transfers stayed on the integer half: the audit still sums.
        let mut audit = KvClient::connect(server.addr()).unwrap();
        let (_total, count) = audit.sum(0, 63).unwrap();
        assert!(count > 0, "int range must still hold typed-int keys");
        // And the negative half holds strings.
        let strings = audit.range(-64, -1).unwrap();
        assert!(
            strings.iter().any(|(_, v)| v.as_str().is_some()),
            "string keys must exist on the negative half: {strings:?}"
        );
        audit.quit().unwrap();
    }

    #[test]
    fn durability_matrix_covers_policies_and_labels_cells() {
        let cfg = NetLoadConfig {
            connections: 2,
            key_range: 64,
            duration: Duration::from_millis(40),
            mix: OpMix::update_only(),
            batch_fraction: 0.3,
            ..NetLoadConfig::default()
        };
        let policies = [None, Some(FsyncPolicy::EveryN(16))];
        let cells = durability_matrix(&policies, &[ManagerKind::Greedy], &cfg);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].structure, "stm-kv");
        assert_eq!(cells[1].structure, "stm-kv+wal[n=16]");
        for cell in &cells {
            assert_eq!(cell.manager, "greedy");
            assert!(cell.commits > 0, "empty E11 cell: {cell:?}");
            assert!(cell.throughput > 0.0);
        }
        assert_eq!(default_durability_policies().len(), 4);
    }

    #[test]
    fn open_loop_reports_goodput_sojourn_and_idle_fleet() {
        let server = KvServer::start(ServerConfig {
            manager: ManagerKind::Greedy,
            shards: 4,
            workers: 4,
            serve_mode: stm_kv::ServeMode::Events,
            event_shards: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let cfg = OpenLoopConfig {
            offered_load: 400.0,
            pool: 2,
            key_range: 128,
            zipf_exponent: 0.99,
            duration: Duration::from_millis(150),
            idle_connections: 16,
            churn_every: 25,
            ..OpenLoopConfig::default()
        };
        let row = run_open_loop(server.addr(), "greedy", "events", &cfg).unwrap();
        assert_eq!(row.serve_mode, "events");
        assert!(row.completed > 0, "no requests completed: {row:?}");
        assert!(row.goodput > 0.0);
        assert!(row.p99_sojourn_us >= row.p50_sojourn_us);
        assert!(
            row.conns_open_observed >= 16,
            "idle fleet not held open: {row:?}"
        );
        assert!(row.reconnects > 0, "churn schedule never fired: {row:?}");
        // The row serializes for the BENCH_serve.json report.
        let json = crate::report::render_rows(&vec![row]);
        assert!(json.contains("\"serve_mode\": \"events\""));
        assert!(json.contains("\"p99_sojourn_us\""));
    }

    #[test]
    fn string_value_matrix_emits_baseline_and_string_cells() {
        let cfg = NetLoadConfig {
            connections: 2,
            key_range: 64,
            duration: Duration::from_millis(40),
            mix: OpMix::update_only(),
            batch_fraction: 0.2,
            ..NetLoadConfig::default()
        };
        let cells = string_value_matrix(&[ManagerKind::Greedy], FsyncPolicy::EveryN(16), &cfg);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].structure, "stm-kv+wal[n=16]");
        assert_eq!(cells[1].structure, "stm-kv+str+wal[n=16]");
        for cell in &cells {
            assert!(cell.commits > 0, "empty E13 cell: {cell:?}");
        }
    }
}
