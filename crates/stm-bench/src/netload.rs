//! Open-loop network load against a live `stm-kv` server (E16).
//!
//! [`run_open_loop`] issues zipfian `PUT`/`GET` singles on Poisson schedules
//! at a configured offered load; latency is *sojourn* time from the
//! scheduled arrival, so when the server saturates the lateness shows up in
//! the percentiles instead of the arrival rate silently adapting. Optional
//! idle-connection fleets and connection-churn schedules exercise the
//! serving layer itself: the event loop must hold a mostly-idle fleet at
//! its fixed thread count while it serves the curve. It is the one driver
//! that runs the 2k idle fleet; the closed-loop
//! per-manager wire sweeps (E10, E11, E13) were retired for `bench/`'s
//! `wire_point` and `wire_durable_put`, which check what they checked on
//! every run (EXPERIMENTS.md says why).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use rand::distributions::Zipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use stm_cm::ManagerKind;
use stm_kv::{KvClient, KvError, KvServer, ServerConfig};

use crate::report::{Ctx, Outcome};
use crate::workload::OpRecorder;

/// E16: offered load against goodput against p99 sojourn under greedy,
/// while the server holds a mostly-idle fleet at its fixed thread count.
pub fn overload(ctx: &Ctx) -> Outcome {
    let (loads, millis, fleet): (&[f64], u64, usize) = ctx.size(
        (&[500.0, 4_000.0], 200, 128),
        (&[1_000.0, 4_000.0, 16_000.0, 64_000.0, 256_000.0], 400, 2_000),
        (&[1_000.0, 4_000.0, 16_000.0, 32_000.0, 64_000.0, 128_000.0, 256_000.0], 1_000, 2_000),
    );
    let started = KvServer::start(ServerConfig {
        manager: ManagerKind::Greedy,
        shards: 8,
        ..ServerConfig::default()
    });
    let mut server = match started {
        Ok(server) => server,
        Err(err) => {
            let violations = vec![format!("cannot start the server: {err}")];
            return Outcome { rows: Vec::new(), violations };
        }
    };
    let mut rows = Vec::new();
    let mut violations = Vec::new();
    for &offered_load in loads {
        let cfg = OpenLoopConfig {
            offered_load,
            pool: 4,
            duration: Duration::from_millis(millis),
            idle_connections: ctx.idle.unwrap_or(fleet),
            churn_every: 256,
            ..OpenLoopConfig::default()
        };
        match run_open_loop(server.addr(), "greedy", &cfg) {
            Ok(row) => rows.push(row),
            Err(err) => violations.push(format!("open loop at {offered_load} req/s: {err}")),
        }
    }
    server.shutdown();
    violations.extend(gate(&rows));
    Outcome::new(&rows, violations)
}

/// The serving gate: every row made progress with finite percentiles, and a
/// server asked to hold an idle fleet was seen holding all of it.
#[must_use]
pub fn gate(rows: &[OpenLoopResult]) -> Vec<String> {
    let mut violations = Vec::new();
    for row in rows {
        if row.goodput <= 0.0 || !row.p99_sojourn_us.is_finite() {
            violations.push(format!("degenerate row: {row:?}"));
        }
        if (row.conns_open_observed as usize) < row.idle_connections {
            violations.push(format!(
                "the server held only {} of {} idle connections at {} req/s",
                row.conns_open_observed, row.idle_connections, row.offered_load
            ));
        }
    }
    violations
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
    /// Server-side `partial_writes` delta over the run.
    pub partial_writes: u64,
}

/// Draws an exponential inter-arrival gap for a Poisson process of `rate`
/// events/second.
pub(crate) fn exp_gap(rng: &mut SmallRng, rate: f64) -> Duration {
    // 1 - u is in (0, 1], so ln is finite and the gap non-negative.
    let u: f64 = rng.gen();
    Duration::from_secs_f64(-(1.0 - u).ln() / rate)
}

/// Runs the open-loop generator against a live server.
///
/// Workers issue zipfian `PUT`/`GET` singles on independent Poisson
/// schedules; `idle_connections` silent connections are held open
/// throughout; sojourn latency is measured from the *scheduled* arrival, so
/// queueing delay under overload is visible.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_reports_goodput_sojourn_and_idle_fleet() {
        let server = KvServer::start(ServerConfig {
            manager: ManagerKind::Greedy,
            shards: 4,
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
        let row = run_open_loop(server.addr(), "greedy", &cfg).unwrap();
        assert!(row.completed > 0, "no requests completed: {row:?}");
        assert!(row.goodput > 0.0);
        assert!(row.p99_sojourn_us >= row.p50_sojourn_us);
        assert!(
            row.conns_open_observed >= 16,
            "idle fleet not held open: {row:?}"
        );
        assert!(row.reconnects > 0, "churn schedule never fired: {row:?}");
        assert!(gate(std::slice::from_ref(&row)).is_empty(), "{row:?}");
        // The gate names a fleet the server did not hold and a stalled row.
        let dropped = OpenLoopResult { conns_open_observed: 3, goodput: 0.0, ..row };
        assert_eq!(gate(&[dropped]).len(), 2);
    }
}
