//! E17 — cross-validation of the telemetry subsystem itself, plus the
//! scrape-overhead budget.
//!
//! The `METRICS` exposition is only trustworthy if an *independent*
//! accounting of the same traffic agrees with it. This probe drives a
//! live server with wide `SUM` requests — deliberately asymmetric work:
//! the client sends one request line and parses one reply line while the
//! server reads tens of thousands of cells in one transaction — so the
//! server-side service time *is* the client-observed request → reply time
//! up to wire and scheduling overhead that one log2 bucket absorbs. (Timed
//! from the issue, not from the Poisson-scheduled arrival: a probe that
//! queues behind the one before it waits where the server cannot see, and
//! on a few dozen samples that wait alone put the two p99s two buckets
//! apart on 4 of 80 smoke runs.) stm-bench keeps
//! its own books and then checks them against the scrape:
//!
//! * **mass** — every completed probe request is exactly one
//!   `stm_kv_op_latency_us{op="SUM"}` sample, so the scraped count delta
//!   across the run must equal the client-side completion count
//!   *exactly*;
//! * **p99** — the client feeds its latency samples into the same
//!   vendored log2 [`Histogram`] the server records into; the scraped
//!   delta histogram's p99 bucket must land within ± one bucket of the
//!   client's.
//!
//! The second phase measures what the instrumentation costs: paired
//! open-loop runs at the E16 saturation knee, alternating a quiet run
//! with one scraped continuously (`METRICS` + `SLOWLOG` in a loop),
//! comparing median goodput. The budget is <1% — telemetry that taxes
//! the hot path is telemetry that gets turned off.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use metrics::{Histogram, HistogramSnapshot};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;

use stm_cm::ManagerKind;
use stm_kv::{KvClient, KvError, KvServer, ServerConfig};

use crate::netload::{exp_gap, run_open_loop, OpenLoopConfig};
use crate::report::{Ctx, Outcome};

/// E17: one server under greedy; wide `SUM` probes checked
/// against the scraped histogram, the goodput cost of continuous scraping at
/// the E16 knee, then what a dashboard depends on is scraped once more.
pub fn metrics(ctx: &Ctx) -> Outcome {
    let cfg = ctx.size(
        MetricsProbeConfig::smoke(),
        MetricsProbeConfig::quick(),
        MetricsProbeConfig::paper(),
    );
    let started = KvServer::start(ServerConfig {
        manager: ManagerKind::Greedy,
        shards: 8,
        ..ServerConfig::default()
    });
    let mut server = match started {
        Ok(server) => server,
        Err(err) => return failed(format!("cannot start the server: {err}")),
    };
    let outcome = match run_metrics_probe(server.addr(), "greedy", &cfg) {
        Ok(row) => {
            let mut violations = gate(std::slice::from_ref(&row));
            // Only the paper-scale run is long enough to resolve 1%.
            if ctx.sweep == "paper" && row.scrape_overhead_frac >= 0.01 {
                violations.push(format!(
                    "scraping cost {:.2}% goodput at the knee ({:.0} -> {:.0} req/s); the \
                     budget is <1%",
                    row.scrape_overhead_frac * 100.0,
                    row.baseline_goodput,
                    row.scraped_goodput
                ));
            }
            violations.extend(
                scrape_checks(server.addr())
                    .unwrap_or_else(|err| vec![format!("post-load scrape failed: {err}")]),
            );
            Outcome::new(&[row], violations)
        }
        Err(err) => failed(format!("probe failed: {err}")),
    };
    server.shutdown();
    outcome
}

fn failed(why: String) -> Outcome {
    Outcome { rows: Vec::new(), violations: vec![why] }
}

/// The cross-validation gate: the scraped histogram holds exactly the
/// client's completions, and its p99 bucket is within one of the client's.
#[must_use]
pub fn gate(rows: &[MetricsProbeResult]) -> Vec<String> {
    let mut violations = Vec::new();
    for row in rows {
        if !row.mass_matches {
            violations.push(format!(
                "scraped SUM histogram count {} disagrees with the client's {} completed probes",
                row.server_sum_count_delta, row.probes_completed
            ));
        }
        if !row.p99_agrees {
            violations.push(format!(
                "scraped p99 bucket {} vs client p99 bucket {} (client p99 {:.0} us): more \
                 than one log2 bucket apart",
                row.server_p99_bucket, row.client_p99_bucket, row.client_p99_us
            ));
        }
    }
    violations
}

/// After load, the series a dashboard depends on must exist and carry mass,
/// and `SLOWLOG` must explain aborts, not just time them.
fn scrape_checks(addr: SocketAddr) -> Result<Vec<String>, KvError> {
    let mut violations = Vec::new();
    let mut scraper = KvClient::connect(addr)?;
    let snapshot = scraper.metrics()?;
    for series in ["stm_commits_total", "stm_transactions_total", "stm_kv_requests_total"] {
        if snapshot.counter(series) == 0 {
            violations.push(format!("{series} missing or zero"));
        }
    }
    if snapshot.histogram("stm_kv_op_latency_us").map_or(0, |h| h.count) == 0 {
        violations.push("stm_kv_op_latency_us missing or empty".to_string());
    }
    let entries = scraper.slowlog(16)?;
    if entries.is_empty() {
        violations.push("SLOWLOG empty after sustained load".to_string());
    }
    for entry in &entries {
        if !entry.contains("causes=") || !entry.contains("wall_us=") {
            violations.push(format!("SLOWLOG entry lacks abort-cause accounting: {entry}"));
        }
    }
    scraper.quit()?;
    Ok(violations)
}

/// Parameters of one E17 telemetry probe.
#[derive(Debug, Clone, Copy)]
pub struct MetricsProbeConfig {
    /// Width of each probe `SUM` — sized so one server-side transaction
    /// takes milliseconds and dwarfs wire/scheduling overhead.
    pub sum_span: i64,
    /// Offered probe rate (requests/second, Poisson schedule).
    pub probe_rate: f64,
    /// Wall-clock length of the probe phase.
    pub probe_duration: Duration,
    /// Keyspace of the overhead phase (zipfian GET/PUT singles).
    pub key_range: i64,
    /// Offered load of each overhead trial (the E16 knee).
    pub overhead_load: f64,
    /// Generator pool of each overhead trial.
    pub overhead_pool: usize,
    /// Wall-clock length of each overhead trial.
    pub overhead_duration: Duration,
    /// Paired (quiet, scraped) overhead trials; medians are compared.
    pub overhead_trials: usize,
    /// Delay between scrapes in the scraped trials (the scraper also
    /// issues a `SLOWLOG` per iteration).
    pub scrape_interval: Duration,
    /// Seed for the schedules and key draws.
    pub seed: u64,
}

impl MetricsProbeConfig {
    /// Paper-scale probe: long enough to measure a sub-1% goodput delta.
    #[must_use]
    pub fn paper() -> MetricsProbeConfig {
        MetricsProbeConfig {
            sum_span: 16_384,
            probe_rate: 30.0,
            probe_duration: Duration::from_millis(3000),
            key_range: 1024,
            overhead_load: 64_000.0,
            overhead_pool: 4,
            overhead_duration: Duration::from_millis(1000),
            overhead_trials: 5,
            scrape_interval: Duration::from_millis(25),
            seed: 0xe17,
        }
    }

    /// Seconds-long variant for local iteration.
    #[must_use]
    pub fn quick() -> MetricsProbeConfig {
        MetricsProbeConfig {
            probe_duration: Duration::from_millis(1000),
            overhead_duration: Duration::from_millis(400),
            overhead_trials: 2,
            ..MetricsProbeConfig::paper()
        }
    }

    /// CI smoke variant: validates mass/p99 agreement and the scrape
    /// machinery, too short to resolve the 1% overhead budget.
    #[must_use]
    pub fn smoke() -> MetricsProbeConfig {
        MetricsProbeConfig {
            sum_span: 8_192,
            probe_rate: 40.0,
            probe_duration: Duration::from_millis(700),
            overhead_load: 8_000.0,
            overhead_duration: Duration::from_millis(200),
            overhead_trials: 1,
            scrape_interval: Duration::from_millis(5),
            ..MetricsProbeConfig::paper()
        }
    }
}

/// One row of the E17 probe (serialized into `BENCH_metrics.json`).
#[derive(Debug, Clone, Serialize)]
pub struct MetricsProbeResult {
    /// Contention manager the server ran.
    pub manager: String,
    /// Probe `SUM` requests completed by the cross-validation phase.
    pub probes_completed: u64,
    /// Scraped `stm_kv_op_latency_us{op="SUM"}` count delta over the
    /// phase — must equal `probes_completed` exactly.
    pub server_sum_count_delta: u64,
    /// Whether the two counts above agree.
    pub mass_matches: bool,
    /// Exact client-side request → reply p99 (microseconds, from raw samples).
    pub client_p99_us: f64,
    /// Log2 bucket index of the client p99 (vendored histogram).
    pub client_p99_bucket: usize,
    /// Log2 bucket index of the scraped server-side `SUM` p99.
    pub server_p99_bucket: usize,
    /// `|client_p99_bucket - server_p99_bucket|`.
    pub p99_bucket_distance: usize,
    /// Whether the p99 buckets agree within ± one bucket.
    pub p99_agrees: bool,
    /// Median goodput of the quiet overhead trials (requests/second).
    pub baseline_goodput: f64,
    /// Median goodput of the continuously scraped trials.
    pub scraped_goodput: f64,
    /// Total `METRICS` scrapes issued across the scraped trials.
    pub scrapes: u64,
    /// `1 - scraped/baseline` — negative means the scraped runs were
    /// faster (measurement noise floor).
    pub scrape_overhead_frac: f64,
}

/// Subtracts scrape `before` from scrape `after` bucket-wise — the
/// histogram mass the server accumulated between the two scrapes.
fn histogram_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let mut buckets = after.buckets;
    for (b, prior) in buckets.iter_mut().zip(before.buckets.iter()) {
        *b = b.saturating_sub(*prior);
    }
    HistogramSnapshot {
        buckets,
        count: after.count.saturating_sub(before.count),
        sum: after.sum.saturating_sub(before.sum),
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("goodput is finite"));
    values[values.len() / 2]
}

/// Runs the full E17 probe against a live server.
///
/// # Errors
///
/// Propagates connection and protocol errors from the control clients.
///
/// # Panics
///
/// Panics when a generator or scraper connection fails mid-run.
pub fn run_metrics_probe(
    addr: SocketAddr,
    manager: &str,
    cfg: &MetricsProbeConfig,
) -> Result<MetricsProbeResult, KvError> {
    assert!(cfg.sum_span > 0);
    assert!(cfg.probe_rate > 0.0 && cfg.probe_rate.is_finite());
    assert!(cfg.overhead_trials > 0);

    // Materialise the summed keyspace in EXEC batches (one-by-one PUTs
    // would cost a round trip per key). Batches land in the EXEC/PUT
    // histograms, which the SUM-based accounting below never reads.
    let mut control = KvClient::connect(addr)?;
    let mut key = 0i64;
    while key < cfg.sum_span {
        let mut batch = control.batch_builder();
        for _ in 0..512.min(cfg.sum_span - key) {
            batch = batch.put(key, 1);
            key += 1;
        }
        batch.run()?;
    }
    for key in 0..cfg.key_range {
        control.put(key, 0)?;
    }

    // ---- Phase 1: histogram-mass and p99 cross-validation. ----
    let before = control.metrics()?;
    let sum_series = "stm_kv_op_latency_us{op=\"SUM\"}";
    let sum_before = before
        .histogram(sum_series)
        .expect("SUM latency series must exist before load");

    let latency_hist = Histogram::new();
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(2));
    let mut latencies_us: Vec<u64> = Vec::new();
    thread::scope(|scope| {
        let worker = {
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            let latency_hist = &latency_hist;
            let cfg = *cfg;
            scope.spawn(move || {
                let mut client =
                    KvClient::connect(addr).expect("probe connection must connect");
                let mut rng = SmallRng::seed_from_u64(cfg.seed);
                let mut local = Vec::new();
                barrier.wait();
                let anchor = Instant::now();
                let mut offset = Duration::ZERO;
                while !stop.load(Ordering::Relaxed) {
                    offset += exp_gap(&mut rng, cfg.probe_rate);
                    let scheduled = anchor + offset;
                    let now = Instant::now();
                    if scheduled > now {
                        thread::sleep(scheduled - now);
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    let issued = Instant::now();
                    let (_, counted) = client
                        .sum(0, cfg.sum_span - 1)
                        .expect("probe SUM must execute");
                    assert_eq!(counted as i64, cfg.sum_span, "probe keyspace lost keys");
                    let us = u64::try_from(issued.elapsed().as_micros())
                        .unwrap_or(u64::MAX);
                    latency_hist.record(us);
                    local.push(us);
                }
                let _ = client.quit();
                local
            })
        };
        barrier.wait();
        thread::sleep(cfg.probe_duration);
        stop.store(true, Ordering::Relaxed);
        latencies_us = worker.join().expect("probe worker panicked");
    });

    let after = control.metrics()?;
    let sum_after = after
        .histogram(sum_series)
        .expect("SUM latency series must exist after load");
    let sum_delta = histogram_delta(&sum_after, &sum_before);

    let probes_completed = latencies_us.len() as u64;
    assert!(probes_completed > 0, "probe completed zero requests");
    latencies_us.sort_unstable();
    let client_p99_us = latencies_us[(latencies_us.len() - 1) * 99 / 100] as f64;

    let client_snapshot = latency_hist.snapshot();
    let client_p99_bucket = client_snapshot
        .quantile_bucket(0.99)
        .expect("client latency histogram has mass");
    let server_p99_bucket = sum_delta.quantile_bucket(0.99).unwrap_or(usize::MAX);
    let p99_bucket_distance = client_p99_bucket.abs_diff(server_p99_bucket);

    // ---- Phase 2: scrape overhead at the saturation knee. ----
    let mut quiet = Vec::new();
    let mut scraped = Vec::new();
    let scrapes = AtomicU64::new(0);
    for trial in 0..cfg.overhead_trials {
        let open_loop = OpenLoopConfig {
            offered_load: cfg.overhead_load,
            pool: cfg.overhead_pool,
            key_range: cfg.key_range,
            duration: cfg.overhead_duration,
            seed: cfg.seed ^ (trial as u64) << 8,
            ..OpenLoopConfig::default()
        };
        let row = run_open_loop(addr, manager, &open_loop)?;
        quiet.push(row.goodput);

        let scraper_stop = Arc::new(AtomicBool::new(false));
        let row = thread::scope(|scope| {
            let stop = Arc::clone(&scraper_stop);
            let scrapes = &scrapes;
            let interval = cfg.scrape_interval;
            let scraper = scope.spawn(move || {
                let mut client = KvClient::connect(addr).expect("scraper must connect");
                while !stop.load(Ordering::Relaxed) {
                    let snapshot = client.metrics().expect("scrape must parse");
                    assert!(
                        snapshot.value("stm_commits_total").is_some(),
                        "scrape lost the commit counter mid-load"
                    );
                    let _ = client.slowlog(8).expect("slowlog must parse");
                    scrapes.fetch_add(1, Ordering::Relaxed);
                    thread::sleep(interval);
                }
                let _ = client.quit();
            });
            let row = run_open_loop(addr, manager, &open_loop);
            scraper_stop.store(true, Ordering::Relaxed);
            scraper.join().expect("scraper panicked");
            row
        })?;
        scraped.push(row.goodput);
    }
    control.quit()?;

    let baseline_goodput = median(&mut quiet);
    let scraped_goodput = median(&mut scraped);
    Ok(MetricsProbeResult {
        manager: manager.to_string(),
        probes_completed,
        server_sum_count_delta: sum_delta.count,
        mass_matches: sum_delta.count == probes_completed,
        client_p99_us,
        client_p99_bucket,
        server_p99_bucket,
        p99_bucket_distance,
        p99_agrees: p99_bucket_distance <= 1,
        baseline_goodput,
        scraped_goodput,
        scrapes: scrapes.into_inner(),
        scrape_overhead_frac: 1.0 - scraped_goodput / baseline_goodput,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_delta_subtracts_bucketwise() {
        let h = Histogram::new();
        h.record(3);
        h.record(100);
        let before = h.snapshot();
        h.record(3);
        h.record(5000);
        let delta = histogram_delta(&h.snapshot(), &before);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.buckets.iter().sum::<u64>(), 2);
        assert_eq!(delta.sum, 5003);
    }

    #[test]
    fn probe_cross_validates_against_a_live_server() {
        let mut server = KvServer::start(ServerConfig {
            manager: ManagerKind::Greedy,
            shards: 4,
            ..ServerConfig::default()
        })
        .expect("server must start");
        let cfg = MetricsProbeConfig {
            sum_span: 4_096,
            probe_rate: 60.0,
            probe_duration: Duration::from_millis(300),
            key_range: 128,
            overhead_load: 2_000.0,
            overhead_duration: Duration::from_millis(120),
            overhead_trials: 1,
            ..MetricsProbeConfig::smoke()
        };
        let row = run_metrics_probe(server.addr(), "greedy", &cfg).expect("probe must complete");
        assert!(row.probes_completed > 0);
        assert!(
            row.mass_matches,
            "scraped SUM count {} != client probes {}",
            row.server_sum_count_delta, row.probes_completed
        );
        assert!(row.scrapes > 0);
        assert!(row.baseline_goodput > 0.0 && row.scraped_goodput > 0.0);
        // p99 agreement is asserted loosely here (the smoke run is too
        // short for tight percentiles); the figures gate enforces ±1.
        assert!(row.p99_bucket_distance <= 3, "{row:?}");
        assert!(scrape_checks(server.addr()).unwrap().is_empty());
        let torn = MetricsProbeResult { mass_matches: false, p99_agrees: false, ..row };
        assert_eq!(gate(&[torn]).len(), 2);
        server.shutdown();
    }
}
