//! One run: one workload, timed (`--trace 0`, end-to-end metrics) or traced
//! (`--trace 1`, per-layer metrics). End-to-end metrics never come from a
//! traced or a counted run.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use stm_cm::ManagerKind;
use stm_kv::proto::{render_request_v2, Reply, Request};
use stm_kv::KvServer;

use crate::gen::{self, wire_key, Model, Op, Stream, Workload, DURABLE_USER_BYTES};
use crate::inproc::{stats_delta, Bank};
use crate::report::RunReport;
use crate::scrape::{log2_quantile, Delta};
use crate::stats::{episodes_for, median, midmean, supports, Clock, Hist};
use crate::trace::Trace;
use crate::wire::{
    reply_ok, run_phase, send_all, start_server, verify_keyspace, Check, Conn, Gen, Phase, Shape,
    SAT_WINDOW,
};
use crate::{layers, sys};

/// Times set-up is repeated in a timed run (once under `--smoke`);
/// `setup_s` is the median.
const SETUPS: usize = 3;
/// Requests of the traced run (the first of connection 0's stream). Durable
/// requests wait for an fsync each, so fewer of them fit.
const TRACED_REQUESTS: usize = 20_000;
const TRACED_REQUESTS_DURABLE: usize = 4_000;

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrink every phase to one second (unit tests, humans).
    pub smoke: bool,
    /// `bench/out`: WAL directories, traces, run reports.
    pub out_dir: PathBuf,
}

/// How long each phase runs, derived from `--seconds`.
struct Durations {
    warm: Duration,
    /// Wire: open loop at the frozen rate.
    open: Duration,
    /// Wire: closed loop, window 32. In-process: the whole measurement.
    sat: Duration,
    /// Traced run: the counted repeat of **sat**.
    counted: Duration,
    /// Traced run: closed loop at depth 1, for `server.pipeline_gain`.
    depth1: Duration,
    /// Traced run: open loop again, for `gen_lag_p99_us`, `p50_us`, `p99_us`.
    lag_probe: Duration,
    /// Traced run, in-process: one run per compared manager.
    cm_each: Duration,
}

impl Durations {
    fn new(opts: &Opts) -> Durations {
        let secs = Duration::from_secs_f64;
        if opts.smoke {
            return Durations {
                warm: secs(0.2),
                open: secs(1.0),
                sat: secs(1.0),
                counted: secs(1.0),
                depth1: secs(1.0),
                lag_probe: secs(1.0),
                cm_each: secs(1.0),
            };
        }
        let s = opts.seconds;
        let wire = opts.workload != Workload::InprocContended;
        Durations {
            warm: secs((s / 10.0).min(2.0)),
            open: secs(s * 0.45),
            sat: secs(if wire { s * 0.55 } else { s }),
            counted: secs(s / 4.0),
            depth1: secs(s / 10.0),
            lag_probe: secs(s / 5.0),
            cm_each: secs(s / 8.0),
        }
    }
}

/// Generator threads (and connections): `min(nproc, 2)`.
pub fn generators() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

pub fn run(opts: &Opts) -> RunReport {
    std::fs::create_dir_all(&opts.out_dir).expect("create bench/out");
    let mut report = RunReport::new(opts.workload.name(), opts.trace, opts.seed, opts.seconds);
    // Every metric the driver reads is present, 0 where a workload bypasses
    // the layer.
    for (name, _) in RunReport::contract_names(opts.trace) {
        report.set(name, 0.0);
    }
    let outcome = match (opts.workload, opts.trace) {
        (Workload::InprocContended, false) => {
            inproc_timed(opts, &mut report);
            Ok(())
        }
        (Workload::InprocContended, true) => inproc_traced(opts, &mut report),
        (_, false) => wire_timed(opts, &mut report),
        (_, true) => wire_traced(opts, &mut report),
    };
    if let Err(err) = outcome {
        report.fail(format!("run aborted: {err}"));
    }
    if report.failed > 0 {
        report.fail(format!(
            "{} of {} operations failed",
            report.failed, report.attempted
        ));
    }
    report.set(
        "fail_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    if !opts.trace {
        report.set("peak_rss_mb", sys::peak_rss_mb());
    }
    report
}

// ---------------------------------------------------------------------------
// Wire workloads
// ---------------------------------------------------------------------------

struct Wire {
    server: KvServer,
    gens: Vec<Gen>,
    prefills: Vec<Stream>,
}

fn wal_dir(opts: &Opts, label: &str) -> Option<PathBuf> {
    opts.workload.durable().then(|| {
        opts.out_dir.join(format!(
            "wal_{}_{label}_{}",
            opts.workload.name(),
            std::process::id()
        ))
    })
}

/// Set-up: server start, prefill and request pre-rendering.
fn setup_wire(opts: &Opts, wal: Option<&Path>) -> io::Result<Wire> {
    if let Some(dir) = wal {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)?;
    }
    let server = start_server(wal.map(Path::to_path_buf))?;
    let conns = generators();
    let addr = server.addr();
    let (workload, seed) = (opts.workload, opts.seed);
    let built: Vec<io::Result<(Gen, Stream)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                scope.spawn(move || {
                    let mut gen = Gen {
                        conn: Conn::connect(addr)?,
                        stream: gen::stream(workload, seed, conn, conns),
                        model: Model::new(workload, conns),
                        cursor: 0,
                    };
                    let prefill = gen::prefill(workload, seed, conn, conns);
                    send_all(&mut gen.conn, &prefill, &mut gen.model)?;
                    Ok((gen, prefill))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("set-up thread panicked"))
            .collect()
    });
    let (mut gens, mut prefills) = (Vec::new(), Vec::new());
    for result in built {
        let (gen, prefill) = result?;
        gens.push(gen);
        prefills.push(prefill);
    }
    Ok(Wire {
        server,
        gens,
        prefills,
    })
}

/// Episodes a phase is cut into, at most.
const EPISODES: usize = 10;

/// A phase, run as back-to-back episodes with fresh generator threads each.
///
/// On this 2-core host the scheduler's placement of a generator against the
/// server thread it talks to (same core: a context switch; other core: an
/// inter-processor interrupt through the hypervisor) holds for as long as
/// the threads live and moves p50 by a factor of two. Each episode draws a
/// placement afresh and a metric is the [`midmean`] over episodes, so a run
/// reports the typical placement, not the one it happened to get.
struct Episodes {
    /// Per episode, all connections (threads) merged.
    latency: Vec<Hist>,
    /// Per episode: correct replies (commits) per second.
    rates: Vec<f64>,
    lag: Hist,
    replies: u64,
    acked_puts: u64,
}

impl Episodes {
    fn new() -> Episodes {
        Episodes {
            latency: Vec::new(),
            rates: Vec::new(),
            lag: Hist::new(),
            replies: 0,
            acked_puts: 0,
        }
    }

    /// Midmean over episodes of each episode's `q`-quantile.
    fn percentile(&self, q: f64) -> f64 {
        midmean(
            &self
                .latency
                .iter()
                .map(|h| h.percentile(q))
                .collect::<Vec<_>>(),
        )
    }

    /// Whether every episode has ten samples beyond `q`.
    fn supports(&self, q: f64) -> bool {
        self.latency.iter().all(|h| supports(q, h.count()))
    }

    fn goodput(&self) -> f64 {
        midmean(&self.rates)
    }

    fn samples(&self) -> u64 {
        self.latency.iter().map(Hist::count).sum()
    }

    fn max_ns(&self) -> u64 {
        self.latency.iter().map(Hist::max).max().unwrap_or(0)
    }
}

/// How many episodes a wire phase of this shape and length is cut into.
fn episode_count(workload: Workload, shape: Shape, duration: Duration) -> usize {
    match shape {
        // Every episode must hold enough samples for a p99.
        Shape::Open => {
            let expected = workload.open_rate_rps() * duration.as_secs_f64();
            episodes_for(0.99, expected as u64, EPISODES)
        }
        Shape::Closed { .. } => ((duration.as_secs_f64() / 0.1) as usize).clamp(1, EPISODES),
    }
}

/// Runs one episode on every connection at once and adds it to `episodes`.
fn wire_episode(
    workload: Workload,
    gens: &mut [Gen],
    phase: Phase,
    clock: Clock,
    report: &mut RunReport,
    episodes: &mut Episodes,
    sample: impl FnMut(),
) {
    let mut latency = Hist::new();
    let mut done = 0;
    for result in run_phase(workload, gens, phase, clock, sample) {
        report.attempted += result.attempted;
        report.failed += result.failed;
        latency.merge(&result.latency);
        done += result.done;
        episodes.lag.merge(&result.lag);
        episodes.acked_puts += result.acked_puts;
        if let Some(error) = result.error {
            report.fail(format!("connection failed: {error}"));
        }
    }
    episodes.replies += done;
    episodes
        .rates
        .push(done as f64 / phase.duration.as_secs_f64());
    episodes.latency.push(latency);
}

/// Runs one wire phase on every connection, as episodes.
fn wire_phase(
    workload: Workload,
    gens: &mut [Gen],
    shape: Shape,
    duration: Duration,
    clock: Clock,
    report: &mut RunReport,
    mut sample: impl FnMut(),
) -> Episodes {
    let count = episode_count(workload, shape, duration);
    let phase = Phase {
        shape,
        duration: duration / count as u32,
    };
    let mut episodes = Episodes::new();
    for _ in 0..count {
        wire_episode(
            workload,
            gens,
            phase,
            clock,
            report,
            &mut episodes,
            &mut sample,
        );
    }
    episodes
}

/// Runs the bank closed loop for `duration`, as episodes.
fn bank_phase(bank: &Bank, duration: Duration, clock: Clock, report: &mut RunReport) -> Episodes {
    let count = ((duration.as_secs_f64() / 0.1) as usize).clamp(1, EPISODES);
    let each = duration / count as u32;
    let mut episodes = Episodes::new();
    for _ in 0..count {
        let run = bank.run(each, clock);
        report.attempted += run.attempted;
        report.failed += run.failed;
        episodes.replies += run.done;
        episodes.rates.push(run.done as f64 / each.as_secs_f64());
        episodes.latency.push(run.latency);
    }
    if !bank.conserved() {
        report.failed += 1;
        report.fail("the accounts' total changed");
    }
    episodes
}

/// Folds every connection's model of its own keys into connection 0's and
/// returns that connection.
fn merged_models(gens: &mut [Gen]) -> &mut Gen {
    let conns = gens.len();
    let (first, rest) = gens.split_first_mut().expect("at least one connection");
    for (offset, other) in rest.iter().enumerate() {
        first.model.adopt(&other.model, offset + 1, conns);
    }
    first
}

/// Compares the server's whole keyspace with the connections' models.
fn verify(wire: &mut Wire, workload: Workload, report: &mut RunReport) -> io::Result<()> {
    let conns = wire.gens.len();
    let first = merged_models(&mut wire.gens);
    let (keys, wrong) = verify_keyspace(&mut first.conn, workload, &first.model, conns)?;
    report.attempted += keys;
    report.failed += wrong;
    if wrong > 0 {
        report.fail(format!(
            "{wrong} of {keys} keys differ from the sequential models"
        ));
    }
    Ok(())
}

/// Durable only: shuts the server down, restarts it on the same directory,
/// times recovery to the first successful `GET`, and reads every
/// acknowledged `PUT` back.
fn restart_and_verify(
    mut wire: Wire,
    opts: &Opts,
    dir: &Path,
    report: &mut RunReport,
) -> io::Result<()> {
    let records = wire.server.wal().map_or(0, |wal| wal.stats().records);
    let conns = wire.gens.len();
    let model = wire.gens.swap_remove(0).model;
    drop(wire.gens);
    wire.server.shutdown();
    drop(wire.server);

    let clock = Clock::start();
    let server = start_server(Some(dir.to_path_buf()))?;
    let mut conn = Conn::connect(server.addr())?;
    let probe = render_request_v2(&Request::Get(wire_key(0)));
    let reply = conn.roundtrip(&probe)?;
    let recovery_s = clock.now_ns() as f64 / 1e9;
    if !matches!(reply, Reply::Value(_)) {
        report.fail(format!("first GET after restart answered {reply:?}"));
    }
    report.set("recovery_krec_per_s", records as f64 / 1e3 / recovery_s);
    report.note("recovery_records", records as f64);
    report.note("recovery_s", recovery_s);

    let (keys, wrong) = verify_keyspace(&mut conn, opts.workload, &model, conns)?;
    report.attempted += keys;
    report.failed += wrong;
    if wrong > 0 {
        report.fail(format!(
            "{wrong} of {keys} acknowledged PUTs did not read back after restart"
        ));
    }
    drop(conn);
    drop(server);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

fn wire_timed(opts: &Opts, report: &mut RunReport) -> io::Result<()> {
    let durations = Durations::new(opts);
    let workload = opts.workload;
    let wal = wal_dir(opts, "timed");

    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut wire = None;
    for _ in 0..if opts.smoke { 1 } else { SETUPS } {
        drop(wire.take());
        sys::release_freed_memory();
        let clock = Clock::start();
        wire = Some(setup_wire(opts, wal.as_deref())?);
        setup_times.push(clock.now_ns() as f64 / 1e9);
    }
    let mut wire = wire.expect("SETUPS > 0");
    report.set("setup_s", median(&setup_times));

    let clock = Clock::start();
    let closed = Shape::Closed { window: SAT_WINDOW };
    wire_phase(
        workload,
        &mut wire.gens,
        closed,
        durations.warm,
        clock,
        report,
        || {},
    );

    // **open** and **sat** alternate, one episode each, so that both see
    // the whole run's drift (a virtual disk's fsync time wanders over tens
    // of seconds) instead of one half of it each.
    let wal_bytes_before = wire.server.wal().map_or(0, |wal| wal.stats().bytes);
    let rounds = episode_count(workload, Shape::Open, durations.open);
    let open_episode = Phase {
        shape: Shape::Open,
        duration: durations.open / rounds as u32,
    };
    let sat_episode = Phase {
        shape: closed,
        duration: durations.sat / rounds as u32,
    };
    let (mut open, mut sat) = (Episodes::new(), Episodes::new());
    for _ in 0..rounds {
        wire_episode(
            workload,
            &mut wire.gens,
            open_episode,
            clock,
            report,
            &mut open,
            || {},
        );
        wire_episode(
            workload,
            &mut wire.gens,
            sat_episode,
            clock,
            report,
            &mut sat,
            || {},
        );
    }
    open_phase_metrics(workload, &open, report);
    if !(open.supports(0.99) || opts.smoke) {
        report.fail(format!(
            "{} open-phase samples are too few for a p99",
            open.samples()
        ));
    }
    report.set("goodput_rps", sat.goodput());
    report.note("sat_replies", sat.replies as f64);
    report.note("sat_episodes", sat.rates.len() as f64);

    if let Some(wal) = wire.server.wal() {
        let written = wal.stats().bytes - wal_bytes_before;
        let acked = (open.acked_puts + sat.acked_puts) * DURABLE_USER_BYTES;
        report.set("wal_amp", written as f64 / acked.max(1) as f64);
    }
    verify(&mut wire, workload, report)?;
    match &wal {
        Some(dir) => restart_and_verify(wire, opts, dir, report),
        None => Ok(()),
    }
}

/// Sojourn percentiles and generator lateness of an open phase. The run is
/// marked invalid when the generator's median lateness exceeds a quarter of
/// the median sojourn it measured: the sojourn is timed from the due time,
/// so a late generator inflates it.
fn open_phase_metrics(workload: Workload, open: &Episodes, report: &mut RunReport) {
    let p50_us = open.percentile(0.5) / 1e3;
    report.set("p50_us", p50_us);
    report.set("p99_us", open.percentile(0.99) / 1e3);
    report.set("gen_lag_p99_us", open.lag.percentile(0.99) / 1e3);
    report.note("gen_lag_p50_us", open.lag.percentile(0.5) / 1e3);
    report.note("open_samples", open.samples() as f64);
    report.note("open_episodes", open.latency.len() as f64);
    report.note("open_rate_rps", workload.open_rate_rps());
    report.note("open_rate_fraction", workload.open_rate_fraction());
    report.note("open_max_us", open.max_ns() as f64 / 1e3);
    report.generator_on_time = open.lag.percentile(0.5) / 1e3 <= p50_us / 4.0;
}

fn wire_traced(opts: &Opts, report: &mut RunReport) -> io::Result<()> {
    let durations = Durations::new(opts);
    let workload = opts.workload;
    let wal = wal_dir(opts, "traced");
    let mut wire = setup_wire(opts, wal.as_deref())?;
    let conns = wire.gens.len();
    let clock = Clock::start();
    let mut trace = Trace::default();
    let count = if workload.durable() {
        TRACED_REQUESTS_DURABLE
    } else {
        TRACED_REQUESTS
    };

    // Depth-1 round trips through the live server: `count` with a span each,
    // then `count` more with only a timestamp pair, which is what tracing
    // costs. Connection 0 is alone, so every reply is checked exactly.
    let mut live = Vec::with_capacity(count);
    let mut untraced = Hist::new();
    {
        // Connection 0 reads keys the other connections prefilled.
        let first = merged_models(&mut wire.gens);
        for i in 0..2 * count {
            let meta = first.stream.meta[i];
            let started = clock.now_ns();
            let reply = first.conn.roundtrip(first.stream.request(i))?;
            let ended = clock.now_ns();
            if i < count {
                let span = trace.begin("wire.roundtrip", None, i as u32, started);
                trace.end(span, ended);
            } else {
                untraced.record(ended - started);
            }
            report.attempted += 1;
            if !reply_ok(workload, &meta, &reply, &first.model, Check::Exact) {
                report.failed += 1;
            }
            first.model.apply(&meta);
            if i < count {
                live.push(reply);
            }
        }
        first.cursor = 2 * count;
    }
    let rtt = trace.durations("wire.roundtrip", |_| true);
    report.set("server.rtt_p50_us", rtt.percentile(0.5) / 1e3);
    report.set(
        "trace.overhead_frac",
        rtt.percentile(0.5) / untraced.percentile(0.5).max(1.0) - 1.0,
    );

    // The same requests through each layer's public functions.
    let replay_dir = wal_dir(opts, "replay");
    let all_prefill: Vec<_> = wire
        .prefills
        .iter()
        .flat_map(|p| p.meta.iter().copied())
        .collect();
    let replayed = layers::replay(
        workload,
        &all_prefill,
        &wire.gens[0].stream.meta[..count],
        conns,
        replay_dir.as_deref(),
        clock,
        &mut trace,
    )?;
    if let Some(dir) = &replay_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let mismatched = live
        .iter()
        .zip(&replayed.replies)
        .filter(|(a, b)| a != b)
        .count();
    if mismatched > 0 {
        report.failed += mismatched as u64;
        report.fail(format!(
            "{mismatched} replayed replies differ from the live server's"
        ));
    }
    layer_times(workload, &wire.gens[0].stream, &trace, &replayed, report);
    report.set("stm_log.recover_s", replayed.recover_s);
    report.set("stm_log.snapshot_write_s", replayed.snapshot_write_s);
    report.set("trace.spans", trace.spans.len() as f64);
    report.set("trace.requests", count as f64);

    // Counts: METRICS before and after a counted repeat of **sat** with the
    // timed run's connections, because a single-threaded trace has no
    // conflicts, no group commit and no ring occupancy to count.
    let closed = Shape::Closed { window: SAT_WINDOW };
    let mut limbo_peak = 0usize;
    let before = wire.server.metrics_text();
    let counted = {
        let epoch = wire.server.stm().epoch();
        let sample = || limbo_peak = limbo_peak.max(epoch.limbo_len());
        wire_phase(
            workload,
            &mut wire.gens,
            closed,
            durations.counted,
            clock,
            report,
            sample,
        )
    };
    let after = wire.server.metrics_text();
    let delta = Delta::parse(before, after).map_err(io::Error::other)?;
    server_counts(&delta, report);
    report.set("store.cells_limbo_peak", limbo_peak as f64);
    if workload.durable() {
        let acked = counted.acked_puts * DURABLE_USER_BYTES;
        report.set(
            "wal_amp",
            delta.counter("stm_wal_bytes_total") as f64 / acked.max(1) as f64,
        );
    }

    let depth1 = Shape::Closed { window: 1 };
    let shallow = wire_phase(
        workload,
        &mut wire.gens,
        depth1,
        durations.depth1,
        clock,
        report,
        || {},
    );
    report.set(
        "server.pipeline_gain",
        counted.goodput() / shallow.goodput().max(1.0),
    );

    // The open loop once more, for the generator's lateness and the sojourn
    // percentiles (reported beside the per-layer metrics, see the README).
    let probe = wire_phase(
        workload,
        &mut wire.gens,
        Shape::Open,
        durations.lag_probe,
        clock,
        report,
        || {},
    );
    open_phase_metrics(workload, &probe, report);

    report.set(
        "stm_core.txn_ns_p50",
        layers::stm_core_txn(clock).percentile(0.5),
    );
    if workload.durable() {
        report.set(
            "stm_log.encode_ns_p50",
            layers::stm_log_encode(clock).percentile(0.5),
        );
    }
    if workload == Workload::WireScanChurn {
        let (insert, remove, range) = layers::index_ops(clock);
        report.set("stm_structures.index_insert_ns_p50", insert.percentile(0.5));
        report.set("stm_structures.index_remove_ns_p50", remove.percentile(0.5));
        report.set(
            "stm_structures.index_range_ns_per_key",
            range.percentile(0.5),
        );
    }

    trace.write_jsonl(
        &opts
            .out_dir
            .join(format!("trace_{}.jsonl", workload.name())),
    )?;
    verify(&mut wire, workload, report)?;
    match &wal {
        Some(dir) => restart_and_verify(wire, opts, dir, report),
        None => Ok(()),
    }
}

/// Layer p50s from the replay spans, and the residual they leave of the
/// live round trip: `server.residual_us` is the round trip's p50 minus the
/// replayed layers' p50s, so the layers and the residual sum to
/// `server.rtt_p50_us` by construction.
fn layer_times(
    workload: Workload,
    stream: &Stream,
    trace: &Trace,
    replayed: &layers::Replayed,
    report: &mut RunReport,
) {
    let p50 = |name: &str| trace.durations(name, |_| true).percentile(0.5);
    let layers = [
        ("client.encode_ns_p50", p50("client.encode")),
        ("proto.decode_ns_p50", p50("proto.decode")),
        ("proto.render_ns_p50", p50("proto.render")),
        ("client.decode_ns_p50", p50("client.decode")),
    ];
    for (name, value) in layers {
        report.set(name, value);
    }
    let txn_ns = p50("store.txn");
    let replayed_ns: f64 = layers.iter().map(|(_, value)| value).sum::<f64>() + txn_ns;
    report.set(
        "server.residual_us",
        report.get("server.rtt_p50_us") - replayed_ns / 1e3,
    );
    report.note("replay.store_txn_ns_p50", txn_ns);
    if workload.durable() {
        report.set("stm_log.append_wait_us_p50", txn_ns / 1e3);
    }

    // Store time is the transaction's self time: the durable wait is the
    // log's, not the store's.
    let op_of = |request: u32| stream.meta[request as usize].op;
    let created = |request: u32| replayed.created[request as usize];
    let own = |keep: &dyn Fn(u32) -> bool| {
        trace
            .self_durations("store.txn", |span| keep(span.request))
            .percentile(0.5)
    };
    report.set("store.get_ns_p50", own(&|r| op_of(r) == Op::Get));
    report.set(
        "store.put_ns_p50",
        own(&|r| op_of(r) == Op::Put && !created(r)),
    );
    report.set("store.put_new_ns_p50", own(&|r| created(r)));
    report.set("store.del_ns_p50", own(&|r| op_of(r) == Op::Del));

    let (mut range_ns, mut range_keys) = (0u64, 0u64);
    let (mut render_ns, mut render_bytes, mut reply_bytes) = (0u64, 0u64, 0u64);
    for span in &trace.spans {
        let request = span.request as usize;
        let ns = span.end_ns - span.start_ns;
        match (span.name, &replayed.replies[request]) {
            ("store.txn", Reply::Range(pairs)) => {
                range_ns += ns;
                range_keys += pairs.len() as u64;
            }
            ("proto.render", reply) => {
                reply_bytes += u64::from(replayed.reply_bytes[request]);
                // Per-KiB cost is about large replies where there are any.
                if workload != Workload::WireScanChurn || matches!(reply, Reply::Range(_)) {
                    render_ns += ns;
                    render_bytes += u64::from(replayed.reply_bytes[request]);
                }
            }
            _ => {}
        }
    }
    report.set(
        "store.range_ns_per_key",
        range_ns as f64 / range_keys.max(1) as f64,
    );
    report.set(
        "proto.render_ns_per_kb",
        render_ns as f64 / (render_bytes.max(1) as f64 / 1024.0),
    );
    report.set(
        "proto.reply_bytes_per_op",
        reply_bytes as f64 / replayed.replies.len().max(1) as f64,
    );
}

/// Per-layer counts of the counted run, from the `METRICS` delta.
fn server_counts(delta: &Delta, report: &mut RunReport) {
    let count = |series: &str| delta.counter(series) as f64;
    report.set("server.requests", count("stm_kv_requests_total"));
    report.set("server.errors", count("stm_kv_errors_total"));
    report.set(
        "server.partial_writes",
        count("stm_kv_partial_writes_total"),
    );
    report.set(
        "server.conns_accepted",
        delta.gauge("stm_kv_connections_total") as f64,
    );
    report.set(
        "server.op_latency_p50_us",
        log2_quantile(&delta.histogram("stm_kv_op_latency_us"), 0.5),
    );
    report.set("store.cells_allocated", count("stm_kv_cells_allocated"));
    report.set("store.cells_freed", count("stm_kv_cells_freed"));

    let (attempts, commits) = (count("stm_attempts_total"), count("stm_commits_total"));
    report.set("stm_core.attempts_per_commit", attempts / commits.max(1.0));
    report.set("stm_cm.useful_ratio", commits / attempts.max(1.0));
    report.set(
        "stm_core.validation_failures",
        count("stm_validation_failures_total"),
    );
    report.set(
        "stm_core.txn_max_us",
        delta.histogram("stm_kv_txn_latency_us").quantile(1.0) as f64,
    );
    for cause in stm_core::AbortCause::ALL {
        report.set(
            &format!("stm_core.aborts.{}", cause.label()),
            count(&format!("stm_aborts_total{{cause=\"{}\"}}", cause.label())),
        );
    }
    for decision in ["wait", "abort_other", "abort_self"] {
        report.set(
            &format!("stm_cm.decisions.{decision}"),
            count(&format!(
                "stm_manager_decisions_total{{decision=\"{decision}\"}}"
            )),
        );
    }

    report.set("stm_log.fsyncs", count("stm_wal_fsyncs_total"));
    report.set("stm_log.records", count("stm_wal_records_total"));
    report.set("stm_log.bytes", count("stm_wal_bytes_total"));
    report.set(
        "stm_log.fsync_us_p50",
        log2_quantile(&delta.histogram("stm_wal_fsync_us"), 0.5),
    );
    report.set(
        "stm_log.batch_records_mean",
        delta.histogram("stm_wal_batch_records").mean(),
    );
    report.set(
        "stm_log.ring_occupancy_p99",
        log2_quantile(&delta.histogram("stm_wal_ring_occupancy"), 0.99),
    );
}

// ---------------------------------------------------------------------------
// inproc_contended
// ---------------------------------------------------------------------------

fn inproc_timed(opts: &Opts, report: &mut RunReport) {
    let durations = Durations::new(opts);
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut bank = None;
    for _ in 0..SETUPS {
        let clock = Clock::start();
        bank = Some(Bank::new(ManagerKind::Greedy, generators(), opts.seed));
        setup_times.push(clock.now_ns() as f64 / 1e9);
    }
    let bank = bank.expect("SETUPS > 0");
    report.set("setup_s", median(&setup_times));

    let clock = Clock::start();
    let _ = bank.run(durations.warm, clock);
    let run = bank_phase(&bank, durations.sat, clock, report);
    report.set("goodput_rps", run.goodput());
    report.set("p50_us", run.percentile(0.5) / 1e3);
    report.set("p99_us", run.percentile(0.99) / 1e3);
    report.note("samples", run.samples() as f64);
    report.note("episodes", run.latency.len() as f64);
    report.note("max_us", run.max_ns() as f64 / 1e3);
    if !run.supports(0.99) {
        report.fail("too few transactions for a p99");
    }
}

fn inproc_traced(opts: &Opts, report: &mut RunReport) -> io::Result<()> {
    let durations = Durations::new(opts);
    let clock = Clock::start();
    let threads = generators();

    // One thread, a span per transfer; then the same without spans, which
    // is what tracing costs.
    let mut trace = Trace::default();
    let solo = Bank::new(ManagerKind::Greedy, 1, opts.seed);
    report.attempted += TRACED_REQUESTS as u64;
    report.failed += solo.run_traced(TRACED_REQUESTS, clock, &mut trace);
    let traced_p50 = trace.durations("stm_core.txn", |_| true).percentile(0.5);
    let untraced = bank_phase(&solo, Duration::from_millis(200), clock, report);
    report.set(
        "trace.overhead_frac",
        traced_p50 / untraced.percentile(0.5).max(1.0) - 1.0,
    );
    report.set("trace.spans", trace.spans.len() as f64);
    report.set("trace.requests", TRACED_REQUESTS as f64);
    trace.write_jsonl(
        &opts
            .out_dir
            .join(format!("trace_{}.jsonl", opts.workload.name())),
    )?;

    // Counts, tail and worst case from a counted repeat with the timed
    // run's thread count.
    let bank = Bank::new(ManagerKind::Greedy, threads, opts.seed);
    let _ = bank.run(durations.warm, clock);
    let before = bank.stats();
    let counted = bank_phase(&bank, durations.counted, clock, report);
    let stats = stats_delta(&before, &bank.stats());
    report.set("p50_us", counted.percentile(0.5) / 1e3);
    report.set("p99_us", counted.percentile(0.99) / 1e3);
    report.set("stm_core.attempts_per_commit", stats.attempts_per_commit());
    report.set(
        "stm_cm.useful_ratio",
        stats.commits as f64 / stats.attempts.max(1) as f64,
    );
    report.set(
        "stm_core.validation_failures",
        stats.validation_failures as f64,
    );
    report.set("stm_core.txn_max_us", counted.max_ns() as f64 / 1e3);
    for cause in stm_core::AbortCause::ALL {
        report.set(
            &format!("stm_core.aborts.{}", cause.label()),
            stats.aborts_by_cause[cause.index()] as f64,
        );
    }
    let self_aborts = stats.aborts_by_cause[stm_core::AbortCause::ManagerSelfAbort.index()];
    report.set("stm_cm.decisions.wait", stats.waits as f64);
    report.set("stm_cm.decisions.abort_other", stats.enemy_aborts as f64);
    report.set("stm_cm.decisions.abort_self", self_aborts as f64);
    report.set("stm_cm.goodput_rps.greedy", counted.goodput());

    for (name, manager) in [("karma", ManagerKind::Karma), ("polka", ManagerKind::Polka)] {
        let rival = Bank::new(manager, threads, opts.seed);
        let run = bank_phase(&rival, durations.cm_each, clock, report);
        report.set(&format!("stm_cm.goodput_rps.{name}"), run.goodput());
    }
    report.set(
        "stm_core.txn_ns_p50",
        layers::stm_core_txn(clock).percentile(0.5),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, trace: bool) -> RunReport {
        // Tests run in parallel: each gets its own output directory.
        let out_dir = std::env::temp_dir().join(format!(
            "repo-bench-smoke-{}-{}-{}",
            std::process::id(),
            workload.name(),
            u8::from(trace)
        ));
        let report = run(&Opts {
            workload,
            seed: 5,
            seconds: 1.0,
            trace,
            smoke: true,
            out_dir: out_dir.clone(),
        });
        if trace {
            assert!(out_dir
                .join(format!("trace_{}.jsonl", workload.name()))
                .exists());
        }
        let _ = std::fs::remove_dir_all(out_dir);
        assert!(report.correct, "{:?}", report.errors);
        assert_eq!(report.failed, 0);
        for (name, _) in RunReport::contract_names(trace) {
            assert!(report.metrics.contains_key(name), "{name} missing");
        }
        report
    }

    #[test]
    fn smoke_wire_point_timed() {
        let report = smoke(Workload::WirePoint, false);
        assert!(report.get("goodput_rps") > 0.0 && report.get("p50_us") > 0.0);
        assert!(report.get("setup_s") > 0.0 && report.get("peak_rss_mb") > 0.0);
        assert_eq!(report.get("wal_amp"), 0.0);
    }

    #[test]
    fn smoke_wire_durable_put_survives_a_restart() {
        let report = smoke(Workload::WireDurablePut, false);
        assert!(report.get("recovery_krec_per_s") > 0.0);
        // A record frames its 264 user bytes; it cannot be smaller than them.
        assert!(report.get("wal_amp") > 1.0 && report.get("wal_amp") < 2.0);
    }

    #[test]
    fn smoke_wire_scan_churn_traced_bypasses_the_log() {
        let report = smoke(Workload::WireScanChurn, true);
        assert!(report.get("store.del_ns_p50") > 0.0);
        assert!(report.get("stm_structures.index_insert_ns_p50") > 0.0);
        assert!(report.get("store.cells_freed") > 0.0);
        assert_eq!(report.get("stm_log.records"), 0.0);
        // Layers and residual sum to the round trip by construction.
        let layers_us = [
            "client.encode_ns_p50",
            "proto.decode_ns_p50",
            "proto.render_ns_p50",
            "client.decode_ns_p50",
        ]
        .iter()
        .map(|name| report.get(name))
        .sum::<f64>()
            / 1e3
            + report.notes["replay.store_txn_ns_p50"] / 1e3;
        let rebuilt = layers_us + report.get("server.residual_us");
        assert!((rebuilt - report.get("server.rtt_p50_us")).abs() < 1e-6);
    }

    #[test]
    fn smoke_inproc_contended_bypasses_the_server() {
        let timed = smoke(Workload::InprocContended, false);
        assert!(timed.get("goodput_rps") > 0.0);
        let traced = smoke(Workload::InprocContended, true);
        assert!(traced.get("stm_core.attempts_per_commit") >= 1.0);
        assert!(traced.get("stm_cm.goodput_rps.polka") > 0.0);
        assert_eq!(traced.get("server.requests"), 0.0);
        assert_eq!(traced.get("proto.decode_ns_p50"), 0.0);
    }
}
