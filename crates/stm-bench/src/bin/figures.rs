//! `figures` — regenerates the paper's evaluation from the command line.
//!
//! ```text
//! cargo run --release -p stm-bench --bin figures -- all
//! cargo run --release -p stm-bench --bin figures -- fig1 --quick
//! cargo run --release -p stm-bench --bin figures -- chain bound starvation
//! cargo run --release -p stm-bench --bin figures -- fig2 --json
//! cargo run --release -p stm-bench --bin figures -- --sweep machine
//! cargo run --release -p stm-bench --bin figures -- --sweep smoke
//! ```
//!
//! Available experiments: `fig1` `fig2` `fig3` `fig4` (throughput sweeps),
//! `matrix` (the workload matrix: structures × op mixes × managers ×
//! threads), `readfrac` (throughput vs. read fraction 0..=1), `server`
//! (over-the-wire `stm-kv` cells: one live server per manager, driven by
//! the closed-loop network client), `durability` (E11: fsync policy ×
//! manager over a WAL-backed server, volatile baseline included), `strings`
//! (E13: 50%-string-value PUT mix vs the int baseline over a durable
//! server), `ablate`
//! (E12: one `ManagerParams` knob per figure — greedy timeout, karma
//! increment, backoff cap), `churn` (E14: rolling PUT+DEL keyspace churn —
//! cell-GC boundedness and commit-path cost; exits non-zero when the
//! resident-cell bound is violated, which is the CI leak gate),
//! `hotpath` (E15: commit-path microbenchmark — single-cell read/increment
//! transactions, threads × manager × mix, p50/p99 + throughput; with
//! `--baseline BENCH_hotpath.json` it becomes the CI perf gate and exits
//! non-zero when any cell's p99 regresses >25% against the committed
//! `"after"` rows; `--phase before|after` tags the emitted rows),
//! `overload` (E16: open-loop Poisson/zipfian offered-load sweep against a
//! live server per serve mode — threads vs events — with an idle-connection
//! fleet held under events; `--idle N` overrides the fleet size; exits
//! non-zero on zero goodput or a dropped fleet, which is the CI serving
//! gate), `metrics` (E17: telemetry cross-validation — wide `SUM`
//! probes against a live events server, asserting the scraped `METRICS`
//! histogram's mass and p99 bucket agree with stm-bench's own sojourn
//! accounting, plus the goodput cost of continuous scraping at the E16
//! knee; the CI metrics smoke gate), `chain` (the Section 4 adversarial chain),
//! `bound` (Theorem 9 ratio sweep), `starvation` (Theorem 1),
//! `ablation-reads` (visible vs invisible reads), `all` (everything except
//! `matrix`, `readfrac`, `server`, `durability`, `strings` and `ablate`).
//!
//! Flags: `--sweep paper|quick|smoke|machine` selects the sweep size —
//! `machine` sizes the thread axis to the host (1..=2× available
//! parallelism) and emits one JSON record per matrix cell; `smoke` is the
//! seconds-long CI sanity pass. `--quick` is shorthand for `--sweep quick`;
//! `--json` prints raw JSON instead of tables. With `--sweep machine` or
//! `--sweep smoke` and no experiment named, the workload matrix runs.

use std::time::Duration;

use stm_bench::{
    ablation_sweep, bound_experiment, chain_experiment, check_against_baseline, churn_experiment,
    default_ablation_knobs, default_durability_policies, default_read_fractions,
    durability_matrix, fig1_list, fig2_skiplist, fig3_rbtree, fig4_forest, hotpath_matrix,
    matrix_structures, read_fraction_sweep, render_figure_table, render_matrix_table,
    render_op_breakdown, render_read_fraction_table, render_rows, run_metrics_probe,
    run_netload, run_open_loop, run_workload, starvation_experiment, string_value_matrix,
    workload_matrix, ChurnConfig, HotpathConfig, MetricsProbeConfig, NetLoadConfig, OpMix,
    OpenLoopConfig, StructureKind, SweepConfig, WorkloadConfig,
};
use stm_cm::ManagerKind;
use stm_core::{ReadVisibility, Stm};
use stm_kv::{KvClient, KvServer, ServeMode, ServerConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let mut sweep_mode: Option<String> = None;
    let mut experiments: Vec<String> = Vec::new();
    let mut baseline: Option<String> = None;
    let mut phase = "after".to_string();
    let mut idle_override: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {}
            "--quick" => {
                sweep_mode.get_or_insert_with(|| "quick".to_string());
            }
            "--sweep" => {
                i += 1;
                let Some(mode) = args.get(i) else {
                    eprintln!("--sweep needs a mode: paper, quick, smoke or machine");
                    std::process::exit(2);
                };
                sweep_mode = Some(mode.clone());
            }
            "--baseline" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("--baseline needs a path to a committed BENCH_hotpath.json");
                    std::process::exit(2);
                };
                baseline = Some(path.clone());
            }
            "--phase" => {
                i += 1;
                let Some(tag) = args.get(i) else {
                    eprintln!("--phase needs a tag: before or after");
                    std::process::exit(2);
                };
                phase = tag.clone();
            }
            "--idle" => {
                i += 1;
                let parsed = args.get(i).and_then(|v| v.parse().ok());
                let Some(count) = parsed else {
                    eprintln!("--idle needs a connection count");
                    std::process::exit(2);
                };
                idle_override = Some(count);
            }
            flag if flag.starts_with("--") => {
                eprintln!("ignoring unknown flag '{flag}'");
            }
            name => experiments.push(name.to_string()),
        }
        i += 1;
    }
    let mode = sweep_mode.unwrap_or_else(|| "paper".to_string());
    let sweep = match mode.as_str() {
        "paper" => SweepConfig::paper_defaults(),
        "quick" => SweepConfig::quick(),
        "smoke" => SweepConfig::smoke(),
        "machine" => SweepConfig::machine(),
        other => {
            eprintln!("unknown sweep mode '{other}'; expected paper, quick, smoke or machine");
            std::process::exit(2);
        }
    };
    let quick = matches!(mode.as_str(), "quick" | "smoke");
    if experiments.is_empty() {
        experiments = if matches!(mode.as_str(), "machine" | "smoke") {
            vec!["matrix".into()]
        } else {
            vec!["all".into()]
        };
    }
    if experiments.iter().any(|e| e == "all") {
        experiments = vec![
            "fig1".into(),
            "fig2".into(),
            "fig3".into(),
            "fig4".into(),
            "chain".into(),
            "bound".into(),
            "starvation".into(),
            "ablation-reads".into(),
        ];
    }
    for experiment in experiments {
        match experiment.as_str() {
            "fig1" => emit_figure(fig1_list(&sweep), json),
            "fig2" => emit_figure(fig2_skiplist(&sweep), json),
            "fig3" => emit_figure(fig3_rbtree(&sweep), json),
            "fig4" => emit_figure(fig4_forest(&sweep), json),
            "matrix" => {
                // The matrix always covers the three standard mixes, even
                // under the single-mix paper/quick sweeps.
                let mut matrix_sweep = sweep.clone();
                if matrix_sweep.mixes.len() < 2 {
                    matrix_sweep.mixes = OpMix::standard_matrix();
                }
                let cells = workload_matrix(&matrix_structures(), &matrix_sweep);
                // `--sweep machine` exists to feed post-processing, so it
                // always emits one JSON record per cell.
                if json || mode == "machine" {
                    println!("{}", render_rows(&cells));
                } else {
                    println!("{}", render_matrix_table(&cells));
                }
            }
            "readfrac" => {
                let fractions = if quick {
                    vec![0.0, 0.5, 1.0]
                } else {
                    default_read_fractions()
                };
                let data = read_fraction_sweep(StructureKind::RbTree, &fractions, &sweep);
                if json {
                    println!("{}", render_rows(&data));
                } else {
                    println!("{}", render_read_fraction_table(&data));
                }
            }
            "server" => {
                // One live stm-kv server per manager, driven over loopback by
                // the closed-loop client; cells mirror the in-process sweeps.
                let connections = 4usize;
                let cfg = NetLoadConfig {
                    connections,
                    key_range: sweep.base.key_range.min(4096),
                    duration: if quick {
                        Duration::from_millis(80)
                    } else {
                        sweep.base.duration.max(Duration::from_millis(150))
                    },
                    mix: OpMix::read_mostly(),
                    range_span: sweep.base.range_span,
                    ..NetLoadConfig::default()
                };
                let mut cells = Vec::new();
                for manager in &sweep.managers {
                    let mut server = match KvServer::start(ServerConfig {
                        manager: *manager,
                        shards: 8,
                        workers: connections + 1,
                        ..ServerConfig::default()
                    }) {
                        Ok(server) => server,
                        Err(err) => {
                            eprintln!("cannot start server for {manager}: {err}");
                            continue;
                        }
                    };
                    match run_netload(server.addr(), manager.name(), &cfg) {
                        Ok(cell) => cells.push(cell),
                        Err(err) => eprintln!("netload against {manager} failed: {err}"),
                    }
                    server.shutdown();
                }
                if json {
                    println!("{}", render_rows(&cells));
                } else {
                    println!("{}", render_matrix_table(&cells));
                    println!("{}", render_op_breakdown(&cells));
                }
            }
            "durability" => {
                // E11: fsync policy × manager over a live WAL-backed server
                // (plus the volatile baseline), temp dirs per cell.
                let connections = 4usize;
                let cfg = NetLoadConfig {
                    connections,
                    key_range: sweep.base.key_range.min(4096),
                    duration: if quick {
                        Duration::from_millis(80)
                    } else {
                        sweep.base.duration.max(Duration::from_millis(150))
                    },
                    mix: OpMix::update_only(), // every op logs: worst case
                    range_span: sweep.base.range_span,
                    batch_fraction: 0.2,
                    ..NetLoadConfig::default()
                };
                let policies = default_durability_policies();
                let managers: Vec<_> = if quick {
                    vec![stm_cm::ManagerKind::Greedy, stm_cm::ManagerKind::Karma]
                } else {
                    sweep.managers.clone()
                };
                let cells = durability_matrix(&policies, &managers, &cfg);
                if json {
                    println!("{}", render_rows(&cells));
                } else {
                    println!("{}", render_matrix_table(&cells));
                    println!("{}", render_op_breakdown(&cells));
                }
            }
            "strings" => {
                // E13: string-value PUT mix vs the int baseline, per
                // manager, over a durable (WAL-backed) server. String
                // payloads stress value cloning, frame encoding and log
                // record size; the baseline cell isolates the delta.
                let connections = 4usize;
                let cfg = NetLoadConfig {
                    connections,
                    key_range: sweep.base.key_range.min(4096),
                    duration: if quick {
                        Duration::from_millis(80)
                    } else {
                        sweep.base.duration.max(Duration::from_millis(150))
                    },
                    mix: OpMix::update_only(), // every op writes: worst case
                    range_span: sweep.base.range_span,
                    batch_fraction: 0.2,
                    ..NetLoadConfig::default()
                };
                let managers: Vec<_> = if quick {
                    vec![stm_cm::ManagerKind::Greedy, stm_cm::ManagerKind::Karma]
                } else {
                    sweep.managers.clone()
                };
                let cells =
                    string_value_matrix(&managers, stm_log::FsyncPolicy::EveryN(64), &cfg);
                if json {
                    println!("{}", render_rows(&cells));
                } else {
                    println!("{}", render_matrix_table(&cells));
                    println!("{}", render_op_breakdown(&cells));
                }
            }
            "overload" => {
                // E16: open-loop overload sweep — offered load vs goodput vs
                // p99 sojourn, per serve mode. The events server additionally
                // holds a mostly-idle connection fleet at fixed thread count
                // (the scenario a thread-per-connection pool cannot absorb).
                // Doubles as the CI serving gate: zero goodput, a lost idle
                // fleet, or a non-finite percentile fails the process.
                let (loads, duration, idle_events) = match mode.as_str() {
                    "smoke" => (
                        vec![500.0, 4_000.0],
                        Duration::from_millis(200),
                        idle_override.unwrap_or(128),
                    ),
                    "quick" => (
                        vec![1_000.0, 4_000.0, 16_000.0, 64_000.0, 256_000.0],
                        Duration::from_millis(400),
                        idle_override.unwrap_or(2_000),
                    ),
                    _ => (
                        vec![
                            1_000.0, 4_000.0, 16_000.0, 32_000.0, 64_000.0, 128_000.0,
                            256_000.0,
                        ],
                        Duration::from_secs(1),
                        idle_override.unwrap_or(2_000),
                    ),
                };
                let pool = 4usize;
                let mut rows = Vec::new();
                let mut gate_failed = false;
                for serve_mode in [ServeMode::Threads, ServeMode::Events] {
                    // Only the event loop can hold an idle fleet at fixed
                    // thread count; under the pool every idle connection
                    // would occupy a worker, which is the point of E16.
                    let idle = match serve_mode {
                        ServeMode::Events => idle_events,
                        ServeMode::Threads => 0,
                    };
                    let mut server = match KvServer::start(ServerConfig {
                        manager: ManagerKind::Greedy,
                        shards: 8,
                        workers: pool + 2,
                        serve_mode,
                        ..ServerConfig::default()
                    }) {
                        Ok(server) => server,
                        Err(err) => {
                            eprintln!("cannot start {} server: {err}", serve_mode.label());
                            gate_failed = true;
                            continue;
                        }
                    };
                    for &offered_load in &loads {
                        let cfg = OpenLoopConfig {
                            offered_load,
                            pool,
                            key_range: 1024,
                            zipf_exponent: 0.99,
                            put_fraction: 0.5,
                            duration,
                            idle_connections: idle,
                            churn_every: 256,
                            ..OpenLoopConfig::default()
                        };
                        match run_open_loop(
                            server.addr(),
                            "greedy",
                            serve_mode.label(),
                            &cfg,
                        ) {
                            Ok(row) => {
                                if row.goodput <= 0.0 || !row.p99_sojourn_us.is_finite() {
                                    eprintln!(
                                        "E16 gate: degenerate row under {}: {row:?}",
                                        serve_mode.label()
                                    );
                                    gate_failed = true;
                                }
                                if idle > 0 && (row.conns_open_observed as usize) < idle {
                                    eprintln!(
                                        "E16 gate: events server held only {} of {} idle \
                                         connections",
                                        row.conns_open_observed, idle
                                    );
                                    gate_failed = true;
                                }
                                rows.push(row);
                            }
                            Err(err) => {
                                eprintln!(
                                    "E16: open-loop at {offered_load} req/s against {} \
                                     failed: {err}",
                                    serve_mode.label()
                                );
                                gate_failed = true;
                            }
                        }
                    }
                    server.shutdown();
                }
                if json {
                    println!("{}", render_rows(&rows));
                } else {
                    println!(
                        "# E16 — open-loop overload sweep (greedy, {pool} generator conns, \
                         zipf 0.99, {idle_events} idle conns under events)"
                    );
                    println!(
                        "{:>8} {:>10} {:>10} {:>10} {:>12} {:>12} {:>8} {:>10} {:>8}",
                        "mode", "offered/s", "goodput/s", "completed", "p50-us", "p99-us",
                        "idle", "conns-open", "reconn"
                    );
                    for r in &rows {
                        println!(
                            "{:>8} {:>10.0} {:>10.0} {:>10} {:>12.0} {:>12.0} {:>8} {:>10} {:>8}",
                            r.serve_mode,
                            r.offered_load,
                            r.goodput,
                            r.completed,
                            r.p50_sojourn_us,
                            r.p99_sojourn_us,
                            r.idle_connections,
                            r.conns_open_observed,
                            r.reconnects
                        );
                    }
                }
                if gate_failed {
                    std::process::exit(1);
                }
            }
            "metrics" => {
                // E17: telemetry cross-validation + scrape overhead. One
                // events-mode server; phase 1 drives wide SUM probes and
                // asserts the scraped per-op histogram's mass and p99 agree
                // with stm-bench's own sojourn accounting; phase 2 measures
                // the goodput cost of continuous METRICS+SLOWLOG scraping
                // at the E16 knee. Doubles as the CI metrics smoke gate:
                // missing/all-zero series, mass mismatch, a p99 bucket more
                // than one off, or causeless SLOWLOG entries fail the
                // process (the <1% overhead budget is enforced on the
                // paper-scale run that produces BENCH_metrics.json).
                let cfg = match mode.as_str() {
                    "smoke" => MetricsProbeConfig::smoke(),
                    "quick" => MetricsProbeConfig::quick(),
                    _ => MetricsProbeConfig::paper(),
                };
                let mut server = match KvServer::start(ServerConfig {
                    manager: ManagerKind::Greedy,
                    shards: 8,
                    workers: cfg.overhead_pool + 2,
                    serve_mode: ServeMode::Events,
                    ..ServerConfig::default()
                }) {
                    Ok(server) => server,
                    Err(err) => {
                        eprintln!("cannot start events server for E17: {err}");
                        std::process::exit(1);
                    }
                };
                let mut gate_failed = false;
                let row = match run_metrics_probe(server.addr(), "greedy", "events", &cfg) {
                    Ok(row) => row,
                    Err(err) => {
                        eprintln!("E17 probe failed: {err}");
                        std::process::exit(1);
                    }
                };
                if !row.mass_matches {
                    eprintln!(
                        "E17 gate: scraped SUM histogram count {} disagrees with the \
                         client's {} completed probes",
                        row.server_sum_count_delta, row.probes_completed
                    );
                    gate_failed = true;
                }
                if !row.p99_agrees {
                    eprintln!(
                        "E17 gate: scraped p99 bucket {} vs sojourn p99 bucket {} \
                         (client p99 {:.0} us) — more than one log2 bucket apart",
                        row.server_p99_bucket, row.client_p99_bucket, row.client_p99_us
                    );
                    gate_failed = true;
                }
                if mode == "paper" && row.scrape_overhead_frac >= 0.01 {
                    eprintln!(
                        "E17 gate: scraping cost {:.2}% goodput at the knee \
                         ({:.0} -> {:.0} req/s) — budget is <1%",
                        row.scrape_overhead_frac * 100.0,
                        row.baseline_goodput,
                        row.scraped_goodput
                    );
                    gate_failed = true;
                }
                // Post-load smoke checks: the series a dashboard depends on
                // must exist and carry mass, and SLOWLOG must explain
                // aborts, not just time them.
                match KvClient::connect(server.addr()) {
                    Ok(mut scraper) => {
                        match scraper.metrics() {
                            Ok(snapshot) => {
                                for series in ["stm_commits_total", "stm_transactions_total"] {
                                    if snapshot.value(series).unwrap_or(0) == 0 {
                                        eprintln!("E17 gate: {series} missing or zero");
                                        gate_failed = true;
                                    }
                                }
                                if snapshot.counter("stm_kv_requests_total") == 0 {
                                    eprintln!("E17 gate: stm_kv_requests_total missing or zero");
                                    gate_failed = true;
                                }
                                let op_mass = snapshot
                                    .histogram("stm_kv_op_latency_us")
                                    .map_or(0, |h| h.count);
                                if op_mass == 0 {
                                    eprintln!(
                                        "E17 gate: stm_kv_op_latency_us missing or empty"
                                    );
                                    gate_failed = true;
                                }
                            }
                            Err(err) => {
                                eprintln!("E17 gate: METRICS scrape failed: {err}");
                                gate_failed = true;
                            }
                        }
                        match scraper.slowlog(16) {
                            Ok(entries) if entries.is_empty() => {
                                eprintln!("E17 gate: SLOWLOG empty after sustained load");
                                gate_failed = true;
                            }
                            Ok(entries) => {
                                for entry in &entries {
                                    if !entry.contains("causes=") || !entry.contains("wall_us=")
                                    {
                                        eprintln!(
                                            "E17 gate: SLOWLOG entry lacks abort-cause \
                                             accounting: {entry}"
                                        );
                                        gate_failed = true;
                                    }
                                }
                            }
                            Err(err) => {
                                eprintln!("E17 gate: SLOWLOG failed: {err}");
                                gate_failed = true;
                            }
                        }
                        let _ = scraper.quit();
                    }
                    Err(err) => {
                        eprintln!("E17 gate: cannot connect smoke scraper: {err}");
                        gate_failed = true;
                    }
                }
                server.shutdown();
                if json {
                    println!("{}", render_rows(&[row]));
                } else {
                    println!(
                        "# E17 — telemetry cross-validation ({} SUM probes spanning {} keys) \
                         + scrape overhead at {:.0} req/s",
                        row.probes_completed, cfg.sum_span, cfg.overhead_load
                    );
                    println!(
                        "mass: client {} == scraped {} ({})",
                        row.probes_completed,
                        row.server_sum_count_delta,
                        if row.mass_matches { "ok" } else { "MISMATCH" }
                    );
                    println!(
                        "p99:  sojourn bucket {} vs scraped bucket {} (client p99 {:.0} us, \
                         distance {}, {})",
                        row.client_p99_bucket,
                        row.server_p99_bucket,
                        row.client_p99_us,
                        row.p99_bucket_distance,
                        if row.p99_agrees { "ok" } else { "DISAGREE" }
                    );
                    println!(
                        "cost: {:.0} req/s quiet vs {:.0} req/s scraped ({} scrapes) \
                         -> {:.2}% overhead",
                        row.baseline_goodput,
                        row.scraped_goodput,
                        row.scrapes,
                        row.scrape_overhead_frac * 100.0
                    );
                }
                if gate_failed {
                    std::process::exit(1);
                }
            }
            "ablate" => {
                // E12: one ManagerParams knob per figure, varied around the
                // historical default at the most contended thread count.
                let mut ablate_sweep = sweep.clone();
                if quick {
                    ablate_sweep.base.duration = Duration::from_millis(40);
                }
                let cells =
                    ablation_sweep(StructureKind::List, &default_ablation_knobs(), &ablate_sweep);
                if json {
                    println!("{}", render_rows(&cells));
                } else {
                    println!("{}", render_matrix_table(&cells));
                }
            }
            "chain" => {
                let sizes: Vec<usize> = if quick { vec![2, 4] } else { vec![2, 4, 8, 16] };
                let managers = [
                    ManagerKind::Greedy,
                    ManagerKind::Aggressive,
                    ManagerKind::Karma,
                    ManagerKind::Timestamp,
                ];
                let rows = chain_experiment(&sizes, &managers);
                if json {
                    println!("{}", render_rows(&rows));
                } else {
                    println!("# E5 — adversarial chain (greedy expected ~s+1, optimal 2)");
                    println!(
                        "{:>4} {:>12} {:>10} {:>9} {:>8} {:>10} {:>8}",
                        "s", "manager", "makespan", "optimal", "ratio", "bound", "pc"
                    );
                    for r in rows {
                        println!(
                            "{:>4} {:>12} {:>10.2} {:>9.2} {:>8.2} {:>10.0} {:>8}",
                            r.s, r.manager, r.makespan, r.optimal, r.ratio, r.bound, r.pending_commit
                        );
                    }
                }
            }
            "bound" => {
                let sizes: Vec<(usize, usize)> = if quick {
                    vec![(4, 2), (6, 3)]
                } else {
                    vec![(4, 2), (6, 3), (8, 4), (12, 6)]
                };
                let instances = if quick { 5 } else { 20 };
                let managers = [ManagerKind::Greedy, ManagerKind::Timestamp, ManagerKind::Karma];
                let rows = bound_experiment(&sizes, &managers, instances, 0xbeef);
                if json {
                    println!("{}", render_rows(&rows));
                } else {
                    println!("# E6 — Theorem 9 competitive-ratio sweep (random instances)");
                    println!(
                        "{:>4} {:>4} {:>12} {:>6} {:>9} {:>9} {:>8} {:>6}",
                        "n", "s", "manager", "done", "mean", "worst", "bound", "pc%"
                    );
                    for r in rows {
                        println!(
                            "{:>4} {:>4} {:>12} {:>3}/{:<3} {:>9.2} {:>9.2} {:>8.0} {:>6.0}",
                            r.n,
                            r.s,
                            r.manager,
                            r.finished,
                            r.instances,
                            r.mean_ratio,
                            r.max_ratio,
                            r.bound,
                            r.pending_commit_fraction * 100.0
                        );
                    }
                }
            }
            "starvation" => {
                let duration = if quick {
                    Duration::from_millis(150)
                } else {
                    Duration::from_millis(500)
                };
                let managers = [
                    ManagerKind::Greedy,
                    ManagerKind::Karma,
                    ManagerKind::Aggressive,
                    ManagerKind::Backoff,
                ];
                let rows: Vec<_> = managers
                    .iter()
                    .map(|m| starvation_experiment(*m, 4, 32, duration))
                    .collect();
                if json {
                    println!("{}", render_rows(&rows));
                } else {
                    println!("# E7 — Theorem 1 starvation check (1 long writer vs 4 short writers)");
                    println!(
                        "{:>12} {:>12} {:>14} {:>16} {:>14} {:>14}",
                        "manager", "long-commits", "worst-attempts", "worst-latency", "short-commits", "no-starvation"
                    );
                    for r in rows {
                        println!(
                            "{:>12} {:>12} {:>14} {:>14.1?} {:>14} {:>14}",
                            r.manager,
                            r.long_commits,
                            r.worst_attempts,
                            r.worst_latency,
                            r.short_commits,
                            r.no_starvation
                        );
                    }
                }
            }
            "churn" => {
                // E14: rolling PUT+DEL over fresh keys — the workload that
                // used to leak a cell per key. Doubles as the CI leak gate:
                // any unbounded row fails the process.
                let cfg = match mode.as_str() {
                    "smoke" => ChurnConfig::smoke(),
                    "quick" => ChurnConfig::quick(),
                    _ => ChurnConfig::default(),
                };
                let managers: Vec<ManagerKind> = if quick {
                    vec![ManagerKind::Greedy, ManagerKind::Karma]
                } else {
                    vec![
                        ManagerKind::Greedy,
                        ManagerKind::Karma,
                        ManagerKind::Timestamp,
                        ManagerKind::Polka,
                    ]
                };
                let rows: Vec<_> = managers
                    .iter()
                    .map(|m| churn_experiment(*m, &cfg))
                    .collect();
                if json {
                    println!("{}", render_rows(&rows));
                } else {
                    println!(
                        "# E14 — keyspace churn: commit-time cell GC ({} threads, window {})",
                        cfg.threads, cfg.window
                    );
                    println!(
                        "{:>12} {:>10} {:>10} {:>9} {:>9} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8}",
                        "manager", "ops", "ops/s", "put-ns", "del-ns", "alloc", "freed",
                        "linked^", "bound", "limbo^", "bounded"
                    );
                    for r in &rows {
                        println!(
                            "{:>12} {:>10} {:>10.0} {:>9.0} {:>9.0} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8}",
                            r.manager,
                            r.ops,
                            r.throughput,
                            r.put_ns,
                            r.del_ns,
                            r.cells_allocated,
                            r.cells_freed,
                            r.linked_peak,
                            r.linked_bound,
                            r.limbo_watermark,
                            r.bounded
                        );
                    }
                }
                if let Some(bad) = rows.iter().find(|r| !r.bounded) {
                    eprintln!(
                        "churn bound violated under {}: peak {} linked cells exceeds \
                         the bound {} for {} live keys (allocated {}, freed {}, \
                         limbo watermark {})",
                        bad.manager,
                        bad.linked_peak,
                        bad.linked_bound,
                        bad.live_keys,
                        bad.cells_allocated,
                        bad.cells_freed,
                        bad.limbo_watermark
                    );
                    std::process::exit(1);
                }
            }
            "hotpath" => {
                // E15: commit-path microbenchmark. With --baseline this is
                // the CI perf gate: any p50 more than 50% over the
                // committed "after" row for the same cell fails the build.
                let cfg = match mode.as_str() {
                    "smoke" => HotpathConfig::smoke(),
                    "quick" => HotpathConfig::quick(),
                    _ => HotpathConfig::default(),
                };
                let rows = hotpath_matrix(&phase, &cfg);
                if json {
                    println!("{}", render_rows(&rows));
                } else {
                    println!(
                        "# E15 — commit-path microbenchmark ({} cells, {} ops/thread, phase {})",
                        cfg.cells, cfg.ops_per_thread, phase
                    );
                    println!(
                        "{:>12} {:>8} {:>8} {:>12} {:>12} {:>10} {:>10} {:>10}",
                        "manager", "mix", "threads", "ops", "ops/s", "mean-ns", "p50-ns", "p99-ns"
                    );
                    for r in &rows {
                        println!(
                            "{:>12} {:>8} {:>8} {:>12} {:>12.0} {:>10.0} {:>10} {:>10}",
                            r.manager, r.mix, r.threads, r.ops, r.throughput, r.mean_ns,
                            r.p50_ns, r.p99_ns
                        );
                    }
                }
                if let Some(path) = &baseline {
                    let text = match std::fs::read_to_string(path) {
                        Ok(text) => text,
                        Err(err) => {
                            eprintln!("cannot read baseline {path}: {err}");
                            std::process::exit(2);
                        }
                    };
                    match check_against_baseline(&rows, &text) {
                        Ok(violations) if violations.is_empty() => {
                            println!("hotpath baseline gate passed ({path})");
                        }
                        Ok(violations) => {
                            for v in &violations {
                                eprintln!("hotpath p50 regression: {v}");
                            }
                            std::process::exit(1);
                        }
                        Err(err) => {
                            eprintln!("hotpath baseline {path} unusable: {err}");
                            std::process::exit(2);
                        }
                    }
                }
            }
            "ablation-reads" => ablation_reads(quick, json),
            other => eprintln!("unknown experiment '{other}', skipping"),
        }
        println!();
    }
}

fn emit_figure(data: stm_bench::FigureData, json: bool) {
    if json {
        println!("{}", render_rows(&data));
    } else {
        println!("{}", render_figure_table(&data));
    }
}

/// Visible vs invisible reads under the greedy manager on the list
/// benchmark (the read-visibility ablation called out in DESIGN.md).
fn ablation_reads(quick: bool, json: bool) {
    let cfg = WorkloadConfig {
        threads: 4,
        key_range: 256,
        duration: if quick {
            Duration::from_millis(80)
        } else {
            Duration::from_millis(300)
        },
        local_work: 0,
        seed: 0xab1a,
        ..WorkloadConfig::default()
    };
    // run_workload always uses the default (visible) mode; for the ablation we
    // drive the list directly with both visibilities.
    let mut rows = Vec::new();
    for visibility in [ReadVisibility::Visible, ReadVisibility::Invisible] {
        let stm = Stm::builder()
            .manager(ManagerKind::Greedy.factory())
            .read_visibility(visibility)
            .build();
        let commits = ablation_run(&stm, &cfg);
        rows.push((format!("{visibility:?}"), commits, cfg.duration));
    }
    if json {
        let as_json: Vec<_> = rows
            .iter()
            .map(|(mode, commits, d)| {
                serde_json::json!({
                    "mode": mode,
                    "commits": commits,
                    "throughput": *commits as f64 / d.as_secs_f64(),
                })
            })
            .collect();
        println!("{}", render_rows(&as_json));
    } else {
        println!("# Ablation — read visibility (greedy, list, 4 threads)");
        println!("{:>12} {:>12} {:>16}", "mode", "commits", "commits/sec");
        for (mode, commits, d) in rows {
            println!(
                "{:>12} {:>12} {:>16.0}",
                mode,
                commits,
                commits as f64 / d.as_secs_f64()
            );
        }
    }
    // Also print the standard harness numbers for context.
    let standard = run_workload(ManagerKind::Greedy, &StructureKind::List, &cfg);
    if !json {
        println!(
            "(standard harness, visible reads: {:.0} commits/sec)",
            standard.throughput
        );
    }
}

fn ablation_run(stm: &Stm, cfg: &WorkloadConfig) -> u64 {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier};
    use stm_structures::{TxList, TxSet};

    let list = TxList::new();
    {
        let mut ctx = stm.thread();
        for key in (0..cfg.key_range).step_by(2) {
            ctx.atomically(|tx| list.insert(tx, key)).unwrap();
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(cfg.threads + 1));
    let mut total = 0u64;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..cfg.threads {
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            let list = list.clone();
            let cfg = *cfg;
            let stm = &*stm;
            handles.push(scope.spawn(move || {
                let mut ctx = stm.thread();
                let mut rng = SmallRng::seed_from_u64(cfg.seed ^ t as u64);
                let mut commits = 0u64;
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    let key = rng.gen_range(0..cfg.key_range);
                    let insert = rng.gen_bool(0.5);
                    let ok = ctx
                        .atomically(|tx| {
                            if insert {
                                list.insert(tx, key)
                            } else {
                                list.remove(tx, key)
                            }
                        })
                        .is_ok();
                    if ok {
                        commits += 1;
                    }
                }
                commits
            }));
        }
        barrier.wait();
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            total += h.join().unwrap();
        }
    });
    total
}
