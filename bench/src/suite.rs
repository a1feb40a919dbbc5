//! The whole benchmark: every workload, timed and traced, each run in its
//! own child process (so `peak_rss_mb` is that workload's alone), gathered
//! under one envelope; and `--aa`, the same twice.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use serde_json::Value;

use crate::gen::Workload;
use crate::report::{result_json, Envelope, RunReport, END_TO_END, END_TO_END_EXTRA, PER_LAYER};
use crate::sys;
use crate::wire::start_server;

/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

pub struct SuiteOpts {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

pub fn report_path(out_dir: &Path, workload: &str, trace: bool) -> PathBuf {
    out_dir.join(format!("run_{workload}_t{}.json", u8::from(trace)))
}

/// Runs one workload once in a child process and reads back its report.
fn run_child(opts: &SuiteOpts, workload: Workload, trace: bool) -> Result<RunReport, String> {
    let exe = std::env::current_exe().map_err(|err| err.to_string())?;
    let path = report_path(&opts.out_dir, workload.name(), trace);
    let _ = std::fs::remove_file(&path);
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::null());
    if opts.smoke {
        command.arg("--smoke");
    }
    let status = command.status().map_err(|err| err.to_string())?;
    let report = RunReport::read(&path)
        .ok_or_else(|| format!("{} left no report at {}", workload.name(), path.display()))?;
    if !status.success() {
        return Err(format!(
            "{} exited with {status}: {:?}",
            workload.name(),
            report.errors
        ));
    }
    Ok(report)
}

fn envelope(opts: &SuiteOpts) -> Envelope {
    let serve_mode = start_server(None)
        .map(|server| server.serve_mode().label().to_string())
        .unwrap_or_else(|err| format!("unknown ({err})"));
    let from_env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    Envelope {
        commit: from_env("BENCH_COMMIT"),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        toolchain: from_env("BENCH_TOOLCHAIN"),
        serve_mode,
        fsync: stm_log::FsyncPolicy::EveryCommit.label(),
        wal_fs: sys::fs_type_of(&opts.out_dir),
        seed: opts.seed,
        seconds: opts.seconds,
    }
}

fn print_runs(timed: &RunReport, traced: &RunReport) {
    println!("\n== {} ==", timed.workload);
    println!(
        "  end to end (timed run, {} attempted, {} failed)",
        timed.attempted, timed.failed
    );
    for (name, unit) in END_TO_END.iter().chain(&END_TO_END_EXTRA) {
        // Recovery and WAL amplification exist on the durable workload only.
        if timed.get(name) != 0.0 || *name == "fail_frac" {
            println!("    {name:<38} {:>16.4} {unit}", timed.get(name));
        }
    }
    let note = |name: &str| timed.notes.get(name).copied().unwrap_or(0.0);
    if note("open_rate_rps") > 0.0 {
        println!(
            "    open loop: {} req/s ({}% of seed goodput), {} samples, generator p99 lag {:.1} us",
            note("open_rate_rps"),
            note("open_rate_fraction") * 100.0,
            note("open_samples"),
            timed.get("gen_lag_p99_us"),
        );
    }
    println!(
        "  per layer (traced run, {} attempted, {} failed)",
        traced.attempted, traced.failed
    );
    for (name, unit) in PER_LAYER {
        println!("    {name:<38} {:>16.4} {unit}", traced.get(name));
    }
    for error in timed.errors.iter().chain(&traced.errors) {
        println!("  ERROR: {error}");
    }
    if !timed.generator_on_time {
        println!("  INVALID: the generator ran late (median lag above a quarter of p50_us)");
    }
}

/// Runs every workload timed and traced, prints every metric, writes
/// `<out_dir>/<file>`; returns the reports and whether all of them are sound.
pub fn run_suite(opts: &SuiteOpts, file: &str) -> (Vec<RunReport>, bool) {
    std::fs::create_dir_all(&opts.out_dir).expect("create the output directory");
    let mut runs = Vec::new();
    let mut sound = true;
    for &workload in &opts.workloads {
        match (
            run_child(opts, workload, false),
            run_child(opts, workload, true),
        ) {
            (Ok(timed), Ok(traced)) => {
                print_runs(&timed, &traced);
                sound &= timed.correct && traced.correct && timed.generator_on_time;
                runs.extend([timed, traced]);
            }
            (timed, traced) => {
                for err in [timed.err(), traced.err()].into_iter().flatten() {
                    println!("ERROR: {err}");
                }
                sound = false;
            }
        }
    }
    let path = opts.out_dir.join(file);
    let text = serde_json::to_string_pretty(&result_json(&envelope(opts), &runs))
        .expect("rendering JSON cannot fail");
    std::fs::write(&path, text + "\n").expect("write the result file");
    println!("\nwrote {}", path.display());
    (runs, sound)
}

/// The bounds `BENCHMARK.json` (in the working directory) fixes, by
/// end-to-end metric; empty when the file is missing.
fn committed_bounds() -> Vec<(String, f64)> {
    let spec: Option<Value> = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok());
    spec.as_ref()
        .and_then(|spec| spec.get("end_to_end")?.as_array())
        .into_iter()
        .flatten()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// `--aa`: the suite twice on the same commit and seed. Prints, for every
/// end-to-end metric of every workload, the spread between the two runs and
/// the bound it implies (`max(10%, 2 x spread)`); fails when a metric
/// differs by more than the bound `BENCHMARK.json` fixes for it.
pub fn run_aa(opts: &SuiteOpts) -> bool {
    let (first, first_sound) = run_suite(opts, "result_a.json");
    let (second, second_sound) = run_suite(opts, "result.json");
    let mut ok = first_sound && second_sound;
    let bounds = committed_bounds();
    println!("\n== A/A: same commit, same seed, twice ==");
    println!(
        "  {:<18} {:<20} {:>14} {:>14} {:>8} {:>8} {:>8}",
        "workload", "metric", "first", "second", "spread", "implied", "bound"
    );
    for (a, b) in first.iter().zip(&second).filter(|(a, _)| !a.trace) {
        for (name, _) in END_TO_END.iter().chain(&END_TO_END_EXTRA) {
            let (x, y) = (a.get(name), b.get(name));
            if x == 0.0 && y == 0.0 {
                continue;
            }
            let spread = (x - y).abs() / x.abs().min(y.abs()).max(f64::MIN_POSITIVE);
            let bound = bounds
                .iter()
                .find(|(bounded, _)| bounded == name)
                .map(|(_, bound)| *bound);
            let verdict = if bound.is_some_and(|bound| spread > bound) {
                ok = false;
                "  EXCEEDED"
            } else {
                ""
            };
            println!(
                "  {:<18} {:<20} {x:>14.4} {y:>14.4} {:>7.1}% {:>7.1}% {:>8}{verdict}",
                a.workload,
                name,
                spread * 100.0,
                (2.0 * spread).max(0.10) * 100.0,
                bound.map_or("none".to_string(), |bound| format!("{:.1}%", bound * 100.0)),
            );
        }
    }
    ok
}
