//! `repo-bench`: with `--trace 0|1`, one run of one workload, whose last
//! line of output is the driver's JSON object; without it, the whole suite
//! (or `--aa`, the suite twice). See `bench/README.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use repo_bench::gen::Workload;
use repo_bench::run::{run, Opts};
use repo_bench::suite::{report_path, run_aa, run_suite, SuiteOpts, DEFAULT_SECONDS};

const USAGE: &str = "usage: bench/run.sh [--workload W] [--seed N] [--seconds S] [--smoke] [--aa]
       bench/run.sh --workload W --seed N --seconds S --trace 0|1   (one run, JSON on the last line)
workloads: wire_point wire_durable_put wire_scan_churn inproc_contended";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    aa: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        smoke: false,
        aa: false,
    };
    let mut words = std::env::args().skip(1);
    while let Some(flag) = words.next() {
        let mut value = || words.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                });
            }
            "--smoke" => args.smoke = true,
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Measure the serve mode the server ships with, whatever the caller's
    // environment says.
    std::env::remove_var("STM_KV_SERVE_MODE");
    let out_dir = PathBuf::from(std::env::var("BENCH_OUT_DIR").unwrap_or("bench/out".to_string()));

    if let Some(trace) = args.trace {
        let Some(workload) = args.workload else {
            eprintln!("--trace needs --workload\n{USAGE}");
            return ExitCode::from(2);
        };
        let report = run(&Opts {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace,
            smoke: args.smoke,
            out_dir: out_dir.clone(),
        });
        for error in &report.errors {
            eprintln!("{}: {error}", report.workload);
        }
        if let Err(err) = report.write(&report_path(&out_dir, workload.name(), trace)) {
            eprintln!("cannot write the run report: {err}");
            return ExitCode::FAILURE;
        }
        println!("{}", report.contract_line());
        return if report.correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let opts = SuiteOpts {
        workloads: args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]),
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        out_dir,
    };
    let sound = if args.aa {
        run_aa(&opts)
    } else {
        run_suite(&opts, "result.json").1
    };
    if sound {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
