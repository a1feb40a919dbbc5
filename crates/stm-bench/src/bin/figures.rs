//! `figures` — regenerates the paper's evaluation from the command line.
//! The table below is all of it: `figures --help` prints it, an experiment
//! is one row plus the `run` it names.

use std::io::Write;
use std::process::ExitCode;

use stm_bench::{
    churn, envelope, figures, render, starvation, theory, Ctx, Experiment, SweepConfig, View,
};

static EXPERIMENTS: [Experiment; 11] = [
    Experiment {
        name: "fig1",
        about: "E1, Figure 1: sorted list, 256 keys, 100% updates (high contention)",
        in_all: true,
        view: THROUGHPUT_BY_THREADS,
        run: figures::fig1,
    },
    Experiment {
        name: "fig2",
        about: "E2, Figure 2: skiplist, 256 keys, 100% updates",
        in_all: true,
        view: THROUGHPUT_BY_THREADS,
        run: figures::fig2,
    },
    Experiment {
        name: "fig3",
        about: "E3, Figure 3: red-black tree plus uncontended local work (low contention)",
        in_all: true,
        view: THROUGHPUT_BY_THREADS,
        run: figures::fig3,
    },
    Experiment {
        name: "fig4",
        about: "E4, Figure 4: red-black forest, 50 trees, updates touch one or all",
        in_all: true,
        view: THROUGHPUT_BY_THREADS,
        run: figures::fig4,
    },
    Experiment {
        name: "chain",
        about: "E5, Section 4 adversarial chain: greedy ~ s+1 time units, optimal 2",
        in_all: true,
        view: View::Flat,
        run: theory::chain,
    },
    Experiment {
        name: "bound",
        about: "E6, Theorem 9: competitive ratio on random instances against s(s+1)+2",
        in_all: true,
        view: View::Flat,
        run: theory::bound,
    },
    Experiment {
        name: "starvation",
        about: "E7, Theorem 1: one long writer against four short writers",
        in_all: true,
        view: View::Flat,
        run: starvation::starvation,
    },
    Experiment {
        name: "matrix",
        about: "E8, workload matrix: structures x op mixes x threads x managers",
        in_all: false,
        view: THROUGHPUT_BY_THREADS,
        run: figures::matrix,
    },
    Experiment {
        name: "readfrac",
        about: "E9, red-black tree throughput against the lookup share of the mix",
        in_all: false,
        view: View::Pivot {
            group: &["structure", "threads"],
            row: "mix",
            col: "manager",
            value: "throughput",
        },
        run: figures::readfrac,
    },
    Experiment {
        name: "ablate",
        about: "E12, one manager knob at a time: greedy timeout, karma increment, backoff \
                cap",
        in_all: false,
        view: THROUGHPUT_BY_VARIANT,
        run: figures::ablate,
    },
    Experiment {
        name: "churn",
        about: "E14, rolling PUT+DEL of fresh keys; exits 1 if a DEL did not reclaim its \
                cell",
        in_all: false,
        view: View::Flat,
        run: churn::churn,
    },
];

/// The threads × manager tables of the paper's figures.
const THROUGHPUT_BY_THREADS: View = View::Pivot {
    group: &["structure", "mix"],
    row: "threads",
    col: "manager",
    value: "throughput",
};

/// The ablation labels its variants in `manager`: one line each.
const THROUGHPUT_BY_VARIANT: View = View::Pivot {
    group: &["structure", "mix"],
    row: "manager",
    col: "threads",
    value: "throughput",
};

/// A `--sweep` name and the axes it stands for.
type Sweep = (&'static str, fn() -> SweepConfig);

static SWEEPS: [Sweep; 4] = [
    ("paper", SweepConfig::paper_defaults),
    ("quick", SweepConfig::quick),
    ("smoke", SweepConfig::smoke),
    ("machine", SweepConfig::machine),
];

fn usage() -> String {
    let sweeps: Vec<&str> = SWEEPS.iter().map(|(name, _)| *name).collect();
    let mut text = format!(
        "usage: figures [EXPERIMENT...] [--sweep {}] [--json]\n\n",
        sweeps.join("|")
    );
    text.push_str(
        "  --sweep  size of every axis: paper by default, smoke takes seconds, machine sizes\n\
         \x20          the thread axis to this host\n\
         \x20 --json   one envelope per experiment {schema_version, experiment, sweep, commit,\n\
         \x20          nproc, toolchain, rows} with flat rows, instead of tables\n\n\
         experiments (`all`, or no name, runs the ones marked *):\n",
    );
    for e in &EXPERIMENTS {
        let mark = if e.in_all { '*' } else { ' ' };
        text.push_str(&format!("  {mark} {:<15} {}\n", e.name, e.about));
    }
    text
}

/// What the command line asked for, or why it is refused.
struct Plan {
    experiments: Vec<&'static Experiment>,
    ctx: Ctx,
    json: bool,
}

fn parse(args: &[String]) -> Result<Plan, String> {
    let mut names: Vec<&str> = Vec::new();
    let mut sweep = &SWEEPS[0];
    let mut json = false;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--sweep" => {
                let mode = args.next().ok_or("--sweep needs a mode")?;
                sweep = SWEEPS
                    .iter()
                    .find(|(name, _)| *name == mode.as_str())
                    .ok_or(format!("unknown sweep '{mode}'"))?;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            name => names.push(name),
        }
    }
    if names.is_empty() {
        names.push("all");
    }
    let mut experiments = Vec::new();
    for name in names {
        let before = experiments.len();
        experiments.extend(
            EXPERIMENTS
                .iter()
                .filter(|e| e.name == name || (name == "all" && e.in_all)),
        );
        if experiments.len() == before {
            return Err(format!("unknown experiment '{name}'"));
        }
    }
    Ok(Plan {
        experiments,
        ctx: Ctx {
            sweep: sweep.0,
            cfg: sweep.1(),
        },
        json,
    })
}

/// Every byte of standard output goes through here; a reader that went away
/// (`figures chain --json | head`) is a clean stop, not a panic.
fn emit(text: &str) {
    if let Err(err) = writeln!(std::io::stdout().lock(), "{text}") {
        let closed = err.kind() == std::io::ErrorKind::BrokenPipe;
        if !closed {
            eprintln!("cannot write to standard output: {err}");
        }
        std::process::exit(if closed { 0 } else { 1 });
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|arg| arg == "--help" || arg == "-h") {
        emit(&usage());
        return ExitCode::SUCCESS;
    }
    let plan = match parse(&args) {
        Ok(plan) => plan,
        Err(why) => {
            eprintln!("{why}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    for experiment in plan.experiments {
        let outcome = (experiment.run)(&plan.ctx);
        if plan.json {
            let doc = envelope(experiment.name, plan.ctx.sweep, outcome.rows);
            emit(&serde_json::to_string_pretty(&doc).expect("rows serialize to JSON"));
        } else {
            let table = render(&experiment.view, &outcome.rows);
            let title = format!("# {} — {}", experiment.name, experiment.about);
            emit(&format!("{title}\n{}\n", table.trim_end()));
        }
        for violation in &outcome.violations {
            eprintln!("{}: {violation}", experiment.name);
        }
        failed |= !outcome.violations.is_empty();
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
