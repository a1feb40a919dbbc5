//! What every experiment shares: the [`Experiment`] table row, the [`Ctx`]
//! it runs under, the one `--json` [`envelope`] around the flat JSON rows it
//! returns, and the one text renderer ([`render`]) with its two [`View`]s.

use std::process::Command;

use serde_json::{json, Value};

use crate::workload::SweepConfig;

/// What an experiment is run with: the sweep the command line chose, under
/// its name.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// `"paper"`, `"quick"`, `"smoke"` or `"machine"`.
    pub sweep: &'static str,
    /// The thread × manager × mix axes of that sweep.
    pub cfg: SweepConfig,
}

impl Ctx {
    /// Whether the sweep is one of the two short ones (`quick`, `smoke`).
    #[must_use]
    pub fn short(&self) -> bool {
        matches!(self.sweep, "quick" | "smoke")
    }
}

/// How [`render`] lays an experiment's rows out as text.
#[derive(Debug, Clone, Copy)]
pub enum View {
    /// One line per row; columns are the first row's keys, in order.
    Flat,
    /// One block per distinct `group` tuple, one line per `row` value, one
    /// column per `col` value, cells holding `value` — the threads × manager
    /// tables of the paper's figures.
    Pivot {
        /// Keys whose values name a block.
        group: &'static [&'static str],
        /// Key down the side.
        row: &'static str,
        /// Key across the top.
        col: &'static str,
        /// Key in the cells.
        value: &'static str,
    },
}

/// One row of the `figures` table.
pub struct Experiment {
    /// Subcommand name.
    pub name: &'static str,
    /// One line for the usage text and the table title.
    pub about: &'static str,
    /// Whether `all` (and no name at all) runs it.
    pub in_all: bool,
    /// Text layout of its rows.
    pub view: View,
    /// Runs it: one flat JSON object per measured cell, keys in
    /// declaration order.
    pub run: fn(&Ctx) -> Vec<Value>,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |text| text.trim().to_string())
}

/// The one `--json` document: where the rows were measured, then the rows.
/// Field names follow `bench/src/report.rs::result_json`.
#[must_use]
pub fn envelope(experiment: &str, sweep: &str, rows: Vec<Value>) -> Value {
    json!({
        "schema_version": 1u64,
        "experiment": experiment,
        "sweep": sweep,
        "commit": command_line("git", &["rev-parse", "--short", "HEAD"]),
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "toolchain": command_line("rustc", &["--version"]),
        "rows": rows,
    })
}

/// A cell as text. Anything that is not a scalar — a missing key, `null`
/// (which is also how a non-finite float serializes) — prints as `NaN`.
fn cell(value: Option<&Value>) -> String {
    match value {
        Some(Value::String(s)) => s.clone(),
        Some(Value::Bool(b)) => b.to_string(),
        Some(Value::UInt(n)) => n.to_string(),
        Some(Value::Int(n)) => n.to_string(),
        Some(Value::Float(f)) if f.abs() >= 100.0 => format!("{f:.0}"),
        Some(Value::Float(f)) => format!("{f:.2}"),
        _ => "NaN".to_string(),
    }
}

/// Right-aligns `lines` (the first is the header) into columns.
fn table(lines: &[Vec<String>]) -> String {
    let columns = lines.iter().map(Vec::len).max().unwrap_or(0);
    let widths: Vec<usize> = (0..columns)
        .map(|c| {
            lines
                .iter()
                .filter_map(|l| l.get(c))
                .map(String::len)
                .max()
                .unwrap_or(0)
        })
        .collect();
    let mut out = String::new();
    for line in lines {
        let cells: Vec<String> = line
            .iter()
            .zip(&widths)
            .map(|(text, width)| format!("{text:>width$}"))
            .collect();
        out.push_str(cells.join("  ").trim_end());
        out.push('\n');
    }
    out
}

/// The distinct values of `f` over `rows`, in first-appearance order.
fn distinct<T: PartialEq>(rows: &[&Value], f: impl Fn(&Value) -> T) -> Vec<T> {
    let mut seen = Vec::new();
    for row in rows {
        let key = f(row);
        if !seen.contains(&key) {
            seen.push(key);
        }
    }
    seen
}

/// Renders `rows` as text under `view`; no rows render nothing.
#[must_use]
pub fn render(view: &View, rows: &[Value]) -> String {
    let all: Vec<&Value> = rows.iter().collect();
    let Some(Value::Object(first)) = rows.first() else {
        return String::new();
    };
    match *view {
        View::Flat => {
            let keys: Vec<&String> = first.iter().map(|(key, _)| key).collect();
            let mut lines = vec![keys.iter().map(|key| key.to_string()).collect()];
            for row in rows {
                lines.push(keys.iter().map(|key| cell(row.get(key))).collect());
            }
            table(&lines)
        }
        View::Pivot {
            group,
            row,
            col,
            value,
        } => {
            let group_of = |r: &Value| group.iter().map(|key| cell(r.get(key))).collect::<Vec<_>>();
            let mut out = String::new();
            for block in distinct(&all, group_of) {
                let members: Vec<&Value> = all
                    .iter()
                    .copied()
                    .filter(|r| group_of(r) == block)
                    .collect();
                let cols = distinct(&members, |r| cell(r.get(col)));
                let mut header = vec![row.to_string()];
                header.extend(cols.iter().cloned());
                let mut lines = vec![header];
                for side in distinct(&members, |r| cell(r.get(row))) {
                    let mut line = vec![side.clone()];
                    for top in &cols {
                        let hit = members
                            .iter()
                            .find(|r| cell(r.get(row)) == side && cell(r.get(col)) == *top);
                        line.push(cell(hit.and_then(|r| r.get(value))));
                    }
                    lines.push(line);
                }
                out.push_str(&format!("## {} ({value})\n", block.join(" / ")));
                out.push_str(&table(&lines));
                out.push('\n');
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BY_THREADS: View = View::Pivot {
        group: &["structure", "mix"],
        row: "threads",
        col: "manager",
        value: "throughput",
    };

    fn row(structure: &str, manager: &str, threads: u64, throughput: f64) -> Value {
        Value::Object(vec![
            ("manager".to_string(), Value::String(manager.to_string())),
            (
                "structure".to_string(),
                Value::String(structure.to_string()),
            ),
            ("mix".to_string(), Value::String("update-only".to_string())),
            ("threads".to_string(), Value::UInt(threads)),
            ("throughput".to_string(), Value::Float(throughput)),
        ])
    }

    #[test]
    fn a_pivot_groups_blocks_and_prints_nan_for_a_missing_cell() {
        let rows = vec![
            row("list", "greedy", 1, 1000.0),
            row("list", "karma", 1, 900.0),
            row("list", "greedy", 2, 1500.0),
            // no list/karma/2 cell
            row("rbtree", "greedy", 1, 4000.0),
        ];
        let text = render(&BY_THREADS, &rows);
        assert_eq!(text.matches("## ").count(), 2, "{text}");
        assert!(
            text.contains("## list / update-only (throughput)"),
            "{text}"
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[1].split_whitespace().collect::<Vec<_>>(),
            ["threads", "greedy", "karma"]
        );
        assert_eq!(
            lines[2].split_whitespace().collect::<Vec<_>>(),
            ["1", "1000", "900"]
        );
        assert_eq!(
            lines[3].split_whitespace().collect::<Vec<_>>(),
            ["2", "1500", "NaN"]
        );
        assert!(text.contains("4000"), "{text}");
    }

    #[test]
    fn a_flat_table_keeps_declaration_order_and_formats_scalars() {
        let sample = |zeta: &str, alpha: u64| {
            json!({
                "zeta": zeta,
                "alpha": alpha,
                "ratio": 1.5,
                "unfinished": f64::INFINITY,
                "held": true,
            })
        };
        let text = render(&View::Flat, &[sample("a", 7), sample("b", 12_345)]);
        let lines: Vec<Vec<&str>> = text
            .lines()
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(lines[0], ["zeta", "alpha", "ratio", "unfinished", "held"]);
        assert_eq!(lines[1], ["a", "7", "1.50", "NaN", "true"]);
        assert_eq!(lines[2], ["b", "12345", "1.50", "NaN", "true"]);
        // Columns line up: every line is as wide as the widest cell demands.
        assert!(
            text.lines()
                .all(|l| l.len() == text.lines().next().unwrap().len()),
            "{text}"
        );
    }

    #[test]
    fn no_rows_render_nothing_under_either_view() {
        assert_eq!(render(&View::Flat, &[]), "");
        assert_eq!(render(&BY_THREADS, &[]), "");
    }
}
