//! The `figures` command line, driven as CI drives it: a name or a flag it
//! does not know is refused before anything runs (exit 2), a run exits 0,
//! and `--json` is one envelope of flat rows.

use std::process::{Command, Output, Stdio};

use serde_json::Value;

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("the figures binary runs")
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("figures prints UTF-8")
}

/// The `(in_all, name)` of every row of the table `--help` prints.
fn table() -> Vec<(bool, String)> {
    let out = figures(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    text(&out.stdout)
        .lines()
        .skip_while(|line| !line.starts_with("experiments"))
        .skip(1)
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            match words.next()? {
                "*" => Some((true, words.next()?.to_string())),
                name => Some((false, name.to_string())),
            }
        })
        .collect()
}

/// The envelopes in `stdout`: pretty printing puts each document's closing
/// brace alone in column 0.
fn envelopes(stdout: &str) -> Vec<Value> {
    stdout
        .split_inclusive("\n}\n")
        .filter(|doc| !doc.trim().is_empty())
        .map(|doc| serde_json::from_str(doc).unwrap_or_else(|e| panic!("{e}: {doc}")))
        .collect()
}

fn assert_is_an_envelope_of_flat_rows(doc: &Value, experiment: &str, sweep: &str) {
    assert_eq!(doc.get("schema_version").and_then(Value::as_u64), Some(1));
    assert_eq!(
        doc.get("experiment").and_then(Value::as_str),
        Some(experiment)
    );
    assert_eq!(doc.get("sweep").and_then(Value::as_str), Some(sweep));
    assert!(doc.get("nproc").and_then(Value::as_u64).unwrap() >= 1);
    for key in ["commit", "toolchain"] {
        assert!(
            !doc.get(key).and_then(Value::as_str).unwrap().is_empty(),
            "{key}"
        );
    }
    let rows = doc.get("rows").and_then(Value::as_array).unwrap();
    assert!(!rows.is_empty(), "{experiment}: no rows");
    for row in rows {
        let Value::Object(entries) = row else {
            panic!("row is not an object: {row:?}")
        };
        for (key, value) in entries {
            assert!(
                !matches!(value, Value::Object(_) | Value::Array(_)),
                "{experiment}: `{key}` is nested in {row:?}"
            );
        }
    }
}

#[test]
fn an_unknown_name_or_flag_is_refused_before_anything_runs() {
    for args in [
        &["nosuch"][..],
        &["chain", "--bogus"],
        &["chain", "nosuch"],
        &["overload"],
    ] {
        let out = figures(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} ran something: {}",
            text(&out.stdout)
        );
        let stderr = text(&out.stderr);
        assert!(stderr.contains("unknown"), "{args:?}: {stderr}");
        // The refusal shows what would have been accepted.
        assert!(
            stderr.contains("starvation") && stderr.contains("--sweep"),
            "{stderr}"
        );
    }
    let out = figures(&["chain", "--sweep", "tiny"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[test]
fn json_is_one_envelope_of_flat_rows() {
    let out = figures(&["chain", "--sweep", "smoke", "--json"]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    let docs = envelopes(text(&out.stdout));
    assert_eq!(docs.len(), 1);
    assert_is_an_envelope_of_flat_rows(&docs[0], "chain", "smoke");
    let first = &docs[0].get("rows").and_then(Value::as_array).unwrap()[0];
    assert_eq!(first.get("manager").and_then(Value::as_str), Some("greedy"));
    // Without --json the same rows are a table whose columns are their keys.
    let out = figures(&["chain", "--sweep", "smoke"]);
    let header = text(&out.stdout).lines().nth(1).unwrap().to_string();
    let Value::Object(entries) = first else {
        unreachable!()
    };
    let keys: Vec<&str> = entries.iter().map(|(key, _)| key.as_str()).collect();
    assert_eq!(header.split_whitespace().collect::<Vec<_>>(), keys);
}

#[test]
fn names_are_unique_and_all_is_exactly_the_marked_rows() {
    let table = table();
    assert_eq!(table.len(), 9, "{table:?}");
    let mut names: Vec<&str> = table.iter().map(|(_, name)| name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        table.len(),
        "duplicate experiment name in {table:?}"
    );
    // No name at all means `all`.
    let out = figures(&["--sweep", "smoke", "--json"]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    let docs = envelopes(text(&out.stdout));
    let ran: Vec<&str> = docs
        .iter()
        .map(|doc| doc.get("experiment").and_then(Value::as_str).unwrap())
        .collect();
    let marked: Vec<&str> = table
        .iter()
        .filter(|(in_all, _)| *in_all)
        .map(|(_, name)| name.as_str())
        .collect();
    assert_eq!(ran, marked);
    for (doc, name) in docs.iter().zip(&marked) {
        assert_is_an_envelope_of_flat_rows(doc, name, "smoke");
    }
}

#[test]
fn a_reader_that_goes_away_is_a_clean_stop() {
    // `figures chain --json | head -0`: the pipe is closed before a byte is
    // written.
    let mut child = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["chain", "--sweep", "smoke", "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the figures binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert!(out.stderr.is_empty(), "{}", text(&out.stderr));
}
