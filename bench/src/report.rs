//! Metric catalogue, the per-run report and the result envelope.
//!
//! One run prints one line of JSON for the driver (`correct`, `attempted`,
//! `failed`, `metrics`) and writes everything it measured to
//! `bench/out/run_<workload>_t<trace>.json`; the suite gathers those files
//! into `bench/out/result.json` under one envelope.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::Value;

/// End-to-end metrics every workload reports, as listed in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("goodput_rps", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// End-to-end metrics `BENCHMARK.json` cannot hold with a bound, so it lists
/// them beside the per-layer metrics (the suite still prints them with the
/// end-to-end ones): on this host `p50_us` drifts by 45% within the hour and
/// `p99_us` repeats no better than within a factor of two, `fail_frac` is 0
/// on a healthy run, and the last two exist on one workload only.
pub const END_TO_END_EXTRA: [(&str, &str); 5] = [
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("fail_frac", "ratio"),
    ("recovery_krec_per_s", "krec/s"),
    ("wal_amp", "ratio"),
];

/// Per-layer metrics, `<module>.<metric>`; 0 where a workload bypasses the
/// layer. `bench/README.md` says which end-to-end metric each should move.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("gen_lag_p99_us", "us"),
    ("client.encode_ns_p50", "ns"),
    ("client.decode_ns_p50", "ns"),
    ("proto.decode_ns_p50", "ns"),
    ("proto.render_ns_p50", "ns"),
    ("proto.reply_bytes_per_op", "B"),
    ("proto.render_ns_per_kb", "ns/KiB"),
    ("server.rtt_p50_us", "us"),
    ("server.residual_us", "us"),
    ("server.pipeline_gain", "ratio"),
    ("server.op_latency_p50_us", "us"),
    ("server.requests", "count"),
    ("server.errors", "count"),
    ("server.partial_writes", "count"),
    ("server.conns_accepted", "count"),
    ("store.get_ns_p50", "ns"),
    ("store.put_ns_p50", "ns"),
    ("store.put_new_ns_p50", "ns"),
    ("store.del_ns_p50", "ns"),
    ("store.range_ns_per_key", "ns"),
    ("store.cells_allocated", "count"),
    ("store.cells_freed", "count"),
    ("store.cells_limbo_peak", "count"),
    ("stm_structures.index_insert_ns_p50", "ns"),
    ("stm_structures.index_remove_ns_p50", "ns"),
    ("stm_structures.index_range_ns_per_key", "ns"),
    ("stm_core.txn_ns_p50", "ns"),
    ("stm_core.attempts_per_commit", "ratio"),
    ("stm_core.txn_max_us", "us"),
    ("stm_core.validation_failures", "count"),
    ("stm_core.aborts.killed_by_enemy", "count"),
    ("stm_core.aborts.manager_self_abort", "count"),
    ("stm_core.aborts.validation_failed", "count"),
    ("stm_core.aborts.commit_failed", "count"),
    ("stm_core.aborts.explicit", "count"),
    ("stm_cm.decisions.wait", "count"),
    ("stm_cm.decisions.abort_other", "count"),
    ("stm_cm.decisions.abort_self", "count"),
    ("stm_cm.useful_ratio", "ratio"),
    ("stm_cm.goodput_rps.greedy", "1/s"),
    ("stm_cm.goodput_rps.karma", "1/s"),
    ("stm_cm.goodput_rps.polka", "1/s"),
    ("stm_log.encode_ns_p50", "ns"),
    ("stm_log.append_wait_us_p50", "us"),
    ("stm_log.fsync_us_p50", "us"),
    ("stm_log.batch_records_mean", "count"),
    ("stm_log.ring_occupancy_p99", "count"),
    ("stm_log.fsyncs", "count"),
    ("stm_log.records", "count"),
    ("stm_log.bytes", "B"),
    ("stm_log.recover_s", "s"),
    ("stm_log.snapshot_write_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.requests", "count"),
];

fn metric_entry(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".to_string(), Value::Float(value)),
        ("unit".to_string(), Value::String(unit.to_string())),
    ])
}

/// Version of the `result.json` / `run_*.json` layout.
pub const SCHEMA_VERSION: u64 = 1;

/// Everything one run (one workload, traced or not) measured.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    pub workload: String,
    pub trace: bool,
    pub seed: u64,
    pub seconds: f64,
    /// Outputs matched the models (and, durable, survived the restart).
    pub correct: bool,
    /// The open-loop generator kept up (its median lateness is at most a
    /// quarter of `p50_us`); a late generator inflates sojourn times, so
    /// the suite refuses such a run.
    pub generator_on_time: bool,
    pub attempted: u64,
    pub failed: u64,
    /// name → (value, unit)
    pub metrics: BTreeMap<String, (f64, String)>,
    /// Sample counts, the open rate used, and other facts beside the metrics.
    pub notes: BTreeMap<String, f64>,
    pub errors: Vec<String>,
}

impl RunReport {
    pub fn new(workload: &str, trace: bool, seed: u64, seconds: f64) -> RunReport {
        RunReport {
            workload: workload.to_string(),
            trace,
            seed,
            seconds,
            correct: true,
            generator_on_time: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            notes: BTreeMap::new(),
            errors: Vec::new(),
        }
    }

    /// Sets a catalogued metric; its unit comes from the catalogue.
    pub fn set(&mut self, name: &str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(&END_TO_END_EXTRA)
            .chain(&PER_LAYER)
            .find(|(known, _)| *known == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not in the catalogue"))
            .1;
        self.metrics
            .insert(name.to_string(), (value, unit.to_string()));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |(value, _)| *value)
    }

    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.insert(name.to_string(), value);
    }

    pub fn fail(&mut self, message: impl Into<String>) {
        self.correct = false;
        self.errors.push(message.into());
    }

    /// The names the driver expects from this run, in catalogue order:
    /// the end-to-end list untraced, the per-layer list traced.
    pub fn contract_names(trace: bool) -> Vec<(&'static str, &'static str)> {
        if trace {
            END_TO_END_EXTRA.iter().chain(&PER_LAYER).copied().collect()
        } else {
            END_TO_END.to_vec()
        }
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        let metrics = RunReport::contract_names(self.trace)
            .into_iter()
            .map(|(name, unit)| (name.to_string(), metric_entry(self.get(name), unit)))
            .collect();
        let line = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::UInt(self.attempted.max(1))),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("rendering JSON cannot fail")
    }

    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| (name.clone(), metric_entry(*value, unit)))
            .collect();
        let notes = self
            .notes
            .iter()
            .map(|(name, value)| (name.clone(), Value::Float(*value)))
            .collect();
        let errors = self.errors.iter().cloned().map(Value::String).collect();
        Value::Object(vec![
            ("workload".to_string(), Value::String(self.workload.clone())),
            ("trace".to_string(), Value::Bool(self.trace)),
            ("seed".to_string(), Value::UInt(self.seed)),
            ("seconds".to_string(), Value::Float(self.seconds)),
            ("correct".to_string(), Value::Bool(self.correct)),
            (
                "generator_on_time".to_string(),
                Value::Bool(self.generator_on_time),
            ),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
            ("notes".to_string(), Value::Object(notes)),
            ("errors".to_string(), Value::Array(errors)),
        ])
    }

    pub fn from_json(value: &Value) -> Option<RunReport> {
        let object = |key: &str| match value.get(key) {
            Some(Value::Object(entries)) => Some(entries),
            _ => None,
        };
        let metrics = object("metrics")?
            .iter()
            .map(|(name, entry)| {
                let value = entry.get("value")?.as_f64()?;
                let unit = entry.get("unit")?.as_str()?.to_string();
                Some((name.clone(), (value, unit)))
            })
            .collect::<Option<_>>()?;
        let notes = object("notes")?
            .iter()
            .map(|(name, value)| Some((name.clone(), value.as_f64()?)))
            .collect::<Option<_>>()?;
        let errors = value
            .get("errors")?
            .as_array()?
            .iter()
            .map(|e| e.as_str().map(str::to_string))
            .collect::<Option<_>>()?;
        Some(RunReport {
            workload: value.get("workload")?.as_str()?.to_string(),
            trace: value.get("trace")?.as_bool()?,
            seed: value.get("seed")?.as_u64()?,
            seconds: value.get("seconds")?.as_f64()?,
            correct: value.get("correct")?.as_bool()?,
            generator_on_time: value.get("generator_on_time")?.as_bool()?,
            attempted: value.get("attempted")?.as_u64()?,
            failed: value.get("failed")?.as_u64()?,
            metrics,
            notes,
            errors,
        })
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let text =
            serde_json::to_string_pretty(&self.to_json()).expect("rendering JSON cannot fail");
        std::fs::write(path, text + "\n")
    }

    pub fn read(path: &Path) -> Option<RunReport> {
        let text = std::fs::read_to_string(path).ok()?;
        RunReport::from_json(&serde_json::from_str(&text).ok()?)
    }
}

/// Where and how a result was measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    pub commit: String,
    pub nproc: u64,
    pub toolchain: String,
    /// The serve mode the server reports for `ServerConfig::default()`.
    pub serve_mode: String,
    pub fsync: String,
    /// Filesystem type under the WAL directory.
    pub wal_fs: String,
    pub seed: u64,
    pub seconds: f64,
}

/// `result.json`: the envelope and every run of the suite.
pub fn result_json(envelope: &Envelope, runs: &[RunReport]) -> Value {
    Value::Object(vec![
        ("schema_version".to_string(), Value::UInt(SCHEMA_VERSION)),
        ("commit".to_string(), Value::String(envelope.commit.clone())),
        ("nproc".to_string(), Value::UInt(envelope.nproc)),
        (
            "toolchain".to_string(),
            Value::String(envelope.toolchain.clone()),
        ),
        (
            "serve_mode".to_string(),
            Value::String(envelope.serve_mode.clone()),
        ),
        ("fsync".to_string(), Value::String(envelope.fsync.clone())),
        ("wal_fs".to_string(), Value::String(envelope.wal_fs.clone())),
        ("seed".to_string(), Value::UInt(envelope.seed)),
        ("seconds".to_string(), Value::Float(envelope.seconds)),
        (
            "runs".to_string(),
            Value::Array(runs.iter().map(RunReport::to_json).collect()),
        ),
    ])
}

pub fn parse_result_json(value: &Value) -> Option<(Envelope, Vec<RunReport>)> {
    if value.get("schema_version")?.as_u64()? != SCHEMA_VERSION {
        return None;
    }
    let text = |key: &str| Some(value.get(key)?.as_str()?.to_string());
    let envelope = Envelope {
        commit: text("commit")?,
        nproc: value.get("nproc")?.as_u64()?,
        toolchain: text("toolchain")?,
        serve_mode: text("serve_mode")?,
        fsync: text("fsync")?,
        wal_fs: text("wal_fs")?,
        seed: value.get("seed")?.as_u64()?,
        seconds: value.get("seconds")?.as_f64()?,
    };
    let runs = value
        .get("runs")?
        .as_array()?
        .iter()
        .map(RunReport::from_json)
        .collect::<Option<_>>()?;
    Some((envelope, runs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let mut report = RunReport::new("wire_point", false, 42, 20.0);
        report.attempted = 1_000;
        report.set("goodput_rps", 123_456.789);
        report.set("p50_us", 41.25);
        report.set("setup_s", 0.5);
        report.note("open_samples", 99_000.0);
        report.errors.push("a \"quoted\" message".to_string());
        report
    }

    #[test]
    fn result_envelope_round_trips() {
        let envelope = Envelope {
            commit: "727a44a".to_string(),
            nproc: 2,
            toolchain: "rustc 1.95.0".to_string(),
            serve_mode: "threads".to_string(),
            fsync: "every".to_string(),
            wal_fs: "ext4".to_string(),
            seed: 42,
            seconds: 20.0,
        };
        let runs = vec![
            sample_report(),
            RunReport::new("inproc_contended", true, 42, 20.0),
        ];
        let text = serde_json::to_string_pretty(&result_json(&envelope, &runs)).unwrap();
        let parsed = parse_result_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(parsed, (envelope, runs));
    }

    #[test]
    fn contract_line_has_exactly_the_listed_metrics() {
        let line = serde_json::from_str(&sample_report().contract_line()).unwrap();
        let Value::Object(top) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Value::Object(metrics)) = line.get("metrics") else {
            panic!("no metrics")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|(name, _)| name));
        let mut traced = sample_report();
        traced.trace = true;
        let line = serde_json::from_str(&traced.contract_line()).unwrap();
        let Some(Value::Object(metrics)) = line.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(metrics.len(), END_TO_END_EXTRA.len() + PER_LAYER.len());
    }

    /// `BENCHMARK.json` sits outside this package; when it is there, its
    /// metric lists must be the catalogue's, name for name and unit for unit.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let spec = serde_json::from_str(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |names: Vec<(&str, &str)>| -> Vec<(String, String)> {
            names
                .into_iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(
            listed("end_to_end"),
            owned(RunReport::contract_names(false))
        );
        assert_eq!(listed("per_layer"), owned(RunReport::contract_names(true)));
        let workloads: Vec<String> = spec
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::gen::Workload::ALL.map(|w| w.name()));
    }
}
