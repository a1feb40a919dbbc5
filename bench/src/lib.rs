//! The repo benchmark (ISSUE 11): four workloads, end-to-end metrics from
//! timed runs, per-layer metrics and spans from traced runs. `bench/README.md`
//! has the metric catalogue and how the layers map onto the end-to-end
//! figures; `bench/run.sh` is the one command.

pub mod gen;
pub mod inproc;
pub mod layers;
pub mod report;
pub mod run;
pub mod scrape;
pub mod stats;
pub mod suite;
pub mod sys;
pub mod trace;
pub mod wire;
