//! Runs the paper's benchmark workload (256-key integer set, 100% updates)
//! on one data structure and prints a throughput comparison of every
//! contention manager in the registry — a miniature, single-machine version
//! of Figures 1–4.
//!
//! ```sh
//! cargo run --release --example manager_showdown
//! cargo run --release --example manager_showdown -- skiplist 8
//! ```
//!
//! Arguments: structure (`list`, `skiplist`, `rbtree`, `forest`) and thread
//! count (default: `list 4`).

use greedy_stm::cm::ManagerKind;
use std::time::Duration;
use stm_bench::{run_workload, StructureKind, WorkloadConfig};

fn main() {
    let structure_arg = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "list".to_string());
    let threads: usize = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);
    let structure = match structure_arg.as_str() {
        "list" => StructureKind::List,
        "skiplist" => StructureKind::SkipList,
        "rbtree" => StructureKind::RbTree,
        "forest" | "rbforest" => StructureKind::paper_forest(),
        other => {
            eprintln!("unknown structure '{other}', using list");
            StructureKind::List
        }
    };
    let cfg = WorkloadConfig {
        threads,
        key_range: 256,
        duration: Duration::from_millis(400),
        local_work: 0,
        seed: 0x5140,
        ..WorkloadConfig::default()
    };
    println!(
        "structure = {}, threads = {}, keys = {}, duration = {:?}, 100% updates\n",
        structure.name(),
        cfg.threads,
        cfg.key_range,
        cfg.duration
    );
    println!(
        "{:>16} {:>14} {:>12} {:>12}",
        "manager", "commits/sec", "commits", "abort-ratio"
    );
    let mut results: Vec<_> = ManagerKind::ALL
        .iter()
        .map(|kind| run_workload(*kind, &structure, &cfg))
        .collect();
    results.sort_by(|a, b| b.throughput.partial_cmp(&a.throughput).unwrap());
    for r in &results {
        println!(
            "{:>16} {:>14.0} {:>12} {:>11.1}%",
            r.manager,
            r.throughput,
            r.commits,
            r.abort_ratio * 100.0
        );
    }
    println!("\nfastest manager on this workload: {}", results[0].manager);
}
