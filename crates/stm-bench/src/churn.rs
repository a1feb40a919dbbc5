//! E14 — keyspace churn and commit-time cell GC.
//!
//! The workload that used to leak: every thread PUTs a stream of **fresh**
//! keys and DELs them a fixed window later, so the set of live keys stays
//! small and constant while the set of keys *ever touched* grows without
//! bound. Before commit-time reclamation, each of those keys left a live
//! value cell in the store's overflow tables forever; now a committed DEL
//! unlinks its cell (the cell's `Arc` frees it), and the linked footprint
//! must stay bounded by the live window.
//!
//! Each run reports the two sides of the trade:
//!
//! - **Boundedness** — the peak count of cells still *linked* in the store
//!   (`allocated − released`, sampled while the churn runs) against the
//!   hard bound `threads × (window + 4)` (the live window plus a few
//!   in-flight cells per thread), and the exact identity
//!   `allocated − released = live cells = live keys` at the end. Both
//!   counters are monotone and bumped one cell at a time (allocation read
//!   first), so concurrent progress between the reads can only
//!   *under*-estimate the linked count — a real leak still blows past the
//!   bound, but sampling races never fail a healthy run. The
//!   [`ChurnRow::bounded`] flag is the CI gate: the `figures` binary exits
//!   non-zero when it is false.
//! - **Commit-path cost** — mean wall-clock latency of the PUT and DEL
//!   transactions separately. A DEL carries the GC work (tombstone write,
//!   deferred unlink), so `del_ns − put_ns` approximates what reclamation
//!   costs per freed key.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use serde_json::{json, Value};
use stm_cm::ManagerKind;
use stm_core::Stm;
use stm_kv::KvStore;

use crate::report::{Ctx, Outcome};

/// E14: rolling PUT+DEL over fresh keys under two (short sweeps) or four
/// managers; fails when a committed DEL did not reclaim its cell.
pub fn churn(ctx: &Ctx) -> Outcome {
    let cfg = ctx.size(
        ChurnConfig::smoke(),
        ChurnConfig::quick(),
        ChurnConfig::default(),
    );
    let managers: &[ManagerKind] = if ctx.short() {
        &[ManagerKind::Greedy, ManagerKind::Karma]
    } else {
        &[
            ManagerKind::Greedy,
            ManagerKind::Karma,
            ManagerKind::Timestamp,
            ManagerKind::Polka,
        ]
    };
    let rows: Vec<_> = managers
        .iter()
        .map(|manager| churn_experiment(*manager, &cfg))
        .collect();
    Outcome::new(rows.iter().map(ChurnRow::to_json).collect(), gate(&rows))
}

/// One violation per row whose [`ChurnRow::bounded`] verdict is `false`.
#[must_use]
pub fn gate(rows: &[ChurnRow]) -> Vec<String> {
    rows.iter()
        .filter(|row| !row.bounded)
        .map(|bad| {
            format!(
                "churn bound violated under {}: peak {} linked cells exceeds the bound {} \
                 for {} live keys (allocated {}, freed {}, live {})",
                bad.manager,
                bad.linked_peak,
                bad.linked_bound,
                bad.live_keys,
                bad.cells_allocated,
                bad.cells_freed,
                bad.cells_live
            )
        })
        .collect()
}

/// Parameters of one churn run.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Churning threads, each with a private fresh-key stream.
    pub threads: usize,
    /// Fresh keys each thread creates (the thread performs this many PUTs
    /// and, trailing `window` behind, almost as many DELs).
    pub ops_per_thread: u64,
    /// Distance between a key's PUT and its DEL: the per-thread live set.
    pub window: i64,
    /// Sample the linked-cell count every this many PUTs.
    pub sample_every: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            threads: 4,
            ops_per_thread: 125_000,
            window: 64,
            sample_every: 512,
        }
    }
}

impl ChurnConfig {
    /// The seconds-long CI smoke size.
    #[must_use]
    pub fn smoke() -> Self {
        ChurnConfig {
            threads: 2,
            ops_per_thread: 5_000,
            window: 32,
            sample_every: 128,
        }
    }

    /// The sub-minute quick size.
    #[must_use]
    pub fn quick() -> Self {
        ChurnConfig {
            threads: 4,
            ops_per_thread: 20_000,
            window: 64,
            sample_every: 256,
        }
    }
}

/// One churn measurement cell.
#[derive(Debug, Clone)]
pub struct ChurnRow {
    /// Contention manager label.
    pub manager: String,
    /// Churning threads.
    pub threads: usize,
    /// Total committed operations (PUTs + DELs) across threads.
    pub ops: u64,
    /// Per-thread PUT→DEL distance.
    pub window: i64,
    /// Wall-clock of the churn phase, milliseconds.
    pub elapsed_ms: f64,
    /// Committed operations per second.
    pub throughput: f64,
    /// Mean PUT transaction latency, nanoseconds.
    pub put_ns: f64,
    /// Mean DEL transaction latency, nanoseconds — carries the GC work, so
    /// `del_ns - put_ns` approximates the reclamation cost per freed key.
    pub del_ns: f64,
    /// Value cells ever materialised (monotone).
    pub cells_allocated: u64,
    /// Cells a committed DEL unlinked ([`KvStore::cells_released`]).
    pub cells_freed: u64,
    /// Peak *linked* cells (`allocated − released`) observed at any sample;
    /// the counters are read in an order that can only under-estimate, so
    /// this never overshoots from sampling races.
    pub linked_peak: u64,
    /// The bound [`linked_peak`](Self::linked_peak) is held to:
    /// `threads × (window + 4)` — the live window plus a few in-flight
    /// cells per thread.
    pub linked_bound: u64,
    /// Keys still present at the end (= `threads × window`).
    pub live_keys: u64,
    /// Cells still linked in the store at quiescence.
    pub cells_live: u64,
    /// The pass/fail verdict: peak under the bound **and** the books
    /// balance exactly (`allocated − freed = live cells = live keys`). The
    /// CI churn smoke fails the build on `false`.
    pub bounded: bool,
}

impl ChurnRow {
    /// The row as a flat JSON object, keys in declaration order.
    #[must_use]
    pub(crate) fn to_json(&self) -> Value {
        json!({
            "manager": self.manager.as_str(),
            "threads": self.threads,
            "ops": self.ops,
            "window": self.window,
            "elapsed_ms": self.elapsed_ms,
            "throughput": self.throughput,
            "put_ns": self.put_ns,
            "del_ns": self.del_ns,
            "cells_allocated": self.cells_allocated,
            "cells_freed": self.cells_freed,
            "linked_peak": self.linked_peak,
            "linked_bound": self.linked_bound,
            "live_keys": self.live_keys,
            "cells_live": self.cells_live,
            "bounded": self.bounded,
        })
    }
}

/// Runs the rolling PUT+DEL churn under `kind` and measures boundedness and
/// commit-path cost.
///
/// # Panics
///
/// Panics when `cfg.threads == 0`, `cfg.ops_per_thread <= cfg.window`, or a
/// churn transaction fails (the workload never aborts by construction).
#[must_use]
pub fn churn_experiment(kind: ManagerKind, cfg: &ChurnConfig) -> ChurnRow {
    assert!(cfg.threads > 0, "need at least one thread");
    assert!(
        cfg.ops_per_thread > cfg.window.unsigned_abs(),
        "each thread must outlive its window"
    );
    let stm = Arc::new(Stm::builder().manager(kind.factory()).build());
    // No pre-allocated range: every key is a reclaimable overflow cell, so
    // the GC is on the hook for the whole keyspace.
    let store = Arc::new(KvStore::new(8));
    let linked_peak = AtomicU64::new(0);
    let put_ns_total = AtomicU64::new(0);
    let del_ns_total = AtomicU64::new(0);
    let dels_total = AtomicU64::new(0);

    let started = Instant::now();
    thread::scope(|scope| {
        for t in 0..cfg.threads {
            let stm = Arc::clone(&stm);
            let store = Arc::clone(&store);
            let linked_peak = &linked_peak;
            let put_ns_total = &put_ns_total;
            let del_ns_total = &del_ns_total;
            let dels_total = &dels_total;
            scope.spawn(move || {
                let mut ctx = stm.thread();
                let base = 1 + (t as i64) * (i64::MAX / cfg.threads as i64);
                let mut put_ns = 0u64;
                let mut del_ns = 0u64;
                let mut dels = 0u64;
                for i in 0..cfg.ops_per_thread as i64 {
                    let begin = Instant::now();
                    ctx.atomically(|tx| store.put(tx, base + i, i)).unwrap();
                    put_ns += begin.elapsed().as_nanos() as u64;
                    if i >= cfg.window {
                        let begin = Instant::now();
                        ctx.atomically(|tx| store.del(tx, base + i - cfg.window))
                            .unwrap();
                        del_ns += begin.elapsed().as_nanos() as u64;
                        dels += 1;
                    }
                    if (i as u64).is_multiple_of(cfg.sample_every) {
                        // Allocation before released: both counters are
                        // monotone and bumped one cell at a time, so the
                        // difference can only *under*-estimate the linked
                        // count — no sampling race ever fails a healthy run.
                        let allocated = store.cells_allocated();
                        let linked = allocated.saturating_sub(store.cells_released());
                        linked_peak.fetch_max(linked as u64, Ordering::Relaxed);
                    }
                }
                put_ns_total.fetch_add(put_ns, Ordering::Relaxed);
                del_ns_total.fetch_add(del_ns, Ordering::Relaxed);
                dels_total.fetch_add(dels, Ordering::Relaxed);
            });
        }
    });
    let elapsed = started.elapsed();

    let puts = cfg.threads as u64 * cfg.ops_per_thread;
    let dels = dels_total.load(Ordering::Relaxed);
    let ops = puts + dels;
    let live_keys = cfg.threads as u64 * cfg.window.unsigned_abs();
    let cells_allocated = store.cells_allocated() as u64;
    let cells_freed = store.cells_released() as u64;
    let cells_live = store.cells_live() as u64;
    let linked = linked_peak.load(Ordering::Relaxed);
    // Each thread holds at most `window` live keys, plus the key it is
    // creating and a couple of commit/unlink in-flight transients.
    let linked_bound = cfg.threads as u64 * (cfg.window.unsigned_abs() + 4);
    let bounded = linked <= linked_bound
        && cells_allocated - cells_freed == cells_live
        && cells_live == live_keys;

    ChurnRow {
        manager: kind.name().to_string(),
        threads: cfg.threads,
        ops,
        window: cfg.window,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        throughput: ops as f64 / elapsed.as_secs_f64().max(1e-9),
        put_ns: put_ns_total.load(Ordering::Relaxed) as f64 / puts.max(1) as f64,
        del_ns: del_ns_total.load(Ordering::Relaxed) as f64 / dels.max(1) as f64,
        cells_allocated,
        cells_freed,
        linked_peak: linked,
        linked_bound,
        live_keys,
        cells_live,
        bounded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_churn_is_bounded_and_balances_the_books() {
        let cfg = ChurnConfig {
            threads: 2,
            ops_per_thread: 400,
            window: 16,
            sample_every: 64,
        };
        let row = churn_experiment(ManagerKind::Greedy, &cfg);
        assert!(row.bounded, "{row:?}");
        assert_eq!(row.live_keys, 32, "{row:?}");
        assert_eq!(row.cells_allocated, 800, "one cell per fresh key: {row:?}");
        assert_eq!(row.cells_freed, 800 - 32, "{row:?}");
        assert!(row.ops >= 800, "{row:?}");
    }

    #[test]
    fn the_gate_names_every_unbounded_row_and_only_those() {
        let row = churn_experiment(
            ManagerKind::Karma,
            &ChurnConfig {
                threads: 1,
                ops_per_thread: 100,
                window: 8,
                sample_every: 32,
            },
        );
        assert!(gate(std::slice::from_ref(&row)).is_empty(), "{row:?}");
        let leaked = ChurnRow {
            bounded: false,
            linked_peak: 99,
            ..row.clone()
        };
        let violations = gate(&[row, leaked]);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("karma") && violations[0].contains("99"),
            "{violations:?}"
        );
    }
}
