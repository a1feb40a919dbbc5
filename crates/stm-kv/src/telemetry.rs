//! Server-side telemetry: the request and connection counters, per-op
//! latency histograms, the transaction attempt/latency accounting fed from
//! the [`TxRunReport`] fold point, event-loop instrumentation, and the
//! `SLOWLOG` ring of slowest requests.
//!
//! Every instrument the serving layer owns is registered in this one
//! registry of the vendored lock-free `metrics` crate: recording on the
//! request path is a couple of `fetch_add`s on striped cache-padded cells —
//! never a lock, never an allocation. Its exposition is the first of the
//! four the `METRICS` verb sends back to back; the STM runtime, the store
//! and the WAL each render their own registry after it (see
//! `metrics_payload` in [`crate::server`]). Aborted attempts are counted
//! once, by the runtime (`stm_aborts_total{cause}`), not again here.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use metrics::{Counter, Gauge, Histogram, Registry};
use stm_core::sync::Mutex;
use stm_core::{AbortCause, TxRunReport, ABORT_CAUSES};

/// Operation labels of the per-op latency histograms, in a fixed order so
/// [`op_index`] is a dense lookup. `EXEC` covers a whole `BEGIN`/`EXEC`
/// batch.
pub(crate) const OP_LABELS: [&str; 7] = ["GET", "PUT", "DEL", "ADD", "RANGE", "SUM", "EXEC"];

/// Index of the `EXEC` label in [`OP_LABELS`].
pub(crate) const OP_EXEC: usize = 6;

/// Index into [`OP_LABELS`] for a standalone data request.
pub(crate) fn op_index(request: &crate::proto::Request) -> usize {
    use crate::proto::Request;
    match request {
        Request::Get(..) => 0,
        Request::Put(..) => 1,
        Request::Del(..) => 2,
        Request::Add(..) => 3,
        Request::Range(..) => 4,
        Request::Sum(..) => 5,
        // Non-data requests never reach the instrumented execution paths;
        // attribute any future slip to the batch bucket rather than panic.
        _ => OP_EXEC,
    }
}

/// Microseconds since `start`, saturating (a histogram records `u64`).
pub(crate) fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Every instrument the serving paths record into, plus the slow-request
/// ring. One per server; every shard records into it.
pub(crate) struct Telemetry {
    registry: Registry,
    /// Client connections accepted.
    pub(crate) connections: Arc<Counter>,
    /// Requests executed (single data ops; a batch counts once).
    pub(crate) requests: Arc<Counter>,
    /// `BEGIN`/`EXEC` batches executed.
    pub(crate) batches: Arc<Counter>,
    /// `ERR` replies sent.
    pub(crate) errors: Arc<Counter>,
    /// Connections closed by the event loop's idle-timeout reaper.
    pub(crate) conns_reaped_idle: Arc<Counter>,
    /// Reply flushes that could not complete in one write and had to park
    /// the remainder behind write-readiness.
    pub(crate) partial_writes: Arc<Counter>,
    /// Connections currently being served (registered in an event-loop
    /// shard).
    pub(crate) conns_open: Arc<Gauge>,
    /// End-to-end request latency (execute + render), one series per op.
    op_latency: [Arc<Histogram>; OP_LABELS.len()],
    /// Attempts per `atomically` call (1 = committed first try) — the
    /// per-transaction view of contention, fed from [`TxRunReport`].
    txn_attempts: Arc<Histogram>,
    /// In-transaction latency (inside `atomically_traced`, retries
    /// included) — `op_latency − txn_latency` is serving overhead.
    txn_latency_us: Arc<Histogram>,
    /// How long an event-loop shard slept in `Poller::wait`.
    poll_wait_us: Arc<Histogram>,
    /// Readiness events returned per `Poller::wait` (0 = tick timeout).
    ready_batch: Arc<Histogram>,
    /// Wall time of one shard's shutdown drain pass.
    drain_us: Arc<Histogram>,
    /// The N-slowest-requests ring behind `SLOWLOG`.
    pub(crate) slowlog: SlowLog,
}

impl Telemetry {
    pub(crate) fn new() -> Telemetry {
        let registry = Registry::new();
        let op_latency = std::array::from_fn(|i| {
            registry.histogram("stm_kv_op_latency_us", &[("op", OP_LABELS[i])])
        });
        let txn_attempts = registry.histogram("stm_kv_txn_attempts", &[]);
        let txn_latency_us = registry.histogram("stm_kv_txn_latency_us", &[]);
        let poll_wait_us = registry.histogram("stm_kv_poll_wait_us", &[]);
        let ready_batch = registry.histogram("stm_kv_ready_batch", &[]);
        let drain_us = registry.histogram("stm_kv_drain_us", &[]);
        Telemetry {
            connections: registry.counter("stm_kv_connections_total", &[]),
            requests: registry.counter("stm_kv_requests_total", &[]),
            batches: registry.counter("stm_kv_batches_total", &[]),
            errors: registry.counter("stm_kv_errors_total", &[]),
            conns_reaped_idle: registry.counter("stm_kv_conns_reaped_idle_total", &[]),
            partial_writes: registry.counter("stm_kv_partial_writes_total", &[]),
            conns_open: registry.gauge("stm_kv_conns_open", &[]),
            registry,
            op_latency,
            txn_attempts,
            txn_latency_us,
            poll_wait_us,
            ready_batch,
            drain_us,
            slowlog: SlowLog::new(),
        }
    }

    /// The open-connections gauge of one event-loop shard (registered on
    /// first use; the shard holds the handle for its lifetime).
    pub(crate) fn shard_conns(&self, shard: usize) -> Arc<Gauge> {
        self.registry
            .gauge("stm_kv_shard_conns", &[("shard", &shard.to_string())])
    }

    /// Records one executed request: end-to-end latency into the op's
    /// series, attempt count and in-transaction latency from the
    /// [`TxRunReport`] fold point, and a `SLOWLOG` candidacy check.
    pub(crate) fn observe_op(&self, op: usize, report: &TxRunReport, txn_us: u64, wall_us: u64) {
        self.op_latency[op].record(wall_us);
        self.txn_attempts.record(report.attempts);
        self.txn_latency_us.record(txn_us);
        self.slowlog.offer(SlowEntry {
            op: OP_LABELS[op],
            keys: report.reads + report.writes,
            attempts: report.attempts,
            aborts: report.aborts,
            abort_causes: report.abort_causes,
            conflicts: report.conflicts,
            waits: report.waits,
            enemy_aborts: report.enemy_aborts,
            wall_us,
            txn_us,
        });
    }

    pub(crate) fn note_poll_wait(&self, us: u64) {
        self.poll_wait_us.record(us);
    }

    pub(crate) fn note_ready_batch(&self, n: u64) {
        self.ready_batch.record(n);
    }

    pub(crate) fn note_drain(&self, us: u64) {
        self.drain_us.record(us);
    }

    /// The registry's Prometheus text exposition (the first of the four in
    /// the `METRICS` payload).
    pub(crate) fn render(&self) -> String {
        self.registry.render()
    }
}

/// One captured slow request. `keys` counts transactional opens (reads +
/// writes) across every attempt; `wall_us − txn_us` is the time spent
/// outside the transaction (parse, render, bookkeeping) — the serving-queue
/// share of the wall time.
#[derive(Clone, Debug)]
pub(crate) struct SlowEntry {
    pub(crate) op: &'static str,
    pub(crate) keys: u64,
    pub(crate) attempts: u64,
    pub(crate) aborts: u64,
    pub(crate) abort_causes: [u64; ABORT_CAUSES],
    pub(crate) conflicts: u64,
    pub(crate) waits: u64,
    pub(crate) enemy_aborts: u64,
    pub(crate) wall_us: u64,
    pub(crate) txn_us: u64,
}

impl SlowEntry {
    /// Stable `key=value` line, one per entry in the `SLOWLOG` reply.
    /// `causes` breaks the aborts down by [`AbortCause`] label
    /// (`label:count`, comma-separated, `-` when the request never
    /// aborted); `waits`/`enemy_aborts` are the contention-manager verdicts
    /// the request's conflicts drew.
    fn render(&self) -> String {
        let mut causes = String::new();
        for cause in AbortCause::ALL {
            let n = self.abort_causes[cause.index()];
            if n == 0 {
                continue;
            }
            if !causes.is_empty() {
                causes.push(',');
            }
            let _ = write!(causes, "{}:{n}", cause.label());
        }
        if causes.is_empty() {
            causes.push('-');
        }
        format!(
            "op={} keys={} attempts={} aborts={} causes={causes} conflicts={} waits={} \
             enemy_aborts={} wall_us={} txn_us={}",
            self.op,
            self.keys,
            self.attempts,
            self.aborts,
            self.conflicts,
            self.waits,
            self.enemy_aborts,
            self.wall_us,
            self.txn_us,
        )
    }
}

/// Capacity of the slow-request ring (how many entries `SLOWLOG` can
/// return at most).
pub(crate) const SLOWLOG_SLOTS: usize = 64;

/// A fixed ring of the slowest requests seen so far.
///
/// Each slot pairs a lock-free `wall_us` key (0 = empty) with a mutex
/// around the full entry. An offer scans the keys for the currently
/// fastest slot, bails when the candidate is no slower, and otherwise
/// `try_lock`s the victim — a slot mid-update by another thread is
/// *skipped*, not waited on, so the hot path never blocks. The ring is
/// therefore lossy under contention by design: it approximates "the N
/// slowest", trading exactness for a wait-free request path.
pub(crate) struct SlowLog {
    slots: Vec<SlowSlot>,
}

struct SlowSlot {
    wall_us: AtomicU64,
    data: Mutex<Option<SlowEntry>>,
}

impl SlowLog {
    fn new() -> SlowLog {
        SlowLog {
            slots: (0..SLOWLOG_SLOTS)
                .map(|_| SlowSlot {
                    wall_us: AtomicU64::new(0),
                    data: Mutex::new(None),
                })
                .collect(),
        }
    }

    /// Offers a candidate; keeps it only if it is slower than the ring's
    /// current fastest entry (empty slots count as fastest, so the ring
    /// fills first).
    pub(crate) fn offer(&self, entry: SlowEntry) {
        let mut min = u64::MAX;
        let mut victim = 0usize;
        for (i, slot) in self.slots.iter().enumerate() {
            let w = slot.wall_us.load(Ordering::Relaxed);
            if w < min {
                min = w;
                victim = i;
            }
        }
        if entry.wall_us <= min {
            return;
        }
        let slot = &self.slots[victim];
        if let Some(mut guard) = slot.data.try_lock() {
            slot.wall_us.store(entry.wall_us, Ordering::Relaxed);
            *guard = Some(entry);
        }
    }

    /// The `n` slowest recorded entries, rendered, slowest first.
    pub(crate) fn entries(&self, n: usize) -> Vec<String> {
        let mut collected: Vec<SlowEntry> = self
            .slots
            .iter()
            .filter_map(|slot| slot.data.lock().clone())
            .collect();
        collected.sort_by_key(|e| std::cmp::Reverse(e.wall_us));
        collected.truncate(n);
        collected.iter().map(SlowEntry::render).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(op: &'static str, wall_us: u64) -> SlowEntry {
        SlowEntry {
            op,
            keys: 2,
            attempts: 3,
            aborts: 2,
            abort_causes: {
                let mut causes = [0u64; ABORT_CAUSES];
                causes[AbortCause::KilledByEnemy.index()] = 2;
                causes
            },
            conflicts: 2,
            waits: 1,
            enemy_aborts: 0,
            wall_us,
            txn_us: wall_us / 2,
        }
    }

    #[test]
    fn slowlog_keeps_the_slowest_and_sorts_descending() {
        let log = SlowLog::new();
        for w in 1..=(SLOWLOG_SLOTS as u64 + 40) {
            log.offer(entry("GET", w));
        }
        let top = log.entries(4);
        assert_eq!(top.len(), 4);
        assert!(top[0].contains(&format!("wall_us={}", SLOWLOG_SLOTS as u64 + 40)));
        assert!(top[1].contains(&format!("wall_us={}", SLOWLOG_SLOTS as u64 + 39)));
        // A fast request after the ring filled with slower ones is dropped.
        log.offer(entry("PUT", 1));
        let all = log.entries(SLOWLOG_SLOTS);
        assert_eq!(all.len(), SLOWLOG_SLOTS);
        assert!(all.iter().all(|line| !line.contains("op=PUT")));
    }

    #[test]
    fn slow_entries_render_abort_causes_by_label() {
        let line = entry("EXEC", 500).render();
        assert!(
            line.starts_with("op=EXEC keys=2 attempts=3 aborts=2 "),
            "{line}"
        );
        assert!(line.contains("causes=killed_by_enemy:2"), "{line}");
        assert!(line.contains("wall_us=500 txn_us=250"), "{line}");
        let mut clean = entry("GET", 10);
        clean.aborts = 0;
        clean.abort_causes = [0; ABORT_CAUSES];
        assert!(clean.render().contains("causes=-"), "{}", clean.render());
    }

    #[test]
    fn telemetry_renders_every_expected_series_name() {
        let telemetry = Telemetry::new();
        let report = TxRunReport {
            attempts: 2,
            aborts: 1,
            ..TxRunReport::default()
        };
        telemetry.observe_op(0, &report, 10, 15);
        telemetry.note_poll_wait(5);
        telemetry.note_ready_batch(3);
        telemetry.note_drain(100);
        telemetry.shard_conns(0).set(2);
        telemetry.requests.add(3);
        telemetry.conns_open.add(1);
        let text = telemetry.render();
        for name in [
            "stm_kv_requests_total 3",
            "stm_kv_errors_total 0",
            "stm_kv_conns_open 1",
            "stm_kv_op_latency_us_bucket{op=\"GET\"",
            "stm_kv_txn_attempts_count 1",
            "stm_kv_txn_latency_us_count 1",
            "stm_kv_poll_wait_us_count 1",
            "stm_kv_ready_batch_count 1",
            "stm_kv_drain_us_count 1",
            "stm_kv_shard_conns{shard=\"0\"} 2",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }
}
