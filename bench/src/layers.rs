//! Time per layer, taken by calling each module's public functions from
//! here: the traced run pushes every request it sent over the wire through
//! the layers once more, on a store (and WAL) built the way the server
//! builds its own, with a span around each call.

use std::io;
use std::path::Path;

use stm_cm::ManagerKind;
use stm_core::{CommitOp, Stm, TVar, TxResult, Txn};
use stm_kv::proto::{
    decode_frame, parse_reply_v2, parse_request_v2, render_reply_v2, render_request_v2, Reply,
    Request,
};
use stm_kv::KvStore;
use stm_log::{record, Wal, WalConfig};
use stm_structures::{ShardedTxSet, TxSet};

use crate::gen::{blob, request_of, wire_key, Meta, Model, Op, Workload, RANGE_SPAN, STRIPE};
use crate::stats::{Clock, Hist};
use crate::trace::Trace;

/// `ServerConfig::default()`'s store geometry.
const STORE_SHARDS: usize = 16;
const STORE_PREALLOC: i64 = 65_536;

/// What the server's private `apply` does for the four verbs the workloads
/// send, `publish` included when a log is attached.
fn apply(store: &KvStore, tx: &mut Txn<'_>, request: &Request, log: bool) -> TxResult<Reply> {
    Ok(match request {
        Request::Get(key) => store.get(tx, *key)?.map_or(Reply::Nil, Reply::Value),
        Request::Put(key, value) => {
            store.put(tx, *key, value.clone())?;
            if log {
                tx.publish(CommitOp::Put {
                    id: *key,
                    value: value.clone(),
                });
            }
            Reply::Ok
        }
        Request::Del(key) => {
            let removed = store.del(tx, *key)?.is_some();
            if log && removed {
                tx.publish(CommitOp::Del { id: *key });
            }
            Reply::OkN(i64::from(removed))
        }
        Request::Range(lo, hi) => Reply::Range(store.range(tx, *lo, *hi)?),
        other => unreachable!("the workloads never send {other:?}"),
    })
}

/// Per-request facts the layer metrics are grouped by.
pub struct Replayed {
    pub replies: Vec<Reply>,
    /// `PUT`s that created their key (`store.put_new_ns_p50`).
    pub created: Vec<bool>,
    /// Rendered size of each reply.
    pub reply_bytes: Vec<u32>,
    pub snapshot_write_s: f64,
    pub recover_s: f64,
}

/// Replays `prefill` (untimed) and then `requests` through client encode → proto decode → store transaction
/// (→ log append + durable wait) → proto render → client decode, recording
/// a `replay` span with one child per layer for every request.
pub fn replay(
    workload: Workload,
    prefill: &[Meta],
    requests: &[Meta],
    conns: usize,
    wal_dir: Option<&Path>,
    clock: Clock,
    trace: &mut Trace,
) -> io::Result<Replayed> {
    let wal = match wal_dir {
        Some(dir) => Some(Wal::open(WalConfig::new(dir))?.0),
        None => None,
    };
    let mut builder = Stm::builder().manager(ManagerKind::Greedy.factory());
    if let Some(wal) = &wal {
        builder = builder.commit_hook(wal.commit_hook());
    }
    let stm = builder.build();
    let store = KvStore::with_preallocated(STORE_SHARDS, STORE_PREALLOC);
    let log = wal.is_some();
    let mut ctx = stm.thread();

    let mut model = Model::new(workload, conns);
    for chunk in prefill.chunks(512) {
        chunk.iter().for_each(|meta| model.apply(meta));
        ctx.atomically(|tx| {
            for meta in chunk {
                apply(&store, tx, &request_of(workload, meta), log)?;
            }
            Ok(())
        })
        .expect("prefill transaction commits");
    }

    let mut replayed = Replayed {
        replies: Vec::with_capacity(requests.len()),
        created: Vec::with_capacity(requests.len()),
        reply_bytes: Vec::with_capacity(requests.len()),
        snapshot_write_s: 0.0,
        recover_s: 0.0,
    };
    let mut rendered = Vec::new();
    for (i, meta) in requests.iter().enumerate() {
        let id = i as u32;
        let request = request_of(workload, meta);
        let root = trace.begin("replay", None, id, clock.now_ns());

        let span = trace.begin("client.encode", Some(root), id, clock.now_ns());
        let bytes = std::hint::black_box(render_request_v2(&request));
        trace.end(span, clock.now_ns());

        let span = trace.begin("proto.decode", Some(root), id, clock.now_ns());
        let (frame, _) = decode_frame(&bytes).expect("a rendered request decodes");
        let parsed = parse_request_v2(frame).expect("a rendered request parses");
        trace.end(span, clock.now_ns());

        let span = trace.begin("store.txn", Some(root), id, clock.now_ns());
        let (result, report) = ctx.atomically_traced(|tx| apply(&store, tx, &parsed, log));
        if let (Some(wal), Some(seq)) = (&wal, report.commit_seq) {
            let wait = trace.begin("stm_log.append_wait", Some(span), id, clock.now_ns());
            let durable = wal.wait_durable(seq);
            trace.end(wait, clock.now_ns());
            if !durable {
                return Err(io::Error::other("replay log failed"));
            }
        }
        trace.end(span, clock.now_ns());
        let reply = result.map_err(|err| io::Error::other(err.to_string()))?;

        let span = trace.begin("proto.render", Some(root), id, clock.now_ns());
        rendered.clear();
        render_reply_v2(&mut rendered, &reply);
        trace.end(span, clock.now_ns());

        let span = trace.begin("client.decode", Some(root), id, clock.now_ns());
        let (frame, _) = decode_frame(&rendered).expect("a rendered reply decodes");
        let decoded = parse_reply_v2(frame).expect("a rendered reply parses");
        trace.end(span, clock.now_ns());
        trace.end(root, clock.now_ns());

        replayed
            .created
            .push(meta.op == Op::Put && !model.is_present(meta.key));
        model.apply(meta);
        replayed.reply_bytes.push(rendered.len() as u32);
        replayed.replies.push(decoded);
    }

    if let (Some(wal), Some(dir)) = (wal, wal_dir) {
        // Snapshot write and recovery, timed on the log this replay wrote.
        let (pairs, report) = ctx.atomically_logged(|tx| store.dump(tx));
        let pairs = pairs.map_err(|err| io::Error::other(err.to_string()))?;
        let started = clock.now_ns();
        if wal.begin_snapshot() {
            wal.write_snapshot(report.commit_seq.unwrap_or(0), &pairs)?;
        }
        replayed.snapshot_write_s = (clock.now_ns() - started) as f64 / 1e9;
        drop(ctx);
        drop(wal);
        let started = clock.now_ns();
        let recovered = stm_log::recover(dir)?;
        replayed.recover_s = (clock.now_ns() - started) as f64 / 1e9;
        if recovered.live_pairs().len() != pairs.len() {
            return Err(io::Error::other(
                "replay log recovered a different key count",
            ));
        }
    }
    Ok(replayed)
}

/// Times `rounds` calls of `op` one by one.
fn time_each(clock: Clock, rounds: usize, mut op: impl FnMut(usize)) -> Hist {
    let mut hist = Hist::new();
    for round in 0..rounds {
        let started = clock.now_ns();
        op(round);
        hist.record(clock.now_ns() - started);
    }
    hist
}

/// `stm_core.txn_ns_p50`: an uncontended read-modify-write of one `TVar`,
/// one thread — the floor under every request's transaction.
pub fn stm_core_txn(clock: Clock) -> Hist {
    let stm = Stm::builder()
        .manager(ManagerKind::Greedy.factory())
        .build();
    let cell = TVar::new(0i64);
    let mut ctx = stm.thread();
    time_each(clock, 50_000, |_| {
        ctx.atomically(|tx| {
            let value = tx.read(&cell)?;
            tx.write(&cell, value + 1)
        })
        .expect("an uncontended transaction commits");
    })
}

/// `stm_log.encode_ns_p50`: encoding one durable `PUT`'s record.
pub fn stm_log_encode(clock: Clock) -> Hist {
    let ops = [CommitOp::put(wire_key(1), blob(1))];
    let mut buffer = Vec::with_capacity(512);
    time_each(clock, 50_000, |round| {
        buffer.clear();
        std::hint::black_box(record::encode_into(&mut buffer, round as u64, &ops));
    })
}

/// Insert, remove and 256-key range on `ShardedTxSet::rbtree(16)` directly
/// (one operation per transaction), on a set half full like a stripe.
/// Returns (insert, remove, range per key returned).
pub fn index_ops(clock: Clock) -> (Hist, Hist, Hist) {
    let stm = Stm::builder()
        .manager(ManagerKind::Greedy.factory())
        .build();
    let set = ShardedTxSet::rbtree(STORE_SHARDS);
    let mut ctx = stm.thread();
    let key = |i: usize| wire_key(i as u32);
    for chunk in (0..STRIPE as usize)
        .step_by(2)
        .collect::<Vec<_>>()
        .chunks(512)
    {
        ctx.atomically(|tx| {
            for &i in chunk {
                set.insert(tx, key(i))?;
            }
            Ok(())
        })
        .expect("prefill commits");
    }
    // Odd keys are absent, even keys present; stride through the stripe so
    // successive operations do not share a tree path.
    let at = |round: usize| (round * 7_919) % (STRIPE as usize / 2) * 2;
    let insert = time_each(clock, 5_000, |round| {
        ctx.atomically(|tx| set.insert(tx, key(at(round) + 1)))
            .expect("insert commits");
    });
    let remove = time_each(clock, 5_000, |round| {
        ctx.atomically(|tx| set.remove(tx, key(at(round) + 1)))
            .expect("remove commits");
    });
    let mut range = Hist::new();
    for round in 0..2_000 {
        let lo = key(at(round).min((STRIPE - RANGE_SPAN) as usize));
        let started = clock.now_ns();
        let found = ctx
            .atomically(|tx| set.range(tx, lo, lo + i64::from(RANGE_SPAN) - 1))
            .expect("range commits");
        let elapsed = clock.now_ns() - started;
        range.record(elapsed / found.len().max(1) as u64);
    }
    (insert, remove, range)
}
