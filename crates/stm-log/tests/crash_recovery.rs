//! Crash-recovery property test: kill the log mid-batch — truncate or
//! corrupt the tail at an arbitrary byte — recover, and prove the recovered
//! store equals the application of the **committed prefix** of everything
//! that was ever logged. Seeded PRNG, deterministic replay. The op streams
//! draw typed values (ints, strings with embedded newlines/NULs, byte
//! blobs), so the record and snapshot formats are exercised end to end.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::path::PathBuf;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stm_core::{CommitOp, CommitValue};
use stm_log::{recover, Wal, WalConfig};

fn temp_dir(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "stm-log-crash-{tag}-{seed}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Applies one logged write-set to a model store.
fn apply(model: &mut BTreeMap<i64, CommitValue>, ops: &[CommitOp]) {
    for op in ops {
        match op {
            CommitOp::Put { id, value } => {
                model.insert(*id, value.clone());
            }
            CommitOp::Del { id } => {
                model.remove(id);
            }
        }
    }
}

/// Draws a random typed value: mostly ints, with strings (embedded
/// newlines, NULs, multi-byte UTF-8) and byte blobs mixed in.
fn draw_value(rng: &mut SmallRng) -> CommitValue {
    match rng.gen_range(0..10u32) {
        0..=5 => CommitValue::Int(rng.gen_range(-1000..1000i64)),
        6..=7 => {
            let len = rng.gen_range(0..24usize);
            let s: String = (0..len)
                .map(|_| match rng.gen_range(0..6u32) {
                    0 => '\n',
                    1 => '\0',
                    2 => '✓',
                    _ => char::from(rng.gen_range(b'a'..=b'z')),
                })
                .collect();
            CommitValue::Str(s)
        }
        _ => {
            let len = rng.gen_range(0..24usize);
            CommitValue::Bytes((0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect())
        }
    }
}

/// Draws a random write-set (1..=4 ops over a small key range).
fn draw_ops(rng: &mut SmallRng) -> Vec<CommitOp> {
    let count = rng.gen_range(1..=4usize);
    (0..count)
        .map(|_| {
            let id = rng.gen_range(0..32i64);
            if rng.gen_bool(0.25) {
                CommitOp::Del { id }
            } else {
                CommitOp::Put {
                    id,
                    value: draw_value(rng),
                }
            }
        })
        .collect()
}

/// Runs one seeded scenario: log `transactions` write-sets (optionally
/// snapshotting part-way), then damage the newest segment at a random point
/// (truncate, or flip a byte), recover, and check the committed-prefix
/// property.
fn run_scenario(seed: u64, with_snapshot: bool, flip_instead_of_truncate: bool) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let dir = temp_dir("prop", seed);
    let mut cfg = WalConfig::new(&dir);
    cfg.segment_bytes = 4096; // small segments so rotation participates
    let (wal, _) = Wal::open(cfg).unwrap();
    let hook = wal.commit_hook();

    // `golden[k]` is the write-set committed with sequence number k + 1.
    let mut golden: Vec<Vec<CommitOp>> = Vec::new();
    let transactions = rng.gen_range(20..120usize);
    let snapshot_at = with_snapshot.then(|| rng.gen_range(1..=transactions as u64));
    let mut last_seq = 0;
    for _ in 0..transactions {
        let ops = draw_ops(&mut rng);
        let seq = hook.on_commit(&ops, &mut || true).unwrap();
        assert_eq!(seq, last_seq + 1, "sequence numbers must be gapless");
        last_seq = seq;
        golden.push(ops);
        if snapshot_at == Some(seq) {
            // Snapshot the model state at this cut, as the server would.
            let mut at_cut = BTreeMap::new();
            for ops in &golden {
                apply(&mut at_cut, ops);
            }
            assert!(wal.begin_snapshot());
            let pairs: Vec<(i64, CommitValue)> = at_cut.into_iter().collect();
            wal.write_snapshot(seq, &pairs).unwrap();
        }
    }
    // Graceful close so every record reaches disk, then damage the tail —
    // the equivalent of a crash that tore or corrupted the final write.
    drop(wal);

    let mut segments = stm_log::recovery::list_segments(&dir).unwrap();
    segments.sort_by_key(|(_, first)| *first);
    if let Some((path, _)) = segments.last() {
        let len = fs::metadata(path).unwrap().len();
        if flip_instead_of_truncate {
            use std::io::{Read, Seek, SeekFrom, Write};
            let mut file = OpenOptions::new().read(true).write(true).open(path).unwrap();
            let at = rng.gen_range(0..len);
            file.seek(SeekFrom::Start(at)).unwrap();
            let mut byte = [0u8; 1];
            file.read_exact(&mut byte).unwrap();
            byte[0] ^= 1 << rng.gen_range(0..8u32);
            file.seek(SeekFrom::Start(at)).unwrap();
            file.write_all(&byte).unwrap();
        } else {
            let cut = rng.gen_range(0..=len);
            OpenOptions::new().write(true).open(path).unwrap().set_len(cut).unwrap();
        }
    }

    let recovered = recover(&dir).unwrap();

    // Rebuild the store exactly as the server would: snapshot, then tail.
    let mut rebuilt = BTreeMap::new();
    let snapshot_seq = recovered.snapshot.as_ref().map(|s| s.seq).unwrap_or(0);
    if let Some(snapshot) = &recovered.snapshot {
        rebuilt.extend(snapshot.pairs.iter().cloned());
    }
    let mut expected_next = snapshot_seq + 1;
    for (seq, ops) in &recovered.tail {
        assert_eq!(
            *seq, expected_next,
            "seed {seed}: replay tail must be the contiguous continuation of the snapshot"
        );
        expected_next += 1;
        apply(&mut rebuilt, ops);
    }
    let prefix_len = (expected_next - 1) as usize;
    assert!(
        prefix_len <= golden.len(),
        "seed {seed}: recovery invented commits ({prefix_len} > {})",
        golden.len()
    );
    let mut expected = BTreeMap::new();
    for ops in &golden[..prefix_len] {
        apply(&mut expected, ops);
    }
    assert_eq!(
        rebuilt, expected,
        "seed {seed}: recovered store must equal the committed prefix (len {prefix_len})"
    );

    // Recovery is idempotent: a second pass finds a clean log with the same
    // contents.
    let again = recover(&dir).unwrap();
    assert_eq!(again.tail, recovered.tail, "seed {seed}");
    assert_eq!(again.truncated_bytes, 0, "seed {seed}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_tail_recovers_the_committed_prefix() {
    for seed in 0..8u64 {
        run_scenario(0x7A11 + seed, false, false);
    }
}

#[test]
fn corrupted_byte_recovers_the_committed_prefix() {
    for seed in 0..8u64 {
        run_scenario(0xC0DE + seed, false, true);
    }
}

#[test]
fn snapshot_plus_damaged_tail_recovers_the_committed_prefix() {
    for seed in 0..8u64 {
        run_scenario(0x5A9A + seed, true, seed % 2 == 0);
    }
}

#[test]
fn durable_watermark_survives_the_crash() {
    // Stronger than the prefix property: everything `wait_durable` ever
    // acknowledged must still be there after a torn tail — provided the
    // damage hits the *unsynced* tail, which is what a real crash does
    // (fsynced bytes do not vanish).
    let dir = temp_dir("watermark", 1);
    let (wal, _) = Wal::open(WalConfig::new(&dir)).unwrap();
    let hook = wal.commit_hook();
    let mut durable_upto = 0;
    for i in 0..50i64 {
        let seq = hook.on_commit(&[CommitOp::put(i, i)], &mut || true).unwrap();
        if i < 40 {
            assert!(wal.wait_durable(seq));
            durable_upto = seq;
        }
    }
    let durable_len_lower_bound: u64 = {
        // The segment magic, then 40 acknowledged records: each is
        // 8 (header) + 13 (ver+seq+count) + 17 (one int Put).
        stm_log::SEGMENT_MAGIC.len() as u64 + 40 * (8 + 13 + 17)
    };
    drop(wal);
    let mut segments = stm_log::recovery::list_segments(&dir).unwrap();
    segments.sort_by_key(|(_, first)| *first);
    let (path, _) = segments.last().unwrap();
    // Tear mid-way through the unacknowledged tail.
    let len = fs::metadata(path).unwrap().len();
    let cut = durable_len_lower_bound + (len - durable_len_lower_bound) / 2;
    OpenOptions::new().write(true).open(path).unwrap().set_len(cut).unwrap();
    let recovered = recover(&dir).unwrap();
    assert!(
        recovered.next_seq > durable_upto,
        "acknowledged commits lost: recovered up to {}, acknowledged {durable_upto}",
        recovered.next_seq - 1
    );
    let _ = fs::remove_dir_all(&dir);
}
