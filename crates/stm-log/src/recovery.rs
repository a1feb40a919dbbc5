//! Crash recovery: latest valid snapshot + replay of the log tail, folded
//! into the live keyspace as the records are read.
//!
//! Recovery walks the log directory and reconstructs the committed prefix:
//!
//! 1. Load the newest snapshot whose checksum verifies (older and invalid
//!    snapshots are skipped — a crash mid-snapshot leaves a `.tmp` that is
//!    ignored entirely).
//! 2. Read every segment in first-sequence order, one segment's bytes in
//!    memory at a time, decoding records until the
//!    first torn or corrupt one. Everything from that point on — the rest of
//!    that segment *and any later segment* — is beyond the torn commit and
//!    is discarded: the bad record is where the durable prefix ends. A
//!    segment that does not start with [`record::SEGMENT_MAGIC`] (torn
//!    inside the magic, or not this format at all) is that same case at
//!    offset zero: it contributes no records and the prefix ends there.
//!    The one exception is the *newest* segment ending in zeros after its
//!    last good record: that is the open segment's grow-ahead (see
//!    `wal.rs`), not a torn write. It is trimmed away (durably) without
//!    being counted as truncated. A single non-zero byte there makes it a
//!    torn tail again, and every other segment must end exactly at its last
//!    record, because rotation trims a segment before the next one exists.
//! 3. Truncate the bad tail on disk so the log appends after a clean
//!    prefix, and delete the discarded later segments.
//! 4. Return the live keyspace: the snapshot's pairs with every decoded
//!    record whose `seq` is past the snapshot's cut applied on top as it was
//!    read (`Put` inserts, `Del` removes, last writer wins), plus the next
//!    sequence number to assign. The log itself is never held in memory, so
//!    recovery's memory follows the keyspace, not the log's length.
//!
//! Step 3 makes recovery idempotent: recovering twice in a row yields the
//! same state, and the second pass finds nothing to truncate.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read};
use std::path::{Path, PathBuf};

use stm_core::{CommitOp, CommitValue};

use crate::record::{self, Decoded};
use crate::snapshot;

/// The committed prefix [`recover`] found in a log directory, as the state
/// it produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovered {
    /// The live keyspace, ascending by key.
    pairs: Vec<(i64, CommitValue)>,
    /// The cut of the snapshot recovery started from (0 = none).
    pub snapshot_seq: u64,
    /// Log records applied over the snapshot.
    pub replayed: u64,
    /// Bytes of torn/corrupt tail that were truncated away (0 on a clean
    /// shutdown, and 0 for a zero tail the newest segment was grown by).
    pub truncated_bytes: u64,
    /// The next sequence number the log should assign.
    pub next_seq: u64,
}

impl Recovered {
    /// The `(key, value)` pairs that survive every logged op, ascending by
    /// key. A key whose last logged op was a `Del` is absent, so a store
    /// rebuilt from these never materialises a cell for a tombstoned key.
    #[must_use]
    pub fn live_pairs(&self) -> &[(i64, CommitValue)] {
        &self.pairs
    }
}

/// Lists segment files as `(path, first_seq)`, ascending by `first_seq`.
///
/// # Errors
///
/// Propagates directory-read errors; an absent directory yields an empty
/// list.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(PathBuf, u64)>> {
    list_dir(dir, parse_segment_file_name)
}

/// Lists snapshot files as `(path, seq)`, ascending by `seq`.
///
/// # Errors
///
/// Propagates directory-read errors; an absent directory yields an empty
/// list.
pub fn list_snapshots(dir: &Path) -> io::Result<Vec<(PathBuf, u64)>> {
    list_dir(dir, snapshot::parse_snapshot_file_name)
}

fn list_dir(dir: &Path, parse: impl Fn(&str) -> Option<u64>) -> io::Result<Vec<(PathBuf, u64)>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(err) => return Err(err),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = parse(name) {
            out.push((entry.path(), seq));
        }
    }
    out.sort_unstable_by_key(|(_, seq)| *seq);
    Ok(out)
}

fn parse_segment_file_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// Recovers the committed prefix from `dir` as the live keyspace,
/// truncating any torn tail (see the [module documentation](self)).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn recover(dir: &Path) -> io::Result<Recovered> {
    // Newest valid snapshot wins; invalid ones are skipped, not fatal.
    let snapshot = list_snapshots(dir)?
        .iter()
        .rev()
        .find_map(|(path, _)| snapshot::read(path));
    let snapshot_seq = snapshot.as_ref().map_or(0, |s| s.seq);
    let mut live: BTreeMap<i64, CommitValue> = snapshot
        .map(|s| s.pairs.into_iter().collect())
        .unwrap_or_default();

    let segments = list_segments(dir)?;
    let mut replayed = 0u64;
    let mut truncated_bytes = 0u64;
    let mut last_seq = 0u64;
    // One buffer for every segment, so the allocator cannot leave an old
    // segment's bytes resident beside the next one's.
    let mut bytes = Vec::new();
    let mut dirty_from: Option<usize> = None; // segment index where the prefix ended
    for (index, (path, _)) in segments.iter().enumerate() {
        bytes.clear();
        File::open(path)?.read_to_end(&mut bytes)?;
        // No magic, no records: the prefix ends where this segment begins.
        let has_magic = bytes.starts_with(record::SEGMENT_MAGIC);
        let mut clean_end = 0;
        if has_magic {
            clean_end = record::SEGMENT_MAGIC.len();
            while let Decoded::Ok(rec, used) = record::decode(&bytes[clean_end..]) {
                clean_end += used;
                // The group commit writes batches strictly in seq order
                // and names each segment after its first record, so file
                // order is seq order and a record can be applied the moment
                // it is read. Seqs are only required to ascend, not to be
                // contiguous: logs written before the commit CAS and the
                // append shared one lock have a gap wherever a commit that
                // had taken a seq lost its CAS, and they must still recover.
                debug_assert!(
                    rec.seq > last_seq,
                    "{}: seq {} after {last_seq}",
                    path.display(),
                    rec.seq
                );
                last_seq = rec.seq;
                if rec.seq <= snapshot_seq {
                    continue; // the snapshot already covers it
                }
                replayed += 1;
                for op in rec.ops {
                    match op {
                        CommitOp::Put { id, value } => {
                            live.insert(id, value);
                        }
                        CommitOp::Del { id } => {
                            live.remove(&id);
                        }
                    }
                }
            }
        }
        if !has_magic || clean_end < bytes.len() {
            let newest = index + 1 == segments.len();
            if newest && has_magic && bytes[clean_end..].iter().all(|&b| b == 0) {
                // The open segment's grow-ahead: nothing was torn.
                cut(path, clean_end)?;
                break;
            }
            truncated_bytes += (bytes.len() - clean_end) as u64;
            if clean_end <= record::SEGMENT_MAGIC.len() {
                // No surviving record in this segment — a bare (possibly
                // torn) header carries nothing worth keeping.
                fs::remove_file(path)?;
            } else {
                cut(path, clean_end)?;
            }
            dirty_from = Some(index + 1);
            break;
        }
    }
    // Segments after a torn record hold commits beyond the truncation point;
    // replaying them over the gap would reorder history, so they go too.
    if let Some(from) = dirty_from {
        for (path, _) in &segments[from..] {
            if let Ok(meta) = fs::metadata(path) {
                truncated_bytes += meta.len();
            }
            fs::remove_file(path)?;
        }
    }
    // Stray temp files from a crashed snapshot writer.
    for entry in fs::read_dir(dir)?.flatten() {
        if entry.path().extension().is_some_and(|ext| ext == "tmp") {
            let _ = fs::remove_file(entry.path());
        }
    }
    // Make the removals and truncation durable before the caller starts
    // appending on top of them.
    if truncated_bytes > 0 {
        File::open(dir)?.sync_all()?;
    }
    Ok(Recovered {
        pairs: live.into_iter().collect(),
        snapshot_seq,
        replayed,
        truncated_bytes,
        next_seq: snapshot_seq.max(last_seq) + 1,
    })
}

/// Truncates the segment at `path` to `len` bytes and persists the cut now:
/// if it only lived in the page cache, a later crash would resurrect the
/// torn record and the *next* recovery would cut away everything logged
/// (and possibly acknowledged) after this point.
fn cut(path: &Path, len: usize) -> io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len as u64)?;
    file.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "stm-log-rec-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_segment(dir: &Path, first_seq: u64, records: &[(u64, Vec<CommitOp>)]) -> PathBuf {
        let mut bytes = record::SEGMENT_MAGIC.to_vec();
        for (seq, ops) in records {
            record::encode_into(&mut bytes, *seq, ops);
        }
        let path = dir.join(format!("wal-{first_seq:020}.log"));
        File::create(&path).unwrap().write_all(&bytes).unwrap();
        path
    }

    fn put(id: i64, value: i64) -> Vec<CommitOp> {
        vec![CommitOp::put(id, value)]
    }

    fn ints(pairs: &[(i64, i64)]) -> Vec<(i64, CommitValue)> {
        pairs
            .iter()
            .map(|&(k, v)| (k, CommitValue::Int(v)))
            .collect()
    }

    #[test]
    fn empty_directory_recovers_to_nothing() {
        let dir = temp_dir("empty");
        let recovered = recover(&dir).unwrap();
        assert_eq!(
            recovered,
            Recovered {
                pairs: Vec::new(),
                snapshot_seq: 0,
                replayed: 0,
                truncated_bytes: 0,
                next_seq: 1
            }
        );
        let missing = dir.join("definitely-not-here");
        assert!(list_segments(&missing).unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_filters_covered_records_and_the_tail_folds_last_writer_wins() {
        let dir = temp_dir("fold");
        let at_cut = [
            (1, CommitValue::Int(10)),
            (2, CommitValue::Str("keep".into())),
            (3, CommitValue::Int(30)),
        ];
        write_segment(
            &dir,
            1,
            &[
                (1, vec![CommitOp::put(1, 10), CommitOp::put(2, "keep")]),
                (2, put(3, 30)),
            ],
        );
        write_segment(
            &dir,
            3,
            &[
                // Key 3 dies; key 1 is overwritten; key 4 is born in the
                // tail; key 9 is born, dies and is written again.
                (3, vec![CommitOp::Del { id: 3 }, CommitOp::put(4, 40)]),
                (4, put(9, 90)),
                (5, vec![CommitOp::put(1, 11), CommitOp::Del { id: 9 }]),
                (6, put(9, 91)),
            ],
        );
        snapshot::write(&dir, 2, &at_cut).unwrap();
        let recovered = recover(&dir).unwrap();
        assert_eq!(
            recovered.live_pairs(),
            [
                (1, CommitValue::Int(11)),
                (2, CommitValue::Str("keep".into())),
                (4, CommitValue::Int(40)),
                (9, CommitValue::Int(91)),
            ],
            "tombstoned keys must not survive the fold"
        );
        assert_eq!(recovered.snapshot_seq, 2);
        assert_eq!(recovered.replayed, 4, "records 1..=2 are the snapshot's");
        assert_eq!(recovered.next_seq, 7);
        assert_eq!(recovered.truncated_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_recovery_is_idempotent() {
        let dir = temp_dir("torn");
        let path = write_segment(&dir, 1, &[(1, put(1, 1)), (2, put(2, 2)), (3, put(3, 3))]);
        // Tear the last record: drop its final 5 bytes.
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 5)
            .unwrap();
        let first = recover(&dir).unwrap();
        assert_eq!(first.replayed, 2, "committed prefix is records 1..=2");
        assert_eq!(first.live_pairs(), ints(&[(1, 1), (2, 2)]));
        assert!(first.truncated_bytes > 0);
        assert_eq!(first.next_seq, 3);
        let second = recover(&dir).unwrap();
        assert_eq!(
            second,
            Recovered {
                truncated_bytes: 0,
                ..first
            },
            "second pass finds a clean log with the same state"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_cuts_the_log_and_drops_later_segments() {
        let dir = temp_dir("corrupt");
        let path = write_segment(&dir, 1, &[(1, put(1, 1)), (2, put(2, 2))]);
        let later = write_segment(&dir, 3, &[(3, put(3, 3))]);
        // Corrupt a byte inside record 2's payload.
        let mut bytes = Vec::new();
        File::open(&path).unwrap().read_to_end(&mut bytes).unwrap();
        let record1 = record::encode(1, &put(1, 1));
        bytes[record::SEGMENT_MAGIC.len() + record1.len() + 10] ^= 0xFF;
        File::create(&path).unwrap().write_all(&bytes).unwrap();
        let recovered = recover(&dir).unwrap();
        assert_eq!(recovered.live_pairs(), ints(&[(1, 1)]));
        assert_eq!(recovered.next_seq, 2);
        assert!(!later.exists(), "segments beyond the cut must be deleted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_snapshot_falls_back_to_an_older_valid_one() {
        let dir = temp_dir("badsnap");
        write_segment(&dir, 1, &[(1, put(1, 1)), (2, put(2, 2)), (3, put(3, 3))]);
        snapshot::write(&dir, 2, &ints(&[(1, 1), (2, 2)])).unwrap();
        // A newer snapshot that is garbage on disk.
        let bad = dir.join(snapshot::snapshot_file_name(3));
        File::create(&bad)
            .unwrap()
            .write_all(b"not a snapshot")
            .unwrap();
        // And a stray tmp from a crashed snapshotter.
        File::create(dir.join("snap-x.tmp"))
            .unwrap()
            .write_all(b"junk")
            .unwrap();
        let recovered = recover(&dir).unwrap();
        assert_eq!(recovered.snapshot_seq, 2, "falls back past the bad one");
        assert_eq!(recovered.replayed, 1);
        assert_eq!(recovered.live_pairs(), ints(&[(1, 1), (2, 2), (3, 3)]));
        assert!(!dir.join("snap-x.tmp").exists(), "tmp files are swept");
        let _ = fs::remove_dir_all(&dir);
    }

    /// The one rule for another generation's bytes: a segment that does not
    /// start with the magic ends the prefix and contributes nothing; a
    /// snapshot of another version is skipped like any invalid one.
    #[test]
    fn a_segment_without_the_magic_ends_the_prefix_and_a_version_1_snapshot_is_skipped() {
        type Damage = fn(&mut Vec<u8>);
        let damages: [(&str, Damage); 2] = [
            ("short", |bytes| bytes.truncate(5)),
            ("wrong", |bytes| bytes[..8].copy_from_slice(b"STMWAL1\n")),
        ];
        for (tag, damage) in damages {
            let dir = temp_dir(tag);
            write_segment(&dir, 1, &[(1, put(1, 10)), (2, put(2, 20))]);
            // Valid records behind the damaged header must not be replayed.
            let damaged = write_segment(&dir, 3, &[(3, put(3, 30)), (4, put(4, 40))]);
            let mut bytes = fs::read(&damaged).unwrap();
            damage(&mut bytes);
            fs::write(&damaged, &bytes).unwrap();
            let later = write_segment(&dir, 5, &[(5, put(5, 50))]);
            let cut = bytes.len() as u64 + fs::metadata(&later).unwrap().len();

            let first = recover(&dir).unwrap();
            assert_eq!(first.live_pairs(), ints(&[(1, 10), (2, 20)]), "{tag}");
            assert_eq!(first.replayed, 2, "{tag}");
            assert_eq!(first.next_seq, 3, "{tag}");
            assert_eq!(first.truncated_bytes, cut, "{tag}: both files, whole");
            assert!(!damaged.exists() && !later.exists(), "{tag}");
            let second = recover(&dir).unwrap();
            assert_eq!(
                second,
                Recovered {
                    truncated_bytes: 0,
                    ..first
                },
                "{tag}: second pass is clean"
            );
            let _ = fs::remove_dir_all(&dir);
        }

        let dir = temp_dir("snapv1");
        write_segment(&dir, 1, &[(1, put(1, 10)), (2, put(2, 20))]);
        snapshot::write(&dir, 1, &ints(&[(1, 10)])).unwrap();
        // The version field sits outside the checksummed payload, so this
        // file is intact in every respect but its version.
        let mut bytes = snapshot::encode(2, &ints(&[(1, 10), (2, 20)]));
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        fs::write(dir.join(snapshot::snapshot_file_name(2)), &bytes).unwrap();
        for pass in 0..2 {
            let recovered = recover(&dir).unwrap();
            assert_eq!(
                recovered.snapshot_seq, 1,
                "pass {pass}: older valid one wins"
            );
            assert_eq!(recovered.replayed, 1, "pass {pass}");
            assert_eq!(
                recovered.live_pairs(),
                ints(&[(1, 10), (2, 20)]),
                "pass {pass}"
            );
            assert_eq!(recovered.truncated_bytes, 0, "pass {pass}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    fn append(path: &Path, bytes: &[u8]) {
        OpenOptions::new()
            .append(true)
            .open(path)
            .unwrap()
            .write_all(bytes)
            .unwrap();
    }

    /// The open segment's grow-ahead, left behind by a crash: every record
    /// recovers, nothing counts as truncated, and the zeros are trimmed.
    /// Only the newest segment may end in zeros, and only in zeros.
    #[test]
    fn a_zero_tail_is_preallocation_only_on_the_newest_segment() {
        let dir = temp_dir("zerotail");
        let older = write_segment(&dir, 1, &[(1, put(1, 1)), (2, put(2, 2))]);
        let newest = write_segment(&dir, 3, &[(3, put(3, 3))]);
        let records_len = fs::metadata(&newest).unwrap().len();
        append(&newest, &[0; 5000]);
        let first = recover(&dir).unwrap();
        assert_eq!(first.live_pairs(), ints(&[(1, 1), (2, 2), (3, 3)]));
        assert_eq!(
            (first.replayed, first.next_seq, first.truncated_bytes),
            (3, 4, 0)
        );
        assert_eq!(fs::metadata(&newest).unwrap().len(), records_len);
        assert_eq!(recover(&dir).unwrap(), first, "a second pass is the same");

        // One non-zero byte after the zeros: a torn tail, cut whole.
        append(&newest, &[0; 300]);
        append(&newest, &[1]);
        let torn = recover(&dir).unwrap();
        assert_eq!(torn.live_pairs(), first.live_pairs());
        assert_eq!(torn.truncated_bytes, 301);
        assert_eq!(fs::metadata(&newest).unwrap().len(), records_len);

        // Zeros after the last record of an older segment: the prefix ends
        // there, and the newer segment goes.
        append(&older, &[0; 64]);
        let cut_short = recover(&dir).unwrap();
        assert_eq!(cut_short.live_pairs(), ints(&[(1, 1), (2, 2)]));
        assert_eq!(cut_short.next_seq, 3);
        assert_eq!(cut_short.truncated_bytes, 64 + records_len);
        assert!(!newest.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fully_torn_first_record_removes_the_segment() {
        let dir = temp_dir("allgone");
        let path = write_segment(&dir, 1, &[(1, put(1, 1))]);
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(3)
            .unwrap();
        let recovered = recover(&dir).unwrap();
        assert!(recovered.live_pairs().is_empty());
        assert_eq!(recovered.replayed, 0);
        assert_eq!(recovered.next_seq, 1);
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
