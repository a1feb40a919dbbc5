//! Crash recovery: latest valid snapshot + replay of the log tail.
//!
//! Recovery walks the log directory and reconstructs the committed prefix:
//!
//! 1. Load the newest snapshot whose checksum verifies (older and invalid
//!    snapshots are skipped — a crash mid-snapshot leaves a `.tmp` that is
//!    ignored entirely).
//! 2. Read every segment in first-sequence order, decoding records until the
//!    first torn or corrupt one. Everything from that point on — the rest of
//!    that segment *and any later segment* — is beyond the torn commit and
//!    is discarded: the bad record is where the durable prefix ends. A
//!    segment that does not start with [`record::SEGMENT_MAGIC`] (torn
//!    inside the magic, or not this format at all) is that same case at
//!    offset zero: it contributes no records and the prefix ends there.
//! 3. Truncate the bad tail on disk so the writer appends after a clean
//!    prefix, and delete the discarded later segments.
//! 4. Return the snapshot, the replay tail (records with `seq` greater than
//!    the snapshot's cut), and the next sequence number to assign.
//!
//! Step 3 makes recovery idempotent: recovering twice in a row yields the
//! same state, and the second pass finds nothing to truncate.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read};
use std::path::{Path, PathBuf};

use stm_core::{CommitOp, CommitValue};

use crate::record;
use crate::snapshot::{self, Snapshot};

/// What [`recover`] found in a log directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovered {
    /// The newest valid snapshot, if any.
    pub snapshot: Option<Snapshot>,
    /// Log records to replay on top of the snapshot, ascending by sequence
    /// number (records the snapshot already covers are filtered out).
    pub tail: Vec<(u64, Vec<CommitOp>)>,
    /// Bytes of torn/corrupt tail that were truncated away (0 on a clean
    /// shutdown).
    pub truncated_bytes: u64,
    /// The next sequence number the log should assign.
    pub next_seq: u64,
}

impl Recovered {
    /// Folds the snapshot and tail down to the final live keyspace: the
    /// `(key, value)` pairs that survive after every logged op has been
    /// applied, last writer wins, ascending by key.
    ///
    /// Replaying this — instead of the raw op stream — means a key whose
    /// final logged op is a `Del` never materialises a value cell in the
    /// rebuilt store: tombstoned keys stay reclaimed across restarts rather
    /// than being resurrected by an intermediate `Put` and deleted again.
    #[must_use]
    pub fn live_pairs(&self) -> Vec<(i64, CommitValue)> {
        let mut live: BTreeMap<i64, Option<&CommitValue>> = BTreeMap::new();
        if let Some(snapshot) = &self.snapshot {
            for (key, value) in &snapshot.pairs {
                live.insert(*key, Some(value));
            }
        }
        for (_seq, ops) in &self.tail {
            for op in ops {
                match op {
                    CommitOp::Put { id, value } => {
                        live.insert(*id, Some(value));
                    }
                    CommitOp::Del { id } => {
                        live.insert(*id, None);
                    }
                }
            }
        }
        live.into_iter()
            .filter_map(|(key, value)| value.map(|v| (key, v.clone())))
            .collect()
    }
}

/// Lists segment files as `(path, first_seq)`, unsorted.
///
/// # Errors
///
/// Propagates directory-read errors; an absent directory yields an empty
/// list.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(PathBuf, u64)>> {
    list_dir(dir, parse_segment_file_name)
}

/// Lists snapshot files as `(path, seq)`, unsorted.
///
/// # Errors
///
/// Propagates directory-read errors; an absent directory yields an empty
/// list.
pub fn list_snapshots(dir: &Path) -> io::Result<Vec<(PathBuf, u64)>> {
    list_dir(dir, snapshot::parse_snapshot_file_name)
}

fn list_dir(
    dir: &Path,
    parse: impl Fn(&str) -> Option<u64>,
) -> io::Result<Vec<(PathBuf, u64)>> {
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
    Ok(out)
}

fn parse_segment_file_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?.strip_suffix(".log")?.parse().ok()
}

/// Recovers the committed prefix from `dir`, truncating any torn tail (see
/// the [module documentation](self)).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn recover(dir: &Path) -> io::Result<Recovered> {
    // Newest valid snapshot wins; invalid ones are skipped, not fatal.
    let mut snapshots = list_snapshots(dir)?;
    snapshots.sort_by_key(|(_, seq)| *seq);
    let mut best_snapshot: Option<Snapshot> = None;
    for (path, _) in snapshots.iter().rev() {
        if let Some(loaded) = snapshot::read(path) {
            best_snapshot = Some(loaded);
            break;
        }
    }
    let snapshot_seq = best_snapshot.as_ref().map(|s| s.seq).unwrap_or(0);

    let mut segments = list_segments(dir)?;
    segments.sort_by_key(|(_, first_seq)| *first_seq);

    let mut tail: Vec<(u64, Vec<CommitOp>)> = Vec::new();
    let mut truncated_bytes = 0u64;
    let mut max_seq = snapshot_seq;
    let mut dirty_from: Option<usize> = None; // segment index where the prefix ended
    for (index, (path, _)) in segments.iter().enumerate() {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        // No magic, no records: the prefix ends where this segment begins.
        let (records, clean_end, clean) = match bytes.strip_prefix(record::SEGMENT_MAGIC) {
            Some(body) => {
                let (records, body_end, clean) = record::decode_all(body);
                (records, record::SEGMENT_MAGIC.len() + body_end, clean)
            }
            None => (Vec::new(), 0, false),
        };
        for rec in records {
            max_seq = max_seq.max(rec.seq);
            if rec.seq > snapshot_seq {
                tail.push((rec.seq, rec.ops));
            }
        }
        if !clean {
            truncated_bytes += (bytes.len() - clean_end) as u64;
            if clean_end <= record::SEGMENT_MAGIC.len() {
                // No surviving record in this segment — a bare (possibly
                // torn) header carries nothing worth keeping.
                fs::remove_file(path)?;
            } else {
                let file = OpenOptions::new().write(true).open(path)?;
                file.set_len(clean_end as u64)?;
                // Persist the truncation now: if it only lived in the page
                // cache, a later crash would resurrect the torn record and
                // the *next* recovery would cut away everything logged (and
                // possibly acknowledged) after this point.
                file.sync_all()?;
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
    tail.sort_by_key(|(seq, _)| *seq);
    Ok(Recovered {
        snapshot: best_snapshot,
        tail,
        truncated_bytes,
        next_seq: max_seq + 1,
    })
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

    #[test]
    fn empty_directory_recovers_to_nothing() {
        let dir = temp_dir("empty");
        let recovered = recover(&dir).unwrap();
        assert_eq!(
            recovered,
            Recovered {
                snapshot: None,
                tail: Vec::new(),
                truncated_bytes: 0,
                next_seq: 1
            }
        );
        let missing = dir.join("definitely-not-here");
        assert!(list_segments(&missing).unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_filters_covered_records_and_orders_the_tail() {
        let dir = temp_dir("filter");
        write_segment(&dir, 1, &[(1, put(1, 10)), (2, put(2, 20)), (3, put(3, 30))]);
        write_segment(&dir, 4, &[(4, put(4, 40)), (5, put(5, 50))]);
        let pairs: Vec<_> = [(1, 10), (2, 20), (3, 30)]
            .map(|(k, v)| (k, stm_core::CommitValue::Int(v)))
            .to_vec();
        snapshot::write(&dir, 3, &pairs).unwrap();
        let recovered = recover(&dir).unwrap();
        assert_eq!(recovered.snapshot.unwrap().seq, 3);
        assert_eq!(recovered.tail, vec![(4, put(4, 40)), (5, put(5, 50))]);
        assert_eq!(recovered.next_seq, 6);
        assert_eq!(recovered.truncated_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_pairs_folds_deletes_last_writer_wins() {
        let recovered = Recovered {
            snapshot: Some(Snapshot {
                seq: 2,
                pairs: vec![
                    (1, CommitValue::Int(10)),
                    (2, CommitValue::Str("keep".into())),
                    (3, CommitValue::Int(30)),
                ],
            }),
            tail: vec![
                // Key 3 dies; key 1 is overwritten; key 9 lives and dies in
                // the tail; key 4 is born in the tail.
                (3, vec![CommitOp::Del { id: 3 }, CommitOp::put(4, 40)]),
                (4, put(9, 90)),
                (5, vec![CommitOp::put(1, 11), CommitOp::Del { id: 9 }]),
            ],
            truncated_bytes: 0,
            next_seq: 6,
        };
        assert_eq!(
            recovered.live_pairs(),
            vec![
                (1, CommitValue::Int(11)),
                (2, CommitValue::Str("keep".into())),
                (4, CommitValue::Int(40)),
            ],
            "tombstoned keys must not survive the fold"
        );
    }

    #[test]
    fn live_pairs_resurrects_a_key_deleted_then_rewritten() {
        let recovered = Recovered {
            snapshot: None,
            tail: vec![
                (1, put(7, 70)),
                (2, vec![CommitOp::Del { id: 7 }]),
                (3, put(7, 71)),
            ],
            truncated_bytes: 0,
            next_seq: 4,
        };
        assert_eq!(recovered.live_pairs(), vec![(7, CommitValue::Int(71))]);
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
        assert_eq!(first.tail.len(), 2, "committed prefix is records 1..=2");
        assert!(first.truncated_bytes > 0);
        assert_eq!(first.next_seq, 3);
        let second = recover(&dir).unwrap();
        assert_eq!(second.tail, first.tail);
        assert_eq!(second.truncated_bytes, 0, "second pass finds a clean log");
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
        assert_eq!(recovered.tail, vec![(1, put(1, 1))]);
        assert_eq!(recovered.next_seq, 2);
        assert!(!later.exists(), "segments beyond the cut must be deleted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_snapshot_falls_back_to_an_older_valid_one() {
        let dir = temp_dir("badsnap");
        write_segment(&dir, 1, &[(1, put(1, 1)), (2, put(2, 2)), (3, put(3, 3))]);
        let pairs: Vec<_> = [(1, 1), (2, 2)]
            .map(|(k, v)| (k, stm_core::CommitValue::Int(v)))
            .to_vec();
        snapshot::write(&dir, 2, &pairs).unwrap();
        // A newer snapshot that is garbage on disk.
        let bad = dir.join(snapshot::snapshot_file_name(3));
        File::create(&bad).unwrap().write_all(b"not a snapshot").unwrap();
        // And a stray tmp from a crashed snapshotter.
        File::create(dir.join("snap-x.tmp")).unwrap().write_all(b"junk").unwrap();
        let recovered = recover(&dir).unwrap();
        assert_eq!(recovered.snapshot.unwrap().seq, 2, "falls back past the bad one");
        assert_eq!(recovered.tail, vec![(3, put(3, 3))]);
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
            assert_eq!(first.tail, vec![(1, put(1, 10)), (2, put(2, 20))], "{tag}");
            assert_eq!(first.next_seq, 3, "{tag}");
            assert_eq!(first.truncated_bytes, cut, "{tag}: both files, whole");
            assert!(!damaged.exists() && !later.exists(), "{tag}");
            let second = recover(&dir).unwrap();
            assert_eq!(second.tail, first.tail, "{tag}");
            assert_eq!(second.truncated_bytes, 0, "{tag}: second pass is clean");
            let _ = fs::remove_dir_all(&dir);
        }

        let dir = temp_dir("snapv1");
        write_segment(&dir, 1, &[(1, put(1, 10)), (2, put(2, 20))]);
        snapshot::write(&dir, 1, &[(1, CommitValue::Int(10))]).unwrap();
        // The version field sits outside the checksummed payload, so this
        // file is intact in every respect but its version.
        let pairs = [(1, CommitValue::Int(10)), (2, CommitValue::Int(20))];
        let mut bytes = snapshot::encode(2, &pairs);
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        fs::write(dir.join(snapshot::snapshot_file_name(2)), &bytes).unwrap();
        for pass in 0..2 {
            let recovered = recover(&dir).unwrap();
            assert_eq!(recovered.snapshot.unwrap().seq, 1, "pass {pass}: older valid one wins");
            assert_eq!(recovered.tail, vec![(2, put(2, 20))], "pass {pass}");
            assert_eq!(recovered.truncated_bytes, 0, "pass {pass}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fully_torn_first_record_removes_the_segment() {
        let dir = temp_dir("allgone");
        let path = write_segment(&dir, 1, &[(1, put(1, 1))]);
        OpenOptions::new().write(true).open(&path).unwrap().set_len(3).unwrap();
        let recovered = recover(&dir).unwrap();
        assert!(recovered.tail.is_empty());
        assert_eq!(recovered.next_seq, 1);
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
