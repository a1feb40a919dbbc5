//! Point-in-time snapshots of the keyspace.
//!
//! A snapshot file freezes the whole key → value map as observed by one
//! consistent-cut transaction (sequence number `seq`): recovery loads the
//! latest valid snapshot and then replays only the log records with
//! `seq > snapshot.seq`, which bounds recovery time and lets old log
//! segments be pruned.
//!
//! The format (all integers little-endian):
//!
//! ```text
//! magic:   u32  = 0x534E_4150 ("SNAP")
//! version: u32  = 2
//! payload: seq: u64 | count: u64 | count × pair
//! crc:     u32  over the payload
//!
//! pair = key: i64 | tag: u8 | body
//! body = 0x00 (int)   | value: i64
//!      | 0x02 (str)   | len: u32 | len bytes (UTF-8)
//!      | 0x03 (bytes) | len: u32 | len bytes
//! ```
//!
//! The tags and bodies are the log record's value encoding
//! ([`record::value_tag`], [`record::encode_value_body`]). A file carrying
//! any other version is not a snapshot: the reader skips it like one whose
//! checksum fails.
//!
//! Snapshots are written to a temporary file, fsynced, and renamed into
//! place, so a crash mid-snapshot leaves the previous snapshot intact; a
//! snapshot whose checksum does not verify is ignored at recovery.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use stm_core::CommitValue;

use crate::crc::crc32;
use crate::record;

const MAGIC: u32 = 0x534E_4150;
const VERSION: u32 = 2;

/// A decoded snapshot: the consistent-cut sequence number and the pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Log records with `seq <= this` are covered by the snapshot.
    pub seq: u64,
    /// The full key → value map at the cut, ascending by key.
    pub pairs: Vec<(i64, CommitValue)>,
}

/// The file name of the snapshot at `seq` (zero-padded so lexicographic
/// order is numeric order).
pub fn snapshot_file_name(seq: u64) -> String {
    format!("snap-{seq:020}.snap")
}

/// Parses a snapshot file name back to its sequence number.
pub fn parse_snapshot_file_name(name: &str) -> Option<u64> {
    name.strip_prefix("snap-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

/// Serializes a snapshot to bytes.
pub fn encode(seq: u64, pairs: &[(i64, CommitValue)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(28 + pairs.len() * 17);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&VERSION.to_le_bytes());
    let payload_start = out.len();
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
    for (key, value) in pairs {
        out.extend_from_slice(&key.to_le_bytes());
        out.push(record::value_tag(value));
        record::encode_value_body(&mut out, value);
    }
    let crc = crc32(&out[payload_start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

fn decode_pairs(payload: &[u8], count: usize) -> Option<Vec<(i64, CommitValue)>> {
    let mut pairs = Vec::with_capacity(count.min(1 << 20));
    let mut at = 16usize;
    for _ in 0..count {
        let key = i64::from_le_bytes(payload.get(at..at + 8)?.try_into().ok()?);
        let tag = *payload.get(at + 8)?;
        at += 9;
        let (value, used) = record::decode_value_body(tag, &payload[at..])?;
        at += used;
        pairs.push((key, value));
    }
    (at == payload.len()).then_some(pairs)
}

/// Decodes a snapshot, returning `None` when the bytes are malformed, carry
/// another version, or the checksum fails (recovery then falls back to
/// the previous snapshot or to a full log replay).
pub fn decode(bytes: &[u8]) -> Option<Snapshot> {
    if bytes.len() < 28 {
        return None;
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().ok()?);
    let version = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
    if magic != MAGIC || version != VERSION {
        return None;
    }
    let payload = &bytes[8..bytes.len() - 4];
    let expected_crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().ok()?);
    if crc32(payload) != expected_crc {
        return None;
    }
    let seq = u64::from_le_bytes(payload[0..8].try_into().ok()?);
    let count = u64::from_le_bytes(payload[8..16].try_into().ok()?) as usize;
    let pairs = decode_pairs(payload, count)?;
    Some(Snapshot { seq, pairs })
}

/// Writes the snapshot durably into `dir` (temp file → fsync → rename) and
/// returns its final path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write(dir: &Path, seq: u64, pairs: &[(i64, CommitValue)]) -> io::Result<PathBuf> {
    let bytes = encode(seq, pairs);
    let tmp = dir.join(format!("snap-{seq:020}.tmp"));
    let final_path = dir.join(snapshot_file_name(seq));
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_data()?;
    }
    fs::rename(&tmp, &final_path)?;
    // The rename must itself be durable before the caller may prune the
    // log segments this snapshot covers — otherwise a crash could leave
    // neither the snapshot's directory entry nor the pruned segments.
    File::open(dir)?.sync_all()?;
    Ok(final_path)
}

/// Reads and validates one snapshot file.
pub fn read(path: &Path) -> Option<Snapshot> {
    decode(&fs::read(path).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn typed_pairs() -> Vec<(i64, CommitValue)> {
        vec![
            (-3, CommitValue::Int(30)),
            (0, CommitValue::Str("line\nbreak \0 NUL — ✓".to_string())),
            (7, CommitValue::Bytes(vec![0, 255, 10, 0])),
            (9, CommitValue::Int(-700)),
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        let pairs = typed_pairs();
        let snapshot = decode(&encode(42, &pairs)).unwrap();
        assert_eq!(snapshot.seq, 42);
        assert_eq!(snapshot.pairs, pairs);
        let empty = decode(&encode(1, &[])).unwrap();
        assert!(empty.pairs.is_empty());
    }

    #[test]
    fn corruption_and_truncation_invalidate() {
        let bytes = encode(9, &typed_pairs());
        for i in 8..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(decode(&bad).is_none(), "flip at {i} accepted");
        }
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_none(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn file_names_round_trip_and_sort_numerically() {
        assert_eq!(parse_snapshot_file_name(&snapshot_file_name(17)), Some(17));
        assert_eq!(parse_snapshot_file_name("snap-x.snap"), None);
        assert_eq!(
            parse_snapshot_file_name("wal-00000000000000000001.log"),
            None
        );
        assert!(snapshot_file_name(9) < snapshot_file_name(10));
        assert!(snapshot_file_name(99) < snapshot_file_name(100));
    }

    #[test]
    fn write_and_read_through_the_filesystem() {
        let dir = std::env::temp_dir().join(format!("stm-log-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pairs = typed_pairs();
        let path = write(&dir, 3, &pairs).unwrap();
        let loaded = read(&path).unwrap();
        assert_eq!(loaded, Snapshot { seq: 3, pairs });
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
