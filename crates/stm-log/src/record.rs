//! The binary log-record format: length-prefixed, checksummed, versioned,
//! replayable.
//!
//! One record carries the published write-set of one committed transaction:
//!
//! ```text
//! ┌────────────┬────────────┬──────────────────────────────────────────┐
//! │ len: u32 LE│ crc: u32 LE│ payload (len bytes)                      │
//! └────────────┴────────────┴──────────────────────────────────────────┘
//!
//! payload = ver: u8 = 0x02 | seq: u64 LE | count: u32 LE | count × op
//! op      = 0x00 (Put int)   | id: i64 LE | value: i64 LE
//!         | 0x01 (Del)       | id: i64 LE
//!         | 0x02 (Put str)   | id: i64 LE | len: u32 LE | len bytes
//!         | 0x03 (Put bytes) | id: i64 LE | len: u32 LE | len bytes
//! ```
//!
//! Every segment file begins with [`SEGMENT_MAGIC`]. There is one
//! generation: a segment that does not start with the magic — a file torn
//! inside it, or bytes in some other format — holds no records, and the
//! committed prefix ends where that segment begins, exactly as it does at a
//! corrupt first record.
//!
//! `crc` is the CRC-32 of the payload. The length prefix frames the record;
//! the checksum distinguishes a *torn* tail (the process died mid-write, the
//! bytes simply stop) from a *corrupt* one (the bytes are there but wrong) —
//! recovery treats both as the end of the committed prefix and truncates.

use stm_core::{CommitOp, CommitValue};

use crate::crc::crc32;

/// Upper bound on a record payload — a framing sanity check so a corrupted
/// length prefix cannot make recovery try to allocate gigabytes.
pub const MAX_PAYLOAD_BYTES: u32 = 64 << 20;

/// First bytes of every segment file. Recovery reads no records from a
/// segment that does not start with it.
pub const SEGMENT_MAGIC: &[u8; 8] = b"STMWAL2\n";

/// The payload version byte.
const PAYLOAD_VERSION: u8 = 0x02;

const TAG_PUT_INT: u8 = 0x00;
const TAG_DEL: u8 = 0x01;
const TAG_PUT_STR: u8 = 0x02;
const TAG_PUT_BYTES: u8 = 0x03;

/// One decoded log record: the commit sequence number and the write-set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The hook-assigned commit sequence number.
    pub seq: u64,
    /// The published write-set, in publish order.
    pub ops: Vec<CommitOp>,
}

/// Outcome of decoding one record from the head of a byte slice.
#[derive(Debug, PartialEq, Eq)]
pub enum Decoded {
    /// A valid record followed by the number of bytes it occupied.
    Ok(Record, usize),
    /// The buffer ends mid-record (a torn tail write).
    Torn,
    /// The bytes are malformed: checksum mismatch, impossible length, or an
    /// unknown op tag.
    Corrupt,
}

/// Appends the encoded record for `(seq, ops)` to `out` and returns the
/// number of bytes appended.
pub fn encode_into(out: &mut Vec<u8>, seq: u64, ops: &[CommitOp]) -> usize {
    let start = out.len();
    // Reserve the header, then come back and patch it.
    out.extend_from_slice(&[0u8; 8]);
    let payload_start = out.len();
    out.push(PAYLOAD_VERSION);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        match op {
            CommitOp::Put { id, value } => match value {
                CommitValue::Int(v) => {
                    out.push(TAG_PUT_INT);
                    out.extend_from_slice(&id.to_le_bytes());
                    out.extend_from_slice(&v.to_le_bytes());
                }
                CommitValue::Str(s) => {
                    out.push(TAG_PUT_STR);
                    out.extend_from_slice(&id.to_le_bytes());
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
                CommitValue::Bytes(b) => {
                    out.push(TAG_PUT_BYTES);
                    out.extend_from_slice(&id.to_le_bytes());
                    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                    out.extend_from_slice(b);
                }
            },
            CommitOp::Del { id } => {
                out.push(TAG_DEL);
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
    }
    patch_header(out, start, payload_start);
    out.len() - start
}

fn patch_header(out: &mut [u8], start: usize, payload_start: usize) {
    let payload_len = (out.len() - payload_start) as u32;
    let crc = crc32(&out[payload_start..]);
    out[start..start + 4].copy_from_slice(&payload_len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Encodes one record as a standalone byte vector.
pub fn encode(seq: u64, ops: &[CommitOp]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(&mut out, seq, ops);
    out
}

fn read_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().expect("checked length"))
}

fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("checked length"))
}

fn read_i64(bytes: &[u8]) -> i64 {
    i64::from_le_bytes(bytes[..8].try_into().expect("checked length"))
}

/// Decodes the record at the head of `bytes`.
pub fn decode(bytes: &[u8]) -> Decoded {
    if bytes.len() < 8 {
        return Decoded::Torn;
    }
    let payload_len = read_u32(bytes) as usize;
    // Even an empty write-set needs version (1) + seq (8) + count (4)
    // bytes, so a shorter claim is not a torn write; it is garbage.
    if payload_len > MAX_PAYLOAD_BYTES as usize || payload_len < 13 {
        return Decoded::Corrupt;
    }
    let expected_crc = read_u32(&bytes[4..]);
    let Some(payload) = bytes.get(8..8 + payload_len) else {
        return Decoded::Torn;
    };
    if crc32(payload) != expected_crc {
        return Decoded::Corrupt;
    }
    if payload[0] != PAYLOAD_VERSION {
        return Decoded::Corrupt;
    }
    let body = &payload[1..];
    let seq = read_u64(body);
    let count = read_u32(&body[8..]) as usize;
    let mut ops = Vec::with_capacity(count.min(1024));
    let mut at = 12usize;
    for _ in 0..count {
        let Some(&tag) = body.get(at) else {
            return Decoded::Corrupt;
        };
        at += 1;
        match tag {
            TAG_PUT_INT => {
                if body.len() < at + 16 {
                    return Decoded::Corrupt;
                }
                ops.push(CommitOp::put(read_i64(&body[at..]), read_i64(&body[at + 8..])));
                at += 16;
            }
            TAG_DEL => {
                if body.len() < at + 8 {
                    return Decoded::Corrupt;
                }
                ops.push(CommitOp::del(read_i64(&body[at..])));
                at += 8;
            }
            TAG_PUT_STR | TAG_PUT_BYTES => {
                if body.len() < at + 12 {
                    return Decoded::Corrupt;
                }
                let id = read_i64(&body[at..]);
                let len = read_u32(&body[at + 8..]) as usize;
                at += 12;
                let Some(raw) = body.get(at..at + len) else {
                    return Decoded::Corrupt;
                };
                at += len;
                let value = if tag == TAG_PUT_STR {
                    match std::str::from_utf8(raw) {
                        Ok(s) => CommitValue::Str(s.to_string()),
                        Err(_) => return Decoded::Corrupt,
                    }
                } else {
                    CommitValue::Bytes(raw.to_vec())
                };
                ops.push(CommitOp::Put { id, value });
            }
            _ => return Decoded::Corrupt,
        }
    }
    if at != body.len() {
        return Decoded::Corrupt;
    }
    Decoded::Ok(Record { seq, ops }, 8 + payload_len)
}

/// Decodes every record in `bytes`, returning the committed prefix and the
/// byte offset where it ends (the truncation point when the tail is torn or
/// corrupt). The last element is `true` when decoding consumed the whole
/// buffer cleanly.
pub fn decode_all(bytes: &[u8]) -> (Vec<Record>, usize, bool) {
    let mut records = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        match decode(&bytes[at..]) {
            Decoded::Ok(record, used) => {
                records.push(record);
                at += used;
            }
            Decoded::Torn | Decoded::Corrupt => return (records, at, false),
        }
    }
    (records, at, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<CommitOp> {
        vec![
            CommitOp::put(3, 42),
            CommitOp::del(-9),
            CommitOp::put(i64::MAX, i64::MIN),
            CommitOp::put(7, "a line\nwith NUL \0 and UTF-8 — ✓"),
            CommitOp::put(8, vec![0u8, 255, 10, 13, 0]),
        ]
    }

    #[test]
    fn round_trip_including_empty_write_set() {
        for ops in [sample_ops(), Vec::new()] {
            let bytes = encode(77, &ops);
            match decode(&bytes) {
                Decoded::Ok(record, used) => {
                    assert_eq!(used, bytes.len());
                    assert_eq!(record.seq, 77);
                    assert_eq!(record.ops, ops);
                }
                other => panic!("expected Ok, got {other:?}"),
            }
        }
    }

    #[test]
    fn concatenated_records_decode_in_order() {
        let mut bytes = Vec::new();
        for seq in 1..=5u64 {
            encode_into(&mut bytes, seq, &[CommitOp::put(seq as i64, 1)]);
        }
        let (records, end, clean) = decode_all(&bytes);
        assert!(clean);
        assert_eq!(end, bytes.len());
        assert_eq!(records.len(), 5);
        assert_eq!(records.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn every_truncation_point_is_torn_not_corrupt_or_ok() {
        let bytes = encode(9, &sample_ops());
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut]) {
                Decoded::Torn => {}
                other => panic!("cut at {cut}: expected Torn, got {other:?}"),
            }
        }
    }

    #[test]
    fn payload_corruption_is_detected() {
        let bytes = encode(11, &sample_ops());
        for i in 8..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert_eq!(
                decode(&bad),
                Decoded::Corrupt,
                "flip at byte {i} undetected"
            );
        }
    }

    #[test]
    fn absurd_length_prefix_is_corrupt_not_an_allocation() {
        let mut bytes = encode(1, &sample_ops());
        bytes[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&bytes), Decoded::Corrupt);
        bytes[0..4].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            decode(&bytes),
            Decoded::Corrupt,
            "shorter-than-header claim"
        );
    }

    #[test]
    fn decode_all_returns_the_committed_prefix_on_a_torn_tail() {
        let mut bytes = Vec::new();
        for seq in 1..=4u64 {
            encode_into(&mut bytes, seq, &[CommitOp::del(seq as i64)]);
        }
        let keep = bytes.len();
        encode_into(&mut bytes, 5, &sample_ops());
        let torn = &bytes[..bytes.len() - 3];
        let (records, end, clean) = decode_all(torn);
        assert!(!clean);
        assert_eq!(end, keep, "truncation point is the end of record 4");
        assert_eq!(records.len(), 4);
    }

    #[test]
    fn invalid_utf8_in_a_str_op_is_corrupt() {
        // Hand-build a record claiming a Str op with non-UTF-8 bytes.
        let mut payload = vec![PAYLOAD_VERSION];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.push(TAG_PUT_STR);
        payload.extend_from_slice(&7i64.to_le_bytes());
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&[0xFF, 0xFE]);
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert_eq!(decode(&bytes), Decoded::Corrupt);
    }
}
