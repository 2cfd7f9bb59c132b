//! Log/snapshot record model and the length+CRC32 frame codec.
//!
//! # On-disk framing
//!
//! Both the append-only log and the snapshot file are a sequence of frames:
//!
//! ```text
//! ┌────────────┬─────────────┬───────────────┐
//! │ len: u32LE │ crc32: u32LE │ payload[len]  │
//! └────────────┴─────────────┴───────────────┘
//! ```
//!
//! `crc32` is CRC-32/IEEE over the payload bytes only.  A frame whose header
//! is incomplete, whose payload extends past the end of the file, whose CRC
//! does not match, or whose payload does not decode is a **torn tail**: it and
//! everything after it are discarded by recovery.  Because every byte of a
//! record is covered by its frame's CRC, a partial write can never smuggle a
//! half-record into the replayed state.
//!
//! # Payload encoding
//!
//! One tag byte followed by little-endian fixed-width fields; strings are a
//! `u32` length plus UTF-8 bytes.  The codec is pinned by an exhaustive
//! round-trip property test (`tests/prefix_recovery.rs`).

/// Maximum frame payload the decoder will accept (defence against a corrupt
/// length field making recovery allocate gigabytes).
pub(crate) const MAX_PAYLOAD: u32 = 1 << 24;

/// Bytes of framing overhead per record (length + CRC).
pub(crate) const FRAME_HEADER: usize = 8;

/// One durable record.  `BeliefDelta`, `ResultFound` and `StageCommit` are
/// log records; `SnapshotHeader` and `BeliefTotal` appear only in snapshots;
/// `Generation` appears only as the first frame of a freshly compacted log;
/// `ClassName` appears in both files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// First frame of a snapshot: the compaction generation that produced it
    /// and the last committed stage it covers.
    SnapshotHeader {
        /// Monotonic compaction counter.
        generation: u64,
        /// Highest stage folded into this snapshot, if any stage committed.
        last_stage: Option<u64>,
    },
    /// First frame of the log after a compaction: ties the log to the
    /// snapshot generation it extends.  Replay ignores records until it sees
    /// the marker matching the live snapshot, which makes a crash between
    /// snapshot-rename and log-truncate safe (the stale log prefix carries
    /// the old generation and is skipped, never double-applied).
    Generation {
        /// The snapshot generation this log extends.
        generation: u64,
    },
    /// Interns a detector-class name to a dense id used by the other records.
    ClassName {
        /// Dense id, assigned in first-seen order.
        class: u32,
        /// The detector class name (e.g. `"car"`).
        name: String,
    },
    /// One observed frame's belief update for a `(class, chunk)` cell.
    BeliefDelta {
        /// Interned class id.
        class: u32,
        /// Chunk index within the dataset's chunking.
        chunk: u32,
        /// Signed change to the chunk's `N1` statistic.
        n1_delta: i64,
        /// Number of samples charged (1 per observed frame).
        samples_delta: u64,
        /// Stage the observation belongs to.
        stage: u64,
    },
    /// Absolute `(class, chunk)` totals, as stored in a snapshot.
    BeliefTotal {
        /// Interned class id.
        class: u32,
        /// Chunk index.
        chunk: u32,
        /// Absolute `N1`.
        n1: i64,
        /// Absolute sample count `n`.
        samples: u64,
    },
    /// A distinct ground-truth instance found for a class.
    ResultFound {
        /// Interned class id.
        class: u32,
        /// Frame the instance was first found on.
        frame: u64,
        /// Ground-truth instance id.
        instance: u64,
        /// Stage the find belongs to.
        stage: u64,
    },
    /// Commit marker: every record of `stage` written before this frame is
    /// durable.  Recovery folds records into state only up to the last
    /// `StageCommit`; a valid-but-uncommitted suffix is truncated with the
    /// torn tail.
    StageCommit {
        /// The committed stage.
        stage: u64,
    },
}

const TAG_SNAPSHOT_HEADER: u8 = 1;
const TAG_GENERATION: u8 = 2;
const TAG_CLASS_NAME: u8 = 3;
const TAG_BELIEF_DELTA: u8 = 4;
const TAG_BELIEF_TOTAL: u8 = 5;
const TAG_RESULT_FOUND: u8 = 6;
const TAG_STAGE_COMMIT: u8 = 7;

/// CRC-32/IEEE lookup table, built at compile time (no external crate: the
/// container is offline).
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32/IEEE of `bytes` (the polynomial `zip`/`png`/`gzip` use).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn i64(&mut self) -> Option<i64> {
        self.take(8)
            .map(|s| i64::from_le_bytes(s.try_into().unwrap()))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

impl Record {
    /// Encode the payload (no framing) into `out`.
    pub(crate) fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Record::SnapshotHeader {
                generation,
                last_stage,
            } => {
                out.push(TAG_SNAPSHOT_HEADER);
                put_u64(out, *generation);
                match last_stage {
                    Some(stage) => {
                        out.push(1);
                        put_u64(out, *stage);
                    }
                    None => out.push(0),
                }
            }
            Record::Generation { generation } => {
                out.push(TAG_GENERATION);
                put_u64(out, *generation);
            }
            Record::ClassName { class, name } => {
                out.push(TAG_CLASS_NAME);
                put_u32(out, *class);
                put_u32(out, name.len() as u32);
                out.extend_from_slice(name.as_bytes());
            }
            Record::BeliefDelta {
                class,
                chunk,
                n1_delta,
                samples_delta,
                stage,
            } => {
                out.push(TAG_BELIEF_DELTA);
                put_u32(out, *class);
                put_u32(out, *chunk);
                put_i64(out, *n1_delta);
                put_u64(out, *samples_delta);
                put_u64(out, *stage);
            }
            Record::BeliefTotal {
                class,
                chunk,
                n1,
                samples,
            } => {
                out.push(TAG_BELIEF_TOTAL);
                put_u32(out, *class);
                put_u32(out, *chunk);
                put_i64(out, *n1);
                put_u64(out, *samples);
            }
            Record::ResultFound {
                class,
                frame,
                instance,
                stage,
            } => {
                out.push(TAG_RESULT_FOUND);
                put_u32(out, *class);
                put_u64(out, *frame);
                put_u64(out, *instance);
                put_u64(out, *stage);
            }
            Record::StageCommit { stage } => {
                out.push(TAG_STAGE_COMMIT);
                put_u64(out, *stage);
            }
        }
    }

    /// Decode one payload.  `None` means the payload is malformed — the
    /// framing layer treats that the same as a CRC mismatch.
    pub(crate) fn decode_payload(payload: &[u8]) -> Option<Record> {
        let mut c = Cursor {
            buf: payload,
            pos: 0,
        };
        let record = match c.u8()? {
            TAG_SNAPSHOT_HEADER => {
                let generation = c.u64()?;
                let last_stage = match c.u8()? {
                    0 => None,
                    1 => Some(c.u64()?),
                    _ => return None,
                };
                Record::SnapshotHeader {
                    generation,
                    last_stage,
                }
            }
            TAG_GENERATION => Record::Generation {
                generation: c.u64()?,
            },
            TAG_CLASS_NAME => {
                let class = c.u32()?;
                let len = c.u32()? as usize;
                let name = String::from_utf8(c.take(len)?.to_vec()).ok()?;
                Record::ClassName { class, name }
            }
            TAG_BELIEF_DELTA => Record::BeliefDelta {
                class: c.u32()?,
                chunk: c.u32()?,
                n1_delta: c.i64()?,
                samples_delta: c.u64()?,
                stage: c.u64()?,
            },
            TAG_BELIEF_TOTAL => Record::BeliefTotal {
                class: c.u32()?,
                chunk: c.u32()?,
                n1: c.i64()?,
                samples: c.u64()?,
            },
            TAG_RESULT_FOUND => Record::ResultFound {
                class: c.u32()?,
                frame: c.u64()?,
                instance: c.u64()?,
                stage: c.u64()?,
            },
            TAG_STAGE_COMMIT => Record::StageCommit { stage: c.u64()? },
            _ => return None,
        };
        c.done().then_some(record)
    }

    /// Append the full frame (header + payload) for this record to `out`.
    pub(crate) fn encode_frame(&self, out: &mut Vec<u8>) {
        let mut payload = Vec::with_capacity(40);
        self.encode_payload(&mut payload);
        put_u32(out, payload.len() as u32);
        put_u32(out, crc32(&payload));
        out.extend_from_slice(&payload);
    }
}

/// Encode a batch of records as consecutive frames.
pub fn encode_frames(records: &[Record]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len() * 48);
    for record in records {
        record.encode_frame(&mut out);
    }
    out
}

/// What [`next_frame`] found at an offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameScan {
    /// A valid frame; `next` is the offset just past it.
    Complete {
        /// The decoded record.
        record: Record,
        /// Offset of the next frame.
        next: usize,
    },
    /// The bytes from this offset on are not a valid frame (incomplete
    /// header, truncated payload, CRC mismatch, oversized length or
    /// undecodable payload).  Recovery truncates here.
    Torn,
    /// Clean end of input.
    End,
}

/// Scan one frame starting at `pos`.
pub fn next_frame(buf: &[u8], pos: usize) -> FrameScan {
    if pos == buf.len() {
        return FrameScan::End;
    }
    let Some(header) = buf.get(pos..pos + FRAME_HEADER) else {
        return FrameScan::Torn;
    };
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
    let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return FrameScan::Torn;
    }
    let start = pos + FRAME_HEADER;
    let Some(payload) = buf.get(start..start + len as usize) else {
        return FrameScan::Torn;
    };
    if crc32(payload) != crc {
        return FrameScan::Torn;
    }
    match Record::decode_payload(payload) {
        Some(record) => FrameScan::Complete {
            record,
            next: start + len as usize,
        },
        None => FrameScan::Torn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Record> {
        vec![
            Record::SnapshotHeader {
                generation: 3,
                last_stage: Some(41),
            },
            Record::SnapshotHeader {
                generation: 0,
                last_stage: None,
            },
            Record::Generation { generation: 7 },
            Record::ClassName {
                class: 0,
                name: "person".to_string(),
            },
            Record::BeliefDelta {
                class: 0,
                chunk: 12,
                n1_delta: -2,
                samples_delta: 1,
                stage: 9,
            },
            Record::BeliefTotal {
                class: 1,
                chunk: 3,
                n1: 17,
                samples: 40,
            },
            Record::ResultFound {
                class: 0,
                frame: 88_123,
                instance: 5,
                stage: 9,
            },
            Record::StageCommit { stage: 9 },
        ]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical CRC-32/IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_record_kind_round_trips_through_a_frame() {
        for record in samples() {
            let mut buf = Vec::new();
            record.encode_frame(&mut buf);
            match next_frame(&buf, 0) {
                FrameScan::Complete { record: out, next } => {
                    assert_eq!(out, record);
                    assert_eq!(next, buf.len());
                }
                other => panic!("expected a complete frame, got {other:?}"),
            }
        }
    }

    #[test]
    fn batches_scan_back_in_order() {
        let records = samples();
        let buf = encode_frames(&records);
        let mut pos = 0;
        let mut seen = Vec::new();
        loop {
            match next_frame(&buf, pos) {
                FrameScan::Complete { record, next } => {
                    seen.push(record);
                    pos = next;
                }
                FrameScan::End => break,
                FrameScan::Torn => panic!("valid batch scanned as torn at {pos}"),
            }
        }
        assert_eq!(seen, records);
    }

    #[test]
    fn flipped_bit_and_truncation_read_as_torn() {
        let buf = encode_frames(&samples());
        // Any strict prefix that cuts a frame is torn, never a panic.
        for cut in 1..buf.len() {
            match next_frame(&buf[..cut], 0) {
                FrameScan::Complete { .. } | FrameScan::Torn => {}
                FrameScan::End => panic!("non-empty prefix scanned as clean end"),
            }
        }
        // A flipped payload bit fails the CRC.
        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        let mut pos = 0;
        let mut torn = false;
        loop {
            match next_frame(&bad, pos) {
                FrameScan::Complete { next, .. } => pos = next,
                FrameScan::Torn => {
                    torn = true;
                    break;
                }
                FrameScan::End => break,
            }
        }
        assert!(torn, "bit flip went unnoticed");
    }

    #[test]
    fn oversized_length_field_is_torn_not_an_allocation() {
        let mut buf = Vec::new();
        put_u32(&mut buf, MAX_PAYLOAD + 1);
        put_u32(&mut buf, 0);
        assert_eq!(next_frame(&buf, 0), FrameScan::Torn);
    }
}
