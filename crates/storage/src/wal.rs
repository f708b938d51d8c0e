//! The ingest write-ahead log: fsync-per-batch durability for the write
//! path, replayed on recovery, truncated after folds.
//!
//! One append-only file (`wal.log` in the tiered root). Layout:
//!
//! ```text
//! "OREOWAL2"                                  ← 8-byte magic
//! [ len u32 LE | seq u64 LE | payload | checksum(seq ∥ payload) ] …
//! ```
//!
//! The sum is [`crate::encode::checksum`], the one the partition files use.
//! The magic moved with it (`OREOWAL1` summed with FNV-1a): a log of the
//! old format is [`StorageError::Corrupt`] at open, not a log whose every
//! acked record reads as a torn tail and is truncated away.
//!
//! [`Wal::append`] writes one record and fsyncs — the fsync is the ack
//! point of the engine's `ingest`. [`Wal::open`] replays every decodable
//! record and truncates a *torn tail*: a final record whose bytes or
//! checksum are incomplete (the crash-between-write-and-fsync case) is
//! removed, everything before it survives. Records the caller has already
//! folded into the base (sequence ≤ the generation manifest's `folded`
//! watermark) are skipped at replay, which makes recovery idempotent when
//! a crash lands between a fold's publish and the WAL truncation.
//!
//! [`Wal::truncate_through`] drops records ≤ a watermark by rewriting the
//! survivors to `wal.log.tmp` and renaming over the log — the same
//! write-aside-then-atomic-rename discipline the tiered generations use,
//! so a crash mid-truncation leaves either the old log (harmless: replay
//! skips folded records) or the new one.

use crate::delta::IngestOp;
use crate::encode::{checksum, get_varint, put_varint, unzigzag, zigzag};
use crate::error::{Result, StorageError};
use bytes::{Buf, BufMut, BytesMut};
use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

const WAL_MAGIC: &[u8; 8] = b"OREOWAL2";

const OP_APPEND: u8 = 0;
const OP_UPDATE: u8 = 1;
const OP_DELETE: u8 = 2;

const CELL_INT: u8 = 0;
const CELL_FLOAT: u8 = 1;
const CELL_STR: u8 = 2;

/// One replayed WAL record: an acked ingest batch.
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecord {
    /// The batch's ingest sequence.
    pub seq: u64,
    /// The batch's operations, in order.
    pub ops: Vec<IngestOp>,
}

/// What [`Wal::open`] found.
#[derive(Debug)]
pub struct WalRecovery {
    /// Every intact record, ascending by sequence.
    pub records: Vec<WalRecord>,
    /// Bytes removed from the end of the log (a torn tail from a crash
    /// between write and fsync). 0 on a clean open.
    pub torn_bytes: u64,
}

/// The append-only ingest log. Single-writer: the engine serializes all
/// access behind its ingest lock.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    bytes: u64,
}

impl Wal {
    /// Open (or create) the log at `path`, replaying every intact record
    /// and truncating a torn tail. A leftover `path.tmp` from a crashed
    /// [`Wal::truncate_through`] is removed (its rename never committed,
    /// so the original log is intact).
    pub fn open(path: &Path) -> Result<(Self, WalRecovery)> {
        let tmp = tmp_path(path);
        if tmp.exists() {
            fs::remove_file(&tmp)?;
        }
        if !path.exists() {
            let mut file = File::create(path)?;
            file.write_all(WAL_MAGIC)?;
            file.sync_all()?;
            drop(file);
            let file = OpenOptions::new().append(true).open(path)?;
            return Ok((
                Self {
                    path: path.to_owned(),
                    file,
                    bytes: WAL_MAGIC.len() as u64,
                },
                WalRecovery {
                    records: Vec::new(),
                    torn_bytes: 0,
                },
            ));
        }
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        if bytes.len() < WAL_MAGIC.len() {
            // The initial magic write itself tore: an empty log.
            let mut file = File::create(path)?;
            file.write_all(WAL_MAGIC)?;
            file.sync_all()?;
            drop(file);
            let torn = bytes.len() as u64;
            let file = OpenOptions::new().append(true).open(path)?;
            return Ok((
                Self {
                    path: path.to_owned(),
                    file,
                    bytes: WAL_MAGIC.len() as u64,
                },
                WalRecovery {
                    records: Vec::new(),
                    torn_bytes: torn,
                },
            ));
        }
        if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
            return Err(StorageError::Corrupt("bad WAL magic".into()));
        }
        let mut records = Vec::new();
        let mut offset = WAL_MAGIC.len();
        let mut last_seq = 0u64;
        loop {
            match parse_record(&bytes[offset..]) {
                ParseOutcome::Record { seq, ops, consumed } => {
                    if seq <= last_seq && last_seq != 0 {
                        return Err(StorageError::Corrupt(format!(
                            "WAL sequence went backwards: {seq} after {last_seq}"
                        )));
                    }
                    last_seq = seq;
                    records.push(WalRecord { seq, ops });
                    offset += consumed;
                }
                ParseOutcome::End => break,
                ParseOutcome::Torn => break, // truncate below
                ParseOutcome::Corrupt(msg) => return Err(StorageError::Corrupt(msg)),
            }
        }
        let torn_bytes = (bytes.len() - offset) as u64;
        if torn_bytes > 0 {
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(offset as u64)?;
            file.sync_all()?;
        }
        let file = OpenOptions::new().append(true).open(path)?;
        Ok((
            Self {
                path: path.to_owned(),
                file,
                bytes: offset as u64,
            },
            WalRecovery {
                records,
                torn_bytes,
            },
        ))
    }

    /// Append one batch and fsync — returns the record's size in bytes.
    /// When this returns, the batch is durable (the engine's ack point).
    pub fn append(&mut self, seq: u64, ops: &[IngestOp]) -> Result<u64> {
        let mut payload = BytesMut::new();
        encode_ops(&mut payload, ops);
        let mut record = BytesMut::with_capacity(payload.len() + 20);
        record.put_u32_le(payload.len() as u32);
        record.put_u64_le(seq);
        record.put_slice(&payload);
        let sum = checksum(&record[4..]); // seq ∥ payload
        record.put_u64_le(sum);
        self.file.write_all(&record)?;
        self.file.sync_all()?;
        self.bytes += record.len() as u64;
        Ok(record.len() as u64)
    }

    /// Drop every record with sequence ≤ `watermark` (they are folded into
    /// a committed base generation): survivors are rewritten aside and
    /// renamed over the log atomically.
    pub fn truncate_through(&mut self, watermark: u64) -> Result<()> {
        let mut bytes = Vec::new();
        File::open(&self.path)?.read_to_end(&mut bytes)?;
        let mut keep = BytesMut::new();
        keep.put_slice(WAL_MAGIC);
        let mut offset = WAL_MAGIC.len();
        loop {
            match parse_record(&bytes[offset..]) {
                ParseOutcome::Record { seq, consumed, .. } => {
                    if seq > watermark {
                        keep.put_slice(&bytes[offset..offset + consumed]);
                    }
                    offset += consumed;
                }
                ParseOutcome::End | ParseOutcome::Torn => break,
                ParseOutcome::Corrupt(msg) => return Err(StorageError::Corrupt(msg)),
            }
        }
        let tmp = tmp_path(&self.path);
        let mut file = File::create(&tmp)?;
        file.write_all(&keep)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, &self.path)?;
        if let Some(parent) = self.path.parent() {
            crate::tiered::sync_dir(parent)?;
        }
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.bytes = keep.len() as u64;
        Ok(())
    }

    /// Current log size in bytes (magic + intact records).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut p = path.as_os_str().to_owned();
    p.push(".tmp");
    PathBuf::from(p)
}

enum ParseOutcome {
    Record {
        seq: u64,
        ops: Vec<IngestOp>,
        consumed: usize,
    },
    /// Clean end of log.
    End,
    /// A final record whose bytes or checksum are incomplete.
    Torn,
    /// A record that passed the checksum but does not decode — real
    /// corruption, not a tear.
    Corrupt(String),
}

fn parse_record(s: &[u8]) -> ParseOutcome {
    if s.is_empty() {
        return ParseOutcome::End;
    }
    if s.len() < 4 {
        return ParseOutcome::Torn;
    }
    let len = u32::from_le_bytes(s[..4].try_into().expect("4 bytes")) as usize;
    let total = 4 + 8 + len + 8;
    if s.len() < total {
        return ParseOutcome::Torn;
    }
    let seq = u64::from_le_bytes(s[4..12].try_into().expect("8 bytes"));
    let payload = &s[12..12 + len];
    let stored = u64::from_le_bytes(s[12 + len..total].try_into().expect("8 bytes"));
    if checksum(&s[4..12 + len]) != stored {
        return ParseOutcome::Torn;
    }
    match decode_ops(payload) {
        Ok(ops) => ParseOutcome::Record {
            seq,
            ops,
            consumed: total,
        },
        Err(e) => ParseOutcome::Corrupt(format!("WAL record seq {seq}: {e}")),
    }
}

fn encode_ops(buf: &mut BytesMut, ops: &[IngestOp]) {
    put_varint(buf, ops.len() as u64);
    for op in ops {
        match op {
            IngestOp::Append { values } => {
                buf.put_u8(OP_APPEND);
                encode_cells(buf, values);
            }
            IngestOp::Update { row, values } => {
                buf.put_u8(OP_UPDATE);
                put_varint(buf, u64::from(*row));
                encode_cells(buf, values);
            }
            IngestOp::Delete { row } => {
                buf.put_u8(OP_DELETE);
                put_varint(buf, u64::from(*row));
            }
        }
    }
}

fn encode_cells(buf: &mut BytesMut, values: &[oreo_query::Scalar]) {
    put_varint(buf, values.len() as u64);
    for v in values {
        match v {
            oreo_query::Scalar::Int(x) => {
                buf.put_u8(CELL_INT);
                put_varint(buf, zigzag(*x));
            }
            oreo_query::Scalar::Float(x) => {
                buf.put_u8(CELL_FLOAT);
                buf.put_f64_le(*x);
            }
            oreo_query::Scalar::Str(x) => {
                buf.put_u8(CELL_STR);
                put_varint(buf, x.len() as u64);
                buf.put_slice(x.as_bytes());
            }
        }
    }
}

fn decode_ops(payload: &[u8]) -> Result<Vec<IngestOp>> {
    let mut buf = payload;
    let count = get_varint(&mut buf)? as usize;
    let mut ops = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        if buf.is_empty() {
            return Err(StorageError::Corrupt("truncated op tag".into()));
        }
        let tag = buf.get_u8();
        let op = match tag {
            OP_APPEND => IngestOp::Append {
                values: decode_cells(&mut buf)?,
            },
            OP_UPDATE => {
                let row = row_id(get_varint(&mut buf)?)?;
                IngestOp::Update {
                    row,
                    values: decode_cells(&mut buf)?,
                }
            }
            OP_DELETE => IngestOp::Delete {
                row: row_id(get_varint(&mut buf)?)?,
            },
            t => return Err(StorageError::Corrupt(format!("unknown op tag {t}"))),
        };
        ops.push(op);
    }
    if !buf.is_empty() {
        return Err(StorageError::Corrupt(
            "trailing bytes in WAL payload".into(),
        ));
    }
    Ok(ops)
}

fn row_id(v: u64) -> Result<u32> {
    u32::try_from(v).map_err(|_| StorageError::Corrupt(format!("row id {v} exceeds u32")))
}

fn decode_cells(buf: &mut &[u8]) -> Result<Vec<oreo_query::Scalar>> {
    let count = get_varint(buf)? as usize;
    let mut out = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        if buf.is_empty() {
            return Err(StorageError::Corrupt("truncated cell tag".into()));
        }
        let tag = buf.get_u8();
        let cell = match tag {
            CELL_INT => oreo_query::Scalar::Int(unzigzag(get_varint(buf)?)),
            CELL_FLOAT => {
                if buf.len() < 8 {
                    return Err(StorageError::Corrupt("truncated float cell".into()));
                }
                oreo_query::Scalar::Float(buf.get_f64_le())
            }
            CELL_STR => {
                let len = get_varint(buf)? as usize;
                if buf.len() < len {
                    return Err(StorageError::Corrupt("truncated string cell".into()));
                }
                let s = std::str::from_utf8(&buf[..len])
                    .map_err(|_| StorageError::Corrupt("invalid UTF-8 in WAL cell".into()))?
                    .to_owned();
                buf.advance(len);
                oreo_query::Scalar::Str(s)
            }
            t => return Err(StorageError::Corrupt(format!("unknown cell tag {t}"))),
        };
        out.push(cell);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oreo_query::Scalar;

    fn tmproot(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "oreo-wal-{tag}-{}-{}",
            std::process::id(),
            rand::random::<u32>()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ops(i: i64) -> Vec<IngestOp> {
        vec![
            IngestOp::Append {
                values: vec![
                    Scalar::Int(i),
                    Scalar::Float(i as f64 / 2.0),
                    Scalar::from(format!("tag{}", i % 3)),
                ],
            },
            IngestOp::Update {
                row: i as u32,
                values: vec![Scalar::Int(-i), Scalar::Float(0.0), Scalar::from("u")],
            },
            IngestOp::Delete { row: i as u32 + 1 },
        ]
    }

    #[test]
    fn append_and_replay_round_trip() {
        let root = tmproot("rt");
        let path = root.join("wal.log");
        let (mut wal, rec) = Wal::open(&path).unwrap();
        assert!(rec.records.is_empty());
        for seq in 1..=5u64 {
            let n = wal.append(seq, &ops(seq as i64)).unwrap();
            assert!(n > 20);
        }
        let disk = fs::metadata(&path).unwrap().len();
        assert_eq!(disk, wal.bytes());
        drop(wal);

        let (wal, rec) = Wal::open(&path).unwrap();
        assert_eq!(rec.torn_bytes, 0);
        assert_eq!(rec.records.len(), 5);
        for (i, r) in rec.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
            assert_eq!(r.ops, ops(i as i64 + 1));
        }
        drop(wal);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_log_stays_appendable() {
        let root = tmproot("torn");
        let path = root.join("wal.log");
        let (mut wal, _) = Wal::open(&path).unwrap();
        for seq in 1..=3u64 {
            wal.append(seq, &ops(seq as i64)).unwrap();
        }
        drop(wal);
        // tear the last record: chop off its final 5 bytes
        let bytes = fs::read(&path).unwrap();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(bytes.len() as u64 - 5).unwrap();
        drop(file);

        let (mut wal, rec) = Wal::open(&path).unwrap();
        assert_eq!(rec.records.len(), 2, "torn record dropped");
        assert!(rec.torn_bytes > 0);
        // the log is clean again: appending and reopening works
        wal.append(3, &ops(30)).unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&path).unwrap();
        assert_eq!(rec.records.len(), 3);
        assert_eq!(rec.records[2].ops, ops(30));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn truncate_through_drops_folded_records() {
        let root = tmproot("trunc");
        let path = root.join("wal.log");
        let (mut wal, _) = Wal::open(&path).unwrap();
        for seq in 1..=5u64 {
            wal.append(seq, &ops(seq as i64)).unwrap();
        }
        wal.truncate_through(3).unwrap();
        // appends continue on the truncated log
        wal.append(6, &ops(6)).unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&path).unwrap();
        let seqs: Vec<u64> = rec.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![4, 5, 6]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stale_tmp_from_crashed_truncation_is_removed() {
        let root = tmproot("tmp");
        let path = root.join("wal.log");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(1, &ops(1)).unwrap();
        drop(wal);
        // a truncation that crashed between tmp write and rename
        fs::write(tmp_path(&path), b"half-written").unwrap();
        let (_, rec) = Wal::open(&path).unwrap();
        assert_eq!(rec.records.len(), 1, "original log intact");
        assert!(!tmp_path(&path).exists(), "stale tmp removed");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn bad_magic_is_corruption_not_a_tear() {
        let root = tmproot("magic");
        let path = root.join("wal.log");
        fs::write(&path, b"NOTAWAL!extra").unwrap();
        assert!(Wal::open(&path).unwrap_err().to_string().contains("magic"));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn mid_log_bitflip_truncates_from_the_flip() {
        // WAL semantics treat any undecodable suffix as a tear: the intact
        // prefix survives, everything from the damaged record on is gone.
        let root = tmproot("flip");
        let path = root.join("wal.log");
        let (mut wal, _) = Wal::open(&path).unwrap();
        let mut offsets = vec![WAL_MAGIC.len() as u64];
        for seq in 1..=3u64 {
            let n = wal.append(seq, &ops(seq as i64)).unwrap();
            offsets.push(offsets.last().unwrap() + n);
        }
        drop(wal);
        let mut bytes = fs::read(&path).unwrap();
        let mid = (offsets[1] + 15) as usize; // inside record 2's payload
        bytes[mid] ^= 0x40;
        fs::write(&path, bytes).unwrap();
        let (_, rec) = Wal::open(&path).unwrap();
        assert_eq!(rec.records.len(), 1, "prefix before the flip survives");
        assert_eq!(rec.records[0].seq, 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn empty_and_torn_magic_files_reinitialize() {
        let root = tmproot("init");
        let path = root.join("wal.log");
        fs::write(&path, b"ORE").unwrap(); // torn initial magic write
        let (wal, rec) = Wal::open(&path).unwrap();
        assert!(rec.records.is_empty());
        assert_eq!(rec.torn_bytes, 3);
        assert_eq!(wal.bytes(), WAL_MAGIC.len() as u64);
        fs::remove_dir_all(&root).unwrap();
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// A log is read back from disk, so `Wal::open` sees whatever
            /// follows the magic: random bytes (mode 0), a record with a
            /// valid length and checksum around a random payload (1), or
            /// around a real payload with one byte overwritten (2). It
            /// returns an error or truncates the log to the records it
            /// parsed, never panics, and a log it opened reopens clean.
            #[test]
            fn open_survives_arbitrary_bytes(
                mode in 0u8..3,
                noise in proptest::collection::vec(any::<u8>(), 0..200),
                seq in any::<u64>(),
                at in any::<usize>(),
                byte in any::<u8>(),
            ) {
                let root = tmproot("fuzz");
                let path = root.join("wal.log");
                let mut bytes = WAL_MAGIC.to_vec();
                let payload = match mode {
                    0 => None,
                    1 => Some(noise.clone()),
                    _ => {
                        let mut buf = BytesMut::new();
                        encode_ops(&mut buf, &ops(seq as i64));
                        let mut payload = buf.to_vec();
                        let len = payload.len();
                        payload[at % len] = byte;
                        Some(payload)
                    }
                };
                match payload {
                    None => bytes.extend_from_slice(&noise),
                    Some(payload) => {
                        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                        let start = bytes.len();
                        bytes.extend_from_slice(&seq.to_le_bytes());
                        bytes.extend_from_slice(&payload);
                        let sum = checksum(&bytes[start..]);
                        bytes.extend_from_slice(&sum.to_le_bytes());
                    }
                }
                fs::write(&path, &bytes).unwrap();
                if let Ok((wal, rec)) = Wal::open(&path) {
                    let kept = fs::metadata(&path).unwrap().len();
                    prop_assert_eq!(kept, wal.bytes());
                    prop_assert_eq!(kept + rec.torn_bytes, bytes.len() as u64);
                    drop(wal);
                    let (_, again) = Wal::open(&path).unwrap();
                    prop_assert_eq!(again.torn_bytes, 0);
                    prop_assert_eq!(again.records, rec.records);
                }
                fs::remove_dir_all(&root).unwrap();
            }
        }
    }
}
