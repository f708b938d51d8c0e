//! On-disk partition format: one partition's *blob*, as a
//! [`crate::TieredStore`] segment holds it.
//!
//! ```text
//! +--------------------------------------------------------------+
//! | magic "OREOPART" (8B) | version u16 LE | ncols u16 LE        |
//! | nrows u64 LE                                                 |
//! | column 0: tag u8 | payload_len u64 LE | payload bytes        |
//! | column 1: ...                                                |
//! | footer:  ncols u16 LE | nrows u64 LE                         |
//! |   per column: tag u8 | offset u64 | len u64 | sum u64        |
//! |   pruning metadata (see [`crate::partition::encode_metadata`])|
//! | footer sum u64 | footer offset u64 | "OREOFTR2" (8B)         |
//! +--------------------------------------------------------------+
//!
//! int / timestamp payload (version 3): count varint, then per 1024 rows
//! +--------------------------------------------------------------+
//! | width u8 (0..=64) | base i64 LE | ⌈n·width/8⌉ bytes:         |
//! |   (v − base) for each of the frame's n values, LSB-first     |
//! +--------------------------------------------------------------+
//! ```
//!
//! Column payloads use the encodings from [`crate::encode`]: int/timestamp
//! → frame-of-reference bit-packed frames of [`FRAME_ROWS`] rows, each value
//! addressable inside its frame and bounded by the frame's `base`/`width`;
//! float → raw LE; string → dictionary (string list) + RLE-or-bitpacked
//! codes.
//!
//! Both `sum`s are [`checksum`], the word-at-a-time sum that also guards the
//! row-id blocks and WAL records. The footer sum covers the footer body
//! and is verified by every reader; a column's sum covers its payload bytes
//! and is verified whenever they come off disk ([`ColumnExtent::decode`],
//! or [`ColumnExtent::verify`] alone for a column the scan will not look
//! into) — a pooled read served entirely from cached pages skips it
//! ([`ColumnExtent::decode_trusted`]). Header and in-stream prefixes carry
//! no sum: they are cross-checked against the footer.
//!
//! The blob ends in a self-describing **footer**: per-column payload
//! extents with their own checksums — the *page index* pooled scans use to
//! fetch only the byte ranges a predicate touches — plus the partition's
//! pruning metadata, so recovery takes data, metadata and page index from
//! one pass over the blob.
//!
//! [`decode_partition`] locates the tail, verifies the footer checksum,
//! cross-checks header and in-stream prefixes against the footer, then
//! decodes every column payload. A blob that fails any step — one that
//! does not end in the footer magic included — is [`StorageError::Corrupt`].
//! There is one format: the version field is always 3, and a blob of any
//! earlier version is corrupt like any other damaged blob.

use crate::column::{Column, DictColumn};
use crate::encode::*;
use crate::error::{Result, StorageError};
use crate::partition::{decode_metadata, encode_metadata, table_metadata, PartitionMetadata};
use crate::table::Table;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use oreo_query::Schema;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"OREOPART";
const VERSION: u16 = 3;
const FOOTER_MAGIC: &[u8; 8] = b"OREOFTR2";
/// Fixed-size header: magic + version + ncols + nrows.
const HEADER_LEN: usize = 8 + 2 + 2 + 8;
/// Fixed-size tail: footer checksum + footer offset + footer magic.
const TAIL_LEN: usize = 8 + 8 + 8;
/// Per-column in-stream prefix: tag byte + payload length.
const COL_PREFIX: u64 = 1 + 8;

const TAG_INT: u8 = 0;
const TAG_FLOAT: u8 = 1;
const TAG_STR: u8 = 2;

/// Count of whole-partition decodes performed by this process. Diagnostic
/// only: the restart-path test asserts recovery decodes each partition
/// exactly once.
static DECODES: AtomicU64 = AtomicU64::new(0);

#[cfg(test)]
thread_local! {
    /// The calling thread's share of [`DECODES`]. Tests that count "this
    /// call's decodes" read it instead of the process-wide count, which
    /// sibling tests move from their own threads.
    static THREAD_DECODES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn count_decode() {
    DECODES.fetch_add(1, Ordering::Relaxed);
    #[cfg(test)]
    THREAD_DECODES.with(|c| c.set(c.get() + 1));
}

/// Partition decodes performed by the calling thread.
#[cfg(test)]
pub(crate) fn decodes_on_this_thread() -> u64 {
    THREAD_DECODES.with(std::cell::Cell::get)
}

/// Total whole-partition decodes since process start.
pub fn partition_decodes() -> u64 {
    DECODES.load(Ordering::Relaxed)
}

/// Location of one column's encoded payload inside a partition blob: the
/// page-index entry a pooled scan uses to fetch only the byte ranges (and
/// hence pages) its predicate touches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColumnExtent {
    /// Column encoding tag.
    pub tag: u8,
    /// Byte offset of the payload in the blob.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// [`checksum`] of the payload bytes.
    pub checksum: u64,
}

impl ColumnExtent {
    /// The fetched payload must be exactly the bytes the extent describes.
    fn check_len(&self, payload: &[u8], col: usize) -> Result<()> {
        if payload.len() as u64 != self.len {
            return Err(StorageError::Corrupt(format!(
                "column {col}: fetched {} payload bytes, extent says {}",
                payload.len(),
                self.len
            )));
        }
        Ok(())
    }

    /// Check payload bytes fetched from `offset..offset + len` of the file
    /// against the extent's length and checksum without decoding them —
    /// what a scan owes a payload that came off disk when the partition's
    /// metadata already decides the column and no value will be looked at.
    /// `col` only labels errors.
    pub fn verify(&self, payload: &[u8], col: usize) -> Result<()> {
        self.check_len(payload, col)?;
        if checksum(payload) != self.checksum {
            return Err(StorageError::Corrupt(format!(
                "column {col}: payload checksum mismatch"
            )));
        }
        Ok(())
    }

    /// Decode this column from its payload bytes (as fetched from
    /// `offset..offset + len` of the file): [`ColumnExtent::verify`], then
    /// the decode against the expected row count. `col` only labels errors.
    pub fn decode(&self, payload: &[u8], nrows: usize, col: usize) -> Result<Column> {
        self.verify(payload, col)?;
        decode_column_payload(self.tag, &mut &payload[..], nrows, col)
    }

    /// [`ColumnExtent::decode`] without the checksum pass, for payloads
    /// whose bytes already crossed the disk→memory trust boundary under a
    /// checksum — e.g. a pooled read served entirely from cached pages.
    /// Length and row-count validation still run.
    pub fn decode_trusted(&self, payload: &[u8], nrows: usize, col: usize) -> Result<Column> {
        self.check_len(payload, col)?;
        decode_column_payload(self.tag, &mut &payload[..], nrows, col)
    }

    /// Whether the payload is an integer column's frames.
    pub(crate) fn is_int(&self) -> bool {
        self.tag == TAG_INT
    }

    /// [`ColumnExtent::decode_trusted`] of an integer payload
    /// ([`ColumnExtent::is_int`]), leaving its values packed: the length
    /// check, then the frame-header walk ([`IntFrames::new`]), which accepts
    /// exactly the bytes the decoder accepts.
    pub(crate) fn frames_trusted(
        &self,
        payload: Vec<u8>,
        nrows: usize,
        col: usize,
    ) -> Result<IntFrames> {
        debug_assert!(self.is_int(), "column {col} is not an integer payload");
        self.check_len(&payload, col)?;
        Ok(IntFrames::new(payload, nrows)?)
    }
}

/// The self-describing tail of a partition blob: row count, per-column
/// payload extents (the page index), and the pruning metadata built at
/// write time.
#[derive(Clone, Debug)]
pub struct PartitionFooter {
    /// Rows in the partition.
    pub nrows: u64,
    /// Per-column payload extents, indexed by column id.
    pub columns: Vec<ColumnExtent>,
    /// The partition's pruning metadata (ranges + distinct sets).
    pub meta: PartitionMetadata,
}

/// Serialize a table (one partition's rows) with explicit pruning metadata
/// (the footer copy), returning the encoded bytes and the footer that was
/// embedded — the writer's page index, so callers need not re-read it.
pub fn encode_partition_with_meta(
    table: &Table,
    meta: &PartitionMetadata,
) -> (Bytes, PartitionFooter) {
    let mut buf = BytesMut::with_capacity(table.memory_bytes() / 2 + 256);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u16_le(table.num_columns() as u16);
    buf.put_u64_le(table.num_rows() as u64);
    let mut extents = Vec::with_capacity(table.num_columns());
    for column in table.columns() {
        let mut payload = BytesMut::new();
        let tag = match column {
            Column::Int(values) => {
                encode_i64_block(&mut payload, values);
                TAG_INT
            }
            Column::Float(values) => {
                encode_f64_block(&mut payload, values);
                TAG_FLOAT
            }
            Column::Str(dict) => {
                encode_str_list(&mut payload, dict.dict());
                encode_u32_block(&mut payload, dict.codes());
                TAG_STR
            }
        };
        buf.put_u8(tag);
        buf.put_u64_le(payload.len() as u64);
        extents.push(ColumnExtent {
            tag,
            offset: buf.len() as u64,
            len: payload.len() as u64,
            checksum: checksum(&payload),
        });
        buf.put_slice(&payload);
    }
    let footer_off = buf.len() as u64;
    let mut footer = BytesMut::new();
    footer.put_u16_le(table.num_columns() as u16);
    footer.put_u64_le(table.num_rows() as u64);
    for e in &extents {
        footer.put_u8(e.tag);
        footer.put_u64_le(e.offset);
        footer.put_u64_le(e.len);
        footer.put_u64_le(e.checksum);
    }
    encode_metadata(&mut footer, meta);
    let footer_sum = checksum(&footer);
    buf.put_slice(&footer);
    buf.put_u64_le(footer_sum);
    buf.put_u64_le(footer_off);
    buf.put_slice(FOOTER_MAGIC);
    (
        buf.freeze(),
        PartitionFooter {
            nrows: table.num_rows() as u64,
            columns: extents,
            meta: meta.clone(),
        },
    )
}

/// Serialize a table (one partition's rows) into the on-disk byte format,
/// building the footer's pruning metadata from the rows themselves.
pub fn encode_partition(table: &Table) -> Bytes {
    encode_partition_with_meta(table, &table_metadata(table)).0
}

/// Decode the shared per-column payload encoding into a column of exactly
/// `nrows` rows. Advances `buf` past the payload it consumes; `col` only
/// labels errors.
fn decode_column_payload(tag: u8, buf: &mut &[u8], nrows: usize, col: usize) -> Result<Column> {
    match tag {
        TAG_INT => Ok(Column::Int(decode_i64_block(buf, nrows)?)),
        TAG_FLOAT => Ok(Column::Float(decode_f64_block(buf, nrows)?)),
        TAG_STR => {
            let dict = decode_str_list(buf)?;
            let codes = decode_u32_block(buf, nrows)?;
            if codes.iter().any(|&c| c as usize >= dict.len()) {
                return Err(StorageError::Corrupt(format!(
                    "dictionary code out of range in column {col}"
                )));
            }
            Ok(Column::Str(DictColumn::from_parts(dict, codes)))
        }
        other => Err(StorageError::Corrupt(format!("unknown column tag {other}"))),
    }
}

/// Parse and checksum-verify a footer body (`bytes[footer_off..tail]`).
/// `footer_off` bounds the payload extents: every extent must lie between
/// the header and the footer.
fn parse_footer_body(body: &[u8], footer_off: u64) -> Result<PartitionFooter> {
    let mut buf = body;
    if buf.remaining() < 2 + 8 {
        return Err(StorageError::Corrupt("footer shorter than counts".into()));
    }
    let ncols = buf.get_u16_le() as usize;
    let nrows = buf.get_u64_le();
    let mut columns = Vec::with_capacity(ncols);
    for col in 0..ncols {
        if buf.remaining() < 1 + 8 + 8 + 8 {
            return Err(StorageError::Corrupt(format!(
                "footer truncated at column {col}"
            )));
        }
        let extent = ColumnExtent {
            tag: buf.get_u8(),
            offset: buf.get_u64_le(),
            len: buf.get_u64_le(),
            checksum: buf.get_u64_le(),
        };
        let end = extent
            .offset
            .checked_add(extent.len)
            .ok_or_else(|| StorageError::Corrupt("extent overflows".into()))?;
        if extent.offset < HEADER_LEN as u64 + COL_PREFIX || end > footer_off {
            return Err(StorageError::Corrupt(format!(
                "column {col} extent {}..{end} outside data region",
                extent.offset
            )));
        }
        columns.push(extent);
    }
    let meta = decode_metadata(&mut buf)?;
    if buf.has_remaining() {
        return Err(StorageError::Corrupt("trailing bytes after footer".into()));
    }
    if meta.columns.len() != ncols {
        return Err(StorageError::Corrupt(format!(
            "footer metadata covers {} columns, directory has {ncols}",
            meta.columns.len()
        )));
    }
    Ok(PartitionFooter {
        nrows,
        columns,
        meta,
    })
}

/// Validate a blob's header and in-stream column prefixes against its
/// parsed footer: header fields must agree with the footer's, extents must
/// tile the data region exactly, and every in-stream `tag | len` prefix
/// must match its extent — so any byte of the blob is covered by a
/// checksum or a cross-check and single-byte corruption never passes.
fn check_layout(
    schema: &Schema,
    bytes: &[u8],
    footer: &PartitionFooter,
    footer_off: u64,
) -> Result<()> {
    let mut buf = &bytes[..HEADER_LEN];
    let mut magic = [0u8; 8];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(StorageError::Corrupt("bad magic".into()));
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(StorageError::Corrupt(format!(
            "unsupported version {version}"
        )));
    }
    let ncols = buf.get_u16_le() as usize;
    let nrows = buf.get_u64_le();
    if ncols != schema.len() {
        return Err(StorageError::Corrupt(format!(
            "file has {ncols} columns, schema expects {}",
            schema.len()
        )));
    }
    if ncols != footer.columns.len() || nrows != footer.nrows {
        return Err(StorageError::Corrupt("header disagrees with footer".into()));
    }
    let mut cursor = HEADER_LEN as u64;
    for (col, extent) in footer.columns.iter().enumerate() {
        if extent.offset != cursor + COL_PREFIX {
            return Err(StorageError::Corrupt(format!(
                "column {col} payload at {}, expected {}",
                extent.offset,
                cursor + COL_PREFIX
            )));
        }
        let prefix = &bytes[cursor as usize..extent.offset as usize];
        let tag = prefix[0];
        let len = u64::from_le_bytes(prefix[1..9].try_into().expect("8 bytes"));
        if tag != extent.tag || len != extent.len {
            return Err(StorageError::Corrupt(format!(
                "column {col} in-stream prefix disagrees with footer"
            )));
        }
        cursor = extent.offset + extent.len;
    }
    if cursor != footer_off {
        return Err(StorageError::Corrupt(
            "data region does not end at footer".into(),
        ));
    }
    Ok(())
}

/// [`decode_partition`] that also hands back the parsed footer — pruning
/// metadata and page index — so recovery takes everything it needs from a
/// blob in one pass over its bytes: locate the tail, verify the footer
/// checksum, [`check_layout`], then decode every column payload. Each
/// range is sliced only after it has been checked to lie inside `bytes`.
pub(crate) fn decode_partition_with_footer(
    schema: &Arc<Schema>,
    bytes: &[u8],
) -> Result<(Table, PartitionFooter)> {
    count_decode();
    if bytes.len() < HEADER_LEN + TAIL_LEN {
        return Err(StorageError::Corrupt(
            "file shorter than header and footer tail".into(),
        ));
    }
    let body_end = bytes.len() - TAIL_LEN;
    let tail = &bytes[body_end..];
    if &tail[16..24] != FOOTER_MAGIC {
        return Err(StorageError::Corrupt("missing footer magic".into()));
    }
    let stored_sum = u64::from_le_bytes(tail[0..8].try_into().expect("8 bytes"));
    let footer_off = u64::from_le_bytes(tail[8..16].try_into().expect("8 bytes"));
    if footer_off < HEADER_LEN as u64 || footer_off > body_end as u64 {
        return Err(StorageError::Corrupt(format!(
            "footer offset {footer_off} out of range"
        )));
    }
    let body = &bytes[footer_off as usize..body_end];
    if checksum(body) != stored_sum {
        return Err(StorageError::Corrupt("footer checksum mismatch".into()));
    }
    let footer = parse_footer_body(body, footer_off)?;
    check_layout(schema, bytes, &footer, footer_off)?;
    let nrows = footer.nrows as usize;
    let columns = footer
        .columns
        .iter()
        .enumerate()
        .map(|(col, extent)| {
            let payload = &bytes[extent.offset as usize..(extent.offset + extent.len) as usize];
            extent.decode(payload, nrows, col)
        })
        .collect::<Result<_>>()?;
    Ok((Table::new(Arc::clone(schema), columns), footer))
}

/// Parse bytes produced by [`encode_partition`] back into a table. The
/// schema is supplied externally (it is store-level, not per-blob).
pub fn decode_partition(schema: &Arc<Schema>, bytes: &[u8]) -> Result<Table> {
    decode_partition_with_footer(schema, bytes).map(|(table, _)| table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::build_metadata;
    use crate::table::TableBuilder;
    use oreo_query::{ColumnType, Scalar};

    fn sample_table() -> Table {
        let s = Arc::new(Schema::from_pairs([
            ("ts", ColumnType::Timestamp),
            ("qty", ColumnType::Int),
            ("price", ColumnType::Float),
            ("region", ColumnType::Str),
        ]));
        let mut b = TableBuilder::new(Arc::clone(&s));
        for i in 0..500i64 {
            b.push_row(&[
                Scalar::Int(1_000_000 + i),
                Scalar::Int(i % 50),
                Scalar::Float((i as f64).sin()),
                Scalar::from(["eu", "na", "apac", "latam"][(i % 4) as usize]),
            ]);
        }
        b.finish()
    }

    #[test]
    fn encode_decode_round_trip() {
        let t = sample_table();
        let bytes = encode_partition(&t);
        let back = decode_partition(t.schema(), &bytes).unwrap();
        assert_eq!(back.num_rows(), t.num_rows());
        for row in [0usize, 99, 499] {
            for col in 0..t.num_columns() {
                assert_eq!(back.scalar(row, col), t.scalar(row, col), "({row},{col})");
            }
        }
    }

    #[test]
    fn footer_carries_extents_and_metadata() {
        let t = sample_table();
        let (bytes, footer) = encode_partition_with_meta(
            &t,
            &build_metadata(&t, &vec![0; t.num_rows()], 1).pop().unwrap(),
        );
        assert_eq!(footer.nrows, 500);
        assert_eq!(footer.columns.len(), 4);
        // extents point at real payloads: decoding each one yields the column
        for (col, extent) in footer.columns.iter().enumerate() {
            let payload = &bytes[extent.offset as usize..(extent.offset + extent.len) as usize];
            let column = extent.decode(payload, 500, col).unwrap();
            assert_eq!(column.len(), 500);
        }
        // the footer's metadata prunes like freshly built metadata
        assert_eq!(footer.meta.rows, 500.0);
        assert_eq!(
            footer.meta,
            build_metadata(&t, &vec![0; t.num_rows()], 1).pop().unwrap()
        );
    }

    #[test]
    fn corruption_detected_by_checksum() {
        let t = sample_table();
        let mut bytes = encode_partition(&t).to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        let err = decode_partition(t.schema(), &bytes).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
    }

    #[test]
    fn truncation_detected() {
        let t = sample_table();
        let bytes = encode_partition(&t);
        for cut in [0, 4, 16, bytes.len() / 2, bytes.len() - 1] {
            let err = decode_partition(t.schema(), &bytes[..cut]).unwrap_err();
            assert!(matches!(err, StorageError::Corrupt(_)));
        }
    }

    #[test]
    fn bad_magic_detected() {
        let t = sample_table();
        let mut bytes = encode_partition(&t).to_vec();
        bytes[0] = b'X';
        let err = decode_partition(t.schema(), &bytes).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn schema_mismatch_detected() {
        let t = sample_table();
        let bytes = encode_partition(&t);
        let other = Arc::new(Schema::from_pairs([("only", ColumnType::Int)]));
        let err = decode_partition(&other, &bytes).unwrap_err();
        assert!(err.to_string().contains("columns"), "{err}");
    }

    #[test]
    fn empty_table_round_trips() {
        let s = Arc::new(Schema::from_pairs([("v", ColumnType::Int)]));
        let t = TableBuilder::new(Arc::clone(&s)).finish();
        let bytes = encode_partition(&t);
        let back = decode_partition(&s, &bytes).unwrap();
        assert_eq!(back.num_rows(), 0);
    }

    #[test]
    fn compression_beats_raw_on_clustered_data() {
        let t = sample_table();
        let bytes = encode_partition(&t);
        // raw size: 500 rows × (8 + 8 + 8 + ~4) ≈ 14 kB
        assert!(
            bytes.len() < t.memory_bytes(),
            "encoded {} >= raw {}",
            bytes.len(),
            t.memory_bytes()
        );
    }
}
