//! Byte-level encodings for the on-disk partition format.
//!
//! Partitions are written compressed — the paper's reorganization cost
//! explicitly includes "compressing and writing partitions" — in a form
//! chosen for what the pooled scan does with it: integers as
//! **frame-of-reference bit-packed frames** of [`FRAME_ROWS`] rows (the scan
//! kernel's chunk size), run-length encoding or bit-packing (whichever is
//! smaller) for dictionary codes, raw little-endian words for floats. One
//! bit packer and one unpacker serve the integer frames, the dictionary
//! codes and the row-id blocks; one word-at-a-time [`checksum`] guards
//! every stored byte range (column payloads, footer, row-id block, WAL record).
//!
//! Every block decoder takes the row count its caller already knows (from
//! the checksummed footer or row-id block header) and refuses a block whose own
//! count differs *before* allocating, so no stored length sizes a buffer.
//!
//! An integer block need not be decoded to be read: [`IntFrames`] walks its
//! frame headers with every check [`decode_i64_block`] makes and leaves the
//! values packed. A pooled scan evaluates its predicates on those frames
//! ([`crate::kernel::ColumnInput::Packed`]) — a frame's `base` and `width`
//! bound its values, so a header alone often decides a whole chunk, and
//! only the frames it cannot decide are unpacked, one at a time.

use bytes::{Buf, BufMut};

/// Encoding-layer errors surfaced as format corruption.
#[derive(Debug, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

type Result<T> = std::result::Result<T, DecodeError>;

fn need(buf: &impl Buf, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        return Err(DecodeError(format!(
            "truncated input: need {n} more bytes for {what}"
        )));
    }
    Ok(())
}

/// Read a block's leading `count varint` and require it to equal the row
/// count the caller expects — before anything is sized by it.
fn expect_count(buf: &mut &[u8], nrows: usize, what: &str) -> Result<()> {
    let count = get_varint(buf)?;
    if count != nrows as u64 {
        return Err(DecodeError(format!(
            "{what} block holds {count} values, expected {nrows}"
        )));
    }
    Ok(())
}

/// An empty vector with room for exactly `n` values; an `n` no allocator
/// can serve is a decode error, not a panic.
fn alloc<T>(n: usize) -> Result<Vec<T>> {
    let mut out = Vec::new();
    out.try_reserve_exact(n)
        .map_err(|_| DecodeError(format!("cannot allocate {n} values")))?;
    Ok(out)
}

// ---------------------------------------------------------------- varint --

/// LEB128-encode a `u64`.
pub fn put_varint(buf: &mut impl BufMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Decode a LEB128 `u64`.
pub fn get_varint(buf: &mut impl Buf) -> Result<u64> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        need(buf, 1, "varint")?;
        let byte = buf.get_u8();
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(DecodeError("varint longer than 10 bytes".into()))
}

// ---------------------------------------------------------------- zigzag --

/// Map a signed integer to an unsigned one with small absolute values small.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ----------------------------------------------------------- bit packing --

/// Values packed or unpacked per step: 64 `width`-bit fields fill exactly
/// `width` 64-bit words, so every group starts word-aligned.
const GROUP: usize = 64;

/// Bits needed to represent `max` (0 for 0).
fn bits_needed(max: u64) -> u32 {
    64 - max.leading_zeros()
}

/// Bytes that `n` fields of `width` bits occupy, rounded up to a byte.
fn packed_len(n: usize, width: u32) -> Result<usize> {
    n.checked_mul(width as usize)
        .map(|bits| bits.div_ceil(8))
        .ok_or_else(|| DecodeError(format!("{n} fields of {width} bits overflow")))
}

/// Append `values` — each, passed through `map`, below `2^width`, with
/// `width <= 64` — to `buf` as an LSB-first little-endian bitstream of
/// `width`-bit fields, zero-padded to a whole byte. Width 0 writes nothing.
fn pack_bits<T: Copy>(buf: &mut impl BufMut, width: u32, values: &[T], map: impl Fn(T) -> u64) {
    assert!(width <= 64, "pack width {width}");
    let w = width as usize;
    if w == 0 {
        return;
    }
    // 64 fields fill at most 64 words; the spare one takes the final store
    // of a group that ends on a word boundary.
    let mut bytes = [0u8; 8 * (GROUP + 1)];
    for group in values.chunks(GROUP) {
        // The word being filled lives in `acc` and is stored once, when a
        // field completes it; that field's high bits start the next word.
        let (mut acc, mut s) = (0u64, 0usize);
        let mut words = bytes.chunks_exact_mut(8);
        let mut store = |word: u64| {
            let slot = words.next().expect("a group fills at most 65 words");
            slot.copy_from_slice(&word.to_le_bytes());
        };
        for &v in group {
            let v = map(v);
            acc |= v << s;
            if s + w >= 64 {
                store(acc);
                acc = (v >> 1) >> (63 - s);
            }
            s = (s + w) & 63;
        }
        store(acc);
        buf.put_slice(&bytes[..(group.len() * w).div_ceil(8)]);
    }
}

/// Append `n` fields of `width <= 64` bits, read from the LSB-first
/// bitstream `src` (exactly `packed_len(n, width)` bytes, checked by the
/// caller) and passed through `map`, to `out`, which the caller has
/// pre-sized. The loop is straight-line: no test of the input length and no
/// capacity check per value.
fn unpack_bits<T: Copy>(
    src: &[u8],
    width: u32,
    n: usize,
    out: &mut Vec<T>,
    map: impl Fn(u64) -> T,
) {
    assert!(width <= 64, "unpack width {width}");
    let w = width as usize;
    if w == 0 {
        out.extend(std::iter::repeat_n(map(0), n));
        return;
    }
    let mask = u64::MAX >> (64 - width);
    // Each group is staged as `width` whole words plus one spare, so a
    // field's spill-over load needs no branch and the last, short group
    // needs no path of its own. What lies past a group's own bytes never
    // matters — only bits below `width` survive the mask.
    let mut staged = [0u8; 8 * (GROUP + 1)];
    let mut words = [0u64; GROUP + 1];
    for (group, first) in src.chunks(8 * w).zip((0..n).step_by(GROUP)) {
        staged[..group.len()].copy_from_slice(group);
        let fields = 0..GROUP.min(n - first);
        if w <= 57 {
            // A field starts at most 7 bits into its first byte, so one
            // 8-byte load from that byte holds all of it: one load and
            // one shift a field. The index mask only proves the load in
            // bounds — the field's byte is below 8·57 = 456 anyway.
            out.extend(fields.map(|j| {
                let (byte, s) = (((j * w) >> 3) & 511, (j * w) & 7);
                let bytes = staged[byte..byte + 8].try_into().expect("8 bytes");
                map((u64::from_le_bytes(bytes) >> s) & mask)
            }));
            continue;
        }
        for (word, bytes) in words.iter_mut().zip(staged[..8 * w].chunks_exact(8)) {
            *word = u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
        }
        out.extend(fields.map(|j| {
            let (i, s) = (((j * w) >> 6) & 63, (j * w) & 63);
            map(((words[i] >> s) | ((words[i + 1] << 1) << (63 - s))) & mask)
        }));
    }
}

// ------------------------------------------------------------ i64 blocks --

/// Rows per integer frame — the scan kernel's chunk size, so a frame's
/// `base`/`width` bound exactly the values one kernel chunk sees.
pub const FRAME_ROWS: usize = crate::kernel::CHUNK_ROWS;

/// Frame header: `width u8 | base i64 LE`.
const FRAME_HEADER: usize = 1 + 8;

/// Frame-of-reference encoding for an `i64` column block.
/// Layout: `count varint`, then one frame per [`FRAME_ROWS`] rows (the last
/// may be shorter): `width u8 | base i64 LE | ⌈n·width/8⌉ bytes` holding
/// `v − base` for each of the frame's `n` values as an LSB-first bitstream,
/// with `base` the frame's minimum and `width = bits(max − min)` ∈ 0..=64.
/// No delta mode: every value is addressable inside its frame.
pub fn encode_i64_block(buf: &mut impl BufMut, values: &[i64]) {
    put_varint(buf, values.len() as u64);
    for frame in values.chunks(FRAME_ROWS) {
        let (min, max) = frame
            .iter()
            .fold((i64::MAX, i64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        // Two's complement: the wrapping difference is the true span.
        let width = bits_needed((max as u64).wrapping_sub(min as u64));
        buf.put_u8(width as u8);
        buf.put_i64_le(min);
        pack_bits(buf, width, frame, |v| (v as u64).wrapping_sub(min as u64));
    }
}

/// Decode a block produced by [`encode_i64_block`] that must hold exactly
/// `nrows` values, advancing `buf` past it.
pub fn decode_i64_block(buf: &mut &[u8], nrows: usize) -> Result<Vec<i64>> {
    expect_count(buf, nrows, "i64")?;
    let mut out = alloc(nrows)?;
    for_each_frame(buf, nrows, |header, packed, n| {
        unpack_bits(packed, header.width, n, &mut out, |v| {
            header.base.wrapping_add(v as i64)
        });
    })?;
    Ok(out)
}

/// Walk the frames of an `i64` block whose count (`nrows`) the caller has
/// already checked, advancing `buf` past them. Each frame's header is
/// checked (`width <= 64`) and its packed bytes bounded before
/// `frame(header, packed, n)` sees them, `n` being the frame's row count.
fn for_each_frame<'b>(
    buf: &mut &'b [u8],
    nrows: usize,
    mut frame: impl FnMut(FrameHeader, &'b [u8], usize),
) -> Result<()> {
    let mut done = 0;
    while done < nrows {
        let n = (nrows - done).min(FRAME_ROWS);
        need(buf, FRAME_HEADER, "frame header")?;
        let width = u32::from(buf.get_u8());
        let base = buf.get_i64_le();
        if width > 64 {
            return Err(DecodeError(format!("invalid frame width {width}")));
        }
        let len = packed_len(n, width)?;
        need(buf, len, "frame values")?;
        let (packed, rest) = buf.split_at(len);
        frame(FrameHeader { base, width }, packed, n);
        *buf = rest;
        done += n;
    }
    Ok(())
}

/// One frame's header: its values are `base + offset`, each offset a
/// `width`-bit field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FrameHeader {
    /// The frame's minimum.
    pub(crate) base: i64,
    /// Bits per offset, `0..=64`.
    pub(crate) width: u32,
}

impl FrameHeader {
    /// The largest offset `width` bits hold, `2^width − 1`: every value
    /// of the frame lies in `base ..= base + max_offset()` (as `i128`).
    pub(crate) fn max_offset(self) -> u64 {
        u64::MAX.checked_shr(64 - self.width).unwrap_or(0)
    }
}

/// An [`encode_i64_block`] payload with its frame headers walked and
/// checked — exactly the checks of [`decode_i64_block`], which succeeds on
/// the same bytes — and its values left packed. Frame `f` holds rows
/// `f·FRAME_ROWS ..` of the column, so it is the scan kernel's chunk `f`.
#[derive(Debug)]
pub struct IntFrames {
    /// The payload bytes, as fetched.
    bytes: Vec<u8>,
    /// Each frame's header and where its packed offsets start in `bytes`.
    frames: Vec<(FrameHeader, usize)>,
    /// Values in the block.
    rows: usize,
}

impl IntFrames {
    /// Walk the frames of `bytes`, a block that must hold exactly `nrows`
    /// values (bytes past the block are ignored, as the decoder ignores
    /// them).
    pub fn new(bytes: Vec<u8>, nrows: usize) -> Result<IntFrames> {
        let mut buf = &bytes[..];
        expect_count(&mut buf, nrows, "i64")?;
        let mut frames = alloc(nrows.div_ceil(FRAME_ROWS))?;
        let mut at = bytes.len() - buf.len();
        for_each_frame(&mut buf, nrows, |header, packed, _| {
            frames.push((header, at + FRAME_HEADER));
            at += FRAME_HEADER + packed.len();
        })?;
        Ok(IntFrames {
            bytes,
            frames,
            rows: nrows,
        })
    }

    /// Values in the block.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the block holds no value.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Frame `f`'s header.
    pub(crate) fn header(&self, f: usize) -> FrameHeader {
        self.frames[f].0
    }

    /// Replace the contents of `out` with frame `f`'s offsets from its
    /// `base`, one per row.
    pub(crate) fn unpack(&self, f: usize, out: &mut Vec<u64>) {
        let (header, start) = self.frames[f];
        let n = (self.rows - f * FRAME_ROWS).min(FRAME_ROWS);
        let len = packed_len(n, header.width).expect("bounded by the walk");
        out.clear();
        unpack_bits(&self.bytes[start..start + len], header.width, n, out, |v| v);
    }
}

// ------------------------------------------------------------ f64 blocks --

/// Raw little-endian encoding for an `f64` column block.
pub fn encode_f64_block(buf: &mut impl BufMut, values: &[f64]) {
    put_varint(buf, values.len() as u64);
    for &v in values {
        buf.put_f64_le(v);
    }
}

/// Decode a block produced by [`encode_f64_block`] that must hold exactly
/// `nrows` values, advancing `buf` past it.
pub fn decode_f64_block(buf: &mut &[u8], nrows: usize) -> Result<Vec<f64>> {
    expect_count(buf, nrows, "f64")?;
    let len = packed_len(nrows, 64)?;
    need(buf, len, "f64 block")?;
    let (words, rest) = buf.split_at(len);
    *buf = rest;
    Ok(words
        .chunks_exact(8)
        .map(|w| f64::from_le_bytes(w.try_into().expect("8-byte chunk")))
        .collect())
}

// ------------------------------------------------------------ u32 blocks --

const CODES_RLE: u8 = 0;
const CODES_PACKED: u8 = 1;

/// Encode dictionary codes (and row-id blocks), choosing between RLE
/// (clustered data after a good layout!) and bit-packing, whichever is
/// smaller. Layout: `count varint`, `tag u8`, then either `run varint |
/// value varint` pairs or `width u8 | ⌈count·width/8⌉ packed bytes`.
pub fn encode_u32_block(buf: &mut impl BufMut, values: &[u32]) {
    put_varint(buf, values.len() as u64);
    let width = bits_needed(u64::from(values.iter().copied().max().unwrap_or(0)));
    let packed = 1 + packed_len(values.len(), width).expect("in-memory block");
    match rle_encode(values, packed) {
        Some(rle) => {
            buf.put_u8(CODES_RLE);
            buf.put_slice(&rle);
        }
        None => {
            buf.put_u8(CODES_PACKED);
            buf.put_u8(width as u8);
            pack_bits(buf, width, values, u64::from);
        }
    }
}

/// Decode a block produced by [`encode_u32_block`] that must hold exactly
/// `nrows` values, advancing `buf` past it.
pub fn decode_u32_block(buf: &mut &[u8], nrows: usize) -> Result<Vec<u32>> {
    expect_count(buf, nrows, "u32")?;
    need(buf, 1, "codes tag")?;
    match buf.get_u8() {
        CODES_RLE => rle_decode(buf, nrows),
        CODES_PACKED => {
            need(buf, 1, "pack width")?;
            let width = u32::from(buf.get_u8());
            if width > 32 {
                return Err(DecodeError(format!("invalid pack width {width}")));
            }
            let len = packed_len(nrows, width)?;
            need(buf, len, "packed codes")?;
            let mut out = alloc(nrows)?;
            let (packed, rest) = buf.split_at(len);
            unpack_bits(packed, width, nrows, &mut out, |v| v as u32);
            *buf = rest;
            Ok(out)
        }
        tag => Err(DecodeError(format!("unknown codes encoding tag {tag}"))),
    }
}

/// Run-length encode `values`, giving up (`None`) as soon as the output
/// outgrows `budget` bytes — the size bit-packing would take.
fn rle_encode(values: &[u32], budget: usize) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < values.len() {
        let v = values[i];
        let mut run = 1usize;
        while i + run < values.len() && values[i + run] == v {
            run += 1;
        }
        put_varint(&mut out, run as u64);
        put_varint(&mut out, u64::from(v));
        if out.len() > budget {
            return None;
        }
        i += run;
    }
    Some(out)
}

fn rle_decode(buf: &mut &[u8], nrows: usize) -> Result<Vec<u32>> {
    let mut out = alloc(nrows)?;
    while out.len() < nrows {
        let run = get_varint(buf)?;
        if run == 0 || run > (nrows - out.len()) as u64 {
            return Err(DecodeError("RLE run overflows block".into()));
        }
        let v = get_varint(buf)?;
        let v = u32::try_from(v).map_err(|_| DecodeError("RLE value exceeds u32".into()))?;
        out.extend(std::iter::repeat_n(v, run as usize));
    }
    Ok(out)
}

// --------------------------------------------------------------- strings --

/// Length-prefixed UTF-8 string list (dictionary payloads).
pub fn encode_str_list(buf: &mut impl BufMut, values: &[String]) {
    put_varint(buf, values.len() as u64);
    for v in values {
        put_varint(buf, v.len() as u64);
        buf.put_slice(v.as_bytes());
    }
}

/// Decode a list produced by [`encode_str_list`].
pub fn decode_str_list(buf: &mut impl Buf) -> Result<Vec<String>> {
    let count = get_varint(buf)? as usize;
    // Each string costs at least its length byte: the input bounds the list.
    let mut out = Vec::with_capacity(count.min(buf.remaining()));
    for _ in 0..count {
        let len = get_varint(buf)? as usize;
        need(buf, len, "string bytes")?;
        let mut bytes = vec![0u8; len];
        buf.copy_to_slice(&mut bytes);
        let s = String::from_utf8(bytes)
            .map_err(|_| DecodeError("invalid UTF-8 in dictionary".into()))?;
        out.push(s);
    }
    Ok(out)
}

// -------------------------------------------------------------- checksum --

/// The integrity checksum of every stored byte range: column payloads, the
/// partition footer, the row-id blocks and WAL records.
///
/// A word-at-a-time multiplicative sum: eight bytes per xor-multiply, tail
/// bytes singly, the length folded in last. Each step `h ← (h ⊕ w)·M` with
/// `M` odd is a bijection of the state `h` and injective in the word `w`,
/// so two inputs of one length that differ only inside a single word — in
/// particular by any single byte — always get different sums, the
/// guarantee byte-serial FNV-1a gave per byte at an eighth of the steps.
pub fn checksum(bytes: &[u8]) -> u64 {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    const M: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(M);
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    let h = words.fold(SEED, |h, w| {
        step(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
    });
    let h = tail.iter().fold(h, |h, &b| step(h, u64::from(b)));
    step(h, bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn i64_block(values: &[i64]) -> Vec<u8> {
        let mut b = Vec::new();
        encode_i64_block(&mut b, values);
        b
    }

    fn u32_block(values: &[u32]) -> Vec<u8> {
        let mut b = Vec::new();
        encode_u32_block(&mut b, values);
        b
    }

    #[test]
    fn varint_round_trip_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            let mut b = BytesMut::new();
            put_varint(&mut b, v);
            let mut r = b.freeze();
            assert_eq!(get_varint(&mut r).unwrap(), v);
        }
    }

    #[test]
    fn varint_truncated_fails() {
        let mut b = BytesMut::new();
        put_varint(&mut b, u64::MAX);
        let frozen = b.freeze();
        let mut r = frozen.slice(0..frozen.len() - 1);
        assert!(get_varint(&mut r).is_err());
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 42, -42, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // small magnitudes stay small
        assert!(zigzag(-2) < 8);
    }

    #[test]
    fn i64_block_round_trip() {
        let values: Vec<i64> = vec![5, 5, 6, 100, -3, i64::MAX, i64::MIN, 0];
        let b = i64_block(&values);
        let mut r = &b[..];
        assert_eq!(decode_i64_block(&mut r, values.len()).unwrap(), values);
        assert!(r.is_empty(), "the block is consumed exactly");
    }

    /// What a good layout produces — values clustered in a band of 2ᵏ — costs
    /// k bits a value plus the frame header; a monotone run, which the
    /// replaced delta coder wrote at a byte a value, now costs the bits of
    /// its span inside each frame.
    #[test]
    fn sorted_i64_block_is_compact() {
        for k in [1u32, 7, 12, 20, 34] {
            for n in [1000usize, 1024, 3000] {
                let values: Vec<i64> = (0..n as i64)
                    .map(|i| 1_000_000 + i.wrapping_mul(0x9e37_79b9) % (1 << k))
                    .collect();
                let frames = n.div_ceil(FRAME_ROWS);
                let bound = n * k as usize / 8 + 10 * frames;
                let len = i64_block(&values).len() - 2; // the count varint
                assert!(len <= bound, "k={k} n={n}: {len} > {bound}");
            }
        }
        // 0..1000 spans 999 → 10 bits: 2 (count) + 9 (header) + 1250.
        let monotone: Vec<i64> = (0..1000).collect();
        assert_eq!(i64_block(&monotone).len(), 1261);
        // A constant frame is its header alone.
        assert_eq!(i64_block(&[42; 1000]).len(), 2 + 9);
    }

    /// Frame `f`'s values through [`IntFrames::unpack`].
    fn frame_values(frames: &IntFrames, f: usize) -> Vec<i64> {
        let mut offsets = Vec::new();
        frames.unpack(f, &mut offsets);
        let base = frames.header(f).base;
        offsets
            .iter()
            .map(|&o| base.wrapping_add(o as i64))
            .collect()
    }

    #[test]
    fn frames_hold_what_the_decoder_decodes() {
        let n = 2 * FRAME_ROWS + 5;
        let mut values: Vec<i64> = vec![7; FRAME_ROWS]; // a constant frame
        values.extend((0..FRAME_ROWS as i64).map(|i| i64::MIN + i * i)); // a wide one
        values.extend([i64::MIN, i64::MAX, 0, -1, 1]); // width 64
        let block = i64_block(&values);
        let frames = IntFrames::new(block.clone(), n).unwrap();
        assert_eq!(frames.len(), n);
        let widths: Vec<u32> = (0..3).map(|f| frames.header(f).width).collect();
        assert_eq!(widths[0], 0);
        assert_eq!(widths[2], 64);
        assert_eq!(frames.header(2).max_offset(), u64::MAX);
        assert_eq!(frames.header(0).max_offset(), 0);
        let unpacked: Vec<i64> = (0..3).flat_map(|f| frame_values(&frames, f)).collect();
        assert_eq!(unpacked, decode_i64_block(&mut &block[..], n).unwrap());
        assert!(IntFrames::new(block.clone(), n + 1).is_err());
        assert!(IntFrames::new(block[..block.len() - 1].to_vec(), n).is_err());
        assert!(IntFrames::new(i64_block(&[]), 0).unwrap().is_empty());
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// A block of up to three frames, then damaged: bytes overwritten,
        /// cut short, or replaced outright by arbitrary bytes.
        fn damaged_block() -> impl Strategy<Value = (Vec<u8>, usize)> {
            (
                proptest::collection::vec(any::<i64>(), 0..3 * FRAME_ROWS + 1),
                0usize..4,
                proptest::collection::vec((any::<usize>(), any::<u8>()), 0..4),
                any::<usize>(),
                proptest::collection::vec(any::<u8>(), 0..64),
                -1i64..=1,
            )
                .prop_map(|(values, how, writes, cut, noise, skew)| {
                    let mut block = Vec::new();
                    // narrow values half the time, so widths vary
                    let narrow = values.first().is_some_and(|v| v % 2 == 0);
                    let values: Vec<i64> = if narrow {
                        values.iter().map(|v| v % 1000).collect()
                    } else {
                        values
                    };
                    encode_i64_block(&mut block, &values);
                    let nrows = (values.len() as i64 + skew).max(0) as usize;
                    match how {
                        0 => {}
                        1 => {
                            for (at, byte) in writes {
                                let at = at % block.len();
                                block[at] = byte;
                            }
                        }
                        2 => block.truncate(cut % (block.len() + 1)),
                        _ => block = noise,
                    }
                    (block, nrows)
                })
        }

        proptest! {
            /// The header walk never panics on any bytes, succeeds exactly
            /// when the decoder does, and then its frames unpack to the
            /// decoder's values.
            #[test]
            fn frame_walk_accepts_exactly_what_the_decoder_accepts(
                damaged in damaged_block(),
            ) {
                let (block, nrows) = damaged;
                let decoded = decode_i64_block(&mut &block[..], nrows);
                let walked = IntFrames::new(block.clone(), nrows);
                prop_assert_eq!(walked.is_ok(), decoded.is_ok());
                if let (Ok(frames), Ok(values)) = (walked, decoded) {
                    let unpacked: Vec<i64> = (0..nrows.div_ceil(FRAME_ROWS))
                        .flat_map(|f| frame_values(&frames, f))
                        .collect();
                    prop_assert_eq!(unpacked, values);
                }
            }
        }
    }

    #[test]
    fn f64_block_round_trip() {
        let values = vec![0.0, -1.5, f64::INFINITY, f64::NAN];
        let mut b = Vec::new();
        encode_f64_block(&mut b, &values);
        let out = decode_f64_block(&mut &b[..], 4).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(out[1], -1.5);
        assert!(out[3].is_nan());
    }

    #[test]
    fn u32_block_rle_wins_on_runs() {
        let values = vec![7u32; 10_000];
        let b = u32_block(&values);
        assert!(b.len() < 32, "runs should RLE, got {}", b.len());
        assert_eq!(decode_u32_block(&mut &b[..], 10_000).unwrap(), values);
    }

    #[test]
    fn u32_block_packing_wins_on_noise() {
        let values: Vec<u32> = (0..1000u32).map(|i| i % 7).collect();
        let b = u32_block(&values);
        // 3 bits per value ≈ 375 bytes; RLE would be ~2000
        assert!(b.len() < 500, "got {}", b.len());
        assert_eq!(decode_u32_block(&mut &b[..], 1000).unwrap(), values);
    }

    #[test]
    fn u32_block_empty() {
        let b = u32_block(&[]);
        assert_eq!(decode_u32_block(&mut &b[..], 0).unwrap(), Vec::<u32>::new());
    }

    /// The count a block carries never sizes anything: twelve bytes claiming
    /// 2⁶² codes used to panic with `capacity overflow`, and 2⁴⁰ in one run
    /// used to write 4 TB.
    #[test]
    fn block_count_must_match_before_anything_is_allocated() {
        for claimed in [1u64 << 62, 1 << 40] {
            let mut rle = Vec::new();
            put_varint(&mut rle, claimed);
            rle.put_u8(CODES_RLE);
            put_varint(&mut rle, claimed); // one run of everything
            put_varint(&mut rle, 7);
            assert!(decode_u32_block(&mut &rle[..], 1000).is_err());
            // even a caller that believes the count gets an error, not a panic
            if claimed == 1 << 62 {
                assert!(decode_u32_block(&mut &rle[..], claimed as usize).is_err());
                assert!(decode_i64_block(&mut &rle[..], claimed as usize).is_err());
                assert!(decode_f64_block(&mut &rle[..], claimed as usize).is_err());
            }
            let mut ints = Vec::new();
            put_varint(&mut ints, claimed);
            ints.extend_from_slice(&[0; 9]); // a width-0 frame
            assert!(decode_i64_block(&mut &ints[..], 1000).is_err());
            assert!(decode_f64_block(&mut &ints[..], 1000).is_err());
        }
        // one short and one over are refused as well
        let b = i64_block(&[1, 2, 3]);
        assert!(decode_i64_block(&mut &b[..], 2).is_err());
        assert!(decode_i64_block(&mut &b[..], 4).is_err());
    }

    /// Cutting an encoded block at *every* byte is an error, never a panic
    /// and never a short column.
    #[test]
    fn truncation_at_every_byte_is_an_error() {
        let n = 2 * FRAME_ROWS + 77;
        let ints: Vec<i64> = (0..n as i64).map(|i| i * i - 40_000).collect();
        let block = i64_block(&ints);
        for cut in 0..block.len() {
            assert!(decode_i64_block(&mut &block[..cut], n).is_err(), "{cut}");
        }
        let mut floats = Vec::new();
        encode_f64_block(&mut floats, &[1.5; 70]);
        for cut in 0..floats.len() {
            assert!(decode_f64_block(&mut &floats[..cut], 70).is_err(), "{cut}");
        }
        let runs: Vec<u32> = (0..300).map(|i| i / 100).collect();
        let noise: Vec<u32> = (0..300).map(|i| i * 7919 % 1000).collect();
        for (what, codes) in [("rle", runs), ("packed", noise)] {
            let block = u32_block(&codes);
            let tag = if what == "rle" {
                CODES_RLE
            } else {
                CODES_PACKED
            };
            assert_eq!(block[2], tag, "the {what} coder is the one exercised");
            for cut in 0..block.len() {
                assert!(
                    decode_u32_block(&mut &block[..cut], 300).is_err(),
                    "{what} {cut}"
                );
            }
        }
    }

    #[test]
    fn invalid_widths_are_errors() {
        let mut frame = Vec::new();
        put_varint(&mut frame, 1);
        frame.put_u8(65);
        frame.extend_from_slice(&[0; 17]);
        assert!(decode_i64_block(&mut &frame[..], 1).is_err());
        let mut codes = Vec::new();
        put_varint(&mut codes, 1);
        codes.put_u8(CODES_PACKED);
        codes.put_u8(33);
        codes.extend_from_slice(&[0; 8]);
        assert!(decode_u32_block(&mut &codes[..], 1).is_err());
    }

    #[test]
    fn str_list_round_trip() {
        let values: Vec<String> = ["", "a", "hello world", "日本語"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut b = BytesMut::new();
        encode_str_list(&mut b, &values);
        let mut r = b.freeze();
        assert_eq!(decode_str_list(&mut r).unwrap(), values);
    }

    #[test]
    fn str_list_rejects_invalid_utf8() {
        let mut b = BytesMut::new();
        put_varint(&mut b, 1); // one string
        put_varint(&mut b, 2); // of two bytes
        b.put_slice(&[0xff, 0xfe]);
        let mut r = b.freeze();
        assert!(decode_str_list(&mut r).is_err());
    }

    /// Known answers: the sum is part of the on-disk format, so these
    /// values may change only together with `format::VERSION`.
    #[test]
    fn checksum_known_answer() {
        assert_eq!(checksum(b""), 0xf8bb_92c9_e384_ce09);
        assert_eq!(checksum(b"a"), 0x827a_91cf_7d58_9c39); // tail bytes only
        assert_eq!(checksum(b"OREOPART"), 0xb96b_0499_2052_b042); // one word
        assert_eq!(checksum(b"frame-of-reference"), 0xa560_cfc9_53cc_31e2); // both
    }

    /// The guarantee the word-wise sum keeps from byte-wise FNV-1a: every
    /// single-byte substitution changes it, at every position of the word
    /// body and of the byte tail; and so does every appended zero byte.
    #[test]
    fn checksum_catches_every_single_byte_error() {
        let data: Vec<u8> = (0..43u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in [1, 7, 8, 9, 16, 43] {
            let clean = checksum(&data[..len]);
            for pos in 0..len {
                let mut bad = data[..len].to_vec();
                for byte in 0..=255u8 {
                    if byte != data[pos] {
                        bad[pos] = byte;
                        assert_ne!(checksum(&bad), clean, "len {len} pos {pos} → {byte}");
                    }
                }
            }
        }
        let mut grown = Vec::new();
        for _ in 0..40 {
            let before = checksum(&grown);
            grown.push(0);
            assert_ne!(checksum(&grown), before, "zero #{}", grown.len());
        }
        let mut padded = data.clone();
        for _ in 0..17 {
            let before = checksum(&padded);
            padded.push(0);
            assert_ne!(checksum(&padded), before);
        }
    }
}
