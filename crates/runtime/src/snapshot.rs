//! Versioned, checksummed operator-state snapshots.
//!
//! Hand-rolled binary codec in the style of `server/wire.rs` (hermetic by
//! constraint: no serde). A sealed snapshot is
//!
//! ```text
//! +------+---------+---------+-------------------+
//! | GSSN | ver: u8 | payload | checksum64: u64 BE|
//! +------+---------+---------+-------------------+
//! ```
//!
//! where the checksum ([`checksum64`]) covers everything before it
//! (magic, version, payload). [`open`] verifies the envelope *before* any
//! payload field is decoded, so a torn write, a truncated file, or a
//! flipped bit is reported as a [`SnapError`] — never a panic, never
//! silently-wrong operator state. All reads are bounds-checked; declared
//! lengths are validated against the remaining buffer before any
//! allocation, so a hostile 4 GiB count is rejected without reserving a
//! byte.
//!
//! Version 1 sealed with a byte-at-a-time FNV-1a; version 2 changed only
//! the checksum. A v1 envelope is refused with [`SnapError::Version`]
//! before its checksum is looked at — there is no migration, because a
//! snapshot never outlives the daemon incarnation (or state directory)
//! that wrote it by more than one recovery, and a refused cut degrades to
//! a fresh start with a note.

use crate::batch::ColumnBatch;
use crate::tuple::Tuple;
use crate::value::Value;
use bytes::Bytes;
use std::fmt;

/// Snapshot envelope magic.
pub const MAGIC: [u8; 4] = *b"GSSN";
/// Current snapshot format version.
pub const VERSION: u8 = 2;

// Value tags (same assignments as the wire protocol, redeclared here so
// the snapshot format is self-contained and versioned independently).
const TAG_BOOL: u8 = 0;
const TAG_UINT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_IP: u8 = 3;
const TAG_STR: u8 = 4;

/// Everything that can go wrong opening or decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The envelope does not start with [`MAGIC`].
    BadMagic,
    /// The envelope's version byte is not one this build understands.
    Version(u8),
    /// The buffer ends before a declared field does.
    Truncated,
    /// The trailing checksum does not match the content (torn or
    /// corrupted snapshot).
    BadChecksum,
    /// Structurally invalid content (unknown tag, bad UTF-8, an
    /// impossible count...).
    Protocol(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapError::Version(v) => write!(f, "unsupported snapshot version {v}"),
            SnapError::Truncated => write!(f, "truncated snapshot"),
            SnapError::BadChecksum => write!(f, "snapshot checksum mismatch"),
            SnapError::Protocol(m) => write!(f, "malformed snapshot: {m}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// `Protocol` constructor shorthand.
pub fn proto(msg: impl Into<String>) -> SnapError {
    SnapError::Protocol(msg.into())
}

/// The envelope checksum: four independent 64-bit lanes, each absorbing
/// every fourth little-endian word of the input, folded with the length
/// into one word at the end.
///
/// A sealed cut is hundreds of kilobytes and is summed at every cut (on
/// a traffic-heavy daemon, every epoch boundary), so the sum reads a
/// word at a time and keeps four multiply
/// chains in flight instead of one byte-serial one. Every step — the xor
/// of a word into its lane, the odd multiply, the rotate, and each fold —
/// is a bijection of the running value, so two inputs of equal length
/// that differ inside a single word always (not with probability
/// 1 − 2⁻⁶⁴) yield different sums: a flipped bit or a torn word can never
/// slip through. Damage spread over several words, and length changes,
/// are caught with the usual 64-bit odds.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const LANE_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
    const FOLD_MUL: u64 = 0xc2b2_ae3d_27d4_eb4f;
    fn absorb(lane: &mut u64, word: &[u8]) {
        let w = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
        *lane = (*lane ^ w).wrapping_mul(LANE_MUL).rotate_left(29);
    }
    let mut lanes: [u64; 4] = [
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            absorb(lane, word);
        }
    }
    // The tail (< 32 bytes) is zero-padded to whole words; the length in
    // the fold keeps a padded input apart from one that really ends in
    // zeros.
    let rest = blocks.remainder();
    let mut tail = [0u8; 32];
    tail[..rest.len()].copy_from_slice(rest);
    for (lane, word) in lanes.iter_mut().zip(tail.chunks_exact(8)).take(rest.len().div_ceil(8)) {
        absorb(lane, word);
    }
    let mut h = bytes.len() as u64;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(FOLD_MUL).rotate_left(31);
    }
    h ^ (h >> 32)
}

/// Seal a payload into a versioned, checksummed envelope.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + 1 + payload.len() + 8);
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.extend_from_slice(payload);
    let sum = checksum64(&buf);
    buf.extend_from_slice(&sum.to_be_bytes());
    buf
}

/// Verify a sealed envelope and return the payload slice. Checks magic,
/// version, and the trailing checksum — in that order, so the error names
/// the outermost damage.
pub fn open(bytes: &[u8]) -> Result<&[u8], SnapError> {
    // Envelope floor: magic + version + checksum.
    if bytes.len() < 4 + 1 + 8 {
        if bytes.len() >= 4 && bytes[..4] != MAGIC {
            return Err(SnapError::BadMagic);
        }
        return Err(SnapError::Truncated);
    }
    if bytes[..4] != MAGIC {
        return Err(SnapError::BadMagic);
    }
    if bytes[4] != VERSION {
        return Err(SnapError::Version(bytes[4]));
    }
    let body = &bytes[..bytes.len() - 8];
    let mut sum8 = [0u8; 8];
    sum8.copy_from_slice(&bytes[bytes.len() - 8..]);
    if checksum64(body) != u64::from_be_bytes(sum8) {
        return Err(SnapError::BadChecksum);
    }
    Ok(&body[5..])
}

/// Appends snapshot fields to a growing payload buffer. Integers are
/// big-endian; byte strings are `u32 BE length + bytes`; values are a tag
/// byte plus the tag-specific payload.
#[derive(Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Fresh empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// Bytes written so far (payload only; not yet sealed).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Seal the accumulated payload into an envelope.
    pub fn seal(self) -> Vec<u8> {
        seal(&self.buf)
    }

    /// The raw (unsealed) payload, for nesting one section inside another.
    pub fn into_payload(self) -> Vec<u8> {
        self.buf
    }

    /// One byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// A big-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// A big-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// A usize, widened to u64.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// An f64 via its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// `Option<u64>` as presence byte + value.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_u64(x);
            }
            None => self.put_u8(0),
        }
    }

    /// Length-prefixed byte string.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// One tagged value.
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Bool(b) => {
                self.put_u8(TAG_BOOL);
                self.put_bool(*b);
            }
            Value::UInt(u) => {
                self.put_u8(TAG_UINT);
                self.put_u64(*u);
            }
            Value::Float(f) => {
                self.put_u8(TAG_FLOAT);
                self.put_f64(*f);
            }
            Value::Ip(ip) => {
                self.put_u8(TAG_IP);
                self.put_u32(*ip);
            }
            Value::Str(s) => {
                self.put_u8(TAG_STR);
                self.put_bytes(s);
            }
        }
    }

    /// A value slice as `u32 count` + values (group keys, tuple fields).
    pub fn put_values(&mut self, vals: &[Value]) {
        self.put_u32(vals.len() as u32);
        for v in vals {
            self.put_value(v);
        }
    }

    /// One tuple (its field list).
    pub fn put_tuple(&mut self, t: &Tuple) {
        self.put_values(t.values());
    }

    /// Physical row `row` of a column batch, written as the tuple it
    /// holds.
    pub fn put_row(&mut self, batch: &ColumnBatch, row: usize) {
        self.put_u32(batch.n_cols() as u32);
        for c in 0..batch.n_cols() {
            self.put_value(&batch.col(c).get(row));
        }
    }
}

/// Restored rows as one column batch; rows of differing arity are a
/// protocol error, not a ragged batch.
pub fn rows_batch(rows: &[Tuple]) -> Result<ColumnBatch, SnapError> {
    match rows.first() {
        Some(t) if rows.iter().any(|r| r.arity() != t.arity()) => {
            Err(proto("restored rows disagree on arity"))
        }
        _ => Ok(ColumnBatch::from_tuples(rows)),
    }
}

/// Bounds-checked reader over a snapshot payload. Every accessor returns
/// [`SnapError::Truncated`] instead of panicking when the buffer runs
/// out, and declared element counts are validated against the remaining
/// length before any `Vec` is reserved.
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Read over an already-opened payload.
    pub fn new(payload: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf: payload, pos: 0 }
    }

    /// Open a sealed envelope and read over its payload.
    pub fn open(sealed: &'a [u8]) -> Result<SnapReader<'a>, SnapError> {
        Ok(SnapReader::new(open(sealed)?))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True once every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Require that the payload was fully consumed (trailing garbage in a
    /// checksummed snapshot means a format mismatch, not line noise).
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.is_done() {
            Ok(())
        } else {
            Err(proto(format!("{} trailing bytes", self.remaining())))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// A bool byte; anything but 0/1 is a protocol error.
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(proto(format!("bad bool byte {b}"))),
        }
    }

    /// A big-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        let s = self.take(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_be_bytes(b))
    }

    /// A big-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_be_bytes(b))
    }

    /// A u64 narrowed to usize (protocol error on overflow).
    pub fn get_usize(&mut self) -> Result<usize, SnapError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| proto(format!("count {v} exceeds usize")))
    }

    /// An f64 from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// An `Option<u64>` written by [`SnapWriter::put_opt_u64`].
    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, SnapError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_u64()?)),
            b => Err(proto(format!("bad option byte {b}"))),
        }
    }

    /// An element count that must be plausible: each element takes at
    /// least `min_elem_bytes`, so a count larger than the remaining
    /// buffer divided by that floor is rejected before any allocation.
    pub fn get_count(&mut self, min_elem_bytes: usize) -> Result<usize, SnapError> {
        let n = self.get_u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(proto(format!("count {n} exceeds remaining payload")));
        }
        Ok(n)
    }

    /// The next big-endian u32 without consuming it — lets a caller
    /// inspect a declared length (and reject it against a size cap)
    /// before committing to the read.
    pub fn peek_u32(&self) -> Option<u32> {
        let s = self.buf.get(self.pos..self.pos + 4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Some(u32::from_be_bytes(b))
    }

    /// Length-prefixed byte string (shares no buffers; snapshots are
    /// short-lived).
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, SnapError> {
        let n = self.get_u32()? as usize;
        if n > self.remaining() {
            return Err(SnapError::Truncated);
        }
        Ok(self.take(n)?.to_vec())
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, SnapError> {
        String::from_utf8(self.get_bytes()?).map_err(|_| proto("bad utf-8"))
    }

    /// One tagged value.
    pub fn get_value(&mut self) -> Result<Value, SnapError> {
        match self.get_u8()? {
            TAG_BOOL => Ok(Value::Bool(self.get_bool()?)),
            TAG_UINT => Ok(Value::UInt(self.get_u64()?)),
            TAG_FLOAT => Ok(Value::Float(self.get_f64()?)),
            TAG_IP => Ok(Value::Ip(self.get_u32()?)),
            TAG_STR => Ok(Value::Str(Bytes::from(self.get_bytes()?))),
            t => Err(proto(format!("bad value tag {t}"))),
        }
    }

    /// A `u32 count` + values list.
    pub fn get_values(&mut self) -> Result<Vec<Value>, SnapError> {
        let n = self.get_count(2)?; // tag byte + >=1 payload byte
        let mut vals = Vec::with_capacity(n);
        for _ in 0..n {
            vals.push(self.get_value()?);
        }
        Ok(vals)
    }

    /// One tuple.
    pub fn get_tuple(&mut self) -> Result<Tuple, SnapError> {
        Ok(Tuple::new(self.get_values()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Computed by an independent (Python, arbitrary-precision) rendering
    // of the definition in `checksum64`'s doc comment.
    const GOLDEN_EMPTY: u64 = 0x817a_7e75_c58a_2c3e;
    const GOLDEN_SHORT: u64 = 0x9047_f1cd_d23a_7cf1;
    const GOLDEN_RAMP: u64 = 0x8d77_4ee3_b53e_db16;

    fn sample_payload() -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f64(-2.5);
        w.put_opt_u64(Some(42));
        w.put_opt_u64(None);
        w.put_str("gigascope");
        w.put_value(&Value::Ip(0x0a00_0001));
        w.put_tuple(&Tuple::new(vec![
            Value::Bool(false),
            Value::UInt(9),
            Value::Float(1.25),
            Value::Str(Bytes::from_static(b"payload")),
        ]));
        w.into_payload()
    }

    #[test]
    fn round_trip_all_field_kinds() {
        let sealed = seal(&sample_payload());
        let mut r = SnapReader::open(&sealed).expect("open");
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f64().unwrap(), -2.5);
        assert_eq!(r.get_opt_u64().unwrap(), Some(42));
        assert_eq!(r.get_opt_u64().unwrap(), None);
        assert_eq!(r.get_str().unwrap(), "gigascope");
        assert_eq!(r.get_value().unwrap(), Value::Ip(0x0a00_0001));
        let t = r.get_tuple().unwrap();
        assert_eq!(t.arity(), 4);
        assert_eq!(t.get(3), &Value::Str(Bytes::from_static(b"payload")));
        r.finish().expect("fully consumed");
    }

    #[test]
    fn every_truncation_prefix_is_rejected() {
        let sealed = seal(&sample_payload());
        for cut in 0..sealed.len() {
            let err = open(&sealed[..cut]).expect_err("prefix must not open");
            assert!(
                matches!(err, SnapError::Truncated | SnapError::BadChecksum),
                "cut {cut}: unexpected error {err:?}"
            );
        }
        // The full buffer still opens.
        assert!(open(&sealed).is_ok());
    }

    /// Exhaustive, not sampled: every bit of a sealed envelope — magic,
    /// version, each payload word, the zero-padded tail, the checksum
    /// itself — flipped alone is rejected. One flipped bit is damage
    /// confined to one word, which the lane bijections catch always.
    #[test]
    fn every_single_bit_flip_is_rejected() {
        for payload in [sample_payload(), Vec::new(), vec![0u8; 27], vec![0xff; 64]] {
            let sealed = seal(&payload);
            for at in 0..sealed.len() {
                for bit in 0..8 {
                    let mut bad = sealed.clone();
                    bad[at] ^= 1 << bit;
                    assert!(open(&bad).is_err(), "byte {at} bit {bit} flipped must not open");
                }
            }
        }
    }

    /// The v2 seal is part of the on-disk format: pin it. A change to
    /// the lane constants, word order, tail padding or fold shows here
    /// (and must come with a `VERSION` bump).
    #[test]
    fn v2_seal_golden_vector() {
        assert_eq!(checksum64(b""), GOLDEN_EMPTY);
        assert_eq!(checksum64(b"gigascope"), GOLDEN_SHORT);
        let ramp: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        assert_eq!(checksum64(&ramp), GOLDEN_RAMP);
        let sealed = seal(b"abc");
        assert_eq!(&sealed[..8], b"GSSN\x02abc");
        assert_eq!(sealed[8..], checksum64(b"GSSN\x02abc").to_be_bytes());
        // Zero padding is not content: the length is in the fold.
        assert_ne!(checksum64(&[0u8; 7]), checksum64(&[0u8; 8]));
        assert_ne!(checksum64(&[]), checksum64(&[0u8; 32]));
    }

    /// A version-1 envelope (byte-wise FNV-1a seal) is refused by its
    /// version byte, before the checksum is looked at.
    #[test]
    fn v1_envelope_is_refused_by_version() {
        let mut v1 = Vec::from(MAGIC);
        v1.push(1);
        v1.extend_from_slice(&sample_payload());
        let mut fnv: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in &v1 {
            fnv = (fnv ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        v1.extend_from_slice(&fnv.to_be_bytes());
        assert_eq!(open(&v1), Err(SnapError::Version(1)));
        assert_eq!(SnapReader::open(&v1).err(), Some(SnapError::Version(1)));
    }

    #[test]
    fn version_and_magic_mismatch() {
        let sealed = seal(b"abc");
        let mut wrong_ver = sealed.clone();
        wrong_ver[4] = VERSION + 1;
        assert_eq!(open(&wrong_ver), Err(SnapError::Version(VERSION + 1)));
        let mut wrong_magic = sealed;
        wrong_magic[0] = b'X';
        assert_eq!(open(&wrong_magic), Err(SnapError::BadMagic));
        assert_eq!(open(b""), Err(SnapError::Truncated));
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A declared 4-billion-element value list in a 16-byte payload.
        let mut w = SnapWriter::new();
        w.put_u32(u32::MAX);
        w.put_u64(0);
        let sealed = w.seal();
        let mut r = SnapReader::open(&sealed).expect("envelope is valid");
        assert!(matches!(r.get_values(), Err(SnapError::Protocol(_))));
        // Same for byte strings: length checked before take.
        let mut w = SnapWriter::new();
        w.put_u32(1_000_000);
        w.put_u8(1);
        let sealed = w.seal();
        let mut r = SnapReader::open(&sealed).expect("envelope is valid");
        assert_eq!(r.get_bytes(), Err(SnapError::Truncated));
    }

    #[test]
    fn empty_payload_seals_and_opens() {
        let sealed = seal(&[]);
        let r = SnapReader::open(&sealed).expect("open");
        assert!(r.is_done());
    }
}
