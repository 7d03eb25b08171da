//! Hand-rolled byte (de)serialization primitives for the persistence
//! subsystem.
//!
//! The build environment has no serde, so every checkpointable type writes
//! itself through these little-endian helpers (the binary twin of
//! `bench_json.rs`'s hand-rolled JSON). Readers are total: every decode
//! returns `Option` and a truncated or corrupted buffer surfaces as `None`,
//! never a panic — checkpoints come from disk and disks lie.

use sscc_hypergraph::EdgeId;

/// Append a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a `u16` (little-endian).
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32` (little-endian).
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` (little-endian).
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `bool` as one byte.
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Append a `usize` as a `u64`.
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Append an LEB128 varint (the compressed integer encoding the step-trace
/// recorder uses for selected-set and flag-flip deltas).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a length-prefixed byte blob.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_usize(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// Open a length-prefixed blob that is encoded in place: writes a
/// placeholder length and returns its position for [`finish_bytes`].
/// Together the two write exactly what [`put_bytes`] would, without
/// encoding the blob into a scratch buffer first.
pub fn begin_bytes(out: &mut Vec<u8>) -> usize {
    let at = out.len();
    put_u64(out, 0);
    at
}

/// Close a blob opened by [`begin_bytes`] at `at`: back-patch its length
/// with the bytes appended since.
pub fn finish_bytes(out: &mut [u8], at: usize) {
    let len = (out.len() - at - 8) as u64;
    out[at..at + 8].copy_from_slice(&len.to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Append a length-prefixed `usize` slice.
pub fn put_usize_slice(out: &mut Vec<u8>, v: &[usize]) {
    put_usize(out, v.len());
    for &x in v {
        put_usize(out, x);
    }
}

/// Append a length-prefixed `bool` slice.
pub fn put_bool_slice(out: &mut Vec<u8>, v: &[bool]) {
    put_usize(out, v.len());
    for &b in v {
        put_bool(out, b);
    }
}

/// Append a length-prefixed `u64` slice.
pub fn put_u64_slice(out: &mut Vec<u8>, v: &[u64]) {
    put_usize(out, v.len());
    for &x in v {
        put_u64(out, x);
    }
}

/// Append a length-prefixed `Option<u64>` slice (policy timer vectors).
pub fn put_opt_u64_slice(out: &mut Vec<u8>, v: &[Option<u64>]) {
    put_usize(out, v.len());
    for x in v {
        x.encode(out);
    }
}

/// Multipliers of the [`checksum64`] lanes and of the final fold: odd, so
/// multiplying by one is a bijection on `u64`.
const CHECKSUM_MUL: [u64; 5] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0xD6E8_FEB8_6659_FD93,
    0xFF51_AFD7_ED55_8CCD,
];

/// Initial lane states of [`checksum64`].
const CHECKSUM_SEED: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// One lane step: xor the word in, multiply by an odd constant, fold the
/// high half down. For a fixed lane state this is a bijection of the word,
/// and for a fixed word a bijection of the state, so a changed word always
/// changes the lane from there on.
#[inline(always)]
fn checksum_step(h: u64, w: u64, k: u64) -> u64 {
    let x = (h ^ w).wrapping_mul(k);
    x ^ (x >> 32)
}

/// The integrity checksum of every durable or wire artifact: checkpoint
/// containers, service checkpoints, step traces and boundary frames. Not
/// cryptographic; it guards against truncation, bit rot and torn writes.
///
/// Four independent multiply–xor lanes consume the input as little-endian
/// 8-byte words (word `i` feeds lane `i % 4`), so the lanes' multiply
/// chains overlap instead of serializing on one accumulator as a
/// byte-at-a-time hash does. A trailing partial word is zero-padded and
/// the length is folded into the result, so inputs differing only in
/// trailing zero bytes still differ. Every lane step and fold step is a
/// bijection (see `checksum_step`), so any change confined to one word —
/// in particular any single bit flip — changes the checksum.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut lanes = CHECKSUM_SEED;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let w = u64::from_le_bytes(block[8 * i..8 * i + 8].try_into().expect("8-byte word"));
            *lane = checksum_step(*lane, w, CHECKSUM_MUL[i]);
        }
    }
    let mut words = blocks.remainder().chunks(8);
    for (i, lane) in lanes.iter_mut().enumerate() {
        let Some(word) = words.next() else { break };
        let mut w = [0u8; 8];
        w[..word.len()].copy_from_slice(word);
        *lane = checksum_step(*lane, u64::from_le_bytes(w), CHECKSUM_MUL[i]);
    }
    let mut h = (bytes.len() as u64).wrapping_mul(CHECKSUM_MUL[4]);
    for lane in lanes {
        h = checksum_step(h, lane, CHECKSUM_MUL[4]);
    }
    checksum_step(h, 0, CHECKSUM_MUL[0])
}

/// A bounds-checked cursor over a byte buffer; every read is total.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Has every byte been consumed?
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Take the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// Read a `bool` (rejecting anything but 0/1).
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Read a `usize` (stored as `u64`; rejects values over `usize::MAX`).
    pub fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// Read an LEB128 varint.
    pub fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 {
                return None;
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
        }
    }

    /// Read a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.bytes()?).ok()
    }

    /// Read a length-prefixed `usize` slice.
    pub fn usize_vec(&mut self) -> Option<Vec<usize>> {
        let n = self.usize()?;
        if n > self.remaining() / 8 {
            return None;
        }
        (0..n).map(|_| self.usize()).collect()
    }

    /// Read a length-prefixed `bool` slice.
    pub fn bool_vec(&mut self) -> Option<Vec<bool>> {
        let n = self.usize()?;
        if n > self.remaining() {
            return None;
        }
        (0..n).map(|_| self.bool()).collect()
    }

    /// Read a length-prefixed `u64` slice.
    pub fn u64_vec(&mut self) -> Option<Vec<u64>> {
        let n = self.usize()?;
        if n > self.remaining() / 8 {
            return None;
        }
        (0..n).map(|_| self.u64()).collect()
    }

    /// Read a length-prefixed `Option<u64>` slice.
    pub fn opt_u64_vec(&mut self) -> Option<Vec<Option<u64>>> {
        let n = self.usize()?;
        if n > self.remaining() {
            return None;
        }
        (0..n).map(|_| Option::<u64>::decode(self)).collect()
    }
}

/// Per-process state (de)serialization, implemented by each layer crate for
/// its own state struct so the checkpoint writer stays generic over the
/// composed algorithm. Encodings must be fixed given the value — a decode
/// of an encode is the identical state, bit for bit.
pub trait StateCodec: Sized {
    /// Append this state to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode one state; `None` on truncated/invalid input.
    fn decode(r: &mut Reader) -> Option<Self>;
}

impl StateCodec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        put_bool(out, *self);
    }
    fn decode(r: &mut Reader) -> Option<Self> {
        r.bool()
    }
}

impl StateCodec for u16 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u16(out, *self);
    }
    fn decode(r: &mut Reader) -> Option<Self> {
        r.u16()
    }
}

impl StateCodec for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, *self);
    }
    fn decode(r: &mut Reader) -> Option<Self> {
        r.u32()
    }
}

impl StateCodec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
    fn decode(r: &mut Reader) -> Option<Self> {
        r.u64()
    }
}

impl StateCodec for crate::compose::Layer {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u8(out, matches!(self, crate::compose::Layer::B).into());
    }
    fn decode(r: &mut Reader) -> Option<Self> {
        match r.u8()? {
            0 => Some(crate::compose::Layer::A),
            1 => Some(crate::compose::Layer::B),
            _ => None,
        }
    }
}

impl StateCodec for EdgeId {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.0);
    }
    fn decode(r: &mut Reader) -> Option<Self> {
        Some(EdgeId(r.u32()?))
    }
}

impl<T: StateCodec> StateCodec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => put_u8(out, 0),
            Some(v) => {
                put_u8(out, 1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader) -> Option<Self> {
        match r.u8()? {
            0 => Some(None),
            1 => Some(Some(T::decode(r)?)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHECKSUM_VECTORS: [u64; 6] = [
        0x1dca_2348_fb8a_6091,
        0x37c7_10c6_cdc0_628a,
        0x9590_4949_91cb_ce8a,
        0xe105_aedb_9d26_b630,
        0x2403_4e4a_8e57_eff2,
        0xf0e5_cc08_7c88_6557,
    ];

    #[test]
    fn scalar_roundtrips() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u16(&mut out, 300);
        put_u32(&mut out, 70_000);
        put_u64(&mut out, u64::MAX - 1);
        put_bool(&mut out, true);
        put_usize(&mut out, 123);
        put_str(&mut out, "checkpoint");
        let mut r = Reader::new(&out);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u16(), Some(300));
        assert_eq!(r.u32(), Some(70_000));
        assert_eq!(r.u64(), Some(u64::MAX - 1));
        assert_eq!(r.bool(), Some(true));
        assert_eq!(r.usize(), Some(123));
        assert_eq!(r.str(), Some("checkpoint"));
        assert!(r.is_empty());
    }

    #[test]
    fn slices_roundtrip() {
        let mut out = Vec::new();
        put_usize_slice(&mut out, &[3, 1, 4, 1, 5]);
        put_bool_slice(&mut out, &[true, false, true]);
        put_u64_slice(&mut out, &[9, 8]);
        put_bytes(&mut out, b"\x00\xff");
        let mut r = Reader::new(&out);
        assert_eq!(r.usize_vec(), Some(vec![3, 1, 4, 1, 5]));
        assert_eq!(r.bool_vec(), Some(vec![true, false, true]));
        assert_eq!(r.u64_vec(), Some(vec![9, 8]));
        assert_eq!(r.bytes(), Some(&b"\x00\xff"[..]));
        assert!(r.is_empty());
    }

    #[test]
    fn varint_roundtrips() {
        let mut out = Vec::new();
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            put_varint(&mut out, v);
        }
        let mut r = Reader::new(&out);
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            assert_eq!(r.varint(), Some(v));
        }
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_none_not_panic() {
        let mut out = Vec::new();
        put_u64(&mut out, 5);
        let mut r = Reader::new(&out[..4]);
        assert_eq!(r.u64(), None);
        let mut r2 = Reader::new(&[0x80u8; 12]);
        assert_eq!(r2.varint(), None, "unterminated varint");
        let mut r3 = Reader::new(&[2u8]);
        assert_eq!(r3.bool(), None, "bools are strictly 0/1");
    }

    #[test]
    fn state_codec_roundtrips() {
        use crate::compose::Layer;
        let mut out = Vec::new();
        Layer::A.encode(&mut out);
        Layer::B.encode(&mut out);
        Some(EdgeId(4)).encode(&mut out);
        Option::<EdgeId>::None.encode(&mut out);
        true.encode(&mut out);
        7u32.encode(&mut out);
        let mut r = Reader::new(&out);
        assert_eq!(Layer::decode(&mut r), Some(Layer::A));
        assert_eq!(Layer::decode(&mut r), Some(Layer::B));
        assert_eq!(Option::<EdgeId>::decode(&mut r), Some(Some(EdgeId(4))));
        assert_eq!(Option::<EdgeId>::decode(&mut r), Some(None));
        assert_eq!(bool::decode(&mut r), Some(true));
        assert_eq!(u32::decode(&mut r), Some(7));
        assert!(r.is_empty());
    }

    #[test]
    fn in_place_blob_matches_put_bytes() {
        let mut a = Vec::new();
        put_u8(&mut a, 9);
        put_bytes(&mut a, b"payload");
        let mut b = Vec::new();
        put_u8(&mut b, 9);
        let at = begin_bytes(&mut b);
        b.extend_from_slice(b"payload");
        finish_bytes(&mut b, at);
        assert_eq!(a, b);
    }

    #[test]
    fn checksum64_matches_reference_vectors() {
        // Pinned outputs: any change to the construction changes every
        // durable artifact's checksum and must bump their format versions.
        let inputs: [&[u8]; 6] = [
            b"",
            b"a",
            b"foobar",
            b"0123456789abcdef0123456789abcdef",
            b"0123456789abcdef0123456789abcdef0123456789",
            &[0u8; 64],
        ];
        let got: Vec<u64> = inputs.iter().map(|b| checksum64(b)).collect();
        assert_eq!(got, CHECKSUM_VECTORS);
    }

    #[test]
    fn checksum64_catches_every_single_bit_flip() {
        // Lengths cover whole blocks, spare words and partial tail words.
        for len in [1usize, 7, 8, 9, 31, 32, 33, 71] {
            let bytes: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(37)).collect();
            let sum = checksum64(&bytes);
            for i in 0..len {
                for bit in 0..8 {
                    let mut flipped = bytes.clone();
                    flipped[i] ^= 1 << bit;
                    assert_ne!(checksum64(&flipped), sum, "len {len} byte {i} bit {bit}");
                }
            }
        }
        // Trailing zero bytes pad the tail word, but the length fold keeps
        // the inputs apart.
        assert_ne!(checksum64(b"ab"), checksum64(b"ab\0"));
        assert_ne!(checksum64(b""), checksum64(&[0u8; 8]));
        assert_ne!(checksum64(b"ab"), checksum64(b"ba"));
    }

    #[test]
    fn bogus_lengths_are_rejected() {
        // A length prefix claiming more elements than bytes remain must
        // fail fast instead of attempting a huge allocation.
        let mut out = Vec::new();
        put_usize(&mut out, usize::MAX);
        let mut r = Reader::new(&out);
        assert_eq!(r.usize_vec(), None);
    }
}
