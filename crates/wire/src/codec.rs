//! Compact binary encoding.
//!
//! Every protocol message, WAL record, and persistent object in displaydb
//! is serialized with these primitives. The format favours density (LEB128
//! varints, zigzag for signed integers) because the paper's core
//! performance argument is about *bytes cached per level of the memory
//! hierarchy* (§ 3.2): the experiment that reproduces the "display cache is
//! 3–5× smaller" observation measures encoded object sizes.

use bytes::{BufMut, Bytes, BytesMut};
use displaydb_common::{
    ClassId, ClientId, DbError, DbResult, DisplayId, Lsn, Oid, PageId, RecordId, TxnId,
};

/// Maximum length accepted for strings and byte arrays (guards against
/// corrupt length prefixes allocating unbounded memory).
pub const MAX_BLOB_LEN: usize = 64 * 1024 * 1024;

/// Serializer writing into a growable buffer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: BytesMut,
}

impl WireWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a writer with `cap` bytes pre-reserved.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish, returning the encoded bytes.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Append a raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Append a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Append a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Append an f64 (IEEE-754 bits, little-endian).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    /// Append an unsigned LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.put_u8(byte);
                return;
            }
            self.buf.put_u8(byte | 0x80);
        }
    }

    /// Append a zigzag-encoded signed varint.
    pub fn put_varint_signed(&mut self, v: i64) {
        self.put_varint(zigzag_encode(v));
    }

    /// Append a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_varint(v.len() as u64);
        self.buf.put_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Deserializer reading from a byte slice with bounds checking.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wrap a slice for reading.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole input was consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Fail unless all input was consumed. Catches trailing-garbage bugs.
    pub fn expect_exhausted(&self) -> DbResult<()> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(DbError::Corrupt(format!(
                "{} trailing bytes after decode",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> DbResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(DbError::Corrupt(format!(
                "unexpected end of input: wanted {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> DbResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u16.
    pub fn get_u16(&mut self) -> DbResult<u16> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Read a little-endian u32.
    pub fn get_u32(&mut self) -> DbResult<u32> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Read a little-endian u64.
    pub fn get_u64(&mut self) -> DbResult<u64> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes(s.try_into().unwrap()))
    }

    /// Read an f64.
    pub fn get_f64(&mut self) -> DbResult<f64> {
        let s = self.take(8)?;
        Ok(f64::from_le_bytes(s.try_into().unwrap()))
    }

    /// Read an unsigned LEB128 varint.
    pub fn get_varint(&mut self) -> DbResult<u64> {
        let mut out: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift == 63 && byte > 1 {
                return Err(DbError::Corrupt("varint overflow".into()));
            }
            out |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
            if shift > 63 {
                return Err(DbError::Corrupt("varint too long".into()));
            }
        }
    }

    /// Read a zigzag-encoded signed varint.
    pub fn get_varint_signed(&mut self) -> DbResult<i64> {
        Ok(zigzag_decode(self.get_varint()?))
    }

    /// Read a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> DbResult<&'a [u8]> {
        let len = self.get_varint()? as usize;
        if len > MAX_BLOB_LEN {
            return Err(DbError::Corrupt(format!("blob length {len} exceeds cap")));
        }
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> DbResult<&'a str> {
        let raw = self.get_bytes()?;
        std::str::from_utf8(raw).map_err(|_| DbError::Corrupt("invalid utf-8 string".into()))
    }
}

fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// 64-bit FNV-1a hash: the checksum of every WAL and segment-log frame,
/// and the fingerprint by which a commit's patch names the encoded object
/// it was computed against.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Types that can be serialized to the wire format.
pub trait Encode {
    /// Append this value's encoding to `w`.
    fn encode(&self, w: &mut WireWriter);

    /// Convenience: encode into a fresh byte buffer.
    fn encode_to_bytes(&self) -> Bytes {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.finish()
    }
}

/// Types that can be deserialized from the wire format.
pub trait Decode: Sized {
    /// Read one value from `r`.
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self>;

    /// Convenience: decode from a complete buffer, requiring full
    /// consumption.
    fn decode_from_bytes(buf: &[u8]) -> DbResult<Self> {
        let mut r = WireReader::new(buf);
        let v = Self::decode(&mut r)?;
        r.expect_exhausted()?;
        Ok(v)
    }
}

macro_rules! encode_varint_newtype {
    ($ty:ty, $inner:ty) => {
        impl Encode for $ty {
            fn encode(&self, w: &mut WireWriter) {
                w.put_varint(self.raw() as u64);
            }
        }
        impl Decode for $ty {
            fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
                Ok(<$ty>::new(<$inner>::decode(r)?))
            }
        }
    };
}

encode_varint_newtype!(Oid, u64);
encode_varint_newtype!(ClassId, u32);
encode_varint_newtype!(TxnId, u64);
encode_varint_newtype!(ClientId, u64);
encode_varint_newtype!(DisplayId, u64);
encode_varint_newtype!(PageId, u64);
encode_varint_newtype!(Lsn, u64);

impl Encode for RecordId {
    fn encode(&self, w: &mut WireWriter) {
        self.page.encode(w);
        w.put_varint(u64::from(self.slot));
    }
}

impl Decode for RecordId {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        let page = PageId::decode(r)?;
        Ok(RecordId::new(page, u16::decode(r)?))
    }
}

impl Encode for u8 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(*self);
    }
}
impl Decode for u8 {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        r.get_u8()
    }
}

impl Encode for u16 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(u64::from(*self));
    }
}
impl Decode for u16 {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        let v = r.get_varint()?;
        u16::try_from(v).map_err(|_| DbError::Protocol("u16 out of range".into()))
    }
}

impl Encode for u32 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(u64::from(*self));
    }
}
impl Decode for u32 {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        let v = r.get_varint()?;
        u32::try_from(v).map_err(|_| DbError::Protocol("u32 out of range".into()))
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(*self);
    }
}
impl Decode for u64 {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        r.get_varint()
    }
}

impl Encode for i64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint_signed(*self);
    }
}
impl Decode for i64 {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        r.get_varint_signed()
    }
}

impl Encode for f64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_f64(*self);
    }
}
impl Decode for f64 {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        r.get_f64()
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(u8::from(*self));
    }
}
impl Decode for bool {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DbError::Corrupt(format!("invalid bool byte {b}"))),
        }
    }
}

impl Encode for String {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(self);
    }
}
impl Decode for String {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        Ok(r.get_str()?.to_string())
    }
}

impl Encode for Vec<u8> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_bytes(self);
    }
}
impl Decode for Vec<u8> {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        Ok(r.get_bytes()?.to_vec())
    }
}

impl Encode for Bytes {
    fn encode(&self, w: &mut WireWriter) {
        w.put_bytes(self);
    }
}
impl Decode for Bytes {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        Ok(Bytes::copy_from_slice(r.get_bytes()?))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}
impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(DbError::Corrupt(format!("invalid option tag {b}"))),
        }
    }
}

// Vec<u8> has a dedicated impl above; this generic covers other payloads.
macro_rules! vec_impl {
    ($t:ty) => {
        impl Encode for Vec<$t> {
            fn encode(&self, w: &mut WireWriter) {
                w.put_varint(self.len() as u64);
                for item in self {
                    item.encode(w);
                }
            }
        }
        impl Decode for Vec<$t> {
            fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
                let len = r.get_varint()? as usize;
                if len > MAX_BLOB_LEN {
                    return Err(DbError::Corrupt("vector length exceeds cap".into()));
                }
                let mut out = Vec::with_capacity(len.min(4096));
                for _ in 0..len {
                    out.push(<$t>::decode(r)?);
                }
                Ok(out)
            }
        }
    };
}

vec_impl!(Oid);
vec_impl!(u64);
vec_impl!(i64);
vec_impl!(f64);
vec_impl!(String);
vec_impl!((Oid, Vec<u8>));

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
}
impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.encode_to_bytes();
        let back = T::decode_from_bytes(&bytes).expect("decode");
        assert_eq!(v, back);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(-1i64);
        roundtrip(i64::MIN);
        roundtrip(i64::MAX);
        roundtrip(3.25f64);
        roundtrip(true);
        roundtrip(false);
        roundtrip("héllo wörld".to_string());
        roundtrip(String::new());
        roundtrip(vec![1u8, 2, 3]);
        roundtrip(Vec::<u8>::new());
        roundtrip(Some(42u64));
        roundtrip(Option::<u64>::None);
        roundtrip(Oid::new(7));
        roundtrip(RecordId::new(PageId::new(3), 9));
        roundtrip(vec![Oid::new(1), Oid::new(2)]);
        roundtrip((Oid::new(1), "x".to_string()));
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 127, 128, 16383, 16384, u64::MAX] {
            let mut w = WireWriter::new();
            w.put_varint(v);
            let bytes = w.finish();
            let mut r = WireReader::new(&bytes);
            assert_eq!(r.get_varint().unwrap(), v);
            assert!(r.is_exhausted());
        }
    }

    #[test]
    fn varint_small_values_are_one_byte() {
        let mut w = WireWriter::new();
        w.put_varint(100);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let bytes = 123456789u64.encode_to_bytes();
        for cut in 0..bytes.len() {
            let r = u64::decode_from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "decode of {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut w = WireWriter::new();
        w.put_varint(5);
        w.put_u8(0xAB);
        let bytes = w.finish();
        assert!(u64::decode_from_bytes(&bytes).is_err());
    }

    #[test]
    fn narrow_integers_reject_over_wide_varints() {
        // A varint wider than its field is a protocol error, never a
        // silent truncation onto some other value.
        let wide = |v: u64| {
            let mut w = WireWriter::new();
            w.put_varint(v);
            w.finish()
        };
        let is_protocol = |r: DbResult<()>| matches!(r, Err(DbError::Protocol(_)));
        assert!(is_protocol(u16::decode_from_bytes(&wide(65_541)).map(drop)));
        assert!(is_protocol(
            u32::decode_from_bytes(&wide(1 << 32)).map(drop)
        ));
        assert!(is_protocol(
            ClassId::decode_from_bytes(&wide(1 << 32)).map(drop)
        ));
        let mut w = WireWriter::new();
        PageId::new(1).encode(&mut w);
        w.put_varint(65_541);
        assert!(is_protocol(
            RecordId::decode_from_bytes(&w.finish()).map(drop)
        ));
    }

    #[test]
    fn invalid_bool_and_option_tags() {
        assert!(bool::decode_from_bytes(&[2]).is_err());
        assert!(Option::<u64>::decode_from_bytes(&[9]).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = WireWriter::new();
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.finish();
        assert!(String::decode_from_bytes(&bytes).is_err());
    }

    #[test]
    fn overlong_varint_rejected() {
        // 10 bytes of continuation with high garbage.
        let buf = [0xffu8; 11];
        let mut r = WireReader::new(&buf);
        assert!(r.get_varint().is_err());
    }

    proptest! {
        #[test]
        fn prop_u64_roundtrip(v in any::<u64>()) {
            roundtrip(v);
        }

        #[test]
        fn prop_i64_roundtrip(v in any::<i64>()) {
            roundtrip(v);
        }

        #[test]
        fn prop_string_roundtrip(v in ".{0,200}") {
            roundtrip(v.to_string());
        }

        #[test]
        fn prop_bytes_roundtrip(v in proptest::collection::vec(any::<u8>(), 0..512)) {
            roundtrip(v);
        }

        #[test]
        fn prop_oid_vec_roundtrip(v in proptest::collection::vec(any::<u64>(), 0..64)) {
            roundtrip(v.into_iter().map(Oid::new).collect::<Vec<_>>());
        }

        #[test]
        fn prop_zigzag_inverse(v in any::<i64>()) {
            prop_assert_eq!(super::zigzag_decode(super::zigzag_encode(v)), v);
        }

        #[test]
        fn prop_decode_random_never_panics(v in proptest::collection::vec(any::<u8>(), 0..128)) {
            // Decoding arbitrary junk must fail gracefully, never panic.
            let _ = String::decode_from_bytes(&v);
            let _ = Vec::<Oid>::decode_from_bytes(&v);
            let _ = Option::<Vec<u8>>::decode_from_bytes(&v);
        }
    }
}
