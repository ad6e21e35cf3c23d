//! DBP — the "Discover Binary Protocol" codec.
//!
//! The paper's optimized application↔server path uses "a more optimized,
//! custom protocol using TCP sockets", and its other paths serialize Java
//! objects. This module is our equivalent: a compact, non-self-describing
//! binary serde format. Integers are fixed-width little-endian; strings,
//! byte arrays, sequences and maps are length-prefixed with a `u32`; enum
//! variants are encoded as a `u32` variant index followed by the variant
//! payload; `Option` is a single presence byte.
//!
//! Five entry points:
//! * [`encode`] — serialize a value to bytes,
//! * [`encoded_len`] — byte length without materializing the buffer
//!   (drives the simulator's bandwidth model),
//! * [`digest_fnv1a`] — hash of those bytes without materializing them,
//! * [`decode`] — deserialize a value from bytes (rejecting trailing garbage),
//! * [`decode_borrowed`] — deserialize from a refcounted receive buffer,
//!   letting frozen payloads borrow slices of it instead of copying.
//!
//! The first three are one serializer walk over three sinks (a buffer,
//! a byte count, a hash state), so they cannot disagree on a byte or on
//! which inputs they reject.
//!
//! Three hot-path mechanisms keep broadcast fan-out cheap:
//! * a per-thread **pooled encode buffer** ([`encode`] fills a
//!   `BytesMut` of the pool's capacity instead of starting at 64 bytes
//!   and growing every call, and finalizes by *splitting* the contents
//!   off it — no copy; with the `vendor/bytes` stand-in the whole `Vec`
//!   leaves with the result and the pool is allocated a new one of that
//!   capacity, so the result pins the pool's capacity, not its own
//!   length),
//! * a **raw-splice fast path** (the `SPLICE_TOKEN` newtype name)
//!   letting pre-encoded payloads pass through the serializer verbatim,
//!   so a payload frozen once is never walked again,
//! * a **zero-copy ingress path** ([`decode_borrowed`]): while decoding
//!   from a registered receive buffer, a frozen payload's bytes are
//!   taken as a refcounted slice of that buffer — the payload is never
//!   re-encoded and never copied after its origin.
//!
//! All three are observable through the deterministic per-thread
//! [`CodecStats`] counters ([`stats`] / [`reset_stats`]).

use std::cell::Cell;
use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::de::{self, DeserializeOwned, IntoDeserializer, Visitor};
use serde::ser::{self, Serialize};

/// Sentinel newtype-struct name that arms the raw-splice fast path.
///
/// A shared payload (see [`FrozenUpdate`](crate::FrozenUpdate)) that
/// already holds its own DBP encoding serializes itself as
/// `serialize_newtype_struct(SPLICE_TOKEN, raw_bytes)`; the serializer
/// recognises the token and hands the bytes to its sink verbatim — no
/// length prefix, no second traversal — so the result is byte-identical
/// to serializing the payload inline.
pub(crate) const SPLICE_TOKEN: &str = "\0dbp-splice";

/// Initial capacity of pooled encode buffers: large enough that a
/// typical update message (well under 1 KiB) never grows one. It is also
/// what every [`encode`] allocates and every result holds on to, until a
/// larger message has grown the pool's buffer: from then on, that.
const POOL_BUF_CAPACITY: usize = 1024;

/// Errors produced by the codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    Eof,
    /// Trailing bytes remained after decoding the value.
    TrailingBytes(usize),
    /// A length prefix or variant index was out of range.
    Invalid(String),
    /// Error bubbled up from a `Serialize`/`Deserialize` impl.
    Custom(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Eof => write!(f, "unexpected end of input"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            CodecError::Invalid(s) => write!(f, "invalid encoding: {s}"),
            CodecError::Custom(s) => write!(f, "{s}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl ser::Error for CodecError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        CodecError::Custom(msg.to_string())
    }
}

impl de::Error for CodecError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        CodecError::Custom(msg.to_string())
    }
}

/// Deterministic per-thread codec activity counters.
///
/// Thread-local (rather than global atomics) so parallel experiment
/// threads in the bench harness each observe their own, fully
/// deterministic counts. Snapshot with [`stats`], zero with
/// [`reset_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodecStats {
    /// Full serializer walks that materialized bytes ([`encode`] calls).
    pub encode_calls: u64,
    /// Total bytes produced by those walks.
    pub bytes_encoded: u64,
    /// Size-only serializer walks ([`encoded_len`] calls).
    pub len_walks: u64,
    /// Pre-encoded payloads spliced verbatim into an outer walk — each
    /// one is a traversal of the payload that did NOT happen.
    pub payload_splices: u64,
    /// Encode calls that found a buffer in the pool.
    pub pool_hits: u64,
    /// Encode calls that found the pool empty (first use per thread, or
    /// re-entrant encodes) and started from a 1 KiB buffer.
    pub pool_misses: u64,
    /// Bytes memcpy'd to finalize an [`encode`] output buffer. The
    /// split-off-the-pool path hands the filled buffer away whole, so
    /// this stays zero; any nonzero value means a copying finalizer
    /// crept back in (asserted in `codec_properties`).
    pub encode_copy_bytes: u64,
    /// Frozen payloads whose bytes were captured during decode (no
    /// re-encode serializer walk — the wire bytes are adopted verbatim).
    pub frozen_decodes: u64,
    /// Frozen-payload captures served as refcounted slices of a
    /// registered ingress buffer ([`decode_borrowed`]) — zero-copy.
    pub ingress_slices: u64,
    /// Frozen-payload captures that had to copy (plain [`decode`], or a
    /// source outside the registered ingress buffer).
    pub ingress_copies: u64,
    /// FIFO drains served by a caller-provided scratch buffer instead of
    /// a fresh per-poll `Vec` allocation (see
    /// [`note_drain_reuse`]; webserv folds its savings in here so the
    /// allocation ledger lives in one place).
    pub drain_reuses: u64,
}

thread_local! {
    static STATS: Cell<CodecStats> = const {
        Cell::new(CodecStats {
            encode_calls: 0,
            bytes_encoded: 0,
            len_walks: 0,
            payload_splices: 0,
            pool_hits: 0,
            pool_misses: 0,
            encode_copy_bytes: 0,
            frozen_decodes: 0,
            ingress_slices: 0,
            ingress_copies: 0,
            drain_reuses: 0,
        })
    };
    static POOL: Cell<Option<BytesMut>> = const { Cell::new(None) };
    /// The receive buffer registered by [`decode_borrowed`] for the
    /// duration of one decode: frozen payloads whose consumed range lies
    /// inside it are taken as refcounted slices of it.
    static INGRESS: Cell<Option<Bytes>> = const { Cell::new(None) };
    /// Hand-off slot between the DBP deserializer's splice-token capture
    /// and `FrozenUpdate`'s visitor (same decode call, same thread).
    static CAPTURE: Cell<Option<Bytes>> = const { Cell::new(None) };
}

fn bump(f: impl FnOnce(&mut CodecStats)) {
    STATS.with(|s| {
        let mut v = s.get();
        f(&mut v);
        s.set(v);
    });
}

/// Snapshot this thread's codec counters.
pub fn stats() -> CodecStats {
    STATS.with(|s| s.get())
}

/// Zero this thread's codec counters (start of a measured run).
pub fn reset_stats() {
    STATS.with(|s| s.set(CodecStats::default()));
}

/// Why the entry points may `expect` a walk: every wire type serializes
/// through derived impls that always pass sequence and map lengths.
const INFALLIBLE: &str = "DBP serialization is infallible for wire types";

/// Serialize `value` to bytes using this thread's pooled buffer.
///
/// The pooled `BytesMut` is cleared, filled by a single serializer walk,
/// then *split*: the contents leave as the immutable [`Bytes`] result
/// without a finalizing memcpy (see [`CodecStats::encode_copy_bytes`]).
/// The `vendor/bytes` stand-in has no shared-buffer split, so the result
/// takes the buffer's whole `Vec` — its length is exact, its allocation
/// is the pool's capacity — and the pool gets a newly allocated `Vec` of
/// that capacity back: one pool-sized allocation per call (DESIGN.md §8,
/// "Why `encode` still gives its pool buffer away").
pub fn encode<T: Serialize>(value: &T) -> Bytes {
    let mut buf = match POOL.with(|p| p.take()) {
        Some(b) => {
            bump(|s| s.pool_hits += 1);
            b
        }
        None => {
            bump(|s| s.pool_misses += 1);
            BytesMut::with_capacity(POOL_BUF_CAPACITY)
        }
    };
    buf.clear();
    let mut buf = walk(buf, value).expect(INFALLIBLE);
    let bytes = buf.split().freeze();
    POOL.with(|p| p.set(Some(buf)));
    bump(|s| {
        s.encode_calls += 1;
        s.bytes_encoded += bytes.len() as u64;
    });
    bytes
}

/// FNV-1a digest over the exact bytes [`encode`] would produce, without
/// touching the encode pool or the hot-path stats ledger. The archive
/// fold digests every event-class record it absorbs; that bookkeeping
/// must not register as wire traffic (the encode-once gates count
/// every [`encode`] call), so the digest is the same serializer walk
/// feeding a hash state instead of a buffer.
pub fn digest_fnv1a<T: Serialize>(value: &T) -> u64 {
    walk(Fnv1a(0xcbf2_9ce4_8422_2325), value).expect(INFALLIBLE).0
}

/// Byte length `encode(value)` would produce, without allocating it.
pub fn encoded_len<T: Serialize>(value: &T) -> usize {
    let len = walk(0usize, value).expect(INFALLIBLE);
    bump(|s| s.len_walks += 1);
    len
}

/// Deserialize a value of type `T` from `bytes`, requiring full consumption.
pub fn decode<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut de = DbpDeserializer { input: bytes };
    let value = T::deserialize(&mut de)?;
    if !de.input.is_empty() {
        return Err(CodecError::TrailingBytes(de.input.len()));
    }
    Ok(value)
}

/// Deserialize a value of type `T` from a refcounted receive buffer,
/// requiring full consumption.
///
/// While this decode runs, `bytes` is registered as the thread's
/// *ingress source*: every frozen payload
/// ([`FrozenUpdate`](crate::FrozenUpdate)) encountered adopts its
/// already-on-the-wire encoding as a refcounted slice of `bytes`
/// instead of re-encoding (or copying) it. An update that transits
/// portal → home server → peer server is therefore serialized once at
/// its origin and never copied again: each hop's decode borrows the
/// receive buffer, and each hop's re-encode splices the borrowed bytes
/// verbatim. Nested calls save and restore the outer source, so the
/// registration is re-entrancy safe.
pub fn decode_borrowed<T: DeserializeOwned>(bytes: &Bytes) -> Result<T, CodecError> {
    let prev = INGRESS.with(|c| c.replace(Some(bytes.clone())));
    let result = decode(bytes.as_slice());
    INGRESS.with(|c| c.set(prev));
    result
}

/// Take the frozen-payload bytes captured by the innermost splice-token
/// decode, if the active deserializer was DBP's (foreign deserializers
/// leave this empty and the caller falls back to re-freezing).
pub(crate) fn take_captured() -> Option<Bytes> {
    CAPTURE.with(|c| c.take())
}

/// Record one FIFO drain served by a reusable scratch buffer (an
/// allocation that did not happen). Lives here so the hot-path
/// allocation ledger — pool hits, encode copies, drain reuses — is a
/// single [`CodecStats`] snapshot.
pub fn note_drain_reuse() {
    bump(|s| s.drain_reuses += 1);
}

// ---------------------------------------------------------------------------
// Serializer: one walk, three sinks
// ---------------------------------------------------------------------------

/// Where a serializer walk puts the bytes it produces. Monomorphised per
/// sink, so the counting walk compiles down to `len += n`.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

/// [`encode`]: the bytes themselves.
impl Sink for BytesMut {
    fn put(&mut self, bytes: &[u8]) {
        self.put_slice(bytes);
    }
}

/// [`encoded_len`]: only how many.
impl Sink for usize {
    fn put(&mut self, bytes: &[u8]) {
        *self += bytes.len();
    }
}

/// [`digest_fnv1a`]: the running 64-bit FNV-1a hash.
struct Fnv1a(u64);

impl Sink for Fnv1a {
    fn put(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Run the one DBP serializer walk over `value` into `out`.
fn walk<S: Sink, T: Serialize + ?Sized>(out: S, value: &T) -> Result<S, CodecError> {
    let mut ser = DbpSerializer { out, splice_armed: false };
    value.serialize(&mut ser)?;
    Ok(ser.out)
}

struct DbpSerializer<S> {
    out: S,
    /// Set while serializing the immediate payload of a
    /// [`SPLICE_TOKEN`] newtype struct: the next `serialize_bytes` call
    /// emits its input verbatim, with no length prefix.
    splice_armed: bool,
}

impl<S: Sink> DbpSerializer<S> {
    fn put_u32(&mut self, v: u32) {
        self.out.put(&v.to_le_bytes());
    }

    fn put_len(&mut self, len: usize) -> Result<(), CodecError> {
        let len32 =
            u32::try_from(len).map_err(|_| CodecError::Invalid("length > u32::MAX".into()))?;
        self.put_u32(len32);
        Ok(())
    }
}

macro_rules! ser_fixed {
    ($($name:ident($ty:ty),)*) => {$(
        fn $name(self, v: $ty) -> Result<(), CodecError> {
            self.out.put(&v.to_le_bytes());
            Ok(())
        }
    )*};
}

impl<S: Sink> ser::Serializer for &mut DbpSerializer<S> {
    type Ok = ();
    type Error = CodecError;
    type SerializeSeq = Self;
    type SerializeTuple = Self;
    type SerializeTupleStruct = Self;
    type SerializeTupleVariant = Self;
    type SerializeMap = Self;
    type SerializeStruct = Self;
    type SerializeStructVariant = Self;

    fn serialize_bool(self, v: bool) -> Result<(), CodecError> {
        self.out.put(&[v as u8]);
        Ok(())
    }

    ser_fixed! {
        serialize_i8(i8),
        serialize_i16(i16),
        serialize_i32(i32),
        serialize_i64(i64),
        serialize_u8(u8),
        serialize_u16(u16),
        serialize_u32(u32),
        serialize_u64(u64),
        serialize_f32(f32),
        serialize_f64(f64),
    }

    fn serialize_char(self, v: char) -> Result<(), CodecError> {
        self.put_u32(v as u32);
        Ok(())
    }

    fn serialize_str(self, v: &str) -> Result<(), CodecError> {
        self.put_len(v.len())?;
        self.out.put(v.as_bytes());
        Ok(())
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<(), CodecError> {
        if self.splice_armed {
            self.splice_armed = false;
            bump(|s| s.payload_splices += 1);
        } else {
            self.put_len(v.len())?;
        }
        self.out.put(v);
        Ok(())
    }

    fn serialize_none(self) -> Result<(), CodecError> {
        self.out.put(&[0]);
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), CodecError> {
        self.out.put(&[1]);
        value.serialize(self)
    }

    fn serialize_unit(self) -> Result<(), CodecError> {
        Ok(())
    }

    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), CodecError> {
        Ok(())
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<(), CodecError> {
        self.put_u32(variant_index);
        Ok(())
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        name: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        if name == SPLICE_TOKEN {
            self.splice_armed = true;
            let r = value.serialize(&mut *self);
            debug_assert!(!self.splice_armed, "splice token payload must be raw bytes");
            return r;
        }
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        self.put_u32(variant_index);
        value.serialize(self)
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<Self, CodecError> {
        let len = len.ok_or_else(|| CodecError::Invalid("seq without length".into()))?;
        self.put_len(len)?;
        Ok(self)
    }

    fn serialize_tuple(self, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }

    fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, CodecError> {
        self.put_u32(variant_index);
        Ok(self)
    }

    fn serialize_map(self, len: Option<usize>) -> Result<Self, CodecError> {
        let len = len.ok_or_else(|| CodecError::Invalid("map without length".into()))?;
        self.put_len(len)?;
        Ok(self)
    }

    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, CodecError> {
        self.put_u32(variant_index);
        Ok(self)
    }
}

macro_rules! ser_compound {
    ($tr:path, $func:ident) => {
        impl<S: Sink> $tr for &mut DbpSerializer<S> {
            type Ok = ();
            type Error = CodecError;
            fn $func<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
                value.serialize(&mut **self)
            }
            fn end(self) -> Result<(), CodecError> {
                Ok(())
            }
        }
    };
}

ser_compound!(ser::SerializeSeq, serialize_element);
ser_compound!(ser::SerializeTuple, serialize_element);
ser_compound!(ser::SerializeTupleStruct, serialize_field);
ser_compound!(ser::SerializeTupleVariant, serialize_field);

impl<S: Sink> ser::SerializeMap for &mut DbpSerializer<S> {
    type Ok = ();
    type Error = CodecError;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), CodecError> {
        key.serialize(&mut **self)
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

impl<S: Sink> ser::SerializeStruct for &mut DbpSerializer<S> {
    type Ok = ();
    type Error = CodecError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

impl<S: Sink> ser::SerializeStructVariant for &mut DbpSerializer<S> {
    type Ok = ();
    type Error = CodecError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Deserializer
// ---------------------------------------------------------------------------

struct DbpDeserializer<'de> {
    input: &'de [u8],
}

impl<'de> DbpDeserializer<'de> {
    fn take(&mut self, n: usize) -> Result<&'de [u8], CodecError> {
        if self.input.len() < n {
            return Err(CodecError::Eof);
        }
        let (head, tail) = self.input.split_at(n);
        self.input = tail;
        Ok(head)
    }

    fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn get_u32(&mut self) -> Result<u32, CodecError> {
        let mut b = self.take(4)?;
        Ok(b.get_u32_le())
    }

    fn get_len(&mut self) -> Result<usize, CodecError> {
        let len = self.get_u32()? as usize;
        if len > self.input.len() {
            // A length prefix can never exceed the remaining input; this
            // catches corruption early instead of over-allocating.
            return Err(CodecError::Invalid(format!(
                "length prefix {len} exceeds remaining {} bytes",
                self.input.len()
            )));
        }
        Ok(len)
    }
}

macro_rules! de_fixed {
    ($name:ident, $visit:ident, $n:expr, $get:ident) => {
        fn $name<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
            let mut b = self.take($n)?;
            visitor.$visit(b.$get())
        }
    };
}

impl<'de> de::Deserializer<'de> for &mut DbpDeserializer<'de> {
    type Error = CodecError;

    fn deserialize_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, CodecError> {
        Err(CodecError::Invalid("DBP is not self-describing".into()))
    }

    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        match self.get_u8()? {
            0 => visitor.visit_bool(false),
            1 => visitor.visit_bool(true),
            b => Err(CodecError::Invalid(format!("bool byte {b}"))),
        }
    }

    de_fixed!(deserialize_i8, visit_i8, 1, get_i8);
    de_fixed!(deserialize_i16, visit_i16, 2, get_i16_le);
    de_fixed!(deserialize_i32, visit_i32, 4, get_i32_le);
    de_fixed!(deserialize_i64, visit_i64, 8, get_i64_le);
    de_fixed!(deserialize_u8, visit_u8, 1, get_u8);
    de_fixed!(deserialize_u16, visit_u16, 2, get_u16_le);
    de_fixed!(deserialize_u32, visit_u32, 4, get_u32_le);
    de_fixed!(deserialize_u64, visit_u64, 8, get_u64_le);
    de_fixed!(deserialize_f32, visit_f32, 4, get_f32_le);
    de_fixed!(deserialize_f64, visit_f64, 8, get_f64_le);

    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let raw = self.get_u32()?;
        let c = char::from_u32(raw)
            .ok_or_else(|| CodecError::Invalid(format!("char scalar {raw:#x}")))?;
        visitor.visit_char(c)
    }

    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.get_len()?;
        let bytes = self.take(len)?;
        let s = std::str::from_utf8(bytes)
            .map_err(|e| CodecError::Invalid(format!("utf8: {e}")))?;
        visitor.visit_borrowed_str(s)
    }

    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        self.deserialize_str(visitor)
    }

    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.get_len()?;
        visitor.visit_borrowed_bytes(self.take(len)?)
    }

    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        self.deserialize_bytes(visitor)
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        match self.get_u8()? {
            0 => visitor.visit_none(),
            1 => visitor.visit_some(self),
            b => Err(CodecError::Invalid(format!("option byte {b}"))),
        }
    }

    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        visitor.visit_unit()
    }

    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_unit()
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        if name == SPLICE_TOKEN {
            // A frozen payload is decoding: its wire form is the plain
            // inline encoding of the body (spliced verbatim, no length
            // prefix), so the bytes the visitor consumes ARE the
            // payload's canonical encoding. Capture that consumed range
            // — as a refcounted slice of the registered ingress buffer
            // when the range lies inside it (zero-copy), else by one
            // memcpy — and stash it for `FrozenUpdate`'s visitor to
            // adopt in place of a re-encoding serializer walk.
            let before = self.input;
            let value = visitor.visit_newtype_struct(&mut *self)?;
            let consumed = before.len() - self.input.len();
            let raw = &before[..consumed];
            let sliced = INGRESS.with(|c| {
                let src = c.take();
                let out = src.as_ref().and_then(|s| {
                    let base = s.as_slice().as_ptr() as usize;
                    let off = (raw.as_ptr() as usize).checked_sub(base)?;
                    (off + raw.len() <= s.len()).then(|| s.slice(off..off + raw.len()))
                });
                c.set(src);
                out
            });
            let bytes = match sliced {
                Some(b) => {
                    bump(|s| s.ingress_slices += 1);
                    b
                }
                None => {
                    bump(|s| s.ingress_copies += 1);
                    Bytes::copy_from_slice(raw)
                }
            };
            bump(|s| s.frozen_decodes += 1);
            CAPTURE.with(|c| c.set(Some(bytes)));
            return Ok(value);
        }
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.get_len()?;
        visitor.visit_seq(Counted { de: self, remaining: len })
    }

    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_seq(Counted { de: self, remaining: len })
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        self.deserialize_tuple(len, visitor)
    }

    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.get_len()?;
        visitor.visit_map(Counted { de: self, remaining: len })
    }

    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        self.deserialize_tuple(fields.len(), visitor)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_enum(EnumAccess { de: self })
    }

    fn deserialize_identifier<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, CodecError> {
        Err(CodecError::Invalid("DBP does not encode identifiers".into()))
    }

    fn deserialize_ignored_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, CodecError> {
        Err(CodecError::Invalid("cannot skip values in a non-self-describing format".into()))
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

struct Counted<'de, 'a> {
    de: &'a mut DbpDeserializer<'de>,
    remaining: usize,
}

impl<'de, 'a> de::SeqAccess<'de> for Counted<'de, 'a> {
    type Error = CodecError;

    fn next_element_seed<T: de::DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, CodecError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

impl<'de, 'a> de::MapAccess<'de> for Counted<'de, 'a> {
    type Error = CodecError;

    fn next_key_seed<K: de::DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, CodecError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn next_value_seed<V: de::DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, CodecError> {
        seed.deserialize(&mut *self.de)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

struct EnumAccess<'de, 'a> {
    de: &'a mut DbpDeserializer<'de>,
}

impl<'de, 'a> de::EnumAccess<'de> for EnumAccess<'de, 'a> {
    type Error = CodecError;
    type Variant = VariantAccess<'de, 'a>;

    fn variant_seed<V: de::DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self::Variant), CodecError> {
        let index = self.de.get_u32()?;
        let value = seed.deserialize(index.into_deserializer())?;
        Ok((value, VariantAccess { de: self.de }))
    }
}

struct VariantAccess<'de, 'a> {
    de: &'a mut DbpDeserializer<'de>,
}

impl<'de, 'a> de::VariantAccess<'de> for VariantAccess<'de, 'a> {
    type Error = CodecError;

    fn unit_variant(self) -> Result<(), CodecError> {
        Ok(())
    }

    fn newtype_variant_seed<T: de::DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, CodecError> {
        seed.deserialize(self.de)
    }

    fn tuple_variant<V: Visitor<'de>>(self, len: usize, visitor: V) -> Result<V::Value, CodecError> {
        de::Deserializer::deserialize_tuple(self.de, len, visitor)
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        de::Deserializer::deserialize_tuple(self.de, fields.len(), visitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    #[derive(Serialize, Deserialize, Debug, PartialEq, Clone)]
    enum Sample {
        Unit,
        New(u32),
        Tup(u8, String),
        Struct { a: i64, b: Option<f64>, c: Vec<bool> },
    }

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    struct Nested {
        name: String,
        items: Vec<Sample>,
        table: BTreeMap<String, u64>,
        blob: Vec<u8>,
    }

    fn roundtrip<T: Serialize + de::DeserializeOwned + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = encode(v);
        assert_eq!(bytes.len(), encoded_len(v), "encoded_len disagrees with encode");
        let back: T = decode(&bytes).expect("decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&true);
        roundtrip(&-42i64);
        roundtrip(&3.25f64);
        roundtrip(&"hello — ünïcode".to_string());
        roundtrip(&Some(7u16));
        roundtrip(&Option::<u16>::None);
        roundtrip(&'λ');
        roundtrip(&(1u8, "two".to_string(), 3.0f32));
    }

    #[test]
    fn enums_roundtrip() {
        roundtrip(&Sample::Unit);
        roundtrip(&Sample::New(99));
        roundtrip(&Sample::Tup(1, "x".into()));
        roundtrip(&Sample::Struct { a: -5, b: Some(0.5), c: vec![true, false] });
    }

    #[test]
    fn digest_matches_encode_bytes_and_stays_off_the_ledger() {
        let v = Sample::Struct { a: -5, b: Some(0.5), c: vec![true, false, true] };
        let mut expect = 0xcbf2_9ce4_8422_2325u64;
        for &b in encode(&v).as_ref() {
            expect ^= u64::from(b);
            expect = expect.wrapping_mul(0x100_0000_01b3);
        }
        let before = stats();
        assert_eq!(digest_fnv1a(&v), expect, "digest must hash the exact encode bytes");
        let after = stats();
        assert_eq!(after.encode_calls, before.encode_calls, "digest must not count as an encode");
        assert_eq!(after.bytes_encoded, before.bytes_encoded);
        assert_eq!(after.pool_hits, before.pool_hits, "digest must not touch the encode pool");
        assert_eq!(after.pool_misses, before.pool_misses);
    }

    #[test]
    fn nested_roundtrip() {
        let mut table = BTreeMap::new();
        table.insert("alpha".to_string(), 1u64);
        table.insert("beta".to_string(), 2u64);
        roundtrip(&Nested {
            name: "discover".into(),
            items: vec![Sample::Unit, Sample::New(4), Sample::Tup(9, "q".into())],
            table,
            blob: (0..=255u8).collect(),
        });
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode(&5u32).to_vec();
        bytes.push(0);
        let err = decode::<u32>(&bytes).unwrap_err();
        assert_eq!(err, CodecError::TrailingBytes(1));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = encode(&"hello".to_string());
        // Truncating the payload makes the length prefix exceed the input.
        assert!(matches!(
            decode::<String>(&bytes[..bytes.len() - 1]).unwrap_err(),
            CodecError::Invalid(_)
        ));
        // Truncating inside the length prefix itself is a plain EOF.
        assert_eq!(decode::<String>(&bytes[..2]).unwrap_err(), CodecError::Eof);
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        // A u32::MAX length prefix must not cause a huge allocation.
        let bytes = [0xff, 0xff, 0xff, 0xff];
        let err = decode::<String>(&bytes).unwrap_err();
        assert!(matches!(err, CodecError::Invalid(_)));
    }

    #[test]
    fn bad_variant_index_rejected() {
        let bytes = encode(&17u32); // variant index 17 does not exist
        assert!(decode::<Sample>(&bytes).is_err());
    }

    #[test]
    fn compactness() {
        // A unit variant is exactly 4 bytes; a u64 exactly 8.
        assert_eq!(encode(&Sample::Unit).len(), 4);
        assert_eq!(encode(&7u64).len(), 8);
        assert_eq!(encode(&"abc".to_string()).len(), 7);
    }

    /// Serializes as a raw splice of pre-encoded bytes.
    struct Spliced(Bytes);

    impl Serialize for Spliced {
        fn serialize<S: ser::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            struct Raw<'a>(&'a [u8]);
            impl Serialize for Raw<'_> {
                fn serialize<S: ser::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                    s.serialize_bytes(self.0)
                }
            }
            s.serialize_newtype_struct(SPLICE_TOKEN, &Raw(&self.0))
        }
    }

    #[test]
    fn splice_is_byte_identical_to_inline() {
        let inner = Sample::Struct { a: 9, b: Some(1.5), c: vec![true] };
        let inline = encode(&(7u32, inner.clone(), "tail".to_string()));
        let spliced = encode(&(7u32, Spliced(encode(&inner)), "tail".to_string()));
        assert_eq!(inline, spliced);
        // The counting sink agrees with both.
        assert_eq!(
            encoded_len(&(7u32, Spliced(encode(&inner)), "tail".to_string())),
            inline.len()
        );
    }

    #[test]
    fn splice_skips_length_prefix() {
        // Raw bytes via the splice token occupy exactly their own length;
        // ordinary `serialize_bytes` adds the 4-byte u32 prefix.
        let raw = encode(&42u64);
        assert_eq!(encode(&Spliced(raw.clone())).len(), raw.len());
        assert_eq!(encode(&serde_bytes_wrapper(&raw)).len(), raw.len() + 4);
    }

    /// Plain `serialize_bytes` (length-prefixed) for contrast.
    fn serde_bytes_wrapper(b: &Bytes) -> impl Serialize + '_ {
        struct Plain<'a>(&'a [u8]);
        impl Serialize for Plain<'_> {
            fn serialize<S: ser::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.serialize_bytes(self.0)
            }
        }
        Plain(b)
    }

    /// Opens a compound the way no derived impl does.
    enum Malformed {
        SeqWithoutLen,
        MapWithoutLen,
        SeqTooLong,
    }

    impl Serialize for Malformed {
        fn serialize<S: ser::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            match self {
                Malformed::SeqWithoutLen => ser::SerializeSeq::end(s.serialize_seq(None)?),
                Malformed::MapWithoutLen => ser::SerializeMap::end(s.serialize_map(None)?),
                Malformed::SeqTooLong => {
                    ser::SerializeSeq::end(s.serialize_seq(Some(u32::MAX as usize + 1))?)
                }
            }
        }
    }

    #[test]
    fn all_three_sinks_reject_the_same_malformed_input() {
        for (bad, why) in [
            (Malformed::SeqWithoutLen, "seq without length"),
            (Malformed::MapWithoutLen, "map without length"),
            (Malformed::SeqTooLong, "length > u32::MAX"),
        ] {
            let expect = Err(CodecError::Invalid(why.into()));
            assert_eq!(walk(BytesMut::new(), &bad).map(drop), expect, "encode sink, {why}");
            assert_eq!(walk(0usize, &bad).map(drop), expect, "counting sink, {why}");
            assert_eq!(walk(Fnv1a(0), &bad).map(drop), expect, "digest sink, {why}");
        }
    }

    #[test]
    fn stats_track_encodes_and_pool() {
        reset_stats();
        let before = stats();
        assert_eq!(before, CodecStats::default());
        let a = encode(&Sample::New(1));
        let b = encode(&Sample::New(2));
        let after = stats();
        assert_eq!(after.encode_calls, 2);
        assert_eq!(after.bytes_encoded, (a.len() + b.len()) as u64);
        // First encode on this thread may miss; the second must hit.
        assert!(after.pool_hits >= 1);
        let _ = encoded_len(&Sample::New(3));
        assert_eq!(stats().len_walks, after.len_walks + 1);
        reset_stats();
        assert_eq!(stats(), CodecStats::default());
    }
}
