//! DBP — the "Discover Binary Protocol" codec.
//!
//! The paper's optimized application↔server path uses "a more optimized,
//! custom protocol using TCP sockets", and its other paths serialize Java
//! objects. This module is our equivalent: a compact, non-self-describing
//! binary format, written and read by one trait, [`Dbp`]. Integers are
//! fixed-width little-endian; strings, sequences and maps are
//! length-prefixed with a `u32`; a struct is its fields in order; an
//! enum is a `u32` declaration-order variant index followed by the
//! variant's fields; `Option` is a single presence byte; `Box` and `Arc`
//! are what they point to. The wire types are declared through the
//! crate's `dbp!` macro, which writes both halves from the one
//! definition.
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
//! The first three are one [`Dbp::walk`] over three sinks (a buffer, a
//! byte count, a hash state), so they cannot disagree on a byte. The
//! last two are one [`Dbp::read`] from a [`Reader`].
//!
//! Three hot-path mechanisms keep broadcast fan-out cheap:
//! * a per-thread **pooled encode buffer** ([`encode`] fills a
//!   `BytesMut` of the pool's capacity instead of starting at 64 bytes
//!   and growing every call, and finalizes by *splitting* the contents
//!   off it — no copy; with the `vendor/bytes` stand-in the whole `Vec`
//!   leaves with the result and the pool is allocated a new one of that
//!   capacity, so the result pins the pool's capacity, not its own
//!   length),
//! * **pre-encoded payloads**: a [`FrozenUpdate`](crate::FrozenUpdate)
//!   walks as its frozen bytes, put into the sink verbatim, so a payload
//!   frozen once is never walked again,
//! * a **zero-copy ingress path** ([`decode_borrowed`]): the reader
//!   carries the receive buffer, and a frozen payload takes the range it
//!   was read from as a refcounted slice of that buffer — the payload is
//!   never re-encoded and never copied after its origin.
//!
//! All three are observable through the deterministic per-thread
//! [`CodecStats`] counters ([`stats`] / [`reset_stats`]).

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hash;
use std::rc::Rc;
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};

use crate::ids::Name;

/// Initial capacity of pooled encode buffers: large enough that a
/// typical update message (well under 1 KiB) never grows one. It is also
/// what every [`encode`] allocates and every result holds on to, until a
/// larger message has grown the pool's buffer: from then on, that.
const POOL_BUF_CAPACITY: usize = 1024;

/// Errors produced by the codec. None allocates, so rejecting hostile
/// input costs no allocation either.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    Eof,
    /// Trailing bytes remained after decoding the value.
    TrailingBytes(usize),
    /// A length prefix, variant index, or bool, option, char or text
    /// byte was out of range.
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Eof => write!(f, "unexpected end of input"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            CodecError::Invalid(s) => write!(f, "invalid encoding: {s}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Deterministic per-thread codec activity counters.
///
/// Thread-local (rather than global atomics) so parallel experiment
/// threads in the bench harness each observe their own, fully
/// deterministic counts. Snapshot with [`stats`], zero with
/// [`reset_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodecStats {
    /// Full walks that materialized bytes ([`encode`] calls).
    pub encode_calls: u64,
    /// Total bytes produced by those walks.
    pub bytes_encoded: u64,
    /// Size-only walks ([`encoded_len`] calls).
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
    /// re-encoding walk — the wire bytes are adopted verbatim).
    pub frozen_decodes: u64,
    /// Frozen-payload captures served as refcounted slices of the
    /// receive buffer ([`decode_borrowed`]) — zero-copy.
    pub ingress_slices: u64,
    /// Frozen-payload captures that had to copy (plain [`decode`]).
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

/// Serialize `value` to bytes using this thread's pooled buffer.
///
/// The pooled `BytesMut` is cleared, filled by a single walk, then
/// *split*: the contents leave as the immutable [`Bytes`] result
/// without a finalizing memcpy (see [`CodecStats::encode_copy_bytes`]).
/// The `vendor/bytes` stand-in has no shared-buffer split, so the result
/// takes the buffer's whole `Vec` — its length is exact, its allocation
/// is the pool's capacity — and the pool gets a newly allocated `Vec` of
/// that capacity back: one pool-sized allocation per call (DESIGN.md §8,
/// "Why `encode` still gives its pool buffer away").
pub fn encode<T: Dbp + ?Sized>(value: &T) -> Bytes {
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
    value.walk(&mut buf);
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
/// every [`encode`] call), so the digest is the same walk feeding a hash
/// state instead of a buffer.
pub fn digest_fnv1a<T: Dbp + ?Sized>(value: &T) -> u64 {
    let mut hash = Fnv1a(0xcbf2_9ce4_8422_2325);
    value.walk(&mut hash);
    hash.0
}

/// Byte length `encode(value)` would produce, without allocating it.
pub fn encoded_len<T: Dbp + ?Sized>(value: &T) -> usize {
    let mut len = 0;
    value.walk(&mut len);
    bump(|s| s.len_walks += 1);
    len
}

/// Deserialize a value of type `T` from `bytes`, requiring full consumption.
pub fn decode<T: Dbp>(bytes: &[u8]) -> Result<T, CodecError> {
    Reader { input: bytes, ingress: None }.read_all()
}

/// Deserialize a value of type `T` from a refcounted receive buffer,
/// requiring full consumption.
///
/// The reader carries `bytes` as its *ingress source*: every frozen
/// payload ([`FrozenUpdate`](crate::FrozenUpdate)) encountered adopts
/// its already-on-the-wire encoding as a refcounted slice of `bytes`
/// instead of re-encoding (or copying) it. An update that transits
/// portal → home server → peer server is therefore serialized once at
/// its origin and never copied again: each hop's decode borrows the
/// receive buffer, and each hop's re-encode puts the borrowed bytes in
/// verbatim.
pub fn decode_borrowed<T: Dbp>(bytes: &Bytes) -> Result<T, CodecError> {
    Reader { input: bytes.as_slice(), ingress: Some(bytes) }.read_all()
}

/// Record one FIFO drain served by a reusable scratch buffer (an
/// allocation that did not happen). Lives here so the hot-path
/// allocation ledger — pool hits, encode copies, drain reuses — is a
/// single [`CodecStats`] snapshot.
pub fn note_drain_reuse() {
    bump(|s| s.drain_reuses += 1);
}

// ---------------------------------------------------------------------------
// The trait, its sinks and its reader
// ---------------------------------------------------------------------------

/// A type with a DBP encoding: [`walk`](Dbp::walk) writes it and
/// [`read`](Dbp::read) reads it back.
pub trait Dbp {
    /// Feed this value's encoding to `out`, front to back.
    fn walk<S: Sink>(&self, out: &mut S);

    /// Read one value off the front of `r`.
    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError>
    where
        Self: Sized;
}

/// Where a walk puts the bytes it produces. Monomorphised per sink, so
/// the counting walk compiles down to `len += n`.
pub trait Sink {
    /// Take the next bytes of the encoding.
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

/// Put pre-encoded bytes into `out` verbatim: no length prefix, no walk
/// of what they encode, counted as a splice.
pub(crate) fn splice<S: Sink>(out: &mut S, encoded: &[u8]) {
    bump(|s| s.payload_splices += 1);
    out.put(encoded);
}

/// A length prefix, the one place a `usize` becomes a wire `u32`.
fn put_len<S: Sink>(out: &mut S, len: usize) {
    let len = u32::try_from(len).expect("a DBP length fits in a u32");
    len.walk(out);
}

/// The input a [`Dbp::read`] has yet to consume, and the refcounted
/// receive buffer it lies in when [`decode_borrowed`] is reading.
pub struct Reader<'a> {
    input: &'a [u8],
    ingress: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    fn read_all<T: Dbp>(mut self) -> Result<T, CodecError> {
        let value = T::read(&mut self)?;
        match self.input.len() {
            0 => Ok(value),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.input.len() < n {
            return Err(CodecError::Eof);
        }
        let (head, tail) = self.input.split_at(n);
        self.input = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// A length prefix. It can never exceed the input left, which
    /// catches corruption before anything is allocated for it.
    fn len_prefix(&mut self) -> Result<usize, CodecError> {
        let len = u32::read(self)? as usize;
        if len > self.input.len() {
            return Err(CodecError::Invalid("length prefix exceeds the input left"));
        }
        Ok(len)
    }

    /// A byte that must be 0 or 1.
    fn flag(&mut self, what: &'static str) -> Result<bool, CodecError> {
        match self.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid(what)),
        }
    }

    fn text(&mut self) -> Result<&'a str, CodecError> {
        let len = self.len_prefix()?;
        std::str::from_utf8(self.take(len)?).map_err(|_| CodecError::Invalid("text is not UTF-8"))
    }

    /// Read a `T` together with the bytes it was read from: DBP is
    /// deterministic, so they are `encode(&value)` without the walk. A
    /// refcounted slice of the receive buffer under [`decode_borrowed`],
    /// one copy under [`decode`].
    pub(crate) fn capture<T: Dbp>(&mut self) -> Result<(T, Bytes), CodecError> {
        let start = self.input;
        let value = T::read(self)?;
        let len = start.len() - self.input.len();
        let bytes = match self.ingress {
            Some(buf) => {
                bump(|s| s.ingress_slices += 1);
                let at = buf.len() - start.len();
                buf.slice(at..at + len)
            }
            None => {
                bump(|s| s.ingress_copies += 1);
                Bytes::copy_from_slice(&start[..len])
            }
        };
        bump(|s| s.frozen_decodes += 1);
        Ok((value, bytes))
    }
}

// ---------------------------------------------------------------------------
// The std types the wire types are made of
// ---------------------------------------------------------------------------

macro_rules! fixed_width {
    ($($ty:ty)*) => {$(
        impl Dbp for $ty {
            fn walk<S: Sink>(&self, out: &mut S) {
                out.put(&self.to_le_bytes());
            }
            fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                r.array().map(<$ty>::from_le_bytes)
            }
        }
    )*};
}

fixed_width!(u8 u16 u32 u64 i8 i16 i32 i64 f32 f64);

impl Dbp for bool {
    fn walk<S: Sink>(&self, out: &mut S) {
        out.put(&[u8::from(*self)]);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.flag("bool byte")
    }
}

impl Dbp for char {
    fn walk<S: Sink>(&self, out: &mut S) {
        u32::from(*self).walk(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        char::from_u32(u32::read(r)?).ok_or(CodecError::Invalid("char scalar"))
    }
}

impl Dbp for str {
    fn walk<S: Sink>(&self, out: &mut S) {
        put_len(out, self.len());
        out.put(self.as_bytes());
    }
}

impl Dbp for String {
    fn walk<S: Sink>(&self, out: &mut S) {
        self.as_str().walk(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.text().map(String::from)
    }
}

/// On the wire a [`Name`] is the `String` it replaced, byte for byte.
impl Dbp for Name {
    fn walk<S: Sink>(&self, out: &mut S) {
        self.as_str().walk(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.text().map(Name::from)
    }
}

impl<T: Dbp> Dbp for Option<T> {
    fn walk<S: Sink>(&self, out: &mut S) {
        match self {
            None => out.put(&[0]),
            Some(value) => {
                out.put(&[1]);
                value.walk(out);
            }
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(if r.flag("option byte")? { Some(T::read(r)?) } else { None })
    }
}

impl<T: Dbp, E: Dbp> Dbp for Result<T, E> {
    fn walk<S: Sink>(&self, out: &mut S) {
        match self {
            Ok(value) => {
                0u32.walk(out);
                value.walk(out);
            }
            Err(error) => {
                1u32.walk(out);
                error.walk(out);
            }
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u32::read(r)? {
            0 => T::read(r).map(Ok),
            1 => E::read(r).map(Err),
            _ => Err(CodecError::Invalid("variant index")),
        }
    }
}

impl<T: Dbp> Dbp for Box<T> {
    fn walk<S: Sink>(&self, out: &mut S) {
        (**self).walk(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        T::read(r).map(Box::new)
    }
}

impl<T: Dbp> Dbp for Arc<T> {
    fn walk<S: Sink>(&self, out: &mut S) {
        (**self).walk(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        T::read(r).map(Arc::new)
    }
}

impl<T: Dbp> Dbp for Rc<T> {
    fn walk<S: Sink>(&self, out: &mut S) {
        (**self).walk(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        T::read(r).map(Rc::new)
    }
}

impl<T: Dbp> Dbp for [T] {
    fn walk<S: Sink>(&self, out: &mut S) {
        put_len(out, self.len());
        for item in self {
            item.walk(out);
        }
    }
}

impl<T: Dbp> Dbp for Vec<T> {
    fn walk<S: Sink>(&self, out: &mut S) {
        self.as_slice().walk(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.len_prefix()?;
        let mut items = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            items.push(T::read(r)?);
        }
        Ok(items)
    }
}

macro_rules! map {
    ($map:ident, $($bound:path),+) => {
        impl<K: Dbp $(+ $bound)+, V: Dbp> Dbp for $map<K, V> {
            fn walk<S: Sink>(&self, out: &mut S) {
                put_len(out, self.len());
                for (key, value) in self {
                    key.walk(out);
                    value.walk(out);
                }
            }
            fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let len = r.len_prefix()?;
                let mut map = $map::new();
                for _ in 0..len {
                    let key = K::read(r)?;
                    map.insert(key, V::read(r)?);
                }
                Ok(map)
            }
        }
    };
}

map!(BTreeMap, Ord);
map!(HashMap, Hash, Eq);

macro_rules! tuple {
    ($($item:ident)+) => {
        impl<$($item: Dbp),+> Dbp for ($($item,)+) {
            #[allow(non_snake_case)]
            fn walk<S: Sink>(&self, out: &mut S) {
                let ($($item,)+) = self;
                $($item.walk(out);)+
            }
            fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(($($item::read(r)?,)+))
            }
        }
    };
}

tuple!(A B);
tuple!(A B C);
tuple!(A B C D);
tuple!(A B C D E);

// ---------------------------------------------------------------------------
// The wire types
// ---------------------------------------------------------------------------

/// Declare wire types and their [`Dbp`] impls from one definition each.
///
/// Takes any number of non-generic structs (named fields, or one
/// unnamed field) and enums (unit variants, variants of one or two
/// unnamed fields, and variants with named fields), attributes and docs
/// included. A struct is its fields in order; an enum is its `u32`
/// declaration-order variant index, then the variant's fields in order.
/// `@bind` names the fields of a tuple variant: its type is only there
/// to say the field exists.
macro_rules! dbp {
    () => {};
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_attr:meta])* $field_vis:vis $field:ident: $ty:ty),* $(,)?
        }
        $($rest:tt)*
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $($(#[$field_attr])* $field_vis $field: $ty),*
        }

        impl $crate::codec::Dbp for $name {
            fn walk<S: $crate::codec::Sink>(&self, out: &mut S) {
                $($crate::codec::Dbp::walk(&self.$field, out);)*
            }
            fn read(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok($name { $($field: $crate::codec::Dbp::read(r)?),* })
            }
        }

        $crate::codec::dbp! { $($rest)* }
    };
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident($field_vis:vis $ty:ty);
        $($rest:tt)*
    ) => {
        $(#[$attr])*
        $vis struct $name($field_vis $ty);

        impl $crate::codec::Dbp for $name {
            fn walk<S: $crate::codec::Sink>(&self, out: &mut S) {
                $crate::codec::Dbp::walk(&self.0, out);
            }
            fn read(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok($name($crate::codec::Dbp::read(r)?))
            }
        }

        $crate::codec::dbp! { $($rest)* }
    };
    (
        $(#[$attr:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$variant_attr:meta])*
                $variant:ident
                $(($a:ty $(, $b:ty)?))?
                $({ $($(#[$field_attr:meta])* $field:ident: $ty:ty),* $(,)? })?
            ),* $(,)?
        }
        $($rest:tt)*
    ) => {
        $(#[$attr])*
        $vis enum $name {
            $(
                $(#[$variant_attr])*
                $variant
                $(($a $(, $b)?))?
                $({ $($(#[$field_attr])* $field: $ty),* })?
            ),*
        }

        const _: () = {
            use $crate::codec::{CodecError, Dbp, Reader, Sink};

            /// The variants in declaration order, so `as u32` is the
            /// wire index.
            enum Index {
                $($variant),*
            }

            impl Dbp for $name {
                fn walk<S: Sink>(&self, out: &mut S) {
                    match self {
                        $(
                            Self::$variant
                            $((
                                $crate::codec::dbp!(@bind $a, a)
                                $(, $crate::codec::dbp!(@bind $b, b))?
                            ))?
                            $({ $($field),* })?
                            => {
                                (Index::$variant as u32).walk(out);
                                $(
                                    $crate::codec::dbp!(@bind $a, a).walk(out);
                                    $($crate::codec::dbp!(@bind $b, b).walk(out);)?
                                )?
                                $($($field.walk(out);)*)?
                            }
                        )*
                    }
                }

                fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                    const ORDER: &[Index] = &[$(Index::$variant),*];
                    match ORDER.get(u32::read(r)? as usize) {
                        $(
                            Some(Index::$variant) => Ok(Self::$variant
                                $((<$a>::read(r)? $(, <$b>::read(r)?)?))?
                                $({ $($field: Dbp::read(r)?),* })?),
                        )*
                        None => Err(CodecError::Invalid("variant index")),
                    }
                }
            }
        };

        $crate::codec::dbp! { $($rest)* }
    };
    (@bind $ty:ty, $binding:ident) => {
        $binding
    };
}

pub(crate) use dbp;

#[cfg(test)]
mod tests {
    use super::*;

    dbp! {
        #[derive(Debug, PartialEq, Clone)]
        enum Sample {
            Unit,
            New(u32),
            Tup(u8, String),
            Struct { a: i64, b: Option<f64>, c: Vec<bool> },
        }

        #[derive(Debug, PartialEq)]
        struct Nested {
            name: String,
            items: Vec<Sample>,
            table: BTreeMap<String, u64>,
            blob: Vec<u8>,
        }
    }

    fn roundtrip<T: Dbp + PartialEq + std::fmt::Debug>(v: &T) {
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

    /// A pre-encoded `Sample` that walks as its bytes and reads back
    /// keeping the bytes it was read from: what `FrozenUpdate` does for
    /// an update.
    struct Spliced(Sample, Bytes);

    impl Spliced {
        fn new(sample: Sample) -> Self {
            let bytes = encode(&sample);
            Spliced(sample, bytes)
        }
    }

    impl Dbp for Spliced {
        fn walk<S: Sink>(&self, out: &mut S) {
            splice(out, &self.1);
        }
        fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            let (sample, bytes) = r.capture()?;
            Ok(Spliced(sample, bytes))
        }
    }

    #[test]
    fn splice_is_byte_identical_to_inline() {
        let inner = Sample::Struct { a: 9, b: Some(1.5), c: vec![true] };
        let inline = encode(&(7u32, inner.clone(), "tail".to_string()));
        let spliced = (7u32, Spliced::new(inner.clone()), "tail".to_string());
        assert_eq!(encode(&spliced), inline);
        // The counting and hashing sinks agree with both.
        assert_eq!(encoded_len(&spliced), inline.len());
        let inline_digest = digest_fnv1a(&(7u32, inner.clone(), "tail".to_string()));
        assert_eq!(digest_fnv1a(&spliced), inline_digest);
        // Read back, it keeps exactly the bytes it was read from.
        let (_, back, _): (u32, Spliced, String) = decode(&inline).expect("decode");
        assert_eq!(back.0, inner);
        assert_eq!(back.1, encode(&inner));
    }

    #[test]
    fn splice_skips_length_prefix() {
        // Spliced bytes occupy exactly their own length; the same bytes
        // as a `Vec<u8>` add the 4-byte u32 prefix.
        let raw = encode(&Sample::New(42));
        assert_eq!(encode(&Spliced::new(Sample::New(42))).len(), raw.len());
        assert_eq!(encode(&raw.to_vec()).len(), raw.len() + 4);
    }

    /// Encodes as nothing, so 2³² of them take no memory.
    #[derive(Clone, Copy)]
    struct Nothing;

    impl Dbp for Nothing {
        fn walk<S: Sink>(&self, _: &mut S) {}
        fn read(_: &mut Reader<'_>) -> Result<Self, CodecError> {
            Ok(Nothing)
        }
    }

    #[test]
    fn all_three_sinks_refuse_a_length_past_u32_max() {
        let too_long = [Nothing; u32::MAX as usize + 1];
        let too_long = &too_long[..];
        assert!(std::panic::catch_unwind(|| encode(too_long)).is_err(), "encode sink");
        assert!(std::panic::catch_unwind(|| encoded_len(too_long)).is_err(), "counting sink");
        assert!(std::panic::catch_unwind(|| digest_fnv1a(too_long)).is_err(), "digest sink");
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
