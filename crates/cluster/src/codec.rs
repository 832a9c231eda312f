//! Binary wire format.
//!
//! A small, explicit, length-checked binary codec. Fixed-width
//! little-endian primitives; collections are length-prefixed with `u32`.
//! Every type that crosses the simulated network implements [`Wire`];
//! the byte counts produced here are the "Network (bytes)" series of the
//! paper's figures, so the format is deliberately compact (a query costs
//! `O(b_q)`, a plan `O(b_p)` — both linear in the query size).

use crate::transport::Hello;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use mpq_cost::{CostVector, JoinOp, Objective, Order, ScanOp};
use mpq_dp::WorkerStats;
use mpq_model::{Catalog, JoinGraph, Predicate, Query, TableSet, TableStats};
use mpq_partition::PlanSpace;
use mpq_plan::{Plan, PlanEntry, PlanError, PlanNode, PlanOp};
use std::fmt;

/// Error produced when decoding a malformed or truncated message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes remained than the decoder needed.
    Truncated {
        /// Bytes required by the read.
        needed: usize,
        /// Bytes that were available.
        available: usize,
    },
    /// An enum discriminant byte had no defined meaning.
    BadTag {
        /// The offending discriminant.
        tag: u8,
        /// The type being decoded.
        ty: &'static str,
    },
    /// A length prefix exceeded the sanity limit.
    LengthOverflow(u64),
    /// A table-index byte exceeded the [`TableSet`] capacity (64 tables),
    /// so it cannot name a real table of any decodable query — or, for a
    /// predicate endpoint inside a `Query`, that query's own table count.
    IndexOutOfRange {
        /// The offending index byte.
        index: u8,
        /// The type being decoded.
        ty: &'static str,
    },
    /// A query's table count was 0 or exceeded the [`TableSet`] capacity:
    /// no optimizer accepts it (the DP kernels assert on these sizes), so
    /// it must not survive decoding on a resident worker.
    TableCount(usize),
    /// A multi-objective approximation factor (given by its bits) was not
    /// a finite number ≥ 1: the pruning policy asserts on it, so it must
    /// not survive decoding on a resident worker either.
    ApproximationFactor(u64),
    /// A query carried a statistic no catalog can have
    /// ([`Query::invalid_statistic`]): a cardinality or tuple width that
    /// is NaN, infinite or negative, or a selectivity outside `0 < s <= 1`.
    Statistic {
        /// The offending field.
        field: &'static str,
        /// Its value, as bits.
        bits: u64,
    },
    /// A plan's operators were not one tree ([`Plan::validate`]): none at
    /// all (a count of 0), a join short of an operand, more than one root,
    /// or a table scanned twice. (An operator byte past the joins is
    /// [`DecodeError::BadTag`], a count past 127
    /// [`DecodeError::LengthOverflow`].)
    PlanShape(PlanError),
    /// [`Wire::from_bytes`] decoded a whole value and this many bytes were
    /// left over: the buffer is not one message.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated message: needed {needed} bytes, had {available}"
                )
            }
            DecodeError::BadTag { tag, ty } => write!(f, "invalid tag {tag} for {ty}"),
            DecodeError::LengthOverflow(n) => write!(f, "length prefix {n} exceeds limit"),
            DecodeError::IndexOutOfRange { index, ty } => write!(
                f,
                "table index {index} in {ty} names no table: past the query's tables \
                 or the {}-table wire limit",
                TableSet::MAX_TABLES
            ),
            DecodeError::TableCount(n) => write!(
                f,
                "query table count {n} outside 1..={}",
                TableSet::MAX_TABLES
            ),
            DecodeError::ApproximationFactor(bits) => write!(
                f,
                "approximation factor {} is not a finite number >= 1",
                f64::from_bits(*bits)
            ),
            DecodeError::Statistic { field, bits } => write!(
                f,
                "query statistic {field} = {} is not one a catalog can have",
                f64::from_bits(*bits)
            ),
            DecodeError::PlanShape(e) => write!(f, "malformed plan: {e}"),
            DecodeError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after a complete message")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Error produced when a value cannot be represented on the wire.
///
/// [`Wire::encode`] itself stays infallible (most call sites encode
/// values that are valid by construction); a violation instead **poisons**
/// the [`Encoder`] and writes an unambiguous sentinel that every decoder
/// rejects, so the corruption can never round-trip silently. Boundary
/// code that accepts caller-supplied values checks via
/// [`Wire::try_to_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// A table index ≥ [`TableSet::MAX_TABLES`] cannot name a real table
    /// (table sets are a `u64` bitset) and does not fit the wire's
    /// one-byte index field without truncation.
    TableIndexOutOfRange {
        /// The offending index.
        index: usize,
    },
    /// A plan of this many operators: one over at most 64 tables has
    /// `1..=127`, and the wire's count is one byte.
    PlanLength {
        /// The plan's operator count.
        ops: usize,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::TableIndexOutOfRange { index } => write!(
                f,
                "table index {index} exceeds the {}-table wire limit",
                TableSet::MAX_TABLES
            ),
            EncodeError::PlanLength { ops } => {
                write!(
                    f,
                    "a plan of {ops} operators is not one tree over at most 64 tables"
                )
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Sanity cap on decoded collection lengths (defense against corrupted
/// length prefixes).
const MAX_LEN: u64 = 1 << 28;

/// Streaming encoder over a growable buffer.
#[derive(Default)]
pub struct Encoder {
    buf: BytesMut,
    /// First unrepresentable value seen, if any (sticky). See
    /// [`EncodeError`] for the poison protocol.
    poisoned: Option<EncodeError>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder {
            buf: BytesMut::with_capacity(256),
            poisoned: None,
        }
    }

    /// Finalizes and returns the encoded bytes.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Writes a `u32` (little endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Writes a `u64` (little endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Writes an `f64` (IEEE-754 bits, little endian).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    /// Writes a collection length prefix.
    ///
    /// Panics on a collection beyond `u32::MAX` elements, which the length
    /// prefix cannot represent.
    #[expect(
        clippy::expect_used,
        reason = "encoder capacity cap: a >u32::MAX-element collection cannot be \
                  represented by the u32 length prefix, and MAX_LEN rejects far smaller \
                  ones on decode"
    )]
    pub fn put_len(&mut self, len: usize) {
        self.put_u32(u32::try_from(len).expect("collection too large to encode"));
    }

    /// Writes a one-byte table index, validating it against the
    /// [`TableSet`] capacity. An out-of-range index poisons the encoder
    /// and writes the sentinel `0xFF` — which every table-index decoder
    /// rejects — instead of silently truncating to `u8` (the original
    /// corruption bug this guards against).
    pub fn put_table_index(&mut self, index: usize) {
        if index < TableSet::MAX_TABLES {
            self.put_u8(index as u8);
        } else {
            self.poison(EncodeError::TableIndexOutOfRange { index });
            self.put_u8(0xFF);
        }
    }

    /// Records an unrepresentable value; the first error sticks.
    pub fn poison(&mut self, e: EncodeError) {
        self.poisoned.get_or_insert(e);
    }

    /// The first unrepresentable value encountered so far, if any.
    pub fn error(&self) -> Option<EncodeError> {
        self.poisoned
    }
}

/// Cursor-style decoder over received bytes.
pub struct Decoder<'a> {
    buf: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn need(&self, n: usize) -> Result<(), DecodeError> {
        if self.buf.len() < n {
            Err(DecodeError::Truncated {
                needed: n,
                available: self.buf.len(),
            })
        } else {
            Ok(())
        }
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        self.need(1)?;
        let v = self.buf[0];
        self.buf = &self.buf[1..];
        Ok(v)
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        self.need(4)?;
        let mut b = self.buf;
        let v = b.get_u32_le();
        self.buf = b;
        Ok(v)
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        self.need(8)?;
        let mut b = self.buf;
        let v = b.get_u64_le();
        self.buf = b;
        Ok(v)
    }

    /// Reads an `f64`.
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        self.need(8)?;
        let mut b = self.buf;
        let v = b.get_f64_le();
        self.buf = b;
        Ok(v)
    }

    /// Reads a collection length prefix.
    pub fn get_len(&mut self) -> Result<usize, DecodeError> {
        let v = self.get_u32()? as u64;
        if v > MAX_LEN {
            return Err(DecodeError::LengthOverflow(v));
        }
        Ok(v as usize)
    }

    /// Reads a one-byte table index, rejecting values that exceed the
    /// [`TableSet`] capacity — including the `0xFF` sentinel a poisoned
    /// encoder writes — with a typed error.
    pub fn get_table_index(&mut self, ty: &'static str) -> Result<usize, DecodeError> {
        let index = self.get_u8()?;
        if (index as usize) < TableSet::MAX_TABLES {
            Ok(index as usize)
        } else {
            Err(DecodeError::IndexOutOfRange { index, ty })
        }
    }
}

/// Types that can cross the simulated network.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `enc`.
    fn encode(&self, enc: &mut Encoder);
    /// Decodes one value, consuming bytes from `dec`.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError>;

    /// Convenience: encodes `self` into a fresh byte buffer.
    ///
    /// Infallible by design; a value the wire cannot represent encodes
    /// to a sentinel that decoders reject with a typed error (see
    /// [`EncodeError`]). Boundary code validating caller input should
    /// prefer [`Wire::try_to_bytes`].
    fn to_bytes(&self) -> Bytes {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.finish()
    }

    /// Encodes `self`, surfacing unrepresentable values as a typed
    /// [`EncodeError`] instead of sentinel bytes.
    fn try_to_bytes(&self) -> Result<Bytes, EncodeError> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        match enc.error() {
            Some(e) => Err(e),
            None => Ok(enc.finish()),
        }
    }

    /// Convenience: decodes a value from `buf`, requiring full consumption.
    fn from_bytes(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut dec = Decoder::new(buf);
        let v = Self::decode(&mut dec)?;
        match dec.remaining() {
            0 => Ok(v),
            n => Err(DecodeError::TrailingBytes(n)),
        }
    }
}

/// Wire types whose encoding has one length, known at compile time: the
/// compiler sums it from the field widths of the declaration.
pub trait FixedSize: Wire {
    /// Encoded length in bytes.
    const SIZE: usize;
}

/// One entry of a crate's `WIRE_TYPES` list, as [`wire!`](crate::wire) emits it.
pub struct WireType {
    /// The type's name.
    pub name: &'static str,
    /// Its declaration, `stringify!`ed: the fields in wire order. For a
    /// hand-written `extern` impl, the layout in prose.
    pub decl: &'static str,
    /// [`recode`] at this type: how a test reaches the codec of every
    /// listed type without naming it.
    pub recode: fn(&[u8]) -> Result<Bytes, DecodeError>,
}

/// Decodes `bytes` as one `T` and encodes it again.
pub fn recode<T: Wire>(bytes: &[u8]) -> Result<Bytes, DecodeError> {
    T::from_bytes(bytes).map(|v| v.to_bytes())
}

/// Renders a wire-type list one declaration per line (the compiler's
/// printer wraps long ones). The README's "Wire-format stability" section
/// quotes this text.
pub fn describe(types: &[WireType]) -> String {
    let line = |ty: &WireType| ty.decl.split_whitespace().collect::<Vec<_>>().join(" ") + "\n";
    types.iter().map(line).collect()
}

/// Whether no two of `tags` are equal: what [`wire!`](crate::wire) asserts, at
/// compile time, of every enum's declared tags.
pub const fn tags_unique(tags: &[u8]) -> bool {
    let mut seen = [false; 256];
    let mut i = 0;
    while i < tags.len() {
        if seen[tags[i] as usize] {
            return false;
        }
        seen[tags[i] as usize] = true;
        i += 1;
    }
    true
}

/// Declares wire layouts: each declaration is the one statement of its
/// type's layout and expands to the type's [`Wire`] impl.
///
/// * `struct T { field: Ty, … }` — the fields in wire order, each through
///   its own `Wire` impl (`0: Ty` names a tuple field). `struct T fixed`
///   also implements [`FixedSize`], every field's type having a size;
///   `struct T check guard` runs `guard(&T) -> Result<(), DecodeError>`
///   on each decoded value.
/// * `enum T { tag => Variant { field: Ty, … }, tag => Variant(x: Ty),
///   tag => Variant, … }` — one tag byte, then the variant's fields. An
///   undeclared tag decodes to [`DecodeError::BadTag`] naming `T`; the
///   encoder matches on every variant with no catch-all, and the tags are
///   asserted distinct at compile time. `enum T check guard` runs
///   `guard(&T) -> Result<(), DecodeError>` on each decoded value.
/// * `extern T { "layout in prose" }` — `T`'s impl is written by hand
///   elsewhere; the entry only puts it on the list.
///
/// Led by `pub const NAME;` the declarations are also listed, in order, as
/// `NAME: &[WireType]`.
///
/// ```
/// use mpq_cluster::{wire, FixedSize, Wire};
///
/// #[derive(Debug, PartialEq)]
/// struct Span { first: u64, count: u32 }
/// #[derive(Debug, PartialEq)]
/// enum Ctrl { Ping, Work(Span), Halt { code: u8 } }
/// wire! {
///     pub const WIRE_TYPES;
///     struct Span fixed { first: u64, count: u32 }
///     enum Ctrl { 0 => Ping, 1 => Work(span: Span), 7 => Halt { code: u8 } }
/// }
/// assert_eq!(Span::SIZE, 12);
/// assert_eq!(&Ctrl::Halt { code: 9 }.to_bytes()[..], [7, 9]);
/// assert_eq!(Ctrl::from_bytes(&[0]), Ok(Ctrl::Ping));
/// assert_eq!(WIRE_TYPES[1].name, "Ctrl");
/// ```
///
/// Two variants cannot share a tag:
///
/// ```compile_fail,E0080
/// use mpq_cluster::wire;
/// enum Ctrl { Ping, Halt }
/// wire!(enum Ctrl { 0 => Ping, 0 => Halt });
/// ```
///
/// A variant cannot be left out of the declaration:
///
/// ```compile_fail,E0004
/// use mpq_cluster::wire;
/// enum Ctrl { Ping, Halt }
/// wire!(enum Ctrl { 0 => Ping });
/// ```
///
/// `fixed` needs every field's type to be [`FixedSize`]:
///
/// ```compile_fail,E0277
/// use mpq_cluster::wire;
/// struct Batch { ids: Vec<u64> }
/// wire!(struct Batch fixed { ids: Vec<u64> });
/// ```
#[macro_export]
macro_rules! wire {
    (@impl extern $T:ident [] { $layout:literal }) => {};
    (@impl struct $T:ident [fixed] { $($f:tt : $ty:ty),* $(,)? }) => {
        $crate::wire!(@impl struct $T [] { $($f: $ty),* });
        impl $crate::codec::FixedSize for $T {
            const SIZE: usize = 0 $(+ <$ty as $crate::codec::FixedSize>::SIZE)*;
        }
    };
    (@impl struct $T:ident [$(check $guard:path)?] { $($f:tt : $ty:ty),* $(,)? }) => {
        const _: () = {
            use $crate::codec::{DecodeError, Decoder, Encoder, Wire};
            impl Wire for $T {
                fn encode(&self, enc: &mut Encoder) {
                    $(<$ty as Wire>::encode(&self.$f, enc);)*
                }
                fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                    $crate::wire!(@checked [$($guard)?]
                        Ok::<$T, DecodeError>($T { $($f: <$ty as Wire>::decode(dec)?),* }))
                }
            }
        };
    };
    (@impl enum $T:ident [$(check $guard:path)?] { $(
        $tag:expr => $V:ident
            $({ $($f:ident : $ty:ty),* $(,)? })?
            $(( $($b:ident : $bty:ty),* $(,)? ))?
    ),* $(,)? }) => {
        #[expect(
            clippy::disallowed_macros,
            reason = "evaluated at compile time: a duplicate tag is a build error, never \
                      a runtime panic"
        )]
        const _: () = assert!(
            $crate::codec::tags_unique(&[$($tag),*]),
            concat!("two variants of ", stringify!($T), " share a wire tag")
        );
        const _: () = {
            use $crate::codec::{DecodeError, Decoder, Encoder, Wire};
            impl Wire for $T {
                fn encode(&self, enc: &mut Encoder) {
                    match self {$(
                        $T::$V $({ $($f),* })? $(( $($b),* ))? => {
                            enc.put_u8($tag);
                            $($(<$ty as Wire>::encode($f, enc);)*)?
                            $($(<$bty as Wire>::encode($b, enc);)*)?
                        }
                    )*}
                }
                fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                    let tag = dec.get_u8()?;
                    $crate::wire!(@checked [$($guard)?] match tag {
                        // A guard, for a tag may be a named constant, and an
                        // expression fragment is no pattern.
                        $(t if t == $tag => Ok($T::$V
                            $({ $($f: <$ty as Wire>::decode(dec)?),* })?
                            $(( $(<$bty as Wire>::decode(dec)?),* ))?
                        ),)*
                        tag => Err(DecodeError::BadTag { tag, ty: stringify!($T) }),
                    })
                }
            }
        };
    };
    (@checked [] $decoded:expr) => { $decoded };
    (@checked [$guard:path] $decoded:expr) => {{
        let value = $decoded?;
        $guard(&value)?;
        Ok(value)
    }};
    ($(#[$meta:meta])* $vis:vis const $LIST:ident;
     $($kw:ident $T:ident $($mod:ident $($arg:path)?)? { $($body:tt)* })*) => {
        $crate::wire!($($kw $T $($mod $($arg)?)? { $($body)* })*);
        $(#[$meta])*
        $vis const $LIST: &[$crate::codec::WireType] = &[$($crate::codec::WireType {
            name: stringify!($T),
            decl: stringify!($kw $T $($mod $($arg)?)? { $($body)* }),
            recode: $crate::codec::recode::<$T>,
        }),*];
    };
    ($($kw:ident $T:ident $($mod:ident $($arg:path)?)? { $($body:tt)* })*) => {
        $($crate::wire!(@impl $kw $T [$($mod $($arg)?)?] { $($body)* });)*
    };
}

/// Identifier of one optimization session (one query) multiplexed over a
/// long-lived cluster.
///
/// Every message on the simulated network is framed in a
/// [`SessionEnvelope`] carrying the owning session's `QueryId`, so a
/// single resident cluster can serve many in-flight queries concurrently:
/// workers key per-query state by it, and the master routes replies to
/// the owning session by it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

impl QueryId {
    /// Encoded size: one little-endian `u64`.
    pub const WIRE_SIZE: usize = <Self as FixedSize>::SIZE;
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// The wire frame around every message: an 8-byte little-endian
/// [`QueryId`] followed by the payload bytes. The id crosses the network,
/// so framed lengths — payload plus 8 — are what the byte counters see.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionEnvelope {
    /// The session the payload belongs to.
    pub query: QueryId,
    /// The application-level message bytes.
    pub payload: Bytes,
}

impl SessionEnvelope {
    /// Size of the frame header (the little-endian [`QueryId`]), in bytes.
    /// Byte counters charge `payload + HEADER_BYTES` per message.
    pub const HEADER_BYTES: usize = QueryId::WIRE_SIZE;

    /// Frames `payload` for `query`: the bytes that actually cross the
    /// simulated network.
    pub fn frame(query: QueryId, payload: &[u8]) -> Bytes {
        let mut buf = BytesMut::with_capacity(Self::HEADER_BYTES + payload.len());
        buf.put_u64_le(query.0);
        buf.extend_from_slice(payload);
        buf.freeze()
    }

    /// Splits a framed message back into its session id and payload.
    pub fn unframe(framed: &[u8]) -> Result<SessionEnvelope, DecodeError> {
        let mut dec = Decoder::new(framed);
        let id = dec.get_u64()?;
        Ok(SessionEnvelope {
            query: QueryId(id),
            payload: Bytes::copy_from_slice(&framed[Self::HEADER_BYTES..]),
        })
    }
}

/// A lightweight worker → master progress report for one in-flight task:
/// how many partitions of the echoed range the worker has completed so
/// far. Fixed-size (three little-endian `u64`s, 24 bytes), so piggybacking
/// progress on the reply stream costs `O(1)` bytes per report — the
/// master's straggler detector reads *relative* progress from these
/// without any extra coordination round.
///
/// The range echo (`first_partition`, `partition_count`) identifies the
/// task exactly the way replies do, so progress reports survive
/// speculative re-execution: a report is attributed to whichever
/// assignment entry currently carries that range, and reports for
/// superseded ranges merely refresh liveness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Progress {
    /// First partition ID of the range being worked on (task echo).
    pub first_partition: u64,
    /// Partitions of the range completed so far (strictly less than
    /// `partition_count`: completing the range is signalled by the reply
    /// itself, never by a progress report).
    pub completed: u64,
    /// Number of partitions in the range (task echo).
    pub partition_count: u64,
}

impl Progress {
    /// Encoded size: three little-endian `u64`s, summed by the compiler
    /// from the declaration, so the "O(1) bytes per report" claim cannot
    /// silently rot.
    pub const WIRE_SIZE: usize = <Self as FixedSize>::SIZE;
}

/// The fixed-width little-endian primitives.
macro_rules! primitive {
    ($($ty:ty: $put:ident, $get:ident;)*) => {$(
        impl Wire for $ty {
            fn encode(&self, enc: &mut Encoder) {
                enc.$put(*self);
            }
            fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                dec.$get()
            }
        }
        impl FixedSize for $ty {
            const SIZE: usize = std::mem::size_of::<$ty>();
        }
    )*};
}

primitive! {
    u8: put_u8, get_u8;
    u32: put_u32, get_u32;
    u64: put_u64, get_u64;
    f64: put_f64, get_f64;
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_len(self.len());
        for v in self {
            v.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = dec.get_len()?;
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl Wire for Predicate {
    fn encode(&self, enc: &mut Encoder) {
        // Table indices are one byte on the wire but `usize` in memory;
        // `put_table_index` validates against the 64-table `TableSet`
        // capacity instead of silently truncating with `as u8`.
        enc.put_table_index(self.left);
        enc.put_table_index(self.right);
        enc.put_f64(self.selectivity);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Predicate {
            left: dec.get_table_index("Predicate")?,
            right: dec.get_table_index("Predicate")?,
            selectivity: dec.get_f64()?,
        })
    }
}

impl Wire for Query {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_len(self.catalog.len());
        for (_, s) in self.catalog.iter() {
            s.encode(enc);
        }
        self.predicates.encode(enc);
        self.graph.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = dec.get_len()?;
        if n == 0 || n > TableSet::MAX_TABLES {
            return Err(DecodeError::TableCount(n));
        }
        let mut stats = Vec::with_capacity(n);
        for _ in 0..n {
            stats.push(TableStats::decode(dec)?);
        }
        let predicates = Vec::<Predicate>::decode(dec)?;
        let mut query = Query {
            catalog: Catalog::from_stats(stats),
            predicates,
            graph: JoinGraph::Star,
        };
        // `Predicate::decode` bounds an endpoint by the `TableSet` capacity;
        // only here is the query's own table count known. A predicate on a
        // table the query does not have would index past every per-table
        // structure built from it on a resident worker. The check comes
        // before the graph field is read, as the fields lie on the wire.
        if let Some(index) = query.stray_endpoint() {
            return Err(DecodeError::IndexOutOfRange {
                index: index as u8,
                ty: "Query",
            });
        }
        query.graph = JoinGraph::decode(dec)?;
        // Statistics no catalog can have make NaN plan times, and among
        // those the optimum depends on the partition cut.
        if let Some((field, value)) = query.invalid_statistic() {
            return Err(DecodeError::Statistic {
                field,
                bits: value.to_bits(),
            });
        }
        Ok(query)
    }
}

impl Wire for Order {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.to_code());
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Order::from_code(dec.get_u8()?))
    }
}

/// The pruning policy asserts on an approximation factor that is not a
/// finite number ≥ 1, so such a factor must not survive decoding on a
/// resident worker.
fn valid_alpha(objective: &Objective) -> Result<(), DecodeError> {
    match *objective {
        Objective::Multi { alpha } if !objective.is_valid() => {
            Err(DecodeError::ApproximationFactor(alpha.to_bits()))
        }
        _ => Ok(()),
    }
}

/// The most operators a plan has: `2n - 1` over at most 64 tables.
const PLAN_MAX_OPS: u8 = 2 * TableSet::MAX_TABLES as u8 - 1;

/// The first join byte of a plan operator: every byte below it is a scan
/// of that table, and `PLAN_JOIN + k` is the join whose [`JoinOp`] tag is
/// `k`.
const PLAN_JOIN: u8 = TableSet::MAX_TABLES as u8;

/// A plan operator's one byte: a scan is its table, a join
/// [`PLAN_JOIN`] plus its operator's tag. A table a [`TableSet`] cannot
/// hold poisons the encoder and writes the `0xFF` sentinel.
fn put_plan_op(enc: &mut Encoder, op: PlanOp) {
    match op {
        PlanOp::Scan {
            table,
            op: ScanOp::Full,
        } => enc.put_table_index(table as usize),
        PlanOp::Join { op } => enc.put_u8(
            PLAN_JOIN
                + match op {
                    JoinOp::NestedLoop => 0,
                    JoinOp::Hash => 1,
                    JoinOp::SortMerge => 2,
                },
        ),
    }
}

/// The operator one byte names; any byte [`put_plan_op`] never writes is
/// a typed [`DecodeError::BadTag`].
fn get_plan_op(dec: &mut Decoder<'_>) -> Result<PlanOp, DecodeError> {
    let op = match dec.get_u8()? {
        table if table < PLAN_JOIN => {
            return Ok(PlanOp::Scan {
                table,
                op: ScanOp::Full,
            })
        }
        PLAN_JOIN => JoinOp::NestedLoop,
        b if b == PLAN_JOIN + 1 => JoinOp::Hash,
        b if b == PLAN_JOIN + 2 => JoinOp::SortMerge,
        tag => return Err(DecodeError::BadTag { tag, ty: "PlanOp" }),
    };
    Ok(PlanOp::Join { op })
}

/// A plan travels as its operators alone, one byte each after a one-byte
/// count: its cost is the receiver's to compute from the query
/// (`mpq_dp::Pricer`), so the decoded plan is [unpriced](Plan::unpriced).
/// It must be one operator tree over distinct tables a [`TableSet`] can
/// hold: every consumer — the master's pricing, the executor, `explain` —
/// walks it as one. A count outside `1..=127` poisons the encoder and
/// writes the sentinel count 0.
impl Wire for Plan {
    fn encode(&self, enc: &mut Encoder) {
        match u8::try_from(self.ops.len()) {
            Ok(count @ 1..=PLAN_MAX_OPS) => enc.put_u8(count),
            _ => {
                enc.poison(EncodeError::PlanLength {
                    ops: self.ops.len(),
                });
                enc.put_u8(0);
            }
        }
        for &op in &self.ops {
            put_plan_op(enc, op);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let count = dec.get_u8()?;
        if count == 0 {
            return Err(DecodeError::PlanShape(PlanError::Empty));
        }
        if count > PLAN_MAX_OPS {
            return Err(DecodeError::LengthOverflow(u64::from(count)));
        }
        dec.need(usize::from(count))?;
        // One allocation: a `Result` collect would grow the vector.
        let mut ops = Vec::with_capacity(usize::from(count));
        for _ in 0..count {
            ops.push(get_plan_op(dec)?);
        }
        let plan = Plan::unpriced(ops);
        plan.validate().map_err(DecodeError::PlanShape)?;
        Ok(plan)
    }
}

wire! {
    /// Every non-generic wire type of this crate, as declared here:
    /// `mpq_algo` and `mpq_sma` list their messages the same way.
    /// (`Vec<T>` is a `u32` count then the elements.)
    pub const WIRE_TYPES;

    extern u8 { "one byte" }
    extern u32 { "four bytes, little-endian" }
    extern u64 { "eight bytes, little-endian" }
    extern f64 { "the IEEE-754 bits as a u64" }
    extern Predicate { "left: u8, right: u8 (table indices, each below 64), selectivity: f64" }
    extern Query {
        "u32 table count (1..=64), a TableStats each (finite, >= 0), Vec<Predicate> (indices below the count, selectivity in (0, 1]), JoinGraph"
    }
    extern Order { "one byte: 0 is no order, k + 1 is on attribute k" }
    extern Hello { "magic: u32 (the bytes MPQ3), worker_id: u64" }

    struct QueryId fixed { 0: u64 }
    struct Progress fixed { first_partition: u64, completed: u64, partition_count: u64 }
    struct TableSet { 0: u64 }
    struct TableStats { cardinality: f64, tuple_bytes: f64 }
    struct CostVector { time: f64, buffer: f64 }
    struct PlanEntry { cost: CostVector, order: Order, node: PlanNode }
    struct WorkerStats {
        stored_sets: u64,
        total_entries: u64,
        splits_tried: u64,
        plans_generated: u64,
        optimize_micros: u64
    }
    enum JoinGraph { 0 => Chain, 1 => Star, 2 => Cycle, 3 => Clique }
    enum ScanOp { 0 => Full }
    enum JoinOp { 0 => NestedLoop, 1 => Hash, 2 => SortMerge }
    enum PlanSpace { 0 => Linear, 1 => Bushy }
    enum Objective check valid_alpha { 0 => Single, 1 => Multi { alpha: f64 } }
    extern Plan {
        "u8 count (1..=127), one byte per operator in post-order (a scan is its table, 0..=63; a join is 64 + its JoinOp tag): one tree over distinct tables, and no cost (its receiver prices it)"
    }
    enum PlanNode {
        0 => Scan { table: u8, op: ScanOp },
        1 => Join { op: JoinOp, left: TableSet, left_idx: u32, right: TableSet, right_idx: u32 }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_macros)]
    use super::*;
    use mpq_model::{WorkloadConfig, WorkloadGenerator};

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(&bytes).expect("decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&42u64);
        roundtrip(&3.25f64);
        roundtrip(&vec![1u64, 2, 3]);
        roundtrip(&Vec::<u64>::new());
    }

    #[test]
    fn model_types_roundtrip() {
        roundtrip(&TableSet::from_tables([0, 5, 63]));
        roundtrip(&TableStats {
            cardinality: 123.0,
            tuple_bytes: 99.0,
        });
        roundtrip(&Predicate {
            left: 3,
            right: 9,
            selectivity: 0.015625,
        });
        for g in JoinGraph::ALL {
            roundtrip(&g);
        }
    }

    #[test]
    fn query_roundtrip() {
        let q = WorkloadGenerator::new(WorkloadConfig::paper_default(12), 5).next_query();
        roundtrip(&q);
    }

    #[test]
    fn cost_types_roundtrip() {
        roundtrip(&CostVector::new(1.5, 2.5));
        roundtrip(&Order::None);
        roundtrip(&Order::OnAttribute(17));
        roundtrip(&ScanOp::Full);
        for op in mpq_cost::JOIN_OPS {
            roundtrip(&op);
        }
        roundtrip(&PlanSpace::Linear);
        roundtrip(&PlanSpace::Bushy);
        roundtrip(&Objective::Single);
        roundtrip(&Objective::Multi { alpha: 10.0 });
    }

    /// A plan comes back as its tree, unpriced: the cost stays with the
    /// sender.
    #[test]
    fn plan_roundtrip() {
        let q = WorkloadGenerator::new(WorkloadConfig::paper_default(6), 8).next_query();
        let out = mpq_dp::optimize_serial(&q, PlanSpace::Bushy, Objective::Single);
        let back = Plan::from_bytes(&out.plans[0].to_bytes()).expect("decode");
        assert_eq!(back.ops, out.plans[0].ops);
        assert!(back.cost.time.is_nan() && back.cost.buffer.is_nan());
        assert_eq!(back.to_bytes(), out.plans[0].to_bytes());
    }

    /// The bytes of a plan whose operator bytes are `ops`, after their
    /// count: what a hostile peer could send.
    fn plan_bytes(ops: &[u8]) -> Vec<u8> {
        let mut bytes = vec![ops.len() as u8];
        bytes.extend_from_slice(ops);
        bytes
    }

    /// A hash join's byte.
    const JOIN: u8 = PLAN_JOIN + 1;

    /// Every byte value is the one operator that encodes to it, or a typed
    /// `BadTag`: 64 scans, three joins and 189 bytes no operator writes.
    #[test]
    fn every_operator_byte_decodes_to_the_operator_that_encodes_to_it() {
        let mut decoded = 0;
        for byte in 0..=u8::MAX {
            match get_plan_op(&mut Decoder::new(&[byte])) {
                Ok(op) => {
                    let mut enc = Encoder::new();
                    put_plan_op(&mut enc, op);
                    assert_eq!(enc.error(), None, "{op:?}");
                    assert_eq!(&enc.finish()[..], [byte], "{op:?}");
                    decoded += 1;
                }
                Err(e) => assert_eq!(
                    e,
                    DecodeError::BadTag {
                        tag: byte,
                        ty: "PlanOp"
                    }
                ),
            }
        }
        assert_eq!(decoded, TableSet::MAX_TABLES + mpq_cost::JOIN_OPS.len());
        // And every operator a plan can hold encodes to its own byte.
        let scans = (0..TableSet::MAX_TABLES as u8).map(|table| PlanOp::Scan {
            table,
            op: ScanOp::Full,
        });
        let joins = mpq_cost::JOIN_OPS.map(|op| PlanOp::Join { op });
        for op in scans.chain(joins) {
            let mut enc = Encoder::new();
            put_plan_op(&mut enc, op);
            let bytes = enc.finish();
            assert_eq!(bytes.len(), 1);
            assert_eq!(get_plan_op(&mut Decoder::new(&bytes)), Ok(op));
            if let PlanOp::Join { op } = op {
                assert_eq!(bytes[0], PLAN_JOIN + op.to_bytes()[0], "{op:?}");
            }
        }
    }

    /// The count byte: 0 is no plan, past 127 no tree over 64 tables, and
    /// one larger than the bytes left is truncated — each typed.
    #[test]
    fn plan_count_outside_its_range_is_rejected() {
        assert_eq!(
            Plan::from_bytes(&[0]),
            Err(DecodeError::PlanShape(PlanError::Empty))
        );
        for count in [128u8, 200, u8::MAX] {
            let mut bytes = vec![count];
            bytes.extend(std::iter::repeat_n(JOIN, usize::from(count)));
            assert_eq!(
                Plan::from_bytes(&bytes),
                Err(DecodeError::LengthOverflow(u64::from(count)))
            );
        }
        for (count, left) in [(1u8, 0usize), (3, 2), (127, 126)] {
            let mut bytes = vec![count];
            bytes.extend(std::iter::repeat_n(0, left));
            assert_eq!(
                Plan::from_bytes(&bytes),
                Err(DecodeError::Truncated {
                    needed: usize::from(count),
                    available: left
                })
            );
        }
        // A plan past 127 operators is no tree over 64 tables: its encoder
        // is poisoned, and the sentinel count decodes to no plan.
        let long = Plan::unpriced(vec![PlanOp::Join { op: JoinOp::Hash }; 128]);
        assert_eq!(
            long.try_to_bytes(),
            Err(EncodeError::PlanLength { ops: 128 })
        );
        assert_eq!(long.to_bytes()[0], 0);
        assert_eq!(
            Plan::unpriced(Vec::new()).try_to_bytes(),
            Err(EncodeError::PlanLength { ops: 0 })
        );
    }

    #[test]
    fn plan_with_no_operators_is_rejected() {
        assert_eq!(
            Plan::from_bytes(&plan_bytes(&[])),
            Err(DecodeError::PlanShape(PlanError::Empty))
        );
    }

    #[test]
    fn plan_join_short_of_an_operand_is_rejected() {
        assert_eq!(
            Plan::from_bytes(&plan_bytes(&[0, JOIN])),
            Err(DecodeError::PlanShape(PlanError::MissingOperand { at: 1 }))
        );
        assert_eq!(
            Plan::from_bytes(&plan_bytes(&[JOIN])),
            Err(DecodeError::PlanShape(PlanError::MissingOperand { at: 0 }))
        );
    }

    #[test]
    fn plan_with_two_roots_is_rejected() {
        assert_eq!(
            Plan::from_bytes(&plan_bytes(&[0, 1, 2, JOIN])),
            Err(DecodeError::PlanShape(PlanError::ExtraRoots { roots: 2 }))
        );
    }

    #[test]
    fn plan_scanning_a_table_twice_is_rejected() {
        assert_eq!(
            Plan::from_bytes(&plan_bytes(&[3, 3, JOIN])),
            Err(DecodeError::PlanShape(PlanError::RepeatedTable {
                table: 3
            }))
        );
    }

    /// No byte names a table past 63: a plan scanning one is poisoned at
    /// the sender, and its sentinel byte is a typed error at the receiver.
    #[test]
    fn plan_table_past_the_wire_limit_is_rejected() {
        for table in [64u8, 0xFF] {
            let plan = Plan::unpriced(vec![PlanOp::Scan {
                table,
                op: ScanOp::Full,
            }]);
            assert_eq!(
                plan.try_to_bytes(),
                Err(EncodeError::TableIndexOutOfRange {
                    index: usize::from(table)
                })
            );
            assert_eq!(
                Plan::from_bytes(&plan.to_bytes()),
                Err(DecodeError::BadTag {
                    tag: 0xFF,
                    ty: "PlanOp"
                })
            );
        }
        assert!(Plan::from_bytes(&plan_bytes(&[63])).is_ok());
    }

    #[test]
    fn plan_operator_with_an_unknown_tag_is_rejected() {
        for tag in [PLAN_JOIN + 3, 0x80, 0xFF] {
            assert_eq!(
                Plan::from_bytes(&plan_bytes(&[0, 1, tag])),
                Err(DecodeError::BadTag { tag, ty: "PlanOp" })
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// A DP plan of either space and any of the three objectives comes
        /// back off the wire as the tree that was sent, and unpriced: no
        /// cost crosses the wire.
        #[test]
        fn dp_plans_roundtrip_exactly(
            n in 1usize..=8,
            seed in 0u64..1000,
            bushy in proptest::prelude::any::<bool>(),
            objective in 0usize..3,
        ) {
            let q = WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query();
            let space = if bushy { PlanSpace::Bushy } else { PlanSpace::Linear };
            let objective = [
                Objective::Single,
                Objective::Multi { alpha: 1.0 },
                Objective::Multi { alpha: 2.0 },
            ][objective];
            let plans = mpq_dp::optimize_serial(&q, space, objective).plans;
            let back = Vec::<Plan>::from_bytes(&plans.to_bytes()).expect("a DP plan decodes");
            proptest::prop_assert_eq!(back.len(), plans.len());
            for (b, p) in back.iter().zip(&plans) {
                proptest::prop_assert_eq!(&b.ops, &p.ops);
                proptest::prop_assert!(b.cost.time.is_nan() && b.cost.buffer.is_nan());
            }
        }
    }

    /// Theorem 1's `b_p`, exactly: a plan over `n` tables is a one-byte
    /// operator count, then `n` scans and `n - 1` joins of one byte each —
    /// `2n` bytes, whatever the space or objective.
    #[test]
    fn every_dp_plan_of_n_tables_encodes_to_2n_bytes() {
        for n in 1..=9 {
            let q = WorkloadGenerator::new(WorkloadConfig::paper_default(n), 40 + n as u64)
                .next_query();
            for space in [PlanSpace::Linear, PlanSpace::Bushy] {
                for objective in [Objective::Single, Objective::Multi { alpha: 2.0 }] {
                    for p in mpq_dp::optimize_serial(&q, space, objective).plans {
                        assert_eq!(p.to_bytes().len(), 2 * n, "{n} tables: {p}");
                    }
                }
            }
        }
    }

    #[test]
    fn entry_roundtrip() {
        let e = PlanEntry::join(
            JoinOp::SortMerge,
            TableSet::from_tables([0, 1]),
            7,
            TableSet::singleton(2),
            0,
            CostVector::new(5.0, 6.0),
            Order::OnAttribute(1),
        );
        roundtrip(&e);
        roundtrip(&WorkerStats {
            stored_sets: 1,
            total_entries: 2,
            splits_tried: 3,
            plans_generated: 4,
            optimize_micros: 5,
        });
    }

    #[test]
    fn query_id_roundtrip() {
        roundtrip(&QueryId(0));
        roundtrip(&QueryId(u64::MAX));
    }

    #[test]
    fn progress_roundtrip_and_fixed_size() {
        let p = Progress {
            first_partition: 5,
            completed: 2,
            partition_count: 8,
        };
        roundtrip(&p);
        assert_eq!(p.to_bytes().len(), 24, "progress reports are O(1) bytes");
        for cut in [0usize, 1, 8, 23] {
            assert!(Progress::from_bytes(&p.to_bytes()[..cut]).is_err());
        }
    }

    #[test]
    fn session_envelope_frames_and_unframes() {
        let framed = SessionEnvelope::frame(QueryId(7), b"payload");
        assert_eq!(framed.len(), 8 + 7, "8-byte id prefix plus payload");
        let env = SessionEnvelope::unframe(&framed).expect("well-formed frame");
        assert_eq!(env.query, QueryId(7));
        assert_eq!(&env.payload[..], b"payload");
        // An empty payload still frames (pure control messages).
        let empty = SessionEnvelope::frame(QueryId(1), b"");
        assert_eq!(SessionEnvelope::unframe(&empty).unwrap().payload.len(), 0);
        // Anything shorter than the id prefix is truncated, not a panic.
        assert!(matches!(
            SessionEnvelope::unframe(&framed[..5]),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn truncated_input_errors() {
        let q = WorkloadGenerator::new(WorkloadConfig::paper_default(4), 1).next_query();
        let bytes = q.to_bytes();
        for cut in [0usize, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(Query::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bad_tag_errors() {
        assert!(matches!(
            JoinGraph::from_bytes(&[9]),
            Err(DecodeError::BadTag {
                tag: 9,
                ty: "JoinGraph"
            })
        ));
        assert!(JoinOp::from_bytes(&[7]).is_err());
        assert!(Plan::from_bytes(&[1, 0xFF]).is_err());
    }

    #[test]
    fn tags_unique_finds_a_repeat_anywhere() {
        assert!(tags_unique(&[]));
        assert!(tags_unique(&[0, 1, 7]));
        assert!(!tags_unique(&[0, 1, 0]));
        assert!(!tags_unique(&[3, 4, 4]));
    }

    /// Regression (ISSUE 7 satellite): `Predicate` table indices used to
    /// be truncated with `as u8`, so index 256 round-tripped as 0. Now an
    /// out-of-range index is a typed error on both sides of the wire.
    #[test]
    fn predicate_out_of_range_index_is_typed_not_truncated() {
        let bad = Predicate {
            left: 256, // would have truncated to 0
            right: 1,
            selectivity: 0.5,
        };
        // Encode side: the boundary API reports the exact offending index.
        assert_eq!(
            bad.try_to_bytes(),
            Err(EncodeError::TableIndexOutOfRange { index: 256 })
        );
        // Infallible side: the sentinel bytes must not decode to a
        // different (corrupted) predicate — decode rejects them typed.
        assert!(matches!(
            Predicate::from_bytes(&bad.to_bytes()),
            Err(DecodeError::IndexOutOfRange {
                index: 0xFF,
                ty: "Predicate"
            })
        ));
        // Every index the bitset can actually hold still round-trips,
        // including the boundary value 63.
        for index in [0usize, 1, 62, 63] {
            let ok = Predicate {
                left: index,
                right: 63 - index,
                selectivity: 0.25,
            };
            let bytes = ok.try_to_bytes().expect("valid indices encode");
            assert_eq!(Predicate::from_bytes(&bytes).expect("decode"), ok);
        }
        // First out-of-range value: 64 (= TableSet::MAX_TABLES) on the
        // wire is rejected even though it fits in a byte.
        let boundary = Predicate {
            left: TableSet::MAX_TABLES,
            right: 0,
            selectivity: 0.5,
        };
        assert_eq!(
            boundary.try_to_bytes(),
            Err(EncodeError::TableIndexOutOfRange { index: 64 })
        );
        let mut enc = Encoder::new();
        enc.put_u8(64);
        enc.put_u8(0);
        enc.put_f64(0.5);
        assert!(matches!(
            Predicate::from_bytes(&enc.finish()),
            Err(DecodeError::IndexOutOfRange { index: 64, .. })
        ));
    }

    /// The poison latch is sticky (first error wins) and does not leak
    /// across encoders.
    #[test]
    fn encoder_poison_is_sticky_and_scoped() {
        let mut enc = Encoder::new();
        enc.put_table_index(70);
        enc.put_table_index(99);
        assert_eq!(
            enc.error(),
            Some(EncodeError::TableIndexOutOfRange { index: 70 })
        );
        let clean = Encoder::new();
        assert_eq!(clean.error(), None);
        // A query carrying one bad predicate fails as a whole.
        let q = WorkloadGenerator::new(WorkloadConfig::paper_default(5), 3).next_query();
        let mut broken = q.clone();
        broken.predicates[0].left = 1 << 20;
        assert!(q.try_to_bytes().is_ok());
        assert_eq!(
            broken.try_to_bytes(),
            Err(EncodeError::TableIndexOutOfRange { index: 1 << 20 })
        );
    }

    #[test]
    fn length_overflow_rejected() {
        // A Vec<u64> with a bogus huge length prefix.
        let mut enc = Encoder::new();
        enc.put_u32(u32::MAX);
        let bytes = enc.finish();
        assert!(matches!(
            Vec::<u64>::from_bytes(&bytes),
            Err(DecodeError::LengthOverflow(_))
        ));
    }

    #[test]
    fn query_size_linear_in_tables() {
        // b_q must grow linearly in n (Theorem 1's premise).
        let q8 = WorkloadGenerator::new(WorkloadConfig::paper_default(8), 2).next_query();
        let q16 = WorkloadGenerator::new(WorkloadConfig::paper_default(16), 2).next_query();
        let b8 = q8.to_bytes().len();
        let b16 = q16.to_bytes().len();
        assert!(b16 < 3 * b8, "encoding must stay linear: {b8} -> {b16}");
    }

    #[test]
    fn decode_error_display() {
        let e = DecodeError::Truncated {
            needed: 8,
            available: 3,
        };
        assert!(e.to_string().contains("truncated"));
        let e = DecodeError::BadTag { tag: 5, ty: "X" };
        assert!(e.to_string().contains("tag 5"));
        let e = DecodeError::IndexOutOfRange {
            index: 200,
            ty: "Predicate",
        };
        assert!(e.to_string().contains("index 200"));
        let e = DecodeError::TrailingBytes(3);
        assert!(e.to_string().contains("3 trailing bytes"));
        let e = EncodeError::TableIndexOutOfRange { index: 300 };
        assert!(e.to_string().contains("index 300"));
        let e = EncodeError::PlanLength { ops: 128 };
        assert!(e.to_string().contains("128 operators"));
    }
}
