//! The wire-codec kit: the one place a value of any format of the
//! workspace meets bytes.
//!
//! Every format is written with it — the peer protocol (`pgrid-net`), the
//! control protocol (`pgrid-cluster`), frames and mux records
//! (`pgrid-transport`, `pgrid-reactor`) big-endian, the journal
//! (`pgrid-durable`) and the registry snapshot (`pgrid-obs`)
//! little-endian.  Byte order is the kit's one type parameter: the
//! integer codecs are associated functions of [`Order`], implemented by
//! [`Be`] and [`Le`], so the two dialects cannot drift apart in anything
//! but the order of an integer's bytes.
//!
//! A value is encoded through the [`Wire`] trait: [`Wire::put`] writes it
//! and [`Wire::get`] reads it back, so a codec reads `Be::get(data)?` and
//! writes `Be::put(buf, &path)` whatever the type.  The kit implements it
//! for the integers, `usize` (as a `u64`), `f64`, `bool`, `Option`,
//! tuples, [`Path`], [`Key`], [`DataId`], [`PeerId`], [`DataEntry`],
//! `String`, `SocketAddr`, [`LogHistogram`], counted lists (`Vec`,
//! `BTreeMap`) and the borrowed entry view [`Entries`].  The macro
//! [`wire_codec!`](crate::wire_codec) writes both directions of a struct
//! or a tagged enum from one listing of its fields, so an encoder and its
//! decoder cannot disagree.
//!
//! Reads take the input as `&mut &[u8]`, advance it past what they
//! consumed and return `None` when the bytes are not there or not valid —
//! no read can panic, whatever the input.  A flag (`bool`, the tag of an
//! `Option`) is one byte, 0 or 1; any other byte is refused.  An element
//! count is only ever read through [`Order::count`], which checks the
//! claim against the cap and against the bytes that are left, at
//! [`Wire::MIN_BYTES`] per element, *before* anything is reserved for it.
//! Writes go to a [`Sink`]: a `Vec<u8>`, or a counter that only measures.
//!
//! An entry list is the one bulk shape: its elements are fixed 16-byte
//! chunks, written [`ENTRY_BLOCK`] at a time, and [`Entries`] validates the
//! chunks and reads each entry only when it is asked for.
//!
//! The kit is std-only on purpose: a `Buf` / `BufMut`-generic one would
//! give this crate a `bytes` dependency, which the benchmark harness's own
//! lock file does not allow.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects
    )
)]

use crate::histogram::{LogHistogram, NUM_BUCKETS};
use crate::key::{DataEntry, DataId, Key};
use crate::path::Path;
use crate::routing::PeerId;
use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};

/// Encoded size of one [`Path`]: length byte plus left-aligned bits.
pub const PATH_BYTES: usize = 1 + 8;

/// Encoded size of one [`DataEntry`]: key plus id.
pub const ENTRY_BYTES: usize = 8 + 8;

/// Entries a list of them lays out on the stack before it hands them to
/// the sink in one piece.
pub const ENTRY_BLOCK: usize = 64;

/// Encoded size of one routing reference `(level, peer, path)`.
pub const ROUTING_REF_BYTES: usize = 1 + 8 + PATH_BYTES;

/// The `cap` of a list whose only bound is the input it arrived in — a
/// journal payload that passed its checksum, a snapshot inside a bounded
/// control message — which [`Order::count`] checks before anything is
/// reserved.
pub const UNCAPPED: usize = usize::MAX;

/// Where encoded bytes go.
pub trait Sink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Big-endian: the peer protocol, frames and mux records.
#[derive(Clone, Copy)]
pub enum Be {}

/// Little-endian: the journal and the registry snapshot.
#[derive(Clone, Copy)]
pub enum Le {}

impl Order for Be {
    const BIG_ENDIAN: bool = true;
}

impl Order for Le {
    const BIG_ENDIAN: bool = false;
}

/// Splits the first `N` bytes off `data` (no order involved: `Be::bytes`
/// is `Le::bytes`).
#[inline]
fn take<const N: usize>(data: &mut &[u8]) -> Option<[u8; N]> {
    Be::bytes(data, N)?.try_into().ok()
}

/// The checked read and the write of one integer width, in `Self`'s order.
macro_rules! int_codec {
    ($int:ident, $put:ident) => {
        #[doc = concat!("Reads a `", stringify!($int), "`; `None` when `data` is shorter.")]
        #[inline]
        fn $int(data: &mut &[u8]) -> Option<$int> {
            let raw = take(data)?;
            Some(if Self::BIG_ENDIAN {
                $int::from_be_bytes(raw)
            } else {
                $int::from_le_bytes(raw)
            })
        }

        #[doc = concat!("Appends a `", stringify!($int), "`.")]
        #[inline]
        fn $put<S: Sink>(buf: &mut S, value: $int) {
            buf.put(&if Self::BIG_ENDIAN {
                value.to_be_bytes()
            } else {
                value.to_le_bytes()
            });
        }
    };
}

/// The codec kit, parameterised by the byte order of its integers.
pub trait Order: Sized {
    /// Whether integers travel most significant byte first.
    const BIG_ENDIAN: bool;

    /// Splits the first `n` bytes off `data`; `None` when it is shorter.
    #[inline]
    fn bytes<'a>(data: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
        if data.len() < n {
            return None;
        }
        let (head, rest) = data.split_at(n);
        *data = rest;
        Some(head)
    }

    int_codec!(u8, put_u8);
    int_codec!(u16, put_u16);
    int_codec!(u32, put_u32);
    int_codec!(u64, put_u64);

    /// A `u64` from its eight bytes in `Self`'s order; `bytes` is half of
    /// an entry's chunk, so the zero a shorter slice would give is never
    /// read.
    #[inline]
    fn word_from(bytes: &[u8]) -> u64 {
        let raw: [u8; 8] = bytes.try_into().unwrap_or_default();
        if Self::BIG_ENDIAN {
            u64::from_be_bytes(raw)
        } else {
            u64::from_le_bytes(raw)
        }
    }

    /// The eight bytes of a `u64` in `Self`'s order.
    #[inline]
    fn word_bytes(value: u64) -> [u8; 8] {
        if Self::BIG_ENDIAN {
            value.to_be_bytes()
        } else {
            value.to_le_bytes()
        }
    }

    /// Reads a `u32` element count and accepts it only if it is at most
    /// `cap` and `n` elements of at least `element_bytes` each can still
    /// follow in `data` — so a decoder never reserves more than the input
    /// could hold.  The only way to read a count.
    #[inline]
    fn count(data: &mut &[u8], cap: usize, element_bytes: usize) -> Option<usize> {
        let n = Self::u32(data)? as usize;
        (n <= cap && n.checked_mul(element_bytes)? <= data.len()).then_some(n)
    }

    /// Appends an element count as the `u32` [`Order::count`] reads.
    #[inline]
    fn put_count<S: Sink>(buf: &mut S, n: usize) {
        debug_assert!(u32::try_from(n).is_ok(), "count {n} does not fit a u32");
        Self::put_u32(buf, n as u32);
    }

    /// Appends `value` in `Self`'s order.
    #[inline]
    fn put<'a, S: Sink, T: Wire<'a, Self>>(buf: &mut S, value: &T) {
        value.put(buf);
    }

    /// Reads a `T` in `Self`'s order.
    #[inline]
    fn get<'a, T: Wire<'a, Self>>(data: &mut &'a [u8]) -> Option<T> {
        T::get(data)
    }

    /// Reads a counted `T` of at most `cap` elements in `Self`'s order.
    #[inline]
    fn get_capped<'a, T: Capped<'a, Self>>(data: &mut &'a [u8], cap: usize) -> Option<T> {
        T::get_capped(data, cap)
    }
}

/// A value with one encoding per byte order `O`, which may borrow from the
/// bytes it is read from for `'a`.
pub trait Wire<'a, O: Order>: Sized {
    /// Fewest bytes an encoded value takes: what [`Order::count`] charges
    /// each element of a list against the bytes that are left.
    const MIN_BYTES: usize;

    /// Appends the encoding.
    fn put<S: Sink>(&self, sink: &mut S);

    /// Reads one value from the front of `data` and advances it past the
    /// value; `None` when the bytes are not there or not valid.
    fn get(data: &mut &'a [u8]) -> Option<Self>;

    /// Appends a counted list: the count, then each element.  A type with
    /// a bulk layout (entries, bytes) writes it here.
    fn put_list<S: Sink>(items: &[Self], sink: &mut S) {
        O::put_count(sink, items.len());
        for item in items {
            item.put(sink);
        }
    }

    /// Reads a counted list of at most `cap` elements, each charged
    /// [`Wire::MIN_BYTES`] before the list is reserved.
    fn get_list(data: &mut &'a [u8], cap: usize) -> Option<Vec<Self>> {
        let n = O::count(data, cap, Self::MIN_BYTES)?;
        let mut list = Vec::with_capacity(n);
        for _ in 0..n {
            list.push(Self::get(data)?);
        }
        Some(list)
    }
}

/// A counted value — a list, a map, a string — whose reader also takes
/// the most elements it accepts.  [`Wire::get`] is this reader at
/// [`UNCAPPED`].
pub trait Capped<'a, O: Order>: Wire<'a, O> {
    /// Reads a value of at most `cap` elements.
    fn get_capped(data: &mut &'a [u8], cap: usize) -> Option<Self>;
}

/// The [`Wire::MIN_BYTES`] of the struct field `field` projects to; the
/// terms [`wire_codec!`](crate::wire_codec) sums for a struct.
#[doc(hidden)]
pub const fn field_min_bytes<'a, O: Order, S, T: Wire<'a, O>>(_field: fn(&S) -> &T) -> usize {
    T::MIN_BYTES
}

/// The `Wire` impls of values that are one `Order` integer on the wire:
/// `$to` maps a value to the integer, `$from` the integer back to a value
/// or to a refusal.
macro_rules! scalar_wire {
    ($($ty:ident: $int:ident $put:ident, $to:expr, $from:expr;)*) => {$(
        impl<'a, O: Order> Wire<'a, O> for $ty {
            const MIN_BYTES: usize = std::mem::size_of::<$int>();
            fn put<S: Sink>(&self, sink: &mut S) {
                O::$put(sink, $to(*self));
            }
            fn get(data: &mut &'a [u8]) -> Option<Self> {
                let raw = O::$int(data)?;
                $from(raw)
            }
        }
    )*};
}

scalar_wire! {
    u16: u16 put_u16, u16::from, Some;
    u32: u32 put_u32, u32::from, Some;
    u64: u64 put_u64, u64::from, Some;
    Key: u64 put_u64, |key: Key| key.0, |word| Some(Key(word));
    DataId: u64 put_u64, |id: DataId| id.0, |word| Some(DataId(word));
    PeerId: u64 put_u64, u64::from, |word| Some(PeerId(word));
    // A `usize` travels as a `u64`; one that does not fit is refused.
    usize: u64 put_u64, |n| n as u64, |word| usize::try_from(word).ok();
    f64: u64 put_u64, f64::to_bits, |bits| Some(f64::from_bits(bits));
    // A flag: 0 or 1, and any other byte is refused.
    bool: u8 put_u8, u8::from, |byte| match byte {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    };
}

/// Bytes; a list of them is written and read in one piece.
impl<'a, O: Order> Wire<'a, O> for u8 {
    const MIN_BYTES: usize = 1;
    fn put<S: Sink>(&self, sink: &mut S) {
        O::put_u8(sink, *self);
    }
    fn get(data: &mut &'a [u8]) -> Option<Self> {
        O::u8(data)
    }
    fn put_list<S: Sink>(items: &[u8], sink: &mut S) {
        O::put_count(sink, items.len());
        sink.put(items);
    }
    fn get_list(data: &mut &'a [u8], cap: usize) -> Option<Vec<u8>> {
        let n = O::count(data, cap, 1)?;
        O::bytes(data, n).map(<[u8]>::to_vec)
    }
}

/// A flag (the `bool` rule), then the value when it is set.
impl<'a, O: Order, T: Wire<'a, O>> Wire<'a, O> for Option<T> {
    const MIN_BYTES: usize = 1;
    fn put<S: Sink>(&self, sink: &mut S) {
        O::put(sink, &self.is_some());
        if let Some(value) = self {
            value.put(sink);
        }
    }
    fn get(data: &mut &'a [u8]) -> Option<Self> {
        Some(match O::get(data)? {
            true => Some(T::get(data)?),
            false => None,
        })
    }
}

/// The `Wire` impls of tuples: the elements back to back.
macro_rules! tuple_wire {
    ($(($($t:ident $v:ident),*))*) => {$(
        impl<'a, O: Order, $($t: Wire<'a, O>),*> Wire<'a, O> for ($($t,)*) {
            const MIN_BYTES: usize = 0 $(+ $t::MIN_BYTES)*;
            fn put<S: Sink>(&self, sink: &mut S) {
                let ($($v,)*) = self;
                $($v.put(sink);)*
            }
            fn get(data: &mut &'a [u8]) -> Option<Self> {
                Some(($($t::get(data)?,)*))
            }
        }
    )*};
}

tuple_wire!((A a, B b) (A a, B b, C c));

/// A path: length byte, then the bits left-aligned in a `u64`; a length
/// past [`MAX_PATH_LEN`](crate::path::MAX_PATH_LEN) is refused.
impl<'a, O: Order> Wire<'a, O> for Path {
    const MIN_BYTES: usize = PATH_BYTES;
    fn put<S: Sink>(&self, sink: &mut S) {
        let (len, bits) = self.wire_parts();
        O::put_u8(sink, len);
        O::put_u64(sink, bits);
    }
    fn get(data: &mut &'a [u8]) -> Option<Self> {
        let len = O::u8(data)?;
        Path::from_wire_parts(len, O::u64(data)?)
    }
}

/// An entry: key, then id.  A list of entries is the bulk kernel: its
/// chunks go to the sink [`ENTRY_BLOCK`] at a time, and it is read
/// through its [`Entries`] view.
impl<'a, O: Order> Wire<'a, O> for DataEntry {
    const MIN_BYTES: usize = ENTRY_BYTES;
    #[inline]
    fn put<S: Sink>(&self, sink: &mut S) {
        O::put_u64(sink, self.key.0);
        O::put_u64(sink, self.id.0);
    }
    #[inline]
    fn get(data: &mut &'a [u8]) -> Option<Self> {
        let key = Key(O::u64(data)?);
        Some(DataEntry::new(key, DataId(O::u64(data)?)))
    }
    #[inline]
    fn put_list<S: Sink>(entries: &[DataEntry], sink: &mut S) {
        O::put_count(sink, entries.len());
        let mut block = [0; ENTRY_BLOCK * ENTRY_BYTES];
        for run in entries.chunks(ENTRY_BLOCK) {
            for (chunk, entry) in block.chunks_exact_mut(ENTRY_BYTES).zip(run) {
                let (key, id) = chunk.split_at_mut(8);
                key.copy_from_slice(&O::word_bytes(entry.key.0));
                id.copy_from_slice(&O::word_bytes(entry.id.0));
            }
            let filled = run
                .len()
                .checked_mul(ENTRY_BYTES)
                .and_then(|n| block.get(..n));
            sink.put(filled.unwrap_or_default());
        }
    }
    #[inline]
    fn get_list(data: &mut &'a [u8], cap: usize) -> Option<Vec<DataEntry>> {
        Entries::<O>::get_capped(data, cap).map(|entries| entries.to_vec())
    }
}

/// A validated entry list that still lies in the bytes it arrived in: its
/// count has been checked and every chunk is there, and each entry is read
/// from its chunk only when it is asked for.  `O` is the byte order of its
/// integers.
#[derive(Clone, Copy)]
pub struct Entries<'a, O> {
    /// The list's chunks, [`ENTRY_BYTES`] each, back to back.
    chunks: &'a [u8],
    order: PhantomData<O>,
}

impl<'a, O: Order> Entries<'a, O> {
    /// Number of entries in the list.
    pub fn len(&self) -> usize {
        self.chunks.len() / ENTRY_BYTES
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The entries in wire order, each decoded as it is reached.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = DataEntry> + 'a {
        self.chunks.chunks_exact(ENTRY_BYTES).map(|chunk| {
            let (key, id) = chunk.split_at(8);
            DataEntry::new(Key(O::word_from(key)), DataId(O::word_from(id)))
        })
    }

    /// The entries copied into a `Vec` of exactly their number.
    pub fn to_vec(&self) -> Vec<DataEntry> {
        self.iter().collect()
    }
}

impl<O: Order> fmt::Debug for Entries<'_, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The same bytes as a list of [`DataEntry`], which stay where they lie.
impl<'a, O: Order> Wire<'a, O> for Entries<'a, O> {
    const MIN_BYTES: usize = 4;
    #[inline]
    fn put<S: Sink>(&self, sink: &mut S) {
        O::put_count(sink, self.len());
        sink.put(self.chunks);
    }
    #[inline]
    fn get(data: &mut &'a [u8]) -> Option<Self> {
        <Self as Capped<'a, O>>::get_capped(data, UNCAPPED)
    }
}

impl<'a, O: Order> Capped<'a, O> for Entries<'a, O> {
    /// Checks the count against `cap` and the input and moves the cursor
    /// past the list's chunks; no entry is read.
    #[inline]
    fn get_capped(data: &mut &'a [u8], cap: usize) -> Option<Self> {
        let n = O::count(data, cap, ENTRY_BYTES)?;
        Some(Entries {
            chunks: O::bytes(data, n.checked_mul(ENTRY_BYTES)?)?,
            order: PhantomData,
        })
    }
}

/// A counted list: the count, then the elements as `T` lays them out.
impl<'a, O: Order, T: Wire<'a, O>> Wire<'a, O> for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn put<S: Sink>(&self, sink: &mut S) {
        T::put_list(self, sink);
    }
    fn get(data: &mut &'a [u8]) -> Option<Self> {
        T::get_list(data, UNCAPPED)
    }
}

impl<'a, O: Order, T: Wire<'a, O>> Capped<'a, O> for Vec<T> {
    fn get_capped(data: &mut &'a [u8], cap: usize) -> Option<Self> {
        T::get_list(data, cap)
    }
}

/// A map as the counted list of its `(key, value)` pairs in key order; a
/// repeated key keeps its last value.
impl<'a, O: Order, K: Wire<'a, O> + Ord, V: Wire<'a, O>> Wire<'a, O> for BTreeMap<K, V> {
    const MIN_BYTES: usize = 4;
    fn put<S: Sink>(&self, sink: &mut S) {
        O::put_count(sink, self.len());
        for (key, value) in self {
            key.put(sink);
            value.put(sink);
        }
    }
    fn get(data: &mut &'a [u8]) -> Option<Self> {
        <Self as Capped<'a, O>>::get_capped(data, UNCAPPED)
    }
}

impl<'a, O: Order, K: Wire<'a, O> + Ord, V: Wire<'a, O>> Capped<'a, O> for BTreeMap<K, V> {
    fn get_capped(data: &mut &'a [u8], cap: usize) -> Option<Self> {
        let n = O::count(data, cap, <(K, V)>::MIN_BYTES)?;
        let mut map = BTreeMap::new();
        for _ in 0..n {
            let (key, value) = O::get(data)?;
            map.insert(key, value);
        }
        Some(map)
    }
}

/// A UTF-8 string: its byte length, then its bytes.
impl<'a, O: Order> Wire<'a, O> for String {
    const MIN_BYTES: usize = 4;
    fn put<S: Sink>(&self, sink: &mut S) {
        O::put_count(sink, self.len());
        sink.put(self.as_bytes());
    }
    fn get(data: &mut &'a [u8]) -> Option<Self> {
        <Self as Capped<'a, O>>::get_capped(data, UNCAPPED)
    }
}

impl<'a, O: Order> Capped<'a, O> for String {
    /// Reads a string of at most `cap` bytes.
    fn get_capped(data: &mut &'a [u8], cap: usize) -> Option<Self> {
        let len = O::count(data, cap, 1)?;
        String::from_utf8(O::bytes(data, len)?.to_vec()).ok()
    }
}

/// A socket address: 4 or 6, the address's octets, then the port.
impl<'a, O: Order> Wire<'a, O> for SocketAddr {
    const MIN_BYTES: usize = 1 + 4 + 2;
    fn put<S: Sink>(&self, sink: &mut S) {
        match self.ip() {
            IpAddr::V4(ip) => {
                O::put_u8(sink, 4);
                sink.put(&ip.octets());
            }
            IpAddr::V6(ip) => {
                O::put_u8(sink, 6);
                sink.put(&ip.octets());
            }
        }
        O::put_u16(sink, self.port());
    }
    fn get(data: &mut &'a [u8]) -> Option<Self> {
        let ip: IpAddr = match O::u8(data)? {
            4 => Ipv4Addr::from(take::<4>(data)?).into(),
            6 => Ipv6Addr::from(take::<16>(data)?).into(),
            _ => return None,
        };
        Some(SocketAddr::new(ip, O::u16(data)?))
    }
}

/// A histogram in its sparse form: the non-empty buckets as
/// `(index, count)`, at most one per bucket, then sum and maximum.
impl<'a, O: Order> Wire<'a, O> for LogHistogram {
    const MIN_BYTES: usize = 4 + 8 + 8;
    fn put<S: Sink>(&self, sink: &mut S) {
        O::put(sink, &self.sparse_buckets());
        O::put_u64(sink, self.sum());
        O::put_u64(sink, self.max());
    }
    fn get(data: &mut &'a [u8]) -> Option<Self> {
        let sparse: Vec<(u16, u64)> = O::get_capped(data, NUM_BUCKETS)?;
        let sum = O::u64(data)?;
        Some(LogHistogram::from_sparse(&sparse, sum, O::u64(data)?))
    }
}

/// Writes both directions of a [`Wire`] codec from one listing of the
/// fields, in wire order.  A field is written `name`, or `name [CAP]` when
/// it is a [`Capped`] list read with at most `CAP` elements.  One
/// invocation takes any number of listings:
///
/// - `struct Name in Order { field, list [CAP], … }` implements
///   `Wire<Order>` for a struct with named fields.
/// - `enum Name in Order { tag => Variant { field, … }, tag => Variant(field),
///   tag => Variant, … }` implements it for a tagged enum: a `u8` tag, then
///   the variant's fields.  A tag is a literal or a `u8` constant.
/// - `enum Name in Order except Variant, … { … }` lists an enum whose
///   excepted variants are encoded by hand.  It implements no trait: it
///   writes `put_listed(&self, sink)`, which writes nothing for an
///   excepted variant, and `get_listed(tag, data)`, which reads the fields
///   of a listed tag and refuses any other.
///
/// The order is a type of the calling crate or of this one; an impl for
/// another crate's type needs a local order (the orphan rule).
#[macro_export]
macro_rules! wire_codec {
    () => {};
    (struct $ty:ident in $o:ident { $($f:ident $([$cap:expr])?),* $(,)? } $($rest:tt)*) => {
        impl<'a> $crate::wire::Wire<'a, $o> for $ty {
            const MIN_BYTES: usize =
                0 $(+ $crate::wire::field_min_bytes::<$o, Self, _>(|value| &value.$f))*;
            fn put<S: $crate::wire::Sink>(&self, sink: &mut S) {
                $(<$o as $crate::wire::Order>::put(sink, &self.$f);)*
            }
            fn get(data: &mut &'a [u8]) -> Option<Self> {
                Some($ty { $($f: $crate::wire_codec!(@get $o, data $([$cap])?),)* })
            }
        }
        $crate::wire_codec! { $($rest)* }
    };
    (enum $ty:ident in $o:ident { $($tag:tt => $v:ident $({ $($named:tt)* })? $(( $($unnamed:tt)* ))?),* $(,)? } $($rest:tt)*) => {
        impl<'a> $crate::wire::Wire<'a, $o> for $ty {
            const MIN_BYTES: usize = 1;
            fn put<S: $crate::wire::Sink>(&self, sink: &mut S) {
                match self {
                    $($crate::wire_codec!(@pat $ty $v $({ $($named)* })? $(( $($unnamed)* ))?) => {
                        <$o as $crate::wire::Order>::put_u8(sink, $tag);
                        $crate::wire_codec!(@put $o, sink $({ $($named)* })? $(( $($unnamed)* ))?);
                    })*
                }
            }
            fn get(data: &mut &'a [u8]) -> Option<Self> {
                Some(match <$o as $crate::wire::Order>::u8(data)? {
                    $($tag => $crate::wire_codec!(@new $o, data, $ty $v $({ $($named)* })? $(( $($unnamed)* ))?),)*
                    _ => return None,
                })
            }
        }
        $crate::wire_codec! { $($rest)* }
    };
    (enum $ty:ident in $o:ident except $($x:ident),+ { $($tag:tt => $v:ident $({ $($named:tt)* })? $(( $($unnamed:tt)* ))?),* $(,)? } $($rest:tt)*) => {
        impl $ty {
            /// Appends the tag and the fields of a listed variant; an
            /// excepted one is encoded by hand and writes nothing here.
            fn put_listed<S: $crate::wire::Sink>(&self, sink: &mut S) {
                match self {
                    $($crate::wire_codec!(@pat $ty $v $({ $($named)* })? $(( $($unnamed)* ))?) => {
                        <$o as $crate::wire::Order>::put_u8(sink, $tag);
                        $crate::wire_codec!(@put $o, sink $({ $($named)* })? $(( $($unnamed)* ))?);
                    })*
                    $($ty::$x { .. })|+ => {}
                }
            }
            /// Reads the fields of the listed variant `tag`; `None` for
            /// any other tag.
            fn get_listed(tag: u8, data: &mut &[u8]) -> Option<Self> {
                Some(match tag {
                    $($tag => $crate::wire_codec!(@new $o, data, $ty $v $({ $($named)* })? $(( $($unnamed)* ))?),)*
                    _ => return None,
                })
            }
        }
        $crate::wire_codec! { $($rest)* }
    };
    (@get $o:ident, $data:ident) => {
        <$o as $crate::wire::Order>::get($data)?
    };
    (@get $o:ident, $data:ident [$cap:expr]) => {
        <$o as $crate::wire::Order>::get_capped($data, $cap)?
    };
    (@pat $ty:ident $v:ident { $($f:ident $([$cap:expr])?),* $(,)? }) => { $ty::$v { $($f),* } };
    (@pat $ty:ident $v:ident ( $($f:ident $([$cap:expr])?),* $(,)? )) => { $ty::$v ( $($f),* ) };
    (@pat $ty:ident $v:ident) => { $ty::$v };
    (@put $o:ident, $sink:ident $({ $($f:ident $([$cap:expr])?),* $(,)? })?) => {
        $($(<$o as $crate::wire::Order>::put($sink, $f);)*)?
    };
    (@put $o:ident, $sink:ident ( $($f:ident $([$cap:expr])?),* $(,)? )) => {
        $(<$o as $crate::wire::Order>::put($sink, $f);)*
    };
    (@new $o:ident, $data:ident, $ty:ident $v:ident { $($f:ident $([$cap:expr])?),* $(,)? }) => {
        $ty::$v { $($f: $crate::wire_codec!(@get $o, $data $([$cap])?),)* }
    };
    (@new $o:ident, $data:ident, $ty:ident $v:ident ( $($f:ident $([$cap:expr])?),* $(,)? )) => {
        $ty::$v ( $($crate::wire_codec!(@get $o, $data $([$cap])?),)* )
    };
    (@new $o:ident, $data:ident, $ty:ident $v:ident) => { $ty::$v };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::MAX_PATH_LEN;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One reader in both orders: exactly enough bytes decode and empty the
    /// cursor, one byte short is `None` and consumes nothing that matters.
    fn check_width<T: Copy + PartialEq + std::fmt::Debug>(
        value: T,
        big_endian: &[u8],
        be: fn(&mut &[u8]) -> Option<T>,
        le: fn(&mut &[u8]) -> Option<T>,
    ) {
        let little_endian: Vec<u8> = big_endian.iter().rev().copied().collect();
        for (bytes, read) in [(big_endian, be), (&little_endian[..], le)] {
            let mut data = bytes;
            assert_eq!(read(&mut data), Some(value), "{bytes:?}");
            assert!(data.is_empty());
            assert_eq!(read(&mut &bytes[..bytes.len() - 1]), None, "{bytes:?}");
        }
    }

    #[test]
    fn every_width_reads_exactly_enough_and_refuses_one_byte_short() {
        check_width(0xA1u8, &[0xA1], Be::u8, Le::u8);
        check_width(0xA1B2u16, &[0xA1, 0xB2], Be::u16, Le::u16);
        check_width(0xA1B2_C3D4u32, &[0xA1, 0xB2, 0xC3, 0xD4], Be::u32, Le::u32);
        let word = [0xA1, 0xB2, 0xC3, 0xD4, 0xE5, 0xF6, 0x07, 0x18];
        check_width(0xA1B2_C3D4_E5F6_0718u64, &word, Be::u64, Le::u64);
        let float = f64::from_bits(0xA1B2_C3D4_E5F6_0718);
        check_width(float, &word, |data| Be::get(data), |data| Le::get(data));
        let mut data = &word[..];
        assert_eq!(Be::bytes(&mut data, 3), Some(&word[..3]));
        assert_eq!(Be::bytes(&mut data, 6), None);
        assert_eq!(Be::bytes(&mut data, 5), Some(&word[3..]));
    }

    #[test]
    fn every_width_writes_what_it_reads() {
        let (mut be, mut le) = (Vec::new(), Vec::new());
        Be::put_u8(&mut be, 0xA1);
        Be::put_u16(&mut be, 0xA1B2);
        Be::put_u32(&mut be, 0xA1B2_C3D4);
        Be::put_u64(&mut be, 0xA1B2_C3D4_E5F6_0718);
        Be::put(&mut be, &0.636);
        Le::put_u8(&mut le, 0xA1);
        Le::put_u16(&mut le, 0xA1B2);
        Le::put_u32(&mut le, 0xA1B2_C3D4);
        Le::put_u64(&mut le, 0xA1B2_C3D4_E5F6_0718);
        Le::put(&mut le, &0.636);
        assert_eq!(be[..7], [0xA1, 0xA1, 0xB2, 0xA1, 0xB2, 0xC3, 0xD4]);
        assert_eq!(le[..7], [0xA1, 0xB2, 0xA1, 0xD4, 0xC3, 0xB2, 0xA1]);
        let (mut be, mut le) = (&be[..], &le[..]);
        assert_eq!((Be::u8(&mut be), Le::u8(&mut le)), (Some(0xA1), Some(0xA1)));
        assert_eq!(Be::u16(&mut be), Le::u16(&mut le));
        assert_eq!(Be::u32(&mut be), Le::u32(&mut le));
        assert_eq!(Be::u64(&mut be), Some(0xA1B2_C3D4_E5F6_0718));
        assert_eq!(Le::u64(&mut le), Some(0xA1B2_C3D4_E5F6_0718));
        assert_eq!(
            (Be::get::<f64>(&mut be), Le::get::<f64>(&mut le)),
            (Some(0.636), Some(0.636))
        );
        assert!(be.is_empty() && le.is_empty());
    }

    #[test]
    fn a_count_is_checked_against_the_cap_and_the_input_before_anything_is_reserved() {
        // Three elements of nine bytes claimed, 27 bytes behind the count.
        let mut counted = vec![0, 0, 0, 3];
        counted.resize(4 + 27, 0);
        assert_eq!(Be::count(&mut &counted[..], 3, 9), Some(3), "at the cap");
        assert_eq!(Be::count(&mut &counted[..], 2, 9), None, "cap + 1");
        assert_eq!(Be::count(&mut &counted[..30], 3, 9), None, "a byte short");
        assert_eq!(
            Be::count(&mut &counted[..], 3, usize::MAX),
            None,
            "n × size overflows"
        );
        assert_eq!(Be::count(&mut &counted[..3], 3, 0), None, "truncated count");
        // What a hostile journal record or registry snapshot claims: the
        // refusal comes from `count`, so no list reader gets to reserve.
        let hostile = [0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(Le::count(&mut &hostile[..], usize::MAX, 1), None);
        let hostile = &hostile[..];
        assert_eq!(Le::get::<Vec<DataEntry>>(&mut { hostile }), None);
        assert_eq!(Le::get::<Vec<u64>>(&mut { hostile }), None);
        assert_eq!(Le::get::<Vec<(u8, u64, Path)>>(&mut { hostile }), None);
        assert_eq!(Le::get::<Vec<Path>>(&mut { hostile }), None);
        assert_eq!(Le::get::<Vec<u8>>(&mut { hostile }), None);
        assert_eq!(Le::get::<BTreeMap<u64, u64>>(&mut { hostile }), None);
        assert_eq!(Le::get::<String>(&mut { hostile }), None);
        assert_eq!(Le::get::<LogHistogram>(&mut { hostile }), None);
        assert!(Le::get::<Entries<'_, Le>>(&mut { hostile }).is_none());
        // A zero-size element is bounded by the cap alone.
        assert_eq!(
            Le::count(&mut &hostile[..4], usize::MAX, 0),
            Some(u32::MAX as usize)
        );
    }

    #[test]
    fn a_path_longer_than_the_key_space_is_refused() {
        let mut wire = vec![MAX_PATH_LEN as u8];
        wire.extend([0xFF; 8]);
        assert!(Be::get::<Path>(&mut &wire[..]).is_some());
        wire[0] += 1;
        assert_eq!(Be::get::<Path>(&mut &wire[..]), None);
        assert_eq!(Le::get::<Path>(&mut &wire[..]), None);
        // ... also as an element of a list.
        let mut listed = vec![0, 0, 0, 1];
        listed.extend(&wire);
        assert_eq!(Be::get_capped::<Vec<Path>>(&mut &listed[..], 1), None);
    }

    #[test]
    fn a_flag_is_zero_or_one_and_any_other_byte_is_refused() {
        fn read<O: Order>(bytes: &[u8]) -> (Option<bool>, Option<Option<u8>>) {
            (O::get(&mut { bytes }), O::get(&mut { bytes }))
        }
        for read in [read::<Be>, read::<Le>] {
            assert_eq!(read(&[0, 7]), (Some(false), Some(None)));
            assert_eq!(read(&[1, 7]), (Some(true), Some(Some(7))));
            for flag in 2..=u8::MAX {
                assert_eq!(read(&[flag, 7]), (None, None), "flag {flag}");
            }
        }
    }

    /// The fields of a `ReplicaPush` / a journal `Image`, as the parent
    /// commit's `message.rs` (big-endian) and `record.rs` (little-endian)
    /// encoded them.
    const BE_LITERAL: [u8; 71] = [
        4, 96, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0, 9, 0,
        0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 10, 11, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0,
        0, 0, 5, 255, 255, 255, 255, 255, 255, 255, 254,
    ];
    const LE_LITERAL: [u8; 71] = [
        4, 0, 0, 0, 0, 0, 0, 0, 96, 1, 0, 0, 0, 8, 7, 6, 5, 4, 3, 2, 1, 9, 0, 0, 0, 0, 0, 0, 0, 1,
        0, 0, 0, 1, 11, 10, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 5, 0, 0, 0, 0,
        0, 0, 0, 254, 255, 255, 255, 255, 255, 255, 255,
    ];

    #[test]
    fn both_orders_write_the_bytes_the_parent_wrote_and_read_them_back() {
        fn write_and_read<O: Order>(literal: &[u8]) {
            let path = Path::parse("0110");
            let entries = vec![DataEntry::new(Key(0x0102_0304_0506_0708), DataId(9))];
            let routing = vec![(1u8, PeerId(0x0A0B), Path::parse("00"))];
            let peers = vec![5u64, 0xFFFF_FFFF_FFFF_FFFE];
            let mut buf = Vec::new();
            O::put(&mut buf, &path);
            O::put(&mut buf, &entries);
            O::put(&mut buf, &routing);
            O::put(&mut buf, &peers);
            assert_eq!(buf, literal);
            let mut data = literal;
            assert_eq!(O::get(&mut data), Some(path));
            assert_eq!(O::get_capped(&mut data, 1), Some(entries));
            assert_eq!(O::get_capped(&mut data, 1), Some(routing));
            assert_eq!(O::get_capped(&mut data, 2), Some(peers));
            assert!(data.is_empty());
        }
        write_and_read::<Be>(&BE_LITERAL);
        write_and_read::<Le>(&LE_LITERAL);
    }

    #[test]
    fn every_composite_round_trips_and_leaves_the_cursor_just_past_it() {
        fn round_trip<O: Order>() {
            let paths = vec![
                Path::root(),
                Path::parse("1"),
                Path::parse(&"10".repeat(32)),
            ];
            let mut histogram = LogHistogram::new();
            for value in [0, 7, 8, 130, 130, 1 << 40, u64::MAX] {
                histogram.record(value);
            }
            let mut buf = Vec::new();
            O::put(&mut buf, &paths);
            O::put(&mut buf, &"p50=\"2 ms\" ✓".to_string());
            O::put(&mut buf, &histogram);
            O::put(&mut buf, &LogHistogram::new());
            O::put(&mut buf, &Vec::<DataEntry>::new());
            O::put_count(&mut buf, 2);
            Sink::put(&mut buf, &[0xEE; 3]);
            let mut data = &buf[..];
            assert_eq!(O::get_capped(&mut data, 3), Some(paths));
            let string = O::get_capped::<String>(&mut data, 15);
            assert_eq!(string.as_deref(), Some("p50=\"2 ms\" ✓"));
            assert_eq!(O::get(&mut data), Some(histogram));
            assert_eq!(O::get(&mut data), Some(LogHistogram::new()));
            assert_eq!(O::get_capped(&mut data, 0), Some(Vec::<DataEntry>::new()));
            assert_eq!(O::get_capped(&mut data, 2), Some(vec![0xEEu8, 0xEE]));
            assert_eq!(data, [0xEE]);
        }
        round_trip::<Be>();
        round_trip::<Le>();
    }

    #[test]
    fn strings_and_lists_refuse_what_is_over_their_cap_or_not_valid() {
        let mut wire = Vec::new();
        Be::put(&mut wire, &"pgrid".to_string());
        let string = |data: &[u8], cap| Be::get_capped::<String>(&mut { data }, cap);
        assert_eq!(string(&wire, 5).as_deref(), Some("pgrid"));
        assert_eq!(string(&wire, 4), None, "over the cap");
        assert_eq!(string(&wire[..8], 5), None, "truncated");
        wire[4] = 0xFF;
        assert_eq!(string(&wire, 5), None, "not UTF-8");
        // An element that fails fails the list.
        let wire = [0, 0, 0, 2, 1, 2];
        assert_eq!(Be::get_capped::<Vec<bool>>(&mut &wire[..], 2), None);
        assert_eq!(
            Be::get_capped::<Vec<u8>>(&mut &wire[..], 2),
            Some(vec![1, 2])
        );
        assert_eq!(
            Be::get_capped::<Vec<u8>>(&mut &wire[..], 1),
            None,
            "over the cap"
        );
    }

    #[test]
    fn a_hostile_histogram_saturates_instead_of_overflowing() {
        // Two buckets of `u64::MAX` — nothing in the format forbids them.
        let mut wire = Vec::new();
        Le::put(&mut wire, &vec![(3u16, u64::MAX), (9, u64::MAX)]);
        Le::put_u64(&mut wire, u64::MAX);
        Le::put_u64(&mut wire, 9);
        let mut data = &wire[..];
        let histogram: LogHistogram = Le::get(&mut data).unwrap();
        assert!(data.is_empty());
        assert_eq!(histogram.total(), u64::MAX);
        let mut merged = histogram.clone();
        merged.merge(&histogram);
        assert_eq!(merged.total(), u64::MAX);
    }

    /// `value` in order `O`: it reads back equal with the cursor just past
    /// it, each strict prefix of it is refused, and it is at least
    /// `MIN_BYTES` long.
    fn check<O, T>(value: &T) -> Result<(), TestCaseError>
    where
        O: Order,
        T: for<'b> Wire<'b, O> + PartialEq + fmt::Debug,
    {
        let mut wire = Vec::new();
        O::put(&mut wire, value);
        prop_assert!(wire.len() >= <T as Wire<'_, O>>::MIN_BYTES, "{value:?}");
        let trailer = [0xA5, 0x5A];
        let followed = [&wire[..], &trailer[..]].concat();
        let mut data = &followed[..];
        let read = O::get::<T>(&mut data);
        prop_assert_eq!(read.as_ref(), Some(value));
        prop_assert_eq!(data, &trailer[..]);
        for cut in 0..wire.len() {
            prop_assert!(O::get::<T>(&mut &wire[..cut]).is_none(), "{value:?}");
        }
        Ok(())
    }

    fn arbitrary_path(rng: &mut StdRng) -> Path {
        let mut path = Path::root();
        for _ in 0..rng.gen_range(0..=MAX_PATH_LEN) {
            path = path.child(rng.gen_bool(0.5));
        }
        path
    }

    fn arbitrary_string(rng: &mut StdRng) -> String {
        let alphabet = ['a', 'Z', '0', ' ', '"', '=', 'é', '✓'];
        (0..rng.gen_range(0..12))
            .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
            .collect()
    }

    /// Every primitive impl, on values drawn from `rng`, in order `O`.
    fn every_primitive<O: Order>(rng: &mut StdRng) -> Result<(), TestCaseError> {
        check::<O, u8>(&rng.gen())?;
        check::<O, u16>(&rng.gen())?;
        check::<O, u32>(&rng.gen())?;
        check::<O, u64>(&rng.gen())?;
        check::<O, usize>(&rng.gen())?;
        let float = f64::from_bits(rng.gen());
        check::<O, f64>(&if float.is_nan() { -0.5 } else { float })?;
        check::<O, bool>(&rng.gen_bool(0.5))?;
        check::<O, Option<u32>>(&rng.gen_bool(0.5).then(|| rng.gen()))?;
        let peer = PeerId(rng.gen());
        check::<O, Option<(PeerId, Path)>>(
            &rng.gen_bool(0.5).then(|| (peer, arbitrary_path(rng))),
        )?;
        check::<O, (u64, bool)>(&(rng.gen(), rng.gen_bool(0.5)))?;
        check::<O, (u8, PeerId, Path)>(&(rng.gen(), PeerId(rng.gen()), arbitrary_path(rng)))?;
        check::<O, Path>(&arbitrary_path(rng))?;
        check::<O, Key>(&Key(rng.gen()))?;
        check::<O, DataId>(&DataId(rng.gen()))?;
        check::<O, PeerId>(&PeerId(rng.gen()))?;
        let entry = |rng: &mut StdRng| DataEntry::new(Key(rng.gen()), DataId(rng.gen()));
        check::<O, DataEntry>(&entry(rng))?;
        check::<O, String>(&arbitrary_string(rng))?;
        let v4 = SocketAddr::new(Ipv4Addr::from(rng.gen::<u32>()).into(), rng.gen());
        let v6 = u128::from(rng.gen::<u64>()) << 64 | u128::from(rng.gen::<u64>());
        let v6 = SocketAddr::new(Ipv6Addr::from(v6).into(), rng.gen());
        check::<O, SocketAddr>(&v4)?;
        check::<O, SocketAddr>(&v6)?;
        let mut histogram = LogHistogram::new();
        for _ in 0..rng.gen_range(0..20) {
            histogram.record(rng.gen::<u64>() >> rng.gen_range(0..64));
        }
        check::<O, LogHistogram>(&histogram)?;
        // Lists across the entry kernel's 64-entry blocks.
        let entries: Vec<DataEntry> = (0..rng.gen_range(0..150)).map(|_| entry(rng)).collect();
        check::<O, Vec<DataEntry>>(&entries)?;
        check::<O, Vec<Path>>(
            &(0..rng.gen_range(0..5))
                .map(|_| arbitrary_path(rng))
                .collect(),
        )?;
        check::<O, Vec<u8>>(&(0..rng.gen_range(0..40)).map(|_| rng.gen()).collect())?;
        let map: BTreeMap<u64, (u64, f64)> = (0..rng.gen_range(0..6))
            .map(|_| (rng.gen_range(0..8), (rng.gen(), 0.25)))
            .collect();
        check::<O, BTreeMap<u64, (u64, f64)>>(&map)?;
        // The borrowed view reads what the owned list wrote, and writes it
        // back byte for byte.
        let mut wire = Vec::new();
        O::put(&mut wire, &entries);
        let mut data = &wire[..];
        let view: Entries<'_, O> = O::get(&mut data).unwrap();
        prop_assert!(data.is_empty());
        prop_assert_eq!(view.to_vec(), entries);
        let mut again = Vec::new();
        O::put(&mut again, &view);
        prop_assert_eq!(again, wire);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 96 } else { 1024 }))]

        #[test]
        fn every_primitive_impl_round_trips_refuses_its_prefixes_and_meets_its_minimum(
            seed in any::<u64>(),
        ) {
            every_primitive::<Be>(&mut StdRng::seed_from_u64(seed))?;
            every_primitive::<Le>(&mut StdRng::seed_from_u64(seed))?;
        }
    }
}
