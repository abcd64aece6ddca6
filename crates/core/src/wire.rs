//! The wire-codec kit: the one place an integer, a count, a path, an entry
//! list, a peer list, routing references, a string or a histogram meets
//! bytes.
//!
//! Every format of the workspace is written with it — the peer protocol
//! (`pgrid-net`), the control protocol (`pgrid-cluster`), frames and mux
//! records (`pgrid-transport`, `pgrid-reactor`) big-endian, the journal
//! (`pgrid-durable`) and the registry snapshot (`pgrid-obs`) little-endian.
//! Byte order is the kit's one type parameter: every function is an
//! associated function of [`Order`], implemented by [`Be`] and [`Le`], so a
//! codec reads `Be::u64(data)?` or `Le::put_path(buf, &path)` and the two
//! dialects cannot drift apart in anything but the order of an integer's
//! bytes.
//!
//! Reads take the input as `&mut &[u8]`, advance it past what they
//! consumed and return `None` when the bytes are not there or not valid —
//! no read can panic, whatever the input.  An element count is only ever
//! read through [`Order::count`], which checks the claim against the bytes
//! that are left *before* anything is reserved for it.  Writes go to a
//! [`Sink`]: a `Vec<u8>`, or a counter that only measures.
//!
//! An entry list is the one bulk shape: [`Order::entry_view`] validates
//! its count and its bytes and hands back an [`Entries`] view that reads
//! each entry from its fixed 16-byte chunk on demand, [`Order::entries`]
//! is that view copied into a `Vec`, and [`Order::put_entries`] writes
//! the chunks a block of [`ENTRY_BLOCK`] entries at a time.
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
use std::fmt;
use std::marker::PhantomData;

/// Encoded size of one [`Path`]: length byte plus left-aligned bits.
pub const PATH_BYTES: usize = 1 + 8;

/// Encoded size of one [`DataEntry`]: key plus id.
pub const ENTRY_BYTES: usize = 8 + 8;

/// Entries [`Order::put_entries`] lays out on the stack before it hands
/// them to the sink in one piece.
pub const ENTRY_BLOCK: usize = 64;

/// Encoded size of one routing reference: level, peer, path.
pub const ROUTING_REF_BYTES: usize = 1 + 8 + PATH_BYTES;

/// Encoded size of one sparse histogram bucket: index plus count.
const BUCKET_BYTES: usize = 2 + 8;

/// Shortest encoded [`LogHistogram`]: no buckets, then sum and max.
pub const HISTOGRAM_MIN_BYTES: usize = 4 + 8 + 8;

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

/// Big-endian: the peer protocol, the control protocol, frames and mux
/// records.
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

/// A validated entry list that still lies in the bytes it arrived in:
/// [`Order::entry_view`] has checked its count and that every chunk is
/// there, and each entry is read from its chunk only when it is asked
/// for.  `O` is the byte order of its integers.
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

    /// Reads an IEEE-754 `f64` (its bits as a `u64`).
    #[inline]
    fn f64(data: &mut &[u8]) -> Option<f64> {
        Self::u64(data).map(f64::from_bits)
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

    /// Reads a counted list: a [`Order::count`] (at most `cap` elements of
    /// at least `element_bytes` each), then that many `element`s.
    #[inline]
    fn list<T>(
        data: &mut &[u8],
        cap: usize,
        element_bytes: usize,
        mut element: impl FnMut(&mut &[u8]) -> Option<T>,
    ) -> Option<Vec<T>> {
        let n = Self::count(data, cap, element_bytes)?;
        let mut list = Vec::with_capacity(n);
        for _ in 0..n {
            list.push(element(data)?);
        }
        Some(list)
    }

    /// Reads a path; `None` when its length exceeds
    /// [`MAX_PATH_LEN`](crate::path::MAX_PATH_LEN).
    #[inline]
    fn path(data: &mut &[u8]) -> Option<Path> {
        let len = Self::u8(data)?;
        Path::from_wire_parts(len, Self::u64(data)?)
    }

    /// Reads a counted list of at most `cap` paths.
    #[inline]
    fn paths(data: &mut &[u8], cap: usize) -> Option<Vec<Path>> {
        Self::list(data, cap, PATH_BYTES, Self::path)
    }

    /// Validates a counted list of at most `cap` data entries and leaves
    /// it where it lies: the count is checked against the cap and the
    /// input, the cursor moves past the list's chunks, and no entry is
    /// read.
    #[inline]
    fn entry_view<'a>(data: &mut &'a [u8], cap: usize) -> Option<Entries<'a, Self>> {
        let n = Self::count(data, cap, ENTRY_BYTES)?;
        Some(Entries {
            chunks: Self::bytes(data, n.checked_mul(ENTRY_BYTES)?)?,
            order: PhantomData,
        })
    }

    /// Reads a counted list of at most `cap` data entries: the
    /// [`Order::entry_view`], copied out.
    #[inline]
    fn entries(data: &mut &[u8], cap: usize) -> Option<Vec<DataEntry>> {
        Self::entry_view(data, cap).map(|entries| entries.to_vec())
    }

    /// Reads a counted list of at most `cap` peer ids.
    #[inline]
    fn peers<P: From<u64>>(data: &mut &[u8], cap: usize) -> Option<Vec<P>> {
        Self::list(data, cap, 8, |data| Self::u64(data).map(P::from))
    }

    /// Reads a counted list of at most `cap` routing references
    /// `(level, peer, path)`.
    #[inline]
    fn routing<P: From<u64>>(data: &mut &[u8], cap: usize) -> Option<Vec<(u8, P, Path)>> {
        Self::list(data, cap, ROUTING_REF_BYTES, |data| {
            let level = Self::u8(data)?;
            let peer = P::from(Self::u64(data)?);
            Some((level, peer, Self::path(data)?))
        })
    }

    /// Reads a length-prefixed UTF-8 string of at most `cap` bytes.
    #[inline]
    fn string(data: &mut &[u8], cap: usize) -> Option<String> {
        let len = Self::count(data, cap, 1)?;
        String::from_utf8(Self::bytes(data, len)?.to_vec()).ok()
    }

    /// Reads a sparse [`LogHistogram`]: its non-empty buckets, then the
    /// carried sum and maximum.
    #[inline]
    fn histogram(data: &mut &[u8]) -> Option<LogHistogram> {
        let sparse = Self::list(data, NUM_BUCKETS, BUCKET_BYTES, |data| {
            Some((Self::u16(data)?, Self::u64(data)?))
        })?;
        let sum = Self::u64(data)?;
        Some(LogHistogram::from_sparse(&sparse, sum, Self::u64(data)?))
    }

    /// Appends an IEEE-754 `f64` (its bits as a `u64`).
    #[inline]
    fn put_f64<S: Sink>(buf: &mut S, value: f64) {
        Self::put_u64(buf, value.to_bits());
    }

    /// Appends an element count as the `u32` [`Order::count`] reads.
    #[inline]
    fn put_count<S: Sink>(buf: &mut S, n: usize) {
        debug_assert!(u32::try_from(n).is_ok(), "count {n} does not fit a u32");
        Self::put_u32(buf, n as u32);
    }

    /// Appends a path: length byte, then the bits left-aligned in a `u64`.
    #[inline]
    fn put_path<S: Sink>(buf: &mut S, path: &Path) {
        let (len, bits) = path.wire_parts();
        Self::put_u8(buf, len);
        Self::put_u64(buf, bits);
    }

    /// Appends a counted list of paths.
    #[inline]
    fn put_paths<S: Sink>(buf: &mut S, paths: &[Path]) {
        Self::put_count(buf, paths.len());
        for path in paths {
            Self::put_path(buf, path);
        }
    }

    /// Appends a counted list of data entries, each as key then id: the
    /// chunks of up to [`ENTRY_BLOCK`] entries are laid out on the stack
    /// and go to the sink in one piece.
    #[inline]
    fn put_entries<S: Sink>(buf: &mut S, entries: &[DataEntry]) {
        Self::put_count(buf, entries.len());
        let mut block = [0; ENTRY_BLOCK * ENTRY_BYTES];
        for run in entries.chunks(ENTRY_BLOCK) {
            for (chunk, entry) in block.chunks_exact_mut(ENTRY_BYTES).zip(run) {
                let (key, id) = chunk.split_at_mut(8);
                key.copy_from_slice(&Self::word_bytes(entry.key.0));
                id.copy_from_slice(&Self::word_bytes(entry.id.0));
            }
            let filled = run
                .len()
                .checked_mul(ENTRY_BYTES)
                .and_then(|n| block.get(..n));
            buf.put(filled.unwrap_or_default());
        }
    }

    /// Appends a counted list of peer ids.
    #[inline]
    fn put_peers<S: Sink, P: Copy + Into<u64>>(buf: &mut S, peers: &[P]) {
        Self::put_count(buf, peers.len());
        for &peer in peers {
            Self::put_u64(buf, peer.into());
        }
    }

    /// Appends a counted list of routing references `(level, peer, path)`.
    #[inline]
    fn put_routing<S: Sink, P: Copy + Into<u64>>(buf: &mut S, routing: &[(u8, P, Path)]) {
        Self::put_count(buf, routing.len());
        for (level, peer, path) in routing {
            Self::put_u8(buf, *level);
            Self::put_u64(buf, (*peer).into());
            Self::put_path(buf, path);
        }
    }

    /// Appends a length-prefixed string.
    #[inline]
    fn put_str<S: Sink>(buf: &mut S, s: &str) {
        Self::put_count(buf, s.len());
        buf.put(s.as_bytes());
    }

    /// Appends a [`LogHistogram`] in its sparse form: the non-empty
    /// buckets as `(index, count)`, then sum and maximum.
    #[inline]
    fn put_histogram<S: Sink>(buf: &mut S, histogram: &LogHistogram) {
        let sparse = histogram.sparse_buckets();
        Self::put_count(buf, sparse.len());
        for (bucket, count) in sparse {
            Self::put_u16(buf, bucket);
            Self::put_u64(buf, count);
        }
        Self::put_u64(buf, histogram.sum());
        Self::put_u64(buf, histogram.max());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::MAX_PATH_LEN;
    use crate::routing::PeerId;

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
        check_width(
            f64::from_bits(0xA1B2_C3D4_E5F6_0718),
            &word,
            Be::f64,
            Le::f64,
        );
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
        Be::put_f64(&mut be, 0.636);
        Le::put_u8(&mut le, 0xA1);
        Le::put_u16(&mut le, 0xA1B2);
        Le::put_u32(&mut le, 0xA1B2_C3D4);
        Le::put_u64(&mut le, 0xA1B2_C3D4_E5F6_0718);
        Le::put_f64(&mut le, 0.636);
        assert_eq!(be[..7], [0xA1, 0xA1, 0xB2, 0xA1, 0xB2, 0xC3, 0xD4]);
        assert_eq!(le[..7], [0xA1, 0xB2, 0xA1, 0xD4, 0xC3, 0xB2, 0xA1]);
        let (mut be, mut le) = (&be[..], &le[..]);
        assert_eq!((Be::u8(&mut be), Le::u8(&mut le)), (Some(0xA1), Some(0xA1)));
        assert_eq!(Be::u16(&mut be), Le::u16(&mut le));
        assert_eq!(Be::u32(&mut be), Le::u32(&mut le));
        assert_eq!(Be::u64(&mut be), Some(0xA1B2_C3D4_E5F6_0718));
        assert_eq!(Le::u64(&mut le), Some(0xA1B2_C3D4_E5F6_0718));
        assert_eq!(
            (Be::f64(&mut be), Le::f64(&mut le)),
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
        assert_eq!(Le::entries(&mut &hostile[..], usize::MAX), None);
        assert_eq!(Le::peers::<u64>(&mut &hostile[..], usize::MAX), None);
        assert_eq!(Le::routing::<u64>(&mut &hostile[..], usize::MAX), None);
        assert_eq!(Le::paths(&mut &hostile[..], usize::MAX), None);
        assert_eq!(Le::string(&mut &hostile[..], usize::MAX), None);
        assert_eq!(Le::histogram(&mut &hostile[..]), None);
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
        assert!(Be::path(&mut &wire[..]).is_some());
        wire[0] += 1;
        assert_eq!(Be::path(&mut &wire[..]), None);
        assert_eq!(Le::path(&mut &wire[..]), None);
        // ... also as an element of a list.
        let mut listed = vec![0, 0, 0, 1];
        listed.extend(&wire);
        assert_eq!(Be::paths(&mut &listed[..], 1), None);
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

    fn peer_state<O: Order>() -> Vec<u8> {
        let mut buf = Vec::new();
        O::put_path(&mut buf, &Path::parse("0110"));
        O::put_entries(
            &mut buf,
            &[DataEntry::new(Key(0x0102_0304_0506_0708), DataId(9))],
        );
        O::put_routing(&mut buf, &[(1u8, PeerId(0x0A0B), Path::parse("00"))]);
        O::put_peers(&mut buf, &[5u64, 0xFFFF_FFFF_FFFF_FFFE]);
        buf
    }

    #[test]
    fn both_orders_write_the_bytes_the_parent_wrote_and_read_them_back() {
        assert_eq!(peer_state::<Be>(), BE_LITERAL);
        assert_eq!(peer_state::<Le>(), LE_LITERAL);
        fn read_back<O: Order>(mut data: &[u8]) {
            assert_eq!(O::path(&mut data), Some(Path::parse("0110")));
            let entries = O::entries(&mut data, 1).unwrap();
            assert_eq!(
                entries,
                [DataEntry::new(Key(0x0102_0304_0506_0708), DataId(9))]
            );
            let routing = O::routing::<PeerId>(&mut data, 1).unwrap();
            assert_eq!(routing, [(1, PeerId(0x0A0B), Path::parse("00"))]);
            assert_eq!(
                O::peers::<u64>(&mut data, 2),
                Some(vec![5, 0xFFFF_FFFF_FFFF_FFFE])
            );
            assert!(data.is_empty());
        }
        read_back::<Be>(&BE_LITERAL);
        read_back::<Le>(&LE_LITERAL);
    }

    #[test]
    fn every_composite_round_trips_and_leaves_the_cursor_just_past_it() {
        fn round_trip<O: Order>() {
            let paths = [
                Path::root(),
                Path::parse("1"),
                Path::parse(&"10".repeat(32)),
            ];
            let mut histogram = LogHistogram::new();
            for value in [0, 7, 8, 130, 130, 1 << 40, u64::MAX] {
                histogram.record(value);
            }
            let mut buf = Vec::new();
            O::put_paths(&mut buf, &paths);
            O::put_str(&mut buf, "p50=\"2 ms\" ✓");
            O::put_histogram(&mut buf, &histogram);
            O::put_histogram(&mut buf, &LogHistogram::new());
            O::put_entries(&mut buf, &[]);
            O::put_count(&mut buf, 2);
            buf.put(&[0xEE; 3]);
            let mut data = &buf[..];
            assert_eq!(O::paths(&mut data, 3).as_deref(), Some(&paths[..]));
            assert_eq!(O::string(&mut data, 15).as_deref(), Some("p50=\"2 ms\" ✓"));
            assert_eq!(O::histogram(&mut data), Some(histogram));
            assert_eq!(O::histogram(&mut data), Some(LogHistogram::new()));
            assert_eq!(O::entries(&mut data, 0), Some(Vec::new()));
            assert_eq!(O::list(&mut data, 2, 1, O::u8), Some(vec![0xEE, 0xEE]));
            assert_eq!(data, [0xEE]);
        }
        round_trip::<Be>();
        round_trip::<Le>();
    }

    #[test]
    fn strings_and_lists_refuse_what_is_over_their_cap_or_not_valid() {
        let mut wire = Vec::new();
        Be::put_str(&mut wire, "pgrid");
        assert_eq!(Be::string(&mut &wire[..], 5).as_deref(), Some("pgrid"));
        assert_eq!(Be::string(&mut &wire[..], 4), None, "over the cap");
        assert_eq!(Be::string(&mut &wire[..8], 5), None, "truncated");
        wire[4] = 0xFF;
        assert_eq!(Be::string(&mut &wire[..], 5), None, "not UTF-8");
        // An element that fails fails the list.
        let mut wire = Vec::new();
        Be::put_count(&mut wire, 2);
        wire.put(&[1, 2]);
        let odd = |data: &mut &[u8]| Be::u8(data).filter(|byte| byte % 2 == 1);
        assert_eq!(Be::list(&mut &wire[..], 2, 1, odd), None);
        assert_eq!(Be::list(&mut &wire[..], 1, 1, odd), None, "over the cap");
    }

    #[test]
    fn a_hostile_histogram_saturates_instead_of_overflowing() {
        // Two buckets of `u64::MAX` — nothing in the format forbids them.
        let mut wire = Vec::new();
        Le::put_count(&mut wire, 2);
        for bucket in [3u16, 9] {
            Le::put_u16(&mut wire, bucket);
            Le::put_u64(&mut wire, u64::MAX);
        }
        Le::put_u64(&mut wire, u64::MAX);
        Le::put_u64(&mut wire, 9);
        let mut data = &wire[..];
        let histogram = Le::histogram(&mut data).unwrap();
        assert!(data.is_empty());
        assert_eq!(histogram.total(), u64::MAX);
        let mut merged = histogram.clone();
        merged.merge(&histogram);
        assert_eq!(merged.total(), u64::MAX);
    }
}
