//! Trie paths (key space partitions).
//!
//! Recursively bisecting the key space `[0, 1)` at binary midpoints induces
//! a canonical trie (Section 2.1 of the paper).  Every partition is
//! identified by the bit sequence of the bisection decisions that lead to
//! it; a peer's *path* is the bit sequence of the partition it is
//! responsible for.  `Path` stores such a bit sequence compactly (up to 64
//! bits, which is far deeper than any practical trie: with `n` peers the
//! trie depth is `O(log n)`).

use crate::key::Key;
use std::fmt;

/// Maximum supported path length in bits.
pub const MAX_PATH_LEN: usize = 64;

/// A partition of the key space, i.e. a node of the canonical trie,
/// identified by the bit string of bisection decisions from the root.
///
/// The empty path denotes the whole key space `[0, 1)`.  Appending bit `0`
/// selects the lower half of the current interval, bit `1` the upper half.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Path {
    /// Bits stored left-aligned: bit `i` of the path is bit `63 - i` of
    /// `bits`.  Unused low bits are zero, which makes equal-length paths
    /// compare like their intervals.
    bits: u64,
    /// Number of valid bits.
    len: u8,
}

impl Path {
    /// The root path (whole key space).
    pub const ROOT: Path = Path { bits: 0, len: 0 };

    /// Creates an empty (root) path.
    pub fn root() -> Path {
        Path::ROOT
    }

    /// Builds a path from a slice of bits (`false` = 0, `true` = 1).
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_PATH_LEN`] bits are given.
    pub fn from_bits(bits: &[bool]) -> Path {
        assert!(bits.len() <= MAX_PATH_LEN, "path too long");
        let mut p = Path::ROOT;
        for &b in bits {
            p = p.child(b);
        }
        p
    }

    /// Parses a path from a string of `'0'`/`'1'` characters.
    ///
    /// # Panics
    ///
    /// Panics on any other character or if the string is longer than
    /// [`MAX_PATH_LEN`].
    pub fn parse(s: &str) -> Path {
        let bits: Vec<bool> = s
            .chars()
            .map(|c| match c {
                '0' => false,
                '1' => true,
                other => panic!("invalid path character {other:?}"),
            })
            .collect();
        Path::from_bits(&bits)
    }

    /// Path length (trie depth) in bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether this is the root path.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `i` of the path.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        assert!(
            i < self.len(),
            "path bit {i} out of range (len {})",
            self.len
        );
        (self.bits >> (63 - i)) & 1 == 1
    }

    /// Returns the child path obtained by appending `bit`.
    ///
    /// # Panics
    ///
    /// Panics if the path is already [`MAX_PATH_LEN`] bits long.
    pub fn child(&self, bit: bool) -> Path {
        assert!(self.len() < MAX_PATH_LEN, "path overflow");
        let mut bits = self.bits;
        if bit {
            bits |= 1 << (63 - self.len());
        }
        Path {
            bits,
            len: self.len + 1,
        }
    }

    /// Returns the parent path, or `None` for the root.
    pub fn parent(&self) -> Option<Path> {
        if self.len == 0 {
            return None;
        }
        let len = self.len - 1;
        let mask = if len == 0 {
            0
        } else {
            !0u64 << (64 - len as u32)
        };
        Some(Path {
            bits: self.bits & mask,
            len,
        })
    }

    /// Returns the sibling path (same parent, last bit flipped), or `None`
    /// for the root.
    pub fn sibling(&self) -> Option<Path> {
        if self.len == 0 {
            return None;
        }
        Some(Path {
            bits: self.bits ^ (1 << (64 - self.len as u32)),
            len: self.len,
        })
    }

    /// The prefix of this path consisting of its first `n` bits.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn prefix(&self, n: usize) -> Path {
        assert!(n <= self.len(), "prefix longer than path");
        let mask = if n == 0 { 0 } else { !0u64 << (64 - n as u32) };
        Path {
            bits: self.bits & mask,
            len: n as u8,
        }
    }

    /// Whether `self` is a prefix of `other` (every path is a prefix of
    /// itself).
    pub fn is_prefix_of(&self, other: &Path) -> bool {
        if self.len > other.len {
            return false;
        }
        other.prefix(self.len()).bits == self.bits
    }

    /// Length of the longest common prefix of two paths, in bits.
    pub fn common_prefix_len(&self, other: &Path) -> usize {
        let max = self.len().min(other.len());
        let diff = self.bits ^ other.bits;
        let lead = diff.leading_zeros() as usize;
        lead.min(max)
    }

    /// The first bit position at which this path disagrees with `key` —
    /// the trie level a search for `key` is forwarded at — or `None` when
    /// the path is a prefix of the key (the partition covers it).
    #[inline]
    pub fn first_mismatch(&self, key: Key) -> Option<usize> {
        // Both are left-aligned and the path's unused low bits are zero, so
        // a difference past `len` is the key's own tail, not a mismatch.
        let level = (self.bits ^ key.0).leading_zeros() as usize;
        (level < self.len()).then_some(level)
    }

    /// Whether the partition identified by this path contains `key`.
    #[inline]
    pub fn covers(&self, key: Key) -> bool {
        self.first_mismatch(key).is_none()
    }

    /// The half-open key interval `[lower, upper)` covered by this
    /// partition, as fractions of the key space.
    pub fn interval(&self) -> (f64, f64) {
        let width = 2f64.powi(-(self.len() as i32));
        let lower = (self.bits >> (64 - self.len().max(1) as u32)) as f64 * width;
        if self.is_empty() {
            (0.0, 1.0)
        } else {
            (lower, lower + width)
        }
    }

    /// The smallest key covered by this partition.
    pub fn lower_key(&self) -> Key {
        Key(self.bits)
    }

    /// The largest key covered by this partition.
    pub fn upper_key(&self) -> Key {
        if self.len == 0 {
            Key::MAX
        } else if self.len as usize >= MAX_PATH_LEN {
            Key(self.bits)
        } else {
            Key(self.bits | (!0u64 >> self.len as u32))
        }
    }

    /// Fraction of the key space covered by this partition (`2^-len`).
    pub fn width(&self) -> f64 {
        2f64.powi(-(self.len() as i32))
    }

    /// Returns the path truncated or extended (with `0` bits) to the given
    /// length.  Extension with `0` bits selects the lowest descendant, which
    /// is occasionally useful for canonical ordering of partitions.
    pub fn resized(&self, len: usize) -> Path {
        assert!(len <= MAX_PATH_LEN);
        if len <= self.len() {
            self.prefix(len)
        } else {
            Path {
                bits: self.bits,
                len: len as u8,
            }
        }
    }

    /// The path's wire form `(len, bits)`: the bits left-aligned in a
    /// `u64` (path bit `i` is bit `63 - i`), unused low bits zero — which
    /// is exactly how a `Path` is stored.
    pub fn wire_parts(&self) -> (u8, u64) {
        (self.len, self.bits)
    }

    /// Rebuilds a path from its [`Path::wire_parts`].  `None` when `len`
    /// exceeds [`MAX_PATH_LEN`]; bits past `len` are ignored.
    pub fn from_wire_parts(len: u8, bits: u64) -> Option<Path> {
        if len as usize > MAX_PATH_LEN {
            return None;
        }
        let mask = match len {
            0 => 0,
            len => !0u64 << (64 - len as u32),
        };
        Some(Path {
            bits: bits & mask,
            len,
        })
    }

    /// Iterator over the bits of the path.
    pub fn bits_iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len()).map(move |i| self.bit(i))
    }

    /// Whether the two paths identify disjoint partitions (neither is a
    /// prefix of the other).
    pub fn disjoint_with(&self, other: &Path) -> bool {
        !self.is_prefix_of(other) && !other.is_prefix_of(self)
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Path(\"{self}\")")
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "ε");
        }
        for b in self.bits_iter() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_covers_everything() {
        assert!(Path::root().covers(Key::MIN));
        assert!(Path::root().covers(Key::MAX));
        assert!(Path::root().covers(Key::from_fraction(0.37)));
        assert_eq!(Path::root().interval(), (0.0, 1.0));
    }

    #[test]
    fn child_intervals_bisect() {
        let left = Path::root().child(false);
        let right = Path::root().child(true);
        assert_eq!(left.interval(), (0.0, 0.5));
        assert_eq!(right.interval(), (0.5, 1.0));
        assert!(left.covers(Key::from_fraction(0.25)));
        assert!(!left.covers(Key::from_fraction(0.75)));
        assert!(right.covers(Key::from_fraction(0.75)));
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["0", "1", "0101", "111000111", "0000000000"] {
            let p = Path::parse(s);
            assert_eq!(format!("{p}"), s);
        }
        assert_eq!(format!("{}", Path::root()), "ε");
    }

    #[test]
    fn parent_sibling_prefix() {
        let p = Path::parse("0110");
        assert_eq!(p.parent().unwrap(), Path::parse("011"));
        assert_eq!(p.sibling().unwrap(), Path::parse("0111"));
        assert_eq!(p.prefix(2), Path::parse("01"));
        assert!(Path::parse("01").is_prefix_of(&p));
        assert!(!Path::parse("10").is_prefix_of(&p));
        assert!(p.is_prefix_of(&p));
        assert!(Path::root().parent().is_none());
        assert!(Path::root().sibling().is_none());
    }

    #[test]
    fn common_prefix() {
        let a = Path::parse("010110");
        let b = Path::parse("010011");
        assert_eq!(a.common_prefix_len(&b), 3);
        assert_eq!(a.common_prefix_len(&a), 6);
        assert_eq!(Path::root().common_prefix_len(&a), 0);
    }

    #[test]
    fn lower_upper_keys_bound_partition() {
        let p = Path::parse("101");
        let (lo, hi) = p.interval();
        assert_eq!(lo, 0.625);
        assert_eq!(hi, 0.75);
        assert!(p.covers(p.lower_key()));
        assert!(p.covers(p.upper_key()));
        assert!((p.lower_key().as_fraction() - lo).abs() < 1e-12);
        // upper_key is hi - 2^-64, which rounds to hi in f64
        assert!(p.upper_key().as_fraction() <= hi);
        assert!(p.upper_key() < Key::from_fraction(hi));
    }

    #[test]
    fn covers_matches_interval() {
        let p = Path::parse("0101");
        let (lo, hi) = p.interval();
        for i in 0..1000 {
            let x = i as f64 / 1000.0;
            let k = Key::from_fraction(x);
            assert_eq!(p.covers(k), x >= lo && x < hi, "x = {x}");
        }
    }

    #[test]
    fn disjointness() {
        assert!(Path::parse("01").disjoint_with(&Path::parse("10")));
        assert!(!Path::parse("01").disjoint_with(&Path::parse("010")));
        assert!(!Path::root().disjoint_with(&Path::parse("1")));
    }

    #[test]
    fn wire_parts_roundtrip_and_reject_or_mask_bad_input() {
        for s in ["", "0", "1", "0110", &"10".repeat(32)] {
            let p = if s.is_empty() {
                Path::ROOT
            } else {
                Path::parse(s)
            };
            let (len, bits) = p.wire_parts();
            assert_eq!(len as usize, p.len());
            assert_eq!(Path::from_wire_parts(len, bits), Some(p));
        }
        assert_eq!(Path::parse("101").wire_parts(), (3, 0b101 << 61));
        // Too long is rejected; stray bits past `len` are masked away, as
        // rebuilding bit by bit did.
        assert_eq!(Path::from_wire_parts(65, 0), None);
        assert_eq!(Path::from_wire_parts(2, u64::MAX), Some(Path::parse("11")));
        assert_eq!(Path::from_wire_parts(0, u64::MAX), Some(Path::ROOT));
    }

    #[test]
    fn first_mismatch_equals_the_bit_loop() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for len in 0..=MAX_PATH_LEN {
            for _ in 0..64 {
                let path = Path::from_wire_parts(len as u8, rng.gen()).unwrap();
                // Random keys mismatch early; keys under the path, its
                // sibling and the extremes reach the late and `None` cases.
                let tail = path.lower_key().0 ^ path.upper_key().0;
                let under = Key(path.lower_key().0 | (rng.gen::<u64>() & tail));
                let beside = path.sibling().map_or(Key::MIN, |s| s.upper_key());
                let keys = [
                    Key(rng.gen()),
                    under,
                    beside,
                    path.lower_key(),
                    path.upper_key(),
                    Key::MIN,
                    Key::MAX,
                ];
                for key in keys {
                    let by_bits = (0..path.len()).find(|&i| path.bit(i) != key.bit(i));
                    assert_eq!(path.first_mismatch(key), by_bits, "{path} vs {key:?}");
                    assert_eq!(path.covers(key), by_bits.is_none(), "{path} vs {key:?}");
                }
            }
        }
    }

    #[test]
    fn resized_extends_and_truncates() {
        let p = Path::parse("101");
        assert_eq!(p.resized(1), Path::parse("1"));
        assert_eq!(p.resized(5), Path::parse("10100"));
        assert_eq!(p.resized(3), p);
    }
}
