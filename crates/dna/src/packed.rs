//! 2-bit packed DNA sequences.
//!
//! The paper (Section V) stores `BWT(s̄)` using "2 bits to represent a
//! character in {a, c, g, t}". This module provides that representation for
//! sentinel-free base sequences: four bases per byte, plus O(1) random
//! access. Structures that must also carry the sentinel (the BWT's `L`
//! column) store the single `$` position out of band — see `kmm-bwt`.

use crate::alphabet::{BASES, SIGMA};

/// An immutable 2-bit packed sequence over the four DNA bases.
///
/// Base codes stored here are the *alphabet* codes `1..=4` shifted down to
/// `0..=3`; `get` shifts them back up so that callers only ever see the
/// canonical `1..=4` codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedSeq {
    data: Vec<u8>,
    len: usize,
}

impl PackedSeq {
    /// Pack a slice of base codes (`1..=4`, no sentinel).
    ///
    /// # Panics
    /// Panics if any code is `0` (sentinel) or `>= SIGMA`.
    pub fn from_codes(codes: &[u8]) -> Self {
        codes.iter().copied().collect()
    }

    /// Adopt bytes already packed in the [`Self::raw`] layout (base `i`
    /// in bits `2·(i % 4)..` of byte `i / 4`, as code `0..=3`).
    ///
    /// # Panics
    /// Panics unless `data` holds exactly `ceil(len / 4)` bytes.
    pub fn from_raw(data: Vec<u8>, len: usize) -> Self {
        assert_eq!(data.len(), len.div_ceil(4), "packed length mismatch");
        PackedSeq { data, len }
    }

    /// Number of bases stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bases are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base code (`1..=4`) at position `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> u8 {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        ((self.data[i / 4] >> ((i % 4) * 2)) & 0b11) + 1
    }

    /// Raw packed bytes (low two bits of each byte hold the first base).
    #[inline]
    pub fn raw(&self) -> &[u8] {
        &self.data
    }

    /// Iterate over the base codes.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Unpack into a plain code vector.
    pub fn to_codes(&self) -> Vec<u8> {
        self.iter().collect()
    }

    /// Heap bytes used by the packed payload.
    pub fn heap_bytes(&self) -> usize {
        self.data.len()
    }

    /// Count of each base (indexed by code `0..SIGMA`; index 0 is always 0).
    pub fn counts(&self) -> [usize; SIGMA] {
        let mut counts = [0usize; SIGMA];
        for c in self.iter() {
            counts[c as usize] += 1;
        }
        counts
    }
}

impl FromIterator<u8> for PackedSeq {
    /// Pack base codes (`1..=4`, no sentinel) in iteration order.
    ///
    /// # Panics
    /// Panics if any code is `0` (sentinel) or `>= SIGMA`.
    fn from_iter<I: IntoIterator<Item = u8>>(codes: I) -> Self {
        let codes = codes.into_iter();
        let mut data = Vec::with_capacity(codes.size_hint().0.div_ceil(4));
        let mut len = 0;
        for c in codes {
            assert!(
                c >= 1 && (c as usize) < SIGMA,
                "PackedSeq holds bases 1..=4 only, got {c} at {len}"
            );
            if len % 4 == 0 {
                data.push(0);
            }
            data[len / 4] |= (c - 1) << ((len % 4) * 2);
            len += 1;
        }
        PackedSeq { data, len }
    }
}

/// Fraction of `g`/`c` bases in an encoded, sentinel-free sequence.
/// Returns 0.0 for an empty sequence.
pub fn gc_content(codes: &[u8]) -> f64 {
    if codes.is_empty() {
        return 0.0;
    }
    let gc = codes.iter().filter(|&&c| c == 2 || c == 3).count();
    gc as f64 / codes.len() as f64
}

/// Histogram of base codes for a sentinel-free sequence.
pub fn base_histogram(codes: &[u8]) -> [usize; BASES] {
    let mut h = [0usize; BASES];
    for &c in codes {
        assert!(
            c >= 1 && (c as usize) < SIGMA,
            "base code out of range: {c}"
        );
        h[(c - 1) as usize] += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::encode;

    #[test]
    fn pack_unpack_roundtrip() {
        let codes = encode(b"acgtacgtgca").unwrap();
        let p = PackedSeq::from_codes(&codes);
        assert_eq!(p.len(), codes.len());
        assert_eq!(p.to_codes(), codes);
    }

    #[test]
    fn collected_and_raw_packings_agree() {
        let codes = encode(b"gattacagattac").unwrap();
        let p = PackedSeq::from_codes(&codes);
        let rev: PackedSeq = codes.iter().rev().copied().collect();
        assert_eq!(rev.len(), codes.len());
        for i in 0..codes.len() {
            assert_eq!(rev.get(i), codes[codes.len() - 1 - i]);
        }
        assert_eq!(PackedSeq::from_raw(p.raw().to_vec(), p.len()), p);
    }

    #[test]
    fn get_matches_iter() {
        let codes = encode(b"ttgacca").unwrap();
        let p = PackedSeq::from_codes(&codes);
        for (i, c) in p.iter().enumerate() {
            assert_eq!(p.get(i), c);
        }
    }

    #[test]
    fn empty_sequence() {
        let p = PackedSeq::from_codes(&[]);
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.to_codes(), Vec::<u8>::new());
        assert_eq!(p.heap_bytes(), 0);
    }

    #[test]
    fn packing_is_dense() {
        // 9 bases need ceil(9/4) = 3 bytes.
        let codes = encode(b"acgtacgta").unwrap();
        let p = PackedSeq::from_codes(&codes);
        assert_eq!(p.heap_bytes(), 3);
    }

    #[test]
    #[should_panic(expected = "bases 1..=4 only")]
    fn rejects_sentinel() {
        PackedSeq::from_codes(&[1, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let p = PackedSeq::from_codes(&[1, 2]);
        p.get(2);
    }

    #[test]
    fn counts_work() {
        let codes = encode(b"aaccgtt").unwrap();
        let p = PackedSeq::from_codes(&codes);
        let c = p.counts();
        assert_eq!(c, [0, 2, 2, 1, 2]);
    }

    #[test]
    fn gc_content_known() {
        let codes = encode(b"acgt").unwrap();
        assert!((gc_content(&codes) - 0.5).abs() < 1e-12);
        assert_eq!(gc_content(&[]), 0.0);
        let codes = encode(b"aaaa").unwrap();
        assert_eq!(gc_content(&codes), 0.0);
        let codes = encode(b"gcgc").unwrap();
        assert_eq!(gc_content(&codes), 1.0);
    }

    #[test]
    fn histogram_known() {
        let codes = encode(b"aacgttt").unwrap();
        assert_eq!(base_histogram(&codes), [2, 1, 1, 3]);
    }
}
