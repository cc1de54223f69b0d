//! 2-bit packed DNA sequences.
//!
//! [`PackedSeq`] stores 32 bases per `u64` word (base `i` occupies bits
//! `2·(i mod 32) ..` of word `i / 32`, least-significant first). This is
//! the in-memory representation the paper uses ("we apply a common
//! technique … and encode the sequences using 2 bit per base", §IV) and
//! gives three things every finder in the workspace leans on:
//!
//! * O(1) random access to any base;
//! * O(1) extraction of a packed seed (k-mer) code for the lightweight
//!   index — a seed of length `ℓs ≤ 16` is a single masked word read;
//! * word-parallel longest-common-extension (LCE): match-length queries
//!   compare 32 bases per XOR, which is what makes the per-base
//!   "expansion" steps of the pipeline cheap.

use crate::alphabet::{Base, SeqError};

/// An immutable DNA sequence packed at 2 bits per base.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PackedSeq {
    words: Vec<u64>,
    len: usize,
}

#[inline(always)]
fn low_mask(bases: usize) -> u64 {
    debug_assert!(bases <= 32);
    if bases == 32 {
        u64::MAX
    } else {
        (1u64 << (2 * bases)) - 1
    }
}

impl PackedSeq {
    /// Build from ASCII `ACGT` letters (either case). Any other byte is
    /// an error; use the FASTA layer's [`crate::AmbigPolicy`] to handle
    /// ambiguity codes before packing.
    pub fn from_ascii(ascii: &[u8]) -> Result<PackedSeq, SeqError> {
        let mut codes = Vec::with_capacity(ascii.len());
        for (pos, &byte) in ascii.iter().enumerate() {
            let base = Base::from_ascii(byte).ok_or(SeqError::InvalidBase { pos, byte })?;
            codes.push(base.code());
        }
        Ok(PackedSeq::from_codes(&codes))
    }

    /// Build from raw 2-bit codes (values `0..=3`; higher bits are
    /// masked off).
    pub fn from_codes(codes: &[u8]) -> PackedSeq {
        let mut words = vec![0u64; codes.len().div_ceil(32)];
        for (i, &code) in codes.iter().enumerate() {
            words[i >> 5] |= u64::from(code & 3) << ((i & 31) * 2);
        }
        PackedSeq {
            words,
            len: codes.len(),
        }
    }

    /// Number of bases.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the sequence has no bases.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The 2-bit code of base `pos`. Panics in debug builds if out of
    /// bounds (release builds return garbage from the padding word, so
    /// callers must bound-check — the pipeline always does).
    #[inline(always)]
    pub fn code(&self, pos: usize) -> u8 {
        debug_assert!(
            pos < self.len,
            "position {pos} out of bounds ({})",
            self.len
        );
        ((self.words[pos >> 5] >> ((pos & 31) * 2)) & 3) as u8
    }

    /// The base at `pos`.
    #[inline(always)]
    pub fn base(&self, pos: usize) -> Base {
        Base::from_code(self.code(pos))
    }

    /// 32 bases starting at `pos`, packed least-significant-first.
    /// Positions past the end read as zero; callers mask with
    /// [`low_mask`]-style masks before trusting the tail.
    #[inline(always)]
    fn word_at(&self, pos: usize) -> u64 {
        let w = pos >> 5;
        let o = (pos & 31) * 2;
        let lo = self.words.get(w).copied().unwrap_or(0) >> o;
        if o == 0 {
            lo
        } else {
            lo | (self.words.get(w + 1).copied().unwrap_or(0) << (64 - o))
        }
    }

    /// Packed code of the `k`-mer starting at `pos` (`k ≤ 16` so the code
    /// fits a `u32`; the index's seed length `ℓs` obeys this). The base at
    /// `pos` occupies the low 2 bits. Returns `None` if the k-mer would
    /// run off the end.
    #[inline(always)]
    pub fn kmer(&self, pos: usize, k: usize) -> Option<u32> {
        debug_assert!(k <= 16, "k-mer length {k} exceeds u32 capacity");
        if pos + k > self.len {
            return None;
        }
        Some((self.word_at(pos) & low_mask(k)) as u32)
    }

    /// Longest common extension *forward*: the largest `m ≤ max` with
    /// `self[i + t] == other[j + t]` for all `t < m`, clamped to both
    /// sequence ends. Compares 32 bases per iteration.
    pub fn lce_fwd(&self, i: usize, other: &PackedSeq, j: usize, max: usize) -> usize {
        let limit = max
            .min(self.len.saturating_sub(i))
            .min(other.len.saturating_sub(j));
        let mut matched = 0;
        while matched < limit {
            let chunk = (limit - matched).min(32);
            let diff = (self.word_at(i + matched) ^ other.word_at(j + matched)) & low_mask(chunk);
            if diff != 0 {
                return matched + (diff.trailing_zeros() as usize) / 2;
            }
            matched += chunk;
        }
        limit
    }

    /// Longest common extension *backward*: the largest `m ≤ max` with
    /// `self[i − 1 − t] == other[j − 1 − t]` for all `t < m` (i.e. how far
    /// the match extends strictly left of positions `i` and `j`).
    pub fn lce_bwd(&self, i: usize, other: &PackedSeq, j: usize, max: usize) -> usize {
        let limit = max.min(i).min(j);
        let mut matched = 0;
        while matched < limit {
            let chunk = (limit - matched).min(32);
            let a = self.word_at(i - matched - chunk);
            let b = other.word_at(j - matched - chunk);
            let diff = (a ^ b) & low_mask(chunk);
            if diff != 0 {
                let highest_diff_base = (63 - diff.leading_zeros() as usize) / 2;
                return matched + (chunk - 1 - highest_diff_base);
            }
            matched += chunk;
        }
        limit
    }

    /// `true` iff `self[i .. i+len] == other[j .. j+len]` and both ranges
    /// are in bounds.
    #[inline]
    pub fn eq_range(&self, i: usize, other: &PackedSeq, j: usize, len: usize) -> bool {
        i + len <= self.len && j + len <= other.len && self.lce_fwd(i, other, j, len) == len
    }

    /// Copy out the sub-sequence `[start, start + len)`.
    pub fn subseq(&self, start: usize, len: usize) -> Result<PackedSeq, SeqError> {
        if start + len > self.len {
            return Err(SeqError::OutOfBounds {
                pos: start + len,
                len: self.len,
            });
        }
        let mut words = vec![0u64; len.div_ceil(32)];
        for (w, word) in words.iter_mut().enumerate() {
            *word = self.word_at(start + w * 32);
        }
        if !len.is_multiple_of(32) {
            *words.last_mut().expect("len > 0 implies a word") &= low_mask(len % 32);
        }
        Ok(PackedSeq { words, len })
    }

    /// Unpack to 2-bit codes (one byte per base). The suffix-array
    /// baselines index over this flat form.
    pub fn to_codes(&self) -> Vec<u8> {
        (0..self.len).map(|i| self.code(i)).collect()
    }

    /// Unpack to upper-case ASCII letters.
    pub fn to_ascii(&self) -> Vec<u8> {
        (0..self.len).map(|i| self.base(i).to_ascii()).collect()
    }

    /// Iterator over the bases.
    pub fn iter(&self) -> impl Iterator<Item = Base> + '_ {
        (0..self.len).map(move |i| self.base(i))
    }

    /// The reverse complement (read the opposite strand 5'→3'). With
    /// the paper's encoding the complement is bitwise NOT, so this is a
    /// reversed copy with inverted codes.
    pub fn reverse_complement(&self) -> PackedSeq {
        let codes: Vec<u8> = (0..self.len).rev().map(|i| !self.code(i) & 3).collect();
        PackedSeq::from_codes(&codes)
    }
}

impl std::fmt::Debug for PackedSeq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        const PREVIEW: usize = 48;
        let shown: String = self
            .iter()
            .take(PREVIEW)
            .map(|b| b.to_ascii() as char)
            .collect();
        if self.len > PREVIEW {
            write!(f, "PackedSeq(len={}, \"{shown}…\")", self.len)
        } else {
            write!(f, "PackedSeq(len={}, \"{shown}\")", self.len)
        }
    }
}

impl std::str::FromStr for PackedSeq {
    type Err = SeqError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PackedSeq::from_ascii(s.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> PackedSeq {
        s.parse().expect("valid DNA in test")
    }

    #[test]
    fn round_trip_ascii() {
        let text = b"ACGTACGTTTGGCCAA";
        let ps = PackedSeq::from_ascii(text).unwrap();
        assert_eq!(ps.len(), 16);
        assert_eq!(ps.to_ascii(), text);
    }

    #[test]
    fn round_trip_longer_than_word() {
        let text: Vec<u8> = (0..137).map(|i| b"ACGT"[i % 4]).collect();
        let ps = PackedSeq::from_ascii(&text).unwrap();
        assert_eq!(ps.to_ascii(), text);
    }

    #[test]
    fn invalid_ascii_reports_position() {
        let err = PackedSeq::from_ascii(b"ACGNA").unwrap_err();
        assert_eq!(err, SeqError::InvalidBase { pos: 3, byte: b'N' });
    }

    #[test]
    fn code_and_base_accessors_agree() {
        let ps = seq("TGCA");
        assert_eq!(ps.code(0), 3);
        assert_eq!(ps.base(0), Base::T);
        assert_eq!(ps.code(3), 0);
        assert_eq!(ps.base(3), Base::A);
    }

    #[test]
    fn empty_sequence() {
        let ps = PackedSeq::from_codes(&[]);
        assert!(ps.is_empty());
        assert_eq!(ps.len(), 0);
        assert_eq!(ps.lce_fwd(0, &ps, 0, 100), 0);
        assert_eq!(ps.to_codes(), Vec::<u8>::new());
    }

    #[test]
    fn kmer_matches_manual_packing() {
        let ps = seq("ACGT"); // codes 0,1,2,3
                              // LSB-first: A in bits 0-1, C in 2-3, G in 4-5, T in 6-7.
        assert_eq!(ps.kmer(0, 4), Some(0b11_10_01_00));
        assert_eq!(ps.kmer(1, 3), Some(0b11_10_01));
        assert_eq!(ps.kmer(1, 4), None, "runs off the end");
        assert_eq!(ps.kmer(4, 1), None);
    }

    #[test]
    fn kmer_crossing_word_boundary() {
        let text: Vec<u8> = (0..40).map(|i| b"ACGT"[(i * 7 + 1) % 4]).collect();
        let ps = PackedSeq::from_ascii(&text).unwrap();
        for pos in 28..=32 {
            let expect: u32 = (0..8).map(|t| u32::from(ps.code(pos + t)) << (2 * t)).sum();
            assert_eq!(ps.kmer(pos, 8), Some(expect), "pos {pos}");
        }
    }

    #[test]
    fn lce_fwd_basic() {
        let a = seq("ACGTACGTA");
        let b = seq("ACGTTCGTA");
        assert_eq!(a.lce_fwd(0, &b, 0, 100), 4);
        assert_eq!(a.lce_fwd(5, &b, 5, 100), 4);
        assert_eq!(a.lce_fwd(0, &a, 0, 100), 9);
        assert_eq!(a.lce_fwd(0, &a, 0, 3), 3, "max clamps");
        assert_eq!(a.lce_fwd(0, &a, 4, 100), 5, "self-overlap diagonal");
    }

    #[test]
    fn lce_fwd_word_spanning() {
        let mut text: Vec<u8> = (0..100).map(|i| b"ACGT"[(i * 3) % 4]).collect();
        let a = PackedSeq::from_ascii(&text).unwrap();
        text[70] = if text[70] == b'A' { b'C' } else { b'A' };
        let b = PackedSeq::from_ascii(&text).unwrap();
        assert_eq!(a.lce_fwd(0, &b, 0, 1000), 70);
        assert_eq!(a.lce_fwd(10, &b, 10, 1000), 60);
        assert_eq!(a.lce_fwd(71, &b, 71, 1000), 29);
    }

    #[test]
    fn lce_fwd_out_of_range_start_is_zero() {
        let a = seq("ACGT");
        assert_eq!(a.lce_fwd(10, &a, 0, 5), 0);
        assert_eq!(a.lce_fwd(0, &a, 10, 5), 0);
    }

    #[test]
    fn lce_bwd_basic() {
        let a = seq("ACGTACGTA");
        let b = seq("TCGTACGTA");
        // Going left from the ends: 8 bases match, then A vs T differs.
        assert_eq!(a.lce_bwd(9, &b, 9, 100), 8);
        assert_eq!(a.lce_bwd(4, &b, 4, 100), 3);
        assert_eq!(a.lce_bwd(0, &b, 0, 100), 0);
        assert_eq!(a.lce_bwd(9, &b, 9, 2), 2, "max clamps");
    }

    #[test]
    fn lce_bwd_word_spanning() {
        let mut text: Vec<u8> = (0..100).map(|i| b"ACGT"[(i * 5 + 2) % 4]).collect();
        let a = PackedSeq::from_ascii(&text).unwrap();
        text[20] = if text[20] == b'G' { b'T' } else { b'G' };
        let b = PackedSeq::from_ascii(&text).unwrap();
        assert_eq!(a.lce_bwd(100, &b, 100, 1000), 79);
        assert_eq!(a.lce_bwd(21, &b, 21, 1000), 0);
        assert_eq!(a.lce_bwd(20, &b, 20, 1000), 20);
    }

    #[test]
    fn lce_bwd_asymmetric_offsets() {
        let a = seq("GGGACGT");
        let b = seq("TACGT");
        // a[3..7] == b[1..5]; walking left from (7, 5): 4 matches then G vs T.
        assert_eq!(a.lce_bwd(7, &b, 5, 100), 4);
    }

    #[test]
    fn eq_range_checks_bounds_and_content() {
        let a = seq("ACGTACGT");
        let b = seq("TTACGTAA");
        assert!(a.eq_range(0, &b, 2, 4));
        assert!(!a.eq_range(0, &b, 2, 6));
        assert!(
            !a.eq_range(6, &b, 0, 4),
            "out of bounds is false, not panic"
        );
    }

    #[test]
    fn subseq_copies_correctly() {
        let text: Vec<u8> = (0..80).map(|i| b"ACGT"[(i * 11) % 4]).collect();
        let ps = PackedSeq::from_ascii(&text).unwrap();
        for (start, len) in [(0, 80), (5, 40), (31, 34), (32, 32), (79, 1), (80, 0)] {
            let sub = ps.subseq(start, len).unwrap();
            assert_eq!(sub.to_ascii(), &text[start..start + len], "({start},{len})");
        }
        assert!(ps.subseq(70, 20).is_err());
    }

    #[test]
    fn subseq_tail_is_masked() {
        let ps = seq("ACGTACGTACGT");
        let sub = ps.subseq(1, 5).unwrap();
        // A masked tail must not affect equality with a freshly-built twin.
        assert_eq!(sub, seq("CGTAC"));
    }

    #[test]
    fn reverse_complement_known_values() {
        assert_eq!(seq("ACGT").reverse_complement(), seq("ACGT"), "palindrome");
        assert_eq!(seq("AAAA").reverse_complement(), seq("TTTT"));
        assert_eq!(seq("ACCTG").reverse_complement(), seq("CAGGT"));
        assert_eq!(
            PackedSeq::from_codes(&[]).reverse_complement(),
            PackedSeq::from_codes(&[])
        );
    }

    #[test]
    fn reverse_complement_is_involution() {
        let text: Vec<u8> = (0..120).map(|i| b"ACGT"[(i * 7 + 2) % 4]).collect();
        let ps = PackedSeq::from_ascii(&text).unwrap();
        assert_eq!(ps.reverse_complement().reverse_complement(), ps);
    }

    #[test]
    fn debug_preview_truncates() {
        let long: Vec<u8> = std::iter::repeat_n(b'A', 100).collect();
        let ps = PackedSeq::from_ascii(&long).unwrap();
        let dbg = format!("{ps:?}");
        assert!(dbg.contains("len=100"));
        assert!(dbg.contains('…'));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn dna(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0u8..4, 0..max_len)
    }

    fn naive_lce_fwd(a: &[u8], i: usize, b: &[u8], j: usize, max: usize) -> usize {
        let mut m = 0;
        while m < max && i + m < a.len() && j + m < b.len() && a[i + m] == b[j + m] {
            m += 1;
        }
        m
    }

    fn naive_lce_bwd(a: &[u8], i: usize, b: &[u8], j: usize, max: usize) -> usize {
        let mut m = 0;
        while m < max && m < i && m < j && a[i - 1 - m] == b[j - 1 - m] {
            m += 1;
        }
        m
    }

    proptest! {
        #[test]
        fn codes_round_trip(codes in dna(300)) {
            let ps = PackedSeq::from_codes(&codes);
            prop_assert_eq!(ps.to_codes(), codes);
        }

        #[test]
        fn lce_fwd_matches_naive(
            a in dna(200), b in dna(200),
            i in 0usize..220, j in 0usize..220, max in 0usize..260,
        ) {
            let pa = PackedSeq::from_codes(&a);
            let pb = PackedSeq::from_codes(&b);
            prop_assert_eq!(pa.lce_fwd(i, &pb, j, max), naive_lce_fwd(&a, i, &b, j, max));
        }

        #[test]
        fn lce_bwd_matches_naive(
            a in dna(200), b in dna(200),
            i in 0usize..200, j in 0usize..200, max in 0usize..260,
        ) {
            let pa = PackedSeq::from_codes(&a);
            let pb = PackedSeq::from_codes(&b);
            let i = i.min(pa.len());
            let j = j.min(pb.len());
            prop_assert_eq!(pa.lce_bwd(i, &pb, j, max), naive_lce_bwd(&a, i, &b, j, max));
        }

        #[test]
        fn kmer_matches_per_base_packing(codes in dna(120), pos in 0usize..120, k in 1usize..=16) {
            let ps = PackedSeq::from_codes(&codes);
            let got = ps.kmer(pos, k);
            if pos + k <= codes.len() {
                let expect: u32 = (0..k).map(|t| u32::from(codes[pos + t]) << (2 * t)).sum();
                prop_assert_eq!(got, Some(expect));
            } else {
                prop_assert_eq!(got, None);
            }
        }

        #[test]
        fn subseq_matches_slice(codes in dna(200), start in 0usize..200, len in 0usize..200) {
            let ps = PackedSeq::from_codes(&codes);
            if start + len <= codes.len() {
                let sub = ps.subseq(start, len).unwrap();
                prop_assert_eq!(sub.to_codes(), codes[start..start + len].to_vec());
            } else {
                prop_assert!(ps.subseq(start, len).is_err());
            }
        }
    }
}
