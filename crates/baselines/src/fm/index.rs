//! A BWT-based FM-index over 2-bit DNA codes.
//!
//! Built from the SA-IS suffix array: the Burrows–Wheeler transform
//! (with an implicit sentinel row), a `C` table, checkpointed `Occ`
//! counts for O(1)-ish rank queries, and a sampled suffix array for
//! `locate`. Backward search (`count`/`locate` of a pattern) is the
//! "backward search method employed in the well-known FM-Index" that
//! slaMEM builds on (§II-A).

use std::collections::HashMap;

use crate::sa::suffix_array_sais;

/// Marker for the sentinel character in the BWT vector.
const SENTINEL: u8 = 4;
/// Rows between `Occ` checkpoints.
const CKPT: usize = 64;
/// Text-position sampling rate for `locate`.
const RATE: usize = 16;

/// FM-index over a DNA code sequence.
pub struct FmIndex {
    /// Text length (the BWT has `n + 1` rows including the sentinel).
    n: usize,
    bwt: Vec<u8>,
    /// `c_table[c]` = row where suffixes starting with code `c` begin
    /// (row 0 is the sentinel suffix).
    c_table: [usize; 4],
    /// `occ_ckpt[k][c]` = occurrences of `c` in `bwt[0 .. k·CKPT)`.
    occ_ckpt: Vec<[u32; 4]>,
    /// `row → text position` for rows whose suffix position is a
    /// multiple of [`RATE`].
    samples: HashMap<u32, u32>,
}

impl FmIndex {
    /// Build from 2-bit codes (values `0..=3`).
    pub fn new(codes: &[u8]) -> FmIndex {
        let n = codes.len();
        let sa = suffix_array_sais(codes);

        let mut bwt = Vec::with_capacity(n + 1);
        let mut samples = HashMap::new();
        for row in 0..=n {
            // Row 0 is the (empty) sentinel suffix at text position n.
            let suffix_pos = if row == 0 { n } else { sa[row - 1] as usize };
            bwt.push(if suffix_pos == 0 {
                SENTINEL
            } else {
                codes[suffix_pos - 1]
            });
            if suffix_pos < n && suffix_pos % RATE == 0 {
                samples.insert(row as u32, suffix_pos as u32);
            }
        }

        let mut counts = [0usize; 4];
        for &c in codes {
            counts[c as usize] += 1;
        }
        let mut c_table = [0usize; 4];
        let mut acc = 1; // the sentinel occupies row 0
        for c in 0..4 {
            c_table[c] = acc;
            acc += counts[c];
        }

        let rows = n + 1;
        let mut occ_ckpt = Vec::with_capacity(rows / CKPT + 1);
        let mut running = [0u32; 4];
        for (row, &ch) in bwt.iter().enumerate() {
            if row % CKPT == 0 {
                occ_ckpt.push(running);
            }
            if ch != SENTINEL {
                running[ch as usize] += 1;
            }
        }
        occ_ckpt.push(running); // sentinel checkpoint at/after the end

        FmIndex {
            n,
            bwt,
            c_table,
            occ_ckpt,
            samples,
        }
    }

    /// Occurrences of code `c` in `bwt[0 .. row)`.
    #[inline]
    fn occ(&self, c: u8, row: usize) -> usize {
        let ckpt = row / CKPT;
        let mut count = self.occ_ckpt[ckpt][c as usize] as usize;
        for &ch in &self.bwt[ckpt * CKPT..row] {
            count += usize::from(ch == c);
        }
        count
    }

    /// The full row range (empty pattern).
    pub fn full_range(&self) -> std::ops::Range<usize> {
        0..self.n + 1
    }

    /// One backward-extension step: the rows matching `c · current`.
    #[inline]
    pub fn backward_ext(&self, range: std::ops::Range<usize>, c: u8) -> std::ops::Range<usize> {
        debug_assert!(c < 4);
        let lo = self.c_table[c as usize] + self.occ(c, range.start);
        let hi = self.c_table[c as usize] + self.occ(c, range.end);
        lo..hi
    }

    /// Row range of all suffixes prefixed by `pattern`, or `None` if the
    /// pattern does not occur. Classic backward search (pattern fed
    /// right-to-left).
    pub fn pattern_range(&self, pattern: &[u8]) -> Option<std::ops::Range<usize>> {
        let mut range = self.full_range();
        for &c in pattern.iter().rev() {
            range = self.backward_ext(range, c);
            if range.is_empty() {
                return None;
            }
        }
        Some(range)
    }

    /// Text position of the suffix at `row`, via LF-walking to the
    /// nearest sampled row (at most `RATE` steps).
    pub fn locate(&self, row: usize) -> u32 {
        let mut row = row;
        let mut steps = 0u32;
        loop {
            if let Some(&pos) = self.samples.get(&(row as u32)) {
                return pos + steps;
            }
            let ch = self.bwt[row];
            debug_assert_ne!(ch, SENTINEL, "the row at text position 0 is always sampled");
            row = self.c_table[ch as usize] + self.occ(ch, row);
            steps += 1;
        }
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.bwt.len()
            + self.occ_ckpt.len() * std::mem::size_of::<[u32; 4]>()
            + self.samples.len() * 2 * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn count_naive(codes: &[u8], pattern: &[u8]) -> usize {
        if pattern.is_empty() || pattern.len() > codes.len() {
            return 0;
        }
        codes
            .windows(pattern.len())
            .filter(|w| *w == pattern)
            .count()
    }

    fn positions_naive(codes: &[u8], pattern: &[u8]) -> Vec<u32> {
        codes
            .windows(pattern.len())
            .enumerate()
            .filter(|(_, w)| *w == pattern)
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn count_matches_naive() {
        let mut rng = StdRng::seed_from_u64(70);
        let codes: Vec<u8> = (0..800).map(|_| rng.gen_range(0..4)).collect();
        let fm = FmIndex::new(&codes);
        for plen in [1usize, 2, 5, 9, 14] {
            for _ in 0..20 {
                let start = rng.gen_range(0..codes.len() - plen);
                let pattern = codes[start..start + plen].to_vec();
                let got = fm.pattern_range(&pattern).map_or(0, |r| r.len());
                assert_eq!(got, count_naive(&codes, &pattern), "plen {plen}");
            }
        }
    }

    #[test]
    fn absent_pattern_returns_none() {
        let codes = vec![0u8; 100]; // all A
        let fm = FmIndex::new(&codes);
        assert!(fm.pattern_range(&[1]).is_none(), "no C in all-A text");
        assert!(fm.pattern_range(&[0, 1]).is_none());
        assert_eq!(fm.pattern_range(&[0, 0]).unwrap().len(), 99);
    }

    #[test]
    fn locate_matches_naive_positions() {
        let mut rng = StdRng::seed_from_u64(71);
        let codes: Vec<u8> = (0..500).map(|_| rng.gen_range(0..4)).collect();
        let fm = FmIndex::new(&codes);
        for _ in 0..30 {
            let plen = rng.gen_range(3..10);
            let start = rng.gen_range(0..codes.len() - plen);
            let pattern = codes[start..start + plen].to_vec();
            let range = fm.pattern_range(&pattern).expect("pattern exists");
            let mut got: Vec<u32> = range.map(|row| fm.locate(row)).collect();
            got.sort_unstable();
            assert_eq!(got, positions_naive(&codes, &pattern));
        }
    }

    #[test]
    fn locate_every_row_recovers_suffix_array() {
        let mut rng = StdRng::seed_from_u64(72);
        let codes: Vec<u8> = (0..300).map(|_| rng.gen_range(0..4)).collect();
        let fm = FmIndex::new(&codes);
        let sa = suffix_array_sais(&codes);
        for (row, &expect) in sa.iter().enumerate() {
            assert_eq!(fm.locate(row + 1), expect, "row {}", row + 1);
        }
    }

    #[test]
    fn tiny_texts() {
        let fm = FmIndex::new(&[2]);
        assert_eq!(fm.pattern_range(&[2]).unwrap().len(), 1);
        assert!(fm.pattern_range(&[3]).is_none());
        assert_eq!(fm.locate(fm.pattern_range(&[2]).unwrap().start), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn fm_count_and_locate_match_naive(
            codes in proptest::collection::vec(0u8..4, 1..300),
            pat in proptest::collection::vec(0u8..4, 1..12),
        ) {
            let fm = FmIndex::new(&codes);
            let expect: Vec<u32> = codes
                .windows(pat.len())
                .enumerate()
                .filter(|(_, w)| *w == pat.as_slice())
                .map(|(i, _)| i as u32)
                .collect();
            match fm.pattern_range(&pat) {
                None => prop_assert!(expect.is_empty()),
                Some(range) => {
                    let mut got: Vec<u32> = range.map(|row| fm.locate(row)).collect();
                    got.sort_unstable();
                    prop_assert_eq!(got, expect);
                }
            }
        }
    }
}
