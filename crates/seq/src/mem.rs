//! Maximal exact matches: the output type shared by every finder.
//!
//! A MEM is a triplet `(r, q, λ)` (§II): `λ ≥ L` matching bases starting
//! at reference position `r` and query position `q`, extendable in
//! neither direction. [`naive_mems`] is the O(|R|·|Q|) diagonal-scan
//! ground truth every other finder in the workspace is validated
//! against, and [`is_maximal_exact`] checks the definition verbatim for
//! a single triplet.

use crate::packed::PackedSeq;

/// One maximal exact match `(r, q, λ)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Mem {
    /// Start position in the reference.
    pub r: u32,
    /// Start position in the query.
    pub q: u32,
    /// Match length `λ`.
    pub len: u32,
}

impl Mem {
    /// The diagonal `r − q` (as i64 so it is total over u32 inputs).
    /// Triplets on the same diagonal are the ones the combine steps
    /// merge (§III-B3, §III-C).
    #[inline(always)]
    pub fn diagonal(&self) -> i64 {
        i64::from(self.r) - i64::from(self.q)
    }

    /// Exclusive end in the reference.
    #[inline(always)]
    pub fn r_end(&self) -> u32 {
        self.r + self.len
    }

    /// Exclusive end in the query.
    #[inline(always)]
    pub fn q_end(&self) -> u32 {
        self.q + self.len
    }
}

/// Which query strand a match was found on. Real MEM tools (`mummer
/// -b`, essaMEM `-b`) match both strands; the reverse strand is
/// searched by matching the reverse complement of the query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Strand {
    /// The query as given.
    Forward,
    /// The reverse complement of the query; `q` in the carried [`Mem`]
    /// is a position on the *original* query (start of the reversed
    /// interval).
    Reverse,
}

/// A strand-tagged maximal exact match.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StrandMem {
    /// The match, with `q` in original-query coordinates.
    pub mem: Mem,
    /// The strand the match lies on.
    pub strand: Strand,
}

/// Map a MEM found against `reverse_complement(query)` back to
/// original-query coordinates: the reversed interval `[q, q+len)`
/// covers `[query_len − q − len, query_len − q)` of the original.
pub fn map_reverse_mem(mem: Mem, query_len: usize) -> Mem {
    Mem {
        r: mem.r,
        q: (query_len as u32) - mem.q - mem.len,
        len: mem.len,
    }
}

/// Sort by `(r, q, len)` and drop duplicates — the canonical form used
/// to compare tool outputs.
pub fn canonicalize(mut mems: Vec<Mem>) -> Vec<Mem> {
    // One packed key orders exactly like the derived `(r, q, len)`
    // comparison, with one compare per step instead of up to three.
    mems.sort_unstable_by_key(|m| {
        (u128::from(m.r) << 64) | (u128::from(m.q) << 32) | u128::from(m.len)
    });
    mems.dedup();
    mems
}

/// Check the MEM definition verbatim: the ranges match, `len ≥ min_len`,
/// and the match is maximal on both sides.
pub fn is_maximal_exact(reference: &PackedSeq, query: &PackedSeq, mem: Mem, min_len: u32) -> bool {
    let (r, q, len) = (mem.r as usize, mem.q as usize, mem.len as usize);
    if len < min_len as usize || !reference.eq_range(r, query, q, len) {
        return false;
    }
    let left_maximal = r == 0 || q == 0 || reference.code(r - 1) != query.code(q - 1);
    let right_maximal = r + len == reference.len()
        || q + len == query.len()
        || reference.code(r + len) != query.code(q + len);
    left_maximal && right_maximal
}

/// Ground-truth finder: scan every diagonal of the `|R| × |Q|` space
/// with word-parallel LCE jumps. Exact and complete, O(|R|·|Q|/w) time —
/// for tests and small inputs only.
pub fn naive_mems(reference: &PackedSeq, query: &PackedSeq, min_len: u32) -> Vec<Mem> {
    let n = reference.len();
    let m = query.len();
    let mut out = Vec::new();
    if n == 0 || m == 0 || min_len == 0 {
        return out;
    }
    for d in -(m as i64 - 1)..=(n as i64 - 1) {
        let mut r = d.max(0) as usize;
        let mut q = (r as i64 - d) as usize;
        // Each iteration starts at a boundary or right after a mismatch,
        // so every emitted run is left-maximal; LCE stops at a mismatch
        // or boundary, so it is right-maximal.
        while r < n && q < m {
            let run = reference.lce_fwd(r, query, q, usize::MAX);
            if run >= min_len as usize {
                out.push(Mem {
                    r: r as u32,
                    q: q as u32,
                    len: run as u32,
                });
            }
            r += run + 1;
            q += run + 1;
        }
    }
    canonicalize(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> PackedSeq {
        s.parse().expect("valid DNA")
    }

    #[test]
    fn diagonal_and_ends() {
        let mem = Mem {
            r: 10,
            q: 3,
            len: 5,
        };
        assert_eq!(mem.diagonal(), 7);
        assert_eq!(mem.r_end(), 15);
        assert_eq!(mem.q_end(), 8);
        let neg = Mem { r: 1, q: 9, len: 2 };
        assert_eq!(neg.diagonal(), -8);
    }

    #[test]
    fn canonicalize_sorts_and_dedups() {
        let raw = vec![
            Mem { r: 5, q: 1, len: 8 },
            Mem { r: 2, q: 0, len: 9 },
            Mem { r: 5, q: 1, len: 8 },
        ];
        let canon = canonicalize(raw);
        assert_eq!(
            canon,
            vec![Mem { r: 2, q: 0, len: 9 }, Mem { r: 5, q: 1, len: 8 }]
        );
    }

    #[test]
    fn simple_shared_substring() {
        // R = GGGACGTACGGG, Q = TTACGTACTT share "ACGTAC".
        let r = seq("GGGACGTACGGG");
        let q = seq("TTACGTACTT");
        let mems = naive_mems(&r, &q, 4);
        assert!(mems.contains(&Mem { r: 3, q: 2, len: 6 }), "{mems:?}");
        for &mem in &mems {
            assert!(is_maximal_exact(&r, &q, mem, 4), "{mem:?}");
        }
    }

    #[test]
    fn identical_sequences_give_full_diagonal() {
        let r = seq("ACGTACGTAA");
        let mems = naive_mems(&r, &r, 10);
        assert!(mems.contains(&Mem {
            r: 0,
            q: 0,
            len: 10
        }));
    }

    #[test]
    fn repeats_produce_multiple_mems() {
        // Query "ACGT" occurs twice in the reference, flanked by
        // mismatching context both times.
        let r = seq("TTACGTTTTTACGTCC");
        let q = seq("GACGTG");
        let mems = naive_mems(&r, &q, 4);
        let expected = [
            Mem { r: 2, q: 1, len: 4 },
            Mem {
                r: 10,
                q: 1,
                len: 4,
            },
        ];
        for e in expected {
            assert!(mems.contains(&e), "missing {e:?} in {mems:?}");
        }
    }

    #[test]
    fn boundary_matches_are_maximal() {
        // Match touching both sequence starts and the query end.
        let r = seq("ACGTAC");
        let q = seq("ACGT");
        let mems = naive_mems(&r, &q, 4);
        assert_eq!(mems, vec![Mem { r: 0, q: 0, len: 4 }]);
        assert!(is_maximal_exact(&r, &q, mems[0], 4));
    }

    #[test]
    fn min_len_filters() {
        let r = seq("TTACGTT");
        let q = seq("GACGG");
        assert!(!naive_mems(&r, &q, 2).is_empty());
        assert!(naive_mems(&r, &q, 5).is_empty());
    }

    #[test]
    fn reverse_mapping_round_trips_coordinates() {
        // R = ACGT…, query reverse strand carries the complement.
        let reference = seq("GGACGTACGG");
        let query = seq("TTGTACGTTT"); // revcomp = AAACGTACAA
        let rc = query.reverse_complement();
        let rc_mems = naive_mems(&reference, &rc, 6);
        assert_eq!(rc_mems.len(), 1, "{rc_mems:?}");
        let mapped = map_reverse_mem(rc_mems[0], query.len());
        // revcomp interval [2..9) ("ACGTACA"∩…) maps back into the
        // original query; verify by re-complementing the slice.
        let q = mapped.q as usize;
        let len = mapped.len as usize;
        let back = query.subseq(q, len).unwrap().reverse_complement();
        assert!(reference.eq_range(mapped.r as usize, &back, 0, len));
    }

    #[test]
    fn empty_inputs_give_no_mems() {
        let r = seq("ACGT");
        let empty = PackedSeq::from_codes(&[]);
        assert!(naive_mems(&r, &empty, 1).is_empty());
        assert!(naive_mems(&empty, &r, 1).is_empty());
    }

    #[test]
    fn is_maximal_rejects_non_maximal_and_mismatched() {
        let r = seq("GGACGTGG");
        let q = seq("TTACGTTT");
        // True MEM is (2, 2, 4).
        assert!(is_maximal_exact(&r, &q, Mem { r: 2, q: 2, len: 4 }, 4));
        // Sub-match (extendable right) is not maximal.
        assert!(!is_maximal_exact(&r, &q, Mem { r: 2, q: 2, len: 3 }, 3));
        // Shifted match does not even match.
        assert!(!is_maximal_exact(&r, &q, Mem { r: 3, q: 2, len: 4 }, 4));
        // Correct match failing the length threshold.
        assert!(!is_maximal_exact(&r, &q, Mem { r: 2, q: 2, len: 4 }, 5));
    }

    #[test]
    fn every_naive_mem_satisfies_definition() {
        let model = crate::generate::GenomeModel::mammalian();
        let r = model.generate(400, 17);
        let q = model.generate(300, 18);
        for min_len in [4u32, 8, 12] {
            let mems = naive_mems(&r, &q, min_len);
            for &mem in &mems {
                assert!(
                    is_maximal_exact(&r, &q, mem, min_len),
                    "{mem:?} (L={min_len})"
                );
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn dna(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0u8..4, 0..max_len)
    }

    /// Quadratic per-position checker, independent of the LCE-jump
    /// implementation.
    fn quadratic_mems(r: &[u8], q: &[u8], min_len: usize) -> Vec<Mem> {
        let mut out = Vec::new();
        for i in 0..r.len() {
            for j in 0..q.len() {
                let left_ok = i == 0 || j == 0 || r[i - 1] != q[j - 1];
                if !left_ok {
                    continue;
                }
                let mut len = 0;
                while i + len < r.len() && j + len < q.len() && r[i + len] == q[j + len] {
                    len += 1;
                }
                if len >= min_len {
                    out.push(Mem {
                        r: i as u32,
                        q: j as u32,
                        len: len as u32,
                    });
                }
            }
        }
        canonicalize(out)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn naive_matches_quadratic(r in dna(80), q in dna(80), min_len in 1u32..12) {
            let pr = PackedSeq::from_codes(&r);
            let pq = PackedSeq::from_codes(&q);
            prop_assert_eq!(naive_mems(&pr, &pq, min_len), quadratic_mems(&r, &q, min_len as usize));
        }

        #[test]
        fn naive_mems_are_all_maximal(r in dna(120), q in dna(120), min_len in 1u32..10) {
            let pr = PackedSeq::from_codes(&r);
            let pq = PackedSeq::from_codes(&q);
            for mem in naive_mems(&pr, &pq, min_len) {
                prop_assert!(is_maximal_exact(&pr, &pq, mem, min_len));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The packed sort key orders like the derived `Ord`, at the
        /// extremes of every field and with ties and duplicates.
        #[test]
        fn canonicalize_equals_derived_sort_and_dedup(
            fields in proptest::collection::vec(0usize..5, 0..120),
        ) {
            const VALUES: [u32; 5] = [0, 1, 2, u32::MAX - 1, u32::MAX];
            let mems: Vec<Mem> = fields
                .chunks_exact(3)
                .map(|f| Mem { r: VALUES[f[0]], q: VALUES[f[1]], len: VALUES[f[2]] })
                .collect();
            let mut expect = mems.clone();
            expect.sort();
            expect.dedup();
            prop_assert_eq!(canonicalize(mems), expect);
        }
    }
}
