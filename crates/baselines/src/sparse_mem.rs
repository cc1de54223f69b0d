//! sparseMEM baseline (Khan, Bloom, Kruglyak & Singh 2009).
//!
//! A sparse suffix array keeps only the suffixes starting at positions
//! `≡ 0 (mod K)`, cutting index memory by `K×` at the price of more
//! matching work — the trade-off the paper discusses in §IV-B (and the
//! reason sparseMEM gets *slower* with more threads in Table IV: the
//! tool couples `K` to the thread count, so more threads mean a sparser
//! index and a harder search problem).
//!
//! A MEM of length `λ ≥ L ≥ K` contains a sampled reference position
//! within its first `K` columns, and the forward match from that anchor
//! is at least `L − K + 1` long — so searching every query position at
//! depth `T = L − K + 1` and keeping anchors with left extension `< K`
//! finds every MEM exactly once (see [`crate::common`]).

use std::ops::Range;

use gpumem_seq::{Mem, PackedSeq};

use crate::common::{extend_and_emit, interval_at_depth, MemFinder};
use crate::sa::sort_sampled_suffixes;

/// The sparse-suffix-array MEM finder.
pub struct SparseMem {
    reference: PackedSeq,
    /// Sampled suffix start positions in lexicographic suffix order.
    sa: Vec<u32>,
    /// Sparseness factor `K`.
    k: usize,
}

impl SparseMem {
    /// Build the sparse suffix array with sparseness `k` (`k = 1` is a
    /// full suffix array). The build runs on the calling thread.
    pub fn build(reference: &PackedSeq, k: usize) -> SparseMem {
        assert!(k >= 1, "sparseness must be at least 1");
        let positions: Vec<u32> = (0..reference.len() as u32).step_by(k).collect();
        let sa = sort_sampled_suffixes(reference, positions);
        SparseMem {
            reference: reference.clone(),
            sa,
            k,
        }
    }

    /// The sparseness factor `K`.
    pub fn sparseness(&self) -> usize {
        self.k
    }

    /// Number of indexed suffixes.
    pub fn num_suffixes(&self) -> usize {
        self.sa.len()
    }
}

impl MemFinder for SparseMem {
    fn name(&self) -> &'static str {
        "sparseMEM"
    }

    fn find_in_range(&self, query: &PackedSeq, range: Range<usize>, min_len: u32) -> Vec<Mem> {
        assert!(
            self.k <= min_len as usize,
            "sparseness K = {} must not exceed L = {min_len}",
            self.k
        );
        let depth = (min_len as usize - self.k + 1).max(1);
        let mut out = Vec::new();
        let end = range.end.min((query.len() + 1).saturating_sub(depth));
        for p in range.start..end {
            let interval =
                interval_at_depth(&self.reference, &self.sa, query, p, depth, 0..self.sa.len());
            if !interval.is_empty() {
                extend_and_emit(
                    &self.reference,
                    query,
                    &self.sa[interval],
                    p,
                    min_len,
                    self.k,
                    &mut out,
                );
            }
        }
        out
    }

    fn index_bytes(&self) -> usize {
        self.sa.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumem_seq::{naive_mems, table2_pairs, GenomeModel};

    #[test]
    fn matches_naive_on_related_pair() {
        let spec = &table2_pairs(1.0 / 65536.0)[1];
        let pair = spec.realize(3);
        for min_len in [12u32, 20] {
            let expect = naive_mems(&pair.reference, &pair.query, min_len);
            for k in [1usize, 3, 5, 12] {
                let finder = SparseMem::build(&pair.reference, k);
                let got = finder.find_mems(&pair.query, min_len);
                assert_eq!(got, expect, "K = {k}, L = {min_len}");
            }
        }
    }

    #[test]
    fn matches_naive_on_unrelated_sequences() {
        let reference = GenomeModel::uniform().generate(3_000, 41);
        let query = GenomeModel::uniform().generate(2_000, 42);
        let expect = naive_mems(&reference, &query, 8);
        let finder = SparseMem::build(&reference, 4);
        assert_eq!(finder.find_mems(&query, 8), expect);
    }

    #[test]
    fn sparser_index_is_smaller() {
        let reference = GenomeModel::uniform().generate(10_000, 43);
        let k1 = SparseMem::build(&reference, 1);
        let k8 = SparseMem::build(&reference, 8);
        assert_eq!(k1.num_suffixes(), 10_000);
        assert_eq!(k8.num_suffixes(), 1_250);
        assert!(k8.index_bytes() * 7 < k1.index_bytes());
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn k_larger_than_l_is_rejected() {
        let reference = GenomeModel::uniform().generate(100, 44);
        let query = GenomeModel::uniform().generate(100, 45);
        SparseMem::build(&reference, 20).find_mems(&query, 10);
    }

    #[test]
    fn empty_query_and_no_matches() {
        let reference = GenomeModel::uniform().generate(500, 46);
        let finder = SparseMem::build(&reference, 2);
        let empty = PackedSeq::from_codes(&[]);
        assert!(finder.find_mems(&empty, 10).is_empty());
        // A query guaranteed free of length-20 matches (tiny alphabet
        // mass at that length over 500 bases is possible, so build an
        // explicit mismatch: all-A reference vs all-T query).
        let all_a = PackedSeq::from_codes(&vec![0u8; 300]);
        let all_t = PackedSeq::from_codes(&vec![3u8; 300]);
        let finder = SparseMem::build(&all_a, 2);
        assert!(finder.find_mems(&all_t, 4).is_empty());
    }

    #[test]
    fn range_partition_is_lossless() {
        let spec = &table2_pairs(1.0 / 65536.0)[3];
        let pair = spec.realize(9);
        let finder = SparseMem::build(&pair.reference, 3);
        let full = finder.find_mems(&pair.query, 12);
        let mut parts = Vec::new();
        let n = pair.query.len();
        for chunk in [0..n / 3, n / 3..2 * n / 3, 2 * n / 3..n] {
            parts.extend(finder.find_in_range(&pair.query, chunk, 12));
        }
        assert_eq!(gpumem_seq::canonicalize(parts), full);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use gpumem_seq::naive_mems;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn sparse_mem_always_matches_naive(
            r in proptest::collection::vec(0u8..4, 1..250),
            q in proptest::collection::vec(0u8..4, 1..250),
            k in 1usize..6,
            extra_l in 0u32..8,
        ) {
            let min_len = k as u32 + extra_l; // keep K <= L
            prop_assume!(min_len >= 1);
            let reference = PackedSeq::from_codes(&r);
            let query = PackedSeq::from_codes(&q);
            let finder = SparseMem::build(&reference, k);
            prop_assert_eq!(
                finder.find_mems(&query, min_len),
                naive_mems(&reference, &query, min_len)
            );
        }
    }
}
