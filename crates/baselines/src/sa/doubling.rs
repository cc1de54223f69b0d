//! Suffix sorting by comparison.
//!
//! Two entry points used by the sparseMEM/essaMEM baselines, both
//! sequential (the paper runs those tools at τ = 1, 4, 8; here only
//! their queries use τ threads, see [`crate::parallel`]):
//!
//! * [`suffix_array_doubling`] — Manber–Myers prefix doubling;
//!   O(n log² n), fully general.
//! * [`sort_sampled_suffixes`] — directly comparison-sorts a *sampled*
//!   subset of suffixes with word-parallel LCE comparisons; this is how
//!   the sparse tools build their `K`-sampled suffix arrays without
//!   paying for a full array.

use gpumem_seq::PackedSeq;

/// Full suffix array by prefix doubling.
pub fn suffix_array_doubling(codes: &[u8]) -> Vec<u32> {
    let n = codes.len();
    if n == 0 {
        return Vec::new();
    }
    let mut sa: Vec<u32> = (0..n as u32).collect();
    let mut rank: Vec<u32> = codes.iter().map(|&c| u32::from(c)).collect();
    let mut next_rank = vec![0u32; n];
    let mut k = 1usize;
    loop {
        // Sort by (rank[i], rank[i + k]), absent second component
        // sorting first (shorter suffix is smaller).
        let key = |i: u32| -> (u32, u32) {
            let i = i as usize;
            let second = if i + k < n { rank[i + k] + 1 } else { 0 };
            (rank[i], second)
        };
        sa.sort_unstable_by_key(|&i| key(i));

        // Re-rank.
        next_rank[sa[0] as usize] = 0;
        for w in 1..n {
            let prev = sa[w - 1];
            let cur = sa[w];
            let bump = u32::from(key(prev) != key(cur));
            next_rank[cur as usize] = next_rank[prev as usize] + bump;
        }
        std::mem::swap(&mut rank, &mut next_rank);
        if rank[sa[n - 1] as usize] as usize == n - 1 {
            return sa;
        }
        k *= 2;
    }
}

/// Sort the suffixes starting at `positions` (a `K`-sampled subset) by
/// direct comparison with word-parallel LCE. Returns the positions in
/// lexicographic suffix order.
pub fn sort_sampled_suffixes(reference: &PackedSeq, mut positions: Vec<u32>) -> Vec<u32> {
    positions.sort_unstable_by(|&a, &b| compare_suffixes(reference, a as usize, b as usize));
    positions
}

/// Lexicographic comparison of two suffixes of the same sequence.
#[inline]
pub fn compare_suffixes(seq: &PackedSeq, a: usize, b: usize) -> std::cmp::Ordering {
    if a == b {
        return std::cmp::Ordering::Equal;
    }
    let lce = seq.lce_fwd(a, seq, b, usize::MAX);
    let a_end = a + lce >= seq.len();
    let b_end = b + lce >= seq.len();
    match (a_end, b_end) {
        (true, true) => std::cmp::Ordering::Equal, // only if a == b, unreachable
        (true, false) => std::cmp::Ordering::Less, // shorter suffix sorts first
        (false, true) => std::cmp::Ordering::Greater,
        (false, false) => seq.code(a + lce).cmp(&seq.code(b + lce)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sa::sais::{naive_suffix_array, suffix_array_sais};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn doubling_matches_sais_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(8);
        for len in [0usize, 1, 2, 17, 100, 1_000, 5_000] {
            let codes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4)).collect();
            assert_eq!(
                suffix_array_doubling(&codes),
                suffix_array_sais(&codes),
                "len {len}"
            );
        }
    }

    #[test]
    fn doubling_handles_periodic_input() {
        let codes: Vec<u8> = (0..500).map(|i| [0u8, 1][i % 2]).collect();
        assert_eq!(suffix_array_doubling(&codes), naive_suffix_array(&codes));
    }

    #[test]
    fn sampled_sort_agrees_with_filtered_full_sa() {
        let mut rng = StdRng::seed_from_u64(21);
        let codes: Vec<u8> = (0..2_000).map(|_| rng.gen_range(0..4)).collect();
        let seq = PackedSeq::from_codes(&codes);
        let full = suffix_array_sais(&codes);
        for k in [1usize, 2, 4, 7] {
            let sampled: Vec<u32> = (0..codes.len() as u32).step_by(k).collect();
            let sorted = sort_sampled_suffixes(&seq, sampled);
            let filtered: Vec<u32> = full
                .iter()
                .copied()
                .filter(|&p| (p as usize).is_multiple_of(k))
                .collect();
            assert_eq!(sorted, filtered, "K = {k}");
        }
    }

    #[test]
    fn compare_suffixes_orders_prefix_before_extension() {
        // In ACGAC, suffix 3 ("AC") is a prefix of suffix 0 ("ACGAC").
        let seq: PackedSeq = "ACGAC".parse().unwrap();
        assert_eq!(compare_suffixes(&seq, 3, 0), std::cmp::Ordering::Less);
        assert_eq!(compare_suffixes(&seq, 0, 3), std::cmp::Ordering::Greater);
        assert_eq!(compare_suffixes(&seq, 2, 2), std::cmp::Ordering::Equal);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::sa::sais::suffix_array_sais;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn doubling_always_matches_sais(codes in proptest::collection::vec(0u8..4, 0..250)) {
            prop_assert_eq!(suffix_array_doubling(&codes), suffix_array_sais(&codes));
        }

        #[test]
        fn sampled_sort_matches_filter(
            codes in proptest::collection::vec(0u8..4, 0..250),
            k in 1usize..8,
        ) {
            let seq = PackedSeq::from_codes(&codes);
            let sampled: Vec<u32> = (0..codes.len() as u32).step_by(k).collect();
            let sorted = sort_sampled_suffixes(&seq, sampled);
            let filtered: Vec<u32> = suffix_array_sais(&codes)
                .into_iter()
                .filter(|&p| (p as usize).is_multiple_of(k))
                .collect();
            prop_assert_eq!(sorted, filtered);
        }
    }
}
