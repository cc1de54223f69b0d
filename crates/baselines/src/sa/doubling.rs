//! Suffix sorting by comparison: [`sort_sampled_suffixes`] directly
//! comparison-sorts a *sampled* subset of suffixes with word-parallel
//! LCE comparisons. This is how the sparse tools build their
//! `K`-sampled suffix arrays without paying for a full array (the full
//! one is [`crate::sa::suffix_array_sais`]'s). Sequential: the paper
//! runs those tools at τ = 1, 4, 8; here only their queries use τ
//! threads, see [`crate::parallel`].

use gpumem_seq::PackedSeq;

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
    use crate::sa::sais::suffix_array_sais;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
