//! Seed (k-mer) encoding.
//!
//! A seed of length `ℓs` is packed into `2·ℓs` bits (§III-A): with
//! `ℓs ≤ 15` the code fits comfortably in a `u32` and the `ptrs` table
//! has `4^ℓs` entries. The paper uses `ℓs = 13` (and 10 for the
//! `L = 10` row of Table III).

use gpumem_seq::PackedSeq;

/// Encoder/decoder for fixed-length seeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeedCodec {
    seed_len: usize,
}

impl SeedCodec {
    /// Maximum supported seed length (the `ptrs` table is `4^ℓs`
    /// entries; 15 is 1 Gi entries, already impractical — the paper
    /// stays at 13).
    pub const MAX_SEED_LEN: usize = 15;

    /// Create a codec. Panics if `seed_len` is 0 or exceeds
    /// [`Self::MAX_SEED_LEN`].
    pub fn new(seed_len: usize) -> SeedCodec {
        assert!(
            (1..=Self::MAX_SEED_LEN).contains(&seed_len),
            "seed length {seed_len} out of range 1..={}",
            Self::MAX_SEED_LEN
        );
        SeedCodec { seed_len }
    }

    /// The seed length `ℓs`.
    #[inline(always)]
    pub fn seed_len(&self) -> usize {
        self.seed_len
    }

    /// Number of distinct seeds, `4^ℓs` — the size of the `ptrs` table
    /// minus the sentinel.
    #[inline(always)]
    pub fn num_seeds(&self) -> usize {
        1usize << (2 * self.seed_len)
    }

    /// Packed code of the seed starting at `pos`, or `None` if it runs
    /// off the end of the sequence.
    #[inline(always)]
    pub fn encode(&self, seq: &PackedSeq, pos: usize) -> Option<u32> {
        seq.kmer(pos, self.seed_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_seeds_is_four_to_the_ls() {
        assert_eq!(SeedCodec::new(1).num_seeds(), 4);
        assert_eq!(SeedCodec::new(4).num_seeds(), 256);
        assert_eq!(SeedCodec::new(13).num_seeds(), 67_108_864);
    }

    #[test]
    fn encode_packs_the_first_base_lowest() {
        let seq: PackedSeq = "ACGTTGCA".parse().unwrap();
        let codec = SeedCodec::new(5);
        for pos in 0..=3 {
            let expect = (0..5).fold(0u32, |code, t| {
                code | u32::from(seq.code(pos + t)) << (2 * t)
            });
            assert_eq!(codec.encode(&seq, pos), Some(expect), "pos {pos}");
        }
        assert_eq!(codec.encode(&seq, 4), None);
    }

    #[test]
    fn codes_are_dense_and_distinct() {
        // All 2-mers of the de Bruijn-ish string cover several codes;
        // every code is < num_seeds.
        let seq: PackedSeq = "AACAGATCCGCTGGTTA".parse().unwrap();
        let codec = SeedCodec::new(2);
        let mut seen = std::collections::HashSet::new();
        for pos in 0..seq.len() - 1 {
            let code = codec.encode(&seq, pos).unwrap();
            assert!((code as usize) < codec.num_seeds());
            seen.insert(code);
        }
        assert_eq!(seen.len(), 16, "the string covers all 16 2-mers");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_seed_len_rejected() {
        SeedCodec::new(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_seed_len_rejected() {
        SeedCodec::new(16);
    }
}
