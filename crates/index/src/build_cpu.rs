//! CPU index builders.
//!
//! [`build_sequential`] is the obviously-correct reference that the
//! simulated-GPU build ([`crate::build_gpu()`]) is checked against: both
//! produce bit-identical indexes.
//!
//! The builders are seed-mode agnostic: `step` is `Δs` under
//! [`crate::SeedMode::RefOnly`] and `k1` under
//! [`crate::SeedMode::DualSampled`] — the query-side step `k2` never
//! reaches the index; it only thins the pipeline's probe schedule.

use gpumem_seq::PackedSeq;

use crate::index::{Region, SeedIndex};
use crate::seed::SeedCodec;

/// Sequential reference builder: sort the sampled positions by seed
/// code, so buckets come out in code order and ascending within.
pub fn build_sequential(
    seq: &PackedSeq,
    region: Region,
    seed_len: usize,
    step: usize,
) -> SeedIndex {
    let codec = SeedCodec::new(seed_len);
    let locs = sorted_pairs(seq, codec, region, step)
        .into_iter()
        .map(|pair| pair as u32)
        .collect();
    SeedIndex::from_buckets(seq, codec, step, region, locs)
}

/// `region`'s sampled positions as `code << 32 | position` pairs,
/// ascending: by seed code, then by position.
pub(crate) fn sorted_pairs(
    seq: &PackedSeq,
    codec: SeedCodec,
    region: Region,
    step: usize,
) -> Vec<u64> {
    assert!(step >= 1, "step must be at least 1");
    let mut pairs: Vec<u64> =
        SeedIndex::expected_positions(region, step, codec.seed_len(), seq.len())
            .into_iter()
            .map(|pos| {
                let code = codec
                    .encode(seq, pos as usize)
                    .expect("position bounds-checked");
                (u64::from(code) << 32) | u64::from(pos)
            })
            .collect();
    pairs.sort_unstable();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumem_seq::GenomeModel;

    #[test]
    fn sequential_index_validates() {
        let seq = GenomeModel::mammalian().generate(5_000, 1);
        for (seed_len, step) in [(4, 1), (6, 3), (8, 38), (8, 5_000)] {
            let index = build_sequential(&seq, Region::whole(&seq), seed_len, step);
            index
                .validate(&seq)
                .unwrap_or_else(|e| panic!("({seed_len},{step}): {e}"));
        }
    }

    #[test]
    fn sequential_handles_sub_regions() {
        let seq = GenomeModel::mammalian().generate(2_000, 2);
        for region in [
            Region { start: 0, len: 500 },
            Region {
                start: 500,
                len: 500,
            },
            Region {
                start: 1_900,
                len: 100,
            },
            Region { start: 0, len: 0 },
        ] {
            let index = build_sequential(&seq, region, 5, 3);
            index
                .validate(&seq)
                .unwrap_or_else(|e| panic!("{region:?}: {e}"));
        }
    }

    #[test]
    fn empty_sequence_yields_empty_index() {
        let seq = PackedSeq::from_codes(&[]);
        let index = build_sequential(&seq, Region { start: 0, len: 0 }, 4, 1);
        assert_eq!(index.num_locations(), 0);
        index.validate(&seq).unwrap();
    }

    #[test]
    fn sequence_shorter_than_seed_yields_empty_index() {
        let seq: PackedSeq = "ACG".parse().unwrap();
        let index = build_sequential(&seq, Region::whole(&seq), 8, 1);
        assert_eq!(index.num_locations(), 0);
    }

    #[test]
    fn step_one_indexes_every_position() {
        let seq = GenomeModel::uniform().generate(1_000, 5);
        let index = build_sequential(&seq, Region::whole(&seq), 6, 1);
        assert_eq!(index.num_locations(), 1_000 - 6 + 1);
    }

    #[test]
    fn location_count_scales_inversely_with_step() {
        let seq = GenomeModel::uniform().generate(10_000, 6);
        let full = build_sequential(&seq, Region::whole(&seq), 8, 1).num_locations();
        let sparse = build_sequential(&seq, Region::whole(&seq), 8, 10).num_locations();
        assert!(sparse <= full / 10 + 1);
        assert!(sparse >= full / 10 - 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sequential_validates_on_any_region(
            codes in proptest::collection::vec(0u8..4, 0..600),
            seed_len in 1usize..6,
            step in 1usize..40,
            start_frac in 0.0f64..1.0,
            len_frac in 0.0f64..1.0,
        ) {
            let seq = PackedSeq::from_codes(&codes);
            let start = (start_frac * codes.len() as f64) as usize;
            let len = (len_frac * (codes.len() - start) as f64) as usize;
            let region = Region { start, len };
            build_sequential(&seq, region, seed_len, step)
                .validate(&seq)
                .map_err(TestCaseError::fail)?;
        }
    }
}
