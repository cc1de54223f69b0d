//! CPU index builders.
//!
//! [`build_sequential`] is the obviously-correct reference;
//! [`build_parallel`] mirrors Algorithm 1's four phases on rayon and is
//! used both to cross-check the simulated-GPU build and as a fast host
//! path. All three builders (including [`crate::build_gpu()`]) produce
//! bit-identical indexes.
//!
//! The builders are seed-mode agnostic: `step` is `Δs` under
//! [`crate::SeedMode::RefOnly`] and `k1` under
//! [`crate::SeedMode::DualSampled`] — the query-side step `k2` never
//! reaches the index; it only thins the pipeline's probe schedule.

use std::sync::atomic::{AtomicU32, Ordering};

use rayon::prelude::*;

use gpumem_seq::PackedSeq;

use crate::index::{Region, SeedIndex};
use crate::seed::SeedCodec;

/// Sequential reference builder: count, scan, fill (in position order,
/// so buckets come out sorted without a separate pass).
pub fn build_sequential(
    seq: &PackedSeq,
    region: Region,
    seed_len: usize,
    step: usize,
) -> SeedIndex {
    assert!(step >= 1, "step must be at least 1");
    let codec = SeedCodec::new(seed_len);
    let positions = SeedIndex::expected_positions(region, step, seed_len, seq.len());

    let mut counts = vec![0u32; codec.num_seeds() + 1];
    for &pos in &positions {
        let code = codec
            .encode(seq, pos as usize)
            .expect("position bounds-checked");
        counts[code as usize] += 1;
    }

    // Exclusive scan in place: ptrs[s] = start of bucket s.
    let mut ptrs = counts;
    let mut acc = 0u32;
    for slot in ptrs.iter_mut() {
        let v = *slot;
        *slot = acc;
        acc += v;
    }

    let mut cursor = ptrs.clone();
    let mut locs = vec![0u32; positions.len()];
    for &pos in &positions {
        let code = codec
            .encode(seq, pos as usize)
            .expect("position bounds-checked");
        let idx = cursor[code as usize];
        cursor[code as usize] += 1;
        locs[idx as usize] = pos;
    }

    SeedIndex {
        codec,
        step,
        region,
        ptrs,
        locs,
    }
}

/// Rayon builder following Algorithm 1's structure: atomic counting,
/// scan, atomic fill, then per-bucket sort (the parallel fill loses
/// position order, exactly as on the GPU).
pub fn build_parallel(seq: &PackedSeq, region: Region, seed_len: usize, step: usize) -> SeedIndex {
    assert!(step >= 1, "step must be at least 1");
    let codec = SeedCodec::new(seed_len);
    let positions = SeedIndex::expected_positions(region, step, seed_len, seq.len());

    // Step 1: count occurrences with atomics.
    let counts: Vec<AtomicU32> = {
        let mut v = Vec::with_capacity(codec.num_seeds() + 1);
        v.resize_with(codec.num_seeds() + 1, || AtomicU32::new(0));
        v
    };
    positions.par_iter().for_each(|&pos| {
        let code = codec
            .encode(seq, pos as usize)
            .expect("position bounds-checked");
        counts[code as usize].fetch_add(1, Ordering::Relaxed);
    });

    // Step 2: exclusive prefix sum.
    let mut ptrs: Vec<u32> = counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    let mut acc = 0u32;
    for slot in ptrs.iter_mut() {
        let v = *slot;
        *slot = acc;
        acc += v;
    }

    // Step 3: fill through an atomic cursor copy.
    let cursor: Vec<AtomicU32> = ptrs.iter().map(|&v| AtomicU32::new(v)).collect();
    let locs: Vec<AtomicU32> = {
        let mut v = Vec::with_capacity(positions.len());
        v.resize_with(positions.len(), || AtomicU32::new(0));
        v
    };
    positions.par_iter().for_each(|&pos| {
        let code = codec
            .encode(seq, pos as usize)
            .expect("position bounds-checked");
        let idx = cursor[code as usize].fetch_add(1, Ordering::Relaxed);
        locs[idx as usize].store(pos, Ordering::Relaxed);
    });
    let mut locs: Vec<u32> = locs.into_iter().map(|c| c.into_inner()).collect();

    // Step 4: sort each bucket (one task per seed with any occupancy).
    let bucket_bounds: Vec<(usize, usize)> = (0..codec.num_seeds())
        .filter_map(|s| {
            let lo = ptrs[s] as usize;
            let hi = ptrs[s + 1] as usize;
            (hi - lo > 1).then_some((lo, hi))
        })
        .collect();
    {
        // Sort disjoint bucket slices in parallel.
        let mut rest: &mut [u32] = &mut locs;
        let mut slices = Vec::with_capacity(bucket_bounds.len());
        let mut consumed = 0usize;
        for &(lo, hi) in &bucket_bounds {
            let (_skip, tail) = rest.split_at_mut(lo - consumed);
            let (bucket, tail) = tail.split_at_mut(hi - lo);
            slices.push(bucket);
            rest = tail;
            consumed = hi;
        }
        slices
            .into_par_iter()
            .for_each(|bucket| bucket.sort_unstable());
    }

    SeedIndex {
        codec,
        step,
        region,
        ptrs,
        locs,
    }
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
    fn parallel_matches_sequential() {
        let seq = GenomeModel::mammalian().generate(20_000, 3);
        for (seed_len, step) in [(4, 1), (7, 4), (10, 38)] {
            let sequential = build_sequential(&seq, Region::whole(&seq), seed_len, step);
            let parallel = build_parallel(&seq, Region::whole(&seq), seed_len, step);
            assert_eq!(sequential, parallel, "(ls={seed_len}, step={step})");
        }
    }

    #[test]
    fn parallel_matches_sequential_on_regions() {
        let seq = GenomeModel::mammalian().generate(10_000, 4);
        let region = Region {
            start: 3_000,
            len: 4_000,
        };
        assert_eq!(
            build_sequential(&seq, region, 6, 7),
            build_parallel(&seq, region, 6, 7)
        );
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
        fn parallel_always_matches_sequential(
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
            let sequential = build_sequential(&seq, region, seed_len, step);
            sequential.validate(&seq).map_err(TestCaseError::fail)?;
            let parallel = build_parallel(&seq, region, seed_len, step);
            prop_assert_eq!(sequential, parallel);
        }
    }
}
