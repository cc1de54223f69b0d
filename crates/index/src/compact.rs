//! The compact layout's device build — a §V "novel GPU-based indexing
//! techniques" extension.
//!
//! The paper's `ptrs` table has `4^ℓs` entries regardless of how many
//! seeds actually occur; at `ℓs = 13` that is a 268 MB allocation even
//! for a 40 kb tile row. The compact layout stores only the seeds that
//! occur: their codes, sorted, and their bucket offsets into `locs`.
//! Device memory drops from `O(4^ℓs + n_locs)` to `O(n_locs)`, and a
//! lookup pays a binary search over the codes
//! ([`SeedIndex::lookup_overhead_loads`]).
//!
//! Construction sorts packed `(code, location)` pairs on the device
//! with [`gpu_sim::primitives::device_sort_u64`] (chunked bitonic +
//! merge passes), replacing Algorithm 1's count/scan/fill/sort with a
//! sort/compact pass. The sorted locations are the dense build's
//! `locs`, so the host keeps the one [`SeedIndex`] form for both
//! layouts; only [`SeedIndex::kind`] tells them apart.

use gpu_sim::primitives::{device_sort_u64, BLOCK_DIM};
use gpu_sim::{Device, LaunchConfig, LaunchStats, Op};
use gpumem_seq::PackedSeq;

use crate::index::{IndexKind, Region, SeedIndex};
use crate::seed::SeedCodec;

/// Device builder: one kernel packs `(code, location)` pairs and the
/// device-wide sort orders them; the host takes the sorted locations
/// and finds their buckets, as it does after the dense build.
pub fn build_compact_gpu(
    device: &Device,
    seq: &PackedSeq,
    region: Region,
    seed_len: usize,
    step: usize,
) -> (SeedIndex, LaunchStats) {
    assert!(step >= 1, "step must be at least 1");
    let codec = SeedCodec::new(seed_len);
    let positions = SeedIndex::expected_positions(region, step, seed_len, seq.len());
    let n = positions.len();
    let pairs = device.alloc::<u64>(n, "compact.pairs");

    let mut stats = device.launch(
        LaunchConfig::new(n.div_ceil(BLOCK_DIM), BLOCK_DIM),
        "compact.pack",
        |ctx| {
            let base = ctx.block_id * BLOCK_DIM;
            ctx.simt(|lane| {
                let gid = base + lane.tid;
                if lane.branch(gid < n) {
                    let pos = positions[gid];
                    lane.charge(Op::GlobalLoad, 1); // packed seed read
                    lane.charge(Op::Alu, 2);
                    let code = codec
                        .encode(seq, pos as usize)
                        .expect("position bounds-checked");
                    lane.st(&pairs, gid, (u64::from(code) << 32) | u64::from(pos));
                }
            });
        },
    );
    stats += device_sort_u64(device, &pairs);

    let locs = pairs.to_vec().into_iter().map(|pair| pair as u32).collect();
    let kind = IndexKind::CompactDirectory;
    let index = SeedIndex::from_buckets(seq, codec, step, region, kind, locs);
    (index, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_cpu::build_sequential;
    use gpu_sim::DeviceSpec;
    use gpumem_seq::GenomeModel;

    /// Both builders' compact rows equal the dense build of the same
    /// row but for their layout, and validate.
    #[test]
    fn compact_builds_equal_the_dense_build_but_for_layout() {
        let seq = GenomeModel::mammalian().generate(9_000, 82);
        let device = Device::new(DeviceSpec::test_tiny());
        let regions = [
            Region::whole(&seq),
            Region { start: 0, len: 0 },
            Region {
                start: 2_000,
                len: 3_000,
            },
        ];
        for (seed_len, step) in [(4usize, 1usize), (5, 2), (6, 3), (8, 20), (8, 38)] {
            for region in regions {
                let context = format!("ℓs {seed_len}, step {step}, {region:?}");
                let dense = build_sequential(&seq, region, seed_len, step);
                let host = dense.clone().with_kind(IndexKind::CompactDirectory);
                let (gpu, stats) = build_compact_gpu(&device, &seq, region, seed_len, step);
                assert_eq!(gpu.kind(), IndexKind::CompactDirectory, "{context}");
                assert_eq!(gpu, host, "{context}");
                assert_eq!(gpu.with_kind(IndexKind::DenseTable), dense, "{context}");
                host.validate(&seq)
                    .unwrap_or_else(|e| panic!("{context}: {e}"));
                assert!(region.len == 0 || stats.launches >= 2, "{context}");
            }
        }
    }

    /// Each layout's modeled cost on a row counted by hand: `ACACACAC`
    /// at ℓs = 2 and step 1 samples 7 locations under 2 present codes
    /// (`AC` at 0, 2, 4, 6 and `CA` at 1, 3, 5).
    #[test]
    fn each_layout_models_its_own_device_arrays() {
        let seq: PackedSeq = "ACACACAC".parse().unwrap();
        let dense = build_sequential(&seq, Region::whole(&seq), 2, 1);
        assert_eq!(dense.kind(), IndexKind::DenseTable);
        assert_eq!(dense.num_locations(), 7);
        // (4² + 1 ptrs + 7 locs) u32s; a lookup reads two ptrs only.
        assert_eq!(dense.memory_bytes(), 96);
        assert_eq!(dense.lookup_overhead_loads(), 0);
        // (2 codes + 3 offsets + 7 locs) u32s; the binary search over
        // two codes takes the bit length of 2 loads.
        let compact = dense.with_kind(IndexKind::CompactDirectory);
        assert_eq!(compact.memory_bytes(), 48);
        assert_eq!(compact.lookup_overhead_loads(), 2);
        // An empty row keeps one offset, and its search still reads one.
        let empty = build_sequential(&seq, Region { start: 0, len: 0 }, 2, 1)
            .with_kind(IndexKind::CompactDirectory);
        assert_eq!(empty.memory_bytes(), 4);
        assert_eq!(empty.lookup_overhead_loads(), 1);
    }

    #[test]
    fn compact_is_much_smaller_for_long_seeds() {
        let seq = GenomeModel::mammalian().generate(20_000, 83);
        let dense = build_sequential(&seq, Region::whole(&seq), 13, 38);
        let dense_bytes = dense.memory_bytes();
        let compact = dense.with_kind(IndexKind::CompactDirectory);
        assert!(
            compact.memory_bytes() * 1_000 < dense_bytes,
            "compact {} B vs dense {dense_bytes} B",
            compact.memory_bytes(),
        );
        assert!(compact.lookup_overhead_loads() > 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::build_cpu::build_sequential;
    use gpu_sim::DeviceSpec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The device's compact build of a drawn row equals the host's
        /// dense build but for its layout, and validates.
        #[test]
        fn compact_device_build_equals_the_dense_build_but_for_layout(
            codes in proptest::collection::vec(0u8..4, 0..500),
            seed_len in 1usize..7,
            step in 1usize..20,
        ) {
            let seq = PackedSeq::from_codes(&codes);
            let device = Device::new(DeviceSpec::test_tiny());
            let region = Region::whole(&seq);
            let (compact, _) = build_compact_gpu(&device, &seq, region, seed_len, step);
            compact.validate(&seq).map_err(TestCaseError::fail)?;
            let dense = build_sequential(&seq, region, seed_len, step);
            prop_assert_eq!(compact.with_kind(IndexKind::DenseTable), dense);
        }
    }
}
