//! The compact seed index — a §V "novel GPU-based indexing techniques"
//! extension.
//!
//! The paper's `ptrs` table has `4^ℓs` entries regardless of how many
//! seeds actually occur; at `ℓs = 13` that is a 268 MB allocation even
//! for a 40 kb tile row. The compact layout stores only the seeds that
//! occur:
//!
//! * `entries` — the distinct seed codes present, sorted;
//! * `offsets` — bucket offsets into `locs`, parallel to `entries`;
//! * `locs` — sampled locations, bucketed and ascending as before.
//!
//! Memory drops from `O(4^ℓs + n_locs)` to `O(n_locs)`; a lookup pays a
//! binary search over `entries` (`⌈log₂ n_entries⌉` extra global loads,
//! surfaced through [`SeedLookup::lookup_overhead_loads`]).
//!
//! Construction sorts packed `(code, location)` pairs — on the device
//! with [`gpu_sim::primitives::device_sort_u64`] (chunked bitonic +
//! merge passes), replacing Algorithm 1's count/scan/fill/sort with a
//! sort/compact pass.

use gpu_sim::primitives::{device_sort_u64, BLOCK_DIM};
use gpu_sim::{Device, LaunchConfig, LaunchStats, Op};
use gpumem_seq::PackedSeq;

use crate::index::{Region, SeedIndex};
use crate::lookup::SeedLookup;
use crate::seed::SeedCodec;

/// The compact (sorted-directory) seed index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactSeedIndex {
    /// Seed codec (carries `ℓs`).
    pub codec: SeedCodec,
    /// Sampling step `Δs`.
    pub step: usize,
    /// Indexed region.
    pub region: Region,
    /// Distinct seed codes present, sorted ascending.
    pub entries: Vec<u32>,
    /// `offsets[i] .. offsets[i+1]` is `entries[i]`'s bucket in `locs`.
    pub offsets: Vec<u32>,
    /// Sampled locations, bucketed by seed and ascending.
    pub locs: Vec<u32>,
}

impl CompactSeedIndex {
    fn from_sorted_pairs(
        codec: SeedCodec,
        step: usize,
        region: Region,
        pairs: &[u64],
    ) -> CompactSeedIndex {
        let mut entries = Vec::new();
        let mut offsets = Vec::new();
        let mut locs = Vec::with_capacity(pairs.len());
        let mut prev_code = u64::MAX;
        for &packed in pairs {
            let code = packed >> 32;
            if code != prev_code {
                entries.push(code as u32);
                offsets.push(locs.len() as u32);
                prev_code = code;
            }
            locs.push((packed & 0xFFFF_FFFF) as u32);
        }
        offsets.push(locs.len() as u32);
        CompactSeedIndex {
            codec,
            step,
            region,
            entries,
            offsets,
            locs,
        }
    }

    /// Number of distinct seeds present.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Check structural equivalence against a dense [`SeedIndex`] of
    /// the same parameters (test helper).
    pub fn agrees_with_dense(&self, dense: &SeedIndex) -> Result<(), String> {
        if self.locs.len() != dense.locs.len() {
            return Err(format!(
                "location count {} vs dense {}",
                self.locs.len(),
                dense.locs.len()
            ));
        }
        for (i, &code) in self.entries.iter().enumerate() {
            let mine = &self.locs[self.offsets[i] as usize..self.offsets[i + 1] as usize];
            if mine != dense.lookup(code) {
                return Err(format!("bucket mismatch for seed {code}"));
            }
        }
        Ok(())
    }
}

impl SeedLookup for CompactSeedIndex {
    fn seed_len(&self) -> usize {
        self.codec.seed_len()
    }

    fn step(&self) -> usize {
        self.step
    }

    fn occurrences(&self, code: u32) -> usize {
        self.lookup(code).len()
    }

    fn lookup(&self, code: u32) -> &[u32] {
        match self.entries.binary_search(&code) {
            Ok(i) => &self.locs[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            Err(_) => &[],
        }
    }

    fn lookup_overhead_loads(&self) -> u64 {
        (usize::BITS - self.entries.len().max(1).leading_zeros()) as u64
    }

    fn memory_bytes(&self) -> usize {
        (self.entries.len() + self.offsets.len() + self.locs.len()) * std::mem::size_of::<u32>()
    }
}

/// Host reference builder: pack, sort, compact.
pub fn build_compact_sequential(
    seq: &PackedSeq,
    region: Region,
    seed_len: usize,
    step: usize,
) -> CompactSeedIndex {
    assert!(step >= 1, "step must be at least 1");
    let codec = SeedCodec::new(seed_len);
    let mut pairs: Vec<u64> = SeedIndex::expected_positions(region, step, seed_len, seq.len())
        .into_iter()
        .map(|pos| {
            let code = codec
                .encode(seq, pos as usize)
                .expect("position bounds-checked");
            (u64::from(code) << 32) | u64::from(pos)
        })
        .collect();
    pairs.sort_unstable();
    CompactSeedIndex::from_sorted_pairs(codec, step, region, &pairs)
}

/// Device builder: one kernel packs `(code, location)` pairs, the
/// device-wide sort orders them, and the compaction scan runs on the
/// host side of the launch boundary (as the dense builder's final copy
/// does).
pub fn build_compact_gpu(
    device: &Device,
    seq: &PackedSeq,
    region: Region,
    seed_len: usize,
    step: usize,
) -> (CompactSeedIndex, LaunchStats) {
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

    let sorted = pairs.to_vec();
    let index = CompactSeedIndex::from_sorted_pairs(codec, step, region, &sorted);
    (index, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_cpu::build_sequential;
    use gpu_sim::DeviceSpec;
    use gpumem_seq::GenomeModel;

    #[test]
    fn compact_agrees_with_dense() {
        let seq = GenomeModel::mammalian().generate(6_000, 81);
        for (seed_len, step) in [(4usize, 1usize), (6, 3), (8, 38)] {
            let dense = build_sequential(&seq, Region::whole(&seq), seed_len, step);
            let compact = build_compact_sequential(&seq, Region::whole(&seq), seed_len, step);
            compact
                .agrees_with_dense(&dense)
                .unwrap_or_else(|e| panic!("(ls={seed_len}, step={step}): {e}"));
            // Trait-level equivalence on present and absent seeds.
            for code in (0..dense.codec.num_seeds() as u32).step_by(17) {
                assert_eq!(
                    SeedLookup::lookup(&compact, code),
                    SeedIndex::lookup(&dense, code),
                    "seed {code}"
                );
            }
        }
    }

    #[test]
    fn gpu_build_matches_host_build() {
        let seq = GenomeModel::mammalian().generate(9_000, 82);
        let device = Device::new(DeviceSpec::test_tiny());
        for (seed_len, step) in [(5usize, 2usize), (8, 20)] {
            let (gpu, stats) =
                build_compact_gpu(&device, &seq, Region::whole(&seq), seed_len, step);
            let host = build_compact_sequential(&seq, Region::whole(&seq), seed_len, step);
            assert_eq!(gpu, host, "(ls={seed_len}, step={step})");
            assert!(stats.launches >= 2);
        }
    }

    #[test]
    fn compact_is_much_smaller_for_long_seeds() {
        let seq = GenomeModel::mammalian().generate(20_000, 83);
        let dense = build_sequential(&seq, Region::whole(&seq), 13, 38);
        let compact = build_compact_sequential(&seq, Region::whole(&seq), 13, 38);
        compact.agrees_with_dense(&dense).unwrap();
        assert!(
            compact.memory_bytes() * 1_000 < dense.memory_bytes(),
            "compact {} B vs dense {} B",
            compact.memory_bytes(),
            dense.memory_bytes()
        );
        assert!(compact.lookup_overhead_loads() > 0);
    }

    #[test]
    fn empty_and_tiny_regions() {
        let seq = GenomeModel::uniform().generate(100, 84);
        let empty = build_compact_sequential(&seq, Region { start: 0, len: 0 }, 4, 1);
        assert_eq!(empty.num_entries(), 0);
        assert!(SeedLookup::lookup(&empty, 0).is_empty());
        let device = Device::new(DeviceSpec::test_tiny());
        let (gpu_empty, _) = build_compact_gpu(&device, &seq, Region { start: 0, len: 0 }, 4, 1);
        assert_eq!(gpu_empty, empty);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::build_cpu::build_sequential;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn compact_always_agrees_with_dense(
            codes in proptest::collection::vec(0u8..4, 0..500),
            seed_len in 1usize..7,
            step in 1usize..20,
        ) {
            let seq = PackedSeq::from_codes(&codes);
            let dense = build_sequential(&seq, Region::whole(&seq), seed_len, step);
            let compact = build_compact_sequential(&seq, Region::whole(&seq), seed_len, step);
            prop_assert!(compact.agrees_with_dense(&dense).is_ok());
        }
    }
}
