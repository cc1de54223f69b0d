//! Algorithm 1: partial index construction on the (simulated) GPU.
//!
//! Four kernels, exactly as the paper's pseudocode:
//!
//! 1. **count** — one thread per sampled location; each extracts its
//!    seed and `atomicAdd`s the seed's counter;
//! 2. **prefix-sum** — `GPUPrefixSum(ptrs)` (the device-wide scan from
//!    [`gpu_sim::primitives`]);
//! 3. **fill** — one thread per sampled location; each reserves a slot
//!    in its seed's bucket with `atomicAdd` on a `temp` cursor copy and
//!    stores the location. The parallel fill leaves buckets unsorted;
//! 4. **sort** — one thread per *seed* sorts its bucket
//!    ([`gpu_sim::primitives::lane_sort_bucket`]).
//!
//! Like the CPU builders, the kernels take the reference sampling
//! `step` as an opaque stride: under [`crate::SeedMode::DualSampled`]
//! the same four kernels run with `step = k1`, and the co-prime query
//! step `k2` is applied by the pipeline when probing, not here.

use gpu_sim::primitives::{device_exclusive_scan, lane_sort_bucket, BLOCK_DIM};
use gpu_sim::{Device, LaunchConfig, LaunchStats, Op};

use gpumem_seq::PackedSeq;

use crate::index::{Region, SeedIndex};
use crate::seed::SeedCodec;

/// Seeds handled per thread in the copy/sort kernels (strided loops keep
/// the grid size reasonable for `4^13` seeds).
const SEEDS_PER_THREAD: usize = 64;

/// Build the index of `region` on the device. Returns the index
/// (copied back to the host, as the pipeline's host-side bookkeeping
/// needs it) plus the accumulated launch statistics — Table III's
/// "GPUMEM index generation time" is `stats.modeled_time`.
pub fn build_gpu(
    device: &Device,
    seq: &PackedSeq,
    region: Region,
    seed_len: usize,
    step: usize,
) -> (SeedIndex, LaunchStats) {
    assert!(step >= 1, "step must be at least 1");
    let codec = SeedCodec::new(seed_len);
    let num_seeds = codec.num_seeds();

    // Sampled locations: region.start, region.start + Δs, … clipped so a
    // full seed fits in the sequence.
    let seed_fit_end = seq.len().saturating_sub(seed_len).wrapping_add(1);
    let sample_end = region.end().min(seed_fit_end.max(region.start));
    let n_positions = if sample_end > region.start {
        (sample_end - region.start).div_ceil(step)
    } else {
        0
    };
    let position_of = |gid: usize| region.start + gid * step;

    // Pool-backed: every tile row re-allocates the same geometry, so
    // rows after the first reuse this storage (LaunchStats::pool_allocs
    // pins that in the regression tests).
    let ptrs = device.alloc::<u32>(num_seeds + 1, "index.ptrs");
    let mut stats = LaunchStats::default();

    // Step 1: count seed occurrences.
    let grid = n_positions.div_ceil(BLOCK_DIM);
    stats += device.launch(LaunchConfig::new(grid, BLOCK_DIM), "index.count", |ctx| {
        let base = ctx.block_id * BLOCK_DIM;
        ctx.simt(|lane| {
            let gid = base + lane.tid;
            if lane.branch(gid < n_positions) {
                let pos = position_of(gid);
                lane.charge(Op::GlobalLoad, 1); // packed seed read
                lane.charge(Op::Alu, 2);
                let code = codec.encode(seq, pos).expect("sample position fits a seed");
                lane.atomic_add(&ptrs, code as usize, 1);
            }
        });
    });

    // Step 2: prefix-sum over ptrs.
    stats += device_exclusive_scan(device, &ptrs);

    // Step 3: fill locs through an atomic cursor copy.
    let temp = device.alloc::<u32>(num_seeds, "index.temp");
    let copy_grid = num_seeds.div_ceil(BLOCK_DIM * SEEDS_PER_THREAD);
    stats += device.launch(
        LaunchConfig::new(copy_grid, BLOCK_DIM),
        "index.copy_cursor",
        |ctx| {
            let base = ctx.block_id * BLOCK_DIM * SEEDS_PER_THREAD;
            ctx.simt(|lane| {
                let lo = base + lane.tid * SEEDS_PER_THREAD;
                let hi = (lo + SEEDS_PER_THREAD).min(num_seeds);
                let mut cursor = [0u32; SEEDS_PER_THREAD];
                let cursor = &mut cursor[..hi.saturating_sub(lo)];
                lane.ld_slice(&ptrs, lo, cursor);
                lane.st_slice(&temp, lo, cursor);
            });
        },
    );

    // `locs` models a raw `cudaMalloc` allocation: the fill below is
    // what initializes it, and the sanitizer checks exactly that
    // (recycled pool storage keeps stale bits, so a read-before-write
    // here would also return garbage, as on real hardware).
    let locs = device.alloc_uninit::<u32>(n_positions, "index.locs");
    stats += device.launch(LaunchConfig::new(grid, BLOCK_DIM), "index.fill", |ctx| {
        let base = ctx.block_id * BLOCK_DIM;
        ctx.simt(|lane| {
            let gid = base + lane.tid;
            if lane.branch(gid < n_positions) {
                let pos = position_of(gid);
                lane.charge(Op::GlobalLoad, 1);
                lane.charge(Op::Alu, 2);
                let code = codec.encode(seq, pos).expect("sample position fits a seed");
                let idx = lane.atomic_reserve(&temp, code as usize, 1, &locs);
                lane.st(&locs, idx as usize, pos as u32);
            }
        });
    });

    // Step 4: one thread per seed sorts its bucket.
    let sort_grid = num_seeds.div_ceil(BLOCK_DIM * SEEDS_PER_THREAD);
    stats += device.launch(
        LaunchConfig::new(sort_grid, BLOCK_DIM),
        "index.sort_buckets",
        |ctx| {
            let base = ctx.block_id * BLOCK_DIM * SEEDS_PER_THREAD;
            ctx.simt(|lane| {
                let lo_seed = base + lane.tid * SEEDS_PER_THREAD;
                let hi_seed = (lo_seed + SEEDS_PER_THREAD).min(num_seeds);
                let seeds = hi_seed.saturating_sub(lo_seed);
                if seeds == 0 {
                    return;
                }
                // Each seed reads its two bucket bounds; neighbours share
                // one, so a bulk read of `seeds + 1` entries plus the
                // repeated reads charges the 2 loads per seed.
                let mut bounds = [0u32; SEEDS_PER_THREAD + 1];
                let bounds = &mut bounds[..=seeds];
                lane.ld_slice(&ptrs, lo_seed, bounds);
                lane.charge(Op::GlobalLoad, seeds as u64 - 1);
                for pair in bounds.windows(2) {
                    let (lo, hi) = (pair[0] as usize, pair[1] as usize);
                    if lane.branch(hi - lo > 1) {
                        lane_sort_bucket(lane, &locs, lo, hi);
                    }
                }
            });
        },
    );

    let index = SeedIndex {
        codec,
        step,
        region,
        ptrs: ptrs.to_vec(),
        locs: locs.to_vec(),
    };
    (index, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_cpu::build_sequential;
    use gpu_sim::DeviceSpec;
    use gpumem_seq::GenomeModel;

    fn device() -> Device {
        Device::new(DeviceSpec::test_tiny())
    }

    #[test]
    fn gpu_build_matches_sequential() {
        let seq = GenomeModel::mammalian().generate(8_000, 7);
        let device = device();
        for (seed_len, step) in [(4, 1), (6, 3), (8, 38)] {
            let (gpu, stats) = build_gpu(&device, &seq, Region::whole(&seq), seed_len, step);
            let cpu = build_sequential(&seq, Region::whole(&seq), seed_len, step);
            assert_eq!(gpu, cpu, "(ls={seed_len}, step={step})");
            gpu.validate(&seq).unwrap();
            assert!(stats.launches >= 4, "four kernels plus scan passes");
            assert!(stats.atomic_ops > 0);
        }
    }

    #[test]
    fn gpu_build_matches_sequential_on_sub_regions() {
        let seq = GenomeModel::mammalian().generate(6_000, 9);
        let device = device();
        for region in [
            Region {
                start: 0,
                len: 1_500,
            },
            Region {
                start: 1_500,
                len: 1_500,
            },
            Region {
                start: 5_900,
                len: 100,
            },
        ] {
            let (gpu, _) = build_gpu(&device, &seq, region, 6, 5);
            assert_eq!(gpu, build_sequential(&seq, region, 6, 5), "{region:?}");
        }
    }

    #[test]
    fn empty_region_builds_empty_index() {
        let seq = GenomeModel::uniform().generate(100, 1);
        let device = device();
        let (index, _) = build_gpu(&device, &seq, Region { start: 0, len: 0 }, 4, 1);
        assert_eq!(index.num_locations(), 0);
        index.validate(&seq).unwrap();
    }

    #[test]
    fn sparse_build_is_modeled_cheaper_than_full() {
        let seq = GenomeModel::mammalian().generate(20_000, 11);
        let device = device();
        let (_, full) = build_gpu(&device, &seq, Region::whole(&seq), 8, 1);
        let (_, sparse) = build_gpu(&device, &seq, Region::whole(&seq), 8, 38);
        // Fewer sampled locations -> fewer atomic/count/fill cycles. The
        // per-seed copy/sort kernels are step-independent, so the gap is
        // not 38x, but it must be clearly cheaper.
        assert!(
            sparse.warp_cycles < full.warp_cycles,
            "sparse {} vs full {}",
            sparse.warp_cycles,
            full.warp_cycles
        );
        assert!(sparse.atomic_ops < full.atomic_ops / 10);
    }

    #[test]
    fn atomic_count_matches_two_per_location() {
        // Steps 1 and 3 each perform one atomicAdd per sampled location.
        let seq = GenomeModel::uniform().generate(1_000, 13);
        let device = device();
        let (index, stats) = build_gpu(&device, &seq, Region::whole(&seq), 5, 2);
        assert_eq!(stats.atomic_ops, 2 * index.num_locations() as u64);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::build_cpu::build_sequential;
    use gpu_sim::DeviceSpec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn gpu_always_matches_sequential(
            codes in proptest::collection::vec(0u8..4, 0..400),
            seed_len in 1usize..6,
            step in 1usize..20,
        ) {
            let seq = gpumem_seq::PackedSeq::from_codes(&codes);
            let device = Device::new(DeviceSpec::test_tiny());
            let (gpu, _) = build_gpu(&device, &seq, Region::whole(&seq), seed_len, step);
            let cpu = build_sequential(&seq, Region::whole(&seq), seed_len, step);
            prop_assert_eq!(gpu, cpu);
        }
    }
}
