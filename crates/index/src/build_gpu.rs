//! Algorithm 1: partial index construction on the (simulated) GPU.
//!
//! Four kernels, exactly as the paper's pseudocode:
//!
//! 1. **count** — one thread per sampled location; each extracts its
//!    seed and `atomicAdd`s the seed's counter;
//! 2. **prefix-sum** — `GPUPrefixSum(ptrs)` (the device-wide scan from
//!    [`gpu_sim::primitives`]);
//! 3. **fill** — a copy of the counters becomes the cursor
//!    (`index.copy_cursor`, one thread per 64 seeds), then one thread
//!    per sampled location reserves a slot in its seed's bucket with
//!    `atomicAdd` on the cursor and stores the location. The parallel
//!    fill leaves buckets unsorted;
//! 4. **sort** — one thread per 64 seeds sorts their buckets
//!    (`index.sort_buckets`, [`gpu_sim::primitives::lane_sort_bucket`]).
//!
//! Like the CPU builders, the kernels take the reference sampling
//! `step` as an opaque stride: under [`crate::SeedMode::DualSampled`]
//! the same four kernels run with `step = k1`, and the co-prime query
//! step `k2` is applied by the pipeline when probing, not here. The
//! sampled locations follow [`SeedIndex::expected_positions`], the one
//! rule every builder shares.
//!
//! The per-seed work — the scan's two passes, the cursor copy and the
//! bucket sorts — sweeps all `4^ℓs` seeds, while a row samples only a
//! few hundred locations. Those four kernels have two bodies
//! ([`Body`]). The interpreted one runs every lane through a
//! [`gpu_sim::Lane`], so a live sanitizer session checks every access;
//! it is also the reference. The computed one, which runs whenever no
//! session is live, moves the data in host loops over the same device
//! buffers and charges each lane what it would have charged
//! ([`gpu_sim::BlockCtx::simt_computed`]): a block of full lanes whose
//! buckets each hold at most one location charges by its geometry
//! alone, so it is recorded once per launch and replayed, and only a
//! bucket of two or more locations needs the insertion sort's counts
//! ([`sort_bucket_on_host`]). Both bodies build the same index and
//! charge the same statistics (DESIGN.md §8, "Computing charges").
//! `count` and `fill` touch one lane per location and always run
//! interpreted: the fill's `atomic_reserve` is what the sanitizer's
//! overlapping-reservation detector checks.

use gpu_sim::primitives::{
    device_exclusive_scan_as, lane_sort_bucket, sort_bucket_on_host, BLOCK_DIM,
};
use gpu_sim::{BlockCtx, Body, Device, LaneCharge, LaunchConfig, LaunchStats, Op, RegionCharge};

use gpumem_seq::PackedSeq;

use crate::index::{Region, SeedIndex};
use crate::seed::SeedCodec;

/// Seeds handled per thread in the copy/sort kernels (strided loops keep
/// the grid size reasonable for `4^13` seeds).
const SEEDS_PER_THREAD: usize = 64;

/// Seeds handled per block in the copy/sort kernels.
const SEEDS_PER_BLOCK: usize = BLOCK_DIM * SEEDS_PER_THREAD;

/// Seeds thread `tid` of a copy/sort block of `block_seeds` seeds
/// handles.
fn lane_seeds(tid: usize, block_seeds: usize) -> usize {
    block_seeds
        .saturating_sub(tid * SEEDS_PER_THREAD)
        .min(SEEDS_PER_THREAD)
}

/// What a `sort_buckets` lane over `seeds` seeds charges when every one
/// of their buckets holds at most one location: both bounds of each
/// bucket loaded and one untaken branch per seed.
fn sparse_sort_lane(seeds: usize) -> LaneCharge {
    let loads = LaneCharge::fresh().with(Op::GlobalLoad, 2 * seeds as u64);
    (0..seeds).fold(loads, |lane, _| lane.branch(false))
}

/// Build the index of `region` on the device. Returns the index's host
/// form ([`SeedIndex`]: `locs` copied back and its buckets found on the
/// host; the `4^ℓs + 1`-entry `ptrs` never leaves the device) plus the
/// accumulated launch statistics — Table III's "GPUMEM index generation
/// time" is `stats.modeled_time`. The per-seed kernels run as
/// [`Body::current`] says.
pub fn build_gpu(
    device: &Device,
    seq: &PackedSeq,
    region: Region,
    seed_len: usize,
    step: usize,
) -> (SeedIndex, LaunchStats) {
    build_gpu_as(device, seq, region, seed_len, step, Body::current())
}

/// [`build_gpu`] with the scan's two passes, `index.copy_cursor` and
/// `index.sort_buckets` run as `body`; both bodies build the same index
/// and charge the same statistics.
pub fn build_gpu_as(
    device: &Device,
    seq: &PackedSeq,
    region: Region,
    seed_len: usize,
    step: usize,
    body: Body,
) -> (SeedIndex, LaunchStats) {
    assert!(step >= 1, "step must be at least 1");
    let codec = SeedCodec::new(seed_len);
    let num_seeds = codec.num_seeds();
    let positions = SeedIndex::expected_positions(region, step, seed_len, seq.len());
    let n_positions = positions.len();

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
                let pos = positions[gid] as usize;
                lane.charge(Op::GlobalLoad, 1); // packed seed read
                lane.charge(Op::Alu, 2);
                let code = codec.encode(seq, pos).expect("sample position fits a seed");
                lane.atomic_add(&ptrs, code as usize, 1);
            }
        });
    });

    // Step 2: prefix-sum over ptrs.
    stats += device_exclusive_scan_as(device, &ptrs, body);

    // The per-seed kernels' grid, a computed block's host values and
    // the charge of a block of full lanes, recorded once per launch.
    let seed_grid = LaunchConfig::new(num_seeds.div_ceil(SEEDS_PER_BLOCK), BLOCK_DIM);
    let block_seeds = |block: usize| (num_seeds - block * SEEDS_PER_BLOCK).min(SEEDS_PER_BLOCK);
    let mut host = Vec::new();
    let mut full_block = None::<RegionCharge>;

    // Step 3: fill locs through an atomic cursor copy.
    let temp = device.alloc::<u32>(num_seeds, "index.temp");
    stats += device.launch(seed_grid, "index.copy_cursor", |ctx| {
        let base = ctx.block_id * SEEDS_PER_BLOCK;
        if body == Body::Computed {
            let seeds = block_seeds(ctx.block_id);
            let charge = |ctx: &mut BlockCtx<'_>| {
                ctx.simt_computed(0..BLOCK_DIM, |tid| {
                    let k = lane_seeds(tid, seeds) as u64;
                    LaneCharge::fresh()
                        .with(Op::GlobalLoad, k)
                        .with(Op::GlobalStore, k)
                });
            };
            if seeds == SEEDS_PER_BLOCK {
                let _ = ctx.replay_or_record(&mut full_block, charge);
            } else {
                charge(ctx);
            }
            host.resize(seeds, 0);
            ptrs.load_range(base, &mut host);
            temp.store_range(base, &host);
            return;
        }
        ctx.simt(|lane| {
            let lo = base + lane.tid * SEEDS_PER_THREAD;
            let hi = (lo + SEEDS_PER_THREAD).min(num_seeds);
            let mut cursor = [0u32; SEEDS_PER_THREAD];
            let cursor = &mut cursor[..hi.saturating_sub(lo)];
            lane.ld_slice(&ptrs, lo, cursor);
            lane.st_slice(&temp, lo, cursor);
        });
    });

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
                let pos = positions[gid];
                lane.charge(Op::GlobalLoad, 1);
                lane.charge(Op::Alu, 2);
                let code = codec
                    .encode(seq, pos as usize)
                    .expect("sample position fits a seed");
                let idx = lane.atomic_reserve(&temp, code as usize, 1, &locs);
                lane.st(&locs, idx as usize, pos);
            }
        });
    });

    // Step 4: one thread per 64 seeds sorts their buckets.
    let sparse_full = sparse_sort_lane(SEEDS_PER_THREAD);
    let mut full_block = None::<RegionCharge>;
    stats += device.launch(seed_grid, "index.sort_buckets", |ctx| {
        let base = ctx.block_id * SEEDS_PER_BLOCK;
        if body == Body::Computed {
            let seeds = block_seeds(ctx.block_id);
            // Buckets of at most one location branch the same way
            // whatever they hold: a full block with fewer than two
            // locations charges what its geometry says.
            if seeds == SEEDS_PER_BLOCK && ptrs.load(base + seeds) - ptrs.load(base) <= 1 {
                let _ = ctx.replay_or_record(&mut full_block, |ctx| {
                    ctx.simt_computed(0..BLOCK_DIM, |_| sparse_full);
                });
                return;
            }
            let mut bounds = [0u32; SEEDS_PER_THREAD + 1];
            ctx.simt_computed(0..BLOCK_DIM, |tid| {
                let n = lane_seeds(tid, seeds);
                if n == 0 {
                    return LaneCharge::fresh();
                }
                let bounds = &mut bounds[..=n];
                ptrs.load_range(base + tid * SEEDS_PER_THREAD, bounds);
                if bounds[n] - bounds[0] <= 1 {
                    return match n {
                        SEEDS_PER_THREAD => sparse_full,
                        _ => sparse_sort_lane(n),
                    };
                }
                let loads = LaneCharge::fresh().with(Op::GlobalLoad, 2 * n as u64);
                bounds.windows(2).fold(loads, |lane, pair| {
                    let (lo, hi) = (pair[0] as usize, pair[1] as usize);
                    let lane = lane.branch(hi - lo > 1);
                    if hi - lo <= 1 {
                        return lane;
                    }
                    host.resize(hi - lo, 0);
                    locs.load_range(lo, &mut host);
                    let lane = sort_bucket_on_host(&mut host, lane);
                    locs.store_range(lo, &host);
                    lane
                })
            });
            return;
        }
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
    });

    // The host takes `locs` and finds its buckets itself; `ptrs` stays
    // on the device, where debug builds check the host form against it
    // at entry 0, both bounds of every present seed and the sentinel.
    let index = SeedIndex::from_buckets(seq, codec, step, region, locs.to_vec());
    if cfg!(debug_assertions) {
        assert_eq!(ptrs.load(0), 0, "ptrs[0]");
        for (code, bucket) in index.buckets() {
            let code = code as usize;
            let bounds = ptrs.load(code) as usize..ptrs.load(code + 1) as usize;
            assert_eq!(bounds, bucket, "bucket of seed {code}");
        }
        assert_eq!(ptrs.load(num_seeds) as usize, n_positions, "ptrs sentinel");
    }
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
    fn references_no_longer_than_a_seed_build_like_the_host() {
        let device = device();
        for seed_len in [1, 4, 8] {
            for len in 0..=seed_len {
                let seq = GenomeModel::uniform().generate(len, 40 + len as u64);
                let cpu = build_sequential(&seq, Region::whole(&seq), seed_len, 1);
                assert_eq!(cpu.num_locations(), usize::from(len == seed_len));
                for body in [Body::Interpreted, Body::Computed] {
                    let (gpu, _) =
                        build_gpu_as(&device, &seq, Region::whole(&seq), seed_len, 1, body);
                    assert_eq!(gpu, cpu, "ℓs {seed_len}, {len} bases, {body:?}");
                }
            }
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
