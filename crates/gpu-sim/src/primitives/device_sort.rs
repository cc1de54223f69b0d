//! Device-wide sort of a global `u64` buffer.
//!
//! Two phases, the standard GPU merge-sort skeleton:
//!
//! 1. **chunk sort** — each block bitonic-sorts one chunk of the buffer
//!    in (simulated) shared memory;
//! 2. **merge passes** — `log(n/chunk)` passes; in each pass one thread
//!    merges a pair of adjacent sorted runs (cost-charged per element
//!    moved), with the threads of a block striding over pairs.
//!
//! Used by the compact-index builder (a §V "novel indexing technique"
//! extension): sorting packed `(seed code, location)` pairs replaces
//! Algorithm 1's `4^ℓs`-entry counting table.

use crate::exec::{Device, LaunchConfig};
use crate::memory::GpuU64;
use crate::primitives::BLOCK_DIM;
use crate::stats::LaunchStats;

/// Elements per block in the chunk-sort phase.
const CHUNK: usize = 2048;

/// Sort `buf` ascending. Returns the accumulated launch statistics.
pub fn device_sort_u64(device: &Device, buf: &GpuU64) -> LaunchStats {
    let n = buf.len();
    if n <= 1 {
        return LaunchStats::default();
    }
    let n_chunks = n.div_ceil(CHUNK);

    // Per-block "shared memory" scratch, hoisted out of the launches:
    // blocks execute one after another (see `exec` docs), so one buffer
    // serves every block without a per-block allocation.
    let mut shared = Vec::<u64>::with_capacity(CHUNK);

    // Phase 1: per-block chunk sorts.
    let mut stats = device.launch(
        LaunchConfig::new(n_chunks, BLOCK_DIM),
        "sort.chunks",
        |ctx| {
            let lo = ctx.block_id * CHUNK;
            let hi = (lo + CHUNK).min(n);
            let m = hi - lo;
            // Load to "shared memory". Each lane is charged for the
            // elements its strided loop would touch, in one batch.
            ctx.simt(|lane| {
                let per_lane = if lane.tid < m {
                    (m - lane.tid).div_ceil(BLOCK_DIM) as u64
                } else {
                    0
                };
                lane.charge(crate::cost::Op::GlobalLoad, per_lane);
            });
            shared.clear();
            shared.resize(m, 0);
            buf.load_range(lo, &mut shared);
            super::sort::block_bitonic_sort_u64(ctx, &mut shared);
            ctx.simt(|lane| {
                let per_lane = if lane.tid < m {
                    (m - lane.tid).div_ceil(BLOCK_DIM) as u64
                } else {
                    0
                };
                lane.charge(crate::cost::Op::GlobalStore, per_lane);
            });
            buf.store_range(lo, &shared);
        },
    );

    // Phase 2: iterative merge passes over run pairs. The run/merged
    // buffers are likewise hoisted and reused across blocks and passes.
    let (mut runs, mut merged) = (Vec::<u64>::new(), Vec::<u64>::new());
    let mut run = CHUNK;
    while run < n {
        let n_pairs = n.div_ceil(2 * run);
        stats += device.launch(LaunchConfig::new(n_pairs, BLOCK_DIM), "sort.merge", |ctx| {
            let pair = ctx.block_id;
            let lo = pair * 2 * run;
            let mid = (lo + run).min(n);
            let hi = (lo + 2 * run).min(n);
            if mid >= hi {
                return; // lone tail run, already sorted
            }
            // One logical merger; the block's lanes share the element-
            // movement cost (a real kernel would use merge-path
            // partitioning).
            let total = (hi - lo) as u64;
            let per_lane = total.div_ceil(BLOCK_DIM as u64);
            ctx.simt(|lane| {
                lane.charge(crate::cost::Op::GlobalLoad, per_lane);
                lane.charge(crate::cost::Op::Compare, per_lane);
                lane.charge(crate::cost::Op::GlobalStore, per_lane);
            });
            runs.clear();
            runs.resize(hi - lo, 0);
            buf.load_range(lo, &mut runs);
            merged.clear();
            merged.reserve(hi - lo);
            let (left, right) = runs.split_at(mid - lo);
            let (mut a, mut b) = (0, 0);
            while a < left.len() && b < right.len() {
                if left[a] <= right[b] {
                    merged.push(left[a]);
                    a += 1;
                } else {
                    merged.push(right[b]);
                    b += 1;
                }
            }
            merged.extend_from_slice(&left[a..]);
            merged.extend_from_slice(&right[b..]);
            buf.store_range(lo, &merged);
        });
        run *= 2;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DeviceSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn device() -> Device {
        Device::new(DeviceSpec::test_tiny())
    }

    #[test]
    fn sorts_across_many_chunk_boundaries() {
        let mut rng = StdRng::seed_from_u64(17);
        for n in [
            0usize,
            1,
            2,
            CHUNK - 1,
            CHUNK,
            CHUNK + 1,
            3 * CHUNK + 77,
            20_000,
        ] {
            let input: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            let buf = GpuU64::from_slice(&input);
            device_sort_u64(&device(), &buf);
            let mut expect = input;
            expect.sort_unstable();
            assert_eq!(buf.to_vec(), expect, "n = {n}");
        }
    }

    #[test]
    fn sorted_input_stays_sorted() {
        let input: Vec<u64> = (0..10_000).collect();
        let buf = GpuU64::from_slice(&input);
        device_sort_u64(&device(), &buf);
        assert_eq!(buf.to_vec(), input);
    }

    #[test]
    fn duplicates_survive() {
        let input = vec![5u64; 5_000];
        let buf = GpuU64::from_slice(&input);
        device_sort_u64(&device(), &buf);
        assert_eq!(buf.to_vec(), input);
    }

    #[test]
    fn cost_scales_superlinearly() {
        let device = device();
        let small = GpuU64::from_slice(&(0..2_000u64).rev().collect::<Vec<_>>());
        let large = GpuU64::from_slice(&(0..20_000u64).rev().collect::<Vec<_>>());
        let s = device_sort_u64(&device, &small);
        let l = device_sort_u64(&device, &large);
        assert!(l.warp_cycles > s.warp_cycles * 8);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::spec::DeviceSpec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn always_sorts(input in proptest::collection::vec(any::<u64>(), 0..6_000)) {
            let buf = GpuU64::from_slice(&input);
            device_sort_u64(&Device::new(DeviceSpec::test_tiny()), &buf);
            let mut expect = input;
            expect.sort_unstable();
            prop_assert_eq!(buf.to_vec(), expect);
        }
    }
}
