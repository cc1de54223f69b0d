//! Sorting primitives.
//!
//! Algorithm 1 step 4 assigns *one thread per seed* to sort that seed's
//! bucket of the `locs` array ([`lane_sort_bucket`] — buckets are short,
//! so insertion sort is what a real kernel would run;
//! [`sort_bucket_on_host`] is its host twin for computed charges). §III-C1 sorts a
//! block's out-block MEMs by `(r − q, q)` with a parallel in-block sort
//! ([`block_bitonic_sort_by_key`]).

use crate::cost::Op;
use crate::exec::{BlockCtx, Lane, LaneCharge};
use crate::memory::GpuU32;

/// Insertion-sort the global-memory range `[start, end)` of `buf`,
/// performed by a single lane with every access charged.
pub fn lane_sort_bucket(lane: &mut Lane<'_>, buf: &GpuU32, start: usize, end: usize) {
    for i in (start + 1)..end {
        let value = lane.ld(buf, i);
        let mut j = i;
        while j > start {
            let prev = lane.ld(buf, j - 1);
            lane.compare(1);
            if prev <= value {
                break;
            }
            lane.st(buf, j, prev);
            j -= 1;
        }
        lane.st(buf, j, value);
    }
}

/// The host twin of [`lane_sort_bucket`]: insertion-sorts `bucket`
/// exactly as the lane would, and adds to `lane` the loads, compares and
/// stores the lane would have charged sorting it in place.
pub fn sort_bucket_on_host(bucket: &mut [u32], lane: LaneCharge) -> LaneCharge {
    let (mut loads, mut compares, mut stores) = (0u64, 0u64, 0u64);
    for i in 1..bucket.len() {
        let value = bucket[i];
        loads += 1;
        let mut j = i;
        while j > 0 {
            let prev = bucket[j - 1];
            loads += 1;
            compares += 1;
            if prev <= value {
                break;
            }
            bucket[j] = prev;
            stores += 1;
            j -= 1;
        }
        bucket[j] = value;
        stores += 1;
    }
    lane.with(Op::GlobalLoad, loads)
        .with(Op::Compare, compares)
        .with(Op::GlobalStore, stores)
}

/// In-place ascending bitonic sort of a shared-memory array by `key`,
/// executed block-wide with one SIMT region per compare-exchange step.
///
/// Internally the array is padded to a power of two with `pad`, whose
/// key must be `u64::MAX` so that it sorts last; `data`'s length is
/// unchanged on return. Lanes are strided over the compare-exchange
/// pairs, so arrays larger than `block_dim` are handled (each lane does
/// several pairs per step, as real kernels do). The charges depend only
/// on the keys.
pub fn block_bitonic_sort_by_key<T: Copy>(
    ctx: &mut BlockCtx<'_>,
    data: &mut Vec<T>,
    pad: T,
    key: impl Fn(&T) -> u64,
) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let padded = n.next_power_of_two();
    data.resize(padded, pad);

    let lanes = ctx.block_dim.min(padded / 2).max(1);
    let mut k = 2;
    while k <= padded {
        let mut j = k / 2;
        while j >= 1 {
            ctx.simt_range(0..lanes, |lane| {
                // Charges accumulate into locals and post once per lane
                // (the warp model consumes per-lane totals).
                let (mut shared, mut compares, mut alu) = (0u64, 0u64, 0u64);
                let mut i = lane.tid;
                while i < padded {
                    let partner = i ^ j;
                    if partner > i {
                        shared += 2;
                        compares += 1;
                        let ascending = (i & k) == 0;
                        if (key(&data[i]) > key(&data[partner])) == ascending {
                            data.swap(i, partner);
                            shared += 2;
                        }
                    }
                    alu += 2;
                    i += lanes;
                }
                lane.shared(shared);
                lane.compare(compares);
                lane.charge(Op::Alu, alu);
            });
            j /= 2;
        }
        k *= 2;
    }
    data.truncate(n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Device, LaunchConfig};
    use crate::memory::GpuU64;
    use crate::spec::DeviceSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn device() -> Device {
        Device::new(DeviceSpec::test_tiny())
    }

    #[test]
    fn lane_sort_sorts_bucket_only() {
        let device = device();
        let buf = GpuU32::from_slice(&[9, 5, 3, 8, 1, 7, 0]);
        device.launch(LaunchConfig::new(1, 1), "test", |ctx| {
            ctx.simt(|lane| lane_sort_bucket(lane, &buf, 1, 6));
        });
        // Only [1, 6) sorted; ends untouched.
        assert_eq!(buf.to_vec(), vec![9, 1, 3, 5, 7, 8, 0]);
    }

    #[test]
    fn lane_sort_handles_trivial_buckets() {
        let device = device();
        let buf = GpuU32::from_slice(&[2, 1]);
        device.launch(LaunchConfig::new(1, 1), "test", |ctx| {
            ctx.simt(|lane| {
                lane_sort_bucket(lane, &buf, 0, 0);
                lane_sort_bucket(lane, &buf, 0, 1);
            });
        });
        assert_eq!(buf.to_vec(), vec![2, 1]);
    }

    #[test]
    fn lane_sort_random_against_std() {
        let device = device();
        let mut rng = StdRng::seed_from_u64(4);
        let input: Vec<u32> = (0..200).map(|_| rng.gen()).collect();
        let buf = GpuU32::from_slice(&input);
        device.launch(LaunchConfig::new(1, 1), "test", |ctx| {
            ctx.simt(|lane| lane_sort_bucket(lane, &buf, 0, 200));
        });
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(buf.to_vec(), expect);
    }

    #[test]
    fn host_twin_sorts_and_charges_like_the_lane() {
        let device = device();
        let mut rng = StdRng::seed_from_u64(5);
        for len in [0usize, 1, 2, 3, 17, 64] {
            for sorted in [false, true] {
                let mut input: Vec<u32> = (0..len).map(|_| rng.gen_range(0..20)).collect();
                if sorted {
                    input.sort_unstable();
                }
                let buf = GpuU32::from_slice(&input);
                let lanes = device.launch(LaunchConfig::new(1, 1), "test", |ctx| {
                    ctx.simt(|lane| lane_sort_bucket(lane, &buf, 0, len));
                });
                let mut host = input.clone();
                let computed = device.launch(LaunchConfig::new(1, 1), "test", |ctx| {
                    ctx.simt_computed(0..1, |_| {
                        sort_bucket_on_host(&mut host, LaneCharge::fresh())
                    });
                });
                assert_eq!(host, buf.to_vec(), "len {len}");
                let without_wall = |s: crate::LaunchStats| crate::LaunchStats {
                    wall_time: Default::default(),
                    ..s
                };
                assert_eq!(without_wall(computed), without_wall(lanes), "len {len}");
            }
        }
    }

    #[test]
    fn bitonic_sorts_various_sizes() {
        let device = device();
        let mut rng = StdRng::seed_from_u64(11);
        for n in [0usize, 1, 2, 3, 7, 8, 9, 63, 64, 65, 500, 1024, 1500] {
            let input: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            let out = GpuU64::new(n);
            device.launch(LaunchConfig::new(1, 128), "test", |ctx| {
                let mut shared = input.clone();
                block_bitonic_sort_by_key(ctx, &mut shared, u64::MAX, |&v| v);
                assert_eq!(shared.len(), n, "length preserved");
                let stride = ctx.block_dim.min(n.max(1));
                ctx.simt_range(0..stride, |lane| {
                    let mut i = lane.tid;
                    while i < n {
                        lane.st(&out, i, shared[i]);
                        i += stride;
                    }
                });
            });
            let mut expect = input;
            expect.sort_unstable();
            assert_eq!(out.to_vec(), expect, "n = {n}");
        }
    }

    #[test]
    fn bitonic_handles_duplicates_and_max_values() {
        let device = device();
        let input = vec![u64::MAX, 3, 3, u64::MAX, 0, 3];
        device.launch(LaunchConfig::new(1, 32), "test", |ctx| {
            let mut shared = input.clone();
            block_bitonic_sort_by_key(ctx, &mut shared, u64::MAX, |&v| v);
            assert_eq!(shared, vec![0, 3, 3, 3, u64::MAX, u64::MAX]);
        });
    }

    #[test]
    fn bitonic_charges_nlogsquared_cost() {
        let device = device();
        let small = device.launch(LaunchConfig::new(1, 64), "test", |ctx| {
            let mut v: Vec<u64> = (0..64u64).rev().collect();
            block_bitonic_sort_by_key(ctx, &mut v, u64::MAX, |&v| v);
        });
        let large = device.launch(LaunchConfig::new(1, 64), "test", |ctx| {
            let mut v: Vec<u64> = (0..1024u64).rev().collect();
            block_bitonic_sort_by_key(ctx, &mut v, u64::MAX, |&v| v);
        });
        assert!(large.lane_cycles > small.lane_cycles * 10);
    }
}
