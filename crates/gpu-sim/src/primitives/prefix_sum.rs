//! Parallel prefix sums.
//!
//! Two granularities, matching the two uses in the paper:
//!
//! * **Block scans** over shared-memory arrays of at most `block_dim`
//!   elements — Algorithm 2 runs `GPUPrefixSum` over the `load` and
//!   `task` arrays (size `τ`). Implemented as a Hillis–Steele scan with
//!   one SIMT region per doubling step, so the modeled cost is
//!   `O(n log n)` lane-ops across `log n` barriers, like the classic
//!   shared-memory scan.
//! * **Device-wide scan** over a global buffer — Algorithm 1 step 2
//!   prefix-sums the `ptrs` array (up to `4^ℓs` entries). Implemented as
//!   the standard three-phase chunked scan: per-block local scan, scan
//!   of the per-block totals (recursively), then per-block offset add.
//!   The per-block scan of the chunk's thread sums branches only on
//!   thread id, so it runs on the first chunk of a call and is replayed
//!   on the others (DESIGN.md §8, "Replaying known charges").
//!
//!   The chunk pass (`scan.local`) and the offset pass
//!   (`scan.add_offsets`) have two bodies ([`Body`]). The interpreted
//!   one runs every lane through a [`Lane`](crate::Lane), so a live
//!   sanitizer session checks every access; it is also the reference.
//!   The computed one, which runs whenever no session is live, scans
//!   and offsets each chunk in a host loop over the same buffers and
//!   charges each lane what it would have charged
//!   ([`BlockCtx::simt_computed`]). A full chunk's charge depends on
//!   the launch geometry alone, so it is recorded on the first full
//!   chunk of a launch and replayed on the others (DESIGN.md §8,
//!   "Computing charges").

use crate::cost::Op;
use crate::exec::{BlockCtx, Body, Device, LaneCharge, LaunchConfig, RegionCharge};
use crate::memory::GpuU32;
use crate::primitives::BLOCK_DIM;
use crate::stats::LaunchStats;

/// In-place inclusive scan of a shared-memory array within a block.
///
/// `data.len()` must not exceed the block's thread count, mirroring the
/// one-element-per-thread shared-memory scan. `src` is the caller's
/// double buffer: Hillis–Steele needs the pre-step values, which a real
/// kernel double buffers and the simulator snapshots into `src` (cost
/// charged per lane below — the snapshot itself is host bookkeeping).
pub fn block_inclusive_scan(ctx: &mut BlockCtx<'_>, data: &mut [u32], src: &mut Vec<u32>) {
    let n = data.len();
    assert!(
        n <= ctx.block_dim,
        "block scan over {n} elements needs at least {n} threads (block_dim = {})",
        ctx.block_dim
    );
    src.resize(n, 0);
    let mut dist = 1;
    while dist < n {
        src.copy_from_slice(data);
        ctx.simt_range(0..n, |lane| {
            lane.charge(Op::Alu, 1);
            if lane.branch(lane.tid >= dist) {
                lane.shared(2);
                data[lane.tid] = src[lane.tid].wrapping_add(src[lane.tid - dist]);
            }
        });
        dist *= 2;
    }
}

/// In-place exclusive scan of a shared-memory array within a block.
pub fn block_exclusive_scan(ctx: &mut BlockCtx<'_>, data: &mut [u32]) {
    let n = data.len();
    if n == 0 {
        return;
    }
    let mut src = Vec::with_capacity(n);
    block_inclusive_scan(ctx, data, &mut src);
    // Shift right by one (one more SIMT region = one more barrier).
    src.copy_from_slice(data);
    ctx.simt_range(0..n, |lane| {
        lane.shared(2);
        data[lane.tid] = if lane.branch(lane.tid == 0) {
            0
        } else {
            src[lane.tid - 1]
        };
    });
}

/// Exclusive scan of `vals` on the host, wrapping like the device;
/// returns their total.
fn host_exclusive_scan(vals: &mut [u32]) -> u32 {
    let mut acc = 0u32;
    for v in vals {
        let sum = *v;
        *v = acc;
        acc = acc.wrapping_add(sum);
    }
    acc
}

/// Elements scanned by one block of the device-wide scan.
const SCAN_CHUNK: usize = 4096;

/// Elements each of a scan block's threads loads and stores.
const PER_THREAD: usize = SCAN_CHUNK.div_ceil(BLOCK_DIM);

/// Element counts of the chunk-sum buffers [`device_exclusive_scan`]
/// takes from the device's pool to scan `n` elements, one per level of
/// its recursion, outermost first. All are held at once: what a
/// device-memory estimate must reserve for the scan.
pub fn device_scan_sums(mut n: usize) -> Vec<usize> {
    let mut lens = Vec::new();
    while n > 0 {
        let chunks = n.div_ceil(SCAN_CHUNK);
        lens.push(chunks);
        if chunks == 1 {
            break;
        }
        n = chunks;
    }
    lens
}

/// In-place device-wide **exclusive** scan of a global buffer:
/// `buf[i] ← Σ_{j<i} buf[j]`. Returns the accumulated launch stats of
/// all passes. This is `GPUPrefixSum(ptrs)` from Algorithm 1, run as
/// [`Body::current`] says.
pub fn device_exclusive_scan(device: &Device, buf: &GpuU32) -> LaunchStats {
    device_exclusive_scan_as(device, buf, Body::current())
}

/// [`device_exclusive_scan`] with its `scan.local` and
/// `scan.add_offsets` passes run as `body`. Both bodies leave the same
/// buffer and charge the same statistics: the computed one scans each
/// chunk in a host loop and charges every lane what it would have
/// charged, replaying a full chunk's charge from the first full chunk
/// of the launch.
pub fn device_exclusive_scan_as(device: &Device, buf: &GpuU32, body: Body) -> LaunchStats {
    let n = buf.len();
    if n == 0 {
        return LaunchStats::default();
    }
    let n_chunks = n.div_ceil(SCAN_CHUNK);
    let sums = device.alloc::<u32>(n_chunks, "scan.sums");
    // Chunk `b` starts at `b · SCAN_CHUNK` and holds `m` elements, of
    // which thread `tid` loads and stores `lane_len(tid, m)`.
    let chunk_len = |b: usize| (n - b * SCAN_CHUNK).min(SCAN_CHUNK);
    let lane_len = |tid: usize, m: usize| m.saturating_sub(tid * PER_THREAD).min(PER_THREAD) as u64;

    // Per-block shared-memory scratch, hoisted out of the launch: blocks
    // execute one after another (see `exec` docs), so one buffer serves
    // every block without a per-block allocation. Each block fully
    // overwrites `local` before reading it. Next to it, the recorded
    // charge of the block scan over `local`, the computed body's chunk
    // of host values and the charge of a full chunk.
    let mut local = vec![0u32; BLOCK_DIM];
    let mut scan_charge = None::<RegionCharge>;
    let mut chunk = Vec::new();
    let mut full_chunk = None::<RegionCharge>;

    // Pass 1: each block exclusively scans its chunk and records the
    // chunk total.
    let mut stats = device.launch(
        LaunchConfig::new(n_chunks, BLOCK_DIM),
        "scan.local",
        |ctx| {
            let chunk_start = ctx.block_id * SCAN_CHUNK;
            let m = chunk_len(ctx.block_id);
            if body == Body::Computed {
                let mut charge = |ctx: &mut BlockCtx<'_>| {
                    ctx.simt_computed(0..BLOCK_DIM, |tid| {
                        LaneCharge::fresh()
                            .with(Op::GlobalLoad, lane_len(tid, m))
                            .with(Op::Shared, 1)
                    });
                    let _ = ctx.replay_or_record(&mut scan_charge, |ctx| {
                        block_exclusive_scan(ctx, &mut local)
                    });
                    let last_lane = (m - 1) / PER_THREAD;
                    ctx.simt_computed(0..BLOCK_DIM, |tid| {
                        let k = lane_len(tid, m);
                        let lane = LaneCharge::fresh()
                            .with(Op::Shared, 1)
                            .with(Op::GlobalLoad, k)
                            .with(Op::GlobalStore, k)
                            .branch(tid == last_lane);
                        lane.with(Op::GlobalStore, u64::from(tid == last_lane))
                    });
                };
                if m == SCAN_CHUNK {
                    let _ = ctx.replay_or_record(&mut full_chunk, charge);
                } else {
                    charge(ctx);
                }
                chunk.resize(m, 0);
                buf.load_range(chunk_start, &mut chunk);
                let total = host_exclusive_scan(&mut chunk);
                buf.store_range(chunk_start, &chunk);
                sums.store(ctx.block_id, total);
                return;
            }
            let chunk_end = chunk_start + m;
            ctx.simt(|lane| {
                let lo = chunk_start + lane.tid * PER_THREAD;
                let hi = (lo + PER_THREAD).min(chunk_end);
                let mut vals = [0u32; PER_THREAD];
                lane.ld_slice(buf, lo, &mut vals[..hi.saturating_sub(lo)]);
                let sum = vals.iter().fold(0u32, |a, &v| a.wrapping_add(v));
                lane.shared(1);
                local[lane.tid] = sum;
            });
            // The block scan touches only shared memory and branches
            // only on thread id: every chunk replays the first one's
            // charge and scans on the host.
            if !ctx.replay_or_record(&mut scan_charge, |ctx| {
                block_exclusive_scan(ctx, &mut local)
            }) {
                host_exclusive_scan(&mut local);
            }
            let last_lane = (m - 1) / PER_THREAD;
            let block_id = ctx.block_id;
            ctx.simt(|lane| {
                let lo = chunk_start + lane.tid * PER_THREAD;
                let hi = (lo + PER_THREAD).min(chunk_end);
                let k = hi.saturating_sub(lo);
                lane.shared(1);
                let mut acc = local[lane.tid];
                let mut vals = [0u32; PER_THREAD];
                lane.ld_slice(buf, lo, &mut vals[..k]);
                let mut outs = [0u32; PER_THREAD];
                for j in 0..k {
                    outs[j] = acc;
                    acc = acc.wrapping_add(vals[j]);
                }
                lane.st_slice(buf, lo, &outs[..k]);
                if lane.branch(lane.tid == last_lane) {
                    lane.st(&sums, block_id, acc);
                }
            });
        },
    );

    // Pass 2: scan the chunk totals (recursive; depth is logarithmic).
    if n_chunks > 1 {
        stats += device_exclusive_scan_as(device, &sums, body);

        // Pass 3: add each chunk's offset to its elements.
        let mut full_chunk = None::<RegionCharge>;
        stats += device.launch(
            LaunchConfig::new(n_chunks, BLOCK_DIM),
            "scan.add_offsets",
            |ctx| {
                let chunk_start = ctx.block_id * SCAN_CHUNK;
                let m = chunk_len(ctx.block_id);
                let block_id = ctx.block_id;
                if body == Body::Computed {
                    let charge = |ctx: &mut BlockCtx<'_>| {
                        ctx.simt_computed(0..BLOCK_DIM, |tid| {
                            let k = lane_len(tid, m);
                            LaneCharge::fresh()
                                .with(Op::GlobalLoad, 1 + k)
                                .with(Op::GlobalStore, k)
                        });
                    };
                    if m == SCAN_CHUNK {
                        let _ = ctx.replay_or_record(&mut full_chunk, charge);
                    } else {
                        charge(ctx);
                    }
                    let offset = sums.load(block_id);
                    chunk.resize(m, 0);
                    buf.load_range(chunk_start, &mut chunk);
                    for v in &mut chunk {
                        *v = v.wrapping_add(offset);
                    }
                    buf.store_range(chunk_start, &chunk);
                    return;
                }
                let chunk_end = chunk_start + m;
                ctx.simt(|lane| {
                    let offset = lane.ld(&sums, block_id);
                    let lo = chunk_start + lane.tid * PER_THREAD;
                    let hi = (lo + PER_THREAD).min(chunk_end);
                    let k = hi.saturating_sub(lo);
                    let mut vals = [0u32; PER_THREAD];
                    lane.ld_slice(buf, lo, &mut vals[..k]);
                    for v in &mut vals[..k] {
                        *v = v.wrapping_add(offset);
                    }
                    lane.st_slice(buf, lo, &vals[..k]);
                });
            },
        );
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DeviceSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn host_exclusive(data: &[u32]) -> Vec<u32> {
        let mut out = Vec::with_capacity(data.len());
        let mut acc = 0u32;
        for &v in data {
            out.push(acc);
            acc = acc.wrapping_add(v);
        }
        out
    }

    fn device() -> Device {
        Device::new(DeviceSpec::test_tiny())
    }

    #[test]
    fn block_inclusive_matches_host() {
        let device = device();
        for n in [1usize, 2, 3, 31, 32, 33, 100, 256] {
            let input: Vec<u32> = (0..n as u32).map(|i| i * 3 + 1).collect();
            let expect: Vec<u32> = input
                .iter()
                .scan(0u32, |acc, &v| {
                    *acc = acc.wrapping_add(v);
                    Some(*acc)
                })
                .collect();
            let out = GpuU32::new(n);
            device.launch(LaunchConfig::new(1, 256), "test", |ctx| {
                let mut shared = input.clone();
                block_inclusive_scan(ctx, &mut shared, &mut Vec::new());
                ctx.simt_range(0..n, |lane| {
                    lane.st(&out, lane.tid, shared[lane.tid]);
                });
            });
            assert_eq!(out.to_vec(), expect, "n = {n}");
        }
    }

    #[test]
    fn block_exclusive_matches_host() {
        let device = device();
        let input: Vec<u32> = vec![5, 0, 2, 9, 1, 1, 7];
        let out = GpuU32::new(input.len());
        device.launch(LaunchConfig::new(1, 64), "test", |ctx| {
            let mut shared = input.clone();
            block_exclusive_scan(ctx, &mut shared);
            ctx.simt_range(0..shared.len(), |lane| {
                lane.st(&out, lane.tid, shared[lane.tid]);
            });
        });
        assert_eq!(out.to_vec(), host_exclusive(&input));
    }

    #[test]
    #[should_panic(expected = "needs at least")]
    fn block_scan_larger_than_block_rejected() {
        let device = device();
        device.launch(LaunchConfig::new(1, 32), "test", |ctx| {
            let mut shared = vec![0u32; 64];
            block_inclusive_scan(ctx, &mut shared, &mut Vec::new());
        });
    }

    #[test]
    fn device_scan_small() {
        let device = device();
        let input = vec![1u32, 2, 3, 4, 5];
        let buf = GpuU32::from_slice(&input);
        device_exclusive_scan(&device, &buf);
        assert_eq!(buf.to_vec(), vec![0, 1, 3, 6, 10]);
    }

    #[test]
    fn device_scan_multi_chunk_random() {
        let device = device();
        let mut rng = StdRng::seed_from_u64(99);
        for n in [
            SCAN_CHUNK - 1,
            SCAN_CHUNK,
            SCAN_CHUNK + 1,
            3 * SCAN_CHUNK + 17,
            100_000,
        ] {
            let input: Vec<u32> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
            let buf = GpuU32::from_slice(&input);
            let stats = device_exclusive_scan(&device, &buf);
            assert_eq!(buf.to_vec(), host_exclusive(&input), "n = {n}");
            assert!(stats.launches >= 1);
            assert!(stats.global_mem_ops > 0);
        }
    }

    #[test]
    fn device_scan_sums_are_what_the_scan_takes_from_the_pool() {
        for n in [0, 1, 5, SCAN_CHUNK, SCAN_CHUNK + 1, 300 * SCAN_CHUNK] {
            let device = device();
            let buf = GpuU32::new(n);
            device_exclusive_scan(&device, &buf);
            let mut taken: Vec<usize> = device
                .pool_classes()
                .iter()
                .flat_map(|c| std::iter::repeat_n(c.len, c.buffers as usize))
                .collect();
            taken.sort_unstable();
            let mut sums: Vec<usize> = device_scan_sums(n)
                .into_iter()
                .map(|len| len.next_power_of_two())
                .collect();
            sums.sort_unstable();
            assert_eq!(taken, sums, "n = {n}");
        }
    }

    #[test]
    fn device_scan_empty_and_singleton() {
        let device = device();
        let empty = GpuU32::new(0);
        let stats = device_exclusive_scan(&device, &empty);
        assert_eq!(stats, LaunchStats::default());
        let one = GpuU32::from_slice(&[42]);
        device_exclusive_scan(&device, &one);
        assert_eq!(one.to_vec(), vec![0]);
    }

    #[test]
    fn device_scan_cost_grows_with_n() {
        let device = device();
        let small = GpuU32::from_slice(&vec![1; 1_000]);
        let large = GpuU32::from_slice(&vec![1; 50_000]);
        let s = device_exclusive_scan(&device, &small);
        let l = device_exclusive_scan(&device, &large);
        assert!(l.warp_cycles > s.warp_cycles * 10);
    }
}
