//! A tour of the SIMT simulator that GPUMEM runs on: launch geometry,
//! atomics, block barriers, divergence accounting, and the difference
//! between balanced and imbalanced warps — the machinery behind the
//! paper's Figure 7.
//!
//! ```text
//! cargo run --release --example gpu_sim_demo
//! ```

use gpumem::sim::primitives::device_exclusive_scan;
use gpumem::sim::{Device, DeviceSpec, GpuU32, LaunchConfig, Op};

fn main() {
    let device = Device::new(DeviceSpec::tesla_k20c());
    let spec = device.spec();
    println!(
        "device: {} — {} SMs × {} cores @ {:.2} GHz, warp size {}",
        spec.name,
        spec.sm_count,
        spec.cores_per_sm,
        spec.clock_hz / 1e9,
        spec.warp_size
    );

    // 1. A histogram kernel with atomics (the core trick of the paper's
    //    Algorithm 1 index construction).
    let data: Vec<u32> = (0..1_000_000u32)
        .map(|i| i.wrapping_mul(2654435761) % 256)
        .collect();
    let histogram = GpuU32::new(256);
    let n = data.len();
    let cfg = LaunchConfig::new(n.div_ceil(256 * 64), 256);
    let stats = device.launch(cfg, "histogram", |ctx| {
        let base = ctx.block_id * 256 * 64;
        ctx.simt(|lane| {
            let lo = base + lane.tid * 64;
            for i in lo..(lo + 64).min(n) {
                lane.charge(Op::GlobalLoad, 1);
                lane.atomic_add(&histogram, data[i] as usize, 1);
            }
        });
    });
    let total: u32 = histogram.to_vec().iter().sum();
    assert_eq!(total as usize, n);
    println!(
        "histogram over {n} elements: {} blocks, {} atomics, modeled {:.3} ms",
        stats.blocks,
        stats.atomic_ops,
        stats.modeled_secs() * 1e3
    );

    // 2. Device-wide prefix sum (Algorithm 1 step 2).
    let counts = GpuU32::from_slice(&vec![3u32; 100_000]);
    let scan_stats = device_exclusive_scan(&device, &counts);
    assert_eq!(counts.load(99_999), 3 * 99_999);
    println!(
        "exclusive scan of 100k counters: modeled {:.3} ms across {} launches",
        scan_stats.modeled_secs() * 1e3,
        scan_stats.launches
    );

    // 3. Warp imbalance: one heavy lane per warp vs spread work — the
    //    effect the paper's load-balancing heuristic removes.
    let imbalanced = device.launch(LaunchConfig::new(13, 256), "imbalanced", |ctx| {
        ctx.simt(|lane| {
            let work = if lane.tid % 32 == 0 { 32_000 } else { 0 };
            lane.charge(Op::Compare, work);
        });
    });
    let balanced = device.launch(LaunchConfig::new(13, 256), "balanced", |ctx| {
        ctx.simt(|lane| lane.charge(Op::Compare, 1_000));
    });
    println!(
        "same total work: imbalanced warps {:.3} ms (efficiency {:.2}) vs balanced {:.3} ms (efficiency {:.2})",
        imbalanced.modeled_secs() * 1e3,
        imbalanced.warp_efficiency(32),
        balanced.modeled_secs() * 1e3,
        balanced.warp_efficiency(32)
    );
    assert!(imbalanced.modeled_secs() > balanced.modeled_secs() * 5.0);

    // 4. Divergence: lanes disagreeing on a branch serialize the warp.
    let divergent = device.launch(LaunchConfig::new(1, 256), "divergent", |ctx| {
        ctx.simt(|lane| {
            if lane.branch(lane.tid % 2 == 0) {
                lane.charge(Op::Alu, 100);
            } else {
                lane.charge(Op::Alu, 200);
            }
        });
    });
    println!(
        "divergent kernel: {} divergence events across {} warps",
        divergent.divergence_events, divergent.warps
    );
}
