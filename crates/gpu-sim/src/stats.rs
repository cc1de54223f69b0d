//! Launch statistics.

use std::ops::{Add, AddAssign};
use std::time::Duration;

/// Aggregate statistics for one kernel launch (or a sum of launches).
///
/// Every field except [`pool_peak_bytes`](LaunchStats::pool_peak_bytes)
/// and [`busiest_block_cycles`](LaunchStats::busiest_block_cycles) is a
/// counter and sums under `+`; those two are gauges and merge by `max`
/// (the peak of a union of launches is the largest peak, not the sum).
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize)]
pub struct LaunchStats {
    /// Number of kernel launches folded into this value.
    pub launches: u64,
    /// Blocks executed.
    pub blocks: u64,
    /// Warps executed (every SIMT region contributes its warp count).
    pub warps: u64,
    /// Sum over warps of the warp's cycle cost (max over lanes plus
    /// divergence serialization).
    pub warp_cycles: u64,
    /// Sum over *lanes* of lane cycles — the "useful" work. The ratio
    /// `warp_cycles * warp_size / lane_cycles` measures load imbalance.
    pub lane_cycles: u64,
    /// Modeled device cycles after scheduling blocks onto SMs.
    pub device_cycles: u64,
    /// Modeled device time (device_cycles / clock).
    pub modeled_time: Duration,
    /// Measured wall time of the simulated launch.
    pub wall_time: Duration,
    /// Warp-level divergence events (lanes of one warp disagreeing on a
    /// branch within one SIMT region).
    pub divergence_events: u64,
    /// Atomic operations performed.
    pub atomic_ops: u64,
    /// Global-memory element operations performed.
    pub global_mem_ops: u64,
    /// Base comparisons charged (the domain-level work measure).
    pub comparisons: u64,
    /// Warp cycles of the most heavily loaded block across the folded
    /// launches. **Gauge, not counter**: it merges by `max` under `+`.
    /// The ratio `warp_cycles / (blocks * busiest_block_cycles)` (see
    /// [`block_occupancy`](LaunchStats::block_occupancy)) measures how
    /// evenly work is spread across blocks — the straggler effect.
    pub busiest_block_cycles: u64,
    /// Fresh device-buffer allocations that missed the device's buffer
    /// pool since the previous launch (host-side bookkeeping; no cycle
    /// cost). Steady-state launches should report 0.
    pub pool_allocs: u64,
    /// Bytes of pooled device-buffer storage on the launching device at
    /// the end of the launch, counted at size-class capacity. The pool
    /// never returns storage to the heap, so this is both the current
    /// footprint and its high-water mark. **Gauge, not counter**: it
    /// merges by `max` under `+`, never sums.
    pub pool_peak_bytes: u64,
}

impl LaunchStats {
    /// Warp occupancy efficiency in `(0, 1]`: 1.0 means every lane of
    /// every warp was busy for the warp's whole duration.
    ///
    /// **Empty-launch convention:** when `warp_cycles == 0` (a
    /// zero-block grid, or statistics that never ran a SIMT region)
    /// there is no occupancy to be inefficient about, so the result is
    /// defined as `1.0` — not `NaN` and not `0.0`. Dashboards and the
    /// profile report rely on this: an idle stage reads as "perfectly
    /// efficient at doing nothing" rather than as an outlier.
    pub fn warp_efficiency(&self, warp_size: usize) -> f64 {
        if self.warp_cycles == 0 {
            return 1.0;
        }
        self.lane_cycles as f64 / (self.warp_cycles as f64 * warp_size as f64)
    }

    /// Divergence events per executed warp (`divergence_events /
    /// warps`), `0.0` when no warps ran. A warp contributes at most one
    /// event per SIMT region, so with one region per warp the rate is
    /// bounded by 1.0; kernels that run many regions per warp can
    /// exceed it.
    pub fn divergence_rate(&self) -> f64 {
        if self.warps == 0 {
            return 0.0;
        }
        self.divergence_events as f64 / self.warps as f64
    }

    /// Modeled device time in seconds.
    pub fn modeled_secs(&self) -> f64 {
        self.modeled_time.as_secs_f64()
    }

    /// Per-block load balance in `(0, 1]`: mean block warp-cycles over
    /// the busiest block's warp-cycles
    /// (`warp_cycles / (blocks * busiest_block_cycles)`).
    ///
    /// 1.0 means every block carried the same cycle load; low values
    /// mean a straggler block dominated the launch. Follows the
    /// [`warp_efficiency`](LaunchStats::warp_efficiency) empty
    /// convention: no blocks or no cycles ⇒ `1.0`.
    ///
    /// Note the gauge caveat: over a *sum* of launches
    /// `busiest_block_cycles` is the max across all of them, so the
    /// ratio is a conservative (pessimistic) bound rather than a
    /// per-launch mean.
    pub fn block_occupancy(&self) -> f64 {
        if self.blocks == 0 || self.busiest_block_cycles == 0 {
            return 1.0;
        }
        self.warp_cycles as f64 / (self.blocks as f64 * self.busiest_block_cycles as f64)
    }
}

impl std::iter::Sum for LaunchStats {
    /// Fold many per-launch (or per-worker) statistics into one
    /// aggregate.
    fn sum<I: Iterator<Item = LaunchStats>>(iter: I) -> LaunchStats {
        iter.fold(LaunchStats::default(), Add::add)
    }
}

impl Add for LaunchStats {
    type Output = LaunchStats;

    fn add(mut self, rhs: LaunchStats) -> LaunchStats {
        self += rhs;
        self
    }
}

impl AddAssign for LaunchStats {
    fn add_assign(&mut self, rhs: LaunchStats) {
        self.launches += rhs.launches;
        self.blocks += rhs.blocks;
        self.warps += rhs.warps;
        self.warp_cycles += rhs.warp_cycles;
        self.lane_cycles += rhs.lane_cycles;
        self.device_cycles += rhs.device_cycles;
        self.modeled_time += rhs.modeled_time;
        self.wall_time += rhs.wall_time;
        self.divergence_events += rhs.divergence_events;
        self.atomic_ops += rhs.atomic_ops;
        self.global_mem_ops += rhs.global_mem_ops;
        self.comparisons += rhs.comparisons;
        // Gauge: the busiest block of merged launches is the busier one.
        self.busiest_block_cycles = self.busiest_block_cycles.max(rhs.busiest_block_cycles);
        self.pool_allocs += rhs.pool_allocs;
        // Gauge: the peak of merged launches is the larger peak.
        self.pool_peak_bytes = self.pool_peak_bytes.max(rhs.pool_peak_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_accumulates_every_field() {
        let a = LaunchStats {
            launches: 1,
            blocks: 2,
            warps: 3,
            warp_cycles: 10,
            lane_cycles: 100,
            device_cycles: 5,
            modeled_time: Duration::from_millis(1),
            wall_time: Duration::from_millis(2),
            divergence_events: 4,
            atomic_ops: 6,
            global_mem_ops: 7,
            comparisons: 8,
            busiest_block_cycles: 7,
            pool_allocs: 9,
            pool_peak_bytes: 1024,
        };
        let sum = a.clone() + a.clone();
        assert_eq!(sum.launches, 2);
        assert_eq!(sum.blocks, 4);
        assert_eq!(sum.warp_cycles, 20);
        assert_eq!(sum.lane_cycles, 200);
        assert_eq!(sum.modeled_time, Duration::from_millis(2));
        assert_eq!(sum.comparisons, 16);
        assert_eq!(sum.busiest_block_cycles, 7, "gauge merges by max, not sum");
        assert_eq!(sum.pool_allocs, 18);
        assert_eq!(sum.pool_peak_bytes, 1024, "gauge merges by max, not sum");
    }

    #[test]
    fn pool_peak_bytes_merges_by_max() {
        let small = LaunchStats {
            pool_peak_bytes: 100,
            ..LaunchStats::default()
        };
        let big = LaunchStats {
            pool_peak_bytes: 700,
            ..LaunchStats::default()
        };
        assert_eq!((small.clone() + big.clone()).pool_peak_bytes, 700);
        assert_eq!((big + small).pool_peak_bytes, 700);
    }

    #[test]
    fn divergence_rate_is_events_per_warp_and_zero_when_idle() {
        let stats = LaunchStats {
            warps: 8,
            divergence_events: 2,
            ..LaunchStats::default()
        };
        assert!((stats.divergence_rate() - 0.25).abs() < 1e-12);
        assert_eq!(LaunchStats::default().divergence_rate(), 0.0);
    }

    #[test]
    fn busiest_block_cycles_merges_by_max() {
        let light = LaunchStats {
            busiest_block_cycles: 40,
            ..LaunchStats::default()
        };
        let heavy = LaunchStats {
            busiest_block_cycles: 90,
            ..LaunchStats::default()
        };
        assert_eq!((light.clone() + heavy.clone()).busiest_block_cycles, 90);
        assert_eq!((heavy + light).busiest_block_cycles, 90);
    }

    #[test]
    fn block_occupancy_measures_straggler_imbalance() {
        // Two blocks, 60 + 40 warp-cycles: mean 50 over busiest 60.
        let skewed = LaunchStats {
            blocks: 2,
            warp_cycles: 100,
            busiest_block_cycles: 60,
            ..LaunchStats::default()
        };
        assert!((skewed.block_occupancy() - 100.0 / 120.0).abs() < 1e-12);
        // Perfectly balanced blocks score 1.0.
        let even = LaunchStats {
            blocks: 4,
            warp_cycles: 200,
            busiest_block_cycles: 50,
            ..LaunchStats::default()
        };
        assert!((even.block_occupancy() - 1.0).abs() < 1e-12);
        // Empty statistics follow the warp_efficiency convention.
        assert_eq!(LaunchStats::default().block_occupancy(), 1.0);
    }

    #[test]
    fn warp_efficiency_bounds() {
        let perfect = LaunchStats {
            warp_cycles: 10,
            lane_cycles: 320,
            ..LaunchStats::default()
        };
        assert!((perfect.warp_efficiency(32) - 1.0).abs() < 1e-12);
        let idle = LaunchStats {
            warp_cycles: 10,
            lane_cycles: 32,
            ..LaunchStats::default()
        };
        assert!((idle.warp_efficiency(32) - 0.1).abs() < 1e-12);
        assert_eq!(LaunchStats::default().warp_efficiency(32), 1.0);
    }
}
