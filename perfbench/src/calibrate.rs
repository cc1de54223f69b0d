//! Host-speed calibration.
//!
//! A shared host's speed for this program switches, for seconds to
//! minutes at a time, by up to about 2×. Throughput-bound code slows
//! (other work on the same physical core), while a dependent multiply
//! chain or a pointer chase keeps its speed. A switch that outlasts a
//! run moves every statistic taken within it, so raw wall times of runs
//! made minutes apart disagree whatever the run length.
//!
//! So every timed operation is flanked by a fixed calibration kernel
//! whose code slows the way the simulator does: independent
//! multiply-xorshift chains and independent add-rotate chains. The
//! operation's wall time is reported scaled to a host on which that
//! kernel takes [`REFERENCE_S`]: `wall × REFERENCE_S / calibration`,
//! where `calibration` is the mean of the kernel times just before and
//! just after the operation. The kernel belongs to the benchmark, so a
//! change to the program cannot move it.
//!
//! Measured on a 2-vCPU Xeon guest over 8 minutes in which raw times
//! swung by 2×: per-30-s medians of raw `pair` run times and `serve`
//! request times varied by 0.26 and 0.28 of their mean (coefficient of
//! variation); their ratios to this kernel by 0.02 and 0.06. The
//! correction is not exact: some slow spells slow `serve` requests by
//! up to a fifth more than the kernel.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The calibration kernel's wall time on the reference host: its time
/// on a 2-vCPU Intel Xeon guest while the host's other tenants left
/// its cores alone. Scaled times read as that host's wall times.
pub const REFERENCE_S: f64 = 0.011;

/// Rounds of the eight independent multiply-xorshift chains.
const MUL_ROUNDS: u64 = 2_000_000;
/// Rounds of the sixteen independent add-rotate chains.
const ROTATE_ROUNDS: u64 = 1_000_000;

/// The calibration kernel: the same fixed work on every call.
fn kernel() -> u64 {
    let mut mul: [u64; 8] = std::array::from_fn(|j| j as u64 + 1);
    for round in 0..black_box(MUL_ROUNDS) {
        for (j, lane) in mul.iter_mut().enumerate() {
            *lane = lane
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(round ^ j as u64);
            *lane ^= *lane >> 29;
        }
    }
    let mut rot: [u64; 16] = std::array::from_fn(|j| j as u64 + 1);
    for round in 0..black_box(ROTATE_ROUNDS) {
        for (j, lane) in rot.iter_mut().enumerate() {
            *lane = lane.wrapping_add(round).rotate_left(7) ^ j as u64;
        }
    }
    mul.iter().chain(&rot).fold(0, |acc, lane| acc ^ lane)
}

/// Wall time of one call of the kernel, in seconds.
fn time_kernel() -> f64 {
    let start = Instant::now();
    black_box(kernel());
    start.elapsed().as_secs_f64()
}

/// Times operations between calibrations.
pub struct HostSpeed {
    /// The calibration that closed the previous operation, which opens
    /// the next one.
    last: f64,
    /// Every calibration time, in seconds.
    pub calibrations: Vec<f64>,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        let last = time_kernel();
        HostSpeed {
            last,
            calibrations: vec![last],
        }
    }

    /// Run `op` between two calibrations. Returns its output, its wall
    /// time, and the factor that scales a time measured during it to
    /// the reference host.
    pub fn measure<T>(&mut self, op: impl FnOnce() -> T) -> (T, Duration, f64) {
        let start = Instant::now();
        let out = op();
        let wall = start.elapsed();
        let after = time_kernel();
        self.calibrations.push(after);
        let factor = REFERENCE_S / ((self.last + after) / 2.0);
        self.last = after;
        (out, wall, factor)
    }
}

impl Default for HostSpeed {
    fn default() -> HostSpeed {
        HostSpeed::new()
    }
}
