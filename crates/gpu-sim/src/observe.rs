//! Launch observation: the simulator's tracing hook.
//!
//! A [`LaunchObserver`] installed on a [`Device`](crate::exec::Device)
//! via [`Device::set_observer`](crate::exec::Device::set_observer) is
//! called synchronously after every kernel launch with a
//! [`LaunchRecord`]: the launch name, its aggregate
//! [`LaunchStats`], and — when the kernel
//! marked phases with [`BlockCtx::phase`](crate::exec::BlockCtx::phase)
//! — a per-phase breakdown of the in-kernel counters.
//!
//! **Zero-cost when absent.** With no observer installed, phase
//! markers are no-ops, no per-phase bookkeeping runs, and the launch
//! path allocates nothing extra; the modeled statistics are identical
//! with and without an observer (phase accounting is pure attribution
//! — it never charges cycles), which the snapshot tests pin.

use crate::stats::LaunchStats;

/// In-kernel counters attributed to one named phase of a launch.
///
/// Phases partition the *SIMT regions* of a launch: every region
/// executed after a [`BlockCtx::phase`](crate::exec::BlockCtx::phase)
/// marker is attributed to that phase until the next marker. Regions
/// run before the first marker are unattributed (they appear in the
/// launch totals but no phase), so phase counters sum to *at most* the
/// launch totals.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct PhaseStats {
    /// Phase name (the string passed to `BlockCtx::phase`).
    pub name: String,
    /// Warps executed in this phase's regions.
    pub warps: u64,
    /// Warp cycle cost of this phase's regions.
    pub warp_cycles: u64,
    /// Lane cycle cost of this phase's regions.
    pub lane_cycles: u64,
    /// Divergence events in this phase's regions.
    pub divergence_events: u64,
    /// Atomic operations in this phase's regions.
    pub atomic_ops: u64,
    /// Global-memory element operations in this phase's regions.
    pub global_mem_ops: u64,
    /// Base comparisons in this phase's regions.
    pub comparisons: u64,
}

impl PhaseStats {
    /// Merge another accumulation of the same phase (e.g. from another
    /// block of the same launch, or another launch) into this one.
    pub fn merge(&mut self, rhs: &PhaseStats) {
        self.warps += rhs.warps;
        self.warp_cycles += rhs.warp_cycles;
        self.lane_cycles += rhs.lane_cycles;
        self.divergence_events += rhs.divergence_events;
        self.atomic_ops += rhs.atomic_ops;
        self.global_mem_ops += rhs.global_mem_ops;
        self.comparisons += rhs.comparisons;
    }

    /// Add one block's counter deltas, given in the order `warps,
    /// warp_cycles, lane_cycles, divergence_events, atomic_ops,
    /// global_mem_ops, comparisons`.
    pub(crate) fn add(&mut self, d: &[u64; 7]) {
        self.warps += d[0];
        self.warp_cycles += d[1];
        self.lane_cycles += d[2];
        self.divergence_events += d[3];
        self.atomic_ops += d[4];
        self.global_mem_ops += d[5];
        self.comparisons += d[6];
    }

    /// Warp occupancy efficiency of this phase; same convention as
    /// [`LaunchStats::warp_efficiency`] (no work ⇒ `1.0`).
    pub fn warp_efficiency(&self, warp_size: usize) -> f64 {
        if self.warp_cycles == 0 {
            return 1.0;
        }
        self.lane_cycles as f64 / (self.warp_cycles as f64 * warp_size as f64)
    }
}

/// Fold `more` into `rows` by phase name: a phase `rows` already holds
/// absorbs the other's counters ([`PhaseStats::merge`]), and a new one
/// joins at the end, so rows keep the order their phases were first
/// seen in. A launch folds its blocks' phases this way, and a trace its
/// launches'.
pub fn merge_phases<'a>(
    rows: &mut Vec<PhaseStats>,
    more: impl IntoIterator<Item = &'a PhaseStats>,
) {
    for p in more {
        match rows.iter_mut().find(|q| q.name == p.name) {
            Some(q) => q.merge(p),
            None => rows.push(p.clone()),
        }
    }
}

/// Everything an observer learns about one completed launch. Borrowed:
/// valid only for the duration of the callback.
#[derive(Clone, Copy, Debug)]
pub struct LaunchRecord<'a> {
    /// The launch name (as passed to `Device::launch`).
    pub name: &'a str,
    /// Aggregate statistics of the launch.
    pub stats: &'a LaunchStats,
    /// Per-phase breakdown, in first-marked order; empty when the
    /// kernel marked no phases.
    pub phases: &'a [PhaseStats],
}

/// A hook called synchronously after every launch on a device.
///
/// Implementations must be cheap and reentrancy-free: the callback
/// runs on the launching thread, after cost aggregation, before
/// [`Device::launch`](crate::Device::launch) returns. Launching from inside the callback on the
/// same device is allowed but will recurse into the observer.
pub trait LaunchObserver: Send + Sync {
    /// Observe one completed launch.
    fn on_launch(&self, record: LaunchRecord<'_>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_every_counter() {
        let mut a = PhaseStats {
            name: "expand".to_string(),
            warps: 1,
            warp_cycles: 2,
            lane_cycles: 3,
            divergence_events: 4,
            atomic_ops: 5,
            global_mem_ops: 6,
            comparisons: 7,
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(
            a,
            PhaseStats {
                name: "expand".to_string(),
                warps: 2,
                warp_cycles: 4,
                lane_cycles: 6,
                divergence_events: 8,
                atomic_ops: 10,
                global_mem_ops: 12,
                comparisons: 14,
            }
        );
    }

    #[test]
    fn phase_efficiency_follows_launch_convention() {
        assert_eq!(PhaseStats::default().warp_efficiency(32), 1.0);
        let half = PhaseStats {
            warp_cycles: 10,
            lane_cycles: 160,
            ..PhaseStats::default()
        };
        assert!((half.warp_efficiency(32) - 0.5).abs() < 1e-12);
    }
}
