//! Deliberately hazardous fixture kernels, one per detector class.
//!
//! Each fixture runs a tiny kernel twice over: a `hazardous` variant
//! seeded with exactly the bug the detector exists for, and a clean
//! twin that does the same work correctly. The tests assert the
//! hazardous variant is flagged — naming the buffer and both
//! conflicting sites — and that the clean twin produces a clean report.
//! All fixture buffers are named `fixture.*` so reports are easy to
//! filter. The race, bounds and uninitialized-read fixtures take the
//! buffer's element type, so both `u32` and `u64` buffers are checked.

use crate::exec::{Device, LaunchConfig};
use crate::memory::{Elem, GpuBuf, GpuU32};
use crate::sanitizer::{HazardClass, SanitizeReport, Session};
use crate::spec::DeviceSpec;

fn device() -> Device {
    Device::new(DeviceSpec::test_tiny())
}

/// Inter-block race: when hazardous, lane 0 of *every* block writes
/// element 0; the clean twin writes one slot per block.
pub fn run_inter_block_race<T: Elem + From<u32>>(hazardous: bool) -> SanitizeReport {
    let session = Session::start();
    let out = GpuBuf::<T>::named(4, "fixture.race");
    device().launch(LaunchConfig::new(4, 32), "race_fixture", |ctx| {
        let block = ctx.block_id;
        ctx.simt_range(0..1, |lane| {
            let slot = if hazardous { 0 } else { block };
            lane.st(&out, slot, T::from(block as u32));
        });
    });
    session.finish()
}

/// Missing barrier: when hazardous, each lane writes its slot and reads
/// its neighbor's *in the same SIMT region*; the clean twin puts a
/// barrier (region boundary) between the write and the read.
pub fn run_missing_barrier(hazardous: bool) -> SanitizeReport {
    let session = Session::start();
    let n = 32usize;
    let buf = GpuU32::named(n, "fixture.shared");
    let out = GpuU32::named(n, "fixture.shared_out");
    device().launch(LaunchConfig::new(1, n), "barrier_fixture", |ctx| {
        if hazardous {
            ctx.simt(|lane| {
                lane.st(&buf, lane.tid, lane.tid as u32);
                let v = lane.ld(&buf, (lane.tid + 1) % n);
                lane.st(&out, lane.tid, v);
            });
        } else {
            ctx.simt(|lane| {
                lane.st(&buf, lane.tid, lane.tid as u32);
            });
            // __syncthreads() between the regions.
            ctx.simt(|lane| {
                let v = lane.ld(&buf, (lane.tid + 1) % n);
                lane.st(&out, lane.tid, v);
            });
        }
    });
    session.finish()
}

/// Out of bounds: when hazardous the buffer is one element too small
/// for the block, so the last lane indexes past the end.
pub fn run_out_of_bounds<T: Elem + From<u32>>(hazardous: bool) -> SanitizeReport {
    let session = Session::start();
    let n = 32usize;
    let len = if hazardous { n - 1 } else { n };
    let buf = GpuBuf::<T>::named(len, "fixture.bounds");
    device().launch(LaunchConfig::new(1, n), "bounds_fixture", |ctx| {
        ctx.simt(|lane| {
            lane.st(&buf, lane.tid, T::from(7));
        });
    });
    session.finish()
}

/// Uninitialized read: the buffer comes from `alloc_uninit`
/// (`cudaMalloc`); when hazardous the kernel reads it before anything
/// wrote it, the clean twin zero-fills it in an earlier launch.
pub fn run_uninit_read<T: Elem>(hazardous: bool) -> SanitizeReport {
    let session = Session::start();
    let n = 32usize;
    let buf = GpuBuf::<T>::alloc_uninit(n, "fixture.uninit");
    let out = GpuBuf::<T>::named(n, "fixture.uninit_out");
    let dev = device();
    if !hazardous {
        dev.launch(LaunchConfig::new(1, n), "zero_fill", |ctx| {
            ctx.simt(|lane| {
                lane.st(&buf, lane.tid, T::default());
            });
        });
    }
    dev.launch(LaunchConfig::new(1, n), "uninit_fixture", |ctx| {
        ctx.simt(|lane| {
            let v = lane.ld(&buf, lane.tid);
            lane.st(&out, lane.tid, v);
        });
    });
    session.finish()
}

/// Overlapping reservation: Algorithm 1's fill idiom with a corrupted
/// cursor. The clean twin reserves all slots through one shared cursor;
/// the hazardous variant gives half the lanes a *second* zeroed cursor
/// on the same target, so both halves are handed the same slots.
pub fn run_overlapping_reservation(hazardous: bool) -> SanitizeReport {
    let session = Session::start();
    let slots = GpuU32::named(64, "fixture.slots");
    let cursor = GpuU32::named(1, "fixture.cursor");
    let rogue = GpuU32::named(1, "fixture.rogue_cursor");
    device().launch(LaunchConfig::new(1, 8), "reserve_fixture", |ctx| {
        ctx.simt(|lane| {
            let use_rogue = hazardous && lane.tid >= 4;
            let base = if use_rogue {
                lane.atomic_reserve(&rogue, 0, 2, &slots)
            } else {
                lane.atomic_reserve(&cursor, 0, 2, &slots)
            };
            let _ = base;
        });
    });
    session.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sanitizer::AccessKind;

    /// The hazards of `class` on a `fixture.*` buffer.
    fn of_class(report: &SanitizeReport, class: HazardClass) -> Vec<&crate::sanitizer::Hazard> {
        report
            .hazards
            .iter()
            .filter(|h| h.class == class && h.buffer.starts_with("fixture."))
            .collect()
    }

    #[test]
    fn inter_block_race_flagged_and_clean_twin_passes() {
        let report = run_inter_block_race::<u32>(true);
        let hits = of_class(&report, HazardClass::InterBlockRace);
        assert!(!hits.is_empty(), "race not flagged:\n{report}");
        let h = hits[0];
        assert_eq!(h.buffer, "fixture.race");
        assert!(h.elems.contains(&0));
        let second = h.second.as_ref().expect("races have two sites");
        assert_eq!(h.first.kernel, "race_fixture");
        assert_ne!(
            h.first.block, second.block,
            "sites must be in different blocks"
        );

        let clean = run_inter_block_race::<u32>(false);
        assert!(clean.is_clean(), "clean twin flagged:\n{clean}");
    }

    #[test]
    fn missing_barrier_flagged_and_clean_twin_passes() {
        let report = run_missing_barrier(true);
        let hits = of_class(&report, HazardClass::MissingBarrier);
        assert!(!hits.is_empty(), "missing barrier not flagged:\n{report}");
        let h = hits[0];
        assert_eq!(h.buffer, "fixture.shared");
        let second = h.second.as_ref().expect("two sites");
        assert_eq!(h.first.block, second.block, "same block");
        assert_eq!(h.first.region, second.region, "same SIMT region");
        assert!(
            h.first.lane != second.lane || h.first.warp != second.warp,
            "distinct lanes"
        );

        let clean = run_missing_barrier(false);
        assert!(clean.is_clean(), "clean twin flagged:\n{clean}");
    }

    #[test]
    fn out_of_bounds_flagged_and_clean_twin_passes() {
        let report = run_out_of_bounds::<u32>(true);
        let hits = of_class(&report, HazardClass::OutOfBounds);
        assert!(!hits.is_empty(), "OOB not flagged:\n{report}");
        let h = hits[0];
        assert_eq!(h.buffer, "fixture.bounds");
        assert_eq!(h.elems, 31..32, "the one out-of-range element");
        assert!(h.second.is_none());

        let clean = run_out_of_bounds::<u32>(false);
        assert!(clean.is_clean(), "clean twin flagged:\n{clean}");
    }

    #[test]
    fn uninit_read_flagged_and_clean_twin_passes() {
        let report = run_uninit_read::<u32>(true);
        let hits = of_class(&report, HazardClass::UninitRead);
        assert!(!hits.is_empty(), "uninit read not flagged:\n{report}");
        let h = hits[0];
        assert_eq!(h.buffer, "fixture.uninit");
        assert_eq!(h.elems, 0..32, "all 32 uninit reads coalesce");
        assert_eq!(h.first.kernel, "uninit_fixture");

        let clean = run_uninit_read::<u32>(false);
        assert!(clean.is_clean(), "clean twin flagged:\n{clean}");
    }

    #[test]
    fn overlapping_reservation_flagged_and_clean_twin_passes() {
        let report = run_overlapping_reservation(true);
        let hits = of_class(&report, HazardClass::OverlappingReservation);
        assert!(!hits.is_empty(), "overlap not flagged:\n{report}");
        let h = hits[0];
        assert_eq!(
            h.buffer, "fixture.slots",
            "named after the target, not the cursor"
        );
        let second = h.second.as_ref().expect("two reserving sites");
        assert_eq!(h.first.kernel, "reserve_fixture");
        assert_eq!(second.kernel, "reserve_fixture");

        let clean = run_overlapping_reservation(false);
        assert!(clean.is_clean(), "clean twin flagged:\n{clean}");
    }

    #[test]
    fn oob_loads_are_suppressed_to_zero() {
        let session = Session::start();
        let buf = GpuU32::named(4, "fixture.oob_load");
        let out = GpuU32::named(1, "fixture.oob_out");
        device().launch(LaunchConfig::new(1, 1), "oob_load", |ctx| {
            ctx.simt(|lane| {
                let v = lane.ld(&buf, 1000);
                lane.st(&out, 0, v + 1);
            });
        });
        let report = session.finish();
        assert_eq!(out.load(0), 1, "suppressed load must read as 0");
        assert_eq!(
            of_class_count(&report, HazardClass::OutOfBounds),
            1,
            "{report}"
        );
    }

    fn of_class_count(report: &SanitizeReport, class: HazardClass) -> usize {
        report.hazards.iter().filter(|h| h.class == class).count()
    }

    #[test]
    fn report_counts_launches_and_accesses() {
        let report = run_inter_block_race::<u32>(false);
        assert_eq!(report.launches, 1);
        assert_eq!(report.accesses_checked, 4, "one store per block");
        assert_eq!(report.suppressed, 0);
    }

    #[test]
    fn hazards_on_u64_buffers_are_reported_under_the_buffer_name() {
        let cases: [(SanitizeReport, HazardClass, &str); 3] = [
            (
                run_out_of_bounds::<u64>(true),
                HazardClass::OutOfBounds,
                "fixture.bounds",
            ),
            (
                run_uninit_read::<u64>(true),
                HazardClass::UninitRead,
                "fixture.uninit",
            ),
            (
                run_inter_block_race::<u64>(true),
                HazardClass::InterBlockRace,
                "fixture.race",
            ),
        ];
        for (report, class, buffer) in &cases {
            let hits = of_class(report, *class);
            assert_eq!(hits.len(), 1, "{class:?} on a u64 buffer:\n{report}");
            assert_eq!(hits[0].buffer, *buffer);
        }
        let race = of_class(&cases[2].0, HazardClass::InterBlockRace)[0];
        let second = race.second.as_ref().expect("races have two sites");
        assert_ne!(race.first.block, second.block, "a write-write race");
        assert_eq!(
            (race.first.kind, second.kind),
            (AccessKind::Write, AccessKind::Write)
        );

        assert!(run_out_of_bounds::<u64>(false).is_clean());
        assert!(run_uninit_read::<u64>(false).is_clean());
        assert!(run_inter_block_race::<u64>(false).is_clean());
    }
}
