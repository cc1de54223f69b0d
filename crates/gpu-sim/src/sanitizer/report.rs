//! Structured hazard reports.
//!
//! Everything a user sees from the sanitizer lives here: the hazard
//! classification, the two access sites of a conflict, and the
//! session-level [`SanitizeReport`] with its element-range coalescing.

use std::fmt;
use std::ops::Range;

/// How an instrumented access touched memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Plain global load (`Lane::ld`, `Lane::ld_slice`).
    Read,
    /// Plain global store (`Lane::st`, `Lane::st_slice`).
    Write,
    /// Read-modify-write (`Lane::atomic_add`, `Lane::atomic_reserve`).
    Atomic,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Atomic => "atomic",
        })
    }
}

/// The detector that fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum HazardClass {
    /// Two blocks of one launch touched the same element and at least
    /// one access was a plain write. On hardware there is no
    /// synchronization between blocks inside a launch, so the outcome
    /// depends on SM scheduling.
    InterBlockRace,
    /// Two lanes of the same block touched the same element inside one
    /// SIMT region (no `__syncthreads()` between them) and at least one
    /// access was a plain write. The simulator's sequential lanes hide
    /// this; real warps would interleave.
    MissingBarrier,
    /// An access outside the buffer's bounds. The sanitizer suppresses
    /// the access (loads yield 0) so the launch can finish and report.
    OutOfBounds,
    /// A read of an element of an [`alloc_uninit`] buffer that no host
    /// copy or device store had initialized.
    ///
    /// [`alloc_uninit`]: crate::GpuU32::alloc_uninit
    UninitRead,
    /// Two `atomic_reserve` calls reserved overlapping element ranges
    /// of the same target buffer — two cursors handing out the same
    /// slots, as when a fill kernel's `temp` cursor is not a faithful
    /// copy of the scanned `ptrs`.
    OverlappingReservation,
}

impl fmt::Display for HazardClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HazardClass::InterBlockRace => "inter-block race",
            HazardClass::MissingBarrier => "missing barrier",
            HazardClass::OutOfBounds => "out-of-bounds access",
            HazardClass::UninitRead => "uninitialized read",
            HazardClass::OverlappingReservation => "overlapping reservation",
        })
    }
}

/// One side of a conflict: which kernel instance touched the memory,
/// and from where in the SIMT hierarchy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessSite {
    /// Kernel name (as given to `Device::launch`).
    pub kernel: String,
    /// Launch ordinal within the sanitizer session.
    pub launch: u32,
    /// `blockIdx.x`.
    pub block: u32,
    /// SIMT region ordinal within the block (barrier count).
    pub region: u32,
    /// Warp index within the block.
    pub warp: u32,
    /// Lane index within the warp.
    pub lane: u32,
    /// What the access did.
    pub kind: AccessKind,
}

impl fmt::Display for AccessSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} by `{}` (launch {}) block {} region {} warp {} lane {}",
            self.kind, self.kernel, self.launch, self.block, self.region, self.warp, self.lane
        )
    }
}

/// One detected hazard: a buffer, the element range involved, and the
/// access site(s). `second` is present for the two-sided classes
/// (races, missing barriers, overlapping reservations) and absent for
/// the single-access classes (out-of-bounds, uninitialized read).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hazard {
    /// The detector that fired.
    pub class: HazardClass,
    /// Name of the buffer involved.
    pub buffer: String,
    /// Element indices involved (half-open).
    pub elems: Range<usize>,
    /// The first conflicting access.
    pub first: AccessSite,
    /// The other side of the conflict, if the class has one.
    pub second: Option<AccessSite>,
}

impl fmt::Display for Hazard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} on `{}`", self.class, self.buffer)?;
        if self.elems.len() == 1 {
            write!(f, "[{}]", self.elems.start)?;
        } else {
            write!(f, "[{}..{}]", self.elems.start, self.elems.end)?;
        }
        write!(f, ": {}", self.first)?;
        if let Some(second) = &self.second {
            write!(f, " conflicts with {}", second)?;
        }
        Ok(())
    }
}

impl Hazard {
    /// `true` if `other` is the same conflict on an adjacent or
    /// overlapping element range (same class, buffer and sites up to
    /// the lane that touched the element), so the two can be reported
    /// as one range.
    fn coalesces_with(&self, other: &Hazard) -> bool {
        self.class == other.class
            && self.buffer == other.buffer
            && self.first.kernel == other.first.kernel
            && self.first.launch == other.first.launch
            && self.first.block == other.first.block
            && self.first.region == other.first.region
            && self.second.as_ref().map(|s| (s.launch, s.block, s.region))
                == other.second.as_ref().map(|s| (s.launch, s.block, s.region))
            && self.elems.end >= other.elems.start
            && other.elems.end >= self.elems.start
    }
}

/// Everything a sanitizer session observed.
#[derive(Clone, Debug, Default)]
pub struct SanitizeReport {
    /// Detected hazards, coalesced over adjacent elements.
    pub hazards: Vec<Hazard>,
    /// Kernel launches instrumented.
    pub launches: u32,
    /// Device accesses checked.
    pub accesses_checked: u64,
    /// Hazards dropped beyond the per-launch cap (0 in healthy runs).
    pub suppressed: u64,
}

impl SanitizeReport {
    /// `true` when nothing was flagged (including nothing suppressed).
    pub fn is_clean(&self) -> bool {
        self.hazards.is_empty() && self.suppressed == 0
    }

    /// Merge hazards that are the same conflict over adjacent elements
    /// into single ranged entries. Called once when a session finishes.
    pub(crate) fn coalesce(&mut self) {
        self.hazards.sort_by(|a, b| {
            (a.class, &a.buffer, a.first.launch, a.elems.start).cmp(&(
                b.class,
                &b.buffer,
                b.first.launch,
                b.elems.start,
            ))
        });
        let mut merged: Vec<Hazard> = Vec::with_capacity(self.hazards.len());
        for hazard in self.hazards.drain(..) {
            match merged.last_mut() {
                Some(last) if last.coalesces_with(&hazard) => {
                    last.elems.end = last.elems.end.max(hazard.elems.end);
                }
                _ => merged.push(hazard),
            }
        }
        self.hazards = merged;
    }
}

impl fmt::Display for SanitizeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sanitizer: {} launch(es), {} access(es) checked, {} hazard(s)",
            self.launches,
            self.accesses_checked,
            self.hazards.len()
        )?;
        for hazard in &self.hazards {
            writeln!(f, "  {hazard}")?;
        }
        if self.suppressed > 0 {
            writeln!(
                f,
                "  ... and {} further hazard(s) suppressed",
                self.suppressed
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(block: u32, lane: u32) -> AccessSite {
        AccessSite {
            kernel: "k".into(),
            launch: 0,
            block,
            region: 0,
            warp: 0,
            lane,
            kind: AccessKind::Write,
        }
    }

    fn hazard(elem: usize, lane: u32) -> Hazard {
        Hazard {
            class: HazardClass::OutOfBounds,
            buffer: "buf".into(),
            elems: elem..elem + 1,
            first: site(0, lane),
            second: None,
        }
    }

    #[test]
    fn adjacent_same_site_hazards_coalesce() {
        let mut report = SanitizeReport {
            hazards: vec![hazard(5, 1), hazard(6, 1), hazard(7, 1), hazard(9, 1)],
            ..SanitizeReport::default()
        };
        report.coalesce();
        assert_eq!(report.hazards.len(), 2);
        assert_eq!(report.hazards[0].elems, 5..8);
        assert_eq!(report.hazards[1].elems, 9..10);
    }

    #[test]
    fn different_classes_do_not_coalesce() {
        let mut race = hazard(5, 1);
        race.class = HazardClass::InterBlockRace;
        race.second = Some(site(1, 2));
        let mut report = SanitizeReport {
            hazards: vec![race, hazard(6, 1)],
            ..SanitizeReport::default()
        };
        report.coalesce();
        assert_eq!(report.hazards.len(), 2);
    }

    #[test]
    fn display_names_buffer_and_both_sites() {
        let h = Hazard {
            class: HazardClass::InterBlockRace,
            buffer: "locs".into(),
            elems: 3..4,
            first: site(0, 1),
            second: Some(site(2, 7)),
        };
        let text = h.to_string();
        assert!(text.contains("inter-block race on `locs`[3]"), "{text}");
        assert!(text.contains("block 0"), "{text}");
        assert!(text.contains("conflicts with"), "{text}");
        assert!(text.contains("block 2"), "{text}");
    }

    #[test]
    fn clean_report_is_clean() {
        assert!(SanitizeReport::default().is_clean());
        let dirty = SanitizeReport {
            suppressed: 1,
            ..SanitizeReport::default()
        };
        assert!(!dirty.is_clean());
    }
}
