//! Shadow state: what the sanitizer remembers about buffers and
//! accesses while a session is active.
//!
//! The per-element access log is an incremental summary, not a full
//! trace. Each detector needs only a constant number of witness
//! accesses per element (see [`ElemLog`]), so logging stays O(1) per
//! access and memory stays proportional to the number of *distinct*
//! elements touched per launch.

use std::collections::HashMap;

use crate::sanitizer::report::AccessKind;

/// Where in the SIMT hierarchy an access came from. The launch is
/// implicit (the capture is per-launch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SiteCtx {
    /// `blockIdx.x`.
    pub block: u32,
    /// SIMT region ordinal within the block.
    pub region: u32,
    /// `threadIdx.x`.
    pub tid: u32,
}

/// One witnessed access: a site plus what it did.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Access {
    pub site: SiteCtx,
    pub kind: AccessKind,
}

impl Access {
    fn is_plain_write(&self) -> bool {
        self.kind == AccessKind::Write
    }
}

/// Per-(block, region) witnesses for the missing-barrier detector.
///
/// A hazard exists iff the group saw a plain write and accesses from
/// two distinct lanes. Witnesses kept: the first access, the first
/// access by a second distinct lane, and the first plain write — enough
/// to reconstruct a conflicting pair regardless of arrival order.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RegionGroup {
    pub block: u32,
    pub region: u32,
    pub first: Access,
    pub second_tid: Option<Access>,
    pub plain_write: Option<Access>,
}

impl RegionGroup {
    /// The conflicting pair, if this group is hazardous.
    pub fn conflict(&self) -> Option<(Access, Access)> {
        let write = self.plain_write?;
        let other = self.second_tid?;
        if other.site.tid != write.site.tid {
            Some((write, other))
        } else {
            // `other` is the write itself (or shares its lane); the
            // group's first access is then the distinct-lane witness.
            Some((write, self.first))
        }
    }
}

/// Incremental per-element summary of one launch's accesses.
#[derive(Clone, Debug)]
pub(crate) struct ElemLog {
    /// Representatives of up to two distinct blocks, preferring plain
    /// writes as representative of their block (inter-block detector).
    pub rep_a: Access,
    pub rep_b: Option<Access>,
    /// Same-block same-region witnesses (missing-barrier detector).
    /// Linear scan: an element is touched in at most a handful of
    /// regions per launch.
    pub groups: Vec<RegionGroup>,
}

impl ElemLog {
    fn new(access: Access) -> ElemLog {
        ElemLog {
            rep_a: access,
            rep_b: None,
            groups: vec![RegionGroup {
                block: access.site.block,
                region: access.site.region,
                first: access,
                second_tid: None,
                plain_write: access.is_plain_write().then_some(access),
            }],
        }
    }

    fn record(&mut self, access: Access) {
        // Inter-block representatives.
        if self.rep_a.site.block == access.site.block {
            if access.is_plain_write() && !self.rep_a.is_plain_write() {
                self.rep_a = access;
            }
        } else {
            match &mut self.rep_b {
                None => self.rep_b = Some(access),
                Some(rep_b) => {
                    if rep_b.site.block == access.site.block {
                        if access.is_plain_write() && !rep_b.is_plain_write() {
                            *rep_b = access;
                        }
                    } else if access.is_plain_write()
                        && !self.rep_a.is_plain_write()
                        && !rep_b.is_plain_write()
                    {
                        // A third block brings the first plain write:
                        // it must displace a read-only representative,
                        // otherwise the conflict would go unwitnessed.
                        *rep_b = access;
                    }
                }
            }
        }

        // Region groups.
        match self
            .groups
            .iter_mut()
            .find(|g| g.block == access.site.block && g.region == access.site.region)
        {
            None => self.groups.push(RegionGroup {
                block: access.site.block,
                region: access.site.region,
                first: access,
                second_tid: None,
                plain_write: access.is_plain_write().then_some(access),
            }),
            Some(group) => {
                if group.second_tid.is_none() && access.site.tid != group.first.site.tid {
                    group.second_tid = Some(access);
                }
                if group.plain_write.is_none() && access.is_plain_write() {
                    group.plain_write = Some(access);
                }
            }
        }
    }

    /// The cross-block conflicting pair, if any: two representatives
    /// from distinct blocks with at least one plain write among them.
    /// (Atomic/atomic and atomic/read pairs are well-defined on
    /// hardware and deliberately not flagged.)
    pub fn inter_block_conflict(&self) -> Option<(Access, Access)> {
        let rep_b = self.rep_b?;
        if self.rep_a.is_plain_write() {
            Some((self.rep_a, rep_b))
        } else if rep_b.is_plain_write() {
            Some((rep_b, self.rep_a))
        } else {
            None
        }
    }
}

/// One `atomic_reserve` slot reservation on a target buffer.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Reservation {
    pub base: u64,
    pub count: u64,
    pub site: SiteCtx,
}

/// Everything recorded for the launch currently in flight.
#[derive(Debug, Default)]
pub(crate) struct Capture {
    /// Access summaries, keyed by (buffer id, element).
    pub accesses: HashMap<(u64, usize), ElemLog>,
    /// Slot reservations, keyed by target buffer id.
    pub reservations: HashMap<u64, Vec<Reservation>>,
}

impl Capture {
    pub fn record_access(&mut self, buf: u64, elem: usize, access: Access) {
        self.accesses
            .entry((buf, elem))
            .and_modify(|log| log.record(access))
            .or_insert_with(|| ElemLog::new(access));
    }
}

/// Per-buffer shadow state that outlives launches.
#[derive(Debug)]
pub(crate) struct BufState {
    pub name: String,
    /// Per-element "never initialized" flags; `None` means the buffer
    /// was born initialized (`new`/`from_slice`, i.e. `cudaMemset` or a
    /// host copy) and needs no tracking.
    pub uninit: Option<Vec<bool>>,
}

impl BufState {
    pub fn mark_init(&mut self, lo: usize, hi: usize) {
        if let Some(flags) = &mut self.uninit {
            let n = flags.len();
            for flag in &mut flags[lo.min(n)..hi.min(n)] {
                *flag = false;
            }
        }
    }

    pub fn is_uninit(&self, elem: usize) -> bool {
        self.uninit
            .as_ref()
            .is_some_and(|flags| flags.get(elem).copied().unwrap_or(false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(block: u32, region: u32, tid: u32, kind: AccessKind) -> Access {
        Access {
            site: SiteCtx { block, region, tid },
            kind,
        }
    }

    #[test]
    fn cross_block_write_read_is_witnessed() {
        let mut log = ElemLog::new(access(0, 0, 3, AccessKind::Read));
        log.record(access(1, 0, 5, AccessKind::Write));
        let (w, other) = log.inter_block_conflict().expect("conflict");
        assert_eq!(w.site.block, 1);
        assert_eq!(other.site.block, 0);
    }

    #[test]
    fn cross_block_atomics_are_clean() {
        let mut log = ElemLog::new(access(0, 0, 0, AccessKind::Atomic));
        log.record(access(1, 0, 0, AccessKind::Atomic));
        log.record(access(2, 0, 0, AccessKind::Read));
        assert!(log.inter_block_conflict().is_none());
    }

    #[test]
    fn third_block_write_displaces_read_representatives() {
        let mut log = ElemLog::new(access(0, 0, 0, AccessKind::Read));
        log.record(access(1, 0, 0, AccessKind::Read));
        log.record(access(2, 0, 0, AccessKind::Write));
        let (w, other) = log.inter_block_conflict().expect("conflict");
        assert_eq!(w.site.block, 2);
        assert_eq!(other.site.block, 0);
    }

    #[test]
    fn same_region_cross_lane_write_is_witnessed_either_order() {
        // Write first, read second.
        let mut log = ElemLog::new(access(0, 4, 1, AccessKind::Write));
        log.record(access(0, 4, 2, AccessKind::Read));
        let (w, o) = log.groups[0].conflict().expect("conflict");
        assert_eq!((w.site.tid, o.site.tid), (1, 2));
        // Read first, write second.
        let mut log = ElemLog::new(access(0, 4, 2, AccessKind::Read));
        log.record(access(0, 4, 1, AccessKind::Write));
        let (w, o) = log.groups[0].conflict().expect("conflict");
        assert_eq!(w.site.tid, 1);
        assert_ne!(o.site.tid, 1);
    }

    #[test]
    fn cross_region_accesses_are_clean() {
        let mut log = ElemLog::new(access(0, 0, 1, AccessKind::Write));
        log.record(access(0, 1, 2, AccessKind::Read));
        assert!(log.groups.iter().all(|g| g.conflict().is_none()));
    }

    #[test]
    fn same_lane_rewrites_are_clean() {
        let mut log = ElemLog::new(access(0, 0, 1, AccessKind::Write));
        log.record(access(0, 0, 1, AccessKind::Read));
        log.record(access(0, 0, 1, AccessKind::Write));
        assert!(log.groups.iter().all(|g| g.conflict().is_none()));
    }

    #[test]
    fn uninit_flags_clear_on_init() {
        let mut state = BufState {
            name: "b".into(),
            uninit: Some(vec![true; 4]),
        };
        assert!(state.is_uninit(2));
        state.mark_init(1, 3);
        assert!(state.is_uninit(0));
        assert!(!state.is_uninit(1));
        assert!(!state.is_uninit(2));
        assert!(state.is_uninit(3));
        // Born-initialized buffers never flag.
        let born = BufState {
            name: "c".into(),
            uninit: None,
        };
        assert!(!born.is_uninit(0));
    }
}
