//! Binary search over shared memory.
//!
//! Algorithm 2's last step assigns each thread to its seed group with
//! `group[tid] ← binarySearch(assign, tid)`: `assign` is a
//! non-decreasing prefix array where group `k` owns the thread ids
//! `assign[k] ..= assign[k+1] − 1`.

use crate::exec::Lane;

/// Index of the first element of `data` **strictly greater** than
/// `target` (`upper_bound`). With the paper's `assign` array, the thread
/// `tid` belongs to group `upper_bound(assign, tid) − 1`.
///
/// Charges one shared access and one comparison per probe.
pub fn upper_bound_shared(lane: &mut Lane<'_>, data: &[u32], target: u32) -> usize {
    let (index, probes) = upper_bound_probes(data, target);
    lane.shared(probes);
    lane.compare(probes);
    index
}

/// [`upper_bound_shared`] on the host: the index, and the number of
/// probes the search makes, from which a region computed with
/// [`BlockCtx::simt_computed`](crate::exec::BlockCtx::simt_computed)
/// charges the lane.
pub fn upper_bound_probes(data: &[u32], target: u32) -> (usize, u64) {
    let (mut lo, mut hi, mut probes) = (0usize, data.len(), 0u64);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        probes += 1;
        if data[mid] <= target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    (lo, probes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Device, LaunchConfig};
    use crate::memory::GpuU32;
    use crate::spec::DeviceSpec;

    fn run_search(data: Vec<u32>, targets: Vec<u32>) -> Vec<u32> {
        let device = Device::new(DeviceSpec::test_tiny());
        let out = GpuU32::new(targets.len());
        device.launch(LaunchConfig::new(1, targets.len().max(1)), "test", |ctx| {
            ctx.simt_range(0..targets.len(), |lane| {
                let idx = upper_bound_shared(lane, &data, targets[lane.tid]);
                lane.st(&out, lane.tid, idx as u32);
            });
        });
        out.to_vec()
    }

    #[test]
    fn upper_bound_matches_std_partition_point() {
        let data = vec![1u32, 3, 3, 5, 8, 8, 8, 10];
        let targets: Vec<u32> = (0..12).collect();
        let got = run_search(data.clone(), targets.clone());
        for (t, &g) in targets.iter().zip(&got) {
            let expect = data.partition_point(|&v| v <= *t) as u32;
            assert_eq!(g, expect, "target {t}");
        }
    }

    #[test]
    fn upper_bound_empty_and_extremes() {
        assert_eq!(run_search(vec![], vec![5]), vec![0]);
        assert_eq!(run_search(vec![2, 4, 6], vec![0]), vec![0]);
        assert_eq!(run_search(vec![2, 4, 6], vec![9]), vec![3]);
    }

    #[test]
    fn group_assignment_semantics() {
        // assign = [1, 3, 3, 6]: group 0 owns tids 1..=2, group 1 owns
        // nothing extra at 3..3, group 2 owns 3..=5 (paper's example:
        // assign[k]=5, assign[k+1]=7 means threads 5 and 6 serve seed k).
        let assign = vec![1u32, 3, 3, 6];
        let groups: Vec<u32> = run_search(assign, (0..7).collect())
            .iter()
            .map(|&u| u.saturating_sub(1))
            .collect();
        assert_eq!(groups, vec![0, 0, 0, 2, 2, 2, 3]);
    }
}
