//! Device building blocks used by the paper's algorithms.
//!
//! * [`prefix_sum`] — block-level Hillis–Steele scans (Algorithm 2's
//!   `GPUPrefixSum` over the `load`/`task` arrays) and a chunked
//!   device-wide exclusive scan (Algorithm 1 step 2 over `ptrs`).
//! * [`sort`] — a one-thread-per-bucket insertion sort (Algorithm 1
//!   step 4 sorts each seed's `locs` bucket with one thread) and a
//!   block-level bitonic sort (the "parallel sort" of out-block MEMs in
//!   §III-C1).
//! * [`search`] — the shared-memory binary search Algorithm 2 ends with
//!   (`group[tid] ← binarySearch(assign, tid)`).

/// Threads per block of every fixed-width kernel: the device-wide scan,
/// [`device_sort_u64`] and the index-construction kernels. A device whose
/// `max_threads_per_block` is below it cannot run them.
pub const BLOCK_DIM: usize = 256;

pub mod device_sort;
pub mod prefix_sum;
pub mod search;
pub mod sort;

pub use device_sort::device_sort_u64;
pub use prefix_sum::{
    block_exclusive_scan, block_inclusive_scan, device_exclusive_scan, device_scan_sums,
};
pub use search::{upper_bound_probes, upper_bound_shared};
pub use sort::{block_bitonic_sort_u64, lane_sort_bucket};
