//! GPUMEM's lightweight seed index.
//!
//! Instead of a suffix tree/array, the paper indexes the reference with
//! two flat arrays (Fig. 1 left):
//!
//! * `locs` — the sampled seed start positions, bucket-sorted so all
//!   locations of one seed are contiguous and ascending;
//! * `ptrs` — for each of the `4^ℓs` possible seeds, the offset of its
//!   bucket in `locs` (a prefix-sum of occurrence counts; the last entry
//!   is `|locs|`).
//!
//! `ptrs` stays on the device. The host keeps `locs` and answers both
//! questions the pipeline asks of a seed — how many locations, and
//! which — from an occupancy bitset over the `4^ℓs` codes with a rank
//! per word ([`SeedIndex`]), so it never holds a `4^ℓs`-entry array.
//!
//! Sampling every `Δs`-th reference position keeps the index small; the
//! sparsification bound `Δs ≤ L − ℓs + 1` (Eq. 1, [`sparsify`])
//! guarantees every MEM of length ≥ L still contains a sampled seed.
//! Under copMEM-style dual sampling ([`SeedMode::DualSampled`]) the same
//! builders are used with `step = k1`; the coverage guarantee then
//! comes from the co-prime pair `(k1, k2)` jointly
//! ([`sparsify::check_dual_steps`]), with the query side of the pair
//! enforced by the pipeline's probe schedule rather than the index.
//!
//! Two builders produce bit-identical indexes:
//!
//! * [`build_gpu()`] — Algorithm 1 verbatim on the [`gpu_sim`] device
//!   (atomic count → device prefix-sum → atomic fill → per-seed sort);
//! * [`build_sequential`] — the obviously-correct host reference.
//!
//! A second builder family lives in [`compact`]: the sorted-directory
//! layout (a §V "novel indexing techniques" extension) that drops the
//! `4^ℓs` table in favour of `O(n_locs)` memory; both layouts serve the
//! pipeline through the [`SeedLookup`] trait.

pub mod build_cpu;
pub mod build_gpu;
pub mod compact;
pub mod index;
pub mod lookup;
pub mod seed;
pub mod sparsify;

pub use build_cpu::build_sequential;
pub use build_gpu::{build_gpu, build_gpu_as};
pub use compact::{build_compact_gpu, build_compact_sequential, CompactSeedIndex};
pub use index::{Region, SeedIndex};
pub use lookup::{SeedLookup, SharedSeedLookup};
pub use seed::SeedCodec;
pub use sparsify::{
    check_dual_steps, check_step, gcd, max_coprime_steps, max_step, IndexError, SeedMode,
};
