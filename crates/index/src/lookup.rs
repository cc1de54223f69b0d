//! The lookup interface shared by index layouts.
//!
//! The extraction pipeline only needs two queries per seed code:
//! its occurrence count (Algorithm 2's `load`) and its location list
//! (triplet generation). Abstracting them lets the pipeline run on
//! either the paper's dense table ([`crate::SeedIndex`]) or the
//! compact sorted directory ([`crate::CompactSeedIndex`], the §V
//! "novel indexing techniques" extension).
//!
//! Both answer on the host, each from its own host form: the dense
//! table keeps no copy of the device's `4^ℓs + 1`-entry `ptrs` but an
//! occupancy bitset with rank, and the compact directory its sorted
//! codes. What a lookup costs the model is separate: the dense table's
//! two `ptrs` reads plus [`SeedLookup::lookup_overhead_loads`], charged
//! by the pipeline.

/// A shareable handle to a built row index. The serving engine caches
/// one of these per tile row inside a `RefSession` and hands clones to
/// concurrent query workers, so the trait requires `Send + Sync`
/// (both concrete layouts are plain immutable arrays).
pub type SharedSeedLookup = std::sync::Arc<dyn SeedLookup>;

/// Seed-to-locations lookup.
pub trait SeedLookup: Send + Sync {
    /// The seed length `ℓs`.
    fn seed_len(&self) -> usize;

    /// The sampling step `Δs`.
    fn step(&self) -> usize;

    /// Number of indexed occurrences of `code`.
    fn occurrences(&self, code: u32) -> usize;

    /// All indexed locations of `code`, ascending.
    fn lookup(&self, code: u32) -> &[u32];

    /// Extra cost units (modeled global loads) one lookup costs beyond
    /// the dense table's two `ptrs` reads — the compact layout pays a
    /// binary search here. The pipeline charges this to the querying
    /// lane.
    fn lookup_overhead_loads(&self) -> u64 {
        0
    }

    /// The index's modeled device memory in bytes, what the registry
    /// charges a built row.
    fn memory_bytes(&self) -> usize;
}

impl SeedLookup for crate::SeedIndex {
    fn seed_len(&self) -> usize {
        self.codec().seed_len()
    }

    fn step(&self) -> usize {
        crate::SeedIndex::step(self)
    }

    fn occurrences(&self, code: u32) -> usize {
        crate::SeedIndex::occurrences(self, code)
    }

    fn lookup(&self, code: u32) -> &[u32] {
        crate::SeedIndex::lookup(self, code)
    }

    fn memory_bytes(&self) -> usize {
        crate::SeedIndex::memory_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_cpu::build_sequential;
    use crate::index::Region;
    use gpumem_seq::GenomeModel;

    #[test]
    fn dense_table_implements_the_trait_consistently() {
        let seq = GenomeModel::mammalian().generate(2_000, 55);
        let index = build_sequential(&seq, Region::whole(&seq), 6, 3);
        let dyn_index: &dyn SeedLookup = &index;
        assert_eq!(dyn_index.seed_len(), 6);
        assert_eq!(dyn_index.step(), 3);
        assert_eq!(dyn_index.lookup_overhead_loads(), 0);
        for code in [0u32, 17, 4095] {
            assert_eq!(dyn_index.occurrences(code), dyn_index.lookup(code).len());
        }
    }
}
