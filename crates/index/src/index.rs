//! The seed index's host form, one for both device layouts.
//!
//! Algorithm 1 leaves two arrays on the device: `locs`, the sampled
//! locations bucketed by seed code, and `ptrs`, the `4^ℓs + 1` bucket
//! offsets; the compact layout keeps the present codes and their
//! offsets in place of `ptrs`. The host keeps `locs` and answers what
//! it asks of either directory — how many locations a seed code has,
//! and which — from an occupancy bitset with a rank per word. It never
//! holds an array of `4^ℓs` entries: at the paper's ℓs = 13 the
//! device's `ptrs` is 268 MB per tile row, the bitset and its ranks
//! 12 MB. The layout ([`IndexKind`]) decides only which device build
//! ran and what the row costs the model.

use std::ops::Range;

use gpumem_seq::PackedSeq;

use crate::seed::SeedCodec;

/// A half-open reference region `[start, start + len)` — one tile row's
/// worth of reference (§III-A: "only a partial index is created for
/// `ℓ_tile` base pairs of reference").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    /// First reference position covered.
    pub start: usize,
    /// Region length in bases.
    pub len: usize,
}

impl Region {
    /// The whole of `seq`.
    pub fn whole(seq: &PackedSeq) -> Region {
        Region {
            start: 0,
            len: seq.len(),
        }
    }

    /// End position (exclusive).
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// A row index's device layout.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// The paper's dense `ptrs`/`locs` table (Algorithm 1).
    #[default]
    DenseTable,
    /// The compact sorted directory — the present seed codes and their
    /// bucket offsets beside `locs`, so `O(n_locs)` memory and a binary
    /// search per lookup: the §V "novel indexing techniques" extension.
    CompactDirectory,
}

/// The lightweight index over one reference region.
///
/// Beside `locs` the index keeps three arrays, built in one pass over it
/// when a builder hands `locs` over:
///
/// * `present` — bit `s` is set when seed code `s` has a bucket (`4^ℓs`
///   bits);
/// * `ranks` — for each 64-bit word of `present`, the set bits before it;
/// * `starts` — the `locs` offset of each present code's bucket, in code
///   order, then `|locs|`.
///
/// A lookup tests one bit; only a present code reads its rank, takes a
/// popcount and reads two starts, so a miss never touches an array of
/// `4^ℓs` entries. The index records the layout its builder gave it
/// ([`SeedIndex::kind`]): [`SeedIndex::memory_bytes`] and
/// [`SeedIndex::lookup_overhead_loads`] model that layout's device
/// arrays, [`SeedIndex::paper_bits`] the paper's dense ones.
///
/// Invariants (checked by [`SeedIndex::validate`]):
/// * `present` and `ranks` hold one entry per 64 codes, and no bit at or
///   past `4^ℓs` is set;
/// * `ranks[w]` is the number of set bits in `present[..w]`;
/// * `starts` holds one entry per set bit and then `|locs|`, strictly
///   increasing from 0;
/// * the bucket of the `i`-th present code `s`,
///   `locs[starts[i] .. starts[i+1]]`, holds exactly the sampled
///   positions whose seed code is `s`, in ascending order;
/// * every sampled in-range position appears exactly once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeedIndex {
    codec: SeedCodec,
    step: usize,
    region: Region,
    kind: IndexKind,
    present: Vec<u64>,
    ranks: Vec<u32>,
    starts: Vec<u32>,
    locs: Vec<u32>,
}

impl SeedIndex {
    /// Index `locs` in layout `kind`: `region`'s locations sampled every
    /// `step` bases, bucketed by seed code in ascending code order and
    /// ascending within each bucket, as either device build leaves them.
    /// Each location's seed is encoded from `seq`; a code that differs
    /// from the one before starts a bucket.
    pub(crate) fn from_buckets(
        seq: &PackedSeq,
        codec: SeedCodec,
        step: usize,
        region: Region,
        kind: IndexKind,
        locs: Vec<u32>,
    ) -> SeedIndex {
        let words = codec.num_seeds().div_ceil(64);
        let mut present = vec![0u64; words];
        let mut ranks = Vec::with_capacity(words);
        let mut starts = Vec::new();
        let mut prev = None;
        for (i, &loc) in locs.iter().enumerate() {
            let code = codec
                .encode(seq, loc as usize)
                .expect("indexed location fits a seed");
            if prev == Some(code) {
                continue;
            }
            assert!(
                prev < Some(code),
                "locs out of code order: seed {code} after {prev:?}"
            );
            prev = Some(code);
            // Codes ascend, so a word without a rank yet holds none of the
            // codes before this one: each comes after all of them.
            let word = code as usize / 64;
            if ranks.len() <= word {
                ranks.resize(word + 1, starts.len() as u32);
            }
            present[word] |= 1 << (code % 64);
            starts.push(i as u32);
        }
        ranks.resize(words, starts.len() as u32);
        starts.push(locs.len() as u32);
        SeedIndex {
            codec,
            step,
            region,
            kind,
            present,
            ranks,
            starts,
            locs,
        }
    }

    /// Seed codec (carries `ℓs`).
    pub fn codec(&self) -> SeedCodec {
        self.codec
    }

    /// Sampling step `Δs`.
    pub fn step(&self) -> usize {
        self.step
    }

    /// The device layout this index was built in.
    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// This index relabelled as layout `kind`: the same host form,
    /// modeled as `kind`'s device arrays.
    pub fn with_kind(self, kind: IndexKind) -> SeedIndex {
        SeedIndex { kind, ..self }
    }

    /// The `locs` range of seed `code`'s bucket, or `None` when no
    /// sampled location has that seed.
    #[inline(always)]
    fn bucket(&self, code: u32) -> Option<Range<usize>> {
        let word = code as usize / 64;
        let bits = self.present[word];
        let bit = code % 64;
        if (bits >> bit) & 1 == 0 {
            return None;
        }
        let i = self.ranks[word] as usize + (bits & ((1 << bit) - 1)).count_ones() as usize;
        Some(self.starts[i] as usize..self.starts[i + 1] as usize)
    }

    /// All indexed locations of seed `code`, ascending.
    #[inline(always)]
    pub fn lookup(&self, code: u32) -> &[u32] {
        self.bucket(code).map_or(&[], |bucket| &self.locs[bucket])
    }

    /// Number of indexed occurrences of seed `code` — a thread's `load`
    /// in Algorithm 2.
    #[inline(always)]
    pub fn occurrences(&self, code: u32) -> usize {
        self.bucket(code).map_or(0, |bucket| bucket.len())
    }

    /// Every present seed code and its bucket's `locs` range, in code
    /// order.
    pub(crate) fn buckets(&self) -> impl Iterator<Item = (u32, Range<usize>)> + '_ {
        let codes = self.present.iter().enumerate().flat_map(|(word, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                let bit = rest.trailing_zeros();
                rest &= rest.wrapping_sub(1);
                (bit < 64).then_some((word * 64) as u32 + bit)
            })
        });
        codes
            .zip(self.starts.windows(2))
            .map(|(code, pair)| (code, pair[0] as usize..pair[1] as usize))
    }

    /// Number of sampled locations.
    pub fn num_locations(&self) -> usize {
        self.locs.len()
    }

    /// Number of seed codes with a bucket: the compact directory's
    /// entries.
    fn num_present(&self) -> usize {
        self.starts.len() - 1
    }

    /// Modeled global loads one lookup costs beyond the two bucket
    /// bounds it reads: none in the dense table, and in the compact
    /// directory the binary search over its present codes, the bit
    /// length of `max(present, 1)`. The pipeline charges these to the
    /// querying lane.
    pub fn lookup_overhead_loads(&self) -> u64 {
        match self.kind {
            IndexKind::DenseTable => 0,
            IndexKind::CompactDirectory => {
                u64::from(usize::BITS - self.num_present().max(1).leading_zeros())
            }
        }
    }

    /// The modeled device footprint in bytes, what the registry charges
    /// a built row: the directory's `u32`s — the dense table's
    /// `4^ℓs + 1` `ptrs`, or the compact directory's present codes and
    /// their `present + 1` offsets — and `locs`'. The paper's §III-A
    /// sizes this against GPU memory. Beside a dense table the host
    /// form's bitset and ranks take about a twentieth of `ptrs`' share;
    /// a compact row's host form is the same, and so can outweigh its
    /// modeled directory.
    pub fn memory_bytes(&self) -> usize {
        let directory = match self.kind {
            IndexKind::DenseTable => self.codec.num_seeds() + 1,
            IndexKind::CompactDirectory => 2 * self.num_present() + 1,
        };
        (directory + self.locs.len()) * std::mem::size_of::<u32>()
    }

    /// The paper's theoretical bit count of the dense layout (§III-A),
    /// whichever layout this index was built in: the `locs` array
    /// "can be stored in `n_locs × ⌈log₂ ℓ_tile⌉` bits" and `ptrs`
    /// needs "`4^ℓs × ⌈log₂ n_locs⌉`" bits. (The implementation uses
    /// plain `u32`s; this is the densely-packed lower bound the paper
    /// argues from.)
    pub fn paper_bits(&self) -> u64 {
        let ceil_log2 =
            |x: usize| (usize::BITS - x.max(1).next_power_of_two().leading_zeros() - 1) as u64;
        let n_locs = self.locs.len();
        let locs_bits = n_locs as u64 * ceil_log2(self.region.len);
        let ptrs_bits = self.codec.num_seeds() as u64 * ceil_log2(n_locs);
        locs_bits + ptrs_bits
    }

    /// The sampled positions this index must cover, in order: every
    /// `step`-th position of the region whose seed fits inside the
    /// sequence.
    pub fn expected_positions(
        region: Region,
        step: usize,
        seed_len: usize,
        seq_len: usize,
    ) -> Vec<u32> {
        let mut out = Vec::new();
        let mut pos = region.start;
        while pos < region.end() && pos + seed_len <= seq_len {
            out.push(pos as u32);
            pos += step;
        }
        out
    }

    /// Exhaustively check the structural invariants against the source
    /// sequence. Used by tests, not production paths (it is O(index
    /// size)).
    pub fn validate(&self, seq: &PackedSeq) -> Result<(), String> {
        let n = self.codec.num_seeds();
        let words = n.div_ceil(64);
        if self.present.len() != words || self.ranks.len() != words {
            return Err(format!(
                "{} bitset words and {} ranks, want {words}",
                self.present.len(),
                self.ranks.len()
            ));
        }
        // 4^ℓs is a multiple of 64 from ℓs = 3 on; below, one word has
        // bits past the last code.
        if n < 64 && self.present[0] >> n != 0 {
            return Err(format!("a bit at or past seed {n} is set"));
        }
        let mut running = 0u32;
        for (word, (&bits, &rank)) in self.present.iter().zip(&self.ranks).enumerate() {
            if rank != running {
                return Err(format!("rank of word {word} is {rank}, want {running}"));
            }
            running += bits.count_ones();
        }
        if self.starts.len() != running as usize + 1 {
            return Err(format!(
                "{running} seeds present but {} bucket starts",
                self.starts.len().saturating_sub(1)
            ));
        }
        if self.starts[0] != 0 {
            return Err(format!("first bucket starts at {}", self.starts[0]));
        }
        if let Some(pair) = self.starts.windows(2).find(|pair| pair[0] >= pair[1]) {
            return Err(format!("bucket start {} follows {}", pair[1], pair[0]));
        }
        if self.starts[running as usize] as usize != self.locs.len() {
            return Err(format!(
                "buckets end at {}, |locs| = {}",
                self.starts[running as usize],
                self.locs.len()
            ));
        }
        let mut expected =
            Self::expected_positions(self.region, self.step, self.codec.seed_len(), seq.len());
        let mut seen: Vec<u32> = Vec::with_capacity(self.locs.len());
        for (code, bucket) in self.buckets() {
            let bucket = &self.locs[bucket];
            if bucket.windows(2).any(|pair| pair[0] >= pair[1]) {
                return Err(format!("bucket {code} not strictly ascending"));
            }
            for &loc in bucket {
                let actual = self
                    .codec
                    .encode(seq, loc as usize)
                    .ok_or_else(|| format!("location {loc} has no full seed"))?;
                if actual != code {
                    return Err(format!("location {loc} in bucket {code} encodes {actual}"));
                }
                seen.push(loc);
            }
        }
        seen.sort_unstable();
        expected.sort_unstable();
        if seen != expected {
            return Err(format!(
                "indexed positions mismatch: {} indexed vs {} expected",
                seen.len(),
                expected.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_cpu::build_sequential;

    #[test]
    fn region_whole_covers_sequence() {
        let seq: PackedSeq = "ACGTACGT".parse().unwrap();
        let region = Region::whole(&seq);
        assert_eq!(region.start, 0);
        assert_eq!(region.len, 8);
        assert_eq!(region.end(), 8);
    }

    #[test]
    fn expected_positions_respect_step_and_tail() {
        // len 10, seed 3: valid starts are 0..=7; step 3 -> 0, 3, 6.
        let region = Region { start: 0, len: 10 };
        assert_eq!(
            SeedIndex::expected_positions(region, 3, 3, 10),
            vec![0, 3, 6]
        );
        // Region ending at the sequence end with no room for a seed.
        let tail = Region { start: 9, len: 1 };
        assert!(SeedIndex::expected_positions(tail, 1, 3, 10).is_empty());
    }

    #[test]
    fn expected_positions_allow_seed_past_region_end() {
        // A seed may start inside the region and extend past its end
        // (into the next tile row) as long as it fits the sequence.
        let region = Region { start: 0, len: 4 };
        assert_eq!(
            SeedIndex::expected_positions(region, 1, 3, 10),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn lookup_and_occurrences_agree() {
        let seq: PackedSeq = "ACACACAC".parse().unwrap();
        let index = build_sequential(&seq, Region::whole(&seq), 2, 1);
        let codec = SeedCodec::new(2);
        let ac = codec.encode(&seq, 0).unwrap();
        assert_eq!(index.occurrences(ac), 4);
        assert_eq!(index.lookup(ac), &[0, 2, 4, 6]);
        let ca = codec.encode(&seq, 1).unwrap();
        assert_eq!(index.lookup(ca), &[1, 3, 5]);
        // A seed that never occurs.
        let tt = 0b11_11;
        assert_eq!(index.occurrences(tt), 0);
        assert!(index.lookup(tt).is_empty());
    }

    /// An index whose every invariant holds, to break one at a time.
    fn valid_index() -> (PackedSeq, SeedIndex) {
        let seq = gpumem_seq::GenomeModel::uniform().generate(600, 4);
        let index = build_sequential(&seq, Region::whole(&seq), 5, 2);
        index.validate(&seq).unwrap();
        (seq, index)
    }

    #[test]
    fn validate_rejects_a_set_bit_without_a_bucket() {
        let (seq, mut index) = valid_index();
        let absent = (0..1_024)
            .find(|&code| index.occurrences(code) == 0)
            .unwrap();
        let word = absent as usize / 64;
        index.present[word] |= 1 << (absent % 64);
        // Keep every rank consistent with the bitset.
        for rank in &mut index.ranks[word + 1..] {
            *rank += 1;
        }
        let err = index.validate(&seq).unwrap_err();
        assert!(err.contains("bucket starts"), "{err}");
    }

    #[test]
    fn validate_rejects_a_rank_off_by_one() {
        let (seq, mut index) = valid_index();
        index.ranks[7] += 1;
        let err = index.validate(&seq).unwrap_err();
        assert_eq!(
            err,
            format!(
                "rank of word 7 is {}, want {}",
                index.ranks[7],
                index.ranks[7] - 1
            )
        );
    }

    #[test]
    fn paper_bits_formula() {
        let seq = gpumem_seq::GenomeModel::uniform().generate(1_000, 8);
        let index = build_sequential(&seq, Region::whole(&seq), 4, 10);
        // n_locs = ceil((1000-4+1)/10) = 100; ceil(log2 1000) = 10;
        // ptrs: 4^4 = 256 seeds × ceil(log2 100) = 7 bits.
        assert_eq!(index.num_locations(), 100);
        assert_eq!(index.paper_bits(), 100 * 10 + 256 * 7);
        // Densely packed is below the u32 implementation.
        assert!(index.paper_bits() / 8 < index.memory_bytes() as u64);
    }

    #[test]
    fn memory_footprint_shrinks_with_step() {
        let seq = gpumem_seq::GenomeModel::uniform().generate(10_000, 3);
        let full = build_sequential(&seq, Region::whole(&seq), 8, 1);
        let sparse = build_sequential(&seq, Region::whole(&seq), 8, 38);
        assert!(sparse.num_locations() * 30 < full.num_locations() * 2);
        assert!(sparse.memory_bytes() < full.memory_bytes());
    }
}
