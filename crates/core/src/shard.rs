//! Shard plans: how one run's tile rows would split across several
//! simulated devices.
//!
//! The paper's §IV loop walks one reference's tile rows on one device.
//! A row is a self-contained unit of work — it owns its partial index
//! and its tiles' kernels read nothing outside the row slice — so a
//! "cluster-shaped" run can hand disjoint row subsets to N devices (the
//! SaLoBa-style scatter/gather shape). Two things follow:
//!
//! * every run spreads its rows over the workers that simulate them,
//!   one host thread each: [`Gpumem::run`](crate::Gpumem::run)'s, or
//!   the engine workers free when a request arrives. No plan places
//!   them: each worker starts on a row of its own and then claims
//!   whichever row is next unclaimed, so a worker that starts late or
//!   stalls holds up one row, not a share fixed in advance;
//! * an engine request with [`RunOptions::shards`](crate::RunOptions)
//!   = n also reports its matching statistics as n devices would have
//!   split them under a round-robin [`ShardPlan`]. That split is
//!   summed, not run: every modeled field of a launch is a counter, a
//!   `Duration` sum or a max, so a shard's figures are exactly the sum
//!   of its rows' from the one run.
//!
//! ## Why the merged output is byte-identical
//!
//! The canonical MEM set of a run is
//! `canonicalize(in_block ∪ in_tile ∪ global_merge(out-tile fragments))`.
//! In-block and in-tile MEMs are per-tile products; out-tile fragments
//! are too — which fragments a tile emits depends only on the tile's
//! slice, never on which device launched it or in what order. So
//! running disjoint row subsets on separate devices, concatenating every
//! worker's fragments, and host-merging them **once** feeds the global
//! merge the exact multiset of fragments a single device would have
//! produced — and `global_merge` sorts before combining, so the result
//! is byte-identical, whichever worker claimed which row. The pipeline's
//! claim-loop tests (stalled and randomly delayed workers) and the
//! shard-count invariance test gate it.

/// An assignment of tile-row ids to shards (one shard per simulated
/// device): row `r` goes to shard `r mod n`. Every row appears in
/// exactly one shard; a shard is empty when there are fewer rows than
/// shards.
///
/// Every tile row covers `tile_len` reference bases but the last, which
/// may cover fewer, so no placement by bases covered balances better: a
/// longest-first greedy over those masses (each row to the least-loaded
/// shard, ties to the lowest) deals the rows out the same way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    n_shards: usize,
    n_rows: usize,
}

impl ShardPlan {
    /// Deal `n_rows` tile rows round-robin over `n_shards` (at least
    /// one) equally capable devices.
    pub fn round_robin(n_shards: usize, n_rows: usize) -> ShardPlan {
        ShardPlan {
            n_shards: n_shards.max(1),
            n_rows,
        }
    }

    /// Number of shards (devices).
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Tile-row ids owned by shard `s`, ascending.
    pub fn rows(&self, s: usize) -> impl ExactSizeIterator<Item = usize> {
        (s..self.n_rows).step_by(self.n_shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_and_spread() {
        for (shards, rows) in [(1, 5), (2, 5), (4, 7), (7, 4), (3, 0)] {
            let plan = ShardPlan::round_robin(shards, rows);
            assert_eq!(plan.n_shards(), shards);
            let mut all: Vec<usize> = (0..shards).flat_map(|s| plan.rows(s)).collect();
            all.sort_unstable();
            assert_eq!(all, (0..rows).collect::<Vec<_>>(), "{shards} x {rows}");
            let max = (0..shards).map(|s| plan.rows(s).len()).max().unwrap();
            let min = (0..shards).map(|s| plan.rows(s).len()).min().unwrap();
            assert!(max - min <= 1, "a round-robin split is even");
        }
    }

    #[test]
    fn row_r_goes_to_shard_r_mod_n() {
        let plan = ShardPlan::round_robin(3, 8);
        let rows: Vec<Vec<usize>> = (0..3).map(|s| plan.rows(s).collect()).collect();
        assert_eq!(rows, [vec![0, 3, 6], vec![1, 4, 7], vec![2, 5]]);
        assert_eq!(ShardPlan::round_robin(0, 2).rows(0).len(), 2);
    }
}
