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
//!   split them under a [`ShardPlan`]. That split is summed, not run:
//!   every modeled field of a launch is a counter, a `Duration` sum or a
//!   max, so a shard's figures are exactly the sum of its rows' from the
//!   one run.
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
/// device). Every row appears in exactly one shard; a shard may be
/// empty when there are fewer rows than shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// `rows[s]` — the tile-row ids shard `s` owns, ascending.
    rows: Vec<Vec<usize>>,
}

impl ShardPlan {
    /// Balance `row_masses` (index `r` = estimated work of tile row
    /// `r`) across `n_shards` equally capable devices with the
    /// longest-processing-time greedy: rows heaviest-first, each to the
    /// least-loaded shard, ties to the lowest shard id. Deterministic.
    pub fn from_row_masses(n_shards: usize, row_masses: &[u64]) -> ShardPlan {
        let n_shards = n_shards.max(1);
        let mut order: Vec<usize> = (0..row_masses.len()).collect();
        order.sort_by_key(|&r| (std::cmp::Reverse(row_masses[r]), r));
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
        let mut load = vec![0u64; n_shards];
        for r in order {
            let target = (0..n_shards)
                .min_by_key(|&s| (load[s], s))
                .expect("at least one shard");
            rows[target].push(r);
            // Zero-mass rows still count one unit so they spread out
            // instead of all piling onto shard 0.
            load[target] += row_masses[r].max(1);
        }
        for shard in &mut rows {
            shard.sort_unstable();
        }
        ShardPlan { rows }
    }

    /// Number of shards (devices).
    pub fn n_shards(&self) -> usize {
        self.rows.len()
    }

    /// Tile-row ids owned by shard `s`, ascending.
    pub fn rows(&self, s: usize) -> &[usize] {
        &self.rows[s]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `plan` places each of the rows `0..n_rows` exactly once
    /// — the precondition for the byte-identity guarantee.
    fn covers(plan: &ShardPlan, n_rows: usize) -> bool {
        let mut all: Vec<usize> = plan.rows.iter().flatten().copied().collect();
        all.sort_unstable();
        all == (0..n_rows).collect::<Vec<_>>()
    }

    #[test]
    fn lpt_balances_skewed_masses() {
        // One huge row and many small ones: the huge row gets a shard
        // almost to itself.
        let masses = [100, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10];
        let plan = ShardPlan::from_row_masses(2, &masses);
        assert!(covers(&plan, masses.len()));
        let mass_of = |s: usize| -> u64 { plan.rows(s).iter().map(|&r| masses[r]).sum() };
        let (a, b) = (mass_of(0), mass_of(1));
        assert_eq!(a + b, 200);
        assert!(a.abs_diff(b) <= 20, "loads {a} vs {b} not balanced");
        // Row 0 (mass 100) sits alone-ish: its shard holds at most one
        // light row.
        let heavy_shard = (0..2).find(|&s| plan.rows(s).contains(&0)).unwrap();
        assert!(plan.rows(heavy_shard).len() <= 2);
    }

    #[test]
    fn equal_masses_cover_and_spread() {
        for (shards, rows) in [(1, 5), (2, 5), (4, 7), (7, 4), (3, 0)] {
            let plan = ShardPlan::from_row_masses(shards, &vec![1; rows]);
            assert_eq!(plan.n_shards(), shards);
            assert!(covers(&plan, rows), "{shards} shards x {rows} rows");
            let max = (0..shards).map(|s| plan.rows(s).len()).max().unwrap();
            let min = (0..shards).map(|s| plan.rows(s).len()).min().unwrap();
            assert!(max - min <= 1, "an equal-mass split is even");
        }
    }

    #[test]
    fn plans_are_deterministic() {
        let masses = [5, 9, 1, 9, 3, 7, 7];
        assert_eq!(
            ShardPlan::from_row_masses(3, &masses),
            ShardPlan::from_row_masses(3, &masses)
        );
    }
}
