//! Sharded tile-row execution: split one reference's tile rows across
//! several simulated devices.
//!
//! The paper's §IV loop walks one reference's tile rows on one device.
//! A row is a self-contained unit of work — it owns its partial index
//! and its tiles' kernels read nothing outside the row slice — so a
//! "cluster-shaped" run can hand disjoint row subsets to N devices and
//! run them concurrently (the SaLoBa-style scatter/gather shape).
//!
//! ## Why the merged output is byte-identical
//!
//! The canonical MEM set of a run is
//! `canonicalize(in_block ∪ in_tile ∪ global_merge(out-tile fragments))`.
//! In-block and in-tile MEMs are per-tile products; out-tile fragments
//! are too — which fragments a tile emits depends only on the tile's
//! slice, never on which device launched it or in what order. So
//! running disjoint row subsets on separate devices, concatenating every
//! shard's fragments, and host-merging them **once** feeds the global
//! merge the exact multiset of fragments a single device would have
//! produced — and `global_merge` sorts before combining, so the result
//! is byte-identical. [`ShardPlan`] only decides *placement*; it cannot
//! change the output, which is what the shard-count invariance proptest
//! gates.

use gpu_sim::DeviceSpec;

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
        let weights = vec![1.0; n_shards.max(1)];
        ShardPlan::weighted(&weights, row_masses)
    }

    /// Equal-mass rows across `n_shards` devices — round-robin by row
    /// id (what the LPT greedy degenerates to when every row weighs the
    /// same).
    pub fn uniform(n_shards: usize, n_rows: usize) -> ShardPlan {
        ShardPlan::from_row_masses(n_shards, &vec![1; n_rows])
    }

    /// Balance rows across a heterogeneous device set: each shard's
    /// capacity is its device's total core-Hz, so a K40 shard absorbs
    /// proportionally more row mass than a K20c shard. The greedy
    /// assigns rows heaviest-first to the shard whose *relative* load
    /// (`assigned mass / capacity`) is lowest.
    pub fn for_devices(specs: &[DeviceSpec], row_masses: &[u64]) -> ShardPlan {
        let weights: Vec<f64> = specs
            .iter()
            .map(|s| (s.total_cores() as f64) * s.clock_hz)
            .collect();
        ShardPlan::weighted(&weights, row_masses)
    }

    fn weighted(weights: &[f64], row_masses: &[u64]) -> ShardPlan {
        let n_shards = weights.len().max(1);
        let mut order: Vec<usize> = (0..row_masses.len()).collect();
        order.sort_by_key(|&r| (std::cmp::Reverse(row_masses[r]), r));
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
        let mut load = vec![0u64; n_shards];
        for r in order {
            let target = (0..n_shards)
                .min_by(|&a, &b| {
                    let la = load[a] as f64 / weights[a].max(f64::MIN_POSITIVE);
                    let lb = load[b] as f64 / weights[b].max(f64::MIN_POSITIVE);
                    la.partial_cmp(&lb).unwrap().then(a.cmp(&b))
                })
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

    /// Build a plan from explicit per-shard row lists (tests and
    /// hand-crafted placements). Rows are sorted within each shard.
    pub fn from_assignments(mut rows: Vec<Vec<usize>>) -> ShardPlan {
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

    /// Total rows assigned across all shards.
    pub fn n_rows(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// `true` if the plan covers `0..n_rows` exactly once — the
    /// precondition for the byte-identity guarantee.
    pub fn covers(&self, n_rows: usize) -> bool {
        let mut all: Vec<usize> = self.rows.iter().flatten().copied().collect();
        all.sort_unstable();
        all == (0..n_rows).collect::<Vec<_>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpt_balances_skewed_masses() {
        // One huge row and many small ones: the huge row gets a shard
        // almost to itself.
        let masses = [100, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10];
        let plan = ShardPlan::from_row_masses(2, &masses);
        assert!(plan.covers(masses.len()));
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
    fn uniform_covers_and_spreads() {
        for (shards, rows) in [(1, 5), (2, 5), (4, 7), (7, 4), (3, 0)] {
            let plan = ShardPlan::uniform(shards, rows);
            assert_eq!(plan.n_shards(), shards);
            assert!(plan.covers(rows), "{shards} shards x {rows} rows");
            let max = (0..shards).map(|s| plan.rows(s).len()).max().unwrap();
            let min = (0..shards).map(|s| plan.rows(s).len()).min().unwrap();
            assert!(max - min <= 1, "uniform split is even");
        }
    }

    #[test]
    fn device_weights_shift_rows_to_the_faster_card() {
        let masses = vec![10u64; 12];
        let specs = [DeviceSpec::tesla_k40(), DeviceSpec::test_tiny()];
        let plan = ShardPlan::for_devices(&specs, &masses);
        assert!(plan.covers(12));
        assert!(
            plan.rows(0).len() > plan.rows(1).len(),
            "the K40 shard ({} rows) should out-pull test-tiny ({} rows)",
            plan.rows(0).len(),
            plan.rows(1).len()
        );
    }

    #[test]
    fn plans_are_deterministic() {
        let masses = [5, 9, 1, 9, 3, 7, 7];
        assert_eq!(
            ShardPlan::from_row_masses(3, &masses),
            ShardPlan::from_row_masses(3, &masses)
        );
    }

    #[test]
    fn explicit_assignments_round_trip() {
        let plan = ShardPlan::from_assignments(vec![vec![2, 0], vec![1]]);
        assert_eq!(plan.rows(0), &[0, 2]);
        assert_eq!(plan.rows(1), &[1]);
        assert!(plan.covers(3));
        assert!(!plan.covers(4));
        assert_eq!(plan.n_rows(), 3);
    }
}
