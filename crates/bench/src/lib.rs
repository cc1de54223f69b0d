//! Experiment harness shared by the table/figure binaries.
//!
//! Every binary regenerates one table or figure of the paper (see
//! DESIGN.md §4 for the experiment index) at a configurable scale:
//!
//! * `GPUMEM_SCALE` — dataset scale relative to the paper's Mbp sizes
//!   (default `1/256`; `1.0` reproduces the full sizes);
//! * `GPUMEM_SEED` — generator seed (default 42);
//! * `GPUMEM_OUT` — output directory for TSV files (default `results`).
//!
//! GPU-side numbers are the simulator's **modeled device seconds**
//! (Tesla K20c cost model); CPU baselines report measured wall seconds.
//! The comparison is about *shape*, not absolute values — the paper
//! itself measures the two sides on different machines.

pub mod datasets;
pub mod experiments;
pub mod report;
pub mod timing;

pub use datasets::{experiment_rows, harness_scale, harness_seed, scaled_seed_len, ExperimentRow};
pub use report::TsvWriter;
pub use timing::time_secs;

use gpumem_core::GpumemConfig;

/// The GPUMEM launch geometry used across experiments: τ = 128 threads
/// per block, 64 blocks per tile (scaled-down from the paper's 1 K-block
/// tiles to match the scaled datasets; ratios are preserved, and rows
/// stay long enough for the seed-occurrence skew to materialise inside
/// one partial index).
pub fn gpumem_config(min_len: u32, seed_len: usize, load_balancing: bool) -> GpumemConfig {
    GpumemConfig::builder(min_len)
        .seed_len(seed_len)
        .threads_per_block(128)
        .blocks_per_tile(64)
        .load_balancing(load_balancing)
        .build()
        .expect("harness parameters are always valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_config_is_valid_for_all_rows() {
        for row in experiment_rows(1.0 / 4096.0) {
            let config = gpumem_config(row.min_len, row.seed_len, true);
            assert_eq!(config.tile_len() % config.step, 0);
            assert!(config.seed_len <= row.min_len as usize);
        }
    }
}
