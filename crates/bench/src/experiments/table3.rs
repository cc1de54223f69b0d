//! Table III: index generation times for the nine configurations.
//!
//! Columns exactly as the paper: sparseMEM (τ = 1, 4, 8 — the tool
//! couples sparseness K to τ), essaMEM (τ = 1, 4, 8 — fixed K = 4),
//! MUMmer, slaMEM, GPUMEM. CPU tools report wall seconds of a build on
//! one thread (so essaMEM's τ columns repeat one build, and sparseMEM's
//! differ only by K); GPUMEM reports modeled device seconds (and wall
//! as a cross-check).
//! Expected shape (DESIGN.md §4): GPUMEM ≪ all CPU tools; GPUMEM's
//! build grows as L shrinks (Δs shrinks) while CPU builds are
//! L-independent; slaMEM's build is the slowest CPU build.

use std::collections::HashMap;

use gpumem_baselines::{EssaMem, Mummer, SlaMem, SparseMem};
use gpumem_core::Gpumem;
use gpumem_seq::DatasetPair;

use crate::report::{secs, TsvWriter};
use crate::{experiment_rows, gpumem_config, time_secs};

/// essaMEM's fixed sparseness across thread counts.
pub const ESSA_K: usize = 4;

/// Run the experiment; returns the GPUMEM modeled seconds per row (for
/// EXPERIMENTS.md assertions).
pub fn run(scale: f64, seed: u64) -> Vec<f64> {
    println!("== Table III: index generation times (scale {scale:.6}, seed {seed}) ==");
    let rows = experiment_rows(scale);
    let mut writer = TsvWriter::new(
        "table3",
        &[
            "reference/query",
            "L",
            "sparseMEM.t1",
            "sparseMEM.t4",
            "sparseMEM.t8",
            "essaMEM.t1",
            "essaMEM.t4",
            "essaMEM.t8",
            "MUMmer",
            "slaMEM",
            "GPUMEM.model",
            "GPUMEM.wall",
        ],
    );
    let mut cache: HashMap<String, DatasetPair> = HashMap::new();
    let mut gpumem_modeled = Vec::new();

    for row in rows {
        let pair = cache
            .entry(row.pair.name.clone())
            .or_insert_with(|| row.realize(seed));
        let reference = &pair.reference;

        let mut cells = vec![row.pair.name.clone(), row.min_len.to_string()];
        for tau in [1usize, 4, 8] {
            // sparseMEM couples K to τ (sparser index with more threads).
            let (_, t) = time_secs(|| SparseMem::build(reference, tau));
            cells.push(secs(t));
        }
        for _tau in [1usize, 4, 8] {
            let (_, t) = time_secs(|| EssaMem::build(reference, ESSA_K));
            cells.push(secs(t));
        }
        let (_, t_mummer) = time_secs(|| Mummer::build(reference));
        cells.push(secs(t_mummer));
        let (_, t_sla) = time_secs(|| SlaMem::build(reference));
        cells.push(secs(t_sla));

        let gpumem = Gpumem::new(gpumem_config(row.min_len, row.seed_len, true));
        let report = gpumem.build_index_only(reference);
        gpumem_modeled.push(report.stats.modeled_secs());
        cells.push(secs(report.stats.modeled_secs()));
        cells.push(secs(report.wall.as_secs_f64()));
        writer.row(&cells);
    }
    writer.finish().expect("write table3.tsv");
    gpumem_modeled
}
