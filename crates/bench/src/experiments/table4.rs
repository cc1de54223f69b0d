//! Table IV: MEM extraction times for the nine configurations.
//!
//! Same tool columns as Table III, plus the MEM count (all tools must
//! agree — the harness asserts it). Expected shape (DESIGN.md §4):
//! GPUMEM fastest everywhere; essaMEM τ = 8 the best CPU tool;
//! sparseMEM slows down as τ grows (its index gets sparser with τ);
//! extraction time grows for all tools as L shrinks.

use std::collections::HashMap;

use gpumem_baselines::{find_mems_parallel, EssaMem, MemFinder, Mummer, SlaMem, SparseMem};
use gpumem_core::Gpumem;
use gpumem_seq::DatasetPair;

use crate::experiments::table3::ESSA_K;
use crate::report::{secs, TsvWriter};
use crate::{experiment_rows, gpumem_config, time_secs};

/// Run the experiment; returns `(gpumem modeled secs, mem count)` per
/// row.
pub fn run(scale: f64, seed: u64) -> Vec<(f64, usize)> {
    println!("== Table IV: MEM extraction times (scale {scale:.6}, seed {seed}) ==");
    let rows = experiment_rows(scale);
    let mut writer = TsvWriter::new(
        "table4",
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
            "MEMs",
        ],
    );
    let mut cache: HashMap<String, DatasetPair> = HashMap::new();
    let mut results = Vec::new();

    for row in rows {
        let pair = cache
            .entry(row.pair.name.clone())
            .or_insert_with(|| row.realize(seed));
        let (reference, query) = (&pair.reference, &pair.query);
        let min_len = row.min_len;

        let mut cells = vec![row.pair.name.clone(), min_len.to_string()];
        let mut counts: Vec<usize> = Vec::new();

        // sparseMEM: index sparseness = τ, matched with τ threads.
        for tau in [1usize, 4, 8] {
            let finder = SparseMem::build(reference, tau);
            let (mems, t) = time_secs(|| find_mems_parallel(&finder, query, min_len, tau));
            counts.push(mems.len());
            cells.push(secs(t));
        }
        // essaMEM: fixed K, matched with τ threads.
        let essa = EssaMem::build(reference, ESSA_K);
        for tau in [1usize, 4, 8] {
            let (mems, t) = time_secs(|| find_mems_parallel(&essa, query, min_len, tau));
            counts.push(mems.len());
            cells.push(secs(t));
        }
        let mummer = Mummer::build(reference);
        let (mems, t_mummer) = time_secs(|| mummer.find_mems(query, min_len));
        counts.push(mems.len());
        cells.push(secs(t_mummer));
        let sla = SlaMem::build(reference);
        let (mems, t_sla) = time_secs(|| sla.find_mems(query, min_len));
        counts.push(mems.len());
        cells.push(secs(t_sla));

        // GPUMEM: modeled device time of the extraction launches.
        let gpumem = Gpumem::new(gpumem_config(min_len, row.seed_len, true));
        let result = gpumem
            .run(reference, query)
            .expect("K20c fits the scaled datasets");
        counts.push(result.mems.len());
        cells.push(secs(result.stats.matching.modeled_secs()));
        cells.push(secs(result.stats.match_wall.as_secs_f64()));

        // Every tool must report the identical MEM set size.
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "{}: tool outputs disagree: {counts:?}",
            row.label()
        );
        cells.push(counts[0].to_string());
        results.push((result.stats.matching.modeled_secs(), counts[0]));
        writer.row(&cells);
    }
    writer.finish().expect("write table4.tsv");
    results
}
