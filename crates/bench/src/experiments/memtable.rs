//! Index memory footprints (extension experiment E-M1).
//!
//! §III-A sizes the lightweight index against GPU memory (a full-index
//! `locs` for 1 Gbp would need 4 GB) and §IV-B contrasts it with the
//! CPU tools' index sizes. This harness reports, per configuration:
//! the paper's theoretical per-tile-row sizes (`n_locs·⌈log₂ ℓ_tile⌉`
//! bits for `locs`, `4^ℓs·⌈log₂ n_locs⌉` bits for `ptrs`), the actual
//! bytes of one partial index, and the CPU baselines' index bytes.

use std::collections::HashMap;

use gpumem_baselines::{EssaMem, MemFinder, Mummer, SlaMem, SparseMem};
use gpumem_index::{build_sequential, IndexKind, Region};
use gpumem_seq::DatasetPair;

use crate::report::TsvWriter;
use crate::{experiment_rows, gpumem_config};

fn mib(bytes: usize) -> String {
    format!("{:.3}", bytes as f64 / (1024.0 * 1024.0))
}

/// Run the experiment; returns `(gpumem row-index bytes, full-SA
/// bytes)` per row.
pub fn run(scale: f64, seed: u64) -> Vec<(usize, usize)> {
    println!("== Index memory footprints (scale {scale:.6}, seed {seed}) ==");
    let rows = experiment_rows(scale);
    let mut writer = TsvWriter::new(
        "memtable",
        &[
            "reference/query",
            "L",
            "gpumem.row.MiB",
            "gpumem.compact.MiB",
            "gpumem.paper.bits",
            "sparseMEM.k8.MiB",
            "essaMEM.k4.MiB",
            "MUMmer.MiB",
            "slaMEM.MiB",
        ],
    );
    let mut cache: HashMap<String, DatasetPair> = HashMap::new();
    let mut results = Vec::new();

    for row in rows {
        let pair = cache
            .entry(row.pair.name.clone())
            .or_insert_with(|| row.realize(seed));
        let reference = &pair.reference;
        let config = gpumem_config(row.min_len, row.seed_len, true);
        let region = Region {
            start: 0,
            len: config.tile_len().min(reference.len()),
        };
        let index = build_sequential(reference, region, config.seed_len, config.step);
        let paper_bits = index.paper_bits();
        let gpumem_bytes = index.memory_bytes();
        let compact_bytes = index.with_kind(IndexKind::CompactDirectory).memory_bytes();

        let sparse = SparseMem::build(reference, 8).index_bytes();
        let essa = EssaMem::build(reference, 4).index_bytes();
        let mummer = Mummer::build(reference).index_bytes();
        let sla = SlaMem::build(reference).index_bytes();

        writer.row(&[
            row.pair.name.clone(),
            row.min_len.to_string(),
            mib(gpumem_bytes),
            mib(compact_bytes),
            paper_bits.to_string(),
            mib(sparse),
            mib(essa),
            mib(mummer),
            mib(sla),
        ]);
        results.push((gpumem_bytes, mummer));
    }
    writer.finish().expect("write memtable.tsv");
    results
}
