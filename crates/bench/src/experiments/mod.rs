//! One module per table/figure; each `run(scale, seed)` prints the
//! paper-shaped table and writes `results/<name>.tsv`. The binaries in
//! `src/bin/` are thin wrappers so `run_all` can reuse the logic.

pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod k40;
pub mod memtable;
pub mod stages;
pub mod table3;
pub mod table4;
