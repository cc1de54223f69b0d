//! The four workloads: seeded input generators, configurations, and the
//! reason each one exists.
//!
//! Every generator takes the workload seed and nothing else, so the same
//! seed gives the same inputs on every machine. Each reference is
//! generated from the `quick` bench's data seed 2024, the same for every
//! workload seed; the workload seed draws what is sent against it (the
//! query's mutations, or the `serve` windows). From one generated genome
//! to the next, repeat content swings a run's work by up to a fifth
//! (`pair`: 41k to 73k MEMs over five seeds), which would read as
//! run-to-run noise. The seed offsets mirror the `quick` bench
//! (`crates/bench/src/bin/quick.rs`), so `pair` at seed 2024 is exactly
//! its pipeline dataset.
//!
//! `BENCHMARK.json` times `pair`, `repeats` and `serve`. `long_l` runs
//! the same way from the command line and in the tests; it stays out of
//! the timed set because the run budget does not hold a fourth workload
//! at a run length that keeps the others steady. So the few large
//! launches where a seed-mode rule can win are not timed.

use gpumem::core::GpumemConfig;
use gpumem::seq::{GenomeModel, MutationModel, PackedSeq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One named workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Pair,
    LongL,
    Repeats,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Pair,
        Workload::LongL,
        Workload::Repeats,
        Workload::Serve,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Pair => "pair",
            Workload::LongL => "long_l",
            Workload::Repeats => "repeats",
            Workload::Serve => "serve",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (the `why` of its `BENCHMARK.json` entry).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Pair => {
                "one-shot genome pair at L=25: 1275 small launches, so the SIMT executor and \
                 per-launch cost dominate wall time (the quick dataset)"
            }
            Workload::LongL => {
                "lightly mutated pair at L=300: a few large launches, where a seed-mode rule \
                 can win and per-warp interpretation cost remains"
            }
            Workload::Repeats => {
                "repeat-rich pair at L=25 (Fig. 6 seed skew): the only workload where tile \
                 merge, global merge and host glue do real work"
            }
            Workload::Serve => {
                "one closed-loop client on one warm registry-hosted engine: engine dispatch, \
                 worker checkout and latency accounting with no index work"
            }
        }
    }

    /// `true` for the workloads timed through `Gpumem::run`.
    pub fn is_one_shot(self) -> bool {
        self != Workload::Serve
    }
}

/// Seed length, block width and tile width shared by every workload
/// (the `quick` dataset's geometry).
const SEED_LEN: usize = 8;
const THREADS_PER_BLOCK: usize = 64;
const BLOCKS_PER_TILE: usize = 4;

fn config(min_len: u32) -> GpumemConfig {
    GpumemConfig::builder(min_len)
        .seed_len(SEED_LEN)
        .threads_per_block(THREADS_PER_BLOCK)
        .blocks_per_tile(BLOCKS_PER_TILE)
        .build()
        .expect("benchmark configurations are valid")
}

fn mutate(codes: &[u8], sub_rate: f64, indel_rate: f64, seed: u64) -> PackedSeq {
    let model = MutationModel {
        sub_rate,
        indel_rate,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    PackedSeq::from_codes(&model.apply(codes, &mut rng))
}

/// A reference, one query and the configuration to compare them under.
pub struct PairInputs {
    pub reference: PackedSeq,
    pub query: PackedSeq,
    pub config: GpumemConfig,
}

/// The `pair` reference: the `quick` dataset's mammalian-model genome.
fn pair_reference(tiny: bool) -> PackedSeq {
    let len = if tiny { 6_000 } else { 120_000 };
    GenomeModel::mammalian().generate(len, QUICK_SEED)
}

/// The `quick` bench's data seed, from which every reference is made.
pub const QUICK_SEED: u64 = 2024;

/// Inputs of a one-shot workload. `tiny` shrinks every length so the
/// benchmark's own tests run in a moment.
pub fn pair_inputs(workload: Workload, seed: u64, tiny: bool) -> PairInputs {
    match workload {
        // A 120 kb mammalian reference and a copy with 3% substitutions
        // and 0.3% indels: 27×27 tiles at L = 25.
        Workload::Pair => {
            let reference = pair_reference(tiny);
            let query = mutate(&reference.to_codes(), 0.03, 0.003, seed + 1);
            PairInputs {
                reference,
                query,
                config: config(25),
            }
        }
        // Light mutation, so MEMs of 300+ bases occur; Δs = 293 makes
        // the tile grid coarse and the launches few and large.
        Workload::LongL => {
            let len = if tiny { 12_000 } else { LONG_L_REF_LEN };
            let reference = GenomeModel::mammalian().generate(len, QUICK_SEED + 2);
            let query = mutate(&reference.to_codes(), 0.001, 0.0001, seed + 3);
            PairInputs {
                reference,
                query,
                config: config(300),
            }
        }
        // A 400 bp motif planted many times plus a 600 bp homopolymer:
        // a few seed codes own most of the occurrence mass. The motif is
        // part of the workload's definition, not of its seed: how many
        // MEMs its planted copies produce depends strongly on its
        // sequence, and the workload must weigh the same for every seed.
        Workload::Repeats => {
            let (len, copies) = if tiny { (8_000, 6) } else { (60_000, 48) };
            let mut codes = GenomeModel::mammalian()
                .generate(len, QUICK_SEED + 4)
                .to_codes();
            let motif = GenomeModel::mammalian()
                .generate(REPEAT_MOTIF_LEN, REPEAT_MOTIF_SEED)
                .to_codes();
            for copy in 0..copies {
                let at = 1_000 + copy * ((len - 2_000) / copies);
                codes[at..at + REPEAT_MOTIF_LEN].copy_from_slice(&motif);
            }
            for slot in &mut codes[200..800] {
                *slot = 1; // homopolymer: one seed code, 600 locations
            }
            let query = mutate(&codes, 0.02, 0.002, seed + 6);
            PairInputs {
                reference: PackedSeq::from_codes(&codes),
                query,
                config: config(25),
            }
        }
        Workload::Serve => panic!("serve is not a one-shot workload"),
    }
}

/// Reference length of `long_l`, chosen so one run takes about as long
/// as one `pair` run.
const LONG_L_REF_LEN: usize = 360_000;
const REPEAT_MOTIF_LEN: usize = 400;
/// The `quick` skewed scenario's motif seed at its data seed 2024.
const REPEAT_MOTIF_SEED: u64 = 2029;

/// The `serve` inputs: the `pair` reference and a pool of short queries
/// the client draws from.
pub struct ServeInputs {
    pub reference: PackedSeq,
    pub queries: Vec<PackedSeq>,
    pub config: GpumemConfig,
}

/// Seeded 2 kb windows of the `pair` reference, each with 2%
/// substitutions and 0.2% indels, as a resequencing client would send.
pub fn serve_inputs(seed: u64, tiny: bool) -> ServeInputs {
    let reference = pair_reference(tiny);
    let (pool, window) = if tiny { (4, 500) } else { (96, 2_000) };
    let codes = reference.to_codes();
    let mut rng = StdRng::seed_from_u64(seed + 7);
    let queries = (0..pool)
        .map(|i| {
            let at = rng.gen_range(0..codes.len() - window);
            mutate(&codes[at..at + window], 0.02, 0.002, seed + 8 + i as u64)
        })
        .collect();
    ServeInputs {
        reference,
        queries,
        config: config(25),
    }
}
