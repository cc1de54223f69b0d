//! Per-block MEM extraction (§III-B): the work of one GPU block over
//! one `ℓ_tile × ℓ_block` region.
//!
//! The block sweeps the `w` rounds; round `i` assigns the `τ` query
//! locations `block_start + i + k·w` (k = 0..τ) to threads (all of a
//! MEM's anchors share one round, because anchors are spaced exactly
//! `w` along the diagonal — `Δs` in `RefOnly`, `k1·k2` in
//! `DualSampled`). Under dual sampling only rounds whose query
//! locations are global multiples of `k2` are executed — the query side
//! of the copMEM co-prime pair — so a block runs `k1` of its `w`
//! rounds instead of all of them. Each executed round runs the four
//! steps of §III-B: load balancing, triplet generation with right
//! extension, the tree combine, and per-base expansion with
//! in-/out-block classification.

use std::ops::Range;

use gpu_sim::{BlockCtx, Op, RegionCharge};
use gpumem_index::{SeedCodec, SeedIndex};
use gpumem_seq::{Mem, PackedSeq};

use crate::balance::{balance_into, Assignment, BalanceScratch};
use crate::combine::{tree_combine_scheduled, CombineScratch};
use crate::config::GpumemConfig;
use crate::expand::{expand_within, Bounds};
use crate::generate::{generate_triplets, lce_cost};

/// The two result classes of a block (§III-B4).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockOutput {
    /// True MEMs (≥ L, mismatch/sequence-bounded) — transferred to the
    /// host for reporting.
    pub in_block: Vec<Mem>,
    /// Boundary-touching fragments — kept on the device for the tile
    /// merge. Not length-filtered (they may grow across the boundary).
    pub out_block: Vec<Mem>,
}

/// Reusable per-block working storage. The pipeline hoists one of
/// these across every block of every tile, so repeated launches stop
/// allocating (blocks execute sequentially — see the `gpu_sim::exec`
/// docs — so a single scratch serves the whole grid). It also keeps
/// the recorded charges the kernel replays (DESIGN.md §8): τ + 1 for
/// the seed lookup, and in its balance and combine scratch one for the
/// scans, one per slot for each of the single-seed balance and combine,
/// and ⌈τ/warp⌉ + 1 for dead combine iterations.
pub struct BlockScratch {
    tau: usize,
    /// `seed_lookup[n]`: charge of the seed-lookup region when the first
    /// `n` slots hold a seed, under the lookup overhead `lookup_overhead`.
    seed_lookup: Vec<Option<RegionCharge>>,
    lookup_overhead: u64,
    q_of_slot: Vec<Option<usize>>,
    codes: Vec<Option<u32>>,
    loads: Vec<u32>,
    triplets: Vec<Vec<Mem>>,
    assignment: Assignment,
    balance: BalanceScratch,
    combine: CombineScratch,
}

impl BlockScratch {
    /// Scratch for blocks of `tau` threads (a power of two ≥ 2, as the
    /// combine schedule requires).
    pub fn new(tau: usize) -> BlockScratch {
        BlockScratch {
            tau,
            seed_lookup: vec![None; tau + 1],
            lookup_overhead: 0,
            q_of_slot: vec![None; tau],
            codes: vec![None; tau],
            loads: vec![0; tau],
            triplets: vec![Vec::new(); tau],
            assignment: Assignment::default(),
            balance: BalanceScratch::default(),
            combine: CombineScratch::new(tau),
        }
    }

    /// Number of recorded charges this scratch holds; never more than
    /// (τ + 1) + 2τ + 1 + ⌈τ/warp⌉ + 1.
    pub fn recordings(&self) -> usize {
        self.seed_lookup.iter().flatten().count()
            + self.balance.recordings()
            + self.combine.recordings()
    }
}

/// Write the seed code of every query position whose seed fits the
/// query into `codes` (`codes[q]` for `q + seed_len ≤ query.len()`).
/// The pipeline encodes a run's query once and hands the codes to every
/// block of every tile row.
pub fn encode_query_seeds(query: &PackedSeq, seed_len: usize, codes: &mut Vec<u32>) {
    let codec = SeedCodec::new(seed_len);
    let n = (query.len() + 1).saturating_sub(seed_len);
    codes.clear();
    codes.extend((0..n).map(|q| codec.encode(query, q).expect("seed fits the query")));
}

/// Process one block inside a launched kernel, appending its results
/// to `output`.
///
/// `query_codes` holds the query's seed codes from
/// [`encode_query_seeds`].
pub fn process_block(
    ctx: &mut BlockCtx<'_>,
    reference: &PackedSeq,
    query: &PackedSeq,
    query_codes: &[u32],
    index: &SeedIndex,
    config: &GpumemConfig,
    row_range: Range<usize>,
    block_q: Range<usize>,
    scratch: &mut BlockScratch,
    output: &mut BlockOutput,
) {
    debug_assert_eq!(index.codec().seed_len(), config.seed_len);
    debug_assert_eq!(
        query_codes.len(),
        (query.len() + 1).saturating_sub(config.seed_len)
    );
    let tau = ctx.block_dim;
    debug_assert_eq!(tau, config.threads_per_block);
    debug_assert_eq!(tau, scratch.tau, "scratch sized for a different τ");
    let w = config.w();
    let cap = config.generation_cap();
    let bounds = Bounds {
        r: row_range,
        q: block_q.clone(),
    };
    if block_q.is_empty() {
        return;
    }

    let BlockScratch {
        seed_lookup,
        lookup_overhead,
        q_of_slot,
        codes,
        loads,
        triplets,
        assignment,
        balance: balance_scratch,
        combine: combine_scratch,
        ..
    } = scratch;
    // Seed-lookup charges include the index layout's lookup overhead,
    // which the compact index sets per row: recordings made under
    // another overhead are dropped, never replayed.
    let overhead = index.lookup_overhead_loads();
    if *lookup_overhead != overhead {
        seed_lookup.fill(None);
        *lookup_overhead = overhead;
    }

    // Round r probes query locations ≡ block_q.start + r (mod w). Dual
    // sampling only probes global multiples of k2, so start from the
    // first round on that grid and advance k2 at a time (w is a
    // multiple of k2, so every slot of a kept round stays on the grid).
    // RefOnly has q_step = 1: every round, exactly the paper's sweep.
    let q_step = config.query_step();
    debug_assert_eq!(w % q_step, 0);
    let first_round = (q_step - block_q.start % q_step) % q_step;
    // A slot's seed may read past the block edge but must fit the query:
    // slot k probes q = block_q.start + round + k·w, valid while q is
    // below `probe_end`.
    let probe_end = block_q.end.min(query_codes.len());
    for round in (first_round..w).step_by(q_step) {
        // q grows with k, so the valid slots are a prefix, and a lane's
        // charge depends only on whether its slot is valid. The region
        // charges; its results — each slot's bucket load and, when any
        // is non-zero, location and seed code — come from the host, and
        // the charge is replayed once recorded for this prefix length.
        let q0 = block_q.start + round;
        let n_valid = probe_end.saturating_sub(q0).div_ceil(w).min(tau);
        ctx.phase("seed_lookup");
        ctx.replay_or_record(&mut seed_lookup[n_valid], |ctx| {
            ctx.simt(|lane| {
                lane.charge(Op::Alu, 3); // the slot's location and validity
                lane.charge(Op::GlobalLoad, 1); // read the seed
                if lane.tid < n_valid {
                    lane.charge(Op::GlobalLoad, 2 + overhead); // bucket bounds
                }
            });
        });
        for k in 0..tau {
            loads[k] = if k < n_valid {
                index.occurrences(query_codes[q0 + k * w]) as u32
            } else {
                0
            };
        }
        if loads.iter().all(|&l| l == 0) {
            continue;
        }
        for k in 0..tau {
            q_of_slot[k] = (k < n_valid).then_some(q0 + k * w);
            codes[k] = q_of_slot[k].map(|q| query_codes[q]);
        }

        // Step 1: proactive load balancing (Algorithm 2).
        ctx.phase("balance");
        balance_into(
            ctx,
            loads,
            config.load_balancing,
            balance_scratch,
            assignment,
        );
        if assignment.groups.is_empty() {
            continue;
        }

        // Step 2: generate + right-extend triplets.
        ctx.phase("generate");
        for slot in triplets.iter_mut() {
            slot.clear();
        }
        generate_triplets(
            ctx, reference, query, index, assignment, q_of_slot, codes, cap, triplets,
        );

        // Step 3: tree combine (Algorithm 3).
        ctx.phase("combine");
        tree_combine_scheduled(ctx, assignment, combine_scratch, triplets);

        // Step 4: expand survivors per base and classify.
        ctx.phase("expand");
        expand_static(
            ctx, reference, query, assignment, &bounds, config, triplets, output,
        );
    }
}

/// The paper's expansion step: threads of a group split its surviving
/// triplets as in generation; charges accumulate into locals and post
/// in one batch per lane.
fn expand_static(
    ctx: &mut BlockCtx<'_>,
    reference: &PackedSeq,
    query: &PackedSeq,
    assignment: &Assignment,
    bounds: &Bounds,
    config: &GpumemConfig,
    triplets: &[Vec<Mem>],
    output: &mut BlockOutput,
) {
    ctx.simt(|lane| {
        let g = assignment.group_of_thread[lane.tid];
        if lane.branch(g == crate::balance::IDLE) {
            return;
        }
        let group = &assignment.groups[g];
        let list = &triplets[group.seed_slot];
        let (mut lce_loads, mut lce_compares, mut stores) = (0u64, 0u64, 0u64);
        let mut i = lane.tid - group.threads.start;
        while i < list.len() {
            let mem = list[i];
            if mem.len > 0 {
                let (expanded, compared) = expand_within(reference, query, mem, bounds);
                let (loads, compares) = lce_cost(compared);
                lce_loads += loads;
                lce_compares += compares;
                stores += 1;
                if expanded.touches_boundary {
                    output.out_block.push(expanded.mem);
                } else if expanded.mem.len >= config.min_len {
                    output.in_block.push(expanded.mem);
                }
            }
            i += group.threads.len();
        }
        lane.charge(Op::GlobalLoad, lce_loads);
        lane.compare(lce_compares);
        lane.charge(Op::GlobalStore, stores);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Device, DeviceSpec, LaunchConfig};
    use gpumem_index::{build_sequential, Region};
    use gpumem_seq::{canonicalize, is_maximal_exact, naive_mems, GenomeModel};

    /// Run a single block covering the whole query against the whole
    /// reference (one row, one block).
    fn run_single_block(
        reference: &PackedSeq,
        query: &PackedSeq,
        config: &GpumemConfig,
    ) -> BlockOutput {
        let index = build_sequential(
            reference,
            Region::whole(reference),
            config.seed_len,
            config.step,
        );
        let device = Device::new(DeviceSpec::test_tiny());
        let mut query_codes = Vec::new();
        encode_query_seeds(query, config.seed_len, &mut query_codes);
        let mut out = BlockOutput::default();
        device.launch(
            LaunchConfig::new(1, config.threads_per_block),
            "test",
            |ctx| {
                let mut scratch = BlockScratch::new(config.threads_per_block);
                process_block(
                    ctx,
                    reference,
                    query,
                    &query_codes,
                    &index,
                    config,
                    0..reference.len(),
                    0..query.len(),
                    &mut scratch,
                    &mut out,
                );
            },
        );
        out
    }

    fn config(min_len: u32, seed_len: usize, tau: usize) -> GpumemConfig {
        GpumemConfig::builder(min_len)
            .seed_len(seed_len)
            .threads_per_block(tau)
            .blocks_per_tile(1)
            .build()
            .unwrap()
    }

    #[test]
    fn single_block_covering_everything_finds_all_mems() {
        // Query embeds reference segments so real MEMs exist.
        let spec = gpumem_seq::PairSpec {
            name: "block-test".into(),
            reference_name: "r".into(),
            query_name: "q".into(),
            ref_len: 700,
            query_len: 400, // fits one block: ℓ_block = 64·7 = 448
            relatedness: 0.7,
            divergence: (0.01, 0.05),
            l_values: vec![12],
            seed_len: 6,
            model: GenomeModel::mammalian(),
        };
        let pair = spec.realize(7);
        let (reference, query) = (pair.reference, pair.query);
        // Block covers everything, so when the query fits inside one
        // block every MEM is in-block (sequence ends are not window
        // boundaries).
        let cfg = config(12, 6, 64);
        assert!(cfg.block_width() >= query.len(), "query fits one block");
        let output = run_single_block(&reference, &query, &cfg);
        assert!(output.out_block.is_empty(), "no interior boundaries");
        let got = canonicalize(output.in_block);
        let expect = naive_mems(&reference, &query, 12);
        assert_eq!(got, expect);
    }

    #[test]
    fn in_block_mems_satisfy_the_definition() {
        let reference = GenomeModel::mammalian().generate(900, 103);
        let query = GenomeModel::mammalian().generate(600, 104);
        let cfg = config(8, 4, 32);
        let output = run_single_block(&reference, &query, &cfg);
        for &mem in &output.in_block {
            assert!(is_maximal_exact(&reference, &query, mem, 8), "{mem:?}");
        }
    }

    #[test]
    fn dual_sampling_block_equals_ref_only_block() {
        // L = 12, ℓs = 6 → coverage bound 7; (2, 3) is a valid co-prime
        // pair. τ = 128 keeps the whole query in one block for both
        // geometries.
        let spec = gpumem_seq::PairSpec {
            name: "block-dual".into(),
            reference_name: "r".into(),
            query_name: "q".into(),
            ref_len: 700,
            query_len: 400,
            relatedness: 0.7,
            divergence: (0.01, 0.05),
            l_values: vec![12],
            seed_len: 6,
            model: GenomeModel::mammalian(),
        };
        let pair = spec.realize(9);
        let (reference, query) = (pair.reference, pair.query);
        let ref_only = config(12, 6, 128);
        let dual = GpumemConfig::builder(12)
            .seed_len(6)
            .threads_per_block(128)
            .blocks_per_tile(1)
            .seed_mode(gpumem_index::SeedMode::DualSampled { k1: 2, k2: 3 })
            .build()
            .unwrap();
        assert!(dual.block_width() >= query.len() && ref_only.block_width() >= query.len());
        let a = run_single_block(&reference, &query, &ref_only);
        let b = run_single_block(&reference, &query, &dual);
        let b_in = canonicalize(b.in_block);
        assert_eq!(canonicalize(a.in_block), b_in);
        assert_eq!(canonicalize(b.out_block), canonicalize(a.out_block));
        assert_eq!(b_in, naive_mems(&reference, &query, 12));
    }

    #[test]
    fn load_balancing_off_gives_identical_output() {
        let reference = GenomeModel::mammalian().generate(800, 105);
        let query = GenomeModel::mammalian().generate(500, 106);
        let on = config(10, 5, 32);
        let off = GpumemConfig::builder(10)
            .seed_len(5)
            .threads_per_block(32)
            .blocks_per_tile(1)
            .load_balancing(false)
            .build()
            .unwrap();
        let a = run_single_block(&reference, &query, &on);
        let b = run_single_block(&reference, &query, &off);
        assert_eq!(canonicalize(a.in_block), canonicalize(b.in_block));
        assert_eq!(canonicalize(a.out_block), canonicalize(b.out_block));
    }

    #[test]
    fn narrow_block_emits_boundary_fragments() {
        // Identical sequences, block covering only part of the query:
        // the diagonal MEM must surface as out-block fragments, not be
        // lost or reported short.
        let text = GenomeModel::uniform().generate(200, 107);
        let cfg = config(8, 4, 4); // block width = 4 * 5 = 20 < 200
        let index = build_sequential(&text, Region::whole(&text), 4, 5);
        let mut text_codes = Vec::new();
        encode_query_seeds(&text, 4, &mut text_codes);
        let device = Device::new(DeviceSpec::test_tiny());
        let mut output = BlockOutput::default();
        device.launch(LaunchConfig::new(1, 4), "test", |ctx| {
            let mut scratch = BlockScratch::new(4);
            process_block(
                ctx,
                &text,
                &text,
                &text_codes,
                &index,
                &cfg,
                0..text.len(),
                40..60, // interior query window
                &mut scratch,
                &mut output,
            );
        });
        // The self-match diagonal crosses both edges of the window.
        assert!(
            output
                .out_block
                .iter()
                .any(|m| m.diagonal() == 0 && m.len >= 20),
            "main diagonal fragment missing: {:?}",
            output.out_block
        );
        // No in-block MEM may claim the main diagonal (it is not
        // maximal inside the window).
        assert!(output.in_block.iter().all(|m| m.diagonal() != 0));
    }

    #[test]
    fn empty_block_range_is_a_noop() {
        let text = GenomeModel::uniform().generate(100, 108);
        let cfg = config(8, 4, 4);
        let index = build_sequential(&text, Region::whole(&text), 4, 5);
        let mut text_codes = Vec::new();
        encode_query_seeds(&text, 4, &mut text_codes);
        let device = Device::new(DeviceSpec::test_tiny());
        let mut out = BlockOutput::default();
        device.launch(LaunchConfig::new(1, 4), "test", |ctx| {
            let mut scratch = BlockScratch::new(4);
            process_block(
                ctx,
                &text,
                &text,
                &text_codes,
                &index,
                &cfg,
                0..100,
                50..50,
                &mut scratch,
                &mut out,
            );
        });
        assert_eq!(out, BlockOutput::default());
    }
}
