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
//!
//! Two SaLoBa-style locality/balance variants ride on top of the
//! paper's kernel, both off by default and both output-preserving:
//!
//! * **shared-memory query staging** ([`stage_query_window`]): the
//!   block cooperatively copies the packed words of its query window
//!   into the shared-memory arena once, then every seed read and every
//!   query-side LCE word during generation/expansion is charged at
//!   shared- instead of global-memory cost;
//! * **persistent-block work stealing** (`generate_stealing` /
//!   `expand_stealing`): the round's work is *flattened* — a scan over
//!   the τ bucket loads turns (slot, occurrence) pairs into one dense
//!   index space — and published on the block's [`WorkQueue`] segment
//!   as up to 2τ count-equal contiguous chunks, drained in waves (one
//!   pop per lane per SIMT region, a host-side `pending` check standing
//!   in for the barrier between waves). A lane that pops a chunk owned
//!   by a different lane under the even static split records a steal.
//!   Generation only engages the queue on rounds heavy enough to
//!   amortize the atomic traffic (see `QUEUE_MIN_LANE_SHARE`) — light
//!   rounds keep Algorithm 2's split, whose integer granularity is
//!   already near-ideal there. Expansion is *deferred*: every round's
//!   post-combine triplets stay in the global triplet arena and one
//!   block-wide drain expands them after the sweep, so the queue
//!   rebalances the survivor distribution — which the static split,
//!   frozen from pre-combine loads, models poorly — at one reset/fill
//!   per block instead of per round. The tree combine keeps
//!   Algorithm 2's balanced groups (its conflict-free schedule is
//!   built from them), so `load_balancing` stays meaningful in
//!   stealing mode.

use std::ops::Range;

use gpu_sim::{BlockCtx, Lane, Op, RegionCharge, SharedArena, WorkQueue};
use gpumem_index::{SeedCodec, SeedLookup};
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
/// the recorded charges the kernel replays (DESIGN.md §8): 2(τ + 1) for
/// the seed lookup, and in its balance and combine scratch one for the
/// scans, one per slot for each of the single-seed balance and combine,
/// and ⌈τ/warp⌉ + 1 for dead combine iterations.
pub struct BlockScratch {
    tau: usize,
    /// `seed_lookup[2·n + s]`: charge of the seed-lookup region when the
    /// first `n` slots hold a seed and `s` says whether the query window
    /// is staged, under the lookup overhead `lookup_overhead`.
    seed_lookup: Vec<Option<RegionCharge>>,
    lookup_overhead: u64,
    q_of_slot: Vec<Option<usize>>,
    codes: Vec<Option<u32>>,
    loads: Vec<u32>,
    triplets: Vec<Vec<Mem>>,
    assignment: Assignment,
    balance: BalanceScratch,
    combine: CombineScratch,
    /// Flattened-offset scan of the round's bucket loads (τ+1 entries),
    /// the slot→flat-index map of the stealing drain.
    prefix: Vec<usize>,
    /// Stealing mode's deferred-expansion arena: every round's
    /// post-combine triplets, drained once per block.
    deferred: Vec<Mem>,
}

impl BlockScratch {
    /// Scratch for blocks of `tau` threads (a power of two ≥ 2, as the
    /// combine schedule requires).
    pub fn new(tau: usize) -> BlockScratch {
        BlockScratch {
            tau,
            seed_lookup: vec![None; 2 * (tau + 1)],
            lookup_overhead: 0,
            q_of_slot: vec![None; tau],
            codes: vec![None; tau],
            loads: vec![0; tau],
            triplets: vec![Vec::new(); tau],
            assignment: Assignment::default(),
            balance: BalanceScratch::default(),
            combine: CombineScratch::new(tau),
            prefix: vec![0; tau + 1],
            deferred: Vec::new(),
        }
    }

    /// Number of recorded charges this scratch holds; never more than
    /// 2(τ + 1) + 2τ + 1 + ⌈τ/warp⌉ + 1.
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

/// Generation engages the queue only when the round carries at least
/// this many flat elements per lane; below it the fixed queue traffic
/// (a reset, ~2 atomics per lane, the scan) outweighs what dynamic
/// chunking can recover from Algorithm 2's integer granularity.
const QUEUE_MIN_LANE_SHARE: usize = 8;

/// Flat-chunk size for one stealing drain: each queue item covers a
/// contiguous `chunk`-element range of the flattened work list, sized
/// for ~2 chunks per lane — fine enough that whole chunks can shift
/// between lanes, coarse enough that one push+pop (two atomics) stays
/// amortized over the chunk's work.
#[inline]
fn chunk_size(total: usize, tau: usize) -> usize {
    total.div_ceil(2 * tau).max(8)
}

/// Per-lane share of the even static split — the owner baseline that
/// decides which pops count as steals.
#[inline]
fn static_share(total: usize, tau: usize) -> usize {
    total.div_ceil(tau).max(1)
}

/// The lane that would own chunk `j`'s first element under the even
/// static split; a different popping lane has stolen the chunk.
#[inline]
fn home_lane(j: usize, chunk: usize, share: usize, tau: usize) -> usize {
    ((j * chunk) / share).min(tau - 1)
}

/// Queue-segment capacity that [`chunk_size`] can never overflow:
/// `ceil(total / chunk) ≤ 2τ` because `chunk ≥ total / 2τ`.
pub fn steal_queue_capacity(tau: usize) -> usize {
    2 * tau
}

/// Cooperatively copy the packed words covering `window` of `query`
/// into the block's shared-memory arena (the "stage" phase). Returns
/// `false` when the window does not fit the arena — the block then
/// falls back to global-memory accounting, matching a real kernel that
/// disables staging when the tile exceeds shared memory.
pub(crate) fn stage_query_window(
    ctx: &mut BlockCtx<'_>,
    query: &PackedSeq,
    arena: &mut SharedArena,
    window: Range<usize>,
) -> bool {
    arena.reset();
    if window.is_empty() {
        return false;
    }
    let words = window.len().div_ceil(32);
    let Some(buf) = arena.try_alloc(words) else {
        return false;
    };
    ctx.phase("stage");
    let tau = ctx.block_dim;
    ctx.simt(|lane| {
        let mut global_loads = 0u64;
        let mut j = lane.tid;
        while j < words {
            // One coalesced global read per packed word; the word is
            // rebuilt from the 2-bit codes it covers and parked in
            // shared memory for the whole block sweep.
            global_loads += 1;
            let base = window.start + j * 32;
            let span = 32.min(window.end - base);
            let mut word = 0u64;
            for b in 0..span {
                word |= (query.code(base + b) as u64) << (2 * b);
            }
            arena.store(lane, &buf, j, word);
            j += tau;
        }
        lane.charge(Op::GlobalLoad, global_loads);
    });
    true
}

/// Process one block inside a launched kernel, appending its results
/// to `output`.
///
/// `query_codes` holds the query's seed codes from
/// [`encode_query_seeds`]. `queue` selects the persistent-block
/// stealing variant of the generation and expansion steps; `arena`
/// enables shared-memory query staging. Both `None` reproduce the
/// paper's kernel byte for byte.
#[allow(clippy::too_many_arguments)]
pub fn process_block(
    ctx: &mut BlockCtx<'_>,
    reference: &PackedSeq,
    query: &PackedSeq,
    query_codes: &[u32],
    index: &dyn SeedLookup,
    config: &GpumemConfig,
    row_range: Range<usize>,
    block_q: Range<usize>,
    queue: Option<&WorkQueue>,
    arena: Option<&mut SharedArena>,
    scratch: &mut BlockScratch,
    output: &mut BlockOutput,
) {
    debug_assert_eq!(index.seed_len(), config.seed_len);
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

    // Stage the block's query window — seeds read up to ℓs past the
    // block edge and generation extends up to `cap`, so the window runs
    // that far beyond the block (cap ≥ ℓs by construction).
    let staged = match arena {
        Some(arena) => {
            let window = block_q.start..(block_q.end + cap).min(query.len());
            stage_query_window(ctx, query, arena, window)
        }
        None => false,
    };

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
        prefix,
        deferred,
        ..
    } = scratch;
    deferred.clear();
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
        // the charge is replayed once recorded for this prefix length
        // and staging.
        let q0 = block_q.start + round;
        let n_valid = probe_end.saturating_sub(q0).div_ceil(w).min(tau);
        ctx.phase("seed_lookup");
        ctx.replay_or_record(&mut seed_lookup[2 * n_valid + usize::from(staged)], |ctx| {
            ctx.simt(|lane| {
                lane.charge(Op::Alu, 3); // the slot's location and validity
                if staged {
                    lane.shared(1); // seed served from the staged window
                } else {
                    lane.charge(Op::GlobalLoad, 1); // read the seed
                }
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

        // Step 1: proactive load balancing (Algorithm 2). Stealing mode
        // still runs it — the tree combine schedules over its groups.
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

        // Step 2: generate + right-extend triplets. The queue only pays
        // for itself on heavy rounds; light rounds keep the paper's
        // balanced split even in stealing mode.
        ctx.phase("generate");
        for slot in triplets.iter_mut() {
            slot.clear();
        }
        let round_work: usize = loads.iter().map(|&l| l as usize).sum();
        match queue {
            Some(queue) if round_work >= QUEUE_MIN_LANE_SHARE * tau => generate_stealing(
                ctx, reference, query, index, queue, q_of_slot, codes, loads, prefix, cap, staged,
                triplets,
            ),
            _ => generate_triplets(
                ctx, reference, query, index, assignment, q_of_slot, codes, cap, staged, triplets,
            ),
        }

        // Step 3: tree combine (Algorithm 3).
        ctx.phase("combine");
        tree_combine_scheduled(ctx, assignment, combine_scratch, triplets);

        // Step 4: expand survivors per base and classify. Stealing mode
        // defers the whole sweep's expansion to one block-wide drain —
        // the triplets are already in the global arena (generation
        // stored them), so deferral costs nothing extra to keep.
        match queue {
            Some(_) => deferred.extend(triplets.iter().flatten().copied()),
            None => {
                ctx.phase("expand");
                expand_static(
                    ctx, reference, query, assignment, &bounds, config, staged, triplets, output,
                );
            }
        }
    }

    if let Some(queue) = queue {
        ctx.phase("expand");
        expand_stealing(
            ctx, reference, query, queue, &bounds, config, staged, deferred, output,
        );
        deferred.clear();
    }
}

/// The paper's expansion step: threads of a group split its surviving
/// triplets as in generation; charges accumulate into locals and post
/// in one batch per lane.
#[allow(clippy::too_many_arguments)]
fn expand_static(
    ctx: &mut BlockCtx<'_>,
    reference: &PackedSeq,
    query: &PackedSeq,
    assignment: &Assignment,
    bounds: &Bounds,
    config: &GpumemConfig,
    staged: bool,
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
        charge_lce(lane, lce_loads, lce_compares, staged);
        lane.charge(Op::GlobalStore, stores);
    });
}

/// Post one batch of accumulated LCE charges. With a staged query
/// window the query-side half of the packed-word reads is shared-memory
/// traffic; the reference side always comes from global memory.
#[inline]
fn charge_lce(lane: &mut Lane<'_>, lce_loads: u64, lce_compares: u64, staged: bool) {
    if staged {
        lane.charge(Op::GlobalLoad, lce_loads / 2);
        lane.shared(lce_loads / 2);
    } else {
        lane.charge(Op::GlobalLoad, lce_loads);
    }
    lane.compare(lce_compares);
}

/// Persistent-block triplet generation over the round's flattened work
/// list: a cooperative scan of the τ bucket loads yields the dense
/// (slot, occurrence) index space, count-equal contiguous chunks of it
/// go on the block's queue segment, and the block drains them in waves.
#[allow(clippy::too_many_arguments)]
fn generate_stealing(
    ctx: &mut BlockCtx<'_>,
    reference: &PackedSeq,
    query: &PackedSeq,
    index: &dyn SeedLookup,
    queue: &WorkQueue,
    q_of_slot: &[Option<usize>],
    codes: &[Option<u32>],
    loads: &[u32],
    prefix: &mut [usize],
    cap: usize,
    staged: bool,
    triplets: &mut [Vec<Mem>],
) {
    let tau = ctx.block_dim;
    let seg = ctx.block_id % queue.segments();
    debug_assert_eq!(prefix.len(), tau + 1);
    prefix[0] = 0;
    for k in 0..tau {
        prefix[k + 1] = prefix[k] + loads[k] as usize;
    }
    let total = prefix[tau];
    if total == 0 {
        return;
    }
    let chunk = chunk_size(total, tau);
    let share = static_share(total, tau);
    let n_chunks = total.div_ceil(chunk);
    let scan_steps = tau.trailing_zeros() as u64;

    // Reset the segment in its own region — the barrier every
    // persistent-block loop needs before refilling its queue.
    ctx.simt_range(0..1, |lane| queue.reset(lane, seg));

    // Fill: a Hillis–Steele scan over the bucket loads (log₂ τ
    // shared-memory rounds) publishes the flattened offsets, then the
    // lanes cooperatively push the chunk ordinals. Capacity cannot
    // overflow (see `steal_queue_capacity`); if a push is ever rejected
    // the pushing lane degrades to processing the chunk in place.
    ctx.simt(|lane| {
        lane.shared(2 * scan_steps);
        lane.charge(Op::Alu, scan_steps);
        let mut j = lane.tid;
        while j < n_chunks {
            if !queue.push(lane, seg, j as u32) {
                debug_assert!(false, "steal queue overflow");
                let range = j * chunk..total.min((j + 1) * chunk);
                generate_flat(
                    lane, reference, query, index, q_of_slot, codes, prefix, range, cap, staged,
                    triplets,
                );
            }
            j += tau;
        }
    });

    // Drain in waves: one pop per lane per region; the host-side
    // `pending` check between regions models the barrier that
    // synchronizes waves. With ≤ 2τ chunks the drain closes in two.
    while queue.pending(seg) > 0 {
        ctx.simt(|lane| {
            if let Some(item) = queue.pop(lane, seg) {
                let j = item as usize;
                if home_lane(j, chunk, share, tau) != lane.tid {
                    lane.record_steals(1);
                }
                let range = j * chunk..total.min((j + 1) * chunk);
                generate_flat(
                    lane, reference, query, index, q_of_slot, codes, prefix, range, cap, staged,
                    triplets,
                );
            }
        });
    }
}

/// Generate the triplets of one flat chunk, mirroring
/// [`generate_triplets`]'s per-element accounting. The popped ordinal
/// carries no slot, exactly as a persistent thread rediscovers its
/// work: a log₂ τ binary search over the scanned offsets finds the
/// first covered slot, and each slot segment re-reads its bucket
/// bounds once.
#[allow(clippy::too_many_arguments)]
fn generate_flat(
    lane: &mut Lane<'_>,
    reference: &PackedSeq,
    query: &PackedSeq,
    index: &dyn SeedLookup,
    q_of_slot: &[Option<usize>],
    codes: &[Option<u32>],
    prefix: &[usize],
    range: Range<usize>,
    cap: usize,
    staged: bool,
    triplets: &mut [Vec<Mem>],
) {
    if range.is_empty() {
        return;
    }
    let tau = prefix.len() - 1;
    lane.shared(tau.trailing_zeros() as u64);
    lane.compare(tau.trailing_zeros() as u64);
    let mut slot = prefix.partition_point(|&p| p <= range.start) - 1;
    let mut flat = range.start;
    while flat < range.end {
        // Zero-load slots occupy no flat space; step past them.
        while prefix[slot + 1] <= flat {
            slot += 1;
        }
        let (Some(q), Some(code)) = (q_of_slot[slot], codes[slot]) else {
            debug_assert!(false, "nonzero load implies a valid seed");
            return;
        };
        lane.charge(Op::GlobalLoad, 2 + index.lookup_overhead_loads());
        let bucket = index.lookup(code);
        let lo = flat - prefix[slot];
        let hi = (range.end - prefix[slot]).min(bucket.len());
        let (mut lce_loads, mut lce_compares) = (0u64, 0u64);
        for &r in &bucket[lo..hi] {
            let r = r as usize;
            let len = reference.lce_fwd(r, query, q, cap);
            debug_assert!(len >= index.seed_len().min(cap));
            let (loads, compares) = lce_cost(len);
            lce_loads += loads;
            lce_compares += compares;
            triplets[slot].push(Mem {
                r: r as u32,
                q: q as u32,
                len: len as u32,
            });
        }
        let visited = (hi - lo) as u64;
        lane.charge(Op::GlobalLoad, visited); // locs[j] reads
        charge_lce(lane, lce_loads, lce_compares, staged);
        lane.charge(Op::GlobalStore, visited);
        flat = prefix[slot] + hi;
        slot += 1;
    }
}

/// Persistent-block expansion: one drain over the whole sweep's
/// deferred post-combine triplets. The static split freezes threads to
/// pre-combine bucket loads, but the combine absorbs whole chains —
/// chunking the survivor list directly rebalances on the work that
/// actually remains, and running once per block amortizes the queue
/// traffic across every round.
#[allow(clippy::too_many_arguments)]
fn expand_stealing(
    ctx: &mut BlockCtx<'_>,
    reference: &PackedSeq,
    query: &PackedSeq,
    queue: &WorkQueue,
    bounds: &Bounds,
    config: &GpumemConfig,
    staged: bool,
    deferred: &[Mem],
    output: &mut BlockOutput,
) {
    let tau = ctx.block_dim;
    let seg = ctx.block_id % queue.segments();
    let total = deferred.len();
    if total == 0 {
        return;
    }
    let chunk = chunk_size(total, tau);
    let share = static_share(total, tau);
    let n_chunks = total.div_ceil(chunk);
    ctx.simt_range(0..1, |lane| queue.reset(lane, seg));
    ctx.simt(|lane| {
        let mut j = lane.tid;
        while j < n_chunks {
            if !queue.push(lane, seg, j as u32) {
                debug_assert!(false, "steal queue overflow");
                let range = j * chunk..total.min((j + 1) * chunk);
                expand_flat(
                    lane,
                    reference,
                    query,
                    bounds,
                    config,
                    staged,
                    &deferred[range],
                    output,
                );
            }
            j += tau;
        }
    });
    while queue.pending(seg) > 0 {
        ctx.simt(|lane| {
            if let Some(item) = queue.pop(lane, seg) {
                let j = item as usize;
                if home_lane(j, chunk, share, tau) != lane.tid {
                    lane.record_steals(1);
                }
                let range = j * chunk..total.min((j + 1) * chunk);
                expand_flat(
                    lane,
                    reference,
                    query,
                    bounds,
                    config,
                    staged,
                    &deferred[range],
                    output,
                );
            }
        });
    }
}

/// Expand one flat chunk of the deferred triplet list; combine-absorbed
/// entries (len 0) pass through for free, as in the static path.
#[allow(clippy::too_many_arguments)]
fn expand_flat(
    lane: &mut Lane<'_>,
    reference: &PackedSeq,
    query: &PackedSeq,
    bounds: &Bounds,
    config: &GpumemConfig,
    staged: bool,
    chunk: &[Mem],
    output: &mut BlockOutput,
) {
    let (mut lce_loads, mut lce_compares, mut stores) = (0u64, 0u64, 0u64);
    for &mem in chunk {
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
    }
    charge_lce(lane, lce_loads, lce_compares, staged);
    lane.charge(Op::GlobalStore, stores);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Device, DeviceSpec, LaunchConfig, LaunchStats};
    use gpumem_index::{build_sequential, Region};
    use gpumem_seq::{canonicalize, is_maximal_exact, naive_mems, GenomeModel};
    use parking_lot::Mutex;

    /// Run a single block covering the whole query against the whole
    /// reference (one row, one block), optionally with the stealing
    /// queue and/or the staging arena.
    fn run_block_variant(
        reference: &PackedSeq,
        query: &PackedSeq,
        config: &GpumemConfig,
        stealing: bool,
        staging: bool,
    ) -> (BlockOutput, LaunchStats) {
        let index = build_sequential(
            reference,
            Region::whole(reference),
            config.seed_len,
            config.step,
        );
        let device = Device::new(DeviceSpec::test_tiny());
        let mut query_codes = Vec::new();
        encode_query_seeds(query, config.seed_len, &mut query_codes);
        let queue = stealing.then(|| {
            WorkQueue::new(
                1,
                steal_queue_capacity(config.threads_per_block),
                "test.steal",
            )
        });
        let out = Mutex::new(BlockOutput::default());
        let stats = device.launch_fn(LaunchConfig::new(1, config.threads_per_block), |ctx| {
            let mut arena = staging.then(|| SharedArena::new(device.spec().shared_mem_per_block));
            let mut scratch = BlockScratch::new(config.threads_per_block);
            let mut block_out = BlockOutput::default();
            process_block(
                ctx,
                reference,
                query,
                &query_codes,
                &index,
                config,
                0..reference.len(),
                0..query.len(),
                queue.as_ref(),
                arena.as_mut(),
                &mut scratch,
                &mut block_out,
            );
            *out.lock() = block_out;
        });
        (out.into_inner(), stats)
    }

    fn run_single_block(
        reference: &PackedSeq,
        query: &PackedSeq,
        config: &GpumemConfig,
    ) -> BlockOutput {
        run_block_variant(reference, query, config, false, false).0
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
    fn stealing_and_staging_preserve_block_output() {
        // A repeat-heavy pair drives real skew through the queue.
        let mut codes = GenomeModel::mammalian().generate(500, 109).to_codes();
        codes.extend(std::iter::repeat(1u8).take(300)); // poly-C block
        codes.extend(GenomeModel::mammalian().generate(200, 110).to_codes());
        let reference = PackedSeq::from_codes(&codes);
        let query = PackedSeq::from_codes(&codes[200..800]);
        let cfg = config(12, 5, 128);
        assert!(cfg.block_width() >= query.len());
        let (base, base_stats) = run_block_variant(&reference, &query, &cfg, false, false);
        let expect_in = canonicalize(base.in_block.clone());
        let expect_out = canonicalize(base.out_block.clone());
        assert!(!expect_in.is_empty(), "fixture produces MEMs");
        let mut stats_of = std::collections::HashMap::new();
        stats_of.insert((false, false), base_stats);
        for (stealing, staging) in [(true, false), (false, true), (true, true)] {
            let (got, stats) = run_block_variant(&reference, &query, &cfg, stealing, staging);
            assert_eq!(
                canonicalize(got.in_block),
                expect_in,
                "{stealing}/{staging}"
            );
            assert_eq!(
                canonicalize(got.out_block),
                expect_out,
                "{stealing}/{staging}"
            );
            if stealing {
                assert!(stats.steal_events > 0, "skewed run must steal");
            } else {
                assert_eq!(stats.steal_events, 0);
            }
            stats_of.insert((stealing, staging), stats);
        }
        // Staging trades global for shared traffic; compare against the
        // matching stealing mode (the queue itself costs global ops, so
        // cross-mode comparisons would mix two effects).
        for stealing in [false, true] {
            let unstaged = &stats_of[&(stealing, false)];
            let staged = &stats_of[&(stealing, true)];
            assert!(
                staged.global_mem_ops < unstaged.global_mem_ops,
                "staging cuts global traffic (stealing={stealing})"
            );
            assert!(
                staged.lane_cycles < unstaged.lane_cycles,
                "shared-memory reads are modeled cheaper (stealing={stealing})"
            );
        }
    }

    #[test]
    fn staging_falls_back_when_arena_is_too_small() {
        let reference = GenomeModel::mammalian().generate(600, 111);
        let query = GenomeModel::mammalian().generate(400, 112);
        let cfg = config(10, 5, 64);
        let index = build_sequential(
            &reference,
            Region::whole(&reference),
            cfg.seed_len,
            cfg.step,
        );
        let device = Device::new(DeviceSpec::test_tiny());
        let mut query_codes = Vec::new();
        encode_query_seeds(&query, cfg.seed_len, &mut query_codes);
        let out = Mutex::new(BlockOutput::default());
        let stats = device.launch_fn(LaunchConfig::new(1, cfg.threads_per_block), |ctx| {
            let mut arena = SharedArena::new(8); // one word: far too small
            let mut scratch = BlockScratch::new(cfg.threads_per_block);
            let mut block_out = BlockOutput::default();
            process_block(
                ctx,
                &reference,
                &query,
                &query_codes,
                &index,
                &cfg,
                0..reference.len(),
                0..query.len(),
                None,
                Some(&mut arena),
                &mut scratch,
                &mut block_out,
            );
            *out.lock() = block_out;
        });
        let expect = run_single_block(&reference, &query, &cfg);
        assert_eq!(
            canonicalize(out.into_inner().in_block),
            canonicalize(expect.in_block)
        );
        // Fallback means the block behaves exactly like the unstaged
        // kernel — no stage phase, identical charges.
        let (_, base_stats) = run_block_variant(&reference, &query, &cfg, false, false);
        assert_eq!(stats.warp_cycles, base_stats.warp_cycles);
        assert_eq!(stats.lane_cycles, base_stats.lane_cycles);
        assert_eq!(stats.global_mem_ops, base_stats.global_mem_ops);
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
        let out = Mutex::new(BlockOutput::default());
        device.launch_fn(LaunchConfig::new(1, 4), |ctx| {
            let mut scratch = BlockScratch::new(4);
            let mut block_out = BlockOutput::default();
            process_block(
                ctx,
                &text,
                &text,
                &text_codes,
                &index,
                &cfg,
                0..text.len(),
                40..60, // interior query window
                None,
                None,
                &mut scratch,
                &mut block_out,
            );
            *out.lock() = block_out;
        });
        let output = out.into_inner();
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
        let out = Mutex::new(BlockOutput::default());
        device.launch_fn(LaunchConfig::new(1, 4), |ctx| {
            let mut scratch = BlockScratch::new(4);
            let mut block_out = BlockOutput::default();
            process_block(
                ctx,
                &text,
                &text,
                &text_codes,
                &index,
                &cfg,
                0..100,
                50..50,
                None,
                None,
                &mut scratch,
                &mut block_out,
            );
            *out.lock() = block_out;
        });
        assert_eq!(out.into_inner(), BlockOutput::default());
    }
}
