//! The charge-replay contract of `BlockCtx::record` / `BlockCtx::replay`.
//!
//! * A recording replayed on another block charges exactly what running
//!   its regions there charges: the same `LaunchStats`, the same phase
//!   rows under an observer, and the same sanitizer region ordinals
//!   with zero hazards. A recording made under a different block size,
//!   warp size or cost model is refused.
//! * The match kernel replays its known charges from scratch it keeps
//!   across rounds and blocks, so a warm scratch must give the same
//!   assignment, block output, block counters and phase rows as a fresh
//!   one — for empty, single-seed (every slot) and multi-seed rounds,
//!   every count of valid seed slots, dead combine iterations with
//!   none, one or every warp mixed, at every τ, with load balancing on
//!   and off, and under a compact index whose lookup overhead changes
//!   from row to row.
//! * The device-wide scan replays its block scan on every chunk after
//!   the first and still matches the host scan, and a sanitized index
//!   build over a many-chunk `ptrs` table stays hazard-free.

use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gpumem::core::balance::{balance_into, Assignment, BalanceScratch, GroupAssign};
use gpumem::core::block::{encode_query_seeds, process_block, BlockOutput, BlockScratch};
use gpumem::core::combine::{tree_combine_scheduled, CombineScratch};
use gpumem::core::GpumemConfig;
use gpumem::index::{build_compact_sequential, build_gpu, build_sequential, Region, SeedLookup};
use gpumem::seq::{GenomeModel, Mem, MutationModel, PackedSeq};
use gpumem::sim::primitives::device_exclusive_scan;
use gpumem::sim::{
    sanitizer, BlockCtx, CostModel, Device, DeviceSpec, GpuU32, LaunchConfig, LaunchObserver,
    LaunchRecord, LaunchStats, Op, PhaseStats, RegionCharge,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TAUS: [usize; 4] = [2, 32, 64, 128];

fn tiny() -> Device {
    Device::new(DeviceSpec::test_tiny())
}

fn without_wall(mut stats: LaunchStats) -> LaunchStats {
    stats.wall_time = Duration::ZERO;
    stats
}

/// Regions whose charge depends on thread id alone: several op classes,
/// a divergent branch and a masked range. They touch no device buffer,
/// so they may be replayed.
fn known_regions(ctx: &mut BlockCtx<'_>) {
    ctx.simt(|lane| {
        lane.charge(Op::GlobalLoad, 1);
        if lane.branch(lane.tid % 3 == 0) {
            lane.compare(lane.tid as u64);
        }
    });
    ctx.simt_range(5..40, |lane| {
        lane.charge(Op::Atomic, 1);
        lane.shared(2);
    });
}

/// Observer keeping every launch's phase rows.
#[derive(Default)]
struct PhaseLog(Mutex<Vec<Vec<PhaseStats>>>);

impl LaunchObserver for PhaseLog {
    fn on_launch(&self, record: LaunchRecord<'_>) {
        self.0.lock().unwrap().push(record.phases.to_vec());
    }
}

#[test]
fn replay_charges_what_running_the_regions_charges() {
    for observed in [false, true] {
        let device = tiny();
        let log = Arc::new(PhaseLog::default());
        if observed {
            device.set_observer(Some(log.clone()));
        }
        let cfg = LaunchConfig::new(3, 65);
        let run = device.launch_fn(cfg, |ctx| {
            ctx.phase("known");
            known_regions(ctx);
            ctx.phase("tail");
            ctx.simt(|lane| lane.compare(1));
        });
        let memo = Mutex::new(None);
        let replayed = device.launch_fn(cfg, |ctx| {
            ctx.phase("known");
            let ran = ctx.replay_or_record(&mut memo.lock().unwrap(), known_regions);
            assert_eq!(ran, ctx.block_id == 0, "block 0 records, the rest replay");
            ctx.phase("tail");
            ctx.simt(|lane| lane.compare(1));
        });
        assert_eq!(
            without_wall(replayed),
            without_wall(run),
            "observed={observed}"
        );
        let phases = log.0.lock().unwrap();
        if observed {
            assert_eq!(phases[1], phases[0], "identical phase rows");
            assert_eq!(phases[0].len(), 2);
        } else {
            assert!(phases.is_empty());
        }
    }
}

#[test]
fn replay_keeps_sanitizer_region_ordinals() {
    // Each block writes its half of `buf`, runs or replays the known
    // regions, reads its half back and, when probing, makes one
    // out-of-bounds read whose report carries the region ordinal.
    let sanitized = |replay: bool, probe: bool| {
        let device = tiny();
        let buf = GpuU32::named(64, "buf");
        let memo = Mutex::new(None);
        let session = sanitizer::Session::start();
        device.launch_fn_named(LaunchConfig::new(2, 32), "replay", |ctx| {
            let base = ctx.block_id * 32;
            ctx.simt(|lane| lane.st32(&buf, base + lane.tid, 1));
            if replay {
                ctx.replay_or_record(&mut memo.lock().unwrap(), known_regions);
            } else {
                known_regions(ctx);
            }
            ctx.simt(|lane| {
                let v = lane.ld32(&buf, base + lane.tid);
                lane.st32(&buf, base + lane.tid, v + 1);
            });
            if probe {
                ctx.simt_range(0..1, |lane| {
                    lane.ld32(&buf, 64 + lane.block_id);
                });
            }
        });
        session.finish()
    };
    for replay in [false, true] {
        let report = sanitized(replay, false);
        assert!(report.is_clean(), "replay={replay}: {report}");
    }
    let ordinals = |replay: bool| -> Vec<(u32, u32)> {
        let report = sanitized(replay, true);
        report
            .hazards
            .iter()
            .map(|h| (h.first.block, h.first.region))
            .collect()
    };
    let run = ordinals(false);
    assert_eq!(run, vec![(0, 4), (1, 4)], "write, 2 known, read, probe");
    assert_eq!(ordinals(true), run);
}

#[test]
fn replay_refuses_a_recording_made_under_another_key() {
    let record = |device: &Device, tau: usize| -> RegionCharge {
        let memo = Mutex::new(None);
        device.launch_fn(LaunchConfig::new(1, tau), |ctx| {
            assert!(ctx.replay_or_record(&mut memo.lock().unwrap(), known_regions));
        });
        memo.into_inner().unwrap().expect("recorded")
    };
    let recording = record(&tiny(), 64);
    let accepted = tiny().launch_fn(LaunchConfig::new(1, 64), |ctx| {
        assert!(ctx.replay(&recording));
    });
    assert_eq!(accepted.warps, 2 + 2, "two regions of two warps each");

    let narrow_warps = Device::new(DeviceSpec {
        warp_size: 16,
        ..DeviceSpec::test_tiny()
    });
    let pricier = Device::with_cost_model(
        DeviceSpec::test_tiny(),
        CostModel {
            global_load: 17,
            ..CostModel::default()
        },
    );
    for (why, device, tau) in [
        ("block size", tiny(), 32),
        ("warp size", narrow_warps, 64),
        ("cost model", pricier, 64),
    ] {
        let refused = device.launch_fn(LaunchConfig::new(1, tau), |ctx| {
            assert!(!ctx.replay(&recording), "{why}");
        });
        assert_eq!(refused.warps + refused.lane_cycles, 0, "{why}: charged");
        // The memoizing form runs the regions instead and keeps the new
        // recording.
        let memo = Mutex::new(Some(recording.clone()));
        let ran = device.launch_fn(LaunchConfig::new(1, tau), |ctx| {
            assert!(ctx.replay_or_record(&mut memo.lock().unwrap(), known_regions));
        });
        assert!(ran.warps > 0);
        assert_eq!(
            memo.into_inner().unwrap(),
            Some(record(&device, tau)),
            "{why}"
        );
    }
}

/// One balance round as its own launch over `scratch`: the assignment
/// and what the launch charged.
fn balance_round(
    loads: &[u32],
    enabled: bool,
    scratch: &mut BalanceScratch,
) -> (Assignment, LaunchStats) {
    let cell = Mutex::new((Assignment::default(), scratch));
    let stats = tiny().launch_fn(LaunchConfig::new(1, loads.len()), |ctx| {
        let (out, scratch) = &mut *cell.lock().unwrap();
        balance_into(ctx, loads, enabled, scratch, out);
    });
    (cell.into_inner().unwrap().0, without_wall(stats))
}

#[test]
fn warm_scratch_balances_every_single_seed_slot_like_a_fresh_one() {
    for tau in TAUS {
        let mut vectors = vec![vec![0u32; tau]];
        for slot in 0..tau {
            let mut loads = vec![0u32; tau];
            loads[slot] = 1 + slot as u32;
            vectors.push(loads);
        }
        vectors.push((0..tau as u32).map(|k| k % 3).collect());
        vectors.push((0..tau as u32).map(|k| 7 * u32::from(k % 5 == 0)).collect());
        for enabled in [true, false] {
            // Warmed on every vector, so the scan and every single-seed
            // slot hold a recording.
            let mut warm = BalanceScratch::default();
            for loads in &vectors {
                balance_round(loads, enabled, &mut warm);
            }
            for loads in &vectors {
                let fresh = balance_round(loads, enabled, &mut BalanceScratch::default());
                let replayed = balance_round(loads, enabled, &mut warm);
                assert_eq!(replayed, fresh, "τ={tau} enabled={enabled} {loads:?}");
            }
        }
    }
}

#[test]
fn lone_full_group_replay_covers_nothing_else() {
    // One group holding every thread serves slot 0, as load balancing
    // assigns a single-seed round; the combine records it once. A
    // continuation in slot 1 must still merge, and the one-thread group
    // of the same round without load balancing must still run.
    let full = Assignment {
        groups: vec![GroupAssign {
            seed_slot: 0,
            threads: 0..4,
        }],
        group_of_thread: vec![0; 4],
    };
    let one_thread = Assignment {
        groups: vec![GroupAssign {
            seed_slot: 0,
            threads: 0..1,
        }],
        group_of_thread: vec![0, usize::MAX, usize::MAX, usize::MAX],
    };
    let head = Mem { r: 0, q: 0, len: 4 };
    let tail = Mem { r: 4, q: 4, len: 4 };
    let mut warm = CombineScratch::new(4);
    let alone = vec![vec![head], vec![], vec![], vec![]];
    let recorded = combine_run(&full, &alone, &mut warm);
    assert_eq!(recorded.0, alone, "nothing to merge");
    assert_eq!(combine_run(&full, &alone, &mut warm), recorded);
    let neighbour = vec![vec![head], vec![tail], vec![], vec![]];
    let fresh = combine_run(&full, &neighbour, &mut CombineScratch::new(4));
    let merged = combine_run(&full, &neighbour, &mut warm);
    assert_eq!(merged, fresh);
    assert_eq!(merged.0[0], vec![Mem { r: 0, q: 0, len: 8 }]);
    assert!(merged.1.comparisons > recorded.1.comparisons);
    let unbalanced = combine_run(&one_thread, &alone, &mut CombineScratch::new(4));
    assert_eq!(combine_run(&one_thread, &alone, &mut warm), unbalanced);
    assert_ne!(unbalanced.1, recorded.1, "a different charge to replay");
}

/// A device whose launches log their phase rows.
fn observed() -> (Device, Arc<PhaseLog>) {
    let device = tiny();
    let log = Arc::new(PhaseLog::default());
    device.set_observer(Some(log.clone()));
    (device, log)
}

/// What one launch produced and charged: its output, its counters and
/// its phase rows.
type Observed<T> = (T, LaunchStats, Vec<PhaseStats>);

/// One block over the first block width of `query` against the row
/// `row` of `reference` indexed by `index`, as its own launch.
fn block_run(
    reference: &PackedSeq,
    query: &PackedSeq,
    index: &dyn SeedLookup,
    row: Range<usize>,
    config: &GpumemConfig,
    scratch: &mut BlockScratch,
) -> Observed<BlockOutput> {
    let block_q = 0..config.block_width().min(query.len());
    let mut query_codes = Vec::new();
    encode_query_seeds(query, config.seed_len, &mut query_codes);
    let (device, log) = observed();
    let cell = Mutex::new((BlockOutput::default(), scratch));
    let stats = device.launch_fn(LaunchConfig::new(1, config.threads_per_block), |ctx| {
        let (out, scratch) = &mut *cell.lock().unwrap();
        process_block(
            ctx,
            reference,
            query,
            &query_codes,
            index,
            config,
            row.clone(),
            block_q.clone(),
            scratch,
            out,
        );
    });
    let output = cell.into_inner().unwrap().0;
    let phases = log.0.lock().unwrap().pop().expect("one launch");
    (output, without_wall(stats), phases)
}

/// One combine round as its own launch: the triplets it leaves, what it
/// charged, and its phase rows.
fn combine_run(
    assignment: &Assignment,
    triplets: &[Vec<Mem>],
    scratch: &mut CombineScratch,
) -> Observed<Vec<Vec<Mem>>> {
    let (device, log) = observed();
    let cell = Mutex::new((triplets.to_vec(), scratch));
    let tau = triplets.len();
    let stats = device.launch_fn(LaunchConfig::new(1, tau), |ctx| {
        let (t, scratch) = &mut *cell.lock().unwrap();
        ctx.phase("combine");
        tree_combine_scheduled(ctx, assignment, scratch, t);
    });
    let phases = log.0.lock().unwrap().pop().expect("one launch");
    (cell.into_inner().unwrap().0, without_wall(stats), phases)
}

/// An assignment of explicit `(slot, threads)` groups over `tau`
/// threads; threads no group covers are idle.
fn assign(tau: usize, groups: &[(usize, Range<usize>)]) -> Assignment {
    let mut group_of_thread = vec![usize::MAX; tau];
    for (g, (_, threads)) in groups.iter().enumerate() {
        group_of_thread[threads.clone()].fill(g);
    }
    Assignment {
        groups: groups
            .iter()
            .map(|(slot, threads)| GroupAssign {
                seed_slot: *slot,
                threads: threads.clone(),
            })
            .collect(),
        group_of_thread,
    }
}

/// One triplet on each listed slot, every one on diagonal 100 so that
/// triplets of neighbouring slots chain when an iteration pairs them.
fn chain_lists(tau: usize, slots: &[usize]) -> Vec<Vec<Mem>> {
    let mut lists = vec![Vec::new(); tau];
    for &k in slots {
        let q = 4 * k as u32;
        lists[k].push(Mem {
            r: q + 100,
            q,
            len: 4,
        });
    }
    lists
}

/// Multi-seed rounds whose first combine iteration (sources even, each
/// absorbing its right neighbour) merges nothing, with none, one and
/// every warp mixing lanes that have a target and lanes that have none.
/// Later iterations pair non-empty slots and merge. Groups may serve an
/// empty slot, which the kernel never assigns but the combine allows.
fn dead_iteration_rounds(tau: usize, warp: usize) -> Vec<(Assignment, Vec<Vec<Mem>>)> {
    let warps = tau.div_ceil(warp);
    let span = |w: usize| w * warp..((w + 1) * warp).min(tau);
    let split = |w: usize| {
        let r = span(w);
        (r.start..r.start + r.len() / 2, r.start + r.len() / 2..r.end)
    };
    let mut rounds = Vec::new();
    // No warp mixed: one group per warp on an odd slot, which has no
    // target in the first iteration; slot 0 holds triplets no thread
    // serves.
    let groups: Vec<_> = (0..warps).map(|w| (2 * w + 1, span(w))).collect();
    let mut slots: Vec<usize> = groups.iter().map(|g| g.0).collect();
    slots.push(0);
    rounds.push((assign(tau, &groups), chain_lists(tau, &slots)));
    if tau == 2 {
        // One warp, mixed: slot 0's target, slot 1, is empty.
        let groups = [(0, 0..1), (1, 1..2)];
        rounds.push((assign(tau, &groups), chain_lists(tau, &[0])));
        return rounds;
    }
    // One warp mixed: warp 0 splits between slot 0 (target 1, empty)
    // and slot 3 (no target); the other warps serve odd slots.
    let (lo, hi) = split(0);
    let mut groups = vec![(0, lo), (3, hi)];
    groups.extend((1..warps).map(|w| (2 * w + 3, span(w))));
    let slots: Vec<usize> = groups.iter().map(|g| g.0).collect();
    rounds.push((assign(tau, &groups), chain_lists(tau, &slots)));
    // Every warp mixed: each warp splits between slot 4w (target
    // 4w + 1, empty) and slot 4w + 3 (no target).
    let groups: Vec<_> = (0..warps)
        .flat_map(|w| {
            let (lo, hi) = split(w);
            [(4 * w, lo), (4 * w + 3, hi)]
        })
        .collect();
    let slots: Vec<usize> = groups.iter().map(|g| g.0).collect();
    rounds.push((assign(tau, &groups), chain_lists(tau, &slots)));
    rounds
}

#[test]
fn warm_scratch_replays_dead_combine_iterations_like_a_fresh_one() {
    for tau in TAUS {
        let warp = tiny().spec().warp_size;
        let warps = tau.div_ceil(warp);
        let rounds = dead_iteration_rounds(tau, warp);
        let mut warm = CombineScratch::new(tau);
        for (assignment, triplets) in &rounds {
            combine_run(assignment, triplets, &mut warm);
        }
        // One recording per mixed-warp count: 0, 1 and every warp.
        let counts: std::collections::BTreeSet<usize> = [0, 1, warps].into();
        assert_eq!(warm.recordings(), counts.len(), "τ={tau}");
        for (assignment, triplets) in &rounds {
            let fresh = combine_run(assignment, triplets, &mut CombineScratch::new(tau));
            assert_eq!(
                combine_run(assignment, triplets, &mut warm),
                fresh,
                "τ={tau} {assignment:?}"
            );
        }
        // The same non-empty slots without load balancing: one thread
        // per slot and idle threads, so every iteration runs.
        for (_, triplets) in &rounds {
            let loads: Vec<u32> = triplets.iter().map(|t| t.len() as u32).collect();
            let (unbalanced, _) = balance_round(&loads, false, &mut BalanceScratch::default());
            let mut cold = CombineScratch::new(tau);
            let fresh = combine_run(&unbalanced, triplets, &mut cold);
            assert_eq!(cold.recordings(), 0, "τ={tau}: replayed with idle threads");
            assert_eq!(combine_run(&unbalanced, triplets, &mut warm), fresh);
        }
    }
}

#[test]
fn device_scan_matches_the_host_and_index_builds_stay_hazard_free() {
    let device = tiny();
    let mut rng = StdRng::seed_from_u64(13);
    for n in [1usize, 4095, 4096, 4097, 65537] {
        let input: Vec<u32> = (0..n).map(|_| rng.gen_range(0..1_000)).collect();
        let expect: Vec<u32> = input
            .iter()
            .scan(0u32, |acc, &v| {
                let out = *acc;
                *acc += v;
                Some(out)
            })
            .collect();
        let buf = GpuU32::from_slice(&input);
        let session = sanitizer::Session::start();
        device_exclusive_scan(&device, &buf);
        let report = session.finish();
        assert!(report.is_clean(), "n={n}: {report}");
        assert_eq!(buf.to_vec(), expect, "n={n}");
    }
    // ℓs = 7: a 16,385-entry `ptrs` table, scanned in five chunks.
    let reference = GenomeModel::mammalian().generate(3_000, 14);
    let session = sanitizer::Session::start();
    let (index, _) = build_gpu(&device, &reference, Region::whole(&reference), 7, 2);
    let report = session.finish();
    assert!(report.is_clean(), "index build: {report}");
    assert_eq!(
        index,
        build_sequential(&reference, Region::whole(&reference), 7, 2)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A scratch warmed on other rounds gives the assignment and charge
    /// of a fresh one.
    #[test]
    fn warm_balance_scratch_matches_a_fresh_one(
        tau_ix in 0usize..4,
        enabled: bool,
        kind in 0u8..3,
        slot in 0usize..128,
        raw in proptest::collection::vec(0u32..9, 128),
        warmup in proptest::collection::vec(0u32..9, 128),
    ) {
        let tau = TAUS[tau_ix];
        // Sparse multi-seed loads: about a third of the slots.
        let sparse = |v: &[u32]| -> Vec<u32> {
            v[..tau].iter().map(|&x| x.saturating_sub(5)).collect()
        };
        let loads = match kind {
            0 => vec![0; tau],
            1 => {
                let mut loads = vec![0; tau];
                loads[slot % tau] = 1 + raw[0];
                loads
            }
            _ => sparse(&raw),
        };
        let mut warm = BalanceScratch::default();
        balance_round(&sparse(&warmup), enabled, &mut warm);
        balance_round(&loads, enabled, &mut warm);
        let fresh = balance_round(&loads, enabled, &mut BalanceScratch::default());
        prop_assert_eq!(balance_round(&loads, enabled, &mut warm), fresh);
    }

    /// A block scratch that already served other blocks gives the output,
    /// charge and phase rows of a fresh one. ℓs = 8 keeps random seed
    /// hits rare, so rounds mix empty, single-seed and multi-seed ones
    /// at every τ. The query is cut to end mid-block at every count of
    /// valid seed slots, and consecutive blocks alternate between two
    /// rows, whose compact indexes differ in lookup overhead.
    #[test]
    fn warm_block_scratch_matches_a_fresh_one(
        tau_ix in 0usize..4,
        load_balancing: bool,
        compact: bool,
        seed in 0u64..1_000,
    ) {
        let tau = TAUS[tau_ix];
        let config = GpumemConfig::builder(12)
            .seed_len(8)
            .threads_per_block(tau)
            .blocks_per_tile(1)
            .load_balancing(load_balancing)
            .build()
            .unwrap();
        let reference = GenomeModel::mammalian().generate(1_500, seed);
        let model = MutationModel { sub_rate: 0.03, indel_rate: 0.003 };
        let mut rng = StdRng::seed_from_u64(seed);
        let codes = reference.to_codes();
        let query_a = PackedSeq::from_codes(&model.apply(&codes[300..1_100], &mut rng));
        let query_b = model.apply(&codes[100..900], &mut rng);
        // Row 0 samples at most 40 seeds (Δs = 5), so its compact
        // directory's binary search takes at most 6 loads; row 1 holds
        // at least 64 distinct codes for every `seed` drawn here, so it
        // takes more.
        let rows = [0..200, 200..reference.len()];
        let indexes: Vec<Box<dyn SeedLookup>> = rows
            .iter()
            .map(|row| {
                let region = Region { start: row.start, len: row.len() };
                if compact {
                    Box::new(build_compact_sequential(&reference, region, config.seed_len, config.step))
                        as Box<dyn SeedLookup>
                } else {
                    Box::new(build_sequential(&reference, region, config.seed_len, config.step))
                }
            })
            .collect();
        if compact {
            prop_assert_ne!(
                indexes[0].lookup_overhead_loads(),
                indexes[1].lookup_overhead_loads()
            );
        }
        let run = |query: &PackedSeq, n: usize, scratch: &mut BlockScratch| {
            let row = n % 2;
            block_run(
                &reference,
                query,
                indexes[row].as_ref(),
                rows[row].clone(),
                &config,
                scratch,
            )
        };
        let mut warm = BlockScratch::new(tau);
        for n in 0..3 {
            run(&query_a, n, &mut warm);
        }
        // Cut after ℓs − 1 + n·w bases, every round of the block has
        // exactly n slots whose seed fits the query.
        for n in 0..=tau {
            let cut = (config.seed_len - 1 + n * config.w()).min(query_b.len());
            let query = PackedSeq::from_codes(&query_b[..cut]);
            let fresh = run(&query, n, &mut BlockScratch::new(tau));
            prop_assert_eq!(run(&query, n, &mut warm), fresh, "n = {}", n);
        }
        let warps = tau.div_ceil(tiny().spec().warp_size);
        prop_assert!(warm.recordings() <= (tau + 1) + 2 * tau + 1 + warps + 1);
    }
}
