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
//! * Algorithm 1's per-seed kernels — the scan's two passes, the cursor
//!   copy and the bucket sorts — build the same index and charge the
//!   same statistics computed as interpreted, on random, homopolymer and
//!   repeat references at every ℓs from 1 to 9, over empty, interior
//!   and tail rows. Both bodies are called directly: whether a sanitizer
//!   session is live is process-wide, so no test can count on the body
//!   `build_gpu` picks.
//! * On the same references, seed lengths, steps and rows, the dense
//!   index's host form answers `lookup` and `occurrences` for every seed
//!   code as a naive map from code to sampled positions does.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gpumem::core::balance::{balance_into, Assignment, BalanceScratch, GroupAssign};
use gpumem::core::block::{encode_query_seeds, process_block, BlockOutput, BlockScratch};
use gpumem::core::combine::{tree_combine_scheduled, CombineScratch};
use gpumem::core::GpumemConfig;
use gpumem::index::{
    build_compact_gpu, build_gpu, build_gpu_as, build_sequential, IndexKind, Region, SeedCodec,
    SeedIndex,
};
use gpumem::seq::{GenomeModel, Mem, MutationModel, PackedSeq};
use gpumem::sim::primitives::{device_exclusive_scan, device_exclusive_scan_as};
use gpumem::sim::{
    sanitizer, BlockCtx, Body, CostModel, Device, DeviceSpec, GpuU32, LaunchConfig, LaunchObserver,
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
        let run = device.launch(cfg, "test", |ctx| {
            ctx.phase("known");
            known_regions(ctx);
            ctx.phase("tail");
            ctx.simt(|lane| lane.compare(1));
        });
        let mut memo = None;
        let replayed = device.launch(cfg, "test", |ctx| {
            ctx.phase("known");
            let ran = ctx.replay_or_record(&mut memo, known_regions);
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
        let mut memo = None;
        let session = sanitizer::Session::start();
        device.launch(LaunchConfig::new(2, 32), "replay", |ctx| {
            let base = ctx.block_id * 32;
            ctx.simt(|lane| lane.st(&buf, base + lane.tid, 1));
            if replay {
                ctx.replay_or_record(&mut memo, known_regions);
            } else {
                known_regions(ctx);
            }
            ctx.simt(|lane| {
                let v = lane.ld(&buf, base + lane.tid);
                lane.st(&buf, base + lane.tid, v + 1);
            });
            if probe {
                ctx.simt_range(0..1, |lane| {
                    lane.ld(&buf, 64 + lane.block_id);
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
        let mut memo = None;
        device.launch(LaunchConfig::new(1, tau), "test", |ctx| {
            assert!(ctx.replay_or_record(&mut memo, known_regions));
        });
        memo.expect("recorded")
    };
    let recording = record(&tiny(), 64);
    let accepted = tiny().launch(LaunchConfig::new(1, 64), "test", |ctx| {
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
        let refused = device.launch(LaunchConfig::new(1, tau), "test", |ctx| {
            assert!(!ctx.replay(&recording), "{why}");
        });
        assert_eq!(refused.warps + refused.lane_cycles, 0, "{why}: charged");
        // The memoizing form runs the regions instead and keeps the new
        // recording.
        let mut memo = Some(recording.clone());
        let ran = device.launch(LaunchConfig::new(1, tau), "test", |ctx| {
            assert!(ctx.replay_or_record(&mut memo, known_regions));
        });
        assert!(ran.warps > 0);
        assert_eq!(memo, Some(record(&device, tau)), "{why}");
    }
}

/// One balance round as its own launch over `scratch`: the assignment
/// and what the launch charged.
fn balance_round(
    loads: &[u32],
    enabled: bool,
    scratch: &mut BalanceScratch,
) -> (Assignment, LaunchStats) {
    let mut out = Assignment::default();
    let stats = tiny().launch(LaunchConfig::new(1, loads.len()), "test", |ctx| {
        balance_into(ctx, loads, enabled, scratch, &mut out);
    });
    (out, without_wall(stats))
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
    index: &SeedIndex,
    row: Range<usize>,
    config: &GpumemConfig,
    scratch: &mut BlockScratch,
) -> Observed<BlockOutput> {
    let block_q = 0..config.block_width().min(query.len());
    let mut query_codes = Vec::new();
    encode_query_seeds(query, config.seed_len, &mut query_codes);
    let (device, log) = observed();
    let mut output = BlockOutput::default();
    let stats = device.launch(
        LaunchConfig::new(1, config.threads_per_block),
        "test",
        |ctx| {
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
                &mut output,
            );
        },
    );
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
    let mut t = triplets.to_vec();
    let tau = triplets.len();
    let stats = device.launch(LaunchConfig::new(1, tau), "test", |ctx| {
        ctx.phase("combine");
        tree_combine_scheduled(ctx, assignment, scratch, &mut t);
    });
    let phases = log.0.lock().unwrap().pop().expect("one launch");
    (t, without_wall(stats), phases)
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

/// `build_gpu_as` under `body` on a fresh device, so that both bodies
/// start from an empty pool: the index and every counter but wall.
fn index_build(
    seq: &PackedSeq,
    region: Region,
    seed_len: usize,
    step: usize,
    body: Body,
) -> (SeedIndex, LaunchStats) {
    let (index, stats) = build_gpu_as(&tiny(), seq, region, seed_len, step, body);
    (index, without_wall(stats))
}

/// The three references the index kernels are drawn on: uniform random
/// bases, a homopolymer (one bucket holds every location) and a
/// period-3 repeat (three buckets do).
fn index_references(len: usize, seed: u64) -> [(&'static str, PackedSeq); 3] {
    let repeat: Vec<u8> = (0..len).map(|i| [0, 1, 3][i % 3]).collect();
    [
        ("random", GenomeModel::uniform().generate(len, seed)),
        ("homopolymer", PackedSeq::from_codes(&vec![2; len])),
        ("repeat", PackedSeq::from_codes(&repeat)),
    ]
}

#[test]
fn computed_scan_matches_the_interpreted_reference() {
    let mut rng = StdRng::seed_from_u64(26);
    for n in [1usize, 4095, 4096, 4097, 16385, 65537] {
        let input: Vec<u32> = (0..n).map(|_| rng.gen_range(0..1_000)).collect();
        let scan = |body: Body| {
            let buf = GpuU32::from_slice(&input);
            let stats = device_exclusive_scan_as(&tiny(), &buf, body);
            (buf.to_vec(), without_wall(stats))
        };
        assert_eq!(scan(Body::Computed), scan(Body::Interpreted), "n={n}");
    }
}

/// The rows the index kernels are checked on: the whole sequence, an
/// empty row, an interior row and the tail row.
fn index_rows(seq: &PackedSeq) -> [Region; 4] {
    let len = seq.len();
    [
        Region::whole(seq),
        Region { start: 0, len: 0 },
        Region {
            start: 1_000,
            len: 900,
        },
        Region {
            start: len - 450,
            len: 450,
        },
    ]
}

/// Every ℓs from 1 to 9 on each reference, over [`index_rows`], at two
/// steps.
#[test]
fn computed_index_kernels_match_the_interpreted_references() {
    for (name, seq) in index_references(3_000, 27) {
        for seed_len in 1..=9 {
            for step in [1, 7] {
                for region in index_rows(&seq) {
                    let run = |body| index_build(&seq, region, seed_len, step, body);
                    let (index, stats) = run(Body::Computed);
                    let context = format!("{name}, ℓs {seed_len}, step {step}, {region:?}");
                    assert_eq!(
                        index,
                        build_sequential(&seq, region, seed_len, step),
                        "{context}"
                    );
                    assert_eq!((index, stats), run(Body::Interpreted), "{context}");
                }
            }
        }
    }
}

/// Every seed code's `lookup` and `occurrences`, host-built and
/// device-built in both layouts, against a naive map from code to the
/// row's sampled positions, over the cases of the test above.
#[test]
fn lookups_match_a_naive_map_at_every_code() {
    for (name, seq) in index_references(3_000, 27) {
        for seed_len in 1..=9 {
            let codec = SeedCodec::new(seed_len);
            for step in [1, 7] {
                for region in index_rows(&seq) {
                    let mut naive = BTreeMap::<u32, Vec<u32>>::new();
                    for pos in (region.start..region.end()).step_by(step) {
                        if let Some(code) = codec.encode(&seq, pos) {
                            naive.entry(code).or_default().push(pos as u32);
                        }
                    }
                    let host = build_sequential(&seq, region, seed_len, step);
                    let built = [
                        ("host dense", host.clone()),
                        ("host compact", host.with_kind(IndexKind::CompactDirectory)),
                        (
                            "device dense",
                            index_build(&seq, region, seed_len, step, Body::Computed).0,
                        ),
                        (
                            "device compact",
                            build_compact_gpu(&tiny(), &seq, region, seed_len, step).0,
                        ),
                    ];
                    for code in 0..codec.num_seeds() as u32 {
                        let want = naive.get(&code).map_or(&[][..], Vec::as_slice);
                        for (builder, index) in &built {
                            let context = || {
                                format!("{name}, ℓs {seed_len}, step {step}, {region:?}, {builder}, seed {code}")
                            };
                            assert_eq!(index.lookup(code), want, "{}", context());
                            assert_eq!(index.occurrences(code), want.len(), "{}", context());
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Drawn references, seed lengths, steps and rows — sequences
    /// shorter than a seed among them — build the same index and
    /// charge the same statistics computed as interpreted.
    #[test]
    fn computed_index_builds_match_interpreted_on_drawn_rows(
        kind in 0usize..3,
        len in 0usize..2_500,
        seed_len in 1usize..=9,
        step in 1usize..40,
        start in 0usize..2_500,
        row_len in 0usize..2_500,
        content in 0u64..1_000,
    ) {
        let (name, seq) = index_references(len, content)[kind].clone();
        let start = start.min(len);
        let region = Region { start, len: row_len.min(len - start) };
        let run = |body| index_build(&seq, region, seed_len, step, body);
        prop_assert_eq!(run(Body::Computed), run(Body::Interpreted), "{} {:?}", name, region);
    }
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
        let kind = if compact { IndexKind::CompactDirectory } else { IndexKind::DenseTable };
        let indexes: Vec<SeedIndex> = rows
            .iter()
            .map(|row| {
                let region = Region { start: row.start, len: row.len() };
                build_sequential(&reference, region, config.seed_len, config.step).with_kind(kind)
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
                &indexes[row],
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

// Computed charges: steps 3–4 of Algorithm 2 and every iteration of
// Algorithm 3 run no lanes in the kernel; the host does their work and
// charges each lane what it would have charged. Below are the
// interpreted bodies those regions replace, as references: a round
// balanced and combined by the kernel must leave the same assignment,
// the same triplet lists, the same launch counters and the same phase
// rows as the same round interpreted lane by lane.

use gpumem::core::balance::IDLE;
use gpumem::core::combine::{combine_pair, combine_schedule};
use gpumem::sim::primitives::{block_inclusive_scan, upper_bound_shared};

/// Algorithm 2 with every region interpreted.
fn reference_balance(ctx: &mut BlockCtx<'_>, loads: &[u32], enabled: bool) -> Assignment {
    let tau = ctx.block_dim;
    let mut out = Assignment {
        groups: Vec::new(),
        group_of_thread: vec![IDLE; tau],
    };
    if !enabled {
        for (k, &load) in loads.iter().enumerate() {
            if load > 0 {
                out.group_of_thread[k] = out.groups.len();
                out.groups.push(GroupAssign {
                    seed_slot: k,
                    threads: k..k + 1,
                });
            }
        }
        return out;
    }
    let (mut load, mut task, mut scan_src) = (vec![0u32; tau], vec![0u32; tau], Vec::new());
    ctx.simt(|lane| {
        lane.charge(Op::GlobalLoad, 1);
        lane.shared(2);
        load[lane.tid] = loads[lane.tid];
        task[lane.tid] = u32::from(loads[lane.tid] > 0);
    });
    block_inclusive_scan(ctx, &mut load, &mut scan_src);
    block_inclusive_scan(ctx, &mut task, &mut scan_src);
    let t_load = load[tau - 1] as usize;
    let n_groups = task[tau - 1] as usize;
    if n_groups == 0 {
        return out;
    }
    let t_idle = tau - n_groups;
    let mut assign = vec![0u32; n_groups + 1];
    let mut seed_slot_of_group = vec![0usize; n_groups];
    // Step 3.
    ctx.simt(|lane| {
        lane.charge(Op::Alu, 4);
        lane.shared(2);
        if lane.branch(loads[lane.tid] > 0) {
            let g = task[lane.tid] as usize - 1;
            let offset = t_idle * load[lane.tid] as usize / t_load;
            assign[g + 1] = ((g + 1) + offset) as u32;
            seed_slot_of_group[g] = lane.tid;
        }
    });
    // Step 4.
    let group_of_thread = &mut out.group_of_thread;
    ctx.simt(|lane| {
        let g = upper_bound_shared(lane, &assign, lane.tid as u32) - 1;
        group_of_thread[lane.tid] = g;
    });
    out.groups = (0..n_groups)
        .map(|g| GroupAssign {
            seed_slot: seed_slot_of_group[g],
            threads: assign[g] as usize..assign[g + 1] as usize,
        })
        .collect();
    out
}

/// One interpreted iteration of Algorithm 3: each lane scans the target
/// list for each of its source triplets until one merges.
fn reference_combine_region(
    ctx: &mut BlockCtx<'_>,
    assignment: &Assignment,
    target_of: &[usize],
    triplets: &mut [Vec<Mem>],
) {
    ctx.simt(|lane| {
        let g = assignment.group_of_thread[lane.tid];
        if lane.branch(g == IDLE) {
            return;
        }
        let group = &assignment.groups[g];
        let src = group.seed_slot;
        lane.charge(Op::Alu, 3);
        let target = target_of[src];
        if lane.branch(target == usize::MAX) {
            return;
        }
        let my_offset = lane.tid - group.threads.start;
        let stride = group.threads.len();
        let (a, b) = triplets.split_at_mut(target);
        let (s_list, t_list) = (&mut a[src], &mut b[0]);
        let (mut compares, mut shared) = (0u64, 0u64);
        let mut i = my_offset;
        while i < s_list.len() {
            let mine = s_list[i];
            if mine.len > 0 {
                for other in t_list.iter_mut() {
                    compares += 3;
                    shared += 2;
                    if other.len == 0 {
                        continue;
                    }
                    if let Some(merged) = combine_pair(mine, *other) {
                        s_list[i] = merged;
                        other.len = 0;
                        shared += 2;
                        break;
                    }
                }
            }
            i += stride;
        }
        lane.compare(compares);
        lane.shared(shared);
    });
}

/// Algorithm 3 with every iteration interpreted.
fn reference_combine(ctx: &mut BlockCtx<'_>, assignment: &Assignment, triplets: &mut [Vec<Mem>]) {
    let tau = ctx.block_dim;
    for pairs in combine_schedule(tau) {
        let mut target_of = vec![usize::MAX; tau];
        for (src, tgt) in pairs {
            target_of[src] = tgt;
        }
        reference_combine_region(ctx, assignment, &target_of, triplets);
    }
}

/// One round balanced and combined as its own observed launch, by the
/// kernel or by the references: the assignment and triplets it leaves,
/// what it charged, and its phase rows.
fn round_run(
    loads: &[u32],
    enabled: bool,
    triplets: &[Vec<Mem>],
    kernel: bool,
) -> Observed<(Assignment, Vec<Vec<Mem>>)> {
    let tau = loads.len();
    let (device, log) = observed();
    let mut assignment = Assignment::default();
    let mut lists = triplets.to_vec();
    let stats = device.launch(LaunchConfig::new(1, tau), "test", |ctx| {
        ctx.phase("balance");
        if kernel {
            balance_into(
                ctx,
                loads,
                enabled,
                &mut BalanceScratch::default(),
                &mut assignment,
            );
        } else {
            assignment = reference_balance(ctx, loads, enabled);
        }
        ctx.phase("combine");
        if kernel {
            tree_combine_scheduled(ctx, &assignment, &mut CombineScratch::new(tau), &mut lists);
        } else {
            reference_combine(ctx, &assignment, &mut lists);
        }
    });
    let phases = log.0.lock().unwrap().pop().expect("one launch");
    ((assignment, lists), without_wall(stats), phases)
}

/// A round's loads and slot lists drawn from `seed`: slot `k` probes
/// `q = 10k`, and its triplets lie on distinct diagonals of a shared
/// pool, so neighbouring slots chain. `kind` 0 gives one to three heavy
/// slots in a row (load balancing hands them many threads), 1 about a
/// third of the slots, 2 every slot. Heavy lists reach 600 triplets;
/// some lists of slots with a load are empty, and a few triplets start
/// zeroed.
fn round_inputs(tau: usize, kind: u8, seed: u64) -> (Vec<u32>, Vec<Vec<Mem>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool: Vec<u32> = (0..700).map(|d| 10 + 3 * d).collect();
    let first_heavy = rng.gen_range(0..tau);
    let mut loads = vec![0u32; tau];
    let mut lists = vec![Vec::new(); tau];
    for k in 0..tau {
        let occupied = match kind {
            0 => match (k + tau - first_heavy) % tau {
                0 => true,
                1 | 2 => rng.gen_range(0..3) > 0,
                _ => false,
            },
            1 => rng.gen_range(0..3) == 0,
            _ => true,
        };
        if !occupied {
            continue;
        }
        let n = match kind {
            0 => rng.gen_range(1..=600),
            _ => rng.gen_range(1..=40),
        };
        loads[k] = n as u32;
        if rng.gen_range(0..8) == 0 {
            continue; // a group whose source list is empty
        }
        let q = 10 * k as u32;
        let mut diagonals = pool.clone();
        for i in 0..n {
            let j = rng.gen_range(i..diagonals.len());
            diagonals.swap(i, j);
        }
        lists[k] = diagonals[..n]
            .iter()
            .map(|&d| Mem {
                r: d + q,
                q,
                len: if rng.gen_range(0..20) == 0 {
                    0
                } else {
                    rng.gen_range(1..=25)
                },
            })
            .collect();
    }
    (loads, lists)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Computed steps 3–4 and combine iterations leave what the
    /// interpreted regions leave and charge what they charge.
    #[test]
    fn computed_rounds_match_the_interpreted_references(
        tau_ix in 0usize..4,
        enabled: bool,
        kind in 0u8..3,
        seed in 0u64..1_000_000,
    ) {
        let tau = TAUS[tau_ix];
        let (loads, lists) = round_inputs(tau, kind, seed);
        let reference = round_run(&loads, enabled, &lists, false);
        prop_assert_eq!(round_run(&loads, enabled, &lists, true), reference);
    }
}
