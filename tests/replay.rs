//! The charge-replay contract of `BlockCtx::record` / `BlockCtx::replay`.
//!
//! * A recording replayed on another block charges exactly what running
//!   its regions there charges: the same `LaunchStats`, the same phase
//!   rows under an observer, and the same sanitizer region ordinals
//!   with zero hazards. A recording made under a different block size,
//!   warp size or cost model is refused.
//! * The match kernel replays its known charges from scratch it keeps
//!   across rounds and blocks, so a warm scratch must give the same
//!   assignment, block output and block counters as a fresh one — for
//!   empty, single-seed (every slot) and multi-seed rounds, at every
//!   τ, with load balancing on and off.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use gpumem::core::balance::{balance_into, Assignment, BalanceScratch, GroupAssign};
use gpumem::core::block::{process_block, BlockOutput, BlockScratch};
use gpumem::core::combine::{tree_combine_scheduled, CombineScratch};
use gpumem::core::GpumemConfig;
use gpumem::index::{build_sequential, Region};
use gpumem::seq::{GenomeModel, Mem, MutationModel, PackedSeq};
use gpumem::sim::{
    sanitizer, BlockCtx, CostModel, Device, DeviceSpec, GpuU32, LaunchConfig, LaunchObserver,
    LaunchRecord, LaunchStats, Op, PhaseStats, RegionCharge,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const TAUS: [usize; 4] = [2, 32, 64, 128];

fn tiny() -> Device {
    Device::new(DeviceSpec::test_tiny())
}

fn without_wall(mut stats: LaunchStats) -> LaunchStats {
    stats.wall_time = Duration::ZERO;
    stats
}

/// Regions whose charge depends on thread id alone: several op classes,
/// a divergent branch, a masked range and steals. They touch no device
/// buffer, so they may be replayed.
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
        lane.record_steals(u64::from(lane.tid % 7 == 0));
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
    let combine = |assignment: &Assignment, triplets: &[Vec<Mem>], scratch: &mut CombineScratch| {
        let cell = Mutex::new((triplets.to_vec(), scratch));
        let stats = tiny().launch_fn(LaunchConfig::new(1, 4), |ctx| {
            let (t, scratch) = &mut *cell.lock().unwrap();
            tree_combine_scheduled(ctx, assignment, scratch, t);
        });
        (cell.into_inner().unwrap().0, without_wall(stats))
    };
    let head = Mem { r: 0, q: 0, len: 4 };
    let tail = Mem { r: 4, q: 4, len: 4 };
    let mut warm = CombineScratch::new(4);
    let alone = vec![vec![head], vec![], vec![], vec![]];
    let recorded = combine(&full, &alone, &mut warm);
    assert_eq!(recorded.0, alone, "nothing to merge");
    assert_eq!(combine(&full, &alone, &mut warm), recorded);
    let neighbour = vec![vec![head], vec![tail], vec![], vec![]];
    let fresh = combine(&full, &neighbour, &mut CombineScratch::new(4));
    let merged = combine(&full, &neighbour, &mut warm);
    assert_eq!(merged, fresh);
    assert_eq!(merged.0[0], vec![Mem { r: 0, q: 0, len: 8 }]);
    assert!(merged.1.comparisons > recorded.1.comparisons);
    let unbalanced = combine(&one_thread, &alone, &mut CombineScratch::new(4));
    assert_eq!(combine(&one_thread, &alone, &mut warm), unbalanced);
    assert_ne!(unbalanced.1, recorded.1, "a different charge to replay");
}

/// One block over the first block width of `query`, as its own launch:
/// the output and what the launch charged.
fn block_run(
    reference: &PackedSeq,
    query: &PackedSeq,
    config: &GpumemConfig,
    scratch: &mut BlockScratch,
) -> (BlockOutput, LaunchStats) {
    let index = build_sequential(
        reference,
        Region::whole(reference),
        config.seed_len,
        config.step,
    );
    let block_q = 0..config.block_width().min(query.len());
    let cell = Mutex::new((BlockOutput::default(), scratch));
    let stats = tiny().launch_fn(LaunchConfig::new(1, config.threads_per_block), |ctx| {
        let (out, scratch) = &mut *cell.lock().unwrap();
        process_block(
            ctx,
            reference,
            query,
            &index,
            config,
            0..reference.len(),
            block_q.clone(),
            None,
            None,
            scratch,
            out,
        );
    });
    (cell.into_inner().unwrap().0, without_wall(stats))
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

    /// A block scratch that already served another block gives the
    /// output and charge of a fresh one. ℓs = 8 keeps random seed hits
    /// rare, so rounds mix empty, single-seed and multi-seed ones at
    /// every τ.
    #[test]
    fn warm_block_scratch_matches_a_fresh_one(
        tau_ix in 0usize..4,
        load_balancing: bool,
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
        let query_b = PackedSeq::from_codes(&model.apply(&codes[100..900], &mut rng));
        let mut warm = BlockScratch::new(tau, config.seed_len);
        block_run(&reference, &query_a, &config, &mut warm);
        let fresh = block_run(
            &reference,
            &query_b,
            &config,
            &mut BlockScratch::new(tau, config.seed_len),
        );
        prop_assert_eq!(block_run(&reference, &query_b, &config, &mut warm), fresh);
    }
}
