//! The acceptance gate for the kernel sanitizer: the full GPUMEM
//! pipeline — all four index-build steps, the device-wide scan, the
//! match kernels (generate/combine/expand/balance inside
//! `match.blocks`), the tile merge, plus the compact builder's pack +
//! tile-merge sort — runs under an active sanitizer session on a smoke
//! dataset with **zero hazards**, and the session sees every launch of
//! runs whose tile rows would otherwise spread over host threads.

use gpumem::core::{Engine, Gpumem, GpumemConfig, GpumemStats, RunRequest};
use gpumem::index::{build_compact_gpu, build_gpu, Region};
use gpumem::seq::{GenomeModel, MutationModel, PackedSeq};
use gpumem::sim::sanitizer::Session;
use gpumem::sim::{Device, DeviceSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn smoke_pair() -> (PackedSeq, PackedSeq) {
    let reference = GenomeModel::mammalian().generate(4_000, 2024);
    let query = {
        let model = MutationModel {
            sub_rate: 0.03,
            indel_rate: 0.003,
        };
        let mut rng = StdRng::seed_from_u64(2025);
        PackedSeq::from_codes(&model.apply(&reference.to_codes(), &mut rng))
    };
    (reference, query)
}

#[test]
fn full_pipeline_is_hazard_free_under_sanitizer() {
    let (reference, query) = smoke_pair();
    let config = GpumemConfig::builder(25)
        .seed_len(6)
        .threads_per_block(64)
        .blocks_per_tile(4)
        .build()
        .expect("valid config");
    let gpumem = Gpumem::with_device(config, Device::new(DeviceSpec::test_tiny()));

    // Unsanitized reference run first: the sanitizer must not change
    // results (suppressed accesses only happen on hazards).
    let baseline = gpumem.run(&reference, &query).unwrap();

    let session = Session::start();
    let sanitized = gpumem.run(&reference, &query).unwrap();
    let report = session.finish();

    assert!(report.is_clean(), "pipeline hazards:\n{report}");
    assert!(
        report.launches > 4,
        "expected every kernel family to launch"
    );
    assert!(
        report.accesses_checked > 0,
        "instrumentation saw no accesses"
    );
    assert_eq!(sanitized.mems, baseline.mems, "sanitizing changed results");
}

#[test]
fn dual_sampled_pipeline_is_hazard_free_under_sanitizer() {
    // The dual probe schedule changes the round structure inside
    // `match.blocks` (only rounds on the k2 grid execute), so it gets
    // its own zero-hazard gate. L = 25, ℓs = 6 → bound 20; (4, 5) is a
    // valid co-prime pair with w = 20.
    let (reference, query) = smoke_pair();
    let config = GpumemConfig::builder(25)
        .seed_len(6)
        .threads_per_block(64)
        .blocks_per_tile(4)
        .seed_mode(gpumem::SeedMode::DualSampled { k1: 4, k2: 5 })
        .build()
        .expect("valid config");
    let gpumem = Gpumem::with_device(config, Device::new(DeviceSpec::test_tiny()));

    let baseline = gpumem.run(&reference, &query).unwrap();

    let session = Session::start();
    let sanitized = gpumem.run(&reference, &query).unwrap();
    let report = session.finish();

    assert!(report.is_clean(), "dual pipeline hazards:\n{report}");
    assert!(
        report.launches > 4,
        "expected every kernel family to launch"
    );
    assert_eq!(sanitized.mems, baseline.mems, "sanitizing changed results");
}

#[test]
fn poly_c_pipeline_is_hazard_free_under_sanitizer() {
    // A poly-C block makes one seed code own 600 reference locations,
    // the Fig. 6 skew that Algorithm 2 balances. The default kernel must
    // come out hazard-free with the MEM set intact.
    let (reference, query) = {
        let (mut reference, query) = smoke_pair();
        let mut codes = reference.to_codes();
        for slot in codes[1_000..1_600].iter_mut() {
            *slot = 1; // poly-C block: one seed code owns 600 locations
        }
        reference = PackedSeq::from_codes(&codes);
        (reference, query)
    };
    let config = GpumemConfig::builder(25)
        .seed_len(6)
        .threads_per_block(64)
        .blocks_per_tile(4)
        .build()
        .expect("valid config");
    let gpumem = Gpumem::with_device(config, Device::new(DeviceSpec::test_tiny()));
    let baseline = gpumem.run(&reference, &query).unwrap();

    let session = Session::start();
    let sanitized = gpumem.run(&reference, &query).unwrap();
    let report = session.finish();

    assert!(report.is_clean(), "poly-C hazards:\n{report}");
    assert_eq!(sanitized.mems, baseline.mems, "sanitizing changed results");
}

/// The golden default configuration: a 2 × 2 tile grid on the smoke
/// pair, so a run has two tile rows to spread over host threads.
fn two_row_config() -> GpumemConfig {
    GpumemConfig::builder(25)
        .seed_len(6)
        .threads_per_block(64)
        .blocks_per_tile(2)
        .build()
        .expect("valid config")
}

fn launches(stats: &GpumemStats) -> u64 {
    stats.index.launches + stats.matching.launches
}

#[test]
fn session_sees_every_launch_of_a_multi_row_run() {
    let (reference, query) = smoke_pair();
    let gpumem = Gpumem::with_device(two_row_config(), Device::new(DeviceSpec::test_tiny()));

    let session = Session::start();
    let result = gpumem.run(&reference, &query).unwrap();
    let report = session.finish();

    assert_eq!(result.stats.rows, 2, "the run must span two tile rows");
    assert!(report.is_clean(), "pipeline hazards:\n{report}");
    assert_eq!(
        u64::from(report.launches),
        launches(&result.stats),
        "{report}"
    );
}

#[test]
fn session_sees_every_launch_of_a_two_worker_engine_run() {
    let (reference, query) = smoke_pair();
    let engine = Engine::builder(reference)
        .config(two_row_config())
        .spec(DeviceSpec::test_tiny())
        .threads(2)
        .build()
        .expect("engine builds");

    let session = Session::start();
    let out = engine
        .execute(&RunRequest::query(&query))
        .pop()
        .expect("one query yields one output")
        .expect("two-worker run succeeds");
    let report = session.finish();

    let stats = &out.result.stats;
    assert_eq!(stats.rows, 2, "a row for each worker");
    assert!(launches(stats) > 0, "the cold session builds its rows");
    assert!(report.is_clean(), "two-worker pipeline hazards:\n{report}");
    assert_eq!(u64::from(report.launches), launches(stats), "{report}");
}

#[test]
fn dense_and_compact_index_builds_are_hazard_free() {
    let (reference, _) = smoke_pair();
    let device = Device::new(DeviceSpec::test_tiny());

    let session = Session::start();
    let (dense, _) = build_gpu(&device, &reference, Region::whole(&reference), 6, 3);
    let report = session.finish();
    assert!(report.is_clean(), "dense build hazards:\n{report}");
    assert!(dense.num_locations() > 0);

    // Compact build covers the pack kernel and the tile-merge sort.
    let session = Session::start();
    let (compact, _) = build_compact_gpu(&device, &reference, Region::whole(&reference), 6, 3);
    let report = session.finish();
    assert!(report.is_clean(), "compact build hazards:\n{report}");
    assert_eq!(compact.num_locations(), dense.num_locations());
}

#[test]
fn sanitizer_still_catches_a_seeded_bug_in_context() {
    // The zero-hazard runs above only mean something if the same
    // session machinery still flags a real bug: re-run the index fill
    // with a cursor that was never offset (every bucket starts at 0),
    // which double-books locs slots across blocks.
    let (reference, _) = smoke_pair();
    let device = Device::new(DeviceSpec::test_tiny());
    use gpumem::sim::{GpuU32, LaunchConfig};

    let n = 1_024usize;
    let locs = GpuU32::named(n, "bug.locs");
    let bad_cursor = GpuU32::named(1, "bug.cursor_a");
    let bad_cursor_b = GpuU32::named(1, "bug.cursor_b");
    let _ = reference;

    let session = Session::start();
    device.launch(LaunchConfig::new(2, 32), "bug.fill", |ctx| {
        let block = ctx.block_id;
        ctx.simt(|lane| {
            // Each block reserves through its own zeroed cursor: both
            // hand out slots starting at 0 on the same target.
            let cursor = if block == 0 {
                &bad_cursor
            } else {
                &bad_cursor_b
            };
            let base = lane.atomic_reserve(cursor, 0, 1, &locs);
            lane.st(&locs, base as usize, lane.tid as u32);
        });
    });
    let report = session.finish();
    assert!(!report.is_clean(), "seeded bug not caught");
    let text = report.to_string();
    assert!(
        text.contains("bug.locs"),
        "report must name the double-booked buffer:\n{text}"
    );
}
