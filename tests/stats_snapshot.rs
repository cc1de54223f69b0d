//! Pins the modeled execution of the full pipeline on a fixed seed
//! dataset: every `LaunchStats` counter and the complete MEM output.
//!
//! Host-side performance work (buffer pooling, bulk memory ops, scratch
//! reuse) must never move modeled time or results — this snapshot is the
//! proof. If an intentional *model* change (cost table, scheduling,
//! kernel shape) shifts these numbers, re-harvest them by running the
//! test and copying the `actual:` block from the failure message.
//!
//! Deliberately excluded: `wall_time` (host-machine dependent) and
//! `pool_allocs` (host-side bookkeeping that optimization is expected
//! to change).
//!
//! The configuration matrix is pinned in `tests/golden/stats_snapshot.txt`
//! instead of inline literals. Re-bless it only after an intentional
//! model change:
//!
//! ```text
//! GPUMEM_BLESS=1 cargo test --test stats_snapshot
//! ```

use std::path::PathBuf;

use gpumem::core::{Gpumem, GpumemConfig, GpumemResult, IndexKind, SeedMode};
use gpumem::index::max_coprime_steps;
use gpumem::seq::{GenomeModel, Mem, MutationModel, PackedSeq};
use gpumem::sim::{Device, DeviceSpec, LaunchStats, PhaseStats};
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

fn gpumem(kind: IndexKind) -> Gpumem {
    let config = GpumemConfig::builder(25)
        .seed_len(6)
        .threads_per_block(64)
        .blocks_per_tile(2)
        .index_kind(kind)
        .build()
        .expect("valid config");
    Gpumem::with_device(config, Device::new(DeviceSpec::test_tiny()))
}

/// FNV-1a over every MEM triplet, order-sensitive: pins the exact output
/// sequence without pasting thousands of literals.
fn mem_hash(mems: &[Mem]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01B3);
    };
    for m in mems {
        mix(m.r as u64);
        mix(m.q as u64);
        mix(u64::from(m.len));
    }
    h
}

fn render_stats(tag: &str, s: &LaunchStats) -> String {
    format!(
        "{tag}: launches={} blocks={} warps={} warp_cycles={} lane_cycles={} \
         device_cycles={} modeled_ns={} divergence={} atomics={} global={} compares={}",
        s.launches,
        s.blocks,
        s.warps,
        s.warp_cycles,
        s.lane_cycles,
        s.device_cycles,
        s.modeled_time.as_nanos(),
        s.divergence_events,
        s.atomic_ops,
        s.global_mem_ops,
        s.comparisons,
    )
}

fn snapshot(kind: IndexKind) -> String {
    let (reference, query) = smoke_pair();
    let result = gpumem(kind).run(&reference, &query).unwrap();
    let s = &result.stats;
    let c = &s.counts;
    format!(
        "{}\n{}\ntiles: {}x{}\ncounts: in_block={} out_block={} in_tile={} out_tile={} \
         from_global={} total={}\nmems: n={} fnv=0x{:016x}",
        render_stats("index", &s.index),
        render_stats("matching", &s.matching),
        s.rows,
        s.cols,
        c.in_block,
        c.out_block,
        c.in_tile,
        c.out_tile,
        c.from_global,
        c.total,
        result.mems.len(),
        mem_hash(&result.mems),
    )
}

#[test]
fn dense_pipeline_modeled_stats_and_output_are_pinned() {
    let expect = "\
index: launches=14 blocks=18 warps=624 warp_cycles=43059 lane_cycles=1291192 device_cycles=20768 modeled_ns=90768 divergence=47 atomics=400 global=75416 compares=12
matching: launches=7 blocks=11 warps=6488 warp_cycles=105940 lane_cycles=1708395 device_cycles=32563 modeled_ns=67563 divergence=1592 atomics=0 global=52228 compares=42775
tiles: 2x2
counts: in_block=153 out_block=5 in_tile=1 out_tile=3 from_global=1 total=155
mems: n=155 fnv=0x7f5fd4641554ede1";
    let actual = snapshot(IndexKind::DenseTable);
    assert_eq!(
        actual, expect,
        "\nmodeled execution drifted.\nactual:\n{actual}\n"
    );
}

#[test]
fn compact_pipeline_modeled_stats_and_output_are_pinned() {
    let expect = "\
index: launches=4 blocks=4 warps=160 warp_cycles=2282 lane_cycles=42378 device_cycles=1141 modeled_ns=21141 divergence=1 atomics=0 global=800 compares=3584
matching: launches=7 blocks=11 warps=6488 warp_cycles=158100 lane_cycles=3276843 device_cycles=47699 modeled_ns=82699 divergence=1592 atomics=0 global=150256 compares=42775
tiles: 2x2
counts: in_block=153 out_block=5 in_tile=1 out_tile=3 from_global=1 total=155
mems: n=155 fnv=0x7f5fd4641554ede1";
    let actual = snapshot(IndexKind::CompactDirectory);
    assert_eq!(
        actual, expect,
        "\nmodeled execution drifted.\nactual:\n{actual}\n"
    );
}

/// Observability is pure bookkeeping: running with a trace recorder
/// installed must leave the output and every modeled counter exactly
/// where the untraced (pinned) run has them, and the trace's Stage
/// spans must partition the run — their stats summing to the run
/// totals counter for counter, with no gap and no double count.
#[test]
fn traced_run_changes_nothing_and_stage_spans_reconcile_exactly() {
    let (reference, query) = smoke_pair();
    for kind in [IndexKind::DenseTable, IndexKind::CompactDirectory] {
        let plain = gpumem(kind).run(&reference, &query).unwrap();
        let (traced, trace) = gpumem(kind).run_traced(&reference, &query).unwrap();
        assert_eq!(traced.mems, plain.mems, "{kind:?}: output drifted");
        assert_eq!(
            render_stats("index", &traced.stats.index),
            render_stats("index", &plain.stats.index),
            "{kind:?}: modeled index stats drifted under tracing"
        );
        assert_eq!(
            render_stats("matching", &traced.stats.matching),
            render_stats("matching", &plain.stats.matching),
            "{kind:?}: modeled matching stats drifted under tracing"
        );
        let mut run_total = traced.stats.index.clone();
        run_total += traced.stats.matching.clone();
        assert_eq!(
            trace.stage_totals(),
            run_total,
            "{kind:?}: stage spans do not reconcile with run totals"
        );
    }
}

/// Every `LaunchStats` field except `wall_time` and `pool_allocs`,
/// gauges included.
fn render_all_counters(tag: &str, s: &LaunchStats) -> String {
    format!(
        "{} busiest_block_cycles={} pool_peak_bytes={}",
        render_stats(tag, s),
        s.busiest_block_cycles,
        s.pool_peak_bytes,
    )
}

fn render_phase(p: &PhaseStats) -> String {
    format!(
        "  phase {}: warps={} warp_cycles={} lane_cycles={} divergence={} atomics={} \
         global={} compares={}",
        p.name,
        p.warps,
        p.warp_cycles,
        p.lane_cycles,
        p.divergence_events,
        p.atomic_ops,
        p.global_mem_ops,
        p.comparisons,
    )
}

fn render_result(out: &mut Vec<String>, result: &GpumemResult) {
    let s = &result.stats;
    out.push(render_all_counters("  index", &s.index));
    out.push(render_all_counters("  matching", &s.matching));
    out.push(format!("  tiles: {}x{} {:?}", s.rows, s.cols, s.counts));
    out.push(format!(
        "  mems: n={} fnv=0x{:016x}",
        result.mems.len(),
        mem_hash(&result.mems)
    ));
}

/// The modeled-contract configurations: the default kernel, both
/// neighbouring block sizes, the Fig. 7 ablation, the compact index and
/// dual sampling at the widest co-prime steps.
fn contract_configs() -> Vec<(&'static str, GpumemConfig)> {
    let base = || {
        GpumemConfig::builder(25)
            .seed_len(6)
            .threads_per_block(64)
            .blocks_per_tile(2)
    };
    let (k1, k2) = max_coprime_steps(25, 6).expect("valid co-prime steps");
    [
        ("default", base()),
        ("tau=32", base().threads_per_block(32)),
        ("tau=128", base().threads_per_block(128)),
        ("load_balancing=off", base().load_balancing(false)),
        ("compact", base().index_kind(IndexKind::CompactDirectory)),
        (
            "dual_sampled",
            base().seed_mode(SeedMode::DualSampled { k1, k2 }),
        ),
    ]
    .into_iter()
    .map(|(name, builder)| (name, builder.build().expect("valid config")))
    .collect()
}

/// Byte-compare `actual` against the committed golden file, or rewrite
/// the golden file when `GPUMEM_BLESS=1`.
fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name);
    if std::env::var("GPUMEM_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); re-bless with GPUMEM_BLESS=1"));
    if actual != expected {
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or(actual.lines().count().min(expected.lines().count()));
        panic!(
            "{name} drifted from the golden file at line {}:\n  actual:   {}\n  expected: {}\n\
             if the model change is intentional, re-bless with GPUMEM_BLESS=1",
            first + 1,
            actual.lines().nth(first).unwrap_or("<end>"),
            expected.lines().nth(first).unwrap_or("<end>"),
        );
    }
}

/// Every modeled figure of the smoke pair under each contract
/// configuration, plain and traced: all counters of both stages, stage
/// counts and the MEM hash, plus every row of the trace's phase totals.
#[test]
fn every_configuration_matches_the_golden_modeled_contract() {
    let (reference, query) = smoke_pair();
    let mut out = Vec::new();
    for (name, config) in contract_configs() {
        let gpumem = || Gpumem::with_device(config.clone(), Device::new(DeviceSpec::test_tiny()));
        let plain = gpumem().run(&reference, &query).unwrap();
        out.push(format!("{name} plain"));
        render_result(&mut out, &plain);
        let (traced, trace) = gpumem().run_traced(&reference, &query).unwrap();
        out.push(format!("{name} traced"));
        render_result(&mut out, &traced);
        out.extend(trace.phase_totals().iter().map(render_phase));
    }
    out.push(String::new());
    check_golden("stats_snapshot.txt", &out.join("\n"));
}
