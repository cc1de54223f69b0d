//! Tiling-boundary stress and determinism guarantees for the pipeline.

use gpumem::core::{Gpumem, GpumemConfig};
use gpumem::seq::{naive_mems, GenomeModel, Mem, MutationModel, PackedSeq};
use gpumem::sim::{Device, DeviceSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_gpumem(min_len: u32, seed_len: usize, tau: usize, n_block: usize) -> Gpumem {
    let config = GpumemConfig::builder(min_len)
        .seed_len(seed_len)
        .threads_per_block(tau)
        .blocks_per_tile(n_block)
        .build()
        .expect("valid config");
    Gpumem::with_device(config, Device::new(DeviceSpec::test_tiny()))
}

/// A MEM engineered to straddle block and tile boundaries: a long
/// shared segment planted across the boundary of the pipeline's tiling.
#[test]
fn planted_mems_across_boundaries_are_found_exactly() {
    let gpumem = tiny_gpumem(30, 8, 8, 2);
    let tile = gpumem.config().tile_len();
    // Reference/query long enough for > 2 tile rows/cols.
    let n = tile * 2 + tile / 2;
    let mut ref_codes: Vec<u8> = (0..n).map(|i| ((i * 2654435761) >> 7) as u8 & 3).collect();
    let mut query_codes: Vec<u8> = (0..n).map(|i| ((i * 40503) >> 5) as u8 & 3).collect();
    // Plant shared segments straddling every interesting boundary.
    let shared: Vec<u8> = (0..200).map(|i| [0u8, 3, 1, 2, 2, 1][i % 6]).collect();
    // Disjoint plant regions (same-phase overlaps would corrupt each
    // other): reference spots 50, tile−100, 2·tile−30; query spots 50,
    // tile−100, and a free mid-range slot.
    let spots = [
        (tile - 100, tile - 100),    // across the (1,1) tile corner
        (tile - 100, 50),            // reference row boundary only
        (50, tile - 100),            // query column boundary only
        (2 * tile - 30, tile + 180), // second row boundary
    ];
    for window in [
        (tile - 100)..(tile + 100),
        50..250,
        (2 * tile - 30)..(2 * tile + 170),
    ] {
        assert!(window.end <= n, "plants must fit: {window:?} vs {n}");
    }
    for &(r, q) in &spots {
        ref_codes[r..r + 200].copy_from_slice(&shared);
        query_codes[q..q + 200].copy_from_slice(&shared);
    }
    let reference = PackedSeq::from_codes(&ref_codes);
    let query = PackedSeq::from_codes(&query_codes);

    let expect = naive_mems(&reference, &query, 30);
    for &(r, q) in &spots {
        assert!(
            expect
                .iter()
                .any(|m| m.r <= r as u32 && m.r_end() >= (r + 200) as u32 && m.q <= q as u32),
            "planted segment at ({r},{q}) missing from ground truth"
        );
    }
    let got = gpumem.run(&reference, &query).unwrap().mems;
    assert_eq!(got, expect);
}

#[test]
fn output_is_invariant_to_launch_geometry() {
    let reference = GenomeModel::mammalian().generate(4_000, 91);
    let query = GenomeModel::mammalian().generate(3_000, 92);
    let reference_result = tiny_gpumem(14, 7, 8, 2)
        .run(&reference, &query)
        .unwrap()
        .mems;
    for (tau, n_block) in [(4usize, 1usize), (16, 4), (32, 8), (64, 1)] {
        let got = tiny_gpumem(14, 7, tau, n_block)
            .run(&reference, &query)
            .unwrap()
            .mems;
        assert_eq!(got, reference_result, "τ={tau}, n_block={n_block}");
    }
}

#[test]
fn output_is_invariant_to_step_choice() {
    let reference = GenomeModel::mammalian().generate(3_000, 93);
    let query = GenomeModel::mammalian().generate(2_000, 94);
    let min_len = 16;
    let expect = naive_mems(&reference, &query, min_len);
    for step in [1usize, 3, 7, 16 - 6 + 1] {
        let config = GpumemConfig::builder(min_len)
            .seed_len(6)
            .step(step)
            .threads_per_block(16)
            .blocks_per_tile(2)
            .build()
            .unwrap();
        let gpumem = Gpumem::with_device(config, Device::new(DeviceSpec::test_tiny()));
        assert_eq!(
            gpumem.run(&reference, &query).unwrap().mems,
            expect,
            "Δs = {step}"
        );
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    // Tile rows go to whichever worker claims them first; the canonical
    // output must not depend on it.
    let reference = GenomeModel::mammalian().generate(5_000, 95);
    let query = GenomeModel::mammalian().generate(4_000, 96);
    let gpumem = tiny_gpumem(12, 6, 16, 2);
    let first = gpumem.run(&reference, &query).unwrap();
    for _ in 0..3 {
        let again = gpumem.run(&reference, &query).unwrap();
        assert_eq!(again.mems, first.mems);
        assert_eq!(
            again.stats.matching.warp_cycles, first.stats.matching.warp_cycles,
            "modeled cost must be deterministic too"
        );
    }
}

#[test]
fn self_comparison_total_diagonal_survives_many_tiles() {
    let text = GenomeModel::mammalian().generate(6_000, 97);
    let gpumem = tiny_gpumem(25, 8, 8, 2);
    let tiles = text.len().div_ceil(gpumem.config().tile_len());
    assert!(tiles >= 3, "want a multi-tile run, got {tiles}");
    let mems = gpumem.run(&text, &text).unwrap().mems;
    assert!(mems.contains(&Mem {
        r: 0,
        q: 0,
        len: text.len() as u32
    }));
}

#[test]
fn device_spec_does_not_change_results() {
    let reference = GenomeModel::bacterial().generate(2_000, 98);
    let query = GenomeModel::bacterial().generate(1_500, 99);
    let config = GpumemConfig::builder(12)
        .seed_len(6)
        .threads_per_block(16)
        .blocks_per_tile(2)
        .build()
        .unwrap();
    let tiny = Gpumem::with_device(config.clone(), Device::new(DeviceSpec::test_tiny()))
        .run(&reference, &query)
        .unwrap();
    let k20 = Gpumem::with_device(config.clone(), Device::new(DeviceSpec::tesla_k20c()))
        .run(&reference, &query)
        .unwrap();
    let k40 = Gpumem::with_device(config, Device::new(DeviceSpec::tesla_k40()))
        .run(&reference, &query)
        .unwrap();
    assert_eq!(tiny.mems, k20.mems);
    assert_eq!(k20.mems, k40.mems);
    // The K40 (§V's "future work" card) models faster than the K20c.
    assert!(
        k40.stats.matching.modeled_secs() <= k20.stats.matching.modeled_secs(),
        "more SMs and higher clock cannot be slower"
    );
}

/// A related pair with a planted poly-C block: one seed code owns
/// hundreds of reference locations, the Fig. 6 seed-occurrence skew
/// that Algorithm 2 balances.
fn skewed_pair(content_seed: u64) -> (PackedSeq, PackedSeq) {
    let mut codes = GenomeModel::mammalian()
        .generate(3_000, content_seed)
        .to_codes();
    for slot in codes[800..1_300].iter_mut() {
        *slot = 1;
    }
    let reference = PackedSeq::from_codes(&codes);
    let query = {
        let model = MutationModel {
            sub_rate: 0.03,
            indel_rate: 0.003,
        };
        let mut rng = StdRng::seed_from_u64(content_seed.wrapping_add(13));
        PackedSeq::from_codes(&model.apply(&codes, &mut rng))
    };
    (reference, query)
}

#[test]
fn poly_c_skew_reproduces_the_canonical_mem_set() {
    let (reference, query) = skewed_pair(7_001);
    let expect = naive_mems(&reference, &query, 20);
    assert!(!expect.is_empty(), "fixture must produce MEMs");
    let result = tiny_gpumem(20, 6, 32, 2).run(&reference, &query).unwrap();
    assert_eq!(result.mems, expect);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random related pairs with a poly-C block: the MEM set equals the
    /// ground truth.
    #[test]
    fn random_poly_c_pairs_equal_naive(content_seed in 0u64..1_000) {
        let (reference, query) = skewed_pair(content_seed);
        let got = tiny_gpumem(22, 6, 32, 2).run(&reference, &query).unwrap().mems;
        prop_assert_eq!(got, naive_mems(&reference, &query, 22));
    }
}
