//! Registry and engine-worker invariants end to end: however many
//! workers an engine spreads a request's tile rows over, the canonical
//! MEM set must be byte-identical (arbitrary row placements are
//! `gpumem-core`'s `gather_rows` tests). The registry's byte budget must
//! hold under arbitrary access churn, from one thread or several at
//! once, and pinned sessions must never be evicted.

use std::sync::Arc;

use gpumem::seq::{GenomeModel, MutationModel, PackedSeq};
use gpumem::sim::{Device, DeviceSpec};
use gpumem::{Engine, GpumemConfig, PinnedSession, RefHandle, Registry};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A related pair with a planted poly-C desert so tile-row masses are
/// heavily skewed — the load imbalance a split over workers has to
/// survive.
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

fn engine_for(reference: PackedSeq, threads: usize) -> Engine {
    let config = GpumemConfig::builder(20)
        .seed_len(6)
        .threads_per_block(32)
        .blocks_per_tile(2)
        .build()
        .expect("valid config");
    Engine::builder(reference)
        .config(config)
        .spec(DeviceSpec::test_tiny())
        .threads(threads)
        .build()
        .expect("engine builds")
}

#[test]
fn worker_count_invariance_one_two_four_seven() {
    let (reference, query) = skewed_pair(31_001);
    let single = engine_for(reference.clone(), 1).run(&query).unwrap();
    assert!(!single.mems.is_empty(), "fixture must produce MEMs");
    assert!(
        single.stats.rows >= 4,
        "fixture must span several tile rows"
    );
    for threads in [2usize, 4, 7] {
        let engine = engine_for(reference.clone(), threads);
        // A cold request and a warm one, each spread over the workers.
        for pass in ["cold", "warm"] {
            let split = engine.run(&query).unwrap();
            assert_eq!(split.mems, single.mems, "{threads} workers, {pass}");
        }
    }
}

/// Five references under a budget that holds roughly two and a half of
/// them (sized off one warmed reference's footprint), the first pinned
/// and warm: the registry, its handles, the pin and the budget.
fn churn_registry() -> (Arc<Registry>, Vec<RefHandle>, PinnedSession, u64) {
    let spec = DeviceSpec::test_tiny();
    let config = GpumemConfig::builder(20)
        .seed_len(6)
        .threads_per_block(32)
        .blocks_per_tile(2)
        .build()
        .unwrap();
    let references: Vec<Arc<PackedSeq>> = (0..5)
        .map(|i| Arc::new(GenomeModel::mammalian().generate(4_000, 500 + i)))
        .collect();
    let device = Device::new(spec.clone());

    let probe = Registry::new(spec.clone());
    let handle = probe
        .add("probe", Arc::clone(&references[0]), config.clone())
        .unwrap();
    probe.session(handle).unwrap().warm(&device);
    let per_ref = probe.resident_bytes();
    assert!(per_ref > 0, "warmed index must have a footprint");
    let budget = per_ref * 2 + per_ref / 2;

    let registry = Arc::new(Registry::with_budget(spec, budget));
    let handles: Vec<_> = references
        .iter()
        .enumerate()
        .map(|(i, r)| {
            registry
                .add(&format!("ref{i}"), Arc::clone(r), config.clone())
                .unwrap()
        })
        .collect();
    let pinned = registry.pin(handles[0]).unwrap();
    pinned.session().warm(&device);
    registry.touch(handles[0]);
    (registry, handles, pinned, budget)
}

#[test]
fn budget_holds_under_churn_and_pinned_sessions_survive() {
    let (registry, handles, pinned, budget) = churn_registry();
    let device = Device::new(registry.spec().clone());
    let pinned_resident = pinned.session().resident_bytes();
    assert!(pinned_resident > 0);

    let mut rng = StdRng::seed_from_u64(42);
    for step in 0..60 {
        let pick = rng.gen_range(0..handles.len());
        let session = registry.session(handles[pick]).unwrap();
        session.warm(&device);
        registry.touch(handles[pick]);
        assert!(
            registry.resident_bytes() <= budget,
            "step {step}: resident {} exceeds budget {budget}",
            registry.resident_bytes()
        );
        assert_eq!(
            pinned.session().resident_bytes(),
            pinned_resident,
            "step {step}: pinned session lost rows"
        );
    }

    let stats = registry.stats();
    assert_eq!(stats.references, 5);
    assert_eq!(stats.pinned, 1);
    assert!(stats.evictions > 0, "churn must evict: {stats:?}");
    assert!(stats.hits > 0);
    // The peak is a high-water mark: it may transiently exceed the
    // budget (lazy builds land before the next touch enforces), but it
    // can never be below what is resident right now.
    assert!(stats.peak_resident_bytes >= registry.resident_bytes());

    // While pinned the entry cannot be removed; dropping the pin frees it.
    assert!(!registry.remove(handles[0]));
    drop(pinned);
    assert!(registry.remove(handles[0]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// 2–4 threads churn one registry at once, each on its own device,
    /// warming and touching seeded picks of the five references beside
    /// the pinned one. Once they have joined and the budget is enforced,
    /// residency fits the budget, the pin kept every row, and the churn
    /// evicted.
    #[test]
    fn budget_holds_under_concurrent_churn(threads in 2usize..=4, seed: u64) {
        let (registry, handles, pinned, budget) = churn_registry();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (registry, handles) = (&registry, &handles);
                scope.spawn(move || {
                    let device = Device::new(registry.spec().clone());
                    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(t as u64));
                    for _ in 0..20 {
                        let pick = handles[rng.gen_range(0..handles.len())];
                        registry.session(pick).unwrap().warm(&device);
                        registry.touch(pick);
                    }
                });
            }
        });
        registry.enforce_budget();
        prop_assert!(
            registry.resident_bytes() <= budget,
            "resident {} exceeds budget {budget}",
            registry.resident_bytes()
        );
        prop_assert_eq!(pinned.session().resident_rows(), pinned.session().rows());
        prop_assert!(registry.stats().evictions > 0, "churn must evict");
    }
}
