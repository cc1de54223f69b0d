//! Registry + sharding invariants end to end: a request's modeled split
//! of its tile rows across N simulated devices is a pure reporting knob
//! — the canonical MEM set must be byte-identical for every shard count
//! (arbitrary row placements are `gpumem-core`'s `gather_rows` tests).
//! The registry's byte budget must hold under arbitrary access churn,
//! and pinned sessions must never be evicted.

use std::sync::Arc;

use gpumem::seq::{GenomeModel, MutationModel, PackedSeq};
use gpumem::sim::{Device, DeviceSpec};
use gpumem::{Engine, GpumemConfig, Registry, RunOptions, RunRequest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A related pair with a planted poly-C desert so tile-row masses are
/// heavily skewed — the load imbalance sharding has to survive.
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

fn engine_for(reference: PackedSeq) -> Engine {
    let config = GpumemConfig::builder(20)
        .seed_len(6)
        .threads_per_block(32)
        .blocks_per_tile(2)
        .build()
        .expect("valid config");
    Engine::builder(reference)
        .config(config)
        .spec(DeviceSpec::test_tiny())
        .build()
        .expect("engine builds")
}

fn sharded_mems(engine: &Engine, query: &PackedSeq, options: RunOptions) -> Vec<gpumem::seq::Mem> {
    engine
        .execute(&RunRequest::query(query).options(options))
        .pop()
        .expect("one result per query")
        .expect("run succeeds")
        .result
        .mems
}

#[test]
fn shard_count_invariance_one_two_four_seven() {
    let (reference, query) = skewed_pair(31_001);
    let engine = engine_for(reference);
    let single = engine.run(&query).unwrap();
    assert!(!single.mems.is_empty(), "fixture must produce MEMs");
    for shards in [1usize, 2, 4, 7] {
        let options = RunOptions {
            shards,
            ..RunOptions::default()
        };
        assert_eq!(
            sharded_mems(&engine, &query, options),
            single.mems,
            "{shards} shards"
        );
    }
}

#[test]
fn budget_holds_under_churn_and_pinned_sessions_survive() {
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

    // Probe one warmed reference's footprint so the budget is sized to
    // hold roughly two of the five.
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
