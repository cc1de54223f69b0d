//! The facade crate's public API: everything a downstream user needs is
//! reachable through `gpumem::*`.

use gpumem::baselines::MemFinder;
use gpumem::core::{Gpumem, GpumemConfig};
use gpumem::index::{build_sequential, max_step, Region};
use gpumem::seq::{is_maximal_exact, PackedSeq};
use gpumem::sim::{Device, DeviceSpec, LaunchConfig};

#[test]
fn end_to_end_through_the_facade() {
    let reference: PackedSeq = "ACGTACGTACGTGGGGACGTACGTACGT".parse().unwrap();
    let query: PackedSeq = "TTTTACGTACGTACGTCCCC".parse().unwrap();
    let config = GpumemConfig::builder(8).seed_len(4).build().unwrap();
    let result = Gpumem::new(config).run(&reference, &query).unwrap();
    assert!(!result.mems.is_empty());
    for &mem in &result.mems {
        assert!(is_maximal_exact(&reference, &query, mem, 8));
    }
}

#[test]
fn baselines_are_usable_directly() {
    let reference: PackedSeq = "ACGTACGTACGTGGGG".parse().unwrap();
    let query: PackedSeq = "CCACGTACGTACC".parse().unwrap();
    let finder = gpumem::baselines::Mummer::build(&reference);
    let mems = finder.find_mems(&query, 8);
    // The periodic prefix matches at two reference offsets: a 10-mer at
    // r=0 and an 8-mer at r=4.
    assert_eq!(mems.len(), 2);
    assert!(mems.contains(&gpumem::seq::Mem {
        r: 0,
        q: 2,
        len: 10
    }));
    assert_eq!(finder.name(), "MUMmer");
}

#[test]
fn index_and_eq1_are_exposed() {
    assert_eq!(max_step(50, 13), 38);
    let seq: PackedSeq = "ACACACACAC".parse().unwrap();
    let index = build_sequential(&seq, Region::whole(&seq), 2, 1);
    index.validate(&seq).unwrap();
    assert_eq!(index.occurrences(0b01_00), 5, "AC occurs five times");
}

#[test]
fn serving_api_is_exposed_at_the_root() {
    use gpumem::seq::{FastaRecord, SeqSet};
    use gpumem::{Engine, GpumemConfig, IndexBuildReport, RunOptions, RunRequest};

    let reference: PackedSeq = "ACGTACGTACGTGGGGACGTACGTACGT".parse().unwrap();
    let config = GpumemConfig::builder(8).seed_len(4).build().unwrap();
    let engine = Engine::builder(reference).config(config).build().unwrap();

    let report: IndexBuildReport = engine.warm();
    assert_eq!(report.rows, engine.session().rows());

    let queries = SeqSet::from_records(&[
        FastaRecord {
            header: "q0".into(),
            seq: "TTTTACGTACGTACGTCCCC".parse().unwrap(),
        },
        FastaRecord {
            header: "q1".into(),
            seq: "GGGGACGTACGTAAAA".parse().unwrap(),
        },
    ]);
    let traced = RunOptions {
        trace: true,
        ..RunOptions::default()
    };
    let outputs = engine.execute(&RunRequest::batch(&queries).options(traced));
    assert_eq!(outputs.len(), 2);
    for (i, output) in outputs.into_iter().enumerate() {
        let output = output.unwrap();
        assert_eq!(
            output.result.mems,
            engine.run(&queries.record_seq(i)).unwrap().mems
        );
        assert!(output.trace.is_some(), "a traced request records a trace");
    }
}

#[test]
fn registry_and_request_api_are_exposed_at_the_root() {
    use gpumem::sim::DeviceSpec;
    use gpumem::{Engine, GpumemConfig, Registry, RunOptions, RunRequest, ShardPlan};
    use std::sync::Arc;

    let reference: PackedSeq = "ACGTACGTACGTGGGGACGTACGTACGT".parse().unwrap();
    let config = GpumemConfig::builder(8).seed_len(4).build().unwrap();
    let registry = Arc::new(Registry::with_budget(DeviceSpec::test_tiny(), 1 << 30));
    let engine = Engine::builder(reference)
        .config(config)
        .registry(Arc::clone(&registry))
        .name("facade")
        .build()
        .unwrap();
    assert_eq!(registry.len(), 1);
    assert!(registry.handle_by_name("facade").is_some());

    let query: PackedSeq = "TTTTACGTACGTACGTCCCC".parse().unwrap();
    let plain = engine.run(&query).unwrap();
    let options = RunOptions {
        shards: 2,
        ..RunOptions::default()
    };
    let out = engine
        .execute(&RunRequest::query(&query).options(options))
        .pop()
        .unwrap()
        .unwrap();
    assert_eq!(out.result.mems, plain.mems);

    let plan = ShardPlan::round_robin(2, 8);
    assert_eq!(plan.n_shards(), 2);
    assert_eq!(plan.rows(1).collect::<Vec<_>>(), [1, 3, 5, 7]);
    let stats = engine.metrics().registry;
    assert!(stats.attached);
    assert_eq!(stats.references, 1);
}

#[test]
fn simulator_is_exposed() {
    let device = Device::new(DeviceSpec::test_tiny());
    let counter = gpumem::sim::GpuU32::new(1);
    device.launch(LaunchConfig::new(2, 32), "test", |ctx| {
        ctx.simt(|lane| {
            lane.atomic_add(&counter, 0, 1);
        });
    });
    assert_eq!(counter.load(0), 64);
}
