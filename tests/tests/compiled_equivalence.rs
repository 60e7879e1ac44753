//! Observational equivalence of the two execution tiers: the compiled
//! arena path (`CompiledExecution` over a `CompiledSchema`) must be
//! indistinguishable from the interpreted path (`Execution`) on every
//! unbiased instance — identical enabled sets, identical observed event
//! streams, byte-identical serialized state — and an engine's instances
//! must always agree with the interpreter oracle, with biased instances
//! demonstrably falling back to it (see `docs/EXECUTION_CORE.md`).

use adept_engine::ProcessEngine;
use adept_model::CompiledSchema;
use adept_simgen::{generate_population, random_change, scenarios, GenParams, RandomDriver};
use adept_state::{CompactMarking, CompiledExecution, Execution};
use adept_tests::{adhoc, drive_with, evolve};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// A full driven run over a random schema produces the same result,
    /// the same observed event stream and a byte-identical serialized
    /// state on both tiers, when advanced in one-activity lockstep.
    #[test]
    fn random_runs_are_observationally_identical(
        schema_seed in 0u64..5000,
        drive_seed in 0u64..5000,
    ) {
        let schema = adept_simgen::generate_schema(&GenParams::sized(14), schema_seed);
        let ex = Execution::new(&schema).unwrap();
        let arena = CompiledSchema::compile(&schema, &ex.blocks);
        let cex = CompiledExecution::new(&schema, &arena);

        let mut di = RandomDriver::new(drive_seed);
        let mut dc = RandomDriver::new(drive_seed);
        let mut si = ex.init().unwrap();
        let mut sc = cex.init().unwrap();
        prop_assert_eq!(&si, &sc, "init diverges on schema seed {}", schema_seed);

        // One completed activity per round, events captured on both
        // sides; bounded far above any sized(14) schema's step count.
        for round in 0..256 {
            let mut evi = Vec::new();
            let mut evc = Vec::new();
            let ri = ex.run_observed(&mut si, &mut di, Some(1), &mut |e| evi.push(e));
            let rc = cex.run_observed(&mut sc, &mut dc, Some(1), &mut |e| evc.push(e));
            prop_assert_eq!(
                format!("{ri:?}"), format!("{rc:?}"),
                "run result diverges at round {} (schema {} / drive {})",
                round, schema_seed, drive_seed
            );
            prop_assert_eq!(
                &evi, &evc,
                "observed events diverge at round {} (schema {} / drive {})",
                round, schema_seed, drive_seed
            );
            prop_assert_eq!(&si, &sc);
            prop_assert_eq!(
                serde_json::to_string(&si).unwrap(),
                serde_json::to_string(&sc).unwrap(),
                "serialized state must be byte-identical"
            );
            prop_assert_eq!(ex.enabled(&si), cex.enabled(&sc));
            prop_assert_eq!(ex.is_finished(&si), cex.is_finished(&sc));
            if ri.is_err() || (matches!(ri, Ok(0)) && ex.is_finished(&si)) {
                break;
            }
        }
    }

    /// Every marking a random population reaches on the interpreted path
    /// round-trips losslessly through the compact representation, and a
    /// marking from an ad-hoc-*changed* (biased) schema is rejected by
    /// the arena rather than silently misread.
    #[test]
    fn populations_round_trip_and_bias_is_rejected(
        schema_seed in 0u64..5000,
        pop_seed in 0u64..5000,
        change_seed in 0u64..5000,
    ) {
        let schema = adept_simgen::generate_schema(&GenParams::sized(12), schema_seed);
        let ex = Execution::new(&schema).unwrap();
        let arena = CompiledSchema::compile(&schema, &ex.blocks);
        for st in generate_population(&ex, 4, pop_seed) {
            let compact = CompactMarking::from_marking(&arena, &st.marking).unwrap();
            prop_assert_eq!(compact.to_marking(&arena), st.marking.clone());
        }
        // A structural change introduces nodes the base arena has never
        // interned — exactly the biased-instance shape. If the change
        // added a node, driving the evolved schema far enough to mark it
        // must make the base arena refuse the conversion.
        let Some((evolved, delta)) = random_change(&schema, change_seed, "bias") else {
            return Ok(());
        };
        let added: Vec<_> = delta.added_nodes().into_iter().collect();
        if added.is_empty() {
            return Ok(());
        }
        let ex2 = Execution::new(&evolved).unwrap();
        for st in generate_population(&ex2, 6, pop_seed) {
            if added.iter().any(|n| st.marking.marked_nodes().any(|(m, _)| m == *n)) {
                prop_assert!(
                    CompactMarking::from_marking(&arena, &st.marking).is_err(),
                    "foreign marking accepted (schema {} / change {})",
                    schema_seed, change_seed
                );
                break;
            }
        }
    }
}

/// The end-to-end lifecycle — deploy, create, ad-hoc bias, drive, evolve,
/// migrate, drive to completion, remove — on one engine, whose fixed
/// selection rule runs unbiased instances on the compiled core and biased
/// ones on the interpreter. After every phase each instance's state must
/// replay on the interpreter oracle over its materialised context, and the
/// path counters must prove biased instances fell back to the interpreter.
#[test]
fn engine_lifecycles_match_across_paths() {
    let engine = ProcessEngine::new();
    let audit_all = |phase: &str| {
        for id in engine.all_instances() {
            let (schema, blocks) = engine.materialized(id).unwrap();
            let state = engine.store.get(id).unwrap().state;
            let verdict = Execution::with_blocks_ref(&schema, &blocks).audit(&state);
            assert!(
                matches!(verdict, Ok(true)),
                "{id} diverges from the interpreter oracle after {phase}: {verdict:?}"
            );
        }
    };

    let name = engine.deploy(scenarios::order_process()).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let get = v1.schema.node_by_name("get order").unwrap().id;
    let collect = v1.schema.node_by_name("collect data").unwrap().id;

    let ids: Vec<_> = (0..12)
        .map(|_| engine.create_instance(&name).unwrap())
        .collect();
    for (k, id) in ids.iter().enumerate() {
        if k % 4 == 0 {
            // Bias disjoint from the evolution delta: stays biased,
            // still migrates.
            adhoc(
                &engine,
                *id,
                &adept_core::ChangeOp::SerialInsert {
                    activity: adept_core::NewActivity::named("check customer"),
                    pred: get,
                    succ: collect,
                },
            )
            .unwrap();
        }
        let mut driver = RandomDriver::new(k as u64);
        drive_with(&engine, *id, &mut driver, Some(1 + k % 3)).unwrap();
    }
    audit_all("drive");

    evolve(&engine, &name, &[scenarios::fig1_insert_op(&v1.schema)]).unwrap();
    engine
        .migrate_all(&name, &adept_core::MigrationOptions::default(), 1)
        .unwrap();
    audit_all("migrate");

    for (k, id) in ids.iter().enumerate() {
        let mut driver = RandomDriver::new(1000 + k as u64);
        drive_with(&engine, *id, &mut driver, Some(200)).unwrap();
    }
    audit_all("finish");
    engine.remove_instance(ids[5]).unwrap();
    audit_all("remove");

    let (on_compiled, on_interp) = engine.exec_path_counts();
    assert!(
        on_compiled > 0,
        "unbiased instances must take the compiled path"
    );
    assert!(
        on_interp > 0,
        "biased instances must fall back to the interpreter"
    );
}
