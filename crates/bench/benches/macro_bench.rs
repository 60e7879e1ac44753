//! Macro benchmark: the compiled execution core at population scale.
//!
//! `N` lightweight instances (a linear activity chain) run the full
//! lifecycle — create → drive one step → type evolution → migrate-all →
//! drive to completion — with 1, 4 and 16 submitter threads. The engine
//! picks the execution tier by a fixed rule, so the tier comparison runs
//! at the state layer (`state_run`).
//!
//! The population scales with `ADEPT_MACRO_INSTANCES` (default 2 000 so
//! a default `cargo bench` run stays tractable; set it to 1 000 000 for
//! the headline figure). **Caveat:** on a 1-vCPU container the 4- and
//! 16-thread rows measure lock and scheduler contention, not parallel
//! speedup — read the 1-thread row as the baseline and the
//! multi-thread rows as a contention probe.

use adept_core::{ChangeOp, MigrationOptions, NewActivity};
use adept_engine::{EngineCommand, ProcessEngine};
use adept_model::{CompiledSchema, SchemaBuilder};
use adept_simgen::{generate_schema, GenParams, RandomDriver};
use adept_state::{CompiledExecution, Execution};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const CHAIN: usize = 4;

fn population() -> usize {
    std::env::var("ADEPT_MACRO_INSTANCES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000)
}

fn fresh_engine() -> (ProcessEngine, String) {
    let engine = ProcessEngine::new();
    let mut b = SchemaBuilder::new("macro");
    for k in 0..CHAIN {
        b.activity(&format!("step {k}"));
    }
    let name = engine.deploy(b.build().unwrap()).unwrap();
    (engine, name)
}

/// Create → drive(1) → evolve → migrate-all → drive-to-finish, the
/// population split across `threads` submitters.
fn run_lifecycle(engine: &ProcessEngine, name: &str, n: usize, threads: usize) -> usize {
    let ids = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let share = n / threads + usize::from(w < n % threads);
                s.spawn(move || {
                    let mut ids = Vec::with_capacity(share);
                    for _ in 0..share {
                        let id = engine.create_instance(name).expect("create");
                        engine
                            .submit(EngineCommand::Drive {
                                instance: id,
                                max: Some(1),
                            })
                            .expect("first step");
                        ids.push(id);
                    }
                    ids
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("submitter"))
            .collect::<Vec<_>>()
    });

    // Evolve the type (insert between untouched steps — every instance
    // stays compliant) and migrate the whole population.
    let v1 = engine.repo.deployed(name, 1).expect("deployed");
    let pred = v1.schema.node_by_name("step 1").expect("pred").id;
    let succ = v1.schema.node_by_name("step 2").expect("succ").id;
    let mut session = engine.begin_evolution(name).expect("session");
    session
        .stage(&ChangeOp::SerialInsert {
            activity: NewActivity::named("extra check"),
            pred,
            succ,
        })
        .expect("stage");
    session.commit().expect("evolve");
    let report = engine
        .migrate_all(name, &MigrationOptions::default(), threads)
        .expect("migrate");
    assert_eq!(report.migrated(), n, "all unbiased instances migrate");

    std::thread::scope(|s| {
        for chunk in ids.chunks(n.div_ceil(threads).max(1)) {
            s.spawn(move || {
                for &id in chunk {
                    engine
                        .submit(EngineCommand::Drive {
                            instance: id,
                            max: None,
                        })
                        .expect("finish");
                }
            });
        }
    });
    ids.len()
}

fn bench_macro(c: &mut Criterion) {
    let n = population();
    let mut group = c.benchmark_group("macro_lifecycle");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64));
    for threads in [1usize, 4, 16] {
        group.bench_with_input(
            BenchmarkId::new("lifecycle", format!("{threads}thr")),
            &threads,
            |b, &t| {
                b.iter_batched(
                    fresh_engine,
                    |(engine, name)| black_box(run_lifecycle(&engine, &name, n, t)),
                    BatchSize::PerIteration,
                )
            },
        );
    }
    group.finish();
}

/// The tier comparison with the engine stripped away: full driven runs
/// at the state layer, interpreter versus compiled arena, on generated
/// schemas of increasing size. This isolates what the arena buys —
/// slot-indexed activation/fixpoint passes instead of `BTreeMap` walks —
/// from the command path's store/WAL/worklist costs, which dominate the
/// `macro_lifecycle` group above.
fn bench_state_tiers(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_run");
    group.sample_size(20);
    for size in [12usize, 24, 48] {
        let schema = generate_schema(&GenParams::sized(size), 7);
        let ex = Execution::new(&schema).expect("acyclic generated schema");
        let arena = CompiledSchema::compile(&schema, &ex.blocks);
        let cex = CompiledExecution::new(&schema, &arena);
        group.bench_with_input(BenchmarkId::new("interpreted", size), &size, |b, _| {
            b.iter(|| {
                let mut driver = RandomDriver::new(11);
                let mut st = ex.init().expect("init");
                black_box(ex.run(&mut st, &mut driver, None).expect("run"))
            })
        });
        group.bench_with_input(BenchmarkId::new("compiled", size), &size, |b, _| {
            b.iter(|| {
                let mut driver = RandomDriver::new(11);
                let mut st = cex.init().expect("init");
                black_box(cex.run(&mut st, &mut driver, None).expect("run"))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_macro, bench_state_tiers);
criterion_main!(benches);
