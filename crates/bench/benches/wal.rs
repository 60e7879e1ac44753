//! Durability costs: `wal_append` — what one journaled mutation adds on
//! each backend and fsync policy, and what one command costs as its
//! instance ages (`step_at_history/<k>`) — and `recovery_replay` —
//! rebuilding an engine from a WAL of N records.
//!
//! The interesting comparisons: memory vs. file backend (the encode +
//! write cost without/with the filesystem), `SyncPolicy::Never` vs.
//! `Always` (the fsync tax a strict durability guarantee pays per
//! commit), replay throughput as the log grows, and — in
//! `wal_append_threads` — the global single-backend log vs. the
//! segmented log at 1/4/16 appender threads.
//!
//! NOTE: the dev container is 1 vCPU, so the threaded variants show
//! near-parity there — the segmented spread materialises on multi-core
//! hosts (same caveat as `store_throughput`).

use adept_engine::{recovery, EngineCommand, ProcessEngine};
use adept_model::{ProcessSchema, SchemaBuilder};
use adept_simgen::scenarios;
use adept_storage::{FileBackend, MemoryBackend, StorageBackend, SyncPolicy};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_wal_path() -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("adept-bench-{}-{n}.wal", std::process::id()))
}

fn durable_engine(backend: Box<dyn StorageBackend>) -> (ProcessEngine, String) {
    durable_engine_on(backend, scenarios::order_process())
}

fn durable_engine_on(
    backend: Box<dyn StorageBackend>,
    schema: ProcessSchema,
) -> (ProcessEngine, String) {
    let engine = ProcessEngine::with_wal(backend).unwrap();
    let name = engine.deploy(schema).unwrap();
    (engine, name)
}

/// A sequence long enough to record `k` history events and still have
/// an activity left to step.
fn chain(k: usize) -> ProcessSchema {
    let mut b = SchemaBuilder::new("chain");
    for i in 0..k / 2 + 2 {
        b.activity(&format!("step {i}"));
    }
    b.build().unwrap()
}

/// One journaled mutation (instance creation: id allocation + WAL append
/// + insert) per backend/policy, against the non-durable baseline.
fn bench_wal_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_append");
    group.sample_size(20);
    group.throughput(Throughput::Elements(1));

    group.bench_function("baseline_no_wal", |b| {
        let engine = ProcessEngine::new();
        let name = engine.deploy(scenarios::order_process()).unwrap();
        b.iter(|| black_box(engine.create_instance(&name).unwrap()))
    });

    group.bench_function("memory", |b| {
        let (engine, name) = durable_engine(Box::new(MemoryBackend::new()));
        b.iter(|| black_box(engine.create_instance(&name).unwrap()))
    });

    // One command on an instance whose history already holds k events:
    // commands journal what they changed, so the cost stays flat in k.
    // Iterations alternate `Start` and `FailActivity` on the next
    // activity, which keeps the history at k (a failure withdraws the
    // start); both are one journaled record.
    for k in [8usize, 32, 128] {
        group.bench_with_input(BenchmarkId::new("step_at_history", k), &k, |b, &k| {
            let (engine, name) = durable_engine_on(Box::new(MemoryBackend::new()), chain(k));
            let id = engine.create_instance(&name).unwrap();
            // Each driven activity records a start and a completion.
            let out = engine
                .submit(EngineCommand::Drive {
                    instance: id,
                    max: Some(k / 2),
                })
                .unwrap();
            let node = out.enabled[0];
            let mut running = false;
            b.iter(|| {
                let cmd = if running {
                    EngineCommand::FailActivity {
                        instance: id,
                        node,
                        reason: "bench".into(),
                    }
                } else {
                    EngineCommand::Start { instance: id, node }
                };
                running = !running;
                black_box(engine.submit(cmd).unwrap())
            })
        });
    }

    for (tag, policy) in [
        ("file_sync_never", SyncPolicy::Never),
        ("file_sync_interval_64", SyncPolicy::Interval(64)),
        ("file_sync_always", SyncPolicy::Always),
    ] {
        group.bench_function(tag, |b| {
            let path = temp_wal_path();
            let (engine, name) = durable_engine(Box::new(FileBackend::with_policy(&path, policy)));
            b.iter(|| black_box(engine.create_instance(&name).unwrap()));
            drop(engine);
            std::fs::remove_file(&path).ok();
        });
    }
    group.finish();
}

/// Concurrent journaled mutations: T threads hammer creations on one
/// durable engine, global single-backend log vs. a 16-segment log (both
/// in memory, isolating lock spread from fsync cost).
fn bench_wal_append_threads(c: &mut Criterion) {
    const PER_THREAD: usize = 64;
    let mut group = c.benchmark_group("wal_append_threads");
    group.sample_size(10);

    for threads in [1usize, 4, 16] {
        group.throughput(Throughput::Elements((threads * PER_THREAD) as u64));
        for (tag, segments) in [("global", 1usize), ("segmented_16", 16)] {
            group.bench_with_input(BenchmarkId::new(tag, threads), &threads, |b, &threads| {
                let backends: Vec<Box<dyn StorageBackend>> = (0..segments)
                    .map(|_| Box::new(MemoryBackend::new()) as Box<dyn StorageBackend>)
                    .collect();
                let engine = ProcessEngine::with_segmented_wal(backends).unwrap();
                let name = engine.deploy(scenarios::order_process()).unwrap();
                b.iter(|| {
                    std::thread::scope(|s| {
                        for _ in 0..threads {
                            let engine = &engine;
                            let name = &name;
                            s.spawn(move || {
                                for _ in 0..PER_THREAD {
                                    black_box(engine.create_instance(name).unwrap());
                                }
                            });
                        }
                    })
                })
            });
        }
    }
    group.finish();
}

/// Rebuilding an engine by replaying a WAL of ~N records (creations +
/// driven execution deltas), on both backends.
fn bench_recovery_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("recovery_replay");
    group.sample_size(10);

    for n in [64usize, 256] {
        group.throughput(Throughput::Elements(n as u64));

        // Prepare one log on a shared in-memory medium, replay it per
        // iteration.
        let medium = MemoryBackend::new();
        {
            let (engine, name) = durable_engine(Box::new(medium.clone()));
            for _ in 0..n / 2 {
                let id = engine.create_instance(&name).unwrap();
                adept_tests_drive(&engine, id);
            }
        }
        group.bench_with_input(BenchmarkId::new("memory", n), &n, |b, _| {
            b.iter(|| {
                let (engine, report) = recovery::recover(Box::new(medium.clone())).unwrap();
                black_box((engine.store.len(), report.replayed))
            })
        });

        let path = temp_wal_path();
        std::fs::write(&path, medium.raw()).unwrap();
        group.bench_with_input(BenchmarkId::new("file", n), &n, |b, _| {
            b.iter(|| {
                let (engine, report) =
                    recovery::recover(Box::new(FileBackend::with_policy(&path, SyncPolicy::Never)))
                        .unwrap();
                black_box((engine.store.len(), report.replayed))
            })
        });
        std::fs::remove_file(&path).ok();
    }
    group.finish();
}

/// Drives an instance one step through the command path (the bench crate
/// has no dev-dependency on the test helpers).
fn adept_tests_drive(engine: &ProcessEngine, id: adept_model::InstanceId) {
    let _ = engine.submit(adept_engine::EngineCommand::Drive {
        instance: id,
        max: Some(1),
    });
}

criterion_group!(
    benches,
    bench_wal_append,
    bench_wal_append_threads,
    bench_recovery_replay
);
criterion_main!(benches);
