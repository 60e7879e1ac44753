//! One worklist participant's poll — `worklist_delta(since)` plus an
//! `EventCursor` drain — after 64 commands, at populations of 1k, 10k
//! and 50k live instances.
//!
//! * `after_64_commands` — the steady-state poll. The index answers from
//!   its epoch-ordered log and the monitor seeks each ring to the
//!   cursor, so the cost follows the 64 changes, not the population: the
//!   three sizes should time alike.
//! * `bootstrap` — a `since == 0` poll, which reports every instance and
//!   sweeps the store: the O(population) reference the steady state
//!   avoids.
//!
//! ```text
//! cargo bench -p adept-bench --bench worklist_poll
//! ```

use adept_engine::{EngineCommand, EventCursor, ProcessEngine};
use adept_model::{InstanceId, SchemaBuilder};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// Commands between two polls.
const COMMANDS_PER_POLL: usize = 64;

/// `n` instances of a 16-step chain, each started on its first step.
fn population(n: usize) -> (ProcessEngine, Vec<InstanceId>) {
    let mut b = SchemaBuilder::new("chain");
    for k in 0..16 {
        b.activity(&format!("step {k}"));
    }
    let engine = ProcessEngine::new();
    let name = engine.deploy(b.build().unwrap()).unwrap();
    let ids = (0..n)
        .map(|_| engine.create_instance(&name).unwrap())
        .collect();
    (engine, ids)
}

/// A participant caught up with the engine: its worklist epoch and its
/// event cursor.
struct Participant {
    epoch: u64,
    cursor: EventCursor,
}

impl Participant {
    fn join(engine: &ProcessEngine) -> Self {
        let cursor = engine.monitor.subscribe();
        let epoch = engine.worklist_delta(0).epoch;
        Self { epoch, cursor }
    }

    /// One poll; returns how many instances and events it reported.
    fn poll(&mut self, engine: &ProcessEngine) -> usize {
        let d = engine.worklist_delta(self.epoch);
        self.epoch = d.epoch;
        let events = self.cursor.poll(&engine.monitor).expect("no lag");
        d.added.len() + d.invalidated.len() + events.len()
    }
}

fn bench_poll(c: &mut Criterion) {
    let mut group = c.benchmark_group("worklist_poll");
    group.sample_size(30);
    for n in [1_000usize, 10_000, 50_000] {
        let (engine, ids) = population(n);
        let mut me = Participant::join(&engine);
        let mut next = 0usize;
        // Untimed setup: the next 64 commands, round-robin over the
        // population, each driving one instance one step.
        let mut commands = || {
            for _ in 0..COMMANDS_PER_POLL {
                let id = ids[next % ids.len()];
                next += 1;
                let _ = engine.submit(EngineCommand::Drive {
                    instance: id,
                    max: Some(1),
                });
            }
        };
        group.bench_function(BenchmarkId::new("after_64_commands", n), |b| {
            b.iter_batched_ref(
                &mut commands,
                |()| black_box(me.poll(&engine)),
                criterion::BatchSize::PerIteration,
            )
        });
        group.bench_function(BenchmarkId::new("bootstrap", n), |b| {
            b.iter(|| black_box(engine.worklist_delta(0).added.len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_poll);
criterion_main!(benches);
