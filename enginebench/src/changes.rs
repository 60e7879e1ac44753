//! `changes`: the three change paths over one population. A stream
//! drives the instances to seeded progress points while users change
//! running instances ad hoc. Then a seeded share of the running flaky
//! activities fails and the repair loop works off the backlog, and one
//! type evolution is migrated over the mixed biased and unbiased
//! population. No WAL.
//!
//! The workload's commands are the change operations. Each ad-hoc
//! session (`begin → stage → commit`) is one latency sample. A round's
//! throughput is its ad-hoc sessions, repaired deviations and migrated or
//! refused instances ÷ the time of the three, so a slower session,
//! repair or migration each lowers it. The sessions run between the
//! stream's commands rather than in one burst: a burst of a few hundred
//! milliseconds measured the host's speed at that moment more than the
//! program. The stream's own commands are counted as attempted
//! operations but not measured here (`steps` measures them); the
//! worklist participant polls beside them.

use crate::common::{
    bench_schema, populate, ratio, run_rounds, sub_seed, Outcome, Poller, Record, Stream, Totals,
    POLL_EVERY,
};
use crate::trace::{Samples, Tracer};
use crate::Opts;
use adept_adapt::{AdaptationConfig, AdaptationLoop, RetryThenSkip};
use adept_core::ChangeOp;
use adept_core::{
    check_fast, ChangeError, ConflictKind, Delta, MigrationOptions, NewActivity, Verdict,
};
use adept_engine::{EngineError, ProcessEngine};
use adept_model::{Blocks, CompiledSchema, EdgeKind, InstanceId, NodeId, NodeKind, ProcessSchema};
use adept_simgen::flaky_nodes;
use adept_state::NodeState;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Share of running flaky activities that fail.
const FAIL_SHARE: f64 = 0.75;
/// Stream commands between two ad-hoc changes.
const ADHOC_EVERY: usize = 16;
/// Share of those changes made where the type change will insert too, so
/// their bias cannot be re-applied on the new version.
const SAME_SPOT_SHARE: f64 = 0.3;
/// The mix `cmd_per_s` is stated at: per ad-hoc session, two repaired
/// deviations and six migrated instances, about a round's own mix. A fixed
/// mix keeps the rate from following how many failures and sessions a
/// seed happens to produce.
const MIX: [f64; 3] = [1.0, 2.0, 6.0];
/// Tick budget of one repair phase; quiescence comes far earlier.
const MAX_TICKS: u64 = 100_000;

const CONFLICT_KINDS: [(ConflictKind, &str); 5] = [
    (ConflictKind::State, "State"),
    (ConflictKind::Structural, "Structural"),
    (ConflictKind::Semantic, "Semantic"),
    (ConflictKind::Vanished, "Vanished"),
    (ConflictKind::Internal, "Internal"),
];

/// Control edges between two reliable activities outside any loop: the
/// spots serial inserts go to.
fn insert_spots(schema: &ProcessSchema) -> Vec<(NodeId, NodeId)> {
    let blocks = Blocks::analyze(schema).expect("the benchmark schema is block-structured");
    let flaky: BTreeSet<NodeId> = flaky_nodes(schema).into_iter().map(|(n, _)| n).collect();
    let plain = |n: NodeId| {
        schema.node(n).is_ok_and(|x| x.kind == NodeKind::Activity)
            && !flaky.contains(&n)
            && blocks.innermost_loop(n).is_none()
    };
    schema
        .edges()
        .filter(|e| e.kind == EdgeKind::Control && plain(e.from) && plain(e.to))
        .map(|e| (e.from, e.to))
        .collect()
}

#[derive(Default)]
struct RunTotals {
    base: Totals,
    adhoc: Samples,
    repair_ns: u64,
    deviations: u64,
    committed: u64,
    resyncs: u64,
    contested: u64,
    ticks: u64,
    migrate_ns: u64,
    migrated_total: u64,
    conflicts: BTreeMap<&'static str, u64>,
    migrated: u64,
    adhoc_committed: u64,
    adhoc_refused: u64,
    verify_passes: u64,
    biased: u64,
    instances: u64,
    checks_migration: bool,
    checks_adaptation: bool,
    checks_events: bool,
}

/// What every round derives from the fixed schema.
struct Plan {
    activities: u32,
    /// Where the type change inserts: mid-flow, so a seeded share of
    /// instances has already passed it.
    type_spot: (NodeId, NodeId),
    other_spots: Vec<(NodeId, NodeId)>,
    flaky: BTreeSet<NodeId>,
}

impl Plan {
    fn new() -> Self {
        let schema = bench_schema();
        let spots = insert_spots(&schema);
        assert!(spots.len() >= 2, "the benchmark schema offers insert spots");
        let type_spot = spots[spots.len() / 2];
        Self {
            activities: schema.activities().count() as u32,
            type_spot,
            other_spots: spots.into_iter().filter(|s| *s != type_spot).collect(),
            flaky: flaky_nodes(&schema).into_iter().map(|(n, _)| n).collect(),
        }
    }
}

pub fn run(opts: &Opts, tr: &mut Tracer) -> Outcome {
    let plan = Plan::new();
    let mut t = RunTotals {
        checks_migration: true,
        checks_adaptation: true,
        checks_events: true,
        ..RunTotals::default()
    };
    let rounds = run_rounds(opts.seconds, |r| {
        round(opts, tr, sub_seed(opts.seed, 100 + r), &plan, &mut t)
    });

    let mut info = Record::default();
    let e2e = t.base.end_to_end(&mut info);

    let mut l = crate::metrics::layers();
    if tr.on() {
        l = t.base.layers(tr, &e2e);
        l.set(
            "verify.passes_per_commit",
            ratio(t.verify_passes as f64, t.adhoc_committed as f64),
        );
        l.set(
            "adapt.tick_us",
            ratio(t.repair_ns as f64 / 1e3, t.ticks as f64),
        );
        l.set("adapt.deviations", t.deviations as f64);
        l.set(
            "adapt.commit_ratio",
            ratio(t.committed as f64, t.deviations as f64),
        );
        l.set("adapt.resyncs", t.resyncs as f64);
        l.set("adapt.contested", t.contested as f64);
        l.set("core.migration.migrated", t.migrated as f64);
        for (_, name) in CONFLICT_KINDS {
            let v = t.conflicts.get(name).copied().unwrap_or(0);
            l.set(&format!("core.migration.conflicts.{name}"), v as f64);
        }
        l.set(
            "engine.migrate.all_s",
            t.migrate_ns as f64 / 1e9 / rounds as f64,
        );
        l.set("adhoc_p50_us", t.adhoc.median_us());
        l.set("adhoc_p99_us", t.adhoc.p99_us());
        l.set(
            "repair_per_s",
            ratio(t.deviations as f64, t.repair_ns as f64 / 1e9),
        );
        l.set(
            "migrate_per_s",
            ratio(t.migrated_total as f64, t.migrate_ns as f64 / 1e9),
        );
    }

    info.put("flush_policy", "none (no WAL)");
    info.put("population", opts.size.changes_population);
    info.put("rounds", rounds);
    info.put("adhoc_sessions", t.base.cmd.len());
    info.put("polls", t.base.polls.len());
    info.put("adhoc_committed", t.adhoc_committed);
    info.put("adhoc_refused", t.adhoc_refused);
    info.put("deviations", t.deviations);
    info.put("migration_checked", t.migrated_total);
    info.put("migrated", t.migrated);
    info.put(
        "type_change_spot",
        format!("{} -> {}", plan.type_spot.0, plan.type_spot.1),
    );
    info.put(
        "biased_share",
        format!("{:.4}", ratio(t.biased as f64, t.instances as f64)),
    );
    info.put("compiled_share", format!("{:.4}", t.base.compiled_share()));
    info.put(
        "repair_per_s",
        format!(
            "{:.1}",
            ratio(t.deviations as f64, t.repair_ns as f64 / 1e9)
        ),
    );
    info.put(
        "migrate_per_s",
        format!(
            "{:.1}",
            ratio(t.migrated_total as f64, t.migrate_ns as f64 / 1e9)
        ),
    );
    // Each phase's share of the time behind `cmd_per_s`, at its mix.
    let phases = [
        ("adhoc", t.adhoc.len() as u64, t.adhoc.total_ns()),
        ("repair", t.deviations, t.repair_ns),
        ("migrate", t.migrated_total, t.migrate_ns),
    ];
    let weighted: Vec<f64> = phases
        .iter()
        .zip(MIX)
        .map(|(&(_, ops, ns), w)| w * ratio(ns as f64, ops as f64))
        .collect();
    let total: f64 = weighted.iter().sum();
    for ((phase, _, _), w) in phases.iter().zip(weighted) {
        info.put(
            &format!("time_share.{phase}"),
            format!("{:.3}", ratio(w, total)),
        );
    }
    info.put("adhoc_p50_us", format!("{:.2}", t.adhoc.median_us()));
    info.put("adhoc_p99_us", format!("{:.2}", t.adhoc.p99_us()));

    Outcome {
        attempted: t.base.attempted,
        failed: t.base.failed,
        checks: vec![
            (
                "changes: migrated and refused sets match check_compliance verdicts",
                t.checks_migration,
            ),
            (
                "changes: adaptation outcomes add up to deviations",
                t.checks_adaptation,
            ),
            (
                "changes: event cursor saw every recorded event, no lag",
                t.checks_events,
            ),
        ],
        e2e,
        layers: l,
        info,
    }
}

fn round(opts: &Opts, tr: &mut Tracer, seed: u64, plan: &Plan, t: &mut RunTotals) {
    let population = opts.size.changes_population;
    let (engine, name, mut stream) = t.base.set_up(opts.size.setups, |_| {
        populate(ProcessEngine::new(), population, seed, tr)
    });

    // Drive every instance to a seeded progress point, one command at a
    // time, with the worklist participant polling. Users change running
    // instances ad hoc as the stream goes: every `ADHOC_EVERY` commands,
    // a random instance still receiving commands is changed, unless it
    // was changed before or has passed every spot.
    for k in 0..stream.live.len() {
        let budget = stream.rng().gen_range(0..=plan.activities * 2);
        stream.live[k].budget = budget;
    }
    let mut poller = Poller::new(&engine);
    let mut active: Vec<usize> = (0..stream.live.len())
        .filter(|&k| stream.live[k].budget > 0)
        .collect();
    let mut users = Users::default();
    let passes_before = adept_verify::verification_passes();
    let mut sent = 0usize;
    while !active.is_empty() {
        let j = stream.rng().gen_range(0..active.len());
        let k = active[j];
        if stream.step(&engine, tr, k) || stream.live[k].budget == 0 {
            active.swap_remove(j);
        }
        sent += 1;
        if sent.is_multiple_of(POLL_EVERY) {
            poller.poll(&engine, tr);
        }
        if sent.is_multiple_of(ADHOC_EVERY) && !active.is_empty() {
            let k = active[stream.rng().gen_range(0..active.len())];
            users.change(&engine, tr, &mut stream, plan, k, t);
        }
    }
    t.verify_passes += adept_verify::verification_passes() - passes_before;
    let (adhoc, same_spot) = (users.sessions, users.same_spot);

    // The repair loop watches from here on: fail a seeded share of the
    // running flaky activities.
    let mut looper = AdaptationLoop::new(
        &engine,
        AdaptationConfig {
            threads: 1,
            ..AdaptationConfig::default()
        },
    )
    .with_policy(RetryThenSkip::default());
    for k in 0..stream.live.len() {
        let flaky_running = stream.live[k]
            .running
            .is_some_and(|n| plan.flaky.contains(&n));
        if flaky_running && stream.rng().gen_bool(FAIL_SHARE) {
            stream.fail_running(&engine, tr, k);
        }
    }
    poller.poll(&engine, tr);

    // Automatic repair of the failure backlog until quiescent.
    let t2 = Instant::now();
    let report = tr.span("adapt.run", || looper.run_until_quiescent(MAX_TICKS));
    let repair_ns = t2.elapsed().as_nanos() as u64;
    t.repair_ns += repair_ns;
    t.deviations += report.deviations;
    t.committed += report.committed;
    t.resyncs += report.resyncs;
    t.contested += report.contested;
    t.ticks += report.ticks;
    t.base.attempted += report.deviations;
    if report.committed + report.rejected + report.escalated + report.contested != report.deviations
    {
        t.checks_adaptation = false;
    }
    drop(looper);

    // One type evolution, then migrate the whole population.
    t.base.attempted += 1;
    let delta = match evolve(&engine, tr, &name, plan.type_spot) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("enginebench: type evolution failed: {e}");
            t.base.failed += 1;
            return;
        }
    };
    if tr.on() {
        if let Some(v2) = engine.repo.deployed(&name, 2) {
            let blocks = tr.span("model.blocks", || Blocks::analyze(&v2.schema));
            if let Ok(blocks) = blocks {
                let _ = tr.span("model.compile", || {
                    CompiledSchema::compile(&v2.schema, &blocks)
                });
            }
            let _ = tr.span("verify.schema", || adept_verify::verify_schema(&v2.schema));
        }
    }

    // The verdicts migration must reproduce, gathered before it runs.
    let ids = engine.all_instances();
    let mut expected: BTreeMap<InstanceId, Option<ConflictKind>> = BTreeMap::new();
    for (i, &id) in ids.iter().enumerate() {
        let verdict = match engine.check_compliance(id, &delta) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("enginebench: check_compliance({id}) failed: {e}");
                t.base.failed += 1;
                continue;
            }
        };
        let kind = if same_spot.contains(&id) {
            Some(ConflictKind::Structural)
        } else {
            match verdict {
                Verdict::Compliant => None,
                Verdict::NotCompliant(c) => Some(c.kind),
            }
        };
        expected.insert(id, kind);
        if tr.on() && i % 16 == 0 {
            compliance_probe(&engine, tr, id, &delta);
        }
    }
    let biased = ids
        .iter()
        .filter(|id| engine.store.get(**id).is_some_and(|i| i.is_biased()))
        .count();
    t.biased += biased as u64;
    t.instances += ids.len() as u64;

    t.base.attempted += 1;
    let t3 = Instant::now();
    let migration = tr.span("engine.migrate.all", || {
        engine.migrate_all(&name, &MigrationOptions::default(), 1)
    });
    let migrate_ns = t3.elapsed().as_nanos() as u64;
    t.migrate_ns += migrate_ns;
    match migration {
        Ok(migration) => {
            t.base.round_rates.push(mix_rate([
                (adhoc.len() as u64, adhoc.total_ns()),
                (report.deviations, repair_ns),
                (migration.total() as u64, migrate_ns),
            ]));
            t.migrated_total += migration.total() as u64;
            t.migrated += migration.migrated() as u64;
            for (kind, label) in CONFLICT_KINDS {
                *t.conflicts.entry(label).or_insert(0) += migration.conflicts(kind) as u64;
            }
            let got: BTreeMap<InstanceId, Option<ConflictKind>> = migration
                .outcomes
                .iter()
                .map(|o| {
                    let kind = match &o.verdict {
                        Verdict::Compliant => None,
                        Verdict::NotCompliant(c) => Some(c.kind),
                    };
                    (o.instance, kind)
                })
                .collect();
            if got != expected {
                let wrong = expected
                    .iter()
                    .filter(|(id, k)| got.get(id) != Some(k))
                    .count();
                eprintln!(
                    "enginebench: {wrong} migration outcomes differ from the expected verdicts"
                );
                t.checks_migration = false;
            }
        }
        Err(e) => {
            eprintln!("enginebench: migrate_all failed: {e}");
            t.base.failed += 1;
        }
    }

    poller.poll(&engine, tr);
    t.checks_events &= poller.saw_every_event(&engine);
    t.base.read_engine(&engine, 0);
    t.base.absorb(&adhoc, &stream, &poller);
    t.adhoc.extend(&adhoc);
}

/// The users who change running instances ad hoc.
#[derive(Default)]
struct Users {
    /// Latency of every session, `begin → stage → commit`.
    sessions: Samples,
    /// Instances changed already; each gets at most one change.
    changed: BTreeSet<InstanceId>,
    /// Instances changed where the type change will insert.
    same_spot: BTreeSet<InstanceId>,
}

impl Users {
    /// Inserts an activity into `live[k]` at a spot its progress has not
    /// reached, unless the instance was changed before or has no such
    /// spot left.
    fn change(
        &mut self,
        engine: &ProcessEngine,
        tr: &mut Tracer,
        stream: &mut Stream,
        plan: &Plan,
        k: usize,
        t: &mut RunTotals,
    ) {
        let id = stream.live[k].id;
        if self.changed.contains(&id) {
            return;
        }
        let Some(inst) = engine.store.get(id) else {
            return;
        };
        let ahead =
            |spot: &(NodeId, NodeId)| inst.state.marking.node(spot.1) == NodeState::NotActivated;
        let open: Vec<(NodeId, NodeId)> = plan.other_spots.iter().copied().filter(ahead).collect();
        let at_type_spot = ahead(&plan.type_spot) && stream.rng().gen_bool(SAME_SPOT_SHARE);
        let (pred, succ) = if at_type_spot {
            plan.type_spot
        } else if open.is_empty() {
            return;
        } else {
            open[stream.rng().gen_range(0..open.len())]
        };
        let op = ChangeOp::SerialInsert {
            activity: NewActivity::named(format!("ad-hoc check {k}")),
            pred,
            succ,
        };
        self.changed.insert(id);
        t.base.attempted += 1;
        let t1 = Instant::now();
        let res = adhoc_change(engine, tr, id, &op);
        self.sessions.push(t1.elapsed().as_nanos() as u64);
        match res {
            Ok(()) => {
                t.adhoc_committed += 1;
                if at_type_spot {
                    self.same_spot.insert(id);
                }
            }
            // The instance has passed the spot: a compliance refusal is an
            // outcome of the change framework, not a failure.
            Err(EngineError::Change(ChangeError::StatePrecondition { .. })) => t.adhoc_refused += 1,
            Err(e) => {
                eprintln!("enginebench: ad-hoc change on {id} failed: {e}");
                t.base.failed += 1;
            }
        }
    }
}

/// Operations per second at the fixed `MIX`, from each phase's
/// `(operations, ns)`: sessions, repairs, migrations.
fn mix_rate(phases: [(u64, u64); 3]) -> f64 {
    let ns_at_mix: f64 = phases
        .iter()
        .zip(MIX)
        .map(|(&(ops, ns), w)| w * ratio(ns as f64, ops as f64))
        .sum();
    ratio(MIX.iter().sum::<f64>() * 1e9, ns_at_mix)
}

fn adhoc_change(
    engine: &ProcessEngine,
    tr: &mut Tracer,
    id: InstanceId,
    op: &ChangeOp,
) -> Result<(), EngineError> {
    let mut session = tr.span("engine.session.begin", || engine.begin_change(id))?;
    tr.span("engine.session.stage", || session.stage(op))?;
    tr.span("engine.session.commit", || session.commit())?;
    Ok(())
}

/// Commits the type change: a serial insert at `spot`.
fn evolve(
    engine: &ProcessEngine,
    tr: &mut Tracer,
    name: &str,
    spot: (NodeId, NodeId),
) -> Result<Delta, EngineError> {
    let root = tr.open("engine.session.evolve");
    let res = (|| {
        let mut session = engine.begin_evolution(name)?;
        session.stage(&ChangeOp::SerialInsert {
            activity: NewActivity::named("type change: extra approval"),
            pred: spot.0,
            succ: spot.1,
        })?;
        Ok(session.commit()?.delta)
    })();
    tr.close(root);
    res
}

/// Runs the fast compliance check of the core layer directly.
fn compliance_probe(engine: &ProcessEngine, tr: &mut Tracer, id: InstanceId, delta: &Delta) {
    let (Ok((schema, blocks)), Some(inst)) = (engine.materialized(id), engine.store.get(id)) else {
        return;
    };
    let _ = tr.span("core.compliance", || {
        check_fast(&schema, &blocks, &inst.state, delta)
    });
}
