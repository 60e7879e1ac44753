//! `steps`: a large live population stepped one command at a time, with
//! a worklist participant polling between commands. No WAL, no changes.
//!
//! A run is a sequence of rounds of fixed work: set up a fresh
//! population, send it a fixed number of commands, check. Instances grow
//! as they progress and commands on them get slower, so a round that ran
//! until a deadline would measure a population whose age depends on the
//! host's speed; whole rounds keep every run on the same trajectory.

use crate::common::{populate, run_rounds, sub_seed, Outcome, Poller, Record, Totals, POLL_EVERY};
use crate::trace::Tracer;
use crate::Opts;
use adept_engine::ProcessEngine;
use adept_simgen::RandomDriver;
use adept_state::CompiledExecution;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Checks of a run; each holds only if it held in every round.
struct Checks {
    replica_live: bool,
    replica_drained: bool,
    events: bool,
    drain_lag_free: bool,
    finished: bool,
}

pub fn run(opts: &Opts, tr: &mut Tracer) -> Outcome {
    let mut t = Totals::default();
    let mut checks = Checks {
        replica_live: true,
        replica_drained: true,
        events: true,
        drain_lag_free: true,
        finished: true,
    };
    let rounds = run_rounds(opts.seconds, |r| {
        let seed = sub_seed(opts.seed, 300 + r);
        round(opts, tr, seed, r == 0, &mut t, &mut checks);
    });

    let mut info = Record::default();
    let e2e = t.end_to_end(&mut info);
    let layers = if tr.on() {
        t.layers(tr, &e2e)
    } else {
        crate::metrics::layers()
    };

    info.put("flush_policy", "none (no WAL)");
    info.put("population", opts.size.steps_population);
    info.put("commands_per_round", opts.size.steps_commands);
    info.put("rounds", rounds);
    info.put("commands", t.cmd.len());
    info.put("polls", t.polls.len());
    info.put("instances_created", t.created);
    info.put("biased_share", 0.0);
    info.put("compiled_share", format!("{:.4}", t.compiled_share()));

    Outcome {
        attempted: t.attempted,
        failed: t.failed,
        checks: vec![
            (
                "steps: worklist replica from deltas equals worklist_full (live)",
                checks.replica_live,
            ),
            (
                "steps: worklist replica from deltas equals worklist_full (drained)",
                checks.replica_drained,
            ),
            (
                "steps: event cursor saw every recorded event, no lag",
                checks.events,
            ),
            ("steps: no event lag while draining", checks.drain_lag_free),
            ("steps: every instance finished", checks.finished),
        ],
        e2e,
        layers,
        info,
    }
}

/// One round; the first one also drives every instance to its end and
/// checks that each finished.
fn round(
    opts: &Opts,
    tr: &mut Tracer,
    seed: u64,
    drain: bool,
    t: &mut Totals,
    checks: &mut Checks,
) {
    let population = opts.size.steps_population;
    let (engine, name, mut stream) = t.set_up(opts.size.setups, |_| {
        populate(ProcessEngine::new(), population, seed, tr)
    });

    let mut poller = Poller::new(&engine);
    // The probes draw from streams of their own, so a traced run sends
    // the same commands as an untraced one.
    let mut probe_driver = RandomDriver::new(sub_seed(seed, 3));
    let mut probe_rng = SmallRng::seed_from_u64(sub_seed(seed, 4));
    for sent in 0..opts.size.steps_commands {
        let live = stream.live.len();
        let k = stream.rng().gen_range(0..live);
        if stream.step(&engine, tr, k) {
            // Keep the live population constant: a finished instance is
            // replaced by a fresh one.
            stream.live.swap_remove(k);
            stream.create(&engine, tr, true);
        }
        if tr.on() && sent.is_multiple_of(POLL_EVERY) {
            // A random instance, not the one just stepped: its state is
            // as cold as the command path usually finds it.
            let id = stream.live[probe_rng.gen_range(0..stream.live.len())].id;
            probe(&engine, &name, id, tr, &mut probe_driver);
        }
        if (sent + 1).is_multiple_of(POLL_EVERY) {
            poller.poll(&engine, tr);
        }
    }
    poller.poll(&engine, tr);
    checks.replica_live &= poller.replica_matches(&engine);
    checks.events &= poller.saw_every_event(&engine);
    t.read_engine(&engine, 0);
    if drain {
        let unfinished = stream.drain(&engine, &mut poller);
        poller.catch_up(&engine);
        checks.replica_drained &= poller.replica_matches(&engine);
        checks.drain_lag_free &= poller.lag_errors == 0;
        checks.finished &= unfinished == 0
            && engine
                .all_instances()
                .into_iter()
                .all(|id| engine.is_finished(id).unwrap_or(false));
    }
    t.absorb(&stream.cmd, &stream, &poller);
}

/// Reads one instance from the store and runs its next step on the
/// compiled execution core directly, outside the engine.
fn probe(
    engine: &ProcessEngine,
    name: &str,
    id: adept_model::InstanceId,
    tr: &mut Tracer,
    driver: &mut RandomDriver,
) {
    let root = tr.open("bench.probe");
    let inst = tr.span("storage.instances.get", || engine.store.get(id));
    if let Some(inst) = inst {
        if let (Some(dep), Some(arena)) = (
            engine.repo.deployed(name, inst.version),
            engine.repo.compiled(name, inst.version),
        ) {
            let cex = CompiledExecution::new(&dep.schema, &arena);
            let mut st = inst.state.clone();
            let _ = tr.span("state.run", || cex.run(&mut st, driver, Some(1)));
        }
    }
    tr.close(root);
}
