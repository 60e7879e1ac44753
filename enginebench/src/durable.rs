//! `durable`: the command stream of `steps` on a write-ahead-logged
//! engine over a file, each round run until every instance finishes; the
//! engine is then dropped and recovered from the file alone.
//!
//! The workload's throughput is that of the durable path as a whole: a
//! round's commands ÷ (their time + the time to recover them). Its
//! footprint per instance counts the log beside the engine's memory.

use crate::backend::{BackendStats, SharedStats, TimedBackend, BACKEND_STATS};
use crate::common::{
    populate, ratio, run_rounds, sub_seed, Outcome, Poller, Record, Totals, POLL_EVERY,
};
use crate::trace::{Samples, Tracer};
use crate::Opts;
use adept_engine::{recover, ProcessEngine};
use adept_state::Execution;
use adept_storage::wal::decode_entry;
use adept_storage::OrderedMutex;
use adept_storage::{to_json, FileBackend, StorageBackend, SyncPolicy};
use rand::Rng;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The flush policy of every run: no fsync, so the figures measure the
/// program, not the device. Records survive a process crash through the
/// page cache, not a power loss.
const POLICY: SyncPolicy = SyncPolicy::Never;

#[derive(Default)]
struct RunTotals {
    base: Totals,
    recovery: Samples,
    wal_bytes_per_instance: Samples,
    instances: u64,
    replayed: u64,
    audited: u64,
    divergent: u64,
    same_snapshot: bool,
    clean_tail: bool,
    events: bool,
    finished: bool,
}

fn open_backend(path: &Path, stats: &SharedStats, traced: bool) -> Box<dyn StorageBackend> {
    let file = Box::new(FileBackend::with_policy(path, POLICY));
    if traced {
        Box::new(TimedBackend::new(file, Arc::clone(stats)))
    } else {
        file
    }
}

pub fn run(opts: &Opts, tr: &mut Tracer) -> Outcome {
    let stats = Arc::new(OrderedMutex::new(&BACKEND_STATS, BackendStats::default()));
    let mut t = RunTotals {
        same_snapshot: true,
        clean_tail: true,
        events: true,
        finished: true,
        ..RunTotals::default()
    };
    let rounds = run_rounds(opts.seconds, |r| {
        round(opts, tr, sub_seed(opts.seed, 200 + r), &stats, &mut t)
    });

    let mut info = Record::default();
    let e2e = t.base.end_to_end(&mut info);

    let recovery_s = t.recovery.median_s();
    let wal_bytes = t.wal_bytes_per_instance.quantile(0.5);
    let mut l = crate::metrics::layers();
    if tr.on() {
        l = t.base.layers(tr, &e2e);
        let mut s = stats.lock();
        let appends = s.append_ns.len() as f64;
        l.set("storage.backend.appends", appends);
        l.set("storage.backend.append_us", s.append_ns.median_us());
        l.set("storage.backend.bytes", s.bytes as f64);
        l.set(
            "storage.backend.bytes_per_record",
            ratio(s.bytes as f64, appends),
        );
        l.set("storage.backend.syncs", s.sync_ns.len() as f64);
        l.set("storage.backend.sync_us", s.sync_ns.median_us());
        // Per round: the empty log read at creation and the full one at recovery.
        l.set(
            "storage.backend.read_log_s",
            s.read_log_ns.total_ns() as f64 / 1e9 / rounds as f64,
        );
        l.set(
            "storage.wal.records_per_instance",
            ratio(t.replayed as f64, t.instances as f64),
        );
        l.set("engine.recovery.s", recovery_s);
        l.set("engine.recovery.replayed", t.replayed as f64);
        l.set("engine.recovery.audited", t.audited as f64);
        l.set("engine.recovery.divergent", t.divergent as f64);
        l.set("recovery_s", recovery_s);
        l.set("wal_bytes_per_instance", wal_bytes);
    }

    info.put(
        "flush_policy",
        format!("FileBackend, SyncPolicy::{POLICY:?}"),
    );
    info.put("population", opts.size.durable_population);
    info.put("rounds", rounds);
    info.put("commands", t.base.cmd.len());
    info.put("polls", t.base.polls.len());
    info.put("recovery_s", format!("{recovery_s:.4}"));
    info.put("wal_bytes_per_instance", format!("{wal_bytes:.1}"));
    info.put(
        "wal_records_per_instance",
        format!("{:.2}", ratio(t.replayed as f64, t.instances as f64)),
    );
    info.put("biased_share", 0.0);
    info.put("compiled_share", format!("{:.4}", t.base.compiled_share()));

    Outcome {
        attempted: t.base.attempted,
        failed: t.base.failed,
        checks: vec![
            (
                "durable: recovered snapshot JSON is byte-identical to the live one",
                t.same_snapshot,
            ),
            (
                "durable: recovery reports no divergent instance and no torn tail",
                t.clean_tail,
            ),
            (
                "durable: event cursor saw every recorded event, no lag",
                t.events,
            ),
            ("durable: every instance finished", t.finished),
        ],
        e2e,
        layers: l,
        info,
    }
}

fn round(opts: &Opts, tr: &mut Tracer, seed: u64, stats: &SharedStats, t: &mut RunTotals) {
    let population = opts.size.durable_population;
    let path = opts
        .work_dir
        .join(format!("durable-{}.wal", std::process::id()));

    // Each set-up starts on an empty log; only the kept engine's log is
    // timed and counted.
    let built = t.base.set_up(opts.size.setups, |rep| {
        let _ = std::fs::remove_file(&path);
        let traced = tr.on() && rep + 1 == opts.size.setups;
        ProcessEngine::with_wal(open_backend(&path, stats, traced))
            .map(|engine| populate(engine, population, seed, tr))
    });
    let (engine, _, mut stream) = match built {
        Ok(b) => b,
        Err(e) => {
            eprintln!(
                "enginebench: cannot open the WAL at {}: {e}",
                path.display()
            );
            t.base.failed += 1;
            t.base.attempted += 1;
            return;
        }
    };

    // Every instance runs to its end through single commands.
    let mut poller = Poller::new(&engine);
    let mut active: Vec<usize> = (0..stream.live.len()).collect();
    let mut sent = 0usize;
    while !active.is_empty() {
        let j = stream.rng().gen_range(0..active.len());
        if stream.step(&engine, tr, active[j]) {
            active.swap_remove(j);
        }
        sent += 1;
        if sent.is_multiple_of(POLL_EVERY) {
            poller.poll(&engine, tr);
        }
    }
    poller.poll(&engine, tr);
    t.events &= poller.saw_every_event(&engine);
    t.finished &= engine
        .all_instances()
        .into_iter()
        .all(|id| engine.is_finished(id).unwrap_or(false));

    let wal_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    t.wal_bytes_per_instance
        .push(wal_bytes / population.max(1) as u64);
    t.base.read_engine(&engine, wal_bytes);
    let live = to_json(&engine.snapshot());
    drop(engine);

    // Crash and restart: only the file survives.
    t.base.attempted += 1;
    let t1 = Instant::now();
    let backend = open_backend(&path, stats, tr.on());
    let recovered = tr.span("engine.recovery", || recover(backend));
    let recovery_ns = t1.elapsed().as_nanos() as u64;
    t.recovery.push(recovery_ns);
    match (recovered, live) {
        (Ok((rec, report)), Ok(live)) => {
            let ns = stream.cmd.total_ns() + recovery_ns;
            t.base
                .round_rates
                .push(ratio(stream.cmd.len() as f64 * 1e9, ns as f64));
            t.same_snapshot &= to_json(&rec.snapshot()).is_ok_and(|j| j == live);
            t.clean_tail &= report.divergent.is_empty() && report.torn_tail_bytes == 0;
            t.replayed += report.replayed as u64;
            t.audited += report.audited as u64;
            t.divergent += report.divergent.len() as u64;
            t.instances += population as u64;
            if tr.on() {
                probes(&rec, &path, tr);
            }
        }
        (Err(e), _) => {
            eprintln!("enginebench: recovery failed: {e}");
            t.base.failed += 1;
        }
        (_, Err(e)) => {
            eprintln!("enginebench: snapshot encoding failed: {e}");
            t.base.failed += 1;
        }
    }
    let _ = std::fs::remove_file(&path);

    t.base.absorb(&stream.cmd, &stream, &poller);
}

/// Decodes a sample of WAL records and replays a sample of recovered
/// histories, each directly on its layer.
fn probes(rec: &ProcessEngine, path: &Path, tr: &mut Tracer) {
    if let Ok(text) = std::fs::read_to_string(path) {
        for line in text.lines().step_by(16) {
            let _ = tr.span("storage.wal.decode", || decode_entry(line));
        }
    }
    for id in rec.all_instances().into_iter().step_by(16) {
        let (Ok((schema, blocks)), Some(inst)) = (rec.materialized(id), rec.store.get(id)) else {
            continue;
        };
        let ex = Execution::with_blocks_ref(&schema, &blocks);
        let _ = tr.span("state.replay", || ex.audit(&inst.state));
    }
}
