//! What the three workloads share: the process schema, the seeded
//! single-command stream, the polling worklist participant, and the
//! result record every workload fills in.

use crate::trace::{Rounds, Samples, Tracer};
use adept_engine::{
    CommandOutcome, EngineCommand, EngineError, EventCursor, ProcessEngine, WorkItem,
};
use adept_model::{InstanceId, NodeId, ProcessSchema};
use adept_simgen::{exception_schema, ExceptionParams, GenParams, RandomDriver};
use adept_state::Driver;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Structural seed of the one schema every workload runs. It is fixed, so
/// runs with different `--seed`s differ in their command streams and
/// choices, not in the process they execute; this seed's schema has AND,
/// XOR and loop blocks, data flow and flaky activities.
pub const SCHEMA_SEED: u64 = 24;

/// Roles assigned round-robin to the schema's activities.
const ROLES: [&str; 3] = ["clerk", "manager", "auditor"];

/// Commands between two polls of the worklist participant.
pub const POLL_EVERY: usize = 64;

/// The benchmark's process: a seeded `exception_schema` of about 24
/// activities whose activities carry roles.
pub fn bench_schema() -> ProcessSchema {
    let params = ExceptionParams {
        base: GenParams::sized(24),
        ..ExceptionParams::default()
    };
    let mut schema = exception_schema(&params, SCHEMA_SEED);
    let ids: Vec<NodeId> = schema.activities().map(|n| n.id).collect();
    for (k, id) in ids.into_iter().enumerate() {
        if let Ok(node) = schema.node_mut(id) {
            node.attrs.role = Some(ROLES[k % ROLES.len()].to_string());
        }
    }
    schema
}

/// One set-up: deploys the benchmark schema on `engine` and creates
/// `population` instances through the command path.
pub fn populate(
    engine: ProcessEngine,
    population: usize,
    seed: u64,
    tr: &mut Tracer,
) -> (ProcessEngine, String, Stream) {
    let schema = bench_schema();
    let name = engine
        .deploy(schema.clone())
        .expect("the benchmark schema deploys");
    let mut stream = Stream::new(Arc::new(schema), name.clone(), seed);
    for _ in 0..population {
        stream.create(&engine, tr, false);
    }
    (engine, name, stream)
}

/// Runs whole rounds, `round(index)`, until `seconds` have passed; the
/// first round always runs and the last one always completes. Returns the
/// number of rounds.
pub fn run_rounds(seconds: f64, mut round: impl FnMut(u64)) -> u64 {
    let window = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut rounds = 0u64;
    while rounds == 0 || start.elapsed() < window {
        round(rounds);
        rounds += 1;
    }
    rounds
}

/// Mixes a workload seed with a stream tag, so each random stream of a
/// run is independent of the others and of how many draws they make.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Client-side view of one live instance.
pub struct Slot {
    pub id: InstanceId,
    enabled: Vec<NodeId>,
    /// The activity this client started and has not completed yet.
    pub running: Option<NodeId>,
    /// Commands this instance may still receive.
    pub budget: u32,
}

/// The seeded stream of single commands: each picks a live instance and
/// completes its running activity, starts one of its enabled activities,
/// or drives it one activity forward (`Drive { max: 1 }`).
pub struct Stream {
    rng: SmallRng,
    driver: RandomDriver,
    schema: Arc<ProcessSchema>,
    type_name: String,
    pub live: Vec<Slot>,
    /// Latency of every recorded command.
    pub cmd: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub created: u64,
}

impl Stream {
    pub fn new(schema: Arc<ProcessSchema>, type_name: String, seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(sub_seed(seed, 1)),
            driver: RandomDriver::new(sub_seed(seed, 2)),
            schema,
            type_name,
            live: Vec::new(),
            cmd: Samples::default(),
            attempted: 0,
            failed: 0,
            created: 0,
        }
    }

    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    fn fail(&mut self, what: &str, e: &EngineError) {
        if self.failed == 0 {
            eprintln!("enginebench: unexpected error on {what}: {e}");
        }
        self.failed += 1;
    }

    /// Submits one command inside a span named `span`. A `record`ed
    /// command's latency joins `cmd`; set-up creates are traced but not
    /// measured.
    fn submit(
        &mut self,
        engine: &ProcessEngine,
        tr: &mut Tracer,
        span: &'static str,
        cmd: EngineCommand,
        record: bool,
    ) -> Result<CommandOutcome, EngineError> {
        let root = tr.open("bench.command");
        let o = tr.open(span);
        let t = Instant::now();
        let res = engine.submit_with_driver(cmd, &mut self.driver);
        let ns = t.elapsed().as_nanos() as u64;
        tr.close(o);
        tr.close(root);
        if record {
            self.cmd.push(ns);
        }
        self.attempted += 1;
        res
    }

    /// A `Complete` of `node` with driver-chosen values for its writes.
    fn complete(&mut self, instance: InstanceId, node: NodeId) -> EngineCommand {
        let writes = self
            .schema
            .writes_of(node)
            .map(|de| {
                (
                    de.data,
                    self.driver.output_value(&self.schema, node, de.data),
                )
            })
            .collect();
        EngineCommand::Complete {
            instance,
            node,
            writes,
        }
    }

    /// Creates one instance; `record` counts it as a measured command.
    pub fn create(&mut self, engine: &ProcessEngine, tr: &mut Tracer, record: bool) {
        let cmd = EngineCommand::CreateInstance {
            type_name: self.type_name.clone(),
        };
        match self.submit(engine, tr, "engine.command.create", cmd, record) {
            Ok(out) => {
                self.created += 1;
                self.live.push(Slot {
                    id: out.instance,
                    enabled: out.enabled,
                    running: None,
                    budget: u32::MAX,
                });
            }
            Err(e) => self.fail("create", &e),
        }
    }

    /// Sends one command to `live[k]`. Returns whether the instance
    /// finished.
    pub fn step(&mut self, engine: &ProcessEngine, tr: &mut Tracer, k: usize) -> bool {
        let id = self.live[k].id;
        let enabled = &self.live[k].enabled;
        let (cmd, started) = if let Some(node) = self.live[k].running {
            (self.complete(id, node), None)
        } else if !enabled.is_empty() && self.rng.gen_bool(0.5) {
            let node = enabled[self.rng.gen_range(0..enabled.len())];
            (EngineCommand::Start { instance: id, node }, Some(node))
        } else {
            let max = Some(1);
            (EngineCommand::Drive { instance: id, max }, None)
        };
        let res = self.submit(engine, tr, "engine.command.step", cmd, true);
        let slot = &mut self.live[k];
        slot.budget = slot.budget.saturating_sub(1);
        match res {
            Ok(out) => {
                slot.enabled = out.enabled;
                slot.running = started;
                out.finished
            }
            Err(e) => {
                self.fail("step", &e);
                false
            }
        }
    }

    /// Fails the running activity of `live[k]`, as an application would.
    pub fn fail_running(&mut self, engine: &ProcessEngine, tr: &mut Tracer, k: usize) {
        let Some(node) = self.live[k].running.take() else {
            return;
        };
        let cmd = EngineCommand::FailActivity {
            instance: self.live[k].id,
            node,
            reason: "injected failure".into(),
        };
        match self.submit(engine, tr, "engine.command.fail", cmd, true) {
            Ok(out) => self.live[k].enabled = out.enabled,
            Err(e) => self.fail("fail", &e),
        }
    }

    /// Drives every live instance to its end, untimed, letting `poller`
    /// catch up between instances. Returns how many did not finish.
    pub fn drain(&mut self, engine: &ProcessEngine, poller: &mut Poller) -> usize {
        let mut unfinished = 0;
        for k in 0..self.live.len() {
            // Few enough finished instances between two catch-ups that
            // their events stay within the monitor's retention.
            if k.is_multiple_of(512) {
                poller.catch_up(engine);
            }
            let id = self.live[k].id;
            if let Some(node) = self.live[k].running.take() {
                let cmd = self.complete(id, node);
                if let Err(e) = engine.submit_with_driver(cmd, &mut self.driver) {
                    self.fail("drain", &e);
                }
            }
            let cmd = EngineCommand::Drive {
                instance: id,
                max: None,
            };
            match engine.submit_with_driver(cmd, &mut self.driver) {
                Ok(out) if out.finished => {}
                Ok(_) => unfinished += 1,
                Err(e) => {
                    self.fail("drain", &e);
                    unfinished += 1;
                }
            }
        }
        self.live.clear();
        unfinished
    }
}

/// A worklist participant: every poll fetches the worklist delta since
/// its last epoch and drains its monitor event cursor. It keeps a replica
/// of the worklist built only from deltas.
pub struct Poller {
    epoch: u64,
    replica: HashMap<InstanceId, Vec<WorkItem>>,
    cursor: EventCursor,
    subscribed_at: u64,
    pub events_seen: u64,
    pub lag_errors: u64,
    /// Latency of every poll (delta + cursor drain).
    pub polls: Samples,
    /// Items' instances reported by deltas, and live instances scanned.
    pub reported: u64,
    pub added: u64,
    pub scanned: u64,
}

impl Poller {
    /// Subscribes at the monitor's tail and bootstraps the replica.
    pub fn new(engine: &ProcessEngine) -> Self {
        let cursor = engine.monitor.subscribe();
        let mut p = Self {
            epoch: 0,
            replica: HashMap::new(),
            cursor,
            subscribed_at: engine.monitor.recorded(),
            events_seen: 0,
            lag_errors: 0,
            polls: Samples::default(),
            reported: 0,
            added: 0,
            scanned: 0,
        };
        let d = engine.worklist_delta(0);
        p.apply(d);
        p
    }

    fn apply(&mut self, d: adept_engine::WorklistDelta) -> usize {
        let reported = d.added.len() + d.invalidated.len();
        for id in d.invalidated {
            self.replica.remove(&id);
        }
        for (id, items) in d.added {
            if items.is_empty() {
                self.replica.remove(&id);
            } else {
                self.replica.insert(id, items);
            }
        }
        self.epoch = d.epoch;
        reported
    }

    /// An untimed poll.
    pub fn catch_up(&mut self, engine: &ProcessEngine) {
        let d = engine.worklist_delta(self.epoch);
        self.apply(d);
        match self.cursor.poll(&engine.monitor) {
            Ok(ev) => self.events_seen += ev.len() as u64,
            Err(_) => self.lag_errors += 1,
        }
    }

    pub fn poll(&mut self, engine: &ProcessEngine, tr: &mut Tracer) {
        if tr.on() {
            self.scanned += engine.store.len() as u64;
        }
        let root = tr.open("bench.poll");
        let t = Instant::now();
        let o = tr.open("engine.worklist.delta");
        let d = engine.worklist_delta(self.epoch);
        tr.close(o);
        let o = tr.open("engine.monitor.poll");
        let events = self.cursor.poll(&engine.monitor);
        tr.close(o);
        self.polls.push(t.elapsed().as_nanos() as u64);
        tr.close(root);
        self.added += d.added.len() as u64;
        self.reported += self.apply(d) as u64;
        match events {
            Ok(ev) => self.events_seen += ev.len() as u64,
            Err(_) => self.lag_errors += 1,
        }
    }

    /// The replica equals the engine's reference worklist recompute.
    pub fn replica_matches(&self, engine: &ProcessEngine) -> bool {
        let key = |w: &WorkItem| (w.instance, w.node);
        let mut mine: Vec<WorkItem> = self.replica.values().flatten().cloned().collect();
        let mut full = engine.worklist_full();
        mine.sort_by_key(key);
        full.sort_by_key(key);
        mine == full
    }

    /// The cursor saw every event recorded since it subscribed, with no
    /// lag error.
    pub fn saw_every_event(&self, engine: &ProcessEngine) -> bool {
        self.lag_errors == 0 && self.events_seen == engine.monitor.recorded() - self.subscribed_at
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Named values, in name order.
#[derive(Debug, Default)]
pub struct Record(pub BTreeMap<String, String>);

impl Record {
    pub fn put(&mut self, k: &str, v: impl ToString) {
        self.0.insert(k.to_string(), v.to_string());
    }
}

/// Everything one workload run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(&'static str, bool)>,
    pub e2e: crate::metrics::EndToEnd,
    pub layers: crate::metrics::Layers,
    /// Run facts recorded next to the result (sizes, shares, policies).
    pub info: Record,
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Commands per latency window, and polls per window (see
/// `Rounds::windowed`). A command window has 20 samples beyond its p99;
/// a poll window has 12 beyond its p95, the highest poll percentile with
/// at least ten beyond it in a window a short run fills many times.
const CMD_WINDOW: usize = 2048;
const POLL_WINDOW: usize = 256;

/// What every workload accumulates over its rounds.
#[derive(Default)]
pub struct Totals {
    /// Reference-task times over the whole run (see `calib`).
    cal: Samples,
    cal_pos: u32,
    pub setup: Samples,
    /// Latencies of the workload's commands, per round.
    pub cmd: Rounds,
    /// Command throughput of each round, for a workload whose throughput
    /// covers more than its command latencies (`changes`, `durable`).
    /// Empty: `cmd_per_s` is the windowed rate of `cmd`.
    pub round_rates: Vec<f64>,
    pub polls: Rounds,
    pub bytes_per_instance: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub created: u64,
    pub lag_errors: u64,
    poll_added: u64,
    poll_reported: u64,
    poll_scanned: u64,
    poll_events: u64,
    mem: adept_storage::MemoryBreakdown,
    hits: u64,
    materializations: u64,
    compiled: u64,
    interpreted: u64,
    compiled_bytes: usize,
}

impl Totals {
    /// Folds in one round's command latencies `cmd`, its command stream
    /// and its poller.
    pub fn absorb(&mut self, cmd: &Samples, stream: &Stream, poller: &Poller) {
        self.cmd.push(cmd);
        self.polls.push(&poller.polls);
        self.attempted += stream.attempted + poller.polls.len() as u64;
        self.failed += stream.failed + poller.lag_errors;
        self.created += stream.created;
        self.lag_errors += poller.lag_errors;
        self.poll_added += poller.added;
        self.poll_reported += poller.reported;
        self.poll_scanned += poller.scanned;
        self.poll_events += poller.events_seen;
    }

    /// Reads a round's engine counters and memory accounting.
    /// `log_bytes` is the size of the engine's write-ahead log, 0 without
    /// one.
    pub fn read_engine(&mut self, engine: &ProcessEngine, log_bytes: u64) {
        self.mem = engine.memory();
        let instances = engine.store.len().max(1) as u64;
        self.bytes_per_instance
            .push((self.mem.total() as u64 + log_bytes) / instances);
        let stats = engine.store.stats();
        self.hits += stats.shared_hits + stats.cache_hits;
        self.materializations += stats.materializations;
        let (compiled, interpreted) = engine.exec_path_counts();
        self.compiled += compiled;
        self.interpreted += interpreted;
        self.compiled_bytes = engine.repo.compiled_bytes();
    }

    pub fn compiled_share(&self) -> f64 {
        ratio(
            self.compiled as f64,
            (self.compiled + self.interpreted) as f64,
        )
    }

    /// Sets up `n` times with `build(repetition)`, dropping each result
    /// before the next, and returns the last. Every set-up is timed.
    /// Before each, with no engine of the benchmark alive, the reference
    /// task is timed a few times, so engine state cannot move it.
    pub fn set_up<T>(&mut self, n: usize, mut build: impl FnMut(usize) -> T) -> T {
        let mut last = None;
        for rep in 0..n.max(1) {
            drop(last.take());
            for _ in 0..32 {
                self.cal.push(crate::calib::slice(&mut self.cal_pos));
            }
            let t0 = Instant::now();
            last = Some(build(rep));
            self.setup.push(t0.elapsed().as_nanos() as u64);
        }
        last.expect("at least one set-up ran")
    }

    /// The end-to-end metrics every workload reports, with times at the
    /// nominal host speed. The raw figures and the reference task's
    /// median go to `info`.
    pub fn end_to_end(&mut self, info: &mut Record) -> crate::metrics::EndToEnd {
        let cal_ns = self.cal.quantile(0.5);
        let scale = ratio(crate::calib::NOMINAL_NS, cal_ns);
        let cmd_per_s = if self.round_rates.is_empty() {
            self.cmd.windowed_rate(CMD_WINDOW)
        } else {
            self.round_rates.sort_by(f64::total_cmp);
            self.round_rates[self.round_rates.len() / 2]
        };
        let raw = [
            ("setup_s", self.setup.median_s()),
            ("cmd_per_s", cmd_per_s),
            ("cmd_p50_us", self.cmd.windowed_us(CMD_WINDOW, 0.5)),
            ("cmd_p99_us", self.cmd.windowed_us(CMD_WINDOW, 0.99)),
            ("poll_p50_us", self.polls.windowed_us(POLL_WINDOW, 0.5)),
            ("poll_p95_us", self.polls.windowed_us(POLL_WINDOW, 0.95)),
        ];
        let mut e2e = crate::metrics::end_to_end();
        for (name, v) in raw {
            info.put(&format!("raw.{name}"), v);
            // A rate scales inversely to a time.
            let scaled = if name.ends_with("_per_s") {
                ratio(v, scale)
            } else {
                v * scale
            };
            e2e.set(name, scaled);
        }
        info.put("reference_task_ns", cal_ns);
        e2e.set("bytes_per_instance", self.bytes_per_instance.quantile(0.5));
        e2e.set("peak_rss_mb", peak_rss_mb());
        e2e
    }

    /// The per-layer metrics every workload reports: span times, store,
    /// execution-tier and poll counters, and the traced latencies.
    pub fn layers(&self, tr: &Tracer, e2e: &crate::metrics::EndToEnd) -> crate::metrics::Layers {
        let mut l = crate::metrics::layers();
        crate::fill_span_layers(&mut l, tr);
        l.set("engine.exec.compiled_share", self.compiled_share());
        l.set(
            "storage.instances.hit_ratio",
            ratio(self.hits as f64, (self.hits + self.materializations) as f64),
        );
        l.set(
            "storage.instances.materializations",
            self.materializations as f64,
        );
        l.set("storage.memory.state_bytes", self.mem.state_bytes as f64);
        l.set("storage.memory.bias_bytes", self.mem.bias_bytes as f64);
        l.set("storage.memory.cache_bytes", self.mem.cache_bytes as f64);
        l.set("storage.repo.compiled_bytes", self.compiled_bytes as f64);
        let polls = self.polls.len() as f64;
        l.set(
            "engine.worklist.delta_added",
            ratio(self.poll_added as f64, polls),
        );
        l.set(
            "engine.worklist.delta_yield",
            ratio(self.poll_reported as f64, self.poll_scanned as f64),
        );
        l.set(
            "engine.monitor.events_per_poll",
            ratio(self.poll_events as f64, polls),
        );
        l.set("engine.monitor.lag_errors", self.lag_errors as f64);
        l.set("trace.cmd_p50_us", e2e.get("cmd_p50_us"));
        l.set("trace.poll_p50_us", e2e.get("poll_p50_us"));
        l
    }
}
