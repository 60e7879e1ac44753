//! The metric catalogue and the result line.
//!
//! Every workload prints every end-to-end metric (untraced run) or every
//! per-layer metric (traced run), so the two lists here are the single
//! place names and units are declared; `BENCHMARK.json` repeats them.

use crate::common::Record;

/// End-to-end metrics: what a user of the engine sees on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cmd_per_s", "1/s"),
    ("cmd_p50_us", "us"),
    ("cmd_p99_us", "us"),
    ("poll_p50_us", "us"),
    ("poll_p95_us", "us"),
    ("bytes_per_instance", "B"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run). A layer a workload does not exercise
/// reports 0. The last group holds figures of single workloads (they are
/// not measured on every workload, so they cannot be bounded end-to-end
/// metrics) and the cost of tracing itself.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("state.run_us", "us"),
    ("state.replay_us", "us"),
    ("engine.command.create_us", "us"),
    ("engine.command.step_us", "us"),
    ("engine.command.fail_us", "us"),
    ("engine.exec.compiled_share", "ratio"),
    ("storage.instances.get_us", "us"),
    ("storage.instances.hit_ratio", "ratio"),
    ("storage.instances.materializations", "count"),
    ("storage.memory.state_bytes", "B"),
    ("storage.memory.bias_bytes", "B"),
    ("storage.memory.cache_bytes", "B"),
    ("engine.worklist.delta_us", "us"),
    ("engine.worklist.delta_added", "count"),
    ("engine.worklist.delta_yield", "ratio"),
    ("engine.monitor.poll_us", "us"),
    ("engine.monitor.events_per_poll", "count"),
    ("engine.monitor.lag_errors", "count"),
    ("engine.session.begin_us", "us"),
    ("engine.session.stage_us", "us"),
    ("engine.session.commit_us", "us"),
    ("verify.schema_us", "us"),
    ("verify.passes_per_commit", "count"),
    ("adapt.tick_us", "us"),
    ("adapt.deviations", "count"),
    ("adapt.commit_ratio", "ratio"),
    ("adapt.resyncs", "count"),
    ("adapt.contested", "count"),
    ("model.blocks_us", "us"),
    ("model.compile_us", "us"),
    ("storage.repo.compiled_bytes", "B"),
    ("core.compliance_us", "us"),
    ("core.migration.migrated", "count"),
    ("core.migration.conflicts.State", "count"),
    ("core.migration.conflicts.Structural", "count"),
    ("core.migration.conflicts.Semantic", "count"),
    ("core.migration.conflicts.Vanished", "count"),
    ("core.migration.conflicts.Internal", "count"),
    ("engine.migrate.all_s", "s"),
    ("storage.backend.appends", "count"),
    ("storage.backend.append_us", "us"),
    ("storage.backend.bytes", "B"),
    ("storage.backend.bytes_per_record", "B"),
    ("storage.backend.syncs", "count"),
    ("storage.backend.sync_us", "us"),
    ("storage.backend.read_log_s", "s"),
    ("storage.wal.decode_us", "us"),
    ("storage.wal.records_per_instance", "count"),
    ("engine.recovery.s", "s"),
    ("engine.recovery.replayed", "count"),
    ("engine.recovery.audited", "count"),
    ("engine.recovery.divergent", "count"),
    ("adhoc_p50_us", "us"),
    ("adhoc_p99_us", "us"),
    ("repair_per_s", "1/s"),
    ("migrate_per_s", "1/s"),
    ("recovery_s", "s"),
    ("wal_bytes_per_instance", "B"),
    ("op_fail_ratio", "ratio"),
    ("trace.spans", "count"),
    ("trace.span_overhead_ns", "ns"),
    ("trace.cmd_p50_us", "us"),
    ("trace.poll_p50_us", "us"),
];

/// Values of one catalogue, every name present (0 until set).
#[derive(Debug)]
pub struct Values {
    catalogue: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Values {
    fn new(catalogue: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            catalogue,
            values: vec![0.0; catalogue.len()],
        }
    }

    /// Sets a metric. Panics on a name the catalogue does not declare —
    /// a bug in this benchmark, not in the engine.
    pub fn set(&mut self, name: &str, v: f64) {
        let i = self
            .catalogue
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"));
        self.values[i] = v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.catalogue
            .iter()
            .position(|(n, _)| *n == name)
            .map(|i| self.values[i])
            .unwrap_or(0.0)
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .catalogue
            .iter()
            .zip(&self.values)
            .map(|((name, unit), v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

pub type EndToEnd = Values;
pub type Layers = Values;

pub fn end_to_end() -> EndToEnd {
    Values::new(END_TO_END)
}

pub fn layers() -> Layers {
    Values::new(PER_LAYER)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One JSON object of string values.
pub fn record_json(r: &Record) -> String {
    let body: Vec<String> =
        r.0.iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: the last line the benchmark prints.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Values) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.json()
    )
}
