//! End-to-end and per-layer benchmark of the ADEPT2 engine.
//!
//! ```text
//! cargo run --release --manifest-path enginebench/Cargo.toml -- \
//!     --workload steps|changes|durable --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. One process, one closed-loop client
//! thread: every call waits for its reply before the next is sent. The
//! last line of standard output is the result object; the line before it
//! records the run (seed, commit, host, sizes, shares). See `README.md`
//! for why each workload exists and which layer metric should move which
//! end-to-end metric.

mod backend;
mod calib;
mod changes;
mod common;
mod durable;
mod metrics;
mod steps;
mod trace;

use common::{ratio, Outcome};
use metrics::Layers;
use std::path::{Path, PathBuf};
use trace::Tracer;

/// Population sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Live instances of `steps`.
    pub steps_population: usize,
    /// Commands per `steps` round.
    pub steps_commands: usize,
    /// Instances per `changes` round.
    pub changes_population: usize,
    /// Instances per `durable` round.
    pub durable_population: usize,
    /// Set-ups per round; each round keeps the last, and `setup_s` is the
    /// median set-up time of the run.
    pub setups: usize,
}

/// The sizes every run measures.
pub const FULL: Size = Size {
    steps_population: 20_000,
    steps_commands: 65_536,
    changes_population: 4_000,
    durable_population: 300,
    setups: 3,
};

/// A tiny run of every workload, for the smoke test.
#[cfg(test)]
pub const SMOKE: Size = Size {
    steps_population: 200,
    steps_commands: 2_000,
    changes_population: 150,
    durable_population: 60,
    setups: FULL.setups,
};

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Scratch directory for WAL files and the span dump.
    pub work_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["steps", "changes", "durable"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        size: FULL,
        work_dir: PathBuf::from("enginebench/.run"),
    })
}

/// Runs one workload and returns the result line and the run record.
pub fn run(opts: &Opts) -> (Outcome, String) {
    let mut tr = Tracer::new(opts.trace);
    calib::warm();
    let mut out = match opts.workload.as_str() {
        "steps" => steps::run(opts, &mut tr),
        "changes" => changes::run(opts, &mut tr),
        "durable" => durable::run(opts, &mut tr),
        other => unreachable!("workload {other:?} was validated"),
    };
    let correct = out.failed == 0 && out.checks.iter().all(|(_, ok)| *ok);
    out.layers.set(
        "op_fail_ratio",
        ratio(out.failed as f64, out.attempted as f64),
    );
    if tr.on() {
        out.layers.set("trace.spans", tr.span_count() as f64);
        out.layers
            .set("trace.span_overhead_ns", trace::span_overhead_ns(100_000));
        // One file per workload, overwritten by the next traced run.
        let dump = opts.work_dir.join(format!("spans-{}.tsv", opts.workload));
        if let Err(e) = tr.write_tsv(&dump) {
            eprintln!("enginebench: cannot write {}: {e}", dump.display());
        }
    }
    let metrics = if opts.trace { &out.layers } else { &out.e2e };
    let line = metrics::result_json(correct, out.attempted, out.failed, metrics);
    (out, line)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("enginebench: {e}");
            std::process::exit(2);
        }
    };
    // The engine's sources must be where the build found them: a
    // directory holding only the benchmark is not a checkout to measure.
    if !Path::new("crates/engine/src/lib.rs").is_file() {
        eprintln!("enginebench: run from the repository root (crates/engine not found)");
        std::process::exit(2);
    }
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!(
            "enginebench: cannot create {}: {e}",
            opts.work_dir.display()
        );
        std::process::exit(2);
    }
    let (out, line) = run(&opts);
    let mut info = out.info;
    info.put("workload", &opts.workload);
    info.put("seed", opts.seed);
    info.put("seconds", opts.seconds);
    info.put("trace", u8::from(opts.trace));
    info.put("commit", commit());
    info.put(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    info.put(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    info.put("client_threads", 1);
    for (name, ok) in &out.checks {
        if !ok {
            eprintln!("enginebench: check failed: {name}");
        }
    }
    info.put(
        "checks_passed",
        format!(
            "{}/{}",
            out.checks.iter().filter(|c| c.1).count(),
            out.checks.len()
        ),
    );
    println!("{{\"run_info\": {}}}", metrics::record_json(&info));
    println!("{line}");
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(c) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return c.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Per-layer times from the spans the workload recorded around its calls
/// into each layer: the median span duration in µs.
pub fn fill_span_layers(l: &mut Layers, tr: &Tracer) {
    const SPAN_METRICS: &[(&str, &str)] = &[
        ("state.run", "state.run_us"),
        ("state.replay", "state.replay_us"),
        ("engine.command.create", "engine.command.create_us"),
        ("engine.command.step", "engine.command.step_us"),
        ("engine.command.fail", "engine.command.fail_us"),
        ("storage.instances.get", "storage.instances.get_us"),
        ("engine.worklist.delta", "engine.worklist.delta_us"),
        ("engine.monitor.poll", "engine.monitor.poll_us"),
        ("engine.session.begin", "engine.session.begin_us"),
        ("engine.session.stage", "engine.session.stage_us"),
        ("engine.session.commit", "engine.session.commit_us"),
        ("verify.schema", "verify.schema_us"),
        ("model.blocks", "model.blocks_us"),
        ("model.compile", "model.compile_us"),
        ("core.compliance", "core.compliance_us"),
        ("storage.wal.decode", "storage.wal.decode_us"),
    ];
    let mut spans = tr.by_name();
    for (span, metric) in SPAN_METRICS {
        if let Some(durations) = spans.get_mut(span) {
            l.set(metric, durations.median_us());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> (Outcome, String) {
        let opts = Opts {
            workload: workload.into(),
            seed: 7,
            seconds: 0.2,
            trace,
            size: SMOKE,
            work_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join(".run"),
        };
        std::fs::create_dir_all(&opts.work_dir).expect("work dir");
        run(&opts)
    }

    /// Every workload passes every check at tiny size, traced and not, and
    /// prints exactly its catalogue.
    #[test]
    fn smoke_runs_pass_every_check() {
        for workload in ["steps", "changes", "durable"] {
            for trace in [false, true] {
                let (out, line) = smoke(workload, trace);
                for (check, ok) in &out.checks {
                    assert!(ok, "{workload} (trace {trace}): {check}");
                }
                assert_eq!(out.failed, 0, "{workload}: unexpected failures");
                assert!(line.starts_with("{\"correct\": true"), "{line}");
                let catalogue = if trace {
                    metrics::PER_LAYER
                } else {
                    metrics::END_TO_END
                };
                assert_eq!(line.matches("\"unit\":").count(), catalogue.len());
                for (name, unit) in catalogue {
                    let entry = format!("\"{name}\": {{\"value\": ");
                    assert!(line.contains(&entry), "{workload}: {name} missing");
                    assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
                }
            }
        }
    }

    /// `BENCHMARK.json` declares exactly the metrics the benchmark prints.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let all = metrics::END_TO_END.iter().chain(metrics::PER_LAYER);
        for (name, unit) in all {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} ({unit}) not declared");
        }
        assert_eq!(
            json.matches("\"unit\":").count(),
            metrics::END_TO_END.len() + metrics::PER_LAYER.len()
        );
    }
}
