//! Spans recorded by the benchmark around its calls into each layer, and
//! the latency-sample statistics every metric is derived from.
//!
//! Spans live in memory while a run measures and are written out when it
//! ends. Every span of one client operation shares that operation's
//! request id.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: u32,
    req: u64,
    start_ns: u64,
    end_ns: u64,
}

/// An open span; hand it back to [`Tracer::close`].
#[must_use]
pub struct Open(u32);

/// The in-memory span recorder. When off, opening and closing a span is
/// one branch each.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    req: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span. A span opened with no span open starts a new request.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        if parent == NO_PARENT {
            self.req += 1;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent,
            req: self.req,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(idx)
    }

    pub fn close(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans close in LIFO order");
        self.spans[open.0 as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
    }

    /// Times `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let o = self.open(name);
        let r = f();
        self.close(o);
        r
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Every span duration in ns, per span name. The layer spans are
    /// leaves, so a layer's self time is its span's duration.
    pub fn by_name(&self) -> BTreeMap<&'static str, Samples> {
        let mut out: BTreeMap<&'static str, Samples> = BTreeMap::new();
        for s in &self.spans {
            out.entry(s.name).or_default().push(s.end_ns - s.start_ns);
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `req parent name start_ns end_ns` (parent `-` for a root span).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "req\tparent\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            if s.parent == NO_PARENT {
                writeln!(w, "{}\t-\t{}\t{}\t{}", s.req, s.name, s.start_ns, s.end_ns)?;
            } else {
                writeln!(
                    w,
                    "{}\t{}\t{}\t{}\t{}",
                    s.req, s.parent, s.name, s.start_ns, s.end_ns
                )?;
            }
        }
        w.flush()
    }
}

/// Nanosecond samples of one quantity.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn total_ns(&self) -> u64 {
        self.0.iter().sum()
    }

    /// The `q`-quantile in ns (nearest rank), 0 with no samples.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.sort_unstable();
        let rank = ((q * self.0.len() as f64).ceil() as usize).clamp(1, self.0.len());
        self.0[rank - 1] as f64
    }

    pub fn median_us(&mut self) -> f64 {
        self.quantile(0.5) / 1e3
    }

    pub fn p99_us(&mut self) -> f64 {
        self.quantile(0.99) / 1e3
    }

    pub fn median_s(&mut self) -> f64 {
        self.quantile(0.5) / 1e9
    }
}

/// Samples of one quantity, kept per round of a run.
#[derive(Debug, Default)]
pub struct Rounds(Vec<Samples>);

impl Rounds {
    pub fn push(&mut self, round: &Samples) {
        self.0.push(round.clone());
    }

    pub fn len(&self) -> usize {
        self.0.iter().map(Samples::len).sum()
    }

    /// The median, over windows of `w` consecutive samples, of each
    /// window's `stat`. A window never straddles two rounds, and a round
    /// shorter than `w` is one window. The host's speed swings within a
    /// run and moves some windows, not the typical one; and a round's
    /// samples follow the same trajectory in every run, so aligning the
    /// windows to rounds keeps them comparable from run to run.
    fn windowed(&self, w: usize, stat: impl Fn(&mut [u64]) -> f64) -> f64 {
        let mut per_window: Vec<f64> = Vec::new();
        for round in &self.0 {
            if round.0.len() < w {
                if !round.0.is_empty() {
                    per_window.push(stat(&mut round.0.clone()));
                }
            } else {
                per_window.extend(round.0.chunks_exact(w).map(|c| stat(&mut c.to_vec())));
            }
        }
        if per_window.is_empty() {
            return 0.0;
        }
        per_window.sort_by(f64::total_cmp);
        per_window[per_window.len() / 2]
    }

    /// Windowed `q`-quantile in µs.
    pub fn windowed_us(&self, w: usize, q: f64) -> f64 {
        self.windowed(w, |c| {
            c.sort_unstable();
            let rank = ((q * c.len() as f64).ceil() as usize).clamp(1, c.len());
            c[rank - 1] as f64
        }) / 1e3
    }

    /// Windowed rate: samples per second of summed sample time.
    pub fn windowed_rate(&self, w: usize) -> f64 {
        self.windowed(w, |c| {
            let ns: u64 = c.iter().sum();
            if ns == 0 {
                0.0
            } else {
                c.len() as f64 * 1e9 / ns as f64
            }
        })
    }
}

/// The cost of one recorded span, measured by recording `n` empty ones.
pub fn span_overhead_ns(n: usize) -> f64 {
    let mut t = Tracer::new(true);
    let start = Instant::now();
    for _ in 0..n {
        let o = t.open("overhead");
        t.close(o);
    }
    start.elapsed().as_nanos() as f64 / n as f64
}
