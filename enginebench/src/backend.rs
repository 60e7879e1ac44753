//! A [`StorageBackend`] that times and counts every call into the backend
//! it wraps — the storage layer's boundary for the traced `durable` run.

use crate::trace::Samples;
use adept_storage::{LockClass, OrderedMutex, RawLog, StorageBackend, StorageError};
use std::sync::Arc;
use std::time::Instant;

/// What the wrapped backend was asked to do, and how long it took.
#[derive(Debug, Default)]
pub struct BackendStats {
    pub append_ns: Samples,
    pub bytes: u64,
    pub sync_ns: Samples,
    pub read_log_ns: Samples,
}

/// The stats lock is a leaf: taken after the wrapped call returns, while
/// the engine may hold any of its own locks.
pub static BACKEND_STATS: LockClass = LockClass::new("enginebench.backend-stats", 200);

pub type SharedStats = Arc<OrderedMutex<BackendStats>>;

#[derive(Debug)]
pub struct TimedBackend {
    inner: Box<dyn StorageBackend>,
    stats: SharedStats,
}

impl TimedBackend {
    pub fn new(inner: Box<dyn StorageBackend>, stats: SharedStats) -> Self {
        Self { inner, stats }
    }

    fn record(&self, f: impl FnOnce(&mut BackendStats)) {
        f(&mut self.stats.lock());
    }
}

impl StorageBackend for TimedBackend {
    fn append_line(&self, line: &str) -> Result<(), StorageError> {
        let t = Instant::now();
        let r = self.inner.append_line(line);
        let ns = t.elapsed().as_nanos() as u64;
        self.record(|s| {
            s.append_ns.push(ns);
            // The backend adds the line terminator.
            s.bytes += line.len() as u64 + 1;
        });
        r
    }

    fn sync(&self) -> Result<(), StorageError> {
        let t = Instant::now();
        let r = self.inner.sync();
        let ns = t.elapsed().as_nanos() as u64;
        self.record(|s| s.sync_ns.push(ns));
        r
    }

    fn read_log(&self) -> Result<RawLog, StorageError> {
        let t = Instant::now();
        let r = self.inner.read_log();
        let ns = t.elapsed().as_nanos() as u64;
        self.record(|s| s.read_log_ns.push(ns));
        r
    }

    fn reset(&self) -> Result<(), StorageError> {
        self.inner.reset()
    }

    // Forwarded so the engine runs the same program as on the bare
    // backend: the trait's default `infallible() = false` would switch the
    // command path to defensive pre-images.
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn infallible(&self) -> bool {
        self.inner.infallible()
    }
}
