//! Pluggable storage backends for the write-ahead log.
//!
//! A [`StorageBackend`] is a minimal append-only line store: the WAL
//! encodes one record per line (JSONL) and relies on the backend for
//! nothing but ordered durable appends and a full read-back with
//! **torn-tail repair**. Two implementations ship:
//!
//! * [`MemoryBackend`] — a shared in-memory buffer. Infallible, cheap,
//!   clonable (clones share the medium, which is how tests simulate a
//!   process restart against the "same disk"). Used by tests and benches.
//! * [`FileBackend`] — an embedded durable file with a configurable
//!   [`SyncPolicy`] (fsync every append, every N appends, or never).
//!
//! # Torn tails vs. interior corruption
//!
//! A crash (`kill -9`, power loss) during an append leaves a **prefix**
//! of the final line on the medium — every append writes `line + '\n'`
//! in one call, so an incomplete append is exactly a final chunk without
//! a terminating newline. [`StorageBackend::read_log`] repairs this by
//! truncating the medium back to the last complete line and reporting how
//! many bytes were dropped. A *complete* line that does not decode, by
//! contrast, cannot be produced by a torn append — it means the medium
//! was damaged in place, and the WAL layer treats it as a hard error.

use crate::error::StorageError;
use crate::ordered::{classes, OrderedMutex};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// When a [`FileBackend`] flushes appended records to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every append — maximum durability, every committed
    /// record survives a crash.
    Always,
    /// `fsync` every `n` appends — bounded loss window, amortised cost.
    Interval(u64),
    /// Never `fsync` explicitly; the OS flushes on its own schedule.
    /// Survives process crashes (the page cache persists), not power
    /// loss.
    Never,
}

/// The raw content of a backend's log after torn-tail repair.
#[derive(Debug, Clone, Default)]
pub struct RawLog {
    /// The complete lines, in append order, without terminators.
    pub lines: Vec<String>,
    /// Bytes of a torn (incomplete) final append that were truncated
    /// away. `0` means the log ended cleanly.
    pub torn_tail_bytes: usize,
}

/// An append-only line store the write-ahead log runs on.
pub trait StorageBackend: Send + Sync + std::fmt::Debug {
    /// Appends one line (the terminator is the backend's job) and applies
    /// the backend's durability policy.
    fn append_line(&self, line: &str) -> Result<(), StorageError>;

    /// Forces everything appended so far to stable storage.
    fn sync(&self) -> Result<(), StorageError>;

    /// Reads the whole log back, **repairing a torn tail in place**: an
    /// incomplete final append is truncated off the medium (so later
    /// appends cannot concatenate onto the torn fragment) and reported
    /// in [`RawLog::torn_tail_bytes`].
    fn read_log(&self) -> Result<RawLog, StorageError>;

    /// Truncates the log to empty (checkpointing: a fresh snapshot has
    /// superseded the recorded tail).
    fn reset(&self) -> Result<(), StorageError>;

    /// A short name for reports and monitor events (`"memory"`,
    /// `"file"`).
    fn kind(&self) -> &'static str;

    /// Whether appends can actually fail (the in-memory medium cannot).
    /// Informational: the engine rolls a failed command journal back the
    /// same way on every medium, from the delta mark it journals anyway.
    fn infallible(&self) -> bool {
        false
    }
}

/// Splits a raw byte buffer into complete lines plus the torn tail.
fn split_lines(bytes: &[u8]) -> (Vec<String>, usize) {
    let complete_up_to = match bytes.iter().rposition(|b| *b == b'\n') {
        Some(pos) => pos + 1,
        None => 0,
    };
    let torn = bytes.len() - complete_up_to;
    let lines = bytes[..complete_up_to]
        .split(|b| *b == b'\n')
        .filter(|l| !l.is_empty())
        .map(|l| String::from_utf8_lossy(l).into_owned())
        .collect();
    (lines, torn)
}

// ---------------------------------------------------------------------
// MemoryBackend
// ---------------------------------------------------------------------

/// An in-memory backend: a shared byte buffer behind an `Arc`.
///
/// Clones share the buffer, so `backend.clone()` models "reopen the same
/// medium after a restart" — the crash-recovery tests drive both engines
/// against one buffer. [`MemoryBackend::set_raw`] / [`MemoryBackend::raw`]
/// expose the medium for fault injection (truncating mid-record simulates
/// a torn append).
#[derive(Debug, Clone)]
pub struct MemoryBackend {
    buf: std::sync::Arc<OrderedMutex<Vec<u8>>>,
}

impl Default for MemoryBackend {
    fn default() -> Self {
        Self {
            buf: std::sync::Arc::new(OrderedMutex::new(&classes::WAL_MEMORY_BUF, Vec::new())),
        }
    }
}

impl MemoryBackend {
    /// An empty in-memory medium.
    pub fn new() -> Self {
        Self::default()
    }

    /// The raw bytes currently on the medium (fault-injection hook).
    pub fn raw(&self) -> Vec<u8> {
        self.buf.lock().clone()
    }

    /// Replaces the raw bytes on the medium (fault-injection hook: a
    /// `kill -9` mid-append is `set_raw(&raw[..n])`).
    pub fn set_raw(&self, bytes: &[u8]) {
        *self.buf.lock() = bytes.to_vec();
    }
}

impl StorageBackend for MemoryBackend {
    fn append_line(&self, line: &str) -> Result<(), StorageError> {
        let mut buf = self.buf.lock();
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        Ok(())
    }

    fn sync(&self) -> Result<(), StorageError> {
        Ok(())
    }

    fn read_log(&self) -> Result<RawLog, StorageError> {
        let mut buf = self.buf.lock();
        let (lines, torn) = split_lines(&buf);
        if torn > 0 {
            let keep = buf.len() - torn;
            buf.truncate(keep);
        }
        Ok(RawLog {
            lines,
            torn_tail_bytes: torn,
        })
    }

    fn reset(&self) -> Result<(), StorageError> {
        self.buf.lock().clear();
        Ok(())
    }

    fn kind(&self) -> &'static str {
        "memory"
    }

    fn infallible(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------
// FileBackend
// ---------------------------------------------------------------------

/// State behind the file backend's mutex: the lazily opened append
/// handle (shared `Arc` so fsync can run outside this lock), the
/// unsynced-append counter for [`SyncPolicy::Interval`], the count
/// of completed appends (the group-commit cover mark), and the
/// partial-write bookkeeping: `len` is the file length after the last
/// *successful* append, `dirty` marks that a failed `write_all` may have
/// left partial bytes past `len`. The next append truncates back to
/// `len` first — otherwise a retried record would concatenate onto the
/// partial fragment into one complete-but-undecodable line, which the
/// WAL layer must treat as interior corruption rather than a torn tail.
#[derive(Debug, Default)]
struct FileState {
    file: Option<std::sync::Arc<File>>,
    unsynced: u64,
    written: u64,
    len: u64,
    dirty: bool,
}

/// An embedded durable file backend (JSONL, append-only).
///
/// The file is created on first append; reads open their own handle, so
/// a backend can be constructed against a path that does not exist yet
/// (recovery of a fresh system finds an empty log).
///
/// # Group commit
///
/// Under [`SyncPolicy::Always`] the fsync runs **outside** the write
/// lock: an appender notes how many appends had completed when it wrote,
/// and before issuing its own fsync checks whether a concurrent
/// appender's fsync already covered that mark. Under concurrent load one
/// physical fsync commits a whole batch of appends — each caller still
/// returns only once *its* record is durable, so the policy's guarantee
/// is unchanged while the fsync cost is amortised across the group.
#[derive(Debug)]
pub struct FileBackend {
    path: PathBuf,
    policy: SyncPolicy,
    state: OrderedMutex<FileState>,
    /// Appends covered by a completed fsync (group-commit bookkeeping,
    /// compared against `FileState::written`). Separate lock so a slow
    /// fsync never blocks concurrent writes.
    synced: OrderedMutex<u64>,
}

impl FileBackend {
    /// A file backend writing to `path` with [`SyncPolicy::Always`].
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self::with_policy(path, SyncPolicy::Always)
    }

    /// A file backend with an explicit fsync policy.
    pub fn with_policy(path: impl Into<PathBuf>, policy: SyncPolicy) -> Self {
        Self {
            path: path.into(),
            policy,
            state: OrderedMutex::new(&classes::WAL_FILE_STATE, FileState::default()),
            synced: OrderedMutex::new(&classes::WAL_FILE_SYNCED, 0),
        }
    }

    /// `n` file backends for a segmented WAL: `base` with a `.segNN`
    /// suffix per segment, all sharing one fsync policy. Returned boxed,
    /// ready for `WriteAheadLog::create_segmented` / `open_segmented` and
    /// the engine's segmented constructors. Pass the same base and count
    /// to recovery so every segment is found.
    pub fn segments(
        base: impl Into<PathBuf>,
        n: usize,
        policy: SyncPolicy,
    ) -> Vec<Box<dyn StorageBackend>> {
        let base = base.into();
        (0..n.max(1))
            .map(|i| {
                let mut path = base.clone().into_os_string();
                path.push(format!(".seg{i:02}"));
                Box::new(FileBackend::with_policy(PathBuf::from(path), policy))
                    as Box<dyn StorageBackend>
            })
            .collect()
    }

    /// The path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The backend's fsync policy.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    fn open_append(state: &mut FileState, path: &Path) -> Result<(), StorageError> {
        if state.file.is_none() {
            let f = OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| StorageError::io("open", &e))?;
            state.len = f
                .metadata()
                .map_err(|e| StorageError::io("stat", &e))?
                .len();
            state.dirty = false;
            state.file = Some(std::sync::Arc::new(f));
        }
        Ok(())
    }
}

impl StorageBackend for FileBackend {
    fn append_line(&self, line: &str) -> Result<(), StorageError> {
        let (file, my_mark) = {
            let mut state = self.state.lock();
            Self::open_append(&mut state, &self.path)?;
            let file = state
                .file
                .clone()
                .expect("invariant: open_append populated the handle just above");
            if state.dirty {
                // A previous append failed mid-write; cut any partial
                // bytes off before writing so the new record starts on a
                // record boundary (O_APPEND writes land at the new end).
                file.set_len(state.len)
                    .map_err(|e| StorageError::io("truncate", &e))?;
                state.dirty = false;
            }
            // One write call for line + terminator: a crash mid-append
            // leaves a prefix, which read_log identifies by the missing
            // newline.
            let mut bytes = Vec::with_capacity(line.len() + 1);
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
            if let Err(e) = (&*file).write_all(&bytes) {
                state.dirty = true;
                return Err(StorageError::io("append", &e));
            }
            state.len += bytes.len() as u64;
            state.written += 1;
            match self.policy {
                SyncPolicy::Always => (file, state.written),
                SyncPolicy::Interval(n) => {
                    state.unsynced += 1;
                    if state.unsynced >= n.max(1) {
                        file.sync_data()
                            .map_err(|e| StorageError::io("fsync", &e))?;
                        state.unsynced = 0;
                    }
                    return Ok(());
                }
                SyncPolicy::Never => return Ok(()),
            }
        };
        // Group commit (Always): fsync outside the write lock. If a
        // concurrent appender's fsync started after our write completed,
        // its completion already made our record durable — skip the
        // syscall entirely.
        let mut synced = self.synced.lock();
        if *synced >= my_mark {
            return Ok(());
        }
        // Everything written before the fsync starts is covered by it.
        let cover = self.state.lock().written;
        file.sync_data()
            .map_err(|e| StorageError::io("fsync", &e))?;
        *synced = (*synced).max(cover);
        Ok(())
    }

    fn sync(&self) -> Result<(), StorageError> {
        let (file, cover) = {
            let mut state = self.state.lock();
            state.unsynced = 0;
            match state.file.clone() {
                Some(f) => {
                    let cover = state.written;
                    (f, cover)
                }
                None => return Ok(()),
            }
        };
        file.sync_data()
            .map_err(|e| StorageError::io("fsync", &e))?;
        let mut synced = self.synced.lock();
        *synced = (*synced).max(cover);
        Ok(())
    }

    fn read_log(&self) -> Result<RawLog, StorageError> {
        let mut state = self.state.lock();
        let mut bytes = Vec::new();
        match File::open(&self.path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)
                    .map_err(|e| StorageError::io("read", &e))?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(RawLog::default());
            }
            Err(e) => return Err(StorageError::io("open", &e)),
        }
        let (lines, torn) = split_lines(&bytes);
        if torn > 0 {
            // Repair: drop the torn fragment from the medium so later
            // appends start on a record boundary.
            let keep = (bytes.len() - torn) as u64;
            OpenOptions::new()
                .write(true)
                .open(&self.path)
                .and_then(|f| f.set_len(keep))
                .map_err(|e| StorageError::io("truncate", &e))?;
        }
        // Resync the partial-write bookkeeping with what is actually on
        // the medium (repair above, or fault injection outside this
        // handle).
        if state.file.is_some() {
            state.len = (bytes.len() - torn) as u64;
            state.dirty = false;
        }
        drop(state);
        Ok(RawLog {
            lines,
            torn_tail_bytes: torn,
        })
    }

    fn reset(&self) -> Result<(), StorageError> {
        // synced before state, matching the group-commit path in
        // append_line — machine-checked, see docs/LOCK_ORDER.md.
        let mut synced = self.synced.lock();
        let mut state = self.state.lock();
        state.file = None;
        state.unsynced = 0;
        state.written = 0;
        state.len = 0;
        state.dirty = false;
        *synced = 0;
        match std::fs::remove_file(&self.path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StorageError::io("reset", &e)),
        }
    }

    fn kind(&self) -> &'static str {
        "file"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A unique temp path per test invocation (no tempfile crate in the
    /// offline workspace).
    pub(crate) fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("adept-wal-{}-{tag}-{n}.jsonl", std::process::id()))
    }

    #[test]
    fn memory_roundtrip_and_reset() {
        let b = MemoryBackend::new();
        b.append_line("one").unwrap();
        b.append_line("two").unwrap();
        let log = b.read_log().unwrap();
        assert_eq!(log.lines, vec!["one", "two"]);
        assert_eq!(log.torn_tail_bytes, 0);
        assert!(b.infallible());
        b.reset().unwrap();
        assert!(b.read_log().unwrap().lines.is_empty());
    }

    #[test]
    fn memory_clone_shares_medium() {
        let a = MemoryBackend::new();
        a.append_line("shared").unwrap();
        let b = a.clone();
        assert_eq!(b.read_log().unwrap().lines, vec!["shared"]);
    }

    #[test]
    fn memory_torn_tail_is_truncated() {
        let b = MemoryBackend::new();
        b.append_line("complete").unwrap();
        b.append_line("doomed").unwrap();
        let raw = b.raw();
        // Chop mid-way through the second record (keep its first 3 bytes).
        b.set_raw(&raw[..raw.len() - 4]);
        let log = b.read_log().unwrap();
        assert_eq!(log.lines, vec!["complete"]);
        assert_eq!(log.torn_tail_bytes, 3);
        // The medium was repaired: appending continues cleanly.
        b.append_line("after").unwrap();
        let log = b.read_log().unwrap();
        assert_eq!(log.lines, vec!["complete", "after"]);
        assert_eq!(log.torn_tail_bytes, 0);
    }

    #[test]
    fn file_roundtrip_and_missing_file() {
        let path = temp_path("roundtrip");
        let b = FileBackend::new(&path);
        assert!(
            b.read_log().unwrap().lines.is_empty(),
            "missing file = empty"
        );
        b.append_line("alpha").unwrap();
        b.append_line("beta").unwrap();
        b.sync().unwrap();
        let log = b.read_log().unwrap();
        assert_eq!(log.lines, vec!["alpha", "beta"]);
        assert_eq!(b.kind(), "file");
        assert!(!b.infallible());
        b.reset().unwrap();
        assert!(b.read_log().unwrap().lines.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_torn_tail_repaired_on_disk() {
        let path = temp_path("torn");
        let b = FileBackend::with_policy(&path, SyncPolicy::Never);
        b.append_line("keep me").unwrap();
        b.append_line("torn away").unwrap();
        b.sync().unwrap();
        // Simulate kill -9 mid-append: truncate the file mid-record.
        let bytes = std::fs::read(&path).unwrap();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(bytes.len() as u64 - 5).unwrap();
        drop(f);
        let log = b.read_log().unwrap();
        assert_eq!(log.lines, vec!["keep me"]);
        assert!(log.torn_tail_bytes > 0);
        // Physically repaired: the file now ends at the last boundary.
        let repaired = std::fs::read(&path).unwrap();
        assert!(repaired.ends_with(b"keep me\n"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interval_policy_counts_appends() {
        let path = temp_path("interval");
        let b = FileBackend::with_policy(&path, SyncPolicy::Interval(3));
        for i in 0..7 {
            b.append_line(&format!("r{i}")).unwrap();
        }
        assert_eq!(b.read_log().unwrap().lines.len(), 7);
        assert_eq!(b.policy(), SyncPolicy::Interval(3));
        let _ = std::fs::remove_file(&path);
    }
}
