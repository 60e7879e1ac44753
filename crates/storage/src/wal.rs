//! The write-ahead log: every engine mutation as one durable JSONL record.
//!
//! The WAL is the engine's source of durability *between* snapshots:
//! every committed change transaction and every state-mutating command
//! outcome is appended here — encoded as one compact JSON line — **before**
//! it becomes visible engine state. Recovery loads the latest snapshot and
//! replays the WAL tail (`seq > snapshot.wal_seq`) to reconstruct the
//! exact pre-crash engine; see the crate-level "Durability & recovery"
//! section.
//!
//! Records are **physical**, not logical commands, so replay converges
//! byte-for-byte without re-running drivers, guards or compliance
//! checks. Commands — the bulk of the log — journal a **delta**
//! ([`WalRecord::CommandApplied`]): the events and writes they appended
//! (after a history cut point) and the marking entries they changed, so
//! a record's size is that of the command, not of the instance's
//! history. Creations, ad-hoc changes and migration hops, which rebuild
//! the instance, journal its full post-image. Change transactions
//! additionally embed their audit [`TxnRecord`] in the *same* line as the
//! post-image — one append, so a crash can never separate a change from
//! its audit trail.
//!
//! A delta applies only to the state it was taken against: replay checks
//! its prior history and write-log lengths and refuses a mismatch as
//! corruption. It is also applied exactly once. Every instance record is
//! journaled under its store shard's write lock, and the shard is
//! stamped with the record's sequence in the same critical section
//! ([`crate::InstanceStore::all_stamped`]). A snapshot persists the
//! stamps it read together with each shard's instances, so recovery
//! skips exactly the records a snapshot already holds
//! ([`crate::Snapshot::covers`]), even when the snapshot ran ahead of
//! its watermark.
//!
//! The WAL also **is** the transaction log: [`crate::TxnLog`] is a view
//! over the `txns` projection maintained here, replacing the old
//! standalone locked `Vec` and its separate global sequence.

use crate::backend::StorageBackend;
use crate::error::StorageError;
use crate::ordered::{classes, OrderedMutex, OrderedRwLock};
use crate::persist::InstanceRecord;
use crate::txnlog::TxnRecord;
use adept_model::{InstanceId, ProcessSchema};
use adept_state::{InstanceState, StateDelta};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// One durable engine mutation. `Created`, `ChangeCommitted` and
/// `Migrated` carry the instance's complete resulting record;
/// `CommandApplied` carries only what a command changed and applies once,
/// to the exact state it was taken against. Instance records
/// (`Created`, `CommandApplied`, `ChangeCommitted`, `Migrated`,
/// `Removed`) are journaled under the instance's store shard lock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalRecord {
    /// A process type was deployed (version 1). Carries the deployed
    /// schema verbatim, id included.
    Deployed {
        /// The deployed version-1 schema.
        schema: ProcessSchema,
    },
    /// A type evolution committed: `name` gained the version after
    /// `base_version`, produced by the embedded transaction's operations.
    Evolved {
        /// Process type name.
        name: String,
        /// The version the evolution was based on.
        base_version: u32,
        /// The audit record (ops + inverses) of the committed evolution.
        txn: TxnRecord,
    },
    /// An instance was created (initial state post-image).
    Created {
        /// The new instance.
        id: InstanceId,
        /// Its process type.
        type_name: String,
        /// The version it was created on.
        version: u32,
        /// Its initial runtime state.
        state: InstanceState,
    },
    /// A command (or a group of commands submitted together) changed an
    /// instance's runtime state: the delta over its prior state.
    CommandApplied {
        /// The instance.
        id: InstanceId,
        /// What the command changed; replay applies it only when the
        /// instance's history and write-log lengths match its prior ones.
        delta: StateDelta,
    },
    /// An ad-hoc change transaction committed on one instance: the full
    /// instance post-image plus the audit record, atomically in one line.
    ChangeCommitted {
        /// The instance after the commit (bias, subst, state included).
        record: InstanceRecord,
        /// The audit record of the committed transaction.
        txn: TxnRecord,
    },
    /// An instance migrated one version hop (full post-image).
    Migrated {
        /// The instance after the hop.
        record: InstanceRecord,
    },
    /// An instance was removed (cancelled / archived).
    Removed {
        /// The removed instance.
        id: InstanceId,
    },
    /// A standalone audit transaction record with no state side effect.
    /// No engine commit path writes one; replay still accepts it.
    Txn {
        /// The audit record.
        record: TxnRecord,
    },
    /// A durable no-op filling an abandoned sequence number: the append
    /// that allocated it failed on its medium after a later sequence was
    /// already handed out, so the number could not be returned to the
    /// allocator. The tombstone keeps the sequence contiguous — without
    /// it a single transient backend error would leave a permanent hole
    /// that recovery must treat as lost records. Replay ignores it.
    Abandoned,
}

/// One WAL entry: a globally sequenced record. `seq` is contiguous and
/// 1-based; recovery verifies contiguity and treats gaps as corruption.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalEntry {
    /// Position in the log (1-based, contiguous).
    pub seq: u64,
    /// The recorded mutation.
    pub record: WalRecord,
}

impl WalRecord {
    /// The instance an instance record is about (`None` for type-level
    /// records and fillers).
    pub fn instance(&self) -> Option<InstanceId> {
        match self {
            WalRecord::Created { id, .. }
            | WalRecord::CommandApplied { id, .. }
            | WalRecord::Removed { id } => Some(*id),
            WalRecord::ChangeCommitted { record, .. } | WalRecord::Migrated { record } => {
                Some(record.id)
            }
            WalRecord::Deployed { .. }
            | WalRecord::Evolved { .. }
            | WalRecord::Txn { .. }
            | WalRecord::Abandoned => None,
        }
    }
}

/// Where [`WriteAheadLog::append_txn`] put a transaction-carrying record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnAppend {
    /// The transaction's audit sequence number (1-based).
    pub txn_seq: u64,
    /// The record's WAL sequence (0 on a disabled WAL).
    pub wal_seq: u64,
}

/// Encodes one entry as its compact one-line JSON form (the shared codec:
/// snapshots embed transaction records with the same serializer).
pub fn encode_entry(entry: &WalEntry) -> Result<String, StorageError> {
    serde_json::to_string(entry).map_err(|e| StorageError::Encode {
        detail: format!("wal entry #{}: {e}", entry.seq),
    })
}

/// Decodes one line back into an entry. A complete line that does not
/// decode is **interior corruption** (torn tails never produce complete
/// lines) and therefore a hard error.
pub fn decode_entry(line: &str) -> Result<WalEntry, StorageError> {
    serde_json::from_str(line).map_err(|e| StorageError::Corrupt {
        detail: format!("undecodable wal record: {e}"),
    })
}

/// State behind the WAL's lock: the materialised transaction-log view.
/// (Appends no longer pass through here — sequence allocation is an
/// atomic and each append takes only its segment backend's own lock.)
#[derive(Debug)]
struct WalInner {
    txns: Vec<TxnRecord>,
}

/// Durability bookkeeping: `upto` is the highest sequence such that every
/// sequence at or below it has been successfully appended; `completed`
/// holds out-of-order completions above `upto` until the chain closes.
/// Updated after the segment I/O, outside any segment lock — the critical
/// section is a set insertion, not an append.
#[derive(Debug, Default)]
struct Durable {
    upto: u64,
    completed: BTreeSet<u64>,
}

impl Durable {
    fn mark(&mut self, seq: u64) {
        if seq == self.upto + 1 {
            self.upto = seq;
            while self.completed.remove(&(self.upto + 1)) {
                self.upto += 1;
            }
        } else if seq > self.upto {
            self.completed.insert(seq);
        }
    }

    /// Jumps the watermark to at least `seq` (everything below is known
    /// covered), then drains any completions that became contiguous.
    fn advance_to(&mut self, seq: u64) {
        if self.upto < seq {
            self.upto = seq;
            while self.completed.remove(&(self.upto + 1)) {
                self.upto += 1;
            }
        }
    }
}

/// The engine's write-ahead log, segmented across one or more
/// [`StorageBackend`] mediums.
///
/// Disabled by default ([`WriteAheadLog::disabled`]): a disabled WAL
/// maintains only the transaction-log *view* (the audit trail every
/// engine keeps) and performs no encoding or I/O — the hot path of
/// non-durable engines is untouched. Durable engines attach backends via
/// [`WriteAheadLog::create`] / [`WriteAheadLog::create_segmented`]
/// (fresh log) or [`WriteAheadLog::open`] /
/// [`WriteAheadLog::open_segmented`] (recovery).
///
/// # Segmentation
///
/// Sequence numbers are allocated by one atomic counter (globally
/// ordered, contention-free); entry `seq` selects the segment by
/// `(seq - 1) & mask`, so consecutive appends round-robin across
/// segments and concurrent appends from different store shards land on
/// different segment mediums — command journaling under a shard write
/// lock does not serialise every shard on one backend lock.
/// With one segment (the [`WriteAheadLog::create`] path) the layout is
/// byte-identical to the pre-segmentation log. Recovery merges all
/// segments by sequence number; per-segment torn tails are repaired by
/// the backends. A gap in the merged sequence is classified by the
/// replay layer: a bounded gap at the global tail is the normal residue
/// of a crash under concurrent appends (an earlier-allocated record torn
/// or unwritten while a later one is already durable in a sibling
/// segment) and is repaired via [`WriteAheadLog::retain_up_to`]; a wide
/// or leading gap (a lost segment, a truncated log without its snapshot)
/// is reported as corruption.
#[derive(Debug)]
pub struct WriteAheadLog {
    inner: OrderedRwLock<WalInner>,
    /// The next entry sequence number to allocate (1-based).
    next_seq: AtomicU64,
    /// Contiguous-durability tracker behind [`WriteAheadLog::durable_position`].
    durable: OrderedMutex<Durable>,
    /// Segment mediums (empty = disabled). Backends synchronise
    /// internally, so appends need no WAL-level lock.
    segments: Box<[Box<dyn StorageBackend>]>,
    /// `segments.len() - 1`; segment count is a power of two.
    mask: u64,
}

impl Default for WriteAheadLog {
    fn default() -> Self {
        Self::disabled()
    }
}

impl WriteAheadLog {
    fn assemble(segments: Vec<Box<dyn StorageBackend>>, next_seq: u64) -> Self {
        let mask = segments.len().saturating_sub(1) as u64;
        Self {
            inner: OrderedRwLock::new(&classes::WAL_VIEW, WalInner { txns: Vec::new() }),
            next_seq: AtomicU64::new(next_seq),
            durable: OrderedMutex::new(
                &classes::WAL_DURABLE,
                Durable {
                    // Everything below the opening position is on the medium
                    // (or covered by the snapshot a recovery replays).
                    upto: next_seq - 1,
                    completed: BTreeSet::new(),
                },
            ),
            segments: segments.into_boxed_slice(),
            mask,
        }
    }

    /// A WAL without a backend: appends maintain the transaction view
    /// only, [`WriteAheadLog::position`] stays 0, nothing is encoded.
    pub fn disabled() -> Self {
        Self::assemble(Vec::new(), 1)
    }

    /// Attaches a single backend for a **fresh** engine. The backend
    /// must be empty (a non-empty log would silently be orphaned —
    /// recovering from it is [`WriteAheadLog::open`]'s job).
    pub fn create(backend: Box<dyn StorageBackend>) -> Result<Self, StorageError> {
        Self::create_segmented(vec![backend])
    }

    /// Attaches a power-of-two number of segment backends for a fresh
    /// engine. Every segment must be empty. Recovery must be given the
    /// same number of segments in the same order
    /// ([`WriteAheadLog::open_segmented`]).
    pub fn create_segmented(segments: Vec<Box<dyn StorageBackend>>) -> Result<Self, StorageError> {
        if !segments.len().is_power_of_two() {
            return Err(StorageError::corrupt(format!(
                "wal segment count must be a power of two, got {}",
                segments.len()
            )));
        }
        for (i, seg) in segments.iter().enumerate() {
            let raw = seg.read_log()?;
            if !raw.lines.is_empty() {
                return Err(StorageError::corrupt(format!(
                    "segment {i} already holds {} wal record(s); recover from it instead \
                     of attaching it to a fresh engine",
                    raw.lines.len()
                )));
            }
        }
        Ok(Self::assemble(segments, 1))
    }

    /// Opens an existing single-backend log for recovery; see
    /// [`WriteAheadLog::open_segmented`].
    pub fn open(
        backend: Box<dyn StorageBackend>,
    ) -> Result<(Self, Vec<WalEntry>, usize), StorageError> {
        Self::open_segmented(vec![backend])
    }

    /// Opens an existing segmented log for recovery: reads every segment
    /// (each after its own torn-tail repair), verifies every entry
    /// decodes, **merges the segments by sequence number**, and returns
    /// the WAL positioned after the highest entry plus the merged
    /// entries and the total torn bytes dropped across segments. A
    /// sequence number appearing twice is corruption (two segments
    /// cannot legally hold the same entry); gaps are left for the replay
    /// layer, which knows the snapshot watermark. The transaction view
    /// starts empty — recovery seeds it from the snapshot and the
    /// replayed records.
    pub fn open_segmented(
        segments: Vec<Box<dyn StorageBackend>>,
    ) -> Result<(Self, Vec<WalEntry>, usize), StorageError> {
        if !segments.len().is_power_of_two() {
            return Err(StorageError::corrupt(format!(
                "wal segment count must be a power of two, got {}",
                segments.len()
            )));
        }
        let mut entries = Vec::new();
        let mut torn_total = 0usize;
        for seg in &segments {
            let raw = seg.read_log()?;
            torn_total += raw.torn_tail_bytes;
            for line in &raw.lines {
                entries.push(decode_entry(line)?);
            }
        }
        entries.sort_by_key(|e| e.seq);
        for pair in entries.windows(2) {
            if pair[0].seq == pair[1].seq {
                return Err(StorageError::corrupt(format!(
                    "wal seq {} recorded twice across segments",
                    pair[0].seq
                )));
            }
        }
        let next_seq = entries.last().map(|e| e.seq).unwrap_or(0) + 1;
        Ok((Self::assemble(segments, next_seq), entries, torn_total))
    }

    /// Whether backends are attached (appends encode and persist).
    pub fn enabled(&self) -> bool {
        !self.segments.is_empty()
    }

    /// Number of segment mediums (0 = disabled).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The attached backends' kind (`"memory"`, `"file"`), if any.
    pub fn backend_kind(&self) -> Option<&'static str> {
        self.segments.first().map(|b| b.kind())
    }

    /// The sequence number of the most recently **allocated** entry (0 =
    /// nothing appended). Under concurrent appends this can run ahead of
    /// what is actually on the mediums — an allocated sequence may still
    /// be in flight, or about to fail and be rolled back. Use
    /// [`WriteAheadLog::durable_position`] for watermarks that claim
    /// coverage.
    pub fn position(&self) -> u64 {
        self.next_seq.load(Ordering::SeqCst) - 1
    }

    /// The highest sequence number `d` such that every entry `1..=d` has
    /// been **successfully appended** (0 = nothing durable). Unlike
    /// [`WriteAheadLog::position`] this never counts allocated-but-
    /// in-flight or failed appends, so it is the safe `wal_seq` watermark
    /// for snapshots: a snapshot claiming coverage up to `d` never claims
    /// a sequence the log does not durably hold. Quiesced (no in-flight
    /// appends), the two positions are equal.
    pub fn durable_position(&self) -> u64 {
        self.durable.lock().upto
    }

    /// Marks one append as successfully persisted, advancing the
    /// contiguous durability watermark when the chain below it is closed.
    fn mark_durable(&self, seq: u64) {
        self.durable.lock().mark(seq);
    }

    /// Advances the position watermark to at least `seq` (recovery: the
    /// snapshot may be newer than the last surviving log entry after a
    /// checkpoint truncation). The sequences below `seq` are covered by
    /// snapshot + replayed log, so the durable watermark advances too.
    pub fn advance_position(&self, seq: u64) {
        self.next_seq.fetch_max(seq + 1, Ordering::SeqCst);
        self.durable.lock().advance_to(seq);
    }

    /// Physically truncates every segment back to the entries with
    /// sequence ≤ `seq` and rewinds the allocator — the recovery-side
    /// repair of a crash tail: sequences past the last contiguous entry
    /// are dropped from *all* segments so siblings cannot carry orphaned
    /// later records, and appends continue at `seq + 1`. Returns the
    /// number of entries dropped. Recovery-only: callers must guarantee
    /// no concurrent appends.
    pub fn retain_up_to(&self, seq: u64) -> Result<usize, StorageError> {
        let mut dropped = 0usize;
        for seg in self.segments.iter() {
            let raw = seg.read_log()?;
            let keep: Vec<&String> = raw
                .lines
                .iter()
                .filter(|line| decode_entry(line).map(|e| e.seq <= seq).unwrap_or(false))
                .collect();
            if keep.len() == raw.lines.len() {
                continue;
            }
            dropped += raw.lines.len() - keep.len();
            seg.reset()?;
            for line in keep {
                seg.append_line(line)?;
            }
        }
        self.next_seq.store(seq + 1, Ordering::SeqCst);
        let mut durable = self.durable.lock();
        durable.upto = seq;
        durable.completed.clear();
        Ok(dropped)
    }

    /// The segment an entry sequence number maps to.
    #[inline]
    fn segment_of(&self, seq: u64) -> &dyn StorageBackend {
        &*self.segments[((seq - 1) & self.mask) as usize]
    }

    /// Allocates the next sequence number, encodes and appends to the
    /// owning segment. On failure the allocation is rolled back when no
    /// later sequence was handed out in the meantime; otherwise the
    /// abandoned number is plugged with a durable [`WalRecord::Abandoned`]
    /// tombstone (on its own segment, falling back to each sibling) so a
    /// transient medium error never leaves a sequence hole that recovery
    /// would have to treat as lost records. Only if *every* segment
    /// refuses the tombstone does the hole remain — the honest outcome of
    /// all mediums failing at once, and still repairable by recovery's
    /// crash-tail truncation if nothing lands after it.
    fn append_allocated(&self, record: WalRecord) -> Result<u64, StorageError> {
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        let result = encode_entry(&WalEntry { seq, record })
            .and_then(|line| self.segment_of(seq).append_line(&line));
        match result {
            Ok(()) => {
                self.mark_durable(seq);
                Ok(seq)
            }
            Err(e) => {
                let rolled_back = self
                    .next_seq
                    .compare_exchange(seq + 1, seq, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok();
                if !rolled_back {
                    self.plug_abandoned(seq);
                }
                Err(e)
            }
        }
    }

    /// Durably records an [`WalRecord::Abandoned`] tombstone for a
    /// sequence number whose append failed and whose allocation could not
    /// be rolled back. Tries the owning segment first (its failure may
    /// have been transient), then every sibling — recovery merges by
    /// sequence and never checks which segment a sequence lives on.
    fn plug_abandoned(&self, seq: u64) {
        let Ok(line) = encode_entry(&WalEntry {
            seq,
            record: WalRecord::Abandoned,
        }) else {
            return;
        };
        let n = self.segments.len();
        let owner = ((seq - 1) & self.mask) as usize;
        for i in 0..n {
            if self.segments[(owner + i) % n].append_line(&line).is_ok() {
                self.mark_durable(seq);
                return;
            }
        }
    }

    /// Appends one record, assigning the next sequence number. On a
    /// disabled WAL this is a no-op returning 0. The record is durable
    /// (per the owning segment's sync policy) when this returns `Ok`.
    /// Concurrent appends contend only on the sequence atomic and their
    /// own segment's medium — never on a WAL-global lock.
    pub fn append(&self, record: WalRecord) -> Result<u64, StorageError> {
        if self.segments.is_empty() {
            return Ok(0);
        }
        self.append_allocated(record)
    }

    /// Appends a record that *carries a transaction*: `build` receives
    /// the next transaction sequence number (the audit numbering, 1-based
    /// and independent of entry sequence numbers) and returns the WAL
    /// record plus the transaction record to expose through the view.
    /// Assignment, append and view update happen under the view lock, so
    /// transaction numbering is race-free; on a backend failure the view
    /// is untouched and the error surfaces to the commit path. (Change
    /// commits are rare next to command journaling, so serialising them
    /// on the view lock costs nothing on the hot path.) Returns the
    /// assigned transaction sequence number and the record's WAL sequence.
    pub fn append_txn(
        &self,
        build: impl FnOnce(u64) -> (WalRecord, TxnRecord),
    ) -> Result<TxnAppend, StorageError> {
        let mut inner = self.inner.write();
        let txn_seq = inner.txns.last().map(|r| r.seq).unwrap_or(0) + 1;
        let (record, txn) = build(txn_seq);
        let wal_seq = if self.segments.is_empty() {
            0
        } else {
            self.append_allocated(record)?
        };
        inner.txns.push(txn);
        Ok(TxnAppend { txn_seq, wal_seq })
    }

    /// Seeds the transaction view from persisted records (snapshot
    /// restore). Existing view content is replaced.
    pub fn seed_txns(&self, mut records: Vec<TxnRecord>) {
        records.sort_by_key(|r| r.seq);
        self.inner.write().txns = records;
    }

    /// Pushes a transaction record recovered from a replayed WAL entry
    /// into the view. Records already covered by the seeded snapshot
    /// (same or lower sequence number) are ignored, so replaying a tail
    /// that overlaps the snapshot stays idempotent.
    pub fn note_replayed_txn(&self, record: TxnRecord) {
        let mut inner = self.inner.write();
        let last = inner.txns.last().map(|r| r.seq).unwrap_or(0);
        if record.seq > last {
            inner.txns.push(record);
        }
    }

    /// A snapshot of the transaction view, in commit order.
    pub fn txn_records(&self) -> Vec<TxnRecord> {
        self.inner.read().txns.clone()
    }

    /// Number of transactions in the view.
    pub fn txn_len(&self) -> usize {
        self.inner.read().txns.len()
    }

    /// Forces every segment to stable storage (no-op when disabled).
    pub fn sync(&self) -> Result<(), StorageError> {
        for seg in self.segments.iter() {
            seg.sync()?;
        }
        Ok(())
    }

    /// Truncates every segment's log to empty while keeping the position
    /// watermark and the transaction view — the checkpoint step after a
    /// snapshot carrying `wal_seq == durable_position()` has been
    /// persisted. Future appends continue the sequence, so recovery can
    /// verify contiguity across the checkpoint.
    pub fn truncate(&self) -> Result<(), StorageError> {
        for seg in self.segments.iter() {
            seg.reset()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{MemoryBackend, RawLog};
    use crate::txnlog::TxnTarget;

    fn txn(seq: u64) -> TxnRecord {
        TxnRecord {
            seq,
            target: TxnTarget::Instance(InstanceId(7)),
            ops: vec![],
            inverses: vec![],
        }
    }

    #[test]
    fn disabled_wal_keeps_view_only() {
        let wal = WriteAheadLog::disabled();
        assert!(!wal.enabled());
        assert_eq!(wal.position(), 0);
        let s = wal
            .append_txn(|seq| (WalRecord::Txn { record: txn(seq) }, txn(seq)))
            .unwrap();
        assert_eq!(
            s,
            TxnAppend {
                txn_seq: 1,
                wal_seq: 0
            }
        );
        assert_eq!(wal.position(), 0, "disabled appends don't advance");
        assert_eq!(wal.txn_len(), 1);
        assert_eq!(
            wal.append(WalRecord::Removed { id: InstanceId(1) })
                .unwrap(),
            0
        );
    }

    #[test]
    fn append_assigns_contiguous_sequence() {
        let wal = WriteAheadLog::create(Box::new(MemoryBackend::new())).unwrap();
        assert!(wal.enabled());
        let s1 = wal
            .append(WalRecord::Removed { id: InstanceId(1) })
            .unwrap();
        let s2 = wal
            .append(WalRecord::Removed { id: InstanceId(2) })
            .unwrap();
        assert_eq!((s1, s2), (1, 2));
        assert_eq!(wal.position(), 2);
    }

    #[test]
    fn open_decodes_entries_and_continues_sequence() {
        let medium = MemoryBackend::new();
        {
            let wal = WriteAheadLog::create(Box::new(medium.clone())).unwrap();
            wal.append(WalRecord::Removed { id: InstanceId(1) })
                .unwrap();
            wal.append_txn(|seq| (WalRecord::Txn { record: txn(seq) }, txn(seq)))
                .unwrap();
        }
        let (wal, entries, torn) = WriteAheadLog::open(Box::new(medium)).unwrap();
        assert_eq!(torn, 0);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].seq, 1);
        assert!(matches!(entries[1].record, WalRecord::Txn { .. }));
        assert_eq!(wal.position(), 2);
        assert_eq!(
            wal.append(WalRecord::Removed { id: InstanceId(9) })
                .unwrap(),
            3
        );
    }

    #[test]
    fn create_refuses_nonempty_backend() {
        let medium = MemoryBackend::new();
        medium.append_line("{\"seq\":1}").unwrap();
        let err = WriteAheadLog::create(Box::new(medium)).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }));
    }

    #[test]
    fn interior_corruption_is_hard_error() {
        let medium = MemoryBackend::new();
        {
            let wal = WriteAheadLog::create(Box::new(medium.clone())).unwrap();
            wal.append(WalRecord::Removed { id: InstanceId(1) })
                .unwrap();
            wal.append(WalRecord::Removed { id: InstanceId(2) })
                .unwrap();
        }
        // Damage the FIRST record (complete line, undecodable content).
        let raw = medium.raw();
        let text = String::from_utf8(raw).unwrap();
        let corrupted = text.replacen("\"seq\":1", "\"seq\":garbage", 1);
        medium.set_raw(corrupted.as_bytes());
        let err = WriteAheadLog::open(Box::new(medium)).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn torn_tail_is_reported_and_dropped() {
        let medium = MemoryBackend::new();
        {
            let wal = WriteAheadLog::create(Box::new(medium.clone())).unwrap();
            wal.append(WalRecord::Removed { id: InstanceId(1) })
                .unwrap();
            wal.append(WalRecord::Removed { id: InstanceId(2) })
                .unwrap();
        }
        let raw = medium.raw();
        medium.set_raw(&raw[..raw.len() - 6]);
        let (wal, entries, torn) = WriteAheadLog::open(Box::new(medium)).unwrap();
        assert_eq!(entries.len(), 1, "only the complete record survives");
        assert!(torn > 0);
        assert_eq!(wal.position(), 1);
    }

    #[test]
    fn truncate_keeps_position_and_view() {
        let wal = WriteAheadLog::create(Box::new(MemoryBackend::new())).unwrap();
        wal.append_txn(|seq| (WalRecord::Txn { record: txn(seq) }, txn(seq)))
            .unwrap();
        let pos = wal.position();
        wal.truncate().unwrap();
        assert_eq!(wal.position(), pos, "position survives the checkpoint");
        assert_eq!(wal.txn_len(), 1, "audit view survives the checkpoint");
        assert_eq!(
            wal.append(WalRecord::Removed { id: InstanceId(3) })
                .unwrap(),
            pos + 1,
            "sequence continues across the checkpoint"
        );
    }

    #[test]
    fn segmented_appends_round_robin_and_merge_on_open() {
        let mediums: Vec<MemoryBackend> = (0..4).map(|_| MemoryBackend::new()).collect();
        {
            let wal = WriteAheadLog::create_segmented(
                mediums
                    .iter()
                    .map(|m| Box::new(m.clone()) as Box<dyn StorageBackend>)
                    .collect(),
            )
            .unwrap();
            assert_eq!(wal.segment_count(), 4);
            for i in 1..=8u64 {
                let seq = wal
                    .append(WalRecord::Removed { id: InstanceId(i) })
                    .unwrap();
                assert_eq!(seq, i, "sequence stays globally ordered");
            }
            assert_eq!(wal.position(), 8);
        }
        // Each segment holds exactly its round-robin share.
        for m in &mediums {
            assert_eq!(m.read_log().unwrap().lines.len(), 2);
        }
        // Reopening merges the segments back into sequence order.
        let (wal, entries, torn) = WriteAheadLog::open_segmented(
            mediums
                .iter()
                .map(|m| Box::new(m.clone()) as Box<dyn StorageBackend>)
                .collect(),
        )
        .unwrap();
        assert_eq!(torn, 0);
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (1..=8).collect::<Vec<u64>>());
        assert_eq!(wal.position(), 8);
        assert_eq!(
            wal.append(WalRecord::Removed { id: InstanceId(9) })
                .unwrap(),
            9
        );
    }

    #[test]
    fn single_segment_matches_legacy_layout() {
        let single = MemoryBackend::new();
        let seg = MemoryBackend::new();
        let a = WriteAheadLog::create(Box::new(single.clone())).unwrap();
        let b = WriteAheadLog::create_segmented(vec![Box::new(seg.clone())]).unwrap();
        for i in 1..=3u64 {
            a.append(WalRecord::Removed { id: InstanceId(i) }).unwrap();
            b.append(WalRecord::Removed { id: InstanceId(i) }).unwrap();
        }
        assert_eq!(single.raw(), seg.raw(), "one segment = the old layout");
    }

    #[test]
    fn segment_count_must_be_power_of_two() {
        let backends = |n: usize| -> Vec<Box<dyn StorageBackend>> {
            (0..n)
                .map(|_| Box::new(MemoryBackend::new()) as Box<dyn StorageBackend>)
                .collect()
        };
        assert!(WriteAheadLog::create_segmented(backends(3)).is_err());
        assert!(WriteAheadLog::create_segmented(backends(4)).is_ok());
        assert!(WriteAheadLog::open_segmented(backends(6)).is_err());
    }

    #[test]
    fn duplicate_seq_across_segments_is_corrupt() {
        let a = MemoryBackend::new();
        let b = MemoryBackend::new();
        let entry = encode_entry(&WalEntry {
            seq: 1,
            record: WalRecord::Removed { id: InstanceId(1) },
        })
        .unwrap();
        a.append_line(&entry).unwrap();
        b.append_line(&entry).unwrap();
        let err = WriteAheadLog::open_segmented(vec![Box::new(a), Box::new(b)]).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn segmented_torn_tail_repairs_its_segment_only() {
        let mediums: Vec<MemoryBackend> = (0..2).map(|_| MemoryBackend::new()).collect();
        {
            let wal = WriteAheadLog::create_segmented(
                mediums
                    .iter()
                    .map(|m| Box::new(m.clone()) as Box<dyn StorageBackend>)
                    .collect(),
            )
            .unwrap();
            for i in 1..=4u64 {
                wal.append(WalRecord::Removed { id: InstanceId(i) })
                    .unwrap();
            }
        }
        // Seq 4 lives in segment 1 ((4-1) & 1); tear it mid-record.
        let raw = mediums[1].raw();
        mediums[1].set_raw(&raw[..raw.len() - 6]);
        let (wal, entries, torn) = WriteAheadLog::open_segmented(
            mediums
                .iter()
                .map(|m| Box::new(m.clone()) as Box<dyn StorageBackend>)
                .collect(),
        )
        .unwrap();
        assert!(torn > 0);
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3], "only the torn record is lost");
        assert_eq!(wal.position(), 3);
    }

    #[test]
    fn durable_marks_close_out_of_order_chains() {
        let mut d = Durable::default();
        d.mark(2);
        assert_eq!(d.upto, 0, "seq 1 still in flight");
        d.mark(1);
        assert_eq!(d.upto, 2, "chain closed through the buffered completion");
        d.mark(4);
        d.mark(5);
        assert_eq!(d.upto, 2);
        d.mark(3);
        assert_eq!(d.upto, 5);
    }

    #[test]
    fn retain_up_to_truncates_all_segments_and_rewinds() {
        let mediums: Vec<MemoryBackend> = (0..2).map(|_| MemoryBackend::new()).collect();
        let wal = WriteAheadLog::create_segmented(
            mediums
                .iter()
                .map(|m| Box::new(m.clone()) as Box<dyn StorageBackend>)
                .collect(),
        )
        .unwrap();
        for i in 1..=6u64 {
            wal.append(WalRecord::Removed { id: InstanceId(i) })
                .unwrap();
        }
        let dropped = wal.retain_up_to(3).unwrap();
        assert_eq!(dropped, 3, "seqs 4..=6 removed across both segments");
        assert_eq!(wal.position(), 3);
        assert_eq!(wal.durable_position(), 3);
        assert_eq!(
            wal.append(WalRecord::Removed { id: InstanceId(9) })
                .unwrap(),
            4,
            "sequence resumes after the cut"
        );
        let (_, entries, _) = WriteAheadLog::open_segmented(
            mediums
                .iter()
                .map(|m| Box::new(m.clone()) as Box<dyn StorageBackend>)
                .collect(),
        )
        .unwrap();
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4], "the cut is physical");
    }

    /// A backend that fails exactly one append — and holds that append
    /// until released, so a test can deterministically arrange a later
    /// sequence to become durable first (the CAS-rollback-impossible
    /// window).
    #[derive(Debug)]
    struct FailingOnce {
        inner: MemoryBackend,
        armed: std::sync::atomic::AtomicBool,
        entered: OrderedMutex<std::sync::mpsc::Sender<()>>,
        release: OrderedMutex<std::sync::mpsc::Receiver<()>>,
    }

    impl StorageBackend for FailingOnce {
        fn append_line(&self, line: &str) -> Result<(), StorageError> {
            if self.armed.swap(false, Ordering::SeqCst) {
                self.entered.lock().send(()).unwrap();
                self.release.lock().recv().unwrap();
                return Err(StorageError::corrupt("injected append failure"));
            }
            self.inner.append_line(line)
        }
        fn sync(&self) -> Result<(), StorageError> {
            self.inner.sync()
        }
        fn read_log(&self) -> Result<RawLog, StorageError> {
            self.inner.read_log()
        }
        fn reset(&self) -> Result<(), StorageError> {
            self.inner.reset()
        }
        fn kind(&self) -> &'static str {
            "failing-once"
        }
    }

    #[test]
    fn failed_append_with_later_durable_seq_plugs_a_tombstone() {
        let flaky_medium = MemoryBackend::new();
        let other = MemoryBackend::new();
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let flaky = FailingOnce {
            inner: flaky_medium.clone(),
            armed: std::sync::atomic::AtomicBool::new(true),
            entered: OrderedMutex::new(&classes::TEST_SUPPORT, entered_tx),
            release: OrderedMutex::new(&classes::TEST_SUPPORT, release_rx),
        };
        let wal = std::sync::Arc::new(
            WriteAheadLog::create_segmented(vec![Box::new(flaky), Box::new(other.clone())])
                .unwrap(),
        );
        let w = wal.clone();
        // Seq 1 → segment 0 (the failing medium); the appender parks
        // inside the backend holding its allocation.
        let t = std::thread::spawn(move || w.append(WalRecord::Removed { id: InstanceId(1) }));
        entered_rx.recv().unwrap();
        // Seq 2 → segment 1, durable. Now seq 1 can no longer be rolled
        // back by the CAS.
        wal.append(WalRecord::Removed { id: InstanceId(2) })
            .unwrap();
        assert_eq!(wal.durable_position(), 0, "seq 1 still pending");
        release_tx.send(()).unwrap();
        assert!(t.join().unwrap().is_err(), "the append itself still fails");
        assert_eq!(wal.position(), 2);
        assert_eq!(
            wal.durable_position(),
            2,
            "the tombstone closed the chain under seq 2"
        );
        // The abandoned sequence is durably plugged: a reopen sees a
        // contiguous log with a no-op at seq 1.
        let (_, entries, _) =
            WriteAheadLog::open_segmented(vec![Box::new(flaky_medium), Box::new(other)]).unwrap();
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
        assert!(matches!(entries[0].record, WalRecord::Abandoned));
    }

    #[test]
    fn replayed_txns_dedupe_against_seed() {
        let wal = WriteAheadLog::disabled();
        wal.seed_txns(vec![txn(2), txn(1)]);
        assert_eq!(wal.txn_records()[0].seq, 1, "seed is sorted");
        wal.note_replayed_txn(txn(2)); // covered by seed → ignored
        wal.note_replayed_txn(txn(3));
        assert_eq!(wal.txn_len(), 3);
    }
}
