//! Crash recovery: rebuilding an engine from a snapshot plus the
//! write-ahead-log tail.
//!
//! A durable engine ([`ProcessEngine::with_wal`]) journals every
//! committed mutation *before* it becomes visible: commands as deltas
//! over the instance's prior state, creations, ad-hoc changes and
//! migration hops as full post-images. Recovery inverts that:
//! [`recover_from`] restores the latest snapshot (or starts from an
//! empty world), then replays every WAL entry past the snapshot's
//! watermark through the same storage substrate the live engine writes
//! through.
//!
//! A delta applies exactly once, to the state it was taken against, so
//! replay must know which records the snapshot already holds.
//! [`ProcessEngine::snapshot`] reads the watermark before the store
//! state, without a global barrier, so a shard's instances may run ahead
//! of it. Each instance record is journaled under its store shard's
//! write lock, which stamps the shard with the record's sequence, and
//! the snapshot persists every shard's stamp read under the guard it read
//! the shard's instances under. Replay skips each instance record the
//! snapshot covers ([`Snapshot::covers`]) and applies the rest in log
//! order. A delta whose prior history or write-log length does not match
//! the instance it lands on is a [`StorageError::Corrupt`] naming its
//! sequence — never a silent divergence. The replayed records re-stamp
//! the recovered store, so it snapshots exactly like the engine that
//! wrote the log.
//!
//! Failure handling follows the crash semantics of the backends: a torn
//! final record (the crash hit mid-append) is truncated and reported; a
//! complete-but-undecodable record in the middle of the log is a hard
//! [`StorageError::Corrupt`] — silently skipping it would resurrect a
//! world that never existed. A **gap** in the merged sequence is
//! classified before replay: a bounded gap near the global tail is the
//! normal residue of a crash under concurrent segmented appends (an
//! earlier-allocated record torn or unwritten while a later sequence is
//! already durable in a sibling segment) and is repaired by truncating
//! every segment back to the last contiguous sequence — safe because a
//! record journals *before* its effect becomes visible, so a sequence
//! that never finished appending was never acknowledged to any caller.
//! A gap wider than [`TAIL_REPAIR_WINDOW`], or a gap at the very start
//! of a snapshot-less log, cannot be a crash tail (whole records that
//! once existed are missing, e.g. a lost segment or a truncated log
//! opened without its snapshot) and is refused as corruption. After
//! replay every instance's history is re-run through
//! [`adept_state::Execution::audit`]; divergence is reported (not fatal
//! — the journaled state is authoritative, the audit is a consistency
//! check on the history substrate).
//!
//! The audit reads each instance's **own execution history** (carried in
//! its recovered state), never the monitor's event log — the monitor is
//! a bounded ring with eviction ([`crate::Monitor::set_retention`]), so
//! recovery correctness must not (and does not) depend on events it may
//! have evicted.

use crate::engine::{EngineError, ProcessEngine};
use crate::monitor::EngineEvent;
use adept_model::InstanceId;
use adept_storage::{
    restore, InstanceStore, Representation, SchemaRepository, Snapshot, StorageBackend,
    StorageError, StoredInstance, SubstitutionBlock, TxnLog, WalEntry, WalRecord, WriteAheadLog,
};
use std::sync::Arc;

/// The widest sequence gap recovery will repair as a crash tail, i.e.
/// the most trailing records it will truncate away to restore
/// contiguity. In-flight appends are bounded by the number of appender
/// threads, so a genuine crash tail spans at most a handful of
/// sequences; a gap wider than this means records that were once
/// durable are gone (a lost segment leaves periodic holes across the
/// whole stream) and recovery refuses rather than silently drop them.
pub const TAIL_REPAIR_WINDOW: u64 = 64;

/// What a recovery did: replay counts, repair evidence, and the audit
/// verdict. Returned next to the recovered engine so callers (and the
/// kill-and-restart tests) can assert on the exact recovery path taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WAL entries replayed on top of the snapshot.
    pub replayed: usize,
    /// Entries skipped because the snapshot already holds them: at or
    /// below its watermark, or instance records its shard stamps cover.
    pub skipped: usize,
    /// Command deltas whose instance is missing — only possible over a
    /// format-3 snapshot (no shard stamps) that already lost the instance
    /// to a removal replayed later in the log. Counted for visibility.
    pub orphaned: usize,
    /// Bytes of a torn final record dropped by the crash repair.
    pub torn_tail_bytes: usize,
    /// Complete entries truncated away by the crash-tail repair: records
    /// past the last contiguous sequence, stranded in sibling segments
    /// when an earlier in-flight append died with the process. Their
    /// sequences were never acknowledged, so dropping them loses nothing
    /// a caller was promised.
    pub tail_dropped: usize,
    /// The highest WAL sequence number the recovered engine covers.
    pub last_seq: u64,
    /// Instances whose replayed history audit passed.
    pub audited: usize,
    /// Instances whose recorded history does not reproduce their
    /// recovered marking. The journaled state wins; this flags the
    /// divergence.
    pub divergent: Vec<InstanceId>,
}

/// Recovers an engine from a WAL alone (no snapshot): the world is
/// rebuilt purely by replaying the log from its first record. See
/// [`recover_from`].
pub fn recover(
    backend: Box<dyn StorageBackend>,
) -> Result<(ProcessEngine, RecoveryReport), EngineError> {
    recover_from(None, backend)
}

/// [`recover`] over a segmented WAL — see [`recover_from_segmented`].
pub fn recover_segmented(
    backends: Vec<Box<dyn StorageBackend>>,
) -> Result<(ProcessEngine, RecoveryReport), EngineError> {
    recover_from_segmented(None, backends)
}

/// Recovers an engine from an optional snapshot plus the WAL tail on
/// `backend`.
///
/// The snapshot (if any) is restored first; then every WAL entry with
/// `seq > snapshot.wal_seq` is replayed in log order. A gap in the
/// sequence is classified before replay: a bounded gap at the tail
/// (≤ [`TAIL_REPAIR_WINDOW`] sequences) is repaired by truncating the
/// log back to the last contiguous entry ([`RecoveryReport::tail_dropped`]
/// counts the stranded records removed); a wider gap, or a log that
/// starts after sequence 1 with no snapshot to cover the start, means
/// records were lost and recovery refuses with [`StorageError::Corrupt`]
/// rather than rebuild a world with a hole in it. The recovered engine
/// keeps writing to the same backend: its WAL continues at
/// `last_seq + 1`.
pub fn recover_from(
    snapshot: Option<&Snapshot>,
    backend: Box<dyn StorageBackend>,
) -> Result<(ProcessEngine, RecoveryReport), EngineError> {
    recover_from_segmented(snapshot, vec![backend])
}

/// [`recover_from`] over a **segmented** WAL: the entries of all
/// segments (written by [`ProcessEngine::with_segmented_wal`]) are
/// merged back into one globally ordered stream by sequence number
/// before replay; gap and torn-tail semantics are exactly those of the
/// single-backend path. With concurrent appenders on different segment
/// mediums, a crash can leave an earlier-allocated sequence torn or
/// unwritten while a later one is already durable in a sibling — a
/// bounded tail gap in the merged stream, repaired by truncating all
/// segments back to the last contiguous sequence. A whole segment lost
/// (its file gone or empty while its siblings carry later sequences)
/// leaves periodic holes far wider than [`TAIL_REPAIR_WINDOW`] and is
/// refused as [`StorageError::Corrupt`]. The recovered engine keeps
/// writing to the same segments.
pub fn recover_from_segmented(
    snapshot: Option<&Snapshot>,
    backends: Vec<Box<dyn StorageBackend>>,
) -> Result<(ProcessEngine, RecoveryReport), EngineError> {
    let (wal, entries, torn_tail_bytes) = WriteAheadLog::open_segmented(backends)?;
    let (repo, store) = match snapshot {
        Some(s) => restore(s)?,
        None => (
            SchemaRepository::new(),
            InstanceStore::new(Representation::Hybrid),
        ),
    };
    let base_seq = snapshot.map(|s| s.wal_seq).unwrap_or(0);
    wal.seed_txns(snapshot.map(|s| s.txns.clone()).unwrap_or_default());

    let mut report = RecoveryReport {
        replayed: 0,
        skipped: 0,
        orphaned: 0,
        torn_tail_bytes,
        tail_dropped: 0,
        last_seq: base_seq,
        audited: 0,
        divergent: Vec::new(),
    };
    // Classify the merged stream BEFORE replaying anything: contiguity is
    // checked everywhere, not just at the first replayed record — with
    // segments, a missing segment leaves periodic holes that can start
    // anywhere in the merged stream.
    let mut live: Vec<WalEntry> = Vec::with_capacity(entries.len());
    for entry in entries {
        if entry.seq <= base_seq {
            report.skipped += 1;
        } else {
            live.push(entry);
        }
    }
    // `contiguous`: the highest sequence reachable from the base without
    // a hole; `gap_at`: index of the first entry past a hole, if any.
    let mut contiguous = base_seq;
    let mut gap_at = live.len();
    for (i, entry) in live.iter().enumerate() {
        if entry.seq == contiguous + 1 {
            contiguous = entry.seq;
        } else {
            gap_at = i;
            break;
        }
    }
    if gap_at < live.len() {
        let resumes_at = live[gap_at].seq;
        let max_seq = live.last().map(|e| e.seq).unwrap_or(contiguous);
        if contiguous == base_seq && snapshot.is_none() {
            // Nothing covers the start of the sequence: this is not a
            // crash tail but a log whose beginning is gone (e.g. a
            // checkpoint-truncated log opened without its snapshot).
            return Err(StorageError::corrupt(format!(
                "wal gap: log starts at seq {resumes_at} with no snapshot covering \
                 1..={} (truncated log recovered without its snapshot?)",
                resumes_at - 1
            ))
            .into());
        }
        if max_seq - contiguous > TAIL_REPAIR_WINDOW {
            return Err(StorageError::corrupt(format!(
                "wal gap: expected seq {} but the log continues at {resumes_at} and \
                 runs to {max_seq} — {} sequences past the last contiguous record \
                 exceed the crash-tail window of {TAIL_REPAIR_WINDOW} (records lost, \
                 e.g. a missing segment)",
                contiguous + 1,
                max_seq - contiguous
            ))
            .into());
        }
        // A bounded tail gap: the crash residue of concurrent segmented
        // appends. Records past the hole were never acknowledged (their
        // predecessor never committed), so truncate them — physically,
        // so the siblings cannot resurrect them on the next recovery.
        live.truncate(gap_at);
        report.tail_dropped = wal.retain_up_to(contiguous)?;
    }
    for entry in live {
        if replay_entry(&repo, &store, &wal, snapshot, entry, &mut report)? {
            report.replayed += 1;
        } else {
            report.skipped += 1;
        }
    }
    // The WAL continues where the log ended — also when the whole log was
    // skipped (the snapshot may cover entries the backend no longer has
    // after a checkpoint truncation).
    wal.advance_position(report.last_seq);

    let engine = ProcessEngine::from_parts_with_log(repo, store, TxnLog::over(Arc::new(wal)));
    audit_instances(&engine, &mut report);
    engine.monitor.record(EngineEvent::Recovered {
        replayed: report.replayed,
        skipped: report.skipped,
        torn_tail_bytes: report.torn_tail_bytes,
    });
    Ok((engine, report))
}

/// Applies one WAL entry to the world being rebuilt; `Ok(false)` when the
/// snapshot already holds it. Instance records re-stamp their shard
/// either way; type records tolerate their effect already being present.
fn replay_entry(
    repo: &SchemaRepository,
    store: &InstanceStore,
    wal: &WriteAheadLog,
    snapshot: Option<&Snapshot>,
    entry: WalEntry,
    report: &mut RecoveryReport,
) -> Result<bool, EngineError> {
    let seq = entry.seq;
    report.last_seq = seq;
    if let Some(id) = entry.record.instance() {
        store.stamp(id, seq);
        if snapshot.is_some_and(|s| s.covers(id, seq)) {
            // The snapshot holds the instance past this record; only the
            // audit view may still lack a carried transaction.
            if let WalRecord::ChangeCommitted { txn, .. } = entry.record {
                wal.note_replayed_txn(txn);
            }
            return Ok(false);
        }
    }
    match entry.record {
        WalRecord::Deployed { schema } => {
            // Re-deploying an already-known name mirrors the live path
            // (deploy overwrites); the recorded schema id is kept.
            repo.deploy_recorded(schema)
                .map_err(|e| StorageError::corrupt(format!("wal #{seq}: deploy replay: {e}")))?;
        }
        WalRecord::Evolved {
            name,
            base_version,
            txn,
        } => {
            let cur = repo.latest_version(&name).ok_or_else(|| {
                StorageError::corrupt(format!("wal #{seq}: evolution of unknown type {name:?}"))
            })?;
            if cur == base_version {
                repo.evolve(&name, &txn.ops).map_err(|e| {
                    StorageError::corrupt(format!("wal #{seq}: evolution replay: {e}"))
                })?;
            } else if cur < base_version {
                return Err(StorageError::corrupt(format!(
                    "wal #{seq}: evolution of {name:?} expects V{base_version}, world is at V{cur}"
                ))
                .into());
            }
            // cur > base_version: the snapshot already contains the new
            // version (watermark race) — only the txn view needs the record.
            wal.note_replayed_txn(txn);
        }
        WalRecord::Created {
            id,
            type_name,
            version,
            state,
        } => {
            // Insert-if-absent: the creation was journaled before the
            // instance became visible.
            if store.with_instance(id, |_| ()).is_none() {
                store.insert_restored(StoredInstance {
                    id,
                    type_name,
                    version,
                    bias: adept_core::Delta::new(),
                    subst: SubstitutionBlock::default(),
                    state,
                    full_copy: None,
                    cached_overlay: None,
                });
            }
        }
        WalRecord::CommandApplied { id, delta } => {
            match store.update(id, |inst| (delta.apply(&mut inst.state), 0)) {
                Some(Ok(())) => {}
                Some(Err(mismatch)) => {
                    return Err(StorageError::corrupt(format!(
                        "wal #{seq}: command delta of {id} does not fit its state: {mismatch}"
                    ))
                    .into());
                }
                // No target: a snapshot without shard stamps (format 3)
                // may have lost the instance to a removal the log replays
                // later. With stamps, or without a snapshot, the log
                // itself never created it.
                None if snapshot.is_some_and(|s| !s.stamped()) => report.orphaned += 1,
                None => {
                    return Err(StorageError::corrupt(format!(
                        "wal #{seq}: command delta of {id}, which the log never created"
                    ))
                    .into());
                }
            }
        }
        WalRecord::ChangeCommitted { record, txn } => {
            store.insert_restored(record.into_stored());
            wal.note_replayed_txn(txn);
        }
        WalRecord::Migrated { record } => {
            store.insert_restored(record.into_stored());
        }
        WalRecord::Removed { id } => {
            store
                .remove(id, |_| Ok::<_, std::convert::Infallible>(0))
                .unwrap_or_else(|never| match never {});
        }
        WalRecord::Txn { record } => {
            wal.note_replayed_txn(record);
        }
        // A plugged sequence hole from a failed append — durable filler
        // with no state effect; it only keeps the sequence contiguous.
        WalRecord::Abandoned => {}
    }
    Ok(true)
}

/// Re-runs every recovered instance's execution history and compares the
/// produced marking against the recovered one. Post-images are
/// authoritative, so divergence is reported, not fatal — but a divergent
/// instance means history and state disagree, which the caller should
/// treat as a corruption signal.
fn audit_instances(engine: &ProcessEngine, report: &mut RecoveryReport) {
    for id in engine.store.ids() {
        let ok = engine
            .exec_context(id)
            .ok()
            .and_then(|ctx| {
                engine
                    .store
                    .with_instance(id, |inst| ctx.execution().audit(&inst.state).ok())
                    .flatten()
            })
            .unwrap_or(false);
        if ok {
            report.audited += 1;
        } else {
            report.divergent.push(id);
        }
    }
}
