//! Persistence: snapshotting the repository and instance store to a
//! self-describing JSON document and restoring them.
//!
//! The original system keeps schemas and instance data in a relational
//! store so the PAIS survives restarts. This module is the
//! dependency-light equivalent: a [`Snapshot`] captures every process
//! type (all versions + deltas) and every instance (version, bias,
//! substitution block, runtime state); [`restore`] rebuilds a working
//! repository + store, re-deriving the caches (block structures,
//! overlays) that are deliberately not persisted.

use crate::error::StorageError;
use crate::instances::{InstanceStore, Representation, StoredInstance};
use crate::repo::SchemaRepository;
use crate::shards::shard_index;
use crate::subst::SubstitutionBlock;
use crate::txnlog::{TxnLog, TxnRecord};
use adept_core::{Delta, ProcessType};
use adept_model::InstanceId;
use adept_state::InstanceState;
use serde::{Deserialize, Serialize};

/// Serialised form of one stored instance — also the post-image payload
/// of write-ahead-log records ([`crate::WalRecord::ChangeCommitted`],
/// [`crate::WalRecord::Migrated`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceRecord {
    /// Instance id.
    pub id: InstanceId,
    /// Process type name.
    pub type_name: String,
    /// Schema version the instance runs on.
    pub version: u32,
    /// Ad-hoc changes.
    pub bias: Delta,
    /// Substitution block (persisted so restore needs no re-application).
    pub subst: SubstitutionBlock,
    /// Runtime state.
    pub state: InstanceState,
}

impl InstanceRecord {
    /// The serialised form of a stored instance (caches dropped — they
    /// are re-derived on restore).
    pub fn of(inst: &StoredInstance) -> Self {
        InstanceRecord {
            id: inst.id,
            type_name: inst.type_name.clone(),
            version: inst.version,
            bias: inst.bias.clone(),
            subst: inst.subst.clone(),
            state: inst.state.clone(),
        }
    }

    /// Rebuilds the stored instance (caches empty, to be re-derived).
    pub fn into_stored(self) -> StoredInstance {
        StoredInstance {
            id: self.id,
            type_name: self.type_name,
            version: self.version,
            bias: self.bias,
            subst: self.subst,
            state: self.state,
            full_copy: None,
            cached_overlay: None,
        }
    }
}

/// A complete engine snapshot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Snapshot {
    /// Snapshot format version (for forward evolution).
    pub format: u32,
    /// Storage strategy of the instance store.
    pub strategy: Representation,
    /// All process types with their version chains and deltas.
    pub types: Vec<ProcessType>,
    /// All instances.
    pub instances: Vec<InstanceRecord>,
    /// The committed change-transaction log. Defaults to empty so
    /// format-1 snapshots (written before the log existed) still parse.
    pub txns: Vec<TxnRecord>,
    /// The write-ahead-log watermark this snapshot covers: recovery
    /// replays WAL entries with `seq > wal_seq` on top of it. 0 for
    /// snapshots taken without a durable WAL (nothing to replay).
    pub wal_seq: u64,
    /// The instance store's per-shard journal stamps, each read under the
    /// guard its shard's instances were read under
    /// ([`InstanceStore::all_stamped`]); one entry per shard, or empty
    /// when no shard journaled anything. The watermark is read first, so
    /// a shard's instances can already hold records past it — exactly
    /// those up to the shard's stamp ([`Snapshot::covers`]).
    pub wal_stamps: Vec<u64>,
}

impl Snapshot {
    /// Whether the document records shard stamps (format 4 on). Without
    /// them, [`Snapshot::covers`] knows only the watermark.
    pub fn stamped(&self) -> bool {
        self.format >= 4
    }

    /// Whether the snapshot already holds the instance record `seq` about
    /// `id`: it lies at or below the watermark, or at or below the stamp
    /// of the shard `id` lived on. Recovery skips covered records —
    /// deltas apply exactly once.
    pub fn covers(&self, id: InstanceId, seq: u64) -> bool {
        seq <= self.wal_seq
            || (!self.wal_stamps.is_empty()
                && self.wal_stamps[shard_index(id, self.wal_stamps.len())] >= seq)
    }
}

// Hand-written so historic fields can default: format-1 snapshots were
// written before the transaction log existed, format-2 snapshots before
// the write-ahead log, format-3 snapshots before the shard stamps, and
// all must stay restorable. Each default is gated on the format — a
// format-2 document *missing* `txns` (or a format-3 document missing
// `wal_seq`, or a format-4 document missing `wal_stamps`) is corrupt
// (truncated write), not historic, and must not be silently restored
// with defaults.
impl serde::Deserialize for Snapshot {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = serde::as_map(v, "Snapshot")?;
        let format: u32 = serde::Deserialize::deserialize(serde::field(m, "format")?)?;
        Ok(Snapshot {
            format,
            strategy: serde::Deserialize::deserialize(serde::field(m, "strategy")?)?,
            types: serde::Deserialize::deserialize(serde::field(m, "types")?)?,
            instances: serde::Deserialize::deserialize(serde::field(m, "instances")?)?,
            txns: match serde::field(m, "txns") {
                Ok(v) => serde::Deserialize::deserialize(v)?,
                Err(_) if format <= 1 => Vec::new(),
                Err(e) => return Err(e),
            },
            wal_seq: match serde::field(m, "wal_seq") {
                Ok(v) => serde::Deserialize::deserialize(v)?,
                Err(_) if format <= 2 => 0,
                Err(e) => return Err(e),
            },
            wal_stamps: match serde::field(m, "wal_stamps") {
                Ok(v) => serde::Deserialize::deserialize(v)?,
                Err(_) if format <= 3 => Vec::new(),
                Err(e) => return Err(e),
            },
        })
    }
}

/// Current snapshot format version. The history:
///
/// * 2 added the change-transaction log (`txns`).
/// * 3 added the write-ahead-log watermark (`wal_seq`). The log then held
///   full post-images, which replay idempotently, so a state that ran
///   ahead of the watermark was harmless.
/// * 4 added the per-shard journal stamps (`wal_stamps`). Commands now
///   journal deltas, which apply exactly once, so recovery must know
///   which records past the watermark a snapshot already holds. A
///   format-3 document restores with no stamps: replay then trusts the
///   watermark alone, and a delta the state already holds fails its
///   length check rather than apply twice.
pub const SNAPSHOT_FORMAT: u32 = 4;

/// Captures a snapshot including the change-transaction log.
pub fn snapshot_with_txns(
    repo: &SchemaRepository,
    store: &InstanceStore,
    txn_log: &TxnLog,
) -> Snapshot {
    let mut s = snapshot(repo, store);
    s.txns = txn_log.records();
    s
}

/// Captures a snapshot of a repository + store pair (with an empty txn
/// log; see [`snapshot_with_txns`]).
///
/// Instances are collected per shard via [`InstanceStore::all_stamped`] — one
/// shard lock at a time, no global barrier — and recorded in id order.
/// Instances whose type is unknown to the repository are skipped (they
/// could not be restored; the worklist surfaces them as corruption at
/// run time).
pub fn snapshot(repo: &SchemaRepository, store: &InstanceStore) -> Snapshot {
    let mut types = Vec::new();
    for name in repo.type_names() {
        if let Some(pt) = repo.process_type(&name) {
            types.push(pt);
        }
    }
    let known: std::collections::BTreeSet<String> = repo.type_names().into_iter().collect();
    let (all, wal_stamps) = store.all_stamped();
    let instances = all
        .into_iter()
        .filter(|inst| known.contains(&inst.type_name))
        .map(|inst| InstanceRecord::of(&inst))
        .collect();
    Snapshot {
        format: SNAPSHOT_FORMAT,
        strategy: store.strategy(),
        types,
        instances,
        txns: Vec::new(),
        wal_seq: 0,
        wal_stamps,
    }
}

/// Serialises a snapshot to compact JSON — the same codec the WAL uses,
/// so every persisted artefact of the engine reads identically.
pub fn to_json(s: &Snapshot) -> Result<String, StorageError> {
    serde_json::to_string(s).map_err(|e| StorageError::Encode {
        detail: format!("snapshot: {e}"),
    })
}

/// Deserialises a snapshot from JSON.
pub fn from_json(json: &str) -> Result<Snapshot, StorageError> {
    let s: Snapshot = serde_json::from_str(json)
        .map_err(|e| StorageError::corrupt(format!("snapshot parse failed: {e}")))?;
    if s.format == 0 || s.format > SNAPSHOT_FORMAT {
        return Err(StorageError::corrupt(format!(
            "unsupported snapshot format {} (expected 1..={SNAPSHOT_FORMAT})",
            s.format
        )));
    }
    check_stamps(&s)?;
    Ok(s)
}

/// The stamps index shards, so their count must be one a store can have.
fn check_stamps(s: &Snapshot) -> Result<(), StorageError> {
    if s.wal_stamps.is_empty() || s.wal_stamps.len().is_power_of_two() {
        Ok(())
    } else {
        Err(StorageError::corrupt(format!(
            "snapshot carries {} shard stamps; a store has a power-of-two shard count",
            s.wal_stamps.len()
        )))
    }
}

/// Restores repository, store *and* transaction log from a snapshot.
pub fn restore_with_txns(
    s: &Snapshot,
) -> Result<(SchemaRepository, InstanceStore, TxnLog), StorageError> {
    let (repo, store) = restore(s)?;
    Ok((repo, store, TxnLog::from_records(s.txns.clone())))
}

/// Restores a repository + store pair from a snapshot. Caches (deployed
/// block structures, overlay materialisations) are re-derived; instance
/// ids are preserved. A snapshot with shard stamps restores onto a store
/// of its shard count, carrying the stamps on. Every failure — an empty version chain, a delta
/// that no longer applies, a replay that diverges from the recorded
/// schema — surfaces as a [`StorageError::Corrupt`]; nothing on this
/// path unwraps or swallows.
pub fn restore(s: &Snapshot) -> Result<(SchemaRepository, InstanceStore), StorageError> {
    check_stamps(s)?;
    let repo = SchemaRepository::new();
    for pt in &s.types {
        // Re-deploy version 1 (keeping the recorded schema id), then
        // re-play the recorded deltas so the repository rebuilds its
        // deployment caches and keeps the exact version chain (ids
        // included, since application is id-stable relative to the same
        // base schema).
        let base = pt
            .versions
            .first()
            .ok_or_else(|| StorageError::corrupt("type without versions"))?;
        let name = repo.deploy_recorded(base.clone())?;
        for (i, _delta) in pt.deltas.iter().enumerate() {
            // Prefer exactness: push the recorded evolved schema directly
            // by applying the recorded ops; equality is asserted below.
            let ops: Vec<adept_core::ChangeOp> =
                pt.deltas[i].ops.iter().map(|r| r.op.clone()).collect();
            let (v, _) = repo.evolve(&name, &ops)?;
            let rebuilt = repo
                .deployed(&name, v)
                .ok_or_else(|| StorageError::corrupt("evolve lost version"))?;
            let recorded = &pt.versions[i + 1];
            if rebuilt.schema.node_count() != recorded.node_count()
                || rebuilt.schema.edge_count() != recorded.edge_count()
            {
                return Err(StorageError::corrupt(format!(
                    "snapshot replay diverged for {name} V{v}"
                )));
            }
        }
    }
    let store = match s.wal_stamps.len() {
        0 => InstanceStore::new(s.strategy),
        n => InstanceStore::with_shards(s.strategy, n),
    };
    store.seed_stamps(&s.wal_stamps);
    for rec in &s.instances {
        store.insert_restored(rec.clone().into_stored());
    }
    Ok((repo, store))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_core::apply_op;
    use adept_core::{ChangeOp, NewActivity};
    use adept_model::SchemaBuilder;

    fn world() -> (SchemaRepository, InstanceStore, String) {
        let mut b = SchemaBuilder::new("p");
        b.activity("a");
        b.activity("b");
        let repo = SchemaRepository::new();
        let name = repo.deploy(b.build().unwrap()).unwrap();
        let store = InstanceStore::new(Representation::Hybrid);
        let dep = repo.deployed(&name, 1).unwrap();
        let st = dep.execution().init().unwrap();
        let id = store.create(&name, 1, st.clone());
        // Bias the instance.
        let mut materialized = (*dep.schema).clone();
        materialized.reserve_private_id_space();
        let a = materialized.node_by_name("a").unwrap().id;
        let bb = materialized.node_by_name("b").unwrap().id;
        let mut bias = Delta::new();
        bias.push(
            apply_op(
                &mut materialized,
                &ChangeOp::SerialInsert {
                    activity: NewActivity::named("x"),
                    pred: a,
                    succ: bb,
                },
            )
            .unwrap(),
        );
        let installed = store
            .set_bias(
                id,
                1,
                &Delta::new(),
                &st,
                bias,
                &materialized,
                st.clone(),
                |_| Ok::<_, ()>(0),
            )
            .unwrap();
        assert!(installed);
        (repo, store, name)
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let (repo, store, _name) = world();
        let snap = snapshot(&repo, &store);
        let json = to_json(&snap).unwrap();
        let parsed = from_json(&json).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn restore_rebuilds_repo_and_store() {
        let (repo, store, name) = world();
        let snap = snapshot(&repo, &store);
        let (repo2, store2) = restore(&snap).unwrap();
        assert_eq!(repo2.latest_version(&name), Some(1));
        assert_eq!(store2.len(), 1);
        let id = store2.instances_of(&name)[0];
        assert!(store2.get(id).unwrap().is_biased());
        let overlay = store2.schema_of(&repo2, id).unwrap();
        assert!(overlay.node_by_name("x").is_some());
    }

    #[test]
    fn restored_store_allocates_fresh_ids() {
        let (repo, store, name) = world();
        let snap = snapshot(&repo, &store);
        let (repo2, store2) = restore(&snap).unwrap();
        let old_id = store2.instances_of(&name)[0];
        let dep = repo2.deployed(&name, 1).unwrap();
        let new_id = store2.create(&name, 1, dep.execution().init().unwrap());
        assert!(new_id.raw() > old_id.raw(), "ids must not collide");
    }

    #[test]
    fn format_1_snapshot_without_txns_still_parses() {
        let (repo, store, _) = world();
        let mut snap = snapshot(&repo, &store);
        snap.format = 1;
        // A format-1 writer emitted neither `txns` nor `wal_seq`.
        let json = serde_json::to_string(&snap)
            .unwrap()
            .replace(",\"txns\":[]", "")
            .replace(",\"wal_seq\":0", "")
            .replace(",\"wal_stamps\":[]", "");
        assert!(!json.contains("txns"), "field must be absent: {json}");
        let parsed = from_json(&json).unwrap();
        assert_eq!(parsed.format, 1);
        assert!(parsed.txns.is_empty());
        assert_eq!(parsed.wal_seq, 0);
        assert!(restore_with_txns(&parsed).is_ok());
    }

    #[test]
    fn format_2_snapshot_without_wal_seq_still_parses() {
        let (repo, store, _) = world();
        let mut snap = snapshot(&repo, &store);
        snap.format = 2;
        // A format-2 writer emitted `txns` but never `wal_seq`.
        let json = serde_json::to_string(&snap)
            .unwrap()
            .replace(",\"wal_seq\":0", "")
            .replace(",\"wal_stamps\":[]", "");
        assert!(!json.contains("wal_seq"), "field must be absent: {json}");
        let parsed = from_json(&json).unwrap();
        assert_eq!(parsed.format, 2);
        assert_eq!(parsed.wal_seq, 0);
        assert!(restore_with_txns(&parsed).is_ok());
    }

    #[test]
    fn unsupported_format_rejected() {
        let (repo, store, _) = world();
        let mut snap = snapshot(&repo, &store);
        snap.format = 99;
        let json = serde_json::to_string(&snap).unwrap();
        assert!(from_json(&json).is_err());
    }

    #[test]
    fn format_2_snapshot_missing_txns_is_corrupt() {
        let (repo, store, _) = world();
        let mut snap = snapshot(&repo, &store);
        snap.format = 2;
        // Same truncation as the format-1 test, but claiming format 2:
        // the field is mandatory there, so the document must be rejected
        // rather than restored with a silently empty audit log.
        let json = serde_json::to_string(&snap)
            .unwrap()
            .replace(",\"txns\":[]", "")
            .replace(",\"wal_seq\":0", "");
        assert!(from_json(&json).is_err());
    }

    #[test]
    fn format_3_snapshot_missing_wal_seq_is_corrupt() {
        let (repo, store, _) = world();
        let mut snap = snapshot(&repo, &store);
        snap.format = 3;
        // A format-3 document without the watermark is a truncated write:
        // restoring it with wal_seq = 0 would re-replay the whole WAL on
        // top of a newer snapshot. Refuse instead.
        let json = serde_json::to_string(&snap)
            .unwrap()
            .replace(",\"wal_seq\":0", "");
        let err = from_json(&json).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn format_3_snapshot_without_stamps_still_parses() {
        let (repo, store, _) = world();
        let mut snap = snapshot(&repo, &store);
        snap.format = 3;
        snap.wal_seq = 5;
        // A format-3 writer emitted `wal_seq` but never `wal_stamps`.
        let json = serde_json::to_string(&snap)
            .unwrap()
            .replace(",\"wal_stamps\":[]", "");
        assert!(!json.contains("wal_stamps"), "field must be absent: {json}");
        let parsed = from_json(&json).unwrap();
        assert_eq!((parsed.format, parsed.wal_seq), (3, 5));
        assert!(parsed.wal_stamps.is_empty());
        assert!(restore_with_txns(&parsed).is_ok());
    }

    #[test]
    fn format_4_snapshot_missing_stamps_is_corrupt() {
        let (repo, store, _) = world();
        let snap = snapshot(&repo, &store);
        assert_eq!(snap.format, 4);
        let json = serde_json::to_string(&snap)
            .unwrap()
            .replace(",\"wal_stamps\":[]", "");
        let err = from_json(&json).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn stamps_restore_onto_their_shard_count_and_cover_by_shard() {
        let (repo, store, _) = world();
        let mut snap = snapshot(&repo, &store);
        assert!(snap.wal_stamps.is_empty(), "nothing journaled, no stamps");
        snap.wal_seq = 3;
        snap.wal_stamps = vec![0; 8];
        let id = snap.instances[0].id;
        snap.wal_stamps[shard_index(id, 8)] = 9;
        let (_, restored) = restore(&snap).unwrap();
        assert_eq!(restored.shard_count(), 8);
        assert_eq!(restored.all_stamped().1, snap.wal_stamps);
        assert!(snap.covers(id, 3), "the watermark covers every shard");
        assert!(snap.covers(id, 9), "the stamp covers its own shard");
        assert!(!snap.covers(id, 10));
        let other = (1..)
            .map(InstanceId)
            .find(|o| shard_index(*o, 8) != shard_index(id, 8))
            .unwrap();
        assert!(!snap.covers(other, 9), "a stamp covers only its shard");
        snap.wal_stamps.push(0);
        let json = to_json(&snap).unwrap();
        assert!(from_json(&json).is_err(), "9 stamps is no shard count");
    }

    #[test]
    fn snapshot_json_is_compact() {
        let (repo, store, _) = world();
        let snap = snapshot(&repo, &store);
        let json = to_json(&snap).unwrap();
        assert_eq!(json.lines().count(), 1, "compact: one document, one line");
    }

    #[test]
    fn evolved_world_replays_deltas() {
        let (repo, store, name) = world();
        let dep = repo.deployed(&name, 1).unwrap();
        let a = dep.schema.node_by_name("a").unwrap().id;
        let bb = dep.schema.node_by_name("b").unwrap().id;
        repo.evolve(
            &name,
            &[ChangeOp::SerialInsert {
                activity: NewActivity::named("typestep"),
                pred: a,
                succ: bb,
            }],
        )
        .unwrap();
        let snap = snapshot(&repo, &store);
        let (repo2, _) = restore(&snap).unwrap();
        assert_eq!(repo2.latest_version(&name), Some(2));
        assert!(repo2
            .deployed(&name, 2)
            .unwrap()
            .schema
            .node_by_name("typestep")
            .is_some());
    }
}
