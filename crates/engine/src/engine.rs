//! The ADEPT2 process engine: deployment, command-based execution, ad-hoc
//! change, schema evolution and batch migration.

use crate::command::{EngineCommand, ExecCtx};
use crate::monitor::{EngineEvent, Monitor};
use crate::shard::ShardedMap;
use crate::worklist::{items_for, WorkItem, WorklistDelta, WorklistIndex};
use adept_core::{
    adapt_instance_state, apply_op, check_fast, compliance::check_fast_op, migrate_instance,
    ChangeError, ConflictKind, Delta, InstanceOutcome, MigrationOptions, MigrationReport, Verdict,
};
use adept_model::{Blocks, InstanceId, NodeId, ProcessSchema};
use adept_state::{Decision, Execution, RuntimeError};
use adept_storage::ordered::classes;
use adept_storage::{
    InstanceRecord, InstanceStore, JournaledError, MemoryBreakdown, Representation,
    SchemaRepository, Snapshot, StorageBackend, StorageError, StoredInstance, TxnLog, TxnRecord,
    TxnTarget, WalRecord, WriteAheadLog,
};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Engine-level error.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A change operation failed.
    Change(ChangeError),
    /// A runtime operation failed.
    Runtime(RuntimeError),
    /// A named entity does not exist.
    NotFound(String),
    /// The durability subsystem failed (journaling, snapshot codec,
    /// recovery). A commit that reports this was **not** applied.
    Storage(StorageError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Change(e) => write!(f, "change error: {e}"),
            EngineError::Runtime(e) => write!(f, "runtime error: {e}"),
            EngineError::NotFound(what) => write!(f, "not found: {what}"),
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl EngineError {
    /// Classifies the error for typed failure-path monitor events.
    pub fn failure_kind(&self) -> crate::monitor::FailureKind {
        use crate::monitor::FailureKind;
        match self {
            EngineError::Change(e) => FailureKind::of_change(e),
            EngineError::Runtime(_) => FailureKind::State,
            EngineError::NotFound(_) => FailureKind::Unresolvable,
            EngineError::Storage(_) => FailureKind::Internal,
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ChangeError> for EngineError {
    fn from(e: ChangeError) -> Self {
        EngineError::Change(e)
    }
}

impl From<RuntimeError> for EngineError {
    fn from(e: RuntimeError) -> Self {
        EngineError::Runtime(e)
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

impl From<JournaledError> for EngineError {
    fn from(e: JournaledError) -> Self {
        match e {
            JournaledError::Change(e) => EngineError::Change(e),
            JournaledError::Storage(e) => EngineError::Storage(e),
        }
    }
}

/// The process-aware information system runtime. All state lives behind
/// interior locks, so `&ProcessEngine` is freely shared across threads
/// (parallel batch migration and concurrent command submission use this).
/// The instance store and every per-instance side table (context cache,
/// worklist index, failure dedupe) are sharded by `InstanceId::hash64`,
/// so commands on different instances contend on nothing but atomics.
#[derive(Debug)]
pub struct ProcessEngine {
    /// Deployed process types.
    pub repo: SchemaRepository,
    /// Running and finished instances (sharded; see [`InstanceStore`]).
    pub store: InstanceStore,
    /// The monitoring component.
    pub monitor: Monitor,
    /// The persisted log of committed change transactions.
    pub txn_log: TxnLog,
    /// Per-instance `(schema, blocks)` context cache shared by the command
    /// path and the worklist (invalidated on change/migration/undo).
    pub(crate) ctx_cache: ShardedMap<Arc<ExecCtx>>,
    /// The incrementally maintained worklist index.
    pub(crate) wl_index: WorklistIndex,
    /// Instances already reported as unresolvable by the worklist (one
    /// monitor event per ongoing failure, not one per poll).
    wl_failures: ShardedMap<()>,
    /// Commands/creates/drives served by the compiled tier.
    path_compiled: AtomicU64,
    /// Commands/creates/drives served by the interpreted tier.
    path_interp: AtomicU64,
}

impl ProcessEngine {
    /// Creates an engine with the ADEPT2 hybrid storage strategy.
    pub fn new() -> Self {
        Self::with_strategy(Representation::Hybrid)
    }

    /// Creates an engine with an explicit storage strategy (the Fig. 2
    /// experiments compare strategies).
    pub fn with_strategy(strategy: Representation) -> Self {
        Self {
            repo: SchemaRepository::new(),
            store: InstanceStore::new(strategy),
            monitor: Monitor::new(),
            txn_log: TxnLog::new(),
            ctx_cache: ShardedMap::new(&classes::ENGINE_CTX_CACHE),
            wl_index: WorklistIndex::default(),
            wl_failures: ShardedMap::new(&classes::ENGINE_WL_FAILURES),
            path_compiled: AtomicU64::new(0),
            path_interp: AtomicU64::new(0),
        }
    }

    /// Creates a **durable** engine (hybrid strategy): every committed
    /// mutation is journaled to `backend` before it becomes visible, and
    /// [`crate::recovery::recover`] can rebuild the exact engine from the
    /// log (plus an optional snapshot) after a crash. The backend must be
    /// empty — recovering an existing log is `recover`'s job.
    pub fn with_wal(backend: Box<dyn StorageBackend>) -> Result<Self, EngineError> {
        Self::with_segmented_wal(vec![backend])
    }

    /// Creates a **durable** engine whose write-ahead log is segmented
    /// across several backends (a power-of-two count, each empty):
    /// sequence `s` lands in segment `(s − 1) mod N`, so concurrent
    /// journal appends from different store shards spread across
    /// independent backend locks instead of serializing on one. Global
    /// order is kept by the atomic sequence allocator; recovery
    /// ([`crate::recovery::recover_segmented`]) merges the segments back
    /// by sequence. One segment is byte-identical to
    /// [`ProcessEngine::with_wal`].
    pub fn with_segmented_wal(backends: Vec<Box<dyn StorageBackend>>) -> Result<Self, EngineError> {
        let wal = WriteAheadLog::create_segmented(backends)?;
        // Hybrid: the only strategy WAL-only recovery rebuilds.
        let mut engine = Self::new();
        engine.txn_log = TxnLog::over(Arc::new(wal));
        Ok(engine)
    }

    /// The engine's write-ahead log (disabled unless constructed with
    /// [`ProcessEngine::with_wal`] or recovered onto a backend).
    pub fn wal(&self) -> &Arc<WriteAheadLog> {
        self.txn_log.wal()
    }

    /// Appends one record to the write-ahead log, returning its sequence;
    /// a cheap no-op returning 0 when the engine is not durable (the
    /// record is only *built* when a backend is attached).
    pub(crate) fn journal(&self, build: impl FnOnce() -> WalRecord) -> Result<u64, StorageError> {
        let wal = self.txn_log.wal();
        if wal.enabled() {
            wal.append(build())
        } else {
            Ok(0)
        }
    }

    /// Assembles an engine around an existing repository and store (the
    /// persistence restore path: `adept_storage::persist::restore`).
    ///
    /// The transaction log starts **empty**, so sequence numbers restart
    /// at 1 — when restoring a [`Snapshot`] that carries committed
    /// transactions, use [`ProcessEngine::from_snapshot`] (or
    /// [`ProcessEngine::from_parts_with_log`]) to keep the change
    /// history and its numbering intact.
    pub fn from_parts(repo: SchemaRepository, store: InstanceStore) -> Self {
        Self::from_parts_with_log(repo, store, TxnLog::new())
    }

    /// Captures a persistence snapshot of the whole engine: repository,
    /// instance store, the committed change-transaction log, and the WAL
    /// watermark the snapshot covers.
    ///
    /// The watermark is the WAL's **durable** position — the highest
    /// sequence every predecessor of which was successfully appended —
    /// read **before** the store state is composed, so a mutation landing
    /// between the two reads can be in the snapshot although it lies past
    /// the watermark. The store's per-shard journal stamps, read under
    /// the same guard as each shard's instances, say exactly which:
    /// recovery skips the records they cover and replays the rest, so
    /// every delta applies once — never lost, never twice. Reading the
    /// raw allocator position instead could claim coverage of sequences
    /// still in flight (or about to fail). As with the store scan itself, a
    /// point-in-time snapshot of a live engine requires quiescence;
    /// snapshot-under-traffic is best-effort, and a checkpoint that
    /// *truncates* the WAL ([`ProcessEngine::checkpoint_with`]) must be
    /// externally quiesced with respect to appends.
    pub fn snapshot(&self) -> Snapshot {
        let pos = self.txn_log.wal().durable_position();
        let mut s = adept_storage::snapshot_with_txns(&self.repo, &self.store, &self.txn_log);
        s.wal_seq = pos;
        s
    }

    /// Checkpoints a durable engine: captures a snapshot, hands it to
    /// `persist` (write it somewhere durable), and truncates the WAL only
    /// if persisting succeeded — the log is never dropped before its
    /// replacement is safe. Returns the snapshot. On a non-durable engine
    /// this is just [`ProcessEngine::snapshot`] + `persist`.
    pub fn checkpoint_with(
        &self,
        persist: impl FnOnce(&Snapshot) -> Result<(), StorageError>,
    ) -> Result<Snapshot, EngineError> {
        let snap = self.snapshot();
        persist(&snap)?;
        self.txn_log.wal().truncate()?;
        self.monitor.record(EngineEvent::CheckpointTaken {
            wal_seq: snap.wal_seq,
        });
        Ok(snap)
    }

    /// Restores an engine from a snapshot, including the transaction log
    /// (so the audit trail and its sequence numbering survive a
    /// save/restore round-trip).
    pub fn from_snapshot(s: &Snapshot) -> Result<Self, EngineError> {
        let (repo, store, txn_log) = adept_storage::restore_with_txns(s)?;
        Ok(Self::from_parts_with_log(repo, store, txn_log))
    }

    /// Assembles an engine around restored repository, store and
    /// transaction log (`adept_storage::persist::restore_with_txns`).
    pub fn from_parts_with_log(
        repo: SchemaRepository,
        store: InstanceStore,
        txn_log: TxnLog,
    ) -> Self {
        Self {
            repo,
            store,
            monitor: Monitor::new(),
            txn_log,
            ctx_cache: ShardedMap::new(&classes::ENGINE_CTX_CACHE),
            wl_index: WorklistIndex::default(),
            wl_failures: ShardedMap::new(&classes::ENGINE_WL_FAILURES),
            path_compiled: AtomicU64::new(0),
            path_interp: AtomicU64::new(0),
        }
    }

    // ------------------------------------------------------------------
    // Execution-path selection
    // ------------------------------------------------------------------

    /// `(compiled, interpreted)` — how many command-path executions each
    /// tier served. Biased instances always count on the interpreted side;
    /// this is how the equivalence suite proves the fallback actually
    /// triggers.
    pub fn exec_path_counts(&self) -> (u64, u64) {
        (
            self.path_compiled.load(Ordering::Relaxed),
            self.path_interp.load(Ordering::Relaxed),
        )
    }

    /// Tallies one command-path execution on the given tier.
    pub(crate) fn note_path(&self, compiled: bool) {
        if compiled {
            self.path_compiled.fetch_add(1, Ordering::Relaxed);
        } else {
            self.path_interp.fetch_add(1, Ordering::Relaxed);
        }
    }

    // ------------------------------------------------------------------
    // Deployment and instance creation
    // ------------------------------------------------------------------

    /// Deploys a process template as a new type (version 1). On a durable
    /// engine the deployment is journaled after it verifies and before it
    /// becomes visible; a journaling failure installs nothing.
    pub fn deploy(&self, schema: ProcessSchema) -> Result<String, EngineError> {
        let name = self.repo.deploy_journaled(schema, |s| {
            self.journal(|| WalRecord::Deployed { schema: s.clone() })
                .map(|_| ())
        })?;
        self.monitor.record(EngineEvent::Deployed {
            type_name: name.clone(),
        });
        Ok(name)
    }

    /// Creates an instance on the newest version of a type (thin wrapper
    /// over [`EngineCommand::CreateInstance`]).
    pub fn create_instance(&self, type_name: &str) -> Result<InstanceId, EngineError> {
        self.submit(EngineCommand::CreateInstance {
            type_name: type_name.to_string(),
        })
        .map(|o| o.instance)
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// The owned schema + block structure a change session stages against
    /// (see [`ProcessEngine::begin_change`]).
    pub(crate) fn change_context(
        &self,
        id: InstanceId,
    ) -> Result<(ProcessSchema, Blocks), EngineError> {
        let ctx = self.exec_context(id)?;
        Ok(((*ctx.schema).clone(), (*ctx.blocks).clone()))
    }

    /// The materialised `(schema, blocks)` context of an instance — the
    /// shared `Arc`s the command path executes against (bias already
    /// overlaid). External observers like the adaptation loop build
    /// read-only [`Execution`]s from this without cloning the schema.
    pub fn materialized(
        &self,
        id: InstanceId,
    ) -> Result<(Arc<ProcessSchema>, Arc<Blocks>), EngineError> {
        let ctx = self.exec_context(id)?;
        Ok((ctx.schema.clone(), ctx.blocks.clone()))
    }

    /// The global worklist: every activated activity of every instance,
    /// answered from the incremental index (instances the index does not
    /// cover are recomputed and installed on the way).
    ///
    /// The index is maintained by command outcomes and invalidated by
    /// change commits, migrations and undos — every mutation the engine's
    /// own API performs. Code that mutates instance state **directly
    /// through the public `store` field** bypasses that bookkeeping and
    /// must call [`ProcessEngine::refresh_worklist`] for the touched
    /// instance (or use [`ProcessEngine::worklist_full`]) to see its
    /// effect here.
    ///
    /// Instances whose store entry or schema context cannot be resolved are
    /// skipped, but no longer silently: each failure is recorded as an
    /// [`EngineEvent::WorklistResolutionFailed`] monitor event. Use
    /// [`ProcessEngine::try_worklist`] to fail fast instead.
    pub fn worklist(&self) -> Vec<WorkItem> {
        self.worklist_inner(false)
            .expect("invariant: the lenient worklist pass records failures instead of erroring")
    }

    /// Drops an instance's cached execution context and worklist entry so
    /// the next read recomputes both — the escape hatch for callers that
    /// mutate instance state directly through the public `store` field
    /// instead of submitting commands.
    pub fn refresh_worklist(&self, id: InstanceId) {
        self.invalidate_instance(id);
    }

    /// [`ProcessEngine::worklist`], failing on the first instance whose
    /// store entry or schema context cannot be resolved — the strict
    /// variant monitoring components use to surface store corruption.
    pub fn try_worklist(&self) -> Result<Vec<WorkItem>, EngineError> {
        self.worklist_inner(true)
    }

    fn worklist_inner(&self, strict: bool) -> Result<Vec<WorkItem>, EngineError> {
        let ids = self.store.ids();
        let mut items = Vec::new();
        let mut misses = Vec::new();
        // Steady state: one index lock pass serves the whole population.
        self.wl_index.collect(&ids, &mut items, &mut misses);
        for id in misses {
            match self.compute_items(id) {
                Ok(list) => {
                    self.wl_failures.remove(id);
                    items.extend(list);
                }
                Err(e) if strict => return Err(e),
                Err(e) => {
                    // An instance that vanished between the ids()
                    // snapshot and the recompute was *removed*, not
                    // corrupted: no report, and no dedupe entry may stay
                    // behind (the id never reappears, so nothing else
                    // would clear it).
                    if self.store.with_instance(id, |_| ()).is_none() {
                        self.wl_failures.remove(id);
                        continue;
                    }
                    // Report each ongoing failure once, not once per
                    // poll — a permanently dangling instance must not
                    // grow the monitor log without bound. Recovery
                    // re-arms the report (see the Ok branch).
                    if self.wl_failures.insert(id, ()).is_none() {
                        self.monitor.record(EngineEvent::WorklistResolutionFailed {
                            instance: id,
                            kind: e.failure_kind(),
                            reason: e.to_string(),
                        });
                    }
                    // Post-insert re-check: a removal racing in between
                    // the check above and the insert must not leak the
                    // entry (removal clears the set before we re-read).
                    if self.store.with_instance(id, |_| ()).is_none() {
                        self.wl_failures.remove(id);
                    }
                }
            }
        }
        Ok(items)
    }

    /// Recomputes one instance's work items and installs them into the
    /// index (stamped with the pre-read epoch, so a racing command's newer
    /// install wins).
    pub(crate) fn compute_items(&self, id: InstanceId) -> Result<Vec<WorkItem>, EngineError> {
        for _ in 0..4 {
            let epoch = self.wl_index.current();
            let ctx = self.exec_context(id)?;
            let computed = self
                .store
                .with_instance(id, |inst| {
                    if !ctx.matches(inst) {
                        return None;
                    }
                    let ex = ctx.exec();
                    let enabled = ex.enabled(&inst.state);
                    Some(items_for(
                        ex.schema(),
                        &enabled,
                        id,
                        &inst.type_name,
                        inst.version,
                    ))
                })
                .ok_or_else(|| EngineError::NotFound(format!("{id}")))?;
            match computed {
                Some(list) => {
                    self.wl_index.install_lazy(id, epoch, list.clone());
                    return Ok(list);
                }
                None => self.invalidate_instance(id),
            }
        }
        // A writer raced every attempt; serve items derived from ONE
        // cloned instance snapshot — the schema is re-materialised from
        // that same snapshot's bias rather than fetched by a second store
        // read, which could see a newer version and tear the pair — and
        // do not install them.
        let inst = self
            .store
            .get(id)
            .ok_or_else(|| EngineError::NotFound(format!("{id}")))?;
        let dep = self
            .repo
            .deployed(&inst.type_name, inst.version)
            .ok_or_else(|| EngineError::NotFound(format!("schema of {id}")))?;
        let schema = if inst.is_biased() {
            Arc::new(
                inst.subst
                    .overlay(&dep.schema)
                    .map_err(|e| EngineError::Change(ChangeError::Precondition(e.to_string())))?,
            )
        } else {
            dep.schema
        };
        let ex = Execution::new(&schema)
            .map_err(|e| EngineError::Change(ChangeError::Precondition(e.to_string())))?;
        let enabled = ex.enabled(&inst.state);
        Ok(items_for(
            &schema,
            &enabled,
            id,
            &inst.type_name,
            inst.version,
        ))
    }

    /// The worklist filtered by actor role (items without a role are
    /// claimable by anyone).
    pub fn worklist_for(&self, role: &str) -> Vec<WorkItem> {
        self.worklist()
            .into_iter()
            .filter(|w| w.claimable_by(role))
            .collect()
    }

    /// The worklist recomputed from scratch for every instance, bypassing
    /// the incremental index. This is the reference implementation the
    /// index is property-checked against (and the baseline of the
    /// `worklist` benchmark) — prefer [`ProcessEngine::worklist`].
    pub fn worklist_full(&self) -> Vec<WorkItem> {
        let mut items = Vec::new();
        for id in self.store.ids() {
            let Ok(ctx) = self.exec_context(id) else {
                continue;
            };
            let found = self.store.with_instance(id, |inst| {
                let ex = ctx.exec();
                let enabled = ex.enabled(&inst.state);
                items_for(ex.schema(), &enabled, id, &inst.type_name, inst.version)
            });
            items.extend(found.into_iter().flatten());
        }
        items
    }

    /// The worklist as a **delta** since a previous poll: what changed
    /// after epoch `since`, instead of a full clone of every item.
    ///
    /// Consumers keep the returned `epoch` and pass it as the next
    /// `since`; `since == 0` bootstraps (everything currently offered is
    /// reported as added). Apply a delta by dropping every id in
    /// `invalidated`, then **replacing** the item set of every id in
    /// `added` — each added entry carries the instance's full current
    /// set, so application is idempotent. Replaying deltas from 0
    /// reconstructs exactly [`ProcessEngine::worklist_full`] (property-
    /// checked in the test suite).
    ///
    /// A poll costs O(instances changed + removed since `since`): the
    /// index keeps its slots in an epoch-ordered log and the scan is a
    /// range read of it, one coherent pass (all index shard read guards
    /// held together, for the changed keys only). In-flight command
    /// installs hold the reported epoch back, so their effects land in
    /// the *next* delta rather than falling into a cursor gap. Ids the
    /// scan finds tombstoned are resolved against the store after the
    /// guards drop: still present means recompute — **installed**
    /// (stamped with the pre-scan epoch, so a racing command's newer
    /// install wins) and reported, so a miss costs one recompute, not
    /// one per poll — and gone means invalidated.
    ///
    /// Like [`ProcessEngine::worklist`], a delta with `since > 0` sees
    /// only mutations the engine made or was told about: an instance
    /// created or changed **directly through the public `store` field**
    /// is not reported until [`ProcessEngine::refresh_worklist`] names
    /// it. Only the `since == 0` bootstrap sweeps the whole store, and
    /// so also reports instances that never passed through the engine.
    pub fn worklist_delta(&self, since: u64) -> WorklistDelta {
        // Read before the scan: anything a racing writer changes after
        // this point carries a newer epoch and out-prioritises the lazy
        // installs below (the tombstone watermark rejects stale ones).
        let scan_epoch = self.wl_index.current();
        let ids = if since == 0 {
            self.store.ids()
        } else {
            Vec::new()
        };
        let d = self.wl_index.delta(since, &ids);
        let mut added = d.updated;
        let mut invalidated = Vec::new();
        for id in d.stale {
            if self.store.with_instance(id, |_| ()).is_none() {
                invalidated.push(id);
                continue;
            }
            match self.compute_items(id) {
                Ok(list) => {
                    self.wl_failures.remove(id);
                    added.push((id, list));
                }
                // Vanished mid-recompute = removed: tell the consumer to
                // drop it. Still present but unresolvable = offers
                // nothing — install the empty set so the miss is
                // recomputed once, not on every poll, and report the
                // failure once (the same one-shot dedupe the worklist
                // read path uses).
                Err(e) => {
                    if self.store.with_instance(id, |_| ()).is_none() {
                        self.wl_failures.remove(id);
                        invalidated.push(id);
                    } else {
                        if self.wl_failures.insert(id, ()).is_none() {
                            self.monitor.record(EngineEvent::WorklistResolutionFailed {
                                instance: id,
                                kind: e.failure_kind(),
                                reason: e.to_string(),
                            });
                        }
                        // Post-insert re-check: a racing removal must not
                        // leak the dedupe entry (removal clears the set
                        // before we re-read).
                        if self.store.with_instance(id, |_| ()).is_none() {
                            self.wl_failures.remove(id);
                        }
                        self.wl_index.install_lazy(id, scan_epoch, Vec::new());
                        added.push((id, Vec::new()));
                    }
                }
            }
        }
        added.sort_by_key(|(id, _)| id.0);
        WorklistDelta {
            added,
            invalidated,
            epoch: d.epoch,
        }
    }

    /// Pending XOR/loop decisions of an instance.
    pub fn pending_decisions(&self, id: InstanceId) -> Result<Vec<Decision>, EngineError> {
        let ctx = self.exec_context(id)?;
        self.store
            .with_instance(id, |inst| ctx.execution().pending_decisions(&inst.state))
            .ok_or_else(|| EngineError::NotFound(format!("{id}")))
    }

    /// Whether an instance has reached its end node.
    pub fn is_finished(&self, id: InstanceId) -> Result<bool, EngineError> {
        let ctx = self.exec_context(id)?;
        self.store
            .with_instance(id, |inst| ctx.execution().is_finished(&inst.state))
            .ok_or_else(|| EngineError::NotFound(format!("{id}")))
    }

    /// All instance ids across all types, in id order (straight from the
    /// store, so instances with a dangling type name are included).
    pub fn all_instances(&self) -> Vec<InstanceId> {
        self.store.ids()
    }

    /// Removes an instance from the engine (cancellation / archival),
    /// returning its final stored form. The cached execution context and
    /// every worklist trace are dropped with it; an in-flight migration
    /// that loses the instance to this call reports it as
    /// [`ConflictKind::Vanished`], not as a conflict.
    pub fn remove_instance(&self, id: InstanceId) -> Result<StoredInstance, EngineError> {
        // Write-ahead: the removal is journaled under the shard lock,
        // before it happens; a racing second removal finds nothing to
        // journal and gets NotFound.
        let inst = self
            .store
            .remove(id, |_| self.journal(|| WalRecord::Removed { id }))?
            .ok_or_else(|| EngineError::NotFound(format!("{id}")))?;
        self.ctx_cache.remove(id);
        // invalidate (not a bare entry drop): the tombstone watermark
        // blocks an in-flight recompute from resurrecting an entry no
        // later pass would ever clear.
        self.wl_index.invalidate(id);
        self.wl_failures.remove(id);
        self.monitor
            .record(EngineEvent::InstanceRemoved { instance: id });
        Ok(inst)
    }

    // ------------------------------------------------------------------
    // Ad-hoc change (instance level)
    // ------------------------------------------------------------------

    /// Undoes the most recent ad-hoc change of an instance (inverse
    /// operation with full pre-/post-condition and state checking). The
    /// bias shrinks; if it becomes empty the instance is unbiased again
    /// and shares the deployed schema.
    pub fn undo_ad_hoc_change(&self, id: InstanceId) -> Result<(), EngineError> {
        // Context and instance snapshot must describe the same (version,
        // bias) — a change committing between the two reads would pair an
        // inverse computed against the old schema with the new bias and
        // still pass the final CAS. Re-resolve until they agree; the CAS
        // at install keeps the pair authoritative.
        let (ctx, inst) = {
            let mut attempts = 0;
            loop {
                let ctx = self.exec_context(id)?;
                let inst = self
                    .store
                    .get(id)
                    .ok_or_else(|| EngineError::NotFound(format!("{id}")))?;
                if ctx.matches(&inst) {
                    break (ctx, inst);
                }
                self.invalidate_instance(id);
                attempts += 1;
                if attempts >= 8 {
                    return Err(EngineError::Change(ChangeError::Precondition(format!(
                        "concurrent modification: context of {id} kept changing during undo"
                    ))));
                }
            }
        };
        let (current, blocks) = (&ctx.schema, &ctx.blocks);
        let mut materialized = (**current).clone();
        let mut bias = inst.bias.clone();
        let last = bias.ops.last().cloned().ok_or_else(|| {
            EngineError::Change(ChangeError::Precondition(
                "instance is unbiased; nothing to undo".into(),
            ))
        })?;
        let inv = adept_core::inverse_of(&materialized, &last).ok_or_else(|| {
            EngineError::Change(ChangeError::Precondition(format!(
                "{} is not invertible",
                last.op.name()
            )))
        })?;
        // State precondition of the inverse (e.g. cannot undo an insert
        // whose activity already ran).
        let probe_rec = {
            let mut probe = materialized.clone();
            apply_op(&mut probe, &inv)?
        };
        let verdict = check_fast_op(current, blocks, &inst.state, &probe_rec);
        if let Verdict::NotCompliant(c) = verdict {
            return Err(EngineError::Change(ChangeError::StatePrecondition {
                node: probe_rec
                    .anchor_nodes()
                    .first()
                    .copied()
                    .unwrap_or(NodeId(0)),
                reason: c.to_string(),
            }));
        }
        let rec =
            adept_core::undo_last(&mut materialized, &mut bias).map_err(EngineError::Change)?;
        let applied_inverse = rec.op.clone();
        let new_ex = Execution::new(&materialized)
            .map_err(|e| EngineError::Change(ChangeError::Precondition(e.to_string())))?;
        let mut st = inst.state.clone();
        let single: Delta = std::iter::once(rec).collect();
        adapt_instance_state(current, blocks, &new_ex, &single, &mut st)?;
        // The undo is a committed change like any other: it gets its own
        // transaction record (applied inverse + the op that would redo it)
        // so the audit trail can reconstruct the bias exactly. On a
        // durable engine the instance post-image and that record are
        // journaled in one WAL line before the install becomes visible —
        // a journaling failure aborts the undo.
        let wal = self.txn_log.wal();
        let mut seq = 0u64;
        let installed = self.store.set_bias(
            id,
            inst.version,
            &inst.bias,
            &inst.state,
            bias,
            &materialized,
            st,
            |candidate| {
                wal.append_txn(|txn_seq| {
                    let txn = TxnRecord {
                        seq: txn_seq,
                        target: TxnTarget::Instance(id),
                        ops: vec![applied_inverse.clone()],
                        inverses: vec![Some(last.op.clone())],
                    };
                    (
                        WalRecord::ChangeCommitted {
                            record: InstanceRecord::of(candidate),
                            txn: txn.clone(),
                        },
                        txn,
                    )
                })
                .map(|appended| {
                    seq = appended.txn_seq;
                    appended.wal_seq
                })
            },
        )?;
        if !installed {
            return Err(EngineError::Change(ChangeError::Precondition(format!(
                "concurrent change: {id} was modified while the undo committed"
            ))));
        }
        self.invalidate_instance(id);
        self.monitor.record(EngineEvent::AdHocChanged {
            instance: id,
            op: format!("undo {}", last.op.name()),
        });
        self.monitor.record(EngineEvent::TxnCommitted {
            target: id.to_string(),
            ops: 1,
            seq,
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Schema evolution and migration
    // ------------------------------------------------------------------

    /// Migrates all instances of a type to its newest version (hop by hop
    /// through intermediate versions). With `threads > 1` the per-instance
    /// checks and adaptations run in parallel worker threads — migrating
    /// thousands of instances on the fly is exactly the workload the paper
    /// targets.
    pub fn migrate_all(
        &self,
        type_name: &str,
        options: &MigrationOptions,
        threads: usize,
    ) -> Result<MigrationReport, EngineError> {
        let to_version = self
            .repo
            .latest_version(type_name)
            .ok_or_else(|| EngineError::NotFound(format!("process type {type_name:?}")))?;
        let ids = self.store.instances_of(type_name);
        let from_version = ids
            .iter()
            .filter_map(|id| self.store.get(*id).map(|i| i.version))
            .min()
            .unwrap_or(to_version);

        let outcomes: Vec<InstanceOutcome> = if threads <= 1 || ids.len() < 2 {
            ids.iter()
                .map(|id| self.migrate_one_isolated(type_name, *id, to_version, options))
                .collect()
        } else {
            let chunk = ids.len().div_ceil(threads);
            let mut results: Vec<Vec<InstanceOutcome>> = Vec::new();
            crossbeam::scope(|scope| {
                let handles: Vec<_> = ids
                    .chunks(chunk)
                    .map(|part| {
                        let h = scope.spawn(move |_| {
                            part.iter()
                                .map(|id| {
                                    self.migrate_one_isolated(type_name, *id, to_version, options)
                                })
                                .collect::<Vec<_>>()
                        });
                        (part, h)
                    })
                    .collect();
                for (part, h) in handles {
                    // Per-instance panics are already caught inside the
                    // worker; a panic that still reaches the join (e.g.
                    // in the collection machinery itself) downgrades the
                    // chunk to per-instance failure outcomes instead of
                    // aborting the whole batch — one poisoned instance
                    // must not sink a 10k-instance migration.
                    results.push(
                        h.join()
                            .unwrap_or_else(|payload| panic_outcomes(part, &payload)),
                    );
                }
            })
            .expect("invariant: worker panics are caught at join, the scope itself cannot fail");
            results.into_iter().flatten().collect()
        };

        let report = MigrationReport {
            type_name: type_name.to_string(),
            from_version,
            to_version,
            outcomes,
        };
        Ok(report)
    }

    /// [`ProcessEngine::migrate_one`] behind a panic boundary: a panic in
    /// the migration of one instance (a poisoned state, a bug in a check)
    /// becomes that instance's failure outcome instead of unwinding into
    /// the batch. The store's locks recover from poisoning, so the rest
    /// of the population stays migratable.
    fn migrate_one_isolated(
        &self,
        type_name: &str,
        id: InstanceId,
        to_version: u32,
        options: &MigrationOptions,
    ) -> InstanceOutcome {
        catch_unwind(AssertUnwindSafe(|| {
            self.migrate_one(type_name, id, to_version, options)
        }))
        .unwrap_or_else(|payload| panic_outcome(id, &payload))
    }

    /// Migrates one instance hop by hop up to `to_version`. Returns its
    /// final outcome (the first conflict stops the chain).
    fn migrate_one(
        &self,
        type_name: &str,
        id: InstanceId,
        to_version: u32,
        options: &MigrationOptions,
    ) -> InstanceOutcome {
        // Bounded contention retries, mirroring the command path's
        // MAX_GROUP_RETRIES: a hot instance whose commands keep beating
        // the migration's read-check-install window must not spin a
        // migration worker forever. Successful hops reset the budget.
        const MAX_MIGRATE_RETRIES: usize = 8;
        let mut contested = 0usize;
        loop {
            let Some(inst) = self.store.get(id) else {
                // The instance was removed (cancelled/archived) while the
                // migration was in flight. That is not a structural
                // failure of the change — there is nothing left to
                // migrate — so it gets its own outcome kind and reports
                // stop counting it against the migration.
                return InstanceOutcome {
                    instance: id,
                    biased: false,
                    verdict: Verdict::conflict(
                        ConflictKind::Vanished,
                        "instance disappeared during migration",
                    ),
                };
            };
            if inst.version >= to_version {
                return InstanceOutcome {
                    instance: id,
                    biased: inst.is_biased(),
                    verdict: Verdict::Compliant,
                };
            }
            let next = inst.version + 1;
            let Some(delta) = self.repo.delta_between(type_name, inst.version) else {
                return InstanceOutcome {
                    instance: id,
                    biased: inst.is_biased(),
                    verdict: Verdict::conflict(
                        adept_core::ConflictKind::Structural,
                        format!("no recorded delta from V{} to V{next}", inst.version),
                    ),
                };
            };
            let Ok(ctx) = self.exec_context(id) else {
                // Distinguish "the instance was removed under us" (a
                // vanished outcome, like the initial read) from a genuine
                // materialisation failure.
                if self.store.with_instance(id, |_| ()).is_none() {
                    return InstanceOutcome {
                        instance: id,
                        biased: false,
                        verdict: Verdict::conflict(
                            ConflictKind::Vanished,
                            "instance disappeared during migration",
                        ),
                    };
                }
                return InstanceOutcome {
                    instance: id,
                    biased: inst.is_biased(),
                    verdict: Verdict::conflict(
                        adept_core::ConflictKind::Structural,
                        "cannot materialise current schema",
                    ),
                };
            };
            // The context must describe the same (version, bias) as the
            // instance snapshot read above — a change or another
            // migration hop committing between the two reads would pair
            // a stale snapshot with a fresher schema and mis-report a
            // consistent instance as conflicting. Re-read and re-check
            // (the Compliant path below is additionally CAS-guarded).
            if !ctx.matches(&inst) {
                contested += 1;
                if contested >= MAX_MIGRATE_RETRIES {
                    return contested_outcome(id, contested);
                }
                continue;
            }
            let Some(new_dep) = self.repo.deployed(type_name, next) else {
                return InstanceOutcome {
                    instance: id,
                    biased: inst.is_biased(),
                    verdict: Verdict::conflict(
                        adept_core::ConflictKind::Structural,
                        format!("V{next} not deployed"),
                    ),
                };
            };
            let res = migrate_instance(
                &ctx.schema,
                &ctx.blocks,
                &new_dep.schema,
                &delta,
                &inst.bias,
                &inst.state,
                options,
            );
            match res.verdict {
                Verdict::Compliant => {
                    let Some(adapted) = res.adapted else {
                        // A compliant verdict without adapted state is a
                        // checker bug; surface it as a per-instance
                        // failure instead of sinking the whole batch.
                        return InstanceOutcome {
                            instance: id,
                            biased: inst.is_biased(),
                            verdict: Verdict::conflict(
                                ConflictKind::Internal,
                                "compliant migration result carried no adapted state".to_string(),
                            ),
                        };
                    };
                    // CAS install: a command committing between this
                    // hop's read and its install must not be overwritten
                    // by state adapted from the stale snapshot — on a
                    // lost race the loop re-reads and re-checks the hop.
                    // On a durable engine the hop's post-image is
                    // journaled inside the CAS (before visibility); a
                    // journaling failure aborts the hop.
                    let installed = self.store.migrate(
                        id,
                        inst.version,
                        &inst.state,
                        next,
                        adapted,
                        res.materialized.as_ref(),
                        |candidate| {
                            self.journal(|| WalRecord::Migrated {
                                record: InstanceRecord::of(candidate),
                            })
                        },
                    );
                    match installed {
                        Err(e) => {
                            return InstanceOutcome {
                                instance: id,
                                biased: inst.is_biased(),
                                verdict: Verdict::conflict(
                                    ConflictKind::Internal,
                                    format!("migration hop could not be journaled: {e}"),
                                ),
                            };
                        }
                        Ok(false) => {
                            contested += 1;
                            if contested >= MAX_MIGRATE_RETRIES {
                                return contested_outcome(id, contested);
                            }
                            continue;
                        }
                        Ok(true) => {}
                    }
                    contested = 0;
                    self.invalidate_instance(id);
                    self.monitor.record(EngineEvent::Migrated {
                        instance: id,
                        to_version: next,
                    });
                }
                Verdict::NotCompliant(c) => {
                    self.monitor.record(EngineEvent::MigrationRejected {
                        instance: id,
                        node: None,
                        kind: crate::monitor::FailureKind::from(&c.kind),
                        reason: c.to_string(),
                    });
                    return InstanceOutcome {
                        instance: id,
                        biased: inst.is_biased(),
                        verdict: Verdict::NotCompliant(c),
                    };
                }
            }
        }
    }

    /// Re-checks compliance of an instance against a delta without applying
    /// anything (used by what-if tooling and tests).
    pub fn check_compliance(&self, id: InstanceId, delta: &Delta) -> Result<Verdict, EngineError> {
        let ctx = self.exec_context(id)?;
        self.store
            .with_instance(id, |inst| {
                check_fast(&ctx.schema, &ctx.blocks, &inst.state, delta)
            })
            .ok_or_else(|| EngineError::NotFound(format!("{id}")))
    }

    /// Byte-level memory accounting (paper Fig. 2).
    pub fn memory(&self) -> MemoryBreakdown {
        self.store.memory(&self.repo)
    }

    /// Renders an instance for the monitoring component.
    pub fn render_instance(&self, id: InstanceId) -> Result<String, EngineError> {
        let ctx = self.exec_context(id)?;
        self.store
            .with_instance(id, |inst| {
                crate::monitor::render_instance_summary(&ctx.schema, &inst.state)
            })
            .ok_or_else(|| EngineError::NotFound(format!("{id}")))
    }
}

impl Default for ProcessEngine {
    fn default() -> Self {
        Self::new()
    }
}

/// Best-effort rendering of a panic payload (`panic!` with a literal or a
/// formatted string covers practically every real panic).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// One [`ConflictKind::Internal`] failure outcome for an instance whose
/// migration panicked.
fn panic_outcome(id: InstanceId, payload: &(dyn std::any::Any + Send)) -> InstanceOutcome {
    InstanceOutcome {
        instance: id,
        biased: false,
        verdict: Verdict::conflict(
            ConflictKind::Internal,
            format!("migration worker panicked: {}", panic_message(payload)),
        ),
    }
}

/// The outcome of a migration that lost the read-check-install race to
/// concurrent commands on every attempt: the instance is fine, the
/// migration just could not be committed — the caller re-runs
/// `migrate_all` once traffic allows.
fn contested_outcome(id: InstanceId, attempts: usize) -> InstanceOutcome {
    InstanceOutcome {
        instance: id,
        biased: false,
        verdict: Verdict::conflict(
            ConflictKind::Internal,
            format!(
                "concurrent commands outpaced the migration ({attempts} contested attempts); re-run migrate_all"
            ),
        ),
    }
}

/// Failure outcomes for a whole chunk whose worker died before reporting —
/// the join-side backstop behind the per-instance `catch_unwind`.
fn panic_outcomes(
    ids: &[InstanceId],
    payload: &(dyn std::any::Any + Send),
) -> Vec<InstanceOutcome> {
    ids.iter().map(|id| panic_outcome(*id, payload)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_core::{ChangeOp, NewActivity};
    use adept_model::SchemaBuilder;

    /// Drives an instance through the command path.
    fn drive(engine: &ProcessEngine, id: InstanceId, max: Option<usize>) {
        engine
            .submit(EngineCommand::Drive { instance: id, max })
            .unwrap();
    }

    /// One-op ad-hoc change through a change session.
    fn adhoc(engine: &ProcessEngine, id: InstanceId, op: &ChangeOp) -> Result<(), EngineError> {
        let mut session = engine.begin_change(id)?;
        session.stage(op)?;
        session.commit().map(|_| ())
    }

    /// One-batch type evolution through a change session.
    fn evolve(engine: &ProcessEngine, name: &str, ops: &[ChangeOp]) -> u32 {
        let mut session = engine.begin_evolution(name).unwrap();
        for op in ops {
            session.stage(op).unwrap();
        }
        session
            .commit()
            .unwrap()
            .new_version
            .expect("evolution commits produce a version")
    }

    fn order_schema() -> ProcessSchema {
        let mut b = SchemaBuilder::new("online order");
        b.activity_with("get order", |a| a.role = Some("sales".into()));
        b.activity("collect data");
        b.and_split();
        b.branch();
        b.activity("confirm order");
        b.branch();
        b.activity("compose order");
        b.activity("pack goods");
        b.and_join();
        b.activity("deliver goods");
        b.build().unwrap()
    }

    #[test]
    fn full_lifecycle() {
        let engine = ProcessEngine::new();
        let name = engine.deploy(order_schema()).unwrap();
        let id = engine.create_instance(&name).unwrap();

        let wl = engine.worklist();
        assert_eq!(wl.len(), 1);
        assert_eq!(wl[0].activity, "get order");
        assert_eq!(engine.worklist_for("sales").len(), 1);
        assert_eq!(engine.worklist_for("warehouse").len(), 0);

        engine
            .submit(EngineCommand::Start {
                instance: id,
                node: wl[0].node,
            })
            .unwrap();
        let outcome = engine
            .submit(EngineCommand::Complete {
                instance: id,
                node: wl[0].node,
                writes: vec![],
            })
            .unwrap();
        assert!(!outcome.finished);
        assert!(!engine.is_finished(id).unwrap());

        drive(&engine, id, None);
        assert!(engine.is_finished(id).unwrap());
        assert!(engine
            .monitor
            .events()
            .iter()
            .any(|(_, e)| matches!(e, EngineEvent::InstanceFinished { .. })));
    }

    #[test]
    fn ad_hoc_change_biases_single_instance() {
        let engine = ProcessEngine::new();
        let name = engine.deploy(order_schema()).unwrap();
        let i1 = engine.create_instance(&name).unwrap();
        let i2 = engine.create_instance(&name).unwrap();

        let v1 = engine.repo.deployed(&name, 1).unwrap();
        let get = v1.schema.node_by_name("get order").unwrap().id;
        let collect = v1.schema.node_by_name("collect data").unwrap().id;
        adhoc(
            &engine,
            i1,
            &ChangeOp::SerialInsert {
                activity: NewActivity::named("check customer"),
                pred: get,
                succ: collect,
            },
        )
        .unwrap();

        let s1 = engine.store.schema_of(&engine.repo, i1).unwrap();
        let s2 = engine.store.schema_of(&engine.repo, i2).unwrap();
        assert!(s1.node_by_name("check customer").is_some());
        assert!(s2.node_by_name("check customer").is_none());
        assert!(engine.store.get(i1).unwrap().is_biased());
        assert!(!engine.store.get(i2).unwrap().is_biased());

        // The biased instance executes the inserted step.
        drive(&engine, i1, None);
        assert!(engine.is_finished(i1).unwrap());
    }

    #[test]
    fn ad_hoc_change_rejected_by_state() {
        let engine = ProcessEngine::new();
        let name = engine.deploy(order_schema()).unwrap();
        let id = engine.create_instance(&name).unwrap();
        drive(&engine, id, None);

        let v1 = engine.repo.deployed(&name, 1).unwrap();
        let get = v1.schema.node_by_name("get order").unwrap().id;
        let collect = v1.schema.node_by_name("collect data").unwrap().id;
        let err = adhoc(
            &engine,
            id,
            &ChangeOp::SerialInsert {
                activity: NewActivity::named("too late"),
                pred: get,
                succ: collect,
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Change(ChangeError::StatePrecondition { .. })
        ));
    }

    #[test]
    fn evolution_and_migration_report() {
        let engine = ProcessEngine::new();
        let name = engine.deploy(order_schema()).unwrap();

        // Three instances at different progress points (paper Fig. 3).
        let i1 = engine.create_instance(&name).unwrap(); // fresh: compliant
        let i2 = engine.create_instance(&name).unwrap(); // will be biased w/ conflict
        let i3 = engine.create_instance(&name).unwrap(); // runs to completion: state conflict
        drive(&engine, i1, Some(2));
        drive(&engine, i3, None);

        // I2's ad-hoc bias: sync(confirm order -> compose order).
        let v1 = engine.repo.deployed(&name, 1).unwrap();
        let confirm = v1.schema.node_by_name("confirm order").unwrap().id;
        let compose = v1.schema.node_by_name("compose order").unwrap().id;
        let pack = v1.schema.node_by_name("pack goods").unwrap().id;
        adhoc(
            &engine,
            i2,
            &ChangeOp::InsertSyncEdge {
                from: confirm,
                to: compose,
            },
        )
        .unwrap();

        // ΔT: insert "send questions" + sync to confirm order (Fig. 1).
        let v2 = evolve(
            &engine,
            &name,
            &[ChangeOp::SerialInsert {
                activity: NewActivity::named("send questions"),
                pred: compose,
                succ: pack,
            }],
        );
        assert_eq!(v2, 2);
        let sq = engine
            .repo
            .deployed(&name, 2)
            .unwrap()
            .schema
            .node_by_name("send questions")
            .unwrap()
            .id;
        let v3 = evolve(
            &engine,
            &name,
            &[ChangeOp::InsertSyncEdge {
                from: sq,
                to: confirm,
            }],
        );
        assert_eq!(v3, 3);

        let report = engine
            .migrate_all(&name, &MigrationOptions::default(), 1)
            .unwrap();
        assert_eq!(report.total(), 3);
        assert_eq!(report.migrated(), 1, "{report}");
        assert_eq!(report.conflicts(adept_core::ConflictKind::Structural), 1);
        assert_eq!(report.conflicts(adept_core::ConflictKind::State), 1);

        // The migrated instance continues and executes the new activity.
        drive(&engine, i1, None);
        assert!(engine.is_finished(i1).unwrap());
        let inst1 = engine.store.get(i1).unwrap();
        assert_eq!(inst1.version, 3);
        assert!(inst1.state.history.started_activities().contains(&sq));
    }

    #[test]
    fn parallel_migration_matches_sequential() {
        let engine = ProcessEngine::new();
        let name = engine.deploy(order_schema()).unwrap();
        for _ in 0..64 {
            let id = engine.create_instance(&name).unwrap();
            drive(&engine, id, Some(2));
        }
        let v1 = engine.repo.deployed(&name, 1).unwrap();
        let compose = v1.schema.node_by_name("compose order").unwrap().id;
        let pack = v1.schema.node_by_name("pack goods").unwrap().id;
        evolve(
            &engine,
            &name,
            &[ChangeOp::SerialInsert {
                activity: NewActivity::named("send questions"),
                pred: compose,
                succ: pack,
            }],
        );
        let report = engine
            .migrate_all(&name, &MigrationOptions::default(), 4)
            .unwrap();
        assert_eq!(report.total(), 64);
        assert_eq!(report.migrated(), 64, "{report}");
    }

    #[test]
    fn undo_ad_hoc_change_restores_unbiased_state() {
        let engine = ProcessEngine::new();
        let name = engine.deploy(order_schema()).unwrap();
        let id = engine.create_instance(&name).unwrap();
        let v1 = engine.repo.deployed(&name, 1).unwrap();
        let get = v1.schema.node_by_name("get order").unwrap().id;
        let collect = v1.schema.node_by_name("collect data").unwrap().id;
        adhoc(
            &engine,
            id,
            &ChangeOp::SerialInsert {
                activity: NewActivity::named("temp step"),
                pred: get,
                succ: collect,
            },
        )
        .unwrap();
        assert!(engine.store.get(id).unwrap().is_biased());
        engine.undo_ad_hoc_change(id).unwrap();
        assert!(!engine.store.get(id).unwrap().is_biased());
        // Undoing again fails: nothing left.
        assert!(engine.undo_ad_hoc_change(id).is_err());
        // The instance runs to completion on the restored schema.
        drive(&engine, id, None);
        assert!(engine.is_finished(id).unwrap());
    }

    #[test]
    fn undo_rejected_when_inserted_activity_already_ran() {
        let engine = ProcessEngine::new();
        let name = engine.deploy(order_schema()).unwrap();
        let id = engine.create_instance(&name).unwrap();
        let v1 = engine.repo.deployed(&name, 1).unwrap();
        let get = v1.schema.node_by_name("get order").unwrap().id;
        let collect = v1.schema.node_by_name("collect data").unwrap().id;
        adhoc(
            &engine,
            id,
            &ChangeOp::SerialInsert {
                activity: NewActivity::named("ran already"),
                pred: get,
                succ: collect,
            },
        )
        .unwrap();
        // Execute past the inserted activity.
        drive(&engine, id, Some(2));
        let err = engine.undo_ad_hoc_change(id).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Change(ChangeError::StatePrecondition { .. })
        ));
    }

    #[test]
    fn instance_rendering_via_engine() {
        let engine = ProcessEngine::new();
        let name = engine.deploy(order_schema()).unwrap();
        let id = engine.create_instance(&name).unwrap();
        let text = engine.render_instance(id).unwrap();
        assert!(text.contains("get order"));
    }
}
