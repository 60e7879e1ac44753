//! # adept-engine — the ADEPT2 process engine
//!
//! The runtime facade tying the reproduction together (the paper's
//! "number of buildtime and runtime components"):
//!
//! * [`command`] — the **unified command/event execution API**: every
//!   state transition is a typed [`EngineCommand`] submitted through
//!   [`ProcessEngine::submit`] or, batched, through
//!   [`ProcessEngine::submit_batch`], returning a [`CommandOutcome`] with
//!   the emitted events, the enabled-set delta and a finished flag;
//! * [`session`] — the transactional change surface: every dynamic change
//!   — ad-hoc instance deviation or type evolution — is a **change
//!   session** driving the stage → preview → commit lifecycle;
//! * [`worklist`] — work items, role-based claiming, and the
//!   incrementally maintained worklist index command outcomes keep
//!   current;
//! * [`monitor`] — the monitoring component: an event log with logical
//!   timestamps plus DOT/text visualisation of instance states (the demo's
//!   Fig. 3 views). Decisions, starts, completions — driven or manual —
//!   all land here, gap-free.
//!
//! ## The hot path: compiled schema arenas
//!
//! Command execution resolves each instance's cached `ExecCtx` once per
//! batch and dispatches it to one of two observationally identical
//! tiers by a fixed rule: unbiased instances of a committed version run
//! on the **compiled** core (`adept_state::CompiledExecution` over a
//! shared `Arc<adept_model::CompiledSchema>` arena cached in the schema
//! repository, one compile per version); ad-hoc-biased instances run on
//! the interpreted `adept_state::Execution`. Redeploying a type evicts
//! its arenas. [`ProcessEngine::exec_path_counts`] reports the split —
//! see `docs/EXECUTION_CORE.md` for the full invalidation and fallback
//! rules.
//!
//! ## Executing instances: submit / submit_batch
//!
//! ```
//! use adept_engine::{EngineCommand, ProcessEngine};
//! use adept_model::SchemaBuilder;
//!
//! let engine = ProcessEngine::new();
//! let mut b = SchemaBuilder::new("expense");
//! b.activity("submit");
//! b.activity("payout");
//! let name = engine.deploy(b.build().unwrap()).unwrap();
//!
//! // Every transition is a typed command; outcomes report what changed.
//! let created = engine.submit(EngineCommand::CreateInstance {
//!     type_name: name.clone(),
//! }).unwrap();
//! let id = created.instance;
//! let submit = created.newly_enabled[0];
//!
//! // Batched submission: the instance's (schema, blocks) context is
//! // resolved ONCE and the whole group commits under a single atomic
//! // store update.
//! let outcomes = engine.submit_batch(vec![
//!     EngineCommand::Start { instance: id, node: submit },
//!     EngineCommand::Complete { instance: id, node: submit, writes: vec![] },
//!     EngineCommand::Drive { instance: id, max: None },
//! ]);
//! assert!(outcomes.iter().all(|o| o.is_ok()));
//! assert!(outcomes[2].as_ref().unwrap().finished);
//!
//! // The worklist is served from an incrementally maintained index that
//! // command outcomes keep current (and change commits invalidate).
//! assert!(engine.worklist().is_empty());
//! ```
//!
//! Use [`ProcessEngine::try_worklist`] to surface instances whose store
//! entry or schema no longer resolves instead of skipping them.
//!
//! ## Streaming consumers: event and worklist cursors
//!
//! Pollers shouldn't clone the world. The monitor's event log is a
//! bounded, sharded ring: [`Monitor::subscribe`] returns an
//! [`EventCursor`] that drains only the events recorded since the last
//! poll, and a cursor that falls behind the retention window gets an
//! explicit [`EventLag`] error — never a silent gap. The worklist has
//! the same shape: [`ProcessEngine::worklist_delta`] returns what
//! changed since an epoch instead of every item. Both polls cost
//! O(what changed since the last poll), not O(population): the cursor
//! seeks each sequence-sorted ring, and the worklist index keeps its
//! entries in an epoch-ordered log.
//!
//! ```
//! use adept_engine::{EngineCommand, ProcessEngine};
//! use adept_model::SchemaBuilder;
//!
//! let engine = ProcessEngine::new();
//! let mut b = SchemaBuilder::new("expense");
//! b.activity("submit");
//! let name = engine.deploy(b.build().unwrap()).unwrap();
//!
//! // Tail the event stream: only events recorded after subscribing.
//! let mut events = engine.monitor.subscribe();
//! // Follow the worklist incrementally: epoch 0 bootstraps everything.
//! let mut delta = engine.worklist_delta(0);
//! assert!(delta.added.is_empty());
//!
//! let id = engine.create_instance(&name).unwrap();
//! assert!(!events.poll(&engine.monitor).unwrap().is_empty());
//!
//! // Only the change since the last poll comes back: apply it by
//! // dropping `invalidated` ids and replacing `added` item sets.
//! delta = engine.worklist_delta(delta.epoch);
//! assert_eq!(delta.added.len(), 1);
//! assert_eq!(delta.added[0].0, id);
//!
//! engine.submit(EngineCommand::Drive { instance: id, max: None }).unwrap();
//! delta = engine.worklist_delta(delta.epoch);
//! assert_eq!(delta.added, vec![(id, vec![])]); // finished: offers nothing
//! ```
//!
//! ## Changing a running instance: stage → preview → commit
//!
//! ```
//! use adept_core::{ChangeOp, NewActivity};
//! use adept_engine::ProcessEngine;
//! use adept_model::SchemaBuilder;
//!
//! let engine = ProcessEngine::new();
//! let mut b = SchemaBuilder::new("expense");
//! b.activity("submit");
//! b.activity("payout");
//! let name = engine.deploy(b.build().unwrap()).unwrap();
//! let id = engine.create_instance(&name).unwrap();
//! let v1 = engine.repo.deployed(&name, 1).unwrap();
//! let submit = v1.schema.node_by_name("submit").unwrap().id;
//! let payout = v1.schema.node_by_name("payout").unwrap().id;
//!
//! // Stage any number of operations against a private overlay.
//! let mut session = engine.begin_change(id).unwrap();
//! let audit = session.stage(&ChangeOp::SerialInsert {
//!     activity: NewActivity::named("audit"),
//!     pred: submit,
//!     succ: payout,
//! }).unwrap().inserted_activity().unwrap();
//! session.stage(&ChangeOp::SetActivityAttributes {
//!     node: audit,
//!     attrs: adept_model::ActivityAttributes { role: Some("auditor".into()), ..Default::default() },
//! }).unwrap();
//!
//! // Pure dry run: nothing in the engine changes.
//! let preview = session.preview().unwrap();
//! assert!(preview.is_committable());
//!
//! // Atomic commit: ONE verification pass + ONE compliance pass for the
//! // whole batch; a failure would leave the instance bit-identical.
//! let receipt = session.commit().unwrap();
//! assert_eq!(receipt.ops, 2);
//! assert_eq!(engine.txn_log.len(), 1);
//! ```
//!
//! Type evolutions use the same lifecycle via
//! [`ProcessEngine::begin_evolution`]; committed transactions land in the
//! persisted [`adept_storage::TxnLog`] (`engine.txn_log`) with their
//! recorded inverses, and their commits invalidate the affected
//! instance's cached execution context and worklist entry.
//!
//! Every store mutation goes through one install primitive, and each
//! takes a write-ahead journaling hook that runs before the change
//! becomes visible:
//! `adept_storage::SchemaRepository::deploy_journaled` (deployments),
//! `SchemaRepository::install_evolution` (type evolutions),
//! `adept_storage::InstanceStore::set_bias` (ad-hoc changes and undos)
//! and `InstanceStore::migrate` (migration hops). On an engine without a
//! WAL the hook is a no-op.
//!
//! ## Durability: write-ahead log + crash recovery
//!
//! A durable engine ([`ProcessEngine::with_wal`]) journals every
//! committed mutation to an [`adept_storage::StorageBackend`] *before*
//! it becomes visible; [`recovery::recover_from`] rebuilds the exact
//! engine from the latest snapshot plus the log tail after a crash.
//! [`ProcessEngine::checkpoint_with`] persists a snapshot and truncates
//! the log only once the snapshot is safe.
//!
//! A submitted command group journals one **delta**: the history events
//! and data writes it appended (after a cut point, since failing an
//! activity withdraws an earlier `Started` event) and the marking entries
//! it changed — not the instance's whole state, so a record costs what
//! the command did, however old the instance. The group marks the
//! pre-command marking and lengths (`adept_state::StateMark`), which
//! also rolls it back if the append fails. Replay applies a delta only
//! when the instance's history and write-log lengths match its prior
//! ones, and applies it once: each instance record is journaled under
//! its store shard's write lock, which stamps the shard, and a snapshot
//! persists the stamps it read with each shard, so recovery skips exactly
//! the records a snapshot already holds.
//!
//! Under concurrent load the journal itself can be **segmented**
//! ([`ProcessEngine::with_segmented_wal`]): sequence `s` lands on
//! backend `(s − 1) mod N`, so appends from different store shards hit
//! different backend locks while the atomic allocator keeps one global
//! order. [`recovery::recover_segmented`] merges the segments back by
//! sequence and classifies any gap: the bounded tail gap a crash under
//! concurrent appends leaves (an earlier-allocated record dead while a
//! later one is durable in a sibling) is repaired by truncating back to
//! the last contiguous record, while a lost segment — periodic holes
//! wider than [`recovery::TAIL_REPAIR_WINDOW`] — is a refused gap, not
//! a silently thinner history. Every lock on these paths carries a
//! declared `adept_storage::ordered::LockClass` (store shard → wal
//! segment, machine-checked in debug builds); `docs/LOCK_ORDER.md` has
//! the authoritative acquisition DAG.
//!
//! ```
//! use adept_engine::{recovery, ProcessEngine};
//! use adept_model::SchemaBuilder;
//! use adept_storage::MemoryBackend;
//!
//! // `MemoryBackend` clones share one medium — the in-memory stand-in
//! // for a log file that survives the process. Production code uses
//! // `FileBackend::new(path)`.
//! let medium = MemoryBackend::new();
//! let engine = ProcessEngine::with_wal(Box::new(medium.clone())).unwrap();
//! let mut b = SchemaBuilder::new("expense");
//! b.activity("submit");
//! let name = engine.deploy(b.build().unwrap()).unwrap();
//! let id = engine.create_instance(&name).unwrap();
//! drop(engine); // crash: only the journaled log survives
//!
//! // Restart: replay the log (no snapshot here) into a fresh engine.
//! let (engine, report) = recovery::recover(Box::new(medium)).unwrap();
//! assert_eq!(report.replayed, 2); // deploy + create
//! assert!(report.divergent.is_empty());
//! assert!(engine.store.get(id).is_some());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod command;
pub mod engine;
pub mod monitor;
pub mod recovery;
pub mod session;
pub(crate) mod shard;
pub mod worklist;

pub use command::{CommandOutcome, EngineCommand};
pub use engine::{EngineError, ProcessEngine};
pub use monitor::{
    render_instance_dot, render_instance_summary, EngineEvent, EventBatch, EventCursor, EventLag,
    FailureKind, Monitor, DEFAULT_EVENT_RETENTION,
};
pub use recovery::{
    recover, recover_from, recover_from_segmented, recover_segmented, RecoveryReport,
};
pub use session::{ChangeSession, TxnReceipt};
pub use worklist::{WorkItem, WorklistDelta};
