//! Integration test crate for the ADEPT2 reproduction (tests live in
//! `tests/`). The helpers here are the idiomatic entry points the suite
//! drives the engine through: typed commands for execution and change
//! sessions for dynamic change.

use adept_core::ChangeOp;
use adept_engine::{CommandOutcome, EngineCommand, EngineError, ProcessEngine, TxnReceipt};
use adept_model::InstanceId;
use adept_state::Driver;

/// Drives an instance through the command path with the default driver,
/// completing at most `max` activities. Returns the command outcome.
pub fn drive(
    engine: &ProcessEngine,
    id: InstanceId,
    max: Option<usize>,
) -> Result<CommandOutcome, EngineError> {
    engine.submit(EngineCommand::Drive { instance: id, max })
}

/// [`drive`] with a custom driver.
pub fn drive_with(
    engine: &ProcessEngine,
    id: InstanceId,
    driver: &mut dyn Driver,
    max: Option<usize>,
) -> Result<CommandOutcome, EngineError> {
    engine.submit_with_driver(EngineCommand::Drive { instance: id, max }, driver)
}

/// Applies a one-op ad-hoc change through a change session.
pub fn adhoc(
    engine: &ProcessEngine,
    id: InstanceId,
    op: &ChangeOp,
) -> Result<TxnReceipt, EngineError> {
    let mut session = engine.begin_change(id)?;
    session.stage(op)?;
    session.commit()
}

/// Evolves a type by one batch of operations through a change session,
/// returning the new version.
pub fn evolve(
    engine: &ProcessEngine,
    type_name: &str,
    ops: &[ChangeOp],
) -> Result<u32, EngineError> {
    let mut session = engine.begin_evolution(type_name)?;
    for op in ops {
        session.stage(op)?;
    }
    session
        .commit()
        .map(|r| r.new_version.expect("evolution commits produce a version"))
}

/// Single-command lifecycles for the recovery suites: a process with an
/// AND block (so failing one branch withdraws a `Started` event that is
/// no longer the last one), data writes and an externally decided XOR,
/// and one step function that sends each command kind on its own.
pub mod command_mix {
    use super::{adhoc, evolve};
    use adept_core::{ChangeOp, MigrationOptions, NewActivity};
    use adept_engine::{EngineCommand, ProcessEngine};
    use adept_model::{
        EdgeKind, InstanceId, NodeId, ProcessSchema, SchemaBuilder, Value, ValueType,
    };
    use adept_state::{Decision, Execution, NodeState};

    /// The action count [`step`] distinguishes (`action % ACTIONS`).
    pub const ACTIONS: u8 = 14;

    /// `get order` (writes `amount`) → AND{`confirm` (writes `note`) ∥
    /// `compose` → `pack`} → XOR{`express` | `standard`}, decided by the
    /// caller → `deliver`.
    pub fn process() -> ProcessSchema {
        let mut b = SchemaBuilder::new("command mix");
        let amount = b.data("amount", ValueType::Int);
        let note = b.data("note", ValueType::Str);
        let get = b.activity("get order");
        b.write(get, amount);
        b.and_split();
        b.branch();
        let confirm = b.activity("confirm");
        b.read(confirm, amount);
        b.write(confirm, note);
        b.branch();
        b.activity("compose");
        b.activity("pack");
        b.and_join();
        b.xor_split();
        b.case();
        b.activity("express");
        b.case();
        b.activity("standard");
        b.xor_join();
        b.activity("deliver");
        b.build().expect("command mix process is well-formed")
    }

    /// The engine's view of one instance: enabled and running activities,
    /// pending XOR decisions, and the schema it runs on.
    struct View {
        schema: std::sync::Arc<ProcessSchema>,
        enabled: Vec<NodeId>,
        running: Vec<NodeId>,
        xor: Vec<(NodeId, Vec<NodeId>)>,
    }

    fn view(engine: &ProcessEngine, id: InstanceId) -> Option<View> {
        let (schema, blocks) = engine.materialized(id).ok()?;
        let ex = Execution::with_blocks_ref(&schema, &blocks);
        let (enabled, running) = engine.store.with_instance(id, |inst| {
            (
                ex.enabled(&inst.state),
                inst.state.marking.nodes_in(NodeState::Running).collect(),
            )
        })?;
        let xor = engine
            .pending_decisions(id)
            .ok()?
            .into_iter()
            .filter_map(|d| match d {
                Decision::Xor { split, targets } => Some((split, targets)),
                Decision::Loop { .. } => None,
            })
            .collect();
        Some(View {
            schema,
            enabled,
            running,
            xor,
        })
    }

    fn complete(schema: &ProcessSchema, id: InstanceId, node: NodeId, seed: u64) -> EngineCommand {
        let writes = schema
            .writes_of(node)
            .map(|w| {
                let value = match schema.data_element(w.data).map(|d| d.ty) {
                    Ok(ValueType::Int) => Value::Int((seed % 1000) as i64),
                    Ok(ValueType::Str) => Value::Str(format!("v{}", seed % 100)),
                    Ok(ValueType::Bool) => Value::Bool(seed.is_multiple_of(2)),
                    Ok(ValueType::Float) => Value::Float((seed % 100) as f64),
                    Err(_) => Value::Null,
                };
                (w.data, value)
            })
            .collect();
        EngineCommand::Complete {
            instance: id,
            node,
            writes,
        }
    }

    fn pick<T: Copy>(items: &[T], k: usize) -> Option<T> {
        (!items.is_empty()).then(|| items[k % items.len()])
    }

    /// Applies one lifecycle step chosen by `action`, to the instance
    /// `pick` selects. Commands the state does not allow fail on their
    /// own; either way the journal holds what happened. Steps, by
    /// `action % ACTIONS`:
    ///
    /// * 0, 1: create an instance;
    /// * 2, 3: `Start` an enabled activity;
    /// * 4, 5: `Complete` a running activity with its writes;
    /// * 6: `FailActivity` on a running activity;
    /// * 7: one batch that starts an activity and fails one that was
    ///   already running (an interior withdrawal inside a group);
    /// * 8: `DecideXor` on a pending XOR split;
    /// * 9: drive up to three activities;
    /// * 10: an ad-hoc change (insert a step between `compose` and `pack`);
    /// * 11: evolve the type (insert a step after `confirm`) and migrate
    ///   every instance;
    /// * 12: remove the instance;
    /// * 13: undo the instance's last ad-hoc change.
    pub fn step(
        engine: &ProcessEngine,
        name: &str,
        ids: &mut Vec<InstanceId>,
        action: u8,
        pick_at: usize,
        seed: u64,
    ) {
        let action = action % ACTIONS;
        if action < 2 {
            ids.push(engine.create_instance(name).expect("create"));
            return;
        }
        if action == 11 {
            let latest = engine.repo.latest_version(name).expect("deployed");
            let schema = engine.repo.deployed(name, latest).expect("version").schema;
            if schema.node_by_name("type step").is_some() {
                return;
            }
            let confirm = schema.node_by_name("confirm").expect("confirm").id;
            let succ = schema
                .out_edges_kind(confirm, EdgeKind::Control)
                .next()
                .expect("confirm has a successor")
                .to;
            let op = ChangeOp::SerialInsert {
                activity: NewActivity::named("type step"),
                pred: confirm,
                succ,
            };
            if evolve(engine, name, &[op]).is_ok() {
                let _ = engine.migrate_all(name, &MigrationOptions::default(), 1);
            }
            return;
        }
        let Some(id) = pick(ids, pick_at) else {
            return;
        };
        let Some(v) = view(engine, id) else {
            return;
        };
        let cmd = match action {
            2 | 3 => pick(&v.enabled, pick_at / 7)
                .map(|node| EngineCommand::Start { instance: id, node }),
            4 | 5 => pick(&v.running, pick_at / 7).map(|node| complete(&v.schema, id, node, seed)),
            6 => pick(&v.running, pick_at / 7).map(|node| EngineCommand::FailActivity {
                instance: id,
                node,
                reason: "injected".into(),
            }),
            7 => {
                let mut batch = Vec::new();
                if let Some(node) = pick(&v.enabled, pick_at / 7) {
                    batch.push(EngineCommand::Start { instance: id, node });
                }
                if let Some(node) = pick(&v.running, pick_at / 11) {
                    batch.push(EngineCommand::FailActivity {
                        instance: id,
                        node,
                        reason: "injected".into(),
                    });
                }
                let _ = engine.submit_batch(batch);
                None
            }
            8 => v
                .xor
                .first()
                .map(|(split, targets)| EngineCommand::DecideXor {
                    instance: id,
                    split: *split,
                    branch_target: targets[pick_at % targets.len()],
                }),
            9 => Some(EngineCommand::Drive {
                instance: id,
                max: Some(1 + (seed % 3) as usize),
            }),
            10 => {
                if v.schema.node_by_name("ad-hoc step").is_none() {
                    let compose = v.schema.node_by_name("compose").expect("compose").id;
                    let pack = v.schema.node_by_name("pack").expect("pack").id;
                    let op = ChangeOp::SerialInsert {
                        activity: NewActivity::named("ad-hoc step"),
                        pred: compose,
                        succ: pack,
                    };
                    let _ = adhoc(engine, id, &op);
                }
                None
            }
            12 => {
                ids.retain(|i| *i != id);
                let _ = engine.remove_instance(id);
                None
            }
            _ => {
                let _ = engine.undo_ad_hoc_change(id);
                None
            }
        };
        if let Some(cmd) = cmd {
            let _ = engine.submit(cmd);
        }
    }
}

/// The WAL layouts the recovery suites cover — one in-memory medium, one
/// file, four in-memory segments — behind one handle that reopens the
/// same mediums after a crash and exposes each segment's raw bytes for
/// cutting.
pub mod journals {
    use adept_storage::{FileBackend, MemoryBackend, StorageBackend, SyncPolicy};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A WAL layout.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Layout {
        /// One in-memory medium.
        Memory,
        /// One file (`SyncPolicy::Never`).
        File,
        /// Four in-memory segments.
        Segments4,
    }

    /// Every layout, in a fixed order.
    pub const LAYOUTS: [Layout; 3] = [Layout::Memory, Layout::File, Layout::Segments4];

    /// The mediums of one layout. A file journal deletes its file on drop.
    #[derive(Debug)]
    pub struct Journal {
        /// The layout.
        pub layout: Layout,
        mediums: Vec<MemoryBackend>,
        path: Option<PathBuf>,
    }

    impl Journal {
        /// Fresh, empty mediums; `tag` names the scratch file.
        pub fn new(layout: Layout, tag: &str) -> Self {
            static N: AtomicUsize = AtomicUsize::new(0);
            let (count, path) = match layout {
                Layout::Memory => (1, None),
                Layout::Segments4 => (4, None),
                Layout::File => {
                    let n = N.fetch_add(1, Ordering::Relaxed);
                    let name = format!("adept-journal-{}-{tag}-{n}.wal", std::process::id());
                    let path = std::env::temp_dir().join(name);
                    let _ = std::fs::remove_file(&path);
                    (0, Some(path))
                }
            };
            Journal {
                layout,
                mediums: (0..count).map(|_| MemoryBackend::new()).collect(),
                path,
            }
        }

        /// Backends over the mediums, for a fresh engine or a recovery.
        pub fn backends(&self) -> Vec<Box<dyn StorageBackend>> {
            match &self.path {
                Some(path) => vec![Box::new(FileBackend::with_policy(path, SyncPolicy::Never))],
                None => self
                    .mediums
                    .iter()
                    .map(|m| Box::new(m.clone()) as Box<dyn StorageBackend>)
                    .collect(),
            }
        }

        /// Number of segments.
        pub fn segments(&self) -> usize {
            self.mediums.len().max(1)
        }

        /// Segment `i`'s raw bytes.
        pub fn raw(&self, i: usize) -> Vec<u8> {
            match &self.path {
                Some(path) => std::fs::read(path).unwrap_or_default(),
                None => self.mediums[i].raw(),
            }
        }

        /// Replaces segment `i`'s raw bytes.
        pub fn set_raw(&self, i: usize, bytes: &[u8]) {
            match &self.path {
                Some(path) => std::fs::write(path, bytes).expect("write the journal file"),
                None => self.mediums[i].set_raw(bytes),
            }
        }
    }

    impl Drop for Journal {
        fn drop(&mut self) {
            if let Some(path) = &self.path {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}
