//! The unified command/event execution API.
//!
//! Every state transition of a running instance — creation, activity
//! starts/completions, XOR and loop decisions, automatic drives — is a
//! typed [`EngineCommand`] submitted through **one code path**
//! ([`ProcessEngine::submit`] / [`ProcessEngine::submit_batch`]). The
//! command path
//!
//! * resolves the instance's `(schema, blocks)` context **once** through a
//!   per-instance cache (shared with the worklist index),
//! * applies discrete transitions **in place under the store's write
//!   lock**, validated against the context's `(version, bias)` snapshot —
//!   the compare-and-set that closes the lost-update race of the old
//!   get → clone → update verbs (drives run on a cloned state outside the
//!   lock, since drivers are user code, and install via the same CAS),
//! * records a complete monitor event stream (decisions included), and
//! * maintains the incremental worklist index from the post-command
//!   enabled set.
//!
//! [`ProcessEngine::submit_batch`] groups commands per instance and applies
//! each group under a **single** store update with one context resolution
//! — the batching surface that makes heavy-traffic workloads cheap.

use crate::engine::{EngineError, ProcessEngine};
use crate::monitor::EngineEvent;
use crate::worklist::items_for;
use adept_core::{ChangeError, Delta};
use adept_model::{Blocks, CompiledSchema, DataId, InstanceId, NodeId, ProcessSchema, Value};
use adept_state::{
    enabled_diff, CompiledExecution, DefaultDriver, Driver, Execution, InstanceState, RunEvent,
    RuntimeError, StateDelta, StateMark,
};
use adept_storage::{StorageError, StoredInstance, WalRecord};
use std::fmt;
use std::sync::Arc;

/// A typed execution command, the single vocabulary every execution path
/// (interactive verbs, batch submission, simulation drivers) speaks.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineCommand {
    /// Create an instance on the newest version of a process type.
    CreateInstance {
        /// The process type to instantiate.
        type_name: String,
    },
    /// Start an activated activity.
    Start {
        /// The instance.
        instance: InstanceId,
        /// The activity node.
        node: NodeId,
    },
    /// Complete a running activity with its output writes.
    Complete {
        /// The instance.
        instance: InstanceId,
        /// The activity node.
        node: NodeId,
        /// Output values, one per declared write edge.
        writes: Vec<(DataId, Value)>,
    },
    /// Fail a running activity: the node drops back to `Activated` (its
    /// `Started` history record withdrawn) and an
    /// [`EngineEvent::ActivityFailed`] is emitted — the signal the
    /// adaptation loop classifies deviations from.
    FailActivity {
        /// The instance.
        instance: InstanceId,
        /// The running activity node.
        node: NodeId,
        /// Application-level failure reason.
        reason: String,
    },
    /// Resolve a pending XOR decision.
    DecideXor {
        /// The instance.
        instance: InstanceId,
        /// The split node awaiting the decision.
        split: NodeId,
        /// The chosen branch target.
        branch_target: NodeId,
    },
    /// Resolve a pending loop decision.
    DecideLoop {
        /// The instance.
        instance: InstanceId,
        /// The loop end node awaiting the decision.
        loop_end: NodeId,
        /// Whether the loop iterates again.
        iterate: bool,
    },
    /// Drive the instance forward automatically, completing at most `max`
    /// activities (`None` = until the instance finishes). [`ProcessEngine::submit`]
    /// drives with the [`DefaultDriver`]; use
    /// [`ProcessEngine::submit_with_driver`] for custom drivers.
    Drive {
        /// The instance.
        instance: InstanceId,
        /// Maximum number of activities to complete.
        max: Option<usize>,
    },
}

impl EngineCommand {
    /// The instance the command targets (`None` for
    /// [`EngineCommand::CreateInstance`], whose instance does not exist
    /// yet).
    pub fn instance(&self) -> Option<InstanceId> {
        match self {
            EngineCommand::CreateInstance { .. } => None,
            EngineCommand::Start { instance, .. }
            | EngineCommand::Complete { instance, .. }
            | EngineCommand::FailActivity { instance, .. }
            | EngineCommand::DecideXor { instance, .. }
            | EngineCommand::DecideLoop { instance, .. }
            | EngineCommand::Drive { instance, .. } => Some(*instance),
        }
    }
}

impl fmt::Display for EngineCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineCommand::CreateInstance { type_name } => write!(f, "create {type_name:?}"),
            EngineCommand::Start { instance, node } => write!(f, "{instance}: start {node}"),
            EngineCommand::Complete {
                instance,
                node,
                writes,
            } => write!(f, "{instance}: complete {node} ({} writes)", writes.len()),
            EngineCommand::FailActivity {
                instance,
                node,
                reason,
            } => write!(f, "{instance}: fail {node} ({reason})"),
            EngineCommand::DecideXor {
                instance,
                split,
                branch_target,
            } => write!(f, "{instance}: decide {split} -> {branch_target}"),
            EngineCommand::DecideLoop {
                instance,
                loop_end,
                iterate,
            } => write!(
                f,
                "{instance}: decide {loop_end} {}",
                if *iterate { "iterate" } else { "exit" }
            ),
            EngineCommand::Drive { instance, max } => match max {
                Some(n) => write!(f, "{instance}: drive (max {n})"),
                None => write!(f, "{instance}: drive to completion"),
            },
        }
    }
}

/// What a submitted command did: the emitted monitor events, the
/// enabled-set delta, and the instance's liveness.
#[derive(Debug, Clone, PartialEq)]
pub struct CommandOutcome {
    /// The affected instance (for [`EngineCommand::CreateInstance`], the
    /// newly created one).
    pub instance: InstanceId,
    /// The monitor events this command emitted, in order. They are also
    /// recorded in [`ProcessEngine::monitor`](crate::Monitor).
    pub events: Vec<EngineEvent>,
    /// Activities that became enabled through this command.
    pub newly_enabled: Vec<NodeId>,
    /// All activities enabled after this command, in node-id order.
    pub enabled: Vec<NodeId>,
    /// Number of activities this command completed (`1` for a
    /// [`EngineCommand::Complete`], the driven count for a
    /// [`EngineCommand::Drive`]).
    pub completed: usize,
    /// Whether the instance has reached its end node.
    pub finished: bool,
}

/// A cached per-instance execution context: the materialised schema, its
/// block structure, and the `(version, bias)` snapshot both were resolved
/// against. Commands and the worklist share these through
/// [`ProcessEngine::exec_context`]; a context is valid exactly as long as
/// the snapshot still matches the live instance (changes, migrations and
/// undos invalidate it).
#[derive(Debug)]
pub(crate) struct ExecCtx {
    /// The instance-specific schema (shared `Arc` for unbiased instances).
    pub schema: Arc<ProcessSchema>,
    /// Its block structure (shared `Arc`; never cloned per command).
    pub blocks: Arc<Blocks>,
    /// Schema version the context was resolved on.
    pub version: u32,
    /// Bias the context was resolved on.
    pub bias: Delta,
    /// Whether the activation fixpoint is total on this schema (no guarded
    /// XOR split without an else branch, no loop end without a usable
    /// continuation) — when it is, completions and decisions cannot fail
    /// after their up-front validation, so the command path skips the
    /// defensive state snapshot entirely.
    pub snapshot_free: bool,
    /// The shared compiled arena of the `(type, version)` this context
    /// resolved to — present exactly when the instance is unbiased. Biased
    /// instances materialise an overlaid schema the arena does not
    /// describe, so they stay `None` and every command takes the
    /// interpreted path.
    pub compiled: Option<Arc<CompiledSchema>>,
}

/// Whether [`Execution::propagate`] can fail at runtime on this schema: a
/// fully guarded XOR split (all guards may evaluate false → dead end) or a
/// loop end without a loop edge / continuation condition. Computed once
/// per context, amortised over every command it serves.
fn propagate_is_total(schema: &ProcessSchema) -> bool {
    use adept_model::{EdgeKind, NodeKind};
    for n in schema.nodes() {
        match n.kind {
            NodeKind::XorSplit => {
                let mut guards = 0usize;
                let mut has_else = false;
                for e in schema.out_edges_kind(n.id, EdgeKind::Control) {
                    match &e.guard {
                        Some(_) => guards += 1,
                        None => has_else = true,
                    }
                }
                if guards > 0 && !has_else {
                    return false;
                }
            }
            NodeKind::LoopEnd => {
                let usable = schema
                    .out_edges_kind(n.id, EdgeKind::Loop)
                    .next()
                    .is_some_and(|e| e.loop_cond.is_some());
                if !usable {
                    return false;
                }
            }
            _ => {}
        }
    }
    true
}

impl ExecCtx {
    /// A zero-copy interpreter over this context.
    pub fn execution(&self) -> Execution<'_> {
        Execution::with_blocks_ref(&self.schema, &self.blocks)
    }

    /// The execution path for this context: the compiled core when the
    /// arena is cached (unbiased instance), the interpreter otherwise.
    /// Both are zero-copy over the context.
    pub fn exec(&self) -> ExecRef<'_> {
        match &self.compiled {
            Some(arena) => ExecRef::Compiled(CompiledExecution::new(&self.schema, arena)),
            None => ExecRef::Interp(Execution::with_blocks_ref(&self.schema, &self.blocks)),
        }
    }

    /// Whether the context still describes the live instance.
    pub fn matches(&self, inst: &StoredInstance) -> bool {
        inst.version == self.version && inst.bias == self.bias
    }
}

/// The command path's execution dispatch: the same operation vocabulary
/// over either tier of the two-tier execution core. Observationally
/// identical by construction (the equivalence suite drives both tiers
/// through full lifecycles and asserts byte-identical states), so the
/// command layer treats the choice as an implementation detail.
#[derive(Debug)]
pub(crate) enum ExecRef<'a> {
    /// The `BTreeMap`-backed interpreter (biased instances, fallback).
    Interp(Execution<'a>),
    /// The flat arena core (unbiased instances on a committed version).
    Compiled(CompiledExecution<'a>),
}

impl<'a> ExecRef<'a> {
    /// The schema both tiers execute.
    pub fn schema(&self) -> &'a ProcessSchema {
        match self {
            ExecRef::Interp(e) => e.schema,
            ExecRef::Compiled(c) => c.schema,
        }
    }

    /// Whether this is the compiled tier (for the path counters).
    pub fn is_compiled(&self) -> bool {
        matches!(self, ExecRef::Compiled(_))
    }

    /// See [`Execution::init`].
    pub fn init(&self) -> Result<InstanceState, RuntimeError> {
        match self {
            ExecRef::Interp(e) => e.init(),
            ExecRef::Compiled(c) => c.init(),
        }
    }

    /// See [`Execution::enabled`].
    pub fn enabled(&self, st: &InstanceState) -> Vec<NodeId> {
        match self {
            ExecRef::Interp(e) => e.enabled(st),
            ExecRef::Compiled(c) => c.enabled(st),
        }
    }

    /// See [`Execution::is_finished`].
    pub fn is_finished(&self, st: &InstanceState) -> bool {
        match self {
            ExecRef::Interp(e) => e.is_finished(st),
            ExecRef::Compiled(c) => c.is_finished(st),
        }
    }

    /// See [`Execution::start_activity`].
    pub fn start_activity(&self, st: &mut InstanceState, n: NodeId) -> Result<(), RuntimeError> {
        match self {
            ExecRef::Interp(e) => e.start_activity(st, n),
            ExecRef::Compiled(c) => c.start_activity(st, n),
        }
    }

    /// See [`Execution::fail_activity`].
    pub fn fail_activity(&self, st: &mut InstanceState, n: NodeId) -> Result<(), RuntimeError> {
        match self {
            ExecRef::Interp(e) => e.fail_activity(st, n),
            ExecRef::Compiled(c) => c.fail_activity(st, n),
        }
    }

    /// See [`Execution::complete_activity`].
    pub fn complete_activity(
        &self,
        st: &mut InstanceState,
        n: NodeId,
        writes: Vec<(DataId, Value)>,
    ) -> Result<(), RuntimeError> {
        match self {
            ExecRef::Interp(e) => e.complete_activity(st, n, writes),
            ExecRef::Compiled(c) => c.complete_activity(st, n, writes),
        }
    }

    /// See [`Execution::decide_xor`].
    pub fn decide_xor(
        &self,
        st: &mut InstanceState,
        split: NodeId,
        branch_target: NodeId,
    ) -> Result<(), RuntimeError> {
        match self {
            ExecRef::Interp(e) => e.decide_xor(st, split, branch_target),
            ExecRef::Compiled(c) => c.decide_xor(st, split, branch_target),
        }
    }

    /// See [`Execution::decide_loop`].
    pub fn decide_loop(
        &self,
        st: &mut InstanceState,
        loop_end: NodeId,
        iterate: bool,
    ) -> Result<(), RuntimeError> {
        match self {
            ExecRef::Interp(e) => e.decide_loop(st, loop_end, iterate),
            ExecRef::Compiled(c) => c.decide_loop(st, loop_end, iterate),
        }
    }

    /// See [`Execution::run_observed`].
    pub fn run_observed(
        &self,
        st: &mut InstanceState,
        driver: &mut dyn Driver,
        max_activities: Option<usize>,
        observe: &mut dyn FnMut(RunEvent),
    ) -> Result<usize, RuntimeError> {
        match self {
            ExecRef::Interp(e) => e.run_observed(st, driver, max_activities, observe),
            ExecRef::Compiled(c) => c.run_observed(st, driver, max_activities, observe),
        }
    }
}

/// How a group application ended inside the store's write lock.
enum GroupApply {
    /// The context no longer matches the instance; rebuild and retry.
    Stale,
    /// The group mutated state but its delta could not be journaled; the
    /// mutation was rolled back and nothing is visible.
    Journal(StorageError),
    /// The group was applied; per-command results plus the post-group
    /// worklist snapshot (install epoch drawn under the lock).
    Applied {
        results: Vec<Result<CommandOutcome, EngineError>>,
        epoch: u64,
        items: Vec<crate::worklist::WorkItem>,
    },
}

/// Bounded retries against concurrent context invalidation. Each retry
/// re-resolves the context from the live instance, so starvation needs a
/// competing writer between every resolve and apply.
const MAX_GROUP_RETRIES: usize = 8;

impl ProcessEngine {
    /// Submits one command, driving [`EngineCommand::Drive`] with the
    /// [`DefaultDriver`]. Every state transition flows through this path:
    /// context resolution (cached), in-place application under the store
    /// lock, monitor events, worklist index maintenance.
    pub fn submit(&self, cmd: EngineCommand) -> Result<CommandOutcome, EngineError> {
        self.submit_with_driver(cmd, &mut DefaultDriver)
    }

    /// [`ProcessEngine::submit`] with a custom [`Driver`] resolving the
    /// decisions and output values of [`EngineCommand::Drive`].
    pub fn submit_with_driver(
        &self,
        cmd: EngineCommand,
        driver: &mut dyn Driver,
    ) -> Result<CommandOutcome, EngineError> {
        match cmd.instance() {
            None => {
                let EngineCommand::CreateInstance { type_name } = &cmd else {
                    unreachable!("only CreateInstance has no instance");
                };
                self.apply_create(type_name)
            }
            Some(id) => {
                let mut results = self.apply_group(id, std::slice::from_ref(&cmd), driver);
                results
                    .pop()
                    .expect("invariant: apply_group returns one result per command")
            }
        }
    }

    /// Submits a batch of commands, returning one result per command **in
    /// submission order**. Commands are grouped per instance (relative
    /// order within an instance preserved); each group resolves its
    /// instance context once and commits under a single atomic store
    /// update. A failed command yields its own `Err` without aborting the
    /// rest of its group — per instance, the observable semantics match
    /// submitting the commands one by one. Across instances the monitor
    /// may interleave differently than one-by-one submission would
    /// (creations execute first, then each instance's group in
    /// first-occurrence order); within one instance event order is always
    /// preserved.
    pub fn submit_batch(
        &self,
        cmds: Vec<EngineCommand>,
    ) -> Vec<Result<CommandOutcome, EngineError>> {
        self.submit_batch_with_driver(cmds, &mut DefaultDriver)
    }

    /// [`ProcessEngine::submit_batch`] with a custom [`Driver`] shared by
    /// every [`EngineCommand::Drive`] in the batch.
    pub fn submit_batch_with_driver(
        &self,
        cmds: Vec<EngineCommand>,
        driver: &mut dyn Driver,
    ) -> Vec<Result<CommandOutcome, EngineError>> {
        let mut results: Vec<Option<Result<CommandOutcome, EngineError>>> =
            (0..cmds.len()).map(|_| None).collect();
        // Group per instance, keeping each instance's command order and
        // the groups in first-occurrence order (the map only indexes into
        // the Vec, so grouping stays O(n log n) for huge mixed batches).
        let mut groups: Vec<(InstanceId, Vec<(usize, EngineCommand)>)> = Vec::new();
        let mut group_of: std::collections::BTreeMap<InstanceId, usize> =
            std::collections::BTreeMap::new();
        for (idx, cmd) in cmds.into_iter().enumerate() {
            match cmd.instance() {
                None => {
                    let EngineCommand::CreateInstance { type_name } = &cmd else {
                        unreachable!("only CreateInstance has no instance");
                    };
                    results[idx] = Some(self.apply_create(type_name));
                }
                Some(id) => match group_of.get(&id) {
                    Some(&g) => groups[g].1.push((idx, cmd)),
                    None => {
                        group_of.insert(id, groups.len());
                        groups.push((id, vec![(idx, cmd)]));
                    }
                },
            }
        }
        for (id, group) in groups {
            let batch: Vec<EngineCommand> = group.iter().map(|(_, c)| c.clone()).collect();
            let outs = self.apply_group(id, &batch, driver);
            for ((idx, _), out) in group.into_iter().zip(outs) {
                results[idx] = Some(out);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("invariant: every submitted command was routed to exactly one group"))
            .collect()
    }

    /// Creates an instance on the newest version of a type and seeds its
    /// worklist index entry.
    fn apply_create(&self, type_name: &str) -> Result<CommandOutcome, EngineError> {
        let version = self
            .repo
            .latest_version(type_name)
            .ok_or_else(|| EngineError::NotFound(format!("process type {type_name:?}")))?;
        let dep = self
            .repo
            .deployed(type_name, version)
            .ok_or_else(|| EngineError::NotFound(format!("version {version}")))?;
        // A fresh instance is unbiased: it runs on the version's arena.
        let arena = self.repo.compiled(type_name, version);
        let ex = match &arena {
            Some(a) => ExecRef::Compiled(CompiledExecution::new(&dep.schema, a)),
            None => ExecRef::Interp(dep.execution()),
        };
        self.note_path(ex.is_compiled());
        let st = ex.init()?;
        let enabled = ex.enabled(&st);
        let finished = ex.is_finished(&st);
        // The id is allocated first and journaled under the shard lock
        // BEFORE the instance becomes visible (write-ahead); a crash
        // between journal and insert replays as a fresh, untouched
        // instance — indistinguishable from a crash just after the insert.
        let id = self.store.allocate_id();
        let items = items_for(&dep.schema, &enabled, id, type_name, version);
        // The epoch is drawn BEFORE the instance becomes visible (and
        // only once it is journaled, so a failed journal leaves no
        // pending install): any concurrent command on the new id
        // necessarily runs after the insert and therefore draws a larger
        // epoch — its fresher install beats this initial one, never the
        // reverse.
        let mut epoch = 0;
        self.store.insert_new(id, type_name, version, st, |inst| {
            let seq = self.journal(|| WalRecord::Created {
                id,
                type_name: inst.type_name.clone(),
                version,
                state: inst.state.clone(),
            })?;
            epoch = self.wl_index.begin_install(id);
            Ok::<_, StorageError>(seq)
        })?;
        self.wl_index.finish_install(id, epoch, items);
        let events = vec![EngineEvent::InstanceCreated {
            instance: id,
            version,
        }];
        self.monitor.record_all(events.iter().cloned());
        Ok(CommandOutcome {
            instance: id,
            newly_enabled: enabled.clone(),
            enabled,
            completed: 0,
            finished,
            events,
        })
    }

    /// Applies a group of commands for one instance, in order. Discrete
    /// transitions (start/complete/decide) run in contiguous segments
    /// under a single store write lock; each [`EngineCommand::Drive`]
    /// runs **outside** the lock on a cloned state — its driver is
    /// arbitrary user code (calling back into the engine must not
    /// deadlock, and a long run must not stall every other instance) —
    /// and installs with a compare-and-set on the pre-drive state.
    pub(crate) fn apply_group(
        &self,
        id: InstanceId,
        cmds: &[EngineCommand],
        driver: &mut dyn Driver,
    ) -> Vec<Result<CommandOutcome, EngineError>> {
        let mut results = Vec::with_capacity(cmds.len());
        let mut i = 0;
        while i < cmds.len() {
            if matches!(cmds[i], EngineCommand::Drive { .. }) {
                results.push(self.apply_drive(id, &cmds[i], driver));
                i += 1;
            } else {
                let end = cmds[i..]
                    .iter()
                    .position(|c| matches!(c, EngineCommand::Drive { .. }))
                    .map(|p| i + p)
                    .unwrap_or(cmds.len());
                results.extend(self.apply_ops(id, &cmds[i..end]));
                i = end;
            }
        }
        results
    }

    /// Applies a segment of discrete commands: one context resolution,
    /// one store write lock, one worklist index install, one monitor
    /// append — however many commands the segment carries.
    fn apply_ops(
        &self,
        id: InstanceId,
        cmds: &[EngineCommand],
    ) -> Vec<Result<CommandOutcome, EngineError>> {
        for _ in 0..MAX_GROUP_RETRIES {
            let ctx = match self.exec_context(id) {
                Ok(ctx) => ctx,
                Err(e) => return cmds.iter().map(|_| Err(e.clone())).collect(),
            };
            let wal = self.txn_log.wal();
            let applied = self.store.update(id, |inst| {
                if !ctx.matches(inst) {
                    return (GroupApply::Stale, 0);
                }
                let ex = ctx.exec();
                self.note_path(ex.is_compiled());
                let mut was_finished = ex.is_finished(&inst.state);
                // A durable engine marks the pre-group state: its marking
                // and the history and write-log lengths, never the history
                // itself. The mark becomes the group's journaled delta, and
                // rolls the group back should the append fail, so an
                // unjournaled mutation never becomes visible.
                let mut mark = wal.enabled().then(|| StateMark::of(&inst.state));
                // The post-command enabled set of command k is the
                // pre-command set of k+1 — scanned once, not twice.
                let mut carry_enabled = None;
                let results: Vec<Result<CommandOutcome, EngineError>> = cmds
                    .iter()
                    .map(|cmd| {
                        if let (Some(mark), EngineCommand::FailActivity { node, .. }) =
                            (mark.as_mut(), cmd)
                        {
                            mark.before_fail(&inst.state, *node);
                        }
                        apply_cmd(
                            &ex,
                            inst,
                            cmd,
                            &mut was_finished,
                            ctx.snapshot_free,
                            &mut carry_enabled,
                        )
                    })
                    .collect();
                // One delta per mutating group, appended while the shard
                // lock is held so WAL order equals visibility order.
                let mut seq = 0;
                if let Some(mark) = mark {
                    if results.iter().any(|r| r.is_ok()) {
                        let delta = mark.delta(&inst.state);
                        match wal.append(WalRecord::CommandApplied { id, delta }) {
                            Ok(s) => seq = s,
                            Err(e) => {
                                mark.restore(&mut inst.state);
                                return (GroupApply::Journal(e), 0);
                            }
                        }
                    }
                }
                // The install epoch is drawn while the store lock is held,
                // so index installs order exactly like store commits. It
                // is registered pending (store shard → index shard, the
                // documented order) so delta cursors wait for the install
                // below rather than skip past it.
                // The last command's carried enabled set IS the post-group
                // set — no extra marking scan for the worklist install.
                let enabled = carry_enabled.unwrap_or_else(|| ex.enabled(&inst.state));
                let applied = GroupApply::Applied {
                    results,
                    epoch: self.wl_index.begin_install(id),
                    items: items_for(ex.schema(), &enabled, id, &inst.type_name, inst.version),
                };
                (applied, seq)
            });
            match applied {
                None => {
                    let e = EngineError::NotFound(format!("{id}"));
                    return cmds.iter().map(|_| Err(e.clone())).collect();
                }
                Some(GroupApply::Stale) => {
                    self.invalidate_instance(id);
                    continue;
                }
                Some(GroupApply::Journal(e)) => {
                    let e = EngineError::Storage(e);
                    return cmds.iter().map(|_| Err(e.clone())).collect();
                }
                Some(GroupApply::Applied {
                    results,
                    epoch,
                    items,
                }) => {
                    self.wl_index.finish_install(id, epoch, items);
                    self.monitor.record_all(
                        results
                            .iter()
                            .filter_map(|r| r.as_ref().ok())
                            .flat_map(|o| o.events.iter().cloned()),
                    );
                    return results;
                }
            }
        }
        let e = EngineError::Change(ChangeError::Precondition(format!(
            "concurrent modification: context of {id} kept changing during submission"
        )));
        cmds.iter().map(|_| Err(e.clone())).collect()
    }

    /// Drives an instance with user driver code **outside every engine
    /// lock**: the run works on a cloned state and commits with a
    /// compare-and-set against the pre-drive snapshot, so a concurrent
    /// command neither deadlocks nor gets clobbered (a lost CAS retries
    /// the drive from the fresh state). A driver error leaves the store
    /// untouched.
    fn apply_drive(
        &self,
        id: InstanceId,
        cmd: &EngineCommand,
        driver: &mut dyn Driver,
    ) -> Result<CommandOutcome, EngineError> {
        let EngineCommand::Drive { max, .. } = cmd else {
            unreachable!("apply_drive only receives Drive commands");
        };
        for _ in 0..MAX_GROUP_RETRIES {
            let ctx = self.exec_context(id)?;
            let pre = self
                .store
                .with_instance(id, |inst| ctx.matches(inst).then(|| inst.state.clone()))
                .ok_or_else(|| EngineError::NotFound(format!("{id}")))?;
            let Some(pre) = pre else {
                self.invalidate_instance(id);
                continue;
            };
            let ex = ctx.exec();
            self.note_path(ex.is_compiled());
            let was_finished = ex.is_finished(&pre);
            let before = ex.enabled(&pre);
            let mut st = pre.clone();
            let mut events = Vec::new();
            let completed = ex.run_observed(&mut st, driver, *max, &mut |ev| {
                events.push(match ev {
                    RunEvent::Started(n) => EngineEvent::ActivityStarted {
                        instance: id,
                        node: n,
                    },
                    RunEvent::Completed(n) => EngineEvent::ActivityCompleted {
                        instance: id,
                        node: n,
                    },
                    RunEvent::XorDecided { split, target } => EngineEvent::DecisionMade {
                        instance: id,
                        node: split,
                        choice: format!("branch {target}"),
                    },
                    RunEvent::LoopDecided { loop_end, iterate } => EngineEvent::DecisionMade {
                        instance: id,
                        node: loop_end,
                        choice: if iterate { "iterate" } else { "exit" }.to_string(),
                    },
                });
            })?;
            let after = ex.enabled(&st);
            let finished = ex.is_finished(&st);
            if finished && !was_finished {
                events.push(EngineEvent::InstanceFinished { instance: id });
            }
            let wal = self.txn_log.wal();
            // The drive's delta is built outside the lock, from the
            // pre-drive state it already cloned.
            let delta = (wal.enabled() && st != pre).then(|| StateDelta::since(&pre, &st));
            let installed = self.store.update(id, |inst| {
                if !ctx.matches(inst) || inst.state != pre {
                    return (None, 0);
                }
                // Write-ahead: the drive's delta is journaled before the
                // driven state replaces the visible one, so a journal
                // failure leaves the instance exactly at `pre` — no
                // rollback.
                let mut seq = 0;
                if let Some(delta) = delta {
                    match wal.append(WalRecord::CommandApplied { id, delta }) {
                        Ok(s) => seq = s,
                        Err(e) => return (Some(Err(e)), 0),
                    }
                }
                inst.state = st;
                let install = (
                    self.wl_index.begin_install(id),
                    items_for(ex.schema(), &after, id, &inst.type_name, inst.version),
                );
                (Some(Ok(install)), seq)
            });
            match installed {
                None => return Err(EngineError::NotFound(format!("{id}"))),
                Some(None) => continue, // lost the CAS; re-drive from fresh state
                Some(Some(Err(e))) => return Err(EngineError::Storage(e)),
                Some(Some(Ok((epoch, items)))) => {
                    self.wl_index.finish_install(id, epoch, items);
                    self.monitor.record_all(events.iter().cloned());
                    return Ok(CommandOutcome {
                        instance: id,
                        newly_enabled: enabled_diff(&before, &after),
                        enabled: after,
                        completed,
                        finished,
                        events,
                    });
                }
            }
        }
        Err(EngineError::Change(ChangeError::Precondition(format!(
            "concurrent modification: {id} kept changing during the drive"
        ))))
    }

    /// Resolves (or returns the cached) execution context of an instance.
    pub(crate) fn exec_context(&self, id: InstanceId) -> Result<Arc<ExecCtx>, EngineError> {
        if let Some(ctx) = self.ctx_cache.get_cloned(id) {
            let live = self
                .store
                .with_instance(id, |inst| ctx.matches(inst))
                .ok_or_else(|| EngineError::NotFound(format!("{id}")))?;
            if live {
                return Ok(ctx);
            }
        }
        self.rebuild_context(id)
    }

    /// Builds a fresh context from the live instance and caches it.
    fn rebuild_context(&self, id: InstanceId) -> Result<Arc<ExecCtx>, EngineError> {
        let (type_name, version, bias) = self
            .store
            .with_instance(id, |inst| {
                (inst.type_name.clone(), inst.version, inst.bias.clone())
            })
            .ok_or_else(|| EngineError::NotFound(format!("{id}")))?;
        let schema = self
            .store
            .schema_of(&self.repo, id)
            .ok_or_else(|| EngineError::NotFound(format!("schema of {id}")))?;
        let blocks = if bias.is_empty() {
            match self.repo.deployed(&type_name, version) {
                Some(dep) => dep.blocks,
                None => {
                    return Err(EngineError::NotFound(format!(
                        "deployed version {version} of {type_name:?}"
                    )))
                }
            }
        } else {
            Arc::new(
                Blocks::analyze(&schema)
                    .map_err(|e| EngineError::Change(ChangeError::Precondition(e.to_string())))?,
            )
        };
        // The compiled arena only describes committed versions: biased
        // instances leave it out and every command falls back to the
        // interpreter.
        let compiled = if bias.is_empty() {
            self.repo.compiled(&type_name, version)
        } else {
            None
        };
        let ctx = Arc::new(ExecCtx {
            snapshot_free: propagate_is_total(&schema),
            schema,
            blocks,
            version,
            bias,
            compiled,
        });
        self.ctx_cache.insert(id, ctx.clone());
        // Closes the remove race: if `remove_instance` cleared the cache
        // between our store read and this insert, the entry would be
        // unreachable garbage forever (the id never reappears in
        // `store.ids()`, so nothing would evict it). Removal deletes the
        // store entry *before* clearing the cache, so re-checking the
        // store after inserting catches every interleaving.
        if self.store.with_instance(id, |_| ()).is_none() {
            self.ctx_cache.remove(id);
            return Err(EngineError::NotFound(format!("{id}")));
        }
        Ok(ctx)
    }

    /// Drops the cached context and worklist entry of an instance — the
    /// invalidation hook change-transaction commits, migrations and undos
    /// call after rebasing an instance onto a different schema.
    pub(crate) fn invalidate_instance(&self, id: InstanceId) {
        self.ctx_cache.remove(id);
        self.wl_index.invalidate(id);
    }

    /// The change-transaction commit → worklist hook: every commit drops
    /// the instance's cached context; a commit whose
    /// [`touched nodes`](adept_core::CommittedTxn::touched_nodes) include
    /// control structure additionally refreshes the worklist entry
    /// eagerly, so change-heavy workloads keep the index hot instead of
    /// paying the recompute on the next worklist read.
    pub(crate) fn note_committed_change(
        &self,
        id: InstanceId,
        committed: &adept_core::CommittedTxn,
    ) {
        self.invalidate_instance(id);
        if !committed.touched_nodes().is_empty() {
            let _ = self.compute_items(id);
        }
    }
}

/// Applies one command to an instance's state in place. On error the state
/// is left exactly as before the command, matching the discard-on-error
/// semantics of the old verbs: commands that can only fail *before*
/// mutating validate up front, and the remaining post-mutation failure
/// modes (a non-total activation fixpoint, a mid-run driver error) restore
/// a snapshot — which `snapshot_free` contexts skip entirely.
///
/// `carry_enabled` threads the post-command enabled set to the next
/// command of the same group, halving the marking scans of a batch.
fn apply_cmd(
    ex: &ExecRef<'_>,
    inst: &mut StoredInstance,
    cmd: &EngineCommand,
    was_finished: &mut bool,
    snapshot_free: bool,
    carry_enabled: &mut Option<Vec<NodeId>>,
) -> Result<CommandOutcome, EngineError> {
    let id = inst.id;
    let before = carry_enabled
        .take()
        .unwrap_or_else(|| ex.enabled(&inst.state));
    let mut events = Vec::new();
    let mut completed = 0usize;
    let fail = |e: EngineError,
                inst: &mut StoredInstance,
                snapshot: Option<adept_state::InstanceState>,
                carry: &mut Option<Vec<NodeId>>,
                before: Vec<NodeId>| {
        if let Some(s) = snapshot {
            inst.state = s;
        }
        // The state is unchanged, so the next command's "before" is too.
        *carry = Some(before);
        Err(e)
    };
    match cmd {
        EngineCommand::CreateInstance { .. } => {
            unreachable!("creates are resolved before grouping")
        }
        EngineCommand::Start { node, .. } => {
            // start_activity validates before mutating; never snapshots.
            if let Err(e) = ex.start_activity(&mut inst.state, *node) {
                return fail(e.into(), inst, None, carry_enabled, before);
            }
            events.push(EngineEvent::ActivityStarted {
                instance: id,
                node: *node,
            });
        }
        EngineCommand::Complete { node, writes, .. } => {
            let snapshot = (!snapshot_free).then(|| inst.state.clone());
            if let Err(e) = ex.complete_activity(&mut inst.state, *node, writes.clone()) {
                return fail(e.into(), inst, snapshot, carry_enabled, before);
            }
            events.push(EngineEvent::ActivityCompleted {
                instance: id,
                node: *node,
            });
            completed = 1;
        }
        EngineCommand::FailActivity { node, reason, .. } => {
            // fail_activity validates before mutating; never snapshots.
            if let Err(e) = ex.fail_activity(&mut inst.state, *node) {
                return fail(e.into(), inst, None, carry_enabled, before);
            }
            events.push(EngineEvent::ActivityFailed {
                instance: id,
                node: *node,
                reason: reason.clone(),
            });
        }
        EngineCommand::DecideXor {
            split,
            branch_target,
            ..
        } => {
            let snapshot = (!snapshot_free).then(|| inst.state.clone());
            if let Err(e) = ex.decide_xor(&mut inst.state, *split, *branch_target) {
                return fail(e.into(), inst, snapshot, carry_enabled, before);
            }
            events.push(EngineEvent::DecisionMade {
                instance: id,
                node: *split,
                choice: format!("branch {branch_target}"),
            });
        }
        EngineCommand::DecideLoop {
            loop_end, iterate, ..
        } => {
            let snapshot = (!snapshot_free).then(|| inst.state.clone());
            if let Err(e) = ex.decide_loop(&mut inst.state, *loop_end, *iterate) {
                return fail(e.into(), inst, snapshot, carry_enabled, before);
            }
            events.push(EngineEvent::DecisionMade {
                instance: id,
                node: *loop_end,
                choice: if *iterate { "iterate" } else { "exit" }.to_string(),
            });
        }
        EngineCommand::Drive { .. } => {
            unreachable!("drives run outside the store lock (apply_drive)")
        }
    }
    let after = ex.enabled(&inst.state);
    let finished = ex.is_finished(&inst.state);
    if finished && !*was_finished {
        events.push(EngineEvent::InstanceFinished { instance: id });
        *was_finished = true;
    }
    *carry_enabled = Some(after.clone());
    Ok(CommandOutcome {
        instance: id,
        newly_enabled: enabled_diff(&before, &after),
        enabled: after,
        completed,
        finished,
        events,
    })
}
