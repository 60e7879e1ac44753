//! The monitoring component: engine event log and instance visualisation.
//!
//! The paper's demo (Sec. 3): *"the effects of ad-hoc instance
//! modifications can be visualized by a special monitoring component. The
//! same applies for process type changes."* This module records every
//! engine-level event with a logical timestamp and renders instances as
//! annotated DOT graphs / textual state summaries.

use adept_core::{ChangeError, ConflictKind};
use adept_model::{render, InstanceId, NodeId, ProcessSchema};
use adept_state::{InstanceState, NodeState};
use adept_storage::Shards;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A typed classification of why a failure-path event fired, carried by
/// the rejection/failure events so consumers (the adaptation loop above
/// all) can classify deviations without parsing a message string or
/// re-reading instance history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// A state precondition failed (paper: state-related conflict).
    State,
    /// The change or lookup was structurally impossible.
    Structural,
    /// A semantic (data-flow) conflict.
    Semantic,
    /// The target instance vanished under a concurrent removal.
    Vanished,
    /// Post-change verification of the resulting schema failed.
    Verification,
    /// A concurrent change won the race (stale base version / bias).
    ConcurrentChange,
    /// The target could not be resolved at all.
    Unresolvable,
    /// An activity's execution itself failed.
    ActivityError,
    /// An internal invariant broke (storage, journaling).
    Internal,
    /// Unclassified.
    Other,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FailureKind::State => "state",
            FailureKind::Structural => "structural",
            FailureKind::Semantic => "semantic",
            FailureKind::Vanished => "vanished",
            FailureKind::Verification => "verification",
            FailureKind::ConcurrentChange => "concurrent-change",
            FailureKind::Unresolvable => "unresolvable",
            FailureKind::ActivityError => "activity-error",
            FailureKind::Internal => "internal",
            FailureKind::Other => "other",
        };
        f.write_str(s)
    }
}

impl From<&ConflictKind> for FailureKind {
    fn from(k: &ConflictKind) -> Self {
        match k {
            ConflictKind::State => FailureKind::State,
            ConflictKind::Structural => FailureKind::Structural,
            ConflictKind::Semantic => FailureKind::Semantic,
            ConflictKind::Vanished => FailureKind::Vanished,
            ConflictKind::Internal => FailureKind::Internal,
        }
    }
}

impl FailureKind {
    /// Classifies a change-layer error.
    pub fn of_change(e: &ChangeError) -> Self {
        match e {
            ChangeError::StatePrecondition { .. } | ChangeError::Runtime(_) => FailureKind::State,
            ChangeError::PostconditionViolated(_) => FailureKind::Verification,
            ChangeError::Precondition(msg) => {
                if msg.contains("concurrent") || msg.contains("base version") {
                    FailureKind::ConcurrentChange
                } else {
                    FailureKind::Structural
                }
            }
            ChangeError::Model(_) | ChangeError::UnknownNode(_) | ChangeError::UnknownData(_) => {
                FailureKind::Structural
            }
        }
    }
}

/// An engine-level event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EngineEvent {
    /// A process type was deployed.
    Deployed {
        /// Type name.
        type_name: String,
    },
    /// An instance was created.
    InstanceCreated {
        /// The new instance.
        instance: InstanceId,
        /// Version it was created on.
        version: u32,
    },
    /// An activity was started.
    ActivityStarted {
        /// The instance.
        instance: InstanceId,
        /// The activity node.
        node: NodeId,
    },
    /// An activity completed.
    ActivityCompleted {
        /// The instance.
        instance: InstanceId,
        /// The activity node.
        node: NodeId,
    },
    /// An XOR or loop decision was resolved (by an actor or a driver).
    DecisionMade {
        /// The instance.
        instance: InstanceId,
        /// The deciding node (XOR split or loop end).
        node: NodeId,
        /// The chosen outcome (`"branch N7"`, `"iterate"`, `"exit"`).
        choice: String,
    },
    /// The worklist could not resolve an instance's store entry or schema
    /// context — a corruption signal that would otherwise stay silent.
    WorklistResolutionFailed {
        /// The unresolvable instance.
        instance: InstanceId,
        /// Typed failure classification.
        kind: FailureKind,
        /// Why resolution failed.
        reason: String,
    },
    /// An ad-hoc change was applied to an instance.
    AdHocChanged {
        /// The instance.
        instance: InstanceId,
        /// Rendered change operation.
        op: String,
    },
    /// An ad-hoc change was rejected.
    AdHocRejected {
        /// The instance.
        instance: InstanceId,
        /// Rendered change operation.
        op: String,
        /// The node the rejection anchors to, when one is known (the
        /// conflicting or unknown node).
        node: Option<NodeId>,
        /// Typed failure classification.
        kind: FailureKind,
        /// Why it was rejected.
        reason: String,
    },
    /// A process type evolved to a new version.
    TypeEvolved {
        /// Type name.
        type_name: String,
        /// The new version.
        version: u32,
    },
    /// A type-evolution commit was rejected (verification failure or a
    /// lost base-version race).
    EvolutionRejected {
        /// Type name.
        type_name: String,
        /// Typed failure classification.
        kind: FailureKind,
        /// Why the commit failed.
        reason: String,
    },
    /// An instance migrated to a new version.
    Migrated {
        /// The instance.
        instance: InstanceId,
        /// Target version.
        to_version: u32,
    },
    /// An instance could not migrate and stays on its version.
    MigrationRejected {
        /// The instance.
        instance: InstanceId,
        /// The conflicting node, when the compliance check names one.
        node: Option<NodeId>,
        /// Typed failure classification.
        kind: FailureKind,
        /// Why it stays.
        reason: String,
    },
    /// An instance reached its end node.
    InstanceFinished {
        /// The instance.
        instance: InstanceId,
    },
    /// An instance was removed from the store (cancelled or archived). A
    /// migration that loses its instance to a concurrent removal reports
    /// it as vanished, not as a conflict.
    InstanceRemoved {
        /// The removed instance.
        instance: InstanceId,
    },
    /// A change transaction committed atomically.
    TxnCommitted {
        /// Rendered target (instance id or new type version).
        target: String,
        /// Number of operations the transaction carried.
        ops: usize,
        /// Sequence number in the persisted transaction log.
        seq: u64,
    },
    /// A change session was abandoned without committing.
    TxnAborted {
        /// Rendered target.
        target: String,
        /// Number of operations that were staged when aborted.
        staged: usize,
    },
    /// The engine was rebuilt from snapshot + write-ahead-log replay.
    Recovered {
        /// WAL entries replayed on top of the snapshot.
        replayed: usize,
        /// Entries skipped as already covered by the snapshot.
        skipped: usize,
        /// Bytes of a torn final record dropped by the crash repair.
        torn_tail_bytes: usize,
    },
    /// A checkpoint persisted a snapshot and truncated the WAL.
    CheckpointTaken {
        /// The WAL watermark the snapshot covers.
        wal_seq: u64,
    },
    /// A running activity failed and dropped back to `Activated`.
    ActivityFailed {
        /// The instance.
        instance: InstanceId,
        /// The activity node that failed.
        node: NodeId,
        /// Why it failed (application-level reason).
        reason: String,
    },
    /// The adaptation loop classified a deviation on an instance.
    DeviationDetected {
        /// The deviating instance.
        instance: InstanceId,
        /// The node the deviation anchors to, when one is known.
        node: Option<NodeId>,
        /// Rendered deviation key (e.g. `"fail:N5#2"`).
        kind: String,
    },
    /// The adaptation loop committed a recovery change that passed
    /// preview compliance.
    AdaptationCommitted {
        /// The repaired instance.
        instance: InstanceId,
        /// Rendered recovery plan.
        plan: String,
        /// The deviation key this plan recovered from.
        deviation: String,
        /// Transaction-log sequence of the committed change (0 for
        /// command-level repairs that commit no change transaction).
        seq: u64,
    },
    /// The adaptation loop rejected (or gave up on) a recovery plan.
    AdaptationRejected {
        /// The instance.
        instance: InstanceId,
        /// Rendered recovery plan (or `"-"` when no plan was found).
        plan: String,
        /// The deviation key the plan targeted.
        deviation: String,
        /// Why the plan was rejected.
        reason: String,
    },
}

impl fmt::Display for EngineEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineEvent::Deployed { type_name } => write!(f, "deployed \"{type_name}\""),
            EngineEvent::InstanceCreated { instance, version } => {
                write!(f, "{instance} created on V{version}")
            }
            EngineEvent::ActivityStarted { instance, node } => {
                write!(f, "{instance}: started {node}")
            }
            EngineEvent::ActivityCompleted { instance, node } => {
                write!(f, "{instance}: completed {node}")
            }
            EngineEvent::DecisionMade {
                instance,
                node,
                choice,
            } => write!(f, "{instance}: decided {node} ({choice})"),
            EngineEvent::WorklistResolutionFailed {
                instance,
                kind,
                reason,
            } => {
                write!(f, "{instance}: worklist cannot resolve ({kind}): {reason}")
            }
            EngineEvent::AdHocChanged { instance, op } => {
                write!(f, "{instance}: ad-hoc change {op}")
            }
            EngineEvent::AdHocRejected {
                instance,
                op,
                node,
                kind,
                reason,
            } => {
                write!(f, "{instance}: ad-hoc change {op} rejected ({kind}")?;
                if let Some(n) = node {
                    write!(f, " at {n}")?;
                }
                write!(f, "): {reason}")
            }
            EngineEvent::TypeEvolved { type_name, version } => {
                write!(f, "\"{type_name}\" evolved to V{version}")
            }
            EngineEvent::EvolutionRejected {
                type_name,
                kind,
                reason,
            } => {
                write!(f, "\"{type_name}\" evolution rejected ({kind}): {reason}")
            }
            EngineEvent::Migrated {
                instance,
                to_version,
            } => write!(f, "{instance} migrated to V{to_version}"),
            EngineEvent::MigrationRejected {
                instance,
                node,
                kind,
                reason,
            } => {
                write!(f, "{instance} stays ({kind}")?;
                if let Some(n) = node {
                    write!(f, " at {n}")?;
                }
                write!(f, "): {reason}")
            }
            EngineEvent::InstanceFinished { instance } => write!(f, "{instance} finished"),
            EngineEvent::InstanceRemoved { instance } => write!(f, "{instance} removed"),
            EngineEvent::TxnCommitted { target, ops, seq } => {
                write!(f, "txn #{seq} committed on {target} ({ops} ops)")
            }
            EngineEvent::TxnAborted { target, staged } => {
                write!(f, "txn on {target} aborted ({staged} ops staged)")
            }
            EngineEvent::Recovered {
                replayed,
                skipped,
                torn_tail_bytes,
            } => write!(
                f,
                "recovered: {replayed} wal record(s) replayed, {skipped} skipped, \
                 {torn_tail_bytes} torn byte(s) dropped"
            ),
            EngineEvent::CheckpointTaken { wal_seq } => {
                write!(f, "checkpoint at wal #{wal_seq}")
            }
            EngineEvent::ActivityFailed {
                instance,
                node,
                reason,
            } => write!(f, "{instance}: {node} failed: {reason}"),
            EngineEvent::DeviationDetected {
                instance,
                node,
                kind,
            } => {
                write!(f, "{instance}: deviation {kind}")?;
                if let Some(n) = node {
                    write!(f, " at {n}")?;
                }
                Ok(())
            }
            EngineEvent::AdaptationCommitted {
                instance,
                plan,
                deviation,
                seq,
            } => write!(
                f,
                "{instance}: adaptation {plan} committed for {deviation} (txn #{seq})"
            ),
            EngineEvent::AdaptationRejected {
                instance,
                plan,
                deviation,
                reason,
            } => write!(
                f,
                "{instance}: adaptation {plan} rejected for {deviation}: {reason}"
            ),
        }
    }
}

/// How many events the monitor retains by default before evicting the
/// oldest (see [`Monitor::set_retention`]).
pub const DEFAULT_EVENT_RETENTION: usize = 65_536;

/// Shard count of the monitor's segmented event log.
const EVENT_SHARDS: usize = 16;

/// A batch of events returned by [`Monitor::events_since`].
#[derive(Debug, Clone, PartialEq)]
pub struct EventBatch {
    /// The events, in logical-time order, starting at the requested
    /// cursor. Contiguous — no sequence gaps.
    pub events: Vec<(u64, EngineEvent)>,
    /// The cursor to pass to the next `events_since` call (one past the
    /// last returned sequence; equal to the request if nothing was
    /// returned).
    pub next: u64,
}

/// A cursor fell behind the retention window: events it had not yet
/// observed were evicted, so the stream has an unrecoverable gap. The
/// consumer must resynchronise (e.g. re-read full state and
/// [`EventCursor::resync`]) rather than silently skip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventLag {
    /// The oldest sequence still guaranteed retained — resync at or
    /// after this point.
    pub oldest: u64,
}

impl fmt::Display for EventLag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "event cursor lagged behind retention (oldest retained seq {})",
            self.oldest
        )
    }
}

impl std::error::Error for EventLag {}

/// A consumer-side position in the monitor's event stream. Obtain one
/// with [`Monitor::subscribe`] (tail — new events only) or
/// [`Monitor::subscribe_from`] (historical replay), then drain with
/// [`EventCursor::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventCursor {
    next: u64,
}

impl EventCursor {
    /// The next sequence this cursor will read.
    pub fn position(&self) -> u64 {
        self.next
    }

    /// Drains all events recorded since the last poll. On
    /// `Err(EventLag)` the cursor is *not* advanced; call
    /// [`EventCursor::resync`] to jump past the gap.
    pub fn poll(&mut self, monitor: &Monitor) -> Result<Vec<(u64, EngineEvent)>, EventLag> {
        let batch = monitor.events_since(self.next)?;
        self.next = batch.next;
        Ok(batch.events)
    }

    /// Jumps the cursor to the oldest retained event, discarding the
    /// gap. Returns how many sequences were skipped.
    pub fn resync(&mut self, monitor: &Monitor) -> u64 {
        let oldest = monitor.oldest_retained();
        let skipped = oldest.saturating_sub(self.next);
        self.next = self.next.max(oldest);
        skipped
    }
}

/// The monitoring component: a logical-clock-stamped, bounded event log.
///
/// Internally the log is segmented across [`Shards`]: sequence `s` lives
/// in shard `s & (N-1)`, so consecutive appends round-robin across
/// independent locks and concurrent recorders don't serialize on one
/// global `RwLock<Vec>`. Each shard's ring is kept sorted by sequence,
/// even when concurrent recorders push out of order. Reads seek every
/// ring to the cursor and merge the shards by sequence, visiting one
/// shard guard at a time (bounded by the clock value at entry), so a
/// poll costs O(events since the cursor), and even a whole-log read
/// never holds more than a single recorder's lock at any moment.
///
/// Retention is bounded (default [`DEFAULT_EVENT_RETENTION`]): once a
/// shard's ring exceeds its share of the cap, the oldest events are
/// evicted and the eviction watermark advances. A cursor that falls
/// behind the watermark gets an explicit [`EventLag`] error — never a
/// silent gap. Recovery's history audit reads per-instance execution
/// histories, not this log, so eviction never weakens recovery (see
/// `recover_from`).
#[derive(Debug)]
pub struct Monitor {
    /// Next sequence to allocate (total ever recorded).
    clock: AtomicU64,
    /// Oldest sequence possibly still retained: everything below has
    /// been (or may have been) evicted.
    evicted: AtomicU64,
    /// Total retention cap across all shards.
    retention: AtomicUsize,
    /// Per-shard rings of `(seq, event)`, each sorted by sequence
    /// ascending — `push` inserts a late straggler at its place, so
    /// eviction pops the oldest sequence and a reader seeks its cursor
    /// instead of filtering the whole ring.
    segments: Shards<VecDeque<(u64, EngineEvent)>>,
}

impl Default for Monitor {
    fn default() -> Self {
        Self::new()
    }
}

impl Monitor {
    /// A fresh monitor with the default retention cap.
    pub fn new() -> Self {
        Self {
            clock: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            retention: AtomicUsize::new(DEFAULT_EVENT_RETENTION),
            segments: Shards::new(
                &adept_storage::ordered::classes::MONITOR_SEGMENT,
                EVENT_SHARDS,
            ),
        }
    }

    /// Sets the retention cap (total events kept across all shards,
    /// minimum one per shard). Takes effect on subsequent appends.
    pub fn set_retention(&self, cap: usize) {
        self.retention.store(cap, Ordering::Relaxed);
    }

    /// The per-shard ring bound for the current retention cap.
    fn shard_cap(&self) -> usize {
        let cap = self.retention.load(Ordering::Relaxed);
        cap.div_ceil(self.segments.count()).max(1)
    }

    /// Pushes an already-stamped event into its shard, evicting the
    /// shard's oldest entries over the ring bound.
    ///
    /// Sequences are reserved before they are pushed, so concurrent
    /// recorders can reach one shard out of order. A straggler is
    /// inserted at its sorted place (rare, and near the tail) rather
    /// than appended: eviction must pop the shard's *oldest* sequence,
    /// or the watermark below would jump past events still retained.
    fn push(&self, seq: u64, e: EngineEvent) {
        let cap = self.shard_cap();
        let mut ring = self.segments.for_raw(seq).write();
        if ring.back().is_some_and(|(last, _)| *last > seq) {
            let at = ring.partition_point(|(t, _)| *t < seq);
            ring.insert(at, (seq, e));
        } else {
            ring.push_back((seq, e));
        }
        while ring.len() > cap {
            if let Some((old, _)) = ring.pop_front() {
                // Watermark = oldest seq that may still be retained.
                self.evicted.fetch_max(old + 1, Ordering::SeqCst);
            }
        }
    }

    /// Records an event, stamping it with the next logical time. One
    /// shard lock, no global lock.
    pub fn record(&self, e: EngineEvent) -> u64 {
        let t = self.clock.fetch_add(1, Ordering::SeqCst);
        self.push(t, e);
        t
    }

    /// Records a sequence of events under one contiguous block of
    /// logical times — the batched append the command path uses. The
    /// block is reserved atomically, then each event lands in its own
    /// shard, so a submitted batch never interleaves with a concurrent
    /// recorder's sequences.
    pub fn record_all<I: IntoIterator<Item = EngineEvent>>(&self, events: I) -> usize {
        let events: Vec<EngineEvent> = events.into_iter().collect();
        if events.is_empty() {
            return 0;
        }
        let base = self.clock.fetch_add(events.len() as u64, Ordering::SeqCst);
        let n = events.len();
        for (i, e) in events.into_iter().enumerate() {
            self.push(base + i as u64, e);
        }
        n
    }

    /// A snapshot of all *retained* events, merged across shards into
    /// logical-time order, with the same no-silent-gap contract as
    /// [`Monitor::events_since`]: the snapshot is a contiguous run — it
    /// stops before the first transient hole a concurrent
    /// [`Monitor::record_all`] block leaves (block reserved, some shards
    /// not yet pushed), rather than showing later events with earlier
    /// ones missing. Stragglers below the eviction watermark are
    /// excluded for the same reason.
    pub fn events(&self) -> Vec<(u64, EngineEvent)> {
        let mut cursor = self.oldest_retained();
        loop {
            match self.events_since(cursor) {
                Ok(batch) => return batch.events,
                // Eviction advanced between the watermark read and the
                // scan; chase it.
                Err(lag) => cursor = lag.oldest,
            }
        }
    }

    /// Events with sequence ≥ `cursor`, as a contiguous batch.
    ///
    /// Returns [`EventLag`] if `cursor` is behind the eviction
    /// watermark — the consumer missed events that are gone. A
    /// concurrent `record_all` may leave transient sequence holes
    /// (block reserved, some shards not yet pushed); events past such a
    /// hole are withheld until the hole fills, so the returned batch
    /// never skips a sequence.
    ///
    /// The scan holds **one shard guard at a time**: a reader merging a
    /// large window no longer blocks every concurrent recorder for the
    /// whole pass, only the one shard it is currently copying. Each
    /// ring is sequence-sorted, so the copy seeks to `cursor` and stops
    /// at the bound — a poll costs O(log retained + events returned),
    /// not a filter over every retained event. The
    /// batch is sequence-bounded by the clock value read at entry, so
    /// under a constant append load the scan terminates instead of
    /// chasing the tail. Eviction may race the unlocked portions of the
    /// scan, but it can never produce a silent gap: an evicted sequence
    /// is simply absent from the merge, so the contiguous-prefix rule
    /// ends the batch before it and the *next* poll reports the lag.
    pub fn events_since(&self, cursor: u64) -> Result<EventBatch, EventLag> {
        // Exclusive upper bound: sequences reserved after this point
        // belong to the next poll.
        let bound = self.clock.load(Ordering::SeqCst);
        let oldest = self.evicted.load(Ordering::SeqCst);
        if cursor < oldest {
            return Err(EventLag { oldest });
        }
        let mut pending: Vec<(u64, EngineEvent)> = Vec::new();
        for shard in self.segments.iter() {
            let ring = shard.read();
            let from = ring.partition_point(|(t, _)| *t < cursor);
            pending.extend(ring.range(from..).take_while(|(t, _)| *t < bound).cloned());
            // Guard drops here — the next shard is acquired only after
            // this one is released (one shard per table).
        }
        pending.sort_by_key(|(t, _)| *t);
        // Keep only the contiguous prefix from the cursor.
        let mut next = cursor;
        let mut events = Vec::with_capacity(pending.len());
        for (t, e) in pending {
            if t != next {
                break;
            }
            events.push((t, e));
            next += 1;
        }
        if events.is_empty() {
            // Eviction may have overtaken the cursor *during* the scan,
            // leaving nothing contiguous at its position. Report the
            // lag now rather than an empty batch that would poll
            // forever at a dead position.
            let oldest = self.evicted.load(Ordering::SeqCst);
            if next < oldest {
                return Err(EventLag { oldest });
            }
        }
        Ok(EventBatch { events, next })
    }

    /// A cursor positioned at the tail: it sees only events recorded
    /// after this call.
    pub fn subscribe(&self) -> EventCursor {
        EventCursor {
            next: self.clock.load(Ordering::SeqCst),
        }
    }

    /// A cursor positioned at `seq` — replays retained history from
    /// there. The first [`EventCursor::poll`] errs with [`EventLag`] if
    /// `seq` is already evicted.
    pub fn subscribe_from(&self, seq: u64) -> EventCursor {
        EventCursor { next: seq }
    }

    /// Number of *retained* events (≤ [`Monitor::recorded`]).
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.read().len()).sum()
    }

    /// Total events ever recorded, including evicted ones.
    pub fn recorded(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// The oldest sequence guaranteed still retained. `0` until the
    /// first eviction.
    pub fn oldest_retained(&self) -> u64 {
        self.evicted.load(Ordering::SeqCst)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.recorded() == 0
    }

    /// Renders the retained log as text.
    pub fn render_log(&self) -> String {
        let mut out = String::new();
        for (t, e) in self.events() {
            out.push_str(&format!("[{t:>6}] {e}\n"));
        }
        out
    }
}

/// Renders an instance as a DOT graph annotated with node states (the
/// monitoring component's visualisation).
pub fn render_instance_dot(schema: &ProcessSchema, state: &InstanceState) -> String {
    let mut ann: BTreeMap<NodeId, String> = BTreeMap::new();
    for (n, s) in state.marking.marked_nodes() {
        ann.insert(n, s.to_string());
    }
    render::to_dot(schema, &ann)
}

/// Renders a compact one-line-per-activity state summary of an instance.
pub fn render_instance_summary(schema: &ProcessSchema, state: &InstanceState) -> String {
    let mut out = String::new();
    for n in schema.activities() {
        let s = state.marking.node(n.id);
        let mark = match s {
            NodeState::NotActivated => " ",
            NodeState::Activated => "◦",
            NodeState::Running => "▶",
            NodeState::Completed => "✔",
            NodeState::Skipped => "✘",
        };
        out.push_str(&format!("  {mark} {:<24} {}\n", n.name, s));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_model::SchemaBuilder;
    use adept_state::Execution;

    #[test]
    fn monitor_records_in_order() {
        let m = Monitor::new();
        assert!(m.is_empty());
        m.record(EngineEvent::Deployed {
            type_name: "x".into(),
        });
        m.record(EngineEvent::InstanceCreated {
            instance: InstanceId(1),
            version: 1,
        });
        assert_eq!(m.len(), 2);
        let ev = m.events();
        assert!(ev[0].0 < ev[1].0);
        let log = m.render_log();
        assert!(log.contains("deployed \"x\""));
        assert!(log.contains("I1 created on V1"));
    }

    fn ev(i: u64) -> EngineEvent {
        EngineEvent::InstanceFinished {
            instance: InstanceId(i),
        }
    }

    #[test]
    fn retention_evicts_oldest_and_lags_stale_cursors() {
        let m = Monitor::new();
        m.set_retention(16); // one slot per shard
        for i in 0..48u64 {
            m.record(ev(i));
        }
        assert_eq!(m.recorded(), 48);
        assert_eq!(m.len(), 16, "ring bounded at the cap");
        assert_eq!(m.oldest_retained(), 32);
        // Retained view is the contiguous newest window.
        let seqs: Vec<u64> = m.events().iter().map(|(t, _)| *t).collect();
        assert_eq!(seqs, (32..48).collect::<Vec<u64>>());
        // A cursor behind the watermark gets an explicit error.
        let err = m.events_since(10).unwrap_err();
        assert_eq!(err.oldest, 32);
        // At the watermark it reads cleanly.
        let batch = m.events_since(32).unwrap();
        assert_eq!(batch.events.len(), 16);
        assert_eq!(batch.next, 48);
    }

    #[test]
    fn cursor_polls_deltas_and_resyncs_after_lag() {
        let m = Monitor::new();
        m.record(ev(1));
        let mut c = m.subscribe();
        assert_eq!(c.poll(&m).unwrap(), vec![], "tail cursor skips history");
        m.record_all((2..5).map(ev));
        let got = c.poll(&m).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].0, 1);
        assert_eq!(c.position(), 4);
        // Replay-from-zero sees everything still retained.
        let mut z = m.subscribe_from(0);
        assert_eq!(z.poll(&m).unwrap().len(), 4);
        // Force eviction past the cursor, then resync.
        m.set_retention(16);
        for i in 0..64u64 {
            m.record(ev(i));
        }
        let mut stale = m.subscribe_from(0);
        assert!(stale.poll(&m).is_err());
        let skipped = stale.resync(&m);
        assert!(skipped > 0);
        let batch = stale.poll(&m).unwrap();
        assert_eq!(batch.len(), 16);
    }

    #[test]
    fn reader_stays_contiguous_under_concurrent_recorders() {
        // The per-shard scan holds one guard at a time, so recorders
        // keep landing events mid-merge; the contiguous-prefix rule
        // must still hand the poller a gap-free, duplicate-free stream.
        let m = std::sync::Arc::new(Monitor::new());
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        m.record(ev(w * 1000 + i));
                    }
                })
            })
            .collect();
        let mut cursor = m.subscribe_from(0);
        let mut seen = 0u64;
        while seen < 800 {
            let batch = cursor.poll(&m).expect("retention never exceeded");
            for (t, _) in &batch {
                assert_eq!(*t, seen, "stream must be gap- and duplicate-free");
                seen += 1;
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(m.recorded(), 800);
        assert_eq!(m.events().len(), 800);
    }

    /// The pre-seek read, as a reference: filter every retained event
    /// of every ring, sort, keep the contiguous prefix from `cursor`.
    fn reference_since(m: &Monitor, cursor: u64) -> Result<Vec<u64>, EventLag> {
        let oldest = m.oldest_retained();
        if cursor < oldest {
            return Err(EventLag { oldest });
        }
        let bound = m.recorded();
        let mut all: Vec<u64> = Vec::new();
        for shard in m.segments.iter() {
            all.extend(shard.read().iter().map(|(t, _)| *t));
        }
        all.retain(|t| *t >= cursor && *t < bound);
        all.sort_unstable();
        Ok(all
            .into_iter()
            .enumerate()
            .take_while(|(i, t)| *t == cursor + *i as u64)
            .map(|(_, t)| t)
            .collect())
    }

    #[test]
    fn out_of_order_pushes_keep_reads_exact_and_the_watermark_honest() {
        // Concurrent `record_all` blocks reserve contiguous sequences up
        // front but may push them in any order; model the worst case —
        // every block lands newest-first — under a 2-per-shard cap.
        let m = Monitor::new();
        m.set_retention(32);
        let n = 200u64;
        m.clock.store(n, Ordering::SeqCst);
        let blocks: Vec<Vec<u64>> = (0..n)
            .collect::<Vec<_>>()
            .chunks(40)
            .map(|b| b.iter().rev().copied().collect())
            .collect();
        for block in &blocks {
            for &seq in block {
                m.push(seq, ev(seq));
                for c in 0..=n {
                    let got = m
                        .events_since(c)
                        .map(|b| b.events.iter().map(|(t, _)| *t).collect::<Vec<_>>());
                    assert_eq!(got, reference_since(&m, c), "cursor {c} after push {seq}");
                }
            }
            // Block landed: every reserved sequence below its end is
            // pushed, so no retained event may sit below the watermark
            // (an evicted *newer* sequence would have lifted it there).
            let end = block[0] + 1;
            let oldest = m.oldest_retained();
            for shard in m.segments.iter() {
                let ring = shard.read();
                assert!(
                    ring.iter().all(|(t, _)| *t >= oldest),
                    "watermark {oldest} passed a retained seq"
                );
                assert!(ring.iter().zip(ring.iter().skip(1)).all(|(a, b)| a.0 < b.0));
            }
            assert_eq!(
                oldest,
                end.saturating_sub(32),
                "the newest 32 stay retained"
            );
        }
        // The final window is the newest 32, contiguous.
        let seqs: Vec<u64> = m.events().iter().map(|(t, _)| *t).collect();
        assert_eq!(seqs, (n - 32..n).collect::<Vec<u64>>());
    }

    #[test]
    fn instance_rendering() {
        let mut b = SchemaBuilder::new("r");
        let a = b.activity("approve");
        let s = b.build().unwrap();
        let ex = Execution::new(&s).unwrap();
        let mut st = ex.init().unwrap();
        ex.start_activity(&mut st, a).unwrap();
        let dot = render_instance_dot(&s, &st);
        assert!(dot.contains("Running"));
        let summary = render_instance_summary(&s, &st);
        assert!(summary.contains("approve"));
        assert!(summary.contains("Running"));
    }
}
