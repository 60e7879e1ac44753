//! Work items and the incremental worklist index: the user-facing side of
//! the engine.
//!
//! Activated activities are offered as work items; actors claim them by
//! role. This is the minimal faithful model of ADEPT2's worklist
//! management (the demo system distributed these via client components).
//!
//! The [`WorklistIndex`] keeps a per-instance snapshot of offered items,
//! maintained by command outcomes and invalidated by change-transaction
//! commits, migrations and undos — so serving the global worklist is an
//! index walk instead of an O(instances × nodes) recompute.

use adept_model::{InstanceId, NodeId, ProcessSchema};
use adept_storage::ordered::{classes, OrderedRwLock};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// One offered unit of work: an activated activity of some instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkItem {
    /// The instance the work belongs to.
    pub instance: InstanceId,
    /// The activity node.
    pub node: NodeId,
    /// Activity name.
    pub activity: String,
    /// Staff assignment rule (role), if any.
    pub role: Option<String>,
    /// Process type name.
    pub type_name: String,
    /// Schema version the instance currently runs on.
    pub version: u32,
}

impl WorkItem {
    /// Whether an actor with the given role may claim this item. Items
    /// without a role are claimable by anyone.
    pub fn claimable_by(&self, role: &str) -> bool {
        self.role.as_deref().is_none_or(|r| r == role)
    }
}

impl fmt::Display for WorkItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} v{}] {} \"{}\"",
            self.instance, self.version, self.node, self.activity
        )?;
        if let Some(r) = &self.role {
            write!(f, " (role: {r})")?;
        }
        Ok(())
    }
}

/// The work items an instance currently offers: its enabled activities
/// (as computed by whichever execution path the caller ran — compiled or
/// interpreted, both produce the same id-ordered set), annotated with
/// name, role and version for claiming.
pub(crate) fn items_for(
    schema: &ProcessSchema,
    enabled: &[NodeId],
    instance: InstanceId,
    type_name: &str,
    version: u32,
) -> Vec<WorkItem> {
    let mut items = Vec::new();
    for &node in enabled {
        let Ok(n) = schema.node(node) else {
            continue;
        };
        items.push(WorkItem {
            instance,
            node,
            activity: n.name.clone(),
            role: n.attrs.role.clone(),
            type_name: type_name.to_string(),
            version,
        });
    }
    items
}

/// The incrementally maintained enabled-set index.
///
/// One entry per instance, carrying the instance's current work items and
/// the **epoch** of the install. Epochs for command installs are drawn
/// while the instance's store shard lock is held, so they order exactly
/// like store commits; lazy recomputes (worklist reads that miss the
/// index) use the epoch observed *before* reading, which makes a racing
/// command's newer install always win. An absent entry means "recompute
/// on next read" — that is the invalidation signal change commits,
/// migrations and undos send. Invalidation leaves a **tombstone
/// watermark** (the epoch at invalidation time), so an in-flight
/// recompute or command that read the *pre-change* state — its epoch
/// predates the watermark — cannot resurrect stale items afterwards.
///
/// Entries and tombstones share one **slot** per instance — its latest
/// install (live items) or invalidation (no items) with that event's
/// epoch — and every slot is also keyed `(epoch, id)` in an
/// epoch-ordered **log**. A delta poll is a range scan of that log from
/// the consumer's `since`, so it costs O(instances changed since the
/// last poll), not O(population); the two structures move together in
/// [`WorklistIndex::install_lazy`]/[`WorklistIndex::finish_install`] and
/// [`WorklistIndex::invalidate`], and a rejected install touches
/// neither.
///
/// Like the store, the index is sharded by [`InstanceId::hash64`]: every
/// command installs into the index, so one global entry lock would
/// re-serialise the sharded store's write path. The epoch counter is a
/// single atomic (cheap, contention-free); only the slot maps and logs
/// are sharded. [`WorklistIndex::collect`] and [`WorklistIndex::delta`]
/// briefly hold **all** shard read locks at once to serve one coherent
/// pass — readers don't block each other, and writers (one shard write
/// each) never hold a second index shard, so the order is acyclic.
#[derive(Debug)]
pub(crate) struct WorklistIndex {
    epoch: AtomicU64,
    shards: adept_storage::Shards<IndexState>,
}

impl Default for WorklistIndex {
    fn default() -> Self {
        Self {
            epoch: AtomicU64::new(0),
            shards: adept_storage::Shards::new(
                &classes::WORKLIST_INDEX,
                adept_storage::DEFAULT_SHARD_COUNT,
            ),
        }
    }
}

/// An epoch-stamped delta of the worklist since a consumer's last poll —
/// what [`crate::ProcessEngine::worklist_delta`] returns.
///
/// Replaying deltas from epoch 0 reconstructs exactly the full worklist:
/// each `added` entry is the instance's complete current item set
/// (replace, don't merge), and each `invalidated` id has no offered items
/// any more (drop it). Pass `epoch` as the next poll's `since`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorklistDelta {
    /// Instances whose item set changed since `since`, with their full
    /// current item sets (empty set = instance offers nothing right
    /// now). Sorted by instance id.
    pub added: Vec<(InstanceId, Vec<WorkItem>)>,
    /// Instances invalidated (removed, or changed with no live entry)
    /// since `since`. Sorted by instance id.
    pub invalidated: Vec<InstanceId>,
    /// The epoch this delta is current through — the next `since`.
    pub epoch: u64,
}

/// Raw index-side delta: live slots past `since`, plus the ids the
/// caller must resolve against the store before the delta is complete.
#[derive(Debug, Default)]
pub(crate) struct IndexDelta {
    /// Epoch the scan is complete through (min pending install − 1).
    pub epoch: u64,
    /// Live slots installed after `since` (full item sets), by id.
    pub updated: Vec<(InstanceId, Vec<WorkItem>)>,
    /// Ids tombstoned after `since` (plus, on the bootstrap scan, the
    /// swept store ids the index has no slot for), by id. Still in the
    /// store = recompute; gone = invalidated.
    pub stale: Vec<InstanceId>,
}

#[derive(Debug, Default)]
struct IndexState {
    /// The latest install or invalidation of every instance this shard
    /// has seen.
    slots: BTreeMap<InstanceId, Slot>,
    /// `(slot epoch, id)` for exactly the slots above — the epoch-ordered
    /// log a delta poll range-scans.
    log: BTreeSet<(u64, InstanceId)>,
    /// Epochs drawn by [`WorklistIndex::begin_install`] whose install
    /// has not landed yet. A delta scan must not report completeness
    /// past the lowest pending epoch, or the in-flight install would be
    /// lost to every cursor forever.
    pending: BTreeSet<u64>,
}

/// One instance's index slot. `items: None` is a **tombstone**: the
/// entry was invalidated at `epoch` and is recomputed on the next read.
/// Either way an install stamped below `epoch` is rejected — below a
/// live slot it is older than the installed items, below a tombstone it
/// was computed from pre-invalidation state. Tombstones of removed
/// instances stay behind (see [`WorklistIndex::invalidate`]).
#[derive(Debug)]
struct Slot {
    epoch: u64,
    items: Option<Vec<WorkItem>>,
}

impl IndexState {
    /// Replaces `id`'s slot, moving its log key with it.
    fn put(&mut self, id: InstanceId, slot: Slot) {
        let epoch = slot.epoch;
        if let Some(old) = self.slots.insert(id, slot) {
            self.log.remove(&(old.epoch, id));
        }
        self.log.insert((epoch, id));
    }
}

impl WorklistIndex {
    #[inline]
    fn shard(&self, id: InstanceId) -> &OrderedRwLock<IndexState> {
        self.shards.for_id(id)
    }

    /// Draws the next epoch (no pending registration — internal; see
    /// [`WorklistIndex::begin_install`]).
    fn bump(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The epoch a lazy (read-side) recompute must stamp its install with
    /// — observed **before** reading the instance state.
    pub fn current(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Draws the next install epoch *and registers it pending* so a delta
    /// scan can't declare completeness past it before the matching
    /// [`WorklistIndex::finish_install`] lands. Call while holding the
    /// instance's store shard write lock so epoch order equals commit
    /// order; the epoch is drawn under the *index* shard write lock,
    /// which [`WorklistIndex::delta`] holds for reading — so a scan
    /// either sees the pending epoch or completes before it exists.
    pub fn begin_install(&self, id: InstanceId) -> u64 {
        let mut state = self.shard(id).write();
        let epoch = self.bump();
        state.pending.insert(epoch);
        epoch
    }

    /// Lands an install begun with [`WorklistIndex::begin_install`]:
    /// clears the pending registration and installs the items unless a
    /// newer install already landed or an invalidation watermark says
    /// the items were computed from pre-invalidation state.
    pub fn finish_install(&self, id: InstanceId, epoch: u64, items: Vec<WorkItem>) {
        let mut state = self.shard(id).write();
        state.pending.remove(&epoch);
        Self::install_locked(&mut state, id, epoch, items);
    }

    /// Abandons an install begun with [`WorklistIndex::begin_install`]
    /// without installing anything (the guarded mutation failed). The
    /// pending epoch must not leak, or delta cursors would stall at it
    /// forever. Currently every engine path journals *before* drawing
    /// the epoch, so no production caller can fail between begin and
    /// finish — this stays as the safety valve a future fallible path
    /// must call.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn abort_install(&self, id: InstanceId, epoch: u64) {
        self.shard(id).write().pending.remove(&epoch);
    }

    /// Installs items from a **lazy** (read-side) recompute, stamped
    /// with a previously observed [`WorklistIndex::current`]. Unlike
    /// [`WorklistIndex::finish_install`] this never touches the pending
    /// set: a lazy stamp can numerically equal a command's in-flight
    /// epoch, and must not deregister it.
    pub fn install_lazy(&self, id: InstanceId, epoch: u64, items: Vec<WorkItem>) {
        let mut state = self.shard(id).write();
        Self::install_locked(&mut state, id, epoch, items);
    }

    fn install_locked(state: &mut IndexState, id: InstanceId, epoch: u64, items: Vec<WorkItem>) {
        // Strictly below the slot = older than the live items, or
        // computed from pre-invalidation state. An epoch equal to a
        // tombstone is fine: it was observed after the invalidation bump,
        // hence after the change installed.
        if state.slots.get(&id).is_some_and(|s| s.epoch > epoch) {
            return;
        }
        state.put(
            id,
            Slot {
                epoch,
                items: Some(items),
            },
        );
    }

    /// Drops an instance's entry and leaves a watermark so concurrent
    /// installs computed from the pre-invalidation state are rejected.
    /// The entry is recomputed on the next worklist read. The watermark
    /// is drawn *inside* the shard write lock, so a delta scan (which
    /// holds every shard read lock) either sees the tombstone or
    /// completes at an epoch below it — an invalidation can never fall
    /// into a cursor gap.
    ///
    /// This is also the **removal** path: a removed instance's watermark
    /// must stay behind, or an in-flight recompute that read the instance
    /// before the removal could re-install an entry that nothing would
    /// ever clear again (no later invalidation fires for a removed id).
    /// The watermark is a few bytes per removed id; a resurrected entry
    /// would hold a whole item vector.
    pub fn invalidate(&self, id: InstanceId) {
        let mut state = self.shard(id).write();
        let watermark = self.bump();
        state.put(
            id,
            Slot {
                epoch: watermark,
                items: None,
            },
        );
    }

    /// The indexed items of an instance, if the entry is live.
    #[cfg(test)]
    pub fn get(&self, id: InstanceId) -> Option<Vec<WorkItem>> {
        self.shard(id)
            .read()
            .slots
            .get(&id)
            .and_then(|s| s.items.clone())
    }

    /// Collects the items of every indexed id into `out` and the ids
    /// without a live entry into `misses` — one lock acquisition **per
    /// shard** for the whole population instead of one per instance. All
    /// shard read guards are held together so the pass is coherent.
    pub fn collect(
        &self,
        ids: &[InstanceId],
        out: &mut Vec<WorkItem>,
        misses: &mut Vec<InstanceId>,
    ) {
        let guards = self.shards.read_all();
        for id in ids {
            let slot = guards[self.shards.index_of(*id)].slots.get(id);
            match slot.and_then(|s| s.items.as_ref()) {
                Some(items) => out.extend(items.iter().cloned()),
                None => misses.push(*id),
            }
        }
    }

    /// One coherent delta scan: every slot that changed after `since` —
    /// a range scan of each shard's epoch-ordered log, O(changed) — plus,
    /// for the bootstrap, the swept store `ids` the index has no slot for.
    ///
    /// All shard read guards are held together, which blocks every
    /// epoch draw ([`WorklistIndex::begin_install`] and
    /// [`WorklistIndex::invalidate`] draw under a shard *write* lock) —
    /// so the set of epochs is frozen for the pass. The reported epoch
    /// is `min(pending) − 1` when installs are in flight (their results
    /// aren't visible yet; the next poll picks them up), otherwise the
    /// frozen counter value.
    ///
    /// `since == 0` is the bootstrap scan: *every* slot is reported,
    /// including epoch-0 entries a restored engine stamps, and `ids`
    /// (the store sweep; pass it empty otherwise) is probed for
    /// instances that never passed through the engine. Tombstones come
    /// back as `stale` for the caller to resolve against the store
    /// **after** this returns — store shard → index shard is the
    /// documented lock order, so the store must not be read under the
    /// guards held here.
    pub fn delta(&self, since: u64, ids: &[InstanceId]) -> IndexDelta {
        let guards = self.shards.read_all();
        let epoch_now = self.current();
        let min_pending = guards
            .iter()
            .filter_map(|g| g.pending.iter().next().copied())
            .min();
        let epoch = match min_pending {
            Some(p) => p - 1,
            None => epoch_now,
        };
        let mut out = IndexDelta {
            epoch,
            ..IndexDelta::default()
        };
        let lo = if since == 0 {
            0
        } else {
            since.saturating_add(1)
        };
        for g in &guards {
            for (_, id) in g.log.range((lo, InstanceId(0))..) {
                match g.slots.get(id).and_then(|s| s.items.as_ref()) {
                    Some(items) => out.updated.push((*id, items.clone())),
                    None => out.stale.push(*id),
                }
            }
        }
        for id in ids {
            if !guards[self.shards.index_of(*id)].slots.contains_key(id) {
                out.stale.push(*id);
            }
        }
        drop(guards);
        out.updated.sort_by_key(|(id, _)| *id);
        out.stale.sort();
        out
    }

    /// Number of live entries (diagnostics).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        let live = |s: &IndexState| s.slots.values().filter(|s| s.items.is_some()).count();
        self.shards.iter().map(|s| live(&s.read())).sum()
    }

    /// Asserts the slot/log invariant: every shard's log holds exactly
    /// one `(epoch, id)` key per slot, matching the slot's epoch.
    #[cfg(test)]
    fn assert_log_matches_slots(&self) {
        for shard in self.shards.iter() {
            let s = shard.read();
            let expected: BTreeSet<(u64, InstanceId)> =
                s.slots.iter().map(|(id, slot)| (slot.epoch, *id)).collect();
            assert_eq!(s.log, expected, "log keys diverged from the slots");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(role: Option<&str>) -> WorkItem {
        WorkItem {
            instance: InstanceId(1),
            node: NodeId(2),
            activity: "confirm order".into(),
            role: role.map(str::to_string),
            type_name: "order".into(),
            version: 1,
        }
    }

    #[test]
    fn role_claims() {
        assert!(item(None).claimable_by("anyone"));
        assert!(item(Some("clerk")).claimable_by("clerk"));
        assert!(!item(Some("clerk")).claimable_by("physician"));
    }

    #[test]
    fn display() {
        let s = item(Some("clerk")).to_string();
        assert!(s.contains("confirm order"));
        assert!(s.contains("clerk"));
    }

    #[test]
    fn index_orders_installs_by_epoch() {
        let idx = WorklistIndex::default();
        let e1 = idx.begin_install(InstanceId(1));
        let e2 = idx.begin_install(InstanceId(1));
        idx.finish_install(InstanceId(1), e2, vec![item(None)]);
        // A stale install (older epoch) must not clobber the newer entry.
        idx.finish_install(InstanceId(1), e1, vec![]);
        assert_eq!(idx.get(InstanceId(1)).unwrap().len(), 1);
        idx.invalidate(InstanceId(1));
        assert!(idx.get(InstanceId(1)).is_none());
        assert_eq!(idx.len(), 0);
        // Lazy installs stamped with the pre-read epoch are accepted when
        // nothing newer landed.
        idx.install_lazy(InstanceId(2), idx.current(), vec![item(Some("clerk"))]);
        assert_eq!(idx.get(InstanceId(2)).unwrap().len(), 1);
    }

    #[test]
    fn invalidation_tombstones_reject_stale_installs() {
        let idx = WorklistIndex::default();
        // A reader observes the epoch, then a change invalidates.
        let stale_epoch = idx.current();
        idx.invalidate(InstanceId(1));
        // The reader's install was computed from pre-change state: dropped.
        idx.install_lazy(InstanceId(1), stale_epoch, vec![item(None)]);
        assert!(idx.get(InstanceId(1)).is_none());
        // A reader that starts after the invalidation is accepted (and
        // clears the tombstone for later, even older-epoch re-installs).
        idx.install_lazy(InstanceId(1), idx.current(), vec![item(Some("clerk"))]);
        assert_eq!(idx.get(InstanceId(1)).unwrap().len(), 1);
    }

    #[test]
    fn delta_reports_updates_invalidations_and_misses() {
        let idx = WorklistIndex::default();
        let a = InstanceId(1);
        let b = InstanceId(2);
        let e = idx.begin_install(a);
        idx.finish_install(a, e, vec![item(None)]);
        // Bootstrap scan (since 0) returns all entries; the swept store
        // id b has no slot, so it comes back for a recompute.
        let d0 = idx.delta(0, &[a, b]);
        assert_eq!(d0.updated.len(), 1);
        assert_eq!(d0.updated[0].0, a);
        assert_eq!(d0.stale, vec![b]);
        assert_eq!(d0.epoch, e);
        // Nothing since d0.epoch — and later polls do not sweep the
        // store, so the unindexed b is not re-reported.
        let d1 = idx.delta(d0.epoch, &[]);
        assert!(d1.updated.is_empty());
        assert!(d1.stale.is_empty());
        // A tombstone (removal or change) comes back for the caller to
        // resolve against the store: gone = invalidated, present = miss.
        idx.invalidate(a);
        let d2 = idx.delta(d1.epoch, &[]);
        assert_eq!(d2.stale, vec![a]);
        assert!(d2.updated.is_empty());
        idx.invalidate(b);
        let d3 = idx.delta(d2.epoch, &[]);
        assert!(d3.updated.is_empty());
        assert_eq!(d3.stale, vec![b]);
    }

    #[test]
    fn log_holds_exactly_one_key_per_slot() {
        let idx = WorklistIndex::default();
        let a = InstanceId(1);
        let b = InstanceId(2);
        let e1 = idx.begin_install(a);
        idx.finish_install(a, e1, vec![item(None)]);
        idx.assert_log_matches_slots();
        // Re-install moves a's key instead of adding a second one.
        let e2 = idx.begin_install(a);
        idx.finish_install(a, e2, vec![]);
        idx.assert_log_matches_slots();
        // Invalidate → install moves it twice.
        idx.invalidate(a);
        idx.assert_log_matches_slots();
        idx.install_lazy(a, idx.current(), vec![item(None)]);
        idx.assert_log_matches_slots();
        // A rejected install (stale stamp, below the slot) touches
        // nothing: the key stays at the live slot's epoch.
        let before = idx.delta(0, &[]).updated;
        idx.install_lazy(a, e1, vec![]);
        idx.assert_log_matches_slots();
        assert_eq!(idx.delta(0, &[]).updated, before);
        // A rejected install below a tombstone leaves the tombstone.
        let stale = idx.current();
        idx.invalidate(b);
        idx.install_lazy(b, stale, vec![item(None)]);
        idx.assert_log_matches_slots();
        assert!(idx.get(b).is_none());
        let total: usize = idx.shards.iter().map(|s| s.read().log.len()).sum();
        assert_eq!(total, 2, "one key per slot, none stale");
    }

    #[test]
    fn same_stamp_lazy_installs_on_different_ids_are_both_reported() {
        let idx = WorklistIndex::default();
        let (a, b, x) = (InstanceId(1), InstanceId(2), InstanceId(9));
        let e = idx.begin_install(x);
        idx.finish_install(x, e, vec![item(None)]);
        let since = idx.delta(0, &[]).epoch;
        idx.invalidate(a);
        idx.invalidate(b);
        // Two readers that observed the same epoch recompute a and b:
        // equal stamps, distinct log keys.
        let stamp = idx.current();
        idx.install_lazy(a, stamp, vec![item(None)]);
        idx.install_lazy(b, stamp, vec![item(Some("clerk"))]);
        idx.assert_log_matches_slots();
        let d = idx.delta(since, &[]);
        let ids: Vec<InstanceId> = d.updated.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![a, b]);
        assert!(d.stale.is_empty());
        // The bootstrap reports every slot.
        assert_eq!(idx.delta(0, &[]).updated.len(), 3);
    }

    #[test]
    fn tombstone_then_removal_is_reported_once() {
        let idx = WorklistIndex::default();
        let a = InstanceId(1);
        let e = idx.begin_install(a);
        idx.finish_install(a, e, vec![item(None)]);
        let since = idx.delta(0, &[]).epoch;
        // A change invalidates a, then the removal invalidates it again.
        idx.invalidate(a);
        idx.invalidate(a);
        idx.assert_log_matches_slots();
        let d = idx.delta(since, &[]);
        assert_eq!(d.stale, vec![a], "one slot, one report");
        assert!(d.updated.is_empty());
        assert!(idx.delta(d.epoch, &[]).stale.is_empty());
    }

    #[test]
    fn pending_installs_hold_back_the_delta_epoch() {
        let idx = WorklistIndex::default();
        let a = InstanceId(1);
        let e1 = idx.begin_install(a);
        let e2 = idx.begin_install(a);
        idx.finish_install(a, e2, vec![item(None)]);
        // e1 is still in flight: completeness stops just below it, so the
        // install that *did* land (e2 > e1) will be re-scanned next poll
        // rather than lost behind a premature cursor.
        let d = idx.delta(0, &[a]);
        assert_eq!(d.epoch, e1 - 1);
        idx.abort_install(a, e1);
        let d = idx.delta(0, &[a]);
        assert_eq!(d.epoch, e2);
        // A lazy install stamped with current() must not deregister a
        // numerically equal pending command epoch.
        let e3 = idx.begin_install(a);
        assert_eq!(e3, idx.current());
        idx.install_lazy(a, idx.current(), vec![item(None)]);
        assert_eq!(idx.delta(0, &[a]).epoch, e3 - 1);
        idx.finish_install(a, e3, vec![item(None)]);
        assert_eq!(idx.delta(0, &[a]).epoch, e3);
    }
}
