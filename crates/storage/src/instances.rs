//! The sharded instance store and the three representation strategies of
//! paper Fig. 2.
//!
//! * [`Representation::RedundantFree`] — unbiased instances reference their
//!   schema; biased instances re-materialise their schema **on every
//!   access** ("another [alternative] to materialize instance-specific
//!   schemes on the fly").
//! * [`Representation::FullCopy`] — every biased instance keeps a
//!   **complete schema copy** ("one alternative would be to maintain a
//!   complete schema for each biased instance").
//! * [`Representation::Hybrid`] — ADEPT2's approach: biased instances keep
//!   a *minimal substitution block* which overlays the original schema on
//!   access, with the materialisation cached until the next change.
//!
//! # Sharding
//!
//! The store is split into `N` shards (a power of two, default
//! [`DEFAULT_SHARD_COUNT`]), each holding an independent
//! `RwLock<BTreeMap<InstanceId, StoredInstance>>` plus a per-shard
//! secondary index from type name to the instance ids living on that
//! shard. An instance's shard is `InstanceId::hash64() & (N - 1)` —
//! sequentially allocated ids spread uniformly, so concurrent commands on
//! different instances almost never contend on the same lock. Id
//! allocation is a single `AtomicU64` (no lock at all), and the
//! [`AccessStats`] counters are atomics, so **the schema read path takes
//! no write lock anywhere** — cache-hit reads are one shard read lock plus
//! one relaxed atomic increment.
//!
//! ## Lock order
//!
//! Machine-checked: shard locks are [`crate::ordered::OrderedRwLock`]s of
//! class `store.shard` — the root of every mutation path in the global
//! acquisition order (see `docs/LOCK_ORDER.md` for the authoritative
//! class DAG). Cross-shard operations ([`InstanceStore::ids`],
//! [`InstanceStore::len`], [`InstanceStore::memory`],
//! [`InstanceStore::all_stamped`], [`InstanceStore::instances_of`]) visit shards
//! sequentially, releasing each lock before taking the next — they
//! compose per-shard snapshots instead of stopping the world, so they
//! are cheap but not linearisable against concurrent writers (the same
//! was true of the old single-lock store across *calls*). The stats
//! counters and the id allocator are atomics and participate in no lock
//! order.

use crate::ordered::{classes, OrderedRwLock};
use crate::repo::SchemaRepository;
use crate::shards::Shards;
use crate::subst::SubstitutionBlock;
use adept_core::Delta;
use adept_model::{InstanceId, ProcessSchema};
use adept_state::InstanceState;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Storage strategy for instance-specific schemas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Representation {
    /// Reference + on-the-fly materialisation for biased instances.
    RedundantFree,
    /// Complete schema copy per biased instance.
    FullCopy,
    /// Reference + substitution block + cached overlay (ADEPT2).
    Hybrid,
}

/// One stored process instance.
#[derive(Debug, Clone)]
pub struct StoredInstance {
    /// Instance id.
    pub id: InstanceId,
    /// Process type name.
    pub type_name: String,
    /// Schema version the instance runs on.
    pub version: u32,
    /// The instance's ad-hoc changes (empty = unbiased).
    pub bias: Delta,
    /// Substitution block derived from the bias (Hybrid strategy).
    pub subst: SubstitutionBlock,
    /// Runtime state (marking + history + data).
    pub state: InstanceState,
    /// FullCopy strategy: the complete instance-specific schema.
    pub full_copy: Option<Arc<ProcessSchema>>,
    /// Hybrid strategy: cached overlay materialisation.
    pub cached_overlay: Option<Arc<ProcessSchema>>,
}

impl StoredInstance {
    /// Whether the instance deviates from its type schema.
    pub fn is_biased(&self) -> bool {
        !self.bias.is_empty()
    }
}

/// Access statistics of the store (cache behaviour of the Fig. 2 bench).
/// A point-in-time snapshot of the store's atomic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Schema accesses answered from a shared deployed schema.
    pub shared_hits: u64,
    /// Schema accesses answered from the per-instance overlay cache.
    pub cache_hits: u64,
    /// Schema accesses that had to materialise (overlay or replay).
    pub materializations: u64,
}

/// The live counters behind [`AccessStats`]: plain atomics, so the schema
/// **read** path (shared hits, cache hits) increments without taking any
/// lock — the old store took `stats.write()` on every cache-hit read,
/// *while holding the instances read lock*, which both serialised readers
/// and created a nested lock order. Relaxed ordering is sufficient:
/// the counters are monotonic tallies, not synchronisation.
#[derive(Debug, Default)]
struct StatCounters {
    shared_hits: AtomicU64,
    cache_hits: AtomicU64,
    materializations: AtomicU64,
}

impl StatCounters {
    fn snapshot(&self) -> AccessStats {
        AccessStats {
            shared_hits: self.shared_hits.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            materializations: self.materializations.load(Ordering::Relaxed),
        }
    }
}

/// Byte-level breakdown of the store's memory usage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryBreakdown {
    /// Shared deployed schemas (stored once per version).
    pub schema_bytes: usize,
    /// Markings, histories and data contexts.
    pub state_bytes: usize,
    /// Bias deltas + substitution blocks.
    pub bias_bytes: usize,
    /// Per-instance full copies (FullCopy strategy).
    pub full_copy_bytes: usize,
    /// Cached overlays (Hybrid strategy).
    pub cache_bytes: usize,
}

impl MemoryBreakdown {
    /// Total bytes.
    pub fn total(&self) -> usize {
        self.schema_bytes
            + self.state_bytes
            + self.bias_bytes
            + self.full_copy_bytes
            + self.cache_bytes
    }
}

/// Default shard count: enough to make contention between a handful of
/// worker threads statistically rare, small enough that cross-shard
/// operations stay cheap.
pub const DEFAULT_SHARD_COUNT: usize = 16;

/// One shard: the instance map, the per-type secondary index over the
/// ids living on this shard, and the shard's journal stamp. All three
/// live under **one** lock so they can never be observed out of sync.
#[derive(Debug, Default)]
struct ShardState {
    instances: BTreeMap<InstanceId, StoredInstance>,
    by_type: BTreeMap<String, BTreeSet<InstanceId>>,
    /// The WAL sequence of the last record journaled under this shard's
    /// write lock (0 = none). Records of one shard are journaled under
    /// its lock, so their sequences rise monotonically: a snapshot that
    /// reads the stamp together with the instances holds exactly the
    /// shard's records up to it.
    stamp: u64,
}

impl ShardState {
    fn insert(&mut self, inst: StoredInstance) {
        self.by_type
            .entry(inst.type_name.clone())
            .or_default()
            .insert(inst.id);
        self.instances.insert(inst.id, inst);
    }

    /// Records that `seq` was journaled under this shard's lock (0 = no
    /// record).
    fn stamp(&mut self, seq: u64) {
        self.stamp = self.stamp.max(seq);
    }

    fn remove(&mut self, id: InstanceId) -> Option<StoredInstance> {
        let inst = self.instances.remove(&id)?;
        if let Some(set) = self.by_type.get_mut(&inst.type_name) {
            set.remove(&id);
            if set.is_empty() {
                self.by_type.remove(&inst.type_name);
            }
        }
        Some(inst)
    }
}

/// The sharded instance store. All methods take `&self`; sharing across
/// threads is the point.
#[derive(Debug)]
pub struct InstanceStore {
    strategy: Representation,
    shards: Shards<ShardState>,
    /// Lock-free id allocator: the **raw value of the most recently
    /// allocated id** (0 = nothing allocated yet). 64-bit, so the id
    /// space outlives any realistic deployment instead of silently
    /// wrapping like the old `RwLock<u32>` did at `u32::MAX`.
    next_id: AtomicU64,
    stats: StatCounters,
}

impl InstanceStore {
    /// Creates a store with the given representation strategy and
    /// [`DEFAULT_SHARD_COUNT`] shards.
    pub fn new(strategy: Representation) -> Self {
        Self::with_shards(strategy, DEFAULT_SHARD_COUNT)
    }

    /// Creates a store with an explicit shard count (rounded up to the
    /// next power of two, minimum 1). `with_shards(strategy, 1)` is the
    /// old single-map store — benchmarks use it as the contention
    /// baseline.
    pub fn with_shards(strategy: Representation, shards: usize) -> Self {
        Self {
            strategy,
            shards: Shards::new(&classes::STORE_SHARD, shards),
            next_id: AtomicU64::new(0),
            stats: StatCounters::default(),
        }
    }

    /// The store's strategy.
    pub fn strategy(&self) -> Representation {
        self.strategy
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.count()
    }

    #[inline]
    fn shard(&self, id: InstanceId) -> &OrderedRwLock<ShardState> {
        self.shards.for_id(id)
    }

    /// Creates a new (unbiased) instance of a type version, unjournaled.
    pub fn create(&self, type_name: &str, version: u32, state: InstanceState) -> InstanceId {
        let id = self.allocate_id();
        let Ok(()) = self.insert_new(id, type_name, version, state, |_| {
            Ok::<_, std::convert::Infallible>(0)
        });
        id
    }

    /// Allocates the next instance id without inserting anything — the
    /// journaled creation path reserves the id first so the WAL record
    /// can carry it *before* the instance becomes visible.
    pub fn allocate_id(&self) -> InstanceId {
        let prev = self.next_id.fetch_add(1, Ordering::Relaxed);
        assert!(
            prev < u64::MAX,
            "instance id space exhausted (u64::MAX allocations)"
        );
        InstanceId(prev + 1)
    }

    /// Inserts a fresh unbiased instance under a previously
    /// [allocated](InstanceStore::allocate_id) id. The instance is handed
    /// to `journal` under the shard write lock **before** it becomes
    /// visible; `journal` returns the WAL sequence it appended (0 = none),
    /// which stamps the shard. If journaling fails nothing is inserted.
    pub fn insert_new<E>(
        &self,
        id: InstanceId,
        type_name: &str,
        version: u32,
        state: InstanceState,
        journal: impl FnOnce(&StoredInstance) -> Result<u64, E>,
    ) -> Result<(), E> {
        let inst = StoredInstance {
            id,
            type_name: type_name.to_string(),
            version,
            bias: Delta::new(),
            subst: SubstitutionBlock::default(),
            state,
            full_copy: None,
            cached_overlay: None,
        };
        let mut shard = self.shard(id).write();
        let seq = journal(&inst)?;
        shard.stamp(seq);
        shard.insert(inst);
        Ok(())
    }

    /// Inserts a fully-specified instance (persistence restore path). The
    /// id allocator is advanced past the restored id so future instances
    /// never collide.
    pub fn insert_restored(&self, inst: StoredInstance) {
        self.next_id.fetch_max(inst.id.raw(), Ordering::Relaxed);
        self.shard(inst.id).write().insert(inst);
    }

    /// Removes an instance (cancellation / archival), returning it
    /// (`Ok(None)` for an unknown id). The id is **not** reused. Migration
    /// treats an instance that disappears mid-flight as
    /// [`adept_core::ConflictKind::Vanished`], not as a structural failure.
    /// Like [`InstanceStore::insert_new`], the instance is handed to
    /// `journal` under the shard write lock before it disappears, and a
    /// journaling failure removes nothing.
    pub fn remove<E>(
        &self,
        id: InstanceId,
        journal: impl FnOnce(&StoredInstance) -> Result<u64, E>,
    ) -> Result<Option<StoredInstance>, E> {
        let mut shard = self.shard(id).write();
        let Some(inst) = shard.instances.get(&id) else {
            return Ok(None);
        };
        let seq = journal(inst)?;
        shard.stamp(seq);
        Ok(shard.remove(id))
    }

    /// Reads an instance (cloned snapshot).
    pub fn get(&self, id: InstanceId) -> Option<StoredInstance> {
        self.shard(id).read().instances.get(&id).cloned()
    }

    /// Reads an instance through a closure **without cloning it** — the
    /// hot-path accessor for worklist computation and command outcomes,
    /// where cloning the full state (marking + history + data) per access
    /// would dominate. The shard read lock is held only for the closure.
    pub fn with_instance<R>(
        &self,
        id: InstanceId,
        f: impl FnOnce(&StoredInstance) -> R,
    ) -> Option<R> {
        self.shard(id).read().instances.get(&id).map(f)
    }

    /// All stored instance ids, in id order — including instances whose
    /// type is unknown to the repository (the worklist surfaces those as
    /// corruption instead of hiding them). Composed from per-shard
    /// snapshots (one shard lock at a time, no global barrier).
    pub fn ids(&self) -> Vec<InstanceId> {
        // No len() pre-sizing: that would sweep every shard lock a second
        // time on the hottest read path (and the count is stale under
        // concurrent writers anyway).
        let mut ids = Vec::new();
        for shard in self.shards.iter() {
            ids.extend(shard.read().instances.keys().copied());
        }
        ids.sort_unstable();
        ids
    }

    /// All instance ids of a type, in id order. Served from the per-shard
    /// secondary indexes — O(matching instances), not O(all instances)
    /// like the old full-map filter scan.
    pub fn instances_of(&self, type_name: &str) -> Vec<InstanceId> {
        let mut ids = Vec::new();
        for shard in self.shards.iter() {
            if let Some(set) = shard.read().by_type.get(type_name) {
                ids.extend(set.iter().copied());
            }
        }
        ids.sort_unstable();
        ids
    }

    /// Number of stored instances.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().instances.len()).sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().instances.is_empty())
    }

    /// Cloned snapshots of all instances, in id order, plus every shard's
    /// journal stamp, each read under the same guard as that shard's
    /// instances — the persistence path. Composed per shard; each shard's
    /// lock is released before the next is taken. A shard's instances are
    /// exactly its journaled records up to its stamp; records past it are
    /// not reflected. The stamps come back empty when no shard has
    /// journaled anything (a store without a WAL), so they do not depend
    /// on the shard count there.
    pub fn all_stamped(&self) -> (Vec<StoredInstance>, Vec<u64>) {
        let mut out = Vec::new();
        let mut stamps = Vec::with_capacity(self.shards.count());
        for shard in self.shards.iter() {
            let shard = shard.read();
            out.extend(shard.instances.values().cloned());
            stamps.push(shard.stamp);
        }
        out.sort_unstable_by_key(|i| i.id);
        if stamps.iter().all(|s| *s == 0) {
            stamps.clear();
        }
        (out, stamps)
    }

    /// Mutates an instance in place. `f` returns its result plus the WAL
    /// sequence it journaled under the shard write lock (0 = none), which
    /// stamps the shard.
    pub fn update<R>(
        &self,
        id: InstanceId,
        f: impl FnOnce(&mut StoredInstance) -> (R, u64),
    ) -> Option<R> {
        let mut shard = self.shard(id).write();
        let (r, seq) = f(shard.instances.get_mut(&id)?);
        shard.stamp(seq);
        Some(r)
    }

    /// Stamps `id`'s shard with a replayed record's sequence, so a
    /// recovered store carries the stamps the journaling store had.
    pub fn stamp(&self, id: InstanceId, seq: u64) {
        self.shard(id).write().stamp(seq);
    }

    /// Seeds the shard stamps from a snapshot ([`InstanceStore::all_stamped`]);
    /// empty seeds nothing. The store must have as many shards as
    /// `stamps` has entries.
    pub fn seed_stamps(&self, stamps: &[u64]) {
        debug_assert!(stamps.is_empty() || stamps.len() == self.shards.count());
        for (shard, seq) in self.shards.iter().zip(stamps) {
            shard.write().stamp(*seq);
        }
    }

    /// Resolves the schema an instance currently executes on, following the
    /// store's representation strategy. `repo` provides the shared
    /// deployed versions.
    ///
    /// The fast path (unbiased instance, full copy, cached overlay) holds
    /// only the shard **read** lock; the stats tally is an atomic
    /// increment, not a write lock.
    pub fn schema_of(&self, repo: &SchemaRepository, id: InstanceId) -> Option<Arc<ProcessSchema>> {
        // Fast path: unbiased or cached.
        {
            let shard = self.shard(id).read();
            let inst = shard.instances.get(&id)?;
            if !inst.is_biased() {
                let dep = repo.deployed(&inst.type_name, inst.version)?;
                self.stats.shared_hits.fetch_add(1, Ordering::Relaxed);
                return Some(dep.schema);
            }
            match self.strategy {
                Representation::FullCopy => {
                    if let Some(fc) = &inst.full_copy {
                        self.stats.shared_hits.fetch_add(1, Ordering::Relaxed);
                        return Some(fc.clone());
                    }
                }
                Representation::Hybrid => {
                    if let Some(c) = &inst.cached_overlay {
                        self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                        return Some(c.clone());
                    }
                }
                Representation::RedundantFree => {}
            }
        }
        // Slow path: materialise under the shard write lock.
        let mut shard = self.shard(id).write();
        let inst = shard.instances.get_mut(&id)?;
        let dep = repo.deployed(&inst.type_name, inst.version)?;
        let overlay = inst.subst.overlay(&dep.schema).ok()?;
        self.stats.materializations.fetch_add(1, Ordering::Relaxed);
        let arc = Arc::new(overlay);
        match self.strategy {
            Representation::Hybrid => inst.cached_overlay = Some(arc.clone()),
            Representation::FullCopy => inst.full_copy = Some(arc.clone()),
            Representation::RedundantFree => {}
        }
        Some(arc)
    }

    /// Records a new bias state for an instance after an ad-hoc change or
    /// undo: stores the delta and substitution block, the adapted state,
    /// and the strategy-specific artefacts.
    ///
    /// Compare-and-set: the install happens only if the instance's
    /// version, bias and state still match the snapshot the caller
    /// validated against, so a change committed from a stale snapshot
    /// (racing commit, migration or execution step) is rejected instead
    /// of clobbering the concurrent update. Once the check passes, the
    /// fully built candidate is handed to `journal` **before** it is
    /// installed — still under the shard write lock, so the WAL records
    /// installs in their visibility order; `journal` returns the sequence
    /// it appended, which stamps the shard. If journaling fails nothing is
    /// installed and the error surfaces; `Ok(false)` means a CAS mismatch
    /// or an unknown id. Callers without a WAL pass `|_| Ok(0)`.
    #[allow(clippy::too_many_arguments)]
    pub fn set_bias<E>(
        &self,
        id: InstanceId,
        expected_version: u32,
        expected_bias: &Delta,
        expected_state: &InstanceState,
        bias: Delta,
        materialized: &ProcessSchema,
        state: InstanceState,
        journal: impl FnOnce(&StoredInstance) -> Result<u64, E>,
    ) -> Result<bool, E> {
        let mut shard = self.shard(id).write();
        let Some(inst) = shard.instances.get_mut(&id) else {
            return Ok(false);
        };
        if inst.version != expected_version
            || inst.bias != *expected_bias
            || inst.state != *expected_state
        {
            return Ok(false);
        }
        let (full_copy, cached_overlay) = match self.strategy {
            Representation::FullCopy => (Some(Arc::new(materialized.clone())), None),
            // Hybrid: cache invalidated, next access re-overlays.
            Representation::Hybrid | Representation::RedundantFree => (None, None),
        };
        let candidate = StoredInstance {
            id: inst.id,
            type_name: inst.type_name.clone(),
            version: inst.version,
            subst: SubstitutionBlock::from_delta(&bias, materialized),
            bias,
            state,
            full_copy,
            cached_overlay,
        };
        let seq = journal(&candidate)?;
        *inst = candidate;
        shard.stamp(seq);
        Ok(true)
    }

    /// Re-homes an instance after a migration hop: new version, possibly
    /// rebased bias artefacts, adapted state.
    ///
    /// Compare-and-set like [`InstanceStore::set_bias`]: installs only if
    /// the instance's version and state still match the snapshot the hop
    /// checked compliance against, so a command committing between the
    /// migration's read and its install is never overwritten by state
    /// adapted from the stale snapshot (`Ok(false)`: callers re-read and
    /// retry). The candidate is journaled under the shard write lock after
    /// the check passes and installed only if journaling succeeds.
    #[allow(clippy::too_many_arguments)]
    pub fn migrate<E>(
        &self,
        id: InstanceId,
        expected_version: u32,
        expected_state: &InstanceState,
        new_version: u32,
        state: InstanceState,
        materialized: Option<&ProcessSchema>,
        journal: impl FnOnce(&StoredInstance) -> Result<u64, E>,
    ) -> Result<bool, E> {
        let mut shard = self.shard(id).write();
        let Some(inst) = shard.instances.get_mut(&id) else {
            return Ok(false);
        };
        if inst.version != expected_version || inst.state != *expected_state {
            return Ok(false);
        }
        let mut candidate = StoredInstance {
            id: inst.id,
            type_name: inst.type_name.clone(),
            version: new_version,
            bias: inst.bias.clone(),
            subst: inst.subst.clone(),
            state,
            full_copy: None,
            cached_overlay: None,
        };
        if let Some(m) = materialized {
            candidate.subst = SubstitutionBlock::from_delta(&candidate.bias, m);
            match self.strategy {
                Representation::FullCopy => candidate.full_copy = Some(Arc::new(m.clone())),
                Representation::Hybrid => candidate.cached_overlay = Some(Arc::new(m.clone())),
                Representation::RedundantFree => {}
            }
        }
        let seq = journal(&candidate)?;
        *inst = candidate;
        shard.stamp(seq);
        Ok(true)
    }

    /// Current access statistics (a relaxed snapshot of the atomic
    /// counters).
    pub fn stats(&self) -> AccessStats {
        self.stats.snapshot()
    }

    /// Byte-level memory accounting across all instances (Fig. 2),
    /// composed shard by shard.
    pub fn memory(&self, repo: &SchemaRepository) -> MemoryBreakdown {
        let mut mb = MemoryBreakdown {
            schema_bytes: repo.schema_bytes(),
            ..Default::default()
        };
        for shard in self.shards.iter() {
            let shard = shard.read();
            for inst in shard.instances.values() {
                mb.state_bytes += inst.state.approx_size();
                mb.bias_bytes += inst.bias.approx_size() + inst.subst.approx_size();
                if let Some(fc) = &inst.full_copy {
                    mb.full_copy_bytes += fc.approx_size();
                }
                if let Some(c) = &inst.cached_overlay {
                    mb.cache_bytes += c.approx_size();
                }
            }
        }
        mb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_core::{apply_op, ChangeOp, NewActivity};
    use adept_model::SchemaBuilder;
    use adept_state::Execution;

    fn setup(strategy: Representation) -> (SchemaRepository, InstanceStore, String) {
        let mut b = SchemaBuilder::new("t");
        b.activity("a");
        b.activity("b");
        b.activity("c");
        let schema = b.build().unwrap();
        let repo = SchemaRepository::new();
        let name = repo.deploy(schema).unwrap();
        let store = InstanceStore::new(strategy);
        (repo, store, name)
    }

    fn make_biased(
        repo: &SchemaRepository,
        store: &InstanceStore,
        name: &str,
    ) -> (InstanceId, ProcessSchema) {
        let dep = repo.deployed(name, 1).unwrap();
        let ex = dep.execution();
        let st = ex.init().unwrap();
        let id = store.create(name, 1, st.clone());
        let mut materialized = (*dep.schema).clone();
        materialized.reserve_private_id_space();
        let a = materialized.node_by_name("a").unwrap().id;
        let b = materialized.node_by_name("b").unwrap().id;
        let mut bias = Delta::new();
        bias.push(
            apply_op(
                &mut materialized,
                &ChangeOp::SerialInsert {
                    activity: NewActivity::named("ad-hoc"),
                    pred: a,
                    succ: b,
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
        (id, materialized)
    }

    #[test]
    fn unbiased_instances_share_schema() {
        let (repo, store, name) = setup(Representation::Hybrid);
        let dep = repo.deployed(&name, 1).unwrap();
        let st = dep.execution().init().unwrap();
        let i1 = store.create(&name, 1, st.clone());
        let i2 = store.create(&name, 1, st);
        let s1 = store.schema_of(&repo, i1).unwrap();
        let s2 = store.schema_of(&repo, i2).unwrap();
        assert!(Arc::ptr_eq(&s1, &s2), "redundant-free: same Arc");
        assert_eq!(store.stats().shared_hits, 2);
        assert_eq!(store.stats().materializations, 0);
    }

    #[test]
    fn hybrid_caches_overlay() {
        let (repo, store, name) = setup(Representation::Hybrid);
        let (id, materialized) = make_biased(&repo, &store, &name);
        let s1 = store.schema_of(&repo, id).unwrap();
        assert_eq!(*s1, materialized);
        assert_eq!(store.stats().materializations, 1);
        let s2 = store.schema_of(&repo, id).unwrap();
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(store.stats().cache_hits, 1);
        assert_eq!(store.stats().materializations, 1, "no re-materialisation");
    }

    #[test]
    fn redundant_free_rematerializes_every_access() {
        let (repo, store, name) = setup(Representation::RedundantFree);
        let (id, _) = make_biased(&repo, &store, &name);
        store.schema_of(&repo, id).unwrap();
        store.schema_of(&repo, id).unwrap();
        assert_eq!(store.stats().materializations, 2);
    }

    #[test]
    fn full_copy_stores_per_instance_schema() {
        let (repo, store, name) = setup(Representation::FullCopy);
        let (id, _) = make_biased(&repo, &store, &name);
        let mem = store.memory(&repo);
        assert!(mem.full_copy_bytes > 0, "{mem:?}");
        let _ = store.schema_of(&repo, id).unwrap();
        assert_eq!(store.stats().shared_hits, 1, "full copy needs no overlay");
    }

    #[test]
    fn memory_breakdown_orders_strategies() {
        // Hybrid bias bytes should be far below a full schema copy. The
        // advantage appears for realistically sized schemas (the fixed
        // overhead of a block can exceed a 5-node toy schema), so build a
        // 40-activity process.
        fn setup_large(strategy: Representation) -> (SchemaRepository, InstanceStore, String) {
            let mut b = SchemaBuilder::new("large");
            b.activity("a");
            b.activity("b");
            for i in 0..40 {
                b.activity(&format!("step {i}"));
            }
            let schema = b.build().unwrap();
            let repo = SchemaRepository::new();
            let name = repo.deploy(schema).unwrap();
            (repo, InstanceStore::new(strategy), name)
        }
        let (repo_h, store_h, name_h) = setup_large(Representation::Hybrid);
        make_biased(&repo_h, &store_h, &name_h);
        let (repo_f, store_f, name_f) = setup_large(Representation::FullCopy);
        make_biased(&repo_f, &store_f, &name_f);
        let mem_h = store_h.memory(&repo_h);
        let mem_f = store_f.memory(&repo_f);
        assert!(
            mem_h.bias_bytes < mem_f.full_copy_bytes / 2,
            "substitution block ({}) must be far smaller than a schema copy ({})",
            mem_h.bias_bytes,
            mem_f.full_copy_bytes
        );
    }

    #[test]
    fn instance_queries() {
        let (repo, store, name) = setup(Representation::Hybrid);
        let dep = repo.deployed(&name, 1).unwrap();
        let st = dep.execution().init().unwrap();
        assert!(store.is_empty());
        let id = store.create(&name, 1, st);
        assert_eq!(store.len(), 1);
        assert_eq!(store.instances_of(&name), vec![id]);
        assert!(store.get(id).is_some());
        assert!(store.get(InstanceId(999)).is_none());
        let ex = Execution::with_blocks(&dep.schema, (*dep.blocks).clone());
        let _ = ex;
    }

    #[test]
    fn ids_and_instances_of_are_sorted_across_shards() {
        let (repo, store, name) = setup(Representation::Hybrid);
        assert_eq!(store.shard_count(), DEFAULT_SHARD_COUNT);
        let dep = repo.deployed(&name, 1).unwrap();
        let st = dep.execution().init().unwrap();
        let created: Vec<InstanceId> = (0..100)
            .map(|_| store.create(&name, 1, st.clone()))
            .collect();
        assert_eq!(store.len(), 100);
        assert_eq!(store.ids(), created, "ids() must be in id order");
        assert_eq!(store.instances_of(&name), created);
        let (all, stamps) = store.all_stamped();
        assert!(stamps.is_empty(), "nothing was journaled");
        assert_eq!(all.len(), 100);
        assert!(all.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn per_type_index_partitions_types() {
        let repo = SchemaRepository::new();
        let mut names = Vec::new();
        for t in ["alpha", "beta"] {
            let mut b = SchemaBuilder::new(t);
            b.activity("a");
            names.push(repo.deploy(b.build().unwrap()).unwrap());
        }
        let store = InstanceStore::new(Representation::Hybrid);
        let mut per_type: BTreeMap<String, Vec<InstanceId>> = BTreeMap::new();
        for k in 0..40 {
            let name = &names[k % 2];
            let dep = repo.deployed(name, 1).unwrap();
            let id = store.create(name, 1, dep.execution().init().unwrap());
            per_type.entry(name.clone()).or_default().push(id);
        }
        for (name, expected) in per_type {
            assert_eq!(store.instances_of(&name), expected);
        }
        assert!(store.instances_of("no such type").is_empty());
    }

    #[test]
    fn remove_drops_instance_and_index_entry() {
        let (repo, store, name) = setup(Representation::Hybrid);
        let dep = repo.deployed(&name, 1).unwrap();
        let st = dep.execution().init().unwrap();
        let i1 = store.create(&name, 1, st.clone());
        let i2 = store.create(&name, 1, st);
        let unjournaled = |_: &StoredInstance| Ok::<_, ()>(0);
        let removed = store
            .remove(i1, unjournaled)
            .unwrap()
            .expect("instance existed");
        assert_eq!(removed.id, i1);
        assert!(store.get(i1).is_none());
        assert!(
            store.remove(i1, unjournaled).unwrap().is_none(),
            "double remove is None"
        );
        assert_eq!(store.instances_of(&name), vec![i2]);
        assert_eq!(store.ids(), vec![i2]);
        // The id is not reused.
        let dep = repo.deployed(&name, 1).unwrap();
        let i3 = store.create(&name, 1, dep.execution().init().unwrap());
        assert!(i3.raw() > i2.raw());
    }

    #[test]
    fn allocator_is_atomic_and_monotonic_across_threads() {
        let (repo, store, name) = setup(Representation::Hybrid);
        let dep = repo.deployed(&name, 1).unwrap();
        let st = dep.execution().init().unwrap();
        let ids: Vec<Vec<InstanceId>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let st = st.clone();
                    let store = &store;
                    let name = &name;
                    scope.spawn(move || {
                        (0..100)
                            .map(|_| store.create(name, 1, st.clone()))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut flat: Vec<u64> = ids.into_iter().flatten().map(|i| i.raw()).collect();
        flat.sort_unstable();
        flat.dedup();
        assert_eq!(flat.len(), 400, "no id handed out twice");
        assert_eq!(store.len(), 400);
        assert_eq!(store.ids().len(), 400);
    }

    #[test]
    fn restored_ids_advance_the_atomic_allocator() {
        let (repo, store, name) = setup(Representation::Hybrid);
        let dep = repo.deployed(&name, 1).unwrap();
        let st = dep.execution().init().unwrap();
        store.insert_restored(StoredInstance {
            id: InstanceId(u32::MAX as u64 + 5),
            type_name: name.clone(),
            version: 1,
            bias: Delta::new(),
            subst: SubstitutionBlock::default(),
            state: st.clone(),
            full_copy: None,
            cached_overlay: None,
        });
        let fresh = store.create(&name, 1, st);
        assert!(
            fresh.raw() > u32::MAX as u64 + 5,
            "allocator must jump past restored 64-bit ids, got {fresh}"
        );
    }

    #[test]
    fn single_shard_store_behaves_identically() {
        let mut b = SchemaBuilder::new("t");
        b.activity("a");
        b.activity("b");
        b.activity("c");
        let repo = SchemaRepository::new();
        let name = repo.deploy(b.build().unwrap()).unwrap();
        let store = InstanceStore::with_shards(Representation::Hybrid, 1);
        assert_eq!(store.shard_count(), 1);
        let (id, _) = make_biased(&repo, &store, &name);
        assert!(store.schema_of(&repo, id).is_some());
        assert_eq!(store.stats().materializations, 1);
        assert_eq!(store.ids(), vec![id]);
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        for (requested, expected) in [(0, 1), (1, 1), (3, 4), (16, 16), (17, 32)] {
            let store = InstanceStore::with_shards(Representation::Hybrid, requested);
            assert_eq!(store.shard_count(), expected, "requested {requested}");
        }
    }
}
