//! The schema repository: process types and their version chains.

use crate::error::JournaledError;
use crate::error::StorageError;
use crate::ordered::classes;
use crate::shards::Shards;
use adept_core::{ChangeError, ChangeOp, Delta, ProcessType};
use adept_model::{Blocks, CompiledSchema, ProcessSchema, SchemaId};
use adept_state::Execution;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A deployed schema version with its pre-computed block structure, shared
/// by every unbiased instance of that version (the redundant-free side of
/// paper Fig. 2).
#[derive(Debug, Clone)]
pub struct DeployedSchema {
    /// The schema.
    pub schema: Arc<ProcessSchema>,
    /// Its block structure (computed once at deployment).
    pub blocks: Arc<Blocks>,
}

impl DeployedSchema {
    fn new(schema: ProcessSchema) -> Result<Self, ChangeError> {
        let blocks = Blocks::analyze(&schema)
            .map_err(|e| ChangeError::Precondition(format!("block analysis failed: {e}")))?;
        Ok(Self {
            schema: Arc::new(schema),
            blocks: Arc::new(blocks),
        })
    }

    /// An interpreter borrowing this deployment (schema *and* block
    /// structure — nothing is cloned).
    pub fn execution(&self) -> Execution<'_> {
        Execution::with_blocks_ref(&self.schema, &self.blocks)
    }
}

/// Shard count of the repository's type and deployment tables.
const REPO_SHARDS: usize = 16;

/// FNV-1a over the type name — both tables shard on it, so a type's
/// `ProcessType` entry and all its deployed versions co-locate.
fn name_key(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The repository of process types. Thread-safe: migrations read schema
/// versions from many worker threads.
///
/// Both tables are sharded over [`Shards`] by a hash of the type name, so
/// `schema_of` cache misses during mass adaptation of instances of
/// *different* types stop serializing on one global lock — the same
/// discipline the instance store uses. Lock order is machine-checked:
/// the tables carry the `repo.types-shard` / `repo.deployed-shard` /
/// `repo.compiled-shard` classes (installs hold the first two across the
/// double insert so readers never observe a type without its deployment);
/// see `docs/LOCK_ORDER.md` for the authoritative class DAG.
///
/// The `compiled` table caches the [`CompiledSchema`] arena of each
/// committed `(type, version)` — the flat execution core every unbiased
/// instance of that version shares. It fills lazily on first demand
/// ([`SchemaRepository::compiled`]) and is evicted when a redeploy resets
/// a type's version chain; evolutions only append fresh version keys, so
/// they never invalidate an existing arena.
#[derive(Debug)]
pub struct SchemaRepository {
    types: Shards<BTreeMap<String, ProcessType>>,
    deployed: Shards<BTreeMap<(String, u32), DeployedSchema>>,
    compiled: Shards<BTreeMap<(String, u32), Arc<CompiledSchema>>>,
    next_schema_id: AtomicU32,
}

impl Default for SchemaRepository {
    fn default() -> Self {
        Self {
            types: Shards::new(&classes::REPO_TYPES, REPO_SHARDS),
            deployed: Shards::new(&classes::REPO_DEPLOYED, REPO_SHARDS),
            compiled: Shards::new(&classes::REPO_COMPILED, REPO_SHARDS),
            next_schema_id: AtomicU32::new(0),
        }
    }
}

impl SchemaRepository {
    /// An empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deploys a new process type (version 1). The schema must verify.
    pub fn deploy(&self, schema: ProcessSchema) -> Result<String, ChangeError> {
        self.deploy_with(self.assign_id(schema), |_| Ok(()))
    }

    /// Deploys a schema **keeping its embedded id** — the restore/replay
    /// path: a recovered world must end up with the exact schema ids of
    /// the pre-crash one (post-images in the WAL reference them), so the
    /// id counter advances past the recorded id instead of reassigning.
    pub fn deploy_recorded(&self, schema: ProcessSchema) -> Result<String, ChangeError> {
        self.next_schema_id
            .fetch_max(schema.id.0, Ordering::Relaxed);
        self.deploy_with(schema, |_| Ok(()))
    }

    /// Deploys a new type with a write-ahead journaling hook: `journal`
    /// runs after the schema has verified and analysed, **before** the
    /// deployment becomes visible. If journaling fails nothing is
    /// installed.
    pub fn deploy_journaled(
        &self,
        schema: ProcessSchema,
        journal: impl FnOnce(&ProcessSchema) -> Result<(), StorageError>,
    ) -> Result<String, JournaledError> {
        self.deploy_with(self.assign_id(schema), |s| Ok(journal(s)?))
    }

    /// Stamps a fresh schema id on a schema about to be deployed.
    fn assign_id(&self, mut schema: ProcessSchema) -> ProcessSchema {
        schema.id = SchemaId(self.next_schema_id.fetch_add(1, Ordering::Relaxed) + 1);
        schema
    }

    /// The one deployment body: verify, analyse, journal, install.
    fn deploy_with<E: From<ChangeError>>(
        &self,
        schema: ProcessSchema,
        journal: impl FnOnce(&ProcessSchema) -> Result<(), E>,
    ) -> Result<String, E> {
        let name = schema.name.clone();
        let pt = ProcessType::new(schema)?;
        let dep = DeployedSchema::new(pt.latest().clone())?;
        journal(&dep.schema)?;
        self.install_type(name.clone(), pt, dep);
        Ok(name)
    }

    /// Installs a verified type + its V1 deployment atomically: both shard
    /// locks (types → deployed, the documented order) are held across the
    /// double insert, so no reader observes the type without its deployed
    /// schema.
    fn install_type(&self, name: String, pt: ProcessType, dep: DeployedSchema) {
        let k = name_key(&name);
        let mut types = self.types.for_raw(k).write();
        let mut deployed = self.deployed.for_raw(k).write();
        deployed.insert((name.clone(), 1), dep);
        // A redeploy resets the version chain: every cached arena of the
        // old chain is stale. Evicted under the types + deployed write
        // locks (ranks 40, 42 → 44, the documented ascending order), so
        // no reader can re-populate from the outgoing deployment.
        self.compiled
            .for_raw(k)
            .write()
            .retain(|(n, _), _| n != &name);
        types.insert(name, pt);
    }

    /// Evolves a type to a new version and returns `(new_version, delta)`.
    pub fn evolve(&self, name: &str, ops: &[ChangeOp]) -> Result<(u32, Delta), ChangeError> {
        let k = name_key(name);
        let mut types = self.types.for_raw(k).write();
        let pt = types
            .get_mut(name)
            .ok_or_else(|| ChangeError::Precondition(format!("unknown process type {name:?}")))?;
        let (v, delta) = pt.evolve(ops)?;
        let dep = DeployedSchema::new(pt.latest().clone())?;
        self.deployed
            .for_raw(k)
            .write()
            .insert((name.to_string(), v), dep);
        Ok((v, delta))
    }

    /// Installs an **already-verified** evolved schema as the next version
    /// of a type (the change-transaction commit path; see
    /// [`adept_core::ProcessType::push_prepared`]). `expected_base` guards
    /// against racing evolutions: if another transaction committed first,
    /// the install is rejected and nothing changes. Returns the new
    /// version number.
    ///
    /// `journal` receives the new version number and runs after the
    /// evolution has fully validated (version pushed, block structure
    /// analysed) but while the types shard lock is still held — i.e.
    /// **before** any reader can observe the new version, so the WAL
    /// records evolutions in their visibility order. If journaling fails
    /// the pushed version is rolled back and nothing is installed.
    pub fn install_evolution(
        &self,
        name: &str,
        expected_base: u32,
        schema: ProcessSchema,
        delta: Delta,
        journal: impl FnOnce(u32) -> Result<(), StorageError>,
    ) -> Result<u32, JournaledError> {
        let k = name_key(name);
        let mut types = self.types.for_raw(k).write();
        let pt = types
            .get_mut(name)
            .ok_or_else(|| ChangeError::Precondition(format!("unknown process type {name:?}")))?;
        if pt.version_count() != expected_base {
            return Err(ChangeError::Precondition(format!(
                "concurrent evolution: \"{name}\" is at V{}, transaction began on V{expected_base}",
                pt.version_count()
            ))
            .into());
        }
        let v = pt.push_prepared(schema, delta)?;
        let dep = match DeployedSchema::new(pt.latest().clone()) {
            Ok(dep) => dep,
            Err(e) => {
                pt.pop_prepared();
                return Err(e.into());
            }
        };
        if let Err(e) = journal(v) {
            pt.pop_prepared();
            return Err(e.into());
        }
        self.deployed
            .for_raw(k)
            .write()
            .insert((name.to_string(), v), dep);
        Ok(v)
    }

    /// The deployed schema of a specific version.
    pub fn deployed(&self, name: &str, version: u32) -> Option<DeployedSchema> {
        self.deployed
            .for_raw(name_key(name))
            .read()
            .get(&(name.to_string(), version))
            .cloned()
    }

    /// The compiled arena of a deployed `(type, version)` — the shared
    /// immutable execution core for unbiased instances. Compiled on first
    /// demand and cached; `None` when the version is not deployed.
    ///
    /// Lock discipline: a cache miss *releases* the compiled shard before
    /// reading the deployed shard (rank 44 must never be held while
    /// acquiring 42), compiles outside both locks, then re-acquires the
    /// compiled shard to insert. Racing missers may compile twice; the
    /// first insert wins and both return the same arena.
    pub fn compiled(&self, name: &str, version: u32) -> Option<Arc<CompiledSchema>> {
        let k = name_key(name);
        let key = (name.to_string(), version);
        if let Some(c) = self.compiled.for_raw(k).read().get(&key) {
            return Some(Arc::clone(c));
        }
        let dep = self.deployed(name, version)?;
        let arena = Arc::new(CompiledSchema::compile(&dep.schema, &dep.blocks));
        let mut shard = self.compiled.for_raw(k).write();
        Some(Arc::clone(shard.entry(key).or_insert(arena)))
    }

    /// Approximate bytes held by the compiled-arena cache (memory
    /// accounting next to [`SchemaRepository::schema_bytes`]).
    pub fn compiled_bytes(&self) -> usize {
        self.compiled
            .iter()
            .map(|s| s.read().values().map(|c| c.approx_size()).sum::<usize>())
            .sum()
    }

    /// The newest version number of a type.
    pub fn latest_version(&self, name: &str) -> Option<u32> {
        self.types
            .for_raw(name_key(name))
            .read()
            .get(name)
            .map(|t| t.version_count())
    }

    /// The delta transforming `from` into `from + 1`.
    pub fn delta_between(&self, name: &str, from: u32) -> Option<Delta> {
        self.types
            .for_raw(name_key(name))
            .read()
            .get(name)
            .and_then(|t| t.delta_between(from).cloned())
    }

    /// A snapshot of a whole process type (for reports and tests).
    pub fn process_type(&self, name: &str) -> Option<ProcessType> {
        self.types.for_raw(name_key(name)).read().get(name).cloned()
    }

    /// All deployed type names, sorted. Visits shards one at a time
    /// (release before next acquire) like the instance store's whole-store
    /// reads.
    pub fn type_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .types
            .iter()
            .flat_map(|s| s.read().keys().cloned().collect::<Vec<_>>())
            .collect();
        names.sort();
        names
    }

    /// Total bytes of all deployed schema versions (Fig. 2 accounting:
    /// schemas are stored once, not per instance).
    pub fn schema_bytes(&self) -> usize {
        self.deployed
            .iter()
            .map(|s| {
                s.read()
                    .values()
                    .map(|d| d.schema.approx_size())
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_core::NewActivity;
    use adept_model::SchemaBuilder;

    fn schema() -> ProcessSchema {
        let mut b = SchemaBuilder::new("t");
        b.activity("a");
        b.activity("b");
        b.build().unwrap()
    }

    #[test]
    fn deploy_and_evolve() {
        let repo = SchemaRepository::new();
        let name = repo.deploy(schema()).unwrap();
        assert_eq!(repo.latest_version(&name), Some(1));
        let v1 = repo.deployed(&name, 1).unwrap();
        let a = v1.schema.node_by_name("a").unwrap().id;
        let b = v1.schema.node_by_name("b").unwrap().id;
        let (v, delta) = repo
            .evolve(
                &name,
                &[ChangeOp::SerialInsert {
                    activity: NewActivity::named("x"),
                    pred: a,
                    succ: b,
                }],
            )
            .unwrap();
        assert_eq!(v, 2);
        assert_eq!(delta.len(), 1);
        assert_eq!(repo.latest_version(&name), Some(2));
        assert!(repo
            .deployed(&name, 2)
            .unwrap()
            .schema
            .node_by_name("x")
            .is_some());
        assert!(repo.delta_between(&name, 1).is_some());
        assert_eq!(repo.type_names(), vec![name]);
        assert!(repo.schema_bytes() > 0);
    }

    #[test]
    fn compiled_arena_cached_and_evicted() {
        let repo = SchemaRepository::new();
        let name = repo.deploy(schema()).unwrap();
        assert!(repo.compiled(&name, 2).is_none());
        let c1 = repo.compiled(&name, 1).unwrap();
        let c2 = repo.compiled(&name, 1).unwrap();
        assert!(Arc::ptr_eq(&c1, &c2), "cache must return the shared arena");
        assert_eq!(
            c1.node_count(),
            repo.deployed(&name, 1).unwrap().schema.node_count()
        );
        assert!(repo.compiled_bytes() > 0);
        // A redeploy resets the version chain: the old arena is evicted
        // and the next demand compiles from the new deployment.
        repo.deploy(schema()).unwrap();
        let c3 = repo.compiled(&name, 1).unwrap();
        assert!(!Arc::ptr_eq(&c1, &c3), "stale arena survived redeploy");
    }

    #[test]
    fn unknown_type_errors() {
        let repo = SchemaRepository::new();
        assert!(repo.evolve("nope", &[]).is_err());
        assert!(repo.deployed("nope", 1).is_none());
    }

    #[test]
    fn broken_schema_rejected_at_deploy() {
        let mut b = SchemaBuilder::new("bad");
        let d = b.data("x", adept_model::ValueType::Int);
        let r = b.activity("r");
        b.read(r, d); // never written
        let s = b.build().unwrap();
        let repo = SchemaRepository::new();
        assert!(repo.deploy(s).is_err());
    }

    #[test]
    fn names_spread_across_shards_and_compose() {
        let repo = SchemaRepository::new();
        let mut names = Vec::new();
        for i in 0..64 {
            let mut b = SchemaBuilder::new(format!("type-{i}"));
            b.activity("a");
            names.push(repo.deploy(b.build().unwrap()).unwrap());
        }
        names.sort();
        assert_eq!(repo.type_names(), names);
        // Schema ids stay unique under the atomic allocator.
        let mut ids: Vec<u32> = names
            .iter()
            .map(|n| repo.deployed(n, 1).unwrap().schema.id.0)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 64);
    }
}
