//! # adept-storage — hybrid schema/instance storage (paper Fig. 2)
//!
//! *"The implementation of ADEPT2 has raised many challenges, e.g., with
//! respect to storage representation of schema and instance data: Unchanged
//! instances are stored in a redundant-free manner by referencing their
//! original schema and by capturing instance-specific data (e.g., activity
//! states). ... For each biased instance we maintain a minimal substitution
//! block that captures all changes applied to it so far. This block is then
//! used to overlay parts of the original schema when accessing the
//! instance."*
//!
//! * [`SchemaRepository`] — deployed process types and version chains;
//!   every version's schema + block structure is stored exactly once.
//! * [`SubstitutionBlock`] — the minimal overlay of a biased instance and
//!   its pure-graph-patch [`SubstitutionBlock::overlay`].
//! * [`InstanceStore`] — instances under one of three representation
//!   strategies (the two alternatives the paper dismisses and the hybrid
//!   approach it adopts), with access statistics and byte-level memory
//!   accounting for the Fig. 2 experiments.
//! * [`TxnLog`] — the append-only log of committed change transactions
//!   (ops + recorded inverses), embedded in persistence snapshots.
//!
//! # Concurrency: the sharded instance store
//!
//! The paper's core promise is executing and migrating **thousands of
//! concurrent instances** on the fly, so the instance store is built for
//! multi-threaded traffic rather than wrapped in one global lock:
//!
//! * **N-way sharding** — instances are spread over
//!   [`instances::DEFAULT_SHARD_COUNT`] independent `RwLock`-protected
//!   maps, keyed by `InstanceId::hash64()`. Per-instance operations
//!   (get, update, and the two compare-and-set installs
//!   [`InstanceStore::set_bias`] / [`InstanceStore::migrate`], each
//!   taking a write-ahead journaling hook) touch exactly one shard;
//!   commands on different instances proceed in parallel. Type-level
//!   installs go through [`SchemaRepository::deploy_journaled`] and
//!   [`SchemaRepository::install_evolution`], likewise hook-taking.
//! * **Lock-free id allocation** — a single `AtomicU64`. The old
//!   allocator was a `RwLock<u32>` that silently wrapped at `u32::MAX`;
//!   the 64-bit space cannot realistically be exhausted.
//! * **Atomic access stats** — [`AccessStats`] is a snapshot of relaxed
//!   atomic counters. Cache-hit schema reads no longer take a stats
//!   *write* lock (let alone one nested inside the instances read lock).
//! * **Per-shard type index** — [`InstanceStore::instances_of`] is served
//!   from a per-shard `type name → ids` index instead of scanning every
//!   instance in the store.
//! * **Cross-shard composition** — `ids()`, `len()`, `memory()`, `all()`
//!   and snapshotting visit shards one at a time (release before next
//!   acquire), so whole-store reads never block the write hot path behind
//!   a global barrier.
//!
//! Lock order: **machine-checked**. Every lock in this crate (and in
//! `adept-engine`) is an [`ordered::OrderedRwLock`] /
//! [`ordered::OrderedMutex`] carrying a declared [`ordered::LockClass`];
//! debug and `--features lock-order-check` builds validate every
//! acquisition against the class DAG and panic (with both acquisition
//! sites) on a rank inversion or a second same-class shard outside the
//! ascending sweep API. The single authoritative class table and its
//! rationale live in `docs/LOCK_ORDER.md`.
//! `InstanceStore::with_shards(_, 1)` reproduces the old single-map
//! behaviour and serves as the contention baseline in the
//! `store_throughput` benchmark.
//!
//! # Durability & recovery
//!
//! ADEPT2 is a *production-grade* engine: instance state, change
//! transactions and migration outcomes must survive an engine crash, not
//! just a polite shutdown. The durability subsystem provides exactly
//! that, in three layers:
//!
//! * **[`StorageBackend`]** ([`backend`]) — the pluggable medium: an
//!   append-only line store with `append_line` / `sync` / `read_log` /
//!   `reset`. Two implementations ship: [`MemoryBackend`] (shared
//!   in-memory buffer with fault-injection hooks, for tests and benches)
//!   and [`FileBackend`] (an embedded durable file with a configurable
//!   [`SyncPolicy`] — fsync every append, every N appends, or never).
//!   Under `SyncPolicy::Always` the file backend **group-commits**:
//!   concurrent appenders write under the state lock but fsync outside
//!   it, and an appender whose write is already covered by a later
//!   fsync skips its own — N concurrent durable appends cost far fewer
//!   than N fsyncs, with no durability loss (an append returns only
//!   once a sync covering its record has completed).
//! * **[`WriteAheadLog`]** ([`wal`]) — every committed change transaction
//!   and every state-mutating command outcome is appended as one compact
//!   JSON line ([`WalEntry`]) **before** it becomes visible engine state.
//!   A command journals a **delta** ([`WalRecord::CommandApplied`]): the
//!   events and writes it appended after a history cut point, and the
//!   marking entries it changed — a record's size is the command's, not
//!   the instance history's. Creations, ad-hoc changes and migration
//!   hops journal full post-images. A delta applies only to the state it
//!   was taken against (its prior history and write-log lengths are
//!   checked on replay; a mismatch is [`StorageError::Corrupt`]) and only
//!   once: every instance record is journaled under its store shard's
//!   write lock, which stamps the shard with the record's sequence. The
//!   WAL *is* the transaction log: [`TxnLog`] is a view over its
//!   transaction projection. The log can be
//!   **segmented** over several backends
//!   ([`WriteAheadLog::create_segmented`], a power-of-two count):
//!   sequence `s` lands on segment `(s − 1) mod N`, allocation is one
//!   atomic `fetch_add`, and an append locks only its own segment —
//!   concurrent journaling from different store shards stops
//!   serializing on a single backend lock. One segment is byte-identical
//!   to the unsegmented layout; `open_segmented` merges segments back
//!   into one globally ordered stream and refuses duplicate sequences.
//! * **Snapshots + replay** ([`persist`]) — format-4 snapshots record the
//!   WAL watermark (`wal_seq`), read before the store, and every shard's
//!   journal stamp (`wal_stamps`), read under the guard its instances
//!   were read under. Recovery loads the latest snapshot, replays the WAL
//!   tail (`seq > wal_seq`) onto it — skipping the instance records a
//!   shard's stamp shows the snapshot already holds
//!   ([`Snapshot::covers`]) — and ends at the exact pre-crash engine,
//!   byte-for-byte equal to an uninterrupted run's snapshot. Format-3, 2
//!   and 1 documents still restore.
//!
//! Crash semantics: a record is appended with a single write of
//! `line + '\n'`, so a crash mid-append leaves a *torn tail* — bytes
//! after the last newline. [`StorageBackend::read_log`] truncates the
//! torn tail (on the medium) and recovery proceeds from the last complete
//! record. With segments the same rule applies per segment, and the
//! replay layer then classifies any gap left in the *merged* stream: a
//! bounded gap near the global tail is the normal crash residue of
//! concurrent segmented appends (an earlier-allocated record torn or
//! unwritten while a later sequence is already durable in a sibling) and
//! is repaired by truncating every segment back to the last contiguous
//! sequence; a wide gap (a lost segment leaves periodic holes across the
//! whole stream) or a leading gap with no snapshot covering the start is
//! refused as corruption. A failed append whose sequence cannot be
//! returned to the allocator is plugged with a durable no-op tombstone
//! ([`WalRecord::Abandoned`]), so transient backend errors never leave
//! permanent holes; snapshots record the WAL's **durable position** (the
//! highest contiguous successfully-appended sequence,
//! [`WriteAheadLog::durable_position`]) rather than the raw allocator, so
//! a watermark never claims coverage of an in-flight append. A *complete*
//! line that does not decode cannot be produced by a crash; it means the
//! medium was damaged, and recovery refuses to start
//! ([`StorageError::Corrupt`]). All failures on the persistence path are
//! typed ([`error`]): backend I/O, corrupt streams, and encode failures
//! are distinguishable, and a journaling failure during a commit aborts
//! the commit instead of silently diverging from the log.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod error;
pub mod instances;
pub mod ordered;
pub mod persist;
pub mod repo;
pub mod shards;
pub mod subst;
pub mod txnlog;
pub mod wal;

pub use backend::{FileBackend, MemoryBackend, RawLog, StorageBackend, SyncPolicy};
pub use error::{JournaledError, StorageError};
pub use instances::{
    AccessStats, InstanceStore, MemoryBreakdown, Representation, StoredInstance,
    DEFAULT_SHARD_COUNT,
};
pub use ordered::{LockClass, OrderedMutex, OrderedRwLock};
pub use persist::{
    from_json, restore, restore_with_txns, snapshot, snapshot_with_txns, to_json, InstanceRecord,
    Snapshot,
};
pub use repo::{DeployedSchema, SchemaRepository};
pub use shards::Shards;
pub use subst::SubstitutionBlock;
pub use txnlog::{TxnLog, TxnRecord, TxnTarget};
pub use wal::{TxnAppend, WalEntry, WalRecord, WriteAheadLog};
