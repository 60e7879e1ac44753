//! Durability: a crash-safe engine on a write-ahead log.
//!
//! A durable engine journals every committed mutation — deployments,
//! creations, per-command state deltas, change transactions, migrations,
//! removals — to a [`StorageBackend`] *before* it becomes visible. After
//! a crash, [`recovery::recover_from`] rebuilds the exact engine from
//! the latest checkpoint snapshot plus the log tail; a torn final record
//! (the crash hit mid-append) is truncated away.
//!
//! Run with: `cargo run -p adept-examples --bin durability`

use adept_engine::{recovery, EngineCommand, ProcessEngine};
use adept_model::SchemaBuilder;
use adept_storage::{from_json, to_json, FileBackend, StorageBackend, SyncPolicy};

fn main() {
    let dir = std::env::temp_dir().join(format!("adept-durability-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let wal_path = dir.join("engine.wal");
    let snap_path = dir.join("checkpoint.json");
    // SyncPolicy::Always fsyncs every append — the strict guarantee.
    // Interval(n) / Never trade durability of the last records for speed.
    let backend = || -> Box<dyn StorageBackend> {
        Box::new(FileBackend::with_policy(&wal_path, SyncPolicy::Always))
    };

    // ---- Session 1: a durable engine does some work, then "crashes". --
    {
        let engine = ProcessEngine::with_wal(backend()).unwrap();
        let mut b = SchemaBuilder::new("expense approval");
        b.activity("submit expense");
        b.activity("payout");
        let name = engine.deploy(b.build().unwrap()).unwrap();

        let first = engine.create_instance(&name).unwrap();
        engine
            .submit(EngineCommand::Drive {
                instance: first,
                max: Some(1),
            })
            .unwrap();

        // Checkpoint: persist a snapshot, then truncate the log — the
        // WAL is only dropped after its replacement is safely on disk.
        engine
            .checkpoint_with(|snap| {
                std::fs::write(&snap_path, to_json(snap)?)
                    .map_err(|e| adept_storage::StorageError::io("write checkpoint", &e))
            })
            .unwrap();

        // Post-checkpoint work lands in the fresh log tail.
        engine.create_instance(&name).unwrap();
        println!(
            "session 1: {} instances, checkpoint at wal #{}, then crash",
            engine.store.len(),
            engine.snapshot().wal_seq
        );
        // The engine is dropped without any shutdown handshake — every
        // committed mutation is already on disk.
    }

    // ---- Session 2: restart from checkpoint + WAL tail. --------------
    let snapshot = from_json(&std::fs::read_to_string(&snap_path).unwrap()).unwrap();
    let (engine, report) = recovery::recover_from(Some(&snapshot), backend()).unwrap();
    println!(
        "session 2: recovered {} instances ({} wal records replayed, {} torn bytes dropped)",
        engine.store.len(),
        report.replayed,
        report.torn_tail_bytes
    );
    assert_eq!(engine.store.len(), 2);
    assert!(report.divergent.is_empty(), "history audit must pass");

    // The recovered engine is durable on the same log and just keeps
    // going.
    let name = engine.repo.type_names().pop().unwrap();
    let third = engine.create_instance(&name).unwrap();
    println!(
        "session 2: continued with {third}, {} instances total",
        engine.store.len()
    );

    std::fs::remove_dir_all(&dir).ok();
}
