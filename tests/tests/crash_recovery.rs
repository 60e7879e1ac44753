//! Crash recovery: the durable engine's snapshot + WAL replay must
//! reproduce the uninterrupted run **byte for byte**.
//!
//! The property harness runs a generated lifecycle — creations, driven
//! execution, ad-hoc change attempts, evolutions + full-population
//! migrations, removals — on a durable engine, snapshots at a random
//! prefix, then "crashes" (drops the engine) and recovers twice: from
//! the prefix snapshot + WAL tail, and from the WAL alone. Both
//! recovered engines must serialise to the exact JSON the uninterrupted
//! engine produced. The fixtures cover the crash semantics: a torn
//! final record is truncated (on both backends), a corrupted interior
//! record is a hard error, a checkpoint truncates the log only after
//! the snapshot is safe, and a literal kill-9-style `abort()` in a
//! child process recovers to the last complete record.

use adept_engine::{recovery, EngineError, ProcessEngine};
use adept_model::InstanceId;
use adept_simgen::{scenarios, RandomDriver};
use adept_storage::{from_json, to_json, FileBackend, MemoryBackend, StorageError, SyncPolicy};
use adept_tests::{adhoc, drive_with, evolve};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A collision-free scratch path (no tempfile dependency): pid + counter.
fn temp_wal_path(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("adept-crash-{}-{tag}-{n}.wal", std::process::id()))
}

fn durable_engine(backend: Box<dyn adept_storage::StorageBackend>) -> (ProcessEngine, String) {
    let engine = ProcessEngine::with_wal(backend).unwrap();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    (engine, name)
}

/// One lifecycle step, deterministically derived from the inputs (the
/// same action vocabulary as the store-sharding equivalence suite).
fn apply_step(
    engine: &ProcessEngine,
    name: &str,
    ids: &mut Vec<InstanceId>,
    action: u8,
    pick: usize,
    step_seed: u64,
) {
    match action {
        0 | 1 => {
            let id = engine.create_instance(name).unwrap();
            ids.push(id);
        }
        2..=4 => {
            let Some(id) = ids.get(pick % ids.len().max(1)).copied() else {
                return;
            };
            let mut driver = RandomDriver::new(step_seed);
            let _ = drive_with(engine, id, &mut driver, Some(1 + (step_seed % 3) as usize));
        }
        5 => {
            let Some(id) = ids.get(pick % ids.len().max(1)).copied() else {
                return;
            };
            let version = engine.store.get(id).unwrap().version;
            let schema = &engine.repo.deployed(name, version).unwrap().schema;
            let op = scenarios::fig1_i2_bias_op(schema);
            let _ = adhoc(engine, id, &op);
        }
        6 => {
            let latest = engine.repo.latest_version(name).unwrap();
            let schema = engine.repo.deployed(name, latest).unwrap().schema.clone();
            if schema.node_by_name("send questions").is_some() {
                return; // the Fig. 1 delta only applies to the base shape
            }
            let ops = scenarios::fig1_delta_ops(&schema);
            if evolve(engine, name, &ops).is_ok() {
                let _ = engine.migrate_all(name, &adept_core::MigrationOptions::default(), 1);
            }
        }
        _ => {
            let Some(id) = ids.get(pick % ids.len().max(1)).copied() else {
                return;
            };
            ids.retain(|i| *i != id);
            let _ = engine.remove_instance(id);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// Snapshot-at-random-prefix + WAL-tail replay (and WAL-only replay)
    /// reproduce the uninterrupted engine byte for byte, on both
    /// backends.
    #[test]
    fn recovery_reproduces_uninterrupted_run(
        seed in 0u64..10_000,
        steps in 6usize..20,
        prefix in 0usize..20,
    ) {
        for file_backed in [false, true] {
            let medium = MemoryBackend::new();
            let path = temp_wal_path("prop");
            let backend: Box<dyn adept_storage::StorageBackend> = if file_backed {
                Box::new(FileBackend::with_policy(&path, SyncPolicy::Never))
            } else {
                Box::new(medium.clone())
            };
            let (engine, name) = durable_engine(backend);

            let mut rng = SmallRng::seed_from_u64(seed);
            let mut ids: Vec<InstanceId> = Vec::new();
            let mut mid_snapshot = engine.snapshot();
            let snapshot_at = prefix % steps;
            for step in 0..steps {
                let action = rng.gen_range(0u8..8);
                let pick = rng.gen_range(0usize..1_000);
                let step_seed = rng.gen::<u64>();
                apply_step(&engine, &name, &mut ids, action, pick, step_seed);
                if step == snapshot_at {
                    mid_snapshot = engine.snapshot();
                }
            }
            let final_json = to_json(&engine.snapshot()).unwrap();
            drop(engine); // crash: only the journaled log survives

            let reopen = || -> Box<dyn adept_storage::StorageBackend> {
                if file_backed {
                    Box::new(FileBackend::with_policy(&path, SyncPolicy::Never))
                } else {
                    Box::new(medium.clone())
                }
            };
            // Snapshot + WAL tail.
            let (rec, _) = recovery::recover_from(Some(&mid_snapshot), reopen()).unwrap();
            prop_assert_eq!(
                &to_json(&rec.snapshot()).unwrap(),
                &final_json,
                "snapshot+tail recovery diverged (seed {}, file={})", seed, file_backed
            );
            // WAL alone, from the first record.
            let (rec2, _) = recovery::recover(reopen()).unwrap();
            prop_assert_eq!(
                &to_json(&rec2.snapshot()).unwrap(),
                &final_json,
                "wal-only recovery diverged (seed {}, file={})", seed, file_backed
            );
            if file_backed {
                std::fs::remove_file(&path).ok();
            }
        }
    }
}

#[test]
fn torn_tail_is_truncated_on_recovery() {
    let medium = MemoryBackend::new();
    let (engine, name) = durable_engine(Box::new(medium.clone()));
    let survivor = engine.create_instance(&name).unwrap();
    let expected_json = to_json(&engine.snapshot()).unwrap();
    let torn = engine.create_instance(&name).unwrap();
    drop(engine);

    // kill -9 mid-append: the final record loses its tail bytes.
    let raw = medium.raw();
    medium.set_raw(&raw[..raw.len() - 5]);

    let (rec, report) = recovery::recover(Box::new(medium)).unwrap();
    assert!(
        report.torn_tail_bytes > 0,
        "the torn record must be counted"
    );
    assert!(rec.store.get(survivor).is_some());
    assert!(
        rec.store.get(torn).is_none(),
        "a torn record must not half-apply"
    );
    assert_eq!(
        to_json(&rec.snapshot()).unwrap(),
        expected_json,
        "recovery lands exactly on the last complete record"
    );
}

#[test]
fn file_backend_torn_tail_is_repaired_on_disk() {
    let path = temp_wal_path("torn-file");
    {
        let (engine, name) = durable_engine(Box::new(FileBackend::new(&path)));
        engine.create_instance(&name).unwrap();
        engine.create_instance(&name).unwrap();
    }
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

    let (rec, report) = recovery::recover(Box::new(FileBackend::new(&path))).unwrap();
    // The torn tail is the whole partial record after the last newline.
    assert!(report.torn_tail_bytes > 0);
    assert_eq!(rec.store.len(), 1);
    // The repair happened on the medium: the file ends at the last
    // complete record, so a second recovery sees a clean log.
    let repaired = std::fs::read(&path).unwrap();
    assert!(repaired.ends_with(b"\n"));
    assert!(repaired.len() < bytes.len());
    std::fs::remove_file(&path).ok();
}

#[test]
fn interior_corruption_is_a_hard_error() {
    let medium = MemoryBackend::new();
    let (engine, name) = durable_engine(Box::new(medium.clone()));
    engine.create_instance(&name).unwrap();
    engine.create_instance(&name).unwrap();
    drop(engine);

    let raw = String::from_utf8(medium.raw()).unwrap();
    let mut lines: Vec<&str> = raw.lines().collect();
    assert!(lines.len() >= 3);
    // A *complete* but undecodable record mid-log: bit rot, not a crash.
    lines[1] = "this is not a wal record";
    let corrupted = lines.join("\n") + "\n";
    medium.set_raw(corrupted.as_bytes());

    let err = recovery::recover(Box::new(medium)).unwrap_err();
    assert!(
        matches!(err, EngineError::Storage(StorageError::Corrupt { .. })),
        "mid-log corruption must refuse recovery, got: {err}"
    );
}

#[test]
fn checkpoint_truncates_wal_and_recovery_resumes_from_it() {
    let medium = MemoryBackend::new();
    let (engine, name) = durable_engine(Box::new(medium.clone()));
    let id = engine.create_instance(&name).unwrap();
    let mut driver = RandomDriver::new(7);
    drive_with(&engine, id, &mut driver, Some(2)).unwrap();

    let mut saved: Option<String> = None;
    engine
        .checkpoint_with(|s| {
            saved = Some(to_json(s)?);
            Ok(())
        })
        .unwrap();
    assert!(
        medium.raw().is_empty(),
        "a successful checkpoint truncates the log"
    );

    // Post-checkpoint work lands in the (fresh) log with continued seqs.
    engine.create_instance(&name).unwrap();
    let final_json = to_json(&engine.snapshot()).unwrap();
    drop(engine);

    let snap = from_json(&saved.unwrap()).unwrap();
    let (rec, report) = recovery::recover_from(Some(&snap), Box::new(medium.clone())).unwrap();
    assert_eq!(report.skipped, 0);
    assert_eq!(to_json(&rec.snapshot()).unwrap(), final_json);

    // Without the snapshot the truncated log has a hole at its start —
    // recovery must refuse rather than rebuild a partial world.
    let err = recovery::recover(Box::new(medium)).unwrap_err();
    assert!(
        matches!(err, EngineError::Storage(StorageError::Corrupt { .. })),
        "recovering a truncated log without its snapshot must fail, got: {err}"
    );
}

#[test]
fn failed_checkpoint_persist_keeps_the_wal() {
    let medium = MemoryBackend::new();
    let (engine, name) = durable_engine(Box::new(medium.clone()));
    engine.create_instance(&name).unwrap();
    let before = medium.raw();
    let err = engine
        .checkpoint_with(|_| {
            Err(StorageError::io(
                "persist",
                &std::io::Error::other("disk full"),
            ))
        })
        .unwrap_err();
    assert!(matches!(err, EngineError::Storage(StorageError::Io { .. })));
    assert_eq!(
        medium.raw(),
        before,
        "a failed persist must not drop the log"
    );
}

// ---------------------------------------------------------------------
// Segmented WAL: merged recovery, per-segment torn tails, lost segments
// ---------------------------------------------------------------------

/// Four in-memory segments, so each one is inspectable after the crash.
fn segmented_mediums(n: usize) -> Vec<MemoryBackend> {
    (0..n).map(|_| MemoryBackend::new()).collect()
}

fn boxed(mediums: &[MemoryBackend]) -> Vec<Box<dyn adept_storage::StorageBackend>> {
    mediums
        .iter()
        .map(|m| Box::new(m.clone()) as Box<dyn adept_storage::StorageBackend>)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        ..ProptestConfig::default()
    })]

    /// The segmented journal recovers byte-identical to the uninterrupted
    /// run: the same generated lifecycle runs on a 4-segment engine, the
    /// segments are merged on recovery (snapshot + tail AND WAL alone),
    /// and both recovered engines serialise to the exact same JSON.
    #[test]
    fn segmented_recovery_reproduces_uninterrupted_run(
        seed in 0u64..10_000,
        steps in 6usize..16,
        prefix in 0usize..16,
    ) {
        let mediums = segmented_mediums(4);
        let engine = ProcessEngine::with_segmented_wal(boxed(&mediums)).unwrap();
        let name = engine.deploy(scenarios::order_process()).unwrap();

        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ids: Vec<InstanceId> = Vec::new();
        let mut mid_snapshot = engine.snapshot();
        let snapshot_at = prefix % steps;
        for step in 0..steps {
            let action = rng.gen_range(0u8..8);
            let pick = rng.gen_range(0usize..1_000);
            let step_seed = rng.gen::<u64>();
            apply_step(&engine, &name, &mut ids, action, pick, step_seed);
            if step == snapshot_at {
                mid_snapshot = engine.snapshot();
            }
        }
        let final_json = to_json(&engine.snapshot()).unwrap();
        // The appends really spread: with several records, more than one
        // segment must hold data (round-robin by sequence).
        let populated = mediums.iter().filter(|m| !m.raw().is_empty()).count();
        prop_assert!(populated > 1, "appends did not spread across segments");
        drop(engine); // crash: only the journaled segments survive

        let (rec, _) =
            recovery::recover_from_segmented(Some(&mid_snapshot), boxed(&mediums)).unwrap();
        prop_assert_eq!(
            &to_json(&rec.snapshot()).unwrap(),
            &final_json,
            "segmented snapshot+tail recovery diverged (seed {})", seed
        );
        let (rec2, _) = recovery::recover_segmented(boxed(&mediums)).unwrap();
        prop_assert_eq!(
            &to_json(&rec2.snapshot()).unwrap(),
            &final_json,
            "segmented wal-only recovery diverged (seed {})", seed
        );
    }
}

/// A torn tail in ONE segment — the crash hit mid-append of the globally
/// last record — truncates that record only; the siblings' records all
/// survive and the world lands exactly on the last complete record.
#[test]
fn segmented_torn_tail_in_one_segment_only() {
    let mediums = segmented_mediums(2);
    let engine = ProcessEngine::with_segmented_wal(boxed(&mediums)).unwrap();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let survivor = engine.create_instance(&name).unwrap();
    let expected_json = to_json(&engine.snapshot()).unwrap();
    let torn = engine.create_instance(&name).unwrap();
    // The globally-last record (seq = position()) lives in exactly one
    // segment: seq → segment (seq - 1) mod 2.
    let last_seq = engine.wal().position();
    let torn_segment = ((last_seq - 1) % 2) as usize;
    drop(engine);

    let raw = mediums[torn_segment].raw();
    mediums[torn_segment].set_raw(&raw[..raw.len() - 5]);

    let (rec, report) = recovery::recover_segmented(boxed(&mediums)).unwrap();
    assert!(report.torn_tail_bytes > 0);
    assert!(rec.store.get(survivor).is_some());
    assert!(
        rec.store.get(torn).is_none(),
        "a torn record must not half-apply"
    );
    assert_eq!(
        to_json(&rec.snapshot()).unwrap(),
        expected_json,
        "recovery lands exactly on the last complete record"
    );
}

/// A whole segment gone (file lost, not a crash tear) leaves periodic
/// holes spanning the whole merged sequence — far wider than the
/// crash-tail repair window — and recovery must refuse with a gap error
/// rather than rebuild a world with every Nth record missing. The
/// workload is sized so the holes span well past
/// [`recovery::TAIL_REPAIR_WINDOW`], distinguishing this from the
/// bounded tail gap a crash under concurrent appends leaves (which
/// recovery *does* repair; see
/// [`crash_tail_gap_from_concurrent_appends_is_repaired`]).
#[test]
fn missing_segment_is_a_gap_error() {
    let mediums = segmented_mediums(2);
    let engine = ProcessEngine::with_segmented_wal(boxed(&mediums)).unwrap();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    for _ in 0..(2 * recovery::TAIL_REPAIR_WINDOW) {
        engine.create_instance(&name).unwrap();
    }
    drop(engine);

    for lost in 0..2usize {
        let mut backends = boxed(&mediums);
        // The lost segment reopens empty (a fresh medium), its sibling
        // intact — half the sequences are simply gone.
        backends[lost] = Box::new(MemoryBackend::new());
        let err = recovery::recover_segmented(backends).unwrap_err();
        assert!(
            matches!(err, EngineError::Storage(StorageError::Corrupt { .. })),
            "a lost segment must refuse recovery, got: {err}"
        );
    }
}

/// The crash window of concurrent segmented appends: sequence allocation
/// is decoupled from the durable write, so a crash can leave an
/// earlier-allocated record torn (or never written) in one segment while
/// a later sequence is already durable in a sibling. The resulting
/// bounded tail gap must be repaired — truncating back to the last
/// contiguous record — not refused as corruption, and the repair must be
/// physical so a second recovery sees a clean log.
#[test]
fn crash_tail_gap_from_concurrent_appends_is_repaired() {
    let mediums = segmented_mediums(2);
    let engine = ProcessEngine::with_segmented_wal(boxed(&mediums)).unwrap();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let survivor = engine.create_instance(&name).unwrap();
    let expected_json = to_json(&engine.snapshot()).unwrap();
    // Two more records: seq 3 → segment 0, seq 4 → segment 1.
    let torn = engine.create_instance(&name).unwrap();
    let stranded = engine.create_instance(&name).unwrap();
    assert_eq!(engine.wal().position(), 4);
    drop(engine);

    // The crash: seq 3's append died mid-write (torn tail in segment 0)
    // while seq 4 had already completed in segment 1.
    let raw = mediums[0].raw();
    mediums[0].set_raw(&raw[..raw.len() - 5]);

    let (rec, report) = recovery::recover_segmented(boxed(&mediums)).unwrap();
    assert!(report.torn_tail_bytes > 0, "the tear itself is counted");
    assert_eq!(
        report.tail_dropped, 1,
        "seq 4, stranded past the gap, is truncated away"
    );
    assert_eq!(
        report.last_seq, 2,
        "the world ends at the last contiguous record"
    );
    assert!(rec.store.get(survivor).is_some());
    assert!(
        rec.store.get(torn).is_none(),
        "the torn record must not apply"
    );
    assert!(
        rec.store.get(stranded).is_none(),
        "a record past the gap was never acknowledged and must not apply"
    );
    assert_eq!(
        to_json(&rec.snapshot()).unwrap(),
        expected_json,
        "recovery lands exactly on the last contiguous record"
    );
    // The recovered engine resumes the sequence where the repair cut it.
    let next = rec.create_instance(&name).unwrap();
    assert!(rec.store.get(next).is_some());
    drop(rec);

    // The repair was physical: recovering the same mediums again finds a
    // contiguous log with nothing to drop.
    let (rec2, report2) = recovery::recover_segmented(boxed(&mediums)).unwrap();
    assert_eq!(report2.torn_tail_bytes, 0);
    assert_eq!(report2.tail_dropped, 0);
    assert!(
        rec2.store.get(next).is_some(),
        "post-repair appends survive"
    );
}

/// The same crash window with an entirely *unwritten* (not torn) earlier
/// record, recovered from a snapshot: the gap opens right at the
/// snapshot watermark, which is still a repairable crash tail — the
/// snapshot covers the base.
#[test]
fn crash_tail_gap_at_snapshot_watermark_is_repaired() {
    let mediums = segmented_mediums(2);
    let engine = ProcessEngine::with_segmented_wal(boxed(&mediums)).unwrap();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    engine.create_instance(&name).unwrap();
    let snap = engine.snapshot();
    let expected_json = to_json(&snap).unwrap();
    engine.create_instance(&name).unwrap(); // seq 3 → segment 0
    engine.create_instance(&name).unwrap(); // seq 4 → segment 1
    drop(engine);

    // Seq 3 never reached its medium at all: drop segment 0's last line.
    let text = String::from_utf8(mediums[0].raw()).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    lines.pop();
    let kept = lines.join("\n") + "\n";
    mediums[0].set_raw(kept.as_bytes());

    let (rec, report) = recovery::recover_from_segmented(Some(&snap), boxed(&mediums)).unwrap();
    assert_eq!(
        report.torn_tail_bytes, 0,
        "nothing was torn — seq 3 is simply absent"
    );
    assert_eq!(report.tail_dropped, 1, "seq 4 is truncated away");
    assert_eq!(report.last_seq, snap.wal_seq);
    assert_eq!(
        to_json(&rec.snapshot()).unwrap(),
        expected_json,
        "the world is exactly the snapshot"
    );
}

/// File-backed segments end to end: `FileBackend::segments` derives the
/// per-segment paths, the engine group-commits under `Always`, and
/// recovery reopens the same paths and merges them.
#[test]
fn file_backed_segments_recover_merged() {
    let base = temp_wal_path("seg-file");
    let open_segments = || adept_storage::FileBackend::segments(&base, 4, SyncPolicy::Always);
    let engine = ProcessEngine::with_segmented_wal(open_segments()).unwrap();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    let mut driver = RandomDriver::new(3);
    drive_with(&engine, id, &mut driver, Some(2)).unwrap();
    let final_json = to_json(&engine.snapshot()).unwrap();
    drop(engine);

    let (rec, report) = recovery::recover_segmented(open_segments()).unwrap();
    assert_eq!(report.divergent, Vec::<InstanceId>::new());
    assert_eq!(to_json(&rec.snapshot()).unwrap(), final_json);
    for i in 0..4 {
        let mut p = base.clone().into_os_string();
        p.push(format!(".seg{i:02}"));
        std::fs::remove_file(PathBuf::from(p)).ok();
    }
}

/// Child half of [`kill_and_restart_recovers`]: runs a deterministic
/// workload against a durable engine at `ADEPT_CRASH_WAL`, then dies via
/// `abort()` — no destructors, no flushes beyond the WAL's own
/// write-ahead appends. Ignored in normal runs; the parent test invokes
/// it explicitly in a child process.
#[test]
#[ignore = "helper child for kill_and_restart_recovers; aborts the process"]
fn crash_workload_child() {
    let Some(path) = std::env::var_os("ADEPT_CRASH_WAL") else {
        return; // invoked without the harness: nothing to do
    };
    let (engine, name) = durable_engine(Box::new(FileBackend::new(path)));
    for k in 0..5u64 {
        let id = engine.create_instance(&name).unwrap();
        let mut driver = RandomDriver::new(k);
        let _ = drive_with(&engine, id, &mut driver, Some(2));
    }
    std::process::abort();
}

/// Kill-and-restart: a child process runs a durable workload and is
/// killed hard (`abort`, the in-process `kill -9`); the parent recovers
/// the WAL file and must find the exact world the child had committed.
#[test]
fn kill_and_restart_recovers() {
    let path = temp_wal_path("kill9");
    let exe = std::env::current_exe().unwrap();
    let status = std::process::Command::new(exe)
        .args(["--exact", "crash_workload_child", "--ignored"])
        .env("ADEPT_CRASH_WAL", &path)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .unwrap();
    assert!(!status.success(), "the child must die by abort");

    let (engine, report) = recovery::recover(Box::new(FileBackend::new(&path))).unwrap();
    assert_eq!(report.divergent, Vec::<InstanceId>::new());
    assert_eq!(engine.store.len(), 5, "all committed creations survive");
    let name = engine.repo.type_names().pop().unwrap();
    assert_eq!(engine.repo.latest_version(&name), Some(1));
    // The recovered engine keeps journaling to the same log.
    let id = engine.create_instance(&name).unwrap();
    assert!(engine.store.get(id).is_some());
    assert_eq!(engine.store.len(), 6);
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------
// Command deltas: single commands, interior withdrawals, shard stamps
// ---------------------------------------------------------------------

mod deltas {
    use super::*;
    use adept_engine::EngineCommand;
    use adept_storage::Snapshot;
    use adept_tests::command_mix;
    use adept_tests::journals::{Journal, Layout, LAYOUTS};

    fn mix_engine(journal: &Journal) -> (ProcessEngine, String) {
        let engine = ProcessEngine::with_segmented_wal(journal.backends()).unwrap();
        let name = engine.deploy(command_mix::process()).unwrap();
        (engine, name)
    }

    /// The recovered engine's snapshot JSON and the instances its
    /// history audit flagged.
    fn recover_json(snapshot: Option<&Snapshot>, journal: &Journal) -> (String, Vec<InstanceId>) {
        let (rec, report) = recovery::recover_from_segmented(snapshot, journal.backends()).unwrap();
        (to_json(&rec.snapshot()).unwrap(), report.divergent)
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 8,
            ..ProptestConfig::default()
        })]

        /// Lifecycles of single `Start`, `Complete`, `FailActivity` and
        /// `DecideXor` commands — plus start-and-fail batches, drives,
        /// ad-hoc changes and undos, evolve+migrate and removals — recover
        /// byte-identical to the live run from a prefix snapshot + tail and
        /// from the WAL alone, on every journal layout. Failing an
        /// activity after another one started withdraws an interior
        /// `Started` event; its delta must cut the history there.
        #[test]
        fn command_deltas_recover_byte_identical(
            seed in 0u64..10_000,
            steps in 10usize..40,
            prefix in 0usize..40,
        ) {
            for layout in LAYOUTS {
                let journal = Journal::new(layout, "mix");
                let (engine, name) = mix_engine(&journal);
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut ids: Vec<InstanceId> = Vec::new();
                let mut mid_snapshot = engine.snapshot();
                let snapshot_at = prefix % steps;
                for step in 0..steps {
                    let action = rng.gen_range(0..command_mix::ACTIONS);
                    let pick = rng.gen_range(0usize..1_000);
                    let step_seed = rng.gen::<u64>();
                    command_mix::step(&engine, &name, &mut ids, action, pick, step_seed);
                    if step == snapshot_at {
                        mid_snapshot = engine.snapshot();
                    }
                }
                let final_json = to_json(&engine.snapshot()).unwrap();
                drop(engine);
                prop_assert_eq!(
                    &recover_json(Some(&mid_snapshot), &journal).0,
                    &final_json,
                    "snapshot+tail recovery diverged (seed {}, {:?})", seed, layout
                );
                prop_assert_eq!(
                    &recover_json(None, &journal).0,
                    &final_json,
                    "wal-only recovery diverged (seed {}, {:?})", seed, layout
                );
            }
        }
    }

    /// Starts two parallel activities and fails the first: the delta of
    /// the failure cuts the history below its end.
    fn interior_failure(engine: &ProcessEngine, id: InstanceId) {
        let (schema, _) = engine.materialized(id).unwrap();
        let node = |n: &str| schema.node_by_name(n).unwrap().id;
        let amount = schema.data_elements().next().unwrap().id;
        let submit = |cmd| engine.submit(cmd).unwrap();
        submit(EngineCommand::Start {
            instance: id,
            node: node("get order"),
        });
        submit(EngineCommand::Complete {
            instance: id,
            node: node("get order"),
            writes: vec![(amount, adept_model::Value::Int(3))],
        });
        submit(EngineCommand::Start {
            instance: id,
            node: node("confirm"),
        });
        submit(EngineCommand::Start {
            instance: id,
            node: node("compose"),
        });
        submit(EngineCommand::FailActivity {
            instance: id,
            node: node("confirm"),
            reason: "withdrawn".into(),
        });
    }

    /// A snapshot whose state runs ahead of its watermark — the race
    /// `ProcessEngine::snapshot` allows under traffic, since it reads the
    /// watermark before the store — recovers byte-identical: the shard
    /// stamps tell replay which deltas the state already holds. Without
    /// them the same document is refused, never silently diverged.
    #[test]
    fn snapshot_running_ahead_of_its_watermark_recovers_exactly() {
        for layout in LAYOUTS {
            let journal = Journal::new(layout, "ahead");
            let (engine, name) = mix_engine(&journal);
            let ids: Vec<InstanceId> = (0..3)
                .map(|_| engine.create_instance(&name).unwrap())
                .collect();
            let p = engine.snapshot().wal_seq;
            interior_failure(&engine, ids[0]);
            for id in &ids[1..] {
                adept_tests::drive(&engine, *id, Some(2)).unwrap();
            }
            let mut ahead = engine.snapshot();
            assert!(ahead.wal_seq > p);
            ahead.wal_seq = p;
            // Traffic after the snapshot still replays.
            adept_tests::drive(&engine, ids[2], Some(1)).unwrap();
            engine.create_instance(&name).unwrap();
            let final_json = to_json(&engine.snapshot()).unwrap();
            drop(engine);

            assert_eq!(
                recover_json(Some(&ahead), &journal),
                (final_json, vec![]),
                "{layout:?}"
            );
            ahead.wal_stamps.clear();
            let err = recovery::recover_from_segmented(Some(&ahead), journal.backends())
                .map(|_| ())
                .unwrap_err();
            assert!(
                matches!(err, EngineError::Storage(StorageError::Corrupt { .. })),
                "{layout:?}: replaying deltas the state already holds must be refused, got {err}"
            );
        }
    }

    /// A delta whose prior history length does not match its instance
    /// refuses recovery with an error naming the record's sequence.
    #[test]
    fn delta_guard_mismatch_names_its_seq() {
        let journal = Journal::new(Layout::Memory, "guard");
        let (engine, name) = mix_engine(&journal);
        let id = engine.create_instance(&name).unwrap();
        interior_failure(&engine, id);
        drop(engine);

        let text = String::from_utf8(journal.raw(0)).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let (at, seq) = lines
            .iter()
            .enumerate()
            .find_map(|(i, l)| {
                let e = adept_storage::wal::decode_entry(l).unwrap();
                matches!(e.record, adept_storage::WalRecord::CommandApplied { .. })
                    .then_some((i, e.seq))
            })
            .expect("a command delta was journaled");
        let edited = lines[at].replacen("\"history_len\":0", "\"history_len\":7", 1);
        assert_ne!(
            edited, lines[at],
            "the first delta starts from an empty history"
        );
        lines[at] = edited;
        journal.set_raw(0, (lines.join("\n") + "\n").as_bytes());

        let err = recovery::recover_from_segmented(None, journal.backends())
            .map(|_| ())
            .unwrap_err();
        match err {
            EngineError::Storage(StorageError::Corrupt { detail }) => {
                assert!(detail.contains(&format!("wal #{seq}:")), "{detail}")
            }
            other => panic!("expected a corrupt-log refusal, got {other}"),
        }
    }

    /// A medium whose appends fail while armed.
    #[derive(Debug)]
    struct Flaky {
        inner: MemoryBackend,
        armed: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl adept_storage::StorageBackend for Flaky {
        fn append_line(&self, line: &str) -> Result<(), StorageError> {
            if self.armed.load(Ordering::SeqCst) {
                return Err(StorageError::corrupt("injected append failure"));
            }
            self.inner.append_line(line)
        }
        fn sync(&self) -> Result<(), StorageError> {
            self.inner.sync()
        }
        fn read_log(&self) -> Result<adept_storage::RawLog, StorageError> {
            self.inner.read_log()
        }
        fn reset(&self) -> Result<(), StorageError> {
            self.inner.reset()
        }
        fn kind(&self) -> &'static str {
            "flaky"
        }
    }

    /// A command group whose delta cannot be journaled is rolled back
    /// from its mark — the withdrawn `Started` event, the marking and the
    /// written data all restored — and the engine, its log and a recovery
    /// from that log stay in step afterwards.
    #[test]
    fn failed_delta_append_rolls_the_group_back() {
        let medium = MemoryBackend::new();
        let armed = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let engine = ProcessEngine::with_wal(Box::new(Flaky {
            inner: medium.clone(),
            armed: armed.clone(),
        }))
        .unwrap();
        let name = engine.deploy(command_mix::process()).unwrap();
        let id = engine.create_instance(&name).unwrap();
        interior_failure(&engine, id);
        let (schema, _) = engine.materialized(id).unwrap();
        let node = |n: &str| schema.node_by_name(n).unwrap().id;
        let note = schema.data_elements().nth(1).unwrap().id;
        engine
            .submit(EngineCommand::Start {
                instance: id,
                node: node("confirm"),
            })
            .unwrap();
        let before = engine.store.get(id).unwrap().state;
        let json_before = to_json(&engine.snapshot()).unwrap();

        armed.store(true, Ordering::SeqCst);
        let group = vec![
            EngineCommand::FailActivity {
                instance: id,
                node: node("compose"),
                reason: "withdrawn".into(),
            },
            EngineCommand::Complete {
                instance: id,
                node: node("confirm"),
                writes: vec![(note, adept_model::Value::Str("x".into()))],
            },
        ];
        for out in engine.submit_batch(group) {
            assert!(matches!(out, Err(EngineError::Storage(_))), "{out:?}");
        }
        assert_eq!(engine.store.get(id).unwrap().state, before);
        assert_eq!(to_json(&engine.snapshot()).unwrap(), json_before);

        armed.store(false, Ordering::SeqCst);
        engine
            .submit(EngineCommand::Drive {
                instance: id,
                max: None,
            })
            .unwrap();
        let final_json = to_json(&engine.snapshot()).unwrap();
        drop(engine);
        let (rec, report) = recovery::recover(Box::new(medium)).unwrap();
        assert!(report.divergent.is_empty());
        assert_eq!(to_json(&rec.snapshot()).unwrap(), final_json);
    }

    /// A format-3 document (no shard stamps) still restores and recovers
    /// over a tail of command deltas.
    #[test]
    fn format_3_snapshot_recovers_over_a_delta_tail() {
        let journal = Journal::new(Layout::Memory, "fmt3");
        let (engine, name) = mix_engine(&journal);
        let id = engine.create_instance(&name).unwrap();
        adept_tests::drive(&engine, id, Some(1)).unwrap();
        let mut snap = engine.snapshot();
        interior_failure(&engine, engine.create_instance(&name).unwrap());
        adept_tests::drive(&engine, id, None).unwrap();
        let final_json = to_json(&engine.snapshot()).unwrap();
        drop(engine);

        snap.format = 3;
        snap.wal_stamps.clear();
        let json = to_json(&snap).unwrap().replace(",\"wal_stamps\":[]", "");
        assert!(!json.contains("wal_stamps"));
        let parsed = from_json(&json).unwrap();
        assert_eq!(recover_json(Some(&parsed), &journal), (final_json, vec![]));
    }
}
