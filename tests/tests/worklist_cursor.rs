//! The epoch-stamped worklist cursor API (`worklist_delta`):
//!
//! * replay — applying deltas from epoch 0 (drop `invalidated`, replace
//!   `added` item sets) reconstructs exactly `worklist_full()` after
//!   arbitrary command/change-txn/migrate/remove interleavings,
//!   property-checked over generated simgen lifecycles;
//! * threaded stress — 4 writers mutating instances while 2 cursor
//!   readers stream deltas: the final reconstruction loses no item and
//!   resurrects none (removed instances stay gone);
//! * contract — a `since > 0` poll sees a direct `store` write only
//!   after `refresh_worklist`; the `since == 0` bootstrap sweeps it in.

use adept_engine::{ProcessEngine, WorkItem};
use adept_model::InstanceId;
use adept_simgen::{scenarios, RandomDriver};
use adept_tests::{adhoc, drive_with, evolve};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// Canonical, order-independent rendering of a worklist for comparison.
fn canon(mut items: Vec<WorkItem>) -> Vec<String> {
    items.sort_by_key(|w| (w.instance.raw(), w.node.raw()));
    items
        .into_iter()
        .map(|w| {
            format!(
                "{}:{}:{}:{}:{}:{}",
                w.instance,
                w.node,
                w.activity,
                w.role.as_deref().unwrap_or("<anyone>"),
                w.type_name,
                w.version
            )
        })
        .collect()
}

/// A consumer's materialized view: applies deltas the documented way —
/// drop every invalidated id, then replace every added id's item set.
#[derive(Default)]
struct View {
    items: BTreeMap<InstanceId, Vec<WorkItem>>,
    epoch: u64,
}

impl View {
    fn poll(&mut self, engine: &ProcessEngine) {
        let d = engine.worklist_delta(self.epoch);
        for id in &d.invalidated {
            self.items.remove(id);
        }
        for (id, items) in d.added {
            self.items.insert(id, items);
        }
        self.epoch = d.epoch;
    }

    fn flat(&self) -> Vec<WorkItem> {
        self.items.values().flatten().cloned().collect()
    }
}

#[test]
fn delta_streams_changes_and_removals() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let mut view = View::default();
    view.poll(&engine);
    assert!(view.items.is_empty());

    let a = engine.create_instance(&name).unwrap();
    let b = engine.create_instance(&name).unwrap();
    view.poll(&engine);
    assert_eq!(view.items.len(), 2);
    assert_eq!(canon(view.flat()), canon(engine.worklist_full()));

    // An unchanged world yields an empty delta — the point of the API.
    let d = engine.worklist_delta(view.epoch);
    assert!(d.added.is_empty() && d.invalidated.is_empty());

    // Progress on one instance surfaces only that instance.
    let mut driver = RandomDriver::new(1);
    drive_with(&engine, a, &mut driver, Some(1)).unwrap();
    let d = engine.worklist_delta(view.epoch);
    assert_eq!(d.added.len(), 1);
    assert_eq!(d.added[0].0, a);
    assert!(d.invalidated.is_empty());
    view.poll(&engine);
    assert_eq!(canon(view.flat()), canon(engine.worklist_full()));

    // Removal streams as an invalidation.
    engine.remove_instance(b).unwrap();
    let d = engine.worklist_delta(view.epoch);
    assert_eq!(d.invalidated, vec![b]);
    view.poll(&engine);
    assert_eq!(canon(view.flat()), canon(engine.worklist_full()));
}

/// An unresolvable index miss (an instance whose type the repository
/// does not know) is recomputed ONCE, not on every poll: the delta scan
/// installs the recomputed (empty) item set stamped with the pre-scan
/// epoch, and reports the resolution failure to the monitor exactly
/// once — a permanently dangling instance must not churn every delta
/// consumer and grow the event log without bound.
#[test]
fn unresolvable_miss_is_recomputed_once_not_every_poll() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    engine.create_instance(&name).unwrap();

    // Corrupt entry: an instance of a type the repository does not know.
    let dep = engine.repo.deployed(&name, 1).unwrap();
    let ghost_state = dep.execution().init().unwrap();
    let ghost = engine.store.create("ghost type", 1, ghost_state);

    let before = engine.monitor.len();
    let d1 = engine.worklist_delta(0);
    assert!(
        d1.added
            .iter()
            .any(|(id, items)| *id == ghost && items.is_empty()),
        "the unresolvable instance is reported once, offering nothing"
    );

    // Nothing changed: the ghost must not be re-missed and re-reported.
    let d2 = engine.worklist_delta(d1.epoch);
    assert!(
        d2.added.iter().all(|(id, _)| *id != ghost),
        "unresolvable miss re-reported on every poll"
    );
    let d3 = engine.worklist_delta(d2.epoch);
    assert!(d3.added.iter().all(|(id, _)| *id != ghost));

    let failures = engine.monitor.events()[before..]
        .iter()
        .filter(|(_, e)| {
            matches!(
                e,
                adept_engine::EngineEvent::WorklistResolutionFailed { instance, .. }
                    if *instance == ghost
            )
        })
        .count();
    assert_eq!(failures, 1, "the failure reaches the monitor exactly once");
}

/// A poll past the bootstrap sees only mutations the engine made or was
/// told about: an instance written straight into the public `store`
/// after the bootstrap stays invisible to `since > 0` deltas until
/// `refresh_worklist` names it — then it is reported exactly once (with
/// one resolution-failure event, as the ghost's type is unknown) — while
/// a fresh `since == 0` bootstrap, which sweeps the store, reports it.
#[test]
fn direct_store_writes_surface_after_refresh_or_in_a_bootstrap() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    engine.create_instance(&name).unwrap();
    let d0 = engine.worklist_delta(0);

    let dep = engine.repo.deployed(&name, 1).unwrap();
    let ghost = engine
        .store
        .create("ghost type", 1, dep.execution().init().unwrap());
    let before = engine.monitor.len();

    let d1 = engine.worklist_delta(d0.epoch);
    assert!(
        d1.added.iter().all(|(id, _)| *id != ghost) && !d1.invalidated.contains(&ghost),
        "a direct store write is not engine-visible until refreshed"
    );

    engine.refresh_worklist(ghost);
    let d2 = engine.worklist_delta(d1.epoch);
    assert_eq!(d2.added, vec![(ghost, Vec::new())], "reported once");
    assert!(d2.invalidated.is_empty());
    let d3 = engine.worklist_delta(d2.epoch);
    assert!(
        d3.added.is_empty() && d3.invalidated.is_empty(),
        "not twice"
    );

    let failures = engine.monitor.events()[before..]
        .iter()
        .filter(|(_, e)| {
            matches!(
                e,
                adept_engine::EngineEvent::WorklistResolutionFailed { instance, .. }
                    if *instance == ghost
            )
        })
        .count();
    assert_eq!(failures, 1);

    // A second ghost, never refreshed: only the bootstrap sweep finds it.
    let unseen = engine
        .store
        .create("ghost type", 1, dep.execution().init().unwrap());
    let fresh = engine.worklist_delta(0);
    assert!(fresh.added.iter().any(|(id, _)| *id == unseen));
    assert!(fresh.added.iter().any(|(id, _)| *id == ghost));
}

/// 4 writers (create/drive/refresh/remove on disjoint instance pools) +
/// 2 cursor readers polling concurrently. After the writers join, one
/// final poll per reader must reconstruct exactly the full recompute: no
/// lost items, no resurrected (removed) instances.
#[test]
fn threaded_writers_and_cursor_readers_converge() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let done = AtomicBool::new(false);

    let views: Vec<View> = std::thread::scope(|s| {
        let writers: Vec<_> = (0..4u64)
            .map(|w| {
                let engine = &engine;
                let name = &name;
                s.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(w ^ 0xbeef);
                    let mut mine: Vec<InstanceId> = Vec::new();
                    let mut removed = Vec::new();
                    for round in 0..30u64 {
                        let id = engine.create_instance(name).unwrap();
                        mine.push(id);
                        let steps = rng.gen_range(0..4);
                        let mut driver = RandomDriver::new(w << 32 | round);
                        let _ = drive_with(engine, id, &mut driver, Some(steps));
                        // Tombstone an older instance: readers resolve it
                        // against the store while writers keep going.
                        if round % 3 == 1 {
                            engine.refresh_worklist(mine[rng.gen_range(0..mine.len())]);
                        }
                        // Periodically remove an older instance: readers
                        // must never resurrect it.
                        if round % 5 == 4 {
                            let victim = mine.remove(rng.gen_range(0..mine.len()));
                            engine.remove_instance(victim).unwrap();
                            removed.push(victim);
                        }
                    }
                    removed
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let engine = &engine;
                let done = &done;
                s.spawn(move || {
                    let mut view = View::default();
                    while !done.load(Ordering::Acquire) {
                        view.poll(engine);
                    }
                    view.poll(engine); // final, post-quiescence poll
                    view
                })
            })
            .collect();
        let removed: Vec<InstanceId> = writers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        done.store(true, Ordering::Release);
        let views: Vec<View> = readers.into_iter().map(|h| h.join().unwrap()).collect();
        for view in &views {
            for id in &removed {
                assert!(
                    !view.items.contains_key(id),
                    "removed {id} resurrected in a reader's view"
                );
            }
        }
        views
    });

    let reference = canon(engine.worklist_full());
    for (k, view) in views.iter().enumerate() {
        assert_eq!(
            canon(view.flat()),
            reference.clone(),
            "reader {k} diverged from the full recompute"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 20,
        ..ProptestConfig::default()
    })]

    /// Replaying `worklist_delta` from epoch 0 reconstructs exactly
    /// `worklist_full()` after arbitrary interleavings of commands,
    /// change-transaction commits, evolution + migration, and removals —
    /// polled at random points, so partial replays must compose too.
    #[test]
    fn delta_replay_reconstructs_full_worklist(seed in 0u64..10_000, steps in 8usize..24) {
        let schema = adept_simgen::generate_schema(&adept_simgen::GenParams::sized(12), seed);
        let engine = ProcessEngine::new();
        let name = engine.deploy(schema).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xde17a);
        let mut view = View::default();
        let mut ids: Vec<InstanceId> = Vec::new();

        for step in 0..steps {
            match rng.gen_range(0u8..8) {
                0 | 1 => ids.push(engine.create_instance(&name).unwrap()),
                2..=4 => {
                    if let Some(id) = ids.get(rng.gen_range(0..ids.len().max(1))).copied() {
                        let mut driver = RandomDriver::new(seed ^ (step as u64));
                        let _ = drive_with(&engine, id, &mut driver, Some(rng.gen_range(1..4)));
                    }
                }
                5 => {
                    if let Some(id) = ids.get(rng.gen_range(0..ids.len().max(1))).copied() {
                        let current = engine.store.schema_of(&engine.repo, id).unwrap();
                        for kind in adept_simgen::ALL_OP_KINDS {
                            if let Some(op) =
                                adept_simgen::changegen::propose(&current, kind, &mut rng, "p")
                            {
                                let _ = adhoc(&engine, id, &op);
                                break;
                            }
                        }
                    }
                }
                6 => {
                    let latest = engine.repo.latest_version(&name).unwrap();
                    let schema = engine.repo.deployed(&name, latest).unwrap().schema.clone();
                    let mut erng = SmallRng::seed_from_u64(seed ^ (step as u64) << 8);
                    if let Some(op) = adept_simgen::changegen::propose(
                        &schema,
                        adept_simgen::OpKind::SerialInsert,
                        &mut erng,
                        &format!("evo{step}"),
                    ) {
                        if evolve(&engine, &name, &[op]).is_ok() {
                            let _ = engine.migrate_all(&name, &Default::default(), 1);
                        }
                    }
                }
                _ => {
                    if !ids.is_empty() {
                        let victim = ids.remove(rng.gen_range(0..ids.len()));
                        let _ = engine.remove_instance(victim);
                    }
                }
            }
            if rng.gen_bool(0.4) {
                view.poll(&engine);
            }
        }
        view.poll(&engine);
        prop_assert_eq!(
            canon(view.flat()),
            canon(engine.worklist_full()),
            "delta replay diverged (seed {})", seed
        );
        // A fresh bootstrap (since 0) agrees too.
        let mut fresh = View::default();
        fresh.poll(&engine);
        prop_assert_eq!(
            canon(fresh.flat()),
            canon(engine.worklist_full()),
            "bootstrap delta diverged (seed {})", seed
        );
    }
}
