//! Crash at every point of a command-delta log.
//!
//! A small generated workload of single commands — every step journals at
//! most one record, so the live engine is observable after each one — is
//! run once per journal layout (one memory medium, one file, four memory
//! segments), each on its own seed. The log is then cut at every record
//! boundary — recovered from the WAL alone and, past its watermark, from
//! a snapshot taken halfway plus the cut tail — and at every byte offset
//! inside its final record, recovered from the WAL alone. Every cut is
//! one a crash can leave, so each recovery must succeed and serialise
//! byte-for-byte to the live engine as it stood after the surviving
//! records — never rebuild a world that did not exist.

use adept_engine::{recovery, ProcessEngine};
use adept_model::InstanceId;
use adept_storage::wal::decode_entry;
use adept_storage::{to_json, Snapshot};
use adept_tests::command_mix;
use adept_tests::journals::{Journal, Layout, LAYOUTS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Records per workload (the deployment included).
const RECORDS: u64 = 36;

/// One journaled line: its sequence, its segment, its bytes (newline
/// included).
struct Line {
    seq: u64,
    segment: usize,
    bytes: Vec<u8>,
}

/// A finished workload: the live snapshot JSON after each record, a
/// snapshot taken halfway, and the journal's lines.
struct Run {
    expected: Vec<String>,
    mid: Snapshot,
    lines: Vec<Line>,
}

fn run_workload(layout: Layout, seed: u64) -> Run {
    let journal = Journal::new(layout, "points");
    let engine = ProcessEngine::with_segmented_wal(journal.backends()).unwrap();
    let mut expected = vec![to_json(&engine.snapshot()).unwrap()];
    let name = engine.deploy(command_mix::process()).unwrap();
    let mut mid = None;
    let mut ids: Vec<InstanceId> = Vec::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    while engine.wal().position() < RECORDS {
        expected.push(to_json(&engine.snapshot()).unwrap());
        assert_eq!(expected.len() as u64, engine.wal().position() + 1);
        if mid.is_none() && engine.wal().position() >= RECORDS / 2 {
            mid = Some(engine.snapshot());
        }
        let mut action = rng.gen_range(0..command_mix::ACTIONS);
        let mut pick = rng.gen_range(0usize..1_000);
        let step_seed = rng.gen::<u64>();
        if action == 11 {
            action = 9; // evolve+migrate journals a record per instance
        }
        // The final record — the one torn byte by byte — is a command
        // delta: a fresh instance's first start.
        match RECORDS - engine.wal().position() {
            2 => action = 0,
            1 => (action, pick) = (2, ids.len() - 1),
            _ => {}
        }
        let before = engine.wal().position();
        command_mix::step(&engine, &name, &mut ids, action, pick, step_seed);
        let after = engine.wal().position();
        assert!(
            after <= before + 1,
            "action {action} journaled {} records",
            after - before
        );
        if after == before {
            expected.pop();
        }
    }
    expected.push(to_json(&engine.snapshot()).unwrap());
    drop(engine);

    let mut lines = Vec::new();
    for segment in 0..journal.segments() {
        let raw = journal.raw(segment);
        for line in raw.split_inclusive(|b| *b == b'\n') {
            let text = std::str::from_utf8(line).unwrap().trim_end();
            lines.push(Line {
                seq: decode_entry(text).unwrap().seq,
                segment,
                bytes: line.to_vec(),
            });
        }
    }
    lines.sort_by_key(|l| l.seq);
    assert_eq!(lines.len() as u64, RECORDS);
    let last = std::str::from_utf8(&lines[lines.len() - 1].bytes).unwrap();
    assert!(last.contains("\"CommandApplied\""), "final record: {last}");
    Run {
        expected,
        mid: mid.expect("the workload passed its midpoint"),
        lines,
    }
}

/// A fresh journal of `layout` holding the records `1..=keep` whole, plus
/// the first `torn` bytes of record `keep + 1`.
fn cut(layout: Layout, run: &Run, keep: u64, torn: usize) -> Journal {
    let journal = Journal::new(layout, "cut");
    let mut segments = vec![Vec::new(); journal.segments()];
    for line in &run.lines {
        if line.seq <= keep {
            segments[line.segment].extend_from_slice(&line.bytes);
        } else if line.seq == keep + 1 {
            segments[line.segment].extend_from_slice(&line.bytes[..torn]);
        }
    }
    for (i, bytes) in segments.iter().enumerate() {
        journal.set_raw(i, bytes);
    }
    journal
}

/// Recovers `journal` (over `snapshot`, if any) and compares the result
/// with the live engine's snapshot JSON `expected`.
fn check(journal: &Journal, snapshot: Option<&Snapshot>, expected: &str, what: &str) {
    let (rec, _) = recovery::recover_from_segmented(snapshot, journal.backends())
        .unwrap_or_else(|e| panic!("{what}: recovery refused: {e}"));
    assert_eq!(to_json(&rec.snapshot()).unwrap(), expected, "{what}");
}

fn crash_everywhere(layout: Layout, seed: u64) {
    let run = run_workload(layout, seed);
    for keep in 0..=RECORDS {
        let journal = cut(layout, &run, keep, 0);
        let expected = &run.expected[keep as usize];
        let what = format!("{layout:?} seed {seed}: cut after record {keep}");
        check(&journal, None, expected, &what);
        if keep >= run.mid.wal_seq {
            let what = format!("{what}, over the snapshot at {}", run.mid.wal_seq);
            check(&journal, Some(&run.mid), expected, &what);
        }
    }
    let last = run.lines.last().unwrap();
    for torn in 1..last.bytes.len() {
        let journal = cut(layout, &run, RECORDS - 1, torn);
        let expected = &run.expected[RECORDS as usize - 1];
        let what = format!("{layout:?} seed {seed}: final record torn after {torn} bytes");
        check(&journal, None, expected, &what);
    }
}

#[test]
fn every_record_boundary_and_final_record_byte_recovers_the_prefix() {
    for (seed, layout) in LAYOUTS.into_iter().enumerate() {
        crash_everywhere(layout, seed as u64 + 1);
    }
}
