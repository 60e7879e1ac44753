//! A fixed reference task, independent of the engine, timed during a
//! run so that the run's times can be stated at a nominal host speed.
//!
//! The host this benchmark was written on is shared with other tenants,
//! and its speed drifts by tens of percent over minutes. The engine's
//! latencies follow that drift; so does this task. Each timing metric is
//! reported as measured × `NOMINAL_NS` ÷ (median time of this task over
//! the run). The raw figures are printed in the run record beside them.
//! The task is timed only before a set-up, when no engine of the
//! benchmark is alive, so the engine's caches and heap cannot move it.
//!
//! The task walks a random cycle through a 4 MiB table (larger than the
//! per-core L2) and builds, sorts and drops small heap structures, the
//! two kinds of work the engine's command path does most.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The reference task's time on this host at its usual speed: with it, a
/// normalised figure reads close to the raw one.
pub const NOMINAL_NS: f64 = 130_000.0;

const TABLE: usize = 1 << 20;

fn table() -> &'static [u32] {
    static TABLE_CELL: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE_CELL.get_or_init(|| {
        // A single cycle through every slot, in a fixed pseudo-random order.
        let mut order: Vec<u32> = (0..TABLE as u32).collect();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in (1..TABLE).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; TABLE];
        for i in 0..TABLE {
            next[order[i] as usize] = order[(i + 1) % TABLE];
        }
        next
    })
}

/// Builds the table, so the first timed slice does not.
pub fn warm() {
    black_box(table());
}

/// Runs the reference task once, continuing the walk at `pos`, and
/// returns its duration in ns.
pub fn slice(pos: &mut u32) -> u64 {
    let next = table();
    let t = Instant::now();
    for _ in 0..512 {
        *pos = next[*pos as usize];
    }
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ u64::from(*pos);
    for _ in 0..384 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 1024, vec![x; 6]);
        if x & 3 == 0 {
            map.remove(&((x >> 9) % 1024));
        }
    }
    let mut keys: Vec<String> = map.keys().take(64).map(|k| format!("k{k}")).collect();
    keys.sort();
    black_box((&map, &keys));
    t.elapsed().as_nanos() as u64
}
