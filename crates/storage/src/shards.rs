//! The shared sharding primitive: a power-of-two array of
//! [`OrderedRwLock`]-wrapped states indexed by [`InstanceId::hash64`].
//!
//! Every per-instance table in the system — the instance store's shard
//! maps, the engine's context cache and the worklist index — selects its
//! shard through this one type, so the shard-selection invariant (power-
//! of-two count, `hash64 & mask` indexing) lives in exactly one place and
//! an instance maps to the same shard *index* in every table of equal
//! shard count.
//!
//! Every table declares a [`LockClass`] at construction; the class ranks
//! (and the one-shard-per-table rule the locks enforce) are documented in
//! `docs/LOCK_ORDER.md`. Coherent all-shards passes go through
//! [`Shards::read_all`], the ascending sweep the checker sanctions.

use crate::ordered::{LockClass, OrderedRwLock, OrderedRwLockReadGuard};
use adept_model::InstanceId;

/// The shard index of `id` in a table of `count` shards (a power of two)
/// — the one shard-selection rule, also applied to persisted per-shard
/// data such as a snapshot's journal stamps.
#[inline]
pub fn shard_index(id: InstanceId, count: usize) -> usize {
    debug_assert!(count.is_power_of_two());
    (id.hash64() & (count as u64 - 1)) as usize
}

/// A fixed, power-of-two array of independently locked shard states.
#[derive(Debug)]
pub struct Shards<T> {
    inner: Box<[OrderedRwLock<T>]>,
    mask: u64,
}

impl<T: Default> Shards<T> {
    /// `n` shards (rounded up to the next power of two, minimum 1) of the
    /// given lock class, each initialised with `T::default()`.
    pub fn new(class: &'static LockClass, n: usize) -> Self {
        let n = n.max(1).next_power_of_two();
        Self {
            inner: (0..n)
                .map(|i| OrderedRwLock::with_index(class, i as u32, T::default()))
                .collect(),
            mask: (n - 1) as u64,
        }
    }
}

impl<T> Shards<T> {
    /// Number of shards (a power of two).
    pub fn count(&self) -> usize {
        self.inner.len()
    }

    /// The shard index an instance maps to.
    #[inline]
    pub fn index_of(&self, id: InstanceId) -> usize {
        shard_index(id, self.inner.len())
    }

    /// The shard an instance maps to.
    #[inline]
    pub fn for_id(&self, id: InstanceId) -> &OrderedRwLock<T> {
        &self.inner[self.index_of(id)]
    }

    /// The shard index a raw 64-bit key maps to — no hashing, plain
    /// `key & mask`. Segmented logs use this with *sequence numbers* as
    /// keys: consecutive sequences round-robin across shards, so
    /// concurrent appends land on different shard locks.
    #[inline]
    pub fn index_of_raw(&self, key: u64) -> usize {
        (key & self.mask) as usize
    }

    /// The shard a raw 64-bit key maps to (see
    /// [`Shards::index_of_raw`]).
    #[inline]
    pub fn for_raw(&self, key: u64) -> &OrderedRwLock<T> {
        &self.inner[self.index_of_raw(key)]
    }

    /// All shards, in index order. Callers locking inside the iteration
    /// must release each guard before acquiring the next (one shard per
    /// table); use [`Shards::read_all`] to hold every shard at once.
    pub fn iter(&self) -> std::slice::Iter<'_, OrderedRwLock<T>> {
        self.inner.iter()
    }

    /// Read guards over **all** shards at once, acquired in ascending
    /// index order — the coherent cross-shard pass (worklist delta
    /// scan) the lock checker sanctions as a sweep. Prefer a
    /// one-guard-at-a-time [`Shards::iter`] walk when the read can
    /// tolerate per-shard snapshots (as the monitor's sequence-bounded
    /// merge does) so a slow reader never blocks every writer at once.
    #[track_caller]
    pub fn read_all(&self) -> Vec<OrderedRwLockReadGuard<'_, T>> {
        self.inner.iter().map(|shard| shard.read_sweep()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordered::classes;

    #[test]
    fn rounds_to_power_of_two() {
        for (requested, expected) in [(0usize, 1usize), (1, 1), (3, 4), (16, 16), (17, 32)] {
            assert_eq!(
                Shards::<u32>::new(&classes::TEST_SUPPORT, requested).count(),
                expected
            );
        }
    }

    #[test]
    fn raw_keys_round_robin() {
        let s = Shards::<u32>::new(&classes::TEST_SUPPORT, 16);
        for seq in 0..64u64 {
            assert_eq!(s.index_of_raw(seq), (seq % 16) as usize);
        }
    }

    #[test]
    fn same_id_same_shard() {
        let a = Shards::<u32>::new(&classes::TEST_SUPPORT, 16);
        let b = Shards::<Vec<u8>>::new(&classes::TEST_SUPPORT, 16);
        for i in 1..=100u64 {
            let id = InstanceId(i);
            assert_eq!(
                a.index_of(id),
                b.index_of(id),
                "tables of equal count agree"
            );
            assert!(a.index_of(id) < 16);
        }
    }

    #[test]
    fn read_all_holds_every_shard_coherently() {
        let s = Shards::<u32>::new(&classes::TEST_SUPPORT, 8);
        let guards = s.read_all();
        assert_eq!(guards.len(), 8);
        assert!(guards.iter().all(|g| **g == 0));
    }
}
