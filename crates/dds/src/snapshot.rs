//! Immutable, read-only view of a completed round.
//!
//! The defining property of the AMPC model is that "the contents of `D_{i-1}`
//! do not change within round `i`" (Section 2.1, fault tolerance).  A
//! [`Snapshot`] enforces that property in the type system: once a
//! [`crate::ShardedStore`] is frozen it can only be read.  Reads are lock-free
//! (the underlying maps are never mutated) and still counted per shard so the
//! query-contention behaviour of the model can be observed.
//!
//! # Layout
//!
//! The frozen maps store [`crate::slot::Slot`] entries: the ~99% of keys
//! that hold a single value keep it **inline in the hash-map entry**, so a
//! point lookup is one hash probe with no pointer chase and no per-key heap
//! allocation; only multi-value keys reference a shrunk-to-fit
//! `Vec<Value>`.  The maps are the write-side shard maps themselves, frozen
//! **in place** at epoch advance (see [`crate::ShardedStore::freeze`]) — no
//! rebuild, no copy.  The pre-refactor layout (`Vec<Value>` per key, one
//! heap list per key) is kept reachable as [`crate::legacy::LegacyStore`]
//! for the equivalence property tests.

use crate::hashing::{hash_words, FxHashMap};
use crate::key::{Key, Value};
use crate::slot::Slot;
use crate::stats::{ShardLoad, StoreStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A frozen round of the DDS: `D_{i-1}` as seen by machines in round `i`.
///
/// Cloning a snapshot is cheap (it is an `Arc` around the shard data), which
/// is how the runtime hands the same read-only view to every machine thread.
#[derive(Clone)]
pub struct Snapshot {
    inner: Arc<SnapshotInner>,
}

struct SnapshotInner {
    shards: Vec<FxHashMap<Key, Slot>>,
    writes: Vec<u64>,
    reads: Vec<AtomicU64>,
}

impl Snapshot {
    /// Build a snapshot from per-shard frozen maps and their historical
    /// write counts.
    pub(crate) fn from_parts(shards: Vec<FxHashMap<Key, Slot>>, writes: Vec<u64>) -> Self {
        let reads = (0..shards.len()).map(|_| AtomicU64::new(0)).collect();
        Snapshot {
            inner: Arc::new(SnapshotInner {
                shards,
                writes,
                reads,
            }),
        }
    }

    /// An empty snapshot with `num_shards` shards (used as `D_{-1}` before
    /// any input is loaded).
    pub fn empty(num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        Snapshot::from_parts(vec![FxHashMap::default(); num_shards], vec![0; num_shards])
    }

    /// A weak handle on the snapshot's shared data, for tests that pin how
    /// long an epoch stays alive.
    #[cfg(test)]
    pub(crate) fn downgrade(&self) -> std::sync::Weak<impl Sized> {
        Arc::downgrade(&self.inner)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.inner.shards.len()
    }

    #[inline]
    fn shard_of(&self, key: &Key) -> usize {
        (hash_words(key.tag.code(), key.a, key.b) % self.inner.shards.len() as u64) as usize
    }

    #[inline]
    fn record_read(&self, shard: usize) {
        self.inner.reads[shard].fetch_add(1, Ordering::Relaxed);
    }

    /// First value stored under `key`, if any.  Counts as one query.
    pub fn get(&self, key: &Key) -> Option<Value> {
        let shard = self.shard_of(key);
        self.record_read(shard);
        self.inner.shards[shard].get(key).map(Slot::first)
    }

    /// Look up a batch of keys in one call.  Counts as `keys.len()` queries,
    /// exactly as if [`Snapshot::get`] had been called per key.
    ///
    /// `out` is **cleared first**, then filled with one entry per key, in
    /// key order.
    ///
    /// This is the read path behind the runtime's batched adaptive reads: a
    /// real deployment would pipeline the batch over the network, and the
    /// simulation amortizes the per-query read accounting over the batch
    /// (one counter update per shard run instead of one per key).
    pub fn get_many(&self, keys: &[Key], out: &mut Vec<Option<Value>>) {
        out.clear();
        out.resize(keys.len(), None);
        self.get_many_slice(keys, out);
    }

    /// [`Snapshot::get_many`] into a caller-provided slice, for hot loops
    /// that batch into fixed-size stack buffers.  `out[i]` receives the
    /// result for `keys[i]`.  Counts as `keys.len()` queries.
    ///
    /// # Panics
    /// If `out` is shorter than `keys`.
    pub fn get_many_slice(&self, keys: &[Key], out: &mut [Option<Value>]) {
        assert!(
            out.len() >= keys.len(),
            "output slice shorter than key batch"
        );
        // Coalesce read-counter updates over runs of same-shard keys; totals
        // are identical to per-key counting.
        let mut run_shard = usize::MAX;
        let mut run_len = 0u64;
        for (key, slot) in keys.iter().zip(out.iter_mut()) {
            let shard = self.shard_of(key);
            if shard != run_shard {
                if run_len > 0 {
                    self.inner.reads[run_shard].fetch_add(run_len, Ordering::Relaxed);
                }
                run_shard = shard;
                run_len = 0;
            }
            run_len += 1;
            *slot = self.inner.shards[shard].get(key).map(Slot::first);
        }
        if run_len > 0 {
            self.inner.reads[run_shard].fetch_add(run_len, Ordering::Relaxed);
        }
    }

    /// The `index`-th value stored under `key` (zero-based).  Counts as one
    /// query.
    pub fn get_indexed(&self, key: &Key, index: usize) -> Option<Value> {
        let shard = self.shard_of(key);
        self.record_read(shard);
        self.inner.shards[shard]
            .get(key)
            .and_then(|slot| slot.get(index))
    }

    /// All values stored under `key` (empty slice semantics if absent).
    ///
    /// Counts as `multiplicity(key)` queries, mirroring the model where each
    /// `(x, i)` lookup is a separate query.
    pub fn get_all(&self, key: &Key) -> Vec<Value> {
        let shard = self.shard_of(key);
        let values = self.inner.shards[shard]
            .get(key)
            .map(|slot| slot.as_slice().to_vec())
            .unwrap_or_default();
        self.inner.reads[shard].fetch_add(values.len().max(1) as u64, Ordering::Relaxed);
        values
    }

    /// Number of values stored under `key`.  Counts as one query.
    pub fn multiplicity(&self, key: &Key) -> usize {
        let shard = self.shard_of(key);
        self.record_read(shard);
        self.inner.shards[shard].get(key).map_or(0, Slot::len)
    }

    /// Number of distinct keys in the snapshot.
    pub fn len(&self) -> usize {
        self.inner.shards.iter().map(|s| s.len()).sum()
    }

    /// `true` if the snapshot holds no keys.
    pub fn is_empty(&self) -> bool {
        self.inner.shards.iter().all(|s| s.is_empty())
    }

    /// Per-shard loads (keys held, historical writes, reads served so far).
    pub fn shard_loads(&self) -> Vec<ShardLoad> {
        self.inner
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardLoad {
                shard: i,
                keys: s.len() as u64,
                writes: self.inner.writes[i],
                reads: self.inner.reads[i].load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Aggregate statistics over all shards.
    pub fn stats(&self) -> StoreStats {
        StoreStats::from_loads(self.shard_loads())
    }

    /// Total reads served by this snapshot so far.
    pub fn total_reads(&self) -> u64 {
        self.inner
            .reads
            .iter()
            .map(|r| r.load(Ordering::Relaxed))
            .sum()
    }

    /// Iterate over every `(key, values)` pair in the snapshot.
    ///
    /// This is *not* an AMPC-model operation (machines can only do point
    /// lookups); it exists for the driver side of algorithms — the part the
    /// paper implements "using standard MPC primitives" — and for tests.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &[Value])> {
        self.inner
            .shards
            .iter()
            .flat_map(|s| s.iter().map(|(k, slot)| (k, slot.as_slice())))
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("num_shards", &self.num_shards())
            .field("keys", &self.len())
            .field("total_reads", &self.total_reads())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyTag;
    use crate::store::ShardedStore;

    fn k(a: u64) -> Key {
        Key::of(KeyTag::Scalar, a)
    }

    fn snapshot_with(pairs: &[(u64, u64)]) -> Snapshot {
        let store = ShardedStore::new(8);
        for &(key, val) in pairs {
            store.write(k(key), Value::scalar(val));
        }
        store.freeze()
    }

    #[test]
    fn empty_snapshot_has_no_keys() {
        let snap = Snapshot::empty(4);
        assert!(snap.is_empty());
        assert_eq!(snap.len(), 0);
        assert_eq!(snap.get(&k(0)), None);
        assert_eq!(snap.num_shards(), 4);
    }

    #[test]
    fn reads_are_counted() {
        let snap = snapshot_with(&[(1, 10), (2, 20)]);
        assert_eq!(snap.total_reads(), 0);
        let _ = snap.get(&k(1));
        let _ = snap.get(&k(2));
        let _ = snap.get(&k(3)); // misses still count as queries
        assert_eq!(snap.total_reads(), 3);
    }

    #[test]
    fn get_many_returns_per_key_results_and_counts_each_key() {
        let snap = snapshot_with(&[(1, 10), (2, 20), (3, 30)]);
        let keys = [k(1), k(999), k(3), k(2), k(2)];
        let mut out = Vec::new();
        snap.get_many(&keys, &mut out);
        assert_eq!(
            out,
            vec![
                Some(Value::scalar(10)),
                None,
                Some(Value::scalar(30)),
                Some(Value::scalar(20)),
                Some(Value::scalar(20)),
            ]
        );
        assert_eq!(snap.total_reads(), 5);
    }

    #[test]
    fn get_many_matches_individual_gets() {
        let snap = snapshot_with(&(0..500).map(|i| (i, i * 3)).collect::<Vec<_>>());
        let keys: Vec<Key> = (0..1_000u64).map(k).collect();
        let mut batched = Vec::new();
        snap.get_many(&keys, &mut batched);
        let individual: Vec<Option<Value>> = keys.iter().map(|key| snap.get(key)).collect();
        assert_eq!(batched, individual);
        // Both passes counted every key once.
        assert_eq!(snap.total_reads(), 2_000);
    }

    #[test]
    fn get_all_returns_every_value_in_order() {
        let store = ShardedStore::new(4);
        for i in 0..4u64 {
            store.write(k(9), Value::scalar(i));
        }
        let snap = store.freeze();
        let all = snap.get_all(&k(9));
        assert_eq!(
            all,
            vec![
                Value::scalar(0),
                Value::scalar(1),
                Value::scalar(2),
                Value::scalar(3)
            ]
        );
        assert_eq!(snap.get_all(&k(404)), Vec::<Value>::new());
    }

    #[test]
    fn snapshot_clone_shares_read_counters() {
        let snap = snapshot_with(&[(1, 1)]);
        let clone = snap.clone();
        let _ = clone.get(&k(1));
        assert_eq!(snap.total_reads(), 1);
    }

    #[test]
    fn iter_visits_all_keys() {
        let snap = snapshot_with(&[(1, 10), (2, 20), (3, 30)]);
        let mut seen: Vec<u64> = snap.iter().map(|(key, _)| key.a).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn shard_loads_cover_reads_and_writes() {
        let snap = snapshot_with(&[(1, 10), (2, 20), (3, 30)]);
        let _ = snap.get(&k(1));
        let loads = snap.shard_loads();
        assert_eq!(loads.iter().map(|l| l.writes).sum::<u64>(), 3);
        assert_eq!(loads.iter().map(|l| l.reads).sum::<u64>(), 1);
        assert_eq!(loads.iter().map(|l| l.keys).sum::<u64>(), 3);
    }
}
