//! Per-key storage slots: inline singletons, heap only for multi-values.
//!
//! Profiling the algorithm suite shows that ~99% of DDS keys hold exactly
//! one value (degrees, statuses, successor pointers, per-slot adjacency
//! entries, …).  The original layout paid a heap-allocated `Vec<Value>` for
//! every key; [`Slot`] keeps the singleton case inline in the shard's hash
//! map and only touches the heap once a key becomes multi-valued.
//!
//! # One layout for both sides of the freeze
//!
//! Earlier revisions used two types: a growable `WriteSlot` (`Vec<Value>`
//! multi-values) for the writable store and a compact frozen `Slot`
//! (`Box<[Value]>`) for snapshots, which forced `freeze()` to **rebuild
//! every shard map** just to change the value type.  [`Slot`] is now the
//! single layout shared by the write side and the frozen side: freeze became
//! an *in-place* pass ([`Slot::shrink_to_fit`] on the few multi-value
//! entries) that reuses the write-side map allocation outright.
//!
//! The anticipated cost — a `Vec` header carries a capacity word a
//! `Box<[Value]>` does not — never materialises: the discriminant lives in
//! the `Vec` pointer's non-null niche, so the unified slot is exactly as
//! wide as the old frozen slot (24 bytes, pinned by the size test below).
//! The only residual trade is the spare multi-value capacity dropped by
//! [`Slot::shrink_to_fit`]; the `read_latency` series in
//! `BENCH_commit.json` keeps the read-side cost of the layout visible
//! against the legacy `Vec`-per-key baseline.

use crate::hashing::FxHashMap;
use crate::key::{Key, Value};

/// Freeze one shard map **in place**: reuse the map allocation (and every
/// inline singleton slot) as-is, dropping only the spare `Vec` capacity of
/// the rare multi-value slots.
///
/// The single freeze pass shared by [`crate::ShardedStore::freeze`] and the
/// [`crate::ChannelBackend`] owner threads' `FreezeEpoch`, so the two epoch
/// pipelines cannot drift apart.
pub(crate) fn freeze_map_in_place(map: &mut FxHashMap<Key, Slot>) {
    for slot in map.values_mut() {
        slot.shrink_to_fit();
    }
}

/// Per-key slot used by both the writable store and frozen snapshots.
///
/// On the write side slots grow via [`Slot::push`]; at freeze time
/// [`Slot::shrink_to_fit`] drops the spare capacity of multi-value entries
/// and the slot (and the map holding it) is served read-only from then on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Slot {
    /// The common case: exactly one value, stored inline.
    One(Value),
    /// Two or more values, in commit order.
    Many(Vec<Value>),
}

impl Slot {
    /// Append `value`, upgrading a singleton to a heap list when needed.
    #[inline]
    pub fn push(&mut self, value: Value) {
        match self {
            Slot::One(first) => {
                *self = Slot::Many(vec![*first, value]);
            }
            Slot::Many(values) => values.push(value),
        }
    }

    /// Drop the spare capacity of a multi-value slot (no-op for singletons).
    ///
    /// This is the entire per-slot work of the in-place freeze: the slot is
    /// not moved, re-hashed, or re-allocated unless the `Vec` actually holds
    /// spare capacity.
    #[inline]
    pub fn shrink_to_fit(&mut self) {
        if let Slot::Many(values) = self {
            values.shrink_to_fit();
        }
    }

    /// All values, in commit order.
    #[inline]
    pub fn as_slice(&self) -> &[Value] {
        match self {
            Slot::One(value) => std::slice::from_ref(value),
            Slot::Many(values) => values,
        }
    }

    /// First value (the model's `(x, 1)` lookup).
    #[inline]
    pub fn first(&self) -> Value {
        match self {
            Slot::One(value) => *value,
            Slot::Many(values) => values[0],
        }
    }

    /// The `index`-th value, if present.
    #[inline]
    pub fn get(&self, index: usize) -> Option<Value> {
        match self {
            Slot::One(value) if index == 0 => Some(*value),
            Slot::One(_) => None,
            Slot::Many(values) => values.get(index).copied(),
        }
    }

    /// Number of values stored.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Slot::One(_) => 1,
            Slot::Many(values) => values.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_upgrades_to_many() {
        let mut slot = Slot::One(Value::scalar(1));
        assert_eq!(slot.as_slice(), &[Value::scalar(1)]);
        slot.push(Value::scalar(2));
        slot.push(Value::scalar(3));
        assert_eq!(
            slot.as_slice(),
            &[Value::scalar(1), Value::scalar(2), Value::scalar(3)]
        );
    }

    #[test]
    fn slot_exposes_indexed_access() {
        let single = Slot::One(Value::pair(1, 2));
        assert_eq!(single.len(), 1);
        assert_eq!(single.first(), Value::pair(1, 2));
        assert_eq!(single.get(0), Some(Value::pair(1, 2)));
        assert_eq!(single.get(1), None);

        let mut multi = Slot::One(Value::scalar(0));
        for i in 1..5u64 {
            multi.push(Value::scalar(i));
        }
        assert_eq!(multi.len(), 5);
        for i in 0..5u64 {
            assert_eq!(multi.get(i as usize), Some(Value::scalar(i)));
        }
        assert_eq!(multi.get(5), None);
    }

    #[test]
    fn shrink_to_fit_drops_spare_capacity_and_keeps_contents() {
        let mut slot = Slot::One(Value::scalar(0));
        for i in 1..9u64 {
            slot.push(Value::scalar(i));
        }
        slot.shrink_to_fit();
        let Slot::Many(values) = &slot else {
            panic!("multi-value slot expected");
        };
        assert_eq!(values.capacity(), values.len());
        for i in 0..9u64 {
            assert_eq!(slot.get(i as usize), Some(Value::scalar(i)));
        }
        // Shrinking a singleton is a no-op.
        let mut single = Slot::One(Value::scalar(7));
        single.shrink_to_fit();
        assert_eq!(single, Slot::One(Value::scalar(7)));
    }

    #[test]
    fn singleton_slots_are_inline() {
        // The whole point of the layout: a singleton entry is no bigger than
        // the multi-value header, and needs no heap allocation.  The shared
        // write/freeze layout is no wider than the old frozen `Box<[Value]>`
        // slot either — the discriminant hides in the `Vec` pointer niche.
        assert!(std::mem::size_of::<Slot>() <= 24);
        assert_eq!(
            std::mem::size_of::<Slot>(),
            std::mem::size_of::<Vec<Value>>()
        );
    }
}
