//! The in-process message-passing backend: [`RemoteBackend`] over
//! [`MpscTransport`].
//!
//! Before the transport split this module owned a private `enum Request`
//! with reply channels baked into the variants — an API that could not
//! leave the process.  The protocol now lives in [`crate::proto`] as plain
//! serializable data, the owner loop in [`crate::remote`] is generic over
//! any [`crate::transport::Transport`], and this module is simply the
//! in-process instantiation:
//!
//! ```text
//! ChannelBackend  =  RemoteBackend<MpscTransport>
//! ```
//!
//! What is specific to this instantiation is the *shared-memory capability*
//! of its transport: requests travel as typed values (no serialization),
//! and on `PublishEpoch` the owner publishes the frozen epoch **once** as an
//! `Arc` in its reply — the zero-copy fast path.  Every
//! [`ChannelSnapshot`] then resolves `get` / `get_indexed` /
//! `multiplicity` / `get_many` directly against the shared immutable maps —
//! lock-free, with zero channel traffic — while read accounting lands in
//! per-shard atomics inside the shared epoch.  The owner keeps its handle
//! only until the next epoch publishes; after that, an epoch lives exactly
//! as long as its views.
//!
//! Swap the transport for [`crate::TcpTransport`] and the identical owner
//! loop speaks length-prefixed [`crate::proto`] frames over sockets, with
//! the `Arc` hand-off replaced by a replica the client transport decodes
//! straight from the epoch frame (delivered as the same
//! [`crate::transport::ClientReply::Epoch`]) — that instantiation is
//! [`crate::TcpBackend`], and the conformance suites hold both to
//! byte-identical behaviour.
//!
//! Owner threads are reaped when the backend drops; views keep the shared
//! epoch `Arc`s, so they stay valid — and their reads byte-identical — for
//! as long as the caller keeps them, even after the backend is gone.  An
//! owner thread that dies mid-run (a panic, a poisoned request) surfaces as
//! a typed [`crate::TransportError`] carrying the panic payload, not a hung
//! or cryptically broken channel.

use crate::remote::{RemoteBackend, RemoteSnapshot};
use crate::transport::MpscTransport;

/// A multi-worker, message-passing DDS backend over in-process channels.
///
/// See the [module docs](self) for the design; select it through
/// `ampc_runtime::AmpcConfig` rather than constructing it directly.
pub type ChannelBackend = RemoteBackend<MpscTransport>;

/// Read view of one completed [`ChannelBackend`] epoch (the shared-memory
/// instantiation of [`RemoteSnapshot`]).
pub type ChannelSnapshot = RemoteSnapshot;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{DdsBackend, SnapshotView};
    use crate::key::{Key, KeyTag, Value};

    fn k(a: u64) -> Key {
        Key::of(KeyTag::Scalar, a)
    }

    fn backend_with(pairs: &[(u64, u64)], shards: usize, workers: usize) -> ChannelBackend {
        let mut backend = ChannelBackend::new(shards, workers);
        let batch: Vec<(Key, Value)> = pairs
            .iter()
            .map(|&(key, value)| (k(key), Value::scalar(value)))
            .collect();
        backend.commit_round(vec![batch], 1);
        backend
    }

    #[test]
    fn reads_resolve_against_the_published_epoch() {
        let mut backend = backend_with(&[(1, 10), (2, 20), (3, 30)], 8, 3);
        let view = backend.advance(1);
        assert_eq!(view.get(&k(1)), Some(Value::scalar(10)));
        assert_eq!(view.get(&k(4)), None);
        assert_eq!(view.len(), 3);
        assert_eq!(view.total_reads(), 2);
    }

    #[test]
    fn multi_value_order_is_commit_order_across_machine_batches() {
        let mut backend = ChannelBackend::new(4, 2);
        backend.commit_round(
            vec![
                vec![(k(9), Value::scalar(0)), (k(9), Value::scalar(1))],
                vec![(k(9), Value::scalar(2))],
            ],
            1,
        );
        let view = backend.advance(1);
        assert_eq!(view.multiplicity(&k(9)), 3);
        for i in 0..3usize {
            assert_eq!(view.get_indexed(&k(9), i), Some(Value::scalar(i as u64)));
        }
        assert_eq!(view.get_indexed(&k(9), 3), None);
        assert_eq!(
            view.get_all(&k(9)),
            vec![Value::scalar(0), Value::scalar(1), Value::scalar(2)]
        );
    }

    #[test]
    fn epochs_are_isolated() {
        let mut backend = backend_with(&[(1, 1)], 4, 2);
        let d0 = backend.advance(1);
        backend.commit_round(vec![vec![(k(2), Value::scalar(2))]], 1);
        let d1 = backend.advance(1);
        assert_eq!(d0.get(&k(1)), Some(Value::scalar(1)));
        assert_eq!(d0.get(&k(2)), None);
        assert_eq!(d1.get(&k(1)), None);
        assert_eq!(d1.get(&k(2)), Some(Value::scalar(2)));
        assert_eq!(backend.completed_epochs(), 2);
        assert_eq!(backend.total_writes(), 2);
    }

    #[test]
    fn batched_reads_resolve_locally_and_count_per_key() {
        let pairs: Vec<(u64, u64)> = (0..200).map(|i| (i, i * 7)).collect();
        let mut backend = backend_with(&pairs, 16, 4);
        let view = backend.advance(1);
        let keys: Vec<Key> = (0..300u64).map(k).collect();
        let mut out = Vec::new();
        view.get_many(&keys, &mut out);
        for (i, slot) in out.iter().enumerate() {
            let expected = if i < 200 {
                Some(Value::scalar(i as u64 * 7))
            } else {
                None
            };
            assert_eq!(*slot, expected, "key {i}");
        }
        assert_eq!(view.total_reads(), 300);
    }

    #[test]
    fn views_survive_the_backend() {
        let view = {
            let mut backend = backend_with(&[(5, 50)], 4, 2);
            backend.advance(1)
        };
        // The backend (and its owner threads) are gone; the view holds the
        // published epoch directly and serves everything locally.
        assert_eq!(view.get(&k(5)), Some(Value::scalar(50)));
        assert_eq!(view.len(), 1);
        assert_eq!(view.total_reads(), 1);
    }

    #[test]
    fn empty_view_misses_and_counts() {
        let backend = ChannelBackend::new(4, 2);
        let view = backend.empty_view();
        assert!(view.is_empty());
        assert_eq!(view.get(&k(1)), None);
        assert_eq!(view.multiplicity(&k(2)), 0);
        assert_eq!(view.total_reads(), 2);
    }

    #[test]
    fn concurrent_clones_share_the_published_epoch() {
        let pairs: Vec<(u64, u64)> = (0..500).map(|i| (i, i)).collect();
        let mut backend = backend_with(&pairs, 8, 4);
        let view = backend.advance(1);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let view = view.clone();
                scope.spawn(move || {
                    for i in 0..125u64 {
                        let key = t * 125 + i;
                        assert_eq!(view.get(&k(key)), Some(Value::scalar(key)));
                    }
                });
            }
        });
        assert_eq!(view.total_reads(), 500);
    }

    #[test]
    fn worker_counts_are_clamped() {
        let backend = ChannelBackend::new(4, 64);
        assert_eq!(backend.num_workers(), 4);
        let backend = ChannelBackend::new(8, 0);
        assert_eq!(backend.num_workers(), 1);
    }
}
