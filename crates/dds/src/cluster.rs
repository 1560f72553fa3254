//! Multi-owner-process clusters of the [`TcpBackend`].
//!
//! A cluster is `N` standalone [`crate::DdsServer`] processes (started with
//! [`crate::serve::serve_cluster`]), each owning one **contiguous range**
//! of the shard space, and a [`TcpBackend`] connected to all of them: the
//! lease grants carry the cluster's [`crate::proto::ShardMap`], so the
//! client routes by range lookup and advances through the same two-phase
//! barrier every remote backend runs (see [`crate::remote`]).  The owner
//! count is runtime data: [`TcpBackend::connect_cluster`] takes any number
//! of endpoints and [`TcpBackend::spawn_cluster`] any number of owners.

use crate::remote::TcpBackend;
use crate::transport::TransportError;

/// The owner count of a local cluster spelled as a type.
///
/// Kept for callers written against the const-generic cluster backend; its
/// only item builds a plain [`TcpBackend`].  New code calls
/// [`TcpBackend::spawn_cluster`].
#[derive(Debug)]
pub struct ClusterBackend<const OWNERS: usize = 2>;

impl<const OWNERS: usize> ClusterBackend<OWNERS> {
    /// [`TcpBackend::spawn_cluster`] with `OWNERS` owners.
    pub fn spawn_local(num_shards: usize) -> Result<TcpBackend, TransportError> {
        TcpBackend::spawn_cluster(OWNERS, num_shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{DdsBackend, SnapshotView};
    use crate::key::{Key, KeyTag, Value};
    use crate::proto::RequestKind;
    use crate::remote::RemoteSnapshot;
    use crate::serve::serve_cluster;
    use crate::transport::RequestFaults;

    fn k(a: u64) -> Key {
        Key::of(KeyTag::Scalar, a)
    }

    fn full_round(backend: &mut TcpBackend) -> RemoteSnapshot {
        backend.commit_round(
            vec![
                (0..64u64).map(|i| (k(i % 24), Value::scalar(i))).collect(),
                vec![(k(3), Value::pair(7, 8))],
            ],
            1,
        );
        backend.advance(1)
    }

    #[test]
    fn a_local_cluster_serves_commits_and_advances() {
        let mut cluster = TcpBackend::spawn_cluster(3, 8).unwrap();
        let map = cluster.shard_map().unwrap().clone();
        assert_eq!(map.owners.len(), 3);
        assert!(map.is_contiguous());
        assert_eq!(map.num_shards(), 8);

        let view = full_round(&mut cluster);
        assert_eq!(view.len(), 24);
        assert_eq!(view.get(&k(3)), Some(Value::scalar(3)));
        assert_eq!(view.get_all(&k(3)).len(), 4, "3, 27, 51 and the pair");
        assert_eq!(cluster.total_writes(), 65);

        // Owner-served dumps agree with the client-side replicas.
        let mut local = view.entries();
        let mut served = cluster.epoch_entries(0).unwrap();
        local.sort_by_key(|&(key, _)| key);
        served.sort_by_key(|&(key, _)| key);
        assert_eq!(local, served);

        // And the merged loads cover every global shard exactly once.
        let loads = cluster.epoch_loads(0).unwrap();
        assert_eq!(
            loads.iter().map(|load| load.shard).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cluster_results_match_a_single_owner_byte_for_byte() {
        let mut single = TcpBackend::spawn_cluster(1, 8).unwrap();
        let mut multi = ClusterBackend::<4>::spawn_local(8).unwrap();
        let single_view = full_round(&mut single);
        let multi_view = full_round(&mut multi);
        let mut lhs = single_view.entries();
        let mut rhs = multi_view.entries();
        lhs.sort_by_key(|&(key, _)| key);
        rhs.sort_by_key(|&(key, _)| key);
        assert_eq!(lhs, rhs);
        assert_eq!(single.total_writes(), multi.total_writes());
        // Same global shard space, so the per-shard write loads also agree.
        let lhs = single.epoch_loads(0).unwrap();
        let rhs = multi.epoch_loads(0).unwrap();
        assert_eq!(lhs.len(), rhs.len());
        for (l, r) in lhs.iter().zip(&rhs) {
            assert_eq!((l.shard, l.keys, l.writes), (r.shard, r.keys, r.writes));
        }
    }

    #[test]
    fn owners_severed_mid_barrier_heal_without_a_mixed_epoch() {
        let run = |faulted: bool| {
            let mut cluster = TcpBackend::spawn_cluster(2, 8).unwrap();
            let faults = RequestFaults::none();
            if faulted {
                // Epoch 0's freeze on owner 0, epoch 1's publish on owner 1:
                // both phases of the barrier lose a connection mid-flight.
                faults.schedule_sever(RequestKind::FreezeEpoch, 0, 0);
                faults.schedule_sever(RequestKind::PublishEpoch, 1, 1);
            }
            cluster.install_request_faults(faults.clone());
            let d0 = full_round(&mut cluster);
            cluster.commit_round(
                vec![(0..10u64).map(|i| (k(i), Value::pair(i, 1))).collect()],
                1,
            );
            let d1 = cluster.advance(1);
            let mut entries0 = d0.entries();
            let mut entries1 = d1.entries();
            entries0.sort_by_key(|&(key, _)| key);
            entries1.sort_by_key(|&(key, _)| key);
            (entries0, entries1, cluster.total_writes(), faults.severed())
        };
        let (clean0, clean1, clean_writes, clean_severed) = run(false);
        let (fault0, fault1, fault_writes, fault_severed) = run(true);
        assert_eq!(clean_severed, 0);
        assert_eq!(fault_severed, 2, "both scheduled severs must fire");
        assert_eq!(clean0, fault0);
        assert_eq!(clean1, fault1);
        assert_eq!(clean_writes, fault_writes);
    }

    #[test]
    fn mismatched_topologies_are_rejected_with_a_typed_error() {
        // Two "clusters" that each think they are a different topology: the
        // client connects to one owner of each and must refuse the splice.
        let a = serve_cluster(("127.0.0.1", 0), 0, vec!["a:1".into(), "b:2".into()]).unwrap();
        let b = serve_cluster(("127.0.0.1", 0), 0, vec!["c:3".into(), "d:4".into()]).unwrap();
        let endpoints = vec![a.local_addr().to_string(), b.local_addr().to_string()];
        let err = TcpBackend::connect_cluster(&endpoints, 8).unwrap_err();
        match err {
            TransportError::Protocol { worker, message } => {
                assert_eq!(worker, 1);
                assert!(message.contains("disagree"), "{message}");
            }
            other => panic!("expected a topology mismatch, got {other:?}"),
        }

        // A plain (non-cluster) server advertises no map at all, which a
        // cluster node's map cannot be spliced with.
        let node = serve_cluster(("127.0.0.1", 0), 0, vec!["e:5".into(), "f:6".into()]).unwrap();
        let plain = crate::serve::serve(("127.0.0.1", 0)).unwrap();
        let endpoints = vec![
            node.local_addr().to_string(),
            plain.local_addr().to_string(),
        ];
        let err = TcpBackend::connect_cluster(&endpoints, 8).unwrap_err();
        match err {
            TransportError::Protocol { message, .. } => {
                assert!(message.contains("without a cluster shard map"), "{message}");
            }
            other => panic!("expected a missing-map error, got {other:?}"),
        }

        // Owners that all serve standalone advertise no map: the client
        // interleaves over them, as it does over one `serve` process.
        let endpoints = vec![plain.local_addr().to_string()];
        let mut interleaved = TcpBackend::connect_cluster(&endpoints, 8).unwrap();
        assert!(interleaved.shard_map().is_none());
        assert_eq!(full_round(&mut interleaved).len(), 24);
    }
}
