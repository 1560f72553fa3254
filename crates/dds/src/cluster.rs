//! The multi-owner-process backend: [`ClusterBackend`].
//!
//! [`crate::serve`] scales one owner *process* to many concurrent clients;
//! this module scales the store itself to many owner processes.  A cluster
//! is `N` standalone [`crate::DdsServer`] processes (started with
//! [`crate::serve::serve_cluster`]), each owning one **contiguous range**
//! of the shard space, plus a client that routes every request to the
//! owner of its shards:
//!
//! * **Topology discovery** — every lease grant carries the cluster's
//!   [`ShardMap`] (owner endpoints × shard ranges, epoch-stamped).  The
//!   client connects to each configured endpoint, validates that every
//!   owner advertises the *same* contiguous map for the requested shard
//!   count, and routes by range lookup from then on.
//! * **Commits** — partitioned per owner by shard range and pipelined, one
//!   `Commit` per owning endpoint, exactly like [`RemoteBackend`] does per
//!   worker connection.
//! * **Reads** — unchanged from [`RemoteBackend`]: each advance decodes
//!   every owner's epoch frame straight into a local replica of its frozen
//!   shard group, so the view is a plain [`RemoteSnapshot`] (with ranged
//!   routing) and reads never touch the wire.
//! * **Advance** — the one genuinely distributed step.  With one owner,
//!   `Advance` freezes and publishes atomically inside the owner; with
//!   many owners that atomicity has to be built, and this module builds it
//!   as a client-coordinated **two-phase barrier** — see below.
//!
//! # The two-phase advance barrier
//!
//! ```text
//!  phase 1: FreezeEpoch(e) ──► every owner      (all must ack…)
//!                 owner: park writable epoch e as `prepared`
//!                        — invisible to Loads/Dump, commits for e+1 accepted
//!  phase 2: PublishEpoch(e) ──► every owner     (…before any publish)
//!                 owner: prepared → published, reply with the epoch frame
//! ```
//!
//! No `PublishEpoch` is sent until **every** owner has acked its freeze, so
//! a client can never observe a mixed epoch: either no owner has published
//! `e` (any failure before the last freeze ack aborts the advance with a
//! typed error and nothing published), or every owner is guaranteed to
//! publish `e` eventually — `FreezeEpoch` and `PublishEpoch` are both
//! idempotent under replay, so an owner severed mid-barrier reconnects,
//! replays, and re-acks/re-publishes the identical frozen data.  A
//! prepared-but-unpublished epoch survives reconnection inside the owner's
//! session state and is re-publishable exactly once-semantically, however
//! many times the publish is retransmitted.
//!
//! Epoch frames are fetched **in parallel** (one thread per owner) during
//! phase 2: decoding a frame into its replica dominates advance latency,
//! and it is per-owner independent.

use crate::backend::DdsBackend;
use crate::key::{Key, Value};
use crate::proto::{Reply, Request, ShardMap};
use crate::remote::{expect_transport, FrozenEpoch, RemoteSnapshot, Routing};
use crate::serve::{serve_cluster_listener, DdsServer};
use crate::stats::ShardLoad;
use crate::transport::{
    panic_message, ClientReply, RequestFaults, TcpOptions, TcpTransport, Transport, TransportError,
};
use std::net::TcpListener;
use std::sync::Arc;

/// A DDS backend over `OWNERS` standalone owner processes, each owning a
/// contiguous shard range.
///
/// Connect to running owners with [`ClusterBackend::connect_cluster`], or
/// spawn a self-contained local cluster with
/// [`ClusterBackend::spawn_local`] (which the `DdsBackend::with_shards`
/// surface uses, making `cluster(n)` a drop-in leg of the conformance and
/// determinism suites).  `OWNERS` is a const parameter so a test suite can
/// hold `cluster(2)` and `cluster(4)` side by side as distinct backends.
pub struct ClusterBackend<const OWNERS: usize = 2> {
    /// One leased connection per owner, in node order.  Declared before
    /// `servers` so goodbyes release every lease before the servers (if
    /// locally spawned) stop accepting.
    owners: Vec<TcpTransport>,
    /// Locally spawned owner processes (empty when connected to external
    /// endpoints); held for their lifetime, shut down on drop.
    servers: Vec<DdsServer>,
    /// Ranged routing derived from the validated shard map.
    routing: Routing,
    /// The topology every owner advertised.
    map: ShardMap,
    completed: usize,
    faults: RequestFaults,
    next_seq: u64,
}

impl<const OWNERS: usize> ClusterBackend<OWNERS> {
    /// Spawn a self-contained local cluster: `OWNERS` serving processes on
    /// ephemeral localhost ports, plus a client connected to all of them.
    ///
    /// Listeners are bound *before* any server starts, so every owner can
    /// be told the full peer list — the chicken-and-egg every ephemeral
    ///-port cluster spawner has to break.
    pub fn spawn_local(num_shards: usize) -> Result<Self, TransportError> {
        let num_shards = num_shards.max(1);
        let mut listeners = Vec::with_capacity(OWNERS);
        let mut peers = Vec::with_capacity(OWNERS);
        for node in 0..OWNERS {
            let listener =
                TcpListener::bind(("127.0.0.1", 0)).map_err(|err| TransportError::Io {
                    worker: node,
                    message: format!("binding cluster owner {node}: {err}"),
                })?;
            peers.push(
                listener
                    .local_addr()
                    .map_err(|err| TransportError::Io {
                        worker: node,
                        message: format!("reading cluster owner {node}'s address: {err}"),
                    })?
                    .to_string(),
            );
            listeners.push(listener);
        }
        let mut servers = Vec::with_capacity(OWNERS);
        for (node, listener) in listeners.into_iter().enumerate() {
            servers.push(
                serve_cluster_listener(listener, node, peers.clone()).map_err(|err| {
                    TransportError::Io {
                        worker: node,
                        message: format!("starting cluster owner {node}: {err}"),
                    }
                })?,
            );
        }
        let mut backend = Self::connect_cluster(&peers, num_shards)?;
        backend.servers = servers;
        Ok(backend)
    }

    /// Connect to `OWNERS` already-running cluster owners, one endpoint per
    /// node in node order (each started with [`crate::serve::serve_cluster`]
    /// over the identical peer list).
    ///
    /// Validates the topology before accepting it: every owner must
    /// advertise a shard map, all maps must be identical, contiguous, and
    /// sized for `num_shards` with one slice per connected owner.
    pub fn connect_cluster(
        endpoints: &[String],
        num_shards: usize,
    ) -> Result<Self, TransportError> {
        let num_shards = num_shards.max(1);
        if endpoints.len() != OWNERS {
            return Err(TransportError::Protocol {
                worker: 0,
                message: format!(
                    "cluster backend compiled for {OWNERS} owners got {} endpoints",
                    endpoints.len()
                ),
            });
        }
        let options = TcpOptions::fresh().with_topology(num_shards, OWNERS);
        let mut owners = Vec::with_capacity(OWNERS);
        for (node, endpoint) in endpoints.iter().enumerate() {
            use std::net::ToSocketAddrs;
            let addr = endpoint
                .to_socket_addrs()
                .map_err(|err| TransportError::Io {
                    worker: node,
                    message: format!("resolving cluster owner endpoint {endpoint:?}: {err}"),
                })?
                .next()
                .ok_or_else(|| TransportError::Io {
                    worker: node,
                    message: format!("cluster owner endpoint {endpoint:?} resolved to nothing"),
                })?;
            owners.push(TcpTransport::connect_to(addr, node, options.clone())?);
        }
        // Settle every handshake, then hold the advertised maps to one
        // validated truth.
        for owner in &mut owners {
            owner.finish_handshake()?;
        }
        let map = validated_shard_map(&owners, num_shards)?;
        let starts = map
            .owners
            .iter()
            .map(|slice| slice.start as usize)
            .collect();
        Ok(ClusterBackend {
            owners,
            servers: Vec::new(),
            routing: Routing::ranged(num_shards, starts),
            map,
            completed: 0,
            faults: RequestFaults::none(),
            next_seq: 0,
        })
    }

    /// The validated cluster topology.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Fallible [`DdsBackend::commit_round`]: partition the ordered batches
    /// by owning range, pipeline one `Commit` per owner, collect the acks.
    pub fn try_commit_round(
        &mut self,
        batches: Vec<Vec<(Key, Value)>>,
    ) -> Result<u64, TransportError> {
        let buckets = self.routing.partition(batches);
        let epoch = self.completed;
        let mut pending = Vec::with_capacity(OWNERS);
        for (owner, batches) in buckets.into_iter().enumerate() {
            if !batches.is_empty() {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.owners[owner].send(Request::Commit {
                    epoch,
                    seq,
                    batches,
                })?;
                pending.push(owner);
            }
        }
        let mut accepted = 0u64;
        for owner in pending {
            match self.recv_wire(owner)? {
                Reply::Committed { accepted: n, .. } => accepted += n,
                other => return Err(protocol(owner, "a commit ack", &other)),
            }
        }
        Ok(accepted)
    }

    /// Fallible [`DdsBackend::advance`]: the two-phase barrier of the
    /// [module docs](self).  Phase 1 freezes the writable epoch on every
    /// owner and waits for **all** acks; phase 2 publishes and fetches each
    /// owner's epoch frame on its own thread.
    pub fn try_advance(&mut self) -> Result<RemoteSnapshot, TransportError> {
        let epoch = self.completed;
        // Phase 1 — freeze everywhere.  Pipelined sends, then the ack
        // barrier: no owner is asked to publish until every owner holds
        // epoch `epoch` prepared, so a failure here aborts the advance with
        // nothing published anywhere.
        for owner in &mut self.owners {
            owner.send(Request::FreezeEpoch { epoch })?;
        }
        for owner in 0..OWNERS {
            match self.recv_wire(owner)? {
                Reply::EpochFrozen { epoch: acked } if acked == epoch => {}
                Reply::EpochFrozen { epoch: acked } => {
                    return Err(TransportError::Protocol {
                        worker: owner,
                        message: format!("froze epoch {acked}, expected {epoch}"),
                    })
                }
                other => return Err(protocol(owner, "a freeze ack", &other)),
            }
        }
        // Phase 2 — publish everywhere, fetching and decoding the frames
        // into replicas in parallel (the decode dominates advance latency).
        let groups: Result<Vec<Arc<FrozenEpoch>>, TransportError> = std::thread::scope(|scope| {
            let fetchers: Vec<_> = self
                .owners
                .iter_mut()
                .enumerate()
                .map(|(node, owner)| {
                    scope.spawn(move || -> Result<Arc<FrozenEpoch>, TransportError> {
                        owner.send(Request::PublishEpoch { epoch })?;
                        match owner.recv()? {
                            ClientReply::Epoch(replica) => Ok(replica),
                            ClientReply::Wire(other) => {
                                Err(protocol(node, "a published epoch", &other))
                            }
                        }
                    })
                })
                .collect();
            fetchers
                .into_iter()
                .enumerate()
                .map(|(node, fetcher)| {
                    fetcher.join().unwrap_or_else(|payload| {
                        // A panicked fetcher is a dead owner connection,
                        // not a dead coordinator: surface it as the same
                        // typed error an owner crash produces elsewhere.
                        Err(TransportError::PeerClosed {
                            worker: node,
                            panic: panic_message(payload.as_ref()),
                        })
                    })
                })
                .collect()
        });
        self.completed += 1;
        Ok(RemoteSnapshot::published(
            self.routing.clone(),
            epoch,
            groups?,
        ))
    }

    /// Fallible [`DdsBackend::total_writes`]: fan out, sum the replies.
    pub fn try_total_writes(&mut self) -> Result<u64, TransportError> {
        for owner in &mut self.owners {
            owner.send(Request::TotalWrites)?;
        }
        let mut total = 0;
        for owner in 0..OWNERS {
            match self.recv_wire(owner)? {
                Reply::TotalWrites(writes) => total += writes,
                other => return Err(protocol(owner, "a total-writes reply", &other)),
            }
        }
        Ok(total)
    }

    /// Owner-served per-shard loads of completed epoch `epoch`, fanned out
    /// and merged in global shard order.
    pub fn epoch_loads(&mut self, epoch: usize) -> Result<Vec<ShardLoad>, TransportError> {
        for owner in &mut self.owners {
            owner.send(Request::Loads { epoch })?;
        }
        let mut loads = Vec::new();
        for owner in 0..OWNERS {
            match self.recv_wire(owner)? {
                Reply::Loads(owner_loads) => loads.extend(owner_loads),
                other => return Err(protocol(owner, "a loads reply", &other)),
            }
        }
        loads.sort_by_key(|load| load.shard);
        Ok(loads)
    }

    /// Owner-served dump of completed epoch `epoch` (no particular order).
    pub fn epoch_entries(
        &mut self,
        epoch: usize,
    ) -> Result<Vec<(Key, Vec<Value>)>, TransportError> {
        for owner in &mut self.owners {
            owner.send(Request::Dump { epoch })?;
        }
        let mut entries = Vec::new();
        for owner in 0..OWNERS {
            match self.recv_wire(owner)? {
                Reply::Dump(owner_entries) => entries.extend(owner_entries),
                other => return Err(protocol(owner, "a dump reply", &other)),
            }
        }
        Ok(entries)
    }

    fn recv_wire(&mut self, owner: usize) -> Result<Reply, TransportError> {
        match self.owners[owner].recv()? {
            ClientReply::Wire(reply) => Ok(reply),
            ClientReply::Epoch(_) => Err(TransportError::Protocol {
                worker: owner,
                message: "unsolicited epoch publication".to_string(),
            }),
        }
    }
}

fn protocol(owner: usize, expected: &str, got: &Reply) -> TransportError {
    TransportError::Protocol {
        worker: owner,
        message: format!("expected {expected}, got {got:?}"),
    }
}

/// Settle on the one shard map every owner must advertise, or say exactly
/// which owner disagrees and how.
fn validated_shard_map(
    owners: &[TcpTransport],
    num_shards: usize,
) -> Result<ShardMap, TransportError> {
    let mut settled: Option<ShardMap> = None;
    for (node, owner) in owners.iter().enumerate() {
        let map = owner.shard_map().ok_or_else(|| TransportError::Protocol {
            worker: node,
            message: "owner granted a lease without a cluster shard map".to_string(),
        })?;
        if map.owners.len() != owners.len() {
            return Err(TransportError::Protocol {
                worker: node,
                message: format!(
                    "owner advertises {} owners, client connected to {}",
                    map.owners.len(),
                    owners.len()
                ),
            });
        }
        if map.num_shards() != num_shards || !map.is_contiguous() {
            return Err(TransportError::Protocol {
                worker: node,
                message: format!(
                    "owner's shard map does not tile [0, {num_shards}) contiguously: {:?}",
                    map.owners
                ),
            });
        }
        match &settled {
            None => settled = Some(map.clone()),
            Some(first) if first == map => {}
            Some(first) => {
                return Err(TransportError::Protocol {
                    worker: node,
                    message: format!(
                        "owners disagree on the topology: node 0 advertises {first:?}, \
                         node {node} advertises {map:?}"
                    ),
                })
            }
        }
    }
    settled.ok_or_else(|| TransportError::Protocol {
        worker: 0,
        message: "a cluster needs at least one owner".to_string(),
    })
}

impl<const OWNERS: usize> DdsBackend for ClusterBackend<OWNERS> {
    type View = RemoteSnapshot;

    fn with_shards(num_shards: usize, _threads: usize) -> Self {
        expect_transport(Self::spawn_local(num_shards))
    }

    fn num_shards(&self) -> usize {
        self.routing.num_shards()
    }

    fn empty_view(&self) -> RemoteSnapshot {
        RemoteSnapshot::empty(self.routing.clone())
    }

    fn commit_round(&mut self, batches: Vec<Vec<(Key, Value)>>, _threads: usize) {
        expect_transport(self.try_commit_round(batches));
    }

    fn advance(&mut self, _threads: usize) -> RemoteSnapshot {
        expect_transport(self.try_advance())
    }

    fn completed_epochs(&self) -> usize {
        self.completed
    }

    fn total_writes(&mut self) -> u64 {
        expect_transport(self.try_total_writes())
    }

    fn backend_name(&self) -> &'static str {
        "cluster"
    }

    fn install_request_faults(&mut self, faults: RequestFaults) {
        self.faults = faults.clone();
        for owner in &mut self.owners {
            owner.install_faults(faults.clone());
        }
    }

    fn dropped_requests(&self) -> u64 {
        self.faults.dropped()
    }

    fn severed_connections(&self) -> u64 {
        self.faults.severed()
    }
}

impl<const OWNERS: usize> std::fmt::Debug for ClusterBackend<OWNERS> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterBackend")
            .field("owners", &OWNERS)
            .field("num_shards", &self.routing.num_shards())
            .field("local_servers", &self.servers.len())
            .field("completed_epochs", &self.completed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SnapshotView;
    use crate::key::KeyTag;
    use crate::proto::RequestKind;
    use crate::serve::serve_cluster;

    fn k(a: u64) -> Key {
        Key::of(KeyTag::Scalar, a)
    }

    fn full_round<const N: usize>(backend: &mut ClusterBackend<N>) -> RemoteSnapshot {
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
        let mut cluster = ClusterBackend::<3>::spawn_local(8).unwrap();
        let map = cluster.shard_map().clone();
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
        let mut single = ClusterBackend::<1>::spawn_local(8).unwrap();
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
            let mut cluster = ClusterBackend::<2>::spawn_local(8).unwrap();
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
        let err = ClusterBackend::<2>::connect_cluster(&endpoints, 8).unwrap_err();
        match err {
            TransportError::Protocol { worker, message } => {
                assert_eq!(worker, 1);
                assert!(message.contains("disagree"), "{message}");
            }
            other => panic!("expected a topology mismatch, got {other:?}"),
        }

        // A plain (non-cluster) server advertises no map at all.
        let plain = crate::serve::serve(("127.0.0.1", 0)).unwrap();
        let endpoints = vec![plain.local_addr().to_string()];
        let err = ClusterBackend::<1>::connect_cluster(&endpoints, 8).unwrap_err();
        match err {
            TransportError::Protocol { message, .. } => {
                assert!(message.contains("without a cluster shard map"), "{message}");
            }
            other => panic!("expected a missing-map error, got {other:?}"),
        }
    }
}
