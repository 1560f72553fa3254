//! The transport-generic message-passing backend: [`RemoteBackend`].
//!
//! This is the client ("backend") and server ("owner") realization of the
//! [`crate::proto`] wire protocol.  Shards are partitioned into groups, each
//! group is owned by one owner, and the backend talks to each owner over one
//! [`crate::transport::Transport`] connection:
//!
//! * `RemoteBackend<MpscTransport>` is the in-process
//!   [`crate::ChannelBackend`] — typed messages over channels, frozen epochs
//!   published zero-copy as shared `Arc`s;
//! * `RemoteBackend<TcpTransport>` ([`TcpBackend`]) runs the identical owner
//!   loop behind sockets — every request and reply round-trips through the
//!   byte codec.  Its owners are in-process threads
//!   ([`RemoteBackend::new`]), the per-worker sessions of one
//!   [`crate::serve`] process ([`TcpBackend::connect_remote`]), or the `N`
//!   nodes of a cluster ([`TcpBackend::connect_cluster`],
//!   [`TcpBackend::spawn_cluster`]).  A frozen epoch travels in one pass
//!   per side: the owner encodes its frozen shard maps straight into the
//!   frame buffer, and the client transport decodes the frame straight
//!   into a local replica.
//!
//! The owner count is runtime data, and so is the shard placement
//! (`Routing`): interleaved (`shard % owners`) for in-process owners and
//! single serving processes, contiguous ranges for a cluster.  A socket
//! client takes its placement from the lease grants: when every owner
//! advertises the same contiguous [`crate::proto::ShardMap`], it routes by
//! range lookup; when none advertises a map, it interleaves.
//!
//! Either way the transport hands the backend a [`ClientReply::Epoch`], and
//! a round's reads resolve **locally and lock-free**: the view holds one
//! [`FrozenEpoch`] per owner (shared or replicated — machine code cannot
//! tell) and probes its immutable maps directly.  Only the write-side
//! protocol (`Commit`, `FreezeEpoch`, `PublishEpoch`) and the write-total
//! query (`TotalWrites`) cross the transport.  Owners keep only their latest
//! published epoch (plus the prepared one while the barrier runs); every
//! earlier epoch lives exactly as long as the views that hold it.
//!
//! # The two-phase advance
//!
//! Every epoch advance is a client-coordinated barrier over all owners:
//!
//! ```text
//!  phase 1: FreezeEpoch(e) ──► every owner      (all must ack…)
//!                 owner: park writable epoch e as `prepared`
//!                        — unpublished, commits for e+1 accepted
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
//! replays, and re-acks/re-publishes the identical frozen data.  Both
//! phases are pipelined: the requests go out to every owner before the
//! first reply is read, and the published frames are received in owner
//! order on the calling thread.
//!
//! Owner failures surface as typed [`TransportError`]s: when a connection
//! drops because the owner thread panicked, the backend joins the thread
//! and attaches the panic payload to the error instead of hanging or dying
//! on an opaque broken channel.

use crate::backend::{DdsBackend, SnapshotView};
use crate::hashing::FxHashMap;
use crate::key::{Key, Value};
use crate::proto::{Reply, Request, ShardMap};
use crate::serve::{serve_cluster_listener, DdsServer};
use crate::slot::Slot;
use crate::stats::{ShardLoad, StoreStats};
use crate::store::{partition_by_shard, shard_index};
use crate::transport::dispatch::Worker;
use crate::transport::{
    ClientReply, RequestFaults, TcpOptions, TcpTransport, Transport, TransportError,
};
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// [`RemoteBackend`] over localhost TCP sockets — the deployable backend.
///
/// Select it through `ampc_runtime::AmpcConfig` (`DdsBackendKind::Remote`)
/// rather than constructing it directly.
pub type TcpBackend = RemoteBackend<TcpTransport>;

// ---------------------------------------------------------------------------
// FrozenEpoch — one owner's published epoch
// ---------------------------------------------------------------------------

/// One frozen epoch of one owner's shard group.
///
/// On shared-memory transports the owner and every view hold the *same*
/// allocation (the zero-copy publication); on wire transports each view
/// holds a replica the transport decoded straight from the epoch frame.
/// The maps are immutable once published; the read counters are atomics so
/// concurrent machine threads and the accounting agree without locks.
pub struct FrozenEpoch {
    /// `shards[local]` — frozen map of the group's `local`-th shard.
    pub(crate) shards: Vec<FxHashMap<Key, Slot>>,
    /// Writes that built each shard.
    pub(crate) writes: Vec<u64>,
    /// Reads served per shard since the epoch froze.
    pub(crate) reads: Vec<AtomicU64>,
}

impl FrozenEpoch {
    /// An epoch over `shards[local]` built from `writes[local]` writes,
    /// with every read counter at zero.
    pub(crate) fn new(shards: Vec<FxHashMap<Key, Slot>>, writes: Vec<u64>) -> FrozenEpoch {
        let reads = (0..shards.len()).map(|_| AtomicU64::new(0)).collect();
        FrozenEpoch {
            shards,
            writes,
            reads,
        }
    }

    /// Every `(key, values)` pair of the group, in no particular order —
    /// what [`SnapshotView::entries`] returns for one owner.  Not a model
    /// operation and not counted as reads.
    pub fn entries(&self) -> impl Iterator<Item = (Key, Vec<Value>)> + '_ {
        self.shards
            .iter()
            .flatten()
            .map(|(key, slot)| (*key, slot.as_slice().to_vec()))
    }
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

/// Per-owner `Commit` payloads: `batches[owner]` = `(local shard, pairs)`.
pub(crate) type CommitBatches = Vec<Vec<(usize, Vec<(Key, Value)>)>>;

/// Key → (owner, local shard) routing, shared by backend and views.
#[derive(Clone, Debug)]
pub(crate) struct Routing {
    num_shards: usize,
    placement: Placement,
}

/// How global shards map onto owner groups.
#[derive(Clone, Debug)]
enum Placement {
    /// `shard → (shard % workers, shard / workers)` — the in-process and
    /// single-owner-process split, where every owner serves a stride of the
    /// shard space.
    Interleaved { workers: usize },
    /// Contiguous ranges in owner order: owner `i` holds global shards
    /// `[starts[i], starts[i+1])` (with `starts[owners]` an implicit
    /// `num_shards` sentinel appended at construction) — the cluster split,
    /// matching the ranges in an advertised [`crate::proto::ShardMap`].
    Ranged { starts: Vec<usize> },
}

impl Routing {
    /// Interleaved routing over `workers` owner groups.
    pub(crate) fn interleaved(num_shards: usize, workers: usize) -> Routing {
        Routing {
            num_shards,
            placement: Placement::Interleaved { workers },
        }
    }

    /// Ranged routing: `starts[i]` is the first global shard of owner `i`.
    /// Starts must be non-decreasing from 0; the final range ends at
    /// `num_shards`.
    pub(crate) fn ranged(num_shards: usize, mut starts: Vec<usize>) -> Routing {
        assert!(
            !starts.is_empty(),
            "ranged routing needs at least one owner"
        );
        assert_eq!(starts[0], 0, "owner 0's range must start at shard 0");
        assert!(
            starts.windows(2).all(|pair| pair[0] <= pair[1])
                && starts.last().is_some_and(|&last| last <= num_shards),
            "owner ranges must tile the shard space in order"
        );
        starts.push(num_shards);
        Routing {
            num_shards,
            placement: Placement::Ranged { starts },
        }
    }

    pub(crate) fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Number of owner groups.
    pub(crate) fn owners(&self) -> usize {
        match &self.placement {
            Placement::Interleaved { workers } => *workers,
            Placement::Ranged { starts } => starts.len() - 1,
        }
    }

    #[inline]
    fn shard_of(&self, key: &Key) -> usize {
        shard_index(key, self.num_shards)
    }

    /// Partition ordered write batches into one `Commit` payload per owner:
    /// `per_owner[o]` lists `(local shard, pairs)` for every non-empty
    /// shard of owner `o`, ascending by local index.
    ///
    /// Pairs are bucketed by global shard index first — the pass of
    /// [`crate::ShardedStore::partition_writes`], one vector index per
    /// pair — and only the non-empty shards are then placed.  Batch order,
    /// then write order, is preserved within every shard, which (keys
    /// living on exactly one shard) preserves every key's multi-value
    /// index order.
    pub(crate) fn partition(&self, batches: Vec<Vec<(Key, Value)>>) -> CommitBatches {
        let mut per_owner: CommitBatches = vec![Vec::new(); self.owners()];
        let per_shard = partition_by_shard(self.num_shards, batches);
        for (shard, pairs) in per_shard.into_iter().enumerate() {
            if !pairs.is_empty() {
                let (owner, local) = self.placement(shard);
                per_owner[owner].push((local, pairs));
            }
        }
        per_owner
    }

    /// (owner, local shard index) owning `key`.
    #[inline]
    pub(crate) fn route(&self, key: &Key) -> (usize, usize) {
        self.placement(self.shard_of(key))
    }

    /// (owner, local shard index) of global shard `shard`.
    #[inline]
    pub(crate) fn placement(&self, shard: usize) -> (usize, usize) {
        match &self.placement {
            Placement::Interleaved { workers } => (shard % workers, shard / workers),
            Placement::Ranged { starts } => {
                // partition_point finds the first start beyond `shard`; the
                // owner is the range before it.  Empty ranges are skipped by
                // construction — their start equals the next start, and
                // partition_point lands past both.
                let owner = starts.partition_point(|&start| start <= shard) - 1;
                (owner, shard - starts[owner])
            }
        }
    }
}

// ---------------------------------------------------------------------------
// RemoteBackend
// ---------------------------------------------------------------------------

/// A multi-owner, message-passing DDS backend, generic over the
/// [`Transport`] carrying the [`crate::proto`] protocol.
///
/// See the [module docs](self) for the design; select it through
/// `ampc_runtime::AmpcConfig` rather than constructing it directly.
pub struct RemoteBackend<T: Transport> {
    /// One connection per owner, in owner order.
    clients: Vec<T>,
    /// Join handles of in-process owner threads (`None` for owners this
    /// backend did not spawn).
    handles: Vec<Option<JoinHandle<()>>>,
    /// Owner processes spawned by [`TcpBackend::spawn_cluster`] (empty
    /// otherwise).  `Drop` closes every client before these shut down, so
    /// goodbyes release every lease while the servers still accept.
    servers: Vec<DdsServer>,
    routing: Routing,
    completed: usize,
    faults: RequestFaults,
    /// Monotone sequence numbers for `Commit` requests (owners use them to
    /// deduplicate retransmissions).
    next_seq: u64,
}

impl<T: Transport> RemoteBackend<T> {
    /// Spawn a backend with `num_shards` shards owned by up to `workers`
    /// owner threads (clamped to `[1, num_shards]`).
    pub fn new(num_shards: usize, workers: usize) -> Self {
        let num_shards = num_shards.max(1);
        let workers = workers.clamp(1, num_shards);
        let mut clients = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for worker in 0..workers {
            let shard_count = (worker..num_shards).step_by(workers).count();
            let (client, server) = T::connect(worker);
            let state = Worker::new(shard_count);
            let handle = std::thread::Builder::new()
                .name(format!("dds-owner-{worker}"))
                .spawn(move || state.serve(server))
                // lint: allow(panic) — thread-spawn failure at backend construction has no round boundary to report through; dying loudly beats serving without owners
                .expect("spawning DDS owner thread");
            clients.push(client);
            handles.push(Some(handle));
        }
        RemoteBackend::from_clients(clients, handles, Routing::interleaved(num_shards, workers))
    }

    fn from_clients(
        clients: Vec<T>,
        handles: Vec<Option<JoinHandle<()>>>,
        routing: Routing,
    ) -> Self {
        RemoteBackend {
            clients,
            handles,
            servers: Vec::new(),
            routing,
            completed: 0,
            faults: RequestFaults::none(),
            next_seq: 0,
        }
    }

    /// Number of owners serving the shards.
    pub fn num_workers(&self) -> usize {
        self.clients.len()
    }

    /// When a connection died without a panic payload, join the owner and
    /// harvest its panic message so the caller sees *why*, not just that the
    /// channel broke.
    fn harvest(&mut self, err: TransportError) -> TransportError {
        let TransportError::PeerClosed {
            worker,
            panic: None,
        } = &err
        else {
            return err;
        };
        let worker = *worker;
        let Some(handle) = self.handles.get_mut(worker).and_then(Option::take) else {
            return err;
        };
        match handle.join() {
            Ok(()) => err,
            Err(payload) => {
                let message = crate::transport::panic_message(payload.as_ref())
                    .unwrap_or_else(|| "owner panicked with a non-string payload".to_string());
                TransportError::PeerClosed {
                    worker,
                    panic: Some(message),
                }
            }
        }
    }

    fn send(&mut self, worker: usize, request: Request) -> Result<(), TransportError> {
        let result = self.clients[worker].send(request);
        result.map_err(|err| self.harvest(err))
    }

    fn recv(&mut self, worker: usize) -> Result<ClientReply, TransportError> {
        let result = self.clients[worker].recv();
        result.map_err(|err| self.harvest(err))
    }

    fn recv_wire(&mut self, worker: usize) -> Result<Reply, TransportError> {
        match self.recv(worker)? {
            ClientReply::Wire(reply) => Ok(reply),
            ClientReply::Epoch(_) => Err(TransportError::Protocol {
                worker,
                message: "unsolicited epoch publication".to_string(),
            }),
        }
    }

    /// Pipeline `request` to every owner, then collect one wire reply per
    /// owner, in owner order.
    fn fan_out(&mut self, request: Request) -> Result<Vec<Reply>, TransportError> {
        let owners = self.clients.len();
        for worker in 0..owners {
            self.send(worker, request.clone())?;
        }
        (0..owners).map(|worker| self.recv_wire(worker)).collect()
    }

    /// Fallible [`DdsBackend::commit_round`]: partition the ordered batches
    /// by owner, pipeline one `Commit` per owner, then collect the acks.
    /// Returns the number of pairs accepted.
    pub fn try_commit_round(
        &mut self,
        batches: Vec<Vec<(Key, Value)>>,
    ) -> Result<u64, TransportError> {
        let buckets = self.routing.partition(batches);
        let epoch = self.completed;
        let mut pending = Vec::with_capacity(buckets.len());
        for (worker, batches) in buckets.into_iter().enumerate() {
            if !batches.is_empty() {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.send(
                    worker,
                    Request::Commit {
                        epoch,
                        seq,
                        batches,
                    },
                )?;
                pending.push(worker);
            }
        }
        let mut accepted = 0u64;
        for worker in pending {
            match self.recv_wire(worker)? {
                Reply::Committed { accepted: n, .. } => accepted += n,
                other => return Err(unexpected(worker, "a commit ack", &other)),
            }
        }
        Ok(accepted)
    }

    /// Fallible [`DdsBackend::advance`]: the two-phase barrier of the
    /// [module docs](self).  Phase 1 freezes the writable epoch on every
    /// owner and waits for **all** acks; phase 2 publishes everywhere and
    /// collects each frozen epoch — shared when the transport can, a
    /// replica the transport decoded from the frame when it cannot.
    pub fn try_advance(&mut self) -> Result<RemoteSnapshot, TransportError> {
        let epoch = self.completed;
        // Phase 1: no owner is asked to publish until every owner holds the
        // epoch prepared, so a failure here publishes nothing anywhere.
        for (worker, reply) in self
            .fan_out(Request::FreezeEpoch { epoch })?
            .into_iter()
            .enumerate()
        {
            match reply {
                Reply::EpochFrozen { epoch: acked } if acked == epoch => {}
                other => return Err(unexpected(worker, "a freeze ack", &other)),
            }
        }
        // Phase 2: publish everywhere, then receive the frames in order.
        let owners = self.clients.len();
        for worker in 0..owners {
            self.send(worker, Request::PublishEpoch { epoch })?;
        }
        let mut groups = Vec::with_capacity(owners);
        for worker in 0..owners {
            match self.recv(worker)? {
                ClientReply::Epoch(group) => groups.push(group),
                ClientReply::Wire(other) => {
                    return Err(unexpected(worker, "a published epoch", &other))
                }
            }
        }
        self.completed += 1;
        Ok(RemoteSnapshot::published(
            self.routing.clone(),
            epoch,
            groups,
        ))
    }

    /// Fallible [`DdsBackend::total_writes`].
    pub fn try_total_writes(&mut self) -> Result<u64, TransportError> {
        let mut total = 0;
        for (worker, reply) in self.fan_out(Request::TotalWrites)?.into_iter().enumerate() {
            match reply {
                Reply::TotalWrites(writes) => total += writes,
                other => return Err(unexpected(worker, "a total-writes reply", &other)),
            }
        }
        Ok(total)
    }
}

/// The typed error for a well-formed reply of the wrong kind.
fn unexpected(worker: usize, expected: &str, got: &Reply) -> TransportError {
    TransportError::Protocol {
        worker,
        message: format!("expected {expected}, got {got:?}"),
    }
}

impl RemoteBackend<TcpTransport> {
    /// Connect to an already-running owner process (`ampc_dds::serve`) at
    /// `endpoint` instead of spawning in-process owner threads.
    ///
    /// The backend opens one leased connection per owner under a fresh
    /// session id; the serving process derives each owner's shard group
    /// from the topology announced in the lease and keeps per-session
    /// state, so any number of concurrent clients can share one owner
    /// process.  Dropping the backend says goodbye on every connection,
    /// releasing the session immediately.
    pub fn connect_remote(
        endpoint: impl ToSocketAddrs,
        num_shards: usize,
        workers: usize,
    ) -> Result<Self, TransportError> {
        let num_shards = num_shards.max(1);
        let workers = workers.clamp(1, num_shards);
        let endpoint = endpoint
            .to_socket_addrs()
            .map_err(|err| TransportError::Io {
                worker: 0,
                message: format!("resolving the DDS serve address: {err}"),
            })?
            .next()
            .ok_or_else(|| TransportError::Io {
                worker: 0,
                message: "the DDS serve address resolved to nothing".to_string(),
            })?;
        Self::connect(&vec![endpoint; workers], num_shards)
    }

    /// Connect to already-running cluster owners, one endpoint per node in
    /// node order (each started with [`crate::serve::serve_cluster`] over
    /// the identical peer list).
    ///
    /// Validates the topology before accepting it: the advertised shard
    /// maps must be identical, contiguous, and sized for `num_shards` with
    /// one slice per connected owner.  Owners that all serve standalone
    /// (no map) are routed interleaved instead, like one `serve` process.
    pub fn connect_cluster(
        endpoints: &[String],
        num_shards: usize,
    ) -> Result<Self, TransportError> {
        Self::connect(endpoints, num_shards.max(1))
    }

    /// Spawn a self-contained local cluster: `owners` serving processes on
    /// ephemeral localhost ports, plus a client connected to all of them.
    /// The backend holds the servers and shuts them down when dropped.
    ///
    /// Listeners are bound *before* any server starts, so every owner can
    /// be told the full peer list — the chicken-and-egg every ephemeral
    /// port cluster spawner has to break.
    pub fn spawn_cluster(owners: usize, num_shards: usize) -> Result<Self, TransportError> {
        let io_err = |node: usize, message: String| TransportError::Io {
            worker: node,
            message,
        };
        let mut listeners = Vec::with_capacity(owners);
        let mut peers = Vec::with_capacity(owners);
        for node in 0..owners {
            let listener = TcpListener::bind(("127.0.0.1", 0))
                .map_err(|err| io_err(node, format!("binding cluster owner {node}: {err}")))?;
            let addr = listener.local_addr().map_err(|err| {
                io_err(
                    node,
                    format!("reading cluster owner {node}'s address: {err}"),
                )
            })?;
            peers.push(addr.to_string());
            listeners.push(listener);
        }
        let mut servers = Vec::with_capacity(owners);
        for (node, listener) in listeners.into_iter().enumerate() {
            servers.push(
                serve_cluster_listener(listener, node, peers.clone())
                    .map_err(|err| io_err(node, format!("starting cluster owner {node}: {err}")))?,
            );
        }
        let mut backend = Self::connect_cluster(&peers, num_shards)?;
        backend.servers = servers;
        Ok(backend)
    }

    /// The cluster shard map the owners advertised, or `None` when they
    /// serve standalone (interleaved routing).
    pub fn shard_map(&self) -> Option<&ShardMap> {
        self.clients.first()?.shard_map()
    }

    /// The one connect path: dial every endpoint (`endpoints[w]` serves
    /// owner `w`), settle every lease handshake, then route as the grants
    /// prescribe (see [`routing_from_grants`]).
    fn connect<A: ToSocketAddrs>(
        endpoints: &[A],
        num_shards: usize,
    ) -> Result<Self, TransportError> {
        let options = TcpOptions::fresh().with_topology(num_shards, endpoints.len());
        let mut clients = Vec::with_capacity(endpoints.len());
        for (worker, endpoint) in endpoints.iter().enumerate() {
            clients.push(TcpTransport::connect_to(endpoint, worker, options.clone())?);
        }
        for client in &mut clients {
            client.finish_handshake()?;
        }
        let routing = routing_from_grants(&clients, num_shards)?;
        let handles = clients.iter().map(|_| None).collect();
        Ok(RemoteBackend::from_clients(clients, handles, routing))
    }
}

/// The routing the owners' lease grants prescribe: ranged over the shard
/// map when every grant carries the identical contiguous map, interleaved
/// when none carries one, and a typed error naming the offending owner
/// otherwise.
fn routing_from_grants(
    owners: &[TcpTransport],
    num_shards: usize,
) -> Result<Routing, TransportError> {
    if !owners.is_empty() && owners.iter().all(|owner| owner.shard_map().is_none()) {
        return Ok(Routing::interleaved(num_shards, owners.len()));
    }
    let map = validated_shard_map(owners, num_shards)?;
    let starts = map
        .owners
        .iter()
        .map(|slice| slice.start as usize)
        .collect();
    Ok(Routing::ranged(num_shards, starts))
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

/// Unwrap a transport result inside the infallible [`DdsBackend`] surface.
///
/// The panic message carries the full typed error (worker, cause, any owner
/// panic payload); `ampc_runtime` catches it at the round boundary and
/// surfaces it as a typed `AmpcError::Backend`.
pub(crate) fn expect_transport<V>(result: Result<V, TransportError>) -> V {
    match result {
        Ok(value) => value,
        // lint: allow(panic) — the documented harvest boundary: the runtime catches this at the round edge and re-types it as AmpcError::Backend
        Err(err) => panic!("DDS transport failure: {err}"),
    }
}

impl<T: Transport> DdsBackend for RemoteBackend<T> {
    type View = RemoteSnapshot;

    fn with_shards(num_shards: usize, threads: usize) -> Self {
        RemoteBackend::new(num_shards, threads)
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
        T::NAME
    }

    fn install_request_faults(&mut self, faults: RequestFaults) {
        self.faults = faults.clone();
        for client in &mut self.clients {
            client.install_faults(faults.clone());
        }
    }

    fn dropped_requests(&self) -> u64 {
        self.faults.dropped()
    }

    fn severed_connections(&self) -> u64 {
        self.faults.severed()
    }
}

impl<T: Transport> Drop for RemoteBackend<T> {
    fn drop(&mut self) {
        // Disconnect every owner (their serve loops exit on a gone client),
        // then reap the threads so nothing is left detached; spawned
        // servers shut down afterwards, as the fields drop.  Panic payloads
        // were either harvested during operation or are deliberately
        // swallowed here — propagating from `drop` would abort.
        self.clients.clear();
        for handle in self.handles.iter_mut().filter_map(Option::take) {
            let _ = handle.join();
        }
    }
}

impl<T: Transport> std::fmt::Debug for RemoteBackend<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteBackend")
            .field("transport", &T::NAME)
            .field("num_shards", &self.routing.num_shards())
            .field("workers", &self.clients.len())
            .field("local_servers", &self.servers.len())
            .field("completed_epochs", &self.completed)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// RemoteSnapshot
// ---------------------------------------------------------------------------

/// State shared by every clone of a [`RemoteSnapshot`].
struct ViewInner {
    routing: Routing,
    /// Completed epoch served, or `None` for the pre-input empty view.
    epoch: Option<usize>,
    /// The epoch's frozen data, one entry per owner (`groups[w]` is owner
    /// `w`'s shard group) — shared with the owner on in-process transports,
    /// a local replica on wire transports.  Empty for the empty view.
    groups: Vec<Arc<FrozenEpoch>>,
    /// Read accounting of the empty view (per shard); published epochs
    /// count inside their [`FrozenEpoch`] instead.
    empty_reads: Vec<AtomicU64>,
}

/// Read view of one completed [`RemoteBackend`] epoch.
///
/// Cloning is an `Arc` bump; clones share the epoch data and therefore the
/// read accounting.  Every operation — lookups *and* the driver-side
/// `shard_loads` / `entries` / `len` — resolves locally against the frozen
/// epoch, with no transport traffic; views therefore stay valid, and their
/// reads byte-identical, for as long as the caller keeps them, even after
/// the backend (and its owner threads) are gone.
#[derive(Clone)]
pub struct RemoteSnapshot {
    inner: Arc<ViewInner>,
}

impl RemoteSnapshot {
    /// View of completed epoch `epoch`, with `groups[i]` owner `i`'s frozen
    /// shard group under `routing`.
    pub(crate) fn published(
        routing: Routing,
        epoch: usize,
        groups: Vec<Arc<FrozenEpoch>>,
    ) -> RemoteSnapshot {
        RemoteSnapshot {
            inner: Arc::new(ViewInner {
                epoch: Some(epoch),
                groups,
                empty_reads: Vec::new(),
                routing,
            }),
        }
    }

    /// The pre-input empty view under `routing`.
    pub(crate) fn empty(routing: Routing) -> RemoteSnapshot {
        RemoteSnapshot {
            inner: Arc::new(ViewInner {
                epoch: None,
                groups: Vec::new(),
                empty_reads: (0..routing.num_shards())
                    .map(|_| AtomicU64::new(0))
                    .collect(),
                routing,
            }),
        }
    }

    /// The frozen group data owning `key`, with the key's local shard index
    /// inside it, or `None` on the empty view (which counts the miss).
    #[inline]
    fn probe(&self, key: &Key) -> Option<(&FrozenEpoch, usize)> {
        if self.inner.epoch.is_none() {
            let shard = self.inner.routing.shard_of(key);
            self.inner.empty_reads[shard].fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let (worker, local) = self.inner.routing.route(key);
        Some((&self.inner.groups[worker], local))
    }

    fn loads(&self) -> Vec<ShardLoad> {
        if self.inner.epoch.is_none() {
            return self
                .inner
                .empty_reads
                .iter()
                .enumerate()
                .map(|(shard, reads)| ShardLoad {
                    shard,
                    keys: 0,
                    writes: 0,
                    reads: reads.load(Ordering::Relaxed),
                })
                .collect();
        }
        (0..self.inner.routing.num_shards())
            .map(|shard| {
                let (worker, local) = self.inner.routing.placement(shard);
                let group = &self.inner.groups[worker];
                ShardLoad {
                    shard,
                    keys: group.shards[local].len() as u64,
                    writes: group.writes[local],
                    reads: group.reads[local].load(Ordering::Relaxed),
                }
            })
            .collect()
    }
}

impl SnapshotView for RemoteSnapshot {
    fn num_shards(&self) -> usize {
        self.inner.routing.num_shards()
    }

    fn get(&self, key: &Key) -> Option<Value> {
        let (epoch, local) = self.probe(key)?;
        epoch.reads[local].fetch_add(1, Ordering::Relaxed);
        epoch.shards[local].get(key).map(Slot::first)
    }

    fn get_indexed(&self, key: &Key, index: usize) -> Option<Value> {
        let (epoch, local) = self.probe(key)?;
        epoch.reads[local].fetch_add(1, Ordering::Relaxed);
        epoch.shards[local]
            .get(key)
            .and_then(|slot| slot.get(index))
    }

    fn get_all(&self, key: &Key) -> Vec<Value> {
        let Some((epoch, local)) = self.probe(key) else {
            return Vec::new();
        };
        let values = epoch.shards[local]
            .get(key)
            .map(|slot| slot.as_slice().to_vec())
            .unwrap_or_default();
        epoch.reads[local].fetch_add(values.len().max(1) as u64, Ordering::Relaxed);
        values
    }

    fn multiplicity(&self, key: &Key) -> usize {
        let Some((epoch, local)) = self.probe(key) else {
            return 0;
        };
        epoch.reads[local].fetch_add(1, Ordering::Relaxed);
        epoch.shards[local].get(key).map_or(0, Slot::len)
    }

    fn len(&self) -> usize {
        self.inner
            .groups
            .iter()
            .map(|group| group.shards.iter().map(FxHashMap::len).sum::<usize>())
            .sum()
    }

    fn get_many_slice(&self, keys: &[Key], out: &mut [Option<Value>]) {
        assert!(
            out.len() >= keys.len(),
            "output slice shorter than key batch"
        );
        if self.inner.epoch.is_none() {
            for (key, slot) in keys.iter().zip(out.iter_mut()) {
                let shard = self.inner.routing.shard_of(key);
                self.inner.empty_reads[shard].fetch_add(1, Ordering::Relaxed);
                *slot = None;
            }
            return;
        }
        // Every key resolves against the frozen maps directly; coalesce
        // read-counter updates over runs of same-shard keys (totals are
        // identical to per-key counting), mirroring `Snapshot`.
        let mut run: Option<(usize, usize)> = None;
        let mut run_len = 0u64;
        for (key, slot) in keys.iter().zip(out.iter_mut()) {
            let (worker, local) = self.inner.routing.route(key);
            if run != Some((worker, local)) {
                if let Some((w, l)) = run {
                    self.inner.groups[w].reads[l].fetch_add(run_len, Ordering::Relaxed);
                }
                run = Some((worker, local));
                run_len = 0;
            }
            run_len += 1;
            *slot = self.inner.groups[worker].shards[local]
                .get(key)
                .map(Slot::first);
        }
        if let Some((w, l)) = run {
            self.inner.groups[w].reads[l].fetch_add(run_len, Ordering::Relaxed);
        }
    }

    fn total_reads(&self) -> u64 {
        self.loads().iter().map(|load| load.reads).sum()
    }

    fn shard_loads(&self) -> Vec<ShardLoad> {
        self.loads()
    }

    fn stats(&self) -> StoreStats {
        StoreStats::from_loads(self.loads())
    }

    fn entries(&self) -> Vec<(Key, Vec<Value>)> {
        self.inner
            .groups
            .iter()
            .flat_map(|group| group.entries())
            .collect()
    }
}

impl std::fmt::Debug for RemoteSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteSnapshot")
            .field("num_shards", &self.inner.routing.num_shards())
            .field("epoch", &self.inner.epoch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyTag;
    use crate::transport::MpscTransport;

    fn k(a: u64) -> Key {
        Key::of(KeyTag::Scalar, a)
    }

    fn owner_served_requests_agree_with_the_view<T: Transport>() {
        let mut backend = RemoteBackend::<T>::new(8, 3);
        backend.commit_round(
            vec![
                (0..40u64).map(|i| (k(i % 10), Value::scalar(i))).collect(),
                vec![(k(3), Value::pair(7, 8))],
            ],
            1,
        );
        let view = backend.advance(1);

        // The owner-served write total agrees with the writes the view's
        // local loads account for, and the loads cover every key once.
        let loads = view.shard_loads();
        assert_eq!(loads.len(), 8);
        assert_eq!(loads.iter().map(|load| load.writes).sum::<u64>(), 41);
        assert_eq!(loads.iter().map(|load| load.keys).sum::<u64>(), 10);
        assert_eq!(view.entries().len(), 10);
        assert_eq!(backend.total_writes(), 41);
    }

    #[test]
    fn mpsc_owner_served_requests_agree_with_the_view() {
        owner_served_requests_agree_with_the_view::<MpscTransport>();
    }

    #[test]
    fn tcp_owner_served_requests_agree_with_the_view() {
        owner_served_requests_agree_with_the_view::<TcpTransport>();
    }

    fn owner_panics_surface_as_typed_errors<T: Transport>() {
        let mut backend = RemoteBackend::<T>::new(4, 2);
        backend.commit_round(vec![vec![(k(1), Value::scalar(1))]], 1);
        let _ = backend.advance(1);
        // Publishing an epoch that was never frozen is a protocol
        // violation: the owner panics, and the client must surface a typed
        // error carrying the harvested panic payload — not hang on a dead
        // connection.
        let err = backend
            .fan_out(Request::PublishEpoch { epoch: 7 })
            .unwrap_err();
        match err {
            TransportError::PeerClosed {
                panic: Some(message),
                ..
            } => assert!(
                message.contains("publish must name the prepared epoch"),
                "{message}"
            ),
            other => panic!("expected a harvested owner panic, got {other:?}"),
        }
    }

    #[test]
    fn mpsc_owner_panics_surface_as_typed_errors() {
        owner_panics_surface_as_typed_errors::<MpscTransport>();
    }

    #[test]
    fn tcp_owner_panics_surface_as_typed_errors() {
        owner_panics_surface_as_typed_errors::<TcpTransport>();
    }

    fn retransmitted_requests_apply_exactly_once<T: Transport>() {
        use crate::proto::RequestKind;
        use crate::transport::RequestFaults;

        let run = |faulted: bool| {
            let mut backend = RemoteBackend::<T>::new(8, 2);
            let faults = RequestFaults::none();
            if faulted {
                faults.schedule_drop(RequestKind::Commit, 0, 0);
                faults.schedule_drop(RequestKind::Commit, 0, 1);
                faults.schedule_drop(RequestKind::PublishEpoch, 1, 0);
            }
            backend.install_request_faults(faults.clone());
            backend.commit_round(
                vec![(0..60u64).map(|i| (k(i % 20), Value::scalar(i))).collect()],
                1,
            );
            let d0 = backend.advance(1);
            backend.commit_round(
                vec![(0..10u64).map(|i| (k(i), Value::pair(i, 1))).collect()],
                1,
            );
            let d1 = backend.advance(1);
            let mut entries0 = d0.entries();
            let mut entries1 = d1.entries();
            entries0.sort_by_key(|&(key, _)| key);
            entries1.sort_by_key(|&(key, _)| key);
            (entries0, entries1, backend.total_writes(), faults.dropped())
        };

        let (clean0, clean1, clean_writes, clean_fired) = run(false);
        let (faulty0, faulty1, faulty_writes, faulty_fired) = run(true);
        assert_eq!(clean_fired, 0);
        assert_eq!(faulty_fired, 3, "every scheduled fault must fire");
        // The duplicates really crossed the transport (pinned in
        // `transport::tests`); if the owner ever re-applied one, the
        // multiplicities and write totals here would double.
        assert_eq!(clean0, faulty0);
        assert_eq!(clean1, faulty1);
        assert_eq!(clean_writes, faulty_writes);
    }

    #[test]
    fn mpsc_retransmitted_requests_apply_exactly_once() {
        retransmitted_requests_apply_exactly_once::<MpscTransport>();
    }

    #[test]
    fn tcp_retransmitted_requests_apply_exactly_once() {
        retransmitted_requests_apply_exactly_once::<TcpTransport>();
    }

    #[test]
    fn owners_do_not_retain_epochs_older_than_the_latest() {
        let mut backend = RemoteBackend::<MpscTransport>::new(4, 2);
        backend.commit_round(vec![vec![(k(1), Value::scalar(1))]], 1);
        let view = backend.advance(1);
        // On the shared-memory transport the view and the owner hold the
        // same allocation, so once the view is gone only the owner could
        // keep epoch 0 alive.
        let epoch0 = Arc::downgrade(&view.inner.groups[0]);
        drop(view);
        for round in 1..3u64 {
            backend.commit_round(vec![vec![(k(round), Value::scalar(round))]], 1);
            let _ = backend.advance(1);
        }
        assert!(epoch0.upgrade().is_none(), "epoch 0 outlived its last view");
    }

    #[test]
    fn epoch_frames_decode_into_identical_replicas() {
        let mut backend = RemoteBackend::<MpscTransport>::new(4, 1);
        backend.commit_round(
            vec![(0..30u64).map(|i| (k(i % 12), Value::scalar(i))).collect()],
            1,
        );
        let view = backend.advance(1);
        // Encode the shared frozen epoch the way an owner publishes it on
        // the wire, decode it the way a client replicates it, and compare
        // every shard map and write count of the replica.
        let shared = &view.inner.groups[0];
        let mut frame = Vec::new();
        crate::proto::encode_epoch_into(&mut frame, shared);
        let replica = crate::proto::decode_epoch_replica(&frame)
            .expect("an epoch reply")
            .expect("a well-formed frame");
        assert_eq!(replica.shards, shared.shards);
        assert_eq!(replica.writes, shared.writes);
        assert!(replica
            .shards
            .iter()
            .flat_map(|map| map.values())
            .all(|slot| matches!(slot, Slot::One(_)) == (slot.len() == 1)));
    }
}
