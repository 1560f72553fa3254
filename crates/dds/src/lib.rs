//! # ampc-dds — Distributed Data Store substrate for the AMPC model
//!
//! The AMPC model (Behnezhad et al., SPAA 2019) extends MPC by writing every
//! message produced in round *i* into a **distributed data store** `D_i`.
//! In round *i + 1* all machines get random *read* access to `D_i`, and the
//! keys a machine reads may depend on the values returned by its earlier
//! reads in the same round ("adaptivity").
//!
//! This crate implements the data-store side of that model as an in-process,
//! sharded, epoch-versioned key-value store:
//!
//! * [`Key`] / [`Value`] — constant-size key-value pairs, exactly as the model
//!   requires (both consist of a constant number of machine words).
//! * [`ShardedStore`] — the *writable* store for the current round.  Writes
//!   are hashed to one of `P` shards; every shard tracks how many reads and
//!   writes it served so that the contention analysis of the paper
//!   (Lemma 2.1) can be validated empirically.
//! * [`Snapshot`] — an immutable, read-only view of a completed round.
//!   Machines in round *i* read from the snapshot of `D_{i-1}`; the snapshot
//!   never changes while a round is in flight, which is exactly the property
//!   the paper's fault-tolerance argument relies on.
//! * [`DdsChain`] — the sequence `D_0, D_1, …` of stores produced by a run.
//! * [`backend`] — the [`SnapshotView`] / [`DdsBackend`] trait pair that
//!   makes the store surface pluggable: [`LocalBackend`] wraps the chain
//!   above, while [`ChannelBackend`] and [`TcpBackend`] serve the same
//!   surface over the message-passing wire protocol (see below).
//! * [`contention`] — the weighted balls-into-bins experiment behind
//!   Lemma 2.1 of the paper.
//!
//! # Epoch lifecycle: freeze → publish → read
//!
//! An epoch moves through three stages, all sharing **one representation**
//! — the write-side shard maps are the frozen maps:
//!
//! 1. **Accumulate** — machines buffer writes; the runtime commits them into
//!    the writable [`ShardedStore`], grouped by destination shard so each
//!    shard lock is taken once per batch, with distinct shards committed in
//!    parallel ([`ShardedStore::commit_partitioned`]).  Singleton keys are
//!    stored inline; only multi-value keys allocate.
//! 2. **Freeze, in place** — epoch advance no longer rebuilds anything:
//!    [`ShardedStore::freeze`] reuses every shard map allocation outright
//!    and merely shrinks the spare capacity of the rare multi-value slots
//!    (the write and frozen sides share the [`slot`] layout, which costs no
//!    extra width — the discriminant hides in the `Vec` pointer niche).
//!    Shards are shrunk in parallel for large epochs.
//! 3. **Publish & serve** — the frozen maps are immutable from here on, so
//!    they are published behind one `Arc` per epoch and served lock-free.
//!    On [`LocalBackend`] that `Arc` is the [`Snapshot`] itself (cloned to
//!    every machine thread); on [`ChannelBackend`] each owner thread hands
//!    its frozen shard group's `Arc` to the backend in its `PublishEpoch`
//!    reply, so point and batched reads resolve against the shared maps with
//!    **zero channel traffic** — only commits, advances, and driver-side
//!    loads/dumps remain message-passing.  Reads are counted in per-shard
//!    atomics inside the published epoch, keeping the Lemma 2.1 contention
//!    accounting observable from both sides.
//!
//! Views hand-for-hand outlive the stores that made them: a snapshot taken
//! at epoch `i` stays valid and byte-identical across later epochs and
//! after its backend is dropped (pinned by `tests/backend_conformance.rs`).
//!
//! # The wire protocol
//!
//! The write-side backend surface is small enough to be a *network
//! protocol*, and since the transport split it literally is one, layered in
//! three modules:
//!
//! * [`proto`] — the protocol as data: serializable [`proto::Request`] /
//!   [`proto::Reply`] types (`Commit` / `FreezeEpoch` / `PublishEpoch` /
//!   `Loads` / `Dump` / `TotalWrites`), a byte codec built on the constant-size pair encoding
//!   of [`codec`], an epoch-snapshot payload for fetching frozen maps
//!   across a process boundary (typed as [`proto::EpochFrame`]; the wire
//!   backends encode and decode the same bytes straight between the
//!   owner's frozen maps and the client's replica), and length-prefixed
//!   framing with a hard size cap.
//! * [`transport`] — one connection between a backend and one shard-group
//!   owner, itself split into three layers: `transport::codec` (framing
//!   over pooled, reused buffers — zero steady-state allocations, one
//!   vectored header+payload write per frame), the session layer (the
//!   [`Transport`] / [`transport::ServerTransport`] trait pair, with
//!   [`MpscTransport`] — typed in-process channels, zero-copy `Arc` epoch
//!   publication — and [`TcpTransport`] — localhost sockets speaking the
//!   codec — shipping in-tree), and `transport::dispatch` (the owner state
//!   machine with the idempotency that makes replay safe).  The TCP path is
//!   **pipelined**: a client may keep up to a window of requests in flight
//!   per socket, and the server runs each connection as reader → dispatch →
//!   writer stages, decoding request `N + 1` while applying `N` and
//!   flushing the reply to `N - 1` (bounded at
//!   [`transport::PIPELINE_DEPTH`] frames per stage queue; replies stay
//!   strictly FIFO with requests).  Transports also honor request-level
//!   fault injection ([`RequestFaults`]: scheduled drop-then-retry and
//!   connection severs) and turn dead peers into typed [`TransportError`]s
//!   instead of hangs.
//! * [`remote`] — the client and server of the protocol:
//!   [`RemoteBackend`]`<T>` drives any transport behind the [`DdsBackend`]
//!   surface; the owner loop is transport-generic.  [`ChannelBackend`] is
//!   `RemoteBackend<MpscTransport>`, [`TcpBackend`] is
//!   `RemoteBackend<TcpTransport>`, and the conformance + determinism
//!   suites hold both (and [`LocalBackend`]) to byte-identical behaviour.
//! * [`serve`] — the standalone owner *process*: [`DdsServer`] accepts any
//!   number of concurrent leased [`TcpBackend`] clients, each
//!   `(session, worker)` pair served by its own isolated owner
//!   (`quickstart --serve` / `--connect` runs it end to end).
//!
//! Reads never touch the wire: every view holds the frozen epoch locally
//! (shared `Arc` or fetched replica) and probes it lock-free, so the
//! protocol carries only the write-side and driver-side traffic — exactly
//! the deployment shape the paper assumes for its RDMA/Bigtable-style DHT.
//!
//! # Connection lifecycle: leases, reconnect, replay
//!
//! The store, not the workers, owns liveness.  Every TCP connection opens
//! with a [`proto::Request::Lease`] naming `(session, worker)`; the owner
//! answers [`proto::Reply::LeaseGranted`] and from then on runs the lease
//! state machine *grant → (implicit) renew → expire → reclaim* — expiry
//! counts down only while the session is **disconnected**, so a slow round
//! on a healthy socket never loses its lease, while a dead client's session
//! is reclaimed (pending commits freed) once its ttl elapses.  The client
//! side heals transparently: any socket failure triggers reconnect with
//! capped exponential backoff ([`TcpOptions`]), a replayed lease handshake,
//! and in-order replay of every request still awaiting a reply — the whole
//! pipeline of them, under pipelining.  Replay is safe because every
//! request is idempotent at the owner — `Commit` is deduplicated over a
//! window of recent sequence numbers deep enough to absorb a full replayed
//! pipeline, `FreezeEpoch` re-acks and `PublishEpoch` re-publishes the
//! already-frozen epoch,
//! `Loads`/`Dump`/`TotalWrites` are pure reads.  A clean shutdown drains
//! both sides before the goodbye releases the lease, and expiry never
//! counts down against a connected client, even one whose pipelined
//! replies are still being flushed.  A reconnect that finds its session
//! reclaimed surfaces as the typed [`TransportError::LeaseLost`].  The
//! full state machine is drawn in [`serve`], the client policy and
//! pipelining semantics in [`transport`]; `tests/reconnect.rs` proves
//! mid-round severs — including severs with a full pipeline outstanding —
//! heal byte-identically across thread counts.
//!
//! # Cluster topology
//!
//! One serving process scales to many clients; a cluster scales the store
//! itself to many serving processes.  A cluster is `N` owner processes
//! started with [`serve_cluster`], each owning a **contiguous shard
//! range** (`[i·S/N, (i+1)·S/N)` for owner `i` of `N` over `S` shards),
//! discovered through the **shard-map handshake**: every lease grant
//! carries the cluster's epoch-stamped [`proto::ShardMap`] (owner
//! endpoints × shard ranges).  The client is the same [`TcpBackend`],
//! connected to `N` endpoints ([`TcpBackend::connect_cluster`], or
//! [`TcpBackend::spawn_cluster`] for a local cluster): it validates that
//! all owners advertise the identical contiguous map before routing a
//! single request, then routes commits to the owning endpoint by range
//! lookup; `Loads` / `TotalWrites` / `Dump` fan out and aggregate.
//!
//! Epoch advance must be atomic *across* owners, so every remote backend
//! runs it as a client-coordinated **two-phase barrier**: phase 1 sends
//! [`proto::Request::FreezeEpoch`] to every owner — each parks its
//! writable epoch as *prepared*, invisible to `Loads`/`Dump`, while
//! already accepting the next epoch's commits — and only after **all**
//! freeze acks does phase 2 send [`proto::Request::PublishEpoch`], so no
//! client can ever observe a mixed epoch.  Both phases follow the same
//! **per-owner replay rules** as every other request: a freeze replayed
//! after reconnect re-acks the prepared epoch, a publish replayed after
//! reconnect re-publishes the identical frozen data (a
//! prepared-but-unpublished epoch survives in the owner's session state),
//! and commit retransmissions are deduplicated per `(session, worker)`
//! window so concurrent clients of one owner cannot evict each other's
//! replay state.  `cluster(n)` legs of the conformance, determinism, and
//! reconnect suites hold the whole construction byte-identical to the
//! single-process backends, for owner counts up to 8, including with an
//! owner severed mid-barrier.
//!
//! The pre-refactor `Vec<Value>`-per-key layout survives as
//! [`legacy::LegacyStore`], an executable specification the property tests
//! compare against.
//!
//! # Machine-checked invariants
//!
//! Several of the guarantees above are *cross-file* properties that no
//! single `#[test]` or compiler lint can see whole.  They are enforced by
//! `ampc-lint` (`cargo run -p ampc-lint`, wired into CI), a
//! workspace-native static analyzer that parses this crate and `ampc`
//! directly and fails the build with `file:line` diagnostics:
//!
//! * **proto-conformance** — the [`proto::Request`] / [`proto::Reply`]
//!   enums, their `TAG_*` wire constants, the `fn handle` match in
//!   `transport::dispatch`, and the [`proto::REPLAY_POLICY`] table must
//!   stay mutually total: every request variant has a unique tag used by
//!   both encode and decode, a dispatch arm, and a declared replay policy
//!   ([`proto::ReplayPolicy`]).  Deleting any one of those is a lint
//!   failure, so "every request is idempotent at the owner" is a checked
//!   claim, not a comment.
//! * **panic-path** — non-test code in `dds` and `ampc` may not call
//!   `unwrap()` / `expect(` / `panic!` / `unimplemented!` / `todo!`
//!   unannotated.  Intentional panics (owner-side protocol violations
//!   harvested into [`TransportError::PeerClosed`], provably-infallible
//!   decodes) carry a `// lint: allow(panic) — <reason>` on the preceding
//!   line; an allow without a reason is itself a finding.
//! * **const-consistency** — the numeric relationships the replay design
//!   depends on: the commit dedup window covers at least two full
//!   pipelines (`COMMIT_REPLAY_WINDOW ≥ 2 × PIPELINE_DEPTH`), and the
//!   frame cap in [`proto`] equals the pool-retention cap in
//!   `transport::codec`.
//! * **blocking-discipline** — no `thread::sleep` or unbounded reads on
//!   the dispatch/session/serve hot paths outside annotated backoff
//!   (`// lint: allow(blocking) — <reason>`); `clippy.toml` bans
//!   `thread::sleep` workspace-wide as the compiler-visible half.

#![warn(missing_docs)]

pub mod backend;
pub mod channel;
pub mod cluster;
pub mod codec;
pub mod contention;
pub mod epoch;
pub mod hashing;
pub mod key;
pub mod legacy;
pub mod proto;
pub mod remote;
pub mod serve;
mod slot;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod transport;

pub use backend::{DdsBackend, LocalBackend, SnapshotView};
pub use channel::{ChannelBackend, ChannelSnapshot};
pub use cluster::ClusterBackend;
pub use codec::{decode_value, encode_value};
pub use contention::{simulate_balls_into_bins, BallsInBinsReport};
pub use epoch::DdsChain;
pub use hashing::{FxBuildHasher, FxHashMap, FxHashSet};
pub use key::{Key, KeyTag, Value};
pub use remote::{FrozenEpoch, RemoteBackend, RemoteSnapshot, TcpBackend};
pub use serve::{serve, serve_cluster, ClusterRole, DdsServer};
pub use snapshot::Snapshot;
pub use stats::{ShardLoad, StoreStats};
pub use store::{default_parallelism, ShardedStore};
pub use transport::{
    MpscTransport, RequestFaults, TcpOptions, TcpTransport, Transport, TransportError,
};
