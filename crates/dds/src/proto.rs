//! The DDS backend wire protocol: serializable requests, replies and frames.
//!
//! [`crate::ChannelBackend`] deliberately shrank the write-side backend
//! surface to a handful of message types so that a multi-process deployment
//! could speak it over a network.  This module promotes that protocol to a
//! first-class, *wire-level* API:
//!
//! * [`Request`] / [`Reply`] — the owner protocol as plain data.  Unlike the
//!   old private `enum Request` in `channel.rs`, no variant carries a reply
//!   channel: every request is answered by exactly one reply, and the
//!   pairing is positional (FIFO per connection), exactly like a
//!   length-prefixed RPC stream.
//! * [`encode_request`] / [`decode_request`] and [`encode_reply`] /
//!   [`decode_reply`] — the byte codec, built on the constant-size pair
//!   encoding of [`crate::codec`] (20-byte keys, 16-byte values).  Every
//!   integer is little-endian; every collection is a `u32` count followed by
//!   its elements.  Decoders reject truncated buffers, unknown tags and
//!   trailing garbage with a typed [`ProtoError`].
//! * [`EpochFrame`] — the typed form of a frozen epoch's payload: per-shard
//!   write counts plus every `(key, values)` entry.  On the wire backends the
//!   same bytes travel without the typed detour: owners encode their frozen
//!   shard maps straight into the frame buffer and clients decode it straight
//!   into a local replica (see [`crate::transport`]).  One epoch-shard writer
//!   and one epoch-shard reader serve both paths, so the layout lives in one
//!   place.
//! * [`write_frame`] / [`read_frame`] — length-prefixed framing over any
//!   `Write`/`Read`, with a hard [`MAX_FRAME_BYTES`] cap so a corrupt or
//!   hostile length prefix can never trigger an unbounded allocation.
//!
//! The protocol is versioned implicitly by the conformance suites: a remote
//! backend speaking these frames must produce byte-identical results to the
//! in-process backends (`tests/backend_conformance.rs`,
//! `tests/backend_determinism.rs`), and `crates/dds/tests/proto_roundtrip.rs`
//! pins the codec itself with property tests.

use crate::codec::{ENCODED_KEY_BYTES, ENCODED_PAIR_BYTES, ENCODED_VALUE_BYTES};
use crate::hashing::FxHashMap;
use crate::key::{Key, KeyTag, Value};
use crate::remote::FrozenEpoch;
use crate::slot::Slot;
use std::fmt;
use std::io::{IoSlice, Read, Write};

/// Hard ceiling on the size of a single protocol frame (payload bytes).
///
/// Large enough for any epoch this simulation produces (a frame of `k`
/// singleton entries costs ~40 bytes per entry), small enough that a corrupt
/// length prefix cannot drive an unbounded allocation.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// The kind of a [`Request`], without its payload.
///
/// Used by the fault-injection schedule ([`crate::transport::RequestFaults`])
/// to address "drop the `Commit` of epoch 3 on worker 1"-style coordinates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RequestKind {
    /// [`Request::Commit`].
    Commit,
    /// [`Request::FreezeEpoch`].
    FreezeEpoch,
    /// [`Request::PublishEpoch`].
    PublishEpoch,
    /// [`Request::TotalWrites`].
    TotalWrites,
    /// [`Request::Lease`].
    Lease,
    /// [`Request::Goodbye`].
    Goodbye,
}

impl fmt::Display for RequestKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RequestKind::Commit => "commit",
            RequestKind::FreezeEpoch => "freeze_epoch",
            RequestKind::PublishEpoch => "publish_epoch",
            RequestKind::TotalWrites => "total_writes",
            RequestKind::Lease => "lease",
            RequestKind::Goodbye => "goodbye",
        };
        f.write_str(name)
    }
}

/// A request to one shard-group owner.
///
/// `epoch` coordinates always name the epoch the request targets: `Commit`
/// and `FreezeEpoch` target the *writable* epoch (the number of epochs the
/// owner has frozen so far — owners validate this and panic on a protocol
/// violation) and `PublishEpoch` the prepared one.  No request names an
/// older epoch: owners keep only the latest published one.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Apply shard-partitioned pairs to the writable epoch.
    Commit {
        /// Index of the writable epoch the pairs belong to.
        epoch: usize,
        /// Per-connection monotone sequence number.  Owners acknowledge a
        /// retransmitted commit (same `seq` as the last one applied)
        /// without re-applying it, which is what makes the transport's
        /// retry-on-lost-ack safe — at-least-once delivery, exactly-once
        /// application.
        seq: u64,
        /// `batches[i]` = (local shard index within the owner's group,
        /// pairs in commit order).
        batches: Vec<(usize, Vec<(Key, Value)>)>,
    },
    /// Phase 1 of the two-phase epoch advance: freeze the
    /// writable epoch in place and hold it *prepared but unpublished*.
    /// Acknowledged with [`Reply::EpochFrozen`]; the coordinator must
    /// collect this ack from **every** owner before any
    /// [`Request::PublishEpoch`] goes out, so no client can observe a
    /// mixed epoch even if an owner dies mid-barrier.  Idempotent: a
    /// replayed freeze of an already-prepared (or already-published)
    /// epoch is re-acknowledged without re-freezing.
    FreezeEpoch {
        /// Index of the epoch being frozen.
        epoch: usize,
    },
    /// Phase 2 of the two-phase advance: publish the epoch prepared by
    /// [`Request::FreezeEpoch`] and answer with its epoch frame.
    /// Idempotent: a replayed publish of an already-published epoch
    /// re-sends the same frame, which is what makes a sever between
    /// freeze and publish recoverable.
    PublishEpoch {
        /// Index of the prepared epoch being published.
        epoch: usize,
    },
    /// Report total writes accepted so far (all epochs, incl. writable).
    TotalWrites,
    /// Acquire — or, on a reconnect, resume — this connection's epoch
    /// lease.  The first frame of every TCP connection; also accepted
    /// mid-stream as an explicit renewal.  Handled entirely by the
    /// transport/serve layer: owner state machines never see it.
    Lease {
        /// Client-chosen session id.  One backend instance holds one
        /// session; its per-owner connections share it and are told apart
        /// by `worker`.
        session: u64,
        /// Index of the owner this connection addresses.
        worker: u64,
        /// Total shard count of the client's routing topology.  A serving
        /// process derives the owner's shard group as
        /// `(worker..num_shards).step_by(workers)`.
        num_shards: u64,
        /// Owner count of the client's routing topology.
        workers: u64,
        /// Lease duration in milliseconds; `0` asks for a lease that never
        /// expires.  The owner starts the expiry countdown when the
        /// connection drops, not while it is merely idle.
        ttl_ms: u64,
        /// Connection generation of the sending transport: `0` on its first
        /// connection, one more on every reconnect dial.  Handshakes are
        /// routed concurrently, so a severed connection's handoff can reach
        /// the owner after its successor's; the owner adopts only handoffs
        /// newer than the connection it adopted last and drops the rest,
        /// so a dead socket's buffered requests are never dispatched.
        /// Ignored on a mid-stream renewal.
        generation: u64,
    },
    /// Clean-shutdown notice: the client is done and will not reconnect,
    /// so the owner may release the session immediately instead of holding
    /// its lease open for a reconnect that never comes.  Not answered.
    Goodbye,
}

impl Request {
    /// The kind of this request.
    pub fn kind(&self) -> RequestKind {
        match self {
            Request::Commit { .. } => RequestKind::Commit,
            Request::FreezeEpoch { .. } => RequestKind::FreezeEpoch,
            Request::PublishEpoch { .. } => RequestKind::PublishEpoch,
            Request::TotalWrites => RequestKind::TotalWrites,
            Request::Lease { .. } => RequestKind::Lease,
            Request::Goodbye => RequestKind::Goodbye,
        }
    }

    /// The declared [`ReplayPolicy`] of this request.  Total by
    /// construction: `ampc-lint` fails the build when a `Request` variant
    /// is missing from [`REPLAY_POLICY`].
    pub fn replay_policy(&self) -> ReplayPolicy {
        let kind = self.kind();
        REPLAY_POLICY
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, policy)| *policy)
            // lint: allow(panic) — REPLAY_POLICY totality is machine-checked by the proto-conformance pass
            .unwrap_or_else(|| panic!("REPLAY_POLICY has no entry for {kind}"))
    }
}

/// *Why* a [`Request`] is safe to retransmit — the machine-checked half of
/// the idempotent-replay guarantee.
///
/// After a reconnect the transport replays every request whose reply is
/// outstanding, so every request must be safe to reach the owner twice.
/// How each one achieves that is protocol design, not an implementation
/// accident, so it is declared in [`REPLAY_POLICY`] and cross-checked by
/// `ampc-lint`'s proto-conformance pass: adding a `Request` variant
/// without classifying its replay behavior is a CI failure.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ReplayPolicy {
    /// Applied at most once: a replay inside the dispatch layer's
    /// deduplication window is acknowledged without re-applying
    /// (`Commit`, keyed by its per-session sequence number).
    Deduped,
    /// Re-applying converges: the owner re-acknowledges with the same
    /// observable result (`FreezeEpoch` re-acks and `PublishEpoch`
    /// republishes the already-frozen epoch; the session-layer `Lease` and
    /// `Goodbye` lifecycle re-attaches or re-releases).
    Idempotent,
    /// A pure read with no owner-side effect (`TotalWrites`).
    Pure,
}

/// The replay classification of every request kind.
///
/// `ampc-lint` checks this table for totality over `Request`'s variants,
/// rejects duplicate or unknown entries, and requires a dispatch match arm
/// for every classified variant; [`Request::replay_policy`] is the runtime
/// lookup.
pub const REPLAY_POLICY: &[(RequestKind, ReplayPolicy)] = &[
    (RequestKind::Commit, ReplayPolicy::Deduped),
    (RequestKind::FreezeEpoch, ReplayPolicy::Idempotent),
    (RequestKind::PublishEpoch, ReplayPolicy::Idempotent),
    (RequestKind::TotalWrites, ReplayPolicy::Pure),
    (RequestKind::Lease, ReplayPolicy::Idempotent),
    (RequestKind::Goodbye, ReplayPolicy::Idempotent),
];

/// The reply to one [`Request`] (same variant order as the request kinds).
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// [`Request::Commit`] acknowledged.
    Committed {
        /// Epoch the pairs were applied to.
        epoch: usize,
        /// Number of pairs accepted by this owner.
        accepted: u64,
    },
    /// [`Request::PublishEpoch`] answered with the
    /// frozen epoch's serialized contents — the typed view of the epoch
    /// frame.  Transports never materialize it: owners encode their frozen
    /// maps directly and clients decode the frame directly into a replica
    /// (the `encode_epoch_into` / `decode_epoch_replica` pair, which shares
    /// this variant's byte layout).
    Epoch(EpochFrame),
    /// [`Request::TotalWrites`] answered.
    TotalWrites(u64),
    /// [`Request::Lease`] answered: the lease is held.
    LeaseGranted {
        /// The session the lease covers (echoed back).
        session: u64,
        /// Granted lease duration in milliseconds (`0` = never expires).
        ttl_ms: u64,
        /// `true` if existing session state was resumed (a reconnect
        /// re-attached to a live owner), `false` if the owner started this
        /// session fresh.  A reconnecting client that has already read a
        /// grant and then receives `resumed == false` must abort: its lease
        /// expired and the owner reclaimed the session's state.  Before the
        /// first grant is read either value is sound on a reconnect — no
        /// reply has been consumed, so the replay holds every request the
        /// client ever sent and rebuilds the same state on a fresh session
        /// (the first connection's handshake may have lost the race to be
        /// adopted first).  `resumed == true` on a first connection is a
        /// session collision.  Mid-stream renewals are always answered
        /// `resumed == true` — a connection that holds its grant has, by
        /// definition, intact session state — and clients only validate the
        /// flag during the handshake.
        resumed: bool,
        /// The cluster shard map, when the granting process serves as one
        /// node of a cluster (`None` from a standalone owner).  Carries
        /// every owner's endpoint and contiguous shard range, stamped with
        /// the map epoch, so a freshly leased client learns the whole
        /// topology from any single node's handshake.
        shard_map: Option<ShardMap>,
    },
    /// [`Request::FreezeEpoch`] acknowledged: the epoch is frozen and held
    /// prepared, awaiting [`Request::PublishEpoch`].
    EpochFrozen {
        /// The epoch that is now prepared (echoed back).
        epoch: usize,
    },
}

/// The cluster topology as advertised in every cluster node's
/// [`Reply::LeaseGranted`]: which owner serves which contiguous shard
/// range, stamped with a map epoch.
///
/// Map epochs are monotone (the Aura-style invariant): a client holding a
/// map of epoch `e` must treat any map of epoch `> e` as superseding it and
/// must never mix routes from two map epochs.  All nodes of one cluster
/// generation advertise the identical map, which the client validates at
/// connect time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    /// Monotone generation stamp of this map.
    pub epoch: u64,
    /// One entry per owner, ascending by shard range; the ranges partition
    /// `0..num_shards` contiguously.
    pub owners: Vec<OwnerSlice>,
}

/// One owner's slice of a [`ShardMap`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OwnerSlice {
    /// The owner's advertised `host:port` endpoint.
    pub endpoint: String,
    /// First shard (global id) the owner serves.
    pub start: u64,
    /// One past the last shard the owner serves (`start == end` is a valid
    /// empty slice when there are more owners than shards).
    pub end: u64,
}

impl ShardMap {
    /// Total shard count covered by the map (the `end` of the last slice).
    pub fn num_shards(&self) -> usize {
        self.owners.last().map_or(0, |slice| slice.end as usize)
    }

    /// `true` if the slices partition `0..num_shards` contiguously in
    /// order, which every well-formed map must.
    pub fn is_contiguous(&self) -> bool {
        let mut next = 0u64;
        for slice in &self.owners {
            if slice.start != next || slice.end < slice.start {
                return false;
            }
            next = slice.end;
        }
        true
    }
}

/// Serialized frozen epoch of one owner's shard group: the typed form of the
/// payload a remote peer fetches in place of the in-process `Arc` hand-off.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct EpochFrame {
    /// `shards[local]` — the owner's `local`-th shard.
    pub shards: Vec<ShardFrame>,
}

/// One shard of an [`EpochFrame`].
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ShardFrame {
    /// Writes that built the shard.
    pub writes: u64,
    /// Every `(key, values)` entry of the shard, values in commit order.
    /// Entry order is unspecified (hash-map iteration order) — lookups are
    /// keyed, so replicas decoded from a frame read identically.
    pub entries: Vec<(Key, Vec<Value>)>,
}

/// Typed decode failure of a protocol frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The buffer ended before the message did.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// An unknown message tag.
    UnknownTag {
        /// `"request"` or `"reply"`.
        kind: &'static str,
        /// The tag byte found.
        tag: u8,
    },
    /// The message decoded but the buffer kept going.
    Trailing {
        /// Bytes left over after the message.
        remaining: usize,
    },
    /// A frame (or a declared frame length) exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// The offending length.
        len: usize,
        /// The cap it exceeds.
        max: usize,
    },
    /// A field decoded structurally but holds an invalid value (e.g. a
    /// shard-map endpoint that is not UTF-8).
    Malformed {
        /// What was being decoded.
        context: &'static str,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated { context } => {
                write!(f, "frame truncated while decoding {context}")
            }
            ProtoError::UnknownTag { kind, tag } => {
                write!(f, "unknown {kind} tag {tag}")
            }
            ProtoError::Trailing { remaining } => {
                write!(f, "{remaining} trailing bytes after the message")
            }
            ProtoError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            ProtoError::Malformed { context } => {
                write!(f, "malformed {context} in frame")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

const TAG_COMMIT: u8 = 0;
// Tags 1 (the one-shot `Advance`), 2 (`Loads`) and 3 (`Dump`) are retired;
// they stay unassigned so old frames cannot be misread as a different
// request.
const TAG_TOTAL_WRITES: u8 = 4;
const TAG_LEASE: u8 = 5;
const TAG_GOODBYE: u8 = 6;
const TAG_FREEZE_EPOCH: u8 = 7;
const TAG_PUBLISH_EPOCH: u8 = 8;

const TAG_COMMITTED: u8 = 0;
const TAG_EPOCH: u8 = 1;
// Reply tags 2 and 3 (the `Loads` and `Dump` answers) are retired, likewise.
const TAG_TOTAL_WRITES_REPLY: u8 = 4;
const TAG_LEASE_GRANTED: u8 = 5;
const TAG_EPOCH_FROZEN: u8 = 6;

fn put_u32(buf: &mut Vec<u8>, value: u32) {
    buf.extend_from_slice(&value.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, value: u64) {
    buf.extend_from_slice(&value.to_le_bytes());
}

fn put_key(buf: &mut Vec<u8>, key: &Key) {
    // The layout of [`crate::codec::encode_key`], written in place as one
    // fixed-size copy: the hot encode paths of commit and epoch frames must
    // not allocate, or grow-check the buffer per field, per pair.
    let mut bytes = [0u8; ENCODED_KEY_BYTES];
    bytes[..4].copy_from_slice(&key.tag.code().to_le_bytes());
    bytes[4..12].copy_from_slice(&key.a.to_le_bytes());
    bytes[12..].copy_from_slice(&key.b.to_le_bytes());
    buf.extend_from_slice(&bytes);
}

fn put_value(buf: &mut Vec<u8>, value: &Value) {
    // The layout of [`crate::codec::encode_value`], written in place.
    let mut bytes = [0u8; ENCODED_VALUE_BYTES];
    bytes[..8].copy_from_slice(&value.x.to_le_bytes());
    bytes[8..].copy_from_slice(&value.y.to_le_bytes());
    buf.extend_from_slice(&bytes);
}

/// An entry list: a `u32` count, then per entry the key, a `u32` value
/// count and the values in commit order.  `count` must equal the number of
/// entries the iterator yields.
fn put_entries<'a>(
    buf: &mut Vec<u8>,
    count: usize,
    entries: impl Iterator<Item = (&'a Key, &'a [Value])>,
) {
    put_u32(buf, count as u32);
    for (key, values) in entries {
        put_key(buf, key);
        put_u32(buf, values.len() as u32);
        for value in values {
            put_value(buf, value);
        }
    }
}

/// The one epoch-shard writer: the shard's write count, then its entry
/// list.  Both epoch encoders — the typed [`Reply::Epoch`] arm of
/// [`encode_reply_into`] and [`encode_epoch_into`] — go through it.
fn put_epoch_shard<'a>(
    buf: &mut Vec<u8>,
    writes: u64,
    count: usize,
    entries: impl Iterator<Item = (&'a Key, &'a [Value])>,
) {
    put_u64(buf, writes);
    put_entries(buf, count, entries);
}

/// Encode a [`Request`] into its wire payload (no length prefix).
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16);
    encode_request_into(&mut buf, request);
    buf
}

/// Encode a [`Request`] into a reusable buffer (cleared first, capacity
/// retained) — the zero-allocation path of the codec layer: once the buffer
/// has grown to the connection's working frame size, encoding allocates
/// nothing.
pub fn encode_request_into(buf: &mut Vec<u8>, request: &Request) {
    buf.clear();
    match request {
        Request::Commit {
            epoch,
            seq,
            batches,
        } => {
            buf.push(TAG_COMMIT);
            put_u64(buf, *epoch as u64);
            put_u64(buf, *seq);
            put_u32(buf, batches.len() as u32);
            for (local, pairs) in batches {
                put_u32(buf, *local as u32);
                put_u32(buf, pairs.len() as u32);
                for (key, value) in pairs {
                    put_key(buf, key);
                    put_value(buf, value);
                }
            }
        }
        Request::FreezeEpoch { epoch } => {
            buf.push(TAG_FREEZE_EPOCH);
            put_u64(buf, *epoch as u64);
        }
        Request::PublishEpoch { epoch } => {
            buf.push(TAG_PUBLISH_EPOCH);
            put_u64(buf, *epoch as u64);
        }
        Request::TotalWrites => buf.push(TAG_TOTAL_WRITES),
        Request::Lease {
            session,
            worker,
            num_shards,
            workers,
            ttl_ms,
            generation,
        } => {
            buf.push(TAG_LEASE);
            put_u64(buf, *session);
            put_u64(buf, *worker);
            put_u64(buf, *num_shards);
            put_u64(buf, *workers);
            put_u64(buf, *ttl_ms);
            put_u64(buf, *generation);
        }
        Request::Goodbye => buf.push(TAG_GOODBYE),
    }
}

/// Encode a [`Reply`] into its wire payload (no length prefix).
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16);
    encode_reply_into(&mut buf, reply);
    buf
}

/// Encode a [`Reply`] into a reusable buffer (cleared first, capacity
/// retained) — see [`encode_request_into`].
pub fn encode_reply_into(buf: &mut Vec<u8>, reply: &Reply) {
    buf.clear();
    match reply {
        Reply::Committed { epoch, accepted } => {
            buf.push(TAG_COMMITTED);
            put_u64(buf, *epoch as u64);
            put_u64(buf, *accepted);
        }
        Reply::Epoch(frame) => {
            buf.push(TAG_EPOCH);
            put_u32(buf, frame.shards.len() as u32);
            for shard in &frame.shards {
                let entries = shard.entries.iter().map(|(key, values)| (key, &values[..]));
                put_epoch_shard(buf, shard.writes, shard.entries.len(), entries);
            }
        }
        Reply::TotalWrites(total) => {
            buf.push(TAG_TOTAL_WRITES_REPLY);
            put_u64(buf, *total);
        }
        Reply::LeaseGranted {
            session,
            ttl_ms,
            resumed,
            shard_map,
        } => {
            buf.push(TAG_LEASE_GRANTED);
            put_u64(buf, *session);
            put_u64(buf, *ttl_ms);
            buf.push(u8::from(*resumed));
            match shard_map {
                None => buf.push(0),
                Some(map) => {
                    buf.push(1);
                    put_u64(buf, map.epoch);
                    put_u32(buf, map.owners.len() as u32);
                    for slice in &map.owners {
                        put_u32(buf, slice.endpoint.len() as u32);
                        buf.extend_from_slice(slice.endpoint.as_bytes());
                        put_u64(buf, slice.start);
                        put_u64(buf, slice.end);
                    }
                }
            }
        }
        Reply::EpochFrozen { epoch } => {
            buf.push(TAG_EPOCH_FROZEN);
            put_u64(buf, *epoch as u64);
        }
    }
}

/// Encode a frozen epoch straight from its shard maps into an epoch reply
/// payload (cleared first, capacity retained) — byte-identical to
/// [`encode_reply_into`] of a [`Reply::Epoch`] holding the same entries in
/// map iteration order, without building that [`EpochFrame`] in between.
/// The owner side of the wire backends' epoch publication.
pub(crate) fn encode_epoch_into(buf: &mut Vec<u8>, epoch: &FrozenEpoch) {
    buf.clear();
    buf.push(TAG_EPOCH);
    put_u32(buf, epoch.shards.len() as u32);
    for (map, &writes) in epoch.shards.iter().zip(&epoch.writes) {
        let entries = map.iter().map(|(key, slot)| (key, slot.as_slice()));
        put_epoch_shard(buf, writes, map.len(), entries);
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Byte cursor that turns out-of-bytes into typed [`ProtoError::Truncated`].
struct Cursor<'a> {
    bytes: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], ProtoError> {
        if self.bytes.len() < n {
            return Err(ProtoError::Truncated { context });
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, ProtoError> {
        Ok(self.take(1, context)?[0])
    }

    /// The next `N` bytes, as an array.
    fn array<const N: usize>(&mut self, context: &'static str) -> Result<&'a [u8; N], ProtoError> {
        let (head, rest) = self
            .bytes
            .split_first_chunk()
            .ok_or(ProtoError::Truncated { context })?;
        self.bytes = rest;
        Ok(head)
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(*self.array(context)?))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(*self.array(context)?))
    }

    /// A key in the layout of [`crate::codec::encode_key`].
    fn key(&mut self) -> Result<Key, ProtoError> {
        let mut key = Cursor::new(self.array::<ENCODED_KEY_BYTES>("key")?);
        let (code, a, b) = (key.u32("key")?, key.u64("key")?, key.u64("key")?);
        // The length was checked whole, so the only way to fail is an
        // unassigned tag code — malformed, not truncated.
        let tag =
            KeyTag::try_from_code(code).ok_or(ProtoError::Malformed { context: "key tag" })?;
        Ok(Key { tag, a, b })
    }

    /// A value in the layout of [`crate::codec::encode_value`].
    fn value(&mut self) -> Result<Value, ProtoError> {
        let mut value = Cursor::new(self.array::<ENCODED_VALUE_BYTES>("value")?);
        Ok(Value {
            x: value.u64("value")?,
            y: value.u64("value")?,
        })
    }

    /// A `u32` element count, validated against the bytes actually left
    /// (each element needs at least `min_element_bytes`), so a corrupt
    /// count can neither over-allocate nor masquerade as a short message.
    fn count(
        &mut self,
        min_element_bytes: usize,
        context: &'static str,
    ) -> Result<usize, ProtoError> {
        let count = self.u32(context)? as usize;
        if count.saturating_mul(min_element_bytes) > self.bytes.len() {
            return Err(ProtoError::Truncated { context });
        }
        Ok(count)
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(ProtoError::Trailing {
                remaining: self.bytes.len(),
            })
        }
    }
}

/// The encoded values of one entry: a cursor over exactly `count` values.
struct Values<'a> {
    count: usize,
    cursor: Cursor<'a>,
}

impl Values<'_> {
    #[inline]
    fn next(&mut self) -> Result<Value, ProtoError> {
        self.cursor.value()
    }

    #[inline]
    fn collect(mut self) -> Result<Vec<Value>, ProtoError> {
        let mut values = Vec::with_capacity(self.count);
        for _ in 0..self.count {
            values.push(self.next()?);
        }
        Ok(values)
    }
}

/// What an entry list decodes into: the typed `Vec` of a [`ShardFrame`], or
/// a replica's frozen shard map.
trait EntrySink: Sized {
    fn with_capacity(count: usize) -> Self;
    fn push(&mut self, key: Key, values: Values<'_>) -> Result<(), ProtoError>;
}

impl EntrySink for Vec<(Key, Vec<Value>)> {
    fn with_capacity(count: usize) -> Self {
        Vec::with_capacity(count)
    }

    #[inline]
    fn push(&mut self, key: Key, values: Values<'_>) -> Result<(), ProtoError> {
        Vec::push(self, (key, values.collect()?));
        Ok(())
    }
}

impl EntrySink for FxHashMap<Key, Slot> {
    fn with_capacity(count: usize) -> Self {
        let mut map = FxHashMap::default();
        map.reserve(count);
        map
    }

    /// Singletons stay inline; owners never emit empty entries, and one
    /// arriving anyway is skipped rather than stored as a readable key.
    #[inline]
    fn push(&mut self, key: Key, mut values: Values<'_>) -> Result<(), ProtoError> {
        let slot = match values.count {
            0 => return Ok(()),
            1 => Slot::One(values.next()?),
            _ => Slot::Many(values.collect()?),
        };
        self.insert(key, slot);
        Ok(())
    }
}

/// An entry list written by [`put_entries`].  Both counts are validated
/// against the bytes left before anything is allocated.
fn get_entries<E: EntrySink>(cursor: &mut Cursor<'_>) -> Result<E, ProtoError> {
    let count = cursor.count(ENCODED_KEY_BYTES + 4, "entries")?;
    let mut entries = E::with_capacity(count);
    for _ in 0..count {
        let key = cursor.key()?;
        let values = cursor.count(ENCODED_VALUE_BYTES, "values")?;
        let bytes = cursor.take(values * ENCODED_VALUE_BYTES, "values")?;
        entries.push(
            key,
            Values {
                count: values,
                cursor: Cursor::new(bytes),
            },
        )?;
    }
    Ok(entries)
}

/// The one epoch-shard reader: the shard count, then per shard its write
/// count and entry list.  Both epoch decoders — the typed [`Reply::Epoch`]
/// arm of [`decode_reply`] and [`decode_epoch_replica`] — go through it.
fn get_epoch_shards<E: EntrySink>(cursor: &mut Cursor<'_>) -> Result<Vec<(u64, E)>, ProtoError> {
    let shard_count = cursor.count(12, "epoch shards")?;
    let mut shards = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        let writes = cursor.u64("shard writes")?;
        shards.push((writes, get_entries(cursor)?));
    }
    Ok(shards)
}

/// Decode an epoch reply straight into a [`FrozenEpoch`] replica — no
/// [`EpochFrame`] in between, singletons stored inline.  `None` when
/// `bytes` is not an epoch reply (decode it with [`decode_reply`]); the
/// replica keeps every check of the typed decoder (count validation,
/// truncation, key tags, trailing bytes).  The client side of the wire
/// backends' epoch publication.
pub(crate) fn decode_epoch_replica(bytes: &[u8]) -> Option<Result<FrozenEpoch, ProtoError>> {
    let (&TAG_EPOCH, body) = bytes.split_first()? else {
        return None;
    };
    let mut cursor = Cursor::new(body);
    let decoded = get_epoch_shards::<FxHashMap<Key, Slot>>(&mut cursor).and_then(|shards| {
        cursor.finish()?;
        let (writes, maps) = shards.into_iter().unzip();
        Ok(FrozenEpoch::new(maps, writes))
    });
    Some(decoded)
}

/// Decode a [`Request`] from its wire payload.
///
/// The whole buffer must be one message: truncated buffers, unknown tags and
/// trailing bytes are all rejected.
pub fn decode_request(bytes: &[u8]) -> Result<Request, ProtoError> {
    let mut cursor = Cursor::new(bytes);
    let request = match cursor.u8("request tag")? {
        TAG_COMMIT => {
            let epoch = cursor.u64("commit epoch")? as usize;
            let seq = cursor.u64("commit seq")?;
            let batch_count = cursor.count(8, "commit batches")?;
            let mut batches = Vec::with_capacity(batch_count);
            for _ in 0..batch_count {
                let local = cursor.u32("batch shard")? as usize;
                let pair_count = cursor.count(ENCODED_PAIR_BYTES, "batch pairs")?;
                let mut pairs = Vec::with_capacity(pair_count);
                for _ in 0..pair_count {
                    let key = cursor.key()?;
                    let value = cursor.value()?;
                    pairs.push((key, value));
                }
                batches.push((local, pairs));
            }
            Request::Commit {
                epoch,
                seq,
                batches,
            }
        }
        TAG_FREEZE_EPOCH => Request::FreezeEpoch {
            epoch: cursor.u64("freeze epoch")? as usize,
        },
        TAG_PUBLISH_EPOCH => Request::PublishEpoch {
            epoch: cursor.u64("publish epoch")? as usize,
        },
        TAG_TOTAL_WRITES => Request::TotalWrites,
        TAG_LEASE => Request::Lease {
            session: cursor.u64("lease session")?,
            worker: cursor.u64("lease worker")?,
            num_shards: cursor.u64("lease shards")?,
            workers: cursor.u64("lease workers")?,
            ttl_ms: cursor.u64("lease ttl")?,
            generation: cursor.u64("lease generation")?,
        },
        TAG_GOODBYE => Request::Goodbye,
        tag => {
            return Err(ProtoError::UnknownTag {
                kind: "request",
                tag,
            })
        }
    };
    cursor.finish()?;
    Ok(request)
}

/// Decode a [`Reply`] from its wire payload (same contract as
/// [`decode_request`]).
pub fn decode_reply(bytes: &[u8]) -> Result<Reply, ProtoError> {
    let mut cursor = Cursor::new(bytes);
    let reply = match cursor.u8("reply tag")? {
        TAG_COMMITTED => Reply::Committed {
            epoch: cursor.u64("committed epoch")? as usize,
            accepted: cursor.u64("committed count")?,
        },
        TAG_EPOCH => Reply::Epoch(EpochFrame {
            shards: get_epoch_shards(&mut cursor)?
                .into_iter()
                .map(|(writes, entries)| ShardFrame { writes, entries })
                .collect(),
        }),
        TAG_TOTAL_WRITES_REPLY => Reply::TotalWrites(cursor.u64("total writes")?),
        TAG_LEASE_GRANTED => Reply::LeaseGranted {
            session: cursor.u64("lease session")?,
            ttl_ms: cursor.u64("lease ttl")?,
            resumed: match cursor.u8("lease resumed")? {
                0 => false,
                1 => true,
                tag => return Err(ProtoError::UnknownTag { kind: "reply", tag }),
            },
            shard_map: match cursor.u8("shard map flag")? {
                0 => None,
                1 => {
                    let epoch = cursor.u64("shard map epoch")?;
                    let owner_count = cursor.count(20, "shard map owners")?;
                    let mut owners = Vec::with_capacity(owner_count);
                    for _ in 0..owner_count {
                        let len = cursor.count(1, "owner endpoint")?;
                        let bytes = cursor.take(len, "owner endpoint")?;
                        let endpoint = std::str::from_utf8(bytes)
                            .map_err(|_| ProtoError::Malformed {
                                context: "owner endpoint",
                            })?
                            .to_owned();
                        owners.push(OwnerSlice {
                            endpoint,
                            start: cursor.u64("owner range start")?,
                            end: cursor.u64("owner range end")?,
                        });
                    }
                    Some(ShardMap { epoch, owners })
                }
                tag => return Err(ProtoError::UnknownTag { kind: "reply", tag }),
            },
        },
        TAG_EPOCH_FROZEN => Reply::EpochFrozen {
            epoch: cursor.u64("frozen epoch")? as usize,
        },
        tag => return Err(ProtoError::UnknownTag { kind: "reply", tag }),
    };
    cursor.finish()?;
    Ok(reply)
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Write one length-prefixed frame (`u32` little-endian payload length, then
/// the payload).
///
/// Header and payload go out through a single `write_vectored` call, so a
/// small frame costs one syscall instead of two.  The OS may accept fewer
/// bytes than offered (a *short* vectored write — guaranteed on plain
/// `Write` adapters whose `write_vectored` forwards to `write` of the first
/// buffer); the loop tracks a byte offset across both slices and re-offers
/// the remainder until the frame is fully out.  Allocates nothing.
///
/// # Errors
/// `InvalidData` if the payload exceeds [`MAX_FRAME_BYTES`]; `WriteZero` if
/// the writer stops accepting bytes mid-frame; otherwise any I/O error of
/// the underlying writer.
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            ProtoError::Oversized {
                len: payload.len(),
                max: MAX_FRAME_BYTES,
            }
            .to_string(),
        ));
    }
    let header = (payload.len() as u32).to_le_bytes();
    let total = header.len() + payload.len();
    let mut written = 0usize;
    while written < total {
        let result = if written < header.len() {
            writer.write_vectored(&[IoSlice::new(&header[written..]), IoSlice::new(payload)])
        } else {
            writer.write(&payload[written - header.len()..])
        };
        match result {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "writer stopped accepting bytes mid-frame",
                ))
            }
            Ok(n) => written += n,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(err),
        }
    }
    Ok(())
}

/// Read one length-prefixed frame written by [`write_frame`] into `payload`,
/// a reusable scratch buffer (cleared first, capacity retained).
///
/// A connection-lived scratch makes steady-state reads allocation-free: the
/// buffer grows to the largest frame seen and is reused from then on
/// (pinned by `crates/dds/tests/framing_alloc.rs` with a counting
/// allocator).
///
/// # Errors
/// `InvalidData` if the declared length exceeds [`MAX_FRAME_BYTES`] (the
/// payload is not read, let alone allocated); `UnexpectedEof` if the stream
/// ends mid-frame; otherwise any I/O error of the underlying reader.  On
/// error the scratch contents are unspecified.
pub fn read_frame<R: Read>(reader: &mut R, payload: &mut Vec<u8>) -> std::io::Result<()> {
    let mut prefix = [0u8; 4];
    reader.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            ProtoError::Oversized {
                len,
                max: MAX_FRAME_BYTES,
            }
            .to_string(),
        ));
    }
    payload.clear();
    payload.resize(len, 0);
    reader.read_exact(payload)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyTag;
    use proptest::prelude::*;

    /// The encoded epoch replies among [`sample_replies`] — every one of
    /// them also goes through the replica decoder.
    fn sample_epochs() -> Vec<Vec<u8>> {
        sample_replies()
            .iter()
            .filter(|reply| matches!(reply, Reply::Epoch(_)))
            .map(encode_reply)
            .collect()
    }

    /// The replica decoder's verdict on `bytes`, which must be tagged as an
    /// epoch reply.
    fn replica(bytes: &[u8]) -> Result<FrozenEpoch, ProtoError> {
        decode_epoch_replica(bytes).expect("tagged as an epoch reply")
    }

    /// A replica's entries as typed data, sorted by key.
    fn replica_entries(epoch: &FrozenEpoch) -> Vec<Vec<(Key, Vec<Value>)>> {
        epoch
            .shards
            .iter()
            .map(|map| {
                let mut entries: Vec<_> = map
                    .iter()
                    .map(|(key, slot)| (*key, slot.as_slice().to_vec()))
                    .collect();
                entries.sort_by_key(|&(key, _)| key);
                entries
            })
            .collect()
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Commit {
                epoch: 3,
                seq: 41,
                batches: vec![
                    (0, vec![(Key::of(KeyTag::Scalar, 1), Value::scalar(10))]),
                    (
                        2,
                        vec![
                            (Key::with_index(KeyTag::Adjacency, 7, 1), Value::pair(1, 2)),
                            (Key::of(KeyTag::Custom(9), u64::MAX), Value::scalar(0)),
                        ],
                    ),
                    (5, Vec::new()),
                ],
            },
            Request::FreezeEpoch { epoch: 5 },
            Request::PublishEpoch { epoch: 5 },
            Request::TotalWrites,
            Request::Lease {
                session: u64::MAX,
                worker: 3,
                num_shards: 1024,
                workers: 8,
                ttl_ms: 30_000,
                generation: 3,
            },
            Request::Goodbye,
        ]
    }

    fn sample_replies() -> Vec<Reply> {
        vec![
            Reply::Committed {
                epoch: 4,
                accepted: 1234,
            },
            Reply::Epoch(EpochFrame {
                shards: vec![
                    ShardFrame {
                        writes: 3,
                        entries: vec![
                            (Key::of(KeyTag::Degree, 0), vec![Value::scalar(1)]),
                            (
                                Key::of(KeyTag::Scalar, 9),
                                vec![Value::scalar(2), Value::pair(3, 4)],
                            ),
                        ],
                    },
                    ShardFrame {
                        writes: 0,
                        entries: Vec::new(),
                    },
                ],
            }),
            Reply::TotalWrites(42),
            Reply::LeaseGranted {
                session: 7,
                ttl_ms: 0,
                resumed: true,
                shard_map: None,
            },
            Reply::LeaseGranted {
                session: u64::MAX,
                ttl_ms: 86_400_000,
                resumed: false,
                shard_map: None,
            },
            Reply::LeaseGranted {
                session: 9,
                ttl_ms: 30_000,
                resumed: false,
                shard_map: Some(ShardMap {
                    epoch: 1,
                    owners: vec![
                        OwnerSlice {
                            endpoint: "127.0.0.1:7471".to_owned(),
                            start: 0,
                            end: 5,
                        },
                        OwnerSlice {
                            endpoint: "127.0.0.1:7472".to_owned(),
                            start: 5,
                            end: 5,
                        },
                        OwnerSlice {
                            endpoint: "[::1]:80".to_owned(),
                            start: 5,
                            end: 8,
                        },
                    ],
                }),
            },
            Reply::EpochFrozen { epoch: 11 },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for request in sample_requests() {
            let bytes = encode_request(&request);
            assert_eq!(decode_request(&bytes), Ok(request));
        }
    }

    #[test]
    fn replies_round_trip() {
        for reply in sample_replies() {
            let bytes = encode_reply(&reply);
            assert_eq!(decode_reply(&bytes), Ok(reply));
        }
    }

    #[test]
    fn truncated_messages_are_rejected_at_every_length() {
        for request in sample_requests() {
            let bytes = encode_request(&request);
            for len in 0..bytes.len() {
                assert!(
                    decode_request(&bytes[..len]).is_err(),
                    "request prefix of {len} bytes must not decode"
                );
            }
        }
        for reply in sample_replies() {
            let bytes = encode_reply(&reply);
            for len in 0..bytes.len() {
                assert!(
                    decode_reply(&bytes[..len]).is_err(),
                    "reply prefix of {len} bytes must not decode"
                );
            }
        }
        for bytes in sample_epochs() {
            // The empty prefix carries no tag, so it is not an epoch reply.
            assert!(decode_epoch_replica(&[]).is_none());
            for len in 1..bytes.len() {
                assert!(
                    replica(&bytes[..len]).is_err(),
                    "epoch prefix of {len} bytes must not decode into a replica"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_request(&Request::TotalWrites);
        bytes.push(0);
        assert_eq!(
            decode_request(&bytes),
            Err(ProtoError::Trailing { remaining: 1 })
        );
        for mut bytes in sample_epochs() {
            bytes.extend_from_slice(&[0, 0]);
            let trailing = ProtoError::Trailing { remaining: 2 };
            assert_eq!(decode_reply(&bytes), Err(trailing.clone()));
            assert_eq!(replica(&bytes).err(), Some(trailing));
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        // The retired request tags (1 `Advance`, 2 `Loads`, 3 `Dump`) and
        // reply tags (2, 3) decode as unknown, like never-assigned ones —
        // with or without the epoch payload the retired requests carried.
        for tag in [1u8, 2, 3, 200] {
            for bytes in [vec![tag], [&[tag][..], &7u64.to_le_bytes()].concat()] {
                assert_eq!(
                    decode_request(&bytes),
                    Err(ProtoError::UnknownTag {
                        kind: "request",
                        tag
                    })
                );
            }
        }
        for tag in [2u8, 3, 99] {
            assert_eq!(
                decode_reply(&[tag]),
                Err(ProtoError::UnknownTag { kind: "reply", tag })
            );
        }
    }

    #[test]
    fn corrupt_key_tags_fail_decoding_instead_of_panicking() {
        let mut bytes = encode_request(&Request::Commit {
            epoch: 0,
            seq: 1,
            batches: vec![(0, vec![(Key::of(KeyTag::Scalar, 7), Value::scalar(8))])],
        });
        // The key's 4-byte tag code is the first field of the encoded pair;
        // overwrite it with a code in the unassigned gap (11..0x1_0000).
        let key_at = bytes.len() - crate::codec::ENCODED_PAIR_BYTES;
        bytes[key_at..key_at + 4].copy_from_slice(&999u32.to_le_bytes());
        assert_eq!(
            decode_request(&bytes),
            Err(ProtoError::Malformed { context: "key tag" })
        );

        // The same corruption inside an epoch reply, through both epoch
        // decoders: a one-shard, one-entry, one-value frame ends with the
        // key, its value count and the value.
        let mut bytes = encode_reply(&Reply::Epoch(EpochFrame {
            shards: vec![ShardFrame {
                writes: 1,
                entries: vec![(Key::of(KeyTag::Scalar, 7), vec![Value::scalar(8)])],
            }],
        }));
        let key_at = bytes.len() - ENCODED_VALUE_BYTES - 4 - ENCODED_KEY_BYTES;
        bytes[key_at..key_at + 4].copy_from_slice(&999u32.to_le_bytes());
        let malformed = ProtoError::Malformed { context: "key tag" };
        assert_eq!(decode_reply(&bytes), Err(malformed.clone()));
        assert_eq!(replica(&bytes).err(), Some(malformed));
    }

    #[test]
    fn replay_policy_is_total_over_request_kinds() {
        // The lint checks the table against the enum *textually*; this
        // pins the runtime lookup for every constructible kind.
        let requests = [
            Request::Commit {
                epoch: 0,
                seq: 0,
                batches: Vec::new(),
            },
            Request::FreezeEpoch { epoch: 0 },
            Request::PublishEpoch { epoch: 0 },
            Request::TotalWrites,
            Request::Lease {
                session: 0,
                worker: 0,
                num_shards: 1,
                workers: 1,
                ttl_ms: 0,
                generation: 0,
            },
            Request::Goodbye,
        ];
        assert_eq!(requests.len(), REPLAY_POLICY.len());
        for request in &requests {
            let policy = request.replay_policy(); // must not panic
            match request.kind() {
                RequestKind::Commit => assert_eq!(policy, ReplayPolicy::Deduped),
                RequestKind::TotalWrites => assert_eq!(policy, ReplayPolicy::Pure),
                _ => assert_eq!(policy, ReplayPolicy::Idempotent),
            }
        }
    }

    #[test]
    fn bogus_lease_resumed_flags_are_rejected() {
        let mut bytes = encode_reply(&Reply::LeaseGranted {
            session: 1,
            ttl_ms: 2,
            resumed: false,
            shard_map: None,
        });
        let resumed_at = bytes.len() - 2; // [.., resumed, shard-map flag]
        bytes[resumed_at] = 9; // neither 0 nor 1
        assert_eq!(
            decode_reply(&bytes),
            Err(ProtoError::UnknownTag {
                kind: "reply",
                tag: 9
            })
        );
    }

    #[test]
    fn bogus_shard_map_flags_and_endpoints_are_rejected() {
        let granted = |shard_map| Reply::LeaseGranted {
            session: 1,
            ttl_ms: 2,
            resumed: false,
            shard_map,
        };
        // A shard-map flag that is neither "absent" nor "present".
        let mut bytes = encode_reply(&granted(None));
        *bytes.last_mut().unwrap() = 7;
        assert_eq!(
            decode_reply(&bytes),
            Err(ProtoError::UnknownTag {
                kind: "reply",
                tag: 7
            })
        );
        // An endpoint that is not UTF-8 is malformed, not a panic.
        let map = ShardMap {
            epoch: 3,
            owners: vec![OwnerSlice {
                endpoint: "ab".to_owned(),
                start: 0,
                end: 4,
            }],
        };
        let mut bytes = encode_reply(&granted(Some(map)));
        let endpoint_at = bytes.len() - 18; // "ab" sits before start+end
        bytes[endpoint_at] = 0xFF;
        assert_eq!(
            decode_reply(&bytes),
            Err(ProtoError::Malformed {
                context: "owner endpoint"
            })
        );
    }

    #[test]
    fn shard_map_contiguity_is_checkable() {
        let map = |ranges: &[(u64, u64)]| ShardMap {
            epoch: 1,
            owners: ranges
                .iter()
                .map(|&(start, end)| OwnerSlice {
                    endpoint: "x:1".to_owned(),
                    start,
                    end,
                })
                .collect(),
        };
        assert!(map(&[(0, 4), (4, 8)]).is_contiguous());
        assert!(map(&[(0, 0), (0, 8)]).is_contiguous());
        assert_eq!(map(&[(0, 4), (4, 9)]).num_shards(), 9);
        assert!(!map(&[(0, 4), (5, 8)]).is_contiguous());
        assert!(!map(&[(1, 4), (4, 8)]).is_contiguous());
        assert!(!map(&[(0, 4), (4, 2)]).is_contiguous());
    }

    #[test]
    fn corrupt_counts_cannot_over_allocate() {
        // Every count of an epoch reply — shards, a shard's entries, an
        // entry's values — declaring u32::MAX in a short buffer must be
        // rejected by the count validation, not by an allocation attempt,
        // through both epoch decoders.
        let huge = u32::MAX.to_le_bytes();
        let mut shards = vec![TAG_EPOCH];
        shards.extend_from_slice(&huge);
        shards.extend_from_slice(&[0; 12]);
        let mut entries = vec![TAG_EPOCH];
        entries.extend_from_slice(&1u32.to_le_bytes());
        entries.extend_from_slice(&5u64.to_le_bytes());
        entries.extend_from_slice(&huge);
        entries.extend_from_slice(&[0; 24]);
        let mut values = vec![TAG_EPOCH];
        values.extend_from_slice(&1u32.to_le_bytes());
        values.extend_from_slice(&5u64.to_le_bytes());
        values.extend_from_slice(&1u32.to_le_bytes());
        values.extend_from_slice(&crate::codec::encode_key(&Key::of(KeyTag::Scalar, 1)));
        values.extend_from_slice(&huge);
        values.extend_from_slice(&[0; 16]);
        for (bytes, context) in [
            (shards, "epoch shards"),
            (entries, "entries"),
            (values, "values"),
        ] {
            let truncated = ProtoError::Truncated { context };
            assert_eq!(decode_reply(&bytes), Err(truncated.clone()), "{context}");
            assert_eq!(replica(&bytes).err(), Some(truncated), "{context}");
        }
    }

    #[test]
    fn replicas_store_singletons_inline_and_skip_empty_entries() {
        let bytes = encode_reply(&Reply::Epoch(EpochFrame {
            shards: vec![ShardFrame {
                writes: 3,
                entries: vec![
                    (Key::of(KeyTag::Scalar, 1), vec![Value::scalar(1)]),
                    (Key::of(KeyTag::Scalar, 2), Vec::new()),
                    (
                        Key::of(KeyTag::Scalar, 3),
                        vec![Value::scalar(2), Value::scalar(3)],
                    ),
                ],
            }],
        }));
        let epoch = replica(&bytes).unwrap();
        let map = &epoch.shards[0];
        assert_eq!(map.len(), 2, "the zero-value entry is skipped");
        assert_eq!(
            map.get(&Key::of(KeyTag::Scalar, 1)),
            Some(&Slot::One(Value::scalar(1)))
        );
        assert_eq!(
            map.get(&Key::of(KeyTag::Scalar, 3)),
            Some(&Slot::Many(vec![Value::scalar(2), Value::scalar(3)]))
        );
        assert_eq!(epoch.writes, vec![3]);
        assert_eq!(epoch.reads.len(), 1);
        // Any other reply is left to the typed decoder.
        for reply in sample_replies() {
            let bytes = encode_reply(&reply);
            let is_epoch = matches!(reply, Reply::Epoch(_));
            assert_eq!(decode_epoch_replica(&bytes).is_some(), is_epoch);
        }
    }

    /// Epoch frames whose shards hold distinct keys (as every owner's
    /// frozen maps do) with zero to three values each.
    fn arbitrary_epoch() -> impl Strategy<Value = EpochFrame> {
        let entry = (
            0u32..8,
            0u64..48,
            proptest::collection::vec(any::<u64>(), 0..4),
        );
        let shard = (any::<u64>(), proptest::collection::vec(entry, 0..24));
        proptest::collection::vec(shard, 0..4).prop_map(|shards| EpochFrame {
            shards: shards
                .into_iter()
                .map(|(writes, raw)| {
                    let mut seen = std::collections::HashSet::new();
                    let entries = raw
                        .into_iter()
                        .map(|(tag, a, xs)| {
                            let key = Key::of(KeyTag::from_code(tag), a);
                            (key, xs.into_iter().map(Value::scalar).collect())
                        })
                        .filter(|(key, _)| seen.insert(*key))
                        .collect();
                    ShardFrame { writes, entries }
                })
                .collect(),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

        /// The replica decoded from a typed epoch reply holds exactly the
        /// frame's non-empty entries and its write counts, and encoding that
        /// replica straight from its maps yields the bytes the typed encoder
        /// produces for the same entries in the same order.
        #[test]
        fn replicas_match_their_typed_frames(frame in arbitrary_epoch()) {
            let bytes = encode_reply(&Reply::Epoch(frame.clone()));
            let epoch = replica(&bytes).expect("a well-formed frame");

            let expected: Vec<Vec<(Key, Vec<Value>)>> = frame
                .shards
                .iter()
                .map(|shard| {
                    let mut entries: Vec<_> = shard
                        .entries
                        .iter()
                        .filter(|(_, values)| !values.is_empty())
                        .cloned()
                        .collect();
                    entries.sort_by_key(|&(key, _)| key);
                    entries
                })
                .collect();
            prop_assert_eq!(replica_entries(&epoch), expected);
            let writes: Vec<u64> = frame.shards.iter().map(|shard| shard.writes).collect();
            prop_assert_eq!(&epoch.writes, &writes);
            for slot in epoch.shards.iter().flat_map(|map| map.values()) {
                prop_assert_eq!(matches!(slot, Slot::One(_)), slot.len() == 1);
            }

            let mut direct = vec![0xEE]; // stale contents must be cleared
            encode_epoch_into(&mut direct, &epoch);
            let in_map_order = EpochFrame {
                shards: epoch
                    .shards
                    .iter()
                    .zip(&epoch.writes)
                    .map(|(map, &writes)| ShardFrame {
                        writes,
                        entries: map
                            .iter()
                            .map(|(key, slot)| (*key, slot.as_slice().to_vec()))
                            .collect(),
                    })
                    .collect(),
            };
            prop_assert_eq!(direct, encode_reply(&Reply::Epoch(in_map_order)));
        }
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let payload = encode_request(&Request::FreezeEpoch { epoch: 2 });
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        assert_eq!(wire.len(), payload.len() + 4);
        let mut reader: &[u8] = &wire;
        let mut scratch = Vec::new();
        read_frame(&mut reader, &mut scratch).unwrap();
        assert_eq!(scratch, payload);
        assert!(reader.is_empty());

        // A length prefix past the cap is rejected without reading further.
        let huge = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes();
        let mut reader: &[u8] = &huge;
        let err = read_frame(&mut reader, &mut scratch).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // A frame cut short mid-payload is an UnexpectedEof.
        let mut short = Vec::new();
        write_frame(&mut short, &payload).unwrap();
        short.truncate(short.len() - 1);
        let mut reader: &[u8] = &short;
        let err = read_frame(&mut reader, &mut scratch).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
