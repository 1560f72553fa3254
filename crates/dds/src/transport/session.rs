//! Session layer: one *connection* and its lifecycle.
//!
//! The types here own everything between the codec and the owner state
//! machine: the lease handshake, reconnection with capped backoff, in-order
//! replay of outstanding requests, and the pipelined per-connection stages
//! of the TCP server (reader thread → dispatch → writer thread).  The
//! protocol semantics — leases, replay idempotency, fault injection — are
//! documented on [the parent module](super).

use super::codec::{FramePool, FrameReader, FrameWriter};
use super::{
    fault_coordinates, ClientReply, OwnerReply, RequestFaults, ServerTransport, Transport,
    TransportError,
};
use crate::proto::{
    decode_epoch_replica, decode_reply, decode_request, encode_epoch_into, encode_reply_into,
    read_frame, write_frame, ProtoError, Reply, Request, ShardMap, MAX_FRAME_BYTES,
};
use std::collections::VecDeque;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frames each stage queue of a pipelined server connection buffers: the
/// reader decodes up to this many requests ahead of dispatch, and dispatch
/// queues up to this many encoded replies ahead of the writer.  This is the
/// server's maximum decode-ahead window *and* its backpressure: a client
/// that floods faster than the owner applies eventually blocks in the
/// socket, exactly like an unpipelined server, only `2 × PIPELINE_DEPTH`
/// frames later.
pub const PIPELINE_DEPTH: usize = 64;

/// Deepest pipeline of outstanding requests one client may hold.  Must stay
/// below the dispatch layer's commit-deduplication window (256): a sever
/// replays *every* outstanding request, and each already-applied commit
/// must still be inside the window to be re-acked instead of re-applied.
const MAX_PIPELINE: usize = 128;

// ---------------------------------------------------------------------------
// MpscTransport — in-process channels, zero-copy epoch publication
// ---------------------------------------------------------------------------

/// In-process transport over `std::sync::mpsc` channels.
///
/// Requests travel as typed values; `PublishEpoch` replies carry the frozen
/// epoch as a shared `Arc` (the zero-copy capability wire transports lack).
pub struct MpscTransport {
    worker: usize,
    requests: Sender<Request>,
    replies: Receiver<OwnerReply>,
    faults: RequestFaults,
}

/// Server half of an [`MpscTransport`].
pub struct MpscServer {
    requests: Receiver<Request>,
    replies: Sender<OwnerReply>,
}

impl MpscTransport {
    fn transmit(&mut self, request: Request) -> Result<(), TransportError> {
        self.requests
            .send(request)
            .map_err(|_| TransportError::PeerClosed {
                worker: self.worker,
                panic: None,
            })
    }
}

impl Transport for MpscTransport {
    const NAME: &'static str = "channel";
    type Server = MpscServer;

    fn connect(worker: usize) -> (Self, MpscServer) {
        let (request_tx, request_rx) = channel();
        let (reply_tx, reply_rx) = channel();
        (
            MpscTransport {
                worker,
                requests: request_tx,
                replies: reply_rx,
                faults: RequestFaults::none(),
            },
            MpscServer {
                requests: request_rx,
                replies: reply_tx,
            },
        )
    }

    fn install_faults(&mut self, faults: RequestFaults) {
        self.faults = faults;
    }

    fn send(&mut self, request: Request) -> Result<(), TransportError> {
        // Severs are not consulted: an in-process channel has no connection
        // to cut, so scheduled severs stay untouched (and unfired) here.
        if let Some((kind, epoch)) = fault_coordinates(&request) {
            if self.faults.should_drop(kind, epoch, self.worker) {
                // Fault: the request is delivered but its reply is lost in
                // transit.  Transmit the first copy, discard the reply the
                // backend will never "see", and fall through to the
                // retransmission below — whose reply is the one the caller
                // receives.  The owner must handle the duplicate
                // idempotently.
                self.transmit(request.clone())?;
                let _lost_reply = self.recv()?;
            }
        }
        self.transmit(request)
    }

    fn recv(&mut self) -> Result<ClientReply, TransportError> {
        match self.replies.recv() {
            Ok(OwnerReply::Wire(reply)) => Ok(ClientReply::Wire(reply)),
            Ok(OwnerReply::Epoch(epoch)) => Ok(ClientReply::Epoch(epoch)),
            Err(_) => Err(TransportError::PeerClosed {
                worker: self.worker,
                panic: None,
            }),
        }
    }
}

impl ServerTransport for MpscServer {
    fn recv_request(&mut self) -> Option<Request> {
        self.requests.recv().ok()
    }

    fn send_reply(&mut self, reply: OwnerReply) -> bool {
        self.replies.send(reply).is_ok()
    }
}

// ---------------------------------------------------------------------------
// TcpTransport — sockets, length-prefixed proto frames, reconnect + lease
// ---------------------------------------------------------------------------

/// Source of fresh session ids: one per backend instance, shared by its
/// per-owner connections.  The process id keeps concurrent client
/// *processes* of one serving process apart; the counter keeps backends of
/// one process apart.
static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);

/// Allocate a session id no other backend of this process (and, with high
/// probability, no other client process) is using.
pub fn fresh_session_id() -> u64 {
    let counter = NEXT_SESSION.fetch_add(1, Ordering::Relaxed);
    ((std::process::id() as u64) << 32) ^ counter
}

/// Connection-lifecycle options of a [`TcpTransport`]: the lease it
/// requests and the reconnect/backoff policy it retries under.
#[derive(Clone, Debug)]
pub struct TcpOptions {
    /// Session id sent in the lease handshake.  All of one backend's
    /// connections share it; `worker` tells them apart.
    pub session: u64,
    /// Shard count of the client's routing topology (0 = unspecified; a
    /// paired in-process server ignores it, `ampc_dds::serve` uses it to
    /// derive the owner's shard group).
    pub num_shards: usize,
    /// Owner count of the client's routing topology (0 = unspecified).
    pub workers: usize,
    /// Lease duration requested from the owner.  The owner starts the
    /// countdown when the connection drops, not while it is idle; `0`
    /// requests a lease that never expires.
    pub ttl_ms: u64,
    /// Reconnect attempts before a send/receive failure is surfaced.
    pub reconnect_attempts: u32,
    /// Backoff before the second reconnect attempt (the first is
    /// immediate); doubles per attempt up to [`TcpOptions::max_backoff`].
    pub initial_backoff: Duration,
    /// Cap on the exponential backoff between reconnect attempts.
    pub max_backoff: Duration,
}

impl TcpOptions {
    /// Default options under a fresh session id: 30 s lease, 8 reconnect
    /// attempts backing off 1 ms → 2 ms → … capped at 100 ms.
    pub fn fresh() -> TcpOptions {
        TcpOptions {
            session: fresh_session_id(),
            num_shards: 0,
            workers: 0,
            ttl_ms: 30_000,
            reconnect_attempts: 8,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
        }
    }

    /// Builder-style: set the requested lease duration in milliseconds
    /// (`0` = never expires).
    pub fn with_ttl_ms(mut self, ttl_ms: u64) -> TcpOptions {
        self.ttl_ms = ttl_ms;
        self
    }

    /// Builder-style: set the routing topology announced in the lease.
    pub fn with_topology(mut self, num_shards: usize, workers: usize) -> TcpOptions {
        self.num_shards = num_shards;
        self.workers = workers;
        self
    }
}

/// Socket transport speaking length-prefixed [`crate::proto`] frames.
///
/// Every message round-trips through the byte codec, so running the
/// conformance suites over this transport is an end-to-end proof of the wire
/// format.  An epoch reply is recognised by its tag and decoded straight
/// into a local replica of the owner's frozen maps (singletons inline, no
/// typed frame in between), delivered as [`ClientReply::Epoch`] — the same
/// variant the in-process transport uses for its shared `Arc`.
///
/// The transport owns the connection lifecycle: the lease handshake on
/// every (re)connect, capped-exponential-backoff reconnection on any socket
/// failure, and idempotent replay of the requests whose replies are still
/// outstanding — see the [module docs](super).  Sends do not wait for
/// replies, so callers may pipeline up to `MAX_PIPELINE` requests before
/// receiving.
pub struct TcpTransport {
    worker: usize,
    endpoint: SocketAddr,
    options: TcpOptions,
    stream: TcpStream,
    /// Reusable frame-decode scratch (codec layer).
    frames: FrameReader,
    /// Reusable frame-encode scratch (codec layer).
    encoder: FrameWriter,
    /// Requests transmitted but not yet answered, oldest first — exactly
    /// what a reconnect must replay.
    pending: VecDeque<Request>,
    /// A lease handshake is in flight: the next frame read must be the
    /// grant, consumed before ordinary replies.
    await_grant: bool,
    /// Whether the pending grant must report `resumed` (reconnects) or
    /// fresh state (first connection).
    expect_resumed: bool,
    /// The cluster shard map carried by the most recent lease grant
    /// (`None` when the owner serves standalone).
    shard_map: Option<ShardMap>,
    faults: RequestFaults,
}

impl TcpTransport {
    /// Establish a fresh connection pair through a private loopback
    /// listener: the in-process owner keeps the listener, so a severed
    /// client can reconnect to the same owner.
    pub fn connect_pair(
        worker: usize,
        options: TcpOptions,
    ) -> Result<(TcpTransport, TcpServer), TransportError> {
        let io_err = |message: String| TransportError::Io { worker, message };
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|err| io_err(format!("binding a loopback DDS owner socket: {err}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|err| io_err(format!("configuring the owner listener: {err}")))?;
        let addr = listener
            .local_addr()
            .map_err(|err| io_err(format!("reading the owner socket address: {err}")))?;
        let client = TcpTransport::connect_to(addr, worker, options)?;
        Ok((client, TcpServer::from_listener(listener, worker)))
    }

    /// Connect to an already-listening owner at `endpoint` — the entry
    /// point of a multi-process deployment (see `ampc_dds::serve`).
    ///
    /// The lease handshake frame is written immediately; its grant is
    /// verified on the first receive, so connecting cannot deadlock with an
    /// owner that has not entered its serve loop yet.
    pub fn connect_to(
        endpoint: impl ToSocketAddrs,
        worker: usize,
        options: TcpOptions,
    ) -> Result<TcpTransport, TransportError> {
        let io_err = |message: String| TransportError::Io { worker, message };
        let endpoint = endpoint
            .to_socket_addrs()
            .map_err(|err| io_err(format!("resolving the DDS owner address: {err}")))?
            .next()
            .ok_or_else(|| io_err("the DDS owner address resolved to nothing".to_string()))?;
        let stream = TcpStream::connect(endpoint)
            .map_err(|err| io_err(format!("connecting to the DDS owner: {err}")))?;
        // The protocol is small framed RPCs; Nagle only adds latency.  A
        // failure here would silently skew every latency measurement, so it
        // is propagated, not discarded.
        stream
            .set_nodelay(true)
            .map_err(|err| io_err(format!("setting TCP_NODELAY: {err}")))?;
        let mut transport = TcpTransport {
            worker,
            endpoint,
            options,
            stream,
            frames: FrameReader::new(),
            encoder: FrameWriter::new(),
            pending: VecDeque::new(),
            await_grant: true,
            expect_resumed: false,
            shard_map: None,
            faults: RequestFaults::none(),
        };
        let lease = transport.lease_request();
        transport
            .encoder
            .send_request(&mut transport.stream, &lease)
            .map_err(|err| transport.classify(&err))?;
        Ok(transport)
    }

    /// The lease handshake frame for this connection.
    fn lease_request(&self) -> Request {
        Request::Lease {
            session: self.options.session,
            worker: self.worker as u64,
            num_shards: self.options.num_shards as u64,
            workers: self.options.workers as u64,
            ttl_ms: self.options.ttl_ms,
        }
    }

    /// Classify a socket error: vanished peers become [`TransportError::PeerClosed`],
    /// everything else keeps its diagnostic as [`TransportError::Io`].
    fn classify(&self, err: &std::io::Error) -> TransportError {
        match err.kind() {
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::NotConnected
            | std::io::ErrorKind::BrokenPipe => TransportError::PeerClosed {
                worker: self.worker,
                panic: None,
            },
            _ => TransportError::Io {
                worker: self.worker,
                message: err.to_string(),
            },
        }
    }

    /// One reconnection attempt: dial, handshake the lease, replay every
    /// outstanding request in order.
    fn try_reestablish(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.endpoint)?;
        stream.set_nodelay(true)?;
        self.stream = stream;
        self.await_grant = true;
        self.expect_resumed = true;
        let lease = self.lease_request();
        self.encoder.send_request(&mut self.stream, &lease)?;
        for request in &self.pending {
            self.encoder.send_request(&mut self.stream, request)?;
        }
        Ok(())
    }

    /// Bring the connection back after `cause`, retrying with capped
    /// exponential backoff.  Returns `cause` if the owner stays
    /// unreachable through every attempt.
    fn recover(&mut self, cause: TransportError) -> Result<(), TransportError> {
        let mut backoff = self.options.initial_backoff;
        for attempt in 0..self.options.reconnect_attempts {
            if attempt > 0 {
                #[allow(clippy::disallowed_methods)]
                // lint: allow(blocking) — reconnect backoff: capped exponential wait on an already-severed connection, not the serve hot path
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(self.options.max_backoff);
            }
            if self.try_reestablish().is_ok() {
                return Ok(());
            }
        }
        Err(cause)
    }

    /// Transmit one request, recording it as outstanding; any write failure
    /// triggers the reconnect-and-replay path (which retransmits this
    /// request too).
    fn transmit(&mut self, request: Request) -> Result<(), TransportError> {
        assert!(
            self.pending.len() < MAX_PIPELINE,
            "a client may pipeline at most {MAX_PIPELINE} outstanding requests \
             (the owner's replay-deduplication window must cover them all)"
        );
        self.pending.push_back(request);
        // lint: allow(panic) — infallible: the request was pushed on the line above
        let request = self.pending.back().expect("just pushed");
        if let Err(err) = self.encoder.send_request(&mut self.stream, request) {
            let cause = self.classify(&err);
            self.recover(cause)?;
        }
        Ok(())
    }

    /// Read and decode the next frame (I/O error outer, decode error
    /// inner): an epoch reply straight into a replica, anything else into
    /// its typed [`Reply`].
    fn next_reply(&mut self) -> std::io::Result<Result<ClientReply, ProtoError>> {
        let payload = self.frames.read(&mut self.stream)?;
        Ok(match decode_epoch_replica(payload) {
            Some(replica) => replica.map(|epoch| ClientReply::Epoch(Arc::new(epoch))),
            None => decode_reply(payload).map(ClientReply::Wire),
        })
    }

    /// Drive the handshake to completion: read (and verify) the pending
    /// lease grant without consuming any ordinary reply.  A no-op on a
    /// connection whose grant was already absorbed.  Cluster clients call
    /// this right after connecting, because the grant carries the shard
    /// map they must route by ([`Self::shard_map`]).
    pub fn finish_handshake(&mut self) -> Result<(), TransportError> {
        while self.await_grant {
            self.pump(true)?;
        }
        Ok(())
    }

    /// The cluster shard map advertised by the owner's most recent lease
    /// grant, if any (populated once the handshake completes).
    pub fn shard_map(&self) -> Option<&ShardMap> {
        self.shard_map.as_ref()
    }

    /// Read the next ordinary reply, consuming (and verifying) any pending
    /// lease grant first and reconnecting through socket failures.
    fn recv_reply(&mut self) -> Result<ClientReply, TransportError> {
        let reply = self.pump(false)?;
        // lint: allow(panic) — infallible: pump(false) only returns Ok(None) when drain_only is set
        Ok(reply.expect("pump only stops early when asked to"))
    }

    /// The receive loop shared by [`Self::recv_reply`] and
    /// [`Self::finish_handshake`]: reconnect through socket failures,
    /// verify and absorb lease grants, and either stop once the grant is
    /// in (`stop_after_grant`, returning `None`) or keep reading until an
    /// ordinary reply arrives.
    fn pump(&mut self, stop_after_grant: bool) -> Result<Option<ClientReply>, TransportError> {
        // Loop guard, not retry policy: [`TcpOptions::reconnect_attempts`]
        // bounds the dials within one recovery; this bounds how many
        // *successful* recoveries one receive may burn through, so a
        // flapping owner (accepts the reconnect, then dies again before
        // answering) cannot spin this loop forever.  An unreachable owner
        // never gets here — `recover` surfaces its error on the first cycle.
        const MAX_RECOVERY_CYCLES: u32 = 4;
        let mut recoveries = 0u32;
        loop {
            let decoded = match self.next_reply() {
                Ok(decoded) => decoded,
                Err(err) => {
                    let cause = self.classify(&err);
                    recoveries += 1;
                    if recoveries > MAX_RECOVERY_CYCLES {
                        return Err(cause);
                    }
                    self.recover(cause)?;
                    continue;
                }
            };
            let reply = decoded.map_err(|error| TransportError::Proto {
                worker: self.worker,
                error,
            })?;
            if self.await_grant {
                let ClientReply::Wire(Reply::LeaseGranted {
                    session,
                    resumed,
                    shard_map,
                    ..
                }) = reply
                else {
                    let got = match reply {
                        ClientReply::Wire(reply) => format!("{reply:?}"),
                        ClientReply::Epoch(_) => "an epoch".to_string(),
                    };
                    return Err(TransportError::Protocol {
                        worker: self.worker,
                        message: format!("expected a lease grant, got {got}"),
                    });
                };
                if session != self.options.session {
                    return Err(TransportError::Protocol {
                        worker: self.worker,
                        message: format!(
                            "lease grant for session {session:#x}, expected {:#x}",
                            self.options.session
                        ),
                    });
                }
                if self.expect_resumed && !resumed {
                    return Err(TransportError::LeaseLost {
                        worker: self.worker,
                        session,
                    });
                }
                if !self.expect_resumed && resumed {
                    return Err(TransportError::Protocol {
                        worker: self.worker,
                        message: format!("session {session:#x} collided with existing state"),
                    });
                }
                self.shard_map = shard_map;
                self.await_grant = false;
                if stop_after_grant {
                    return Ok(None);
                }
                continue;
            }
            return Ok(Some(reply));
        }
    }

    /// The underlying socket (tests assert TCP_NODELAY is actually set, so
    /// latency numbers are never Nagle-dependent).
    #[cfg(test)]
    pub(crate) fn socket(&self) -> &TcpStream {
        &self.stream
    }
}

impl Transport for TcpTransport {
    const NAME: &'static str = "remote";
    type Server = TcpServer;

    fn connect(worker: usize) -> (Self, TcpServer) {
        // Loopback rendezvous: the connect lands in the listener's backlog,
        // so binding, connecting and accepting from one thread cannot
        // deadlock.  Setup failures have no transport thread to surface
        // through yet, so they are a loud construction panic.
        TcpTransport::connect_pair(worker, TcpOptions::fresh())
            // lint: allow(panic) — construction-time setup failure: no transport thread exists yet to carry a typed error
            .unwrap_or_else(|err| panic!("DDS transport setup failed: {err}"))
    }

    fn install_faults(&mut self, faults: RequestFaults) {
        self.faults = faults;
    }

    fn send(&mut self, request: Request) -> Result<(), TransportError> {
        if let Some((kind, epoch)) = fault_coordinates(&request) {
            if self.faults.should_sever(kind, epoch, self.worker) {
                // Fault: the connection dies mid-round, right before this
                // request goes out — possibly with a pipeline of earlier
                // requests still unanswered.  The write below fails, and
                // the transport must reconnect, replay the lease handshake
                // and *every* outstanding request in order, and carry on —
                // byte-identical.
                let _ = self.stream.shutdown(Shutdown::Both);
            }
            if self.faults.should_drop(kind, epoch, self.worker) {
                // Fault: the frame is delivered but its reply is lost in
                // transit.  Write the first copy, discard the reply frame
                // the backend will never "see", then retransmit the
                // identical frame below — the owner must deduplicate.
                self.transmit(request.clone())?;
                let _lost_reply = self.recv()?;
            }
        }
        self.transmit(request)
    }

    fn recv(&mut self) -> Result<ClientReply, TransportError> {
        let reply = self.recv_reply()?;
        self.pending.pop_front();
        Ok(reply)
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Clean shutdown drains the pipeline first: every outstanding reply
        // is received before the goodbye goes out, so the lease is never
        // released with requests still in flight.  Replies that cannot be
        // read (dead socket) end the drain — the lease expiry covers that
        // case.  Stray lease grants (from a reconnect mid-drain) answer no
        // pending request and are skipped.
        while !self.pending.is_empty() {
            match self.next_reply() {
                Ok(Ok(ClientReply::Wire(Reply::LeaseGranted { .. }))) => {}
                Ok(Ok(_)) => {
                    self.pending.pop_front();
                }
                Ok(Err(_)) | Err(_) => break,
            }
        }
        // Best-effort: tell the owner not to hold the lease open for a
        // reconnect that will never come.
        let _ = self
            .encoder
            .send_request(&mut self.stream, &Request::Goodbye);
    }
}

// ---------------------------------------------------------------------------
// TcpServer — the owner side: pipelined per-connection stages
// ---------------------------------------------------------------------------

/// Where a [`TcpServer`] gets (re)connections from.
enum StreamSource {
    /// A private loopback listener (paired in-process mode): the server
    /// accepts and handshakes incoming connections itself.
    Listener(TcpListener),
    /// A shared acceptor (`ampc_dds::serve`): connections arrive with the
    /// lease already read, routed by `(session, worker)`.
    Mailbox(Receiver<ServeHandoff>),
}

/// One routed connection handed to a [`TcpServer`] by a shared acceptor.
pub(crate) struct ServeHandoff {
    /// The accepted, lease-validated stream.
    pub(crate) stream: TcpStream,
    /// Session the lease named (echoed in the grant).
    pub(crate) session: u64,
    /// Lease duration the client asked for, milliseconds (0 = infinite).
    pub(crate) ttl_ms: u64,
}

/// The decoded contents of a connection's opening [`Request::Lease`] frame.
pub(crate) struct LeaseFrame {
    pub(crate) session: u64,
    pub(crate) worker: u64,
    pub(crate) num_shards: u64,
    pub(crate) workers: u64,
    pub(crate) ttl_ms: u64,
}

/// Read and decode the opening lease frame of a fresh connection, under
/// [`HANDSHAKE_TIMEOUT`] so a wedged or hostile pre-lease client cannot
/// hold its acceptor hostage.  `None` means "drop the connection": garbage,
/// a timeout, or a first frame that is not a lease.  Shared by the paired
/// in-process [`TcpServer`] and the `ampc_dds::serve` acceptor — one
/// handshake, one implementation.
pub(crate) fn read_lease_frame(stream: &TcpStream) -> Option<LeaseFrame> {
    let mut reader = stream;
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).ok()?;
    let mut payload = Vec::new();
    read_frame(&mut reader, &mut payload).ok()?;
    stream.set_read_timeout(None).ok()?;
    match decode_request(&payload) {
        Ok(Request::Lease {
            session,
            worker,
            num_shards,
            workers,
            ttl_ms,
        }) => Some(LeaseFrame {
            session,
            worker,
            num_shards,
            workers,
            ttl_ms,
        }),
        _ => None,
    }
}

/// Warn exactly once, process-wide, when a server-side socket cannot set
/// TCP_NODELAY.  The connection still works; only latency is at stake, so
/// the server keeps serving — but never silently.
fn warn_nodelay_once(err: &std::io::Error) {
    static WARNED: std::sync::Once = std::sync::Once::new();
    WARNED.call_once(|| {
        eprintln!("ampc-dds: failed to set TCP_NODELAY on an owner socket ({err}); latency numbers may be Nagle-dependent");
    });
}

/// What the reader stage hands the dispatch stage, one per decoded frame.
enum ConnEvent {
    /// A well-formed request, in arrival order.
    Request(Request),
    /// A frame that arrived but did not decode — a protocol bug whose
    /// diagnostic must surface on the dispatch thread (the backend harvests
    /// the owner thread's panic, not the reader's).
    Malformed(ProtoError),
    /// The socket died without a goodbye (EOF, reset): the session stays
    /// open for a reconnect.
    Disconnected,
}

/// One live pipelined connection of a [`TcpServer`]: a *reader* thread
/// decoding ahead of dispatch, and a *writer* thread flushing encoded
/// replies behind it.  Both queues are bounded at [`PIPELINE_DEPTH`].
struct Conn {
    /// The dispatch side's handle on the socket, used only to shut the
    /// connection down at teardown (the stages own clones).
    stream: TcpStream,
    /// Decoded requests from the reader stage, in arrival order.
    events: Receiver<ConnEvent>,
    /// Encoded reply frames to the writer stage, in dispatch order.
    replies: SyncSender<Vec<u8>>,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
}

impl Conn {
    /// Spawn the reader and writer stages over clones of `stream`.
    fn start(stream: TcpStream, pool: FramePool) -> std::io::Result<Conn> {
        let read_half = stream.try_clone()?;
        let write_half = stream.try_clone()?;
        let (event_tx, event_rx) = sync_channel(PIPELINE_DEPTH);
        let (reply_tx, reply_rx) = sync_channel::<Vec<u8>>(PIPELINE_DEPTH);
        let reader = std::thread::Builder::new()
            .name("dds-conn-reader".to_string())
            .spawn(move || {
                let mut stream = read_half;
                let mut frames = FrameReader::new();
                loop {
                    let event = match frames.read(&mut stream) {
                        Ok(payload) => match decode_request(payload) {
                            Ok(request) => ConnEvent::Request(request),
                            Err(error) => ConnEvent::Malformed(error),
                        },
                        Err(_) => ConnEvent::Disconnected,
                    };
                    let last = !matches!(event, ConnEvent::Request(_));
                    // A full queue blocks here — the decode-ahead window —
                    // until dispatch drains or teardown drops the receiver.
                    if event_tx.send(event).is_err() || last {
                        return;
                    }
                }
            })?;
        let writer = std::thread::Builder::new()
            .name("dds-conn-writer".to_string())
            .spawn(move || {
                let mut stream = write_half;
                let mut broken = false;
                while let Ok(payload) = reply_rx.recv() {
                    // The first write failure ends the connection: shutting
                    // the socket down wakes a client blocked on this reply
                    // (it reconnects and replays what is unanswered) and
                    // ends the reader stage, so dispatch sees the
                    // disconnect.  Without it, a failure that leaves the
                    // socket open — a frame over the size cap — would leave
                    // the client waiting forever.  Keep draining to recycle
                    // the buffers.
                    if !broken && write_frame(&mut stream, &payload).is_err() {
                        broken = true;
                        let _ = stream.shutdown(Shutdown::Both);
                    }
                    pool.put(payload);
                }
            });
        let writer = match writer {
            Ok(writer) => writer,
            Err(err) => {
                // Unblock and reap the already-running reader before
                // reporting the spawn failure.
                let _ = stream.shutdown(Shutdown::Both);
                drop(event_rx);
                let _ = reader.join();
                return Err(err);
            }
        };
        Ok(Conn {
            stream,
            events: event_rx,
            replies: reply_tx,
            reader,
            writer,
        })
    }

    /// Stop both stages and reap their threads.  With `flush`, every queued
    /// reply is written out first (clean goodbye); without, the socket is
    /// shut down immediately (disconnect) and queued replies are discarded
    /// into the pool.
    fn teardown(self, flush: bool) {
        let Conn {
            stream,
            events,
            replies,
            reader,
            writer,
        } = self;
        if !flush {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // Closing the reply queue lets the writer drain and exit.
        drop(replies);
        let _ = writer.join();
        // Now end the reader's blocking read, and drop the event queue so a
        // reader blocked mid-send returns too.
        let _ = stream.shutdown(Shutdown::Both);
        drop(events);
        let _ = reader.join();
    }
}

/// Server half of a [`TcpTransport`]: the owner side of the connection
/// lifecycle, pipelined per connection.
///
/// The server validates the lease handshake of every incoming connection,
/// answers renewals, survives disconnects by waiting (up to the lease
/// deadline) for a reconnect, and treats [`Request::Goodbye`] as the
/// client's clean release of the session — after flushing every queued
/// reply, so a drained pipeline is never cut short.  `recv_request` returns
/// `None` — ending the owner's serve loop — only on goodbye, lease expiry,
/// or a vanished stream source.
///
/// Each live connection runs as three stages (reader thread → dispatch →
/// writer thread, see [`Conn`]): the owner applies request `N` while the
/// reader decodes `N + 1` and the writer flushes the reply to `N - 1`.
pub struct TcpServer {
    source: StreamSource,
    worker: usize,
    conn: Option<Conn>,
    /// Encoded-reply buffers recycled between dispatch and writer stages.
    pool: FramePool,
    /// Granted lease duration; zero means the lease never expires.
    ttl: Duration,
    /// When the connection dropped (the expiry countdown's epoch); `None`
    /// while connected or before the first connection.  The countdown never
    /// runs against a live socket — not even one whose pipelined replies
    /// are still being flushed.
    disconnected_at: Option<Instant>,
    /// Whether this session served a connection before — what the grant
    /// reports as `resumed`.
    served_before: bool,
    /// Session id of the connection currently (or last) served; dispatch
    /// keys its per-session replay windows by this.
    session: u64,
    /// Cluster topology advertised in every lease grant (`None` when the
    /// owner serves standalone).
    shard_map: Option<ShardMap>,
    /// The client said goodbye (or the lease expired): serving is over.
    finished: bool,
}

/// How long an accepting server waits for the lease handshake frame of a
/// brand-new connection before dropping it.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// Poll interval of the nonblocking accept loop.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

impl TcpServer {
    /// A server accepting (re)connections from its own loopback listener.
    pub(crate) fn from_listener(listener: TcpListener, worker: usize) -> TcpServer {
        TcpServer {
            source: StreamSource::Listener(listener),
            worker,
            conn: None,
            pool: FramePool::new(),
            ttl: Duration::ZERO,
            disconnected_at: None,
            served_before: false,
            session: 0,
            shard_map: None,
            finished: false,
        }
    }

    /// A server fed routed connections by a shared acceptor
    /// (`ampc_dds::serve`).
    pub(crate) fn from_mailbox(mailbox: Receiver<ServeHandoff>, worker: usize) -> TcpServer {
        TcpServer {
            source: StreamSource::Mailbox(mailbox),
            worker,
            conn: None,
            pool: FramePool::new(),
            ttl: Duration::ZERO,
            disconnected_at: None,
            served_before: false,
            session: 0,
            shard_map: None,
            finished: false,
        }
    }

    /// Advertise a cluster shard map in every lease grant this server
    /// issues (`ampc_dds::serve` sets this when serving as a cluster node).
    pub(crate) fn with_shard_map(mut self, shard_map: Option<ShardMap>) -> TcpServer {
        self.shard_map = shard_map;
        self
    }

    /// The expiry deadline of the current disconnect, if the lease expires
    /// at all.
    fn deadline(&self) -> Option<Instant> {
        match (self.disconnected_at, self.ttl) {
            (Some(at), ttl) if ttl > Duration::ZERO => Some(at + ttl),
            _ => None,
        }
    }

    /// Adopt a freshly (re)connected stream: start its pipeline stages,
    /// grant the lease and begin serving it.
    fn adopt(&mut self, stream: TcpStream, session: u64, ttl_ms: u64) {
        if let Err(err) = stream.set_nodelay(true) {
            warn_nodelay_once(&err);
        }
        self.ttl = Duration::from_millis(ttl_ms);
        self.disconnected_at = None;
        self.session = session;
        let resumed = self.served_before;
        self.served_before = true;
        match Conn::start(stream, self.pool.clone()) {
            Ok(conn) => {
                self.conn = Some(conn);
                self.grant(session, resumed);
            }
            // Could not spawn the stage threads: treat it as an immediate
            // disconnect (the client will reconnect and re-handshake).
            Err(_) => self.mark_disconnected(),
        }
    }

    /// Queue the lease grant; a failed queue is just a disconnect (the
    /// client will reconnect and re-handshake).
    fn grant(&mut self, session: u64, resumed: bool) {
        let reply = Reply::LeaseGranted {
            session,
            ttl_ms: self.ttl.as_millis() as u64,
            resumed,
            shard_map: self.shard_map.clone(),
        };
        self.queue_reply(&reply);
    }

    /// Encode `reply` into a pooled buffer and hand it to the writer stage.
    fn queue_reply(&mut self, reply: &Reply) {
        self.queue_frame(|payload| encode_reply_into(payload, reply));
    }

    /// Encode `encode`'s frame into a pooled buffer and hand it to the
    /// writer stage.  Blocks when [`PIPELINE_DEPTH`] replies are already
    /// queued — the dispatch stage's backpressure.
    ///
    /// A frame over [`MAX_FRAME_BYTES`] (only an epoch can grow that large)
    /// is rejected here, before it is queued: the connection is dropped, so
    /// the client's read fails at once instead of waiting on a frame the
    /// writer can never send.  The client's replay re-asks, meets the same
    /// rejection, and surfaces a typed error once its bounded recovery
    /// cycles run out.
    fn queue_frame(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        if self.conn.is_none() {
            // Already disconnected: the reply is lost, but the client will
            // replay its request after reconnecting — keep serving.
            return;
        }
        let mut payload = self.pool.take();
        encode(&mut payload);
        if payload.len() > MAX_FRAME_BYTES {
            eprintln!(
                "ampc-dds: owner {} dropped the connection: {}",
                self.worker,
                ProtoError::Oversized {
                    len: payload.len(),
                    max: MAX_FRAME_BYTES,
                }
            );
            self.pool.put(payload);
            self.mark_disconnected();
            return;
        }
        let failed = self
            .conn
            .as_ref()
            .is_some_and(|conn| conn.replies.send(payload).is_err());
        if failed {
            self.mark_disconnected();
        }
    }

    fn mark_disconnected(&mut self) {
        if let Some(conn) = self.conn.take() {
            conn.teardown(false);
        }
        if self.disconnected_at.is_none() {
            self.disconnected_at = Some(Instant::now());
        }
    }

    /// Read and validate the lease handshake of a brand-new connection.
    /// Returns `None` (dropping the connection) on garbage, a timeout, or a
    /// lease addressed to a different worker.
    fn read_handshake(&self, stream: &TcpStream) -> Option<(u64, u64)> {
        let lease = read_lease_frame(stream)?;
        (lease.worker as usize == self.worker).then_some((lease.session, lease.ttl_ms))
    }

    /// Wait for a (re)connection until the lease deadline.  `false` ends
    /// the serve loop: the lease expired, or the stream source is gone.
    fn await_stream(&mut self) -> bool {
        let deadline = self.deadline();
        match &self.source {
            StreamSource::Listener(listener) => loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        // Accepted sockets must block; the listener itself
                        // stays nonblocking for the deadline poll.
                        if stream.set_nonblocking(false).is_err() {
                            continue;
                        }
                        let Some((session, ttl_ms)) = self.read_handshake(&stream) else {
                            continue; // not our client; drop and keep waiting
                        };
                        self.adopt(stream, session, ttl_ms);
                        return true;
                    }
                    Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                        if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                            return false; // lease expired: reclaim
                        }
                        #[allow(clippy::disallowed_methods)]
                        // lint: allow(blocking) — reconnect-wait poll: a disconnected session waiting out its lease, bounded by ACCEPT_POLL per spin and the lease deadline overall
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => return false, // listener broken: give up
                }
            },
            StreamSource::Mailbox(mailbox) => {
                let handoff = match deadline {
                    Some(deadline) => {
                        let now = Instant::now();
                        if now >= deadline {
                            return false;
                        }
                        match mailbox.recv_timeout(deadline - now) {
                            Ok(handoff) => handoff,
                            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                                return false
                            }
                        }
                    }
                    None => match mailbox.recv() {
                        Ok(handoff) => handoff,
                        Err(_) => return false,
                    },
                };
                self.adopt(handoff.stream, handoff.session, handoff.ttl_ms);
                true
            }
        }
    }
}

impl ServerTransport for TcpServer {
    fn recv_request(&mut self) -> Option<Request> {
        loop {
            if self.finished {
                return None;
            }
            if self.conn.is_none() && !self.await_stream() {
                self.finished = true;
                return None;
            }
            let Some(conn) = self.conn.as_ref() else {
                continue; // adoption failed; wait for a reconnect
            };
            match conn.events.recv() {
                // Mid-stream renewal: refresh the lease, grant, keep going.
                // `resumed` is definitionally true here — a renewal arrives
                // on a connection that already holds its grant, so the
                // session's state is intact (clients only validate the flag
                // during the handshake, never on a renewal).
                Ok(ConnEvent::Request(Request::Lease {
                    session, ttl_ms, ..
                })) => {
                    self.ttl = Duration::from_millis(ttl_ms);
                    self.grant(session, true);
                }
                // Clean shutdown: the goodbye frame arrives *behind* every
                // pipelined request on the socket, so all of them have been
                // dispatched and their replies queued by the time it is
                // popped here.  Flush those replies, then release the
                // session.
                Ok(ConnEvent::Request(Request::Goodbye)) => {
                    if let Some(conn) = self.conn.take() {
                        conn.teardown(true);
                    }
                    self.finished = true;
                    return None;
                }
                Ok(ConnEvent::Request(request)) => return Some(request),
                // A frame that arrives but does not decode is a protocol
                // bug and must keep its diagnostic — the panic is harvested
                // into the typed `TransportError::PeerClosed` the backend
                // surfaces.  It is raised here, on the dispatch thread,
                // because the backend joins the owner thread (not the
                // connection's reader stage).
                Ok(ConnEvent::Malformed(error)) => {
                    // lint: allow(panic) — owner-side protocol violation: the panic is the owner's error surface, harvested into TransportError::PeerClosed by the backend join
                    panic!("malformed request frame from the backend: {error}")
                }
                // EOF or reset without a goodbye: hold the session and
                // wait (up to the lease deadline) for a reconnect.
                Ok(ConnEvent::Disconnected) | Err(_) => self.mark_disconnected(),
            }
        }
    }

    fn send_reply(&mut self, reply: OwnerReply) -> bool {
        // A lost reply (disconnect) is not the end of the session: the
        // reconnect replay re-asks and the owner re-answers idempotently.
        match reply {
            OwnerReply::Wire(reply) => self.queue_reply(&reply),
            // The wire has no shared memory: encode the frozen shard maps
            // straight into the frame buffer.
            OwnerReply::Epoch(epoch) => {
                self.queue_frame(|payload| encode_epoch_into(payload, &epoch))
            }
        }
        true
    }

    fn session(&self) -> u64 {
        self.session
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        // Reap the stage threads of a connection dropped mid-serve (e.g. an
        // owner panic unwinding): without this, a reader blocked on a live
        // socket would linger until the peer closed it.
        if let Some(conn) = self.conn.take() {
            conn.teardown(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{Key, KeyTag, Value};
    use crate::proto::RequestKind;

    fn echo_server<S: ServerTransport>(mut server: S) -> std::thread::JoinHandle<usize> {
        std::thread::spawn(move || {
            let mut served = 0;
            while let Some(request) = server.recv_request() {
                let reply = match request {
                    Request::Commit { epoch, batches, .. } => Reply::Committed {
                        epoch,
                        accepted: batches.iter().map(|(_, pairs)| pairs.len() as u64).sum(),
                    },
                    Request::TotalWrites => Reply::TotalWrites(served),
                    _ => Reply::TotalWrites(0),
                };
                if !server.send_reply(OwnerReply::Wire(reply)) {
                    break;
                }
                served += 1;
            }
            served as usize
        })
    }

    fn commit_request(epoch: usize) -> Request {
        Request::Commit {
            epoch,
            seq: epoch as u64,
            batches: vec![(0, vec![(Key::of(KeyTag::Scalar, 1), Value::scalar(2))])],
        }
    }

    fn exercise_transport<T: Transport>() {
        let (mut client, server) = T::connect(0);
        let handle = echo_server(server);

        // Pipelined sends, FIFO replies.
        client.send(commit_request(0)).unwrap();
        client.send(Request::TotalWrites).unwrap();
        match client.recv().unwrap() {
            ClientReply::Wire(Reply::Committed { epoch, accepted }) => {
                assert_eq!((epoch, accepted), (0, 1));
            }
            _ => panic!("commit must be acknowledged first"),
        }
        match client.recv().unwrap() {
            ClientReply::Wire(Reply::TotalWrites(n)) => assert_eq!(n, 1),
            _ => panic!("total-writes reply expected"),
        }

        drop(client);
        assert_eq!(handle.join().unwrap(), 2);
    }

    #[test]
    fn mpsc_transport_round_trips() {
        exercise_transport::<MpscTransport>();
    }

    #[test]
    fn tcp_transport_round_trips() {
        exercise_transport::<TcpTransport>();
    }

    #[test]
    fn pipelined_bursts_round_trip_in_order() {
        let (mut client, server) = TcpTransport::connect(0);
        let handle = echo_server(server);

        // A deep burst of sends before any receive: the reader stage
        // decodes ahead of dispatch, the writer stage flushes behind it,
        // and the replies come back strictly FIFO.
        const BURST: usize = 24;
        for epoch in 0..BURST {
            client.send(commit_request(epoch)).unwrap();
        }
        for expected in 0..BURST {
            match client.recv().unwrap() {
                ClientReply::Wire(Reply::Committed { epoch, accepted }) => {
                    assert_eq!((epoch, accepted), (expected, 1));
                }
                _ => panic!("pipelined replies must arrive in request order"),
            }
        }

        drop(client);
        assert_eq!(handle.join().unwrap(), BURST);
    }

    #[test]
    fn goodbye_drains_the_full_pipeline() {
        let (mut client, server) = TcpTransport::connect(0);
        let handle = echo_server(server);

        // Send a pipeline and drop the client without receiving anything:
        // the clean shutdown must drain every outstanding reply before its
        // goodbye releases the lease, and the server must dispatch every
        // request before honoring the goodbye — nothing dropped.
        const BURST: usize = 12;
        for epoch in 0..BURST {
            client.send(commit_request(epoch)).unwrap();
        }
        drop(client);
        assert_eq!(handle.join().unwrap(), BURST, "no request may be dropped");
    }

    fn exercise_faults<T: Transport>() {
        let (mut client, server) = T::connect(3);
        let handle = echo_server(server);
        let faults = RequestFaults::none();
        faults.schedule_drop(RequestKind::Commit, 5, 3);
        faults.schedule_drop(RequestKind::Commit, 5, 4); // wrong worker: never fires
        client.install_faults(faults.clone());

        // The fault delivers the request, loses its reply, and retransmits:
        // the caller still sees exactly one reply per send.
        client.send(commit_request(5)).unwrap();
        match client.recv().unwrap() {
            ClientReply::Wire(Reply::Committed { epoch, .. }) => assert_eq!(epoch, 5),
            _ => panic!("the retransmission's reply must reach the caller"),
        }
        assert_eq!(faults.dropped(), 1);

        // The fault fired once; a second identical request is untouched.
        client.send(commit_request(5)).unwrap();
        match client.recv().unwrap() {
            ClientReply::Wire(Reply::Committed { .. }) => {}
            _ => panic!("second commit must be delivered"),
        }
        assert_eq!(faults.dropped(), 1);
        assert!(!faults.is_empty(), "the wrong-worker drop stays scheduled");

        drop(client);
        // The server really received the duplicate — 2 copies of the
        // faulted commit plus the clean one.  Deduplicating the copy is
        // the owner's job (`dispatch::Worker`), pinned by its own tests.
        assert_eq!(handle.join().unwrap(), 3, "duplicate must hit the wire");
    }

    #[test]
    fn mpsc_transport_honors_request_faults() {
        exercise_faults::<MpscTransport>();
    }

    #[test]
    fn tcp_transport_honors_request_faults() {
        exercise_faults::<TcpTransport>();
    }

    #[test]
    fn severed_tcp_connections_reconnect_and_replay() {
        let (mut client, server) = TcpTransport::connect(2);
        let handle = echo_server(server);
        let faults = RequestFaults::none();
        faults.schedule_sever(RequestKind::Commit, 1, 2);
        faults.schedule_sever(RequestKind::FreezeEpoch, 2, 2);
        client.install_faults(faults.clone());

        // Warm the connection so the sever cuts an established stream.
        client.send(commit_request(0)).unwrap();
        let _ = client.recv().unwrap();

        // The sever cuts the socket right before the commit: the transport
        // must reconnect, re-handshake and replay, and the caller still
        // sees exactly one reply.
        client.send(commit_request(1)).unwrap();
        match client.recv().unwrap() {
            ClientReply::Wire(Reply::Committed { epoch, .. }) => assert_eq!(epoch, 1),
            other => panic!(
                "replayed commit must be acknowledged, got {:?}",
                match other {
                    ClientReply::Wire(reply) => format!("{reply:?}"),
                    ClientReply::Epoch(_) => "an epoch".to_string(),
                }
            ),
        }
        assert_eq!(faults.severed(), 1);

        // A second sever, addressed at a FreezeEpoch, exercises the replay of
        // a different request kind over a fresh reconnect.
        client.send(Request::FreezeEpoch { epoch: 2 }).unwrap();
        match client.recv().unwrap() {
            ClientReply::Wire(Reply::TotalWrites(_)) => {} // echo server answer
            _ => panic!("the replayed freeze must be answered"),
        }
        assert_eq!(faults.severed(), 2);
        assert!(faults.is_empty());

        drop(client);
        // The echo server saw each request exactly once: severs cut the
        // connection *before* the frame goes out, so nothing is duplicated.
        assert_eq!(handle.join().unwrap(), 3);
    }

    #[test]
    fn severed_pipelines_replay_every_outstanding_request() {
        let (mut client, server) = TcpTransport::connect(4);
        let handle = echo_server(server);
        let faults = RequestFaults::none();
        faults.schedule_sever(RequestKind::Commit, 3, 4);
        client.install_faults(faults.clone());

        // Warm the connection so the sever cuts an established stream.
        client.send(commit_request(0)).unwrap();
        let _ = client.recv().unwrap();

        // Two commits go out with their replies unconsumed…
        client.send(commit_request(1)).unwrap();
        client.send(commit_request(2)).unwrap();
        // …and the third severs the socket with both still outstanding.
        // The reconnect must replay 1, 2 *and* 3, in order, and the caller
        // still receives exactly one FIFO reply per send.
        client.send(commit_request(3)).unwrap();
        for expected in 1..=3 {
            match client.recv().unwrap() {
                ClientReply::Wire(Reply::Committed { epoch, .. }) => assert_eq!(epoch, expected),
                _ => panic!("replayed pipeline must be acknowledged in order"),
            }
        }
        assert_eq!(faults.severed(), 1);

        drop(client);
        // At-least-once on the wire: commits 1 and 2 reached the server
        // before the sever (TCP delivers buffered bytes ahead of the FIN)
        // and again in the replay — the echo server, which deduplicates
        // nothing, counts 1 warm-up + 2 first copies + 3 replays.
        // Exactly-once *application* of such duplicates is the dispatch
        // layer's job, pinned by `dispatch::Worker`'s tests.
        assert_eq!(handle.join().unwrap(), 6);
    }

    #[test]
    fn mpsc_transports_ignore_scheduled_severs() {
        let (mut client, server) = MpscTransport::connect(0);
        let handle = echo_server(server);
        let faults = RequestFaults::none();
        faults.schedule_sever(RequestKind::Commit, 0, 0);
        client.install_faults(faults.clone());
        client.send(commit_request(0)).unwrap();
        let _ = client.recv().unwrap();
        // No connection to cut: the sever neither fires nor is consumed.
        assert_eq!(faults.severed(), 0);
        assert!(!faults.is_empty());
        drop(client);
        assert_eq!(handle.join().unwrap(), 1);
    }

    #[test]
    fn tcp_nodelay_is_set_on_both_halves() {
        let (client, mut server) = TcpTransport::connect(0);
        // Nagle would let latency depend on frame coalescing; the latency
        // series in BENCH_commit.json assume it is off.
        assert!(
            client.socket().nodelay().unwrap_or(false),
            "client socket must have TCP_NODELAY set"
        );
        // Drive the handshake from a second thread so the server can adopt
        // the connection, then inspect its socket.
        let driver = std::thread::spawn(move || {
            let request = server.recv_request();
            (server, request)
        });
        let mut client = client;
        client.send(Request::TotalWrites).unwrap();
        let (server, request) = driver.join().unwrap();
        assert_eq!(request, Some(Request::TotalWrites));
        assert!(
            server
                .conn
                .as_ref()
                .is_some_and(|conn| conn.stream.nodelay().unwrap_or(false)),
            "server socket must have TCP_NODELAY set"
        );
    }

    #[test]
    fn expired_leases_end_the_serve_loop() {
        let options = TcpOptions::fresh().with_ttl_ms(50);
        let (client, mut server) = TcpTransport::connect_pair(7, options).unwrap();
        // Serve one round-trip, then cut the connection without a goodbye:
        // the server must wait out the 50 ms lease and then give up — not
        // hang.
        let driver = std::thread::spawn(move || {
            let first = server.recv_request();
            if first.is_some() {
                server.send_reply(OwnerReply::Wire(Reply::TotalWrites(0)));
            }
            let second = server.recv_request();
            (first, second)
        });
        let mut client = client;
        client.send(Request::TotalWrites).unwrap();
        match client.recv().unwrap() {
            ClientReply::Wire(Reply::TotalWrites(0)) => {}
            _ => panic!("round-trip before the sever must succeed"),
        }
        // Abrupt death: no goodbye frame.
        client.stream.shutdown(Shutdown::Both).unwrap();
        std::mem::forget(client);
        let (first, second) = driver.join().unwrap();
        assert_eq!(first, Some(Request::TotalWrites));
        assert_eq!(second, None, "the lease must expire and end serving");
    }

    #[test]
    fn goodbye_releases_the_session_immediately() {
        let (client, mut server) = TcpTransport::connect(5);
        let started = Instant::now();
        let driver = std::thread::spawn(move || server.recv_request());
        drop(client); // sends the goodbye frame
        assert_eq!(driver.join().unwrap(), None);
        // No lease wait: the goodbye ends serving at once (well under the
        // 30 s default ttl).
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    /// Serve every request by failing its reply through `fail`, then
    /// check that the client's `recv` surfaces a typed error within a time
    /// bound instead of waiting forever for a reply that never comes.
    fn failed_replies_end_in_a_typed_error(fail: fn(&mut TcpServer)) {
        // A short lease, so the owner stops waiting soon after the client
        // gives up.
        let options = TcpOptions::fresh().with_ttl_ms(50);
        let (mut client, mut server) = TcpTransport::connect_pair(6, options).unwrap();
        let owner = std::thread::spawn(move || {
            let mut served = 0;
            while server.recv_request().is_some() {
                fail(&mut server);
                served += 1;
            }
            served
        });
        let (done_tx, done_rx) = channel();
        std::thread::spawn(move || {
            let result = client
                .send(Request::TotalWrites)
                .and_then(|()| client.recv().map(|_| ()));
            let _ = done_tx.send(result);
        });
        let result = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("recv must return an error, not hang");
        assert_eq!(
            result,
            Err(TransportError::PeerClosed {
                worker: 6,
                panic: None
            })
        );
        // The client reconnected and replayed before giving up.
        assert!(owner.join().unwrap() >= 2);
    }

    /// A frame over the size cap — a zeroed allocation, so no memory is
    /// touched.
    fn oversized_frame() -> Vec<u8> {
        vec![0u8; MAX_FRAME_BYTES + 1]
    }

    #[test]
    fn writer_stage_write_failures_end_the_connection() {
        // Hand the writer stage a frame `write_frame` refuses: the write
        // fails while the socket stays open, so only the writer's shutdown
        // can wake the client.
        failed_replies_end_in_a_typed_error(|server| {
            if let Some(conn) = server.conn.as_ref() {
                let _ = conn.replies.send(oversized_frame());
            }
        });
    }

    #[test]
    fn oversized_replies_are_rejected_before_queueing() {
        failed_replies_end_in_a_typed_error(|server| {
            server.queue_frame(|payload| *payload = oversized_frame());
            assert!(server.conn.is_none(), "the rejection drops the connection");
        });
    }

    #[test]
    fn dead_peer_is_a_typed_error() {
        let (mut client, server) = MpscTransport::connect(7);
        drop(server);
        let err = client.send(Request::TotalWrites).unwrap_err();
        assert_eq!(
            err,
            TransportError::PeerClosed {
                worker: 7,
                panic: None
            }
        );

        // For TCP the listener dies with the server half, so reconnect
        // attempts are refused and the original failure surfaces — by the
        // reply read at the latest (the OS may buffer the first write).
        let (mut client, server) = TcpTransport::connect(7);
        drop(server);
        let result = client
            .send(Request::TotalWrites)
            .and_then(|()| client.recv().map(|_| ()));
        assert_eq!(
            result.unwrap_err(),
            TransportError::PeerClosed {
                worker: 7,
                panic: None
            }
        );
    }
}
