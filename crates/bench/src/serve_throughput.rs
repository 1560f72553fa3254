//! Many-client serve-path throughput: pipelined vs one-in-flight.
//!
//! The standalone owner process ([`ampc_dds::serve`]) is the deployment
//! shape the paper assumes — a DHT-like store serving every machine's
//! write-side traffic.  Since the transport split, that path is
//! *pipelined*: a client may keep a window of requests in flight per
//! socket, and the server overlaps decoding request `N + 1` with applying
//! `N` and flushing the reply to `N - 1`.  This experiment quantifies what
//! the overlap buys.
//!
//! `K` leased clients (each its own session, so the server multiplexes `K`
//! concurrent connections) drive a sustained commit/advance/read load:
//! commits stream out back-to-back up to the mode's window, every
//! [`ADVANCE_EVERY`] commits the client drains its pipeline and freezes the
//! epoch, and a final `TotalWrites` read audits that every commit was
//! applied exactly once.  Two modes run the identical workload:
//!
//! * **one_in_flight** — window 1, the classic lock-step RPC loop (send,
//!   wait, repeat); every request pays a full round-trip of latency.
//! * **pipelined** — window [`PIPELINE_WINDOW`]; round-trips overlap and
//!   the socket, codec, and dispatch stages all stay busy.
//!
//! Reported per mode: sustained requests/sec across all clients, plus p50
//! and p99 commit latency (send → matching FIFO ack).  Pipelining trades
//! per-request latency (acks queue behind the window) for throughput — the
//! ROADMAP target, gated by the CI sentinel on `BENCH_commit.json`, is
//! ≥ 2× the one-in-flight requests/sec at `K = 8`.

use ampc_dds::proto::{Reply, Request};
use ampc_dds::serve;
use ampc_dds::transport::ClientReply;
use ampc_dds::{Key, KeyTag, TcpOptions, TcpTransport, Transport, Value};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Commits per epoch: the pipeline is drained and the epoch frozen after
/// this many, so the workload exercises the advance path, not just commits.
const ADVANCE_EVERY: usize = 64;

/// Outstanding commits per socket in the pipelined mode.  Half the
/// client-side cap (128), comfortably inside the owner's replay-dedup
/// window, and deep enough to hide a full round-trip on loopback.
const PIPELINE_WINDOW: usize = 32;

/// Key-value pairs per commit request — small frames, so the measured cost
/// is the per-request path (framing, syscalls, dispatch), not bulk copy.
const PAIRS_PER_COMMIT: u64 = 4;

/// One (mode, client count) throughput measurement against a standalone
/// [`ampc_dds::DdsServer`].
#[derive(Clone, Debug)]
pub struct ServeThroughputPoint {
    /// `"one_in_flight"` or `"pipelined"`.
    pub mode: &'static str,
    /// Concurrent leased clients.
    pub clients: usize,
    /// Max outstanding requests per socket in this mode.
    pub window: usize,
    /// Total commit requests acknowledged across all clients.
    pub requests: u64,
    /// Sustained throughput: total acked commits over the slowest client's
    /// wall clock (all clients start together behind a barrier).
    pub requests_per_sec: f64,
    /// Median commit latency (send → FIFO ack), nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile commit latency, nanoseconds.
    pub p99_ns: u64,
    /// Writes the server audited per session at the end (anti-dead-code;
    /// must equal commits × pairs for every client).
    pub total_writes: u64,
}

fn commit(seq: u64) -> Request {
    Request::Commit {
        epoch: 0, // patched per epoch below
        seq,
        batches: vec![(
            0,
            (0..PAIRS_PER_COMMIT)
                .map(|i| {
                    (
                        Key::of(KeyTag::Scalar, seq * PAIRS_PER_COMMIT + i),
                        Value::scalar(seq ^ i),
                    )
                })
                .collect(),
        )],
    }
}

/// One client's run: stream `commits` commit requests with at most
/// `window` outstanding, freezing the epoch every [`ADVANCE_EVERY`].
/// Returns (latencies, audited total writes, wall clock).
fn run_client(
    addr: SocketAddr,
    commits: usize,
    window: usize,
    barrier: &Barrier,
) -> (Vec<u64>, u64, Duration) {
    let options = TcpOptions::fresh().with_topology(1, 1);
    let mut client = TcpTransport::connect_to(addr, 0, options).expect("leasing a bench session");
    // One warm round-trip absorbs the lease grant and connection setup so
    // the timed region measures the steady-state serve path.
    client.send(Request::TotalWrites).expect("warm-up send");
    client.recv().expect("warm-up reply");

    barrier.wait();
    let started = Instant::now();
    let mut latencies = Vec::with_capacity(commits);
    let mut in_flight: VecDeque<Instant> = VecDeque::new();
    let mut epoch = 0usize;
    let mut sent = 0usize;
    let mut sent_this_epoch = 0usize;
    let mut acked = 0usize;
    while acked < commits {
        if sent < commits && in_flight.len() < window && sent_this_epoch < ADVANCE_EVERY {
            let mut request = commit(sent as u64);
            if let Request::Commit { epoch: e, .. } = &mut request {
                *e = epoch;
            }
            client.send(request).expect("pipelined commit");
            in_flight.push_back(Instant::now());
            sent += 1;
            sent_this_epoch += 1;
            continue;
        }
        match client.recv().expect("commit ack") {
            ClientReply::Wire(Reply::Committed { accepted, .. }) => {
                assert_eq!(accepted, PAIRS_PER_COMMIT, "every pair must land");
                let sent_at = in_flight.pop_front().expect("acks pair FIFO with sends");
                latencies.push(sent_at.elapsed().as_nanos() as u64);
                acked += 1;
            }
            _ => panic!("a commit must be acknowledged with Committed, in FIFO order"),
        }
        // Epoch boundary: the whole pipeline must be drained first, since
        // in-flight commits still target the epoch about to freeze.
        if sent_this_epoch == ADVANCE_EVERY && in_flight.is_empty() {
            client.send(Request::Advance { epoch }).expect("advance");
            match client.recv().expect("advance reply") {
                ClientReply::Epoch(_) => {}
                _ => panic!("an advance must publish the frozen epoch"),
            }
            epoch += 1;
            sent_this_epoch = 0;
        }
    }
    let wall = started.elapsed();

    client.send(Request::TotalWrites).expect("audit send");
    let writes = match client.recv().expect("audit reply") {
        ClientReply::Wire(Reply::TotalWrites(writes)) => writes,
        _ => panic!("the audit read must be answered with TotalWrites"),
    };
    (latencies, writes, wall)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn measure_mode(
    mode: &'static str,
    clients: usize,
    commits_per_client: usize,
    window: usize,
) -> ServeThroughputPoint {
    let server = serve(("127.0.0.1", 0)).expect("binding the bench owner process");
    let addr = server.local_addr();
    let barrier = Barrier::new(clients);
    let runs: Vec<(Vec<u64>, u64, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let barrier = &barrier;
                scope.spawn(move || run_client(addr, commits_per_client, window, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("bench client"))
            .collect()
    });
    server.shutdown();

    let expected_writes = commits_per_client as u64 * PAIRS_PER_COMMIT;
    let mut latencies = Vec::with_capacity(clients * commits_per_client);
    let mut slowest = Duration::ZERO;
    for (samples, writes, wall) in &runs {
        assert_eq!(
            *writes, expected_writes,
            "every commit must be applied exactly once ({mode})"
        );
        latencies.extend_from_slice(samples);
        slowest = slowest.max(*wall);
    }
    latencies.sort_unstable();
    let requests = latencies.len() as u64;
    ServeThroughputPoint {
        mode,
        clients,
        window,
        requests,
        requests_per_sec: requests as f64 / slowest.as_secs_f64().max(1e-9),
        p50_ns: percentile(&latencies, 0.50),
        p99_ns: percentile(&latencies, 0.99),
        total_writes: expected_writes,
    }
}

/// Run the full experiment: the identical commit/advance/read workload in
/// lock-step (window 1) and pipelined (window [`PIPELINE_WINDOW`]) modes,
/// `clients` concurrent leased sessions each.
pub fn serve_throughput(clients: usize, commits_per_client: usize) -> Vec<ServeThroughputPoint> {
    vec![
        measure_mode("one_in_flight", clients, commits_per_client, 1),
        measure_mode("pipelined", clients, commits_per_client, PIPELINE_WINDOW),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_modes_complete_the_identical_workload() {
        let points = serve_throughput(2, 96);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].mode, "one_in_flight");
        assert_eq!(points[0].window, 1);
        assert_eq!(points[1].mode, "pipelined");
        assert_eq!(points[1].window, PIPELINE_WINDOW);
        for point in &points {
            assert_eq!(point.clients, 2);
            assert_eq!(point.requests, 2 * 96);
            assert_eq!(point.total_writes, 96 * PAIRS_PER_COMMIT);
            assert!(point.requests_per_sec > 0.0, "{point:?}");
            assert!(point.p50_ns > 0, "{point:?}");
            assert!(point.p99_ns >= point.p50_ns, "{point:?}");
        }
    }

    #[test]
    fn percentiles_index_from_the_sorted_tail() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 50);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }
}
