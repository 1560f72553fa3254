//! The layer probe of the traced run.
//!
//! Its data is the MSF instance's adjacency pairs
//! (`ampc_algorithms::common::adjacency_pairs`, about 590k pairs at
//! n = 2¹⁶). Two parts:
//!
//! * **Timed backend** — one label-propagation round through
//!   `AmpcRuntime::<Timed<B>>::from_backend`: `load_input`, then one
//!   `run_round` in which each machine `read_many`s its vertices' degrees
//!   and adjacency and writes one label per vertex. The round's wall time
//!   splits into compute+reads (round start to `commit_round`),
//!   `commit_round` and `advance`.
//! * **Direct calls** on the same pairs into the store
//!   (`ShardedStore::{partition_writes_parallel, commit_chunked,
//!   freeze_with_threads}`, `Snapshot::get_many_slice`) and the wire
//!   protocol (`proto::{encode,decode}_{request,reply}` of a `Commit` and
//!   an `EpochFrame`).
//!
//! Every measured call gets one untimed warm-up call first; the reported
//! value is the median of the measured repetitions. Every repetition also
//! checks its result, and a wrong result counts as a failure.

use crate::problems::Instance;
use crate::report::median;
use crate::timed::Timed;
use crate::workload::Backend;
use ampc_algorithms::common::{adjacency_key, adjacency_pairs, degree_key};
use ampc_dds::proto::{self, EpochFrame, Reply, Request, ShardFrame};
use ampc_dds::{Key, KeyTag, ShardedStore, Snapshot, Value};
use ampc_graph::Graph;
use ampc_runtime::{
    AmpcConfig, AmpcRuntime, ClusterBackend, DdsBackend, LocalBackend, MachineContext,
    SnapshotView, TcpBackend,
};
use std::time::{Duration, Instant};

/// Measured repetitions per probe call (after one warm-up).
pub const REPS: usize = 5;

/// Medians of the probe's measurements, plus its check counts.
#[derive(Default)]
pub struct Probe {
    pub spawn_ms: f64,
    pub drop_ms: f64,
    pub load_commit_s: f64,
    pub load_advance_s: f64,
    pub round_s: f64,
    pub compute_read_s: f64,
    pub commit_round_s: f64,
    pub advance_s: f64,
    pub backend_read_ns: f64,
    /// Median share of the round explained by compute+reads, commit and
    /// advance.
    pub round_share: f64,
    pub partition_s: f64,
    pub commit_s: f64,
    pub freeze_s: f64,
    pub snapshot_read_ns: f64,
    pub commit_encode_s: f64,
    pub commit_decode_s: f64,
    pub epoch_encode_s: f64,
    pub epoch_decode_s: f64,
    pub commit_bytes: f64,
    pub epoch_bytes: f64,
    /// Results checked, and how many were wrong.
    pub checks: usize,
    pub failed: usize,
}

/// Run the probe on `msf` (an MSF instance) against `backend`.
pub fn run(backend: Backend, msf: &Instance) -> Probe {
    let graph = &msf.graph;
    let config = msf.config(backend);
    let pairs = adjacency_pairs(graph);
    let shards = config.num_shards();
    let threads = config.effective_threads();
    let mut probe = Probe::default();
    let samples = match backend {
        Backend::Local => backend_samples(graph, &config, &pairs, || {
            LocalBackend::with_shards(shards, threads)
        }),
        Backend::Tcp => backend_samples(graph, &config, &pairs, || {
            TcpBackend::with_shards(shards, threads)
        }),
        Backend::Cluster2 => backend_samples(graph, &config, &pairs, || {
            ClusterBackend::<2>::spawn_local(shards)
                .expect("a local two-owner cluster starts on ephemeral ports")
        }),
    };
    let field = |f: fn(&BackendSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    probe.spawn_ms = field(|s| s.spawn.as_secs_f64() * 1e3);
    probe.drop_ms = field(|s| s.drop.as_secs_f64() * 1e3);
    probe.load_commit_s = field(|s| s.load_commit.as_secs_f64());
    probe.load_advance_s = field(|s| s.load_advance.as_secs_f64());
    probe.round_s = field(|s| s.round.as_secs_f64());
    probe.compute_read_s = field(|s| s.compute_read.as_secs_f64());
    probe.commit_round_s = field(|s| s.commit_round.as_secs_f64());
    probe.advance_s = field(|s| s.advance.as_secs_f64());
    probe.backend_read_ns = field(|s| s.read_ns);
    probe.round_share = field(|s| {
        (s.compute_read + s.commit_round + s.advance).as_secs_f64() / s.round.as_secs_f64()
    });
    probe.checks += samples.len();
    probe.failed += samples.iter().filter(|s| !s.ok).count();

    store_and_proto(&mut probe, &config, &pairs);
    probe
}

/// One run of the timed-backend probe.
struct BackendSample {
    spawn: Duration,
    drop: Duration,
    load_commit: Duration,
    load_advance: Duration,
    round: Duration,
    compute_read: Duration,
    commit_round: Duration,
    advance: Duration,
    read_ns: f64,
    ok: bool,
}

/// One warm-up and [`REPS`] measured runs of the timed-backend probe.
fn backend_samples<B: DdsBackend>(
    graph: &Graph,
    config: &AmpcConfig,
    pairs: &[(Key, Value)],
    make: impl Fn() -> B,
) -> Vec<BackendSample> {
    let expected = expected_labels(graph);
    (0..=REPS)
        .map(|_| backend_sample(graph, config, pairs, &expected, &make))
        .skip(1)
        .collect()
}

fn backend_sample<B: DdsBackend>(
    graph: &Graph,
    config: &AmpcConfig,
    pairs: &[(Key, Value)],
    expected: &[u64],
    make: impl Fn() -> B,
) -> BackendSample {
    let started = Instant::now();
    let backend = Timed::new(make());
    let spawn = started.elapsed();
    let mut runtime = AmpcRuntime::from_backend(config.clone(), backend);

    runtime.load_input(pairs.iter().copied());
    let (_, load_commit) = runtime.backend().last_commit().expect("load_input commits");
    let load_advance = runtime
        .backend()
        .last_advance()
        .expect("load_input advances");

    runtime.backend().reads().reset();
    let n = graph.num_vertices();
    let machines = config.num_machines();
    let round_started = Instant::now();
    let round = runtime.run_round(machines, |ctx| label_round(ctx, n, machines));
    let round_wall = round_started.elapsed();
    let (commit_started, commit_round) = runtime.backend().last_commit().expect("round commits");
    let advance = runtime.backend().last_advance().expect("round advances");
    let read_ns = runtime.backend().reads().ns_per_key();

    let view = runtime.snapshot();
    let ok = round.is_ok()
        && (0..n as u32)
            .all(|v| view.get(&label_key(v)) == Some(Value::scalar(expected[v as usize])));

    let started = Instant::now();
    drop(runtime);
    BackendSample {
        spawn,
        drop: started.elapsed(),
        load_commit,
        load_advance,
        round: round_wall,
        compute_read: commit_started.duration_since(round_started),
        commit_round,
        advance,
        read_ns,
        ok,
    }
}

fn label_key(v: u32) -> Key {
    Key::of(KeyTag::Label, u64::from(v))
}

/// One machine of the probe round: batch-read the degrees of its vertices
/// (every `machines`-th vertex), then each vertex's adjacency, and write
/// the smallest id among the vertex and its neighbours.
fn label_round<V: SnapshotView>(ctx: &mut MachineContext<V>, n: usize, machines: usize) {
    let vertices: Vec<u32> = (ctx.machine_id()..n)
        .step_by(machines)
        .map(|v| v as u32)
        .collect();
    let degree_keys: Vec<Key> = vertices.iter().map(|&v| degree_key(v)).collect();
    let degrees = ctx.read_many(&degree_keys);
    let mut keys = Vec::new();
    for (&v, degree) in vertices.iter().zip(degrees) {
        let degree = degree.map_or(0, |d| d.x as usize);
        keys.clear();
        keys.extend((0..degree).map(|i| adjacency_key(v, i)));
        let label = ctx
            .read_many(&keys)
            .into_iter()
            .flatten()
            .map(|u| u.x)
            .fold(u64::from(v), u64::min);
        ctx.write(label_key(v), Value::scalar(label));
    }
}

/// What [`label_round`] must write for each vertex.
fn expected_labels(graph: &Graph) -> Vec<u64> {
    (0..graph.num_vertices() as u32)
        .map(|v| {
            graph
                .neighbors(v)
                .iter()
                .map(|&u| u64::from(u))
                .fold(u64::from(v), u64::min)
        })
        .collect()
}

/// Median wall time of [`REPS`] calls of `f` after one warm-up call.
fn timed<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut last = f();
    let mut secs = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let started = Instant::now();
        last = std::hint::black_box(f());
        secs.push(started.elapsed().as_secs_f64());
    }
    (median(&secs), last)
}

/// The direct store and protocol calls.
fn store_and_proto(probe: &mut Probe, config: &AmpcConfig, pairs: &[(Key, Value)]) {
    let shards = config.num_shards();
    let threads = config.effective_threads();
    // The pairs split into one write batch per machine, as a round's
    // writes reach the commit path.
    let per_machine = pairs.len().div_ceil(config.num_machines()).max(1);
    let batches: Vec<Vec<(Key, Value)>> = pairs.chunks(per_machine).map(<[_]>::to_vec).collect();

    // partition → commit → freeze consume their input, so each repetition
    // runs the three in sequence on a fresh store; setup is untimed.
    let mut partition = Vec::new();
    let mut commit = Vec::new();
    let mut freeze = Vec::new();
    let mut snapshot = None;
    for rep in 0..=REPS {
        let store = ShardedStore::new(shards);
        let input = batches.clone();
        let started = Instant::now();
        let chunks = store.partition_writes_parallel(input, threads);
        let partitioned = started.elapsed();
        let started = Instant::now();
        store.commit_chunked(chunks, threads);
        let committed = started.elapsed();
        let started = Instant::now();
        let frozen = store.freeze_with_threads(threads);
        let froze = started.elapsed();
        if rep > 0 {
            partition.push(partitioned.as_secs_f64());
            commit.push(committed.as_secs_f64());
            freeze.push(froze.as_secs_f64());
        }
        snapshot = Some(frozen);
    }
    let snapshot = snapshot.expect("at least one repetition ran");
    probe.partition_s = median(&partition);
    probe.commit_s = median(&commit);
    probe.freeze_s = median(&freeze);

    let (read_ns, reads_ok) = snapshot_reads(&snapshot, pairs);
    probe.snapshot_read_ns = read_ns;
    probe.checks += 1;
    probe.failed += usize::from(!reads_ok);

    let per_shard = ShardedStore::new(shards).partition_writes(batches);
    let commit = Request::Commit {
        epoch: 0,
        seq: 1,
        batches: per_shard.into_iter().enumerate().collect(),
    };
    let (encode_s, bytes) = timed(|| proto::encode_request(&commit));
    let (decode_s, decoded) = timed(|| proto::decode_request(&bytes));
    probe.commit_encode_s = encode_s;
    probe.commit_decode_s = decode_s;
    probe.commit_bytes = bytes.len() as f64;
    probe.checks += 1;
    probe.failed += usize::from(decoded.as_ref() != Ok(&commit));

    let epoch = Reply::Epoch(epoch_frame(&snapshot, shards));
    let (encode_s, bytes) = timed(|| proto::encode_reply(&epoch));
    let (decode_s, decoded) = timed(|| proto::decode_reply(&bytes));
    probe.epoch_encode_s = encode_s;
    probe.epoch_decode_s = decode_s;
    probe.epoch_bytes = bytes.len() as f64;
    probe.checks += 1;
    probe.failed += usize::from(decoded.as_ref() != Ok(&epoch));
}

/// Read every pair's key back through `Snapshot::get_many_slice`, one
/// batch per vertex (its degree key and adjacency keys, as laid out by
/// `adjacency_pairs`), after one untimed warm-up pass. Returns the median
/// per-key read time in nanoseconds and whether every value matched.
fn snapshot_reads(snapshot: &Snapshot, pairs: &[(Key, Value)]) -> (f64, bool) {
    let mut groups = Vec::new();
    let mut start = 0;
    while start < pairs.len() {
        let degree = pairs[start].1.x as usize;
        groups.push(start..start + 1 + degree);
        start += 1 + degree;
    }
    let keys: Vec<Key> = pairs.iter().map(|&(key, _)| key).collect();
    let mut out = vec![None; pairs.len()];
    let mut per_key = Vec::with_capacity(REPS);
    for rep in 0..=REPS {
        let mut nanos = 0u128;
        for group in &groups {
            let started = Instant::now();
            snapshot.get_many_slice(&keys[group.clone()], &mut out[group.clone()]);
            nanos += started.elapsed().as_nanos();
        }
        if rep > 0 {
            per_key.push(nanos as f64 / pairs.len().max(1) as f64);
        }
    }
    let ok = pairs
        .iter()
        .zip(&out)
        .all(|(&(_, value), got)| *got == Some(value));
    (median(&per_key), ok)
}

/// The wire form of `snapshot`, as an owner of every shard would ship it.
fn epoch_frame(snapshot: &Snapshot, shards: usize) -> EpochFrame {
    let router = ShardedStore::new(shards);
    let mut frames = vec![ShardFrame::default(); shards];
    for (key, values) in snapshot.iter() {
        let frame = &mut frames[router.shard_of(key)];
        frame.writes += values.len() as u64;
        frame.entries.push((*key, values.to_vec()));
    }
    EpochFrame { shards: frames }
}
