//! Cross-backend conformance suite for the DDS trait pair.
//!
//! One parameterized battery drives `LocalBackend`, `ChannelBackend`,
//! `TcpBackend` (the socket-backed `RemoteBackend` speaking the
//! `ampc_dds::proto` wire format, over in-process owners and over local
//! clusters of 2, 3, 4 and 8 owner processes) and the executable
//! specification `legacy::LegacyStore` through the same write scripts and
//! holds every observable — `get`, `get_indexed`, `multiplicity`, `len`,
//! `read_many` (order and content), multi-value index order, and the
//! per-query read accounting — to identical results.  The property tests
//! at the bottom extend the battery to arbitrary write interleavings.

use ampc_dds::legacy::LegacyStore;
use ampc_dds::{
    ChannelBackend, DdsBackend, Key, KeyTag, LocalBackend, SnapshotView, TcpBackend, Value,
};
use ampc_runtime::{AmpcConfig, AmpcRuntime, DdsBackendKind};
use proptest::prelude::*;

/// Every backend kind the runtime-level batteries cover.
const ALL_BACKENDS: &[DdsBackendKind] = &[
    DdsBackendKind::Local,
    DdsBackendKind::Channel,
    DdsBackendKind::Remote,
    DdsBackendKind::Cluster,
];

/// Owner counts of the cluster legs: a [`TcpBackend`] over that many
/// locally spawned owner processes.
const CLUSTER_OWNERS: [usize; 4] = [2, 3, 4, 8];

/// One round's writes: ordered batches (for the runtime: one per machine).
type Script = Vec<Vec<Vec<(Key, Value)>>>;

/// A local cluster of `owners` owner processes serving `shards` shards.
fn cluster(owners: usize, shards: usize) -> TcpBackend {
    TcpBackend::spawn_cluster(owners, shards).expect("a local cluster starts on ephemeral ports")
}

fn k(a: u64) -> Key {
    Key::of(KeyTag::Scalar, a)
}

/// Apply every epoch of `script` to `backend`, returning one view per epoch.
fn run_script<B: DdsBackend>(mut backend: B, script: &Script, threads: usize) -> Vec<B::View> {
    script
        .iter()
        .map(|batches| {
            backend.commit_round(batches.clone(), threads);
            backend.advance(threads)
        })
        .collect()
}

/// Apply one epoch's batches to a fresh legacy store (the spec is
/// single-epoch: each round starts empty, exactly like a fresh `D_i`).
fn legacy_epochs(script: &Script, shards: usize) -> Vec<LegacyStore> {
    script
        .iter()
        .map(|batches| {
            let mut store = LegacyStore::new(shards);
            for batch in batches {
                for &(key, value) in batch {
                    store.write(key, value);
                }
            }
            store
        })
        .collect()
}

/// The conformance battery: every observable of `view` must match the
/// legacy spec for the keys in `probe`, and batched reads must match point
/// reads (content, order, and query accounting).
fn assert_view_matches_legacy<V: SnapshotView>(view: &V, legacy: &LegacyStore, probe: &[Key]) {
    assert_eq!(view.len(), legacy.len());
    assert_eq!(view.is_empty(), legacy.is_empty());

    let reads_before = view.total_reads();
    let mut issued = 0u64;
    for key in probe {
        assert_eq!(view.get(key), legacy.get(key), "get({key})");
        issued += 1;
        let multiplicity = legacy.multiplicity(key);
        assert_eq!(view.multiplicity(key), multiplicity, "multiplicity({key})");
        issued += 1;
        // Multi-value index order: every index, plus one past the end.
        for index in 0..=multiplicity {
            assert_eq!(
                view.get_indexed(key, index),
                legacy.get_indexed(key, index),
                "get_indexed({key}, {index})"
            );
            issued += 1;
        }
    }

    // Batched lookups: one entry per key, in key order, counted per key.
    let mut batched = Vec::new();
    view.get_many(probe, &mut batched);
    let individual: Vec<Option<Value>> = probe.iter().map(|key| legacy.get(key)).collect();
    assert_eq!(batched, individual, "get_many order/content");
    issued += probe.len() as u64;

    // Query accounting: every probe above debited exactly one query (the
    // legacy spec predates read counters, so the ledger is checked on the
    // view itself — identically for every backend).
    assert_eq!(
        view.total_reads() - reads_before,
        issued,
        "read accounting must debit one query per lookup"
    );
}

/// Run the full battery for one script on every backend and cluster size.
fn conformance_battery(script: Script, shards: usize, threads: usize) {
    // Probe keys: everything ever written plus guaranteed misses.
    let mut probe: Vec<Key> = script
        .iter()
        .flatten()
        .flatten()
        .map(|&(key, _)| key)
        .collect();
    probe.push(Key::of(KeyTag::Custom(999), u64::MAX));
    probe.push(k(u64::MAX - 1));

    let local = run_script(LocalBackend::with_shards(shards, threads), &script, threads);
    let channel = run_script(
        ChannelBackend::with_shards(shards, threads),
        &script,
        threads,
    );
    let remote = run_script(TcpBackend::with_shards(shards, threads), &script, threads);
    let clusters: Vec<_> = CLUSTER_OWNERS
        .iter()
        .map(|&owners| {
            (
                owners,
                run_script(cluster(owners, shards), &script, threads),
            )
        })
        .collect();
    let legacy = legacy_epochs(&script, shards);

    assert_eq!(local.len(), legacy.len());
    assert_eq!(channel.len(), legacy.len());
    assert_eq!(remote.len(), legacy.len());
    for (_, cluster) in &clusters {
        assert_eq!(cluster.len(), legacy.len());
    }
    for epoch in 0..legacy.len() {
        assert_view_matches_legacy(&local[epoch], &legacy[epoch], &probe);
        assert_view_matches_legacy(&channel[epoch], &legacy[epoch], &probe);
        assert_view_matches_legacy(&remote[epoch], &legacy[epoch], &probe);
        for (_, cluster) in &clusters {
            assert_view_matches_legacy(&cluster[epoch], &legacy[epoch], &probe);
        }
        // The trait backends also agree on the unordered entry dump.
        let mut local_entries = local[epoch].entries();
        let mut channel_entries = channel[epoch].entries();
        let mut remote_entries = remote[epoch].entries();
        local_entries.sort_by_key(|&(key, _)| key);
        channel_entries.sort_by_key(|&(key, _)| key);
        remote_entries.sort_by_key(|&(key, _)| key);
        assert_eq!(local_entries, channel_entries, "epoch {epoch} entries");
        assert_eq!(
            local_entries, remote_entries,
            "epoch {epoch} remote entries"
        );
        for (owners, cluster) in &clusters {
            let mut cluster_entries = cluster[epoch].entries();
            cluster_entries.sort_by_key(|&(key, _)| key);
            assert_eq!(
                local_entries, cluster_entries,
                "epoch {epoch} cluster({owners}) entries"
            );
        }
    }
}

#[test]
fn battery_single_epoch_singletons_and_multivalues() {
    let script: Script = vec![vec![
        (0..200u64).map(|i| (k(i % 60), Value::scalar(i))).collect(),
        (0..40u64).map(|i| (k(i), Value::pair(i, i * 2))).collect(),
    ]];
    for &(shards, threads) in &[(1usize, 1usize), (8, 2), (16, 4), (64, 3)] {
        conformance_battery(script.clone(), shards, threads);
    }
}

#[test]
fn battery_multi_epoch_isolation() {
    let script: Script = vec![
        vec![(0..50u64).map(|i| (k(i), Value::scalar(i))).collect()],
        vec![(25..75u64)
            .map(|i| (k(i), Value::scalar(i + 1000)))
            .collect()],
        vec![Vec::new()], // an empty round is a valid epoch
        vec![(0..10u64).map(|_| (k(7), Value::scalar(7))).collect()],
    ];
    conformance_battery(script, 8, 2);
}

#[test]
fn battery_machine_order_defines_multivalue_indices() {
    // 16 "machines" all writing the same hot keys: index order must be
    // (machine id, write order) on every backend.
    let script: Script = vec![(0..16u64)
        .map(|machine| {
            (0..8u64)
                .map(|i| (k(i % 4), Value::scalar(machine * 100 + i)))
                .collect()
        })
        .collect()];
    for &threads in &[1usize, 2, 8] {
        conformance_battery(script.clone(), 8, threads);
    }
}

#[test]
fn battery_covers_every_key_tag() {
    let tags = [
        KeyTag::Degree,
        KeyTag::Adjacency,
        KeyTag::CycleNeighbors,
        KeyTag::Sampled,
        KeyTag::Priority,
        KeyTag::Successor,
        KeyTag::Weight,
        KeyTag::WeightedAdjacency,
        KeyTag::Scalar,
        KeyTag::Custom(3),
    ];
    let script: Script = vec![vec![tags
        .iter()
        .enumerate()
        .flat_map(|(i, &tag)| {
            let key = Key::with_index(tag, i as u64, (i as u64) % 3);
            vec![(key, Value::scalar(i as u64)), (key, Value::pair(1, 2))]
        })
        .collect()]];
    conformance_battery(script, 8, 2);
}

#[test]
fn machine_context_budget_accounting_is_backend_independent() {
    // The runtime-level half of the query-budget battery: the same round
    // body must debit identical budgets (queries, violations) on every
    // backend, including through read_many.
    let run = |backend: &DdsBackendKind| {
        let config = AmpcConfig::for_graph(400, 400, 0.5)
            .with_seed(11)
            .with_threads(2)
            .with_backend(*backend);
        ampc_runtime::with_dds_backend!(config, |rt| {
            rt.load_input((0..100u64).map(|i| (k(i), Value::scalar(i))));
            rt.run_round(4, |ctx| {
                let id = ctx.machine_id() as u64;
                let single = ctx.read(k(id)).map(|v| v.x);
                let keys: Vec<Key> = (0..10u64).map(|i| k(id * 10 + i)).collect();
                let batch: Vec<Option<u64>> = ctx
                    .read_many(&keys)
                    .into_iter()
                    .map(|v| v.map(|v| v.x))
                    .collect();
                let indexed = ctx.read_indexed(k(id), 0).map(|v| v.x);
                let mult = ctx.multiplicity(k(id));
                (
                    single,
                    batch,
                    indexed,
                    mult,
                    ctx.queries_issued(),
                    ctx.remaining_budget(),
                )
            })
            .unwrap()
        })
    };
    let reference = run(&DdsBackendKind::Local);
    for backend in &ALL_BACKENDS[1..] {
        assert_eq!(run(backend), reference, "budgets diverged on {backend:?}");
    }
}

#[test]
fn explicit_shard_override_flows_to_every_backend() {
    for &backend in ALL_BACKENDS {
        let config = AmpcConfig::for_graph(100, 100, 0.5)
            .with_backend(backend)
            .with_num_shards(13)
            .unwrap();
        ampc_runtime::with_dds_backend!(config, |rt| {
            rt.load_input((0..10u64).map(|i| (k(i), Value::scalar(i))));
            assert_eq!(rt.snapshot().num_shards(), 13);
        });
    }
}

/// End-to-end smoke through `AmpcRuntime<B>` directly (not via the macro):
/// adaptive pointer chasing, exactly as the model demands.  `make` builds
/// the backend from the config's shard and thread counts.
fn runtime_program_smoke<B: DdsBackend>(make: impl FnOnce(usize, usize) -> B) {
    let config = AmpcConfig::for_graph(10_000, 0, 0.5).with_threads(3);
    let backend = make(config.num_shards(), config.effective_threads());
    let mut runtime = AmpcRuntime::from_backend(config, backend);
    runtime.load_input((0..100u64).map(|x| (Key::of(KeyTag::Successor, x), Value::scalar(x + 1))));
    let reached = runtime
        .run_round(1, |ctx| {
            let mut x = 0u64;
            for _ in 0..50 {
                x = ctx.read(Key::of(KeyTag::Successor, x)).unwrap().x;
            }
            x
        })
        .unwrap();
    assert_eq!(reached, vec![50]);
    assert_eq!(runtime.stats().rounds[0].total_queries, 50);
}

#[test]
fn channel_backend_runs_a_full_runtime_program() {
    runtime_program_smoke(ChannelBackend::with_shards);
}

#[test]
fn tcp_backend_runs_a_full_runtime_program() {
    runtime_program_smoke(TcpBackend::with_shards);
}

#[test]
fn cluster_backend_runs_a_full_runtime_program() {
    runtime_program_smoke(|shards, _| cluster(2, shards));
}

/// Everything a view can tell us about an epoch: key count, sorted entry
/// dump, and the flattened results of every probe lookup.
type EpochObservation = (usize, Vec<(Key, Vec<Value>)>, Vec<u64>);

/// Capture an [`EpochObservation`] for byte-equality checks across the
/// epoch's lifetime (minus read counters, which by design keep advancing as
/// we re-probe).
fn observe<V: SnapshotView>(view: &V, probe: &[Key]) -> EpochObservation {
    let mut entries = view.entries();
    entries.sort_by_key(|&(key, _)| key);
    let mut observations = Vec::new();
    for key in probe {
        observations.push(view.get(key).map_or(u64::MAX, |v| v.x));
        observations.push(view.multiplicity(key) as u64);
        for index in 0..=view.multiplicity(key) {
            observations.push(view.get_indexed(key, index).map_or(u64::MAX, |v| v.x));
        }
    }
    let mut batched = Vec::new();
    view.get_many(probe, &mut batched);
    observations.extend(batched.iter().map(|v| v.map_or(u64::MAX, |v| v.x)));
    (view.len(), entries, observations)
}

/// Snapshot lifetime: a view taken at one epoch must stay valid — and
/// byte-identical — while later epochs commit and advance, and after the
/// backend itself is dropped.
fn snapshot_lifetime_battery<B: DdsBackend>(mut backend: B, threads: usize) {
    backend.commit_round(
        vec![
            (0..120u64).map(|i| (k(i % 40), Value::scalar(i))).collect(),
            (0..20u64).map(|i| (k(i), Value::pair(i, i * 9))).collect(),
        ],
        threads,
    );
    let early = backend.advance(threads);
    let probe: Vec<Key> = (0..50u64).map(k).collect();
    let baseline = observe(&early, &probe);
    assert!(baseline.0 > 0, "epoch 0 must hold data");

    // Later epochs overwrite the same keys with different values; the early
    // view must not see any of it.
    for round in 0..3u64 {
        backend.commit_round(
            vec![(0..60u64)
                .map(|i| (k(i), Value::scalar(1_000_000 + round * 1_000 + i)))
                .collect()],
            threads,
        );
        let _ = backend.advance(threads);
        assert_eq!(
            observe(&early, &probe),
            baseline,
            "early view changed after advance {round}"
        );
    }

    // The backend (and with it the runtime that owned it) goes away; the
    // view must keep serving the identical epoch.
    drop(backend);
    assert_eq!(
        observe(&early, &probe),
        baseline,
        "early view changed after the backend was dropped"
    );
}

#[test]
fn local_views_stay_valid_across_epochs_and_backend_drop() {
    snapshot_lifetime_battery(LocalBackend::with_shards(8, 2), 2);
    snapshot_lifetime_battery(LocalBackend::with_shards(1, 1), 1);
}

#[test]
fn channel_views_stay_valid_across_epochs_and_backend_drop() {
    snapshot_lifetime_battery(ChannelBackend::with_shards(8, 3), 3);
    snapshot_lifetime_battery(ChannelBackend::with_shards(16, 1), 1);
}

#[test]
fn tcp_views_stay_valid_across_epochs_and_backend_drop() {
    snapshot_lifetime_battery(TcpBackend::with_shards(8, 3), 3);
    snapshot_lifetime_battery(TcpBackend::with_shards(16, 1), 1);
}

#[test]
fn cluster_views_stay_valid_across_epochs_and_backend_drop() {
    for (owners, shards, threads) in [(2, 8, 3), (3, 8, 2), (4, 16, 1), (8, 16, 1)] {
        snapshot_lifetime_battery(cluster(owners, shards), threads);
    }
}

fn arbitrary_key() -> impl Strategy<Value = Key> {
    (0u32..6, 0u64..40, 0u64..4).prop_map(|(tag, a, b)| Key {
        tag: KeyTag::from_code(tag),
        a,
        b,
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Observational equivalence of all three backends under arbitrary
    /// write interleavings: any number of epochs, any number of machine
    /// batches per epoch, colliding keys across tags, any shard/thread
    /// shape.
    #[test]
    fn backends_are_observationally_equivalent_under_arbitrary_interleavings(
        script in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec((arbitrary_key(), any::<u64>()), 0..30),
                1..5
            ),
            1..4
        ),
        shards in 1usize..33,
        threads in 1usize..5
    ) {
        let script: Script = script
            .into_iter()
            .map(|epoch| {
                epoch
                    .into_iter()
                    .map(|batch| {
                        batch.into_iter().map(|(key, x)| (key, Value::scalar(x))).collect()
                    })
                    .collect()
            })
            .collect();
        conformance_battery(script, shards, threads);
    }
}
