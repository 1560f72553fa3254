//! The named workloads and the DDS backend each one runs on.

use ampc_runtime::{
    AmpcConfig, ClusterBackend, DdsBackend, DdsBackendKind, LocalBackend, TcpBackend,
};
use std::time::{Duration, Instant};

/// The DDS backend a workload's solves run on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// In-process sharded store.
    Local,
    /// In-process owners over localhost TCP (`DdsBackendKind::Remote`).
    Tcp,
    /// Two locally spawned cluster owners (`DdsBackendKind::Cluster`).
    Cluster2,
}

impl Backend {
    pub fn name(self) -> &'static str {
        match self {
            Backend::Local => "local",
            Backend::Tcp => "tcp",
            Backend::Cluster2 => "cluster2",
        }
    }

    /// Select this backend in a solve configuration.
    pub fn apply(self, config: AmpcConfig) -> AmpcConfig {
        match self {
            Backend::Local => config.with_backend(DdsBackendKind::Local),
            Backend::Tcp => config.with_backend(DdsBackendKind::Remote),
            Backend::Cluster2 => config
                .with_cluster_owners(2)
                .expect("two cluster owners are within the supported range"),
        }
    }

    /// Time bringing the backend up through its public constructor; the
    /// teardown that follows is not timed.
    pub fn bring_up(self, num_shards: usize, threads: usize) -> Duration {
        fn time<B: DdsBackend>(make: impl FnOnce() -> B) -> Duration {
            let started = Instant::now();
            let backend = std::hint::black_box(make());
            let spawn = started.elapsed();
            drop(backend);
            spawn
        }
        match self {
            Backend::Local => time(|| LocalBackend::with_shards(num_shards, threads)),
            Backend::Tcp => time(|| TcpBackend::with_shards(num_shards, threads)),
            Backend::Cluster2 => time(|| {
                ClusterBackend::<2>::spawn_local(num_shards)
                    .expect("a local two-owner cluster starts on ephemeral ports")
            }),
        }
    }
}

/// One named workload: `sets` instance sets of the six problems at size
/// `n`, solved on `backend`.
pub struct Workload {
    pub name: &'static str,
    pub n: usize,
    /// Instance sets per run.  Round counts and solve times depend on the
    /// instance, so each run sums over several to keep run-to-run spread
    /// across seeds small.
    pub sets: usize,
    pub backend: Backend,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fig1-local",
        n: 1 << 16,
        sets: 4,
        backend: Backend::Local,
    },
    Workload {
        name: "fig1-tcp",
        n: 1 << 16,
        sets: 4,
        backend: Backend::Tcp,
    },
    Workload {
        name: "fig1-cluster2",
        n: 1 << 16,
        sets: 4,
        backend: Backend::Cluster2,
    },
    Workload {
        name: "rounds-tcp",
        n: 1 << 12,
        sets: 8,
        backend: Backend::Tcp,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
