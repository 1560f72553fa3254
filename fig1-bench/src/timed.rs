//! `Timed<B>`: a [`DdsBackend`] wrapper that times the calls the runtime
//! makes into the backend, and its view, which times reads.
//!
//! The wrapper lives in the benchmark, not the program: it measures a
//! backend from the outside through the public trait, so the layer probe
//! can split one round's wall time into compute+reads, `commit_round` and
//! `advance` without instrumenting the runtime.

use ampc_dds::{DdsBackend, Key, RequestFaults, ShardLoad, SnapshotView, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Read time accumulated by every view of one [`Timed`] backend.
///
/// Machine threads read concurrently, so the sums are atomics; they are
/// statistics and publish no other data, hence `Relaxed`.
#[derive(Default)]
pub struct ReadClock {
    nanos: AtomicU64,
    keys: AtomicU64,
}

impl ReadClock {
    fn record(&self, started: Instant, keys: usize) {
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.keys.fetch_add(keys as u64, Ordering::Relaxed);
    }

    /// Forget everything recorded so far.
    pub fn reset(&self) {
        self.nanos.store(0, Ordering::Relaxed);
        self.keys.store(0, Ordering::Relaxed);
    }

    /// Mean time per key read since the last reset, in nanoseconds.
    pub fn ns_per_key(&self) -> f64 {
        let keys = self.keys.load(Ordering::Relaxed).max(1);
        self.nanos.load(Ordering::Relaxed) as f64 / keys as f64
    }
}

/// A backend whose `commit_round` and `advance` calls are timed.
pub struct Timed<B> {
    inner: B,
    reads: Arc<ReadClock>,
    /// Start and duration of the most recent `commit_round`.
    last_commit: Option<(Instant, Duration)>,
    /// Duration of the most recent `advance`.
    last_advance: Option<Duration>,
}

impl<B: DdsBackend> Timed<B> {
    /// Wrap an already constructed backend.
    pub fn new(inner: B) -> Self {
        Timed {
            inner,
            reads: Arc::default(),
            last_commit: None,
            last_advance: None,
        }
    }

    /// Start and duration of the most recent `commit_round`.
    pub fn last_commit(&self) -> Option<(Instant, Duration)> {
        self.last_commit
    }

    /// Duration of the most recent `advance`.
    pub fn last_advance(&self) -> Option<Duration> {
        self.last_advance
    }

    /// The read clock shared by every view this backend hands out.
    pub fn reads(&self) -> &ReadClock {
        &self.reads
    }

    fn wrap(&self, inner: B::View) -> TimedView<B::View> {
        TimedView {
            inner,
            reads: Arc::clone(&self.reads),
        }
    }
}

impl<B: DdsBackend> DdsBackend for Timed<B> {
    type View = TimedView<B::View>;

    fn with_shards(num_shards: usize, threads: usize) -> Self {
        Timed::new(B::with_shards(num_shards, threads))
    }

    fn num_shards(&self) -> usize {
        self.inner.num_shards()
    }

    fn empty_view(&self) -> Self::View {
        self.wrap(self.inner.empty_view())
    }

    fn commit_round(&mut self, batches: Vec<Vec<(Key, Value)>>, threads: usize) {
        let started = Instant::now();
        self.inner.commit_round(batches, threads);
        self.last_commit = Some((started, started.elapsed()));
    }

    fn advance(&mut self, threads: usize) -> Self::View {
        let started = Instant::now();
        let view = self.inner.advance(threads);
        self.last_advance = Some(started.elapsed());
        self.wrap(view)
    }

    fn completed_epochs(&self) -> usize {
        self.inner.completed_epochs()
    }

    fn total_writes(&mut self) -> u64 {
        self.inner.total_writes()
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn install_request_faults(&mut self, faults: RequestFaults) {
        self.inner.install_request_faults(faults);
    }

    fn dropped_requests(&self) -> u64 {
        self.inner.dropped_requests()
    }

    fn severed_connections(&self) -> u64 {
        self.inner.severed_connections()
    }
}

/// The view of a [`Timed`] backend: point and batched reads are timed.
#[derive(Clone)]
pub struct TimedView<V> {
    inner: V,
    reads: Arc<ReadClock>,
}

impl<V: SnapshotView> SnapshotView for TimedView<V> {
    fn num_shards(&self) -> usize {
        self.inner.num_shards()
    }

    fn get(&self, key: &Key) -> Option<Value> {
        let started = Instant::now();
        let value = self.inner.get(key);
        self.reads.record(started, 1);
        value
    }

    fn get_indexed(&self, key: &Key, index: usize) -> Option<Value> {
        self.inner.get_indexed(key, index)
    }

    fn get_all(&self, key: &Key) -> Vec<Value> {
        self.inner.get_all(key)
    }

    fn multiplicity(&self, key: &Key) -> usize {
        self.inner.multiplicity(key)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn get_many_slice(&self, keys: &[Key], out: &mut [Option<Value>]) {
        let started = Instant::now();
        self.inner.get_many_slice(keys, out);
        self.reads.record(started, keys.len());
    }

    fn total_reads(&self) -> u64 {
        self.inner.total_reads()
    }

    fn shard_loads(&self) -> Vec<ShardLoad> {
        self.inner.shard_loads()
    }

    fn entries(&self) -> Vec<(Key, Vec<Value>)> {
        self.inner.entries()
    }
}
