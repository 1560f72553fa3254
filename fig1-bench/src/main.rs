//! End-to-end Figure-1 benchmark with a per-layer DDS profile.
//!
//! ```text
//! fig1-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the six Figure-1 problems through their public `*_with` entry
//! points on the workload's DDS backend, repeating passes over the six for
//! `--seconds`, and verifies every solve against the sequential reference.
//! With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! repeats the same solves and adds the layer probe, reporting the
//! per-layer metrics. The last line of standard output is the result
//! object; the line before it carries the run's metadata. See `README.md`
//! in this directory for the workloads and what each metric means.

mod probe;
mod problems;
mod report;
mod timed;
mod workload;

use ampc_runtime::RunStats;
use problems::{Instance, Problem};
use report::{json_string, median, percentile, Metrics, ThreadSampler};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use workload::{Backend, Workload};

/// The seed documented for checking a claim on inputs not used while the
/// change was written.
const HELD_OUT_SEED: u64 = 20_190_622;

const USAGE: &str = "usage: fig1-bench --workload <fig1-local|fig1-tcp|fig1-cluster2|rounds-tcp> \
     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One solve: wall time, what the runtime recorded, and whether the output
/// was correct. `stats` is `None` when the solve panicked.
struct Solve {
    wall_s: f64,
    stats: Option<RunStats>,
    ok: bool,
}

impl Solve {
    /// What the determinism check compares across passes and backends.
    fn fingerprint(&self) -> Option<(usize, u64)> {
        self.stats
            .as_ref()
            .map(|s| (s.num_rounds(), s.total_communication()))
    }

    fn round_wall_s(&self) -> f64 {
        self.stats
            .as_ref()
            .map_or(0.0, |s| s.total_wall_time().as_secs_f64())
    }
}

/// Solve every instance once on `backend`, verifying each output.
/// Verification time is added to `verify_s`.
fn solve_pass(instances: &[Instance], backend: Backend, verify_s: &mut f64) -> Vec<Solve> {
    instances
        .iter()
        .map(|instance| {
            let config = instance.config(backend);
            let started = Instant::now();
            let solved = catch_unwind(AssertUnwindSafe(|| instance.solve(&config)));
            let wall_s = started.elapsed().as_secs_f64();
            let started = Instant::now();
            let (ok, stats) = match solved {
                Ok((output, stats)) => (instance.verify(&output), Some(stats)),
                Err(_) => (false, None),
            };
            *verify_s += started.elapsed().as_secs_f64();
            Solve { wall_s, stats, ok }
        })
        .collect()
}

/// Generator and algorithm seed of instance set `set` of a run seeded
/// with `seed`.  Consecutive sets alternate parity, so the 2-Cycle
/// instances alternate between one and two cycles.
fn instance_seed(seed: u64, set: usize) -> u64 {
    seed.wrapping_mul(1 << 16).wrapping_add(set as u64)
}

/// Everything one invocation measured.
struct Run {
    /// The workload's instances: `sets` × the six problems, set-major.
    instances: Vec<Instance>,
    sets: usize,
    /// Per set: generating its six instances, and that plus DDS bring-up.
    gen_s: Vec<f64>,
    setup_s: Vec<f64>,
    reference_s: f64,
    /// Output checks of each timed pass.
    check_s: Vec<f64>,
    /// `passes[k][i]` is pass `k`'s solve of `instances[i]`.
    passes: Vec<Vec<Solve>>,
    /// Set 0 solved on the local backend, which every other backend's
    /// rounds and communication must match.
    cross_check: Vec<Solve>,
    cross_check_verify_s: f64,
    peak_rss_mb: f64,
    /// Share of CPU time the hypervisor stole during the timed passes.
    steal_share: f64,
    threads_peak: u64,
    probe: Option<(probe::Probe, f64)>,
    attempted: usize,
    failed: usize,
}

fn run(args: &Args) -> Run {
    let workload = args.workload;
    let threads = ampc_dds::default_parallelism();

    // Set-up, once per instance set: generate its six instances and bring
    // up the workload's DDS through the backend's public constructor.
    let mut instances = Vec::new();
    let mut gen_s = Vec::new();
    let mut setup_s = Vec::new();
    for set in 0..workload.sets {
        let seed = instance_seed(args.seed, set);
        let started = Instant::now();
        let six: Vec<Instance> = Problem::ALL
            .iter()
            .map(|&p| Instance::generate(p, workload.n, seed))
            .collect();
        let generated = started.elapsed().as_secs_f64();
        let shards = six[Problem::Msf as usize]
            .config(workload.backend)
            .num_shards();
        let spawn = workload.backend.bring_up(shards, threads);
        gen_s.push(generated);
        setup_s.push(generated + spawn.as_secs_f64());
        instances.extend(six);
    }

    let started = Instant::now();
    for instance in &mut instances {
        instance.compute_reference();
    }
    let reference_s = started.elapsed().as_secs_f64();

    let sampler = args.trace.then(ThreadSampler::start);

    // Timed passes over every instance while another pass still fits in
    // --seconds; at least one.
    let steal_before = report::cpu_steal_ticks();
    let started = Instant::now();
    let mut passes = Vec::new();
    let mut check_s = Vec::new();
    loop {
        let mut checks = 0.0;
        passes.push(solve_pass(&instances, workload.backend, &mut checks));
        check_s.push(checks);
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / passes.len() as f64 > args.seconds {
            break;
        }
    }
    let peak_rss_mb = report::peak_rss_mb();
    let steal_share = report::steal_share(steal_before, report::cpu_steal_ticks());

    // Determinism held from outside: every solve must match the first
    // pass's rounds and communication, and set 0 must match them on the
    // local backend too.
    let mut cross_check_verify_s = 0.0;
    let cross_check = if workload.backend == Backend::Local {
        Vec::new()
    } else {
        let set0 = &instances[..Problem::ALL.len()];
        solve_pass(set0, Backend::Local, &mut cross_check_verify_s)
    };
    let mut attempted = 0;
    let mut failed = 0;
    for pass in passes.iter().chain([&cross_check]) {
        for (solve, first) in pass.iter().zip(&passes[0]) {
            let deterministic =
                solve.fingerprint().is_some() && solve.fingerprint() == first.fingerprint();
            attempted += 1;
            failed += usize::from(!solve.ok || !deterministic);
        }
    }

    let probe = args.trace.then(|| {
        let started = Instant::now();
        let msf = &instances[Problem::Msf as usize];
        let probe = catch_unwind(AssertUnwindSafe(|| probe::run(workload.backend, msf)))
            .unwrap_or_else(|_| probe::Probe {
                checks: 1,
                failed: 1,
                ..probe::Probe::default()
            });
        (probe, started.elapsed().as_secs_f64())
    });
    if let Some((probe, _)) = &probe {
        attempted += probe.checks;
        failed += probe.failed;
    }
    let threads_peak = sampler.map_or(0, ThreadSampler::finish);

    Run {
        instances,
        sets: workload.sets,
        gen_s,
        setup_s,
        reference_s,
        check_s,
        passes,
        cross_check,
        cross_check_verify_s,
        peak_rss_mb,
        steal_share,
        threads_peak,
        probe,
        attempted,
        failed,
    }
}

impl Run {
    /// Mean per instance set of the summed per-instance median over the
    /// timed passes of `f(solve)`, for the instances `keep` selects.
    fn per_set(&self, keep: impl Fn(Problem) -> bool, f: impl Fn(&Solve) -> f64) -> f64 {
        let sum: f64 = self
            .instances
            .iter()
            .enumerate()
            .filter(|(_, instance)| keep(instance.problem))
            .map(|(i, _)| {
                median(
                    &self
                        .passes
                        .iter()
                        .map(|pass| f(&pass[i]))
                        .collect::<Vec<_>>(),
                )
            })
            .sum();
        sum / self.sets as f64
    }

    /// Σ over the six problems of the solve time, per instance set.
    fn solve_s(&self) -> f64 {
        self.per_set(|_| true, |s| s.wall_s)
    }

    /// Every timed round's wall time, in milliseconds.
    fn round_ms(&self) -> Vec<f64> {
        self.passes
            .iter()
            .flatten()
            .filter_map(|s| s.stats.as_ref())
            .flat_map(|stats| &stats.rounds)
            .map(|r| r.wall_time.as_secs_f64() * 1e3)
            .collect()
    }

    /// Σ over the first pass's solves of `f(stats)`.
    fn first_pass_sum(&self, f: impl Fn(&RunStats) -> u64) -> f64 {
        self.passes[0]
            .iter()
            .filter_map(|s| s.stats.as_ref())
            .map(f)
            .sum::<u64>() as f64
    }

    fn end_to_end(&self) -> Metrics {
        let mut m = Metrics::default();
        m.push("solve_s", self.solve_s(), "s");
        m.push("setup_s", median(&self.setup_s), "s");
        m.push("peak_rss_mb", self.peak_rss_mb, "MiB");
        m.push(
            "rounds",
            self.first_pass_sum(|s| s.num_rounds() as u64),
            "count",
        );
        m.push(
            "communication",
            self.first_pass_sum(|s| s.total_communication()),
            "count",
        );
        m
    }

    fn per_layer(&self, process_s: f64) -> Metrics {
        let mut m = Metrics::default();
        m.push("graph.gen_s", median(&self.gen_s), "s");
        let verify_s = (self.reference_s + median(&self.check_s)) / self.sets as f64;
        m.push("graph.verify_s", verify_s, "s");
        for p in Problem::ALL {
            let solve = self.per_set(|q| q == p, |s| s.wall_s);
            let driver = self.per_set(|q| q == p, |s| s.wall_s - s.round_wall_s());
            m.push(format!("core.{}.solve_s", p.name()), solve, "s");
            m.push(format!("core.{}.driver_s", p.name()), driver, "s");
        }
        m.push(
            "ampc.round_wall_s",
            self.per_set(|_| true, Solve::round_wall_s),
            "s",
        );
        // Per-round percentiles are reported here, not held to a bound:
        // rounds range from under a millisecond to hundreds, and how many
        // near-empty closing rounds an instance needs varies with the seed,
        // so the percentiles move between clusters from seed to seed.
        let round_ms = self.round_ms();
        m.push("round_ms.p50", percentile(&round_ms, 0.5), "ms");
        m.push("round_ms.p90", percentile(&round_ms, 0.9), "ms");
        m.push(
            "ampc.queries",
            self.first_pass_sum(|s| s.total_queries()),
            "count",
        );
        m.push(
            "ampc.writes",
            self.first_pass_sum(|s| s.total_writes()),
            "count",
        );
        let max_comm = self.passes[0]
            .iter()
            .filter_map(|s| s.stats.as_ref())
            .map(|s| s.max_machine_communication())
            .max()
            .unwrap_or(0);
        m.push("ampc.max_machine_comm", max_comm as f64, "count");
        m.push(
            "ampc.budget_violations",
            self.first_pass_sum(|s| s.budget_violations()),
            "count",
        );
        let (probe, probe_s) = self.probe.as_ref().expect("traced runs run the probe");
        m.push("ampc.probe.round_s", probe.round_s, "s");
        m.push("ampc.probe.compute_read_s", probe.compute_read_s, "s");
        m.push("dds.store.partition_s", probe.partition_s, "s");
        m.push("dds.store.commit_s", probe.commit_s, "s");
        m.push("dds.store.freeze_s", probe.freeze_s, "s");
        m.push("dds.snapshot.read_ns", probe.snapshot_read_ns, "ns");
        m.push("dds.proto.commit_encode_s", probe.commit_encode_s, "s");
        m.push("dds.proto.commit_decode_s", probe.commit_decode_s, "s");
        m.push("dds.proto.epoch_encode_s", probe.epoch_encode_s, "s");
        m.push("dds.proto.epoch_decode_s", probe.epoch_decode_s, "s");
        m.push("dds.proto.commit_bytes", probe.commit_bytes, "bytes");
        m.push("dds.proto.epoch_bytes", probe.epoch_bytes, "bytes");
        m.push("dds.backend.spawn_ms", probe.spawn_ms, "ms");
        m.push("dds.backend.commit_round_s", probe.commit_round_s, "s");
        m.push("dds.backend.advance_s", probe.advance_s, "s");
        m.push("dds.backend.load_commit_s", probe.load_commit_s, "s");
        m.push("dds.backend.load_advance_s", probe.load_advance_s, "s");
        m.push("dds.backend.read_ns", probe.backend_read_ns, "ns");
        m.push("dds.backend.drop_ms", probe.drop_ms, "ms");
        m.push("proc.threads_peak", self.threads_peak as f64, "count");
        m.push("trace.solve_s", self.solve_s(), "s");

        // Outside-in closure: how much of the process's wall time the
        // timed calls explain, and how much of the probe round its three
        // phases explain.
        let all_solves = self.passes.iter().flatten().chain(&self.cross_check);
        let solves_s: f64 = all_solves.map(|s| s.wall_s).sum();
        let verify_s =
            self.reference_s + self.check_s.iter().sum::<f64>() + self.cross_check_verify_s;
        let explained = self.gen_s.iter().sum::<f64>() + verify_s + solves_s + probe_s;
        m.push("closure.process_share", explained / process_s, "ratio");
        m.push("closure.probe_round_share", probe.round_share, "ratio");
        m
    }

    fn meta(&self, args: &Args) -> String {
        let solves = self.passes.iter().map(Vec::len).sum::<usize>() + self.cross_check.len();
        let fields = [
            ("workload", json_string(args.workload.name)),
            ("backend", json_string(args.workload.backend.name())),
            ("n", args.workload.n.to_string()),
            ("instance_sets", self.sets.to_string()),
            ("seed", args.seed.to_string()),
            ("held_out_seed", HELD_OUT_SEED.to_string()),
            ("seconds", args.seconds.to_string()),
            ("trace", u8::from(args.trace).to_string()),
            ("nproc", ampc_dds::default_parallelism().to_string()),
            ("cpu_steal_share", report::json_number(self.steal_share)),
            ("rustc", json_string(env!("FIG1_BENCH_RUSTC"))),
            ("git_commit", json_string(&report::git_commit())),
            ("profile", json_string(env!("FIG1_BENCH_PROFILE"))),
            ("setup_reps", self.sets.to_string()),
            ("passes", self.passes.len().to_string()),
            ("solves", solves.to_string()),
            ("round_ms_samples", self.round_ms().len().to_string()),
            (
                "probe_reps",
                if args.trace { probe::REPS } else { 0 }.to_string(),
            ),
            (
                "fail_share",
                report::json_number(self.failed as f64 / self.attempted.max(1) as f64),
            ),
        ];
        let body: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_string(k)))
            .collect();
        format!("{{\"meta\": {{{}}}}}", body.join(", "))
    }
}

fn main() {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("fig1-bench: {err}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run = run(&args);
    let metrics = if args.trace {
        run.per_layer(started.elapsed().as_secs_f64())
    } else {
        run.end_to_end()
    };
    println!("{}", run.meta(&args));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        metrics.to_json()
    );
}
