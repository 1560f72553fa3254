//! Summary statistics, readings from `/proc/self/status` and `/proc/stat`,
//! and the JSON lines the benchmark prints.

use std::fmt::Write as _;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Percentile `q ∈ [0, 1]` of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Read one `Key:   value ...` field of `/proc/self/status` as a number.
fn proc_status_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Machine-wide CPU time counters from the `cpu` line of `/proc/stat`:
/// (steal, total), in clock ticks.
pub fn cpu_steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .find_map(|line| line.strip_prefix("cpu "))
        .map(|rest| {
            rest.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal guest guest_nice; guest
    // time is already counted in user and nice.
    let total = ticks.iter().take(8).sum();
    (ticks.get(7).copied().unwrap_or(0), total)
}

/// Share of the machine's CPU time stolen by the hypervisor between two
/// [`cpu_steal_ticks`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1).max(1);
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Samples this process's thread count every millisecond until stopped,
/// keeping the peak.
pub struct ThreadSampler {
    stop: mpsc::Sender<()>,
    handle: JoinHandle<u64>,
}

impl ThreadSampler {
    pub fn start() -> Self {
        let (stop, stopped) = mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            let mut peak = 0;
            loop {
                peak = peak.max(proc_status_field("Threads").unwrap_or(0));
                match stopped.recv_timeout(Duration::from_millis(1)) {
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    _ => return peak,
                }
            }
        });
        ThreadSampler { stop, handle }
    }

    /// Stop sampling and return the peak thread count, not counting the
    /// sampler itself.
    pub fn finish(self) -> u64 {
        // A send error means the sampler already exited; the join reports it.
        let _ = self.stop.send(());
        self.handle
            .join()
            .expect("thread sampler does not panic")
            .saturating_sub(1)
    }
}

/// The commit checked out in the current directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let resolve = || -> Option<String> {
        let head = read(".git/HEAD")?;
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Some(commit) = read(&format!(".git/{reference}")) {
            return Some(commit.trim().to_string());
        }
        read(".git/packed-refs")?
            .lines()
            .find(|line| line.ends_with(reference))
            .and_then(|line| line.split_whitespace().next())
            .map(str::to_string)
    };
    resolve().unwrap_or_else(|| "unknown".to_string())
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which no metric should produce)
/// become `null` so the line stays valid JSON.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// `{"<name>": {"value": <v>, "unit": "<u>"}, ...}`
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(name),
                    json_number(*value),
                    json_string(unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}
