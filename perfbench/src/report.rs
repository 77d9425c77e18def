//! Summary statistics, the identity digest, host-time spans, and the
//! result line the benchmark prints last.

use std::collections::{BinaryHeap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

use dram_sim::cmdlog::{CmdRecord, DdrCmd};

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between the two
/// nearest ranks (0 for an empty slice).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// Geometric mean of the positive entries of `values` (0 when none).
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values.iter().filter(|v| **v > 0.0).map(|v| v.ln()).collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median wall time of `reps` calls to `f`.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// A round figure near the fastest time of one [`reference_kernel`] call on
/// the 2-vCPU x86-64 host the bounds were tuned on.
/// Only a scale: host figures are reported as if the host ran the
/// reference kernel this fast.
pub const REFERENCE_NOMINAL_S: f64 = 0.010;

/// A fixed, std-only piece of branchy hash-map and heap work — the kind
/// of work the simulator does — that no change to the program can
/// alter. Returns its wall time in seconds.
pub fn reference_kernel() -> f64 {
    let t = Instant::now();
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut heap = BinaryHeap::new();
    let (mut x, mut acc) = (0x0139_408d_cbbf_7a44u64, 0u64);
    for i in 0..120_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x % 50_000).or_insert(0) += i;
        if let Some(v) = map.get(&(x % 70_000)) {
            acc = acc.wrapping_add(*v);
        }
        heap.push(x % 1_000);
        if heap.len() > 256 {
            acc ^= heap.pop().unwrap_or(0);
        }
        acc = match x % 3 {
            0 => acc.rotate_left(3),
            1 => acc ^ i,
            _ => acc.wrapping_mul(3),
        };
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// The host's speed over a run, sampled with [`reference_kernel`] right
/// before each measured operation.
///
/// Other tenants of a shared host slow every process on it for stretches
/// of seconds to minutes, so two runs of identical code can differ by up
/// to 1.7x. The reference kernel slows down with them (most, not all, of
/// the way). Scaling each measured time by the factor sampled just before
/// it removes most of that drift from run-to-run comparisons.
#[derive(Debug, Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Times one reference kernel call and returns its factor:
    /// `REFERENCE_NOMINAL_S` over the kernel's time, below 1 when the host
    /// runs slow. Multiply a host time measured right after by it to
    /// report that time at the reference speed.
    pub fn sample(&mut self) -> f64 {
        let secs = reference_kernel();
        self.samples.push(secs);
        ratio(REFERENCE_NOMINAL_S, secs)
    }

    /// The factor of the run's median reference time.
    pub fn factor(&self) -> f64 {
        ratio(REFERENCE_NOMINAL_S, median(&self.samples))
    }

    /// Reference samples taken.
    pub fn len(&self) -> usize {
        self.samples.len()
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// 64-bit FNV-1a: a stable, dependency-free digest. Not cryptographic;
/// it only has to change when a command stream or statistic changes.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer (little-endian) into the digest.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds one DRAM command record into the digest.
    pub fn cmd(&mut self, rec: &CmdRecord) {
        let (tag, bank, row) = match rec.cmd {
            DdrCmd::Act { bank, row } => (1, bank, row),
            DdrCmd::Pre { bank } => (2, bank, 0),
            DdrCmd::Rd { bank, row } => (3, bank, row),
            DdrCmd::Wr { bank, row } => (4, bank, row),
            DdrCmd::Refresh => (5, 0, 0),
            DdrCmd::PowerDown => (6, 0, 0),
            DdrCmd::PowerUp => (7, 0, 0),
        };
        for v in [rec.cycle, rec.rank as u64, tag, bank as u64, row as u64] {
            self.u64(v);
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// One host-time span recorded around a call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the span times (`llc`, `plan`, `run`, `seal`, ...).
    name: &'static str,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Seconds since the recorder started.
    start: f64,
    /// Seconds since the recorder started (equal to `start` while open).
    end: f64,
}

/// In-memory span recorder for the traced run. Spans wrap the
/// benchmark's own calls into the layers' public functions; nothing is
/// recorded inside the program.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Spans {
    /// Runs `f` inside a span named `name` under `parent`; returns its
    /// result and the span's index.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let idx = self.open(name, parent);
        let out = f();
        self.close(idx);
        (out, idx)
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span { name, parent, start: now, end: now });
        self.spans.len() - 1
    }

    /// Closes span `idx`.
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end = self.origin.elapsed().as_secs_f64();
    }

    /// Duration of span `idx` in seconds.
    pub fn secs(&self, idx: usize) -> f64 {
        self.spans[idx].end - self.spans[idx].start
    }

    /// The spans as a JSON array (`name`, `parent`, `start_s`, `end_s`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_s\": {}, \"end_s\": {}}}",
                s.name, s.start, s.end
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `host` or `simulated`.
    pub kind: &'static str,
    /// One-line provenance printed beside the value.
    pub note: String,
}

/// Everything one benchmark invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells or wire accesses).
    pub attempted: u64,
    /// Operations that panicked, failed an audit/oracle, or read wrong data.
    pub failed: u64,
    /// Every correctness check on produced outputs passed.
    pub correct: bool,
    /// Reported metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Adds a metric.
    pub fn push(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        kind: &'static str,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric { name, value, unit, kind, note: note.into() });
    }

    /// Prints each metric on its own line, then the one-line JSON result.
    /// A non-finite value cannot be reported, so it marks the run
    /// incorrect and is printed as 0.
    pub fn print(&self) {
        for m in &self.metrics {
            println!(
                "metric {:<34} {:>16.6} {:<10} [{}] {}",
                m.name, m.value, m.unit, m.kind, m.note
            );
        }
        println!(
            "ops_attempted {}  ops_failed {}  correct {}",
            self.attempted, self.failed, self.correct
        );
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && self.metrics.iter().all(|m| m.value.is_finite()),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_like_numpy() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_skips_non_positive() {
        assert!((geomean(&[2.0, 8.0, 0.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.u64(1);
        a.u64(2);
        b.u64(2);
        b.u64(1);
        assert_ne!(a.value(), b.value());
    }
}
