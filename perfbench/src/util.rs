//! Small shared pieces: order statistics, fingerprints, the metric table
//! and the pass loop.

use crate::clock;
use crate::speed::Probe;
use std::collections::BTreeMap;

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN measurements"));
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN measurements"));
    assert!(!v.is_empty(), "percentile of nothing");
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail latency of `values` and the percentile it stands at: the
/// highest value with at least ten samples beyond it, or the maximum when
/// there are ten samples or fewer.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN measurements"));
    let n = v.len();
    let rank = if n > 10 { n - 10 } else { n };
    (v[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// The mean of the `k` highest `values` (all of them when there are
/// fewer).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn top_mean(values: &[f64], k: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| b.partial_cmp(a).expect("no NaN measurements"));
    assert!(!v.is_empty(), "mean of nothing");
    v.truncate(k.max(1));
    v.iter().sum::<f64>() / v.len() as f64
}

/// The median sample of each unit (a pairing, a cell), or `None` when a
/// unit has no sample.
pub fn median_of_each(samples: &[Vec<f64>]) -> Option<Vec<f64>> {
    samples
        .iter()
        .map(|s| (!s.is_empty()).then(|| median(s)))
        .collect()
}

/// FNV-1a over `bytes`, as 16 hex digits.
pub fn fnv_hex(bytes: &[u8]) -> String {
    let hash = bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    format!("{hash:016x}")
}

/// Metric name → (value, unit), printed in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    /// The metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &(f64, &'static str))> {
        self.0.iter()
    }
}

/// What one workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (a workload's unit of work, see its module).
    pub attempted: u64,
    /// Operations that errored or belong to a unit whose check failed.
    pub failed: u64,
    /// The metrics to print.
    pub metrics: Metrics,
    /// Human-readable lines for stderr: fingerprints, sample counts and
    /// the reason for every failure.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts `ops` operations, failing all of them when `problems` is
    /// non-empty and noting each problem under `what`.
    pub fn tally(&mut self, what: &str, ops: u64, problems: &[String]) {
        self.attempted += ops;
        if !problems.is_empty() {
            self.failed += ops;
            for p in problems {
                self.notes.push(format!("FAILED {what}: {p}"));
            }
        }
    }
}

/// Runs `pass` until `seconds` have elapsed, at least once, and returns
/// how many passes ran.
pub fn repeat_for(seconds: f64, mut pass: impl FnMut(usize)) -> usize {
    let start = clock::now();
    let mut passes = 0;
    while passes == 0 || clock::secs_since(start) < seconds {
        pass(passes);
        passes += 1;
    }
    passes
}

/// Times `setup` `times` times and returns the median seconds, in
/// reference time, together with the last result.
pub fn median_setup<T>(probe: &mut Probe, times: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        probe.mark();
        let start = clock::now();
        let value = std::hint::black_box(setup());
        let wall = clock::secs_since(start);
        secs.push(wall * probe.scale());
        last = Some(value);
    }
    (median(&secs), last.expect("setup ran at least once"))
}
