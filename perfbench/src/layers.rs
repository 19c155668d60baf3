//! The per-layer metrics of the traced run, derived from its spans and
//! counters.
//!
//! Every workload prints the whole list, so a layer a workload never calls
//! reads 0 there. A metric named `<layer>.<op>_ms[.<key>]` is the summed
//! duration of the spans named `<layer>.<op>[.<key>]`, unless a counter of
//! the metric's own name exists (calls too numerous for one span each
//! accumulate straight into a counter); count metrics are counters.

use crate::trace::Recorder;
use crate::util::{self, Metrics, Outcome};
use crate::Opts;
use std::collections::BTreeMap;

/// Name and unit of every per-layer metric, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hst.build_ms", "ms"),
    ("hst.builds", "count"),
    ("privacy.report_batch_ms.hst", "ms"),
    ("privacy.report_batch_ms.laplace", "ms"),
    ("privacy.report_batch_ms.exp", "ms"),
    ("privacy.reports.hst", "count"),
    ("privacy.reports.laplace", "count"),
    ("privacy.reports.exp", "count"),
    ("matching.assign_ms.tbf", "ms"),
    ("matching.assign_ms.lap-kd", "ms"),
    ("matching.assign_ms.exp-hg", "ms"),
    ("matching.us_per_task.tbf", "us"),
    ("matching.us_per_task.lap-kd", "us"),
    ("matching.us_per_task.exp-hg", "us"),
    ("codec.encode_ms", "ms"),
    ("codec.decode_ms", "ms"),
    ("codec.frames", "count"),
    ("codec.bytes", "bytes"),
    ("pool.insert_batch_ms", "ms"),
    ("pool.withdraw_ms", "ms"),
    ("pool.assign_batch_ms", "ms"),
    ("pool.assigned", "count"),
    ("pool.dropped", "count"),
    ("serve.windows", "count"),
    ("serve.flush_ms.p50", "ms"),
    ("serve.flush_ms.p99", "ms"),
    ("offline.solve_ms", "ms"),
    ("offline.solves", "count"),
    ("clairvoyant.solve_ms", "ms"),
    ("clairvoyant.solves", "count"),
    ("oracle.solves_per_instance.static", "ratio"),
    ("oracle.solves_per_instance.dynamic", "ratio"),
    ("dynamic.replay_ms.hst-greedy", "ms"),
    ("dynamic.replay_ms.kd-rebuild", "ms"),
    ("dynamic.replay_ms.random", "ms"),
    ("sweep.partition_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.resume_ms", "ms"),
    ("merge.ms", "ms"),
    ("sweep.ratio_mean", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn flush_percentile(rec: &Recorder, p: f64) -> f64 {
    let flushes = rec.durations_ms("serve.flush");
    if flushes.is_empty() {
        0.0
    } else {
        util::percentile(&flushes, p)
    }
}

/// Every per-layer metric of one traced pass. `overhead_ms` is the traced
/// pass's wall time minus the untraced pass's.
pub fn from_trace(rec: &Recorder, overhead_ms: f64) -> BTreeMap<&'static str, f64> {
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let value = if let Some(pairing) = name.strip_prefix("matching.us_per_task.") {
                ratio(
                    rec.total_ms(&format!("matching.assign.{pairing}")) * 1e3,
                    rec.counter(&format!("matching.tasks.{pairing}")),
                )
            } else {
                match name {
                    "serve.flush_ms.p50" => flush_percentile(rec, 50.0),
                    "serve.flush_ms.p99" => flush_percentile(rec, 99.0),
                    "oracle.solves_per_instance.static" => ratio(
                        rec.counter("offline.solves"),
                        rec.counter("offline.instances"),
                    ),
                    "oracle.solves_per_instance.dynamic" => ratio(
                        rec.counter("clairvoyant.solves"),
                        rec.counter("clairvoyant.instances"),
                    ),
                    "sweep.ratio_mean" => ratio(
                        rec.counter("sweep.ratio_sum"),
                        rec.counter("sweep.ratio_cells"),
                    ),
                    "trace.overhead_ms" => overhead_ms,
                    "trace.spans" => rec.span_count() as f64,
                    "merge.ms" => rec.total_ms("merge"),
                    _ if name.contains("_ms") && rec.counter(name) == 0.0 => {
                        rec.total_ms(&name.replacen("_ms", "", 1))
                    }
                    _ => rec.counter(name),
                }
            };
            (name, value)
        })
        .collect()
}

/// One traced pass: its recorder, the untraced and the traced wall time
/// in milliseconds, and the problems its checks found.
pub type TracedPass = (Recorder, f64, f64, Vec<String>);

/// Repeats `pass` for the run's seconds, counting `ops` operations per
/// pass, and reduces the passes to per-metric medians. Writes the last
/// pass's spans next to the build and notes the self time of each span
/// name.
pub fn run(
    opts: &Opts,
    ops: u64,
    out: &mut Outcome,
    mut pass: impl FnMut() -> TracedPass,
) -> Metrics {
    let mut samples = Vec::new();
    let mut last = None;
    util::repeat_for(opts.seconds, |i| {
        let (rec, untraced_ms, traced_ms, problems) = pass();
        out.tally(&format!("traced pass {i}"), ops, &problems);
        samples.push(from_trace(&rec, traced_ms - untraced_ms));
        last = Some(rec);
    });
    if let Some(rec) = &last {
        let path = opts
            .work_dir
            .join(format!("trace-{}-seed{}.json", opts.workload, opts.seed));
        match rec.write(&path) {
            Ok(()) => out
                .notes
                .push(format!("trace written to {}", path.display())),
            Err(e) => out.notes.push(format!("trace not written: {e}")),
        }
        for (name, ms) in rec.self_ms() {
            out.notes.push(format!("self time {name}: {ms:.3} ms"));
        }
    }
    out.notes.push(format!(
        "{} traced passes; per-layer values are medians",
        samples.len()
    ));
    let mut m = Metrics::default();
    for &(name, unit) in PER_LAYER {
        let values: Vec<f64> = samples.iter().map(|s| s[name]).collect();
        m.set(name, util::median(&values), unit);
    }
    m
}
