//! In-memory spans and counters for the traced run.
//!
//! A span is opened and closed around one call into a program layer; its
//! parent is whichever span was open when it started. Nothing is written
//! until the run ends ([`Recorder::write`]), so the trace costs two clock
//! readings and one push per span while the workload runs.

use crate::clock;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: String,
    start: Instant,
    end: Option<Instant>,
    parent: Option<usize>,
}

/// Spans and named counters of one traced run.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<String, f64>,
}

/// Handle of an open span; close it with [`Recorder::close`].
#[must_use = "an open span must be closed"]
pub struct SpanId(usize);

impl Recorder {
    /// An empty recorder whose timestamps count from now.
    pub fn new() -> Self {
        Recorder {
            origin: clock::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: impl Into<String>) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start: clock::now(),
            end: None,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn close(&mut self, span: SpanId) {
        assert_eq!(self.open.pop(), Some(span.0), "spans close innermost first");
        self.spans[span.0].end = Some(clock::now());
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let span = self.open(name);
        let out = f();
        self.close(span);
        out
    }

    /// Adds `value` to the counter `name`.
    pub fn count(&mut self, name: &str, value: f64) {
        *self.counters.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// A counter's value (0 when never incremented).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Durations in milliseconds of every closed span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| Some(clock::ms_between(s.start, s.end?)))
            .collect()
    }

    /// Total milliseconds of every closed span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        // An empty float sum is -0.0; adding 0.0 prints it as 0.
        self.durations_ms(name).iter().sum::<f64>() + 0.0
    }

    /// Number of spans recorded.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name in milliseconds: each span's duration minus
    /// the part its direct children cover.
    pub fn self_ms(&self) -> BTreeMap<String, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let (Some(p), Some(end)) = (s.parent, s.end) {
                child_ms[p] += clock::ms_between(s.start, end);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(end) = s.end {
                *out.entry(s.name.clone()).or_insert(0.0) +=
                    clock::ms_between(s.start, end) - child_ms[i];
            }
        }
        out
    }

    /// Writes spans and counters as JSON: spans as
    /// `[name, start_us, end_us, parent]` rows relative to the recorder's
    /// creation, counters as a name → value object.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| (t - self.origin).as_secs_f64() * 1e6;
            let end = s.end.map_or(-1.0, us);
            let parent = s.parent.map_or(-1, |p| p as i64);
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n[{},{:.3},{:.3},{parent}]",
                json_string(&s.name),
                us(s.start),
                end
            );
        }
        out.push_str("\n],\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n{}:{value}", json_string(name));
        }
        out.push_str("\n}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

fn json_string(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("strings always serialize")
}
