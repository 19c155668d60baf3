//! `serve-1m`: one unpaced `run_serve` session of the `short` shift plan,
//! `hst` × `hst-greedy`, with more tasks than workers.
//!
//! Set-up is the session's workload generation plus its server, timed on
//! their own (the session repeats both inside `run_serve`). The unit of
//! work is one frame; the latency sample is a task's ingest-to-drain time
//! as the session reports it with `timings` on. Every time is in reference
//! time (see `speed`), scaled by the probe readings around its session.

use crate::speed::Probe;
use crate::trace::Recorder;
use crate::util::{self, Metrics, Outcome};
use crate::{clock, layers, untraced_seconds, Opts};
use bytes::Bytes;
use pombm::algorithm::{DynamicWorkerPool, Report, ReportMechanism};
use pombm::serve::assignment_fingerprint;
use pombm::{registry, run_serve, ServeConfig, ServeRequest, Server};
use pombm_geom::{seeded_rng, Point};
use pombm_privacy::Epsilon;
use pombm_workload::shifts::ShiftPlan;
use pombm_workload::Instance;
use rand::rngs::StdRng;
use std::collections::{BTreeMap, BTreeSet};

fn config(opts: &Opts) -> ServeConfig {
    let (num_tasks, num_workers) = if opts.smoke {
        (5_000, 4_000)
    } else {
        (1_000_000, 800_000)
    };
    ServeConfig {
        num_tasks,
        num_workers,
        plan: "short".into(),
        mechanism: "hst".into(),
        matcher: "hst-greedy".into(),
        grid_side: 32,
        epsilon: 0.6,
        seed: opts.seed,
        batch_interval: 5.0,
        qps: 0.0,
        threads: 1,
        timings: true,
        ..ServeConfig::default()
    }
}

/// The session's inputs, derived exactly as `run_serve` derives them.
fn workload(cfg: &ServeConfig) -> (Instance, Vec<f64>, ShiftPlan) {
    let scenario = registry()
        .require_scenario("uniform")
        .expect("uniform is registered");
    let instance = scenario.timeline_instance(cfg.seed, cfg.num_tasks, cfg.num_workers);
    let times = scenario.task_times(cfg.seed, cfg.num_tasks);
    let plan = scenario
        .shift_plan(&cfg.plan, cfg.num_workers, cfg.seed)
        .expect("short is a known plan");
    (instance, times, plan)
}

/// The report without its wall-clock block, fingerprinted.
fn report_fingerprint(report: &pombm::ServeReport) -> String {
    let mut report = report.clone();
    report.latency = None;
    let json = serde_json::to_string(&report).expect("reports serialize");
    util::fnv_hex(json.as_bytes())
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let cfg = config(opts);
    let mut probe = Probe::new();
    let (setup_s, _) = util::median_setup(&mut probe, 9, || {
        let (instance, times, plan) = workload(&cfg);
        let server = Server::new(instance.region, cfg.grid_side, cfg.seed ^ 0xD1CE);
        (instance, times, plan, server)
    });
    // Every shift contributes a check-in and a check-out frame.
    let frames = (2 * cfg.num_workers + cfg.num_tasks) as u64;

    let mut out = Outcome::default();
    let mut rates = Vec::new();
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    let mut peaks_mb = Vec::new();
    let mut total_distance = 0.0;
    let mut reference: Option<(String, String)> = None;
    let passes = util::repeat_for(untraced_seconds(opts), |pass| {
        probe.mark();
        let ((result, secs), peak) = pombm_bench::alloc::measure_peak(|| {
            let start = clock::now();
            let result = run_serve(&cfg);
            (result, clock::secs_since(start))
        });
        let scale = probe.scale();
        let problems = match &result {
            Err(e) => vec![e.to_string()],
            Ok(outcome) => {
                let r = &outcome.report;
                rates.push(r.requests as f64 / (secs * scale));
                peaks_mb.push(peak as f64 / 1e6);
                if let Some(lat) = &r.latency {
                    p50s.push(lat.p50_ms * scale);
                    p99s.push(lat.p99_ms * scale);
                }
                total_distance = r.total_distance;
                let fps = (r.assignment_fingerprint.clone(), report_fingerprint(r));
                let mut problems = Vec::new();
                if r.faults.is_some() {
                    problems.push("the report carries a faults block".to_string());
                }
                if r.assigned + r.dropped != cfg.num_tasks {
                    problems.push(format!(
                        "assigned {} + dropped {} != submitted {}",
                        r.assigned, r.dropped, cfg.num_tasks
                    ));
                }
                if r.requests as u64 != frames {
                    problems.push(format!("ingested {} of {frames} frames", r.requests));
                }
                if r.latency.is_none() {
                    problems.push("no latency block with timings on".to_string());
                }
                match &reference {
                    None => reference = Some(fps),
                    Some(first) if *first != fps => {
                        problems.push("fingerprints differ from pass 0 on the same seed".into())
                    }
                    Some(_) => {}
                }
                problems
            }
        };
        out.tally(&format!("pass {pass}"), frames, &problems);
    });
    let (assignment_fp, report_fp) = reference.unwrap_or_default();
    out.notes
        .push(format!("assignment fingerprint: {assignment_fp}"));
    out.notes.push(format!("report fingerprint: {report_fp}"));
    out.notes.push(format!(
        "{passes} sessions of {frames} frames; drain latency percentiles over {} tasks each",
        cfg.num_tasks
    ));
    crate::check_expected(opts, &assignment_fp, &mut out);

    if opts.trace {
        out.metrics = layers::run(opts, frames, &mut out, || traced_pass(&cfg, &assignment_fp));
        return out;
    }
    let mut m = Metrics::default();
    m.set("setup_s", setup_s, "s");
    // The median session for each figure.
    if let Some(med) = util::median_of_each(&[rates, p50s, p99s]) {
        m.set("throughput_per_s", med[0], "1/s");
        m.set("latency_p50_ms", med[1], "ms");
        // p99 of a million drain samples: 10⁴ beyond it.
        m.set("latency_tail_ms", med[2], "ms");
    }
    if !peaks_mb.is_empty() {
        m.set("peak_alloc_mb", util::median(&peaks_mb), "MB");
    }
    m.set("total_distance", total_distance, "dist");
    out.metrics = m;
    out
}

/// The session's frame script: the shift/task timeline in the order the
/// load generator sends it (time, then check-in < check-out < task, then
/// id), encoded.
fn frame_script(
    rec: &mut Recorder,
    instance: &Instance,
    times: &[f64],
    plan: &ShiftPlan,
) -> Vec<Bytes> {
    let mut events: Vec<(f64, u8, usize)> = rec.time("serve.timeline", || {
        let mut events = Vec::with_capacity(2 * plan.shifts.len() + times.len());
        for s in &plan.shifts {
            events.push((s.start, 0, s.worker));
            events.push((s.end, 1, s.worker));
        }
        events.extend(times.iter().enumerate().map(|(t, &at)| (at, 2, t)));
        events
    });
    rec.time("serve.timeline", || {
        events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite timestamps")
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
        })
    });
    let frames: Vec<Bytes> = rec.time("codec.encode", || {
        events
            .iter()
            .map(|&(at, class, id)| {
                match class {
                    0 => ServeRequest::CheckIn {
                        worker: id as u64,
                        at,
                        x: instance.workers[id].x,
                        y: instance.workers[id].y,
                    },
                    1 => ServeRequest::CheckOut {
                        worker: id as u64,
                        at,
                    },
                    _ => ServeRequest::Task {
                        task: id as u64,
                        at,
                        x: instance.tasks[id].x,
                        y: instance.tasks[id].y,
                    },
                }
                .encode()
            })
            .collect()
    });
    rec.count("codec.frames", frames.len() as f64);
    rec.count(
        "codec.bytes",
        frames.iter().map(|f| f.len() as f64).sum::<f64>(),
    );
    frames
}

/// `(task, Some(worker) | None)` in drain order, as a session reports it.
type Assignments = Vec<(u64, Option<u64>)>;

/// The session's window state, mirroring the serve engine's clean path
/// (no fault plan, no queue bound).
struct Window<'a> {
    mechanism: &'a dyn ReportMechanism,
    server: &'a Server,
    pool: Box<dyn DynamicWorkerPool + 'a>,
    epsilon: Epsilon,
    threads: usize,
    mech_rng: StdRng,
    tie_rng: StdRng,
    checkins: Vec<(u64, Point)>,
    checkouts: Vec<u64>,
    tasks: Vec<(u64, Point)>,
    worker_locations: BTreeMap<u64, Point>,
    assignments: Assignments,
    total_distance: f64,
}

impl Window<'_> {
    /// Drains the buffered window: check-ins, then check-outs, then tasks.
    fn flush(&mut self, rec: &mut Recorder) -> Result<(), pombm::PipelineError> {
        if self.checkins.is_empty() && self.checkouts.is_empty() && self.tasks.is_empty() {
            return Ok(());
        }
        rec.count("serve.windows", 1.0);
        let span = rec.open("serve.flush");
        let result = self.drain(rec);
        rec.close(span);
        result
    }

    fn drain(&mut self, rec: &mut Recorder) -> Result<(), pombm::PipelineError> {
        let mech = self.mechanism.name();
        if !self.checkins.is_empty() {
            let points: Vec<Point> = self.checkins.iter().map(|&(_, p)| p).collect();
            let reports = rec.time(format!("privacy.report_batch.{mech}"), || {
                self.mechanism.report_batch(
                    self.epsilon,
                    Some(self.server),
                    &points,
                    &mut self.mech_rng,
                    self.threads,
                )
            })?;
            rec.count(&format!("privacy.reports.{mech}"), points.len() as f64);
            let batch: Vec<(u64, Report)> = self
                .checkins
                .drain(..)
                .zip(reports)
                .map(|((id, _), report)| (id, report))
                .collect();
            rec.time("pool.insert_batch", || self.pool.insert_batch(batch))?;
        }
        if !self.checkouts.is_empty() {
            let checkouts = std::mem::take(&mut self.checkouts);
            rec.time("pool.withdraw", || {
                for id in checkouts {
                    let _ = self.pool.withdraw(id);
                }
            });
        }
        if !self.tasks.is_empty() {
            let points: Vec<Point> = self.tasks.iter().map(|&(_, p)| p).collect();
            let reports = rec.time(format!("privacy.report_batch.{mech}"), || {
                self.mechanism.report_batch(
                    self.epsilon,
                    Some(self.server),
                    &points,
                    &mut self.mech_rng,
                    self.threads,
                )
            })?;
            rec.count(&format!("privacy.reports.{mech}"), points.len() as f64);
            let slots = rec.time("pool.assign_batch", || {
                self.pool.assign_batch(reports, &mut self.tie_rng)
            })?;
            for ((task, location), slot) in self.tasks.drain(..).zip(slots) {
                self.assignments.push((task, slot));
                match slot {
                    Some(worker) => {
                        rec.count("pool.assigned", 1.0);
                        self.total_distance += location.dist(&self.worker_locations[&worker]);
                    }
                    None => rec.count("pool.dropped", 1.0),
                }
            }
        }
        Ok(())
    }
}

/// Drives the frame script through decode → Δt windows → obfuscation →
/// pool, returning the assignment sequence and its travel distance.
fn replay(
    rec: &mut Recorder,
    cfg: &ServeConfig,
    frames: Vec<Bytes>,
    server: &Server,
) -> Result<(Assignments, f64), pombm::PipelineError> {
    let mechanism = registry().require_mechanism(&cfg.mechanism)?;
    let matcher = registry().require_dynamic_matcher(&cfg.matcher)?;
    let mut w = Window {
        mechanism: mechanism.as_ref(),
        server,
        pool: matcher.pool(Some(server))?,
        epsilon: Epsilon::new(cfg.epsilon),
        threads: cfg.threads,
        mech_rng: seeded_rng(cfg.seed, 0xD1CE_0001),
        tie_rng: seeded_rng(cfg.seed, 0xD1CE_0002),
        checkins: Vec::new(),
        checkouts: Vec::new(),
        tasks: Vec::new(),
        worker_locations: BTreeMap::new(),
        assignments: Vec::new(),
        total_distance: 0.0,
    };
    let mut seen_workers = BTreeSet::new();
    let mut seen_tasks = BTreeSet::new();
    let mut window = None;
    let mut decode_ms = 0.0;
    for mut frame in frames {
        let start = clock::now();
        let request = ServeRequest::decode(&mut frame);
        decode_ms += clock::ms_between(start, clock::now());
        let (at, request) = match request? {
            ServeRequest::Shutdown => break,
            r @ (ServeRequest::CheckIn { at, .. }
            | ServeRequest::CheckOut { at, .. }
            | ServeRequest::Task { at, .. }) => (at, r),
        };
        let index = (at / cfg.batch_interval).floor() as u64;
        if window != Some(index) {
            w.flush(rec)?;
            window = Some(index);
        }
        match request {
            ServeRequest::CheckIn { worker, x, y, .. } if seen_workers.insert(worker) => {
                w.worker_locations.insert(worker, Point::new(x, y));
                w.checkins.push((worker, Point::new(x, y)));
            }
            ServeRequest::CheckOut { worker, .. } => w.checkouts.push(worker),
            ServeRequest::Task { task, x, y, .. } if seen_tasks.insert(task) => {
                w.tasks.push((task, Point::new(x, y)));
            }
            _ => {}
        }
    }
    w.flush(rec)?;
    rec.count("codec.decode_ms", decode_ms);
    Ok((w.assignments, w.total_distance))
}

/// One traced pass: the untraced session, then the layer replay of the
/// same seed, which must reproduce the session's assignment fingerprint.
fn traced_pass(cfg: &ServeConfig, expected: &str) -> layers::TracedPass {
    let start = clock::now();
    let session = run_serve(cfg);
    let untraced_ms = clock::ms_between(start, clock::now());
    drop(session);

    let mut rec = Recorder::new();
    let start = clock::now();
    let (instance, times, plan) = rec.time("workload.generate", || workload(cfg));
    let mut frames = frame_script(&mut rec, &instance, &times, &plan);
    frames.push(ServeRequest::Shutdown.encode());
    let server = rec.time("hst.build", || {
        Server::new(instance.region, cfg.grid_side, cfg.seed ^ 0xD1CE)
    });
    rec.count("hst.builds", 1.0);
    drop((times, plan));
    let span = rec.open("serve.session");
    let replayed = replay(&mut rec, cfg, frames, &server);
    rec.close(span);
    let traced_ms = clock::ms_between(start, clock::now());
    let problems = match replayed {
        Err(e) => vec![e.to_string()],
        Ok((assignments, _)) => {
            let fp = assignment_fingerprint(&assignments);
            if fp == expected {
                Vec::new()
            } else {
                vec![format!(
                    "layer replay fingerprint {fp} != session {expected}"
                )]
            }
        }
    };
    (rec, untraced_ms, traced_ms, problems)
}
