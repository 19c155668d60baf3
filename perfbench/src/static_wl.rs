//! `static-100k`: one uniform instance of `n` tasks × `n` workers, assigned
//! by three registered pairings through the static pipeline driver.
//!
//! Set-up is the instance generation plus the server's HST build. A pass
//! runs every pairing once against that prebuilt server; its unit of work
//! is one task, and one pairing's whole batch is the latency sample. Every
//! time is in reference time (see `speed`).

use crate::speed::Probe;
use crate::trace::Recorder;
use crate::util::{self, Metrics, Outcome};
use crate::{clock, layers, untraced_seconds, Opts};
use pombm::algorithm::{AssignCtx, ReportSet, Reports};
use pombm::serve::assignment_fingerprint;
use pombm::{registry, run_spec_with_server, AlgorithmSpec, PipelineConfig, PipelineError, Server};
use pombm_geom::seeded_rng;
use pombm_matching::{HstGreedyEngine, Matching};
use pombm_privacy::Epsilon;
use pombm_workload::Instance;

/// The compared pairings. `lap-gr` (an O(n) scan per task) and
/// `tbf-chain` are left out on purpose; see `perfbench/README.md`.
pub const PAIRINGS: [&str; 3] = ["tbf", "lap-kd", "exp-hg"];

/// The CLI `run` command's configuration, spelled out: the library's
/// `PipelineConfig::default()` is grid 32 with the linear-scan HST engine,
/// under which `tbf` alone takes minutes at n = 100k.
fn config(seed: u64, grid_side: usize) -> PipelineConfig {
    PipelineConfig {
        epsilon: 0.6,
        grid_side,
        engine: HstGreedyEngine::Indexed,
        euclid_cells: 32,
        capacity: 1,
        seed,
        threads: 1,
    }
}

/// The problems with one pairing's matching on an `n` × `n` instance.
fn check_matching(matching: &Matching, n: usize) -> Vec<String> {
    let mut problems = Vec::new();
    if !matching.is_valid() {
        problems.push("a task or worker appears twice".to_string());
    }
    if matching.size() != n {
        problems.push(format!("matched {} of {n} tasks", matching.size()));
    }
    if matching.pairs.iter().any(|&(t, w)| t >= n || w >= n) {
        problems.push("an index is out of range".to_string());
    }
    problems
}

fn fingerprint(matching: &Matching) -> String {
    let seq: Vec<(u64, Option<u64>)> = matching
        .pairs
        .iter()
        .map(|&(t, w)| (t as u64, Some(w as u64)))
        .collect();
    assignment_fingerprint(&seq)
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let (n, grid_side) = if opts.smoke {
        (2_000, 16)
    } else {
        (100_000, 64)
    };
    let config = config(opts.seed, grid_side);
    let scenario = registry()
        .require_scenario("uniform")
        .expect("uniform is registered");
    // `run_spec` seeds repetition 0's server with the config seed itself.
    let mut probe = Probe::new();
    let (setup_s, (instance, server)) = util::median_setup(&mut probe, 9, || {
        let instance = scenario.instance(opts.seed, n);
        let server = Server::new(instance.region, grid_side, config.seed);
        (instance, server)
    });

    let mut out = Outcome::default();
    let mut batch_ms: Vec<Vec<f64>> = vec![Vec::new(); PAIRINGS.len()];
    let mut peaks_mb = Vec::new();
    let mut total_distance = 0.0;
    let mut reference: Option<Vec<String>> = None;
    let passes = util::repeat_for(untraced_seconds(opts), |pass| {
        // The probe allocates nothing, so it leaves the peak alone.
        let (results, peak) = pombm_bench::alloc::measure_peak(|| {
            probe.mark();
            PAIRINGS.map(|name| {
                let spec = registry().spec(name).expect("pairing is registered");
                let server = spec.needs_server().then_some(&server);
                let result = run_spec_with_server(spec, &instance, &config, server, 0);
                (result, probe.scale())
            })
        });
        peaks_mb.push(peak as f64 / 1e6);
        let mut fingerprints = Vec::new();
        let mut pass_distance = 0.0;
        let mut problems = Vec::new();
        for ((name, (result, scale)), samples) in PAIRINGS.iter().zip(results).zip(&mut batch_ms) {
            match &result {
                Err(e) => problems.push(format!("{name}: {e}")),
                Ok(r) => {
                    let m = &r.metrics;
                    let wall_ms = (m.obfuscation_time + m.assign_time).as_secs_f64() * 1e3;
                    samples.push(wall_ms * scale);
                    pass_distance += m.total_distance;
                    fingerprints.push(fingerprint(&r.matching));
                    let bad = check_matching(&r.matching, n);
                    problems.extend(bad.into_iter().map(|p| format!("{name}: {p}")));
                }
            }
        }
        total_distance = pass_distance;
        match &reference {
            None => reference = Some(fingerprints),
            Some(first) if *first != fingerprints => {
                problems.push("assignments differ from pass 0 on the same seed".to_string())
            }
            Some(_) => {}
        }
        out.tally(
            &format!("pass {pass}"),
            (n * PAIRINGS.len()) as u64,
            &problems,
        );
    });
    let fingerprints = reference.unwrap_or_default();
    let run_fingerprint = util::fnv_hex(fingerprints.join(",").as_bytes());
    for (name, fp) in PAIRINGS.iter().zip(&fingerprints) {
        out.notes
            .push(format!("assignment fingerprint {name}: {fp}"));
    }
    out.notes
        .push(format!("run fingerprint: {run_fingerprint}"));
    out.notes.push(format!(
        "{passes} passes of {} pairing batches of {n} tasks",
        PAIRINGS.len()
    ));
    crate::check_expected(opts, &run_fingerprint, &mut out);

    if opts.trace {
        let ops = (n * PAIRINGS.len()) as u64;
        out.metrics = layers::run(opts, ops, &mut out, || {
            traced_pass(&instance, &config, &fingerprints)
        });
        return out;
    }
    let mut m = Metrics::default();
    m.set("setup_s", setup_s, "s");
    if let Some(batch_ms) = util::median_of_each(&batch_ms) {
        for (name, ms) in PAIRINGS.iter().zip(&batch_ms) {
            out.notes.push(format!("median batch {name}: {ms:.3} ms"));
        }
        let tasks = (n * PAIRINGS.len()) as f64;
        m.set(
            "throughput_per_s",
            tasks / (batch_ms.iter().sum::<f64>() / 1e3),
            "1/s",
        );
        m.set("latency_p50_ms", util::percentile(&batch_ms, 50.0), "ms");
        let (tail, at) = util::tail(&batch_ms);
        out.notes.push(format!(
            "latency tail: p{at:.1} of {} pairing batches",
            batch_ms.len()
        ));
        m.set("latency_tail_ms", tail, "ms");
    }
    m.set("peak_alloc_mb", util::median(&peaks_mb), "MB");
    m.set("total_distance", total_distance, "dist");
    out.metrics = m;
    out
}

/// One traced pass: the pipeline's two stages called layer by layer, as
/// `run_spec_with_server` calls them, checked against its matchings.
fn traced_pass(
    instance: &Instance,
    config: &PipelineConfig,
    expected: &[String],
) -> layers::TracedPass {
    // The untraced baseline: the same stages through the driver.
    let start = clock::now();
    let server = Server::new(instance.region, config.grid_side, config.seed);
    for name in PAIRINGS {
        let spec = registry().spec(name).expect("pairing is registered");
        let server = spec.needs_server().then_some(&server);
        let _ = std::hint::black_box(run_spec_with_server(spec, instance, config, server, 0));
    }
    let untraced_ms = clock::ms_between(start, clock::now());

    let mut rec = Recorder::new();
    let mut problems = Vec::new();
    let start = clock::now();
    let server = rec.time("hst.build", || {
        Server::new(instance.region, config.grid_side, config.seed)
    });
    rec.count("hst.builds", 1.0);
    for (name, expected) in PAIRINGS.iter().zip(expected) {
        let spec = registry().spec(name).expect("pairing is registered");
        let server = spec.needs_server().then_some(&server);
        match replay_spec(&mut rec, spec, instance, config, server, 0) {
            Ok(m) if fingerprint(&m) == *expected => {}
            Ok(_) => problems.push(format!("{name}: layer replay differs from the driver")),
            Err(e) => problems.push(format!("{name}: {e}")),
        }
    }
    let traced_ms = clock::ms_between(start, clock::now());
    (rec, untraced_ms, traced_ms, problems)
}

/// One `run_spec_with_server` repetition, stage by stage under spans:
/// obfuscation of workers then tasks in one batch, then assignment.
pub fn replay_spec(
    rec: &mut Recorder,
    spec: &AlgorithmSpec,
    instance: &Instance,
    config: &PipelineConfig,
    server: Option<&Server>,
    rep: u64,
) -> Result<Matching, PipelineError> {
    let mech = spec.mechanism.name();
    let mut mech_rng = seeded_rng(config.seed.wrapping_add(rep), 0x0BF5);
    let mut locations = instance.workers.clone();
    locations.extend_from_slice(&instance.tasks);
    let mut workers = rec.time(format!("privacy.report_batch.{mech}"), || {
        spec.mechanism.report_batch(
            Epsilon::new(config.epsilon),
            server,
            &locations,
            &mut mech_rng,
            config.threads,
        )
    })?;
    rec.count(&format!("privacy.reports.{mech}"), locations.len() as f64);
    let tasks = workers.split_off(instance.num_workers());
    let reports = ReportSet {
        workers: Reports::collect(workers, mech)?,
        tasks: Reports::collect(tasks, mech)?,
    };
    let mut tie_rng = seeded_rng(config.seed.wrapping_add(rep), 0x7A9D);
    let mut ctx = AssignCtx {
        instance,
        config,
        server,
        mech_rng: &mut mech_rng,
        tie_rng: &mut tie_rng,
    };
    let matching = rec.time(format!("matching.assign.{}", spec.name()), || {
        spec.matcher.assign(reports, &mut ctx)
    })?;
    rec.count(
        &format!("matching.tasks.{}", spec.name()),
        matching.size() as f64,
    );
    Ok(matching)
}
