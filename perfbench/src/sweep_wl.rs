//! `ratio-sweep`: a static ratio sweep and a dynamic `--ratio` sweep, each
//! computed as two checkpointed partitions and merged.
//!
//! A pass runs both sweeps on [`INPUT_SETS`] input sets, each from its
//! own seed derived from `--seed`: the oracles' solve times differ up to
//! threefold between inputs of one size, so one input set per pass would
//! make the figures depend on which inputs a seed draws.
//!
//! Set-up is the instance, timeline and server generation of every
//! distinct sweep input, timed on its own (each cell repeats it). The unit
//! of work is one cell; the latency sample is one cell's wall time,
//! averaged over the input sets. Every time is in reference time (see
//! `speed`), scaled by the probe readings around the partition call that
//! measured it.

use crate::speed::Probe;
use crate::trace::Recorder;
use crate::util::{self, Metrics, Outcome};
use crate::{clock, layers, untraced_seconds, Opts};
use pombm::ratio::{offline_optimum_with_threads, RatioStats};
use pombm::sweep::DynamicSweepCell;
use pombm::{
    dynamic_offline_optimum, merge_dynamic, merge_static, registry, run_dynamic_spec,
    run_dynamic_sweep_partition, run_sweep_partition, DynamicConfig, DynamicSweepConfig,
    DynamicSweepReport, PartitionPlan, PartitionRun, PipelineConfig, Role, Server, SweepConfig,
    SweepReport,
};
use pombm_geom::seeded_rng;
use std::path::Path;

/// Partitions each sweep is cut into.
const PARTITIONS: usize = 2;
/// Predefined-point grid side of both sweeps.
const GRID_SIDE: usize = 16;
/// The mixing constant the sweeps derive per-job seeds with.
const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;
/// Input sets per pass.
const INPUT_SETS: u64 = 10;

/// The seeds of a run's input sets: distinct for distinct `--seed`s.
fn input_seeds(opts: &Opts) -> Vec<u64> {
    let sets = if opts.smoke { 2 } else { INPUT_SETS };
    (0..sets)
        .map(|j| opts.seed.wrapping_mul(INPUT_SETS).wrapping_add(j))
        .collect()
}

fn static_config(opts: &Opts, seed: u64) -> SweepConfig {
    SweepConfig {
        mechanisms: vec!["hst".into(), "laplace".into(), "exp".into()],
        matchers: vec!["hst-greedy".into(), "kd-greedy".into()],
        sizes: if opts.smoke {
            vec![64, 96]
        } else {
            vec![320, 448, 576, 704]
        },
        repetitions: 1,
        shards: 1,
        timings: true,
        // The library defaults, on a 16 × 16 grid: the CLI `sweep`
        // default of 32 makes the per-repetition HST build outweigh the
        // oracle at these sizes.
        base: PipelineConfig {
            grid_side: GRID_SIDE,
            seed,
            threads: 1,
            ..PipelineConfig::default()
        },
        ..SweepConfig::default()
    }
}

fn dynamic_config(opts: &Opts, seed: u64) -> DynamicSweepConfig {
    DynamicSweepConfig {
        mechanisms: vec!["hst".into()],
        // `dynamic-opt` adds the oracle's own row, which must read 1.0.
        matchers: vec![
            "hst-greedy".into(),
            "kd-rebuild".into(),
            "random".into(),
            "dynamic-opt".into(),
        ],
        shift_plans: vec!["short".into(), "long".into()],
        sizes: if opts.smoke {
            vec![80, 100]
        } else {
            vec![400, 700]
        },
        shards: 1,
        timings: true,
        ratio: true,
        grid_side: GRID_SIDE,
        seed,
        ..DynamicSweepConfig::default()
    }
}

/// What one pass produces: both merged reports, each cell's time, and
/// the pass's time outside its cells (partition set-up, checkpoint
/// appends and the merge).
struct Swept {
    static_report: SweepReport,
    dynamic_report: DynamicSweepReport,
    cell_ms: Vec<f64>,
    cell_names: Vec<String>,
    plumbing_ms: f64,
}

/// Runs `call` and returns its value, its wall time in ms and the factor
/// from the probe readings around it that converts that to reference time
/// (1 without a probe).
fn timed<T>(probe: &mut Option<&mut Probe>, call: impl FnOnce() -> T) -> (T, f64, f64) {
    let start = clock::now();
    let value = call();
    let wall_ms = clock::ms_between(start, clock::now());
    (value, wall_ms, probe.as_mut().map_or(1.0, |p| p.scale()))
}

/// Appends a partition call's cell times, scaled, to `cell_ms` and
/// returns the scaled time of the call outside its cells.
fn split_cells(wall_ms: f64, scale: f64, cells_ms: &[f64], cell_ms: &mut Vec<f64>) -> f64 {
    cell_ms.extend(cells_ms.iter().map(|ms| ms * scale));
    (wall_ms - cells_ms.iter().sum::<f64>()) * scale
}

/// Computes both sweeps partition by partition, checkpointing into
/// `dir`, and merges them. Spans go to `rec`. With a probe, every time is
/// in reference time; the probe allocates nothing, so it leaves the heap
/// figures alone.
fn sweep(
    rec: &mut Recorder,
    mut probe: Option<&mut Probe>,
    scfg: &SweepConfig,
    dcfg: &DynamicSweepConfig,
    dir: &Path,
) -> Result<Swept, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut partials = Vec::new();
    let mut dpartials = Vec::new();
    let mut cell_ms = Vec::new();
    let mut cell_names = Vec::new();
    let mut plumbing_ms = 0.0;
    if let Some(p) = probe.as_mut() {
        p.mark();
    }
    for index in 1..=PARTITIONS {
        let run = PartitionRun {
            plan: PartitionPlan::new(index, PARTITIONS).map_err(|e| e.to_string())?,
            checkpoint: Some(dir.to_path_buf()),
            max_cells: None,
        };
        let (partial, ms, scale) = timed(&mut probe, || {
            rec.time("sweep.partition", || run_sweep_partition(scfg, &run))
        });
        let (partial, _) = partial.map_err(|e| e.to_string())?;
        let cells: Vec<f64> = partial.cells.iter().filter_map(|c| c.wall_ms).collect();
        plumbing_ms += split_cells(ms, scale, &cells, &mut cell_ms);
        for c in &partial.cells {
            cell_names.push(format!("{}+{} n={}", c.mechanism, c.matcher, c.num_tasks));
        }
        let (dpartial, ms, scale) = timed(&mut probe, || {
            rec.time("sweep.partition", || {
                run_dynamic_sweep_partition(dcfg, &run)
            })
        });
        let (dpartial, _) = dpartial.map_err(|e| e.to_string())?;
        let cells: Vec<f64> = dpartial.cells.iter().filter_map(|c| c.wall_ms).collect();
        plumbing_ms += split_cells(ms, scale, &cells, &mut cell_ms);
        for c in &dpartial.cells {
            cell_names.push(format!(
                "{}+{} {} n={}",
                c.mechanism, c.matcher, c.plan, c.num_tasks
            ));
        }
        partials.push(partial);
        dpartials.push(dpartial);
    }
    let ((static_report, dynamic_report), ms, scale) = timed(&mut probe, || {
        rec.time("merge", || {
            (merge_static(&partials), merge_dynamic(&dpartials))
        })
    });
    plumbing_ms += ms * scale;
    Ok(Swept {
        static_report: static_report.map_err(|e| e.to_string())?,
        dynamic_report: dynamic_report.map_err(|e| e.to_string())?,
        cell_ms,
        cell_names,
        plumbing_ms,
    })
}

fn is_oracle(cell: &DynamicSweepCell) -> bool {
    registry().dynamic_matcher_catalog().role_of(&cell.matcher) == Some(Role::OracleOnly)
}

/// The merged reports' problems: failed cells, static ratios below 1,
/// oracle rows that are not exactly 1, and dynamic rows that beat the
/// oracle.
///
/// The clairvoyant optimum is the cheapest of the *largest* matchings. An
/// online matcher cannot assign more tasks than it; when it assigns as
/// many, its ratio cannot be below 1. When it drops more tasks, it may
/// travel less than the optimum, so its ratio has no lower bound.
fn check(s: &Swept) -> Vec<String> {
    let mut problems = Vec::new();
    for c in &s.static_report.cells {
        let name = format!("{}+{} n={}", c.mechanism, c.matcher, c.num_tasks);
        match (&c.report, &c.error) {
            (Some(r), None) if r.min_ratio >= 1.0 => {}
            (Some(r), None) => problems.push(format!("{name}: ratio {} < 1", r.min_ratio)),
            (_, e) => problems.push(format!("{name}: failed: {e:?}")),
        }
    }
    // The oracle's assigned count for each (mechanism, plan, size, ε).
    let key = |c: &DynamicSweepCell| {
        (
            c.mechanism.clone(),
            c.plan.clone(),
            c.num_tasks,
            c.epsilon.to_bits(),
        )
    };
    let optimum: std::collections::BTreeMap<_, usize> = s
        .dynamic_report
        .cells
        .iter()
        .filter(|c| is_oracle(c))
        .filter_map(|c| Some((key(c), c.measurement.as_ref()?.assigned)))
        .collect();
    for c in &s.dynamic_report.cells {
        let name = format!("{}+{} {} n={}", c.mechanism, c.matcher, c.plan, c.num_tasks);
        let (Some(r), None, Some(m)) = (c.competitive_ratio, &c.error, &c.measurement) else {
            problems.push(format!("{name}: failed: {:?}", c.error));
            continue;
        };
        let Some(&opt_assigned) = optimum.get(&key(c)) else {
            problems.push(format!("{name}: no oracle row to compare with"));
            continue;
        };
        if is_oracle(c) {
            if r != 1.0 {
                problems.push(format!("{name}: oracle row reads {r}, not 1"));
            }
        } else if m.assigned > opt_assigned {
            problems.push(format!(
                "{name}: assigned {} tasks, more than the optimum's {opt_assigned}",
                m.assigned
            ));
        } else if m.assigned == opt_assigned && r < 1.0 {
            problems.push(format!(
                "{name}: ratio {r} < 1 at the optimum's cardinality"
            ));
        }
    }
    problems
}

/// Summed true travel distance of every matching the sweep computed: each
/// repetition's online matching, each static optimum, and each dynamic
/// cell's matching (the oracle row is the clairvoyant optimum).
fn total_distance(s: &Swept) -> f64 {
    let statics: f64 = s
        .static_report
        .measured()
        .map(|(_, r)| r.distances.iter().sum::<f64>() + r.opt_distance)
        .sum();
    let dynamics: f64 = s
        .dynamic_report
        .measured()
        .map(|(_, m)| m.total_distance)
        .sum();
    statics + dynamics
}

fn report_fingerprint(s: &Swept) -> String {
    let json = format!(
        "{}\n{}",
        serde_json::to_string(&s.static_report).expect("reports serialize"),
        serde_json::to_string(&s.dynamic_report).expect("reports serialize")
    );
    util::fnv_hex(json.as_bytes())
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let configs: Vec<(SweepConfig, DynamicSweepConfig)> = input_seeds(opts)
        .into_iter()
        .map(|seed| (static_config(opts, seed), dynamic_config(opts, seed)))
        .collect();
    let scenario = registry()
        .require_scenario("uniform")
        .expect("uniform is registered");
    let mut probe = Probe::new();
    let (setup_s, _) = util::median_setup(&mut probe, 9, || {
        let mut statics = Vec::new();
        let mut dynamics = Vec::new();
        for (scfg, dcfg) in &configs {
            let seed = scfg.base.seed;
            for &n in &scfg.sizes {
                let instance = scenario.instance(seed, n);
                let server = Server::new(instance.region, scfg.base.grid_side, seed);
                statics.push((instance, server));
            }
            for &n in &dcfg.sizes {
                let plans: Vec<_> = dcfg
                    .shift_plans
                    .iter()
                    .map(|kind| scenario.shift_plan(kind, n, seed))
                    .collect();
                let instance = scenario.instance(seed, n);
                let server = Server::new(instance.region, dcfg.grid_side, seed ^ 0xD1CE);
                dynamics.push((instance, scenario.task_times(seed, n), plans, server));
            }
        }
        (statics, dynamics)
    });
    let dir = opts.work_dir.join(format!("ckpt-{}", std::process::id()));

    let mut out = Outcome::default();
    let mut cell_ms: Vec<Vec<f64>> = Vec::new();
    let mut cell_names = Vec::new();
    let mut plumbing_ms = Vec::new();
    let mut peaks_mb = Vec::new();
    let mut distance = 0.0;
    let mut reference: Option<String> = None;
    let (scfg, dcfg) = &configs[0];
    let cells = pombm::sweep::sweep_job_count(scfg).unwrap_or(0)
        + pombm::sweep::dynamic_sweep_job_count(dcfg).unwrap_or(0);
    let sets = configs.len();
    let ops = (cells * sets) as u64;
    let passes = util::repeat_for(untraced_seconds(opts), |pass| {
        let mut rec = Recorder::new();
        let (swept, peak) = pombm_bench::alloc::measure_peak(|| {
            configs
                .iter()
                .map(|(scfg, dcfg)| sweep(&mut rec, Some(&mut probe), scfg, dcfg, &dir))
                .collect::<Result<Vec<_>, _>>()
        });
        let problems = match &swept {
            Err(e) => vec![e.clone()],
            Ok(swept) => {
                let mut problems: Vec<String> = swept.iter().flat_map(check).collect();
                let timed_cells = swept[0].cell_ms.len();
                if swept.iter().any(|s| s.cell_ms.len() != timed_cells) {
                    problems.push("input sets report different cell counts".into());
                } else {
                    // Each cell's time and the plumbing, averaged over the sets.
                    let mean = |each: &dyn Fn(&Swept) -> f64| {
                        swept.iter().map(each).sum::<f64>() / sets as f64
                    };
                    plumbing_ms.push(mean(&|s| s.plumbing_ms));
                    cell_ms.resize(timed_cells, Vec::new());
                    cell_names.clone_from(&swept[0].cell_names);
                    for (c, samples) in cell_ms.iter_mut().enumerate() {
                        samples.push(mean(&|s| s.cell_ms[c]));
                    }
                }
                peaks_mb.push(peak as f64 / 1e6);
                distance = swept.iter().map(total_distance).sum();
                let fps: Vec<String> = swept.iter().map(report_fingerprint).collect();
                let fp = util::fnv_hex(fps.join(",").as_bytes());
                match &reference {
                    None => reference = Some(fp),
                    Some(first) if *first != fp => {
                        problems.push("merged reports differ from pass 0 on the same seed".into())
                    }
                    Some(_) => {}
                }
                problems
            }
        };
        out.tally(&format!("pass {pass}"), ops, &problems);
    });
    let _ = std::fs::remove_dir_all(&dir);
    let report_fp = reference.unwrap_or_default();
    out.notes.push(format!("report fingerprint: {report_fp}"));
    out.notes.push(format!(
        "{passes} passes of {sets} input sets; cell latency percentiles over the median time \
         of each of {} cells",
        cell_ms.len()
    ));
    crate::check_expected(opts, &report_fp, &mut out);

    if opts.trace {
        // The layer replay covers the first input set.
        out.metrics = layers::run(opts, cells as u64, &mut out, || {
            traced_pass(scfg, dcfg, &dir)
        });
        let _ = std::fs::remove_dir_all(&dir);
        return out;
    }
    let mut m = Metrics::default();
    m.set("setup_s", setup_s, "s");
    // The median time of each cell plus the median plumbing time make the
    // throughput's denominator.
    let medians = util::median_of_each(&cell_ms).filter(|m| !m.is_empty());
    if let (Some(med_ms), Some(plumbing)) = (medians, util::median_of_each(&[plumbing_ms])) {
        for (name, ms) in cell_names.iter().zip(&med_ms) {
            out.notes.push(format!("median cell {name}: {ms:.3} ms"));
        }
        out.notes
            .push(format!("median plumbing: {:.3} ms", plumbing[0]));
        let secs = (med_ms.iter().sum::<f64>() + plumbing[0]) / 1e3;
        m.set("throughput_per_s", med_ms.len() as f64 / secs, "1/s");
        m.set("latency_p50_ms", util::percentile(&med_ms, 50.0), "ms");
        // The cells' times cluster by size and matcher, so a single
        // percentile jumps between clusters from one seed to the next;
        // the mean of the slowest ten does not.
        m.set("latency_tail_ms", util::top_mean(&med_ms, 10), "ms");
        out.notes.push(format!(
            "latency tail: mean of the 10 slowest of {} cells",
            med_ms.len()
        ));
        m.set("peak_alloc_mb", util::median(&peaks_mb), "MB");
    }
    m.set("total_distance", distance, "dist");
    out.metrics = m;
    out
}

/// Re-measures every static cell layer by layer — the optimum, then each
/// repetition's server, obfuscation and assignment, as
/// `empirical_competitive_ratio` and `run_spec` sequence them — and
/// returns the problems where a ratio differs from the merged report's.
fn replay_static(rec: &mut Recorder, cfg: &SweepConfig, report: &SweepReport) -> Vec<String> {
    let scenario = registry()
        .require_scenario("uniform")
        .expect("uniform is registered");
    let mut problems = Vec::new();
    let mut job = 0u64;
    let mut expected = report.cells.iter();
    for mech in &cfg.mechanisms {
        for matcher in &cfg.matchers {
            for &size in &cfg.sizes {
                for &epsilon in &cfg.epsilons {
                    job += 1;
                    let Some(cell) = expected.next() else {
                        problems.push("the merged report has fewer cells".to_string());
                        return problems;
                    };
                    let spec = match registry().compose(mech, matcher) {
                        Ok(spec) => spec,
                        Err(e) => {
                            problems.push(e.to_string());
                            continue;
                        }
                    };
                    let config = PipelineConfig {
                        epsilon,
                        seed: cfg.base.seed.wrapping_add(job.wrapping_mul(SEED_MIX)),
                        ..cfg.base
                    };
                    let instance = rec.time("workload.generate", || {
                        scenario.instance(cfg.base.seed, size)
                    });
                    let opt = rec.time("offline.solve", || {
                        offline_optimum_with_threads(&instance, config.threads)
                    });
                    rec.count("offline.solves", 1.0);
                    let distances: Result<Vec<f64>, String> = (0..cfg.repetitions)
                        .map(|rep| {
                            let mut shuffled = instance.clone();
                            shuffled.shuffle_tasks(&mut seeded_rng(
                                config.seed.wrapping_add(rep),
                                0x5EED,
                            ));
                            // `run_spec` builds each repetition's server.
                            let server = spec.needs_server().then(|| {
                                rec.count("hst.builds", 1.0);
                                rec.time("hst.build", || {
                                    Server::new(
                                        shuffled.region,
                                        config.grid_side,
                                        config.seed ^ rep.wrapping_mul(0x9E37_79B9),
                                    )
                                })
                            });
                            crate::static_wl::replay_spec(
                                rec,
                                &spec,
                                &shuffled,
                                &config,
                                server.as_ref(),
                                rep,
                            )
                            .map(|m| m.total_distance(&shuffled.tasks, &shuffled.workers))
                            .map_err(|e| e.to_string())
                        })
                        .collect();
                    let ratio = match (opt, distances) {
                        (Ok(opt), Ok(d)) => RatioStats::collect(opt, d).ratio,
                        (Err(e), _) => {
                            problems.push(e.to_string());
                            continue;
                        }
                        (_, Err(e)) => {
                            problems.push(e);
                            continue;
                        }
                    };
                    rec.count("sweep.ratio_sum", ratio);
                    rec.count("sweep.ratio_cells", 1.0);
                    if cell.report.as_ref().map(|r| r.ratio) != Some(ratio) {
                        problems.push(format!(
                            "{} n={size}: layer replay ratio {ratio} != merged {:?}",
                            spec.name(),
                            cell.report.as_ref().map(|r| r.ratio)
                        ));
                    }
                }
            }
        }
    }
    rec.count("offline.instances", cfg.sizes.len() as f64);
    problems
}

/// Re-measures every dynamic cell — the clairvoyant optimum and, for the
/// online matchers, the event-sequential replay — and returns the
/// problems where a ratio differs from the merged report's.
fn replay_dynamic(
    rec: &mut Recorder,
    cfg: &DynamicSweepConfig,
    report: &DynamicSweepReport,
) -> Vec<String> {
    let scenario = registry()
        .require_scenario("uniform")
        .expect("uniform is registered");
    let mut problems = Vec::new();
    let mut job = 0u64;
    let mut expected = report.cells.iter();
    for mech in &cfg.mechanisms {
        let Ok(mechanism) = registry().require_mechanism(mech) else {
            problems.push(format!("unknown mechanism {mech}"));
            return problems;
        };
        for matcher in &cfg.matchers {
            let Ok(strategy) = registry().dynamic_matcher_any(matcher) else {
                problems.push(format!("unknown dynamic matcher {matcher}"));
                return problems;
            };
            for kind in &cfg.shift_plans {
                for &size in &cfg.sizes {
                    for &epsilon in &cfg.epsilons {
                        job += 1;
                        let Some(cell) = expected.next() else {
                            problems.push("the merged report has fewer cells".to_string());
                            return problems;
                        };
                        let (instance, times, plan) = rec.time("workload.generate", || {
                            (
                                scenario.instance(cfg.seed, size),
                                scenario.task_times(cfg.seed, size),
                                scenario.shift_plan(kind, size, cfg.seed),
                            )
                        });
                        let Ok(plan) = plan else {
                            problems.push(format!("unknown plan {kind}"));
                            continue;
                        };
                        let opt = rec.time("clairvoyant.solve", || {
                            dynamic_offline_optimum(&instance, &times, &plan)
                        });
                        rec.count("clairvoyant.solves", 1.0);
                        let Ok(opt) = opt else {
                            problems.push(format!("{matcher} {kind}: oracle failed"));
                            continue;
                        };
                        let numerator = if registry().dynamic_matcher_catalog().role_of(matcher)
                            == Some(Role::OracleOnly)
                        {
                            opt.total_cost
                        } else {
                            let config = DynamicConfig {
                                epsilon,
                                grid_side: cfg.grid_side,
                                seed: cfg.seed.wrapping_add(job.wrapping_mul(SEED_MIX)),
                            };
                            let outcome = rec.time(format!("dynamic.replay.{matcher}"), || {
                                run_dynamic_spec(
                                    &instance,
                                    &times,
                                    &plan,
                                    &config,
                                    mechanism.as_ref(),
                                    strategy.as_ref(),
                                )
                            });
                            match outcome {
                                Ok(o) => o.total_distance,
                                Err(e) => {
                                    problems.push(e.to_string());
                                    continue;
                                }
                            }
                        };
                        let ratio = numerator / opt.total_cost;
                        rec.count("sweep.ratio_sum", ratio);
                        rec.count("sweep.ratio_cells", 1.0);
                        if cell.competitive_ratio != Some(ratio) {
                            problems.push(format!(
                                "{mech}+{matcher} {kind}: layer replay ratio {ratio} != merged {:?}",
                                cell.competitive_ratio
                            ));
                        }
                    }
                }
            }
        }
    }
    rec.count(
        "clairvoyant.instances",
        (cfg.shift_plans.len() * cfg.sizes.len()) as f64,
    );
    problems
}

/// Bytes of every file directly inside `dir`.
fn dir_bytes(dir: &Path) -> f64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len() as f64)
                .sum()
        })
        .unwrap_or(0.0)
}

/// One traced pass: the partitioned sweeps and merge under spans, a
/// resume of the first partition from its checkpoint, then the layer
/// replay of every cell, which must reproduce the merged ratios.
fn traced_pass(scfg: &SweepConfig, dcfg: &DynamicSweepConfig, dir: &Path) -> layers::TracedPass {
    let mut rec = Recorder::new();
    let start = clock::now();
    let swept = sweep(&mut rec, None, scfg, dcfg, dir);
    let untraced_ms = clock::ms_between(start, clock::now());
    let swept = match swept {
        Ok(s) => s,
        Err(e) => return (rec, untraced_ms, untraced_ms, vec![e]),
    };
    rec.count("checkpoint.bytes", dir_bytes(dir));
    let mut problems = Vec::new();
    let first = PartitionRun {
        plan: PartitionPlan::new(1, PARTITIONS).expect("1 of 2 is a partition"),
        checkpoint: Some(dir.to_path_buf()),
        max_cells: None,
    };
    let resumed = rec.time("checkpoint.resume", || {
        (
            run_sweep_partition(scfg, &first),
            run_dynamic_sweep_partition(dcfg, &first),
        )
    });
    match resumed {
        (Ok((_, s)), Ok((_, d))) if s.computed + d.computed == 0 => {}
        (Ok((_, s)), Ok((_, d))) => problems.push(format!(
            "resume recomputed {} cells",
            s.computed + d.computed
        )),
        (Err(e), _) | (_, Err(e)) => problems.push(e.to_string()),
    }
    let start = clock::now();
    let span = rec.open("sweep.replay");
    problems.extend(replay_static(&mut rec, scfg, &swept.static_report));
    problems.extend(replay_dynamic(&mut rec, dcfg, &swept.dynamic_report));
    rec.close(span);
    let traced_ms = clock::ms_between(start, clock::now());
    (rec, untraced_ms, traced_ms, problems)
}
