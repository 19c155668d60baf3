//! Sharded, registry-wide competitive-ratio sweeps: one engine, two
//! flavours.
//!
//! Theorem 3's `O(ε⁻⁴ log N log² k)` bound is a statement about one
//! algorithm; the registry makes it cheap to ask the empirical question for
//! *every* pairing at once. A sweep takes a set of mechanisms and matchers
//! (defaulting to the full registry), a grid of instance sizes and privacy
//! budgets ε, and measures every cell of the product. It comes in two
//! flavours:
//!
//! * **static** ([`SweepConfig`]): each `mechanism × matcher × size × ε`
//!   cell holds the pairing's [`RatioReport`] (Definition 8's expectation,
//!   estimated by [`empirical_competitive_ratio`]) on a deterministic
//!   synthetic instance per size;
//! * **dynamic** ([`DynamicSweepConfig`]): each `mechanism ×
//!   dynamic-matcher × shift-plan × size × ε` cell replays one
//!   deterministic shift/task timeline through
//!   [`crate::dynamic::run_dynamic_spec`] and records a
//!   [`DynamicMeasurement`] (assignment rate, total distance, peak
//!   availability), optionally priced against the clairvoyant
//!   `dynamic-opt` oracle. Task times and shift plans derive from
//!   `(seed, size)` and `(seed, size, plan)` alone — identical across
//!   pairings — so cells differ only in what they measure.
//!
//! # One engine
//!
//! Both configurations implement [`SweepKind`], and everything else exists
//! once, generic over it: grid validation, the index-seeded job list, the
//! config [`fingerprint`], sharded execution with the `wall_ms` stamp, the
//! checkpoint log, partitioned runs ([`run`], [`run_partition`],
//! [`run_range`]) and the byte-exact [`crate::merge::merge`]. The engine
//! never asks which flavour it runs. What differs — the flavour's own axes,
//! how one job becomes a cell, and the metadata field its partials and
//! reports carry (`repetitions` or `horizon`) — lives in the two trait
//! impls. The flavour-named entry points ([`run_sweep`],
//! [`run_dynamic_sweep_partition`], ...) are one-line calls into it.
//!
//! # Sharding and determinism
//!
//! The job list — scenario × mechanism × the flavour's axes × size × ε —
//! is fanned out over `crossbeam` scoped threads, mirroring
//! [`pombm_privacy::batch`]: shard `s` takes the `s`-th contiguous chunk of
//! jobs and writes results through a `parking_lot`-protected output
//! vector, one lock acquisition per shard. Every job derives its RNG seeds
//! from its *position in the job list*, never from the shard that happens
//! to execute it, so sweep output is bit-identical for every shard count:
//! deterministic in the root seed alone.
//!
//! Static cells can additionally parallelize *within* themselves via
//! [`PipelineConfig::threads`] — the batched obfuscation of
//! [`crate::algorithm::ReportMechanism::report_batch`] and the blocked
//! Hungarian behind `offline-opt` and the OPT denominator — without
//! changing a single output byte. With `timings` on, the engine records
//! per-cell wall-clock into a `wall_ms` column that is entirely absent
//! (not `null`) from the JSON when off, keeping golden byte-compares
//! exact.
//!
//! Incompatible pairings (e.g. the `blind` mechanism with any
//! location-aware matcher) and degenerate measurements (empty instances,
//! zero-distance optima) do not abort the sweep: each cell records either
//! a measurement or the typed error's message, so a full-registry sweep
//! always completes.
//!
//! # Partitioned execution and checkpoints
//!
//! Because the job list is a pure function of the configuration, the same
//! invariance extends across *process* boundaries: a [`PartitionPlan`]
//! (`i/N`) names a contiguous slice of the job-index space, and
//! [`run_partition`] computes just that slice into a self-describing
//! partial ([`PartialSweepReport`] / [`DynamicPartialSweepReport`]) —
//! partition coordinates, the config [`fingerprint`], the covered index
//! range, and the cells. The [`crate::merge`] module validates a set of
//! partials (identical fingerprints, disjoint full coverage) and
//! reassembles them in job-index order into JSON byte-identical to a
//! single-process run, so scheduling partitions on different machines is
//! just transport.
//!
//! Partitioned runs can also checkpoint: with a checkpoint directory,
//! every completed cell is appended to a `<flavor>-<fingerprint>.jsonl`
//! log as it finishes, and a re-run (same flavour + fingerprint, any
//! partition spec) resumes from the surviving entries instead of
//! recomputing them. Resumed output is byte-identical to a fresh run
//! because cells are deterministic and the JSON encoding round-trips
//! `f64`s exactly.

use crate::algorithm::{AssignStrategy, DynamicAssignStrategy, PipelineError, ReportMechanism};
use crate::dynamic::{run_dynamic_spec, DynamicConfig, DynamicOutcome};
use crate::pipeline::PipelineConfig;
use crate::ratio::{dynamic_offline_optimum, empirical_competitive_ratio, RatioReport};
use crate::registry::{registry, AlgorithmSpec, Role, DEFAULT_DYNAMIC_ORACLE};
use crate::scenario::{Scenario, DEFAULT_SCENARIO};
use parking_lot::Mutex;
use pombm_geom::seeded_rng;
use pombm_matching::HstGreedyEngine;
use pombm_workload::shifts::ShiftPlan;
use pombm_workload::{synthetic, Instance, SyntheticParams};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// A sweep flavour: what the one engine needs to know about it.
///
/// [`SweepConfig`] and [`DynamicSweepConfig`] implement it. Grid
/// validation, the job list, the [`fingerprint`], sharded and checkpointed
/// execution, the `wall_ms` stamp and [`crate::merge::merge`] are written
/// once against this trait. An impl supplies only what differs between the
/// flavours: its own axes, how one job becomes a cell, and its partial and
/// report types with their metadata field. The partial and report types
/// stay plain serializable structs, so the trait reads and writes their
/// fields through the accessors below.
pub trait SweepKind: Sync {
    /// The flavour's own axes of one job, resolved: the matcher (static),
    /// or the dynamic matcher and its shift-plan kind. [`SweepJob`] adds
    /// the scenario, mechanism, grid point and seed.
    type Job: Clone + Sync;
    /// One measured cell of the product.
    type Cell: Clone + Send + Serialize + Deserialize;
    /// One partition's self-describing report.
    type Partial: Serialize + Deserialize;
    /// A completed sweep.
    type Report: Serialize;

    /// The tag partials carry in their `flavor` field; it also prefixes
    /// the checkpoint log's file name.
    const FLAVOR: &'static str;
    /// Name of the metadata field partials and reports carry
    /// (`repetitions` or `horizon`).
    const META: &'static str;

    /// The settings every flavour shares.
    fn grid(&self) -> Grid<'_>;

    /// Flavour-specific configuration checks, run after the shard check
    /// and before the size and ε checks.
    fn check(&self) -> Result<(), PipelineError> {
        Ok(())
    }

    /// The flavour's own axes resolved into job order, one entry per
    /// combination, plus each axis's resolved names as fingerprint parts.
    fn axes(&self) -> Result<(Vec<Self::Job>, Vec<String>), PipelineError>;

    /// The fingerprint parts after the size and ε grids: every other
    /// setting that shapes cell content.
    fn fingerprint_tail(&self) -> Vec<String>;

    /// Measures one job. The engine stamps the cell's `wall_ms`.
    fn run_job(&self, job: &SweepJob<Self::Job>) -> Self::Cell;

    /// A cell's `wall_ms` column.
    fn wall_ms(cell: &mut Self::Cell) -> &mut Option<f64>;

    /// The partial holding `head` and `cells` under this configuration's
    /// metadata.
    fn partial(&self, head: PartialHead, cells: Vec<Self::Cell>) -> Self::Partial;

    /// A partial's fields besides its metadata and cells.
    fn head(partial: &Self::Partial) -> PartialHead;

    /// A partial's cells.
    fn cells(partial: &Self::Partial) -> &[Self::Cell];

    /// A partial's cells, mutably.
    fn cells_mut(partial: &mut Self::Partial) -> &mut Vec<Self::Cell>;

    /// Whether two partials carry the same metadata field.
    fn same_meta(a: &Self::Partial, b: &Self::Partial) -> bool;

    /// The report holding `cells` under `partial`'s seed and metadata.
    fn report(partial: &Self::Partial, cells: Vec<Self::Cell>) -> Self::Report;
}

/// The settings every sweep flavour shares, borrowed from its
/// configuration.
pub struct Grid<'a> {
    /// Workload scenario names; empty means just the legacy `uniform`.
    pub scenarios: &'a [String],
    /// Mechanism names; empty means every registered mechanism.
    pub mechanisms: &'a [String],
    /// Instance sizes.
    pub sizes: &'a [usize],
    /// Privacy budgets ε.
    pub epsilons: &'a [f64],
    /// Worker threads the job list is fanned over.
    pub shards: usize,
    /// Whether the engine stamps each cell's `wall_ms`.
    pub timings: bool,
    /// Root seed: job seeds derive from it, and partials record it.
    pub seed: u64,
}

/// One unit of sweep work, fully determined before any thread runs.
pub struct SweepJob<J> {
    /// Workload scenario of the cell's instance.
    pub scenario: Arc<dyn Scenario>,
    /// Stage-1 mechanism.
    pub mechanism: Arc<dyn ReportMechanism>,
    /// The flavour's own axes ([`SweepKind::Job`]).
    pub axes: J,
    /// Tasks and workers in the cell's instance.
    pub size: usize,
    /// Privacy budget ε of the cell.
    pub epsilon: f64,
    /// Seed for this job's noise and shuffle streams; derived from the
    /// job's position in the job list, never from the executing shard.
    pub job_seed: u64,
}

/// The fields both partial report types carry, under the same names,
/// besides their metadata and cells.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialHead {
    /// [`SweepKind::FLAVOR`]; lets `pombm merge` sniff mixed inputs.
    pub flavor: String,
    /// [`fingerprint`] of the producing configuration.
    pub fingerprint: String,
    /// 1-based partition number, or `0` for a custom [`run_range`]
    /// slice.
    pub partition_index: usize,
    /// Total partitions, or `0` for a custom slice.
    pub partition_count: usize,
    /// Size of the full job-index space the partial was cut from.
    pub total_jobs: usize,
    /// First (global) job index the partial covers; it covers
    /// `start..start + cells.len()`.
    pub start: usize,
    /// Root seed of the producing configuration.
    pub seed: u64,
}

/// What to sweep: the pairing filter, the instance/ε grid, and the
/// execution parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Mechanism names to include; empty means every registered mechanism.
    pub mechanisms: Vec<String>,
    /// Matcher names to include; empty means every registered matcher.
    pub matchers: Vec<String>,
    /// Workload scenario names ([`crate::scenario`]) to sweep; empty means
    /// just the legacy `uniform` default (NOT every registered scenario —
    /// the pre-scenario grid shape must survive unchanged).
    pub scenarios: Vec<String>,
    /// Instance sizes: each entry generates one synthetic instance with
    /// `size` tasks and `size` workers (so `k = size` pairs are matched).
    pub sizes: Vec<usize>,
    /// Privacy budgets ε to sweep.
    pub epsilons: Vec<f64>,
    /// Shuffled-arrival repetitions per cell.
    pub repetitions: u64,
    /// Worker threads to fan the job list over. Results are bit-identical
    /// for every value ≥ 1; this only trades wall-clock for cores.
    pub shards: usize,
    /// Record per-cell wall-clock into [`SweepCell::wall_ms`]. Off by
    /// default: timings are inherently machine-dependent, so the golden
    /// JSON byte-compares and the shard/thread-invariance checks run with
    /// timings disabled (the column is then absent from the JSON, not
    /// `null`).
    pub timings: bool,
    /// Base pipeline configuration: `seed` roots every derived RNG stream,
    /// `epsilon` is overridden per cell by the ε grid, and `threads`
    /// parallelizes *within* a cell (batched obfuscation + the Hungarian
    /// `offline-opt`/OPT solves) without changing any output.
    pub base: PipelineConfig,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            mechanisms: Vec::new(),
            matchers: Vec::new(),
            scenarios: Vec::new(),
            sizes: vec![48],
            epsilons: vec![0.6],
            repetitions: 3,
            shards: 1,
            timings: false,
            base: PipelineConfig::default(),
        }
    }
}

/// One cell of the sweep product: exactly one of `report` / `error` is set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepCell {
    /// Workload scenario this cell's instance came from; absent — not
    /// `null` — for the legacy `uniform` default, so pre-scenario golden
    /// JSON byte-compares exactly and old reports still parse.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub scenario: Option<String>,
    /// Stage-1 mechanism name.
    pub mechanism: String,
    /// Stage-2 matcher name.
    pub matcher: String,
    /// Tasks in this cell's instance.
    pub num_tasks: usize,
    /// Workers in this cell's instance.
    pub num_workers: usize,
    /// Privacy budget ε of this cell.
    pub epsilon: f64,
    /// The measured ratio, when the pairing is measurable.
    pub report: Option<RatioReport>,
    /// The typed error's message, when it is not (incompatible reports,
    /// degenerate optimum, ...).
    pub error: Option<String>,
    /// Wall-clock of this cell's measurement in milliseconds; present only
    /// when the sweep ran with [`SweepConfig::timings`] (and absent — not
    /// `null` — from the JSON otherwise, keeping golden byte-compares
    /// exact).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub wall_ms: Option<f64>,
}

/// A completed sweep: the cell list in job order (mechanism-major, then
/// matcher, size, ε) plus the parameters needed to reproduce it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReport {
    /// Root seed every cell's RNG streams derive from.
    pub seed: u64,
    /// Repetitions per cell.
    pub repetitions: u64,
    /// All measured cells.
    pub cells: Vec<SweepCell>,
}

impl SweepReport {
    /// Cells that produced a measurement.
    pub fn measured(&self) -> impl Iterator<Item = (&SweepCell, &RatioReport)> {
        self.cells
            .iter()
            .filter_map(|c| Some((c, c.report.as_ref()?)))
    }

    /// Cells rejected with a typed error.
    pub fn failed(&self) -> impl Iterator<Item = &SweepCell> {
        self.cells.iter().filter(|c| c.error.is_some())
    }
}

/// The scenario a sweep cell should record: `None` for the `uniform`
/// default (keeping the column absent from legacy-shaped JSON), the name
/// otherwise.
fn cell_scenario(scenario: &dyn Scenario) -> Option<String> {
    (scenario.name() != DEFAULT_SCENARIO).then(|| scenario.name().to_string())
}

/// The workload scenarios a sweep runs: the explicit filter resolved
/// against the registry (case-insensitively, with a listing-rich error on
/// unknown names), or just the legacy `uniform` default when empty.
fn resolve_scenarios(names: &[String]) -> Result<Vec<Arc<dyn Scenario>>, PipelineError> {
    if names.is_empty() {
        let uniform = registry()
            .scenario(DEFAULT_SCENARIO)
            .expect("the uniform scenario is always registered");
        return Ok(vec![uniform]);
    }
    names
        .iter()
        .map(|n| registry().require_scenario(n))
        .collect()
}

/// The deterministic instance a sweep uses for `size`: `size` tasks and
/// `size` workers from the standard synthetic generator, seeded by
/// `(seed, size)` only.
pub fn sweep_instance(seed: u64, size: usize) -> Instance {
    let params = SyntheticParams {
        num_tasks: size,
        num_workers: size,
        ..SyntheticParams::default()
    };
    let stream = seed ^ (size as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    synthetic::generate(&params, &mut seeded_rng(stream, 0x51EE))
}

/// The mechanisms a sweep runs: the explicit filter resolved against the
/// registry (listing every registered name on an unknown one), or every
/// registered mechanism when empty.
fn resolve_mechanisms(names: &[String]) -> Result<Vec<Arc<dyn ReportMechanism>>, PipelineError> {
    if names.is_empty() {
        return Ok(registry().mechanisms().to_vec());
    }
    names
        .iter()
        .map(|n| registry().require_mechanism(n))
        .collect()
}

/// The static matchers a sweep runs, resolved like
/// [`resolve_mechanisms`].
fn resolve_matchers(names: &[String]) -> Result<Vec<Arc<dyn AssignStrategy>>, PipelineError> {
    if names.is_empty() {
        return Ok(registry().matchers().to_vec());
    }
    names
        .iter()
        .map(|n| registry().require_matcher(n))
        .collect()
}

impl SweepKind for SweepConfig {
    type Job = Arc<dyn AssignStrategy>;
    type Cell = SweepCell;
    type Partial = PartialSweepReport;
    type Report = SweepReport;

    const FLAVOR: &'static str = "static";
    const META: &'static str = "repetitions";

    fn grid(&self) -> Grid<'_> {
        Grid {
            scenarios: &self.scenarios,
            mechanisms: &self.mechanisms,
            sizes: &self.sizes,
            epsilons: &self.epsilons,
            shards: self.shards,
            timings: self.timings,
            seed: self.base.seed,
        }
    }

    fn check(&self) -> Result<(), PipelineError> {
        if self.repetitions == 0 {
            return Err(PipelineError::InvalidConfig {
                field: "repetitions",
                why: "the sweep needs at least one repetition per cell",
            });
        }
        Ok(())
    }

    fn axes(&self) -> Result<(Vec<Self::Job>, Vec<String>), PipelineError> {
        let matchers = resolve_matchers(&self.matchers)?;
        let names = vec![names(&matchers, |m| m.name())];
        Ok((matchers, names))
    }

    fn fingerprint_tail(&self) -> Vec<String> {
        let mut parts = vec![format!("reps={}", self.repetitions)];
        parts.extend(pipeline_fingerprint_parts(&self.base));
        parts
    }

    fn run_job(&self, job: &SweepJob<Self::Job>) -> SweepCell {
        let instance = job.scenario.instance(self.base.seed, job.size);
        let config = PipelineConfig {
            epsilon: job.epsilon,
            seed: job.job_seed,
            ..self.base
        };
        let spec = AlgorithmSpec::compose(job.mechanism.clone(), job.axes.clone());
        let (report, error) =
            match empirical_competitive_ratio(&spec, &instance, &config, self.repetitions) {
                Ok(r) => (Some(r), None),
                Err(e) => (None, Some(e.to_string())),
            };
        SweepCell {
            scenario: cell_scenario(job.scenario.as_ref()),
            mechanism: job.mechanism.name().to_string(),
            matcher: job.axes.name().to_string(),
            num_tasks: instance.num_tasks(),
            num_workers: instance.num_workers(),
            epsilon: job.epsilon,
            report,
            error,
            wall_ms: None,
        }
    }

    fn wall_ms(cell: &mut SweepCell) -> &mut Option<f64> {
        &mut cell.wall_ms
    }

    fn partial(&self, head: PartialHead, cells: Vec<SweepCell>) -> PartialSweepReport {
        PartialSweepReport {
            flavor: head.flavor,
            fingerprint: head.fingerprint,
            partition_index: head.partition_index,
            partition_count: head.partition_count,
            total_jobs: head.total_jobs,
            start: head.start,
            seed: head.seed,
            repetitions: self.repetitions,
            cells,
        }
    }

    fn head(partial: &PartialSweepReport) -> PartialHead {
        PartialHead {
            flavor: partial.flavor.clone(),
            fingerprint: partial.fingerprint.clone(),
            partition_index: partial.partition_index,
            partition_count: partial.partition_count,
            total_jobs: partial.total_jobs,
            start: partial.start,
            seed: partial.seed,
        }
    }

    fn cells(partial: &PartialSweepReport) -> &[SweepCell] {
        &partial.cells
    }

    fn cells_mut(partial: &mut PartialSweepReport) -> &mut Vec<SweepCell> {
        &mut partial.cells
    }

    fn same_meta(a: &PartialSweepReport, b: &PartialSweepReport) -> bool {
        a.repetitions == b.repetitions
    }

    fn report(partial: &PartialSweepReport, cells: Vec<SweepCell>) -> SweepReport {
        SweepReport {
            seed: partial.seed,
            repetitions: partial.repetitions,
            cells,
        }
    }
}

/// A configuration's job list and its fingerprint.
type JobList<J> = (Vec<SweepJob<J>>, String);

/// Validates the grid and expands it into the job list — scenario ×
/// mechanism × the flavour's axes × size × ε — each job seeded by its
/// index alone. Also returns the config fingerprint.
fn jobs<K: SweepKind>(config: &K) -> Result<JobList<K::Job>, PipelineError> {
    let grid = config.grid();
    if grid.shards == 0 {
        return Err(PipelineError::InvalidConfig {
            field: "shards",
            why: "the sweep needs at least one shard",
        });
    }
    config.check()?;
    if grid.sizes.is_empty() {
        return Err(PipelineError::InvalidConfig {
            field: "sizes",
            why: "the sweep needs at least one instance size",
        });
    }
    if grid.epsilons.is_empty() {
        return Err(PipelineError::InvalidConfig {
            field: "epsilons",
            why: "the sweep needs at least one privacy budget",
        });
    }
    let resolved = resolve(config)?;

    let mut jobs = Vec::new();
    // Scenario is the outermost axis: a single-scenario sweep enumerates
    // jobs in exactly the pre-scenario order, so every job index (and
    // therefore every job seed) is unchanged.
    for scenario in &resolved.scenarios {
        for mechanism in &resolved.mechanisms {
            for axes in &resolved.axes {
                for &size in grid.sizes {
                    for &epsilon in grid.epsilons {
                        // Per-job seed from the job index: independent of the
                        // shard that executes it, so shard count never changes
                        // any cell.
                        let job_seed = grid.seed.wrapping_add(
                            (jobs.len() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        );
                        jobs.push(SweepJob {
                            scenario: scenario.clone(),
                            mechanism: mechanism.clone(),
                            axes: axes.clone(),
                            size,
                            epsilon,
                            job_seed,
                        });
                    }
                }
            }
        }
    }
    Ok((jobs, resolved.fingerprint))
}

/// Number of jobs (cells) the grid expands to.
fn job_count<K: SweepKind>(config: &K) -> Result<usize, PipelineError> {
    Ok(jobs(config)?.0.len())
}

/// Number of jobs (cells) the static grid expands to — the space a
/// [`PartitionPlan`] slices. Fails on the same configuration errors as
/// [`run`].
pub fn sweep_job_count(config: &SweepConfig) -> Result<usize, PipelineError> {
    job_count(config)
}

/// Runs the whole sweep, fanning the job list over the configured shards.
///
/// Fails fast on configuration errors (unknown names, empty grids, zero
/// shards/repetitions); per-cell measurement failures are recorded in the
/// cells, not returned.
pub fn run<K: SweepKind>(config: &K) -> Result<K::Report, PipelineError> {
    let (partial, _) = run_partition(config, &PartitionRun::default())?;
    Ok(into_report::<K>(partial))
}

/// Runs the static sweep; [`run`].
pub fn run_sweep(config: &SweepConfig) -> Result<SweepReport, PipelineError> {
    run(config)
}

// ---------------------------------------------------------------------------
// Partitioned execution
// ---------------------------------------------------------------------------

/// A named contiguous `i/N` slice of a sweep's job-index space
/// (1-based: `1/3`, `2/3`, `3/3`).
///
/// The job list is a pure function of the [`SweepConfig`] /
/// [`DynamicSweepConfig`], so every process that agrees on the
/// configuration agrees on the job order; a plan only selects *which*
/// contiguous indices a process computes. Slices are balanced: `total`
/// jobs split into `N` runs whose lengths differ by at most one, with the
/// earlier partitions taking the longer runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionPlan {
    /// 1-based partition number.
    index: usize,
    /// Total partitions the job space is split into.
    count: usize,
}

impl Default for PartitionPlan {
    fn default() -> Self {
        PartitionPlan::full()
    }
}

impl PartitionPlan {
    /// The trivial plan covering the whole job space (`1/1`).
    pub fn full() -> Self {
        PartitionPlan { index: 1, count: 1 }
    }

    /// Plan for partition `index` of `count` (1-based, `1 ≤ index ≤ count`).
    pub fn new(index: usize, count: usize) -> Result<Self, PipelineError> {
        if count == 0 || index == 0 || index > count {
            return Err(PipelineError::InvalidConfig {
                field: "partition",
                why: "expected `i/N` with 1 <= i <= N (partitions are 1-based)",
            });
        }
        Ok(PartitionPlan { index, count })
    }

    /// Parses the CLI form `i/N` (e.g. `2/3`).
    pub fn parse(s: &str) -> Result<Self, PipelineError> {
        let parse = || -> Option<(usize, usize)> {
            let (i, n) = s.split_once('/')?;
            Some((i.trim().parse().ok()?, n.trim().parse().ok()?))
        };
        let Some((index, count)) = parse() else {
            return Err(PipelineError::InvalidConfig {
                field: "partition",
                why: "expected the form `i/N` (e.g. `2/3`)",
            });
        };
        PartitionPlan::new(index, count)
    }

    /// 1-based partition number.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total partitions.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The contiguous job-index range this plan covers out of `total`
    /// jobs. Empty for partitions beyond the job count (`total < N`).
    pub fn slice(&self, total: usize) -> Range<usize> {
        let base = total / self.count;
        let rem = total % self.count;
        let i = self.index - 1;
        let start = i * base + i.min(rem);
        let len = base + usize::from(i < rem);
        start..start + len
    }
}

impl std::fmt::Display for PartitionPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// 64-bit FNV-1a over length-delimited parts; stable across runs and
/// platforms (unlike `DefaultHasher`, whose output is unspecified).
fn fingerprint_of(parts: &[String]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for part in parts {
        eat(part.as_bytes());
        eat(&[0xff]); // part delimiter, not valid UTF-8 inside a part
    }
    format!("{hash:016x}")
}

fn pipeline_fingerprint_parts(base: &PipelineConfig) -> Vec<String> {
    vec![
        format!("seed={}", base.seed),
        format!("grid={}", base.grid_side),
        format!(
            "engine={}",
            match base.engine {
                HstGreedyEngine::Scan => "scan",
                HstGreedyEngine::Indexed => "indexed",
            }
        ),
        format!("euclid={}", base.euclid_cells),
        format!("capacity={}", base.capacity),
        // `threads`, `shards` and `timings` are deliberately absent: they
        // never change deterministic cell content, so partials produced at
        // different parallelism levels must merge.
    ]
}

fn epsilon_bits(epsilons: &[f64]) -> String {
    epsilons
        .iter()
        .map(|e| format!("{:016x}", e.to_bits()))
        .collect::<Vec<_>>()
        .join(",")
}

/// Comma-joined resolved names: one fingerprint part.
fn names<T>(items: &[T], name: impl Fn(&T) -> &str) -> String {
    items.iter().map(name).collect::<Vec<_>>().join(",")
}

/// A configuration's axes before the grid point, resolved, and its
/// fingerprint.
struct Resolved<J> {
    scenarios: Vec<Arc<dyn Scenario>>,
    mechanisms: Vec<Arc<dyn ReportMechanism>>,
    axes: Vec<J>,
    fingerprint: String,
}

/// Resolves the mechanisms, the flavour's axes and the scenarios (in that
/// order, so the first unknown name reported is the same in every
/// flavour), and fingerprints the result.
fn resolve<K: SweepKind>(config: &K) -> Result<Resolved<K::Job>, PipelineError> {
    let grid = config.grid();
    let mechanisms = resolve_mechanisms(grid.mechanisms)?;
    let (axes, axis_names) = config.axes()?;
    let scenarios = resolve_scenarios(grid.scenarios)?;
    let mut parts = vec![
        K::FLAVOR.to_string(),
        // Resolved names, so `[]` and an explicit `["uniform"]` (the same
        // job list) fingerprint identically.
        names(&scenarios, |s| s.name()),
        names(&mechanisms, |m| m.name()),
    ];
    parts.extend(axis_names);
    parts.push(
        grid.sizes
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(","),
    );
    parts.push(epsilon_bits(grid.epsilons));
    parts.extend(config.fingerprint_tail());
    Ok(Resolved {
        scenarios,
        mechanisms,
        axes,
        fingerprint: fingerprint_of(&parts),
    })
}

/// Deterministic fingerprint of everything that shapes a sweep's job list
/// and cell content: the flavour, resolved scenario/mechanism/matcher
/// names and the flavour's other axes, the size/ε grids, and the
/// output-relevant settings of [`SweepKind::fingerprint_tail`]. Two
/// configs with equal fingerprints produce byte-identical cells for the
/// same job indices; [`crate::merge`] refuses to combine partials whose
/// fingerprints differ, and checkpoint logs are keyed by it.
pub fn fingerprint<K: SweepKind>(config: &K) -> Result<String, PipelineError> {
    Ok(resolve(config)?.fingerprint)
}

/// One partition's worth of a static sweep: self-describing enough for
/// [`crate::merge::merge`] to validate and reassemble a full
/// [`SweepReport`] from a set of these. The fields before `repetitions`
/// are the [`PartialHead`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartialSweepReport {
    /// Always `static`; lets `pombm merge` sniff mixed inputs.
    pub flavor: String,
    /// [`fingerprint`] of the producing configuration.
    pub fingerprint: String,
    /// 1-based partition number, or `0` for a custom [`run_range`]
    /// slice.
    pub partition_index: usize,
    /// Total partitions, or `0` for a custom slice.
    pub partition_count: usize,
    /// Size of the full job-index space this partial was cut from.
    pub total_jobs: usize,
    /// First (global) job index this partial covers; it covers
    /// `start..start + cells.len()`.
    pub start: usize,
    /// Root seed of the producing configuration.
    pub seed: u64,
    /// Repetitions per cell of the producing configuration.
    pub repetitions: u64,
    /// The covered cells, in job-index order.
    pub cells: Vec<SweepCell>,
}

/// One partition's worth of a dynamic sweep; the [`crate::merge::merge`]
/// input mirroring [`PartialSweepReport`], with `horizon` as its metadata
/// field.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicPartialSweepReport {
    /// Always `dynamic`.
    pub flavor: String,
    /// [`fingerprint`] of the producing configuration.
    pub fingerprint: String,
    /// 1-based partition number, or `0` for a custom slice.
    pub partition_index: usize,
    /// Total partitions, or `0` for a custom slice.
    pub partition_count: usize,
    /// Size of the full job-index space this partial was cut from.
    pub total_jobs: usize,
    /// First (global) job index this partial covers.
    pub start: usize,
    /// Root seed of the producing configuration.
    pub seed: u64,
    /// Simulation horizon shared by all cells.
    pub horizon: f64,
    /// The covered cells, in job-index order.
    pub cells: Vec<DynamicSweepCell>,
}

/// How to execute one partition: which slice, and optionally where to
/// checkpoint completed cells and when to stop early.
#[derive(Debug, Clone, Default)]
pub struct PartitionRun {
    /// The `i/N` slice to compute (default: the full `1/1` space).
    pub plan: PartitionPlan,
    /// Checkpoint directory: completed cells are appended to a
    /// fingerprint-keyed JSONL log as they finish, and cells already in
    /// the log are resumed instead of recomputed.
    pub checkpoint: Option<PathBuf>,
    /// Stop (with [`PipelineError::CellCap`]) after this many *freshly
    /// computed* cells; requires `checkpoint` so the work survives.
    pub max_cells: Option<usize>,
}

/// How a partitioned run's cells were obtained — the resume log the CLI
/// reports to stderr.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartialRunStats {
    /// Cells served from the checkpoint log instead of recomputed.
    pub resumed: usize,
    /// Cells freshly computed this run.
    pub computed: usize,
}

/// Append-only JSONL store of completed cells, keyed by flavour +
/// config fingerprint so runs of a different configuration can share one
/// directory without ever resuming each other's cells. Each line is
/// `[global_job_index, cell]`; a kill can truncate only the final line,
/// which (like any unparseable line) is simply recomputed on resume.
struct CheckpointStore<T> {
    path: PathBuf,
    file: Mutex<std::fs::File>,
    // lint: allow(DET-HASH) — keyed lookups via remove(&index) only; cells
    // are re-emitted in job order, never in map order.
    resumed: Mutex<HashMap<usize, T>>,
}

impl<T: Serialize + Deserialize> CheckpointStore<T> {
    /// Opens (or creates) the log for `flavor`+`fingerprint` and loads its
    /// resumable cells. `total_jobs` bounds the persisted indices: a line
    /// whose u64 index does not fit `usize` or falls outside the job list
    /// is corrupt or foreign and is skipped — recomputed like a torn line,
    /// never a panic or a silent misplacement.
    fn open(
        dir: &Path,
        flavor: &str,
        fingerprint: &str,
        total_jobs: usize,
    ) -> Result<Self, PipelineError> {
        let err = |path: &Path, why: String| PipelineError::Checkpoint {
            path: path.display().to_string(),
            why,
        };
        std::fs::create_dir_all(dir).map_err(|e| err(dir, e.to_string()))?;
        let path = dir.join(format!("{flavor}-{fingerprint}.jsonl"));
        // lint: allow(DET-HASH) — see the field note: lookups only.
        let mut resumed = HashMap::new();
        if path.exists() {
            let text = std::fs::read_to_string(&path).map_err(|e| err(&path, e.to_string()))?;
            for line in text.lines() {
                let Ok(entry) = serde_json::from_str::<serde::Value>(line) else {
                    continue;
                };
                let Some(items) = entry.as_array() else {
                    continue;
                };
                if items.len() != 2 {
                    continue;
                }
                let (Some(index), Ok(cell)) = (items[0].as_u64(), T::from_value(&items[1])) else {
                    continue;
                };
                let Ok(index) = usize::try_from(index) else {
                    continue;
                };
                if index >= total_jobs {
                    continue;
                }
                resumed.insert(index, cell);
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| err(&path, e.to_string()))?;
        Ok(CheckpointStore {
            path,
            file: Mutex::new(file),
            resumed: Mutex::new(resumed),
        })
    }

    fn take(&self, index: usize) -> Option<T> {
        self.resumed.lock().remove(&index)
    }

    /// Appends one `[index, cell]` line. The line is fully pre-formatted
    /// (payload *and* trailing newline) before any I/O, then emitted as a
    /// **single** `write_all`: with O_APPEND, one whole-line write cannot
    /// interleave with another process appending to the same log, and a
    /// crash mid-write can only tear the final line — which `open` skips
    /// as recompute. Never split this into multiple writes; the resume
    /// tolerance tests in `tests/partition.rs` (truncated and
    /// garbage-interleaved tails) pin the recovery behaviour.
    fn append(&self, index: usize, cell: &T) -> Result<(), PipelineError> {
        let entry = serde::Value::Array(vec![serde::Value::UInt(index as u64), cell.to_value()]);
        let mut line = serde_json::to_string(&entry).map_err(|e| PipelineError::Checkpoint {
            path: self.path.display().to_string(),
            why: e.to_string(),
        })?;
        line.push('\n');
        let mut file = self.file.lock();
        file.write_all(line.as_bytes())
            .and_then(|_| file.flush())
            .map_err(|e| PipelineError::Checkpoint {
                path: self.path.display().to_string(),
                why: e.to_string(),
            })
    }
}

/// Checkpoint context threaded through [`execute`]: the store, the
/// fresh-cell cap, and the resume counters.
struct Checkpointing<T> {
    store: CheckpointStore<T>,
    max_cells: Option<usize>,
    resumed: AtomicUsize,
    computed: AtomicUsize,
}

impl<T> Checkpointing<T> {
    fn stats(&self) -> PartialRunStats {
        PartialRunStats {
            resumed: self.resumed.load(Ordering::SeqCst),
            computed: self.computed.load(Ordering::SeqCst),
        }
    }
}

/// Fans `jobs[range]` over the configured shards: shard `s` takes the
/// `s`-th contiguous chunk of the slice and computes (or resumes from the
/// checkpoint) one cell per job, appending fresh cells to the checkpoint
/// as they finish. Output order equals job order for every shard count.
/// Checkpoint entries are keyed by *global* job index, so a log written
/// under one partition spec resumes under any other.
fn execute<K: SweepKind>(
    config: &K,
    jobs: &[SweepJob<K::Job>],
    range: Range<usize>,
    ckpt: Option<&Checkpointing<K::Cell>>,
) -> Result<Vec<K::Cell>, PipelineError> {
    let grid = config.grid();
    let timings = grid.timings;
    let run = |job: &SweepJob<K::Job>| {
        // lint: allow(DET-TIME) — the timings-gated wall_ms path itself; the
        // merge strips wall_ms before fingerprinting.
        let started = timings.then(std::time::Instant::now);
        let mut cell = config.run_job(job);
        *K::wall_ms(&mut cell) = started.map(|s| s.elapsed().as_secs_f64() * 1e3);
        cell
    };
    let slice = &jobs[range.clone()];
    let chunk = slice.len().div_ceil(grid.shards).max(1);
    let out: Mutex<Vec<Option<K::Cell>>> = Mutex::new((0..slice.len()).map(|_| None).collect());
    let fail: Mutex<Option<PipelineError>> = Mutex::new(None);
    let capped = AtomicBool::new(false);
    crossbeam::thread::scope(|scope| {
        for (s, shard_jobs) in slice.chunks(chunk).enumerate() {
            let out = &out;
            let fail = &fail;
            let capped = &capped;
            let run = &run;
            let start = range.start;
            scope.spawn(move |_| {
                for (i, job) in shard_jobs.iter().enumerate() {
                    if capped.load(Ordering::SeqCst) || fail.lock().is_some() {
                        return;
                    }
                    let local = s * chunk + i;
                    let global = start + local;
                    let cell = match ckpt.and_then(|c| c.store.take(global)) {
                        Some(resumed) => {
                            ckpt.expect("take came from ckpt")
                                .resumed
                                .fetch_add(1, Ordering::SeqCst);
                            resumed
                        }
                        None => {
                            if let Some(c) = ckpt {
                                // Tickets, not a compare: exactly `cap`
                                // fresh cells get computed even when
                                // several shards race for the last one.
                                let ticket = c.computed.fetch_add(1, Ordering::SeqCst);
                                if c.max_cells.is_some_and(|cap| ticket >= cap) {
                                    c.computed.fetch_sub(1, Ordering::SeqCst);
                                    capped.store(true, Ordering::SeqCst);
                                    return;
                                }
                            }
                            let cell = run(job);
                            if let Some(c) = ckpt {
                                if let Err(e) = c.store.append(global, &cell) {
                                    *fail.lock() = Some(e);
                                    return;
                                }
                            }
                            cell
                        }
                    };
                    out.lock()[local] = Some(cell);
                }
            });
        }
    })
    .expect("sweep shards never panic");
    if let Some(e) = fail.into_inner() {
        return Err(e);
    }
    if capped.load(Ordering::SeqCst) {
        return Err(PipelineError::CellCap {
            computed: ckpt.map_or(0, |c| c.computed.load(Ordering::SeqCst)),
        });
    }
    Ok(out
        .into_inner()
        .into_iter()
        .map(|c| c.expect("every job produces exactly one cell"))
        .collect())
}

/// Validates a custom slice against the job space and the
/// checkpoint/cap pairing rules shared by both flavours.
fn check_slice(
    range: &Range<usize>,
    total: usize,
    checkpoint: Option<&Path>,
    max_cells: Option<usize>,
) -> Result<(), PipelineError> {
    if range.start > range.end || range.end > total {
        return Err(PipelineError::InvalidConfig {
            field: "partition",
            why: "the covered range must lie inside the job-index space",
        });
    }
    if max_cells.is_some() && checkpoint.is_none() {
        return Err(PipelineError::InvalidConfig {
            field: "max-cells",
            why: "--max-cells requires --checkpoint (capped work must survive to be resumed)",
        });
    }
    if max_cells == Some(0) {
        return Err(PipelineError::InvalidConfig {
            field: "max-cells",
            why: "--max-cells must be at least 1 (a zero-cell cap can never make progress)",
        });
    }
    Ok(())
}

/// Computes the job-index range `slice_of(total)` into a partial recording
/// `partition` (index, count) — the body of every entry point. `slice_of`
/// maps the job-space size to the covered range, so callers with an `i/N`
/// plan never build the job list twice just to learn its length.
fn run_slice<K: SweepKind>(
    config: &K,
    slice_of: impl FnOnce(usize) -> Range<usize>,
    partition: (usize, usize),
    checkpoint: Option<&Path>,
    max_cells: Option<usize>,
) -> Result<(K::Partial, PartialRunStats), PipelineError> {
    let (jobs, fingerprint) = jobs(config)?;
    let range = slice_of(jobs.len());
    check_slice(&range, jobs.len(), checkpoint, max_cells)?;
    let ckpt = checkpoint
        .map(|dir| -> Result<Checkpointing<K::Cell>, PipelineError> {
            Ok(Checkpointing {
                store: CheckpointStore::open(dir, K::FLAVOR, &fingerprint, jobs.len())?,
                max_cells,
                resumed: AtomicUsize::new(0),
                computed: AtomicUsize::new(0),
            })
        })
        .transpose()?;
    let mut cells = execute(config, &jobs, range.clone(), ckpt.as_ref())?;
    let grid = config.grid();
    if !grid.timings {
        // Resumed cells may carry `wall_ms` from a `--timings` run of the
        // same fingerprint; normalize so resumed output stays
        // byte-identical to a fresh timings-off run.
        for cell in &mut cells {
            *K::wall_ms(cell) = None;
        }
    }
    let stats = ckpt.map_or(
        PartialRunStats {
            resumed: 0,
            computed: cells.len(),
        },
        |c| c.stats(),
    );
    let head = PartialHead {
        flavor: K::FLAVOR.to_string(),
        fingerprint,
        partition_index: partition.0,
        partition_count: partition.1,
        total_jobs: jobs.len(),
        start: range.start,
        seed: grid.seed,
    };
    Ok((config.partial(head, cells), stats))
}

/// Runs one partition of a sweep (optionally checkpointed), returning the
/// self-describing partial report plus resume statistics. Deterministic
/// like [`run`]: the same `(config, plan)` produces byte-identical
/// partials at any shard count, fresh or resumed.
pub fn run_partition<K: SweepKind>(
    config: &K,
    run: &PartitionRun,
) -> Result<(K::Partial, PartialRunStats), PipelineError> {
    run_slice(
        config,
        |total| run.plan.slice(total),
        (run.plan.index(), run.plan.count()),
        run.checkpoint.as_deref(),
        run.max_cells,
    )
}

/// Runs one partition of the static sweep; [`run_partition`].
pub fn run_sweep_partition(
    config: &SweepConfig,
    run: &PartitionRun,
) -> Result<(PartialSweepReport, PartialRunStats), PipelineError> {
    run_partition(config, run)
}

/// Runs an arbitrary contiguous job-index slice of a sweep — the building
/// block for custom (ragged) schedulers; `partition_index` /
/// `partition_count` are recorded as `0` ("custom slice").
pub fn run_range<K: SweepKind>(
    config: &K,
    range: Range<usize>,
) -> Result<K::Partial, PipelineError> {
    run_slice(config, move |_| range, (0, 0), None, None).map(|(partial, _)| partial)
}

/// The report of the cells a partial covers: for a full-plan partial,
/// exactly what [`run`] returns.
pub fn into_report<K: SweepKind>(mut partial: K::Partial) -> K::Report {
    let cells = std::mem::take(K::cells_mut(&mut partial));
    K::report(&partial, cells)
}

// ---------------------------------------------------------------------------
// Dynamic-fleet sweeps
// ---------------------------------------------------------------------------

/// Fixed simulation horizon of every dynamic sweep cell (seconds). Task
/// arrival times and shift windows both live in `[0, horizon)`.
pub const DYNAMIC_SWEEP_HORIZON: f64 = 1000.0;

/// The named shift-plan shapes a dynamic sweep can replay; an empty
/// `shift_plans` filter in [`DynamicSweepConfig`] means all of them.
///
/// * `always-on` — every worker present for the whole horizon (the paper's
///   static model as a special case; nothing should drop);
/// * `short` — uniform random shifts of 5–15% of the horizon (sparse
///   coverage, the drop-rate stress case);
/// * `long` — uniform random shifts of 40–80% of the horizon.
pub const SHIFT_PLAN_KINDS: [&str; 3] = ["always-on", "short", "long"];

/// The deterministic task arrival times a dynamic sweep uses for
/// `num_tasks` tasks: sorted uniform draws over `[0, horizon)`, seeded by
/// `(seed, num_tasks)` only — identical for every pairing and plan, so
/// cells differ only in what they measure.
pub fn dynamic_task_times(seed: u64, num_tasks: usize) -> Vec<f64> {
    let stream = seed ^ (num_tasks as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rng = seeded_rng(stream, 0xD1CE_0005);
    let mut times: Vec<f64> = (0..num_tasks)
        .map(|_| rng.gen::<f64>() * DYNAMIC_SWEEP_HORIZON)
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    times
}

/// The deterministic shift plan a dynamic sweep uses for a
/// `(kind, num_workers)` cell, seeded by `(seed, num_workers, kind)` only.
/// Fails fast with a listing-rich error on an unknown kind.
pub fn dynamic_shift_plan(
    kind: &str,
    num_workers: usize,
    seed: u64,
) -> Result<ShiftPlan, PipelineError> {
    let stream = seed ^ (num_workers as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let h = DYNAMIC_SWEEP_HORIZON;
    match kind {
        // End strictly after the horizon so tasks at t < horizon always
        // find the full fleet (departures process before same-time tasks).
        "always-on" => Ok(ShiftPlan::always_on(num_workers, h + 1.0)),
        "short" => Ok(ShiftPlan::uniform(
            num_workers,
            h,
            0.05 * h,
            0.15 * h,
            &mut seeded_rng(stream, 0xD1CE_0003),
        )),
        "long" => Ok(ShiftPlan::uniform(
            num_workers,
            h,
            0.4 * h,
            0.8 * h,
            &mut seeded_rng(stream, 0xD1CE_0004),
        )),
        other => Err(PipelineError::UnknownEntry {
            kind: "shift plan",
            name: other.to_string(),
            known: SHIFT_PLAN_KINDS.iter().map(|s| s.to_string()).collect(),
        }),
    }
}

/// What the dynamic sweep runs: the pairing/plan filters, the instance/ε
/// grid, and the execution parameters. Mirrors [`SweepConfig`], with shift
/// plans as the extra axis and no repetitions (each cell replays one
/// deterministic timeline).
#[derive(Debug, Clone)]
pub struct DynamicSweepConfig {
    /// Mechanism names to include; empty means every registered mechanism.
    pub mechanisms: Vec<String>,
    /// Dynamic matcher names to include; empty means every registered
    /// dynamic matcher.
    pub matchers: Vec<String>,
    /// Workload scenario names to sweep; empty means just the legacy
    /// `uniform` default, exactly as in [`SweepConfig::scenarios`].
    pub scenarios: Vec<String>,
    /// Shift-plan kinds to replay; empty means all of
    /// [`SHIFT_PLAN_KINDS`].
    pub shift_plans: Vec<String>,
    /// Instance sizes: `size` tasks and `size` workers per cell.
    pub sizes: Vec<usize>,
    /// Privacy budgets ε to sweep.
    pub epsilons: Vec<f64>,
    /// Worker threads; results are bit-identical for every value ≥ 1.
    pub shards: usize,
    /// Record per-cell wall-clock into [`DynamicSweepCell::wall_ms`]; same
    /// golden-exclusion semantics as [`SweepConfig::timings`].
    pub timings: bool,
    /// Measure each cell against the clairvoyant `dynamic-opt` oracle:
    /// populates [`DynamicSweepCell::competitive_ratio`] and the
    /// drop-latency percentile columns, admits the oracle itself in
    /// matcher position (its cell reports ratio exactly 1.0), and enters
    /// the resolved oracle name into the config fingerprint — so
    /// partitioned/checkpointed/merged ratio sweeps can never mix with
    /// plain ones. Off (the default), cells serialize byte-identically to
    /// pre-ratio sweeps.
    pub ratio: bool,
    /// Predefined-point grid side of each cell's server.
    pub grid_side: usize,
    /// Root seed every derived stream (instances, times, plans, noise)
    /// descends from.
    pub seed: u64,
}

impl Default for DynamicSweepConfig {
    fn default() -> Self {
        DynamicSweepConfig {
            mechanisms: Vec::new(),
            matchers: Vec::new(),
            scenarios: Vec::new(),
            shift_plans: Vec::new(),
            sizes: vec![48],
            epsilons: vec![0.6],
            shards: 1,
            timings: false,
            ratio: false,
            grid_side: 32,
            seed: 0,
        }
    }
}

/// The measured outcome of one dynamic sweep cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicMeasurement {
    /// Tasks assigned to a worker.
    pub assigned: usize,
    /// Tasks that arrived while the pool was empty.
    pub dropped: usize,
    /// `assigned / (assigned + dropped)`; 1.0 for an empty timeline.
    pub assignment_rate: f64,
    /// Total true-location travel distance of the assigned pairs.
    pub total_distance: f64,
    /// Largest number of simultaneously available workers observed.
    pub peak_available: usize,
}

impl DynamicMeasurement {
    /// Summarizes a [`DynamicOutcome`] (the CLI's `--json` shape too).
    pub fn from_outcome(out: &DynamicOutcome) -> Self {
        DynamicMeasurement {
            assigned: out.pairs.len(),
            dropped: out.dropped_tasks,
            assignment_rate: out.assignment_rate(),
            total_distance: out.total_distance,
            peak_available: out.peak_available,
        }
    }
}

/// One cell of the dynamic sweep product: exactly one of
/// `measurement` / `error` is set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicSweepCell {
    /// Workload scenario this cell's instance/timeline came from; absent
    /// for the legacy `uniform` default, exactly as in
    /// [`SweepCell::scenario`].
    #[serde(skip_serializing_if = "Option::is_none")]
    pub scenario: Option<String>,
    /// Stage-1 mechanism name.
    pub mechanism: String,
    /// Stage-2 dynamic matcher name.
    pub matcher: String,
    /// Shift-plan kind replayed by this cell.
    pub plan: String,
    /// Tasks in this cell's instance.
    pub num_tasks: usize,
    /// Workers in this cell's instance.
    pub num_workers: usize,
    /// Privacy budget ε of this cell.
    pub epsilon: f64,
    /// The measured outcome, when the pairing is measurable.
    pub measurement: Option<DynamicMeasurement>,
    /// This cell's total distance over the clairvoyant optimum's; present
    /// only under [`DynamicSweepConfig::ratio`]. Exactly 1.0 for the
    /// oracle's own cell.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub competitive_ratio: Option<f64>,
    /// Median time a dropped task would have waited for the next shift
    /// start (nearest-rank); present under [`DynamicSweepConfig::ratio`]
    /// when at least one dropped task has a future shift start.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub drop_latency_p50: Option<f64>,
    /// 95th-percentile drop latency (nearest-rank), same presence rule as
    /// [`DynamicSweepCell::drop_latency_p50`].
    #[serde(skip_serializing_if = "Option::is_none")]
    pub drop_latency_p95: Option<f64>,
    /// The typed error's message, when it is not (e.g. blind reports into
    /// a location-aware pool).
    pub error: Option<String>,
    /// Wall-clock of this cell's replay in milliseconds; present only
    /// when the sweep ran with [`DynamicSweepConfig::timings`].
    #[serde(skip_serializing_if = "Option::is_none")]
    pub wall_ms: Option<f64>,
}

/// A completed dynamic sweep: cells in job order (mechanism-major, then
/// matcher, plan, size, ε).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicSweepReport {
    /// Root seed every cell's streams derive from.
    pub seed: u64,
    /// Simulation horizon shared by all cells.
    pub horizon: f64,
    /// All measured cells.
    pub cells: Vec<DynamicSweepCell>,
}

impl DynamicSweepReport {
    /// Cells that produced a measurement.
    pub fn measured(&self) -> impl Iterator<Item = (&DynamicSweepCell, &DynamicMeasurement)> {
        self.cells
            .iter()
            .filter_map(|c| Some((c, c.measurement.as_ref()?)))
    }

    /// Cells rejected with a typed error.
    pub fn failed(&self) -> impl Iterator<Item = &DynamicSweepCell> {
        self.cells.iter().filter(|c| c.error.is_some())
    }
}

/// Resolves the dynamic-matcher filter. Ratio sweeps admit the
/// [`Role::OracleOnly`](crate::registry::Role) `dynamic-opt` entry — and
/// include it by default, so the denominator shows up as its own
/// ratio-1.0 row — while plain sweeps stay pairing-only, making oracle
/// misuse a typed [`PipelineError::RoleMismatch`].
fn resolve_dynamic_matchers(
    names: &[String],
    ratio: bool,
) -> Result<Vec<Arc<dyn DynamicAssignStrategy>>, PipelineError> {
    if names.is_empty() {
        if ratio {
            return Ok(registry().dynamic_matcher_catalog().all().to_vec());
        }
        return Ok(registry().dynamic_matchers());
    }
    names
        .iter()
        .map(|n| {
            if ratio {
                registry().dynamic_matcher_any(n)
            } else {
                registry().require_dynamic_matcher(n)
            }
        })
        .collect()
}

/// Nearest-rank (p50, p95) of how long each dropped task would have waited
/// for the next shift start after its arrival; dropped tasks with no
/// future shift start are excluded, and both are `None` when nothing
/// qualifies.
fn drop_latency_percentiles(
    dropped: impl Iterator<Item = usize>,
    times: &[f64],
    plan: &ShiftPlan,
) -> (Option<f64>, Option<f64>) {
    let mut starts: Vec<f64> = plan.shifts.iter().map(|s| s.start).collect();
    starts.sort_by(|a, b| a.partial_cmp(b).expect("finite shift starts"));
    let mut latencies: Vec<f64> = dropped
        .filter_map(|t| {
            let at = times[t];
            starts
                .iter()
                .find(|&&start| start > at)
                .map(|start| start - at)
        })
        .collect();
    if latencies.is_empty() {
        return (None, None);
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let rank = |p: f64| {
        let n = latencies.len();
        let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
        latencies[idx]
    };
    (Some(rank(0.50)), Some(rank(0.95)))
}

/// The oracle's "run" for its own sweep cell: the clairvoyant solution
/// presented as a [`DynamicMeasurement`]. `peak_available` replays the
/// timeline with the oracle's consumption schedule (a worker leaves the
/// pool when its assigned task arrives), mirroring how the online driver
/// samples the peak after each registration.
fn oracle_measurement(
    opt: &pombm_matching::ClairvoyantAssignment,
    times: &[f64],
    plan: &ShiftPlan,
) -> DynamicMeasurement {
    let num_tasks = times.len();
    let num_workers = plan.shifts.len();
    let mut worker_of = vec![None; num_tasks];
    for &(t, w) in &opt.pairs {
        worker_of[t] = Some(w);
    }
    let mut present = vec![false; num_workers];
    let mut consumed = vec![false; num_workers];
    let mut available = 0usize;
    let mut peak = 0usize;
    for &(_, _, _, kind) in &crate::dynamic::build_timeline(plan, times) {
        match kind {
            crate::dynamic::EventKind::ShiftStart(w) => {
                present[w] = true;
                available += 1;
                peak = peak.max(available);
            }
            crate::dynamic::EventKind::ShiftEnd(w) => {
                if present[w] && !consumed[w] {
                    present[w] = false;
                    available -= 1;
                }
            }
            crate::dynamic::EventKind::Task(t) => {
                if let Some(w) = worker_of[t] {
                    consumed[w] = true;
                    present[w] = false;
                    available -= 1;
                }
            }
        }
    }
    let assigned = opt.size();
    let dropped = opt.dropped.len();
    DynamicMeasurement {
        assigned,
        dropped,
        assignment_rate: if assigned + dropped == 0 {
            1.0
        } else {
            assigned as f64 / (assigned + dropped) as f64
        },
        total_distance: opt.total_cost,
        peak_available: peak,
    }
}

impl SweepKind for DynamicSweepConfig {
    type Job = (Arc<dyn DynamicAssignStrategy>, String);
    type Cell = DynamicSweepCell;
    type Partial = DynamicPartialSweepReport;
    type Report = DynamicSweepReport;

    const FLAVOR: &'static str = "dynamic";
    const META: &'static str = "horizon";

    fn grid(&self) -> Grid<'_> {
        Grid {
            scenarios: &self.scenarios,
            mechanisms: &self.mechanisms,
            sizes: &self.sizes,
            epsilons: &self.epsilons,
            shards: self.shards,
            timings: self.timings,
            seed: self.seed,
        }
    }

    /// Dynamic matcher × shift-plan kind, matcher-major.
    fn axes(&self) -> Result<(Vec<Self::Job>, Vec<String>), PipelineError> {
        let matchers = resolve_dynamic_matchers(&self.matchers, self.ratio)?;
        let plans = resolve_plan_kinds(self)?;
        let names = vec![names(&matchers, |m| m.name()), plans.join(",")];
        let axes = matchers
            .iter()
            .flat_map(|m| plans.iter().map(move |p| (m.clone(), p.clone())))
            .collect();
        Ok((axes, names))
    }

    fn fingerprint_tail(&self) -> Vec<String> {
        let mut parts = vec![
            format!("grid={}", self.grid_side),
            format!("seed={}", self.seed),
            format!("horizon={:016x}", DYNAMIC_SWEEP_HORIZON.to_bits()),
        ];
        if self.ratio {
            // The resolved oracle name: ratio cells carry extra columns, so a
            // ratio sweep must never share checkpoints or merge inputs with a
            // plain sweep of the same grid.
            parts.push(format!("oracle={DEFAULT_DYNAMIC_ORACLE}"));
        }
        parts
    }

    fn run_job(&self, job: &SweepJob<Self::Job>) -> DynamicSweepCell {
        let (matcher, plan_kind) = &job.axes;
        let instance = job.scenario.instance(self.seed, job.size);
        let times = job.scenario.task_times(self.seed, job.size);
        let plan = job
            .scenario
            .shift_plan(plan_kind, job.size, self.seed)
            .expect("plan kinds were validated before the fan-out");
        let config = DynamicConfig {
            epsilon: job.epsilon,
            grid_side: self.grid_side,
            seed: job.job_seed,
        };
        // The oracle denominator is shared by every repetition of this cell's
        // timeline; solved at threads=1 so cells stay shard-invariant (the
        // clairvoyant engine is bit-identical at every thread count anyway).
        let oracle = self
            .ratio
            .then(|| dynamic_offline_optimum(&instance, &times, &plan));
        let is_oracle_cell =
            registry().dynamic_matcher_catalog().role_of(matcher.name()) == Some(Role::OracleOnly);

        type OnlineRun = (f64, std::collections::BTreeSet<usize>);
        let outcome: Result<(DynamicMeasurement, Option<OnlineRun>), String> = if is_oracle_cell {
            match &oracle {
                Some(Ok(opt)) => Ok((oracle_measurement(opt, &times, &plan), None)),
                Some(Err(e)) => Err(e.to_string()),
                // resolve_dynamic_matchers only admits the oracle under
                // --ratio, so a ratio-less oracle cell cannot be built by the
                // sweep; report the role error defensively anyway.
                None => Err(PipelineError::RoleMismatch {
                    kind: "dynamic matcher",
                    name: matcher.name().to_string(),
                    role: "oracle-only",
                    wanted: "pairing",
                }
                .to_string()),
            }
        } else {
            match run_dynamic_spec(
                &instance,
                &times,
                &plan,
                &config,
                job.mechanism.as_ref(),
                matcher.as_ref(),
            ) {
                Ok(out) => {
                    let assigned: std::collections::BTreeSet<usize> =
                        out.pairs.iter().map(|&(t, _)| t).collect();
                    Ok((
                        DynamicMeasurement::from_outcome(&out),
                        Some((out.total_distance, assigned)),
                    ))
                }
                Err(e) => Err(e.to_string()),
            }
        };

        let (measurement, competitive_ratio, drop_p50, drop_p95, error) = match outcome {
            Err(e) => (None, None, None, None, Some(e)),
            Ok((m, online)) => match (&oracle, online) {
                // Ratio off: the pre-ratio cell, bit for bit.
                (None, _) => (Some(m), None, None, None, None),
                (Some(Err(e)), _) => (None, None, None, None, Some(e.to_string())),
                (Some(Ok(opt)), online) => {
                    let (numerator, dropped): (f64, Vec<usize>) = match online {
                        Some((total, assigned)) => (
                            total,
                            (0..instance.num_tasks())
                                .filter(|t| !assigned.contains(t))
                                .collect(),
                        ),
                        // The oracle's own cell: numerator = denominator, so
                        // the ratio divides to exactly 1.0.
                        None => (opt.total_cost, opt.dropped.clone()),
                    };
                    let (p50, p95) = drop_latency_percentiles(dropped.into_iter(), &times, &plan);
                    (Some(m), Some(numerator / opt.total_cost), p50, p95, None)
                }
            },
        };

        DynamicSweepCell {
            scenario: cell_scenario(job.scenario.as_ref()),
            mechanism: job.mechanism.name().to_string(),
            matcher: matcher.name().to_string(),
            plan: plan_kind.clone(),
            num_tasks: instance.num_tasks(),
            num_workers: instance.num_workers(),
            epsilon: job.epsilon,
            measurement,
            competitive_ratio,
            drop_latency_p50: drop_p50,
            drop_latency_p95: drop_p95,
            error,
            wall_ms: None,
        }
    }

    fn wall_ms(cell: &mut DynamicSweepCell) -> &mut Option<f64> {
        &mut cell.wall_ms
    }

    fn partial(
        &self,
        head: PartialHead,
        cells: Vec<DynamicSweepCell>,
    ) -> DynamicPartialSweepReport {
        DynamicPartialSweepReport {
            flavor: head.flavor,
            fingerprint: head.fingerprint,
            partition_index: head.partition_index,
            partition_count: head.partition_count,
            total_jobs: head.total_jobs,
            start: head.start,
            seed: head.seed,
            horizon: DYNAMIC_SWEEP_HORIZON,
            cells,
        }
    }

    fn head(partial: &DynamicPartialSweepReport) -> PartialHead {
        PartialHead {
            flavor: partial.flavor.clone(),
            fingerprint: partial.fingerprint.clone(),
            partition_index: partial.partition_index,
            partition_count: partial.partition_count,
            total_jobs: partial.total_jobs,
            start: partial.start,
            seed: partial.seed,
        }
    }

    fn cells(partial: &DynamicPartialSweepReport) -> &[DynamicSweepCell] {
        &partial.cells
    }

    fn cells_mut(partial: &mut DynamicPartialSweepReport) -> &mut Vec<DynamicSweepCell> {
        &mut partial.cells
    }

    fn same_meta(a: &DynamicPartialSweepReport, b: &DynamicPartialSweepReport) -> bool {
        a.horizon.to_bits() == b.horizon.to_bits()
    }

    fn report(
        partial: &DynamicPartialSweepReport,
        cells: Vec<DynamicSweepCell>,
    ) -> DynamicSweepReport {
        DynamicSweepReport {
            seed: partial.seed,
            horizon: partial.horizon,
            cells,
        }
    }
}

/// The shift-plan kinds a dynamic sweep replays: the explicit filter, or
/// all of [`SHIFT_PLAN_KINDS`] when empty — validated upfront so the
/// fan-out cannot panic.
fn resolve_plan_kinds(config: &DynamicSweepConfig) -> Result<Vec<String>, PipelineError> {
    let plans: Vec<String> = if config.shift_plans.is_empty() {
        SHIFT_PLAN_KINDS.iter().map(|s| s.to_string()).collect()
    } else {
        config.shift_plans.clone()
    };
    for kind in &plans {
        dynamic_shift_plan(kind, 1, 0)?;
    }
    Ok(plans)
}

/// Number of jobs (cells) the dynamic grid expands to; see
/// [`sweep_job_count`].
pub fn dynamic_sweep_job_count(config: &DynamicSweepConfig) -> Result<usize, PipelineError> {
    job_count(config)
}

/// Runs the dynamic sweep; [`run`]. Deterministic in `config.seed` for
/// every shard count. Per-cell failures (e.g. the blind mechanism into a
/// location-aware pool) are recorded in the cells.
pub fn run_dynamic_sweep(config: &DynamicSweepConfig) -> Result<DynamicSweepReport, PipelineError> {
    run(config)
}

/// Runs one partition of the dynamic sweep; [`run_partition`].
pub fn run_dynamic_sweep_partition(
    config: &DynamicSweepConfig,
    run: &PartitionRun,
) -> Result<(DynamicPartialSweepReport, PartialRunStats), PipelineError> {
    run_partition(config, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SweepConfig {
        SweepConfig {
            mechanisms: vec!["identity".into(), "laplace".into()],
            matchers: vec!["greedy".into(), "offline-opt".into()],
            scenarios: Vec::new(),
            sizes: vec![12],
            epsilons: vec![0.6],
            repetitions: 2,
            shards: 1,
            timings: false,
            base: PipelineConfig {
                grid_side: 16,
                ..PipelineConfig::default()
            },
        }
    }

    #[test]
    fn sweep_covers_the_product() {
        let report = run_sweep(&small_config()).unwrap();
        assert_eq!(report.cells.len(), 2 * 2);
        assert_eq!(report.measured().count(), 4);
        assert_eq!(report.failed().count(), 0);
        for (cell, r) in report.measured() {
            assert!(r.ratio >= 1.0 - 1e-9, "{}+{}", cell.mechanism, cell.matcher);
        }
    }

    #[test]
    fn identity_offline_opt_cell_is_the_oracle() {
        let report = run_sweep(&small_config()).unwrap();
        let (_, oracle) = report
            .measured()
            .find(|(c, _)| c.mechanism == "identity" && c.matcher == "offline-opt")
            .expect("oracle cell present");
        assert_eq!(oracle.ratio, 1.0);
    }

    #[test]
    fn unknown_names_fail_fast() {
        let mut config = small_config();
        config.mechanisms = vec!["bogus".into()];
        assert!(matches!(
            run_sweep(&config),
            Err(PipelineError::UnknownEntry {
                kind: "mechanism",
                ..
            })
        ));
        let mut config = small_config();
        config.matchers = vec!["bogus".into()];
        assert!(matches!(
            run_sweep(&config),
            Err(PipelineError::UnknownEntry {
                kind: "matcher",
                ..
            })
        ));
    }

    #[test]
    fn degenerate_grids_fail_fast() {
        for broken in [
            SweepConfig {
                shards: 0,
                ..small_config()
            },
            SweepConfig {
                repetitions: 0,
                ..small_config()
            },
            SweepConfig {
                sizes: vec![],
                ..small_config()
            },
            SweepConfig {
                epsilons: vec![],
                ..small_config()
            },
        ] {
            assert!(matches!(
                run_sweep(&broken),
                Err(PipelineError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn incompatible_cells_record_errors_without_aborting() {
        let config = SweepConfig {
            mechanisms: vec!["blind".into()],
            matchers: vec!["greedy".into(), "random".into()],
            ..small_config()
        };
        let report = run_sweep(&config).unwrap();
        assert_eq!(report.cells.len(), 2);
        let by_matcher = |m: &str| report.cells.iter().find(|c| c.matcher == m).unwrap();
        assert!(by_matcher("greedy").error.is_some());
        assert!(by_matcher("random").report.is_some());
    }

    #[test]
    fn empty_size_cell_is_a_recorded_error() {
        let config = SweepConfig {
            mechanisms: vec!["identity".into()],
            matchers: vec!["greedy".into()],
            sizes: vec![0],
            ..small_config()
        };
        let report = run_sweep(&config).unwrap();
        assert_eq!(report.cells.len(), 1);
        assert!(report.cells[0]
            .error
            .as_deref()
            .unwrap()
            .contains("non-empty"));
    }

    fn small_dynamic_config() -> DynamicSweepConfig {
        DynamicSweepConfig {
            mechanisms: vec!["identity".into(), "hst".into()],
            matchers: vec!["hst-greedy".into(), "kd-rebuild".into()],
            scenarios: Vec::new(),
            shift_plans: vec!["always-on".into(), "short".into()],
            sizes: vec![16],
            epsilons: vec![0.6],
            shards: 1,
            timings: false,
            ratio: false,
            grid_side: 16,
            seed: 0,
        }
    }

    #[test]
    fn dynamic_sweep_covers_the_product() {
        let report = run_dynamic_sweep(&small_dynamic_config()).unwrap();
        assert_eq!(report.cells.len(), 2 * 2 * 2);
        assert_eq!(report.measured().count(), 8);
        assert_eq!(report.failed().count(), 0);
        for (cell, m) in report.measured() {
            assert_eq!(
                m.assigned + m.dropped,
                16,
                "{}+{}",
                cell.mechanism,
                cell.matcher
            );
            if cell.plan == "always-on" {
                assert_eq!(m.dropped, 0, "always-on never drops");
                assert_eq!(m.assignment_rate, 1.0);
                assert_eq!(m.peak_available, 16);
            }
        }
    }

    #[test]
    fn dynamic_sweep_timelines_are_shared_across_pairings() {
        // Task times and shift plans depend on (seed, size, plan) only, so
        // every pairing of one cell column faces the same scenario: the
        // identity x hst-greedy and hst x hst-greedy cells must report the
        // same peak availability under the same plan.
        let report = run_dynamic_sweep(&small_dynamic_config()).unwrap();
        for plan in ["always-on", "short"] {
            let peaks: Vec<usize> = report
                .measured()
                .filter(|(c, _)| c.plan == plan)
                .map(|(_, m)| m.peak_available)
                .collect();
            assert!(
                peaks.windows(2).all(|w| w[0] == w[1]),
                "{plan}: peaks diverged {peaks:?}"
            );
        }
    }

    #[test]
    fn dynamic_sweep_records_incompatible_cells_without_aborting() {
        let config = DynamicSweepConfig {
            mechanisms: vec!["blind".into()],
            matchers: vec![],
            shift_plans: vec!["always-on".into()],
            ..small_dynamic_config()
        };
        let report = run_dynamic_sweep(&config).unwrap();
        assert_eq!(report.cells.len(), registry().dynamic_matchers().len());
        let by_matcher = |m: &str| report.cells.iter().find(|c| c.matcher == m).unwrap();
        assert!(by_matcher("hst-greedy").error.is_some());
        assert!(by_matcher("kd-rebuild").error.is_some());
        assert!(by_matcher("random").measurement.is_some());
    }

    #[test]
    fn dynamic_sweep_fails_fast_on_unknown_names_and_empty_grids() {
        let mut config = small_dynamic_config();
        config.matchers = vec!["bogus".into()];
        assert!(matches!(
            run_dynamic_sweep(&config),
            Err(PipelineError::UnknownEntry {
                kind: "dynamic matcher",
                ..
            })
        ));
        let mut config = small_dynamic_config();
        config.shift_plans = vec!["bogus".into()];
        assert!(matches!(
            run_dynamic_sweep(&config),
            Err(PipelineError::UnknownEntry {
                kind: "shift plan",
                ..
            })
        ));
        for broken in [
            DynamicSweepConfig {
                shards: 0,
                ..small_dynamic_config()
            },
            DynamicSweepConfig {
                sizes: vec![],
                ..small_dynamic_config()
            },
            DynamicSweepConfig {
                epsilons: vec![],
                ..small_dynamic_config()
            },
        ] {
            assert!(matches!(
                run_dynamic_sweep(&broken),
                Err(PipelineError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn dynamic_sweep_empty_filters_mean_the_full_registry() {
        let config = DynamicSweepConfig {
            mechanisms: Vec::new(),
            matchers: Vec::new(),
            shift_plans: Vec::new(),
            sizes: vec![8],
            ..small_dynamic_config()
        };
        let report = run_dynamic_sweep(&config).unwrap();
        let expected = registry().mechanisms().len()
            * registry().dynamic_matchers().len()
            * SHIFT_PLAN_KINDS.len();
        assert_eq!(report.cells.len(), expected);
        // Only blind x location-aware cells fail.
        assert_eq!(
            report.failed().count(),
            (registry().dynamic_matchers().len() - 1) * SHIFT_PLAN_KINDS.len()
        );
        for cell in report.failed() {
            assert_eq!(cell.mechanism, "blind");
            assert_ne!(cell.matcher, "random");
        }
    }

    #[test]
    fn shift_plan_kinds_generate_and_unknown_kinds_error() {
        for kind in SHIFT_PLAN_KINDS {
            let plan = dynamic_shift_plan(kind, 40, 3).unwrap();
            assert_eq!(plan.shifts.len(), 40, "{kind}");
            for s in &plan.shifts {
                assert!(s.start < s.end, "{kind}");
            }
        }
        assert!(dynamic_shift_plan("weekend", 4, 0).is_err());
        let times = dynamic_task_times(5, 64);
        assert_eq!(times.len(), 64);
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "times are sorted");
        assert!(times
            .iter()
            .all(|&t| (0.0..DYNAMIC_SWEEP_HORIZON).contains(&t)));
        assert_eq!(times, dynamic_task_times(5, 64), "deterministic in seed");
        assert_ne!(times, dynamic_task_times(6, 64), "seed matters");
    }

    #[test]
    fn ratio_resolution_admits_the_oracle_only_under_ratio() {
        // Empty filter: pairing-only without --ratio, the full catalog
        // (oracle row included) with it.
        let plain = resolve_dynamic_matchers(&[], false).unwrap();
        let with_ratio = resolve_dynamic_matchers(&[], true).unwrap();
        assert_eq!(plain.len() + 1, with_ratio.len());
        assert!(with_ratio
            .iter()
            .any(|m| m.name() == DEFAULT_DYNAMIC_ORACLE));
        assert!(plain.iter().all(|m| m.name() != DEFAULT_DYNAMIC_ORACLE));
        // Naming the oracle outside a ratio sweep is a typed role error;
        // under --ratio the same name resolves.
        assert!(resolve_dynamic_matchers(&["dynamic-opt".into()], false).is_err());
        let named = resolve_dynamic_matchers(&["dynamic-opt".into()], true).unwrap();
        assert_eq!(named.len(), 1);
        assert_eq!(named[0].name(), DEFAULT_DYNAMIC_ORACLE);
    }

    #[test]
    fn drop_latency_percentiles_use_the_next_shift_start() {
        use pombm_workload::shifts::Shift;
        let plan = ShiftPlan {
            horizon: 100.0,
            shifts: vec![
                Shift {
                    worker: 0,
                    start: 10.0,
                    end: 20.0,
                },
                Shift {
                    worker: 1,
                    start: 50.0,
                    end: 60.0,
                },
            ],
        };
        let times = [0.0, 30.0, 70.0, 5.0];
        // Tasks 0 and 3 wait for the start at 10 (latencies 10 and 5),
        // task 1 for the start at 50 (latency 20); task 2 arrives after
        // every start and is excluded. Sorted latencies [5, 10, 20]:
        // nearest-rank p50 is 10, p95 is 20.
        let (p50, p95) = drop_latency_percentiles([0usize, 1, 2, 3].into_iter(), &times, &plan);
        assert_eq!(p50, Some(10.0));
        assert_eq!(p95, Some(20.0));
        let (p50, p95) = drop_latency_percentiles(std::iter::empty(), &times, &plan);
        assert_eq!((p50, p95), (None, None));
        // Drops with no later shift to wait for leave both undefined.
        let (p50, p95) = drop_latency_percentiles([2usize].into_iter(), &times, &plan);
        assert_eq!((p50, p95), (None, None));
    }

    #[test]
    fn ratio_enters_the_fingerprint_and_nothing_else_new() {
        let plain = small_dynamic_config();
        let with_ratio = DynamicSweepConfig {
            ratio: true,
            ..small_dynamic_config()
        };
        assert_ne!(
            fingerprint(&plain).unwrap(),
            fingerprint(&with_ratio).unwrap(),
            "ratio sweeps must not share checkpoints with plain sweeps"
        );
        // Parallelism stays outside the fingerprint either way.
        let sharded = DynamicSweepConfig {
            shards: 7,
            ratio: true,
            ..small_dynamic_config()
        };
        assert_eq!(
            fingerprint(&with_ratio).unwrap(),
            fingerprint(&sharded).unwrap()
        );
    }
}
