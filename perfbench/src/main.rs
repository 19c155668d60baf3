//! The repository benchmark: three workloads driven through the library's
//! public entry points, one JSON result line per run.
//!
//! ```text
//! perfbench --workload static-100k|serve-1m|ratio-sweep --seed N
//!           --seconds S --trace 0|1 [--smoke] [--expect-fingerprint HEX]
//!           [--work-dir DIR]
//! ```
//!
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it replays the workload layer by layer under spans and
//! prints the per-layer metrics instead. `--smoke` shrinks every size for
//! a quick self-test, and `--expect-fingerprint` fails every operation of
//! a run whose fingerprint differs. The last line of standard output is
//! the result; everything else goes to standard error.

mod clock;
mod layers;
mod serve_wl;
mod speed;
mod static_wl;
mod sweep_wl;
mod trace;
mod util;

use std::path::PathBuf;
use util::Outcome;

#[global_allocator]
static ALLOC: pombm_bench::CountingAllocator = pombm_bench::CountingAllocator;

/// The parsed command line.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// Tiny sizes for the self-test.
    pub smoke: bool,
    /// Fingerprint the run must reproduce, when given.
    pub expect: Option<String>,
    /// Directory for checkpoints and the trace file.
    pub work_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload static-100k|serve-1m|ratio-sweep --seed N \
--seconds S --trace 0|1 [--smoke] [--expect-fingerprint HEX] [--work-dir DIR]";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut expect = None;
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            "--expect-fingerprint" => expect = Some(value.clone()),
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        smoke,
        expect,
        work_dir,
    })
}

/// How long the untraced loop runs: the whole run, or a single pass that
/// fixes the reference outputs when the run is traced.
pub fn untraced_seconds(opts: &Opts) -> f64 {
    if opts.trace {
        0.0
    } else {
        opts.seconds
    }
}

/// Fails the run when `--expect-fingerprint` names another fingerprint.
pub fn check_expected(opts: &Opts, actual: &str, out: &mut Outcome) {
    if let Some(expected) = &opts.expect {
        if expected != actual {
            let ops = out.attempted;
            out.failed = ops.max(1);
            out.attempted = ops.max(1);
            out.notes.push(format!(
                "FAILED fingerprint: expected {expected}, got {actual}"
            ));
        }
    }
}

/// The result line: every value in full precision.
fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run = match opts.workload.as_str() {
        "static-100k" => static_wl::run,
        "serve-1m" => serve_wl::run,
        "ratio-sweep" => sweep_wl::run,
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut out = run(&opts);
    if out.attempted == 0 {
        out.attempted = 1;
        out.failed = 1;
        out.notes
            .push("FAILED: the run attempted nothing".to_string());
    }
    let non_finite: Vec<(String, &'static str)> = out
        .metrics
        .iter()
        .filter(|(_, (v, _))| !v.is_finite())
        .map(|(name, &(_, unit))| (name.clone(), unit))
        .collect();
    for (name, unit) in non_finite {
        // JSON has no NaN or infinity: print 0 and fail the run.
        out.notes
            .push(format!("FAILED: metric {name} is not finite"));
        out.metrics.set(&name, 0.0, unit);
        out.failed = out.attempted;
    }
    for note in &out.notes {
        eprintln!("{}: {note}", opts.workload);
    }
    for (name, (value, unit)) in out.metrics.iter() {
        eprintln!("{}: {name} = {value} {unit}", opts.workload);
    }
    eprintln!(
        "{}: failed_frac = {} ({} of {} operations)",
        opts.workload,
        out.failed as f64 / out.attempted as f64,
        out.failed,
        out.attempted
    );
    println!("{}", result_json(&out));
}
