//! Byte-exact reassembly of partitioned sweep runs.
//!
//! [`crate::sweep::run_partition`] splits a sweep's job-index space
//! across processes; this module is the other half of that contract. Given
//! the partials, the one generic [`merge`] validates that they belong
//! together and cover the space exactly, then reassembles the cells in
//! job-index order into a report whose JSON serialization is
//! **byte-identical** to what a single-process [`crate::sweep::run`] of the
//! same configuration would have produced. Like the rest of the sweep
//! engine it is written once against [`SweepKind`]: the flavour supplies
//! only field access and its metadata comparison. [`merge_static`] and
//! [`merge_dynamic`] are the flavour-named calls into it. Once partials
//! merge byte-exactly, scheduling them on different machines is just
//! transport — the merge is the trust anchor of the distributed harness,
//! and CI re-proves it on every run.
//!
//! # Validation
//!
//! A partial set is merged only if:
//!
//! * it is non-empty and every partial carries the flavour's
//!   [`SweepKind::FLAVOR`] tag,
//! * all config [fingerprints](crate::sweep::fingerprint) are identical
//!   (same resolved pairings, grids, seed and output-relevant settings —
//!   parallelism knobs are excluded since they never change cell content),
//! * the shared metadata (`total_jobs`, `seed`, and the flavour's
//!   [`SweepKind::META`] field, `repetitions` or `horizon`) agrees,
//! * every covered range lies inside the job space, no job index is
//!   covered twice ([`MergeError::Overlap`]), and none is missed
//!   ([`MergeError::Gap`]) — silent cell loss is structurally impossible.
//!
//! # Timings
//!
//! Per-cell `wall_ms` columns (the `--timings` flag) are inherently
//! machine-dependent, so the merge strips them: merged output always
//! matches a single-process run *without* timings, keeping the byte-exact
//! contract meaningful across heterogeneous fleets.

use crate::sweep::{
    DynamicPartialSweepReport, DynamicSweepConfig, DynamicSweepReport, PartialSweepReport,
    SweepConfig, SweepKind, SweepReport,
};

/// Why a partial set cannot be merged. Every variant names the offending
/// partial (by position in the input list) or job index, so a failed
/// fleet-scale merge is diagnosable without re-running anything.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// The input list was empty.
    NoPartials,
    /// A partial's flavour tag is not the one being merged (e.g. a
    /// dynamic partial handed to [`merge_static`], or mixed files).
    WrongFlavor {
        /// Position of the offending partial in the input list.
        partial: usize,
        /// The flavour expected by the merge being attempted.
        expected: &'static str,
        /// The flavour the partial carries.
        found: String,
    },
    /// A partial was produced by a different configuration.
    FingerprintMismatch {
        /// Position of the offending partial in the input list.
        partial: usize,
        /// Fingerprint of the first partial (the reference).
        expected: String,
        /// Fingerprint the offending partial carries.
        found: String,
    },
    /// Shared metadata disagrees despite matching fingerprints (a
    /// hand-edited or corrupted partial).
    MetadataMismatch {
        /// Position of the offending partial in the input list.
        partial: usize,
        /// Which field disagrees (`total_jobs`, `seed`, ...).
        field: &'static str,
    },
    /// A partial's covered range runs past the job space.
    OutOfBounds {
        /// Position of the offending partial in the input list.
        partial: usize,
        /// End of the partial's covered range.
        end: usize,
        /// Size of the job space.
        total: usize,
    },
    /// Two partials both cover this job index.
    Overlap {
        /// The doubly-covered global job index.
        job: usize,
    },
    /// No partial covers this job index.
    Gap {
        /// The uncovered global job index.
        job: usize,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::NoPartials => write!(f, "nothing to merge: no partial reports given"),
            MergeError::WrongFlavor {
                partial,
                expected,
                found,
            } => write!(
                f,
                "partial #{partial} is a `{found}` report, expected `{expected}` \
                 (static and dynamic sweeps cannot be merged together)"
            ),
            MergeError::FingerprintMismatch {
                partial,
                expected,
                found,
            } => write!(
                f,
                "partial #{partial} was produced by a different configuration: \
                 fingerprint {found}, expected {expected}"
            ),
            MergeError::MetadataMismatch { partial, field } => write!(
                f,
                "partial #{partial} disagrees on `{field}` despite a matching fingerprint"
            ),
            MergeError::OutOfBounds {
                partial,
                end,
                total,
            } => write!(
                f,
                "partial #{partial} covers indices up to {end} but the job space has \
                 only {total} jobs"
            ),
            MergeError::Overlap { job } => {
                write!(f, "job index {job} is covered by more than one partial")
            }
            MergeError::Gap { job } => write!(
                f,
                "job index {job} is covered by no partial: the set is not a full partition"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Merges a disjoint, fully covering set of partials (in any order) into
/// the report a single-process run of the same configuration would
/// produce, stripping machine-dependent `wall_ms` columns. Serializing the
/// result yields byte-identical JSON to `pombm sweep --json` without
/// `--timings`.
pub fn merge<K: SweepKind>(partials: &[K::Partial]) -> Result<K::Report, MergeError> {
    let first = partials.first().ok_or(MergeError::NoPartials)?;
    let reference = K::head(first);
    let total = reference.total_jobs;
    for (i, partial) in partials.iter().enumerate() {
        let head = K::head(partial);
        if head.flavor != K::FLAVOR {
            return Err(MergeError::WrongFlavor {
                partial: i,
                expected: K::FLAVOR,
                found: head.flavor,
            });
        }
        if head.fingerprint != reference.fingerprint {
            return Err(MergeError::FingerprintMismatch {
                partial: i,
                expected: reference.fingerprint,
                found: head.fingerprint,
            });
        }
        let field = if head.total_jobs != total {
            Some("total_jobs")
        } else if head.seed != reference.seed {
            Some("seed")
        } else if !K::same_meta(first, partial) {
            Some(K::META)
        } else {
            None
        };
        if let Some(field) = field {
            return Err(MergeError::MetadataMismatch { partial: i, field });
        }
        let end = head.start + K::cells(partial).len();
        if end > total {
            return Err(MergeError::OutOfBounds {
                partial: i,
                end,
                total,
            });
        }
    }
    let mut slots: Vec<Option<&K::Cell>> = vec![None; total];
    for partial in partials {
        let start = K::head(partial).start;
        for (offset, cell) in K::cells(partial).iter().enumerate() {
            let job = start + offset;
            if slots[job].is_some() {
                return Err(MergeError::Overlap { job });
            }
            slots[job] = Some(cell);
        }
    }
    let cells: Vec<&K::Cell> = slots
        .into_iter()
        .enumerate()
        .map(|(job, slot)| slot.ok_or(MergeError::Gap { job }))
        .collect::<Result<_, _>>()?;
    let cells = cells
        .into_iter()
        .map(|cell| {
            let mut cell = cell.clone();
            *K::wall_ms(&mut cell) = None;
            cell
        })
        .collect();
    Ok(K::report(first, cells))
}

/// Merges static partials into the [`SweepReport`] of a single-process
/// `pombm sweep`; [`merge`].
pub fn merge_static(partials: &[PartialSweepReport]) -> Result<SweepReport, MergeError> {
    merge::<SweepConfig>(partials)
}

/// Merges dynamic partials into the [`DynamicSweepReport`] of a
/// single-process `pombm sweep --dynamic`; [`merge`].
pub fn merge_dynamic(
    partials: &[DynamicPartialSweepReport],
) -> Result<DynamicSweepReport, MergeError> {
    merge::<DynamicSweepConfig>(partials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use crate::sweep::{run_range, run_sweep, sweep_job_count, PartitionPlan, SweepConfig};

    fn config() -> SweepConfig {
        SweepConfig {
            mechanisms: vec!["identity".into()],
            matchers: vec!["greedy".into(), "offline-opt".into()],
            scenarios: Vec::new(),
            sizes: vec![8, 10],
            epsilons: vec![0.6],
            repetitions: 1,
            shards: 2,
            timings: false,
            base: PipelineConfig {
                grid_side: 16,
                seed: 4,
                ..PipelineConfig::default()
            },
        }
    }

    #[test]
    fn balanced_partitions_reassemble_the_full_report() {
        let config = config();
        let full = serde_json::to_string(&run_sweep(&config).unwrap()).unwrap();
        let total = sweep_job_count(&config).unwrap();
        for n in [1usize, 2, 3, 4] {
            let partials: Vec<_> = (1..=n)
                .map(|i| {
                    let plan = PartitionPlan::new(i, n).unwrap();
                    run_range(&config, plan.slice(total)).unwrap()
                })
                .collect();
            let merged = serde_json::to_string(&merge_static(&partials).unwrap()).unwrap();
            assert_eq!(full, merged, "n = {n}");
        }
    }

    #[test]
    fn merge_accepts_partials_in_any_order() {
        let config = config();
        let total = sweep_job_count(&config).unwrap();
        let mut partials: Vec<_> = (1..=3usize)
            .map(|i| {
                let plan = PartitionPlan::new(i, 3).unwrap();
                run_range(&config, plan.slice(total)).unwrap()
            })
            .collect();
        partials.reverse();
        let merged = serde_json::to_string(&merge_static(&partials).unwrap()).unwrap();
        let full = serde_json::to_string(&run_sweep(&config).unwrap()).unwrap();
        assert_eq!(full, merged);
    }

    #[test]
    fn empty_overlapping_and_gappy_sets_are_typed_errors() {
        let config = config();
        let total = sweep_job_count(&config).unwrap();
        assert_eq!(merge_static(&[]).unwrap_err(), MergeError::NoPartials);

        let a = run_range(&config, 0..total).unwrap();
        let b = run_range(&config, 1..2).unwrap();
        assert_eq!(
            merge_static(&[a.clone(), b]).unwrap_err(),
            MergeError::Overlap { job: 1 }
        );

        let head = run_range(&config, 0..total - 1).unwrap();
        assert_eq!(
            merge_static(&[head]).unwrap_err(),
            MergeError::Gap { job: total - 1 }
        );

        let mut reseeded = config.clone();
        reseeded.base.seed = 5;
        let other = run_range(&reseeded, 0..1).unwrap();
        assert!(matches!(
            merge_static(&[a.clone(), other]),
            Err(MergeError::FingerprintMismatch { partial: 1, .. })
        ));

        let mut wrong = a.clone();
        wrong.flavor = "dynamic".into();
        assert!(matches!(
            merge_static(&[wrong]),
            Err(MergeError::WrongFlavor { partial: 0, .. })
        ));

        let head = run_range(&config, 0..2).unwrap();
        let mut tail = run_range(&config, 2..total).unwrap();
        tail.seed = 99; // hand-edited: fingerprint still matches
        assert_eq!(
            merge_static(&[head, tail]).unwrap_err(),
            MergeError::MetadataMismatch {
                partial: 1,
                field: "seed"
            }
        );

        let mut oob = a;
        oob.start = 1;
        assert!(matches!(
            merge_static(&[oob]),
            Err(MergeError::OutOfBounds { partial: 0, .. })
        ));
    }
}
