//! capsule-fuzz: seeded CAP64 program fuzzing with differential
//! checking across machine configurations and division policies.
//!
//! The crate generates *well-formed-by-construction* CAP64 programs
//! from a structured spec ([`spec`]), lowers them to the paper's three
//! program versions ([`codegen`]), and runs each program across a
//! matrix of machine configs and execution modes ([`matrix`],
//! [`harness`]), requiring bit-identical architectural results
//! everywhere. Divergences are auto-minimized by delta debugging over
//! the spec AST ([`mod@minimize`]) and written as replayable JSON artifacts
//! ([`artifact`]); minimized programs checked into `corpus/` are
//! embedded and replayed as regression tests ([`corpus`]).
//!
//! See `docs/FUZZ.md` for the full triage workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod codegen;
pub mod corpus;
pub mod harness;
pub mod invariants;
pub mod matrix;
pub mod minimize;
pub mod spec;

pub use artifact::Artifact;
pub use codegen::{build, BuildError};
pub use harness::{ArchDigest, Divergence, Harness, DEFAULT_BUDGET};
pub use matrix::{ExecMode, Matrix, MatrixPoint};
pub use minimize::{minimize, MinimizeStats};
pub use spec::{generate, input_words, GenParams, ProgramSpec, Version};

/// Options of a differential sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// First seed of the sweep.
    pub seed: u64,
    /// Number of programs (seeds `seed..seed+count`).
    pub count: u64,
    /// Config matrix to run each program on.
    pub matrix: Matrix,
    /// Per-run cycle budget.
    pub budget: u64,
    /// Delta-debug any divergence down to a minimal spec.
    pub minimize: bool,
    /// Generator tunables.
    pub params: GenParams,
}

impl SweepOptions {
    /// A reduced-matrix sweep of `count` programs starting at `seed`.
    pub fn new(seed: u64, count: u64) -> SweepOptions {
        SweepOptions {
            seed,
            count,
            matrix: Matrix::Reduced,
            budget: DEFAULT_BUDGET,
            minimize: true,
            params: GenParams::default(),
        }
    }
}

/// Outcome of [`sweep`].
#[derive(Debug, Default)]
pub struct SweepReport {
    /// Programs generated and checked.
    pub programs: u64,
    /// Programs per version name (`seq` / `static` / `component`).
    pub version_counts: Vec<(String, u64)>,
    /// Artifacts for every divergence found (minimized when requested).
    pub divergences: Vec<Artifact>,
    /// Minimization effort, summed over divergences.
    pub minimize_stats: MinimizeStats,
}

/// Runs a deterministic differential sweep. Every seed is generated,
/// lowered and swept across the matrix; divergent seeds are (optionally)
/// minimized and collected as artifacts. `fault` corrupts digests for
/// mutation-testing the pipeline itself — production sweeps pass
/// `None`.
pub fn sweep(opts: &SweepOptions, fault: Option<harness::FaultFn>) -> SweepReport {
    let mut harness = Harness::new(opts.matrix);
    harness.budget = opts.budget;
    harness.fault = fault;
    let mut report = SweepReport::default();

    for seed in opts.seed..opts.seed.saturating_add(opts.count) {
        let spec = generate(seed, opts.params);
        report.programs += 1;
        bump(&mut report.version_counts, spec.version.name());

        let diverged = match harness.run_spec(&spec) {
            Ok(None) => continue,
            Ok(Some(d)) => d,
            Err(e) => {
                // A generator/codegen bug, reported like a divergence so
                // sweeps never silently skip seeds.
                report.divergences.push(Artifact {
                    seed,
                    spec,
                    matrix: opts.matrix,
                    kind: "build-error".into(),
                    pair: (String::new(), String::new()),
                    detail: e.to_string(),
                    first_divergent_cycle: None,
                    near_miss: false,
                });
                continue;
            }
        };

        let (min_spec, final_div) = if opts.minimize {
            let (min_spec, stats) =
                minimize(&spec, &mut |cand| matches!(harness.run_spec(cand), Ok(Some(_))));
            report.minimize_stats.attempts += stats.attempts;
            report.minimize_stats.accepted += stats.accepted;
            let d = match harness.run_spec(&min_spec) {
                Ok(Some(d)) => d,
                _ => diverged.clone(),
            };
            (min_spec, d)
        } else {
            (spec, diverged)
        };
        report.divergences.push(Artifact::from_divergence(&min_spec, opts.matrix, &final_div));
    }
    report
}

fn bump(counts: &mut Vec<(String, u64)>, name: &str) {
    match counts.iter_mut().find(|(n, _)| n == name) {
        Some((_, c)) => *c += 1,
        None => counts.push((name.to_string(), 1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_sweep_reports_no_divergences() {
        let report = sweep(&SweepOptions::new(100, 8), None);
        assert_eq!(report.programs, 8);
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
        let total: u64 = report.version_counts.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn planted_bug_is_caught_and_minimized_to_a_tiny_reproducer() {
        // Mutation test for the whole pipeline: corrupt the memory
        // digest of every somt-greedy run, as a simulator bug that only
        // manifests under one division policy would. The sweep must
        // catch it on the first seed and delta-debug the reproducer to
        // the minimal skeleton (well under 30 instructions).
        let fault: harness::FaultFn = |point, digest| {
            if point.name.starts_with("somt-greedy") {
                digest.mem_fnv ^= 1;
            }
        };
        let mut opts = SweepOptions::new(0, 1);
        opts.params = GenParams { max_tasks: 6, max_body_ops: 6 };
        let report = sweep(&opts, Some(fault));
        assert_eq!(report.divergences.len(), 1, "planted bug must surface");
        let artifact = &report.divergences[0];
        assert!(
            artifact.pair.0.starts_with("somt-greedy")
                || artifact.pair.1.starts_with("somt-greedy")
                || artifact.kind == "interp",
            "divergence should implicate the faulty config: {artifact:?}"
        );
        let program = build(&artifact.spec).unwrap();
        assert!(
            program.text.len() <= 30,
            "minimized reproducer has {} instructions, want <= 30",
            program.text.len()
        );
        assert!(report.minimize_stats.accepted > 0);
    }

    #[test]
    fn sweeps_are_deterministic() {
        let a = sweep(&SweepOptions::new(7, 4), None);
        let b = sweep(&SweepOptions::new(7, 4), None);
        assert_eq!(a.programs, b.programs);
        assert_eq!(a.version_counts, b.version_counts);
        assert_eq!(a.divergences.len(), b.divergences.len());
    }
}
