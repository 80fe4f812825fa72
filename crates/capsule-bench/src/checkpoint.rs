//! Checkpointed batch execution: park-on-demand machine snapshots and
//! resume-from-blob.
//!
//! A checkpointed job runs its scenarios **serially** on one warmed
//! machine so the in-flight scenario can be snapshotted at any cycle
//! boundary. Every `interval` simulated cycles, and before each
//! scenario, the runner asks its caller whether the job should park.
//! Only a job that parks pays for a
//! [`Machine::snapshot`](capsule_sim::Machine::snapshot): it returns
//! [`CheckpointOutcome::Preempted`] with a blob of the already-finished
//! outcomes plus the snapshot of the scenario in progress. Feeding that
//! blob back via `resume` continues the batch cycle-for-cycle as if it
//! had never been interrupted, so the final [`BatchReport`] is
//! byte-identical to an uninterrupted run (pinned by the
//! `checkpoint` integration tests).
//!
//! Blob layout: `MAGIC (u64) | VERSION (u32) | scenario_count |
//! next_index | next_index × SimOutcome | has_snapshot (u8) [| machine
//! snapshot bytes]`. Every section is length-prefixed and validated;
//! a rejected blob surfaces as [`CheckpointFailure::Blob`], never a
//! panic. The embedded machine snapshot carries its own config/program
//! hash, so a blob can only resume the job it was taken from.

use capsule_core::codec::{CodecError, Reader, Writer};
use capsule_sim::cancel::CancelToken;
use capsule_sim::machine::WarmMachine;
use capsule_sim::SimOutcome;

use crate::scenario::{BatchError, BatchReport, RunFailure, RunRecord, Scenario};
use crate::RunOptions;

/// Magic prefix of a job checkpoint blob (`"CAPJOBC1"` little-endian).
pub const MAGIC: u64 = u64::from_le_bytes(*b"CAPJOBC1");

/// Job-checkpoint format version; restore rejects other versions.
pub const VERSION: u32 = 1;

/// How a checkpointed batch ended.
#[derive(Debug)]
pub enum CheckpointOutcome {
    /// Every scenario finished; the report is identical to an
    /// uninterrupted [`BatchRunner`](crate::BatchRunner) run of the same
    /// batch on one worker.
    Done(BatchReport),
    /// `should_park` answered yes at a boundary; the blob resumes the
    /// batch via [`run_checkpointed`]'s `resume`.
    Preempted(Vec<u8>),
}

/// Why a checkpointed batch failed.
#[derive(Debug)]
pub enum CheckpointFailure {
    /// A scenario failed to build, simulate, or validate.
    Batch(Box<BatchError>),
    /// The resume blob was rejected (wrong magic/version, truncated,
    /// corrupted, or taken from a different job).
    Blob(String),
}

impl std::fmt::Display for CheckpointFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointFailure::Batch(e) => write!(f, "{e}"),
            CheckpointFailure::Blob(reason) => write!(f, "checkpoint rejected: {reason}"),
        }
    }
}

impl std::error::Error for CheckpointFailure {}

/// Completed-outcome prefix plus the optional in-flight machine
/// snapshot, as decoded from a checkpoint blob.
struct ResumeState {
    outcomes: Vec<SimOutcome>,
    machine: Option<Vec<u8>>,
}

fn encode_blob(outcomes: &[SimOutcome], scenario_count: usize, machine: Option<&[u8]>) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(MAGIC);
    w.u32(VERSION);
    w.usize(scenario_count);
    w.usize(outcomes.len());
    for o in outcomes {
        o.encode(&mut w);
    }
    match machine {
        None => w.u8(0),
        Some(snap) => {
            w.u8(1);
            w.bytes(snap);
        }
    }
    w.into_bytes()
}

fn decode_blob(blob: &[u8], scenario_count: usize) -> Result<ResumeState, CheckpointFailure> {
    let fail = |reason: String| CheckpointFailure::Blob(reason);
    let codec = |e: CodecError| CheckpointFailure::Blob(e.to_string());
    let mut r = Reader::new(blob);
    let magic = r.u64().map_err(|_| fail("blob shorter than the checkpoint header".into()))?;
    if magic != MAGIC {
        return Err(fail("not a capsule job checkpoint (bad magic)".into()));
    }
    let version = r.u32().map_err(codec)?;
    if version != VERSION {
        return Err(fail(format!("format version {version}, this build reads {VERSION}")));
    }
    let count = r.usize().map_err(codec)?;
    if count != scenario_count {
        return Err(fail(format!(
            "checkpoint covers {count} scenarios, this job has {scenario_count}"
        )));
    }
    let done = r.usize().map_err(codec)?;
    if done > count {
        return Err(fail(format!("{done} completed outcomes out of {count} scenarios")));
    }
    let mut outcomes = Vec::with_capacity(done);
    for _ in 0..done {
        outcomes.push(SimOutcome::decode(&mut r).map_err(codec)?);
    }
    let machine = match r.u8().map_err(codec)? {
        0 => None,
        1 => Some(r.bytes().map_err(codec)?.to_vec()),
        _ => return Err(fail("bad machine-snapshot tag".into())),
    };
    if !r.is_empty() {
        return Err(fail("trailing bytes after checkpoint body".into()));
    }
    Ok(ResumeState { outcomes, machine })
}

fn batch_err(scenarios: &[Scenario], index: usize, failure: RunFailure) -> CheckpointFailure {
    let sc = &scenarios[index];
    CheckpointFailure::Batch(Box::new(BatchError {
        index,
        group: sc.group.clone(),
        label: sc.label.clone(),
        workload: sc.workload.name().to_string(),
        failure,
    }))
}

/// Runs `scenarios` serially, parking on demand.
///
/// Every `interval` cycles of the in-flight scenario (0 disables
/// mid-run boundaries) and before each scenario starts, the runner
/// polls `should_park`. When it answers yes, the batch stops at that
/// cycle boundary and returns [`CheckpointOutcome::Preempted`] with a
/// blob of its state; no snapshot is taken otherwise. Pass a previous
/// blob as `resume` to continue a parked batch; the final report is
/// byte-identical to an uninterrupted run.
///
/// # Errors
///
/// [`CheckpointFailure::Blob`] if the resume blob is rejected;
/// [`CheckpointFailure::Batch`] when a scenario fails (same failure the
/// [`BatchRunner`](crate::BatchRunner) would report).
#[allow(clippy::too_many_arguments)]
pub fn run_checkpointed(
    title: impl Into<String>,
    scenarios: Vec<Scenario>,
    budget: u64,
    cancel: Option<&CancelToken>,
    opts: RunOptions,
    warm: &mut WarmMachine,
    interval: u64,
    resume: Option<&[u8]>,
    mut should_park: impl FnMut() -> bool,
) -> Result<CheckpointOutcome, CheckpointFailure> {
    let title = title.into();
    let mut outcomes: Vec<SimOutcome> = Vec::new();
    let mut in_flight: Option<Vec<u8>> = None;
    if let Some(blob) = resume {
        let state = decode_blob(blob, scenarios.len())?;
        outcomes = state.outcomes;
        in_flight = state.machine;
    }

    while outcomes.len() < scenarios.len() {
        let index = outcomes.len();
        if should_park() {
            // Re-park without losing a carried-over in-flight snapshot.
            return Ok(CheckpointOutcome::Preempted(encode_blob(
                &outcomes,
                scenarios.len(),
                in_flight.as_deref(),
            )));
        }
        let sc = &scenarios[index];
        let program = sc.workload.program(sc.variant);
        let m = warm
            .prepare(sc.config.clone(), &program)
            .map_err(|e| batch_err(&scenarios, index, RunFailure::Build(e)))?;
        if let Some(tok) = cancel {
            m.set_cancel_token(tok.clone());
        }
        if opts.profile {
            m.enable_profile();
        }
        if let Some(limit) = opts.trace {
            m.enable_trace(limit);
        }
        if let Some(snap) = in_flight.take() {
            // The snapshot's config/program hash rejects a blob taken
            // from any other scenario, so a stale or swapped blob fails
            // here instead of producing wrong numbers.
            m.restore_snapshot(&snap).map_err(|e| CheckpointFailure::Blob(e.to_string()))?;
        }
        let outcome = loop {
            // interval == 0 disables pausing entirely (checked_div -> None).
            let next_pause = match m.cycle().checked_div(interval) {
                None => u64::MAX,
                Some(periods) => (periods + 1).saturating_mul(interval),
            };
            match m.run_until(budget, next_pause) {
                Ok(Some(outcome)) => break outcome,
                Ok(None) if should_park() => {
                    let snap = m.snapshot();
                    let blob = encode_blob(&outcomes, scenarios.len(), Some(&snap));
                    return Ok(CheckpointOutcome::Preempted(blob));
                }
                Ok(None) => {}
                Err(e) => return Err(batch_err(&scenarios, index, RunFailure::Sim(e))),
            }
        };
        sc.workload
            .check(&outcome.output)
            .map_err(|e| batch_err(&scenarios, index, RunFailure::Check(e)))?;
        outcomes.push(outcome);
    }

    let records = scenarios
        .iter()
        .zip(outcomes)
        .map(|(sc, outcome)| RunRecord {
            group: sc.group.clone(),
            label: sc.label.clone(),
            workload: sc.workload.name(),
            variant: crate::scenario::variant_name(sc.variant),
            outcome,
        })
        .collect();
    Ok(CheckpointOutcome::Done(BatchReport { title, records }))
}
