//! Run results and errors of the cycle-level machine.

use std::time::Duration;

use capsule_core::codec::{CodecError, Reader, Writer};
use capsule_core::output::Json;
use capsule_core::stats::{DivisionTree, SectionTracker, SimStats};
use capsule_isa::program::ProgramError;
use capsule_mem::CacheStats;

use crate::exec::{OutValue, TrapKind};
use crate::trace::Trace;

/// Why a simulation ended abnormally.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The program failed validation.
    Program(ProgramError),
    /// The machine configuration failed validation.
    Config(String),
    /// More loader threads than hardware contexts.
    TooManyThreads {
        /// Threads requested by the program.
        requested: usize,
        /// Hardware contexts available.
        contexts: usize,
    },
    /// A thread trapped.
    Trap {
        /// Cycle of the trap.
        cycle: u64,
        /// Hardware context slot.
        slot: usize,
        /// PC of the faulting instruction.
        pc: u32,
        /// Cause.
        kind: TrapKind,
    },
    /// The cycle budget elapsed without `halt`.
    Timeout {
        /// Budget that elapsed.
        cycles: u64,
    },
    /// A [`crate::cancel::CancelToken`] was tripped while the run was in
    /// flight (operator cancel or server shutdown).
    Cancelled {
        /// Cycle at which the cancellation was observed.
        cycle: u64,
    },
    /// Every worker died with no `halt` (missing join or deadlock).
    AllThreadsDead {
        /// Cycle at which the machine emptied.
        cycle: u64,
    },
    /// A snapshot blob was rejected by
    /// [`Machine::restore_snapshot`](crate::Machine::restore_snapshot):
    /// wrong magic/format version, config/program mismatch, or a
    /// truncated/corrupted payload.
    SnapshotMismatch {
        /// What was wrong with the blob.
        reason: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Program(e) => write!(f, "invalid program: {e}"),
            SimError::Config(e) => write!(f, "invalid machine config: {e}"),
            SimError::TooManyThreads { requested, contexts } => {
                write!(
                    f,
                    "program wants {requested} loader threads, machine has {contexts} contexts"
                )
            }
            SimError::Trap { cycle, slot, pc, kind } => {
                write!(f, "cycle {cycle}: context {slot} trapped at pc {pc}: {kind}")
            }
            SimError::Timeout { cycles } => write!(f, "no halt within {cycles} cycles"),
            SimError::Cancelled { cycle } => write!(f, "cancelled at cycle {cycle}"),
            SimError::AllThreadsDead { cycle } => {
                write!(f, "all workers dead at cycle {cycle} without halt")
            }
            SimError::SnapshotMismatch { reason } => {
                write!(f, "snapshot rejected: {reason}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<ProgramError> for SimError {
    fn from(e: ProgramError) -> Self {
        SimError::Program(e)
    }
}

/// Everything a completed (halted) run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Pipeline and CAPSULE counters.
    pub stats: SimStats,
    /// Values emitted by `out`/`outf` in dispatch order.
    pub output: Vec<OutValue>,
    /// Componentized-section accounting (`mark.*`).
    pub sections: SectionTracker,
    /// Worker division genealogy (Figure 6).
    pub tree: DivisionTree,
    /// L1 instruction cache statistics.
    pub l1i: CacheStats,
    /// L1 data cache statistics.
    pub l1d: CacheStats,
    /// Unified L2 statistics.
    pub l2: CacheStats,
    /// Main-memory accesses.
    pub mem_accesses: u64,
    /// Per-stage self-profile, when enabled via
    /// [`Machine::enable_profile`](crate::Machine::enable_profile).
    pub profile: Option<StageProfile>,
    /// The CAPSULE event trace, when enabled via
    /// [`Machine::enable_trace`](crate::Machine::enable_trace) —
    /// consumed by [`crate::chrome::chrome_trace`] for timeline export.
    pub trace: Option<Trace>,
}

/// Work counters of one pipeline stage (see [`StageProfile`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCount {
    /// Cycles in which the stage processed at least one entry.
    pub active_cycles: u64,
    /// Total entries processed (instructions fetched, dispatched, issued,
    /// completed or committed, depending on the stage).
    pub units: u64,
}

impl StageCount {
    /// Folds one cycle's work into the counter.
    pub(crate) fn record(&mut self, units: u64) {
        if units > 0 {
            self.active_cycles += 1;
            self.units += units;
        }
    }
}

/// Lightweight per-stage self-profile of a run, for diagnosing hot-path
/// regressions without an external profiler. Enabled via
/// [`Machine::enable_profile`](crate::Machine::enable_profile); collecting
/// it does not perturb any simulated number.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageProfile {
    /// Fetch-stage work.
    pub fetch: StageCount,
    /// Dispatch-stage work.
    pub dispatch: StageCount,
    /// Issue-stage work.
    pub issue: StageCount,
    /// Complete-stage work (entries leaving the completion wheel).
    pub complete: StageCount,
    /// Commit-stage work.
    pub commit: StageCount,
    /// Cycles actually stepped through the full stage pipeline.
    pub stepped_cycles: u64,
    /// Idle fast-forward jumps taken.
    pub fast_forwards: u64,
    /// Cycles skipped by fast-forward (still counted in `stats.cycles`).
    pub skipped_cycles: u64,
}

impl StageProfile {
    /// The profile as a JSON object (stage → `{active_cycles, units}`
    /// plus the stepped/fast-forward counters) — the shape returned by
    /// `capsule-serve` for `profile: true` requests and embedded in
    /// Chrome-trace exports.
    pub fn to_json(&self) -> Json {
        let stage = |c: &StageCount| {
            let mut o = Json::object();
            o.push("active_cycles", c.active_cycles).push("units", c.units);
            o
        };
        let mut o = Json::object();
        o.push("fetch", stage(&self.fetch))
            .push("dispatch", stage(&self.dispatch))
            .push("issue", stage(&self.issue))
            .push("complete", stage(&self.complete))
            .push("commit", stage(&self.commit))
            .push("stepped_cycles", self.stepped_cycles)
            .push("fast_forwards", self.fast_forwards)
            .push("skipped_cycles", self.skipped_cycles);
        o
    }
}

/// Host time spent in each pipeline stage while the stage profile is
/// on, read with [`Machine::stage_times`](crate::Machine::stage_times)
/// (an estimate from a sample of the stepped cycles).
/// It measures the simulator, not the simulated machine, and differs
/// from run to run, so it is kept out of [`StageProfile`], out of
/// [`SimOutcome`] and out of snapshots. Time outside the five stages
/// (state expiry, the swap check, fast-forward, run-loop bookkeeping) is
/// not charged to any of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Fetch stage.
    pub fetch: Duration,
    /// Dispatch stage (including functional execution).
    pub dispatch: Duration,
    /// Issue stage (including data-cache accesses).
    pub issue: Duration,
    /// Complete stage (completion events and wakeups).
    pub complete: Duration,
    /// Commit stage.
    pub commit: Duration,
}

impl StageTimes {
    /// The five stages as `(name, time)`, in pipeline order.
    pub fn stages(&self) -> [(&'static str, Duration); 5] {
        [
            ("fetch", self.fetch),
            ("dispatch", self.dispatch),
            ("issue", self.issue),
            ("complete", self.complete),
            ("commit", self.commit),
        ]
    }

    /// Every stage's time multiplied by `k`.
    pub(crate) fn scaled(self, k: u32) -> StageTimes {
        StageTimes {
            fetch: self.fetch * k,
            dispatch: self.dispatch * k,
            issue: self.issue * k,
            complete: self.complete * k,
            commit: self.commit * k,
        }
    }

    /// Adds `other`'s times stage by stage.
    pub fn add(&mut self, other: &StageTimes) {
        self.fetch += other.fetch;
        self.dispatch += other.dispatch;
        self.issue += other.issue;
        self.complete += other.complete;
        self.commit += other.commit;
    }
}

impl SimOutcome {
    /// Total cycles of the run.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Serializes the complete outcome — stats, output, sections, tree,
    /// cache counters, and the optional profile/trace — with the shared
    /// byte codec. Used by checkpoint blobs to carry already-finished
    /// runs across a preemption.
    pub fn encode(&self, w: &mut Writer) {
        self.stats.encode(w);
        w.usize(self.output.len());
        for v in &self.output {
            match v {
                OutValue::Int(i) => {
                    w.u8(0);
                    w.i64(*i);
                }
                OutValue::Float(x) => {
                    w.u8(1);
                    w.f64(*x);
                }
            }
        }
        self.sections.encode(w);
        self.tree.encode(w);
        for c in [&self.l1i, &self.l1d, &self.l2] {
            w.u64(c.accesses);
            w.u64(c.hits);
            w.u64(c.misses);
        }
        w.u64(self.mem_accesses);
        match &self.profile {
            None => w.u8(0),
            Some(p) => {
                w.u8(1);
                crate::snapshot::encode_stage_profile(w, p);
            }
        }
        match &self.trace {
            None => w.u8(0),
            Some(t) => {
                w.u8(1);
                t.encode(w);
            }
        }
    }

    /// Decodes an outcome written by [`SimOutcome::encode`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on a truncated or malformed buffer.
    pub fn decode(r: &mut Reader<'_>) -> Result<SimOutcome, CodecError> {
        let stats = SimStats::decode(r)?;
        let n = r.usize()?;
        if n > (1 << 24) {
            return Err(CodecError::Invalid("implausible output count"));
        }
        let mut output = Vec::with_capacity(n);
        for _ in 0..n {
            output.push(match r.u8()? {
                0 => OutValue::Int(r.i64()?),
                1 => OutValue::Float(r.f64()?),
                _ => return Err(CodecError::Invalid("bad output value tag")),
            });
        }
        let sections = SectionTracker::decode(r)?;
        let tree = DivisionTree::decode(r)?;
        let mut caches = [CacheStats::default(); 3];
        for c in &mut caches {
            c.accesses = r.u64()?;
            c.hits = r.u64()?;
            c.misses = r.u64()?;
        }
        let [l1i, l1d, l2] = caches;
        let mem_accesses = r.u64()?;
        let profile = match r.u8()? {
            0 => None,
            1 => Some(crate::snapshot::decode_stage_profile(r)?),
            _ => return Err(CodecError::Invalid("bad profile tag")),
        };
        let trace = match r.u8()? {
            0 => None,
            1 => Some(Trace::decode(r)?),
            _ => return Err(CodecError::Invalid("bad trace tag")),
        };
        Ok(SimOutcome { stats, output, sections, tree, l1i, l1d, l2, mem_accesses, profile, trace })
    }

    /// Integer output values, ignoring floats.
    pub fn ints(&self) -> Vec<i64> {
        self.output.iter().filter_map(OutValue::as_int).collect()
    }

    /// Float output values, ignoring ints.
    pub fn floats(&self) -> Vec<f64> {
        self.output.iter().filter_map(OutValue::as_float).collect()
    }
}
