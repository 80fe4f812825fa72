//! The cycle-level SOMT/SMT/superscalar machine.
//!
//! Timing follows the SimpleScalar `sim-outorder` discipline the paper
//! built on: instructions execute **functionally at dispatch, in program
//! order per thread**, while a register-update-unit (RUU) and load/store
//! queue model issue, execution and commit timing. See DESIGN.md for the
//! documented simplifications (wrong-path instructions are fetched but not
//! dispatched; lock stalls halt dispatch instead of replaying squashed
//! instructions).
//!
//! CAPSULE behaviour implemented here:
//!
//! - `nthr` consults the [`DivisionPolicy`] at dispatch. A granted request
//!   seizes a free hardware context (child stalls for the register-copy
//!   latency; parent stalls one cycle) or, when enabled, parks the child on
//!   the LIFO context stack. A denied request writes −1 and falls through.
//! - `kthr` drains the thread and frees its context; deaths feed the
//!   division throttle (deaths within 128 cycles ≥ contexts/2 ⇒ deny).
//! - Threads whose loads run slower than the moving average of the last
//!   1000 loads accumulate a counter; past the threshold they are swapped
//!   out to the context stack (when contexts are contended), as in §3.1.
//! - `mlock`/`munlock` drive the fast lock table; a blocked thread stops
//!   dispatching and pays a squash penalty when ownership arrives.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use capsule_core::codec::{CodecError, Reader, Writer};
use capsule_core::config::MachineConfig;
use capsule_core::policy::{DivisionDecision, DivisionPolicy, DivisionRequest};
use capsule_core::stats::{BirthPlace, DivisionTree, SectionTracker, SimStats};
use capsule_isa::decode::{decode_text, DecodedText, FetchClass, NO_REG};
use capsule_isa::instr::{FuClass, INSTR_BYTES};
use capsule_isa::program::Program;
use capsule_mem::{Hierarchy, ServedBy};

use crate::arena::{EntryArena, EntryRef};
use crate::cancel::CancelToken;
use crate::exec::{step, ArchState, Effect, Memory, OutValue};
use crate::locks::{AcquireResult, LockTable, ReleaseResult};
use crate::outcome::{SimError, SimOutcome, StageProfile, StageTimes};
use crate::pipeline::{
    AfterDrain, ContextStack, Fetched, SavedThread, SlotState, Thread, FETCH_QUEUE_CAP,
};
use crate::predictor::Predictor;
use crate::trace::{Trace, TraceKind};
use crate::wheel::Wheel;

/// Maximum memory instructions issued per cycle (per L1-D port).
const MEM_ISSUE_PER_PORT: usize = 1;

/// The profile times the stages of one stepped cycle in this many (a
/// power of two). Reading the clock around every stage of every cycle
/// added a fifth to a half to a profiled run's host time.
const STAGE_TIME_SAMPLE: u64 = 16;

#[derive(Debug)]
struct Slot {
    state: SlotState,
    thread: Option<Thread>,
}

/// One core's issue counters for a cycle: the issue bandwidth at
/// [`ISSUE`], then one functional-unit pool per class (see [`pool_of`]).
type Pools = [usize; 6];

/// Index of the issue bandwidth in [`Pools`].
const ISSUE: usize = 0;

/// Index of `fu`'s functional-unit pool in [`Pools`].
fn pool_of(fu: FuClass) -> usize {
    match fu {
        FuClass::IntAlu => 1,
        FuClass::IntMult => 2,
        FuClass::FpAlu => 3,
        FuClass::FpMult => 4,
        FuClass::Mem => 5,
        FuClass::None => unreachable!("inert entries never enter the ready list"),
    }
}

/// Reusable per-cycle buffers, hoisted out of the stage loops so the
/// steady-state cycle loop performs no heap allocation.
#[derive(Debug, Default)]
struct Scratch {
    /// commit/dispatch: per-core bandwidth budgets.
    budgets: Vec<usize>,
    /// commit: slots whose drain completed this cycle.
    drained: Vec<usize>,
    /// fetch: `(icount, slot)` eligibility list of one core.
    eligible: Vec<(usize, usize)>,
    /// issue: per-core issue bandwidth and functional-unit pools.
    pools: Vec<Pools>,
}

/// What the machine can do next, as seen by the idle fast-forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wakeup {
    /// Some stage can make progress in the next cycle: step normally.
    Busy,
    /// Nothing can happen before this cycle: jump straight to it.
    At(u64),
    /// No future event exists (every thread is deadlocked or stuck): the
    /// run can only end by exhausting its cycle budget.
    Never,
}

/// The machine.
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    /// FNV-1a identity of (config, program); snapshots only restore into
    /// a machine with the same signature.
    sig: u64,
    /// Decoded program text: per-pc pre-extracted metadata shared (and
    /// cached) across machines running the same program.
    text: Arc<DecodedText>,
    mem: Memory,
    hier: Hierarchy,
    pred: Predictor,
    slots: Vec<Slot>,
    /// The core of each context slot.
    slot_core: Vec<usize>,
    stack: ContextStack,
    locks: LockTable,
    policy: DivisionPolicy,

    cycle: u64,
    seq: u64,
    halted: bool,

    /// Per-core RUU / LSQ occupancy (a CMP core owns its own window).
    ruu_used: Vec<usize>,
    lsq_used: Vec<usize>,

    /// Struct-of-arrays storage for every in-flight window entry; threads
    /// hold dense `u32` indices into it.
    arena: EntryArena,

    output: Vec<OutValue>,
    stats: SimStats,
    sections: SectionTracker,
    tree: DivisionTree,
    live_workers: u64,

    load_lat_window: VecDeque<u64>,
    load_lat_sum: u64,

    /// Pending completion events by due cycle. Filled at issue, fired by
    /// `complete_stage`. An entry that blocks completion also blocks
    /// commit, so the slot's thread cannot die or swap before the event
    /// fires and its arena slot cannot be reused.
    completions: Wheel,
    /// `(seq, slot, arena_idx)` of every entry whose operands are all
    /// complete but which has not issued, oldest first across all slots
    /// and cores (the shared L2 and the load-latency average see issue
    /// in this order). Dispatch appends, a wakeup inserts in place, and
    /// issue removes the winners.
    ready: Vec<(u64, usize, u32)>,
    /// Reusable per-cycle stage buffers (no steady-state allocation).
    scratch: Scratch,
    /// `log2(line_bytes)` when the line size is a power of two (it always
    /// is for the paper's configs); lets fetch compute line numbers with a
    /// shift instead of a division.
    line_shift: Option<u32>,
    /// Per-stage self-profile, when enabled.
    profile: Option<Box<StageProfile>>,
    /// Host time per stage, accumulated while the profile is enabled.
    stage_times: StageTimes,
    /// What one clock read costs, measured when the profile is enabled;
    /// every stage lap carries one, and `charge` takes it back out.
    clock_cost: Duration,

    trace: Option<Trace>,
    cancel: Option<CancelToken>,
}

/// Heap allocations scavenged from a retired machine and threaded into
/// the next one by [`Machine::reset`]: the construction path is identical
/// to a fresh machine, only the backing buffers are reused.
#[derive(Debug, Default)]
struct Recycled {
    mem: Vec<u8>,
    /// The cache hierarchy, cleared, when it already fits the next
    /// configuration.
    hier: Option<Hierarchy>,
    arena: EntryArena,
    completions: Wheel,
    ready: Vec<(u64, usize, u32)>,
    scratch: Scratch,
    output: Vec<OutValue>,
    load_lat_window: VecDeque<u64>,
}

impl Machine {
    /// Loads `program` onto a machine configured by `cfg`.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] / [`SimError::Program`] on validation failures,
    /// [`SimError::TooManyThreads`] when the program asks for more loader
    /// threads than the machine has contexts.
    pub fn new(cfg: MachineConfig, program: &Program) -> Result<Self, SimError> {
        Self::validate(&cfg, program)?;
        Ok(Self::build(cfg, program, Recycled::default()))
    }

    /// Rebuilds this machine in place for a new run of `program` under
    /// `cfg`, reusing the retired machine's heap allocations (data memory,
    /// entry arena, completion wheel, ready list, stage scratch, and the
    /// cache hierarchy when its geometry, memory latency and core count
    /// are unchanged, cleared instead of rebuilt). The resulting state is
    /// constructed exactly like [`Machine::new`]'s, so a reset machine is
    /// cycle-for-cycle identical to a fresh one; only allocator traffic
    /// differs. Profile/trace enablement and any cancel token are cleared.
    ///
    /// On a validation error the machine is left untouched.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Machine::new`].
    pub fn reset(&mut self, cfg: MachineConfig, program: &Program) -> Result<(), SimError> {
        Self::validate(&cfg, program)?;
        let recycled = Recycled {
            mem: std::mem::replace(&mut self.mem, Memory::new(0, 0, &[])).into_buffer(),
            hier: self.hier.fits(&cfg).then(|| {
                self.hier.reset();
                std::mem::take(&mut self.hier)
            }),
            arena: std::mem::take(&mut self.arena),
            completions: std::mem::take(&mut self.completions),
            ready: std::mem::take(&mut self.ready),
            scratch: std::mem::take(&mut self.scratch),
            output: std::mem::take(&mut self.output),
            load_lat_window: std::mem::take(&mut self.load_lat_window),
        };
        *self = Self::build(cfg, program, recycled);
        Ok(())
    }

    fn validate(cfg: &MachineConfig, program: &Program) -> Result<(), SimError> {
        cfg.validate().map_err(SimError::Config)?;
        program.validate()?;
        if program.threads.len() > cfg.contexts {
            return Err(SimError::TooManyThreads {
                requested: program.threads.len(),
                contexts: cfg.contexts,
            });
        }
        Ok(())
    }

    fn build(cfg: MachineConfig, program: &Program, mut recycled: Recycled) -> Self {
        let mem =
            Memory::recycled(recycled.mem, program.mem_size, capsule_isa::DATA_BASE, &program.data);
        recycled.arena.clear();
        recycled.completions.clear();
        recycled.ready.clear();
        recycled.output.clear();
        recycled.load_lat_window.clear();
        let hier = recycled.hier.take().unwrap_or_else(|| Hierarchy::new_cmp(&cfg, cfg.cores));
        let pred = Predictor::new(cfg.predictor);
        let policy = DivisionPolicy::from_config(&cfg);
        let stack = ContextStack::new(cfg.context_stack_entries);
        let locks = LockTable::new(cfg.lock_table_entries);

        let mut slots: Vec<Slot> =
            (0..cfg.contexts).map(|_| Slot { state: SlotState::Free, thread: None }).collect();
        let mut tree = DivisionTree::new();
        for (i, t) in program.threads.iter().enumerate() {
            let worker = tree.record_birth(None, 0, BirthPlace::Loader);
            let mut arch = ArchState::new(t.pc, worker);
            for &(r, v) in &t.int_regs {
                arch.set(r, v);
            }
            for &(f, v) in &t.fp_regs {
                arch.setf(f, v);
            }
            slots[i] = Slot { state: SlotState::Active, thread: Some(Thread::new(arch)) };
        }
        let live = program.threads.len() as u64;

        let mut stats = SimStats::new();
        stats.max_live_workers = live;
        let cores = cfg.cores;
        let per_core = cfg.contexts / cores;
        let slot_core = (0..cfg.contexts).map(|i| i / per_core).collect();
        let line_bytes = hier.line_bytes();
        let line_shift = line_bytes.is_power_of_two().then(|| line_bytes.trailing_zeros());

        Machine {
            sig: crate::snapshot::machine_sig(&cfg, program),
            cfg,
            text: decode_text(&program.text),
            mem,
            hier,
            pred,
            slots,
            slot_core,
            stack,
            locks,
            policy,
            cycle: 0,
            seq: 0,
            halted: false,
            ruu_used: vec![0; cores],
            lsq_used: vec![0; cores],
            arena: recycled.arena,
            output: recycled.output,
            stats,
            sections: SectionTracker::new(),
            tree,
            live_workers: live,
            load_lat_window: recycled.load_lat_window,
            load_lat_sum: 0,
            completions: recycled.completions,
            ready: recycled.ready,
            scratch: recycled.scratch,
            line_shift,
            profile: None,
            stage_times: StageTimes::default(),
            clock_cost: Duration::ZERO,
            trace: None,
            cancel: None,
        }
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// True once `halt` has executed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Read access to data memory (result extraction).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Division genealogy so far.
    pub fn tree(&self) -> &DivisionTree {
        &self.tree
    }

    /// Enables CAPSULE-event tracing (divisions, deaths, swaps, locks,
    /// sections), retaining at most `limit` events. Call before `run`.
    pub fn enable_trace(&mut self, limit: usize) {
        self.trace = Some(Trace::new(limit));
    }

    /// The event trace, if enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    fn trace_event(&mut self, kind: TraceKind) {
        if let Some(tr) = self.trace.as_mut() {
            tr.push(self.cycle, kind);
        }
    }

    /// Enables the per-stage self-profile: cycles with work and entries
    /// processed per pipeline stage, plus idle fast-forward counters,
    /// reported in [`SimOutcome::profile`], and the host time of each
    /// stage, read with [`Machine::stage_times`]. Call before `run`.
    pub fn enable_profile(&mut self) {
        self.profile = Some(Box::default());
        self.restart_stage_times();
    }

    /// Zeroes the stage times and measures what one clock read costs.
    fn restart_stage_times(&mut self) {
        const READS: u32 = 64;
        self.stage_times = StageTimes::default();
        self.clock_cost = (0..8)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..READS {
                    std::hint::black_box(Instant::now());
                }
                start.elapsed() / READS
            })
            .min()
            .unwrap_or_default();
    }

    /// Host time spent in each pipeline stage since the profile was
    /// enabled (or since a snapshot carrying a profile was restored);
    /// `None` while the profile is off. It is estimated from one stepped
    /// cycle in 16, scaled up. Host time differs from run to run, so it
    /// stays out of [`SimOutcome`] and out of snapshots.
    pub fn stage_times(&self) -> Option<StageTimes> {
        self.profile.is_some().then(|| self.stage_times.scaled(STAGE_TIME_SAMPLE as u32))
    }

    /// Installs a cancellation token, polled once per cycle by [`run`].
    /// Tripping it makes an in-flight `run` return
    /// [`SimError::Cancelled`] at the next cycle boundary.
    ///
    /// [`run`]: Machine::run
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Runs until `halt` or until `max_cycles` have elapsed.
    ///
    /// # Errors
    ///
    /// See [`SimError`]; on error the machine state is left at the failing
    /// cycle for inspection.
    pub fn run(&mut self, max_cycles: u64) -> Result<SimOutcome, SimError> {
        match self.run_until(max_cycles, u64::MAX) {
            Ok(Some(outcome)) => Ok(outcome),
            // The timeout check precedes the pause check, so a pause at
            // u64::MAX can never be reached.
            Ok(None) => unreachable!("run never pauses"),
            Err(e) => Err(e),
        }
    }

    /// Runs like [`Machine::run`] but pauses once the cycle counter
    /// reaches `pause_at`, returning `Ok(None)` with the machine parked
    /// at a cycle boundary — ready to be [snapshotted](Machine::snapshot)
    /// and later resumed (here or in a restored machine) with the same
    /// budget. A resumed run is cycle-for-cycle identical to one that
    /// never paused.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Machine::run`].
    pub fn run_until(
        &mut self,
        max_cycles: u64,
        pause_at: u64,
    ) -> Result<Option<SimOutcome>, SimError> {
        while !self.halted {
            if let Some(tok) = &self.cancel {
                if tok.is_cancelled() {
                    return Err(SimError::Cancelled { cycle: self.cycle });
                }
            }
            if self.cycle >= max_cycles {
                return Err(SimError::Timeout { cycles: max_cycles });
            }
            if self.cycle >= pause_at {
                return Ok(None);
            }
            self.step_cycle()?;
            if !self.halted {
                if self.machine_empty() {
                    return Err(SimError::AllThreadsDead { cycle: self.cycle });
                }
                self.fast_forward(max_cycles);
            }
        }
        Ok(Some(self.outcome()))
    }

    /// Idle-cycle fast-forward: when no stage can make progress before a
    /// known future cycle, jump straight there, accounting statistics
    /// exactly as if the idle cycles had been stepped one by one (nothing
    /// happens in them, so only `cycles` and the active-context integral
    /// advance).
    fn fast_forward(&mut self, max_cycles: u64) {
        let target = match self.next_wakeup() {
            Wakeup::Busy => return,
            Wakeup::At(t) => t.min(max_cycles),
            // No future event at all (e.g. every thread deadlocked on a
            // lock): the run can only end by exhausting its budget, which
            // surfaces as the same `Timeout` the stepped loop reaches.
            Wakeup::Never => max_cycles,
        };
        if target <= self.cycle {
            return;
        }
        let skip = target - self.cycle;
        let active = self.slots.iter().filter(|s| s.state == SlotState::Active).count() as u64;
        self.stats.active_context_cycles += active * skip;
        self.cycle = target;
        self.stats.cycles = self.cycle;
        if let Some(p) = self.profile.as_deref_mut() {
            p.fast_forwards += 1;
            p.skipped_cycles += skip;
        }
    }

    /// Earliest cycle at which any stage could make progress.
    ///
    /// Conservative by construction: anything that might act *next cycle*
    /// reports [`Wakeup::Busy`]. The only sources of future work are
    /// timers (`WaitCopy`/`SwapIn`, fetch/dispatch block cycles) and the
    /// completion wheel; `swap_check` cannot newly fire during idle
    /// cycles because slow counters only change when loads issue.
    fn next_wakeup(&self) -> Wakeup {
        let now = self.cycle;
        // Issue work pending, or a completion due now.
        if !self.ready.is_empty() || self.completions.due(now) {
            return Wakeup::Busy;
        }
        let mut next: Option<u64> = None;
        let bump = |next: &mut Option<u64>, at: u64| {
            *next = Some(next.map_or(at, |n| n.min(at)));
        };

        for (i, slot) in self.slots.iter().enumerate() {
            if let SlotState::WaitCopy { until } | SlotState::SwapIn { until } = slot.state {
                if until <= now {
                    return Wakeup::Busy;
                }
                bump(&mut next, until);
            }
            let Some(t) = slot.thread.as_ref() else { continue };
            // Commit work pending.
            if t.in_flight.front().is_some_and(|&idx| self.arena.is_completed(idx)) {
                return Wakeup::Busy;
            }
            if slot.state != SlotState::Active {
                // WaitBranch/WaitLock/Draining wake via completions or
                // another thread's dispatch — both covered elsewhere.
                continue;
            }
            if t.fetch_pc.is_some() && t.fetch_queue.len() < FETCH_QUEUE_CAP {
                if t.fetch_block_until <= now {
                    return Wakeup::Busy;
                }
                bump(&mut next, t.fetch_block_until);
            }
            if let Some(f) = t.fetch_queue.front() {
                if t.dispatch_block_until > now {
                    bump(&mut next, t.dispatch_block_until);
                } else {
                    let core = self.slot_core[i];
                    let is_mem = self.text.meta(f.pc as usize).is_mem();
                    if self.ruu_used[core] < self.cfg.ruu_size
                        && (!is_mem || self.lsq_used[core] < self.cfg.lsq_size)
                    {
                        return Wakeup::Busy;
                    }
                    // Window full: freed by a commit, which a completion
                    // event already on the wheel precedes.
                }
            }
        }
        // Scanned last: only a machine with nothing else to do pays for
        // the walk over the wheel.
        if let Some(at) = self.completions.next_due(now) {
            bump(&mut next, at);
        }
        match next {
            Some(t) => Wakeup::At(t),
            None => Wakeup::Never,
        }
    }

    /// Advances the machine by one cycle.
    ///
    /// # Errors
    ///
    /// Propagates traps from dispatch.
    pub fn step_cycle(&mut self) -> Result<(), SimError> {
        self.expire_states();
        let mut lap = self
            .profile
            .as_deref()
            .filter(|p| p.stepped_cycles % STAGE_TIME_SAMPLE == 0)
            .map(|_| Instant::now());
        self.complete_stage();
        self.charge(&mut lap, |t| &mut t.complete);
        self.commit_stage();
        self.charge(&mut lap, |t| &mut t.commit);
        self.issue_stage();
        self.charge(&mut lap, |t| &mut t.issue);
        self.dispatch_stage()?;
        self.charge(&mut lap, |t| &mut t.dispatch);
        if self.halted {
            return Ok(());
        }
        self.fetch_stage();
        self.charge(&mut lap, |t| &mut t.fetch);
        self.swap_check();

        self.stats.active_context_cycles +=
            self.slots.iter().filter(|s| s.state == SlotState::Active).count() as u64;
        self.cycle += 1;
        self.stats.cycles = self.cycle;
        if let Some(p) = self.profile.as_deref_mut() {
            p.stepped_cycles += 1;
        }
        Ok(())
    }

    /// Adds the host time since `lap` to one stage and restarts the lap;
    /// does nothing on a cycle the profile does not time (`lap` is
    /// `None`).
    fn charge(&mut self, lap: &mut Option<Instant>, stage: fn(&mut StageTimes) -> &mut Duration) {
        if let Some(start) = lap {
            let now = Instant::now();
            *stage(&mut self.stage_times) += (now - *start).saturating_sub(self.clock_cost);
            *start = now;
        }
    }

    fn machine_empty(&self) -> bool {
        self.stack.is_empty() && self.slots.iter().all(|s| s.state == SlotState::Free)
    }

    fn free_slot_count(&self) -> usize {
        self.slots.iter().filter(|s| s.state == SlotState::Free).count()
    }

    fn outcome(&self) -> SimOutcome {
        SimOutcome {
            stats: self.stats.clone(),
            output: self.output.clone(),
            sections: self.sections.clone(),
            tree: self.tree.clone(),
            l1i: self.hier.l1i_stats(),
            l1d: self.hier.l1d_stats(),
            l2: self.hier.l2_stats(),
            mem_accesses: self.hier.mem_accesses(),
            profile: self.profile.as_deref().cloned(),
            trace: self.trace.clone(),
        }
    }

    // ------------------------------------------------------------------
    // snapshot / restore
    // ------------------------------------------------------------------

    /// Serializes the complete machine state at the current cycle
    /// boundary into a versioned, self-describing blob (see
    /// [`crate::snapshot`] for the format). Restoring the blob into a
    /// machine prepared with the same config and program — via
    /// [`Machine::restore_snapshot`] — continues the run cycle-for-cycle
    /// identically to one that was never interrupted.
    ///
    /// Call only between cycles (never from inside a stage); any point
    /// where [`Machine::run_until`] paused qualifies.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new();
        crate::snapshot::write_header(&mut w, self.sig);
        self.encode_state(&mut w);
        w.into_bytes()
    }

    /// Restores state captured by [`Machine::snapshot`] into this
    /// machine, which must have been prepared (via [`Machine::new`] or
    /// [`Machine::reset`]) with the same configuration and program.
    /// Profile and trace enablement are taken from the blob; an
    /// installed cancel token is kept.
    ///
    /// # Errors
    ///
    /// [`SimError::SnapshotMismatch`] on wrong magic or format version,
    /// config/program hash mismatch, or a truncated/corrupted body. On
    /// error the machine state is unspecified; reset it before reuse.
    pub fn restore_snapshot(&mut self, blob: &[u8]) -> Result<(), SimError> {
        let mut r = Reader::new(blob);
        crate::snapshot::check_header(&mut r, self.sig)?;
        self.decode_state(&mut r).map_err(crate::snapshot::reject)?;
        if !r.is_empty() {
            return Err(SimError::SnapshotMismatch {
                reason: "trailing bytes after snapshot body".to_string(),
            });
        }
        Ok(())
    }

    fn encode_state(&self, w: &mut Writer) {
        self.arena.encode(w);
        self.mem.encode(w);
        self.hier.encode(w);
        self.pred.encode(w);
        w.usize(self.slots.len());
        let mut ready = Vec::new();
        for (i, slot) in self.slots.iter().enumerate() {
            slot.state.encode(w);
            match &slot.thread {
                None => w.u8(0),
                Some(t) => {
                    w.u8(1);
                    ready.clear();
                    ready.extend(self.ready.iter().filter(|e| e.1 == i).map(|e| e.2));
                    t.encode(w, &ready);
                }
            }
        }
        self.stack.encode(w);
        self.locks.encode(w);
        self.policy.encode_state(w);
        w.u64(self.cycle);
        w.u64(self.seq);
        w.bool(self.halted);
        for used in [&self.ruu_used, &self.lsq_used] {
            w.usize(used.len());
            for &u in used {
                w.usize(u);
            }
        }
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
        self.stats.encode(w);
        self.sections.encode(w);
        self.tree.encode(w);
        w.u64(self.live_workers);
        w.usize(self.load_lat_window.len());
        for &l in &self.load_lat_window {
            w.u64(l);
        }
        w.u64(self.load_lat_sum);
        // The wheel iterates in arbitrary order; sort so identical machine
        // states always produce identical snapshot bytes.
        let mut events: Vec<(u64, usize, u64, u32)> = self
            .completions
            .iter()
            .map(|(slot, idx)| (self.arena.complete_at(idx), slot, self.arena.seq(idx), idx))
            .collect();
        events.sort_unstable();
        w.usize(events.len());
        for (at, slot, seqno, idx) in events {
            w.u64(at);
            w.usize(slot);
            w.u64(seqno);
            w.u32(idx);
        }
        match self.profile.as_deref() {
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

    fn decode_state(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        self.arena.decode_into(r)?;
        let arena_len = self.arena.len();
        self.mem.decode_into(r)?;
        self.hier.decode_into(r)?;
        self.pred.decode_into(r)?;
        let nslots = r.usize()?;
        if nslots != self.slots.len() {
            return Err(CodecError::Invalid("context count mismatch"));
        }
        self.ready.clear();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            slot.state = SlotState::decode(r)?;
            slot.thread = match r.u8()? {
                0 => None,
                1 => {
                    let (t, ready) = Thread::decode(r, arena_len)?;
                    for idx in ready {
                        if self.arena.fu(idx) == FuClass::None {
                            return Err(CodecError::Invalid("ready list names an inert entry"));
                        }
                        self.ready.push((self.arena.seq(idx), i, idx));
                    }
                    Some(t)
                }
                _ => return Err(CodecError::Invalid("bad thread tag")),
            };
        }
        self.ready.sort_unstable();
        self.stack.decode_into(r)?;
        self.locks.decode_into(r)?;
        self.policy.restore_state(r)?;
        self.cycle = r.u64()?;
        self.seq = r.u64()?;
        self.halted = r.bool()?;
        for used in [&mut self.ruu_used, &mut self.lsq_used] {
            let n = r.usize()?;
            if n != used.len() {
                return Err(CodecError::Invalid("core count mismatch"));
            }
            for u in used.iter_mut() {
                *u = r.usize()?;
            }
        }
        let nout = r.usize()?;
        self.output.clear();
        for _ in 0..nout {
            self.output.push(match r.u8()? {
                0 => OutValue::Int(r.i64()?),
                1 => OutValue::Float(r.f64()?),
                _ => return Err(CodecError::Invalid("bad output tag")),
            });
        }
        self.stats = SimStats::decode(r)?;
        self.sections = SectionTracker::decode(r)?;
        self.tree = DivisionTree::decode(r)?;
        self.check_restored_threads()?;
        self.live_workers = r.u64()?;
        let nlat = r.usize()?;
        if nlat > self.cfg.swap_load_window {
            return Err(CodecError::Invalid("load window over capacity"));
        }
        self.load_lat_window.clear();
        for _ in 0..nlat {
            self.load_lat_window.push_back(r.u64()?);
        }
        self.load_lat_sum = r.u64()?;
        let nev = r.usize()?;
        if nev > arena_len {
            return Err(CodecError::Invalid("more completions than window entries"));
        }
        self.completions.clear();
        for _ in 0..nev {
            let at = r.u64()?;
            let slot = r.usize()?;
            // The sequence number is the arena entry's own; it only keeps
            // the written order canonical.
            let _seqno = r.u64()?;
            let idx = r.u32()?;
            if slot >= self.slots.len() || idx as usize >= arena_len {
                return Err(CodecError::Invalid("completion event out of range"));
            }
            // This cycle's complete stage has not run yet.
            self.completions.push(self.cycle, at, (slot, idx));
        }
        self.profile = match r.u8()? {
            0 => None,
            1 => Some(Box::new(crate::snapshot::decode_stage_profile(r)?)),
            _ => return Err(CodecError::Invalid("bad profile tag")),
        };
        self.restart_stage_times();
        self.trace = match r.u8()? {
            0 => None,
            1 => Some(Trace::decode(r)?),
            _ => return Err(CodecError::Invalid("bad trace tag")),
        };
        Ok(())
    }

    /// Cross-section checks on restored threads, which the cycle loop
    /// relies on: a slot holds a thread exactly when it is not Free, no
    /// slow-load counter sits below the floor the loop clamps it to, and
    /// every resident or stacked thread is a worker the division tree
    /// knows.
    fn check_restored_threads(&self) -> Result<(), CodecError> {
        for slot in &self.slots {
            match (slot.state, &slot.thread) {
                (SlotState::Free, Some(_)) => {
                    return Err(CodecError::Invalid("free context holds a thread"))
                }
                (_, Some(t)) if t.slow_counter < -self.cfg.swap_counter_threshold => {
                    return Err(CodecError::Invalid("slow-load counter below its floor"))
                }
                (SlotState::Free, None) | (_, Some(_)) => {}
                (_, None) => return Err(CodecError::Invalid("busy context holds no thread")),
            }
        }
        let resident = self.slots.iter().filter_map(|s| s.thread.as_ref().map(|t| &t.arch));
        let mut workers = resident.chain(self.stack.iter().map(|t| &t.arch)).map(|a| a.worker);
        if workers.any(|w| w.index() >= self.tree.len()) {
            return Err(CodecError::Invalid("thread of a worker never born"));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // cycle stages
    // ------------------------------------------------------------------

    fn expire_states(&mut self) {
        for slot in &mut self.slots {
            match slot.state {
                SlotState::WaitCopy { until } | SlotState::SwapIn { until }
                    if until <= self.cycle =>
                {
                    slot.state = SlotState::Active;
                }
                _ => {}
            }
        }
    }

    fn complete_stage(&mut self) {
        let now = self.cycle;
        // Fire every completion event due this cycle and walk the
        // producer's wakeup chain: each waiter loses one unready operand;
        // at zero it enters the ready list (exactly once), at its age.
        // Waiters belong to the producer's thread, hence to its slot.
        let (arena, ready) = (&mut self.arena, &mut self.ready);
        let units = self.completions.fire_due(now, |(slot, idx)| {
            arena.complete(idx, |seq, entry| {
                let at = ready.partition_point(|&(s, _, _)| s < seq);
                ready.insert(at, (seq, slot, entry));
            });
        });
        if let Some(p) = self.profile.as_deref_mut() {
            p.complete.record(units);
        }
        // Mispredicted-branch resolution (the branch entry completed; a
        // retired entry necessarily completed, which `done` covers).
        let arena = &self.arena;
        for slot in &mut self.slots {
            let Some(t) = slot.thread.as_mut() else { continue };
            if let SlotState::WaitBranch { entry, resume_pc } = slot.state {
                if arena.done(entry) {
                    slot.state = SlotState::Active;
                    t.fetch_pc = Some(resume_pc);
                    t.fetch_block_until =
                        t.fetch_block_until.max(now + self.pred.mispredict_penalty());
                }
            }
        }
    }

    fn commit_stage(&mut self) {
        // Per-core commit bandwidth (a CMP commits on every core).
        let n = self.slots.len();
        let mut budgets = std::mem::take(&mut self.scratch.budgets);
        budgets.clear();
        budgets.resize(self.cfg.cores, self.cfg.commit_width);
        let mut next = (self.cycle as usize) % n.max(1);
        let mut drained = std::mem::take(&mut self.scratch.drained);
        drained.clear();
        let mut units = 0u64;
        for _ in 0..n {
            let i = next;
            next += 1;
            if next == n {
                next = 0;
            }
            let core = self.slot_core[i];
            let budget = &mut budgets[core];
            let slot = &mut self.slots[i];
            let Some(t) = slot.thread.as_mut() else { continue };
            while *budget > 0 {
                match t.in_flight.front() {
                    Some(&idx) if self.arena.is_completed(idx) => {
                        t.in_flight.pop_front();
                        *budget -= 1;
                        self.stats.committed += 1;
                        units += 1;
                        self.ruu_used[core] -= 1;
                        if self.arena.is_mem(idx) {
                            self.lsq_used[core] -= 1;
                        }
                        self.arena.retire(idx);
                    }
                    _ => break,
                }
            }
            if matches!(slot.state, SlotState::Draining(_)) && t.in_flight.is_empty() {
                drained.push(i);
            }
        }
        self.scratch.budgets = budgets;
        if let Some(p) = self.profile.as_deref_mut() {
            p.commit.record(units);
        }
        for &i in &drained {
            self.finalize_drain(i);
        }
        drained.clear();
        self.scratch.drained = drained;
    }

    fn finalize_drain(&mut self, i: usize) {
        let SlotState::Draining(action) = self.slots[i].state else { return };
        match action {
            AfterDrain::Die => {
                let t = self.slots[i].thread.take().expect("draining slot has thread");
                self.policy.record_death(self.cycle);
                self.stats.deaths += 1;
                self.tree.record_death(t.arch.worker, self.cycle);
                self.trace_event(TraceKind::Death { worker: t.arch.worker, slot: i });
                self.live_workers -= 1;
                self.refill_slot(i);
            }
            AfterDrain::SwapOut => {
                if let Some(incoming) = self.stack.pop() {
                    let outgoing = self.slots[i].thread.take().expect("draining slot has thread");
                    self.trace_event(TraceKind::SwapOut { worker: outgoing.arch.worker, slot: i });
                    self.trace_event(TraceKind::SwapIn { worker: incoming.arch.worker, slot: i });
                    self.stack.push(SavedThread { arch: outgoing.arch });
                    self.stats.swaps_out += 1;
                    self.stats.swaps_in += 1;
                    self.install(
                        i,
                        incoming.arch,
                        SlotState::SwapIn { until: self.cycle + self.cfg.swap_latency },
                    );
                } else {
                    // Nobody to exchange with: resume in place.
                    let t = self.slots[i].thread.as_mut().expect("draining slot has thread");
                    t.fetch_pc = Some(t.arch.pc);
                    self.slots[i].state = SlotState::Active;
                }
            }
        }
    }

    /// A context slot just became empty; pull a parked thread in, else
    /// mark it free.
    fn refill_slot(&mut self, i: usize) {
        if let Some(saved) = self.stack.pop() {
            self.stats.swaps_in += 1;
            self.trace_event(TraceKind::SwapIn { worker: saved.arch.worker, slot: i });
            self.install(
                i,
                saved.arch,
                SlotState::SwapIn { until: self.cycle + self.cfg.swap_latency },
            );
        } else {
            self.slots[i] = Slot { state: SlotState::Free, thread: None };
        }
    }

    fn install(&mut self, i: usize, arch: ArchState, state: SlotState) {
        self.slots[i] = Slot { state, thread: Some(Thread::new(arch)) };
    }

    fn issue_stage(&mut self) {
        if self.ready.is_empty() {
            return;
        }
        let fus = &self.cfg.fus;
        let full: Pools = [
            self.cfg.issue_width,
            fus.ialu,
            fus.imult,
            fus.fpalu,
            fus.fpmult,
            self.cfg.l1d.ports * MEM_ISSUE_PER_PORT,
        ];
        let mut pools = std::mem::take(&mut self.scratch.pools);
        pools.clear();
        pools.resize(self.cfg.cores, full);
        // Cores with issue bandwidth left; the walk ends when none is.
        let mut open_cores = if full[ISSUE] > 0 { self.cfg.cores } else { 0 };

        // One walk, oldest first. An entry whose core has no bandwidth
        // left or whose functional-unit pool is empty loses arbitration
        // and is compacted in place, so the list stays in age order.
        let mut ready = std::mem::take(&mut self.ready);
        let mut kept = 0;
        let mut next = 0;
        let mut units = 0u64;
        while next < ready.len() && open_cores > 0 {
            let (seqno, i, idx) = ready[next];
            next += 1;
            let fu = self.arena.fu(idx);
            let pool = &mut pools[self.slot_core[i]];
            let class = pool_of(fu);
            if pool[ISSUE] == 0 || pool[class] == 0 {
                ready[kept] = (seqno, i, idx);
                kept += 1;
                continue;
            }
            pool[class] -= 1;
            pool[ISSUE] -= 1;
            if pool[ISSUE] == 0 {
                open_cores -= 1;
            }
            units += 1;

            let complete_at = if fu == FuClass::Mem {
                let addr = self.arena.mem_addr(idx);
                let access = self.hier.access_data_on(self.slot_core[i], addr, self.cycle);
                if self.arena.is_load(idx) {
                    self.observe_load_latency(i, access.latency);
                    self.cycle + access.latency
                } else {
                    // Stores retire from the store buffer; dependents do
                    // not wait for the miss (the line fill is charged to
                    // the cache state only).
                    self.cycle + 1
                }
            } else {
                self.cycle + self.arena.latency(idx)
            };
            self.arena.mark_issued(idx, complete_at);
            self.completions.push(self.cycle + 1, complete_at, (i, idx));
        }
        // Entries past the point where every core ran out stay ready.
        let rest = ready.len() - next;
        ready.copy_within(next.., kept);
        ready.truncate(kept + rest);
        self.ready = ready;
        self.scratch.pools = pools;
        if let Some(p) = self.profile.as_deref_mut() {
            p.issue.record(units);
        }
    }

    fn observe_load_latency(&mut self, slot_idx: usize, lat: u64) {
        let window = self.cfg.swap_load_window;
        self.load_lat_window.push_back(lat);
        self.load_lat_sum += lat;
        if self.load_lat_window.len() > window {
            let old = self.load_lat_window.pop_front().expect("non-empty");
            self.load_lat_sum -= old;
        }
        let avg = self.load_lat_sum as f64 / self.load_lat_window.len() as f64;
        let t = self.slots[slot_idx].thread.as_mut().expect("issuing slot has thread");
        if (lat as f64) > avg {
            t.slow_counter += 1;
        } else {
            t.slow_counter = (t.slow_counter - 1).max(-self.cfg.swap_counter_threshold);
        }
    }

    fn swap_check(&mut self) {
        if self.stack.is_empty() || self.free_slot_count() > 0 {
            return;
        }
        let threshold = self.cfg.swap_counter_threshold;
        for slot in &mut self.slots {
            if slot.state != SlotState::Active {
                continue;
            }
            let Some(t) = slot.thread.as_mut() else { continue };
            // A lock holder must not migrate: lock ownership is per slot.
            if t.slow_counter >= threshold && t.locks_held == 0 {
                t.slow_counter = 0;
                t.flush_frontend();
                slot.state = SlotState::Draining(AfterDrain::SwapOut);
            }
        }
    }

    fn dispatch_stage(&mut self) -> Result<(), SimError> {
        let n = self.slots.len();
        let start = (self.cycle as usize) % n.max(1);
        let mut budgets = std::mem::take(&mut self.scratch.budgets);
        budgets.clear();
        budgets.resize(self.cfg.cores, self.cfg.decode_width);
        let mut units = 0u64;
        let mut progressed = true;
        while progressed && !self.halted {
            progressed = false;
            let mut next = start;
            for _ in 0..n {
                if self.halted {
                    break;
                }
                let i = next;
                next += 1;
                if next == n {
                    next = 0;
                }
                let core = self.slot_core[i];
                if budgets[core] == 0 {
                    continue;
                }
                match self.try_dispatch_one(i) {
                    Ok(true) => {
                        budgets[core] -= 1;
                        units += 1;
                        progressed = true;
                    }
                    Ok(false) => {}
                    Err(e) => {
                        self.scratch.budgets = budgets;
                        return Err(e);
                    }
                }
            }
            if budgets.iter().all(|&b| b == 0) {
                break;
            }
        }
        self.scratch.budgets = budgets;
        if let Some(p) = self.profile.as_deref_mut() {
            p.dispatch.record(units);
        }
        Ok(())
    }

    /// Attempts to dispatch one instruction from slot `i`; returns whether
    /// one was dispatched.
    fn try_dispatch_one(&mut self, i: usize) -> Result<bool, SimError> {
        if self.slots[i].state != SlotState::Active {
            return Ok(false);
        }
        let now = self.cycle;
        {
            let t = self.slots[i].thread.as_ref().expect("active slot has thread");
            if t.dispatch_block_until > now || t.fetch_queue.is_empty() {
                return Ok(false);
            }
        }
        // Peek resource needs.
        let (fetched, meta) = {
            let t = self.slots[i].thread.as_ref().expect("active slot has thread");
            let f = *t.fetch_queue.front().expect("checked non-empty");
            (f, *self.text.meta(f.pc as usize))
        };
        let is_mem = meta.is_mem();
        let core = self.slot_core[i];
        if self.ruu_used[core] >= self.cfg.ruu_size
            || (is_mem && self.lsq_used[core] >= self.cfg.lsq_size)
        {
            return Ok(false);
        }

        let t = self.slots[i].thread.as_mut().expect("active slot has thread");
        t.fetch_queue.pop_front();

        // Defensive: fetch should always track the architectural path.
        if fetched.pc != t.arch.pc {
            t.flush_frontend();
            t.fetch_pc = Some(t.arch.pc);
            return Ok(false);
        }

        // Capture dependencies before renaming the destination.
        let mut deps: [Option<EntryRef>; 4] = [None; 4];
        let mut d = 0;
        for r in meta.src_int {
            if r != NO_REG {
                deps[d] = t.last_writer_int[r as usize];
                d += 1;
            }
        }
        for f in meta.src_fp {
            if f != NO_REG {
                deps[d] = t.last_writer_fp[f as usize];
                d += 1;
            }
        }

        // Functional execution (in program order).
        let pc = fetched.pc;
        let instr = self.text.instr(pc as usize);
        let out = step(&mut t.arch, instr, &mut self.mem).map_err(|kind| SimError::Trap {
            cycle: now,
            slot: i,
            pc,
            kind,
        })?;

        // Create the window entry. Readiness is resolved here, once: each
        // source operand whose producer is still in flight and incomplete
        // links this entry into that producer's wakeup chain; anything
        // already complete (or retired) never needs watching again.
        let seqno = self.seq;
        self.seq += 1;
        let fu = meta.fu;
        let inert = fu == FuClass::None;
        let idx = self.arena.alloc(seqno, fu, meta.latency as u64, meta.is_load(), is_mem, now);
        if let Some(addr) = out.mem_addr {
            self.arena.set_mem_addr(idx, addr);
        }
        if !inert {
            for (dslot, dep) in deps.into_iter().enumerate() {
                let Some(p) = dep else { continue };
                self.arena.link_if_pending(p, idx, dslot as u8);
            }
            if self.arena.unready(idx) == 0 {
                // The youngest entry of all, so appending keeps age order.
                debug_assert!(self.ready.last().is_none_or(|&(s, _, _)| s < seqno));
                self.ready.push((seqno, i, idx));
            }
        }
        if meta.dest_int != NO_REG {
            t.last_writer_int[meta.dest_int as usize] = Some(self.arena.entry_ref(idx));
        }
        if meta.dest_fp != NO_REG {
            t.last_writer_fp[meta.dest_fp as usize] = Some(self.arena.entry_ref(idx));
        }
        t.in_flight.push_back(idx);
        self.ruu_used[core] += 1;
        if is_mem {
            self.lsq_used[core] += 1;
        }
        self.stats.dispatched += 1;

        // Control flow bookkeeping.
        if let Some(b) = out.branch {
            if b.conditional {
                self.stats.branches += 1;
                let t = self.slots[i].thread.as_mut().expect("active slot has thread");
                t.bp_history = self.pred.update(pc, t.bp_history, b.taken);
                if fetched.predicted_taken != b.taken {
                    self.stats.branch_mispredicts += 1;
                    t.flush_frontend();
                    self.slots[i].state = SlotState::WaitBranch {
                        entry: self.arena.entry_ref(idx),
                        resume_pc: b.next_pc,
                    };
                }
            } else if meta.is_indirect() {
                // Indirect jump: fetch stalled at it; redirect now.
                let t = self.slots[i].thread.as_mut().expect("active slot has thread");
                t.fetch_pc = Some(b.next_pc);
                t.fetch_block_until = t.fetch_block_until.max(now + 1);
            }
        }

        // Host-side effects.
        match out.effect {
            Effect::None => {}
            Effect::Out(v) => self.output.push(v),
            Effect::Halt => {
                self.halted = true;
                self.cycle += 1;
                self.stats.cycles = self.cycle;
                if let Some(p) = self.profile.as_deref_mut() {
                    // The halt cycle ends mid-pipeline; count it stepped.
                    p.stepped_cycles += 1;
                }
                self.sections.finish(self.cycle);
                // In-flight instructions were architecturally executed at
                // dispatch; count them as committed so instruction totals
                // (e.g. Table 3's insts-per-division) reflect real work.
                let in_flight: u64 = self
                    .slots
                    .iter()
                    .filter_map(|s| s.thread.as_ref())
                    .map(|t| t.in_flight.len() as u64)
                    .sum();
                self.stats.committed += in_flight;
                self.trace_event(TraceKind::Halt);
            }
            Effect::Kthr => {
                let t = self.slots[i].thread.as_mut().expect("active slot has thread");
                t.flush_frontend();
                self.slots[i].state = SlotState::Draining(AfterDrain::Die);
            }
            Effect::Nthr { rd, target } => self.handle_nthr(i, rd, target),
            Effect::Mlock(addr) => match self.locks.acquire(addr, i) {
                AcquireResult::Acquired => {
                    self.stats.lock_acquires += 1;
                    let t = self.slots[i].thread.as_mut().expect("active slot has thread");
                    t.locks_held += 1;
                    self.trace_event(TraceKind::LockAcquire { slot: i, addr });
                }
                AcquireResult::Queued => {
                    self.stats.lock_stalls += 1;
                    self.slots[i].state = SlotState::WaitLock { since: now };
                    self.trace_event(TraceKind::LockBlock { slot: i, addr });
                }
                AcquireResult::AlreadyOwner => {
                    return Err(SimError::Trap {
                        cycle: now,
                        slot: i,
                        pc,
                        kind: crate::exec::TrapKind::RelockOwned(addr),
                    });
                }
                AcquireResult::TableFull => {
                    return Err(SimError::Trap {
                        cycle: now,
                        slot: i,
                        pc,
                        kind: crate::exec::TrapKind::LockTableFull(addr),
                    });
                }
            },
            Effect::Munlock(addr) => match self.locks.release(addr, i) {
                ReleaseResult::Released => {
                    let t = self.slots[i].thread.as_mut().expect("active slot has thread");
                    t.locks_held = t.locks_held.saturating_sub(1);
                }
                ReleaseResult::Transferred(next) => {
                    self.stats.lock_acquires += 1;
                    let t = self.slots[i].thread.as_mut().expect("active slot has thread");
                    t.locks_held = t.locks_held.saturating_sub(1);
                    if let SlotState::WaitLock { since } = self.slots[next].state {
                        self.stats.lock_stall_cycles += now.saturating_sub(since);
                        self.slots[next].state = SlotState::Active;
                        let nt = self.slots[next].thread.as_mut().expect("waiting slot has thread");
                        nt.dispatch_block_until = now + 1 + self.cfg.lock_squash_penalty;
                        nt.locks_held += 1;
                        self.trace_event(TraceKind::LockTransfer { to: next, addr });
                    }
                }
                ReleaseResult::NotOwner => {
                    return Err(SimError::Trap {
                        cycle: now,
                        slot: i,
                        pc,
                        kind: crate::exec::TrapKind::BadUnlock(addr),
                    });
                }
            },
            Effect::Nctx(rd) => {
                let free = self.free_slot_count() as i64;
                let t = self.slots[i].thread.as_mut().expect("active slot has thread");
                t.arch.set(rd, free);
            }
            Effect::MarkStart(id) => {
                self.sections.enter(id, now);
                self.trace_event(TraceKind::Mark { id, enter: true });
            }
            Effect::MarkEnd(id) => {
                self.sections.leave(id, now);
                self.trace_event(TraceKind::Mark { id, enter: false });
            }
        }
        Ok(true)
    }

    fn handle_nthr(&mut self, parent: usize, rd: capsule_isa::reg::Reg, target: u32) {
        self.stats.divisions_requested += 1;
        let req = DivisionRequest {
            free_contexts: self.free_slot_count(),
            stack_free_slots: self.stack.free_slots(),
        };
        let decision = self.policy.decide(self.cycle, req);
        match decision {
            DivisionDecision::GrantToContext | DivisionDecision::GrantToStack => {
                let place = if decision == DivisionDecision::GrantToContext {
                    self.stats.divisions_granted_context += 1;
                    BirthPlace::Context
                } else {
                    self.stats.divisions_granted_stack += 1;
                    BirthPlace::Stack
                };
                let parent_worker = {
                    let t = self.slots[parent].thread.as_mut().expect("parent thread");
                    t.arch.set(rd, 0);
                    // Paper: the parent stalls one cycle for the copy.
                    t.dispatch_block_until = self.cycle + 1;
                    t.arch.worker
                };
                let child_worker = self.tree.record_birth(Some(parent_worker), self.cycle, place);
                let mut child_arch =
                    self.slots[parent].thread.as_ref().expect("parent thread").arch.clone();
                child_arch.pc = target;
                child_arch.set(rd, 1);
                child_arch.worker = child_worker;
                self.live_workers += 1;
                self.stats.max_live_workers = self.stats.max_live_workers.max(self.live_workers);

                self.trace_event(TraceKind::Division {
                    parent: parent_worker,
                    child: Some(child_worker),
                    outcome: if place == BirthPlace::Context { "context" } else { "stack" },
                });
                if place == BirthPlace::Context {
                    // Prefer a context on the requester's core; a remote
                    // child pays the cross-core register-copy latency the
                    // paper's §5 CMP study sweeps.
                    let my_core = self.slot_core[parent];
                    let local = self
                        .slots
                        .iter()
                        .zip(&self.slot_core)
                        .position(|(s, &core)| s.state == SlotState::Free && core == my_core);
                    let (free, extra) = match local {
                        Some(j) => (j, 0),
                        None => (
                            self.slots
                                .iter()
                                .position(|s| s.state == SlotState::Free)
                                .expect("grant implies a free slot"),
                            self.cfg.remote_division_latency,
                        ),
                    };
                    // Child waits for the register copy (commit-time copy
                    // in the paper, approximated from dispatch).
                    self.install(
                        free,
                        child_arch,
                        SlotState::WaitCopy {
                            until: self.cycle + 1 + self.cfg.division_latency + extra,
                        },
                    );
                } else {
                    self.stack.push(SavedThread { arch: child_arch });
                }
            }
            DivisionDecision::DenyNoResource
            | DivisionDecision::DenyThrottled
            | DivisionDecision::DenyDisabled => {
                let outcome = match decision {
                    DivisionDecision::DenyNoResource => {
                        self.stats.divisions_denied_no_resource += 1;
                        "deny:resource"
                    }
                    DivisionDecision::DenyThrottled => {
                        self.stats.divisions_denied_throttled += 1;
                        "deny:throttle"
                    }
                    _ => {
                        self.stats.divisions_denied_disabled += 1;
                        "deny:disabled"
                    }
                };
                let t = self.slots[parent].thread.as_mut().expect("parent thread");
                t.arch.set(rd, -1);
                let parent_worker = t.arch.worker;
                self.trace_event(TraceKind::Division {
                    parent: parent_worker,
                    child: None,
                    outcome,
                });
            }
        }
    }

    fn fetch_stage(&mut self) {
        let now = self.cycle;
        let per_core = self.slots.len() / self.cfg.cores;
        let mut units = 0u64;
        for core in 0..self.cfg.cores {
            units += self.fetch_core(core, core * per_core, (core + 1) * per_core, now);
        }
        if let Some(p) = self.profile.as_deref_mut() {
            p.fetch.record(units);
        }
    }

    /// ICount.4.4 fetch for the slots `lo..hi` of `core`; returns the
    /// number of instructions fetched.
    fn fetch_core(&mut self, core: usize, lo: usize, hi: usize, now: u64) -> u64 {
        // Pick the fetch_threads least-occupied eligible threads.
        let mut eligible = std::mem::take(&mut self.scratch.eligible);
        eligible.clear();
        eligible.extend(self.slots[lo..hi].iter().enumerate().filter_map(|(k, s)| {
            if s.state != SlotState::Active {
                return None;
            }
            let t = s.thread.as_ref()?;
            (t.fetch_pc.is_some()
                && t.fetch_block_until <= now
                && t.fetch_queue.len() < FETCH_QUEUE_CAP)
                .then(|| (t.icount(), lo + k))
        }));
        eligible.sort_unstable();
        eligible.truncate(self.cfg.fetch_threads);

        let mut total_budget = self.cfg.fetch_width;
        let line_bytes = self.hier.line_bytes();
        let l1i_latency = self.cfg.l1i.latency;
        let mut units = 0u64;
        for &(_, i) in &eligible {
            if total_budget == 0 {
                break;
            }
            let mut last_line = u64::MAX;
            for _ in 0..self.cfg.fetch_per_thread {
                if total_budget == 0 {
                    break;
                }
                let t = self.slots[i].thread.as_mut().expect("eligible slot has thread");
                if t.fetch_queue.len() >= FETCH_QUEUE_CAP {
                    break;
                }
                let Some(pc) = t.fetch_pc else { break };
                if pc as usize >= self.text.len() {
                    // Speculative fetch ran off the text section; stall
                    // until dispatch redirects.
                    t.fetch_pc = None;
                    break;
                }
                let byte_addr = pc as u64 * INSTR_BYTES;
                let line = match self.line_shift {
                    Some(s) => byte_addr >> s,
                    None => byte_addr / line_bytes,
                };
                if line != last_line {
                    let access = self.hier.access_instr_on(core, byte_addr, now);
                    if access.served_by != ServedBy::L1 {
                        let t = self.slots[i].thread.as_mut().expect("eligible slot");
                        t.fetch_block_until = now + access.latency;
                        break;
                    }
                    let _ = l1i_latency;
                    last_line = line;
                }
                let fetch_class = self.text.meta(pc as usize).fetch;
                let t = self.slots[i].thread.as_mut().expect("eligible slot has thread");
                let mut predicted_taken = false;
                let mut stop = false;
                match fetch_class {
                    FetchClass::CondBr { target } => {
                        predicted_taken = self.pred.predict(pc, t.bp_history);
                        if predicted_taken {
                            t.fetch_pc = Some(target);
                            stop = true; // one taken transfer per thread-cycle
                        } else {
                            t.fetch_pc = Some(pc + 1);
                        }
                    }
                    FetchClass::Jump { target } => {
                        t.fetch_pc = Some(target);
                        stop = true;
                    }
                    FetchClass::Stop => {
                        // Indirect target unknown until dispatch; `kthr` /
                        // `halt` never fetch past themselves.
                        t.fetch_pc = None;
                        stop = true;
                    }
                    FetchClass::Fall => {
                        t.fetch_pc = Some(pc + 1);
                    }
                }
                t.fetch_queue.push_back(Fetched { pc, predicted_taken });
                self.stats.fetched += 1;
                units += 1;
                total_budget -= 1;
                if stop {
                    break;
                }
            }
        }
        eligible.clear();
        self.scratch.eligible = eligible;
        units
    }
}

/// A reusable machine slot for batch drivers: holds one warmed
/// [`Machine`] across runs and rebuilds it in place with
/// [`Machine::reset`], so repeated runs reuse the data-memory buffer, the
/// entry arena, the stage scratch and (while the cache shape holds) the
/// cache hierarchy instead of reallocating them. A prepared machine is
/// cycle-for-cycle identical to a fresh one.
#[derive(Debug, Default)]
pub struct WarmMachine {
    machine: Option<Machine>,
}

impl WarmMachine {
    /// An empty slot (the first `prepare` builds a machine from scratch).
    pub fn new() -> Self {
        Self::default()
    }

    /// Readies the held machine for a run of `program` under `cfg`,
    /// building one if the slot is empty.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Machine::new`]; the slot survives a
    /// validation error and stays usable.
    pub fn prepare(
        &mut self,
        cfg: MachineConfig,
        program: &Program,
    ) -> Result<&mut Machine, SimError> {
        match &mut self.machine {
            Some(m) => m.reset(cfg, program)?,
            None => self.machine = Some(Machine::new(cfg, program)?),
        }
        Ok(self.machine.as_mut().expect("slot filled above"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsule_core::config::{CacheParams, FuConfig};
    use capsule_core::rng::{Rng, Xoshiro256StarStar};
    use capsule_isa::asm::Asm;
    use capsule_isa::program::{DataBuilder, ThreadSpec};
    use capsule_isa::reg::Reg;

    fn somt() -> MachineConfig {
        MachineConfig::table1_somt()
    }

    fn build(f: impl FnOnce(&mut Asm, &mut DataBuilder), threads: Vec<ThreadSpec>) -> Program {
        let mut a = Asm::new();
        let mut d = DataBuilder::new();
        f(&mut a, &mut d);
        let mut p = Program::new(a.assemble().unwrap(), d.build(), 1 << 16);
        p.threads = threads;
        p
    }

    #[test]
    fn straight_line_program_halts() {
        let p = build(
            |a, _| {
                a.li(Reg(1), 7);
                a.addi(Reg(1), Reg(1), 35);
                a.out(Reg(1));
                a.halt();
            },
            vec![ThreadSpec::at(0)],
        );
        let mut m = Machine::new(somt(), &p).unwrap();
        let o = m.run(10_000).unwrap();
        assert_eq!(o.ints(), vec![42]);
        assert!(o.stats.cycles > 0);
        assert_eq!(o.stats.committed, 4); // all four, including halt
    }

    #[test]
    fn loop_result_matches_reference() {
        let p = build(
            |a, _| {
                a.li(Reg(1), 100);
                a.li(Reg(2), 0);
                a.bind("loop");
                a.add(Reg(2), Reg(2), Reg(1));
                a.addi(Reg(1), Reg(1), -1);
                a.bne(Reg(1), Reg::ZERO, "loop");
                a.out(Reg(2));
                a.halt();
            },
            vec![ThreadSpec::at(0)],
        );
        let mut m = Machine::new(somt(), &p).unwrap();
        let o = m.run(100_000).unwrap();
        assert_eq!(o.ints(), vec![5050]);
        assert!(o.stats.branches >= 99);
    }

    #[test]
    fn memory_program_works() {
        let p = build(
            |a, d| {
                let arr = d.words(&[5, 3, 9, 1]);
                a.li(Reg(1), arr as i64);
                a.li(Reg(2), 0); // sum
                a.li(Reg(3), 4); // count
                a.bind("loop");
                a.ld(Reg(4), 0, Reg(1));
                a.add(Reg(2), Reg(2), Reg(4));
                a.addi(Reg(1), Reg(1), 8);
                a.addi(Reg(3), Reg(3), -1);
                a.bne(Reg(3), Reg::ZERO, "loop");
                a.out(Reg(2));
                a.halt();
            },
            vec![ThreadSpec::at(0)],
        );
        let o = Machine::new(somt(), &p).unwrap().run(100_000).unwrap();
        assert_eq!(o.ints(), vec![18]);
        assert!(o.l1d.accesses >= 4);
    }

    #[test]
    fn division_splits_work() {
        // Parent computes sum of 1..=50, child of 51..=100, into separate
        // memory cells; parent joins by polling a done flag.
        let p = build(
            |a, d| {
                let cell_a = d.word(0);
                let cell_b = d.word(0);
                let done = d.word(0);
                let sum = |a: &mut Asm, lo: Reg, hi: Reg, acc: Reg| {
                    // acc = lo + (lo+1) + ... + hi  (hi inclusive)
                    a.li(acc, 0);
                    a.bind("sl");
                    a.add(acc, acc, lo);
                    a.addi(lo, lo, 1);
                    a.bge(hi, lo, "sl");
                };
                let (lo, hi, acc, tmp) = (Reg(1), Reg(2), Reg(3), Reg(4));
                a.nthr(Reg(10), "child");
                // parent (0) or denied (-1): sum 1..=50
                a.li(lo, 1);
                a.li(hi, 50);
                // if denied, sum the whole range sequentially
                a.li(tmp, -1);
                a.bne(Reg(10), tmp, "parent_go");
                a.li(hi, 100);
                a.bind("parent_go");
                sum(a, lo, hi, acc);
                a.li(tmp, cell_a as i64);
                a.st(acc, 0, tmp);
                // wait for child if we divided
                a.beq(Reg(10), Reg::ZERO, "join");
                a.j("report_seq");
                a.bind("join");
                a.li(tmp, done as i64);
                a.bind("wait");
                a.ld(Reg(5), 0, tmp);
                a.beq(Reg(5), Reg::ZERO, "wait");
                a.li(tmp, cell_b as i64);
                a.ld(Reg(6), 0, tmp);
                a.li(tmp, cell_a as i64);
                a.ld(Reg(7), 0, tmp);
                a.add(Reg(8), Reg(6), Reg(7));
                a.out(Reg(8));
                a.halt();
                a.bind("report_seq");
                a.li(tmp, cell_a as i64);
                a.ld(Reg(7), 0, tmp);
                a.out(Reg(7));
                a.halt();
                // child: sum 51..=100, set done
                a.bind("child");
                a.li(lo, 51);
                a.li(hi, 100);
                a.li(acc, 0);
                a.bind("cl");
                a.add(acc, acc, lo);
                a.addi(lo, lo, 1);
                a.bge(hi, lo, "cl");
                a.li(tmp, cell_b as i64);
                a.st(acc, 0, tmp);
                a.li(Reg(5), 1);
                a.li(tmp, done as i64);
                a.st(Reg(5), 0, tmp);
                a.kthr();
            },
            vec![ThreadSpec::at(0)],
        );
        let mut m = Machine::new(somt(), &p).unwrap();
        let o = m.run(1_000_000).unwrap();
        assert_eq!(o.ints(), vec![5050]);
        assert_eq!(o.stats.divisions_requested, 1);
        assert_eq!(o.stats.divisions_granted(), 1);
        assert_eq!(o.stats.deaths, 1);
        assert_eq!(o.tree.len(), 2);
    }

    #[test]
    fn division_denied_on_superscalar() {
        let p = build(
            |a, _| {
                a.nthr(Reg(1), "child");
                a.out(Reg(1));
                a.halt();
                a.bind("child");
                a.kthr();
            },
            vec![ThreadSpec::at(0)],
        );
        let o = Machine::new(MachineConfig::table1_superscalar(), &p).unwrap().run(10_000).unwrap();
        assert_eq!(o.ints(), vec![-1]);
        assert_eq!(o.stats.divisions_denied_disabled, 1);
    }

    #[test]
    fn locks_hand_off_between_threads() {
        // Two loader threads increment a shared counter 50 times each.
        let p = build(
            |a, d| {
                let counter = d.word(0);
                let done = d.word(0);
                let (rc, rv, ri, rdn) = (Reg(1), Reg(2), Reg(3), Reg(4));
                a.li(rc, counter as i64);
                a.li(ri, 50);
                a.bind("loop");
                a.mlock(rc);
                a.ld(rv, 0, rc);
                a.addi(rv, rv, 1);
                a.st(rv, 0, rc);
                a.munlock(rc);
                a.addi(ri, ri, -1);
                a.bne(ri, Reg::ZERO, "loop");
                a.li(rdn, done as i64);
                a.mlock(rdn);
                a.ld(rv, 0, rdn);
                a.addi(rv, rv, 1);
                a.st(rv, 0, rdn);
                a.munlock(rdn);
                a.tid(Reg(5));
                a.bne(Reg(5), Reg::ZERO, "park");
                a.bind("wait");
                a.ld(rv, 0, rdn);
                a.li(Reg(6), 2);
                a.bne(rv, Reg(6), "wait");
                a.ld(rv, 0, rc);
                a.out(rv);
                a.halt();
                a.bind("park");
                a.kthr();
            },
            vec![ThreadSpec::at(0), ThreadSpec::at(0)],
        );
        let o = Machine::new(somt(), &p).unwrap().run(5_000_000).unwrap();
        assert_eq!(o.ints(), vec![100]);
        assert!(o.stats.lock_acquires >= 100);
    }

    #[test]
    fn timeout_reported() {
        let p = build(
            |a, _| {
                a.bind("x");
                a.j("x");
            },
            vec![ThreadSpec::at(0)],
        );
        let e = Machine::new(somt(), &p).unwrap().run(1000);
        assert_eq!(e.unwrap_err(), SimError::Timeout { cycles: 1000 });
    }

    #[test]
    fn pre_tripped_token_cancels_before_any_cycle() {
        let p = build(
            |a, _| {
                a.bind("x");
                a.j("x");
            },
            vec![ThreadSpec::at(0)],
        );
        let mut m = Machine::new(somt(), &p).unwrap();
        let tok = CancelToken::new();
        tok.cancel();
        m.set_cancel_token(tok);
        assert_eq!(m.run(1_000_000).unwrap_err(), SimError::Cancelled { cycle: 0 });
    }

    #[test]
    fn cancel_mid_flight_is_cancelled_not_timeout() {
        // An infinite loop with a generous budget: only the token can stop
        // it (a Timeout here would take the full budget).
        let p = build(
            |a, _| {
                a.bind("x");
                a.j("x");
            },
            vec![ThreadSpec::at(0)],
        );
        let mut m = Machine::new(somt(), &p).unwrap();
        let tok = CancelToken::new();
        m.set_cancel_token(tok.clone());
        let err = std::thread::scope(|s| {
            let h = s.spawn(move || m.run(u64::MAX / 2).unwrap_err());
            // Let the run get going, then trip the token from outside.
            std::thread::sleep(std::time::Duration::from_millis(20));
            tok.cancel();
            h.join().expect("runner thread")
        });
        match err {
            SimError::Cancelled { .. } => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn untripped_token_does_not_perturb_the_run() {
        let mk = || {
            build(
                |a, _| {
                    a.li(Reg(1), 7);
                    a.out(Reg(1));
                    a.halt();
                },
                vec![ThreadSpec::at(0)],
            )
        };
        let plain = Machine::new(somt(), &mk()).unwrap().run(10_000).unwrap();
        let mut m = Machine::new(somt(), &mk()).unwrap();
        m.set_cancel_token(CancelToken::new());
        let tokened = m.run(10_000).unwrap();
        assert_eq!(plain.ints(), tokened.ints());
        assert_eq!(plain.cycles(), tokened.cycles());
    }

    #[test]
    fn all_dead_reported() {
        let p = build(
            |a, _| {
                a.kthr();
            },
            vec![ThreadSpec::at(0)],
        );
        let e = Machine::new(somt(), &p).unwrap().run(10_000);
        assert!(matches!(e.unwrap_err(), SimError::AllThreadsDead { .. }));
    }

    #[test]
    fn trap_reports_location() {
        let p = build(
            |a, _| {
                a.li(Reg(1), 0);
                a.ld(Reg(2), 0, Reg(1));
                a.halt();
            },
            vec![ThreadSpec::at(0)],
        );
        match Machine::new(somt(), &p).unwrap().run(10_000) {
            Err(SimError::Trap { pc: 1, slot: 0, .. }) => {}
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn too_many_loader_threads_rejected() {
        let p = build(
            |a, _| {
                a.halt();
            },
            (0..3).map(|_| ThreadSpec::at(0)).collect(),
        );
        let e = Machine::new(MachineConfig::table1_superscalar(), &p);
        assert!(matches!(e.unwrap_err(), SimError::TooManyThreads { requested: 3, contexts: 1 }));
    }

    #[test]
    fn sections_are_tracked() {
        let p = build(
            |a, _| {
                a.li(Reg(1), 20);
                a.mark_start(1);
                a.bind("l");
                a.addi(Reg(1), Reg(1), -1);
                a.bne(Reg(1), Reg::ZERO, "l");
                a.mark_end(1);
                a.halt();
            },
            vec![ThreadSpec::at(0)],
        );
        let o = Machine::new(somt(), &p).unwrap().run(100_000).unwrap();
        assert!(o.sections.section_cycles(1) > 0);
        assert_eq!(o.sections.section_entries(1), 1);
        assert!(o.sections.section_cycles(1) <= o.stats.cycles);
    }

    #[test]
    fn profile_reports_stage_work_without_perturbing_the_run() {
        let mk = || {
            build(
                |a, d| {
                    let arr = d.words(&[1, 2, 3, 4, 5, 6, 7, 8]);
                    a.li(Reg(1), arr as i64);
                    a.li(Reg(2), 0);
                    a.li(Reg(3), 8);
                    a.bind("loop");
                    a.ld(Reg(4), 0, Reg(1));
                    a.add(Reg(2), Reg(2), Reg(4));
                    a.addi(Reg(1), Reg(1), 8);
                    a.addi(Reg(3), Reg(3), -1);
                    a.bne(Reg(3), Reg::ZERO, "loop");
                    a.out(Reg(2));
                    a.halt();
                },
                vec![ThreadSpec::at(0)],
            )
        };
        let plain = Machine::new(somt(), &mk()).unwrap().run(100_000).unwrap();
        assert!(plain.profile.is_none());

        let mut m = Machine::new(somt(), &mk()).unwrap();
        m.enable_profile();
        let o = m.run(100_000).unwrap();
        let p = o.profile.as_ref().expect("profile enabled");
        // The profile must not perturb a single simulated number.
        assert_eq!(o.stats, plain.stats);
        assert_eq!(o.ints(), plain.ints());
        // Stage work is consistent with the run's own counters.
        assert_eq!(p.fetch.units, o.stats.fetched);
        assert_eq!(p.dispatch.units, o.stats.dispatched);
        assert!(p.issue.units > 0 && p.issue.units <= o.stats.dispatched);
        assert_eq!(p.issue.units, p.complete.units); // everything issued completes
        assert!(p.commit.units <= o.stats.committed);
        assert!(p.fetch.active_cycles <= p.stepped_cycles);
        // Stepped plus fast-forwarded cycles account for the whole run.
        assert_eq!(p.stepped_cycles + p.skipped_cycles, o.stats.cycles);
    }

    /// A pointer-chase of 15 dependent cold loads, each to its own
    /// 512-byte block, so every load goes to main memory.
    fn pointer_chase() -> Program {
        build(
            |a, d| {
                // Chain: cell[i] holds the address of cell[i+1], strided
                // a full 512-byte block apart so every load misses L1.
                d.align(8);
                let base = d.here();
                let stride = 64 * 8u64;
                for i in 0..16u64 {
                    let mut block = [0i64; 64];
                    if i < 15 {
                        block[0] = (base + (i + 1) * stride) as i64;
                    }
                    d.words(&block);
                }
                a.li(Reg(1), base as i64);
                a.li(Reg(3), 15);
                a.bind("chase");
                a.ld(Reg(1), 0, Reg(1));
                a.addi(Reg(3), Reg(3), -1);
                a.bne(Reg(3), Reg::ZERO, "chase");
                a.out(Reg(3));
                a.halt();
            },
            vec![ThreadSpec::at(0)],
        )
    }

    #[test]
    fn fast_forward_skips_memory_stalls_without_changing_the_clock_meaning() {
        // The machine spends most cycles waiting on the 200-cycle memory
        // latency, which the idle fast-forward should jump over rather
        // than step through.
        let mut m = Machine::new(somt(), &pointer_chase()).unwrap();
        m.enable_profile();
        let o = m.run(1_000_000).unwrap();
        assert_eq!(o.ints(), vec![0]);
        let p = o.profile.as_ref().expect("profile enabled");
        assert!(p.fast_forwards > 0, "expected idle jumps, got {p:?}");
        assert!(
            p.skipped_cycles > o.stats.cycles / 2,
            "a latency-bound run should mostly fast-forward: {p:?}"
        );
    }

    #[test]
    fn timeout_is_identical_with_fast_forward_on_deadlock() {
        // Two threads that each grab one lock and then want the other's:
        // a deadlock with no future event. Fast-forward must burn the
        // budget to the exact same Timeout the stepped loop reports.
        let p = build(
            |a, d| {
                let l1 = d.word(0);
                let l2 = d.word(0);
                a.li(Reg(1), l1 as i64);
                a.li(Reg(2), l2 as i64);
                a.tid(Reg(3));
                a.bne(Reg(3), Reg::ZERO, "second");
                a.mlock(Reg(1));
                a.bind("spin1"); // give the other thread time to lock l2
                a.addi(Reg(4), Reg(4), 1);
                a.li(Reg(5), 200);
                a.bne(Reg(4), Reg(5), "spin1");
                a.mlock(Reg(2));
                a.halt();
                a.bind("second");
                a.mlock(Reg(2));
                a.bind("spin2");
                a.addi(Reg(4), Reg(4), 1);
                a.li(Reg(5), 200);
                a.bne(Reg(4), Reg(5), "spin2");
                a.mlock(Reg(1));
                a.halt();
            },
            vec![ThreadSpec::at(0), ThreadSpec::at(0)],
        );
        let e = Machine::new(somt(), &p).unwrap().run(50_000);
        assert_eq!(e.unwrap_err(), SimError::Timeout { cycles: 50_000 });
    }

    #[test]
    fn superscalar_and_somt_agree_functionally() {
        let mk = || {
            build(
                |a, _| {
                    a.li(Reg(1), 37);
                    a.li(Reg(2), 11);
                    a.mul(Reg(3), Reg(1), Reg(2));
                    a.out(Reg(3));
                    a.halt();
                },
                vec![ThreadSpec::at(0)],
            )
        };
        let o1 = Machine::new(somt(), &mk()).unwrap().run(10_000).unwrap();
        let o2 =
            Machine::new(MachineConfig::table1_superscalar(), &mk()).unwrap().run(10_000).unwrap();
        assert_eq!(o1.ints(), o2.ints());
    }

    /// A division- and memory-heavy program whose run is long enough to
    /// pause in the middle of real pipeline activity.
    fn checkpoint_workload() -> Program {
        build(
            |a, d| {
                let cell_a = d.word(0);
                let cell_b = d.word(0);
                let done = d.word(0);
                // Parent: sum 1..=60; child: sum 61..=120.
                a.li(Reg(9), 0); // will hold nthr result
                a.nthr(Reg(9), "child");
                a.li(Reg(1), 1);
                a.li(Reg(2), 60);
                a.li(Reg(3), 0);
                a.bind("ploop");
                a.add(Reg(3), Reg(3), Reg(1));
                a.addi(Reg(1), Reg(1), 1);
                a.bge(Reg(2), Reg(1), "ploop");
                a.li(Reg(4), cell_a as i64);
                a.st(Reg(3), 0, Reg(4));
                // Join: poll the done flag.
                a.li(Reg(5), done as i64);
                a.bind("join");
                a.ld(Reg(6), 0, Reg(5));
                a.beq(Reg(6), Reg::ZERO, "join");
                a.li(Reg(7), cell_b as i64);
                a.ld(Reg(8), 0, Reg(7));
                a.add(Reg(3), Reg(3), Reg(8));
                a.out(Reg(3));
                a.halt();
                a.bind("child");
                a.li(Reg(1), 61);
                a.li(Reg(2), 120);
                a.li(Reg(3), 0);
                a.bind("cloop");
                a.add(Reg(3), Reg(3), Reg(1));
                a.addi(Reg(1), Reg(1), 1);
                a.bge(Reg(2), Reg(1), "cloop");
                a.li(Reg(4), cell_b as i64);
                a.st(Reg(3), 0, Reg(4));
                a.li(Reg(6), 1);
                a.li(Reg(5), done as i64);
                a.st(Reg(6), 0, Reg(5));
                a.kthr();
            },
            vec![ThreadSpec::at(0)],
        )
    }

    fn full_run(p: &Program) -> SimOutcome {
        let mut m = Machine::new(somt(), p).unwrap();
        m.enable_profile();
        m.enable_trace(4096);
        m.run(100_000).unwrap()
    }

    #[test]
    fn snapshot_roundtrip_matches_uninterrupted_run() {
        let p = checkpoint_workload();
        let straight = full_run(&p);
        assert_eq!(straight.ints(), vec![(1..=120i64).sum::<i64>()]);

        // Pause mid-run, snapshot, restore into a *fresh* machine.
        let mut m = Machine::new(somt(), &p).unwrap();
        m.enable_profile();
        m.enable_trace(4096);
        let paused = m.run_until(100_000, 40).unwrap();
        assert!(paused.is_none(), "run must pause before completion");
        let blob = m.snapshot();

        let mut fresh = Machine::new(somt(), &p).unwrap();
        fresh.restore_snapshot(&blob).unwrap();
        assert_eq!(fresh.cycle(), m.cycle());
        let resumed = fresh.run(100_000).unwrap();
        assert_eq!(resumed, straight, "restored run diverged from uninterrupted run");
    }

    #[test]
    fn snapshot_resume_in_place_matches() {
        let p = checkpoint_workload();
        let straight = full_run(&p);
        let mut m = Machine::new(somt(), &p).unwrap();
        m.enable_profile();
        m.enable_trace(4096);
        assert!(m.run_until(100_000, 25).unwrap().is_none());
        let blob = m.snapshot();
        // Snapshotting must not perturb the paused machine.
        let direct = m.run(100_000).unwrap();
        assert_eq!(direct, straight);
        // The same machine can be rewound from the blob after finishing.
        m.restore_snapshot(&blob).unwrap();
        let replayed = m.run(100_000).unwrap();
        assert_eq!(replayed, straight);
    }

    #[test]
    fn repeated_pause_resume_is_deterministic() {
        let p = checkpoint_workload();
        let straight = full_run(&p);
        let mut m = Machine::new(somt(), &p).unwrap();
        m.enable_profile();
        m.enable_trace(4096);
        let mut pause = 10;
        let outcome = loop {
            match m.run_until(100_000, pause).unwrap() {
                Some(o) => break o,
                None => {
                    // Migrate through a snapshot at every pause.
                    let blob = m.snapshot();
                    let mut next = Machine::new(somt(), &p).unwrap();
                    next.restore_snapshot(&blob).unwrap();
                    m = next;
                    pause += 17;
                }
            }
        };
        assert_eq!(outcome, straight);
    }

    #[test]
    fn snapshot_rejects_wrong_magic_and_version() {
        let p = checkpoint_workload();
        let mut m = Machine::new(somt(), &p).unwrap();
        assert!(m.run_until(100_000, 20).unwrap().is_none());
        let blob = m.snapshot();

        let mut bad_magic = blob.clone();
        bad_magic[0] ^= 0xff;
        let err = m.restore_snapshot(&bad_magic).unwrap_err();
        assert!(
            matches!(err, SimError::SnapshotMismatch { ref reason } if reason.contains("magic"))
        );

        let mut bad_version = blob.clone();
        bad_version[8] = 0xfe; // format version field
        let err = m.restore_snapshot(&bad_version).unwrap_err();
        assert!(
            matches!(err, SimError::SnapshotMismatch { ref reason } if reason.contains("version"))
        );
    }

    #[test]
    fn snapshot_rejects_different_program() {
        let p = checkpoint_workload();
        let mut m = Machine::new(somt(), &p).unwrap();
        assert!(m.run_until(100_000, 20).unwrap().is_none());
        let blob = m.snapshot();

        let other = build(
            |a, _| {
                a.li(Reg(1), 1);
                a.out(Reg(1));
                a.halt();
            },
            vec![ThreadSpec::at(0)],
        );
        let mut wrong = Machine::new(somt(), &other).unwrap();
        let err = wrong.restore_snapshot(&blob).unwrap_err();
        assert!(
            matches!(err, SimError::SnapshotMismatch { ref reason } if reason.contains("hash"))
        );

        // A different machine configuration is rejected the same way.
        let mut wrong_cfg = Machine::new(MachineConfig::table1_superscalar(), &p).unwrap();
        let err = wrong_cfg.restore_snapshot(&blob).unwrap_err();
        assert!(
            matches!(err, SimError::SnapshotMismatch { ref reason } if reason.contains("hash"))
        );
    }

    fn assert_hash_mismatch(err: SimError, what: &str) {
        assert!(
            matches!(err, SimError::SnapshotMismatch { ref reason } if reason.contains("hash")),
            "{what}: {err:?}"
        );
    }

    #[test]
    fn snapshot_rejects_a_program_one_data_byte_apart() {
        // Five words and a three-byte tail: the identity hash reads the
        // image a word at a time and must still see every byte.
        let mut p = checkpoint_workload();
        p.data.resize(p.data_len, 0);
        p.data.extend(1..=19u8);
        p.data_len = p.data.len();
        assert_eq!(p.data.len() % 8, 3);
        let mut m = Machine::new(somt(), &p).unwrap();
        assert!(m.run_until(100_000, 20).unwrap().is_none());
        let blob = m.snapshot();
        Machine::new(somt(), &p).unwrap().restore_snapshot(&blob).unwrap();
        for at in [30, p.data.len() - 1] {
            let mut other = p.clone();
            other.data[at] ^= 1;
            let err = Machine::new(somt(), &other).unwrap().restore_snapshot(&blob).unwrap_err();
            assert_hash_mismatch(err, &format!("data byte {at}"));
        }
    }

    #[test]
    fn snapshot_rejects_a_config_one_l2_field_apart() {
        let p = checkpoint_workload();
        let mut m = Machine::new(somt(), &p).unwrap();
        assert!(m.run_until(100_000, 20).unwrap().is_none());
        let blob = m.snapshot();
        let l2 = somt().l2;
        for (field, changed) in [
            ("size_bytes", CacheParams { size_bytes: l2.size_bytes * 2, ..l2 }),
            ("assoc", CacheParams { assoc: l2.assoc * 2, ..l2 }),
            ("latency", CacheParams { latency: l2.latency + 1, ..l2 }),
            ("ports", CacheParams { ports: l2.ports + 1, ..l2 }),
        ] {
            let cfg = MachineConfig { l2: changed, ..somt() };
            let err = Machine::new(cfg, &p).unwrap().restore_snapshot(&blob).unwrap_err();
            assert_hash_mismatch(err, field);
        }
    }

    #[test]
    fn warm_machine_across_cache_geometries_matches_fresh_machines() {
        // Repeats reuse the held hierarchy; changes rebuild it. Every run
        // must match a brand-new machine, cache statistics included.
        let p = checkpoint_workload();
        let table1 = somt();
        let doubled = MachineConfig { l1d: table1.l1d.doubled(), ..table1.clone() };
        let cmp = MachineConfig::cmp_somt(2, 4);
        let mut warm = WarmMachine::new();
        for cfg in [&table1, &table1, &doubled, &doubled, &cmp, &cmp, &table1, &cmp, &doubled] {
            let mut fresh = Machine::new(cfg.clone(), &p).unwrap();
            fresh.enable_profile();
            fresh.enable_trace(4096);
            let expected = fresh.run(100_000).unwrap();
            let m = warm.prepare(cfg.clone(), &p).unwrap();
            m.enable_profile();
            m.enable_trace(4096);
            assert_eq!(m.run(100_000).unwrap(), expected, "cores {}, l1d {:?}", cfg.cores, cfg.l1d);
        }
    }

    #[test]
    fn truncated_and_corrupted_blobs_error_not_panic() {
        let p = checkpoint_workload();
        let mut m = Machine::new(somt(), &p).unwrap();
        assert!(m.run_until(100_000, 30).unwrap().is_none());
        let blob = m.snapshot();

        // Every proper prefix must be rejected cleanly.
        for len in (0..blob.len()).step_by(97).chain([blob.len() - 1]) {
            let mut victim = Machine::new(somt(), &p).unwrap();
            let err = victim.restore_snapshot(&blob[..len]).unwrap_err();
            assert!(matches!(err, SimError::SnapshotMismatch { .. }), "prefix {len}");
        }

        // A corrupted length prefix right after the header must not drive
        // a huge allocation or a panic.
        let mut corrupt = blob.clone();
        for b in &mut corrupt[20..28] {
            *b = 0xff;
        }
        let mut victim = Machine::new(somt(), &p).unwrap();
        assert!(matches!(
            victim.restore_snapshot(&corrupt).unwrap_err(),
            SimError::SnapshotMismatch { .. }
        ));

        // Trailing garbage is rejected too.
        let mut long = blob.clone();
        long.push(0);
        let mut victim = Machine::new(somt(), &p).unwrap();
        assert!(matches!(
            victim.restore_snapshot(&long).unwrap_err(),
            SimError::SnapshotMismatch { .. }
        ));
    }

    #[test]
    fn warm_machine_is_clean_after_a_restored_run() {
        // A worker that restored a snapshot job must leave no checkpoint
        // state behind: its next fresh job is byte-identical to one run
        // on a never-checkpointed machine.
        let p = checkpoint_workload();
        let fresh_ref = full_run(&p);

        let mut warm = WarmMachine::new();
        {
            let m = warm.prepare(somt(), &p).unwrap();
            assert!(m.run_until(100_000, 35).unwrap().is_none());
            let blob = m.snapshot();
            m.restore_snapshot(&blob).unwrap();
            m.run(100_000).unwrap();
        }
        // Next job through the same warm slot, no checkpoint involved.
        let m = warm.prepare(somt(), &p).unwrap();
        m.enable_profile();
        m.enable_trace(4096);
        let next = m.run(100_000).unwrap();
        assert_eq!(next, fresh_ref, "checkpoint state leaked through the warm pool");
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let p = checkpoint_workload();
        let mk = || {
            let mut m = Machine::new(somt(), &p).unwrap();
            assert!(m.run_until(100_000, 45).unwrap().is_none());
            m.snapshot()
        };
        assert_eq!(mk(), mk(), "same state must serialize to the same bytes");
    }

    /// The issue rule the age-ordered ready list replaced: gather every
    /// ready entry, sort by age, walk them all, and skip an entry whose
    /// core has no issue bandwidth left or whose functional-unit pool is
    /// empty. Returns the sequence numbers issued, in issue order.
    fn gather_sort_skip(entries: &[(u64, usize, FuClass)], cfg: &MachineConfig) -> Vec<u64> {
        let per_core = cfg.contexts / cfg.cores;
        let mut candidates = entries.to_vec();
        candidates.sort_unstable_by_key(|e| e.0);
        let mut budget = vec![cfg.issue_width; cfg.cores];
        let mut ialu = vec![cfg.fus.ialu; cfg.cores];
        let mut imult = vec![cfg.fus.imult; cfg.cores];
        let mut fpalu = vec![cfg.fus.fpalu; cfg.cores];
        let mut fpmult = vec![cfg.fus.fpmult; cfg.cores];
        let mut mem = vec![cfg.l1d.ports * MEM_ISSUE_PER_PORT; cfg.cores];
        let mut issued = Vec::new();
        for &(seq, slot, fu) in &candidates {
            let core = slot / per_core;
            if budget[core] == 0 {
                continue;
            }
            let unit = match fu {
                FuClass::IntAlu => &mut ialu[core],
                FuClass::IntMult => &mut imult[core],
                FuClass::FpAlu => &mut fpalu[core],
                FuClass::FpMult => &mut fpmult[core],
                FuClass::Mem => &mut mem[core],
                FuClass::None => unreachable!(),
            };
            if *unit == 0 {
                continue;
            }
            *unit -= 1;
            budget[core] -= 1;
            issued.push(seq);
        }
        issued
    }

    #[test]
    fn age_ordered_walk_issues_what_gather_sort_skip_issued() {
        const CLASSES: [FuClass; 5] =
            [FuClass::IntAlu, FuClass::IntMult, FuClass::FpAlu, FuClass::FpMult, FuClass::Mem];
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x15_5e);
        let (mut early_stops, mut empty_pool_skips) = (0, 0);
        for trial in 0..600 {
            let mut cfg = if trial % 2 == 0 { somt() } else { MachineConfig::cmp_somt(2, 4) };
            cfg.issue_width = 1 + rng.usize_below(8);
            // Every class but the integer ALU may have an empty pool.
            cfg.fus = FuConfig {
                ialu: 1 + rng.usize_below(3),
                imult: rng.usize_below(3),
                fpalu: rng.usize_below(3),
                fpmult: rng.usize_below(3),
            };
            cfg.l1d.ports = 1 + rng.usize_below(2);
            let loaders = (0..cfg.contexts).map(|_| ThreadSpec::at(0)).collect();
            let p = build(|a, _| a.halt(), loaders);
            let mut m = Machine::new(cfg.clone(), &p).unwrap();

            // A ready set in age order, as dispatch and wakeups keep it.
            let mut entries = Vec::new();
            let mut seq = rng.u64_below(1000);
            for k in 0..rng.usize_below(40) {
                seq += 1 + rng.u64_below(4);
                let slot = rng.usize_below(cfg.contexts);
                let fu = CLASSES[rng.usize_below(CLASSES.len())];
                let is_mem = fu == FuClass::Mem;
                let idx = m.arena.alloc(seq, fu, 1, is_mem && rng.u64_below(2) == 0, is_mem, 0);
                m.arena.set_mem_addr(idx, capsule_isa::DATA_BASE + 64 * k as u64);
                m.ready.push((seq, slot, idx));
                entries.push((seq, slot, fu));
            }

            let want = gather_sort_skip(&entries, &cfg);
            m.issue_stage();
            let left: Vec<u64> = m.ready.iter().map(|e| e.0).collect();
            let issued: Vec<u64> =
                entries.iter().map(|e| e.0).filter(|s| !left.contains(s)).collect();
            assert_eq!(issued, want, "trial {trial}: {cfg:?}");
            assert!(left.windows(2).all(|w| w[0] < w[1]), "losers keep age order");
            assert_eq!(m.completions.iter().count(), want.len());
            let budget = cfg.issue_width * cfg.cores;
            early_stops += usize::from(want.len() == budget && !left.is_empty());
            empty_pool_skips += usize::from(want.len() < budget && !left.is_empty());
        }
        // The seed reaches both ways an entry can stay behind.
        assert!(early_stops > 20 && empty_pool_skips > 20, "{early_stops} {empty_pool_skips}");
    }

    #[test]
    fn restore_rejects_a_ready_list_naming_an_inert_entry() {
        let p = checkpoint_workload();
        let mut m = Machine::new(somt(), &p).unwrap();
        assert!(m.run_until(100_000, 20).unwrap().is_none());
        let slot = m.slots.iter().position(|s| s.thread.is_some()).expect("a live thread");
        let inert = m.arena.alloc(m.seq, FuClass::None, 1, false, false, m.cycle);
        m.ready.push((m.seq, slot, inert));
        let blob = m.snapshot();
        let err = Machine::new(somt(), &p).unwrap().restore_snapshot(&blob).unwrap_err();
        assert!(
            matches!(err, SimError::SnapshotMismatch { ref reason } if reason.contains("inert")),
            "{err:?}"
        );
    }

    #[test]
    fn completions_past_the_wheel_survive_checkpoints() {
        // Thread 0 chases pointers through 16 blocks of main memory, 1000
        // cycles away, and halts once the chase ends; the exit branch
        // waits for the last load. Thread 1 spins meanwhile, so no cycle
        // is skipped and pauses land while a load is in flight.
        let p = build(
            |a, d| {
                d.align(8);
                let base = d.here();
                let stride = 64 * 8u64;
                for i in 0..16u64 {
                    let mut block = [0i64; 64];
                    if i < 15 {
                        block[0] = (base + (i + 1) * stride) as i64;
                    }
                    d.words(&block);
                }
                a.tid(Reg(5));
                a.bne(Reg(5), Reg::ZERO, "spin");
                a.li(Reg(1), base as i64);
                a.bind("chase");
                a.ld(Reg(1), 0, Reg(1));
                a.bne(Reg(1), Reg::ZERO, "chase");
                a.out(Reg(1));
                a.halt();
                a.bind("spin");
                a.addi(Reg(4), Reg(4), 1);
                a.j("spin");
            },
            vec![ThreadSpec::at(0), ThreadSpec::at(0)],
        );
        let cfg = MachineConfig { mem_latency: 1000, ..somt() };
        let profiled = || {
            let mut m = Machine::new(cfg.clone(), &p).unwrap();
            m.enable_profile();
            m.enable_trace(4096);
            m
        };
        let straight = profiled().run(1_000_000).unwrap();
        assert!(straight.cycles() > 15 * 1000, "the chase waits on memory: {}", straight.cycles());

        let mut m = profiled();
        let (mut pause, mut parked_far) = (0, 0);
        let outcome = loop {
            match m.run_until(1_000_000, pause).unwrap() {
                Some(o) => break o,
                None => {
                    let far = m.cycle + crate::wheel::SPOKES as u64;
                    let arena = &m.arena;
                    parked_far +=
                        usize::from(m.completions.iter().any(|(_, i)| arena.complete_at(i) >= far));
                    let blob = m.snapshot();
                    let mut next = Machine::new(cfg.clone(), &p).unwrap();
                    next.restore_snapshot(&blob).unwrap();
                    assert_eq!(next.snapshot(), blob, "restore must re-file every event");
                    m = next;
                    pause += 97;
                }
            }
        };
        assert!(parked_far > 20, "only {parked_far} pauses held an overflowed event");
        assert_eq!(outcome, straight);
    }

    /// Single-byte corruptions of a real blob, in the arena and in every
    /// section from the slots on: each is rejected as a mismatch, or
    /// restores into a machine that runs to a structured outcome under a
    /// small cycle budget. None may panic. (Memory, cache and predictor
    /// contents are plain data: any value there is a valid state.)
    #[test]
    fn mutated_snapshots_are_rejected_or_run_never_panic() {
        let p = checkpoint_workload();
        let mut m = Machine::new(somt(), &p).unwrap();
        assert!(m.run_until(100_000, 40).unwrap().is_none());
        let blob = m.snapshot();
        let encoded_len = |encode: &dyn Fn(&mut Writer)| {
            let mut w = Writer::new();
            encode(&mut w);
            w.into_bytes().len()
        };
        let arena_start = encoded_len(&|w| crate::snapshot::write_header(w, m.sig));
        let arena_end = arena_start + encoded_len(&|w| m.arena.encode(w));
        let slots_start = arena_end
            + encoded_len(&|w| m.mem.encode(w))
            + encoded_len(&|w| m.hier.encode(w))
            + encoded_len(&|w| m.pred.encode(w));
        let at: Vec<usize> = (arena_start..arena_end).chain(slots_start..blob.len()).collect();

        let mut mutations: Vec<(usize, u8)> =
            at.iter().flat_map(|&i| [0x01, 0x80, 0xff].map(|x| (i, blob[i] ^ x))).collect();
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x5eed_b10b);
        for _ in 0..512 {
            let i = at[rng.usize_below(at.len())];
            mutations.push((i, blob[i] ^ (rng.usize_below(255) as u8 + 1)));
        }

        let mut warm = WarmMachine::new();
        let mut panicked = Vec::new();
        for &(i, byte) in &mutations {
            let mut bad = blob.clone();
            bad[i] = byte;
            let m = warm.prepare(somt(), &p).unwrap();
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                match m.restore_snapshot(&bad) {
                    Ok(()) => drop(m.run(2_000)),
                    Err(e) => assert!(matches!(e, SimError::SnapshotMismatch { .. }), "{e:?}"),
                }
            }));
            if run.is_err() {
                panicked.push((i, byte));
                warm = WarmMachine::new();
            }
        }
        assert!(
            panicked.is_empty(),
            "{} of {} mutations panicked: {panicked:?}",
            panicked.len(),
            mutations.len()
        );
    }

    #[test]
    fn stage_times_follow_the_profile_switch() {
        let p = checkpoint_workload();
        let profiled = || {
            let mut m = Machine::new(somt(), &p).unwrap();
            m.enable_profile();
            m
        };
        let mut m = Machine::new(somt(), &p).unwrap();
        m.run(100_000).unwrap();
        assert_eq!(m.stage_times(), None, "no host timing while the profile is off");

        let mut m = profiled();
        let o = m.run(100_000).unwrap();
        let t = m.stage_times().expect("profile on");
        assert!(t.stages().iter().all(|(_, d)| !d.is_zero()), "{t:?}");
        // Host time is not part of the outcome: two runs still compare
        // equal.
        assert_eq!(o, profiled().run(100_000).unwrap());

        // Nor of a snapshot: a restored machine starts from zero.
        let mut m = profiled();
        assert!(m.run_until(100_000, 40).unwrap().is_none());
        let blob = m.snapshot();
        m.restore_snapshot(&blob).unwrap();
        assert_eq!(m.stage_times(), Some(StageTimes::default()));
    }
}
