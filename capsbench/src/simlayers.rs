//! Traced in-process runs: one scenario split into the calls
//! [`capsule_bench::try_run_checked_warm`] makes — `Workload::program`,
//! `WarmMachine::prepare`, `Machine::run`, `Workload::check` — each
//! timed as its own span, plus the report rendering of
//! `capsule-bench`. Shared by the sim-batch traced rounds and by the
//! served workloads' replay of their distinct jobs.

use std::time::Instant;

use capsule_bench::{BatchReport, RunRecord, Scenario, BUDGET};
use capsule_sim::machine::WarmMachine;
use capsule_sim::SimOutcome;

use crate::spans::Spans;

/// Work counters summed over traced runs: these move only when the
/// simulated model changes, never with host speed.
#[derive(Default)]
pub struct SimCounts {
    pub cycles: u64,
    pub committed: u64,
    pub stepped_cycles: u64,
    pub skipped_cycles: u64,
    pub fetch_work: u64,
    pub dispatch_work: u64,
    pub issue_work: u64,
    pub complete_work: u64,
    pub commit_work: u64,
    pub l1d_misses: u64,
    pub l2_misses: u64,
}

impl SimCounts {
    pub fn add(&mut self, o: &SimOutcome) {
        self.cycles += o.cycles();
        self.committed += o.stats.committed;
        self.l1d_misses += o.l1d.misses;
        self.l2_misses += o.l2.misses;
        if let Some(p) = &o.profile {
            self.stepped_cycles += p.stepped_cycles;
            self.skipped_cycles += p.skipped_cycles;
            self.fetch_work += p.fetch.units;
            self.dispatch_work += p.dispatch.units;
            self.issue_work += p.issue.units;
            self.complete_work += p.complete.units;
            self.commit_work += p.commit.units;
        }
    }

    /// The counters as per-layer metrics.
    pub fn metrics(&self, out: &mut crate::Metrics) {
        out.set("sim.cycles", self.cycles as f64);
        out.set("sim.committed", self.committed as f64);
        out.set("sim.stepped_cycles", self.stepped_cycles as f64);
        out.set("sim.skipped_cycles", self.skipped_cycles as f64);
        out.set("sim.fetch_work", self.fetch_work as f64);
        out.set("sim.dispatch_work", self.dispatch_work as f64);
        out.set("sim.issue_work", self.issue_work as f64);
        out.set("sim.complete_work", self.complete_work as f64);
        out.set("sim.commit_work", self.commit_work as f64);
        out.set("mem.l1d_misses", self.l1d_misses as f64);
        out.set("mem.l2_misses", self.l2_misses as f64);
    }
}

/// Runs `sc` on `warm` with the stage profile on, recording one span
/// per layer call under the caller's span `parent` of operation `op`.
/// Returns the outcome, or the failing stage's message.
pub fn run_traced(
    sc: &Scenario,
    warm: &mut WarmMachine,
    spans: &mut Spans,
    op: u64,
    parent: usize,
) -> Result<SimOutcome, String> {
    let t0 = Instant::now();
    let program = sc.workload.program(sc.variant);
    let t1 = Instant::now();
    let machine = warm.prepare(sc.config.clone(), &program).map_err(|e| e.to_string())?;
    machine.enable_profile();
    let t2 = Instant::now();
    let outcome = machine.run(BUDGET).map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    let checked = sc.workload.check(&outcome.output);
    let t4 = Instant::now();
    spans.push("workloads.program", op, Some(parent), t0, t1);
    spans.push("sim.prepare", op, Some(parent), t1, t2);
    spans.push("sim.run", op, Some(parent), t2, t3);
    spans.push("workloads.check", op, Some(parent), t3, t4);
    checked.map(|()| outcome)
}

/// Renders `outcomes` (one batch, in scenario order) the way
/// `capsule-serve` renders a report — `BatchReport::to_json` plus the
/// compact writer — inside a `bench.report` span; returns the bytes.
pub fn render_report(
    title: &str,
    scenarios: &[Scenario],
    outcomes: Vec<SimOutcome>,
    spans: &mut Spans,
    op: u64,
) -> String {
    let records = scenarios
        .iter()
        .zip(outcomes)
        .map(|(sc, outcome)| RunRecord {
            group: sc.group.clone(),
            label: sc.label.clone(),
            workload: sc.workload.name(),
            variant: variant_name(sc.variant),
            outcome,
        })
        .collect();
    let report = BatchReport { title: title.to_string(), records };
    let t0 = Instant::now();
    let bytes = report.to_json().to_string_compact();
    spans.push("bench.report", op, None, t0, Instant::now());
    bytes
}

/// The report's rendering of a variant (mirrors `capsule-bench`).
fn variant_name(v: capsule_workloads::Variant) -> String {
    use capsule_workloads::Variant;
    match v {
        Variant::Sequential => "sequential".to_string(),
        Variant::Static(n) => format!("static({n})"),
        Variant::Component => "component".to_string(),
    }
}

/// Per-layer timing metrics from the spans recorded by [`run_traced`]
/// and [`render_report`]; `sim.unattributed_ms` is the self time of the
/// callers' `scenario` spans (the invariant checks and bookkeeping
/// around the layer calls).
pub fn timing_metrics(spans: &Spans, out: &mut crate::Metrics) {
    out.set("workloads.program_ms", spans.mean_ms("workloads.program"));
    out.set("workloads.check_ms", spans.mean_ms("workloads.check"));
    out.set("sim.prepare_ms", spans.mean_ms("sim.prepare"));
    out.set("sim.run_ms", spans.mean_ms("sim.run"));
    out.set("bench.report_ms", spans.mean_ms("bench.report"));
    out.set("sim.unattributed_ms", spans.mean_self_ms("scenario"));
}
