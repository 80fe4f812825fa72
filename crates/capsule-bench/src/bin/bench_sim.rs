//! Simulator-throughput benchmark: host wall-clock and simulated cycles
//! per host second, per catalog entry.
//!
//! Unlike the figure/table binaries (which report *simulated* quantities
//! only), this mode measures the simulator itself: how fast the host
//! churns through simulated cycles. It drives every catalog entry at a
//! chosen scale through the shared [`BatchRunner`] and writes
//! `BENCH_sim.json` (`capsule-bench-sim/1`), the tracked record of the
//! perf trajectory. See docs/PERF.md.
//!
//! ```text
//! bench_sim [--scale smoke|quick|full] [--out PATH] [--baseline PATH]
//!           [--compare PATH] [--noise FRAC] [--entries a,b,c]
//!           [--reports DIR] [--deterministic] [--trace-export DIR]
//! ```
//!
//! - The file records the batch runner's worker count as a top-level
//!   `workers` (outside `--deterministic`; `CAPSULE_BENCH_WORKERS` sets
//!   it, host parallelism otherwise). `--baseline` and `--compare` exit
//!   2 on a baseline that recorded a different count.
//! - `--baseline PATH` folds a previous `BENCH_sim.json` in: each entry
//!   gains `baseline_wall_ms` and `speedup` (baseline / current).
//! - `--compare PATH` gates on a previous `BENCH_sim.json`: prints a
//!   per-entry `sim_cycles_per_sec` speedup table and exits nonzero if
//!   any entry regressed beyond the `--noise` fraction (default 0.15,
//!   i.e. current throughput below 85% of the baseline fails). The
//!   output file is still written before the gate exits.
//! - `--reports DIR` additionally writes each entry's deterministic
//!   `capsule-bench-report/1` JSON to `DIR/<entry>.json`, for
//!   byte-identical parity checks across simulator changes.
//! - `--deterministic` omits every host-timing field from the output so
//!   two runs of the same build produce byte-identical JSON (the CI
//!   determinism smoke). It also skips the stage pass below.
//! - Outside `--deterministic`, a second, serial pass runs each entry's
//!   scenarios once with the stage profile off and once with it on, and
//!   prints (and records as `stage_ms` and `profile_cost`) the host
//!   milliseconds spent in each pipeline stage (sampled estimates, see
//!   `Machine::stage_times`), the time no stage accounts for (`other`),
//!   and what turning the profile on cost. The timed columns above come
//!   from the first pass, profile off.
//! - `--trace-export DIR` runs every scenario with CAPSULE-event tracing
//!   on and writes one Chrome trace-event JSON per scenario to `DIR`
//!   (see docs/OBSERVABILITY.md). Reports and simulated numbers are
//!   unaffected — tracing is observation-only — but host wall-clock
//!   times include the recording cost, so don't compare a traced run's
//!   `wall_ms` against an untraced baseline.

use std::time::{Duration, Instant};

use capsule_bench::benchfile::{check_workers, compare_field, read_entry_field, round3};
use capsule_bench::catalog::{self, Scale};
use capsule_bench::trace_export::export_batch;
use capsule_bench::{BatchRunner, RunOptions, Scenario, BUDGET};
use capsule_core::output::Json;
use capsule_sim::{StageTimes, WarmMachine};

struct EntryResult {
    name: &'static str,
    scenarios: usize,
    sim_cycles: u64,
    wall_ms: f64,
    stages: Option<StagePass>,
}

/// One entry's scenarios run serially on one warmed machine, each once
/// with the stage profile off and once with it on (`Machine::run` only).
#[derive(Default)]
struct StagePass {
    plain: Duration,
    profiled: Duration,
    stages: StageTimes,
}

impl StagePass {
    fn run(scenarios: &[Scenario], warm: &mut WarmMachine) -> StagePass {
        let mut pass = StagePass::default();
        for sc in scenarios {
            let program = sc.workload.program(sc.variant);
            for profile in [false, true] {
                let m = warm.prepare(sc.config.clone(), &program).expect("scenario builds");
                if profile {
                    m.enable_profile();
                }
                let start = Instant::now();
                m.run(BUDGET).unwrap_or_else(|e| panic!("{}: {e}", sc.label));
                let took = start.elapsed();
                match m.stage_times() {
                    Some(t) => {
                        pass.profiled += took;
                        pass.stages.add(&t);
                    }
                    None => pass.plain += took,
                }
            }
        }
        pass
    }

    /// `(stage, ms)` for the five stages and `other`, the profiled run
    /// time no stage accounts for.
    fn stage_ms(&self) -> Vec<(&'static str, f64)> {
        let mut rows: Vec<(&'static str, f64)> =
            self.stages.stages().iter().map(|&(name, d)| (name, ms(d))).collect();
        let charged: f64 = rows.iter().map(|r| r.1).sum();
        rows.push(("other", ms(self.profiled) - charged));
        rows
    }

    /// Extra host time of the profiled runs over the plain ones, as a
    /// fraction.
    fn cost(&self) -> f64 {
        ms(self.profiled) / ms(self.plain).max(1e-9) - 1.0
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct Args {
    scale: Scale,
    out: String,
    baseline: Option<String>,
    compare: Option<String>,
    noise: f64,
    entries: Option<Vec<String>>,
    reports: Option<String>,
    deterministic: bool,
    trace_export: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: Scale::Quick,
        out: "BENCH_sim.json".to_string(),
        baseline: None,
        compare: None,
        noise: 0.15,
        entries: None,
        reports: None,
        deterministic: false,
        trace_export: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--scale" => {
                let v = value("--scale");
                args.scale = Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown scale {v:?} (smoke|quick|full)");
                    std::process::exit(2);
                });
            }
            "--out" => args.out = value("--out"),
            "--baseline" => args.baseline = Some(value("--baseline")),
            "--compare" => args.compare = Some(value("--compare")),
            "--noise" => {
                let v = value("--noise");
                args.noise = v.parse().unwrap_or_else(|_| {
                    eprintln!("--noise needs a fraction (e.g. 0.15), got {v:?}");
                    std::process::exit(2);
                });
            }
            "--reports" => args.reports = Some(value("--reports")),
            "--entries" => {
                args.entries =
                    Some(value("--entries").split(',').map(|s| s.trim().to_string()).collect());
            }
            "--deterministic" => args.deterministic = true,
            "--trace-export" => args.trace_export = Some(value("--trace-export")),
            "--full" => args.scale = Scale::Full, // parity with the figure binaries
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let runner = BatchRunner::from_env();
    for path in [&args.baseline, &args.compare].into_iter().flatten() {
        if let Err(e) = check_workers(path, runner.workers()) {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
    let mut results: Vec<EntryResult> = Vec::new();
    let mut warm = WarmMachine::new();

    println!("simulator throughput, {} scale, {} worker(s)\n", args.scale.name(), runner.workers());
    println!(
        "  {:<24} {:>5} {:>14} {:>10} {:>14}",
        "entry", "runs", "sim cycles", "wall ms", "cycles/sec"
    );
    for entry in catalog::entries() {
        if let Some(filter) = &args.entries {
            if !filter.iter().any(|f| f == entry.name) {
                continue;
            }
        }
        let scenarios = entry.scenarios(args.scale);
        let n = scenarios.len();
        // The stage pass runs after the timed batch, so it cannot warm
        // anything the timed batch measures.
        let stage_input = (!args.deterministic).then(|| scenarios.clone());
        let contexts: Vec<usize> = scenarios.iter().map(|s| s.config.contexts).collect();
        let opts =
            RunOptions { profile: false, trace: args.trace_export.as_ref().map(|_| 200_000usize) };
        let start = Instant::now();
        let report = runner
            .try_run_opts(entry.title, scenarios, BUDGET, None, opts)
            .unwrap_or_else(|e| panic!("batch failed: {e}"));
        let wall = start.elapsed();
        let sim_cycles: u64 = report.records.iter().map(|r| r.outcome.cycles()).sum();
        let wall_ms = wall.as_secs_f64() * 1e3;
        let per_sec = sim_cycles as f64 / wall.as_secs_f64().max(1e-9);
        println!(
            "  {:<24} {:>5} {:>14} {:>10.1} {:>14.0}",
            entry.name, n, sim_cycles, wall_ms, per_sec
        );
        if let Some(dir) = &args.reports {
            std::fs::create_dir_all(dir).expect("create reports dir");
            let path = format!("{dir}/{}.json", entry.name);
            std::fs::write(&path, report.to_json().to_string_pretty()).expect("write report");
        }
        if let Some(dir) = &args.trace_export {
            let written = export_batch(std::path::Path::new(dir), entry.name, &report, &contexts)
                .expect("write chrome traces");
            for w in &written {
                println!(
                    "    trace: {} ({} events, {} dropped)",
                    w.path.display(),
                    w.events,
                    w.dropped
                );
            }
        }
        let stages = stage_input.map(|sc| StagePass::run(&sc, &mut warm));
        results.push(EntryResult { name: entry.name, scenarios: n, sim_cycles, wall_ms, stages });
    }

    if !args.deterministic {
        println!(
            "\nhost ms per stage (serial Machine::run, profile on; cost = profiled / plain - 1)\n"
        );
        println!(
            "  {:<24} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7}",
            "entry", "fetch", "dispatch", "issue", "complete", "commit", "other", "plain", "cost"
        );
        for r in &results {
            let Some(pass) = &r.stages else { continue };
            let cols: String = pass.stage_ms().iter().map(|(_, v)| format!(" {v:>9.1}")).collect();
            println!(
                "  {:<24}{cols} {:>9.1} {:>6.1}%",
                r.name,
                ms(pass.plain),
                pass.cost() * 100.0
            );
        }
    }

    let baseline = args.baseline.as_deref().map(|p| read_entry_field(p, "wall_ms"));
    let mut root = Json::object();
    root.push("schema", "capsule-bench-sim/1");
    root.push("scale", args.scale.name());
    if !args.deterministic {
        root.push("workers", runner.workers());
    }
    let mut rows = Vec::with_capacity(results.len());
    let mut total_wall = 0.0;
    let mut improved = 0usize;
    let mut compared = 0usize;
    for r in &results {
        let mut row = Json::object();
        row.push("entry", r.name).push("scenarios", r.scenarios).push("sim_cycles", r.sim_cycles);
        if !args.deterministic {
            let secs = r.wall_ms / 1e3;
            row.push("wall_ms", round3(r.wall_ms))
                .push("sim_cycles_per_sec", round3(r.sim_cycles as f64 / secs.max(1e-9)));
            if let Some(pass) = &r.stages {
                let mut stage_ms = Json::object();
                for (name, v) in pass.stage_ms() {
                    stage_ms.push(name, round3(v));
                }
                row.push("stage_ms", stage_ms).push("profile_cost", round3(pass.cost()));
            }
            if let Some(base) = &baseline {
                if let Some((_, base_ms)) = base.iter().find(|(n, _)| n == r.name) {
                    compared += 1;
                    let speedup = base_ms / r.wall_ms.max(1e-9);
                    if speedup >= 1.3 {
                        improved += 1;
                    }
                    row.push("baseline_wall_ms", round3(*base_ms)).push("speedup", round3(speedup));
                }
            }
        }
        total_wall += r.wall_ms;
        rows.push(row);
    }
    root.push("entries", Json::Array(rows));
    if !args.deterministic {
        root.push("total_wall_ms", round3(total_wall));
    }
    if compared > 0 {
        println!(
            "\n{improved}/{compared} entries at >= 1.3x speedup over {}",
            args.baseline.as_deref().unwrap_or("?")
        );
    }
    std::fs::write(&args.out, root.to_string_pretty()).expect("write BENCH_sim.json");
    println!("\nwrote {}", args.out);

    if let Some(path) = &args.compare {
        let current: Vec<(String, f64)> = results
            .iter()
            .map(|r| (r.name.to_string(), r.sim_cycles as f64 / (r.wall_ms / 1e3).max(1e-9)))
            .collect();
        if compare_field(path, "sim_cycles_per_sec", "c/s", args.noise, &current) > 0 {
            std::process::exit(1);
        }
    }
}
