//! `sim-batch`: the simulator's cycle loop does almost all the work.
//!
//! One in-process worker runs a closed-loop batch of catalog scenarios
//! through [`capsule_bench::try_run_checked_warm`] on one warmed machine,
//! in rounds: every round runs each scenario of the mix once, in an
//! order drawn from the seed. The mix spans the simulator's spread in
//! simulated cycles per host second, from division-heavy component
//! QuickSort to the sequential SPEC baselines.
//!
//! A calibration kernel is timed before every scenario, and each
//! scenario's host time is scaled to the reference host
//! ([`crate::hostspeed`]). Throughput is the scenario count over the
//! total scaled time of the single-threaded scenario calls, which is
//! their CPU time: on this host the fastest repetition depended on
//! whether a run happened to catch a quiet moment, and moved far more
//! from run to run than the total did (see README.md).

use std::time::Instant;

use capsule_bench::catalog::{self, Scale};
use capsule_bench::{try_run_checked_warm, RunOptions, Scenario, BUDGET};
use capsule_core::rng::{Rng, Xoshiro256StarStar};
use capsule_isa::decode::{clear_decode_cache, decode_cache_stats};
use capsule_sim::machine::WarmMachine;

use crate::hostspeed::HostSpeed;
use crate::simlayers::{self, SimCounts};
use crate::spans::Spans;
use crate::stats::{hd_quantile, median};
use crate::{Args, Metrics, Tally};

/// One slice of the mix: scenarios of a catalog entry at a scale,
/// optionally narrowed to one group and a set of labels.
struct Part {
    entry: &'static str,
    scale: Scale,
    group: Option<&'static str>,
    labels: &'static [&'static str],
}

/// The mix, ~1.9 s of simulation per round on a 2-core Xeon host.
const MIX: &[Part] = &[
    // Component QuickSort: divisions dominate. The largest list (l3,
    // ~0.35 s) is left out so no single scenario outweighs the round.
    Part {
        entry: "fig5_quicksort_dist",
        scale: Scale::Quick,
        group: Some("somt_component"),
        labels: &["l0", "l1", "l2", "l4", "l5", "l6"],
    },
    // Throttled small sections (LZW, perceptron); quick scale runs
    // ~14 s, so the smoke data sets stand in.
    Part { entry: "fig7_throttling", scale: Scale::Smoke, group: None, labels: &[] },
    // The memory-bound SPEC analogs, scalar and SOMT.
    Part { entry: "fig8_spec_speedups", scale: Scale::Quick, group: None, labels: &[] },
    // Sequential baselines, the fastest cycles per host second.
    Part { entry: "table2_componentization", scale: Scale::Quick, group: None, labels: &[] },
];

/// Entries of the mix, for the per-entry simulated-cycles rates.
pub const MIX_ENTRIES: [&str; 4] =
    ["fig5_quicksort_dist", "fig7_throttling", "fig8_spec_speedups", "table2_componentization"];

/// A run repeats the mix at least this often, so the percentiles rest
/// on at least 200 samples even on a slow host.
const MIN_ROUNDS: usize = 10;

/// How many times set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 15;

/// Builds the mix's scenarios, tagged with their entry name.
fn build_mix() -> Vec<(&'static str, Scenario)> {
    let mut out = Vec::new();
    for part in MIX {
        let entry = catalog::find(part.entry).expect("mix names catalog entries");
        for sc in entry.scenarios(part.scale) {
            let group_ok = part.group.is_none_or(|g| sc.group == g);
            let label_ok = part.labels.is_empty() || part.labels.contains(&sc.label.as_str());
            if group_ok && label_ok {
                out.push((part.entry, sc));
            }
        }
    }
    out
}

/// Set-up: build every data set and program and ready one warmed
/// machine for each, from a cold decode cache. Returns the scenarios and
/// the warmed machine.
fn setup() -> (Vec<(&'static str, Scenario)>, WarmMachine) {
    clear_decode_cache();
    let mix = build_mix();
    let mut warm = WarmMachine::new();
    for (_, sc) in &mix {
        let program = sc.workload.program(sc.variant);
        warm.prepare(sc.config.clone(), &program).expect("mix scenarios build");
    }
    (mix, warm)
}

/// Runs the workload; returns its checks and metrics.
pub fn run(args: &Args) -> (Tally, Metrics) {
    let speed = HostSpeed::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        speed.sample();
        let t = Instant::now();
        ready = Some(setup());
        setups.push(t.elapsed().as_secs_f64() * speed.scale_at(t));
    }
    let (mix, mut warm) = ready.expect("at least one set-up");
    let n = mix.len();

    let mut rng = Xoshiro256StarStar::seed_from_u64(args.seed);
    let mut tally = Tally::default();
    let mut spans = Spans::new();
    let mut counts = SimCounts::default();
    // Per scenario: when each plain and each traced repetition started
    // and how long it took, and the cycle count every repetition must
    // reproduce.
    let mut plain: Vec<Vec<(Instant, f64)>> = vec![Vec::new(); n];
    let mut traced_reps: Vec<Vec<(Instant, f64)>> = vec![Vec::new(); n];
    let mut cycles: Vec<Option<u64>> = vec![None; n];
    let decode_before = decode_cache_stats();

    let start = Instant::now();
    let mut round = 0usize;
    while round < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        // A traced run alternates plain and traced rounds, so the two
        // estimates see the same host conditions.
        let traced = args.trace && round % 2 == 1;
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.usize_below(i + 1));
        }
        let mut outcomes: Vec<Option<capsule_sim::SimOutcome>> = (0..n).map(|_| None).collect();
        for i in order {
            let (entry, sc) = &mix[i];
            let op = (round * n + i) as u64;
            speed.sample();
            let root = traced.then(|| spans.open("scenario", op));
            let t = Instant::now();
            let result = if let Some(root) = root {
                simlayers::run_traced(sc, &mut warm, &mut spans, op, root)
            } else {
                try_run_checked_warm(
                    sc.config.clone(),
                    sc.workload.as_ref(),
                    sc.variant,
                    BUDGET,
                    None,
                    RunOptions::default(),
                    &mut warm,
                )
                .map_err(|e| e.to_string())
            };
            let secs = t.elapsed().as_secs_f64();
            let what = format!("{entry}/{}/{}", sc.group, sc.label);
            let outcome = match result {
                Ok(o) => o,
                Err(e) => {
                    tally.fail(format!("{what}: {e}"));
                    continue;
                }
            };
            let mut problems = capsule_fuzz::invariants::check_outcome(&sc.config, &outcome);
            let first = *cycles[i].get_or_insert(outcome.cycles());
            if first != outcome.cycles() {
                problems.push(format!("cycles {} differ from {first}", outcome.cycles()));
            }
            tally.check(&what, problems);
            if let Some(root) = root {
                spans.close(root);
                traced_reps[i].push((t, secs));
                counts.add(&outcome);
            } else {
                plain[i].push((t, secs));
            }
            outcomes[i] = Some(outcome);
        }
        if traced {
            render_reports(&mix, outcomes, &mut spans, round as u64);
        }
        round += 1;
    }
    speed.sample();

    // Every repetition's host time, scaled to the reference host.
    let scaled = |reps: &[(Instant, f64)]| -> Vec<f64> {
        reps.iter().map(|&(t, secs)| secs * speed.scale_at(t)).collect()
    };
    let scaled_plain: Vec<Vec<f64>> = plain.iter().map(|r| scaled(r)).collect();
    let total = |reps: &[Vec<f64>]| reps.iter().flatten().sum::<f64>();
    let runs = |reps: &[Vec<(Instant, f64)>]| reps.iter().map(Vec::len).sum::<usize>() as f64;
    let plain_secs = total(&scaled_plain);
    let samples_ms: Vec<f64> = scaled_plain.iter().flatten().map(|s| s * 1e3).collect();
    let raw_secs: f64 = plain.iter().flatten().map(|&(_, s)| s).sum();
    eprintln!(
        "capsbench: sim-batch: kernel median {:.3} ms; unscaled {:.4} scenarios/s",
        speed.median_kernel_s() * 1e3,
        runs(&plain) / raw_secs
    );

    let mut metrics = Metrics::default();
    // Simulated cycles of the plain repetitions.
    let plain_cycles: f64 =
        plain.iter().zip(&cycles).map(|(r, c)| r.len() as f64 * c.unwrap_or(0) as f64).sum();
    if args.trace {
        let decode_after = decode_cache_stats();
        simlayers::timing_metrics(&spans, &mut metrics);
        counts.metrics(&mut metrics);
        metrics.set("isa.decode_hits", (decode_after.0 - decode_before.0) as f64);
        metrics.set("isa.decode_misses", (decode_after.1 - decode_before.1) as f64);
        for entry in MIX_ENTRIES {
            let (mut c, mut s) = (0.0, 0.0);
            for (i, _) in mix.iter().enumerate().filter(|(_, (e, _))| *e == entry) {
                c += plain[i].len() as f64 * cycles[i].unwrap_or(0) as f64;
                s += scaled_plain[i].iter().sum::<f64>();
            }
            metrics.set(&format!("sim.cycles_per_s.{entry}"), c / s);
        }
        let traced_scaled: Vec<Vec<f64>> = traced_reps.iter().map(|r| scaled(r)).collect();
        let traced_mean = total(&traced_scaled) / runs(&traced_reps);
        let plain_mean = plain_secs / runs(&plain);
        metrics.set("trace.overhead_pct", (traced_mean / plain_mean - 1.0) * 100.0);
        metrics.set("client.latency_p50_ms", hd_quantile(&samples_ms, 0.5));
        metrics.set("client.latency_p95_ms", hd_quantile(&samples_ms, 0.95));
        if let Err(e) = spans.write(&crate::spans_path(args)) {
            eprintln!("capsbench: spans not written: {e}");
        }
    } else {
        metrics.set("setup_s", median(&setups));
        metrics.set("jobs_per_cpu_s", runs(&plain) / plain_secs);
        metrics.set("sim_cycles_per_cpu_s", plain_cycles / plain_secs);
    }
    (tally, metrics)
}

/// Renders one report per catalog entry of a traced round, as the
/// server would for a batch of that entry.
fn render_reports(
    mix: &[(&'static str, Scenario)],
    mut outcomes: Vec<Option<capsule_sim::SimOutcome>>,
    spans: &mut Spans,
    op: u64,
) {
    for entry in MIX_ENTRIES {
        let mut scenarios = Vec::new();
        let mut done = Vec::new();
        for (i, (e, sc)) in mix.iter().enumerate() {
            if *e == entry {
                if let Some(o) = outcomes[i].take() {
                    scenarios.push(sc.clone());
                    done.push(o);
                }
            }
        }
        let title = catalog::find(entry).map_or(entry, |e| e.title);
        simlayers::render_report(title, &scenarios, done, spans, op);
    }
}
