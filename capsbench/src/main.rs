//! `capsbench`: one command that measures the CAPSULE reproduction end to
//! end and layer by layer on three workloads — `sim-batch` (the
//! simulator's cycle loop), `serve-hot` (one `capsule-serve`, mostly
//! result-cache hits) and `fleet-miss` (a two-backend `capsule-fleet`,
//! never a cache hit).
//!
//! ```text
//! capsbench --workload NAME --seed N --seconds S --trace 0|1
//! capsbench reference --workload serve-hot|fleet-miss
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones, from a separate traced run. The exit status is
//! nonzero when any correctness check failed. See README.md.

mod fleet_miss;
mod hostspeed;
mod reference;
mod serve_hot;
mod served;
mod sim_batch;
mod simlayers;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use capsule_core::output::Json;

/// End-to-end metrics: every workload reports all three from its
/// untraced run.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("jobs_per_cpu_s", "1/s"), ("sim_cycles_per_cpu_s", "1/s")];

/// Per-layer metrics: every traced run reports all of them; a layer a
/// workload leaves idle reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.program_ms", "ms"),
    ("workloads.check_ms", "ms"),
    ("isa.decode_hits", "count"),
    ("isa.decode_misses", "count"),
    ("sim.prepare_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.cycles_per_s.fig5_quicksort_dist", "1/s"),
    ("sim.cycles_per_s.fig7_throttling", "1/s"),
    ("sim.cycles_per_s.fig8_spec_speedups", "1/s"),
    ("sim.cycles_per_s.table2_componentization", "1/s"),
    ("sim.stepped_cycles", "count"),
    ("sim.skipped_cycles", "count"),
    ("sim.fetch_work", "count"),
    ("sim.dispatch_work", "count"),
    ("sim.issue_work", "count"),
    ("sim.complete_work", "count"),
    ("sim.commit_work", "count"),
    ("sim.cycles", "count"),
    ("sim.committed", "count"),
    ("sim.unattributed_ms", "ms"),
    ("mem.l1d_misses", "count"),
    ("mem.l2_misses", "count"),
    ("bench.report_ms", "ms"),
    ("serve.rtt_hit_ms.v1", "ms"),
    ("serve.rtt_hit_ms.v2", "ms"),
    ("serve.parse_us", "us"),
    ("serve.frame_us", "us"),
    ("serve.cache_get_us", "us"),
    ("serve.cache_put_us", "us"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cache_lookups", "count"),
    ("serve.cache_evictions", "count"),
    ("serve.checkpoints_stored", "count"),
    ("serve.snapshot_bytes", "B"),
    ("serve.unattributed_ms", "ms"),
    ("fleet.dispatch_wait_ms", "ms"),
    ("fleet.route_us", "us"),
    ("fleet.overhead_ms", "ms"),
    ("fleet.retries", "count"),
    ("fleet.pool_dials", "count"),
    ("fleet.pool_reuses", "count"),
    ("fleet.backend_jobs_max_over_min", "ratio"),
    ("client.lateness_ms", "ms"),
    ("client.latency_p50_ms", "ms"),
    ("client.latency_p95_ms", "ms"),
    ("trace.server_trees", "count"),
    ("trace.overhead_pct", "%"),
    ("process.peak_rss_mb", "MiB"),
];

/// Parsed command line of a measuring run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Named metric values of one run, in the order they were first set.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Sets `name`, which must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let known = END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name);
        let (name, _) = known.unwrap_or_else(|| panic!("metric {name} is not declared"));
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Counts of operations and the first few failure messages.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
}

impl Tally {
    /// Counts one attempted operation that passed every check.
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    /// Counts one attempted operation that failed a check.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
    }

    /// Counts one operation by the checks it failed (none = pass).
    pub fn check(&mut self, what: &str, problems: Vec<String>) {
        if problems.is_empty() {
            self.pass();
        } else {
            self.fail(format!("{what}: {}", problems.join("; ")));
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where a traced run writes its spans: under the build directory, so
/// the output stays inside the checkout and out of version control.
pub fn spans_path(args: &Args) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(dir).join("capsbench").join(format!("spans-{}-{}.json", args.workload, args.seed))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 30.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("reference") {
        return reference::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("capsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (tally, mut metrics) = match args.workload.as_str() {
        "sim-batch" => sim_batch::run(&args),
        "serve-hot" => serve_hot::run(&args),
        "fleet-miss" => fleet_miss::run(&args),
        other => {
            eprintln!("capsbench: unknown workload {other} (sim-batch, serve-hot, fleet-miss)");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        metrics.set("process.peak_rss_mb", peak_rss_mb());
    }
    for e in &tally.errors {
        eprintln!("capsbench: check failed: {e}");
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut out = Json::object();
    for (name, unit) in wanted {
        let mut m = Json::object();
        m.push("value", metrics.get(name).unwrap_or(0.0)).push("unit", *unit);
        out.push(name, m);
    }
    let correct = tally.failed == 0;
    let mut root = Json::object();
    root.push("correct", correct)
        .push("attempted", tally.attempted)
        .push("failed", tally.failed)
        .push("metrics", out);
    println!("{}", root.to_string_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
