//! `fleet-miss`: routing and per-job simulation do the work; the result
//! cache does none.
//!
//! An in-process `capsule-fleet` fronts two in-process `capsule-serve`
//! backends of one worker each (client to fleet over `capsule-serve/2`,
//! fleet to backends over its pooled keep-alive v2 connections). Every
//! request has a canonical form never sent before, so no request hits a
//! cache. The backends checkpoint periodically, so the simulator also
//! writes `CAPSNAP1` snapshots while it runs.

use std::time::Instant;

use capsule_core::output::Json;
use capsule_core::rng::{Rng, Xoshiro256StarStar};
use capsule_fleet::{Fleet, FleetOptions};
use capsule_serve::client::{Connection, Proto};
use capsule_serve::load::schedule;
use capsule_serve::{Server, ServerOptions};

use crate::hostspeed::{CpuClock, HostSpeed};
use crate::served::{self, Arrival, Client, Job, Load};
use crate::spans::Spans;
use crate::stats::{mean, median, min};
use crate::{Args, Metrics, Tally};

/// Small smoke-scale entries of nearly equal cost (~15 ms of simulation
/// per job before checkpointing), so the latency percentiles do not jump
/// between the costs of different entries.
pub const ENTRIES: [&str; 2] = ["table1_config", "toolchain_overhead"];

/// Death-window overrides; with [`ENTRIES`] they make the 6 kinds of
/// job a block holds.
pub const DEATH_WINDOWS: [u64; 3] = [112, 128, 144];

/// Simulated cycles between periodic checkpoints: a few snapshots per
/// typical job.
const CHECKPOINT_CYCLES: u64 = 5_000;

/// Jobs per closed-loop pass: five blocks.
const PASS_BLOCKS: usize = 5;

/// Requests the closed loop keeps in flight on its one connection: one
/// running and one waiting per backend.
const DEPTH: usize = 4;

/// Open-loop offered load, jobs per second: about a seventh of the
/// fleet's closed-loop throughput, so it stays lightly loaded even at
/// half host speed.
const RATE: f64 = 12.0;

const MIN_PASSES: usize = 10;
/// How many times set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 5;
/// Share of `--seconds` given to the closed-loop phase, whose CPU time
/// the throughput metrics come from; the open-loop phase gets the rest
/// (312 arrivals in a 40 s run). With half the run closed, four jobs in
/// flight for longer made the peak resident set spread 0.25–0.34 from
/// run to run, against 0.07–0.17 at this share.
const CLOSED_SHARE: f64 = 0.35;

/// The 6 kinds of job, each entry with each death window.
pub fn kinds() -> Vec<Job> {
    let mut out = Vec::new();
    for &death_window in &DEATH_WINDOWS {
        for &entry in &ENTRIES {
            out.push(Job { entry, death_window, budget: capsule_bench::BUDGET });
        }
    }
    out
}

/// Hands out jobs whose canonical forms are all distinct: blocks of the
/// 6 kinds in seeded order, each job with a budget never used before.
/// The budget never binds, so distinct keys cost exactly the work of
/// their kind.
struct Fresh {
    kinds: Vec<Job>,
    rng: Xoshiro256StarStar,
    next_budget: u64,
}

impl Fresh {
    fn new(seed: u64) -> Fresh {
        Fresh { kinds: kinds(), rng: Xoshiro256StarStar::seed_from_u64(seed), next_budget: 0 }
    }

    fn blocks(&mut self, blocks: usize) -> Vec<Job> {
        let mut out = Vec::with_capacity(blocks * self.kinds.len());
        for _ in 0..blocks {
            let mut block = self.kinds.clone();
            for i in (1..block.len()).rev() {
                block.swap(i, self.rng.usize_below(i + 1));
            }
            for mut job in block {
                job.budget = capsule_bench::BUDGET + self.next_budget;
                self.next_budget += 1;
                out.push(job);
            }
        }
        out
    }
}

/// One fleet and its two backends.
struct Topology {
    backends: Vec<Server>,
    backend_addrs: Vec<String>,
    fleet: Fleet,
}

impl Topology {
    fn start(trace: bool) -> Topology {
        let traces = if trace { 8192 } else { ServerOptions::default().traces };
        let opts = ServerOptions {
            workers: 1,
            queue: 16,
            traces,
            checkpoint_cycles: CHECKPOINT_CYCLES,
            ..ServerOptions::default()
        };
        let backends: Vec<Server> =
            (0..2).map(|_| Server::start("127.0.0.1:0", opts).expect("bind loopback")).collect();
        let backend_addrs: Vec<String> =
            backends.iter().map(|b| b.local_addr().to_string()).collect();
        let fleet = Fleet::start(
            "127.0.0.1:0",
            &backend_addrs,
            FleetOptions { traces, ..FleetOptions::default() },
        )
        .expect("bind loopback");
        Topology { backends, backend_addrs, fleet }
    }

    fn addr(&self) -> String {
        self.fleet.local_addr().to_string()
    }

    fn shutdown(self) {
        self.fleet.shutdown();
        for b in self.backends {
            b.shutdown();
        }
    }
}

fn connect(addr: &str) -> Connection {
    Connection::connect_with(addr, Proto::V2).expect("in-process fleet accepts connections")
}

/// Runs the workload; returns its checks and metrics.
pub fn run(args: &Args) -> (Tally, Metrics) {
    let mut fresh = Fresh::new(args.seed);
    let load = Load::new();

    // Set-up: start the topology and run one pass, so every backend has
    // warmed machines, decoded programs and pooled connections.
    let speed = HostSpeed::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut ready: Option<(Topology, Vec<Client>)> = None;
    for _ in 0..SETUPS {
        if let Some((topo, clients)) = ready.take() {
            drop(clients);
            topo.shutdown();
        }
        load.sent.store(0, std::sync::atomic::Ordering::Relaxed);
        speed.sample();
        let t = Instant::now();
        let topo = Topology::start(args.trace);
        let mut clients = vec![Client { conn: connect(&topo.addr()), depth: DEPTH }];
        served::closed_pass(&mut clients, &fresh.blocks(PASS_BLOCKS), &load, false);
        setups.push(t.elapsed().as_secs_f64() * speed.scale_at(t));
        ready = Some((topo, clients));
    }
    let (topo, mut clients) = ready.expect("at least one set-up");
    let addr = topo.addr();

    let closed_secs = args.seconds * CLOSED_SHARE;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let pass_jobs = PASS_BLOCKS * ENTRIES.len() * DEATH_WINDOWS.len();
    let cpu = CpuClock::start(&speed);
    let start = Instant::now();
    while plain.len() + traced.len() < MIN_PASSES || start.elapsed().as_secs_f64() < closed_secs {
        let trace = args.trace && plain.len() > traced.len();
        speed.sample();
        let p = served::closed_pass(&mut clients, &fresh.blocks(PASS_BLOCKS), &load, trace);
        if trace {
            traced.push(p);
        } else {
            plain.push(p);
        }
    }
    speed.sample();
    let closed_cpu_s = cpu.scaled_s(&speed);
    drop(clients);

    let open_secs = args.seconds - closed_secs;
    let n = (open_secs * RATE).round().max(1.0) as usize;
    let jobs = fresh.blocks(n.div_ceil(ENTRIES.len() * DEATH_WINDOWS.len()));
    let arrivals: Vec<Arrival> = schedule(args.seed ^ 0x000f_1ee7, n, RATE, 0.0, 1)
        .iter()
        .zip(jobs)
        .map(|(a, job)| Arrival { at_us: a.at_us, job, conn: 0 })
        .collect();
    let open = served::open_loop(vec![connect(&addr)], &arrivals, &load, args.trace, &speed);

    // Quiescent accounting across the fleet and its backends.
    let stats = served::ask(&addr, r#"{"op":"stats"}"#).unwrap_or(Json::Null);
    let fleet = stats.get("fleet").cloned().unwrap_or(Json::Null);
    let f = |name| served::counter(&fleet, name);
    let backend_stats: Vec<Json> = topo
        .backend_addrs
        .iter()
        .map(|a| served::ask(a, r#"{"op":"stats"}"#).unwrap_or(Json::Null))
        .collect();
    let b = |name| backend_stats.iter().map(|s| served::counter(s, name)).sum::<u64>();
    let sent = load.sent.load(std::sync::atomic::Ordering::Relaxed);
    let mut problems = Vec::new();
    if f("jobs_accepted") != f("jobs_completed") + f("jobs_failed") + f("jobs_cancelled") {
        problems.push(format!("fleet stats do not balance: {}", fleet.to_string_compact()));
    }
    if f("jobs_completed") != b("jobs_completed") {
        problems.push(format!(
            "fleet completed {} != sum over backends {}",
            f("jobs_completed"),
            b("jobs_completed")
        ));
    }
    if b("cache_hits") + b("cache_misses") != sent + f("retries") {
        problems.push(format!(
            "backend lookups {} != run requests sent {sent} + retries {}",
            b("cache_hits") + b("cache_misses"),
            f("retries")
        ));
    }
    if b("cache_hits") != 0 {
        problems.push(format!("{} cache hits on never-repeated keys", b("cache_hits")));
    }

    let mut spans = Spans::new();
    let mut metrics = Metrics::default();
    let mut tally = std::mem::take(&mut *load.checker.tally.lock().expect("load threads joined"));
    tally.check("fleet stats", problems);
    if args.trace {
        let metrics_op = served::ask(&addr, r#"{"op":"metrics"}"#).unwrap_or(Json::Null);
        let trees = served::fetch_trees(&addr, &load, &mut spans);
        served::open_layer_metrics(&open, &mut metrics);
        let overhead: Vec<f64> = (0..open.latency.len())
            .map(|i| open.latency[i] - open.dispatch_wait[i] - open.queue_wait[i] - open.run[i])
            .collect();
        metrics.set("fleet.dispatch_wait_ms", mean(&open.dispatch_wait));
        metrics.set("fleet.overhead_ms", mean(&overhead));
        metrics.set("fleet.retries", f("retries") as f64);
        metrics.set(
            "fleet.pool_dials",
            served::exposition_value(&metrics_op, "capsule_fleet_pool_dials_total") as f64,
        );
        metrics.set(
            "fleet.pool_reuses",
            served::exposition_value(&metrics_op, "capsule_fleet_pool_reuses_total") as f64,
        );
        let per_backend: Vec<f64> =
            backend_stats.iter().map(|s| served::counter(s, "jobs_completed") as f64).collect();
        let max = per_backend.iter().copied().fold(0.0, f64::max);
        metrics.set("fleet.backend_jobs_max_over_min", max / min(&per_backend).max(1.0));
        metrics.set("serve.cache_hits", b("cache_hits") as f64);
        metrics.set("serve.cache_lookups", (b("cache_hits") + b("cache_misses")) as f64);
        metrics.set("serve.checkpoints_stored", b("checkpoints_stored") as f64);
        metrics.set("serve.snapshot_bytes", b("snapshot_bytes") as f64);
        metrics.set("trace.server_trees", trees as f64);
        let secs = |ps: &[served::Pass]| median(&served::scaled_secs(ps, &speed));
        metrics.set("trace.overhead_pct", (secs(&traced) / secs(&plain) - 1.0) * 100.0);
        let sample = fresh.blocks(4);
        served::wire_metrics(
            &sample,
            ServerOptions::default().cache,
            Some(&topo.backend_addrs),
            &mut metrics,
        );
        served::replay_jobs(&kinds(), &mut tally, &mut spans, &mut metrics);
        if let Err(e) = spans.write(&crate::spans_path(args)) {
            eprintln!("capsbench: spans not written: {e}");
        }
    } else {
        metrics.set("setup_s", median(&setups));
        served::closed_metrics(&plain, pass_jobs, closed_cpu_s, &mut metrics);
    }
    served::report_latency(&open, &speed, &mut metrics);
    topo.shutdown();
    (tally, metrics)
}
