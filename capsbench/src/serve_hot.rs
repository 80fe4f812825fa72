//! `serve-hot`: the serving path does almost all the work.
//!
//! One in-process `capsule-serve` with one simulation worker answers a
//! Zipf-popular key set of fast smoke-scale jobs. The key set is twice
//! the result cache, so about one request in eight misses, runs and
//! evicts while the rest are hits: the cache is written as well as read.
//! Two connections carry the traffic — one `capsule-serve/2` pipelined,
//! one `capsule-serve/1` keep-alive — so the protocol layer is used both
//! ways.

use std::time::Instant;

use capsule_core::output::Json;
use capsule_core::rng::{Rng, Xoshiro256StarStar};
use capsule_serve::client::{Connection, Proto};
use capsule_serve::load::schedule;
use capsule_serve::{Server, ServerOptions};

use crate::hostspeed::{CpuClock, HostSpeed};
use crate::served::{self, Arrival, Client, Job, Load};
use crate::spans::Spans;
use crate::stats::{mean, median};
use crate::{Args, Metrics, Tally};

/// Fast smoke-scale entries of nearly equal cost (~15 ms of simulation
/// per job), so a miss costs about the same whichever key it is and the
/// latency tail is smooth rather than stepped by entry.
pub const ENTRIES: [&str; 2] = ["table1_config", "toolchain_overhead"];

/// Death-window overrides; with [`ENTRIES`] they make 48 distinct keys.
pub const DEATH_WINDOWS: [u64; 24] = [
    96, 104, 112, 120, 128, 136, 144, 152, 160, 168, 176, 184, 192, 200, 208, 216, 224, 232, 240,
    248, 256, 264, 272, 280,
];

/// Result-cache capacity: half the key set.
const CACHE: usize = 24;

/// Zipf exponent of key popularity; with 48 keys and a 24-entry LRU
/// cache about 12% of requests miss.
const ZIPF_S: f64 = 1.3;

/// Seed of the popularity-rank draws. Fixed: how many requests miss
/// depends only on the rank sequence, and a first version that drew
/// ranks from `--seed` varied the simulated work per pass 1.8x between
/// seeds.
const RANK_SEED: u64 = 0x5eed;

/// Requests per closed-loop pass (the same sequence every pass).
const PASS: usize = 200;

/// Open-loop offered load, requests per second: a few percent of the
/// server's closed-loop throughput, so it stays lightly loaded even at
/// half host speed.
const RATE: f64 = 40.0;

/// Closed-loop passes at least run, whatever the host speed.
const MIN_PASSES: usize = 6;

/// How many times set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 3;

/// Share of `--seconds` given to the closed-loop phase; the open-loop
/// phase gets the rest.
const CLOSED_SHARE: f64 = 0.35;

/// The key set, most popular first: rank `r` is entry `r % 2` with
/// death window `r / 2`, so every entry has popular and rare keys.
pub fn keys() -> Vec<Job> {
    (0..ENTRIES.len() * DEATH_WINDOWS.len())
        .map(|r| Job {
            entry: ENTRIES[r % ENTRIES.len()],
            death_window: DEATH_WINDOWS[r / ENTRIES.len()],
            budget: capsule_bench::BUDGET,
        })
        .collect()
}

fn options(trace: bool) -> ServerOptions {
    ServerOptions {
        workers: 1,
        queue: 64,
        cache: CACHE,
        traces: if trace { 8192 } else { ServerOptions::default().traces },
        ..ServerOptions::default()
    }
}

fn connect(addr: &str, proto: Proto) -> Connection {
    Connection::connect_with(addr, proto).expect("in-process server accepts connections")
}

/// Runs the workload; returns its checks and metrics.
pub fn run(args: &Args) -> (Tally, Metrics) {
    // The seed decides which key holds each popularity rank and when
    // open-loop requests arrive; the rank sequences are fixed, so every
    // run misses equally often.
    let mut keys = keys();
    let mut rng = Xoshiro256StarStar::seed_from_u64(args.seed);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.usize_below(i + 1));
    }
    let pass: Vec<Job> = schedule(RANK_SEED, PASS, 1.0, ZIPF_S, keys.len())
        .iter()
        .map(|a| keys[a.scenario_index])
        .collect();
    let load = Load::new();

    // Set-up: start a server, connect, and run one pass so the cache
    // holds its steady state. Repeated; the last server is measured.
    let speed = HostSpeed::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        if let Some((server, clients)) = ready.take() {
            drop(clients);
            Server::shutdown(server);
        }
        load.sent.store(0, std::sync::atomic::Ordering::Relaxed);
        speed.sample();
        let t = Instant::now();
        let server = Server::start("127.0.0.1:0", options(args.trace)).expect("bind loopback");
        let addr = server.local_addr().to_string();
        let mut clients = vec![
            Client { conn: connect(&addr, Proto::V2), depth: 2 },
            Client { conn: connect(&addr, Proto::V1), depth: 1 },
        ];
        served::closed_pass(&mut clients, &pass, &load, false);
        setups.push(t.elapsed().as_secs_f64() * speed.scale_at(t));
        ready = Some((server, clients));
    }
    let (server, mut clients) = ready.expect("at least one set-up");
    let addr = server.local_addr().to_string();

    // Closed loop: the same pass again and again; a traced run
    // alternates plain and traced passes.
    let closed_secs = args.seconds * CLOSED_SHARE;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let cpu = CpuClock::start(&speed);
    let start = Instant::now();
    while plain.len() + traced.len() < MIN_PASSES || start.elapsed().as_secs_f64() < closed_secs {
        let trace = args.trace && plain.len() > traced.len();
        speed.sample();
        let p = served::closed_pass(&mut clients, &pass, &load, trace);
        if trace {
            traced.push(p);
        } else {
            plain.push(p);
        }
    }
    speed.sample();
    let closed_cpu_s = cpu.scaled_s(&speed);
    drop(clients);

    // Open loop: Poisson arrivals at RATE, alternating connections.
    let open_secs = args.seconds - closed_secs;
    let n = (open_secs * RATE).round().max(1.0) as usize;
    let ranks = schedule(RANK_SEED + 1, n, RATE, ZIPF_S, keys.len());
    let arrivals: Vec<Arrival> = schedule(args.seed, n, RATE, ZIPF_S, keys.len())
        .iter()
        .zip(ranks)
        .enumerate()
        .map(|(k, (a, r))| Arrival { at_us: a.at_us, job: keys[r.scenario_index], conn: k % 2 })
        .collect();
    let open = served::open_loop(
        vec![connect(&addr, Proto::V2), connect(&addr, Proto::V1)],
        &arrivals,
        &load,
        args.trace,
        &speed,
    );

    // Quiescent accounting.
    let stats = served::ask(&addr, r#"{"op":"stats"}"#).unwrap_or(Json::Null);
    let c = |name| served::counter(&stats, name);
    let lookups = c("cache_hits") + c("cache_misses");
    let sent = load.sent.load(std::sync::atomic::Ordering::Relaxed);
    let mut problems = Vec::new();
    if c("jobs_accepted") != c("jobs_completed") + c("jobs_failed") + c("jobs_cancelled") {
        problems.push(format!("stats do not balance: {}", stats.to_string_compact()));
    }
    if lookups != sent {
        problems.push(format!("cache hits + misses {lookups} != run requests sent {sent}"));
    }

    let mut spans = Spans::new();
    let mut metrics = Metrics::default();
    let mut tally = std::mem::take(&mut *load.checker.tally.lock().expect("load threads joined"));
    tally.check("serve stats", problems);
    if args.trace {
        let metrics_op = served::ask(&addr, r#"{"op":"metrics"}"#).unwrap_or(Json::Null);
        let trees = served::fetch_trees(&addr, &load, &mut spans);
        let rtt = |proto: usize| {
            let all: Vec<f64> =
                plain.iter().flat_map(|p| p.rtt_hit_ms[proto].iter().copied()).collect();
            mean(&all)
        };
        metrics.set("serve.rtt_hit_ms.v1", rtt(0));
        metrics.set("serve.rtt_hit_ms.v2", rtt(1));
        metrics.set("serve.cache_hits", c("cache_hits") as f64);
        metrics.set("serve.cache_lookups", lookups as f64);
        metrics.set(
            "serve.cache_evictions",
            served::exposition_value(&metrics_op, "capsule_serve_cache_evictions_total") as f64,
        );
        served::open_layer_metrics(&open, &mut metrics);
        metrics.set("trace.server_trees", trees as f64);
        let secs = |ps: &[served::Pass]| median(&served::scaled_secs(ps, &speed));
        metrics.set("trace.overhead_pct", (secs(&traced) / secs(&plain) - 1.0) * 100.0);
        served::wire_metrics(&pass, CACHE, None, &mut metrics);
        served::replay_jobs(&keys, &mut tally, &mut spans, &mut metrics);
        if let Err(e) = spans.write(&crate::spans_path(args)) {
            eprintln!("capsbench: spans not written: {e}");
        }
    } else {
        metrics.set("setup_s", median(&setups));
        served::closed_metrics(&plain, PASS, closed_cpu_s, &mut metrics);
    }
    served::report_latency(&open, &speed, &mut metrics);
    server.shutdown();
    (tally, metrics)
}
