//! Machinery shared by the served workloads (`serve-hot`, `fleet-miss`):
//! request construction, response checks, the closed-loop pass, the
//! open-loop generator, and the in-process replays that time single
//! layers on the workload's own inputs.

use std::collections::HashMap;
use std::io::Cursor;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use capsule_bench::catalog::{self, Scale};
use capsule_bench::Scenario;
use capsule_core::output::Json;
use capsule_isa::decode::decode_cache_stats;
use capsule_serve::client::{ClientError, Connection, Proto};
use capsule_serve::{frame, Request, ResultCache};
use capsule_sim::machine::WarmMachine;

use crate::hostspeed::HostSpeed;
use crate::simlayers::{self, SimCounts};
use crate::spans::Spans;
use crate::stats::{hd_quantile, mean};
use crate::{Metrics, Tally};

/// One `run` request: a smoke-scale catalog entry with a death-window
/// override and an explicit cycle budget. The budget never binds (the
/// jobs finish far below it) but is part of the canonical form, so it
/// can make two requests for the same work distinct cache keys.
#[derive(Clone, Copy)]
pub struct Job {
    pub entry: &'static str,
    pub death_window: u64,
    pub budget: u64,
}

impl Job {
    /// The canonical request form as docs/SERVER.md defines it (field
    /// order fixed, overrides under `config`), rendered by this
    /// benchmark rather than by the server's code.
    pub fn canonical(&self) -> String {
        format!(
            r#"{{"op":"run","scenario":"{}","scale":"smoke","budget":{},"config":{{"death_window":{}}}}}"#,
            self.entry, self.budget, self.death_window
        )
    }

    /// The request line, optionally carrying a trace id.
    pub fn line(&self, trace_id: Option<&str>) -> String {
        let mut line = self.canonical();
        if let Some(id) = trace_id {
            line.pop();
            line.push_str(&format!(r#","trace_id":"{id}"}}"#));
        }
        line
    }

    /// The expected `cache_key`: FNV-1a 64 of the canonical form.
    pub fn key(&self) -> u64 {
        fnv1a64(self.canonical().as_bytes())
    }

    /// The scenarios the server runs for this request.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let entry = catalog::find(self.entry).expect("jobs name catalog entries");
        let mut scenarios = entry.scenarios(Scale::Smoke);
        for sc in &mut scenarios {
            sc.config.death_window = self.death_window;
        }
        scenarios
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What a checked `ok` response reported.
#[derive(Clone, Copy)]
pub struct Answer {
    pub hit: bool,
    pub queue_wait_ms: f64,
    pub run_ms: f64,
    pub dispatch_wait_ms: f64,
    /// Simulated cycles the request cost: 0 for a cache hit.
    pub cycles: u64,
}

/// Checks every response and counts it as an operation.
#[derive(Default)]
pub struct Checker {
    /// Report hash first seen per cache key: every later response for
    /// the key must carry identical report bytes (hit or miss, v1 or v2).
    reports: Mutex<HashMap<u64, u64>>,
    pub tally: Mutex<Tally>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Checker {
    /// Checks one response to `job`; returns what it reported when
    /// every check passed.
    pub fn check(&self, job: &Job, response: Result<Json, ClientError>) -> Option<Answer> {
        let what = job.canonical();
        let json = match response {
            Ok(j) => j,
            Err(e) => {
                lock(&self.tally).fail(format!("{what}: transport: {e}"));
                return None;
            }
        };
        match check_response(job, &json) {
            Ok((answer, report_hash)) => {
                let first = *lock(&self.reports).entry(job.key()).or_insert(report_hash);
                if first != report_hash {
                    lock(&self.tally).fail(format!("{what}: report bytes differ between answers"));
                    return None;
                }
                lock(&self.tally).pass();
                Some(answer)
            }
            Err(problems) => {
                lock(&self.tally).fail(format!("{what}: {}", problems.join("; ")));
                None
            }
        }
    }
}

fn check_response(job: &Job, r: &Json) -> Result<(Answer, u64), Vec<String>> {
    if r.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(vec![format!("not ok: {}", r.to_string_compact())]);
    }
    let mut problems = Vec::new();
    let want_key = format!("{:016x}", job.key());
    let got_key = r.get("cache_key").and_then(Json::as_str).unwrap_or("");
    if got_key != want_key {
        problems.push(format!("cache_key {got_key} != FNV-1a of the canonical form {want_key}"));
    }
    let Some(report) = r.get("report") else {
        return Err(vec!["no report".into()]);
    };
    let records = report.get("records").and_then(Json::as_array).unwrap_or(&[]);
    if records.is_empty() {
        problems.push("report has no records".into());
    }
    let mut cycles = 0u64;
    for (i, rec) in records.iter().enumerate() {
        let field = |k: &str| rec.get(k).and_then(Json::as_u64).unwrap_or(0);
        let (c, committed) = (field("cycles"), field("committed"));
        let (granted, requested) = (field("divisions_granted"), field("divisions_requested"));
        if c == 0 {
            problems.push(format!("record {i}: cycles is 0"));
        }
        if granted > requested {
            problems.push(format!("record {i}: granted {granted} > requested {requested}"));
        }
        let ipc = rec.get("ipc").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let want = committed as f64 / c as f64;
        if ipc.is_nan() || (ipc - want).abs() > 1e-12 * want.abs().max(1.0) {
            problems.push(format!("record {i}: ipc {ipc} != committed/cycles {want}"));
        }
        cycles += c;
    }
    if !problems.is_empty() {
        return Err(problems);
    }
    let us = |k: &str| r.get(k).and_then(Json::as_u64).unwrap_or(0) as f64 / 1e3;
    let hit = r.get("cache_hit").and_then(Json::as_bool) == Some(true);
    let answer = Answer {
        hit,
        queue_wait_ms: us("queue_wait_us"),
        run_ms: us("run_us"),
        dispatch_wait_ms: us("dispatch_wait_us"),
        cycles: if hit { 0 } else { cycles },
    };
    Ok((answer, fnv1a64(report.to_string_compact().as_bytes())))
}

/// Shared state of one run's load: the checker and, in a traced run,
/// the trace ids requests were sent with.
pub struct Load {
    pub checker: Checker,
    next_trace: AtomicU64,
    pub trace_ids: Mutex<Vec<String>>,
    /// `run` requests sent, for the servers' lookup accounting.
    pub sent: AtomicU64,
}

impl Load {
    pub fn new() -> Load {
        Load {
            checker: Checker::default(),
            next_trace: AtomicU64::new(0),
            trace_ids: Mutex::new(Vec::new()),
            sent: AtomicU64::new(0),
        }
    }

    /// The request line for `job`; with `trace` set, a fresh trace id
    /// rides along and is remembered for the `trace` fetch.
    fn line(&self, job: &Job, trace: bool) -> String {
        self.sent.fetch_add(1, Ordering::Relaxed);
        if !trace {
            return job.line(None);
        }
        let id = format!("cb{}", self.next_trace.fetch_add(1, Ordering::Relaxed));
        let line = job.line(Some(&id));
        lock(&self.trace_ids).push(id);
        line
    }
}

/// One client connection of the closed loop and how many requests it
/// keeps in flight (v1 answers in order, so a v1 depth above 1 only
/// queues lines on the socket).
pub struct Client {
    pub conn: Connection,
    pub depth: usize,
}

/// The timing of one closed-loop pass.
pub struct Pass {
    pub start: Instant,
    pub secs: f64,
    pub cycles: u64,
    /// Round trips of cache hits, per protocol (v1, v2).
    pub rtt_hit_ms: [Vec<f64>; 2],
}

/// Sends every job of `jobs` once over `clients`, each client keeping
/// its depth of requests in flight; returns when all are answered.
pub fn closed_pass(clients: &mut [Client], jobs: &[Job], load: &Load, trace: bool) -> Pass {
    let next = AtomicUsize::new(0);
    let cycles = AtomicU64::new(0);
    let rtts: Mutex<[Vec<f64>; 2]> = Mutex::new([Vec::new(), Vec::new()]);
    let start = Instant::now();
    std::thread::scope(|s| {
        for client in clients.iter_mut() {
            let (next, cycles, rtts) = (&next, &cycles, &rtts);
            s.spawn(move || {
                let proto = client.conn.proto();
                let mut in_flight: HashMap<u64, (usize, Instant)> = HashMap::new();
                loop {
                    while in_flight.len() < client.depth {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        let line = load.line(job, trace);
                        match client.conn.submit(&line) {
                            Ok(id) => {
                                in_flight.insert(id, (i, Instant::now()));
                            }
                            Err(e) => {
                                load.checker.check(job, Err(e));
                            }
                        }
                    }
                    if in_flight.is_empty() {
                        break;
                    }
                    let (id, response) = match client.conn.collect() {
                        Ok(got) => got,
                        Err(e) => {
                            // The stream is unusable: fail what is in
                            // flight and stop this client.
                            for (_, (i, _)) in in_flight.drain() {
                                let msg = ClientError::Proto(e.to_string());
                                load.checker.check(&jobs[i], Err(msg));
                            }
                            break;
                        }
                    };
                    let Some((i, sent)) = in_flight.remove(&id) else { continue };
                    let rtt_ms = sent.elapsed().as_secs_f64() * 1e3;
                    if let Some(a) = load.checker.check(&jobs[i], Ok(response)) {
                        cycles.fetch_add(a.cycles, Ordering::Relaxed);
                        if a.hit {
                            lock(rtts)[usize::from(proto == Proto::V2)].push(rtt_ms);
                        }
                    }
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    Pass {
        start,
        secs,
        cycles: cycles.into_inner(),
        rtt_hit_ms: rtts.into_inner().unwrap_or_else(PoisonError::into_inner),
    }
}

/// Each pass's host time scaled to the reference host, from the kernel
/// samples taken between passes.
pub fn scaled_secs(passes: &[Pass], speed: &HostSpeed) -> Vec<f64> {
    passes
        .iter()
        .map(|p| p.secs * speed.scale_at(p.start + Duration::from_secs_f64(p.secs / 2.0)))
        .collect()
}

/// Closed-loop jobs and simulated cycles per second of the phase's
/// scaled CPU time (`cpu_s`, every thread of the process: load
/// generator, servers and fleet). The wall time of these phases spread
/// two to three and a half times as much from run to run as their CPU
/// time did (see README.md), so CPU time is the base.
pub fn closed_metrics(passes: &[Pass], jobs: usize, cpu_s: f64, out: &mut Metrics) {
    let cycles: u64 = passes.iter().map(|p| p.cycles).sum();
    let done = (jobs * passes.len()) as f64;
    out.set("jobs_per_cpu_s", done / cpu_s);
    out.set("sim_cycles_per_cpu_s", cycles as f64 / cpu_s);
    let wall: f64 = passes.iter().map(|p| p.secs).sum();
    eprintln!("capsbench: closed loop: {done} jobs, {cpu_s:.3} scaled CPU s, {wall:.3} wall s");
}

/// One open-loop arrival: when it is due (from the phase start), which
/// job it sends and on which connection.
pub struct Arrival {
    pub at_us: u64,
    pub job: Job,
    pub conn: usize,
}

/// Per-request figures of the open-loop phase, all in milliseconds.
#[derive(Default)]
pub struct Open {
    /// Scheduled arrival of each request.
    pub due: Vec<Instant>,
    /// Scheduled arrival to response.
    pub latency: Vec<f64>,
    /// Scheduled arrival to the actual send (the generator's own delay).
    pub lateness: Vec<f64>,
    pub queue_wait: Vec<f64>,
    pub run: Vec<f64>,
    pub dispatch_wait: Vec<f64>,
}

impl Open {
    fn record(&mut self, due: Instant, sent: Instant, done: Instant, a: &Answer) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        self.due.push(due);
        self.latency.push(ms(done.saturating_duration_since(due)));
        self.lateness.push(ms(sent.saturating_duration_since(due)));
        self.queue_wait.push(a.queue_wait_ms);
        self.run.push(a.run_ms);
        self.dispatch_wait.push(a.dispatch_wait_ms);
    }

    /// Latency quantile `q` in milliseconds (Harrell–Davis), each
    /// latency scaled to the reference host.
    pub fn scaled_latency(&self, q: f64, speed: &HostSpeed) -> f64 {
        let scaled: Vec<f64> =
            self.due.iter().zip(&self.latency).map(|(&t, &l)| l * speed.scale_at(t)).collect();
        hd_quantile(&scaled, q)
    }
}

/// Open-loop latency percentiles, scaled: per-layer metrics of a traced
/// run, and a line on standard error in every run with the unscaled
/// figures beside them.
pub fn report_latency(open: &Open, speed: &HostSpeed, out: &mut Metrics) {
    let (p50, p95) = (open.scaled_latency(0.5, speed), open.scaled_latency(0.95, speed));
    out.set("client.latency_p50_ms", p50);
    out.set("client.latency_p95_ms", p95);
    eprintln!(
        "capsbench: open loop: p50 {p50:.4} ms, p95 {p95:.4} ms; unscaled {:.4} ms, {:.4} ms",
        hd_quantile(&open.latency, 0.5),
        hd_quantile(&open.latency, 0.95)
    );
}

/// Take a kernel sample before an arrival only when the arrival is at
/// least this far off, so sampling never makes it late.
const SAMPLE_LEAD: Duration = Duration::from_millis(30);

/// Replays `arrivals` on schedule over `conns` (a v2 connection gets a
/// submitter and a collector thread; a v1 connection one thread that
/// sends each request when it is due or, if the previous one is still
/// out, as soon as it returns). Latency counts from the scheduled
/// arrival, so a stall delays the requests behind it in the figures too.
/// The sending thread of the first connection takes a host-speed sample
/// before each arrival it has time for, whether or not a request is
/// out: waiting for quiet moments left a run with few samples, taken in
/// conditions unlike the ones its requests met, and the latencies it
/// scaled spread more from run to run.
pub fn open_loop(
    conns: Vec<Connection>,
    arrivals: &[Arrival],
    load: &Load,
    trace: bool,
    speed: &HostSpeed,
) -> Open {
    let out = Mutex::new(Open::default());
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        for (c, conn) in conns.into_iter().enumerate() {
            let mine: Vec<&Arrival> = arrivals.iter().filter(|a| a.conn == c).collect();
            let out = &out;
            let due = move |a: &Arrival| start + Duration::from_micros(a.at_us);
            let calibrate = move |a: &Arrival| {
                if c == 0 && due(a) > Instant::now() + SAMPLE_LEAD {
                    speed.sample();
                }
            };
            if conn.proto() == Proto::V1 {
                let mut conn = conn;
                s.spawn(move || {
                    for a in mine {
                        calibrate(a);
                        sleep_until(due(a));
                        let line = load.line(&a.job, trace);
                        let sent = Instant::now();
                        let response = conn.request(&line);
                        let done = Instant::now();
                        if let Some(ans) = load.checker.check(&a.job, response) {
                            lock(out).record(due(a), sent, done, &ans);
                        }
                    }
                });
                continue;
            }
            let (mut tx_half, mut rx_half) = conn.into_split().expect("idle v2 connection");
            let (tx, rx) = mpsc::channel::<(u64, &Arrival, Instant)>();
            s.spawn(move || {
                for a in mine {
                    calibrate(a);
                    sleep_until(due(a));
                    let line = load.line(&a.job, trace);
                    let sent = Instant::now();
                    match tx_half.submit(&line) {
                        Ok(id) => tx.send((id, a, sent)).expect("collector outlives submitter"),
                        Err(e) => {
                            load.checker.check(&a.job, Err(e));
                        }
                    }
                }
            });
            s.spawn(move || {
                let mut pending: HashMap<u64, (&Arrival, Instant)> = HashMap::new();
                loop {
                    if pending.is_empty() {
                        match rx.recv() {
                            Ok((id, a, sent)) => {
                                pending.insert(id, (a, sent));
                                continue;
                            }
                            Err(_) => break,
                        }
                    }
                    let got = rx_half.collect();
                    let done = Instant::now();
                    let (id, response) = match got {
                        Ok(g) => g,
                        Err(e) => {
                            for (_, (a, _)) in pending.drain() {
                                let msg = ClientError::Proto(e.to_string());
                                load.checker.check(&a.job, Err(msg));
                            }
                            // Drain the submitter's remaining sends.
                            for (_, a, _) in rx.iter() {
                                load.checker
                                    .check(&a.job, Err(ClientError::Proto("closed".into())));
                            }
                            break;
                        }
                    };
                    // The answer can overtake the submitter's note of it.
                    while !pending.contains_key(&id) {
                        let Ok((pid, a, sent)) = rx.recv() else { break };
                        pending.insert(pid, (a, sent));
                    }
                    let Some((a, sent)) = pending.remove(&id) else { continue };
                    if let Some(ans) = load.checker.check(&a.job, Ok(response)) {
                        lock(out).record(due(a), sent, done, &ans);
                    }
                }
            });
        }
    });
    out.into_inner().unwrap_or_else(PoisonError::into_inner)
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Per-layer means of the open-loop phase's responses.
pub fn open_layer_metrics(open: &Open, out: &mut Metrics) {
    let unattributed: Vec<f64> = (0..open.latency.len())
        .map(|i| {
            open.latency[i]
                - open.lateness[i]
                - open.queue_wait[i]
                - open.run[i]
                - open.dispatch_wait[i]
        })
        .collect();
    out.set("serve.queue_wait_ms", mean(&open.queue_wait));
    out.set("serve.run_ms", mean(&open.run));
    out.set("serve.unattributed_ms", mean(&unattributed));
    out.set("client.lateness_ms", mean(&open.lateness));
}

/// One request on a fresh v2 connection (stats, metrics, trace).
pub fn ask(addr: &str, line: &str) -> Option<Json> {
    capsule_serve::request_once_with(addr, line, Proto::V2).ok()
}

/// A counter from a `stats` response's `counters` object.
pub fn counter(stats: &Json, name: &str) -> u64 {
    stats.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64).unwrap_or(0)
}

/// A sample from a `metrics` exposition (`name value` lines).
pub fn exposition_value(metrics: &Json, name: &str) -> u64 {
    let text = metrics.get("exposition").and_then(Json::as_str).unwrap_or("");
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Fetches the servers' span trees of every traced request through the
/// `trace` op and keeps them with the benchmark's spans; returns how
/// many came back.
pub fn fetch_trees(addr: &str, load: &Load, spans: &mut Spans) -> usize {
    let ids = std::mem::take(&mut *lock(&load.trace_ids));
    let Ok(mut conn) = Connection::connect_with(addr, Proto::V2) else { return 0 };
    let mut fetched = 0;
    for id in ids {
        let line = format!(r#"{{"op":"trace","trace_id":"{id}"}}"#);
        if let Ok(r) = conn.request(&line) {
            if r.get("ok").and_then(Json::as_bool) == Some(true) {
                fetched += 1;
                spans.attach(r);
            }
        }
    }
    fetched
}

/// Times the layers a request line passes through before and around
/// the simulator, on the workload's own lines, in process: request
/// parsing, v2 framing, the result cache replaying the key sequence, and
/// fleet routing when `backends` names a fleet's backends. Each figure is the mean per call of the fastest of
/// several repetitions.
pub fn wire_metrics(
    jobs: &[Job],
    cache_capacity: usize,
    backends: Option<&[String]>,
    out: &mut Metrics,
) {
    const REPS: usize = 20;
    let lines: Vec<String> = jobs.iter().map(|j| j.line(None)).collect();
    let canon: Vec<String> = jobs.iter().map(Job::canonical).collect();
    let keys: Vec<u64> = jobs.iter().map(Job::key).collect();
    let report: std::sync::Arc<str> = std::sync::Arc::from("{}");
    let n = jobs.len().max(1) as f64;
    let mut best = [f64::INFINITY; 5];
    for _ in 0..REPS {
        let t = Instant::now();
        for l in &lines {
            std::hint::black_box(Request::parse_line(std::hint::black_box(l)).is_ok());
        }
        best[0] = best[0].min(t.elapsed().as_secs_f64() / n);

        let t = Instant::now();
        for (i, l) in lines.iter().enumerate() {
            let bytes = frame::encode_frame(i as u64, frame::tag::RUN, l.as_bytes());
            let f = frame::read_frame(&mut Cursor::new(std::hint::black_box(bytes)));
            std::hint::black_box(f.is_ok());
        }
        best[1] = best[1].min(t.elapsed().as_secs_f64() / n);

        // The cache replays the key sequence: a get per request and a
        // put per miss, timed apart.
        let mut cache = ResultCache::new(cache_capacity);
        let (mut get_s, mut put_s) = (0.0, 0.0);
        let (mut gets, mut puts) = (0usize, 0usize);
        for c in &canon {
            let t = Instant::now();
            let hit = cache.get(c).is_some();
            get_s += t.elapsed().as_secs_f64();
            gets += 1;
            if !hit {
                let t = Instant::now();
                cache.put(c.clone(), std::sync::Arc::clone(&report));
                put_s += t.elapsed().as_secs_f64();
                puts += 1;
            }
        }
        best[2] = best[2].min(get_s / gets.max(1) as f64);
        best[3] = best[3].min(put_s / puts.max(1) as f64);

        if let Some(backends) = backends {
            let t = Instant::now();
            for &k in &keys {
                std::hint::black_box(capsule_fleet::dispatch::preference_order(backends, k));
            }
            best[4] = best[4].min(t.elapsed().as_secs_f64() / n);
        }
    }
    out.set("serve.parse_us", best[0] * 1e6);
    out.set("serve.frame_us", best[1] * 1e6);
    out.set("serve.cache_get_us", best[2] * 1e6);
    out.set("serve.cache_put_us", best[3] * 1e6);
    if backends.is_some() {
        out.set("fleet.route_us", best[4] * 1e6);
    }
}

/// Replays each distinct job once in process, layer by layer, the way a
/// server worker runs it; sets the simulator-side per-layer metrics.
pub fn replay_jobs(jobs: &[Job], tally: &mut Tally, spans: &mut Spans, out: &mut Metrics) {
    let mut warm = WarmMachine::new();
    let mut counts = SimCounts::default();
    let before = decode_cache_stats();
    for (op, job) in jobs.iter().enumerate() {
        let scenarios = job.scenarios();
        let mut outcomes = Vec::with_capacity(scenarios.len());
        for sc in &scenarios {
            let root = spans.open("scenario", op as u64);
            match simlayers::run_traced(sc, &mut warm, spans, op as u64, root) {
                Ok(o) => {
                    let problems = capsule_fuzz::invariants::check_outcome(&sc.config, &o);
                    tally.check(&format!("replay {}/{}", job.entry, sc.label), problems);
                    counts.add(&o);
                    outcomes.push(o);
                }
                Err(e) => tally.fail(format!("replay {}/{}: {e}", job.entry, sc.label)),
            }
            spans.close(root);
        }
        if outcomes.len() == scenarios.len() {
            let title = catalog::find(job.entry).map_or(job.entry, |e| e.title);
            simlayers::render_report(title, &scenarios, outcomes, spans, op as u64);
        }
    }
    let after = decode_cache_stats();
    simlayers::timing_metrics(spans, out);
    counts.metrics(out);
    out.set("isa.decode_hits", (after.0 - before.0) as f64);
    out.set("isa.decode_misses", (after.1 - before.1) as f64);
}
