//! Closed-loop load generator for `capsule-serve` and `capsule-fleet`.
//!
//! Usage: `capsule-loadgen ADDR [--jobs N] [--threads T] [--fleet]
//!         [--proto v1|v2] [--trace] [--scrape FILE] [--preempt-rate N]`
//!
//! Fires N `run` requests (default 12) from T keep-alive connections
//! (default 4), cycling the full scenario catalog at smoke scale, and
//! classifies each response as ok / queue-full / error. Queue-full
//! rejections are an expected outcome of backpressure, not a failure.
//! Two answers for the same scenario must carry the same report bytes.
//! The end-of-run summary includes the observed p50/p90/p99 request
//! latency (power-of-two bucket upper bounds from
//! `capsule_core::stats::Histogram`). Exits nonzero if any request
//! errored.
//!
//! `--proto v1|v2` selects the wire protocol (default v1, or
//! `CAPSULE_LOADGEN_PROTO` read through the warn-on-malformed parser in
//! [`capsule_serve::env`]); v2 uses the framed pipelined
//! `capsule-serve/2` (docs/SERVER.md).
//!
//! `--fleet` sizes the batch to exactly one job per catalog entry (the
//! canonical fleet smoke sweep) unless `--jobs` is given explicitly.
//!
//! `--trace` attaches a `trace_id` (`lg-<job>`) to every request and
//! names the p99-tail jobs' trace ids in the latency summary, so the
//! slowest requests of a load run can be pulled apart immediately with
//! the server's `trace` op (docs/OBSERVABILITY.md).
//!
//! `--scrape FILE` polls the `metrics` op during the run and writes one
//! JSON object per scrape to FILE:
//! `{"seq":N,"source":S,"metrics":{..}}`. Against a coordinator the
//! scraper discovers the fleet's backends through `health` and each
//! cycle scrapes the coordinator plus every backend — `source` is
//! `"coordinator"` or the backend's stable name (`b0`, `b1`, ...), and
//! all lines of one cycle share a `seq`; against a plain server the
//! source is `"server"`. Lines carry sequence numbers, never wall-clock
//! timestamps, so two runs of the same workload produce structurally
//! identical series.
//!
//! `--preempt-rate N` preempts roughly one in N jobs mid-run (seeded
//! in-tree rng keyed by the job index, so the *same jobs* are picked on
//! every run): a sidecar thread fires `preempt` at the job's cache key
//! until a backend parks it, and a `preempted` answer is resumed via
//! `resume_from` — exercising the checkpoint swap path under mixed
//! traffic (docs/CHECKPOINT.md). Against a fleet endpoint the
//! coordinator migrates the job itself and the run answer comes back
//! already resumed. Requires checkpointing enabled on the backends
//! (`CAPSULE_SERVE_CHECKPOINT_CYCLES`); without it the preempts answer
//! `not-running` and the jobs simply complete.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use capsule_bench::catalog;
use capsule_core::output::Json;
use capsule_core::rng::{Rng, Xoshiro256StarStar};
use capsule_core::stats::Histogram;
use capsule_serve::client::{request_once, Connection, Proto};
use capsule_serve::env::env_parsed;
use capsule_serve::protocol::{cache_key, Request};

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(addr) = args.next() else {
        eprintln!(
            "usage: capsule-loadgen ADDR [--jobs N] [--threads T] [--fleet] [--proto v1|v2] \
             [--trace] [--scrape FILE] [--preempt-rate N]"
        );
        std::process::exit(2);
    };
    let mut jobs: Option<usize> = None;
    let mut threads = 4usize;
    let mut fleet = false;
    let mut trace = false;
    let mut scrape: Option<String> = None;
    let mut preempt_rate = 0usize;
    // The environment default (warn-on-malformed); the flag overrides it.
    let mut proto: Proto = env_parsed("CAPSULE_LOADGEN_PROTO", Proto::V1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next().unwrap_or_else(|| {
                eprintln!("{arg} expects a value");
                std::process::exit(2);
            })
        };
        let int = |v: String, what: &str| {
            v.parse::<usize>().unwrap_or_else(|_| {
                eprintln!("{what} expects an integer, got {v:?}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--jobs" => jobs = Some(int(value(), "--jobs").max(1)),
            "--threads" => threads = int(value(), "--threads").max(1),
            "--fleet" => fleet = true,
            "--proto" => {
                let v = value();
                proto = Proto::parse(&v).unwrap_or_else(|| {
                    eprintln!("--proto expects v1 or v2, got {v:?}");
                    std::process::exit(2);
                });
            }
            "--trace" => trace = true,
            "--scrape" => scrape = Some(value()),
            "--preempt-rate" => preempt_rate = int(value(), "--preempt-rate"),
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    // The job mix is the catalog itself, in figure/table order, at smoke
    // scale: every endpoint smoke sweep exercises every entry.
    let mix: Vec<&'static str> = catalog::names();
    let jobs = jobs.unwrap_or(if fleet { mix.len() } else { 12 });

    let ok = Arc::new(AtomicUsize::new(0));
    let queue_full = Arc::new(AtomicUsize::new(0));
    let errors = Arc::new(AtomicUsize::new(0));
    let preempted = Arc::new(AtomicUsize::new(0));
    let next = Arc::new(AtomicUsize::new(0));
    let latency = Arc::new(Mutex::new(Histogram::new()));
    let reports = Arc::new(Mutex::new(BTreeMap::<String, String>::new()));
    // `(latency_us, trace_id)` per successful traced request, for the
    // p99-tail attribution in the summary.
    let samples = Arc::new(Mutex::new(Vec::<(u64, String)>::new()));

    let scraper = scrape.as_ref().map(|path| start_scraper(&addr, path.clone()));

    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let addr = addr.clone();
            let mix = mix.clone();
            let (ok, queue_full, errors, next) =
                (ok.clone(), queue_full.clone(), errors.clone(), next.clone());
            let (latency, reports, samples) = (latency.clone(), reports.clone(), samples.clone());
            let preempted = preempted.clone();
            std::thread::spawn(move || {
                // One keep-alive connection per worker thread, redialed
                // only after a transport fault: the steady-state cost
                // per job is one round-trip, not connect + round-trip.
                let mut conn: Option<Connection> = None;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs {
                        break;
                    }
                    let scenario = mix[i % mix.len()];
                    let trace_id = trace.then(|| format!("lg-{i}"));
                    let req = run_line_traced(scenario, trace_id.as_deref());
                    // Preempt selection is keyed by the job index alone,
                    // so the same jobs are swapped on every run of the
                    // same workload, whatever the thread interleaving.
                    let swap = preempt_rate > 0
                        && Xoshiro256StarStar::seed_from_u64(0x10ad_6e5e ^ i as u64)
                            .u64_below(preempt_rate as u64)
                            == 0;
                    let started = Instant::now();
                    let result = if swap {
                        run_with_preempt(&addr, &req, &preempted)
                    } else {
                        request_keepalive(&addr, proto, &mut conn, &req)
                    };
                    match result {
                        Ok(json) => {
                            if json.get("ok").and_then(Json::as_bool) == Some(true) {
                                let us = started.elapsed().as_micros() as u64;
                                latency.lock().unwrap().record(us);
                                if let Some(id) = trace_id {
                                    samples.lock().unwrap().push((us, id));
                                }
                                ok.fetch_add(1, Ordering::Relaxed);
                                if let Some(report) =
                                    json.get("report").map(Json::to_string_compact)
                                {
                                    let mut seen = reports.lock().unwrap();
                                    if let Some(prev) = seen.get(scenario) {
                                        if *prev != report {
                                            eprintln!(
                                                "job {i} ({scenario}): report differs from an \
                                                 earlier run of the same scenario"
                                            );
                                            errors.fetch_add(1, Ordering::Relaxed);
                                        }
                                    } else {
                                        seen.insert(scenario.to_string(), report);
                                    }
                                }
                            } else if json.get("error").and_then(Json::as_str) == Some("queue-full")
                            {
                                queue_full.fetch_add(1, Ordering::Relaxed);
                            } else {
                                eprintln!(
                                    "job {i} ({scenario}) failed: {}",
                                    json.to_string_compact()
                                );
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(e) => {
                            eprintln!("job {i} ({scenario}) failed: {e}");
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        let _ = h.join();
    }

    println!(
        "loadgen: {} ok, {} queue-full, {} errors, {} preempted-and-resumed over {} jobs / {} \
         threads",
        ok.load(Ordering::Relaxed),
        queue_full.load(Ordering::Relaxed),
        errors.load(Ordering::Relaxed),
        preempted.load(Ordering::Relaxed),
        jobs,
        threads
    );
    print_latency(&latency.lock().unwrap());
    if trace {
        print_tail_traces(&latency.lock().unwrap(), &samples.lock().unwrap());
    }
    if let Some(s) = scraper {
        s.finish();
    }

    if errors.load(Ordering::Relaxed) > 0 {
        std::process::exit(1);
    }
}

fn run_line(scenario: &str) -> String {
    format!(r#"{{"op":"run","scenario":"{scenario}","scale":"smoke"}}"#)
}

/// One request over the thread's keep-alive connection, dialing (or
/// redialing after a transport fault) at most once per call.
fn request_keepalive(
    addr: &str,
    proto: Proto,
    conn: &mut Option<Connection>,
    line: &str,
) -> Result<Json, String> {
    let reused = conn.is_some();
    if conn.is_none() {
        *conn = Some(Connection::connect_with(addr, proto).map_err(|e| e.to_string())?);
    }
    match conn.as_mut().expect("connection just ensured").request(line) {
        Ok(json) => Ok(json),
        Err(first) => {
            // A reused connection may simply have been closed by the
            // server side while idle; one fresh dial gets the verdict.
            *conn = None;
            if !reused {
                return Err(first.to_string());
            }
            let mut fresh = Connection::connect_with(addr, proto).map_err(|e| e.to_string())?;
            let json = fresh.request(line).map_err(|e| e.to_string())?;
            *conn = Some(fresh);
            Ok(json)
        }
    }
}

/// Sends a run while a sidecar thread fires `preempt` at its cache key
/// until a backend parks the job (or the run completes first — e.g. a
/// cache hit, or a fleet that migrated and finished it). A direct
/// server's `preempted` answer is resumed via `resume_from`; if the
/// resume is rejected (checkpoint evicted, or a duplicate scenario got
/// there first) the job falls back to one plain rerun, so the job count
/// and the report-consistency checks stay intact either way.
fn run_with_preempt(addr: &str, req: &str, preempted: &AtomicUsize) -> Result<Json, String> {
    let Ok(Request::Run(run)) = Request::parse_line(req) else {
        return Err("loadgen built a non-run request".to_string());
    };
    let canonical = run.canonical();
    let key = cache_key(&canonical);

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let pinger = {
        let addr = addr.to_string();
        let line = format!(r#"{{"op":"preempt","cache_key":"{key}"}}"#);
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                if let Ok(json) = request_once(&addr, &line) {
                    if json.get("ok").and_then(Json::as_bool) == Some(true) {
                        return;
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        })
    };
    let first = request_once(addr, req).map_err(|e| e.to_string());
    stop.store(true, Ordering::SeqCst);
    let _ = pinger.join();

    let first = first?;
    if first.get("error").and_then(Json::as_str) != Some("preempted") {
        return Ok(first);
    }
    preempted.fetch_add(1, Ordering::Relaxed);
    let mut resume = Json::parse(&canonical).map_err(|e| format!("bad canonical: {e}"))?;
    resume.push("resume_from", key.as_str());
    let resumed = request_once(addr, &resume.to_string_compact()).map_err(|e| e.to_string())?;
    if resumed.get("ok").and_then(Json::as_bool) == Some(true) {
        return Ok(resumed);
    }
    request_once(addr, req).map_err(|e| e.to_string())
}

fn run_line_traced(scenario: &str, trace_id: Option<&str>) -> String {
    match trace_id {
        None => run_line(scenario),
        Some(id) => {
            format!(r#"{{"op":"run","scenario":"{scenario}","scale":"smoke","trace_id":"{id}"}}"#)
        }
    }
}

/// Names the trace ids of the p99-tail requests: everything at or above
/// the p99 latency bucket bound, slowest first, capped at five. These are
/// the ids worth feeding straight into the endpoint's `trace` op.
fn print_tail_traces(h: &Histogram, samples: &[(u64, String)]) {
    let Some(bound) = h.quantile_bound(0.99) else {
        println!("p99-tail traces: none (no successful requests)");
        return;
    };
    // The bound is a bucket upper bound, so use the p99 bucket's *lower*
    // edge as the cut: everything in or above the p99 bucket qualifies.
    let cut = (bound / 2).saturating_add(1);
    let mut tail: Vec<&(u64, String)> = samples.iter().filter(|(us, _)| *us >= cut).collect();
    tail.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    tail.truncate(5);
    if tail.is_empty() {
        println!("p99-tail traces: none");
        return;
    }
    let rendered: Vec<String> = tail.iter().map(|(us, id)| format!("{id} ({us}us)")).collect();
    println!("p99-tail traces: {}", rendered.join(", "));
}

/// Background metrics scraper: polls the `metrics` op until stopped,
/// then writes one JSON object per scrape as JSONL. Sequence numbers,
/// never timestamps, order the series. A coordinator endpoint is fanned
/// out: each cycle scrapes the coordinator and every backend the fleet's
/// `health` op lists, tagging lines with a `source` so one file holds
/// the whole fleet's series.
struct Scraper {
    stop: Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<Vec<Json>>,
    path: String,
}

/// The `(source, addr)` pairs one scrape cycle visits. A fleet is
/// recognized by the backend ranking in its `health` answer; backends
/// are scraped under their stable names, sorted so the per-cycle line
/// order does not wobble with the live ranking. Anything else is a
/// single `server` source.
fn scrape_targets(addr: &str) -> Vec<(String, String)> {
    if let Ok(health) = request_once(addr, r#"{"op":"health"}"#) {
        if let Some(rows) = health.get("backends").and_then(Json::as_array) {
            let mut named: Vec<(String, String)> = rows
                .iter()
                .filter_map(|r| {
                    let name = r.get("name").and_then(Json::as_str)?;
                    let baddr = r.get("addr").and_then(Json::as_str)?;
                    Some((name.to_string(), baddr.to_string()))
                })
                .collect();
            named.sort();
            let mut targets = vec![("coordinator".to_string(), addr.to_string())];
            targets.extend(named);
            return targets;
        }
    }
    vec![("server".to_string(), addr.to_string())]
}

fn start_scraper(addr: &str, path: String) -> Scraper {
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let handle = {
        let addr = addr.to_string();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let targets = scrape_targets(&addr);
            let mut out = Vec::new();
            let mut seq = 0usize;
            loop {
                let done = stop.load(Ordering::SeqCst);
                for (source, taddr) in &targets {
                    // A backend that died mid-run simply stops answering;
                    // its lines drop out while the rest of the cycle
                    // keeps scraping.
                    if let Some(metrics) = scrape_once(taddr) {
                        let mut line = Json::object();
                        line.push("seq", seq)
                            .push("source", source.as_str())
                            .push("metrics", metrics);
                        out.push(line);
                    }
                }
                seq += 1;
                // One final scrape after the stop flag, so the series
                // always ends with the workload's settled counters.
                if done {
                    return out;
                }
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
        })
    };
    Scraper { stop, handle, path }
}

impl Scraper {
    fn finish(self) {
        self.stop.store(true, Ordering::SeqCst);
        let lines = self.handle.join().unwrap_or_default();
        let mut text = String::new();
        for l in &lines {
            text.push_str(&l.to_string_compact());
            text.push('\n');
        }
        match std::fs::write(&self.path, text) {
            Ok(()) => println!("scrape: wrote {} sample(s) to {}", lines.len(), self.path),
            Err(e) => eprintln!("scrape: cannot write {}: {e}", self.path),
        }
    }
}

/// One `metrics` request, with the text exposition parsed back into a
/// JSON object (`key -> value`) for structured JSONL.
fn scrape_once(addr: &str) -> Option<Json> {
    let reply = request_once(addr, r#"{"op":"metrics"}"#).ok()?;
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        return None;
    }
    let text = reply.get("exposition").and_then(Json::as_str)?;
    let mut obj = Json::object();
    for line in text.lines() {
        if let Some((key, value)) = line.rsplit_once(' ') {
            if let Ok(v) = value.parse::<u64>() {
                obj.push(key, v);
            }
        }
    }
    Some(obj)
}

/// End-of-run latency summary over successful requests. Quantiles are
/// bucket upper bounds ([`Histogram::quantile_bound`]) — conservative,
/// and cheap enough to compute from the same histogram the servers keep.
fn print_latency(h: &Histogram) {
    if h.count() == 0 {
        println!("latency_us: no successful requests");
        return;
    }
    let q = |q: f64| h.quantile_bound(q).unwrap_or(0);
    println!(
        "latency_us: n={} mean={:.0} p50<={} p90<={} p99<={} max={}",
        h.count(),
        h.mean(),
        q(0.50),
        q(0.90),
        q(0.99),
        h.max().unwrap_or(0)
    );
}
