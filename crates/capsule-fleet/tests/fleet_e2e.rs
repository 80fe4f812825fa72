//! End-to-end fleet tests: in-process [`capsule_serve::Server`] backends
//! plus an in-process [`Fleet`] coordinator, driven over real TCP.
//!
//! Job mixes stick to the *fast* smoke-scale catalog entries (the full
//! catalog spans 0.1s–10s per smoke job in a debug build; CI's release
//! fleet smoke run covers the full sweep). The mid-flight-kill test uses
//! `ablation_policies` (a few seconds at smoke scale) so the job is
//! reliably still running when its backend dies, and full-scale
//! `fig6_division_tree` (minutes, but promptly cancellable) where a job
//! must stay in flight indefinitely.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use capsule_core::output::Json;
use capsule_fleet::{Fleet, FleetOptions};
use capsule_serve::client::{request_once, Connection, Proto};
use capsule_serve::frame::{self, tag};
use capsule_serve::protocol::{cache_key, Request};
use capsule_serve::{Server, ServerOptions};

/// Smoke-scale entries that finish in well under a second each (debug).
const FAST_SCENARIOS: &[&str] =
    &["table1_config", "toolchain_overhead", "fig6_division_tree", "table3_divisions"];

/// Smoke-scale job that runs for a few seconds in a debug build — long
/// enough to observe and kill mid-flight, short enough to re-run.
const SLOW_RUN: &str = r#"{"op":"run","scenario":"ablation_policies","scale":"smoke"}"#;

/// Full-scale fig6 runs for minutes uncancelled: a job that is
/// guaranteed to still be in flight whenever the test looks.
const ENDLESS_RUN: &str = r#"{"op":"run","scenario":"fig6_division_tree","scale":"full"}"#;

/// Every job on the flight ring follows causality: for each cache key,
/// its `enqueue`, then its `start` (`dequeue` on a server, `dispatch` at
/// a fleet), then its `complete`.
fn assert_causal(events: &[Json], start: &str) {
    let mut by_key: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for e in events {
        if let (Some(key), Some(kind)) =
            (e.get("cache_key").and_then(Json::as_str), e.get("kind").and_then(Json::as_str))
        {
            by_key.entry(key).or_default().push(kind);
        }
    }
    assert!(!by_key.is_empty(), "no job events on the ring");
    for (key, kinds) in &by_key {
        let lifecycle: Vec<&str> =
            kinds.iter().copied().filter(|k| ["enqueue", start, "complete"].contains(k)).collect();
        assert_eq!(lifecycle, ["enqueue", start, "complete"], "job {key} out of order: {kinds:?}");
    }
}

fn run_line(scenario: &str) -> String {
    format!(r#"{{"op":"run","scenario":"{scenario}","scale":"smoke"}}"#)
}

fn start_backend() -> Server {
    start_backend_with_checkpoints(0)
}

/// A backend that checkpoints in-flight jobs every `checkpoint_cycles`
/// simulated cycles (0 disables checkpointing, the plain default).
fn start_backend_with_checkpoints(checkpoint_cycles: u64) -> Server {
    let opts = ServerOptions {
        workers: 1,
        queue: 8,
        cache: 8,
        traces: 16,
        checkpoint_cycles,
        checkpoints: 8,
        flight: 64,
    };
    Server::start("127.0.0.1:0", opts).expect("bind backend")
}

/// Test-sized fleet policy: fast probes and backoffs, generous caps.
fn fleet_opts() -> FleetOptions {
    FleetOptions {
        queue: 16,
        attempts: 4,
        backoff_ms: 10,
        fail_window_ms: 2_000,
        fail_threshold: 2,
        probe_ms: 50,
        connect_timeout_ms: 500,
        job_timeout_ms: 120_000,
        dispatch_wait_ms: 30_000,
        traces: 16,
        flight: 64,
    }
}

fn start_fleet(backends: &[&Server], opts: FleetOptions) -> Fleet {
    let addrs: Vec<String> = backends.iter().map(|s| s.local_addr().to_string()).collect();
    Fleet::start("127.0.0.1:0", &addrs, opts).expect("bind fleet")
}

fn request(fleet: &Fleet, line: &str) -> Json {
    request_once(&fleet.local_addr().to_string(), line).expect("fleet request")
}

fn ok(json: &Json) -> bool {
    json.get("ok").and_then(Json::as_bool) == Some(true)
}

fn error_code(json: &Json) -> Option<&str> {
    json.get("error").and_then(Json::as_str)
}

fn stats(fleet: &Fleet) -> Json {
    request(fleet, r#"{"op":"stats"}"#)
}

fn fleet_counter(stats: &Json, name: &str) -> u64 {
    stats
        .get("fleet")
        .and_then(|f| f.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .expect("fleet counter")
}

/// Poll until the condition holds or a generous deadline passes.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn backends_alive(fleet: &Fleet) -> u64 {
    stats(fleet).get("fleet").and_then(|f| f.get("backends_alive")).and_then(Json::as_u64).unwrap()
}

/// The `name` of the backend currently holding an in-flight job, if any.
fn busy_backend(fleet: &Fleet) -> Option<String> {
    let s = stats(fleet);
    s.get("backends")?.as_array()?.iter().find_map(|b| {
        (b.get("in_flight").and_then(Json::as_u64)? > 0)
            .then(|| b.get("name").and_then(Json::as_str).map(str::to_string))?
    })
}

/// Runs the fast scenarios through the fleet; every job must succeed.
/// Returns scenario -> compact report rendering.
fn run_fast_batch(fleet: &Fleet) -> BTreeMap<String, String> {
    let mut reports = BTreeMap::new();
    for scenario in FAST_SCENARIOS {
        let reply = request(fleet, &run_line(scenario));
        assert!(ok(&reply), "{scenario} failed: {}", reply.to_string_compact());
        assert!(reply.get("backend").and_then(Json::as_str).is_some(), "backend attribution");
        assert!(reply.get("attempts").and_then(Json::as_u64).unwrap_or(0) >= 1);
        let report = reply.get("report").map(Json::to_string_compact).expect("report");
        reports.insert((*scenario).to_string(), report);
    }
    reports
}

#[test]
fn fleet_reports_are_byte_identical_to_a_direct_server() {
    let backends = [start_backend(), start_backend()];
    let fleet = start_fleet(&[&backends[0], &backends[1]], fleet_opts());
    let reference = start_backend();

    wait_for("both backends alive", || backends_alive(&fleet) == 2);
    let via_fleet = run_fast_batch(&fleet);

    for (scenario, fleet_report) in &via_fleet {
        let direct = request_once(&reference.local_addr().to_string(), &run_line(scenario))
            .expect("direct request");
        assert!(ok(&direct), "{scenario} failed directly: {}", direct.to_string_compact());
        assert_eq!(
            direct.get("report").map(Json::to_string_compact).as_deref(),
            Some(fleet_report.as_str()),
            "{scenario}: fleet and direct reports must render byte-identically"
        );
    }

    fleet.shutdown();
    reference.shutdown();
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn killing_a_backend_mid_batch_loses_no_jobs() {
    let mut backends = [Some(start_backend()), Some(start_backend())];
    let fleet = {
        let refs: Vec<&Server> = backends.iter().flatten().collect();
        start_fleet(&refs, fleet_opts())
    };
    wait_for("both backends alive", || backends_alive(&fleet) == 2);

    // Phase 1: a healthy-fleet batch pins the expected report bytes.
    let before = run_fast_batch(&fleet);

    // A slow job, dispatched and observed in flight; then its backend is
    // killed under it. Backend index is the digit in the reported name
    // ("b0"/"b1" in the order the fleet was configured with).
    let mut slow = Connection::connect(&fleet.local_addr().to_string()).expect("connect");
    slow.send(SLOW_RUN).expect("send slow job");
    wait_for("slow job to reach a backend", || busy_backend(&fleet).is_some());
    let victim: usize =
        busy_backend(&fleet).unwrap().trim_start_matches('b').parse().expect("backend index");
    backends[victim].take().expect("victim still running").shutdown();

    // The kill cancels the backend's in-flight run; the fleet must
    // classify that as a backend fault and finish the job elsewhere.
    let reply = slow.recv().expect("slow job response");
    assert!(ok(&reply), "slow job failed: {}", reply.to_string_compact());
    assert!(
        reply.get("attempts").and_then(Json::as_u64).unwrap_or(0) >= 2,
        "the job must have been retried: {}",
        reply.to_string_compact()
    );
    let survivor = format!("b{}", 1 - victim);
    assert_eq!(reply.get("backend").and_then(Json::as_str), Some(survivor.as_str()));

    // Phase 2: the same batch on the crippled fleet — every job still
    // completes, with byte-identical reports.
    let after = run_fast_batch(&fleet);
    assert_eq!(before, after, "reports must be unchanged by the backend loss");

    let s = stats(&fleet);
    assert_eq!(fleet_counter(&s, "jobs_completed"), 2 * FAST_SCENARIOS.len() as u64 + 1);
    assert_eq!(fleet_counter(&s, "jobs_failed"), 0);
    assert!(fleet_counter(&s, "retries") >= 1);
    assert!(fleet_counter(&s, "backend_failures") >= 1);
    wait_for("probes to notice the dead backend", || backends_alive(&fleet) == 1);

    fleet.shutdown();
    if let Some(b) = backends[1 - victim].take() {
        b.shutdown();
    }
}

#[test]
fn stats_aggregates_every_backend() {
    let backends = [start_backend(), start_backend()];
    let fleet = start_fleet(&[&backends[0], &backends[1]], fleet_opts());
    wait_for("both backends alive", || backends_alive(&fleet) == 2);

    for scenario in ["table1_config", "toolchain_overhead"] {
        let reply = request(&fleet, &run_line(scenario));
        assert!(ok(&reply), "{scenario} failed: {}", reply.to_string_compact());
    }

    let s = stats(&fleet);
    assert_eq!(fleet_counter(&s, "jobs_accepted"), 2);
    assert_eq!(fleet_counter(&s, "jobs_completed"), 2);
    assert!(fleet_counter(&s, "probes_ok") >= 2);
    let fleet_obj = s.get("fleet").expect("fleet object");
    assert_eq!(fleet_obj.get("backends").and_then(Json::as_u64), Some(2));
    // The coordinator's own dispatch-wait histogram saw both grants.
    assert_eq!(
        fleet_obj.get("dispatch_wait_us").and_then(|h| h.get("count")).and_then(Json::as_u64),
        Some(2)
    );

    let agg = s.get("aggregate").expect("aggregate object");
    assert_eq!(agg.get("backends_reporting").and_then(Json::as_u64), Some(2));
    // Both jobs were cache misses somewhere in the fleet: the merged
    // run-latency histogram counts exactly the two executed runs, and the
    // summed backend counters agree.
    assert_eq!(agg.get("run_us").and_then(|h| h.get("count")).and_then(Json::as_u64), Some(2));
    assert_eq!(
        agg.get("counters").and_then(|c| c.get("jobs_completed")).and_then(Json::as_u64),
        Some(2)
    );

    let listed = s.get("backends").and_then(Json::as_array).expect("backends array");
    assert_eq!(listed.len(), 2);
    for b in listed {
        assert_eq!(b.get("alive").and_then(Json::as_bool), Some(true));
        let remote = b.get("stats").expect("embedded stats");
        assert_eq!(remote.get("op").and_then(Json::as_str), Some("stats"));
        assert_eq!(b.get("workers").and_then(Json::as_u64), Some(1));
    }

    fleet.shutdown();
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn cancel_propagates_and_full_fleet_queue_rejects() {
    let backend = start_backend();
    let fleet = start_fleet(&[&backend], FleetOptions { queue: 1, ..fleet_opts() });
    wait_for("backend alive", || backends_alive(&fleet) == 1);

    let mut long = Connection::connect(&fleet.local_addr().to_string()).expect("connect");
    long.send(ENDLESS_RUN).expect("send long job");
    wait_for("long job to reach the backend", || busy_backend(&fleet).is_some());

    // The single fleet queue slot is held by the long job.
    let rejected = request(&fleet, &run_line("table1_config"));
    assert!(!ok(&rejected));
    assert_eq!(error_code(&rejected), Some("queue-full"));
    assert_eq!(rejected.get("queue_capacity").and_then(Json::as_u64), Some(1));

    // A fleet-level cancel reaches the backend and the client sees the
    // backend's structured `cancelled` answer, not a retry storm.
    let started = Instant::now();
    let cancel = request(&fleet, r#"{"op":"cancel"}"#);
    assert!(ok(&cancel));
    assert_eq!(cancel.get("backends_cancelled").and_then(Json::as_u64), Some(1));
    let reply = long.recv().expect("long job response");
    assert_eq!(error_code(&reply), Some("cancelled"), "{}", reply.to_string_compact());
    assert!(started.elapsed() < Duration::from_secs(30), "cancellation was not prompt");

    let s = stats(&fleet);
    assert_eq!(fleet_counter(&s, "jobs_cancelled"), 1);
    assert_eq!(fleet_counter(&s, "jobs_rejected"), 1);
    assert_eq!(fleet_counter(&s, "cancel_requests"), 1);

    // The queue slot is free again: the fleet accepts and finishes jobs.
    let after = request(&fleet, &run_line("table1_config"));
    assert!(ok(&after), "post-cancel job failed: {}", after.to_string_compact());

    fleet.shutdown();
    backend.shutdown();
}

#[test]
fn traced_job_survives_a_killed_backend_and_reconstructs_end_to_end() {
    let mut backends = [Some(start_backend()), Some(start_backend())];
    let fleet = {
        let refs: Vec<&Server> = backends.iter().flatten().collect();
        start_fleet(&refs, fleet_opts())
    };
    wait_for("both backends alive", || backends_alive(&fleet) == 2);

    // A traced slow job; its backend dies under it mid-run.
    let traced_run =
        r#"{"op":"run","scenario":"ablation_policies","scale":"smoke","trace_id":"kill-t1"}"#;
    let mut slow = Connection::connect(&fleet.local_addr().to_string()).expect("connect");
    slow.send(traced_run).expect("send traced job");
    wait_for("traced job to reach a backend", || busy_backend(&fleet).is_some());
    let victim: usize =
        busy_backend(&fleet).unwrap().trim_start_matches('b').parse().expect("backend index");
    backends[victim].take().expect("victim still running").shutdown();

    let reply = slow.recv().expect("traced job response");
    assert!(ok(&reply), "traced job failed: {}", reply.to_string_compact());
    assert!(reply.get("attempts").and_then(Json::as_u64).unwrap_or(0) >= 2, "job was retried");
    assert_eq!(reply.get("trace_id").and_then(Json::as_str), Some("kill-t1"));
    let survivor = format!("b{}", 1 - victim);

    // One `trace` query reconstructs the whole distributed job: the
    // fleet's admission and every dispatch attempt, with the surviving
    // backend's own span tree grafted under the attempt that succeeded.
    let trace = request(&fleet, r#"{"op":"trace","trace_id":"kill-t1"}"#);
    assert!(ok(&trace), "trace query failed: {}", trace.to_string_compact());
    let tree = trace.get("trace").expect("trace tree");
    let spans = tree.get("spans").and_then(Json::as_array).expect("spans");
    let by_name = |name: &str| -> Vec<&Json> {
        spans.iter().filter(|s| s.get("name").and_then(Json::as_str) == Some(name)).collect()
    };
    let attr = |span: &Json, key: &str| {
        span.get("attrs").and_then(|a| a.get(key)).and_then(Json::as_str).map(str::to_string)
    };

    let roots = by_name("fleet.run");
    assert_eq!(roots.len(), 1);
    assert_eq!(attr(roots[0], "scenario").as_deref(), Some("ablation_policies"));
    let root_id = roots[0].get("id").and_then(Json::as_u64).expect("root id");

    let dispatches = by_name("fleet.dispatch");
    assert!(dispatches.len() >= 2, "retry must add a second dispatch span");
    for d in &dispatches {
        assert_eq!(d.get("parent").and_then(Json::as_u64), Some(root_id));
    }
    assert!(
        dispatches.iter().any(|d| attr(d, "outcome").as_deref() == Some("retry")),
        "the killed attempt must be recorded as a retry"
    );
    let winner = dispatches
        .iter()
        .find(|d| attr(d, "outcome").as_deref() == Some("completed"))
        .expect("a completed dispatch span");
    assert_eq!(attr(winner, "backend"), Some(survivor.clone()));
    let winner_id = winner.get("id").and_then(Json::as_u64).expect("winner id");

    // The grafted backend tree: its serve.run root hangs under the
    // winning dispatch span and carries the backend attribution; the
    // execution span completed.
    let serve_roots = by_name("serve.run");
    assert_eq!(serve_roots.len(), 1, "exactly one backend tree grafts (the survivor's)");
    assert_eq!(serve_roots[0].get("parent").and_then(Json::as_u64), Some(winner_id));
    assert_eq!(attr(serve_roots[0], "backend"), Some(survivor.clone()));
    let executes = by_name("serve.execute");
    assert_eq!(executes.len(), 1);
    assert_eq!(attr(executes[0], "outcome").as_deref(), Some("completed"));

    // Backend accounting in the merged tree: the survivor grafted, the
    // dead victim reported as unreachable rather than failing the query.
    let listed = tree.get("backends").and_then(Json::as_array).expect("backends list");
    let grafted = |name: &str| {
        listed
            .iter()
            .find(|b| b.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|b| b.get("grafted").and_then(Json::as_bool))
    };
    assert_eq!(grafted(&survivor), Some(true));
    assert_eq!(grafted(&format!("b{victim}")), Some(false));
    assert_eq!(tree.get("dropped").and_then(Json::as_u64), Some(0));

    fleet.shutdown();
    if let Some(b) = backends[1 - victim].take() {
        b.shutdown();
    }
}

#[test]
fn fleet_metrics_exposition_is_deterministic_and_golden_when_fresh() {
    let backend = start_backend();
    let fleet = start_fleet(&[&backend], fleet_opts());
    wait_for("backend alive", || backends_alive(&fleet) == 1);

    // Golden: the full exposition of a fresh one-backend fleet, byte for
    // byte. Scrape-perturbed counters (connections, requests) and the
    // continuously bumped probe counters are excluded by design. The
    // pool families are compared separately below: the alive-poll above
    // runs an unpredictable number of `stats` forwards, each of which
    // legitimately moves the pool counters. `flight_recorded_total` is 1:
    // exactly one backend-up transition since boot.
    let expected = "capsule_fleet_backend_alive{backend=\"b0\"} 1\n\
                    capsule_fleet_backend_completed_total{backend=\"b0\"} 0\n\
                    capsule_fleet_backend_dispatched_total{backend=\"b0\"} 0\n\
                    capsule_fleet_backend_ewma_job_us{backend=\"b0\"} 0\n\
                    capsule_fleet_backend_failures_total 0\n\
                    capsule_fleet_backend_failures_total{backend=\"b0\"} 0\n\
                    capsule_fleet_backend_in_flight{backend=\"b0\"} 0\n\
                    capsule_fleet_backend_predicted_wait_us{backend=\"b0\"} 0\n\
                    capsule_fleet_backend_throttled{backend=\"b0\"} 0\n\
                    capsule_fleet_backends 1\n\
                    capsule_fleet_backends_alive 1\n\
                    capsule_fleet_bad_requests_total 0\n\
                    capsule_fleet_cancel_requests_total 0\n\
                    capsule_fleet_checkpoint_fetches_total 0\n\
                    capsule_fleet_checkpoint_puts_total 0\n\
                    capsule_fleet_dispatch_wait_us_bucket{le=\"+Inf\"} 0\n\
                    capsule_fleet_dispatch_wait_us_count 0\n\
                    capsule_fleet_dispatch_wait_us_sum 0\n\
                    capsule_fleet_flight_capacity 64\n\
                    capsule_fleet_flight_recorded_total 1\n\
                    capsule_fleet_job_us_bucket{le=\"+Inf\"} 0\n\
                    capsule_fleet_job_us_count 0\n\
                    capsule_fleet_job_us_sum 0\n\
                    capsule_fleet_jobs_accepted_total 0\n\
                    capsule_fleet_jobs_cancelled_total 0\n\
                    capsule_fleet_jobs_completed_total 0\n\
                    capsule_fleet_jobs_failed_total 0\n\
                    capsule_fleet_jobs_in_flight 0\n\
                    capsule_fleet_jobs_migrated_total 0\n\
                    capsule_fleet_jobs_rejected_total 0\n\
                    capsule_fleet_pending 0\n\
                    capsule_fleet_preempt_requests_total 0\n\
                    capsule_fleet_queue_capacity 16\n\
                    capsule_fleet_retries_total 0\n\
                    capsule_fleet_traces_stored 0\n";
    let first = request(&fleet, r#"{"op":"metrics"}"#);
    assert!(ok(&first), "metrics failed: {}", first.to_string_compact());
    let split_pool = |text: &str| -> (String, Vec<(String, u64)>) {
        let mut rest = String::new();
        let mut pool = Vec::new();
        for line in text.lines() {
            match line.strip_prefix("capsule_fleet_pool_") {
                Some(entry) => {
                    let (name, value) = entry.split_once(' ').expect("pool line");
                    pool.push((name.to_string(), value.parse().expect("pool value")));
                }
                None => {
                    rest.push_str(line);
                    rest.push('\n');
                }
            }
        }
        (rest, pool)
    };
    let exposition = first.get("exposition").and_then(Json::as_str).expect("exposition");
    let (stable, pool) = split_pool(exposition);
    assert_eq!(stable.as_str(), expected);
    // The pool counters are present as a metrics family and satisfy the
    // pool invariants even though their absolute values depend on how
    // many stats polls the alive-wait above needed.
    let pool_value = |name: &str| {
        pool.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or_else(|| {
            panic!("missing pool metric {name}");
        })
    };
    assert_eq!(
        pool_value("checkouts_total"),
        pool_value("reuses_total") + pool_value("dials_total"),
        "every checkout is either a reuse or a dial"
    );
    assert!(pool_value("redials_total") <= pool_value("dials_total"));

    // Two back-to-back scrapes are byte-identical, response and all.
    let second = request(&fleet, r#"{"op":"metrics"}"#);
    assert_eq!(first.to_string_compact(), second.to_string_compact());

    // After a job the dispatch counters and latency histograms move.
    let reply = request(&fleet, &run_line("table1_config"));
    assert!(ok(&reply));
    let after = request(&fleet, r#"{"op":"metrics"}"#);
    let text = after.get("exposition").and_then(Json::as_str).expect("exposition");
    assert!(text.contains("capsule_fleet_jobs_completed_total 1\n"), "{text}");
    assert!(text.contains("capsule_fleet_backend_dispatched_total{backend=\"b0\"} 1\n"), "{text}");
    assert!(text.contains("capsule_fleet_dispatch_wait_us_count 1\n"), "{text}");
    assert!(!text.contains("probes_"), "probe counters leaked into the exposition:\n{text}");

    fleet.shutdown();
    backend.shutdown();
}

/// The scalar readings of a rendering — numbers and flags, minus the
/// response's `ok` and a health row's `rank` — in order.
fn scalars(j: &Json) -> Vec<(&str, &Json)> {
    let object = j.as_object().expect("object");
    let scalar = |k: &str, v: &Json| {
        !["ok", "rank"].contains(&k) && (v.as_u64().is_some() || v.as_bool().is_some())
    };
    object.iter().filter(|(k, v)| scalar(k, v)).map(|(k, v)| (k.as_str(), v)).collect()
}

/// Checks one endpoint's views of its readings. `stats` is the `stats`
/// body, which the shell renders from every row of the readings tables.
/// Each of `views` carries exactly its scalars and `counters` (the
/// dump's) exactly its `counters`, reading the same; the exposition
/// carries every scalar as `<prefix>_<key>[_total]<labels>` and every
/// histogram's count, with `stats`'s value. Only the scrape-perturbed
/// `unscraped` keys may differ between views, and `metrics` omits them.
fn check_readings(
    stats: &Json,
    views: &[&Json],
    counters: Option<&Json>,
    exposition: &str,
    (prefix, labels): (&str, &str),
    unscraped: &[&str],
) {
    let same = |a: &[(&str, &Json)], b: &[(&str, &Json)]| {
        let keys = |v: &[(&str, &Json)]| v.iter().map(|(k, _)| k.to_string()).collect::<Vec<_>>();
        assert_eq!(keys(a), keys(b));
        for ((k, x), (_, y)) in a.iter().zip(b) {
            assert!(unscraped.contains(k) || x == y, "{k}: {x:?} != {y:?}");
        }
    };
    let mut readings = scalars(stats);
    for view in views {
        same(&readings, &scalars(view));
    }
    if let Some(dumped) = counters {
        let counted = scalars(stats.get("counters").expect("counters"));
        same(&counted, &scalars(dumped));
        readings.extend(counted);
    }
    let sample = |name: String| {
        exposition
            .lines()
            .find_map(|l| l.strip_prefix(name.as_str())?.strip_prefix(' ')?.parse().ok())
    };
    for (k, v) in readings {
        let found = [
            sample(format!("{prefix}_{k}{labels}")),
            sample(format!("{prefix}_{k}_total{labels}")),
        ];
        if unscraped.contains(&k) {
            assert_eq!(found, [None, None], "{k} is scrape-perturbed");
        } else {
            let want = v.as_u64().or_else(|| v.as_bool().map(u64::from));
            assert!(found.contains(&want) && found.contains(&None), "{k}: {found:?} != {want:?}");
        }
    }
    for (k, h) in stats.as_object().expect("object") {
        if h.get("buckets").is_some() {
            let count = h.get("count").and_then(Json::as_u64);
            assert_eq!(sample(format!("{prefix}_{k}_count{labels}")), count, "{k}");
        }
    }
}

/// Every reading of both servers shows up in each view it belongs to,
/// and after a real job the views agree: `stats`'s counters and gauges
/// are the dump's, a server's `health` is its gauges, a backend's row
/// reads the same in `stats`, `health` and the dump, and every
/// `metrics` value is its `stats` value.
#[test]
fn every_reading_reads_the_same_in_stats_health_dump_and_metrics() {
    let backend = start_backend();
    let fleet = start_fleet(&[&backend], fleet_opts());
    wait_for("backend alive", || backends_alive(&fleet) == 1);
    assert!(ok(&request(&fleet, &run_line("table1_config"))));

    // `stats` first: a fleet's `stats` forwards to its backends through
    // the pool, which nothing after it touches.
    let views = |addr: &str| {
        let ask = |op: &str| request_once(addr, &format!(r#"{{"op":"{op}"}}"#)).expect(op);
        let (stats, health, dump) = (ask("stats"), ask("health"), ask("dump"));
        let metrics = ask("metrics");
        let text = metrics.get("exposition").and_then(Json::as_str).expect("exposition");
        (stats, health, dump.get("dump").cloned().expect("dump"), text.to_string())
    };
    let (stats, health, dump, exposition) = views(&backend.local_addr().to_string());
    let dumped = |d: &Json, part: &str| d.get(part).cloned().expect(part);
    check_readings(
        &stats,
        &[&health, &dumped(&dump, "gauges")],
        Some(&dumped(&dump, "counters")),
        &exposition,
        ("capsule_serve", ""),
        &["connections", "requests"],
    );

    let (stats, health, dump, exposition) = views(&fleet.local_addr().to_string());
    check_readings(
        stats.get("fleet").expect("fleet"),
        &[&dumped(&dump, "gauges")],
        Some(&dumped(&dump, "counters")),
        &exposition,
        ("capsule_fleet", ""),
        &["connections", "requests", "probes_ok", "probes_failed"],
    );
    let row =
        |j: &Json| dumped(j, "backends").as_array().and_then(|a| a.first()).cloned().expect("row");
    check_readings(
        &row(&stats),
        &[&row(&health), &row(&dump)],
        None,
        &exposition,
        ("capsule_fleet_backend", r#"{backend="b0"}"#),
        &["workers", "failures_in_window"],
    );

    fleet.shutdown();
    backend.shutdown();
}

/// The checkpoint-migration e2e (docs/CHECKPOINT.md): a checkpointed job
/// is preempted through the fleet, the coordinator pulls the checkpoint
/// off the victim backend, the victim is killed, and the job resumes on
/// the survivor *from the checkpoint* — not from cycle 0 — with a report
/// byte-identical to an uninterrupted run.
#[test]
fn preempted_job_migrates_off_a_killed_backend_with_identical_bytes() {
    let mut backends = [
        Some(start_backend_with_checkpoints(50_000)),
        Some(start_backend_with_checkpoints(50_000)),
    ];
    // A generous backoff parks the migrated retry long enough for the
    // test to kill the victim between the fetch and the resume.
    let opts = FleetOptions { backoff_ms: 1_000, ..fleet_opts() };
    let fleet = {
        let refs: Vec<&Server> = backends.iter().flatten().collect();
        start_fleet(&refs, opts)
    };
    let reference = start_backend();
    wait_for("both backends alive", || backends_alive(&fleet) == 2);

    // Baseline bytes from an uninterrupted run on a plain server.
    let direct = request_once(&reference.local_addr().to_string(), SLOW_RUN).expect("direct run");
    assert!(ok(&direct), "baseline failed: {}", direct.to_string_compact());
    let baseline = direct.get("report").map(Json::to_string_compact).expect("baseline report");

    // Dispatch the slow job through the fleet and find its backend.
    let mut slow = Connection::connect(&fleet.local_addr().to_string()).expect("connect");
    slow.send(SLOW_RUN).expect("send slow job");
    wait_for("slow job to reach a backend", || busy_backend(&fleet).is_some());
    let victim: usize =
        busy_backend(&fleet).unwrap().trim_start_matches('b').parse().expect("backend index");

    // Preempt it by cache key through the fleet; the backend may not
    // have admitted the job yet, so poll until one claims it.
    let key = {
        let Request::Run(run) = Request::parse_line(SLOW_RUN).expect("parse run") else {
            panic!("SLOW_RUN is a run request");
        };
        cache_key(&run.canonical())
    };
    let preempt_line = format!(r#"{{"op":"preempt","cache_key":"{key}"}}"#);
    let mut preempt_reply = Json::Null;
    wait_for("preempt to land on a backend", || {
        let r = request(&fleet, &preempt_line);
        if ok(&r) {
            preempt_reply = r;
            true
        } else {
            false
        }
    });
    assert_eq!(
        preempt_reply.get("backend").and_then(Json::as_str),
        Some(format!("b{victim}").as_str()),
        "the victim must be the backend acknowledging the preempt"
    );

    // The dispatcher fetches the checkpoint as soon as the park lands;
    // once the blob is off the victim, the victim can die.
    wait_for("the checkpoint to migrate", || fleet_counter(&stats(&fleet), "jobs_migrated") >= 1);
    backends[victim].take().expect("victim still running").shutdown();

    // The resumed leg completes on the survivor, byte for byte.
    let reply = slow.recv().expect("slow job response");
    assert!(ok(&reply), "migrated job failed: {}", reply.to_string_compact());
    let survivor = format!("b{}", 1 - victim);
    assert_eq!(reply.get("backend").and_then(Json::as_str), Some(survivor.as_str()));
    assert!(
        reply.get("attempts").and_then(Json::as_u64).unwrap_or(0) >= 2,
        "migration must show as a second dispatch attempt: {}",
        reply.to_string_compact()
    );
    assert_eq!(
        reply.get("report").map(Json::to_string_compact).as_deref(),
        Some(baseline.as_str()),
        "the migrated report must be byte-identical to an uninterrupted run"
    );

    let s = stats(&fleet);
    assert!(fleet_counter(&s, "preempt_requests") >= 1);
    assert_eq!(fleet_counter(&s, "jobs_migrated"), 1);
    assert_eq!(fleet_counter(&s, "checkpoint_fetches"), 1);
    assert_eq!(fleet_counter(&s, "checkpoint_puts"), 1);
    assert_eq!(fleet_counter(&s, "jobs_completed"), 1);
    assert_eq!(fleet_counter(&s, "jobs_failed"), 0);
    assert_eq!(
        fleet_counter(&s, "backend_failures"),
        0,
        "a park is not a backend fault and must not trip the failure window"
    );

    // The survivor really resumed from the blob rather than restarting:
    // its own jobs_resumed counter moved.
    let survivor_stats = s
        .get("backends")
        .and_then(Json::as_array)
        .and_then(|arr| {
            arr.iter().find(|b| b.get("name").and_then(Json::as_str) == Some(survivor.as_str()))
        })
        .and_then(|b| b.get("stats"))
        .expect("survivor stats");
    assert_eq!(
        survivor_stats.get("counters").and_then(|c| c.get("jobs_resumed")).and_then(Json::as_u64),
        Some(1),
        "the survivor must have resumed from the checkpoint"
    );

    // Both expositions count the migration, and two scrapes of each are
    // byte-identical.
    let survivor_addr = backends[1 - victim].as_ref().expect("survivor").local_addr().to_string();
    for (addr, line) in [
        (fleet.local_addr().to_string(), "capsule_fleet_jobs_migrated_total 1"),
        (survivor_addr, "capsule_serve_jobs_resumed_total 1"),
    ] {
        let first = request_once(&addr, r#"{"op":"metrics"}"#).expect("metrics");
        let second = request_once(&addr, r#"{"op":"metrics"}"#).expect("metrics");
        assert_eq!(first.to_string_compact(), second.to_string_compact(), "{addr}");
        let text = first.get("exposition").and_then(Json::as_str).expect("exposition");
        assert!(text.lines().any(|l| l == line), "{line:?} missing from:\n{text}");
    }

    fleet.shutdown();
    reference.shutdown();
    if let Some(b) = backends[1 - victim].take() {
        b.shutdown();
    }
}

#[test]
fn dead_fleet_answers_control_ops_and_gives_up_on_runs() {
    // Port 1 on localhost is essentially never listening: every probe
    // and dispatch fails, exercising the no-live-backend paths without
    // starting a single server.
    let opts = FleetOptions { attempts: 2, backoff_ms: 5, dispatch_wait_ms: 300, ..fleet_opts() };
    let fleet = Fleet::start("127.0.0.1:0", &["127.0.0.1:1".to_string()], opts).expect("bind");

    for (line, why) in [
        ("not json", "unparseable"),
        (r#"{"op":"frobnicate"}"#, "unknown op"),
        (r#"{"op":"run"}"#, "missing scenario"),
        (r#"{"op":"run","scenario":"nope"}"#, "unknown scenario"),
    ] {
        let reply = request(&fleet, line);
        assert!(!ok(&reply), "{why}: expected rejection, got {}", reply.to_string_compact());
        assert_eq!(error_code(&reply), Some("bad-request"), "{why}");
    }

    // `list` is served by the coordinator itself, identically to a server.
    let list = request(&fleet, r#"{"op":"list"}"#);
    assert!(ok(&list));
    let scenarios = list.get("scenarios").and_then(Json::as_array).expect("scenarios");
    assert_eq!(scenarios.len(), capsule_bench::catalog::entries().len());

    // A valid run has nowhere to go: a structured backend-unavailable
    // failure after the bounded dispatch window, not a hang.
    let reply = request(&fleet, &run_line("table1_config"));
    assert!(!ok(&reply));
    assert_eq!(error_code(&reply), Some("backend-unavailable"));
    assert!(reply.get("detail").and_then(Json::as_str).is_some());

    let s = stats(&fleet);
    assert_eq!(
        s.get("fleet").and_then(|f| f.get("backends_alive")).and_then(Json::as_u64),
        Some(0)
    );
    assert_eq!(
        s.get("aggregate").and_then(|a| a.get("backends_reporting")).and_then(Json::as_u64),
        Some(0)
    );
    assert_eq!(fleet_counter(&s, "jobs_failed"), 1);
    assert!(fleet_counter(&s, "probes_failed") >= 1);

    // Shutdown over the wire stops the coordinator.
    let reply = request(&fleet, r#"{"op":"shutdown"}"#);
    assert!(ok(&reply));
    wait_for("fleet to stop", || !fleet.running());
    fleet.join();
}

/// The fleet accepts both wire protocols from its own clients and the
/// answer is byte-identical: the frame layer is transport, not content.
#[test]
fn fleet_answers_v1_and_v2_clients_byte_identically() {
    let backend = start_backend();
    let fleet = start_fleet(&[&backend], fleet_opts());
    let addr = fleet.local_addr().to_string();
    let line = run_line("table1_config");

    // Warm the backend cache so both probes observe identical state.
    let warm = request(&fleet, &line);
    assert!(ok(&warm), "warm run failed: {}", warm.to_string_compact());

    let v1 = request_once(&addr, &line).expect("v1 request");
    let mut framed = Connection::connect_with(&addr, Proto::V2).expect("v2 connect");
    let v2 = framed.request(&line).expect("v2 request");
    assert!(ok(&v1));
    // Everything but the per-request host-timing field must match byte
    // for byte — protocol choice is transport, not content.
    let strip_wait = |j: &Json| {
        let s = j.to_string_compact();
        match s.find(",\"dispatch_wait_us\":") {
            Some(at) => {
                let rest = &s[at + 21..];
                let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
                format!("{}{}", &s[..at], &rest[end..])
            }
            None => s,
        }
    };
    assert_eq!(strip_wait(&v1), strip_wait(&v2), "the fleet's v1 and v2 answers diverged");
    assert_eq!(v2.get("cache_hit").and_then(Json::as_bool), Some(true));
    assert_eq!(v2.get("backend").and_then(Json::as_str), Some("b0"));

    // Control ops answer over v2 too, tagged with their own op.
    let s = framed.request(r#"{"op":"stats"}"#).expect("v2 stats");
    assert!(ok(&s));
    assert!(s.get("fleet").is_some(), "fleet stats answered over v2");

    fleet.shutdown();
    backend.shutdown();
}

/// A run that deterministically fails job-level on any backend: a
/// 10-cycle budget overruns immediately (`scenario-failed` passthrough).
const FAILING_RUN: &str = r#"{"op":"run","scenario":"table1_config","scale":"smoke","budget":10}"#;

/// The canonical cache key (16-hex) of a run line — also the id its
/// anonymous fleet trace files under.
fn line_key(line: &str) -> String {
    let Request::Run(run) = Request::parse_line(line).expect("parse run") else {
        panic!("not a run line");
    };
    cache_key(&run.canonical())
}

#[test]
fn health_ranks_backends_by_predicted_wait_with_rendezvous_tiebreak() {
    let backends = [start_backend(), start_backend()];
    let fleet = start_fleet(&[&backends[0], &backends[1]], fleet_opts());
    wait_for("both backends alive", || backends_alive(&fleet) == 2);

    // Fresh fleet, no key: both rows idle, ranked in configuration
    // order, each carrying the gauges behind the ranking.
    let fresh = request(&fleet, r#"{"op":"health"}"#);
    assert!(ok(&fresh), "health failed: {}", fresh.to_string_compact());
    assert_eq!(fresh.get("backends_alive").and_then(Json::as_u64), Some(2));
    let rows = fresh.get("backends").and_then(Json::as_array).expect("rows");
    assert_eq!(rows.len(), 2);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.get("rank").and_then(Json::as_u64), Some(i as u64));
        assert_eq!(row.get("name").and_then(Json::as_str), Some(format!("b{i}").as_str()));
        assert_eq!(row.get("alive").and_then(Json::as_bool), Some(true));
        assert_eq!(row.get("predicted_wait_us").and_then(Json::as_u64), Some(0));
        assert_eq!(row.get("ewma_job_us").and_then(Json::as_u64), Some(0));
    }

    // With the slow job's cache key, the idle tie breaks by the same
    // rendezvous preference dispatch uses — so rank 0 must be exactly
    // the backend the job then lands on.
    let key = line_key(SLOW_RUN);
    let keyed = request(&fleet, &format!(r#"{{"op":"health","key":"{key}"}}"#));
    assert!(ok(&keyed));
    assert_eq!(keyed.get("key").and_then(Json::as_str), Some(key.as_str()));
    let predicted_first = keyed
        .get("backends")
        .and_then(Json::as_array)
        .and_then(<[Json]>::first)
        .and_then(|b| b.get("name").and_then(Json::as_str))
        .expect("rank-0 name")
        .to_string();

    let mut slow = Connection::connect(&fleet.local_addr().to_string()).expect("connect");
    slow.send(SLOW_RUN).expect("send slow job");
    wait_for("slow job to reach a backend", || busy_backend(&fleet).is_some());
    assert_eq!(busy_backend(&fleet).as_deref(), Some(predicted_first.as_str()));

    // While one backend is loaded, the idle one ranks first: its
    // deterministic predicted wait is strictly lower.
    let loaded = request(&fleet, r#"{"op":"health"}"#);
    let rows = loaded.get("backends").and_then(Json::as_array).expect("rows");
    assert_eq!(
        rows[0].get("in_flight").and_then(Json::as_u64),
        Some(0),
        "the idle backend must rank first: {}",
        loaded.to_string_compact()
    );
    assert_eq!(rows[1].get("name").and_then(Json::as_str), Some(predicted_first.as_str()));
    assert_eq!(rows[1].get("in_flight").and_then(Json::as_u64), Some(1));
    let p0 = rows[0].get("predicted_wait_us").and_then(Json::as_u64).unwrap();
    let p1 = rows[1].get("predicted_wait_us").and_then(Json::as_u64).unwrap();
    assert!(p0 < p1, "ranking must follow predicted wait ({p0} vs {p1})");

    let reply = slow.recv().expect("slow job response");
    assert!(ok(&reply), "slow job failed: {}", reply.to_string_compact());
    fleet.shutdown();
    for b in backends {
        b.shutdown();
    }
}

/// Satellite pin: the full preempt-then-migrate flow books exactly the
/// same counters whichever wire protocol the client spoke — both
/// protocols funnel into one dispatch path — and `jobs_migrated` stays
/// orthogonal to the final-outcome counters: the job counts once in
/// `jobs_completed` AND once in `jobs_migrated`, never twice anywhere.
#[test]
fn preempt_then_migrate_books_identical_counters_on_both_protocols() {
    fn migrate_and_snapshot(proto: Proto) -> BTreeMap<String, u64> {
        let backends =
            [start_backend_with_checkpoints(50_000), start_backend_with_checkpoints(50_000)];
        let fleet = start_fleet(&[&backends[0], &backends[1]], fleet_opts());
        wait_for("both backends alive", || backends_alive(&fleet) == 2);

        let mut conn =
            Connection::connect_with(&fleet.local_addr().to_string(), proto).expect("connect");
        conn.send(SLOW_RUN).expect("send slow job");
        wait_for("slow job to reach a backend", || busy_backend(&fleet).is_some());

        let key = line_key(SLOW_RUN);
        let preempt_line = format!(r#"{{"op":"preempt","cache_key":"{key}"}}"#);
        wait_for("preempt to land", || ok(&request(&fleet, &preempt_line)));
        wait_for("the checkpoint to migrate", || {
            fleet_counter(&stats(&fleet), "jobs_migrated") >= 1
        });

        let reply = conn.recv().expect("migrated job response");
        assert!(ok(&reply), "migrated job failed: {}", reply.to_string_compact());
        assert!(reply.get("attempts").and_then(Json::as_u64).unwrap_or(0) >= 2);

        // `preempt_requests` is deliberately not compared: landing the
        // preempt takes an unpredictable number of polls while the
        // backend is still admitting the job.
        let s = stats(&fleet);
        let mut snapshot = BTreeMap::new();
        for name in [
            "jobs_accepted",
            "jobs_rejected",
            "jobs_completed",
            "jobs_failed",
            "jobs_cancelled",
            "jobs_migrated",
            "retries",
            "backend_failures",
            "checkpoint_fetches",
            "checkpoint_puts",
        ] {
            snapshot.insert(name.to_string(), fleet_counter(&s, name));
        }
        fleet.shutdown();
        for b in backends {
            b.shutdown();
        }
        snapshot
    }

    let v1 = migrate_and_snapshot(Proto::V1);
    let v2 = migrate_and_snapshot(Proto::V2);
    assert_eq!(v1, v2, "the two wire protocols must book identical counters");
    assert_eq!(v1.get("jobs_accepted"), Some(&1));
    assert_eq!(v1.get("jobs_completed"), Some(&1));
    assert_eq!(v1.get("jobs_migrated"), Some(&1), "migration counted once, alongside completion");
    assert_eq!(v1.get("jobs_failed"), Some(&0));
    assert_eq!(v1.get("retries"), Some(&1), "the resume leg is the only retry");
    assert_eq!(v1.get("backend_failures"), Some(&0), "a park is not a backend fault");
    assert_eq!(v1.get("checkpoint_fetches"), Some(&1));
    assert_eq!(v1.get("checkpoint_puts"), Some(&1));
}

#[test]
fn fleet_tail_retention_and_dump_capture_troubled_jobs() {
    let backend = start_backend();
    let fleet = start_fleet(&[&backend], fleet_opts());
    wait_for("backend alive", || backends_alive(&fleet) == 1);

    // A clean first-attempt success with no slow history behind it: the
    // tail policy drops its anonymous trace.
    let fast = request(&fleet, &run_line("table1_config"));
    assert!(ok(&fast), "fast run failed: {}", fast.to_string_compact());
    let fast_key = line_key(&run_line("table1_config"));
    let dropped = request(&fleet, &format!(r#"{{"op":"trace","trace_id":"{fast_key}"}}"#));
    assert!(!ok(&dropped), "fast job's trace must have been dropped");
    assert_eq!(error_code(&dropped), Some("unknown-trace"));

    // A job-level failure is always retained, under its cache-key hex.
    let failing = request(&fleet, FAILING_RUN);
    assert!(!ok(&failing));
    assert_eq!(error_code(&failing), Some("scenario-failed"));
    let fail_key = line_key(FAILING_RUN);
    let kept = request(&fleet, &format!(r#"{{"op":"trace","trace_id":"{fail_key}"}}"#));
    assert!(ok(&kept), "failed job's trace must be tail-retained: {}", kept.to_string_compact());
    let spans =
        kept.get("trace").and_then(|t| t.get("spans")).and_then(Json::as_array).expect("spans");
    assert!(
        spans.iter().any(|s| s.get("name").and_then(Json::as_str) == Some("fleet.dispatch")),
        "the retained tree must include the dispatch span"
    );

    // The dump artifact: versioned, with the flight ring, the retained
    // trace (and only that one), the gauges, and the counters.
    let dump = request(&fleet, r#"{"op":"dump"}"#);
    assert!(ok(&dump), "dump failed: {}", dump.to_string_compact());
    let d = dump.get("dump").expect("dump object");
    assert_eq!(d.get("schema").and_then(Json::as_str), Some("capsule-dump/1"));
    assert_eq!(d.get("source").and_then(Json::as_str), Some("fleet"));
    let flight = d.get("flight").expect("flight ring");
    assert_eq!(flight.get("capacity").and_then(Json::as_u64), Some(64));
    let events = flight.get("events").and_then(Json::as_array).expect("events");
    let kinds: Vec<&str> =
        events.iter().filter_map(|e| e.get("kind").and_then(Json::as_str)).collect();
    assert_eq!(kinds.first(), Some(&"backend-up"), "the boot transition leads the ring");
    for kind in ["enqueue", "dispatch", "complete"] {
        assert!(kinds.contains(&kind), "missing {kind} in {kinds:?}");
    }
    assert_causal(events, "dispatch");
    assert!(
        events.iter().any(|e| {
            e.get("cache_key").and_then(Json::as_str) == Some(fail_key.as_str())
                && e.get("outcome").and_then(Json::as_str) == Some("failed")
        }),
        "the failing job's completion must be on the ring: {}",
        flight.to_string_compact()
    );
    let trace_ids: Vec<&str> = d
        .get("traces")
        .and_then(Json::as_array)
        .expect("traces")
        .iter()
        .filter_map(|t| t.get("trace_id").and_then(Json::as_str))
        .collect();
    assert!(trace_ids.contains(&fail_key.as_str()));
    assert!(!trace_ids.contains(&fast_key.as_str()), "a dropped trace must not be in the dump");
    let gauges = d.get("gauges").expect("gauges");
    assert_eq!(gauges.get("backends_alive").and_then(Json::as_u64), Some(1));
    assert_eq!(gauges.get("jobs_in_flight").and_then(Json::as_u64), Some(0));
    let counters = d.get("counters").expect("counters");
    assert_eq!(counters.get("jobs_completed").and_then(Json::as_u64), Some(1));
    assert_eq!(counters.get("jobs_failed").and_then(Json::as_u64), Some(1));

    fleet.shutdown();
    backend.shutdown();
}

/// Sends `bytes`, half-closes, and returns everything the peer answered
/// before it closed.
fn exchange(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    stream.write_all(bytes).expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut answer = Vec::new();
    stream.read_to_end(&mut answer).expect("answer");
    answer
}

/// One shell answers malformed input for both servers: the same faulty
/// line or frame gets the same bytes from a single server and from a
/// fleet in front of it.
#[test]
fn serve_and_fleet_answer_malformed_input_byte_identically() {
    let backend = start_backend();
    let fleet = start_fleet(&[&backend], fleet_opts());
    let v2 = |frame: Vec<u8>| [b"CAPS\x02".to_vec(), frame].concat();
    let faults: [(&str, Vec<u8>); 7] = [
        ("unknown tag", v2(frame::encode_frame(1, 200, br#"{"op":"stats"}"#))),
        ("non-UTF-8 payload", v2(frame::encode_frame(2, tag::STATS, b"\xff\xfe"))),
        ("tag/op mismatch", v2(frame::encode_frame(3, tag::RUN, br#"{"op":"stats"}"#))),
        ("unparsable payload", v2(frame::encode_frame(4, tag::STATS, br#"{"op":"#))),
        ("truncated header", v2([4u32.to_le_bytes(), *b"junk"].concat())),
        ("bad preamble version", b"CAPS\x07".to_vec()),
        ("malformed v1 line", b"{\"op\":\"frobnicate\"}\n".to_vec()),
    ];
    for (what, bytes) in &faults {
        let direct = exchange(backend.local_addr(), bytes);
        let fleeted = exchange(fleet.local_addr(), bytes);
        assert!(!direct.is_empty(), "{what}: no answer");
        assert_eq!(
            String::from_utf8_lossy(&direct),
            String::from_utf8_lossy(&fleeted),
            "{what}: serve and fleet answers differ"
        );
        assert_eq!(direct, fleeted, "{what}");
    }

    fleet.shutdown();
    backend.shutdown();
}
