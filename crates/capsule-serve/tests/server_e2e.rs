//! End-to-end tests: an in-process [`Server`] on an ephemeral port,
//! driven over real TCP connections.
//!
//! Long-running jobs use `fig6_division_tree` at full scale (a
//! 12000-element quicksort) so they are reliably still in flight when
//! the test cancels them or stacks jobs behind them; cheap jobs use
//! smoke-scale scenarios.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use capsule_core::output::Json;
use capsule_serve::{Server, ServerOptions};

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

fn start(workers: usize, queue: usize, cache: usize) -> Server {
    start_with_checkpoints(workers, queue, cache, 0)
}

fn start_with_checkpoints(
    workers: usize,
    queue: usize,
    cache: usize,
    checkpoint_cycles: u64,
) -> Server {
    Server::start(
        "127.0.0.1:0",
        ServerOptions {
            workers,
            queue,
            cache,
            traces: 16,
            checkpoint_cycles,
            checkpoints: 8,
            flight: 64,
        },
    )
    .expect("bind ephemeral port")
}

/// One request/response exchange on a fresh connection.
fn request(server: &Server, line: &str) -> Json {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(format!("{line}\n").as_bytes()).expect("send");
    stream.flush().expect("flush");
    let mut response = String::new();
    BufReader::new(&stream).read_line(&mut response).expect("recv");
    Json::parse(response.trim()).expect("parse response")
}

/// Send a request and return the reader without waiting for the reply,
/// so the test can do other work while the job runs.
fn request_deferred(server: &Server, line: &str) -> BufReader<TcpStream> {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(format!("{line}\n").as_bytes()).expect("send");
    stream.flush().expect("flush");
    BufReader::new(stream)
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> Json {
    let mut response = String::new();
    reader.read_line(&mut response).expect("recv");
    Json::parse(response.trim()).expect("parse response")
}

fn ok(json: &Json) -> bool {
    json.get("ok").and_then(Json::as_bool) == Some(true)
}

fn error_code(json: &Json) -> Option<&str> {
    json.get("error").and_then(Json::as_str)
}

fn counter(server: &Server, name: &str) -> i64 {
    let stats = request(server, r#"{"op":"stats"}"#);
    stats.get("counters").and_then(|c| c.get(name)).and_then(Json::as_i64).expect("counter")
}

fn jobs_in_flight(server: &Server) -> i64 {
    let stats = request(server, r#"{"op":"stats"}"#);
    stats.get("jobs_in_flight").and_then(Json::as_i64).expect("jobs_in_flight")
}

/// Poll until the condition holds or a generous deadline passes.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

const SMOKE_RUN: &str = r#"{"op":"run","scenario":"table1_config","scale":"smoke"}"#;
/// Full-scale fig6 sorts 12000 elements — takes long enough in a debug
/// build that the test can observe and cancel it mid-flight.
const LONG_RUN: &str = r#"{"op":"run","scenario":"fig6_division_tree","scale":"full"}"#;

#[test]
fn run_then_cache_hit_is_byte_identical() {
    let server = start(2, 8, 8);

    let first = request(&server, SMOKE_RUN);
    assert!(ok(&first), "first run failed: {}", first.to_string_compact());
    assert_eq!(first.get("cache_hit").and_then(Json::as_bool), Some(false));
    assert_eq!(
        first.get("report").and_then(|r| r.get("schema")).and_then(Json::as_str),
        Some("capsule-bench-report/1")
    );
    let key = first.get("cache_key").and_then(Json::as_str).expect("cache_key").to_string();
    assert_eq!(key.len(), 16, "cache_key is 16 hex digits");

    let second = request(&server, SMOKE_RUN);
    assert!(ok(&second));
    assert_eq!(second.get("cache_hit").and_then(Json::as_bool), Some(true));
    assert_eq!(second.get("cache_key").and_then(Json::as_str), Some(key.as_str()));
    assert_eq!(
        first.get("report").map(Json::to_string_compact),
        second.get("report").map(Json::to_string_compact),
        "cached report must render byte-identically"
    );

    // A different budget is different work: canonical form differs, so no hit.
    let other = request(
        &server,
        r#"{"op":"run","scenario":"table1_config","scale":"smoke","budget":500000000000}"#,
    );
    assert!(ok(&other), "large-budget run failed: {}", other.to_string_compact());
    assert_eq!(other.get("cache_hit").and_then(Json::as_bool), Some(false));
    assert_ne!(other.get("cache_key").and_then(Json::as_str), Some(key.as_str()));

    server.shutdown();
}

#[test]
fn full_queue_rejects_with_structured_error() {
    // One worker, one queue slot: a long job occupies the worker, a
    // second waits in the queue, and the third must bounce immediately.
    let server = start(1, 1, 8);

    let mut long = request_deferred(&server, LONG_RUN);
    wait_for("long job to occupy the worker", || jobs_in_flight(&server) == 1);

    let mut queued = request_deferred(&server, SMOKE_RUN);
    wait_for("second job to be queued", || counter(&server, "jobs_accepted") >= 2);

    let rejected = request(&server, SMOKE_RUN);
    assert!(!ok(&rejected));
    assert_eq!(error_code(&rejected), Some("queue-full"));
    assert_eq!(rejected.get("queue_capacity").and_then(Json::as_i64), Some(1));
    assert!(counter(&server, "jobs_rejected") >= 1);

    // Unblock the worker; the queued job must still complete.
    let cancel = request(&server, r#"{"op":"cancel"}"#);
    assert!(ok(&cancel));
    let long_reply = read_reply(&mut long);
    assert_eq!(error_code(&long_reply), Some("cancelled"));
    let queued_reply = read_reply(&mut queued);
    assert!(ok(&queued_reply), "queued job failed: {}", queued_reply.to_string_compact());

    server.shutdown();
}

#[test]
fn cancel_stops_in_flight_job_and_frees_the_worker() {
    let server = start(1, 4, 8);

    let mut long = request_deferred(&server, LONG_RUN);
    wait_for("long job to start", || jobs_in_flight(&server) == 1);

    let started = Instant::now();
    let cancel = request(&server, r#"{"op":"cancel"}"#);
    assert!(ok(&cancel));

    let reply = read_reply(&mut long);
    assert!(!ok(&reply));
    assert_eq!(error_code(&reply), Some("cancelled"));
    let detail = reply.get("detail").and_then(Json::as_str).unwrap_or("");
    assert!(detail.contains("cancelled at cycle"), "detail was {detail:?}");
    // The cycle-loop poll makes cancellation prompt, not best-effort:
    // the full-scale job takes minutes uncancelled.
    assert!(started.elapsed() < Duration::from_secs(30), "cancellation was not prompt");
    assert_eq!(counter(&server, "jobs_cancelled"), 1);

    // The worker slot is free again and new jobs run to completion —
    // cancel installs a fresh token rather than poisoning the server.
    wait_for("worker to go idle", || jobs_in_flight(&server) == 0);
    let after = request(&server, SMOKE_RUN);
    assert!(ok(&after), "post-cancel job failed: {}", after.to_string_compact());

    server.shutdown();
}

#[test]
fn budget_overrun_is_a_structured_failure() {
    let server = start(1, 4, 8);
    let reply =
        request(&server, r#"{"op":"run","scenario":"table1_config","scale":"smoke","budget":10}"#);
    assert!(!ok(&reply));
    assert_eq!(error_code(&reply), Some("scenario-failed"));
    let detail = reply.get("detail").and_then(Json::as_str).unwrap_or("");
    assert!(detail.contains("no halt within"), "detail was {detail:?}");
    assert_eq!(counter(&server, "jobs_failed"), 1);
    server.shutdown();
}

#[test]
fn config_overrides_change_the_report() {
    let server = start(1, 4, 8);
    let base = request(&server, SMOKE_RUN);
    let throttled = request(
        &server,
        r#"{"op":"run","scenario":"table1_config","scale":"smoke","config":{"division_mode":"never"}}"#,
    );
    assert!(ok(&base) && ok(&throttled));
    assert_eq!(throttled.get("cache_hit").and_then(Json::as_bool), Some(false));
    assert_ne!(
        base.get("report").map(Json::to_string_compact),
        throttled.get("report").map(Json::to_string_compact),
        "disabling division must change simulated results"
    );
    server.shutdown();
}

#[test]
fn malformed_and_unknown_requests_get_structured_rejections() {
    let server = start(1, 2, 2);
    for (line, why) in [
        ("not json", "unparseable"),
        (r#"{"op":"frobnicate"}"#, "unknown op"),
        (r#"{"op":"run"}"#, "missing scenario"),
        (r#"{"op":"run","scenario":"nope"}"#, "unknown scenario"),
        (r#"{"op":"run","scenario":"table1_config","budget":0}"#, "zero budget"),
    ] {
        let reply = request(&server, line);
        assert!(!ok(&reply), "{why}: expected rejection, got {}", reply.to_string_compact());
        assert_eq!(error_code(&reply), Some("bad-request"), "{why}");
        assert!(reply.get("detail").and_then(Json::as_str).is_some(), "{why}: detail missing");
    }
    assert_eq!(counter(&server, "bad_requests"), 5);
    server.shutdown();
}

#[test]
fn list_names_every_catalog_entry_and_stats_counts_requests() {
    let server = start(1, 2, 2);
    let list = request(&server, r#"{"op":"list"}"#);
    assert!(ok(&list));
    let names: Vec<&str> = list
        .get("scenarios")
        .and_then(Json::as_array)
        .expect("scenarios array")
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names.len(), capsule_bench::catalog::entries().len());
    assert!(names.contains(&"fig3_dijkstra_dist"));
    assert!(names.contains(&"toolchain_overhead"));
    assert!(counter(&server, "requests") >= 2);
    server.shutdown();
}

#[test]
fn profile_run_returns_stage_profiles_without_touching_the_report() {
    let server = start(1, 4, 8);

    let plain = request(&server, SMOKE_RUN);
    assert!(ok(&plain));
    assert!(plain.get("profile").is_none(), "unprofiled run must not carry profiles");

    // profile:true bypasses the cache lookup (the stage profile has to
    // come from a real run), so this is a fresh execution...
    let profiled = request(
        &server,
        r#"{"op":"run","scenario":"table1_config","scale":"smoke","profile":true}"#,
    );
    assert!(ok(&profiled), "profiled run failed: {}", profiled.to_string_compact());
    assert_eq!(profiled.get("cache_hit").and_then(Json::as_bool), Some(false));
    // ...whose report is still byte-identical: profiling is observation-only.
    assert_eq!(
        plain.get("report").map(Json::to_string_compact),
        profiled.get("report").map(Json::to_string_compact),
        "profiling perturbed the report"
    );

    let rows = profiled.get("profile").and_then(Json::as_array).expect("profile array");
    let report_runs = profiled
        .get("report")
        .and_then(|r| r.get("records"))
        .and_then(Json::as_array)
        .expect("records")
        .len();
    assert_eq!(rows.len(), report_runs, "one profile row per record");
    for row in rows {
        assert!(row.get("group").and_then(Json::as_str).is_some());
        let stages = row.get("stages").expect("stages object");
        for stage in ["fetch", "dispatch", "issue", "complete", "commit"] {
            let s = stages.get(stage).unwrap_or_else(|| panic!("missing stage {stage}"));
            assert!(s.get("active_cycles").and_then(Json::as_u64).is_some());
            assert!(s.get("units").and_then(Json::as_u64).is_some());
        }
        assert!(stages.get("stepped_cycles").and_then(Json::as_u64).is_some());
    }
    server.shutdown();
}

#[test]
fn traced_job_is_reconstructable_via_the_trace_op() {
    let server = start(1, 4, 8);

    // An unknown id is a structured error, not a hang or an empty tree.
    let missing = request(&server, r#"{"op":"trace","trace_id":"never-submitted"}"#);
    assert!(!ok(&missing));
    assert_eq!(error_code(&missing), Some("unknown-trace"));

    let run = request(
        &server,
        r#"{"op":"run","scenario":"table1_config","scale":"smoke","trace_id":"e2e-t1"}"#,
    );
    assert!(ok(&run), "traced run failed: {}", run.to_string_compact());
    assert_eq!(run.get("trace_id").and_then(Json::as_str), Some("e2e-t1"));

    let reply = request(&server, r#"{"op":"trace","trace_id":"e2e-t1"}"#);
    assert!(ok(&reply), "trace query failed: {}", reply.to_string_compact());
    let tree = reply.get("trace").expect("trace tree");
    assert_eq!(tree.get("dropped").and_then(Json::as_u64), Some(0));
    let spans = tree.get("spans").and_then(Json::as_array).expect("spans");
    let names: Vec<&str> =
        spans.iter().filter_map(|s| s.get("name").and_then(Json::as_str)).collect();
    assert_eq!(names, ["serve.run", "serve.queue", "serve.execute"]);

    let root = &spans[0];
    assert_eq!(root.get("parent"), Some(&Json::Null));
    let attr = |span: &Json, key: &str| {
        span.get("attrs").and_then(|a| a.get(key)).and_then(Json::as_str).map(str::to_string)
    };
    assert_eq!(attr(root, "scenario").as_deref(), Some("table1_config"));
    assert_eq!(attr(root, "scale").as_deref(), Some("smoke"));
    let miss = root.get("events").and_then(Json::as_array).expect("events");
    assert!(
        miss.iter().any(|e| e.get("name").and_then(Json::as_str) == Some("cache-miss")),
        "first traced run must record a cache-miss event"
    );
    // Children hang off the root, every span is closed, and the execute
    // span carries its outcome.
    let root_id = root.get("id").and_then(Json::as_u64).expect("id");
    for span in &spans[1..] {
        assert_eq!(span.get("parent").and_then(Json::as_u64), Some(root_id));
        assert!(span.get("end_us").and_then(Json::as_u64).is_some(), "span left open");
    }
    assert_eq!(attr(&spans[2], "outcome").as_deref(), Some("completed"));

    // The same work traced again is a cache hit; the stored tree says so.
    let hit = request(
        &server,
        r#"{"op":"run","scenario":"table1_config","scale":"smoke","trace_id":"e2e-t2"}"#,
    );
    assert_eq!(hit.get("cache_hit").and_then(Json::as_bool), Some(true));
    let reply2 = request(&server, r#"{"op":"trace","trace_id":"e2e-t2"}"#);
    let spans2 = reply2.get("trace").and_then(|t| t.get("spans")).unwrap();
    let hit_events = spans2.as_array().unwrap()[0].get("events").and_then(Json::as_array).unwrap();
    assert!(
        hit_events.iter().any(|e| e.get("name").and_then(Json::as_str) == Some("cache-hit")),
        "cache-hit trace must record the hit"
    );

    server.shutdown();
}

#[test]
fn metrics_exposition_is_deterministic_and_golden_on_a_fresh_server() {
    let server = start(1, 4, 8);

    // Golden: the full exposition of an untouched server, byte for byte.
    // Scrape-perturbed counters (connections, requests) are excluded by
    // design, so a scrape does not change the next scrape.
    let expected = "capsule_serve_bad_requests_total 0\n\
                    capsule_serve_cache_capacity 8\n\
                    capsule_serve_cache_entries 0\n\
                    capsule_serve_cache_evictions_total 0\n\
                    capsule_serve_cache_hits_total 0\n\
                    capsule_serve_cache_misses_total 0\n\
                    capsule_serve_cancel_requests_total 0\n\
                    capsule_serve_checkpoint_capacity 8\n\
                    capsule_serve_checkpoint_cycles 0\n\
                    capsule_serve_checkpoint_entries 0\n\
                    capsule_serve_checkpoint_evictions_total 0\n\
                    capsule_serve_checkpoint_fetches_total 0\n\
                    capsule_serve_checkpoint_puts_total 0\n\
                    capsule_serve_checkpoints_stored_total 0\n\
                    capsule_serve_ewma_queue_wait_us 0\n\
                    capsule_serve_ewma_run_us 0\n\
                    capsule_serve_flight_capacity 64\n\
                    capsule_serve_flight_recorded_total 0\n\
                    capsule_serve_jobs_accepted_total 0\n\
                    capsule_serve_jobs_cancelled_total 0\n\
                    capsule_serve_jobs_completed_total 0\n\
                    capsule_serve_jobs_failed_total 0\n\
                    capsule_serve_jobs_in_flight 0\n\
                    capsule_serve_jobs_preempted_total 0\n\
                    capsule_serve_jobs_rejected_total 0\n\
                    capsule_serve_jobs_resumed_total 0\n\
                    capsule_serve_predicted_wait_us 0\n\
                    capsule_serve_preempt_requests_total 0\n\
                    capsule_serve_queue_capacity 4\n\
                    capsule_serve_queue_wait_us_bucket{le=\"+Inf\"} 0\n\
                    capsule_serve_queue_wait_us_count 0\n\
                    capsule_serve_queue_wait_us_sum 0\n\
                    capsule_serve_run_us_bucket{le=\"+Inf\"} 0\n\
                    capsule_serve_run_us_count 0\n\
                    capsule_serve_run_us_sum 0\n\
                    capsule_serve_snapshot_bytes_total 0\n\
                    capsule_serve_traces_stored 0\n\
                    capsule_serve_workers 1\n";
    let first = request(&server, r#"{"op":"metrics"}"#);
    assert!(ok(&first));
    assert_eq!(first.get("exposition").and_then(Json::as_str), Some(expected));

    // Two back-to-back scrapes are byte-identical, response and all.
    let second = request(&server, r#"{"op":"metrics"}"#);
    assert_eq!(first.to_string_compact(), second.to_string_compact());

    // After real work the counters move and the histograms fill in.
    let run = request(&server, SMOKE_RUN);
    assert!(ok(&run));
    let after = request(&server, r#"{"op":"metrics"}"#);
    let text = after.get("exposition").and_then(Json::as_str).expect("exposition");
    assert!(text.contains("capsule_serve_jobs_completed_total 1\n"), "{text}");
    assert!(text.contains("capsule_serve_cache_misses_total 1\n"), "{text}");
    assert!(text.contains("capsule_serve_cache_entries 1\n"), "{text}");
    assert!(text.contains("capsule_serve_run_us_count 1\n"), "{text}");
    assert!(!text.contains("connections"), "scrape-perturbed counter leaked in:\n{text}");

    server.shutdown();
}

/// The `cache_key` (= checkpoint token) a run line will be admitted
/// under, computed the same way the server does.
fn run_cache_key(line: &str) -> String {
    use capsule_serve::protocol::{cache_key, Request};
    let Request::Run(run) = Request::parse_line(line).expect("parse run line") else {
        panic!("not a run line: {line}")
    };
    cache_key(&run.canonical())
}

/// Preempt a job, park it server-side, migrate its checkpoint to another
/// server over the wire, and resume it on both — every resumed report
/// must be byte-identical to an uninterrupted run of the same request.
#[test]
fn preempted_job_resumes_byte_identically_and_migrates_across_servers() {
    // Baseline: a plain, never-checkpointed server.
    let plain = start(1, 4, 8);
    let baseline = request(&plain, SMOKE_RUN);
    assert!(ok(&baseline), "baseline run failed: {}", baseline.to_string_compact());
    let baseline_report = baseline.get("report").map(Json::to_string_compact).expect("report");

    // Checkpointed server: a long job occupies the single worker, so the
    // smoke job is preempted while still queued (deterministically —
    // no race against a checkpoint boundary; boundary preemption is
    // pinned exhaustively by capsule-bench's checkpoint tests).
    let ckpt = start_with_checkpoints(1, 4, 8, 50_000);
    let mut long = request_deferred(&ckpt, LONG_RUN);
    wait_for("long job to occupy the worker", || jobs_in_flight(&ckpt) == 1);
    let mut queued = request_deferred(&ckpt, SMOKE_RUN);
    wait_for("smoke job to be queued", || counter(&ckpt, "jobs_accepted") >= 2);

    let key = run_cache_key(SMOKE_RUN);
    let preempt = request(&ckpt, &format!(r#"{{"op":"preempt","cache_key":"{key}"}}"#));
    assert!(ok(&preempt), "preempt failed: {}", preempt.to_string_compact());

    // Free the worker; the queued job starts, observes its preempt flag
    // and parks instead of running.
    let cancel = request(&ckpt, r#"{"op":"cancel"}"#);
    assert!(ok(&cancel));
    assert_eq!(error_code(&read_reply(&mut long)), Some("cancelled"));
    let parked = read_reply(&mut queued);
    assert!(!ok(&parked));
    assert_eq!(error_code(&parked), Some("preempted"));
    assert_eq!(parked.get("cache_key").and_then(Json::as_str), Some(key.as_str()));
    assert_eq!(counter(&ckpt, "jobs_preempted"), 1);
    assert!(counter(&ckpt, "checkpoints_stored") >= 1);

    // Fetch the parked checkpoint and migrate it to the plain server.
    let fetched = request(&ckpt, &format!(r#"{{"op":"checkpoint-fetch","token":"{key}"}}"#));
    assert!(ok(&fetched), "fetch failed: {}", fetched.to_string_compact());
    let canonical = fetched.get("canonical").and_then(Json::as_str).expect("canonical");
    let blob = fetched.get("blob").and_then(Json::as_str).expect("blob hex");
    assert_eq!(counter(&ckpt, "checkpoint_fetches"), 1);

    // A put that lies about its job is rejected.
    let lied = request(
        &plain,
        &format!(
            r#"{{"op":"checkpoint-put","token":"0000000000000000","canonical":{},"blob":"{blob}"}}"#,
            Json::from(canonical).to_string_compact()
        ),
    );
    assert_eq!(error_code(&lied), Some("checkpoint-mismatch"));

    let put = request(
        &plain,
        &format!(
            r#"{{"op":"checkpoint-put","token":"{key}","canonical":{},"blob":"{blob}"}}"#,
            Json::from(canonical).to_string_compact()
        ),
    );
    assert!(ok(&put), "put failed: {}", put.to_string_compact());
    assert_eq!(put.get("checkpoint_entries").and_then(Json::as_i64), Some(1));

    // Resume on the migration target. Its result cache already holds the
    // baseline report for this canonical request, and a cache hit is the
    // correct (byte-identical) answer — so bypass it with profile:true,
    // which forces a real run through the resume path.
    let resume_line = format!(
        r#"{{"op":"run","scenario":"table1_config","scale":"smoke","resume_from":"{key}","profile":true}}"#
    );
    let migrated = request(&plain, &resume_line);
    assert!(ok(&migrated), "migrated resume failed: {}", migrated.to_string_compact());
    assert_eq!(migrated.get("cache_hit").and_then(Json::as_bool), Some(false));
    assert_eq!(
        migrated.get("report").map(Json::to_string_compact).as_deref(),
        Some(baseline_report.as_str()),
        "migrated resume diverged from the uninterrupted run"
    );
    assert_eq!(counter(&plain, "jobs_resumed"), 1);

    // Resume on the original server too (its copy is still parked).
    let resumed = request(&ckpt, &resume_line);
    assert!(ok(&resumed), "resume failed: {}", resumed.to_string_compact());
    assert_eq!(
        resumed.get("report").map(Json::to_string_compact).as_deref(),
        Some(baseline_report.as_str()),
        "resumed report diverged from the uninterrupted run"
    );

    // Completion consumed the parked checkpoints on both servers.
    for s in [&plain, &ckpt] {
        let gone = request(s, &format!(r#"{{"op":"checkpoint-fetch","token":"{key}"}}"#));
        assert_eq!(error_code(&gone), Some("unknown-checkpoint"));
    }

    // The new counters are in the exposition and scrapes stay stable.
    let m1 = request(&ckpt, r#"{"op":"metrics"}"#);
    let text = m1.get("exposition").and_then(Json::as_str).expect("exposition");
    assert!(text.contains("capsule_serve_jobs_preempted_total 1\n"), "{text}");
    assert!(text.contains("capsule_serve_jobs_resumed_total 1\n"), "{text}");
    assert!(text.contains("capsule_serve_checkpoint_fetches_total 1\n"), "{text}");
    let m2 = request(&ckpt, r#"{"op":"metrics"}"#);
    assert_eq!(m1.to_string_compact(), m2.to_string_compact());

    plain.shutdown();
    ckpt.shutdown();
}

/// Every checkpoint failure mode is a structured error, never a hang,
/// a panic, or a silently wrong run.
#[test]
fn checkpoint_errors_are_structured() {
    let server = start_with_checkpoints(1, 4, 8, 10_000);
    let key = run_cache_key(SMOKE_RUN);

    // Preempting a job that is not admitted.
    let idle = request(&server, &format!(r#"{{"op":"preempt","cache_key":"{key}"}}"#));
    assert_eq!(error_code(&idle), Some("not-running"));

    // Fetching a checkpoint that was never parked.
    let missing = request(&server, &format!(r#"{{"op":"checkpoint-fetch","token":"{key}"}}"#));
    assert_eq!(error_code(&missing), Some("unknown-checkpoint"));

    // Resuming with a token that is not this request's cache_key.
    let foreign = request(
        &server,
        r#"{"op":"run","scenario":"table1_config","scale":"smoke","resume_from":"0000000000000000"}"#,
    );
    assert_eq!(error_code(&foreign), Some("checkpoint-mismatch"));

    // Resuming with the right token but no parked checkpoint.
    let unparked = request(
        &server,
        &format!(
            r#"{{"op":"run","scenario":"table1_config","scale":"smoke","resume_from":"{key}"}}"#
        ),
    );
    assert_eq!(error_code(&unparked), Some("unknown-checkpoint"));

    // A corrupt blob passes checkpoint-put (the token/canonical pair is
    // consistent) but is rejected with a structured error at resume.
    use capsule_serve::protocol::Request;
    let Request::Run(run) = Request::parse_line(SMOKE_RUN).expect("parse") else { panic!("run") };
    let canonical = Json::from(run.canonical().as_str()).to_string_compact();
    let put = request(
        &server,
        &format!(
            r#"{{"op":"checkpoint-put","token":"{key}","canonical":{canonical},"blob":"deadbeefdeadbeef"}}"#
        ),
    );
    assert!(ok(&put), "put failed: {}", put.to_string_compact());
    let bad = request(
        &server,
        &format!(
            r#"{{"op":"run","scenario":"table1_config","scale":"smoke","resume_from":"{key}"}}"#
        ),
    );
    assert_eq!(error_code(&bad), Some("bad-checkpoint"));
    let detail = bad.get("detail").and_then(Json::as_str).unwrap_or("");
    assert!(detail.contains("magic"), "detail was {detail:?}");
    assert_eq!(counter(&server, "jobs_failed"), 1);

    server.shutdown();
}

#[test]
fn shutdown_request_over_the_wire_stops_the_server() {
    let server = start(2, 4, 4);
    let reply = request(&server, r#"{"op":"shutdown"}"#);
    assert!(ok(&reply));
    wait_for("server to stop", || !server.running());
    assert!(
        TcpStream::connect(server.local_addr()).is_err() || {
            // The listener may accept one last connection while tearing
            // down; a request on it must not hang the test.
            true
        }
    );
    server.join();
}

/// Smoke-scale job that runs for a few seconds in a debug build — an
/// order of magnitude slower than `SMOKE_RUN`, so it reliably lands
/// above a tail-policy p99 warmed on fast samples.
const SLOW_RUN: &str = r#"{"op":"run","scenario":"ablation_policies","scale":"smoke"}"#;

#[test]
fn health_reports_gauges_and_predicted_wait() {
    let server = start(1, 4, 8);

    // Fresh server: every gauge reads zero and the prediction is zero.
    let fresh = request(&server, r#"{"op":"health"}"#);
    assert!(ok(&fresh), "health failed: {}", fresh.to_string_compact());
    assert_eq!(fresh.get("workers").and_then(Json::as_i64), Some(1));
    assert_eq!(fresh.get("queue_capacity").and_then(Json::as_i64), Some(4));
    assert_eq!(fresh.get("jobs_in_flight").and_then(Json::as_i64), Some(0));
    assert_eq!(fresh.get("ewma_queue_wait_us").and_then(Json::as_i64), Some(0));
    assert_eq!(fresh.get("ewma_run_us").and_then(Json::as_i64), Some(0));
    assert_eq!(fresh.get("predicted_wait_us").and_then(Json::as_i64), Some(0));
    assert_eq!(fresh.get("flight_recorded").and_then(Json::as_i64), Some(0));
    assert!(fresh.get("key").is_none(), "no key was sent, none must echo");

    // An optional key is echoed back for fan-out correlation.
    let keyed = request(&server, r#"{"op":"health","key":"abc123"}"#);
    assert!(ok(&keyed));
    assert_eq!(keyed.get("key").and_then(Json::as_str), Some("abc123"));

    // After one run the EWMAs are seeded and the always-on flight ring
    // has seen the whole job lifecycle (enqueue, dequeue, complete).
    let run = request(&server, SMOKE_RUN);
    assert!(ok(&run), "run failed: {}", run.to_string_compact());
    let after = request(&server, r#"{"op":"health"}"#);
    assert!(after.get("ewma_run_us").and_then(Json::as_u64).expect("ewma_run_us") > 0);
    assert!(after.get("flight_recorded").and_then(Json::as_u64).expect("flight_recorded") >= 3);

    server.shutdown();
}

/// Tail-based retention: every run is traced internally under its cache
/// key, but only interesting finishes survive — slower than the rolling
/// p99, failed, or explicitly requested. Fast clean jobs are provably
/// dropped, before and after the policy has history.
#[test]
fn tail_sampling_retains_slow_and_failed_traces_and_drops_fast_ones() {
    let server = start(1, 8, 16);

    // The very first job has no p99 history, so retention falls back to
    // "interesting only" and this clean fast job's tree is dropped.
    let first = request(&server, SMOKE_RUN);
    assert!(ok(&first), "first run failed: {}", first.to_string_compact());
    let first_key = first.get("cache_key").and_then(Json::as_str).expect("cache_key").to_string();
    let gone = request(&server, &format!(r#"{{"op":"trace","trace_id":"{first_key}"}}"#));
    assert_eq!(error_code(&gone), Some("unknown-trace"), "fast first job must not be retained");

    // Warm the policy with more fast samples. Distinct budgets keep the
    // result cache out of the way — cache hits never feed the policy.
    for budget in [500000000001u64, 500000000002, 500000000003, 500000000004] {
        let r = request(
            &server,
            &format!(
                r#"{{"op":"run","scenario":"table1_config","scale":"smoke","budget":{budget}}}"#
            ),
        );
        assert!(ok(&r), "warmup failed: {}", r.to_string_compact());
    }

    // A job an order of magnitude slower than every sample so far lands
    // above the pre-sample p99 and is tail-retained under its cache key.
    let slow = request(&server, SLOW_RUN);
    assert!(ok(&slow), "slow run failed: {}", slow.to_string_compact());
    let slow_key = slow.get("cache_key").and_then(Json::as_str).expect("cache_key").to_string();
    let kept = request(&server, &format!(r#"{{"op":"trace","trace_id":"{slow_key}"}}"#));
    assert!(ok(&kept), "slow job's trace was not tail-retained: {}", kept.to_string_compact());
    let spans = kept.get("trace").and_then(|t| t.get("spans")).and_then(Json::as_array).unwrap();
    let names: Vec<&str> =
        spans.iter().filter_map(|s| s.get("name").and_then(Json::as_str)).collect();
    assert_eq!(names, ["serve.run", "serve.queue", "serve.execute"], "retained tree is complete");

    // With the slow sample now in the histogram, a late fast job is
    // below the p99 again — provably evicted from retention.
    let late = request(
        &server,
        r#"{"op":"run","scenario":"table1_config","scale":"smoke","budget":500000000005}"#,
    );
    assert!(ok(&late), "late run failed: {}", late.to_string_compact());
    let late_key = late.get("cache_key").and_then(Json::as_str).expect("cache_key").to_string();
    let dropped = request(&server, &format!(r#"{{"op":"trace","trace_id":"{late_key}"}}"#));
    assert_eq!(error_code(&dropped), Some("unknown-trace"), "late fast job must be dropped");

    // A failed job is always retained, however fast it failed.
    const FAILING: &str = r#"{"op":"run","scenario":"table1_config","scale":"smoke","budget":10}"#;
    let failed = request(&server, FAILING);
    assert_eq!(error_code(&failed), Some("scenario-failed"));
    let failed_key = run_cache_key(FAILING);
    let kept_fail = request(&server, &format!(r#"{{"op":"trace","trace_id":"{failed_key}"}}"#));
    assert!(ok(&kept_fail), "failed job's trace missing: {}", kept_fail.to_string_compact());
    let fail_spans =
        kept_fail.get("trace").and_then(|t| t.get("spans")).and_then(Json::as_array).unwrap();
    let outcome = fail_spans
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("serve.execute"))
        .and_then(|s| s.get("attrs"))
        .and_then(|a| a.get("outcome"))
        .and_then(Json::as_str);
    assert_eq!(outcome, Some("failed"));

    server.shutdown();
}

#[test]
fn dump_returns_a_versioned_post_mortem_artifact() {
    let server = start(1, 4, 8);

    // One explicitly traced success, one failure (tail-retained).
    let run = request(
        &server,
        r#"{"op":"run","scenario":"table1_config","scale":"smoke","trace_id":"pm-1"}"#,
    );
    assert!(ok(&run), "run failed: {}", run.to_string_compact());
    const FAILING: &str = r#"{"op":"run","scenario":"table1_config","scale":"smoke","budget":10}"#;
    let failed = request(&server, FAILING);
    assert_eq!(error_code(&failed), Some("scenario-failed"));

    let reply = request(&server, r#"{"op":"dump"}"#);
    assert!(ok(&reply), "dump failed: {}", reply.to_string_compact());
    let dump = reply.get("dump").expect("dump object");
    assert_eq!(dump.get("schema").and_then(Json::as_str), Some("capsule-dump/1"));
    assert_eq!(dump.get("source").and_then(Json::as_str), Some("serve"));

    // The flight ring replays both jobs' lifecycles, in order, each
    // event stamped with the job's cache key and a monotone seq.
    let flight = dump.get("flight").expect("flight ring");
    assert_eq!(flight.get("capacity").and_then(Json::as_u64), Some(64));
    let events = flight.get("events").and_then(Json::as_array).expect("events");
    assert_eq!(flight.get("recorded").and_then(Json::as_u64), Some(events.len() as u64));
    assert_eq!(flight.get("overwritten").and_then(Json::as_u64), Some(0));
    let kinds: Vec<&str> =
        events.iter().filter_map(|e| e.get("kind").and_then(Json::as_str)).collect();
    assert_eq!(kinds, ["enqueue", "dequeue", "complete", "enqueue", "dequeue", "complete"]);
    assert_causal(events, "dequeue");
    assert_eq!(events[2].get("outcome").and_then(Json::as_str), Some("completed"));
    assert_eq!(events[5].get("outcome").and_then(Json::as_str), Some("failed"));
    assert_eq!(
        events[0].get("cache_key").and_then(Json::as_str),
        run.get("cache_key").and_then(Json::as_str)
    );
    let seqs: Vec<u64> =
        events.iter().filter_map(|e| e.get("seq").and_then(Json::as_u64)).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seq must be strictly increasing: {seqs:?}");

    // Both retained traces are embedded by id.
    let traces = dump.get("traces").and_then(Json::as_array).expect("traces");
    let ids: Vec<&str> =
        traces.iter().filter_map(|t| t.get("trace_id").and_then(Json::as_str)).collect();
    assert!(ids.contains(&"pm-1"), "explicit trace missing from dump: {ids:?}");
    let failed_key = run_cache_key(FAILING);
    assert!(ids.contains(&failed_key.as_str()), "failed job's trace missing from dump: {ids:?}");

    // Gauges and counters round out the artifact.
    let gauges = dump.get("gauges").expect("gauges");
    assert_eq!(gauges.get("jobs_in_flight").and_then(Json::as_i64), Some(0));
    assert!(gauges.get("ewma_run_us").and_then(Json::as_u64).expect("ewma_run_us") > 0);
    let counters = dump.get("counters").expect("counters");
    assert_eq!(counters.get("jobs_completed").and_then(Json::as_i64), Some(1));
    assert_eq!(counters.get("jobs_failed").and_then(Json::as_i64), Some(1));

    server.shutdown();
}
