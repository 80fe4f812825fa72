//! The fleet coordinator: a [`Service`] on the `capsule-serve`
//! connection shell that speaks both wire protocols upstream and
//! dispatches jobs across N `capsule-serve` backends downstream.
//!
//! Dispatch mirrors the paper's conditional-division policy one level
//! up. A worker in CAPSULE probes the hardware and divides only if a
//! context is free, throttled by the recent death rate; the coordinator
//! probes backends (liveness + pool geometry from `stats`, plus its own
//! in-flight counts), grants a job to a backend with a free worker slot,
//! queues it while none has one, and refuses to route to a backend whose
//! recent dispatch-failure count crossed the sliding-window threshold
//! (see [`crate::backend::FailureWindow`]). Routing is cache-affine:
//! rendezvous hashing over the job's canonical form keeps each backend's
//! LRU result cache hot ([`crate::dispatch`]). Failed dispatches retry
//! with exponential backoff on the next-preferred backend; client
//! cancels broadcast to the backends; `stats` aggregates every backend's
//! counters and latency histograms into one fleet view.
//!
//! Preemption is the drain lever (docs/CHECKPOINT.md): a fleet-level
//! `preempt` parks a checkpointable job on whichever backend runs it,
//! and the dispatcher — which is still waiting on that job's `run`
//! round-trip — sees the structured `preempted` answer, fetches the
//! checkpoint off the backend while it is still reachable, and retries
//! on the next-preferred backend with `resume_from`, so the job
//! continues from its last checkpoint instead of restarting. A fleet
//! preempt therefore *migrates* rather than parks; the raw
//! `checkpoint-fetch`/`checkpoint-put` ops are forwarded for tooling
//! that wants to move parked state by hand.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use capsule_core::output::Json;
use capsule_core::stats::Histogram;
use capsule_core::{FlightKind, TraceRecorder};
use capsule_serve::client::{self, ClientError, ConnectionPool, Proto};
use capsule_serve::protocol::{
    cache_key as protocol_cache_key, error_response, fnv1a64, hex_encode, list_response,
    response_head, Request, RunRequest,
};
use capsule_serve::readings::{self, load, Part, Reading};
use capsule_serve::shell::{
    dump_response, echo_trace_id, lock, metrics_response, push_stats, Handle, Reply, RunTrace,
    Service, Shell,
};

use crate::backend::Backend;
use crate::dispatch::preference_order;

/// Coordinator sizing and policy knobs (`CAPSULE_FLEET_*`).
#[derive(Debug, Clone, Copy)]
pub struct FleetOptions {
    /// Max run jobs admitted concurrently — dispatching or waiting for a
    /// backend slot (`CAPSULE_FLEET_QUEUE`). Beyond it, `queue-full`.
    pub queue: usize,
    /// Dispatch attempts per job, first try included
    /// (`CAPSULE_FLEET_ATTEMPTS`).
    pub attempts: usize,
    /// Base retry backoff in ms, doubling per attempt
    /// (`CAPSULE_FLEET_BACKOFF_MS`).
    pub backoff_ms: u64,
    /// Sliding failure-window length in ms
    /// (`CAPSULE_FLEET_FAIL_WINDOW_MS`).
    pub fail_window_ms: u64,
    /// Failures within the window that throttle a backend; 0 disables
    /// (`CAPSULE_FLEET_FAIL_THRESHOLD`).
    pub fail_threshold: usize,
    /// Health-probe period in ms (`CAPSULE_FLEET_PROBE_MS`).
    pub probe_ms: u64,
    /// TCP connect timeout toward backends in ms
    /// (`CAPSULE_FLEET_CONNECT_TIMEOUT_MS`).
    pub connect_timeout_ms: u64,
    /// Cap on one backend round-trip in ms, 0 for none
    /// (`CAPSULE_FLEET_JOB_TIMEOUT_MS`).
    pub job_timeout_ms: u64,
    /// Max total wait for a free backend slot in ms
    /// (`CAPSULE_FLEET_DISPATCH_WAIT_MS`).
    pub dispatch_wait_ms: u64,
    /// Retained span trees for the `trace` op (`CAPSULE_FLEET_TRACES`);
    /// 0 disables request tracing entirely.
    pub traces: usize,
    /// Flight-recorder ring capacity in events (`CAPSULE_FLEET_FLIGHT`);
    /// 0 disables the always-on recorder.
    pub flight: usize,
}

impl Default for FleetOptions {
    fn default() -> FleetOptions {
        FleetOptions {
            queue: 64,
            attempts: 4,
            backoff_ms: 50,
            fail_window_ms: 5_000,
            fail_threshold: 3,
            probe_ms: 500,
            connect_timeout_ms: 1_000,
            job_timeout_ms: 600_000,
            dispatch_wait_ms: 60_000,
            traces: 64,
            flight: 1024,
        }
    }
}

impl FleetOptions {
    /// Defaults overridden by the `CAPSULE_FLEET_*` environment.
    /// Malformed values warn on stderr and fall back
    /// (see [`capsule_serve::env`]).
    pub fn from_env() -> FleetOptions {
        use capsule_serve::env::{env_u64, env_usize};
        let d = FleetOptions::default();
        FleetOptions {
            queue: env_usize("CAPSULE_FLEET_QUEUE", d.queue).max(1),
            attempts: env_usize("CAPSULE_FLEET_ATTEMPTS", d.attempts).max(1),
            backoff_ms: env_u64("CAPSULE_FLEET_BACKOFF_MS", d.backoff_ms),
            fail_window_ms: env_u64("CAPSULE_FLEET_FAIL_WINDOW_MS", d.fail_window_ms).max(1),
            fail_threshold: env_usize("CAPSULE_FLEET_FAIL_THRESHOLD", d.fail_threshold),
            probe_ms: env_u64("CAPSULE_FLEET_PROBE_MS", d.probe_ms).max(10),
            connect_timeout_ms: env_u64("CAPSULE_FLEET_CONNECT_TIMEOUT_MS", d.connect_timeout_ms)
                .max(1),
            job_timeout_ms: env_u64("CAPSULE_FLEET_JOB_TIMEOUT_MS", d.job_timeout_ms),
            dispatch_wait_ms: env_u64("CAPSULE_FLEET_DISPATCH_WAIT_MS", d.dispatch_wait_ms).max(1),
            traces: env_usize("CAPSULE_FLEET_TRACES", d.traces),
            flight: env_usize("CAPSULE_FLEET_FLIGHT", d.flight),
        }
    }
}

/// Fleet counters. Exact meanings are pinned in docs/FLEET.md; the two
/// invariants that hold on both wire protocols (they share this very
/// code path) are:
///
/// - every **accepted** run reaches exactly one final-outcome counter
///   (`jobs_completed` / `jobs_failed` / `jobs_cancelled`), including
///   dispatch give-ups and shutdown aborts, so when the fleet is
///   quiescent `jobs_accepted == completed + failed + cancelled`;
/// - `jobs_migrated` counts checkpoint migrations and is **orthogonal**
///   to the final-outcome counters: a preempt-then-migrate job that then
///   completes adds one to `jobs_migrated` *and* one to
///   `jobs_completed` — migration describes the journey, not the end.
#[derive(Default)]
struct Counters {
    /// Runs admitted past the fleet queue check.
    jobs_accepted: AtomicU64,
    /// Runs refused at admission (`queue-full`); never admitted, so
    /// these reach no final-outcome counter.
    jobs_rejected: AtomicU64,
    /// Accepted runs answered by a backend with `ok:true`.
    jobs_completed: AtomicU64,
    /// Accepted runs that ended in any error other than `cancelled`:
    /// job-level verdicts passed through, dispatch give-ups, and
    /// shutdown aborts.
    jobs_failed: AtomicU64,
    /// Accepted runs that ended `cancelled` by a client cancel.
    jobs_cancelled: AtomicU64,
    /// Dispatch attempts after the first, whatever their reason
    /// (backend fault, migration resume, bad checkpoint).
    retries: AtomicU64,
    /// Dispatch attempts charged to a backend's failure window.
    backend_failures: AtomicU64,
    cancel_requests: AtomicU64,
    preempt_requests: AtomicU64,
    /// Checkpoints successfully pulled off a preempting backend for
    /// resumption elsewhere. Orthogonal to the final-outcome counters.
    jobs_migrated: AtomicU64,
    checkpoint_fetches: AtomicU64,
    checkpoint_puts: AtomicU64,
    probes_ok: AtomicU64,
    probes_failed: AtomicU64,
}

#[derive(Default)]
struct Latencies {
    /// Admission to backend grant.
    dispatch_wait_us: Histogram,
    /// Backend grant to usable response (the final attempt only).
    job_us: Histogram,
}

struct State {
    backends: Vec<Backend>,
    /// Run jobs admitted and not yet answered.
    pending: usize,
}

struct Shared {
    shell: Shell,
    opts: FleetOptions,
    state: Mutex<State>,
    /// Signalled whenever a slot may have freed (job done, probe news).
    slots: Condvar,
    /// Bumped by every fleet-level `cancel`; a job dispatched under an
    /// older generation treats a backend `cancelled` answer as a backend
    /// fault (retry), a newer one as the client's own cancel (pass it
    /// through).
    cancel_generation: AtomicU64,
    counters: Counters,
    latencies: Mutex<Latencies>,
    /// Keep-alive `capsule-serve/2` connections toward the backends.
    /// Every dispatch and forwarded op checks a connection out of here,
    /// so the steady-state cost per job is one framed round-trip — not
    /// a TCP connect plus a protocol preamble plus the round-trip.
    pool: ConnectionPool,
}

/// A running fleet coordinator.
pub struct Fleet {
    handle: Handle<Shared>,
}

impl Fleet {
    /// Binds `addr` and starts the accept loop and the backend health
    /// prober for `backends` (a list of `HOST:PORT` strings).
    ///
    /// # Errors
    ///
    /// Socket errors from binding, or `InvalidInput` when `backends` is
    /// empty.
    pub fn start(addr: &str, backends: &[String], opts: FleetOptions) -> std::io::Result<Fleet> {
        if backends.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a fleet needs at least one backend",
            ));
        }
        let (shell, listener) = Shell::bind(addr, opts.flight, opts.traces)?;
        let window = Duration::from_millis(opts.fail_window_ms);
        let backends: Vec<Backend> = backends
            .iter()
            .enumerate()
            .map(|(i, a)| Backend::new(a.clone(), i, window, opts.fail_threshold))
            .collect();
        let shared = Arc::new(Shared {
            shell,
            opts,
            state: Mutex::new(State { backends, pending: 0 }),
            slots: Condvar::new(),
            cancel_generation: AtomicU64::new(0),
            counters: Counters::default(),
            latencies: Mutex::new(Latencies::default()),
            pool: ConnectionPool::new(Proto::V2, Duration::from_millis(opts.connect_timeout_ms)),
        });
        let probe = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || probe_loop(&shared))
        };
        Ok(Fleet { handle: Handle::start(shared, listener, vec![probe]) })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.handle.local_addr()
    }

    /// False once shutdown has started.
    pub fn running(&self) -> bool {
        self.handle.running()
    }

    /// Starts shutdown exactly as the `shutdown` request does. Backends
    /// are left running — they are managed independently.
    pub fn request_shutdown(&self) {
        self.handle.request_shutdown();
    }

    /// Waits for the accept and probe threads to exit.
    pub fn join(self) {
        self.handle.join();
    }

    /// [`Fleet::request_shutdown`] followed by [`Fleet::join`].
    pub fn shutdown(self) {
        self.request_shutdown();
        self.join();
    }
}

/// Routes one parsed request; the shell funnels both protocol front
/// ends here.
impl Service for Shared {
    const SOURCE: &'static str = "fleet";
    const DUMP_ON_PANIC: &'static str = "CAPSULE_FLEET_DUMP_ON_PANIC";

    fn shell(&self) -> &Shell {
        &self.shell
    }

    fn answer(shared: &Arc<Shared>, request: Request, reply: Reply) -> Option<String> {
        let response = match request {
            // Dispatch blocks on backend slots and round-trips, by
            // design. On a pipelined connection each run gets its own
            // dispatcher thread and replies through the connection's
            // writer when it resolves, so one fleet connection carries
            // many concurrent jobs, completing out of submission order.
            Request::Run(run) if matches!(reply, Reply::V2(..)) => {
                let shared = Arc::clone(shared);
                std::thread::spawn(move || {
                    reply.send(handle_run(&shared, &run).to_string_compact());
                });
                return None;
            }
            Request::Run(run) => handle_run(shared, &run),
            Request::Cancel => handle_cancel(shared),
            Request::Stats => stats_response(shared),
            Request::List => list_response(),
            Request::Metrics => metrics_response(&**shared, |m, prefix| {
                let prefix = format!("{prefix}_backend");
                for b in &lock(&shared.state).backends {
                    let labels = [("backend", b.name.as_str())];
                    readings::scrape(m, &prefix, &labels, BACKEND_READINGS, b);
                }
            }),
            // Each reachable backend's own tree for the id is grafted
            // under the dispatch span that forwarded the job there: one
            // query reconstructs the whole distributed job.
            Request::Trace { trace_id } => shared.shell.trace_response(&trace_id, |stored| {
                graft_backend_spans(shared, &trace_id, &stored)
            }),
            Request::Preempt { cache_key } => handle_preempt(shared, &cache_key),
            Request::Health { key } => health_response(shared, key.as_deref()),
            Request::Dump => dump_response(&**shared),
            Request::CheckpointFetch { token } => handle_checkpoint_fetch(shared, &token),
            Request::CheckpointPut { token, canonical, blob } => {
                handle_checkpoint_put(shared, &token, &canonical, &blob)
            }
            Request::Shutdown => response_head("shutdown", true),
        };
        Some(response.to_string_compact())
    }

    fn close(&self) {
        // Wake slot-waiters so they answer `shutting-down`.
        self.slots.notify_all();
    }

    const READINGS: &'static [Reading<Shared>] = &[
        Reading::gauge("backends", |s| lock(&s.state).backends.len() as u64),
        Reading::gauge("backends_alive", |s| {
            lock(&s.state).backends.iter().filter(|b| b.alive).count() as u64
        }),
        Reading::gauge("queue_capacity", |s| s.opts.queue as u64),
        Reading::gauge("pending", |s| lock(&s.state).pending as u64),
        Reading::gauge("jobs_in_flight", |s| {
            lock(&s.state).backends.iter().map(|b| b.in_flight as u64).sum()
        }),
        Reading::counter("jobs_accepted", |s| load(&s.counters.jobs_accepted)),
        Reading::counter("jobs_rejected", |s| load(&s.counters.jobs_rejected)),
        Reading::counter("jobs_completed", |s| load(&s.counters.jobs_completed)),
        Reading::counter("jobs_failed", |s| load(&s.counters.jobs_failed)),
        Reading::counter("jobs_cancelled", |s| load(&s.counters.jobs_cancelled)),
        Reading::counter("retries", |s| load(&s.counters.retries)),
        Reading::counter("backend_failures", |s| load(&s.counters.backend_failures)),
        Reading::counter("cancel_requests", |s| load(&s.counters.cancel_requests)),
        Reading::counter("preempt_requests", |s| load(&s.counters.preempt_requests)),
        Reading::counter("jobs_migrated", |s| load(&s.counters.jobs_migrated)),
        Reading::counter("checkpoint_fetches", |s| load(&s.counters.checkpoint_fetches)),
        Reading::counter("checkpoint_puts", |s| load(&s.counters.checkpoint_puts)),
        // The prober bumps these on its own clock.
        Reading::counter("probes_ok", |s: &Shared| load(&s.counters.probes_ok)).unscraped(),
        Reading::counter("probes_failed", |s: &Shared| load(&s.counters.probes_failed)).unscraped(),
        // A scrape never touches the pool; dispatch and forwarded ops do.
        Reading::counter("pool_checkouts", |s| s.pool.counters().checkouts),
        Reading::counter("pool_dials", |s| s.pool.counters().dials),
        Reading::counter("pool_redials", |s| s.pool.counters().redials),
        Reading::counter("pool_reuses", |s| s.pool.counters().reuses),
        Reading::histogram("dispatch_wait_us", |s| lock(&s.latencies).dispatch_wait_us.clone()),
        Reading::histogram("job_us", |s| lock(&s.latencies).job_us.clone()),
    ];

    /// A dump carries every backend's row, as `stats` shows it.
    fn extend_dump(&self, dump: &mut Json) {
        let rows = lock(&self.state).backends.iter().map(backend_row).collect();
        dump.push("backends", Json::Array(rows));
    }
}

/// Alive backends as `(name, addr)` in rendezvous order for `key`, so
/// checkpoint ops land on the same backend a resume would route to.
fn alive_in_preference_order(shared: &Shared, key: u64) -> Vec<(String, String)> {
    let st = lock(&shared.state);
    let addrs: Vec<String> = st.backends.iter().map(|b| b.addr.clone()).collect();
    preference_order(&addrs, key)
        .into_iter()
        .filter(|&i| st.backends[i].alive)
        .map(|i| (st.backends[i].name.clone(), st.backends[i].addr.clone()))
        .collect()
}

/// The 16-hex checkpoint token is the job's FNV cache key rendered in
/// hex; parse it back for rendezvous routing (the parser already
/// guaranteed the format, so this cannot fail in practice).
fn token_key(token: &str) -> u64 {
    u64::from_str_radix(token, 16).unwrap_or(0)
}

/// The fleet `preempt` op: broadcast in preference order until a backend
/// acknowledges owning the job. The dispatcher thread still waiting on
/// that job's run then migrates it (see [`dispatch_with_retries`]).
fn handle_preempt(shared: &Shared, cache_key: &str) -> Json {
    shared.counters.preempt_requests.fetch_add(1, Ordering::Relaxed);
    let line = op_line("preempt", &[("cache_key", cache_key)]);
    for (name, addr) in alive_in_preference_order(shared, token_key(cache_key)) {
        if let Some(mut json) = forward_op(shared, &addr, &line) {
            json.push("backend", name.as_str());
            return json;
        }
    }
    let mut r = error_response(
        "preempt",
        "not-running",
        Some("no backend reports an admitted checkpointable job with this cache_key"),
    );
    r.push("cache_key", cache_key);
    r
}

/// The fleet `checkpoint-fetch` op: first backend (preference order)
/// holding the token answers; the response passes through with backend
/// attribution added.
fn handle_checkpoint_fetch(shared: &Shared, token: &str) -> Json {
    let line = op_line("checkpoint-fetch", &[("token", token)]);
    for (name, addr) in alive_in_preference_order(shared, token_key(token)) {
        if let Some(mut json) = forward_op(shared, &addr, &line) {
            shared.counters.checkpoint_fetches.fetch_add(1, Ordering::Relaxed);
            json.push("backend", name.as_str());
            return json;
        }
    }
    let mut r = error_response(
        "checkpoint-fetch",
        "unknown-checkpoint",
        Some("no live backend holds a checkpoint for this token"),
    );
    r.push("token", token);
    r
}

/// The fleet `checkpoint-put` op: validates the token against the
/// canonical form (same rule a backend enforces) and stores the blob on
/// the most-preferred live backend, so a later resume routes straight to
/// the checkpoint it needs.
fn handle_checkpoint_put(shared: &Shared, token: &str, canonical: &str, blob: &[u8]) -> Json {
    if protocol_cache_key(canonical) != token {
        return error_response(
            "checkpoint-put",
            "checkpoint-mismatch",
            Some("token is not the cache_key of the supplied canonical request"),
        );
    }
    let blob = hex_encode(blob);
    let line =
        op_line("checkpoint-put", &[("token", token), ("canonical", canonical), ("blob", &blob)]);
    for (name, addr) in alive_in_preference_order(shared, token_key(token)) {
        if let Some(mut json) = forward_op(shared, &addr, &line) {
            shared.counters.checkpoint_puts.fetch_add(1, Ordering::Relaxed);
            json.push("backend", name.as_str());
            return json;
        }
    }
    error_response("checkpoint-put", "backend-unavailable", Some("no live backend took the blob"))
}

/// How one backend round-trip ended.
enum Outcome {
    /// A usable answer for the client (success or a job-level failure).
    Respond(Json),
    /// A backend fault: try the next-preferred backend.
    Retry { error: String, mark_dead: bool },
    /// The backend parked the job at a checkpoint boundary (someone
    /// preempted it). The dispatcher migrates the checkpoint and resumes
    /// on the next-preferred backend instead of passing the park on.
    Preempted { json: Json },
    /// The backend rejected the migrated checkpoint blob: the fault is
    /// the coordinator's artifact, not the backend, so the dispatcher
    /// drops the blob and retries from scratch *without* charging the
    /// backend's failure window (a healthy backend must not be
    /// throttled for a corrupt blob it was handed).
    BadCheckpoint,
}

/// A checkpoint pulled off a preempting backend, ready to re-post to the
/// migration target ahead of the resumed dispatch.
struct Migration {
    token: String,
    canonical: String,
    blob_hex: String,
}

/// Fetches a parked job's checkpoint from the backend that parked it.
/// `None` (backend already gone, store evicted, malformed answer) means
/// the retry simply restarts the job from scratch — correct, just slower.
fn fetch_checkpoint(shared: &Shared, addr: &str, token: &str) -> Option<Migration> {
    if token.is_empty() {
        return None;
    }
    let json = forward_op(shared, addr, &op_line("checkpoint-fetch", &[("token", token)]))?;
    let migration = Migration {
        token: token.to_string(),
        canonical: json.get("canonical").and_then(Json::as_str)?.to_string(),
        blob_hex: json.get("blob").and_then(Json::as_str)?.to_string(),
    };
    shared.counters.checkpoint_fetches.fetch_add(1, Ordering::Relaxed);
    Some(migration)
}

/// Re-posts a fetched checkpoint to the migration target. On success the
/// resumed run finds its blob locally; on failure the dispatch proceeds
/// without `resume_from` and restarts from scratch.
fn push_checkpoint(shared: &Shared, addr: &str, m: &Migration) -> bool {
    let line = op_line(
        "checkpoint-put",
        &[("token", &m.token), ("canonical", &m.canonical), ("blob", &m.blob_hex)],
    );
    let ok = forward_op(shared, addr, &line).is_some();
    if ok {
        shared.counters.checkpoint_puts.fetch_add(1, Ordering::Relaxed);
    }
    ok
}

/// How a slot-acquisition attempt ended.
enum Acquire {
    Granted(usize),
    TimedOut,
    ShuttingDown,
}

fn handle_run(shared: &Shared, run: &RunRequest) -> Json {
    // The canonical form is both the routing key (cache affinity) and
    // the base of the line forwarded downstream, so fleet and backend
    // cache keys agree by construction. Observability fields ride on the
    // forwarded line but never enter the canonical form or the key.
    let canonical = run.canonical();
    let key = fnv1a64(canonical.as_bytes());
    let forward = forward_line(run, &canonical);
    // Every run is traced, anonymously under the cache-key hex (which
    // the `trace` op accepts) unless the client named it, so a job that
    // turns out slow or troubled is reconstructable after the fact.
    let mut trace = RunTrace::start(run, key, "fleet.run", TraceRecorder::new(64, 256));
    let mut backends = Vec::new();

    {
        let mut st = lock(&shared.state);
        if !shared.shell.running() {
            shared.shell.flight.record(FlightKind::Deny, Some(key), None, "shutting-down");
            return error_response("run", "shutting-down", None);
        }
        if st.pending >= shared.opts.queue {
            shared.counters.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            drop(st);
            shared.shell.flight.record(FlightKind::Deny, Some(key), None, "queue-full");
            trace.rec.event(trace.root, "queue-full", &[]);
            retain_trace(shared, trace, None, &backends);
            let mut r = error_response("run", "queue-full", None);
            r.push("queue_capacity", shared.opts.queue);
            echo_trace_id(&mut r, run);
            return r;
        }
        st.pending += 1;
    }
    shared.counters.jobs_accepted.fetch_add(1, Ordering::Relaxed);
    // Causally ordered by construction: this thread records the
    // enqueue and is the same thread that later dispatches the job and
    // records its `dispatch` and `complete`.
    shared.shell.flight.record(FlightKind::Enqueue, Some(key), None, "");

    let admitted = Instant::now();
    let mut response = dispatch_with_retries(shared, &forward, key, &mut trace, &mut backends);
    // Anything but a clean first-attempt success is worth keeping:
    // failures, retries and migrations all leave ok:false or attempts > 1.
    let ok = response.get("ok").and_then(Json::as_bool) == Some(true);
    let attempts = response.get("attempts").and_then(Json::as_u64).unwrap_or(1);
    let total_us = admitted.elapsed().as_micros() as u64;
    retain_trace(shared, trace, Some((total_us, !ok || attempts > 1)), &backends);
    // Successful passthroughs already echo the id (the backend does it);
    // fleet-generated errors must echo it themselves.
    if response.get("trace_id").is_none() {
        echo_trace_id(&mut response, run);
    }

    lock(&shared.state).pending -= 1;
    response
}

/// Offers a run's fleet trace for retention with the `(name, addr,
/// dispatch span)` of every forwarded attempt appended, so the `trace`
/// op can graft each backend's own tree under its dispatch span.
fn retain_trace(
    shared: &Shared,
    trace: RunTrace,
    sample: Option<(u64, bool)>,
    backends: &[(String, String, u32)],
) {
    shared.shell.retain(trace, sample, |tree| {
        let mut list = Vec::with_capacity(backends.len());
        for (name, addr, span) in backends {
            let mut b = Json::object();
            b.push("name", name.as_str()).push("addr", addr.as_str()).push("span", *span);
            list.push(b);
        }
        tree.push("backends", Json::Array(list));
    });
}

/// The line actually forwarded to a backend: the canonical form plus the
/// observability fields (`trace_id`, `profile`), which are observation-
/// only and therefore excluded from the canonical form itself.
fn forward_line(run: &RunRequest, canonical: &str) -> String {
    if run.trace_id.is_none() && !run.profile {
        return canonical.to_string();
    }
    let mut line = Json::parse(canonical).expect("canonical form is valid json");
    if let Some(id) = &run.trace_id {
        line.push("trace_id", id.as_str());
    }
    if run.profile {
        line.push("profile", true);
    }
    line.to_string_compact()
}

fn dispatch_with_retries(
    shared: &Shared,
    forward: &str,
    key: u64,
    trace: &mut RunTrace,
    backends: &mut Vec<(String, String, u32)>,
) -> Json {
    let flight = &shared.shell.flight;
    let generation = shared.cancel_generation.load(Ordering::SeqCst);
    let admitted = Instant::now();
    let deadline = admitted + Duration::from_millis(shared.opts.dispatch_wait_ms);
    let mut attempted: Vec<usize> = Vec::new();
    let mut last_error = String::from("no live backend");
    let mut migration: Option<Migration> = None;

    for attempt in 0..shared.opts.attempts.max(1) {
        if attempt > 0 {
            shared.counters.retries.fetch_add(1, Ordering::Relaxed);
            let shift = (attempt - 1).min(6) as u32;
            let backoff = shared.opts.backoff_ms.saturating_mul(1 << shift).min(2_000);
            trace.rec.event(trace.root, "backoff", &[("ms", &backoff.to_string())]);
            std::thread::sleep(Duration::from_millis(backoff));
        }
        let idx = match acquire_backend(shared, key, &mut attempted, deadline) {
            Acquire::Granted(i) => i,
            Acquire::ShuttingDown => {
                // The job was already accepted, so it must still reach a
                // final-outcome counter (`jobs_accepted == completed +
                // failed + cancelled` when quiescent); a shutdown abort
                // is a fleet-side failure.
                shared.counters.jobs_failed.fetch_add(1, Ordering::Relaxed);
                flight.record(FlightKind::Complete, Some(key), None, "shutting-down");
                return error_response("run", "shutting-down", None);
            }
            Acquire::TimedOut => break,
        };
        let (addr, name) = {
            let st = lock(&shared.state);
            (st.backends[idx].addr.clone(), st.backends[idx].name.clone())
        };
        let waited_us = admitted.elapsed().as_micros() as u64;
        lock(&shared.latencies).dispatch_wait_us.record(waited_us);
        flight.record(FlightKind::Dispatch, Some(key), Some(idx as u32), "");

        // One dispatch span per attempt; the backend's own span tree is
        // grafted under it later by the `trace` op.
        let dspan = trace.rec.span("fleet.dispatch", Some(trace.root));
        trace.rec.attr(dspan, "backend", &name);
        trace.rec.attr(dspan, "addr", &addr);
        trace.rec.attr(dspan, "attempt", &(attempt + 1).to_string());
        backends.push((name.clone(), addr.clone(), dspan.index().map_or(0, |i| i as u32)));

        // A migrated job carries its checkpoint to the new backend and
        // resumes from it; if the blob cannot be re-posted the dispatch
        // falls back to a from-scratch run (same bytes, more cycles).
        let forward_line = match &migration {
            Some(m) if push_checkpoint(shared, &addr, m) => {
                flight.record(FlightKind::Resume, Some(key), Some(idx as u32), "");
                trace.rec.attr(dspan, "resume_from", &m.token);
                let mut line = Json::parse(forward).expect("forward line is valid json");
                line.push("resume_from", m.token.as_str());
                line.to_string_compact()
            }
            _ => forward.to_string(),
        };

        let started = Instant::now();
        match roundtrip(shared, &addr, &forward_line, generation) {
            Outcome::Respond(mut json) => {
                release(shared, idx, true, false);
                let job_us = started.elapsed().as_micros() as u64;
                lock(&shared.latencies).job_us.record(job_us);
                lock(&shared.state).backends[idx].observe_job(job_us);
                count_final(shared, &json);
                let final_kind = match json.get("error").and_then(Json::as_str) {
                    None => "completed",
                    Some("cancelled") => "cancelled",
                    Some(_) => "failed",
                };
                flight.record(FlightKind::Complete, Some(key), Some(idx as u32), final_kind);
                let outcome = match json.get("error").and_then(Json::as_str) {
                    None => "completed",
                    Some(e) => e,
                };
                trace.rec.attr(dspan, "outcome", outcome);
                trace.rec.end(dspan);
                json.push("backend", name.as_str())
                    .push("backend_addr", addr.as_str())
                    .push("attempts", attempt + 1)
                    .push("dispatch_wait_us", waited_us);
                return json;
            }
            Outcome::Retry { error, mark_dead } => {
                release(shared, idx, false, mark_dead);
                flight.record(FlightKind::Retry, Some(key), Some(idx as u32), "backend-fault");
                if mark_dead {
                    flight.record(FlightKind::BackendDown, None, Some(idx as u32), "dispatch");
                }
                trace.rec.attr(dspan, "outcome", "retry");
                trace.rec.attr(dspan, "error", &error);
                trace.rec.end(dspan);
                last_error = format!("{name} ({addr}): {error}");
                attempted.push(idx);
            }
            Outcome::BadCheckpoint => {
                // A well-formed answer from a healthy backend: release
                // the slot as a success so the failure window stays
                // untouched, drop the bad blob, restart from scratch.
                release(shared, idx, true, false);
                flight.record(FlightKind::Retry, Some(key), Some(idx as u32), "bad-checkpoint");
                trace.rec.attr(dspan, "outcome", "bad-checkpoint");
                trace.rec.end(dspan);
                migration = None;
                last_error =
                    format!("{name} ({addr}): rejected the migrated checkpoint; restarting");
                attempted.push(idx);
            }
            Outcome::Preempted { json } => {
                // A park is a deliberate, well-formed answer — not a
                // backend fault — so the slot releases as a success and
                // the failure window stays untouched.
                release(shared, idx, true, false);
                flight.record(FlightKind::Preempt, Some(key), Some(idx as u32), "migrating");
                trace.rec.attr(dspan, "outcome", "preempted");
                trace.rec.end(dspan);
                let token =
                    json.get("cache_key").and_then(Json::as_str).unwrap_or_default().to_string();
                // Pull the checkpoint while the backend is reachable —
                // it may be killed before the resumed leg dispatches.
                if let Some(m) = fetch_checkpoint(shared, &addr, &token) {
                    shared.counters.jobs_migrated.fetch_add(1, Ordering::Relaxed);
                    trace.rec.event(trace.root, "migrated", &[("token", &m.token)]);
                    migration = Some(m);
                }
                last_error = format!("{name} ({addr}): job preempted, migrating");
                attempted.push(idx);
            }
        }
    }

    shared.counters.jobs_failed.fetch_add(1, Ordering::Relaxed);
    flight.record(FlightKind::Complete, Some(key), None, "gave-up");
    let detail = format!(
        "dispatch gave up after {} attempt(s); last: {last_error}",
        shared.opts.attempts.max(1)
    );
    trace.rec.event(trace.root, "gave-up", &[("detail", &detail)]);
    error_response("run", "backend-unavailable", Some(&detail))
}

/// Bumps the final-outcome counter matching a passthrough response.
fn count_final(shared: &Shared, json: &Json) {
    if json.get("ok").and_then(Json::as_bool) == Some(true) {
        shared.counters.jobs_completed.fetch_add(1, Ordering::Relaxed);
    } else if json.get("error").and_then(Json::as_str) == Some("cancelled") {
        shared.counters.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
    } else {
        shared.counters.jobs_failed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Waits (bounded by `deadline`) for a backend with a free worker slot,
/// preferring the rendezvous order for `key` and skipping backends that
/// are dead, throttled, or already failed this job (`attempted`). When
/// every live backend has failed the job once, `attempted` is cleared so
/// later attempts may re-try them after backoff.
fn acquire_backend(
    shared: &Shared,
    key: u64,
    attempted: &mut Vec<usize>,
    deadline: Instant,
) -> Acquire {
    let mut st = lock(&shared.state);
    loop {
        if !shared.shell.running() {
            return Acquire::ShuttingDown;
        }
        let now = Instant::now();
        let addrs: Vec<String> = st.backends.iter().map(|b| b.addr.clone()).collect();
        let order = preference_order(&addrs, key);

        let usable = |b: &Backend| b.alive && !b.window.throttled(now);
        let mut candidates = 0usize;
        let mut free = None;
        for &i in &order {
            if attempted.contains(&i) || !usable(&st.backends[i]) {
                continue;
            }
            candidates += 1;
            if free.is_none() && st.backends[i].has_free_slot() {
                free = Some(i);
            }
        }
        if candidates == 0 && !attempted.is_empty() {
            // Every live backend already failed this job: forgive and
            // let the remaining attempts re-try the preferred ones.
            attempted.clear();
            continue;
        }
        if let Some(i) = free {
            st.backends[i].in_flight += 1;
            st.backends[i].dispatched += 1;
            return Acquire::Granted(i);
        }
        if now >= deadline {
            return Acquire::TimedOut;
        }
        // Either all candidates are busy or none exists yet; wait for a
        // completion/probe signal (time-capped: throttle expiry and the
        // deadline are clock-driven and never signalled).
        let (guard, _) = shared
            .slots
            .wait_timeout(st, Duration::from_millis(25))
            .unwrap_or_else(PoisonError::into_inner);
        st = guard;
    }
}

/// Returns the backend's slot and records the attempt outcome.
fn release(shared: &Shared, idx: usize, success: bool, mark_dead: bool) {
    let mut st = lock(&shared.state);
    let b = &mut st.backends[idx];
    b.in_flight = b.in_flight.saturating_sub(1);
    if success {
        b.completed += 1;
    } else {
        b.failures += 1;
        b.window.record(Instant::now());
        if mark_dead {
            b.alive = false;
        }
        shared.counters.backend_failures.fetch_add(1, Ordering::Relaxed);
    }
    shared.slots.notify_all();
}

/// One dispatch: forward the canonical run line to `addr` and classify
/// the result. Transport faults and load-shedding answers are backend
/// faults ([`Outcome::Retry`]); job-level answers pass through.
fn roundtrip(shared: &Shared, addr: &str, canonical: &str, generation: u64) -> Outcome {
    let read_timeout =
        (shared.opts.job_timeout_ms > 0).then(|| Duration::from_millis(shared.opts.job_timeout_ms));
    // The pool reuses a keep-alive v2 connection when one is idle and
    // transparently redials once when a reused connection turns out to
    // be stale, so errors surfacing here are real backend faults.
    let json = match shared.pool.request_timeout(addr, canonical, read_timeout) {
        Ok(j) => j,
        // Connection refused, or the write path is gone: the process is
        // unreachable — stop routing there until a probe revives it.
        Err(e @ (ClientError::Connect(_) | ClientError::Send(_))) => {
            return Outcome::Retry { error: e.to_string(), mark_dead: true }
        }
        Err(e) => return Outcome::Retry { error: e.to_string(), mark_dead: false },
    };
    if json.get("ok").and_then(Json::as_bool) == Some(true) {
        return Outcome::Respond(json);
    }
    match json.get("error").and_then(Json::as_str) {
        // Job-level verdicts: deterministic for this request, so another
        // backend would answer the same. Pass through.
        Some("scenario-failed") | Some("bad-request") => Outcome::Respond(json),
        // The backend parked the job at a checkpoint boundary: migrate
        // it instead of surfacing the park or treating it as a fault.
        Some("preempted") => Outcome::Preempted { json },
        // The blob this dispatcher migrated in was rejected: retry from
        // scratch without blaming (or throttling) the backend.
        Some("bad-checkpoint") => Outcome::BadCheckpoint,
        // `cancelled` is the client's own doing only if a fleet cancel
        // arrived after this job was dispatched; otherwise the backend
        // died mid-job (shutdown cancels its in-flight runs) and the job
        // deserves another backend.
        Some("cancelled") => {
            if shared.cancel_generation.load(Ordering::SeqCst) != generation {
                Outcome::Respond(json)
            } else {
                Outcome::Retry {
                    error: "backend cancelled the job unprompted".to_string(),
                    mark_dead: false,
                }
            }
        }
        // queue-full / shutting-down / internal-error / anything new:
        // load or fault local to that backend.
        Some(other) => {
            Outcome::Retry { error: format!("backend answered {other}"), mark_dead: false }
        }
        None => {
            Outcome::Retry { error: "malformed backend response".to_string(), mark_dead: false }
        }
    }
}

fn handle_cancel(shared: &Shared) -> Json {
    shared.counters.cancel_requests.fetch_add(1, Ordering::Relaxed);
    // Bump the generation first: in-flight jobs that now come back
    // `cancelled` must classify it as the client's cancel, not a fault.
    shared.cancel_generation.fetch_add(1, Ordering::SeqCst);
    let targets: Vec<String> =
        lock(&shared.state).backends.iter().filter(|b| b.alive).map(|b| b.addr.clone()).collect();
    let mut cancelled = 0usize;
    for addr in &targets {
        if forward_op(shared, addr, r#"{"op":"cancel"}"#).is_some() {
            cancelled += 1;
        }
    }
    let mut r = response_head("cancel", true);
    r.push("backends_cancelled", cancelled);
    r
}

/// A compact request line for an op forwarded to a backend.
fn op_line(op: &str, fields: &[(&str, &str)]) -> String {
    let mut q = Json::object();
    q.push("op", op);
    for (k, v) in fields {
        q.push(k, *v);
    }
    q.to_string_compact()
}

/// One short-deadline request to a backend over a pooled keep-alive
/// connection; `None` on transport fault or an `ok:false` answer.
fn forward_op(shared: &Shared, addr: &str, line: &str) -> Option<Json> {
    let json = shared.pool.request_timeout(addr, line, Some(Duration::from_secs(5))).ok()?;
    (json.get("ok").and_then(Json::as_bool) == Some(true)).then_some(json)
}

/// The per-backend readings, one row of `stats`, `health`, a dump and
/// `metrics` (as `capsule_fleet_backend_<key>{backend="<name>"}`) per
/// backend.
const BACKEND_READINGS: &[Reading<Backend>] = &[
    Reading::flag("alive", |b| b.alive),
    // Probe-learned, and the window count slides with the clock.
    Reading::gauge("workers", |b: &Backend| b.workers as u64).unscraped(),
    Reading::gauge("in_flight", |b| b.in_flight as u64),
    Reading::flag("throttled", |b| b.window.throttled(Instant::now())),
    Reading::gauge("failures_in_window", |b: &Backend| b.window.count(Instant::now()) as u64)
        .unscraped(),
    Reading::total("dispatched", |b| b.dispatched),
    Reading::total("completed", |b| b.completed),
    Reading::total("failures", |b| b.failures),
    Reading::gauge("ewma_job_us", |b| b.ewma_job_us),
    Reading::gauge("predicted_wait_us", Backend::predicted_wait_us),
];

/// A backend's name, address and readings.
fn backend_row(b: &Backend) -> Json {
    let mut j = Json::object();
    j.push("name", b.name.as_str()).push("addr", b.addr.as_str());
    readings::render(&mut j, Part::Gauges, BACKEND_READINGS, b);
    j
}

fn stats_response(shared: &Shared) -> Json {
    let rows: Vec<(Json, bool, String)> = lock(&shared.state)
        .backends
        .iter()
        .map(|b| (backend_row(b), b.alive, b.addr.clone()))
        .collect();

    // Live per-backend stats are fetched without holding the state lock.
    let mut aggregate: Vec<(String, u64)> = Vec::new();
    let mut agg_queue_wait = Histogram::new();
    let mut agg_run = Histogram::new();
    let mut reporting = 0usize;
    let mut backends_json = Vec::new();
    for (mut row, alive, addr) in rows {
        let remote = if alive { forward_op(shared, &addr, r#"{"op":"stats"}"#) } else { None };
        if let Some(stats) = &remote {
            reporting += 1;
            if let Some(counters) = stats.get("counters").and_then(Json::as_object) {
                for (k, v) in counters {
                    if let Some(n) = v.as_u64() {
                        match aggregate.iter_mut().find(|(name, _)| name == k) {
                            Some((_, total)) => *total += n,
                            None => aggregate.push((k.clone(), n)),
                        }
                    }
                }
            }
            for (field, agg) in [("queue_wait_us", &mut agg_queue_wait), ("run_us", &mut agg_run)] {
                if let Some(h) = stats.get(field).and_then(Histogram::from_json) {
                    agg.merge(&h);
                }
            }
        }
        row.push("stats", remote.unwrap_or(Json::Null));
        backends_json.push(row);
    }

    // Read after the forwards above, so the pool counters include them.
    let mut fleet = Json::object();
    push_stats(shared, &mut fleet);

    let mut agg = Json::object();
    let mut agg_counters = Json::object();
    for (k, v) in &aggregate {
        agg_counters.push(k, *v);
    }
    agg.push("backends_reporting", reporting)
        .push("counters", agg_counters)
        .push("queue_wait_us", agg_queue_wait.to_json())
        .push("run_us", agg_run.to_json());

    let mut r = response_head("stats", true);
    r.push("fleet", fleet).push("aggregate", agg).push("backends", Json::Array(backends_json));
    r
}

/// Interprets the optional `health` affinity key: a 16-hex cache key
/// parses to its u64 (the exact value run routing uses), anything else
/// is FNV-hashed so arbitrary labels still rank deterministically.
fn health_key(key: &str) -> u64 {
    if key.len() == 16 && key.bytes().all(|b| b.is_ascii_hexdigit()) {
        u64::from_str_radix(key, 16).unwrap_or_else(|_| fnv1a64(key.as_bytes()))
    } else {
        fnv1a64(key.as_bytes())
    }
}

/// The fleet `health` op: backends ranked best-first for a new job —
/// routable ones (alive, unthrottled) before throttled before dead,
/// lower deterministic `predicted_wait_us` first, ties broken by the
/// rendezvous preference for the optional `key` (configuration order
/// without one). Rank 0 is where admission control would send the next
/// job; the gauges behind the ranking ride along so a `capsule-top`
/// snapshot or a reject-early policy can show its work.
fn health_response(shared: &Shared, key: Option<&str>) -> Json {
    let st = lock(&shared.state);
    let mut pref: Vec<usize> = (0..st.backends.len()).collect();
    if let Some(k) = key.map(health_key) {
        let addrs: Vec<String> = st.backends.iter().map(|b| b.addr.clone()).collect();
        for (p, i) in preference_order(&addrs, k).into_iter().enumerate() {
            pref[i] = p;
        }
    }
    let now = Instant::now();
    let mut order: Vec<usize> = (0..st.backends.len()).collect();
    order.sort_by_key(|&i| {
        let b = &st.backends[i];
        (!b.alive, b.window.throttled(now), b.predicted_wait_us(), pref[i], &b.name)
    });
    let mut list = Vec::with_capacity(order.len());
    for (rank, &i) in order.iter().enumerate() {
        let mut row = backend_row(&st.backends[i]);
        row.push("rank", rank);
        list.push(row);
    }
    let mut resp = response_head("health", true);
    if let Some(k) = key {
        resp.push("key", k);
    }
    resp.push("backends_alive", st.backends.iter().filter(|b| b.alive).count())
        .push("backends", Json::Array(list));
    resp
}

/// Rewrites one backend span for grafting: ids shifted by `offset`, the
/// backend-local root reparented under the fleet dispatch span, and a
/// `backend` attribute stamped on it.
fn graft_span(span: &Json, offset: u64, graft_parent: u64, backend: &str) -> Json {
    let mut out = Json::object();
    let mut is_root = false;
    for (k, v) in span.as_object().unwrap_or(&[]) {
        match k.as_str() {
            "id" => {
                out.push("id", v.as_u64().unwrap_or(0) + offset);
            }
            "parent" => match v.as_u64() {
                Some(p) => {
                    out.push("parent", p + offset);
                }
                None => {
                    is_root = true;
                    out.push("parent", graft_parent);
                }
            },
            "attrs" if is_root => {
                let mut attrs = v.clone();
                attrs.push("backend", backend);
                out.push("attrs", attrs);
            }
            other => {
                out.push(other, v.clone());
            }
        }
    }
    out
}

/// Builds the merged tree: fleet spans as stored, plus every reachable
/// backend's spans for the same trace id. Unreachable backends (e.g. a
/// killed process whose retry the trace records) are reported in the
/// `backends` list with `grafted: false` instead of failing the query.
fn graft_backend_spans(shared: &Shared, trace_id: &str, stored: &Json) -> Json {
    let fleet_spans = stored.get("spans").and_then(Json::as_array).unwrap_or(&[]);
    let mut spans: Vec<Json> = fleet_spans.to_vec();
    let mut dropped = stored.get("dropped").and_then(Json::as_u64).unwrap_or(0);
    let mut next_id =
        spans.iter().filter_map(|s| s.get("id").and_then(Json::as_u64)).max().map_or(0, |m| m + 1);

    // Deduplicate by address keeping the *last* dispatch span: a backend
    // retried later holds only its latest tree for this id anyway.
    let listed = stored.get("backends").and_then(Json::as_array).unwrap_or(&[]);
    let mut targets: Vec<(String, String, u64)> = Vec::new();
    for b in listed {
        let name = b.get("name").and_then(Json::as_str).unwrap_or("?").to_string();
        let addr = b.get("addr").and_then(Json::as_str).unwrap_or_default().to_string();
        let span = b.get("span").and_then(Json::as_u64).unwrap_or(0);
        match targets.iter_mut().find(|(_, a, _)| *a == addr) {
            Some(t) => t.2 = span,
            None => targets.push((name, addr, span)),
        }
    }

    let query = op_line("trace", &[("trace_id", trace_id)]);
    let mut backends_json = Vec::with_capacity(targets.len());
    for (name, addr, graft_parent) in &targets {
        let remote = forward_op(shared, addr, &query).and_then(|reply| reply.get("trace").cloned());
        let grafted = remote.is_some();
        if let Some(tree) = remote {
            let bspans = tree.get("spans").and_then(Json::as_array).unwrap_or(&[]);
            let offset = next_id;
            let mut max_id = 0u64;
            for s in bspans {
                max_id = max_id.max(s.get("id").and_then(Json::as_u64).unwrap_or(0));
                spans.push(graft_span(s, offset, *graft_parent, name));
            }
            if !bspans.is_empty() {
                next_id = offset + max_id + 1;
            }
            dropped += tree.get("dropped").and_then(Json::as_u64).unwrap_or(0);
        }
        let mut b = Json::object();
        b.push("name", name.as_str())
            .push("addr", addr.as_str())
            .push("span", *graft_parent)
            .push("grafted", grafted);
        backends_json.push(b);
    }

    let mut out = Json::object();
    out.push("spans", Json::Array(spans))
        .push("dropped", dropped)
        .push("backends", Json::Array(backends_json));
    out
}

fn probe_loop(shared: &Shared) {
    let flight = &shared.shell.flight;
    while shared.shell.running() {
        let targets: Vec<(usize, String)> = lock(&shared.state)
            .backends
            .iter()
            .enumerate()
            .map(|(i, b)| (i, b.addr.clone()))
            .collect();
        for (i, addr) in targets {
            if !shared.shell.running() {
                return;
            }
            let connect = Duration::from_millis(shared.opts.connect_timeout_ms);
            let result = client::probe(&addr, connect, Duration::from_secs(2));
            let mut st = lock(&shared.state);
            match result {
                Ok(p) => {
                    if !st.backends[i].alive {
                        flight.record(FlightKind::BackendUp, None, Some(i as u32), "probe");
                    }
                    st.backends[i].alive = true;
                    st.backends[i].workers = p.workers.max(1);
                    shared.counters.probes_ok.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    if st.backends[i].alive {
                        flight.record(FlightKind::BackendDown, None, Some(i as u32), "probe");
                    }
                    st.backends[i].alive = false;
                    shared.counters.probes_failed.fetch_add(1, Ordering::Relaxed);
                }
            }
            drop(st);
            // Liveness or capacity may have changed: wake slot-waiters.
            shared.slots.notify_all();
        }
        // Sleep in slices so shutdown stays prompt.
        let end = Instant::now() + Duration::from_millis(shared.opts.probe_ms);
        while shared.shell.running() && Instant::now() < end {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}
