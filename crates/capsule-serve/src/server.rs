//! The job server: bounded job queue, worker pool, cooperative
//! cancellation, checkpoints and the LRU result cache, as a [`Service`]
//! on the connection shell ([`crate::shell`]).
//!
//! Concurrency layout: the shell's connection threads parse requests
//! and write responses; simulation work happens only on the fixed
//! worker pool, fed through a bounded `sync_channel`. When the queue is
//! full, `try_send` fails immediately and the client gets a structured
//! `queue-full` rejection instead of an ever-growing backlog — the
//! server-level analogue of the paper's death-rate division throttle
//! (§4.2): admission control by refusal, not by queueing. A v2 run is
//! admitted without blocking its connection's reader, and the worker
//! routes the rendered response through the job's [`Reply`] the moment
//! it finishes, in whatever order that happens.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use capsule_bench::catalog;
use capsule_bench::checkpoint::{run_checkpointed, CheckpointFailure, CheckpointOutcome};
use capsule_bench::{BatchRunner, RunOptions};
use capsule_core::output::Json;
use capsule_core::stats::Histogram;
use capsule_core::{Ewma, FlightKind, SpanId, TraceRecorder};
use capsule_sim::machine::WarmMachine;
use capsule_sim::CancelToken;

use crate::cache::{Checkpoint, CheckpointStore, ResultCache};
use crate::protocol::{
    cache_key, error_response, fnv1a64, hex_encode, list_response, response_head, Request,
    RunRequest,
};
use crate::readings::{load, Part, Reading};
use crate::shell::{
    self, dump_response, echo_trace_id, lock, metrics_response, push_stats, write_dump_file,
    Handle, Reply, RunTrace, Service, Shell,
};

/// Server sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerOptions {
    /// Simulation worker threads (`CAPSULE_SERVE_WORKERS`).
    pub workers: usize,
    /// Bounded job-queue depth (`CAPSULE_SERVE_QUEUE`).
    pub queue: usize,
    /// Result-cache capacity in reports (`CAPSULE_SERVE_CACHE`).
    pub cache: usize,
    /// Retained span trees for the `trace` op (`CAPSULE_SERVE_TRACES`);
    /// 0 disables request tracing entirely.
    pub traces: usize,
    /// Checkpoint interval in simulated cycles
    /// (`CAPSULE_SERVE_CHECKPOINT_CYCLES`); 0 disables periodic
    /// checkpoints, making jobs non-preemptible unless they arrive with
    /// `resume_from` (checkpointed runs are cycle-identical to plain
    /// ones, so this only trades snapshot overhead for preemptibility).
    pub checkpoint_cycles: u64,
    /// Checkpoint-store capacity in parked jobs
    /// (`CAPSULE_SERVE_CHECKPOINTS`); 0 drops preempted jobs instead of
    /// parking them.
    pub checkpoints: usize,
    /// Flight-recorder ring capacity in events
    /// (`CAPSULE_SERVE_FLIGHT`); 0 disables the always-on recorder.
    pub flight: usize,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            workers: 2,
            queue: 16,
            cache: 64,
            traces: 64,
            checkpoint_cycles: 0,
            checkpoints: 16,
            flight: 1024,
        }
    }
}

impl ServerOptions {
    /// Defaults overridden by the `CAPSULE_SERVE_*` environment.
    /// Malformed values warn on stderr and fall back (see [`crate::env`]).
    pub fn from_env() -> ServerOptions {
        let d = ServerOptions::default();
        ServerOptions {
            workers: crate::env::env_usize("CAPSULE_SERVE_WORKERS", d.workers).max(1),
            queue: crate::env::env_usize("CAPSULE_SERVE_QUEUE", d.queue).max(1),
            cache: crate::env::env_usize("CAPSULE_SERVE_CACHE", d.cache),
            traces: crate::env::env_usize("CAPSULE_SERVE_TRACES", d.traces),
            checkpoint_cycles: crate::env::env_u64(
                "CAPSULE_SERVE_CHECKPOINT_CYCLES",
                d.checkpoint_cycles,
            ),
            checkpoints: crate::env::env_usize("CAPSULE_SERVE_CHECKPOINTS", d.checkpoints),
            flight: crate::env::env_usize("CAPSULE_SERVE_FLIGHT", d.flight),
        }
    }
}

/// One queued run job: the validated request plus the reply route of
/// the connection waiting for it.
struct Job {
    run: RunRequest,
    canonical: String,
    enqueued: Instant,
    reply: Reply,
    /// The run's trace, travelling with the job from admission through
    /// the queue to the worker.
    trace: Option<RunTrace>,
    /// Checkpoint blob to resume from, pre-validated at admission.
    resume: Option<Vec<u8>>,
    /// The job's preempt flag, registered in [`Shared::preempts`] under
    /// its cache key while the job is admitted. `None` for jobs that run
    /// without checkpointing (nothing to preempt into).
    preempt: Option<Arc<AtomicBool>>,
}

#[derive(Default)]
struct Counters {
    jobs_accepted: AtomicU64,
    jobs_rejected: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_cancelled: AtomicU64,
    jobs_in_flight: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cancel_requests: AtomicU64,
    preempt_requests: AtomicU64,
    jobs_preempted: AtomicU64,
    jobs_resumed: AtomicU64,
    checkpoints_stored: AtomicU64,
    checkpoint_fetches: AtomicU64,
    checkpoint_puts: AtomicU64,
    snapshot_bytes: AtomicU64,
}

#[derive(Default)]
struct Latencies {
    queue_wait_us: Histogram,
    run_us: Histogram,
}

struct Shared {
    shell: Shell,
    opts: ServerOptions,
    /// `None` once shutdown started: no further jobs are accepted.
    jobs: Mutex<Option<SyncSender<Job>>>,
    /// Current cancellation generation; `cancel` trips it and installs a
    /// fresh token, so only jobs dispatched before the cancel stop.
    cancel: Mutex<CancelToken>,
    cache: Mutex<ResultCache>,
    counters: Counters,
    latencies: Mutex<Latencies>,
    /// Smoothed queue-wait gauge feeding `predicted_wait_us`.
    ewma_queue_wait: Ewma,
    /// Smoothed run-time gauge feeding `predicted_wait_us`.
    ewma_run: Ewma,
    /// Parked jobs by checkpoint token (= cache key).
    checkpoints: Mutex<CheckpointStore>,
    /// Preempt flags of admitted checkpointable jobs, by cache key. A
    /// re-admitted duplicate key overwrites the previous flag — the
    /// `preempt` op then reaches the newest job, which is the one still
    /// making progress.
    preempts: Mutex<HashMap<String, Arc<AtomicBool>>>,
}

/// A running `capsule-serve` instance.
pub struct Server {
    handle: Handle<Shared>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts the accept loop and worker pool.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding.
    pub fn start(addr: &str, opts: ServerOptions) -> std::io::Result<Server> {
        let (shell, listener) = Shell::bind(addr, opts.flight, opts.traces)?;
        let (tx, rx) = mpsc::sync_channel::<Job>(opts.queue);
        let rx = Arc::new(Mutex::new(rx));
        let shared = Arc::new(Shared {
            shell,
            opts,
            jobs: Mutex::new(Some(tx)),
            cancel: Mutex::new(CancelToken::new()),
            cache: Mutex::new(ResultCache::new(opts.cache)),
            counters: Counters::default(),
            latencies: Mutex::new(Latencies::default()),
            ewma_queue_wait: Ewma::new(),
            ewma_run: Ewma::new(),
            checkpoints: Mutex::new(CheckpointStore::new(opts.checkpoints)),
            preempts: Mutex::new(HashMap::new()),
        });

        start_watchdog(&shared);

        let workers = (0..opts.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || worker_loop(&shared, &rx))
            })
            .collect();
        Ok(Server { handle: Handle::start(shared, listener, workers) })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.handle.local_addr()
    }

    /// False once shutdown has started.
    pub fn running(&self) -> bool {
        self.handle.running()
    }

    /// Starts shutdown exactly as the `shutdown` request does: stop
    /// accepting connections and jobs, and cancel in-flight runs.
    pub fn request_shutdown(&self) {
        self.handle.request_shutdown();
    }

    /// Waits until the server has shut down (via the `shutdown` request
    /// or [`Server::request_shutdown`]) and all threads have exited.
    pub fn join(self) {
        self.handle.join();
    }

    /// [`Server::request_shutdown`] followed by [`Server::join`].
    pub fn shutdown(self) {
        self.request_shutdown();
        self.join();
    }
}

/// Protocol-independent request dispatch: the shell funnels both the v1
/// line loop and the v2 frame handler here, so every op behaves
/// identically — and renders identically — over both wire formats.
impl Service for Shared {
    const SOURCE: &'static str = "serve";
    const DUMP_ON_PANIC: &'static str = "CAPSULE_SERVE_DUMP_ON_PANIC";

    fn shell(&self) -> &Shell {
        &self.shell
    }

    fn answer(shared: &Arc<Shared>, request: Request, reply: Reply) -> Option<String> {
        let response = match request {
            Request::Run(run) => return submit_run(shared, run, reply),
            Request::Cancel => {
                shared.counters.cancel_requests.fetch_add(1, Ordering::Relaxed);
                let mut guard = lock(&shared.cancel);
                guard.cancel();
                *guard = CancelToken::new();
                response_head("cancel", true)
            }
            Request::Stats => {
                let mut r = response_head("stats", true);
                push_stats(&**shared, &mut r);
                r
            }
            Request::List => list_response(),
            // Nothing a scrape does moves a scraped reading, so two
            // back-to-back scrapes of an idle server are byte-identical.
            Request::Metrics => metrics_response(&**shared, |_, _| ()),
            Request::Health { key } => health_response(shared, key.as_deref()),
            Request::Dump => dump_response(&**shared),
            Request::Trace { trace_id } => shared.shell.trace_response(&trace_id, |tree| tree),
            Request::Preempt { cache_key } => preempt_response(shared, &cache_key),
            Request::CheckpointFetch { token } => checkpoint_fetch_response(shared, &token),
            Request::CheckpointPut { token, canonical, blob } => {
                checkpoint_put_response(shared, token, canonical, blob)
            }
            Request::Shutdown => response_head("shutdown", true),
        };
        Some(response.to_string_compact())
    }

    fn close(&self) {
        // Stop admitting jobs; once the queue drains, the workers see a
        // disconnected channel and exit.
        *lock(&self.jobs) = None;
        // Stop in-flight runs promptly.
        lock(&self.cancel).cancel();
    }

    const READINGS: &'static [Reading<Shared>] = &[
        Reading::gauge("workers", |s| s.opts.workers as u64),
        Reading::gauge("queue_capacity", |s| s.opts.queue as u64),
        Reading::gauge("cache_capacity", |s| s.opts.cache as u64),
        Reading::gauge("cache_entries", |s| lock(&s.cache).len() as u64),
        Reading::gauge("checkpoint_cycles", |s| s.opts.checkpoint_cycles),
        Reading::gauge("checkpoint_capacity", |s| s.opts.checkpoints as u64),
        Reading::gauge("checkpoint_entries", |s| lock(&s.checkpoints).len() as u64),
        Reading::gauge("jobs_in_flight", |s| load(&s.counters.jobs_in_flight)),
        Reading::gauge("ewma_queue_wait_us", |s| s.ewma_queue_wait.get()),
        Reading::gauge("ewma_run_us", |s| s.ewma_run.get()),
        Reading::gauge("predicted_wait_us", predicted_wait_us),
        Reading::counter("jobs_accepted", |s| load(&s.counters.jobs_accepted)),
        Reading::counter("jobs_rejected", |s| load(&s.counters.jobs_rejected)),
        Reading::counter("jobs_completed", |s| load(&s.counters.jobs_completed)),
        Reading::counter("jobs_failed", |s| load(&s.counters.jobs_failed)),
        Reading::counter("jobs_cancelled", |s| load(&s.counters.jobs_cancelled)),
        Reading::counter("cache_hits", |s| load(&s.counters.cache_hits)),
        Reading::counter("cache_misses", |s| load(&s.counters.cache_misses)),
        Reading::counter("cache_evictions", |s| lock(&s.cache).evictions()),
        Reading::counter("cancel_requests", |s| load(&s.counters.cancel_requests)),
        Reading::counter("preempt_requests", |s| load(&s.counters.preempt_requests)),
        Reading::counter("jobs_preempted", |s| load(&s.counters.jobs_preempted)),
        Reading::counter("jobs_resumed", |s| load(&s.counters.jobs_resumed)),
        Reading::counter("checkpoints_stored", |s| load(&s.counters.checkpoints_stored)),
        Reading::counter("checkpoint_fetches", |s| load(&s.counters.checkpoint_fetches)),
        Reading::counter("checkpoint_puts", |s| load(&s.counters.checkpoint_puts)),
        Reading::counter("checkpoint_evictions", |s| lock(&s.checkpoints).evictions()),
        Reading::counter("snapshot_bytes", |s| load(&s.counters.snapshot_bytes)),
        Reading::histogram("queue_wait_us", |s| lock(&s.latencies).queue_wait_us.clone()),
        Reading::histogram("run_us", |s| lock(&s.latencies).run_us.clone()),
    ];
}

/// The `preempt` op: trips the preempt flag of an admitted job so it
/// parks at its next checkpoint boundary. Asynchronous by design — the
/// `run` response of the parked job (error code `preempted`) is the
/// confirmation.
fn preempt_response(shared: &Shared, key: &str) -> Json {
    shared.counters.preempt_requests.fetch_add(1, Ordering::Relaxed);
    match lock(&shared.preempts).get(key) {
        Some(flag) => {
            flag.store(true, Ordering::Relaxed);
            let mut r = response_head("preempt", true);
            r.push("cache_key", key);
            r
        }
        None => {
            let mut r = error_response(
                "preempt",
                "not-running",
                Some("no admitted checkpointable job has this cache_key"),
            );
            r.push("cache_key", key);
            r
        }
    }
}

/// The `checkpoint-fetch` op: a stored checkpoint as hex, plus the
/// canonical request it belongs to (the fleet re-posts both to the
/// migration target via `checkpoint-put`).
fn checkpoint_fetch_response(shared: &Shared, token: &str) -> Json {
    match lock(&shared.checkpoints).get(token) {
        Some(cp) => {
            shared.counters.checkpoint_fetches.fetch_add(1, Ordering::Relaxed);
            let mut r = response_head("checkpoint-fetch", true);
            r.push("token", token)
                .push("canonical", cp.canonical.as_str())
                .push("blob", hex_encode(&cp.blob));
            r
        }
        None => {
            let mut r = error_response(
                "checkpoint-fetch",
                "unknown-checkpoint",
                Some("no stored checkpoint for this token (never parked, or evicted)"),
            );
            r.push("token", token);
            r
        }
    }
}

/// The `checkpoint-put` op: accepts a blob fetched elsewhere. The token
/// must be the cache key of the supplied canonical form — a put that
/// lies about its job is rejected, keeping store keys trustworthy for
/// later resumes.
fn checkpoint_put_response(
    shared: &Shared,
    token: String,
    canonical: String,
    blob: Vec<u8>,
) -> Json {
    if cache_key(&canonical) != token {
        return error_response(
            "checkpoint-put",
            "checkpoint-mismatch",
            Some("token is not the cache_key of the supplied canonical request"),
        );
    }
    shared.counters.checkpoint_puts.fetch_add(1, Ordering::Relaxed);
    let mut store = lock(&shared.checkpoints);
    store.put(token.clone(), Checkpoint { canonical, blob });
    let entries = store.len();
    drop(store);
    let mut r = response_head("checkpoint-put", true);
    r.push("token", token).push("checkpoint_entries", entries);
    r
}

/// Admits a `run` request: answers immediately (`Some`) on a cache
/// hit, a validation failure, queue-full or shutdown; otherwise the job
/// is queued (`None`) and the worker routes the rendered response
/// through `reply` when it finishes — out of submission order on a
/// pipelined v2 connection.
fn submit_run(shared: &Shared, run: RunRequest, reply: Reply) -> Option<String> {
    let canonical = run.canonical();
    let keyn = fnv1a64(canonical.as_bytes());
    let mut trace = Some(RunTrace::start(&run, keyn, "serve.run", TraceRecorder::new(16, 64)));
    // A profiled request bypasses the cache lookup — the per-stage
    // profile has to come from a real run — but still stores its report,
    // so it neither perturbs the hit/miss counters nor goes uncached.
    if !run.profile {
        if let Some(report) = lock(&shared.cache).get(&canonical) {
            shared.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            shared.shell.flight.record(FlightKind::CacheHit, Some(keyn), None, "");
            if let Some(mut t) = trace.take() {
                t.rec.event(t.root, "cache-hit", &[]);
                // A hit is answered from memory: nothing ran.
                shared.shell.retain(t, None, |_| ());
            }
            return Some(render_run_ok(
                &canonical,
                &report,
                true,
                0,
                0,
                run.trace_id.as_deref(),
                None,
            ));
        }
        shared.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = trace.as_mut() {
            t.rec.event(t.root, "cache-miss", &[]);
        }
    }

    // Resume tokens are validated at admission so a bad one is rejected
    // before it occupies a queue slot. The token must be this request's
    // own cache key (the canonical-form hash) and the stored checkpoint
    // must agree on the canonical — so a token can only resume the exact
    // job it was parked from.
    let key = cache_key(&canonical);
    let resume =
        match &run.resume_from {
            None => None,
            Some(token) => {
                if *token != key {
                    return Some(
                        error_response(
                            "run",
                            "checkpoint-mismatch",
                            Some("resume_from is not this request's cache_key"),
                        )
                        .to_string_compact(),
                    );
                }
                match lock(&shared.checkpoints).get(token) {
                    None => return Some(
                        error_response(
                            "run",
                            "unknown-checkpoint",
                            Some("no stored checkpoint for this token (never parked, or evicted)"),
                        )
                        .to_string_compact(),
                    ),
                    Some(cp) if cp.canonical != canonical => {
                        return Some(
                            error_response(
                                "run",
                                "checkpoint-mismatch",
                                Some("stored checkpoint belongs to a different job"),
                            )
                            .to_string_compact(),
                        )
                    }
                    Some(cp) => Some(cp.blob),
                }
            }
        };

    // A job is preemptible iff it runs on the checkpointed path: either
    // the server checkpoints periodically, or the job resumes a parked
    // blob (and keeps checkpointing from there only if enabled).
    let preempt = if shared.opts.checkpoint_cycles > 0 || resume.is_some() {
        let flag = Arc::new(AtomicBool::new(false));
        lock(&shared.preempts).insert(key.clone(), Arc::clone(&flag));
        Some(flag)
    } else {
        None
    };
    let unregister = |shared: &Shared| {
        if preempt.is_some() {
            lock(&shared.preempts).remove(&key);
        }
    };

    // Clone the sender out so the jobs lock is not held while waiting.
    let Some(tx) = lock(&shared.jobs).clone() else {
        unregister(shared);
        shared.shell.flight.record(FlightKind::Deny, Some(keyn), None, "shutting-down");
        return Some(error_response("run", "shutting-down", None).to_string_compact());
    };
    let job = Job {
        run,
        canonical,
        enqueued: Instant::now(),
        reply,
        trace,
        resume,
        preempt: preempt.clone(),
    };
    // Admission is recorded before the hand-off: once the job is on the
    // queue a worker may dequeue it at once, and the ring must never show
    // a job leaving the queue before it entered. A failed send follows
    // up with a `deny`.
    shared.shell.flight.record(FlightKind::Enqueue, Some(keyn), None, "");
    match tx.try_send(job) {
        Ok(()) => {
            shared.counters.jobs_accepted.fetch_add(1, Ordering::Relaxed);
            None
        }
        Err(TrySendError::Full(job)) => {
            unregister(shared);
            shared.counters.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            shared.shell.flight.record(FlightKind::Deny, Some(keyn), None, "queue-full");
            if let Some(mut t) = job.trace {
                t.rec.event(t.root, "queue-full", &[]);
                shared.shell.retain(t, None, |_| ());
            }
            let mut r = error_response("run", "queue-full", None);
            r.push("queue_capacity", shared.opts.queue);
            Some(r.to_string_compact())
        }
        Err(TrySendError::Disconnected(_)) => {
            unregister(shared);
            shared.shell.flight.record(FlightKind::Deny, Some(keyn), None, "shutting-down");
            Some(error_response("run", "shutting-down", None).to_string_compact())
        }
    }
}

/// Renders a `run` success response, splicing the already-serialized
/// report bytes into place instead of re-rendering the report object.
/// The field order — and every byte — matches what pushing the parsed
/// report into the response object would have produced, so v1 lines,
/// v2 payloads, cache hits and cache misses all render identically.
fn render_run_ok(
    canonical: &str,
    report: &str,
    cache_hit: bool,
    queue_wait_us: u64,
    run_us: u64,
    trace_id: Option<&str>,
    profile: Option<Json>,
) -> String {
    let mut head = response_head("run", true);
    head.push("cache_hit", cache_hit)
        .push("cache_key", format!("{:016x}", fnv1a64(canonical.as_bytes())))
        .push("queue_wait_us", queue_wait_us)
        .push("run_us", run_us);
    let mut out = head.to_string_compact();
    out.pop(); // reopen the object to splice the remaining fields
    out.push_str(",\"report\":");
    out.push_str(report);
    let mut tail = Json::object();
    if let Some(id) = trace_id {
        tail.push("trace_id", id);
    }
    if let Some(p) = profile {
        tail.push("profile", p);
    }
    let tail = tail.to_string_compact();
    if tail.len() > 2 {
        out.push(',');
        out.push_str(&tail[1..]);
    } else {
        out.push('}');
    }
    out
}

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<Job>>) {
    // One long-lived single-threaded batch runner per worker: its warmed
    // machine persists across jobs, so repeated runs reuse the simulator's
    // data-memory buffer, window arena and stage scratch (reset per run,
    // cycle-identical to fresh machines). The checkpointed path keeps its
    // own warmed machine with the same reset/restore-equivalence contract.
    let runner = BatchRunner::with_workers(1);
    let mut warm = WarmMachine::new();
    loop {
        // Hold the receiver lock only while waiting, never while running.
        let job = lock(rx).recv_timeout(Duration::from_millis(100));
        match job {
            Ok(job) => run_job(shared, &runner, &mut warm, job),
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Drops the job's preempt-flag registration, unless a re-admitted
/// duplicate job has already replaced it with its own flag.
fn unregister_preempt(shared: &Shared, job: &Job) {
    let Some(flag) = &job.preempt else { return };
    let key = cache_key(&job.canonical);
    let mut map = lock(&shared.preempts);
    if map.get(&key).is_some_and(|f| Arc::ptr_eq(f, flag)) {
        map.remove(&key);
    }
}

/// Parks `blob` in the checkpoint store under the job's token and bumps
/// the snapshot counters.
fn store_checkpoint(shared: &Shared, job: &Job, blob: &[u8]) {
    shared.counters.checkpoints_stored.fetch_add(1, Ordering::Relaxed);
    shared.counters.snapshot_bytes.fetch_add(blob.len() as u64, Ordering::Relaxed);
    lock(&shared.checkpoints).put(
        cache_key(&job.canonical),
        Checkpoint { canonical: job.canonical.clone(), blob: blob.to_vec() },
    );
}

/// Records a finished dispatch in both latency histograms and the EWMA
/// gauges behind `predicted_wait_us`.
fn record_latency(shared: &Shared, queue_wait_us: u64, run_us: u64) {
    {
        let mut lat = lock(&shared.latencies);
        lat.queue_wait_us.record(queue_wait_us);
        lat.run_us.record(run_us);
    }
    shared.ewma_queue_wait.observe(queue_wait_us);
    shared.ewma_run.observe(run_us);
}

fn run_job(shared: &Shared, runner: &BatchRunner, warm: &mut WarmMachine, mut job: Job) {
    let flight = &shared.shell.flight;
    let queue_wait_us = job.enqueued.elapsed().as_micros() as u64;
    let keyn = fnv1a64(job.canonical.as_bytes());
    // The cancellation generation is sampled at dispatch: an operator
    // `cancel` stops jobs already running, not jobs still queued.
    let token = lock(&shared.cancel).clone();
    shared.counters.jobs_in_flight.fetch_add(1, Ordering::SeqCst);
    flight.record(FlightKind::Dequeue, Some(keyn), None, "");
    let started = Instant::now();

    // The queue span covers enqueue -> dispatch; the execute span opens
    // now and closes (with an outcome attribute) when the run returns.
    let exec = job.trace.as_mut().map(|t| {
        let start = t.rec.at(job.enqueued);
        let queue = t.rec.span_at("serve.queue", Some(t.root), start);
        t.rec.end(queue);
        t.rec.span("serve.execute", Some(t.root))
    });

    let entry = catalog::find(&job.run.scenario).expect("scenario validated at parse");
    let mut scenarios = entry.scenarios(job.run.scale);
    for sc in &mut scenarios {
        job.run.overrides.apply(&mut sc.config);
    }
    let opts = RunOptions { profile: job.run.profile, trace: None };
    // One batch worker per job: across-job parallelism comes from the
    // server pool, and a single-threaded batch keeps a job's cost
    // predictable for the queue's admission control. A preemptible job
    // takes the checkpointed path instead — serial like the one-worker
    // runner and proven report-identical to it (capsule-bench's
    // `checkpoint` tests), so which path ran is unobservable in the
    // report bytes.
    let result = match &job.preempt {
        None => runner.try_run_opts(entry.title, scenarios, job.run.budget, Some(&token), opts),
        Some(flag) => {
            if job.resume.is_some() {
                shared.counters.jobs_resumed.fetch_add(1, Ordering::Relaxed);
                flight.record(FlightKind::Resume, Some(keyn), None, "");
            }
            let checkpointed = run_checkpointed(
                entry.title,
                scenarios,
                job.run.budget,
                Some(&token),
                opts,
                warm,
                shared.opts.checkpoint_cycles,
                flag,
                job.resume.as_deref(),
                |blob| store_checkpoint(shared, &job, blob),
            );
            match checkpointed {
                Ok(CheckpointOutcome::Done(report)) => {
                    // The job is finished; its parked state is stale.
                    lock(&shared.checkpoints).remove(&cache_key(&job.canonical));
                    Ok(report)
                }
                Ok(CheckpointOutcome::Preempted(blob)) => {
                    store_checkpoint(shared, &job, &blob);
                    shared.counters.jobs_preempted.fetch_add(1, Ordering::Relaxed);
                    let run_us = started.elapsed().as_micros() as u64;
                    shared.counters.jobs_in_flight.fetch_sub(1, Ordering::SeqCst);
                    flight.record(FlightKind::Preempt, Some(keyn), None, "parked");
                    record_latency(shared, queue_wait_us, run_us);
                    finish_job_trace(shared, &mut job, exec, "preempted", run_us);
                    let mut r = error_response("run", "preempted", None);
                    r.push("cache_key", cache_key(&job.canonical))
                        .push("queue_wait_us", queue_wait_us)
                        .push("run_us", run_us);
                    echo_trace_id(&mut r, &job.run);
                    unregister_preempt(shared, &job);
                    job.reply.send(r.to_string_compact());
                    return;
                }
                Err(CheckpointFailure::Batch(e)) => Err(e),
                Err(CheckpointFailure::Blob(reason)) => {
                    shared.counters.jobs_failed.fetch_add(1, Ordering::Relaxed);
                    let run_us = started.elapsed().as_micros() as u64;
                    shared.counters.jobs_in_flight.fetch_sub(1, Ordering::SeqCst);
                    flight.record(FlightKind::Complete, Some(keyn), None, "bad-checkpoint");
                    record_latency(shared, queue_wait_us, run_us);
                    finish_job_trace(shared, &mut job, exec, "bad-checkpoint", run_us);
                    let mut r = error_response("run", "bad-checkpoint", Some(&reason));
                    r.push("queue_wait_us", queue_wait_us).push("run_us", run_us);
                    echo_trace_id(&mut r, &job.run);
                    unregister_preempt(shared, &job);
                    job.reply.send(r.to_string_compact());
                    return;
                }
            }
        }
    };
    let run_us = started.elapsed().as_micros() as u64;
    shared.counters.jobs_in_flight.fetch_sub(1, Ordering::SeqCst);
    record_latency(shared, queue_wait_us, run_us);
    unregister_preempt(shared, &job);

    let response = match result {
        Ok(report) => {
            // The report is rendered exactly once; the cache stores the
            // serialized bytes, so later hits splice them into their
            // responses without touching the renderer. The cached
            // report never carries observation data: profile arrays are
            // rebuilt per response, so a later plain hit is
            // byte-identical to an untraced run's report.
            let bytes: Arc<str> = Arc::from(report.to_json().to_string_compact());
            lock(&shared.cache).put(job.canonical.clone(), Arc::clone(&bytes));
            shared.counters.jobs_completed.fetch_add(1, Ordering::Relaxed);
            flight.record(FlightKind::Complete, Some(keyn), None, "completed");
            finish_job_trace(shared, &mut job, exec, "completed", run_us);
            let profile = job.run.profile.then(|| profile_json(&report));
            render_run_ok(
                &job.canonical,
                &bytes,
                false,
                queue_wait_us,
                run_us,
                job.run.trace_id.as_deref(),
                profile,
            )
        }
        Err(e) => {
            let cancelled = e.failure.is_cancelled();
            let outcome = if cancelled { "cancelled" } else { "failed" };
            if cancelled {
                shared.counters.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
            } else {
                shared.counters.jobs_failed.fetch_add(1, Ordering::Relaxed);
            }
            flight.record(FlightKind::Complete, Some(keyn), None, outcome);
            finish_job_trace(shared, &mut job, exec, outcome, run_us);
            let mut r = error_response(
                "run",
                if cancelled { "cancelled" } else { "scenario-failed" },
                Some(&e.to_string()),
            );
            r.push("queue_wait_us", queue_wait_us).push("run_us", run_us);
            echo_trace_id(&mut r, &job.run);
            r.to_string_compact()
        }
    };
    // The connection may already be gone; the result is cached anyway.
    job.reply.send(response);
}

/// Closes the execute span with its outcome and offers the tree for
/// retention; a non-`completed` outcome is always kept.
fn finish_job_trace(
    shared: &Shared,
    job: &mut Job,
    exec: Option<SpanId>,
    outcome: &str,
    run_us: u64,
) {
    let Some(mut t) = job.trace.take() else { return };
    if let Some(exec) = exec {
        t.rec.attr(exec, "outcome", outcome);
        t.rec.end(exec);
    }
    shared.shell.retain(t, Some((run_us, outcome != "completed")), |_| ());
}

/// Per-record stage profiles of a batch, in record order:
/// `[{"group":..,"label":..,"stages":{..}}, ...]`.
fn profile_json(report: &capsule_bench::BatchReport) -> Json {
    let mut rows = Vec::with_capacity(report.records.len());
    for r in &report.records {
        let mut row = Json::object();
        row.push("group", r.group.as_str()).push("label", r.label.as_str());
        if let Some(p) = &r.outcome.profile {
            row.push("stages", p.to_json());
        }
        rows.push(row);
    }
    Json::Array(rows)
}

/// The deterministic queue-pressure estimate exposed by `stats`,
/// `metrics` and `health`: the smoothed queue wait plus how long the
/// backlog beyond the worker pool will take to drain at the smoothed
/// run time. Pure arithmetic over gauges — two calls with the same
/// observation history agree exactly.
fn predicted_wait_us(shared: &Shared) -> u64 {
    let workers = shared.opts.workers.max(1) as u64;
    let in_flight = shared.counters.jobs_in_flight.load(Ordering::SeqCst);
    let backlog = in_flight.saturating_sub(shared.opts.workers as u64);
    shared
        .ewma_queue_wait
        .get()
        .saturating_add(backlog.saturating_mul(shared.ewma_run.get()) / workers)
}

/// The `health` op: the server's gauges in one small object, cheap
/// enough to poll tightly. The optional `key` is echoed back so a
/// fleet-side caller can correlate fan-out probes; a standalone server
/// has no placement preference to derive from it.
fn health_response(shared: &Shared, key: Option<&str>) -> Json {
    let mut r = response_head("health", true);
    if let Some(k) = key {
        r.push("key", k);
    }
    shell::render(&mut r, Part::Gauges, shared);
    r
}

/// The stall watchdog, opt-in via the environment:
/// `CAPSULE_SERVE_WATCHDOG_MS=<ms>` writes the dump artifact to
/// `CAPSULE_SERVE_WATCHDOG_DUMP` (default `capsule-dump.json`) whenever
/// jobs stay in flight for a full interval without any job reaching a
/// terminal state. The panic hook (`CAPSULE_SERVE_DUMP_ON_PANIC`) is the
/// shell's.
fn start_watchdog(shared: &Arc<Shared>) {
    let interval = crate::env::env_u64("CAPSULE_SERVE_WATCHDOG_MS", 0);
    if interval > 0 {
        let path = std::env::var("CAPSULE_SERVE_WATCHDOG_DUMP")
            .unwrap_or_else(|_| "capsule-dump.json".to_string());
        let shared = Arc::clone(shared);
        std::thread::spawn(move || watchdog_loop(&shared, interval, &path));
    }
}

/// Counts jobs that reached a terminal state — the watchdog's notion of
/// forward progress.
fn progress_mark(shared: &Shared) -> u64 {
    let c = &shared.counters;
    [&c.jobs_completed, &c.jobs_failed, &c.jobs_cancelled, &c.jobs_preempted].map(load).iter().sum()
}

fn watchdog_loop(shared: &Shared, interval_ms: u64, path: &str) {
    let mut last = progress_mark(shared);
    let mut stalled_since: Option<Instant> = None;
    while shared.shell.running() {
        // Sleep in short slices so shutdown is observed promptly even
        // with a long stall interval.
        std::thread::sleep(Duration::from_millis(interval_ms.clamp(1, 100)));
        let in_flight = shared.counters.jobs_in_flight.load(Ordering::SeqCst);
        let mark = progress_mark(shared);
        if in_flight == 0 || mark != last {
            last = mark;
            stalled_since = None;
            continue;
        }
        let since = *stalled_since.get_or_insert_with(Instant::now);
        if since.elapsed() >= Duration::from_millis(interval_ms) {
            write_dump_file(shared, path, "watchdog-stall");
            // Re-arm: a persisting stall dumps again only after another
            // full interval, not on every poll.
            stalled_since = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dump writer is exercised directly (rather than through the
    /// panic/watchdog env hooks — process-global state is racy under
    /// the parallel test runner): it must produce a `capsule-dump/1`
    /// artifact tagged with its trigger, and never panic.
    #[test]
    fn write_dump_file_emits_a_versioned_artifact() {
        let server = Server::start("127.0.0.1:0", ServerOptions::default()).unwrap();
        let shared = &server.handle.service;
        shared.shell.flight.record(FlightKind::Enqueue, Some(0xb517_4289_4a5f_f828), None, "");
        let path =
            std::env::temp_dir().join(format!("capsule-dump-test-{}.json", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        write_dump_file(&**shared, &path, "unit-test");
        let body = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(body.starts_with('{') && body.ends_with("}\n"));
        assert!(body.contains("\"schema\":\"capsule-dump/1\""));
        assert!(body.contains("\"source\":\"serve\""));
        assert!(body.contains("\"reason\":\"unit-test\""));
        assert!(body.contains("\"cache_key\":\"b51742894a5ff828\""));
        assert!(body.contains("\"gauges\":"));
        assert!(body.contains("\"counters\":"));

        // A path that cannot be created reports instead of panicking.
        write_dump_file(&**shared, "/nonexistent-dir/x/dump.json", "unit-test");
        server.shutdown();
    }

    /// Both ends of a served connection send small writes at once: the
    /// shell sets `TCP_NODELAY` on every accepted stream, the client in
    /// `Connection::from_stream` (which the fleet's pool dials through).
    #[test]
    fn served_sockets_set_tcp_nodelay() {
        let server = Server::start("127.0.0.1:0", ServerOptions::default()).unwrap();
        let addr = server.local_addr().to_string();
        let mut conn = crate::client::Connection::connect_with(&addr, crate::Proto::V2).unwrap();
        assert!(conn.request(r#"{"op":"list"}"#).is_ok());
        assert!(conn.writer.nodelay().unwrap(), "client socket");
        let conns = lock(&server.handle.service.shell.conns);
        assert_eq!(conns.len(), 1);
        assert!(conns.values().all(|s| s.nodelay().unwrap()), "accepted socket");
        drop(conns);
        server.shutdown();
    }

    /// `predicted_wait_us` is pure arithmetic over the gauges: with no
    /// observations it is zero, and after seeding the EWMAs it follows
    /// wait + backlog * run / workers exactly.
    #[test]
    fn predicted_wait_follows_the_gauges() {
        let server = Server::start("127.0.0.1:0", ServerOptions::default()).unwrap();
        let shared = &server.handle.service;
        assert_eq!(predicted_wait_us(shared), 0);
        shared.ewma_queue_wait.observe(500);
        shared.ewma_run.observe(9000);
        // No backlog beyond the worker pool: prediction is the queue wait.
        assert_eq!(predicted_wait_us(shared), 500);
        // Fake a backlog of 4 beyond the 2 workers: + 4 * 9000 / 2.
        shared.counters.jobs_in_flight.store(6, Ordering::SeqCst);
        assert_eq!(predicted_wait_us(shared), 500 + 4 * 9000 / 2);
        shared.counters.jobs_in_flight.store(0, Ordering::SeqCst);
        server.shutdown();
    }
}
