//! Open-loop load generation: Poisson arrival schedules with Zipf
//! scenario popularity, and a driver that replays a schedule against a
//! server over either wire protocol.
//!
//! Closed-loop load (what `capsule-loadgen` did exclusively before this
//! module) measures a server that is never offered more work than it
//! has just finished — latency under load is invisible. The open-loop
//! shape here offers work at a *fixed rate* regardless of completions:
//! arrivals are Poisson (exponential inter-arrival times at `rate`
//! requests/second) and each arrival picks a scenario by Zipf rank, so
//! a few scenarios dominate the way a real job mix does and the result
//! cache sees realistic skew. Everything is seeded through
//! [`capsule_core::rng`], so a schedule is a pure function of
//! `(seed, jobs, rate, zipf_s, scenarios)`.
//!
//! [`drive`] replays a schedule over `capsule-serve/2` (a few pipelined
//! connections, a submitter and a collector thread each) or
//! `capsule-serve/1` (keep-alive connections, one in-flight request
//! each — the protocol cannot pipeline, which is exactly the difference
//! `bench_serve` exists to measure). In deterministic mode pacing and
//! timing are skipped and the outcome carries an order-insensitive
//! digest of the report bytes, so two runs — or a v1 and a v2 run — of
//! the same schedule must produce byte-identical work.

use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use capsule_core::codec::Fnv64;
use capsule_core::output::Json;
use capsule_core::rng::{Rng, Xoshiro256StarStar};

use crate::client::{ClientError, Connection, Proto};

/// One scheduled arrival: when to submit (microseconds from the start
/// of the run) and which scenario the request names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopJob {
    /// Submission time, microseconds from schedule start.
    pub at_us: u64,
    /// Index into the caller's scenario list (0 = most popular rank).
    pub scenario_index: usize,
}

/// Builds a deterministic open-loop schedule: `jobs` Poisson arrivals
/// at `rate` requests/second, each naming one of `scenarios` scenarios
/// drawn from a Zipf distribution with exponent `zipf_s` (0 = uniform;
/// larger = more skew toward index 0).
///
/// # Panics
///
/// Panics when `rate` is not finite-positive or `scenarios` is 0.
pub fn schedule(
    seed: u64,
    jobs: usize,
    rate: f64,
    zipf_s: f64,
    scenarios: usize,
) -> Vec<OpenLoopJob> {
    assert!(rate.is_finite() && rate > 0.0, "offered load must be positive, got {rate}");
    assert!(scenarios > 0, "schedule needs at least one scenario");
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    // Zipf CDF over ranks 1..=scenarios: weight(k) = k^-s.
    let mut cdf = Vec::with_capacity(scenarios);
    let mut total = 0.0f64;
    for k in 1..=scenarios {
        total += (k as f64).powf(-zipf_s);
        cdf.push(total);
    }
    let mut at = 0.0f64; // microseconds, accumulated exactly once per job
    let mut out = Vec::with_capacity(jobs);
    for _ in 0..jobs {
        // Exponential inter-arrival: -ln(1-u)/rate seconds. unit_f64 is
        // in [0,1), so 1-u is in (0,1] and the log is finite.
        let u = rng.unit_f64();
        at += -(1.0 - u).ln() / rate * 1_000_000.0;
        let draw = rng.unit_f64() * total;
        let scenario_index = cdf.partition_point(|&c| c < draw).min(scenarios - 1);
        out.push(OpenLoopJob { at_us: at as u64, scenario_index });
    }
    out
}

/// How [`drive`] should replay a schedule.
#[derive(Debug, Clone)]
pub struct DriveOptions {
    /// Wire protocol for every connection.
    pub proto: Proto,
    /// Concurrent connections (v2: each pipelined; v1: each keep-alive
    /// with one request in flight). Clamped to at least 1.
    pub connections: usize,
    /// Skip pacing and wall-clock measurement; the outcome then carries
    /// only counts and the report digest, and must be byte-reproducible.
    pub deterministic: bool,
    /// Per-response read timeout (`None` waits forever).
    pub read_timeout: Option<Duration>,
}

/// What replaying a schedule produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriveOutcome {
    /// Responses with `ok:true`.
    pub ok: u64,
    /// Structured `queue-full` rejections (the backpressure signal the
    /// open-loop mode exists to provoke).
    pub queue_full: u64,
    /// Transport faults plus structured errors other than `queue-full`.
    pub errors: u64,
    /// Of the ok responses, how many were result-cache hits.
    pub cache_hits: u64,
    /// Per-job latency, submit to response, in submission order. Empty
    /// in deterministic mode.
    pub latencies_us: Vec<u64>,
    /// Wall-clock time for the whole replay. Zero in deterministic mode.
    pub wall: Duration,
    /// FNV-1a digest over every response's report bytes (with the job
    /// index), folded order-insensitively so pipelined completion order
    /// cannot change it. Two replays of one schedule — on either
    /// protocol — must agree.
    pub report_digest: u64,
}

impl DriveOutcome {
    /// Latency percentile `p` in \[0,100\] over the recorded latencies,
    /// or 0 when none were recorded.
    pub fn latency_percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    /// Fraction of jobs answered `queue-full`.
    pub fn queue_full_rate(&self) -> f64 {
        let total = self.ok + self.queue_full + self.errors;
        if total == 0 {
            0.0
        } else {
            self.queue_full as f64 / total as f64
        }
    }

    fn absorb_response(&mut self, job_index: usize, response: &Json) {
        let ok = response.get("ok").and_then(Json::as_bool) == Some(true);
        if ok {
            self.ok += 1;
            if response.get("cache_hit").and_then(Json::as_bool) == Some(true) {
                self.cache_hits += 1;
            }
        } else if response.get("error").and_then(Json::as_str) == Some("queue-full") {
            self.queue_full += 1;
        } else {
            self.errors += 1;
        }
        // Digest the report bytes (or the structured error name) keyed
        // by job index; XOR-fold so arrival order is irrelevant.
        let mut h = Fnv64::new();
        h.write_u64(job_index as u64);
        match response.get("report") {
            Some(report) => h.write(report.to_string_compact().as_bytes()),
            None => h.write(
                response.get("error").and_then(Json::as_str).unwrap_or("no-report").as_bytes(),
            ),
        }
        self.report_digest ^= h.finish();
    }

    fn absorb_transport_error(&mut self, job_index: usize) {
        self.errors += 1;
        let mut h = Fnv64::new();
        h.write_u64(job_index as u64);
        h.write(b"transport-error");
        self.report_digest ^= h.finish();
    }

    fn merge(&mut self, other: &DriveOutcome) {
        self.ok += other.ok;
        self.queue_full += other.queue_full;
        self.errors += other.errors;
        self.cache_hits += other.cache_hits;
        self.latencies_us.extend_from_slice(&other.latencies_us);
        self.report_digest ^= other.report_digest;
    }
}

/// Replays `jobs` against `addr`: job `k` submits `lines[k]` at
/// `jobs[k].at_us` (immediately in deterministic mode). Jobs are
/// distributed round-robin across `options.connections` connections.
///
/// # Errors
///
/// [`ClientError`] only when a connection cannot be *established*;
/// per-request faults are folded into [`DriveOutcome::errors`] so one
/// bad response cannot abort a measurement run.
///
/// # Panics
///
/// Panics when `lines` is shorter than `jobs`.
pub fn drive(
    addr: &str,
    jobs: &[OpenLoopJob],
    lines: &[String],
    options: &DriveOptions,
) -> Result<DriveOutcome, ClientError> {
    assert!(lines.len() >= jobs.len(), "every scheduled job needs a request line");
    if jobs.is_empty() {
        return Ok(DriveOutcome::default());
    }
    let connections = options.connections.max(1).min(jobs.len());
    let started = Instant::now();
    let outcomes: Vec<Result<DriveOutcome, ClientError>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                // Connection c owns jobs c, c+connections, c+2*connections…
                let share: Vec<(usize, &OpenLoopJob, &str)> = jobs
                    .iter()
                    .enumerate()
                    .skip(c)
                    .step_by(connections)
                    .map(|(k, job)| (k, job, lines[k].as_str()))
                    .collect();
                scope.spawn(move || match options.proto {
                    Proto::V2 => drive_pipelined(addr, &share, options, started),
                    Proto::V1 => drive_keepalive(addr, &share, options, started),
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("driver thread panicked")).collect()
    });
    let mut total = DriveOutcome::default();
    for outcome in outcomes {
        total.merge(&outcome?);
    }
    if !options.deterministic {
        total.wall = started.elapsed();
    }
    Ok(total)
}

/// Sleeps until `at_us` past `started` (no-op when already there).
fn pace(started: Instant, at_us: u64) {
    let target = Duration::from_micros(at_us);
    let elapsed = started.elapsed();
    if elapsed < target {
        thread::sleep(target - elapsed);
    }
}

/// One pipelined v2 connection: a submitter thread paces requests onto
/// the wire while the collector drains completions as they arrive, so
/// a slow job never blocks the offered load behind it.
/// Per-request submission record: (job index, submit instant), slot j
/// belonging to the request with id j+1.
type SubmitSlots = Arc<Mutex<Vec<Option<(usize, Instant)>>>>;

fn drive_pipelined(
    addr: &str,
    share: &[(usize, &OpenLoopJob, &str)],
    options: &DriveOptions,
    started: Instant,
) -> Result<DriveOutcome, ClientError> {
    let conn = Connection::connect_with(addr, Proto::V2)?;
    conn.set_read_timeout(options.read_timeout)?;
    let (mut tx, mut rx) = conn.into_split()?;
    // Slot j holds (job index, submit instant) for the request whose id
    // is j+1 — ids are assigned sequentially by the send half — written
    // before the frame hits the wire, so the collector can never see a
    // completion whose slot is still empty.
    let submitted: SubmitSlots = Arc::new(Mutex::new(vec![None; share.len()]));
    let deterministic = options.deterministic;
    let expected = share.len();
    thread::scope(|scope| {
        let submit_slots = Arc::clone(&submitted);
        let submitter = scope.spawn(move || -> Result<(), ClientError> {
            for (slot, (job_index, job, line)) in share.iter().enumerate() {
                if !deterministic {
                    pace(started, job.at_us);
                }
                submit_slots.lock().unwrap_or_else(std::sync::PoisonError::into_inner)[slot] =
                    Some((*job_index, Instant::now()));
                tx.submit(line)?;
            }
            Ok(())
        });
        let mut outcome = DriveOutcome::default();
        for _ in 0..expected {
            let (id, response) = match rx.collect() {
                Ok(done) => done,
                Err(_) => break, // remaining jobs become transport errors below
            };
            let slot = (id - 1) as usize;
            let (job_index, submitted_at) =
                submitted.lock().unwrap_or_else(std::sync::PoisonError::into_inner)[slot]
                    .take()
                    .expect("completion for a request that was never submitted");
            if !deterministic {
                outcome.latencies_us.push(submitted_at.elapsed().as_micros() as u64);
            }
            outcome.absorb_response(job_index, &response);
        }
        let send_failed = submitter.join().expect("submitter panicked").is_err();
        // Anything still in the slot table got no response (collector
        // broke early or the submit itself failed).
        for slot in submitted.lock().unwrap_or_else(std::sync::PoisonError::into_inner).iter_mut() {
            if let Some((job_index, _)) = slot.take() {
                outcome.absorb_transport_error(job_index);
            }
        }
        let _ = send_failed; // already accounted per-job via empty slots
        Ok(outcome)
    })
}

/// One keep-alive v1 connection: requests are serialized (the line
/// protocol answers in order), but the TCP connect and its latency are
/// paid once instead of per job.
fn drive_keepalive(
    addr: &str,
    share: &[(usize, &OpenLoopJob, &str)],
    options: &DriveOptions,
    started: Instant,
) -> Result<DriveOutcome, ClientError> {
    let mut conn = Connection::connect(addr)?;
    conn.set_read_timeout(options.read_timeout)?;
    let mut outcome = DriveOutcome::default();
    for (job_index, job, line) in share {
        if !options.deterministic {
            pace(started, job.at_us);
        }
        let submitted_at = Instant::now();
        match conn.request(line) {
            Ok(response) => {
                if !options.deterministic {
                    outcome.latencies_us.push(submitted_at.elapsed().as_micros() as u64);
                }
                outcome.absorb_response(*job_index, &response);
            }
            Err(_) => {
                outcome.absorb_transport_error(*job_index);
                // The line protocol cannot resync after a fault; dial a
                // fresh connection for the remaining jobs.
                match Connection::connect(addr) {
                    Ok(fresh) => {
                        let _ = fresh.set_read_timeout(options.read_timeout);
                        conn = fresh;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_schedule_is_a_pure_function_of_its_seed() {
        let a = schedule(7, 50, 200.0, 1.0, 4);
        let b = schedule(7, 50, 200.0, 1.0, 4);
        assert_eq!(a, b);
        let c = schedule(8, 50, 200.0, 1.0, 4);
        assert_ne!(a, c, "a different seed must move the schedule");
    }

    #[test]
    fn arrivals_are_monotone_and_match_the_offered_rate() {
        let jobs = schedule(42, 2000, 500.0, 0.0, 3);
        assert_eq!(jobs.len(), 2000);
        for pair in jobs.windows(2) {
            assert!(pair[0].at_us <= pair[1].at_us, "arrival times must be nondecreasing");
        }
        // 2000 arrivals at 500/s should span about 4 seconds; Poisson
        // noise at n=2000 stays well within ±20%.
        let span_s = jobs.last().unwrap().at_us as f64 / 1e6;
        assert!((3.2..=4.8).contains(&span_s), "span {span_s}s for 2000 jobs at 500/s");
    }

    #[test]
    fn zipf_skews_popularity_toward_rank_zero() {
        let jobs = schedule(1, 4000, 100.0, 1.5, 5);
        let mut counts = [0usize; 5];
        for j in &jobs {
            counts[j.scenario_index] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "every rank should appear: {counts:?}");
        for pair in counts.windows(2) {
            assert!(pair[0] > pair[1], "rank popularity must decrease: {counts:?}");
        }
        // At s=1.5 rank 0 carries roughly half the mass.
        assert!(counts[0] > jobs.len() / 3, "rank 0 got {} of {}", counts[0], jobs.len());
    }

    #[test]
    fn zipf_zero_is_uniform() {
        let jobs = schedule(9, 6000, 100.0, 0.0, 3);
        let mut counts = [0usize; 3];
        for j in &jobs {
            counts[j.scenario_index] += 1;
        }
        for &c in &counts {
            let share = c as f64 / jobs.len() as f64;
            assert!((0.28..=0.39).contains(&share), "uniform draw skewed: {counts:?}");
        }
    }

    #[test]
    fn percentiles_and_rates_handle_edges() {
        let empty = DriveOutcome::default();
        assert_eq!(empty.latency_percentile_us(99.0), 0);
        assert!((empty.queue_full_rate() - 0.0).abs() < f64::EPSILON);
        let outcome = DriveOutcome {
            ok: 3,
            queue_full: 1,
            latencies_us: vec![40, 10, 30, 20],
            ..DriveOutcome::default()
        };
        assert_eq!(outcome.latency_percentile_us(0.0), 10);
        assert_eq!(outcome.latency_percentile_us(100.0), 40);
        assert_eq!(outcome.latency_percentile_us(50.0), 30);
        assert!((outcome.queue_full_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn the_digest_ignores_arrival_order() {
        let a = Json::parse(r#"{"ok":true,"report":{"cycles":1}}"#).unwrap();
        let b = Json::parse(r#"{"ok":true,"report":{"cycles":2}}"#).unwrap();
        let mut in_order = DriveOutcome::default();
        in_order.absorb_response(0, &a);
        in_order.absorb_response(1, &b);
        let mut reversed = DriveOutcome::default();
        reversed.absorb_response(1, &b);
        reversed.absorb_response(0, &a);
        assert_eq!(in_order.report_digest, reversed.report_digest);
        // …but a report landing on the wrong job index is visible.
        let mut swapped = DriveOutcome::default();
        swapped.absorb_response(1, &a);
        swapped.absorb_response(0, &b);
        assert_ne!(in_order.report_digest, swapped.report_digest);
    }
}
