//! Per-backend bookkeeping: liveness and pool geometry learned from
//! probes, the coordinator-tracked in-flight count, and the
//! sliding-window failure throttle.
//!
//! The throttle is the fleet-level analogue of the paper's death-rate
//! division throttle (§4.2): the hardware counts recent worker deaths in
//! a sliding cycle window and denies divisions while the count is above
//! a threshold. Here the coordinator counts recent *dispatch failures*
//! per backend in a sliding wall-clock window and stops routing jobs to
//! a backend while its count is above the threshold — the backend gets a
//! quiet period to recover instead of a retry storm.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Recent-failure counter over a sliding wall-clock window.
///
/// Time is passed in explicitly (`now`) so the policy is testable
/// without sleeping.
#[derive(Debug)]
pub struct FailureWindow {
    window: Duration,
    threshold: usize,
    failures: VecDeque<Instant>,
}

impl FailureWindow {
    /// A window of `window` duration that throttles at `threshold`
    /// failures. `threshold == 0` disables throttling entirely.
    pub fn new(window: Duration, threshold: usize) -> FailureWindow {
        FailureWindow { window, threshold, failures: VecDeque::new() }
    }

    /// Records one failure observed at `now`.
    pub fn record(&mut self, now: Instant) {
        self.failures.push_back(now);
        // Cap memory even under a failure storm: only `threshold` recent
        // entries can ever matter (0 keeps a single entry for `count`).
        while self.failures.len() > self.threshold.max(1) * 2 {
            self.failures.pop_front();
        }
    }

    /// Failures within the window ending at `now`.
    pub fn count(&self, now: Instant) -> usize {
        self.failures.iter().filter(|&&t| now.duration_since(t) <= self.window).count()
    }

    /// True while the recent-failure count is at or above the threshold —
    /// dispatch must skip this backend until the window slides.
    pub fn throttled(&self, now: Instant) -> bool {
        self.threshold > 0 && self.count(now) >= self.threshold
    }
}

/// One downstream `capsule-serve` endpoint as the coordinator sees it.
#[derive(Debug)]
pub struct Backend {
    /// `HOST:PORT` of the backend.
    pub addr: String,
    /// Short stable name used in responses and stats (`b0`, `b1`, ...).
    pub name: String,
    /// False until a probe succeeds, and again after one fails; dead
    /// backends are skipped by dispatch until a probe revives them.
    pub alive: bool,
    /// Worker-pool size learned from the last successful probe.
    pub workers: usize,
    /// Jobs this coordinator currently has outstanding on the backend.
    pub in_flight: usize,
    /// Sliding-window dispatch-failure throttle.
    pub window: FailureWindow,
    /// Jobs ever dispatched to this backend.
    pub dispatched: u64,
    /// Dispatches answered with a usable response.
    pub completed: u64,
    /// Dispatches that failed and were retried elsewhere.
    pub failures: u64,
    /// Smoothed per-job round-trip in µs (α = 1/8), fed by
    /// [`Backend::observe_job`] at every usable response. Plain integer
    /// arithmetic — a `Backend` only lives under the coordinator's state
    /// mutex. 0 until the first observation.
    pub ewma_job_us: u64,
}

impl Backend {
    /// A backend starting dead (the first probe round brings it up).
    pub fn new(addr: String, index: usize, window: Duration, threshold: usize) -> Backend {
        Backend {
            addr,
            name: format!("b{index}"),
            alive: false,
            workers: 1,
            in_flight: 0,
            window: FailureWindow::new(window, threshold),
            dispatched: 0,
            completed: 0,
            failures: 0,
            ewma_job_us: 0,
        }
    }

    /// Feeds one finished job's round-trip time into the smoothed
    /// per-job estimate: the first sample seeds it, later samples move
    /// it by 1/8 of the error (never below 1µs, so a seeded estimate is
    /// distinguishable from the unseeded 0).
    pub fn observe_job(&mut self, job_us: u64) {
        if self.ewma_job_us == 0 {
            self.ewma_job_us = job_us.max(1);
        } else {
            let cur = self.ewma_job_us as i64;
            // Floored division so downward steps always make progress
            // (truncation would stall small estimates above the samples).
            let next = cur + (job_us as i64 - cur).div_euclid(8);
            self.ewma_job_us = next.max(1) as u64;
        }
    }

    /// Deterministic estimate of how long a new job would wait behind
    /// this backend's current load: outstanding jobs times the smoothed
    /// job time, divided across the worker pool. Pure arithmetic over
    /// the coordinator's own bookkeeping — two calls with the same
    /// history agree exactly, which is what lets `health` rank backends
    /// reproducibly.
    pub fn predicted_wait_us(&self) -> u64 {
        (self.in_flight as u64).saturating_mul(self.ewma_job_us.max(1)) / self.workers.max(1) as u64
    }

    /// True when a new job can start on the backend right now: it is
    /// alive and has a worker slot not already occupied by one of ours.
    /// The free-worker probe mirrors the paper's "divide only if a
    /// context is free": grant while capacity exists, queue otherwise.
    pub fn has_free_slot(&self) -> bool {
        self.alive && self.in_flight < self.workers.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throttle_trips_at_threshold_and_decays_with_the_window() {
        let mut w = FailureWindow::new(Duration::from_millis(100), 3);
        let t0 = Instant::now();
        assert!(!w.throttled(t0));
        w.record(t0);
        w.record(t0 + Duration::from_millis(10));
        assert!(!w.throttled(t0 + Duration::from_millis(10)), "below threshold");
        w.record(t0 + Duration::from_millis(20));
        assert!(w.throttled(t0 + Duration::from_millis(20)), "at threshold");
        // 90ms later the first two failures have aged out of the window.
        let later = t0 + Duration::from_millis(115);
        assert_eq!(w.count(later), 1);
        assert!(!w.throttled(later), "window slid past the burst");
    }

    #[test]
    fn zero_threshold_never_throttles() {
        let mut w = FailureWindow::new(Duration::from_secs(10), 0);
        let t0 = Instant::now();
        for i in 0..20 {
            w.record(t0 + Duration::from_millis(i));
        }
        assert!(!w.throttled(t0 + Duration::from_millis(20)));
    }

    #[test]
    fn failure_storm_keeps_bounded_memory() {
        let mut w = FailureWindow::new(Duration::from_secs(10), 3);
        let t0 = Instant::now();
        for i in 0..10_000u64 {
            w.record(t0 + Duration::from_micros(i));
        }
        assert!(w.failures.len() <= 6);
        assert!(w.throttled(t0 + Duration::from_millis(100)));
    }

    #[test]
    fn free_slot_needs_liveness_and_capacity() {
        let mut b = Backend::new("127.0.0.1:9".into(), 0, Duration::from_secs(1), 3);
        assert_eq!(b.name, "b0");
        assert!(!b.has_free_slot(), "dead backends have no slots");
        b.alive = true;
        b.workers = 2;
        assert!(b.has_free_slot());
        b.in_flight = 2;
        assert!(!b.has_free_slot(), "pool full");
        b.workers = 0; // unprobed geometry still admits one probe job
        b.in_flight = 0;
        assert!(b.has_free_slot());
    }

    #[test]
    fn job_ewma_seeds_then_smooths_and_never_returns_to_zero() {
        let mut b = Backend::new("127.0.0.1:9".into(), 0, Duration::from_secs(1), 3);
        assert_eq!(b.ewma_job_us, 0, "unseeded");
        b.observe_job(800);
        assert_eq!(b.ewma_job_us, 800, "first sample seeds");
        b.observe_job(0);
        assert_eq!(b.ewma_job_us, 700, "moves by 1/8 of the error");
        for _ in 0..200 {
            b.observe_job(0);
        }
        assert_eq!(b.ewma_job_us, 1, "floors at 1µs once seeded");
    }

    #[test]
    fn predicted_wait_scales_with_load_and_pool_size() {
        let mut b = Backend::new("127.0.0.1:9".into(), 0, Duration::from_secs(1), 3);
        b.alive = true;
        b.workers = 2;
        assert_eq!(b.predicted_wait_us(), 0, "idle backend predicts zero");
        b.observe_job(8000);
        b.in_flight = 3;
        assert_eq!(b.predicted_wait_us(), 3 * 8000 / 2);
        b.workers = 0; // unprobed geometry counts as one worker
        assert_eq!(b.predicted_wait_us(), 3 * 8000);
        b.ewma_job_us = 0; // unseeded estimate still ranks loaded > idle
        assert_eq!(b.predicted_wait_us(), 3);
    }
}
