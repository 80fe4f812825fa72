//! Open-loop arrival schedules: Poisson arrivals with Zipf scenario
//! popularity.
//!
//! Closed-loop load measures a server that is never offered more work
//! than it has just finished, so latency under load is invisible. An
//! open-loop schedule offers work at a *fixed rate* regardless of
//! completions: arrivals are Poisson (exponential inter-arrival times at
//! `rate` requests/second) and each arrival picks a scenario by Zipf
//! rank, so a few scenarios dominate the way a real job mix does and the
//! result cache sees realistic skew. Everything is seeded through
//! [`capsule_core::rng`], so a schedule is a pure function of
//! `(seed, jobs, rate, zipf_s, scenarios)`.
//!
//! This module only builds schedules. The benchmark under `capsbench/`
//! replays them and times each request from its scheduled arrival, so a
//! slow reply cannot hide the requests queued behind it; the e2e tests
//! replay one over both protocols to pin that every job index answers
//! the same bytes.

use capsule_core::rng::{Rng, Xoshiro256StarStar};

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
}
