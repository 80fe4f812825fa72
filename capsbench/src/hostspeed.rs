//! Host-speed calibration.
//!
//! The shared host this benchmark is built for changes speed by up to
//! 1.8x within a run and between runs minutes apart (other tenants on
//! the same cores and caches), so neither the fastest nor the median
//! repetition of a run escapes it. A fixed calibration kernel — code of
//! this benchmark, which no change to the program touches — is therefore
//! timed next to the work, and every host time the benchmark reports is
//! scaled to what it would be on a host where the kernel takes
//! [`REFERENCE_KERNEL_S`]: a time `t` measured when the kernel took `k`
//! reports as `t × REFERENCE_KERNEL_S / k`, with `k` the median of the
//! kernel samples nearest in time. A change that makes the program
//! faster moves the scaled times as much as the raw ones; a change of
//! host speed moves the kernel with them. See README.md for the
//! measurements behind it.

use std::hint::black_box;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Kernel time on the reference host, which defines the unit of every
/// scaled time (about the fastest this host runs the kernel).
pub const REFERENCE_KERNEL_S: f64 = 0.003;

/// Working set of the kernel: 4 MiB. Of kernels over 256 KiB, 4 MiB and
/// 32 MiB, and one of sorting and map operations, the 4 MiB one tracked
/// the simulator's slowdowns best: its time moved in proportion (a
/// log-log slope of 1.02 over 64 rounds of the sim-batch mix), while
/// the 256 KiB one moved only 1/1.6 as much.
const WORDS: usize = 1 << 19;

/// Kernel steps per sample: 3–5 ms on the host described in README.md.
const STEPS: u64 = 200_000;

/// How many samples nearest in time a scale factor is the median of.
const NEAREST: usize = 5;

/// A fixed pseudo-random mix of dependent loads, stores, multiplies and
/// data-dependent branches over [`WORDS`] words, in a loop no program
/// change can alter.
fn kernel(mem: &mut [u64]) -> u64 {
    let mask = mem.len() - 1;
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut acc = 0u64;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let a = (x as usize) & mask;
        match x >> 61 {
            0 => mem[a] = mem[a].wrapping_add(acc),
            1 => acc ^= mem[a],
            2 => acc = acc.wrapping_mul(mem[a] | 1),
            3 => {
                let b = (acc as usize) & mask;
                mem[b] = mem[a] ^ i;
            }
            4 => {
                if mem[a] & 1 == 0 {
                    acc = acc.wrapping_add(3);
                } else {
                    acc = acc.rotate_left(5);
                }
            }
            5 => mem.swap(a, (a * 7 + 1) & mask),
            _ => acc = acc.wrapping_add(x >> 3),
        }
    }
    acc
}

/// The kernel's memory and its samples of one run, with when each was
/// taken.
pub struct HostSpeed {
    mem: Mutex<Vec<u64>>,
    samples: Mutex<Vec<(Instant, f64)>>,
}

/// Process CPU time over a phase, less the kernel samples taken in it.
pub struct CpuClock {
    at: Instant,
    cpu_s: f64,
    kernel_s: f64,
}

impl CpuClock {
    pub fn start(speed: &HostSpeed) -> CpuClock {
        CpuClock { at: Instant::now(), cpu_s: process_cpu_s(), kernel_s: speed.sampled_s() }
    }

    /// CPU seconds of work since the start (all threads, kernel samples
    /// taken out), scaled to the reference host by the samples taken
    /// meanwhile.
    pub fn scaled_s(&self, speed: &HostSpeed) -> f64 {
        let cpu = process_cpu_s() - self.cpu_s - (speed.sampled_s() - self.kernel_s);
        cpu * speed.scale_over(self.at, Instant::now())
    }
}

impl HostSpeed {
    /// Allocates the kernel's memory and touches all of it, so no sample
    /// pays for first-touch page faults.
    pub fn new() -> HostSpeed {
        HostSpeed { mem: Mutex::new(vec![1; WORDS]), samples: Mutex::new(Vec::new()) }
    }

    /// Times one kernel pass now and records it.
    pub fn sample(&self) {
        let mut mem = self.mem.lock().unwrap_or_else(PoisonError::into_inner);
        mem.fill(0);
        let t = Instant::now();
        black_box(kernel(black_box(&mut mem)));
        let secs = t.elapsed().as_secs_f64();
        let at = Instant::now();
        self.samples.lock().unwrap_or_else(PoisonError::into_inner).push((at, secs));
    }

    /// The factor that scales a host time measured around `at` to the
    /// reference host (1 when no sample was taken).
    pub fn scale_at(&self, at: Instant) -> f64 {
        let samples = self.samples.lock().unwrap_or_else(PoisonError::into_inner);
        let mut near: Vec<(f64, f64)> = samples
            .iter()
            .map(|&(t, k)| {
                let d = if t > at { t - at } else { at - t };
                (d.as_secs_f64(), k)
            })
            .collect();
        near.sort_by(|a, b| a.0.total_cmp(&b.0));
        near.truncate(NEAREST);
        let ks: Vec<f64> = near.iter().map(|&(_, k)| k).collect();
        if ks.is_empty() {
            1.0
        } else {
            REFERENCE_KERNEL_S / crate::stats::median(&ks)
        }
    }

    /// The factor that scales host time spent between `from` and `to`
    /// to the reference host: from the median of the samples taken in
    /// that span, or those nearest its middle if it holds fewer than
    /// five.
    pub fn scale_over(&self, from: Instant, to: Instant) -> f64 {
        let within: Vec<f64> = {
            let samples = self.samples.lock().unwrap_or_else(PoisonError::into_inner);
            samples.iter().filter(|&&(t, _)| t >= from && t <= to).map(|&(_, k)| k).collect()
        };
        if within.len() < NEAREST {
            return self.scale_at(from + (to - from) / 2);
        }
        REFERENCE_KERNEL_S / crate::stats::median(&within)
    }

    /// Seconds spent in kernel samples so far.
    pub fn sampled_s(&self) -> f64 {
        let samples = self.samples.lock().unwrap_or_else(PoisonError::into_inner);
        samples.iter().map(|&(_, k)| k).sum()
    }

    /// Median kernel time over the run, in seconds (0 with no samples).
    pub fn median_kernel_s(&self) -> f64 {
        let samples = self.samples.lock().unwrap_or_else(PoisonError::into_inner);
        crate::stats::median(&samples.iter().map(|&(_, k)| k).collect::<Vec<_>>())
    }
}

/// CPU time this process has used so far, all threads, user and
/// system, in seconds (`/proc/self/stat`, 10 ms ticks); 0 where it
/// cannot be read.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is the first,
    // utime and stime the 12th and 13th.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let field = |i: usize| rest.split_whitespace().nth(i).and_then(|v| v.parse::<f64>().ok());
    match (field(11), field(12)) {
        (Some(user), Some(system)) => (user + system) / 100.0,
        _ => 0.0,
    }
}
