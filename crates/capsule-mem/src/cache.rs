//! A set-associative cache with true-LRU replacement and a simple port
//! model.
//!
//! The timing model is intentionally SimpleScalar-like: an access pays the
//! level's hit latency, plus a port-queuing delay when more than `ports`
//! accesses arrive in one cycle, plus the lower level's latency on a miss.
//! Lines are allocated on both read and write misses (write-allocate);
//! write-back traffic is not separately charged (documented simplification
//! in DESIGN.md).

use capsule_core::codec::{CodecError, Reader, Writer};
use capsule_core::config::CacheParams;

/// Hit/miss counters of one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio in [0, 1].
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    tag: u64,
    last_use: u64,
}

/// Precomputed address-decomposition strides: shift/mask when both the
/// line size and the set count are powers of two (every geometry in the
/// paper's Table 1 is), div/mod otherwise. Both paths decompose an
/// address into the identical `(set, tag)` pair.
#[derive(Debug, Clone, Copy)]
enum Geometry {
    Pow2 {
        /// `log2(line_bytes)`.
        line_shift: u32,
        /// `num_sets - 1`.
        set_mask: u64,
        /// `log2(num_sets)`.
        set_shift: u32,
    },
    General {
        line_bytes: u64,
        num_sets: u64,
    },
}

impl Geometry {
    fn new(line_bytes: u64, num_sets: u64) -> Self {
        if line_bytes.is_power_of_two() && num_sets.is_power_of_two() {
            Geometry::Pow2 {
                line_shift: line_bytes.trailing_zeros(),
                set_mask: num_sets - 1,
                set_shift: num_sets.trailing_zeros(),
            }
        } else {
            Geometry::General { line_bytes, num_sets }
        }
    }

    /// `(set, tag)` of an address.
    fn decompose(self, addr: u64) -> (usize, u64) {
        match self {
            Geometry::Pow2 { line_shift, set_mask, set_shift } => {
                let line = addr >> line_shift;
                ((line & set_mask) as usize, line >> set_shift)
            }
            Geometry::General { line_bytes, num_sets } => {
                let line = addr / line_bytes;
                ((line % num_sets) as usize, line / num_sets)
            }
        }
    }
}

/// One cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    params: CacheParams,
    geometry: Geometry,
    sets: Vec<Vec<Line>>,
    stats: CacheStats,
    use_clock: u64,
    // Port accounting for the current cycle.
    port_cycle: u64,
    port_used: usize,
}

/// An empty cache with no sets and no storage. It serves no access; it
/// is what [`std::mem::take`] leaves behind when a cache's owner moves it
/// out for reuse.
impl Default for Cache {
    fn default() -> Self {
        Cache {
            params: CacheParams { size_bytes: 0, line_bytes: 0, assoc: 0, latency: 0, ports: 0 },
            geometry: Geometry::General { line_bytes: 0, num_sets: 0 },
            sets: Vec::new(),
            stats: CacheStats::default(),
            use_clock: 0,
            port_cycle: 0,
            port_used: 0,
        }
    }
}

impl Cache {
    /// Builds a cache from its parameters.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry (see [`CacheParams::num_sets`]).
    pub fn new(params: CacheParams) -> Self {
        let sets = vec![vec![Line::default(); params.assoc]; params.num_sets()];
        let geometry = Geometry::new(params.line_bytes as u64, sets.len() as u64);
        Cache {
            params,
            geometry,
            sets,
            stats: CacheStats::default(),
            use_clock: 0,
            port_cycle: 0,
            port_used: 0,
        }
    }

    /// The geometry this cache was built with.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_index(&self, addr: u64) -> (usize, u64) {
        self.geometry.decompose(addr)
    }

    /// Looks up `addr`, allocating the line on a miss. Returns `true` on a
    /// hit. Does not include port accounting; see [`Cache::port_delay`].
    pub fn access(&mut self, addr: u64) -> bool {
        self.use_clock += 1;
        self.stats.accesses += 1;
        let (set, tag) = self.set_index(addr);
        let lines = &mut self.sets[set];
        if let Some(l) = lines.iter_mut().find(|l| l.valid && l.tag == tag) {
            l.last_use = self.use_clock;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        // Choose the invalid way, else true-LRU victim.
        let victim = match lines.iter().position(|l| !l.valid) {
            Some(i) => i,
            None => {
                let (i, _) =
                    lines.iter().enumerate().min_by_key(|(_, l)| l.last_use).expect("assoc > 0");
                i
            }
        };
        lines[victim] = Line { valid: true, tag, last_use: self.use_clock };
        false
    }

    /// Non-allocating probe: would `addr` hit right now?
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_index(addr);
        self.sets[set].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Extra cycles an access starting at `now` waits for a free port.
    ///
    /// With `p` ports, the `k`-th access of one cycle waits `k / p` cycles.
    pub fn port_delay(&mut self, now: u64) -> u64 {
        if self.port_cycle != now {
            self.port_cycle = now;
            self.port_used = 0;
        }
        let delay = (self.port_used / self.params.ports) as u64;
        self.port_used += 1;
        delay
    }

    /// Hit latency of this level.
    pub fn latency(&self) -> u64 {
        self.params.latency
    }

    /// Number of currently valid lines (for invariants/tests).
    pub fn valid_lines(&self) -> usize {
        self.sets.iter().flatten().filter(|l| l.valid).count()
    }

    /// Total line capacity.
    pub fn capacity_lines(&self) -> usize {
        self.sets.len() * self.params.assoc
    }

    /// Drops all contents and statistics.
    pub fn reset(&mut self) {
        for set in &mut self.sets {
            for l in set {
                *l = Line::default();
            }
        }
        self.stats = CacheStats::default();
        self.use_clock = 0;
        self.port_cycle = 0;
        self.port_used = 0;
    }

    /// Serializes contents, statistics and port state for checkpoints.
    /// Geometry is not written; it is rebuilt from the parameters the
    /// receiving cache was constructed with.
    pub fn encode(&self, w: &mut Writer) {
        w.usize(self.sets.len());
        w.usize(self.params.assoc);
        for set in &self.sets {
            for l in set {
                w.bool(l.valid);
                w.u64(l.tag);
                w.u64(l.last_use);
            }
        }
        w.u64(self.stats.accesses);
        w.u64(self.stats.hits);
        w.u64(self.stats.misses);
        w.u64(self.use_clock);
        w.u64(self.port_cycle);
        w.usize(self.port_used);
    }

    /// Restores state written by [`Cache::encode`] into a cache of the
    /// same geometry.
    ///
    /// # Errors
    ///
    /// [`CodecError::Invalid`] when the recorded geometry does not match
    /// this cache, or on truncated/ill-formed input.
    pub fn decode_into(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        let sets = r.usize()?;
        let assoc = r.usize()?;
        if sets != self.sets.len() || assoc != self.params.assoc {
            return Err(CodecError::Invalid("cache geometry mismatch"));
        }
        for set in &mut self.sets {
            for l in set {
                l.valid = r.bool()?;
                l.tag = r.u64()?;
                l.last_use = r.u64()?;
            }
        }
        self.stats.accesses = r.u64()?;
        self.stats.hits = r.u64()?;
        self.stats.misses = r.u64()?;
        self.use_clock = r.u64()?;
        self.port_cycle = r.u64()?;
        self.port_used = r.usize()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512 B.
        Cache::new(CacheParams { size_bytes: 512, line_bytes: 64, assoc: 2, latency: 1, ports: 1 })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x13f)); // same 64B line
        assert!(!c.access(0x140)); // next line
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to the same set (stride = sets * line = 256).
        let (a, b, d) = (0x000, 0x100, 0x200);
        c.access(a);
        c.access(b);
        c.access(a); // a is now MRU
        assert!(!c.access(d)); // evicts b
        assert!(c.access(a));
        assert!(!c.access(b)); // b was the victim
    }

    #[test]
    fn probe_does_not_allocate() {
        let mut c = tiny();
        assert!(!c.probe(0x40));
        assert!(!c.access(0x40));
        assert!(c.probe(0x40));
        assert_eq!(c.stats().accesses, 1);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = tiny();
        for i in 0..1000 {
            c.access(i * 64);
        }
        assert!(c.valid_lines() <= c.capacity_lines());
        assert_eq!(c.valid_lines(), c.capacity_lines()); // fully warm
    }

    #[test]
    fn working_set_within_capacity_always_hits_after_warmup() {
        let mut c = tiny();
        let lines: Vec<u64> = (0..8).map(|i| i * 64).collect(); // exactly capacity
        for &a in &lines {
            c.access(a);
        }
        for _ in 0..3 {
            for &a in &lines {
                assert!(c.access(a));
            }
        }
    }

    #[test]
    fn port_delay_queues_oversubscription() {
        let mut c = Cache::new(CacheParams {
            size_bytes: 512,
            line_bytes: 64,
            assoc: 2,
            latency: 1,
            ports: 2,
        });
        assert_eq!(c.port_delay(10), 0);
        assert_eq!(c.port_delay(10), 0);
        assert_eq!(c.port_delay(10), 1); // third access in one cycle waits
        assert_eq!(c.port_delay(10), 1);
        assert_eq!(c.port_delay(10), 2);
        assert_eq!(c.port_delay(11), 0); // new cycle resets
    }

    #[test]
    fn pow2_geometry_decomposes_like_div_mod() {
        // The shift/mask fast path must produce the exact (set, tag)
        // pairs of the general div/mod path for pow2 geometry.
        let fast = Geometry::new(64, 4);
        assert!(matches!(fast, Geometry::Pow2 { .. }));
        let slow = Geometry::General { line_bytes: 64, num_sets: 4 };
        for addr in [0, 1, 63, 64, 255, 256, 0x100, 0x13f, 0xdead_beef, u64::MAX, u64::MAX - 4095] {
            assert_eq!(fast.decompose(addr), slow.decompose(addr), "addr {addr:#x}");
        }
    }

    #[test]
    fn non_pow2_set_count_falls_back_to_div_mod() {
        // 3 sets x 2 ways: not a pow2 set count, must use the general path
        // and still behave as a correct set-associative cache.
        let mut c = Cache::new(CacheParams {
            size_bytes: 384,
            line_bytes: 64,
            assoc: 2,
            latency: 1,
            ports: 1,
        });
        assert!(matches!(c.geometry, Geometry::General { .. }));
        assert_eq!(c.sets.len(), 3);
        // Lines 0 and 3 share set 0 (line % 3); line 1 does not.
        assert!(!c.access(0));
        assert!(!c.access(3 * 64));
        assert!(c.access(0));
        assert!(c.access(3 * 64));
        assert!(!c.access(64));
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn lru_victim_is_oldest_among_valid_ways() {
        // 4-way set; touch a,b,c,d then re-touch in order d,a,c. The next
        // conflicting line must evict b (the least recently used), not the
        // lowest way or the first-filled way.
        let mut c = Cache::new(CacheParams {
            size_bytes: 1024,
            line_bytes: 64,
            assoc: 4,
            latency: 1,
            ports: 1,
        });
        let sets = c.sets.len() as u64; // 4
        let stride = sets * 64;
        let (a, b, d, e, f) = (0, stride, 2 * stride, 3 * stride, 4 * stride);
        for addr in [a, b, d, e] {
            assert!(!c.access(addr));
        }
        for addr in [e, a, d] {
            assert!(c.access(addr));
        }
        assert!(!c.access(f)); // evicts b (LRU), not way 0 or first-filled
        assert!(!c.access(b)); // b really was the victim; this evicts e
        assert!(c.access(a)); // the recently used ways all survived
        assert!(c.access(d));
        assert!(c.access(f));
        assert!(!c.access(e)); // e was the second victim
    }

    #[test]
    fn port_contention_orders_by_arrival() {
        // One port: the k-th same-cycle access waits k cycles, strictly in
        // arrival order; a new cycle drains the queue model.
        let mut c = tiny();
        let delays: Vec<u64> = (0..4).map(|_| c.port_delay(100)).collect();
        assert_eq!(delays, vec![0, 1, 2, 3]);
        assert_eq!(c.port_delay(101), 0);
        // Going back in time (out-of-order stage interleaving across
        // threads) still resets per distinct cycle stamp.
        assert_eq!(c.port_delay(100), 0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny();
        c.access(0);
        c.reset();
        assert_eq!(c.stats(), CacheStats::default());
        assert_eq!(c.valid_lines(), 0);
    }

    #[test]
    fn miss_rate_math() {
        let s = CacheStats { accesses: 10, hits: 7, misses: 3 };
        assert!((s.miss_rate() - 0.3).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }
}
