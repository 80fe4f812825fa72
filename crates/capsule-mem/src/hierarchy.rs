//! The Table 1 memory hierarchy: split L1 I/D caches over a unified L2
//! over flat main memory.

use capsule_core::codec::{CodecError, Reader, Writer};
use capsule_core::config::MachineConfig;

use crate::cache::{Cache, CacheStats};

/// Which levels served an access (for statistics and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// L1 hit.
    L1,
    /// L1 miss, L2 hit.
    L2,
    /// Missed both caches; served by main memory.
    Memory,
}

/// Result of a timed access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Total latency in cycles (port queuing included).
    pub latency: u64,
    /// Deepest level that had to serve the access.
    pub served_by: ServedBy,
}

/// The full hierarchy. On a CMP configuration every core owns private
/// L1 caches and all cores share the unified L2 (the paper's
/// shared-memory CMP extrapolation in §5).
///
/// `Hierarchy::default()` is an empty stand-in with no cores and no
/// storage, left behind when an owner moves its hierarchy out for
/// reuse; it serves no access.
#[derive(Debug, Clone, Default)]
pub struct Hierarchy {
    l1i: Vec<Cache>,
    l1d: Vec<Cache>,
    l2: Cache,
    mem_latency: u64,
    mem_accesses: u64,
}

impl Hierarchy {
    /// Builds the single-core (SMT) hierarchy described by `cfg`.
    pub fn new(cfg: &MachineConfig) -> Self {
        Self::new_cmp(cfg, 1)
    }

    /// Builds a CMP hierarchy: `cores` pairs of private L1s over one
    /// shared L2.
    pub fn new_cmp(cfg: &MachineConfig, cores: usize) -> Self {
        assert!(cores >= 1);
        Hierarchy {
            l1i: (0..cores).map(|_| Cache::new(cfg.l1i)).collect(),
            l1d: (0..cores).map(|_| Cache::new(cfg.l1d)).collect(),
            l2: Cache::new(cfg.l2),
            mem_latency: cfg.mem_latency,
            mem_accesses: 0,
        }
    }

    /// Number of cores (private L1 pairs).
    pub fn cores(&self) -> usize {
        self.l1d.len()
    }

    fn access_through(
        l1: &mut Cache,
        l2: &mut Cache,
        mem_latency: u64,
        mem_accesses: &mut u64,
        addr: u64,
        now: u64,
    ) -> Access {
        let mut latency = l1.port_delay(now) + l1.latency();
        if l1.access(addr) {
            return Access { latency, served_by: ServedBy::L1 };
        }
        latency += l2.port_delay(now) + l2.latency();
        if l2.access(addr) {
            return Access { latency, served_by: ServedBy::L2 };
        }
        *mem_accesses += 1;
        latency += mem_latency;
        Access { latency, served_by: ServedBy::Memory }
    }

    /// Timed data access (load or store) at byte address `addr`, core 0.
    pub fn access_data(&mut self, addr: u64, now: u64) -> Access {
        self.access_data_on(0, addr, now)
    }

    /// Timed data access through `core`'s private L1-D.
    pub fn access_data_on(&mut self, core: usize, addr: u64, now: u64) -> Access {
        Self::access_through(
            &mut self.l1d[core],
            &mut self.l2,
            self.mem_latency,
            &mut self.mem_accesses,
            addr,
            now,
        )
    }

    /// Timed instruction-fetch access at byte address `addr`, core 0.
    pub fn access_instr(&mut self, addr: u64, now: u64) -> Access {
        self.access_instr_on(0, addr, now)
    }

    /// Timed instruction fetch through `core`'s private L1-I.
    pub fn access_instr_on(&mut self, core: usize, addr: u64, now: u64) -> Access {
        Self::access_through(
            &mut self.l1i[core],
            &mut self.l2,
            self.mem_latency,
            &mut self.mem_accesses,
            addr,
            now,
        )
    }

    fn sum(stats: impl Iterator<Item = CacheStats>) -> CacheStats {
        stats.fold(CacheStats::default(), |a, s| CacheStats {
            accesses: a.accesses + s.accesses,
            hits: a.hits + s.hits,
            misses: a.misses + s.misses,
        })
    }

    /// L1-I statistics, summed over cores.
    pub fn l1i_stats(&self) -> CacheStats {
        Self::sum(self.l1i.iter().map(Cache::stats))
    }

    /// L1-D statistics, summed over cores.
    pub fn l1d_stats(&self) -> CacheStats {
        Self::sum(self.l1d.iter().map(Cache::stats))
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Main-memory accesses.
    pub fn mem_accesses(&self) -> u64 {
        self.mem_accesses
    }

    /// Configured main-memory latency.
    pub fn mem_latency(&self) -> u64 {
        self.mem_latency
    }

    /// Line size shared by all levels.
    pub fn line_bytes(&self) -> u64 {
        self.l1d[0].params().line_bytes as u64
    }

    /// True when this hierarchy has the shape `cfg` asks for: the same
    /// core count, cache geometries and memory latency. After
    /// [`Hierarchy::reset`] such a hierarchy is indistinguishable from
    /// `Hierarchy::new_cmp(cfg, cfg.cores)`.
    pub fn fits(&self, cfg: &MachineConfig) -> bool {
        self.l1d.len() == cfg.cores
            && self.l1i.iter().all(|c| *c.params() == cfg.l1i)
            && self.l1d.iter().all(|c| *c.params() == cfg.l1d)
            && *self.l2.params() == cfg.l2
            && self.mem_latency == cfg.mem_latency
    }

    /// Drops contents and statistics of every level.
    pub fn reset(&mut self) {
        for c in self.l1i.iter_mut().chain(self.l1d.iter_mut()) {
            c.reset();
        }
        self.l2.reset();
        self.mem_accesses = 0;
    }

    /// Serializes every level's contents plus the memory-access counter
    /// for checkpoints.
    pub fn encode(&self, w: &mut Writer) {
        w.usize(self.l1d.len());
        for c in self.l1i.iter().chain(self.l1d.iter()) {
            c.encode(w);
        }
        self.l2.encode(w);
        w.u64(self.mem_accesses);
    }

    /// Restores state written by [`Hierarchy::encode`] into a hierarchy
    /// built from the same configuration.
    ///
    /// # Errors
    ///
    /// [`CodecError::Invalid`] on core-count or cache-geometry mismatch,
    /// or on truncated/ill-formed input.
    pub fn decode_into(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        let cores = r.usize()?;
        if cores != self.l1d.len() {
            return Err(CodecError::Invalid("hierarchy core count mismatch"));
        }
        for c in self.l1i.iter_mut().chain(self.l1d.iter_mut()) {
            c.decode_into(r)?;
        }
        self.l2.decode_into(r)?;
        self.mem_accesses = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> Hierarchy {
        Hierarchy::new(&MachineConfig::table1_somt())
    }

    #[test]
    fn cold_access_goes_to_memory() {
        let mut m = h();
        let a = m.access_data(0x1_0000, 0);
        assert_eq!(a.served_by, ServedBy::Memory);
        // 1 (L1) + 12 (L2) + 200 (mem) = 213 with no port queuing.
        assert_eq!(a.latency, 1 + 12 + 200);
    }

    #[test]
    fn warm_access_hits_l1() {
        let mut m = h();
        m.access_data(0x1_0000, 0);
        let a = m.access_data(0x1_0008, 1);
        assert_eq!(a.served_by, ServedBy::L1);
        assert_eq!(a.latency, 1);
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut m = h();
        m.access_data(0, 0);
        // Walk far past L1 capacity (8 kB) but inside L2 (1 MB).
        for i in 1..1000u64 {
            m.access_data(i * 64, i);
        }
        let a = m.access_data(0, 2000);
        assert_eq!(a.served_by, ServedBy::L2);
        assert_eq!(a.latency, 1 + 12);
    }

    #[test]
    fn instruction_and_data_paths_are_split() {
        let mut m = h();
        m.access_instr(0x2000, 0);
        assert_eq!(m.l1i_stats().accesses, 1);
        assert_eq!(m.l1d_stats().accesses, 0);
        // Same address via the data path still misses L1D but hits L2.
        let a = m.access_data(0x2000, 1);
        assert_eq!(a.served_by, ServedBy::L2);
    }

    #[test]
    fn mem_access_counter() {
        let mut m = h();
        m.access_data(0, 0);
        m.access_data(1 << 21, 0); // far away, cold
        assert_eq!(m.mem_accesses(), 2);
        m.access_data(0, 1);
        assert_eq!(m.mem_accesses(), 2);
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut m = h();
        m.access_data(0, 0);
        m.reset();
        assert_eq!(m.l1d_stats().accesses, 0);
        assert_eq!(m.access_data(0, 0).served_by, ServedBy::Memory);
    }

    #[test]
    fn port_queuing_adds_latency_same_cycle() {
        let mut m = h();
        // Warm one line.
        m.access_data(0x3000, 0);
        // L1D has 2 ports: the 3rd access in cycle 5 waits one cycle.
        assert_eq!(m.access_data(0x3000, 5).latency, 1);
        assert_eq!(m.access_data(0x3000, 5).latency, 1);
        assert_eq!(m.access_data(0x3000, 5).latency, 2);
    }
}

#[cfg(test)]
mod cmp_tests {
    use super::*;

    #[test]
    fn cmp_cores_have_private_l1s_over_a_shared_l2() {
        let mut m = Hierarchy::new_cmp(&MachineConfig::table1_somt(), 2);
        assert_eq!(m.cores(), 2);
        // Core 0 warms a line; core 1 still misses its private L1 but
        // hits the shared L2.
        m.access_data_on(0, 0x5000, 0);
        let a = m.access_data_on(1, 0x5000, 1);
        assert_eq!(a.served_by, ServedBy::L2);
        // Aggregate stats sum both cores.
        assert_eq!(m.l1d_stats().accesses, 2);
        assert_eq!(m.l1d_stats().misses, 2);
        assert_eq!(m.l2_stats().hits, 1);
        assert_eq!(m.mem_accesses(), 1);
    }
}
