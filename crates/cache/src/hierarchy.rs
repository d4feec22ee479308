//! The multi-level hierarchy: L1I + L1D, unified L2, unified L3.
//!
//! The model is a demand-fill, non-inclusive hierarchy: a miss at level *N*
//! probes level *N+1*, and the line is installed at every level on the way
//! back. A store allocates exactly like a load, and only demand accesses
//! and misses are counted (no write-back traffic is simulated), matching
//! the `allcache` Pintool's reported statistics.
//!
//! [`Hierarchy`] composes two parts that share no structure: the L1I
//! and the [`SharedHalf`] (L1D, L2, L3, prefetcher), which also takes the
//! L2/L3 tail of every L1I miss.

use crate::cache::{Cache, CacheConfig, CacheStats};

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// First-level instruction cache.
    L1I,
    /// First-level data cache.
    L1D,
    /// Unified second level.
    L2,
    /// Unified third level (LLC).
    L3,
    /// Main memory (missed every cache).
    Mem,
}

/// Configuration of the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Unified L3 (LLC).
    pub l3: CacheConfig,
    /// Main-memory latency in cycles (timing model input).
    pub mem_latency: u32,
    /// Next-line prefetch into L2 on L2 demand misses.
    pub next_line_prefetch: bool,
}

/// Counters for every structure in the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HierarchyStats {
    /// L1 instruction cache counters.
    pub l1i: CacheStats,
    /// L1 data cache counters.
    pub l1d: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// L3 counters.
    pub l3: CacheStats,
}

impl HierarchyStats {
    /// Accumulates another snapshot.
    pub fn merge(&mut self, other: &HierarchyStats) {
        self.l1i.merge(&other.l1i);
        self.l1d.merge(&other.l1d);
        self.l2.merge(&other.l2);
        self.l3.merge(&other.l3);
    }
}

/// Everything past the L1I: the L1D, the unified L2 and L3, the
/// next-line prefetcher, and the L2/L3 tail of an L1I miss.
///
/// The L1I shares no structure with this half, so a walk may probe the
/// L1I on one thread and drive this half on another, as long as this half
/// sees every L1I miss and data access in program order (the profiling
/// pass's two stages do).
#[derive(Debug, Clone)]
pub struct SharedHalf {
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    next_line_prefetch: bool,
}

impl SharedHalf {
    /// An empty L1D, L2 and L3 for `config`.
    pub fn new(config: &HierarchyConfig) -> Self {
        Self {
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            l3: Cache::new(config.l3),
            next_line_prefetch: config.next_line_prefetch,
        }
    }

    /// A data access, a load or a store alike. Returns the level that
    /// satisfied it. When `count` is false the access updates state but no
    /// counters (warmup).
    #[inline]
    pub fn access_data(&mut self, addr: u64, count: bool) -> Level {
        if self.l1d.access(addr, count) {
            return Level::L1D;
        }
        if self.l2.access(addr, count) {
            return Level::L2;
        }
        // L2 demand miss: optionally pull the next line into L2/L3 as an
        // uncounted prefetch (a simple next-line prefetcher).
        if self.next_line_prefetch {
            let next = addr + self.l2.config().line_bytes;
            if !self.l2.peek(next) {
                self.l2.access(next, false);
                self.l3.access(next, false);
            }
        }
        if self.l3.access(addr, count) {
            return Level::L3;
        }
        Level::Mem
    }

    /// The rest of an instruction fetch that missed the L1I: L2, then L3.
    /// Returns the level that satisfied it. The prefetcher does not fire
    /// on instruction misses.
    #[inline(always)]
    pub fn fetch_miss(&mut self, pc: u64, count: bool) -> Level {
        if self.l2.access(pc, count) {
            return Level::L2;
        }
        if self.l3.access(pc, count) {
            return Level::L3;
        }
        Level::Mem
    }

    /// The L1D, L2 and L3 counters; the L1I field is zero.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
            l3: self.l3.stats(),
            ..HierarchyStats::default()
        }
    }

    /// Resets counters, preserving contents.
    pub fn reset_stats(&mut self) {
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.l3.reset_stats();
    }
}

/// The simulated cache hierarchy: the L1I and a [`SharedHalf`] driven in
/// program order on one thread.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    config: HierarchyConfig,
    l1i: Cache,
    shared: SharedHalf,
    warmup: bool,
}

impl Hierarchy {
    /// Creates an empty hierarchy.
    pub fn new(config: HierarchyConfig) -> Self {
        Self {
            config,
            l1i: Cache::new(config.l1i),
            shared: SharedHalf::new(&config),
            warmup: false,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Enables or disables warmup mode. While enabled, accesses update
    /// cache state but no counters — used to prime caches before measuring
    /// a simulation point (paper §IV-D, "Warmup Regional Run").
    pub fn set_warmup(&mut self, warmup: bool) {
        self.warmup = warmup;
    }

    /// A data access, a load or a store alike. Returns the level that
    /// satisfied it.
    #[inline]
    pub fn access_data(&mut self, addr: u64) -> Level {
        self.shared.access_data(addr, !self.warmup)
    }

    /// An instruction fetch at `pc`. Returns the level that satisfied it.
    // The L1I probe sits in this body, not behind a wrapper, and
    // `fetch_miss` is always inlined: this runs on every instruction, and
    // a probe behind a plain `#[inline]` wrapper cost the serial
    // profiling walk 9 of 10 paired runs, by a few percent.
    #[inline]
    pub fn fetch(&mut self, pc: u64) -> Level {
        let count = !self.warmup;
        if self.l1i.access(pc, count) {
            return Level::L1I;
        }
        self.shared.fetch_miss(pc, count)
    }

    /// Latency, in cycles, of an access satisfied at `level` (timing-model
    /// helper; the L1 latency is charged even on hits).
    pub fn latency_of(&self, level: Level) -> u32 {
        match level {
            Level::L1I => self.config.l1i.latency,
            Level::L1D => self.config.l1d.latency,
            Level::L2 => self.config.l2.latency,
            Level::L3 => self.config.l3.latency,
            Level::Mem => self.config.mem_latency,
        }
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: self.l1i.stats(),
            ..self.shared.stats()
        }
    }

    /// Resets counters, preserving cache contents.
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.shared.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;

    #[test]
    fn miss_propagates_to_all_levels() {
        let mut h = Hierarchy::new(configs::allcache_table1());
        assert_eq!(h.access_data(0x100), Level::Mem);
        let s = h.stats();
        assert_eq!(s.l1d.misses, 1);
        assert_eq!(s.l2.misses, 1);
        assert_eq!(s.l3.misses, 1);
        // Second access hits L1D and never reaches L2/L3.
        assert_eq!(h.access_data(0x100), Level::L1D);
        let s = h.stats();
        assert_eq!(s.l2.accesses, 1);
        assert_eq!(s.l3.accesses, 1);
    }

    #[test]
    fn fetch_uses_instruction_side() {
        let mut h = Hierarchy::new(configs::allcache_table1());
        assert_eq!(h.fetch(0x40_0000), Level::Mem);
        assert_eq!(h.fetch(0x40_0000), Level::L1I);
        let s = h.stats();
        assert_eq!(s.l1i.accesses, 2);
        assert_eq!(s.l1d.accesses, 0);
    }

    #[test]
    fn warmup_fills_without_counting() {
        let mut h = Hierarchy::new(configs::allcache_table1());
        h.set_warmup(true);
        h.access_data(0x5000);
        h.set_warmup(false);
        let s = h.stats();
        assert_eq!(s.l1d.accesses, 0);
        assert_eq!(h.access_data(0x5000), Level::L1D);
    }

    #[test]
    fn l1_eviction_can_still_hit_l3() {
        // Walk a working set bigger than L1D (32 kB) but smaller than L3.
        let mut h = Hierarchy::new(configs::allcache_table1());
        let ws = 256 << 10;
        for addr in (0..ws).step_by(32) {
            h.access_data(addr);
        }
        h.reset_stats();
        // Second pass: misses L1D (capacity) but the L3 holds the set.
        for addr in (0..ws).step_by(32) {
            let lvl = h.access_data(addr);
            assert_ne!(lvl, Level::Mem, "L3 should hold the working set");
        }
        let s = h.stats();
        assert!(s.l1d.misses > 0, "L1D too small for the working set");
        assert_eq!(s.l3.misses, 0);
    }

    #[test]
    fn latencies_exposed() {
        let h = Hierarchy::new(configs::i7_table3());
        assert_eq!(h.latency_of(Level::L1D), 4);
        assert_eq!(h.latency_of(Level::L2), 10);
        assert_eq!(h.latency_of(Level::L3), 30);
        assert!(h.latency_of(Level::Mem) > 100);
    }

    #[test]
    fn stats_merge_adds() {
        let mut a = HierarchyStats::default();
        let mut b = HierarchyStats::default();
        b.l3.accesses = 10;
        b.l3.misses = 4;
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.l3.accesses, 20);
        assert_eq!(a.l3.misses, 8);
    }
}

impl sampsim_util::codec::Encode for HierarchyStats {
    fn encode(&self, enc: &mut sampsim_util::codec::Encoder) {
        self.l1i.encode(enc);
        self.l1d.encode(enc);
        self.l2.encode(enc);
        self.l3.encode(enc);
    }
}

impl sampsim_util::codec::Decode for HierarchyStats {
    fn decode(
        dec: &mut sampsim_util::codec::Decoder<'_>,
    ) -> Result<Self, sampsim_util::codec::DecodeError> {
        Ok(Self {
            l1i: crate::cache::CacheStats::decode(dec)?,
            l1d: crate::cache::CacheStats::decode(dec)?,
            l2: crate::cache::CacheStats::decode(dec)?,
            l3: crate::cache::CacheStats::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod prefetch_tests {
    use super::*;
    use crate::configs;

    #[test]
    fn next_line_prefetch_helps_streaming() {
        let mut cfg = configs::i7_table3();
        let run = |cfg: HierarchyConfig| {
            let mut h = Hierarchy::new(cfg);
            // Sequential 8-byte walk over 1 MB.
            for addr in (0..(1u64 << 20)).step_by(8) {
                h.access_data(addr);
            }
            h.stats()
        };
        let base = run(cfg);
        cfg.next_line_prefetch = true;
        let pf = run(cfg);
        assert!(
            pf.l3.misses < base.l3.misses,
            "prefetching should cut demand misses beyond L2 ({} vs {})",
            pf.l3.misses,
            base.l3.misses
        );
        // Demand access counts are unchanged by (uncounted) prefetch fills.
        assert_eq!(pf.l1d.accesses, base.l1d.accesses);
    }

    #[test]
    fn prefetch_stats_roundtrip_codec() {
        // The counters of a prefetching hierarchy: every level nonzero.
        let mut cfg = configs::i7_table3();
        cfg.next_line_prefetch = true;
        let mut h = Hierarchy::new(cfg);
        for addr in (0..(1u64 << 16)).step_by(40) {
            h.fetch(addr);
            h.access_data(addr);
        }
        let s = h.stats();
        assert!(s.l3.misses > 0 && s.l1i.misses > 0, "{s:?}");
        let bytes = sampsim_util::codec::to_bytes(&s);
        let back: HierarchyStats = sampsim_util::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
    }
}
