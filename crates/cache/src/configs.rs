//! Preset hierarchy configurations from the paper.

use crate::cache::CacheConfig;
use crate::hierarchy::HierarchyConfig;

/// Table I — the `allcache` simulator configuration used for the
/// instruction-mix/miss-rate studies (Figs. 3, 8, 10):
///
/// | level | organization |
/// |---|---|
/// | L1I | 32-way, 32 kB, 32 B lines |
/// | L1D | 32-way, 32 kB, 32 B lines |
/// | L2  | unified 2 MB direct-mapped, 32 B lines |
/// | L3  | unified 16 MB direct-mapped, 32 B lines |
pub fn allcache_table1() -> HierarchyConfig {
    HierarchyConfig {
        l1i: CacheConfig::new(32 << 10, 32, 32, 4),
        l1d: CacheConfig::new(32 << 10, 32, 32, 4),
        l2: CacheConfig::new(2 << 20, 1, 32, 12),
        l3: CacheConfig::new(16 << 20, 1, 32, 36),
        mem_latency: 220,
        next_line_prefetch: false,
    }
}

/// Table III — the memory system of the modelled Intel i7-3770 used for the
/// CPI validation (Fig. 12):
///
/// | level | organization | latency |
/// |---|---|---|
/// | L1I | 32 kB, 8-way, 64 B lines | 4 cycles |
/// | L1D | 32 kB, 8-way, 64 B lines | 4 cycles |
/// | L2  | 256 kB, 8-way, 64 B lines | 10 cycles |
/// | L3  | 8 MB, 16-way, 64 B lines | 30 cycles |
pub fn i7_table3() -> HierarchyConfig {
    HierarchyConfig {
        l1i: CacheConfig::new(32 << 10, 8, 64, 4),
        l1d: CacheConfig::new(32 << 10, 8, 64, 4),
        l2: CacheConfig::new(256 << 10, 8, 64, 10),
        l3: CacheConfig::new(8 << 20, 16, 64, 30),
        mem_latency: 200,
        next_line_prefetch: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape() {
        let c = allcache_table1();
        assert_eq!(c.l1d.ways, 32);
        assert_eq!(c.l2.ways, 1);
        assert_eq!(c.l3.size_bytes, 16 << 20);
        assert_eq!(c.l3.line_bytes, 32);
    }

    #[test]
    fn table3_shape() {
        let c = i7_table3();
        assert_eq!(c.l1d.ways, 8);
        assert_eq!(c.l3.ways, 16);
        assert_eq!(c.l2.size_bytes, 256 << 10);
        assert_eq!(c.l1i.line_bytes, 64);
    }
}
