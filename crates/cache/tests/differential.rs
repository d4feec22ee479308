//! Differential suite: the packed-order fast path in [`Cache`] must be
//! bit-identical to the frozen pre-optimization model
//! ([`ReferenceCache`]) — per-access hit/miss results, counters,
//! write-backs and residency (`peek`) — across policies, geometries and
//! seeded access mixes. Replacement stamps vs. packed recency words are
//! internal representation; everything observable is contractual. The
//! rank-LRU [`Tlb`] is held to the frozen stamp scan ([`ReferenceTlb`])
//! the same way.

use sampsim_cache::policy::ReplacementPolicy;
use sampsim_cache::{
    Cache, CacheConfig, CacheStats, ReferenceCache, ReferenceTlb, Tlb, TlbConfig, TlbStats,
};
use sampsim_util::rng::SplitMix64;

/// Drives both models through an identical seeded stream of reads,
/// writes, warmup accesses, flushes and stat resets, asserting
/// equivalence after every access and at every checkpoint.
fn drive(config: CacheConfig, seed: u64, accesses: usize, ws_bytes: u64) -> CacheStats {
    let mut fast = Cache::new(config);
    let mut reference = ReferenceCache::new(config);
    let mut rng = SplitMix64::new(seed);
    let ws_mask = ws_bytes - 1;
    for i in 0..accesses {
        let addr = rng.next_u64() & ws_mask;
        let is_write = i % 4 == 3;
        let count = i % 97 != 0; // sprinkle warmup accesses through the run
        let a = fast.access_rw(addr, is_write, count);
        let b = reference.access_rw(addr, is_write, count);
        assert_eq!(
            a, b,
            "access #{i} diverged ({:?}, addr {addr:#x})",
            config.policy
        );
        if i % 251 == 0 {
            let probe = rng.next_u64() & ws_mask;
            assert_eq!(
                fast.peek(probe),
                reference.peek(probe),
                "peek diverged at #{i} ({:?})",
                config.policy
            );
            assert_eq!(fast.stats(), reference.stats(), "stats diverged at #{i}");
        }
        if i == accesses / 2 {
            fast.reset_stats();
            reference.reset_stats();
        }
        if i == (3 * accesses) / 4 {
            fast.flush();
            reference.flush();
        }
    }
    assert_eq!(fast.stats(), reference.stats());
    fast.stats()
}

const POLICIES: [ReplacementPolicy; 4] = [
    ReplacementPolicy::Lru,
    ReplacementPolicy::Fifo,
    ReplacementPolicy::Random,
    ReplacementPolicy::TreePlru,
];

#[test]
fn small_geometries_all_policies() {
    // (size, ways, line): direct-mapped through 8-way, all ways pow2 so
    // tree-PLRU constructs everywhere.
    let shapes = [(256, 1, 32), (256, 2, 32), (256, 4, 32), (1024, 8, 32)];
    for &(size, ways, line) in &shapes {
        for policy in POLICIES {
            let config = CacheConfig::new(size, ways, line, 1).with_policy(policy);
            let stats = drive(config, 0x5EED ^ size, 20_000, 4096);
            assert!(stats.accesses > 0);
        }
    }
}

#[test]
fn bench_geometry_matches_reference() {
    // The `sampsim perf` kernel shape: 32 KiB, 8-way, 64 B lines, with a
    // working set 4x the capacity so the miss/eviction path dominates.
    for policy in POLICIES {
        let config = CacheConfig::new(32 << 10, 8, 64, 4).with_policy(policy);
        drive(config, 0xC0FF_EE00, 60_000, 128 << 10);
    }
}

#[test]
fn sixteen_way_boundary_uses_packed_order() {
    // ways == 16 is the last shape served by the packed nibble word.
    for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo] {
        let config = CacheConfig::new(2 << 10, 16, 32, 1).with_policy(policy);
        drive(config, 0x1616, 30_000, 16 << 10);
    }
}

#[test]
fn wide_associativity_falls_back_to_stamps() {
    // Table I's 32-way L1 exercises the stamp fallback; still must match.
    for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo] {
        let config = CacheConfig::new(32 << 10, 32, 32, 1).with_policy(policy);
        drive(config, 0x3232, 30_000, 128 << 10);
    }
}

#[test]
fn hit_heavy_stream_matches() {
    // Working set inside capacity: exercises the hit/move-to-front path
    // far more than eviction.
    for policy in POLICIES {
        let config = CacheConfig::new(8 << 10, 8, 64, 1).with_policy(policy);
        drive(config, 0xA11_517, 40_000, 4 << 10);
    }
}

/// Drives both TLBs through one seeded page stream — runs on the same
/// page (the MRU short-circuit), reuse of recent pages, and fresh pages
/// from a pool twice the capacity (evictions) — with every 13th access a
/// warmup one and a stat reset halfway, asserting the hit/miss result of
/// every access and the final counters.
fn drive_tlb(config: TlbConfig, seed: u64, accesses: usize) -> TlbStats {
    let mut fast = Tlb::new(config);
    let mut reference = ReferenceTlb::new(config);
    let mut rng = SplitMix64::new(seed);
    let pool = 2 * u64::from(config.entries) + 3;
    let mut page = 0u64;
    for i in 0..accesses {
        match rng.next_u64() % 4 {
            0 => {}
            1 => page = (page + 1) % pool,
            _ => page = rng.next_u64() % pool,
        }
        let addr = page * config.page_bytes + rng.next_u64() % config.page_bytes;
        let count = i % 13 != 0;
        assert_eq!(
            fast.access(addr, count),
            reference.access(addr, count),
            "access #{i} diverged ({} entries, addr {addr:#x})",
            config.entries
        );
        if i == accesses / 2 {
            fast.reset_stats();
            reference.reset_stats();
        }
    }
    assert_eq!(
        fast.stats(),
        reference.stats(),
        "{} entries",
        config.entries
    );
    fast.stats()
}

#[test]
fn tlb_matches_reference_across_entry_counts() {
    // Ranks and hit masks work in 64-slot blocks: 64 fills one, 65 and
    // 200 pad a partial block after full ones.
    for entries in [1, 2, 8, 64, 65, 200] {
        let config = TlbConfig::new(entries, 4096);
        let stats = drive_tlb(config, 0x71B ^ u64::from(entries), 20_000);
        assert!(
            stats.misses > 0 && stats.misses < stats.accesses,
            "{stats:?}"
        );
    }
}

#[test]
fn tlb_matches_reference_on_the_all_ones_page() {
    // With 1-byte pages the address u64::MAX is page u64::MAX, the value
    // both models use to mark an empty slot. The stamp scan hits the
    // lowest-index empty slot for it; the rank LRU must do exactly the
    // same, before and after the TLB fills.
    for entries in [1, 4, 64] {
        let config = TlbConfig::new(entries, 1);
        let mut fast = Tlb::new(config);
        let mut reference = ReferenceTlb::new(config);
        let mut rng = SplitMix64::new(u64::from(entries));
        for i in 0..5_000 {
            let addr = match rng.next_u64() % 5 {
                0 => u64::MAX,
                _ => rng.next_u64() % (3 * u64::from(entries)),
            };
            assert_eq!(
                fast.access(addr, true),
                reference.access(addr, true),
                "access #{i} diverged ({entries} entries, addr {addr:#x})"
            );
        }
        assert_eq!(fast.stats(), reference.stats());
    }
}
