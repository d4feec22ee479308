//! Differential suite: every probe mode of [`Cache`] (packed 8-way
//! recency words, recency-ordered rows, one word per direct-mapped set,
//! and policy-chosen victims) must be bit-identical to the frozen stamp
//! model ([`ReferenceCache`]) — per-access hit/miss results, counters
//! and residency (`peek`) — across policies, geometries and seeded access
//! mixes. Stamps vs. recency order is internal representation;
//! everything observable is contractual.

use sampsim_cache::policy::ReplacementPolicy;
use sampsim_cache::{Cache, CacheConfig, CacheStats, ReferenceCache};
use sampsim_util::rng::SplitMix64;

/// Drives both models through an identical seeded stream of counted and
/// warmup accesses and a stat reset, asserting equivalence after every
/// access and at every checkpoint. Addresses fall
/// in `0..ws_bytes`, except that every 23rd access and every other `peek`
/// go to the all-ones address: with 1-byte lines that line equals the
/// sentinel both models mark empty slots with.
fn drive(config: CacheConfig, seed: u64, accesses: usize, ws_bytes: u64) -> CacheStats {
    let mut fast = Cache::new(config);
    let mut reference = ReferenceCache::new(config);
    let mut rng = SplitMix64::new(seed);
    let ws_mask = ws_bytes - 1;
    for i in 0..accesses {
        let addr = match i % 23 {
            5 => u64::MAX,
            _ => rng.next_u64() & ws_mask,
        };
        let count = i % 97 != 0; // sprinkle warmup accesses through the run
        let a = fast.access(addr, count);
        let b = reference.access(addr, count);
        assert_eq!(
            a, b,
            "access #{i} diverged ({:?}, addr {addr:#x})",
            config.policy
        );
        if i % 251 == 0 {
            let probe = match i % 502 {
                0 => u64::MAX,
                _ => rng.next_u64() & ws_mask,
            };
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
    }
    assert_eq!(fast.stats(), reference.stats());
    fast.stats()
}

const POLICIES: [ReplacementPolicy; 3] = [
    ReplacementPolicy::Lru,
    ReplacementPolicy::Fifo,
    ReplacementPolicy::Random,
];

#[test]
fn small_geometries_all_policies() {
    // (size, ways, line): direct-mapped (one set and eight) through 8-way.
    let shapes = [
        (32, 1, 32),
        (256, 1, 32),
        (256, 2, 32),
        (256, 4, 32),
        (1024, 8, 32),
    ];
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
fn sixteen_way_sets_use_recency_rows() {
    // Every LRU/FIFO width but 8 takes the recency row, 16 ways included.
    for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo] {
        let config = CacheConfig::new(2 << 10, 16, 32, 1).with_policy(policy);
        drive(config, 0x1616, 30_000, 16 << 10);
    }
    // Table III's L3 (8 MiB, 16-way, 64 B lines) under a working set of
    // twice its capacity: enough accesses to revisit each of its 8,192
    // sets give hits and evictions alike.
    for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo] {
        let config = CacheConfig::new(8 << 20, 16, 64, 30).with_policy(policy);
        let stats = drive(config, 0x7AB3 ^ 16, 600_000, 16 << 20);
        assert!(
            stats.misses > 0 && stats.misses < stats.accesses,
            "{policy:?}: {stats:?}"
        );
    }
}

#[test]
fn wide_associativity_uses_recency_rows() {
    // Table I's 32-way L1 (32 KiB, 32 B lines) takes the recency row, with
    // working sets inside its capacity and 4x and 8x beyond it.
    for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo] {
        let config = CacheConfig::new(32 << 10, 32, 32, 1).with_policy(policy);
        for ws in [16 << 10, 128 << 10, 256 << 10] {
            drive(config, 0x3232 ^ ws, 30_000, ws);
        }
    }
    // Every width above 16 takes it: 17 (odd), 64 (exactly the
    // branch-free compare's reach), and 65, 96 and 128 (a scanned tail
    // past it).
    for ways in [17, 64, 65, 96, 128] {
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo] {
            let config =
                CacheConfig::new(4 * 32 * u64::from(ways), ways, 32, 1).with_policy(policy);
            drive(config, 0x3232 ^ u64::from(ways), 30_000, 32 << 10);
        }
    }
}

#[test]
fn table1_direct_mapped_levels_match_reference() {
    // Table I's direct-mapped L2 (2 MiB) and L3 (16 MiB), 32 B lines, take
    // one word per set under every policy. Working sets of twice the
    // capacity, and enough accesses to revisit each set, give hits and
    // conflict misses alike.
    for (size, accesses) in [(2u64 << 20, 400_000), (16 << 20, 2_000_000)] {
        for policy in POLICIES {
            let config = CacheConfig::new(size, 1, 32, 1).with_policy(policy);
            let stats = drive(config, 0xD1 ^ size, accesses, 2 * size);
            assert!(
                stats.misses > 0 && stats.misses < stats.accesses,
                "{size} B {policy:?}: {stats:?}"
            );
        }
    }
}

#[test]
fn all_ones_line_matches_reference() {
    // With 1-byte lines, address u64::MAX is line u64::MAX, the sentinel
    // the stamp model marks empty slots with: it hits an empty slot and
    // leaves an empty-looking one when installed. Direct-mapped sets
    // (including the 1-byte cache, which has no room for the one-word
    // encoding and takes the recency row under LRU and FIFO, and the
    // 2-byte one, which has exactly enough) and 32-way rows, one set or
    // many, must read it the same way.
    for (size, ways) in [
        (1, 1),
        (2, 1),
        (4, 1),
        (8, 1),
        (1024, 1),
        (32, 32),
        (1024, 32),
    ] {
        for policy in POLICIES {
            let config = CacheConfig::new(size, ways, 1, 1).with_policy(policy);
            drive(config, 0xA11 ^ size, 20_000, 4 * size);
        }
    }
    // A one-word encoding that treats the all-ones line as an ordinary tag
    // counts 4 misses here.
    let config = CacheConfig::new(8, 1, 1, 1);
    let stream = [u64::MAX, 3, u64::MAX, u64::MAX - 8, u64::MAX];
    let mut fast = Cache::new(config);
    let mut reference = ReferenceCache::new(config);
    for (i, &addr) in stream.iter().enumerate() {
        assert_eq!(
            fast.access(addr, true),
            reference.access(addr, true),
            "access #{i} diverged (addr {addr:#x})"
        );
    }
    let expected = CacheStats {
        accesses: 5,
        misses: 3,
    };
    assert_eq!(reference.stats(), expected);
    assert_eq!(fast.stats(), expected);
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
