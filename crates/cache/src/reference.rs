//! The pre-optimization cache model, frozen as a differential oracle.
//!
//! [`ReferenceCache`] is the original zipped tag+stamp implementation of
//! [`crate::Cache`], kept so every probe mode can be checked
//! against it access-by-access (see `tests/differential.rs`) and so
//! `sampsim perf` can time the pre-optimization kernel beside it (the
//! reference side of its `cache_access_rw` kernel). It holds the only
//! stamp scan left:
//! `Cache` keeps each LRU/FIFO set's recency order instead (packed
//! nibbles at 8 ways, a recency-ordered row at every other width), and
//! one word per direct-mapped set. Counters, per-access hit/miss results
//! and eviction choices are contractual between the two models; internal
//! bookkeeping (stamps vs. recency order) is not.

use crate::cache::{CacheConfig, CacheStats};
use crate::policy::PolicyState;

const INVALID: u64 = u64::MAX;

/// The original set-associative cache: flat tag/stamp arrays and a
/// zipped scan that derives the hit way and the min-stamp victim candidate
/// in one pass.
#[derive(Debug, Clone)]
pub struct ReferenceCache {
    config: CacheConfig,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    stats: CacheStats,
    set_mask: u64,
    line_shift: u32,
    ways: usize,
    policy: PolicyState,
}

impl ReferenceCache {
    /// Creates an empty (all-invalid) cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let entries = (sets * u64::from(config.ways)) as usize;
        Self {
            config,
            tags: vec![INVALID; entries],
            stamps: vec![0; entries],
            clock: 0,
            stats: CacheStats::default(),
            set_mask: sets - 1,
            line_shift: config.line_bytes.trailing_zeros(),
            ways: config.ways as usize,
            policy: PolicyState::new(config.policy, 0xCAC4E ^ config.size_bytes),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets counters (state is preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Probes and updates the cache for `addr`. Returns `true` on a hit.
    #[inline]
    pub fn access(&mut self, addr: u64, count: bool) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line;
        let base = set * self.ways;
        self.clock += 1;
        if count {
            self.stats.accesses += 1;
        }
        let tags = &self.tags[base..base + self.ways];
        let mut stamp_victim = 0usize;
        let mut hit_way = None;
        if self.policy.stamp_based() {
            let stamps = &self.stamps[base..base + self.ways];
            let mut victim_stamp = u64::MAX;
            for (w, (&t, &s)) in tags.iter().zip(stamps).enumerate() {
                if t == tag {
                    hit_way = Some(w);
                    break;
                }
                if s < victim_stamp {
                    victim_stamp = s;
                    stamp_victim = w;
                }
            }
        } else {
            hit_way = tags.iter().position(|&t| t == tag);
        }
        if let Some(w) = hit_way {
            if self.policy.refresh_on_hit() {
                self.stamps[base + w] = self.clock;
            }
            return true;
        }
        if count {
            self.stats.misses += 1;
        }
        let victim = self.policy.victim(self.ways).unwrap_or(stamp_victim);
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.clock;
        false
    }

    /// Probes without updating replacement state or counters.
    #[inline]
    pub fn peek(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let base = set * self.ways;
        self.tags[base..base + self.ways].contains(&line)
    }
}
