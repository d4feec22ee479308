//! Instruction/data TLBs.
//!
//! The paper's `allcache` Pintool simulates "instruction+data TLB+cache
//! hierarchies"; the evaluation only reports cache miss rates, but the TLBs
//! are modelled for completeness: every fetch and data access of a
//! `Hierarchy` translates through its ITLB or DTLB. This module's and the
//! hierarchy's unit tests exercise them; no report prints their counts.

/// TLB configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries (fully associative).
    pub entries: u32,
    /// Page size in bytes (power of two).
    pub page_bytes: u64,
}

impl TlbConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `entries ≥ 1` and `page_bytes` is a power of two.
    pub fn new(entries: u32, page_bytes: u64) -> Self {
        assert!(entries >= 1, "TLB needs at least one entry");
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Self {
            entries,
            page_bytes,
        }
    }

    /// A typical 64-entry, 4 KiB-page TLB.
    pub fn typical() -> Self {
        Self::new(64, 4096)
    }
}

/// Access/miss counters for a TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TlbStats {
    /// Translations requested.
    pub accesses: u64,
    /// Translations that missed.
    pub misses: u64,
}

impl TlbStats {
    /// Miss rate in percent (0 when no accesses).
    pub fn miss_rate_pct(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            100.0 * self.misses as f64 / self.accesses as f64
        }
    }

    /// Accumulates another counter set.
    pub fn merge(&mut self, other: &TlbStats) {
        self.accesses += other.accesses;
        self.misses += other.misses;
    }
}

/// A fully associative, exact-LRU translation lookaside buffer.
///
/// Recency is one rank per slot — a permutation of `0..entries`, rank 0
/// the most recently used. A probe compares every resident page at once
/// into a hit mask, then moves the hit slot (or, on a miss, the rank
/// `entries - 1` victim) to rank 0 and ages every slot that was more
/// recent, all in branchless passes over 64-slot blocks. A repeat
/// translation of the most recent page stops before any of that. Hits
/// and misses of an LRU TLB depend only on recency order, and the ranks
/// hold exactly the order the stamp scan of
/// [`crate::reference::ReferenceTlb`] keeps, so every result and counter
/// equals its (checked access by access in `tests/differential.rs`).
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    /// Resident page per slot; `INVALID` until the slot is first filled
    /// and in the padding past the last entry.
    pages: Vec<[u64; BLOCK]>,
    /// Per block, the bits of the slots that exist.
    live: Vec<u64>,
    /// Recency rank per slot (0 = most recent, `entries - 1` = the
    /// victim). Padding slots hold `u32::MAX`, above every live rank, so
    /// they are never aged, promoted or chosen.
    ranks: Vec<[u32; BLOCK]>,
    /// The page in the rank-0 slot.
    mru_page: u64,
    stats: TlbStats,
    page_shift: u32,
}

const INVALID: u64 = u64::MAX;

/// Slots per block; one hit-mask word covers a block.
const BLOCK: usize = 64;

/// Bit `i` is set where `block[i] == x`: the branchless compare of a
/// whole block.
#[inline]
fn eq_mask<T: Copy + PartialEq>(block: &[T; BLOCK], x: T) -> u64 {
    let mut mask = 0u64;
    for (i, &v) in block.iter().enumerate() {
        mask |= u64::from(v == x) << i;
    }
    mask
}

/// The lowest slot whose bit `mask_of` sets — the slot a front-to-back
/// scan would stop at.
#[inline]
fn first_slot<T>(
    blocks: &[[T; BLOCK]],
    mut mask_of: impl FnMut(usize, &[T; BLOCK]) -> u64,
) -> Option<usize> {
    blocks.iter().enumerate().find_map(|(b, block)| {
        let mask = mask_of(b, block);
        (mask != 0).then(|| b * BLOCK + mask.trailing_zeros() as usize)
    })
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new(config: TlbConfig) -> Self {
        let entries = config.entries as usize;
        let blocks = entries.div_ceil(BLOCK);
        // Slot 0 starts least recent, so an empty TLB fills slots 0, 1,
        // 2, … — the stamp scan's lowest-index tie-break among never-used
        // entries.
        let mut ranks = vec![[u32::MAX; BLOCK]; blocks];
        for slot in 0..entries {
            ranks[slot / BLOCK][slot % BLOCK] = config.entries - 1 - slot as u32;
        }
        Self {
            config,
            pages: vec![[INVALID; BLOCK]; blocks],
            live: (0..blocks)
                .map(|b| match entries - b * BLOCK {
                    n if n >= BLOCK => u64::MAX,
                    n => (1u64 << n) - 1,
                })
                .collect(),
            ranks,
            mru_page: INVALID,
            stats: TlbStats::default(),
            page_shift: config.page_bytes.trailing_zeros(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Current counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Resets counters, keeping translations resident.
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// Translates `addr`. Returns `true` on a hit; misses install the page.
    /// When `count` is false the access is not counted (warmup).
    #[inline]
    pub fn access(&mut self, addr: u64, count: bool) -> bool {
        let page = addr >> self.page_shift;
        self.stats.accesses += u64::from(count);
        // The rank-0 slot already holds `mru_page`: nothing to reorder.
        // `INVALID` takes the full probe, which hits the lowest-index
        // empty slot as the stamp scan did.
        if page == self.mru_page && page != INVALID {
            return true;
        }
        self.probe(page, count)
    }

    /// The full lookup: hit mask, then move-to-front of the hit slot or,
    /// on a miss, of the least recent slot, which takes the page.
    fn probe(&mut self, page: u64, count: bool) -> bool {
        let hit = first_slot(&self.pages, |b, block| eq_mask(block, page) & self.live[b]);
        let slot = hit.unwrap_or_else(|| {
            let lru = self.config.entries - 1;
            first_slot(&self.ranks, |_, block| eq_mask(block, lru))
                .expect("ranks are a permutation")
        });
        let old = self.ranks[slot / BLOCK][slot % BLOCK];
        for block in &mut self.ranks {
            for r in block.iter_mut() {
                *r = if *r == old {
                    0
                } else {
                    *r + u32::from(*r < old)
                };
            }
        }
        if hit.is_none() {
            self.pages[slot / BLOCK][slot % BLOCK] = page;
            self.stats.misses += u64::from(count);
        }
        self.mru_page = page;
        hit.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_within_page() {
        let mut t = Tlb::new(TlbConfig::new(4, 4096));
        assert!(!t.access(0x1000, true));
        assert!(t.access(0x1FFF, true));
        assert!(!t.access(0x2000, true));
        assert_eq!(t.stats().misses, 2);
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(TlbConfig::new(2, 4096));
        t.access(0x1000, true);
        t.access(0x2000, true);
        t.access(0x1000, true); // refresh page 1
        t.access(0x3000, true); // evicts page 2
        assert!(t.access(0x1000, true));
        assert!(!t.access(0x2000, true));
    }

    #[test]
    fn warmup_not_counted() {
        let mut t = Tlb::new(TlbConfig::typical());
        t.access(0x5000, false);
        assert_eq!(t.stats().accesses, 0);
        assert!(t.access(0x5000, true));
    }
}

impl sampsim_util::codec::Encode for TlbStats {
    fn encode(&self, enc: &mut sampsim_util::codec::Encoder) {
        enc.put_u64(self.accesses);
        enc.put_u64(self.misses);
    }
}

impl sampsim_util::codec::Decode for TlbStats {
    fn decode(
        dec: &mut sampsim_util::codec::Decoder<'_>,
    ) -> Result<Self, sampsim_util::codec::DecodeError> {
        Ok(Self {
            accesses: dec.take_u64()?,
            misses: dec.take_u64()?,
        })
    }
}

#[cfg(test)]
mod tlb_extra_tests {
    use super::*;

    #[test]
    fn reset_stats_keeps_translations() {
        let mut t = Tlb::new(TlbConfig::new(8, 4096));
        t.access(0x1000, true);
        t.reset_stats();
        assert_eq!(t.stats().accesses, 0);
        assert!(t.access(0x1000, true), "translation survives stat reset");
    }

    #[test]
    fn config_accessor() {
        let t = Tlb::new(TlbConfig::new(16, 8192));
        assert_eq!(t.config().entries, 16);
        assert_eq!(t.config().page_bytes, 8192);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_page_size_panics() {
        TlbConfig::new(4, 3000);
    }
}
