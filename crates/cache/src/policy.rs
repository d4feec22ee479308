//! Replacement policies.
//!
//! The paper's `allcache` hierarchy uses LRU (and direct-mapped outer
//! levels, where policy is moot); the additional policies support the
//! replacement-policy ablation — does sampling preserve the *ranking* of
//! design alternatives?

use sampsim_util::rng::SplitMix64;

/// Victim-selection policy of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Least-recently-used (exact).
    #[default]
    Lru,
    /// First-in-first-out (insertion order; hits do not refresh).
    Fifo,
    /// Uniform random victim.
    Random,
}

impl ReplacementPolicy {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ReplacementPolicy::Lru => "LRU",
            ReplacementPolicy::Fifo => "FIFO",
            ReplacementPolicy::Random => "random",
        }
    }
}

/// The policy and the RNG random replacement draws its victims from.
#[derive(Debug, Clone)]
pub(crate) struct PolicyState {
    pub policy: ReplacementPolicy,
    pub rng: SplitMix64,
}

impl PolicyState {
    pub fn new(policy: ReplacementPolicy, seed: u64) -> Self {
        Self {
            policy,
            rng: SplitMix64::new(seed),
        }
    }

    /// Chooses a victim way among `ways` (policies that keep no recency
    /// order). Returns `None` for LRU/FIFO, whose victim the cache's own
    /// order decides.
    #[inline]
    pub fn victim(&mut self, ways: usize) -> Option<usize> {
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => None,
            ReplacementPolicy::Random => Some((self.rng.next_u64() % ways as u64) as usize),
        }
    }

    /// Whether hits refresh the stamp (LRU yes, FIFO no).
    #[inline]
    pub fn refresh_on_hit(&self) -> bool {
        self.policy == ReplacementPolicy::Lru
    }

    /// Whether victim selection reads the cache's own order ([`Self::victim`]
    /// returns `None`): stamps in the reference model, recency order in
    /// [`crate::Cache`]. Policies that pick their own victims keep neither.
    #[inline]
    pub fn stamp_based(&self) -> bool {
        matches!(
            self.policy,
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_victim_in_range_and_deterministic() {
        let mut a = PolicyState::new(ReplacementPolicy::Random, 42);
        let mut b = PolicyState::new(ReplacementPolicy::Random, 42);
        for _ in 0..100 {
            let va = a.victim(8).unwrap();
            let vb = b.victim(8).unwrap();
            assert_eq!(va, vb);
            assert!(va < 8);
        }
    }

    #[test]
    fn stamp_policies_defer_to_cache() {
        let mut p = PolicyState::new(ReplacementPolicy::Lru, 1);
        assert_eq!(p.victim(4), None);
        assert!(p.refresh_on_hit());
        let mut f = PolicyState::new(ReplacementPolicy::Fifo, 1);
        assert_eq!(f.victim(4), None);
        assert!(!f.refresh_on_hit());
    }
}
