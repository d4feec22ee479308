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
    /// Tree-based pseudo-LRU (requires power-of-two associativity).
    TreePlru,
}

impl ReplacementPolicy {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ReplacementPolicy::Lru => "LRU",
            ReplacementPolicy::Fifo => "FIFO",
            ReplacementPolicy::Random => "random",
            ReplacementPolicy::TreePlru => "tree-PLRU",
        }
    }
}

/// Per-set tree-PLRU state plus the shared RNG for random replacement.
#[derive(Debug, Clone)]
pub(crate) struct PolicyState {
    pub policy: ReplacementPolicy,
    /// Tree bits per set (TreePlru only).
    pub trees: Vec<u32>,
    pub rng: SplitMix64,
}

impl PolicyState {
    pub fn new(policy: ReplacementPolicy, sets: usize, ways: u32, seed: u64) -> Self {
        if policy == ReplacementPolicy::TreePlru {
            assert!(
                ways.is_power_of_two(),
                "tree-PLRU requires power-of-two associativity"
            );
        }
        Self {
            policy,
            trees: if policy == ReplacementPolicy::TreePlru {
                vec![0; sets]
            } else {
                Vec::new()
            },
            rng: SplitMix64::new(seed),
        }
    }

    /// Updates policy metadata on a hit at `way`.
    #[inline]
    pub fn touch(&mut self, set: usize, way: usize, ways: usize) {
        if self.policy == ReplacementPolicy::TreePlru {
            self.trees[set] = plru_touch(self.trees[set], way, ways);
        }
        // LRU/FIFO order is kept by the cache itself.
    }

    /// Chooses a victim way for `set` (policies that keep no recency
    /// order). Returns `None` for LRU/FIFO, whose victim the cache's own
    /// order decides.
    #[inline]
    pub fn victim(&mut self, set: usize, ways: usize) -> Option<usize> {
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => None,
            ReplacementPolicy::Random => Some((self.rng.next_u64() % ways as u64) as usize),
            ReplacementPolicy::TreePlru => Some(plru_victim(self.trees[set], ways)),
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

/// Walks the PLRU tree toward `way`, flipping each node to point away from
/// the touched path. Bit `n` holds node `n` of the implicit binary tree
/// (0 = left subtree is colder).
fn plru_touch(mut tree: u32, way: usize, ways: usize) -> u32 {
    let mut node = 0usize; // root
    let mut lo = 0usize;
    let mut hi = ways;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if way < mid {
            // Touched left: mark right as colder candidate (bit = 1 means
            // victim search goes right).
            tree |= 1 << node;
            node = 2 * node + 1;
            hi = mid;
        } else {
            tree &= !(1 << node);
            node = 2 * node + 2;
            lo = mid;
        }
    }
    tree
}

/// Follows the cold pointers down the PLRU tree to the victim way.
fn plru_victim(tree: u32, ways: usize) -> usize {
    let mut node = 0usize;
    let mut lo = 0usize;
    let mut hi = ways;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if tree & (1 << node) != 0 {
            // Cold side is right.
            node = 2 * node + 2;
            lo = mid;
        } else {
            node = 2 * node + 1;
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plru_victim_avoids_recent_ways() {
        let ways = 4usize;
        let mut tree = 0u32;
        // Touch ways 0..3 in order; victim should be 0 afterwards (oldest
        // path pointer).
        for w in 0..4 {
            tree = plru_touch(tree, w, ways);
        }
        let v = plru_victim(tree, ways);
        assert_ne!(v, 3, "most recently touched way must not be the victim");
    }

    #[test]
    fn plru_cycles_through_all_ways() {
        // Repeatedly touching the victim cycles through every way.
        let ways = 8usize;
        let mut tree = 0u32;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..ways {
            let v = plru_victim(tree, ways);
            seen.insert(v);
            tree = plru_touch(tree, v, ways);
        }
        assert_eq!(seen.len(), ways, "victims should cover all ways: {seen:?}");
    }

    #[test]
    fn random_victim_in_range_and_deterministic() {
        let mut a = PolicyState::new(ReplacementPolicy::Random, 4, 8, 42);
        let mut b = PolicyState::new(ReplacementPolicy::Random, 4, 8, 42);
        for _ in 0..100 {
            let va = a.victim(0, 8).unwrap();
            let vb = b.victim(0, 8).unwrap();
            assert_eq!(va, vb);
            assert!(va < 8);
        }
    }

    #[test]
    fn stamp_policies_defer_to_cache() {
        let mut p = PolicyState::new(ReplacementPolicy::Lru, 4, 4, 1);
        assert_eq!(p.victim(0, 4), None);
        assert!(p.refresh_on_hit());
        let mut f = PolicyState::new(ReplacementPolicy::Fifo, 4, 4, 1);
        assert_eq!(f.victim(0, 4), None);
        assert!(!f.refresh_on_hit());
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plru_requires_pow2_ways() {
        PolicyState::new(ReplacementPolicy::TreePlru, 4, 3, 1);
    }
}
