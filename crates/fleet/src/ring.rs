//! Deterministic shard placement by rendezvous (highest-random-weight)
//! hashing.
//!
//! For a key `k` and `n` shards, every shard is assigned the weight
//! `fnv64("sampsim-fleet-ring" ‖ k ‖ shard)`; the key routes to the
//! shard with the highest weight. Sorting all shards by descending
//! weight yields the key's *preference list* — position 0 is the owner,
//! position 1 is where the key lands if the owner disappears, and so on.
//!
//! Two properties make this the right shape for a cache fleet:
//!
//! - **Determinism across restarts.** The placement is a pure function
//!   of `(key, shard_count)` — no ring state to persist, so a router
//!   restarted over the same shard count routes every key identically.
//! - **Minimal movement.** Removing a shard only moves the keys that
//!   shard owned, and each moves exactly to its next-preference shard —
//!   which is the sibling the router's peer-warming protocol already
//!   filled. Every other key keeps its owner, so a rebalance invalidates
//!   nothing.

use sampsim_util::hash::Fnv64;

/// Domain tag so ring weights can never collide with other FNV uses of
/// the same key (`response_key` itself, cache file checksums, ...).
const RING_DOMAIN: &str = "sampsim-fleet-ring";

/// A rendezvous-hash view over `n` shard slots (indices `0..n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ring {
    shards: usize,
}

impl Ring {
    /// A ring over `shards` slots.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero — a fleet without shards cannot
    /// place anything.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a ring needs at least one shard");
        Ring { shards }
    }

    /// The number of shard slots.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The weight of `shard` for `key` — the rendezvous score.
    fn weight(key: u64, shard: usize) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(RING_DOMAIN);
        h.write_u64(key);
        h.write_u64(shard as u64);
        h.finish()
    }

    /// The shard that owns `key`: the highest-weight slot. Ties break
    /// toward the lower index (FNV ties over distinct inputs are
    /// vanishingly rare; the break just keeps the function total).
    pub fn route(&self, key: u64) -> usize {
        (0..self.shards)
            .max_by_key(|&shard| (Self::weight(key, shard), std::cmp::Reverse(shard)))
            .expect("ring has at least one shard")
    }

    /// Every shard sorted by descending weight for `key`: the key's
    /// preference list. `preference(key)[0] == route(key)`, and if the
    /// owner is removed the key's new owner (in a ring over the
    /// surviving slots' weights) is the next *surviving* entry.
    pub fn preference(&self, key: u64) -> Vec<usize> {
        let mut shards: Vec<usize> = (0..self.shards).collect();
        shards.sort_by_key(|&shard| (std::cmp::Reverse(Self::weight(key, shard)), shard));
        shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic_and_total() {
        let ring = Ring::new(4);
        for key in 0..1000u64 {
            let owner = ring.route(key);
            assert!(owner < 4);
            assert_eq!(owner, ring.route(key), "stable for key {key}");
            assert_eq!(owner, Ring::new(4).route(key), "stable across rings");
        }
    }

    #[test]
    fn preference_is_a_permutation_led_by_the_owner() {
        let ring = Ring::new(5);
        for key in 0..200u64 {
            let pref = ring.preference(key);
            assert_eq!(pref[0], ring.route(key));
            let mut sorted = pref.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4], "not a permutation: {pref:?}");
        }
    }

    #[test]
    fn load_spreads_across_shards() {
        // Not a statistical test — just that no shard is starved or
        // dominant over a few thousand sequential keys.
        let ring = Ring::new(4);
        let mut counts = [0usize; 4];
        const KEYS: usize = 4000;
        for key in 0..KEYS as u64 {
            counts[ring.route(key)] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                count > KEYS / 8 && count < KEYS / 2,
                "shard {shard} owns {count}/{KEYS}: {counts:?}"
            );
        }
    }

    #[test]
    fn removing_a_shard_moves_only_its_keys_to_their_next_preference() {
        let ring = Ring::new(4);
        const DEAD: usize = 2;
        let alive = [0usize, 1, 3];
        for key in 0..1000u64 {
            let owner = ring.route(key);
            // The new owner: the first surviving entry of the preference list.
            let after = ring
                .preference(key)
                .into_iter()
                .find(|shard| alive.contains(shard))
                .unwrap();
            if owner != DEAD {
                assert_eq!(after, owner, "key {key} moved without cause");
            } else {
                // The orphaned key lands exactly on its second
                // preference — the shard peer warming pre-filled.
                assert_eq!(after, ring.preference(key)[1], "key {key}");
                assert_ne!(after, DEAD);
            }
        }
    }

    #[test]
    fn single_shard_ring_routes_everything_to_it() {
        let ring = Ring::new(1);
        for key in [0u64, 7, u64::MAX] {
            assert_eq!(ring.route(key), 0);
            assert_eq!(ring.preference(key), vec![0]);
        }
    }
}
