//! Multi-level cache hierarchy simulator.
//!
//! This crate is the stand-in for the paper's `allcache` Pintool — a
//! functional (timing-free) simulator of a four-level cache hierarchy
//! (L1I, L1D, unified L2, unified L3) with an optional next-line
//! prefetcher. It reports the access/miss statistics behind Figs. 8 and
//! 10 of the paper, and doubles as the memory system of the
//! `sampsim-uarch` timing model (which consumes the hit level +
//! latencies). The Pintool also models TLBs, but the paper reports no TLB
//! figure, so none is simulated here. Likewise a store probes exactly
//! like a load and no write-back traffic is simulated: the figures read
//! demand accesses and misses only.
//!
//! Two configurations from the paper are provided as presets:
//! [`configs::allcache_table1`] (Table I) and [`configs::i7_table3`]
//! (Table III).
//!
//! A *warmup* mode supports the paper's "Warmup Regional Run" (§IV-D):
//! while enabled, accesses update cache state but are not counted, so a
//! region can be primed before measurement to remove cold-start bias.
//!
//! # Example
//!
//! ```
//! use sampsim_cache::{configs, Hierarchy};
//!
//! let mut h = Hierarchy::new(configs::allcache_table1());
//! h.access_data(0x1000); // a load: misses every level
//! h.access_data(0x1000); // a store to the same line: L1D hit
//! let stats = h.stats();
//! assert_eq!(stats.l1d.accesses, 2);
//! assert_eq!(stats.l1d.misses, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod configs;
pub mod hierarchy;
pub mod policy;
pub mod reference;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use hierarchy::{Hierarchy, HierarchyConfig, HierarchyStats, Level, SharedHalf};
pub use policy::ReplacementPolicy;
pub use reference::ReferenceCache;
