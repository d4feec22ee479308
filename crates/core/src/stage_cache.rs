//! Content-addressed memoization hooks for the PinPoints pipeline.
//!
//! The paper's whole argument is amortization: run the expensive
//! whole-program profiling pass once, then answer many questions from the
//! stored simulation points. This module gives the pipeline a pluggable
//! [`StageCache`] so callers (notably `sampsim-serve`) can persist the
//! profiling stage between runs and across processes; `sampsim figure`
//! memoizes whole per-benchmark study results through the same trait.
//!
//! # Keys
//!
//! Every key is an FNV-1a hash over a domain tag plus the complete set of
//! inputs that determine the stage's output:
//!
//! * [`profile_stage_key`] — `(program content digest, name, length,
//!   slice_size, profile-cache geometry)`. SimPoint options are *excluded*:
//!   re-clustering the same profile with a different `MaxK` reuses the
//!   cached profiling pass, which is exactly the sweep the paper performs.
//! * [`response_key`] — the profile inputs plus `warmup_slices`, the full
//!   SimPoint option fingerprint and the sampling-strategy fingerprint;
//!   two requests share a response key iff the deterministic pipeline
//!   output is bit-identical. Strategies deliberately do *not* enter the
//!   profile key: switching strategies reuses the cached profiling pass.
//! * [`whole_walk_key`] — program digest plus the machine: the hierarchy
//!   fingerprint, and for a timing walk the core by its `{:?}`. Its
//!   entries are codec-encoded [`RunMetrics`], one per whole functional
//!   or timing walk, so every exhibit and every strategy that asks for
//!   the same walk of the same program shares one.
//! * [`Study`](crate::experiments::Study)'s memo key — benchmark, full
//!   study configuration, scale and program digest; its entries are
//!   codec-encoded [`BenchResult`](crate::BenchResult)s.
//!
//! The program's [`digest`](sampsim_workload::Program::digest) is a
//! content hash over the generated artifact (blocks, schedule, streams),
//! so it stands in for "benchmark artifact bytes" and is scale-sensitive.
//!
//! # Safety against corrupt entries
//!
//! Cached bytes are versioned ([`PROFILE_MAGIC`]/[`PROFILE_VERSION`]) and
//! revalidated on decode; any mismatch is treated as a miss and the stage
//! is recomputed — a poisoned cache can cost time, never correctness.

use crate::metrics::RunMetrics;
use crate::pipeline::PinPointsConfig;
use crate::runs::Machine;
use sampsim_cache::HierarchyConfig;
use sampsim_simpoint::bbv::Bbv;
use sampsim_simpoint::SimPointOptions;
use sampsim_util::bytes::SharedBytes;
use sampsim_util::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use sampsim_util::hash::Fnv64;
use sampsim_workload::{Cursor, Program};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Magic number identifying an encoded [`ProfileStage`].
pub const PROFILE_MAGIC: u32 = 0x5053_7467; // "PStg"
/// Format version for [`ProfileStage`] encodings (v2: the cache counters
/// lost their two TLB counter pairs; v3: their write-back and prefetch
/// counters).
pub const PROFILE_VERSION: u16 = 3;

/// A pluggable byte store memoizing pipeline stages.
///
/// Implementations must be safe to share across worker threads. `get` and
/// `put` are best-effort: a cache may drop entries at any time, and the
/// pipeline treats undecodable bytes as a miss.
///
/// Lookups return [`SharedBytes`] views rather than owned vectors:
/// in-memory tiers serve hits as refcount bumps and disk tiers serve the
/// payload as a window over the single file read, so repeated hits on a
/// multi-megabyte profile stage never recopy it.
pub trait StageCache: Sync {
    /// Looks up the bytes stored under `key` as a zero-copy view.
    fn get(&self, key: u64) -> Option<SharedBytes>;
    /// Stores `bytes` under `key` (the one copy, at insert).
    fn put(&self, key: u64, bytes: &[u8]);
}

/// The null cache: every lookup misses, every store is dropped.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoCache;

impl StageCache for NoCache {
    fn get(&self, _key: u64) -> Option<SharedBytes> {
        None
    }
    fn put(&self, _key: u64, _bytes: &[u8]) {}
}

/// A simple unbounded in-memory stage cache with a hit counter — the
/// reference implementation used by tests and single-process sweeps.
#[derive(Debug, Default)]
pub struct MemoryStageCache {
    entries: Mutex<HashMap<u64, SharedBytes>>,
    hits: AtomicU64,
}

impl MemoryStageCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of successful lookups so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl StageCache for MemoryStageCache {
    fn get(&self, key: u64) -> Option<SharedBytes> {
        // A hit clones the view (a refcount bump), never the bytes.
        let found = self.entries.lock().unwrap().get(&key).cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    fn put(&self, key: u64, bytes: &[u8]) {
        self.entries
            .lock()
            .unwrap()
            .insert(key, SharedBytes::from(bytes));
    }
}

/// Stable fingerprint of a cache hierarchy's full geometry (every field
/// that changes simulated counters).
pub fn hierarchy_fingerprint(config: &HierarchyConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("sampsim/fp/hierarchy/v1");
    for level in [&config.l1i, &config.l1d, &config.l2, &config.l3] {
        h.write_u64(level.size_bytes);
        h.write_u64(u64::from(level.ways));
        h.write_u64(level.line_bytes);
        h.write_u64(u64::from(level.latency));
        h.write_str(level.policy.label());
    }
    // The ITLB's and DTLB's geometry (64 entries of 4 KiB pages each), from
    // when the hierarchy simulated them. It stays because keys name
    // disk-tier entries and place requests on fleet shards: a moved key
    // cold-starts every persisted cache.
    for _ in 0..2 {
        h.write_u64(64);
        h.write_u64(4096);
    }
    h.write_u64(u64::from(config.mem_latency));
    h.write_u64(u64::from(config.next_line_prefetch));
    h.finish()
}

/// Stable fingerprint of the SimPoint analysis options.
pub fn simpoint_fingerprint(options: &SimPointOptions) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("sampsim/fp/simpoint/v2");
    options.write_fingerprint(&mut h);
    h.finish()
}

fn write_profile_inputs(h: &mut Fnv64, program: &Program, config: &PinPointsConfig) {
    h.write_u64(program.digest());
    h.write_str(program.name());
    h.write_u64(program.total_insts());
    h.write_u64(config.slice_size);
    match &config.profile_cache {
        Some(hier) => {
            h.write_u64(1);
            h.write_u64(hierarchy_fingerprint(hier));
        }
        None => h.write_u64(0),
    }
}

/// Cache key for the profiling stage of `program` under `config`.
///
/// Covers everything `Pipeline::profile_jobs` reads — and deliberately nothing
/// more, so clustering-only config changes still hit.
pub fn profile_stage_key(program: &Program, config: &PinPointsConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("sampsim/stage/profile/v1");
    write_profile_inputs(&mut h, program, config);
    h.finish()
}

/// Cache key for a complete deterministic run response: the profile
/// inputs plus the selection (strategy + parameters) and warmup
/// configuration. The strategy fingerprint covers the strategy identity
/// and every selection-relevant parameter, so two requests share a
/// response key iff the deterministic pipeline output is bit-identical.
pub fn response_key(program: &Program, config: &PinPointsConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("sampsim/response/run/v2");
    write_profile_inputs(&mut h, program, config);
    h.write_u64(config.warmup_slices);
    h.write_u64(simpoint_fingerprint(&config.simpoint));
    h.write_u64(config.strategy.fingerprint(&config.simpoint));
    h.finish()
}

/// Cache key for a whole-program walk of `program` on `machine`. Slicing,
/// selection and warmup never touch a whole walk, so none of them enter
/// the key.
pub fn whole_walk_key(program: &Program, machine: &Machine) -> u64 {
    let mut h = Fnv64::new();
    // v2: the encoded `RunMetrics` lost the TLB counters; v3: the
    // write-back and prefetch counters.
    h.write_str("sampsim/stage/whole-walk/v3");
    h.write_u64(program.digest());
    match machine {
        Machine::Functional(hierarchy) => {
            h.write_u64(0);
            h.write_u64(hierarchy_fingerprint(hierarchy));
        }
        Machine::Timing(core, hierarchy) => {
            h.write_u64(1);
            h.write_u64(hierarchy_fingerprint(hierarchy));
            h.write_str(&format!("{core:?}"));
        }
    }
    h.finish()
}

/// The memoized output of the profiling pass: per-slice BBVs, slice-start
/// checkpoints, and whole-run metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileStage {
    /// One BBV per slice.
    pub bbvs: Vec<Bbv>,
    /// One slice-start cursor per slice.
    pub starts: Vec<Cursor>,
    /// Whole-run metrics from the profiling pass. `wall_seconds` records
    /// the original computation, not the (near-zero) cache hit.
    pub metrics: RunMetrics,
}

impl ProfileStage {
    /// Serializes with a magic/version header for on-disk storage.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::with_header(PROFILE_MAGIC, PROFILE_VERSION);
        self.bbvs.encode(&mut enc);
        self.starts.encode(&mut enc);
        self.metrics.encode(&mut enc);
        enc.into_bytes()
    }

    /// Deserializes and revalidates a [`ProfileStage`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on header/version mismatch, malformed
    /// bytes, or internally inconsistent content (BBV and cursor counts
    /// must agree). Callers treat any error as a cache miss.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut dec = Decoder::with_header(bytes, PROFILE_MAGIC, PROFILE_VERSION)?;
        let bbvs = Vec::<Bbv>::decode(&mut dec)?;
        let starts = Vec::<Cursor>::decode(&mut dec)?;
        let metrics = RunMetrics::decode(&mut dec)?;
        if !dec.is_exhausted() {
            return Err(DecodeError::Invalid("trailing bytes"));
        }
        if bbvs.len() != starts.len() {
            return Err(DecodeError::Invalid("BBV / cursor count mismatch"));
        }
        Ok(Self {
            bbvs,
            starts,
            metrics,
        })
    }

    /// Whether this stage plausibly belongs to `program` under `config`:
    /// the slice count must match the program's length. Guards against a
    /// (vanishingly unlikely) key collision or a cache written by a buggy
    /// producer.
    pub fn matches(&self, program: &Program, config: &PinPointsConfig) -> bool {
        config.slice_size > 0
            && self.bbvs.len() as u64 == program.total_insts().div_ceil(config.slice_size)
    }

    /// Reads only the header and the slice-count prefix from an encoded
    /// stage, without decoding any BBVs. `None` means the header is
    /// foreign or the bytes are too short to carry a count.
    pub fn peek_slice_count(bytes: &[u8]) -> Option<u64> {
        let mut dec = Decoder::with_header(bytes, PROFILE_MAGIC, PROFILE_VERSION).ok()?;
        Some(u64::from(dec.take_u32().ok()?))
    }

    /// Cheap validation-before-decode: whether an encoded stage plausibly
    /// belongs to `program` under `config`, judged from the slice-count
    /// prefix alone. The cached-stage fast path uses this to reject
    /// entries for the wrong program or slice size before paying the full
    /// (potentially multi-megabyte) decode; [`ProfileStage::matches`]
    /// still re-checks after a real decode.
    pub fn peek_matches(bytes: &[u8], program: &Program, config: &PinPointsConfig) -> bool {
        config.slice_size > 0
            && Self::peek_slice_count(bytes)
                == Some(program.total_insts().div_ceil(config.slice_size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, RunOptions};
    use sampsim_cache::configs;
    use sampsim_simpoint::SimPointOptions;
    use sampsim_uarch::CoreConfig;
    use sampsim_workload::spec::{PhaseSpec, WorkloadSpec};

    fn program() -> Program {
        WorkloadSpec::builder("stage-cache", 7)
            .total_insts(40_000)
            .phase(PhaseSpec::balanced(1.0))
            .phase(PhaseSpec::memory_bound(1.0))
            .build()
            .build()
    }

    fn config() -> PinPointsConfig {
        PinPointsConfig {
            slice_size: 1_000,
            simpoint: SimPointOptions {
                max_k: 6,
                ..Default::default()
            },
            warmup_slices: 3,
            profile_cache: Some(configs::allcache_table1()),
            strategy: sampsim_simpoint::StrategySpec::SimPoint,
        }
    }

    #[test]
    fn profile_stage_roundtrip() {
        let p = program();
        let (bbvs, starts, metrics) =
            Pipeline::new(config()).profile_jobs(&p, sampsim_exec::SERIAL);
        let stage = ProfileStage {
            bbvs,
            starts,
            metrics,
        };
        let bytes = stage.to_bytes();
        let back = ProfileStage::from_bytes(&bytes).unwrap();
        assert_eq!(back, stage);
        assert!(back.matches(&p, &config()));
    }

    #[test]
    fn corrupt_bytes_are_rejected() {
        let stage = ProfileStage {
            bbvs: vec![Bbv::from_counts(vec![(0, 1)])],
            starts: Vec::new(),
            metrics: RunMetrics {
                instructions: 0,
                mix: Default::default(),
                cache: None,
                timing: None,
                wall_seconds: 0.0,
            },
        };
        // Count mismatch is caught even though the bytes decode cleanly.
        assert!(ProfileStage::from_bytes(&stage.to_bytes()).is_err());
        // Header mismatch.
        assert!(ProfileStage::from_bytes(b"not a profile stage").is_err());
        // Truncation.
        let p = program();
        let (bbvs, starts, metrics) =
            Pipeline::new(config()).profile_jobs(&p, sampsim_exec::SERIAL);
        let bytes = ProfileStage {
            bbvs,
            starts,
            metrics,
        }
        .to_bytes();
        assert!(ProfileStage::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn keys_separate_what_must_differ_and_share_what_may() {
        let p = program();
        let base = config();

        // Different slice size → different profile key.
        let mut other = base.clone();
        other.slice_size = 2_000;
        assert_ne!(profile_stage_key(&p, &base), profile_stage_key(&p, &other));

        // Different MaxK → same profile key (profile is reusable) but a
        // different response key (the output changes).
        let mut remaxk = base.clone();
        remaxk.simpoint.max_k = 12;
        assert_eq!(profile_stage_key(&p, &base), profile_stage_key(&p, &remaxk));
        assert_ne!(response_key(&p, &base), response_key(&p, &remaxk));

        // Different warmup → same profile key, different response key.
        let mut rewarm = base.clone();
        rewarm.warmup_slices = 9;
        assert_eq!(profile_stage_key(&p, &base), profile_stage_key(&p, &rewarm));
        assert_ne!(response_key(&p, &base), response_key(&p, &rewarm));

        // Different sampling strategy → same profile key (stage-cached
        // BBVs are reused across strategies), different response key.
        for name in sampsim_simpoint::STRATEGY_NAMES.iter().skip(1) {
            let mut restrat = base.clone();
            restrat.strategy = sampsim_simpoint::StrategySpec::parse(name).unwrap();
            assert_eq!(
                profile_stage_key(&p, &base),
                profile_stage_key(&p, &restrat),
                "{name}"
            );
            assert_ne!(
                response_key(&p, &base),
                response_key(&p, &restrat),
                "{name}"
            );
        }

        // Dropping the profile hierarchy changes both.
        let mut nocache = base.clone();
        nocache.profile_cache = None;
        assert_ne!(
            profile_stage_key(&p, &base),
            profile_stage_key(&p, &nocache)
        );
        assert_ne!(response_key(&p, &base), response_key(&p, &nocache));

        // A different program (different seed → different digest) misses.
        let q = WorkloadSpec::builder("stage-cache", 8)
            .total_insts(40_000)
            .phase(PhaseSpec::balanced(1.0))
            .phase(PhaseSpec::memory_bound(1.0))
            .build()
            .build();
        assert_ne!(profile_stage_key(&p, &base), profile_stage_key(&q, &base));
    }

    #[test]
    fn keys_are_pinned_to_literal_values() {
        // Keys name disk-tier entries and place requests on fleet shards,
        // so a key that moves cold-starts every persisted cache. The other
        // key tests only compare keys with each other; these literals
        // catch a refactor that drops or reorders a hashed field.
        let p = program();
        let serve = PinPointsConfig {
            profile_cache: Some(configs::allcache_table1()),
            ..PinPointsConfig::default()
        };
        assert_eq!(profile_stage_key(&p, &serve), 0xa531_43ce_877e_6ba7);
        assert_eq!(
            simpoint_fingerprint(&SimPointOptions::default()),
            0x01bb_85e2_101d_0a8d
        );
        // (strategy, response key, strategy fingerprint), in registry order.
        let pinned = [
            ("simpoint", 0xe490_5ee6_220e_b968, 0xb6ef_49a8_1fbe_6888),
            ("stratified2p", 0x8faa_55dc_e28d_820e, 0xa32c_5b00_3295_f2a6),
            ("rss", 0x5b52_a06e_c464_b0e8, 0x15cf_1aef_3584_a914),
        ];
        let names: Vec<&str> = pinned.iter().map(|(name, ..)| *name).collect();
        assert_eq!(names, sampsim_simpoint::STRATEGY_NAMES);
        for (name, response, fingerprint) in pinned {
            let config = PinPointsConfig {
                strategy: sampsim_simpoint::StrategySpec::parse(name).unwrap(),
                ..serve.clone()
            };
            assert_eq!(response_key(&p, &config), response, "{name}");
            assert_eq!(
                config.strategy.fingerprint(&config.simpoint),
                fingerprint,
                "{name}"
            );
        }
    }

    #[test]
    fn whole_walk_keys_are_pinned_to_literal_values() {
        // Whole-walk keys name the figure memo's disk-tier entries, which
        // every exhibit and strategy shares; a key that moves cold-starts
        // them all.
        let p = program();
        let table1 = Machine::Functional(configs::allcache_table1());
        let table3 = Machine::Timing(CoreConfig::table3(), configs::i7_table3());
        assert_eq!(whole_walk_key(&p, &table1), 0xfec5_4715_c25f_ef4a);
        assert_eq!(whole_walk_key(&p, &table3), 0xf213_9d3c_e272_74a6);
        // The machine's kind, its hierarchy and its core all enter the key.
        let functional3 = Machine::Functional(configs::i7_table3());
        let wide = Machine::Timing(CoreConfig::wide(), configs::i7_table3());
        let keys = [table1, table3, functional3, wide].map(|m| whole_walk_key(&p, &m));
        for (i, a) in keys.iter().enumerate() {
            assert!(keys[i + 1..].iter().all(|b| a != b), "{keys:x?}");
        }
    }

    #[test]
    fn a_stage_in_the_previous_format_is_recomputed_and_overwritten() {
        // An entry stored before the cache counters lost their write-back
        // and prefetch counters carries the previous version. Even a body
        // that would decode is a miss: the pass runs again and overwrites
        // the entry, so a stale entry never supplies a number.
        let p = program();
        let pipe = Pipeline::new(config());
        let fresh = pipe.run(&p, &RunOptions::default()).unwrap();
        let (bbvs, starts, mut metrics) = pipe.profile_jobs(&p, sampsim_exec::SERIAL);
        metrics.instructions += 1;
        let mut stale = Encoder::with_header(PROFILE_MAGIC, PROFILE_VERSION - 1);
        bbvs.encode(&mut stale);
        starts.encode(&mut stale);
        metrics.encode(&mut stale);
        let cache = MemoryStageCache::new();
        let key = profile_stage_key(&p, &config());
        cache.put(key, &stale.into_bytes());
        let options = RunOptions {
            stage_cache: &cache,
            ..RunOptions::default()
        };
        let run = pipe.run(&p, &options).unwrap();
        assert!(fresh.whole_metrics.deterministic_eq(&run.whole_metrics));
        assert_eq!(
            (run.simpoints, run.regional),
            (fresh.simpoints, fresh.regional)
        );
        let stored = ProfileStage::from_bytes(&cache.get(key).unwrap()).unwrap();
        assert!(stored.metrics.deterministic_eq(&fresh.whole_metrics));
        assert_eq!(stored.bbvs, bbvs);
    }

    #[test]
    fn hierarchy_fingerprint_is_field_sensitive() {
        let base = configs::allcache_table1();
        let fp = hierarchy_fingerprint(&base);
        let mut bigger = base;
        bigger.l3.size_bytes *= 2;
        assert_ne!(fp, hierarchy_fingerprint(&bigger));
        let mut latency = base;
        latency.mem_latency += 1;
        assert_ne!(fp, hierarchy_fingerprint(&latency));
        assert_eq!(fp, hierarchy_fingerprint(&configs::allcache_table1()));
    }

    #[test]
    fn memory_cache_counts_hits() {
        let cache = MemoryStageCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.get(1), None);
        assert_eq!(cache.hits(), 0);
        cache.put(1, b"abc");
        assert_eq!(cache.get(1).as_deref(), Some(&b"abc"[..]));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
        // NoCache never stores.
        NoCache.put(1, b"abc");
        assert_eq!(NoCache.get(1), None);
    }

    #[test]
    fn cached_run_is_deterministically_equal_to_cold_run() {
        // Every combination of the three `RunOptions` fields: job count,
        // stage cache (cold then warm) and a preflight token.
        let p = program();
        let pipe = Pipeline::new(config());
        let plain = pipe.run(&p, &RunOptions::default()).unwrap();
        let token = pipe.preflight_checked(&p);
        for jobs in [sampsim_exec::SERIAL, sampsim_exec::Jobs::new(2).unwrap()] {
            for preflight in [None, Some(&token)] {
                let cache = MemoryStageCache::new();
                let options = RunOptions {
                    jobs,
                    stage_cache: &cache,
                    preflight,
                };
                let cold = pipe.run(&p, &options).unwrap();
                assert_eq!(cache.hits(), 0);
                let warm = pipe.run(&p, &options).unwrap();
                assert_eq!(cache.hits(), 1);
                for r in [&cold, &warm] {
                    let case = format!("jobs={jobs} preflight={}", preflight.is_some());
                    assert!(
                        plain.whole_metrics.deterministic_eq(&r.whole_metrics),
                        "{case}"
                    );
                    assert_eq!(plain.simpoints, r.simpoints, "{case}");
                    assert_eq!(plain.regional, r.regional, "{case}");
                    assert_eq!(plain.num_slices, r.num_slices, "{case}");
                }
            }
        }
    }
}
