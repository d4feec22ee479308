//! Sampling-configuration lints (`SA020`–`SA033`): slicing and clustering
//! parameters plus cache-hierarchy geometry.
//!
//! The pipeline's configuration type lives in `sampsim-core`, which depends
//! on this crate; [`SamplingConfig`] is the dependency-neutral view of it
//! that callers assemble before linting.

use crate::diag::{Diagnostic, Location, Report, Rule};
use sampsim_cache::{CacheConfig, HierarchyConfig};
use sampsim_simpoint::SimPointOptions;

/// A dependency-neutral view of a sampling-pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct SamplingConfig<'a> {
    /// Slice length in instructions.
    pub slice_size: u64,
    /// Warmup window in slices.
    pub warmup_slices: u64,
    /// SimPoint analysis options.
    pub simpoint: &'a SimPointOptions,
    /// Cache hierarchy profiled during the whole pass, if any.
    pub profile_cache: Option<&'a HierarchyConfig>,
    /// Slice count the run is expected to produce
    /// (`total_insts.div_ceil(slice_size)`), when known.
    pub expected_slices: Option<u64>,
}

/// Lints a complete sampling configuration.
pub fn lint_sampling_config(config: &SamplingConfig<'_>) -> Report {
    let mut report = Report::new();

    // SA020: slice size.
    if config.slice_size == 0 {
        report.push(Diagnostic::new(
            Rule::ZeroSliceSize,
            Location::config("slice_size"),
            "slice_size is 0; the profiling pass cannot slice the run",
        ));
    }

    report.merge(lint_simpoint_options(config.simpoint));

    // SA022: MaxK vs the expected slice count.
    if let Some(slices) = config.expected_slices {
        if config.simpoint.max_k > 0 && config.simpoint.max_k as u64 >= slices.max(1) {
            report.push(Diagnostic::new(
                Rule::MaxKExceedsSlices,
                Location::config("simpoint.max_k"),
                format!(
                    "MaxK = {} but the run only produces {} slice(s); \
                     clustering degenerates when k >= n",
                    config.simpoint.max_k, slices
                ),
            ));
        }

        // SA028: warmup window bounded by the run length.
        if config.warmup_slices >= slices.max(1) {
            report.push(Diagnostic::new(
                Rule::ExcessiveWarmup,
                Location::config("warmup_slices"),
                format!(
                    "warmup_slices = {} covers the whole {}-slice run",
                    config.warmup_slices, slices
                ),
            ));
        }
    }

    if let Some(cache) = config.profile_cache {
        report.merge(lint_hierarchy(cache, "profile_cache"));
    }

    report
}

/// Lints [`SimPointOptions`] (`SA021`, `SA023`–`SA027`).
pub fn lint_simpoint_options(options: &SimPointOptions) -> Report {
    let mut report = Report::new();
    if options.max_k == 0 {
        report.push(Diagnostic::new(
            Rule::BadMaxK,
            Location::config("simpoint.max_k"),
            "max_k is 0; at least one cluster is required",
        ));
    }
    if options.dim == 0 {
        report.push(Diagnostic::new(
            Rule::BadProjectionDim,
            Location::config("simpoint.dim"),
            "dim is 0; BBVs cannot be projected into zero dimensions",
        ));
    }
    if options.n_init == 0 {
        report.push(Diagnostic::new(
            Rule::ZeroInit,
            Location::config("simpoint.n_init"),
            "n_init is 0; no k-means restart would ever run",
        ));
    }
    if options.max_iter == 0 {
        report.push(Diagnostic::new(
            Rule::ZeroMaxIter,
            Location::config("simpoint.max_iter"),
            "max_iter is 0; Lloyd's algorithm would never assign points",
        ));
    }
    if !(options.bic_threshold > 0.0 && options.bic_threshold <= 1.0) {
        report.push(Diagnostic::new(
            Rule::BadBicThreshold,
            Location::config("simpoint.bic_threshold"),
            format!("bic_threshold is {}, outside (0, 1]", options.bic_threshold),
        ));
    }
    if options.sample_size == 0 {
        report.push(Diagnostic::new(
            Rule::ZeroSampleSize,
            Location::config("simpoint.sample_size"),
            "sample_size is 0; BIC scoring would see an empty subsample",
        ));
    }
    report
}

/// Validates a requested sampling-strategy spec string against the engine
/// registry (`SA130`). Used by serve request validation and the CLI
/// before a strategy string is turned into a pipeline configuration.
/// Accepts both bare registry names (`rss`) and parameterized specs
/// (`rss:set_size=8,replicates=9`); the diagnostic carries the parser's
/// description of what was wrong.
pub fn lint_strategy_name(name: &str) -> Report {
    let mut report = Report::new();
    if let Err(why) = sampsim_simpoint::StrategySpec::parse_spec(name) {
        report.push(Diagnostic::new(
            Rule::UnknownStrategy,
            Location::config("strategy"),
            format!("strategy '{name}' is rejected: {why}"),
        ));
    }
    report
}

/// Lints a cache hierarchy (`SA030`–`SA033`). `field` prefixes the
/// location (e.g. `profile_cache`).
pub fn lint_hierarchy(config: &HierarchyConfig, field: &str) -> Report {
    let mut report = Report::new();
    let levels: [(&str, &CacheConfig); 4] = [
        ("l1i", &config.l1i),
        ("l1d", &config.l1d),
        ("l2", &config.l2),
        ("l3", &config.l3),
    ];
    for (name, cache) in levels {
        report.merge(lint_cache_level(cache, &format!("{field}.{name}")));
    }

    // SA032: latency monotonicity along both lookup paths.
    let paths: [[(&str, u32); 2]; 4] = [
        [("l1i", config.l1i.latency), ("l2", config.l2.latency)],
        [("l1d", config.l1d.latency), ("l2", config.l2.latency)],
        [("l2", config.l2.latency), ("l3", config.l3.latency)],
        [("l3", config.l3.latency), ("mem", config.mem_latency)],
    ];
    for [(inner, inner_lat), (outer, outer_lat)] in paths {
        if inner_lat > outer_lat {
            report.push(Diagnostic::new(
                Rule::LatencyInversion,
                Location::config(format!("{field}.{inner}.latency")),
                format!(
                    "{inner} latency ({inner_lat} cycles) exceeds {outer} \
                     latency ({outer_lat} cycles)"
                ),
            ));
        }
    }

    // SA033: inner lines larger than outer lines.
    let lines: [[(&str, u64); 2]; 3] = [
        [("l1i", config.l1i.line_bytes), ("l2", config.l2.line_bytes)],
        [("l1d", config.l1d.line_bytes), ("l2", config.l2.line_bytes)],
        [("l2", config.l2.line_bytes), ("l3", config.l3.line_bytes)],
    ];
    for [(inner, inner_line), (outer, outer_line)] in lines {
        if inner_line > outer_line {
            report.push(Diagnostic::new(
                Rule::LineSizeMismatch,
                Location::config(format!("{field}.{inner}.line_bytes")),
                format!(
                    "{inner} lines ({inner_line} B) are larger than {outer} \
                     lines ({outer_line} B)"
                ),
            ));
        }
    }

    report
}

fn lint_cache_level(cache: &CacheConfig, field: &str) -> Report {
    let mut report = Report::new();
    // SA030: line size.
    if !cache.line_bytes.is_power_of_two() {
        report.push(Diagnostic::new(
            Rule::LineNotPow2,
            Location::config(format!("{field}.line_bytes")),
            format!("line size {} B is not a power of two", cache.line_bytes),
        ));
    }
    // SA031: geometry. With a broken line size the derived set count is
    // meaningless, so only check geometry once the line size is sane.
    if cache.ways == 0 {
        report.push(Diagnostic::new(
            Rule::BadCacheGeometry,
            Location::config(format!("{field}.ways")),
            "associativity is 0",
        ));
    } else if cache.line_bytes.is_power_of_two() {
        let way_bytes = u64::from(cache.ways) * cache.line_bytes;
        if cache.size_bytes == 0 || !cache.size_bytes.is_multiple_of(way_bytes) {
            report.push(Diagnostic::new(
                Rule::BadCacheGeometry,
                Location::config(format!("{field}.size_bytes")),
                format!(
                    "capacity {} B is not a positive multiple of ways * line \
                     size ({} B)",
                    cache.size_bytes, way_bytes
                ),
            ));
        } else if !(cache.size_bytes / way_bytes).is_power_of_two() {
            report.push(Diagnostic::new(
                Rule::BadCacheGeometry,
                Location::config(format!("{field}.size_bytes")),
                format!(
                    "derived set count {} is not a power of two",
                    cache.size_bytes / way_bytes
                ),
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampsim_cache::configs;

    #[test]
    fn strategy_names_validate_against_the_registry() {
        for name in sampsim_simpoint::STRATEGY_NAMES {
            assert!(lint_strategy_name(name).is_empty(), "{name}");
        }
        let report = lint_strategy_name("frobnicate");
        assert!(report.has_errors());
        let diags = report.into_diagnostics();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::UnknownStrategy);
        assert_eq!(diags[0].rule.code(), "SA130");
        assert!(diags[0].message.contains("frobnicate"));
    }

    #[test]
    fn parameterized_strategy_specs_validate_too() {
        assert!(lint_strategy_name("rss:set_size=8,replicates=9").is_empty());
        assert!(lint_strategy_name("stratified2p:strata=4").is_empty());
        let report = lint_strategy_name("rss:set_size=nope");
        let diags = report.into_diagnostics();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::UnknownStrategy);
        assert!(
            diags[0].message.contains("set_size"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn default_options_and_paper_hierarchies_are_clean() {
        let options = SimPointOptions::default();
        for hierarchy in [configs::allcache_table1(), configs::i7_table3()] {
            let config = SamplingConfig {
                slice_size: 10_000,
                warmup_slices: 48,
                simpoint: &options,
                profile_cache: Some(&hierarchy),
                expected_slices: Some(1_000),
            };
            let report = lint_sampling_config(&config);
            assert!(report.is_empty(), "{:?}", report.diagnostics());
        }
    }
}
