//! Subcommand implementations.

mod audit;
mod compare;
mod fleet;
mod lint;
mod perf;
mod plan;
mod serve;

pub use audit::audit;
pub use compare::compare;
pub use fleet::fleet;
pub use lint::lint;
pub use perf::perf;
pub use plan::plan;
pub use serve::{request, serve};

use crate::args::Args;
use sampsim_cache::configs;
use sampsim_core::metrics::{aggregate_weighted, whole_as_aggregate, AggregatedMetrics};
use sampsim_core::pipeline::{PinPointsConfig, Pipeline, RunOptions};
use sampsim_core::runs::{self, WarmupMode};
use sampsim_core::stage_cache::NoCache;
use sampsim_pinball::store;
use sampsim_serve::service::{self, find_benchmark, RunRequest};
use sampsim_simpoint::{SimPointOptions, StrategySpec};
use sampsim_spec2017::BenchmarkSpec;
use sampsim_util::stats::with_commas;
use sampsim_util::table::{fmt_f, Table};
use sampsim_workload::Program;
use std::fmt;
use std::io::Write;
use std::path::Path;

/// Boxed error for command results.
pub type CmdResult = Result<(), Box<dyn std::error::Error>>;

/// A usage-class failure (bad operands rather than a failed run): `main`
/// maps it to exit code 2, like argument-parse errors.
#[derive(Debug)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

/// Opens `path` for writing up front, so a bad report path fails fast
/// (exit 2) instead of after minutes of pipeline work.
fn create_report_file(path: &str) -> Result<std::fs::File, UsageError> {
    std::fs::File::create(path).map_err(|e| UsageError(format!("cannot write {path}: {e}")))
}

/// The `--validate FILE` of `compare`, `plan` or `perf`. The mode runs
/// nothing, so it refuses every other flag and any benchmark.
fn validating<'a>(args: &'a Args, command: &str) -> Result<Option<&'a str>, UsageError> {
    if args.validate.is_some() {
        only_mode(args, command, "--validate")?;
    }
    Ok(args.validate.as_deref())
}

/// Refuses every operand and every flag but `mode` for a mode of
/// `command` that reads only `mode`'s value (`compare --validate FILE`,
/// `lint --explain ID`): `<command> <mode> refuses <flag>`, exit 2.
fn only_mode(args: &Args, command: &str, mode: &str) -> Result<(), UsageError> {
    let who = format!("{command} {mode}");
    if args.operand(0).is_some() {
        return Err(UsageError(format!("{who} takes no benchmark")));
    }
    args.refuse_unread(&who, |flag| flag == mode, "the mode never reads it")
        .map_err(UsageError)
}

/// `--validate FILE` for every report command: checks one saved report
/// and prints `FILE: valid <schema> report`. An unreadable file or any
/// violation is a usage-class failure (exit 2), reported by its path.
fn validate_file(path: &str, schema: &str, validate: fn(&str) -> Result<(), String>) -> CmdResult {
    let text = std::fs::read_to_string(path)
        .map_err(|e| UsageError(format!("cannot read {path}: {e}")))?;
    validate(&text).map_err(|e| UsageError(format!("{path}: {e}")))?;
    println!("{path}: valid {schema} report");
    Ok(())
}

/// Resolves `--strategy` against the engine registry. A spec that does
/// not parse — unregistered name or malformed parameters — is a
/// usage-class failure (SA130, exit 2), same class as a bad flag value,
/// caught before any pipeline work starts.
fn validated_strategy(args: &Args) -> Result<Option<StrategySpec>, UsageError> {
    let Some(name) = &args.strategy else {
        return Ok(None);
    };
    let report = sampsim_analyze::lint_strategy_name(name);
    if let Some(d) = report.diagnostics().first() {
        return Err(UsageError(format!("[{}] {}", d.rule.code(), d.message)));
    }
    Ok(Some(
        StrategySpec::parse_spec(name).expect("lint-validated strategy specs always parse"),
    ))
}

/// The pipeline configuration the shared flags describe: `--slice` (or
/// the default slice, scaled), `--maxk` and `--strategy`. `run`, `report`,
/// `simpoints` and `figure` all read the flags through here.
pub(crate) fn pipeline_config(args: &Args) -> Result<PinPointsConfig, UsageError> {
    let mut config = PinPointsConfig {
        slice_size: args.slice.unwrap_or_else(|| args.scale.apply(10_000)),
        ..PinPointsConfig::default()
    };
    if let Some(maxk) = args.maxk {
        config.simpoint = SimPointOptions {
            max_k: maxk,
            ..config.simpoint
        };
    }
    if let Some(spec) = validated_strategy(args)? {
        config.strategy = spec;
    }
    Ok(config)
}

fn build(spec: &BenchmarkSpec, args: &Args) -> Program {
    spec.scaled(args.scale).build()
}

/// `sampsim list`.
pub fn list() -> CmdResult {
    let mut table = Table::new([
        "Benchmark",
        "Suite",
        "Whole insts (full scale)",
        "Table II pts",
        "Table II 90pct",
    ]);
    for spec in sampsim_spec2017::suite() {
        table.row(vec![
            spec.name().to_string(),
            spec.suite().label().to_string(),
            with_commas(spec.workload().total_insts),
            spec.table2_points().to_string(),
            spec.table2_points_90().to_string(),
        ]);
    }
    table.print();
    Ok(())
}

/// `sampsim run <bench> [-o FILE]` — profile, cluster, replay, aggregate;
/// print one deterministic JSON document to stdout (and, with `-o`, to
/// `FILE`).
///
/// The document is rendered by `sampsim_serve::service` — the same code
/// path the daemon replies through, so served responses are byte-identical
/// to this stdout by construction. It contains only deterministic
/// quantities (no wall-clock, no resolved worker count), and every float
/// is printed with Rust's shortest-round-trip formatting, so the bytes
/// are identical for every `--jobs` value. The CLI integration tests rely
/// on this.
pub fn run(args: &Args) -> CmdResult {
    let bench = args.required("run needs a benchmark")?;
    validated_strategy(args)?;
    let request = RunRequest {
        bench: bench.to_string(),
        scale: args.scale.factor(),
        slice: args.slice,
        maxk: args.maxk,
        strategy: args.strategy.clone(),
        kmeans: None,
    };
    let prepared = service::prepare(&request)?;
    let mut sink = args.out.as_deref().map(create_report_file).transpose()?;
    eprintln!(
        "running the sampling study for {} ({} instructions, jobs = {})...",
        prepared.name,
        with_commas(prepared.program.total_insts()),
        args.jobs
    );
    let document = service::execute_prepared(&prepared, args.jobs, &NoCache)?;
    println!("{document}");
    if let Some(file) = &mut sink {
        writeln!(file, "{document}")?;
    }
    Ok(())
}

/// `sampsim profile <bench>`.
pub fn profile(args: &Args) -> CmdResult {
    let spec = find_benchmark(args.required("profile needs a benchmark")?)?;
    let program = build(&spec, args);
    eprintln!(
        "profiling {} ({} instructions)...",
        spec.name(),
        with_commas(program.total_insts())
    );
    let metrics = runs::run_whole_functional(&program, configs::allcache_table1());
    print_aggregate(
        &format!("{} whole run", spec.name()),
        &whole_as_aggregate(&metrics),
    );
    println!(
        "\n{} instructions in {:.2}s ({:.1} M inst/s simulated)",
        with_commas(metrics.instructions),
        metrics.wall_seconds,
        metrics.instructions as f64 / metrics.wall_seconds / 1e6
    );
    Ok(())
}

/// `sampsim simpoints <bench> [-o DIR]`. The selection, the table and
/// the saved pinballs are identical for every `--jobs` value.
pub fn simpoints(args: &Args) -> CmdResult {
    let spec = find_benchmark(args.required("simpoints needs a benchmark")?)?;
    let program = build(&spec, args);
    let config = pipeline_config(args)?;
    eprintln!(
        "slicing {} at {} instructions/slice, MaxK = {}...",
        spec.name(),
        config.slice_size,
        config.simpoint.max_k
    );
    let run_options = RunOptions {
        jobs: args.jobs,
        ..Default::default()
    };
    let result = Pipeline::new(config).run(&program, &run_options)?;
    let mut table = Table::new(["Slice", "Cluster", "Weight %", "Warmup insts"]);
    table.title(format!(
        "{}: {} slices -> {} simulation points (k = {})",
        spec.name(),
        result.num_slices,
        result.regional.len(),
        result.simpoints.k
    ));
    for pb in &result.regional {
        table.row(vec![
            pb.slice_index.to_string(),
            pb.cluster.to_string(),
            fmt_f(pb.weight * 100.0, 2),
            with_commas(pb.warmup_insts()),
        ]);
    }
    table.print();
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir)?;
        let path = Path::new(dir).join(format!("{}.pb", spec.name()));
        store::save_regions(&path, &result.regional)?;
        let wpath = Path::new(dir).join(format!("{}.whole.pb", spec.name()));
        store::save_whole(&wpath, &result.whole)?;
        println!(
            "\nsaved {} regional pinballs to {} (replay with `sampsim replay {}`)",
            result.regional.len(),
            path.display(),
            path.display()
        );
    }
    Ok(())
}

/// `sampsim replay <FILE>`.
pub fn replay(args: &Args) -> CmdResult {
    let path = args.required("replay needs a pinball file")?;
    let regions = store::load_regions(Path::new(path))?;
    let first = regions.first().ok_or("pinball file contains no regions")?;
    let spec = find_benchmark(&first.program_name)?;
    let program = build(&spec, args);
    eprintln!(
        "replaying {} regions of {} with ldstmix + allcache (warm)...",
        regions.len(),
        first.program_name
    );
    let metrics = runs::run_regions_functional_jobs(
        &program,
        &regions,
        configs::allcache_table1(),
        WarmupMode::Checkpointed,
        args.jobs,
    )?;
    let agg = aggregate_weighted(&metrics);
    print_aggregate(&format!("{} regional run", first.program_name), &agg);
    println!(
        "\nreplayed {} instructions across {} regions",
        with_commas(agg.total_instructions),
        regions.len()
    );
    Ok(())
}

/// `sampsim report <bench>`.
pub fn report(args: &Args) -> CmdResult {
    let spec = find_benchmark(args.required("report needs a benchmark")?)?;
    let program = build(&spec, args);
    let config = pipeline_config(args)?;
    eprintln!(
        "running the full study for {} (whole + regions)...",
        spec.name()
    );
    let mut pp = config;
    pp.profile_cache = Some(configs::allcache_table1());
    let pipeline = Pipeline::new(pp.clone());
    let result = pipeline.run(
        &program,
        &RunOptions {
            jobs: args.jobs,
            ..Default::default()
        },
    )?;
    let whole = whole_as_aggregate(&result.whole_metrics);
    let runs_spec: [(&str, WarmupMode); 2] = [
        ("Regional (cold)", WarmupMode::None),
        ("Warmup Regional", WarmupMode::Checkpointed),
    ];
    let mut table = Table::new([
        "Run", "Insts", "NO_MEM%", "MEM_R%", "MEM_W%", "L1D%", "L2%", "L3%",
    ]);
    table.title(format!(
        "{}: {} points over {} slices",
        spec.name(),
        result.regional.len(),
        result.num_slices
    ));
    let push = |table: &mut Table, label: &str, agg: &AggregatedMetrics| {
        let mr = agg.miss_rates.expect("cache stats");
        table.row(vec![
            label.to_string(),
            with_commas(agg.total_instructions),
            fmt_f(agg.mix_pct[0], 2),
            fmt_f(agg.mix_pct[1], 2),
            fmt_f(agg.mix_pct[2], 2),
            fmt_f(mr.l1d, 2),
            fmt_f(mr.l2, 2),
            fmt_f(mr.l3, 2),
        ]);
    };
    push(&mut table, "Whole", &whole);
    for (label, mode) in runs_spec {
        let metrics = runs::run_regions_functional_jobs(
            &program,
            &result.regional,
            configs::allcache_table1(),
            mode,
            args.jobs,
        )?;
        push(&mut table, label, &aggregate_weighted(&metrics));
    }
    table.print();
    Ok(())
}

/// `sampsim trace <bench> -o FILE [--limit N]`.
pub fn trace(args: &Args) -> CmdResult {
    use sampsim_pin::engine;
    use sampsim_pin::tools::TraceWriter;
    let bench = args.required("trace needs a benchmark")?;
    let out = args
        .out
        .as_deref()
        .ok_or_else(|| UsageError("trace needs -o FILE".into()))?;
    let spec = find_benchmark(bench)?;
    let program = build(&spec, args);
    let cap = args.limit.unwrap_or(u64::MAX);
    eprintln!(
        "tracing {} ({} instructions max) to {out}...",
        spec.name(),
        if cap == u64::MAX {
            "all".to_string()
        } else {
            with_commas(cap)
        }
    );
    let mut writer = TraceWriter::create(Path::new(out), program.digest(), program.name())?;
    let mut exec = sampsim_workload::Executor::new(&program);
    engine::run_one(&mut exec, cap, &mut writer);
    let written = writer.finish()?;
    println!(
        "wrote {} records ({} bytes) to {out}",
        with_commas(written),
        with_commas(std::fs::metadata(out)?.len())
    );
    Ok(())
}

fn print_aggregate(title: &str, agg: &AggregatedMetrics) {
    let mut table = Table::new(["Metric", "Value"]);
    table.title(title.to_string());
    for (i, label) in ["NO_MEM %", "MEM_R %", "MEM_W %", "MEM_RW %"]
        .iter()
        .enumerate()
    {
        table.row(vec![label.to_string(), fmt_f(agg.mix_pct[i], 2)]);
    }
    if let Some(mr) = agg.miss_rates {
        table.row(vec!["L1I miss %".into(), fmt_f(mr.l1i, 3)]);
        table.row(vec!["L1D miss %".into(), fmt_f(mr.l1d, 3)]);
        table.row(vec!["L2 miss %".into(), fmt_f(mr.l2, 3)]);
        table.row(vec!["L3 miss %".into(), fmt_f(mr.l3, 3)]);
    }
    table.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_benchmark_exact_and_substring() {
        assert_eq!(find_benchmark("505.mcf_r").unwrap().name(), "505.mcf_r");
        assert_eq!(find_benchmark("xalanc").unwrap().name(), "623.xalancbmk_s");
        assert!(find_benchmark("nope").is_err());
        // "mcf" matches both mcf_r and mcf_s.
        let err = find_benchmark("mcf").unwrap_err();
        assert!(err.contains("ambiguous"), "{err}");
    }

    #[test]
    fn pipeline_config_respects_flags() {
        let opts = Args {
            scale: sampsim_util::scale::Scale::new(0.5),
            slice: Some(1234),
            maxk: Some(7),
            ..Args::default()
        };
        let c = pipeline_config(&opts).unwrap();
        assert_eq!(c.slice_size, 1234);
        assert_eq!(c.simpoint.max_k, 7);
        let defaults = pipeline_config(&Args {
            scale: sampsim_util::scale::Scale::new(0.5),
            slice: None,
            maxk: None,
            ..Args::default()
        })
        .unwrap();
        assert_eq!(defaults.slice_size, 5_000);
    }

    #[test]
    fn pipeline_config_validates_strategy_names() {
        let named = |name: &str| Args {
            strategy: Some(name.to_string()),
            ..Args::default()
        };
        for name in sampsim_simpoint::STRATEGY_NAMES {
            let config = pipeline_config(&named(name)).unwrap();
            assert_eq!(config.strategy.name(), *name);
        }
        let err = pipeline_config(&named("frobnicate")).unwrap_err();
        assert!(err.0.contains("SA130"), "{}", err.0);
        assert!(err.0.contains("frobnicate"), "{}", err.0);
    }

    #[test]
    fn pipeline_config_validates_kmeans_mode() {
        // Lloyd is the only clustering kernel: the old selector flag never
        // reaches pipeline_config, and a plain run keeps the default
        // SimPoint options.
        let argv = |s: &str| {
            crate::args::parse(s.split_whitespace().map(String::from)).map(|(_, args)| args)
        };
        let err = argv("run mcf_r --kmeans-mode minibatch").unwrap_err();
        assert_eq!(err, "unknown flag: --kmeans-mode");
        let config = pipeline_config(&argv("run mcf_r").unwrap()).unwrap();
        assert_eq!(config.simpoint, SimPointOptions::default());
    }

    #[test]
    fn pipeline_config_accepts_parameterized_strategy_specs() {
        let named = |name: &str| Args {
            strategy: Some(name.to_string()),
            ..Args::default()
        };
        let config = pipeline_config(&named("rss:set_size=8,replicates=4")).unwrap();
        assert_eq!(config.strategy.name(), "rss");
        let err = pipeline_config(&named("rss:set_size=nope")).unwrap_err();
        assert!(err.0.contains("SA130"), "{}", err.0);
        assert!(err.0.contains("set_size"), "{}", err.0);
    }

    /// Each command checks its own operands before it builds, binds or
    /// writes anything, and a broken rule is a usage error (exit 2).
    #[test]
    fn operand_rules_keep_their_messages() {
        let refused = |line: &str| {
            let (command, args) =
                crate::args::parse(line.split_whitespace().map(String::from)).unwrap();
            let err = (command.run)(&args).unwrap_err();
            assert!(err.is::<UsageError>(), "{line}: {err}");
            err.to_string()
        };
        for command in ["run", "profile", "simpoints", "report", "trace"] {
            assert_eq!(refused(command), format!("{command} needs a benchmark"));
        }
        assert_eq!(refused("replay"), "replay needs a pinball file");
        assert_eq!(refused("trace mcf_r"), "trace needs -o FILE");
        for command in ["compare", "plan"] {
            assert_eq!(
                refused(command),
                format!("{command} needs a benchmark (or --validate <FILE>)")
            );
            assert_eq!(
                refused(&format!("{command} mcf_r --validate r.json")),
                format!("{command} --validate takes no benchmark")
            );
        }
        assert_eq!(
            refused("audit mcf_r --update"),
            "audit --update needs --artifacts <DIR>"
        );
        assert_eq!(
            refused("request"),
            "request needs a benchmark (or one of --ping/--stats/--shutdown/--suite)"
        );
        for op in ["--ping", "--stats", "--shutdown"] {
            assert_eq!(
                refused(&format!("request mcf_r {op}")),
                "control requests (--ping/--stats/--shutdown) take no benchmark"
            );
        }
    }
}
