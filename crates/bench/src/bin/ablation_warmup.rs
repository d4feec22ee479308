//! Ablation: warmup-length sweep for the Warmup Regional Run (Fig. 8's
//! mitigation), plus the paper's alternative mitigation of replaying the
//! region itself ("run the pinballs multiple times").

use sampsim_bench::{unwrap_or_die, Cli};
use sampsim_core::bench_result::StudyConfig;
use sampsim_core::metrics::aggregate_weighted;
use sampsim_core::runs::{self, WarmupMode};
use sampsim_core::{Pipeline, RunOptions};
use sampsim_exec::SERIAL;
use sampsim_spec2017::{benchmark, BenchmarkId};
use sampsim_util::table::{fmt_f, Table};

fn main() {
    let cli = Cli::parse();
    let id = BenchmarkId::XzS;
    let config = StudyConfig::default().scaled(cli.scale);
    let program = benchmark(id).scaled(cli.scale).build();
    let whole = runs::run_whole_functional(
        &program,
        config.pinpoints.profile_cache.expect("cache configured"),
    );
    let whole_l3 = whole
        .cache
        .as_ref()
        .expect("cache stats")
        .l3
        .miss_rate_pct();

    let mut table = Table::new(vec![
        "Warmup config".into(),
        "L3 miss%".into(),
        "|err| pp".into(),
    ]);
    table.title(format!(
        "Ablation: warmup length vs L3 miss-rate error, {} (whole L3 = {:.2}%)",
        id.name(),
        whole_l3
    ));
    for warmup_slices in [0u64, 4, 16, 48, 96] {
        let mut pp = config.pinpoints.clone();
        pp.warmup_slices = warmup_slices;
        pp.profile_cache = None;
        let pipeline = Pipeline::new(pp.clone());
        let result = unwrap_or_die(pipeline.run(&program, &RunOptions::default()));
        let mode = if warmup_slices == 0 {
            WarmupMode::None
        } else {
            WarmupMode::Checkpointed
        };
        let regions = unwrap_or_die(runs::run_regions_functional_jobs(
            &program,
            &result.regional,
            config.pinpoints.profile_cache.expect("cache configured"),
            mode,
            SERIAL,
        ));
        let l3 = aggregate_weighted(&regions)
            .miss_rates
            .expect("cache stats")
            .l3;
        table.row(vec![
            if warmup_slices == 0 {
                "cold (no warmup)".into()
            } else {
                format!("{warmup_slices} slices")
            },
            fmt_f(l3, 2),
            fmt_f((l3 - whole_l3).abs(), 2),
        ]);
    }
    // Paper's alternative: replay the pinballs themselves before measuring.
    {
        let mut pp = config.pinpoints.clone();
        pp.warmup_slices = 0;
        pp.profile_cache = None;
        let pipeline = Pipeline::new(pp);
        let result = unwrap_or_die(pipeline.run(&program, &RunOptions::default()));
        for rounds in [1u32, 3] {
            let regions = unwrap_or_die(runs::run_regions_functional_jobs(
                &program,
                &result.regional,
                config.pinpoints.profile_cache.expect("cache configured"),
                WarmupMode::Replayed { rounds },
                SERIAL,
            ));
            let l3 = aggregate_weighted(&regions)
                .miss_rates
                .expect("cache stats")
                .l3;
            table.row(vec![
                format!("self-replay x{rounds}"),
                fmt_f(l3, 2),
                fmt_f((l3 - whole_l3).abs(), 2),
            ]);
        }
    }
    table.print();
    println!("\n(the paper's two mitigations: functional warming before each point, or");
    println!(" running the set of regional pinballs multiple times to exercise the LLC —");
    println!(" note self-replay over-warms transient streaming data at reduced scale)");
}
