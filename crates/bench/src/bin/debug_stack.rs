//! Debug helper: CPI stack of whole vs regional timing runs.
use sampsim_core::bench_result::StudyConfig;
use sampsim_core::metrics::aggregate_weighted;
use sampsim_core::pipeline::{Pipeline, RunOptions};
use sampsim_core::runs::{self, WarmupMode};
use sampsim_exec::SERIAL;
use sampsim_spec2017::{benchmark, BenchmarkId};
use sampsim_util::scale::Scale;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "631.deepsjeng_s".into());
    let id = BenchmarkId::from_name(&name).expect("benchmark name");
    let scale = Scale::new(
        std::env::args()
            .nth(2)
            .and_then(|s| s.parse().ok())
            .unwrap_or(1.0),
    );
    let warmup: u64 = std::env::args()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(17);
    let mut cfg = StudyConfig::default().scaled(scale);
    cfg.pinpoints.warmup_slices = warmup;
    let program = benchmark(id).scaled(scale).build();
    let pipeline = Pipeline::new(cfg.pinpoints.clone());
    let result = pipeline.run(&program, &RunOptions::default()).unwrap();
    let whole = runs::run_whole_timing(&program, cfg.core, cfg.timing_hierarchy);
    let wt = whole.timing.unwrap();
    let wn = wt.instructions as f64;
    println!(
        "whole  CPI {:.3}: base {:.3} br {:.3} if {:.3} l2 {:.3} l3 {:.3} mem {:.3} (bmiss {:.1}%)",
        wt.cpi(),
        wt.stack.base / wn,
        wt.stack.branch / wn,
        wt.stack.ifetch / wn,
        wt.stack.l2 / wn,
        wt.stack.l3 / wn,
        wt.stack.mem / wn,
        wt.branches.mispredict_rate_pct()
    );
    {
        let regions = runs::run_regions_timing_jobs(
            &program,
            &result.regional,
            cfg.core,
            cfg.timing_hierarchy,
            WarmupMode::Checkpointed,
            SERIAL,
        )
        .unwrap();
        for ((m, w), pb) in regions.iter().zip(&result.regional) {
            let t = m.timing.as_ref().unwrap();
            let n = t.instructions as f64;
            println!("  region slice {:>6} w {:>6.3} seg {:>5} segoff {:>8} warm_insts {:>7}: cpi {:>7.3} mem {:>7.3}",
                pb.slice_index, w, pb.start.seg_idx, pb.start.seg_retired,
                pb.warmup_insts(),
                t.cpi(), t.stack.mem / n);
        }
    }
    for (label, mode) in [
        ("cold", WarmupMode::None),
        ("warm", WarmupMode::Checkpointed),
        ("rply", WarmupMode::Replayed { rounds: 2 }),
    ] {
        let regions = runs::run_regions_timing_jobs(
            &program,
            &result.regional,
            cfg.core,
            cfg.timing_hierarchy,
            mode,
            SERIAL,
        )
        .unwrap();
        let agg = aggregate_weighted(&regions);
        let s = agg.cpi_stack.unwrap();
        println!(
            "{label}   CPI {:.3}: base {:.3} br {:.3} if {:.3} l2 {:.3} l3 {:.3} mem {:.3}",
            agg.cpi.unwrap(),
            s.base,
            s.branch,
            s.ifetch,
            s.l2,
            s.l3,
            s.mem
        );
    }
}
