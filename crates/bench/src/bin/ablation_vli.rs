//! Ablation: variable-length intervals (SimPoint 3.0, Hamerly et al.).
//!
//! Coalesces consecutive same-cluster slices into intervals and reports,
//! per benchmark, how much longer the representative regions become — the
//! trade-off against fixed-size slices that the paper's related-work
//! section cites.

use sampsim_bench::{unwrap_or_die, Cli};
use sampsim_core::{Pipeline, RunOptions};
use sampsim_simpoint::vli::{coalesce, representative_intervals};
use sampsim_spec2017::{benchmark, BenchmarkId};
use sampsim_util::table::{fmt_f, Table};

fn main() {
    let cli = Cli::parse();
    let ids = [
        BenchmarkId::OmnetppS,
        BenchmarkId::McfR,
        BenchmarkId::DeepsjengS,
        BenchmarkId::BwavesR,
    ];
    let mut table = Table::new(vec![
        "Benchmark".into(),
        "Slices".into(),
        "Intervals".into(),
        "Mean interval (slices)".into(),
        "Fixed points".into(),
        "VLI insts (x fixed)".into(),
    ]);
    table.title("Ablation: variable-length intervals vs fixed-size slices");
    for id in ids {
        let config = sampsim_core::bench_result::StudyConfig::default().scaled(cli.scale);
        let program = benchmark(id).scaled(cli.scale).build();
        let mut pp = config.pinpoints.clone();
        pp.profile_cache = None;
        let result = unwrap_or_die(Pipeline::new(pp).run(&program, &RunOptions::default()));
        let assignments = &result.simpoints.assignments;
        let intervals = coalesce(assignments);
        let reps = representative_intervals(assignments, &result.simpoints.points);
        let fixed_insts = result.regional.len() as u64 * result.regional[0].length;
        let vli_insts: u64 = reps
            .iter()
            .map(|(iv, _)| iv.len * result.regional[0].length)
            .sum();
        table.row(vec![
            id.name().to_string(),
            assignments.len().to_string(),
            intervals.len().to_string(),
            fmt_f(assignments.len() as f64 / intervals.len() as f64, 1),
            result.regional.len().to_string(),
            fmt_f(vli_insts as f64 / fixed_insts as f64, 1),
        ]);
    }
    table.print();
    println!("\n(replaying whole intervals amortizes per-region start-up and captures");
    println!(" behaviour straddling slice boundaries, at the cost of more instructions)");
}
