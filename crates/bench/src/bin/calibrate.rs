//! Calibration helper: reports the simulation-point counts the pipeline
//! finds for a set of representative benchmarks under varying BIC
//! thresholds, against the Table II targets. Not a paper exhibit; used
//! when tuning the synthetic suite.
//!
//! Usage: `calibrate [scale]` (default scale 1.0; counts are invariant to
//! scale because slice counts are preserved).

use sampsim_core::pipeline::{PinPointsConfig, Pipeline};
use sampsim_exec::SERIAL;
use sampsim_simpoint::{SimPointOptions, SimPointStrategy};
use sampsim_spec2017::{benchmark, BenchmarkId};
use sampsim_util::scale::Scale;

fn main() {
    let scale = Scale::new(
        std::env::args()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(1.0),
    );
    let thresholds = [0.9f64, 0.85, 0.8, 0.7];
    let ids = [
        BenchmarkId::OmnetppS,
        BenchmarkId::McfR,
        BenchmarkId::XalancbmkS,
        BenchmarkId::DeepsjengS,
        BenchmarkId::BwavesR,
    ];
    for id in ids {
        let spec = benchmark(id);
        let program = spec.scaled(scale).build();
        let pp = PinPointsConfig {
            slice_size: scale.apply(10_000),
            ..Default::default()
        };
        let (bbvs, _starts, _m) = Pipeline::new(pp.clone()).profile_jobs(&program, SERIAL);
        print!(
            "{:<18} target {:>2}/{:>2} slices {:>6} ->",
            spec.name(),
            spec.table2_points(),
            spec.table2_points_90(),
            bbvs.len()
        );
        for &t in &thresholds {
            let opts = SimPointOptions {
                bic_threshold: t,
                ..pp.simpoint
            };
            let r = SimPointStrategy::new(opts)
                .analyze(&bbvs, pp.slice_size, SERIAL)
                .expect("non-empty profile");
            let n90 = sampsim_simpoint::select::count_at_percentile(&r.points, 0.9);
            print!("  t{t}: {}/{}", r.points.len(), n90);
        }
        println!();
    }
}
