//! The SimPoint methodology (Sherwood et al., ASPLOS 2002; Hamerly et al.,
//! SimPoint 3.0), reimplemented from the papers.
//!
//! Pipeline (matching Fig. 1 of the reproduced paper):
//!
//! 1. An execution is sliced into fixed-size chunks and each slice's
//!    [basic-block vector](bbv::Bbv) is collected (`sampsim-pin`'s
//!    `BbvTool`).
//! 2. BBVs are L1-normalized and [randomly projected](project) down to 15
//!    dimensions.
//! 3. [k-means](mod@kmeans) clusters the projected slices for every candidate
//!    cluster count `k ≤ MaxK`; the [Bayesian Information
//!    Criterion](bic) picks the best `k`.
//! 4. For each cluster, the slice closest to the centroid becomes a
//!    [simulation point](select::SimPoint); its weight is the fraction of
//!    slices in the cluster.
//! 5. Optionally, points are [reduced to a weight
//!    percentile](select::reduce_to_percentile) (the paper's "Reduced
//!    Regional Run" keeps the 90th percentile).
//!
//! [`SimPointStrategy::analyze`] runs steps 2–5 end-to-end; [`variance`] provides
//! the per-`k` intra-cluster variance sweep behind Fig. 4, and
//! [`baselines`] implements periodic/random samplers used as comparison
//! points in the ablation benches.
//!
//! # Example
//!
//! ```
//! use sampsim_simpoint::{bbv::Bbv, SimPointOptions, SimPointStrategy};
//!
//! // Two obviously different behaviours, five slices each.
//! let mut bbvs = Vec::new();
//! for i in 0..10u32 {
//!     let block = if i % 2 == 0 { 0 } else { 50 };
//!     bbvs.push(Bbv::from_counts(vec![(block, 100)]));
//! }
//! let result = SimPointStrategy::new(SimPointOptions::default())
//!     .analyze(&bbvs, 100, sampsim_exec::SERIAL)
//!     .unwrap();
//! assert_eq!(result.k, 2);
//! let total_weight: f64 = result.points.iter().map(|p| p.weight).sum();
//! assert!((total_weight - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod bbv;
pub mod bic;
pub mod kmeans;
pub mod project;
pub mod reference;
pub mod select;
pub mod smarts;
pub mod strategy;
pub mod variance;
pub mod vli;

mod analysis;

pub use analysis::{SimPointError, SimPointOptions, SimPointsResult};
pub use kmeans::{kmeans, kmeans_best_of, kmeans_best_of_jobs, KmeansError, KmeansResult};
pub use project::RandomProjection;
pub use select::SimPoint;
pub use strategy::{
    Rss, RssOptions, SamplePlan, SamplingStrategy, Selection, SimPointStrategy, StrategyInput,
    StrategySpec, Stratified2p, Stratified2pOptions, MAX_REPLICATES, STRATEGY_NAMES,
};
