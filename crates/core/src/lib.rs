//! The PinPoints pipeline and the paper's experiments.
//!
//! This crate ties every substrate together into the methodology of Fig. 2
//! of the paper:
//!
//! ```text
//!  program ──▶ whole profiling pass ──▶ BBVs + slice checkpoints
//!                      │                        │
//!                      ▼                        ▼
//!               whole pinball           SimPoint clustering
//!                                               │
//!                                               ▼
//!                                     regional pinballs (+weights)
//!                                               │
//!                         ┌─────────────────────┼──────────────────┐
//!                         ▼                     ▼                  ▼
//!                 Regional Run         Reduced Regional     Warmup Regional
//!                 (all points)         (90th percentile)    (primed caches)
//! ```
//!
//! * [`pipeline`] — [`pipeline::Pipeline`] produces simulation
//!   points and checkpoints from a program in one profiling pass.
//! * [`metrics`] — run metrics and the weighted-aggregation rules (only
//!   per-instruction-normalized statistics may be weighted; the paper
//!   stresses CPI is safe where IPC is not).
//! * [`runs`] — executors for the four run kinds over functional tools and
//!   the timing model.
//! * [`bench_result`] — everything the paper measures for one benchmark,
//!   in one codec-encodable record.
//! * [`experiments`] — the table/figure-level drivers (`MaxK` and slice
//!   sweeps, percentile sweep, and the suite runner that memoizes each
//!   benchmark's record through a [`StageCache`]).
//!
//! # Example
//!
//! ```
//! use sampsim_core::{PinPointsConfig, Pipeline, RunOptions};
//! use sampsim_workload::spec::{PhaseSpec, WorkloadSpec};
//!
//! let program = WorkloadSpec::builder("demo", 3)
//!     .total_insts(60_000)
//!     .phase(PhaseSpec::balanced(1.0))
//!     .phase(PhaseSpec::memory_bound(1.0))
//!     .build()
//!     .build();
//! let mut config = PinPointsConfig::default();
//! config.slice_size = 1_000;
//! config.simpoint.max_k = 10;
//! let result = Pipeline::new(config)
//!     .run(&program, &RunOptions::default())
//!     .unwrap();
//! assert!(result.regional.len() >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_result;
pub mod compare;
pub mod error;
pub mod experiments;
pub mod metrics;
pub mod pipeline;
pub mod plan;
pub mod runs;
pub mod stage_cache;
mod two_stage;

pub use bench_result::BenchResult;
pub use error::CoreError;
pub use metrics::{AggregatedMetrics, RunMetrics};
pub use pipeline::{PinPointsConfig, Pipeline, PipelineResult, Preflight, RunOptions};
pub use plan::{plan_strategy, PlanReport};
pub use runs::WarmupMode;
pub use stage_cache::{MemoryStageCache, NoCache, StageCache};
