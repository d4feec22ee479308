//! # sampsim — a statistical-sampling simulation laboratory
//!
//! `sampsim` reproduces, as a self-contained Rust system, the IISWC 2019
//! paper *"Efficacy of Statistical Sampling on Contemporary Workloads: The
//! Case of SPEC CPU2017"* (Singh & Awasthi). It implements the complete
//! PinPoints flow — phase-structured workloads, dynamic instrumentation,
//! pinball checkpoints, SimPoint clustering, functional cache simulation and
//! an interval timing model — and a benchmark harness that regenerates every
//! table and figure of the paper's evaluation.
//!
//! This umbrella crate re-exports each subsystem under a short module name;
//! see DESIGN.md for the inventory and EXPERIMENTS.md for reproduced
//! results.
//!
//! # Quickstart
//!
//! ```
//! use sampsim::core::{PinPointsConfig, Pipeline, RunOptions};
//! use sampsim::spec2017::{self, BenchmarkId};
//! use sampsim::util::scale::Scale;
//!
//! // Build a (test-scaled) synthetic stand-in for 505.mcf_r and find its
//! // simulation points.
//! let spec = spec2017::benchmark(BenchmarkId::McfR).scaled(Scale::TEST);
//! let program = spec.build();
//! let mut config = PinPointsConfig::default();
//! config.slice_size = 1_000; // coarser slices keep the doctest quick
//! config.simpoint.max_k = 8;
//! let result = Pipeline::new(config)
//!     .run(&program, &RunOptions::default())
//!     .unwrap();
//! assert!(!result.simpoints.points.is_empty());
//! ```

pub use sampsim_analyze as analyze;
pub use sampsim_cache as cache;
pub use sampsim_core as core;
pub use sampsim_exec as exec;
pub use sampsim_perf as perf;
pub use sampsim_pin as pin;
pub use sampsim_pinball as pinball;
pub use sampsim_serve as serve;
pub use sampsim_simpoint as simpoint;
pub use sampsim_spec2017 as spec2017;
pub use sampsim_uarch as uarch;
pub use sampsim_util as util;
pub use sampsim_workload as workload;
