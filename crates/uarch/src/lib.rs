//! Microarchitectural timing models.
//!
//! The stand-in for Sniper (Carlson, Heirman & Eeckhout, SC 2011) and for
//! the paper's "native hardware + `perf`" reference (§IV-E, Fig. 12):
//!
//! * [`bpred`] — a gshare branch predictor with 2-bit counters.
//! * [`core`] — an interval-style out-of-order core model parameterized by
//!   the paper's Table III (Intel i7-3770: 4-wide dispatch, 168-entry ROB,
//!   8-cycle branch-miss penalty, 3.4 GHz).
//! * [`sniper`] — the composed simulator: core model + branch predictor +
//!   cache hierarchy, driven as a Pintool over the retired-instruction
//!   stream; produces cycles, CPI and a CPI stack.
//! * [`native`] — "real hardware": the same machine executed on the whole
//!   program with measurement perturbations (OS-noise stalls, counter
//!   jitter), exposing `perf`-style counters. The CPI difference between
//!   native whole runs and Sniper-on-simulation-points is the Fig. 12
//!   experiment.
//!
//! The interval model is deliberately simple (this is a sampling-accuracy
//! study, not a microarchitecture study): every instruction costs
//! `1/dispatch_width` base cycles; branch mispredictions add the pipeline
//! penalty; loads/stores that miss L1 add the miss latency, divided by the
//! configured memory-level parallelism unless the access is a serialized
//! pointer-chase.
//!
//! # Example
//!
//! ```
//! use sampsim_cache::configs;
//! use sampsim_pin::engine;
//! use sampsim_uarch::{core::CoreConfig, sniper::Sniper};
//! use sampsim_workload::spec::{PhaseSpec, WorkloadSpec};
//!
//! let p = WorkloadSpec::builder("timing", 1)
//!     .total_insts(20_000)
//!     .phase(PhaseSpec::balanced(1.0))
//!     .build()
//!     .build();
//! let mut exec = sampsim_workload::Executor::new(&p);
//! let mut sim = Sniper::new(CoreConfig::table3(), configs::i7_table3());
//! engine::run_one(&mut exec, u64::MAX, &mut sim);
//! let stats = sim.stats();
//! assert!(stats.cpi() > 0.25); // can't beat the 4-wide dispatch bound
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bpred;
pub mod core;
pub mod native;
pub mod sniper;

pub use crate::core::{CoreConfig, CpiStack};
pub use bpred::{BranchPredictor, BranchStats};
pub use native::{perturb, run_native, NativeConfig, PerfCounters};
pub use sniper::{Sniper, TimingStats};
