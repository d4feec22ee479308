//! Dynamic instrumentation engine and Pintool suite.
//!
//! This crate plays the role of Pin (Luk et al., PLDI 2005) in the paper's
//! methodology: it drives a program's execution and dispatches every
//! retired instruction to one or more observation tools. The tools shipped
//! here mirror the Pintools the paper used:
//!
//! * [`tools::LdStMix`] — instruction-mix profiler (`ldstmix`, Fig. 7),
//! * [`tools::BbvTool`] — per-slice basic-block vector collector (the
//!   front end of SimPoint/PinPoints),
//! * [`tools::CacheSim`] — functional cache-hierarchy bridge (`allcache`,
//!   Figs. 8 and 10),
//! * [`tools::TraceRecorder`] — bounded execution-trace logger used in
//!   replay-equivalence tests.
//!
//! Tools implement the [`Pintool`] trait and are driven by
//! [`engine::run_one`] (or slice by slice by [`engine::run_slices`]); a
//! tuple of tools is itself a tool, so a stack dispatches statically.
//!
//! # Example
//!
//! ```
//! use sampsim_pin::{engine, tools::LdStMix};
//! use sampsim_workload::spec::{PhaseSpec, WorkloadSpec};
//!
//! let program = WorkloadSpec::builder("demo", 1)
//!     .total_insts(10_000)
//!     .phase(PhaseSpec::balanced(1.0))
//!     .build()
//!     .build();
//! let mut exec = sampsim_workload::Executor::new(&program);
//! let mut mix = LdStMix::default();
//! engine::run_one(&mut exec, u64::MAX, &mut mix);
//! assert_eq!(mix.counts().total(), program.total_insts());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod tools;

pub use engine::Pintool;
