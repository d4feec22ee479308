//! # sampsim-analyze
//!
//! Static analysis for the sampling pipeline: lints over workload IR,
//! sampling configurations and cache hierarchies, plus post-hoc audits of
//! regional pinballs and profiles.
//!
//! Every finding is a [`Diagnostic`] carrying a stable rule code
//! (`SA0xx`), a [`Severity`], a [`Location`] and fixed help text; passes
//! collect them into a [`Report`] which renders as human-readable text
//! ([`render_human`]) or JSON lines ([`render_json_lines`]).
//!
//! Rule families:
//!
//! * `SA001`–`SA014` — workload IR, and `SA110` — phases that never recur
//!   ([`lint_program`])
//! * `SA020`–`SA028` — sampling configuration ([`lint_sampling_config`])
//! * `SA030`–`SA033` — cache-hierarchy geometry ([`lint_hierarchy`])
//! * `SA040`, `SA041`, `SA047`–`SA049` — regional-pinball audits
//!   ([`audit_regions`])
//! * `SA100`–`SA103` — memory abstract interpretation ([`lint_memory`])
//! * `SA120`–`SA125` — static-vs-dynamic audit oracle
//!   ([`audit_bbvs_static`], [`audit_cursors`], [`AuditSummary`])
//! * `SA130` — sampling-strategy validation ([`lint_strategy_name`])
//! * `SA140`–`SA145` — statistical soundness ([`lint_soundness`])
//! * `SA150` — materialized-profile footprint ([`lint_soundness`])
//!
//! The memory pass works on abstract domains for address streams
//! ([`absint`]); the audit oracle on per-slice bounds derived from the
//! schedule alone ([`StaticBbvBounds`]). See `docs/static-analysis.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod artifact;
pub mod config;
pub mod diag;
pub mod render;
pub mod soundness;
pub mod staticbbv;
pub mod workload;

pub use absint::{lint_memory, Interval, MemorySummary, StrideClass};
pub use artifact::{audit_regions, WEIGHT_SUM_TOLERANCE};
pub use config::{
    lint_hierarchy, lint_sampling_config, lint_simpoint_options, lint_strategy_name, SamplingConfig,
};
pub use diag::{Diagnostic, Location, Report, Rule, Severity};
pub use render::{diagnostic_json, diagnostic_schema, render_human, render_json_lines};
pub use soundness::{
    lint_soundness, materialized_bytes_estimate, predicted_instructions, SoundnessInput,
    CLT_MIN_SAMPLES, DEFAULT_MATERIALIZED_BUDGET_BYTES, WEIGHT_CONCENTRATION_BOUND,
};
pub use staticbbv::{
    audit_bbvs_static, audit_cursors, diagnose_unreadable_artifact, AuditSummary, StaticBbvBounds,
};
pub use workload::{diagnose_ir_error, lint_program, lint_program_parts};
