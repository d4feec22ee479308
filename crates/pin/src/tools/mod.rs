//! The Pintool suite (see the crate-level docs for the mapping onto the
//! paper's tools).

mod bbv;
mod cachesim;
mod ldstmix;
mod trace;
mod tracefile;

pub use bbv::BbvTool;
pub use cachesim::CacheSim;
pub use ldstmix::{LdStMix, MixCounts};
pub use trace::TraceRecorder;
pub use tracefile::{TraceReader, TraceWriter};
