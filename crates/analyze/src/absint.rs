//! Abstract interpretation over memory streams: footprint intervals,
//! stride classes, and cache-geometry pathology lints (`SA10x`).
//!
//! Instead of executing a program, [`MemorySummary::analyze`] computes for
//! every address stream a sound abstraction of the addresses it can emit —
//! an [`Interval`] footprint plus a [`StrideClass`] — and per-phase
//! working-set bounds. [`lint_memory`] then checks those abstractions
//! against a concrete [`HierarchyConfig`]: a stride that lands every
//! access in one cache set, a stride that degenerates the walk, a region
//! the phase declares but never touches. All conditions are decided purely
//! from the static IR, so they hold for *every* execution.

use crate::diag::{Diagnostic, Location, Report, Rule};
use sampsim_cache::hierarchy::HierarchyConfig;
use sampsim_cache::CacheConfig;
use sampsim_workload::block::INST_BYTES;
use sampsim_workload::{AddressPattern, Program};

/// An inclusive byte-address interval, with an explicit bottom (empty).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interval {
    /// No addresses (the lattice bottom).
    Empty,
    /// All addresses in `[lo, hi]`.
    Range {
        /// Lowest address.
        lo: u64,
        /// Highest address (inclusive).
        hi: u64,
    },
}

impl Interval {
    /// The interval covering a half-open byte range `[base, base+size)`.
    pub fn of_region(base: u64, size: u64) -> Self {
        if size == 0 {
            Interval::Empty
        } else {
            Interval::Range {
                lo: base,
                hi: base + size - 1,
            }
        }
    }

    /// Width in bytes (0 for empty).
    pub fn width(&self) -> u64 {
        match *self {
            Interval::Empty => 0,
            Interval::Range { lo, hi } => hi - lo + 1,
        }
    }

    /// Whether `addr` lies inside.
    pub fn contains(&self, addr: u64) -> bool {
        match *self {
            Interval::Empty => false,
            Interval::Range { lo, hi } => (lo..=hi).contains(&addr),
        }
    }

    /// Joins `other` into `self` (the hull of both); returns `true` when
    /// `self` grew.
    pub fn join(&mut self, other: &Self) -> bool {
        match (*self, *other) {
            (_, Interval::Empty) => false,
            (Interval::Empty, r) => {
                *self = r;
                true
            }
            (Interval::Range { lo: a, hi: b }, Interval::Range { lo: c, hi: d }) => {
                let joined = Interval::Range {
                    lo: a.min(c),
                    hi: b.max(d),
                };
                let changed = joined != *self;
                *self = joined;
                changed
            }
        }
    }
}

/// The abstract address-generation behaviour of one stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrideClass {
    /// Arithmetic walk with a constant byte stride, wrapping at the
    /// region end. `positions` is the exact number of distinct byte
    /// offsets the walk visits: `size / gcd(stride, size)` (1 for a zero
    /// stride).
    Constant {
        /// Byte stride.
        stride: u64,
        /// Distinct offsets visited before the walk cycles.
        positions: u64,
    },
    /// Uniformly random over the region.
    Uniform,
    /// Power-law-skewed random (hot front of the region).
    Skewed,
    /// Serialized dependent walk (pointer chase).
    Chase,
}

/// Greatest common divisor (binary-free Euclid; `gcd(0, n) = n`).
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The abstract state of one address stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamFacts {
    /// Owning phase index.
    pub phase: usize,
    /// Stream index within the phase.
    pub stream: usize,
    /// Sound footprint: every emitted address lies inside.
    pub footprint: Interval,
    /// Address-generation class.
    pub class: StrideClass,
    /// Whether any instruction of the phase references this stream.
    pub referenced: bool,
}

/// Per-phase working-set abstraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseFacts {
    /// Join of the phase's referenced stream footprints.
    pub data_footprint: Interval,
    /// Upper bound on distinct data bytes the phase can touch (sum of
    /// referenced region sizes; regions are disjoint when `SA008` is
    /// clean).
    pub working_set_bytes: u64,
}

/// The whole-program memory abstraction.
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySummary {
    /// One entry per (phase, stream), in declaration order.
    pub streams: Vec<StreamFacts>,
    /// One entry per phase.
    pub phases: Vec<PhaseFacts>,
    /// Footprint of the static code segment.
    pub code_footprint: Interval,
}

impl MemorySummary {
    /// Computes the abstraction for `program` without executing it.
    pub fn analyze(program: &Program) -> Self {
        let mut streams = Vec::new();
        let mut phases = Vec::new();
        for (p, phase) in program.phases().iter().enumerate() {
            // Which streams do the phase's instructions actually use?
            let mut referenced = vec![false; phase.streams.len()];
            for &b in &phase.blocks {
                if let Some(block) = program.blocks().get(b as usize) {
                    for inst in &block.insts {
                        if let Some(s) = inst.stream() {
                            if let Some(flag) = referenced.get_mut(s as usize) {
                                *flag = true;
                            }
                        }
                    }
                }
            }
            let mut data_footprint = Interval::Empty;
            let mut working_set_bytes = 0u64;
            for (s, spec) in phase.streams.iter().enumerate() {
                let region = spec.region;
                let footprint = Interval::of_region(region.base, region.size);
                let class = match spec.pattern {
                    AddressPattern::Stride { stride } => StrideClass::Constant {
                        stride,
                        positions: if stride == 0 {
                            1
                        } else {
                            region.size / gcd(stride, region.size)
                        },
                    },
                    AddressPattern::Random => StrideClass::Uniform,
                    AddressPattern::SkewedRandom { .. } => StrideClass::Skewed,
                    AddressPattern::PointerChase => StrideClass::Chase,
                };
                if referenced[s] {
                    data_footprint.join(&footprint);
                    working_set_bytes += region.size;
                }
                streams.push(StreamFacts {
                    phase: p,
                    stream: s,
                    footprint,
                    class,
                    referenced: referenced[s],
                });
            }
            phases.push(PhaseFacts {
                data_footprint,
                working_set_bytes,
            });
        }
        let mut code_footprint = Interval::Empty;
        for block in program.blocks() {
            code_footprint.join(&Interval::of_region(
                block.pc,
                block.len() as u64 * INST_BYTES,
            ));
        }
        Self {
            streams,
            phases,
            code_footprint,
        }
    }
}

/// Whether a constant-stride walk over `[0, size)` conflict-aliases into a
/// single set of `cache`: every visited offset is congruent modulo the
/// cache's set span, and the walk visits more distinct lines than the set
/// has ways.
fn strides_into_one_set(stride: u64, size: u64, cache: &CacheConfig) -> bool {
    if stride == 0 || stride >= size {
        return false; // degenerate; SA101's territory
    }
    let g = gcd(stride, size);
    let span = cache.set_span_bytes();
    g.is_multiple_of(span) && size / g > u64::from(cache.ways)
}

/// Memory-stream lints against a concrete cache hierarchy (`SA10x`).
pub fn lint_memory(program: &Program, hierarchy: &HierarchyConfig) -> Report {
    let summary = MemorySummary::analyze(program);
    let name = program.name();
    let mut report = Report::new();
    let mut dead: Vec<String> = Vec::new();

    for facts in &summary.streams {
        let (p, s) = (facts.phase, facts.stream);
        let loc = || Location::workload_item(name, format!("phase {p}, stream {s}"));
        let size = facts.footprint.width();

        // SA102: declared but untouched streams — collected and folded
        // into one per-workload note below so suite-wide lints stay
        // readable.
        if !facts.referenced {
            dead.push(format!("phase {p} stream {s}"));
            continue; // an unused stream generates no addresses
        }

        let StrideClass::Constant { stride, .. } = facts.class else {
            continue;
        };

        // SA101: degenerate strides.
        if stride == 0 || stride >= size {
            report.push(Diagnostic::new(
                Rule::DegenerateStride,
                loc(),
                if stride == 0 {
                    format!("stream {s} of phase {p} has stride 0 and pins to one address")
                } else {
                    format!(
                        "stream {s} of phase {p} has stride {stride} >= region size {size}; \
                         every access wraps"
                    )
                },
            ));
            continue;
        }

        // SA100: stride x set-count aliasing, innermost aliasing level.
        let levels = [
            ("l1d", &hierarchy.l1d),
            ("l2", &hierarchy.l2),
            ("l3", &hierarchy.l3),
        ];
        for (level, cache) in levels {
            if strides_into_one_set(stride, size, cache) {
                let g = gcd(stride, size);
                report.push(Diagnostic::new(
                    Rule::SetAliasingStride,
                    loc(),
                    format!(
                        "stream {s} of phase {p}: stride {stride} over a {size}-byte region \
                         visits {} lines that all index one {level} set ({} ways)",
                        size / g,
                        cache.ways
                    ),
                ));
                break;
            }
        }
    }

    // SA102: one aggregated note per workload.
    if !dead.is_empty() {
        let message = if dead.len() == 1 {
            format!(
                "declared stream never referenced by an instruction: {}",
                dead[0]
            )
        } else {
            format!(
                "{} declared streams are never referenced by an instruction: {}",
                dead.len(),
                dead.join(", ")
            )
        };
        report.push(Diagnostic::new(
            Rule::DeadStream,
            Location::workload_item(name, "streams"),
            message,
        ));
    }

    // SA103: static code footprint vs the L1I.
    let code_span = summary.code_footprint.width();
    if code_span > hierarchy.l1i.size_bytes {
        report.push(Diagnostic::new(
            Rule::CodeFootprintExceedsL1I,
            Location::workload(name),
            format!(
                "static code spans {code_span} bytes but the L1I holds {} bytes",
                hierarchy.l1i.size_bytes
            ),
        ));
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_join_and_width() {
        let mut a = Interval::Empty;
        assert!(!a.join(&Interval::Empty));
        assert!(a.join(&Interval::of_region(100, 50)));
        assert_eq!(a, Interval::Range { lo: 100, hi: 149 });
        assert!(a.join(&Interval::of_region(10, 5)));
        assert_eq!(a, Interval::Range { lo: 10, hi: 149 });
        assert!(!a.join(&Interval::of_region(20, 10)), "subset: no change");
        assert_eq!(a.width(), 140);
        assert!(a.contains(10) && a.contains(149) && !a.contains(150));
        assert_eq!(Interval::of_region(5, 0), Interval::Empty);
    }

    #[test]
    fn gcd_edge_cases() {
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(1024, 65536), 1024);
    }

    #[test]
    fn one_set_aliasing_detection() {
        // allcache-style L1D: 32 KiB, 32-way, 32 B lines -> 32 sets,
        // span 1024 B.
        let l1d = CacheConfig::new(32 * 1024, 32, 32, 1);
        assert_eq!(l1d.set_span_bytes(), 1024);
        // Stride 1024 over 64 KiB: 64 lines, all in one 32-way set.
        assert!(strides_into_one_set(1024, 64 * 1024, &l1d));
        // Stride 1024 over 32 KiB: 32 lines fit the 32 ways exactly.
        assert!(!strides_into_one_set(1024, 32 * 1024, &l1d));
        // Stride 8 (the shipped suite's unit stride): dense walk, fine.
        assert!(!strides_into_one_set(8, 64 * 1024, &l1d));
        // Degenerate strides are SA101's problem.
        assert!(!strides_into_one_set(0, 4096, &l1d));
        assert!(!strides_into_one_set(8192, 4096, &l1d));
    }
}
