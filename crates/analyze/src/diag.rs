//! The diagnostics framework: rule codes, severities, locations and the
//! [`Report`] that analysis passes accumulate into.

use std::fmt;

/// How serious a diagnostic is.
///
/// `Error` means the checked object will make the sampling pipeline panic,
/// produce meaningless numbers, or both. `Warning` flags configurations
/// that run but are statistically degenerate (the paper's projection
/// plateaus and weight-skew artifacts). `Note` is advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory only; never affects exit status.
    Note,
    /// Suspicious but runnable; fails under `--deny-warnings`.
    Warning,
    /// Invalid input; the pipeline must not run.
    Error,
}

impl Severity {
    /// Lowercase label used by both renderers.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

macro_rules! rules {
    ($( $(#[$meta:meta])* $variant:ident => ($code:literal, $sev:ident, $summary:literal, $help:literal), )*) => {
        /// Every lint rule, identified by a stable `SAxxx` code.
        ///
        /// Codes are grouped by family: `SA00x`/`SA01x` workload IR lints,
        /// `SA02x` sampling-configuration lints, `SA03x` cache-geometry
        /// lints, `SA04x` artifact audits, `SA10x` memory abstract
        /// interpretation, `SA11x` schedule recurrence, `SA12x`
        /// static-vs-dynamic audit oracle, `SA13x` sampling-strategy
        /// validation, `SA14x` statistical soundness. See
        /// `docs/lint-rules.md` and `docs/static-analysis.md` for the full
        /// catalogue with rationale and examples.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Rule {
            $( $(#[$meta])* $variant, )*
        }

        impl Rule {
            /// All rules, in code order.
            pub const ALL: &'static [Rule] = &[ $( Rule::$variant, )* ];

            /// Every rule's `SAxxx` code, in the order of [`Rule::ALL`].
            pub const CODES: &'static [&'static str] = &[ $( $code, )* ];

            /// The stable `SAxxx` code.
            pub fn code(self) -> &'static str {
                match self { $( Rule::$variant => $code, )* }
            }

            /// The rule's default severity.
            pub fn severity(self) -> Severity {
                match self { $( Rule::$variant => Severity::$sev, )* }
            }

            /// One-line summary of what the rule checks.
            pub fn summary(self) -> &'static str {
                match self { $( Rule::$variant => $summary, )* }
            }

            /// Help text suggesting a fix.
            pub fn help(self) -> &'static str {
                match self { $( Rule::$variant => $help, )* }
            }

            /// Resolves a stable `SAxxx` code back to its rule.
            pub fn from_code(code: &str) -> Option<Rule> {
                match code { $( $code => Some(Rule::$variant), )* _ => None }
            }

            /// The rule's one-paragraph description: code, default
            /// severity, summary and help, assembled from the same fields
            /// the renderers and `docs/lint-rules.md` use. This is the
            /// single source of truth behind `sampsim lint --explain`.
            pub fn explain(self) -> String {
                format!(
                    "{} ({}): {}.\n\n{}.",
                    self.code(),
                    self.severity().label(),
                    self.summary(),
                    self.help()
                )
            }
        }
    };
}

rules! {
    // ---- workload IR lints (SA00x / SA01x) ----
    /// A phase names a basic-block id outside the program's block table.
    DanglingBlockRef => ("SA001", Error,
        "phase references a basic block that does not exist",
        "every id in `Phase::blocks` must be < the program's block count"),
    /// A schedule segment names a phase outside the phase table.
    DanglingPhaseRef => ("SA002", Error,
        "schedule references a phase that does not exist",
        "every `Segment::phase` must be < the program's phase count"),
    /// A phase exists but the schedule never runs it.
    UnreachablePhase => ("SA003", Warning,
        "phase is never scheduled and can never execute",
        "drop the phase or give it a schedule segment; unreachable phases \
         skew per-phase weight accounting"),
    /// A phase owns no basic blocks.
    EmptyPhase => ("SA004", Error,
        "phase has no basic blocks",
        "a phase must own at least one block; the executor cannot select \
         from an empty set"),
    /// The block-selection probability row of a phase is malformed.
    BadBlockWeights => ("SA005", Error,
        "block-selection weights do not form a valid probability row",
        "weights must parallel `blocks`, be finite and positive, and sum \
         to a positive value so normalization yields a distribution \
         summing to 1.0"),
    /// `selection_noise` lies outside `[0, 1]`.
    BadSelectionNoise => ("SA006", Error,
        "selection noise is outside [0, 1]",
        "`Phase::selection_noise` is a probability; clamp it to [0, 1]"),
    /// A memory instruction indexes a stream the phase does not own.
    DanglingStreamRef => ("SA007", Error,
        "instruction references an address stream the phase does not own",
        "stream operands must be < the phase's stream count"),
    /// Two stream working sets overlap in the address space.
    OverlappingStreamRegions => ("SA008", Warning,
        "two address-stream regions overlap",
        "overlapping working sets alias in the cache model and inflate \
         apparent locality; allocate disjoint regions"),
    /// The schedule runs nothing.
    EmptySchedule => ("SA009", Warning,
        "schedule is empty; the program retires no instructions",
        "an empty schedule produces zero slices and the SimPoint analysis \
         will reject the run"),
    /// A basic block contains no instructions.
    EmptyBlock => ("SA010", Error,
        "basic block has no instructions",
        "blocks must hold at least one instruction (the trailing branch)"),
    /// Phase `stream_base` values are not densely packed.
    StreamBaseMismatch => ("SA011", Error,
        "phase stream_base does not match the running stream count",
        "stream bases must be densely packed: each phase's base equals the \
         total stream count of all earlier phases"),
    /// A stream's working-set region has zero size.
    ZeroSizeRegion => ("SA012", Error,
        "address-stream region has zero size",
        "a stream must cover at least one byte; zero-size regions make \
         address generation divide by zero"),
    /// A basic block's last instruction is not a branch.
    MissingTerminalBranch => ("SA013", Error,
        "basic block does not end in a branch",
        "the classical basic-block definition requires a terminating \
         branch; the executor's control flow depends on it"),
    /// A schedule segment retires zero instructions.
    ZeroLengthSegment => ("SA014", Error,
        "schedule segment retires zero instructions",
        "empty segments make seek arithmetic ambiguous; drop the segment \
         or give it a positive instruction count"),

    // ---- sampling-configuration lints (SA02x) ----
    /// `slice_size` is zero.
    ZeroSliceSize => ("SA020", Error,
        "slice size is zero",
        "the profiling pass divides execution into slices of this length; \
         it must be positive"),
    /// `MaxK` is zero.
    BadMaxK => ("SA021", Error,
        "MaxK is zero; clustering needs at least one cluster",
        "set `SimPointOptions::max_k` >= 1 (the paper settles on 35)"),
    /// `MaxK` is not below the expected slice count.
    MaxKExceedsSlices => ("SA022", Warning,
        "MaxK is not smaller than the expected slice count",
        "with k >= n every slice can form its own cluster, the BIC sweep \
         degenerates and projection plateaus appear; lower MaxK or use \
         smaller slices"),
    /// The projected dimensionality is zero.
    BadProjectionDim => ("SA023", Error,
        "projected dimensionality is zero",
        "set `SimPointOptions::dim` >= 1 (SimPoint uses 15)"),
    /// No k-means restarts requested.
    ZeroInit => ("SA024", Error,
        "k-means restart count is zero",
        "set `SimPointOptions::n_init` >= 1; zero restarts runs no \
         clustering at all"),
    /// No Lloyd iterations allowed.
    ZeroMaxIter => ("SA025", Error,
        "Lloyd iteration cap is zero",
        "set `SimPointOptions::max_iter` >= 1 so k-means can assign \
         points to clusters"),
    /// BIC threshold outside `(0, 1]`.
    BadBicThreshold => ("SA026", Error,
        "BIC threshold is outside (0, 1]",
        "`bic_threshold` is the score-range fraction used to choose k \
         (SimPoint uses 0.9); it must be in (0, 1]"),
    /// Subsample size is zero.
    ZeroSampleSize => ("SA027", Error,
        "BIC scoring sample size is zero",
        "`sample_size` bounds the slices scored per candidate k; zero \
         would score an empty subsample"),
    /// Warmup window at least as long as the whole run.
    ExcessiveWarmup => ("SA028", Warning,
        "warmup window is not smaller than the expected slice count",
        "warming with the entire execution defeats sampling; use a warmup \
         window well below the slice count (the paper uses ~48 slices)"),

    // ---- cache-geometry lints (SA03x) ----
    /// A cache line size is not a power of two.
    LineNotPow2 => ("SA030", Error,
        "cache line size is not a power of two",
        "index/offset extraction uses bit masks; line size must be a \
         power of two"),
    /// Ways/capacity/line size are mutually inconsistent.
    BadCacheGeometry => ("SA031", Error,
        "cache geometry is inconsistent",
        "capacity must be a positive multiple of ways * line size and \
         the resulting set count must be a power of two"),
    /// Latencies do not increase monotonically outward.
    LatencyInversion => ("SA032", Warning,
        "cache latency is not monotone across levels",
        "an inner level slower than an outer one (or an L3 slower than \
         memory) is almost always a configuration typo"),
    /// An inner level has larger lines than an outer one.
    LineSizeMismatch => ("SA033", Note,
        "inner cache level has larger lines than an outer level",
        "a demand fill from the outer level cannot fill a whole inner \
         line; verify this is intentional"),

    // ---- artifact audits (SA04x) ----
    /// Point weights do not sum to ~1.0.
    WeightSumDrift => ("SA040", Error,
        "simulation-point weights do not sum to 1.0",
        "weighted metric aggregation assumes unit total weight; \
         renormalize the point set"),
    /// A weight is non-finite, non-positive or above 1.
    BadWeight => ("SA041", Error,
        "simulation-point weight is outside (0, 1]",
        "each weight is the represented fraction of execution and must \
         be a finite value in (0, 1]"),
    /// A pinball's program digest does not match the program.
    DigestMismatch => ("SA047", Error,
        "pinball was captured from a different program build",
        "the pinball's content digest must match the program it is \
         replayed against; rebuild the pinballs"),
    /// A regional pinball's cursor/slice bookkeeping is inconsistent.
    MisalignedRegion => ("SA048", Error,
        "regional pinball is not aligned to its slice",
        "`start.retired` must equal `slice_index * length` and the region \
         must end at or before the program's end"),
    /// Two regional pinballs checkpoint the same slice.
    DuplicatePoints => ("SA049", Error,
        "two simulation points share a slice",
        "each occupied cluster contributes exactly one representative \
         slice; duplicates double-count execution weight"),

    // ---- memory abstract interpretation (SA10x) ----
    /// A stride maps every access of a stream into one cache set.
    SetAliasingStride => ("SA100", Warning,
        "stride aliases all accesses of a stream into a single cache set",
        "the stride is a multiple of sets * line_bytes, so the stream \
         conflict-misses in one set while the rest of the cache idles; \
         pick a stride coprime to the set span or shrink the region"),
    /// A stride degenerates the walk to a single address or skips the
    /// region entirely.
    DegenerateStride => ("SA101", Warning,
        "stride degenerates the stream's walk",
        "a zero stride pins the stream to one address and a stride >= the \
         region size wraps every step; neither exercises the working set \
         the region declares"),
    /// A declared stream is never referenced by any instruction.
    DeadStream => ("SA102", Note,
        "address stream is never referenced by the phase's instructions",
        "the stream's working set is declared but never touched; drop it \
         or add memory instructions that use it"),
    /// The program's code span exceeds the L1I capacity.
    CodeFootprintExceedsL1I => ("SA103", Note,
        "static code footprint exceeds the L1 instruction cache",
        "instruction fetch will miss persistently; this is realistic for \
         large codes but worth confirming against the modelled frontend"),

    // ---- schedule recurrence (SA11x) ----
    /// A phase appears exactly once in the schedule of a multi-phase
    /// program.
    NonRecurrentPhase => ("SA110", Note,
        "phase is scheduled exactly once and never recurs",
        "SimPoint exploits recurring behaviour; a once-only phase is \
         either startup/shutdown code (fine) or a sign the interleave \
         generator failed to revisit it"),

    // ---- static-vs-dynamic audit oracle (SA12x) ----
    /// A profiled BBV counts a block its slice's phases do not own.
    BbvBlockOutsideSlice => ("SA120", Error,
        "profiled BBV counts a block no scheduled phase of the slice owns",
        "the static schedule proves which blocks can retire in each \
         slice; a count outside that set means an executor bug or a \
         corrupted profile"),
    /// A profiled block count exceeds its static upper bound.
    BbvCountExceedsBound => ("SA121", Error,
        "profiled block count exceeds its static per-slice bound",
        "a block cannot retire more instructions than the schedule \
         allots to the phases that own it; the profile is inconsistent \
         with the program"),
    /// A slice's BBV total does not equal the slice's instruction count.
    BbvTotalMismatch => ("SA122", Error,
        "slice BBV total does not match the slice's instruction count",
        "every retired instruction belongs to exactly one block, so \
         per-slice BBV totals are fully determined by the schedule"),
    /// A captured cursor is inconsistent with the schedule.
    CursorScheduleMismatch => ("SA123", Error,
        "captured cursor is inconsistent with the program schedule",
        "a cursor's (segment, offset) pair must re-derive its retired \
         count from the schedule's prefix sums; a mismatch means the \
         checkpoint is corrupt or from a different build"),
    /// An audit artifact failed to decode.
    ArtifactUnreadable => ("SA124", Error,
        "audit artifact is unreadable or truncated",
        "the artifact failed header or payload decoding; regenerate it \
         with `sampsim audit --update`"),
    /// A captured stream state violates its pattern's reachable domain.
    StreamStateOutsideDomain => ("SA125", Error,
        "captured stream state is outside its pattern's reachable domain",
        "stride walks keep pos < size and pos a multiple of \
         gcd(stride, size); random streams never advance pos; a state \
         outside that domain cannot arise from execution"),

    // ---- sampling-strategy validation (SA13x) ----
    /// A requested sampling-strategy name is not in the registry.
    UnknownStrategy => ("SA130", Error,
        "requested sampling strategy is not registered",
        "strategy names are resolved against the engine registry \
         (simpoint, stratified2p, rss); check the spelling or see \
         docs/sampling-strategies.md for how to register a new one"),

    // ---- statistical soundness (SA14x) ----
    /// The predicted effective sample count is below CLT plausibility.
    SampleBelowClt => ("SA140", Warning,
        "predicted sample size is below CLT plausibility (n < 30)",
        "normal-theory confidence intervals need roughly 30 independent \
         samples per estimate; raise MaxK, the stratified sample budget \
         or the rss set size / replicate count, or use smaller slices so \
         more regions exist to sample"),
    /// The clustering strategy cannot compress: MaxK covers every slice.
    ClusteringDegenerate => ("SA141", Warning,
        "MaxK is not smaller than the slice count; clustering degenerates \
         to a census",
        "with k >= n the strategy selects every slice and the plan \
         predicts no speedup; lower MaxK or use smaller slices so the \
         clustering has behaviour to compress"),
    /// A stratum receives too few pilot or final samples to estimate
    /// spread.
    StratumStarved => ("SA142", Error,
        "a stratum receives fewer than 2 pilot or final samples",
        "two-phase allocation estimates per-stratum spread from the pilot; \
         a 0- or 1-sample stratum has no estimable variance and Neyman \
         allocation silently degenerates to its proportional fallback; \
         lower the strata count or raise the pilot/sample budget"),
    /// The static weight-concentration bound allows one region to
    /// dominate the estimate.
    WeightConcentration => ("SA143", Warning,
        "a single region's weight can reach or exceed the concentration \
         bound (0.5)",
        "when one region can carry half the estimate, a single \
         unrepresentative pick dominates every metric; raise the sample \
         budget, the strata count or the rss set size so per-region \
         weight is bounded lower"),
    /// The rss replicate budget cannot produce error bars.
    InsufficientReplicates => ("SA144", Error,
        "replicate budget is below 2; no error bars can be computed",
        "ranked-set confidence intervals come from the spread across \
         replicates; fewer than 2 replicates makes every CI half-width \
         exactly 0, which misreports certainty; set replicates >= 2"),
    /// The predicted replay cost exceeds the whole-program run.
    CostExceedsWhole => ("SA145", Warning,
        "predicted simulated-instruction cost exceeds the whole-program \
         run",
        "selected regions plus their warmup windows replay more \
         instructions than simulating the program outright; sampling is \
         slower than truth here — lower the warmup window, the sample \
         budget or MaxK"),

    // ---- resource footprint (SA15x) ----
    /// The materialized profile (BBVs + projected rows) exceeds the
    /// memory budget.
    MaterializedFootprint => ("SA150", Warning,
        "predicted materialized profile exceeds the memory budget",
        "profiling this many slices materializes per-slice BBVs and \
         projected rows beyond the configured budget; use larger slices \
         to cut the slice count"),
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// What a diagnostic is about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Location {
    /// A workload, optionally a specific item inside it
    /// (`phase 3`, `block 17`...).
    Workload {
        /// Workload (benchmark) id.
        workload: String,
        /// Item within the workload, empty for the workload itself.
        item: String,
    },
    /// A configuration field, dotted (`simpoint.max_k`, `cache.l2`).
    Config {
        /// Dotted field path.
        field: String,
    },
    /// A sampling artifact: a point set, pinball file or BBV matrix.
    Artifact {
        /// Artifact path or description.
        path: String,
    },
}

impl Location {
    /// Location of a whole workload.
    pub fn workload(id: impl Into<String>) -> Self {
        Location::Workload {
            workload: id.into(),
            item: String::new(),
        }
    }

    /// Location of an item inside a workload.
    pub fn workload_item(id: impl Into<String>, item: impl Into<String>) -> Self {
        Location::Workload {
            workload: id.into(),
            item: item.into(),
        }
    }

    /// Location of a configuration field.
    pub fn config(field: impl Into<String>) -> Self {
        Location::Config {
            field: field.into(),
        }
    }

    /// Location of an artifact.
    pub fn artifact(path: impl Into<String>) -> Self {
        Location::Artifact { path: path.into() }
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Workload { workload, item } if item.is_empty() => {
                write!(f, "workload `{workload}`")
            }
            Location::Workload { workload, item } => {
                write!(f, "workload `{workload}`, {item}")
            }
            Location::Config { field } => write!(f, "config `{field}`"),
            Location::Artifact { path } => write!(f, "artifact `{path}`"),
        }
    }
}

/// One finding of an analysis pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: Rule,
    /// Severity (the rule's default unless a pass escalates it).
    pub severity: Severity,
    /// What the finding is about.
    pub location: Location,
    /// Specific message with the offending values.
    pub message: String,
    /// Help text suggesting a fix (the rule's default).
    pub help: &'static str,
}

impl Diagnostic {
    /// Creates a diagnostic with the rule's default severity and help.
    pub fn new(rule: Rule, location: Location, message: impl Into<String>) -> Self {
        Self {
            rule,
            severity: rule.severity(),
            location,
            message: message.into(),
            help: rule.help(),
        }
    }
}

/// An ordered collection of diagnostics plus summary accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one diagnostic.
    pub fn push(&mut self, diag: Diagnostic) {
        self.diagnostics.push(diag);
    }

    /// Absorbs another report.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// The diagnostics in emission order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Consumes the report, yielding the diagnostics in emission order.
    pub fn into_diagnostics(self) -> Vec<Diagnostic> {
        self.diagnostics
    }

    /// Number of diagnostics at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether any error-severity diagnostic is present.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// The error-severity diagnostics, in emission order: the findings
    /// that block a run, without the warnings and notes beside them.
    pub fn errors(&self) -> Vec<Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .cloned()
            .collect()
    }

    /// Whether the report is completely empty.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether a specific rule fired at least once.
    pub fn fired(&self, rule: Rule) -> bool {
        self.diagnostics.iter().any(|d| d.rule == rule)
    }

    /// Process exit code for this report: `0` when clean (or only
    /// warnings/notes without `deny_warnings`), `1` when errors are present
    /// or warnings are denied. (`2` is reserved for usage errors.)
    pub fn exit_code(&self, deny_warnings: bool) -> u8 {
        if self.has_errors() || (deny_warnings && self.count(Severity::Warning) > 0) {
            1
        } else {
            0
        }
    }
}

impl FromIterator<Diagnostic> for Report {
    fn from_iter<I: IntoIterator<Item = Diagnostic>>(iter: I) -> Self {
        Report {
            diagnostics: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable_prefixed() {
        let mut seen = std::collections::HashSet::new();
        for &r in Rule::ALL {
            assert!(r.code().starts_with("SA"), "{}", r.code());
            assert_eq!(r.code().len(), 5, "{}", r.code());
            assert!(seen.insert(r.code()), "duplicate code {}", r.code());
            assert!(!r.summary().is_empty());
            assert!(!r.help().is_empty());
        }
    }

    #[test]
    fn codes_round_trip_through_from_code() {
        for &r in Rule::ALL {
            assert_eq!(Rule::from_code(r.code()), Some(r));
        }
        assert_eq!(Rule::from_code("SA999"), None);
        assert_eq!(Rule::from_code("sa001"), None);
        assert_eq!(Rule::from_code(""), None);
    }

    #[test]
    fn explain_carries_code_severity_summary_and_help() {
        let text = Rule::SampleBelowClt.explain();
        assert!(text.starts_with("SA140 (warning): "), "{text}");
        assert!(text.contains(Rule::SampleBelowClt.summary()), "{text}");
        assert!(text.contains(Rule::SampleBelowClt.help()), "{text}");
    }

    #[test]
    fn severity_orders_error_highest() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Note);
    }

    #[test]
    fn report_accounting_and_exit_codes() {
        let mut r = Report::new();
        assert_eq!(r.exit_code(true), 0);
        r.push(Diagnostic::new(
            Rule::UnreachablePhase,
            Location::workload("w"),
            "phase 2 never scheduled",
        ));
        assert_eq!(r.count(Severity::Warning), 1);
        assert!(!r.has_errors());
        assert_eq!(r.exit_code(false), 0);
        assert_eq!(r.exit_code(true), 1);
        r.push(Diagnostic::new(
            Rule::ZeroSliceSize,
            Location::config("slice_size"),
            "slice_size = 0",
        ));
        assert!(r.has_errors());
        assert!(r.fired(Rule::ZeroSliceSize));
        assert!(!r.fired(Rule::BadMaxK));
        assert_eq!(r.exit_code(false), 1);
    }

    #[test]
    fn locations_render() {
        assert_eq!(Location::workload("a").to_string(), "workload `a`");
        assert_eq!(
            Location::workload_item("a", "phase 1").to_string(),
            "workload `a`, phase 1"
        );
        assert_eq!(
            Location::config("simpoint.max_k").to_string(),
            "config `simpoint.max_k`"
        );
        assert_eq!(Location::artifact("x.pb").to_string(), "artifact `x.pb`");
    }
}
