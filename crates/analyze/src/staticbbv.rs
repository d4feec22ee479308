//! The static BBV predictor and the static-vs-dynamic audit oracle
//! (`SA12x`).
//!
//! The schedule of a [`Program`] fully determines, for every profiling
//! slice, which phases execute and for how many instructions — *without
//! executing anything*. [`StaticBbvBounds::derive`] turns that into hard
//! per-slice bounds: the exact BBV total, the set of blocks that may
//! retire, and a cap on each block's count (a block cannot retire more
//! instructions than the slice grants to the phases that own it).
//!
//! Any dynamic profile that violates these bounds was not produced by a
//! correct execution of the program: [`audit_bbvs_static`] and
//! [`audit_cursors`] are therefore a standing oracle for executor bugs and
//! artifact corruption. [`AuditSummary`] is the durable on-disk form
//! (`artifacts/*.art`) that lets CI re-check shipped artifacts cheaply.

use crate::absint::gcd;
use crate::diag::{Diagnostic, Location, Report, Rule};
use sampsim_simpoint::bbv::Bbv;
use sampsim_util::codec::{DecodeError, Decoder, Encoder};
use sampsim_util::hash::Fnv64;
use sampsim_workload::{AddressPattern, Cursor, Program};
use std::collections::HashMap;

/// Stop an audit pass after this many findings: one real corruption often
/// violates thousands of slices, and the first few localize it.
pub const MAX_FINDINGS: usize = 32;

/// Per-slice block-frequency bounds derived statically from the schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticBbvBounds {
    slice_size: u64,
    total_insts: u64,
    /// For each slice, the `(phase, instructions)` spans that make it up,
    /// in schedule order. Spans of the same phase may repeat.
    slices: Vec<Vec<(u32, u64)>>,
}

impl StaticBbvBounds {
    /// Derives the bounds for `program` profiled at `slice_size`.
    ///
    /// # Panics
    ///
    /// Panics if `slice_size` is zero (`SA020`'s condition).
    pub fn derive(program: &Program, slice_size: u64) -> Self {
        assert!(slice_size > 0, "slice size must be positive");
        let total = program.total_insts();
        let num_slices = total.div_ceil(slice_size) as usize;
        let mut slices: Vec<Vec<(u32, u64)>> = vec![Vec::new(); num_slices];
        let mut pos = 0u64;
        for seg in program.schedule().segments() {
            let (start, end) = (pos, pos + seg.insts);
            let first = (start / slice_size) as usize;
            let last = ((end - 1) / slice_size) as usize;
            for (s, slice) in slices.iter_mut().enumerate().take(last + 1).skip(first) {
                let s_start = s as u64 * slice_size;
                let s_end = (s_start + slice_size).min(total);
                let overlap = end.min(s_end) - start.max(s_start);
                slice.push((seg.phase, overlap));
            }
            pos = end;
        }
        Self {
            slice_size,
            total_insts: total,
            slices,
        }
    }

    /// The slice size the bounds were derived at.
    pub fn slice_size(&self) -> u64 {
        self.slice_size
    }

    /// Number of slices the schedule proves.
    pub fn num_slices(&self) -> usize {
        self.slices.len()
    }

    /// Exact instruction total of slice `i`.
    pub fn slice_total(&self, i: usize) -> u64 {
        self.slices[i].iter().map(|&(_, n)| n).sum()
    }

    /// Per-block instruction caps for slice `i`: block `b` may retire at
    /// most `caps[b]` instructions. Blocks absent from the map cannot
    /// retire at all in this slice.
    pub fn block_caps(&self, program: &Program, i: usize) -> HashMap<u32, u64> {
        let mut caps: HashMap<u32, u64> = HashMap::new();
        for &(phase, insts) in &self.slices[i] {
            if let Some(p) = program.phases().get(phase as usize) {
                for &b in &p.blocks {
                    *caps.entry(b).or_insert(0) += insts;
                }
            }
        }
        caps
    }

    /// Content digest of the bounds (stable across runs; stored in
    /// [`AuditSummary`] so shipped artifacts pin the derivation).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.slice_size);
        h.write_u64(self.total_insts);
        h.write_u64(self.slices.len() as u64);
        for spans in &self.slices {
            h.write_u64(spans.len() as u64);
            for &(p, n) in spans {
                h.write_u64(u64::from(p));
                h.write_u64(n);
            }
        }
        h.finish()
    }
}

/// Checks a dynamic per-slice BBV profile against static bounds
/// (`SA120`–`SA122`). Sound: a clean execution can never fire these.
pub fn audit_bbvs_static(program: &Program, bounds: &StaticBbvBounds, bbvs: &[Bbv]) -> Report {
    let name = program.name();
    let mut report = Report::new();
    if bbvs.len() != bounds.num_slices() {
        report.push(Diagnostic::new(
            Rule::BbvTotalMismatch,
            Location::workload(name),
            format!(
                "profile has {} slice(s) but the schedule proves {}",
                bbvs.len(),
                bounds.num_slices()
            ),
        ));
        return report;
    }
    for (i, bbv) in bbvs.iter().enumerate() {
        if report.diagnostics().len() >= MAX_FINDINGS {
            break;
        }
        let loc = || Location::workload_item(name, format!("slice {i}"));
        let expected = bounds.slice_total(i) as f64;
        let total = bbv.l1_norm();
        if (total - expected).abs() > 0.5 {
            report.push(Diagnostic::new(
                Rule::BbvTotalMismatch,
                loc(),
                format!("slice {i} BBV totals {total} but the schedule proves {expected}"),
            ));
        }
        let caps = bounds.block_caps(program, i);
        for &(block, count) in bbv.entries() {
            match caps.get(&block) {
                None => report.push(Diagnostic::new(
                    Rule::BbvBlockOutsideSlice,
                    loc(),
                    format!(
                        "slice {i} counts block {block}, which no phase scheduled in \
                         this slice owns"
                    ),
                )),
                Some(&cap) if count > cap as f64 + 0.5 => {
                    report.push(Diagnostic::new(
                        Rule::BbvCountExceedsBound,
                        loc(),
                        format!(
                            "slice {i} counts {count} instructions in block {block}; \
                             the static cap is {cap}"
                        ),
                    ));
                }
                Some(_) => {}
            }
        }
    }
    report
}

/// Checks slice-start checkpoints against the schedule and the stream
/// state domains (`SA123`, `SA125`).
pub fn audit_cursors(program: &Program, slice_size: u64, cursors: &[Cursor]) -> Report {
    let name = program.name();
    let mut report = Report::new();
    let segments = program.schedule().segments();
    let mut prefix = Vec::with_capacity(segments.len() + 1);
    let mut acc = 0u64;
    prefix.push(0u64);
    for seg in segments {
        acc += seg.insts;
        prefix.push(acc);
    }
    // Global stream table: (pattern, region size) in phase order.
    let specs: Vec<&sampsim_workload::StreamSpec> = program
        .phases()
        .iter()
        .flat_map(|p| p.streams.iter())
        .collect();

    for (i, cursor) in cursors.iter().enumerate() {
        if report.diagnostics().len() >= MAX_FINDINGS {
            break;
        }
        let loc = || Location::workload_item(name, format!("slice {i} cursor"));
        let mismatch = |why: String| Diagnostic::new(Rule::CursorScheduleMismatch, loc(), why);

        if cursor.retired != i as u64 * slice_size {
            report.push(mismatch(format!(
                "cursor {i} claims {} retired instructions; slice starts prove {}",
                cursor.retired,
                i as u64 * slice_size
            )));
            continue;
        }
        let seg = cursor.seg_idx as usize;
        if seg >= segments.len() {
            report.push(mismatch(format!(
                "cursor {i} sits in segment {seg} of {}",
                segments.len()
            )));
            continue;
        }
        if cursor.seg_retired > segments[seg].insts {
            report.push(mismatch(format!(
                "cursor {i} retired {} instructions inside a {}-instruction segment",
                cursor.seg_retired, segments[seg].insts
            )));
            continue;
        }
        if prefix[seg] + cursor.seg_retired != cursor.retired {
            report.push(mismatch(format!(
                "cursor {i}: segment {seg} starts at {} and the cursor is {} in, \
                 which contradicts its retired count {}",
                prefix[seg], cursor.seg_retired, cursor.retired
            )));
            continue;
        }
        if cursor.streams.len() != program.num_streams() as usize
            || cursor.phase_sel.len() != program.phases().len()
        {
            report.push(mismatch(format!(
                "cursor {i} carries {} stream(s) and {} phase counter(s); the program \
                 has {} and {}",
                cursor.streams.len(),
                cursor.phase_sel.len(),
                program.num_streams(),
                program.phases().len()
            )));
            continue;
        }

        // SA125: pattern-reachable stream-state domains.
        for (g, spec) in specs.iter().enumerate() {
            let pos = cursor.streams[g];
            let size = spec.region.size;
            let bad = match spec.pattern {
                // Stride walks keep pos < size and pos a multiple of
                // gcd(stride, size); gcd(0, size) = size forces pos == 0.
                AddressPattern::Stride { stride } => {
                    pos >= size || pos % gcd(stride, size).max(1) != 0
                }
                // The executor never advances the position of
                // distribution-sampled streams.
                AddressPattern::Random | AddressPattern::SkewedRandom { .. } => pos != 0,
                // The chase state is a full-width scramble; any value is
                // reachable.
                AddressPattern::PointerChase => false,
            };
            if bad {
                report.push(Diagnostic::new(
                    Rule::StreamStateOutsideDomain,
                    Location::workload_item(name, format!("slice {i} cursor, stream {g}")),
                    format!(
                        "stream {g} state {pos} is unreachable for its pattern over a \
                         {size}-byte region"
                    ),
                ));
            }
        }
    }
    report
}

/// Magic bytes of `.art` audit artifacts (`"SAUD"`).
pub const AUDIT_MAGIC: u32 = u32::from_be_bytes(*b"SAUD");
/// Current `.art` format version.
pub const AUDIT_VERSION: u16 = 1;

/// The durable audit artifact: enough derived facts to re-verify that a
/// benchmark's program build and static bounds are unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditSummary {
    /// Content digest of the program the bounds were derived from.
    pub program_digest: u64,
    /// Bit pattern of the `f64` build scale.
    pub scale_bits: u64,
    /// Whole-run dynamic instruction count.
    pub total_insts: u64,
    /// Number of basic blocks.
    pub num_blocks: u32,
    /// Number of phases.
    pub num_phases: u32,
    /// Slice size the bounds were derived at.
    pub slice_size: u64,
    /// Number of slices the schedule proves.
    pub num_slices: u64,
    /// [`StaticBbvBounds::digest`] of the derived bounds.
    pub bounds_digest: u64,
}

impl AuditSummary {
    /// Captures the summary for `program` built at `scale`.
    pub fn capture(program: &Program, scale: f64, bounds: &StaticBbvBounds) -> Self {
        Self {
            program_digest: program.digest(),
            scale_bits: scale.to_bits(),
            total_insts: program.total_insts(),
            num_blocks: program.blocks().len() as u32,
            num_phases: program.phases().len() as u32,
            slice_size: bounds.slice_size(),
            num_slices: bounds.num_slices() as u64,
            bounds_digest: bounds.digest(),
        }
    }

    /// Serializes with the `.art` header.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::with_header(AUDIT_MAGIC, AUDIT_VERSION);
        enc.put_u64(self.program_digest);
        enc.put_u64(self.scale_bits);
        enc.put_u64(self.total_insts);
        enc.put_u32(self.num_blocks);
        enc.put_u32(self.num_phases);
        enc.put_u64(self.slice_size);
        enc.put_u64(self.num_slices);
        enc.put_u64(self.bounds_digest);
        enc.into_bytes()
    }

    /// Deserializes, rejecting bad headers, truncation and trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut dec = Decoder::with_header(bytes, AUDIT_MAGIC, AUDIT_VERSION)?;
        let out = Self {
            program_digest: dec.take_u64()?,
            scale_bits: dec.take_u64()?,
            total_insts: dec.take_u64()?,
            num_blocks: dec.take_u32()?,
            num_phases: dec.take_u32()?,
            slice_size: dec.take_u64()?,
            num_slices: dec.take_u64()?,
            bounds_digest: dec.take_u64()?,
        };
        if !dec.is_exhausted() {
            return Err(DecodeError::Invalid("trailing bytes after audit summary"));
        }
        Ok(out)
    }

    /// Differentially checks this stored summary against a freshly built
    /// program and freshly derived bounds. Any mismatch means the shipped
    /// artifact no longer corresponds to the code (`SA047`).
    pub fn check(
        &self,
        path: &str,
        program: &Program,
        scale: f64,
        bounds: &StaticBbvBounds,
    ) -> Report {
        let fresh = AuditSummary::capture(program, scale, bounds);
        let mut report = Report::new();
        let fields: [(&str, u64, u64); 8] = [
            ("program_digest", self.program_digest, fresh.program_digest),
            ("scale_bits", self.scale_bits, fresh.scale_bits),
            ("total_insts", self.total_insts, fresh.total_insts),
            (
                "num_blocks",
                u64::from(self.num_blocks),
                u64::from(fresh.num_blocks),
            ),
            (
                "num_phases",
                u64::from(self.num_phases),
                u64::from(fresh.num_phases),
            ),
            ("slice_size", self.slice_size, fresh.slice_size),
            ("num_slices", self.num_slices, fresh.num_slices),
            ("bounds_digest", self.bounds_digest, fresh.bounds_digest),
        ];
        for (field, stored, derived) in fields {
            if stored != derived {
                report.push(Diagnostic::new(
                    Rule::DigestMismatch,
                    Location::artifact(path),
                    format!(
                        "stored {field} is {stored:#x} but the current build derives \
                         {derived:#x}"
                    ),
                ));
            }
        }
        report
    }
}

/// Wraps a `.art` decode failure as a diagnostic (`SA124`).
pub fn diagnose_unreadable_artifact(path: &str, err: &DecodeError) -> Diagnostic {
    Diagnostic::new(
        Rule::ArtifactUnreadable,
        Location::artifact(path),
        format!("failed to decode audit artifact: {err:?}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampsim_workload::spec::{PhaseSpec, WorkloadSpec};

    fn program() -> Program {
        WorkloadSpec::builder("static-bbv", 11)
            .total_insts(50_000)
            .phase(PhaseSpec::balanced(1.0))
            .phase(PhaseSpec::memory_bound(1.0))
            .build()
            .build()
    }

    #[test]
    fn bounds_partition_the_run_exactly() {
        let p = program();
        let bounds = StaticBbvBounds::derive(&p, 1000);
        assert_eq!(bounds.num_slices() as u64, p.total_insts().div_ceil(1000));
        let total: u64 = (0..bounds.num_slices())
            .map(|i| bounds.slice_total(i))
            .sum();
        assert_eq!(total, p.total_insts(), "spans partition the whole run");
        for i in 0..bounds.num_slices() - 1 {
            assert_eq!(bounds.slice_total(i), 1000);
        }
    }

    #[test]
    fn digest_tracks_content() {
        let p = program();
        let a = StaticBbvBounds::derive(&p, 1000);
        let b = StaticBbvBounds::derive(&p, 1000);
        assert_eq!(a.digest(), b.digest());
        let c = StaticBbvBounds::derive(&p, 2000);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn summary_roundtrip_and_corruption() {
        let p = program();
        let bounds = StaticBbvBounds::derive(&p, 1000);
        let summary = AuditSummary::capture(&p, 0.5, &bounds);
        let bytes = summary.to_bytes();
        assert_eq!(AuditSummary::from_bytes(&bytes).unwrap(), summary);
        assert!(summary.check("x.art", &p, 0.5, &bounds).is_empty());

        // Flip the last payload byte: decodes, but bounds_digest mismatches.
        let mut bad = bytes.clone();
        *bad.last_mut().unwrap() ^= 0xFF;
        let corrupt = AuditSummary::from_bytes(&bad).unwrap();
        let report = corrupt.check("x.art", &p, 0.5, &bounds);
        assert!(report.fired(Rule::DigestMismatch));

        // Corrupt the header: unreadable.
        let mut hdr = bytes.clone();
        hdr[0] ^= 0xFF;
        assert!(AuditSummary::from_bytes(&hdr).is_err());

        // Truncate: unreadable.
        assert!(AuditSummary::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }
}
