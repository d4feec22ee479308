//! Run metrics and weighted aggregation.
//!
//! The paper (§IV-D) adopts the PinPoints reporting rule: each regional
//! pinball is profiled individually and a *weighted average of statistics
//! normalized by instruction count* is reported. Rates (miss rates, CPI)
//! are therefore aggregated by weighting each region's per-instruction
//! numerator and denominator, never by averaging the rates themselves.

use sampsim_cache::HierarchyStats;
use sampsim_pin::tools::MixCounts;
use sampsim_uarch::{CpiStack, TimingStats};
use sampsim_util::codec::{Decode, DecodeError, Decoder, Encode, Encoder};

/// Everything measured for one run (whole or one region).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunMetrics {
    /// Instructions executed.
    pub instructions: u64,
    /// `ldstmix` category counts.
    pub mix: MixCounts,
    /// Cache hierarchy counters (functional runs).
    pub cache: Option<HierarchyStats>,
    /// Timing-model counters (Sniper runs).
    pub timing: Option<TimingStats>,
    /// Host wall-clock seconds spent simulating this run.
    pub wall_seconds: f64,
}

impl RunMetrics {
    /// Equality over every deterministic field — everything except
    /// `wall_seconds`, which measures the host and legitimately differs
    /// between runs. This is the comparison the parallel differential
    /// harness uses: two runs of the same work must agree bit-for-bit
    /// here regardless of the job count.
    pub fn deterministic_eq(&self, other: &Self) -> bool {
        self.instructions == other.instructions
            && self.mix == other.mix
            && self.cache == other.cache
            && self.timing == other.timing
    }
}

impl Encode for RunMetrics {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.instructions);
        self.mix.encode(enc);
        self.cache.encode(enc);
        self.timing.encode(enc);
        enc.put_f64(self.wall_seconds);
    }
}

impl Decode for RunMetrics {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            instructions: dec.take_u64()?,
            mix: MixCounts::decode(dec)?,
            cache: Option::<HierarchyStats>::decode(dec)?,
            timing: Option::<TimingStats>::decode(dec)?,
            wall_seconds: dec.take_f64()?,
        })
    }
}

/// Per-level cache miss rates in percent.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MissRates {
    /// L1 instruction cache.
    pub l1i: f64,
    /// L1 data cache.
    pub l1d: f64,
    /// Unified L2.
    pub l2: f64,
    /// Unified L3 (LLC).
    pub l3: f64,
}

/// The weighted combination of a set of per-region metrics — what a
/// Regional / Reduced Regional / Warmup Regional run reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AggregatedMetrics {
    /// Weighted instruction-mix distribution in percent
    /// (`NO_MEM, MEM_R, MEM_W, MEM_RW`).
    pub mix_pct: [f64; 4],
    /// Weighted cache miss rates (present when regions carried cache
    /// stats).
    pub miss_rates: Option<MissRates>,
    /// Weighted CPI (present when regions carried timing stats).
    pub cpi: Option<f64>,
    /// Weighted CPI stack, normalized per instruction.
    pub cpi_stack: Option<CpiStack>,
    /// Raw (unweighted) totals across the simulated regions: instructions.
    pub total_instructions: u64,
    /// Raw total L3 accesses across simulated regions (Fig. 10's metric).
    pub total_l3_accesses: u64,
    /// Total host wall-clock seconds across regions.
    pub total_wall_seconds: f64,
}

/// Weighted-aggregates `regions` (paired with their SimPoint weights).
///
/// Per-instruction rates are formed per region, weighted, and recombined:
/// e.g. the aggregate L3 miss rate is
/// `Σ wᵢ·(missesᵢ/instrᵢ) / Σ wᵢ·(accessesᵢ/instrᵢ)`.
///
/// # Panics
///
/// Panics if `regions` is empty, weights do not sum to ~1, or any region
/// has zero instructions.
pub fn aggregate_weighted(regions: &[(RunMetrics, f64)]) -> AggregatedMetrics {
    assert!(!regions.is_empty(), "no regions to aggregate");
    let wsum: f64 = regions.iter().map(|(_, w)| *w).sum();
    assert!(
        (wsum - 1.0).abs() < 1e-6,
        "weights must sum to 1 (got {wsum})"
    );
    assert!(
        regions.iter().all(|(m, _)| m.instructions > 0),
        "regions must have instructions"
    );

    // Instruction mix: weighted average of per-region distributions.
    let mut mix_pct = [0.0; 4];
    for (m, w) in regions {
        let d = m.mix.distribution_pct();
        for (acc, v) in mix_pct.iter_mut().zip(&d) {
            *acc += v * w;
        }
    }

    // Cache rates: weighted per-instruction numerators/denominators.
    let have_cache = regions.iter().all(|(m, _)| m.cache.is_some());
    let miss_rates = have_cache.then(|| {
        let rate = |get: &dyn Fn(&HierarchyStats) -> (u64, u64)| -> f64 {
            let (mut acc_n, mut acc_d) = (0.0, 0.0);
            for (m, w) in regions {
                let s = m.cache.as_ref().expect("checked have_cache");
                let (miss, acc) = get(s);
                let per = m.instructions as f64;
                acc_n += w * miss as f64 / per;
                acc_d += w * acc as f64 / per;
            }
            if acc_d == 0.0 {
                0.0
            } else {
                100.0 * acc_n / acc_d
            }
        };
        MissRates {
            l1i: rate(&|s| (s.l1i.misses, s.l1i.accesses)),
            l1d: rate(&|s| (s.l1d.misses, s.l1d.accesses)),
            l2: rate(&|s| (s.l2.misses, s.l2.accesses)),
            l3: rate(&|s| (s.l3.misses, s.l3.accesses)),
        }
    });

    // CPI: weighted cycles-per-instruction (normalized by instructions, so
    // weighting is legitimate — the paper's IPC caveat).
    let have_timing = regions.iter().all(|(m, _)| m.timing.is_some());
    let (cpi, cpi_stack) = if have_timing {
        let mut cpi_acc = 0.0;
        let mut stack = CpiStack::default();
        for (m, w) in regions {
            let t = m.timing.as_ref().expect("checked have_timing");
            let per = t.instructions.max(1) as f64;
            cpi_acc += w * t.cycles / per;
            stack.merge_scaled(&t.stack, w / per);
        }
        (Some(cpi_acc), Some(stack))
    } else {
        (None, None)
    };

    AggregatedMetrics {
        mix_pct,
        miss_rates,
        cpi,
        cpi_stack,
        total_instructions: regions.iter().map(|(m, _)| m.instructions).sum(),
        total_l3_accesses: regions
            .iter()
            .filter_map(|(m, _)| m.cache.as_ref().map(|c| c.l3.accesses))
            .sum(),
        total_wall_seconds: regions.iter().map(|(m, _)| m.wall_seconds).sum(),
    }
}

/// Converts whole-run metrics into the same aggregate shape for uniform
/// comparisons.
pub fn whole_as_aggregate(whole: &RunMetrics) -> AggregatedMetrics {
    aggregate_weighted(&[(whole.clone(), 1.0)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampsim_cache::CacheStats;
    use sampsim_workload::MemClass;

    fn metrics(insts: u64, reads: u64, l3_miss: u64, l3_acc: u64) -> RunMetrics {
        let mut mix = MixCounts::new();
        for _ in 0..reads {
            mix.record(MemClass::Read);
        }
        for _ in 0..insts - reads {
            mix.record(MemClass::NoMem);
        }
        let mut cache = HierarchyStats {
            l3: CacheStats {
                accesses: l3_acc,
                misses: l3_miss,
            },
            ..HierarchyStats::default()
        };
        cache.l1d = CacheStats {
            accesses: reads,
            misses: l3_acc,
        };
        RunMetrics {
            instructions: insts,
            mix,
            cache: Some(cache),
            timing: None,
            wall_seconds: 0.5,
        }
    }

    #[test]
    fn equal_regions_average_plainly() {
        let a = metrics(100, 40, 5, 10);
        let b = metrics(100, 20, 1, 10);
        let agg = aggregate_weighted(&[(a, 0.5), (b, 0.5)]);
        assert!((agg.mix_pct[1] - 30.0).abs() < 1e-9);
        let mr = agg.miss_rates.unwrap();
        assert!((mr.l3 - 30.0).abs() < 1e-9); // (5+1)/(10+10)
        assert_eq!(agg.total_instructions, 200);
        assert_eq!(agg.total_l3_accesses, 20);
        assert!((agg.total_wall_seconds - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weights_shift_the_aggregate() {
        let a = metrics(100, 100, 0, 100); // all reads, 0% l3 miss
        let b = metrics(100, 0, 0, 0); // no memory
        let agg = aggregate_weighted(&[(a, 0.9), (b, 0.1)]);
        assert!((agg.mix_pct[1] - 90.0).abs() < 1e-9);
    }

    #[test]
    fn whole_as_aggregate_is_identity_shaped() {
        let w = metrics(1000, 300, 10, 50);
        let agg = whole_as_aggregate(&w);
        assert!((agg.mix_pct[1] - 30.0).abs() < 1e-9);
        assert!((agg.miss_rates.unwrap().l3 - 20.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "weights must sum to 1")]
    fn bad_weights_panic() {
        let a = metrics(10, 1, 0, 0);
        aggregate_weighted(&[(a, 0.5)]);
    }

    #[test]
    fn codec_roundtrip() {
        let m = metrics(123, 45, 6, 7);
        let bytes = sampsim_util::codec::to_bytes(&m);
        let back: RunMetrics = sampsim_util::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn timing_aggregation() {
        let mk = |cycles: f64| -> RunMetrics {
            let mut m = metrics(100, 10, 0, 0);
            m.timing = Some(TimingStats {
                instructions: 100,
                cycles,
                ..Default::default()
            });
            m
        };
        let agg = aggregate_weighted(&[(mk(100.0), 0.5), (mk(300.0), 0.5)]);
        assert!((agg.cpi.unwrap() - 2.0).abs() < 1e-9);
    }
}
