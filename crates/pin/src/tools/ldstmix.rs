//! `ldstmix`: the dynamic instruction-mix profiler (Fig. 7's metric).

use crate::engine::Pintool;
use sampsim_workload::{MemClass, Retired};

/// Instruction counts in the four `ldstmix` categories.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MixCounts {
    counts: [u64; 4],
}

impl MixCounts {
    /// Zeroed counts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one instruction of class `mem`.
    #[inline]
    pub fn record(&mut self, mem: MemClass) {
        self.counts[mem.index()] += 1;
    }

    /// Count for one category.
    pub fn count(&self, mem: MemClass) -> u64 {
        self.counts[mem.index()]
    }

    /// Total instructions.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Percentage distribution in [`MemClass::ALL`] order
    /// (`NO_MEM, MEM_R, MEM_W, MEM_RW`); zeros when empty.
    pub fn distribution_pct(&self) -> [f64; 4] {
        let total = self.total();
        if total == 0 {
            return [0.0; 4];
        }
        let mut out = [0.0; 4];
        for (o, &c) in out.iter_mut().zip(&self.counts) {
            *o = 100.0 * c as f64 / total as f64;
        }
        out
    }

    /// Accumulates other counts.
    pub fn merge(&mut self, other: &MixCounts) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

/// The `ldstmix` Pintool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LdStMix {
    counts: MixCounts,
}

impl LdStMix {
    /// Creates a zeroed profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated counts.
    pub fn counts(&self) -> &MixCounts {
        &self.counts
    }
}

impl Pintool for LdStMix {
    #[inline]
    fn on_inst(&mut self, inst: &Retired) {
        self.counts.record(inst.mem);
    }
}

impl sampsim_util::codec::Encode for MixCounts {
    fn encode(&self, enc: &mut sampsim_util::codec::Encoder) {
        for &c in &self.counts {
            enc.put_u64(c);
        }
    }
}

impl sampsim_util::codec::Decode for MixCounts {
    fn decode(
        dec: &mut sampsim_util::codec::Decoder<'_>,
    ) -> Result<Self, sampsim_util::codec::DecodeError> {
        let mut counts = [0u64; 4];
        for c in &mut counts {
            *c = dec.take_u64()?;
        }
        Ok(Self { counts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(counts: [u64; 4]) -> MixCounts {
        let mut m = MixCounts::new();
        for (class, &n) in MemClass::ALL.iter().zip(&counts) {
            for _ in 0..n {
                m.record(*class);
            }
        }
        m
    }

    #[test]
    fn distribution_sums_to_100() {
        let m = mk([50, 30, 15, 5]);
        let d = m.distribution_pct();
        assert!((d.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        assert_eq!(d[0], 50.0);
        assert_eq!(d[3], 5.0);
    }

    #[test]
    fn empty_distribution_is_zero() {
        assert_eq!(MixCounts::new().distribution_pct(), [0.0; 4]);
    }

    #[test]
    fn merge_adds() {
        let mut a = mk([1, 2, 3, 4]);
        a.merge(&mk([10, 20, 30, 40]));
        assert_eq!(a.count(MemClass::NoMem), 11);
        assert_eq!(a.count(MemClass::ReadWrite), 44);
        assert_eq!(a.total(), 110);
    }
}
