//! The composed timing simulator ("Sniper" stand-in).
//!
//! [`Sniper`] implements [`Pintool`], so it is driven over a retired
//! instruction stream exactly like the functional tools — including over
//! regional pinball replays, which is how the paper runs simulation points
//! inside Sniper (§IV-E).

use crate::bpred::{BranchPredictor, BranchStats};
use crate::core::{CoreConfig, CpiStack};
use sampsim_cache::{Hierarchy, HierarchyConfig, HierarchyStats, Level};
use sampsim_pin::Pintool;
use sampsim_workload::Retired;

/// Cycle/instruction counters produced by a timing run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimingStats {
    /// Instructions simulated.
    pub instructions: u64,
    /// Cycles accumulated.
    pub cycles: f64,
    /// Cycle breakdown.
    pub stack: CpiStack,
    /// Branch predictor counters.
    pub branches: BranchStats,
}

impl TimingStats {
    /// Cycles per instruction (0 when empty).
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles / self.instructions as f64
        }
    }
}

/// Interval-model timing simulator over a cache hierarchy and branch
/// predictor.
#[derive(Debug, Clone)]
pub struct Sniper {
    config: CoreConfig,
    hierarchy: Hierarchy,
    bpred: BranchPredictor,
    stats: TimingStats,
    /// Warmup mode: advance microarchitectural state without accounting.
    warming: bool,
}

impl Sniper {
    /// Creates a cold simulator.
    pub fn new(config: CoreConfig, hierarchy_config: HierarchyConfig) -> Self {
        Self {
            config,
            hierarchy: Hierarchy::new(hierarchy_config),
            bpred: BranchPredictor::typical(),
            stats: TimingStats::default(),
            warming: false,
        }
    }

    /// The core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Timing counters so far.
    pub fn stats(&self) -> TimingStats {
        self.stats
    }

    /// Cache-hierarchy counters so far.
    pub fn cache_stats(&self) -> HierarchyStats {
        self.hierarchy.stats()
    }

    /// Enables/disables warmup: while warming, caches and the branch
    /// predictor are updated but no cycles or counters accrue.
    pub fn set_warming(&mut self, warming: bool) {
        self.warming = warming;
        self.hierarchy.set_warmup(warming);
    }

    /// Resets timing and cache counters, preserving all microarchitectural
    /// state (for measure-after-warmup flows).
    pub fn reset_stats(&mut self) {
        self.stats = TimingStats::default();
        self.hierarchy.reset_stats();
        self.bpred.reset_stats();
    }

    #[inline]
    fn account_data(&mut self, level: Level, dependent: bool) {
        let l1_lat = f64::from(self.hierarchy.latency_of(Level::L1D));
        let lat = f64::from(self.hierarchy.latency_of(level));
        // L1 hits are fully pipelined; misses expose latency beyond L1,
        // divided by the attainable memory-level parallelism unless the
        // access is a serialized pointer chase.
        let exposed = match level {
            Level::L1D | Level::L1I => 0.0,
            _ => {
                let extra = lat - l1_lat;
                if dependent {
                    extra
                } else {
                    extra / self.config.mlp
                }
            }
        };
        match level {
            Level::L2 => self.stats.stack.l2 += exposed,
            Level::L3 => self.stats.stack.l3 += exposed,
            Level::Mem => self.stats.stack.mem += exposed,
            Level::L1D | Level::L1I => {}
        }
        self.stats.cycles += exposed;
    }
}

impl Pintool for Sniper {
    #[inline]
    fn on_inst(&mut self, inst: &Retired) {
        if self.warming {
            // State-only pass.
            self.hierarchy.fetch(inst.pc);
            if inst.mem.reads() {
                self.hierarchy.access_data(inst.addr);
            }
            if inst.mem.writes() {
                self.hierarchy.access_data(inst.addr);
            }
            if inst.is_branch {
                self.bpred.predict_and_update(inst.pc, inst.taken);
            }
            return;
        }
        self.stats.instructions += 1;
        let base = self.config.base_cpi();
        self.stats.cycles += base;
        self.stats.stack.base += base;

        // Front end.
        let flevel = self.hierarchy.fetch(inst.pc);
        if !matches!(flevel, Level::L1I) {
            let stall = f64::from(self.hierarchy.latency_of(flevel))
                - f64::from(self.hierarchy.latency_of(Level::L1I));
            self.stats.cycles += stall;
            self.stats.stack.ifetch += stall;
        }

        // Memory.
        if inst.mem.reads() {
            let level = self.hierarchy.access_data(inst.addr);
            self.account_data(level, inst.dependent);
        }
        if inst.mem.writes() {
            let level = self.hierarchy.access_data(inst.addr);
            // Stores retire from the store buffer; expose a fraction of the
            // read path cost.
            let before = self.stats.cycles;
            self.account_data(level, false);
            let spent = self.stats.cycles - before;
            let rebate = spent * 0.5;
            self.stats.cycles -= rebate;
            match level {
                Level::L2 => self.stats.stack.l2 -= rebate,
                Level::L3 => self.stats.stack.l3 -= rebate,
                Level::Mem => self.stats.stack.mem -= rebate,
                _ => {}
            }
        }

        // Control.
        if inst.is_branch && !self.bpred.predict_and_update(inst.pc, inst.taken) {
            let penalty = f64::from(self.config.branch_penalty);
            self.stats.cycles += penalty;
            self.stats.stack.branch += penalty;
        }
        self.stats.branches = self.bpred.stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampsim_cache::configs;
    use sampsim_pin::engine;
    use sampsim_workload::spec::{PhaseSpec, WorkloadSpec};
    use sampsim_workload::{Executor, MemClass};

    fn run_workload(phase: PhaseSpec, insts: u64) -> TimingStats {
        let p = WorkloadSpec::builder("t", 3)
            .total_insts(insts)
            .phase(phase)
            .build()
            .build();
        let mut exec = Executor::new(&p);
        let mut sim = Sniper::new(CoreConfig::table3(), configs::i7_table3());
        engine::run_one(&mut exec, u64::MAX, &mut sim);
        sim.stats()
    }

    #[test]
    fn cpi_at_least_dispatch_bound() {
        let s = run_workload(PhaseSpec::compute_bound(1.0), 30_000);
        assert!(s.cpi() >= 0.25);
        assert_eq!(s.instructions, 30_000);
        assert!(s.stack.total() > 0.0);
        assert!((s.stack.total() - s.cycles).abs() < 1e-6);
    }

    #[test]
    fn memory_bound_has_higher_cpi_than_compute_bound() {
        let compute = run_workload(PhaseSpec::compute_bound(1.0), 50_000);
        let memory = run_workload(PhaseSpec::memory_bound(1.0), 50_000);
        assert!(
            memory.cpi() > compute.cpi() * 1.3,
            "memory {} vs compute {}",
            memory.cpi(),
            compute.cpi()
        );
        assert!(memory.stack.mem > compute.stack.mem);
    }

    #[test]
    fn pointer_chase_pays_full_latency() {
        let chase = run_workload(PhaseSpec::pointer_chasing(1.0), 50_000);
        let streaming = run_workload(PhaseSpec::memory_bound(1.0), 50_000);
        assert!(chase.cpi() > streaming.cpi());
    }

    #[test]
    fn warming_accrues_no_cycles() {
        let mut sim = Sniper::new(CoreConfig::table3(), configs::i7_table3());
        sim.set_warming(true);
        let inst = Retired {
            block: 0,
            pc: 0x400000,
            mem: MemClass::Read,
            addr: 0x1000,
            is_branch: false,
            taken: false,
            dependent: false,
        };
        sim.on_inst(&inst);
        assert_eq!(sim.stats().instructions, 0);
        assert_eq!(sim.stats().cycles, 0.0);
        sim.set_warming(false);
        sim.on_inst(&inst);
        assert_eq!(sim.stats().instructions, 1);
        // The warmed line hits L1: only base cycles.
        assert!((sim.stats().cycles - 0.25).abs() < 1e-12);
    }
}

impl sampsim_util::codec::Encode for TimingStats {
    fn encode(&self, enc: &mut sampsim_util::codec::Encoder) {
        enc.put_u64(self.instructions);
        enc.put_f64(self.cycles);
        self.stack.encode(enc);
        self.branches.encode(enc);
    }
}

impl sampsim_util::codec::Decode for TimingStats {
    fn decode(
        dec: &mut sampsim_util::codec::Decoder<'_>,
    ) -> Result<Self, sampsim_util::codec::DecodeError> {
        Ok(Self {
            instructions: dec.take_u64()?,
            cycles: dec.take_f64()?,
            stack: crate::core::CpiStack::decode(dec)?,
            branches: crate::bpred::BranchStats::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod stack_consistency_tests {
    use super::*;
    use sampsim_cache::configs;
    use sampsim_pin::engine;
    use sampsim_workload::spec::{PhaseSpec, WorkloadSpec};
    use sampsim_workload::Executor;

    #[test]
    fn cpi_stack_always_sums_to_cycles() {
        for (seed, phase) in [
            (1u64, PhaseSpec::balanced(1.0)),
            (2, PhaseSpec::memory_bound(1.0)),
            (3, PhaseSpec::pointer_chasing(1.0)),
        ] {
            let p = WorkloadSpec::builder("stack", seed)
                .total_insts(20_000)
                .phase(phase)
                .build()
                .build();
            let mut exec = Executor::new(&p);
            let mut sim = Sniper::new(CoreConfig::table3(), configs::i7_table3());
            engine::run_one(&mut exec, u64::MAX, &mut sim);
            let s = sim.stats();
            assert!(
                (s.stack.total() - s.cycles).abs() < 1e-6,
                "seed {seed}: stack {} vs cycles {}",
                s.stack.total(),
                s.cycles
            );
            // No component may be negative (the store rebate must never
            // overdraw a bucket).
            for v in [
                s.stack.base,
                s.stack.branch,
                s.stack.ifetch,
                s.stack.l2,
                s.stack.l3,
                s.stack.mem,
            ] {
                assert!(v >= -1e-9, "negative stack component {v}");
            }
        }
    }

    #[test]
    fn reset_stats_preserves_state() {
        let p = WorkloadSpec::builder("reset", 4)
            .total_insts(30_000)
            .phase(PhaseSpec::balanced(1.0))
            .build()
            .build();
        let mut exec = Executor::new(&p);
        let mut sim = Sniper::new(CoreConfig::table3(), configs::i7_table3());
        engine::run_one(&mut exec, 20_000, &mut sim);
        sim.reset_stats();
        assert_eq!(sim.stats().instructions, 0);
        // Continue measuring with warm state: CPI should be lower than a
        // cold restart of the same window.
        engine::run_one(&mut exec, 10_000, &mut sim);
        let warm_cpi = sim.stats().cpi();
        let mut cold_exec = Executor::new(&p);
        cold_exec.skip(20_000);
        let mut cold_sim = Sniper::new(CoreConfig::table3(), configs::i7_table3());
        engine::run_one(&mut cold_exec, 10_000, &mut cold_sim);
        assert!(warm_cpi < cold_sim.stats().cpi());
    }
}
