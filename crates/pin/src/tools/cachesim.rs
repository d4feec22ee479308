//! `allcache` bridge: feeds the retired stream into a cache hierarchy.

use crate::engine::Pintool;
use sampsim_cache::{Hierarchy, HierarchyConfig, HierarchyStats};
use sampsim_workload::Retired;

/// A Pintool that drives a [`Hierarchy`] with every instruction fetch and
/// data access of the observed stream.
///
/// A `MEM_RW` instruction performs a read followed by a write to the same
/// address (the x86 `movs` idiom the paper cites), i.e. two L1D accesses.
///
/// # Example
///
/// ```
/// use sampsim_cache::configs;
/// use sampsim_pin::{engine, tools::CacheSim};
/// use sampsim_workload::spec::{PhaseSpec, WorkloadSpec};
///
/// let p = WorkloadSpec::builder("cs", 1)
///     .total_insts(10_000)
///     .phase(PhaseSpec::memory_bound(1.0))
///     .build()
///     .build();
/// let mut exec = sampsim_workload::Executor::new(&p);
/// let mut cs = CacheSim::new(configs::allcache_table1());
/// engine::run_one(&mut exec, u64::MAX, &mut cs);
/// let stats = cs.stats();
/// assert!(stats.l1d.accesses > 0);
/// assert_eq!(stats.l1i.accesses, p.total_insts());
/// ```
#[derive(Debug, Clone)]
pub struct CacheSim {
    hierarchy: Hierarchy,
}

impl CacheSim {
    /// Creates a cold cache simulator.
    pub fn new(config: HierarchyConfig) -> Self {
        Self {
            hierarchy: Hierarchy::new(config),
        }
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> HierarchyStats {
        self.hierarchy.stats()
    }

    /// Access to the underlying hierarchy (e.g. to toggle warmup mode or
    /// reset statistics between regions).
    pub fn hierarchy_mut(&mut self) -> &mut Hierarchy {
        &mut self.hierarchy
    }
}

impl Pintool for CacheSim {
    #[inline]
    fn on_inst(&mut self, inst: &Retired) {
        self.hierarchy.fetch(inst.pc);
        if inst.mem.reads() {
            self.hierarchy.access_data(inst.addr);
        }
        if inst.mem.writes() {
            self.hierarchy.access_data(inst.addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampsim_cache::configs;
    use sampsim_workload::MemClass;

    fn retired(mem: MemClass, addr: u64) -> Retired {
        Retired {
            block: 0,
            pc: 0x40_0000,
            mem,
            addr,
            is_branch: false,
            taken: false,
            dependent: false,
        }
    }

    #[test]
    fn rw_counts_two_data_accesses() {
        let mut cs = CacheSim::new(configs::allcache_table1());
        cs.on_inst(&retired(MemClass::ReadWrite, 0x1000));
        let s = cs.stats();
        assert_eq!(s.l1d.accesses, 2);
        assert_eq!(s.l1d.misses, 1, "write hits the line the read filled");
        assert_eq!(s.l1i.accesses, 1);
    }

    #[test]
    fn nomem_only_fetches() {
        let mut cs = CacheSim::new(configs::allcache_table1());
        cs.on_inst(&retired(MemClass::NoMem, 0));
        let s = cs.stats();
        assert_eq!(s.l1d.accesses, 0);
        assert_eq!(s.l1i.accesses, 1);
    }

    #[test]
    fn warmup_toggle_via_hierarchy() {
        let mut cs = CacheSim::new(configs::allcache_table1());
        cs.hierarchy_mut().set_warmup(true);
        cs.on_inst(&retired(MemClass::Read, 0x2000));
        cs.hierarchy_mut().set_warmup(false);
        assert_eq!(cs.stats().l1d.accesses, 0);
        cs.on_inst(&retired(MemClass::Read, 0x2000));
        let s = cs.stats();
        assert_eq!(s.l1d.accesses, 1);
        assert_eq!(s.l1d.misses, 0);
    }
}
