//! Bounded execution-trace recorder (the `logger` Pintool's observation
//! side), used mainly by replay-equivalence tests.

use crate::engine::Pintool;
use sampsim_workload::Retired;

/// Records up to `capacity` retired instructions verbatim.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    trace: Vec<Retired>,
    capacity: usize,
    dropped: u64,
}

impl TraceRecorder {
    /// Creates a recorder holding at most `capacity` instructions; further
    /// instructions are counted but not stored.
    pub fn new(capacity: usize) -> Self {
        Self {
            trace: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            dropped: 0,
        }
    }

    /// The recorded instructions.
    pub fn trace(&self) -> &[Retired] {
        &self.trace
    }

    /// Instructions observed but not stored (capacity exceeded).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Pintool for TraceRecorder {
    fn on_inst(&mut self, inst: &Retired) {
        if self.trace.len() < self.capacity {
            self.trace.push(*inst);
        } else {
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampsim_workload::MemClass;

    #[test]
    fn caps_at_capacity() {
        let mut t = TraceRecorder::new(2);
        let r = Retired {
            block: 0,
            pc: 0,
            mem: MemClass::NoMem,
            addr: 0,
            is_branch: false,
            taken: false,
            dependent: false,
        };
        for _ in 0..5 {
            t.on_inst(&r);
        }
        assert_eq!(t.trace().len(), 2);
        assert_eq!(t.dropped(), 3);
    }
}
