//! The instrumentation engine: drives an executor and dispatches retired
//! instructions to tools.

use sampsim_workload::{Cursor, Executor, Retired};

/// An observation tool attached to a program's execution.
///
/// Tools receive every retired instruction. They must be passive: a tool
/// cannot alter the instruction stream (instrumentation, not emulation).
pub trait Pintool {
    /// Called for every retired instruction.
    fn on_inst(&mut self, inst: &Retired);

    /// Called when the driven run finishes (end of program or instruction
    /// limit). Default: no-op.
    fn on_run_end(&mut self) {}
}

/// The no-op tool: lets slice walks run untooled (e.g. a fast-forward
/// pass that only captures cursors).
impl Pintool for () {
    #[inline]
    fn on_inst(&mut self, _inst: &Retired) {}
}

/// An optional tool: dispatches when present, no-ops when `None`. Lets a
/// statically-typed tool stack carry a conditional member (the profiling
/// pass's cache simulator) without dynamic dispatch.
impl<T: Pintool> Pintool for Option<T> {
    #[inline]
    fn on_inst(&mut self, inst: &Retired) {
        if let Some(t) = self {
            t.on_inst(inst);
        }
    }
    fn on_run_end(&mut self) {
        if let Some(t) = self {
            t.on_run_end();
        }
    }
}

/// A pair of tools, dispatched in order — composes into arbitrary
/// statically-typed tool stacks.
impl<A: Pintool, B: Pintool> Pintool for (A, B) {
    #[inline]
    fn on_inst(&mut self, inst: &Retired) {
        self.0.on_inst(inst);
        self.1.on_inst(inst);
    }
    fn on_run_end(&mut self) {
        self.0.on_run_end();
        self.1.on_run_end();
    }
}

/// Three tools, dispatched in order (the profiling pass's
/// BBV + mix + optional cache stack).
impl<A: Pintool, B: Pintool, C: Pintool> Pintool for (A, B, C) {
    #[inline]
    fn on_inst(&mut self, inst: &Retired) {
        self.0.on_inst(inst);
        self.1.on_inst(inst);
        self.2.on_inst(inst);
    }
    fn on_run_end(&mut self) {
        self.0.on_run_end();
        self.1.on_run_end();
        self.2.on_run_end();
    }
}

/// Drives `exec` through up to `max_slices` slices of `slice_size`
/// instructions, feeding every retired instruction to `tool`. At the
/// start of each slice — before any of its instructions retire — the
/// slice-start [`Cursor`] is captured; after the slice's instructions
/// have been dispatched (and `on_run_end` has fired, matching a
/// per-slice [`run_one`] loop), `on_slice(tool, start, ran)` is invoked with
/// the tool handed back so per-slice state (a BBV accumulator, say) can
/// be harvested between slices.
///
/// This is the sharding primitive of the profiling pass: a whole-program
/// profile is `run_slices(start, slice, u64::MAX, …)`, and a parallel
/// shard is the same call with the shard's resume cursor and slice
/// budget. Because the executor checkpoints bit-exactly, the slices
/// observed by a shard are identical to the ones a whole-program walk
/// would have produced, whatever the shard boundaries.
///
/// Returns the total number of instructions retired; a final short slice
/// (program end) is reported to `on_slice` like any other, and iteration
/// stops there.
///
/// # Panics
///
/// Panics if `slice_size` is zero.
pub fn run_slices<T: Pintool>(
    exec: &mut Executor<'_>,
    slice_size: u64,
    max_slices: u64,
    tool: &mut T,
    mut on_slice: impl FnMut(&mut T, Cursor, u64),
) -> u64 {
    assert!(slice_size > 0, "slice size must be positive");
    let mut total = 0u64;
    let mut slices = 0u64;
    while slices < max_slices {
        let start = exec.cursor();
        let ran = run_one(exec, slice_size, tool);
        if ran == 0 {
            break;
        }
        on_slice(tool, start, ran);
        total += ran;
        slices += 1;
        if ran < slice_size {
            break;
        }
    }
    total
}

/// Runs `exec` for up to `limit` instructions, feeding every retired
/// instruction to `tool`, then fires its `on_run_end`. Returns the number
/// of instructions actually retired (less than `limit` only at program
/// end).
///
/// The tool type is static, so the per-instruction dispatch inlines; a
/// stack of tools is one tuple (`(LdStMix::new(), CacheSim::new(..))`),
/// dispatched in order.
///
/// # Example
///
/// See the crate-level example.
pub fn run_one<T: Pintool>(exec: &mut Executor<'_>, limit: u64, tool: &mut T) -> u64 {
    let mut done = 0u64;
    while done < limit {
        match exec.next_inst() {
            Some(inst) => {
                tool.on_inst(&inst);
                done += 1;
            }
            None => break,
        }
    }
    tool.on_run_end();
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampsim_workload::spec::{PhaseSpec, WorkloadSpec};
    use sampsim_workload::Program;

    struct Counter {
        n: u64,
        ended: bool,
    }

    impl Pintool for Counter {
        fn on_inst(&mut self, _inst: &Retired) {
            self.n += 1;
        }
        fn on_run_end(&mut self) {
            self.ended = true;
        }
    }

    fn program() -> Program {
        WorkloadSpec::builder("engine-test", 5)
            .total_insts(5_000)
            .phase(PhaseSpec::balanced(1.0))
            .build()
            .build()
    }

    #[test]
    fn run_respects_limit() {
        let p = program();
        let mut exec = Executor::new(&p);
        let mut c = Counter { n: 0, ended: false };
        let ran = run_one(&mut exec, 1000, &mut c);
        assert_eq!(ran, 1000);
        assert_eq!(c.n, 1000);
        assert!(c.ended);
    }

    #[test]
    fn run_stops_at_program_end() {
        let p = program();
        let mut exec = Executor::new(&p);
        let mut c = Counter { n: 0, ended: false };
        let ran = run_one(&mut exec, u64::MAX, &mut c);
        assert_eq!(ran, p.total_insts());
    }

    #[test]
    fn multiple_tools_see_same_stream() {
        let p = program();
        let mut exec = Executor::new(&p);
        let mut tools = (
            Counter { n: 0, ended: false },
            Counter { n: 0, ended: false },
        );
        run_one(&mut exec, 2_000, &mut tools);
        assert_eq!(tools.0.n, 2_000);
        assert_eq!(tools.0.n, tools.1.n);
        assert!(tools.0.ended && tools.1.ended);
    }

    #[test]
    fn run_slices_partitions_like_run() {
        let p = program();
        let mut whole = Executor::new(&p);
        let mut sliced = Executor::new(&p);
        let mut a = Counter { n: 0, ended: false };
        let mut b = Counter { n: 0, ended: false };
        run_one(&mut whole, u64::MAX, &mut a);
        let mut boundaries = Vec::new();
        let total = run_slices(&mut sliced, 1_500, u64::MAX, &mut b, |_, start, ran| {
            boundaries.push((start.retired, ran));
        });
        assert_eq!(total, p.total_insts());
        assert_eq!(a.n, b.n);
        // 5000 insts at 1500/slice: 3 full slices + one 500-inst tail.
        assert_eq!(
            boundaries,
            vec![(0, 1_500), (1_500, 1_500), (3_000, 1_500), (4_500, 500)]
        );
    }

    #[test]
    fn run_slices_respects_budget_and_resumes() {
        let p = program();
        // A shard that owns slices [1, 3) must see exactly the cursors a
        // whole-program walk captures for those slices.
        let mut reference = Executor::new(&p);
        let mut want = Vec::new();
        run_slices(&mut reference, 1_000, u64::MAX, &mut (), |_, start, ran| {
            want.push((start, ran));
        });
        let mut warmup = Executor::new(&p);
        warmup.skip(1_000);
        let mut shard = Executor::with_cursor(&p, warmup.cursor());
        let mut got = Vec::new();
        let ran = run_slices(&mut shard, 1_000, 2, &mut (), |_, start, ran| {
            got.push((start, ran));
        });
        assert_eq!(ran, 2_000);
        assert_eq!(got.as_slice(), &want[1..3]);
    }

    #[test]
    fn tool_combinators_dispatch_in_order() {
        let p = program();
        let mut exec = Executor::new(&p);
        let mut stack = (
            Counter { n: 0, ended: false },
            (Counter { n: 0, ended: false }, None::<Counter>),
        );
        run_one(&mut exec, 700, &mut stack);
        assert_eq!(stack.0.n, 700);
        assert_eq!(stack.1 .0.n, 700);
        assert!(stack.0.ended && stack.1 .0.ended);
        let mut opt = Some(Counter { n: 0, ended: false });
        let mut exec = Executor::new(&p);
        run_one(&mut exec, 10, &mut opt);
        assert_eq!(opt.as_ref().unwrap().n, 10);
    }

    #[test]
    fn run_one_matches_run() {
        // The engine loop retires exactly what the executor's own `run`
        // helper does, and leaves the executor at the same point.
        let p = program();
        let mut e1 = Executor::new(&p);
        let mut e2 = Executor::new(&p);
        let mut a = Counter { n: 0, ended: false };
        let mut b = 0u64;
        assert_eq!(run_one(&mut e1, 1234, &mut a), e2.run(1234, |_| b += 1));
        assert_eq!(a.n, b);
        assert_eq!(e1.cursor(), e2.cursor());
    }
}
