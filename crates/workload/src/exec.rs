//! The deterministic executor.
//!
//! [`Executor`] walks a [`Program`]'s schedule and retires one instruction
//! at a time. All execution state lives in a compact [`Cursor`] value that
//! can be captured at any instruction boundary and later resumed
//! bit-exactly — the mechanism underlying pinball checkpoints.

use crate::block::InstKind;
use crate::mem::{MemClass, StreamState};
use crate::program::Program;
use sampsim_util::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use sampsim_util::rng::Xoshiro256StarStar;

/// One retired (dynamically executed) instruction — everything a dynamic
/// instrumentation framework can observe about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// Global id of the basic block this instruction belongs to.
    pub block: u32,
    /// Synthetic program counter.
    pub pc: u64,
    /// `ldstmix` category.
    pub mem: MemClass,
    /// Effective address (meaningful when `mem != NoMem`).
    pub addr: u64,
    /// Whether this is the block-terminating conditional branch.
    pub is_branch: bool,
    /// Branch outcome (meaningful when `is_branch`).
    pub taken: bool,
    /// Whether this is a serialized (pointer-chase) load, i.e. no
    /// memory-level parallelism is available to hide its latency.
    pub dependent: bool,
}

/// Sentinel for "no block selected yet".
const NO_BLOCK: u32 = u32::MAX;

/// The complete execution state of a program at an instruction boundary.
///
/// Cursors are small (a few hundred bytes for typical stream counts) and
/// serializable; a pinball is essentially a cursor plus provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cursor {
    /// Index of the current schedule segment.
    pub seg_idx: u32,
    /// Instructions already retired within the current segment.
    pub seg_retired: u64,
    /// Current basic block ([`u32::MAX`] when none is in flight).
    pub block: u32,
    /// Next instruction index within the current block.
    pub inst_idx: u32,
    /// RNG state.
    pub rng: [u64; 4],
    /// Per-stream positions (global stream table order).
    pub streams: Vec<u64>,
    /// Per-phase low-discrepancy block-selection counters.
    pub phase_sel: Vec<u32>,
    /// Total instructions retired since program start.
    pub retired: u64,
}

impl Cursor {
    /// The initial cursor for `program`.
    pub fn start(program: &Program) -> Self {
        Self {
            seg_idx: 0,
            seg_retired: 0,
            block: NO_BLOCK,
            inst_idx: 0,
            rng: Xoshiro256StarStar::seed_from_u64(program.seed()).state(),
            streams: vec![0; program.num_streams() as usize],
            phase_sel: vec![0; program.phases().len()],
            retired: 0,
        }
    }
}

impl Encode for Cursor {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.seg_idx);
        enc.put_u64(self.seg_retired);
        enc.put_u32(self.block);
        enc.put_u32(self.inst_idx);
        self.rng.encode(enc);
        self.streams.encode(enc);
        self.phase_sel.encode(enc);
        enc.put_u64(self.retired);
    }
}

impl Decode for Cursor {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            seg_idx: dec.take_u32()?,
            seg_retired: dec.take_u64()?,
            block: dec.take_u32()?,
            inst_idx: dec.take_u32()?,
            rng: <[u64; 4]>::decode(dec)?,
            streams: Vec::<u64>::decode(dec)?,
            phase_sel: Vec::<u32>::decode(dec)?,
            retired: dec.take_u64()?,
        })
    }
}

/// Deterministic instruction-level executor for a [`Program`].
#[derive(Debug, Clone)]
pub struct Executor<'p> {
    program: &'p Program,
    rng: Xoshiro256StarStar,
    streams: Vec<StreamState>,
    seg_idx: u32,
    seg_retired: u64,
    block: u32,
    inst_idx: u32,
    retired: u64,
    phase_sel: Vec<u32>,
    /// Per-phase cumulative block weights (selection tables).
    cums: Vec<Vec<f64>>,
}

impl<'p> Executor<'p> {
    /// Creates an executor positioned at the start of `program`.
    pub fn new(program: &'p Program) -> Self {
        Self::with_cursor(program, Cursor::start(program))
    }

    /// Creates an executor resuming from `cursor`.
    ///
    /// # Panics
    ///
    /// Panics if the cursor's stream-state count does not match the
    /// program (i.e. the cursor came from a different program).
    pub fn with_cursor(program: &'p Program, cursor: Cursor) -> Self {
        assert_eq!(
            cursor.streams.len(),
            program.num_streams() as usize,
            "cursor stream count does not match program"
        );
        assert_eq!(
            cursor.phase_sel.len(),
            program.phases().len(),
            "cursor phase count does not match program"
        );
        let cums = program
            .phases()
            .iter()
            .map(|p| p.cumulative_weights())
            .collect();
        Self {
            program,
            rng: Xoshiro256StarStar::from_state(cursor.rng),
            streams: cursor
                .streams
                .iter()
                .map(|&pos| StreamState { pos })
                .collect(),
            seg_idx: cursor.seg_idx,
            seg_retired: cursor.seg_retired,
            block: cursor.block,
            inst_idx: cursor.inst_idx,
            retired: cursor.retired,
            phase_sel: cursor.phase_sel.clone(),
            cums,
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Total instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Captures the complete execution state.
    pub fn cursor(&self) -> Cursor {
        Cursor {
            seg_idx: self.seg_idx,
            seg_retired: self.seg_retired,
            block: self.block,
            inst_idx: self.inst_idx,
            rng: self.rng.state(),
            streams: self.streams.iter().map(|s| s.pos).collect(),
            phase_sel: self.phase_sel.clone(),
            retired: self.retired,
        }
    }

    #[inline]
    fn select_block(&mut self, phase_idx: usize) {
        let cums = &self.cums[phase_idx];
        let total = *cums.last().expect("phase has blocks");
        // Blend a low-discrepancy (Weyl) walk over the weight CDF with a
        // random fraction given by the phase's selection noise: phases are
        // highly self-similar slice-to-slice yet not sterile.
        let phase = &self.program.phases()[phase_idx];
        let u = if self.rng.chance(phase.selection_noise) {
            self.rng.next_f64()
        } else {
            const PHI_FRAC: f64 = 0.618_033_988_749_894_9;
            let s = self.phase_sel[phase_idx];
            self.phase_sel[phase_idx] = s.wrapping_add(1);
            (f64::from(s) * PHI_FRAC).fract()
        };
        let target = u * total;
        // Phases have at most a few dozen blocks; linear scan beats binary
        // search at this size and is branch-predictor friendly.
        let mut idx = 0;
        while idx + 1 < cums.len() && cums[idx] <= target {
            idx += 1;
        }
        self.block = self.program.phases()[phase_idx].blocks[idx];
        self.inst_idx = 0;
    }

    /// Retires the next instruction, or returns `None` when the program has
    /// run to completion.
    #[inline]
    pub fn next_inst(&mut self) -> Option<Retired> {
        let schedule = self.program.schedule();
        let segments = schedule.segments();
        // Advance past exhausted segments; a segment switch abandons any
        // in-flight block (the new phase starts at a fresh block).
        loop {
            let seg = segments.get(self.seg_idx as usize)?;
            if self.seg_retired < seg.insts {
                break;
            }
            self.seg_idx += 1;
            self.seg_retired = 0;
            self.block = NO_BLOCK;
        }
        let seg = segments[self.seg_idx as usize];
        let phase_idx = seg.phase as usize;
        let phase = &self.program.phases()[phase_idx];
        let blocks = self.program.blocks();
        if self.block == NO_BLOCK || self.inst_idx as usize >= blocks[self.block as usize].len() {
            self.select_block(phase_idx);
        }
        let block = &blocks[self.block as usize];
        let inst = block.insts[self.inst_idx as usize];
        let pc = block.pc_of(self.inst_idx as usize);
        let mut out = Retired {
            block: self.block,
            pc,
            mem: MemClass::NoMem,
            addr: 0,
            is_branch: false,
            taken: false,
            dependent: false,
        };
        match inst.kind {
            InstKind::Alu => {}
            InstKind::Load { stream } => {
                self.gen_addr(
                    phase.stream_base,
                    stream,
                    MemClass::Read,
                    &mut out,
                    phase_idx,
                );
            }
            InstKind::Store { stream } => {
                self.gen_addr(
                    phase.stream_base,
                    stream,
                    MemClass::Write,
                    &mut out,
                    phase_idx,
                );
            }
            InstKind::LoadStore { stream } => {
                self.gen_addr(
                    phase.stream_base,
                    stream,
                    MemClass::ReadWrite,
                    &mut out,
                    phase_idx,
                );
            }
            InstKind::Branch { bias } => {
                out.is_branch = true;
                out.taken = ((self.rng.next_u64() >> 48) as u16) < bias;
            }
        }
        self.inst_idx += 1;
        self.seg_retired += 1;
        self.retired += 1;
        Some(out)
    }

    #[inline]
    fn gen_addr(
        &mut self,
        stream_base: u32,
        stream: u16,
        mem: MemClass,
        out: &mut Retired,
        phase_idx: usize,
    ) {
        let spec = &self.program.phases()[phase_idx].streams[stream as usize];
        let global = stream_base as usize + stream as usize;
        out.mem = mem;
        out.addr = self.streams[global].next_addr(spec, &mut self.rng);
        out.dependent = spec.is_dependent();
    }

    /// Retires up to `n` instructions, invoking `f` on each. Returns the
    /// number actually retired (less than `n` only at program end).
    pub fn run(&mut self, n: u64, mut f: impl FnMut(&Retired)) -> u64 {
        let mut done = 0;
        while done < n {
            match self.next_inst() {
                Some(inst) => {
                    f(&inst);
                    done += 1;
                }
                None => break,
            }
        }
        done
    }

    /// Fast-forwards `n` instructions without observing them. Returns the
    /// number actually skipped.
    pub fn skip(&mut self, n: u64) -> u64 {
        self.run(n, |_| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BasicBlock, InstKind, StaticInst};
    use crate::mem::{AddressPattern, MemRegion, StreamSpec};
    use crate::phase::Phase;
    use crate::schedule::{Schedule, Segment};

    fn test_program() -> Program {
        let blocks = vec![
            BasicBlock::new(
                0x400000,
                vec![
                    StaticInst {
                        kind: InstKind::Alu,
                    },
                    StaticInst {
                        kind: InstKind::Load { stream: 0 },
                    },
                    StaticInst {
                        kind: InstKind::Branch { bias: 50000 },
                    },
                ],
            )
            .unwrap(),
            BasicBlock::new(
                0x400100,
                vec![
                    StaticInst {
                        kind: InstKind::Store { stream: 0 },
                    },
                    StaticInst {
                        kind: InstKind::Branch { bias: 10000 },
                    },
                ],
            )
            .unwrap(),
            BasicBlock::new(
                0x400200,
                vec![
                    StaticInst {
                        kind: InstKind::LoadStore { stream: 0 },
                    },
                    StaticInst {
                        kind: InstKind::Branch { bias: 60000 },
                    },
                ],
            )
            .unwrap(),
        ];
        let phases = vec![
            Phase::new(
                vec![0, 1],
                vec![3.0, 1.0],
                vec![StreamSpec {
                    region: MemRegion::new(0x1000_0000, 1 << 16).unwrap(),
                    pattern: AddressPattern::Stride { stride: 64 },
                }],
                0,
            )
            .unwrap(),
            Phase::new(
                vec![2],
                vec![1.0],
                vec![StreamSpec {
                    region: MemRegion::new(0x2000_0000, 1 << 20).unwrap(),
                    pattern: AddressPattern::Random,
                }],
                1,
            )
            .unwrap(),
        ];
        let schedule = Schedule::new(vec![
            Segment {
                phase: 0,
                insts: 500,
            },
            Segment {
                phase: 1,
                insts: 300,
            },
            Segment {
                phase: 0,
                insts: 200,
            },
        ])
        .unwrap();
        Program::new("exec-test", blocks, phases, schedule, 7).unwrap()
    }

    #[test]
    fn runs_exactly_total_insts() {
        let p = test_program();
        let mut e = Executor::new(&p);
        let mut n = 0;
        while e.next_inst().is_some() {
            n += 1;
        }
        assert_eq!(n, 1000);
        assert_eq!(e.retired(), 1000);
        assert!(e.next_inst().is_none(), "stays finished");
    }

    #[test]
    fn deterministic_streams() {
        let p = test_program();
        let mut a = Executor::new(&p);
        let mut b = Executor::new(&p);
        for _ in 0..1000 {
            assert_eq!(a.next_inst(), b.next_inst());
        }
    }

    #[test]
    fn checkpoint_resume_is_bit_exact() {
        let p = test_program();
        let mut reference = Executor::new(&p);
        let mut checkpointed = Executor::new(&p);
        checkpointed.skip(333);
        reference.skip(333);
        let cur = checkpointed.cursor();
        let mut resumed = Executor::with_cursor(&p, cur);
        for _ in 0..667 {
            assert_eq!(resumed.next_inst(), reference.next_inst());
        }
        assert!(resumed.next_inst().is_none());
    }

    #[test]
    fn cursor_codec_roundtrip() {
        let p = test_program();
        let mut e = Executor::new(&p);
        e.skip(123);
        let cur = e.cursor();
        let bytes = sampsim_util::codec::to_bytes(&cur);
        let back: Cursor = sampsim_util::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, cur);
    }

    #[test]
    fn phase_switch_changes_streams() {
        let p = test_program();
        let mut e = Executor::new(&p);
        let mut phase0_addrs = vec![];
        let mut phase1_addrs = vec![];
        while let Some(i) = e.next_inst() {
            if i.mem != MemClass::NoMem {
                if i.addr < 0x2000_0000 {
                    phase0_addrs.push(i.addr);
                } else {
                    phase1_addrs.push(i.addr);
                }
            }
        }
        assert!(!phase0_addrs.is_empty());
        assert!(!phase1_addrs.is_empty());
    }

    #[test]
    fn branch_bias_respected() {
        let p = test_program();
        let mut e = Executor::new(&p);
        let (mut taken, mut total) = (0u64, 0u64);
        while let Some(i) = e.next_inst() {
            if i.is_branch && i.block == 0 {
                total += 1;
                taken += u64::from(i.taken);
            }
        }
        // bias 50000/65536 ~ 0.76
        let rate = taken as f64 / total as f64;
        assert!((0.55..0.95).contains(&rate), "taken rate {rate}");
    }

    #[test]
    fn mem_class_mapping() {
        // Every instruction retires with its kind's `ldstmix` class, and
        // the test program retires all four classes.
        let p = test_program();
        let mut e = Executor::new(&p);
        let mut seen = [false; 4];
        while let Some(r) = e.next_inst() {
            let block = &p.blocks()[r.block as usize];
            let i = (0..block.len()).find(|&i| block.pc_of(i) == r.pc).unwrap();
            let expected = match block.insts[i].kind {
                InstKind::Alu | InstKind::Branch { .. } => MemClass::NoMem,
                InstKind::Load { .. } => MemClass::Read,
                InstKind::Store { .. } => MemClass::Write,
                InstKind::LoadStore { .. } => MemClass::ReadWrite,
            };
            assert_eq!(r.mem, expected, "{:?}", block.insts[i]);
            seen[expected.index()] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn run_helper_counts() {
        let p = test_program();
        let mut e = Executor::new(&p);
        assert_eq!(e.run(400, |_| {}), 400);
        assert_eq!(e.run(10_000, |_| {}), 600);
    }

    #[test]
    #[should_panic(expected = "cursor stream count")]
    fn mismatched_cursor_rejected() {
        let p = test_program();
        let mut cur = Cursor::start(&p);
        cur.streams.push(0);
        let _ = Executor::with_cursor(&p, cur);
    }
}

#[cfg(test)]
mod weyl_tests {
    use super::*;
    use crate::spec::{InterleaveSpec, PhaseSpec, WorkloadSpec};

    /// With low selection noise, two disjoint windows of the same phase
    /// should have nearly identical block-frequency profiles (the Weyl walk
    /// makes slices self-similar — the property clustering relies on).
    #[test]
    fn weyl_selection_makes_windows_self_similar() {
        let program = WorkloadSpec::builder("weyl", 9)
            .total_insts(200_000)
            .phase(PhaseSpec::compute_bound(1.0))
            .interleave(InterleaveSpec {
                mean_segment: 200_000,
                jitter: 0.0,
                align: 0,
            })
            .build()
            .build();
        let mut exec = Executor::new(&program);
        let count_window = |exec: &mut Executor, n: u64| {
            let mut counts = std::collections::HashMap::new();
            for _ in 0..n {
                let i = exec.next_inst().expect("program long enough");
                *counts.entry(i.block).or_insert(0u64) += 1;
            }
            counts
        };
        let a = count_window(&mut exec, 50_000);
        let b = count_window(&mut exec, 50_000);
        for (block, &ca) in &a {
            let cb = *b.get(block).unwrap_or(&0) as f64;
            let rel = (ca as f64 - cb).abs() / ca as f64;
            assert!(rel < 0.15, "block {block}: {ca} vs {cb}");
        }
    }
}
