//! Static code: instructions and basic blocks.
//!
//! A [`BasicBlock`] is a straight-line sequence of [`StaticInst`]s ending in
//! a conditional branch (the classical definition). Blocks carry a synthetic
//! program counter so that instruction-fetch behaviour can be modelled; the
//! code footprint of a program is laid out contiguously from
//! [`CODE_BASE`].

use crate::error::IrError;
use sampsim_util::hash::Fnv64;

/// Base address of the synthetic code segment.
pub const CODE_BASE: u64 = 0x0040_0000;

/// Bytes per synthetic instruction (fixed-width encoding).
pub const INST_BYTES: u64 = 4;

/// One static instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstKind {
    /// Register-only ALU operation (`NO_MEM`).
    Alu,
    /// Load from the phase-local stream with the given index (`MEM_R`).
    Load {
        /// Index into the owning phase's stream table.
        stream: u16,
    },
    /// Store to the stream (`MEM_W`).
    Store {
        /// Index into the owning phase's stream table.
        stream: u16,
    },
    /// Read-modify-write on the stream (`MEM_RW`, e.g. x86 `movs`).
    LoadStore {
        /// Index into the owning phase's stream table.
        stream: u16,
    },
    /// Conditional branch terminating the block; `bias` is the probability
    /// the branch is taken (a per-branch static property learned by
    /// predictors).
    Branch {
        /// Taken probability in fixed-point 1/65536ths.
        bias: u16,
    },
}

/// A static instruction (currently just its kind; a newtype-style wrapper
/// keeps room for per-instruction metadata without churning the API).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StaticInst {
    /// Operation kind.
    pub kind: InstKind,
}

impl StaticInst {
    /// The stream index, if this instruction touches memory.
    pub fn stream(&self) -> Option<u16> {
        match self.kind {
            InstKind::Load { stream }
            | InstKind::Store { stream }
            | InstKind::LoadStore { stream } => Some(stream),
            _ => None,
        }
    }

    fn hash_into(&self, h: &mut Fnv64) {
        match self.kind {
            InstKind::Alu => h.write_u64(0),
            InstKind::Load { stream } => {
                h.write_u64(1);
                h.write_u64(u64::from(stream));
            }
            InstKind::Store { stream } => {
                h.write_u64(2);
                h.write_u64(u64::from(stream));
            }
            InstKind::LoadStore { stream } => {
                h.write_u64(3);
                h.write_u64(u64::from(stream));
            }
            InstKind::Branch { bias } => {
                h.write_u64(4);
                h.write_u64(u64::from(bias));
            }
        }
    }
}

/// A basic block: straight-line instructions ending in a branch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Instructions; the last is always [`InstKind::Branch`].
    pub insts: Vec<StaticInst>,
    /// Program counter of the first instruction.
    pub pc: u64,
}

impl BasicBlock {
    /// Creates a block at `pc`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::EmptyBlock`] when `insts` is empty and
    /// [`IrError::MissingTerminalBranch`] when the last instruction is not
    /// a branch.
    pub fn new(pc: u64, insts: Vec<StaticInst>) -> Result<Self, IrError> {
        let Some(last) = insts.last() else {
            return Err(IrError::EmptyBlock { pc });
        };
        if !matches!(last.kind, InstKind::Branch { .. }) {
            return Err(IrError::MissingTerminalBranch { pc });
        }
        Ok(Self { insts, pc })
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// A block always has at least one instruction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Program counter of instruction `idx`.
    #[inline]
    pub fn pc_of(&self, idx: usize) -> u64 {
        self.pc + idx as u64 * INST_BYTES
    }

    /// Feeds the block into a program digest.
    pub fn hash_into(&self, h: &mut Fnv64) {
        h.write_u64(self.pc);
        h.write_u64(self.insts.len() as u64);
        for inst in &self.insts {
            inst.hash_into(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn branch() -> StaticInst {
        StaticInst {
            kind: InstKind::Branch { bias: 32768 },
        }
    }

    #[test]
    fn block_pc_layout() {
        let b = BasicBlock::new(
            CODE_BASE,
            vec![
                StaticInst {
                    kind: InstKind::Alu,
                },
                branch(),
            ],
        )
        .unwrap();
        assert_eq!(b.pc_of(0), CODE_BASE);
        assert_eq!(b.pc_of(1), CODE_BASE + INST_BYTES);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn block_must_end_in_branch() {
        let err = BasicBlock::new(
            0x40,
            vec![StaticInst {
                kind: InstKind::Alu,
            }],
        )
        .unwrap_err();
        assert_eq!(err, IrError::MissingTerminalBranch { pc: 0x40 });
    }

    #[test]
    fn block_must_be_nonempty() {
        assert_eq!(
            BasicBlock::new(0, vec![]).unwrap_err(),
            IrError::EmptyBlock { pc: 0 }
        );
    }

    #[test]
    fn stream_extraction() {
        assert_eq!(
            StaticInst {
                kind: InstKind::Load { stream: 7 }
            }
            .stream(),
            Some(7)
        );
        assert_eq!(
            StaticInst {
                kind: InstKind::Alu
            }
            .stream(),
            None
        );
    }

    #[test]
    fn digests_differ_for_different_blocks() {
        let a = BasicBlock::new(
            0,
            vec![
                StaticInst {
                    kind: InstKind::Alu,
                },
                branch(),
            ],
        )
        .unwrap();
        let b = BasicBlock::new(
            0,
            vec![
                StaticInst {
                    kind: InstKind::Load { stream: 0 },
                },
                branch(),
            ],
        )
        .unwrap();
        let mut ha = Fnv64::new();
        a.hash_into(&mut ha);
        let mut hb = Fnv64::new();
        b.hash_into(&mut hb);
        assert_ne!(ha.finish(), hb.finish());
    }
}
