//! The extension-VM instruction set.
//!
//! A compact stack ISA over 64-bit signed integers. Control flow uses
//! absolute instruction indices (the assembler resolves labels). All
//! arithmetic is wrapping; division and modulo by zero are trapped
//! errors rather than panics.

/// One instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// Push an immediate.
    Push(i64),
    /// Discard the top of stack.
    Pop,
    /// Duplicate the top of stack.
    Dup,
    /// Swap the two top stack slots.
    Swap,
    /// Push a copy of invocation argument `n` (trap if out of range).
    Arg(u8),

    /// Wrapping addition: `a b -- a+b`.
    Add,
    /// Wrapping subtraction: `a b -- a-b`.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division (traps on divide-by-zero and MIN/-1 overflow).
    Div,
    /// Signed remainder (same traps as Div).
    Mod,
    /// Arithmetic negation.
    Neg,
    /// Minimum of two values.
    Min,
    /// Maximum of two values.
    Max,

    /// Comparison: pushes 1 or 0.
    Eq,
    /// Not-equal comparison.
    Ne,
    /// Less-than comparison.
    Lt,
    /// Less-or-equal comparison.
    Le,
    /// Greater-than comparison.
    Gt,
    /// Greater-or-equal comparison.
    Ge,
    /// Logical and (non-zero = true).
    And,
    /// Logical or.
    Or,
    /// Logical not.
    Not,

    /// Unconditional jump to instruction index.
    Jmp(u32),
    /// Jump if top of stack is zero (pops it).
    Jz(u32),
    /// Jump if top of stack is non-zero (pops it).
    Jnz(u32),

    /// Load local variable slot.
    Load(u8),
    /// Store top of stack into local slot (pops it).
    Store(u8),
    /// Load linear-memory cell at the address on the stack.
    MemLoad,
    /// Store value at address: `addr value --`.
    MemStore,

    /// Call host function `idx` with `argc` stack operands (popped,
    /// left-to-right order restored); pushes the i64 result.
    HostCall {
        /// Host function index.
        idx: u8,
        /// Number of arguments popped from the stack.
        argc: u8,
    },

    /// Stop with the top of stack as result.
    Ret,
}

/// A validated program: a bounded sequence of instructions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Program {
    instrs: Vec<Instr>,
}

/// Maximum instructions per program — extensions are policies, not
/// applications.
pub const MAX_PROGRAM_LEN: usize = 4096;

impl Program {
    /// Wraps instructions, validating program size and jump targets.
    pub fn new(instrs: Vec<Instr>) -> Result<Self, ProgramError> {
        if instrs.is_empty() {
            return Err(ProgramError::Empty);
        }
        if instrs.len() > MAX_PROGRAM_LEN {
            return Err(ProgramError::TooLong(instrs.len()));
        }
        let len = instrs.len() as u32;
        for (pc, i) in instrs.iter().enumerate() {
            if let Instr::Jmp(t) | Instr::Jz(t) | Instr::Jnz(t) = i {
                if *t >= len {
                    return Err(ProgramError::BadJump { pc, target: *t });
                }
            }
        }
        Ok(Self { instrs })
    }

    /// The instructions.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Program length.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Always false: construction rejects empty programs.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Static validation errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramError {
    /// The program has no instructions.
    Empty,
    /// The program exceeds [`MAX_PROGRAM_LEN`].
    TooLong(usize),
    /// A jump targets an out-of-range instruction index.
    BadJump {
        /// Instruction index of the jump.
        pc: usize,
        /// The invalid target.
        target: u32,
    },
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::Empty => f.write_str("empty program"),
            ProgramError::TooLong(n) => write!(f, "program too long: {n} > {MAX_PROGRAM_LEN}"),
            ProgramError::BadJump { pc, target } => {
                write!(f, "instruction {pc} jumps to invalid target {target}")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty() {
        assert_eq!(Program::new(vec![]), Err(ProgramError::Empty));
    }

    #[test]
    fn rejects_oversized() {
        let instrs = vec![Instr::Push(0); MAX_PROGRAM_LEN + 1];
        assert!(matches!(
            Program::new(instrs),
            Err(ProgramError::TooLong(_))
        ));
    }

    #[test]
    fn rejects_bad_jump() {
        let p = Program::new(vec![Instr::Jmp(5), Instr::Ret]);
        assert!(matches!(p, Err(ProgramError::BadJump { pc: 0, target: 5 })));
    }

    #[test]
    fn accepts_valid() {
        let p = Program::new(vec![Instr::Push(1), Instr::Jz(0), Instr::Ret]).unwrap();
        assert_eq!(p.len(), 3);
    }
}
