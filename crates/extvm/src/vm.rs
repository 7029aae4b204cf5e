//! The interpreter: gas-metered, memory-safe, panic-free.
//!
//! [`Vm::run`] is the semantics oracle for the whole crate: the
//! compiled backend in [`crate::compile`] must match it bit for bit —
//! results, trap values, and gas accounting at every observable
//! boundary. The interpreter core is therefore factored into
//! `interp`, a resumable function over explicit machine state, so the
//! compiled runner can *deopt* into it mid-run (from any basic-block
//! boundary) and inherit exact trap semantics for the rest of the
//! execution.
//!
//! The VM owns its operand stack, locals, and linear memory and resets
//! them in place at the start of every run: back-to-back runs allocate
//! nothing and start from a provably clean state (no stale locals or
//! memory leaking between tenants — see `runs_are_independent` and the
//! `no_alloc` integration test).

use crate::isa::{Instr, Program};
use std::fmt;

/// Resource limits for one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VmLimits {
    /// Maximum instructions executed (gas). Hostile infinite loops hit
    /// this bound and trap.
    pub max_gas: u64,
    /// Maximum operand-stack depth.
    pub max_stack: usize,
    /// Local variable slots available.
    pub locals: usize,
    /// Linear-memory cells available.
    pub memory_cells: usize,
}

impl Default for VmLimits {
    fn default() -> Self {
        Self {
            max_gas: 100_000,
            max_stack: 256,
            locals: 64,
            memory_cells: 1024,
        }
    }
}

/// Trap reasons. Every failure mode is a value, never a panic — hostile
/// extensions cannot take down the control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// Gas exhausted: the program ran too long.
    OutOfGas,
    /// Operand-stack overflow.
    StackOverflow,
    /// Pop/peek on an empty (or too-shallow) stack.
    StackUnderflow,
    /// Division or remainder by zero (or i64::MIN / -1).
    DivideByZero,
    /// Local-slot index out of range.
    BadLocal(u8),
    /// Linear-memory address out of range.
    BadAddress(i64),
    /// Invocation-argument index out of range.
    BadArg(u8),
    /// The host function index is not provided by the embedder.
    UnknownHostFn(u8),
    /// The host function itself failed.
    HostError(String),
    /// Execution fell off the end of the program without `ret`.
    NoReturn,
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::OutOfGas => f.write_str("gas exhausted"),
            VmError::StackOverflow => f.write_str("stack overflow"),
            VmError::StackUnderflow => f.write_str("stack underflow"),
            VmError::DivideByZero => f.write_str("division by zero"),
            VmError::BadLocal(i) => write!(f, "local slot {i} out of range"),
            VmError::BadAddress(a) => write!(f, "memory address {a} out of range"),
            VmError::BadArg(i) => write!(f, "argument {i} out of range"),
            VmError::UnknownHostFn(i) => write!(f, "unknown host function {i}"),
            VmError::HostError(m) => write!(f, "host error: {m}"),
            VmError::NoReturn => f.write_str("program ended without ret"),
        }
    }
}

impl std::error::Error for VmError {}

/// The embedder-provided view of the world.
///
/// The scheduler implements this to expose policy context (device free
/// capacity, rack ids, module demand, ...). Host functions receive the
/// popped arguments oldest-first and return a single value.
pub trait Host {
    /// Invokes host function `idx` with `args`.
    fn call(&mut self, idx: u8, args: &[i64]) -> Result<i64, String>;
}

/// A host providing no functions: any `hostcall` traps.
pub struct NullHost;

impl Host for NullHost {
    fn call(&mut self, idx: u8, _args: &[i64]) -> Result<i64, String> {
        Err(format!("no host function {idx}"))
    }
}

/// Reusable machine state: operand stack, locals, linear memory, and
/// the compiled backend's register file / scratch buffers. Hoisted into
/// [`Vm`] so back-to-back runs reset in place instead of reallocating.
#[derive(Debug, Clone, Default)]
pub(crate) struct VmState {
    pub(crate) stack: Vec<i64>,
    pub(crate) locals: Vec<i64>,
    pub(crate) memory: Vec<i64>,
    /// Virtual registers for the compiled backend. Never carries live
    /// values across runs: every register is written before it is read
    /// within its basic block (a compile-time property).
    pub(crate) regs: Vec<i64>,
    /// Host-call argument marshalling buffer (compiled backend).
    pub(crate) host_args: Vec<i64>,
    /// Block-exit value staging buffer (compiled backend).
    pub(crate) exit_buf: Vec<i64>,
}

impl VmState {
    /// Sizes the buffers for `limits` (idempotent, allocation-free once
    /// grown) and zeroes locals and memory for a fresh interpreter run.
    pub(crate) fn reset_full(&mut self, limits: &VmLimits) {
        self.stack.clear();
        self.stack.reserve(limits.max_stack);
        self.locals.clear();
        self.locals.resize(limits.locals, 0);
        self.memory.clear();
        self.memory.resize(limits.memory_cells, 0);
    }
}

/// What one interpreter activation produced: the run's result plus the
/// gas value to publish as `last_gas_used`, **when the seed interpreter
/// would publish one**. The seed only records gas at specific sites
/// (return, gas/stack exhaustion, host-call failures); other traps
/// leave the previous run's value in place, and that quirk is part of
/// the observable contract the compiled backend must reproduce.
pub(crate) struct Outcome {
    pub(crate) result: Result<i64, VmError>,
    pub(crate) gas_record: Option<u64>,
}

/// The interpreter core, resumable from any `(pc, gas)` over explicit
/// machine state. `Vm::run` starts it at `(0, 0)` on freshly reset
/// state; the compiled backend deopts into it from a basic-block
/// boundary with the state materialized by the fast path.
pub(crate) fn interp(
    limits: &VmLimits,
    st: &mut VmState,
    instrs: &[Instr],
    args: &[i64],
    host: &mut dyn Host,
    mut pc: usize,
    mut gas: u64,
) -> Outcome {
    macro_rules! done {
        ($r:expr) => {
            return Outcome {
                result: $r,
                gas_record: None,
            }
        };
    }
    macro_rules! done_rec {
        ($r:expr, $g:expr) => {
            return Outcome {
                result: $r,
                gas_record: Some($g),
            }
        };
    }
    macro_rules! pop {
        () => {
            match st.stack.pop() {
                Some(v) => v,
                None => done!(Err(VmError::StackUnderflow)),
            }
        };
    }
    macro_rules! push {
        ($v:expr) => {{
            if st.stack.len() >= limits.max_stack {
                done_rec!(Err(VmError::StackOverflow), gas);
            }
            st.stack.push($v);
        }};
    }
    macro_rules! binop {
        ($f:expr) => {{
            let b = pop!();
            let a = pop!();
            push!($f(a, b));
        }};
    }

    while pc < instrs.len() {
        gas += 1;
        if gas > limits.max_gas {
            done_rec!(Err(VmError::OutOfGas), gas);
        }
        let instr = instrs[pc];
        pc += 1;
        match instr {
            Instr::Push(v) => push!(v),
            Instr::Pop => {
                pop!();
            }
            Instr::Dup => {
                let v = match st.stack.last() {
                    Some(v) => *v,
                    None => done!(Err(VmError::StackUnderflow)),
                };
                push!(v);
            }
            Instr::Swap => {
                let b = pop!();
                let a = pop!();
                push!(b);
                push!(a);
            }
            Instr::Arg(i) => {
                let v = match args.get(i as usize) {
                    Some(v) => *v,
                    None => done!(Err(VmError::BadArg(i))),
                };
                push!(v);
            }
            Instr::Add => binop!(|a: i64, b: i64| a.wrapping_add(b)),
            Instr::Sub => binop!(|a: i64, b: i64| a.wrapping_sub(b)),
            Instr::Mul => binop!(|a: i64, b: i64| a.wrapping_mul(b)),
            Instr::Div => {
                let b = pop!();
                let a = pop!();
                let v = match a.checked_div(b) {
                    Some(v) => v,
                    None => done!(Err(VmError::DivideByZero)),
                };
                push!(v);
            }
            Instr::Mod => {
                let b = pop!();
                let a = pop!();
                let v = match a.checked_rem(b) {
                    Some(v) => v,
                    None => done!(Err(VmError::DivideByZero)),
                };
                push!(v);
            }
            Instr::Neg => {
                let a = pop!();
                push!(a.wrapping_neg());
            }
            Instr::Min => binop!(|a: i64, b: i64| a.min(b)),
            Instr::Max => binop!(|a: i64, b: i64| a.max(b)),
            Instr::Eq => binop!(|a, b| i64::from(a == b)),
            Instr::Ne => binop!(|a, b| i64::from(a != b)),
            Instr::Lt => binop!(|a, b| i64::from(a < b)),
            Instr::Le => binop!(|a, b| i64::from(a <= b)),
            Instr::Gt => binop!(|a, b| i64::from(a > b)),
            Instr::Ge => binop!(|a, b| i64::from(a >= b)),
            Instr::And => binop!(|a, b| i64::from(a != 0 && b != 0)),
            Instr::Or => binop!(|a, b| i64::from(a != 0 || b != 0)),
            Instr::Not => {
                let a = pop!();
                push!(i64::from(a == 0));
            }
            Instr::Jmp(t) => pc = t as usize,
            Instr::Jz(t) => {
                if pop!() == 0 {
                    pc = t as usize;
                }
            }
            Instr::Jnz(t) => {
                if pop!() != 0 {
                    pc = t as usize;
                }
            }
            Instr::Load(i) => {
                let v = match st.locals.get(i as usize) {
                    Some(v) => *v,
                    None => done!(Err(VmError::BadLocal(i))),
                };
                push!(v);
            }
            Instr::Store(i) => {
                let v = pop!();
                match st.locals.get_mut(i as usize) {
                    Some(slot) => *slot = v,
                    None => done!(Err(VmError::BadLocal(i))),
                }
            }
            Instr::MemLoad => {
                let addr = pop!();
                let v = match usize::try_from(addr)
                    .ok()
                    .and_then(|a| st.memory.get(a).copied())
                {
                    Some(v) => v,
                    None => done!(Err(VmError::BadAddress(addr))),
                };
                push!(v);
            }
            Instr::MemStore => {
                let value = pop!();
                let addr = pop!();
                match usize::try_from(addr)
                    .ok()
                    .and_then(|a| st.memory.get_mut(a))
                {
                    Some(cell) => *cell = value,
                    None => done!(Err(VmError::BadAddress(addr))),
                }
            }
            Instr::HostCall { idx, argc } => {
                // Gas-charge host calls more heavily: crossing the
                // boundary is the expensive part.
                gas += 9;
                let argc = argc as usize;
                if st.stack.len() < argc {
                    done_rec!(Err(VmError::StackUnderflow), gas);
                }
                let split = st.stack.len() - argc;
                st.host_args.clear();
                st.host_args.extend_from_slice(&st.stack[split..]);
                st.stack.truncate(split);
                match host.call(idx, &st.host_args) {
                    Ok(v) => push!(v),
                    Err(m) => {
                        let e = if m.starts_with("no host function") {
                            VmError::UnknownHostFn(idx)
                        } else {
                            VmError::HostError(m)
                        };
                        done_rec!(Err(e), gas);
                    }
                }
            }
            Instr::Ret => match st.stack.pop() {
                Some(v) => done_rec!(Ok(v), gas),
                None => done_rec!(Err(VmError::StackUnderflow), gas),
            },
        }
    }
    Outcome {
        result: Err(VmError::NoReturn),
        gas_record: Some(gas),
    }
}

/// The virtual machine. Reusable across runs; each [`Vm::run`] starts
/// from a clean state without reallocating (stack, locals, and memory
/// are reset in place).
#[derive(Debug, Clone)]
pub struct Vm {
    pub(crate) limits: VmLimits,
    /// Gas consumed by the most recent run (telemetry for E14).
    pub(crate) last_gas_used: u64,
    pub(crate) state: VmState,
    /// Runs completed entirely on the compiled fast path.
    pub(crate) runs_compiled: u64,
    /// Runs executed (wholly or partially) by the interpreter: plain
    /// `Vm::run` calls plus compiled runs that deopted.
    pub(crate) runs_interp: u64,
}

impl Vm {
    /// Creates a VM with the given limits. Buffers are allocated once
    /// here; subsequent runs are allocation-free.
    pub fn new(limits: VmLimits) -> Self {
        let mut state = VmState::default();
        state.reset_full(&limits);
        Self {
            limits,
            last_gas_used: 0,
            state,
            runs_compiled: 0,
            runs_interp: 0,
        }
    }

    /// Gas consumed by the most recent `run`.
    pub fn last_gas_used(&self) -> u64 {
        self.last_gas_used
    }

    /// The limits this VM enforces.
    pub fn limits(&self) -> VmLimits {
        self.limits
    }

    /// Resets the gas-telemetry readback to zero, as if the VM were
    /// freshly constructed. Embedders that used to build a new VM per
    /// invocation (and now reuse one) call this to keep
    /// [`Vm::last_gas_used`] readings identical to the old behaviour
    /// for traps that do not record gas.
    pub fn clear_last_gas(&mut self) {
        self.last_gas_used = 0;
    }

    /// Drains the `(compiled, interpreted)` run counters accumulated
    /// since the last call — embedder telemetry for
    /// `extvm.compiled_runs` / `extvm.interp_runs`.
    pub fn take_run_counts(&mut self) -> (u64, u64) {
        let out = (self.runs_compiled, self.runs_interp);
        self.runs_compiled = 0;
        self.runs_interp = 0;
        out
    }

    /// Executes `program` with invocation `args` against `host`,
    /// returning the program's result value.
    pub fn run(
        &mut self,
        program: &Program,
        args: &[i64],
        host: &mut dyn Host,
    ) -> Result<i64, VmError> {
        self.runs_interp += 1;
        let limits = self.limits;
        self.state.reset_full(&limits);
        let out = interp(&limits, &mut self.state, program.instrs(), args, host, 0, 0);
        if let Some(g) = out.gas_record {
            self.last_gas_used = g;
        }
        out.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Instr::*;

    fn run(instrs: Vec<Instr>, args: &[i64]) -> Result<i64, VmError> {
        let p = Program::new(instrs).unwrap();
        Vm::new(VmLimits::default()).run(&p, args, &mut NullHost)
    }

    #[test]
    fn arithmetic() {
        assert_eq!(run(vec![Push(2), Push(3), Add, Ret], &[]), Ok(5));
        assert_eq!(run(vec![Push(10), Push(3), Sub, Ret], &[]), Ok(7));
        assert_eq!(run(vec![Push(6), Push(7), Mul, Ret], &[]), Ok(42));
        assert_eq!(run(vec![Push(7), Push(2), Div, Ret], &[]), Ok(3));
        assert_eq!(run(vec![Push(7), Push(2), Mod, Ret], &[]), Ok(1));
        assert_eq!(run(vec![Push(5), Neg, Ret], &[]), Ok(-5));
        assert_eq!(run(vec![Push(3), Push(9), Min, Ret], &[]), Ok(3));
        assert_eq!(run(vec![Push(3), Push(9), Max, Ret], &[]), Ok(9));
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(run(vec![Push(1), Push(1), Eq, Ret], &[]), Ok(1));
        assert_eq!(run(vec![Push(1), Push(2), Lt, Ret], &[]), Ok(1));
        assert_eq!(run(vec![Push(2), Push(1), Le, Ret], &[]), Ok(0));
        assert_eq!(run(vec![Push(1), Push(0), And, Ret], &[]), Ok(0));
        assert_eq!(run(vec![Push(1), Push(0), Or, Ret], &[]), Ok(1));
        assert_eq!(run(vec![Push(0), Not, Ret], &[]), Ok(1));
    }

    #[test]
    fn args_and_locals() {
        assert_eq!(run(vec![Arg(0), Arg(1), Add, Ret], &[40, 2]), Ok(42));
        assert_eq!(
            run(vec![Push(9), Store(3), Load(3), Dup, Add, Ret], &[]),
            Ok(18)
        );
        assert_eq!(run(vec![Arg(5), Ret], &[1]), Err(VmError::BadArg(5)));
    }

    #[test]
    fn memory_bounds_checked() {
        assert_eq!(
            run(
                vec![Push(0), Push(99), MemStore, Push(0), MemLoad, Ret],
                &[]
            ),
            Ok(99)
        );
        assert_eq!(
            run(vec![Push(-1), MemLoad, Ret], &[]),
            Err(VmError::BadAddress(-1))
        );
        assert_eq!(
            run(vec![Push(1 << 40), Push(0), MemStore, Push(0), Ret], &[]),
            Err(VmError::BadAddress(1 << 40))
        );
    }

    #[test]
    fn infinite_loop_traps_on_gas() {
        // 0: jmp 0.
        let p = Program::new(vec![Jmp(0)]).unwrap();
        let mut vm = Vm::new(VmLimits {
            max_gas: 1_000,
            ..Default::default()
        });
        assert_eq!(vm.run(&p, &[], &mut NullHost), Err(VmError::OutOfGas));
        assert!(vm.last_gas_used() >= 1_000);
    }

    #[test]
    fn stack_bomb_traps_on_overflow() {
        // 0: push 1; 1: jmp 0 — grows the stack forever.
        let p = Program::new(vec![Push(1), Jmp(0)]).unwrap();
        let mut vm = Vm::new(VmLimits {
            max_stack: 32,
            ..Default::default()
        });
        assert_eq!(vm.run(&p, &[], &mut NullHost), Err(VmError::StackOverflow));
    }

    #[test]
    fn underflow_trapped() {
        assert_eq!(run(vec![Add, Ret], &[]), Err(VmError::StackUnderflow));
        assert_eq!(run(vec![Ret], &[]), Err(VmError::StackUnderflow));
        assert_eq!(run(vec![Pop, Ret], &[]), Err(VmError::StackUnderflow));
    }

    #[test]
    fn divide_by_zero_trapped() {
        assert_eq!(
            run(vec![Push(1), Push(0), Div, Ret], &[]),
            Err(VmError::DivideByZero)
        );
        assert_eq!(
            run(vec![Push(1), Push(0), Mod, Ret], &[]),
            Err(VmError::DivideByZero)
        );
        // i64::MIN / -1 overflows; checked_div catches it.
        assert_eq!(
            run(vec![Push(i64::MIN), Push(-1), Div, Ret], &[]),
            Err(VmError::DivideByZero)
        );
    }

    #[test]
    fn no_return_trapped() {
        assert_eq!(run(vec![Push(1)], &[]), Err(VmError::NoReturn));
    }

    #[test]
    fn loops_compute() {
        // sum 1..=n with n = arg0:
        // local0 = acc, local1 = i.
        let p = Program::new(vec![
            Arg(0),   // 0
            Store(1), // 1
            Load(1),  // 2
            Jz(13),   // 3
            Load(0),  // 4
            Load(1),  // 5
            Add,      // 6
            Store(0), // 7
            Load(1),  // 8
            Push(1),  // 9
            Sub,      // 10
            Store(1), // 11
            Jmp(2),   // 12
            Load(0),  // 13
            Ret,      // 14
        ])
        .unwrap();
        let mut vm = Vm::new(VmLimits::default());
        assert_eq!(vm.run(&p, &[10], &mut NullHost), Ok(55));
        assert_eq!(vm.run(&p, &[0], &mut NullHost), Ok(0));
        assert_eq!(vm.run(&p, &[100], &mut NullHost), Ok(5050));
    }

    #[test]
    fn host_calls_work() {
        struct Doubler;
        impl Host for Doubler {
            fn call(&mut self, idx: u8, args: &[i64]) -> Result<i64, String> {
                match idx {
                    0 => Ok(args.iter().sum::<i64>() * 2),
                    _ => Err(format!("no host function {idx}")),
                }
            }
        }
        let p = Program::new(vec![Push(3), Push(4), HostCall { idx: 0, argc: 2 }, Ret]).unwrap();
        let mut vm = Vm::new(VmLimits::default());
        assert_eq!(vm.run(&p, &[], &mut Doubler), Ok(14));

        let bad = Program::new(vec![HostCall { idx: 9, argc: 0 }, Ret]).unwrap();
        assert_eq!(
            vm.run(&bad, &[], &mut Doubler),
            Err(VmError::UnknownHostFn(9))
        );
    }

    #[test]
    fn host_errors_propagate() {
        struct Failing;
        impl Host for Failing {
            fn call(&mut self, _idx: u8, _args: &[i64]) -> Result<i64, String> {
                Err("backend unavailable".to_string())
            }
        }
        let p = Program::new(vec![HostCall { idx: 0, argc: 0 }, Ret]).unwrap();
        let r = Vm::new(VmLimits::default()).run(&p, &[], &mut Failing);
        assert!(matches!(r, Err(VmError::HostError(m)) if m.contains("backend")));
    }

    #[test]
    fn runs_are_independent() {
        // Locals and memory must not leak between runs.
        let store = Program::new(vec![Push(0), Push(77), MemStore, Push(1), Ret]).unwrap();
        let load = Program::new(vec![Push(0), MemLoad, Ret]).unwrap();
        let mut vm = Vm::new(VmLimits::default());
        assert_eq!(vm.run(&store, &[], &mut NullHost), Ok(1));
        assert_eq!(
            vm.run(&load, &[], &mut NullHost),
            Ok(0),
            "fresh memory per run"
        );
    }

    #[test]
    fn locals_do_not_leak_between_runs() {
        // A tenant writing local 7 must never be observable by the next
        // run on the same (reused) VM — in-place reset must zero it.
        let store = Program::new(vec![Push(41), Store(7), Push(1), Ret]).unwrap();
        let load = Program::new(vec![Load(7), Ret]).unwrap();
        let mut vm = Vm::new(VmLimits::default());
        assert_eq!(vm.run(&store, &[], &mut NullHost), Ok(1));
        assert_eq!(vm.run(&load, &[], &mut NullHost), Ok(0), "fresh locals");
    }

    #[test]
    fn stack_residue_cleared_after_trap() {
        // A trap can leave operands on the stack; the next run must not
        // see them. `ret` on an empty stack underflows iff the previous
        // run's residue was cleared.
        let litter = Program::new(vec![Push(1), Push(2), Push(3), Arg(9), Ret]).unwrap();
        let bare_ret = Program::new(vec![Ret]).unwrap();
        let mut vm = Vm::new(VmLimits::default());
        assert_eq!(vm.run(&litter, &[], &mut NullHost), Err(VmError::BadArg(9)));
        assert_eq!(
            vm.run(&bare_ret, &[], &mut NullHost),
            Err(VmError::StackUnderflow),
            "operand stack reset between runs"
        );
    }

    #[test]
    fn gas_accounting_reported() {
        let p = Program::new(vec![Push(1), Push(2), Add, Ret]).unwrap();
        let mut vm = Vm::new(VmLimits::default());
        vm.run(&p, &[], &mut NullHost).unwrap();
        assert_eq!(vm.last_gas_used(), 4);
    }

    #[test]
    fn run_counters_drain() {
        let p = Program::new(vec![Push(1), Ret]).unwrap();
        let mut vm = Vm::new(VmLimits::default());
        vm.run(&p, &[], &mut NullHost).unwrap();
        vm.run(&p, &[], &mut NullHost).unwrap();
        assert_eq!(vm.take_run_counts(), (0, 2));
        assert_eq!(vm.take_run_counts(), (0, 0), "drained");
    }
}
