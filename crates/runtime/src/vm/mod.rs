//! # Bytecode VM: flat programs, preresolved operands, fused kernels
//!
//! The reference tree walker in [`crate::executor`] resolves every
//! operand by name on every execution — a hash lookup per operand, and a
//! freshly formatted metric name per instruction. Inside the iterative
//! loops that dominate the paper's workloads (linear regression, L2-SVM,
//! GLM...) that overhead is paid thousands of times for identical
//! resolutions.
//!
//! This module lowers [`RuntimeProgram`](crate::program::RuntimeProgram)
//! trees once into a flat [`VmProgram`]:
//!
//! * every variable name is interned into a symbol table at lowering;
//!   execution indexes a scalar frame and a preresolved
//!   [`BufferPool`](crate::bufferpool::BufferPool) slot table — no
//!   per-instruction hashing;
//! * matrix operands are read by reference (`touch_slot` + `peek_slot`);
//! * per-instruction metadata (mnemonic, `vm.op.*` metric name, memory
//!   prediction, touched-variable set) is precomputed into a side table,
//!   so the hot loop allocates no strings;
//! * a peephole pass (the private `fuse` module) collapses chains of
//!   elementwise operations over single-use temporaries into one fused
//!   instruction executed over a single flat buffer with one output
//!   allocation.
//!
//! There is one opcode vocabulary: a lowered CP instruction carries its
//! [`OpCode`](crate::instructions::OpCode) verbatim inside [`VmOp::Cp`];
//! only fused chains and MR jobs are VM-only forms. What each opcode does
//! is shared with the tree walker (the crate's `ops::eval_op` table,
//! dispatching on `OpCode`, instantiated here over slots). The tree walker
//! remains the *differential reference* for everything this module adds
//! around that table — lowering, slot frames, fragments, fusion: the VM
//! is bit-identical on values (printed output, scalars, matrices
//! including their dense/sparse representation, HDFS contents) and
//! `ExecStats`, which `tests/vm_differential.rs` and the fusion property
//! test enforce on the paper's scripts and on randomly generated DML.

pub mod exec;
mod fuse;
pub mod lower;
pub mod program;
pub mod verify;

pub use exec::VmExecutor;
pub use lower::{lower_fragment, lower_program, VmFragment, VmLowerOptions};
pub use program::{
    Arg, FusedArg, FusedOpKind, FusedSpec, FusedStep, InstrMeta, ObserveMeta, SymbolTable, VmBlock,
    VmInstr, VmLowerStats, VmMrJob, VmOp, VmPredicate, VmProgram,
};
pub use verify::{install_verifier, verifier_installed};
