//! # reml-runtime — runtime programs, buffer pool, and the CP executors
//!
//! The compiler (reml-compiler) lowers DML into a *runtime program*: a tree
//! of program blocks mirroring the statement-block hierarchy, where each
//! generic block holds a list of executable instructions — in-memory CP
//! instructions and MR-job instructions (§2.1). This crate defines that
//! representation and provides:
//!
//! * [`bufferpool`] — SystemML-style buffer pool: live variables are held
//!   in memory up to the CP memory budget; overflow evicts to (simulated)
//!   local disk, and the eviction/restore accounting is what makes small
//!   CP heaps measurably slower than the analytic cost model predicts —
//!   the paper's named source of suboptimality. The executors pool shared
//!   matrices (`Arc<Matrix>`, so a variable copy is a refcount bump) and
//!   count bytes per name; `reml-sim` runs the same pool over byte sizes.
//!   §4.1 AM migration is one pool operation, [`BufferPool::migrate`].
//! * [`hdfs`] — an in-process stand-in for HDFS: named persistent datasets
//!   plus exported intermediates, with byte accounting.
//! * `ops` — the CP op-semantics table: one `eval_op` stating what every
//!   opcode does, generic over where a walker keeps its variables. Both
//!   executors below dispatch through it.
//! * [`vm`] — the bytecode VM: programs lowered once to flat, slot-indexed
//!   code with fused elementwise chains; the executor everything runs on.
//! * [`executor`] — the reference tree walker: executes runtime programs
//!   block by block, resolving operands by name (CP instructions through
//!   the shared table; MR jobs by running their map and reduce operators
//!   in-process). It is what the differential tests compare the VM
//!   against, and has no caller outside tests.
//!
//! Execution here provides *correct values*, so examples compute real
//! regression models; wall-clock behaviour of distributed execution is
//! modeled separately by `reml-sim`.
//!
//! Dynamic recompilation hooks: generic blocks carry `requires_recompile`;
//! both executors call a [`executor::RecompileHook`] before running such a
//! block, enabling the §4 runtime adaptation loop. The hook asks for the
//! actual sizes of the live variables it reads, by name.

#![forbid(unsafe_code)]

pub mod bufferpool;
pub mod executor;
pub mod flops;
pub mod hash;
pub mod hdfs;
pub mod instructions;
mod ops;
pub mod program;
pub mod value;
pub mod vm;

pub use bufferpool::{BufferPool, BufferPoolStats, MigrationReport, PoolValue};
pub use executor::{ExecStats, Executor, MemObservation, RecompileHook, MAX_LOOP_ITERATIONS};
pub use hdfs::HdfsStore;
pub use instructions::{
    CpInstruction, Instruction, MrJobInstruction, MrLocation, MrOperator, OpCode,
};
pub use program::{Predicate, RtBlock, RuntimeProgram};
pub use value::{Operand, ScalarValue};
pub use vm::{lower_program, VmExecutor, VmLowerOptions, VmProgram};
