//! Flat bytecode program representation.
//!
//! A [`VmProgram`] is the lowered form of a
//! [`RuntimeProgram`](crate::program::RuntimeProgram): every variable
//! name and literal has been resolved once at load time into a compact
//! `u32` index, so the executor's hot loop never hashes a variable name.
//! Instruction side data that only matters off the hot path (mnemonics,
//! compile-time characteristics, memory bounds) lives in a separate
//! [`InstrMeta`] table referenced by index.

use std::sync::Arc;

use reml_lang::BlockId;
use reml_matrix::{BinaryOp, UnaryOp};

use crate::hash::FxHashMap;
use crate::instructions::OpCode;
use crate::value::ScalarValue;

/// Interned variable names: a bijection between names and dense `u32`
/// symbol ids. Symbol ids index both the VM's scalar frame and its
/// preresolved buffer-pool slot table.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    /// Names by symbol id; the index shares each name's allocation.
    names: Vec<Arc<str>>,
    index: FxHashMap<Arc<str>, u32>,
    sealed: bool,
}

impl SymbolTable {
    /// Intern a name, returning its stable symbol id.
    ///
    /// Looking up an already-interned name is always allowed; appending a
    /// *new* name to a sealed table is a lowering bug (the executor must
    /// never grow a program's table behind its back) and panics in debug
    /// builds. Fragment lowering extends via [`SymbolTable::extend_clone`].
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        debug_assert!(
            !self.sealed,
            "intern of new name {name:?} on a sealed symbol table"
        );
        let i = self.names.len() as u32;
        let name: Arc<str> = name.into();
        self.names.push(Arc::clone(&name));
        self.index.insert(name, i);
        i
    }

    /// Freeze the table: interning any *new* name afterwards panics in
    /// debug builds. Called at the end of lowering.
    pub fn seal(&mut self) {
        self.sealed = true;
    }

    /// Whether the table has been sealed.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// An unsealed clone — the one sanctioned way to extend a sealed
    /// program table (fragment lowering keeps existing ids stable and
    /// appends fragment-local names to the copy).
    pub fn extend_clone(&self) -> SymbolTable {
        SymbolTable {
            names: self.names.clone(),
            index: self.index.clone(),
            sealed: false,
        }
    }

    /// The name of a symbol id.
    pub fn name(&self, sym: u32) -> &str {
        &self.names[sym as usize]
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no symbols are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A preresolved instruction operand: a variable slot or a literal from
/// the constant pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg {
    /// Variable by symbol id (scalar frame index == pool-slot index).
    Slot(u32),
    /// Literal by constant-pool index.
    Const(u32),
}

/// VM operation: a CP opcode — the one [`OpCode`] vocabulary the
/// compiler emits and the cost model prices, carried verbatim — or one of
/// the two VM-only forms, fused elementwise chains and MR jobs by table
/// index.
#[derive(Debug, Clone, PartialEq)]
pub enum VmOp {
    /// A CP opcode, executed through the shared op-semantics table.
    Cp(OpCode),
    /// Fused elementwise chain ([`FusedSpec`] by table index).
    Fused {
        /// Index into the program's fused-spec table.
        spec: u32,
    },
    /// MR-job instruction ([`VmMrJob`] by table index).
    MrJob {
        /// Index into the program's MR-job table.
        job: u32,
    },
}

/// One flat VM instruction: operation, preresolved operands, output
/// symbol, and a side-table index for off-hot-path metadata.
#[derive(Debug, Clone)]
pub struct VmInstr {
    /// Operation.
    pub op: VmOp,
    /// Operands in positional order.
    pub args: Box<[Arg]>,
    /// Output symbol id (None for sinks).
    pub out: Option<u32>,
    /// Index into the metadata side table.
    pub meta: u32,
}

/// Off-hot-path instruction metadata: everything the executor only needs
/// for tracing and memory observation, precomputed at lowering so the hot
/// loop allocates no strings.
#[derive(Debug, Clone)]
pub struct InstrMeta {
    /// Opcode mnemonic; fused chains use the stable composite form
    /// `fused(m1,m2,...)`, the name of their `vm.op.*` histogram. Shared
    /// by every instruction of a program with the same mnemonic.
    pub mnemonic: Arc<str>,
    /// Precomputed histogram name `vm.op.<mnemonic>`, shared likewise.
    pub metric: Arc<str>,
    /// CP-instruction count (1, or a fused chain's length) so
    /// `ExecStats::cp_instructions` matches the tree walker exactly.
    pub cp_count: u64,
    /// The compile-time side of a memory observation: `Some` exactly for
    /// a CP instruction outside an MR job. Fused chains and MR jobs are
    /// not observed, so an observed run lowers unfused.
    pub observe: Option<ObserveMeta>,
}

/// What a memory observation of one CP instruction compares against,
/// precomputed at lowering.
#[derive(Debug, Clone)]
pub struct ObserveMeta {
    /// Compile-time operand+output size estimate ([`CpInstruction::predicted_bytes`](crate::instructions::CpInstruction::predicted_bytes)),
    /// `None` if any size was unknown.
    pub predicted_bytes: Option<u64>,
    /// Sound memory bound from the sizebound analysis.
    pub bound_bytes: Option<u64>,
    /// Sorted distinct symbols whose pool entries count toward the
    /// observation's `actual_bytes` (operand vars + output).
    pub touched: Box<[u32]>,
    /// Predicted FLOPs from the analytic model
    /// ([`flops::instruction_flops`](crate::flops::instruction_flops)),
    /// `None` when operand sizes were unknown at compile time.
    pub predicted_flops: Option<f64>,
}

/// Operand of one step inside a fused chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedArg {
    /// The value flowing from the previous step of the chain.
    Flow,
    /// External variable by symbol id.
    Slot(u32),
    /// Literal by constant-pool index.
    Const(u32),
}

/// Operation kind of one fused step (the four fusible elementwise forms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedOpKind {
    /// Matrix ∘ matrix.
    MM(BinaryOp),
    /// Matrix ∘ scalar.
    MS(BinaryOp),
    /// Scalar ∘ matrix.
    SM(BinaryOp),
    /// Unary.
    Unary(UnaryOp),
}

/// One step of a fused chain; `args` keeps the original operand order
/// (MM: `[a, b]`, MS: `[m, s]`, SM: `[s, m]`, Unary: `[m]`).
#[derive(Debug, Clone)]
pub struct FusedStep {
    /// Operation kind.
    pub kind: FusedOpKind,
    /// Operands in original positional order.
    pub args: Box<[FusedArg]>,
}

/// A fused elementwise chain: ≥2 shape-preserving steps whose
/// intermediates were compiler temporaries with no other uses. All
/// matrices in the chain share one compile-time shape, so the kernel runs
/// over a single flat output buffer with one allocation.
#[derive(Debug, Clone)]
pub struct FusedSpec {
    /// Steps in execution order.
    pub steps: Vec<FusedStep>,
    /// Compile-time row count of every matrix in the chain.
    pub rows: usize,
    /// Compile-time column count.
    pub cols: usize,
}

/// An MR job lowered for the VM: operators as flat instructions plus the
/// preresolved output exports.
#[derive(Debug, Clone)]
pub struct VmMrJob {
    /// Map then reduce operators, lowered.
    pub ops: Vec<VmInstr>,
    /// Job outputs by symbol id, each exported to HDFS as `tmp/<name>`.
    pub outputs: Vec<u32>,
}

/// A compiled predicate: straight-line code plus the result symbol.
#[derive(Debug, Clone)]
pub struct VmPredicate {
    /// Instructions evaluating the predicate.
    pub code: Vec<VmInstr>,
    /// Symbol holding the result.
    pub result: u32,
}

/// One VM program block, mirroring [`RtBlock`](crate::program::RtBlock).
#[derive(Debug, Clone)]
pub enum VmBlock {
    /// Straight-line code (recompilation granularity).
    Generic {
        /// Source statement block (recompile key).
        source: BlockId,
        /// Lowered instructions.
        code: Vec<VmInstr>,
        /// Whether the recompile hook runs before this block.
        requires_recompile: bool,
    },
    /// Conditional.
    If {
        /// Predicate.
        pred: VmPredicate,
        /// Then branch.
        then_blocks: Vec<VmBlock>,
        /// Else branch.
        else_blocks: Vec<VmBlock>,
    },
    /// While loop.
    While {
        /// Predicate, re-evaluated each iteration.
        pred: VmPredicate,
        /// Body.
        body: Vec<VmBlock>,
    },
    /// For loop.
    For {
        /// Loop-variable symbol.
        var: u32,
        /// Range start.
        from: VmPredicate,
        /// Range end.
        to: VmPredicate,
        /// Body.
        body: Vec<VmBlock>,
    },
}

/// Lowering statistics (also mirrored into the `vm.fusion.*` trace
/// counters when a recorder is installed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmLowerStats {
    /// Total VM instructions emitted (fused chains count once).
    pub instructions: usize,
    /// Fused chains formed.
    pub fused_groups: usize,
    /// CP instructions eliminated by fusion (chain length − 1 each).
    pub fused_ops_eliminated: usize,
}

/// A complete lowered VM program.
#[derive(Debug, Clone)]
pub struct VmProgram {
    /// Interned variable names.
    pub symbols: SymbolTable,
    /// Literal pool.
    pub consts: Vec<ScalarValue>,
    /// Instruction metadata side table.
    pub metas: Vec<InstrMeta>,
    /// Fused-chain specs.
    pub fused: Vec<FusedSpec>,
    /// Lowered MR jobs.
    pub mr_jobs: Vec<VmMrJob>,
    /// Top-level blocks in execution order.
    pub blocks: Vec<VmBlock>,
    /// Whether peephole fusion ran (recompiled fragments follow suit).
    pub fused_enabled: bool,
    /// Lowering statistics.
    pub stats: VmLowerStats,
}

/// Borrowed view of the lookup tables an instruction executes against —
/// the program's own tables, or a recompiled fragment's.
#[derive(Clone, Copy)]
pub(crate) struct Tables<'a> {
    pub(crate) symbols: &'a SymbolTable,
    pub(crate) consts: &'a [ScalarValue],
    pub(crate) metas: &'a [InstrMeta],
    pub(crate) fused: &'a [FusedSpec],
    pub(crate) mr_jobs: &'a [VmMrJob],
}

impl VmProgram {
    pub(crate) fn tables(&self) -> Tables<'_> {
        Tables {
            symbols: &self.symbols,
            consts: &self.consts,
            metas: &self.metas,
            fused: &self.fused,
            mr_jobs: &self.mr_jobs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_table_interns_stably() {
        let mut t = SymbolTable::default();
        let a = t.intern("X");
        let b = t.intern("y");
        assert_eq!(t.intern("X"), a);
        assert_ne!(a, b);
        assert_eq!(t.name(a), "X");
        assert_eq!(t.name(b), "y");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn sealed_table_allows_lookups_and_extend_clone() {
        let mut t = SymbolTable::default();
        let a = t.intern("X");
        t.seal();
        assert!(t.is_sealed());
        // Re-interning an existing name is a lookup, not an append.
        assert_eq!(t.intern("X"), a);
        let mut ext = t.extend_clone();
        assert!(!ext.is_sealed());
        let b = ext.intern("fresh");
        assert_eq!(ext.name(b), "fresh");
        assert_eq!(ext.intern("X"), a);
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sealed symbol table")]
    fn sealed_table_rejects_new_names_in_debug() {
        let mut t = SymbolTable::default();
        t.intern("X");
        t.seal();
        t.intern("Y");
    }
}
