//! Executable instructions: CP (in-memory) and MR-job instructions.

use std::sync::Arc;

use reml_matrix::{AggOp, BinaryOp, MatrixCharacteristics, UnaryOp};

use crate::value::Operand;

/// Prefix of compiler-generated temporary variable names. The compiler's
/// DAG lowering names intra-block intermediates with this prefix, and the
/// VM's peephole fusion pass treats single-use variables carrying it as
/// elidable (never observed outside the block that defines them).
pub const TEMP_PREFIX: &str = "_mVar";

/// Operation codes shared by CP instructions and MR operators.
///
/// The same vocabulary serves both execution (the executor dispatches on
/// it) and costing (the cost model derives FLOP counts and IO sizes from
/// the opcode plus operand characteristics).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OpCode {
    /// Read a persistent dataset from HDFS into a variable.
    PersistentRead {
        /// HDFS path/name of the dataset.
        path: String,
    },
    /// Write a variable to HDFS.
    PersistentWrite {
        /// HDFS path/name to write.
        path: String,
    },
    /// `matrix(value, rows, cols)` — constant matrix generation.
    DataGenConst,
    /// `seq(from, to[, by])` — sequence generation.
    DataGenSeq,
    /// `rand(rows, cols, sparsity, seed)` — random generation.
    DataGenRand,
    /// Matrix multiply `A %*% B`.
    MatMult,
    /// Transpose-left matrix multiply `t(A) %*% B` (fused physical
    /// operator, Appendix B's transpose-mm rewrite): executed by
    /// `Matrix::tmatmult`, which streams the rows of `A` and `B` without
    /// materializing `t(A)` unless both operands are CSR.
    MatMultTransLeft,
    /// Transpose-self multiply `t(X) %*% X` (fused physical operator).
    Tsmm,
    /// Fused matrix-multiply chain `t(X) %*% (X %*% v)` (MapMMChain):
    /// executed as `X.tmatmult(&X.matmult(v))`, so `t(X)` is never
    /// materialized; the intermediate `X %*% v` is.
    MmChain,
    /// Dense linear solve.
    Solve,
    /// Transpose.
    Transpose,
    /// Diagonal extract/expand.
    Diag,
    /// Elementwise binary over matrices/vectors (broadcast per DML rules).
    BinaryMM(BinaryOp),
    /// Matrix (left) op scalar (right).
    BinaryMS(BinaryOp),
    /// Scalar (left) op matrix (right).
    BinarySM(BinaryOp),
    /// Scalar op scalar.
    BinarySS(BinaryOp),
    /// Elementwise unary on a matrix.
    UnaryM(UnaryOp),
    /// Unary on a scalar.
    UnaryS(UnaryOp),
    /// Aggregation (sum, rowSums, ...) — scalar or vector result.
    Agg(AggOp),
    /// `table(seq(1, nrow(y)), y)` contingency table.
    TableSeq,
    /// Right indexing; operands: matrix, row_lo, row_hi, col_lo, col_hi
    /// (1-based inclusive, scalar operands).
    RightIndex,
    /// Left indexing; operands: target, value, row_lo, row_hi, col_lo,
    /// col_hi.
    LeftIndex,
    /// Horizontal append (cbind).
    Append,
    /// Vertical append (rbind).
    AppendR,
    /// `nrow(X)` — scalar result.
    NRow,
    /// `ncol(X)` — scalar result.
    NCol,
    /// Cast a 1×1 matrix to scalar.
    CastScalar,
    /// Cast a scalar to a 1×1 matrix.
    CastMatrix,
    /// Copy/rename a value into a new variable.
    Assign,
    /// String concatenation (DML `+` over strings).
    Concat,
    /// Print to stdout (captured by the executor).
    Print,
    /// Remove a variable (end-of-block cleanup).
    RmVar,
}

impl OpCode {
    /// Whether this opcode is an elementwise matrix op the VM's peephole
    /// pass may fuse into a chain (shape-preserving, cell-independent).
    pub fn is_fusible_elementwise(&self) -> bool {
        matches!(
            self,
            OpCode::BinaryMM(_) | OpCode::BinaryMS(_) | OpCode::BinarySM(_) | OpCode::UnaryM(_)
        )
    }

    /// Short opcode mnemonic for EXPLAIN-style plan rendering (its
    /// `Display` form).
    pub fn mnemonic(&self) -> String {
        self.to_string()
    }

    /// The variant's name without its payload, as `Debug` begins it
    /// (`MatMult`, `BinaryMM`, `PersistentRead`): the simulator's
    /// causal-node and OOM-event label.
    pub fn variant_name(&self) -> &'static str {
        match self {
            OpCode::PersistentRead { .. } => "PersistentRead",
            OpCode::PersistentWrite { .. } => "PersistentWrite",
            OpCode::DataGenConst => "DataGenConst",
            OpCode::DataGenSeq => "DataGenSeq",
            OpCode::DataGenRand => "DataGenRand",
            OpCode::MatMult => "MatMult",
            OpCode::MatMultTransLeft => "MatMultTransLeft",
            OpCode::Tsmm => "Tsmm",
            OpCode::MmChain => "MmChain",
            OpCode::Solve => "Solve",
            OpCode::Transpose => "Transpose",
            OpCode::Diag => "Diag",
            OpCode::BinaryMM(_) => "BinaryMM",
            OpCode::BinaryMS(_) => "BinaryMS",
            OpCode::BinarySM(_) => "BinarySM",
            OpCode::BinarySS(_) => "BinarySS",
            OpCode::UnaryM(_) => "UnaryM",
            OpCode::UnaryS(_) => "UnaryS",
            OpCode::Agg(_) => "Agg",
            OpCode::TableSeq => "TableSeq",
            OpCode::RightIndex => "RightIndex",
            OpCode::LeftIndex => "LeftIndex",
            OpCode::Append => "Append",
            OpCode::AppendR => "AppendR",
            OpCode::NRow => "NRow",
            OpCode::NCol => "NCol",
            OpCode::CastScalar => "CastScalar",
            OpCode::CastMatrix => "CastMatrix",
            OpCode::Assign => "Assign",
            OpCode::Concat => "Concat",
            OpCode::Print => "Print",
            OpCode::RmVar => "RmVar",
        }
    }
}

/// The opcode mnemonic, written without an intermediate `String`.
impl std::fmt::Display for OpCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // An elementwise or aggregate opcode is its kernel op's token
        // behind a prefix; every other opcode is a fixed word.
        let (prefix, token) = match self {
            OpCode::PersistentRead { .. } => ("", "pread"),
            OpCode::PersistentWrite { .. } => ("", "pwrite"),
            OpCode::DataGenConst => ("", "datagen-const"),
            OpCode::DataGenSeq => ("", "datagen-seq"),
            OpCode::DataGenRand => ("", "datagen-rand"),
            OpCode::MatMult => ("", "ba+*"),
            OpCode::MatMultTransLeft => ("", "tmm"),
            OpCode::Tsmm => ("", "tsmm"),
            OpCode::MmChain => ("", "mmchain"),
            OpCode::Solve => ("", "solve"),
            OpCode::Transpose => ("", "r'"),
            OpCode::Diag => ("", "rdiag"),
            OpCode::BinaryMM(op) => ("map", op.token()),
            OpCode::BinaryMS(op) | OpCode::BinarySM(op) => ("s", op.token()),
            OpCode::BinarySS(op) => ("ss", op.token()),
            OpCode::UnaryM(op) => ("u", op.token()),
            OpCode::UnaryS(op) => ("us", op.token()),
            OpCode::Agg(op) => ("ua", op.token()),
            OpCode::TableSeq => ("", "ctable"),
            OpCode::RightIndex => ("", "rix"),
            OpCode::LeftIndex => ("", "lix"),
            OpCode::Append => ("", "append"),
            OpCode::AppendR => ("", "rappend"),
            OpCode::NRow => ("", "nrow"),
            OpCode::NCol => ("", "ncol"),
            OpCode::CastScalar => ("", "castdts"),
            OpCode::CastMatrix => ("", "castdtm"),
            OpCode::Assign => ("", "assignvar"),
            OpCode::Concat => ("", "concat"),
            OpCode::Print => ("", "print"),
            OpCode::RmVar => ("", "rmvar"),
        };
        f.write_str(prefix)?;
        f.write_str(token)
    }
}

/// A CP (control-program, in-memory) instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct CpInstruction {
    /// Operation.
    pub opcode: OpCode,
    /// Operands in positional order.
    pub operands: Vec<Operand>,
    /// Output variable (None for sinks like `print`/`pwrite`).
    pub output: Option<Arc<str>>,
    /// Compile-time characteristics per operand (scalar operands use
    /// [`MatrixCharacteristics::scalar`]).
    pub operand_mcs: Vec<MatrixCharacteristics>,
    /// Compile-time characteristics of the output.
    pub output_mc: MatrixCharacteristics,
    /// Sound upper bound on the operand + output bytes this instruction
    /// can hold resident, from the `sizebound` interval analysis. `None`
    /// means no finite bound could be proven (or the analysis has not
    /// annotated this plan). Never read by the executor's semantics —
    /// only copied into [`MemObservation`](crate::executor::MemObservation)
    /// for the differential soundness audit.
    pub bound_bytes: Option<u64>,
}

impl CpInstruction {
    /// Compile-time operand + output size estimate, bytes: the quantities
    /// `memest` budgets against. `None` if any size is unknown or the sum
    /// overflows (a saturated operand size). Both executors record it in
    /// their memory observations, and calibrated cost predictions read
    /// the same value the fit saw.
    pub fn predicted_bytes(&self) -> Option<u64> {
        self.operand_mcs
            .iter()
            .chain(std::iter::once(&self.output_mc))
            .try_fold(0u64, |acc, mc| acc.checked_add(mc.estimated_size_bytes()?))
    }

    /// EXPLAIN rendering: `CP mnemonic in1 in2 -> out`.
    pub fn render(&self) -> String {
        let ins: Vec<String> = self
            .operands
            .iter()
            .map(|o| match o {
                Operand::Var(v) => v.to_string(),
                Operand::Lit(l) => l.render(),
            })
            .collect();
        format!(
            "CP {} {} -> {}",
            self.opcode.mnemonic(),
            ins.join(" "),
            self.output.as_deref().unwrap_or("-")
        )
    }
}

/// Where an MR operator executes within a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MrLocation {
    /// Map phase.
    Map,
    /// Reduce phase.
    Reduce,
}

/// One operator packed into an MR job.
#[derive(Debug, Clone, PartialEq)]
pub struct MrOperator {
    /// Operation (same vocabulary as CP).
    pub opcode: OpCode,
    /// Operands.
    pub operands: Vec<Operand>,
    /// Output variable (job-local intermediate or job output).
    pub output: Option<Arc<str>>,
    /// Compile-time operand characteristics.
    pub operand_mcs: Vec<MatrixCharacteristics>,
    /// Compile-time output characteristics.
    pub output_mc: MatrixCharacteristics,
    /// Map or reduce side.
    pub location: MrLocation,
    /// Memory the operator needs inside each task (e.g. the broadcast
    /// vector of a map-side multiply), MB. Constrains piggybacking.
    pub task_mem_mb: f64,
}

/// An MR-job instruction: one Hadoop job running a pack of operators.
#[derive(Debug, Clone, PartialEq)]
pub struct MrJobInstruction {
    /// Variables read from HDFS by the map phase (with their compile-time
    /// characteristics).
    pub hdfs_inputs: Vec<(Arc<str>, MatrixCharacteristics)>,
    /// Variables broadcast to every map task via distributed cache.
    pub broadcast_inputs: Vec<(Arc<str>, MatrixCharacteristics)>,
    /// Operators in the map phase, in execution order.
    pub mappers: Vec<MrOperator>,
    /// Operators in the reduce phase, in execution order.
    pub reducers: Vec<MrOperator>,
    /// Variables written to HDFS as job outputs.
    pub outputs: Vec<(Arc<str>, MatrixCharacteristics)>,
    /// Characteristics of data shuffled from map to reduce (empty for
    /// map-only jobs).
    pub shuffle: Vec<MatrixCharacteristics>,
}

impl MrJobInstruction {
    /// Whether this job has a reduce phase.
    pub fn has_reduce(&self) -> bool {
        !self.reducers.is_empty() || !self.shuffle.is_empty()
    }

    /// Total map-side broadcast memory requirement, MB.
    pub fn broadcast_mb(&self) -> f64 {
        self.broadcast_inputs
            .iter()
            .map(|(_, mc)| mc.estimated_size_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0))
            .sum()
    }

    /// Total bytes read from HDFS by mappers.
    pub fn input_bytes(&self) -> u64 {
        self.hdfs_inputs
            .iter()
            .map(|(_, mc)| mc.hdfs_size_bytes().unwrap_or(0))
            .sum()
    }

    /// Total bytes written to HDFS by the job.
    pub fn output_bytes(&self) -> u64 {
        self.outputs
            .iter()
            .map(|(_, mc)| mc.hdfs_size_bytes().unwrap_or(0))
            .sum()
    }

    /// Total bytes shuffled.
    pub fn shuffle_bytes(&self) -> u64 {
        self.shuffle
            .iter()
            .map(|mc| mc.estimated_size_bytes().unwrap_or(0))
            .sum()
    }

    /// EXPLAIN rendering.
    pub fn render(&self) -> String {
        let map: Vec<String> = self.mappers.iter().map(|m| m.opcode.mnemonic()).collect();
        let red: Vec<String> = self.reducers.iter().map(|m| m.opcode.mnemonic()).collect();
        format!(
            "MR-Job map[{}] reduce[{}] in:{} bc:{} out:{}",
            map.join(","),
            red.join(","),
            self.hdfs_inputs.len(),
            self.broadcast_inputs.len(),
            self.outputs.len()
        )
    }
}

/// A runtime instruction: CP or MR job.
#[derive(Debug, Clone, PartialEq)]
pub enum Instruction {
    /// In-memory control-program instruction.
    Cp(CpInstruction),
    /// Distributed MR-job instruction.
    MrJob(MrJobInstruction),
}

impl Instruction {
    /// Whether this is an MR job.
    pub fn is_mr(&self) -> bool {
        matches!(self, Instruction::MrJob(_))
    }

    /// EXPLAIN rendering.
    pub fn render(&self) -> String {
        match self {
            Instruction::Cp(i) => i.render(),
            Instruction::MrJob(j) => j.render(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc(r: u64, c: u64) -> MatrixCharacteristics {
        MatrixCharacteristics::dense(r, c)
    }

    #[test]
    fn cp_render() {
        let i = CpInstruction {
            opcode: OpCode::MatMult,
            operands: vec![Operand::var("X"), Operand::var("y")],
            output: Some("g".into()),
            operand_mcs: vec![mc(10, 2), mc(2, 1)],
            output_mc: mc(10, 1),
            bound_bytes: None,
        };
        assert_eq!(i.render(), "CP ba+* X y -> g");
    }

    #[test]
    fn mr_job_accounting() {
        let job = MrJobInstruction {
            hdfs_inputs: vec![("X".into(), mc(1024 * 128, 1024))], // 1 GB dense
            broadcast_inputs: vec![("v".into(), mc(1024, 1))],
            mappers: vec![MrOperator {
                opcode: OpCode::MatMult,
                operands: vec![Operand::var("X"), Operand::var("v")],
                output: Some("q".into()),
                operand_mcs: vec![mc(1024 * 128, 1024), mc(1024, 1)],
                output_mc: mc(1024 * 128, 1),
                location: MrLocation::Map,
                task_mem_mb: 0.01,
            }],
            reducers: vec![],
            outputs: vec![("q".into(), mc(1024 * 128, 1))],
            shuffle: vec![],
        };
        assert!(!job.has_reduce());
        assert_eq!(job.input_bytes(), 1024 * 128 * 1024 * 8);
        assert_eq!(job.output_bytes(), 1024 * 128 * 8);
        assert_eq!(job.shuffle_bytes(), 0);
        assert!(job.broadcast_mb() > 0.0);
        assert!(Instruction::MrJob(job).is_mr());
    }

    #[test]
    fn shuffle_presence_implies_reduce() {
        let job = MrJobInstruction {
            hdfs_inputs: vec![],
            broadcast_inputs: vec![],
            mappers: vec![],
            reducers: vec![],
            outputs: vec![],
            shuffle: vec![mc(10, 10)],
        };
        assert!(job.has_reduce());
    }

    #[test]
    fn variant_names_are_the_debug_tags() {
        // One of every variant: the match below fails to compile when a
        // variant is added without a case here.
        let all = [
            OpCode::PersistentRead { path: "p".into() },
            OpCode::PersistentWrite { path: "p".into() },
            OpCode::DataGenConst,
            OpCode::DataGenSeq,
            OpCode::DataGenRand,
            OpCode::MatMult,
            OpCode::MatMultTransLeft,
            OpCode::Tsmm,
            OpCode::MmChain,
            OpCode::Solve,
            OpCode::Transpose,
            OpCode::Diag,
            OpCode::BinaryMM(BinaryOp::Mul),
            OpCode::BinaryMS(BinaryOp::Add),
            OpCode::BinarySM(BinaryOp::Sub),
            OpCode::BinarySS(BinaryOp::Div),
            OpCode::UnaryM(UnaryOp::Exp),
            OpCode::UnaryS(UnaryOp::Abs),
            OpCode::Agg(AggOp::Sum),
            OpCode::TableSeq,
            OpCode::RightIndex,
            OpCode::LeftIndex,
            OpCode::Append,
            OpCode::AppendR,
            OpCode::NRow,
            OpCode::NCol,
            OpCode::CastScalar,
            OpCode::CastMatrix,
            OpCode::Assign,
            OpCode::Concat,
            OpCode::Print,
            OpCode::RmVar,
        ];
        let mut seen = std::collections::HashSet::new();
        for op in &all {
            match op {
                OpCode::PersistentRead { .. }
                | OpCode::PersistentWrite { .. }
                | OpCode::DataGenConst
                | OpCode::DataGenSeq
                | OpCode::DataGenRand
                | OpCode::MatMult
                | OpCode::MatMultTransLeft
                | OpCode::Tsmm
                | OpCode::MmChain
                | OpCode::Solve
                | OpCode::Transpose
                | OpCode::Diag
                | OpCode::BinaryMM(_)
                | OpCode::BinaryMS(_)
                | OpCode::BinarySM(_)
                | OpCode::BinarySS(_)
                | OpCode::UnaryM(_)
                | OpCode::UnaryS(_)
                | OpCode::Agg(_)
                | OpCode::TableSeq
                | OpCode::RightIndex
                | OpCode::LeftIndex
                | OpCode::Append
                | OpCode::AppendR
                | OpCode::NRow
                | OpCode::NCol
                | OpCode::CastScalar
                | OpCode::CastMatrix
                | OpCode::Assign
                | OpCode::Concat
                | OpCode::Print
                | OpCode::RmVar => {}
            }
            // The tag the simulator derived from `Debug` before.
            let debug = format!("{op:?}");
            let tag = debug.split([' ', '{', '(']).next().unwrap();
            assert_eq!(op.variant_name(), tag);
            seen.insert(std::mem::discriminant(op));
        }
        assert_eq!(seen.len(), all.len(), "one of each variant");
    }

    #[test]
    fn mnemonics() {
        assert_eq!(OpCode::Tsmm.mnemonic(), "tsmm");
        assert_eq!(OpCode::BinaryMM(BinaryOp::Mul).mnemonic(), "map*");
        assert_eq!(OpCode::Agg(AggOp::Sum).mnemonic(), "uasum");
    }
}
