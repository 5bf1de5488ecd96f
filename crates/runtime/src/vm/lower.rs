//! One-time lowering of a [`RuntimeProgram`] into a [`VmProgram`].
//!
//! This is the symbol-resolution pass: every variable name is interned to
//! a `u32` symbol id, every literal moves into the constant pool, and
//! per-instruction observation metadata (mnemonic, predicted bytes,
//! touched set) is precomputed into the [`InstrMeta`] side table. Opcodes
//! are copied, not translated: a CP instruction lowers to
//! [`VmOp::Cp`] around its own [`OpCode`]. When fusion is enabled,
//! straight-line blocks additionally run the peephole planner (the
//! private `fuse` module) and lower each chain to a single
//! [`VmOp::Fused`] instruction.

use std::sync::Arc;

use crate::hash::FxHashMap;
use crate::instructions::{CpInstruction, Instruction, MrOperator, OpCode};
use crate::program::{Predicate, RtBlock, RuntimeProgram};
use crate::value::Operand;
use crate::vm::fuse::{self, Group};
use crate::vm::program::{
    Arg, FusedArg, FusedOpKind, FusedSpec, FusedStep, InstrMeta, ObserveMeta, SymbolTable, Tables,
    VmBlock, VmInstr, VmLowerStats, VmMrJob, VmOp, VmPredicate, VmProgram,
};

/// Lowering options.
#[derive(Debug, Clone, Copy)]
pub struct VmLowerOptions {
    /// Run the peephole elementwise-fusion pass (on by default; the
    /// differential proptest compares fused against unfused lowering).
    pub fuse: bool,
}

impl Default for VmLowerOptions {
    fn default() -> Self {
        VmLowerOptions { fuse: true }
    }
}

/// Lower a runtime program into flat bytecode.
pub fn lower_program(program: &RuntimeProgram, options: VmLowerOptions) -> VmProgram {
    let mut lw = Lowerer::new(SymbolTable::default(), options.fuse);
    // One meta per instruction at most (an MR job adds one per operator).
    let mut instructions = 0;
    program.walk(&mut |b| {
        if let RtBlock::Generic {
            instructions: code, ..
        } = b
        {
            instructions += code.len();
        }
        instructions += b
            .predicates()
            .map(|(_, p)| p.instructions.len())
            .sum::<usize>();
    });
    lw.metas.reserve(instructions);
    let blocks = lw.lower_blocks(&program.blocks);
    reml_trace::count("vm.fusion.groups", lw.stats.fused_groups as u64);
    reml_trace::count(
        "vm.fusion.ops_eliminated",
        lw.stats.fused_ops_eliminated as u64,
    );
    // Lowering is the only pass allowed to grow the table; from here on
    // the executor treats symbol ids as a closed universe.
    lw.symbols.seal();
    let lowered = VmProgram {
        symbols: lw.symbols,
        consts: lw.consts,
        metas: lw.metas,
        fused: lw.fused,
        mr_jobs: lw.mr_jobs,
        blocks,
        fused_enabled: options.fuse,
        stats: lw.stats,
    };
    super::verify::verify_program(&lowered);
    lowered
}

/// A recompiled block fragment lowered on the fly: carries its own tables
/// (symbols cloned from the host program and possibly extended, so
/// existing symbol ids keep their meaning in the executor's frame).
pub struct VmFragment {
    /// Extended symbol table (superset of the host program's).
    pub symbols: SymbolTable,
    /// Fragment-local constant pool.
    pub consts: Vec<crate::value::ScalarValue>,
    /// Fragment-local metadata table.
    pub metas: Vec<InstrMeta>,
    /// Fragment-local fused specs.
    pub fused: Vec<FusedSpec>,
    /// Fragment-local MR jobs.
    pub mr_jobs: Vec<VmMrJob>,
    /// Lowered instructions.
    pub code: Vec<VmInstr>,
}

impl VmFragment {
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

/// Lower a recompiled plan (the §4 dynamic-recompilation path) against an
/// existing symbol table. Fusion uses fragment-local use counts, which is
/// sound because recompilation replaces exactly one straight-line block
/// and compiler temporaries never escape their block.
pub fn lower_fragment(
    base_symbols: &SymbolTable,
    plan: &[Instruction],
    fuse_enabled: bool,
) -> VmFragment {
    let mut lw = Lowerer::new(base_symbols.extend_clone(), fuse_enabled);
    let code = lw.lower_code(plan, fuse_enabled);
    lw.symbols.seal();
    let fragment = VmFragment {
        symbols: lw.symbols,
        consts: lw.consts,
        metas: lw.metas,
        fused: lw.fused,
        mr_jobs: lw.mr_jobs,
        code,
    };
    super::verify::verify_fragment(&fragment, plan);
    fragment
}

struct Lowerer {
    symbols: SymbolTable,
    consts: Vec<crate::value::ScalarValue>,
    metas: Vec<InstrMeta>,
    fused: Vec<FusedSpec>,
    mr_jobs: Vec<VmMrJob>,
    fuse: bool,
    stats: VmLowerStats,
    /// `(mnemonic, metric)` per opcode seen so far, shared by the metas.
    op_names: FxHashMap<OpCode, Names>,
    /// The same for fused chains and MR jobs, by mnemonic.
    other_names: FxHashMap<String, Names>,
}

/// An instruction's shared `(mnemonic, metric)` names.
type Names = (Arc<str>, Arc<str>);

/// The names of a mnemonic.
fn names_of(mnemonic: &str) -> Names {
    (Arc::from(mnemonic), Arc::from(format!("vm.op.{mnemonic}")))
}

impl Lowerer {
    fn new(symbols: SymbolTable, fuse: bool) -> Self {
        Lowerer {
            symbols,
            consts: Vec::new(),
            metas: Vec::new(),
            fused: Vec::new(),
            mr_jobs: Vec::new(),
            fuse,
            stats: VmLowerStats::default(),
            op_names: FxHashMap::default(),
            other_names: FxHashMap::default(),
        }
    }

    /// The names of an opcode; each opcode formats them once per lowering.
    fn op_names(&mut self, op: &OpCode) -> Names {
        if let Some(names) = self.op_names.get(op) {
            return names.clone();
        }
        let names = names_of(&op.mnemonic());
        self.op_names.insert(op.clone(), names.clone());
        names
    }

    /// The names of a fused chain's or an MR job's mnemonic.
    fn other_names(&mut self, mnemonic: String) -> Names {
        self.other_names
            .entry(mnemonic)
            .or_insert_with_key(|m| names_of(m))
            .clone()
    }
    fn lower_blocks(&mut self, blocks: &[RtBlock]) -> Vec<VmBlock> {
        blocks.iter().map(|b| self.lower_block(b)).collect()
    }

    fn lower_block(&mut self, block: &RtBlock) -> VmBlock {
        match block {
            RtBlock::Generic {
                source,
                instructions,
                requires_recompile,
            } => VmBlock::Generic {
                source: *source,
                code: self.lower_code(instructions, true),
                requires_recompile: *requires_recompile,
            },
            RtBlock::If {
                pred,
                then_blocks,
                else_blocks,
                ..
            } => VmBlock::If {
                pred: self.lower_predicate(pred),
                then_blocks: self.lower_blocks(then_blocks),
                else_blocks: self.lower_blocks(else_blocks),
            },
            RtBlock::While { pred, body, .. } => VmBlock::While {
                pred: self.lower_predicate(pred),
                body: self.lower_blocks(body),
            },
            RtBlock::For {
                var,
                from,
                to,
                body,
                ..
            } => VmBlock::For {
                var: self.symbols.intern(var),
                from: self.lower_predicate(from),
                to: self.lower_predicate(to),
                body: self.lower_blocks(body),
            },
        }
    }

    fn lower_predicate(&mut self, pred: &Predicate) -> VmPredicate {
        // Predicates are tiny straight-line snippets; fusing them would
        // save nothing, so they lower instruction by instruction.
        VmPredicate {
            code: self.lower_code(&pred.instructions, false),
            result: self.symbols.intern(&pred.result_var),
        }
    }

    fn lower_code(&mut self, instrs: &[Instruction], allow_fuse: bool) -> Vec<VmInstr> {
        let groups = if self.fuse && allow_fuse {
            // Use counts are per-list: temp names are recycled across
            // blocks and never escape their own list (see `super::fuse`).
            let counts = fuse::use_counts_for(instrs);
            fuse::plan_fusion(instrs, &counts)
        } else {
            (0..instrs.len()).map(Group::Single).collect()
        };
        let mut code = Vec::with_capacity(groups.len());
        for group in groups {
            match group {
                Group::Single(i) => code.push(self.lower_instruction(&instrs[i])),
                Group::Chain(idxs) => {
                    let cps: Vec<&CpInstruction> = instrs[idxs]
                        .iter()
                        .map(|instr| match instr {
                            Instruction::Cp(cp) => cp,
                            Instruction::MrJob(_) => unreachable!("chains are CP-only"),
                        })
                        .collect();
                    code.push(self.lower_chain(&cps));
                }
            }
        }
        self.stats.instructions += code.len();
        code
    }

    fn lower_arg(&mut self, op: &Operand) -> Arg {
        match op {
            Operand::Var(name) => Arg::Slot(self.symbols.intern(name)),
            Operand::Lit(v) => {
                self.consts.push(v.clone());
                Arg::Const((self.consts.len() - 1) as u32)
            }
        }
    }

    fn push_meta(&mut self, meta: InstrMeta) -> u32 {
        self.metas.push(meta);
        (self.metas.len() - 1) as u32
    }

    fn lower_instruction(&mut self, instr: &Instruction) -> VmInstr {
        match instr {
            Instruction::Cp(cp) => self.lower_cp(cp),
            Instruction::MrJob(job) => {
                let ops = job
                    .mappers
                    .iter()
                    .chain(&job.reducers)
                    .map(|op| self.lower_mr_op(op))
                    .collect();
                let outputs = job
                    .outputs
                    .iter()
                    .map(|(name, _)| self.symbols.intern(name))
                    .collect();
                self.mr_jobs.push(VmMrJob { ops, outputs });
                let job_idx = (self.mr_jobs.len() - 1) as u32;
                let (mnemonic, metric) = self.other_names("mr_job".into());
                let meta = self.push_meta(InstrMeta {
                    mnemonic,
                    metric,
                    cp_count: 0,
                    observe: None,
                });
                VmInstr {
                    op: VmOp::MrJob { job: job_idx },
                    args: Box::new([]),
                    out: None,
                    meta,
                }
            }
        }
    }

    fn lower_cp(&mut self, cp: &CpInstruction) -> VmInstr {
        let args: Box<[Arg]> = cp.operands.iter().map(|o| self.lower_arg(o)).collect();
        let out = cp.output.as_deref().map(|n| self.symbols.intern(n));
        let meta = self.cp_meta(cp, &args, out);
        let meta = self.push_meta(meta);
        VmInstr {
            op: VmOp::Cp(cp.opcode.clone()),
            args,
            out,
            meta,
        }
    }

    /// Lower an MR operator like a CP instruction (same opcode
    /// vocabulary). Its meta is never read on the hot path — MR operators
    /// are neither individually timed nor observed, matching the tree
    /// executor.
    fn lower_mr_op(&mut self, op: &MrOperator) -> VmInstr {
        let args: Box<[Arg]> = op.operands.iter().map(|o| self.lower_arg(o)).collect();
        let out = op.output.as_deref().map(|n| self.symbols.intern(n));
        let (mnemonic, metric) = self.op_names(&op.opcode);
        let meta = self.push_meta(InstrMeta {
            mnemonic,
            metric,
            cp_count: 0,
            observe: None,
        });
        VmInstr {
            op: VmOp::Cp(op.opcode.clone()),
            args,
            out,
            meta,
        }
    }

    /// Observation metadata precomputed: sum of operand and output size
    /// estimates (None-propagating) plus the sorted distinct
    /// touched-variable set, read off the lowered operands and output.
    fn cp_meta(&mut self, cp: &CpInstruction, args: &[Arg], out: Option<u32>) -> InstrMeta {
        let (mnemonic, metric) = self.op_names(&cp.opcode);
        InstrMeta {
            metric,
            mnemonic,
            cp_count: 1,
            observe: Some(ObserveMeta {
                predicted_bytes: cp.predicted_bytes(),
                bound_bytes: cp.bound_bytes,
                touched: touched_symbols(args, out),
                predicted_flops: cp_flops(cp),
            }),
        }
    }

    fn lower_chain(&mut self, cps: &[&CpInstruction]) -> VmInstr {
        let (rows, cols) = (
            cps[0].output_mc.rows.expect("fusible shape known") as usize,
            cps[0].output_mc.cols.expect("fusible shape known") as usize,
        );
        let mut steps = Vec::with_capacity(cps.len());
        for (k, cp) in cps.iter().enumerate() {
            let prev_out = if k > 0 {
                cps[k - 1].output.as_deref()
            } else {
                None
            };
            let (kind, matrix_positions): (FusedOpKind, &[usize]) = match &cp.opcode {
                OpCode::BinaryMM(op) => (FusedOpKind::MM(*op), &[0, 1]),
                OpCode::BinaryMS(op) => (FusedOpKind::MS(*op), &[0]),
                OpCode::BinarySM(op) => (FusedOpKind::SM(*op), &[1]),
                OpCode::UnaryM(op) => (FusedOpKind::Unary(*op), &[0]),
                other => unreachable!("non-fusible opcode {other:?} in chain"),
            };
            let args: Box<[FusedArg]> = cp
                .operands
                .iter()
                .enumerate()
                .map(|(p, operand)| {
                    let is_flow = matrix_positions.contains(&p)
                        && operand.as_var().is_some()
                        && operand.as_var() == prev_out;
                    if is_flow {
                        FusedArg::Flow
                    } else {
                        match self.lower_arg(operand) {
                            Arg::Slot(s) => FusedArg::Slot(s),
                            Arg::Const(c) => FusedArg::Const(c),
                        }
                    }
                })
                .collect();
            steps.push(FusedStep { kind, args });
        }
        // Intern the final output (intermediates are elided entirely).
        let out_name = cps.last().unwrap().output.as_deref().expect("fusible");
        let out = self.symbols.intern(out_name);

        let mnemonics: Vec<String> = cps.iter().map(|cp| cp.opcode.mnemonic()).collect();
        let (mnemonic, metric) = self.other_names(format!("fused({})", mnemonics.join(",")));

        self.fused.push(FusedSpec { steps, rows, cols });
        let spec = (self.fused.len() - 1) as u32;
        self.stats.fused_groups += 1;
        self.stats.fused_ops_eliminated += cps.len() - 1;
        let meta = self.push_meta(InstrMeta {
            metric,
            mnemonic,
            cp_count: cps.len() as u64,
            observe: None,
        });
        VmInstr {
            op: VmOp::Fused { spec },
            args: Box::new([]),
            out: Some(out),
            meta,
        }
    }
}

/// Distinct sorted symbol ids of the variable operands and the output.
fn touched_symbols(args: &[Arg], out: Option<u32>) -> Box<[u32]> {
    let mut touched = Vec::with_capacity(args.len() + 1);
    touched.extend(args.iter().filter_map(|arg| match *arg {
        Arg::Slot(s) => Some(s),
        Arg::Const(_) => None,
    }));
    touched.extend(out);
    touched.sort_unstable();
    touched.dedup();
    touched.into_boxed_slice()
}

pub(crate) fn cp_flops(cp: &CpInstruction) -> Option<f64> {
    crate::flops::predicted_flops(&cp.opcode, &cp.operand_mcs, &cp.output_mc)
}
