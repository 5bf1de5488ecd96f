//! Runtime program representation: a tree of program blocks.

use reml_lang::BlockId;
use reml_matrix::MatrixCharacteristics;

use crate::instructions::Instruction;
use crate::value::ScalarValue;

/// A compiled predicate: a short list of CP instructions ending in a
/// scalar `result_var`.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Instructions evaluating the predicate (CP only).
    pub instructions: Vec<Instruction>,
    /// Variable holding the boolean/numeric result.
    pub result_var: String,
}

/// One runtime program block.
#[derive(Debug, Clone, PartialEq)]
pub enum RtBlock {
    /// Straight-line instruction block (last-level block; the granularity
    /// of dynamic recompilation, §4.1).
    Generic {
        /// The statement block this was compiled from (recompile key).
        source: BlockId,
        /// Instructions in execution order.
        instructions: Vec<Instruction>,
        /// Marked when compile-time sizes were unknown; the executor
        /// invokes the recompilation hook before running the block.
        requires_recompile: bool,
    },
    /// Conditional block.
    If {
        /// Source statement block.
        source: BlockId,
        /// Compiled predicate.
        pred: Predicate,
        /// Then-branch blocks.
        then_blocks: Vec<RtBlock>,
        /// Else-branch blocks.
        else_blocks: Vec<RtBlock>,
    },
    /// While-loop block.
    While {
        /// Source statement block.
        source: BlockId,
        /// Compiled predicate (re-evaluated each iteration).
        pred: Predicate,
        /// Body blocks.
        body: Vec<RtBlock>,
        /// Upper bound on iterations when derivable from the predicate
        /// (e.g. `iter < maxiterations` with a known constant); used by
        /// the cost model's loop scaling.
        max_iter_hint: Option<u64>,
    },
    /// For-loop block.
    For {
        /// Source statement block.
        source: BlockId,
        /// Loop variable.
        var: String,
        /// Range start (compiled predicate-style, constant or variable).
        from: Predicate,
        /// Range end.
        to: Predicate,
        /// Body blocks.
        body: Vec<RtBlock>,
        /// Iteration count when statically known.
        iterations_hint: Option<u64>,
    },
}

impl RtBlock {
    /// The source statement block id.
    pub fn source(&self) -> BlockId {
        match self {
            RtBlock::Generic { source, .. }
            | RtBlock::If { source, .. }
            | RtBlock::While { source, .. }
            | RtBlock::For { source, .. } => *source,
        }
    }

    /// This block's own predicates with their slot names: `pred` for
    /// `if`/`while`, `from` then `to` for `for`, none for generic blocks.
    pub fn predicates(&self) -> impl Iterator<Item = (&'static str, &Predicate)> {
        let slots = match self {
            RtBlock::Generic { .. } => [None, None],
            RtBlock::If { pred, .. } | RtBlock::While { pred, .. } => [Some(("pred", pred)), None],
            RtBlock::For { from, to, .. } => [Some(("from", from)), Some(("to", to))],
        };
        slots.into_iter().flatten()
    }

    /// Visit this block and every block nested in it, in pre-order: a
    /// block before its children, `then` blocks before `else` blocks.
    /// The one enumeration of the runtime tree; walks that do different
    /// work per block kind (executors, costing, EXPLAIN) match by hand.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a RtBlock)) {
        f(self);
        let (first, second): (&[RtBlock], &[RtBlock]) = match self {
            RtBlock::Generic { .. } => (&[], &[]),
            RtBlock::If {
                then_blocks,
                else_blocks,
                ..
            } => (then_blocks, else_blocks),
            RtBlock::While { body, .. } | RtBlock::For { body, .. } => (body, &[]),
        };
        for b in first.iter().chain(second) {
            b.walk(f);
        }
    }

    /// Visit all generic blocks in execution order.
    pub fn visit_generic<'a>(&'a self, f: &mut impl FnMut(&'a RtBlock)) {
        self.walk(&mut |b| {
            if matches!(b, RtBlock::Generic { .. }) {
                f(b)
            }
        });
    }
}

/// A complete runtime program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RuntimeProgram {
    /// Top-level blocks in execution order.
    pub blocks: Vec<RtBlock>,
    /// Known `$` parameter bindings used at compile time.
    pub params: Vec<(String, ScalarValue)>,
    /// Compile-time characteristics of persistent inputs (by read path).
    pub inputs: Vec<(String, MatrixCharacteristics)>,
}

impl RuntimeProgram {
    /// Visit every block of the program in pre-order ([`RtBlock::walk`]).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a RtBlock)) {
        for b in &self.blocks {
            b.walk(f);
        }
    }

    /// Total number of blocks (all levels).
    pub fn num_blocks(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }

    /// Total number of MR-job instructions in the program: block code
    /// and every predicate, `for` range bounds included.
    pub fn count_mr_jobs(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |b| {
            let code: &[Instruction] = match b {
                RtBlock::Generic { instructions, .. } => instructions,
                _ => &[],
            };
            let preds = b.predicates().flat_map(|(_, p)| &p.instructions);
            n += code.iter().chain(preds).filter(|i| i.is_mr()).count();
        });
        n
    }

    /// EXPLAIN rendering of the whole program.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for b in &self.blocks {
            explain_block(b, 0, &mut out);
        }
        out
    }

    /// Lower this tree into flat bytecode for the register VM (see
    /// [`crate::vm`]). Symbols are interned and operand slots preresolved
    /// once here, so execution never hashes a variable name.
    pub fn lower_vm(&self, options: crate::vm::VmLowerOptions) -> crate::vm::VmProgram {
        crate::vm::lower_program(self, options)
    }
}

fn explain_block(block: &RtBlock, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    match block {
        RtBlock::Generic {
            source,
            instructions,
            requires_recompile,
        } => {
            out.push_str(&format!(
                "{pad}GENERIC b{}{}\n",
                source.0,
                if *requires_recompile {
                    " [recompile]"
                } else {
                    ""
                }
            ));
            for i in instructions {
                out.push_str(&format!("{pad}  {}\n", i.render()));
            }
        }
        RtBlock::If {
            source,
            then_blocks,
            else_blocks,
            ..
        } => {
            out.push_str(&format!("{pad}IF b{}\n", source.0));
            for b in then_blocks {
                explain_block(b, depth + 1, out);
            }
            if !else_blocks.is_empty() {
                out.push_str(&format!("{pad}ELSE\n"));
                for b in else_blocks {
                    explain_block(b, depth + 1, out);
                }
            }
        }
        RtBlock::While {
            source,
            body,
            max_iter_hint,
            ..
        } => {
            out.push_str(&format!(
                "{pad}WHILE b{}{}\n",
                source.0,
                max_iter_hint
                    .map(|n| format!(" [maxiter={n}]"))
                    .unwrap_or_default()
            ));
            for b in body {
                explain_block(b, depth + 1, out);
            }
        }
        RtBlock::For {
            source,
            var,
            body,
            iterations_hint,
            ..
        } => {
            out.push_str(&format!(
                "{pad}FOR b{} {var}{}\n",
                source.0,
                iterations_hint
                    .map(|n| format!(" [iters={n}]"))
                    .unwrap_or_default()
            ));
            for b in body {
                explain_block(b, depth + 1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instructions::{CpInstruction, OpCode};
    use crate::value::Operand;

    fn cp_noop(out_name: &str) -> Instruction {
        Instruction::Cp(CpInstruction {
            opcode: OpCode::Assign,
            operands: vec![Operand::num(1.0)],
            output: Some(out_name.into()),
            operand_mcs: vec![MatrixCharacteristics::scalar()],
            output_mc: MatrixCharacteristics::scalar(),
            bound_bytes: None,
        })
    }

    fn generic(id: usize, n_instr: usize) -> RtBlock {
        RtBlock::Generic {
            source: BlockId(id),
            instructions: (0..n_instr).map(|i| cp_noop(&format!("v{i}"))).collect(),
            requires_recompile: false,
        }
    }

    #[test]
    fn block_counting() {
        let prog = RuntimeProgram {
            blocks: vec![
                generic(0, 2),
                RtBlock::While {
                    source: BlockId(1),
                    pred: Predicate {
                        instructions: vec![cp_noop("p")],
                        result_var: "p".into(),
                    },
                    body: vec![generic(2, 1)],
                    max_iter_hint: Some(5),
                },
            ],
            ..Default::default()
        };
        assert_eq!(prog.num_blocks(), 3);
        assert_eq!(prog.count_mr_jobs(), 0);
    }

    #[test]
    fn visit_generic_order() {
        let tree = RtBlock::While {
            source: BlockId(0),
            pred: Predicate {
                instructions: vec![],
                result_var: "p".into(),
            },
            body: vec![generic(1, 0), generic(2, 0)],
            max_iter_hint: None,
        };
        let mut seen = Vec::new();
        tree.visit_generic(&mut |b| seen.push(b.source().0));
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn walk_is_preorder_and_counts_every_predicate() {
        let mr_job = || {
            Instruction::MrJob(crate::instructions::MrJobInstruction {
                hdfs_inputs: vec![],
                broadcast_inputs: vec![],
                mappers: vec![],
                reducers: vec![],
                outputs: vec![],
                shuffle: vec![],
            })
        };
        let pred = |instructions: Vec<Instruction>| Predicate {
            instructions,
            result_var: "p".into(),
        };
        let prog = RuntimeProgram {
            blocks: vec![
                RtBlock::If {
                    source: BlockId(0),
                    pred: pred(vec![mr_job()]),
                    then_blocks: vec![generic(1, 0)],
                    else_blocks: vec![RtBlock::While {
                        source: BlockId(2),
                        pred: pred(vec![mr_job()]),
                        body: vec![generic(3, 0)],
                        max_iter_hint: None,
                    }],
                },
                RtBlock::For {
                    source: BlockId(4),
                    var: "i".into(),
                    from: pred(vec![mr_job()]),
                    to: pred(vec![cp_noop("p"), mr_job()]),
                    body: vec![RtBlock::Generic {
                        source: BlockId(5),
                        instructions: vec![mr_job(), cp_noop("x")],
                        requires_recompile: false,
                    }],
                    iterations_hint: None,
                },
            ],
            ..Default::default()
        };
        let mut seen = Vec::new();
        prog.walk(&mut |b| seen.push(b.source().0));
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        let slots: Vec<&str> = prog.blocks[1].predicates().map(|(s, _)| s).collect();
        assert_eq!(slots, ["from", "to"]);
        assert_eq!(prog.num_blocks(), 6);
        // if-pred 1 + while-pred 1 + for from 1 + for to 1 + body 1.
        assert_eq!(prog.count_mr_jobs(), 5);
    }

    #[test]
    fn explain_renders_structure() {
        let prog = RuntimeProgram {
            blocks: vec![RtBlock::If {
                source: BlockId(0),
                pred: Predicate {
                    instructions: vec![],
                    result_var: "c".into(),
                },
                then_blocks: vec![generic(1, 1)],
                else_blocks: vec![generic(2, 1)],
            }],
            ..Default::default()
        };
        let text = prog.explain();
        assert!(text.contains("IF b0"));
        assert!(text.contains("ELSE"));
        assert!(text.contains("GENERIC b1"));
    }
}
