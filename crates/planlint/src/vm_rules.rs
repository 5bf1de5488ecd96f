//! Bytecode-layer rules (PL040–PL047): static verification of lowered
//! [`VmProgram`]s without executing them.
//!
//! The bytecode VM is trusted by everything above it, and the
//! differential oracle only exercises the plans the paper scripts happen
//! to produce. These rules restate the lowering's invariants as
//! independently checkable properties of the flat program:
//!
//! * **PL040** — pool/reference validity: every slot, constant,
//!   fused-spec, MR-job, and metadata index resolves inside its pool.
//! * **PL041** — the [`InstrMeta`] side table is index-aligned with the
//!   instruction stream (a bijection) and internally consistent
//!   (mnemonic, metric, `cp_count`; observation metadata exactly on CP
//!   instructions outside MR jobs, with their touched sets).
//! * **PL042** — definite assignment: a forward dataflow over the
//!   [`VmBlock`] tree (if/else join, loop fixpoint) proving every slot
//!   read of a temporary is dominated by a write.
//! * **PL043** (warning) — dead stores and leaked buffers: a temporary
//!   written twice with no intervening read, or written and never read
//!   nor evicted before the end of its straight-line list.
//! * **PL044** — fused chains are well-formed: ≥2 steps, non-empty
//!   shape, per-kind arity, `Flow` threading (absent in step 0, present
//!   in a matrix position of every later step, never in a scalar
//!   position).
//! * **PL045** — non-empty predicate code binds its result symbol.
//! * **PL046** — lowering fidelity: the bytecode corresponds structurally
//!   to the source [`Instruction`] list modulo fusion (a CP instruction's
//!   opcode must *equal* its source's — the VM carries `OpCode` itself,
//!   HDFS path included), and each fused
//!   chain's safety is re-proved *independently of the greedy planner*
//!   (single-use temporary intermediates under recomputed per-list use
//!   counts, step-to-step shape conformance, no intermediate aliasing
//!   the chain output).
//! * **PL047** — observation-metadata fidelity: a CP instruction's
//!   predicted bytes/FLOPs and stamped `bound_bytes` agree with values
//!   recomputed from its source instruction.
//!
//! Entry points: [`lint_vm_program`] (internal consistency only),
//! [`lint_vm`] (adds source fidelity), [`lint_vm_fragment`] (the §4
//! recompiled-fragment form), and [`install_vm_verifier`] which registers
//! a panicking verifier with `reml_runtime::vm` so every lowering in the
//! process — including fragments produced inside the executor — is
//! checked.
//!
//! [`VmProgram`]: reml_runtime::vm::VmProgram
//! [`InstrMeta`]: reml_runtime::vm::InstrMeta
//! [`VmBlock`]: reml_runtime::vm::VmBlock
//! [`Instruction`]: reml_runtime::instructions::Instruction

use std::collections::{BTreeMap, HashMap};

use reml_runtime::instructions::{CpInstruction, Instruction, MrOperator, OpCode, TEMP_PREFIX};
use reml_runtime::program::{Predicate, RtBlock, RuntimeProgram};
use reml_runtime::vm::{
    Arg, FusedArg, FusedOpKind, FusedSpec, InstrMeta, SymbolTable, VmBlock, VmFragment, VmInstr,
    VmMrJob, VmOp, VmPredicate, VmProgram,
};
use reml_runtime::{Operand, ScalarValue};

use crate::{is_temp_name, Diagnostic, LintReport};

/// Borrowed view of the pools a bytecode instruction resolves against —
/// a whole program's or a recompiled fragment's.
#[derive(Clone, Copy)]
struct Pools<'a> {
    symbols: &'a SymbolTable,
    consts: &'a [ScalarValue],
    metas: &'a [InstrMeta],
    fused: &'a [FusedSpec],
    mr_jobs: &'a [VmMrJob],
}

impl<'a> Pools<'a> {
    fn of_program(p: &'a VmProgram) -> Self {
        Pools {
            symbols: &p.symbols,
            consts: &p.consts,
            metas: &p.metas,
            fused: &p.fused,
            mr_jobs: &p.mr_jobs,
        }
    }

    fn of_fragment(f: &'a VmFragment) -> Self {
        Pools {
            symbols: &f.symbols,
            consts: &f.consts,
            metas: &f.metas,
            fused: &f.fused,
            mr_jobs: &f.mr_jobs,
        }
    }

    fn sym_name(&self, sym: u32) -> Option<&str> {
        ((sym as usize) < self.symbols.len()).then(|| self.symbols.name(sym))
    }
}

/// Lint a lowered program for internal consistency (PL040–PL045).
pub fn lint_vm_program(program: &VmProgram) -> Vec<Diagnostic> {
    let t = Pools::of_program(program);
    let mut diags = Vec::new();
    walk_code(&program.blocks, "vm", &mut |path, code, pred| {
        if let Some(pred) = pred {
            check_pred_refs(&t, pred, path, &mut diags);
        }
        for (k, instr) in code.iter().enumerate() {
            check_instr_refs(&t, instr, &format!("{path}/instr {k}"), &mut diags);
        }
        // PL043 over every straight-line list.
        check_list_liveness(&t, code, path, pred.map(|p| p.result), &mut diags);
    });
    check_side_tables(&t, &program.blocks, None, &mut diags);
    check_fused_specs(&t, &mut diags);
    let mut defined = vec![false; t.symbols.len()];
    walk_defs(&t, &program.blocks, "vm", &mut defined, &mut diags);
    diags
}

/// Call `f` on every straight-line code list under `blocks` — a generic
/// block's code, an `if`/`while` predicate's, a `for` loop's `from` and
/// `to` — with its path as diagnostics print it (`vm/b0/then/b1`,
/// `vm/b2/pred`) and the predicate it evaluates (`None` for block code).
/// Pre-order: a block's own lists before its children, `then` before
/// `else`. The flow-sensitive walks (`walk_defs`, `match_block_trees`)
/// recurse by hand because they join or pair what they visit.
fn walk_code<'a>(
    blocks: &'a [VmBlock],
    path: &str,
    f: &mut impl FnMut(&str, &'a [VmInstr], Option<&'a VmPredicate>),
) {
    for (i, block) in blocks.iter().enumerate() {
        let bpath = format!("{path}/b{i}");
        match block {
            VmBlock::Generic { code, .. } => f(&bpath, code, None),
            VmBlock::If {
                pred,
                then_blocks,
                else_blocks,
            } => {
                f(&format!("{bpath}/pred"), &pred.code, Some(pred));
                walk_code(then_blocks, &format!("{bpath}/then"), f);
                walk_code(else_blocks, &format!("{bpath}/else"), f);
            }
            VmBlock::While { pred, body } => {
                f(&format!("{bpath}/pred"), &pred.code, Some(pred));
                walk_code(body, &format!("{bpath}/body"), f);
            }
            VmBlock::For { from, to, body, .. } => {
                f(&format!("{bpath}/from"), &from.code, Some(from));
                f(&format!("{bpath}/to"), &to.code, Some(to));
                walk_code(body, &format!("{bpath}/body"), f);
            }
        }
    }
}

/// Lint a lowered program *and* its structural correspondence with the
/// source runtime tree it was lowered from (adds PL046/PL047).
pub fn lint_vm(runtime: &RuntimeProgram, program: &VmProgram) -> LintReport {
    let mut diags = lint_vm_program(program);
    let t = Pools::of_program(program);
    match_block_trees(&t, &runtime.blocks, &program.blocks, "vm", &mut diags);
    LintReport::from_diagnostics(diags)
}

/// Lint a recompiled block fragment (the §4 dynamic-recompilation path)
/// against the plan it was lowered from. Runs the full rule family over
/// the fragment's single straight-line list.
pub fn lint_vm_fragment(fragment: &VmFragment, plan: &[Instruction]) -> LintReport {
    let t = Pools::of_fragment(fragment);
    let mut diags = Vec::new();
    for (i, instr) in fragment.code.iter().enumerate() {
        check_instr_refs(&t, instr, &format!("fragment/instr {i}"), &mut diags);
    }
    check_side_tables(&t, &[], Some(&fragment.code), &mut diags);
    check_fused_specs(&t, &mut diags);
    // The fragment's symbol table is a superset of the host program's;
    // named variables resolve against the executor frame, so — as
    // everywhere else — only temporaries are checked strictly.
    let mut defined = vec![false; t.symbols.len()];
    check_list_defs(&t, &fragment.code, "fragment", &mut defined, &mut diags);
    check_list_liveness(&t, &fragment.code, "fragment", None, &mut diags);
    match_code(&t, plan, &fragment.code, "fragment", &mut diags);
    LintReport::from_diagnostics(diags)
}

/// Register the PL040 verifier with `reml_runtime::vm` so every
/// `lower_program`/`lower_fragment` in this process is statically checked
/// the moment it produces bytecode (panicking on any diagnostic).
/// Idempotent; cheap to call from every entry point that wants coverage.
pub fn install_vm_verifier() {
    reml_runtime::vm::install_verifier(
        |program| {
            let report = LintReport::from_diagnostics(lint_vm_program(program));
            assert!(
                report.is_empty(),
                "PL040 bytecode verifier rejected a lowered program:\n{}",
                report.render()
            );
        },
        |fragment, plan| {
            let report = lint_vm_fragment(fragment, plan);
            assert!(
                report.is_empty(),
                "PL040 bytecode verifier rejected a recompiled fragment:\n{}",
                report.render()
            );
        },
    );
}

// ---------------------------------------------------------------------------
// PL040: pool/reference validity
// ---------------------------------------------------------------------------

fn check_pred_refs(t: &Pools, pred: &VmPredicate, path: &str, diags: &mut Vec<Diagnostic>) {
    if pred.result as usize >= t.symbols.len() {
        diags.push(Diagnostic::new(
            "PL040",
            path,
            format!("predicate result symbol {} out of range", pred.result),
        ));
    }
    check_pred_binding(t, pred, path, diags);
}

/// Minimum operand count the executor will index, per opcode. `None`
/// means variable arity (`rmvar`) or arity is checked elsewhere.
fn min_arity(op: &OpCode) -> Option<usize> {
    Some(match op {
        OpCode::PersistentRead { .. } | OpCode::RmVar => return None,
        OpCode::PersistentWrite { .. } => 1,
        OpCode::DataGenConst => 3,
        OpCode::DataGenSeq => 2,
        OpCode::DataGenRand => 4,
        OpCode::MatMult
        | OpCode::MatMultTransLeft
        | OpCode::MmChain
        | OpCode::Solve
        | OpCode::BinaryMM(_)
        | OpCode::BinaryMS(_)
        | OpCode::BinarySM(_)
        | OpCode::BinarySS(_)
        | OpCode::Append
        | OpCode::AppendR
        | OpCode::Concat => 2,
        OpCode::Tsmm
        | OpCode::Transpose
        | OpCode::Diag
        | OpCode::UnaryM(_)
        | OpCode::UnaryS(_)
        | OpCode::Agg(_)
        | OpCode::TableSeq
        | OpCode::NRow
        | OpCode::NCol
        | OpCode::CastScalar
        | OpCode::CastMatrix
        | OpCode::Assign
        | OpCode::Print => 1,
        OpCode::RightIndex => 5,
        OpCode::LeftIndex => 6,
    })
}

fn check_instr_refs(t: &Pools, instr: &VmInstr, path: &str, diags: &mut Vec<Diagnostic>) {
    for (p, arg) in instr.args.iter().enumerate() {
        match arg {
            Arg::Slot(s) if *s as usize >= t.symbols.len() => diags.push(Diagnostic::new(
                "PL040",
                path,
                format!("operand {p} references slot {s} out of range"),
            )),
            Arg::Const(c) if *c as usize >= t.consts.len() => diags.push(Diagnostic::new(
                "PL040",
                path,
                format!("operand {p} references constant {c} out of range"),
            )),
            _ => {}
        }
    }
    if let Some(out) = instr.out {
        if out as usize >= t.symbols.len() {
            diags.push(Diagnostic::new(
                "PL040",
                path,
                format!("output slot {out} out of range"),
            ));
        }
    }
    if instr.meta as usize >= t.metas.len() {
        diags.push(Diagnostic::new(
            "PL040",
            path,
            format!("metadata index {} out of range", instr.meta),
        ));
    } else {
        let observe = t.metas[instr.meta as usize].observe.as_ref();
        for sym in observe.iter().flat_map(|o| o.touched.iter()) {
            if *sym as usize >= t.symbols.len() {
                diags.push(Diagnostic::new(
                    "PL040",
                    path,
                    format!("touched symbol {sym} out of range"),
                ));
            }
        }
    }
    match &instr.op {
        VmOp::Cp(op) => {
            if let Some(min) = min_arity(op).filter(|min| instr.args.len() < *min) {
                diags.push(Diagnostic::new(
                    "PL040",
                    path,
                    format!(
                        "{op:?} carries {} operands but the executor indexes {min}",
                        instr.args.len()
                    ),
                ));
            }
        }
        VmOp::Fused { spec } => {
            if !instr.args.is_empty() {
                diags.push(Diagnostic::new(
                    "PL044",
                    path,
                    format!(
                        "fused instruction carries {} loose operands (steps hold them all)",
                        instr.args.len()
                    ),
                ));
            }
            if instr.out.is_none() {
                diags.push(Diagnostic::new(
                    "PL044",
                    path,
                    "fused instruction has no output (chains always produce a value)",
                ));
            }
            if *spec as usize >= t.fused.len() {
                diags.push(Diagnostic::new(
                    "PL040",
                    path,
                    format!("fused-spec index {spec} out of range"),
                ));
            } else {
                for (k, step) in t.fused[*spec as usize].steps.iter().enumerate() {
                    for (p, arg) in step.args.iter().enumerate() {
                        match arg {
                            FusedArg::Slot(s) if *s as usize >= t.symbols.len() => {
                                diags.push(Diagnostic::new(
                                    "PL040",
                                    path,
                                    format!("fused step {k} operand {p} slot {s} out of range"),
                                ));
                            }
                            FusedArg::Const(c) if *c as usize >= t.consts.len() => {
                                diags.push(Diagnostic::new(
                                    "PL040",
                                    path,
                                    format!("fused step {k} operand {p} constant {c} out of range"),
                                ));
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
        VmOp::MrJob { job } => {
            if *job as usize >= t.mr_jobs.len() {
                diags.push(Diagnostic::new(
                    "PL040",
                    path,
                    format!("MR-job index {job} out of range"),
                ));
            } else {
                let job = &t.mr_jobs[*job as usize];
                for (k, op) in job.ops.iter().enumerate() {
                    check_instr_refs(t, op, &format!("{path}/mr op {k}"), diags);
                }
                for sym in &job.outputs {
                    if *sym as usize >= t.symbols.len() {
                        diags.push(Diagnostic::new(
                            "PL040",
                            path,
                            format!("MR-job output symbol {sym} out of range"),
                        ));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// PL041: metadata side-table alignment + internal consistency
// ---------------------------------------------------------------------------

/// Check the meta/fused/MR side tables: every entry referenced by exactly
/// one instruction (the lowering emits them 1:1, so sharing or orphans
/// mean the stream and its side data drifted), and every referenced meta
/// agrees with values recomputed from the instruction itself.
fn check_side_tables<'a>(
    t: &Pools<'a>,
    blocks: &'a [VmBlock],
    fragment_code: Option<&'a [VmInstr]>,
    diags: &mut Vec<Diagnostic>,
) {
    let mut instrs: Vec<(String, &VmInstr, bool)> = Vec::new();
    walk_code(blocks, "vm", &mut |path, code, _| {
        for (k, instr) in code.iter().enumerate() {
            push_instr(t, instr, format!("{path}/instr {k}"), false, &mut instrs);
        }
    });
    if let Some(code) = fragment_code {
        for (k, instr) in code.iter().enumerate() {
            push_instr(t, instr, format!("fragment/instr {k}"), false, &mut instrs);
        }
    }

    let mut meta_refs = vec![0usize; t.metas.len()];
    let mut spec_refs = vec![0usize; t.fused.len()];
    let mut job_refs = vec![0usize; t.mr_jobs.len()];
    for (path, instr, in_mr) in &instrs {
        if let Some(slot) = meta_refs.get_mut(instr.meta as usize) {
            *slot += 1;
        }
        match &instr.op {
            VmOp::Fused { spec } => {
                if let Some(slot) = spec_refs.get_mut(*spec as usize) {
                    *slot += 1;
                }
            }
            VmOp::MrJob { job } => {
                if let Some(slot) = job_refs.get_mut(*job as usize) {
                    *slot += 1;
                }
            }
            _ => {}
        }
        check_instr_meta(t, instr, *in_mr, path, diags);
    }
    for (i, n) in meta_refs.iter().enumerate() {
        if *n != 1 {
            diags.push(Diagnostic::new(
                "PL041",
                format!("vm/meta {i}"),
                format!("metadata entry referenced by {n} instructions (expected exactly 1)"),
            ));
        }
    }
    for (i, n) in spec_refs.iter().enumerate() {
        if *n != 1 {
            diags.push(Diagnostic::new(
                "PL041",
                format!("vm/fused {i}"),
                format!("fused spec referenced by {n} instructions (expected exactly 1)"),
            ));
        }
    }
    for (i, n) in job_refs.iter().enumerate() {
        if *n != 1 {
            diags.push(Diagnostic::new(
                "PL041",
                format!("vm/mr_job {i}"),
                format!("MR job referenced by {n} instructions (expected exactly 1)"),
            ));
        }
    }
}

fn push_instr<'a>(
    t: &Pools<'a>,
    instr: &'a VmInstr,
    path: String,
    in_mr: bool,
    out: &mut Vec<(String, &'a VmInstr, bool)>,
) {
    if let VmOp::MrJob { job } = &instr.op {
        if let Some(job) = t.mr_jobs.get(*job as usize) {
            for (k, op) in job.ops.iter().enumerate() {
                out.push((format!("{path}/mr op {k}"), op, true));
            }
        }
    }
    out.push((path, instr, in_mr));
}

fn kind_mnemonic(kind: &FusedOpKind) -> String {
    match kind {
        FusedOpKind::MM(op) => OpCode::BinaryMM(*op).mnemonic(),
        FusedOpKind::MS(op) => OpCode::BinaryMS(*op).mnemonic(),
        FusedOpKind::SM(op) => OpCode::BinarySM(*op).mnemonic(),
        FusedOpKind::Unary(op) => OpCode::UnaryM(*op).mnemonic(),
    }
}

/// The mnemonic the lowering should have stamped for `op`.
fn vm_mnemonic(t: &Pools, op: &VmOp) -> Option<String> {
    Some(match op {
        VmOp::Cp(op) => op.mnemonic(),
        VmOp::Fused { spec } => {
            let spec = t.fused.get(*spec as usize)?;
            let mnemonics: Vec<String> =
                spec.steps.iter().map(|s| kind_mnemonic(&s.kind)).collect();
            format!("fused({})", mnemonics.join(","))
        }
        VmOp::MrJob { .. } => "mr_job".to_string(),
    })
}

/// Distinct sorted symbols an instruction touches, recomputed from its
/// own operands and output.
fn recompute_touched(instr: &VmInstr) -> Vec<u32> {
    let mut touched: Vec<u32> = instr
        .args
        .iter()
        .filter_map(|arg| match arg {
            Arg::Slot(s) => Some(*s),
            Arg::Const(_) => None,
        })
        .collect();
    touched.extend(instr.out);
    touched.sort_unstable();
    touched.dedup();
    touched
}

fn check_instr_meta(
    t: &Pools,
    instr: &VmInstr,
    in_mr: bool,
    path: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(meta) = t.metas.get(instr.meta as usize) else {
        return; // PL040 reported the range error
    };
    if let Some(expected) = vm_mnemonic(t, &instr.op) {
        if *meta.mnemonic != *expected {
            diags.push(Diagnostic::new(
                "PL041",
                path,
                format!(
                    "stamped mnemonic {:?} disagrees with opcode ({expected:?})",
                    meta.mnemonic
                ),
            ));
        }
        let metric = format!("vm.op.{expected}");
        if *meta.metric != *metric {
            diags.push(Diagnostic::new(
                "PL041",
                path,
                format!("stamped metric {:?} disagrees with {metric:?}", meta.metric),
            ));
        }
    }
    let expected_cp: u64 = if in_mr {
        0
    } else {
        match &instr.op {
            VmOp::MrJob { .. } => 0,
            VmOp::Fused { spec } => t
                .fused
                .get(*spec as usize)
                .map(|s| s.steps.len() as u64)
                .unwrap_or(0),
            _ => 1,
        }
    };
    if meta.cp_count != expected_cp {
        diags.push(Diagnostic::new(
            "PL041",
            path,
            format!(
                "cp_count {} disagrees with the instruction ({expected_cp} expected)",
                meta.cp_count
            ),
        ));
    }
    // Fused chains, MR jobs and the operators inside them are not observed.
    let observed = !in_mr && matches!(instr.op, VmOp::Cp(_));
    match (&meta.observe, observed) {
        (Some(observe), true) => {
            let expected = recompute_touched(instr);
            if observe.touched.as_ref() != expected.as_slice() {
                diags.push(Diagnostic::new(
                    "PL041",
                    path,
                    format!(
                        "touched set {:?} disagrees with operands/output ({expected:?})",
                        observe.touched
                    ),
                ));
            }
        }
        (None, false) => {}
        (Some(_), false) => diags.push(Diagnostic::new(
            "PL041",
            path,
            "an unobserved instruction carries observation metadata",
        )),
        (None, true) => diags.push(Diagnostic::new(
            "PL041",
            path,
            "a CP instruction carries no observation metadata",
        )),
    }
}

// ---------------------------------------------------------------------------
// PL042: definite assignment (forward dataflow over the block tree)
// ---------------------------------------------------------------------------

fn walk_defs(
    t: &Pools,
    blocks: &[VmBlock],
    path: &str,
    defined: &mut [bool],
    diags: &mut Vec<Diagnostic>,
) {
    for (i, block) in blocks.iter().enumerate() {
        let bpath = format!("{path}/b{i}");
        match block {
            VmBlock::Generic { code, .. } => {
                check_list_defs(t, code, &bpath, defined, diags);
            }
            VmBlock::If {
                pred,
                then_blocks,
                else_blocks,
            } => {
                check_pred_defs(t, pred, &format!("{bpath}/pred"), defined, diags);
                let mut then_defs = defined.to_vec();
                walk_defs(
                    t,
                    then_blocks,
                    &format!("{bpath}/then"),
                    &mut then_defs,
                    diags,
                );
                let mut else_defs = defined.to_vec();
                walk_defs(
                    t,
                    else_blocks,
                    &format!("{bpath}/else"),
                    &mut else_defs,
                    diags,
                );
                // Join: defined on either path. Only temporaries are
                // checked strictly (they never cross blocks), so the
                // union join is sound — mirrors PL020 on the tree.
                for (d, (a, b)) in defined.iter_mut().zip(then_defs.iter().zip(&else_defs)) {
                    *d = *d || *a || *b;
                }
            }
            VmBlock::While { pred, body } => {
                // Loop fixpoint: seed loop-carried definitions with a
                // silent pass (the transfer function only grows the set
                // for checked temporaries, so one pass reaches the
                // fixpoint), then report against the stable state.
                let mut seeded = defined.to_vec();
                let mut sink = Vec::new();
                check_pred_defs(t, pred, "", &mut seeded, &mut sink);
                walk_defs(t, body, "", &mut seeded, &mut sink);
                check_pred_defs(t, pred, &format!("{bpath}/pred"), defined, diags);
                for (d, s) in defined.iter_mut().zip(&seeded) {
                    *d = *d || *s;
                }
                walk_defs(t, body, &format!("{bpath}/body"), defined, diags);
            }
            VmBlock::For {
                var,
                from,
                to,
                body,
            } => {
                check_pred_defs(t, from, &format!("{bpath}/from"), defined, diags);
                check_pred_defs(t, to, &format!("{bpath}/to"), defined, diags);
                // The one walk that reads the loop variable's slot also
                // range-checks it (PL040).
                match defined.get_mut(*var as usize) {
                    Some(d) => *d = true,
                    None => diags.push(Diagnostic::new(
                        "PL040",
                        &bpath,
                        format!("for-loop variable symbol {var} out of range"),
                    )),
                }
                let mut seeded = defined.to_vec();
                let mut sink = Vec::new();
                walk_defs(t, body, "", &mut seeded, &mut sink);
                for (d, s) in defined.iter_mut().zip(&seeded) {
                    *d = *d || *s;
                }
                walk_defs(t, body, &format!("{bpath}/body"), defined, diags);
            }
        }
    }
}

fn check_pred_defs(
    t: &Pools,
    pred: &VmPredicate,
    path: &str,
    defined: &mut [bool],
    diags: &mut Vec<Diagnostic>,
) {
    check_list_defs(t, &pred.code, path, defined, diags);
}

fn check_list_defs(
    t: &Pools,
    code: &[VmInstr],
    path: &str,
    defined: &mut [bool],
    diags: &mut Vec<Diagnostic>,
) {
    for (k, instr) in code.iter().enumerate() {
        check_instr_defs(t, instr, &format!("{path}/instr {k}"), defined, diags);
    }
}

fn check_instr_defs(
    t: &Pools,
    instr: &VmInstr,
    path: &str,
    defined: &mut [bool],
    diags: &mut Vec<Diagnostic>,
) {
    let require = |sym: u32, defined: &[bool], diags: &mut Vec<Diagnostic>| {
        let Some(name) = t.sym_name(sym) else {
            return; // PL040 reported the range error
        };
        if is_temp_name(name) && !defined.get(sym as usize).copied().unwrap_or(false) {
            diags.push(Diagnostic::new(
                "PL042",
                path.to_string(),
                format!("temporary {name} (slot {sym}) is read before any write"),
            ));
        }
    };
    match &instr.op {
        VmOp::Cp(OpCode::RmVar) => {
            for arg in instr.args.iter() {
                if let Arg::Slot(s) = arg {
                    if let Some(d) = defined.get_mut(*s as usize) {
                        *d = false;
                    }
                }
            }
            return;
        }
        VmOp::Fused { spec } => {
            if let Some(spec) = t.fused.get(*spec as usize) {
                for step in &spec.steps {
                    for arg in step.args.iter() {
                        if let FusedArg::Slot(s) = arg {
                            require(*s, defined, diags);
                        }
                    }
                }
            }
        }
        VmOp::MrJob { job } => {
            if let Some(job) = t.mr_jobs.get(*job as usize) {
                let mut in_job = vec![false; t.symbols.len()];
                for op in &job.ops {
                    for arg in op.args.iter() {
                        if let Arg::Slot(s) = arg {
                            if !in_job.get(*s as usize).copied().unwrap_or(false) {
                                require(*s, defined, diags);
                            }
                        }
                    }
                    if let Some(out) = op.out {
                        if let Some(d) = in_job.get_mut(out as usize) {
                            *d = true;
                        }
                    }
                }
                for op in &job.ops {
                    if let Some(out) = op.out {
                        if let Some(d) = defined.get_mut(out as usize) {
                            *d = true;
                        }
                    }
                }
                for sym in &job.outputs {
                    if let Some(d) = defined.get_mut(*sym as usize) {
                        *d = true;
                    }
                }
            }
            return;
        }
        _ => {
            for arg in instr.args.iter() {
                if let Arg::Slot(s) = arg {
                    require(*s, defined, diags);
                }
            }
        }
    }
    if let Some(out) = instr.out {
        if let Some(d) = defined.get_mut(out as usize) {
            *d = true;
        }
    }
}

// ---------------------------------------------------------------------------
// PL043: dead stores and leaked buffers (straight-line, temporaries only)
// ---------------------------------------------------------------------------

/// Per straight-line list: a temporary overwritten with no intervening
/// read is a dead store; a temporary still unread (and not `rmvar`ed) at
/// the end of its list is a leaked buffer — temps never escape their
/// list, so nothing downstream can ever read it. `exempt` carries the
/// predicate result symbol, which the *runtime* reads after the list.
fn check_list_liveness(
    t: &Pools,
    code: &[VmInstr],
    path: &str,
    exempt: Option<u32>,
    diags: &mut Vec<Diagnostic>,
) {
    // sym -> (instr index of last write, read since that write)
    let mut pending: BTreeMap<u32, (usize, bool)> = BTreeMap::new();
    let read = |sym: u32, pending: &mut BTreeMap<u32, (usize, bool)>| {
        if let Some(entry) = pending.get_mut(&sym) {
            entry.1 = true;
        }
    };
    for (k, instr) in code.iter().enumerate() {
        match &instr.op {
            VmOp::Cp(OpCode::RmVar) => {
                for arg in instr.args.iter() {
                    if let Arg::Slot(s) = arg {
                        pending.remove(s); // evicted, not leaked
                    }
                }
                continue;
            }
            VmOp::Fused { spec } => {
                if let Some(spec) = t.fused.get(*spec as usize) {
                    for step in &spec.steps {
                        for arg in step.args.iter() {
                            if let FusedArg::Slot(s) = arg {
                                read(*s, &mut pending);
                            }
                        }
                    }
                }
            }
            VmOp::MrJob { job } => {
                if let Some(job) = t.mr_jobs.get(*job as usize) {
                    for op in &job.ops {
                        for arg in op.args.iter() {
                            if let Arg::Slot(s) = arg {
                                read(*s, &mut pending);
                            }
                        }
                        if let Some(out) = op.out {
                            if t.sym_name(out).is_some_and(is_temp_name) {
                                pending.insert(out, (k, false));
                            }
                        }
                    }
                    for sym in &job.outputs {
                        // Exported to HDFS: written and immediately used.
                        if t.sym_name(*sym).is_some_and(is_temp_name) {
                            pending.insert(*sym, (k, true));
                        }
                    }
                }
                continue;
            }
            _ => {
                for arg in instr.args.iter() {
                    if let Arg::Slot(s) = arg {
                        read(*s, &mut pending);
                    }
                }
            }
        }
        if let Some(out) = instr.out {
            let is_temp = t.sym_name(out).is_some_and(is_temp_name);
            if is_temp {
                if let Some((prev, false)) = pending.get(&out).copied() {
                    diags.push(Diagnostic::new(
                        "PL043",
                        format!("{path}/instr {k}"),
                        format!(
                            "dead store: temporary {} written at instr {prev} is overwritten unread",
                            t.symbols.name(out)
                        ),
                    ));
                }
                pending.insert(out, (k, false));
            }
        }
    }
    for (sym, (at, read)) in pending {
        if !read && Some(sym) != exempt {
            diags.push(Diagnostic::new(
                "PL043",
                format!("{path}/instr {at}"),
                format!(
                    "leaked buffer: temporary {} is written but never read or removed",
                    t.symbols.name(sym)
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// PL044: fused-chain well-formedness
// ---------------------------------------------------------------------------

fn kind_arity(kind: &FusedOpKind) -> usize {
    match kind {
        FusedOpKind::MM(_) | FusedOpKind::MS(_) | FusedOpKind::SM(_) => 2,
        FusedOpKind::Unary(_) => 1,
    }
}

fn kind_matrix_positions(kind: &FusedOpKind) -> &'static [usize] {
    match kind {
        FusedOpKind::MM(_) => &[0, 1],
        FusedOpKind::MS(_) => &[0],
        FusedOpKind::SM(_) => &[1],
        FusedOpKind::Unary(_) => &[0],
    }
}

fn check_fused_specs(t: &Pools, diags: &mut Vec<Diagnostic>) {
    for (i, spec) in t.fused.iter().enumerate() {
        let path = format!("vm/fused {i}");
        if spec.steps.len() < 2 {
            diags.push(Diagnostic::new(
                "PL044",
                &path,
                format!(
                    "chain has {} steps (fusion requires at least 2)",
                    spec.steps.len()
                ),
            ));
        }
        if spec.rows == 0 || spec.cols == 0 {
            diags.push(Diagnostic::new(
                "PL044",
                &path,
                format!("chain shape {}x{} has no cells", spec.rows, spec.cols),
            ));
        }
        for (k, step) in spec.steps.iter().enumerate() {
            let arity = kind_arity(&step.kind);
            if step.args.len() != arity {
                diags.push(Diagnostic::new(
                    "PL044",
                    &path,
                    format!(
                        "step {k} carries {} operands (kind requires {arity})",
                        step.args.len()
                    ),
                ));
                continue;
            }
            let matrix = kind_matrix_positions(&step.kind);
            let mut flow_in_matrix = 0usize;
            for (p, arg) in step.args.iter().enumerate() {
                if *arg == FusedArg::Flow {
                    if matrix.contains(&p) {
                        flow_in_matrix += 1;
                    } else {
                        diags.push(Diagnostic::new(
                            "PL044",
                            &path,
                            format!("step {k} threads the chain value into scalar position {p}"),
                        ));
                    }
                }
            }
            if k == 0 && flow_in_matrix > 0 {
                diags.push(Diagnostic::new(
                    "PL044",
                    &path,
                    "step 0 consumes the chain value before any step produced it",
                ));
            }
            if k > 0 && flow_in_matrix == 0 {
                diags.push(Diagnostic::new(
                    "PL044",
                    &path,
                    format!("step {k} drops the previous step's value (no Flow operand)"),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// PL045: predicate result binding
// ---------------------------------------------------------------------------

fn check_pred_binding(t: &Pools, pred: &VmPredicate, path: &str, diags: &mut Vec<Diagnostic>) {
    if pred.code.is_empty() {
        return;
    }
    let binds = pred.code.iter().any(|instr| {
        if instr.out == Some(pred.result) {
            return true;
        }
        if let VmOp::MrJob { job } = &instr.op {
            if let Some(job) = t.mr_jobs.get(*job as usize) {
                return job.outputs.contains(&pred.result);
            }
        }
        false
    });
    if !binds {
        let name = t
            .sym_name(pred.result)
            .unwrap_or("<out of range>")
            .to_string();
        diags.push(Diagnostic::new(
            "PL045",
            path,
            format!("no predicate instruction binds result symbol {name}"),
        ));
    }
}

// ---------------------------------------------------------------------------
// PL046/PL047: lowering fidelity against the source instruction tree
// ---------------------------------------------------------------------------

fn match_block_trees(
    t: &Pools,
    src: &[RtBlock],
    vm: &[VmBlock],
    path: &str,
    diags: &mut Vec<Diagnostic>,
) {
    if src.len() != vm.len() {
        diags.push(Diagnostic::new(
            "PL046",
            path,
            format!(
                "{} source blocks lowered to {} VM blocks",
                src.len(),
                vm.len()
            ),
        ));
        return;
    }
    for (i, (s, v)) in src.iter().zip(vm).enumerate() {
        let bpath = format!("{path}/b{i}");
        match (s, v) {
            (
                RtBlock::Generic {
                    source,
                    instructions,
                    requires_recompile,
                },
                VmBlock::Generic {
                    source: vsource,
                    code,
                    requires_recompile: vrr,
                },
            ) => {
                if source != vsource {
                    diags.push(Diagnostic::new(
                        "PL046",
                        &bpath,
                        format!("source block id {} lowered as {}", source.0, vsource.0),
                    ));
                }
                if requires_recompile != vrr {
                    diags.push(Diagnostic::new(
                        "PL046",
                        &bpath,
                        format!("requires_recompile {requires_recompile} lowered as {vrr}"),
                    ));
                }
                match_code(t, instructions, code, &bpath, diags);
            }
            (
                RtBlock::If {
                    pred,
                    then_blocks,
                    else_blocks,
                    ..
                },
                VmBlock::If {
                    pred: vpred,
                    then_blocks: vthen,
                    else_blocks: velse,
                },
            ) => {
                match_pred(t, pred, vpred, &format!("{bpath}/pred"), diags);
                match_block_trees(t, then_blocks, vthen, &format!("{bpath}/then"), diags);
                match_block_trees(t, else_blocks, velse, &format!("{bpath}/else"), diags);
            }
            (
                RtBlock::While { pred, body, .. },
                VmBlock::While {
                    pred: vpred,
                    body: vbody,
                },
            ) => {
                match_pred(t, pred, vpred, &format!("{bpath}/pred"), diags);
                match_block_trees(t, body, vbody, &format!("{bpath}/body"), diags);
            }
            (
                RtBlock::For {
                    var,
                    from,
                    to,
                    body,
                    ..
                },
                VmBlock::For {
                    var: vvar,
                    from: vfrom,
                    to: vto,
                    body: vbody,
                },
            ) => {
                if t.sym_name(*vvar) != Some(var.as_str()) {
                    diags.push(Diagnostic::new(
                        "PL046",
                        &bpath,
                        format!("loop variable {var} lowered to slot {vvar} with another name"),
                    ));
                }
                match_pred(t, from, vfrom, &format!("{bpath}/from"), diags);
                match_pred(t, to, vto, &format!("{bpath}/to"), diags);
                match_block_trees(t, body, vbody, &format!("{bpath}/body"), diags);
            }
            _ => {
                diags.push(Diagnostic::new(
                    "PL046",
                    &bpath,
                    "source and VM block kinds disagree",
                ));
            }
        }
    }
}

fn match_pred(
    t: &Pools,
    src: &Predicate,
    vm: &VmPredicate,
    path: &str,
    diags: &mut Vec<Diagnostic>,
) {
    if t.sym_name(vm.result) != Some(src.result_var.as_str()) {
        diags.push(Diagnostic::new(
            "PL046",
            path,
            format!(
                "predicate result {} lowered to slot {} with another name",
                src.result_var, vm.result
            ),
        ));
    }
    match_code(t, &src.instructions, &vm.code, path, diags);
}

/// Per-list read counts of every variable in a source instruction list —
/// an independent reimplementation of the fusion planner's use counting
/// (CP operands excluding `rmvar`; MR-job inputs, operator operands, and
/// outputs), so PL046 re-proves single-use rather than trusting it.
fn source_use_counts(instrs: &[Instruction]) -> HashMap<&str, usize> {
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for instr in instrs {
        match instr {
            Instruction::Cp(cp) => {
                if matches!(cp.opcode, OpCode::RmVar) {
                    continue;
                }
                for op in &cp.operands {
                    if let Operand::Var(name) = op {
                        *counts.entry(&**name).or_insert(0) += 1;
                    }
                }
            }
            Instruction::MrJob(job) => {
                for (name, _) in job.hdfs_inputs.iter().chain(&job.broadcast_inputs) {
                    *counts.entry(&**name).or_insert(0) += 1;
                }
                for mr in job.mappers.iter().chain(&job.reducers) {
                    for op in &mr.operands {
                        if let Operand::Var(name) = op {
                            *counts.entry(&**name).or_insert(0) += 1;
                        }
                    }
                }
                for (name, _) in &job.outputs {
                    *counts.entry(&**name).or_insert(0) += 1;
                }
            }
        }
    }
    counts
}

/// Walk a source list and its lowered code in lockstep: a fused VM
/// instruction consumes a run of source CP instructions (whose fusibility
/// is re-proved from scratch); everything else must correspond 1:1.
fn match_code(
    t: &Pools,
    src: &[Instruction],
    code: &[VmInstr],
    path: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let counts = source_use_counts(src);
    let mut j = 0usize; // next source instruction
    for (k, vi) in code.iter().enumerate() {
        let ipath = format!("{path}/instr {k}");
        let Some(first) = src.get(j) else {
            diags.push(Diagnostic::new(
                "PL046",
                &ipath,
                "bytecode continues past the end of the source list",
            ));
            return;
        };
        match &vi.op {
            VmOp::Fused { spec } => {
                let Some(spec) = t.fused.get(*spec as usize) else {
                    return; // PL040 reported the range error
                };
                let n = spec.steps.len();
                let Some(window) = src.get(j..j + n) else {
                    diags.push(Diagnostic::new(
                        "PL046",
                        &ipath,
                        format!(
                            "{n}-step chain needs {n} source instructions, {} remain",
                            src.len() - j
                        ),
                    ));
                    return;
                };
                let mut cps: Vec<&CpInstruction> = Vec::with_capacity(n);
                for instr in window {
                    match instr {
                        Instruction::Cp(cp) => cps.push(cp),
                        Instruction::MrJob(_) => {
                            diags.push(Diagnostic::new(
                                "PL046",
                                &ipath,
                                "fused chain spans an MR job in the source list",
                            ));
                            return;
                        }
                    }
                }
                check_chain_fidelity(t, vi, spec, &cps, &counts, &ipath, diags);
                j += n;
            }
            VmOp::MrJob { job } => {
                let Instruction::MrJob(src_job) = first else {
                    diags.push(Diagnostic::new(
                        "PL046",
                        &ipath,
                        "MR-job instruction lowered from a CP source instruction",
                    ));
                    return;
                };
                if let Some(vm_job) = t.mr_jobs.get(*job as usize) {
                    match_mr_job(t, src_job, vm_job, &ipath, diags);
                }
                j += 1;
            }
            VmOp::Cp(_) => {
                let Instruction::Cp(cp) = first else {
                    diags.push(Diagnostic::new(
                        "PL046",
                        &ipath,
                        "CP instruction lowered from an MR-job source instruction",
                    ));
                    return;
                };
                match_cp(t, cp, vi, &ipath, diags);
                check_cp_meta_fidelity(t, cp, vi, &ipath, diags);
                j += 1;
            }
        }
    }
    if j != src.len() {
        diags.push(Diagnostic::new(
            "PL046",
            path,
            format!("{} source instructions were never lowered", src.len() - j),
        ));
    }
}

fn arg_matches(t: &Pools, arg: &Arg, operand: &Operand) -> bool {
    match (arg, operand) {
        (Arg::Slot(s), Operand::Var(name)) => t.sym_name(*s) == Some(&**name),
        (Arg::Const(c), Operand::Lit(v)) => t.consts.get(*c as usize) == Some(v),
        _ => false,
    }
}

/// 1:1 correspondence of a non-fused CP lowering. Opcode fidelity is
/// equality: the lowering copies the source [`OpCode`] (HDFS path
/// included) into [`VmOp::Cp`].
fn match_cp(t: &Pools, cp: &CpInstruction, vi: &VmInstr, path: &str, diags: &mut Vec<Diagnostic>) {
    if !matches!(&vi.op, VmOp::Cp(lowered) if *lowered == cp.opcode) {
        diags.push(Diagnostic::new(
            "PL046",
            path,
            format!("source opcode {:?} lowered as {:?}", cp.opcode, vi.op),
        ));
        return;
    }
    if vi.args.len() != cp.operands.len() {
        diags.push(Diagnostic::new(
            "PL046",
            path,
            format!(
                "{} source operands lowered to {} VM operands",
                cp.operands.len(),
                vi.args.len()
            ),
        ));
    } else {
        for (p, (arg, operand)) in vi.args.iter().zip(&cp.operands).enumerate() {
            if !arg_matches(t, arg, operand) {
                diags.push(Diagnostic::new(
                    "PL046",
                    path,
                    format!("operand {p} {operand:?} lowered as {arg:?}"),
                ));
            }
        }
    }
    let out_name = vi.out.and_then(|s| t.sym_name(s));
    if out_name != cp.output.as_deref() {
        diags.push(Diagnostic::new(
            "PL046",
            path,
            format!("output {:?} lowered as {out_name:?}", cp.output),
        ));
    }
}

fn match_mr_op(t: &Pools, op: &MrOperator, vi: &VmInstr, path: &str, diags: &mut Vec<Diagnostic>) {
    if !matches!(&vi.op, VmOp::Cp(lowered) if *lowered == op.opcode) {
        diags.push(Diagnostic::new(
            "PL046",
            path,
            format!("MR operator {:?} lowered as {:?}", op.opcode, vi.op),
        ));
        return;
    }
    if vi.args.len() != op.operands.len() {
        diags.push(Diagnostic::new(
            "PL046",
            path,
            format!(
                "{} MR operands lowered to {} VM operands",
                op.operands.len(),
                vi.args.len()
            ),
        ));
    } else {
        for (p, (arg, operand)) in vi.args.iter().zip(&op.operands).enumerate() {
            if !arg_matches(t, arg, operand) {
                diags.push(Diagnostic::new(
                    "PL046",
                    path,
                    format!("MR operand {p} {operand:?} lowered as {arg:?}"),
                ));
            }
        }
    }
    let out_name = vi.out.and_then(|s| t.sym_name(s));
    if out_name != op.output.as_deref() {
        diags.push(Diagnostic::new(
            "PL046",
            path,
            format!("MR output {:?} lowered as {out_name:?}", op.output),
        ));
    }
}

fn match_mr_job(
    t: &Pools,
    src: &reml_runtime::instructions::MrJobInstruction,
    vm: &VmMrJob,
    path: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let src_ops: Vec<&MrOperator> = src.mappers.iter().chain(&src.reducers).collect();
    if vm.ops.len() != src_ops.len() {
        diags.push(Diagnostic::new(
            "PL046",
            path,
            format!(
                "{} MR operators lowered to {} VM operators",
                src_ops.len(),
                vm.ops.len()
            ),
        ));
    } else {
        for (k, (op, vi)) in src_ops.iter().zip(&vm.ops).enumerate() {
            match_mr_op(t, op, vi, &format!("{path}/mr op {k}"), diags);
        }
    }
    if vm.outputs.len() != src.outputs.len() {
        diags.push(Diagnostic::new(
            "PL046",
            path,
            format!(
                "{} MR-job outputs lowered to {} exports",
                src.outputs.len(),
                vm.outputs.len()
            ),
        ));
    } else {
        for (k, ((name, _), sym)) in src.outputs.iter().zip(&vm.outputs).enumerate() {
            if t.sym_name(*sym) != Some(&**name) {
                diags.push(Diagnostic::new(
                    "PL046",
                    path,
                    format!("MR-job output {k} {name} lowered to slot {sym} with another name"),
                ));
            }
        }
    }
}

/// `CpInstruction::predicted_bytes`, reimplemented: sum of operand and
/// output size estimates, `None` when one is unknown or the sum overflows.
fn predicted_sum(cp: &CpInstruction) -> Option<u64> {
    let mut predicted = Some(0u64);
    for mc in cp.operand_mcs.iter().chain(std::iter::once(&cp.output_mc)) {
        predicted = match (predicted, mc.estimated_size_bytes()) {
            (Some(acc), Some(b)) => acc.checked_add(b),
            _ => None,
        };
    }
    predicted
}

fn cp_flops(cp: &CpInstruction) -> Option<f64> {
    reml_runtime::flops::predicted_flops(&cp.opcode, &cp.operand_mcs, &cp.output_mc)
}

/// PL047 for a non-fused CP instruction: the stamped prediction, bound,
/// and FLOP estimate must equal a fresh recomputation from the source.
fn check_cp_meta_fidelity(
    t: &Pools,
    cp: &CpInstruction,
    vi: &VmInstr,
    path: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(meta) = t
        .metas
        .get(vi.meta as usize)
        .and_then(|m| m.observe.as_ref())
    else {
        return; // PL040/PL041 reported the missing metadata
    };
    let predicted = predicted_sum(cp);
    if meta.predicted_bytes != predicted {
        diags.push(Diagnostic::new(
            "PL047",
            path,
            format!(
                "predicted_bytes {:?} disagrees with recomputation {predicted:?}",
                meta.predicted_bytes
            ),
        ));
    }
    if meta.bound_bytes != cp.bound_bytes {
        diags.push(Diagnostic::new(
            "PL047",
            path,
            format!(
                "bound_bytes {:?} disagrees with the stamped source bound {:?}",
                meta.bound_bytes, cp.bound_bytes
            ),
        ));
    }
    let flops = cp_flops(cp);
    if meta.predicted_flops != flops {
        diags.push(Diagnostic::new(
            "PL047",
            path,
            format!(
                "predicted_flops {:?} disagrees with recomputation {flops:?}",
                meta.predicted_flops
            ),
        ));
    }
}

/// Positions holding matrices for a source opcode (the fusion planner's
/// table, restated).
fn source_matrix_positions(op: &OpCode) -> &'static [usize] {
    match op {
        OpCode::BinaryMM(_) => &[0, 1],
        OpCode::BinaryMS(_) => &[0],
        OpCode::BinarySM(_) => &[1],
        OpCode::UnaryM(_) => &[0],
        _ => &[],
    }
}

/// The fusibility shape predicate, reimplemented from the definition:
/// fusible elementwise opcode, output present, known non-empty output
/// dims, every matrix operand's dims equal to the output's.
fn source_fusible_shape(cp: &CpInstruction) -> Option<(usize, usize)> {
    if !cp.opcode.is_fusible_elementwise() || cp.output.is_none() {
        return None;
    }
    let rows = cp.output_mc.rows?;
    let cols = cp.output_mc.cols?;
    if rows == 0 || cols == 0 {
        return None;
    }
    for &p in source_matrix_positions(&cp.opcode) {
        let mc = cp.operand_mcs.get(p)?;
        if mc.rows != Some(rows) || mc.cols != Some(cols) {
            return None;
        }
    }
    Some((rows as usize, cols as usize))
}

fn kind_matches_opcode(kind: &FusedOpKind, opcode: &OpCode) -> bool {
    matches!(
        (kind, opcode),
        (FusedOpKind::MM(a), OpCode::BinaryMM(b)) if a == b
    ) || matches!(
        (kind, opcode),
        (FusedOpKind::MS(a), OpCode::BinaryMS(b)) if a == b
    ) || matches!(
        (kind, opcode),
        (FusedOpKind::SM(a), OpCode::BinarySM(b)) if a == b
    ) || matches!(
        (kind, opcode),
        (FusedOpKind::Unary(a), OpCode::UnaryM(b)) if a == b
    )
}

/// Re-prove a fused chain's safety from the source instructions alone —
/// independently of the greedy planner — then check the lowering is
/// faithful to the source window.
fn check_chain_fidelity(
    t: &Pools,
    vi: &VmInstr,
    spec: &FusedSpec,
    cps: &[&CpInstruction],
    use_counts: &HashMap<&str, usize>,
    path: &str,
    diags: &mut Vec<Diagnostic>,
) {
    // 1. Shape conformance, step to step (PL046).
    let mut shape_ok = true;
    for (k, cp) in cps.iter().enumerate() {
        match source_fusible_shape(cp) {
            None => {
                diags.push(Diagnostic::new(
                    "PL046",
                    path,
                    format!("chain step {k} ({:?}) is not fusible", cp.opcode),
                ));
                shape_ok = false;
            }
            Some(shape) => {
                if shape != (spec.rows, spec.cols) {
                    diags.push(Diagnostic::new(
                        "PL046",
                        path,
                        format!(
                            "chain step {k} shape {shape:?} disagrees with the spec ({}x{})",
                            spec.rows, spec.cols
                        ),
                    ));
                    shape_ok = false;
                }
            }
        }
    }

    // 2. Intermediates: single-use temporaries whose only use is the next
    //    step's matrix positions, never aliasing the chain output (PL046).
    let out_name = cps.last().and_then(|cp| cp.output.as_deref());
    let mut intermediates: Vec<&str> = Vec::new();
    for (k, cp) in cps[..cps.len().saturating_sub(1)].iter().enumerate() {
        let Some(inter) = cp.output.as_deref() else {
            diags.push(Diagnostic::new(
                "PL046",
                path,
                format!("chain step {k} has no output to thread"),
            ));
            continue;
        };
        if !inter.starts_with(TEMP_PREFIX) {
            diags.push(Diagnostic::new(
                "PL046",
                path,
                format!("chain elides {inter}, which is not a compiler temporary"),
            ));
        }
        if Some(inter) == out_name {
            diags.push(Diagnostic::new(
                "PL046",
                path,
                format!("chain output {inter} aliases a still-live intermediate"),
            ));
        }
        if intermediates.contains(&inter) {
            diags.push(Diagnostic::new(
                "PL046",
                path,
                format!("intermediate {inter} is produced twice within the chain"),
            ));
        }
        let next = cps[k + 1];
        let matrix_uses = source_matrix_positions(&next.opcode)
            .iter()
            .filter(|&&p| next.operands.get(p).and_then(Operand::as_var) == Some(inter))
            .count();
        let total_uses = use_counts.get(inter).copied().unwrap_or(0);
        if matrix_uses == 0 || total_uses != matrix_uses {
            diags.push(Diagnostic::new(
                "PL046",
                path,
                format!(
                    "intermediate {inter} has {total_uses} uses in its list but {matrix_uses} \
                     in the next step's matrix positions — eliding it is observable"
                ),
            ));
        }
        intermediates.push(inter);
    }

    // 3. Step-by-step lowering correspondence (PL046).
    if spec.steps.len() == cps.len() && shape_ok {
        for (k, (step, cp)) in spec.steps.iter().zip(cps).enumerate() {
            if !kind_matches_opcode(&step.kind, &cp.opcode) {
                diags.push(Diagnostic::new(
                    "PL046",
                    path,
                    format!(
                        "chain step {k} kind disagrees with source opcode {:?}",
                        cp.opcode
                    ),
                ));
                continue;
            }
            if step.args.len() != cp.operands.len() {
                diags.push(Diagnostic::new(
                    "PL046",
                    path,
                    format!(
                        "chain step {k}: {} source operands lowered to {} step operands",
                        cp.operands.len(),
                        step.args.len()
                    ),
                ));
                continue;
            }
            let prev_out = if k > 0 {
                cps[k - 1].output.as_deref()
            } else {
                None
            };
            let matrix = source_matrix_positions(&cp.opcode);
            for (p, (arg, operand)) in step.args.iter().zip(&cp.operands).enumerate() {
                let expect_flow = matrix.contains(&p)
                    && operand.as_var().is_some()
                    && operand.as_var() == prev_out;
                let ok = if expect_flow {
                    *arg == FusedArg::Flow
                } else {
                    match (arg, operand) {
                        (FusedArg::Slot(s), Operand::Var(name)) => t.sym_name(*s) == Some(&**name),
                        (FusedArg::Const(c), Operand::Lit(v)) => {
                            t.consts.get(*c as usize) == Some(v)
                        }
                        _ => false,
                    }
                };
                if !ok {
                    diags.push(Diagnostic::new(
                        "PL046",
                        path,
                        format!("chain step {k} operand {p} {operand:?} lowered as {arg:?}"),
                    ));
                }
            }
        }
    }
    let vm_out = vi.out.and_then(|s| t.sym_name(s));
    if vm_out != out_name {
        diags.push(Diagnostic::new(
            "PL046",
            path,
            format!("chain output {out_name:?} lowered as {vm_out:?}"),
        ));
    }
}
