//! Mutation testing for the PL040 bytecode verifier: seed targeted
//! corruptions into real lowered programs (swapped slots, off-by-one
//! pool indices, forged metadata, reordered fused steps, ...) and assert
//! the verifier flags them. Sites are enumerated deterministically — no
//! randomness — so a change in catch rate is a change in the rules, not
//! in the dice.
//!
//! The harness asserts (a) every baseline program lints clean, and
//! (b) the overall catch rate across all mutation classes is ≥ 95%,
//! printing every missed mutant so the gap is documented rather than
//! silent.

use reml_cluster::ClusterConfig;
use reml_compiler::pipeline::{analyze_program, compile};
use reml_compiler::MrHeapAssignment;
use reml_matrix::BinaryOp;
use reml_planlint::{lint_vm, lint_vm_program};
use reml_runtime::instructions::OpCode;
use reml_runtime::program::RuntimeProgram;
use reml_runtime::vm::{
    Arg, FusedArg, ObserveMeta, VmBlock, VmInstr, VmLowerOptions, VmOp, VmProgram,
};
use reml_runtime::ScalarValue;
use reml_scripts::{DataShape, Scenario, ScriptSpec};

/// Cap on enumerated sites per mutation class per fixture, to bound
/// runtime while keeping coverage broad.
const SITE_CAP: usize = 24;

struct Fixture {
    name: String,
    runtime: RuntimeProgram,
    vm: VmProgram,
}

fn fixture(make: fn() -> ScriptSpec, scenario: Scenario, cp_heap: u64, mr_heap: u64) -> Fixture {
    let script = make();
    let shape = DataShape {
        scenario,
        cols: 100,
        sparsity: 1.0,
    };
    let cfg = script.compile_config(
        shape,
        ClusterConfig::paper_cluster(),
        cp_heap,
        MrHeapAssignment::uniform(mr_heap),
    );
    let analyzed = analyze_program(&script.source).expect("fixture analyzes");
    let compiled = compile(&analyzed, &cfg).expect("fixture compiles");
    let vm = compiled.runtime.lower_vm(VmLowerOptions { fuse: true });
    Fixture {
        name: format!("{} {} cp={cp_heap}", script.name, scenario.name()),
        runtime: compiled.runtime,
        vm,
    }
}

fn fixtures() -> Vec<Fixture> {
    vec![
        fixture(reml_scripts::linreg_ds, Scenario::XS, 4096, 1024),
        fixture(reml_scripts::l2svm, Scenario::XS, 4096, 1024),
        fixture(reml_scripts::linreg_cg, Scenario::S, 4096, 1024),
        // A small CP heap at the M scale forces MR jobs into the plan, so
        // the MR-targeted mutation classes have sites to corrupt.
        fixture(reml_scripts::linreg_ds, Scenario::M, 1024, 1024),
    ]
}

/// Visit every instruction in the program mutably: block code, predicate
/// code, and MR-job operators.
fn visit_instrs_mut(vm: &mut VmProgram, f: &mut dyn FnMut(&mut VmInstr)) {
    fn blocks(bs: &mut [VmBlock], f: &mut dyn FnMut(&mut VmInstr)) {
        for b in bs {
            match b {
                VmBlock::Generic { code, .. } => code.iter_mut().for_each(&mut *f),
                VmBlock::If {
                    pred,
                    then_blocks,
                    else_blocks,
                } => {
                    pred.code.iter_mut().for_each(&mut *f);
                    blocks(then_blocks, f);
                    blocks(else_blocks, f);
                }
                VmBlock::While { pred, body } => {
                    pred.code.iter_mut().for_each(&mut *f);
                    blocks(body, f);
                }
                VmBlock::For { from, to, body, .. } => {
                    from.code.iter_mut().for_each(&mut *f);
                    to.code.iter_mut().for_each(&mut *f);
                    blocks(body, f);
                }
            }
        }
    }
    let mut jobs = std::mem::take(&mut vm.mr_jobs);
    blocks(&mut vm.blocks, f);
    for job in &mut jobs {
        job.ops.iter_mut().for_each(&mut *f);
    }
    vm.mr_jobs = jobs;
}

/// Pool sizes captured before mutation, so mutators can aim out-of-range
/// or at a different in-range entry without borrowing the program.
#[derive(Clone, Copy)]
struct Sizes {
    symbols: u32,
    consts: u32,
    metas: u32,
    fused: u32,
    mr_jobs: u32,
}

fn sizes(vm: &VmProgram) -> Sizes {
    Sizes {
        symbols: vm.symbols.len() as u32,
        consts: vm.consts.len() as u32,
        metas: vm.metas.len() as u32,
        fused: vm.fused.len() as u32,
        mr_jobs: vm.mr_jobs.len() as u32,
    }
}

/// Generate one mutant per applicable instruction site (capped).
fn instr_mutants(
    vm: &VmProgram,
    applicable: &dyn Fn(Sizes, &VmInstr) -> bool,
    mutate: &dyn Fn(Sizes, &mut VmInstr),
) -> Vec<VmProgram> {
    let sz = sizes(vm);
    let mut count = 0usize;
    let mut probe = vm.clone();
    visit_instrs_mut(&mut probe, &mut |i| {
        if applicable(sz, i) {
            count += 1;
        }
    });
    (0..count.min(SITE_CAP))
        .map(|site| {
            let mut m = vm.clone();
            let mut k = 0usize;
            visit_instrs_mut(&mut m, &mut |i| {
                if applicable(sz, i) {
                    if k == site {
                        mutate(sz, i);
                    }
                    k += 1;
                }
            });
            m
        })
        .collect()
}

/// One mutant per pool entry site (capped), mutating the program wholesale.
fn pool_mutants(
    vm: &VmProgram,
    count: usize,
    mutate: &dyn Fn(&mut VmProgram, usize),
) -> Vec<VmProgram> {
    (0..count.min(SITE_CAP))
        .map(|site| {
            let mut m = vm.clone();
            mutate(&mut m, site);
            m
        })
        .collect()
}

/// A different CP opcode taking the same number of operands, so the swap
/// survives every arity check and only opcode fidelity can catch it.
fn same_arity_swap(op: &VmOp) -> Option<OpCode> {
    let VmOp::Cp(op) = op else { return None };
    Some(match op {
        OpCode::MatMult => OpCode::Solve,
        OpCode::MatMultTransLeft
        | OpCode::MmChain
        | OpCode::Solve
        | OpCode::Append
        | OpCode::AppendR => OpCode::MatMult,
        OpCode::BinaryMM(b) => OpCode::BinaryMM(other_binary(*b)),
        OpCode::BinaryMS(b) => OpCode::BinaryMS(other_binary(*b)),
        OpCode::BinarySM(b) => OpCode::BinarySM(other_binary(*b)),
        OpCode::BinarySS(b) => OpCode::BinarySS(other_binary(*b)),
        OpCode::Tsmm | OpCode::Diag => OpCode::Transpose,
        OpCode::Transpose => OpCode::Diag,
        OpCode::NRow => OpCode::NCol,
        OpCode::NCol | OpCode::CastScalar => OpCode::NRow,
        OpCode::Assign => OpCode::CastMatrix,
        OpCode::CastMatrix => OpCode::Assign,
        _ => return None,
    })
}

fn other_binary(op: BinaryOp) -> BinaryOp {
    if op == BinaryOp::Add {
        BinaryOp::Mul
    } else {
        BinaryOp::Add
    }
}

fn first_slot(instr: &VmInstr) -> Option<usize> {
    instr.args.iter().position(|a| matches!(a, Arg::Slot(_)))
}

fn mutant_classes(vm: &VmProgram) -> Vec<(&'static str, Vec<VmProgram>)> {
    let sz = sizes(vm);
    let mut classes: Vec<(&'static str, Vec<VmProgram>)> = Vec::new();

    // --- operand corruptions -------------------------------------------
    classes.push((
        "slot_swap",
        instr_mutants(
            vm,
            &|sz, i| sz.symbols > 1 && first_slot(i).is_some(),
            &|sz, i| {
                let p = first_slot(i).unwrap();
                if let Arg::Slot(s) = i.args[p] {
                    i.args[p] = Arg::Slot((s + 1) % sz.symbols);
                }
            },
        ),
    ));
    classes.push((
        "slot_oob",
        instr_mutants(vm, &|_, i| first_slot(i).is_some(), &|sz, i| {
            let p = first_slot(i).unwrap();
            i.args[p] = Arg::Slot(sz.symbols);
        }),
    ));
    classes.push((
        "const_oob",
        instr_mutants(
            vm,
            &|_, i| i.args.iter().any(|a| matches!(a, Arg::Const(_))),
            &|sz, i| {
                let p = i
                    .args
                    .iter()
                    .position(|a| matches!(a, Arg::Const(_)))
                    .unwrap();
                i.args[p] = Arg::Const(sz.consts);
            },
        ),
    ));
    // In-bounds constant swap: retarget the first Const operand at a pool
    // entry holding a *different* value (skip when none exists).
    {
        let differing = |c: u32, consts: &[ScalarValue]| -> Option<u32> {
            let v = &consts[c as usize];
            consts.iter().position(|w| w != v).map(|p| p as u32)
        };
        let consts = vm.consts.clone();
        let mut mutants = Vec::new();
        let sz = sizes(vm);
        let mut count = 0usize;
        let mut probe = vm.clone();
        let applicable = |i: &VmInstr| {
            i.args
                .iter()
                .any(|a| matches!(a, Arg::Const(c) if differing(*c, &consts).is_some()))
        };
        visit_instrs_mut(&mut probe, &mut |i| {
            if applicable(i) {
                count += 1;
            }
        });
        for site in 0..count.min(SITE_CAP) {
            let mut m = vm.clone();
            let mut k = 0usize;
            visit_instrs_mut(&mut m, &mut |i| {
                if applicable(i) {
                    if k == site {
                        let p = i
                            .args
                            .iter()
                            .position(
                                |a| matches!(a, Arg::Const(c) if differing(*c, &consts).is_some()),
                            )
                            .unwrap();
                        if let Arg::Const(c) = i.args[p] {
                            i.args[p] = Arg::Const(differing(c, &consts).unwrap());
                        }
                    }
                    k += 1;
                }
            });
            mutants.push(m);
        }
        let _ = sz;
        classes.push(("const_swap", mutants));
    }

    // --- opcode corruptions --------------------------------------------
    // The VM carries the source `OpCode` itself, so both classes are
    // caught by PL046's opcode equality (asserted per class below).
    classes.push((
        "path_forge",
        instr_mutants(
            vm,
            &|_, i| {
                matches!(
                    i.op,
                    VmOp::Cp(OpCode::PersistentRead { .. } | OpCode::PersistentWrite { .. })
                )
            },
            &|_, i| match &mut i.op {
                VmOp::Cp(OpCode::PersistentRead { path } | OpCode::PersistentWrite { path }) => {
                    path.push_str(".forged")
                }
                _ => unreachable!(),
            },
        ),
    ));
    classes.push((
        "opcode_swap",
        instr_mutants(vm, &|_, i| same_arity_swap(&i.op).is_some(), &|_, i| {
            i.op = VmOp::Cp(same_arity_swap(&i.op).unwrap());
        }),
    ));

    // --- output corruptions --------------------------------------------
    classes.push((
        "out_drop",
        instr_mutants(vm, &|_, i| i.out.is_some(), &|_, i| i.out = None),
    ));
    classes.push((
        "out_swap",
        instr_mutants(vm, &|sz, i| sz.symbols > 1 && i.out.is_some(), &|sz, i| {
            i.out = Some((i.out.unwrap() + 1) % sz.symbols)
        }),
    ));

    // --- side-table index corruptions ----------------------------------
    classes.push((
        "meta_oob",
        instr_mutants(vm, &|_, _| true, &|sz, i| i.meta = sz.metas),
    ));
    classes.push((
        "meta_retarget",
        instr_mutants(vm, &|sz, _| sz.metas > 1, &|sz, i| {
            i.meta = (i.meta + 1) % sz.metas
        }),
    ));
    classes.push((
        "spec_oob",
        instr_mutants(vm, &|_, i| matches!(i.op, VmOp::Fused { .. }), &|sz, i| {
            i.op = VmOp::Fused { spec: sz.fused }
        }),
    ));
    classes.push((
        "job_oob",
        instr_mutants(vm, &|_, i| matches!(i.op, VmOp::MrJob { .. }), &|sz, i| {
            i.op = VmOp::MrJob { job: sz.mr_jobs }
        }),
    ));

    // --- metadata forgeries --------------------------------------------
    classes.push((
        "cp_count_forge",
        pool_mutants(vm, sz.metas as usize, &|m, site| {
            m.metas[site].cp_count += 1;
        }),
    ));
    classes.push((
        "mnemonic_forge",
        pool_mutants(vm, sz.metas as usize, &|m, site| {
            m.metas[site].mnemonic = "forged".into();
        }),
    ));
    // Observation metadata belongs exactly to CP instructions outside MR
    // jobs: strip it from observed metas, forge it onto fused-chain and MR
    // metas, and forge its fields on observed metas.
    {
        let (observed, unobserved): (Vec<usize>, Vec<usize>) =
            (0..vm.metas.len()).partition(|&i| vm.metas[i].observe.is_some());
        let observed = &observed[..observed.len().min(SITE_CAP)];
        let unobserved = &unobserved[..unobserved.len().min(SITE_CAP)];
        let flip = |site: &usize| {
            let mut m = vm.clone();
            let meta = &mut m.metas[*site];
            meta.observe = match meta.observe.take() {
                Some(_) => None,
                None => Some(ObserveMeta {
                    predicted_bytes: None,
                    bound_bytes: None,
                    touched: Box::new([]),
                    predicted_flops: None,
                }),
            };
            m
        };
        classes.push((
            "observe_flip",
            observed.iter().chain(unobserved).map(flip).collect(),
        ));
        let forge = |f: &dyn Fn(&mut ObserveMeta)| -> Vec<VmProgram> {
            observed
                .iter()
                .map(|&site| {
                    let mut m = vm.clone();
                    f(m.metas[site].observe.as_mut().expect("observed"));
                    m
                })
                .collect()
        };
        // Append a symbol not already in the touched set.
        classes.push((
            "touched_forge",
            forge(&|o| {
                let extra = (0..sz.symbols).find(|s| !o.touched.contains(s));
                let mut t = o.touched.to_vec();
                t.extend(extra);
                t.sort_unstable();
                o.touched = t.into_boxed_slice();
            }),
        ));
        classes.push((
            "bound_forge",
            forge(&|o| o.bound_bytes = Some(o.bound_bytes.map_or(12_345, |b| b + 8))),
        ));
        classes.push((
            "flops_forge",
            forge(&|o| o.predicted_flops = Some(o.predicted_flops.map_or(7.0, |f| f + 1.0))),
        ));
    }

    // --- fused-chain corruptions ---------------------------------------
    // Reorder: swap the first two distinct steps of a spec.
    {
        let mut mutants = Vec::new();
        for (site, spec) in vm.fused.iter().enumerate() {
            if mutants.len() >= SITE_CAP {
                break;
            }
            let Some(j) = spec
                .steps
                .iter()
                .position(|s| s.kind != spec.steps[0].kind || s.args != spec.steps[0].args)
            else {
                continue; // all steps identical: the swap is a no-op
            };
            let mut m = vm.clone();
            m.fused[site].steps.swap(0, j);
            mutants.push(m);
        }
        classes.push(("fused_step_reorder", mutants));
    }
    classes.push((
        "fused_step_drop",
        pool_mutants(vm, sz.fused as usize, &|m, site| {
            m.fused[site].steps.pop();
        }),
    ));
    // Flow forgery: redirect the first Flow operand at slot 0.
    {
        let mut mutants = Vec::new();
        for (site, spec) in vm.fused.iter().enumerate() {
            if mutants.len() >= SITE_CAP {
                break;
            }
            let Some((k, p)) = spec.steps.iter().enumerate().find_map(|(k, s)| {
                s.args
                    .iter()
                    .position(|a| *a == FusedArg::Flow)
                    .map(|p| (k, p))
            }) else {
                continue;
            };
            let mut m = vm.clone();
            m.fused[site].steps[k].args[p] = FusedArg::Slot(0);
            mutants.push(m);
        }
        classes.push(("flow_forge", mutants));
    }
    // Fused external-slot swap.
    {
        let mut mutants = Vec::new();
        'spec: for (site, spec) in vm.fused.iter().enumerate() {
            if mutants.len() >= SITE_CAP {
                break;
            }
            for (k, step) in spec.steps.iter().enumerate() {
                if let Some(p) = step
                    .args
                    .iter()
                    .position(|a| matches!(a, FusedArg::Slot(_)))
                {
                    let mut m = vm.clone();
                    if let FusedArg::Slot(s) = m.fused[site].steps[k].args[p] {
                        m.fused[site].steps[k].args[p] = FusedArg::Slot((s + 1) % sz.symbols);
                    }
                    mutants.push(m);
                    continue 'spec;
                }
            }
        }
        classes.push(("fused_slot_swap", mutants));
    }
    classes.push((
        "shape_forge",
        pool_mutants(vm, sz.fused as usize, &|m, site| {
            m.fused[site].rows += 1;
        }),
    ));

    // --- predicate and MR corruptions ----------------------------------
    {
        fn rebind_preds(bs: &mut [VmBlock], symbols: u32, target: usize, k: &mut usize) {
            for b in bs {
                match b {
                    VmBlock::Generic { .. } => {}
                    VmBlock::If {
                        pred,
                        then_blocks,
                        else_blocks,
                    } => {
                        if *k == target {
                            pred.result = (pred.result + 1) % symbols;
                        }
                        *k += 1;
                        rebind_preds(then_blocks, symbols, target, k);
                        rebind_preds(else_blocks, symbols, target, k);
                    }
                    VmBlock::While { pred, body } => {
                        if *k == target {
                            pred.result = (pred.result + 1) % symbols;
                        }
                        *k += 1;
                        rebind_preds(body, symbols, target, k);
                    }
                    VmBlock::For { from, to, body, .. } => {
                        for pred in [&mut *from, &mut *to] {
                            if *k == target {
                                pred.result = (pred.result + 1) % symbols;
                            }
                            *k += 1;
                        }
                        rebind_preds(body, symbols, target, k);
                    }
                }
            }
        }
        let mut count = 0usize;
        let mut probe = vm.clone();
        rebind_preds(&mut probe.blocks, sz.symbols, usize::MAX, &mut count);
        let mutants = (0..count.min(SITE_CAP))
            .map(|site| {
                let mut m = vm.clone();
                let mut k = 0usize;
                rebind_preds(&mut m.blocks, sz.symbols, site, &mut k);
                m
            })
            .collect();
        classes.push(("pred_result_rebind", mutants));
    }
    {
        let mut mutants = Vec::new();
        for (j, job) in vm.mr_jobs.iter().enumerate() {
            for (o, _) in job.outputs.iter().enumerate() {
                if mutants.len() >= SITE_CAP {
                    break;
                }
                let mut m = vm.clone();
                m.mr_jobs[j].outputs[o] = (m.mr_jobs[j].outputs[o] + 1) % sz.symbols;
                mutants.push(m);
            }
        }
        classes.push(("mr_output_forge", mutants));
    }

    classes
}

#[test]
fn verifier_catches_seeded_corruptions() {
    let fixtures = fixtures();
    // The mutation classes need real material to corrupt: at least one
    // fixture with fused chains and one with MR jobs.
    assert!(
        fixtures.iter().any(|f| !f.vm.fused.is_empty()),
        "no fixture produced fused chains — pick a script with elementwise chains"
    );
    assert!(
        fixtures.iter().any(|f| !f.vm.mr_jobs.is_empty()),
        "no fixture produced MR jobs — shrink the CP heap or grow the data"
    );

    let mut total = 0usize;
    let mut caught = 0usize;
    let mut misses: Vec<String> = Vec::new();
    let mut per_class: Vec<(String, usize, usize)> = Vec::new();

    for fx in &fixtures {
        let baseline = lint_vm(&fx.runtime, &fx.vm);
        assert!(
            baseline.is_empty(),
            "{}: baseline must lint clean:\n{}",
            fx.name,
            baseline.render()
        );
        for (class, mutants) in mutant_classes(&fx.vm) {
            let mut class_caught = 0usize;
            let n = mutants.len();
            for (site, mutant) in mutants.into_iter().enumerate() {
                total += 1;
                // A corrupted program may no longer match the source tree
                // (PL046/047) or may be internally inconsistent
                // (PL040–045); both count as caught.
                let report = lint_vm(&fx.runtime, &mutant);
                // The opcode classes must trip the rule that owns opcode
                // fidelity, not be caught incidentally.
                let is_caught = if matches!(class, "path_forge" | "opcode_swap") {
                    report.rules().contains(&"PL046")
                } else {
                    !report.is_empty()
                };
                if !is_caught {
                    misses.push(format!("{} / {class} site {site}", fx.name));
                } else {
                    caught += 1;
                    class_caught += 1;
                }
            }
            if n > 0 {
                per_class.push((format!("{} / {class}", fx.name), class_caught, n));
            }
        }
    }

    println!("mutation classes:");
    for (label, c, n) in &per_class {
        println!("  {label}: {c}/{n}");
    }
    if !misses.is_empty() {
        println!("missed mutants ({}):", misses.len());
        for m in &misses {
            println!("  {m}");
        }
    }
    let rate = caught as f64 / total as f64;
    println!("catch rate: {caught}/{total} = {:.1}%", rate * 100.0);
    assert!(
        rate >= 0.95,
        "catch rate {:.1}% below the 95% gate; misses:\n{}",
        rate * 100.0,
        misses.join("\n")
    );
}

/// The internal-consistency entry point alone (no source tree) must
/// still catch structural corruptions — the fragment path relies on it.
#[test]
fn internal_rules_catch_pool_corruptions() {
    let fx = fixture(reml_scripts::linreg_ds, Scenario::XS, 4096, 1024);
    let sz = sizes(&fx.vm);

    let mut oob = fx.vm.clone();
    visit_instrs_mut(&mut oob, &mut |i| {
        if let Some(p) = first_slot(i) {
            i.args[p] = Arg::Slot(sz.symbols);
        }
    });
    let report = lint_vm_program(&oob);
    assert!(
        report.iter().any(|d| d.rule == "PL040"),
        "expected PL040 on out-of-range slots"
    );

    let mut forged = fx.vm.clone();
    for meta in &mut forged.metas {
        meta.cp_count += 1;
    }
    let report = lint_vm_program(&forged);
    assert!(
        report.iter().any(|d| d.rule == "PL041"),
        "expected PL041 on forged cp_count"
    );
}

/// Every kind of code list — a generic block's code, an `if`/`while`
/// predicate, the `then` and `else` arms, a `for` loop's `from`/`to`
/// bounds and a loop body — is reached by the PL040 slot check, and each
/// diagnostic names the list the way the verifier prints paths. A `for`
/// loop's out-of-range variable is reported at the loop block itself.
#[test]
fn pl040_reaches_every_code_list_with_its_path() {
    let src = "s = sum(rand(rows=3, cols=3));\n\
               if (s > 1) { s = s + 1; } else { s = s - 1; }\n\
               while (s < 100) { s = s * 2; }\n\
               for (i in (s - 1):(s + 1)) { s = s + i; }\n\
               print(s);";
    let analyzed = analyze_program(src).expect("valid DML");
    let cfg = reml_compiler::CompileConfig::new(ClusterConfig::paper_cluster(), 1024, 1024);
    let compiled = compile(&analyzed, &cfg).expect("compiles");
    let mut vm = compiled.runtime.lower_vm(VmLowerOptions { fuse: true });
    assert!(lint_vm_program(&vm).is_empty(), "baseline must lint clean");

    // Aim the first slot operand of every list, and the loop variable,
    // out of range.
    fn corrupt(blocks: &mut [VmBlock], oob: u32) {
        let hit = |code: &mut Vec<VmInstr>| {
            if let Some(instr) = code.iter_mut().find(|i| first_slot(i).is_some()) {
                let p = first_slot(instr).expect("found above");
                instr.args[p] = Arg::Slot(oob);
            }
        };
        for b in blocks {
            match b {
                VmBlock::Generic { code, .. } => hit(code),
                VmBlock::If {
                    pred,
                    then_blocks,
                    else_blocks,
                } => {
                    hit(&mut pred.code);
                    corrupt(then_blocks, oob);
                    corrupt(else_blocks, oob);
                }
                VmBlock::While { pred, body } => {
                    hit(&mut pred.code);
                    corrupt(body, oob);
                }
                VmBlock::For {
                    var,
                    from,
                    to,
                    body,
                } => {
                    *var = oob;
                    hit(&mut from.code);
                    hit(&mut to.code);
                    corrupt(body, oob);
                }
            }
        }
    }
    corrupt(&mut vm.blocks, vm.symbols.len() as u32);
    let mut paths: Vec<String> = lint_vm_program(&vm)
        .into_iter()
        .filter(|d| d.rule == "PL040")
        .map(|d| d.path)
        .collect();
    paths.sort();
    paths.dedup();
    assert_eq!(
        paths,
        [
            "vm/b0/instr 1",
            "vm/b1/else/b0/instr 0",
            "vm/b1/pred/instr 0",
            "vm/b1/then/b0/instr 0",
            "vm/b2/body/b0/instr 0",
            "vm/b2/pred/instr 0",
            "vm/b3",
            "vm/b3/body/b0/instr 0",
            "vm/b3/from/instr 0",
            "vm/b3/to/instr 0",
            "vm/b4/instr 0",
        ]
    );
}
