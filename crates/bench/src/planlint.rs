//! Plan-lint gate: statically verify every plan the resource grid can
//! produce for the five paper scripts across the XS/S/M/L scenarios —
//! the compiled plan (PL001–PL025), its rewrite audit log (PL050–PL057
//! translation validation of every applied rewrite, fold, CSE merge,
//! and branch removal), and its lowered bytecode
//! (PL040–PL047, fused and unfused) — then run the differential memory
//! soundness audit (executor actual footprint vs. `memest` prediction)
//! and write `results/planlint_audit.json`. Fails on any diagnostic so
//! CI can gate on it.

use reml_compiler::pipeline::compile;
use reml_compiler::MrHeapAssignment;
use reml_optimizer::GridStrategy;
use reml_planlint::{lint_compiled, lint_vm};
use reml_runtime::vm::VmLowerOptions;
use reml_scripts::Scenario;
use reml_sim::MemoryAuditReport;

use crate::{audit_paper_scripts, dense1000, write_artifact, Outcome, Workload};

#[derive(Debug, Default, serde::Serialize)]
struct LintGridRow {
    script: String,
    scenario: String,
    cp_grid_points: u64,
    plans_linted: u64,
    diagnostics: u64,
    rewrites_validated: u64,
    folds_validated: u64,
    cse_hits_validated: u64,
    branches_validated: u64,
    rewrite_diagnostics: u64,
    vm_programs_linted: u64,
    vm_instructions: u64,
    vm_diagnostics: u64,
}

#[derive(Debug, serde::Serialize)]
struct PlanlintAudit {
    plans_linted: u64,
    diagnostics: u64,
    rewrites_validated: u64,
    folds_validated: u64,
    cse_hits_validated: u64,
    branches_validated: u64,
    rewrite_diagnostics: u64,
    vm_programs_linted: u64,
    vm_instructions: u64,
    vm_diagnostics: u64,
    lint_grid: Vec<LintGridRow>,
    memory_audit: Vec<MemoryAuditReport>,
}

pub fn run() -> Outcome {
    // Any lowering anywhere in this process (including recompiled
    // fragments inside the audit executions below) panics on a bytecode
    // violation, on top of the explicit per-plan lint in the grid loop.
    reml_planlint::install_vm_verifier();

    let mut rows = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for script in reml_scripts::all_scripts() {
        for scenario in [Scenario::XS, Scenario::S, Scenario::M, Scenario::L] {
            let wl = Workload::new(script.clone(), dense1000(scenario))?;
            let (min_heap, max_heap) = (wl.cluster.min_heap_mb(), wl.cluster.max_heap_mb());

            // Memory estimates from the minimal-resource probe compile
            // seed the same hybrid grid the optimizer enumerates.
            let mut probe_cfg = wl.base.clone();
            probe_cfg.cp_heap_mb = min_heap;
            probe_cfg.mr_heap = MrHeapAssignment::uniform(min_heap);
            let probe = compile(&wl.analyzed, &probe_cfg)?;
            let ests: Vec<f64> = probe
                .summaries
                .iter()
                .flat_map(|s| s.mem_estimates_mb.iter().copied())
                .collect();
            let cp_grid = GridStrategy::default_hybrid().generate(min_heap, max_heap, &ests);
            // MR heaps: smallest tasks and the largest that keep all
            // cores busy (the §5.1 baseline extremes).
            let mr_grid = [min_heap, (4.4 * 1024.0) as u64];

            let mut row = LintGridRow {
                script: wl.script.name.to_string(),
                scenario: scenario.name().to_string(),
                cp_grid_points: cp_grid.len() as u64,
                ..LintGridRow::default()
            };
            for &cp in &cp_grid {
                for &mr in &mr_grid {
                    let mut cfg = wl.base.clone();
                    cfg.cp_heap_mb = cp;
                    cfg.mr_heap = MrHeapAssignment::uniform(mr);
                    let compiled = compile(&wl.analyzed, &cfg)?;
                    let report = lint_compiled(&wl.analyzed, &compiled, &cfg);
                    row.plans_linted += 1;
                    // Every audited claim in this plan went through the
                    // PL050 validators inside `lint_compiled`.
                    let audit = &compiled.rewrite_audit;
                    let blocks = || audit.blocks.values();
                    row.rewrites_validated += audit.num_rewrites();
                    row.folds_validated += blocks().map(|b| b.folds.len() as u64).sum::<u64>();
                    row.cse_hits_validated += blocks().map(|b| b.cse.len() as u64).sum::<u64>();
                    row.branches_validated += audit.branches.len() as u64;
                    row.rewrite_diagnostics += report
                        .diagnostics
                        .iter()
                        .filter(|d| ("PL050".."PL058").contains(&d.rule))
                        .count() as u64;
                    if !report.is_empty() {
                        row.diagnostics += report.len() as u64;
                        failures.push(format!(
                            "{} {} (cp={cp} MB, mr={mr} MB):\n{}",
                            wl.script.name,
                            scenario.name(),
                            report.render()
                        ));
                    }
                    // Lint the lowered bytecode of the same plan, fused
                    // and unfused, against the source runtime tree.
                    for fuse in [false, true] {
                        let vm = compiled.runtime.lower_vm(VmLowerOptions { fuse });
                        let vm_report = lint_vm(&compiled.runtime, &vm);
                        row.vm_programs_linted += 1;
                        row.vm_instructions += vm.stats.instructions as u64;
                        if !vm_report.is_empty() {
                            row.vm_diagnostics += vm_report.len() as u64;
                            failures.push(format!(
                                "{} {} (cp={cp} MB, mr={mr} MB, fuse={fuse}) bytecode:\n{}",
                                wl.script.name,
                                scenario.name(),
                                vm_report.render()
                            ));
                        }
                    }
                }
            }
            println!(
                "planlint {:<10} {:<3} {:>3} plans  {:>2} diagnostics  {:>4} rewrites/{:>4} folds/{:>4} cse/{:>3} branches validated ({:>2} rw diags)  {:>3} vm programs ({:>5} instrs)  {:>2} vm diagnostics",
                row.script,
                row.scenario,
                row.plans_linted,
                row.diagnostics,
                row.rewrites_validated,
                row.folds_validated,
                row.cse_hits_validated,
                row.branches_validated,
                row.rewrite_diagnostics,
                row.vm_programs_linted,
                row.vm_instructions,
                row.vm_diagnostics
            );
            rows.push(row);
        }
    }

    // Differential memory-soundness audit on real executions (e2e-scale
    // datasets; the executor computes actual values and footprints).
    println!();
    let audits = audit_paper_scripts();
    for a in &audits {
        println!(
            "audit {:<10} {:>5} observations  {:>2} unsound  ({} opcodes)",
            a.script,
            a.observations,
            a.unsound_total,
            a.per_opcode.len()
        );
    }

    let total = |field: fn(&LintGridRow) -> u64| rows.iter().map(field).sum::<u64>();
    let out = PlanlintAudit {
        plans_linted: total(|r| r.plans_linted),
        diagnostics: total(|r| r.diagnostics),
        rewrites_validated: total(|r| r.rewrites_validated),
        folds_validated: total(|r| r.folds_validated),
        cse_hits_validated: total(|r| r.cse_hits_validated),
        branches_validated: total(|r| r.branches_validated),
        rewrite_diagnostics: total(|r| r.rewrite_diagnostics),
        vm_programs_linted: total(|r| r.vm_programs_linted),
        vm_instructions: total(|r| r.vm_instructions),
        vm_diagnostics: total(|r| r.vm_diagnostics),
        lint_grid: rows,
        memory_audit: audits,
    };
    write_artifact("planlint_audit.json", serde_json::to_string_pretty(&out)?)?;

    if !failures.is_empty() {
        let diagnostics = out.diagnostics + out.vm_diagnostics;
        return Err(format!("{diagnostics} diagnostics:\n{}", failures.join("\n")).into());
    }
    println!(
        "planlint: {} plans clean, {} rewrites / {} folds / {} CSE merges / {} branch removals \
         validated, {} bytecode programs clean ({} instructions)",
        out.plans_linted,
        out.rewrites_validated,
        out.folds_validated,
        out.cse_hits_validated,
        out.branches_validated,
        out.vm_programs_linted,
        out.vm_instructions
    );
    Ok(Vec::new())
}
