//! Per-layer measurements shared by the workloads: stage timers around
//! the layers' public functions, and the optimizer / simulator counts the
//! program already publishes through `reml_trace`'s metric registry.

use reml::compiler::pipeline::{analyze_program, compile, AnalyzedProgram};
use reml::compiler::session::WhatIfSession;
use reml::compiler::CompileConfig;
use reml::cost::CostModel;
use reml::scripts::ScriptSpec;
use reml::sizebound::analyze_with_min_budget;

use crate::harness::{median_us, Layers, TracedRun};
use crate::plan::SimOutput;

/// Calls per stage timer; the median is reported.
const REPS: usize = 3;

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// `lang` and the compiler's front half, per script.
pub fn front_end(scripts: &[ScriptSpec], out: &mut Layers) {
    let mut frontend_us = Vec::new();
    let mut analyze_us = Vec::new();
    let mut lines = 0usize;
    for script in scripts {
        frontend_us.push(median_us(REPS, || reml::lang::frontend(&script.source)));
        analyze_us.push(median_us(REPS, || analyze_program(&script.source)));
        lines += script.num_lines();
    }
    out.set("lang.frontend_us", mean(&frontend_us));
    out.set(
        "lang.lines_per_s",
        lines as f64 / (frontend_us.iter().sum::<f64>() / 1e6),
    );
    out.set("compiler.analyze_us", mean(&analyze_us));
}

/// Compiler, cost model and sizebound on each `(program, configuration)`
/// the workload compiles: the mean over them of a median of `REPS` calls.
pub fn compile_stages(
    programs: &[(&AnalyzedProgram, &CompileConfig)],
    out: &mut Layers,
) -> Result<(), String> {
    let mut compile_us = Vec::new();
    let mut session_us = Vec::new();
    let mut plan_us = Vec::new();
    let mut plan_uncached_us = Vec::new();
    let mut cost_us = Vec::new();
    let mut sizebound_us = Vec::new();
    let (mut blocks, mut mr_jobs) = (0usize, 0usize);
    for &(analyzed, config) in programs {
        let cp = config.cp_heap_mb;
        let mr = config.mr_heap.clone();
        let mr_of = |block: usize| mr.for_block(block);
        let model = CostModel::new(config.cluster.clone());
        let compiled = compile(analyzed, config).map_err(|e| format!("compile: {e}"))?;
        let session = WhatIfSession::new(analyzed, config, None, true)
            .map_err(|e| format!("session: {e}"))?;
        // Fill the plan cache, so `compile_plan` below is timed as a hit.
        session
            .compile_plan(cp, &mr)
            .map_err(|e| format!("compile_plan: {e}"))?;
        blocks += analyzed.num_blocks();
        mr_jobs += compiled.runtime.count_mr_jobs();
        compile_us.push(median_us(REPS, || compile(analyzed, config)));
        session_us.push(median_us(REPS, || {
            WhatIfSession::new(analyzed, config, None, true).map(|_| ())
        }));
        plan_us.push(median_us(REPS, || session.compile_plan(cp, &mr)));
        plan_uncached_us.push(median_us(REPS, || session.compile_plan_uncached(cp, &mr)));
        cost_us.push(median_us(REPS, || {
            model.cost_program(&compiled.runtime, cp, &mr_of)
        }));
        sizebound_us.push(median_us(REPS, || {
            analyze_with_min_budget(analyzed, &compiled, config).map(|(_, min)| min)
        }));
    }
    out.set("compiler.compile_us", mean(&compile_us));
    out.set("compiler.session_new_us", mean(&session_us));
    out.set("compiler.compile_plan_us", mean(&plan_us));
    out.set("compiler.compile_plan_uncached_us", mean(&plan_uncached_us));
    out.set("compiler.blocks", blocks as f64);
    out.set("compiler.mr_jobs", mr_jobs as f64);
    out.set("cost.cost_program_us", mean(&cost_us));
    out.set("sizebound.analyze_us", mean(&sizebound_us));
    Ok(())
}

/// Optimizer, cost and sizebound counts per pass, from the counters every
/// `optimize` / `optimize_scope` call publishes while a recorder is on —
/// the simulator's scoped re-optimizations included.
pub fn optimizer_counts<O>(run: &TracedRun<'_, O>, simulated_s: f64, out: &mut Layers) {
    let ops = (run.passes * run.first.len() as u64) as f64;
    // The optimizer's own stopwatch.
    let opt_us = run.counter("optimizer.opt_time_us") as f64;
    let share = |name: &str| run.counter(name) as f64 / opt_us.max(1.0);
    out.set("optimizer.optimize_ms", opt_us / 1e3 / ops);
    out.set("optimizer.share_of_op", opt_us / 1e6 / run.op_total_s);
    out.set(
        "optimizer.grid_points",
        run.per_pass("optimizer.cp_points") + run.per_pass("optimizer.mr_points"),
    );
    out.set(
        "optimizer.block_compilations",
        run.per_pass("optimizer.block_compilations"),
    );
    out.set(
        "optimizer.compilations_avoided",
        run.per_pass("optimizer.compilations_avoided"),
    );
    let hits = run.counter("optimizer.plan_cache.hits") as f64;
    let misses = run.counter("optimizer.plan_cache.misses") as f64;
    out.set(
        "optimizer.plan_cache_hit_rate",
        hits / (hits + misses).max(1.0),
    );
    out.set(
        "optimizer.enumerate_share",
        share("optimizer.phase.enumerate_us"),
    );
    out.set("optimizer.cache_share", share("optimizer.phase.cache_us"));
    out.set(
        "optimizer.overhead_share",
        opt_us / 1e6 / run.passes as f64 / simulated_s,
    );
    out.set(
        "cost.invocations",
        run.per_pass("optimizer.cost_invocations"),
    );
    out.set("cost.share", share("optimizer.phase.cost_us"));
    out.set("sizebound.prune_share", share("optimizer.phase.prune_us"));
    out.set(
        "sizebound.cp_points_pruned",
        run.per_pass("optimizer.cp_points_pruned_unsound"),
    );
}

/// Simulator counts of one pass (summed in class order, so the float sum
/// repeats exactly) and its rates from the `run_app` stage
/// spans. Returns the pass's simulated seconds.
pub fn sim_counts<O>(run: &TracedRun<'_, O>, sims: &[&SimOutput], out: &mut Layers) -> f64 {
    let mut total = |name: &'static str, count: fn(&SimOutput) -> u64| {
        let sum: u64 = sims.iter().map(|s| count(s)).sum();
        out.set(name, sum as f64);
        sum
    };
    let events = total("sim.events", |s| s.causal_events);
    total("sim.recompilations", |s| s.recompilations);
    total("sim.mr_jobs", |s| s.mr_jobs);
    total("sim.migrations", |s| s.migrations);
    total("sim.adaptations", |s| s.adaptations);
    total("sim.recoveries", |s| s.recoveries);
    total("sim.task_retries", |s| s.task_retries);
    total("sim.faults_injected", |s| s.faults_injected);
    let simulated_s: f64 = sims.iter().map(|s| s.elapsed_s).sum();
    let run_app = run.span("bench.stage.run_app");
    let seconds = run_app.total_us as f64 / 1e6;
    out.set("sim.simulated_s", simulated_s);
    out.set(
        "sim.run_app_ms",
        seconds * 1e3 / run_app.count.max(1) as f64,
    );
    out.set("sim.share_of_op", seconds / run.op_total_s);
    out.set(
        "sim.simulated_s_per_wall_s",
        simulated_s * run.passes as f64 / seconds,
    );
    out.set(
        "sim.us_per_event",
        seconds * 1e6 / (events * run.passes).max(1) as f64,
    );
    simulated_s
}

/// Layer separation on the simulated workloads: nothing may run on the VM.
pub fn no_vm_time<O>(run: &TracedRun<'_, O>) -> Result<(), String> {
    match run.histograms("vm.op.").next() {
        Some((op, us)) => Err(format!(
            "layer separation: vm.op.{op} recorded {us} us on a simulated workload"
        )),
        None => Ok(()),
    }
}
