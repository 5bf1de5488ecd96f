//! Task-parallel resource optimization (Appendix C).
//!
//! Exploits the *semi-independent problems* property (§3.2): for a given
//! CP memory `r_c`, the per-block MR dimensions are independent. The
//! optimizer becomes a task system in the style of Orca's parallel query
//! optimization (which Appendix C cites): a central queue feeds `k`
//! workers three kinds of tasks —
//!
//! * **Baseline(r_c)** — compile the program at `(r_c, min)`, prune, and
//!   produce the per-block memo seeds;
//! * **Enum(r_c, block)** — enumerate the MR grid for one block,
//!   returning the locally optimal `(rⁱ, cost)`;
//! * **Agg(r_c)** — compile the whole program at the memoized assignment
//!   and cost it globally.
//!
//! Dependencies are purely forward (Baseline → Enum* → Agg per `r_c`),
//! so there are no global barriers: workers enumerate `r_c`'s blocks
//! while another worker compiles the baseline of `r_c+1` — the pipelining
//! effect of the paper's Figure 17. The master thread only schedules and
//! merges results (lock-free via channels).
//!
//! All workers share one [`WhatIfSession`]: a plan compiled for one grid
//! point is served from the breakpoint-keyed cache to every other worker
//! whose budgets fall in the same decision intervals. Candidate results
//! are buffered per CP index and folded in ascending grid order after
//! the scheduling loop, so the parallel optimizer returns bit-identical
//! results to the serial one regardless of task completion order.

use std::collections::BTreeMap;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender};
use reml_compiler::build::Env;
use reml_compiler::pipeline::AnalyzedProgram;
use reml_compiler::session::WhatIfSession;
use reml_compiler::{CompileConfig, CompileError};

use crate::cache::{stage_agg, stage_baseline, stage_enum_block, CostMemo};
use crate::optimizer::{OptimizationResult, ResourceOptimizer};
use crate::resources::ResourceConfig;

enum Task {
    Baseline {
        rc_idx: usize,
        rc: u64,
    },
    Enum {
        rc_idx: usize,
        rc: u64,
        block_id: usize,
        baseline_cost: f64,
    },
    Agg {
        rc_idx: usize,
        rc: u64,
        enums: BTreeMap<usize, (u64, f64)>,
    },
}

enum Done {
    Baseline {
        rc_idx: usize,
        rc: u64,
        /// (block id, baseline cost) per unpruned block.
        blocks: Vec<(usize, f64)>,
        blocks_total: usize,
    },
    Enum {
        rc_idx: usize,
        block_id: usize,
        best_ri: u64,
        best_cost: f64,
    },
    Agg {
        rc_idx: usize,
        candidate: ResourceConfig,
        cost: f64,
    },
    Failed(CompileError),
}

/// Parallel variant of Algorithm 1 (see module docs).
pub fn optimize_parallel(
    opt: &ResourceOptimizer,
    analyzed: &AnalyzedProgram,
    base: &CompileConfig,
    scope: Option<(usize, &Env)>,
    current_cp_heap: Option<u64>,
) -> Result<OptimizationResult, CompileError> {
    // The shared what-if session (master, once), the same pruned grid
    // the serial path walks, and the plan caches all workers serve from.
    let mut walk = opt.begin_walk(analyzed, base, scope)?;
    let min_heap = opt.cost_model.cluster.min_heap_mb();
    let (src, deadline) = (&walk.src, walk.deadline);
    let stats = &mut walk.stats;

    let (task_tx, task_rx) = unbounded::<Task>();
    let (done_tx, done_rx) = unbounded::<Done>();
    let workers = opt.config.workers.max(2) - 1;

    let candidates = std::thread::scope(
        |threads| -> Result<Vec<Option<(ResourceConfig, f64)>>, CompileError> {
            for _ in 0..workers {
                let task_rx = task_rx.clone();
                let done_tx = done_tx.clone();
                let (session, memo, srm) = (&walk.session, &walk.memo, &walk.srm);
                threads.spawn(move || {
                    worker_loop(opt, session, memo, srm, deadline, task_rx, done_tx);
                });
            }
            drop(task_rx);
            drop(done_tx);

            // Master: seed baseline tasks and run the scheduling loop.
            for (rc_idx, &rc) in src.iter().enumerate() {
                task_tx
                    .send(Task::Baseline { rc_idx, rc })
                    .expect("workers alive");
            }

            let mut memo_per_rc: Vec<BTreeMap<usize, (u64, f64)>> =
                vec![BTreeMap::new(); src.len()];
            let mut pending_enums: Vec<usize> = vec![0; src.len()];
            let mut candidates: Vec<Option<(ResourceConfig, f64)>> = vec![None; src.len()];
            let mut completed = 0usize;
            let mut first_error: Option<CompileError> = None;

            while completed < src.len() {
                let Ok(done) = done_rx.recv() else { break };
                match done {
                    Done::Baseline {
                        rc_idx,
                        rc,
                        blocks,
                        blocks_total,
                    } => {
                        if rc_idx == 0 {
                            stats.blocks_total = blocks_total;
                            stats.blocks_remaining = blocks.len();
                        }
                        pending_enums[rc_idx] = blocks.len();
                        for &(block_id, cost) in &blocks {
                            memo_per_rc[rc_idx]
                                .entry(block_id)
                                .or_insert((min_heap, cost));
                        }
                        if blocks.is_empty() {
                            task_tx
                                .send(Task::Agg {
                                    rc_idx,
                                    rc,
                                    enums: BTreeMap::new(),
                                })
                                .expect("workers alive");
                        } else {
                            for (block_id, baseline_cost) in blocks {
                                task_tx
                                    .send(Task::Enum {
                                        rc_idx,
                                        rc,
                                        block_id,
                                        baseline_cost,
                                    })
                                    .expect("workers alive");
                            }
                        }
                    }
                    Done::Enum {
                        rc_idx,
                        block_id,
                        best_ri,
                        best_cost,
                    } => {
                        let entry = memo_per_rc[rc_idx]
                            .get_mut(&block_id)
                            .expect("memo seeded at baseline");
                        if best_cost < entry.1 {
                            *entry = (best_ri, best_cost);
                        }
                        pending_enums[rc_idx] -= 1;
                        if pending_enums[rc_idx] == 0 {
                            task_tx
                                .send(Task::Agg {
                                    rc_idx,
                                    rc: src[rc_idx],
                                    enums: memo_per_rc[rc_idx].clone(),
                                })
                                .expect("workers alive");
                        }
                    }
                    Done::Agg {
                        rc_idx,
                        candidate,
                        cost,
                    } => {
                        candidates[rc_idx] = Some((candidate, cost));
                        completed += 1;
                    }
                    Done::Failed(error) => {
                        completed += 1;
                        if first_error.is_none() {
                            first_error = Some(error);
                        }
                    }
                }
                if deadline.map(|d| Instant::now() > d).unwrap_or(false)
                    && candidates.iter().any(Option::is_some)
                {
                    stats.budget_exhausted = true;
                    break;
                }
            }
            drop(task_tx);
            if candidates.iter().all(Option::is_none) {
                if let Some(e) = first_error {
                    return Err(e);
                }
            }
            Ok(candidates)
        },
    )?;

    opt.finish_walk(walk, &candidates, current_cp_heap)
}

fn worker_loop(
    opt: &ResourceOptimizer,
    session: &WhatIfSession<'_>,
    memo: &CostMemo,
    srm: &[u64],
    deadline: Option<Instant>,
    task_rx: Receiver<Task>,
    done_tx: Sender<Done>,
) {
    while let Ok(task) = task_rx.recv() {
        let result = match task {
            Task::Baseline { rc_idx, rc } => match stage_baseline(opt, session, memo, rc) {
                Ok(bl) => Done::Baseline {
                    rc_idx,
                    rc,
                    blocks: bl.blocks,
                    blocks_total: bl.blocks_total,
                },
                Err(error) => Done::Failed(error),
            },
            Task::Enum {
                rc_idx,
                rc,
                block_id,
                baseline_cost,
            } => {
                let ((best_ri, best_cost), _cut) = stage_enum_block(
                    opt,
                    session,
                    memo,
                    srm,
                    deadline,
                    rc,
                    block_id,
                    baseline_cost,
                );
                Done::Enum {
                    rc_idx,
                    block_id,
                    best_ri,
                    best_cost,
                }
            }
            Task::Agg { rc_idx, rc, enums } => match stage_agg(opt, session, memo, rc, &enums) {
                Ok((candidate, cost)) => Done::Agg {
                    rc_idx,
                    candidate,
                    cost,
                },
                Err(error) => Done::Failed(error),
            },
        };
        if done_tx.send(result).is_err() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reml_cluster::ClusterConfig;
    use reml_compiler::pipeline::analyze_program;
    use reml_compiler::MrHeapAssignment;
    use reml_cost::CostModel;
    use reml_scripts::{DataShape, Scenario};

    fn setup(
        script: &reml_scripts::ScriptSpec,
        scenario: Scenario,
    ) -> (AnalyzedProgram, CompileConfig) {
        let shape = DataShape {
            scenario,
            cols: 1000,
            sparsity: 1.0,
        };
        let cfg = script.compile_config(
            shape,
            ClusterConfig::paper_cluster(),
            512,
            MrHeapAssignment::uniform(512),
        );
        (analyze_program(&script.source).unwrap(), cfg)
    }

    #[test]
    fn parallel_matches_serial_result() {
        let script = reml_scripts::linreg_ds();
        let (analyzed, base) = setup(&script, Scenario::M);
        let mut serial = ResourceOptimizer::new(CostModel::new(ClusterConfig::paper_cluster()));
        serial.config.workers = 1;
        let mut par = serial.clone();
        par.config.workers = 4;
        let rs = serial.optimize(&analyzed, &base, None).unwrap();
        let rp = par.optimize(&analyzed, &base, None).unwrap();
        assert_eq!(rs.best.cp_heap_mb, rp.best.cp_heap_mb);
        assert!((rs.best_cost_s - rp.best_cost_s).abs() < 1e-6);
    }

    #[test]
    fn parallel_identical_to_serial_bit_for_bit() {
        // The shared stage implementation plus rc-ordered candidate
        // folding makes the parallel optimizer deterministic: the full
        // configuration (including per-block MR overrides) and the cost
        // must match the serial result exactly.
        for script in [reml_scripts::linreg_cg(), reml_scripts::glm()] {
            let (analyzed, base) = setup(&script, Scenario::S);
            let cc = ClusterConfig::paper_cluster();
            let mut serial = ResourceOptimizer::new(CostModel::new(cc.clone()));
            serial.config.workers = 1;
            let mut par = serial.clone();
            par.config.workers = 4;
            let rs = serial
                .optimize(&analyzed, &base, Some(cc.min_heap_mb()))
                .unwrap();
            let rp = par
                .optimize(&analyzed, &base, Some(cc.min_heap_mb()))
                .unwrap();
            assert_eq!(rs.best, rp.best, "{}", script.name);
            assert_eq!(rs.best_cost_s.to_bits(), rp.best_cost_s.to_bits());
            assert_eq!(
                rs.best_local
                    .as_ref()
                    .map(|(c, s)| (c.clone(), s.to_bits())),
                rp.best_local
                    .as_ref()
                    .map(|(c, s)| (c.clone(), s.to_bits())),
            );
        }
    }

    #[test]
    fn parallel_on_glm_counts_work() {
        let script = reml_scripts::glm();
        let (analyzed, base) = setup(&script, Scenario::M);
        let mut par = ResourceOptimizer::new(CostModel::new(ClusterConfig::paper_cluster()));
        par.config.workers = 4;
        let r = par.optimize(&analyzed, &base, None).unwrap();
        assert!(r.stats.block_compilations > 0);
        assert!(r.best_cost_s > 0.0);
    }

    #[test]
    fn parallel_local_optimum_reported() {
        let script = reml_scripts::linreg_cg();
        let (analyzed, base) = setup(&script, Scenario::S);
        let cc = ClusterConfig::paper_cluster();
        let mut par = ResourceOptimizer::new(CostModel::new(cc.clone()));
        par.config.workers = 4;
        let r = par
            .optimize(&analyzed, &base, Some(cc.min_heap_mb()))
            .unwrap();
        let (local, _) = r.best_local.expect("local requested");
        assert_eq!(local.cp_heap_mb, cc.min_heap_mb());
    }

    #[test]
    fn parallel_shares_the_plan_cache_across_workers() {
        let script = reml_scripts::linreg_ds();
        let (analyzed, base) = setup(&script, Scenario::M);
        let mut par = ResourceOptimizer::new(CostModel::new(ClusterConfig::paper_cluster()));
        par.config.workers = 4;
        let r = par.optimize(&analyzed, &base, None).unwrap();
        assert!(r.stats.plan_cache_hits > 0, "{:?}", r.stats);
        assert!(r.stats.compilations_avoided > 0);
    }
}
