//! The paper experiments (`all` runs them in [`crate::ENTRIES`] order).
//! Figures 7–11 are rows of the table itself, over
//! [`crate::run_baseline_family`].

use reml_cluster::SparkConfig;
use reml_compiler::pipeline::compile;
use reml_compiler::MrHeapAssignment;
use reml_cost::CostModel;
use reml_optimizer::{GridStrategy, ResourceConfig, ResourceOptimizer};
use reml_scripts::{DataShape, Scenario, ScriptSpec};
use reml_sim::{
    simulate_spark_iterative, simulate_throughput, FaultPlan, SimConfig, SimFacts, Simulator,
    SparkPlan,
};

use crate::{dense1000, table_facts, ExperimentResult, Outcome, Workload};

/// Table 1: ML program characteristics — #lines, #blocks, unknown
/// dimensions during initial compilation, iterativeness.
pub fn table1_programs() -> Outcome {
    let mut result = ExperimentResult::new("table1", "ML program characteristics");
    for script in reml_scripts::all_scripts() {
        let analyzed = reml_compiler::pipeline::analyze_program(&script.source)?;
        result.push_row(
            script.name,
            vec![
                ("#Lines".to_string(), script.num_lines() as f64),
                ("#Blocks".to_string(), analyzed.num_blocks() as f64),
                (
                    "Unknowns(?)".to_string(),
                    if script.has_unknowns { 1.0 } else { 0.0 },
                ),
                (
                    "Iterative".to_string(),
                    if script.iterative { 1.0 } else { 0.0 },
                ),
            ],
        );
    }
    result.notes = "Paper (full scripts): LinregDS 209/22, LinregCG 273/31, L2SVM 119/20, \
                    MLogreg 351/54 (?), GLM 1149/377 (?). Our faithful reductions preserve \
                    the ordering and the unknown flags."
        .to_string();
    Ok(vec![result])
}

/// Figure 1: estimated runtime of Linreg DS and Linreg CG over a grid of
/// CP × MR memory configurations (X = 8 GB dense, 1,000 features).
///
/// The reproduction target is the qualitative shape: DS (compute-bound)
/// is best with small CP memory and distributed plans; CG (IO-bound,
/// iterative) flips to fast in-memory execution once the CP budget holds
/// X, independent of MR memory.
pub fn fig1_heatmap() -> Outcome {
    let grid_gb = [1u64, 2, 5, 10, 15, 20];
    let mut out = Vec::new();
    for (id, script) in [
        ("fig1_ds", reml_scripts::linreg_ds()),
        ("fig1_cg", reml_scripts::linreg_cg()),
    ] {
        let wl = Workload::new(script, dense1000(Scenario::M))?;
        let model = CostModel::new(wl.cluster.clone());
        let mut result = ExperimentResult::new(
            id,
            &format!("{} estimated runtime [s], CP x MR memory", wl.script.name),
        );
        for &cp_gb in &grid_gb {
            let mut values = Vec::new();
            for &mr_gb in &grid_gb {
                let mut cfg = wl.base.clone();
                cfg.cp_heap_mb = cp_gb * 1024;
                cfg.mr_heap = MrHeapAssignment::uniform(mr_gb * 1024);
                let compiled = compile(&wl.analyzed, &cfg)?;
                let cost = model
                    .cost_program(&compiled.runtime, cp_gb * 1024, &|_| mr_gb * 1024)
                    .total_s();
                values.push((format!("MR{mr_gb}G"), cost));
            }
            result.push_row(format!("CP{cp_gb}G"), values);
        }
        result.notes = match id {
            "fig1_ds" => "Paper: DS prefers small CP (distributed plans), ~100 s best vs \
                          ~500 s with large CP forcing single-node compute."
                .to_string(),
            _ => "Paper: CG prefers CP >= ~10 GB (read X once, iterate in memory), \
                  ~140 s best vs ~240 s with small CP."
                .to_string(),
        };
        out.push(result);
    }
    Ok(out)
}

/// Figure 12: end-to-end throughput, Opt vs B-LL, 1–128 users × 8 apps —
/// the over-provisioning experiment. Paper: 5.6x (Linreg DS, S,
/// dense1000) and 7.1x (L2SVM, M, sparse100) at saturation.
pub fn fig12_throughput() -> Outcome {
    let sparse100 = DataShape {
        scenario: Scenario::M,
        cols: 100,
        sparsity: 0.01,
    };
    let cases = [
        ("fig12a", reml_scripts::linreg_ds(), dense1000(Scenario::S)),
        ("fig12b", reml_scripts::l2svm(), sparse100),
    ];
    let mut out = Vec::new();
    for (id, script, shape) in cases {
        let wl = Workload::new(script, shape)?;
        let mut result = ExperimentResult::new(
            id,
            &format!(
                "{} {} {}: throughput [app/min] vs #users",
                wl.script.name,
                shape.scenario.name(),
                shape.label()
            ),
        );
        let opt = wl.optimize()?;
        let bll = ResourceConfig::uniform(wl.cluster.max_heap_mb(), (4.4 * 1024.0) as u64);
        let facts = SimFacts::default();
        let opt_duration = wl
            .measure(opt.best.clone(), false, facts.clone(), FaultPlan::none())?
            .elapsed_s;
        let bll_duration = wl
            .measure(bll.clone(), false, facts, FaultPlan::none())?
            .elapsed_s;
        let opt_slots = wl.cluster.max_parallel_apps(opt.best.cp_heap_mb);
        let bll_slots = wl.cluster.max_parallel_apps(bll.cp_heap_mb);
        println!(
            "{}: Opt {} GB -> {} slots ({:.0} s/app); B-LL {} GB -> {} slots ({:.0} s/app)",
            id,
            opt.best.display_gb(),
            opt_slots,
            opt_duration,
            bll.display_gb(),
            bll_slots,
            bll_duration
        );
        let mut final_ratio = 0.0;
        for users in [1u32, 2, 4, 8, 16, 32, 64, 128] {
            let t_opt = simulate_throughput(opt_duration, opt_slots, users, 8, 0.5);
            let t_bll = simulate_throughput(bll_duration, bll_slots, users, 8, 0.5);
            final_ratio = t_opt.throughput_apps_per_min / t_bll.throughput_apps_per_min;
            result.push_row(
                format!("{users} users"),
                vec![
                    ("Opt".to_string(), t_opt.throughput_apps_per_min),
                    ("B-LL".to_string(), t_bll.throughput_apps_per_min),
                    ("speedup".to_string(), final_ratio),
                    ("Opt_p50[s]".to_string(), t_opt.latency_p50_s),
                    ("Opt_p95[s]".to_string(), t_opt.latency_p95_s),
                    ("Opt_p99[s]".to_string(), t_opt.latency_p99_s),
                    ("Opt_qwait[s]".to_string(), t_opt.queue_wait_mean_s),
                    ("BLL_p99[s]".to_string(), t_bll.latency_p99_s),
                    ("BLL_qwait[s]".to_string(), t_bll.queue_wait_mean_s),
                ],
            );
        }
        result.notes = format!(
            "Paper reports 5.6x (a) / 7.1x (b) at saturation; measured {final_ratio:.1}x at 128 users."
        );
        out.push(result);
    }
    Ok(out)
}

/// Figure 13: number of generated grid points per generator (Equi, Exp,
/// Mem, Hybrid) for Linreg DS dense1000 across scenarios, at base grids
/// m=15 and m=45.
pub fn fig13_grids() -> Outcome {
    let mut out = Vec::new();
    for (id, m) in [("fig13a", 15usize), ("fig13b", 45usize)] {
        let mut result = ExperimentResult::new(
            id,
            &format!("# grid points, Linreg DS dense1000, base grid m={m}"),
        );
        for scenario in Scenario::ALL {
            let wl = Workload::new(reml_scripts::linreg_ds(), dense1000(scenario))?;
            let (min_heap, max_heap) = (wl.cluster.min_heap_mb(), wl.cluster.max_heap_mb());
            // Memory estimates from a minimal-resource compile (the
            // optimizer's probe step).
            let mut cfg = wl.base.clone();
            cfg.cp_heap_mb = min_heap;
            cfg.mr_heap = MrHeapAssignment::uniform(min_heap);
            let compiled = compile(&wl.analyzed, &cfg)?;
            let ests: Vec<f64> = compiled
                .summaries
                .iter()
                .flat_map(|s| s.mem_estimates_mb.iter().copied())
                .collect();
            let count =
                |strategy: GridStrategy| strategy.generate(min_heap, max_heap, &ests).len() as f64;
            result.push_row(
                scenario.name(),
                vec![
                    ("Equi".to_string(), count(GridStrategy::Equi { points: m })),
                    ("Exp".to_string(), count(GridStrategy::Exp { factor: 2.0 })),
                    (
                        "Mem".to_string(),
                        count(GridStrategy::MemBased { base_points: m }),
                    ),
                    (
                        "Hybrid".to_string(),
                        count(GridStrategy::Hybrid { base_points: m }),
                    ),
                ],
            );
        }
        result.notes = "Paper: Equi constant (m), Exp ~8 points, Mem data-dependent (1 point \
                        for XS, ~5 at M, fewer again at XL when estimates truncate at max)."
            .to_string();
        out.push(result);
    }
    Ok(out)
}

/// Figure 14: percentage of generic blocks remaining after pruning, all
/// five programs × scenarios XS–XL (dense, 1,000 columns).
pub fn fig14_pruning() -> Outcome {
    let mut result = ExperimentResult::new(
        "fig14",
        "% generic blocks remaining after pruning (dense1000)",
    );
    for script in reml_scripts::all_scripts() {
        let mut values = Vec::new();
        let mut total_blocks = 0usize;
        for scenario in Scenario::ALL {
            let r = Workload::new(script.clone(), dense1000(scenario))?.optimize()?;
            total_blocks = r.stats.blocks_total;
            let pct = if r.stats.blocks_total == 0 {
                0.0
            } else {
                100.0 * r.stats.blocks_remaining as f64 / r.stats.blocks_total as f64
            };
            values.push((scenario.name().to_string(), pct));
        }
        result.push_row(format!("{} (|B|={})", script.name, total_blocks), values);
    }
    result.notes = "Paper: pruning removes 100% of blocks for XS everywhere; the unknown-block \
                    rule keeps MLogreg/GLM from a constant offset (14 and 64 blocks) at small \
                    scenarios."
        .to_string();
    Ok(vec![result])
}

/// Figure 15: end-to-end comparison with runtime plan adaptation for the
/// unknown-size programs (MLogreg, GLM) on scenarios S and M: B-LL vs
/// Opt (no adaptation) vs ReOpt (adaptation), with migration counts.
pub fn fig15_adaptation() -> Outcome {
    let mut out = Vec::new();
    for (id, scenario) in [("fig15a", Scenario::S), ("fig15b", Scenario::M)] {
        let mut result = ExperimentResult::new(
            id,
            &format!(
                "runtime adaptation, scenario {} [s] (columns annotated with #migrations)",
                scenario.name()
            ),
        );
        for script_ctor in [
            reml_scripts::mlogreg as fn() -> ScriptSpec,
            reml_scripts::glm,
        ] {
            for (cols, sparsity) in [(1000u64, 1.0f64), (1000, 0.01), (100, 1.0), (100, 0.01)] {
                let shape = DataShape {
                    scenario,
                    cols,
                    sparsity,
                };
                let wl = Workload::new(script_ctor(), shape)?;
                let facts = table_facts(if wl.script.name == "MLogreg" { 5 } else { 20 });
                let bll = ResourceConfig::uniform(wl.cluster.max_heap_mb(), (4.4 * 1024.0) as u64);
                let t_bll = wl
                    .measure(bll, false, facts.clone(), FaultPlan::none())?
                    .elapsed_s;
                let opt = wl.optimize()?;
                let opt_s = opt.stats.opt_time.as_secs_f64();
                let t_opt = wl
                    .measure(opt.best.clone(), false, facts.clone(), FaultPlan::none())?
                    .elapsed_s
                    + opt_s;
                let reopt_run = wl.measure(opt.best.clone(), true, facts, FaultPlan::none())?;
                result.push_row(
                    format!("{} {}", wl.script.name, shape.label()),
                    vec![
                        ("B-LL".to_string(), t_bll),
                        ("Opt".to_string(), t_opt),
                        ("ReOpt".to_string(), reopt_run.elapsed_s + opt_s),
                        ("#migr".to_string(), reopt_run.migrations as f64),
                    ],
                );
            }
        }
        result.notes = "Paper: one migration suffices on S (GLM needs none on some shapes \
                        thanks to known guard operations); up to two on M; ReOpt approaches \
                        the best baseline."
            .to_string();
        out.push(result);
    }
    Ok(out)
}

/// Figure 18 (Appendix C): parallel resource optimization on GLM,
/// dense1000 — (a) optimization time vs worker threads at scenario L,
/// (b) serial vs parallel across scenarios with the Hybrid grid.
pub fn fig18_parallel_opt() -> Outcome {
    // (a) Thread sweep at scenario L with a denser Equi grid (m=45),
    // where parallelism has the most to chew on.
    let wl = Workload::new(reml_scripts::glm(), dense1000(Scenario::L))?;
    let mut result = ExperimentResult::new(
        "fig18a",
        "GLM dense1000 L: optimization time [s] vs worker threads (Equi m=45)",
    );
    let mut serial_time = 0.0;
    for threads in [1usize, 2, 4, 8, 16] {
        let mut optimizer = ResourceOptimizer::new(CostModel::new(wl.cluster.clone()));
        optimizer.config.cp_grid = GridStrategy::Equi { points: 45 };
        optimizer.config.mr_grid = GridStrategy::Equi { points: 45 };
        optimizer.config.workers = threads;
        let r = optimizer.optimize(&wl.analyzed, &wl.base, None)?;
        let t = r.stats.opt_time.as_secs_f64();
        if threads == 1 {
            serial_time = t;
        }
        let requests = r.stats.plan_cache_hits + r.stats.plan_cache_misses;
        result.push_row(
            format!("{threads} threads"),
            vec![
                ("time[s]".to_string(), t),
                ("speedup".to_string(), serial_time / t.max(1e-9)),
                ("#CacheHit".to_string(), r.stats.plan_cache_hits as f64),
                (
                    "hit%".to_string(),
                    100.0 * r.stats.plan_cache_hits as f64 / requests.max(1) as f64,
                ),
            ],
        );
    }
    result.notes =
        "Paper: 4.9x at 16 threads, with a pipelining gain already at 1 worker.".to_string();

    // (b) Serial vs parallel across scenarios with the default Hybrid.
    let mut result_b = ExperimentResult::new(
        "fig18b",
        "GLM dense1000: serial vs parallel (Hybrid m=15) across scenarios [s]",
    );
    for scenario in [Scenario::XS, Scenario::S, Scenario::M, Scenario::L] {
        let wl = Workload::new(reml_scripts::glm(), dense1000(scenario))?;
        let mut serial = ResourceOptimizer::new(CostModel::new(wl.cluster.clone()));
        serial.config.workers = 1;
        let mut parallel = serial.clone();
        parallel.config.workers = 8;
        let rs = serial.optimize(&wl.analyzed, &wl.base, None)?;
        let rp = parallel.optimize(&wl.analyzed, &wl.base, None)?;
        result_b.push_row(
            scenario.name(),
            vec![
                ("serial[s]".to_string(), rs.stats.opt_time.as_secs_f64()),
                ("parallel[s]".to_string(), rp.stats.opt_time.as_secs_f64()),
                (
                    "#CompAvoided".to_string(),
                    rp.stats.compilations_avoided as f64,
                ),
            ],
        );
    }
    result_b.notes =
        "Paper: the benefit grows with the scenario (more points, fewer pruned blocks)."
            .to_string();
    Ok(vec![result, result_b])
}

/// Table 2: Opt-chosen resource configurations (CP / max-MR heap, GB)
/// for Linreg DS across scenarios and the four data shapes.
pub fn table2_configs() -> Outcome {
    let mut result = ExperimentResult::new(
        "table2",
        "Opt resource configurations for Linreg DS [GB heap: CP, max MR]",
    );
    for scenario in Scenario::ALL {
        let mut values = Vec::new();
        for (cols, sparsity, label) in [
            (1000u64, 1.0f64, "d1000"),
            (1000, 0.01, "s1000"),
            (100, 1.0, "d100"),
            (100, 0.01, "s100"),
        ] {
            let shape = DataShape {
                scenario,
                cols,
                sparsity,
            };
            let opt = Workload::new(reml_scripts::linreg_ds(), shape)?.optimize()?;
            values.push((format!("{label}-CP"), opt.best.cp_heap_mb as f64 / 1024.0));
            values.push((format!("{label}-MR"), opt.best.max_mr_mb() as f64 / 1024.0));
        }
        result.push_row(scenario.name(), values);
    }
    result.notes = "Paper (Table 2): XS–M choose 0.5–8 GB CP / 2 GB MR; L/XL may grow either \
                    dimension (e.g. 53.4/12.8 for dense100 XL) but never default to B-LL's \
                    53.3/4.4 over-provisioning."
        .to_string();
    Ok(vec![result])
}

/// Table 3: optimization details on dense1000 — block recompilations,
/// cost-model invocations, optimization time, and relative overhead
/// against the measured execution time.
pub fn table3_overhead() -> Outcome {
    let mut result = ExperimentResult::new(
        "table3",
        "optimization overhead, dense1000 (Hybrid m=15, serial)",
    );
    for script in reml_scripts::all_scripts() {
        // XL only for the non-iterative DS, matching the paper's table.
        let scenarios = if script.name == "LinregDS" {
            &Scenario::ALL[..]
        } else {
            &Scenario::ALL[..4]
        };
        for &scenario in scenarios {
            let wl = Workload::new(script.clone(), dense1000(scenario))?;
            let opt = wl.optimize()?;
            let exec_s = wl
                .measure(opt.best, false, SimFacts::default(), FaultPlan::none())?
                .elapsed_s;
            let opt_s = opt.stats.opt_time.as_secs_f64();
            let requests = opt.stats.plan_cache_hits + opt.stats.plan_cache_misses;
            result.push_row(
                format!("{} {}", wl.script.name, scenario.name()),
                vec![
                    ("#Comp".to_string(), opt.stats.block_compilations as f64),
                    ("#Cost".to_string(), opt.stats.cost_invocations as f64),
                    ("OptTime[s]".to_string(), opt_s),
                    ("Enum[s]".to_string(), opt.stats.enumerate_s),
                    ("Cost[s]".to_string(), opt.stats.cost_s),
                    ("Prune[s]".to_string(), opt.stats.prune_s),
                    ("Cache[s]".to_string(), opt.stats.cache_s),
                    ("%overhead".to_string(), 100.0 * opt_s / (opt_s + exec_s)),
                    ("#CacheHit".to_string(), opt.stats.plan_cache_hits as f64),
                    ("#CacheMiss".to_string(), opt.stats.plan_cache_misses as f64),
                    (
                        "#CompAvoided".to_string(),
                        opt.stats.compilations_avoided as f64,
                    ),
                    (
                        "hit%".to_string(),
                        100.0 * opt.stats.plan_cache_hits as f64 / requests.max(1) as f64,
                    ),
                ],
            );
        }
    }
    result.notes = "Paper: 0.35 s (LinregDS XS) to 11.2 s (GLM M); relative overhead < 0.1–7 % \
                    except GLM XS (35 %). Shape target: overhead grows with program size and \
                    data size, but stays small relative to execution for M+. Enum/Cost/Prune/\
                    Cache split OptTime into enumeration, cost-model, unsound-prune, and \
                    plan-cache phases (worker CPU time when parallel)."
        .to_string();
    Ok(vec![result])
}

/// Table 5 (Appendix D): SystemML-on-MR with resource optimization vs
/// the hand-coded Spark ports of L2SVM (hybrid and full RDD plans),
/// across data scales.
pub fn table5_spark() -> Outcome {
    let mut result = ExperimentResult::new(
        "table5",
        "L2SVM dense1000: SystemML-MR w/ Opt vs Spark plans [s]",
    );
    let spark = SparkConfig::paper_config();
    for scenario in Scenario::ALL {
        let wl = Workload::new(reml_scripts::l2svm(), dense1000(scenario))?;
        let opt = wl.optimize()?;
        let opt_s = opt.stats.opt_time.as_secs_f64();
        let t_sysml = wl
            .measure(opt.best, false, SimFacts::default(), FaultPlan::none())?
            .elapsed_s
            + opt_s;
        let data_mb = x_size_mb(wl.shape)?;
        let t_hybrid = simulate_spark_iterative(&wl.cluster, &spark, SparkPlan::Hybrid, data_mb, 5);
        let t_full = simulate_spark_iterative(&wl.cluster, &spark, SparkPlan::Full, data_mb, 5);
        result.push_row(
            scenario.name(),
            vec![
                ("SysML+Opt".to_string(), t_sysml),
                ("Spark-Hyb".to_string(), t_hybrid),
                ("Spark-Full".to_string(), t_full),
            ],
        );
    }
    result.notes = "Paper: 6/25/59 s at XS, 40/43/184 at M, 836/167/347 at L (Spark's RDD-cache \
                    sweet spot), converging at XL (12376/10119/13661). Shape target: SystemML \
                    wins small scales, Spark wins at L, rough parity at XL."
        .to_string();
    Ok(vec![result])
}

fn x_size_mb(shape: DataShape) -> Result<u64, crate::Error> {
    let bytes = shape.x_characteristics().estimated_size_bytes();
    Ok(bytes.ok_or("X has no size estimate")? / (1024 * 1024))
}

/// Table 6 (Appendix D): throughput — SystemML-on-MR with the resource
/// optimizer vs Spark (full plan) at 1/8/32 users, L2SVM scenario S.
pub fn table6_spark_throughput() -> Outcome {
    let wl = Workload::new(reml_scripts::l2svm(), dense1000(Scenario::S))?;
    let mut result = ExperimentResult::new(
        "table6",
        "L2SVM S dense1000: throughput [app/min], SysML+Opt vs Spark-Full",
    );

    // SystemML path.
    let opt = wl.optimize()?;
    let sysml_slots = wl.cluster.max_parallel_apps(opt.best.cp_heap_mb);
    let sysml_duration = wl
        .measure(opt.best, false, SimFacts::default(), FaultPlan::none())?
        .elapsed_s;

    // Spark path: full plan, reduced 512 MB driver (the paper's setting),
    // but executors still occupy the whole cluster -> 1 app at a time.
    let mut spark = SparkConfig::paper_config();
    spark.driver_mem_mb = 512;
    let spark_duration = simulate_spark_iterative(
        &wl.cluster,
        &spark,
        SparkPlan::Full,
        x_size_mb(wl.shape)?,
        5,
    );
    let spark_slots = spark.max_parallel_apps(&wl.cluster);

    println!(
        "SysML+Opt: {:.0} s/app, {} slots | Spark-Full: {:.0} s/app, {} slots",
        sysml_duration, sysml_slots, spark_duration, spark_slots
    );

    for users in [1u32, 8, 32] {
        let sysml = simulate_throughput(sysml_duration, sysml_slots, users, 8, 0.5);
        let spark_t = simulate_throughput(spark_duration, spark_slots, users, 8, 0.5);
        result.push_row(
            format!("{users} users"),
            vec![
                ("SysML+Opt".to_string(), sysml.throughput_apps_per_min),
                ("Spark-Full".to_string(), spark_t.throughput_apps_per_min),
                (
                    "ratio".to_string(),
                    sysml.throughput_apps_per_min / spark_t.throughput_apps_per_min,
                ),
                ("SysML_p50[s]".to_string(), sysml.latency_p50_s),
                ("SysML_p95[s]".to_string(), sysml.latency_p95_s),
                ("SysML_p99[s]".to_string(), sysml.latency_p99_s),
                ("SysML_qwait[s]".to_string(), sysml.queue_wait_mean_s),
                ("Spark_p99[s]".to_string(), spark_t.latency_p99_s),
                ("Spark_qwait[s]".to_string(), spark_t.queue_wait_mean_s),
            ],
        );
    }
    result.notes = "Paper: 5.1 vs 0.48 app/min at 1 user; 69.8 vs 0.83 at 32 users (13.7x \
                    scaling for SystemML, ~flat for Spark whose single app occupies the \
                    cluster)."
        .to_string();
    Ok(vec![result])
}

/// Ablations for the design choices DESIGN.md calls out: grid generator
/// choice (plan quality vs optimization overhead), pruning on/off
/// (optimizer-time blow-up), and optimizer work vs program size.
pub fn ablation_optimizer() -> Outcome {
    let shape = dense1000(Scenario::M);

    // --- Grid strategy ablation on Linreg CG (memory-sensitive). ---
    let wl = Workload::new(reml_scripts::linreg_cg(), shape)?;
    let mut grids = ExperimentResult::new(
        "ablation_grids",
        "LinregCG M dense1000: grid strategy vs plan quality and overhead",
    );
    for (label, grid) in [
        ("Equi15", GridStrategy::Equi { points: 15 }),
        ("Equi45", GridStrategy::Equi { points: 45 }),
        ("Exp", GridStrategy::Exp { factor: 2.0 }),
        ("Mem15", GridStrategy::MemBased { base_points: 15 }),
        ("Hybrid15", GridStrategy::Hybrid { base_points: 15 }),
    ] {
        let mut optimizer = ResourceOptimizer::new(CostModel::new(wl.cluster.clone()));
        optimizer.config.cp_grid = grid;
        optimizer.config.mr_grid = grid;
        let r = optimizer.optimize(&wl.analyzed, &wl.base, None)?;
        grids.push_row(
            label,
            vec![
                ("est_cost[s]".to_string(), r.best_cost_s),
                ("cp_points".to_string(), r.stats.cp_points as f64),
                (
                    "opt_time[ms]".to_string(),
                    r.stats.opt_time.as_secs_f64() * 1000.0,
                ),
                (
                    "chosenCP[GB]".to_string(),
                    r.best.cp_heap_mb as f64 / 1024.0,
                ),
            ],
        );
    }
    grids.notes = "Hybrid should match the best plan quality at a fraction of Equi45's \
                   enumeration cost."
        .to_string();

    // --- Pruning ablation on GLM (many blocks). ---
    let wl = Workload::new(reml_scripts::glm(), shape)?;
    let mut pruning = ExperimentResult::new("ablation_pruning", "GLM M dense1000: pruning on/off");
    for (label, small, unknown) in [
        ("prune both", true, true),
        ("no small-prune", false, true),
        ("no unknown-prune", true, false),
        ("no pruning", false, false),
    ] {
        let mut optimizer = ResourceOptimizer::new(CostModel::new(wl.cluster.clone()));
        optimizer.config.prune_small = small;
        optimizer.config.prune_unknown = unknown;
        let r = optimizer.optimize(&wl.analyzed, &wl.base, None)?;
        pruning.push_row(
            label,
            vec![
                ("remaining".to_string(), r.stats.blocks_remaining as f64),
                ("#Comp".to_string(), r.stats.block_compilations as f64),
                ("#Cost".to_string(), r.stats.cost_invocations as f64),
                (
                    "opt_time[ms]".to_string(),
                    r.stats.opt_time.as_secs_f64() * 1000.0,
                ),
            ],
        );
    }
    pruning.notes = "Both rules matter: small-op pruning removes known-CP blocks; unknown \
                     pruning removes GLM/MLogreg's constant offset of unknown blocks."
        .to_string();

    // --- Memoization sanity: cost invocations scale linearly in blocks. ---
    let mut linear = ExperimentResult::new(
        "ablation_linear",
        "optimizer work scales with program size (dense1000 M)",
    );
    for ctor in [
        reml_scripts::linreg_ds as fn() -> ScriptSpec,
        reml_scripts::l2svm,
        reml_scripts::mlogreg,
        reml_scripts::glm,
    ] {
        let wl = Workload::new(ctor(), shape)?;
        let r = wl.optimize()?;
        linear.push_row(
            wl.script.name,
            vec![
                ("blocks".to_string(), wl.analyzed.num_blocks() as f64),
                ("#Comp".to_string(), r.stats.block_compilations as f64),
                ("#Cost".to_string(), r.stats.cost_invocations as f64),
            ],
        );
    }
    linear.notes = "The semi-independent-problems property keeps optimizer work linear in \
                    the number of (unpruned) blocks."
        .to_string();
    Ok(vec![grids, pruning, linear])
}

/// Ablation: cluster-utilization-aware what-if analysis (§6 extension).
///
/// Sweeps the fraction of MR slots available to the application and
/// reports (a) the CP configuration the optimizer chooses and (b) the
/// measured time with and without utilization-aware adaptation. As the
/// cluster fills up, distributed plans lose their parallelism and the
/// optimizer falls back toward single-node in-memory plans.
pub fn ablation_utilization() -> Outcome {
    let wl = Workload::new(reml_scripts::linreg_ds(), dense1000(Scenario::M))?;
    let mut result = ExperimentResult::new(
        "ablation_utilization",
        "LinregDS M dense1000: optimizer choice vs cluster load",
    );
    let sim = Simulator::new(wl.cluster.clone());
    let run_loaded = |resources: ResourceConfig, slot_availability: f64| {
        let config = SimConfig {
            resources,
            reopt: false,
            facts: SimFacts::default(),
            slot_availability,
            faults: FaultPlan::none(),
        };
        sim.run_app(&wl.analyzed, &wl.base, &config)
    };
    for avail_pct in [100u32, 50, 25, 10, 5, 2, 1] {
        let availability = avail_pct as f64 / 100.0;
        let optimizer = ResourceOptimizer::new(CostModel::with_slot_availability(
            wl.cluster.clone(),
            availability,
        ));
        let opt = optimizer.optimize(&wl.analyzed, &wl.base, None)?;
        let outcome = run_loaded(opt.best.clone(), availability)?;
        // Contrast: the idle-cluster choice executed under the same load.
        let naive = run_loaded(wl.optimize()?.best, availability)?;
        result.push_row(
            format!("{avail_pct}% slots free"),
            vec![
                (
                    "chosenCP[GB]".to_string(),
                    opt.best.cp_heap_mb as f64 / 1024.0,
                ),
                ("aware[s]".to_string(), outcome.elapsed_s),
                ("unaware[s]".to_string(), naive.elapsed_s),
            ],
        );
    }
    result.notes = "As slots disappear, the load-aware optimizer shifts from distributed \
                    plans to single-node CP plans; the load-unaware choice degrades with \
                    the shrinking parallelism (§6, 'fallback to single node in-memory \
                    computation might be beneficial')."
        .to_string();
    Ok(vec![result])
}

/// Fault sweep: the five paper scripts under escalating fault schedules
/// (Figure 15-style robustness view of the §4 runtime adaptation layer).
///
/// Each script runs at M scale with adaptation enabled, pinned to the
/// 512 MB YARN minimum at entry so recompilations and MR jobs give the
/// fault triggers something to hit, under three schedules:
///
/// * `none`      — the clean baseline,
/// * `light`     — a lossy cluster: 10% container preemption + one
///   1.5× straggler,
/// * `canonical` — one of every fault kind, including an AM kill that
///   exercises the §4 recovery decision and a task OOM that forces
///   recompilation to MR plans at actual sizes.
///
/// Reported per script: elapsed time under each schedule, the rework
/// seconds directly attributable to faults, and recovery/retry counts
/// under the canonical schedule.
pub fn fault_sweep() -> Outcome {
    let mut result = ExperimentResult::new(
        "fault_sweep",
        "Paper scripts (M, dense1000) under none/light/canonical fault schedules",
    );
    for script in reml_scripts::all_scripts() {
        let label = script.name.to_string();
        let wl = Workload::new(script, dense1000(Scenario::M))?;
        let entry = ResourceConfig::uniform(512, 512);
        let mut values = Vec::new();
        let mut run = |name: &str, plan: FaultPlan| {
            let out = wl.measure(entry.clone(), true, table_facts(5), plan)?;
            values.push((format!("{name}[s]"), out.elapsed_s));
            Ok::<_, crate::Error>(out)
        };
        run("none", FaultPlan::none())?;
        run("light", FaultPlan::light())?;
        let canonical = run("canonical", FaultPlan::canonical())?;
        values.push(("rework[s]".to_string(), canonical.fault_rework_s()));
        values.push(("faults".to_string(), canonical.faults_injected as f64));
        values.push(("recoveries".to_string(), canonical.recoveries as f64));
        values.push(("retries".to_string(), canonical.task_retries as f64));
        result.push_row(label, values);
    }
    result.notes = "Every run replays deterministically from (seed, FaultPlan); the \
                    golden traces for the canonical schedule live in tests/golden/. \
                    Rework seconds cover re-executed task work, AM restart latency, \
                    and OOM-wasted CP attempts; they are a lower bound on the \
                    elapsed-time gap because faults also shift the optimizer's \
                    post-recovery choices."
        .to_string();
    Ok(vec![result])
}
