//! The plan-scanning cost model.

use std::sync::Arc;

use reml_cluster::ClusterConfig;
use reml_matrix::MatrixCharacteristics;
use reml_runtime::flops::instruction_flops;
use reml_runtime::instructions::{CpInstruction, Instruction, MrJobInstruction, OpCode};
use reml_runtime::program::{Predicate, RtBlock, RuntimeProgram};
use reml_runtime::value::Operand;

use crate::calibrate::CalibrationProfile;
use crate::state::{VarState, VarStates};

/// Iteration count assumed for loops whose bound is unknown — "a constant
/// which at least reflects that the body is executed multiple times"
/// (§3.1).
pub const DEFAULT_UNKNOWN_ITERATIONS: u64 = 10;

/// Probability weight of each branch of a conditional with an unknown
/// predicate.
const BRANCH_WEIGHT: f64 = 0.5;

const MBF: f64 = (1024 * 1024) as f64;

/// Decomposed time estimate, seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostBreakdown {
    /// HDFS/local IO time.
    pub io_s: f64,
    /// Compute time.
    pub compute_s: f64,
    /// Job and task latency.
    pub latency_s: f64,
    /// Shuffle time.
    pub shuffle_s: f64,
    /// Number of MR jobs costed (latency events).
    pub mr_jobs: u64,
}

impl CostBreakdown {
    /// Total time, seconds.
    pub fn total_s(&self) -> f64 {
        self.io_s + self.compute_s + self.latency_s + self.shuffle_s
    }

    fn add(&mut self, other: &CostBreakdown) {
        self.io_s += other.io_s;
        self.compute_s += other.compute_s;
        self.latency_s += other.latency_s;
        self.shuffle_s += other.shuffle_s;
        self.mr_jobs += other.mr_jobs;
    }

    fn scale(&self, factor: f64) -> CostBreakdown {
        CostBreakdown {
            io_s: self.io_s * factor,
            compute_s: self.compute_s * factor,
            latency_s: self.latency_s * factor,
            shuffle_s: self.shuffle_s * factor,
            mr_jobs: (self.mr_jobs as f64 * factor).round() as u64,
        }
    }
}

/// The analytic cost model over a cluster configuration.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Cluster description (bandwidths, latencies, slot arithmetic).
    pub cluster: ClusterConfig,
    /// Fraction of MR task slots currently available to this application
    /// (1.0 = idle cluster). Cluster-utilization-aware what-if analysis
    /// (§6): under heavy load, distributed plans lose parallelism and the
    /// optimizer correctly falls back toward single-node plans.
    pub slot_availability: f64,
    /// Optional trace-fitted calibration (see [`crate::calibrate`]):
    /// per-opcode measured corrections applied to CP compute estimates.
    /// `None` keeps the pure analytic model. Shared via `Arc` so the
    /// optimizer's parallel grid workers clone cheaply.
    pub calibration: Option<Arc<CalibrationProfile>>,
}

impl CostModel {
    /// Model over an idle cluster.
    pub fn new(cluster: ClusterConfig) -> Self {
        CostModel {
            cluster,
            slot_availability: 1.0,
            calibration: None,
        }
    }

    /// Model over a cluster with only `availability` ∈ (0, 1] of its MR
    /// slots free (multi-tenant load).
    pub fn with_slot_availability(cluster: ClusterConfig, availability: f64) -> Self {
        CostModel {
            cluster,
            slot_availability: availability.clamp(0.01, 1.0),
            calibration: None,
        }
    }

    /// Builder: attach a trace-fitted calibration profile. CP compute
    /// estimates for fitted opcodes use the measured model; everything
    /// else (unseen opcodes, MR phase decomposition) stays analytic.
    pub fn with_calibration(mut self, profile: Arc<CalibrationProfile>) -> Self {
        self.calibration = Some(profile);
        self
    }

    /// Cost a whole program. `cp_heap_mb` is the control-program heap
    /// (eviction accounting); `mr_heap_mb` maps a statement-block id to
    /// the MR task heap used for that block's jobs (the per-block `rⁱ`).
    pub fn cost_program(
        &self,
        program: &RuntimeProgram,
        cp_heap_mb: u64,
        mr_heap_mb: &dyn Fn(usize) -> u64,
    ) -> CostBreakdown {
        self.cost_program_states(program, cp_heap_mb, mr_heap_mb, &mut VarStates::new())
    }

    /// [`CostModel::cost_program`] from a given state map, which the scan
    /// leaves as the program ends (its [`VarStates::peak`] included).
    pub fn cost_program_states(
        &self,
        program: &RuntimeProgram,
        cp_heap_mb: u64,
        mr_heap_mb: &dyn Fn(usize) -> u64,
        states: &mut VarStates,
    ) -> CostBreakdown {
        reml_trace::count("cost.program_invocations", 1);
        let mut total = CostBreakdown::default();
        for block in &program.blocks {
            total.add(&self.cost_block(block, cp_heap_mb, mr_heap_mb, states));
        }
        total
    }

    /// The CP memory budget a plan scan evicts against, bytes. The CP
    /// heap reaches the cost only through this budget's eviction checks.
    pub fn cp_budget_bytes(&self, cp_heap_mb: u64) -> u64 {
        self.cluster.budget_mb_for_heap(cp_heap_mb) * 1024 * 1024
    }

    /// Cost a single block subtree with a fresh state map (the
    /// optimizer's per-block memoized costing).
    pub fn cost_block_fresh(
        &self,
        block: &RtBlock,
        cp_heap_mb: u64,
        mr_heap_mb: &dyn Fn(usize) -> u64,
    ) -> CostBreakdown {
        let mut states = VarStates::new();
        self.cost_block(block, cp_heap_mb, mr_heap_mb, &mut states)
    }

    /// Cost a bare instruction list (single-block what-if costing).
    pub fn cost_instructions(
        &self,
        instructions: &[Instruction],
        cp_heap_mb: u64,
        mr_heap_mb: u64,
        states: &mut VarStates,
    ) -> CostBreakdown {
        let mut total = CostBreakdown::default();
        for instr in instructions {
            let c = match instr {
                Instruction::Cp(cp) => self.cost_cp(cp, cp_heap_mb, states),
                Instruction::MrJob(job) => self.cost_mr_job(job, mr_heap_mb, states),
            };
            total.add(&c);
        }
        total
    }

    fn cost_block(
        &self,
        block: &RtBlock,
        cp_heap_mb: u64,
        mr_heap_mb: &dyn Fn(usize) -> u64,
        states: &mut VarStates,
    ) -> CostBreakdown {
        match block {
            RtBlock::Generic {
                source,
                instructions,
                ..
            } => self.cost_instructions(instructions, cp_heap_mb, mr_heap_mb(source.0), states),
            RtBlock::If {
                source,
                pred,
                then_blocks,
                else_blocks,
            } => {
                let mut total = self.cost_predicate(pred, cp_heap_mb, mr_heap_mb(source.0), states);
                // Weighted sum over branches; states explored on clones so
                // neither branch's effects are assumed.
                let mut then_states = states.clone();
                let mut then_cost = CostBreakdown::default();
                for b in then_blocks {
                    then_cost.add(&self.cost_block(b, cp_heap_mb, mr_heap_mb, &mut then_states));
                }
                let mut else_states = states.clone();
                let mut else_cost = CostBreakdown::default();
                for b in else_blocks {
                    else_cost.add(&self.cost_block(b, cp_heap_mb, mr_heap_mb, &mut else_states));
                }
                total.add(&then_cost.scale(BRANCH_WEIGHT));
                total.add(&else_cost.scale(BRANCH_WEIGHT));
                // Keep the heavier branch's states (conservative).
                let (mut kept, dropped) = if then_cost.total_s() >= else_cost.total_s() {
                    (then_states, else_states)
                } else {
                    (else_states, then_states)
                };
                kept.absorb_peak(&dropped);
                *states = kept;
                total
            }
            RtBlock::While {
                source,
                pred,
                body,
                max_iter_hint,
            } => {
                let iters = max_iter_hint.unwrap_or(DEFAULT_UNKNOWN_ITERATIONS).max(1);
                let mut one_iter =
                    self.cost_predicate(pred, cp_heap_mb, mr_heap_mb(source.0), states);
                for b in body {
                    one_iter.add(&self.cost_block(b, cp_heap_mb, mr_heap_mb, states));
                }
                // Second iteration onwards benefits from warmed state:
                // cost it separately and scale.
                let mut warm_iter =
                    self.cost_predicate(pred, cp_heap_mb, mr_heap_mb(source.0), states);
                for b in body {
                    warm_iter.add(&self.cost_block(b, cp_heap_mb, mr_heap_mb, states));
                }
                let mut total = one_iter;
                total.add(&warm_iter.scale((iters - 1) as f64));
                total
            }
            RtBlock::For {
                source,
                from,
                to,
                body,
                iterations_hint,
                ..
            } => {
                let iters = iterations_hint.unwrap_or(DEFAULT_UNKNOWN_ITERATIONS).max(1);
                let mut total = self.cost_predicate(from, cp_heap_mb, mr_heap_mb(source.0), states);
                total.add(&self.cost_predicate(to, cp_heap_mb, mr_heap_mb(source.0), states));
                let mut one_iter = CostBreakdown::default();
                for b in body {
                    one_iter.add(&self.cost_block(b, cp_heap_mb, mr_heap_mb, states));
                }
                let mut warm_iter = CostBreakdown::default();
                for b in body {
                    warm_iter.add(&self.cost_block(b, cp_heap_mb, mr_heap_mb, states));
                }
                total.add(&one_iter);
                total.add(&warm_iter.scale((iters - 1) as f64));
                total
            }
        }
    }

    fn cost_predicate(
        &self,
        pred: &Predicate,
        cp_heap_mb: u64,
        mr_heap_mb: u64,
        states: &mut VarStates,
    ) -> CostBreakdown {
        self.cost_instructions(&pred.instructions, cp_heap_mb, mr_heap_mb, states)
    }

    /// Cost one CP instruction: reads for on-HDFS operands, compute,
    /// output state transition, and partial eviction accounting against
    /// the CP budget.
    fn cost_cp(
        &self,
        cp: &CpInstruction,
        cp_heap_mb: u64,
        states: &mut VarStates,
    ) -> CostBreakdown {
        let mut c = CostBreakdown::default();
        match &cp.opcode {
            OpCode::PersistentRead { .. } => {
                // Lazy-read semantics: the read instruction itself binds
                // the variable; IO is charged on first in-memory use.
                if let Some(out) = &cp.output {
                    states.set(out, VarState::OnHdfs);
                }
                return c;
            }
            OpCode::PersistentWrite { path: _ } => {
                let var = match cp.operands.first() {
                    Some(Operand::Var(var)) => Some(var),
                    _ => None,
                };
                let operand_state = var.map_or(VarState::InMemoryDirty, |v| states.get(v));
                // Clean variables (MR outputs / unmodified reads) need no
                // write; dirty in-memory variables are exported.
                if operand_state == VarState::InMemoryDirty {
                    let mb = cp
                        .operand_mcs
                        .first()
                        .and_then(MatrixCharacteristics::hdfs_size_bytes)
                        .unwrap_or(0) as f64
                        / MBF;
                    c.io_s += mb / self.cluster.hdfs_write_mbs;
                    if let Some(var) = var {
                        states.set(var, VarState::InMemoryClean);
                    }
                }
                return c;
            }
            _ => {}
        }
        // Reads for on-HDFS matrix operands.
        for (operand, mc) in cp.operands.iter().zip(&cp.operand_mcs) {
            if let Operand::Var(name) = operand {
                if !mc.is_scalar() && states.get(name).needs_read() {
                    let mb = mc.hdfs_size_bytes().unwrap_or(0) as f64 / MBF;
                    c.io_s += mb / self.cluster.hdfs_read_mbs;
                    states.set(name, VarState::InMemoryClean);
                    if let Some(bytes) = mc.estimated_size_bytes() {
                        states.note_resident(name, bytes);
                    }
                }
            }
        }
        // Compute: analytic `flops / peak`, replaced by the fitted
        // per-opcode model when a calibration profile carries this opcode
        // (and degrading back to analytic for unknown sizes — see
        // `crate::calibrate`).
        let flops = instruction_flops(&cp.opcode, &cp.operand_mcs, &cp.output_mc);
        let analytic_s = flops / self.cluster.peak_flops;
        c.compute_s += match self
            .calibration
            .as_deref()
            .and_then(|p| p.get(&cp.opcode.mnemonic()))
        {
            Some(cal) => {
                let pf = reml_runtime::flops::predicted_flops(
                    &cp.opcode,
                    &cp.operand_mcs,
                    &cp.output_mc,
                );
                cal.predict_seconds(pf, cp.predicted_bytes(), analytic_s)
            }
            None => analytic_s,
        };
        // Output lands in memory, dirty (except pure renames of clean
        // variables, which we still treat as dirty only if source dirty).
        if let Some(out) = &cp.output {
            let out_state = if cp.opcode == OpCode::Assign {
                cp.operands
                    .first()
                    .and_then(Operand::as_var)
                    .map(|v| states.get(v))
                    .unwrap_or(VarState::InMemoryDirty)
            } else {
                VarState::InMemoryDirty
            };
            states.set(out, out_state);
            if !cp.output_mc.is_scalar() {
                if let Some(bytes) = cp.output_mc.estimated_size_bytes() {
                    states.note_resident(out, bytes);
                }
            }
        }
        // Partial eviction accounting: overflow beyond the CP budget is
        // written out (and re-read on next use via the OnHdfs state).
        let evicted = states.enforce_budget(self.cp_budget_bytes(cp_heap_mb));
        if evicted > 0 {
            c.io_s += evicted as f64 / MBF / self.cluster.hdfs_write_mbs;
        }
        c
    }

    /// Cost one MR job per the paper's phase decomposition. MR jobs are
    /// deliberately *not* calibrated: their wall-clock behaviour is
    /// modeled by `reml-sim`, and the measured traces the calibration
    /// profile is fitted from are single-node CP executions.
    fn cost_mr_job(
        &self,
        job: &MrJobInstruction,
        mr_heap_mb: u64,
        states: &mut VarStates,
    ) -> CostBreakdown {
        let cc = &self.cluster;
        let mut c = CostBreakdown {
            latency_s: cc.mr_job_latency_s,
            mr_jobs: 1,
            ..CostBreakdown::default()
        };

        // Export of dirty in-memory inputs (single-node write).
        for (name, mc) in job.hdfs_inputs.iter().chain(&job.broadcast_inputs) {
            if states.get(name).needs_export() {
                let mb = mc.hdfs_size_bytes().unwrap_or(0) as f64 / MBF;
                c.io_s += mb / cc.hdfs_write_mbs;
                states.set(name, VarState::InMemoryClean);
            }
        }

        // Degree of parallelism (scaled by current slot availability).
        let input_mb = (job.input_bytes() as f64 / MBF).max(1.0);
        let slots = (cc.total_slots(mr_heap_mb).max(1) as f64 * self.slot_availability).max(1.0);
        // Task sizing: split by HDFS blocks but never more tasks than
        // useful — the optimizer's minimum-task-size adjustment based on
        // available virtual cores (§5.2).
        let tasks_by_block = (input_mb / cc.hdfs_block_mb as f64).ceil().max(1.0);
        let tasks = tasks_by_block.min((slots * 8.0).max(1.0));
        let map_parallel = tasks.min(slots);
        let waves = (tasks / slots).ceil().max(1.0);

        // Task latency per wave.
        c.latency_s += waves * cc.mr_task_latency_s;

        // Broadcast distribution: each node pulls the broadcast set once.
        let broadcast_mb = job.broadcast_mb();
        c.io_s += broadcast_mb * cc.num_nodes as f64 / (cc.shuffle_mbs * cc.num_nodes as f64);

        // Map read.
        c.io_s += input_mb / (cc.hdfs_read_mbs * map_parallel);

        // Map compute (+ spill penalty when the per-task working set
        // exceeds the MR task budget — small tasks thrash, §5.2's B-SS
        // observation).
        let mr_budget_mb = cc.budget_mb_for_heap(mr_heap_mb) as f64;
        let split_mb = input_mb / tasks;
        let working_set = split_mb + broadcast_mb;
        let spill_penalty = if working_set > mr_budget_mb && mr_budget_mb > 0.0 {
            (working_set / mr_budget_mb).min(8.0)
        } else {
            1.0
        };
        let map_flops: f64 = job
            .mappers
            .iter()
            .map(|op| instruction_flops(&op.opcode, &op.operand_mcs, &op.output_mc))
            .sum();
        c.compute_s += spill_penalty * map_flops / (cc.peak_flops * map_parallel);

        // Map write: outputs produced map-side.
        let map_out_mb: f64 = job
            .outputs
            .iter()
            .filter(|(name, _)| {
                job.mappers
                    .iter()
                    .any(|m| m.output.as_deref() == Some(name))
            })
            .map(|(_, mc)| mc.hdfs_size_bytes().unwrap_or(0) as f64 / MBF)
            .sum();
        c.io_s += map_out_mb / (cc.hdfs_write_mbs * map_parallel);

        if job.has_reduce() {
            let reducers = (cc.default_reducers as f64).min(slots).max(1.0);
            let shuffle_mb = job.shuffle_bytes() as f64 / MBF;
            c.shuffle_s += shuffle_mb / (cc.shuffle_mbs * reducers);
            let reduce_flops: f64 = job
                .reducers
                .iter()
                .map(|op| instruction_flops(&op.opcode, &op.operand_mcs, &op.output_mc))
                .sum();
            // Reduce-side physical operators parallelize across reducers,
            // but their map-side partial work parallelized across map
            // tasks; we charge the dominant (reducer) share plus read and
            // write of reduce outputs.
            c.compute_s += reduce_flops / (cc.peak_flops * map_parallel.max(reducers));
            let reduce_out_mb: f64 = job
                .outputs
                .iter()
                .filter(|(name, _)| {
                    job.reducers
                        .iter()
                        .any(|m| m.output.as_deref() == Some(name))
                })
                .map(|(_, mc)| mc.hdfs_size_bytes().unwrap_or(0) as f64 / MBF)
                .sum();
            c.io_s += shuffle_mb / (cc.hdfs_read_mbs * reducers);
            c.io_s += reduce_out_mb / (cc.hdfs_write_mbs * reducers);
        }

        // Job outputs land on HDFS.
        for (name, _) in &job.outputs {
            states.set(name, VarState::OnHdfs);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reml_lang::BlockId;
    use reml_matrix::BinaryOp;
    use reml_runtime::instructions::{MrLocation, MrOperator};
    use reml_runtime::value::ScalarValue;

    fn model() -> CostModel {
        CostModel::new(ClusterConfig::paper_cluster())
    }

    fn dense(r: u64, c: u64) -> MatrixCharacteristics {
        MatrixCharacteristics::dense(r, c)
    }

    fn cp(
        opcode: OpCode,
        operands: Vec<(Operand, MatrixCharacteristics)>,
        output: Option<(&str, MatrixCharacteristics)>,
    ) -> Instruction {
        let (ops, mcs): (Vec<_>, Vec<_>) = operands.into_iter().unzip();
        Instruction::Cp(CpInstruction {
            opcode,
            operands: ops,
            operand_mcs: mcs,
            output: output.map(|(n, _)| n.into()),
            output_mc: output
                .map(|(_, mc)| mc)
                .unwrap_or_else(MatrixCharacteristics::scalar),
            bound_bytes: None,
        })
    }

    #[test]
    fn first_use_pays_read_second_does_not() {
        let m = model();
        let mut states = VarStates::new();
        // 8 GB dense X.
        let x_mc = dense(10_000_000, 100);
        let instrs = [
            cp(
                OpCode::PersistentRead { path: "X".into() },
                vec![],
                Some(("X", x_mc)),
            ),
            cp(
                OpCode::Agg(reml_matrix::AggOp::Sum),
                vec![(Operand::var("X"), x_mc)],
                Some(("s", MatrixCharacteristics::scalar())),
            ),
            cp(
                OpCode::Agg(reml_matrix::AggOp::Sum),
                vec![(Operand::var("X"), x_mc)],
                Some(("s2", MatrixCharacteristics::scalar())),
            ),
        ];
        let c1 = m.cost_instructions(&instrs[..2], 1_000_000, 512, &mut states);
        // ~8000 MB / 150 MB/s ≈ 50.9 s of IO.
        assert!((c1.io_s - 50.8).abs() < 2.0, "io {}", c1.io_s);
        let c2 = m.cost_instructions(&instrs[2..], 1_000_000, 512, &mut states);
        assert_eq!(c2.io_s, 0.0, "second use reads from memory");
        assert!(c2.compute_s > 0.0);
    }

    #[test]
    fn loaded_cluster_slows_mr_jobs() {
        let idle = model();
        let loaded = CostModel::with_slot_availability(ClusterConfig::paper_cluster(), 0.1);
        let x_mc = dense(10_000_000, 100);
        let job = MrJobInstruction {
            hdfs_inputs: vec![("X".into(), x_mc)],
            broadcast_inputs: vec![],
            mappers: vec![MrOperator {
                opcode: OpCode::Tsmm,
                operands: vec![Operand::var("X")],
                output: Some("G".into()),
                operand_mcs: vec![x_mc],
                output_mc: dense(100, 100),
                location: MrLocation::Map,
                task_mem_mb: 0.0,
            }],
            reducers: vec![],
            outputs: vec![("G".into(), dense(100, 100))],
            shuffle: vec![],
        };
        let mut s1 = VarStates::new();
        let t_idle = idle
            .cost_instructions(&[Instruction::MrJob(job.clone())], 1_000_000, 2048, &mut s1)
            .total_s();
        let mut s2 = VarStates::new();
        let t_loaded = loaded
            .cost_instructions(&[Instruction::MrJob(job)], 1_000_000, 2048, &mut s2)
            .total_s();
        assert!(t_loaded > 2.0 * t_idle, "idle {t_idle} loaded {t_loaded}");
    }

    #[test]
    fn mr_job_latency_dominates_small_jobs() {
        let m = model();
        let mut states = VarStates::new();
        let small = dense(1000, 10);
        let job = MrJobInstruction {
            hdfs_inputs: vec![("X".into(), small)],
            broadcast_inputs: vec![],
            mappers: vec![MrOperator {
                opcode: OpCode::UnaryM(reml_matrix::UnaryOp::Abs),
                operands: vec![Operand::var("X")],
                output: Some("y".into()),
                operand_mcs: vec![small],
                output_mc: small,
                location: MrLocation::Map,
                task_mem_mb: 0.0,
            }],
            reducers: vec![],
            outputs: vec![("y".into(), small)],
            shuffle: vec![],
        };
        let c = m.cost_instructions(&[Instruction::MrJob(job)], 1_000_000, 2048, &mut states);
        assert!(c.latency_s >= 15.0);
        assert!(c.total_s() < 25.0);
        assert!(c.latency_s / c.total_s() > 0.8, "latency dominates");
    }

    #[test]
    fn mr_parallelism_beats_single_node_for_compute_heavy() {
        let m = model();
        // TSMM on 8 GB, 1000 cols: compute-bound.
        let x_mc = dense(1_000_000, 1000);
        let out = dense(1000, 1000);
        // CP version.
        let mut s1 = VarStates::new();
        let cp_cost = m.cost_instructions(
            &[
                cp(
                    OpCode::PersistentRead { path: "X".into() },
                    vec![],
                    Some(("X", x_mc)),
                ),
                cp(
                    OpCode::Tsmm,
                    vec![(Operand::var("X"), x_mc)],
                    Some(("G", out)),
                ),
            ],
            1_000_000,
            512,
            &mut s1,
        );
        // MR version.
        let mut s2 = VarStates::new();
        let job = MrJobInstruction {
            hdfs_inputs: vec![("X".into(), x_mc)],
            broadcast_inputs: vec![],
            mappers: vec![],
            reducers: vec![MrOperator {
                opcode: OpCode::Tsmm,
                operands: vec![Operand::var("X")],
                output: Some("G".into()),
                operand_mcs: vec![x_mc],
                output_mc: out,
                location: MrLocation::Reduce,
                task_mem_mb: 0.0,
            }],
            outputs: vec![("G".into(), out)],
            shuffle: vec![out],
        };
        let mr_cost = m.cost_instructions(&[Instruction::MrJob(job)], 1_000_000, 2048, &mut s2);
        assert!(
            mr_cost.total_s() < cp_cost.total_s() / 3.0,
            "mr {} vs cp {}",
            mr_cost.total_s(),
            cp_cost.total_s()
        );
    }

    #[test]
    fn spill_penalty_for_tiny_task_memory() {
        let m = model();
        let x_mc = dense(10_000_000, 100); // 8 GB
        let job = |heap: u64| {
            let job = MrJobInstruction {
                hdfs_inputs: vec![("X".into(), x_mc)],
                broadcast_inputs: vec![],
                mappers: vec![MrOperator {
                    opcode: OpCode::BinaryMS(BinaryOp::Mul),
                    operands: vec![Operand::var("X"), Operand::num(2.0)],
                    output: Some("y".into()),
                    operand_mcs: vec![x_mc, MatrixCharacteristics::scalar()],
                    output_mc: x_mc,
                    location: MrLocation::Map,
                    task_mem_mb: 0.0,
                }],
                reducers: vec![],
                outputs: vec![("y".into(), x_mc)],
                shuffle: vec![],
            };
            let mut s = VarStates::new();
            m.cost_instructions(&[Instruction::MrJob(job)], 1_000_000, heap, &mut s)
                .compute_s
        };
        // 128 MB splits vs 64 MB budget (97 MB heap): penalty applies.
        assert!(job(97) > job(2048));
    }

    #[test]
    fn export_charged_for_dirty_inputs_only() {
        let m = model();
        let v_mc = dense(1_000_000, 1); // 8 MB
        let job = MrJobInstruction {
            hdfs_inputs: vec![("X".into(), dense(10_000_000, 100))],
            broadcast_inputs: vec![("v".into(), v_mc)],
            mappers: vec![],
            reducers: vec![],
            outputs: vec![],
            shuffle: vec![],
        };
        // Case 1: v dirty in memory -> export charged.
        let mut s1 = VarStates::new();
        s1.set(&"v".into(), VarState::InMemoryDirty);
        let c1 = m.cost_instructions(&[Instruction::MrJob(job.clone())], 1_000_000, 2048, &mut s1);
        // Case 2: v already on HDFS.
        let mut s2 = VarStates::new();
        let c2 = m.cost_instructions(&[Instruction::MrJob(job)], 1_000_000, 2048, &mut s2);
        assert!(c1.io_s > c2.io_s);
    }

    #[test]
    fn while_loop_scales_by_hint() {
        let m = model();
        let body_instr = cp(
            OpCode::BinarySS(BinaryOp::Add),
            vec![
                (Operand::var("i"), MatrixCharacteristics::scalar()),
                (Operand::num(1.0), MatrixCharacteristics::scalar()),
            ],
            Some(("i", MatrixCharacteristics::scalar())),
        );
        let mk = |hint: Option<u64>| RtBlock::While {
            source: BlockId(0),
            pred: Predicate {
                instructions: vec![cp(
                    OpCode::BinarySS(BinaryOp::Less),
                    vec![
                        (Operand::var("i"), MatrixCharacteristics::scalar()),
                        (Operand::num(100.0), MatrixCharacteristics::scalar()),
                    ],
                    Some(("__p", MatrixCharacteristics::scalar())),
                )],
                result_var: "__p".into(),
            },
            body: vec![RtBlock::Generic {
                source: BlockId(1),
                instructions: vec![body_instr.clone()],
                requires_recompile: false,
            }],
            max_iter_hint: hint,
        };
        let c5 = m.cost_block_fresh(&mk(Some(5)), 1_000_000, &|_| 512);
        let c50 = m.cost_block_fresh(&mk(Some(50)), 1_000_000, &|_| 512);
        let c_unknown = m.cost_block_fresh(&mk(None), 1_000_000, &|_| 512);
        assert!(c50.total_s() > c5.total_s() * 5.0);
        // Unknown hint = DEFAULT_UNKNOWN_ITERATIONS.
        let c10 = m.cost_block_fresh(&mk(Some(DEFAULT_UNKNOWN_ITERATIONS)), 1_000_000, &|_| 512);
        assert!((c_unknown.total_s() - c10.total_s()).abs() < 1e-12);
    }

    #[test]
    fn if_costs_weighted_sum() {
        let m = model();
        let big = dense(10_000_000, 100);
        let heavy = RtBlock::Generic {
            source: BlockId(1),
            instructions: vec![
                cp(
                    OpCode::PersistentRead { path: "X".into() },
                    vec![],
                    Some(("X", big)),
                ),
                cp(
                    OpCode::Agg(reml_matrix::AggOp::Sum),
                    vec![(Operand::var("X"), big)],
                    Some(("s", MatrixCharacteristics::scalar())),
                ),
            ],
            requires_recompile: false,
        };
        let branch = RtBlock::If {
            source: BlockId(0),
            pred: Predicate {
                instructions: vec![cp(
                    OpCode::Assign,
                    vec![(
                        Operand::Lit(ScalarValue::Bool(true)),
                        MatrixCharacteristics::scalar(),
                    )],
                    Some(("__p", MatrixCharacteristics::scalar())),
                )],
                result_var: "__p".into(),
            },
            then_blocks: vec![heavy.clone()],
            else_blocks: vec![],
        };
        let c_branch = m.cost_block_fresh(&branch, 1_000_000, &|_| 512);
        let c_heavy = m.cost_block_fresh(&heavy, 1_000_000, &|_| 512);
        // Weighted at 0.5.
        assert!((c_branch.total_s() - 0.5 * c_heavy.total_s()).abs() < 1e-9);
    }

    #[test]
    fn if_merge_keeps_the_dropped_arms_peak() {
        // The scan continues from the costlier arm (one MR job, nothing
        // resident), but the cheaper arm held two matrices at once: a
        // budget below that pair evicts, so the merged peak must count it.
        let m = model();
        let v = dense(1000, 1000);
        let job = MrJobInstruction {
            hdfs_inputs: vec![("X".into(), v)],
            broadcast_inputs: vec![],
            mappers: vec![],
            reducers: vec![],
            outputs: vec![],
            shuffle: vec![],
        };
        let arm = |source, instructions| RtBlock::Generic {
            source: BlockId(source),
            instructions,
            requires_recompile: false,
        };
        let branch = RtBlock::If {
            source: BlockId(0),
            pred: Predicate {
                instructions: vec![],
                result_var: "__p".into(),
            },
            then_blocks: vec![arm(1, vec![Instruction::MrJob(job)])],
            else_blocks: vec![arm(
                2,
                vec![cp(
                    OpCode::UnaryM(reml_matrix::UnaryOp::Abs),
                    vec![(Operand::var("X"), v)],
                    Some(("Y", v)),
                )],
            )],
        };
        let mut states = VarStates::new();
        m.cost_block(&branch, 1_000_000, &|_| 512, &mut states);
        assert_eq!(states.peak(), 2 * v.estimated_size_bytes().unwrap());
    }

    #[test]
    fn loop_warm_iterations_cheaper_after_first_read() {
        // First iteration pays the X read; later iterations do not — the
        // Linreg CG "read once, iterate in memory" effect.
        let m = model();
        let big = dense(10_000_000, 100);
        let w = dense(100, 1);
        let body = RtBlock::Generic {
            source: BlockId(1),
            instructions: vec![cp(
                OpCode::MatMult,
                vec![(Operand::var("X"), big), (Operand::var("w"), w)],
                Some(("q", dense(10_000_000, 1))),
            )],
            requires_recompile: false,
        };
        let loop_block = RtBlock::While {
            source: BlockId(0),
            pred: Predicate {
                instructions: vec![],
                result_var: "c".into(),
            },
            body: vec![body],
            max_iter_hint: Some(5),
        };
        // Manually give predicate var.
        let mut states = VarStates::new();
        states.set(&"c".into(), VarState::InMemoryClean);
        let mut total = CostBreakdown::default();
        total.add(&m.cost_block(&loop_block, 1_000_000, &|_| 512, &mut states));
        // IO should be the one-time 8 GB read (~51 s), not 5x.
        assert!(total.io_s > 40.0 && total.io_s < 60.0, "io {}", total.io_s);
    }
}
