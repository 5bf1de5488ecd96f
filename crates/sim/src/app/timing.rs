//! Per-instruction charges: the cost model's IO / compute / shuffle /
//! latency phases (with seeded jitter on MR jobs), the buffer pool's
//! eviction and restore time, and the task-OOM watermark check that can
//! cut a block attempt short.

use std::borrow::Cow;
use std::sync::Arc;

use rand::Rng;

use reml_matrix::MatrixCharacteristics;
use reml_runtime::instructions::{CpInstruction, OpCode};
use reml_runtime::value::Operand;
use reml_runtime::Instruction;

use super::{SimFacts, SimState, LOCAL_DISK_READ_MBS, LOCAL_DISK_WRITE_MBS};
use crate::causal::{Bucket, CausalKind, Comp};

impl SimState<'_> {
    /// Time `instructions` in order, collecting the block-scoped
    /// temporaries they write into `temps`. With an OOM `watermark`
    /// armed, stops before the first CP instruction that exceeds it and
    /// returns `(opcode, needed_mb, budget_mb)`.
    pub(super) fn run_instructions(
        &mut self,
        instructions: &[Instruction],
        mr_heap_mb: u64,
        watermark: Option<f64>,
        temps: &mut Vec<Arc<str>>,
    ) -> Option<(&'static str, u64, u64)> {
        for instr in instructions {
            if let Some(oom) = watermark.and_then(|frac| self.cp_oom_check(instr, frac)) {
                return Some(oom);
            }
            self.time_instruction(instr, mr_heap_mb);
            if let Instruction::Cp(cp) = instr {
                let temp = cp.output.as_ref().filter(|out| out.starts_with("_mVar"));
                temps.extend(temp.cloned());
            }
        }
        None
    }

    /// OOM watermark check: a CP instruction whose actual-size footprint
    /// (operands + output) exceeds `frac` of the CP budget fails.
    /// Returns `(opcode, needed_mb, budget_mb)` when it fires.
    fn cp_oom_check(&self, instr: &Instruction, frac: f64) -> Option<(&'static str, u64, u64)> {
        let patched = patch_unknowns(instr, &self.facts);
        let Instruction::Cp(cp) = &*patched else {
            return None;
        };
        // Reads/writes stream block-wise; only computational operators
        // hold full operands in memory.
        if matches!(
            cp.opcode,
            OpCode::PersistentRead { .. } | OpCode::PersistentWrite { .. } | OpCode::Assign
        ) {
            return None;
        }
        let needed: u64 = cp
            .operand_mcs
            .iter()
            .chain(std::iter::once(&cp.output_mc))
            .filter(|mc| !mc.is_scalar())
            .map(|mc| mc.estimated_size_bytes().unwrap_or(0))
            .sum();
        let needed_mb = needed / (1024 * 1024);
        let budget_mb = self
            .sim
            .cluster
            .budget_mb_for_heap(self.resources.cp_heap_mb);
        if needed_mb as f64 > frac.clamp(0.0, 1.0) * budget_mb as f64 {
            Some((cp.opcode.variant_name(), needed_mb, budget_mb))
        } else {
            None
        }
    }

    fn time_instruction(&mut self, instr: &Instruction, mr_heap_mb: u64) {
        let patched = patch_unknowns(instr, &self.facts);
        let cost = self.cost_model.cost_instructions(
            std::slice::from_ref(&*patched),
            // The simulator models evictions itself via its buffer pool;
            // disable the cost model's partial eviction accounting here.
            u64::MAX / (2 * 1024 * 1024),
            mr_heap_mb,
            &mut self.var_states,
        );
        // Causal identity of this instruction's work: a distributed job
        // runs `width` tasks in parallel (serialized work = duration ×
        // width); CP work is serial.
        let (kind, label, width) = match &*patched {
            Instruction::MrJob(job) => {
                let input_mb = job
                    .hdfs_inputs
                    .iter()
                    .map(|(_, mc)| mc.estimated_size_bytes().unwrap_or(0))
                    .sum::<u64>()
                    / (1024 * 1024);
                let width = (self.sim.cluster.num_splits(input_mb) as u64)
                    .min(self.sim.cluster.total_slots(mr_heap_mb) as u64)
                    .max(1);
                (CausalKind::MrJob, "mr.job", width)
            }
            Instruction::Cp(cp) => (CausalKind::Cp, cp.opcode.variant_name(), 1),
        };
        for (comp, bucket, secs) in [
            (Comp::Io, Bucket::Io, cost.io_s),
            (Comp::Compute, Bucket::Compute, cost.compute_s),
            (Comp::Shuffle, Bucket::Shuffle, cost.shuffle_s),
        ] {
            self.outcome
                .causal
                .charge(comp, bucket, kind, label, secs, width);
        }
        // Measured jitter on MR jobs.
        let (bucket, latency_s) = if cost.mr_jobs > 0 {
            let jitter = 1.0 + self.rng.gen_range(0.0..self.facts.jitter.max(1e-9));
            (Bucket::QueueWait, cost.latency_s * jitter)
        } else {
            (Bucket::SchedulingDelay, cost.latency_s)
        };
        self.outcome
            .causal
            .charge(Comp::Latency, bucket, kind, label, latency_s, 1);
        // Fault hook: faults scheduled on any of this instruction's job
        // indices fire now, in job order (a CP instruction has none).
        let first = self.outcome.mr_jobs;
        self.outcome.mr_jobs += cost.mr_jobs;
        for (job_idx, fault_kind) in self.injector.take_mr_faults(first, cost.mr_jobs) {
            self.apply_mr_fault(job_idx, fault_kind, &cost, width, mr_heap_mb);
        }
        // Buffer pool: evictions/restores the cost model ignores.
        match &*patched {
            Instruction::Cp(cp) => self.charge_pool(cp),
            Instruction::MrJob(job) => {
                for (name, _) in job.hdfs_inputs.iter().chain(&job.broadcast_inputs) {
                    self.pool.mark_clean(name);
                }
            }
        }
    }

    /// Run one CP instruction through the buffer pool: restore evicted
    /// operands, admit the output, and charge the local-disk time of the
    /// restores and of whatever the admission evicted.
    fn charge_pool(&mut self, cp: &CpInstruction) {
        if let OpCode::PersistentWrite { .. } = &cp.opcode {
            if let Some(v) = cp.operands.first().and_then(|o| o.as_var()) {
                self.pool.mark_clean(v);
            }
        }
        let before_evicted = self.pool.stats().bytes_evicted;
        let mut restored_bytes = 0u64;
        for (operand, mc) in cp.operands.iter().zip(&cp.operand_mcs) {
            if let Operand::Var(name) = operand {
                if !mc.is_scalar() {
                    restored_bytes += self.pool.touch(name).unwrap_or(0);
                }
            }
        }
        self.outcome.causal.charge(
            Comp::Eviction,
            Bucket::Eviction,
            CausalKind::Cp,
            "pool.restore",
            restored_bytes as f64 / (1024.0 * 1024.0) / LOCAL_DISK_READ_MBS,
            1,
        );
        if let Some(out) = &cp.output {
            if !cp.output_mc.is_scalar() {
                let bytes = cp.output_mc.estimated_size_bytes().unwrap_or(0);
                // Reads are clean; renames inherit the source's dirty
                // state; computed outputs are dirty.
                let dirty = match &cp.opcode {
                    OpCode::PersistentRead { .. } => false,
                    OpCode::Assign => cp
                        .operands
                        .first()
                        .and_then(|o| o.as_var())
                        .and_then(|v| self.pool.is_dirty(v))
                        .unwrap_or(true),
                    _ => true,
                };
                self.pool.put_with_dirty(out, bytes, dirty);
            }
        }
        let evicted_delta = self.pool.stats().bytes_evicted - before_evicted;
        self.outcome.causal.charge(
            Comp::Eviction,
            Bucket::Eviction,
            CausalKind::Cp,
            "pool.evict",
            evicted_delta as f64 / (1024.0 * 1024.0) / LOCAL_DISK_WRITE_MBS,
            1,
        );
    }
}

/// Whether a characteristic needs no patching: dims and nnz known.
fn complete(mc: &MatrixCharacteristics) -> bool {
    mc.dims_known() && mc.nnz.is_some()
}

/// Whether every characteristic an instruction carries is complete.
fn all_complete(instr: &Instruction) -> bool {
    match instr {
        Instruction::Cp(cp) => cp.operand_mcs.iter().chain([&cp.output_mc]).all(complete),
        Instruction::MrJob(job) => {
            let ops = job.mappers.iter().chain(&job.reducers);
            (job.hdfs_inputs
                .iter()
                .chain(&job.broadcast_inputs)
                .chain(&job.outputs))
            .all(|(_, mc)| complete(mc))
                && job.shuffle.iter().all(complete)
                && ops
                    .flat_map(|op| op.operand_mcs.iter().chain([&op.output_mc]))
                    .all(complete)
        }
    }
}

/// Replace unknown characteristics in an instruction with runtime-actual
/// values: the only source of unknowns in the bundled programs is
/// `table()`, whose width is `facts.table_cols`. An instruction whose
/// sizes are all known is borrowed as it is.
fn patch_unknowns<'i>(instr: &'i Instruction, facts: &SimFacts) -> Cow<'i, Instruction> {
    if all_complete(instr) {
        return Cow::Borrowed(instr);
    }
    let patch_mc = |mc: &MatrixCharacteristics, indicator: bool| -> MatrixCharacteristics {
        if complete(mc) {
            return *mc;
        }
        let rows = mc.rows.unwrap_or(facts.table_cols);
        let cols = mc.cols.unwrap_or(facts.table_cols);
        let nnz = mc.nnz.unwrap_or(if indicator {
            rows
        } else {
            rows.saturating_mul(cols)
        });
        MatrixCharacteristics {
            rows: Some(rows),
            cols: Some(cols),
            nnz: Some(nnz),
        }
    };
    match instr {
        Instruction::Cp(cp) => {
            let mut cp = cp.clone();
            let indicator = matches!(cp.opcode, OpCode::TableSeq);
            cp.operand_mcs = cp.operand_mcs.iter().map(|m| patch_mc(m, false)).collect();
            cp.output_mc = patch_mc(&cp.output_mc, indicator);
            Cow::Owned(Instruction::Cp(cp))
        }
        Instruction::MrJob(job) => {
            let mut job = job.clone();
            for (_, mc) in job
                .hdfs_inputs
                .iter_mut()
                .chain(job.broadcast_inputs.iter_mut())
            {
                *mc = patch_mc(mc, false);
            }
            for op in job.mappers.iter_mut().chain(job.reducers.iter_mut()) {
                let indicator = matches!(op.opcode, OpCode::TableSeq);
                op.operand_mcs = op.operand_mcs.iter().map(|m| patch_mc(m, false)).collect();
                op.output_mc = patch_mc(&op.output_mc, indicator);
            }
            for (_, mc) in job.outputs.iter_mut() {
                *mc = patch_mc(mc, false);
            }
            for mc in job.shuffle.iter_mut() {
                *mc = patch_mc(mc, false);
            }
            Cow::Owned(Instruction::MrJob(job))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patch_unknowns_fills_table_width() {
        let facts = SimFacts {
            table_cols: 7,
            ..SimFacts::default()
        };
        let instr = Instruction::Cp(CpInstruction {
            opcode: OpCode::TableSeq,
            operands: vec![Operand::var("y")],
            output: Some("Y".into()),
            operand_mcs: vec![MatrixCharacteristics::dense(100, 1)],
            output_mc: MatrixCharacteristics {
                rows: Some(100),
                cols: None,
                nnz: Some(100),
            },
            bound_bytes: None,
        });
        let Instruction::Cp(patched) = patch_unknowns(&instr, &facts).into_owned() else {
            panic!()
        };
        assert_eq!(patched.output_mc.cols, Some(7));
        // Indicator output keeps its one-per-row nnz.
        assert_eq!(patched.output_mc.nnz, Some(100));
    }

    #[test]
    fn patch_unknowns_keeps_known_mcs() {
        let facts = SimFacts::default();
        let mc = MatrixCharacteristics::known(10, 20, 50);
        let instr = Instruction::Cp(CpInstruction {
            opcode: OpCode::Transpose,
            operands: vec![Operand::var("x")],
            output: Some("t".into()),
            operand_mcs: vec![mc],
            output_mc: mc.transpose(),
            bound_bytes: None,
        });
        let patched = patch_unknowns(&instr, &facts);
        assert!(matches!(patched, Cow::Borrowed(_)), "nothing to patch");
        assert!(*patched == instr);
    }
}
