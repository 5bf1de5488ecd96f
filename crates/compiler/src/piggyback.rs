//! Piggybacking: packing MR operators into a minimal number of MR jobs.
//!
//! SystemML "packs MR operators of a DAG into a minimal number of MR
//! jobs" (§2.1) under constraints of execution location (map/reduce),
//! dataflow (an operator can consume same-job map output but a
//! reduce-produced value cannot be re-mapped within the job), and task
//! memory (the sum of broadcast inputs must fit the MR task budget,
//! Appendix B "bin packing constrained by sum of memory requirements").
//!
//! This module is a greedy first-fit packer over the MR operator plans
//! produced by [`crate::lower`]; packing order is DAG topological order,
//! which keeps dependencies forward.

use std::collections::BTreeMap;
use std::sync::Arc;

use reml_matrix::MatrixCharacteristics;
use reml_runtime::instructions::{MrJobInstruction, MrLocation, MrOperator, OpCode};
use reml_runtime::value::Operand;

use crate::hop::HopId;

/// How an MR operator executes physically.
#[derive(Debug, Clone, PartialEq)]
pub enum MrOpKind {
    /// Pure map-side execution (possibly with broadcast inputs).
    MapOnly,
    /// Map-side compute with a final aggregation in the reduce phase
    /// (partial results shuffled).
    MapWithAgg,
    /// Shuffle-based execution: inputs are repartitioned and the operator
    /// runs reduce-side (e.g. CPMM cross-product matmult, reblock
    /// transpose).
    ShuffleJoin,
}

/// A planned MR operator awaiting job assignment.
#[derive(Debug, Clone)]
pub struct MrOpPlan {
    /// The producing hop.
    pub hop: HopId,
    /// Physical kind.
    pub kind: MrOpKind,
    /// Runtime opcode.
    pub opcode: OpCode,
    /// Operands (positional, as for CP).
    pub operands: Vec<Operand>,
    /// Operand characteristics.
    pub operand_mcs: Vec<MatrixCharacteristics>,
    /// Output variable name.
    pub output: Arc<str>,
    /// Output characteristics.
    pub output_mc: MatrixCharacteristics,
    /// Hop inputs that are broadcast into task memory (with sizes).
    pub broadcasts: Vec<(HopId, Arc<str>, MatrixCharacteristics, f64)>,
    /// Hop inputs streamed from HDFS / the job dataflow (not broadcast).
    pub streamed: Vec<(HopId, Arc<str>, MatrixCharacteristics)>,
    /// Data shuffled by this operator (map→reduce), if any.
    pub shuffle: Vec<MatrixCharacteristics>,
}

impl MrOpPlan {
    /// Total broadcast memory, MB.
    pub fn broadcast_mb(&self) -> f64 {
        self.broadcasts.iter().map(|(_, _, _, mb)| *mb).sum()
    }

    /// Whether this op can run in the reduce phase when its inputs are
    /// reduce-produced (cheap elementwise/aggregation follow-ups).
    fn reduce_side_capable(&self) -> bool {
        matches!(
            self.opcode,
            OpCode::BinaryMM(_)
                | OpCode::BinaryMS(_)
                | OpCode::BinarySM(_)
                | OpCode::UnaryM(_)
                | OpCode::Agg(_)
        )
    }
}

/// Why an operator could not be added to the current job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reject {
    /// Broadcast memory budget exceeded.
    BroadcastBudget,
    /// A broadcast input is produced inside this job.
    BroadcastNotMaterialized,
    /// Dataflow requires a phase the job cannot provide.
    PhaseConflict,
}

/// Builder for one MR job.
struct JobBuilder {
    mappers: Vec<MrOperator>,
    reducers: Vec<MrOperator>,
    produced_map: Vec<HopId>,
    produced_reduce: Vec<HopId>,
    members: Vec<HopId>,
    broadcast_mb: f64,
    broadcast_inputs: BTreeMap<Arc<str>, MatrixCharacteristics>,
    hdfs_inputs: BTreeMap<Arc<str>, MatrixCharacteristics>,
    shuffle: Vec<MatrixCharacteristics>,
    mr_budget_mb: f64,
}

impl JobBuilder {
    fn new(mr_budget_mb: f64) -> Self {
        JobBuilder {
            mappers: Vec::new(),
            reducers: Vec::new(),
            produced_map: Vec::new(),
            produced_reduce: Vec::new(),
            members: Vec::new(),
            broadcast_mb: 0.0,
            broadcast_inputs: BTreeMap::new(),
            hdfs_inputs: BTreeMap::new(),
            shuffle: Vec::new(),
            mr_budget_mb,
        }
    }

    fn is_empty(&self) -> bool {
        self.mappers.is_empty() && self.reducers.is_empty()
    }

    fn try_add(&mut self, plan: &MrOpPlan) -> Result<(), Reject> {
        // Broadcast inputs must be materialized before the job starts.
        for (hop, _, _, _) in &plan.broadcasts {
            if self.produced_map.contains(hop) || self.produced_reduce.contains(hop) {
                return Err(Reject::BroadcastNotMaterialized);
            }
        }
        if self.broadcast_mb + plan.broadcast_mb() > self.mr_budget_mb && !self.is_empty() {
            return Err(Reject::BroadcastBudget);
        }
        // Dataflow classification of streamed inputs.
        let mut needs_reduce_input = false;
        for (hop, _, _) in &plan.streamed {
            if self.produced_reduce.contains(hop) {
                needs_reduce_input = true;
            }
        }
        let location = match plan.kind {
            MrOpKind::MapOnly => {
                if needs_reduce_input {
                    if plan.reduce_side_capable() {
                        MrLocation::Reduce
                    } else {
                        return Err(Reject::PhaseConflict);
                    }
                } else {
                    MrLocation::Map
                }
            }
            MrOpKind::MapWithAgg | MrOpKind::ShuffleJoin => {
                // The map part needs map-accessible inputs.
                if needs_reduce_input {
                    return Err(Reject::PhaseConflict);
                }
                MrLocation::Reduce
            }
        };
        // Accept: record external inputs.
        for (hop, name, mc) in &plan.streamed {
            if !self.members.contains(hop) {
                self.hdfs_inputs.insert(name.clone(), *mc);
            }
        }
        for (_, name, mc, mb) in &plan.broadcasts {
            if self.broadcast_inputs.insert(name.clone(), *mc).is_none() {
                self.broadcast_mb += mb;
            }
        }
        self.shuffle.extend(plan.shuffle.iter().copied());
        let op = MrOperator {
            opcode: plan.opcode.clone(),
            operands: plan.operands.clone(),
            output: Some(plan.output.clone()),
            operand_mcs: plan.operand_mcs.clone(),
            output_mc: plan.output_mc,
            location,
            task_mem_mb: plan.broadcast_mb(),
        };
        match location {
            MrLocation::Map => {
                self.mappers.push(op);
                self.produced_map.push(plan.hop);
            }
            MrLocation::Reduce => {
                self.reducers.push(op);
                self.produced_reduce.push(plan.hop);
            }
        }
        self.members.push(plan.hop);
        Ok(())
    }

    fn finish(
        self,
        plans: &[MrOpPlan],
        is_consumed_outside: impl Fn(HopId, &[HopId]) -> bool,
    ) -> MrJobInstruction {
        let mut outputs = Vec::new();
        for &hop in self.produced_map.iter().chain(self.produced_reduce.iter()) {
            if is_consumed_outside(hop, &self.members) {
                if let Some(plan) = plans.iter().find(|p| p.hop == hop) {
                    outputs.push((plan.output.clone(), plan.output_mc));
                }
            }
        }
        outputs.sort_by(|a, b| a.0.cmp(&b.0));
        MrJobInstruction {
            hdfs_inputs: self.hdfs_inputs.into_iter().collect(),
            broadcast_inputs: self.broadcast_inputs.into_iter().collect(),
            mappers: self.mappers,
            reducers: self.reducers,
            outputs,
            shuffle: self.shuffle,
        }
    }
}

/// Pack planned MR operators (in topological order) into jobs.
///
/// `consumers` lists each hop's consumer hops (over live hops), indexed
/// by [`HopId`]; `external_consumers` marks hops additionally consumed by
/// CP code or transient writes.
pub fn pack_jobs(
    plans: &[MrOpPlan],
    mr_budget_mb: f64,
    consumers: &[Vec<HopId>],
    external_consumers: &[bool],
) -> Vec<MrJobInstruction> {
    let is_consumed_outside = |hop: HopId, members: &[HopId]| -> bool {
        external_consumers[hop.0] || consumers[hop.0].iter().any(|c| !members.contains(c))
    };
    let mut jobs = Vec::new();
    let mut current = JobBuilder::new(mr_budget_mb);
    for plan in plans {
        if current.try_add(plan).is_err() {
            if !current.is_empty() {
                jobs.push(current.finish(plans, is_consumed_outside));
            }
            current = JobBuilder::new(mr_budget_mb);
            current
                .try_add(plan)
                .expect("operator must fit an empty job");
        }
    }
    if !current.is_empty() {
        jobs.push(current.finish(plans, is_consumed_outside));
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use reml_matrix::BinaryOp;

    fn plan(
        hop: usize,
        kind: MrOpKind,
        streamed: Vec<(usize, &str, MatrixCharacteristics)>,
        broadcasts: Vec<(usize, &str, f64)>,
        output: &str,
    ) -> MrOpPlan {
        let shuffle = if kind_shuffle(&kind) {
            vec![MatrixCharacteristics::dense(10, 10)]
        } else {
            vec![]
        };
        MrOpPlan {
            hop: HopId(hop),
            kind,
            opcode: OpCode::BinaryMM(BinaryOp::Mul),
            operands: streamed
                .iter()
                .map(|(_, n, _)| Operand::var(*n))
                .chain(broadcasts.iter().map(|(_, n, _)| Operand::var(*n)))
                .collect(),
            operand_mcs: vec![],
            output: output.into(),
            output_mc: MatrixCharacteristics::dense(10, 10),
            broadcasts: broadcasts
                .into_iter()
                .map(|(h, n, mb)| (HopId(h), n.into(), MatrixCharacteristics::dense(10, 1), mb))
                .collect(),
            streamed: streamed
                .into_iter()
                .map(|(h, n, mc)| (HopId(h), n.into(), mc))
                .collect(),
            shuffle,
        }
    }

    fn kind_shuffle(kind: &MrOpKind) -> bool {
        !matches!(kind, MrOpKind::MapOnly)
    }

    fn big() -> MatrixCharacteristics {
        MatrixCharacteristics::dense(100_000, 1000)
    }

    /// The packer's per-hop tables over hops `0..12`: consumer lists and
    /// the externally consumed hops.
    fn tables(consumed: &[(usize, usize)], external: &[usize]) -> (Vec<Vec<HopId>>, Vec<bool>) {
        let mut consumers = vec![Vec::new(); 12];
        for &(hop, by) in consumed {
            consumers[hop].push(HopId(by));
        }
        let mut marks = vec![false; 12];
        for &hop in external {
            marks[hop] = true;
        }
        (consumers, marks)
    }

    #[test]
    fn chained_map_ops_share_one_job() {
        // op1: y1 = f(X); op2: y2 = g(y1) — both map-only, same job.
        let p1 = plan(10, MrOpKind::MapOnly, vec![(0, "X", big())], vec![], "y1");
        let p2 = plan(11, MrOpKind::MapOnly, vec![(10, "y1", big())], vec![], "y2");
        let (consumers, external) = tables(&[(10, 11)], &[11]);
        let jobs = pack_jobs(&[p1, p2], 1000.0, &consumers, &external);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].mappers.len(), 2);
        // y1 consumed only inside; y2 is the sole output.
        assert_eq!(jobs[0].outputs.len(), 1);
        assert_eq!(&*jobs[0].outputs[0].0, "y2");
        // X read once from HDFS.
        assert_eq!(jobs[0].hdfs_inputs.len(), 1);
    }

    #[test]
    fn elementwise_after_agg_runs_reduce_side() {
        // agg produces r (reduce); elementwise on r can stay in the job.
        let p1 = plan(10, MrOpKind::MapWithAgg, vec![(0, "X", big())], vec![], "r");
        let p2 = plan(11, MrOpKind::MapOnly, vec![(10, "r", big())], vec![], "z");
        let (consumers, external) = tables(&[(10, 11)], &[11]);
        let jobs = pack_jobs(&[p1, p2], 1000.0, &consumers, &external);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].reducers.len(), 2);
    }

    #[test]
    fn map_op_on_reduce_output_forces_new_job_for_matmult() {
        // A ShuffleJoin consuming a reduce output must start a new job.
        let p1 = plan(10, MrOpKind::MapWithAgg, vec![(0, "X", big())], vec![], "r");
        let mut p2 = plan(
            11,
            MrOpKind::ShuffleJoin,
            vec![(10, "r", big())],
            vec![],
            "z",
        );
        p2.opcode = OpCode::MatMult;
        let (consumers, external) = tables(&[(10, 11)], &[11]);
        let jobs = pack_jobs(&[p1, p2], 1000.0, &consumers, &external);
        assert_eq!(jobs.len(), 2);
        // r crosses the job boundary: it is an output of job 1 and an
        // input of job 2.
        assert_eq!(&*jobs[0].outputs[0].0, "r");
        assert!(jobs[1].hdfs_inputs.iter().any(|(n, _)| &**n == "r"));
    }

    #[test]
    fn broadcast_budget_splits_jobs() {
        // Two map ops each broadcasting 600 MB with a 1000 MB budget
        // cannot share a job (the paper's X v / X w scan-sharing example).
        let p1 = plan(
            10,
            MrOpKind::MapOnly,
            vec![(0, "X", big())],
            vec![(1, "v", 600.0)],
            "xv",
        );
        let p2 = plan(
            11,
            MrOpKind::MapOnly,
            vec![(0, "X", big())],
            vec![(2, "w", 600.0)],
            "xw",
        );
        let (consumers, external) = tables(&[], &[10, 11]);
        let jobs = pack_jobs(&[p1.clone(), p2.clone()], 1000.0, &consumers, &external);
        assert_eq!(jobs.len(), 2);
        // With a 2000 MB budget they share one job (scan sharing of X).
        let jobs = pack_jobs(&[p1, p2], 2000.0, &consumers, &external);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].hdfs_inputs.len(), 1);
        assert_eq!(jobs[0].broadcast_inputs.len(), 2);
    }

    #[test]
    fn broadcast_of_job_produced_value_splits() {
        // op2 broadcasts op1's output: must be a separate job.
        let p1 = plan(10, MrOpKind::MapOnly, vec![(0, "X", big())], vec![], "v");
        let p2 = plan(
            11,
            MrOpKind::MapOnly,
            vec![(0, "X", big())],
            vec![(10, "v", 1.0)],
            "z",
        );
        let (consumers, external) = tables(&[(10, 11)], &[11]);
        let jobs = pack_jobs(&[p1, p2], 1000.0, &consumers, &external);
        assert_eq!(jobs.len(), 2);
    }

    #[test]
    fn shuffle_collected() {
        let p1 = plan(
            10,
            MrOpKind::ShuffleJoin,
            vec![(0, "X", big())],
            vec![],
            "t",
        );
        let (consumers, external) = tables(&[], &[10]);
        let jobs = pack_jobs(&[p1], 1000.0, &consumers, &external);
        assert_eq!(jobs.len(), 1);
        assert!(jobs[0].has_reduce());
        assert!(jobs[0].shuffle_bytes() > 0);
    }
}
