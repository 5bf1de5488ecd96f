//! §4 runtime adaptation: when a block that was marked for
//! recompilation still compiles to MR jobs, re-optimize the remaining
//! program and migrate the AM if the benefit ΔC beats the migration
//! cost C_M. Also home to the two helpers adaptation shares with AM-kill
//! recovery: running a scoped re-optimization against the live cluster
//! utilization, and switching to the configuration it picked.

use reml_compiler::{CompileConfig, CompileError};
use reml_cost::CostModel;
use reml_lang::BlockId;
use reml_optimizer::{decide_adaptation, ResourceConfig, ResourceOptimizer};

use super::{pool_capacity_bytes, AdaptationEvent, SimState};
use crate::causal::{Bucket, CausalKind, Comp};
use crate::fault::TraceEvent;

/// Overhead charged for one runtime re-optimization (the paper reports
/// sub-second re-optimization; we charge a conservative constant).
const DECISION_OPT_OVERHEAD_S: f64 = 0.5;

impl SimState<'_> {
    /// Runtime re-optimization + migration decision.
    pub(super) fn adapt(&mut self, id: BlockId) -> Result<(), CompileError> {
        let decision = self.reoptimize("adapt.reopt", |optimizer, base, s| {
            decide_adaptation(
                optimizer,
                s.analyzed,
                base,
                id,
                &s.env,
                s.resources.cp_heap_mb,
                s.pool.dirty_bytes(),
            )
        })?;
        let ev = AdaptationEvent {
            block: id.0,
            migrated: decision.migrate,
            global_cp_mb: decision.global.0.cp_heap_mb,
            delta_cost_s: decision.delta_cost_s,
            migration_cost_s: decision.migration_cost_s,
        };
        self.injector.record(
            self.outcome.causal.now(),
            TraceEvent::Adaptation { ev: ev.clone() },
        );
        self.outcome.adaptations.push(ev);
        if !decision.migrate {
            // Apply the locally optimal MR configuration in place.
            self.apply_target(false, &decision.target);
            return Ok(());
        }
        let migration = reml_optimizer::adapt::estimate_migration_cost(
            &self.sim.cluster,
            self.pool.dirty_bytes(),
        );
        for (comp, bucket, label, secs) in [
            (Comp::Io, Bucket::Io, "migrate.export", migration.io_s),
            (
                Comp::Latency,
                Bucket::SchedulingDelay,
                "migrate.alloc",
                migration.latency_s,
            ),
        ] {
            self.outcome
                .causal
                .charge(comp, bucket, CausalKind::Migration, label, secs, 1);
        }
        self.apply_target(true, &decision.target);
        // The §4.1 export: dirty variables are written to HDFS (charged
        // above) and clean in the new container's pool.
        let capacity = self.cp_pool_capacity();
        self.pool.migrate(capacity, |_, _| {});
        // Keep the RM mirror honest: the AM moved to a new container.
        self.injector.restart_am(self.resources.cp_heap_mb);
        self.injector.record(
            self.outcome.causal.now(),
            TraceEvent::Migration {
                block: id.0,
                io_s: migration.io_s,
                latency_s: migration.latency_s,
                to_cp_mb: self.resources.cp_heap_mb,
            },
        );
        Ok(())
    }

    /// Run one scoped re-optimization and charge its overhead under
    /// `label`. The optimizer sees the current slot availability (the §6
    /// utilization-aware extension) and the actual `table()` width.
    pub(super) fn reoptimize<T>(
        &mut self,
        label: &str,
        decide: impl FnOnce(&ResourceOptimizer, &CompileConfig, &Self) -> Result<T, CompileError>,
    ) -> Result<T, CompileError> {
        let optimizer = ResourceOptimizer::new(CostModel::with_slot_availability(
            self.sim.cluster.clone(),
            self.cost_model.slot_availability,
        ));
        let mut base = self.base.clone();
        base.table_cols_hint = Some(self.facts.table_cols);
        let decision = decide(&optimizer, &base, self)?;
        // Optimizer overhead is part of measured time.
        self.outcome.causal.charge(
            Comp::Compute,
            Bucket::Recompilation,
            CausalKind::Recompilation,
            label,
            DECISION_OPT_OVERHEAD_S,
            1,
        );
        Ok(decision)
    }

    /// Switch to a re-optimization's `target`: a migration takes the
    /// whole configuration and counts (the caller moves the buffer pool
    /// to the new CP budget); otherwise only the MR heap assignment
    /// changes.
    pub(super) fn apply_target(&mut self, migrate: bool, target: &ResourceConfig) {
        if migrate {
            self.resources = target.clone();
            self.outcome.migrations += 1;
        } else {
            self.resources.mr_heap = target.mr_heap.clone();
        }
        self.cfg.cp_heap_mb = self.resources.cp_heap_mb;
        self.cfg.mr_heap.clone_from(&self.resources.mr_heap);
    }

    /// Buffer-pool capacity of the current CP budget.
    pub(super) fn cp_pool_capacity(&self) -> u64 {
        pool_capacity_bytes(&self.sim.cluster, self.resources.cp_heap_mb)
    }
}
