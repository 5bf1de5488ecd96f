//! Compiler configuration: resource assignment, parameters, input
//! metadata, and compilation statistics.

use std::collections::BTreeMap;
use std::fmt;

use reml_cluster::ClusterConfig;
use reml_matrix::MatrixCharacteristics;
use reml_runtime::ScalarValue;

/// MR heap assignment: a default plus per-generic-block overrides — this
/// is the `(r¹, …, rⁿ)` half of the paper's resource vector `R_P`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MrHeapAssignment {
    /// Default MR task heap, MB.
    pub default_mb: u64,
    /// Per-block overrides keyed by statement-block id.
    pub per_block: BTreeMap<usize, u64>,
}

impl MrHeapAssignment {
    /// Uniform assignment.
    pub fn uniform(mb: u64) -> Self {
        MrHeapAssignment {
            default_mb: mb,
            per_block: BTreeMap::new(),
        }
    }

    /// Heap for a given block.
    pub fn for_block(&self, block_id: usize) -> u64 {
        self.per_block
            .get(&block_id)
            .copied()
            .unwrap_or(self.default_mb)
    }

    /// Set a per-block override.
    pub fn set_block(&mut self, block_id: usize, mb: u64) {
        self.per_block.insert(block_id, mb);
    }

    /// Largest heap across all blocks (reported as "max MR" in Table 2).
    pub fn max_mb(&self) -> u64 {
        self.per_block
            .values()
            .copied()
            .chain(std::iter::once(self.default_mb))
            .max()
            .unwrap_or(self.default_mb)
    }
}

/// Full compiler configuration for one what-if compilation.
#[derive(Debug, Clone)]
pub struct CompileConfig {
    /// Cluster description.
    pub cluster: ClusterConfig,
    /// Control-program max heap, MB (`r_c`).
    pub cp_heap_mb: u64,
    /// MR task heap assignment.
    pub mr_heap: MrHeapAssignment,
    /// `$`-parameter bindings.
    pub params: BTreeMap<String, ScalarValue>,
    /// Metadata of persistent inputs keyed by path (the value a `read()`
    /// argument resolves to).
    pub inputs: BTreeMap<String, MatrixCharacteristics>,
    /// Observed column count of `table()` outputs, when known. `None`
    /// during initial compilation (the §4 unknowns); the simulator and the
    /// runtime-adaptation path set it once the contingency table has
    /// actually been computed, which is exactly the knowledge dynamic
    /// recompilation exploits.
    pub table_cols_hint: Option<u64>,
    /// Whether HOP-level algebraic rewrites run. Disabling them yields a
    /// semantically identical (slower) plan — the reference half of the
    /// rewrite differential oracle used by translation validation.
    pub enable_rewrites: bool,
}

impl CompileConfig {
    /// Config with the given heaps over a cluster, no params/inputs.
    pub fn new(cluster: ClusterConfig, cp_heap_mb: u64, mr_heap_mb: u64) -> Self {
        CompileConfig {
            cluster,
            cp_heap_mb,
            mr_heap: MrHeapAssignment::uniform(mr_heap_mb),
            params: BTreeMap::new(),
            inputs: BTreeMap::new(),
            table_cols_hint: None,
            enable_rewrites: true,
        }
    }

    /// Same configuration with algebraic rewrites disabled (the
    /// differential-oracle reference compile).
    pub fn without_rewrites(mut self) -> Self {
        self.enable_rewrites = false;
        self
    }

    /// Add a `$` parameter binding.
    pub fn with_param(mut self, name: &str, value: ScalarValue) -> Self {
        self.params.insert(name.to_string(), value);
        self
    }

    /// Add a numeric `$` parameter binding.
    pub fn with_num_param(self, name: &str, value: f64) -> Self {
        self.with_param(name, ScalarValue::Num(value))
    }

    /// Add persistent-input metadata.
    pub fn with_input(mut self, path: &str, mc: MatrixCharacteristics) -> Self {
        self.inputs.insert(path.to_string(), mc);
        self
    }

    /// CP memory budget, MB (0.7 × heap).
    pub fn cp_budget_mb(&self) -> f64 {
        self.cluster.budget_mb_for_heap(self.cp_heap_mb) as f64
    }

    /// MR task memory budget for a block, MB.
    pub fn mr_budget_mb(&self, block_id: usize) -> f64 {
        self.cluster
            .budget_mb_for_heap(self.mr_heap.for_block(block_id)) as f64
    }
}

/// Counters exposed for the optimization-overhead experiments (Table 3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Generic-block compilations performed (the paper's "# Comp.").
    pub block_compilations: u64,
    /// HOP DAGs constructed.
    pub dags_built: u64,
    /// Common subexpressions eliminated.
    pub cse_eliminated: u64,
    /// Constant-folded operators.
    pub constants_folded: u64,
    /// Branches removed by constant predicates.
    pub branches_removed: u64,
    /// Algebraic rewrites applied.
    pub rewrites_applied: u64,
}

impl CompileStats {
    /// Merge counters from another compilation.
    pub fn absorb(&mut self, other: &CompileStats) {
        self.block_compilations += other.block_compilations;
        self.dags_built += other.dags_built;
        self.cse_eliminated += other.cse_eliminated;
        self.constants_folded += other.constants_folded;
        self.branches_removed += other.branches_removed;
        self.rewrites_applied += other.rewrites_applied;
    }
}

/// Compiler errors.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Front-end failure.
    Lang(reml_lang::LangError),
    /// An unsupported construct reached the compiler.
    Unsupported(String),
    /// A `read()` referenced a path with no metadata and no param binding.
    MissingInputMetadata(String),
    /// Internal invariant violation.
    Internal(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Lang(e) => write!(f, "{e}"),
            CompileError::Unsupported(m) => write!(f, "unsupported: {m}"),
            CompileError::MissingInputMetadata(p) => {
                write!(f, "no metadata for input '{p}'")
            }
            CompileError::Internal(m) => write!(f, "internal compiler error: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<reml_lang::LangError> for CompileError {
    fn from(e: reml_lang::LangError) -> Self {
        CompileError::Lang(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mr_heap_per_block_overrides() {
        let mut a = MrHeapAssignment::uniform(512);
        assert_eq!(a.for_block(3), 512);
        a.set_block(3, 4096);
        assert_eq!(a.for_block(3), 4096);
        assert_eq!(a.for_block(4), 512);
        assert_eq!(a.max_mb(), 4096);
    }

    #[test]
    fn budgets_follow_cluster_rules() {
        let cfg = CompileConfig::new(ClusterConfig::paper_cluster(), 1000, 2000);
        assert_eq!(cfg.cp_budget_mb(), 700.0);
        assert_eq!(cfg.mr_budget_mb(0), 1400.0);
    }

    #[test]
    fn builder_methods() {
        let cfg = CompileConfig::new(ClusterConfig::small_test_cluster(), 512, 512)
            .with_num_param("maxiter", 5.0)
            .with_input("hdfs:X", MatrixCharacteristics::dense(100, 10));
        assert_eq!(cfg.params["maxiter"], ScalarValue::Num(5.0));
        assert!(cfg.inputs.contains_key("hdfs:X"));
    }

    #[test]
    fn stats_absorb() {
        let mut a = CompileStats::default();
        let b = CompileStats {
            block_compilations: 2,
            dags_built: 3,
            cse_eliminated: 1,
            constants_folded: 4,
            branches_removed: 1,
            rewrites_applied: 2,
        };
        a.absorb(&b);
        a.absorb(&b);
        assert_eq!(a.block_compilations, 4);
        assert_eq!(a.rewrites_applied, 4);
    }
}
