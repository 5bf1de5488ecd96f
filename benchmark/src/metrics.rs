//! The benchmark's contract. `BENCHMARK.json` at the repo root is the one
//! place workloads, metrics, units, directions and bounds are written; it
//! is compiled in and parsed here. Its shape is fixed by the driver and has
//! no room for two things this file adds: which per-layer metrics are exact
//! counts, and which end-to-end metric each layer should move.

use std::sync::OnceLock;

use serde_json::Value;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the reference median by which the metric may worsen.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: String,
    pub unit: String,
    /// A count that must repeat bit for bit on one commit and seed. Its
    /// `better` in `BENCHMARK.json` is nominal: the file's shape requires
    /// one, and a count that changes is reported, never ranked.
    pub exact: bool,
}

pub struct Contract {
    pub run_seconds: u64,
    /// Workload names, in the order the default command runs them.
    pub workloads: Vec<String>,
    pub end_to_end: Vec<EndToEnd>,
    pub per_layer: Vec<PerLayer>,
}

/// Per-layer metrics that are exact counts.
const EXACT: [&str; 20] = [
    "compiler.blocks",
    "compiler.mr_jobs",
    "cost.invocations",
    "sizebound.cp_points_pruned",
    "optimizer.grid_points",
    "optimizer.block_compilations",
    "optimizer.compilations_avoided",
    "sim.simulated_s",
    "sim.events",
    "sim.recompilations",
    "sim.mr_jobs",
    "sim.migrations",
    "sim.adaptations",
    "sim.recoveries",
    "sim.task_retries",
    "sim.faults_injected",
    "runtime.fused_groups",
    "runtime.fused_ops_eliminated",
    "runtime.cp_instructions",
    "runtime.bufferpool_evictions",
];

/// The end-to-end metric each layer's metrics should move, and on which
/// workload: a layer is the part of a per-layer name before its first dot.
/// Written down before the first measurement; printed with the traced run.
pub const MOVES: [(&str, &str); 10] = [
    ("scripts", "setup_s on exec_dense and exec_sparse"),
    (
        "lang",
        "op_p50_ms on plan_sweep (1-3 % of an op); nothing elsewhere",
    ),
    (
        "compiler",
        "class_geomean_ms on plan_sweep, capped by optimizer.enumerate_share; op_tail_ms on \
         adapt_faults through sim.recompilations; only setup_s on exec_*",
    ),
    (
        "cost",
        "op_tail_ms on plan_sweep (XL classes run 100-1700 costings per request)",
    ),
    (
        "sizebound",
        "op_p50_ms on plan_sweep (a fixed cost per request, largest on XS/S)",
    ),
    (
        "optimizer",
        "ops_per_s and class_geomean_ms on plan_sweep; op_tail_ms on adapt_faults through \
         scoped re-optimization; nothing on exec_*",
    ),
    (
        "sim",
        "ops_per_s on adapt_faults (the whole op); op_p50_ms on plan_sweep (half or more of an \
         XS/S op)",
    ),
    (
        "runtime",
        "class_geomean_ms and ops_per_s on exec_dense and exec_sparse; runtime.lower_vm_us only \
         setup_s",
    ),
    (
        "matrix",
        "class_geomean_ms on exec_dense (dense kernels) or exec_sparse (CSR kernels), never \
         both for one kernel; nothing on plan_sweep and adapt_faults",
    ),
    (
        "trace",
        "nothing: it bounds how far the per-layer numbers can be trusted",
    ),
];

/// What the metrics of `layer` should move.
pub fn moves(layer: &str) -> &'static str {
    MOVES
        .iter()
        .find(|(name, _)| *name == layer)
        .map_or_else(|| panic!("no layer {layer}"), |(_, moves)| moves)
}

/// The layer a per-layer metric belongs to.
pub fn layer_of(metric: &str) -> &str {
    metric.split('.').next().unwrap_or(metric)
}

fn parse(text: &str) -> Result<Contract, String> {
    let root: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let list = |key: &str| {
        root[key]
            .as_array()
            .ok_or_else(|| format!("{key} is not a list"))
    };
    let text_of = |entry: &Value, key: &str| {
        entry[key]
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("{key} missing in {entry:?}"))
    };
    let mut contract = Contract {
        run_seconds: root["run_seconds"].as_u64().ok_or("no run_seconds")?,
        workloads: Vec::new(),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };
    for entry in list("workloads")? {
        contract.workloads.push(text_of(entry, "name")?);
    }
    for entry in list("end_to_end")? {
        contract.end_to_end.push(EndToEnd {
            name: text_of(entry, "name")?,
            unit: text_of(entry, "unit")?,
            better: match entry["better"].as_str() {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("better is {other:?}")),
            },
            bound: entry["bound"].as_f64().ok_or("bound missing")?,
        });
    }
    for entry in list("per_layer")? {
        let name = text_of(entry, "name")?;
        contract.per_layer.push(PerLayer {
            exact: EXACT.contains(&name.as_str()),
            unit: text_of(entry, "unit")?,
            name,
        });
    }
    Ok(contract)
}

pub fn contract() -> &'static Contract {
    static CONTRACT: OnceLock<Contract> = OnceLock::new();
    CONTRACT.get_or_init(|| {
        parse(include_str!("../../BENCHMARK.json"))
            .unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    })
}

pub fn end_to_end(name: &str) -> &'static EndToEnd {
    contract()
        .end_to_end
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("unknown end-to-end metric {name}"))
}

pub fn per_layer(name: &str) -> &'static PerLayer {
    contract()
        .per_layer
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("unknown per-layer metric {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_exact_name_and_every_layer_is_in_the_contract() {
        let c = contract();
        for name in EXACT {
            assert!(per_layer(name).exact, "{name}");
        }
        assert_eq!(c.per_layer.iter().filter(|m| m.exact).count(), EXACT.len());
        for m in &c.per_layer {
            moves(layer_of(&m.name));
        }
        for (layer, _) in MOVES {
            assert!(
                c.per_layer.iter().any(|m| layer_of(&m.name) == layer),
                "no metric of layer {layer}"
            );
        }
    }

    #[test]
    fn the_contract_has_the_shape_the_driver_requires() {
        let c = contract();
        assert!((1..=60).contains(&c.run_seconds));
        assert!((2..=8).contains(&c.workloads.len()));
        assert!(c.per_layer.len() <= 128);
        let setup = end_to_end("setup_s");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        assert!(c
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let mut seen = std::collections::BTreeSet::new();
        let names = (c.workloads.iter())
            .chain(c.end_to_end.iter().map(|m| &m.name))
            .chain(c.per_layer.iter().map(|m| &m.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
        }
        let units =
            (c.end_to_end.iter().map(|m| &m.unit)).chain(c.per_layer.iter().map(|m| &m.unit));
        for unit in units {
            assert!(unit.len() <= 16, "{unit}");
            assert!(unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)));
        }
    }
}
