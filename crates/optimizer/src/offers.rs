//! Offer-based resource allocation — the Mesos instantiation of the ML
//! Program Resource Allocation Problem (§2.3).
//!
//! Under request-based negotiation (YARN) the optimizer *asks* for the
//! optimal configuration; under offer-based negotiation (Mesos) the
//! framework is *offered* concrete resource bundles and must decide which
//! (if any) to accept. The same what-if machinery applies: compile the
//! program under each offered configuration, cost the runtime plan, and
//! accept the offer with minimal cost — preferring smaller offers on
//! ties, and rejecting all offers whose cost exceeds a caller-provided
//! reservation value (e.g. the cost under currently held resources).

use reml_compiler::build::Env;
use reml_compiler::pipeline::AnalyzedProgram;
use reml_compiler::session::WhatIfSession;
use reml_compiler::{CompileConfig, CompileError};

use crate::cache::improves;
use crate::optimizer::ResourceOptimizer;
use crate::resources::ResourceConfig;

/// Outcome of evaluating a round of offers.
#[derive(Debug, Clone)]
pub struct OfferDecision {
    /// Index of the accepted offer, or `None` when every offer was worse
    /// than the reservation cost.
    pub accepted: Option<usize>,
    /// Estimated cost of each offer, seconds (same order as input).
    pub costs_s: Vec<f64>,
}

/// Evaluate concrete resource offers for a program.
///
/// `reservation_cost_s` is the cost of declining all offers (e.g. the
/// estimate under the resources already held); pass `f64::INFINITY` when
/// the application holds nothing yet.
pub fn choose_offer(
    optimizer: &ResourceOptimizer,
    analyzed: &AnalyzedProgram,
    base: &CompileConfig,
    offers: &[ResourceConfig],
    reservation_cost_s: f64,
    scope: Option<(usize, &Env)>,
) -> Result<OfferDecision, CompileError> {
    let cc = &optimizer.cost_model.cluster;
    if offers.is_empty() {
        return Ok(OfferDecision {
            accepted: None,
            costs_s: Vec::new(),
        });
    }
    // One what-if session per offer round: similar offers (budgets in the
    // same decision intervals) share compiled plans.
    let session = WhatIfSession::new(analyzed, base, scope, optimizer.config.plan_cache)?;
    let mut costs_s = Vec::with_capacity(offers.len());
    let mut accepted = None;
    let mut best: Option<(ResourceConfig, f64)> = None;
    for (idx, offer) in offers.iter().enumerate() {
        let plan = session.compile_plan(offer.cp_heap_mb, &offer.mr_heap)?;
        let heap_of = offer.mr_heap.clone();
        let cost = optimizer
            .cost_model
            .cost_program(&plan.runtime, offer.cp_heap_mb, &|bid| {
                heap_of.for_block(bid)
            })
            .total_s();
        costs_s.push(cost);
        // The first acceptable offer must beat declining; after that,
        // offers compete under Definition 1 like grid points do.
        let better = match best {
            None => cost < reservation_cost_s,
            Some(_) => improves(&best, offer, cost, cc),
        };
        if better {
            accepted = Some(idx);
            best = Some((offer.clone(), cost));
        }
    }
    Ok(OfferDecision { accepted, costs_s })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reml_cluster::ClusterConfig;
    use reml_compiler::pipeline::analyze_program;
    use reml_compiler::MrHeapAssignment;
    use reml_cost::CostModel;
    use reml_scripts::{DataShape, Scenario};

    fn setup() -> (ResourceOptimizer, AnalyzedProgram, CompileConfig) {
        let script = reml_scripts::linreg_cg();
        let shape = DataShape {
            scenario: Scenario::M,
            cols: 1000,
            sparsity: 1.0,
        };
        let base = script.compile_config(
            shape,
            ClusterConfig::paper_cluster(),
            512,
            MrHeapAssignment::uniform(512),
        );
        let optimizer = ResourceOptimizer::new(CostModel::new(ClusterConfig::paper_cluster()));
        (optimizer, analyze_program(&script.source).unwrap(), base)
    }

    #[test]
    fn picks_the_offer_that_fits_the_working_set() {
        let (opt, analyzed, base) = setup();
        // CG on 8 GB X: the 16 GB offer beats the 2 GB and 4 GB offers.
        let offers = vec![
            ResourceConfig::uniform(2 * 1024, 1024),
            ResourceConfig::uniform(4 * 1024, 1024),
            ResourceConfig::uniform(16 * 1024, 1024),
        ];
        let d = choose_offer(&opt, &analyzed, &base, &offers, f64::INFINITY, None).unwrap();
        assert_eq!(d.accepted, Some(2), "costs: {:?}", d.costs_s);
        assert!(d.costs_s[2] < d.costs_s[0]);
    }

    #[test]
    fn equal_cost_offers_resolve_to_smaller() {
        let (opt, analyzed, base) = setup();
        // Both offers hold X comfortably: costs tie, smaller wins.
        let offers = vec![
            ResourceConfig::uniform(48 * 1024, 1024),
            ResourceConfig::uniform(16 * 1024, 1024),
        ];
        let d = choose_offer(&opt, &analyzed, &base, &offers, f64::INFINITY, None).unwrap();
        assert_eq!(d.accepted, Some(1), "costs: {:?}", d.costs_s);
    }

    #[test]
    fn all_offers_declined_below_reservation() {
        let (opt, analyzed, base) = setup();
        let offers = vec![ResourceConfig::uniform(512, 512)];
        // Reservation cost better than anything offered: decline.
        let d = choose_offer(&opt, &analyzed, &base, &offers, 1.0, None).unwrap();
        assert_eq!(d.accepted, None);
        assert_eq!(d.costs_s.len(), 1);
    }

    #[test]
    fn empty_offer_round() {
        let (opt, analyzed, base) = setup();
        let d = choose_offer(&opt, &analyzed, &base, &[], f64::INFINITY, None).unwrap();
        assert_eq!(d.accepted, None);
        assert!(d.costs_s.is_empty());
    }
}
