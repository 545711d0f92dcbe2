//! The search-domain abstraction behind the generic campaign kernel.
//!
//! Collie's contribution is one procedure — counter-guided exploration of a
//! vector space, anomaly monitoring, and minimal-feature-set extraction —
//! that applies to any workload space with point sampling, one-coordinate
//! neighbourhoods, and a feature projection. [`SearchDomain`] names exactly
//! the operations that procedure needs, so the two-host stack
//! ([`WorkloadDomain`](crate::search::WorkloadDomain)), the fabric stack
//! ([`FabricDomain`](crate::fabric::FabricDomain)), and any future search
//! dimension share one campaign loop
//! ([`CampaignLoop`](crate::search::kernel::CampaignLoop)) and one extractor
//! ([`MfsExtractor`](crate::search::kernel::MfsExtractor)) instead of
//! hand-synchronized copies.
//!
//! **RNG-stream stability.** The kernel draws from the campaign RNG in
//! exactly the order the pre-unification loops did, and a domain must not
//! consume campaign randomness inside its own methods (none of the required
//! operations need any). This is what keeps every per-seed discovery
//! sequence bit-identical across the refactor — the contract
//! `tests/golden_traces.rs` enforces against committed fixtures.

use crate::eval::EvalStats;
use crate::monitor::{FeatureCondition, Symptom};
use crate::search::RuleHit;
use crate::space::FeatureValue;
use collie_sim::rng::SimRng;
use collie_sim::series::TimeSeries;
use collie_sim::time::SimDuration;
use std::collections::BTreeMap;

/// Experiments and simulated wall-clock charged by an MFS extraction.
///
/// Probes run on real hardware in the paper's setting, so the extractor
/// charges each one the full experiment cost — the flat segments after each
/// red cross in Figure 6 — whether or not the memo cache answered it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExtractionCost {
    /// Experiments spent probing.
    pub experiments: u32,
    /// Simulated wall-clock spent probing.
    pub elapsed: SimDuration,
}

impl ExtractionCost {
    /// Charge one probe of `cost`.
    pub fn charge(&mut self, cost: SimDuration) {
        self.experiments += 1;
        self.elapsed += cost;
    }
}

/// One search domain: a vector space the generic campaign kernel can
/// explore and extract minimal feature sets over.
///
/// Implementations bind together the space (sampling, mutation, feature
/// ladders), the memoized evaluator, and the anomaly monitor for one kind
/// of experiment. The kernel owns every loop — budget accounting, the MFS
/// skip, discovery dedup, annealing restarts, the stuck-walk escape — and
/// calls back into the domain for the operations that differ per space.
///
/// # Adding a new search dimension
///
/// Implement this trait for a point type over the new coordinates (see
/// DESIGN.md §8 for the walkthrough): define the point/feature/MFS types,
/// delegate sampling and mutation to the space, route `assess` through a
/// memoizing evaluator, and pick the anomaly identity that should dedup
/// discoveries. `run_random`/`run_annealing` and the generic extractor then
/// work unchanged.
pub trait SearchDomain {
    /// A point of the space (one experiment description). `Eq + Hash`
    /// because points key memo caches — both the evaluator's local map and
    /// an attached [`SharedCache`](crate::eval::SharedCache).
    type Point: Clone + Eq + std::hash::Hash;
    /// One coordinate name of the feature projection.
    type Feature: Copy + Ord;
    /// One measurement of a point.
    type Measurement;
    /// The observable identity of an anomaly: what a discovery must share
    /// with an existing MFS to count as a redundant sighting of the same
    /// finding. The two-host stack keys on the symptom; the fabric stack on
    /// (symptom, cross-host hallmark).
    type Identity: Clone + PartialEq;
    /// A minimal feature set over the domain's features.
    type Mfs: Clone;
    /// The public discovery record the domain's outcome type carries.
    type Discovery;
    /// What an extraction probe must reproduce to count as "still the same
    /// anomaly" (e.g. symptom + dominant diagnostic counter).
    type Signature;

    // --- sampling and neighbourhood ---

    /// Draw a uniform random point (Algorithm 1 line 1 / the random
    /// baseline's generator).
    fn random_point(&mut self, rng: &mut SimRng) -> Self::Point;
    /// Mutate one randomly chosen coordinate (Algorithm 1 line 4).
    fn mutate(&mut self, point: &Self::Point, rng: &mut SimRng) -> Self::Point;

    // --- feature projection (MFS extraction) ---

    /// Every feature of the projection, in the stable order extraction
    /// probes them.
    fn features(&self) -> Vec<Self::Feature>;
    /// Read the current value of one feature.
    fn feature_value(&self, point: &Self::Point, feature: Self::Feature) -> FeatureValue;
    /// Overwrite one feature with a concrete value (probe construction).
    fn apply(&self, point: &mut Self::Point, feature: Self::Feature, value: &FeatureValue);
    /// Candidate alternative values for one feature.
    fn alternatives(&self, point: &Self::Point, feature: Self::Feature) -> Vec<FeatureValue>;

    // --- measurement ---

    /// How long this experiment would take on real hardware.
    fn experiment_cost(&self, point: &Self::Point) -> SimDuration;
    /// The §6 four-sample measurement procedure through the domain's memo
    /// cache, plus the anomaly assessment: `Some(identity)` iff anomalous.
    fn assess(&mut self, point: &Self::Point) -> (Self::Measurement, Option<Self::Identity>);
    /// The end-to-end symptom of an anomaly identity.
    fn symptom(identity: &Self::Identity) -> Symptom;
    /// Ground-truth oracle for scoring (never consulted by the search).
    fn ground_truth(&self, point: &Self::Point) -> Vec<&'static str>;
    /// Whether the domain's outcome type reports rule-hit scoring.
    /// Domains that drop it (the fabric outcome carries no rule hits)
    /// return `false` and the kernel skips the bookkeeping — scoring
    /// only, so the choice never affects the search or any RNG draw.
    fn reports_rule_hits(&self) -> bool {
        true
    }
    /// Cache statistics of the domain's evaluator.
    fn eval_stats(&self) -> EvalStats;

    // --- retired hooks ---

    /// Always `None`; the kernel never calls it.
    ///
    /// Kept only because `campaign_bench/` names it; delete with the next
    /// benchmark PR.
    fn speculation(
        &mut self,
        workers: usize,
    ) -> Option<crate::eval::SpeculationParts<Self::Point, Self::Measurement>> {
        let _ = workers;
        None
    }

    /// Always `None`; the kernel never calls it.
    ///
    /// Kept only because `campaign_bench/` names it; delete with the next
    /// benchmark PR.
    fn judge(&self, measurement: &Self::Measurement) -> Option<Self::Identity> {
        let _ = measurement;
        None
    }

    // --- guiding signal ---

    /// The counter recorded in the campaign's Figure-6 style trace.
    fn traced_counter(&self) -> &'static str;
    /// The traced counter's value in one measurement.
    fn trace_value(&self, measurement: &Self::Measurement) -> f64;
    /// The guiding value of a measurement: one specific counter when
    /// `target` names it, otherwise the domain's configured aggregate.
    fn signal_value(&self, measurement: &Self::Measurement, target: Option<&str>) -> f64;
    /// Counters the annealing outer loop ranks by variability and then
    /// optimises one after another (§7.2). An empty list means the domain
    /// has a single fixed guiding signal and the annealer runs un-targeted
    /// schedules (the fabric stack).
    fn rankable_counters(&self) -> Vec<String>;

    // --- surrogate encoding (Bayesian baseline) ---

    /// Encode a point into the numeric feature vector the BO baseline's
    /// surrogate measures distances in
    /// ([`run_bayesian`](crate::search::kernel::run_bayesian)).
    ///
    /// The vector must have a stable length for the domain, and distinct
    /// points that differ in any coordinate of the feature projection must
    /// encode to distinct vectors (`tests/surrogate_properties.rs` states
    /// this per domain). Numeric coordinates should be normalised —
    /// log-scale wide ladders so no single dimension dominates the
    /// Euclidean metric — and categorical coordinates become small integer
    /// codes. Encoding must not consume campaign randomness (same contract
    /// as every other domain operation).
    fn surrogate_features(&self, point: &Self::Point) -> Vec<f64>;

    // --- minimal feature sets ---

    /// The observable identity an MFS dedups against.
    fn mfs_identity(mfs: &Self::Mfs) -> Self::Identity;
    /// True if the extraction found no necessary condition. Empty MFSes
    /// match the whole space vacuously, so the kernel excludes them from
    /// both the skip and the discovery dedup.
    fn mfs_is_empty(mfs: &Self::Mfs) -> bool;
    /// True if `point` satisfies every condition of `mfs`.
    fn mfs_matches(mfs: &Self::Mfs, point: &Self::Point) -> bool;
    /// Capture the reproduction signature probes are compared against,
    /// charging any reference experiments to `cost` (the two-host stack
    /// measures the anomalous point once more to record its dominant
    /// diagnostic counter; the fabric signature is free).
    fn begin_extraction(
        &mut self,
        anomalous: &Self::Point,
        identity: &Self::Identity,
        cost: &mut ExtractionCost,
    ) -> Self::Signature;
    /// Run one probe experiment and report whether it still reproduces the
    /// anomaly under extraction.
    fn reproduces(&mut self, probe: &Self::Point, signature: &Self::Signature) -> bool;
    /// Assemble the domain's MFS type from the extracted conditions.
    fn make_mfs(
        &self,
        identity: &Self::Identity,
        conditions: BTreeMap<Self::Feature, FeatureCondition>,
        example: Self::Point,
    ) -> Self::Mfs;

    // --- reporting ---

    /// Assemble the domain's discovery record.
    fn make_discovery(
        &self,
        at: SimDuration,
        point: Self::Point,
        identity: Self::Identity,
        mfs: Self::Mfs,
        matched_rules: Vec<String>,
    ) -> Self::Discovery;
}

/// Everything a finished campaign hands back to the domain's outcome
/// wrapper ([`SearchOutcome`](crate::search::SearchOutcome) /
/// [`FabricOutcome`](crate::fabric::FabricOutcome)).
#[derive(Debug)]
pub struct CampaignReport<D: SearchDomain> {
    /// Every anomaly discovered, in discovery order.
    pub discoveries: Vec<D::Discovery>,
    /// First-trigger times of every catalogued anomaly hit by a measured
    /// experiment (scoring only; dropped by domains that do not report it).
    pub rule_hits: Vec<RuleHit>,
    /// Trace of the domain's guiding counter, with anomaly markers.
    pub trace: TimeSeries,
    /// Experiments actually run (skipped points are free).
    pub experiments: u32,
    /// Points skipped by the MFS filter.
    pub skipped_by_mfs: u32,
    /// Simulated wall-clock consumed.
    pub elapsed: SimDuration,
}
