//! Two-host campaign outcomes and the two-host [`SearchDomain`] binding.
//!
//! Every strategy (random, BO, simulated annealing) runs inside the generic
//! [`CampaignLoop`](crate::search::kernel::CampaignLoop): it asks the loop
//! to measure points, the loop charges the hardware-time cost, applies the
//! MFS skip, detects anomalies, extracts their MFS, records the Figure-6
//! trace, and accumulates the discoveries. [`WorkloadDomain`] is the
//! two-host instantiation — the paper's testbed of one sender/receiver pair
//! over the four-dimensional workload space — and this module also owns the
//! public outcome types ([`Discovery`], [`RuleHit`], [`SearchOutcome`]).

use crate::eval::Evaluator;
use crate::monitor::{dominant_diag_counter, ReproductionSignature};
use crate::monitor::{AnomalyMonitor, FeatureCondition, Mfs, Symptom};
use crate::search::domain::{CampaignReport, ExtractionCost, SearchDomain};
use crate::search::SignalMode;
use crate::space::{Feature, FeatureValue, SearchPoint, SearchSpace};
use collie_rnic::workload::{Opcode, Transport};
use collie_sim::counters::CounterKind;
use collie_sim::series::TimeSeries;
use collie_sim::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// One anomaly discovered by a campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Discovery {
    /// Simulated wall-clock at which the anomaly was confirmed (before its
    /// MFS extraction).
    pub at: SimDuration,
    /// The workload that triggered it.
    pub point: SearchPoint,
    /// The observed symptom.
    pub symptom: Symptom,
    /// The extracted minimal feature set.
    pub mfs: Mfs,
    /// Ground-truth catalogue rules this workload triggers (empty if the
    /// discovery does not correspond to a catalogued anomaly). Used only
    /// for scoring, never by the search itself.
    pub matched_rules: Vec<String>,
}

/// First time a catalogued anomaly was triggered by a measured experiment.
///
/// This is evaluation-side scoring (it relies on the ground-truth oracle the
/// way the paper relies on its known anomaly list); the search itself never
/// sees it. A campaign "finds" anomaly #N the first time it *tests* a
/// workload that triggers it, whether or not that workload also becomes a
/// new MFS — exactly the y-axis of Figures 4 and 5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleHit {
    /// Simulated wall-clock at which the rule was first triggered.
    pub at: SimDuration,
    /// Ground-truth rule name (`collie/<n>`).
    pub rule: String,
}

/// The result of one campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// Human-readable label of the configuration ("Collie(Diag)", …).
    pub label: String,
    /// Every anomaly discovered, in discovery order.
    pub discoveries: Vec<Discovery>,
    /// First-trigger times of every catalogued anomaly hit by a measured
    /// experiment (scoring only; see [`RuleHit`]).
    pub rule_hits: Vec<RuleHit>,
    /// Trace of the campaign's signal-mode counter over the campaign, with
    /// anomaly markers: the receive-WQE-cache-miss diagnostic counter for
    /// diagnostic-mode campaigns (the Figure-6 series), the receive-side
    /// throughput gauge for performance-mode campaigns (see
    /// [`SignalMode::traced_counter`]).
    pub trace: TimeSeries,
    /// Experiments actually run (skipped points are free).
    pub experiments: u32,
    /// Points skipped by the MFS filter.
    pub skipped_by_mfs: u32,
    /// Simulated wall-clock consumed.
    pub elapsed: SimDuration,
}

impl SearchOutcome {
    /// Assemble the public outcome from a finished kernel report.
    pub(crate) fn from_report(
        label: String,
        report: CampaignReport<WorkloadDomain<'_, '_>>,
    ) -> Self {
        SearchOutcome {
            label,
            discoveries: report.discoveries,
            rule_hits: report.rule_hits,
            trace: report.trace,
            experiments: report.experiments,
            skipped_by_mfs: report.skipped_by_mfs,
            elapsed: report.elapsed,
        }
    }

    /// The distinct catalogued anomalies *found* by the campaign: the
    /// ground-truth rules matched by its discoveries — every anomalous
    /// workload that became a new minimal feature set, which is how the
    /// paper counts "anomalies found" (one MFS per anomaly in the set `S`
    /// of Algorithm 1).
    pub fn distinct_known_anomalies(&self) -> BTreeSet<String> {
        self.discoveries
            .iter()
            .flat_map(|d| d.matched_rules.iter().cloned())
            .collect()
    }

    /// The campaign's discoveries as triggers for the remediation →
    /// verification pipeline (see [`crate::remedy::Qualifier`]).
    pub fn discovered_triggers(&self) -> Vec<crate::remedy::DiscoveredTrigger> {
        self.discoveries
            .iter()
            .map(|d| crate::remedy::DiscoveredTrigger {
                point: d.point.clone(),
                symptom: d.symptom,
                matched_rules: d.matched_rules.clone(),
            })
            .collect()
    }

    /// The distinct catalogued anomalies *triggered* by any measured
    /// experiment, including redundant sightings inside already-known MFS
    /// regions. Always a superset of [`distinct_known_anomalies`]; reported
    /// alongside it by the harness.
    ///
    /// [`distinct_known_anomalies`]: SearchOutcome::distinct_known_anomalies
    pub fn distinct_triggered_anomalies(&self) -> BTreeSet<String> {
        self.rule_hits
            .iter()
            .map(|h| h.rule.clone())
            .chain(
                self.discoveries
                    .iter()
                    .flat_map(|d| d.matched_rules.iter().cloned()),
            )
            .collect()
    }

    /// Simulated time at which the N-th distinct catalogued anomaly was
    /// found (None if fewer were found). This is the quantity plotted on
    /// Figures 4 and 5.
    pub fn time_to_find(&self, n: usize) -> Option<SimDuration> {
        self.milestones()
            .into_iter()
            .find(|(_, count)| *count >= n)
            .map(|(at, _)| at)
    }

    /// Cumulative (time, distinct anomaly count) milestones over the
    /// discovery log.
    pub fn milestones(&self) -> Vec<(SimDuration, usize)> {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut out = Vec::new();
        for d in &self.discoveries {
            let before = seen.len();
            seen.extend(d.matched_rules.iter().cloned());
            if seen.len() > before {
                out.push((d.at, seen.len()));
            }
        }
        out
    }
}

/// The two-host search domain: the paper's testbed (one sender/receiver
/// pair) over the four-dimensional workload space, guided by the RNIC's
/// performance or diagnostic counters.
///
/// This is the [`SearchDomain`] binding the generic campaign kernel and MFS
/// extractor instantiate for Figures 4–6: sampling and mutation delegate to
/// the [`SearchSpace`], measurement runs through the memoized
/// [`Evaluator`], the anomaly identity is the end-to-end [`Symptom`], and
/// the extraction signature is the symptom plus the dominant diagnostic
/// counter (so probes that trip a *different* bottleneck do not erase
/// conditions).
pub struct WorkloadDomain<'a, 'e> {
    evaluator: &'a mut Evaluator<'e>,
    monitor: &'a AnomalyMonitor,
    space: &'a SearchSpace,
    signal: SignalMode,
}

impl<'a, 'e> WorkloadDomain<'a, 'e> {
    /// Bind a two-host domain to an evaluator, monitor, space, and guiding
    /// counter family.
    pub fn new(
        evaluator: &'a mut Evaluator<'e>,
        monitor: &'a AnomalyMonitor,
        space: &'a SearchSpace,
        signal: SignalMode,
    ) -> Self {
        WorkloadDomain {
            evaluator,
            monitor,
            space,
            signal,
        }
    }

    /// The 16-dim surrogate encoding of one two-host workload point:
    /// numeric features are log-scaled, categorical features become small
    /// integer codes. (The message pattern contributes two coordinates —
    /// mean request size and burst length — which is why the vector is one
    /// longer than the 15-feature projection.) An associated function so
    /// the fabric domain can embed the culprit workload's encoding inside
    /// its own surrogate vector without binding a two-host domain.
    pub(crate) fn workload_surrogate(point: &SearchPoint) -> Vec<f64> {
        let transport = match point.transport {
            Transport::Rc => 0.0,
            Transport::Uc => 1.0,
            Transport::Ud => 2.0,
        };
        let opcode = match point.opcode {
            Opcode::Send => 0.0,
            Opcode::Write => 1.0,
            Opcode::Read => 2.0,
        };
        // The GPU offset assumes hosts expose fewer than 4 NUMA nodes (a
        // 5th node would collide with GPU 0 and break the injectivity
        // contract of `surrogate_features`). Every catalog host satisfies
        // this; the offset cannot grow without moving the golden fig4 BO
        // streams, so a wider host must bump it together with a fixture
        // re-record.
        let memory_code = |m: &collie_host::memory::MemoryTarget| match m {
            collie_host::memory::MemoryTarget::HostDram { numa_node } => *numa_node as f64,
            collie_host::memory::MemoryTarget::GpuMemory { gpu_id } => 4.0 + *gpu_id as f64,
        };
        vec![
            transport,
            opcode,
            (point.num_qps as f64).log2(),
            (point.wqe_batch as f64).log2(),
            point.sge_per_wqe as f64,
            (point.send_queue_depth as f64).log2(),
            (point.recv_queue_depth as f64).log2(),
            (point.mtu as f64).log2(),
            (point.mrs_per_qp as f64).log2(),
            (point.mr_size_bytes as f64).log2(),
            point.mean_message_bytes().max(1.0).log2(),
            point.messages.len() as f64,
            if point.bidirectional { 1.0 } else { 0.0 },
            if point.with_loopback { 1.0 } else { 0.0 },
            memory_code(&point.src_memory),
            memory_code(&point.dst_memory),
        ]
    }
}

impl SearchDomain for WorkloadDomain<'_, '_> {
    type Point = SearchPoint;
    type Feature = Feature;
    type Measurement = collie_rnic::subsystem::Measurement;
    type Identity = Symptom;
    type Mfs = Mfs;
    type Discovery = Discovery;
    type Signature = ReproductionSignature;

    fn random_point(&mut self, rng: &mut collie_sim::rng::SimRng) -> SearchPoint {
        self.space.random_point(rng)
    }

    fn mutate(&mut self, point: &SearchPoint, rng: &mut collie_sim::rng::SimRng) -> SearchPoint {
        self.space.mutate(point, rng)
    }

    fn features(&self) -> Vec<Feature> {
        Feature::ALL.to_vec()
    }

    fn feature_value(&self, point: &SearchPoint, feature: Feature) -> FeatureValue {
        point.feature_value(feature)
    }

    fn apply(&self, point: &mut SearchPoint, feature: Feature, value: &FeatureValue) {
        point.apply(feature, value);
    }

    fn alternatives(&self, point: &SearchPoint, feature: Feature) -> Vec<FeatureValue> {
        self.space.alternatives(point, feature)
    }

    fn experiment_cost(&self, point: &SearchPoint) -> SimDuration {
        crate::engine::WorkloadEngine::experiment_cost(point)
    }

    fn assess(&mut self, point: &SearchPoint) -> (Self::Measurement, Option<Symptom>) {
        let (measurement, verdict) = self.evaluator.measure_and_assess(self.monitor, point);
        (measurement, verdict.symptom)
    }

    fn symptom(identity: &Symptom) -> Symptom {
        *identity
    }

    fn ground_truth(&self, point: &SearchPoint) -> Vec<&'static str> {
        self.evaluator.ground_truth(point)
    }

    fn eval_stats(&self) -> crate::eval::EvalStats {
        self.evaluator.stats()
    }

    fn traced_counter(&self) -> &'static str {
        self.signal.traced_counter()
    }

    fn trace_value(&self, measurement: &Self::Measurement) -> f64 {
        measurement
            .counters
            .value(self.traced_counter())
            .unwrap_or(0.0)
    }

    /// The sum of diagnostic counters to maximise, or the sum of
    /// performance counters to minimise, depending on the mode — or one
    /// specific counter when `target` names it.
    fn signal_value(&self, measurement: &Self::Measurement, target: Option<&str>) -> f64 {
        if let Some(name) = target {
            return measurement.counters.value(name).unwrap_or(0.0);
        }
        let kind = match self.signal {
            SignalMode::Performance => CounterKind::Performance,
            SignalMode::Diagnostic => CounterKind::Diagnostic,
        };
        measurement
            .counters
            .iter()
            .filter(|(_, k, _)| *k == kind)
            .map(|(_, _, v)| v)
            .sum()
    }

    fn rankable_counters(&self) -> Vec<String> {
        let kind = match self.signal {
            SignalMode::Performance => CounterKind::Performance,
            SignalMode::Diagnostic => CounterKind::Diagnostic,
        };
        self.evaluator
            .subsystem()
            .registry()
            .names(kind)
            .into_iter()
            .collect()
    }

    /// See `WorkloadDomain::workload_surrogate` (the fabric domain embeds
    /// the same encoding, so the body lives in the associated function).
    fn surrogate_features(&self, point: &SearchPoint) -> Vec<f64> {
        WorkloadDomain::workload_surrogate(point)
    }

    fn mfs_identity(mfs: &Mfs) -> Symptom {
        mfs.symptom
    }

    fn mfs_is_empty(mfs: &Mfs) -> bool {
        mfs.is_empty()
    }

    fn mfs_matches(mfs: &Mfs, point: &SearchPoint) -> bool {
        mfs.matches(point)
    }

    /// One extra experiment captures the anomaly's observable identity
    /// (symptom + dominant diagnostic counter) that every probe is compared
    /// against.
    fn begin_extraction(
        &mut self,
        anomalous: &SearchPoint,
        identity: &Symptom,
        cost: &mut ExtractionCost,
    ) -> ReproductionSignature {
        cost.charge(self.experiment_cost(anomalous));
        let reference = self.evaluator.measure(anomalous);
        ReproductionSignature {
            symptom: *identity,
            dominant_counter: dominant_diag_counter(&reference),
        }
    }

    /// "Reproduces" means the probe shows the *same observable identity*:
    /// the same end-to-end symptom and the same dominant diagnostic
    /// counter. Requiring only "some anomaly" would make almost every
    /// feature look irrelevant on hosts where several bottlenecks can be
    /// tripped at once (a probe that swaps UD for RC and then pauses
    /// because of the PCIe-ordering bottleneck is evidence of a *different*
    /// anomaly, not evidence that the transport does not matter). Both
    /// parts of the signature are observable without any hardware
    /// knowledge, exactly like the counters the search itself uses.
    fn reproduces(&mut self, probe: &SearchPoint, signature: &ReproductionSignature) -> bool {
        let (measurement, verdict) = self.evaluator.measure_and_assess(self.monitor, probe);
        if verdict.symptom != Some(signature.symptom) {
            return false;
        }
        match &signature.dominant_counter {
            Some(reference) => dominant_diag_counter(&measurement).as_deref() == Some(reference),
            None => true,
        }
    }

    fn make_mfs(
        &self,
        identity: &Symptom,
        conditions: BTreeMap<Feature, FeatureCondition>,
        example: SearchPoint,
    ) -> Mfs {
        Mfs {
            symptom: *identity,
            conditions,
            example,
        }
    }

    fn make_discovery(
        &self,
        at: SimDuration,
        point: SearchPoint,
        identity: Symptom,
        mfs: Mfs,
        matched_rules: Vec<String>,
    ) -> Discovery {
        Discovery {
            at,
            point,
            symptom: identity,
            mfs,
            matched_rules,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WorkloadEngine;
    use crate::search::kernel::CampaignLoop;
    use crate::search::SearchConfig;
    use collie_rnic::subsystems::SubsystemId;
    use collie_rnic::workload::{Opcode, Transport};

    fn setup() -> (WorkloadEngine, SearchSpace, AnomalyMonitor, SearchConfig) {
        (
            WorkloadEngine::for_catalog(SubsystemId::F),
            SearchSpace::for_host(&SubsystemId::F.host()),
            AnomalyMonitor::new(),
            SearchConfig::collie(3).with_budget(SimDuration::from_secs(7200)),
        )
    }

    /// Build a campaign loop over a freshly bound two-host domain.
    macro_rules! campaign {
        ($engine:expr, $evaluator:ident, $space:expr, $monitor:expr, $config:expr) => {{
            $evaluator = Evaluator::new($engine);
            CampaignLoop::new(
                WorkloadDomain::new(&mut $evaluator, $monitor, $space, $config.signal),
                $config,
            )
        }};
    }

    #[test]
    fn measuring_an_anomalous_point_records_a_discovery_with_mfs() {
        let (mut engine, space, monitor, config) = setup();
        let mut evaluator;
        let mut campaign = campaign!(&mut engine, evaluator, &space, &monitor, &config);
        let mut point = SearchPoint::benign();
        point.transport = Transport::Ud;
        point.opcode = Opcode::Send;
        point.wqe_batch = 64;
        point.recv_queue_depth = 256;
        point.mtu = 2048;
        point.messages = vec![2048];
        campaign.measure(&point).unwrap();
        let outcome = SearchOutcome::from_report(config.label(), campaign.finish());
        assert_eq!(outcome.discoveries.len(), 1);
        let d = &outcome.discoveries[0];
        assert!(d.matched_rules.contains(&"collie/1".to_string()));
        assert!(d.mfs.matches(&point));
        assert!(
            outcome.experiments > 1,
            "MFS extraction charges experiments"
        );
        assert!(!outcome.trace.anomaly_samples().is_empty());
    }

    #[test]
    fn repeated_sightings_of_the_same_anomaly_count_once() {
        let (mut engine, space, monitor, config) = setup();
        let mut evaluator;
        let mut campaign = campaign!(&mut engine, evaluator, &space, &monitor, &config);
        let mut point = SearchPoint::benign();
        point.transport = Transport::Ud;
        point.opcode = Opcode::Send;
        point.wqe_batch = 64;
        point.recv_queue_depth = 256;
        campaign.measure(&point).unwrap();
        // A harsher variant inside the same MFS.
        point.wqe_batch = 128;
        assert!(campaign.matches_known_mfs(&point), "should be skippable");
        campaign.measure(&point).unwrap();
        let outcome = SearchOutcome::from_report(config.label(), campaign.finish());
        assert_eq!(outcome.discoveries.len(), 1);
        assert_eq!(outcome.skipped_by_mfs, 1);
        assert_eq!(outcome.distinct_known_anomalies().len(), 1);
    }

    #[test]
    fn budget_is_enforced() {
        let (mut engine, space, monitor, _) = setup();
        let config = SearchConfig::collie(3).with_budget(SimDuration::from_secs(45));
        let mut evaluator;
        let mut campaign = campaign!(&mut engine, evaluator, &space, &monitor, &config);
        let p = SearchPoint::benign();
        assert!(campaign.measure(&p).is_some());
        // Budget (45 s) is consumed by the first experiment (>= 20 s) plus
        // the second; afterwards measure refuses to run.
        campaign.measure(&p);
        assert!(campaign.measure(&p).is_none() || campaign.out_of_budget());
    }

    #[test]
    fn energy_delta_directions() {
        let (mut engine, space, monitor, config) = setup();
        let mut evaluator;
        let campaign = campaign!(&mut engine, evaluator, &space, &monitor, &config);
        // Diagnostic mode: higher counter value = negative delta (better).
        assert!(campaign.energy_delta(10.0, 20.0) < 0.0);
        assert!(campaign.energy_delta(20.0, 10.0) > 0.0);
        let perf_config = SearchConfig::collie(3).with_signal(SignalMode::Performance);
        let mut engine2 = WorkloadEngine::for_catalog(SubsystemId::F);
        let mut evaluator2;
        let campaign2 = campaign!(&mut engine2, evaluator2, &space, &monitor, &perf_config);
        // Performance mode: lower counter value = negative delta (better).
        assert!(campaign2.energy_delta(20.0, 10.0) < 0.0);
        assert!(campaign2.energy_delta(10.0, 20.0) > 0.0);
    }

    #[test]
    fn surrogate_encoding_distinguishes_different_points() {
        let (mut engine, space, monitor, config) = setup();
        let mut evaluator = Evaluator::new(&mut engine);
        let domain = WorkloadDomain::new(&mut evaluator, &monitor, &space, config.signal);
        let a = SearchPoint::benign();
        let mut b = SearchPoint::benign();
        b.num_qps = 1024;
        b.transport = Transport::Ud;
        b.opcode = Opcode::Send;
        assert_ne!(domain.surrogate_features(&a), domain.surrogate_features(&b));
        assert_eq!(domain.surrogate_features(&a).len(), 16);
        assert_eq!(domain.surrogate_features(&a), domain.surrogate_features(&a));
    }

    #[test]
    fn counter_ranking_returns_all_nine_diagnostic_counters() {
        let (mut engine, space, monitor, config) = setup();
        let mut evaluator;
        let mut campaign = campaign!(&mut engine, evaluator, &space, &monitor, &config);
        let ranked = campaign.ranked_targets(10);
        assert_eq!(ranked.len(), 9);
        assert!(ranked
            .iter()
            .all(|n| n.as_deref().is_some_and(|n| n.starts_with("diag/"))));
    }

    #[test]
    fn time_to_find_and_milestones() {
        let outcome = SearchOutcome {
            label: "test".to_string(),
            discoveries: vec![],
            rule_hits: vec![],
            trace: TimeSeries::new("t"),
            experiments: 0,
            skipped_by_mfs: 0,
            elapsed: SimDuration::ZERO,
        };
        assert_eq!(outcome.time_to_find(1), None);
        assert!(outcome.milestones().is_empty());
    }

    #[test]
    fn an_empty_mfs_does_not_suppress_later_discoveries() {
        // Regression: `Mfs::matches` is vacuously true when `conditions` is
        // empty, and the discovery dedup used to consult it without the
        // `!is_empty()` guard that `matches_known_mfs` applies — one
        // degenerate extraction marked every later anomaly a "redundant
        // sighting" and silenced the rest of the campaign.
        let (mut engine, space, monitor, config) = setup();
        let mut evaluator;
        let mut campaign = campaign!(&mut engine, evaluator, &space, &monitor, &config);
        campaign.plant_mfs(Mfs {
            symptom: Symptom::PauseStorm,
            conditions: std::collections::BTreeMap::new(),
            example: SearchPoint::benign(),
        });
        let mut point = SearchPoint::benign();
        point.transport = Transport::Ud;
        point.opcode = Opcode::Send;
        point.wqe_batch = 64;
        point.recv_queue_depth = 256;
        point.mtu = 2048;
        point.messages = vec![2048];
        // The empty MFS matches everything, but neither the skip nor the
        // dedup may consult it.
        assert!(!campaign.matches_known_mfs(&point));
        campaign.measure(&point).unwrap();
        let outcome = SearchOutcome::from_report(config.label(), campaign.finish());
        assert_eq!(
            outcome.discoveries.len(),
            1,
            "an empty MFS must not mark new anomalies redundant"
        );
        assert_eq!(outcome.skipped_by_mfs, 0);
    }

    #[test]
    fn diagnostic_mode_traces_the_figure6_counter() {
        let (mut engine, space, monitor, config) = setup();
        let mut evaluator;
        let mut campaign = campaign!(&mut engine, evaluator, &space, &monitor, &config);
        campaign.measure(&SearchPoint::benign()).unwrap();
        let outcome = SearchOutcome::from_report(config.label(), campaign.finish());
        assert_eq!(
            outcome.trace.name(),
            collie_rnic::counters::diag::RECV_WQE_CACHE_MISS
        );
    }

    #[test]
    fn performance_mode_traces_the_throughput_gauge() {
        // A performance-mode campaign only has generic counters, so its
        // trace records the receive-side throughput gauge instead of a
        // vendor diagnostic counter (see `SignalMode::traced_counter`).
        let (mut engine, space, monitor, _) = setup();
        let config = SearchConfig::collie(3).with_signal(SignalMode::Performance);
        let mut evaluator;
        let mut campaign = campaign!(&mut engine, evaluator, &space, &monitor, &config);
        campaign.measure(&SearchPoint::benign()).unwrap();
        let outcome = SearchOutcome::from_report(config.label(), campaign.finish());
        assert_eq!(
            outcome.trace.name(),
            collie_rnic::counters::perf::RX_BYTES_PER_SEC
        );
        assert!(
            outcome.trace.samples()[0].value > 0.0,
            "a benign point moves real bytes"
        );
    }

    #[test]
    fn repeated_measurements_are_served_from_the_memo_cache() {
        let (mut engine, space, monitor, config) = setup();
        let mut evaluator;
        let mut campaign = campaign!(&mut engine, evaluator, &space, &monitor, &config);
        let point = SearchPoint::benign();
        campaign.measure(&point).unwrap();
        campaign.measure(&point).unwrap();
        let stats = campaign.eval_stats();
        assert!(stats.hits >= 1, "{stats:?}");
        // The repeat still charged its simulated cost and experiment count.
        let outcome = SearchOutcome::from_report(config.label(), campaign.finish());
        assert_eq!(outcome.experiments, 2);
        assert!(outcome.elapsed >= SimDuration::from_secs(40));
    }

    #[test]
    fn rule_hits_are_recorded_for_every_measured_anomalous_point() {
        let (mut engine, space, monitor, config) = setup();
        let mut evaluator;
        let mut campaign = campaign!(&mut engine, evaluator, &space, &monitor, &config);
        // Two different catalogued triggers, measured back to back.
        campaign.measure(&crate::catalog::KnownAnomaly::by_id(1).unwrap().trigger);
        campaign.measure(&crate::catalog::KnownAnomaly::by_id(3).unwrap().trigger);
        let outcome = SearchOutcome::from_report(config.label(), campaign.finish());
        let rules = outcome.distinct_known_anomalies();
        assert!(rules.contains("collie/1"), "{rules:?}");
        assert!(rules.contains("collie/3"), "{rules:?}");
        // Milestones are cumulative and time-ordered.
        let milestones = outcome.milestones();
        assert!(milestones.len() >= 2);
        assert!(milestones
            .windows(2)
            .all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1));
        assert!(outcome.time_to_find(1).unwrap() <= outcome.time_to_find(2).unwrap());
    }
}
