//! The traced run's instrumentation: a [`SearchDomain`] wrapper that times
//! every call the campaign kernel makes into a domain from outside.
//!
//! [`TracedDomain`] delegates every trait method to the domain it wraps,
//! so a campaign through it is the same campaign (the self-tests prove
//! it per strategy and domain). Each call is charged to one [`Layer`].
//! Calls of a µs or more ([`Layer::Assess`], [`Layer::Extract`]) are timed
//! every time. Sub-µs callbacks are counted every time but timed on a
//! fixed one-in-[`SAMPLE_EVERY`] sample, because two clock reads per call
//! would cost a visible share of the call itself.
//!
//! The tally lives in a per-thread slot rather than in the wrapper: the
//! MFS predicates ([`SearchDomain::mfs_matches`] and friends) are
//! associated functions without a receiver, so a per-thread slot is the
//! only place they can count into. A campaign runs on one thread from
//! start to finish; [`take_tally`] collects and resets the slot.

use collie_core::eval::{EvalStats, SpeculationParts};
use collie_core::monitor::{FeatureCondition, Symptom};
use collie_core::search::{ExtractionCost, SearchDomain};
use collie_core::space::FeatureValue;
use collie_sim::rng::SimRng;
use collie_sim::time::SimDuration;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// One timed call in this many of a sampled layer. Prime, so the sample
/// does not lock onto a period of the kernel's loops (such as the length
/// of the MFS list every proposal is matched against).
pub const SAMPLE_EVERY: u64 = 61;

/// The layer a domain call is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `random_point` and `mutate` (the space's proposal sampling).
    Propose,
    /// `mfs_matches` (the MFS skip and the discovery dedup).
    MfsMatch,
    /// `mfs_is_empty` and `mfs_identity`: the empty-MFS guard and the
    /// identity check the kernel runs around each match.
    MfsGuard,
    /// `signal_value` and `trace_value` (counter reads of a measurement).
    Signal,
    /// `assess` (the memoized evaluator plus the anomaly monitor).
    Assess,
    /// `begin_extraction` and `reproduces` (MFS extraction experiments).
    Extract,
    /// Every other callback (feature projection, costs, scoring, MFS
    /// bookkeeping, surrogate encoding).
    Other,
}

/// The number of [`Layer`]s.
pub const LAYERS: usize = 7;

/// Calls into one layer and the time measured on the timed ones.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    /// Every call.
    pub calls: u64,
    /// Calls that were timed.
    pub timed: u64,
    /// Nanoseconds spent in the timed calls.
    pub timed_ns: u64,
}

impl Span {
    /// Mean nanoseconds per timed call (0 when none was timed).
    pub fn mean_ns(&self) -> f64 {
        crate::stats::ratio(self.timed_ns as f64, self.timed as f64)
    }

    /// Estimated nanoseconds over all calls: the timed mean times the
    /// call count (exact for layers timed on every call).
    pub fn estimated_ns(&self) -> f64 {
        self.mean_ns() * self.calls as f64
    }

    /// Accumulate another span of the same layer.
    pub fn add(&mut self, other: &Span) {
        self.calls += other.calls;
        self.timed += other.timed;
        self.timed_ns += other.timed_ns;
    }

    /// Count one call that was timed at `ns` nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.timed += 1;
        self.timed_ns += ns;
    }
}

/// Everything one traced campaign recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTally {
    /// One span per [`Layer`], indexed by `Layer as usize`.
    pub spans: [Span; LAYERS],
    /// The duration of every `assess` call, in nanoseconds.
    pub assess_ns: Vec<u64>,
    /// `assess` calls the evaluator answered from its memo cache.
    pub assess_hits: u64,
    /// MFS extractions begun.
    pub extractions: u64,
    /// Extraction probe experiments (`reproduces` calls).
    pub probes: u64,
}

impl LayerTally {
    /// The span of one layer.
    pub fn span(&self, layer: Layer) -> &Span {
        &self.spans[layer as usize]
    }

    /// Estimated nanoseconds spent inside every domain callback.
    pub fn callback_ns(&self) -> f64 {
        self.spans.iter().map(Span::estimated_ns).sum()
    }
}

thread_local! {
    static TALLY: RefCell<LayerTally> = RefCell::new(LayerTally::default());
}

/// Collect this thread's tally and reset it.
pub fn take_tally() -> LayerTally {
    TALLY.with(|tally| std::mem::take(&mut *tally.borrow_mut()))
}

/// Count a call into a sampled layer; time it if it falls on the sample.
fn sampled<T>(layer: Layer, call: impl FnOnce() -> T) -> T {
    let time_it = TALLY.with(|tally| {
        let span = &mut tally.borrow_mut().spans[layer as usize];
        span.calls += 1;
        span.calls % SAMPLE_EVERY == 1
    });
    if !time_it {
        return call();
    }
    let started = Instant::now();
    let out = call();
    let ns = elapsed_ns(started);
    TALLY.with(|tally| {
        let span = &mut tally.borrow_mut().spans[layer as usize];
        span.timed += 1;
        span.timed_ns += ns;
    });
    out
}

/// Count and time one call into a fully timed layer.
fn timed<T>(layer: Layer, call: impl FnOnce() -> T) -> (T, u64) {
    let started = Instant::now();
    let out = call();
    let ns = elapsed_ns(started);
    TALLY.with(|tally| tally.borrow_mut().spans[layer as usize].record(ns));
    (out, ns)
}

/// Nanoseconds since `started`, less the cost of reading the clock, so a
/// sampled 50 ns call is not charged the clock's own 20–40 ns.
pub fn elapsed_ns(started: Instant) -> u64 {
    raw_elapsed_ns(started).saturating_sub(clock_overhead_ns())
}

fn raw_elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The median of 1001 timings of an empty region, measured once per
/// process: what one `Instant::now` plus `elapsed` pair costs.
pub fn clock_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut samples: Vec<u64> = (0..1001)
            .map(|_| raw_elapsed_ns(std::hint::black_box(Instant::now())))
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    })
}

/// A [`SearchDomain`] that times every call into the domain it wraps and
/// logs the points its evaluator had to compute (its cache misses), in
/// order, for the layer replays.
pub struct TracedDomain<'log, D: SearchDomain> {
    inner: D,
    misses: &'log mut Vec<D::Point>,
}

impl<'log, D: SearchDomain> TracedDomain<'log, D> {
    /// Wrap `inner`; cache-miss points are appended to `misses`.
    pub fn new(inner: D, misses: &'log mut Vec<D::Point>) -> Self {
        TracedDomain { inner, misses }
    }

    /// Run an evaluator call timed as `layer`, logging `point` if the
    /// evaluator computed it rather than answering from its cache.
    fn evaluated<T>(
        &mut self,
        layer: Layer,
        point: &D::Point,
        call: impl FnOnce(&mut D) -> T,
    ) -> (T, u64, bool) {
        let before = self.inner.eval_stats().misses;
        let inner = &mut self.inner;
        let (out, ns) = timed(layer, || call(inner));
        let missed = self.inner.eval_stats().misses > before;
        if missed {
            self.misses.push(point.clone());
        }
        (out, ns, missed)
    }
}

impl<D: SearchDomain> SearchDomain for TracedDomain<'_, D> {
    type Point = D::Point;
    type Feature = D::Feature;
    type Measurement = D::Measurement;
    type Identity = D::Identity;
    type Mfs = D::Mfs;
    type Discovery = D::Discovery;
    type Signature = D::Signature;

    fn random_point(&mut self, rng: &mut SimRng) -> D::Point {
        sampled(Layer::Propose, || self.inner.random_point(rng))
    }

    fn mutate(&mut self, point: &D::Point, rng: &mut SimRng) -> D::Point {
        sampled(Layer::Propose, || self.inner.mutate(point, rng))
    }

    fn features(&self) -> Vec<D::Feature> {
        sampled(Layer::Other, || self.inner.features())
    }

    fn feature_value(&self, point: &D::Point, feature: D::Feature) -> FeatureValue {
        sampled(Layer::Other, || self.inner.feature_value(point, feature))
    }

    fn apply(&self, point: &mut D::Point, feature: D::Feature, value: &FeatureValue) {
        sampled(Layer::Other, || self.inner.apply(point, feature, value))
    }

    fn alternatives(&self, point: &D::Point, feature: D::Feature) -> Vec<FeatureValue> {
        sampled(Layer::Other, || self.inner.alternatives(point, feature))
    }

    fn experiment_cost(&self, point: &D::Point) -> SimDuration {
        sampled(Layer::Other, || self.inner.experiment_cost(point))
    }

    fn assess(&mut self, point: &D::Point) -> (D::Measurement, Option<D::Identity>) {
        let (out, ns, missed) = self.evaluated(Layer::Assess, point, |inner| inner.assess(point));
        TALLY.with(|tally| {
            let mut tally = tally.borrow_mut();
            tally.assess_ns.push(ns);
            tally.assess_hits += u64::from(!missed);
        });
        out
    }

    fn symptom(identity: &D::Identity) -> Symptom {
        sampled(Layer::Other, || D::symptom(identity))
    }

    fn ground_truth(&self, point: &D::Point) -> Vec<&'static str> {
        sampled(Layer::Other, || self.inner.ground_truth(point))
    }

    fn reports_rule_hits(&self) -> bool {
        sampled(Layer::Other, || self.inner.reports_rule_hits())
    }

    fn eval_stats(&self) -> EvalStats {
        sampled(Layer::Other, || self.inner.eval_stats())
    }

    fn speculation(
        &mut self,
        workers: usize,
    ) -> Option<SpeculationParts<D::Point, D::Measurement>> {
        sampled(Layer::Other, || self.inner.speculation(workers))
    }

    fn judge(&self, measurement: &D::Measurement) -> Option<D::Identity> {
        sampled(Layer::Other, || self.inner.judge(measurement))
    }

    fn traced_counter(&self) -> &'static str {
        sampled(Layer::Other, || self.inner.traced_counter())
    }

    fn trace_value(&self, measurement: &D::Measurement) -> f64 {
        sampled(Layer::Signal, || self.inner.trace_value(measurement))
    }

    fn signal_value(&self, measurement: &D::Measurement, target: Option<&str>) -> f64 {
        sampled(Layer::Signal, || {
            self.inner.signal_value(measurement, target)
        })
    }

    fn rankable_counters(&self) -> Vec<String> {
        sampled(Layer::Other, || self.inner.rankable_counters())
    }

    fn surrogate_features(&self, point: &D::Point) -> Vec<f64> {
        sampled(Layer::Other, || self.inner.surrogate_features(point))
    }

    fn mfs_identity(mfs: &D::Mfs) -> D::Identity {
        sampled(Layer::MfsGuard, || D::mfs_identity(mfs))
    }

    fn mfs_is_empty(mfs: &D::Mfs) -> bool {
        sampled(Layer::MfsGuard, || D::mfs_is_empty(mfs))
    }

    fn mfs_matches(mfs: &D::Mfs, point: &D::Point) -> bool {
        sampled(Layer::MfsMatch, || D::mfs_matches(mfs, point))
    }

    fn begin_extraction(
        &mut self,
        anomalous: &D::Point,
        identity: &D::Identity,
        cost: &mut ExtractionCost,
    ) -> D::Signature {
        TALLY.with(|tally| tally.borrow_mut().extractions += 1);
        self.evaluated(Layer::Extract, anomalous, |inner| {
            inner.begin_extraction(anomalous, identity, cost)
        })
        .0
    }

    fn reproduces(&mut self, probe: &D::Point, signature: &D::Signature) -> bool {
        TALLY.with(|tally| tally.borrow_mut().probes += 1);
        self.evaluated(Layer::Extract, probe, |inner| {
            inner.reproduces(probe, signature)
        })
        .0
    }

    fn make_mfs(
        &self,
        identity: &D::Identity,
        conditions: BTreeMap<D::Feature, FeatureCondition>,
        example: D::Point,
    ) -> D::Mfs {
        sampled(Layer::Other, || {
            self.inner.make_mfs(identity, conditions, example)
        })
    }

    fn make_discovery(
        &self,
        at: SimDuration,
        point: D::Point,
        identity: D::Identity,
        mfs: D::Mfs,
        matched_rules: Vec<String>,
    ) -> D::Discovery {
        sampled(Layer::Other, || {
            self.inner
                .make_discovery(at, point, identity, mfs, matched_rules)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_layers_count_every_call_and_time_one_in_n() {
        take_tally();
        let calls = 10 * SAMPLE_EVERY + 3;
        for _ in 0..calls {
            sampled(Layer::MfsMatch, || std::hint::black_box(1 + 1));
        }
        let tally = take_tally();
        let span = tally.span(Layer::MfsMatch);
        assert_eq!(span.calls, calls);
        assert_eq!(span.timed, 11);
        // The slot was reset by the take.
        assert_eq!(take_tally(), LayerTally::default());
    }

    #[test]
    fn estimates_scale_the_timed_mean_to_every_call() {
        let span = Span {
            calls: 610,
            timed: 10,
            timed_ns: 500,
        };
        assert_eq!(span.mean_ns(), 50.0);
        assert_eq!(span.estimated_ns(), 30_500.0);
        assert_eq!(Span::default().estimated_ns(), 0.0);
    }
}
