//! Memoized experiment evaluation.
//!
//! Every layer of the search re-measures workloads it has already seen: the
//! annealing walk re-proposes recently rejected points, the MFS extractor
//! re-measures the anomalous point it was handed and probes overlapping
//! neighbourhoods across extractions, and the monitor's §6 procedure samples
//! the same experiment four times per iteration. On real hardware those
//! repeats are unavoidable (and the campaign's *simulated* cost accounting
//! keeps charging them — each repeat still costs 20–60 simulated seconds, so
//! Figures 4–6 are unchanged); in the simulator they are pure recompute.
//!
//! [`Evaluator`] wraps [`WorkloadEngine::measure`] with a memo cache keyed
//! by the canonical [`SearchPoint`]. This is sound because the engine is
//! deterministic: [`Subsystem::evaluate`](collie_rnic::subsystem::Subsystem)
//! resets all counter and switch state on entry, so a measurement is a pure
//! function of the point (see the determinism test below and the contract
//! note on [`WorkloadEngine::measure`]). Campaigns route every experiment —
//! search, counter ranking, and MFS probing — through one shared evaluator,
//! so an extraction's probes warm the cache for the next one.

use crate::engine::WorkloadEngine;
use crate::monitor::{AnomalyMonitor, AnomalyVerdict};
use crate::space::{FabricPoint, SearchPoint};
use collie_rnic::fabric::FabricMeasurement;
use collie_rnic::subsystem::{Measurement, Subsystem};
use collie_rnic::subsystems::SubsystemId;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar};

/// Cache effectiveness counters of one [`Evaluator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalStats {
    /// Measurements answered from the memo cache.
    pub hits: u64,
    /// Measurements that ran the flow model (and filled the cache).
    pub misses: u64,
}

impl EvalStats {
    /// Fraction of measurements answered from the cache (0 when nothing was
    /// measured).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const SHARD_COUNT: usize = 16;

/// One entry of a [`SharedCache`] shard.
enum Slot<M> {
    /// Claimed: some thread is computing this point right now.
    Pending,
    /// Computed and published.
    Ready(Arc<M>),
}

/// Outcome of [`SharedCache::try_claim`].
pub enum Claim<M> {
    /// The caller owns the computation and **must** call
    /// [`SharedCache::fulfill`] for this point.
    Mine,
    /// Another thread is already computing this point.
    InFlight,
    /// The measurement is already published.
    Ready(Arc<M>),
}

struct Shard<P, M> {
    slots: parking_lot::Mutex<HashMap<P, Slot<M>>>,
    /// Signalled whenever a pending slot of this shard becomes ready.
    ready: Condvar,
}

/// A sharded concurrent memo cache shared between a committing evaluator
/// and its speculation workers — and, since the matrix-scoped refactor,
/// between every cell of a campaign matrix (see [`EvalContext`]).
///
/// Each point is computed exactly once no matter how many threads ask for
/// it: the first asker installs a pending claim, everyone else
/// either blocks on the shard's condvar ([`SharedCache::get_or_compute`])
/// or backs off ([`SharedCache::try_claim`]) until the claimant publishes
/// via [`SharedCache::fulfill`]. The stats invariant — `T` calls to
/// `get_or_compute` over `D` distinct keys give exactly `computed == D`
/// and `served == T − D` — is what the concurrency tests pin; a *bounded*
/// cache ([`SharedCache::bounded`]) relaxes only the `computed` half: an
/// evicted key recomputes on its next ask, so `computed` counts engine
/// runs exactly and `evicted` counts FIFO removals exactly.
pub struct SharedCache<P, M> {
    shards: Vec<Shard<P, M>>,
    /// `Some(n)`: hold at most `n` published measurements, evicting the
    /// oldest publication first. `None`: unbounded (the per-campaign
    /// speculation tier, whose lifetime already bounds it).
    capacity: Option<usize>,
    /// Publication order, oldest first — touched only on
    /// [`SharedCache::fulfill`], so the hot read path stays sharded. Never
    /// locked while a shard lock is held (and vice versa), so the two lock
    /// families cannot deadlock.
    order: parking_lot::Mutex<VecDeque<P>>,
    computed: AtomicU64,
    served: AtomicU64,
    evicted: AtomicU64,
}

impl<P: Clone + Eq + Hash, M> SharedCache<P, M> {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        SharedCache {
            shards: (0..SHARD_COUNT)
                .map(|_| Shard {
                    slots: parking_lot::Mutex::new(HashMap::new()),
                    ready: Condvar::new(),
                })
                .collect(),
            capacity: None,
            order: parking_lot::Mutex::new(VecDeque::new()),
            computed: AtomicU64::new(0),
            served: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// An empty cache holding at most `capacity` published measurements
    /// (clamped to at least 1), evicting in publication (FIFO) order. The
    /// matrix-scoped cache is bounded so a fleet-size grid cannot grow it
    /// without bound; eviction is safe because an evicted point simply
    /// recomputes on its next ask.
    pub fn bounded(capacity: usize) -> Self {
        SharedCache {
            capacity: Some(capacity.max(1)),
            ..SharedCache::new()
        }
    }

    fn shard(&self, point: &P) -> &Shard<P, M> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        point.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARD_COUNT]
    }

    /// Return the published measurement for `point`, computing it with
    /// `compute` if this caller is the first asker, or blocking until the
    /// current claimant publishes it.
    pub fn get_or_compute(&self, point: &P, compute: impl FnOnce() -> M) -> Arc<M> {
        let shard = self.shard(point);
        let mut slots = shard.slots.lock();
        loop {
            match slots.get(point) {
                Some(Slot::Ready(measurement)) => {
                    self.served.fetch_add(1, Ordering::Relaxed);
                    return Arc::clone(measurement);
                }
                Some(Slot::Pending) => {
                    slots = shard.ready.wait(slots).unwrap_or_else(|e| e.into_inner());
                }
                None => {
                    slots.insert(point.clone(), Slot::Pending);
                    drop(slots);
                    let measurement = compute();
                    return self.fulfill(point.clone(), measurement);
                }
            }
        }
    }

    /// Claim `point` without blocking. A `Mine` claimant owns the compute
    /// and must publish through [`SharedCache::fulfill`]; nobody else may
    /// fulfill a point they did not claim.
    pub fn try_claim(&self, point: &P) -> Claim<M> {
        let mut slots = self.shard(point).slots.lock();
        match slots.get(point) {
            Some(Slot::Ready(measurement)) => {
                self.served.fetch_add(1, Ordering::Relaxed);
                Claim::Ready(Arc::clone(measurement))
            }
            Some(Slot::Pending) => Claim::InFlight,
            None => {
                slots.insert(point.clone(), Slot::Pending);
                Claim::Mine
            }
        }
    }

    /// Publish the measurement for a point claimed earlier and wake every
    /// thread blocked on it. On a bounded cache this is also where FIFO
    /// eviction runs: the just-published key joins the back of the
    /// publication queue and the oldest keys beyond capacity are removed.
    pub fn fulfill(&self, point: P, measurement: M) -> Arc<M> {
        let shard = self.shard(&point);
        let measurement = Arc::new(measurement);
        shard
            .slots
            .lock()
            .insert(point.clone(), Slot::Ready(Arc::clone(&measurement)));
        self.computed.fetch_add(1, Ordering::Relaxed);
        shard.ready.notify_all();
        if let Some(capacity) = self.capacity {
            let victims = {
                let mut order = self.order.lock();
                order.push_back(point);
                let overflow = order.len().saturating_sub(capacity);
                order.drain(..overflow).collect::<Vec<_>>()
            };
            for victim in victims {
                let mut slots = self.shard(&victim).slots.lock();
                // Only published slots are evictable: if the key was
                // re-claimed between the queue pop and this lock, the
                // Pending slot has a claimant (and possibly waiters)
                // relying on it and must survive; the claimant's fulfill
                // re-queues the key.
                if matches!(slots.get(&victim), Some(Slot::Ready(_))) {
                    slots.remove(&victim);
                    self.evicted.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        measurement
    }

    /// The published measurement, if any — never blocks, never counts as a
    /// serve (used by speculation heuristics, not by evaluators).
    pub fn peek(&self, point: &P) -> Option<Arc<M>> {
        match self.shard(point).slots.lock().get(point) {
            Some(Slot::Ready(measurement)) => Some(Arc::clone(measurement)),
            _ => None,
        }
    }

    /// Whether the point is claimed or published.
    pub fn contains(&self, point: &P) -> bool {
        self.shard(point).slots.lock().contains_key(point)
    }

    /// Number of measurements computed (each distinct point exactly once).
    pub fn computed_count(&self) -> u64 {
        self.computed.load(Ordering::Relaxed)
    }

    /// Number of requests answered from an already-published slot.
    pub fn served_count(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Number of published measurements removed by the capacity bound
    /// (always 0 on an unbounded cache).
    pub fn evicted_count(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// This cache's computed/served/evicted counters as one snapshot.
    pub fn totals(&self) -> CacheTotals {
        CacheTotals {
            computed: self.computed_count(),
            served: self.served_count(),
            evicted: self.evicted_count(),
        }
    }
}

impl<P: Clone + Eq + Hash, M> Default for SharedCache<P, M> {
    fn default() -> Self {
        SharedCache::new()
    }
}

impl<P, M> fmt::Debug for SharedCache<P, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedCache")
            .field("capacity", &self.capacity)
            .field("computed", &self.computed.load(Ordering::Relaxed))
            .field("served", &self.served.load(Ordering::Relaxed))
            .field("evicted", &self.evicted.load(Ordering::Relaxed))
            .finish()
    }
}

/// Aggregate shared-cache counters (one cache or a whole [`EvalContext`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheTotals {
    /// Engine runs (each distinct resident key exactly once; an evicted
    /// key recomputes on its next ask).
    pub computed: u64,
    /// Requests answered from an already-published slot.
    pub served: u64,
    /// Published measurements removed by a capacity bound.
    pub evicted: u64,
}

impl std::ops::Add for CacheTotals {
    type Output = CacheTotals;

    /// Component-wise sum.
    fn add(self, other: CacheTotals) -> CacheTotals {
        CacheTotals {
            computed: self.computed + other.computed,
            served: self.served + other.served,
            evicted: self.evicted + other.evicted,
        }
    }
}

/// How one evaluator interacted with its attached [`SharedCache`]: local
/// misses it computed through the cache vs. local misses another thread
/// (a speculation worker or a sibling matrix cell) had already published.
///
/// Kept separate from [`EvalStats`] on purpose: the hit/miss stats are part
/// of the bit-identity contract (equal across serial, speculative, shared,
/// and unshared runs), while these counters *describe* the sharing and are
/// timing-dependent by nature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharedUse {
    /// Local misses this evaluator computed itself (through the shared
    /// cache when one is attached).
    pub computed: u64,
    /// Local misses answered by a measurement some other thread published.
    pub served: u64,
}

/// The matrix-scoped evaluation context: one bundle of [`SharedCache`]s
/// created at the top of a campaign matrix and attached to every cell's
/// evaluator, so identical canonical points measured by different
/// strategy×seed cells are computed once per matrix instead of once per
/// cell.
///
/// Caches are scoped **per subsystem** (a [`SearchPoint`] measured on
/// subsystem F and on subsystem H are different experiments, so one flat
/// cache keyed by point would serve wrong measurements on a mixed grid)
/// and per point type (two-host workload vs. fabric). Ownership flows
/// matrix → campaign → evaluator: each cell's evaluator reads through the
/// attached cache on a local miss but keeps committing through its *local*
/// cache, so [`EvalStats`] and every golden-trace fixture are byte-identical
/// with the context attached or not.
#[derive(Debug)]
pub struct EvalContext {
    /// Capacity for each per-subsystem cache (`None` = unbounded).
    capacity: Option<usize>,
    workload: parking_lot::Mutex<HashMap<SubsystemId, Arc<SharedCache<SearchPoint, Measurement>>>>,
    fabric:
        parking_lot::Mutex<HashMap<SubsystemId, Arc<SharedCache<FabricPoint, FabricMeasurement>>>>,
}

impl EvalContext {
    /// A context of unbounded caches.
    pub fn new() -> Self {
        EvalContext {
            capacity: None,
            workload: parking_lot::Mutex::new(HashMap::new()),
            fabric: parking_lot::Mutex::new(HashMap::new()),
        }
    }

    /// A context whose per-subsystem caches each hold at most `capacity`
    /// published measurements (see [`SharedCache::bounded`]).
    pub fn bounded(capacity: usize) -> Self {
        EvalContext {
            capacity: Some(capacity),
            ..EvalContext::new()
        }
    }

    fn cache_for<P: Clone + Eq + Hash, M>(
        map: &parking_lot::Mutex<HashMap<SubsystemId, Arc<SharedCache<P, M>>>>,
        capacity: Option<usize>,
        subsystem: SubsystemId,
    ) -> Arc<SharedCache<P, M>> {
        Arc::clone(map.lock().entry(subsystem).or_insert_with(|| {
            Arc::new(match capacity {
                Some(capacity) => SharedCache::bounded(capacity),
                None => SharedCache::new(),
            })
        }))
    }

    /// The two-host workload cache for `subsystem` (created on first use).
    pub fn workload_cache(
        &self,
        subsystem: SubsystemId,
    ) -> Arc<SharedCache<SearchPoint, Measurement>> {
        EvalContext::cache_for(&self.workload, self.capacity, subsystem)
    }

    /// The fabric cache for `subsystem` (created on first use).
    pub fn fabric_cache(
        &self,
        subsystem: SubsystemId,
    ) -> Arc<SharedCache<FabricPoint, FabricMeasurement>> {
        EvalContext::cache_for(&self.fabric, self.capacity, subsystem)
    }

    /// Computed/served/evicted counters summed over every cache this
    /// context created.
    pub fn totals(&self) -> CacheTotals {
        let workload = self
            .workload
            .lock()
            .values()
            .fold(CacheTotals::default(), |acc, c| acc + c.totals());
        self.fabric
            .lock()
            .values()
            .fold(workload, |acc, c| acc + c.totals())
    }
}

impl Default for EvalContext {
    fn default() -> Self {
        EvalContext::new()
    }
}

/// A speculation worker: computes measurements for pre-drawn points on its
/// own forked engine, publishing them into the [`SharedCache`].
pub trait SpecWorker<P, M>: Send {
    /// Compute the measurement for `point` from scratch.
    fn compute(&mut self, point: &P) -> M;

    /// Compute a whole batch, returning one measurement per point in
    /// order. Semantically identical to calling [`SpecWorker::compute`]
    /// point by point (the default does exactly that); workers backed by
    /// an incremental engine override this so the batch shares stage
    /// results.
    fn compute_batch(&mut self, points: &[P]) -> Vec<M> {
        points.iter().map(|point| self.compute(point)).collect()
    }
}

/// Everything a campaign loop needs to evaluate speculatively: the shared
/// memo cache (already wired into the committing evaluator) plus one
/// independent engine fork per evaluation thread.
pub struct SpeculationParts<P, M> {
    /// Concurrent cache shared by the committing evaluator and all workers.
    pub shared: Arc<SharedCache<P, M>>,
    /// One forked compute engine per worker thread.
    pub workers: Vec<Box<dyn SpecWorker<P, M>>>,
}

struct ForkedEngineWorker {
    engine: WorkloadEngine,
}

impl SpecWorker<SearchPoint, Measurement> for ForkedEngineWorker {
    fn compute(&mut self, point: &SearchPoint) -> Measurement {
        self.engine.measure(point)
    }

    fn compute_batch(&mut self, points: &[SearchPoint]) -> Vec<Measurement> {
        self.engine.measure_batch(points)
    }
}

/// A memoizing wrapper around one engine.
///
/// The evaluator does **not** do cost accounting: callers (the campaign,
/// the extractor) keep charging [`WorkloadEngine::experiment_cost`] per
/// measurement whether or not it hit the cache, because on hardware the
/// repeat would have to run. Memoization only skips the flow-model
/// recompute.
///
/// With speculation enabled ([`Evaluator::speculation`]) a local miss
/// first consults the [`SharedCache`] that worker threads fill; the
/// hit/miss stats are counted off the local cache alone, so they are
/// bit-identical whether or not workers got there first.
#[derive(Debug)]
pub struct Evaluator<'e> {
    engine: &'e mut WorkloadEngine,
    cache: HashMap<SearchPoint, Arc<Measurement>>,
    shared: Option<Arc<SharedCache<SearchPoint, Measurement>>>,
    memoize: bool,
    stats: EvalStats,
    shared_use: SharedUse,
}

impl<'e> Evaluator<'e> {
    /// A memoizing evaluator over `engine`.
    pub fn new(engine: &'e mut WorkloadEngine) -> Self {
        Evaluator {
            engine,
            cache: HashMap::new(),
            shared: None,
            memoize: true,
            stats: EvalStats::default(),
            shared_use: SharedUse::default(),
        }
    }

    /// An evaluator that always recomputes (the uncached reference path,
    /// used by the ablation bench and the bit-identity tests).
    pub fn uncached(engine: &'e mut WorkloadEngine) -> Self {
        Evaluator {
            memoize: false,
            ..Evaluator::new(engine)
        }
    }

    /// Attach a matrix-scoped [`SharedCache`] (usually obtained from an
    /// [`EvalContext`]): local misses will consult it before running the
    /// flow model, and [`Evaluator::speculation`] will reuse it instead of
    /// creating a per-campaign cache. A no-op on an uncached evaluator —
    /// without a local memo cache the bit-identity contract could not
    /// absorb a shared answer.
    pub fn attach_shared(&mut self, shared: Arc<SharedCache<SearchPoint, Measurement>>) {
        if self.memoize {
            self.shared = Some(shared);
        }
    }

    /// Measure one point, answering from the memo cache when the identical
    /// point was measured before.
    pub fn measure(&mut self, point: &SearchPoint) -> Measurement {
        if !self.memoize {
            self.stats.misses += 1;
            return self.engine.measure(point);
        }
        if let Some(measurement) = self.cache.get(point) {
            self.stats.hits += 1;
            return (**measurement).clone();
        }
        self.stats.misses += 1;
        let measurement = if let Some(shared) = self.shared.as_ref().map(Arc::clone) {
            let engine = &mut *self.engine;
            let mut computed_here = false;
            let measurement = shared.get_or_compute(point, || {
                computed_here = true;
                engine.measure(point)
            });
            if computed_here {
                self.shared_use.computed += 1;
            } else {
                self.shared_use.served += 1;
            }
            measurement
        } else {
            Arc::new(self.engine.measure(point))
        };
        self.cache.insert(point.clone(), Arc::clone(&measurement));
        (*measurement).clone()
    }

    /// Measure a whole batch of points in order, each through the memo
    /// cache exactly as [`Evaluator::measure`] would — the stats, the
    /// cache contents, and the returned measurements are identical to the
    /// point-by-point loop. The batch exists so callers holding a whole
    /// lookahead set can hand it over in one call and an incremental
    /// engine underneath can share stage results across the set.
    pub fn measure_batch(&mut self, points: &[SearchPoint]) -> Vec<Measurement> {
        points.iter().map(|point| self.measure(point)).collect()
    }

    /// The paper's §6 measurement procedure through the cache: sample the
    /// experiment `samples_per_iteration` times (repeats are cache hits)
    /// and assess the final sample. The engine is deterministic, so every
    /// sample is identical and no averaging is needed — the repeats exist
    /// for procedural fidelity, exactly as
    /// [`AnomalyMonitor::measure_and_assess`] documents; a future noisy
    /// engine would have to add real averaging here.
    pub fn measure_and_assess(
        &mut self,
        monitor: &AnomalyMonitor,
        point: &SearchPoint,
    ) -> (Measurement, AnomalyVerdict) {
        let samples = monitor.samples_per_iteration.max(1);
        let measurement = self.measure(point);
        if self.memoize {
            // Repeats of an identical deterministic sample are guaranteed
            // cache hits; account for them without the redundant lookups.
            self.stats.hits += u64::from(samples - 1);
        } else {
            for _ in 1..samples {
                let _ = self.measure(point);
            }
        }
        let verdict = monitor.assess(&measurement, &self.subsystem().rnic);
        (measurement, verdict)
    }

    /// The subsystem under test.
    pub fn subsystem(&self) -> &Subsystem {
        self.engine.subsystem()
    }

    /// Ground-truth oracle pass-through (scoring only; see
    /// [`WorkloadEngine::ground_truth`]).
    pub fn ground_truth(&self, point: &SearchPoint) -> Vec<&'static str> {
        self.engine.ground_truth(point)
    }

    /// Cache hit/miss counters so far.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// Shared-cache interaction counters so far (all zero without an
    /// attached cache).
    pub fn shared_use(&self) -> SharedUse {
        self.shared_use
    }

    /// Number of distinct points held in the cache.
    pub fn cached_points(&self) -> usize {
        self.cache.len()
    }

    /// Prepare shared-cache speculation: wires a [`SharedCache`] into this
    /// evaluator — reusing an attached matrix-scoped cache when one is
    /// present, so speculation workers publish where sibling cells read —
    /// and forks `workers` independent engines for the worker threads.
    /// Returns `None` when memoization is off (without a memo cache,
    /// speculated results could not be handed back to the committing loop)
    /// or when no workers were requested.
    pub fn speculation(
        &mut self,
        workers: usize,
    ) -> Option<SpeculationParts<SearchPoint, Measurement>> {
        if !self.memoize || workers == 0 {
            return None;
        }
        let shared = match &self.shared {
            Some(shared) => Arc::clone(shared),
            None => Arc::new(SharedCache::new()),
        };
        self.shared = Some(Arc::clone(&shared));
        let workers = (0..workers)
            .map(|_| {
                Box::new(ForkedEngineWorker {
                    engine: self.engine.fork(),
                }) as Box<dyn SpecWorker<SearchPoint, Measurement>>
            })
            .collect();
        Some(SpeculationParts { shared, workers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collie_rnic::subsystems::SubsystemId;
    use collie_rnic::workload::{Opcode, Transport};

    fn anomalous_point() -> SearchPoint {
        let mut p = SearchPoint::benign();
        p.transport = Transport::Ud;
        p.opcode = Opcode::Send;
        p.wqe_batch = 64;
        p.recv_queue_depth = 256;
        p.mtu = 2048;
        p.messages = vec![2048];
        p
    }

    #[test]
    fn repeated_measurements_hit_the_cache_and_agree() {
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let mut evaluator = Evaluator::new(&mut engine);
        let p = anomalous_point();
        let first = evaluator.measure(&p);
        let second = evaluator.measure(&p);
        assert_eq!(first, second);
        assert_eq!(evaluator.stats(), EvalStats { hits: 1, misses: 1 });
        assert_eq!(evaluator.cached_points(), 1);
    }

    #[test]
    fn engine_is_deterministic_so_memoization_is_sound() {
        // The cache substitutes a stored measurement for a recompute; this
        // pins the property that makes the substitution exact.
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let p = anomalous_point();
        let a = engine.measure(&p);
        let _ = engine.measure(&SearchPoint::benign());
        let b = engine.measure(&p);
        assert_eq!(a, b, "measure must be a pure function of the point");
    }

    #[test]
    fn uncached_evaluator_never_hits() {
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let mut evaluator = Evaluator::uncached(&mut engine);
        let p = SearchPoint::benign();
        let a = evaluator.measure(&p);
        let b = evaluator.measure(&p);
        assert_eq!(a, b);
        assert_eq!(evaluator.stats(), EvalStats { hits: 0, misses: 2 });
        assert_eq!(evaluator.cached_points(), 0);
    }

    #[test]
    fn distinct_points_occupy_distinct_slots() {
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let mut evaluator = Evaluator::new(&mut engine);
        let mut p = SearchPoint::benign();
        evaluator.measure(&p);
        p.num_qps *= 2;
        evaluator.measure(&p);
        assert_eq!(evaluator.stats(), EvalStats { hits: 0, misses: 2 });
        assert_eq!(evaluator.cached_points(), 2);
    }

    #[test]
    fn measure_batch_is_the_point_by_point_loop_through_the_cache() {
        let mut reference = WorkloadEngine::for_catalog(SubsystemId::F);
        let points = [
            SearchPoint::benign(),
            anomalous_point(),
            SearchPoint::benign(),
        ];
        let expected: Vec<_> = points.iter().map(|p| reference.measure(p)).collect();
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let mut evaluator = Evaluator::new(&mut engine);
        assert_eq!(evaluator.measure_batch(&points), expected);
        // The repeated benign point is a cache hit, exactly as in a loop.
        assert_eq!(evaluator.stats(), EvalStats { hits: 1, misses: 2 });
        assert_eq!(evaluator.cached_points(), 2);
    }

    #[test]
    fn spec_workers_batch_and_serial_computes_agree() {
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let mut evaluator = Evaluator::new(&mut engine);
        let mut workers = evaluator.speculation(1).expect("memoized").workers;
        let points = vec![SearchPoint::benign(), anomalous_point()];
        let batch = workers[0].compute_batch(&points);
        let serial: Vec<_> = points.iter().map(|p| workers[0].compute(p)).collect();
        assert_eq!(batch, serial);
    }

    #[test]
    fn measure_and_assess_samples_through_the_cache() {
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let mut evaluator = Evaluator::new(&mut engine);
        let monitor = AnomalyMonitor::new();
        let (_, verdict) = evaluator.measure_and_assess(&monitor, &anomalous_point());
        assert!(verdict.is_anomalous());
        // Four samples per iteration: one compute, three cache hits.
        assert_eq!(evaluator.stats(), EvalStats { hits: 3, misses: 1 });
    }

    #[test]
    fn hit_rate_is_well_defined() {
        assert_eq!(EvalStats::default().hit_rate(), 0.0);
        let stats = EvalStats { hits: 3, misses: 1 };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn shared_cache_counts_are_exact_under_concurrent_access() {
        let cache: Arc<SharedCache<u64, u64>> = Arc::new(SharedCache::new());
        let threads = 8u64;
        let keys = 64u64;
        let repeats = 5u64;
        crossbeam::thread::scope(|scope| {
            for t in 0..threads {
                let cache = Arc::clone(&cache);
                scope.spawn(move |_| {
                    for r in 0..repeats {
                        for k in 0..keys {
                            // Visit order differs per thread and per pass.
                            let k = (k + t + r) % keys;
                            let v = cache.get_or_compute(&k, || k * 3);
                            assert_eq!(*v, k * 3);
                        }
                    }
                });
            }
        })
        .expect("threads ok");
        let total = threads * repeats * keys;
        assert_eq!(
            cache.computed_count(),
            keys,
            "every key computed exactly once"
        );
        assert_eq!(
            cache.served_count(),
            total - keys,
            "no lost updates in the serve counter"
        );
    }

    #[test]
    fn claim_protocol_hands_each_point_to_exactly_one_claimant() {
        let cache: SharedCache<u32, u32> = SharedCache::new();
        assert!(matches!(cache.try_claim(&7), Claim::Mine));
        assert!(matches!(cache.try_claim(&7), Claim::InFlight));
        assert!(cache.contains(&7));
        assert!(cache.peek(&7).is_none(), "pending slots are not peekable");
        cache.fulfill(7, 49);
        assert!(matches!(cache.try_claim(&7), Claim::Ready(v) if *v == 49));
        assert_eq!(*cache.peek(&7).expect("ready"), 49);
        assert_eq!(cache.computed_count(), 1);
    }

    #[test]
    fn waiters_block_on_in_flight_points_instead_of_recomputing() {
        let cache: Arc<SharedCache<u32, u32>> = Arc::new(SharedCache::new());
        assert!(matches!(cache.try_claim(&1), Claim::Mine));
        crossbeam::thread::scope(|scope| {
            let waiter = {
                let cache = Arc::clone(&cache);
                scope.spawn(move |_| *cache.get_or_compute(&1, || panic!("must not recompute")))
            };
            // Give the waiter a chance to park before publishing.
            // collie-lint: allow(wall-clock, reason = "test-only sleep ordering a thread interleaving; no campaign path runs here")
            std::thread::sleep(std::time::Duration::from_millis(5));
            cache.fulfill(1, 11);
            assert_eq!(waiter.join().expect("waiter ok"), 11);
        })
        .expect("threads ok");
        assert_eq!(cache.computed_count(), 1);
        assert_eq!(cache.served_count(), 1);
    }

    #[test]
    fn speculation_workers_fill_the_cache_the_evaluator_reads() {
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let mut reference = WorkloadEngine::for_catalog(SubsystemId::F);
        let mut evaluator = Evaluator::new(&mut engine);
        let SpeculationParts {
            shared,
            mut workers,
        } = evaluator.speculation(2).expect("memoized evaluator");
        assert_eq!(workers.len(), 2);
        let p = anomalous_point();
        let m = workers[0].compute(&p);
        assert_eq!(m, reference.measure(&p), "fork agrees with a fresh engine");
        shared.fulfill(p.clone(), m);
        // A local miss consults the shared cache: the stats still record a
        // miss (they are counted off the local cache alone), but the value
        // comes from the worker's publication, not a recompute.
        let got = evaluator.measure(&p);
        assert_eq!(got, reference.measure(&p));
        assert_eq!(evaluator.stats(), EvalStats { hits: 0, misses: 1 });
        assert_eq!(shared.computed_count(), 1);
        assert_eq!(shared.served_count(), 1);
    }

    #[test]
    fn speculation_requires_memoization_and_workers() {
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        assert!(Evaluator::uncached(&mut engine).speculation(4).is_none());
        assert!(Evaluator::new(&mut engine).speculation(0).is_none());
    }

    #[test]
    fn bounded_cache_evicts_in_publication_order_with_exact_counters() {
        let cache: SharedCache<u32, u32> = SharedCache::bounded(2);
        for k in [1u32, 2, 3] {
            assert_eq!(*cache.get_or_compute(&k, || k * 10), k * 10);
        }
        // Capacity 2: publishing key 3 evicted key 1 (oldest first).
        assert_eq!(cache.computed_count(), 3);
        assert_eq!(cache.evicted_count(), 1);
        assert!(cache.peek(&1).is_none(), "key 1 must be evicted");
        assert!(cache.peek(&2).is_some() && cache.peek(&3).is_some());
        // An evicted key recomputes on its next ask (and its re-publication
        // evicts key 2, the new oldest resident).
        assert_eq!(*cache.get_or_compute(&1, || 10), 10);
        assert_eq!(cache.computed_count(), 4);
        assert_eq!(cache.evicted_count(), 2);
        assert!(cache.peek(&2).is_none(), "key 2 must be evicted");
        // Resident keys still serve without recompute.
        assert_eq!(*cache.get_or_compute(&3, || panic!("resident")), 30);
        assert_eq!(cache.served_count(), 1);
        assert_eq!(
            cache.totals(),
            CacheTotals {
                computed: 4,
                served: 1,
                evicted: 2
            }
        );
    }

    #[test]
    fn bounded_cache_capacity_clamps_to_one() {
        let cache: SharedCache<u32, u32> = SharedCache::bounded(0);
        assert_eq!(*cache.get_or_compute(&1, || 10), 10);
        assert_eq!(*cache.get_or_compute(&2, || 20), 20);
        assert_eq!(cache.evicted_count(), 1);
        assert!(cache.peek(&2).is_some(), "the newest key always survives");
    }

    #[test]
    fn speculation_reuses_an_attached_shared_cache() {
        let shared: Arc<SharedCache<SearchPoint, Measurement>> = Arc::new(SharedCache::new());
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let mut evaluator = Evaluator::new(&mut engine);
        evaluator.attach_shared(Arc::clone(&shared));
        let parts = evaluator.speculation(1).expect("memoized evaluator");
        assert!(
            Arc::ptr_eq(&parts.shared, &shared),
            "speculation workers must publish into the matrix-scoped cache"
        );
    }

    #[test]
    fn attach_shared_is_a_no_op_without_memoization() {
        let shared: Arc<SharedCache<SearchPoint, Measurement>> = Arc::new(SharedCache::new());
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let mut evaluator = Evaluator::uncached(&mut engine);
        evaluator.attach_shared(Arc::clone(&shared));
        let p = anomalous_point();
        let _ = evaluator.measure(&p);
        assert_eq!(shared.computed_count(), 0, "uncached path must not share");
        assert_eq!(evaluator.shared_use(), SharedUse::default());
    }

    #[test]
    fn attached_cache_tracks_shared_use_without_touching_stats() {
        let shared: Arc<SharedCache<SearchPoint, Measurement>> = Arc::new(SharedCache::new());
        let mut reference = WorkloadEngine::for_catalog(SubsystemId::F);
        let p = anomalous_point();
        shared.fulfill(p.clone(), reference.measure(&p));

        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let mut evaluator = Evaluator::new(&mut engine);
        evaluator.attach_shared(Arc::clone(&shared));
        // Local miss served by the shared publication: stats still record a
        // plain miss (bit-identity) and SharedUse records the serve.
        let got = evaluator.measure(&p);
        assert_eq!(got, reference.measure(&p));
        assert_eq!(evaluator.stats(), EvalStats { hits: 0, misses: 1 });
        assert_eq!(
            evaluator.shared_use(),
            SharedUse {
                computed: 0,
                served: 1
            }
        );
        // A genuinely new point is computed through the shared cache.
        let _ = evaluator.measure(&SearchPoint::benign());
        assert_eq!(
            evaluator.shared_use(),
            SharedUse {
                computed: 1,
                served: 1
            }
        );
    }

    #[test]
    fn eval_context_scopes_caches_per_subsystem_and_point_type() {
        let ctx = EvalContext::new();
        let f = ctx.workload_cache(SubsystemId::F);
        assert!(
            Arc::ptr_eq(&f, &ctx.workload_cache(SubsystemId::F)),
            "same subsystem must share one cache"
        );
        assert!(
            !Arc::ptr_eq(&f, &ctx.workload_cache(SubsystemId::H)),
            "a SearchPoint means different experiments on different \
             subsystems; the caches must be distinct"
        );
        // Fabric caches are a separate family keyed by FabricPoint.
        let _ = ctx.fabric_cache(SubsystemId::F);
        assert_eq!(ctx.totals(), CacheTotals::default());
        f.fulfill(SearchPoint::benign(), {
            let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
            engine.measure(&SearchPoint::benign())
        });
        assert_eq!(
            ctx.totals(),
            CacheTotals {
                computed: 1,
                served: 0,
                evicted: 0
            }
        );
    }

    #[test]
    fn bounded_context_bounds_every_cache_it_creates() {
        let ctx = EvalContext::bounded(1);
        let cache = ctx.workload_cache(SubsystemId::F);
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        let benign = SearchPoint::benign();
        cache.fulfill(benign.clone(), engine.measure(&benign));
        let p = anomalous_point();
        cache.fulfill(p.clone(), engine.measure(&p));
        assert_eq!(ctx.totals().evicted, 1);
        assert!(cache.peek(&benign).is_none());
    }
}
