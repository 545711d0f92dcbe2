//! One benchmark run: set-up, the timed rounds, and the traced rounds.
//!
//! A *round* runs every campaign of the workload once, from cold caches,
//! on a pool of [`WORKERS`] threads. The timed run repeats rounds through
//! the matrix entry points the fig bins use until the run's time is up.
//! The traced run alternates a timed round with a traced round of the same
//! campaigns through [`TracedDomain`], and replays each traced campaign's
//! cache-miss points through the engine, subsystem, monitor and fabric
//! layers one call at a time.

use crate::digest::{CampaignDigest, CampaignOutcome, GoldenFixtures};
use crate::stats::{median, percentile, ratio};
use crate::traced::{
    clock_overhead_ns, elapsed_ns, take_tally, Layer, LayerTally, Span, TracedDomain, LAYERS,
};
use crate::workload::Workload;
use collie_bench::{
    parallel_map, run_campaign_matrix_report, run_fabric_campaign_matrix_report, CampaignSpec,
    MatrixOptions, MatrixReport, DEFAULT_MATRIX_CACHE_CAPACITY,
};
use collie_core::engine::WorkloadEngine;
use collie_core::eval::{EvalContext, Evaluator, SharedCache, SharedUse};
use collie_core::fabric::{
    assess_fabric, FabricDomain, FabricEngine, FabricEvaluator, FabricOutcome,
};
use collie_core::monitor::AnomalyMonitor;
use collie_core::search::kernel::{run_annealing, run_bayesian, run_random, CampaignLoop};
use collie_core::search::{
    SearchConfig, SearchDomain, SearchOutcome, SearchStrategy, WorkloadDomain,
};
use collie_core::space::{FabricPoint, FabricSpace, SearchPoint, SearchSpace};
use collie_rnic::fabric::FabricMeasurement;
use collie_rnic::subsystem::Measurement;
use collie_rnic::subsystems::SubsystemId;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// The fixed worker-pool width of every round. The benchmark host has two
/// cores; the width never comes from the environment.
pub const WORKERS: usize = 2;

/// Each set-up thread repeats the build for at least this long per burst
/// and keeps its median. One build takes well under a millisecond, so
/// hundreds of repeats keep a single slow build (a page fault, a
/// preemption) from setting the figure. The timed run repeats the burst
/// after every round and reports the median over bursts: a single 0.25 s
/// window at the start moved by 10-20% with the host's speed.
pub const SETUP_SECONDS: f64 = 0.05;

/// What set-up builds before the first campaign: the workload's catalog
/// subsystems with their engines and search spaces, and the campaigns of
/// one round. The traced run forks its engines from here.
pub struct Catalog {
    two_host: BTreeMap<SubsystemId, (WorkloadEngine, SearchSpace)>,
    fabric: BTreeMap<SubsystemId, (FabricEngine, FabricSpace)>,
    /// Every campaign of one round.
    pub specs: Vec<CampaignSpec>,
}

impl Catalog {
    /// Build the catalog a workload needs.
    pub fn build(workload: Workload, seed: u64) -> Catalog {
        let mut two_host = BTreeMap::new();
        let mut fabric = BTreeMap::new();
        for id in SubsystemId::ALL {
            if workload.is_fabric() {
                let space = FabricSpace::for_host(&id.host());
                fabric.insert(id, (FabricEngine::for_catalog(id), space));
            } else {
                let space = SearchSpace::for_host(&id.host());
                two_host.insert(id, (WorkloadEngine::for_catalog(id), space));
            }
        }
        Catalog {
            two_host,
            fabric,
            specs: workload.specs(seed),
        }
    }
}

/// Build the catalog repeatedly on each of the [`WORKERS`] threads at
/// once, as the rounds run; return the mean of the threads' median build
/// seconds and one of the catalogs. Timed on a single thread, the median
/// moved by up to a third between back-to-back processes; averaging two
/// threads halves the weight of each one's luck.
pub fn setup(workload: Workload, seed: u64) -> (f64, Catalog) {
    let builds: Vec<(f64, Catalog)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..WORKERS)
            .map(|_| scope.spawn(|| repeated_builds(workload, seed)))
            .collect();
        threads
            .into_iter()
            .map(|thread| thread.join().expect("a set-up thread panicked"))
            .collect()
    });
    let mean = builds.iter().map(|(seconds, _)| seconds).sum::<f64>() / builds.len() as f64;
    let (_, catalog) = builds.into_iter().next().expect("WORKERS > 0");
    (mean, catalog)
}

/// Build the catalog for [`SETUP_SECONDS`]; return the median seconds of
/// one build and the last catalog.
fn repeated_builds(workload: Workload, seed: u64) -> (f64, Catalog) {
    let mut seconds = Vec::new();
    let started = Instant::now();
    loop {
        let build = Instant::now();
        let catalog = black_box(Catalog::build(workload, seed));
        seconds.push(build.elapsed().as_secs_f64());
        if started.elapsed().as_secs_f64() >= SETUP_SECONDS {
            return (median(&seconds).expect("at least one build"), catalog);
        }
    }
}

/// One finished campaign of a round.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The outcome digest.
    pub digest: CampaignDigest,
    /// Host seconds the campaign took.
    pub wall_s: f64,
    /// Distinct anomalies found (see [`CampaignOutcome::anomalies_found`]).
    pub anomalies: usize,
    /// Fixture cells the campaign matched, or the first difference.
    pub golden: Result<usize, String>,
}

impl CellRun {
    fn of(
        spec: &CampaignSpec,
        outcome: &impl CampaignOutcome,
        wall_s: f64,
        fixtures: &GoldenFixtures,
    ) -> CellRun {
        let seed = spec.config.seed;
        let budget_secs = spec.config.budget.as_nanos() / 1_000_000_000;
        CellRun {
            digest: CampaignDigest::of(spec.subsystem, seed, outcome),
            wall_s,
            anomalies: outcome.anomalies_found(spec.subsystem),
            golden: fixtures.check(spec.subsystem, budget_secs, seed, outcome),
        }
    }
}

/// One timed round: its campaigns in spec order and its host seconds.
#[derive(Debug, Clone)]
pub struct Round {
    /// One entry per campaign.
    pub cells: Vec<CellRun>,
    /// Host seconds from the round's start to its last campaign's end.
    pub wall_s: f64,
}

fn round_of<O: CampaignOutcome>(
    specs: &[CampaignSpec],
    fixtures: &GoldenFixtures,
    run: impl FnOnce() -> MatrixReport<O>,
) -> Round {
    let started = Instant::now();
    let report = run();
    let wall_s = started.elapsed().as_secs_f64();
    let cells = specs
        .iter()
        .zip(&report.cells)
        .map(|(spec, cell)| CellRun::of(spec, &cell.outcome, cell.wall_secs, fixtures))
        .collect();
    Round { cells, wall_s }
}

/// One timed round through the matrix entry point of the workload's stack,
/// with default [`MatrixOptions`] at the fixed pool width.
pub fn timed_round(workload: Workload, specs: &[CampaignSpec], fixtures: &GoldenFixtures) -> Round {
    let options = MatrixOptions::new(WORKERS);
    if workload.is_fabric() {
        round_of(specs, fixtures, || {
            run_fabric_campaign_matrix_report(specs, &options)
        })
    } else {
        round_of(specs, fixtures, || {
            run_campaign_matrix_report(specs, &options)
        })
    }
}

/// Run one campaign to the end with the strategy its configuration names.
fn drive<D: SearchDomain>(campaign: &mut CampaignLoop<'_, D>, strategy: SearchStrategy) {
    match strategy {
        SearchStrategy::Random => run_random(campaign),
        SearchStrategy::Bayesian => run_bayesian(campaign),
        SearchStrategy::SimulatedAnnealing => run_annealing(campaign),
    }
}

/// A campaign run through [`TracedDomain`].
#[derive(Debug)]
pub struct Traced<O, P> {
    /// The campaign outcome.
    pub outcome: O,
    /// The points the evaluator computed (its cache misses), in order.
    pub misses: Vec<P>,
    /// The evaluator's shared-cache use.
    pub shared: SharedUse,
    /// Host nanoseconds from the campaign's start to its report.
    pub span_ns: u64,
    /// Calls and time per layer.
    pub tally: LayerTally,
}

/// A two-host campaign through [`TracedDomain`], bound the way
/// `collie_core::search::run_search_in_context` binds it. Speculation is
/// never enabled: the benchmark refuses the hook that turns it on.
pub fn traced_two_host_campaign(
    engine: &mut WorkloadEngine,
    space: &SearchSpace,
    config: &SearchConfig,
    shared: Option<Arc<SharedCache<SearchPoint, Measurement>>>,
) -> Traced<SearchOutcome, SearchPoint> {
    let monitor = AnomalyMonitor::new();
    engine.set_incremental(config.incremental);
    let mut evaluator = if config.memoize {
        Evaluator::new(engine)
    } else {
        Evaluator::uncached(engine)
    };
    if let Some(shared) = shared {
        evaluator.attach_shared(shared);
    }
    let mut misses = Vec::new();
    take_tally();
    let started = Instant::now();
    let report = {
        let domain = WorkloadDomain::new(&mut evaluator, &monitor, space, config.signal);
        let mut campaign = CampaignLoop::new(TracedDomain::new(domain, &mut misses), config);
        drive(&mut campaign, config.strategy);
        campaign.finish()
    };
    let span_ns = elapsed_ns(started);
    Traced {
        outcome: SearchOutcome {
            label: config.label(),
            discoveries: report.discoveries,
            rule_hits: report.rule_hits,
            trace: report.trace,
            experiments: report.experiments,
            skipped_by_mfs: report.skipped_by_mfs,
            elapsed: report.elapsed,
        },
        misses,
        shared: evaluator.shared_use(),
        span_ns,
        tally: take_tally(),
    }
}

/// A fabric campaign through [`TracedDomain`], bound the way
/// `collie_core::fabric::run_fabric_search_in_context` binds it (including
/// its fabric-only dedup and stuck-walk settings).
pub fn traced_fabric_campaign(
    engine: &mut FabricEngine,
    space: &FabricSpace,
    config: &SearchConfig,
    shared: Option<Arc<SharedCache<FabricPoint, FabricMeasurement>>>,
) -> Traced<FabricOutcome, FabricPoint> {
    let config = &SearchConfig {
        identity_dedup: true,
        stuck_skip_limit: config.stuck_skip_limit.or(Some(24)),
        ..config.clone()
    };
    let monitor = AnomalyMonitor::new();
    engine.set_incremental(config.incremental);
    let mut evaluator = if config.memoize {
        FabricEvaluator::new(engine)
    } else {
        FabricEvaluator::uncached(engine)
    };
    if let Some(shared) = shared {
        evaluator.attach_shared(shared);
    }
    let mut misses = Vec::new();
    take_tally();
    let started = Instant::now();
    let report = {
        let domain = FabricDomain::new(&mut evaluator, &monitor, space, config.signal);
        let mut campaign = CampaignLoop::new(TracedDomain::new(domain, &mut misses), config);
        drive(&mut campaign, config.strategy);
        campaign.finish()
    };
    let span_ns = elapsed_ns(started);
    Traced {
        outcome: FabricOutcome {
            label: format!("{} fabric", config.label()),
            discoveries: report.discoveries,
            trace: report.trace,
            experiments: report.experiments,
            skipped_by_mfs: report.skipped_by_mfs,
            elapsed: report.elapsed,
        },
        misses,
        shared: evaluator.shared_use(),
        span_ns,
        tally: take_tally(),
    }
}

/// Per-call timings of one campaign's replayed cache misses.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// `WorkloadEngine::translate`.
    pub translate: Span,
    /// `Subsystem::evaluate`, one entry per call.
    pub evaluate_ns: Vec<u64>,
    /// `AnomalyMonitor::assess`.
    pub monitor: Span,
    /// Delta-cache stage hits of the replay's subsystem.
    pub delta_hits: u64,
    /// Delta-cache stage misses of the replay's subsystem.
    pub delta_misses: u64,
    /// `FabricEngine::measure` plus `assess_fabric`, one entry per call
    /// (fabric campaigns only).
    pub fabric_ns: Vec<u64>,
}

impl Replay {
    fn add(&mut self, other: &Replay) {
        self.translate.add(&other.translate);
        self.evaluate_ns.extend_from_slice(&other.evaluate_ns);
        self.monitor.add(&other.monitor);
        self.delta_hits += other.delta_hits;
        self.delta_misses += other.delta_misses;
        self.fabric_ns.extend_from_slice(&other.fabric_ns);
    }
}

/// Nanoseconds between two clock reads, less the cost of one read.
fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from((to - from).as_nanos())
        .unwrap_or(u64::MAX)
        .saturating_sub(clock_overhead_ns())
}

/// Replay two-host points, in order, through `translate`, `evaluate` and
/// the monitor's `assess` on a fork of `prototype`.
pub fn replay_two_host<'p>(
    prototype: &WorkloadEngine,
    incremental: bool,
    points: impl IntoIterator<Item = &'p SearchPoint>,
) -> Replay {
    let monitor = AnomalyMonitor::new();
    let mut engine = prototype.fork();
    engine.set_incremental(incremental);
    let mut replay = Replay::default();
    for point in points {
        let started = Instant::now();
        let workload = engine.translate(point);
        let translated = Instant::now();
        let measurement = engine.subsystem_mut().evaluate(&workload);
        let evaluated = Instant::now();
        black_box(monitor.assess(&measurement, &engine.subsystem().rnic));
        let assessed = Instant::now();
        replay.translate.record(nanos(started, translated));
        replay.evaluate_ns.push(nanos(translated, evaluated));
        replay.monitor.record(nanos(evaluated, assessed));
    }
    let delta = engine.subsystem().incremental_use();
    replay.delta_hits = delta.total_hits();
    replay.delta_misses = delta.total_misses();
    replay
}

/// Replay fabric points: their culprit workloads through the two-host
/// layers, then the points themselves through `FabricEngine::measure` and
/// `assess_fabric`.
pub fn replay_fabric(
    prototype: &FabricEngine,
    incremental: bool,
    points: &[FabricPoint],
) -> Replay {
    let mut replay = replay_two_host(
        prototype.inner(),
        incremental,
        points.iter().map(|p| &p.workload),
    );
    let monitor = AnomalyMonitor::new();
    let mut engine = prototype.fork();
    engine.set_incremental(incremental);
    for point in points {
        let started = Instant::now();
        let measurement = engine.measure(point);
        black_box(assess_fabric(&monitor, &measurement));
        replay.fabric_ns.push(elapsed_ns(started));
    }
    replay
}

/// One traced campaign with its replay.
#[derive(Debug, Clone)]
pub struct TracedCell {
    /// The campaign, timed through the wrapper.
    pub run: CellRun,
    /// Calls and time per layer.
    pub tally: LayerTally,
    /// The evaluator's shared-cache use.
    pub shared: SharedUse,
    /// Host nanoseconds of the whole campaign.
    pub span_ns: u64,
    /// The replay of its cache misses.
    pub replay: Replay,
}

impl TracedCell {
    fn of<O: CampaignOutcome, P>(
        spec: &CampaignSpec,
        traced: Traced<O, P>,
        replay: Replay,
        fixtures: &GoldenFixtures,
    ) -> TracedCell {
        TracedCell {
            run: CellRun::of(spec, &traced.outcome, traced.span_ns as f64 / 1e9, fixtures),
            tally: traced.tally,
            shared: traced.shared,
            span_ns: traced.span_ns,
            replay,
        }
    }
}

/// One traced round: every campaign through [`TracedDomain`] with one
/// matrix-scoped cache context (as default [`MatrixOptions`] give the
/// timed round), each followed by its replay on the same worker.
pub fn traced_round(
    workload: Workload,
    catalog: &Catalog,
    fixtures: &GoldenFixtures,
) -> Vec<TracedCell> {
    let context = EvalContext::bounded(DEFAULT_MATRIX_CACHE_CAPACITY);
    parallel_map(&catalog.specs, WORKERS, |spec| {
        let incremental = spec.config.incremental;
        if workload.is_fabric() {
            let (prototype, space) = &catalog.fabric[&spec.subsystem];
            let mut engine = prototype.fork();
            let shared = context.fabric_cache(spec.subsystem);
            let traced = traced_fabric_campaign(&mut engine, space, &spec.config, Some(shared));
            let replay = replay_fabric(prototype, incremental, &traced.misses);
            TracedCell::of(spec, traced, replay, fixtures)
        } else {
            let (prototype, space) = &catalog.two_host[&spec.subsystem];
            let mut engine = prototype.fork();
            let shared = context.workload_cache(spec.subsystem);
            let traced = traced_two_host_campaign(&mut engine, space, &spec.config, Some(shared));
            let replay = replay_two_host(prototype, incremental, &traced.misses);
            TracedCell::of(spec, traced, replay, fixtures)
        }
    })
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The output check's state: the reference digests (the first round's)
/// and the campaigns attempted and failed so far.
#[derive(Debug, Default)]
pub struct Checker {
    reference: Option<Vec<CampaignDigest>>,
    /// Campaigns run.
    pub attempted: u64,
    /// Campaigns that panicked, differed from the reference digest, or
    /// differed from a golden fixture cell.
    pub failed: u64,
    /// Fixture cells compared and matched.
    pub golden_matched: usize,
    /// One line per failure.
    pub errors: Vec<String>,
}

impl Checker {
    /// Check one round: the first round becomes the reference every later
    /// round (timed or traced) must reproduce digest for digest.
    pub fn round<'c>(&mut self, cells: impl IntoIterator<Item = &'c CellRun>) {
        let cells: Vec<&CellRun> = cells.into_iter().collect();
        self.attempted += cells.len() as u64;
        let reference = self
            .reference
            .get_or_insert_with(|| cells.iter().map(|c| c.digest.clone()).collect());
        for (cell, expected) in cells.iter().zip(reference.iter()) {
            let mut ok = true;
            if cell.digest != *expected {
                self.errors.push(format!(
                    "digest mismatch: {} (reference {expected})",
                    cell.digest
                ));
                ok = false;
            }
            match &cell.golden {
                Ok(matched) => self.golden_matched += matched,
                Err(difference) => {
                    self.errors.push(difference.clone());
                    ok = false;
                }
            }
            self.failed += u64::from(!ok);
        }
    }

    /// Count a round that panicked: every campaign in it failed.
    pub fn panicked(&mut self, campaigns: usize) {
        self.attempted += campaigns as u64;
        self.failed += campaigns as u64;
        self.errors
            .push(format!("a round of {campaigns} campaigns panicked"));
    }

    /// The reference digests (empty if no round finished).
    pub fn digests(&self) -> &[CampaignDigest] {
        self.reference.as_deref().unwrap_or(&[])
    }
}

/// Run `round` unless it panics.
fn guarded<T>(round: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(round)).ok()
}

/// What a run reports.
#[derive(Debug)]
pub struct RunReport {
    /// The output check.
    pub checker: Checker,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable summary lines.
    pub notes: Vec<String>,
}

/// The timed run: set-up, one untimed round, then timed rounds, each
/// followed by a set-up burst, until `seconds` have passed. Reports every
/// end-to-end metric.
pub fn timed_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    fixtures: &GoldenFixtures,
) -> RunReport {
    let (first_setup_s, catalog) = setup(workload, seed);
    let mut setup_s = vec![first_setup_s];
    let mut checker = Checker::default();
    let mut rounds: Vec<Round> = Vec::new();
    let mut started: Option<Instant> = None;
    loop {
        let Some(round) = guarded(|| timed_round(workload, &catalog.specs, fixtures)) else {
            checker.panicked(catalog.specs.len());
            break;
        };
        checker.round(&round.cells);
        match started {
            // The first round in a process runs 10-20% slower than the
            // rest (the heap grows, pages fault in), which a user running
            // campaign after campaign does not see: it is checked but not
            // timed, and the clock starts after it.
            None => started = Some(Instant::now()),
            Some(clock) => {
                rounds.push(round);
                setup_s.push(setup(workload, seed).0);
                if clock.elapsed().as_secs_f64() >= seconds {
                    break;
                }
            }
        }
    }
    // Throughput is the median over rounds, so one round slowed by a
    // neighbour on the host does not move it.
    let throughput: Vec<f64> = rounds
        .iter()
        .map(|r| {
            let experiments: u64 = r
                .cells
                .iter()
                .map(|c| u64::from(c.digest.experiments))
                .sum();
            ratio(experiments as f64, r.wall_s)
        })
        .collect();
    let round_s: f64 = rounds.iter().map(|r| r.wall_s).sum();
    // Campaign percentiles are taken per round and their median over
    // rounds is reported, as for throughput: pooling every round's
    // campaigns would let a run of slow rounds shift the percentile.
    let campaign_ms = |p: f64| {
        let per_round: Vec<f64> = rounds
            .iter()
            .filter_map(|r| {
                let ms: Vec<f64> = r.cells.iter().map(|c| c.wall_s * 1e3).collect();
                percentile(&ms, p)
            })
            .collect();
        median(&per_round).unwrap_or(0.0)
    };
    let first: &[CellRun] = rounds.first().map(|r| r.cells.as_slice()).unwrap_or(&[]);
    let anomalies = first.iter().map(|c| c.anomalies as f64).sum::<f64>();
    let notes = vec![format!(
        "{} rounds of {} campaigns in {round_s:.3} s on {WORKERS} workers; \
         {} golden fixture cells matched",
        rounds.len(),
        catalog.specs.len(),
        checker.golden_matched
    )];
    RunReport {
        checker,
        metrics: vec![
            metric("setup_s", median(&setup_s).unwrap_or(0.0), "s"),
            metric(
                "experiments_per_s",
                median(&throughput).unwrap_or(0.0),
                "1/s",
            ),
            metric("campaign_ms_p50", campaign_ms(50.0), "ms"),
            metric("campaign_ms_p90", campaign_ms(90.0), "ms"),
            metric("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB"),
            metric(
                "anomalies_found",
                ratio(anomalies, first.len() as f64),
                "count",
            ),
        ],
        notes,
    }
}

/// The process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Sums over every traced campaign of a traced run.
#[derive(Debug, Default)]
struct LayerSums {
    traced_rounds: u64,
    spans: [Span; LAYERS],
    assess_ns: Vec<u64>,
    assess_hits: u64,
    extractions: u64,
    probes: u64,
    kernel_self_ns: f64,
    traced_ns: u64,
    experiments: u64,
    skipped: u64,
    shared: SharedUse,
    replay: Replay,
    timed_rounds: u64,
    timed_cell_s: f64,
    timed_round_s: f64,
}

impl LayerSums {
    fn add_traced(&mut self, cells: &[TracedCell]) {
        self.traced_rounds += 1;
        for cell in cells {
            let tally = &cell.tally;
            for (sum, span) in self.spans.iter_mut().zip(&tally.spans) {
                sum.add(span);
            }
            self.assess_ns.extend_from_slice(&tally.assess_ns);
            self.assess_hits += tally.assess_hits;
            self.extractions += tally.extractions;
            self.probes += tally.probes;
            self.kernel_self_ns += (cell.span_ns as f64 - tally.callback_ns()).max(0.0);
            self.traced_ns += cell.span_ns;
            self.experiments += u64::from(cell.run.digest.experiments);
            self.skipped += u64::from(cell.run.digest.skipped);
            self.shared.computed += cell.shared.computed;
            self.shared.served += cell.shared.served;
            self.replay.add(&cell.replay);
        }
    }

    fn add_timed(&mut self, round: &Round) {
        self.timed_rounds += 1;
        self.timed_cell_s += round.cells.iter().map(|c| c.wall_s).sum::<f64>();
        self.timed_round_s += round.wall_s;
    }

    fn span(&self, layer: Layer) -> &Span {
        &self.spans[layer as usize]
    }

    /// Per-layer metrics; counts and totals are per round.
    fn metrics(&self) -> Vec<Metric> {
        let rounds = self.traced_rounds.max(1) as f64;
        let per_round = |total: f64| total / rounds;
        let ms_per_round = |ns: f64| ns / rounds / 1e6;
        let pct = |values: &[u64], p: f64| {
            let values: Vec<f64> = values.iter().map(|&v| v as f64).collect();
            percentile(&values, p).unwrap_or(0.0)
        };
        let total_ns = |values: &[u64]| values.iter().sum::<u64>() as f64;
        let propose = self.span(Layer::Propose);
        let matches = self.span(Layer::MfsMatch);
        let assess = self.span(Layer::Assess);
        let replay = &self.replay;
        // The evaluator's own time: its calls (assess and the extraction
        // experiments) less the replayed model work of the points it
        // computed. A fabric measurement contains the two-host one.
        let model_ns = if replay.fabric_ns.is_empty() {
            replay.translate.estimated_ns()
                + total_ns(&replay.evaluate_ns)
                + replay.monitor.estimated_ns()
        } else {
            total_ns(&replay.fabric_ns)
        };
        let evaluator_self_ns =
            (assess.estimated_ns() + self.span(Layer::Extract).estimated_ns() - model_ns).max(0.0);
        vec![
            metric("space.proposals", per_round(propose.calls as f64), "count"),
            metric("space.propose_ns", propose.mean_ns(), "ns"),
            metric(
                "space.propose_ms",
                ms_per_round(propose.estimated_ns()),
                "ms",
            ),
            metric("mfs.match_calls", per_round(matches.calls as f64), "count"),
            metric("mfs.match_ns", matches.mean_ns(), "ns"),
            metric("mfs.match_ms", ms_per_round(matches.estimated_ns()), "ms"),
            metric(
                "mfs.guard_ms",
                ms_per_round(self.span(Layer::MfsGuard).estimated_ns()),
                "ms",
            ),
            metric(
                "mfs.match_per_experiment",
                ratio(matches.calls as f64, self.experiments as f64),
                "count",
            ),
            metric(
                "mfs.skip_ratio",
                ratio(self.skipped as f64, propose.calls as f64),
                "ratio",
            ),
            metric("eval.assess_calls", per_round(assess.calls as f64), "count"),
            metric("eval.assess_ns_p50", pct(&self.assess_ns, 50.0), "ns"),
            metric("eval.assess_ns_p99", pct(&self.assess_ns, 99.0), "ns"),
            metric("eval.assess_ms", ms_per_round(assess.estimated_ns()), "ms"),
            metric("eval.self_ms", ms_per_round(evaluator_self_ns), "ms"),
            metric(
                "eval.hit_ratio",
                ratio(self.assess_hits as f64, assess.calls as f64),
                "ratio",
            ),
            metric(
                "eval.shared_served_ratio",
                ratio(
                    self.shared.served as f64,
                    (self.shared.served + self.shared.computed) as f64,
                ),
                "ratio",
            ),
            metric("engine.translate_ns", replay.translate.mean_ns(), "ns"),
            metric(
                "engine.translate_ms",
                ms_per_round(replay.translate.estimated_ns()),
                "ms",
            ),
            metric(
                "rnic.evaluate_calls",
                per_round(replay.evaluate_ns.len() as f64),
                "count",
            ),
            metric("rnic.evaluate_ns_p50", pct(&replay.evaluate_ns, 50.0), "ns"),
            metric("rnic.evaluate_ns_p99", pct(&replay.evaluate_ns, 99.0), "ns"),
            metric(
                "rnic.evaluate_ms",
                ms_per_round(total_ns(&replay.evaluate_ns)),
                "ms",
            ),
            metric(
                "rnic.delta_hit_ratio",
                ratio(
                    replay.delta_hits as f64,
                    (replay.delta_hits + replay.delta_misses) as f64,
                ),
                "ratio",
            ),
            metric("monitor.assess_ns", replay.monitor.mean_ns(), "ns"),
            metric(
                "monitor.assess_ms",
                ms_per_round(replay.monitor.estimated_ns()),
                "ms",
            ),
            metric(
                "fabric.measure_calls",
                per_round(replay.fabric_ns.len() as f64),
                "count",
            ),
            metric("fabric.measure_ns_p50", pct(&replay.fabric_ns, 50.0), "ns"),
            metric(
                "fabric.measure_ms",
                ms_per_round(total_ns(&replay.fabric_ns)),
                "ms",
            ),
            metric(
                "mfs.extractions",
                per_round(self.extractions as f64),
                "count",
            ),
            metric("mfs.probes", per_round(self.probes as f64), "count"),
            metric(
                "mfs.extract_ms",
                ms_per_round(self.span(Layer::Extract).estimated_ns()),
                "ms",
            ),
            metric(
                "domain.signal_ms",
                ms_per_round(self.span(Layer::Signal).estimated_ns()),
                "ms",
            ),
            metric(
                "domain.other_ms",
                ms_per_round(self.span(Layer::Other).estimated_ns()),
                "ms",
            ),
            metric("kernel.self_ms", ms_per_round(self.kernel_self_ns), "ms"),
            metric(
                "campaign.traced_ms",
                ms_per_round(self.traced_ns as f64),
                "ms",
            ),
            metric(
                "matrix.cell_s_sum",
                self.timed_cell_s / self.timed_rounds.max(1) as f64,
                "s",
            ),
            metric(
                "matrix.pool_efficiency",
                ratio(self.timed_cell_s, self.timed_round_s * WORKERS as f64),
                "ratio",
            ),
            metric(
                "trace.overhead",
                ratio(self.traced_ns as f64 / 1e9, self.timed_cell_s),
                "ratio",
            ),
        ]
    }
}

/// The `_ms` layer totals, largest first, as one summary line. The
/// evaluator's calls (`eval.assess`, `mfs.extract`) are left out: their
/// time is split into `eval.self` and the replayed model layers.
fn attribution(metrics: &[Metric]) -> String {
    let mut layers: Vec<&Metric> = metrics
        .iter()
        .filter(|m| {
            m.unit == "ms"
                && !["campaign.traced_ms", "eval.assess_ms", "mfs.extract_ms"].contains(&m.name)
        })
        .collect();
    layers.sort_by(|a, b| b.value.total_cmp(&a.value));
    let parts: Vec<String> = layers
        .iter()
        .map(|m| format!("{} {:.1}", m.name.trim_end_matches("_ms"), m.value))
        .collect();
    format!(
        "layer time per round, ms, largest first: {}",
        parts.join(", ")
    )
}

/// The traced run: timed and traced rounds alternate until `seconds` have
/// passed; every traced digest must equal the timed one. Reports every
/// per-layer metric.
pub fn traced_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    fixtures: &GoldenFixtures,
) -> RunReport {
    let (_, catalog) = setup(workload, seed);
    let mut checker = Checker::default();
    let mut sums = LayerSums::default();
    let started = Instant::now();
    loop {
        let Some(round) = guarded(|| timed_round(workload, &catalog.specs, fixtures)) else {
            checker.panicked(catalog.specs.len());
            break;
        };
        checker.round(&round.cells);
        sums.add_timed(&round);
        let Some(cells) = guarded(|| traced_round(workload, &catalog, fixtures)) else {
            checker.panicked(catalog.specs.len());
            break;
        };
        checker.round(cells.iter().map(|c| &c.run));
        sums.add_traced(&cells);
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let metrics = sums.metrics();
    let notes = vec![
        format!(
            "{} timed and {} traced rounds of {} campaigns on {WORKERS} workers",
            sums.timed_rounds,
            sums.traced_rounds,
            catalog.specs.len()
        ),
        attribution(&metrics),
    ];
    RunReport {
        checker,
        metrics,
        notes,
    }
}
